//! Allocation budgets of [`DnsName`]: what a name costs to copy,
//! compare, hash and build, counted with a per-thread counting allocator
//! and held on every thread of the `RESOLVER_TEST_THREADS` axis while
//! the threads share the same names.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use dns_wire::wire::WireWriter;
use dns_wire::{DnsName, Message, MessageView, RecordType};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

#[test]
fn copying_comparing_and_hashing_a_name_allocate_nothing() {
    let deep = name("a.b.c.d.e.f.WWW.Example.COM");
    let same = name("A.B.C.D.E.F.www.example.com");
    let apex = name("example.com");
    let other = name("a.b.c.d.e.f.www.example.org");
    let tree: BTreeMap<DnsName, u32> =
        (0..200).map(|i| (name(&format!("host{i}.zone{}.example.com", i % 7)), i)).collect();
    let probe = name("HOST150.zone3.EXAMPLE.com");

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            for _ in 0..100 {
                let copy = black_box(&deep).clone();
                assert!(copy == same && copy != other);
                assert_eq!(copy.cmp(&same), std::cmp::Ordering::Equal);
                assert_ne!(copy.cmp(&other), std::cmp::Ordering::Equal);
                let mut h = DefaultHasher::new();
                copy.hash(&mut h);
                black_box(h.finish());
                assert!(copy.is_subdomain_of(&apex) && !copy.is_subdomain_of(&other));
                assert_eq!(black_box(copy.label_count()) + 1, copy.labels().count() + 1);

                // The ancestor walk every delegation and zone lookup does.
                let mut levels = 0;
                let mut candidate = Some(copy);
                while let Some(c) = candidate {
                    levels += usize::from(c == apex || c.is_root());
                    candidate = c.parent();
                }
                assert_eq!(levels, 2);

                assert_eq!(tree.get(black_box(&probe)), Some(&150));
                assert_eq!(tree.get(&deep), None);
                black_box(DnsName::root());
            }
        });
        assert_eq!(counts, vec![0; threads], "{threads} threads");
    }
}

#[test]
fn building_a_name_allocates_once() {
    let apex = name("example.com");
    let mut w = WireWriter::new();
    w.put_name(&name("example.com"));
    let at = w.len();
    w.put_name(&name("www.example.com")); // one label and a pointer
    let wire = w.into_bytes();
    let query = Message::query(1, name("www.example.com"), RecordType::Https).encode();
    let view = MessageView::parse(&query).unwrap();

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            let (n, www) = allocs_in(|| apex.prepend("www").unwrap());
            assert_eq!(n, 1, "prepend");
            let (n, decoded) = allocs_in(|| DnsName::decode_at(&wire, at).unwrap().0);
            assert_eq!(n, 1, "decode_at");
            let (n, owned) = allocs_in(|| view.question().unwrap().name().to_owned());
            assert_eq!(n, 1, "NameView::to_owned");
            let (n, parsed) = allocs_in(|| DnsName::parse("www.example.com").unwrap());
            assert_eq!(n, 1, "parse");
            let (n, built) = allocs_in(|| DnsName::from_labels(["www", "example", "com"]).unwrap());
            assert_eq!(n, 1, "from_labels");
            assert!(www == decoded && www == owned && www == parsed && www == built);
            // The root is shared, however it is arrived at.
            let (n, roots) = allocs_in(|| {
                (DnsName::root(), DnsName::parse(".").unwrap(), DnsName::decode_at(&[0], 0))
            });
            assert_eq!(n, 0, "root");
            drop(roots);
        });
        // Each thread's whole closure: the five names it built.
        assert_eq!(counts, vec![5; threads], "{threads} threads");
    }
}
