//! Allocation budgets of [`DnsName`] and [`MessageView`]: what a name
//! costs to copy, compare, hash and build and what a datagram costs to
//! validate and walk, counted with a per-thread counting allocator and
//! held on every thread of the `RESOLVER_TEST_THREADS` axis while the
//! threads share the same names and bytes.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use dns_wire::wire::WireWriter;
use dns_wire::{
    DnsName, Message, MessageView, NameBuildHasher, NameKey, RData, Record, RecordType,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
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
    let zones: HashMap<DnsName, u32, NameBuildHasher> =
        [(name("com"), 1), (name("Example.com"), 2)].into_iter().collect();

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

                // The same walk over borrowed suffixes, probing a map.
                let hit = deep.name_ref().ancestors().find_map(|a| zones.get(a.as_key()));
                assert_eq!(hit, Some(&2));
                let (found, depth) = deep.find_ancestor(|a| zones.get(a.as_key())).unwrap();
                assert_eq!((&found, depth), (&apex, &2));

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
    // The one block every root shares is made on the process's first use.
    drop(DnsName::root());

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

#[test]
fn parsing_a_view_and_walking_every_section_allocates_nothing() {
    let owner = name("www.example.com");
    let mut reply = Message::query_dnssec(7, owner.clone(), RecordType::A).response();
    let a = |last| RData::A([192, 0, 2, last].into());
    reply.answers.push(Record::new(owner.clone(), 300, RData::Cname(name("example.com"))));
    reply.answers.extend((1..=8).map(|i| Record::new(name("example.com"), 60, a(i))));
    reply.authorities.push(Record::new(
        name("example.com"),
        3600,
        RData::Ns(name("ns1.example.com")),
    ));
    reply.additionals.push(Record::new(name("ns1.example.com"), 3600, a(53)));
    let wire = reply.encode();

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            for _ in 0..50 {
                let view = MessageView::parse(black_box(&wire)).unwrap();
                assert!(view.question().unwrap().name().eq_name(&owner));
                let sections = [
                    view.questions().count(),
                    view.answers().count(),
                    view.authorities().count(),
                    view.additionals().count(),
                ];
                assert_eq!(sections, [1, 9, 1, 1]);
            }
        });
        assert_eq!(counts, vec![0; threads], "{threads} threads");
    }
}

#[test]
fn an_owner_that_points_at_the_question_is_not_decoded() {
    let qname = name("www.example.com");
    let mut reply = Message::query_dnssec(7, qname.clone(), RecordType::A).response();
    reply.answers.push(Record::new(qname.clone(), 300, RData::A([192, 0, 2, 1].into())));
    reply.answers.push(Record::new(name("example.com"), 60, RData::A([192, 0, 2, 2].into())));
    let wire = reply.encode();
    let view = MessageView::parse(&wire).unwrap();
    let otherwise_spelled = name("WWW.example.com");
    let expected: Vec<DnsName> = view.answers().map(|r| r.name().to_owned()).collect();
    let spelled_as = |a: &DnsName, b: &DnsName| a.labels().eq(b.labels());

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            let mut answers = view.answers();
            let (at_question, other) = (answers.next().unwrap(), answers.next().unwrap());
            let (n, owner) = allocs_in(|| at_question.owner_for(&qname));
            assert_eq!(n, 0, "the asked name, shared");
            assert!(owner == expected[0] && spelled_as(&owner, &expected[0]));
            // Another spelling of the asked name: the reply's own is decoded.
            let (n, owner) = allocs_in(|| at_question.owner_for(&otherwise_spelled));
            assert_eq!(n, 1, "decoded");
            assert!(owner == expected[0] && spelled_as(&owner, &expected[0]));
            // An owner compressed against a suffix of the question.
            let (n, owner) = allocs_in(|| other.owner_for(&qname));
            assert_eq!(n, 1, "decoded");
            assert!(owner == expected[1] && spelled_as(&owner, &expected[1]));
        });
        assert_eq!(counts, vec![2; threads], "{threads} threads");
    }
}
