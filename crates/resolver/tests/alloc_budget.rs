//! Allocation budgets of the record cache's lookups, counted with a
//! per-thread counting allocator and held on every thread of the
//! `RESOLVER_TEST_THREADS` axis while the threads share one cache and
//! the names they look up.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use dns_wire::{DnsName, RData, Rcode, Record, RecordType};
use netsim::Timestamp;
use resolver::{CachedAnswer, EvictionPolicy, RecordCache};
use std::net::Ipv4Addr;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn a_record(owner: &DnsName) -> Vec<Record> {
    vec![Record::new(owner.clone(), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)))]
}

/// One unbounded and one of each bounded kind, a single shard each so
/// that two caches of a kind go through the same index states.
fn caches() -> [RecordCache; 3] {
    [
        RecordCache::with_shards(1),
        RecordCache::with_eviction(1, None, 8, EvictionPolicy::TtlSweepLru),
        RecordCache::with_eviction(1, None, 8, EvictionPolicy::S3Fifo),
    ]
}

#[test]
fn a_miss_allocates_nothing_and_a_hit_does_not_depend_on_the_label_count() {
    let now = Timestamp(1_000);
    let short = name("example.com");
    let deep = name("a.b.c.d.e.f.g.h.i.j.k.l.m.n.Example.COM");
    let absent = name("a.b.c.d.e.f.g.h.i.j.k.l.m.n.absent.example.com");

    for (with_short, with_deep) in caches().into_iter().zip(caches()) {
        with_short.insert_positive(&short, RecordType::A, a_record(&short), Vec::new(), now);
        with_short.insert_negative(&short, RecordType::Aaaa, Rcode::NoError, 60, now);
        with_deep.insert_positive(&deep, RecordType::A, a_record(&deep), Vec::new(), now);
        with_deep.insert_negative(&deep, RecordType::Aaaa, Rcode::NoError, 60, now);

        for threads in thread_axis() {
            let counts = allocs_per_thread(threads, || {
                for _ in 0..50 {
                    for cache in [&with_short, &with_deep] {
                        let (n, got) = allocs_in(|| cache.get(&absent, RecordType::A, now));
                        assert!(got.is_none());
                        assert_eq!(n, 0, "miss");
                        let (n, got) = allocs_in(|| cache.get(&short, RecordType::Https, now));
                        assert!(got.is_none());
                        assert_eq!(n, 0, "miss on a known owner");
                    }
                }
            });
            assert_eq!(counts, vec![0; threads], "misses, {threads} threads");
        }

        // Hits move the bounded caches' recency indexes, so the two
        // caches are stepped in lockstep on one thread.
        for _ in 0..50 {
            let (on_short, got) = allocs_in(|| with_short.get(&short, RecordType::A, now));
            assert!(matches!(got, Some(CachedAnswer::Positive { .. })));
            let (on_deep, got) = allocs_in(|| with_deep.get(&deep, RecordType::A, now));
            assert!(matches!(got, Some(CachedAnswer::Positive { .. })));
            assert_eq!(on_short, on_deep, "positive hit");
            let (on_short, got) = allocs_in(|| with_short.get(&short, RecordType::Aaaa, now));
            assert!(matches!(got, Some(CachedAnswer::Negative { .. })));
            let (on_deep, _) = allocs_in(|| with_deep.get(&deep, RecordType::Aaaa, now));
            assert_eq!(on_short, on_deep, "negative hit");
        }
    }
}

#[test]
fn hits_on_a_shared_unbounded_cache_cost_the_same_on_every_thread() {
    let now = Timestamp(1_000);
    let short = name("example.com");
    let deep = name("a.b.c.d.e.f.g.h.i.j.k.l.m.n.example.com");
    let cache = RecordCache::new();
    cache.insert_positive(&short, RecordType::A, a_record(&short), Vec::new(), now);
    cache.insert_positive(&deep, RecordType::A, a_record(&deep), Vec::new(), now);
    let (per_hit, _) = allocs_in(|| cache.get(&short, RecordType::A, now));

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            for owner in [&short, &deep] {
                for _ in 0..50 {
                    assert!(cache.get(owner, RecordType::A, now).is_some());
                }
            }
        });
        assert_eq!(counts, vec![100 * per_hit; threads], "{threads} threads");
    }
}
