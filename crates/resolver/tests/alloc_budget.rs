//! Allocation budgets of the record cache's lookups and of the shared
//! answer RRsets, counted with a per-thread counting allocator; the
//! lookup budgets are held on every thread of the
//! `RESOLVER_TEST_THREADS` axis while the threads share one cache and
//! the names they look up. An answer RRset is offsets into the one
//! buffer its reply was copied into, so sharing it is a reference count
//! and parsing a reply costs the same however much the answer holds.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use dns_wire::record::RrsigRdata;
use dns_wire::{DnsName, RData, Rcode, Record, RecordType, SvcParam, SvcbRdata};
use netsim::{Network, SimClock, Timestamp};
use resolver::{CachedAnswer, Query, QueryEngine, RecordCache, ResolverConfig, RrSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn a_record(owner: &DnsName) -> RrSet {
    RrSet::from_records(
        &[Record::new(owner.clone(), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)))],
        &[],
    )
}

/// One unbounded and one bounded cache, a single shard each so that
/// two caches of a kind go through the same index states.
fn caches() -> [RecordCache; 2] {
    [RecordCache::with_shards(1), RecordCache::with_eviction(1, None, 8)]
}

#[test]
fn a_miss_allocates_nothing_and_a_hit_does_not_depend_on_the_label_count() {
    let now = Timestamp(1_000);
    let short = name("example.com");
    let deep = name("a.b.c.d.e.f.g.h.i.j.k.l.m.n.Example.COM");
    let absent = name("a.b.c.d.e.f.g.h.i.j.k.l.m.n.absent.example.com");

    for (with_short, with_deep) in caches().into_iter().zip(caches()) {
        with_short.insert_positive(&short, RecordType::A, a_record(&short), now);
        with_short.insert_negative(&short, RecordType::Aaaa, Rcode::NoError, 60, now);
        with_deep.insert_positive(&deep, RecordType::A, a_record(&deep), now);
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

        // Hits move the bounded cache's recency index, so the two
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
    cache.insert_positive(&short, RecordType::A, a_record(&short), now);
    cache.insert_positive(&deep, RecordType::A, a_record(&deep), now);
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

#[test]
fn a_positive_hit_is_a_reference_count_on_the_set_that_was_inserted() {
    let now = Timestamp(1_000);
    let owner = name("example.com");
    let other = name("other.example.com");
    let rrsig = RrsigRdata {
        type_covered: RecordType::A,
        algorithm: 13,
        labels: 2,
        original_ttl: 300,
        expiration: 2_000,
        inception: 500,
        key_tag: 7,
        signer: owner.clone(),
        signature: vec![0xAB; 64],
    };
    for (size, signed) in [(1u8, false), (1, true), (8, false), (8, true)] {
        let records: Vec<Record> = (0..size)
            .map(|i| Record::new(owner.clone(), 300, RData::A(Ipv4Addr::new(192, 0, 2, i))))
            .collect();
        let rrsigs = if signed { vec![rrsig.clone()] } else { Vec::new() };
        let set = RrSet::from_records(&records, &rrsigs);
        assert_eq!((set.len(), set.rrsig_count()), (records.len(), rrsigs.len()));
        for cache in caches() {
            // A second entry, so that a hit never empties an index.
            cache.insert_positive(&other, RecordType::A, a_record(&other), now);
            cache.insert_positive(&owner, RecordType::A, set.clone(), now);
            for _ in 0..3 {
                let (n, got) = allocs_in(|| cache.get(&owner, RecordType::A, now));
                assert_eq!(n, 0, "{size} records, signed: {signed}");
                let Some(CachedAnswer::Positive(got)) = got else {
                    panic!("expected a positive hit, got {got:?}");
                };
                assert!(Arc::ptr_eq(got.reply(), set.reply()));
                assert_eq!(got, set);
            }
        }
    }
}

/// An engine over one honest server for `h.com`, whose HTTPS RRset holds
/// `records` ServiceMode records of `params` SvcParams each.
fn https_engine(records: u16, params: usize) -> QueryEngine {
    let apex = name("h.com");
    let all = [
        SvcParam::Mandatory(vec![1]),
        SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]),
        SvcParam::NoDefaultAlpn,
        SvcParam::Port(8443),
        SvcParam::Ipv4Hint(vec![Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(192, 0, 2, 2)]),
        SvcParam::Ech(vec![0xFE, 0x0D, 0, 4, 1, 2, 3, 4]),
        SvcParam::Ipv6Hint(vec![Ipv4Addr::new(192, 0, 2, 3).to_ipv6_mapped()]),
    ];
    let mut zone = Zone::new(apex.clone());
    for priority in 1..=records {
        let rdata = SvcbRdata { priority, target: DnsName::root(), params: all[..params].to_vec() };
        zone.add(Record::new(apex.clone(), 60, RData::Https(rdata)));
    }
    serve(zone)
}

/// An engine, without validation, whose one authority serves `zone`.
fn serve(zone: Zone) -> QueryEngine {
    let apex = zone.apex.clone();
    let zones = ZoneSet::new();
    zones.insert(zone);
    let net = Network::new(SimClock::new());
    let ip = "10.0.0.1".parse().unwrap();
    net.bind_datagram(ip, 53, Arc::new(AuthoritativeServer::new(zones)));
    let reg = DelegationRegistry::new();
    reg.delegate(&apex, vec![NsEndpoint { name: name("ns1.x.net"), ip }]);
    QueryEngine::new(net, reg, ResolverConfig { validate: false, ..Default::default() })
}

#[test]
fn parsing_a_reply_costs_the_same_however_many_records_and_params_it_holds() {
    let apex = name("h.com");
    let mut counts = Vec::new();
    for (records, params) in [(1, 0), (1, 7), (3, 2), (8, 0), (8, 7)] {
        let engine = https_engine(records, params);
        // The first resolution has the authority compile its answer and
        // the cache size its table; the second one pays only for the
        // query, the reply datagram and the one buffer it is parsed into.
        assert_eq!(engine.resolve(&apex, RecordType::Https).unwrap().records.len(), records.into());
        engine.cache().flush();
        let (n, cold) = allocs_in(|| engine.resolve(&apex, RecordType::Https).unwrap());
        assert!(!cold.from_cache);
        assert_eq!(cold.records.len(), usize::from(records));
        counts.push(n);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "allocations per cold resolution: {counts:?}");
}

/// An engine over one honest server for `a.com`: an unsigned zone with
/// an A RRset of two records.
fn a_com_engine() -> QueryEngine {
    let apex = name("a.com");
    let mut zone = Zone::new(apex.clone());
    for last in [4, 5] {
        zone.add(Record::new(apex.clone(), 60, RData::A(Ipv4Addr::new(1, 2, 3, last))));
    }
    serve(zone)
}

#[test]
fn an_answer_without_records_allocates_nothing_for_its_sets() {
    let engine = a_com_engine();
    for (owner, rtype, rcode) in [
        (name("a.com"), RecordType::Aaaa, Rcode::NoError),
        (name("nx.a.com"), RecordType::A, Rcode::NxDomain),
    ] {
        let live = engine.resolve(&owner, rtype).unwrap();
        assert!(!live.from_cache && !live.is_positive());
        assert_eq!(live.rcode, rcode);
        // Served from the negative cache, the whole resolution is free…
        let (n, cached) = allocs_in(|| engine.resolve(&owner, rtype).unwrap());
        assert_eq!(n, 0, "{rcode:?} from the cache");
        assert!(cached.from_cache);
        // …and the live one held the same process-wide empty buffer.
        assert!(Arc::ptr_eq(live.records.reply(), cached.records.reply()), "{rcode:?}");
    }
}

#[test]
fn duplicates_in_a_batch_and_later_hits_share_the_set_the_reply_was_parsed_into() {
    let engine = a_com_engine();
    let query = Query::new(name("a.com"), RecordType::A);
    let upper = Query::new(name("A.COM"), RecordType::A);
    let batch = engine.resolve_batch(&[query.clone(), upper, query.clone()], 1);
    let first = batch[0].as_ref().unwrap();
    assert_eq!(first.records.len(), 2);
    for duplicate in &batch[1..] {
        let duplicate = duplicate.as_ref().unwrap();
        assert!(Arc::ptr_eq(first.records.reply(), duplicate.records.reply()));
    }
    // The cache holds that same set, and a warm resolution hands it out
    // again without allocating.
    let (n, warm) = allocs_in(|| engine.resolve(&query.name, query.rtype).unwrap());
    assert_eq!(n, 0, "warm positive resolution");
    assert!(warm.from_cache && Arc::ptr_eq(first.records.reply(), warm.records.reply()));
}
