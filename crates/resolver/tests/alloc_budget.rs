//! Allocation budgets of the record cache's lookups, of stores into a
//! full bounded shard and of the shared answer RRsets, counted with a
//! per-thread counting allocator; the
//! lookup budgets are held on every thread of the
//! `RESOLVER_TEST_THREADS` axis while the threads share one cache and
//! the names they look up. An answer RRset is offsets into the one
//! buffer its reply was copied into, so sharing it is a reference count
//! and parsing a reply costs the same however much the answer holds.
//! Validating a cached answer reads its signatures, and its chain's, in
//! the cached replies, so it adds no allocation to a warm resolution.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use dns_wire::record::RrsigRdata;
use dns_wire::{DnsName, RData, Rcode, Record, RecordType, SvcParam, SvcbRdata};
use dnssec::{ValidationState, ZoneKeys};
use netsim::{LinkModel, Network, SimClock, Timestamp};
use resolver::{
    CachedAnswer, Query, QueryEngine, RecordCache, ResolverConfig, RrSet, SelectionStrategy,
    RETRANSMITS,
};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

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
    [RecordCache::with_config(1, None), RecordCache::with_eviction(1, None, 8)]
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

        // Hits move the bounded cache's recency list, so the two caches
        // are stepped in lockstep on one thread.
        for _ in 0..50 {
            let (on_short, got) = allocs_in(|| with_short.get(&short, RecordType::A, now));
            assert!(matches!(got, Some(CachedAnswer::Positive { .. })));
            let (on_deep, got) = allocs_in(|| with_deep.get(&deep, RecordType::A, now));
            assert!(matches!(got, Some(CachedAnswer::Positive { .. })));
            assert_eq!((on_short, on_deep), (0, 0), "positive hit");
            let (on_short, got) = allocs_in(|| with_short.get(&short, RecordType::Aaaa, now));
            assert!(matches!(got, Some(CachedAnswer::Negative { .. })));
            let (on_deep, _) = allocs_in(|| with_deep.get(&deep, RecordType::Aaaa, now));
            assert_eq!((on_short, on_deep), (0, 0), "negative hit");
        }
    }
}

#[test]
fn hits_on_a_shared_unbounded_cache_cost_the_same_on_every_thread() {
    let now = Timestamp(1_000);
    let short = name("example.com");
    let deep = name("a.b.c.d.e.f.g.h.i.j.k.l.m.n.example.com");
    let cache = RecordCache::default();
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

/// `count` distinct owners under one parent, each with a one-record A
/// set built up front, so that storing one costs only the cache's work.
fn owners(count: usize) -> Vec<(DnsName, RrSet)> {
    (0..count)
        .map(|i| {
            let owner = name(&format!("d{i}.example.com"));
            let set = a_record(&owner);
            (owner, set)
        })
        .collect()
}

#[test]
fn a_bounded_hit_allocates_nothing_whatever_the_shard_holds() {
    let now = Timestamp(1_000);
    for capacity in [1, 2, 12, 64, 300] {
        let cache = RecordCache::with_eviction(1, None, capacity);
        let resident = owners(capacity);
        for (owner, set) in &resident {
            cache.insert_positive(owner, RecordType::A, set.clone(), now);
        }
        // Every hit moves its entry to the most recently used end, from
        // the least recently used end first and then from the middle.
        for step in 0..3 * capacity {
            let (owner, _) = &resident[(step * 7) % capacity];
            let (n, got) = allocs_in(|| cache.get(owner, RecordType::A, now));
            assert!(got.is_some());
            assert_eq!(n, 0, "capacity {capacity}, hit {step}");
        }
        assert_eq!(cache.stats().evictions, 0);
    }
}

#[test]
fn storing_a_fresh_key_into_a_full_bounded_shard_allocates_nothing() {
    let now = Timestamp(1_000);
    for capacity in [1, 2, 12, 64, 300] {
        let cache = RecordCache::with_eviction(1, None, capacity);
        let stream = owners(20 * capacity);
        // Fill the shard and overflow it many times over: the recency
        // list is full after one round, and the entry table once the
        // removed entries' tombstones have had it grow to where it
        // rehashes in place.
        let (warm, measured) = stream.split_at(16 * capacity);
        for (owner, set) in warm {
            cache.insert_positive(owner, RecordType::A, set.clone(), now);
        }
        for (i, (owner, set)) in measured.iter().enumerate() {
            let set = set.clone();
            let (n, ()) = allocs_in(|| cache.insert_positive(owner, RecordType::A, set, now));
            assert_eq!(n, 0, "capacity {capacity}, store {i}");
        }
        assert_eq!(cache.len(), capacity);
        assert_eq!(cache.stats().evictions, 19 * capacity as u64);
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
    reg.delegate(&apex, &[NsEndpoint { name: name("ns1.x.net"), ip }]);
    QueryEngine::new(net, reg, ResolverConfig { validate: false, ..Default::default() })
}

#[test]
fn parsing_a_reply_costs_the_same_however_many_records_and_params_it_holds() {
    let apex = name("h.com");
    let mut counts = Vec::new();
    for (records, params) in [(1, 0), (1, 7), (3, 2), (8, 0), (8, 7)] {
        let engine = https_engine(records, params);
        // The first resolution has the cache size its table and the
        // thread its exchange buffers; the second one pays only for the
        // one buffer the reply is parsed into.
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
fn a_warm_threads_cold_resolution_allocates_only_the_reply_it_keeps() {
    let engine = a_com_engine();
    let apex = name("a.com");
    // The first resolution sizes the cache's table and this thread's
    // query and reply buffers; every later exchange reuses them.
    assert_eq!(engine.resolve(&apex, RecordType::A).unwrap().records.len(), 2);
    for _ in 0..3 {
        engine.cache().flush();
        let (n, cold) = allocs_in(|| engine.resolve(&apex, RecordType::A).unwrap());
        assert!(!cold.from_cache);
        assert_eq!(cold.records.len(), 2);
        assert_eq!(n, 1, "the one buffer the reply is parsed into");
    }
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

/// An engine over a signed hierarchy: the root, then `depth` zones each
/// delegated from the one above, which publishes its DS (`com`,
/// `x1.com`, …, the last named `h`), the last holding an HTTPS RRset of
/// `records` records. Returns it with that set's owner.
fn signed_chain(depth: usize, records: u16, validate: bool) -> (QueryEngine, DnsName) {
    let mut apexes = vec![DnsName::root()];
    for i in 0..depth {
        let label = match i {
            0 if depth > 1 => "com".to_string(),
            _ if i + 1 == depth => "h".to_string(),
            _ => format!("x{i}"),
        };
        apexes.push(apexes[i].prepend(&label).unwrap());
    }
    let keys: Vec<ZoneKeys> = apexes.iter().map(|apex| ZoneKeys::derive(apex, 0)).collect();
    let net = Network::new(SimClock::new());
    let reg = DelegationRegistry::new();
    for (i, apex) in apexes.iter().enumerate() {
        let mut zone = Zone::new(apex.clone());
        zone.enable_signing(keys[i].clone(), 0, u32::MAX - 1);
        if let Some(child) = keys.get(i + 1) {
            zone.add(child.ds_record(300));
        }
        for priority in (1..=records).filter(|_| i == depth) {
            let rdata = SvcbRdata::service_self(vec![SvcParam::Port(priority)]);
            zone.add(Record::new(apex.clone(), 60, RData::Https(SvcbRdata { priority, ..rdata })));
        }
        let zones = ZoneSet::new();
        zones.insert(zone);
        let ip = Ipv4Addr::new(10, 0, 0, i as u8 + 1).into();
        net.bind_datagram(ip, 53, Arc::new(AuthoritativeServer::new(zones)));
        reg.delegate(apex, &[NsEndpoint { name: name("ns.example.net"), ip }]);
    }
    let config = ResolverConfig { validate, ..Default::default() };
    (QueryEngine::new(net, reg, config), apexes[depth].clone())
}

/// What validating adds to a warm resolution of a signed HTTPS set whose
/// DNSKEY and DS chain is cached: nothing, whatever the set's size or the
/// chain's depth. Each signature is checked over signed data built from
/// the cached replies into buffers each thread keeps, and the chain walk
/// names each zone by a suffix of the owner's name. The revision before
/// counted 38, 44 and 60 for sets of 1, 3 and 8 records one zone below
/// the root, and 18 more per zone further down: the set and each DNSKEY
/// and DS set decoded into owned records, the keyset rebuilt, the signed
/// data built anew for each signature checked.
const VALIDATION_EXTRA: u64 = 0;

/// Every thread's allocations for a warm resolution of `owner`'s HTTPS
/// set, after one resolution on that thread has sized its buffers; each
/// resolution's verdict is the cold one's, `verdict`.
fn warm_allocations(
    engine: &QueryEngine,
    owner: &DnsName,
    verdict: Option<ValidationState>,
    threads: usize,
) -> Vec<u64> {
    let counts = Mutex::new(Vec::new());
    allocs_per_thread(threads, || {
        engine.resolve(owner, RecordType::Https).unwrap();
        let (n, warm) = allocs_in(|| engine.resolve(owner, RecordType::Https).unwrap());
        assert!(warm.from_cache);
        assert_eq!(warm.validation, verdict);
        counts.lock().unwrap().push(n);
    });
    counts.into_inner().unwrap()
}

#[test]
fn a_warm_validated_resolution_allocates_what_an_unvalidated_one_does() {
    for depth in [1, 2, 3] {
        for records in [1, 3, 8] {
            let [plain, validated] = [false, true].map(|validate| {
                let (engine, owner) = signed_chain(depth, records, validate);
                let cold = engine.resolve(&owner, RecordType::Https).unwrap();
                assert_eq!(cold.records.len(), usize::from(records));
                assert_eq!(cold.validation, validate.then_some(ValidationState::Secure));
                thread_axis()
                    .into_iter()
                    .flat_map(|threads| warm_allocations(&engine, &owner, cold.validation, threads))
                    .collect::<Vec<u64>>()
            });
            for (plain, validated) in plain.iter().zip(&validated) {
                assert_eq!(
                    *validated,
                    plain + VALIDATION_EXTRA,
                    "{depth} zones below the root, {records} records: {plain:?} unvalidated, \
                     {validated:?} validated"
                );
            }
        }
    }
}

/// Heap blocks the event loop asks for per distinct query of a batch on
/// the zero model, each query answered by its zone's first endpoint in
/// one exchange: the boxed task, the query it writes (as the buffer
/// grows), the reply the network delivers and the buffer that reply is
/// parsed into. The loop kept a queue per zone, a counter cell per task
/// and a reply cell per exchange before, 10 in all.
const EVENT_LOOP_BLOCKS_PER_QUERY: u64 = 7;

/// Heap blocks the event loop adds per attempt it sends after a timeout
/// (a retransmit, or the first send to the next NS) on a lossy batch:
/// the attempt reuses its query and parks its outcome in its task's
/// slot. 1 before, the exchange's reply cell.
const EVENT_LOOP_BLOCKS_PER_RETRANSMIT: u64 = 0;

/// An engine that does not validate and picks its zones' first endpoint
/// first, over `zones` one-name zones `z{i}.com` (an A record at each
/// apex) that `10.0.0.1` and then `10.0.0.2` both serve, on a network
/// carrying `model`; with the A query of each apex.
fn looped_engine(zones: usize, model: LinkModel) -> (QueryEngine, Vec<Query>) {
    let set = ZoneSet::new();
    let reg = DelegationRegistry::new();
    let endpoints = [1, 2].map(|i| NsEndpoint {
        name: name(&format!("ns{i}.x.net")),
        ip: Ipv4Addr::new(10, 0, 0, i).into(),
    });
    let mut queries = Vec::new();
    for i in 0..zones {
        let apex = name(&format!("z{i}.com"));
        let mut zone = Zone::new(apex.clone());
        zone.add(Record::new(apex.clone(), 60, RData::A(Ipv4Addr::new(192, 0, 2, 1))));
        set.insert(zone);
        reg.delegate(&apex, &endpoints);
        queries.push(Query::new(apex, RecordType::A));
    }
    let net = Network::new(SimClock::new());
    let server = Arc::new(AuthoritativeServer::new(set));
    for ep in &endpoints {
        net.bind_datagram(ep.ip, 53, server.clone());
    }
    net.set_latency_model(model);
    let config = ResolverConfig {
        validate: false,
        strategy: SelectionStrategy::First,
        ..Default::default()
    };
    (QueryEngine::new(net, reg, config), queries)
}

/// Heap blocks the calling thread asks for to resolve `queries` as one
/// batch on `engine`'s event loop from a flushed cache, with the
/// batch's timeout count; every query must be answered.
fn loop_batch_blocks(engine: &QueryEngine, queries: &[Query], threads: usize) -> (u64, u64) {
    engine.cache().flush();
    let (n, (results, timing)) = allocs_in(|| engine.resolve_batch_timed(queries, threads));
    assert!(results.iter().all(|r| r.as_ref().is_ok_and(|res| res.records.len() == 1)));
    (n, timing.expect("the batch ran on the event loop").stats.timeouts)
}

#[test]
fn the_event_loop_allocates_a_fixed_count_per_query_and_per_retransmit() {
    // 40 and 48 distinct queries fill every growing table of a batch to
    // the same capacity, so their difference is 8 queries' own blocks.
    let (small, large) = (40, 48);
    let lame = LinkModel::zero().with_lame_endpoint(Ipv4Addr::new(10, 0, 0, 1).into());
    for threads in thread_axis() {
        let [zero, lossy] = [LinkModel::zero(), lame.clone()].map(|model| {
            let (engine, queries) = looped_engine(large, model);
            // The first batch sizes the cache's tables and the
            // selector's; a flush keeps them.
            loop_batch_blocks(&engine, &queries, threads);
            [small, large].map(|n| loop_batch_blocks(&engine, &queries[..n], threads))
        });
        let [(at_small, _), (at_large, no_timeouts)] = zero;
        assert_eq!(no_timeouts, 0);
        let per_query = (at_large - at_small) / (large - small) as u64;
        assert_eq!(
            (at_large - at_small, per_query),
            ((large - small) as u64 * EVENT_LOOP_BLOCKS_PER_QUERY, EVENT_LOOP_BLOCKS_PER_QUERY),
            "zero model, {threads} threads: {at_small} blocks for {small} queries, \
             {at_large} for {large}"
        );
        // The first endpoint is mute: each query times out on it once
        // per attempt, then the second endpoint answers.
        let (lossy_large, timeouts) = lossy[1];
        assert_eq!(timeouts, large as u64 * u64::from(RETRANSMITS + 1));
        assert_eq!(
            lossy_large - at_large,
            timeouts * EVENT_LOOP_BLOCKS_PER_RETRANSMIT,
            "lossy, {threads} threads: {lossy_large} blocks against {at_large} lossless"
        );
    }
}
