//! Eviction-policy invariants for the bounded [`RecordCache`]:
//!
//! 1. **Capacity bound** — for any insert sequence, under either
//!    policy, no shard ever holds more than its capacity.
//! 2. **No stale serves** — interleaved inserts, lookups, and clock
//!    advances never observe an answer a shadow TTL model says is dead;
//!    eviction reclaims entries but never resurrects them.
//! 3. **LRU inclusion** — on a fixed replayed trace, the TtlSweepLru
//!    hit count is monotone non-decreasing in capacity (a bigger LRU
//!    cache's contents are a superset of a smaller one's, shard by
//!    shard).
//! 4. **Purge-then-re-resolve** — `purge_expired` reclaims dead entries
//!    end-to-end through a real engine, and the next resolution goes
//!    recursive again and re-learns the same records.

use dns_wire::{DnsName, RData, Record, RecordType};
use ecosystem::{EcosystemConfig, World};
use netsim::Timestamp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::{EvictionPolicy, QueryEngine, RecordCache, ResolverConfig, RrSet};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const SHARDS: usize = 4;

fn name_of(d: u16) -> DnsName {
    DnsName::parse(&format!("domain-{d}.evict-prop.example")).expect("valid name")
}

fn a_record(d: u16, ttl: u32) -> Record {
    Record::new(name_of(d), ttl, RData::A(Ipv4Addr::new(192, 0, (d >> 8) as u8, d as u8)))
}

fn a_set(d: u16, ttl: u32) -> RrSet {
    RrSet::from_records(&[a_record(d, ttl)], &[])
}

fn policy_of(pick: u8) -> EvictionPolicy {
    if pick == 0 {
        EvictionPolicy::TtlSweepLru
    } else {
        EvictionPolicy::S3Fifo
    }
}

/// One scripted operation for the no-stale-serve model checker.
#[derive(Debug, Clone)]
enum Op {
    /// Insert an A RRset for domain `d` with TTL `ttl` seconds.
    Insert { d: u16, ttl: u32 },
    /// Look up domain `d`.
    Get { d: u16 },
    /// Advance the scripted clock.
    Advance { secs: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..64, 1u32..400).prop_map(|(d, ttl)| Op::Insert { d, ttl }),
        (0u16..64).prop_map(|d| Op::Get { d }),
        (1u32..300).prop_map(|secs| Op::Advance { secs }),
    ]
}

proptest! {
    #[test]
    fn bounded_shard_never_exceeds_capacity(
        inserts in proptest::collection::vec((0u16..256, 30u32..600), 1..120),
        cap in 1usize..24,
        policy_pick in 0u8..2,
    ) {
        let cache = RecordCache::with_eviction(SHARDS, None, cap, policy_of(policy_pick));
        let now = Timestamp(0);
        for &(d, ttl) in &inserts {
            cache.insert_positive(&name_of(d), RecordType::A, a_set(d, ttl), now);
            // The bound holds after *every* insert, not just at the end.
            for (shard, len) in cache.shard_lens().iter().enumerate() {
                prop_assert!(
                    *len <= cap,
                    "shard {} holds {} entries over capacity {}",
                    shard, len, cap
                );
            }
        }
        prop_assert!(cache.len() <= cap * SHARDS);
        prop_assert_eq!(cache.capacity_per_shard(), Some(cap));
    }

    #[test]
    fn eviction_never_serves_stale_answers(
        ops in proptest::collection::vec(arb_op(), 1..150),
        cap in 1usize..8,
        policy_pick in 0u8..2,
    ) {
        let cache = RecordCache::with_eviction(SHARDS, None, cap, policy_of(policy_pick));
        // Shadow TTL model: the expiry each domain's latest insert
        // promised. The cache may hold any *subset* of the live shadow
        // entries (eviction shrinks it), but must never serve beyond one.
        let mut shadow: HashMap<u16, Timestamp> = HashMap::new();
        let mut now = Timestamp(0);
        for op in &ops {
            match *op {
                Op::Insert { d, ttl } => {
                    cache.insert_positive(
                        &name_of(d), RecordType::A, a_set(d, ttl), now,
                    );
                    shadow.insert(d, now.plus(ttl as u64));
                }
                Op::Get { d } => {
                    if cache.get(&name_of(d), RecordType::A, now).is_some() {
                        let expires = shadow.get(&d).copied();
                        prop_assert!(
                            expires.is_some_and(|e| e > now),
                            "served domain {} at t={} but its newest insert expired at {:?}",
                            d, now.0, expires
                        );
                    }
                }
                Op::Advance { secs } => now = now.plus(secs as u64),
            }
        }
        // And the sweep-everything path agrees with the shadow model:
        // after a purge, nothing dead remains resident.
        cache.purge_expired(now);
        for (&d, &expires) in &shadow {
            if expires <= now {
                prop_assert!(cache.get(&name_of(d), RecordType::A, now).is_none());
            }
        }
    }
}

#[test]
fn lru_hit_count_is_monotone_in_capacity_on_a_fixed_trace() {
    // A skewed, seeded reference trace (quadratic bias toward low ids)
    // replayed verbatim against growing capacities. TTLs are long and
    // the clock never advances, so expiry can't interfere: pure LRU
    // inclusion must make the hit count monotone non-decreasing.
    let mut rng = StdRng::seed_from_u64(0xE71C7);
    let trace: Vec<u16> = (0..4_000)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            (u * u * 300.0) as u16
        })
        .collect();
    let mut hit_counts = Vec::new();
    for cap in [2usize, 4, 8, 32, 1_024] {
        let cache = RecordCache::with_eviction(SHARDS, None, cap, EvictionPolicy::TtlSweepLru);
        let now = Timestamp(0);
        let mut hits = 0u64;
        for &d in &trace {
            if cache.get(&name_of(d), RecordType::A, now).is_some() {
                hits += 1;
            } else {
                cache.insert_positive(&name_of(d), RecordType::A, a_set(d, 3_600), now);
            }
        }
        hit_counts.push((cap, hits));
    }
    for pair in hit_counts.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1,
            "LRU inclusion violated: cap {} hit {} but cap {} hit {}",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
    let first = hit_counts.first().unwrap().1;
    let last = hit_counts.last().unwrap().1;
    assert!(last > first, "the capacity range must actually matter ({first} vs {last})");
}

#[test]
fn purge_expired_reclaims_and_next_resolution_relearns() {
    let world = World::build(EcosystemConfig::tiny());
    let engine = QueryEngine::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig { validate: false, ..ResolverConfig::default() },
    );
    let apex = world.domain(world.today_list_shared().ranked()[0]).apex.clone();

    let first = engine.resolve(&apex, RecordType::Https).expect("apex resolves");
    assert!(!first.from_cache);
    let warm = engine.resolve(&apex, RecordType::Https).expect("apex resolves");
    assert!(warm.from_cache, "the second lookup must come from cache");

    let cache = engine.cache();
    let len_before = cache.len();
    assert!(len_before > 0);
    assert!(cache.approx_bytes() > 0, "resident entries must account bytes");
    assert_eq!(cache.purge_expired(world.clock.now()), 0, "nothing is dead yet");

    // Far past every TTL the tiny world hands out.
    world.clock.advance(7 * 86_400);
    let purged = cache.purge_expired(world.clock.now());
    assert!(purged >= 1, "a week must expire the warm entries");
    assert!(cache.len() < len_before, "purge must shrink the resident set");

    let relearned = engine.resolve(&apex, RecordType::Https).expect("apex re-resolves");
    assert!(!relearned.from_cache, "purged answers must be fetched recursively again");
    assert_eq!(relearned.records, first.records, "re-resolution must re-learn the same RRset");
    assert!(cache.stats().swept >= purged, "purges are counted in the swept telemetry");
}
