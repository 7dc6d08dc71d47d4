//! Eviction invariants for the bounded [`RecordCache`] (TTL sweep, then
//! LRU):
//!
//! 1. **Capacity bound** — for any insert sequence, no shard ever holds
//!    more than its capacity.
//! 2. **No stale serves** — interleaved inserts, lookups, and clock
//!    advances never observe an answer a shadow TTL model says is dead;
//!    eviction reclaims entries but never resurrects them.
//! 3. **LRU inclusion** — on a fixed replayed trace, the hit count is monotone non-decreasing in capacity (a bigger LRU
//!    cache's contents are a superset of a smaller one's, shard by
//!    shard).
//! 4. **Expire-then-re-resolve** — once the clock passes every TTL, a
//!    resolution through a real engine finds its entry dead, goes
//!    recursive again and re-learns the same records.
//! 5. **Reference model** — random inserts, lookups and clock advances
//!    give the lookup outcomes, counters and resident keys of a plain
//!    `Vec` per shard: on overflow sweep every expired entry, then evict
//!    from the least recently used end.

use dns_wire::{DnsName, RData, Record, RecordType};
use ecosystem::{EcosystemConfig, World};
use netsim::Timestamp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::{CacheStats, QueryEngine, RecordCache, ResolverConfig, RrSet};
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
    ) {
        let cache = RecordCache::with_eviction(SHARDS, None, cap);
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
    ) {
        let cache = RecordCache::with_eviction(SHARDS, None, cap);
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
        // And at the end, nothing the shadow model says is dead is served.
        for (&d, &expires) in &shadow {
            if expires <= now {
                prop_assert!(cache.get(&name_of(d), RecordType::A, now).is_none());
            }
        }
    }
}

/// One operation of the reference-model check.
#[derive(Debug, Clone)]
enum ModelOp {
    Insert { d: u16, ttl: u32 },
    Get { d: u16 },
    Advance { secs: u32 },
}

fn arb_model_op() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (0u16..24, 0u32..400).prop_map(|(d, ttl)| ModelOp::Insert { d, ttl }),
        (0u16..24).prop_map(|d| ModelOp::Get { d }),
        (1u32..120).prop_map(|secs| ModelOp::Advance { secs }),
    ]
}

/// The cache's shard for domain `d`: FNV-1a over the case-folded
/// dotted key, modulo the shard count, as the cache documents it.
fn shard_of(d: u16, shards: usize) -> usize {
    let h = name_of(d)
        .key()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    (h % shards as u64) as usize
}

/// One bounded shard as a list of `(domain, expiry second)`, least
/// recently used first, with the counters it should have bumped.
#[derive(Default)]
struct ModelShard {
    entries: Vec<(u16, u64)>,
    stats: CacheStats,
}

impl ModelShard {
    fn sweep(&mut self, now: u64) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|&(_, expires)| expires > now);
        (before - self.entries.len()) as u64
    }

    fn insert(&mut self, d: u16, expires: u64, now: u64, cap: usize) {
        self.stats.insertions += 1;
        self.entries.retain(|&(k, _)| k != d);
        self.entries.push((d, expires));
        if self.entries.len() > cap {
            self.stats.swept += self.sweep(now);
            while self.entries.len() > cap {
                self.entries.remove(0);
                self.stats.evictions += 1;
            }
        }
    }

    fn get(&mut self, d: u16, now: u64) -> bool {
        let Some(at) = self.entries.iter().position(|&(k, _)| k == d) else {
            self.stats.miss_absent += 1;
            return false;
        };
        let entry = self.entries.remove(at);
        if entry.1 <= now {
            self.stats.miss_expired += 1;
            return false;
        }
        self.entries.push(entry);
        self.stats.hits += 1;
        true
    }
}

/// Run `ops` against a bounded cache and the model, comparing after
/// every operation.
fn check_against_model(ops: &[ModelOp], shards: usize, cap: usize) {
    let cache = RecordCache::with_eviction(shards, None, cap);
    let mut model: Vec<ModelShard> = (0..shards).map(|_| ModelShard::default()).collect();
    let mut now = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            ModelOp::Insert { d, ttl } => {
                let at = Timestamp(now);
                cache.insert_positive(&name_of(d), RecordType::A, a_set(d, ttl), at);
                model[shard_of(d, shards)].insert(d, now + ttl as u64, now, cap);
            }
            ModelOp::Get { d } => {
                let hit = cache.get(&name_of(d), RecordType::A, Timestamp(now)).is_some();
                let expected = model[shard_of(d, shards)].get(d, now);
                assert_eq!(hit, expected, "step {}: get {} at t={}", step, d, now);
            }
            ModelOp::Advance { secs } => now += secs as u64,
        }
        let counters = |s: &CacheStats| {
            (s.hits, s.miss_absent, s.miss_expired, s.insertions, s.evictions, s.swept)
        };
        for (i, (got, want)) in cache.shard_stats().iter().zip(&model).enumerate() {
            assert_eq!(counters(got), counters(&want.stats), "step {}: shard {} counters", step, i);
        }
        let lens: Vec<usize> = model.iter().map(|s| s.entries.len()).collect();
        assert_eq!(cache.shard_lens(), lens, "step {}: resident entries per shard", step);
        for d in 0..24u16 {
            let live = model[shard_of(d, shards)]
                .entries
                .iter()
                .find(|&&(k, expires)| k == d && expires > now)
                .map(|&(_, expires)| Timestamp(expires));
            let held = cache.expires_at(&name_of(d), RecordType::A, Timestamp(now));
            assert_eq!(held, live, "step {}: domain {} live at t={}", step, d, now);
        }
    }
}

proptest! {
    #[test]
    fn bounded_cache_matches_the_reference_model(
        ops in proptest::collection::vec(arb_model_op(), 1..200),
        cap in 1usize..8,
    ) {
        check_against_model(&ops, 1, cap);
        check_against_model(&ops, SHARDS, cap);
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
        let cache = RecordCache::with_eviction(SHARDS, None, cap);
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
fn expired_answers_miss_and_next_resolution_relearns() {
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

    // Far past every TTL the tiny world hands out.
    let cache = engine.cache();
    let expired_before = cache.stats().miss_expired;
    world.clock.advance(7 * 86_400);
    let relearned = engine.resolve(&apex, RecordType::Https).expect("apex re-resolves");
    assert!(!relearned.from_cache, "expired answers must be fetched recursively again");
    assert_eq!(relearned.records, first.records, "re-resolution must re-learn the same RRset");
    assert!(cache.stats().miss_expired > expired_before, "the dead entry is an expired miss");
}
