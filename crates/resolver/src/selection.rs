//! Name-server selection: which of a zone's NS endpoints a resolver
//! queries. Public resolvers use different strategies (fastest, rotated,
//! random); the paper's §4.2.3 shows that with mixed-provider NS sets the
//! strategy decides whether a client sees the HTTPS record at all, so the
//! strategy is pluggable and an ablation axis.

use crate::cache::fnv1a_key;
use authserver::NsEndpoint;
use dns_wire::{DnsName, NameBuildHasher};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Strategy for picking an NS endpoint from a zone's delegation set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Always the first listed endpoint (deterministic, models a
    /// resolver pinned to its measured-fastest server).
    First,
    /// Rotate through endpoints per zone (models per-query rotation).
    RoundRobin,
    /// Uniform random choice (seeded; models randomized selection). The
    /// pick sequence is **per zone**: each zone draws from its own RNG
    /// seeded from `(selector seed, zone's dotted key)`, so picks in one
    /// zone are independent of how queries against other zones
    /// interleave.
    Random,
}

/// Stateful selector owned by one resolver.
pub struct NsSelector {
    strategy: SelectionStrategy,
    seed: u64,
    state: Mutex<SelectorState>,
}

/// One selection stream per zone and map: index 0 holds a zone's own
/// queries, index 1 (`ds`) the DS queries about it, which go to its
/// parent's servers and must not disturb either zone's own rotation.
type Streams<T> = [HashMap<DnsName, T, NameBuildHasher>; 2];

#[derive(Default)]
struct SelectorState {
    counters: Streams<usize>,
    /// Per-zone RNGs for `Random`, lazily seeded from `(seed, stream)`.
    /// One RNG per zone (rather than one shared stream) keeps the pick
    /// sequence of a zone invariant under cross-zone interleaving, which
    /// is what makes `QueryEngine::resolve_batch` thread-count-invariant
    /// under `Random` (all queries for one zone share a worker).
    rngs: Streams<StdRng>,
}

/// Step `zone`'s stream in `streams`: an existing one through
/// `get_mut`; only a new one, made by `new`, clones the zone.
fn step<T, R>(
    streams: &mut HashMap<DnsName, T, NameBuildHasher>,
    zone: &DnsName,
    new: impl FnOnce() -> T,
    step: impl FnOnce(&mut T) -> R,
) -> R {
    if let Some(stream) = streams.get_mut(zone) {
        return step(stream);
    }
    step(streams.entry(zone.clone()).or_insert_with(new))
}

impl NsSelector {
    /// Create a selector; `seed` drives the `Random` strategy.
    pub fn new(strategy: SelectionStrategy, seed: u64) -> NsSelector {
        NsSelector { strategy, seed, state: Mutex::new(SelectorState::default()) }
    }

    /// Pick the index of one endpoint from the `(zone, ds)` stream.
    fn pick_index(&self, zone: &DnsName, ds: bool, endpoints: &[NsEndpoint]) -> Option<usize> {
        if endpoints.is_empty() {
            return None;
        }
        let idx = match self.strategy {
            SelectionStrategy::First => 0,
            SelectionStrategy::RoundRobin => {
                let mut st = self.state.lock();
                step(
                    &mut st.counters[usize::from(ds)],
                    zone,
                    || 0,
                    |c| {
                        let idx = *c % endpoints.len();
                        *c += 1;
                        idx
                    },
                )
            }
            SelectionStrategy::Random => {
                let mut st = self.state.lock();
                let seed = self.seed;
                let seeded = || {
                    // Pinned reports depend on these streams: FNV-1a of
                    // the zone's dotted key, behind `ds:` for the DS one.
                    let prefix: &[u8] = if ds { b"ds:" } else { b"" };
                    StdRng::seed_from_u64(seed ^ fnv1a_key(prefix, zone))
                };
                step(&mut st.rngs[usize::from(ds)], zone, seeded, |rng| {
                    rng.gen_range(0..endpoints.len())
                })
            }
        };
        Some(idx)
    }

    /// Endpoints in fallback order: the primary pick first, then the
    /// remaining endpoints (for retry after an unresponsive server). With
    /// duplicate endpoints in the delegation set, only the picked *slot*
    /// is moved to the front — other copies keep their retry positions,
    /// so the order always covers every slot exactly once. The pick is
    /// made (and the zone's stream stepped, once) by this call, not by
    /// the iteration.
    pub fn pick_order<'a>(
        &self,
        zone: &DnsName,
        endpoints: &'a [NsEndpoint],
    ) -> impl Iterator<Item = &'a NsEndpoint> {
        self.order(zone, false, endpoints)
    }

    /// [`pick_order`](Self::pick_order) for the DS query about `zone`,
    /// over its parent's `endpoints`, from a stream of its own.
    pub fn pick_order_ds<'a>(
        &self,
        zone: &DnsName,
        endpoints: &'a [NsEndpoint],
    ) -> impl Iterator<Item = &'a NsEndpoint> {
        self.order(zone, true, endpoints)
    }

    fn order<'a>(
        &self,
        zone: &DnsName,
        ds: bool,
        endpoints: &'a [NsEndpoint],
    ) -> impl Iterator<Item = &'a NsEndpoint> {
        let primary = self.pick_index(zone, ds, endpoints);
        let rest = endpoints.iter().enumerate().filter(move |(i, _)| Some(*i) != primary);
        primary.map(|i| &endpoints[i]).into_iter().chain(rest.map(|(_, e)| e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn eps(n: usize) -> Vec<NsEndpoint> {
        (0..n)
            .map(|i| NsEndpoint {
                name: DnsName::parse(&format!("ns{i}.prov.net")).unwrap(),
                ip: format!("10.0.0.{i}").parse().unwrap(),
            })
            .collect()
    }

    #[test]
    fn first_is_stable() {
        let sel = NsSelector::new(SelectionStrategy::First, 0);
        let endpoints = eps(3);
        for _ in 0..5 {
            assert_eq!(sel.pick_order(&z("z"), &endpoints).next().unwrap(), &endpoints[0]);
        }
    }

    #[test]
    fn round_robin_cycles_per_zone() {
        let sel = NsSelector::new(SelectionStrategy::RoundRobin, 0);
        let endpoints = eps(3);
        let picks: Vec<_> =
            (0..6).map(|_| sel.pick_order(&z("z"), &endpoints).next().unwrap().ip).collect();
        assert_eq!(picks[0], picks[3]);
        assert_eq!(picks[1], picks[4]);
        assert_ne!(picks[0], picks[1]);
        // Independent counter for another zone.
        assert_eq!(sel.pick_order(&z("other"), &endpoints).next().unwrap(), &endpoints[0]);
    }

    #[test]
    fn random_is_seeded_deterministic() {
        let endpoints = eps(4);
        let run = |seed| -> Vec<std::net::IpAddr> {
            let sel = NsSelector::new(SelectionStrategy::Random, seed);
            (0..10).map(|_| sel.pick_order(&z("z"), &endpoints).next().unwrap().ip).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn random_streams_are_per_zone() {
        // The pick sequence of one zone must not depend on interleaved
        // picks against other zones (the batch-determinism prerequisite).
        let endpoints = eps(4);
        let alone = {
            let sel = NsSelector::new(SelectionStrategy::Random, 7);
            (0..10)
                .map(|_| sel.pick_order(&z("zone-a"), &endpoints).next().unwrap().ip)
                .collect::<Vec<_>>()
        };
        let interleaved = {
            let sel = NsSelector::new(SelectionStrategy::Random, 7);
            (0..10)
                .map(|_| {
                    let _ = sel.pick_order(&z("zone-b"), &endpoints).next();
                    let pick = sel.pick_order(&z("zone-a"), &endpoints).next().unwrap().ip;
                    let _ = sel.pick_order(&z("zone-c"), &endpoints).next();
                    pick
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(alone, interleaved);
    }

    #[test]
    fn random_zones_draw_distinct_streams() {
        let endpoints = eps(4);
        let sel = NsSelector::new(SelectionStrategy::Random, 7);
        let a: Vec<_> =
            (0..16).map(|_| sel.pick_order(&z("zone-a"), &endpoints).next().unwrap().ip).collect();
        let b: Vec<_> =
            (0..16).map(|_| sel.pick_order(&z("zone-b"), &endpoints).next().unwrap().ip).collect();
        assert_ne!(a, b, "distinct zones should not share one pick stream");
    }

    #[test]
    fn random_covers_all_endpoints() {
        let endpoints = eps(3);
        let sel = NsSelector::new(SelectionStrategy::Random, 42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(sel.pick_order(&z("z"), &endpoints).next().unwrap().ip);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn empty_endpoint_list() {
        let sel = NsSelector::new(SelectionStrategy::First, 0);
        assert!(sel.pick_order(&z("z"), &[]).next().is_none());
    }

    #[test]
    fn pick_order_contains_all_unique() {
        let endpoints = eps(3);
        let sel = NsSelector::new(SelectionStrategy::RoundRobin, 0);
        let order: Vec<_> = sel.pick_order(&z("z"), &endpoints).collect();
        assert_eq!(order.len(), 3);
        let set: std::collections::HashSet<_> = order.iter().map(|e| e.ip).collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn pick_order_keeps_duplicate_endpoints() {
        // A delegation set with duplicate entries (two copies of ns0, one
        // ns1) must still yield a fallback order covering every slot:
        // only the picked slot moves to the front, duplicates of it are
        // not dropped from the retry tail.
        let mut endpoints = eps(2);
        endpoints.push(endpoints[0].clone());
        for strategy in
            [SelectionStrategy::First, SelectionStrategy::RoundRobin, SelectionStrategy::Random]
        {
            let sel = NsSelector::new(strategy, 3);
            for _ in 0..6 {
                let order: Vec<_> = sel.pick_order(&z("z"), &endpoints).collect();
                assert_eq!(order.len(), endpoints.len(), "{strategy:?} shrank the retry set");
                let dup_count = order.iter().filter(|e| e.ip == endpoints[0].ip).count();
                assert_eq!(dup_count, 2, "{strategy:?} dropped a duplicate endpoint");
            }
        }
    }
}
