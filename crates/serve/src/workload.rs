//! Deterministic stub-client workload generation.
//!
//! A [`StubPopulation`] models `clients` independent stubs behind the
//! resolver. Each client is an open-loop Poisson source: exponential
//! inter-arrival gaps at a per-client rate (the offered rate split
//! evenly, then jittered ±30% per client so the population isn't
//! uniform), with query targets drawn Zipf-over-Tranco through
//! [`DailyList::sample_by_popularity`] and a fixed query-shape mix
//! (apex HTTPS / apex A / `www` HTTPS — the shapes the paper's scanner
//! measures).
//!
//! Every random choice comes from a per-`(seed, phase, client)` seeded
//! [`StdRng`], and the per-client streams are merged through an ordered
//! event queue keyed `(arrival time, client id)`, so the emitted
//! arrival vector is a pure function of `(config, list, phase, rate,
//! window)` — byte-identical on every run and host.

use dns_wire::RecordType;
use ecosystem::{DailyList, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::Query;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Fraction of queries that are apex HTTPS lookups.
pub const APEX_HTTPS: f64 = 0.55;

/// Fraction of queries that are apex A lookups (the remainder are `www`
/// HTTPS lookups).
pub const APEX_A: f64 = 0.30;

/// Shape of the stub-client population.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of independent stub clients (minimum 1).
    pub clients: usize,
    /// Master seed; per-client streams derive from `(seed, phase,
    /// client)`.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig { clients: 256, seed: 0x5E17E }
    }
}

/// One stub-client query arrival in virtual time.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Arrival instant, virtual microseconds since the epoch.
    pub at_us: u64,
    /// Emitting client id (`0..clients`).
    pub client: u32,
    /// The query the client asks.
    pub query: Query,
}

/// A deterministic stub-client population over one day's Tranco list.
pub struct StubPopulation {
    list: Arc<DailyList>,
    config: WorkloadConfig,
}

impl StubPopulation {
    /// A population querying `list` (which must carry popularity
    /// weights; see [`DailyList::sample_by_popularity`]).
    pub fn new(list: Arc<DailyList>, config: WorkloadConfig) -> StubPopulation {
        StubPopulation { list, config }
    }

    /// Generate the merged open-loop arrival stream for one phase:
    /// `offered_qps` total offered queries/second across all clients,
    /// over the virtual window `[start_us, start_us + duration_us)`.
    /// Arrivals are returned sorted by `(at_us, client)`; an empty list
    /// gives none.
    pub fn arrivals(
        &self,
        world: &World,
        phase: u64,
        offered_qps: f64,
        start_us: u64,
        duration_us: u64,
    ) -> Vec<Arrival> {
        let clients = self.config.clients.max(1);
        let end_us = start_us + duration_us;
        let mut rngs: Vec<StdRng> = Vec::with_capacity(clients);
        let mut rates: Vec<f64> = Vec::with_capacity(clients);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(clients);
        for c in 0..clients {
            let mut rng = StdRng::seed_from_u64(
                self.config.seed
                    ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (c as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
            );
            // ±30% per-client rate jitter: the offered load is exact in
            // expectation, but the population is heterogeneous.
            let jitter: f64 = rng.gen_range(0.7..1.3);
            let rate_per_us = offered_qps * jitter / clients as f64 / 1_000_000.0;
            if rate_per_us > 0.0 {
                let first = start_us + exp_gap(&mut rng, rate_per_us);
                heap.push(Reverse((first, c as u32)));
            }
            rngs.push(rng);
            rates.push(rate_per_us);
        }
        let mut arrivals = Vec::new();
        while let Some(Reverse((at_us, client))) = heap.pop() {
            if at_us >= end_us {
                continue;
            }
            let rng = &mut rngs[client as usize];
            // An empty list has nothing to ask for.
            let Some(query) = self.sample_query(world, rng) else {
                break;
            };
            arrivals.push(Arrival { at_us, client, query });
            heap.push(Reverse((at_us + exp_gap(rng, rates[client as usize]), client)));
        }
        arrivals
    }

    /// Draw one query: a popularity-weighted domain plus a shape from
    /// the [`APEX_HTTPS`] / [`APEX_A`] mix; `None` when the list has no domain to draw.
    fn sample_query(&self, world: &World, rng: &mut StdRng) -> Option<Query> {
        let d = world.domain(self.list.sample_by_popularity(rng)?);
        let shape: f64 = rng.gen_range(0.0..1.0);
        Some(if shape < APEX_HTTPS {
            Query::new(d.apex.clone(), RecordType::Https)
        } else if shape < APEX_HTTPS + APEX_A {
            Query::new(d.apex.clone(), RecordType::A)
        } else {
            Query::new(d.www.clone(), RecordType::Https)
        })
    }
}

/// An exponential inter-arrival gap in whole microseconds (≥ 1, so a
/// client never emits two queries at the same instant).
fn exp_gap(rng: &mut StdRng, rate_per_us: f64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    ((-(1.0 - u).ln() / rate_per_us) as u64).max(1)
}
