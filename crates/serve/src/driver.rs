//! The serving driver: replay stub-client arrivals against a
//! bounded-cache resolver engine under a deterministic k-server
//! queueing model in virtual time.
//!
//! ## The model
//!
//! Each arrival is resolved **sequentially** through the real engine
//! (real cache, real zone data, real negative answers), which yields
//! its ground-truth outcome: hit, recursive miss, or failure. On top of
//! those outcomes a deterministic M/G/k queue in virtual microseconds
//! assigns latency: `workers` virtual servers each take
//! `hit_service_us` per cache hit and `miss_service_us` per recursive
//! resolution, and a miss additionally pays `miss_penalty_us` of
//! upstream RTT **in latency only** (the worker is assumed to service
//! other queries while the recursion is in flight). Latency = queue
//! wait + service + penalty. When offered load exceeds
//! `workers / avg_service`, the backlog grows and the achieved rate
//! tops out — the sweep's saturation knee.
//!
//! Service costs are model knobs, not measurements; what the real
//! engine contributes is the *hit/miss stream* — which is exactly what
//! the capacity bound changes.
//!
//! ## Determinism and replay comparability
//!
//! Every phase starts on a fresh whole virtual second, and arrival
//! offsets within a phase are generated relative to the phase start
//! from `(seed, phase, client)`-seeded RNGs. Cache expiry has second
//! granularity, so aligning the starts makes the TTL boundaries fall
//! identically relative to the arrivals in every replay — a repeated
//! sweep sees the exact same hit/miss stream, and so does a one-rate
//! sweep at each of several capacities (a hit-rate-vs-capacity curve).
//! The driver never spawns threads, so reports are byte-identical for
//! any host thread count by construction.

use crate::report::{PhaseReport, ServeReport};
use crate::workload::{StubPopulation, WorkloadConfig};
use ecosystem::World;
use netsim::TimeMs;
use resolver::{EvictionPolicy, QueryEngine, ResolverConfig, DEFAULT_SHARDS};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use telemetry::MetricsRegistry;

/// Serving-driver configuration: the workload shape plus the queueing
/// model's knobs and the cache bound under test.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Stub-client population shape.
    pub workload: WorkloadConfig,
    /// Virtual service workers (the `k` of the queueing model).
    pub workers: usize,
    /// Virtual service cost of a cache hit, microseconds.
    pub hit_service_us: u64,
    /// Virtual service cost of a recursive (miss) resolution,
    /// microseconds of worker occupancy.
    pub miss_service_us: u64,
    /// Upstream RTT a miss adds to its own latency (not to worker
    /// occupancy), microseconds.
    pub miss_penalty_us: u64,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Per-shard cache capacity (`None` = unbounded).
    pub capacity_per_shard: Option<usize>,
    /// Eviction policy when bounded. It has one value, and the cache
    /// takes none; the field stays because the benchmark harness sets it
    /// and the report's `policy=` header, which the harness digests,
    /// renders it.
    pub policy: EvictionPolicy,
    /// Virtual length of one load phase, milliseconds.
    pub phase_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workload: WorkloadConfig::default(),
            workers: 1,
            hit_service_us: 20,
            miss_service_us: 400,
            miss_penalty_us: 20_000,
            cache_shards: DEFAULT_SHARDS,
            capacity_per_shard: Some(4_096),
            policy: EvictionPolicy::TtlSweepLru,
            phase_ms: 1_000,
        }
    }
}

/// Build the serving engine: no DNSSEC validation (validation re-runs
/// signature checks on every cache hit — a scanner concern, not a
/// serving-path one), bounded cache per the config.
fn engine_for(world: &World, cfg: &ServeConfig) -> QueryEngine {
    QueryEngine::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig {
            validate: false,
            cache_shards: cfg.cache_shards,
            cache_capacity_per_shard: cfg.capacity_per_shard,
            ..ResolverConfig::default()
        },
    )
}

/// Number of hit-rate windows each phase is split into.
const SERIES_WINDOWS: usize = 8;

/// Run one load phase: align the clock to a fresh second, generate the
/// phase's arrivals, serve them sequentially through `engine` under the
/// queueing model, and leave the clock at the end of the busy period.
fn run_phase(
    world: &World,
    engine: &QueryEngine,
    population: &StubPopulation,
    cfg: &ServeConfig,
    phase: u64,
    offered_qps: f64,
    metrics: Option<&MetricsRegistry>,
) -> PhaseReport {
    let clock = world.clock.clone();
    // Fresh whole-second start: cache expiry is second-granular, so this
    // pins TTL boundaries identically relative to the arrivals in every
    // replay of the same phase.
    let start_ms = (clock.now_ms().0 / 1_000 + 1) * 1_000;
    clock.set_ms(TimeMs(start_ms));
    let start_us = start_ms * 1_000;
    let duration_us = cfg.phase_ms.max(1) * 1_000;
    let arrivals = population.arrivals(world, phase, offered_qps, start_us, duration_us);

    let before = engine.cache().stats();
    let latency_hist = metrics.map(|m| m.det_histogram("serve.latency_us"));
    let workers = cfg.workers.max(1);
    let mut free: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(start_us)).collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(arrivals.len());
    let (mut hits, mut failures) = (0u64, 0u64);
    let mut last_done_us = start_us;
    let window_us = (duration_us / SERIES_WINDOWS as u64).max(1);
    let mut windows = [(0u64, 0u64); SERIES_WINDOWS];

    for arrival in &arrivals {
        let at_ms = arrival.at_us / 1_000;
        if at_ms > clock.now_ms().0 {
            clock.set_ms(TimeMs(at_ms));
        }
        let hit = match engine.resolve(&arrival.query.name, arrival.query.rtype) {
            Ok(resolution) => resolution.from_cache,
            Err(_) => {
                failures += 1;
                false
            }
        };
        if hit {
            hits += 1;
        }
        let service = if hit { cfg.hit_service_us } else { cfg.miss_service_us };
        let Reverse(free_at) = free.pop().expect("at least one worker");
        let done = free_at.max(arrival.at_us) + service;
        free.push(Reverse(done));
        if done > last_done_us {
            last_done_us = done;
        }
        let latency = done - arrival.at_us + if hit { 0 } else { cfg.miss_penalty_us };
        if let Some(hist) = &latency_hist {
            hist.record(latency);
        }
        latencies.push(latency);
        let w = (((arrival.at_us - start_us) / window_us) as usize).min(SERIES_WINDOWS - 1);
        windows[w].1 += 1;
        if hit {
            windows[w].0 += 1;
        }
    }

    // Advance past both the phase window and any backlog drain, so the
    // next phase starts from a clean (and strictly later) second.
    let end_ms = (start_us + duration_us).max(last_done_us).div_ceil(1_000);
    if end_ms > clock.now_ms().0 {
        clock.set_ms(TimeMs(end_ms));
    }

    let queries = arrivals.len() as u64;
    if let Some(m) = metrics {
        m.counter("serve.phases").inc();
        m.counter("serve.queries").add(queries);
        m.counter("serve.hits").add(hits);
        m.counter("serve.failures").add(failures);
    }

    latencies.sort_unstable();
    let quantile = |q: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) as f64 * q) as usize]
        }
    };
    let busy_us = (last_done_us - start_us).max(1);
    let after = engine.cache().stats();
    PhaseReport {
        offered_kqps: offered_qps / 1_000.0,
        queries,
        arrived_kqps: queries as f64 * 1_000.0 / duration_us as f64,
        achieved_kqps: queries as f64 * 1_000.0 / busy_us as f64,
        hit_rate: if queries == 0 { 0.0 } else { hits as f64 / queries as f64 },
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        p999_us: quantile(0.999),
        failures,
        evictions: after.evictions - before.evictions,
        swept: after.swept - before.swept,
        hit_series: windows
            .iter()
            .map(|(h, t)| if *t == 0 { 0.0 } else { *h as f64 / *t as f64 })
            .collect(),
    }
}

/// Run an open-loop load sweep: one engine (and cache) serves phases of
/// increasing offered load (`rates_kqps`, thousand queries per virtual
/// second each), warming across phases exactly as a long-running
/// resolver would. Returns the [`ServeReport`]; when `metrics` is
/// given, serve counters, the `serve.latency_us` deterministic
/// histogram, and the cache's eviction counters are exported into it.
pub fn load_sweep(
    world: &World,
    cfg: &ServeConfig,
    rates_kqps: &[f64],
    metrics: Option<&MetricsRegistry>,
) -> ServeReport {
    let engine = engine_for(world, cfg);
    let population = StubPopulation::new(world.today_list_shared(), cfg.workload.clone());
    let mut phases = Vec::with_capacity(rates_kqps.len());
    for (i, &rate_kqps) in rates_kqps.iter().enumerate() {
        phases.push(run_phase(
            world,
            &engine,
            &population,
            cfg,
            i as u64,
            rate_kqps * 1_000.0,
            metrics,
        ));
    }
    if let Some(m) = metrics {
        engine.cache().export_eviction_metrics(m);
    }
    ServeReport {
        policy: cfg.policy,
        capacity_per_shard: cfg.capacity_per_shard,
        clients: cfg.workload.clients.max(1),
        workers: cfg.workers.max(1),
        phases,
    }
}
