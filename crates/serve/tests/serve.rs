//! Behavioural contract of the serving subsystem: open-loop saturation,
//! replay repeatability, and the hit-rate-vs-capacity shape.

use ecosystem::{EcosystemConfig, World};
use serve::{load_sweep, ServeConfig, StubPopulation, WorkloadConfig};

fn tiny_world() -> World {
    World::build(EcosystemConfig::tiny())
}

/// A fast serving config for the tiny world: short phases, a small
/// client population.
fn fast_config() -> ServeConfig {
    ServeConfig {
        workload: WorkloadConfig { clients: 64, ..WorkloadConfig::default() },
        phase_ms: 300,
        ..ServeConfig::default()
    }
}

#[test]
fn arrivals_are_sorted_windowed_and_deterministic() {
    let world = tiny_world();
    let population = StubPopulation::new(
        world.today_list_shared(),
        WorkloadConfig { clients: 32, ..WorkloadConfig::default() },
    );
    let render = |run: &[serve::Arrival]| -> Vec<String> {
        run.iter().map(|a| format!("{} {} {:?}", a.at_us, a.client, a.query)).collect()
    };
    let a = population.arrivals(&world, 0, 2_000.0, 1_000_000, 500_000);
    assert!(!a.is_empty());
    for pair in a.windows(2) {
        assert!(
            (pair[0].at_us, pair[0].client) < (pair[1].at_us, pair[1].client),
            "arrivals must be strictly ordered"
        );
    }
    assert!(a.iter().all(|x| (1_000_000..1_500_000).contains(&x.at_us)));
    // ~1000 expected (2 kq/s × 0.5 s); Poisson + rate jitter keeps it in
    // a broad deterministic band.
    assert!((500..1_600).contains(&a.len()), "got {} arrivals", a.len());
    let b = population.arrivals(&world, 0, 2_000.0, 1_000_000, 500_000);
    assert_eq!(render(&a), render(&b), "same inputs must replay the same stream");
    let other_phase = population.arrivals(&world, 1, 2_000.0, 1_000_000, 500_000);
    assert_ne!(render(&a), render(&other_phase), "phases must draw distinct streams");
}

#[test]
fn sweep_finds_the_saturation_knee() {
    let world = tiny_world();
    let report = load_sweep(&world, &fast_config(), &[1.0, 50.0], None);
    assert_eq!(report.phases.len(), 2);
    let low = &report.phases[0];
    let high = &report.phases[1];
    assert!(!low.saturated(), "1 kq/s must be sustained: {}", low.canonical_line());
    assert!(high.saturated(), "50 kq/s must saturate one worker: {}", high.canonical_line());
    assert!(high.achieved_kqps < 50.0 * 0.95);
    assert!(high.p99_us > low.p99_us, "queueing delay must blow up the tail under saturation");
    assert!(report.saturated());
    assert!((report.sustained_kqps() - 1.0).abs() < 1e-9);
    assert_eq!(low.failures, 0, "the tiny world's listed domains must resolve");
    // The cache warms within the sweep: the last hit-rate window of the
    // first phase beats the first window.
    assert!(low.hit_series.last().unwrap() > low.hit_series.first().unwrap());
}

#[test]
fn repeated_sweeps_are_byte_identical() {
    let world = tiny_world();
    let cfg = fast_config();
    let first = load_sweep(&world, &cfg, &[2.0, 8.0], None);
    // The clock has advanced, but every phase re-aligns to a fresh whole
    // second, so a second sweep (fresh engine, same seeds) replays the
    // exact same virtual-time story.
    let second = load_sweep(&world, &cfg, &[2.0, 8.0], None);
    assert_eq!(first.canonical_text(), second.canonical_text());
}

#[test]
fn bounding_the_cache_costs_hit_rate() {
    let world = tiny_world();
    let mut unbounded = fast_config();
    unbounded.capacity_per_shard = None;
    let mut starved = fast_config();
    starved.capacity_per_shard = Some(2);
    let free = load_sweep(&world, &unbounded, &[4.0], None);
    let tight = load_sweep(&world, &starved, &[4.0], None);
    assert!(
        tight.phases[0].hit_rate < free.phases[0].hit_rate,
        "a starved cache must hit less: {} vs {}",
        tight.phases[0].hit_rate,
        free.phases[0].hit_rate
    );
    assert!(tight.phases[0].evictions > 0);
    assert_eq!(free.phases[0].evictions, 0, "an unbounded cache never evicts");
}

#[test]
fn lru_hit_rate_is_monotone_in_capacity() {
    // One fixed-rate phase per capacity, each on a fresh engine: phase
    // 0 starts on a whole second, so every capacity replays the same
    // trace. (That no shard exceeds its capacity is pinned per shard by
    // the resolver's `bounded_shard_never_exceeds_capacity`.)
    let world = tiny_world();
    let phases: Vec<_> = [2, 8, 32, 256]
        .into_iter()
        .map(|capacity| {
            let cfg = ServeConfig { capacity_per_shard: Some(capacity), ..fast_config() };
            load_sweep(&world, &cfg, &[8.0], None).phases.remove(0)
        })
        .collect();
    for pair in phases.windows(2) {
        assert!(
            pair[1].hit_rate >= pair[0].hit_rate - 1e-9,
            "LRU inclusion property: {} then {}",
            pair[0].canonical_line(),
            pair[1].canonical_line()
        );
    }
    assert!(
        phases.last().unwrap().hit_rate > phases.first().unwrap().hit_rate,
        "the capacity range must actually matter"
    );
}
