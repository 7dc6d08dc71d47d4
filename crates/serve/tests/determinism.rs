//! The serving subsystem's determinism contract: the [`ServeReport`]
//! and every deterministic metric (serve counters, the
//! `serve.latency_us` det-histogram, the cache eviction counters) are
//! byte-identical across runs and host thread counts.
//!
//! The serve path drives the engine strictly sequentially, so thread
//! counts cannot influence it *by construction*; this suite pins that
//! property by rebuilding the whole story from scratch once per axis
//! value and byte-comparing. CI runs it under the same
//! `RESOLVER_TEST_THREADS` matrix as `engine_batch`/`event_backend`, so
//! any future thread-dependence sneaking into the serve path breaks a
//! pinned string on some leg.

use ecosystem::{EcosystemConfig, World};
use serve::{load_sweep, ServeConfig, WorkloadConfig};
use telemetry::MetricsRegistry;

/// Thread counts to exercise (the CI matrix hook, same as engine_batch).
fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1, 2, 4, 8];
    if let Ok(extra) = std::env::var("RESOLVER_TEST_THREADS") {
        for tok in extra.split(',') {
            if let Ok(n) = tok.trim().parse::<usize>() {
                if n > 0 && !axis.contains(&n) {
                    axis.push(n);
                }
            }
        }
    }
    axis
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workload: WorkloadConfig { clients: 48, ..WorkloadConfig::default() },
        capacity_per_shard: Some(16),
        phase_ms: 250,
        ..ServeConfig::default()
    }
}

/// One complete serving story from a cold world: a two-phase sweep with
/// metrics attached, rendered as `report text + pinned counters text`.
fn story() -> String {
    let world = World::build(EcosystemConfig::tiny());
    let metrics = MetricsRegistry::new("serve");
    let report = load_sweep(&world, &serve_config(), &[2.0, 6.0], Some(&metrics));
    format!("{}---\n{}", report.canonical_text(), metrics.counters_text())
}

#[test]
fn serve_report_and_counters_are_byte_identical_across_the_matrix() {
    let reference = story();
    assert!(reference.contains("counter serve.queries"));
    assert!(reference.contains("det_histogram serve.latency_us"));
    assert!(reference.contains("counter cache.capacity_per_shard 16"));
    for threads in thread_axis() {
        let leg = story();
        assert_eq!(
            reference, leg,
            "serve story diverged on axis value {threads} (sequential-by-construction \
             serving must not depend on host threads)"
        );
    }
}

#[test]
fn eviction_counters_reach_the_registry() {
    let world = World::build(EcosystemConfig::tiny());
    let metrics = MetricsRegistry::new("serve");
    let report = load_sweep(&world, &serve_config(), &[6.0], Some(&metrics));
    let evicted: u64 = report.phases.iter().map(|p| p.evictions).sum();
    assert!(evicted > 0, "a 16-per-shard bound must evict on the tiny world");
    assert_eq!(metrics.counter_value("cache.evictions"), evicted);
    let per_shard: u64 =
        (0..16).map(|i| metrics.counter_value(&format!("cache.shard{i:02}.evictions"))).sum();
    assert_eq!(per_shard, evicted, "per-shard counters must sum to the aggregate");
    assert_eq!(metrics.counter_value("serve.queries"), report.phases[0].queries);
}
