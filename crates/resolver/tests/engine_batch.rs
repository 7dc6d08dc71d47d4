//! The engine's determinism contract, pinned against a full simulated
//! world: `resolve_batch` results are identical to sequential
//! single-query resolution, for every thread count and for every
//! selection strategy — including `Random`, whose per-zone seeded RNGs
//! make randomized-vantage batches thread-count-invariant.
//!
//! Joint batches (`resolve_batches`) are pinned against each engine's
//! own `resolve_batch` on the same axis.
//!
//! CI runs this suite under a thread matrix: set `RESOLVER_TEST_THREADS`
//! to a comma-separated list (e.g. `16,32`) to extend the default
//! `{1, 2, 4, 8}` axis.

use dns_wire::{DnsName, RecordType};
use ecosystem::{EcosystemConfig, World};
use netsim::LinkModel;
use resolver::{
    CacheStats, Query, QueryEngine, Resolution, ResolveError, ResolverConfig, SelectionStrategy,
    VantagePoint,
};
use std::sync::Arc;
use telemetry::MetricsRegistry;

fn world() -> World {
    World::build(EcosystemConfig::tiny())
}

/// Thread counts to exercise: the built-in axis plus any counts named in
/// the `RESOLVER_TEST_THREADS` env var (the CI matrix hook).
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

/// A fresh engine over `world` with the given selection strategy,
/// otherwise mirroring the scanner's configuration (validation on).
fn engine_with(world: &World, strategy: SelectionStrategy) -> QueryEngine {
    QueryEngine::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig { validate: true, strategy, seed: 0xBEEF, ..Default::default() },
    )
}

/// A fresh engine mirroring the scanner's default configuration
/// (validation on, default round-robin selection).
fn engine(world: &World) -> QueryEngine {
    engine_with(world, SelectionStrategy::RoundRobin)
}

/// The scanner's wave-1 query shape: HTTPS, A, and NS for every listed
/// apex plus HTTPS for www.
fn scan_queries(world: &World) -> Vec<Query> {
    let mut queries = Vec::new();
    for &id in world.today_list().ranked() {
        let apex = world.domain(id).apex.clone();
        queries.push(Query::new(apex.clone(), RecordType::Https));
        queries.push(Query::new(apex.clone(), RecordType::A));
        queries.push(Query::new(apex.clone(), RecordType::Ns));
        if let Ok(www) = apex.prepend("www") {
            queries.push(Query::new(www, RecordType::Https));
        }
    }
    queries
}

#[test]
fn batch_matches_sequential_resolution() {
    let world = world();
    let queries = scan_queries(&world);
    assert!(queries.len() > 100, "world too small to be meaningful");

    // Baseline: one query at a time through a fresh engine.
    let sequential: Vec<Result<Resolution, ResolveError>> = {
        let engine = engine(&world);
        queries.iter().map(|q| engine.resolve(&q.name, q.rtype)).collect()
    };

    for threads in thread_axis() {
        let engine = engine(&world);
        let batch = engine.resolve_batch(&queries, threads);
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            assert_eq!(b, s, "query #{i} ({:?}) diverged at threads={threads}", queries[i]);
        }
    }
}

#[test]
fn random_selection_batch_is_thread_count_invariant() {
    // The PR-2 bugfix contract: under `Random`, per-zone RNGs seeded
    // from (seed, zone key) make the batch independent of worker count.
    // Before the fix one shared RNG made multi-threaded Random batches
    // interleaving-dependent.
    let world = world();
    let queries = scan_queries(&world);

    let sequential: Vec<Result<Resolution, ResolveError>> = {
        let engine = engine_with(&world, SelectionStrategy::Random);
        queries.iter().map(|q| engine.resolve(&q.name, q.rtype)).collect()
    };

    for threads in thread_axis() {
        let engine = engine_with(&world, SelectionStrategy::Random);
        let batch = engine.resolve_batch(&queries, threads);
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            assert_eq!(
                b, s,
                "Random-selection query #{i} ({:?}) diverged at threads={threads}",
                queries[i]
            );
        }
    }
}

#[test]
fn random_selection_batches_repeat_exactly() {
    // Two fresh engines with the same seed produce identical batches —
    // the reproducibility a randomized-vantage scan relies on.
    let world = world();
    let queries = scan_queries(&world);
    let a = engine_with(&world, SelectionStrategy::Random).resolve_batch(&queries, 4);
    let b = engine_with(&world, SelectionStrategy::Random).resolve_batch(&queries, 4);
    assert_eq!(a, b);
}

#[test]
fn duplicate_queries_share_one_resolution() {
    let world = world();
    let mut queries = scan_queries(&world);
    queries.truncate(40);
    // Duplicate the whole list, interleaved shifts included.
    let doubled: Vec<Query> = queries.iter().chain(queries.iter()).cloned().collect();

    let baseline = engine(&world).resolve_batch(&doubled, 1);
    for threads in thread_axis() {
        if threads == 1 {
            continue;
        }
        let batch = engine(&world).resolve_batch(&doubled, threads);
        assert_eq!(batch, baseline, "threads={threads}");
    }
    // Duplicate positions carry the identical resolution (not a cache
    // hit with different provenance).
    let n = queries.len();
    for i in 0..n {
        assert_eq!(baseline[i], baseline[i + n], "position {i} vs its duplicate");
    }
}

#[test]
fn batch_thread_count_does_not_change_cache_contents() {
    // Final cache *contents* are thread-count-invariant. Stats counters
    // are deliberately not compared: two workers can race the first
    // miss on a shared key (e.g. a TLD's DNSKEY set during validation)
    // and both insert the identical entry, so `insertions` may differ
    // across thread counts on a multi-core host even though the
    // resulting cache is the same.
    let world = world();
    let queries = scan_queries(&world);
    let mut contents = Vec::new();
    for threads in [1, 4] {
        let engine = engine(&world);
        let _ = engine.resolve_batch(&queries, threads);
        contents.push(engine.cache().len());
    }
    assert_eq!(contents[0], contents[1]);
}

#[test]
fn counter_snapshot_is_thread_count_invariant() {
    // The telemetry contract: deterministic counters are derived from
    // batch outcomes, so the registry's canonical counter rendering is
    // byte-identical for every worker thread count — including under
    // Random NS selection, and including warm (from-cache) batches.
    let world = world();
    let queries = scan_queries(&world);
    for strategy in [SelectionStrategy::RoundRobin, SelectionStrategy::Random] {
        let mut baseline: Option<String> = None;
        for threads in thread_axis() {
            let metrics = Arc::new(MetricsRegistry::new("pin"));
            let engine = engine_with(&world, strategy).with_metrics(metrics.clone());
            let _ = engine.resolve_batch(&queries, threads); // cold
            let _ = engine.resolve_batch(&queries, threads); // warm
            let snapshot = metrics.counters_text();
            match &baseline {
                None => {
                    assert!(snapshot.contains("counter engine.batches 2"));
                    assert!(snapshot.contains("counter engine.queries"));
                    assert!(snapshot.contains("counter engine.from_cache"));
                    baseline = Some(snapshot);
                }
                Some(expected) => assert_eq!(
                    &snapshot, expected,
                    "counter snapshot diverged at threads={threads} ({strategy:?})"
                ),
            }
        }
    }
}

#[test]
fn metrics_do_not_perturb_batch_results() {
    // Instrumentation observes, never steers: the same batch through an
    // instrumented engine is bit-identical to an uninstrumented one.
    let world = world();
    let queries = scan_queries(&world);
    let plain = engine(&world).resolve_batch(&queries, 4);
    let metrics = Arc::new(MetricsRegistry::new("observer"));
    let instrumented = engine(&world).with_metrics(metrics.clone()).resolve_batch(&queries, 4);
    assert_eq!(plain, instrumented);
    assert_eq!(metrics.counter_value("engine.queries"), queries.len() as u64);
}

#[test]
fn empty_batch_is_a_no_op() {
    // The empty slice early-returns before assignment maps, thread
    // scaffolding, or any metrics traffic.
    let world = world();
    let metrics = Arc::new(MetricsRegistry::new("empty"));
    let engine = engine(&world).with_metrics(metrics.clone());
    let sent_before = engine.network().stats().datagrams_sent;
    let attach_time = metrics.counters_text();
    let results = engine.resolve_batch(&[], 8);
    assert!(results.is_empty());
    // No batch counters appear and nothing moves: the registry still
    // holds only the zero-valued single-query handles registered at
    // attach time.
    assert_eq!(metrics.counters_text(), attach_time, "an empty batch must record nothing");
    assert_eq!(metrics.counter_value("engine.batches"), 0);
    assert!(metrics.counter_snapshot().iter().all(|(_, v)| *v == 0));
    assert_eq!(engine.network().stats().datagrams_sent, sent_before);
}

/// The three presets' engines over `world`, each with a registry of its
/// own.
fn preset_engines(world: &World) -> Vec<(QueryEngine, Arc<MetricsRegistry>)> {
    VantagePoint::presets()
        .into_iter()
        .map(|v| {
            let metrics = Arc::new(MetricsRegistry::new(&v.name));
            let engine = v
                .engine(world.network.clone(), world.registry.clone())
                .with_metrics(metrics.clone());
            (engine, metrics)
        })
        .collect()
}

#[test]
fn joint_batches_equal_each_engines_own_batches() {
    // `resolve_batches` changes the order work runs in, never an
    // engine's outcome. Over the three presets, with unequal batches
    // (one empty, one holding a duplicate that differs only in case),
    // every engine's results, cache statistics and counters equal what
    // its own `resolve_batch` of the same batch gives on a twin world —
    // cold, then warm; pooled on the thread axis, and on the event loop
    // over worlds carrying the zero model.
    let queries = scan_queries(&world());
    let half = queries.len() / 2;
    let mut with_duplicate = queries[..half].to_vec();
    let shouted = DnsName::parse(&queries[3].name.to_string().to_ascii_uppercase()).unwrap();
    assert_ne!(shouted.to_string(), queries[3].name.to_string());
    with_duplicate.push(Query::new(shouted, queries[3].rtype));
    let rounds: [[&[Query]; 3]; 2] =
        [[&queries, &[], &with_duplicate], [&with_duplicate, &queries, &queries[half / 2..]]];

    for backend in ["pooled", "event loop"] {
        for threads in thread_axis() {
            let (joint_world, own_world) = (world(), world());
            if backend == "event loop" {
                joint_world.network.set_latency_model(LinkModel::zero());
                own_world.network.set_latency_model(LinkModel::zero());
            }
            let joint = preset_engines(&joint_world);
            let own = preset_engines(&own_world);
            let engines: Vec<&QueryEngine> = joint.iter().map(|(engine, _)| engine).collect();
            for (round, batches) in rounds.iter().enumerate() {
                let together = QueryEngine::resolve_batches(&engines, batches, threads);
                assert_eq!(together.len(), batches.len());
                for (v, ((engine, _), batch)) in own.iter().zip(batches).enumerate() {
                    assert_eq!(
                        together[v],
                        engine.resolve_batch(batch, threads),
                        "engine {v}, round {round}: {backend} at threads={threads}"
                    );
                }
            }
            for ((a, a_metrics), (b, b_metrics)) in joint.iter().zip(&own) {
                let label = a_metrics.label();
                // Contention is the one scheduling-dependent statistic.
                let stats = |e: &QueryEngine| CacheStats { lock_contended: 0, ..e.cache().stats() };
                assert_eq!(stats(a), stats(b), "{label}: {backend} at threads={threads}");
                assert_eq!(a.cache().len(), b.cache().len(), "{label}");
                assert_eq!(
                    a_metrics.counters_text(),
                    b_metrics.counters_text(),
                    "{label}: {backend} at threads={threads}"
                );
            }
            // The case-only duplicate coalesced in both rounds it rode in.
            assert_eq!(joint[2].1.counter_value("engine.coalesced"), 1);
            assert_eq!(joint[0].1.counter_value("engine.coalesced"), 1);
            assert_eq!(
                joint[1].1.counter_value("engine.batches"),
                1,
                "an empty batch records nothing"
            );
        }
    }
}

#[test]
fn batch_with_more_threads_than_queries() {
    // Sparse batches leave most hash-mod buckets empty; the engine must
    // skip the dead buckets (no job submitted) and still answer every
    // position.
    let world = world();
    let mut queries = scan_queries(&world);
    queries.truncate(3);
    let baseline = engine(&world).resolve_batch(&queries, 1);
    let batch = engine(&world).resolve_batch(&queries, 64);
    assert_eq!(batch, baseline);
}

#[test]
fn pool_starts_lazily_and_is_reused_across_batches() {
    // The worker pool spins up on the first multi-threaded batch only —
    // thread count clamps to the distinct-query count, a sequential
    // batch never touches it — and the same workers then serve every
    // subsequent batch (no per-batch spawn).
    let world = world();
    let queries = scan_queries(&world);
    let engine = engine(&world);
    assert_eq!(engine.pool_size(), 0, "no workers before any batch");

    let _ = engine.resolve_batch(&queries, 1);
    assert_eq!(engine.pool_size(), 0, "a sequential batch must not start workers");

    let _ = engine.resolve_batch(&queries, 4);
    assert_eq!(engine.pool_size(), 4, "first threads=4 batch starts exactly 4 workers");

    let _ = engine.resolve_batch(&queries, 4);
    let _ = engine.resolve_batch(&queries, 2);
    assert_eq!(engine.pool_size(), 4, "later batches reuse the pool (never shrink)");

    let _ = engine.resolve_batch(&queries, 6);
    assert_eq!(engine.pool_size(), 6, "a wider batch grows the pool in place");
}

#[test]
fn pool_reuse_across_batches_has_no_state_bleed() {
    // A campaign runs many waves through one engine. Resolving the same
    // wave sequence through one pooled engine must produce exactly what
    // a fresh engine resolving the same sequence sequentially produces:
    // worker reuse may not leak selection or cache state between
    // batches beyond what the (shared, intended) cache itself carries.
    let world = world();
    let queries = scan_queries(&world);
    let waves: Vec<&[Query]> = vec![&queries[..], &queries[..queries.len() / 2], &queries[..]];

    for strategy in [SelectionStrategy::RoundRobin, SelectionStrategy::Random] {
        let sequential_engine = engine_with(&world, strategy);
        let pooled_engine = engine_with(&world, strategy);
        for (w, wave) in waves.iter().enumerate() {
            let sequential = sequential_engine.resolve_batch(wave, 1);
            let pooled = pooled_engine.resolve_batch(wave, 4);
            assert_eq!(sequential, pooled, "wave {w} diverged under {strategy:?}");
        }
        assert_eq!(
            sequential_engine.cache().len(),
            pooled_engine.cache().len(),
            "cache contents diverged under {strategy:?}"
        );
    }
}
