//! Single-layer probes of the traced run: timed calls into one layer's
//! public functions, made after the traced rep against the world (or
//! store) it leaves behind. They give the per-call costs the spans
//! cannot, because the calls happen inside the program.

use crate::host;
use crate::trace::Tracer;
use crate::workloads::{serve_config, world_config, Layers, WorldSize, SERVE_RATES_KQPS};
use httpsrr::analysis;
use httpsrr::dns_wire::{Message, MessageView, RecordType};
use httpsrr::ecosystem::World;
use httpsrr::resolver::{Query, VantagePoint};
use httpsrr::scanner::{open_store, Projection, ScanFilter};
use httpsrr::serve::load_sweep;
use std::hint::black_box;
use std::net::IpAddr;
use std::path::Path;
use std::time::Instant;

/// Authority exchanges and wire messages probed (the first this many
/// wave-1 queries of today's list).
const WIRE_PROBE_QUERIES: usize = 2_000;
/// Passes over the captured messages per wire probe; the fastest pass
/// is reported (these loops last a millisecond or two).
const WIRE_PROBE_PASSES: usize = 5;

/// Today's wave-1 batch: an HTTPS query for every listed apex and its
/// `www`, in list order — what `scan_one_day` asks first.
fn wave1_queries(world: &World) -> Vec<Query> {
    let list = world.today_list_shared();
    let mut queries = Vec::with_capacity(list.ranked().len() * 2);
    for &id in list.ranked() {
        let apex = &world.domain(id).apex;
        queries.push(Query::new(apex.clone(), RecordType::Https));
        if let Ok(www) = apex.prepend("www") {
            queries.push(Query::new(www, RecordType::Https));
        }
    }
    queries
}

/// Fastest of [`WIRE_PROBE_PASSES`] timings of `pass`, in nanoseconds
/// per item.
fn best_ns_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..WIRE_PROBE_PASSES {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best / items.max(1) as f64
}

/// Resolver, authority and wire probes against a built world.
pub fn world_probes(world: &World, threads: usize, t: &mut Tracer, layers: &mut Layers) {
    let queries = wave1_queries(world);

    // Resolver: the same wave-1 batch on an empty cache, then again on
    // the cache that pass filled (same virtual instant: all hits).
    let engine =
        VantagePoint::google_public().engine(world.network.clone(), world.registry.clone());
    for (span, metric) in [
        ("probe.resolver.resolve_batch.cold", "resolver.cold_us_per_query"),
        ("probe.resolver.resolve_batch.warm", "resolver.warm_us_per_query"),
    ] {
        let id = t.enter(span);
        black_box(engine.resolve_batch(&queries, threads));
        layers.insert(metric, t.exit(id) * 1e6 / queries.len().max(1) as f64);
    }

    // Authority and wire: the scan's own query messages, sent to the
    // first name server of each name's zone; the replies are the
    // messages the parse and decode probes read.
    let id = t.enter("probe.authserver+dns-wire");
    let targets: Vec<(IpAddr, Message)> = queries
        .iter()
        .take(WIRE_PROBE_QUERIES)
        .enumerate()
        .filter_map(|(i, q)| {
            let (_, endpoints) = world.registry.find_authority(&q.name)?;
            let message = Message::query_dnssec(i as u16, q.name.clone(), q.rtype);
            Some((endpoints.first()?.ip, message))
        })
        .collect();
    let n = targets.len();
    layers.insert(
        "dns-wire.encode_ns",
        best_ns_per_item(n, || {
            for (_, m) in &targets {
                black_box(m.encode());
            }
        }),
    );
    let wires: Vec<Vec<u8>> = targets.iter().map(|(_, m)| m.encode()).collect();
    let mut replies: Vec<Vec<u8>> = Vec::new();
    layers.insert(
        "authserver.exchange_ns",
        best_ns_per_item(n, || {
            replies = targets
                .iter()
                .zip(&wires)
                .filter_map(|((ip, _), wire)| world.network.send_datagram(*ip, 53, wire).ok())
                .collect();
        }),
    );
    layers.insert(
        "dns-wire.view_parse_ns",
        best_ns_per_item(replies.len(), || {
            for r in &replies {
                let _ = black_box(MessageView::parse(r));
            }
        }),
    );
    layers.insert(
        "dns-wire.decode_ns",
        best_ns_per_item(replies.len(), || {
            for r in &replies {
                let _ = black_box(Message::decode(r));
            }
        }),
    );
    t.exit(id);

    // A day list computed from scratch (tomorrow's: never cached).
    let id = t.enter("probe.ecosystem.TrancoModel::list_for_day");
    black_box(world.tranco.list_for_day(world.current_day + 1));
    layers.insert("ecosystem.day_list_ms", t.exit(id) * 1e3);
}

/// Resident-set growth across the *second* of two build-and-drop
/// rounds of a world: memory the first round merely left with the
/// allocator is reused by the second, so what still grows is not
/// coming back. Run last: it is the one place a process builds a
/// world more than once.
pub fn world_drop_leak(
    seed: u64,
    size: WorldSize,
    threads: usize,
    t: &mut Tracer,
    layers: &mut Layers,
) {
    let id = t.enter("probe.ecosystem.world_drop_leak");
    let mut after = [0u64; 2];
    for rss in &mut after {
        drop(black_box(World::build(world_config(seed, size, threads))));
        *rss = host::rss_kb();
    }
    t.exit(id);
    layers
        .insert("ecosystem.world_drop_leak_mb", after[1].saturating_sub(after[0]) as f64 / 1024.0);
}

/// Store read probes against the tiled store: full and projected
/// streaming scans of every vantage, and the parallel diff.
pub fn store_probes(dir: &Path, t: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let store = open_store(dir).map_err(|e| format!("probe: reopen store: {e}"))?;
    let sources = store.sources();
    for (span, metric, filter) in [
        ("probe.scanner.scan_full", "scanner.store.scan_full_mrows_s", ScanFilter::all()),
        (
            "probe.scanner.scan_projected",
            "scanner.store.scan_projected_mrows_s",
            ScanFilter::projected(Projection::FLAGS),
        ),
    ] {
        let id = t.enter(span);
        let mut rows = 0u64;
        for source in &sources {
            source.for_each_day_filtered(filter, &mut |_, obs| {
                rows += black_box(obs).len() as u64;
            });
        }
        layers.insert(metric, rows as f64 / 1e6 / t.exit(id).max(1e-9));
    }
    let id = t.enter("probe.analysis.vantage_diff_parallel");
    black_box(analysis::vantage_diff_parallel(&sources));
    layers.insert("analysis.vantage_diff_parallel_ms", t.exit(id) * 1e3);
    Ok(())
}

/// Wall time of each phase of the serve sweep, by differences: the
/// cache warms across phases, so a phase can only be timed as the
/// sweep up to and including it minus the sweep up to the one before.
/// (Replays are exact: every sweep starts on a fresh virtual second
/// with a fresh engine.)
pub fn serve_phase_probes(
    world: &World,
    seed: u64,
    full_sweep_s: f64,
    t: &mut Tracer,
    layers: &mut Layers,
) {
    let cfg = serve_config(seed);
    let mut prefix_s = [0.0; 2];
    for (n, secs) in prefix_s.iter_mut().enumerate() {
        let id = t.enter("probe.serve.load_sweep.prefix");
        black_box(load_sweep(world, &cfg, &SERVE_RATES_KQPS[..=n], None));
        *secs = t.exit(id);
    }
    layers.insert("serve.phase_wall_ms.4kqps", prefix_s[0] * 1e3);
    layers.insert("serve.phase_wall_ms.8kqps", (prefix_s[1] - prefix_s[0]) * 1e3);
    layers.insert("serve.phase_wall_ms.16kqps", (full_sweep_s - prefix_s[1]) * 1e3);
}
