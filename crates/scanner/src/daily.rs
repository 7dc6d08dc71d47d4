//! The daily scanning pipeline (§4.1): for every domain on today's list
//! (apex and www), query HTTPS (with CNAME chasing and RRSIG/AD capture)
//! through a recursive resolver, follow up with A and NS queries for
//! HTTPS-positive domains, resolve name-server addresses, and attribute
//! operators via WHOIS.
//!
//! Resolution goes through the shared [`QueryEngine`]: each scan day is
//! three batched waves (HTTPS for every name; then A/NS follow-ups; then
//! NS-host addresses), and the engine's deterministic fan-out replaces
//! the hand-rolled per-domain worker pool this module used to carry.
//!
//! ## Multi-vantage campaigns
//!
//! A campaign can drive several [`VantagePoint`] profiles over the
//! *same* world: each vantage owns one engine (and through it one
//! long-lived cache, like the paper's distinct Google/Cloudflare/ISP
//! recursive resolvers) and fills one labelled [`SnapshotStore`]. Every
//! scan day the world steps once and every vantage scans the identical
//! frozen state, so cross-vantage differences are pure resolver-view
//! effects — the §4.2.3 mixed-provider comparison.
//!
//! The vantages scan a day in one pass ([`scan_day`]): the target list
//! and the wave-1 batch are built once, each vantage keeps a compact
//! per-target state, and every wave is resolved for all vantages
//! together ([`QueryEngine::resolve_batches`]) before the next wave is
//! built. At one thread on a network without a latency model the
//! engines' queries are interleaved, so the authority state one
//! vantage's question pulls in is still in the CPU cache when the next
//! vantage asks it. Each vantage's observations are what it would see
//! scanning alone ([`scan_one_day`], the one-engine case). A network
//! that carries a latency model runs every wave on the event loop, and
//! there the order is part of the outcome: the shared virtual clock runs
//! on through wave 1 of every vantage, then wave 2 of every vantage, and
//! so on, so a later vantage scans a wave at the virtual instant the
//! earlier ones finished it.
//!
//! ## Telemetry
//!
//! [`Campaign::run_vantages_instrumented`] attaches one labelled
//! [`MetricsRegistry`] per vantage and returns each store bundled with
//! its registry and final cache statistics as a [`VantageRun`]. The
//! instrumentation follows the telemetry crate's determinism split:
//! per-day cache-hit-rate series and per-wave query volumes are
//! deterministic counters (derived from batch outcomes), while per-day
//! scan timings and per-wave latencies are wall-clock histograms. Since
//! the vantages scan a day together, `scan.day_us` and `scan.wave*_us`
//! time the joint day or wave and record the same figure in every
//! vantage's registry. Telemetry is purely observational — an
//! instrumented campaign produces a byte-identical [`SnapshotStore`] to
//! an uninstrumented one, a property pinned by this crate's tests.
//!
//! ## Persistence
//!
//! [`Campaign::run_to_store`] is the write-through mode: the same scan
//! core, but each day's observations are flushed to an on-disk
//! [`StoreWriter`] chunk as the day completes (at most one day
//! resident). On a resumed writer the completed days are replayed and
//! verified rather than rewritten — engine state (cache contents,
//! round-robin cursors, per-zone RNG streams) persists across scan
//! days, so deterministic replay is the only way a restart can be
//! byte-identical to an uninterrupted run.

use crate::observation::{flags, NsCategory, Observation};
use crate::store::persist::{StoreMeta, StoreWriter};
use crate::store::{OrgId, OrgInterner, SnapshotStore};
use dns_wire::svcb::{client_choice, key, Lint};
use dns_wire::{DnsName, NameBuildHasher, NameView, RData, RecordType, SvcbView};
use ecosystem::World;
use resolver::{
    CacheStats, Query, QueryEngine, Resolution, ResolveError, RrSet, SelectionStrategy,
    VantagePoint,
};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::io::{self, ErrorKind};
use std::net::IpAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::MetricsRegistry;

/// Campaign configuration: which days to scan and how.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Days (since study start) to scan, ascending.
    pub sample_days: Vec<u64>,
    /// Scan www subdomains too.
    pub scan_www: bool,
    /// Worker threads for the batched query fan-out.
    pub threads: usize,
    /// Vantage profiles to scan through. Empty means one unlabelled
    /// default vantage (validating, round-robin selection) — the
    /// single-resolver campaign shape this module started with.
    pub vantages: Vec<VantagePoint>,
}

impl Campaign {
    /// Scan every `stride`-th day of a study.
    pub fn strided(study_days: u64, stride: u64) -> Campaign {
        Campaign {
            sample_days: (0..study_days).step_by(stride.max(1) as usize).collect(),
            scan_www: true,
            threads: 4,
            vantages: Vec::new(),
        }
    }

    /// The profiles this campaign scans through: the configured ones, or
    /// the single unlabelled default. Never empty.
    fn effective_vantages(&self) -> Vec<VantagePoint> {
        if self.vantages.is_empty() {
            vec![VantagePoint::custom("", SelectionStrategy::RoundRobin)]
        } else {
            self.vantages.clone()
        }
    }

    /// Run the campaign through the first (or default) vantage,
    /// advancing the world through its timeline. All resolution flows
    /// through one [`QueryEngine`] whose cache persists across days,
    /// exactly like the paper's long-lived recursive resolver.
    pub fn run(&self, world: &mut World) -> SnapshotStore {
        let single = Campaign {
            vantages: self.effective_vantages().into_iter().take(1).collect(),
            ..self.clone()
        };
        // `effective_vantages` is never empty, so a one-vantage campaign
        // yields exactly one store and the default is never built.
        single.run_vantages(world).into_iter().next().unwrap_or_default()
    }

    /// Run the campaign through every configured vantage, producing one
    /// labelled [`SnapshotStore`] per profile (in `vantages` order).
    ///
    /// Each scan day the world steps once; then every vantage's engine
    /// scans the same frozen state. Org interning is replayed in the
    /// same order for every store, so org ids agree across vantages and
    /// stores can be diffed row-for-row.
    pub fn run_vantages(&self, world: &mut World) -> Vec<SnapshotStore> {
        self.run_internal(world, false).into_iter().map(|run| run.store).collect()
    }

    /// Run the campaign with telemetry: identical to
    /// [`run_vantages`](Self::run_vantages) (byte-identical stores) but
    /// every vantage's engine carries a [`MetricsRegistry`] labelled
    /// with the vantage name, and each result bundles the registry plus
    /// the engine's final cache statistics.
    pub fn run_vantages_instrumented(&self, world: &mut World) -> Vec<VantageRun> {
        self.run_internal(world, true)
    }

    fn run_internal(&self, world: &mut World, instrument: bool) -> Vec<VantageRun> {
        let (orgs, _) = Self::canonical_orgs(world);
        let mut stores: Vec<SnapshotStore> = self
            .effective_vantages()
            .iter()
            .map(|v| {
                let mut store = SnapshotStore::with_vantage(&v.name);
                store.orgs = orgs.clone();
                store
            })
            .collect();
        // The in-memory sink cannot fail: its error type has no values.
        let engines = self
            .drive(world, instrument, &mut |vi, day, obs| {
                stores[vi].push_day(day, obs);
                Ok::<(), Infallible>(())
            })
            .unwrap_or_else(|never| match never {});
        engines
            .into_iter()
            .zip(stores)
            .map(|((engine, metrics), store)| {
                if instrument {
                    // Eviction-class counters (capacity, evictions,
                    // sweeps) are deterministic — zero on the campaign's
                    // unbounded caches — so they join the pinned export.
                    engine.cache().export_eviction_metrics(&metrics);
                }
                VantageRun {
                    cache: engine.cache().stats(),
                    shards: engine.cache().shard_stats(),
                    store,
                    metrics,
                }
            })
            .collect()
    }

    /// The campaign's canonical org interner and name→id map, interned
    /// in the same deterministic order as every per-vantage store (the
    /// world's catalog, then the BYOIP sentinel org). Scan processing
    /// needs only the id map; stores clone the interner so org ids
    /// agree across vantages and with the on-disk dictionary.
    fn canonical_orgs(world: &World) -> (OrgInterner, HashMap<String, OrgId>) {
        let mut orgs = OrgInterner::default();
        let mut org_ids: HashMap<String, OrgId> = HashMap::new();
        for infra in world.catalog.all() {
            let id = orgs.intern(infra.spec.org);
            org_ids.insert(infra.spec.org.to_string(), id);
        }
        let byoip = orgs.intern("BYOIP Customer Org");
        org_ids.insert("BYOIP Customer Org".to_string(), byoip);
        (orgs, org_ids)
    }

    /// The campaign core every entry point drives: one engine per
    /// vantage, the world stepped once per scan day, every vantage
    /// scanning the identical frozen state in one pass ([`scan_day`]),
    /// and each completed day handed to `on_day(vantage_index, day,
    /// observations)` in vantage order. The sink decides where days land
    /// (in-memory store, write-through disk chunk, or replay
    /// verification); resolution is byte-identical across sinks because
    /// the sink is invoked strictly after the day's scan.
    fn drive<E>(
        &self,
        world: &mut World,
        instrument: bool,
        on_day: &mut dyn FnMut(usize, u32, Vec<Observation>) -> Result<(), E>,
    ) -> Result<Vec<(QueryEngine, Arc<MetricsRegistry>)>, E> {
        let (_, org_ids) = Self::canonical_orgs(world);
        let engines: Vec<(QueryEngine, Arc<MetricsRegistry>)> = self
            .effective_vantages()
            .iter()
            .map(|v| {
                let metrics = Arc::new(MetricsRegistry::new(&v.name));
                let mut engine = v.engine(world.network.clone(), world.registry.clone());
                if instrument {
                    engine = engine.with_metrics(metrics.clone());
                }
                (engine, metrics)
            })
            .collect();
        let scanners: Vec<&QueryEngine> = engines.iter().map(|(engine, _)| engine).collect();

        for &day in &self.sample_days {
            world.step_to_day(day);
            let day_start = instrument.then(Instant::now);
            // Each vantage's distinct lookups and cache-served answers
            // before the day, for the per-day hit-rate series.
            let before: Vec<(u64, u64)> = if instrument {
                engines
                    .iter()
                    .map(|(_, m)| {
                        (m.counter_value("engine.distinct"), m.counter_value("engine.from_cache"))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let days = scan_day(world, &scanners, &org_ids, self.scan_www, self.threads);
            let elapsed = day_start.map(|start| start.elapsed());
            for (vi, ((_, metrics), obs)) in engines.iter().zip(days).enumerate() {
                if let Some(elapsed) = elapsed {
                    record_day(metrics, day, elapsed, before[vi], obs.len());
                }
                on_day(vi, day as u32, obs)?;
            }
        }
        Ok(engines)
    }

    /// Create a fresh on-disk store for this campaign over this world
    /// (manifest records the campaign shape and the world's seed/
    /// population/list size, making `resume` self-contained).
    pub fn create_store(&self, world: &World, dir: &Path) -> io::Result<StoreWriter> {
        StoreWriter::create(dir, self.store_meta(world))
    }

    /// The manifest this campaign/world pair writes.
    pub fn store_meta(&self, world: &World) -> StoreMeta {
        StoreMeta {
            vantages: self.effective_vantages().iter().map(|v| v.name.clone()).collect(),
            sample_days: self.sample_days.clone(),
            scan_www: self.scan_www,
            world_seed: world.config.seed,
            population: world.config.population as u64,
            list_size: world.config.list_size as u64,
        }
    }

    /// Run the campaign write-through: each day's observations are
    /// flushed to the writer as one column chunk per vantage the moment
    /// the day's scan completes, so at most one day is ever resident.
    ///
    /// On a writer reopened with [`StoreWriter::open_resume`], the days
    /// already on disk are deterministically *replayed*: the scan runs
    /// exactly as in a fresh campaign (rebuilding the engines' cache,
    /// round-robin, and per-zone RNG state, which persist across days
    /// and would diverge under any shortcut), and each replayed day is
    /// verified byte-for-byte against its stored chunk instead of being
    /// rewritten. Appending resumes at the first missing day — which is
    /// what makes an interrupted-then-resumed campaign byte-identical
    /// to an uninterrupted one.
    pub fn run_to_store(
        &self,
        world: &mut World,
        writer: &mut StoreWriter,
    ) -> io::Result<StoreRunReport> {
        let expected_meta = self.store_meta(world);
        if *writer.meta() != expected_meta {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "store manifest does not match this campaign/world \
                 (different vantages, days, scan_www, or world config)",
            ));
        }
        let (orgs, _) = Self::canonical_orgs(world);
        let mut report = StoreRunReport::default();
        let mut next_index = vec![0usize; expected_meta.vantages.len()];
        self.drive::<io::Error>(world, false, &mut |vi, day, obs| {
            let i = next_index[vi];
            next_index[vi] += 1;
            if i < writer.days_written(vi) {
                let stored = writer.read_day(vi, day)?;
                if stored != obs {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        format!(
                            "replay of day {day} for vantage {vi} diverged from the \
                             stored chunk — the store was written by a different \
                             world/campaign"
                        ),
                    ));
                }
                report.replayed_days += 1;
                Ok(())
            } else {
                writer.append_chunk(vi, day, &obs, &orgs)?;
                report.appended_days += 1;
                Ok(())
            }
        })?;
        Ok(report)
    }
}

/// Record one vantage's figures for a scanned day: the joint day's wall
/// time, and the deterministic per-day hit-rate series (distinct
/// lookups and cache-served answers since `before`) plus campaign
/// totals.
fn record_day(
    metrics: &MetricsRegistry,
    day: u64,
    elapsed: Duration,
    (lookups_before, cached_before): (u64, u64),
    observations: usize,
) {
    metrics.histogram("scan.day_us").record_duration(elapsed);
    metrics
        .counter(&format!("scan.day{day:04}.lookups"))
        .add(metrics.counter_value("engine.distinct") - lookups_before);
    metrics
        .counter(&format!("scan.day{day:04}.from_cache"))
        .add(metrics.counter_value("engine.from_cache") - cached_before);
    metrics.counter("scan.days").inc();
    metrics.counter("scan.observations").add(observations as u64);
}

/// What a write-through campaign run did: how many vantage-days were
/// replayed (verified against chunks already on disk) vs freshly
/// appended.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreRunReport {
    /// Vantage-days re-scanned and verified against existing chunks.
    pub replayed_days: usize,
    /// Vantage-days scanned and appended as new chunks.
    pub appended_days: usize,
}

/// One vantage's campaign output with its telemetry: the labelled
/// store, the vantage's metrics registry, and the engine cache's final
/// (aggregate and per-shard) statistics.
pub struct VantageRun {
    /// The longitudinal dataset this vantage observed.
    pub store: SnapshotStore,
    /// The vantage's metrics registry (labelled with the vantage name).
    pub metrics: Arc<MetricsRegistry>,
    /// Final cache statistics, aggregated over shards.
    pub cache: CacheStats,
    /// Final per-shard cache statistics, in shard-index order.
    pub shards: Vec<CacheStats>,
}

impl VantageRun {
    /// Fraction of this campaign's distinct batch lookups answered from
    /// the vantage's cache — the deterministic resolution-level
    /// hit-rate (`None` before any lookups). TTL-clamped vantages expire
    /// entries sooner and so sit lower on this measure.
    pub fn resolution_hit_rate(&self) -> Option<f64> {
        let lookups = self.metrics.counter_value("engine.distinct");
        if lookups == 0 {
            None
        } else {
            Some(self.metrics.counter_value("engine.from_cache") as f64 / lookups as f64)
        }
    }
}

/// One scanned name, shared by every vantage. Its name lives in the
/// wave-1 query at the same index (targets and wave-1 queries are built
/// 1:1), not in a second per-target copy.
struct Target {
    domain_id: u32,
    rank: u32,
    is_www: bool,
}

/// One vantage's state for one target, folded wave by wave. It owns no
/// heap block: follow-ups are `u32` indices into the vantage's wave
/// batches, and the hint check holds the HTTPS answer's shared RRset —
/// a reference count on the reply — instead of a copy of its hints.
struct TargetScan {
    flags: u32,
    min_priority: u16,
    ns_category: u8,
    org: OrgId,
    /// The owner-name A follow-up: its index in the wave-2 batch, and the
    /// HTTPS answer whose IPv4 hints are checked against its records.
    owner_a: Option<(u32, RrSet)>,
    /// Index into the wave-2 batch of the apex NS follow-up.
    ns_lookup: Option<u32>,
    /// The wave-3 NS-host A lookups, which are pushed contiguously.
    ns_hosts: Range<u32>,
}

impl TargetScan {
    fn new(is_www: bool) -> TargetScan {
        TargetScan {
            flags: if is_www { flags::IS_WWW } else { 0 },
            min_priority: u16::MAX,
            ns_category: NsCategory::NoNs as u8,
            org: OrgId::NONE,
            owner_a: None,
            ns_lookup: None,
            ns_hosts: 0..0,
        }
    }

    fn finish(&self, target: &Target, day: u32) -> Observation {
        Observation {
            day,
            domain_id: target.domain_id,
            rank: target.rank,
            flags: self.flags,
            ns_category: self.ns_category,
            org: self.org,
            min_priority: self.min_priority,
        }
    }
}

/// One wave's results for one vantage, in its batch's order.
type WaveResults = Vec<Result<Resolution, ResolveError>>;

/// Scan today's list through the engine. Returns observations sorted by
/// (domain, www-flag). The one-engine case of [`scan_day`].
pub fn scan_one_day(
    world: &World,
    engine: &QueryEngine,
    org_ids: &HashMap<String, OrgId>,
    scan_www: bool,
    threads: usize,
) -> Vec<Observation> {
    // One engine in, one list out: the default is never taken.
    scan_day(world, &[engine], org_ids, scan_www, threads).pop().unwrap_or_default()
}

/// Scan today's list through every engine in one pass, returning one
/// observation list per engine (in `engines` order, each sorted by
/// domain, then www-flag). The target list and the wave-1 batch are
/// built once for all engines; each wave is resolved for all of them
/// together ([`QueryEngine::resolve_batches`]) and folded into each
/// engine's compact per-target state, and its results are dropped
/// before the next wave is built. Each engine's list is what
/// [`scan_one_day`] gives through that engine alone (module docs).
pub fn scan_day(
    world: &World,
    engines: &[&QueryEngine],
    org_ids: &HashMap<String, OrgId>,
    scan_www: bool,
    threads: usize,
) -> Vec<Vec<Observation>> {
    // The day's list as the world's own `Arc`, shared rather than copied.
    let list = world.today_list_shared();
    let day = world.current_day as u32;

    // Build the target list and the wave-1 HTTPS queries together, 1:1
    // in list order: the query owns the only copy of each target name.
    let mut targets: Vec<Target> = Vec::with_capacity(list.ranked().len() * 2);
    let mut https_queries: Vec<Query> = Vec::with_capacity(list.ranked().len() * 2);
    for &id in list.ranked() {
        let d = world.domain(id);
        // The list's lazily-built id→rank index: shared with every other
        // same-day rank lookup instead of rebuilding a local map here.
        let rank = list.rank_of(id).unwrap_or(0) as u32;
        let mut push = |name: DnsName, is_www: bool| {
            targets.push(Target { domain_id: id, rank, is_www });
            https_queries.push(Query::new(name, RecordType::Https));
        };
        push(d.apex.clone(), false);
        if scan_www {
            push(d.www.clone(), true);
        }
    }

    // Wave 1: HTTPS for every target, the same batch for every vantage.
    let wave1 = vec![https_queries.as_slice(); engines.len()];
    let mut scans: Vec<Vec<TargetScan>> = Vec::with_capacity(engines.len());
    let mut wave2: Vec<Vec<Query>> = Vec::with_capacity(engines.len());
    for results in scan_wave(engines, &wave1, threads, "wave1_https") {
        let (scan, followups) = fold_https(&targets, &https_queries, results);
        scans.push(scan);
        wave2.push(followups);
    }

    // Wave 2: owner-A and apex-NS follow-ups.
    let batches: Vec<&[Query]> = wave2.iter().map(Vec::as_slice).collect();
    let results = scan_wave(engines, &batches, threads, "wave2_followups");
    let mut hosts = HashSet::default();
    let wave3: Vec<Vec<Query>> = scans
        .iter_mut()
        .zip(results)
        .map(|(scan, results)| fold_followups(scan, results, &mut hosts))
        .collect();
    drop(wave2);

    // Wave 3: NS-host addresses, then WHOIS attribution.
    let batches: Vec<&[Query]> = wave3.iter().map(Vec::as_slice).collect();
    let results = scan_wave(engines, &batches, threads, "wave3_nshosts");
    for (scan, results) in scans.iter_mut().zip(results) {
        fold_ns_hosts(world, scan, &results, org_ids);
    }

    // One (domain, www-flag) order of the shared targets serves every
    // vantage's observations.
    let mut order: Vec<u32> = (0..targets.len() as u32).collect();
    order.sort_by_key(|&i| {
        let target = &targets[i as usize];
        (target.domain_id, target.is_www)
    });
    scans
        .iter()
        .map(|scan| {
            order.iter().map(|&i| scan[i as usize].finish(&targets[i as usize], day)).collect()
        })
        .collect()
}

/// Resolve one scan wave, one batch per engine. An instrumented engine
/// also records the joint wave's wall-clock latency histogram and its
/// own batch's deterministic query-volume counter; resolution itself is
/// identical either way.
fn scan_wave(
    engines: &[&QueryEngine],
    batches: &[&[Query]],
    threads: usize,
    wave: &str,
) -> Vec<WaveResults> {
    let start = engines.iter().any(|engine| engine.metrics().is_some()).then(Instant::now);
    let results = QueryEngine::resolve_batches(engines, batches, threads);
    if let Some(start) = start {
        let elapsed = start.elapsed();
        for (engine, batch) in engines.iter().zip(batches) {
            if let Some(metrics) = engine.metrics() {
                metrics.histogram(&format!("scan.{wave}_us")).record_duration(elapsed);
                metrics.counter(&format!("scan.{wave}.queries")).add(batch.len() as u64);
            }
        }
    }
    results
}

/// Fold one vantage's wave-1 HTTPS results into fresh per-target state,
/// returning it with the vantage's wave-2 batch: an A query for each
/// HTTPS record owner, an NS query for each resolved apex.
fn fold_https(
    targets: &[Target],
    https_queries: &[Query],
    results: WaveResults,
) -> (Vec<TargetScan>, Vec<Query>) {
    let mut wave2: Vec<Query> = Vec::new();
    let scans = targets
        .iter()
        .zip(https_queries)
        .zip(results)
        .map(|((target, query), res)| {
            let mut t = TargetScan::new(target.is_www);
            match res {
                Ok(res) => {
                    if !res.chain.is_empty() {
                        t.flags |= flags::VIA_CNAME;
                    }
                    if let Some((min_priority, shape)) = read_https(&res.records) {
                        t.flags |= flags::HTTPS_PRESENT | shape;
                        t.min_priority = min_priority;
                        if res.records.rrsig_count() > 0 {
                            t.flags |= flags::RRSIG;
                        }
                        if res.ad() {
                            t.flags |= flags::AD;
                        }
                        // Follow-up A query for the record owner; its
                        // answer is checked against the hints in wave 2.
                        let owner = res.records.owner().clone();
                        t.owner_a = Some((wave2.len() as u32, res.records));
                        wave2.push(Query::new(owner, RecordType::A));
                    }
                }
                Err(e) => {
                    t.flags |= flags::RESOLUTION_FAILED;
                    if e.is_timeout() {
                        t.flags |= flags::RESOLUTION_TIMEOUT;
                    }
                }
            }
            // NS follow-up for every apex observation (the paper's NS
            // dataset tracks providers whether or not the HTTPS record
            // is active).
            if !target.is_www && t.flags & flags::RESOLUTION_FAILED == 0 {
                t.ns_lookup = Some(wave2.len() as u32);
                wave2.push(Query::new(query.name.clone(), RecordType::Ns));
            }
            t
        })
        .collect();
    (scans, wave2)
}

/// Fold one vantage's wave-2 results: the hint check for each
/// HTTPS-positive target, and the vantage's wave-3 batch of NS-host
/// address lookups. Each host is named by the one name `hosts` keeps
/// for its spelling, so a day builds a name per distinct host, not one
/// per NS record.
fn fold_followups(
    scans: &mut [TargetScan],
    results: WaveResults,
    hosts: &mut NameSet,
) -> Vec<Query> {
    let mut wave3: Vec<Query> = Vec::new();
    for t in scans.iter_mut() {
        if let Some((idx, https)) = t.owner_a.take() {
            if let Ok(a_res) = &results[idx as usize] {
                if hints_match(&https, &a_res.records) {
                    t.flags |= flags::HINT_MATCH;
                }
            }
        }
        if let Some(idx) = t.ns_lookup {
            let start = wave3.len() as u32;
            if let Ok(ns_res) = &results[idx as usize] {
                // The answer's records are NS: each RDATA is the host.
                for rec in ns_res.records.records() {
                    if let Some((host, _)) = rec.rdata_view().name_at(0) {
                        wave3.push(Query::new(shared_name(hosts, host), RecordType::A));
                    }
                }
            }
            t.ns_hosts = start..wave3.len() as u32;
        }
    }
    wave3
}

/// Names kept to be handed out again, keyed case-insensitively.
type NameSet = HashSet<DnsName, NameBuildHasher>;

/// The name `name` spells: the one `names` keeps when it is spelled the
/// same way, case included, else a new one, kept unless `names` holds
/// another spelling of it. Spelled on the stack, so a name seen before
/// costs no allocation.
fn shared_name(names: &mut NameSet, name: NameView<'_>) -> DnsName {
    let spelled = name.to_buf();
    let same_case = |known: &&DnsName| known.labels().eq(spelled.name_ref().labels());
    if let Some(known) = names.get(spelled.name_ref().as_key()).filter(same_case) {
        return known.clone();
    }
    let owned = spelled.freeze();
    names.insert(owned.clone());
    owned
}

/// Fold one vantage's wave-3 results: WHOIS attribution of each apex's
/// NS-host addresses.
fn fold_ns_hosts(
    world: &World,
    scans: &mut [TargetScan],
    results: &[Result<Resolution, ResolveError>],
    org_ids: &HashMap<String, OrgId>,
) {
    // One scratch list for every target's orgs.
    let mut orgs: Vec<&str> = Vec::new();
    for t in scans.iter_mut().filter(|t| !t.ns_hosts.is_empty()) {
        orgs.clear();
        for a_res in results[t.ns_hosts.start as usize..t.ns_hosts.end as usize].iter().flatten() {
            for a in a_ips(&a_res.records) {
                if let Some(org) = world.whois.lookup(IpAddr::V4(a)) {
                    orgs.push(org);
                }
            }
        }
        let (category, org) = categorize_orgs(&orgs, org_ids);
        t.ns_category = category as u8;
        t.org = org;
    }
}

/// The HTTPS RDATAs of an answer RRset, read in place. Every record of
/// a set the resolver hands out was checked when its reply was parsed,
/// so none is skipped.
fn https_views(set: &RrSet) -> impl Iterator<Item = SvcbView<'_>> {
    let https = set.rtype() == RecordType::Https;
    set.records().filter(move |_| https).filter_map(|rec| rec.svcb().ok())
}

/// The addresses of an A RRset.
fn a_ips(set: &RrSet) -> impl Iterator<Item = std::net::Ipv4Addr> + '_ {
    set.records().filter_map(|rec| match rec.rdata() {
        Ok(RData::A(a)) => Some(a),
        _ => None,
    })
}

/// One read of an HTTPS answer: its lowest SvcPriority and the
/// record-shape flags of the record a client would use
/// ([`client_choice`]). `None` when it holds no HTTPS RDATA. Each RDATA
/// is read once, in place.
fn read_https(set: &RrSet) -> Option<(u16, u32)> {
    let (mut min_priority, mut count) = (u16::MAX, 0usize);
    let chosen = client_choice(https_views(set).inspect(|rd| {
        count += 1;
        min_priority = min_priority.min(rd.priority());
    }))?;
    Some((min_priority, classify(&chosen, count == 1)))
}

/// Whether an HTTPS RRset advertises IPv4 hints and every one of them
/// is among the owner's A records.
fn hints_match(https: &RrSet, a_records: &RrSet) -> bool {
    let mut hints = https_views(https).filter_map(|rd| rd.ipv4hint()).flatten().peekable();
    hints.peek().is_some()
        && a_ips(a_records).next().is_some()
        && hints.all(|h| a_ips(a_records).any(|a| a == h))
}

/// Record-shape flags of the chosen HTTPS RDATA; `sole` says it is the
/// RRset's only one. Of RFC 9460's rules ([`SvcbView::lint`]) it flags
/// AliasMode (§2.4.2) with a `.` target (§2.5.1), ServiceMode without
/// SvcParams and an IPv4-literal TargetName; it does not flag an
/// AliasMode record that carries SvcParams (§2.4.2) or a `mandatory` key
/// the record lacks (§8), and counts neither as a failure
/// (`tests/scan.rs` pins it).
fn classify(chosen: &SvcbView<'_>, sole: bool) -> u32 {
    let mut f = if chosen.is_alias() { flags::ALIAS_MODE } else { 0 };
    chosen.lint(|lint| {
        f |= match lint {
            Lint::AliasToRoot => flags::TARGET_SELF_DOT,
            Lint::EmptyServiceMode => flags::EMPTY_SVCPARAMS,
            Lint::Ipv4LiteralTarget => flags::IP_LITERAL_TARGET,
            Lint::AliasWithParams | Lint::MandatoryAbsent(_) => 0,
        }
    });
    if chosen.param(key::ECH).is_some() {
        f |= flags::ECH;
    }
    if chosen.param(key::IPV4HINT).is_some() {
        f |= flags::IPV4HINT;
    }
    if chosen.param(key::IPV6HINT).is_some() {
        f |= flags::IPV6HINT;
    }
    match chosen.alpn_ids() {
        Some(ids) => {
            for id in ids {
                match id {
                    b"http/1.1" => f |= flags::ALPN_H1,
                    b"h2" => f |= flags::ALPN_H2,
                    b"h3" => f |= flags::ALPN_H3,
                    b"h3-29" => f |= flags::ALPN_H3_29,
                    b"h3-27" => f |= flags::ALPN_H3_27,
                    _ => {}
                }
            }
        }
        None => {
            if !chosen.is_alias() && chosen.has_params() {
                f |= flags::NO_ALPN;
            }
        }
    }
    // The default shape counts only as the RRset's sole record.
    if sole && is_cf_default(chosen) {
        f |= flags::CF_DEFAULT;
    }
    f
}

/// Whether a record matches Cloudflare's auto-generated default shape:
/// ServiceMode priority 1, `.` target, alpn ⊇ {h2,h3}, both hint types.
fn is_cf_default(rd: &SvcbView<'_>) -> bool {
    if rd.priority() != 1 || !rd.target().is_root() {
        return false;
    }
    let Some(alpn) = rd.alpn_ids() else { return false };
    let (mut h2, mut h3) = (false, false);
    for id in alpn {
        h2 |= id == b"h2";
        h3 |= id == b"h3";
    }
    h2 && h3
        && rd.param(key::IPV4HINT).is_some()
        && rd.param(key::IPV6HINT).is_some()
        && rd.param(key::PORT).is_none()
}

/// Attribute an NS org set to a category and representative operator
/// (§4.2.2's pipeline, applied to the WHOIS lookups of wave 3).
fn categorize_orgs(orgs: &[&str], org_ids: &HashMap<String, OrgId>) -> (NsCategory, OrgId) {
    let Some(first) = orgs.first() else {
        return (NsCategory::NoNs, OrgId::NONE);
    };
    let is_cf = |o: &&str| *o == "Cloudflare, Inc.";
    let cf_count = orgs.iter().filter(|o| is_cf(o)).count();
    let category = if cf_count == orgs.len() {
        NsCategory::FullCloudflare
    } else if cf_count > 0 {
        NsCategory::PartialCloudflare
    } else {
        NsCategory::NoneCloudflare
    };
    let representative = orgs.iter().find(|o| !is_cf(o)).unwrap_or(first);
    let org_id = org_ids.get(*representative).copied().unwrap_or(OrgId::NONE);
    (category, org_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::wire::WireWriter;
    use dns_wire::{SvcParam, SvcbRdata};
    use proptest::prelude::*;

    /// The flags `classify` set by RFC 9460's rules before it read
    /// [`SvcbView::lint`], kept as the oracle.
    fn former_rule_flags(chosen: &SvcbView<'_>) -> u32 {
        let mut f = 0u32;
        if chosen.is_alias() {
            if chosen.target().is_root() {
                f |= flags::TARGET_SELF_DOT;
            }
        } else if !chosen.has_params() {
            f |= flags::EMPTY_SVCPARAMS;
        }
        if former_is_ipv4_literal(chosen.target()) {
            f |= flags::IP_LITERAL_TARGET;
        }
        f
    }

    fn former_is_ipv4_literal(target: NameView<'_>) -> bool {
        let digits = |label: &[u8]| label.iter().all(u8::is_ascii_digit);
        if target.label_count() != 4 || !target.labels().all(digits) {
            return false;
        }
        target.to_owned().key().parse::<std::net::Ipv4Addr>().is_ok()
    }

    const RULE_FLAGS: u32 =
        flags::TARGET_SELF_DOT | flags::EMPTY_SVCPARAMS | flags::IP_LITERAL_TARGET;

    /// Root, IPv4-shaped and digit-only targets, and an ordinary one.
    const TARGETS: [&str; 9] = [
        ".",
        "1.2.3.4",
        "255.0.0.1",
        "256.1.1.1",
        "01.2.3.4",
        "1.2.3",
        "1.2.3.4.5",
        "a.1.2.3",
        "svc.example.net",
    ];

    /// A record of either mode with any of [`TARGETS`], each of a
    /// `mandatory` list (naming `alpn` and `ipv6hint`), `alpn` and `port`
    /// present or not.
    fn arb_record() -> impl Strategy<Value = SvcbRdata> {
        (0u16..3, 0..TARGETS.len(), proptest::collection::vec(any::<bool>(), 3)).prop_map(
            |(priority, target, present)| {
                let all = [
                    SvcParam::Mandatory(vec![key::ALPN, key::IPV6HINT]),
                    SvcParam::Alpn(vec![b"h2".to_vec()]),
                    SvcParam::Port(8443),
                ];
                let params = all.into_iter().zip(present).filter(|(_, on)| *on).map(|(p, _)| p);
                let target = DnsName::parse(TARGETS[target]).unwrap();
                SvcbRdata { priority, target, params: params.collect() }
            },
        )
    }

    proptest! {
        /// `classify` sets exactly the flags it set before for RFC 9460's
        /// rules, one per finding of the shared lint it maps, and none for
        /// AliasMode with SvcParams or an absent `mandatory` key.
        #[test]
        fn classify_flags_equal_the_shared_lint_and_the_former_classify(rd in arb_record()) {
            let mut w = WireWriter::new();
            rd.encode(&mut w);
            let view = SvcbView::parse(w.as_bytes()).unwrap();
            let flagged = classify(&view, false);
            prop_assert_eq!(flagged & RULE_FLAGS, former_rule_flags(&view));
            prop_assert_eq!(flagged & flags::ALIAS_MODE != 0, view.is_alias());
            let mut findings = Vec::new();
            view.lint(|lint| findings.push(lint));
            for (flag, lint) in [
                (flags::TARGET_SELF_DOT, Lint::AliasToRoot),
                (flags::EMPTY_SVCPARAMS, Lint::EmptyServiceMode),
                (flags::IP_LITERAL_TARGET, Lint::Ipv4LiteralTarget),
            ] {
                prop_assert_eq!(flagged & flag != 0, findings.contains(&lint), "{:?}", findings);
            }
        }
    }
}
