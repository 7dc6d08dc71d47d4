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
//! ## Telemetry
//!
//! [`Campaign::run_vantages_instrumented`] attaches one labelled
//! [`MetricsRegistry`] per vantage and returns each store bundled with
//! its registry and final cache statistics as a [`VantageRun`]. The
//! instrumentation follows the telemetry crate's determinism split:
//! per-day cache-hit-rate series and per-wave query volumes are
//! deterministic counters (derived from batch outcomes), while per-day
//! scan timings and per-wave latencies are wall-clock histograms.
//! Telemetry is purely observational — an instrumented campaign
//! produces a byte-identical [`SnapshotStore`] to an uninstrumented
//! one, a property pinned by this crate's tests.
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
use dns_wire::{DnsName, RData, RecordType, SvcbRdata};
use ecosystem::World;
use resolver::{
    CacheStats, Query, QueryEngine, Resolution, ResolveError, SelectionStrategy, VantagePoint,
};
use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
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

    /// Scan every day (the paper's cadence).
    pub fn daily(study_days: u64) -> Campaign {
        Campaign::strided(study_days, 1)
    }

    /// The profiles this campaign scans through: the configured ones, or
    /// the single unlabelled default.
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
        single.run_vantages(world).into_iter().next().expect("one vantage yields one store")
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
        let engines = self
            .drive(world, instrument, &mut |vi, day, obs| {
                stores[vi].push_day(day, obs);
                Ok(())
            })
            .expect("in-memory day sink cannot fail");
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
    /// scanning the identical frozen state, and each completed day
    /// handed to `on_day(vantage_index, day, observations)`. The sink
    /// decides where days land (in-memory store, write-through disk
    /// chunk, or replay verification); resolution is byte-identical
    /// across sinks because the sink is invoked strictly after the
    /// day's scan.
    fn drive(
        &self,
        world: &mut World,
        instrument: bool,
        on_day: &mut dyn FnMut(usize, u32, Vec<Observation>) -> io::Result<()>,
    ) -> io::Result<Vec<(QueryEngine, Arc<MetricsRegistry>)>> {
        let (_, org_ids) = Self::canonical_orgs(world);
        let mut engines: Vec<(QueryEngine, Arc<MetricsRegistry>)> = self
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

        for &day in &self.sample_days {
            world.step_to_day(day);
            for (vi, (engine, metrics)) in engines.iter_mut().enumerate() {
                let day_start = instrument.then(Instant::now);
                let lookups_before =
                    if instrument { metrics.counter_value("engine.distinct") } else { 0 };
                let cached_before =
                    if instrument { metrics.counter_value("engine.from_cache") } else { 0 };
                let obs = scan_one_day(world, engine, &org_ids, self.scan_www, self.threads);
                if let Some(start) = day_start {
                    // Wall-clock class: how long this vantage's scan of
                    // the day took.
                    metrics.histogram("scan.day_us").record_duration(start.elapsed());
                    // Deterministic class: the per-day hit-rate series
                    // (distinct lookups and cache-served answers this
                    // day), plus campaign totals.
                    metrics
                        .counter(&format!("scan.day{day:04}.lookups"))
                        .add(metrics.counter_value("engine.distinct") - lookups_before);
                    metrics
                        .counter(&format!("scan.day{day:04}.from_cache"))
                        .add(metrics.counter_value("engine.from_cache") - cached_before);
                    metrics.counter("scan.days").inc();
                    metrics.counter("scan.observations").add(obs.len() as u64);
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
        self.drive(world, false, &mut |vi, day, obs| {
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

/// Per-target scan state accumulated across the waves. The target's
/// name lives in the wave-1 query at the same index (targets and wave-1
/// queries are built 1:1), not in a second per-target copy.
struct TargetScan {
    domain_id: u32,
    rank: u32,
    is_www: bool,
    flags: u32,
    min_priority: u16,
    ns_category: u8,
    org: OrgId,
    /// IPv4 hints advertised by the chosen HTTPS RRset (for the
    /// hint-consistency check against the owner's A records).
    hints: Vec<Ipv4Addr>,
    /// Index into the wave-2 batch of the owner-name A follow-up.
    owner_a: Option<usize>,
    /// Index into the wave-2 batch of the apex NS follow-up.
    ns_lookup: Option<usize>,
    /// Indices into the wave-3 batch of the NS-host A lookups.
    ns_host_a: Vec<usize>,
}

impl TargetScan {
    fn finish(&self, day: u32) -> Observation {
        Observation {
            day,
            domain_id: self.domain_id,
            rank: self.rank,
            flags: self.flags,
            ns_category: self.ns_category,
            org: self.org,
            min_priority: self.min_priority,
        }
    }
}

/// Scan today's list through the engine. Returns observations sorted by
/// (domain, www-flag).
pub fn scan_one_day(
    world: &World,
    engine: &QueryEngine,
    org_ids: &HashMap<String, OrgId>,
    scan_www: bool,
    threads: usize,
) -> Vec<Observation> {
    // The day's list as the world's own `Arc`, shared rather than copied.
    let list = world.today_list_shared();
    let day = world.current_day as u32;

    // Build the target list and the wave-1 HTTPS queries together, 1:1
    // in list order: the query owns the only copy of each target name
    // (the per-target name clone this loop used to make is gone).
    let mut targets: Vec<TargetScan> = Vec::with_capacity(list.ranked().len() * 2);
    let mut https_queries: Vec<Query> = Vec::with_capacity(list.ranked().len() * 2);
    for &id in list.ranked() {
        let d = world.domain(id);
        // The list's lazily-built id→rank index: shared with every other
        // same-day rank lookup instead of rebuilding a local map here.
        let rank = list.rank_of(id).unwrap_or(0) as u32;
        let mut push = |name: DnsName, is_www: bool| {
            targets.push(TargetScan {
                domain_id: id,
                rank,
                is_www,
                flags: if is_www { flags::IS_WWW } else { 0 },
                min_priority: u16::MAX,
                ns_category: NsCategory::NoNs as u8,
                org: OrgId::NONE,
                hints: Vec::new(),
                owner_a: None,
                ns_lookup: None,
                ns_host_a: Vec::new(),
            });
            https_queries.push(Query::new(name, RecordType::Https));
        };
        push(d.apex.clone(), false);
        if scan_www {
            if let Ok(www) = d.apex.prepend("www") {
                push(www, true);
            }
        }
    }

    // Wave 1: HTTPS for every target.
    let https_results = scan_wave(engine, &https_queries, threads, "wave1_https");

    let mut wave2: Vec<Query> = Vec::new();
    for (i, (t, res)) in targets.iter_mut().zip(&https_results).enumerate() {
        match res {
            Ok(res) => {
                if !res.chain.is_empty() {
                    t.flags |= flags::VIA_CNAME;
                }
                let rdatas: Vec<&SvcbRdata> = res
                    .records
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Https(rd) => Some(rd),
                        _ => None,
                    })
                    .collect();
                if !rdatas.is_empty() {
                    t.flags |= flags::HTTPS_PRESENT;
                    t.flags |= classify_rdatas(&rdatas);
                    t.min_priority = rdatas.iter().map(|rd| rd.priority).min().unwrap_or(u16::MAX);
                    if !res.rrsigs.is_empty() {
                        t.flags |= flags::RRSIG;
                    }
                    if res.ad() {
                        t.flags |= flags::AD;
                    }
                    // Follow-up A query for the record owner; hint
                    // consistency is checked in wave 2.
                    t.hints =
                        rdatas.iter().filter_map(|rd| rd.ipv4hint()).flatten().copied().collect();
                    t.owner_a = Some(wave2.len());
                    wave2.push(Query::new(res.records[0].name.clone(), RecordType::A));
                }
            }
            Err(e) => {
                t.flags |= flags::RESOLUTION_FAILED;
                if e.is_timeout() {
                    t.flags |= flags::RESOLUTION_TIMEOUT;
                }
            }
        }
        // NS follow-up for every apex observation (the paper's NS dataset
        // tracks providers whether or not the HTTPS record is active).
        if !t.is_www && t.flags & flags::RESOLUTION_FAILED == 0 {
            t.ns_lookup = Some(wave2.len());
            wave2.push(Query::new(https_queries[i].name.clone(), RecordType::Ns));
        }
    }

    // Wave 2: owner-A and apex-NS follow-ups.
    let wave2_results = scan_wave(engine, &wave2, threads, "wave2_followups");

    let mut wave3: Vec<Query> = Vec::new();
    for t in targets.iter_mut() {
        if let Some(idx) = t.owner_a {
            if let Ok(a_res) = &wave2_results[idx] {
                let a_ips: Vec<Ipv4Addr> = a_res
                    .records
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::A(a) => Some(*a),
                        _ => None,
                    })
                    .collect();
                if !t.hints.is_empty()
                    && !a_ips.is_empty()
                    && t.hints.iter().all(|h| a_ips.contains(h))
                {
                    t.flags |= flags::HINT_MATCH;
                }
            }
        }
        if let Some(idx) = t.ns_lookup {
            if let Ok(ns_res) = &wave2_results[idx] {
                for r in ns_res.records.iter() {
                    if let RData::Ns(ns) = &r.rdata {
                        t.ns_host_a.push(wave3.len());
                        wave3.push(Query::new(ns.clone(), RecordType::A));
                    }
                }
            }
        }
    }

    // Wave 3: NS-host addresses, then WHOIS attribution.
    let wave3_results = scan_wave(engine, &wave3, threads, "wave3_nshosts");

    for t in targets.iter_mut() {
        if t.ns_lookup.is_none() || t.ns_host_a.is_empty() {
            continue;
        }
        let mut orgs: Vec<&str> = Vec::new();
        for &idx in &t.ns_host_a {
            if let Ok(a_res) = &wave3_results[idx] {
                for r in a_res.records.iter() {
                    if let RData::A(a) = &r.rdata {
                        if let Some(org) = world.whois.lookup(std::net::IpAddr::V4(*a)) {
                            orgs.push(org);
                        }
                    }
                }
            }
        }
        let (category, org) = categorize_orgs(&orgs, org_ids);
        t.ns_category = category as u8;
        t.org = org;
    }

    let mut results: Vec<Observation> = targets.iter().map(|t| t.finish(day)).collect();
    results.sort_by_key(|o| (o.domain_id, o.is_www()));
    results
}

/// Resolve one scan wave through the engine. On an instrumented engine
/// this also records the wave's wall-clock latency histogram and its
/// deterministic query-volume counter; resolution itself is identical
/// either way.
fn scan_wave(
    engine: &QueryEngine,
    queries: &[Query],
    threads: usize,
    wave: &str,
) -> Vec<Result<Resolution, ResolveError>> {
    match engine.metrics() {
        Some(metrics) => {
            let start = Instant::now();
            let results = engine.resolve_batch(queries, threads);
            metrics.histogram(&format!("scan.{wave}_us")).record_duration(start.elapsed());
            metrics.counter(&format!("scan.{wave}.queries")).add(queries.len() as u64);
            results
        }
        None => engine.resolve_batch(queries, threads),
    }
}

/// Derive record-shape flags from the HTTPS RDATA set.
fn classify_rdatas(rdatas: &[&SvcbRdata]) -> u32 {
    let mut f = 0u32;
    // The record a client would use: lowest ServiceMode priority, else alias.
    let chosen: &SvcbRdata = rdatas
        .iter()
        .filter(|rd| !rd.is_alias())
        .min_by_key(|rd| rd.priority)
        .or_else(|| rdatas.first())
        .expect("non-empty");

    if chosen.is_alias() {
        f |= flags::ALIAS_MODE;
        if chosen.target.is_root() {
            f |= flags::TARGET_SELF_DOT;
        }
    } else if chosen.params.is_empty() {
        f |= flags::EMPTY_SVCPARAMS;
    }
    if chosen.lint().iter().any(|i| i.contains("IPv4 address literal")) {
        f |= flags::IP_LITERAL_TARGET;
    }
    if chosen.ech().is_some() {
        f |= flags::ECH;
    }
    if chosen.ipv4hint().is_some() {
        f |= flags::IPV4HINT;
    }
    if chosen.ipv6hint().is_some() {
        f |= flags::IPV6HINT;
    }
    match chosen.alpn_ids() {
        Some(ids) => {
            for id in ids {
                match id.as_slice() {
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
            if !chosen.is_alias() && !chosen.params.is_empty() {
                f |= flags::NO_ALPN;
            }
        }
    }
    if is_cf_default(chosen) && rdatas.len() == 1 {
        f |= flags::CF_DEFAULT;
    }
    f
}

/// Whether a record matches Cloudflare's auto-generated default shape:
/// ServiceMode priority 1, `.` target, alpn ⊇ {h2,h3}, both hint types.
fn is_cf_default(rd: &SvcbRdata) -> bool {
    if rd.priority != 1 || !rd.target.is_root() {
        return false;
    }
    let Some(alpn) = rd.alpn_ids() else { return false };
    alpn.iter().any(|p| p.as_slice() == b"h2")
        && alpn.iter().any(|p| p.as_slice() == b"h3")
        && rd.ipv4hint().is_some()
        && rd.ipv6hint().is_some()
        && rd.port().is_none()
}

/// Attribute an NS org set to a category and representative operator
/// (§4.2.2's pipeline, applied to the WHOIS lookups of wave 3).
fn categorize_orgs(orgs: &[&str], org_ids: &HashMap<String, OrgId>) -> (NsCategory, OrgId) {
    if orgs.is_empty() {
        return (NsCategory::NoNs, OrgId::NONE);
    }
    let is_cf = |o: &&str| *o == "Cloudflare, Inc.";
    let cf_count = orgs.iter().filter(|o| is_cf(o)).count();
    let category = if cf_count == orgs.len() {
        NsCategory::FullCloudflare
    } else if cf_count > 0 {
        NsCategory::PartialCloudflare
    } else {
        NsCategory::NoneCloudflare
    };
    let representative =
        orgs.iter().find(|o| !is_cf(o)).or_else(|| orgs.first()).expect("non-empty");
    let org_id = org_ids.get(*representative).copied().unwrap_or(OrgId::NONE);
    (category, org_id)
}
