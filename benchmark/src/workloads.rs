//! The four workloads. Each one is a set-up, a measured section that
//! calls the program's public entry points, and a check of what came
//! out: an FNV-1a-64 digest over the bytes named per workload plus a
//! structural check that does not depend on a previous run.
//!
//! A rep is given one seed and uses it for everything it draws: the
//! world, the serve clients, the store tiling. Which seed that is —
//! a run spreads its reps over several — is the parent's business.

use crate::alloc;
use crate::stats::Fnv;
use crate::tiling;
use crate::trace::Tracer;
use httpsrr::analysis;
use httpsrr::ecosystem::{EcosystemConfig, Landmarks, World};
use httpsrr::resolver::{EvictionPolicy, QueryEngine, VantagePoint};
use httpsrr::scanner::{
    flags, open_store, scan_one_day, Campaign, Observation, ObservationSource, OrgId, OrgInterner,
    Projection, ScanFilter, SnapshotStore,
};
use httpsrr::serve::{load_sweep, ServeConfig, ServeReport, StubPopulation, WorkloadConfig};
use httpsrr::telemetry::MetricsRegistry;
use httpsrr::Study;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer numbers a traced rep collects, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanDaily,
    StudyStrided,
    AnalyzeStore,
    ServeSweep,
}

/// Universe and daily-list size of a workload's world.
#[derive(Clone, Copy)]
pub struct WorldSize {
    pub population: usize,
    pub list: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ScanDaily, Workload::StudyStrided, Workload::AnalyzeStore, Workload::ServeSweep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanDaily => "scan_daily",
            Workload::StudyStrided => "study_strided",
            Workload::AnalyzeStore => "analyze_store",
            Workload::ServeSweep => "serve_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world this workload builds (for `analyze_store`, the world
    /// its once-per-run seed scan builds).
    pub fn world_size(self) -> WorldSize {
        match self {
            Workload::ScanDaily => WorldSize { population: 6_000, list: 2_500 },
            Workload::StudyStrided => WorldSize { population: 1_500, list: 600 },
            Workload::AnalyzeStore => WorldSize { population: 6_000, list: 2_500 },
            Workload::ServeSweep => WorldSize { population: 12_000, list: 6_000 },
        }
    }
}

/// How far from its expected size the ECH cohort of a `study_strided`
/// world may be, as a share of that size.
const ECH_COHORT_TOLERANCE: f64 = 0.02;

/// `study_strided` screens its worlds: two thirds of its time and three
/// quarters of its allocations are `World::step_to_day` re-syncing the
/// Cloudflare ECH cohort after every key rotation, so its cost is
/// proportional to the size of that cohort — a binomial draw of about
/// 19 % of 1 500 domains, 5 % up or down from one seed to the next.
/// The workload fixes the cohort as it fixes the population: a world
/// is one of its worlds when the cohort is within 2 % of what the
/// configuration's rates make of the population. (The expectation
/// leaves out a few special-cased domains and sits 2 % under the true
/// mean; what matters is that every run aims at the same size.)
fn ech_cohort_is_typical(world: &World) -> bool {
    let c = &world.config;
    let expected =
        c.population as f64 * c.cloudflare_share * (1.0 - c.customized_rate) * c.ech_rate_apex;
    let cohort = world.domains.iter().filter(|d| d.ech_enabled).count() as f64;
    (cohort / expected - 1.0).abs() <= ECH_COHORT_TOLERANCE
}

impl Workload {
    /// The test a freshly built world has to pass to be one this
    /// workload measures on, where there is one.
    pub fn world_screen(self) -> Option<fn(&World) -> bool> {
        match self {
            Workload::StudyStrided => Some(ech_cohort_is_typical),
            _ => None,
        }
    }
}

/// Build the world of the rep's seed and put it to the workload's
/// screen (the census child; a workload without a screen takes all).
pub fn world_is_typical(workload: Workload, ctx: &RepCtx) -> bool {
    workload.world_screen().is_none_or(|screen| {
        screen(&World::build(world_config(ctx.seed, workload.world_size(), ctx.threads)))
    })
}

/// Scan days of the daily campaign (`scan_daily`, and the seed scan of
/// `analyze_store`).
const SCAN_DAYS: [u64; 2] = [0, 1];
/// Day stride of `study_strided`: the `Study::quick` cadence.
const STUDY_STRIDE: u64 = 28;
/// Offered load ladder of `serve_sweep`, thousand queries per virtual
/// second, and the virtual length of each phase.
pub const SERVE_RATES_KQPS: [f64; 3] = [4.0, 8.0, 16.0];
const SERVE_PHASE_MS: u64 = 5_000;

/// What one rep is given.
pub struct RepCtx<'a> {
    pub seed: u64,
    pub threads: usize,
    /// A directory that does not exist yet; the rep may create it.
    pub dir: &'a Path,
    /// The store the run's seed scan wrote (`analyze_store` only).
    pub seed_store: &'a Path,
}

/// Cost of one timed section.
#[derive(Clone, Copy)]
pub struct Section {
    pub secs: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub cpu_s: f64,
    pub minor_faults: u64,
}

/// Time `f` — a rep's `setup` or `measured` section, and a span of
/// that name — counting the heap allocations it makes.
fn timed<T>(t: &mut Tracer, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Section) {
    let id = t.enter(name);
    let (cpu0, faults0) = crate::host::cpu_and_faults();
    let (calls0, bytes0) = alloc::snapshot();
    let start = Instant::now();
    let out = f(t);
    let secs = start.elapsed().as_secs_f64();
    let (calls1, bytes1) = alloc::snapshot();
    let (cpu1, faults1) = crate::host::cpu_and_faults();
    t.exit(id);
    let section = Section {
        secs,
        allocs: calls1 - calls0,
        alloc_bytes: bytes1 - bytes0,
        cpu_s: cpu1 - cpu0,
        minor_faults: faults1 - faults0,
    };
    (out, section)
}

/// What one rep reports.
pub struct RepResult {
    pub setup: Section,
    pub measured: Section,
    /// The workload's unit count (observations, rows, queries).
    pub units: u64,
    pub digest: u64,
    /// Operations the *program* reports as failed (unresolvable names,
    /// failed serve queries). Deterministic, so it must repeat exactly.
    pub program_failures: u64,
    /// Further exact counts for the ledger.
    pub exact: Vec<(&'static str, u64)>,
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

pub fn world_config(seed: u64, size: WorldSize, threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        seed,
        population: size.population,
        list_size: size.list,
        score_threads: threads,
        ..EcosystemConfig::default()
    }
}

fn scan_campaign(threads: usize) -> Campaign {
    Campaign {
        sample_days: SCAN_DAYS.to_vec(),
        scan_www: true,
        threads,
        vantages: VantagePoint::presets(),
    }
}

/// FNV-1a-64 over a directory's regular files in name order (each
/// file's name, then its bytes), and the total byte count.
pub fn dir_digest(dir: &Path) -> io::Result<(u64, u64)> {
    let mut names: Vec<_> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.file_name())).collect::<io::Result<_>>()?;
    names.sort();
    let mut h = Fnv::new();
    let mut bytes = 0u64;
    for name in names {
        let content = std::fs::read(dir.join(&name))?;
        h.write(name.as_encoded_bytes());
        h.write(&content);
        bytes += content.len() as u64;
    }
    Ok((h.0, bytes))
}

fn text_digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.0
}

/// The campaign's org interner and name→id map, interned in the order
/// `Campaign` interns them (the world's catalog, then the BYOIP
/// sentinel): what `scan_one_day` and `append_chunk` need when the
/// traced run drives the day loop itself. A mismatch with the
/// program's private copy shows as a digest difference.
fn canonical_orgs(world: &World) -> (OrgInterner, HashMap<String, OrgId>) {
    let mut orgs = OrgInterner::default();
    let mut ids = HashMap::new();
    let names = world.catalog.all().iter().map(|infra| infra.spec.org);
    for name in names.chain(["BYOIP Customer Org"]) {
        ids.insert(name.to_string(), orgs.intern(name));
    }
    (orgs, ids)
}

/// Where the traced day loop hands each completed vantage-day:
/// `(tracer, vantage index, day, observations, the campaign's orgs)`.
type DaySink<'a> =
    dyn FnMut(&mut Tracer, usize, u32, Vec<Observation>, &OrgInterner) -> io::Result<()> + 'a;

/// The campaign day loop, driven from public functions with a span
/// around each call: what `Campaign::run_to_store` / `Campaign::run`
/// do, opened up so the tracer can see between the layers. `sink`
/// receives each completed vantage-day; the campaign's org interner
/// is returned for the store that keeps the observations.
fn traced_campaign(
    world: &mut World,
    campaign: &Campaign,
    vantages: &[VantagePoint],
    t: &mut Tracer,
    layers: &mut Layers,
    sink: &mut DaySink,
) -> io::Result<OrgInterner> {
    let (orgs, org_ids) = canonical_orgs(world);
    let engines: Vec<(QueryEngine, Arc<MetricsRegistry>)> = vantages
        .iter()
        .map(|v| {
            let metrics = Arc::new(MetricsRegistry::new(&v.name));
            let engine = t.span("resolver.VantagePoint::engine", || {
                v.engine(world.network.clone(), world.registry.clone())
            });
            (engine.with_metrics(metrics.clone()), metrics)
        })
        .collect();
    let datagrams_before = world.network.stats().datagrams_sent;
    let (mut step_ms, mut day0_ms, mut later_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut observations = 0u64;
    for &day in &campaign.sample_days {
        // `step_to_day(day)` applies every intermediate day; stepping
        // one day per call is the same walk, one span per advance.
        for next in world.current_day + 1..=day {
            let id = t.enter("ecosystem.World::step_to_day");
            world.step_to_day(next);
            step_ms.push(t.exit(id) * 1e3);
        }
        for (vi, (engine, _)) in engines.iter().enumerate() {
            let id = t.enter("scanner.scan_one_day");
            let obs = scan_one_day(world, engine, &org_ids, campaign.scan_www, campaign.threads);
            let ms = t.exit(id) * 1e3;
            (if day == campaign.sample_days[0] { &mut day0_ms } else { &mut later_ms }).push(ms);
            observations += obs.len() as u64;
            sink(t, vi, day as u32, obs, &orgs)?;
        }
    }

    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    layers.insert("ecosystem.step_day_ms_mean", mean(&step_ms));
    layers.insert("ecosystem.step_day_ms_max", step_ms.iter().copied().fold(0.0, f64::max));
    layers.insert("scanner.scan_day0_ms", mean(&day0_ms));
    layers.insert("scanner.scan_later_day_ms", mean(&later_ms));
    let datagrams = world.network.stats().datagrams_sent - datagrams_before;
    layers.insert("netsim.datagrams_per_obs", datagrams as f64 / observations.max(1) as f64);

    // Wave splits and resolution counts come from the registries the
    // program's own instrumentation fills (`scan_wave`,
    // `resolve_batch`), summed over vantages; cache counts from
    // `RecordCache::stats`.
    let counter =
        |name: &str| engines.iter().map(|(_, m)| m.counter_value(name)).sum::<u64>() as f64;
    let wave_us = |wave: &str| {
        engines
            .iter()
            .map(|(_, m)| m.histogram(&format!("scan.{wave}_us")).snapshot().sum)
            .sum::<u64>() as f64
    };
    let waves = [wave_us("wave1_https"), wave_us("wave2_followups"), wave_us("wave3_nshosts")];
    let all_waves = waves.iter().sum::<f64>().max(1.0);
    layers.insert("scanner.wave1_share", waves[0] / all_waves);
    layers.insert("scanner.wave2_share", waves[1] / all_waves);
    layers.insert("scanner.wave3_share", waves[2] / all_waves);
    layers.insert("resolver.queries", counter("engine.queries"));
    layers.insert("resolver.distinct", counter("engine.distinct"));
    layers.insert(
        "resolver.from_cache_share",
        counter("engine.from_cache") / counter("engine.distinct").max(1.0),
    );
    layers.insert("resolver.failures", counter("engine.failures"));
    let mut cache = httpsrr::resolver::CacheStats::default();
    for (engine, _) in &engines {
        cache.merge(engine.cache().stats());
    }
    layers.insert("resolver.cache.hits", cache.hits as f64);
    layers.insert("resolver.cache.miss_absent", cache.miss_absent as f64);
    layers.insert("resolver.cache.miss_expired", cache.miss_expired as f64);
    layers.insert("resolver.cache.insertions", cache.insertions as f64);
    layers.insert("resolver.cache.evictions", cache.evictions as f64);
    Ok(orgs)
}

/// Rows and failed rows (`RESOLUTION_FAILED`) of every vantage in an
/// on-disk store.
fn store_rows(dir: &Path) -> io::Result<(u64, u64)> {
    let store = open_store(dir)?;
    let (mut rows, mut failed) = (0u64, 0u64);
    for source in store.sources() {
        source.for_each_day_filtered(ScanFilter::projected(Projection::FLAGS), &mut |_, obs| {
            rows += obs.len() as u64;
            failed += obs.iter().filter(|o| o.has(flags::RESOLUTION_FAILED)).count() as u64;
        });
    }
    Ok((rows, failed))
}

/// Build the world (a span and a layer metric of its own when traced).
fn build_world(
    ctx: &RepCtx,
    size: WorldSize,
    t: &mut Tracer,
    layers: &mut Layers,
) -> (World, Section) {
    let (world, setup) = timed(t, "setup", |t| {
        t.span("ecosystem.World::build", || World::build(world_config(ctx.seed, size, ctx.threads)))
    });
    layers.insert("ecosystem.world_build_s", setup.secs);
    (world, setup)
}

/// `scan_daily`: the paper's daily multi-resolver scan, written through
/// to a fresh on-disk store.
fn scan_daily(
    ctx: &RepCtx,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<(RepResult, Option<World>), String> {
    let size = Workload::ScanDaily.world_size();
    let (mut world, setup) = build_world(ctx, size, t, layers);
    let campaign = scan_campaign(ctx.threads);
    let store_dir = ctx.dir.join("store");
    let (run, measured) = timed(t, "measured", |t| -> io::Result<()> {
        let mut writer =
            t.span("scanner.Campaign::create_store", || campaign.create_store(&world, &store_dir))?;
        if !t.enabled() {
            campaign.run_to_store(&mut world, &mut writer)?;
            return Ok(());
        }
        let (mut append_s, mut rows) = (0.0, 0u64);
        traced_campaign(
            &mut world,
            &campaign,
            &campaign.vantages,
            t,
            layers,
            &mut |t, vi, day, obs, orgs| {
                let id = t.enter("scanner.StoreWriter::append_chunk");
                writer.append_chunk(vi, day, &obs, orgs)?;
                append_s += t.exit(id);
                rows += obs.len() as u64;
                Ok(())
            },
        )?;
        layers.insert("scanner.store.append_us_per_krow", append_s * 1e9 / rows.max(1) as f64);
        Ok(())
    });
    run.map_err(|e| err("scan_daily campaign", e))?;

    let check = t.enter("check");
    let (digest, store_bytes) = dir_digest(&store_dir).map_err(|e| err("store digest", e))?;
    let (rows, failed) = store_rows(&store_dir).map_err(|e| err("reopen store", e))?;
    let expected = (size.list * 2 * SCAN_DAYS.len() * campaign.vantages.len()) as u64;
    if rows != expected {
        return Err(format!(
            "scan_daily stored {rows} rows, expected list x 2 x days x vantages = {expected}"
        ));
    }
    layers.insert("scanner.store.bytes_per_row", store_bytes as f64 / rows as f64);
    t.exit(check);
    let result = RepResult {
        setup,
        measured,
        units: rows,
        digest,
        program_failures: failed,
        exact: vec![("store_bytes", store_bytes)],
    };
    Ok((result, Some(world)))
}

/// Headings `server_side_report` writes, one per section; `true` marks
/// a section whose body is the indented lines under its heading.
const REPORT_SECTIONS: [(&str, bool); 14] = [
    ("Fig 2:", false),
    ("Table 2:", true),
    ("Table 3:", true),
    ("Fig 3:", false),
    ("Fig 10:", false),
    ("Sec 4.2.3:", true),
    ("Table 4:", true),
    ("Table 5:", true),
    ("Sec 4.3.3:", true),
    ("Table 8:", true),
    ("Fig 11:", false),
    ("Fig 12:", true),
    ("Fig 13:", false),
    ("Fig 5:", false),
];

/// Every report section is present once and says something: a block
/// section has an indented line under its heading, a one-line section
/// carries a number and no NaN (the mean of an empty series).
fn check_report(report: &str) -> Result<(), String> {
    let lines: Vec<&str> = report.lines().collect();
    for (heading, block) in REPORT_SECTIONS {
        let at: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].starts_with(heading)).collect();
        let [i] = at[..] else {
            return Err(format!("report section \"{heading}\" appears {} times", at.len()));
        };
        let filled = if block {
            lines.get(i + 1).is_some_and(|l| l.starts_with("  ") && !l.trim().is_empty())
        } else {
            let body = &lines[i][heading.len()..];
            body.bytes().any(|b| b.is_ascii_digit()) && !body.contains("NaN")
        };
        if !filled {
            return Err(format!("report section \"{heading}\" is empty: {:?}", lines[i]));
        }
    }
    Ok(())
}

/// `study_strided`: the `Study::run` / `httpsrr-cli study` path over
/// the whole timeline — strided campaign into the in-memory store,
/// then the full server-side report.
fn study_strided(
    ctx: &RepCtx,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<(RepResult, Option<World>), String> {
    let size = Workload::StudyStrided.world_size();
    let (mut world, setup) = build_world(ctx, size, t, layers);
    let mut campaign = Campaign::strided(world.config.study_days(), STUDY_STRIDE);
    campaign.threads = ctx.threads;
    let ((study, report), measured) = timed(t, "measured", |t| {
        let store = if t.enabled() {
            // `Campaign::run` scans through one unlabelled
            // round-robin vantage.
            let vantage =
                VantagePoint::custom("", httpsrr::resolver::SelectionStrategy::RoundRobin);
            let mut store = SnapshotStore::with_vantage(&vantage.name);
            store.orgs = traced_campaign(
                &mut world,
                &campaign,
                &[vantage],
                t,
                layers,
                &mut |t, _, day, obs, _| {
                    t.span("scanner.SnapshotStore::push_day", || store.push_day(day, obs));
                    Ok(())
                },
            )
            .expect("the in-memory sink cannot fail");
            store
        } else {
            campaign.run(&mut world)
        };
        let study = Study { world, store };
        let report = t.span("httpsrr.server_side_report", || httpsrr::server_side_report(&study));
        (study, report)
    });

    let check = t.enter("check");
    check_report(&report)?;
    let rows = study.store.len() as u64;
    let expected = (size.list * 2 * campaign.sample_days.len()) as u64;
    if rows != expected {
        return Err(format!(
            "study_strided stored {rows} rows, expected list x 2 x days = {expected}"
        ));
    }
    let failed =
        study.store.all().iter().filter(|o| o.has(flags::RESOLUTION_FAILED)).count() as u64;
    t.exit(check);
    let result = RepResult {
        setup,
        measured,
        units: rows,
        digest: text_digest(&report),
        program_failures: failed,
        exact: vec![("report_bytes", report.len() as u64)],
    };
    Ok((result, Some(study.world)))
}

type Pass = fn(&dyn ObservationSource, &Landmarks) -> String;

/// The thirteen analysis passes of `server_side_report`, in its order
/// and with its formatting, each taking any `ObservationSource` — the
/// report's own signature takes a `Study`, which a disk store is not.
/// Keyed by the pass's layer metric; its span is that name less `_ms`.
pub const PASSES: [(&str, Pass); 13] = [
    ("analysis.fig2_adoption_ms", |s, lm| {
        let a = analysis::fig2_adoption(s, lm.source_change as u32);
        format!(
            "Fig 2: adoption (dynamic apex {:.1}% -> {:.1}%; overlapping apex mean {:.1}%)\n",
            a.dynamic_apex.first().unwrap_or(0.0),
            a.dynamic_apex.last().unwrap_or(0.0),
            a.overlapping_apex.mean(),
        )
    }),
    ("analysis.tab2_ns_category_ms", |s, _| format!("{}\n", analysis::tab2_ns_category(s))),
    ("analysis.tab3_top_noncf_ms", |s, _| format!("{}\n", analysis::tab3_top_noncf(s))),
    ("analysis.fig3_noncf_provider_count_ms", |s, _| {
        let f = analysis::fig3_noncf_provider_count(s);
        format!(
            "Fig 3: distinct non-CF providers {:.0} -> {:.0}\nFig 10: non-CF HTTPS domains {:.0} -> {:.0}\n",
            f.provider_count.first().unwrap_or(0.0),
            f.provider_count.last().unwrap_or(0.0),
            f.domain_count.first().unwrap_or(0.0),
            f.domain_count.last().unwrap_or(0.0),
        )
    }),
    ("analysis.sec423_intermittent_ms", |s, _| format!("{}\n", analysis::sec423_intermittent(s))),
    ("analysis.tab4_cf_config_ms", |s, _| format!("{}\n", analysis::tab4_cf_config(s))),
    ("analysis.tab5_other_providers_ms", |s, _| format!("{}\n", analysis::tab5_other_providers(s))),
    ("analysis.sec433_anomalies_ms", |s, _| format!("{}\n", analysis::sec433_anomalies(s))),
    ("analysis.tab8_alpn_ms", |s, lm| {
        format!("{}\n", analysis::tab8_alpn(s, lm.h3_29_sunset as u32))
    }),
    ("analysis.fig11_iphints_ms", |s, _| {
        let f = analysis::fig11_iphints(s);
        format!(
            "Fig 11: apex hint utilization {:.1}%, match {:.1}%\n",
            f.apex_utilization.mean(),
            f.apex_match.mean()
        )
    }),
    ("analysis.fig12_mismatch_durations_ms", |s, _| {
        format!("{}\n", analysis::fig12_mismatch_durations(s))
    }),
    ("analysis.fig13_ech_share_ms", |s, _| {
        let f = analysis::fig13_ech_share(s);
        format!(
            "Fig 13: ECH share apex first {:.1}% last {:.1}%\n",
            f.apex.first().unwrap_or(0.0),
            f.apex.last().unwrap_or(0.0)
        )
    }),
    ("analysis.fig5_dnssec_trend_ms", |s, _| {
        let f = analysis::fig5_dnssec_trend(s);
        format!(
            "Fig 5: signed apex mean {:.1}%, validated {:.1}%  |  Fig 14: signed-ECH {:.2}%\n",
            f.signed_apex.mean(),
            f.validated_apex.mean(),
            f.signed_ech.mean(),
        )
    }),
];

/// The once-per-run seed scan of `analyze_store`: `scan_daily`'s
/// campaign over this workload's world, leaving its real scan days in
/// a store at `ctx.seed_store`.
pub fn seed_scan(ctx: &RepCtx) -> Result<f64, String> {
    let start = Instant::now();
    let size = Workload::AnalyzeStore.world_size();
    let mut world = World::build(world_config(ctx.seed, size, ctx.threads));
    let campaign = scan_campaign(ctx.threads);
    let mut writer =
        campaign.create_store(&world, ctx.seed_store).map_err(|e| err("create seed store", e))?;
    campaign.run_to_store(&mut world, &mut writer).map_err(|e| err("seed scan", e))?;
    Ok(start.elapsed().as_secs_f64())
}

/// `analyze_store`: synthesize a 48-day × 3-vantage store through the
/// chunk writer (set-up), then stream every §4 analysis and the
/// cross-vantage diff back from disk (measured).
fn analyze_store(ctx: &RepCtx, t: &mut Tracer, layers: &mut Layers) -> Result<RepResult, String> {
    let store_dir = ctx.dir.join("store");
    let (tiled, setup) = timed(t, "setup", |t| -> io::Result<u64> {
        let seed_store = open_store(ctx.seed_store)?;
        let base = seed_store.materialize();
        let id = t.enter("benchmark.tile");
        let rows = tiling::tile(&base, &seed_store.meta, ctx.seed, &store_dir, t);
        t.exit(id);
        rows
    });
    let tiled = tiled.map_err(|e| err("tile store", e))?;
    if t.enabled() {
        let append_ns: u64 = t
            .spans()
            .iter()
            .filter(|s| s.name == "scanner.StoreWriter::append_chunk")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        layers.insert("scanner.store.append_us_per_krow", append_ns as f64 / tiled.max(1) as f64);
    }

    let lm = Landmarks::default();
    let (out, measured) = timed(t, "measured", |t| -> io::Result<(u64, Vec<String>)> {
        let id = t.enter("scanner.open_store");
        let store = open_store(&store_dir)?;
        layers.insert("scanner.store.open_ms", t.exit(id) * 1e3);
        let sources = store.sources();
        let mut texts = Vec::with_capacity(PASSES.len() + 1);
        for (metric, pass) in PASSES {
            let id = t.enter(metric.trim_end_matches("_ms"));
            texts.push(pass(sources[0], &lm));
            layers.insert(metric, t.exit(id) * 1e3);
        }
        let id = t.enter("analysis.vantage_diff_sources");
        texts.push(analysis::vantage_diff_sources(&sources).to_string());
        layers.insert("analysis.vantage_diff_ms", t.exit(id) * 1e3);
        let rows = sources.iter().map(|s| s.total_observations() as u64).sum();
        Ok((rows, texts))
    });
    let (rows, texts) = out.map_err(|e| err("analyze store", e))?;

    let check = t.enter("check");
    if rows != tiled {
        return Err(format!("analyze_store read {rows} rows back, wrote {tiled}"));
    }
    check_report(&texts[..PASSES.len()].concat())?;
    let diff = &texts[PASSES.len()];
    if !diff.contains(&format!("({} views, {} days)", 3, tiling::TILE_DAYS)) {
        return Err(format!(
            "cross-vantage diff did not cover 3 views x {} days: {diff:?}",
            tiling::TILE_DAYS
        ));
    }
    let (store_digest, store_bytes) = dir_digest(&store_dir).map_err(|e| err("store digest", e))?;
    let mut h = Fnv(store_digest);
    for text in &texts {
        h.write(text.as_bytes());
    }
    layers.insert("scanner.store.bytes_per_row", store_bytes as f64 / rows as f64);
    let (_, failed) = store_rows(&store_dir).map_err(|e| err("reopen store", e))?;
    t.exit(check);
    Ok(RepResult {
        setup,
        measured,
        units: rows,
        digest: h.0,
        program_failures: failed,
        exact: vec![
            ("store_bytes", store_bytes),
            ("report_bytes", texts.iter().map(|t| t.len() as u64).sum()),
        ],
    })
}

pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workload: WorkloadConfig { clients: 256, seed, ..WorkloadConfig::default() },
        capacity_per_shard: Some(256),
        policy: EvictionPolicy::TtlSweepLru,
        phase_ms: SERVE_PHASE_MS,
        ..ServeConfig::default()
    }
}

/// `serve_sweep`: the resolver serving Zipf-over-Tranco stub clients
/// through a small, evicting cache.
fn serve_sweep(
    ctx: &RepCtx,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<(RepResult, Option<World>), String> {
    let (world, setup) = build_world(ctx, Workload::ServeSweep.world_size(), t, layers);
    let cfg = serve_config(ctx.seed);
    let (report, measured): (ServeReport, _) = timed(t, "measured", |t| {
        t.span("serve.load_sweep", || load_sweep(&world, &cfg, &SERVE_RATES_KQPS, None))
    });

    // The arrival stream is a pure function of (config, list, phase,
    // rate, window length): regenerate it and compare counts.
    let check = t.enter("check");
    let population = StubPopulation::new(world.today_list_shared(), cfg.workload.clone());
    let id = t.enter("serve.StubPopulation::arrivals");
    for (i, (phase, rate)) in report.phases.iter().zip(SERVE_RATES_KQPS).enumerate() {
        let arrivals =
            population.arrivals(&world, i as u64, rate * 1_000.0, 0, cfg.phase_ms * 1_000);
        if arrivals.len() as u64 != phase.queries {
            return Err(format!(
                "serve phase {i} replayed {} queries, the arrival stream has {}",
                phase.queries,
                arrivals.len()
            ));
        }
    }
    layers.insert("serve.arrivals_gen_ms", t.exit(id) * 1e3);
    let queries: u64 = report.phases.iter().map(|p| p.queries).sum();
    let failures: u64 = report.phases.iter().map(|p| p.failures).sum();
    let evictions: u64 = report.phases.iter().map(|p| p.evictions).sum();
    let hits: f64 = report.phases.iter().map(|p| p.hit_rate * p.queries as f64).sum();
    if failures != 0 {
        return Err(format!("serve_sweep: {failures} of {queries} queries failed"));
    }
    layers.insert("serve.hit_rate", hits / queries.max(1) as f64);
    layers.insert("serve.evictions", evictions as f64);
    layers.insert("resolver.queries", queries as f64);
    layers.insert("resolver.from_cache_share", hits / queries.max(1) as f64);
    layers.insert("resolver.cache.evictions", evictions as f64);
    t.exit(check);
    let result = RepResult {
        setup,
        measured,
        units: queries,
        digest: text_digest(&report.canonical_text()),
        program_failures: failures,
        exact: vec![("evictions", evictions)],
    };
    Ok((result, Some(world)))
}

/// Run one rep of `workload`. With an enabled tracer this is the
/// traced rep: same outputs, spans recorded, `layers` filled. The
/// world, where the workload built one, is handed back so the traced
/// run can probe single layers against it.
pub fn run_rep(
    workload: Workload,
    ctx: &RepCtx,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<(RepResult, Option<World>), String> {
    match workload {
        Workload::ScanDaily => scan_daily(ctx, t, layers),
        Workload::StudyStrided => study_strided(ctx, t, layers),
        Workload::AnalyzeStore => analyze_store(ctx, t, layers).map(|r| (r, None)),
        Workload::ServeSweep => serve_sweep(ctx, t, layers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_check_wants_every_section_filled() {
        let mut report = String::new();
        for (heading, block) in REPORT_SECTIONS {
            report.push_str(heading);
            report.push_str(if block { " title\n  row 1\n\n" } else { " value 3.5%\n" });
        }
        assert_eq!(check_report(&report), Ok(()));
        let missing = report.replace("Fig 13: value 3.5%\n", "");
        assert!(check_report(&missing).unwrap_err().contains("Fig 13:"));
        let empty_block = report.replace("Table 4: title\n  row 1\n", "Table 4: title\n");
        assert!(check_report(&empty_block).unwrap_err().contains("Table 4:"));
        let nan = report.replace("Fig 11: value 3.5%", "Fig 11: value NaN%");
        assert!(check_report(&nan).unwrap_err().contains("Fig 11:"));
        let twice = format!("{report}Fig 2: value 1\n");
        assert!(check_report(&twice).unwrap_err().contains("2 times"));
    }

    /// `PASSES` is a hand copy of `server_side_report`'s thirteen
    /// passes; this ties the copy to the original.
    #[test]
    fn passes_concatenate_to_the_server_side_report() {
        let study = Study::quick();
        let lm = study.world.config.landmarks;
        let text: String = PASSES.iter().map(|(_, pass)| pass(&study.store, &lm)).collect();
        assert_eq!(text, httpsrr::server_side_report(&study));
        assert_eq!(check_report(&text), Ok(()));
    }

    /// The `study_strided` screen lets some worlds through and keeps
    /// some out, and what it lets through has the cohort it asks for.
    #[test]
    fn study_screen_is_neither_empty_nor_everything() {
        let screen = Workload::StudyStrided.world_screen().expect("study_strided screens");
        let size = Workload::StudyStrided.world_size();
        let passed: Vec<usize> = (1..=16)
            .map(|seed| World::build(world_config(seed, size, 1)))
            .filter(screen)
            .map(|world| world.domains.iter().filter(|d| d.ech_enabled).count())
            .collect();
        assert!((1..16).contains(&passed.len()), "{} of 16 worlds passed", passed.len());
        assert!(passed.iter().all(|cohort| (276..=287).contains(cohort)), "{passed:?}");
        assert!(Workload::ScanDaily.world_screen().is_none());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("scan"), None);
    }
}
