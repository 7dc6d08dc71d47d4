//! The repository's benchmark harness. See README.md for the catalogue
//! of workloads and metrics; `BENCHMARK.json` at the repository root
//! is the machine-readable contract.
//!
//! One process is the *parent*: it never runs workload code. It
//! re-executes this binary as a child once per rep, one child at a
//! time, collects what each child prints, and reduces the samples.

mod alloc;
mod args;
mod calib;
mod host;
mod json;
mod probes;
mod stats;
mod tiling;
mod trace;
mod workloads;

use args::{Args, Child};
use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{Layers, RepCtx, RepResult, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Everything the harness writes goes under here, relative to the
/// repository root it is run from.
const OUT_DIR: &str = "benchmark/out";
/// A run never reduces fewer fresh-process reps than this.
const MIN_REPS: usize = 24;
/// Worlds a run measures on: rep *i* gets world *i* mod this many, so
/// the floor of `MIN_REPS` reps visits each once. What one world costs
/// hangs on a few small-number draws of its seed (the size of the ECH
/// cohort that `study_strided` re-syncs daily, whether the handful of
/// domains at the head of the list that `serve_sweep` is asked about
/// most publish HTTPS records): 2-5 % between seeds, more than the
/// bounds allow. Over this many worlds it averages out (README,
/// "Worlds").
const WORLDS: usize = MIN_REPS;
/// A traced run compares at least this many traced reps with as many
/// untraced ones.
const MIN_TRACED_REPS: usize = 4;
/// A run gives up on a world that this many candidate seeds in a row
/// were screened out of (`study_strided` lets one in four through).
const MAX_CANDIDATES: usize = 64;
/// A run gives up once this many reps have failed.
const MAX_FAILED_REPS: usize = 3;

/// End-to-end metrics: `(name, unit, better, bound)`. The bound is the
/// share of the baseline by which the metric may worsen before it
/// counts as a regression; `BENCHMARK.json` repeats it for the driver.
const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.10),
    ("wall_s", "s", "lower", 0.10),
    ("units_per_s", "1/s", "higher", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.03),
    ("allocs_per_unit", "count", "lower", 0.02),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A metric whose
/// layer a workload does not exercise reads 0 on that workload.
const PER_LAYER: [(&str, &str); 56] = [
    ("ecosystem.world_build_s", "s"),
    ("ecosystem.step_day_ms_mean", "ms"),
    ("ecosystem.step_day_ms_max", "ms"),
    ("ecosystem.day_list_ms", "ms"),
    ("ecosystem.world_drop_leak_mb", "MB"),
    ("resolver.cold_us_per_query", "us"),
    ("resolver.warm_us_per_query", "us"),
    ("resolver.queries", "count"),
    ("resolver.distinct", "count"),
    ("resolver.from_cache_share", "ratio"),
    ("resolver.cache.hits", "count"),
    ("resolver.cache.miss_absent", "count"),
    ("resolver.cache.miss_expired", "count"),
    ("resolver.cache.insertions", "count"),
    ("resolver.cache.evictions", "count"),
    ("resolver.failures", "count"),
    ("netsim.datagrams_per_obs", "count"),
    ("authserver.exchange_ns", "ns"),
    ("dns-wire.encode_ns", "ns"),
    ("dns-wire.view_parse_ns", "ns"),
    ("dns-wire.decode_ns", "ns"),
    ("scanner.scan_day0_ms", "ms"),
    ("scanner.scan_later_day_ms", "ms"),
    ("scanner.wave1_share", "ratio"),
    ("scanner.wave2_share", "ratio"),
    ("scanner.wave3_share", "ratio"),
    ("scanner.store.append_us_per_krow", "us"),
    ("scanner.store.bytes_per_row", "B"),
    ("scanner.store.open_ms", "ms"),
    ("scanner.store.scan_full_mrows_s", "Mrows/s"),
    ("scanner.store.scan_projected_mrows_s", "Mrows/s"),
    ("analysis.fig2_adoption_ms", "ms"),
    ("analysis.tab2_ns_category_ms", "ms"),
    ("analysis.tab3_top_noncf_ms", "ms"),
    ("analysis.fig3_noncf_provider_count_ms", "ms"),
    ("analysis.sec423_intermittent_ms", "ms"),
    ("analysis.tab4_cf_config_ms", "ms"),
    ("analysis.tab5_other_providers_ms", "ms"),
    ("analysis.sec433_anomalies_ms", "ms"),
    ("analysis.tab8_alpn_ms", "ms"),
    ("analysis.fig11_iphints_ms", "ms"),
    ("analysis.fig12_mismatch_durations_ms", "ms"),
    ("analysis.fig13_ech_share_ms", "ms"),
    ("analysis.fig5_dnssec_trend_ms", "ms"),
    ("analysis.vantage_diff_ms", "ms"),
    ("analysis.vantage_diff_parallel_ms", "ms"),
    ("serve.arrivals_gen_ms", "ms"),
    ("serve.phase_wall_ms.4kqps", "ms"),
    ("serve.phase_wall_ms.8kqps", "ms"),
    ("serve.phase_wall_ms.16kqps", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.evictions", "count"),
    ("proc.cpu_s", "s"),
    ("proc.alloc_kb_per_unit", "kB"),
    ("proc.minor_faults", "count"),
    ("trace.overhead_share", "ratio"),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", args::usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match args.child {
        Some(kind) => child_main(kind, &args),
        None if args.selfcheck => selfcheck(&args),
        None => parent_main(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- child

/// A child's report to its parent: `key value` lines on stdout.
fn print_rep(rep: &RepResult) {
    println!("setup_s {}", rep.setup.secs);
    println!("wall_s {}", rep.measured.secs);
    println!("allocs {}", rep.measured.allocs);
    println!("alloc_bytes {}", rep.measured.alloc_bytes);
    println!("cpu_s {}", rep.measured.cpu_s);
    println!("minor_faults {}", rep.measured.minor_faults);
    println!("units {}", rep.units);
    println!("digest {:016x}", rep.digest);
    println!("program_failures {}", rep.program_failures);
    for (name, value) in &rep.exact {
        println!("exact.{name} {value}");
    }
    println!("peak_rss_kb {}", host::peak_rss_kb());
}

fn child_main(kind: Child, args: &Args) -> Result<(), String> {
    let workload = args.workload.expect("parse() requires a workload");
    let dir = args.dir.as_deref().expect("parse() pairs --child with --dir");
    let rep_dir = dir.join("rep");
    let ctx = RepCtx {
        seed: args.seed,
        threads: args.threads,
        dir: &rep_dir,
        seed_store: &dir.join("seed-store"),
    };
    match kind {
        Child::SeedScan => {
            println!("seed_scan_s {}", workloads::seed_scan(&ctx)?);
            Ok(())
        }
        Child::Calib => {
            println!("calib_s {}", calib::kernel());
            Ok(())
        }
        Child::Census => {
            println!("typical {}", u8::from(workloads::world_is_typical(workload, &ctx)));
            Ok(())
        }
        Child::Rep => {
            let (rep, _world) =
                workloads::run_rep(workload, &ctx, &mut Tracer::new(false), &mut Layers::new())?;
            print_rep(&rep);
            Ok(())
        }
        Child::Traced => traced_child(workload, &ctx, false),
        Child::Probed => traced_child(workload, &ctx, true),
    }
}

/// A traced rep: the workload with spans on. A probed one goes on to
/// the layer probes, the span file and the ranked self-time table.
fn traced_child(workload: Workload, ctx: &RepCtx, probed: bool) -> Result<(), String> {
    let mut t = Tracer::new(true);
    let mut layers = Layers::new();
    let root = t.enter("rep");
    let (rep, world) = workloads::run_rep(workload, ctx, &mut t, &mut layers)?;
    t.exit(root);
    print_rep(&rep);
    if !probed {
        return Ok(());
    }

    layers.insert("proc.cpu_s", rep.measured.cpu_s);
    layers.insert("proc.minor_faults", rep.measured.minor_faults as f64);
    layers.insert(
        "proc.alloc_kb_per_unit",
        rep.measured.alloc_bytes as f64 / 1024.0 / rep.units.max(1) as f64,
    );
    let probes = t.enter("probes");
    match world {
        Some(world) => {
            probes::world_probes(&world, ctx.threads, &mut t, &mut layers);
            if workload == Workload::ServeSweep {
                probes::serve_phase_probes(
                    &world,
                    ctx.seed,
                    rep.measured.secs,
                    &mut t,
                    &mut layers,
                );
            }
            drop(world);
            probes::world_drop_leak(
                ctx.seed,
                workload.world_size(),
                ctx.threads,
                &mut t,
                &mut layers,
            );
        }
        None => probes::store_probes(&ctx.dir.join("store"), &mut t, &mut layers)?,
    }
    t.exit(probes);

    for (name, value) in &layers {
        println!("layer.{name} {value}");
    }
    let spans_path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
    std::fs::write(&spans_path, trace::spans_json(t.spans()))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    eprintln!("{}", self_time_table(workload, &t, root));
    Ok(())
}

/// The self-time breakdown of the traced rep (stderr, and the README's
/// tables): the rep's sections, then the calls under `measured` ranked
/// by self time.
fn self_time_table(workload: Workload, t: &Tracer, root: usize) -> String {
    use std::fmt::Write;
    let secs = |s: &trace::Span| (s.end_ns - s.start_ns) as f64 / 1e9;
    let mut out = format!("traced {} rep:", workload.name());
    for s in t.spans().iter().filter(|s| s.parent == Some(root)) {
        let _ = write!(out, "  {} {:.4} s", s.name, secs(s));
    }
    out.push('\n');
    let Some(measured) = t.spans().iter().find(|s| s.parent == Some(root) && s.name == "measured")
    else {
        return out;
    };
    let total = secs(measured);
    for (name, self_s, calls) in trace::ranked_self_time(t.spans(), measured.id) {
        if self_s >= total * 0.001 {
            let _ = writeln!(
                out,
                "  {:>5.1} %  {self_s:>8.4} s  {calls:>4} x  {name}",
                100.0 * self_s / total
            );
        }
    }
    out
}

// --------------------------------------------------------------- parent

/// The `n`-th seed a run may give a world: the run's own seed, then
/// golden-ratio steps from it (the splitmix64 sequence; the program
/// hashes a seed before it draws from it).
fn candidate_seed(seed: u64, n: usize) -> u64 {
    seed.wrapping_add((n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The seed of a run's `world`-th world: candidate `world`, or, where
/// the workload screens its worlds, the first of candidates `world`,
/// `world + WORLDS`, `world + 2 WORLDS`, ... that a census child says
/// passes the screen.
fn pick_world_seed(
    workload: Workload,
    args: &Args,
    world: usize,
    dir: &Path,
) -> Result<u64, String> {
    for round in 0..MAX_CANDIDATES {
        let seed = candidate_seed(args.seed, world + round * WORLDS);
        if workload.world_screen().is_none()
            || spawn(Child::Census, workload, args, world, seed, dir)?.num("typical")? == 1.0
        {
            return Ok(seed);
        }
    }
    Err(format!("none of {MAX_CANDIDATES} candidate worlds passed the workload's screen"))
}

/// One rep as the parent sees it.
struct Sample {
    kind: Child,
    /// Which of the run's worlds it ran on, and that world's seed.
    world: usize,
    seed: u64,
    fields: BTreeMap<String, String>,
    /// Spawn to exit, as the parent timed it.
    rep_s: f64,
}

impl Sample {
    fn num(&self, key: &str) -> Result<f64, String> {
        self.fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("child did not report a numeric \"{key}\""))
    }

    /// The fields that must be the same in every rep on one world.
    fn exact(&self) -> Vec<(&str, &str)> {
        self.fields
            .iter()
            .filter(|(k, _)| {
                ["digest", "units", "program_failures"].contains(&k.as_str())
                    || k.starts_with("exact.")
            })
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }
}

/// Re-execute this binary as one child, on the run's `world`-th
/// world, and wait for it.
fn spawn(
    kind: Child,
    workload: Workload,
    args: &Args,
    world: usize,
    seed: u64,
    dir: &Path,
) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let output = Command::new(exe)
        .args(["--child", kind.name(), "--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--threads", &args.threads.to_string()])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let rep_s = start.elapsed().as_secs_f64();
    // Whatever the child left of its rep directory goes before the next
    // child starts: every rep writes into a fresh one.
    let _ = std::fs::remove_dir_all(dir.join("rep"));
    if !output.status.success() {
        return Err(format!("{} child exited with {}", kind.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let fields = stdout
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(Sample { kind, world, seed, fields, rep_s })
}

/// What one run collected.
struct Run {
    /// The seeds of the worlds visited so far, in world order.
    world_seeds: Vec<u64>,
    samples: Vec<Sample>,
    /// Calibration kernel times: one before the first rep and one
    /// after every rep, each in a fresh process of its own.
    calib_s: Vec<f64>,
    attempted: usize,
    errors: Vec<String>,
    seed_scan_s: Option<f64>,
    elapsed_s: f64,
}

impl Run {
    fn failed(&self) -> usize {
        self.attempted - self.samples.len()
    }

    fn of(&self, kind: Child) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.kind == kind)
    }

    /// One reported field of every untraced rep.
    fn column(&self, key: &str) -> Result<Vec<f64>, String> {
        self.of(Child::Rep).map(|s| s.num(key)).collect()
    }

    /// The first untraced rep on each world, in world order: what the
    /// counts that repeat exactly are taken from.
    fn worlds(&self) -> Vec<&Sample> {
        (0..WORLDS).filter_map(|w| self.of(Child::Rep).find(|s| s.world == w)).collect()
    }

    /// One reported count, summed over the run's worlds.
    fn total(&self, key: &str) -> Result<f64, String> {
        self.worlds().into_iter().map(|s| s.num(key)).sum()
    }

    /// Everything that must repeat exactly in another run of the same
    /// code and seed: the exact fields of each world, in world order.
    fn exact(&self) -> Vec<Vec<(&str, &str)>> {
        self.worlds().into_iter().map(Sample::exact).collect()
    }

    /// `exact()` in one line: an FNV-1a-64 over all of it, and totals.
    fn exact_summary(&self) -> Result<String, String> {
        let mut h = stats::Fnv::new();
        for (key, value) in self.exact().into_iter().flatten() {
            h.write(key.as_bytes());
            h.write(value.as_bytes());
        }
        Ok(format!(
            "{} worlds, digest {:016x}, units {}, program failures {}",
            self.worlds().len(),
            h.0,
            self.total("units")?,
            self.total("program_failures")?
        ))
    }

    /// What the run's times are multiplied by: the calibration
    /// kernel's reference time over its `lowq` in this run.
    fn calib_scale(&self) -> f64 {
        calib::CALIB_REF_S / stats::lowq(&self.calib_s)
    }
}

/// A scratch directory for one run, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: Workload, seed: u64) -> Result<RunDir, String> {
        let dir = Path::new(OUT_DIR).join("tmp").join(format!(
            "{}-{seed}-{}",
            workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spawn reps, one at a time and of each of `kinds` in turn, until
/// `budget_s` is used (a rep that would overrun it is not started) and
/// at least `min_reps` have succeeded. The calibration kernel runs, in
/// a process of its own, before the first rep and after every rep. A
/// rep fails if its child exits non-zero (a failed structural check
/// does that) or if anything that must repeat exactly — digest, unit
/// count, the program's own failure count — differs from an earlier
/// rep's on the same world.
fn run_reps(
    workload: Workload,
    args: &Args,
    dir: &Path,
    budget_s: f64,
    min_reps: usize,
    kinds: &[Child],
) -> Result<Run, String> {
    let start = Instant::now();
    let mut run = Run {
        world_seeds: Vec::new(),
        samples: Vec::new(),
        calib_s: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
        seed_scan_s: None,
        elapsed_s: 0.0,
    };
    if workload == Workload::AnalyzeStore {
        let scan = spawn(Child::SeedScan, workload, args, 0, args.seed, dir)?;
        run.seed_scan_s = Some(scan.num("seed_scan_s")?);
    }
    let calibrate = || spawn(Child::Calib, workload, args, 0, args.seed, dir)?.num("calib_s");
    run.calib_s.push(calibrate()?);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean_rep = elapsed / run.attempted.max(1) as f64;
        if run.samples.len() >= min_reps && elapsed + mean_rep > budget_s {
            break;
        }
        // Every kind takes its turn on a world before the next world.
        let kind = kinds[run.attempted % kinds.len()];
        let world = run.attempted / kinds.len() % WORLDS;
        if world == run.world_seeds.len() {
            run.world_seeds.push(pick_world_seed(workload, args, world, dir)?);
        }
        run.attempted += 1;
        let outcome =
            spawn(kind, workload, args, world, run.world_seeds[world], dir).and_then(|sample| {
                match run.samples.iter().find(|s| s.world == world) {
                    Some(earlier) if earlier.exact() != sample.exact() => Err(format!(
                        "rep {} differs from an earlier rep on world {world}: {:?} vs {:?}",
                        run.attempted,
                        sample.exact(),
                        earlier.exact()
                    )),
                    _ => Ok(sample),
                }
            });
        match outcome {
            Ok(sample) => run.samples.push(sample),
            Err(e) => {
                eprintln!("benchmark: {e}");
                run.errors.push(e);
                if run.failed() >= MAX_FAILED_REPS {
                    return Err(format!("{} reps failed, giving up", run.failed()));
                }
            }
        }
        run.calib_s.push(calibrate()?);
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    Ok(run)
}

/// The five end-to-end metrics of a run, in `END_TO_END` order.
/// Times are `lowq` over all reps, calibrated; memory is the median
/// rep's; the counts are summed over the worlds (`units_per_s` takes
/// the mean world's units).
fn end_to_end(run: &Run) -> Result<[f64; 5], String> {
    let units = run.total("units")?;
    let scale = run.calib_scale();
    let wall_s = stats::lowq(&run.column("wall_s")?) * scale;
    Ok([
        stats::lowq(&run.column("setup_s")?) * scale,
        wall_s,
        units / run.worlds().len() as f64 / wall_s,
        stats::median(&run.column("peak_rss_kb")?) / 1024.0,
        run.total("allocs")? / units,
    ])
}

/// The `metrics` object of a result line.
fn metrics_json(names: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Json {
    Json::O(
        names
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::F(value)), ("unit", Json::S(unit.to_string()))]),
                )
            })
            .collect(),
    )
}

/// Estimator values and raw samples of one timing column.
fn column_json(samples: &[f64]) -> Json {
    Json::obj([
        ("n", Json::U(samples.len() as u64)),
        ("lowq", Json::F(stats::lowq(samples))),
        ("min", Json::F(stats::quantile(samples, 0.0))),
        ("median", Json::F(stats::median(samples))),
        ("p90", Json::F(stats::quantile(samples, 0.9))),
        ("samples", Json::floats(samples)),
    ])
}

/// Append one line to the run's ledger file.
fn write_ledger(workload: Workload, seed: u64, line: Json) -> Result<(), String> {
    use std::io::Write;
    let dir = Path::new(OUT_DIR).join("ledger");
    let path = dir.join(format!("{}-{seed}.jsonl", workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(&path))
        .and_then(|mut f| writeln!(f, "{}", line.render()))
        .map_err(|e| format!("ledger {}: {e}", path.display()))
}

fn ledger_line(
    workload: Workload,
    args: &Args,
    host: Json,
    run: &Run,
    extra: Vec<(String, Json)>,
) -> Result<Json, String> {
    let exact = run.worlds().into_iter().map(|sample| {
        let mut fields = vec![
            ("world".to_string(), Json::U(sample.world as u64)),
            ("seed".to_string(), Json::U(sample.seed)),
        ];
        fields.extend(
            sample.exact().into_iter().map(|(k, v)| (k.to_string(), Json::S(v.to_string()))),
        );
        Json::O(fields)
    });
    let mut fields = vec![
        ("workload".to_string(), Json::S(workload.name().to_string())),
        ("seed".to_string(), Json::U(args.seed)),
        ("seconds".to_string(), Json::U(args.seconds)),
        ("threads".to_string(), Json::U(args.threads as u64)),
        ("traced".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), host),
        ("elapsed_s".to_string(), Json::F(run.elapsed_s)),
        ("reps".to_string(), Json::U(run.of(Child::Rep).count() as u64)),
        ("ops_attempted".to_string(), Json::U(run.attempted as u64)),
        ("ops_failed".to_string(), Json::U(run.failed() as u64)),
        ("errors".to_string(), Json::A(run.errors.iter().map(|e| Json::S(e.clone())).collect())),
        ("exact".to_string(), Json::A(exact.collect())),
    ];
    if let Some(s) = run.seed_scan_s {
        fields.push(("seed_scan_s".to_string(), Json::F(s)));
    }
    // Everything below is raw, as measured: the calibration can be
    // second-guessed from `wall_s`, `setup_s` and `calib_s`.
    fields.push(("calib_scale".to_string(), Json::F(run.calib_scale())));
    fields.push(("calib_s".to_string(), column_json(&run.calib_s)));
    for key in [
        "setup_s",
        "wall_s",
        "rep_s",
        "allocs",
        "alloc_bytes",
        "peak_rss_kb",
        "cpu_s",
        "minor_faults",
    ] {
        let column = match key {
            "rep_s" => run.of(Child::Rep).map(|s| s.rep_s).collect(),
            _ => run.column(key)?,
        };
        fields.push((key.to_string(), column_json(&column)));
    }
    fields.extend(extra);
    Ok(Json::O(fields))
}

/// The result line the driver reads: the last line of stdout.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U(attempted.max(1) as u64)),
        ("failed", Json::U(failed as u64)),
        ("metrics", metrics),
    ])
    .render()
}

fn end_to_end_json(values: [f64; 5]) -> Json {
    metrics_json(END_TO_END.iter().zip(values).map(|(&(n, u, _, _), v)| (n, u, v)))
}

/// An untraced run: the end-to-end metrics.
fn untraced_run(workload: Workload, args: &Args) -> Result<(Run, [f64; 5]), String> {
    let host = host::shape();
    let dir = RunDir::create(workload, args.seed)?;
    let run = run_reps(workload, args, &dir.0, args.seconds as f64, MIN_REPS, &[Child::Rep])?;
    let values = end_to_end(&run)?;
    let extra = vec![("metrics".to_string(), end_to_end_json(values))];
    write_ledger(workload, args.seed, ledger_line(workload, args, host, &run, extra)?)?;
    Ok((run, values))
}

/// What a traced run found.
struct Traced {
    layers: BTreeMap<String, f64>,
    /// Quartiles of the traced/untraced ratio less one, pair by pair.
    overhead_quartiles: [f64; 2],
    attempted: usize,
    failed: usize,
}

/// A traced run. For half the time untraced and traced reps take
/// turns on the same worlds, so that both kinds see the same work and
/// the same stretch of the host: `trace.overhead_share` compares their
/// `lowq`s, and every traced rep must reproduce the untraced digest of
/// its world. Then one probed child records the spans and the layer
/// metrics.
fn traced_run(workload: Workload, args: &Args) -> Result<Traced, String> {
    let host = host::shape();
    let dir = RunDir::create(workload, args.seed)?;
    let run = run_reps(
        workload,
        args,
        &dir.0,
        args.seconds as f64 / 2.0,
        2 * MIN_TRACED_REPS,
        &[Child::Rep, Child::Traced],
    )?;
    let probed = spawn(Child::Probed, workload, args, 0, run.world_seeds[0], &dir.0)?;
    // Raw against raw: both kinds share the run's calibration scale.
    let untraced_wall_s = run.column("wall_s")?;
    let traced_wall_s: Vec<f64> =
        run.of(Child::Traced).map(|s| s.num("wall_s")).collect::<Result<_, _>>()?;
    let overhead = stats::lowq(&traced_wall_s) / stats::lowq(&untraced_wall_s) - 1.0;
    // What that number can resolve: the quartiles of the same ratio
    // taken pair by pair (a traced rep and the untraced rep before it,
    // on one world). Quartiles on both sides of 0 mean "unresolved".
    let paired: Vec<f64> =
        traced_wall_s.iter().zip(&untraced_wall_s).map(|(t, u)| t / u - 1.0).collect();
    let quartiles = [stats::quantile(&paired, 0.25), stats::quantile(&paired, 0.75)];
    eprintln!(
        "trace.overhead_share {overhead:+.4} (lowq of {} traced reps over lowq of {} untraced; \
         pair by pair the quartiles are {:+.4} and {:+.4})",
        traced_wall_s.len(),
        untraced_wall_s.len(),
        quartiles[0],
        quartiles[1]
    );
    let mut layers: BTreeMap<String, f64> = probed
        .fields
        .iter()
        .filter_map(|(k, v)| Some((k.strip_prefix("layer.")?.to_string(), v.parse().ok()?)))
        .collect();
    layers.insert("trace.overhead_share".to_string(), overhead);
    let digest_matches = run.exact().first() == Some(&probed.exact());
    if !digest_matches {
        eprintln!(
            "benchmark: probed rep differs from the other reps on its world: {:?} vs {:?}",
            probed.exact(),
            run.exact().first()
        );
    }
    let extra = vec![
        ("traced_wall_s".to_string(), column_json(&traced_wall_s)),
        ("overhead_paired_quartiles".to_string(), Json::floats(&quartiles)),
        ("probed_digest_matches".to_string(), Json::Bool(digest_matches)),
        (
            "layers".to_string(),
            Json::O(layers.iter().map(|(k, v)| (k.clone(), Json::F(*v))).collect()),
        ),
    ];
    write_ledger(workload, args.seed, ledger_line(workload, args, host, &run, extra)?)?;
    Ok(Traced {
        layers,
        overhead_quartiles: quartiles,
        attempted: run.attempted + 1,
        failed: run.failed() + usize::from(!digest_matches),
    })
}

fn parent_main(args: &Args) -> Result<(), String> {
    let workload = args.workload.expect("parse() requires a workload");
    if args.trace {
        let traced = traced_run(workload, args)?;
        let metrics = metrics_json(
            PER_LAYER.iter().map(|&(n, u)| (n, u, traced.layers.get(n).copied().unwrap_or(0.0))),
        );
        println!("{}", result_line(traced.failed == 0, traced.attempted, traced.failed, metrics));
    } else {
        let (run, values) = untraced_run(workload, args)?;
        let metrics = end_to_end_json(values);
        println!("{}", result_line(run.failed() == 0, run.attempted, run.failed(), metrics));
    }
    Ok(())
}

// ------------------------------------------------------------ selfcheck

/// How far two values of one metric are apart, as a share of the
/// smaller — direction-free, so it bounds the regression a comparison
/// would see whichever run came first.
fn relative_difference(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().min(b.abs())
}

/// Run every workload twice (same binary, same seed) and once traced;
/// fail if any end-to-end metric differs between the two runs by more
/// than its bound, if anything exact differs, if a run reduced fewer
/// than `MIN_REPS` reps or had a failed one, or if the traced rep's
/// output differs from the untraced reps'.
fn selfcheck(args: &Args) -> Result<(), String> {
    let mut problems = Vec::new();
    println!("selfcheck seed {} seconds {} ({})", args.seed, args.seconds, host::shape().render());
    for workload in Workload::ALL {
        let (a, va) = untraced_run(workload, args)?;
        let (b, vb) = untraced_run(workload, args)?;
        println!(
            "{}: reps {} + {}, failed {} + {}",
            workload.name(),
            a.samples.len(),
            b.samples.len(),
            a.failed(),
            b.failed()
        );
        for run in [&a, &b] {
            if run.samples.len() < MIN_REPS || run.failed() > 0 {
                problems.push(format!(
                    "{}: {} reps, {} failed",
                    workload.name(),
                    run.samples.len(),
                    run.failed()
                ));
            }
        }
        for (i, (name, unit, _, bound)) in END_TO_END.into_iter().enumerate() {
            let diff = relative_difference(va[i], vb[i]);
            let verdict = if diff <= bound { "ok" } else { "OUT OF BOUND" };
            println!(
                "  {name:<16} {:>14.6} {:>14.6} {unit:<6} diff {:>6.2} %  bound {:>4.1} %  {verdict}",
                va[i], vb[i], 100.0 * diff, 100.0 * bound
            );
            if diff > bound {
                problems.push(format!(
                    "{}: {name} differs by {:.2} %",
                    workload.name(),
                    100.0 * diff
                ));
            }
        }
        let exact = a.exact() == b.exact();
        println!(
            "  exact (digests, counts): {} {}",
            a.exact_summary()?,
            if exact { "identical" } else { "DIFFER" }
        );
        if !exact {
            problems
                .push(format!("{}: digests or exact counts differ between runs", workload.name()));
        }
        let traced = traced_run(workload, &Args { trace: true, ..args.clone() })?;
        println!(
            "  traced: digests {}  trace.overhead_share {:+.4} (pair by pair, quartiles {:+.4} and {:+.4})",
            if traced.failed == 0 { "identical" } else { "DIFFER" },
            traced.layers["trace.overhead_share"],
            traced.overhead_quartiles[0],
            traced.overhead_quartiles[1]
        );
        if traced.failed > 0 {
            problems.push(format!(
                "{}: traced run had {} failed operations",
                workload.name(),
                traced.failed
            ));
        }
    }
    if problems.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        println!("selfcheck FAILED:\n  {}", problems.join("\n  "));
        Err("selfcheck failed".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary prints.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        let mut count = 0;
        for name in names {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "BENCHMARK.json lacks {name}");
            count += 1;
        }
        assert_eq!(text.matches("\"name\":").count(), count);
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
                "{name} unit"
            );
        }
        assert!(text.contains(&format!("\"run_seconds\": {}", args::DEFAULT_SECONDS)));
    }

    /// The first candidate is the run's own seed, and runs on
    /// neighbouring seeds (the driver's 1, 2, 3, ...) share no world,
    /// however many candidates their screens turn down.
    #[test]
    fn candidate_seeds_start_at_the_seed_and_do_not_collide() {
        assert_eq!(candidate_seed(7, 0), 7);
        let n = WORLDS * MAX_CANDIDATES;
        let all: std::collections::BTreeSet<u64> =
            (1..=20).flat_map(|seed| (0..n).map(move |i| candidate_seed(seed, i))).collect();
        assert_eq!(all.len(), 20 * n);
    }

    #[test]
    fn relative_difference_is_symmetric() {
        assert_eq!(relative_difference(1.0, 1.1), relative_difference(1.1, 1.0));
        assert!((relative_difference(2.0, 2.2) - 0.1).abs() < 1e-12);
    }
}
