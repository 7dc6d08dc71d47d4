//! `httpsrr-cli` — run the reproduction studies from the command line.
//!
//! ```text
//! httpsrr-cli study  [--population N] [--list N] [--stride D] [--seed S] [--csv PATH]
//! httpsrr-cli run    [--population N] [--list N] [--days D] [--threads T] [--seed S]
//!                    [--metrics PATH] [--csv PATH] [--store DIR]  # campaign (+ write-through)
//! httpsrr-cli resume --store DIR [--threads T]     # continue an interrupted --store campaign
//! httpsrr-cli serve  [--population N] [--list N] [--rates R,R,..] [--capacity C]
//! httpsrr-cli matrix
//! httpsrr-cli rotation [--hours H]
//! httpsrr-cli audit  [--day D]
//! httpsrr-cli zone   <apex> <zonefile>    # lint a zone file's HTTPS records
//! ```
//!
//! Speed is measured by `benchmark/` (see `BENCHMARK.json`), not here.

use httpsrr::analysis;
use httpsrr::ecosystem::{EcosystemConfig, World};
use httpsrr::scanner::{
    combined_csv, hourly_ech_scan, open_store, write_combined_csv, Campaign, StoreWriter,
    VantageRun,
};
use httpsrr::{client_side_report, server_side_report, Study};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let outcome = match command.as_str() {
        "study" => cmd_study(rest),
        "run" => cmd_run(rest),
        "resume" => cmd_resume(rest),
        "serve" => cmd_serve(rest),
        "matrix" => Flags::parse(rest, &[], &[]).map(|_| {
            println!("{}", client_side_report());
            ExitCode::SUCCESS
        }),
        "rotation" => cmd_rotation(rest),
        "audit" => cmd_audit(rest),
        "zone" => Ok(cmd_zone(rest)),
        other => Err(format!("unknown command {other:?}")),
    };
    outcome.unwrap_or_else(|usage_error| {
        eprintln!("{usage_error}\n{USAGE}");
        ExitCode::FAILURE
    })
}

const USAGE: &str = "usage:
  httpsrr-cli study  [--population N] [--list N] [--stride D] [--seed S] [--csv PATH]
  httpsrr-cli run    [--population N] [--list N] [--days D] [--threads T] [--seed S] [--metrics PATH] [--csv PATH] [--store DIR]
  httpsrr-cli resume --store DIR [--threads T] [--csv PATH]   # continue an interrupted --store campaign at the last day boundary
  httpsrr-cli serve  [--population N] [--list N] [--clients C] [--workers K] [--seed S] [--rates R,R,..] [--phase-ms MS] [--capacity C] [--metrics]
  httpsrr-cli matrix
  httpsrr-cli rotation [--hours H]
  httpsrr-cli audit  [--day D]
  httpsrr-cli zone   <apex> <zonefile>";

/// A command's result: the exit status it chose (having printed its own
/// diagnostics), or a usage error that `main` prints above [`USAGE`].
type Outcome = Result<ExitCode, String>;

/// One command's arguments, checked against the flags it accepts. A flag
/// the command does not take, a flag whose value is missing, and a value
/// that does not parse are errors naming the flag — never the default.
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// `valued` flags take the next argument; `switches` stand alone.
    fn parse(args: &'a [String], valued: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Flags { values: Vec::new(), switches: Vec::new() };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if switches.contains(&arg) {
                flags.switches.push(arg);
            } else if valued.contains(&arg) {
                match rest.next().filter(|value| !value.starts_with("--")) {
                    Some(value) => flags.values.push((arg, value)),
                    None => return Err(format!("flag {arg} needs a value")),
                }
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The flag's value when given (the first, when repeated).
    fn get(&self, name: &str) -> Option<&'a str> {
        self.values.iter().find(|(flag, _)| *flag == name).map(|(_, value)| *value)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(value) => value.parse().map_err(|_| format!("bad value {value:?} for {name}")),
        }
    }

    /// A count that must be at least 1: zero is an error naming the
    /// flag, never silently raised to 1.
    fn count<T: std::str::FromStr + PartialEq + From<u8>>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        let value = self.num(name, default)?;
        if value == T::from(0) {
            return Err(format!("{name} must be at least 1"));
        }
        Ok(value)
    }

    /// A comma-separated value (`--rates 2,4,8`); every item must parse.
    fn list<T: std::str::FromStr + Copy>(
        &self,
        name: &str,
        default: &[T],
    ) -> Result<Vec<T>, String> {
        let Some(value) = self.get(name) else {
            return Ok(default.to_vec());
        };
        value
            .split(',')
            .map(|item| item.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad value {value:?} for {name}"))
    }
}

/// `--population` and `--list`, given the command's defaults: the one
/// rule every command holds them to is `1 <= --list <= --population`.
fn world_size(flags: &Flags, population: usize, list: usize) -> Result<(usize, usize), String> {
    let population = flags.num("--population", population)?;
    let list = flags.num("--list", list)?;
    if list == 0 {
        return Err("--list must be at least 1".to_string());
    }
    if list > population {
        return Err("--list must not exceed --population".to_string());
    }
    Ok((population, list))
}

/// The world shape `study` and `run` share: `--population`, `--list`, `--seed`.
fn world_config(flags: &Flags) -> Result<EcosystemConfig, String> {
    let (population, list_size) = world_size(flags, 2_000, 1_400)?;
    Ok(EcosystemConfig {
        population,
        list_size,
        seed: flags.num("--seed", EcosystemConfig::default().seed)?,
        ..EcosystemConfig::default()
    })
}

fn cmd_study(args: &[String]) -> Outcome {
    let flags =
        Flags::parse(args, &["--population", "--list", "--seed", "--stride", "--csv"], &[])?;
    let config = world_config(&flags)?;
    let stride = flags.num("--stride", 14u64)?;
    eprintln!(
        "running study: {} domains, {}-entry list, every {} days (seed {:#x}) …",
        config.population, config.list_size, stride, config.seed
    );
    let study = Study::run(config, stride);
    println!("{}", server_side_report(&study));
    if let Some(path) = flags.get("--csv") {
        match std::fs::write(path, study.store.to_csv()) {
            Ok(()) => eprintln!("wrote {} observations to {path}", study.store.len()),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Run a multi-vantage campaign with telemetry attached and report the
/// cross-vantage diff (with per-vantage cache-hit rates); `--metrics`
/// dumps the full telemetry report — per-wave latency histograms,
/// deterministic counters (incl. the per-day hit-rate series), and
/// per-shard cache statistics for every vantage.
///
/// With `--store DIR` the campaign runs write-through instead: every
/// day's observations are flushed to the on-disk columnar store the
/// moment the day completes, the diff is then computed by *streaming
/// the store back from disk* (one day resident per vantage), and a
/// killed run can be continued with `resume --store DIR`.
fn cmd_run(args: &[String]) -> Outcome {
    let flags = Flags::parse(
        args,
        &[
            "--population",
            "--list",
            "--seed",
            "--days",
            "--threads",
            "--metrics",
            "--csv",
            "--store",
        ],
        &[],
    )?;
    let config = world_config(&flags)?;
    let days = flags.num("--days", 3u64)?.max(1);
    let threads = flags.num("--threads", 4usize)?.max(1);
    let metrics_path = flags.get("--metrics");
    let csv_path = flags.get("--csv");
    eprintln!(
        "running instrumented campaign: {} domains, {}-entry list, {} daily scans, 3 vantages …",
        config.population, config.list_size, days
    );
    let mut world = World::build(config);
    let campaign = Campaign {
        sample_days: (0..days).collect(),
        scan_www: true,
        threads,
        vantages: httpsrr::resolver::VantagePoint::presets(),
    };
    if let Some(dir) = flags.get("--store") {
        if metrics_path.is_some() {
            eprintln!(
                "--metrics is not available with --store (write-through runs are \
                       uninstrumented); rerun without --store for the telemetry report"
            );
            return Ok(ExitCode::FAILURE);
        }
        let dir = std::path::PathBuf::from(dir);
        let mut writer = match campaign.create_store(&world, &dir) {
            Ok(w) => w,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                eprintln!(
                    "store {} already exists — use `httpsrr-cli resume --store {}` to \
                     continue it",
                    dir.display(),
                    dir.display()
                );
                return Ok(ExitCode::FAILURE);
            }
            Err(e) => {
                eprintln!("cannot create store {}: {e}", dir.display());
                return Ok(ExitCode::FAILURE);
            }
        };
        if let Err(e) = campaign.run_to_store(&mut world, &mut writer) {
            eprintln!("write-through campaign failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "wrote {} bytes to {} ({} days × {} vantages)",
            writer.bytes_written(),
            dir.display(),
            writer.completed_days(),
            writer.meta().vantages.len()
        );
        drop(writer);
        return Ok(report_from_store(&dir, csv_path));
    }

    let runs = campaign.run_vantages_instrumented(&mut world);
    println!("{}", analysis::vantage_diff_runs(&runs));

    if let Some(path) = metrics_path {
        if let Err(e) = std::fs::write(path, metrics_report(&runs)) {
            eprintln!("failed to write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("wrote telemetry report to {path}");
    }
    if let Some(path) = csv_path {
        let stores: Vec<_> = runs.iter().map(|r| &r.store).collect();
        if let Err(e) = std::fs::write(path, combined_csv(stores)) {
            eprintln!("failed to write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("wrote combined per-vantage CSV to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The full telemetry report for an instrumented campaign: one section
/// per vantage (registry counters + histograms, then aggregate and
/// per-shard cache statistics, in `CacheStats`'s canonical rendering).
fn metrics_report(runs: &[VantageRun]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for run in runs {
        out.push_str(&run.metrics.render_text());
        let _ = writeln!(out, "cache aggregate {}", run.cache);
        for (i, shard) in run.shards.iter().enumerate() {
            let _ = writeln!(out, "cache shard{i:02} {shard}");
        }
        if let Some(rate) = run.resolution_hit_rate() {
            let _ = writeln!(out, "resolution from_cache_rate {rate:.4}");
        }
        out.push('\n');
    }
    out
}

/// Reopen a written store read-only and print the cross-vantage diff by
/// streaming it from disk — one reader thread per vantage feeding the
/// single-pass diff (byte-identical to the sequential scan); `--csv`
/// streams the combined CSV straight to the file without materializing
/// any store in memory.
fn report_from_store(dir: &std::path::Path, csv_path: Option<&str>) -> ExitCode {
    let store = match open_store(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot reopen store {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!("{}", analysis::vantage_diff_parallel(&store.sources()));
    if let Some(path) = csv_path {
        let result = std::fs::File::create(path)
            .and_then(|mut f| write_combined_csv(&store.sources(), &mut f));
        if let Err(e) = result {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("streamed combined per-vantage CSV to {path}");
    }
    ExitCode::SUCCESS
}

/// `resume` — reopen an interrupted `run --store` campaign and finish
/// it. The manifest carries everything needed (world seed/population/
/// list size, sample days, vantage names), so the command takes only
/// the directory. Days already on disk are deterministically replayed
/// and verified chunk-for-chunk; scanning appends from the first
/// missing day, making the final store byte-identical to an
/// uninterrupted run.
fn cmd_resume(args: &[String]) -> Outcome {
    use httpsrr::resolver::{SelectionStrategy, VantagePoint};

    let flags = Flags::parse(args, &["--store", "--threads", "--csv"], &[])?;
    let dir = flags.get("--store").ok_or("resume requires --store DIR")?;
    let threads = flags.num("--threads", 4usize)?.max(1);
    let dir = std::path::PathBuf::from(dir);
    let mut writer = match StoreWriter::open_resume(&dir) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot resume store {}: {e}", dir.display());
            return Ok(ExitCode::FAILURE);
        }
    };
    let meta = writer.meta().clone();

    // Rebuild the exact campaign the store was created with. Vantage
    // profiles are recovered by preset name; a store written through a
    // non-preset profile cannot be reconstructed from its name alone.
    let presets = VantagePoint::presets();
    let mut vantages = Vec::with_capacity(meta.vantages.len());
    for name in &meta.vantages {
        if name.is_empty() {
            // The default single-vantage campaign (empty vantage list).
            vantages.push(VantagePoint::custom("", SelectionStrategy::RoundRobin));
        } else if let Some(p) = presets.iter().find(|p| p.name == *name) {
            vantages.push(p.clone());
        } else {
            eprintln!(
                "store vantage {name:?} is not a known preset — this store was written \
                 through a custom profile and must be resumed via the library API"
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    let config = EcosystemConfig {
        population: meta.population as usize,
        list_size: meta.list_size as usize,
        seed: meta.world_seed,
        ..EcosystemConfig::default()
    };
    let campaign = Campaign {
        sample_days: meta.sample_days.clone(),
        scan_www: meta.scan_www,
        threads,
        vantages: if meta.vantages.iter().all(|n| n.is_empty()) { Vec::new() } else { vantages },
    };
    eprintln!(
        "resuming {}: {} of {} days complete ({} domains, {}-entry list, seed {:#x}) …",
        dir.display(),
        writer.completed_days(),
        meta.sample_days.len(),
        meta.population,
        meta.list_size,
        meta.world_seed
    );
    let mut world = World::build(config);
    match campaign.run_to_store(&mut world, &mut writer) {
        Ok(report) => eprintln!(
            "replayed {} vantage-days (verified against disk), appended {}",
            report.replayed_days, report.appended_days
        ),
        Err(e) => {
            eprintln!("resume failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    drop(writer);
    Ok(report_from_store(&dir, flags.get("--csv")))
}

/// `serve` — run one open-loop load sweep and print the canonical
/// report (plus the pinned metrics text with `--metrics`).
fn cmd_serve(args: &[String]) -> Outcome {
    use httpsrr::serve::{load_sweep, ServeConfig, WorkloadConfig};
    use httpsrr::telemetry::MetricsRegistry;

    let flags = Flags::parse(
        args,
        &[
            "--population",
            "--list",
            "--clients",
            "--workers",
            "--seed",
            "--phase-ms",
            "--capacity",
            "--rates",
        ],
        &["--metrics"],
    )?;
    let (population, list_size) = world_size(&flags, 100_000, 10_000)?;
    let clients = flags.count("--clients", 256usize)?;
    let workers = flags.count("--workers", 1usize)?;
    let seed = flags.num("--seed", WorkloadConfig::default().seed)?;
    let phase_ms = flags.count("--phase-ms", 1_000u64)?;
    let capacity = flags.num("--capacity", 4_096usize)?;
    let rates = flags.list("--rates", &[2.0, 4.0, 8.0, 16.0, 32.0])?;
    if !rates.iter().all(|rate: &f64| rate.is_finite() && *rate > 0.0) {
        return Err("--rates must each be finite and greater than 0".to_string());
    }

    let cfg = ServeConfig {
        workload: WorkloadConfig { clients, seed },
        workers,
        capacity_per_shard: if capacity == 0 { None } else { Some(capacity) },
        phase_ms,
        ..ServeConfig::default()
    };
    eprintln!("serve: building {population}-domain world (list {list_size}) …");
    let world = World::build(EcosystemConfig { population, list_size, ..EcosystemConfig::tiny() });
    let metrics = flags.has("--metrics").then(|| MetricsRegistry::new("serve"));
    let report = load_sweep(&world, &cfg, &rates, metrics.as_ref());
    print!("{}", report.canonical_text());
    if let Some(m) = &metrics {
        print!("{}", m.counters_text());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_rotation(args: &[String]) -> Outcome {
    let hours = Flags::parse(args, &["--hours"], &[])?.num("--hours", 7 * 24u64)?;
    let mut world = World::build(EcosystemConfig::tiny());
    world.step_to_day(74); // the paper's July scan window
    let obs = hourly_ech_scan(&mut world, hours, 20);
    println!("{}", analysis::fig4_rotation(&obs));
    Ok(ExitCode::SUCCESS)
}

fn cmd_audit(args: &[String]) -> Outcome {
    let day = Flags::parse(args, &["--day"], &[])?.num("--day", 239u64)?; // 2024-01-02
    let mut world = World::build(EcosystemConfig {
        population: 2_000,
        list_size: 1_400,
        ..EcosystemConfig::default()
    });
    world.step_to_day(day);
    let audit = analysis::tab9_chain_audit(&world);
    println!("{audit}");
    println!(
        "insecure: with HTTPS {:.1}% vs without {:.1}%",
        audit.insecure_pct_with_https(),
        audit.insecure_pct_without_https()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_zone(args: &[String]) -> ExitCode {
    let (Some(apex_arg), Some(path)) = (args.first(), args.get(1)) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let apex = match httpsrr::dns_wire::DnsName::parse(apex_arg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad apex {apex_arg:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let zone = match httpsrr::authserver::Zone::from_text(apex, &text) {
        Ok(z) => z,
        Err(e) => {
            eprintln!("zone parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut issues = 0usize;
    let mut https = 0usize;
    for rec in zone.iter() {
        if let httpsrr::dns_wire::RData::Https(rd) = &rec.rdata {
            https += 1;
            for issue in rd.lint() {
                issues += 1;
                println!("{}: {issue}", rec.name);
            }
        }
    }
    println!("{https} HTTPS record(s), {issues} issue(s)");
    if issues > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
