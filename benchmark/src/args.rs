//! Command line of the harness. Strict: an unknown flag, a missing
//! value or an unparseable number is an error, never a default.

use crate::workloads::Workload;
use std::path::PathBuf;

/// The seed used when `--seed` is not given, and the one held out: no
/// size, bound or estimator in this benchmark was chosen by looking at
/// runs on the held-out seed; it is for confirming a claim made on the
/// default one.
pub const DEFAULT_SEED: u64 = 0xD0_5EED;
pub const HELD_OUT_SEED: u64 = 0x5EED_2024;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 30;

/// What a re-executed child process is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// One untraced rep.
    Rep,
    /// One traced rep: the same work with spans recorded.
    Traced,
    /// One traced rep, then the layer probes and the span file.
    Probed,
    /// The once-per-run seed scan of `analyze_store`.
    SeedScan,
    /// One pass of the calibration kernel.
    Calib,
    /// Build the seed's world and say whether the workload's screen
    /// lets it through.
    Census,
}

impl Child {
    pub fn name(self) -> &'static str {
        match self {
            Child::Rep => "rep",
            Child::Traced => "traced",
            Child::Probed => "probed",
            Child::SeedScan => "seed-scan",
            Child::Calib => "calib",
            Child::Census => "census",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    pub selfcheck: bool,
    pub child: Option<Child>,
    pub dir: Option<PathBuf>,
}

pub fn usage() -> String {
    format!(
        "usage: benchmark --workload <scan_daily|study_strided|analyze_store|serve_sweep> \
         [--seed N] [--seconds N] [--trace 0|1] [--threads N]\n       \
         benchmark --selfcheck [--seed N] [--seconds N]\n\
         seeds: default {DEFAULT_SEED:#x}, held out {HELD_OUT_SEED:#x}; default seconds {DEFAULT_SECONDS}"
    )
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value.strip_prefix("0x") {
        // Seeds are conventionally written in hex in this repository.
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag}: cannot read \"{value}\" as a whole number"))
}

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        threads: 1,
        selfcheck: false,
        child: None,
        dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--selfcheck" => args.selfcheck = true,
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload \"{name}\""))?,
                )
            }
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => args.seconds = number(flag, value()?)?,
            "--threads" => {
                let n = value()?;
                args.threads = usize::try_from(number(flag, n)?)
                    .map_err(|_| format!("--threads: \"{n}\" is out of range"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not \"{other}\"")),
                }
            }
            "--child" => {
                let kind = value()?;
                args.child = Some(
                    [
                        Child::Rep,
                        Child::Traced,
                        Child::Probed,
                        Child::SeedScan,
                        Child::Calib,
                        Child::Census,
                    ]
                    .into_iter()
                    .find(|c| c.name() == kind)
                    .ok_or_else(|| format!("unknown child kind \"{kind}\""))?,
                )
            }
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument \"{flag}\"")),
        }
    }
    if args.seconds == 0 || args.threads == 0 {
        return Err("--seconds and --threads must be at least 1".to_string());
    }
    let nproc = crate::host::nproc();
    if args.threads > nproc {
        return Err(format!("--threads {} exceeds the {nproc} CPUs of this host", args.threads));
    }
    if args.selfcheck == args.workload.is_some() {
        return Err("give exactly one of --workload and --selfcheck".to_string());
    }
    if args.child.is_some() != args.dir.is_some() {
        return Err("--child and --dir go together".to_string());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv("--workload serve_sweep --seed 7 --seconds 9 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::ServeSweep));
        assert_eq!((a.seed, a.seconds, a.trace, a.threads), (7, 9, true, 1));
        let d = parse(&argv("--workload scan_daily")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, DEFAULT_SECONDS, false));
        assert_eq!(parse(&argv("--selfcheck --seed 0x10")).unwrap().seed, 16);
    }

    #[test]
    fn rejects_instead_of_defaulting() {
        for bad in [
            "--workload scan_daily --sed 7",
            "--workload scan_daily --seed seven",
            "--workload scan_daily --seed 7.5",
            "--workload scan_daily --seed -1",
            "--workload scan_daily --seconds",
            "--workload scan_daily --seconds 0",
            "--workload scan_daily --trace yes",
            "--workload scan",
            "--workload scan_daily --threads 100000",
            "--workload scan_daily extra",
            "--workload scan_daily --selfcheck",
            "--workload scan_daily --child rep",
            "--seed 7",
            "",
        ] {
            assert!(parse(&argv(bad)).is_err(), "accepted: {bad:?}");
        }
    }
}
