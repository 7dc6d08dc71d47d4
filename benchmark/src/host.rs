//! What the harness records about the machine and about its own
//! process, all read from `/proc`.

use crate::json::Json;
use crate::stats::Fnv;

/// Linux reports process CPU time in `USER_HZ` ticks, fixed at 100.
const TICKS_PER_S: f64 = 100.0;

fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM")
}

/// Current resident set of this process (`VmRSS`), in kB.
pub fn rss_kb() -> u64 {
    proc_status_kb("VmRSS")
}

/// `(CPU seconds, minor page faults)` of this process so far, all
/// threads, from `/proc/self/stat`.
pub fn cpu_and_faults() -> (f64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis. After it: state is field 3.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let (minflt, utime, stime) = (field(10), field(14), field(15));
    ((utime + stime) as f64 / TICKS_PER_S, minflt)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Host shape for the ledger: `nproc`, CPU model, load average at
/// start, and the FNV-1a-64 of the running executable (so two ledger
/// lines can be told to come from the same build).
pub fn shape() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim()))
        .unwrap_or("unknown")
        .to_string();
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default().trim().to_string();
    let exe_hash = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| {
            let mut h = Fnv::new();
            h.write(&bytes);
            format!("{:016x}", h.0)
        })
        .unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        ("nproc", Json::U(nproc() as u64)),
        ("cpu_model", Json::S(model)),
        ("loadavg", Json::S(loadavg)),
        ("exe_fnv1a64", Json::S(exe_hash)),
    ])
}
