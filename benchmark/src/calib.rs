//! The calibration kernel: a fixed piece of benchmark-owned work run
//! before the first rep and after every rep (in a fresh process of its
//! own, so it adds nothing to a rep's memory). A run's times are
//! reported as `lowq(reps) x CALIB_REF_S / lowq(kernel)`.
//!
//! The issue that specified this benchmark ruled calibration out, on
//! the strength of a 70 ms arithmetic loop that did not help. That is
//! reproducible, and it is the wrong kernel. This host is a 2-vCPU
//! guest; for half a minute to a minute at a stretch everything that
//! allocates, hashes and chases pointers runs 10-40 % slower while a
//! dependent arithmetic chain is steady to 2 %. A whole run can sit
//! inside one stretch, so no estimator over the run's own reps can see
//! it. A kernel with the program's instruction mix does. Measured on
//! 11-16 back-to-back runs of one seed per workload (README,
//! "Calibration"): the quartile spread of raw `lowq(wall_s)` was 6.2 /
//! 12.7 / 13.9 / 15.2 % of the median and its range 24-31 % — the
//! issue's own 10 % criterion fails — and of the calibrated value 3.3 /
//! 3.4 / 3.9 / 4.0 %, range 10 %.
//!
//! The kernel touches none of the program's code, so a change to the
//! program cannot move it. The ledger keeps every raw sample.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Time of the kernel on this host in its fast regime. Reported times
/// are `measured x CALIB_REF_S / kernel time`, so they read as seconds
/// on the host at its best; only ratios between runs on one host mean
/// anything.
pub const CALIB_REF_S: f64 = 0.017;

const ENTRIES: u32 = 30_000;

/// Run the kernel once (about 17 ms in a fresh process) and return its time in seconds.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut map: HashMap<String, Vec<u8>> = HashMap::new();
    for i in 0..ENTRIES {
        map.insert(format!("name{i}.example.com"), vec![0u8; 40 + (i % 64) as usize]);
    }
    let mut total = 0usize;
    for i in 0..ENTRIES {
        total += map.get(&format!("name{i}.example.com")).map_or(0, Vec::len);
    }
    black_box(total);
    drop(map);
    start.elapsed().as_secs_f64()
}
