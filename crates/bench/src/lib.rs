//! Shared setup for the regeneration harness.
//!
//! Every bench binary regenerates its paper tables/figures or ablation
//! by printing them at startup, so the `cargo bench` output is the
//! experiment log; the criterion samples after them time the stage that
//! produced each table. Speed is measured by `benchmark/` at the
//! repository root, not here.

use httpsrr::ecosystem::EcosystemConfig;
use httpsrr::Study;
use std::sync::OnceLock;

/// The benchmark world size. `HTTPSRR_BENCH_SCALE=full` runs the default
/// (6 k domain) configuration; anything else runs a 2 k-domain world so
/// `cargo bench` completes quickly.
pub fn bench_config() -> EcosystemConfig {
    if std::env::var("HTTPSRR_BENCH_SCALE").as_deref() == Ok("full") {
        EcosystemConfig::default()
    } else {
        EcosystemConfig {
            population: 2_000,
            list_size: 1_400,
            toggling_domains: 14,
            migrating_domains: 5,
            mixed_ns_domains: 5,
            undelegated_domains: 2,
            permanent_mismatch_domains: 3,
            ..EcosystemConfig::default()
        }
    }
}

/// The shared longitudinal study used by the server-side benches
/// (built once per bench binary).
pub fn bench_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        eprintln!("[bench setup] running longitudinal campaign …");
        Study::run(bench_config(), 14)
    })
}
