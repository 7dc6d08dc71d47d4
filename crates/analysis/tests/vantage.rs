//! End-to-end acceptance test for the multi-vantage subsystem: a
//! campaign over three distinct resolver profiles (pinned, rotating,
//! randomized) must reproduce the paper's §4.2.3 resolver-view
//! comparison — at least one cross-vantage disagreement, confined to
//! mixed-provider NS zones — and the whole pipeline must be
//! thread-count-invariant.

use analysis::vantage_diff;
use ecosystem::{EcosystemConfig, World};
use resolver::VantagePoint;
use scanner::{combined_csv, Campaign};

fn campaign() -> Campaign {
    Campaign {
        sample_days: vec![0, 2, 4, 6, 8],
        scan_www: true,
        threads: 2,
        vantages: VantagePoint::presets(),
    }
}

#[test]
fn vantage_diff_reports_mixed_ns_disagreements() {
    let mut world = World::build(EcosystemConfig::tiny());
    let stores = campaign().run_vantages(&mut world);
    assert_eq!(stores.len(), 3);
    assert_eq!(
        stores.iter().map(|s| s.vantage().to_string()).collect::<Vec<_>>(),
        vec!["google", "cloudflare", "isp"]
    );

    let report = vantage_diff(&stores);
    assert_eq!(report.days, vec![0, 2, 4, 6, 8]);
    assert!(
        !report.disagreements.is_empty(),
        "three selection strategies over mixed-NS zones must disagree somewhere"
    );

    // Every disagreement must be explained by a mixed-provider NS set:
    // zones served identically by every endpoint cannot depend on the
    // selection strategy.
    for d in &report.disagreements {
        let domain = world.domain(d.domain_id);
        assert!(
            domain.secondary_provider.is_some(),
            "disagreement on {} (day {}) which has a single-provider NS set",
            domain.apex,
            d.day
        );
        // Some view saw the record and some did not.
        let every_view = (1u64 << report.vantages.len()) - 1;
        assert!(d.present != 0 && d.present != every_view);
    }

    // The report totals line up.
    let total: usize = report.per_day.values().sum();
    assert_eq!(total, report.disagreements.len());

    // Rendered report mentions each view.
    let text = report.to_string();
    for v in ["google", "cloudflare", "isp"] {
        assert!(text.contains(v), "report must mention vantage {v}");
    }
}

#[test]
fn vantage_pipeline_is_thread_count_invariant_end_to_end() {
    // The acceptance criterion: byte-identical per-vantage stores (and
    // therefore identical diff reports) across threads {1, 4}, with a
    // Random-strategy vantage in the matrix.
    let run = |threads: usize| -> (String, String) {
        let mut world = World::build(EcosystemConfig::tiny());
        let c = Campaign { threads, ..campaign() };
        let stores = c.run_vantages(&mut world);
        (combined_csv(&stores), vantage_diff(&stores).to_string())
    };
    let (csv1, report1) = run(1);
    let (csv4, report4) = run(4);
    assert_eq!(csv1, csv4, "combined per-vantage CSV diverged between threads=1 and threads=4");
    assert_eq!(report1, report4);
}

#[test]
fn pinned_vantage_is_stable_where_rotating_vantages_flap() {
    let mut world = World::build(EcosystemConfig::tiny());
    let stores = campaign().run_vantages(&mut world);
    let report = vantage_diff(&stores);

    // The First-pinned profile (cloudflare preset) always asks the same
    // endpoint, so its view of a mixed zone never flaps; rotating and
    // random views carry all the flapping the diff surfaces.
    let by_name: std::collections::HashMap<&str, f64> =
        report.summaries.iter().map(|s| (s.vantage.as_str(), s.flapping_rate)).collect();
    let pinned = by_name["cloudflare"];
    let rotating = by_name["google"];
    let random = by_name["isp"];
    assert!(
        rotating >= pinned && random >= pinned,
        "pinned view should flap no more than rotating ({pinned} vs {rotating}/{random})"
    );
    assert!(rotating > 0.0 || random > 0.0, "rotating/random views must flap on mixed-NS zones");
}

#[test]
fn instrumented_diff_carries_per_vantage_hit_rates() {
    // The telemetry-sourced column: diffing VantageRuns fills
    // cache_hit_rate per vantage, and the presets separate exactly as
    // their profiles predict at daily cadence — validating vantages
    // (google, cloudflare) re-serve DNSSEC material from their caches,
    // while the non-validating isp profile barely revisits cached keys
    // (in-day queries are deduped and the intra-day clock is frozen).
    let mut world = World::build(EcosystemConfig::tiny());
    let runs = campaign().run_vantages_instrumented(&mut world);
    let report = analysis::vantage_diff_runs(&runs);

    let by_name: std::collections::HashMap<&str, f64> = report
        .summaries
        .iter()
        .map(|s| (s.vantage.as_str(), s.cache_hit_rate.expect("instrumented runs carry a rate")))
        .collect();
    for rate in by_name.values() {
        assert!((0.0..=1.0).contains(rate));
    }
    assert!(by_name["google"] > by_name["isp"], "validating beats non-validating: {by_name:?}");
    assert!(by_name["cloudflare"] > by_name["isp"]);

    // The column renders, and the diff itself matches the bare-store path.
    let text = report.to_string();
    assert!(text.contains("cache-hit"), "report must render the hit-rate column:\n{text}");
    let stores: Vec<_> = runs.into_iter().map(|r| r.store).collect();
    let bare = vantage_diff(&stores);
    assert_eq!(bare.disagreements, report.disagreements);
    assert!(bare.summaries.iter().all(|s| s.cache_hit_rate.is_none()));
}
