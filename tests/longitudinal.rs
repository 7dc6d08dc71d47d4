//! Longitudinal invariants of the full study pipeline.

#[path = "support/authority.rs"]
mod authority;

use authority::authority_consistency_scan;
use httpsrr::analysis::{self, overlapping_ids};
use httpsrr::scanner::flags;
use httpsrr::Study;

#[test]
fn quick_study_runs_and_is_deterministic() {
    let a = Study::quick();
    let b = Study::quick();
    assert_eq!(a.store.to_csv(), b.store.to_csv());
    assert!(!a.store.is_empty());
}

#[test]
fn overlapping_is_subset_of_every_day() {
    let study = Study::quick();
    let days = study.store.days();
    let ov = overlapping_ids(&study.store, &days);
    for day in days {
        let today: std::collections::HashSet<u32> =
            study.store.day(day).iter().filter(|o| !o.is_www()).map(|o| o.domain_id).collect();
        for id in &ov {
            assert!(today.contains(id), "overlapping domain {id} missing on day {day}");
        }
    }
}

#[test]
fn www_observations_follow_apex() {
    let study = Study::quick();
    for day in study.store.days() {
        let obs = study.store.day(day);
        // Every www observation has a same-day apex observation.
        let apexes: std::collections::HashSet<u32> =
            obs.iter().filter(|o| !o.is_www()).map(|o| o.domain_id).collect();
        for o in obs {
            if o.is_www() {
                assert!(apexes.contains(&o.domain_id));
            }
        }
    }
}

#[test]
fn ad_implies_rrsig() {
    let study = Study::quick();
    for o in study.store.all() {
        if o.has(flags::AD) {
            assert!(o.has(flags::RRSIG), "AD without RRSIG on domain {}", o.domain_id);
        }
        if o.has(flags::ECH) || o.has(flags::IPV4HINT) || o.has(flags::ALIAS_MODE) {
            assert!(o.https(), "param flags without HTTPS on domain {}", o.domain_id);
        }
        if o.has(flags::ALIAS_MODE) {
            assert_eq!(o.min_priority, 0, "alias mode must be priority 0");
        }
    }
}

#[test]
fn report_renders_every_section() {
    let study = Study::quick();
    let report = httpsrr::server_side_report(&study);
    for needle in [
        "Fig 2",
        "Table 2",
        "Table 3",
        "Fig 3",
        "Fig 10",
        "Sec 4.2.3",
        "Table 4",
        "Table 5",
        "Sec 4.3.3",
        "Table 8",
        "Fig 11",
        "Fig 12",
        "Fig 13",
        "Fig 5",
        "Fig 14",
    ] {
        assert!(report.contains(needle), "report missing {needle}:\n{report}");
    }
}

#[test]
fn ground_truth_agrees_with_scans_on_final_day() {
    let study = Study::quick();
    let last_day = *study.store.days().last().unwrap();
    for o in study.store.day(last_day) {
        if o.is_www() || o.has(flags::RESOLUTION_FAILED) {
            continue;
        }
        let d = study.world.domain(o.domain_id);
        let truth = study.world.publishes_today(d);
        // Mixed-NS domains legitimately differ per resolver pick; skip.
        if d.secondary_provider.is_some() {
            continue;
        }
        assert_eq!(o.https(), truth, "domain {} scan/truth divergence on day {last_day}", d.apex);
    }
}

#[test]
fn tranco_rank_fields_are_consistent() {
    let study = Study::quick();
    for day in study.store.days() {
        let mut seen = std::collections::HashSet::new();
        for o in study.store.day(day) {
            if o.is_www() {
                continue;
            }
            assert!(o.rank >= 1, "listed domains must have ranks");
            assert!(
                o.rank as usize <= study.world.config.list_size,
                "rank {} exceeds list size",
                o.rank
            );
            assert!(seen.insert(o.rank), "duplicate rank {} on day {day}", o.rank);
        }
    }
}

#[test]
fn analysis_stays_in_percentage_bounds() {
    let study = Study::quick();
    let lm = study.world.config.landmarks;
    let adoption = analysis::fig2_adoption(&study.store, lm.source_change as u32);
    for series in [
        &adoption.dynamic_apex,
        &adoption.dynamic_www,
        &adoption.overlapping_apex,
        &adoption.overlapping_www,
    ] {
        for (_, v) in &series.points {
            assert!((0.0..=100.0).contains(v), "{} out of bounds: {v}", series.label);
        }
    }
}

#[test]
fn authority_scan_explains_mixed_ns_intermittency() {
    // The §4.2.3 supplementary experiment: domains flagged by the
    // direct-to-authority scan are exactly the resolver-selection
    // intermittency candidates (mixed provider sets).
    let study = Study::quick();
    let reports = authority_consistency_scan(&study.world);
    for r in &reports {
        let d = study.world.domain(r.domain_id);
        assert!(d.secondary_provider.is_some(), "{} flagged without a mixed NS set", r.apex);
        assert!(!r.serving().is_empty() && !r.not_serving().is_empty());
    }
}
