//! Fast unit tests of analysis functions over hand-built observation
//! stores (no world construction), pinning the exact arithmetic.

use analysis::*;
use scanner::{flags, NsCategory, Observation, OrgId, SnapshotStore};

fn obs(day: u32, id: u32, f: u32, cat: NsCategory, org: u32) -> Observation {
    Observation {
        day,
        domain_id: id,
        rank: id + 1,
        flags: f,
        ns_category: cat as u8,
        org: if org == u32::MAX { OrgId::NONE } else { OrgId(org) },
        min_priority: if f & flags::ALIAS_MODE != 0 { 0 } else { 1 },
    }
}

const H: u32 = flags::HTTPS_PRESENT;

#[test]
fn tab2_exact_shares() {
    let mut store = SnapshotStore::default();
    store.push_day(
        0,
        vec![
            obs(0, 1, H, NsCategory::FullCloudflare, 0),
            obs(0, 2, H, NsCategory::FullCloudflare, 0),
            obs(0, 3, H, NsCategory::NoneCloudflare, 1),
            obs(0, 4, H, NsCategory::PartialCloudflare, 1),
            obs(0, 5, 0, NsCategory::FullCloudflare, 0), // no HTTPS: excluded
        ],
    );
    let t = tab2_ns_category(&store);
    assert!((t.full_mean - 50.0).abs() < 1e-9);
    assert!((t.none_mean - 25.0).abs() < 1e-9);
    assert!((t.partial_mean - 25.0).abs() < 1e-9);
}

#[test]
fn tab3_distinct_domain_counting() {
    let mut store = SnapshotStore::default();
    let ename = store.orgs.intern("eName");
    let google = store.orgs.intern("Google");
    store.push_day(
        0,
        vec![
            obs(0, 1, H, NsCategory::NoneCloudflare, ename.0),
            obs(0, 2, H, NsCategory::NoneCloudflare, ename.0),
            obs(0, 3, H, NsCategory::NoneCloudflare, google.0),
        ],
    );
    // Same domain again on a later day must not double-count.
    store.push_day(5, vec![obs(5, 1, H, NsCategory::NoneCloudflare, ename.0)]);
    let t = tab3_top_noncf(&store);
    assert_eq!(t.providers, vec![("eName".to_string(), 2), ("Google".to_string(), 1)]);
}

#[test]
fn sec423_classification() {
    let mut store = SnapshotStore::default();
    // d1: intermittent, same full-CF category (proxied toggle).
    // d2: intermittent, category changes (migration).
    // d3: always on (not intermittent).
    // d4: intermittent via lost NS.
    store.push_day(
        0,
        vec![
            obs(0, 1, H, NsCategory::FullCloudflare, 0),
            obs(0, 2, H, NsCategory::FullCloudflare, 0),
            obs(0, 3, H, NsCategory::FullCloudflare, 0),
            obs(0, 4, H, NsCategory::FullCloudflare, 0),
        ],
    );
    store.push_day(
        1,
        vec![
            obs(1, 1, 0, NsCategory::FullCloudflare, 0),
            obs(1, 2, 0, NsCategory::NoneCloudflare, 1),
            obs(1, 3, H, NsCategory::FullCloudflare, 0),
            obs(1, 4, 0, NsCategory::NoNs, u32::MAX),
        ],
    );
    let b = sec423_intermittent(&store);
    assert_eq!(b.intermittent_total, 3);
    assert_eq!(b.same_ns, 1);
    assert_eq!(b.same_ns_cloudflare, 1);
    assert_eq!(b.ns_changed, 1);
    assert_eq!(b.lost_ns, 1);
}

#[test]
fn tab8_alpn_shares_and_sunset() {
    let mut store = SnapshotStore::default();
    store.push_day(
        0,
        vec![
            obs(
                0,
                1,
                H | flags::ALPN_H2 | flags::ALPN_H3 | flags::ALPN_H3_29,
                NsCategory::FullCloudflare,
                0,
            ),
            obs(0, 2, H | flags::ALPN_H2, NsCategory::FullCloudflare, 0),
        ],
    );
    store.push_day(
        30,
        vec![
            obs(30, 1, H | flags::ALPN_H2 | flags::ALPN_H3, NsCategory::FullCloudflare, 0),
            obs(30, 2, H | flags::NO_ALPN, NsCategory::FullCloudflare, 0),
        ],
    );
    let t = tab8_alpn(&store, 23);
    // h2: 3 of 4 apex observations.
    assert!((t.rows[1].1 - 75.0).abs() < 1e-9);
    // h3-29: 1/2 before the sunset, 0/2 after.
    assert!((t.h3_29_before - 50.0).abs() < 1e-9);
    assert!((t.h3_29_after - 0.0).abs() < 1e-9);
    // no-alpn row: 1 of 4.
    assert!((t.rows[5].1 - 25.0).abs() < 1e-9);
}

#[test]
fn fig12_run_lengths() {
    let mut store = SnapshotStore::default();
    let hint = H | flags::IPV4HINT;
    let matched = hint | flags::HINT_MATCH;
    // d1: match, miss, miss, match → one 2-day episode.
    // d2: miss on all days (>1 obs) → always mismatched.
    for (day, d1, d2) in
        [(0u32, matched, hint), (1, hint, hint), (2, hint, hint), (3, matched, hint)]
    {
        store.push_day(
            day,
            vec![
                obs(day, 1, d1, NsCategory::FullCloudflare, 0),
                obs(day, 2, d2, NsCategory::FullCloudflare, 0),
            ],
        );
    }
    let f = fig12_mismatch_durations(&store);
    assert_eq!(f.histogram, [(2, 1)].into());
    assert_eq!(f.always_mismatched, 1);
}

#[test]
fn fig13_series_counts_only_https() {
    let mut store = SnapshotStore::default();
    store.push_day(
        0,
        vec![
            obs(0, 1, H | flags::ECH, NsCategory::FullCloudflare, 0),
            obs(0, 2, H, NsCategory::FullCloudflare, 0),
            obs(0, 3, 0, NsCategory::FullCloudflare, 0),
        ],
    );
    let f = fig13_ech_share(&store);
    assert!((f.apex.points[0].1 - 50.0).abs() < 1e-9);
}

#[test]
fn fig5_validated_requires_both_flags() {
    let mut store = SnapshotStore::default();
    store.push_day(
        0,
        vec![
            obs(0, 1, H | flags::RRSIG | flags::AD, NsCategory::FullCloudflare, 0),
            obs(0, 2, H | flags::RRSIG, NsCategory::FullCloudflare, 0),
            obs(0, 3, H, NsCategory::FullCloudflare, 0),
            obs(0, 4, H, NsCategory::FullCloudflare, 0),
        ],
    );
    let f = fig5_dnssec_trend(&store);
    assert!((f.signed_apex.points[0].1 - 50.0).abs() < 1e-9);
    assert!((f.validated_apex.points[0].1 - 25.0).abs() < 1e-9);
}

#[test]
fn fig2_overlapping_phase_split() {
    let mut store = SnapshotStore::default();
    // Phase 1 (days 0,1): domains 1,2 overlap; 3 churns out.
    store.push_day(
        0,
        vec![
            obs(0, 1, H, NsCategory::FullCloudflare, 0),
            obs(0, 2, 0, NsCategory::FullCloudflare, 0),
            obs(0, 3, H, NsCategory::FullCloudflare, 0),
        ],
    );
    store.push_day(
        1,
        vec![
            obs(1, 1, H, NsCategory::FullCloudflare, 0),
            obs(1, 2, 0, NsCategory::FullCloudflare, 0),
        ],
    );
    // Phase 2 (day 10): only domain 2, now with HTTPS.
    store.push_day(10, vec![obs(10, 2, H, NsCategory::FullCloudflare, 0)]);
    let a = fig2_adoption(&store, 5);
    // Day 0 dynamic: 2/3 have HTTPS.
    assert!((a.dynamic_apex.points[0].1 - 66.66666).abs() < 1e-3);
    // Day 0 overlapping (phase 1 = {1,2}): 1/2.
    assert!((a.overlapping_apex.points[0].1 - 50.0).abs() < 1e-9);
    // Day 10 overlapping (phase 2 = {2}): 1/1.
    assert!((a.overlapping_apex.points[2].1 - 100.0).abs() < 1e-9);
}

#[test]
fn sec433_anomaly_distinct_counting() {
    let mut store = SnapshotStore::default();
    let bad = H | flags::EMPTY_SVCPARAMS;
    store.push_day(0, vec![obs(0, 1, bad, NsCategory::FullCloudflare, 0)]);
    store.push_day(1, vec![obs(1, 1, bad, NsCategory::FullCloudflare, 0)]);
    let a = sec433_anomalies(&store);
    assert_eq!(a.empty_servicemode, 1, "distinct domains, not observations");
}
