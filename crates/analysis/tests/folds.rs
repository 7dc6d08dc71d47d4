//! The per-domain folds against the map-based folds they replaced.
//!
//! `sec423_intermittent`, `fig12_mismatch_durations`, `sec433_anomalies`,
//! `tab3_top_noncf`, `overlapping_ids` and `noncf_adopter_ids` fold
//! per-domain state by a sorted merge over each day's rows, and
//! `fig2_adoption` and `fig8_rank_distribution` probe the id lists they
//! return with a cursor. The `oracle` module keeps the bodies they had
//! when that state lived in hash and tree maps keyed by domain id — and
//! those of the daily-share analyses (`tab2`, `tab4`, `fig5`, `fig11`,
//! `fig13`), which scanned each day once per series before they shared
//! one pass. The property test holds both to the same result, to the
//! bit, over random stores whose days may be out of scan order, repeat a
//! name, carry failed rows and use ids up to `u32::MAX`.

use analysis::adoption::noncf_adopter_ids;
use analysis::{
    fig11_iphints, fig12_mismatch_durations, fig13_ech_share, fig2_adoption, fig5_dnssec_trend,
    fig8_rank_distribution, overlapping_ids, sec423_intermittent, sec433_anomalies,
    tab2_ns_category, tab3_top_noncf, tab4_cf_config,
};
use proptest::prelude::*;
use scanner::{flags, Observation, ObservationSource, OrgId, SnapshotStore};

/// The folds as they were over hash and tree maps, kept as the reference.
mod oracle {
    use analysis::{
        AdoptionSeries, AnomalyCounts, CfConfigSplit, DnssecSeries, EchShareSeries,
        IntermittentBreakdown, IpHintSeries, MismatchDurations, NsCategoryShares, RankBuckets,
        Series, TopProviders,
    };
    use scanner::{
        flags, NsCategory, Observation, ObservationSource, OrgId, Projection, ScanFilter,
    };
    use std::collections::{BTreeMap, HashMap, HashSet};

    pub fn fig2_adoption(store: &dyn ObservationSource, source_change_day: u32) -> AdoptionSeries {
        let days = store.days();
        let phase1: Vec<u32> = days.iter().copied().filter(|d| *d < source_change_day).collect();
        let phase2: Vec<u32> = days.iter().copied().filter(|d| *d >= source_change_day).collect();
        let ov1 = overlapping_ids(store, &phase1);
        let ov2 = overlapping_ids(store, &phase2);
        let proj = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
        let mut points: [Vec<(u32, f64)>; 4] = Default::default();
        store.for_each_day_filtered(proj, &mut |day, obs| {
            let ov = if day < source_change_day { &ov1 } else { &ov2 };
            let mut tallies = [(0usize, 0usize); 4];
            for o in obs {
                let mut bump = |slot: usize| {
                    tallies[slot].0 += 1;
                    if o.https() {
                        tallies[slot].1 += 1;
                    }
                };
                let www = usize::from(o.is_www());
                bump(www);
                if ov.contains(&o.domain_id) {
                    bump(2 + www);
                }
            }
            for (slot, (total, https)) in tallies.iter().enumerate() {
                let v = if *total == 0 { 0.0 } else { 100.0 * *https as f64 / *total as f64 };
                points[slot].push((day, v));
            }
        });
        let [dynamic_apex, dynamic_www, overlapping_apex, overlapping_www] = points;
        let series =
            |label: &str, points: Vec<(u32, f64)>| Series { label: label.to_string(), points };
        AdoptionSeries {
            dynamic_apex: series("fig2a dynamic apex %HTTPS", dynamic_apex),
            dynamic_www: series("fig2a dynamic www %HTTPS", dynamic_www),
            overlapping_apex: series("fig2b overlapping apex %HTTPS", overlapping_apex),
            overlapping_www: series("fig2b overlapping www %HTTPS", overlapping_www),
        }
    }

    pub fn fig8_rank_distribution(
        store: &dyn ObservationSource,
        phase_days: &[u32],
        special: Option<&HashSet<u32>>,
    ) -> RankBuckets {
        let overlapping = overlapping_ids(store, phase_days);
        let Some(&probe_day) = phase_days.iter().next() else {
            return RankBuckets {
                bounds: vec![],
                set_a: vec![],
                set_b: vec![],
                label_a: "overlapping".into(),
                label_b: "non-overlapping".into(),
            };
        };
        let mut obs: Vec<Observation> = Vec::new();
        let proj = Projection::RANK.with(Projection::FLAGS).with(Projection::DOMAIN_ID);
        store.for_each_day_filtered(
            ScanFilter::projected(proj).days(probe_day, probe_day),
            &mut |_, day_obs| obs.extend_from_slice(day_obs),
        );
        let max_rank = obs.iter().map(|o| o.rank).max().unwrap_or(1).max(1);
        let buckets = 10usize;
        let width = max_rank.div_ceil(buckets as u32).max(1);
        let bounds: Vec<u32> = (1..=buckets as u32).map(|i| i * width).collect();
        let mut set_a = vec![0usize; buckets];
        let mut set_b = vec![0usize; buckets];
        for o in obs {
            if o.is_www() || o.rank == 0 {
                continue;
            }
            let idx = (((o.rank - 1) / width) as usize).min(buckets - 1);
            let in_a = match special {
                Some(set) => set.contains(&o.domain_id) && o.https(),
                None => overlapping.contains(&o.domain_id),
            };
            if in_a {
                set_a[idx] += 1;
            } else {
                set_b[idx] += 1;
            }
        }
        RankBuckets {
            bounds,
            set_a,
            set_b,
            label_a: if special.is_some() {
                "non-CF adopters".into()
            } else {
                "overlapping".into()
            },
            label_b: if special.is_some() { "others".into() } else { "non-overlapping".into() },
        }
    }

    pub fn tab2_ns_category(store: &dyn ObservationSource) -> NsCategoryShares {
        let mut full = Vec::new();
        let mut none = Vec::new();
        let mut partial = Vec::new();
        let proj = ScanFilter::projected(Projection::FLAGS.with(Projection::NS_CATEGORY));
        store.for_each_day_filtered(proj, &mut |_, obs| {
            let mut counts = [0usize; 3];
            for o in obs {
                if o.is_www() || !o.https() {
                    continue;
                }
                match NsCategory::from_u8(o.ns_category) {
                    NsCategory::FullCloudflare => counts[0] += 1,
                    NsCategory::PartialCloudflare => counts[1] += 1,
                    NsCategory::NoneCloudflare => counts[2] += 1,
                    NsCategory::NoNs => {}
                }
            }
            let total: usize = counts.iter().sum();
            if total > 0 {
                full.push(100.0 * counts[0] as f64 / total as f64);
                partial.push(100.0 * counts[1] as f64 / total as f64);
                none.push(100.0 * counts[2] as f64 / total as f64);
            }
        });
        let stats = |v: &[f64]| -> (f64, f64) {
            if v.is_empty() {
                return (0.0, 0.0);
            }
            let m = v.iter().sum::<f64>() / v.len() as f64;
            let s = (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt();
            (m, s)
        };
        let (full_mean, full_std) = stats(&full);
        let (none_mean, none_std) = stats(&none);
        let (partial_mean, partial_std) = stats(&partial);
        NsCategoryShares { full_mean, full_std, none_mean, none_std, partial_mean, partial_std }
    }

    pub fn tab4_cf_config(store: &dyn ObservationSource) -> CfConfigSplit {
        let mut daily = Vec::new();
        let proj = ScanFilter::projected(Projection::FLAGS.with(Projection::NS_CATEGORY));
        store.for_each_day_filtered(proj, &mut |_, obs| {
            let mut default = 0usize;
            let mut total = 0usize;
            for o in obs {
                if o.is_www()
                    || !o.https()
                    || NsCategory::from_u8(o.ns_category) != NsCategory::FullCloudflare
                {
                    continue;
                }
                total += 1;
                if o.has(flags::CF_DEFAULT) {
                    default += 1;
                }
            }
            if total > 0 {
                daily.push(100.0 * default as f64 / total as f64);
            }
        });
        let default_pct =
            if daily.is_empty() { 0.0 } else { daily.iter().sum::<f64>() / daily.len() as f64 };
        CfConfigSplit { default_pct, customized_pct: 100.0 - default_pct }
    }

    pub fn fig11_iphints(store: &dyn ObservationSource) -> IpHintSeries {
        // (www, matching) per series slot, one streaming pass.
        let configs: [(bool, bool); 4] =
            [(false, false), (false, true), (true, false), (true, true)];
        let mut points: [Vec<(u32, f64)>; 4] = Default::default();
        store.for_each_day_filtered(ScanFilter::projected(Projection::FLAGS), &mut |day, obs| {
            for (slot, &(www, matching)) in configs.iter().enumerate() {
                let mut with_hint = 0usize;
                let mut matched = 0usize;
                let mut https_total = 0usize;
                for o in obs {
                    if o.is_www() != www || !o.https() {
                        continue;
                    }
                    https_total += 1;
                    if o.has(flags::IPV4HINT) {
                        with_hint += 1;
                        if o.has(flags::HINT_MATCH) {
                            matched += 1;
                        }
                    }
                }
                let v = if matching {
                    if with_hint == 0 {
                        100.0
                    } else {
                        100.0 * matched as f64 / with_hint as f64
                    }
                } else if https_total == 0 {
                    0.0
                } else {
                    100.0 * with_hint as f64 / https_total as f64
                };
                points[slot].push((day, v));
            }
        });
        let [apex_utilization, apex_match, www_utilization, www_match] = points;
        let series =
            |label: &str, points: Vec<(u32, f64)>| Series { label: label.to_string(), points };
        IpHintSeries {
            apex_utilization: series("fig11a apex %ipv4hint", apex_utilization),
            apex_match: series("fig11a apex %hint==A", apex_match),
            www_utilization: series("fig11b www %ipv4hint", www_utilization),
            www_match: series("fig11b www %hint==A", www_match),
        }
    }

    pub fn fig5_dnssec_trend(store: &dyn ObservationSource) -> DnssecSeries {
        // (www, needed flags, base filter) per series, one streaming pass.
        let configs: [(bool, u32, u32); 6] = [
            (false, flags::RRSIG, 0),
            (false, flags::RRSIG | flags::AD, 0),
            (true, flags::RRSIG, 0),
            (true, flags::RRSIG | flags::AD, 0),
            (false, flags::RRSIG, flags::ECH),
            (false, flags::RRSIG | flags::AD, flags::ECH),
        ];
        let mut points: [Vec<(u32, f64)>; 6] = Default::default();
        store.for_each_day_filtered(ScanFilter::projected(Projection::FLAGS), &mut |day, obs| {
            for (slot, &(www, need, base)) in configs.iter().enumerate() {
                let mut total = 0usize;
                let mut hit = 0usize;
                for o in obs {
                    if o.is_www() != www || !o.https() || !o.has(base) {
                        continue;
                    }
                    total += 1;
                    if o.has(need) {
                        hit += 1;
                    }
                }
                points[slot]
                    .push((day, if total == 0 { 0.0 } else { 100.0 * hit as f64 / total as f64 }));
            }
        });
        let [signed_apex, validated_apex, signed_www, validated_www, signed_ech, validated_ech] =
            points;
        let series =
            |label: &str, points: Vec<(u32, f64)>| Series { label: label.to_string(), points };
        DnssecSeries {
            signed_apex: series("fig5 apex %signed", signed_apex),
            validated_apex: series("fig5 apex %validated", validated_apex),
            signed_www: series("fig5 www %signed", signed_www),
            validated_www: series("fig5 www %validated", validated_www),
            signed_ech: series("fig14 ech %signed", signed_ech),
            validated_ech: series("fig14 ech %validated", validated_ech),
        }
    }

    pub fn fig13_ech_share(store: &dyn ObservationSource) -> EchShareSeries {
        let mut points: [Vec<(u32, f64)>; 2] = Default::default();
        store.for_each_day_filtered(ScanFilter::projected(Projection::FLAGS), &mut |day, obs| {
            for (slot, www) in [(0usize, false), (1, true)] {
                let mut https = 0usize;
                let mut ech = 0usize;
                for o in obs {
                    if o.is_www() != www || !o.https() {
                        continue;
                    }
                    https += 1;
                    if o.has(flags::ECH) {
                        ech += 1;
                    }
                }
                points[slot]
                    .push((day, if https == 0 { 0.0 } else { 100.0 * ech as f64 / https as f64 }));
            }
        });
        let [apex, www] = points;
        EchShareSeries {
            apex: Series { label: "fig13 apex %ECH among HTTPS".to_string(), points: apex },
            www: Series { label: "fig13 www %ECH among HTTPS".to_string(), points: www },
        }
    }

    pub fn noncf_adopter_ids(store: &dyn ObservationSource) -> HashSet<u32> {
        let proj = ScanFilter::projected(
            Projection::FLAGS.with(Projection::NS_CATEGORY).with(Projection::DOMAIN_ID),
        );
        let mut ids = HashSet::new();
        store.for_each_day_filtered(proj, &mut |_, obs| {
            ids.extend(
                obs.iter()
                    .filter(|o| {
                        !o.is_www()
                            && o.https()
                            && NsCategory::from_u8(o.ns_category) == NsCategory::NoneCloudflare
                    })
                    .map(|o| o.domain_id),
            );
        });
        ids
    }

    pub fn overlapping_ids(source: &dyn ObservationSource, days: &[u32]) -> HashSet<u32> {
        let filter = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
        let mut set: Vec<u32> = Vec::new();
        let mut today: Vec<u32> = Vec::new();
        for (i, &day) in days.iter().enumerate() {
            today.clear();
            source.for_each_day_filtered(filter.days(day, day), &mut |_, obs| {
                today.extend(obs.iter().filter(|o| !o.is_www()).map(|o| o.domain_id));
            });
            if !today.windows(2).all(|w| w[0] < w[1]) {
                today.sort_unstable();
                today.dedup();
            }
            if i == 0 {
                std::mem::swap(&mut set, &mut today);
                continue;
            }
            let mut at = 0;
            set.retain(|&id| {
                at += today[at..].iter().take_while(|&&t| t < id).count();
                today.get(at) == Some(&id)
            });
        }
        set.into_iter().collect()
    }

    pub fn tab3_top_noncf(store: &dyn ObservationSource) -> TopProviders {
        let mut per_org: HashMap<OrgId, HashSet<u32>> = HashMap::new();
        let proj = ScanFilter::projected(
            Projection::FLAGS
                .with(Projection::NS_CATEGORY)
                .with(Projection::ORG)
                .with(Projection::DOMAIN_ID),
        );
        store.for_each_day_filtered(proj, &mut |_, obs| {
            for o in obs {
                if o.is_www() || !o.https() {
                    continue;
                }
                if NsCategory::from_u8(o.ns_category) != NsCategory::NoneCloudflare {
                    continue;
                }
                if !o.org.is_none() {
                    per_org.entry(o.org).or_default().insert(o.domain_id);
                }
            }
        });
        let mut providers: Vec<(String, usize)> = per_org
            .into_iter()
            .map(|(org, domains)| {
                (store.org_name(org).unwrap_or("<unknown>").to_string(), domains.len())
            })
            .collect();
        providers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        TopProviders { providers }
    }

    pub fn sec423_intermittent(store: &dyn ObservationSource) -> IntermittentBreakdown {
        #[derive(Default)]
        struct Track {
            with: usize,
            without: usize,
            categories: u64,
            lost_ns: bool,
        }
        let mut tracks: BTreeMap<u32, Track> = BTreeMap::new();
        let proj = ScanFilter::projected(
            Projection::FLAGS.with(Projection::NS_CATEGORY).with(Projection::DOMAIN_ID),
        );
        store.for_each_day_filtered(proj, &mut |_, obs| {
            for o in obs {
                if o.is_www() {
                    continue;
                }
                let t = tracks.entry(o.domain_id).or_default();
                if o.has(flags::RESOLUTION_FAILED) {
                    t.lost_ns = true;
                    t.without += 1;
                    continue;
                }
                if NsCategory::from_u8(o.ns_category) == NsCategory::NoNs {
                    t.lost_ns = true;
                } else {
                    t.categories |= 1 << o.ns_category;
                }
                if o.https() {
                    t.with += 1;
                } else {
                    t.without += 1;
                }
            }
        });
        let mut out = IntermittentBreakdown::default();
        for t in tracks.values() {
            if t.with == 0 || t.without == 0 {
                continue;
            }
            out.intermittent_total += 1;
            if t.lost_ns {
                out.lost_ns += 1;
            } else if t.categories.count_ones() <= 1 {
                out.same_ns += 1;
                if t.categories & (1 << NsCategory::FullCloudflare as u8) != 0 {
                    out.same_ns_cloudflare += 1;
                }
            } else {
                out.ns_changed += 1;
            }
        }
        out
    }

    pub fn sec433_anomalies(store: &dyn ObservationSource) -> AnomalyCounts {
        let mut empty: HashSet<u32> = HashSet::new();
        let mut self_dot: HashSet<u32> = HashSet::new();
        let mut ip_lit: HashSet<u32> = HashSet::new();
        let mut hist: BTreeMap<u16, usize> = BTreeMap::new();
        let mut seen_prio: HashSet<u32> = HashSet::new();
        let proj = ScanFilter::projected(
            Projection::FLAGS.with(Projection::DOMAIN_ID).with(Projection::MIN_PRIORITY),
        );
        store.for_each_day_filtered(proj, &mut |_, obs| {
            for o in obs {
                if o.is_www() || !o.https() {
                    continue;
                }
                if o.has(flags::EMPTY_SVCPARAMS) {
                    empty.insert(o.domain_id);
                }
                if o.has(flags::TARGET_SELF_DOT) {
                    self_dot.insert(o.domain_id);
                }
                if o.has(flags::IP_LITERAL_TARGET) {
                    ip_lit.insert(o.domain_id);
                }
                if seen_prio.insert(o.domain_id) {
                    *hist.entry(o.min_priority).or_default() += 1;
                }
            }
        });
        AnomalyCounts {
            empty_servicemode: empty.len(),
            alias_self_dot: self_dot.len(),
            ip_literal_target: ip_lit.len(),
            priority_histogram: hist,
        }
    }

    pub fn fig12_mismatch_durations(store: &dyn ObservationSource) -> MismatchDurations {
        let mut tracks: HashMap<u32, Vec<(u32, bool)>> = HashMap::new();
        let proj = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
        store.for_each_day_filtered(proj, &mut |_, obs| {
            for o in obs {
                if o.is_www() || !o.https() || !o.has(flags::IPV4HINT) {
                    continue;
                }
                tracks.entry(o.domain_id).or_default().push((o.day, !o.has(flags::HINT_MATCH)));
            }
        });
        let mut histogram: BTreeMap<u32, usize> = BTreeMap::new();
        let mut always = 0usize;
        for (_, mut seq) in tracks {
            seq.sort_by_key(|(d, _)| *d);
            let total = seq.len();
            let mismatch_days = seq.iter().filter(|(_, m)| *m).count();
            if mismatch_days == total && total > 1 {
                always += 1;
                continue;
            }
            let mut run = 0u32;
            for (_, mismatched) in seq {
                if mismatched {
                    run += 1;
                } else if run > 0 {
                    *histogram.entry(run).or_default() += 1;
                    run = 0;
                }
            }
            if run > 0 {
                *histogram.entry(run).or_default() += 1;
            }
        }
        MismatchDurations { histogram, always_mismatched: always }
    }
}

/// One generated row: (domain id, www, flag bits, NS category byte, org
/// pick, min priority).
type Row = (u32, bool, u32, u8, u8, u16);
/// One generated day: whether to put it in scan order, and its rows.
type Day = (bool, Vec<Row>);

/// The flags the folds read, a few at a time.
const FLAG_POOL: [u32; 13] = [
    flags::HTTPS_PRESENT,
    flags::IPV4HINT,
    flags::HINT_MATCH,
    flags::EMPTY_SVCPARAMS,
    flags::TARGET_SELF_DOT,
    flags::IP_LITERAL_TARGET,
    flags::RESOLUTION_FAILED,
    flags::HTTPS_PRESENT | flags::IPV4HINT,
    flags::HTTPS_PRESENT | flags::IPV4HINT | flags::HINT_MATCH,
    flags::ECH,
    flags::RRSIG,
    flags::AD,
    flags::CF_DEFAULT,
];

fn row_strategy() -> impl Strategy<Value = Row> {
    // A small pool, so names repeat within a day and recur across days,
    // plus the top of the id range.
    let id = prop_oneof![0u32..4, 0u32..4, u32::MAX - 1..=u32::MAX];
    let bits = proptest::collection::vec(0usize..FLAG_POOL.len(), 0..4)
        .prop_map(|picks| picks.iter().fold(0, |acc, &i| acc | FLAG_POOL[i]));
    (id, any::<bool>(), bits, 0u8..5, 0u8..5, 0u16..3)
}

fn day_strategy() -> impl Strategy<Value = Day> {
    (any::<bool>(), proptest::collection::vec(row_strategy(), 0..14))
}

/// Org picks: three named orgs, one id the store cannot name, none.
fn org(pick: u8) -> OrgId {
    match pick {
        0..=2 => OrgId(u32::from(pick)),
        3 => OrgId(7),
        _ => OrgId::NONE,
    }
}

fn build(days: &[(u32, Day)]) -> SnapshotStore {
    let mut store = SnapshotStore::with_vantage("v");
    for name in ["Alpha DNS", "Beta DNS", "Gamma DNS"] {
        store.orgs.intern(name);
    }
    for (day, (in_scan_order, rows)) in days {
        let mut obs: Vec<Observation> = rows
            .iter()
            .map(|&(id, www, bits, ns_category, pick, min_priority)| Observation {
                day: *day,
                domain_id: id,
                // Rank 0 (off the list) now and then.
                rank: u32::from(pick) * 7 + u32::from(min_priority),
                flags: bits | if www { flags::IS_WWW } else { 0 },
                ns_category,
                org: org(pick),
                min_priority,
            })
            .collect();
        if *in_scan_order {
            obs.sort_by_key(|o| (o.domain_id, o.is_www()));
        }
        store.push_day(*day, obs);
    }
    store
}

proptest! {
    #[test]
    fn merged_folds_equal_the_map_folds_they_replaced(
        generated in proptest::collection::vec((1u32..4, day_strategy()), 0..10),
    ) {
        // Ascending, gapped days, as a campaign samples them.
        let mut day = 0;
        let days: Vec<(u32, Day)> = generated
            .into_iter()
            .map(|(gap, rows)| {
                day += gap;
                (day, rows)
            })
            .collect();
        let store = build(&days);
        let source: &dyn ObservationSource = &store;

        prop_assert_eq!(
            format!("{:?}", sec423_intermittent(source)),
            format!("{:?}", oracle::sec423_intermittent(source))
        );
        prop_assert_eq!(
            format!("{:?}", fig12_mismatch_durations(source)),
            format!("{:?}", oracle::fig12_mismatch_durations(source))
        );
        prop_assert_eq!(
            format!("{:?}", sec433_anomalies(source)),
            format!("{:?}", oracle::sec433_anomalies(source))
        );
        prop_assert_eq!(
            format!("{:?}", tab3_top_noncf(source)),
            format!("{:?}", oracle::tab3_top_noncf(source))
        );
        let sorted = |set: std::collections::HashSet<u32>| {
            let mut ids: Vec<u32> = set.into_iter().collect();
            ids.sort_unstable();
            ids
        };
        let all = store.days();
        for phase in [&all[..], &all[..all.len() / 2], &all[all.len() / 2..]] {
            let want = sorted(oracle::overlapping_ids(source, phase));
            prop_assert_eq!(overlapping_ids(source, phase), want);
            prop_assert_eq!(
                fig8_rank_distribution(source, phase, None).to_string(),
                oracle::fig8_rank_distribution(source, phase, None).to_string()
            );
        }
        let noncf = oracle::noncf_adopter_ids(source);
        prop_assert_eq!(
            fig8_rank_distribution(source, &all, Some(&noncf_adopter_ids(source))).to_string(),
            oracle::fig8_rank_distribution(source, &all, Some(&noncf)).to_string()
        );
        prop_assert_eq!(noncf_adopter_ids(source), sorted(noncf));
        let change = all.get(all.len() / 2).copied().unwrap_or(0);
        prop_assert_eq!(
            format!("{:?}", fig2_adoption(source, change)),
            format!("{:?}", oracle::fig2_adoption(source, change))
        );
        prop_assert_eq!(
            format!("{:?}", tab2_ns_category(source)),
            format!("{:?}", oracle::tab2_ns_category(source))
        );
        prop_assert_eq!(
            format!("{:?}", tab4_cf_config(source)),
            format!("{:?}", oracle::tab4_cf_config(source))
        );
        prop_assert_eq!(
            format!("{:?}", fig5_dnssec_trend(source)),
            format!("{:?}", oracle::fig5_dnssec_trend(source))
        );
        prop_assert_eq!(
            format!("{:?}", fig11_iphints(source)),
            format!("{:?}", oracle::fig11_iphints(source))
        );
        prop_assert_eq!(
            format!("{:?}", fig13_ech_share(source)),
            format!("{:?}", oracle::fig13_ech_share(source))
        );
    }
}
