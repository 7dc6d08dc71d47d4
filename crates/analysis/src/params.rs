//! HTTPS RR parameter analyses: Table 4 (Cloudflare default vs
//! customized), Table 5 (Google/GoDaddy shapes), §4.3.3 anomalies,
//! Table 8 (ALPN shares), Fig 11 (IP-hint utilization/consistency),
//! Fig 12 (mismatch durations), §4.3.5 (connectivity).

use crate::merge::Tracks;
use crate::{daily_shares, Series};
use scanner::{
    flags, ConnectivityReport, NsCategory, Observation, ObservationSource, Projection, ScanFilter,
};
use std::collections::BTreeMap;

/// Table 4: Cloudflare default vs customized configuration shares.
#[derive(Debug, Clone)]
pub struct CfConfigSplit {
    /// % of CF-NS HTTPS apexes with the default configuration.
    pub default_pct: f64,
    /// % with a customized configuration.
    pub customized_pct: f64,
}

impl std::fmt::Display for CfConfigSplit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 4: Cloudflare HTTPS configuration")?;
        writeln!(f, "  Default    : {:6.2}%", self.default_pct)?;
        writeln!(f, "  Customized : {:6.2}%", self.customized_pct)
    }
}

/// Compute Table 4 over all days (average of daily shares).
pub fn tab4_cf_config(store: &dyn ObservationSource) -> CfConfigSplit {
    let proj = ScanFilter::projected(Projection::FLAGS.with(Projection::NS_CATEGORY));
    let [mut daily] = daily_shares(store, proj, [("", f64::NAN)], |_, o| {
        let cf = NsCategory::from_u8(o.ns_category) == NsCategory::FullCloudflare;
        [(!o.is_www() && o.https() && cf, o.has(flags::CF_DEFAULT))]
    });
    // A day without a Cloudflare-NS HTTPS apex has no share to average.
    daily.points.retain(|(_, share)| !share.is_nan());
    let default_pct = if daily.points.is_empty() { 0.0 } else { daily.mean() };
    CfConfigSplit { default_pct, customized_pct: 100.0 - default_pct }
}

/// Table 5: record shapes per non-CF provider org.
#[derive(Debug, Clone)]
pub struct ProviderShapes {
    /// org → (alias-mode count, service-mode count, empty-params count).
    pub shapes: BTreeMap<String, (usize, usize, usize)>,
}

impl std::fmt::Display for ProviderShapes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 5: HTTPS shapes by provider (alias / service / empty)")?;
        for (org, (alias, service, empty)) in &self.shapes {
            writeln!(f, "  {org:<28} {alias:>4} {service:>4} {empty:>4}")?;
        }
        Ok(())
    }
}

/// Compute Table 5 from the last sampled day.
pub fn tab5_other_providers(store: &dyn ObservationSource) -> ProviderShapes {
    let mut shapes: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    let Some(&last) = store.days().last() else {
        return ProviderShapes { shapes };
    };
    let proj = Projection::FLAGS.with(Projection::NS_CATEGORY).with(Projection::ORG);
    store.for_each_day_filtered(ScanFilter::projected(proj).days(last, last), &mut |_, obs| {
        for o in obs {
            if o.is_www() || !o.https() {
                continue;
            }
            if NsCategory::from_u8(o.ns_category) != NsCategory::NoneCloudflare {
                continue;
            }
            let org = store.org_name(o.org).unwrap_or("<unknown>").to_string();
            let entry = shapes.entry(org).or_default();
            if o.has(flags::ALIAS_MODE) {
                entry.0 += 1;
            } else {
                entry.1 += 1;
                if o.has(flags::EMPTY_SVCPARAMS) {
                    entry.2 += 1;
                }
            }
        }
    });
    ProviderShapes { shapes }
}

/// §4.3.3 / Appendix E.1 anomaly counts (over all observations).
#[derive(Debug, Clone, Default)]
pub struct AnomalyCounts {
    /// ServiceMode records with empty SvcParams (distinct domains).
    pub empty_servicemode: usize,
    /// AliasMode records with `.` as TargetName.
    pub alias_self_dot: usize,
    /// IP-address literals as TargetName.
    pub ip_literal_target: usize,
    /// Domains publishing priority lists (min priority observed > 0 with
    /// many records is summarized by min-priority histogram).
    pub priority_histogram: BTreeMap<u16, usize>,
}

impl std::fmt::Display for AnomalyCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Sec 4.3.3: SvcPriority / TargetName anomalies")?;
        writeln!(f, "  ServiceMode with empty SvcParams : {}", self.empty_servicemode)?;
        writeln!(f, "  AliasMode with '.' TargetName    : {}", self.alias_self_dot)?;
        writeln!(f, "  IP literal TargetName            : {}", self.ip_literal_target)?;
        writeln!(f, "  min-priority histogram           : {:?}", self.priority_histogram)
    }
}

/// Compute the anomaly counts (distinct domains over the whole study).
pub fn sec433_anomalies(store: &dyn ObservationSource) -> AnomalyCounts {
    // Per domain: which anomalies it ever showed; the histogram counts
    // the min priority of its first HTTPS apex row, taken when its track
    // is new.
    #[derive(Clone, Copy, Default)]
    struct Track {
        seen: bool,
        empty: bool,
        self_dot: bool,
        ip_lit: bool,
    }
    let mut tracks: Tracks<Track, Observation> = Tracks::default();
    let mut hist: BTreeMap<u16, usize> = BTreeMap::new();
    let proj = ScanFilter::projected(
        Projection::FLAGS.with(Projection::DOMAIN_ID).with(Projection::MIN_PRIORITY),
    );
    store.for_each_day_filtered(proj, &mut |_, obs| {
        let https_apexes = obs.iter().filter(|o| !o.is_www() && o.https());
        tracks.merge_day(https_apexes.map(|o| (u64::from(o.domain_id), *o)), |t, o| {
            t.empty |= o.has(flags::EMPTY_SVCPARAMS);
            t.self_dot |= o.has(flags::TARGET_SELF_DOT);
            t.ip_lit |= o.has(flags::IP_LITERAL_TARGET);
            if !t.seen {
                t.seen = true;
                *hist.entry(o.min_priority).or_default() += 1;
            }
        });
    });
    let count = |anomaly: fn(&Track) -> bool| tracks.iter().filter(|(_, t)| anomaly(t)).count();
    AnomalyCounts {
        empty_servicemode: count(|t| t.empty),
        alias_self_dot: count(|t| t.self_dot),
        ip_literal_target: count(|t| t.ip_lit),
        priority_histogram: hist,
    }
}

/// Table 8: ALPN protocol shares among HTTPS apex/www observations.
#[derive(Debug, Clone)]
pub struct AlpnShares {
    /// Rows: (protocol label, apex %, www %).
    pub rows: Vec<(String, f64, f64)>,
    /// h3-29 share before the sunset day (apex %).
    pub h3_29_before: f64,
    /// h3-29 share on/after the sunset day (apex %).
    pub h3_29_after: f64,
}

impl std::fmt::Display for AlpnShares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 8: ALPN shares among domains with HTTPS RR (apex%, www%)")?;
        for (proto, apex, www) in &self.rows {
            writeln!(f, "  {proto:<10} {apex:6.2}% {www:6.2}%")?;
        }
        writeln!(
            f,
            "  h3-29 before sunset: {:.2}%  after: {:.2}%",
            self.h3_29_before, self.h3_29_after
        )
    }
}

/// Compute Table 8; `sunset_day` is the h3-29 cutoff (2023-05-31).
pub fn tab8_alpn(store: &dyn ObservationSource, sunset_day: u32) -> AlpnShares {
    let mut apex = [0usize; 6]; // h1, h2, h3, h3-29, h3-27, no-alpn
    let mut www = [0usize; 6];
    let mut apex_total = 0usize;
    let mut www_total = 0usize;
    let mut h3_29_before = (0usize, 0usize);
    let mut h3_29_after = (0usize, 0usize);
    store.for_each_day_filtered(ScanFilter::projected(Projection::FLAGS), &mut |_, obs| {
        for o in obs {
            if !o.https() {
                continue;
            }
            let bucket = if o.is_www() { &mut www } else { &mut apex };
            let total = if o.is_www() { &mut www_total } else { &mut apex_total };
            *total += 1;
            if o.has(flags::ALPN_H1) {
                bucket[0] += 1;
            }
            if o.has(flags::ALPN_H2) {
                bucket[1] += 1;
            }
            if o.has(flags::ALPN_H3) {
                bucket[2] += 1;
            }
            if o.has(flags::ALPN_H3_29) {
                bucket[3] += 1;
            }
            if o.has(flags::ALPN_H3_27) {
                bucket[4] += 1;
            }
            if o.has(flags::NO_ALPN) {
                bucket[5] += 1;
            }
            if !o.is_www() {
                let side = if o.day < sunset_day { &mut h3_29_before } else { &mut h3_29_after };
                side.1 += 1;
                if o.has(flags::ALPN_H3_29) {
                    side.0 += 1;
                }
            }
        }
    });
    let pct = |n: usize, d: usize| if d == 0 { 0.0 } else { 100.0 * n as f64 / d as f64 };
    let labels = ["HTTP/1.1", "HTTP/2", "HTTP/3", "HTTP/3-29", "HTTP/3-27", "no alpn"];
    let rows = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.to_string(), pct(apex[i], apex_total), pct(www[i], www_total)))
        .collect();
    AlpnShares {
        rows,
        h3_29_before: pct(h3_29_before.0, h3_29_before.1),
        h3_29_after: pct(h3_29_after.0, h3_29_after.1),
    }
}

/// Fig 11: hint utilization and consistency series.
#[derive(Debug, Clone)]
pub struct IpHintSeries {
    /// % of HTTPS apexes carrying ipv4hint.
    pub apex_utilization: Series,
    /// % of hint-bearing apexes whose hints match their A records.
    pub apex_match: Series,
    /// Same, for www names.
    pub www_utilization: Series,
    /// Match series for www names.
    pub www_match: Series,
}

impl std::fmt::Display for IpHintSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            self.apex_utilization, self.apex_match, self.www_utilization, self.www_match
        )
    }
}

/// Compute Fig 11.
pub fn fig11_iphints(store: &dyn ObservationSource) -> IpHintSeries {
    let [apex_utilization, apex_match, www_utilization, www_match] = daily_shares(
        store,
        ScanFilter::projected(Projection::FLAGS),
        [
            ("fig11a apex %ipv4hint", 0.0),
            ("fig11a apex %hint==A", 100.0),
            ("fig11b www %ipv4hint", 0.0),
            ("fig11b www %hint==A", 100.0),
        ],
        |_, o| {
            let (apex, www) = (!o.is_www() && o.https(), o.is_www() && o.https());
            let (hint, matched) = (o.has(flags::IPV4HINT), o.has(flags::HINT_MATCH));
            [(apex, hint), (apex && hint, matched), (www, hint), (www && hint, matched)]
        },
    );
    IpHintSeries { apex_utilization, apex_match, www_utilization, www_match }
}

/// Fig 12: distribution of mismatch durations, in sampled-day units.
#[derive(Debug, Clone)]
pub struct MismatchDurations {
    /// duration (consecutive sampled days) → number of episodes.
    pub histogram: BTreeMap<u32, usize>,
    /// Domains mismatched on every sampled day.
    pub always_mismatched: usize,
}

impl std::fmt::Display for MismatchDurations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 12: hint/A mismatch episode durations (sampled days)")?;
        for (d, c) in &self.histogram {
            writeln!(f, "  {d} days: {c}")?;
        }
        writeln!(f, "  always mismatched: {}", self.always_mismatched)
    }
}

/// Compute Fig 12 from consecutive-day mismatch runs.
pub fn fig12_mismatch_durations(store: &dyn ObservationSource) -> MismatchDurations {
    // Per domain, over its hint-bearing HTTPS apex rows in day order: how
    // many there were, how many mismatched, and the open mismatch run.
    #[derive(Clone, Copy, Default)]
    struct Track {
        rows: u32,
        mismatched: u32,
        run: u32,
    }
    let mut tracks: Tracks<Track, bool> = Tracks::default();
    let mut histogram: BTreeMap<u32, usize> = BTreeMap::new();
    let proj = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
    store.for_each_day_filtered(proj, &mut |_, obs| {
        let hinted = obs.iter().filter(|o| !o.is_www() && o.https() && o.has(flags::IPV4HINT));
        let rows = hinted.map(|o| (u64::from(o.domain_id), !o.has(flags::HINT_MATCH)));
        tracks.merge_day(rows, |t, mismatched| {
            t.rows += 1;
            if mismatched {
                t.mismatched += 1;
                t.run += 1;
            } else if t.run > 0 {
                // A matching row ends the run, and shows the domain is
                // not mismatched throughout.
                *histogram.entry(t.run).or_default() += 1;
                t.run = 0;
            }
        });
    });
    let mut always = 0usize;
    for (_, t) in tracks.iter() {
        if t.mismatched == t.rows && t.rows > 1 {
            always += 1;
        } else if t.run > 0 {
            *histogram.entry(t.run).or_default() += 1;
        }
    }
    MismatchDurations { histogram, always_mismatched: always }
}

/// §4.3.5 connectivity summary.
#[derive(Debug, Clone, Default)]
pub struct ConnectivitySummary {
    /// Total mismatch occurrences probed.
    pub occurrences: usize,
    /// Distinct domains involved.
    pub distinct_domains: usize,
    /// Occurrences with at least one unreachable address.
    pub any_unreachable: usize,
    /// Reachable only via hint addresses.
    pub hint_only: usize,
    /// Reachable only via A addresses.
    pub a_only: usize,
}

impl std::fmt::Display for ConnectivitySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Sec 4.3.5: connectivity of mismatched domains")?;
        writeln!(f, "  occurrences           : {}", self.occurrences)?;
        writeln!(f, "  distinct domains      : {}", self.distinct_domains)?;
        writeln!(f, "  ≥1 unreachable address: {}", self.any_unreachable)?;
        writeln!(f, "  reachable hints-only  : {}", self.hint_only)?;
        writeln!(f, "  reachable A-only      : {}", self.a_only)
    }
}

/// Summarize connectivity probes collected over multiple days.
pub fn sec435_connectivity(reports: &[ConnectivityReport]) -> ConnectivitySummary {
    let mut summary = ConnectivitySummary { occurrences: reports.len(), ..Default::default() };
    let mut domains = std::collections::HashSet::new();
    for r in reports {
        domains.insert(r.domain_id);
        if r.any_unreachable() {
            summary.any_unreachable += 1;
        }
        if r.hint_only() {
            summary.hint_only += 1;
        }
        if r.a_only() {
            summary.a_only += 1;
        }
    }
    summary.distinct_domains = domains.len();
    summary
}
