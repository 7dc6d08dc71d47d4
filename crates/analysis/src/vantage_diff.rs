//! Cross-vantage comparison (§4.2.3's resolver-view experiment): diff
//! the labelled per-vantage [`SnapshotStore`]s a multi-vantage campaign
//! produces, surfacing domains whose HTTPS record is visible through one
//! resolver view but not another, per-day disagreement counts, and
//! per-vantage flapping rates.
//!
//! The interesting population is mixed-provider NS zones: one provider's
//! servers publish the HTTPS record, the co-delegated provider's servers
//! do not, so whether a vantage sees the record is decided entirely by
//! its NS selection strategy. A `First`-pinned vantage reports a stable
//! view while rotating/randomized vantages flap — exactly the paper's
//! observation that the record's visibility depends on where you look
//! from.

use scanner::{Observation, ObservationSource, Projection, ScanFilter, SnapshotStore, VantageRun};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Columns the diff actually reads: HTTPS/www/failure bits and the
/// domain id. Disk-backed sources skip decoding the other columns.
const DIFF_PROJECTION: Projection = Projection::FLAGS.with(Projection::DOMAIN_ID);

/// One cross-vantage disagreement: a (day, name) whose HTTPS presence
/// differs between resolver views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VantageDisagreement {
    /// Scan day.
    pub day: u32,
    /// Universe domain id.
    pub domain_id: u32,
    /// Whether this is the www observation.
    pub is_www: bool,
    /// Vantage labels that saw the HTTPS record.
    pub present_in: Vec<String>,
    /// Vantage labels that did not.
    pub absent_in: Vec<String>,
}

/// Per-vantage summary statistics.
#[derive(Debug, Clone)]
pub struct VantageSummary {
    /// Vantage label.
    pub vantage: String,
    /// Mean HTTPS-positive apex count per day.
    pub mean_positive: f64,
    /// Flapping rate: fraction of domains observed on every day whose
    /// HTTPS presence changed between consecutive sampled days.
    pub flapping_rate: f64,
    /// Cache-level hit rate of this vantage's resolver over the whole
    /// campaign, sourced from the telemetry registries
    /// ([`vantage_diff_runs`]); `None` when diffing bare stores.
    pub cache_hit_rate: Option<f64>,
    /// Total rows whose resolution failed outright
    /// ([`scanner::flags::RESOLUTION_FAILED`]) over the common days.
    pub resolution_failures: usize,
    /// Subset of [`Self::resolution_failures`] that were timeout-shaped
    /// ([`scanner::flags::RESOLUTION_TIMEOUT`]): the query went out but
    /// ran out the retransmit budget — loss/lameness as seen from this
    /// vantage, as opposed to NXDOMAIN-shaped failures.
    pub timeouts: usize,
}

/// The full cross-vantage diff report.
#[derive(Debug, Clone)]
pub struct VantageDiffReport {
    /// Vantage labels, in store order.
    pub vantages: Vec<String>,
    /// Days common to every store (only these are compared).
    pub days: Vec<u32>,
    /// Every cross-vantage disagreement, in (day, domain, www) order.
    pub disagreements: Vec<VantageDisagreement>,
    /// Disagreement count per day.
    pub per_day: BTreeMap<u32, usize>,
    /// Distinct domains with at least one disagreement.
    pub disagreeing_domains: BTreeSet<u32>,
    /// Per-vantage summaries (positive counts, flapping).
    pub summaries: Vec<VantageSummary>,
}

impl VantageDiffReport {
    /// Whether any resolver views disagreed.
    pub fn has_disagreements(&self) -> bool {
        !self.disagreements.is_empty()
    }
}

impl std::fmt::Display for VantageDiffReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Cross-vantage diff ({} views, {} days)",
            self.vantages.len(),
            self.days.len()
        )?;
        for s in &self.summaries {
            write!(
                f,
                "  {:<12} mean HTTPS-positive {:8.1}/day   flapping {:5.2}%",
                s.vantage,
                s.mean_positive,
                100.0 * s.flapping_rate
            )?;
            if s.resolution_failures > 0 {
                write!(f, "   failed {} (timeout {})", s.resolution_failures, s.timeouts)?;
            }
            match s.cache_hit_rate {
                Some(rate) => writeln!(f, "   cache-hit {:5.2}%", 100.0 * rate)?,
                None => writeln!(f)?,
            }
        }
        writeln!(
            f,
            "  disagreements: {} rows over {} domains",
            self.disagreements.len(),
            self.disagreeing_domains.len()
        )?;
        for (day, n) in &self.per_day {
            if *n > 0 {
                writeln!(f, "    day {day:>4}: {n}")?;
            }
        }
        Ok(())
    }
}

/// Presence key: (domain, www-flag) → HTTPS seen. Skips rows whose
/// resolution failed outright (no view to compare — the `everywhere`
/// filter in [`vantage_diff_sources`] then drops the name for that day).
fn presence_of(source: &dyn ObservationSource, day: u32) -> HashMap<(u32, bool), bool> {
    let mut map = HashMap::new();
    source.for_each_day_filtered(
        ScanFilter::projected(DIFF_PROJECTION).days(day, day),
        &mut |_, obs| {
            map.extend(
                obs.iter()
                    .filter(|o| !o.has(scanner::flags::RESOLUTION_FAILED))
                    .map(|o| ((o.domain_id, o.is_www()), o.https())),
            );
        },
    );
    map
}

/// Diff per-vantage stores produced by one multi-vantage campaign run.
///
/// Compares the days present in *every* store (a store missing a day
/// contributes nothing for it) and reports every (day, name) where at
/// least two views disagree about HTTPS presence. For stores bundled
/// with telemetry, [`vantage_diff_runs`] adds the cache-hit-rate
/// column.
pub fn vantage_diff(stores: &[SnapshotStore]) -> VantageDiffReport {
    let sources: Vec<&dyn ObservationSource> =
        stores.iter().map(|s| s as &dyn ObservationSource).collect();
    vantage_diff_sources(&sources)
}

/// Diff any mix of observation sources — in-memory [`SnapshotStore`]s or
/// disk-backed [`scanner::StoreReader`]s — one streamed day at a time,
/// never materializing more than one day per source.
pub fn vantage_diff_sources(sources: &[&dyn ObservationSource]) -> VantageDiffReport {
    let vantages: Vec<String> = sources.iter().map(|s| s.vantage().to_string()).collect();
    let days = common_days(sources);

    let mut diff = DayDiffs::default();
    for &day in &days {
        let views: Vec<HashMap<(u32, bool), bool>> =
            sources.iter().map(|s| presence_of(*s, day)).collect();
        diff.fold_day(day, &views, &vantages);
    }
    let DayDiffs { disagreements, per_day, disagreeing_domains } = diff;

    // One streaming pass per source over the common days: positive and
    // failure tallies plus the per-name presence timelines for flapping.
    let common: BTreeSet<u32> = days.iter().copied().collect();
    let summaries = sources
        .iter()
        .map(|s| {
            let mut tally = SourceTally::default();
            s.for_each_day_filtered(common_filter(&days), &mut |day, obs| {
                if common.contains(&day) {
                    obs.iter().for_each(|o| tally.fold_row(o));
                }
            });
            tally.into_summary(s.vantage(), days.len())
        })
        .collect();

    VantageDiffReport { vantages, days, disagreements, per_day, disagreeing_domains, summaries }
}

/// Days present in every source, ascending — the only days compared.
fn common_days(sources: &[&dyn ObservationSource]) -> Vec<u32> {
    let mut days: Vec<u32> = match sources.first() {
        Some(s) => s.days(),
        None => Vec::new(),
    };
    for s in sources.iter().skip(1) {
        let own: BTreeSet<u32> = s.days().into_iter().collect();
        days.retain(|d| own.contains(d));
    }
    days
}

/// Day-range-pruned scan filter over the common days (every day when
/// there are none — the visitor re-checks membership either way).
fn common_filter(days: &[u32]) -> ScanFilter {
    let filter = ScanFilter::projected(DIFF_PROJECTION);
    match (days.first(), days.last()) {
        (Some(&first), Some(&last)) => filter.days(first, last),
        _ => filter,
    }
}

/// Disagreement accumulators, folded one day at a time in day order —
/// the single diff loop both the sequential and parallel scans share, so
/// their reports cannot drift apart.
#[derive(Default)]
struct DayDiffs {
    disagreements: Vec<VantageDisagreement>,
    per_day: BTreeMap<u32, usize>,
    disagreeing_domains: BTreeSet<u32>,
}

impl DayDiffs {
    fn fold_day(&mut self, day: u32, views: &[HashMap<(u32, bool), bool>], vantages: &[String]) {
        let mut count = 0usize;
        // Keys present in every view, in deterministic order.
        let keys: BTreeSet<(u32, bool)> = match views.first() {
            Some(v) => v.keys().copied().collect(),
            None => BTreeSet::new(),
        };
        for key in keys {
            let mut present_in = Vec::new();
            let mut absent_in = Vec::new();
            let mut everywhere = true;
            for (view, label) in views.iter().zip(vantages) {
                match view.get(&key) {
                    Some(true) => present_in.push(label.clone()),
                    Some(false) => absent_in.push(label.clone()),
                    None => everywhere = false,
                }
            }
            if everywhere && !present_in.is_empty() && !absent_in.is_empty() {
                self.disagreements.push(VantageDisagreement {
                    day,
                    domain_id: key.0,
                    is_www: key.1,
                    present_in,
                    absent_in,
                });
                self.disagreeing_domains.insert(key.0);
                count += 1;
            }
        }
        self.per_day.insert(day, count);
    }
}

/// Per-source summary tallies accumulated during one streaming pass.
#[derive(Default)]
struct SourceTally {
    positives: usize,
    resolution_failures: usize,
    timeouts: usize,
    timelines: HashMap<(u32, bool), Vec<bool>>,
}

impl SourceTally {
    /// Fold one row of a common day into the tallies.
    fn fold_row(&mut self, o: &Observation) {
        if !o.is_www() && o.https() {
            self.positives += 1;
        }
        if o.has(scanner::flags::RESOLUTION_FAILED) {
            self.resolution_failures += 1;
            if o.has(scanner::flags::RESOLUTION_TIMEOUT) {
                self.timeouts += 1;
            }
        }
        self.timelines.entry((o.domain_id, o.is_www())).or_default().push(o.https());
    }

    fn into_summary(self, vantage: &str, day_count: usize) -> VantageSummary {
        let mean_positive =
            if day_count == 0 { 0.0 } else { self.positives as f64 / day_count as f64 };
        // Flapping: domains observed every day whose presence changed
        // between consecutive sampled days.
        let full: Vec<&Vec<bool>> =
            self.timelines.values().filter(|t| t.len() == day_count).collect();
        let flapped = full.iter().filter(|t| t.windows(2).any(|w| w[0] != w[1])).count();
        let flapping_rate = if full.is_empty() { 0.0 } else { flapped as f64 / full.len() as f64 };
        VantageSummary {
            vantage: vantage.to_string(),
            mean_positive,
            flapping_rate,
            cache_hit_rate: None,
            resolution_failures: self.resolution_failures,
            timeouts: self.timeouts,
        }
    }
}

/// [`vantage_diff_sources`] with one reader thread per source.
///
/// Each source is streamed exactly once on its own scoped thread, which
/// builds the per-day presence map *and* the summary tallies in the same
/// pass, sending each day's presence through a bounded channel (at most
/// two days in flight per source — the multi-vantage analogue of the
/// reader's one-day residency bound). The coordinator receives one view
/// per source per common day, in day order, and folds them through the
/// same [`DayDiffs`] loop and [`SourceTally`] arithmetic as the
/// sequential pass — the report, including every floating-point field,
/// is byte-identical to [`vantage_diff_sources`].
pub fn vantage_diff_parallel(sources: &[&dyn ObservationSource]) -> VantageDiffReport {
    let vantages: Vec<String> = sources.iter().map(|s| s.vantage().to_string()).collect();
    let days = common_days(sources);
    let common: BTreeSet<u32> = days.iter().copied().collect();

    let mut diff = DayDiffs::default();
    let tallies: Vec<SourceTally> = std::thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(sources.len());
        let mut handles = Vec::with_capacity(sources.len());
        for &source in sources {
            let (tx, rx) = std::sync::mpsc::sync_channel::<HashMap<(u32, bool), bool>>(2);
            receivers.push(rx);
            let (common, days) = (&common, &days);
            handles.push(scope.spawn(move || {
                let mut tally = SourceTally::default();
                source.for_each_day_filtered(common_filter(days), &mut |day, obs| {
                    if !common.contains(&day) {
                        return;
                    }
                    let mut presence = HashMap::with_capacity(obs.len());
                    for o in obs {
                        if !o.has(scanner::flags::RESOLUTION_FAILED) {
                            presence.insert((o.domain_id, o.is_www()), o.https());
                        }
                        tally.fold_row(o);
                    }
                    // A full channel blocks here, bounding how far this
                    // reader can run ahead of the coordinator. A closed
                    // one means the coordinator is gone (it panicked);
                    // keep draining so the scan finishes cleanly.
                    let _ = tx.send(presence);
                });
                tally
            }));
        }
        for &day in &days {
            let views: Vec<HashMap<(u32, bool), bool>> = receivers
                .iter()
                .map(|rx| rx.recv().expect("vantage reader thread died mid-scan"))
                .collect();
            diff.fold_day(day, &views, &vantages);
        }
        drop(receivers);
        handles.into_iter().map(|h| h.join().expect("vantage reader thread panicked")).collect()
    });
    let DayDiffs { disagreements, per_day, disagreeing_domains } = diff;
    let summaries =
        tallies.into_iter().zip(&vantages).map(|(t, v)| t.into_summary(v, days.len())).collect();
    VantageDiffReport { vantages, days, disagreements, per_day, disagreeing_domains, summaries }
}

/// Diff an instrumented campaign's [`VantageRun`]s: identical to
/// [`vantage_diff`] over the bundled stores, plus a per-vantage
/// cache-hit-rate column sourced from each run's telemetry (the
/// resolver-cache view in which the preset profiles differ — e.g. the
/// non-validating `isp` preset revisits cached keys far less than the
/// validating `google`/`cloudflare` ones at daily cadence).
pub fn vantage_diff_runs(runs: &[VantageRun]) -> VantageDiffReport {
    let sources: Vec<&dyn ObservationSource> =
        runs.iter().map(|r| &r.store as &dyn ObservationSource).collect();
    let mut report = vantage_diff_sources(&sources);
    for (summary, run) in report.summaries.iter_mut().zip(runs) {
        summary.cache_hit_rate = Some(run.cache.hit_rate());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanner::{flags, Observation, OrgId};

    fn obs(day: u32, id: u32, https: bool) -> Observation {
        Observation {
            day,
            domain_id: id,
            rank: id + 1,
            flags: if https { flags::HTTPS_PRESENT } else { 0 },
            ns_category: 0,
            org: OrgId(0),
            min_priority: 1,
        }
    }

    fn store(vantage: &str, days: &[(u32, Vec<Observation>)]) -> SnapshotStore {
        let mut s = SnapshotStore::with_vantage(vantage);
        for (day, obs) in days {
            s.push_day(*day, obs.clone());
        }
        s
    }

    #[test]
    fn detects_cross_vantage_disagreement() {
        let a = store("pinned", &[(0, vec![obs(0, 1, true), obs(0, 2, true)])]);
        let b = store("random", &[(0, vec![obs(0, 1, true), obs(0, 2, false)])]);
        let report = vantage_diff(&[a, b]);
        assert!(report.has_disagreements());
        assert_eq!(report.disagreements.len(), 1);
        let d = &report.disagreements[0];
        assert_eq!((d.day, d.domain_id), (0, 2));
        assert_eq!(d.present_in, vec!["pinned".to_string()]);
        assert_eq!(d.absent_in, vec!["random".to_string()]);
        assert_eq!(report.per_day[&0], 1);
        assert!(report.disagreeing_domains.contains(&2));
    }

    #[test]
    fn agreement_produces_empty_report() {
        let a = store("x", &[(0, vec![obs(0, 1, true)]), (1, vec![obs(1, 1, true)])]);
        let b = store("y", &[(0, vec![obs(0, 1, true)]), (1, vec![obs(1, 1, true)])]);
        let report = vantage_diff(&[a, b]);
        assert!(!report.has_disagreements());
        assert_eq!(report.days, vec![0, 1]);
        assert_eq!(report.summaries[0].flapping_rate, 0.0);
    }

    #[test]
    fn flapping_rate_counts_presence_changes() {
        let a = store(
            "flappy",
            &[
                (0, vec![obs(0, 1, true), obs(0, 2, true)]),
                (1, vec![obs(1, 1, false), obs(1, 2, true)]),
            ],
        );
        let report = vantage_diff(std::slice::from_ref(&a));
        assert!((report.summaries[0].flapping_rate - 0.5).abs() < 1e-9);
        assert!((report.summaries[0].mean_positive - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_store_slice_yields_empty_report() {
        let report = vantage_diff(&[]);
        assert!(!report.has_disagreements());
        assert!(report.days.is_empty());
        assert!(report.vantages.is_empty());
        assert!(report.summaries.is_empty());
    }

    #[test]
    fn only_common_days_are_compared() {
        let a = store("a", &[(0, vec![obs(0, 1, true)]), (1, vec![obs(1, 1, false)])]);
        let b = store("b", &[(0, vec![obs(0, 1, true)])]);
        let report = vantage_diff(&[a, b]);
        assert_eq!(report.days, vec![0]);
        assert!(!report.has_disagreements());
    }

    #[test]
    fn failure_and_timeout_tallies_are_counted_per_vantage() {
        let mut failed = obs(0, 2, false);
        failed.flags |= flags::RESOLUTION_FAILED;
        let mut timed_out = obs(0, 3, false);
        timed_out.flags |= flags::RESOLUTION_FAILED | flags::RESOLUTION_TIMEOUT;
        let a = store("lossy", &[(0, vec![obs(0, 1, true), failed, timed_out])]);
        let b = store("clean", &[(0, vec![obs(0, 1, true), obs(0, 2, true), obs(0, 3, true)])]);
        let report = vantage_diff(&[a, b]);
        assert_eq!(report.summaries[0].resolution_failures, 2);
        assert_eq!(report.summaries[0].timeouts, 1);
        assert_eq!(report.summaries[1].resolution_failures, 0);
        assert_eq!(report.summaries[1].timeouts, 0);
        let text = report.to_string();
        assert!(text.contains("failed 2 (timeout 1)"));
    }

    #[test]
    fn display_renders_summary_lines() {
        let a = store("pinned", &[(0, vec![obs(0, 1, true)])]);
        let b = store("random", &[(0, vec![obs(0, 1, false)])]);
        let text = vantage_diff(&[a, b]).to_string();
        assert!(text.contains("Cross-vantage diff"));
        assert!(text.contains("pinned"));
        assert!(text.contains("disagreements: 1 rows over 1 domains"));
    }
}
