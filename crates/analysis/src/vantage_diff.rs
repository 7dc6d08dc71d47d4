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
use std::collections::{BTreeMap, BTreeSet};

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
    /// HTTPS presence changed between consecutive sampled days. A row
    /// whose resolution failed still counts as an observation here, with
    /// the record absent — so a name that times out one day flaps —
    /// whereas the cross-vantage comparison skips such a row, having no
    /// view to compare.
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

/// One observation packed for the diff: `domain_id << 2 | is_www << 1 |
/// https`. Everything above the low bit is the *name*, so packed rows
/// order as `(domain_id, is_www)` — the order a scan writes them in.
fn pack(o: &Observation) -> u64 {
    u64::from(o.domain_id) << 2 | u64::from(o.is_www()) << 1 | u64::from(o.https())
}

/// The `(domain_id, is_www)` part of a packed row.
fn name_of(row: u64) -> u64 {
    row >> 1
}

/// The HTTPS-presence bit of a packed row.
fn https_of(row: u64) -> bool {
    row & 1 == 1
}

/// Visit `day` of `source` once: fold every row into `tally` and leave in
/// `view` (cleared first) the day's presence view — one packed row per
/// name whose resolution did not fail outright (a failed row is no view
/// to compare, so [`DayDiffs::fold_day`] skips the name for that day),
/// ascending by name.
///
/// A scan writes a day sorted by `(domain_id, is_www)` with each name
/// once, and one pass over the packed rows confirms it. A day that is
/// not — rows out of order, or a name repeated — is stable-sorted by name
/// and the last row of each name kept, which is what inserting the rows
/// into a map in scan order yields.
fn day_view(
    source: &dyn ObservationSource,
    day: u32,
    tally: &mut SourceTally,
    view: &mut Vec<u64>,
) {
    view.clear();
    tally.rows.clear();
    source.for_each_day_filtered(
        ScanFilter::projected(DIFF_PROJECTION).days(day, day),
        &mut |_, obs| {
            view.reserve(obs.len());
            tally.rows.reserve(obs.len());
            for o in obs {
                tally.count(o);
                let row = pack(o);
                tally.rows.push(row);
                if !o.has(scanner::flags::RESOLUTION_FAILED) {
                    view.push(row);
                }
            }
        },
    );
    tally.merge_day();
    if !view.windows(2).all(|w| name_of(w[0]) < name_of(w[1])) {
        view.sort_by_key(|&row| name_of(row));
        view.dedup_by(|later, kept| {
            let same = name_of(*later) == name_of(*kept);
            if same {
                *kept = *later;
            }
            same
        });
    }
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
/// disk-backed [`scanner::StoreReader`]s — in one streaming visit per
/// (source, common day): a day is read once, and no more than one day's
/// view per source is held at a time.
pub fn vantage_diff_sources(sources: &[&dyn ObservationSource]) -> VantageDiffReport {
    let vantages: Vec<String> = sources.iter().map(|s| s.vantage().to_string()).collect();
    let days = common_days(sources);

    let mut diff = DayDiffs::default();
    let mut tallies: Vec<SourceTally> = sources.iter().map(|_| SourceTally::default()).collect();
    let mut views: Vec<Vec<u64>> = vec![Vec::new(); sources.len()];
    for &day in &days {
        for ((source, tally), view) in sources.iter().zip(&mut tallies).zip(&mut views) {
            day_view(*source, day, tally, view);
        }
        diff.fold_day(day, &views, &vantages);
    }
    diff.into_report(vantages, days, tallies)
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

/// Disagreement accumulators, folded one day at a time in day order —
/// the single diff loop both the sequential and parallel scans share, so
/// their reports cannot drift apart.
#[derive(Default)]
struct DayDiffs {
    disagreements: Vec<VantageDisagreement>,
    per_day: BTreeMap<u32, usize>,
    disagreeing_domains: BTreeSet<u32>,
    /// One position per view after the first, reused across days.
    cursors: Vec<usize>,
}

impl DayDiffs {
    /// Merge one day's views (each ascending by name, one row per name):
    /// walk the first and advance a cursor through each of the others. A
    /// name some view lacks is skipped; a name every view holds is
    /// compared, and only a disagreement clones the labels.
    fn fold_day(&mut self, day: u32, views: &[Vec<u64>], vantages: &[String]) {
        // No view at all means no source, hence no day to fold.
        let Some((first, others)) = views.split_first() else { return };
        let mut count = 0usize;
        self.cursors.clear();
        self.cursors.resize(others.len(), 0);
        'names: for &row in first {
            let name = name_of(row);
            let mut disagree = false;
            for (view, at) in others.iter().zip(&mut self.cursors) {
                *at += view[*at..].iter().take_while(|&&r| name_of(r) < name).count();
                match view.get(*at) {
                    Some(&r) if name_of(r) == name => disagree |= https_of(r) != https_of(row),
                    _ => continue 'names,
                }
            }
            if !disagree {
                continue;
            }
            // Every cursor now rests on this name's row in its view.
            let rows = others.iter().zip(&self.cursors).map(|(view, &at)| view[at]);
            let (mut present_in, mut absent_in) = (Vec::new(), Vec::new());
            for (r, label) in std::iter::once(row).chain(rows).zip(vantages) {
                if https_of(r) { &mut present_in } else { &mut absent_in }.push(label.clone());
            }
            let domain_id = (name >> 1) as u32;
            self.disagreements.push(VantageDisagreement {
                day,
                domain_id,
                is_www: name & 1 == 1,
                present_in,
                absent_in,
            });
            self.disagreeing_domains.insert(domain_id);
            count += 1;
        }
        self.per_day.insert(day, count);
    }

    fn into_report(
        self,
        vantages: Vec<String>,
        days: Vec<u32>,
        tallies: Vec<SourceTally>,
    ) -> VantageDiffReport {
        let summaries = tallies
            .into_iter()
            .zip(&vantages)
            .map(|(t, v)| t.into_summary(v, days.len()))
            .collect();
        VantageDiffReport {
            vantages,
            days,
            disagreements: self.disagreements,
            per_day: self.per_day,
            disagreeing_domains: self.disagreeing_domains,
            summaries,
        }
    }
}

/// What the flapping figure keeps of one name's presence timeline.
struct Track {
    name: u64,
    /// Rows seen so far, failed ones included.
    rows: usize,
    /// HTTPS presence in the latest row.
    last: bool,
    /// Whether two consecutive rows ever differed.
    flapped: bool,
}

/// Per-source summary tallies, accumulated one [`day_view`] at a time.
#[derive(Default)]
struct SourceTally {
    positives: usize,
    resolution_failures: usize,
    timeouts: usize,
    /// Ascending by name: O(names seen), whatever the number of days.
    tracks: Vec<Track>,
    /// The day being read, every row packed in scan order; reused.
    rows: Vec<u64>,
}

impl SourceTally {
    /// Fold one row of a common day into the scalar tallies.
    fn count(&mut self, o: &Observation) {
        if !o.is_www() && o.https() {
            self.positives += 1;
        }
        if o.has(scanner::flags::RESOLUTION_FAILED) {
            self.resolution_failures += 1;
            if o.has(scanner::flags::RESOLUTION_TIMEOUT) {
                self.timeouts += 1;
            }
        }
    }

    /// Merge the day in `rows` into `tracks`. Failed rows take part (as
    /// whatever their HTTPS bit says, i.e. absent), and a repeated name
    /// contributes every one of its rows, in scan order.
    fn merge_day(&mut self) {
        if !self.rows.windows(2).all(|w| name_of(w[0]) <= name_of(w[1])) {
            self.rows.sort_by_key(|&row| name_of(row));
        }
        let known = self.tracks.len();
        // A day longer than the names known brings at least the
        // difference in new ones (the whole first day, typically).
        self.tracks.reserve(self.rows.len().saturating_sub(known));
        let mut at = 0;
        for &row in &self.rows {
            let (name, https) = (name_of(row), https_of(row));
            at += self.tracks[at..known].iter().take_while(|t| t.name < name).count();
            let i = if at < known && self.tracks[at].name == name {
                at
            } else {
                // A new name is appended once; its repeats, next in
                // name order, find it at the end.
                if self.tracks.last().is_none_or(|t| t.name != name) {
                    self.tracks.push(Track { name, rows: 0, last: https, flapped: false });
                }
                self.tracks.len() - 1
            };
            let t = &mut self.tracks[i];
            t.rows += 1;
            t.flapped |= t.last != https;
            t.last = https;
        }
        // The new names were appended in order: after known ones that
        // makes two sorted runs, which the stable sort merges in one pass.
        if 0 < known && known < self.tracks.len() {
            self.tracks.sort_by_key(|t| t.name);
        }
    }

    fn into_summary(self, vantage: &str, day_count: usize) -> VantageSummary {
        let mean_positive =
            if day_count == 0 { 0.0 } else { self.positives as f64 / day_count as f64 };
        // Flapping: domains observed every day whose presence changed
        // between consecutive sampled days.
        let full = self.tracks.iter().filter(|t| t.rows == day_count);
        let flapped = full.clone().filter(|t| t.flapped).count();
        let full = full.count();
        let flapping_rate = if full == 0 { 0.0 } else { flapped as f64 / full as f64 };
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
/// Each source is read on its own scoped thread, which runs the same
/// `day_view` per common day as the sequential pass — one visit builds
/// the day's view *and* folds the summary tallies — and sends each view
/// through a bounded channel (at most two days in flight per source — the
/// multi-vantage analogue of the reader's one-day residency bound). The
/// coordinator receives one view per source per common day, in day
/// order, and folds them through the same `DayDiffs` loop and
/// `SourceTally` arithmetic — the report, including every
/// floating-point field, is byte-identical to [`vantage_diff_sources`].
pub fn vantage_diff_parallel(sources: &[&dyn ObservationSource]) -> VantageDiffReport {
    let vantages: Vec<String> = sources.iter().map(|s| s.vantage().to_string()).collect();
    let days = common_days(sources);

    let mut diff = DayDiffs::default();
    let tallies: Vec<SourceTally> = std::thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(sources.len());
        let mut handles = Vec::with_capacity(sources.len());
        for &source in sources {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u64>>(2);
            receivers.push(rx);
            let days = &days;
            handles.push(scope.spawn(move || {
                let mut tally = SourceTally::default();
                for &day in days {
                    let mut view = Vec::new();
                    day_view(source, day, &mut tally, &mut view);
                    // A full channel blocks here, bounding how far this
                    // reader can run ahead of the coordinator. A closed
                    // one means the coordinator is gone (it panicked).
                    if tx.send(view).is_err() {
                        break;
                    }
                }
                tally
            }));
        }
        for &day in &days {
            let views: Vec<Vec<u64>> = receivers
                .iter()
                .map(|rx| rx.recv().expect("vantage reader thread died mid-scan"))
                .collect();
            diff.fold_day(day, &views, &vantages);
        }
        drop(receivers);
        handles.into_iter().map(|h| h.join().expect("vantage reader thread panicked")).collect()
    });
    diff.into_report(vantages, days, tallies)
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
    use proptest::prelude::*;
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

    /// The per-row hash-map diff this module used before the sorted
    /// views, kept as the reference the property test compares against.
    mod oracle {
        use super::super::*;
        use std::collections::HashMap;

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

        #[derive(Default)]
        struct DayDiffs {
            disagreements: Vec<VantageDisagreement>,
            per_day: BTreeMap<u32, usize>,
            disagreeing_domains: BTreeSet<u32>,
        }

        impl DayDiffs {
            fn fold_day(
                &mut self,
                day: u32,
                views: &[HashMap<(u32, bool), bool>],
                vantages: &[String],
            ) {
                let mut count = 0usize;
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

        #[derive(Default)]
        struct SourceTally {
            positives: usize,
            resolution_failures: usize,
            timeouts: usize,
            timelines: HashMap<(u32, bool), Vec<bool>>,
        }

        impl SourceTally {
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
                let full: Vec<&Vec<bool>> =
                    self.timelines.values().filter(|t| t.len() == day_count).collect();
                let flapped = full.iter().filter(|t| t.windows(2).any(|w| w[0] != w[1])).count();
                let flapping_rate =
                    if full.is_empty() { 0.0 } else { flapped as f64 / full.len() as f64 };
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

            let common: BTreeSet<u32> = days.iter().copied().collect();
            let summaries = sources
                .iter()
                .map(|s| {
                    let mut tally = SourceTally::default();
                    s.for_each_day_filtered(
                        ScanFilter::projected(DIFF_PROJECTION),
                        &mut |day, obs| {
                            if common.contains(&day) {
                                obs.iter().for_each(|o| tally.fold_row(o));
                            }
                        },
                    );
                    tally.into_summary(s.vantage(), days.len())
                })
                .collect();

            VantageDiffReport {
                vantages,
                days,
                disagreements,
                per_day,
                disagreeing_domains,
                summaries,
            }
        }
    }

    /// One generated row: (domain id, www, https, failure shape 0..4).
    type Row = (u32, bool, bool, u8);
    /// One generated source: two day masks (or-ed, so most of the six
    /// candidate days are present but not all) and six days of rows, each
    /// with a flag saying whether to put it in scan order first.
    type Source = (u8, u8, Vec<(bool, Vec<Row>)>);

    fn row_strategy() -> impl Strategy<Value = Row> {
        // A small pool, so names repeat within a day and meet across
        // views, plus the top of the id range.
        let id = prop_oneof![0u32..6, 0u32..6, u32::MAX - 1..=u32::MAX];
        (id, any::<bool>(), any::<bool>(), 0u8..4)
    }

    fn source_strategy() -> impl Strategy<Value = Source> {
        let day = (any::<bool>(), proptest::collection::vec(row_strategy(), 0..12));
        (any::<u8>(), any::<u8>(), proptest::collection::vec(day, 6))
    }

    fn build(index: usize, (mask_a, mask_b, days): &Source) -> SnapshotStore {
        let mut s = SnapshotStore::with_vantage(&format!("v{index}"));
        for (day, (in_scan_order, rows)) in days.iter().enumerate() {
            if (mask_a | mask_b) & (1 << day) == 0 {
                continue;
            }
            let day = 3 * day as u32;
            let mut rows: Vec<Observation> = rows
                .iter()
                .map(|&(id, www, https, failure)| {
                    let failed = match failure {
                        2 => flags::RESOLUTION_FAILED,
                        3 => flags::RESOLUTION_FAILED | flags::RESOLUTION_TIMEOUT,
                        _ => 0,
                    };
                    let www = if www { flags::IS_WWW } else { 0 };
                    // `obs` derives the rank from the id, which overflows
                    // at the top of the id range.
                    let mut o = obs(day, 0, https);
                    o.domain_id = id;
                    o.flags |= www | failed;
                    o
                })
                .collect();
            if *in_scan_order {
                rows.sort_by_key(|o| (o.domain_id, o.is_www()));
            }
            s.push_day(day, rows);
        }
        s
    }

    fn assert_same_report(got: &VantageDiffReport, want: &VantageDiffReport) {
        assert_eq!(got.vantages, want.vantages);
        assert_eq!(got.days, want.days);
        assert_eq!(got.disagreements, want.disagreements);
        assert_eq!(got.per_day, want.per_day);
        assert_eq!(got.disagreeing_domains, want.disagreeing_domains);
        let bits = |r: &VantageDiffReport| -> Vec<_> {
            r.summaries
                .iter()
                .map(|s| {
                    (
                        s.vantage.clone(),
                        s.mean_positive.to_bits(),
                        s.flapping_rate.to_bits(),
                        s.cache_hit_rate.map(f64::to_bits),
                        s.resolution_failures,
                        s.timeouts,
                    )
                })
                .collect()
        };
        assert_eq!(bits(got), bits(want));
        assert_eq!(got.to_string(), want.to_string());
    }

    proptest! {
        #[test]
        fn merged_views_equal_the_hash_map_diff_they_replaced(
            generated in proptest::collection::vec(source_strategy(), 1..=4),
        ) {
            let stores: Vec<SnapshotStore> =
                generated.iter().enumerate().map(|(i, g)| build(i, g)).collect();
            let sources: Vec<&dyn ObservationSource> =
                stores.iter().map(|s| s as &dyn ObservationSource).collect();
            let want = oracle::vantage_diff_sources(&sources);
            assert_same_report(&vantage_diff_sources(&sources), &want);
            assert_same_report(&vantage_diff_parallel(&sources), &want);
        }
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
