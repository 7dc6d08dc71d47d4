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

use crate::merge::Tracks;
use scanner::{Observation, ObservationSource, Projection, ScanFilter, SnapshotStore, VantageRun};
use std::collections::{BTreeMap, BTreeSet};

/// Columns the diff actually reads: HTTPS/www/failure bits and the
/// domain id. Disk-backed sources skip decoding the other columns.
const DIFF_PROJECTION: Projection = Projection::FLAGS.with(Projection::DOMAIN_ID);

/// The most views one diff compares: a disagreement row holds each
/// view's presence as one bit of a word.
const MAX_VIEWS: usize = u64::BITS as usize;

/// One cross-vantage disagreement: a (day, name) whose HTTPS presence
/// differs between resolver views. Every view held the name that day;
/// which ones saw the record is one bit per view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VantageDisagreement {
    /// Scan day.
    pub day: u32,
    /// Universe domain id.
    pub domain_id: u32,
    /// Whether this is the www observation.
    pub is_www: bool,
    /// Bit `i` set: the view labelled `vantages[i]` of the report saw
    /// the HTTPS record; clear: it did not.
    pub present: u64,
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

/// Common days one visit per source reads together: the store reader
/// reads and checksums up to four adjacent chunks at once.
const BLOCK_DAYS: usize = 4;

/// The flag bits below a packed row's name.
const FLAG_BITS: u32 = 3;
/// A packed row's bit for an observation whose resolution failed.
const FAILED: u64 = 0b010;
/// A packed row's bit for a failed resolution that timed out.
const TIMED_OUT: u64 = 0b100;
/// A packed row's `is_www` bit, the lowest bit of its name.
const WWW: u64 = 1 << FLAG_BITS;

/// One observation packed for the diff: `(domain_id << 1 | is_www) << 3
/// | timed_out << 2 | failed << 1 | https`. Everything above the flag
/// bits is the *name*, so packed rows order as `(domain_id, is_www)` —
/// the order a scan writes them in.
fn pack(o: &Observation) -> u64 {
    let name = u64::from(o.domain_id) << 1 | u64::from(o.is_www());
    let failed = o.has(scanner::flags::RESOLUTION_FAILED);
    let timed_out = o.has(scanner::flags::RESOLUTION_FAILED | scanner::flags::RESOLUTION_TIMEOUT);
    name << FLAG_BITS | u64::from(timed_out) << 2 | u64::from(failed) << 1 | u64::from(o.https())
}

/// The `(domain_id, is_www)` part of a packed row.
fn name_of(row: &u64) -> u64 {
    row >> FLAG_BITS
}

/// The HTTPS-presence bit of a packed row.
fn https_of(row: u64) -> bool {
    row & 1 == 1
}

/// Append one day's rows to `rows`, packed, and fold them into `tally`:
/// the day's view, which [`DayDiffs::fold_day`] compares.
///
/// A scan writes a day sorted by `(domain_id, is_www)` with each name
/// once, and one pass over the packed rows confirms it. A day that is
/// not is stable-sorted by name, so a repeated name's rows stay in scan
/// order: the tally folds every one of them, and the diff compares the
/// last that did not fail — what a map filled in scan order holds.
fn push_day(obs: &[Observation], tally: &mut SourceTally, rows: &mut Vec<u64>) {
    let start = rows.len();
    rows.extend(obs.iter().map(pack));
    let day = &mut rows[start..];
    if !day.windows(2).all(|w| name_of(&w[0]) <= name_of(&w[1])) {
        day.sort_by_key(name_of);
    }
    tally.merge_day(day);
}

/// The row of `name` a view compares, if any: the last of its rows at
/// `*at` that did not fail (a failed row is no view to compare). `*at`
/// ends past the name's rows; the rows before it must name less.
fn compared_row(view: &[u64], at: &mut usize, name: u64) -> Option<u64> {
    while *at < view.len() && name_of(&view[*at]) < name {
        *at += 1;
    }
    let mut compared = None;
    while let Some(&row) = view.get(*at).filter(|row| name_of(row) == name) {
        if row & FAILED == 0 {
            compared = Some(row);
        }
        *at += 1;
    }
    compared
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
/// disk-backed [`scanner::StoreReader`]s — walking the common days in
/// blocks of up to four: one streaming visit per (source, block) reads
/// the block's days, so a disk source reads and checksums them as one
/// read group, skipping the days in the block's range that some other
/// source lacks. Each day is read once, and no more than one read
/// group, four days, of views is held per source at a time.
///
/// # Panics
///
/// If given more than 64 sources.
pub fn vantage_diff_sources(sources: &[&dyn ObservationSource]) -> VantageDiffReport {
    let vantages = labels(sources);
    let days = common_days(sources);

    let mut diff = DayDiffs::default();
    let mut tallies: Vec<SourceTally> = sources.iter().map(|_| SourceTally::default()).collect();
    let mut blocks: Vec<Block> = sources.iter().map(|_| Block::default()).collect();
    for block_days in days.chunks(BLOCK_DAYS) {
        for ((source, tally), block) in sources.iter().zip(&mut tallies).zip(&mut blocks) {
            block.read(*source, block_days, tally);
        }
        for (j, &day) in block_days.iter().enumerate() {
            diff.fold_day(day, blocks.iter().map(|b| b.day(j)));
        }
    }
    diff.into_report(vantages, days, tallies)
}

/// One source's views of a block of common days: each day's packed rows
/// ([`push_day`]), day after day in one buffer reused from block to
/// block.
#[derive(Default)]
struct Block {
    rows: Vec<u64>,
    /// Where the view of the block's `j`th day starts and ends in `rows`.
    spans: [(usize, usize); BLOCK_DAYS],
}

impl Block {
    /// Read `days` (ascending, at most [`BLOCK_DAYS`]) of `source` in one
    /// visit, folding each into `tally`.
    fn read(&mut self, source: &dyn ObservationSource, days: &[u32], tally: &mut SourceTally) {
        self.rows.clear();
        self.spans = Default::default();
        visit_days(source, days, |j, obs| {
            // Room for this day and, at its size, the rest of the block.
            self.rows.reserve(obs.len() * (days.len() - j));
            let start = self.rows.len();
            push_day(obs, tally, &mut self.rows);
            self.spans[j] = (start, self.rows.len());
        });
    }

    /// The view of the block's `j`th day.
    fn day(&self, j: usize) -> &[u64] {
        let (start, end) = self.spans[j];
        &self.rows[start..end]
    }
}

/// Visit `days` (ascending) of `source` in one visit over their range,
/// handing each to `each` with its index in `days`; the days in the
/// range that are not asked for are skipped.
fn visit_days(
    source: &dyn ObservationSource,
    days: &[u32],
    mut each: impl FnMut(usize, &[Observation]),
) {
    let (Some(&first), Some(&last)) = (days.first(), days.last()) else { return };
    let filter = ScanFilter::projected(DIFF_PROJECTION).days(first, last);
    source.for_each_day_filtered(filter, &mut |day, obs| {
        if let Ok(j) = days.binary_search(&day) {
            each(j, obs);
        }
    });
}

/// The sources' vantage labels, in order.
fn labels(sources: &[&dyn ObservationSource]) -> Vec<String> {
    assert!(sources.len() <= MAX_VIEWS, "a diff compares at most {MAX_VIEWS} views");
    sources.iter().map(|s| s.vantage().to_string()).collect()
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
}

impl DayDiffs {
    /// Merge one day's views (each from [`push_day`], one per source):
    /// walk the names of the first and advance a cursor through each of
    /// the others. A name some view lacks, or holds only in failed rows,
    /// is skipped; a name every view holds is compared.
    fn fold_day<'a>(&mut self, day: u32, views: impl IntoIterator<Item = &'a [u64]>) {
        // The views and their cursors sit on the stack (`labels` holds a
        // diff to `MAX_VIEWS`), so a fold allocates nothing.
        let mut held: [&[u64]; MAX_VIEWS] = [&[]; MAX_VIEWS];
        let mut count = 0;
        for (slot, view) in held.iter_mut().zip(views) {
            *slot = view;
            count += 1;
        }
        // No view at all means no source, hence no day to fold.
        let Some((first, others)) = held[..count].split_first() else { return };
        // Every view's bit: all of them saw the record.
        let everyone = u64::MAX >> (MAX_VIEWS - count);
        let mut cursors = [0usize; MAX_VIEWS];
        let (mut next, mut disagreeing) = (0, 0usize);
        'names: while let Some(name) = first.get(next).map(name_of) {
            let Some(row) = compared_row(first, &mut next, name) else { continue };
            let mut present = u64::from(https_of(row));
            for (i, (view, at)) in others.iter().zip(&mut cursors).enumerate() {
                match compared_row(view, at, name) {
                    Some(r) => present |= u64::from(https_of(r)) << (i + 1),
                    None => continue 'names,
                }
            }
            if present == 0 || present == everyone {
                continue;
            }
            let domain_id = (name >> 1) as u32;
            self.disagreements.push(VantageDisagreement {
                day,
                domain_id,
                is_www: name & 1 == 1,
                present,
            });
            self.disagreeing_domains.insert(domain_id);
            disagreeing += 1;
        }
        self.per_day.insert(day, disagreeing);
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

/// What the flapping figure keeps of one name's presence timeline: 8
/// bytes, so a name's track and key take 16.
#[derive(Clone, Copy, Default)]
struct Track {
    /// Rows seen so far, failed ones included (saturating: four billion
    /// rows of one name is past any campaign).
    rows: u32,
    /// HTTPS presence in the latest row.
    last: bool,
    /// Whether two consecutive rows ever differed.
    flapped: bool,
}

/// Per-source summary tallies, accumulated one [`push_day`] at a time.
#[derive(Default)]
struct SourceTally {
    positives: usize,
    resolution_failures: usize,
    timeouts: usize,
    /// Per name: O(names seen), whatever the number of days.
    tracks: Tracks<Track>,
}

impl SourceTally {
    /// Fold one common day's packed rows, ascending by name, into the
    /// scalar tallies and the tracks. Failed rows take part in the
    /// tracks (as whatever their HTTPS bit says, i.e. absent), and a
    /// repeated name contributes every one of its rows, in scan order.
    fn merge_day(&mut self, rows: &[u64]) {
        for &row in rows {
            self.positives += usize::from(row & (WWW | 1) == 1);
            self.resolution_failures += usize::from(row & FAILED != 0);
            self.timeouts += usize::from(row & TIMED_OUT != 0);
        }
        self.tracks.merge_sorted(rows, name_of, |t, &row| {
            let https = https_of(row);
            t.flapped |= t.rows > 0 && t.last != https;
            t.rows = t.rows.saturating_add(1);
            t.last = https;
        });
    }

    fn into_summary(self, vantage: &str, day_count: usize) -> VantageSummary {
        let mean_positive =
            if day_count == 0 { 0.0 } else { self.positives as f64 / day_count as f64 };
        // Flapping: domains observed every day whose presence changed
        // between consecutive sampled days.
        let full = self.tracks.iter().filter(|(_, t)| t.rows as usize == day_count);
        let flapped = full.clone().filter(|(_, t)| t.flapped).count();
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
/// Each source is read on its own scoped thread in one streaming visit
/// over the common days' range (so a disk source reads its chunks in
/// groups of four), skipping the days some other source lacks. Each
/// common day's view is built by the same `push_day` as the sequential
/// pass — which folds the summary tallies as it builds the view — and
/// sent through a bounded channel: at most two days in flight per
/// source, the reader's own group of four being read and checksummed
/// ahead of them. The coordinator receives one view per source per
/// common day, in day order, and folds them through the same `DayDiffs`
/// loop and `SourceTally` arithmetic — the report, including every
/// floating-point field, is byte-identical to [`vantage_diff_sources`].
///
/// # Panics
///
/// If given more than 64 sources.
pub fn vantage_diff_parallel(sources: &[&dyn ObservationSource]) -> VantageDiffReport {
    let vantages = labels(sources);
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
                // Cleared once the coordinator is gone (it panicked).
                let mut open = true;
                visit_days(source, days, |_, obs| {
                    if !open {
                        return;
                    }
                    let mut view = Vec::new();
                    push_day(obs, &mut tally, &mut view);
                    // A full channel blocks here, bounding how far this
                    // reader can run ahead of the coordinator.
                    open = tx.send(view).is_ok();
                });
                tally
            }));
        }
        let mut views: Vec<Vec<u64>> = Vec::with_capacity(sources.len());
        for &day in &days {
            views.clear();
            views.extend(
                receivers.iter().map(|rx| rx.recv().expect("vantage reader thread died mid-scan")),
            );
            diff.fold_day(day, views.iter().map(Vec::as_slice));
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
            fn fold_day(&mut self, day: u32, views: &[HashMap<(u32, bool), bool>]) {
                let mut count = 0usize;
                let keys: BTreeSet<(u32, bool)> = match views.first() {
                    Some(v) => v.keys().copied().collect(),
                    None => BTreeSet::new(),
                };
                for key in keys {
                    let mut present = 0u64;
                    let (mut any_present, mut any_absent) = (false, false);
                    let mut everywhere = true;
                    for (i, view) in views.iter().enumerate() {
                        match view.get(&key) {
                            Some(true) => {
                                present |= 1 << i;
                                any_present = true;
                            }
                            Some(false) => any_absent = true,
                            None => everywhere = false,
                        }
                    }
                    if everywhere && any_present && any_absent {
                        self.disagreements.push(VantageDisagreement {
                            day,
                            domain_id: key.0,
                            is_www: key.1,
                            present,
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
                diff.fold_day(day, &views);
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

    /// One generated row: (domain id, www, https, failure shape 0..5).
    type Row = (u32, bool, bool, u8);
    /// One generated source: three day masks (or-ed, so most of the ten
    /// candidate days are present but not all) and ten days of rows, each
    /// with a flag saying whether to put it in scan order first. Ten
    /// days make two full four-day read blocks and a tail, and a day one
    /// source lacks falls inside another's block.
    type Source = ((u16, u16, u16), Vec<(bool, Vec<Row>)>);

    /// The candidate days of a generated source.
    const CANDIDATE_DAYS: usize = 10;

    fn row_strategy() -> impl Strategy<Value = Row> {
        // A small pool, so names repeat within a day and meet across
        // views, plus the top of the id range.
        let id = prop_oneof![0u32..6, 0u32..6, u32::MAX - 1..=u32::MAX];
        (id, any::<bool>(), any::<bool>(), 0u8..5)
    }

    fn source_strategy() -> impl Strategy<Value = Source> {
        let day = (any::<bool>(), proptest::collection::vec(row_strategy(), 0..40));
        let masks = (any::<u16>(), any::<u16>(), any::<u16>());
        (masks, proptest::collection::vec(day, CANDIDATE_DAYS))
    }

    fn build(index: usize, ((mask_a, mask_b, mask_c), days): &Source) -> SnapshotStore {
        let mut s = SnapshotStore::with_vantage(&format!("v{index}"));
        for (day, (in_scan_order, rows)) in days.iter().enumerate() {
            if (mask_a | mask_b | mask_c) & (1 << day) == 0 {
                continue;
            }
            let day = 3 * day as u32;
            let mut rows: Vec<Observation> = rows
                .iter()
                .map(|&(id, www, https, failure)| {
                    let failed = match failure {
                        2 => flags::RESOLUTION_FAILED,
                        3 => flags::RESOLUTION_FAILED | flags::RESOLUTION_TIMEOUT,
                        // A timeout bit on a row that did not fail is no
                        // timeout in the tallies.
                        4 => flags::RESOLUTION_TIMEOUT,
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
        assert!(!report.disagreements.is_empty());
        assert_eq!(report.disagreements.len(), 1);
        let d = &report.disagreements[0];
        assert_eq!((d.day, d.domain_id), (0, 2));
        // Bit 0 is "pinned" (saw it), bit 1 "random" (did not).
        assert_eq!(report.vantages, ["pinned", "random"]);
        assert_eq!(d.present, 0b01);
        assert_eq!(report.per_day[&0], 1);
        assert!(report.disagreeing_domains.contains(&2));
    }

    #[test]
    fn agreement_produces_empty_report() {
        let a = store("x", &[(0, vec![obs(0, 1, true)]), (1, vec![obs(1, 1, true)])]);
        let b = store("y", &[(0, vec![obs(0, 1, true)]), (1, vec![obs(1, 1, true)])]);
        let report = vantage_diff(&[a, b]);
        assert!(report.disagreements.is_empty());
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
    #[should_panic(expected = "at most 64 views")]
    fn more_than_64_views_are_refused() {
        let stores: Vec<SnapshotStore> = (0..65).map(|i| store(&format!("v{i}"), &[])).collect();
        vantage_diff(&stores);
    }

    #[test]
    fn empty_store_slice_yields_empty_report() {
        let report = vantage_diff(&[]);
        assert!(report.disagreements.is_empty());
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
        assert!(report.disagreements.is_empty());
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
