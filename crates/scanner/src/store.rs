//! The longitudinal dataset: observations indexed by day, an org-name
//! interner, a vantage label, and CSV export (single-store and combined
//! multi-vantage) for external analysis.
//!
//! Two representations share one access contract: the in-memory
//! [`SnapshotStore`] this module has always held, and the on-disk
//! columnar store in [`persist`] whose [`persist::StoreReader`] streams
//! a campaign day-by-day without materializing it. Both implement
//! [`ObservationSource`], so every analysis and the CSV exporters run
//! over either with byte-identical output.

pub mod persist;

use crate::observation::Observation;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::ops::Range;

/// Typed id of an interned organization name.
///
/// Ids are dense u32 indices; [`OrgId::NONE`] is the "no attributable
/// org" sentinel. The id used to be a bare `u16`, which silently aliased
/// two distinct orgs once the interner passed 65 535 entries — fatal for
/// the 100 k-domain scale-up, where WHOIS orgs can exceed that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrgId(pub u32);

impl OrgId {
    /// Sentinel: no attributable organization.
    pub const NONE: OrgId = OrgId(u32::MAX);

    /// Whether this id is the [`NONE`](Self::NONE) sentinel.
    pub fn is_none(self) -> bool {
        self == OrgId::NONE
    }
}

/// Interner for organization names (WHOIS orgs).
#[derive(Debug, Default, Clone)]
pub struct OrgInterner {
    names: Vec<String>,
    index: BTreeMap<String, OrgId>,
}

impl OrgInterner {
    /// Intern a name, returning its id. Panics (with a clear message)
    /// if the interner would collide with the [`OrgId::NONE`] sentinel —
    /// at 4 294 967 295 distinct orgs, far past any realistic WHOIS set.
    pub fn intern(&mut self, name: &str) -> OrgId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        assert!(
            self.names.len() < OrgId::NONE.0 as usize,
            "OrgInterner overflow: {} distinct orgs exhausts the u32 id space",
            self.names.len()
        );
        let id = OrgId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Resolve an id back to the name.
    pub fn name(&self, id: OrgId) -> Option<&str> {
        self.names.get(id.0 as usize).map(|s| s.as_str())
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Column-projection bitmask over the seven stored columns, in the
/// canonical on-disk order (`day`, `domain_id`, `rank`, `flags`,
/// `ns_category`, `org`, `min_priority`).
///
/// A projection is a *decode hint*: a source may skip materializing
/// unprojected columns. The contract for pruned reads is deterministic —
/// unprojected fields come back as fixed defaults (numeric zero,
/// [`OrgId::NONE`] for `org`), and `day` is always stamped from the
/// day being visited regardless of the mask, so analyses that read
/// `o.day` never need to ask for it. Sources that cannot prune (the
/// in-memory [`SnapshotStore`]) are free to return full rows: analyses
/// must only *rely* on projected columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection(pub u8);

impl Projection {
    /// `domain_id` column (index 1).
    pub const DOMAIN_ID: Projection = Projection(1 << 1);
    /// `rank` column (index 2).
    pub const RANK: Projection = Projection(1 << 2);
    /// `flags` column (index 3).
    pub const FLAGS: Projection = Projection(1 << 3);
    /// `ns_category` column (index 4).
    pub const NS_CATEGORY: Projection = Projection(1 << 4);
    /// `org` column (index 5).
    pub const ORG: Projection = Projection(1 << 5);
    /// `min_priority` column (index 6).
    pub const MIN_PRIORITY: Projection = Projection(1 << 6);
    /// Every column — the default, equivalent to an unprojected read.
    /// Bit 0 is the `day` column, which is always stamped.
    pub const ALL: Projection = Projection(0x7f);

    /// Union with another projection (const-friendly builder).
    pub const fn with(self, other: Projection) -> Projection {
        Projection(self.0 | other.0)
    }

    /// Whether the column at canonical index `c` (0..7) is projected.
    pub fn includes_column(self, c: usize) -> bool {
        c < 7 && self.0 & (1 << c) != 0
    }
}

impl Default for Projection {
    fn default() -> Projection {
        Projection::ALL
    }
}

impl std::ops::BitOr for Projection {
    type Output = Projection;
    fn bitor(self, rhs: Projection) -> Projection {
        self.with(rhs)
    }
}

/// What a pruned scan should touch: a column [`Projection`] plus an
/// optional inclusive day range. Disk-backed sources use the day range
/// to skip whole chunks without reading their payloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanFilter {
    /// Columns the visitor will actually read.
    pub projection: Projection,
    /// Inclusive `(first, last)` day range; `None` means every day.
    pub days: Option<(u32, u32)>,
}

impl ScanFilter {
    /// No pruning at all: every day, every column.
    pub fn all() -> ScanFilter {
        ScanFilter::default()
    }

    /// Every day, decoding only `projection`'s columns.
    pub fn projected(projection: Projection) -> ScanFilter {
        ScanFilter { projection, days: None }
    }

    /// Restrict to the inclusive day range `[first, last]`.
    pub fn days(self, first: u32, last: u32) -> ScanFilter {
        ScanFilter { days: Some((first, last)), ..self }
    }

    /// Whether `day` passes the day-range filter.
    pub fn admits_day(&self, day: u32) -> bool {
        match self.days {
            Some((first, last)) => day >= first && day <= last,
            None => true,
        }
    }
}

/// The longitudinal store of daily observations.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    observations: Vec<Observation>,
    day_ranges: BTreeMap<u32, Range<usize>>,
    vantage: String,
    /// Org-name interner shared by all observations.
    pub orgs: OrgInterner,
}

impl SnapshotStore {
    /// Empty store labelled with the vantage point that produced it.
    pub fn with_vantage(vantage: &str) -> SnapshotStore {
        SnapshotStore { vantage: vantage.to_string(), ..SnapshotStore::default() }
    }

    /// The vantage label ("" for single-vantage legacy stores).
    pub fn vantage(&self) -> &str {
        &self.vantage
    }

    /// Append a day's observations.
    ///
    /// Days are strictly append-only: a duplicate of the last day or any
    /// earlier day panics instead of silently overwriting the existing
    /// range (which is what a bare `BTreeMap::insert` would have done).
    pub fn push_day(&mut self, day: u32, mut obs: Vec<Observation>) {
        if let Some((&last, _)) = self.day_ranges.iter().next_back() {
            assert!(day != last, "duplicate day {day} pushed to SnapshotStore");
            assert!(
                day > last,
                "days must be appended in increasing order (got {day} after {last})"
            );
        }
        let start = self.observations.len();
        self.observations.append(&mut obs);
        self.day_ranges.insert(day, start..self.observations.len());
    }

    /// Observations of one day.
    pub fn day(&self, day: u32) -> &[Observation] {
        match self.day_ranges.get(&day) {
            Some(range) => &self.observations[range.clone()],
            None => &[],
        }
    }

    /// All days with observations, ascending.
    pub fn days(&self) -> Vec<u32> {
        self.day_ranges.keys().copied().collect()
    }

    /// All observations.
    pub fn all(&self) -> &[Observation] {
        &self.observations
    }

    /// Total observation count.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Export as CSV (one row per observation). Thin wrapper over the
    /// streaming [`write_csv`].
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        write_csv(self, &mut out).expect("writing CSV to a Vec cannot fail");
        String::from_utf8(out).expect("CSV output is UTF-8")
    }
}

/// Uniform day-streaming access to a campaign's observations, whether
/// they live in memory ([`SnapshotStore`]) or on disk
/// ([`persist::StoreReader`]).
///
/// The contract every consumer (the `analysis` crate, `vantage_diff`,
/// the CSV exporters) relies on:
///
/// - [`days`](Self::days) is ascending and duplicate-free;
/// - [`for_each_day_filtered`](Self::for_each_day_filtered) visits
///   those days the filter admits, in that order, handing each day's
///   observations as one slice in the original scan order (sorted by
///   `(domain_id, is_www)`);
/// - observations are only guaranteed resident for the duration of one
///   visitor call, so a disk-backed source holds at most one day in
///   memory at a time.
///
/// Methods take `&mut dyn FnMut` visitors (rather than generic
/// closures) so the trait stays dyn-compatible — `vantage_diff` works
/// over a heterogeneous `&[&dyn ObservationSource]`.
///
/// Sources are `Sync` so the parallel multi-vantage scan can share them
/// across scoped reader threads; both implementors keep their mutable
/// state behind a lock (or have none).
pub trait ObservationSource: Sync {
    /// The vantage label ("" for single-vantage legacy stores).
    fn vantage(&self) -> &str;

    /// All days with observations, ascending.
    fn days(&self) -> Vec<u32>;

    /// Resolve an interned org id back to its name.
    fn org_name(&self, id: OrgId) -> Option<&str>;

    /// Visit every day admitted by `filter`, in ascending order,
    /// decoding only the projected columns (see [`Projection`] for the
    /// pruned-read contract). [`ScanFilter::all`] visits everything;
    /// `.days(d, d)` visits the single day `d`, or nothing if it is
    /// absent.
    fn for_each_day_filtered(&self, filter: ScanFilter, visit: &mut dyn FnMut(u32, &[Observation]));

    /// Total observation count across all days.
    fn total_observations(&self) -> usize {
        let mut n = 0;
        self.for_each_day_filtered(ScanFilter::all(), &mut |_, obs| n += obs.len());
        n
    }
}

impl ObservationSource for SnapshotStore {
    fn vantage(&self) -> &str {
        SnapshotStore::vantage(self)
    }

    fn days(&self) -> Vec<u32> {
        SnapshotStore::days(self)
    }

    fn org_name(&self, id: OrgId) -> Option<&str> {
        self.orgs.name(id)
    }

    /// Full rows whatever the projection (nothing to skip in memory);
    /// the day range is a `BTreeMap` range, so a single day costs
    /// O(log days).
    fn for_each_day_filtered(
        &self,
        filter: ScanFilter,
        visit: &mut dyn FnMut(u32, &[Observation]),
    ) {
        let (first, last) = filter.days.unwrap_or((0, u32::MAX));
        if first > last {
            return;
        }
        for (&day, range) in self.day_ranges.range(first..=last) {
            visit(day, &self.observations[range.clone()]);
        }
    }

    fn total_observations(&self) -> usize {
        self.observations.len()
    }
}

/// The single-store CSV header row.
pub const CSV_HEADER: &str = "day,domain_id,rank,is_www,https,flags,ns_category,org,min_priority";

fn write_csv_row(
    source: &dyn ObservationSource,
    o: &Observation,
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(
        out,
        "{},{},{},{},{},{:#x},{},{},{}",
        o.day,
        o.domain_id,
        o.rank,
        u8::from(o.is_www()),
        u8::from(o.https()),
        o.flags,
        o.ns_category,
        source.org_name(o.org).unwrap_or(""),
        o.min_priority,
    )
}

/// Stream one source as CSV into any writer, one day resident at a time.
pub fn write_csv(source: &dyn ObservationSource, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{CSV_HEADER}")?;
    let mut err: Option<io::Error> = None;
    source.for_each_day_filtered(ScanFilter::all(), &mut |_, obs| {
        if err.is_some() {
            return;
        }
        for o in obs {
            if let Err(e) = write_csv_row(source, o, out) {
                err = Some(e);
                return;
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Stream several per-vantage sources as one combined CSV with a
/// leading `vantage` column — the cross-view dataset the paper's
/// resolver comparison works from.
pub fn write_combined_csv(
    sources: &[&dyn ObservationSource],
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(out, "vantage,{CSV_HEADER}")?;
    for source in sources {
        let mut err: Option<io::Error> = None;
        source.for_each_day_filtered(ScanFilter::all(), &mut |_, obs| {
            if err.is_some() {
                return;
            }
            for o in obs {
                let row = write!(out, "{},", source.vantage())
                    .and_then(|()| write_csv_row(*source, o, out));
                if let Err(e) = row {
                    err = Some(e);
                    return;
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(())
}

/// Export several per-vantage stores as one combined CSV string. Thin
/// wrapper over the streaming [`write_combined_csv`].
pub fn combined_csv<'a>(stores: impl IntoIterator<Item = &'a SnapshotStore>) -> String {
    let sources: Vec<&dyn ObservationSource> =
        stores.into_iter().map(|s| s as &dyn ObservationSource).collect();
    let mut out = Vec::new();
    write_combined_csv(&sources, &mut out).expect("writing CSV to a Vec cannot fail");
    String::from_utf8(out).expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::flags;

    fn obs(day: u32, id: u32, f: u32) -> Observation {
        Observation {
            day,
            domain_id: id,
            rank: id + 1,
            flags: f,
            ns_category: 0,
            org: OrgId(0),
            min_priority: 1,
        }
    }

    #[test]
    fn push_and_query_days() {
        let mut store = SnapshotStore::default();
        store.push_day(0, vec![obs(0, 1, flags::HTTPS_PRESENT), obs(0, 2, 0)]);
        store.push_day(7, vec![obs(7, 1, 0)]);
        assert_eq!(store.day(0).len(), 2);
        assert_eq!(store.day(7).len(), 1);
        assert_eq!(store.day(3).len(), 0);
        assert_eq!(store.days(), vec![0, 7]);
        assert_eq!(store.len(), 3);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn out_of_order_days_rejected() {
        let mut store = SnapshotStore::default();
        store.push_day(5, vec![]);
        store.push_day(3, vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate day 5")]
    fn duplicate_day_rejected() {
        // Regression guard: a repeated day must panic loudly, not let
        // `BTreeMap::insert` silently replace the day's range while the
        // observation vec keeps both copies.
        let mut store = SnapshotStore::default();
        store.push_day(5, vec![obs(5, 1, 0)]);
        store.push_day(5, vec![obs(5, 2, 0)]);
    }

    #[test]
    fn observation_source_trait_matches_inherent_access() {
        let mut store = SnapshotStore::with_vantage("google");
        let org = store.orgs.intern("Cloudflare, Inc.");
        store.push_day(0, vec![Observation { org, ..obs(0, 1, flags::HTTPS_PRESENT) }]);
        store.push_day(3, vec![obs(3, 1, 0), obs(3, 2, 0)]);
        store.push_day(7, vec![obs(7, 2, flags::HTTPS_PRESENT)]);

        let src: &dyn ObservationSource = &store;
        assert_eq!(src.vantage(), "google");
        assert_eq!(src.days(), vec![0, 3, 7]);
        assert_eq!(src.org_name(org), Some("Cloudflare, Inc."));
        assert_eq!(src.total_observations(), 4);

        // The one visit method, in every filter shape its callers use:
        // exactly the admitted days, ascending, each as the inherent
        // `day()` slice; an absent day visits nothing.
        let projected = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
        for (filter, days) in [
            (ScanFilter::all(), vec![0, 3, 7]),
            (ScanFilter::all().days(3, 3), vec![3]),
            (ScanFilter::all().days(5, 5), vec![]),
            (ScanFilter::all().days(99, 99), vec![]),
            (ScanFilter::all().days(1, 5), vec![3]),
            (ScanFilter::all().days(2, 7), vec![3, 7]),
            (projected.days(3, 3), vec![3]),
            (projected.days(7, 3), vec![]),
        ] {
            let mut seen: Vec<u32> = Vec::new();
            src.for_each_day_filtered(filter, &mut |day, obs| {
                assert_eq!(obs, store.day(day), "{filter:?}");
                seen.push(day);
            });
            assert_eq!(seen, days, "{filter:?}");
        }
    }

    #[test]
    fn streaming_csv_matches_string_wrappers() {
        let mut a = SnapshotStore::with_vantage("google");
        a.push_day(0, vec![obs(0, 1, flags::HTTPS_PRESENT)]);
        let mut b = SnapshotStore::with_vantage("isp");
        b.push_day(0, vec![obs(0, 1, 0)]);

        let mut buf = Vec::new();
        write_csv(&a, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), a.to_csv());

        let mut buf = Vec::new();
        write_combined_csv(&[&a, &b], &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), combined_csv([&a, &b]));
    }

    #[test]
    fn interner_round_trip() {
        let mut orgs = OrgInterner::default();
        let a = orgs.intern("Cloudflare, Inc.");
        let b = orgs.intern("GoDaddy.com, LLC");
        assert_eq!(orgs.intern("Cloudflare, Inc."), a);
        assert_ne!(a, b);
        assert_eq!(orgs.name(a), Some("Cloudflare, Inc."));
        assert_eq!(orgs.name(OrgId(999)), None);
        assert_eq!(orgs.len(), 2);
    }

    #[test]
    fn interner_does_not_alias_past_u16_range() {
        // Regression: with a u16 id, entry 65 536 wrapped to id 0 and
        // silently aliased the first org. The typed u32 id must keep
        // every org distinct well past that boundary.
        let mut orgs = OrgInterner::default();
        let n = (u16::MAX as usize) + 64;
        let ids: Vec<OrgId> = (0..n).map(|i| orgs.intern(&format!("Org {i}"))).collect();
        assert_eq!(orgs.len(), n);
        let wrapped = ids[u16::MAX as usize + 1];
        assert_ne!(wrapped, ids[0], "org 65536 must not alias org 0");
        assert_eq!(orgs.name(wrapped), Some(format!("Org {}", u16::MAX as usize + 1).as_str()));
        assert_eq!(orgs.name(ids[0]), Some("Org 0"));
        assert!(!wrapped.is_none());
    }

    #[test]
    fn csv_export_contains_rows() {
        let mut store = SnapshotStore::default();
        let org = store.orgs.intern("Cloudflare, Inc.");
        store
            .push_day(0, vec![Observation { org, ..obs(0, 9, flags::HTTPS_PRESENT | flags::ECH) }]);
        let csv = store.to_csv();
        assert!(csv.starts_with("day,domain_id"));
        assert!(csv.contains("Cloudflare, Inc."));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn combined_csv_carries_vantage_labels() {
        let mut a = SnapshotStore::with_vantage("google");
        a.push_day(0, vec![obs(0, 1, flags::HTTPS_PRESENT)]);
        let mut b = SnapshotStore::with_vantage("isp");
        b.push_day(0, vec![obs(0, 1, 0)]);
        let csv = combined_csv([&a, &b]);
        assert!(csv.starts_with("vantage,day,domain_id"));
        assert!(csv.contains("google,0,1"));
        assert!(csv.contains("isp,0,1"));
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(a.vantage(), "google");
    }
}
