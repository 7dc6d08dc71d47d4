//! The allocation budget of the cross-vantage diff: what the benchmark
//! reports as `analyze_store/allocs_per_unit` on a timing host, held here
//! as a count that no host can move — with the visits it makes to its
//! sources, what the parallel diff's readers allocate and the heap it
//! peaks at.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use analysis::{vantage_diff_parallel, vantage_diff_sources};
use counting_alloc::{allocs_in, allocs_per_thread, peak_live_in, thread_axis};
use scanner::{flags, Observation, ObservationSource, OrgId, ScanFilter, SnapshotStore};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const VANTAGES: u32 = 3;
const DAYS: u32 = 30;
/// Names the last vantage misses the HTTPS record of, every day.
const DISAGREEING: u32 = 4;

/// Heap blocks per compared day the diff may ask for. It asks for 1.4
/// (42 over 30 days, the same on every run and at either size): the
/// report's maps and vectors, the label strings, and the buffers every
/// four-day block reuses — a disagreement row, held as one presence bit
/// per view, allocates nothing. It asked for 46 while each day's view
/// sat beside a copy of the day in the flapping tracks. The ceiling
/// keeps the 1.6-a-day margin it had when each row cloned its labels
/// into two vectors (41.4 a day). With a hash map per vantage per day
/// and a timeline per name it asked for 4 436 a day at 500 names and
/// 35 182 at 4 000.
const CEILING_PER_DAY: f64 = 3.1;

/// One vantage's campaign in scan order: apex and `www` rows for `names`
/// names a day, the odd names past the hidden ones flapping from day to
/// day, one name failing to resolve on day 7.
fn store(vantage: u32, names: u32, days: u32) -> SnapshotStore {
    let mut store = SnapshotStore::with_vantage(&format!("v{vantage}"));
    for day in 0..days {
        let rows = (0..names)
            .flat_map(|id| [(id, 0), (id, flags::IS_WWW)])
            .map(|(id, www)| {
                let hidden = vantage == VANTAGES - 1 && id < DISAGREEING;
                let flapping = id >= DISAGREEING && id % 2 == 1 && day % 2 == 1;
                let https = if hidden || flapping { 0 } else { flags::HTTPS_PRESENT };
                let failed = if id == 20 && day == 7 { flags::RESOLUTION_FAILED } else { 0 };
                Observation {
                    day,
                    domain_id: id,
                    rank: id + 1,
                    flags: www | https | failed,
                    ns_category: 0,
                    org: OrgId(0),
                    min_priority: 1,
                }
            })
            .collect();
        store.push_day(day, rows);
    }
    store
}

/// Every vantage's store, `names` names a day for `days` days.
fn campaign_of(names: u32, days: u32) -> Vec<SnapshotStore> {
    (0..VANTAGES).map(|v| store(v, names, days)).collect()
}

/// Every vantage's store, `names` names a day for [`DAYS`] days.
fn campaign(names: u32) -> Vec<SnapshotStore> {
    campaign_of(names, DAYS)
}

fn sources(stores: &[SnapshotStore]) -> Vec<&dyn ObservationSource> {
    stores.iter().map(|s| s as &dyn ObservationSource).collect()
}

#[test]
fn the_diff_allocates_per_disagreement_not_per_row() {
    let (small, large) = (campaign(500), campaign(4_000));
    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            let [few, many] = [&small, &large].map(|stores| {
                let sources = sources(stores);
                let (allocs, report) = allocs_in(|| vantage_diff_sources(&sources));
                // Apex and www of every hidden name, every day.
                assert_eq!(report.disagreements.len(), (DAYS * 2 * DISAGREEING) as usize);
                assert_eq!(report.summaries[0].resolution_failures, 2);
                assert!(report.summaries[0].flapping_rate > 0.49);
                allocs
            });
            assert_eq!(few, many, "500 and 4 000 names a day, {threads} threads");
            let per_day = many as f64 / f64::from(DAYS);
            assert!(
                per_day <= CEILING_PER_DAY,
                "{many} allocations over {DAYS} days = {per_day:.1} a day, \
                 ceiling {CEILING_PER_DAY}, {threads} threads"
            );
        });
        assert_eq!(counts.len(), threads);
    }
}

/// A store that counts the visits made to it, and the heap blocks the
/// visiting thread asks for during them — its own reading and whatever
/// the visitor does with each day.
struct Counted<'a> {
    store: &'a SnapshotStore,
    visits: AtomicUsize,
    allocs: AtomicU64,
}

impl<'a> Counted<'a> {
    fn new(store: &'a SnapshotStore) -> Counted<'a> {
        Counted { store, visits: AtomicUsize::new(0), allocs: AtomicU64::new(0) }
    }

    /// The visits made since the last call.
    fn take(&self) -> usize {
        self.visits.swap(0, Ordering::Relaxed)
    }
}

impl ObservationSource for Counted<'_> {
    fn vantage(&self) -> &str {
        self.store.vantage()
    }

    fn days(&self) -> Vec<u32> {
        self.store.days()
    }

    fn org_name(&self, id: OrgId) -> Option<&str> {
        ObservationSource::org_name(self.store, id)
    }

    fn for_each_day_filtered(
        &self,
        filter: ScanFilter,
        visit: &mut dyn FnMut(u32, &[Observation]),
    ) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        let (allocs, ()) = allocs_in(|| self.store.for_each_day_filtered(filter, visit));
        self.allocs.fetch_add(allocs, Ordering::Relaxed);
    }
}

/// A disk source reads and checksums up to four adjacent chunks as one
/// group, but only within one visit: the sequential diff visits each
/// source once per four common days (3 × ⌈30 / 4⌉ = 24 visits, where a
/// visit per source per day made 90), the parallel diff once per source.
#[test]
fn the_diff_visits_each_source_once_per_four_day_read_group() {
    let stores = campaign(50);
    let counted: Vec<Counted> = stores.iter().map(Counted::new).collect();
    let sources: Vec<&dyn ObservationSource> =
        counted.iter().map(|c| c as &dyn ObservationSource).collect();
    let visits = || counted.iter().map(Counted::take).collect::<Vec<_>>();

    let sequential = vantage_diff_sources(&sources);
    assert_eq!(visits(), [DAYS.div_ceil(4) as usize; VANTAGES as usize]);
    let parallel = vantage_diff_parallel(&sources);
    assert_eq!(visits(), [1; VANTAGES as usize]);
    assert_eq!(format!("{parallel:?}"), format!("{sequential:?}"));
}

/// Heap blocks a reader thread of the parallel diff may ask for in its
/// one visit, at any number of common days. It asks for 8 at 12 days and
/// at 30: its four view buffers and its flapping tracks. The ceiling
/// leaves room for the channels' parking state, allocated the first time
/// a reader waits. With a fresh view per day it asked for 4 plus one a
/// day: 16 at 12 days, 34 at 30.
const READER_ALLOCS: u64 = 12;

/// The parallel diff's readers fill each day's view into one of four
/// buffers the coordinator hands back, so the heap blocks they ask for
/// do not grow with the number of common days.
#[test]
fn the_parallel_diff_reader_allocations_do_not_grow_with_the_days() {
    for days in [12, 30] {
        let stores = campaign_of(50, days);
        let counted: Vec<Counted> = stores.iter().map(Counted::new).collect();
        let sources: Vec<&dyn ObservationSource> =
            counted.iter().map(|c| c as &dyn ObservationSource).collect();
        let report = vantage_diff_parallel(&sources);
        assert_eq!(report.disagreements.len(), (days * 2 * DISAGREEING) as usize);
        for c in &counted {
            let allocs = c.allocs.load(Ordering::Relaxed);
            assert!(
                allocs <= READER_ALLOCS,
                "{} reader: {allocs} heap blocks over {days} days, ceiling {READER_ALLOCS}",
                c.vantage()
            );
        }
    }
}

/// Live heap bytes per name a day the sequential diff may peak at. It
/// peaks at 399 at 500 names and 385 at 4 000: per source, a four-day
/// block of packed rows (8 bytes a row, two rows a name) and the
/// flapping tracks (16 bytes a name seen, and as much again for the
/// names a day adds). With a view per source per day beside the tracks'
/// own copy of the day (24-byte tracks) it peaked at 447 and 433.
const PEAK_BYTES_PER_NAME: i64 = 420;

#[test]
fn the_diff_holds_one_read_group_of_views_per_source() {
    for names in [500, 4_000] {
        let stores = campaign(names);
        let sources = sources(&stores);
        let (peak, _report) = peak_live_in(|| vantage_diff_sources(&sources));
        let per_name = peak / i64::from(names);
        assert!(
            per_name <= PEAK_BYTES_PER_NAME,
            "{peak} bytes at {names} names = {per_name} a name, ceiling {PEAK_BYTES_PER_NAME}"
        );
    }
}
