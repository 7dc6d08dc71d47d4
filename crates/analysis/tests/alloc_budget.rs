//! The allocation budget of the cross-vantage diff: what the benchmark
//! reports as `analyze_store/allocs_per_unit` on a timing host, held here
//! as a count that no host can move.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use analysis::vantage_diff_sources;
use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use scanner::{flags, Observation, ObservationSource, OrgId, SnapshotStore};

const VANTAGES: u32 = 3;
const DAYS: u32 = 30;
/// Names the last vantage misses the HTTPS record of, every day.
const DISAGREEING: u32 = 4;

/// Heap blocks per compared day the diff may ask for. It asks for 1.5
/// (46 over 30 days, the same on every run and at either size): the
/// report's maps and vectors, the label strings, and the buffers every
/// day reuses — a disagreement row, held as one presence bit per view,
/// allocates nothing. The ceiling keeps the 1.6-a-day margin it had when
/// each row cloned its labels into two vectors (41.4 a day). With a hash
/// map per vantage per day and a timeline per name it asked for 4 436 a
/// day at 500 names and 35 182 at 4 000.
const CEILING_PER_DAY: f64 = 3.1;

/// One vantage's campaign in scan order: apex and `www` rows for `names`
/// names a day, the odd names past the hidden ones flapping from day to
/// day, one name failing to resolve on day 7.
fn store(vantage: u32, names: u32) -> SnapshotStore {
    let mut store = SnapshotStore::with_vantage(&format!("v{vantage}"));
    for day in 0..DAYS {
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

#[test]
fn the_diff_allocates_per_disagreement_not_per_row() {
    let campaign =
        |names: u32| -> Vec<SnapshotStore> { (0..VANTAGES).map(|v| store(v, names)).collect() };
    let (small, large) = (campaign(500), campaign(4_000));
    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            let [few, many] = [&small, &large].map(|stores| {
                let sources: Vec<&dyn ObservationSource> =
                    stores.iter().map(|s| s as &dyn ObservationSource).collect();
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
