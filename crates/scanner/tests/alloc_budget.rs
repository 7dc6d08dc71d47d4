//! The allocation budget of one scanned day: what the benchmark reports
//! as `allocs_per_unit` on a timing host, held here as a count that no
//! host can move.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use ecosystem::{EcosystemConfig, World};
use resolver::{SelectionStrategy, VantagePoint};
use scanner::scan_one_day;
use std::collections::HashMap;

/// Heap blocks per observation one cold day over `tiny()` may ask for.
/// It asks for 47.74 (28 643 over 600 observations, the same on every
/// run); before answer RRsets were shared and `MessageView` stopped
/// keeping section vectors it asked for 61.63. The margin is the
/// benchmark's own 2 % bound on `allocs_per_unit`, and a little.
const CEILING: f64 = 49.0;

#[test]
fn a_scanned_day_stays_under_its_allocation_ceiling() {
    for threads in thread_axis() {
        // A vantage per thread, each scanning the one world through an
        // engine of its own with one worker, so that the scan runs on
        // the thread that is counted. Alone, a thread pays for every
        // response the authorities compile; in company, for a share.
        let world = World::build(EcosystemConfig::tiny());
        let expected = 2 * world.config.list_size;
        allocs_per_thread(threads, || {
            let engine = VantagePoint::custom("", SelectionStrategy::RoundRobin)
                .engine(world.network.clone(), world.registry.clone());
            let (allocs, observations) =
                allocs_in(|| scan_one_day(&world, &engine, &HashMap::new(), true, 1));
            assert_eq!(observations.len(), expected);
            let each = allocs as f64 / expected as f64;
            assert!(
                each <= CEILING,
                "{allocs} allocations over {expected} observations = {each:.2} each, \
                 ceiling {CEILING}, {threads} threads"
            );
        });
    }
}
