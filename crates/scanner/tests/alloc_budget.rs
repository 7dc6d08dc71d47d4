//! The allocation budget of one scanned day: what the benchmark reports
//! as `allocs_per_unit` on a timing host, held here as a count that no
//! host can move.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use ecosystem::{EcosystemConfig, World};
use resolver::{QueryEngine, SelectionStrategy, VantagePoint};
use scanner::{scan_day, scan_one_day};
use std::collections::HashMap;

/// Heap blocks per observation one cold day over `tiny()` may ask
/// for. It asks for 2.27 (1 363 over 600 observations, the same on
/// every run), since DNSSEC validation checks each signature over the
/// cached replies in place and the zones sign from their own bytes;
/// it asked for 7.05 while validation and signing went through owned
/// records, with an exchange writing its query and receiving its
/// answer in buffers the thread reuses and the NS hosts of wave 3
/// named once per spelling, 13.51 while each exchange built, encoded
/// and copied buffers of its own, one of them per authority answer
/// from zones stored in wire form, 30.23 while the authorities
/// rendered each query shape once through owned messages and then
/// served a cache of responses, 35.57 while each RRset was built as
/// owned records, 37.09 while each target kept its hints and NS-host
/// indices in heap vectors of its own, and 61.63 before answer RRsets
/// were shared. The margin is the benchmark's own 2 % bound on
/// `allocs_per_unit`.
const CEILING: f64 = 2.32;

/// Heap blocks per observation one cold day over `tiny()` may ask for
/// when the three preset vantages scan it in one `scan_day` pass. It
/// asks for 1.54 (2 772 over 1 800 observations; 4.16 with owned
/// records in validation and signing, 10.56 with buffers of each
/// exchange's own, 17.33 with the authorities' response caches, 22.71
/// with owned answer records): the target list, the wave-1 batch, the
/// NS-host names and the authorities' RRSIGs are built once for three
/// vantages. The margin is the same 2 %.
const JOINT_CEILING: f64 = 1.57;

/// Run `scan` on each thread of the axis, each thread over engines of
/// its own with one worker, so that the scan runs on the thread that is
/// counted, and hold its allocations per observation under `ceiling`.
/// Alone, a thread pays for its exchange buffers and every RRSIG the
/// authorities sign; in company, for a share of the RRSIGs.
fn holds_ceiling(ceiling: f64, scan: impl Fn(&World) -> Vec<Vec<scanner::Observation>> + Sync) {
    for threads in thread_axis() {
        let world = World::build(EcosystemConfig::tiny());
        allocs_per_thread(threads, || {
            let (allocs, days) = allocs_in(|| scan(&world));
            let expected = days.len() * 2 * world.config.list_size;
            assert_eq!(days.iter().map(Vec::len).sum::<usize>(), expected);
            let each = allocs as f64 / expected as f64;
            assert!(
                each <= ceiling,
                "{allocs} allocations over {expected} observations = {each:.2} each, \
                 ceiling {ceiling}, {threads} threads"
            );
        });
    }
}

#[test]
fn a_scanned_day_stays_under_its_allocation_ceiling() {
    holds_ceiling(CEILING, |world| {
        let engine = VantagePoint::custom("", SelectionStrategy::RoundRobin)
            .engine(world.network.clone(), world.registry.clone());
        vec![scan_one_day(world, &engine, &HashMap::new(), true, 1)]
    });
}

#[test]
fn a_three_vantage_day_stays_under_its_allocation_ceiling() {
    holds_ceiling(JOINT_CEILING, |world| {
        let engines: Vec<QueryEngine> = VantagePoint::presets()
            .iter()
            .map(|v| v.engine(world.network.clone(), world.registry.clone()))
            .collect();
        let scanners: Vec<&QueryEngine> = engines.iter().collect();
        scan_day(world, &scanners, &HashMap::new(), true, 1)
    });
}
