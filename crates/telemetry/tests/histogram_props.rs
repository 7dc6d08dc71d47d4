//! Property tests for the histogram buckets: bucket boundaries tile the
//! `u64` domain without gaps, every value lands in the bucket whose
//! range contains it, and quantiles are monotone and bounded by the
//! samples.

use proptest::prelude::*;
use telemetry::histogram::{bucket_lower, bucket_upper};
use telemetry::{Histogram, HistogramSnapshot, BUCKETS};

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn every_value_lands_in_a_covering_bucket(v in any::<u64>()) {
        let s = snapshot_of(&[v]);
        let occupied = s.occupied();
        prop_assert_eq!(occupied.len(), 1);
        let (lo, hi, count) = occupied[0];
        prop_assert_eq!(count, 1);
        prop_assert!(lo <= v && v <= hi, "value {} outside bucket {}..={}", v, lo, hi);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(0u64..10_000_000, 1..60),
    ) {
        let s = snapshot_of(&values);
        let p50 = s.quantile(0.5).unwrap();
        let p90 = s.quantile(0.9).unwrap();
        let p100 = s.quantile(1.0).unwrap();
        prop_assert!(p50 <= p90 && p90 <= p100);
        // The max sample is within its bucket's bounds, so p100's upper
        // bound is at least the true maximum.
        let max = *values.iter().max().unwrap();
        prop_assert!(p100 >= max);
    }
}

#[test]
fn boundaries_tile_without_gaps() {
    assert_eq!(bucket_lower(0), 0);
    for i in 1..BUCKETS - 1 {
        assert_eq!(
            bucket_lower(i),
            bucket_upper(i - 1) + 1,
            "bucket {i} does not start where bucket {} ends",
            i - 1
        );
        assert!(bucket_lower(i) <= bucket_upper(i));
    }
    assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
}
