//! Fixed-bucket, log-spaced histograms for wall-clock observations.
//!
//! A [`Histogram`] spreads `u64` samples (microseconds for latencies,
//! plain counts for queue depths) over [`BUCKETS`] power-of-two
//! buckets: bucket 0 holds the value 0 and bucket `i` holds
//! `[2^(i-1), 2^i)`, with the final bucket absorbing everything larger.
//! Recording is two relaxed `fetch_add`s — no locks, no allocation —
//! so histograms can sit on the determinism-pinned hot paths without
//! perturbing them (they are strictly observational; see the crate
//! docs for the counter/histogram split).
//!
//! [`HistogramSnapshot`]s are plain data: comparable and renderable.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: value 0, then 38 power-of-two ranges
/// covering `1 .. 2^38` (≈ 76 hours in microseconds), then overflow.
pub const BUCKETS: usize = 40;

/// The bucket index a value lands in.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free histogram over log-spaced `u64` buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record a duration as whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time snapshot. Bucket loads are individually atomic
    /// but not mutually consistent under concurrent recording — fine
    /// for the observational role histograms play here.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data histogram state: comparable, renderable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_lower`]/[`bucket_upper`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { buckets: [0; BUCKETS], sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Approximate quantile: the inclusive upper bound of the bucket
    /// containing the `q`-th ranked sample (`q` in `[0, 1]`). Returns
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i));
            }
        }
        Some(bucket_upper(BUCKETS - 1))
    }

    /// Buckets with at least one sample, as `(lower, upper, count)`.
    pub fn occupied(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower(i), bucket_upper(i), c))
            .collect()
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} sum={} mean={:.1} p50={} p90={} p99={}",
            self.count(),
            self.sum,
            self.mean(),
            self.quantile(0.5).unwrap_or(0),
            self.quantile(0.9).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lands_in_bucket_zero() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_tile_the_domain() {
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 0);
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "gap before bucket {i}");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1102);
        // Median sample is the second `1`, whose bucket tops out at 1.
        assert_eq!(s.quantile(0.5), Some(1));
        assert!(s.quantile(1.0).unwrap() >= 1000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }

    #[test]
    fn duration_recorded_as_micros() {
        let h = Histogram::new();
        h.record_duration(Duration::from_millis(3));
        assert_eq!(h.snapshot().sum, 3_000);
    }

    #[test]
    fn display_is_compact() {
        let h = Histogram::new();
        h.record(5);
        let text = h.snapshot().to_string();
        assert!(text.contains("count=1"));
        assert!(text.contains("p50="));
    }
}
