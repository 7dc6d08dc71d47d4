//! Estimators over per-rep samples, and the FNV-1a-64 output digest.

/// The benchmark's timing estimator: the mean of the fastest quarter
/// (rounded up) of the samples. On this host the noise only ever adds
/// time, in bursts shorter than a rep, so the fast tail is the stable
/// part of the distribution; a single minimum is too lucky and the
/// median moves with the burst rate (see README, "Estimator").
pub fn lowq(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "lowq of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = sorted.len().div_ceil(4);
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank quantile (`q` in 0..=1) of the samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Streaming FNV-1a 64 (the same function the store's chunk checksum
/// uses), over whichever bytes a workload names as its output.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowq_takes_the_fastest_quarter_rounded_up() {
        // n = 8: two fastest.
        assert_eq!(lowq(&[8.0, 1.0, 7.0, 3.0, 6.0, 5.0, 4.0, 2.0]), 1.5);
        // n = 4: exactly one.
        assert_eq!(lowq(&[4.0, 2.0, 9.0, 3.0]), 2.0);
        // n not divisible by 4: 5 -> 2, 9 -> 3, 1 -> 1.
        assert_eq!(lowq(&[5.0, 1.0, 2.0, 9.0, 9.0]), 1.5);
        assert_eq!(lowq(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(lowq(&[7.25]), 7.25);
    }

    #[test]
    fn lowq_ignores_slow_outliers() {
        let mut samples = vec![1.0; 24];
        for s in samples.iter_mut().skip(6) {
            *s = 50.0;
        }
        assert_eq!(lowq(&samples), 1.0);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.9), 9.0);
        assert_eq!(quantile(&ten, 1.0), 10.0);
        assert_eq!(quantile(&ten, 0.0), 1.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.write(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
