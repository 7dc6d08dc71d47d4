//! ECH analyses: Fig 13 (ECH share over time, with the kill-switch drop)
//! and Fig 4 (key-rotation durations from hourly scans).

use crate::{daily_shares, Series};
use scanner::{flags, EchObservation, ObservationSource, Projection, ScanFilter};
use std::collections::BTreeMap;

/// Fig 13: % of HTTPS-publishing domains with the ech parameter.
#[derive(Debug, Clone)]
pub struct EchShareSeries {
    /// Apex series.
    pub apex: Series,
    /// www series.
    pub www: Series,
}

impl std::fmt::Display for EchShareSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.apex, self.www)
    }
}

/// Compute Fig 13.
pub fn fig13_ech_share(store: &dyn ObservationSource) -> EchShareSeries {
    let [apex, www] = daily_shares(
        store,
        ScanFilter::projected(Projection::FLAGS),
        [("fig13 apex %ECH among HTTPS", 0.0), ("fig13 www %ECH among HTTPS", 0.0)],
        |_, o| {
            [
                (!o.is_www() && o.https(), o.has(flags::ECH)),
                (o.is_www() && o.https(), o.has(flags::ECH)),
            ]
        },
    );
    EchShareSeries { apex, www }
}

/// Fig 4: ECH config lifetimes from the hourly scan.
#[derive(Debug, Clone)]
pub struct RotationStats {
    /// Distinct configs observed.
    pub distinct_configs: usize,
    /// Histogram: consecutive-hours-observed → config count.
    pub duration_histogram: BTreeMap<u32, usize>,
    /// Mean observed lifetime in hours.
    pub mean_hours: f64,
}

impl std::fmt::Display for RotationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 4: ECH key-rotation statistics (hourly scans)")?;
        writeln!(f, "  distinct configs : {}", self.distinct_configs)?;
        for (hours, n) in &self.duration_histogram {
            writeln!(f, "  observed {hours} consecutive hours: {n} configs")?;
        }
        writeln!(f, "  mean lifetime    : {:.2} h", self.mean_hours)
    }
}

/// Compute Fig 4 from hourly ECH observations. A config's observed
/// lifetime is the span of consecutive hourly scans in which *any*
/// domain advertised it (all domains share the provider's config).
pub fn fig4_rotation(observations: &[EchObservation]) -> RotationStats {
    // config → (first hour, last hour)
    let mut spans: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    for o in observations {
        let e = spans.entry(o.config_hash).or_insert((o.hour, o.hour));
        e.0 = e.0.min(o.hour);
        e.1 = e.1.max(o.hour);
    }
    let mut histogram: BTreeMap<u32, usize> = BTreeMap::new();
    let mut total_hours = 0u64;
    for (first, last) in spans.values() {
        let hours = last - first + 1;
        *histogram.entry(hours).or_default() += 1;
        total_hours += u64::from(hours);
    }
    let distinct = spans.len();
    RotationStats {
        distinct_configs: distinct,
        duration_histogram: histogram,
        mean_hours: if distinct == 0 { f64::NAN } else { total_hours as f64 / distinct as f64 },
    }
}
