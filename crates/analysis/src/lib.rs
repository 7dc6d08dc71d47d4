//! # analysis
//!
//! One module per experiment in the paper's evaluation: each function
//! turns the scanner's longitudinal [`scanner::SnapshotStore`] (plus, where the
//! paper itself used ground truth such as Tranco ranks, the ecosystem
//! model) into the statistic the corresponding table or figure reports.
//!
//! Each function is named after the figure or table it regenerates
//! (`fig2_adoption`, `tab2_ns_category`, …), and every result type
//! implements `Display` so reports can print paper-style tables.
//!
//! Every analysis takes `&dyn ObservationSource` and streams the
//! campaign day-by-day, so it runs identically over an in-memory
//! [`scanner::SnapshotStore`] or a disk-backed [`scanner::StoreReader`] — with
//! byte-identical reports, and bounded resident memory in the disk
//! case (a property the workspace's persistence tests pin).

#![warn(missing_docs)]

pub mod adoption;
pub mod dnssec_a;
pub mod ech;
mod merge;
pub mod params;
pub mod providers;
pub mod vantage_diff;

pub use adoption::{fig2_adoption, fig8_rank_distribution, AdoptionSeries, RankBuckets};
pub use dnssec_a::{fig5_dnssec_trend, tab9_chain_audit, ChainAudit, DnssecSeries};
pub use ech::{fig13_ech_share, fig4_rotation, EchShareSeries, RotationStats};
pub use params::{
    fig11_iphints, fig12_mismatch_durations, sec433_anomalies, sec435_connectivity, tab4_cf_config,
    tab5_other_providers, tab8_alpn, AlpnShares, AnomalyCounts, CfConfigSplit, ConnectivitySummary,
    IpHintSeries, MismatchDurations, ProviderShapes,
};
pub use providers::{
    fig3_noncf_provider_count, sec423_intermittent, tab2_ns_category, tab3_top_noncf,
    IntermittentBreakdown, NoncfSeries, NsCategoryShares, TopProviders,
};
pub use vantage_diff::{
    vantage_diff, vantage_diff_parallel, vantage_diff_runs, vantage_diff_sources,
    VantageDiffReport, VantageDisagreement, VantageSummary,
};

use merge::Tracks;
use scanner::{Observation, ObservationSource, Projection, ScanFilter};

/// Domain ids present on the list (i.e. observed) on *every* sampled day
/// in `days` — the paper's "overlapping domains" for a phase — ascending
/// and duplicate-free.
pub fn overlapping_ids(source: &dyn ObservationSource, days: &[u32]) -> Vec<u32> {
    let mut days = days.to_vec();
    days.sort_unstable();
    days.dedup();
    let (Some(&first), Some(&last)) = (days.first(), days.last()) else {
        return Vec::new();
    };
    // One visit over the whole range, so a disk source reads its chunks
    // in groups; the days in it that were not asked for are skipped.
    let filter = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
    // Per id, how many of the days, from the first on, listed it.
    let mut listed: Tracks<usize, ()> = Tracks::default();
    source.for_each_day_filtered(filter.days(first, last), &mut |day, obs| {
        let Ok(i) = days.binary_search(&day) else { return };
        let apexes = obs.iter().filter(|o| !o.is_www());
        listed.merge_day(apexes.map(|o| (u64::from(o.domain_id), ())), |n, ()| {
            if *n == i {
                *n += 1;
            }
        });
    });
    listed.iter().filter(|&&(_, n)| n == days.len()).map(|&(id, _)| id as u32).collect()
}

/// `N` daily percentage series in one pass over `store`: `tally` says,
/// per row, whether it counts toward each series and whether it is a
/// hit there. A day's point is 100 × hits / counted, or the series'
/// `empty` value on a day that counts no row.
fn daily_shares<const N: usize>(
    store: &dyn ObservationSource,
    filter: ScanFilter,
    series: [(&str, f64); N],
    mut tally: impl FnMut(u32, &Observation) -> [(bool, bool); N],
) -> [Series; N] {
    let mut points: [Vec<(u32, f64)>; N] = std::array::from_fn(|_| Vec::new());
    store.for_each_day_filtered(filter, &mut |day, obs| {
        let mut counts = [(0usize, 0usize); N];
        for o in obs {
            for (count, (counted, hit)) in counts.iter_mut().zip(tally(day, o)) {
                count.0 += usize::from(counted);
                count.1 += usize::from(counted && hit);
            }
        }
        for ((points, (total, hits)), (_, empty)) in points.iter_mut().zip(counts).zip(series) {
            let share = if total == 0 { empty } else { 100.0 * hits as f64 / total as f64 };
            points.push((day, share));
        }
    });
    std::array::from_fn(|i| Series {
        label: series[i].0.to_string(),
        points: std::mem::take(&mut points[i]),
    })
}

/// A (day, value) series with a label, printable as two CSV columns.
#[derive(Debug, Clone)]
pub struct Series {
    /// Label of the series.
    pub label: String,
    /// (day, value) points in day order.
    pub points: Vec<(u32, f64)>,
}

impl Series {
    /// Mean of the values.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return f64::NAN;
        }
        self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Standard deviation of the values.
    pub fn std(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.points.iter().map(|(_, v)| (v - m).powi(2)).sum::<f64>() / self.points.len() as f64)
            .sqrt()
    }

    /// Value on the first sampled day.
    pub fn first(&self) -> Option<f64> {
        self.points.first().map(|(_, v)| *v)
    }

    /// Value on the last sampled day.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }
}

impl std::fmt::Display for Series {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# {}", self.label)?;
        for (day, v) in &self.points {
            writeln!(f, "{day},{v:.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanner::{Observation, OrgId, SnapshotStore};

    fn obs(day: u32, id: u32) -> Observation {
        Observation {
            day,
            domain_id: id,
            rank: 1,
            flags: 0,
            ns_category: 0,
            org: OrgId(0),
            min_priority: u16::MAX,
        }
    }

    #[test]
    fn overlapping_intersects_days() {
        let mut store = SnapshotStore::default();
        store.push_day(0, vec![obs(0, 1), obs(0, 2), obs(0, 3)]);
        store.push_day(1, vec![obs(1, 2), obs(1, 3)]);
        store.push_day(2, vec![obs(2, 3), obs(2, 4)]);
        let ov = overlapping_ids(&store, &[0, 1, 2]);
        assert_eq!(ov, [3]);
        assert!(overlapping_ids(&store, &[]).is_empty());
    }

    #[test]
    fn overlapping_takes_a_day_in_any_order() {
        let www = |day, id| Observation { flags: scanner::flags::IS_WWW, ..obs(day, id) };
        let mut store = SnapshotStore::default();
        store.push_day(0, vec![obs(0, 9), obs(0, 2), www(0, 5), obs(0, 9), obs(0, u32::MAX)]);
        store.push_day(4, vec![obs(4, u32::MAX), obs(4, 5), obs(4, 9), obs(4, 1)]);
        assert_eq!(overlapping_ids(&store, &[0, 4]), [9, u32::MAX]);
        assert_eq!(overlapping_ids(&store, &[0]), [2, 9, u32::MAX]);
        // A day the source lacks is a day nothing was listed on.
        assert!(overlapping_ids(&store, &[0, 2, 4]).is_empty());
    }

    #[test]
    fn series_stats() {
        let s = Series { label: "x".into(), points: vec![(0, 1.0), (1, 3.0)] };
        assert!((s.mean() - 2.0).abs() < 1e-9);
        assert!((s.std() - 1.0).abs() < 1e-9);
        assert_eq!(s.first(), Some(1.0));
        assert_eq!(s.last(), Some(3.0));
        let text = s.to_string();
        assert!(text.contains("# x"));
        assert!(text.contains("1,3.0000"));
    }
}
