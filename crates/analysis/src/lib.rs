//! # analysis
//!
//! One module per experiment in the paper's evaluation: each function
//! turns the scanner's longitudinal [`SnapshotStore`] (plus, where the
//! paper itself used ground truth such as Tranco ranks, the ecosystem
//! model) into the statistic the corresponding table or figure reports.
//!
//! Each function is named after the figure or table it regenerates
//! (`fig2_adoption`, `tab2_ns_category`, …), and every result type
//! implements `Display` so reports can print paper-style tables.
//!
//! Every analysis takes `&dyn ObservationSource` and streams the
//! campaign day-by-day, so it runs identically over an in-memory
//! [`SnapshotStore`] or a disk-backed [`scanner::StoreReader`] — with
//! byte-identical reports, and bounded resident memory in the disk
//! case (a property the workspace's persistence tests pin).

#![warn(missing_docs)]

pub mod adoption;
pub mod dnssec_a;
pub mod ech;
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
    fig10_noncf_domains, fig3_noncf_provider_count, sec423_intermittent, tab2_ns_category,
    tab3_top_noncf, IntermittentBreakdown, NoncfSeries, NsCategoryShares, TopProviders,
};
pub use vantage_diff::{
    vantage_diff, vantage_diff_parallel, vantage_diff_runs, vantage_diff_sources,
    VantageDiffReport, VantageDisagreement, VantageSummary,
};

use scanner::{ObservationSource, Projection, ScanFilter};
use std::collections::HashSet;

/// Domain ids present on the list (i.e. observed) on *every* sampled day
/// in `days` — the paper's "overlapping domains" for a phase.
pub fn overlapping_ids(source: &dyn ObservationSource, days: &[u32]) -> HashSet<u32> {
    let filter = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
    // Both ascending and duplicate-free: a scan writes each day in id
    // order, so the intersection is a two-cursor merge.
    let mut set: Vec<u32> = Vec::new();
    let mut today: Vec<u32> = Vec::new();
    for (i, &day) in days.iter().enumerate() {
        today.clear();
        source.for_each_day_filtered(filter.days(day, day), &mut |_, obs| {
            today.extend(obs.iter().filter(|o| !o.is_www()).map(|o| o.domain_id));
        });
        if !today.windows(2).all(|w| w[0] < w[1]) {
            today.sort_unstable();
            today.dedup();
        }
        if i == 0 {
            std::mem::swap(&mut set, &mut today);
            continue;
        }
        let mut at = 0;
        set.retain(|&id| {
            at += today[at..].iter().take_while(|&&t| t < id).count();
            today.get(at) == Some(&id)
        });
    }
    set.into_iter().collect()
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
        let mut store = SnapshotStore::new();
        store.push_day(0, vec![obs(0, 1), obs(0, 2), obs(0, 3)]);
        store.push_day(1, vec![obs(1, 2), obs(1, 3)]);
        store.push_day(2, vec![obs(2, 3), obs(2, 4)]);
        let ov = overlapping_ids(&store, &[0, 1, 2]);
        assert_eq!(ov, [3u32].into_iter().collect());
        assert!(overlapping_ids(&store, &[]).is_empty());
    }

    #[test]
    fn overlapping_takes_a_day_in_any_order() {
        let www = |day, id| Observation { flags: scanner::flags::IS_WWW, ..obs(day, id) };
        let mut store = SnapshotStore::new();
        store.push_day(0, vec![obs(0, 9), obs(0, 2), www(0, 5), obs(0, 9), obs(0, u32::MAX)]);
        store.push_day(4, vec![obs(4, u32::MAX), obs(4, 5), obs(4, 9), obs(4, 1)]);
        assert_eq!(overlapping_ids(&store, &[0, 4]), [9, u32::MAX].into_iter().collect());
        assert_eq!(overlapping_ids(&store, &[0]), [2, 9, u32::MAX].into_iter().collect());
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
