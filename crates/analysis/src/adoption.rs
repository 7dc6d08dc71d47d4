//! Fig 2 (adoption trends) and Fig 8/9 (rank distributions).

use crate::merge::{IdCursor, Tracks};
use crate::{daily_shares, overlapping_ids, Series};
use scanner::{NsCategory, Observation, ObservationSource, Projection, ScanFilter};

/// The four Fig 2 series: apex/www × dynamic/overlapping.
#[derive(Debug, Clone)]
pub struct AdoptionSeries {
    /// % of the daily (dynamic) list's apexes with HTTPS.
    pub dynamic_apex: Series,
    /// % of the daily list's www names with HTTPS.
    pub dynamic_www: Series,
    /// % of overlapping apexes with HTTPS.
    pub overlapping_apex: Series,
    /// % of overlapping www names with HTTPS.
    pub overlapping_www: Series,
}

impl std::fmt::Display for AdoptionSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            self.dynamic_apex, self.dynamic_www, self.overlapping_apex, self.overlapping_www
        )
    }
}

/// Compute the Fig 2 adoption series. `source_change_day` splits the
/// overlapping phases exactly as the paper does.
pub fn fig2_adoption(store: &dyn ObservationSource, source_change_day: u32) -> AdoptionSeries {
    let days = store.days();
    let phase1: Vec<u32> = days.iter().copied().filter(|d| *d < source_change_day).collect();
    let phase2: Vec<u32> = days.iter().copied().filter(|d| *d >= source_change_day).collect();
    let ov1 = overlapping_ids(store, &phase1);
    let ov2 = overlapping_ids(store, &phase2);

    // Only flags and domain ids are touched, so a disk-backed source
    // skips the rest.
    let proj = ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID));
    let (mut in_ov1, mut in_ov2) = (IdCursor::new(&ov1), IdCursor::new(&ov2));
    let [dynamic_apex, dynamic_www, overlapping_apex, overlapping_www] = daily_shares(
        store,
        proj,
        [
            ("fig2a dynamic apex %HTTPS", 0.0),
            ("fig2a dynamic www %HTTPS", 0.0),
            ("fig2b overlapping apex %HTTPS", 0.0),
            ("fig2b overlapping www %HTTPS", 0.0),
        ],
        |day, o| {
            let ov = if day < source_change_day { &mut in_ov1 } else { &mut in_ov2 };
            let (www, overlapping) = (o.is_www(), ov.contains(o.domain_id));
            let https = o.https();
            [(!www, https), (www, https), (!www && overlapping, https), (www && overlapping, https)]
        },
    );
    AdoptionSeries { dynamic_apex, dynamic_www, overlapping_apex, overlapping_www }
}

/// Rank-distribution buckets (deciles of the list) for two domain sets.
#[derive(Debug, Clone)]
pub struct RankBuckets {
    /// Bucket upper bounds (ranks).
    pub bounds: Vec<u32>,
    /// Count of set-A domains per bucket.
    pub set_a: Vec<usize>,
    /// Count of set-B domains per bucket.
    pub set_b: Vec<usize>,
    /// Labels.
    pub label_a: String,
    /// Label of set B.
    pub label_b: String,
}

impl std::fmt::Display for RankBuckets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# rank buckets: {} vs {}", self.label_a, self.label_b)?;
        for ((b, a), c) in self.bounds.iter().zip(&self.set_a).zip(&self.set_b) {
            writeln!(f, "<= {b}: {a} vs {c}")?;
        }
        Ok(())
    }
}

/// Fig 8: rank distribution of overlapping vs non-overlapping domains
/// (averaged over phase-1 days). Also used for Fig 9 by passing the
/// non-CF adopter set (ascending ids) as `special`.
pub fn fig8_rank_distribution(
    store: &dyn ObservationSource,
    phase_days: &[u32],
    special: Option<&[u32]>,
) -> RankBuckets {
    let overlapping = overlapping_ids(store, phase_days);
    // Fig 9 mode buckets only the special set's HTTPS rows (e.g. non-CF
    // HTTPS adopters), compared against everyone.
    let mut set_a_ids = IdCursor::new(special.unwrap_or(&overlapping));
    let Some(&probe_day) = phase_days.iter().next() else {
        return RankBuckets {
            bounds: vec![],
            set_a: vec![],
            set_b: vec![],
            label_a: "overlapping".into(),
            label_b: "non-overlapping".into(),
        };
    };
    let mut obs: Vec<Observation> = Vec::new();
    let proj = Projection::RANK.with(Projection::FLAGS).with(Projection::DOMAIN_ID);
    store.for_each_day_filtered(
        ScanFilter::projected(proj).days(probe_day, probe_day),
        &mut |_, day_obs| obs.extend_from_slice(day_obs),
    );
    let max_rank = obs.iter().map(|o| o.rank).max().unwrap_or(1).max(1);
    let buckets = 10usize;
    let width = max_rank.div_ceil(buckets as u32).max(1);
    let bounds: Vec<u32> = (1..=buckets as u32).map(|i| i * width).collect();
    let mut set_a = vec![0usize; buckets];
    let mut set_b = vec![0usize; buckets];
    for o in obs {
        if o.is_www() || o.rank == 0 {
            continue;
        }
        let idx = ((o.rank - 1) / width) as usize;
        let idx = idx.min(buckets - 1);
        if set_a_ids.contains(o.domain_id) && (special.is_none() || o.https()) {
            set_a[idx] += 1;
        } else {
            set_b[idx] += 1;
        }
    }
    RankBuckets {
        bounds,
        set_a,
        set_b,
        label_a: if special.is_some() { "non-CF adopters".into() } else { "overlapping".into() },
        label_b: if special.is_some() { "others".into() } else { "non-overlapping".into() },
    }
}

/// Domain ids whose apex observation shows HTTPS on non-Cloudflare NS on
/// any sampled day (the Fig 9 population), ascending.
pub fn noncf_adopter_ids(store: &dyn ObservationSource) -> Vec<u32> {
    let proj = ScanFilter::projected(
        Projection::FLAGS.with(Projection::NS_CATEGORY).with(Projection::DOMAIN_ID),
    );
    let mut ids: Tracks<(), ()> = Tracks::default();
    store.for_each_day_filtered(proj, &mut |_, obs| {
        let adopters = obs.iter().filter(|o| {
            !o.is_www()
                && o.https()
                && NsCategory::from_u8(o.ns_category) == NsCategory::NoneCloudflare
        });
        ids.merge_day(adopters.map(|o| (u64::from(o.domain_id), ())), |_, ()| {});
    });
    ids.iter().map(|&(id, ())| id as u32).collect()
}
