//! Table 2 (NS categories), Table 3 (top non-CF providers), Fig 3 / Fig
//! 10 (non-CF provider and domain counts), and §4.2.3 (intermittent
//! HTTPS records).

use crate::merge::Tracks;
use crate::{daily_shares, Series};
use scanner::{flags, NsCategory, Observation, ObservationSource, OrgId, Projection, ScanFilter};
use std::collections::HashSet;

/// Table 2: mean/std shares of NS categories among HTTPS-positive apexes.
#[derive(Debug, Clone)]
pub struct NsCategoryShares {
    /// Mean % on full-Cloudflare NS.
    pub full_mean: f64,
    /// Std of the full-Cloudflare share.
    pub full_std: f64,
    /// Mean % on no-Cloudflare NS.
    pub none_mean: f64,
    /// Std of that share.
    pub none_std: f64,
    /// Mean % on mixed NS sets.
    pub partial_mean: f64,
    /// Std of that share.
    pub partial_std: f64,
}

impl std::fmt::Display for NsCategoryShares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 2: NS category shares among HTTPS apexes")?;
        writeln!(f, "  Full Cloudflare NS   : {:6.2}% (std {:.2})", self.full_mean, self.full_std)?;
        writeln!(f, "  None Cloudflare NS   : {:6.2}% (std {:.2})", self.none_mean, self.none_std)?;
        writeln!(
            f,
            "  Partial Cloudflare NS: {:6.2}% (std {:.2})",
            self.partial_mean, self.partial_std
        )
    }
}

/// Compute Table 2 over all sampled days.
pub fn tab2_ns_category(store: &dyn ObservationSource) -> NsCategoryShares {
    let proj = ScanFilter::projected(Projection::FLAGS.with(Projection::NS_CATEGORY));
    let shares = daily_shares(store, proj, [("", f64::NAN); 3], |_, o| {
        let category = NsCategory::from_u8(o.ns_category);
        let counted = !o.is_www() && o.https() && category != NsCategory::NoNs;
        [
            (counted, category == NsCategory::FullCloudflare),
            (counted, category == NsCategory::NoneCloudflare),
            (counted, category == NsCategory::PartialCloudflare),
        ]
    });
    // A day without a categorised HTTPS apex has no share to average.
    let [(full_mean, full_std), (none_mean, none_std), (partial_mean, partial_std)] =
        shares.map(|mut s| {
            s.points.retain(|(_, share)| !share.is_nan());
            if s.points.is_empty() {
                (0.0, 0.0)
            } else {
                (s.mean(), s.std())
            }
        });
    NsCategoryShares { full_mean, full_std, none_mean, none_std, partial_mean, partial_std }
}

/// Table 3: top non-Cloudflare providers by distinct HTTPS domains.
#[derive(Debug, Clone)]
pub struct TopProviders {
    /// (provider org, distinct domain count), descending.
    pub providers: Vec<(String, usize)>,
}

impl std::fmt::Display for TopProviders {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 3: top non-Cloudflare DNS providers (distinct HTTPS domains)")?;
        for (org, n) in &self.providers {
            writeln!(f, "  {org:<28} {n}")?;
        }
        Ok(())
    }
}

/// Compute Table 3 over all sampled days.
pub fn tab3_top_noncf(store: &dyn ObservationSource) -> TopProviders {
    // One track per distinct (domain, org) pair, keyed domain-major so a
    // day in scan order merges without sorting.
    let mut pairs: Tracks<(), ()> = Tracks::default();
    let proj = ScanFilter::projected(
        Projection::FLAGS
            .with(Projection::NS_CATEGORY)
            .with(Projection::ORG)
            .with(Projection::DOMAIN_ID),
    );
    store.for_each_day_filtered(proj, &mut |_, obs| {
        let noncf = obs.iter().filter(|o| {
            !o.is_www()
                && o.https()
                && NsCategory::from_u8(o.ns_category) == NsCategory::NoneCloudflare
                && !o.org.is_none()
        });
        pairs.merge_day(
            noncf.map(|o| (u64::from(o.domain_id) << 32 | u64::from(o.org.0), ())),
            |_, _| {},
        );
    });
    let mut orgs: Vec<u32> = pairs.iter().map(|&(pair, ())| pair as u32).collect();
    orgs.sort_unstable();
    let mut providers: Vec<(String, usize)> = orgs
        .chunk_by(|a, b| a == b)
        .map(|run| {
            let name = store.org_name(OrgId(run[0])).unwrap_or("<unknown>");
            (name.to_string(), run.len())
        })
        .collect();
    providers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    TopProviders { providers }
}

/// Fig 3 + Fig 10 series.
#[derive(Debug, Clone)]
pub struct NoncfSeries {
    /// Distinct non-CF providers with ≥1 HTTPS domain, per day (Fig 3).
    pub provider_count: Series,
    /// Domains with HTTPS on non-CF NS, per day (Fig 10).
    pub domain_count: Series,
}

impl std::fmt::Display for NoncfSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.provider_count, self.domain_count)
    }
}

/// Compute the Fig 3 provider-count series.
pub fn fig3_noncf_provider_count(store: &dyn ObservationSource) -> NoncfSeries {
    let mut provider_points = Vec::new();
    let mut domain_points = Vec::new();
    let proj = ScanFilter::projected(
        Projection::FLAGS.with(Projection::NS_CATEGORY).with(Projection::ORG),
    );
    store.for_each_day_filtered(proj, &mut |day, obs| {
        let mut orgs = HashSet::new();
        let mut domains = 0usize;
        for o in obs {
            if o.is_www() || !o.https() {
                continue;
            }
            if NsCategory::from_u8(o.ns_category) == NsCategory::NoneCloudflare {
                domains += 1;
                if !o.org.is_none() {
                    orgs.insert(o.org);
                }
            }
        }
        provider_points.push((day, orgs.len() as f64));
        domain_points.push((day, domains as f64));
    });
    NoncfSeries {
        provider_count: Series {
            label: "fig3 distinct non-CF providers".into(),
            points: provider_points,
        },
        domain_count: Series {
            label: "fig10 domains with HTTPS on non-CF NS".into(),
            points: domain_points,
        },
    }
}

/// §4.2.3: breakdown of domains with intermittent HTTPS records.
#[derive(Debug, Clone, Default)]
pub struct IntermittentBreakdown {
    /// Domains seen both with and without HTTPS across sampled days.
    pub intermittent_total: usize,
    /// … of which the NS category never changed.
    pub same_ns: usize,
    /// … same-NS domains on exclusively Cloudflare NS (proxied toggles).
    pub same_ns_cloudflare: usize,
    /// … domains whose NS category changed between observations.
    pub ns_changed: usize,
    /// … domains that at some point had no resolvable NS.
    pub lost_ns: usize,
}

impl std::fmt::Display for IntermittentBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Sec 4.2.3: intermittent HTTPS records")?;
        writeln!(f, "  intermittent domains       : {}", self.intermittent_total)?;
        writeln!(f, "  same NS throughout         : {}", self.same_ns)?;
        writeln!(f, "    of which all-Cloudflare  : {}", self.same_ns_cloudflare)?;
        writeln!(f, "  NS set changed             : {}", self.ns_changed)?;
        writeln!(f, "  lost NS records            : {}", self.lost_ns)
    }
}

/// Compute the §4.2.3 breakdown.
pub fn sec423_intermittent(store: &dyn ObservationSource) -> IntermittentBreakdown {
    // Track per-domain: days with/without HTTPS (only days the domain was
    // listed) and the NS categories observed while HTTPS was active or not.
    #[derive(Clone, Copy, Default)]
    struct Track {
        with: u32,
        without: u32,
        /// Bit `c` set: NS category byte `c` was observed (only 0..=2
        /// reach here; anything else decodes as `NoNs`).
        categories: u64,
        lost_ns: bool,
    }
    let mut tracks: Tracks<Track, Observation> = Tracks::default();
    let proj = ScanFilter::projected(
        Projection::FLAGS.with(Projection::NS_CATEGORY).with(Projection::DOMAIN_ID),
    );
    store.for_each_day_filtered(proj, &mut |_, obs| {
        let apexes = obs.iter().filter(|o| !o.is_www());
        tracks.merge_day(apexes.map(|o| (u64::from(o.domain_id), *o)), |t, o| {
            if o.has(flags::RESOLUTION_FAILED) {
                // Resolution failures count as "lost NS" evidence.
                t.lost_ns = true;
                t.without += 1;
                return;
            }
            if NsCategory::from_u8(o.ns_category) == NsCategory::NoNs {
                // Delegation gone while listed: the "no NS records" class.
                t.lost_ns = true;
            } else {
                t.categories |= 1 << o.ns_category;
            }
            if o.https() {
                t.with += 1;
            } else {
                t.without += 1;
            }
        });
    });
    let mut out = IntermittentBreakdown::default();
    for (_, t) in tracks.iter() {
        if t.with == 0 || t.without == 0 {
            continue;
        }
        out.intermittent_total += 1;
        if t.lost_ns {
            out.lost_ns += 1;
        } else if t.categories.count_ones() <= 1 {
            out.same_ns += 1;
            if t.categories & (1 << NsCategory::FullCloudflare as u8) != 0 {
                out.same_ns_cloudflare += 1;
            }
        } else {
            out.ns_changed += 1;
        }
    }
    out
}
