//! Resolver vantage points: named profiles modelling how different
//! public/ISP resolvers see the same DNS ecosystem.
//!
//! The paper's central comparison (§4.2.3) is that the *same* zone data
//! looks different through different resolver vantage points: a
//! validating resolver pinned to its fastest server, a rotating public
//! resolver, and a randomized ISP cache disagree about a mixed-provider
//! zone's HTTPS record. A [`VantagePoint`] packages the knobs that
//! produce those differences — selection strategy, DNSSEC validation,
//! TTL clamp, negative-TTL default, and the selection seed — under a
//! stable label, so a scanner can drive N engines with distinct
//! profiles over one world and diff their datasets. The link is not
//! part of a profile: a [`LinkModel`](netsim::LinkModel) installed on
//! the network puts every vantage's engine on the virtual-time event
//! loop (see [`crate::engine`]).
//!
//! ## Determinism
//!
//! Every profile is fully deterministic: `Random` selection draws from
//! per-zone RNGs seeded from `(seed, zone key)` (see
//! [`crate::selection`]), so a multi-vantage scan produces byte-identical
//! per-vantage datasets for any worker thread count.

use crate::engine::QueryEngine;
use crate::resolver::ResolverConfig;
use crate::selection::SelectionStrategy;
use authserver::DelegationRegistry;
use netsim::Network;

/// A named resolver profile: one vantage point onto the ecosystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VantagePoint {
    /// Stable label, used to tag stores and reports (e.g. `google`).
    pub name: String,
    /// Perform DNSSEC validation and report the AD bit.
    pub validate: bool,
    /// NS selection strategy this resolver uses.
    pub strategy: SelectionStrategy,
    /// Seed driving `Random` selection (per-zone streams derive from it).
    pub seed: u64,
    /// Cache TTL clamp, seconds (None = honour authoritative TTLs).
    pub ttl_clamp: Option<u32>,
    /// Negative-cache TTL when the response carries no SOA.
    pub default_negative_ttl: u32,
}

impl VantagePoint {
    /// A custom profile with the given label and strategy; remaining
    /// knobs start from the validating defaults.
    pub fn custom(name: &str, strategy: SelectionStrategy) -> VantagePoint {
        VantagePoint {
            name: name.to_string(),
            validate: true,
            strategy,
            seed: 0,
            ttl_clamp: None,
            default_negative_ttl: 300,
        }
    }

    /// Google-Public-DNS-style profile: validating, rotates through the
    /// delegation set per query, clamps cache TTLs to six hours.
    pub fn google_public() -> VantagePoint {
        VantagePoint {
            name: "google".to_string(),
            validate: true,
            strategy: SelectionStrategy::RoundRobin,
            seed: 0x600_61E,
            ttl_clamp: Some(21_600),
            default_negative_ttl: 300,
        }
    }

    /// Cloudflare-1.1.1.1-style profile: validating, pinned to its
    /// measured-fastest server, aggressive (low) TTL clamp.
    pub fn cloudflare_public() -> VantagePoint {
        VantagePoint {
            name: "cloudflare".to_string(),
            validate: true,
            strategy: SelectionStrategy::First,
            seed: 0x1111,
            ttl_clamp: Some(3_600),
            default_negative_ttl: 300,
        }
    }

    /// ISP-resolver-style profile: no DNSSEC validation, randomized NS
    /// selection, honours authoritative TTLs, long negative default.
    pub fn isp_resolver() -> VantagePoint {
        VantagePoint {
            name: "isp".to_string(),
            validate: false,
            strategy: SelectionStrategy::Random,
            seed: 0x15B_0BAD,
            ttl_clamp: None,
            default_negative_ttl: 900,
        }
    }

    /// The three standard presets the multi-vantage scanner compares:
    /// [`google_public`](Self::google_public),
    /// [`cloudflare_public`](Self::cloudflare_public), and
    /// [`isp_resolver`](Self::isp_resolver).
    pub fn presets() -> Vec<VantagePoint> {
        vec![
            VantagePoint::google_public(),
            VantagePoint::cloudflare_public(),
            VantagePoint::isp_resolver(),
        ]
    }

    /// The [`ResolverConfig`] this profile resolves with.
    pub fn resolver_config(&self) -> ResolverConfig {
        ResolverConfig {
            validate: self.validate,
            strategy: self.strategy,
            seed: self.seed,
            ttl_clamp: self.ttl_clamp,
            default_negative_ttl: self.default_negative_ttl,
            ..Default::default()
        }
    }

    /// Build a [`QueryEngine`] for this vantage on `network`/`registry`.
    pub fn engine(&self, network: Network, registry: DelegationRegistry) -> QueryEngine {
        QueryEngine::new(network, registry, self.resolver_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_names_and_strategies() {
        let presets = VantagePoint::presets();
        assert_eq!(presets.len(), 3);
        let names: std::collections::HashSet<_> = presets.iter().map(|v| v.name.clone()).collect();
        assert_eq!(names.len(), presets.len(), "preset labels must be unique");
        let strategies: std::collections::HashSet<_> =
            presets.iter().map(|v| format!("{:?}", v.strategy)).collect();
        assert_eq!(strategies.len(), 3, "presets must differ in selection strategy");
        assert!(presets.iter().any(|v| v.strategy == SelectionStrategy::Random));
    }

    #[test]
    fn config_mirrors_profile() {
        let v = VantagePoint::google_public();
        let cfg = v.resolver_config();
        assert_eq!(cfg.validate, v.validate);
        assert_eq!(cfg.strategy, v.strategy);
        assert_eq!(cfg.seed, v.seed);
        assert_eq!(cfg.ttl_clamp, v.ttl_clamp);
        assert_eq!(cfg.default_negative_ttl, v.default_negative_ttl);
    }

    #[test]
    fn custom_profile_keeps_label() {
        let v = VantagePoint::custom("lab", SelectionStrategy::First);
        assert_eq!(v.name, "lab");
        assert!(v.validate);
    }
}
