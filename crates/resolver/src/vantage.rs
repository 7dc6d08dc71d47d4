//! Resolver vantage points: named profiles modelling how different
//! public/ISP resolvers see the same DNS ecosystem.
//!
//! The paper's central comparison (§4.2.3) is that the *same* zone data
//! looks different through different resolver vantage points: a
//! validating resolver pinned to its fastest server, a rotating public
//! resolver, and a randomized ISP cache disagree about a mixed-provider
//! zone's HTTPS record. A [`VantagePoint`] is a [`ResolverConfig`]
//! (selection strategy and seed, DNSSEC validation, TTL clamp, negative
//! TTL) under a stable label, so a scanner can drive N engines with
//! distinct profiles over one world and diff their datasets. The link is
//! not part of a profile: a [`LinkModel`](netsim::LinkModel) on the
//! network puts every engine on the event loop (see [`crate::engine`]).
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
    config: ResolverConfig,
}

impl VantagePoint {
    fn new(name: &str, config: ResolverConfig) -> VantagePoint {
        VantagePoint { name: name.to_string(), config }
    }

    /// A custom profile with the given label and strategy; remaining
    /// knobs start from the validating defaults.
    pub fn custom(name: &str, strategy: SelectionStrategy) -> VantagePoint {
        VantagePoint::new(name, ResolverConfig { strategy, ..Default::default() })
    }

    /// Google-Public-DNS-style profile: validating, rotates through the
    /// delegation set per query, clamps cache TTLs to six hours.
    pub fn google_public() -> VantagePoint {
        let config = ResolverConfig {
            strategy: SelectionStrategy::RoundRobin,
            seed: 0x600_61E,
            ttl_clamp: Some(21_600),
            ..Default::default()
        };
        VantagePoint::new("google", config)
    }

    /// Cloudflare-1.1.1.1-style profile: validating, pinned to its
    /// measured-fastest server, aggressive (low) TTL clamp.
    pub fn cloudflare_public() -> VantagePoint {
        let strategy = SelectionStrategy::First;
        let config =
            ResolverConfig { strategy, seed: 0x1111, ttl_clamp: Some(3_600), ..Default::default() };
        VantagePoint::new("cloudflare", config)
    }

    /// ISP-resolver-style profile: no DNSSEC validation, randomized NS
    /// selection, honours authoritative TTLs, long negative default.
    pub fn isp_resolver() -> VantagePoint {
        let config = ResolverConfig {
            validate: false,
            strategy: SelectionStrategy::Random,
            seed: 0x15B_0BAD,
            default_negative_ttl: 900,
            ..Default::default()
        };
        VantagePoint::new("isp", config)
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
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Build a [`QueryEngine`] for this vantage on `network`/`registry`.
    pub fn engine(&self, network: Network, registry: DelegationRegistry) -> QueryEngine {
        QueryEngine::new(network, registry, self.config.clone())
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
            presets.iter().map(|v| format!("{:?}", v.config.strategy)).collect();
        assert_eq!(strategies.len(), 3, "presets must differ in selection strategy");
        assert!(presets.iter().any(|v| v.config.strategy == SelectionStrategy::Random));
    }

    #[test]
    fn custom_profile_keeps_label() {
        let v = VantagePoint::custom("lab", SelectionStrategy::First);
        assert_eq!(v.name, "lab");
        assert!(v.config.validate);
    }
}
