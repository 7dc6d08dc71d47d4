//! # ecosystem
//!
//! The synthetic Internet the scanner measures: a Tranco-like ranked
//! domain universe with daily churn and the 2023-08-01 source change,
//! provider models (Cloudflare's proxied-default HTTPS record and hourly
//! ECH key rotation with the 2023-10-05 kill switch, GoDaddy AliasMode,
//! Google empty-SvcParams, legacy non-supporting registrars), domain
//! lifecycle events (proxied toggling, NS migrations, renumbering with
//! lagging A/hint records), full root→TLD→zone DNSSEC chains with the
//! registrar/operator DS-upload failure mode, a WHOIS registry with
//! BYOIP noise, and web servers bound for every domain.
//!
//! Everything is a deterministic function of `EcosystemConfig::seed`.

#![warn(missing_docs)]

pub mod config;
pub mod domain;
pub mod providers;
pub mod tranco;
pub mod whois;
pub mod world;

pub use config::{EcosystemConfig, Landmarks};
pub use domain::{synthesize_https, DomainState, HttpsIntent, HttpsShape, SynthesisContext};
pub use providers::{
    provider_specs, well_known, HttpsPolicy, ProviderCatalog, ProviderId, ProviderInfra,
    ProviderSpec,
};
pub use tranco::{DailyList, TrancoModel};
pub use whois::{Allocation, WhoisDb};
pub use world::{CfEch, StepStats, World};
