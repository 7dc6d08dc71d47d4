//! # scanner
//!
//! The paper's measurement framework rebuilt over the simulated
//! ecosystem: daily snapshot scans of HTTPS/A/NS (+RRSIG, +AD) for every
//! listed apex and www name, name-server address resolution with WHOIS
//! attribution, a longitudinal [`SnapshotStore`], the §4.4.2 hourly ECH
//! rotation scan, and the §4.3.5 connectivity probe.
//!
//! Scans resolve through the shared [`resolver::QueryEngine`]: each day
//! is a sequence of batched query waves with a deterministic worker
//! fan-out over the simulated network, mirroring the paper's
//! controlled-pace parallel scanning.
//!
//! A [`Campaign`] can drive several [`resolver::VantagePoint`] profiles
//! over the same world ([`Campaign::run_vantages`]), producing one
//! labelled [`SnapshotStore`] per resolver view for cross-vantage
//! diffing; [`store::combined_csv`] exports them as one dataset.
//! [`Campaign::run_vantages_instrumented`] additionally attaches one
//! `telemetry::MetricsRegistry` per vantage and returns [`VantageRun`]s
//! bundling store + registry + cache statistics — byte-identical
//! stores, telemetry only observes.
//!
//! Campaigns also persist: [`Campaign::run_to_store`] writes each day
//! through to an append-only columnar [`persist::StoreWriter`] as it
//! completes, [`persist::open_store`] streams it back day-by-day, and
//! every analysis runs over either representation via the
//! [`ObservationSource`] trait with byte-identical reports. Interrupted
//! campaigns resume at the last complete day boundary
//! ([`persist::StoreWriter::open_resume`] + replay verification in
//! [`Campaign::run_to_store`]).

#![warn(missing_docs)]

pub mod authority;
pub mod daily;
pub mod observation;
pub mod special;
pub mod store;

pub use authority::{
    authority_consistency_scan, probe_domain, AuthorityDisagreement, EndpointAnswer,
};
pub use daily::{scan_day, scan_one_day, Campaign, StoreRunReport, VantageRun};
pub use observation::{flags, NsCategory, Observation};
pub use special::{connectivity_probe, hourly_ech_scan, ConnectivityReport, EchObservation};
pub use store::persist::{
    self, open_store, ChunkStats, OpenStore, StoreMeta, StoreReader, StoreWriter,
};
pub use store::{
    combined_csv, write_combined_csv, write_csv, ObservationSource, OrgId, OrgInterner, Projection,
    ScanFilter, SnapshotStore,
};
