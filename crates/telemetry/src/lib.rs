//! # telemetry
//!
//! First-class instrumentation for the resolution pipeline: lock-free
//! atomic [`Counter`]s, fixed-bucket log-spaced [`Histogram`]s with
//! plain-data [`HistogramSnapshot`]s, and a labelled [`MetricsRegistry`]
//! that renders text and CSV reports.
//!
//! ## The determinism split
//!
//! The engine, cache, and scanner are pinned to a strict determinism
//! contract: the same batch produces byte-identical results for any
//! worker thread count. Instrumentation must not weaken that contract,
//! so this crate's consumers observe two distinct metric classes:
//!
//! - **Counters are simulation-deterministic.** Everything recorded
//!   into a [`Counter`] is derived from batch *outcomes* (which are
//!   thread-count-invariant by the engine contract), never from
//!   scheduling artefacts. The canonical rendering
//!   ([`MetricsRegistry::counters_text`]) is therefore byte-identical
//!   across thread counts and is pinned by the resolver's determinism
//!   suite.
//! - **Histograms are wall-clock, observational only.** Latencies,
//!   queue depths, and network-traffic distributions vary run to run
//!   and across interleavings; they are exported for perf work but
//!   never compared for determinism and never feed back into
//!   resolution.
//!
//! Recording on the hot path is a single atomic `fetch_add` (counters)
//! or two of them (histograms); neither takes a lock, blocks, or
//! branches on shared state, which is what makes it safe to thread
//! through the determinism-pinned resolution paths: telemetry observes,
//! it never perturbs.

#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod registry;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::MetricsRegistry;
