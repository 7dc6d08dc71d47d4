//! # serve
//!
//! The serving subsystem: flip the scanner's direction and model a
//! recursive resolver *serving* a stub-client population, instead of a
//! measurement harness asking its own questions.
//!
//! Two halves:
//!
//! - [`workload`]: a deterministic stub-client load generator.
//!   Clients draw query targets Zipf-over-Tranco via
//!   [`ecosystem::DailyList::sample_by_popularity`] (reusing the model's
//!   precomputed `base_weight` popularity — no second popularity model),
//!   and emit open-loop Poisson arrivals with per-client seeded rate
//!   jitter, merged into one virtual-time arrival stream.
//! - [`driver`]: replays an arrival stream against a
//!   [`resolver::QueryEngine`] with a **bounded** record cache (TTL
//!   sweep, then LRU), layering a deterministic k-server queueing model
//!   in virtual microseconds on top of the engine's hit/miss outcomes.
//!   Open-loop load sweeps ramp offered kq/s until the model saturates.
//!
//! ## Determinism
//!
//! Everything reported ([`ServeReport`], the serve counters, the
//! `serve.latency_us` deterministic histogram) derives from virtual
//! time and seeded RNG streams only — never wall clocks — and the serve
//! path drives the engine strictly sequentially, so reports are
//! byte-identical across host thread counts *by construction* (the same
//! contract the event-loop backend satisfies; pinned by this crate's
//! determinism tests under the `RESOLVER_TEST_THREADS` matrix).
//!
//! The queueing model is explicitly a model: per-query service costs
//! (cache hit vs recursive miss) and the miss RTT penalty are
//! configuration knobs, not measurements; misses add latency but do not
//! occupy the worker for the RTT (the worker is assumed to context
//! switch). Saturation then emerges naturally when offered load exceeds
//! `workers / avg_service`.

#![warn(missing_docs)]

pub mod driver;
pub mod report;
pub mod workload;

pub use driver::{load_sweep, ServeConfig};
pub use report::{PhaseReport, ServeReport};
pub use workload::{Arrival, StubPopulation, WorkloadConfig};
