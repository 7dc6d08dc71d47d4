//! # netsim
//!
//! A deterministic simulated internet for the `httpsrr` workspace:
//! a manually advanced [`SimClock`] with a civil [`Calendar`] (so
//! longitudinal results can be reported against the paper's real dates),
//! and a [`Network`] connecting datagram services (DNS servers) and
//! stream services (web servers) by IP and port, with per-IP blackholing
//! for connectivity experiments and traffic accounting for pacing
//! assertions.
//!
//! Design note: the network is synchronous — a packet is a method call —
//! which makes every experiment in the workspace reproducible bit-for-bit
//! from a seed. A datagram service writes its response into a buffer the
//! sender hands it ([`Network::send_datagram_into`]), so a sender that
//! reuses its buffer exchanges without allocating. Concurrency in higher
//! layers (the scanner) uses scoped threads over this shared handle; all
//! interior state is behind `parking_lot` locks, except the clock, which
//! is one atomic.
//!
//! Virtual time extends this without breaking it: a [`LinkModel`] gives
//! links seeded RTT/loss behaviour, and
//! [`Network::send_datagram_scheduled`] turns a send into a *scheduled
//! delivery* (the reply is computed eagerly but time-stamped at
//! `now + rtt`). A network carries no model until one is installed; the
//! model selects the resolver's virtual-time event loop, and every
//! synchronous caller is untouched either way.

#![warn(missing_docs)]

pub mod clock;
pub mod latency;
pub mod network;

pub use clock::{Calendar, CivilDate, SimClock, TimeMs, Timestamp};
pub use latency::{EndpointOverride, LinkFate, LinkModel};
pub use network::{
    DatagramService, NetError, Network, ScheduledDelivery, StreamService, TrafficStats, WeakNetwork,
};
