//! # resolver
//!
//! A recursive caching DNS resolver over the simulated network:
//! delegation-registry-driven authority lookup, pluggable name-server
//! selection, cross-zone CNAME chasing, TTL-faithful positive/negative
//! caching, DNSSEC chain validation with AD-bit semantics, named
//! [`VantagePoint`] profiles modelling public-resolver behaviours, and a
//! [`netsim::DatagramService`] implementation so it can be bound to an IP
//! and used as a "public resolver" by browsers and scanners.
//!
//! An exchange with an authority on the synchronous path allocates only
//! the reply it keeps: the query is written in place
//! ([`dns_wire::write_query`]) and the answer received into
//! per-thread buffers reused from one exchange to the next, and a reply
//! with answers is copied once into the buffer its [`RrSet`]s share.

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod eventloop;
pub mod pool;
pub mod reply;
pub mod resolver;
pub mod selection;
pub mod vantage;

pub use cache::{CacheStats, CachedAnswer, EvictionPolicy, RecordCache, DEFAULT_SHARDS};
pub use engine::{BatchTiming, Query, QueryEngine};
pub use eventloop::EventLoopStats;
pub use pool::WorkerPool;
pub use reply::RrSet;
pub use resolver::{
    RecursiveResolver, Resolution, ResolveError, ResolverConfig, ATTEMPT_TIMEOUT_MS,
    MAX_CNAME_CHAIN, RETRANSMITS,
};
pub use selection::{NsSelector, SelectionStrategy};
pub use vantage::VantagePoint;
