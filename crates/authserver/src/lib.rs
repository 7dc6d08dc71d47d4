//! # authserver
//!
//! Authoritative DNS serving for the simulated ecosystem: [`Zone`] data
//! with real lookup semantics (CNAME, DNAME synthesis, NODATA/NXDOMAIN,
//! DNSSEC RRSIG attachment), the [`AuthoritativeServer`] datagram
//! service, and the [`DelegationRegistry`] that tells resolvers which
//! name servers serve which apex.
//!
//! A zone is one hash index from owner name to that name's RRsets, each
//! stored once in wire form with its RRSIG signed on first use; every
//! datagram is answered by copying those bytes behind owner names the
//! server compresses itself, into the buffer the sender hands it. The
//! owned path ([`Zone::lookup`], [`AuthoritativeServer::answer`])
//! decodes the same index and is the reference the wire answers are
//! tested against.
//!
//! A provider in the ecosystem owns one or more `AuthoritativeServer`
//! instances bound to IPs on the simulated network; domains migrate
//! between providers by re-pointing their registry delegation — the
//! mechanism behind the paper's §4.2.3 intermittent-HTTPS findings.

#![warn(missing_docs)]

pub mod registry;
pub mod server;
pub mod zone;

pub use registry::{DelegationRegistry, NsEndpoint};
pub use server::{AuthoritativeServer, ZoneSet};
pub use zone::{LookupResult, RrSetRef, Zone};
