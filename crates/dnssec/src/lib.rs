//! # dnssec
//!
//! Zone signing and chain-of-trust validation over [`simcrypto`]'s
//! simulated keys. The record formats are the real RFC 4034 ones (from
//! `dns-wire`); only the signature algorithm is simulated, registered
//! under algorithm number 253 (`PRIVATEDNS`). Both sides work on wire
//! bytes: one builder of RFC 4034 §3.1.8.1 signed data, over RDATA read in
//! place, serves [`ZoneKeys::write_rrsig`] and [`validate`]. Its canonical
//! form (§6.2) lowercases the owner, the signer and the names in NS, CNAME,
//! SOA, PTR, MX, SRV and DNAME RDATA; other RDATA (HTTPS too) is verbatim.
//!
//! The validation states mirror RFC 4035 and the paper's §4.5 analysis:
//!
//! * **Secure** — an unbroken DS→DNSKEY→RRSIG chain from the root, the
//!   one trust anchor.
//! * **Insecure** — the zone is signed but its parent has no DS record
//!   (the paper's dominant failure: third-party DNS operators whose
//!   customers never upload DS records to the registrar, §4.5.1/App. G).
//! * **Bogus** — a signature or digest exists but fails verification
//!   (tampering, expired signature, wrong key).
//! * **Unsigned** — no RRSIG at all.

#![warn(missing_docs)]

pub mod chain;
pub mod signer;

pub use chain::{validate, ChainSource, SignedSet, ValidationState};
pub use signer::{ZoneKeys, SIM_ALGORITHM, SIM_DIGEST_TYPE};
