//! The recursive caching resolver.
//!
//! Resolution strategy: find the deepest delegated zone for the queried
//! name via the [`DelegationRegistry`], pick a name server with the
//! configured [`SelectionStrategy`], query it over the simulated network
//! with the EDNS DO bit set (the query written and the reply received in
//! buffers this thread keeps between exchanges), chase CNAMEs across
//! zones, cache positive and negative answers by TTL, and (optionally)
//! validate DNSSEC chains to decide the AD bit — the full pipeline the
//! paper relies on when it measures records through Google/Cloudflare
//! public resolvers.

use crate::cache::{CachedAnswer, RecordCache, DEFAULT_SHARDS};
use crate::reply::{AuthorityReply, RrSet};
use crate::selection::{NsSelector, SelectionStrategy};
use authserver::{DelegationRegistry, NsEndpoint};
use dns_wire::{write_dnssec_query, DnsName, Message, RData, Rcode, Record, RecordType};
use dnssec::{ChainSource, ValidationState};
use netsim::{DatagramService, NetError, Network, Timestamp};
use parking_lot::Mutex;
use std::cell::Cell;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Maximum cross-zone CNAME chain length a resolution follows.
pub const MAX_CNAME_CHAIN: usize = 8;

/// Virtual milliseconds the event loop waits for a reply before
/// declaring one attempt timed out.
pub const ATTEMPT_TIMEOUT_MS: u64 = 500;

/// Retransmissions per endpoint after the first attempt times out (so
/// each endpoint is tried `RETRANSMITS + 1` times) before the event loop
/// falls back to the next NS.
pub const RETRANSMITS: u32 = 2;

/// Resolver configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverConfig {
    /// Perform DNSSEC validation and set the AD bit on Secure answers.
    pub validate: bool,
    /// NS selection strategy.
    pub strategy: SelectionStrategy,
    /// Seed for randomized selection.
    pub seed: u64,
    /// Optional cache TTL clamp (ablation knob).
    pub ttl_clamp: Option<u32>,
    /// Negative-cache TTL when no SOA is present in the response.
    pub default_negative_ttl: u32,
    /// Per-shard cache capacity bound; `None` (the default) keeps the
    /// cache unbounded, which the scanner campaigns rely on. The serving
    /// subsystem sets `Some(n)` to model a production resolver's finite
    /// cache.
    pub cache_capacity_per_shard: Option<usize>,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            validate: true,
            strategy: SelectionStrategy::RoundRobin,
            seed: 0,
            ttl_clamp: None,
            default_negative_ttl: 300,
            cache_capacity_per_shard: None,
        }
    }
}

/// Errors surfaced by resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No delegation covers the name.
    NoAuthority(DnsName),
    /// Every endpoint of the authority failed at the network layer.
    Network(NetError),
    /// The authority answered but refused / was lame for the zone.
    Lame(DnsName),
    /// CNAME chain exceeded [`MAX_CNAME_CHAIN`].
    ChainTooLong,
    /// The authority's response could not be decoded.
    Malformed,
    /// Every attempt against every endpoint of the zone ran out the
    /// retransmit budget without a reply (loss or a slow/mute server) —
    /// distinct from [`ResolveError::Network`] so stored observations
    /// can tell timeout-shaped loss apart from NXDOMAIN-shaped failure.
    Timeout {
        /// The zone whose endpoints never answered in time.
        zone: DnsName,
        /// Total attempts (including retransmissions) that timed out.
        attempts: u32,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NoAuthority(n) => write!(f, "no authority for {n}"),
            ResolveError::Network(e) => write!(f, "network failure: {e}"),
            ResolveError::Lame(n) => write!(f, "lame delegation for {n}"),
            ResolveError::ChainTooLong => write!(f, "CNAME chain too long"),
            ResolveError::Malformed => write!(f, "malformed authority response"),
            ResolveError::Timeout { zone, attempts } => {
                write!(f, "timed out after {attempts} attempts against {zone}")
            }
        }
    }
}

impl ResolveError {
    /// Whether this failure is timeout-shaped: the query was sent but no
    /// reply arrived within budget (packet loss, slow or mute servers) —
    /// as opposed to a negative or structurally failed resolution.
    pub fn is_timeout(&self) -> bool {
        matches!(self, ResolveError::Timeout { .. } | ResolveError::Network(NetError::Timeout))
    }
}

impl std::error::Error for ResolveError {}

/// The outcome of a resolution.
///
/// The answer is an [`RrSet`]: offsets into the authority reply it came
/// in, shared with the resolver's cache and with every other
/// `Resolution` of the same answer, so cloning one copies no record.
/// Readers decode what they need through [`RrSet::records`]; `==`
/// compares the records and signatures, not the reply bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// CNAME chain records traversed, in order.
    pub chain: Vec<Record>,
    /// Final answer RRset (of the queried type) with the RRSIGs covering
    /// it (when the zone is signed); empty on NODATA/NXDOMAIN.
    pub records: RrSet,
    /// Final response code.
    pub rcode: Rcode,
    /// DNSSEC validation state of the final RRset (None when validation
    /// is disabled or there was nothing to validate).
    pub validation: Option<ValidationState>,
    /// Whether the final answer was served from cache.
    pub from_cache: bool,
}

impl Resolution {
    /// A resolution without an answer RRset. The empty set allocates
    /// nothing.
    fn negative(chain: Vec<Record>, rcode: Rcode, from_cache: bool) -> Resolution {
        Resolution { chain, records: RrSet::default(), rcode, validation: None, from_cache }
    }

    /// The Authenticated Data bit as a resolver would set it.
    pub fn ad(&self) -> bool {
        matches!(self.validation, Some(ValidationState::Secure))
    }

    /// Whether any answer records were produced.
    pub fn is_positive(&self) -> bool {
        !self.records.is_empty()
    }
}

/// A recursive caching resolver bound to a simulated network.
pub struct RecursiveResolver {
    network: Network,
    registry: DelegationRegistry,
    cache: RecordCache,
    selector: NsSelector,
    config: ResolverConfig,
    next_id: AtomicU16,
    /// Held across each cache-check-then-fetch of DNSSEC chain material
    /// ([`RecursiveResolver::chain_set`]). Two pool workers validating different
    /// zones share ancestors; without it both miss and both fetch, and
    /// the cache statistics a campaign prints count two misses where a
    /// sequential run counts a miss and a hit.
    chain_fetch: Mutex<()>,
}

impl RecursiveResolver {
    /// Create a resolver.
    pub fn new(network: Network, registry: DelegationRegistry, config: ResolverConfig) -> Self {
        let cache = match config.cache_capacity_per_shard {
            Some(capacity) => {
                RecordCache::with_eviction(DEFAULT_SHARDS, config.ttl_clamp, capacity)
            }
            None => RecordCache::with_config(DEFAULT_SHARDS, config.ttl_clamp),
        };
        let selector = NsSelector::new(config.strategy, config.seed);
        RecursiveResolver {
            network,
            registry,
            cache,
            selector,
            config,
            next_id: AtomicU16::new(1),
            chain_fetch: Mutex::new(()),
        }
    }

    /// The resolver's cache (for inspection and explicit flushes).
    pub fn cache(&self) -> &RecordCache {
        &self.cache
    }

    /// The underlying network handle.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The delegation registry this resolver consults.
    pub fn registry(&self) -> &DelegationRegistry {
        &self.registry
    }

    /// The NS selector (shared with the event-loop backend so both
    /// resolution paths consume one per-zone selection-state stream).
    pub(crate) fn selector(&self) -> &NsSelector {
        &self.selector
    }

    /// Allocate the next DNS transaction id.
    pub(crate) fn next_query_id(&self) -> u16 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Resolve `(name, rtype)` at the current simulated time.
    pub fn resolve(&self, name: &DnsName, rtype: RecordType) -> Result<Resolution, ResolveError> {
        let now = self.network.clock().now();
        let mut chain: Vec<Record> = Vec::new();
        let mut current = name.clone();
        let mut from_cache = true;

        for _ in 0..=MAX_CNAME_CHAIN {
            // 1. Cache: final answer, or a CNAME step?
            match self.cached_step(&mut chain, &current, rtype, from_cache, now) {
                ControlFlow::Break(resolution) => return Ok(resolution),
                ControlFlow::Continue(Some(target)) => {
                    current = target;
                    continue;
                }
                ControlFlow::Continue(None) => from_cache = false,
            }

            // 2. Query the authority.
            let resp = self.query_authority(&current, rtype)?;
            match self.apply_reply(&resp, &mut chain, &current, rtype, now) {
                ControlFlow::Break(resolution) => return Ok(resolution),
                ControlFlow::Continue(target) => current = target,
            }
        }
        Err(ResolveError::ChainTooLong)
    }

    /// The cache half of a resolution step, shared by both backends: one
    /// lookup of `(current, rtype)`, then of `(current, CNAME)`, under
    /// one shard lock. The resolution ends on a cached answer (`Break`,
    /// taking `chain`), follows a cached CNAME to its target
    /// (`Continue(Some)`, the record pushed on `chain`), or has to ask
    /// an authority (`Continue(None)`).
    pub(crate) fn cached_step(
        &self,
        chain: &mut Vec<Record>,
        current: &DnsName,
        rtype: RecordType,
        from_cache: bool,
        now: Timestamp,
    ) -> ControlFlow<Resolution, Option<DnsName>> {
        match self.cache.get_or_cname(current, rtype, now) {
            Some((hit, ans)) if hit == rtype => {
                ControlFlow::Break(self.finish(std::mem::take(chain), ans, from_cache, now))
            }
            Some((_, CachedAnswer::Positive(alias))) => match cname_step(&alias) {
                Some((rec, target)) => {
                    chain.push(rec);
                    ControlFlow::Continue(Some(target))
                }
                None => ControlFlow::Continue(None),
            },
            _ => ControlFlow::Continue(None),
        }
    }

    /// What an authority's reply about `(current, rtype)` means for the
    /// resolution in progress — the step both backends share. Every
    /// RRset of the answer section is cached (the authority may have
    /// chased a CNAME for us) and so is a negative outcome; then the
    /// resolution either ends (`Break`, taking `chain`) or moves on to
    /// the target of `current`'s CNAME (`Continue`).
    pub(crate) fn apply_reply(
        &self,
        resp: &AuthorityReply,
        chain: &mut Vec<Record>,
        current: &DnsName,
        rtype: RecordType,
        now: Timestamp,
    ) -> ControlFlow<Resolution, DnsName> {
        if resp.rcode != Rcode::NoError {
            if resp.rcode == Rcode::NxDomain {
                let ttl = resp.negative_ttl(self.config.default_negative_ttl);
                self.cache.insert_negative(current, rtype, Rcode::NxDomain, ttl, now);
            }
            return ControlFlow::Break(Resolution::negative(
                std::mem::take(chain),
                resp.rcode,
                false,
            ));
        }
        // Cache every set, keeping the answer and `current`'s CNAME.
        let (mut answer, mut alias) = (None, None);
        for set in resp.sets() {
            self.cache_rrset(&set, now);
            if set.owner() == current {
                if set.rtype() == rtype {
                    answer = Some(set);
                } else if set.rtype() == RecordType::Cname {
                    alias = Some(set);
                }
            }
        }
        if let Some(set) = answer {
            let chain = std::mem::take(chain);
            return ControlFlow::Break(self.finish(chain, CachedAnswer::Positive(set), false, now));
        }
        // CNAME step from the live response.
        if let Some((rec, target)) = alias.as_ref().and_then(cname_step) {
            chain.push(rec);
            return ControlFlow::Continue(target);
        }
        // NODATA.
        let ttl = resp.negative_ttl(self.config.default_negative_ttl);
        self.cache.insert_negative(current, rtype, Rcode::NoError, ttl, now);
        ControlFlow::Break(Resolution::negative(std::mem::take(chain), Rcode::NoError, false))
    }

    pub(crate) fn finish(
        &self,
        chain: Vec<Record>,
        ans: CachedAnswer,
        from_cache: bool,
        now: Timestamp,
    ) -> Resolution {
        match ans {
            CachedAnswer::Positive(records) => {
                let (source, now) = (&mut ChainFetch(self), now.0.min(u32::MAX as u64) as u32);
                let validation =
                    self.config.validate.then(|| dnssec::validate(&records, source, now));
                Resolution { chain, records, rcode: Rcode::NoError, validation, from_cache }
            }
            CachedAnswer::Negative { rcode } => Resolution::negative(chain, rcode, from_cache),
        }
    }

    /// The zone to ask about `name`, shared by both backends: the
    /// deepest delegation covering it, with its endpoints. A name that
    /// no delegation covers, or whose delegation lists no endpoint, has
    /// no authority.
    pub(crate) fn authority(
        &self,
        name: &DnsName,
    ) -> Result<(DnsName, Arc<[NsEndpoint]>), ResolveError> {
        self.registry
            .find_authority(name)
            .filter(|(_, endpoints)| !endpoints.is_empty())
            .ok_or_else(|| ResolveError::NoAuthority(name.clone()))
    }

    /// One authoritative round: select endpoints for the deepest zone and
    /// try them in fallback order.
    fn query_authority(
        &self,
        name: &DnsName,
        rtype: RecordType,
    ) -> Result<AuthorityReply, ResolveError> {
        let (apex, endpoints) = self.authority(name)?;
        self.ask(&apex, self.selector.pick_order(&apex, &endpoints), name, rtype)
    }

    /// Send one query for `(name, rtype)` to `zone`'s endpoints in the
    /// given order until one of them answers it usably. The query is
    /// written and each reply received in this thread's [`EXCHANGE`]
    /// buffers, so the exchange allocates only what a usable reply is
    /// parsed into.
    fn ask<'a>(
        &self,
        zone: &DnsName,
        order: impl Iterator<Item = &'a NsEndpoint>,
        name: &DnsName,
        rtype: RecordType,
    ) -> Result<AuthorityReply, ResolveError> {
        let id = self.next_query_id();
        let (mut query, mut reply) = EXCHANGE.take();
        write_dnssec_query(&mut query, id, name, rtype);
        let mut last_err = ResolveError::Lame(zone.clone());
        let outcome = 'ask: {
            for ep in order {
                last_err = match self.network.send_datagram_into(ep.ip, 53, &query, &mut reply) {
                    Ok(()) => match check_reply(&reply, id, zone, name, rtype) {
                        Ok(resp) => break 'ask Ok(resp),
                        Err(e) => e,
                    },
                    Err(e) => ResolveError::Network(e),
                };
            }
            Err(last_err)
        };
        EXCHANGE.set((query, reply));
        outcome
    }

    fn cache_rrset(&self, set: &RrSet, now: Timestamp) {
        self.cache.insert_positive(set.owner(), set.rtype(), set.clone(), now);
    }

    /// The `(zone, rtype)` set of a chain walk from the cache, else
    /// fetched with the DO bit: DNSKEY from the zone's servers (every set
    /// of the reply cached), DS from its parent's (that set cached). A
    /// reply without the set is cached as a negative answer under the
    /// reply's own rcode.
    fn chain_set(&self, zone: &DnsName, rtype: RecordType) -> Option<RrSet> {
        let _fetching = self.chain_fetch.lock();
        let now = self.network.clock().now();
        match self.cache.get(zone, rtype, now) {
            Some(CachedAnswer::Positive(set)) => return Some(set),
            Some(CachedAnswer::Negative { .. }) => return None,
            None => {}
        }
        let resp = if rtype == RecordType::Ds {
            let (parent, endpoints) = self.registry.find_parent_authority(zone)?;
            self.ask(&parent, self.selector.pick_order_ds(zone, &endpoints), zone, rtype).ok()?
        } else {
            let resp = self.query_authority(zone, rtype).ok()?;
            resp.sets().for_each(|set| self.cache_rrset(&set, now));
            resp
        };
        let Some(set) = resp.rrset(zone, rtype) else {
            let ttl = resp.negative_ttl(self.config.default_negative_ttl);
            self.cache.insert_negative(zone, rtype, resp.rcode, ttl, now);
            return None;
        };
        if rtype == RecordType::Ds {
            self.cache_rrset(&set, now);
        }
        Some(set)
    }
}

thread_local! {
    /// The query and reply buffers of [`RecursiveResolver::ask`], kept
    /// between exchanges. Taken for the exchange and put back after it,
    /// so an exchange nested inside one (a resolver bound as another's
    /// authority) gets empty buffers of its own.
    static EXCHANGE: Cell<(Vec<u8>, Vec<u8>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// What `zone`'s reply to query `id` about `(name, rtype)` is worth,
/// shared by both backends: a refusal means the server is lame for the
/// zone, a reply that does not parse or does not answer the query is
/// malformed, anything else is the answer.
pub(crate) fn check_reply(
    reply: &[u8],
    id: u16,
    zone: &DnsName,
    name: &DnsName,
    rtype: RecordType,
) -> Result<AuthorityReply, ResolveError> {
    match AuthorityReply::parse(reply, id, name, rtype) {
        Some(resp) if resp.rcode == Rcode::Refused => Err(ResolveError::Lame(zone.clone())),
        Some(resp) => Ok(resp),
        None => Err(ResolveError::Malformed),
    }
}

/// The first record of a CNAME set and its target: the step a
/// resolution takes through it.
fn cname_step(alias: &RrSet) -> Option<(Record, DnsName)> {
    let rec = alias.records().next()?.to_owned_for(alias.owner()).ok()?;
    match &rec.rdata {
        RData::Cname(target) => {
            let target = target.clone();
            Some((rec, target))
        }
        _ => None,
    }
}

/// The validator's `ChainSource`: the resolver's chain sets, from its
/// cache or fetched on a miss ([`RecursiveResolver::chain_set`]).
struct ChainFetch<'a>(&'a RecursiveResolver);

impl ChainSource for ChainFetch<'_> {
    type Set = RrSet;

    fn dnskeys(&mut self, zone: &DnsName) -> Option<RrSet> {
        self.0.chain_set(zone, RecordType::Dnskey)
    }

    fn ds_set(&mut self, zone: &DnsName) -> Option<RrSet> {
        self.0.chain_set(zone, RecordType::Ds)
    }
}

/// A resolver exposed as a datagram service (a "public resolver" such as
/// 8.8.8.8 in the testbed). Sets RA and the AD bit per validation.
impl DatagramService for RecursiveResolver {
    fn handle(&self, request: &[u8], _now: Timestamp, reply: &mut Vec<u8>) -> Result<(), NetError> {
        let Ok(query) = Message::decode(request) else {
            return Err(NetError::Reset);
        };
        let mut resp = query.response();
        let Some(q) = query.question() else {
            resp.rcode = Rcode::FormErr;
            *reply = resp.encode();
            return Ok(());
        };
        match self.resolve(&q.name, q.qtype) {
            Ok(res) => {
                resp.rcode = res.rcode;
                resp.flags.ad = res.ad();
                let records = res.records.to_records();
                // Each RRSIG is re-issued under the set's first record.
                let rrsigs: Vec<Record> = match records.first() {
                    Some(first) if query.dnssec_ok() => res
                        .records
                        .rrsig_rdatas()
                        .into_iter()
                        .map(|sig| {
                            let rdata = RData::Rrsig(sig);
                            Record::with_type(
                                first.name.clone(),
                                RecordType::Rrsig,
                                first.ttl,
                                rdata,
                            )
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                resp.answers.extend(res.chain);
                resp.answers.extend(records);
                resp.answers.extend(rrsigs);
            }
            Err(_) => {
                resp.rcode = Rcode::ServFail;
            }
        }
        *reply = resp.encode();
        Ok(())
    }
}
