//! The recursive caching resolver.
//!
//! Resolution strategy: find the deepest delegated zone for the queried
//! name via the [`DelegationRegistry`], pick a name server with the
//! configured [`SelectionStrategy`], query it over the simulated network
//! with the EDNS DO bit set, chase CNAMEs across zones, cache positive
//! and negative answers by TTL, and (optionally) validate DNSSEC chains
//! to decide the AD bit — the full pipeline the paper relies on when it
//! measures records through Google/Cloudflare public resolvers.

use crate::cache::{CachedAnswer, RecordCache};
use crate::reply::{AuthorityReply, RrSet};
use crate::selection::{NsSelector, SelectionStrategy};
use authserver::{DelegationRegistry, NsEndpoint};
use dns_wire::record::{DnskeyRdata, DsRdata, RrsigRdata};
use dns_wire::{DnsName, Message, RData, Rcode, Record, RecordType};
use dnssec::{ChainSource, ValidationState, Validator};
use netsim::{DatagramService, NetError, Network, Timestamp};
use parking_lot::Mutex;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU16, Ordering};

/// Resolver configuration.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Perform DNSSEC validation and set the AD bit on Secure answers.
    pub validate: bool,
    /// Maximum cross-zone CNAME chain length.
    pub max_cname_chain: usize,
    /// NS selection strategy.
    pub strategy: SelectionStrategy,
    /// Seed for randomized selection.
    pub seed: u64,
    /// Optional cache TTL clamp (ablation knob).
    pub ttl_clamp: Option<u32>,
    /// Negative-cache TTL when no SOA is present in the response.
    pub default_negative_ttl: u32,
    /// Shard count for the record cache (see [`crate::cache`]).
    pub cache_shards: usize,
    /// Which batch backend [`crate::QueryEngine::resolve_batch`] uses
    /// (the synchronous worker pool, or the virtual-time event loop).
    pub backend: crate::engine::EngineBackend,
    /// Virtual milliseconds the event-loop backend waits for a reply
    /// before declaring one attempt timed out.
    pub attempt_timeout_ms: u64,
    /// Retransmissions per endpoint after the first attempt times out
    /// (so each endpoint is tried `retransmits + 1` times) before the
    /// event-loop backend falls back to the next NS.
    pub retransmits: u32,
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
            max_cname_chain: 8,
            strategy: SelectionStrategy::RoundRobin,
            seed: 0,
            ttl_clamp: None,
            default_negative_ttl: 300,
            cache_shards: crate::cache::DEFAULT_SHARDS,
            backend: crate::engine::EngineBackend::default(),
            attempt_timeout_ms: 500,
            retransmits: 2,
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
    /// CNAME chain exceeded the configured limit.
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
    validator: Validator,
    config: ResolverConfig,
    next_id: AtomicU16,
    /// Held across each cache-check-then-fetch of DNSSEC chain material
    /// ([`ResolverChainSource`]). Two pool workers validating different
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
                RecordCache::with_eviction(config.cache_shards, config.ttl_clamp, capacity)
            }
            None => RecordCache::with_config(config.cache_shards, config.ttl_clamp),
        };
        let selector = NsSelector::new(config.strategy, config.seed);
        RecursiveResolver {
            network,
            registry,
            cache,
            selector,
            validator: Validator::new(),
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

    /// This resolver's configuration.
    pub(crate) fn config(&self) -> &ResolverConfig {
        &self.config
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

        for _ in 0..=self.config.max_cname_chain {
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
                let validation = self.config.validate.then(|| self.validate_rrset(&records, now));
                Resolution { chain, records, rcode: Rcode::NoError, validation, from_cache }
            }
            CachedAnswer::Negative { rcode } => Resolution::negative(chain, rcode, from_cache),
        }
    }

    /// One authoritative round: select endpoints for the deepest zone and
    /// try them in fallback order.
    fn query_authority(
        &self,
        name: &DnsName,
        rtype: RecordType,
    ) -> Result<AuthorityReply, ResolveError> {
        let (apex, endpoints) = self
            .registry
            .find_authority(name)
            .filter(|(_, endpoints)| !endpoints.is_empty())
            .ok_or_else(|| ResolveError::NoAuthority(name.clone()))?;
        self.ask(&apex, self.selector.pick_order(&apex, &endpoints), name, rtype)
    }

    /// Send one query for `(name, rtype)` to `zone`'s endpoints in the
    /// given order until one of them answers it usably.
    fn ask<'a>(
        &self,
        zone: &DnsName,
        order: impl Iterator<Item = &'a NsEndpoint>,
        name: &DnsName,
        rtype: RecordType,
    ) -> Result<AuthorityReply, ResolveError> {
        let id = self.next_query_id();
        let wire = Message::query_dnssec(id, name.clone(), rtype).encode();
        let mut last_err = ResolveError::Lame(zone.clone());
        for ep in order {
            last_err = match self.network.send_datagram(ep.ip, 53, &wire) {
                Ok(bytes) => match AuthorityReply::parse(&bytes, id, name, rtype) {
                    Some(resp) if resp.rcode == Rcode::Refused => ResolveError::Lame(zone.clone()),
                    Some(resp) => return Ok(resp),
                    None => ResolveError::Malformed,
                },
                Err(e) => ResolveError::Network(e),
            };
        }
        Err(last_err)
    }

    /// Cache every RRset of a reply's answer section, in the order the
    /// sets first appear — which is the order a bounded cache stamps
    /// them in, so which of a CNAME and its target outlives the other
    /// never depends on a hasher.
    fn cache_answer(&self, resp: &AuthorityReply, now: Timestamp) {
        for set in resp.sets() {
            self.cache_rrset(&set, now);
        }
    }

    fn cache_rrset(&self, set: &RrSet, now: Timestamp) {
        self.cache.insert_positive(set.owner(), set.rtype(), set.clone(), now);
    }

    /// The set's DNSSEC state. A set no RRSIG covers is what
    /// [`Validator::validate`] calls `Unsigned`, answered without
    /// building a record; a signed one is built for the validator.
    fn validate_rrset(&self, set: &RrSet, now: Timestamp) -> ValidationState {
        if set.rrsig_count() == 0 {
            return ValidationState::Unsigned;
        }
        let mut source = ResolverChainSource { resolver: self };
        let now = now.0.min(u32::MAX as u64) as u32;
        self.validator.validate(&set.to_records(), &set.rrsig_rdatas(), &mut source, now)
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

/// `ChainSource` over the resolver: DNSKEY from the zone's own servers,
/// DS from the parent zone's servers (both with the DO bit, both cached).
struct ResolverChainSource<'a> {
    resolver: &'a RecursiveResolver,
}

impl ResolverChainSource<'_> {
    /// The `(zone, rtype)` RRset of a chain-walk reply; a reply without
    /// one is cached as a negative answer under the reply's own rcode.
    fn rrset_of(
        &self,
        resp: &AuthorityReply,
        zone: &DnsName,
        rtype: RecordType,
        now: Timestamp,
    ) -> Option<RrSet> {
        let set = resp.rrset(zone, rtype);
        if set.is_none() {
            let r = self.resolver;
            let ttl = resp.negative_ttl(r.config.default_negative_ttl);
            r.cache.insert_negative(zone, rtype, resp.rcode, ttl, now);
        }
        set
    }
}

impl ChainSource for ResolverChainSource<'_> {
    fn dnskeys(&mut self, zone: &DnsName) -> Option<(Vec<DnskeyRdata>, Vec<RrsigRdata>)> {
        let r = self.resolver;
        let _fetching = r.chain_fetch.lock();
        let now = r.network.clock().now();
        let set = match r.cache.get(zone, RecordType::Dnskey, now) {
            Some(CachedAnswer::Positive(set)) => set,
            Some(CachedAnswer::Negative { .. }) => return None,
            None => {
                let resp = r.query_authority(zone, RecordType::Dnskey).ok()?;
                r.cache_answer(&resp, now);
                self.rrset_of(&resp, zone, RecordType::Dnskey, now)?
            }
        };
        let keys: Vec<DnskeyRdata> = set
            .records()
            .filter_map(|rec| match rec.rdata() {
                Ok(RData::Dnskey(k)) => Some(k),
                _ => None,
            })
            .collect();
        if keys.is_empty() {
            None
        } else {
            Some((keys, set.rrsig_rdatas()))
        }
    }

    fn ds_set(&mut self, zone: &DnsName) -> Option<Vec<DsRdata>> {
        let r = self.resolver;
        let _fetching = r.chain_fetch.lock();
        let now = r.network.clock().now();
        let set = match r.cache.get(zone, RecordType::Ds, now) {
            Some(CachedAnswer::Positive(set)) => set,
            Some(CachedAnswer::Negative { .. }) => return None,
            None => {
                // DS lives in the parent zone.
                let (parent, endpoints) = r.registry.find_parent_authority(zone)?;
                let order = r.selector.pick_order_ds(zone, &endpoints);
                let resp = r.ask(&parent, order, zone, RecordType::Ds).ok()?;
                let set = self.rrset_of(&resp, zone, RecordType::Ds, now)?;
                r.cache_rrset(&set, now);
                set
            }
        };
        let ds: Vec<DsRdata> = set
            .records()
            .filter_map(|rec| match rec.rdata() {
                Ok(RData::Ds(d)) => Some(d),
                _ => None,
            })
            .collect();
        if ds.is_empty() {
            None
        } else {
            Some(ds)
        }
    }
}

/// A resolver exposed as a datagram service (a "public resolver" such as
/// 8.8.8.8 in the testbed). Sets RA and the AD bit per validation.
impl DatagramService for RecursiveResolver {
    fn handle(&self, request: &[u8], _now: Timestamp) -> Result<Vec<u8>, NetError> {
        let Ok(query) = Message::decode(request) else {
            return Err(NetError::Reset);
        };
        let mut resp = query.response();
        let Some(q) = query.question() else {
            resp.rcode = Rcode::FormErr;
            return Ok(resp.encode());
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
        Ok(resp.encode())
    }
}
