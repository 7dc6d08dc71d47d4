//! The recursive caching resolver.
//!
//! Resolution strategy: find the deepest delegated zone for the queried
//! name via the [`DelegationRegistry`], pick a name server with the
//! configured [`SelectionStrategy`], query it over the simulated network
//! with the EDNS DO bit set, chase CNAMEs across zones, cache positive
//! and negative answers by TTL, and (optionally) validate DNSSEC chains
//! to decide the AD bit — the full pipeline the paper relies on when it
//! measures records through Google/Cloudflare public resolvers.

use crate::cache::{CachedAnswer, EvictionPolicy, RecordCache};
use crate::selection::{NsSelector, SelectionStrategy};
use authserver::{DelegationRegistry, NsEndpoint};
use dns_wire::record::{DnskeyRdata, DsRdata, RrsigRdata};
use dns_wire::{DnsName, Message, MessageView, RData, Rcode, Record, RecordType};
use dnssec::{ChainSource, ValidationState, Validator};
use netsim::{DatagramService, NetError, Network, Timestamp};
use parking_lot::Mutex;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

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
    /// Eviction policy used when the cache is bounded (ignored
    /// otherwise).
    pub cache_eviction: EvictionPolicy,
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
            cache_eviction: EvictionPolicy::default(),
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
/// The answer RRset and its signatures are the values the reply was
/// parsed into, shared with the resolver's cache and with every other
/// `Resolution` of the same answer: a clone is two reference counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// CNAME chain records traversed, in order.
    pub chain: Vec<Record>,
    /// Final answer RRset (of the queried type); empty on NODATA/NXDOMAIN.
    pub records: Arc<[Record]>,
    /// RRSIGs covering the final RRset (when the zone is signed).
    pub rrsigs: Arc<[RrsigRdata]>,
    /// Final response code.
    pub rcode: Rcode,
    /// DNSSEC validation state of the final RRset (None when validation
    /// is disabled or there was nothing to validate).
    pub validation: Option<ValidationState>,
    /// Whether the final answer was served from cache.
    pub from_cache: bool,
}

impl Resolution {
    /// A resolution without an answer RRset. `Arc::<[_]>::default()` is
    /// one process-wide empty slice, so the two sets allocate nothing.
    fn negative(chain: Vec<Record>, rcode: Rcode, from_cache: bool) -> Resolution {
        Resolution {
            chain,
            records: Arc::default(),
            rrsigs: Arc::default(),
            rcode,
            validation: None,
            from_cache,
        }
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
            Some(capacity) => RecordCache::with_eviction(
                config.cache_shards,
                config.ttl_clamp,
                capacity,
                config.cache_eviction,
            ),
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
            Some((_, CachedAnswer::Positive { records, .. })) => match records.first() {
                Some(rec @ Record { rdata: RData::Cname(target), .. }) => {
                    chain.push(rec.clone());
                    ControlFlow::Continue(Some(target.clone()))
                }
                _ => ControlFlow::Continue(None),
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
        self.cache_answer(resp, now);
        if let Some(set) = resp.rrset(current, rtype) {
            let chain = std::mem::take(chain);
            return ControlFlow::Break(self.finish(chain, set.clone().into(), false, now));
        }
        // CNAME step from the live response.
        if let Some(rec) = resp.rrset(current, RecordType::Cname).map(|set| &set.records[0]) {
            if let RData::Cname(target) = &rec.rdata {
                chain.push(rec.clone());
                return ControlFlow::Continue(target.clone());
            }
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
            CachedAnswer::Positive { records, rrsigs } => {
                let validation = if self.config.validate {
                    Some(self.validate_rrset(&records, &rrsigs, now))
                } else {
                    None
                };
                Resolution { chain, records, rrsigs, rcode: Rcode::NoError, validation, from_cache }
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
        for set in &resp.answers {
            self.cache_rrset(set, now);
        }
    }

    fn cache_rrset(&self, set: &RrSet, now: Timestamp) {
        let first = &set.records[0];
        let (records, rrsigs) = (Arc::clone(&set.records), Arc::clone(&set.rrsigs));
        self.cache.insert_positive(&first.name, first.rtype, records, rrsigs, now);
    }

    fn validate_rrset(
        &self,
        records: &[Record],
        rrsigs: &[RrsigRdata],
        now: Timestamp,
    ) -> ValidationState {
        let mut source = ResolverChainSource { resolver: self };
        self.validator.validate(records, rrsigs, &mut source, now.0.min(u32::MAX as u64) as u32)
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
    fn rrset_of<'r>(
        &self,
        resp: &'r AuthorityReply,
        zone: &DnsName,
        rtype: RecordType,
        now: Timestamp,
    ) -> Option<&'r RrSet> {
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
        let (records, rrsigs) = match r.cache.get(zone, RecordType::Dnskey, now) {
            Some(CachedAnswer::Positive { records, rrsigs }) => (records, rrsigs),
            Some(CachedAnswer::Negative { .. }) => return None,
            None => {
                let resp = r.query_authority(zone, RecordType::Dnskey).ok()?;
                r.cache_answer(&resp, now);
                let set = self.rrset_of(&resp, zone, RecordType::Dnskey, now)?;
                (Arc::clone(&set.records), Arc::clone(&set.rrsigs))
            }
        };
        let keys: Vec<DnskeyRdata> = records
            .iter()
            .filter_map(|rec| match &rec.rdata {
                RData::Dnskey(k) => Some(k.clone()),
                _ => None,
            })
            .collect();
        if keys.is_empty() {
            None
        } else {
            Some((keys, rrsigs.to_vec()))
        }
    }

    fn ds_set(&mut self, zone: &DnsName) -> Option<Vec<DsRdata>> {
        let r = self.resolver;
        let _fetching = r.chain_fetch.lock();
        let now = r.network.clock().now();
        let records = match r.cache.get(zone, RecordType::Ds, now) {
            Some(CachedAnswer::Positive { records, .. }) => records,
            Some(CachedAnswer::Negative { .. }) => return None,
            None => {
                // DS lives in the parent zone.
                let (parent, endpoints) = r.registry.find_parent_authority(zone)?;
                let order = r.selector.pick_order_ds(zone, &endpoints);
                let resp = r.ask(&parent, order, zone, RecordType::Ds).ok()?;
                let set = self.rrset_of(&resp, zone, RecordType::Ds, now)?;
                r.cache_rrset(set, now);
                Arc::clone(&set.records)
            }
        };
        let set: Vec<DsRdata> = records
            .iter()
            .filter_map(|rec| match &rec.rdata {
                RData::Ds(d) => Some(d.clone()),
                _ => None,
            })
            .collect();
        if set.is_empty() {
            None
        } else {
            Some(set)
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
                resp.answers.extend(res.chain.clone());
                resp.answers.extend(res.records.iter().cloned());
                if query.dnssec_ok() {
                    for sig in res.rrsigs.iter() {
                        if let Some(first) = res.records.first() {
                            resp.answers.push(Record::with_type(
                                first.name.clone(),
                                RecordType::Rrsig,
                                first.ttl,
                                RData::Rrsig(sig.clone()),
                            ));
                        }
                    }
                }
            }
            Err(_) => {
                resp.rcode = Rcode::ServFail;
            }
        }
        Ok(resp.encode())
    }
}

/// One RRset of an answer section with the signatures covering it:
/// built once, by move, where the reply is parsed, and from then on only
/// shared — the cache, the [`Resolution`] and every duplicate of the
/// query in a batch hold reference counts on these two slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RrSet {
    /// The records of the set, in answer order; never empty.
    pub(crate) records: Arc<[Record]>,
    /// The RRSIGs covering the set, in answer order.
    pub(crate) rrsigs: Arc<[RrsigRdata]>,
}

/// Whether `first`, the first record of a set, makes it the
/// `(name, rtype)` RRset.
fn heads(first: &Record, name: &DnsName, rtype: RecordType) -> bool {
    first.rtype == rtype && first.name == *name
}

impl From<RrSet> for CachedAnswer {
    fn from(set: RrSet) -> CachedAnswer {
        CachedAnswer::Positive { records: set.records, rrsigs: set.rrsigs }
    }
}

/// `Vec` → shared slice; an empty one is the process-wide empty slice
/// (`Arc::<[_]>::default()`) rather than an allocation of its own.
fn share<T>(items: Vec<T>) -> Arc<[T]> {
    if items.is_empty() {
        Arc::default()
    } else {
        items.into()
    }
}

/// Group an answer section into its RRsets, by move: sets in the order
/// they first appear, a set split across the section merged into one,
/// each RRSIG attached to the set `(owner, type covered)` it signs
/// wherever in the section it sits, and dropped when that set is absent.
/// The first record that fails to decode fails the whole section.
pub(crate) fn group_rrsets<E>(
    answers: impl Iterator<Item = Result<Record, E>>,
) -> Result<Vec<RrSet>, E> {
    let mut sets: Vec<(Vec<Record>, Vec<RrsigRdata>)> = Vec::new();
    // RRSIGs met before the set they cover.
    let mut early: Vec<(DnsName, RrsigRdata)> = Vec::new();
    for rec in answers {
        let rec = rec?;
        // An authority emits an RRset contiguously and its RRSIGs right
        // after it, so looking back finds the set at once.
        if rec.rtype == RecordType::Rrsig {
            if let RData::Rrsig(sig) = rec.rdata {
                let owner = &rec.name;
                match sets.iter_mut().rev().find(|s| heads(&s.0[0], owner, sig.type_covered)) {
                    Some((_, rrsigs)) => rrsigs.push(sig),
                    None => early.push((rec.name, sig)),
                }
            }
            continue;
        }
        match sets.iter_mut().rev().find(|s| heads(&s.0[0], &rec.name, rec.rtype)) {
            Some((records, _)) => records.push(rec),
            None => {
                let rrsigs = early
                    .extract_if(.., |(owner, sig)| heads(&rec, owner, sig.type_covered))
                    .map(|(_, sig)| sig)
                    .collect();
                sets.push((vec![rec], rrsigs));
            }
        }
    }
    let freeze = |(records, rrsigs)| RrSet { records: share(records), rrsigs: share(rrsigs) };
    Ok(sets.into_iter().map(freeze).collect())
}

/// The slice of an authority response the resolver actually consumes,
/// lifted off a borrowed [`MessageView`]. Only answer-section records
/// are materialized — once, straight into the shared [`RrSet`]s that
/// the cache and the [`Resolution`] then hold; the authority section is
/// scanned lazily for the first SOA's negative TTL, and
/// additional-section rdata is never decoded at all.
pub(crate) struct AuthorityReply {
    pub(crate) rcode: Rcode,
    /// The answer section's RRsets, in first-appearance order.
    pub(crate) answers: Vec<RrSet>,
    /// `min(SOA minimum, SOA TTL)` from the authority section, if any.
    soa_negative_ttl: Option<u32>,
}

impl AuthorityReply {
    /// Parse the reply to the query `(id, name, rtype)`. `None` means
    /// unusable: a structural error anywhere, undecodable rdata in a
    /// record we consume, or a datagram that does not answer that query
    /// (RFC 5452 §4: not a response, another transaction id, or a
    /// question section that is not exactly the question asked).
    pub(crate) fn parse(
        bytes: &[u8],
        id: u16,
        name: &DnsName,
        rtype: RecordType,
    ) -> Option<AuthorityReply> {
        let view = MessageView::parse(bytes).ok()?;
        let question = view.question()?;
        let answers_query = view.flags().qr
            && view.id() == id
            && view.question_count() == 1
            && question.qtype() == rtype
            && question.name().eq_name(name);
        if !answers_query {
            return None;
        }
        let answers = group_rrsets(view.answers().map(|rec| rec.to_owned_for(name))).ok()?;
        let mut soa_negative_ttl = None;
        for rec in view.authorities() {
            if rec.rtype() == RecordType::Soa {
                match rec.rdata().ok()? {
                    RData::Soa(soa) => {
                        soa_negative_ttl = Some(soa.minimum.min(rec.ttl()));
                        break;
                    }
                    _ => continue,
                }
            }
        }
        Some(AuthorityReply { rcode: view.rcode(), answers, soa_negative_ttl })
    }

    /// The `(name, rtype)` RRset of the answer section, if it has one.
    pub(crate) fn rrset(&self, name: &DnsName, rtype: RecordType) -> Option<&RrSet> {
        self.answers.iter().find(|set| heads(&set.records[0], name, rtype))
    }

    pub(crate) fn negative_ttl(&self, default: u32) -> u32 {
        self.soa_negative_ttl.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::convert::Infallible;
    use std::net::Ipv4Addr;

    // What `group_rrsets` replaced, kept as its oracle: every set and
    // every signature list deep-copied out of the flat answer section.

    fn extract_rrset(answers: &[Record], name: &DnsName, rtype: RecordType) -> Vec<Record> {
        answers.iter().filter(|r| r.rtype == rtype && r.name == *name).cloned().collect()
    }

    fn extract_rrsigs(answers: &[Record], name: &DnsName, rtype: RecordType) -> Vec<RrsigRdata> {
        answers
            .iter()
            .filter(|r| r.rtype == RecordType::Rrsig && r.name == *name)
            .filter_map(|r| match &r.rdata {
                RData::Rrsig(s) if s.type_covered == rtype => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    fn oracle(answers: &[Record]) -> Vec<(Vec<Record>, Vec<RrsigRdata>)> {
        let mut sets = Vec::new();
        for (i, first) in answers.iter().enumerate() {
            let seen = |r: &Record| r.rtype == first.rtype && r.name == first.name;
            if first.rtype == RecordType::Rrsig || answers[..i].iter().rev().any(seen) {
                continue;
            }
            sets.push((
                extract_rrset(&answers[i..], &first.name, first.rtype),
                extract_rrsigs(answers, &first.name, first.rtype),
            ));
        }
        sets
    }

    /// `a.example` twice, differing only in case; its `www`; a stranger.
    const OWNERS: [&str; 4] = ["a.example", "A.Example", "www.a.example", "b.example"];
    const TYPES: [RecordType; 4] =
        [RecordType::A, RecordType::Aaaa, RecordType::Cname, RecordType::Rrsig];

    fn owner(i: usize) -> DnsName {
        DnsName::parse(OWNERS[i]).unwrap()
    }

    /// One answer record: of type `TYPES[t]` when `sig` is 0 (an RRSIG
    /// *record* with foreign rdata for `t` = 3), else an RRSIG covering
    /// that type. `serial` tells otherwise equal records apart.
    fn record((o, t, sig, serial): (usize, usize, u8, u8)) -> Record {
        if sig == 1 {
            let rdata = RrsigRdata {
                type_covered: TYPES[t],
                algorithm: 13,
                labels: 2,
                original_ttl: 300,
                expiration: 2_000,
                inception: 1_000,
                key_tag: u16::from(serial),
                signer: owner(0),
                signature: vec![serial; 4],
            };
            return Record::with_type(owner(o), RecordType::Rrsig, 300, RData::Rrsig(rdata));
        }
        let rdata = match TYPES[t] {
            RecordType::Cname => RData::Cname(owner(usize::from(serial) % OWNERS.len())),
            RecordType::Aaaa => RData::Aaaa(Ipv4Addr::new(192, 0, 2, serial).to_ipv6_mapped()),
            _ => RData::A(Ipv4Addr::new(192, 0, 2, serial)),
        };
        Record::with_type(owner(o), TYPES[t], 300 + u32::from(serial), rdata)
    }

    /// Records with their owners spelled out: `DnsName`'s `==` folds
    /// case, and which spelling a set keeps is part of the contract.
    fn spelled(records: &[Record]) -> Vec<(String, &Record)> {
        records.iter().map(|r| (r.name.to_string(), r)).collect()
    }

    proptest! {
        /// Interleaved and split sets, RRSIGs before, after and without
        /// their set, owners differing only in case, CNAME + target:
        /// the same sets, in the same order, holding the same records
        /// and signatures in the same order as the code replaced.
        #[test]
        fn grouping_equals_the_extract_functions_it_replaced(
            section in proptest::collection::vec((0usize..4, 0usize..4, 0u8..2, 0u8..255), 0..14),
        ) {
            let answers: Vec<Record> = section.into_iter().map(record).collect();
            let grouped = group_rrsets(answers.iter().cloned().map(Ok::<_, Infallible>)).unwrap();
            let expected = oracle(&answers);
            prop_assert_eq!(grouped.len(), expected.len());
            for (set, (records, rrsigs)) in grouped.iter().zip(&expected) {
                prop_assert_eq!(spelled(&set.records), spelled(records));
                prop_assert_eq!(&set.rrsigs[..], &rrsigs[..]);
            }
        }
    }

    #[test]
    fn an_undecodable_record_fails_the_whole_section() {
        let good = record((0, 0, 0, 1));
        assert_eq!(group_rrsets([Ok(good.clone()), Err("rdata")].into_iter()), Err("rdata"));
        assert_eq!(group_rrsets([Ok::<_, ()>(good)].into_iter()).map(|sets| sets.len()), Ok(1));
    }
}
