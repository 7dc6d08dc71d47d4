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
use authserver::DelegationRegistry;
use dns_wire::record::{DnskeyRdata, DsRdata, RrsigRdata};
use dns_wire::{DnsName, Message, MessageView, RData, Rcode, Record, RecordType};
use dnssec::{ChainSource, ValidationState, Validator};
use netsim::{DatagramService, NetError, Network, Timestamp};
use std::fmt;
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// CNAME chain records traversed, in order.
    pub chain: Vec<Record>,
    /// Final answer RRset (of the queried type); empty on NODATA/NXDOMAIN.
    pub records: Vec<Record>,
    /// RRSIGs covering the final RRset (when the zone is signed).
    pub rrsigs: Vec<RrsigRdata>,
    /// Final response code.
    pub rcode: Rcode,
    /// DNSSEC validation state of the final RRset (None when validation
    /// is disabled or there was nothing to validate).
    pub validation: Option<ValidationState>,
    /// Whether the final answer was served from cache.
    pub from_cache: bool,
}

impl Resolution {
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
            // 1. Cache: final answer?
            if let Some(ans) = self.cache.get(&current, rtype, now) {
                return Ok(self.finish(chain, ans, from_cache, now));
            }
            // 2. Cache: CNAME step?
            if rtype != RecordType::Cname {
                if let Some(CachedAnswer::Positive { records, .. }) =
                    self.cache.get(&current, RecordType::Cname, now)
                {
                    if let Some(rec) = records.first() {
                        if let RData::Cname(target) = &rec.rdata {
                            chain.push(rec.clone());
                            current = target.clone();
                            continue;
                        }
                    }
                }
            }
            from_cache = false;

            // 3. Query the authority.
            let resp = self.query_authority(&current, rtype)?;
            match resp.rcode {
                Rcode::NoError => {}
                Rcode::NxDomain => {
                    let ttl = resp.negative_ttl(self.config.default_negative_ttl);
                    self.cache.insert_negative(&current, rtype, Rcode::NxDomain, ttl, now);
                    return Ok(Resolution {
                        chain,
                        records: Vec::new(),
                        rrsigs: Vec::new(),
                        rcode: Rcode::NxDomain,
                        validation: None,
                        from_cache: false,
                    });
                }
                other => {
                    return Ok(Resolution {
                        chain,
                        records: Vec::new(),
                        rrsigs: Vec::new(),
                        rcode: other,
                        validation: None,
                        from_cache: false,
                    });
                }
            }

            // Cache every RRset in the answer section (covers the case
            // where the authority chased a CNAME for us).
            self.cache_answer_sections(&resp.answers, now);

            let records = extract_rrset(&resp.answers, &current, rtype);
            if !records.is_empty() {
                let rrsigs = extract_rrsigs(&resp.answers, &current, rtype);
                return Ok(self.finish(
                    chain,
                    CachedAnswer::Positive { records, rrsigs },
                    false,
                    now,
                ));
            }
            // CNAME step from the live response.
            let cname =
                resp.answers.iter().find(|r| r.rtype == RecordType::Cname && r.name == current);
            if let Some(rec) = cname {
                if let RData::Cname(target) = &rec.rdata {
                    chain.push(rec.clone());
                    current = target.clone();
                    continue;
                }
            }
            // NODATA.
            let ttl = resp.negative_ttl(self.config.default_negative_ttl);
            self.cache.insert_negative(&current, rtype, Rcode::NoError, ttl, now);
            return Ok(Resolution {
                chain,
                records: Vec::new(),
                rrsigs: Vec::new(),
                rcode: Rcode::NoError,
                validation: None,
                from_cache: false,
            });
        }
        Err(ResolveError::ChainTooLong)
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
            CachedAnswer::Negative { rcode } => Resolution {
                chain,
                records: Vec::new(),
                rrsigs: Vec::new(),
                rcode,
                validation: None,
                from_cache,
            },
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
            .ok_or_else(|| ResolveError::NoAuthority(name.clone()))?;
        let order = self.selector.pick_order(&apex, &endpoints);
        if order.is_empty() {
            return Err(ResolveError::NoAuthority(name.clone()));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let query = Message::query_dnssec(id, name.clone(), rtype);
        let wire = query.encode();
        let mut last_err = ResolveError::Lame(apex.clone());
        for ep in order {
            match self.network.send_datagram(ep.ip, 53, &wire) {
                Ok(bytes) => match AuthorityReply::parse(&bytes) {
                    Some(resp) if resp.rcode == Rcode::Refused => {
                        last_err = ResolveError::Lame(apex.clone());
                        continue;
                    }
                    Some(resp) => return Ok(resp),
                    None => {
                        last_err = ResolveError::Malformed;
                        continue;
                    }
                },
                Err(e) => {
                    last_err = ResolveError::Network(e);
                    continue;
                }
            }
        }
        Err(last_err)
    }

    /// Cache every RRset of an answer section, in the order the sets
    /// first appear — which is the order a bounded cache stamps them in,
    /// so which of a CNAME and its target outlives the other never
    /// depends on a hasher.
    pub(crate) fn cache_answer_sections(&self, answers: &[Record], now: Timestamp) {
        for (i, first) in answers.iter().enumerate() {
            // An authority emits an RRset contiguously, so looking back
            // from a set's later records finds its first one at once.
            let seen = |r: &Record| r.rtype == first.rtype && r.name == first.name;
            if first.rtype == RecordType::Rrsig || answers[..i].iter().rev().any(seen) {
                continue;
            }
            let records = extract_rrset(&answers[i..], &first.name, first.rtype);
            let rrsigs = extract_rrsigs(answers, &first.name, first.rtype);
            self.cache.insert_positive(&first.name, first.rtype, records, rrsigs, now);
        }
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

impl ChainSource for ResolverChainSource<'_> {
    fn dnskeys(&mut self, zone: &DnsName) -> Option<(Vec<DnskeyRdata>, Vec<RrsigRdata>)> {
        let r = self.resolver;
        let now = r.network.clock().now();
        let (records, rrsigs) = match r.cache.get(zone, RecordType::Dnskey, now) {
            Some(CachedAnswer::Positive { records, rrsigs }) => (records, rrsigs),
            Some(CachedAnswer::Negative { .. }) => return None,
            None => {
                let resp = r.query_authority(zone, RecordType::Dnskey).ok()?;
                r.cache_answer_sections(&resp.answers, now);
                let records = extract_rrset(&resp.answers, zone, RecordType::Dnskey);
                if records.is_empty() {
                    let ttl = resp.negative_ttl(r.config.default_negative_ttl);
                    r.cache.insert_negative(zone, RecordType::Dnskey, resp.rcode, ttl, now);
                    return None;
                }
                let rrsigs = extract_rrsigs(&resp.answers, zone, RecordType::Dnskey);
                (records, rrsigs)
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
            Some((keys, rrsigs))
        }
    }

    fn ds_set(&mut self, zone: &DnsName) -> Option<Vec<DsRdata>> {
        let r = self.resolver;
        let now = r.network.clock().now();
        let records = match r.cache.get(zone, RecordType::Ds, now) {
            Some(CachedAnswer::Positive { records, .. }) => records,
            Some(CachedAnswer::Negative { .. }) => return None,
            None => {
                // DS lives in the parent zone.
                let (_, endpoints) = r.registry.find_parent_authority(zone)?;
                let order = r.selector.pick_order_ds(zone, &endpoints);
                let id = r.next_id.fetch_add(1, Ordering::Relaxed);
                let query = Message::query_dnssec(id, zone.clone(), RecordType::Ds);
                let wire = query.encode();
                let mut found: Option<AuthorityReply> = None;
                for ep in order {
                    if let Ok(bytes) = r.network.send_datagram(ep.ip, 53, &wire) {
                        if let Some(resp) = AuthorityReply::parse(&bytes) {
                            if resp.rcode != Rcode::Refused {
                                found = Some(resp);
                                break;
                            }
                        }
                    }
                }
                let resp = found?;
                let records = extract_rrset(&resp.answers, zone, RecordType::Ds);
                if records.is_empty() {
                    let ttl = resp.negative_ttl(r.config.default_negative_ttl);
                    r.cache.insert_negative(zone, RecordType::Ds, resp.rcode, ttl, now);
                    return None;
                }
                let rrsigs = extract_rrsigs(&resp.answers, zone, RecordType::Ds);
                r.cache.insert_positive(zone, RecordType::Ds, records.clone(), rrsigs, now);
                records
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
                resp.answers.extend(res.records.clone());
                if query.dnssec_ok() {
                    for sig in &res.rrsigs {
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

/// The slice of an authority response the resolver actually consumes,
/// lifted off a borrowed [`MessageView`]. Only answer-section records
/// are materialized (they feed the [`RecordCache`]); the authority
/// section is scanned lazily for the first SOA's negative TTL, and
/// additional-section rdata is never decoded at all.
pub(crate) struct AuthorityReply {
    pub(crate) rcode: Rcode,
    pub(crate) answers: Vec<Record>,
    /// `min(SOA minimum, SOA TTL)` from the authority section, if any.
    soa_negative_ttl: Option<u32>,
}

impl AuthorityReply {
    /// Parse a response datagram. `None` means malformed: a structural
    /// error anywhere, or undecodable rdata in a record we consume.
    pub(crate) fn parse(bytes: &[u8]) -> Option<AuthorityReply> {
        let view = MessageView::parse(bytes).ok()?;
        let mut answers = Vec::with_capacity(view.answer_count());
        for rec in view.answers() {
            answers.push(rec.to_owned().ok()?);
        }
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

    pub(crate) fn negative_ttl(&self, default: u32) -> u32 {
        self.soa_negative_ttl.unwrap_or(default)
    }
}

pub(crate) fn extract_rrset(answers: &[Record], name: &DnsName, rtype: RecordType) -> Vec<Record> {
    answers.iter().filter(|r| r.rtype == rtype && r.name == *name).cloned().collect()
}

pub(crate) fn extract_rrsigs(
    answers: &[Record],
    name: &DnsName,
    rtype: RecordType,
) -> Vec<RrsigRdata> {
    answers
        .iter()
        .filter(|r| r.rtype == RecordType::Rrsig && r.name == *name)
        .filter_map(|r| match &r.rdata {
            RData::Rrsig(s) if s.type_covered == rtype => Some(s.clone()),
            _ => None,
        })
        .collect()
}
