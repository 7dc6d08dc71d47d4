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
use dns_wire::wire::WireWriter;
use dns_wire::{
    write_dnssec_query, DnsClass, DnsName, Edns, MessageView, NameView, Rcode, RecordType,
    RecordView,
};
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
/// The answer and each CNAME step are [`RrSet`]s: offsets into the
/// authority reply they came in, shared with the resolver's cache and
/// with every other `Resolution` of the same answer, so cloning one
/// copies no record. Readers read what they need through
/// [`RrSet::records`]; `==` compares the records and signatures, not the
/// reply bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The CNAME sets traversed, in order; each step follows its set's
    /// first record.
    pub chain: Vec<RrSet>,
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
    fn negative(chain: Vec<RrSet>, rcode: Rcode, from_cache: bool) -> Resolution {
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
        let mut chain = Vec::new();
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
    /// (`Continue(Some)`, the set pushed on `chain`), or has to ask an
    /// authority (`Continue(None)`).
    pub(crate) fn cached_step(
        &self,
        chain: &mut Vec<RrSet>,
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
                Some(target) => {
                    chain.push(alias);
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
        chain: &mut Vec<RrSet>,
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
        if let Some((target, set)) = alias.and_then(|set| Some((cname_step(&set)?, set))) {
            chain.push(set);
            return ControlFlow::Continue(target);
        }
        // NODATA.
        let ttl = resp.negative_ttl(self.config.default_negative_ttl);
        self.cache.insert_negative(current, rtype, Rcode::NoError, ttl, now);
        ControlFlow::Break(Resolution::negative(std::mem::take(chain), Rcode::NoError, false))
    }

    pub(crate) fn finish(
        &self,
        chain: Vec<RrSet>,
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

/// The target of a CNAME set's first record: where a resolution steps
/// through it. The name is read where it lies in the reply.
fn cname_step(alias: &RrSet) -> Option<DnsName> {
    if alias.rtype() != RecordType::Cname {
        return None;
    }
    let (target, _) = alias.records().next()?.rdata_view().name_at(0)?;
    Some(target.to_owned())
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
///
/// A request that does not parse, or holds a record whose RDATA do not
/// check, is reset. The reply echoes the questions; one without a
/// question is FORMERR, a resolution error SERVFAIL. The answer section
/// is the first record of each CNAME set the resolution stepped
/// through, the final RRset and, when the request set the DO bit, the
/// set's RRSIGs, each under the set's first record's owner and TTL.
/// Records are written from the cached reply bytes, owner names
/// compressed and the names inside RDATA expanded.
impl DatagramService for RecursiveResolver {
    fn handle(&self, request: &[u8], _now: Timestamp, reply: &mut Vec<u8>) -> Result<(), NetError> {
        let query = MessageView::parse(request).map_err(|_| NetError::Reset)?;
        let mut records = query.answers().chain(query.authorities()).chain(query.additionals());
        if records.any(|rec| rec.check_rdata().is_err()) {
            return Err(NetError::Reset);
        }
        let outcome = query.question().map(|q| self.resolve(&q.name().to_owned(), q.qtype()));
        write_reply(reply, &query, outcome.as_ref());
        Ok(())
    }
}

/// Write into `reply` (cleared first) the reply to `query` given the
/// outcome of resolving its first question, `None` when it has none.
fn write_reply(
    reply: &mut Vec<u8>,
    query: &MessageView<'_>,
    outcome: Option<&Result<Resolution, ResolveError>>,
) {
    let (rcode, res) = match outcome {
        None => (Rcode::FormErr, None),
        Some(Ok(res)) => (res.rcode, Some(res)),
        Some(Err(_)) => (Rcode::ServFail, None),
    };
    let empty = RrSet::default();
    let (chain, records) = res.map_or((&[][..], &empty), |res| (&res.chain[..], &res.records));
    let heads = chain.iter().filter_map(|set| set.records().next());
    let first = records.records().next();
    let signed = if query.dnssec_ok() && first.is_some() { records.rrsig_count() } else { 0 };
    let ancount = heads.clone().count() + records.len() + signed;
    reply.clear();
    let mut w = WireWriter::from_bytes(std::mem::take(reply));
    w.put_u16(query.id());
    w.put_u8(0x80 | (query.opcode().code() & 0x0F) << 3 | u8::from(query.flags().rd));
    w.put_u8(0x80 | u8::from(res.is_some_and(Resolution::ad)) << 5 | (rcode.code() & 0x0F));
    for count in [query.question_count(), ancount, 0, usize::from(query.edns().is_some())] {
        w.put_u16(count as u16);
    }
    for q in query.questions() {
        w.put_name(&q.name().to_buf().name_ref());
        w.put_u16(q.qtype().code());
        w.put_u16(q.qclass().code());
    }
    for rec in heads.chain(records.records()) {
        put_record(&mut w, rec.name(), rec.class(), rec.ttl(), &rec);
    }
    if let Some(first) = first {
        for sig in records.rrsigs().take(signed) {
            put_record(&mut w, first.name(), DnsClass::In, first.ttl(), &sig);
        }
    }
    // The OPT record of `Edns::default()`, the request's DO bit kept.
    if let Some(edns) = query.edns() {
        w.put_bytes(&[0, 0, 41]);
        w.put_u16(Edns::default().udp_payload_size);
        w.put_u32(u32::from(edns.dnssec_ok) << 15);
        w.put_u16(0);
    }
    *reply = w.into_bytes();
}

/// Write `rec` under `owner` (compressed against what `w` holds) with
/// `class` and `ttl`, its RDATA copied with the names
/// [`RecordType::rdata_names`] lists spelled out in full.
fn put_record(
    w: &mut WireWriter,
    owner: NameView<'_>,
    class: DnsClass,
    ttl: u32,
    rec: &RecordView<'_>,
) {
    w.put_name(&owner.to_buf().name_ref());
    w.put_u16(rec.rtype().code());
    w.put_u16(class.code());
    w.put_u32(ttl);
    let rdlength_at = w.len();
    w.put_u16(0);
    let rdata = rec.rdata_view();
    let bytes = rdata.bytes();
    let (before, names) = rec.rtype().rdata_names();
    let mut at = before.min(bytes.len());
    w.put_bytes(&bytes[..at]);
    for _ in 0..names {
        let Some((name, next)) = rdata.name_at(at) else { break };
        w.put_name_uncompressed(&name.to_buf().name_ref());
        at = next;
    }
    w.put_bytes(&bytes[at..]);
    w.patch_u16(rdlength_at, (w.len() - rdlength_at - 2) as u16);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::record::{RrsigRdata, SoaRdata, SrvRdata};
    use dns_wire::{Message, Question, RData, Record, SvcParam, SvcbRdata};
    use proptest::prelude::*;

    // What the stub writer replaced, kept as its oracle: the cached sets
    // built back into owned records, each RRSIG re-issued as a record,
    // and the reply encoded.
    fn owned_reply(request: &[u8], outcome: Option<&Result<Resolution, ResolveError>>) -> Vec<u8> {
        let query = Message::decode(request).unwrap();
        let mut resp = query.response();
        let owned = |set: &RrSet| -> Vec<Record> {
            set.records().map(|rec| rec.to_owned().unwrap()).collect()
        };
        match outcome {
            None => resp.rcode = Rcode::FormErr,
            Some(Err(_)) => resp.rcode = Rcode::ServFail,
            Some(Ok(res)) => {
                resp.rcode = res.rcode;
                resp.flags.ad = res.ad();
                let records = owned(&res.records);
                let rrsigs: Vec<Record> = match records.first() {
                    Some(first) if query.dnssec_ok() => res
                        .records
                        .rrsigs()
                        .map(|sig| {
                            let rdata = sig.rdata().unwrap();
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
                resp.answers
                    .extend(res.chain.iter().filter_map(|set| owned(set).into_iter().next()));
                resp.answers.extend(records);
                resp.answers.extend(rrsigs);
            }
        }
        resp.encode()
    }

    /// `a.example` twice, differing only in case; its `www`; a stranger.
    const OWNERS: [&str; 4] = ["a.example", "A.Example", "www.a.example", "b.example"];

    fn owner(i: usize) -> DnsName {
        DnsName::parse(OWNERS[i % OWNERS.len()]).unwrap()
    }

    const TYPES: [RecordType; 8] = [
        RecordType::A,
        RecordType::Cname,
        RecordType::Mx,
        RecordType::Soa,
        RecordType::Srv,
        RecordType::Txt,
        RecordType::Https,
        RecordType::Rrsig,
    ];

    /// A record of `TYPES[t]` at `OWNERS[o]`; an RRSIG covers
    /// `TYPES[serial % 7]`.
    fn record((o, t, serial): (usize, usize, u8)) -> Record {
        let n = |i: u8| owner(usize::from(i));
        let rdata = match TYPES[t] {
            RecordType::A => RData::A([192, 0, 2, serial].into()),
            RecordType::Cname => RData::Cname(n(serial)),
            RecordType::Mx => RData::Mx(u16::from(serial), n(serial)),
            RecordType::Soa => RData::Soa(SoaRdata {
                mname: n(serial),
                rname: n(serial / 3),
                serial: u32::from(serial),
                refresh: 1,
                retry: 2,
                expire: 3,
                minimum: 4,
            }),
            RecordType::Srv => {
                RData::Srv(SrvRdata { priority: 1, weight: 2, port: 443, target: n(serial) })
            }
            RecordType::Txt => RData::Txt(vec![vec![serial; usize::from(serial % 5)]]),
            RecordType::Https => RData::Https(SvcbRdata {
                priority: u16::from(serial % 3),
                target: n(serial),
                params: vec![SvcParam::Port(u16::from(serial))],
            }),
            _ => RData::Rrsig(RrsigRdata {
                type_covered: TYPES[usize::from(serial) % 7],
                algorithm: 13,
                labels: 2,
                original_ttl: 300,
                expiration: 2_000,
                inception: 1_000,
                key_tag: u16::from(serial),
                signer: n(serial),
                signature: vec![serial; 4],
            }),
        };
        Record::with_type(owner(o), TYPES[t], 60 + u32::from(serial), rdata)
    }

    /// Write `rdata` with the names `rdata_names` lists compressed
    /// against what `w` holds, as an authority may send them.
    fn put_compressed(w: &mut WireWriter, rdata: &RData) {
        match rdata {
            RData::Cname(n) => w.put_name(n),
            RData::Mx(preference, host) => {
                w.put_u16(*preference);
                w.put_name(host);
            }
            RData::Soa(soa) => {
                w.put_name(&soa.mname);
                w.put_name(&soa.rname);
                for field in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    w.put_u32(field);
                }
            }
            RData::Srv(srv) => {
                for field in [srv.priority, srv.weight, srv.port] {
                    w.put_u16(field);
                }
                w.put_name(&srv.target);
            }
            RData::Rrsig(sig) => {
                let mut fixed = WireWriter::new();
                RData::Rrsig(RrsigRdata { signer: DnsName::root(), ..sig.clone() })
                    .encode(&mut fixed);
                w.put_bytes(&fixed.as_bytes()[..18]);
                w.put_name(&sig.signer);
                w.put_bytes(&sig.signature);
            }
            other => other.encode(w),
        }
    }

    /// The sets of an authority's reply to `(a.example, A)` answering
    /// `answers`, RDATA names compressed or not.
    fn sets(answers: &[Record], compress: bool) -> Vec<RrSet> {
        let mut w = WireWriter::new();
        for field in [7, 0x8400, 1, answers.len() as u16, 0, 0] {
            w.put_u16(field);
        }
        w.put_name(&owner(0));
        w.put_u16(RecordType::A.code());
        w.put_u16(1);
        for rec in answers {
            w.put_name(&rec.name);
            w.put_u16(rec.rtype.code());
            w.put_u16(1);
            w.put_u32(rec.ttl);
            let len_at = w.len();
            w.put_u16(0);
            if compress {
                put_compressed(&mut w, &rec.rdata);
            } else {
                rec.rdata.encode(&mut w);
            }
            w.patch_u16(len_at, (w.len() - len_at - 2) as u16);
        }
        AuthorityReply::parse(w.as_bytes(), 7, &owner(0), RecordType::A).unwrap().sets().collect()
    }

    proptest! {
        /// Chains and answers of every type with names in their RDATA,
        /// compressed or not, owners differing in case, RRSIGs, requests
        /// with and without EDNS and DO, a second question, no question
        /// and a failed resolution: the writer's reply is the encoding
        /// of the owned records it replaced, byte for byte.
        #[test]
        fn stub_reply_equals_the_owned_reply_it_replaced(
            section in proptest::collection::vec((0usize..4, 0usize..8, any::<u8>()), 1..12),
            compress in any::<bool>(),
            picks in proptest::collection::vec(any::<usize>(), 0..4),
            answer in any::<usize>(),
            request in (0usize..4, any::<u16>(), any::<bool>(), any::<bool>(), any::<bool>()),
            outcome in (0u8..4, any::<bool>()),
        ) {
            let ((qname, id, dnssec_ok, edns, second), (shape, secure)) = (request, outcome);
            let sets = sets(&section.into_iter().map(record).collect::<Vec<_>>(), compress);
            let pick = |i: usize| sets.get(i % sets.len().max(1));
            let mut query = Message::query(id, owner(qname), RecordType::Https);
            query.edns = edns.then(|| if dnssec_ok { Edns::dnssec() } else { Edns::default() });
            if second {
                query.questions.push(Question::new(owner(qname + 1), RecordType::A));
            }
            let outcome = match shape {
                0 => {
                    query.questions.clear();
                    None
                }
                1 => Some(Err(ResolveError::ChainTooLong)),
                _ => Some(Ok(Resolution {
                    chain: picks.iter().filter_map(|&i| pick(i)).cloned().collect(),
                    records: pick(answer).filter(|_| shape == 3).cloned().unwrap_or_default(),
                    rcode: if shape == 3 { Rcode::NoError } else { Rcode::NxDomain },
                    validation: secure.then_some(ValidationState::Secure),
                    from_cache: false,
                })),
            };
            let request = query.encode();
            let mut reply = vec![0xAB; 3];
            write_reply(&mut reply, &MessageView::parse(&request).unwrap(), outcome.as_ref());
            prop_assert_eq!(reply, owned_reply(&request, outcome.as_ref()));
        }
    }
}
