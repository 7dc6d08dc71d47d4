//! Zone data: RRsets keyed by (name, type), optional DNSSEC signing,
//! and lookup semantics (exact match, CNAME, DNAME synthesis, NODATA vs
//! NXDOMAIN).

use dns_wire::record::RrsigRdata;
use dns_wire::{DnsName, NameBuildHasher, NameKey, NameRef, RData, Record, RecordType, SoaRdata};
use dnssec::ZoneKeys;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Outcome of a lookup inside a single zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult {
    /// The RRset exists; includes RRSIGs when the zone is signed.
    Found {
        /// The answer RRset.
        records: Vec<Record>,
        /// Covering RRSIG records (empty when unsigned).
        rrsigs: Vec<Record>,
    },
    /// A CNAME exists at the name (and the query was for another type).
    Cname {
        /// The CNAME record.
        record: Record,
        /// Its RRSIG records (empty when unsigned).
        rrsigs: Vec<Record>,
        /// The alias target, for chasing.
        target: DnsName,
    },
    /// The name exists but has no RRset of the queried type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
}

/// Upper bound on precompiled responses retained per zone; beyond this
/// the cache stops admitting new entries until the next invalidation.
const COMPILED_CACHE_MAX: usize = 4096;

/// Full identity of a precompiled response: every query attribute the
/// response bytes depend on besides the transaction ID (which is patched
/// at serve time) and the question-name case (only all-lowercase names
/// are compiled, so the name's case-folding equality is byte equality
/// here).
struct CompiledKey {
    /// The question name (a reference count on the query's buffer).
    qname: DnsName,
    qtype: u16,
    qclass: u16,
    /// Query RD flag (echoed into the response header).
    rd: bool,
    /// Whether the query carried an OPT record at all.
    edns: bool,
    /// EDNS DO bit (selects the DNSSEC variant of the answer).
    do_bit: bool,
}

impl CompiledKey {
    fn matches(
        &self,
        qname: NameRef<'_>,
        qtype: u16,
        qclass: u16,
        rd: bool,
        edns: bool,
        do_bit: bool,
    ) -> bool {
        self.qtype == qtype
            && self.qclass == qclass
            && self.rd == rd
            && self.edns == edns
            && self.do_bit == do_bit
            && self.qname.name_ref() == qname
    }
}

/// Hash-then-verify map of precompiled responses. A key's hash is the
/// qname's word-at-a-time case-folded hash (the one every name-keyed map
/// uses), with the other fields FNV-1a-stepped onto it, and the map
/// takes that `u64` as it is; the bucket scan verifies full equality
/// before a hit is declared. A lookup never allocates.
type CompiledBucket = Vec<(CompiledKey, Arc<[u8]>)>;

#[derive(Default)]
struct CompiledCache {
    map: HashMap<u64, CompiledBucket, NameBuildHasher>,
    len: usize,
    /// Bumped on every invalidation; inserts carry the generation they
    /// were rendered under and are dropped if it has moved on, so a
    /// response rendered against pre-mutation zone state can never be
    /// cached after the mutation's invalidation ran.
    generation: u64,
}

fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

fn compiled_hash(
    qname: NameRef<'_>,
    qtype: u16,
    qclass: u16,
    rd: bool,
    edns: bool,
    do_bit: bool,
) -> u64 {
    let mut h = NameBuildHasher::default().hash_one(qname.as_key());
    for b in qtype.to_be_bytes() {
        h = fnv_step(h, b);
    }
    for b in qclass.to_be_bytes() {
        h = fnv_step(h, b);
    }
    fnv_step(h, (rd as u8) | ((edns as u8) << 1) | ((do_bit as u8) << 2))
}

/// A single authoritative zone.
pub struct Zone {
    /// Apex name of the zone.
    pub apex: DnsName,
    rrsets: BTreeMap<(DnsName, u16), Vec<Record>>,
    /// Signing keys; `Some` when the zone is DNSSEC-signed.
    keys: Option<ZoneKeys>,
    /// Signature validity window applied to generated RRSIGs.
    sig_window: (u32, u32),
    /// Precompiled wire-format responses, invalidated on any mutation.
    compiled: Mutex<CompiledCache>,
}

impl Clone for Zone {
    fn clone(&self) -> Zone {
        // The compiled cache is a derived artifact; clones start cold.
        Zone {
            apex: self.apex.clone(),
            rrsets: self.rrsets.clone(),
            keys: self.keys.clone(),
            sig_window: self.sig_window,
            compiled: Mutex::new(CompiledCache::default()),
        }
    }
}

impl fmt::Debug for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Zone")
            .field("apex", &self.apex)
            .field("rrsets", &self.rrsets)
            .field("keys", &self.keys)
            .field("sig_window", &self.sig_window)
            .finish_non_exhaustive()
    }
}

impl Zone {
    /// Create an empty zone with a default SOA.
    pub fn new(apex: DnsName) -> Zone {
        let soa = Record::new(
            apex.clone(),
            3600,
            RData::Soa(SoaRdata {
                mname: apex.prepend("ns1").unwrap_or_else(|_| apex.clone()),
                rname: apex.prepend("hostmaster").unwrap_or_else(|_| apex.clone()),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            }),
        );
        let mut zone = Zone {
            apex,
            rrsets: BTreeMap::new(),
            keys: None,
            sig_window: (0, u32::MAX - 1),
            compiled: Mutex::new(CompiledCache::default()),
        };
        zone.add(soa);
        zone
    }

    /// Enable DNSSEC signing with the given keys.
    pub fn enable_signing(&mut self, keys: ZoneKeys, inception: u32, expiration: u32) {
        self.keys = Some(keys);
        self.sig_window = (inception, expiration);
        self.invalidate_compiled();
    }

    /// Disable DNSSEC signing.
    pub fn disable_signing(&mut self) {
        self.keys = None;
        self.invalidate_compiled();
    }

    /// Whether the zone is signed.
    pub fn is_signed(&self) -> bool {
        self.keys.is_some()
    }

    /// The signing keys, if any.
    pub fn keys(&self) -> Option<&ZoneKeys> {
        self.keys.as_ref()
    }

    /// Add a record to its RRset (no deduplication of identical records).
    pub fn add(&mut self, record: Record) {
        debug_assert!(
            record.name.is_subdomain_of(&self.apex),
            "record {} outside zone {}",
            record.name,
            self.apex
        );
        self.rrsets.entry((record.name.clone(), record.rtype.code())).or_default().push(record);
        self.invalidate_compiled();
    }

    /// Replace the whole RRset at (name, type).
    pub fn set(&mut self, name: DnsName, rtype: RecordType, records: Vec<Record>) {
        if records.is_empty() {
            self.rrsets.remove(&(name, rtype.code()));
        } else {
            self.rrsets.insert((name, rtype.code()), records);
        }
        self.invalidate_compiled();
    }

    /// Remove the RRset at (name, type); returns whether it existed.
    pub fn remove(&mut self, name: &DnsName, rtype: RecordType) -> bool {
        let removed = self.rrsets.remove(&(name.clone(), rtype.code())).is_some();
        if removed {
            self.invalidate_compiled();
        }
        removed
    }

    /// Fetch the RRset at (name, type) if present.
    pub fn get(&self, name: &DnsName, rtype: RecordType) -> Option<&Vec<Record>> {
        self.rrsets.get(&(name.clone(), rtype.code()))
    }

    /// Iterate over every record in the zone.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.rrsets.values().flatten()
    }

    /// The zone's SOA record.
    pub fn soa(&self) -> Option<&Record> {
        self.get(&self.apex, RecordType::Soa).and_then(|v| v.first())
    }

    /// RRSIG records covering `rrset`, if the zone is signed.
    pub fn sign_rrset(&self, rrset: &[Record]) -> Vec<Record> {
        match (&self.keys, rrset.first()) {
            (Some(keys), Some(_)) => {
                vec![keys.sign(rrset, self.sig_window.0, self.sig_window.1)]
            }
            _ => Vec::new(),
        }
    }

    /// Look up (name, type) with full zone semantics.
    pub fn lookup(&self, name: &DnsName, rtype: RecordType) -> LookupResult {
        if !name.is_subdomain_of(&self.apex) {
            return LookupResult::NxDomain;
        }
        // DNSKEY queries are answered from the signing keys directly so
        // key state can never drift from record state.
        if rtype == RecordType::Dnskey && *name == self.apex {
            if let Some(keys) = &self.keys {
                let rec = keys.dnskey_record(300);
                let rrsigs = self.sign_rrset(std::slice::from_ref(&rec));
                return LookupResult::Found { records: vec![rec], rrsigs };
            }
        }
        if let Some(rrset) = self.get(name, rtype) {
            let rrsigs = self.sign_rrset(rrset);
            return LookupResult::Found { records: rrset.clone(), rrsigs };
        }
        // CNAME at the name answers any other type (except CNAME itself,
        // handled above, and DNSSEC meta-queries at the apex).
        if rtype != RecordType::Cname {
            if let Some(cnames) = self.get(name, RecordType::Cname) {
                if let Some(rec) = cnames.first() {
                    if let RData::Cname(target) = &rec.rdata {
                        let rrsigs = self.sign_rrset(std::slice::from_ref(rec));
                        return LookupResult::Cname {
                            record: rec.clone(),
                            rrsigs,
                            target: target.clone(),
                        };
                    }
                }
            }
        }
        // DNAME at a strict ancestor synthesizes a CNAME (RFC 6672).
        let mut ancestor = name.parent();
        while let Some(anc) = ancestor {
            if !anc.is_subdomain_of(&self.apex) {
                break;
            }
            if let Some(dnames) = self.get(&anc, RecordType::Dname) {
                if let Some(rec) = dnames.first() {
                    if let RData::Dname(target) = &rec.rdata {
                        if let Some(synth_target) = substitute_dname(name, &anc, target) {
                            let synth = Record::new(
                                name.clone(),
                                rec.ttl,
                                RData::Cname(synth_target.clone()),
                            );
                            return LookupResult::Cname {
                                record: synth,
                                rrsigs: Vec::new(),
                                target: synth_target,
                            };
                        }
                    }
                }
            }
            ancestor = anc.parent();
        }
        // Does the name exist at all (any type, or as an empty non-terminal)?
        let exists = self.rrsets.keys().any(|(n, _)| n == name || n.is_subdomain_of(name));
        if exists {
            LookupResult::NoData
        } else {
            LookupResult::NxDomain
        }
    }
}

/// Precompiled-response cache plumbing. Responses are rendered once by
/// the reference path and then served as `lookup + clone + ID patch`
/// until the zone mutates.
impl Zone {
    /// Fetch the precompiled response for a query shape, if cached.
    /// `qname` must be all lowercase, as every compiled name is; it is
    /// borrowed (from the request, on the serving path).
    pub fn compiled_lookup(
        &self,
        qname: NameRef<'_>,
        qtype: u16,
        qclass: u16,
        rd: bool,
        edns: bool,
        do_bit: bool,
    ) -> Option<Arc<[u8]>> {
        let h = compiled_hash(qname, qtype, qclass, rd, edns, do_bit);
        let cache = self.compiled.lock();
        cache
            .map
            .get(&h)?
            .iter()
            .find(|(k, _)| k.matches(qname, qtype, qclass, rd, edns, do_bit))
            .map(|(_, bytes)| bytes.clone())
    }

    /// The cache generation a response must be rendered under for
    /// [`Zone::compiled_insert`] to accept it.
    pub fn compiled_generation(&self) -> u64 {
        self.compiled.lock().generation
    }

    /// Remember a rendered response for a query shape. No-op once the
    /// per-zone cap is reached (until the next invalidation), or when the
    /// cache generation moved past `generation` since the response was
    /// rendered.
    #[allow(clippy::too_many_arguments)]
    pub fn compiled_insert(
        &self,
        generation: u64,
        qname: &DnsName,
        qtype: u16,
        qclass: u16,
        rd: bool,
        edns: bool,
        do_bit: bool,
        bytes: Arc<[u8]>,
    ) {
        let qref = qname.name_ref();
        let h = compiled_hash(qref, qtype, qclass, rd, edns, do_bit);
        let mut cache = self.compiled.lock();
        if cache.generation != generation || cache.len >= COMPILED_CACHE_MAX {
            return;
        }
        let bucket = cache.map.entry(h).or_default();
        if bucket.iter().any(|(k, _)| k.matches(qref, qtype, qclass, rd, edns, do_bit)) {
            return;
        }
        bucket.push((CompiledKey { qname: qname.clone(), qtype, qclass, rd, edns, do_bit }, bytes));
        cache.len += 1;
    }

    /// Number of precompiled responses currently cached.
    pub fn compiled_len(&self) -> usize {
        self.compiled.lock().len
    }

    /// Drop every precompiled response (zone content changed).
    pub(crate) fn invalidate_compiled(&self) {
        let mut cache = self.compiled.lock();
        cache.map.clear();
        cache.len = 0;
        cache.generation += 1;
    }
}

impl Zone {
    /// Build a zone from presentation-format text (a BIND-style master
    /// file). The default SOA is replaced if the text provides one.
    pub fn from_text(apex: DnsName, text: &str) -> Result<Zone, dns_wire::ParseError> {
        let records = dns_wire::presentation::parse_zone_text(text, &apex)?;
        let mut zone = Zone::new(apex);
        for rec in records {
            if rec.rtype == RecordType::Soa {
                let owner = rec.name.clone();
                zone.set(owner, RecordType::Soa, vec![rec]);
            } else {
                zone.add(rec);
            }
        }
        Ok(zone)
    }

    /// Render the zone as presentation-format text.
    pub fn to_text(&self) -> String {
        let records: Vec<Record> = self.iter().cloned().collect();
        dns_wire::presentation::to_zone_text(&records)
    }
}

/// Replace the `owner` suffix of `name` with `target` (DNAME logic).
fn substitute_dname(name: &DnsName, owner: &DnsName, target: &DnsName) -> Option<DnsName> {
    if !name.is_subdomain_of(owner) || name == owner {
        return None;
    }
    let keep = name.label_count() - owner.label_count();
    // An over-long substitution has no CNAME to synthesize (RFC 6672
    // §2.2 answers YXDOMAIN); the lookup falls through as if no DNAME
    // applied.
    DnsName::from_labels(name.labels().take(keep).chain(target.labels())).ok()
}

/// The RRSIG RDATA values inside a set of RRSIG records.
pub fn rrsig_rdatas(records: &[Record]) -> Vec<RrsigRdata> {
    records
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Rrsig(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::SvcbRdata;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn test_zone() -> Zone {
        let mut z = Zone::new(name("a.com"));
        z.add(Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(1, 2, 3, 4))));
        z.add(Record::new(
            name("a.com"),
            300,
            RData::Https(SvcbRdata::service_self(vec![dns_wire::SvcParam::Alpn(vec![
                b"h2".to_vec()
            ])])),
        ));
        z.add(Record::new(name("www.a.com"), 300, RData::Cname(name("a.com"))));
        z.add(Record::new(name("mail.a.com"), 300, RData::A(Ipv4Addr::new(5, 6, 7, 8))));
        z
    }

    #[test]
    fn exact_match() {
        let z = test_zone();
        match z.lookup(&name("a.com"), RecordType::A) {
            LookupResult::Found { records, rrsigs } => {
                assert_eq!(records.len(), 1);
                assert!(rrsigs.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cname_for_other_types() {
        let z = test_zone();
        match z.lookup(&name("www.a.com"), RecordType::Https) {
            LookupResult::Cname { target, .. } => assert_eq!(target, name("a.com")),
            other => panic!("{other:?}"),
        }
        // Query for the CNAME itself returns it as Found.
        match z.lookup(&name("www.a.com"), RecordType::Cname) {
            LookupResult::Found { records, .. } => assert_eq!(records.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let z = test_zone();
        assert_eq!(z.lookup(&name("mail.a.com"), RecordType::Https), LookupResult::NoData);
        assert_eq!(z.lookup(&name("nope.a.com"), RecordType::A), LookupResult::NxDomain);
        assert_eq!(z.lookup(&name("other.org"), RecordType::A), LookupResult::NxDomain);
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let mut z = Zone::new(name("a.com"));
        z.add(Record::new(name("x.y.a.com"), 60, RData::A(Ipv4Addr::new(1, 1, 1, 1))));
        // y.a.com has no records but has a descendant.
        assert_eq!(z.lookup(&name("y.a.com"), RecordType::A), LookupResult::NoData);
    }

    #[test]
    fn signed_zone_attaches_rrsigs() {
        let mut z = test_zone();
        z.enable_signing(ZoneKeys::derive(&name("a.com"), 0), 0, u32::MAX - 1);
        match z.lookup(&name("a.com"), RecordType::Https) {
            LookupResult::Found { rrsigs, .. } => {
                assert_eq!(rrsigs.len(), 1);
                let sigs = rrsig_rdatas(&rrsigs);
                assert_eq!(sigs[0].type_covered, RecordType::Https);
            }
            other => panic!("{other:?}"),
        }
        // DNSKEY query is answered from key state.
        match z.lookup(&name("a.com"), RecordType::Dnskey) {
            LookupResult::Found { records, rrsigs } => {
                assert_eq!(records.len(), 1);
                assert_eq!(rrsigs.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        z.disable_signing();
        match z.lookup(&name("a.com"), RecordType::Https) {
            LookupResult::Found { rrsigs, .. } => assert!(rrsigs.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dname_synthesis() {
        let mut z = Zone::new(name("a.com"));
        z.add(Record::new(name("legacy.a.com"), 300, RData::Dname(name("modern.a.com"))));
        z.add(Record::new(name("svc.modern.a.com"), 300, RData::A(Ipv4Addr::new(9, 9, 9, 9))));
        match z.lookup(&name("svc.legacy.a.com"), RecordType::A) {
            LookupResult::Cname { target, .. } => {
                assert_eq!(target, name("svc.modern.a.com"));
            }
            other => panic!("{other:?}"),
        }
        // The DNAME owner itself is not rewritten (HTTPS RR can live there,
        // per the paper's §2 discussion).
        z.add(Record::new(
            name("legacy.a.com"),
            300,
            RData::Https(SvcbRdata::alias(name("modern.a.com"))),
        ));
        match z.lookup(&name("legacy.a.com"), RecordType::Https) {
            LookupResult::Found { records, .. } => assert_eq!(records.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dname_substitution_past_255_octets_is_no_substitution() {
        // RFC 6672 §2.2: a substituted name over 255 octets is YXDOMAIN,
        // never a CNAME to an unrepresentable name.
        let long = "t".repeat(63);
        let target = name(&format!("{long}.{long}.{long}.org"));
        let mut z = Zone::new(name("a.com"));
        z.add(Record::new(name("legacy.a.com"), 300, RData::Dname(target.clone())));
        let fits = name("svc.legacy.a.com");
        match z.lookup(&fits, RecordType::A) {
            LookupResult::Cname { target: synth, .. } => {
                assert_eq!(synth, target.prepend("svc").unwrap());
            }
            other => panic!("{other:?}"),
        }
        let overflows = name(&format!("{}.legacy.a.com", "x".repeat(63)));
        assert!(overflows.wire_len() - name("legacy.a.com").wire_len() + target.wire_len() > 255);
        assert_eq!(z.lookup(&overflows, RecordType::A), LookupResult::NxDomain);
    }

    #[test]
    fn set_and_remove() {
        let mut z = test_zone();
        assert!(z.remove(&name("a.com"), RecordType::Https));
        assert!(!z.remove(&name("a.com"), RecordType::Https));
        assert_eq!(z.lookup(&name("a.com"), RecordType::Https), LookupResult::NoData);
        z.set(
            name("a.com"),
            RecordType::A,
            vec![Record::new(name("a.com"), 60, RData::A(Ipv4Addr::new(9, 9, 9, 9)))],
        );
        match z.lookup(&name("a.com"), RecordType::A) {
            LookupResult::Found { records, .. } => {
                assert_eq!(records[0].rdata, RData::A(Ipv4Addr::new(9, 9, 9, 9)));
            }
            other => panic!("{other:?}"),
        }
        z.set(name("a.com"), RecordType::A, vec![]);
        assert_eq!(z.lookup(&name("a.com"), RecordType::A), LookupResult::NoData);
    }

    #[test]
    fn zone_from_text_round_trip() {
        let text = "\
$ORIGIN a.com.
$TTL 300
@ IN SOA ns1.a.com. hostmaster.a.com. 7 7200 3600 1209600 300
@ IN NS ns1.a.com.
@ IN A 2.2.3.4
@ IN HTTPS 1 . alpn=h2,h3 ipv4hint=104.16.1.1
www IN CNAME a.com.
";
        let zone = Zone::from_text(name("a.com"), text).unwrap();
        match zone.lookup(&name("a.com"), RecordType::Https) {
            LookupResult::Found { records, .. } => assert_eq!(records.len(), 1),
            other => panic!("{other:?}"),
        }
        // The SOA from the file replaced the default (serial 7).
        match &zone.soa().unwrap().rdata {
            RData::Soa(soa) => assert_eq!(soa.serial, 7),
            other => panic!("{other:?}"),
        }
        // Round-trip through text preserves lookups.
        let again = Zone::from_text(name("a.com"), &zone.to_text()).unwrap();
        assert_eq!(
            again.lookup(&name("www.a.com"), RecordType::Https),
            zone.lookup(&name("www.a.com"), RecordType::Https)
        );
    }

    #[test]
    fn zone_from_text_rejects_bad_lines() {
        assert!(Zone::from_text(name("a.com"), "@ IN BOGUS x").is_err());
        assert!(Zone::from_text(name("a.com"), "@ IN HTTPS one .").is_err());
    }

    #[test]
    fn soa_present_by_default() {
        let z = Zone::new(name("a.com"));
        assert!(z.soa().is_some());
    }
}
