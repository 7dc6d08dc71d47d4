//! Zone data: one hash index from owner name to that name's RRsets,
//! each kept in wire form; optional DNSSEC signing; and lookup semantics
//! (exact match, CNAME, DNAME synthesis, NODATA vs NXDOMAIN).
//!
//! An owner's node keeps all its RRsets in one buffer, each as its
//! records' bytes after the owner name — TYPE, CLASS, TTL, RDLENGTH,
//! RDATA, with every RDATA name uncompressed — so an answer copies them
//! behind an owner name it writes itself. A set's RRSIG is signed from
//! those bytes (`dnssec`'s one signed-data builder reads each RDATA at
//! offset 10) the first time a DO answer needs it, and kept until a set
//! at that owner or the keys change. A node also counts the names below it that hold
//! records: an empty non-terminal is a node with no sets, and NODATA
//! versus NXDOMAIN is one probe.
//!
//! [`Zone::lookup`] answers from typed records decoded out of the index,
//! signing afresh: it is the owned reference the wire answers of
//! [`AuthoritativeServer`](crate::AuthoritativeServer) are tested
//! against.

use dns_wire::wire::WireWriter;
use dns_wire::{
    DnsClass, DnsName, NameBuf, NameBuildHasher, NameKey, NameRef, RData, RdataView, Record,
    RecordType, SoaRdata,
};
use dnssec::ZoneKeys;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

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

/// One RRset of a node, borrowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireSet<'z> {
    node: &'z Node,
    /// Its place among the node's sets, which keys its RRSIG.
    index: usize,
    /// Each record after its owner name, in insertion order.
    bytes: &'z [u8],
}

impl<'z> WireSet<'z> {
    /// Each record's bytes after its owner name.
    pub(crate) fn records(self) -> impl Iterator<Item = &'z [u8]> {
        let mut rest = self.bytes;
        std::iter::from_fn(move || {
            let rdlength = u16::from_be_bytes([*rest.get(8)?, *rest.get(9)?]);
            let (record, tail) = rest.split_at_checked(10 + usize::from(rdlength))?;
            rest = tail;
            Some(record)
        })
    }

    /// The name the first record's RDATA holds, for a CNAME or DNAME:
    /// spelled out in place and filling the RDATA.
    fn first_target(self) -> Option<NameRef<'z>> {
        let first = self.records().next()?;
        let (target, end) = RdataView::new(first, (10, first.len())).name_at(0)?;
        target.flat().filter(|_| 10 + end == first.len())
    }
}

/// A record's TYPE, CLASS, TTL, RDLENGTH and RDATA.
fn put_after_owner(w: &mut WireWriter, record: &Record) {
    w.put_u16(record.rtype.code());
    w.put_u16(record.class.code());
    w.put_u32(record.ttl);
    let len_at = w.len();
    w.put_u16(0);
    record.rdata.encode(w);
    w.patch_u16(len_at, (w.len() - len_at - 2) as u16);
}

/// The typed record [`put_after_owner`] wrote. RDATA that does not
/// decode stays the opaque bytes it is, which encode back unchanged.
fn decode_after_owner(owner: &DnsName, bytes: &[u8]) -> Record {
    let field = |at: usize| u16::from_be_bytes([bytes[at], bytes[at + 1]]);
    let rtype = RecordType::from_code(field(0));
    let rdata = RData::decode(rtype, (10, bytes.len()), bytes)
        .unwrap_or_else(|_| RData::Unknown(bytes[10..].to_vec()));
    Record {
        name: owner.clone(),
        rtype,
        class: DnsClass::from_code(field(2)),
        ttl: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        rdata,
    }
}

/// Bytes made on first use and kept.
type Memo = OnceLock<Box<[u8]>>;

/// One owner name in the index.
#[derive(Debug, Clone, Default)]
struct Node {
    /// The owner's RRsets, one after another, each as its TYPE (two
    /// octets), the length of its records (four), then the records.
    sets: Box<[u8]>,
    /// Each set's RRSIG record after its owner name, by the set's place:
    /// made by the first DO answer at this name, signed by the first one
    /// that needs it, and dropped when any set here changes.
    rrsigs: OnceLock<Box<[Memo]>>,
    /// Names strictly below this one, inside the zone, that hold a set.
    below: u32,
}

impl Node {
    /// The sets with their types, in order.
    fn sets(&self) -> impl Iterator<Item = (u16, WireSet<'_>)> {
        let mut rest = &self.sets[..];
        (0..).map_while(move |index| {
            let (head, tail) = rest.split_first_chunk::<6>()?;
            let len = u32::from_be_bytes([head[2], head[3], head[4], head[5]]);
            let (bytes, tail) = tail.split_at_checked(len as usize)?;
            rest = tail;
            Some((u16::from_be_bytes([head[0], head[1]]), WireSet { node: self, index, bytes }))
        })
    }

    fn set(&self, rtype: u16) -> Option<WireSet<'_>> {
        self.sets().find(|(t, _)| *t == rtype).map(|(_, set)| set)
    }

    /// Replace the records of the `rtype` set with what `f` makes of the
    /// old ones (`None` when there is no such set); no records drop the
    /// set. Returns whether the set existed.
    fn rewrite(&mut self, rtype: u16, f: impl FnOnce(Option<&[u8]>) -> Vec<u8>) -> bool {
        let old = self.set(rtype).map(|set| set.bytes);
        let records = f(old);
        let others = self.sets.len() - old.map_or(0, |r| 6 + r.len());
        let mut sets =
            Vec::with_capacity(others + if records.is_empty() { 0 } else { 6 + records.len() });
        for (t, set) in self.sets().filter(|(t, _)| *t != rtype) {
            put_entry(&mut sets, t, set.bytes);
        }
        if !records.is_empty() {
            put_entry(&mut sets, rtype, &records);
        }
        let existed = old.is_some();
        self.sets = sets.into_boxed_slice();
        self.rrsigs = OnceLock::new();
        existed
    }
}

fn put_entry(sets: &mut Vec<u8>, rtype: u16, records: &[u8]) {
    sets.extend_from_slice(&rtype.to_be_bytes());
    sets.extend_from_slice(&(records.len() as u32).to_be_bytes());
    sets.extend_from_slice(records);
}

/// `bytes`, then each record after its owner name.
fn encode<'r>(bytes: Vec<u8>, records: impl IntoIterator<Item = &'r Record>) -> Vec<u8> {
    let mut w = WireWriter::from_bytes(bytes);
    records.into_iter().for_each(|r| put_after_owner(&mut w, r));
    w.into_bytes()
}

#[derive(Debug, Clone)]
struct Signing {
    keys: ZoneKeys,
    /// Inception and expiration of every RRSIG.
    window: (u32, u32),
    /// The apex DNSKEY set, answered from the keys so that key state can
    /// never drift from record state.
    dnskey: Node,
}

/// What the index holds for one name of an answer, borrowed from the
/// zone. A transient value on the answer writer's stack: the substituted
/// name stays inline rather than cost an allocation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Step<'z> {
    /// The set asked for, and the owner spelling it is answered with.
    Found(&'z DnsName, WireSet<'z>),
    /// A CNAME set at the name (its first record answers) and the target
    /// that record names.
    Cname(&'z DnsName, WireSet<'z>, NameRef<'z>),
    /// A DNAME at an ancestor rewrote the name: the synthesized CNAME's
    /// TTL and target (RFC 6672).
    Dname(u32, NameBuf),
    NoData,
    NxDomain,
}

const CNAME: u16 = 5;
const DNAME: u16 = 39;
const DNSKEY: u16 = 48;

/// A single authoritative zone.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Apex name of the zone.
    pub apex: DnsName,
    /// Owner names, keyed with the spelling each was first written with.
    nodes: HashMap<DnsName, Node, NameBuildHasher>,
    /// How many of the nodes hold a DNAME set: with none, an answer
    /// skips the ancestor walk.
    dnames: usize,
    /// `Some` when the zone is DNSSEC-signed.
    signing: Option<Box<Signing>>,
}

/// An RRset of a [`Zone`], borrowed.
#[derive(Clone, Copy)]
pub struct RrSetRef<'z> {
    pub(crate) owner: &'z DnsName,
    pub(crate) set: WireSet<'z>,
}

impl<'z> RrSetRef<'z> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.set.records().count()
    }

    /// Whether the set is empty; a stored set never is.
    pub fn is_empty(&self) -> bool {
        self.set.bytes.is_empty()
    }

    /// The records, decoded, in insertion order.
    pub fn records(&self) -> impl Iterator<Item = Record> + 'z {
        let owner = self.owner;
        self.set.records().map(move |r| decode_after_owner(owner, r))
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
        let mut zone = Zone { apex, nodes: HashMap::default(), dnames: 0, signing: None };
        zone.add(soa);
        zone
    }

    /// Enable DNSSEC signing with the given keys.
    pub fn enable_signing(&mut self, keys: ZoneKeys, inception: u32, expiration: u32) {
        let mut dnskey = Node::default();
        dnskey.rewrite(DNSKEY, |_| encode(Vec::new(), [&keys.dnskey_record(300)]));
        self.signing = Some(Box::new(Signing { keys, window: (inception, expiration), dnskey }));
        self.forget_rrsigs();
    }

    /// Disable DNSSEC signing.
    pub fn disable_signing(&mut self) {
        self.signing = None;
        self.forget_rrsigs();
    }

    fn forget_rrsigs(&mut self) {
        for node in self.nodes.values_mut() {
            node.rrsigs.take();
        }
    }

    /// Whether the zone is signed.
    pub fn is_signed(&self) -> bool {
        self.signing.is_some()
    }

    /// The signing keys, if any.
    pub fn keys(&self) -> Option<&ZoneKeys> {
        self.signing.as_ref().map(|s| &s.keys)
    }

    /// Add a record to its RRset (no deduplication of identical records).
    pub fn add(&mut self, record: Record) {
        debug_assert!(
            record.name.is_subdomain_of(&self.apex),
            "record {} outside zone {}",
            record.name,
            self.apex
        );
        self.edit(&record.name, |node| {
            node.rewrite(record.rtype.code(), |old| {
                encode(old.unwrap_or_default().to_vec(), [&record])
            })
        });
    }

    /// Replace the whole RRset at (name, type).
    pub fn set(&mut self, name: DnsName, rtype: RecordType, records: Vec<Record>) {
        let bytes = encode(Vec::new(), &records);
        self.edit(&name, |node| node.rewrite(rtype.code(), |_| bytes));
    }

    /// Remove the RRset at (name, type); returns whether it existed.
    pub fn remove(&mut self, name: &DnsName, rtype: RecordType) -> bool {
        self.edit(name, |node| node.rewrite(rtype.code(), |_| Vec::new()))
    }

    /// Run `f` over the node at `owner`, then keep the index's shape: a
    /// name that gained its first set is counted below each ancestor up
    /// to the apex, one that lost its last is uncounted, and a node left
    /// with no sets and nothing below goes.
    fn edit<R>(&mut self, owner: &DnsName, f: impl FnOnce(&mut Node) -> R) -> R {
        let node = self.nodes.entry(owner.clone()).or_default();
        let (had, had_dname) = (!node.sets.is_empty(), node.set(DNAME).is_some());
        let out = f(node);
        let has = !node.sets.is_empty();
        self.dnames = self.dnames + usize::from(node.set(DNAME).is_some()) - usize::from(had_dname);
        if !has && node.below == 0 {
            self.nodes.remove(owner);
        }
        if had != has && owner.is_subdomain_of(&self.apex) {
            let delta = if has { 1 } else { -1 };
            let mut ancestor = owner.parent().filter(|_| *owner != self.apex);
            while let Some(name) = ancestor {
                let node = self.nodes.entry(name.clone()).or_default();
                node.below = node.below.wrapping_add_signed(delta);
                if node.sets.is_empty() && node.below == 0 {
                    self.nodes.remove(&name);
                }
                ancestor = name.parent().filter(|_| name != self.apex);
            }
        }
        out
    }

    /// The RRset at (name, type), borrowed.
    pub fn get(&self, name: &DnsName, rtype: RecordType) -> Option<RrSetRef<'_>> {
        let (owner, node) = self.nodes.get_key_value(name)?;
        Some(RrSetRef { owner, set: node.set(rtype.code())? })
    }

    /// Every record in the zone, decoded, in canonical (name, type)
    /// order — RFC 4034 §6.1 for the names — and insertion order within
    /// a set.
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        let mut sets: Vec<(&DnsName, u16, WireSet<'_>)> = self
            .nodes
            .iter()
            .flat_map(|(owner, node)| node.sets().map(move |(rtype, set)| (owner, rtype, set)))
            .collect();
        sets.sort_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)));
        sets.into_iter().flat_map(|(owner, _, set)| RrSetRef { owner, set }.records())
    }

    /// The zone's SOA record.
    pub fn soa(&self) -> Option<Record> {
        self.get(&self.apex, RecordType::Soa)?.records().next()
    }

    /// RRSIG records covering `rrset`, signed afresh, if the zone is
    /// signed.
    fn sign_rrset(&self, rrset: &[Record]) -> Vec<Record> {
        let signing = self.signing.as_ref().filter(|_| !rrset.is_empty());
        signing.map(|s| s.keys.sign(rrset, s.window.0, s.window.1)).into_iter().collect()
    }

    /// Look up (name, type) with full zone semantics, from typed records.
    pub fn lookup(&self, name: &DnsName, rtype: RecordType) -> LookupResult {
        if !name.is_subdomain_of(&self.apex) {
            return LookupResult::NxDomain;
        }
        if rtype == RecordType::Dnskey && *name == self.apex {
            if let Some(keys) = self.keys() {
                let rec = keys.dnskey_record(300);
                let rrsigs = self.sign_rrset(std::slice::from_ref(&rec));
                return LookupResult::Found { records: vec![rec], rrsigs };
            }
        }
        if let Some(rrset) = self.get(name, rtype) {
            let records: Vec<Record> = rrset.records().collect();
            let rrsigs = self.sign_rrset(&records);
            return LookupResult::Found { records, rrsigs };
        }
        // CNAME at the name answers any other type (except CNAME itself,
        // handled above, and DNSSEC meta-queries at the apex).
        if rtype != RecordType::Cname {
            if let Some(rec) = self.get(name, RecordType::Cname).and_then(|s| s.records().next()) {
                if let RData::Cname(target) = &rec.rdata {
                    let target = target.clone();
                    let rrsigs = self.sign_rrset(std::slice::from_ref(&rec));
                    return LookupResult::Cname { record: rec, rrsigs, target };
                }
            }
        }
        // DNAME at a strict ancestor synthesizes a CNAME (RFC 6672).
        let mut ancestor = name.parent();
        while let Some(anc) = ancestor {
            if !anc.is_subdomain_of(&self.apex) {
                break;
            }
            if let Some(rec) = self.get(&anc, RecordType::Dname).and_then(|s| s.records().next()) {
                if let RData::Dname(target) = &rec.rdata {
                    if let Some(synth_target) = substitute_dname(name, &anc, target) {
                        let synth =
                            Record::new(name.clone(), rec.ttl, RData::Cname(synth_target.clone()));
                        return LookupResult::Cname {
                            record: synth,
                            rrsigs: Vec::new(),
                            target: synth_target,
                        };
                    }
                }
            }
            ancestor = anc.parent();
        }
        // The name exists — it holds records or has some below it.
        if self.nodes.contains_key(name) {
            LookupResult::NoData
        } else {
            LookupResult::NxDomain
        }
    }

    /// [`Zone::lookup`]'s semantics for one name of a wire answer, over
    /// the index and borrowed: nothing is decoded or built but a DNAME's
    /// substituted name, on the stack.
    pub(crate) fn step(&self, name: NameRef<'_>, qtype: u16) -> Step<'_> {
        let apex = self.apex.name_ref();
        if !name.is_subdomain_of(apex) {
            return Step::NxDomain;
        }
        if let Some(s) = self.signing.as_ref().filter(|_| qtype == DNSKEY && name == apex) {
            if let Some(dnskey) = s.dnskey.set(DNSKEY) {
                return Step::Found(&s.keys.apex, dnskey);
            }
        }
        let found = self.nodes.get_key_value(name.as_key());
        if let Some((owner, node)) = found {
            if let Some(set) = node.set(qtype) {
                return Step::Found(owner, set);
            }
            let cname = node.set(CNAME).filter(|_| qtype != CNAME);
            if let Some((set, target)) = cname.and_then(|s| Some((s, s.first_target()?))) {
                return Step::Cname(owner, set, target);
            }
        }
        let ancestors = name.ancestors().skip(1).take_while(|a| a.is_subdomain_of(apex));
        for ancestor in ancestors.filter(|_| self.dnames > 0) {
            let dname = self.nodes.get(ancestor.as_key()).and_then(|n| n.set(DNAME));
            let Some((set, target)) = dname.and_then(|s| Some((s, s.first_target()?))) else {
                continue;
            };
            // An over-long substitution has no CNAME to synthesize (RFC
            // 6672 §2.2 answers YXDOMAIN): the walk goes on as if no
            // DNAME applied.
            let mut synth = NameBuf::new();
            let keep = name.labels().count() - ancestor.labels().count();
            let fits = name.labels().take(keep).try_for_each(|l| synth.push_label(l)).is_ok()
                && synth.push_name(target).is_ok();
            if let (true, Some(first)) = (fits, set.records().next()) {
                return Step::Dname(
                    u32::from_be_bytes([first[4], first[5], first[6], first[7]]),
                    synth,
                );
            }
        }
        if found.is_some() {
            Step::NoData
        } else {
            Step::NxDomain
        }
    }

    /// The RRSIG covering `set` at `owner`, after its owner name, or
    /// `None` when the zone is unsigned: signed on first use and kept
    /// until a set at the owner or the keys change. With `first_only` it
    /// covers the set's first record alone — what a CNAME answer carries
    /// — which is the set's own RRSIG unless the set holds more.
    pub(crate) fn rrsig<'z>(
        &'z self,
        owner: &DnsName,
        set: WireSet<'z>,
        first_only: bool,
    ) -> Option<Cow<'z, [u8]>> {
        let signing = self.signing.as_ref()?;
        // Signed from the node's bytes: the type and the TTL of the first
        // record (a stored set has one), and each record's RDATA at 10.
        let first = set.records().next()?;
        let rtype = RecordType::from_code(u16::from_be_bytes([first[0], first[1]]));
        let ttl = u32::from_be_bytes([first[4], first[5], first[6], first[7]]);
        let sign = |count: usize| {
            let rdatas = set.records().take(count).map(|r| RdataView::new(r, (10, r.len())));
            let mut out = Vec::with_capacity(64 + signing.keys.apex.wire_len());
            signing.keys.write_rrsig(&mut out, owner, rtype, ttl, rdatas, signing.window);
            out
        };
        if first_only && set.records().nth(1).is_some() {
            return Some(Cow::Owned(sign(1)));
        }
        let memos =
            set.node.rrsigs.get_or_init(|| set.node.sets().map(|_| OnceLock::new()).collect());
        let memo = memos[set.index].get_or_init(|| sign(usize::MAX).into());
        Some(Cow::Borrowed(memo))
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
        let records: Vec<Record> = self.iter().collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::record::RrsigRdata;
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

    /// The RRSIG RDATA values inside a set of RRSIG records.
    fn rrsig_rdatas(records: &[Record]) -> Vec<RrsigRdata> {
        records
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Rrsig(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn removing_the_last_name_below_an_empty_non_terminal_removes_it() {
        let mut z = Zone::new(name("a.com"));
        z.add(Record::new(name("x.y.a.com"), 60, RData::A(Ipv4Addr::new(1, 1, 1, 1))));
        z.add(Record::new(name("w.y.a.com"), 60, RData::A(Ipv4Addr::new(1, 1, 1, 2))));
        assert!(z.remove(&name("x.y.a.com"), RecordType::A));
        assert_eq!(z.lookup(&name("y.a.com"), RecordType::A), LookupResult::NoData);
        assert!(z.remove(&name("w.y.a.com"), RecordType::A));
        assert_eq!(z.lookup(&name("y.a.com"), RecordType::A), LookupResult::NxDomain);
        // Only the apex is left.
        assert_eq!(z.nodes.len(), 1);
        // A name that gains records again is counted again.
        z.set(
            name("x.y.a.com"),
            RecordType::A,
            vec![Record::new(name("x.y.a.com"), 60, RData::A(Ipv4Addr::new(1, 1, 1, 3)))],
        );
        assert_eq!(z.lookup(&name("y.a.com"), RecordType::Txt), LookupResult::NoData);
        z.set(name("x.y.a.com"), RecordType::A, vec![]);
        assert_eq!(z.nodes.len(), 1);
    }

    #[test]
    fn iter_is_in_canonical_order_whatever_the_insertion_order() {
        let records = [
            Record::new(name("b.a.com"), 60, RData::A(Ipv4Addr::new(1, 1, 1, 1))),
            Record::new(name("a.com"), 60, RData::A(Ipv4Addr::new(2, 2, 2, 2))),
            Record::new(name("z.a.com"), 60, RData::Aaaa("::1".parse().unwrap())),
            Record::new(name("Z.a.com"), 60, RData::A(Ipv4Addr::new(3, 3, 3, 3))),
            Record::new(name("b.a.com"), 60, RData::A(Ipv4Addr::new(4, 4, 4, 4))),
        ];
        let order = |indices: &[usize]| {
            let mut z = Zone::new(name("a.com"));
            for &i in indices {
                z.add(records[i].clone());
            }
            z.iter().map(|r| (r.name.key(), r.rtype, r.rdata)).collect::<Vec<_>>()
        };
        let forward = order(&[0, 1, 2, 3, 4]);
        assert_eq!(forward, order(&[3, 1, 0, 4, 2]));
        let keys: Vec<(String, RecordType)> =
            forward.iter().map(|(n, t, _)| (n.clone(), *t)).collect();
        assert_eq!(
            keys,
            [
                ("a.com", RecordType::A),
                ("a.com", RecordType::Soa),
                ("b.a.com", RecordType::A),
                ("b.a.com", RecordType::A),
                ("z.a.com", RecordType::A),
                ("z.a.com", RecordType::Aaaa),
            ]
            .map(|(n, t)| (n.to_string(), t))
        );
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
