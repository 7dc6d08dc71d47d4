//! Authority replies kept whole: one shared buffer per reply, and the
//! answer RRsets as offsets into it.
//!
//! `AuthorityReply::parse` validates a datagram once
//! ([`MessageView::parse`], then every answer record's RDATA checked
//! without being built), groups the answer section into RRsets and
//! copies an index of the sets and the datagram into one `Arc<[u8]>`.
//! An [`RrSet`] is that buffer, where its index entry lies, and its
//! owner name; the cache, every [`Resolution`](crate::Resolution) of the
//! answer and every duplicate of the query in a batch share it. RDATA is
//! decoded only when a reader asks, through [`RecordView`].
//!
//! ## The buffer
//!
//! Little-endian `u32` words first, then the message's bytes. Word 0 is
//! where the message starts. Then come the sets, in the order they first
//! appear in the answer section, each as: its type, its smallest record
//! TTL, its number of records, its number of covering RRSIGs, then the
//! offset in the message of each record and each RRSIG, in answer order.
//! The index sits before the message so that the line a clone's
//! reference count is on holds it too. A set split across the section
//! is one entry; an RRSIG is listed under the set `(owner, type
//! covered)` it signs wherever it sits, and nowhere when that set is
//! absent — the grouping the owned records had (pinned against the
//! extract functions it replaced by this module's tests).

use dns_wire::record::RrsigRdata;
use dns_wire::{DnsName, Message, MessageView, RData, Rcode, Record, RecordType, RecordView};
use std::fmt;
use std::sync::Arc;

/// Words of a set's index entry before its offsets.
const HEADER_WORDS: usize = 4;

/// One answer RRset with the RRSIGs covering it, as offsets into the
/// reply it came in.
///
/// A clone is a reference count on the reply and one on the owner name;
/// it copies nothing. Records are read through [`RrSet::records`] (a
/// [`RecordView`] per record, RDATA read in place or decoded on demand).
/// `==` compares the records and signatures the two sets hold — owner
/// names ignoring case, then type, class, TTL and RDATA with the names
/// [`RecordType::rdata_names`] lists compared ignoring case and
/// compression — never the reply bytes, which differ in transaction id
/// and name compression between replies of the same answer. `Debug`
/// prints each record's RDATA bytes.
#[derive(Clone)]
pub struct RrSet {
    /// The reply's index, then its message bytes (module docs). Empty
    /// for the empty set (`Arc::<[u8]>::default()`, shared
    /// process-wide).
    reply: Arc<[u8]>,
    /// Where this set's index entry begins.
    entry: u32,
    /// The owner name the cache keys the set on: the question name,
    /// shared, when the first record points at it.
    owner: DnsName,
}

impl Default for RrSet {
    /// The empty set: no records, owned by the root name. Allocates
    /// nothing.
    fn default() -> RrSet {
        RrSet { reply: Arc::default(), entry: 0, owner: DnsName::root() }
    }
}

impl RrSet {
    /// Build a set from authored records: they are encoded as the answer
    /// section of a reply (each RRSIG as a record owned by the first
    /// record's owner, with its TTL) and the reply is parsed as an
    /// authority's would be. The empty set when `records` is empty or
    /// does not encode into a usable reply.
    pub fn from_records(records: &[Record], rrsigs: &[RrsigRdata]) -> RrSet {
        let Some(first) = records.first() else {
            return RrSet::default();
        };
        let mut msg = Message::query(0, first.name.clone(), first.rtype).response();
        msg.answers.extend_from_slice(records);
        for sig in rrsigs {
            let rdata = RData::Rrsig(sig.clone());
            let owner = first.name.clone();
            msg.answers.push(Record::with_type(owner, RecordType::Rrsig, first.ttl, rdata));
        }
        AuthorityReply::parse(&msg.encode(), 0, &first.name, first.rtype)
            .and_then(|reply| reply.rrset(&first.name, first.rtype))
            .unwrap_or_default()
    }

    /// Word `i` of this set's index entry.
    fn word(&self, i: usize) -> u32 {
        word_at(&self.reply, self.entry as usize, i)
    }

    fn views(&self, first: usize, count: usize) -> impl Iterator<Item = RecordView<'_>> {
        let message = message_of(&self.reply);
        // Every offset is where a record `MessageView::parse` accepted
        // starts, so re-entering it cannot fail.
        (first..first + count)
            .filter_map(move |i| RecordView::at(message, self.word(i) as usize).ok())
    }

    /// The owner name.
    pub fn owner(&self) -> &DnsName {
        &self.owner
    }

    /// The record type.
    pub fn rtype(&self) -> RecordType {
        RecordType::from_code(self.word(0) as u16)
    }

    /// The smallest TTL of the set's records: how long it may be cached.
    pub fn ttl(&self) -> u32 {
        self.word(1)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.word(2) as usize
    }

    /// Whether the set holds no record (a negative answer's).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of RRSIGs covering the set.
    pub fn rrsig_count(&self) -> usize {
        self.word(3) as usize
    }

    /// The records, in answer order, read in place.
    pub fn records(&self) -> impl Iterator<Item = RecordView<'_>> {
        self.views(HEADER_WORDS, self.len())
    }

    /// The covering RRSIG records, in answer order, read in place.
    pub fn rrsigs(&self) -> impl Iterator<Item = RecordView<'_>> {
        self.views(HEADER_WORDS + self.len(), self.rrsig_count())
    }

    /// The reply buffer the set lives in: shared by every clone, by the
    /// cache entry the set was stored in and by each other set of the
    /// same reply.
    pub fn reply(&self) -> &Arc<[u8]> {
        &self.reply
    }
}

/// The validator reads a set's RDATA in the reply.
impl dnssec::SignedSet for RrSet {
    fn owner(&self) -> &DnsName {
        &self.owner
    }

    fn rtype(&self) -> RecordType {
        RrSet::rtype(self)
    }

    fn rdatas(&self) -> impl Iterator<Item = dns_wire::RdataView<'_>> {
        self.records().map(|rec| rec.rdata_view())
    }

    fn signatures(&self) -> impl Iterator<Item = dns_wire::RdataView<'_>> {
        self.rrsigs().map(|rec| rec.rdata_view())
    }
}

impl PartialEq for RrSet {
    fn eq(&self, other: &RrSet) -> bool {
        let same_entry = Arc::ptr_eq(&self.reply, &other.reply) && self.entry == other.entry;
        same_entry
            || (self.len() == other.len()
                && self.rrsig_count() == other.rrsig_count()
                && self.records().zip(other.records()).all(same_record)
                && self.rrsigs().zip(other.rrsigs()).all(same_record))
    }
}

impl Eq for RrSet {}

/// Whether two records read in place hold the same record: owners equal
/// ignoring case, the same type, class and TTL, and RDATA whose listed
/// names ([`RecordType::rdata_names`]) are equal ignoring case and
/// compression and whose other bytes are equal.
fn same_record((a, b): (RecordView<'_>, RecordView<'_>)) -> bool {
    let (ours, theirs) = (a.rdata_view(), b.rdata_view());
    let (before, names) = a.rtype().rdata_names();
    let mut at = (before, before);
    let mut same_names = (0..names).map(|_| match (ours.name_at(at.0), theirs.name_at(at.1)) {
        (Some((x, i)), Some((y, j))) => {
            at = (i, j);
            x.eq_view(&y)
        }
        _ => false,
    });
    a.name().eq_view(&b.name())
        && (a.rtype(), a.class(), a.ttl()) == (b.rtype(), b.class(), b.ttl())
        && ours.bytes().get(..before) == theirs.bytes().get(..before)
        && same_names.all(|same| same)
        && ours.bytes().get(at.0..) == theirs.bytes().get(at.1..)
}

impl fmt::Debug for RrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let records: Vec<&[u8]> = self.records().map(|rec| rec.rdata_view().bytes()).collect();
        let rrsigs: Vec<&[u8]> = self.rrsigs().map(|rec| rec.rdata_view().bytes()).collect();
        f.debug_struct("RrSet")
            .field("owner", &self.owner)
            .field("rtype", &self.rtype())
            .field("records", &records)
            .field("rrsigs", &rrsigs)
            .finish()
    }
}

/// Word `i` of the index entry that starts at `entry` of `reply`: 0 past
/// the end of the buffer, which only the empty set reads (its length
/// and counts are 0).
fn word_at(reply: &[u8], entry: usize, i: usize) -> u32 {
    let at = entry + 4 * i;
    reply.get(at..).and_then(<[u8]>::first_chunk::<4>).map_or(0, |w| u32::from_le_bytes(*w))
}

/// The message bytes of a reply buffer: what follows its index.
fn message_of(reply: &[u8]) -> &[u8] {
    reply.get(word_at(reply, 0, 0) as usize..).unwrap_or_default()
}

/// Answer sections of up to this many records are grouped in scratch
/// space on the stack; a longer one takes one heap allocation for it.
const STACK_ANSWERS: usize = 16;

/// The most index bytes a section of `answers` records needs: the
/// leading word, a header per set (at most one set per record) and an
/// offset per record.
const fn max_index_bytes(answers: usize) -> usize {
    4 + 4 * (HEADER_WORDS + 1) * answers
}

/// Check every answer record's RDATA, group the section into RRsets and
/// hand `finish` the index of them (module docs), its leading word
/// counting the index alone; `None` when a record's RDATA does not
/// decode. One walk of the section reads and checks each record once;
/// the grouping then compares the records it kept.
fn with_index<R>(view: &MessageView<'_>, finish: impl FnOnce(&[u8]) -> R) -> Option<R> {
    /// The set of an RRSIG whose set is absent.
    const NONE: u16 = u16::MAX;
    let n = view.answer_count();
    let (mut stack_members, mut heap_members);
    let members: &mut [Option<(RecordView<'_>, RecordType, u16)>] = if n <= STACK_ANSWERS {
        stack_members = [None; STACK_ANSWERS];
        &mut stack_members[..n]
    } else {
        heap_members = vec![None; n];
        &mut heap_members
    };
    for (slot, rec) in members.iter_mut().zip(view.answers()) {
        rec.check_rdata().ok()?;
        *slot = Some((rec, rec.rtype(), NONE));
    }
    // The set each record belongs to, numbered in first-appearance
    // order: that of an earlier record of its type and owner, else a new
    // one. Then each RRSIG joins the set `(owner, type covered)`.
    let owned_by = |rec: &RecordView<'_>, owner: &RecordView<'_>| rec.name().eq_view(&owner.name());
    let mut sets = 0u16;
    for i in 0..members.len() {
        let Some((rec, rtype, _)) = members[i] else { continue };
        if rtype == RecordType::Rrsig {
            continue;
        }
        let earlier =
            members[..i].iter().flatten().find(|(m, t, _)| *t == rtype && owned_by(m, &rec));
        let set = match earlier {
            Some(&(_, _, set)) => set,
            None => {
                sets += 1;
                sets - 1
            }
        };
        members[i] = Some((rec, rtype, set));
    }
    for i in 0..members.len() {
        let Some((rec, rtype, _)) = members[i] else { continue };
        let Some(covered) = rec.rrsig_covers() else { continue };
        // Only a set of records can be signed: an RRSIG covering RRSIGs
        // joins none.
        let signed = members
            .iter()
            .flatten()
            .find(|(m, t, _)| *t != RecordType::Rrsig && *t == covered && owned_by(m, &rec));
        if let Some(&(_, _, set)) = signed {
            members[i] = Some((rec, rtype, set));
        }
    }

    let (mut stack_index, mut heap_index);
    let index: &mut [u8] = if n <= STACK_ANSWERS {
        stack_index = [0u8; max_index_bytes(STACK_ANSWERS)];
        &mut stack_index
    } else {
        heap_index = vec![0u8; max_index_bytes(n)];
        &mut heap_index
    };
    let mut len = 4;
    let mut put = |word: u32| {
        index[len..len + 4].copy_from_slice(&word.to_le_bytes());
        len += 4;
    };
    for set in 0..sets {
        let in_set = || members.iter().flatten().filter(move |(_, _, s)| *s == set);
        let (mut rtype, mut records, mut rrsigs, mut ttl) = (0, 0, 0, u32::MAX);
        for (rec, t, _) in in_set() {
            if *t == RecordType::Rrsig {
                rrsigs += 1;
            } else {
                rtype = t.code();
                records += 1;
                ttl = ttl.min(rec.ttl());
            }
        }
        put(u32::from(rtype));
        put(ttl);
        put(records);
        put(rrsigs);
        let offsets = |sigs: bool| {
            in_set()
                .filter(move |(_, t, _)| (*t == RecordType::Rrsig) == sigs)
                .map(|(rec, _, _)| rec.offset() as u32)
        };
        offsets(false).chain(offsets(true)).for_each(&mut put);
    }
    index[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Some(finish(&index[..len]))
}

/// The slice of an authority response the resolver consumes. The answer
/// section is kept whole in the shared buffer its [`RrSet`]s point into;
/// the authority section yields only the first SOA's negative TTL, read
/// off the wire; additional-section RDATA is never looked at.
pub(crate) struct AuthorityReply {
    pub(crate) rcode: Rcode,
    /// The name asked about: the owner of every set whose first record
    /// points at the question.
    qname: DnsName,
    /// The index of the answer sets and the message; the shared empty
    /// slice when the answer section is empty.
    reply: Arc<[u8]>,
    /// `min(SOA minimum, SOA TTL)` from the authority section, if any.
    soa_negative_ttl: Option<u32>,
}

impl AuthorityReply {
    /// Parse the reply to the query `(id, name, rtype)`. `None` means
    /// unusable: a structural error anywhere, undecodable RDATA in any
    /// answer record or in the SOA read for the negative TTL, or a
    /// datagram that does not answer that query (RFC 5452 §4: not a
    /// response, another transaction id, or a question section that is
    /// not exactly the question asked). A usable reply with answers
    /// costs one allocation, however many records it holds.
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
        let mut soa_negative_ttl = None;
        if let Some(soa) = view.authorities().find(|rec| rec.rtype() == RecordType::Soa) {
            soa_negative_ttl = Some(soa.soa_minimum().ok()?.min(soa.ttl()));
        }
        // The index and the message, copied into one exactly sized
        // allocation (zeroed, then two `memcpy`s: collecting the two
        // slices as one iterator copies byte by byte). The grouping
        // refuses an answer whose RDATA does not decode.
        let reply = if view.answer_count() == 0 {
            Arc::default()
        } else {
            with_index(&view, |index| {
                let mut reply: Arc<[u8]> =
                    std::iter::repeat_n(0, index.len() + bytes.len()).collect();
                // A buffer just built has no other owner, so this is
                // `Some`.
                let buf = Arc::get_mut(&mut reply)?;
                buf[..index.len()].copy_from_slice(index);
                buf[index.len()..].copy_from_slice(bytes);
                Some(reply)
            })??
        };
        Some(AuthorityReply { rcode: view.rcode(), qname: name.clone(), reply, soa_negative_ttl })
    }

    /// The offset of each set's index entry, in first-appearance order.
    fn entries(&self) -> impl Iterator<Item = usize> + '_ {
        let end = word_at(&self.reply, 0, 0) as usize;
        let mut at = 4;
        std::iter::from_fn(move || {
            if at >= end {
                return None;
            }
            let entry = at;
            let offsets = word_at(&self.reply, entry, 2) + word_at(&self.reply, entry, 3);
            at += 4 * (HEADER_WORDS + offsets as usize);
            Some(entry)
        })
    }

    /// The set whose index entry starts at `entry`.
    fn set_at(&self, entry: usize) -> RrSet {
        let mut set =
            RrSet { reply: Arc::clone(&self.reply), entry: entry as u32, owner: DnsName::root() };
        let owner = set.records().next().map(|first| first.owner_for(&self.qname));
        if let Some(owner) = owner {
            set.owner = owner;
        }
        set
    }

    /// The answer section's RRsets, in first-appearance order.
    pub(crate) fn sets(&self) -> impl Iterator<Item = RrSet> + '_ {
        self.entries().map(|entry| self.set_at(entry))
    }

    /// The `(name, rtype)` RRset of the answer section, if it has one.
    /// Owners are compared in place; only the set found is built.
    pub(crate) fn rrset(&self, name: &DnsName, rtype: RecordType) -> Option<RrSet> {
        let message = message_of(&self.reply);
        let entry = self.entries().find(|&entry| {
            word_at(&self.reply, entry, 0) == u32::from(rtype.code())
                && RecordView::at(message, word_at(&self.reply, entry, HEADER_WORDS) as usize)
                    .is_ok_and(|first| first.name().eq_name(name))
        })?;
        Some(self.set_at(entry))
    }

    pub(crate) fn negative_ttl(&self, default: u32) -> u32 {
        self.soa_negative_ttl.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::wire::WireWriter;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// The set's records, built; each owner spelled as in the reply.
    fn to_records(set: &RrSet) -> Vec<Record> {
        set.records().map(|rec| rec.to_owned().unwrap()).collect()
    }

    /// The covering signatures' RDATA, built.
    fn rrsig_rdatas(set: &RrSet) -> Vec<RrsigRdata> {
        set.rrsigs()
            .map(|rec| match rec.rdata() {
                Ok(RData::Rrsig(sig)) => sig,
                other => panic!("an RRSIG set member holds {other:?}"),
            })
            .collect()
    }

    // What the grouping replaced, kept as its oracle: every set and every
    // signature list deep-copied out of the flat answer section.

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
        if sig == 1 || TYPES[t] == RecordType::Rrsig {
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

    /// A reply to `(a.example, A)` with transaction id `id` and the given
    /// answer section, names compressed.
    fn compressed(id: u16, answers: &[Record]) -> Vec<u8> {
        let mut msg = Message::query(id, owner(0), RecordType::A).response();
        msg.answers.extend_from_slice(answers);
        msg.encode()
    }

    /// The same reply with no name compressed anywhere.
    fn uncompressed(id: u16, answers: &[Record]) -> Vec<u8> {
        let mut w = WireWriter::new();
        for field in [id, 0x8400, 1, answers.len() as u16, 0, 0] {
            w.put_u16(field);
        }
        w.put_name_uncompressed(&owner(0));
        w.put_u16(RecordType::A.code());
        w.put_u16(1);
        for rec in answers {
            w.put_name_uncompressed(&rec.name);
            w.put_u16(rec.rtype.code());
            w.put_u16(rec.class.code());
            w.put_u32(rec.ttl);
            // A writer of its own has nothing to point a name at.
            let mut rdata = WireWriter::new();
            rec.rdata.encode(&mut rdata);
            w.put_u16(rdata.len() as u16);
            w.put_bytes(rdata.as_bytes());
        }
        w.into_bytes()
    }

    fn sets_of(bytes: &[u8], id: u16) -> Vec<RrSet> {
        AuthorityReply::parse(bytes, id, &owner(0), RecordType::A).unwrap().sets().collect()
    }

    proptest! {
        /// Interleaved and split sets, RRSIGs before, after and without
        /// their set, owners differing only in case, CNAME + target:
        /// the same sets, in the same order, holding the same records
        /// and signatures in the same order, spelled the same, as the
        /// code replaced built from the same reply.
        #[test]
        fn grouping_equals_the_extract_functions_it_replaced(
            section in proptest::collection::vec((0usize..4, 0usize..4, 0u8..2, 0u8..255), 0..14),
        ) {
            let authored: Vec<Record> = section.into_iter().map(record).collect();
            let bytes = compressed(7, &authored);
            // The records the owned path decoded, compression's spelling
            // included.
            let answers = Message::decode(&bytes).unwrap().answers;
            let grouped = sets_of(&bytes, 7);
            let expected = oracle(&answers);
            prop_assert_eq!(grouped.len(), expected.len());
            for (set, (records, rrsigs)) in grouped.iter().zip(&expected) {
                prop_assert_eq!(spelled(&to_records(set)), spelled(records));
                prop_assert_eq!(&rrsig_rdatas(set), rrsigs);
                prop_assert_eq!(set.len(), records.len());
                prop_assert_eq!(set.rrsig_count(), rrsigs.len());
                prop_assert_eq!(set.rtype(), records[0].rtype);
                prop_assert_eq!(set.owner().to_string(), records[0].name.to_string());
                prop_assert_eq!(set.ttl(), records.iter().map(|r| r.ttl).min().unwrap());
            }
        }

        /// Two replies of one answer section — other transaction ids,
        /// one with every name compressed and one with none — hold `==`
        /// sets, though not one byte of the two buffers needs to agree.
        #[test]
        fn replies_differing_in_id_and_compression_hold_equal_sets(
            section in proptest::collection::vec((0usize..4, 0usize..4, 0u8..2, 0u8..255), 1..10),
        ) {
            let authored: Vec<Record> = section.into_iter().map(record).collect();
            let one = sets_of(&compressed(1, &authored), 1);
            let other = sets_of(&uncompressed(0xBEEF, &authored), 0xBEEF);
            prop_assert_eq!(&one, &other);
            for (a, b) in one.iter().zip(&other) {
                prop_assert!(!Arc::ptr_eq(a.reply(), b.reply()));
            }
        }
    }

    #[test]
    fn different_records_are_not_equal_sets() {
        let a = RrSet::from_records(&[record((0, 0, 0, 1))], &[]);
        let b = RrSet::from_records(&[record((0, 0, 0, 2))], &[]);
        let signed = RrSet::from_records(
            &[record((0, 0, 0, 1))],
            &[match record((0, 0, 1, 1)).rdata {
                RData::Rrsig(sig) => sig,
                _ => unreachable!(),
            }],
        );
        assert_ne!(a, b);
        assert_ne!(a, signed);
        assert_eq!(a, a.clone());
        assert_eq!(RrSet::default(), RrSet::default());
        assert_ne!(a, RrSet::default());
    }

    #[test]
    fn an_undecodable_record_fails_the_whole_section() {
        let mut msg = Message::query(9, owner(0), RecordType::A).response();
        msg.edns = None; // keep the answer section last
        msg.answers.push(record((0, 0, 0, 1)));
        let mut bytes = msg.encode();
        assert_eq!(sets_of(&bytes, 9).len(), 1);
        // Append an A record with three bytes of RDATA and count it.
        bytes[7] = 2;
        bytes.extend_from_slice(&[0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 3, 1, 2, 3]);
        assert!(MessageView::parse(&bytes).is_ok(), "well-formed but for its RDATA");
        assert!(AuthorityReply::parse(&bytes, 9, &owner(0), RecordType::A).is_none());
    }
}
