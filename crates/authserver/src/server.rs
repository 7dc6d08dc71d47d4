//! The authoritative DNS server: a [`DatagramService`] answering wire
//! queries from its set of zones, with in-zone CNAME chasing, DNSSEC
//! record attachment (honouring the EDNS DO bit), and NXDOMAIN/NODATA
//! semantics.
//!
//! Every datagram is answered the same way: parse the request's view,
//! find the deepest zone by probing the zone map with suffixes of the
//! question, walk the zone's index ([`Zone`]), and write the header, the
//! question and each answer owner — compressed against the question and
//! the earlier owners, as [`Message::encode`] compresses — followed by
//! the set's stored bytes, straight into the buffer the caller hands
//! [`DatagramService::handle`]: an answer into a reused buffer allocates
//! nothing. [`AuthoritativeServer::answer`] is the owned reference those
//! bytes are tested against.

use crate::zone::{LookupResult, Step, Zone};
use dns_wire::wire::WireWriter;
use dns_wire::{
    DnsName, Message, MessageView, NameBuf, NameBuildHasher, NameKey, NameRef, NameView, Rcode,
    RecordType,
};
use netsim::{DatagramService, NetError, Timestamp};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared, mutable set of zones served by one authoritative server.
///
/// Ecosystem policies mutate zones through this handle while the server
/// keeps serving — exactly how provider dashboards mutate production
/// zones under live traffic.
#[derive(Clone, Default)]
pub struct ZoneSet {
    zones: Arc<RwLock<HashMap<DnsName, Zone, NameBuildHasher>>>,
}

impl ZoneSet {
    /// Empty zone set.
    pub fn new() -> ZoneSet {
        ZoneSet::default()
    }

    /// Insert or replace a zone.
    pub fn insert(&self, zone: Zone) {
        self.zones.write().insert(zone.apex.clone(), zone);
    }

    /// Remove a zone by apex.
    pub fn remove(&self, apex: &DnsName) -> bool {
        self.zones.write().remove(apex).is_some()
    }

    /// Run `f` over the zone with the given apex, if present.
    pub fn with_zone<R>(&self, apex: &DnsName, f: impl FnOnce(&mut Zone) -> R) -> Option<R> {
        self.zones.write().get_mut(apex).map(f)
    }

    /// Run `f` over a snapshot of the zone (read-only).
    pub fn read_zone<R>(&self, apex: &DnsName, f: impl FnOnce(&Zone) -> R) -> Option<R> {
        let zones = self.zones.read();
        zones.get(apex).map(f)
    }

    /// Find the deepest zone containing `name`, returning its apex: a
    /// suffix of `name`, sharing its buffer and spelling.
    pub fn find_zone_for(&self, name: &DnsName) -> Option<DnsName> {
        let zones = self.zones.read();
        name.find_ancestor(|apex| zones.contains_key(apex.as_key()).then_some(()))
            .map(|(apex, ())| apex)
    }
}

/// An authoritative DNS server instance.
///
/// One server may serve many zones (a provider's name server), and one
/// zone may be served by many servers (possibly with *different*
/// contents when providers disagree — the §4.2.3 mixed-provider case is
/// modelled by giving each provider's servers their own `ZoneSet`).
pub struct AuthoritativeServer {
    zones: ZoneSet,
    /// Maximum CNAME chain length followed within our own zones.
    max_cname_chase: usize,
}

impl AuthoritativeServer {
    /// Create a server over a zone set.
    pub fn new(zones: ZoneSet) -> AuthoritativeServer {
        AuthoritativeServer { zones, max_cname_chase: 8 }
    }

    /// Answer a decoded query message.
    pub fn answer(&self, query: &Message) -> Message {
        let mut resp = query.response();
        resp.flags.ra = false; // authoritative servers do not recurse
        let Some(q) = query.question() else {
            resp.rcode = Rcode::FormErr;
            return resp;
        };
        let want_dnssec = query.dnssec_ok();

        let Some(apex) = self.zones.find_zone_for(&q.name) else {
            resp.rcode = Rcode::Refused;
            return resp;
        };
        resp.flags.aa = true;

        let mut current = q.name.clone();
        for _ in 0..=self.max_cname_chase {
            let outcome = self
                .zones
                .read_zone(&apex, |z| z.lookup(&current, q.qtype))
                .unwrap_or(LookupResult::NxDomain);
            match outcome {
                LookupResult::Found { records, rrsigs } => {
                    resp.answers.extend(records);
                    if want_dnssec {
                        resp.answers.extend(rrsigs);
                    }
                    return resp;
                }
                LookupResult::Cname { record, rrsigs, target } => {
                    resp.answers.push(record);
                    if want_dnssec {
                        resp.answers.extend(rrsigs);
                    }
                    // Chase within the same zone set only; out-of-zone
                    // targets are left for the resolver.
                    if target.is_subdomain_of(&apex) && q.qtype != RecordType::Cname {
                        current = target;
                        continue;
                    }
                    return resp;
                }
                LookupResult::NoData => {
                    self.attach_soa(&apex, &mut resp);
                    return resp;
                }
                LookupResult::NxDomain => {
                    resp.rcode = Rcode::NxDomain;
                    self.attach_soa(&apex, &mut resp);
                    return resp;
                }
            }
        }
        // CNAME chain exceeded the budget.
        resp.rcode = Rcode::ServFail;
        resp
    }

    fn attach_soa(&self, apex: &DnsName, resp: &mut Message) {
        if let Some(Some(soa)) = self.zones.read_zone(apex, |z| z.soa()) {
            resp.authorities.push(soa);
        }
    }

    /// Write the wire answer to a parsed request into `out`, which is
    /// cleared first: a caller that reuses its buffer is answered
    /// without an allocation.
    fn render(&self, view: &MessageView<'_>, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(512);
        let mut w = WireWriter::from_bytes(std::mem::take(out));
        w.put_u16(view.id());
        // QR, the request's opcode and RD; AA and the RCODE are patched in
        // once known. An authoritative server does not offer recursion.
        w.put_u8(0x80 | ((view.opcode().code() & 0x0F) << 3) | u8::from(view.flags().rd));
        w.put_u8(0);
        w.put_u16(view.question_count() as u16);
        w.put_u32(0); // ANCOUNT and NSCOUNT, patched in below
        w.put_u16(u16::from(view.edns().is_some()));
        for q in view.questions() {
            spelled(q.name(), |name| w.put_name(&name));
            w.put_u16(q.qtype().code());
            w.put_u16(q.qclass().code());
        }
        let zones = self.zones.zones.read();
        let answered = view.question().map(|q| {
            spelled(q.name(), |qname| {
                let zone = qname.ancestors().find_map(|apex| zones.get(apex.as_key()))?;
                let (qtype, dnssec) = (q.qtype().code(), view.dnssec_ok());
                Some(self.write_answer(&mut w, zone, qname, qtype, dnssec))
            })
        });
        let (aa, rcode, counts) = match answered {
            None => (false, Rcode::FormErr, [0, 0]),
            Some(None) => (false, Rcode::Refused, [0, 0]),
            Some(Some((rcode, counts))) => (true, rcode, counts),
        };
        if let Some(edns) = view.edns() {
            // OPT: root owner, our payload size, the requester's DO bit.
            w.put_u8(0);
            w.put_u16(RecordType::Opt.code());
            w.put_u16(1232);
            w.put_u32(if edns.dnssec_ok { 0x8000 } else { 0 });
            w.put_u16(0);
        }
        *out = w.into_bytes();
        out[2] |= u8::from(aa) << 2;
        out[3] = rcode.code() & 0x0F;
        out[6..8].copy_from_slice(&counts[0].to_be_bytes());
        out[8..10].copy_from_slice(&counts[1].to_be_bytes());
    }

    /// Write the answer and authority sections for `qname` from `zone`,
    /// chasing in-zone CNAMEs as [`AuthoritativeServer::answer`] does;
    /// returns the RCODE and the two sections' record counts.
    fn write_answer(
        &self,
        w: &mut WireWriter,
        zone: &Zone,
        qname: NameRef<'_>,
        qtype: u16,
        dnssec: bool,
    ) -> (Rcode, [u16; 2]) {
        let mut answers = 0;
        let chases = |target: NameRef<'_>| {
            target.is_subdomain_of(zone.apex.name_ref()) && qtype != RecordType::Cname.code()
        };
        // The name a CNAME or DNAME led to, spelled out on the stack.
        let mut chased: Option<NameBuf> = None;
        for _ in 0..=self.max_cname_chase {
            let name = chased.as_ref().map_or(qname, NameBuf::name_ref);
            match zone.step(name, qtype) {
                Step::Found(owner, set) => {
                    answers += set.records().map(|r| put(w, qname, owner, r)).sum::<u16>();
                    if let Some(rrsig) = dnssec.then(|| zone.rrsig(owner, set, false)).flatten() {
                        answers += put(w, qname, owner, &rrsig);
                    }
                    return (Rcode::NoError, [answers, 0]);
                }
                Step::Cname(owner, set, target) => {
                    answers += set.records().take(1).map(|r| put(w, qname, owner, r)).sum::<u16>();
                    if let Some(rrsig) = dnssec.then(|| zone.rrsig(owner, set, true)).flatten() {
                        answers += put(w, qname, owner, &rrsig);
                    }
                    if !chases(target) {
                        return (Rcode::NoError, [answers, 0]);
                    }
                    chased = Some(NameBuf::from(target));
                }
                Step::Dname(ttl, target) => {
                    w.put_name(&name);
                    w.put_u16(RecordType::Cname.code());
                    w.put_u16(1); // IN
                    w.put_u32(ttl);
                    let len_at = w.len();
                    w.put_u16(0);
                    w.put_name_uncompressed(&target.name_ref());
                    w.patch_u16(len_at, (w.len() - len_at - 2) as u16);
                    answers += 1;
                    if !chases(target.name_ref()) {
                        return (Rcode::NoError, [answers, 0]);
                    }
                    chased = Some(target);
                }
                Step::NoData => return (Rcode::NoError, [answers, soa(w, zone, qname)]),
                Step::NxDomain => return (Rcode::NxDomain, [answers, soa(w, zone, qname)]),
            }
        }
        // CNAME chain exceeded the budget.
        (Rcode::ServFail, [answers, 0])
    }
}

/// `f` over a question's name: borrowed from the request where it is
/// spelled out in place, as a query's is, else spelled out on the stack.
fn spelled<R>(name: NameView<'_>, f: impl FnOnce(NameRef<'_>) -> R) -> R {
    match name.flat() {
        Some(flat) => f(flat),
        None => f(name.to_buf().name_ref()),
    }
}

/// Write one record: its owner name, compressed, then its bytes after
/// the owner. Returns the count of records written.
fn put(w: &mut WireWriter, question: NameRef<'_>, owner: &DnsName, bytes: &[u8]) -> u16 {
    // An owner that is the question, as most are, is the pointer to it
    // that `put_name` would find first.
    if owner.name_ref() == question && question.labels().next().is_some() {
        w.put_u16(0xC00C);
    } else {
        w.put_name(owner);
    }
    w.put_bytes(bytes);
    1
}

/// Write the zone's SOA record — the first of its set — into the
/// authority section; returns how many records that is.
fn soa(w: &mut WireWriter, zone: &Zone, question: NameRef<'_>) -> u16 {
    let soa = zone.get(&zone.apex, RecordType::Soa);
    match soa.and_then(|s| Some((s.owner, s.set.records().next()?))) {
        Some((owner, first)) => put(w, question, owner, first),
        None => 0,
    }
}

impl DatagramService for AuthoritativeServer {
    fn handle(&self, request: &[u8], _now: Timestamp, reply: &mut Vec<u8>) -> Result<(), NetError> {
        // Unparseable datagram: a real server answers FORMERR when it can
        // extract an id; we drop, which the caller sees as a reset. So
        // does a record whose RDATA does not decode, as for
        // `Message::decode`.
        let view = MessageView::parse(request).map_err(|_| NetError::Reset)?;
        let mut records = view.answers().chain(view.authorities()).chain(view.additionals());
        if records.any(|r| r.check_rdata().is_err()) {
            return Err(NetError::Reset);
        }
        self.render(&view, reply);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{RData, Record, SvcbRdata};
    use dnssec::ZoneKeys;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    /// The server's answer to `request`, in a fresh buffer.
    fn serve(s: &AuthoritativeServer, request: &[u8]) -> Vec<u8> {
        let mut reply = Vec::new();
        s.handle(request, Timestamp(0), &mut reply).unwrap();
        reply
    }

    fn server_with_zone() -> AuthoritativeServer {
        let zones = ZoneSet::new();
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
        zones.insert(z);
        AuthoritativeServer::new(zones)
    }

    #[test]
    fn answers_https_query() {
        let s = server_with_zone();
        let q = Message::query(1, name("a.com"), RecordType::Https);
        let resp = s.answer(&q);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.flags.aa);
        assert!(!resp.flags.ra);
        assert_eq!(resp.answers_of(RecordType::Https).len(), 1);
    }

    #[test]
    fn chases_cname_in_zone() {
        let s = server_with_zone();
        let q = Message::query(2, name("www.a.com"), RecordType::A);
        let resp = s.answer(&q);
        assert_eq!(resp.answers_of(RecordType::Cname).len(), 1);
        assert_eq!(resp.answers_of(RecordType::A).len(), 1);
    }

    #[test]
    fn https_query_through_cname() {
        // The paper's scanner follows CNAME responses for HTTPS queries.
        let s = server_with_zone();
        let q = Message::query(3, name("www.a.com"), RecordType::Https);
        let resp = s.answer(&q);
        assert_eq!(resp.answers_of(RecordType::Cname).len(), 1);
        assert_eq!(resp.answers_of(RecordType::Https).len(), 1);
    }

    #[test]
    fn refused_outside_zones() {
        let s = server_with_zone();
        let q = Message::query(4, name("other.org"), RecordType::A);
        assert_eq!(s.answer(&q).rcode, Rcode::Refused);
    }

    #[test]
    fn nxdomain_with_soa() {
        let s = server_with_zone();
        let q = Message::query(5, name("missing.a.com"), RecordType::A);
        let resp = s.answer(&q);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert_eq!(resp.authorities.len(), 1);
        assert_eq!(resp.authorities[0].rtype, RecordType::Soa);
    }

    #[test]
    fn nodata_with_soa() {
        let s = server_with_zone();
        let q = Message::query(6, name("a.com"), RecordType::Aaaa);
        let resp = s.answer(&q);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
    }

    #[test]
    fn rrsigs_only_with_do_bit() {
        let s = server_with_zone();
        s.zones
            .with_zone(&name("a.com"), |z| {
                z.enable_signing(ZoneKeys::derive(&name("a.com"), 0), 0, u32::MAX - 1)
            })
            .unwrap();
        let plain = Message::query(7, name("a.com"), RecordType::Https);
        let resp = s.answer(&plain);
        assert!(resp.answers_of(RecordType::Rrsig).is_empty());

        let signed = Message::query_dnssec(8, name("a.com"), RecordType::Https);
        let resp = s.answer(&signed);
        assert_eq!(resp.answers_of(RecordType::Rrsig).len(), 1);
    }

    #[test]
    fn wire_round_trip_through_datagram_service() {
        let s = server_with_zone();
        let q = Message::query(9, name("a.com"), RecordType::Https);
        let resp_bytes = serve(&s, &q.encode());
        let resp = Message::decode(&resp_bytes).unwrap();
        assert_eq!(resp.id, 9);
        assert_eq!(resp.answers_of(RecordType::Https).len(), 1);
    }

    #[test]
    fn garbage_datagram_rejected() {
        let s = server_with_zone();
        assert!(s.handle(&[0xFF; 7], Timestamp(0), &mut Vec::new()).is_err());
    }

    #[test]
    fn cname_loop_servfails() {
        let zones = ZoneSet::new();
        let mut z = Zone::new(name("loop.com"));
        z.add(Record::new(name("x.loop.com"), 60, RData::Cname(name("y.loop.com"))));
        z.add(Record::new(name("y.loop.com"), 60, RData::Cname(name("x.loop.com"))));
        zones.insert(z);
        let s = AuthoritativeServer::new(zones);
        let q = Message::query(10, name("x.loop.com"), RecordType::A);
        assert_eq!(s.answer(&q).rcode, Rcode::ServFail);
    }

    #[test]
    fn zone_mutation_visible_to_server() {
        let s = server_with_zone();
        s.zones
            .with_zone(&name("a.com"), |z| {
                z.remove(&name("a.com"), RecordType::Https);
            })
            .unwrap();
        let q = Message::query(11, name("a.com"), RecordType::Https);
        let resp = s.answer(&q);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.rcode, Rcode::NoError);
    }

    #[test]
    fn precompiled_serve_matches_reference_bytes() {
        // The sets are stored precompiled to wire form; a serve copies
        // them and equals the owned answer, encoded.
        let s = server_with_zone();
        let q = Message::query(21, name("a.com"), RecordType::Https);
        let first = serve(&s, &q.encode());
        assert_eq!(first, s.answer(&q).encode());
        assert_eq!(serve(&s, &q.encode()), first);
        // A different ID serves the same bytes with only the ID changed.
        let q2 = Message::query(0x55AA, name("a.com"), RecordType::Https).encode();
        let served = serve(&s, &q2);
        assert_eq!(served[0..2], 0x55AAu16.to_be_bytes());
        assert_eq!(served[2..], first[2..]);
    }

    #[test]
    fn do_bit_selects_separate_precompiled_variant() {
        let s = server_with_zone();
        s.zones
            .with_zone(&name("a.com"), |z| {
                z.enable_signing(ZoneKeys::derive(&name("a.com"), 0), 0, u32::MAX - 1)
            })
            .unwrap();
        let plain = Message::query(31, name("a.com"), RecordType::Https);
        let signed = Message::query_dnssec(31, name("a.com"), RecordType::Https);
        // The first DO answer signs the set; later ones reuse the RRSIG.
        for q in [&plain, &signed, &plain, &signed] {
            assert_eq!(serve(&s, &q.encode()), s.answer(q).encode());
        }
        let plain_resp = Message::decode(&serve(&s, &plain.encode()));
        assert!(plain_resp.unwrap().answers_of(RecordType::Rrsig).is_empty());
        let signed_resp = Message::decode(&serve(&s, &signed.encode()));
        assert_eq!(signed_resp.unwrap().answers_of(RecordType::Rrsig).len(), 1);
    }

    #[test]
    fn zone_mutation_invalidates_precompiled() {
        let s = server_with_zone();
        s.zones
            .with_zone(&name("a.com"), |z| {
                z.enable_signing(ZoneKeys::derive(&name("a.com"), 0), 0, u32::MAX - 1)
            })
            .unwrap();
        let q = Message::query_dnssec(22, name("a.com"), RecordType::A).encode();
        let before = serve(&s, &q); // signs the A set
        let a = Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(4, 3, 2, 1)));
        s.zones.with_zone(&name("a.com"), |z| z.add(a)).unwrap();
        let after = Message::decode(&serve(&s, &q)).unwrap();
        assert_ne!(Message::decode(&before).unwrap(), after);
        // Both addresses, under an RRSIG that covers both.
        assert_eq!(after.answers_of(RecordType::A).len(), 2);
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let set: Vec<Record> = after.answers_of(RecordType::A).into_iter().cloned().collect();
        let sig = keys.sign(&set, 0, u32::MAX - 1);
        assert_eq!(after.answers_of(RecordType::Rrsig), vec![&sig]);
    }

    #[test]
    fn a_new_key_replaces_every_signed_rrsig() {
        let s = server_with_zone();
        let q = Message::query_dnssec(25, name("a.com"), RecordType::Https);
        let sign = |generation| {
            s.zones.with_zone(&name("a.com"), |z| {
                z.enable_signing(ZoneKeys::derive(&name("a.com"), generation), 0, u32::MAX - 1)
            })
        };
        sign(0);
        let first = serve(&s, &q.encode());
        sign(1);
        let second = serve(&s, &q.encode());
        assert_ne!(first, second);
        assert_eq!(second, s.answer(&q).encode());
    }

    #[test]
    fn an_uppercase_qname_is_echoed_in_its_case() {
        let s = server_with_zone();
        let mixed = Message::query(24, DnsName::parse("A.com").unwrap(), RecordType::A);
        let out = serve(&s, &mixed.encode());
        assert!(out.windows(6).any(|w| w == [1, b'A', 3, b'c', b'o', b'm']));
        assert_eq!(Message::decode(&out).unwrap().answers_of(RecordType::A).len(), 1);
        assert_eq!(out, s.answer(&mixed).encode());
    }

    #[test]
    fn a_compressed_question_is_answered_like_a_spelled_out_one() {
        let zones = ZoneSet::new();
        let mut z = Zone::new(name("a"));
        z.add(Record::new(name("www.a"), 300, RData::A(Ipv4Addr::new(1, 2, 3, 4))));
        zones.insert(z);
        let s = AuthoritativeServer::new(zones);
        // ID 0x0161 and zero flags spell the name `a.` at offset 0, so a
        // question of `www` and a pointer to 0 asks for `www.a.`.
        let header = [0x01, 0x61, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        let (qtype_a, class_in) = ([0, 1], [0, 1]);
        let plain = [&header[..], &[3, b'w', b'w', b'w', 1, b'a', 0], &qtype_a, &class_in].concat();
        let pointer = [&header[..], &[3, b'w', b'w', b'w', 0xC0, 0], &qtype_a, &class_in].concat();
        assert_eq!(Message::decode(&pointer).unwrap(), Message::decode(&plain).unwrap());

        let reference = s.answer(&Message::decode(&plain).unwrap()).encode();
        assert_eq!(serve(&s, &pointer), reference);
        assert_eq!(serve(&s, &plain), reference);
    }

    #[test]
    fn dname_answers_equal_the_owned_answers_past_255_octets_too() {
        let long = "t".repeat(63);
        let zones = ZoneSet::new();
        let mut z = Zone::new(name("a.com"));
        let target = name(&format!("{long}.{long}.{long}.org"));
        z.add(Record::new(name("legacy.a.com"), 300, RData::Dname(target)));
        zones.insert(z);
        let s = AuthoritativeServer::new(zones);
        for prefix in ["svc", &"x".repeat(63)] {
            let q = Message::query(13, name(&format!("{prefix}.legacy.a.com")), RecordType::A);
            assert_eq!(serve(&s, &q.encode()), s.answer(&q).encode());
        }
        let fits = Message::query(13, name("svc.legacy.a.com"), RecordType::A);
        assert_eq!(s.answer(&fits).answers_of(RecordType::Cname).len(), 1);
    }

    #[test]
    fn deepest_zone_wins() {
        let zones = ZoneSet::new();
        let mut parent = Zone::new(name("com"));
        parent.add(Record::new(name("a.com"), 300, RData::Ns(name("ns1.prov.net"))));
        zones.insert(parent);
        let mut child = Zone::new(name("a.com"));
        child.add(Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(7, 7, 7, 7))));
        zones.insert(child);
        let s = AuthoritativeServer::new(zones);
        let resp = s.answer(&Message::query(12, name("a.com"), RecordType::A));
        assert_eq!(resp.answers_of(RecordType::A).len(), 1);
    }
}
