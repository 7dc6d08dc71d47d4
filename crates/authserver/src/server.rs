//! The authoritative DNS server: a [`DatagramService`] answering wire
//! queries from its set of zones, with in-zone CNAME chasing, DNSSEC
//! record attachment (honouring the EDNS DO bit), and NXDOMAIN/NODATA
//! semantics.

use crate::zone::{LookupResult, Zone};
use dns_wire::{
    DnsName, Message, MessageView, NameBuildHasher, NameView, Opcode, Rcode, RecordType,
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
        let mut zones = self.zones.write();
        zones.get_mut(apex).map(|zone| {
            let out = f(zone);
            // The closure had `&mut Zone`: assume it mutated and drop the
            // precompiled answers (the zone's own mutators also do this,
            // but a closure can touch fields directly).
            zone.invalidate_compiled();
            out
        })
    }

    /// Run `f` over a snapshot of the zone (read-only).
    pub fn read_zone<R>(&self, apex: &DnsName, f: impl FnOnce(&Zone) -> R) -> Option<R> {
        let zones = self.zones.read();
        zones.get(apex).map(f)
    }

    /// Find the deepest zone containing `name`, returning its apex.
    pub fn find_zone_for(&self, name: &DnsName) -> Option<DnsName> {
        let zones = self.zones.read();
        let mut candidate = Some(name.clone());
        while let Some(c) = candidate {
            if zones.contains_key(&c) {
                return Some(c);
            }
            candidate = c.parent();
        }
        None
    }

    /// Serve a query from the deepest matching zone's precompiled cache.
    /// The ancestor walk is [`ZoneSet::find_zone_for`]'s. A miss in the
    /// deepest zone is a miss outright — shallower zones are shadowed.
    fn compiled_for(&self, key: &CompiledKey) -> Option<Arc<[u8]>> {
        let zones = self.zones.read();
        let mut candidate = Some(key.qname.clone());
        while let Some(c) = candidate {
            if let Some(zone) = zones.get(&c) {
                return zone.compiled_lookup(
                    &key.qname, key.qtype, key.qclass, key.rd, key.edns, key.do_bit,
                );
            }
            candidate = c.parent();
        }
        None
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.read().len()
    }

    /// Whether there are no zones.
    pub fn is_empty(&self) -> bool {
        self.zones.read().is_empty()
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

    /// The served zone set handle.
    pub fn zones(&self) -> &ZoneSet {
        &self.zones
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
        if let Some(Some(soa)) = self.zones.read_zone(apex, |z| z.soa().cloned()) {
            resp.authorities.push(soa);
        }
    }

    /// Capture the apex and cache generation of the zone owning the
    /// query *before* the answer is rendered, so a zone mutation in
    /// between makes the later insert a no-op.
    fn compile_context(&self, key: &CompiledKey) -> Option<(DnsName, u64)> {
        let apex = self.zones.find_zone_for(&key.qname)?;
        let generation = self.zones.read_zone(&apex, |z| z.compiled_generation())?;
        Some((apex, generation))
    }

    /// Remember a rendered response in the owning zone's compiled cache.
    fn compile(&self, key: &CompiledKey, apex: &DnsName, generation: u64, wire: &[u8]) {
        self.zones.read_zone(apex, |z| {
            z.compiled_insert(
                generation,
                &key.qname,
                key.qtype,
                key.qclass,
                key.rd,
                key.edns,
                key.do_bit,
                wire.into(),
            );
        });
    }
}

/// The fields a compilable query's response bytes depend on (beside the
/// patched ID), read off its view.
struct CompiledKey {
    qname: DnsName,
    qtype: u16,
    qclass: u16,
    rd: bool,
    edns: bool,
    do_bit: bool,
}

impl CompiledKey {
    /// The key of a query of [`compilable_shape`]; `None` for any other.
    fn of(view: &MessageView<'_>) -> Option<CompiledKey> {
        let q = view.question().filter(|_| compilable_shape(view))?;
        Some(CompiledKey {
            qname: q.name().to_owned(),
            qtype: q.qtype().code(),
            qclass: q.qclass().code(),
            rd: view.flags().rd,
            edns: view.edns().is_some(),
            do_bit: view.dnssec_ok(),
        })
    }
}

/// Whether a query's response bytes depend only on the compiled-key
/// fields (plus the patched ID): opcode QUERY, exactly one question, no
/// records beyond an optional OPT, and a qname that is its own
/// canonical form.
fn compilable_shape(view: &MessageView<'_>) -> bool {
    view.opcode() == Opcode::Query
        && view.question_count() == 1
        && view.answer_count() == 0
        && view.authority_count() == 0
        && view.additionals().next().is_none()
        && view.question().is_some_and(|q| plain_lowercase_name(&q.name()))
}

/// Labels restricted to the hostname-ish charset (no dots, escapes, or
/// uppercase); anything else skips the precompiled path and takes the
/// reference path instead.
fn plain_lowercase_name(name: &NameView<'_>) -> bool {
    name.labels().all(|l| l.iter().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_')))
}

impl DatagramService for AuthoritativeServer {
    fn handle(&self, request: &[u8], _now: Timestamp) -> Result<Vec<u8>, NetError> {
        // Unparseable datagram: a real server answers FORMERR when it can
        // extract an id; we drop, which the caller sees as a reset.
        let view = MessageView::parse(request).map_err(|_| NetError::Reset)?;
        // Fast path: lookup + memcpy + 2-byte ID patch, no record
        // decoding or wire assembly.
        let key = CompiledKey::of(&view);
        if let Some(cached) = key.as_ref().and_then(|k| self.zones.compiled_for(k)) {
            let mut bytes = cached.to_vec();
            bytes[0..2].copy_from_slice(&request[0..2]);
            return Ok(bytes);
        }
        // Reference path: decode, answer assembly, encode. A compilable
        // query's rendered bytes then serve the next identical shape.
        let query = view.to_message().map_err(|_| NetError::Reset)?;
        let compile_ctx = key.as_ref().and_then(|k| self.compile_context(k));
        let wire = self.answer(&query).encode();
        if let (Some(key), Some((apex, generation))) = (&key, compile_ctx) {
            self.compile(key, &apex, generation, &wire);
        }
        Ok(wire)
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
        s.zones()
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
        let resp_bytes = s.handle(&q.encode(), Timestamp(0)).unwrap();
        let resp = Message::decode(&resp_bytes).unwrap();
        assert_eq!(resp.id, 9);
        assert_eq!(resp.answers_of(RecordType::Https).len(), 1);
    }

    #[test]
    fn garbage_datagram_rejected() {
        let s = server_with_zone();
        assert!(s.handle(&[0xFF; 7], Timestamp(0)).is_err());
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
        s.zones()
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
        let s = server_with_zone();
        let q = Message::query(21, name("a.com"), RecordType::Https).encode();
        let first = s.handle(&q, Timestamp(0)).unwrap(); // reference path, compiles
        let cached = s.handle(&q, Timestamp(0)).unwrap(); // precompiled path
        assert_eq!(first, cached);
        // A different ID serves the same bytes with only the ID patched.
        let q2 = Message::query(0x55AA, name("a.com"), RecordType::Https).encode();
        let served = s.handle(&q2, Timestamp(0)).unwrap();
        assert_eq!(served[0..2], 0x55AAu16.to_be_bytes());
        assert_eq!(served[2..], first[2..]);
    }

    #[test]
    fn do_bit_selects_separate_precompiled_variant() {
        let s = server_with_zone();
        s.zones()
            .with_zone(&name("a.com"), |z| {
                z.enable_signing(ZoneKeys::derive(&name("a.com"), 0), 0, u32::MAX - 1)
            })
            .unwrap();
        let plain = Message::query(31, name("a.com"), RecordType::Https).encode();
        let signed = Message::query_dnssec(31, name("a.com"), RecordType::Https).encode();
        for q in [&plain, &signed, &plain, &signed] {
            let _ = s.handle(q, Timestamp(0)).unwrap();
        }
        let plain_resp = Message::decode(&s.handle(&plain, Timestamp(0)).unwrap()).unwrap();
        assert!(plain_resp.answers_of(RecordType::Rrsig).is_empty());
        let signed_resp = Message::decode(&s.handle(&signed, Timestamp(0)).unwrap()).unwrap();
        assert_eq!(signed_resp.answers_of(RecordType::Rrsig).len(), 1);
    }

    #[test]
    fn zone_mutation_invalidates_precompiled() {
        let s = server_with_zone();
        let q = Message::query(22, name("a.com"), RecordType::Https).encode();
        let before = s.handle(&q, Timestamp(0)).unwrap();
        let _ = s.handle(&q, Timestamp(0)).unwrap(); // now served from cache
        s.zones()
            .with_zone(&name("a.com"), |z| {
                z.remove(&name("a.com"), RecordType::Https);
            })
            .unwrap();
        let after = s.handle(&q, Timestamp(0)).unwrap();
        assert_ne!(before, after);
        assert!(Message::decode(&after).unwrap().answers.is_empty());
    }

    #[test]
    fn uppercase_qname_bypasses_precompiled_and_echoes_case() {
        let s = server_with_zone();
        // Warm the cache with the lowercase shape first.
        let warm = Message::query(23, name("a.com"), RecordType::A).encode();
        let _ = s.handle(&warm, Timestamp(0)).unwrap();
        let _ = s.handle(&warm, Timestamp(0)).unwrap();
        let mixed = Message::query(24, DnsName::parse("A.com").unwrap(), RecordType::A).encode();
        let out = s.handle(&mixed, Timestamp(0)).unwrap();
        // The echoed question must keep the query's original case, which
        // the lowercase-keyed cache could not have produced.
        assert!(out.windows(6).any(|w| w == [1, b'A', 3, b'c', b'o', b'm']));
        assert_eq!(Message::decode(&out).unwrap().answers_of(RecordType::A).len(), 1);
    }

    #[test]
    fn compiled_cache_counts_entries() {
        let s = server_with_zone();
        assert_eq!(s.zones().read_zone(&name("a.com"), |z| z.compiled_len()).unwrap(), 0);
        let q = Message::query(25, name("a.com"), RecordType::A).encode();
        let _ = s.handle(&q, Timestamp(0)).unwrap();
        assert_eq!(s.zones().read_zone(&name("a.com"), |z| z.compiled_len()).unwrap(), 1);
        // Same shape again hits the cache rather than growing it.
        let _ = s.handle(&q, Timestamp(0)).unwrap();
        assert_eq!(s.zones().read_zone(&name("a.com"), |z| z.compiled_len()).unwrap(), 1);
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
