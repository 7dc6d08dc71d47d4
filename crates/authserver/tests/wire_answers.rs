//! Every wire answer is the owned answer, encoded: `handle(request)`
//! equals `answer(&Message::decode(request)).encode()` byte for byte.
//!
//! The zones nest (`a` ⊃ `b.a` ⊃ `www.b.a`, beside `com`), alias within
//! and out of themselves — CNAME chains and loops, DNAMEs, one of them
//! to a target long enough that some substitutions pass 255 octets —
//! and are signed, re-signed and unsigned, with records added, replaced
//! and removed between queries. Requests come with and without EDNS, DO
//! and RD, in mixed case, with a second question compressed against the
//! first, or with the question itself a compression pointer. Every
//! answer of a case is written into one dirty buffer, over the bytes of
//! the one before, so `handle` must clear what it is handed.

use authserver::{AuthoritativeServer, LookupResult, Zone, ZoneSet};
use dns_wire::{DnsName, Edns, Message, RData, Record, RecordType, SvcParam, SvcbRdata};
use dnssec::ZoneKeys;
use netsim::{DatagramService, Timestamp};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

const APEXES: [&str; 4] = ["a", "b.a", "www.b.a", "com"];

/// Bases a name can end in: the apexes, then two names outside every
/// zone, the second 196 octets long.
fn base(i: u8) -> DnsName {
    let long = "t".repeat(63);
    match usize::from(i) % 6 {
        z @ 0..=3 => DnsName::parse(APEXES[z]).unwrap(),
        4 => DnsName::parse("org").unwrap(),
        _ => DnsName::parse(&format!("{long}.{long}.{long}.org")).unwrap(),
    }
}

fn label(i: u8) -> String {
    match i % 7 {
        0 => "a".into(),
        1 => "A".into(),
        2 => "b".into(),
        3 => "www".into(),
        4 => "Www".into(),
        5 => "x".into(),
        _ => "l".repeat(63),
    }
}

/// `labels` in front of `base`, or `base` alone when they do not fit.
fn name(labels: &[u8], base: DnsName) -> DnsName {
    let labels: Vec<String> = labels.iter().map(|&l| label(l)).collect();
    let mut all: Vec<Vec<u8>> = labels.into_iter().map(String::into_bytes).collect();
    all.extend(base.labels().map(<[u8]>::to_vec));
    DnsName::from_labels(all).unwrap_or(base)
}

const TYPES: [RecordType; 9] = [
    RecordType::A,
    RecordType::Aaaa,
    RecordType::Https,
    RecordType::Txt,
    RecordType::Cname,
    RecordType::Dname,
    RecordType::Ns,
    RecordType::Soa,
    RecordType::Dnskey,
];

/// A record of one of the first seven [`TYPES`] at `owner`.
fn record(owner: &DnsName, rtype: RecordType, n: u8, target: &DnsName) -> Record {
    let rdata = match rtype {
        RecordType::A => RData::A(Ipv4Addr::new(192, 0, 2, n)),
        RecordType::Aaaa => RData::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, n.into())),
        RecordType::Https if n.is_multiple_of(2) => RData::Https(SvcbRdata::alias(target.clone())),
        RecordType::Https => RData::Https(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec()]),
            SvcParam::Ipv4Hint(vec![Ipv4Addr::new(192, 0, 2, n)]),
        ])),
        RecordType::Txt => RData::Txt(vec![vec![b't'; usize::from(n % 5)]]),
        RecordType::Cname => RData::Cname(target.clone()),
        RecordType::Dname => RData::Dname(target.clone()),
        _ => RData::Ns(target.clone()),
    };
    Record::new(owner.clone(), 60 + u32::from(n), rdata)
}

/// One step: `(kind, zone, owner labels, target, n, bits)`.
type Op = (u8, u8, Vec<u8>, (Vec<u8>, u8), u8, u8);

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        0u8..4,
        proptest::collection::vec(0u8..7, 0..3),
        (proptest::collection::vec(0u8..7, 0..3), 0u8..6),
        any::<u8>(),
        any::<u8>(),
    )
}

/// The request bytes for a query, in one of three shapes by `bits`.
fn request(qname: &DnsName, qtype: RecordType, n: u8, bits: u8) -> Vec<u8> {
    let mut query = Message::query(u16::from(n), qname.clone(), qtype);
    query.flags.rd = bits & 4 != 0;
    query.edns = match bits & 3 {
        0 => None,
        1 => Some(Edns::default()),
        _ => Some(Edns { udp_payload_size: 4096, ..Edns::dnssec() }),
    };
    if bits & 32 != 0 {
        // A record the answer drops.
        query.answers.push(record(qname, RecordType::A, n, qname));
    }
    let last = qname.labels().last().filter(|l| l.len() == 1).map(|l| l[0]);
    match ((bits >> 3) & 3, last) {
        (1, _) => {
            // A second question, compressed against the first.
            let other = qname.parent().unwrap_or_else(DnsName::root);
            query.questions.push(dns_wire::Question::new(other, RecordType::A));
            query.encode()
        }
        (2, Some(letter)) => {
            // ID 0x01 and the last label's letter, then zero flags, spell
            // that label at offset 0: the question's last label becomes a
            // pointer to it.
            query.id = u16::from_be_bytes([1, letter]);
            query.flags.rd = false;
            let mut bytes = query.encode();
            let end = 12 + qname.wire_len();
            bytes.splice(end - 3..end, [0xC0, 0]);
            bytes
        }
        _ => query.encode(),
    }
}

proptest! {
    #[test]
    fn every_wire_answer_is_the_owned_answer_encoded(
        present in 1u8..16,
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let zones = ZoneSet::new();
        for (i, apex) in APEXES.iter().enumerate().filter(|(i, _)| present & (1 << i) != 0) {
            let mut zone = Zone::new(DnsName::parse(apex).unwrap());
            if i % 2 == 0 {
                zone.enable_signing(ZoneKeys::derive(&zone.apex.clone(), 0), 0, u32::MAX - 1);
            }
            zones.insert(zone);
        }
        let server = AuthoritativeServer::new(zones.clone());
        // Every answer of the case is written over the one before it,
        // and the first over junk.
        let mut reply = vec![0xEE; 1500];
        // The sets written so far: half the later writes and most queries
        // go to one of them.
        let mut written: Vec<(u8, DnsName, RecordType)> = Vec::new();

        for (kind, zone, owner, (target, target_base), n, bits) in ops {
            let earlier = written.get(usize::from(n) % written.len().max(1));
            let (zone, owner, rtype) = match earlier.filter(|_| bits & 16 != 0 && kind <= 4) {
                Some(set) => set.clone(),
                None => {
                    let apex = DnsName::parse(APEXES[usize::from(zone)]).unwrap();
                    // A removal may name any type; a write one of the first seven.
                    let types = if kind == 4 { TYPES.len() } else { 7 };
                    (zone, name(&owner, apex), TYPES[usize::from(n) % types])
                }
            };
            let apex = DnsName::parse(APEXES[usize::from(zone)]).unwrap();
            let target = name(&target, base(target_base));
            match kind {
                0..=2 => {
                    let added = zones.with_zone(&apex, |z| z.add(record(&owner, rtype, n, &target)));
                    if added.is_some() {
                        written.push((zone, owner, rtype));
                    }
                }
                3 => {
                    let records = (0..bits % 3).map(|i| record(&owner, rtype, n ^ i, &target));
                    let records = records.collect();
                    if zones.with_zone(&apex, |z| z.set(owner.clone(), rtype, records)).is_some() {
                        written.push((zone, owner, rtype));
                    }
                }
                4 => {
                    zones.with_zone(&apex, |z| z.remove(&owner, rtype));
                }
                5 => {
                    // Unsign a signed zone, or sign with a fresh key.
                    zones.with_zone(&apex, |z| match z.is_signed() && bits & 1 != 0 {
                        true => z.disable_signing(),
                        false => z.enable_signing(ZoneKeys::derive(&apex, n.into()), 0, 1 << 31),
                    });
                }
                _ => {
                    // A written name (asked for its type, or any), in
                    // its own case or upper case; else a random name.
                    let any_type = TYPES[usize::from(n) % TYPES.len()];
                    let (qname, qtype) = match earlier.filter(|_| bits & 64 != 0) {
                        Some((_, name, rtype)) if bits & 128 != 0 => (name.clone(), *rtype),
                        Some((_, name, _)) => (name.clone(), any_type),
                        None => (target, any_type),
                    };
                    let qname = match n & 1 {
                        0 => qname,
                        _ => DnsName::parse(&qname.to_string().to_uppercase()).unwrap(),
                    };
                    let request = request(&qname, qtype, n, bits);
                    let decoded = Message::decode(&request).unwrap();
                    let reference = server.answer(&decoded).encode();
                    server.handle(&request, Timestamp(0), &mut reply).unwrap();
                    prop_assert_eq!(&*reply, &reference);

                    // NODATA and NXDOMAIN agree with a scan of the zone's
                    // names, and the listing is in canonical order.
                    let qname = decoded.question().unwrap().name.clone();
                    let Some(apex) = zones.find_zone_for(&qname) else { continue };
                    zones.read_zone(&apex, |z| {
                        let names: Vec<(DnsName, u16)> =
                            z.iter().map(|r| (r.name, r.rtype.code())).collect();
                        assert!(names.windows(2).all(|w| w[0] <= w[1]), "{names:?}");
                        let exists = names.iter().any(|(n, _)| n.is_subdomain_of(&qname));
                        match z.lookup(&qname, qtype) {
                            LookupResult::NoData => assert!(exists, "{qname}"),
                            LookupResult::NxDomain => assert!(!exists, "{qname}"),
                            _ => {}
                        }
                    });
                }
            }
        }
    }
}
