//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs across layer boundaries.

use httpsrr::dns_wire::RrsigRdata;
use httpsrr::dns_wire::{DnsName, Message, RData, Record, RecordType, SvcParam, SvcbRdata};
use httpsrr::dnssec::{validate, ChainSource, ValidationState, ZoneKeys};
use httpsrr::netsim::Timestamp;
use httpsrr::resolver::{RecordCache, RrSet};
use httpsrr::tlsech::{ClientHello, EchConfig, EchConfigList, InnerHello, ServerResponse};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof![Just('a'), Just('b'), Just('z'), Just('3')], 1..8)
        .prop_map(|cs| cs.into_iter().collect())
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 1..4)
        .prop_map(|labels| DnsName::parse(&labels.join(".")).expect("generated names are valid"))
}

fn rrsig_of(record: &Record) -> RrsigRdata {
    match &record.rdata {
        RData::Rrsig(sig) => sig.clone(),
        other => panic!("rrsig expected, got {other:?}"),
    }
}

/// One signed zone below the root: its self-signed DNSKEY set and the DS
/// its parent publishes; no other zone has keys.
struct OneZone(ZoneKeys);

impl ChainSource for OneZone {
    type Set = RrSet;

    fn dnskeys(&mut self, zone: &DnsName) -> Option<RrSet> {
        let dnskey = [self.0.dnskey_record(300)];
        let sig = rrsig_of(&self.0.sign(&dnskey, 0, u32::MAX - 1));
        (*zone == self.0.apex).then(|| RrSet::from_records(&dnskey, &[sig]))
    }

    fn ds_set(&mut self, zone: &DnsName) -> Option<RrSet> {
        (*zone == self.0.apex).then(|| RrSet::from_records(&[self.0.ds_record(300)], &[]))
    }
}

proptest! {
    /// Cache never serves an entry past its TTL, for any insertion time,
    /// TTL, and query offset.
    #[test]
    fn cache_never_serves_expired(
        ttl in 0u32..10_000,
        inserted_at in 0u64..1_000_000,
        query_offset in 0u64..20_000,
        name in arb_name(),
    ) {
        let cache = RecordCache::default();
        let rec = Record::new(name.clone(), ttl, RData::A("1.2.3.4".parse().unwrap()));
        let set = RrSet::from_records(&[rec], &[]);
        cache.insert_positive(&name, RecordType::A, set, Timestamp(inserted_at));
        let now = Timestamp(inserted_at + query_offset);
        let hit = cache.get(&name, RecordType::A, now).is_some();
        prop_assert_eq!(hit, query_offset < u64::from(ttl));
    }

    /// Signing then validating is Secure for arbitrary HTTPS RRsets, read
    /// in place from a reply, under keys endorsed by a DS below the root;
    /// any single-record tamper makes it Bogus.
    #[test]
    fn dnssec_sign_verify_tamper(
        name in arb_name(),
        prio in 1u16..10,
        port in 1u16..u16::MAX,
        ttl in 1u32..86_400,
    ) {
        let keys = ZoneKeys::derive(&name, 0);
        let rd = SvcbRdata { priority: prio, target: DnsName::root(), params: vec![SvcParam::Port(port)] };
        let rrset = vec![Record::new(name.clone(), ttl, RData::Https(rd))];
        let sig = rrsig_of(&keys.sign(&rrset, 0, u32::MAX - 1));
        let mut chain = OneZone(keys);
        let set = RrSet::from_records(&rrset, std::slice::from_ref(&sig));
        prop_assert_eq!(validate(&set, &mut chain, 100), ValidationState::Secure);

        let mut tampered = rrset.clone();
        if let RData::Https(rd) = &mut tampered[0].rdata {
            rd.priority = rd.priority.wrapping_add(1).max(1);
        }
        let set = RrSet::from_records(&tampered, &[sig]);
        prop_assert_eq!(validate(&set, &mut chain, 100), ValidationState::Bogus);
    }

    /// ECH seal/open round-trips for arbitrary inner hellos; a different
    /// key never opens them.
    #[test]
    fn ech_seal_open_cross_key(
        sni in arb_label(),
        alpn in proptest::collection::vec(arb_label(), 0..3),
        seed_a in 0u32..1000,
        seed_b in 0u32..1000,
    ) {
        prop_assume!(seed_a != seed_b);
        let kp_a = httpsrr::simcrypto::SimKeyPair::derive(&format!("prop-{seed_a}"));
        let kp_b = httpsrr::simcrypto::SimKeyPair::derive(&format!("prop-{seed_b}"));
        let inner = InnerHello { sni: sni.clone(), alpn };
        let sealed = kp_a.public().seal(b"outer", &inner.encode());
        let opened = kp_a.open(b"outer", &sealed).expect("own key opens");
        prop_assert_eq!(InnerHello::decode(&opened).expect("decodes"), inner);
        prop_assert!(kp_b.open(b"outer", &sealed).is_none());
    }

    /// ECHConfigList encode/decode round-trips; truncation is malformed.
    #[test]
    fn ech_config_list_round_trip(
        ids in proptest::collection::vec(any::<u8>(), 1..4),
        name in arb_name(),
    ) {
        let configs: Vec<EchConfig> = ids
            .iter()
            .map(|&id| {
                EchConfig::new(
                    id,
                    name.clone(),
                    httpsrr::simcrypto::SimKeyPair::derive(&format!("cfg{id}")).public(),
                )
            })
            .collect();
        let list = EchConfigList(configs);
        let bytes = list.encode();
        prop_assert_eq!(EchConfigList::decode(&bytes).expect("round-trip"), list);
        prop_assert!(EchConfigList::decode(&bytes[..bytes.len() - 1]).is_none());
    }

    /// TLS messages round-trip and never panic on arbitrary byte input.
    #[test]
    fn tls_messages_robust(
        sni in arb_label(),
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let hello = ClientHello::plain(&sni, vec!["h2".into()]);
        prop_assert_eq!(ClientHello::decode(&hello.encode()).expect("round-trip"), hello);
        let _ = ClientHello::decode(&garbage);
        let _ = ServerResponse::decode(&garbage);
    }

    /// A full query→authoritative-answer wire cycle preserves HTTPS
    /// records of arbitrary shape.
    #[test]
    fn wire_cycle_preserves_https_records(
        name in arb_name(),
        prio in 0u16..5,
        with_hint in any::<bool>(),
    ) {
        use httpsrr::authserver::{AuthoritativeServer, Zone, ZoneSet};
        let mut params = vec![];
        if prio > 0 {
            params.push(SvcParam::Alpn(vec![b"h2".to_vec()]));
            if with_hint {
                params.push(SvcParam::Ipv4Hint(vec!["9.9.9.9".parse().unwrap()]));
            }
        }
        let rd = if prio == 0 {
            SvcbRdata::alias(DnsName::parse("target.example").unwrap())
        } else {
            SvcbRdata { priority: prio, target: DnsName::root(), params }
        };
        let mut zone = Zone::new(name.clone());
        zone.add(Record::new(name.clone(), 60, RData::Https(rd.clone())));
        let zones = ZoneSet::new();
        zones.insert(zone);
        let server = AuthoritativeServer::new(zones);
        let query = Message::query(1, name.clone(), RecordType::Https);
        let resp = Message::decode(&server.answer(&query).encode()).expect("decodable");
        let got = resp.answers_of(RecordType::Https);
        prop_assert_eq!(got.len(), 1);
        match &got[0].rdata {
            RData::Https(back) => prop_assert_eq!(back, &rd),
            other => prop_assert!(false, "wrong rdata {:?}", other),
        }
    }
}
