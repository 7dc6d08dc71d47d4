//! The authority's name-keyed lookups walk borrowed suffixes — of the
//! query name, or of a request's question spelled out on the stack —
//! instead of `parent()` clones. Over names that nest and differ in
//! case, each answers what the owned walk it replaced answers, spelling
//! included.

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use dns_wire::{DnsName, Message, RData, Record, RecordType};
use netsim::{DatagramService, Timestamp};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};

/// Names from a handful of labels in both cases, so that zones nest and
/// queries fall inside, above and beside them.
fn arb_name() -> impl Strategy<Value = DnsName> {
    let label = prop_oneof![
        Just("a"),
        Just("A"),
        Just("b"),
        Just("www"),
        Just("Www"),
        Just("example"),
        Just("com"),
        Just("COM"),
    ];
    proptest::collection::vec(label, 0..5).prop_map(|l| DnsName::from_labels(l).unwrap())
}

/// The walk the lookups replaced: the name, then each `parent()` clone.
fn owned_ancestors(name: &DnsName) -> impl Iterator<Item = DnsName> {
    std::iter::successors(Some(name.clone()), DnsName::parent)
}

/// Spelling too: `DnsName`'s `==` folds case.
fn spelled(found: Option<&DnsName>) -> Option<String> {
    found.map(DnsName::to_string)
}

proptest! {
    #[test]
    fn borrowed_walks_find_what_the_owned_walks_found(
        apexes in proptest::collection::vec(arb_name(), 0..6),
        queries in proptest::collection::vec(arb_name(), 1..8),
    ) {
        let zones = ZoneSet::new();
        let registry = DelegationRegistry::new();
        for (i, apex) in apexes.iter().enumerate() {
            let mut zone = Zone::new(apex.clone());
            zone.add(Record::new(apex.clone(), 300, RData::A(Ipv4Addr::new(192, 0, 2, i as u8))));
            zones.insert(zone);
            let ip = IpAddr::V4(Ipv4Addr::new(198, 51, 100, i as u8));
            registry.delegate(apex, &[NsEndpoint { name: apex.clone(), ip }]);
        }
        let server = AuthoritativeServer::new(zones.clone());

        for q in &queries {
            let zone = owned_ancestors(q).find(|c| zones.read_zone(c, |_| ()).is_some());
            prop_assert_eq!(spelled(zones.find_zone_for(q).as_ref()), spelled(zone.as_ref()));

            let authority = owned_ancestors(q).find_map(|c| Some((registry.endpoints_of(&c)?, c)));
            let found = registry.find_authority(q);
            prop_assert_eq!(
                spelled(found.as_ref().map(|(apex, _)| apex)),
                spelled(authority.as_ref().map(|(_, apex)| apex))
            );
            prop_assert_eq!(found.map(|(_, eps)| eps), authority.map(|(eps, _)| eps));

            // The wire path probes the zones with the request's question,
            // spelled out on the stack: it answers what the owned answer
            // to the decoded request encodes.
            let request = Message::query(7, q.clone(), RecordType::A).encode();
            let reference = server.answer(&Message::decode(&request).unwrap()).encode();
            let mut reply = Vec::new();
            server.handle(&request, Timestamp(0), &mut reply).unwrap();
            prop_assert_eq!(reply, reference);
        }
    }
}
