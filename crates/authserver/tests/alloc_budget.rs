//! Allocation budgets of the authority's name-keyed lookups and of its
//! wire answers, counted with a per-thread counting allocator and held
//! on every thread of the `RESOLVER_TEST_THREADS` axis while the threads
//! share one zone, one registry and one server.

#![allow(unsafe_code)]

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use counting_alloc::{allocs_in, allocs_per_thread, thread_axis};
use dns_wire::{DnsName, Message, RData, Record, RecordType, SvcParam, SvcbRdata};
use dnssec::ZoneKeys;
use netsim::{DatagramService, Timestamp};
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

#[test]
fn zone_get_allocates_nothing() {
    let apex = name("example.com");
    let mut zone = Zone::new(apex.clone());
    for i in 0..64u8 {
        let owner = name(&format!("h{i}.dept{}.example.com", i % 5));
        zone.add(Record::new(owner, 300, RData::A(Ipv4Addr::new(10, 0, 0, i))));
    }
    let hit = name("H40.dept0.Example.COM");
    let miss = name("nope.dept0.example.com");
    let zones = ZoneSet::new();
    zones.insert(zone.clone());

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            for _ in 0..100 {
                assert_eq!(zone.get(black_box(&hit), RecordType::A).map(|s| s.len()), Some(1));
                assert!(zone.get(&miss, RecordType::A).is_none());
                assert!(zone.get(&hit, RecordType::Aaaa).is_none());
                assert!(zone.get(&apex, RecordType::Soa).is_some());
                assert_eq!(zones.find_zone_for(&hit).as_ref(), Some(&apex));
                assert_eq!(zones.read_zone(&apex, |z| z.is_signed()), Some(false));
            }
        });
        assert_eq!(counts, vec![0; threads], "{threads} threads");
    }
}

#[test]
fn find_authority_does_not_depend_on_the_endpoint_count() {
    let endpoints = |n: u8| -> Vec<NsEndpoint> {
        (0..n)
            .map(|i| NsEndpoint {
                name: name(&format!("ns{i}.provider.net")),
                ip: IpAddr::V4(Ipv4Addr::new(192, 0, 2, i)),
            })
            .collect()
    };
    let registry = DelegationRegistry::new();
    registry.delegate(&name("com"), &endpoints(2));
    registry.delegate(&name("one.com"), &endpoints(1));
    registry.delegate(&name("thirteen.com"), &endpoints(13));
    let one = name("a.b.www.one.com");
    let thirteen = name("a.b.www.thirteen.com");

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            for _ in 0..100 {
                let (few, found) = allocs_in(|| registry.find_authority(&one).unwrap());
                assert_eq!((found.0.label_count(), found.1.len()), (2, 1));
                let (many, found) = allocs_in(|| registry.find_authority(&thirteen).unwrap());
                assert_eq!((found.0.label_count(), found.1.len()), (2, 13));
                assert_eq!((few, many), (0, 0));
                assert!(registry.find_parent_authority(&found.0).is_some());
            }
        });
        assert_eq!(counts, vec![0; threads], "{threads} threads");
    }
}

#[test]
fn an_authority_lookup_allocates_nothing_and_hands_out_the_shared_list() {
    let endpoints = |provider: &str| -> Vec<NsEndpoint> {
        (0..3)
            .map(|i| NsEndpoint {
                name: name(&format!("ns{i}.{provider}")),
                ip: IpAddr::V4(Ipv4Addr::new(192, 0, 2, i)),
            })
            .collect()
    };
    let registry = DelegationRegistry::new();
    registry.delegate(&name("com"), &endpoints("gtld.net"));
    for zone in ["a.com", "b.com", "c.com"] {
        registry.delegate(&name(zone), &endpoints("provider.net"));
    }
    let shared = registry.endpoints_of(&name("a.com")).unwrap();
    assert!(Arc::ptr_eq(&shared, &registry.endpoints_of(&name("c.com")).unwrap()));
    let holders = Arc::strong_count(&shared);
    let queries = [name("www.a.com"), name("B.com"), name("x.y.c.com")];

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            for _ in 0..100 {
                for q in &queries {
                    let (n, (apex, eps)) =
                        allocs_in(|| registry.find_authority(black_box(q)).unwrap());
                    assert_eq!((n, apex.label_count()), (0, 2));
                    assert!(Arc::ptr_eq(&eps, &shared), "{q}: the registry's own list");
                    let (n, parent) = allocs_in(|| registry.find_parent_authority(&apex));
                    assert_eq!((n, parent.map(|(apex, _)| apex.label_count())), (0, Some(1)));
                }
            }
        });
        assert_eq!(counts, vec![0; threads], "{threads} threads");
        assert_eq!(Arc::strong_count(&shared), holders, "every lookup gave its count back");
    }
}

#[test]
fn every_authority_answer_allocates_only_the_response() {
    let apex = name("example.com");
    let zones = ZoneSet::new();
    let mut parent = Zone::new(name("com"));
    parent.add(Record::new(apex.clone(), 300, RData::Ns(name("ns1.provider.net"))));
    zones.insert(parent);
    let mut zone = Zone::new(apex.clone());
    let www = name("www.example.com");
    zone.add(Record::new(www.clone(), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1))));
    zone.add(Record::new(www.clone(), 300, RData::A(Ipv4Addr::new(192, 0, 2, 2))));
    let alpn = SvcParam::Alpn(vec![b"h2".to_vec()]);
    zone.add(Record::new(apex.clone(), 300, RData::Https(SvcbRdata::service_self(vec![alpn]))));
    zone.add(Record::new(name("alias.example.com"), 300, RData::Cname(www.clone())));
    zone.enable_signing(ZoneKeys::derive(&apex, 0), 0, u32::MAX - 1);
    zones.insert(zone);
    let server = AuthoritativeServer::new(zones);

    let shapes = [
        (www.clone(), RecordType::A),
        (apex.clone(), RecordType::Https),
        (www.clone(), RecordType::Aaaa),            // NODATA
        (name("nope.example.com"), RecordType::A),  // NXDOMAIN
        (name("alias.example.com"), RecordType::A), // an in-zone CNAME chase
    ];
    let plain: Vec<Message> =
        shapes.iter().map(|(n, t)| Message::query(9, n.clone(), *t)).collect();
    let signed: Vec<Message> =
        shapes.iter().map(|(n, t)| Message::query_dnssec(9, n.clone(), *t)).collect();
    // Each serve equals the owned answer. A caller hands every answer
    // the same buffer, which the first one allocates.
    let warm = Message::query(9, apex.clone(), RecordType::Txt).encode();
    let mut reply = Vec::new();
    let (n, served) = allocs_in(|| server.handle(&warm, Timestamp(0), &mut reply));
    served.unwrap();
    assert_eq!(n, 1, "the reply buffer");
    // Then the first serve of each shape, cold, allocates nothing; only
    // a DO answer's first serve signs its sets.
    for query in &plain {
        let request = query.encode();
        let (n, served) = allocs_in(|| server.handle(&request, Timestamp(0), &mut reply));
        served.unwrap();
        assert_eq!(n, 0, "cold, into the reused buffer");
        assert_eq!(reply, server.answer(query).encode());
    }
    for query in &signed {
        server.handle(&query.encode(), Timestamp(0), &mut reply).unwrap();
        assert_eq!(reply, server.answer(query).encode());
    }
    let requests: Vec<(Vec<u8>, Vec<u8>)> =
        plain.iter().chain(&signed).map(|q| (q.encode(), server.answer(q).encode())).collect();

    for threads in thread_axis() {
        let counts = allocs_per_thread(threads, || {
            let mut reply = Vec::new();
            let (n, _) = allocs_in(|| server.handle(&warm, Timestamp(0), &mut reply));
            assert_eq!(n, 1, "this thread's reply buffer");
            for _ in 0..10 {
                for (request, reference) in &requests {
                    let (n, served) =
                        allocs_in(|| server.handle(black_box(request), Timestamp(0), &mut reply));
                    served.unwrap();
                    assert_eq!(n, 0, "a warm answer into the reused buffer");
                    assert_eq!(&reply, reference);
                }
            }
        });
        assert_eq!(counts, vec![1; threads], "{threads} threads");
    }
}
