//! Quickstart: publish an HTTPS record, resolve it, and connect to the
//! service the way an HTTPS-RR-aware client does — all over the
//! simulated network.
//!
//! Run with: `cargo run --example quickstart`

use httpsrr::authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use httpsrr::dns_wire::{DnsName, RData, Record, RecordType, SvcParam, SvcbRdata};
use httpsrr::netsim::{Network, SimClock};
use httpsrr::resolver::{RecursiveResolver, ResolverConfig};
use httpsrr::tlsech::{ClientHello, ServerResponse, WebServer, WebServerConfig};
use std::net::IpAddr;
use std::sync::Arc;

fn main() {
    // 1. A network with a virtual clock.
    let network = Network::new(SimClock::new());
    let registry = DelegationRegistry::new();

    // 2. An authoritative zone for example.com publishing the paper's
    //    Figure 1-style HTTPS record.
    let apex = DnsName::parse("example.com").expect("valid name");
    let web_ip: IpAddr = "203.0.113.10".parse().expect("valid ip");
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(apex.clone(), 300, RData::A("203.0.113.10".parse().expect("v4"))));
    zone.add(Record::new(
        apex.clone(),
        300,
        RData::Https(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]),
            SvcParam::Ipv4Hint(vec!["203.0.113.10".parse().expect("v4")]),
        ])),
    ));
    let zones = ZoneSet::new();
    zones.insert(zone);
    let ns_ip: IpAddr = "10.0.0.53".parse().expect("valid ip");
    network.bind_datagram(ns_ip, 53, Arc::new(AuthoritativeServer::new(zones)));
    registry.delegate(
        &apex,
        &[NsEndpoint { name: DnsName::parse("ns1.example.com").expect("valid"), ip: ns_ip }],
    );

    // 3. A web server at the advertised address.
    let server = Arc::new(WebServer::new(
        network.clone(),
        WebServerConfig {
            cert_names: vec![apex.clone()],
            alpn: vec!["h2".into(), "http/1.1".into()].into(),
        },
    ));
    network.bind_stream(web_ip, 443, server);

    // 4. Resolve the HTTPS record like a stub → recursive → authoritative
    //    chain would.
    let resolver = RecursiveResolver::new(network.clone(), registry, ResolverConfig::default());
    let res = resolver.resolve(&apex, RecordType::Https).expect("resolution succeeds");
    println!("HTTPS record(s) for {apex}:");
    for rec in res.records.records() {
        println!("  {}", rec.to_owned().expect("checked RDATA"));
    }

    // 5. Use the record, read in place: pick the ALPN and hint address,
    //    then handshake.
    let rd = res.records.records().find_map(|rec| rec.svcb().ok()).expect("an HTTPS record");
    let alpn: Vec<_> =
        rd.alpn_ids().expect("record advertises alpn").map(String::from_utf8_lossy).collect();
    let hint = rd.ipv4hint().and_then(|mut hints| hints.next()).expect("record has hints");
    println!("connecting to {hint}:443 offering {alpn:?} …");
    let hello = ClientHello::plain("example.com", vec![alpn[0].clone().into_owned()]);
    let resp =
        network.stream_exchange(IpAddr::V4(hint), 443, &hello.encode()).expect("server reachable");
    match ServerResponse::decode(&resp).expect("valid handshake reply") {
        ServerResponse::Accepted { alpn, cert_name, .. } => {
            println!("TLS established with {cert_name} using ALPN {alpn:?}");
        }
        other => panic!("unexpected handshake outcome: {other:?}"),
    }
}
