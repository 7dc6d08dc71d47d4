//! The recursive resolver as a stub's server (`DatagramService::handle`):
//! the bytes of its reply to each kind of request, pinned. A request
//! that does not parse is reset; one without a question gets FORMERR; a
//! resolution error gets SERVFAIL; an answer is the CNAME chain, then
//! the final RRset, then (with the DO bit) its RRSIGs under the set's
//! owner with the first record's TTL, and AD when the set validated.

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use dns_wire::{DnsName, Message, RData, Record, RecordType, SvcParam, SvcbRdata};
use dnssec::ZoneKeys;
use netsim::{DatagramService, NetError, Network, SimClock, Timestamp};
use resolver::{RecursiveResolver, ResolverConfig};
use std::fmt::Write as _;
use std::net::IpAddr;
use std::sync::Arc;

fn name(s: &str) -> DnsName {
    if s == "." {
        return DnsName::root();
    }
    DnsName::parse(s).unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

/// A signed zone `apex` served at `at`, its DS published in `parent`.
fn signed_zone(
    net: &Network,
    registry: &DelegationRegistry,
    apex: &str,
    at: &str,
    records: &[Record],
    ds: Option<Record>,
) -> ZoneKeys {
    let keys = ZoneKeys::derive(&name(apex), 0);
    let set = ZoneSet::new();
    let mut zone = Zone::new(name(apex));
    zone.enable_signing(keys.clone(), 0, u32::MAX - 1);
    records.iter().cloned().for_each(|r| zone.add(r));
    ds.into_iter().for_each(|r| zone.add(r));
    set.insert(zone);
    net.bind_datagram(ip(at), 53, Arc::new(AuthoritativeServer::new(set)));
    let ns = NsEndpoint { name: name(&format!("ns.{}", apex.trim_matches('.'))), ip: ip(at) };
    registry.delegate(&name(apex), &[ns]);
    keys
}

/// Root → com → a.com, all signed and linked; `a.com` holds an A and an
/// HTTPS record and `www.a.com` is a CNAME to it. `dead.com` is
/// delegated to an address nothing listens on.
fn resolver() -> RecursiveResolver {
    let clock = SimClock::new();
    clock.advance(1000);
    let net = Network::new(clock);
    let registry = DelegationRegistry::new();
    let a_keys = ZoneKeys::derive(&name("a.com"), 0);
    let com_keys = ZoneKeys::derive(&name("com"), 0);
    signed_zone(&net, &registry, ".", "198.41.0.4", &[], Some(com_keys.ds_record(300)));
    signed_zone(&net, &registry, "com", "192.5.6.30", &[], Some(a_keys.ds_record(300)));
    let https = SvcbRdata::service_self(vec![
        SvcParam::Alpn(vec![b"h2".to_vec(), b"http/1.1".to_vec()]),
        SvcParam::Ipv4Hint(vec!["1.2.3.4".parse().unwrap()]),
    ]);
    let records = [
        Record::new(name("a.com"), 300, RData::A("1.2.3.4".parse().unwrap())),
        Record::new(name("a.com"), 600, RData::A("1.2.3.5".parse().unwrap())),
        Record::new(name("a.com"), 300, RData::Https(https)),
        Record::new(name("www.a.com"), 120, RData::Cname(name("a.com"))),
    ];
    signed_zone(&net, &registry, "a.com", "173.245.58.1", &records, None);
    registry.delegate(
        &name("dead.com"),
        &[NsEndpoint { name: name("ns.dead.com"), ip: ip("203.0.113.9") }],
    );
    RecursiveResolver::new(net, registry, ResolverConfig::default())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// The resolver's reply to `request`, as hex.
fn reply(r: &RecursiveResolver, request: &[u8]) -> Result<String, NetError> {
    // A reused buffer is cleared first.
    let mut out = vec![0xAB; 7];
    r.handle(request, Timestamp(0), &mut out).map(|()| hex(&out))
}

/// Assert that the reply to `query` is `expected`, given in hex.
fn pin(r: &RecursiveResolver, query: &Message, expected: &str) {
    assert_eq!(reply(r, &query.encode()).unwrap(), expected, "reply to {query:?}");
}

#[test]
fn a_request_that_does_not_parse_is_reset() {
    let r = resolver();
    assert_eq!(reply(&r, &[0xFF; 7]), Err(NetError::Reset));
    // Well-formed but for an answer record's RDATA (an A of 3 octets).
    let mut query = Message::query(5, name("a.com"), RecordType::A);
    query.edns = None;
    let mut bytes = query.encode();
    bytes[7] = 1;
    bytes.extend_from_slice(&[0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 3, 1, 2, 3]);
    assert_eq!(reply(&r, &bytes), Err(NetError::Reset));
}

#[test]
fn a_query_without_a_question_gets_formerr() {
    let r = resolver();
    let mut query = Message::query_dnssec(0x1234, name("a.com"), RecordType::A);
    query.questions.clear();
    pin(&r, &query, "12348181000000000000000100002904d0000080000000");
    query.edns = None;
    pin(&r, &query, "123481810000000000000000");
}

#[test]
fn a_resolution_error_gets_servfail() {
    let r = resolver();
    let query = Message::query(7, name("www.dead.com"), RecordType::Https);
    pin(
        &r,
        &query,
        "00078182000100000000000103777777046465616403636f6d00004100010000\
         2904d0000000000000",
    );
}

#[test]
fn a_cname_chain_comes_before_its_answer() {
    let r = resolver();
    let query = Message::query(9, name("WWW.a.com"), RecordType::A);
    pin(
        &r,
        &query,
        "000981a0000100030000000103575757016103636f6d0000010001c00c000500\
         01000000780007016103636f6d00c010000100010000012c000401020304c010\
         000100010000025800040102030500002904d0000000000000",
    );
}

#[test]
fn a_do_query_of_a_signed_name_gets_its_rrsigs_and_ad() {
    let r = resolver();
    let query = Message::query_dnssec(11, name("a.com"), RecordType::Https);
    pin(
        &r,
        &query,
        "000b81a00001000200000001016103636f6d0000410001c00c00410001000001\
         2c001b0001000001000c02683208687474702f312e310004000401020304c00c\
         002e00010000012c00290041fd020000012cfffffffe00000000e32201610363\
         6f6d00e659abc35d30120cf7574526ad724e6f00002904d0000080000000",
    );
    let query = Message::query_dnssec(12, name("www.A.com"), RecordType::A);
    pin(
        &r,
        &query,
        "000c81a0000100040000000103777777014103636f6d0000010001c00c000500\
         01000000780007016103636f6d00c010000100010000012c000401020304c010\
         0001000100000258000401020305c010002e00010000012c00290001fd020000\
         012cfffffffe00000000e322016103636f6d00f6f28215e0908228dd52865f24\
         386a6c00002904d0000080000000",
    );
    // Two questions: the first is answered, both are echoed.
    let mut query = Message::query_dnssec(13, name("a.com"), RecordType::A);
    query.questions.push(query.questions[0].clone());
    query.questions[1].qtype = RecordType::Https;
    pin(
        &r,
        &query,
        "000d81a00002000300000001016103636f6d0000010001c00c00410001c00c00\
         0100010000012c000401020304c00c0001000100000258000401020305c00c00\
         2e00010000012c00290001fd020000012cfffffffe00000000e322016103636f\
         6d00f6f28215e0908228dd52865f24386a6c00002904d0000080000000",
    );
}
