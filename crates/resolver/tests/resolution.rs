//! End-to-end resolver tests against a three-level signed hierarchy
//! (root → com → a.com) on the simulated network.

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use dns_wire::{DnsName, Message, RData, Rcode, Record, RecordType, SvcParam, SvcbRdata};
use dnssec::{ValidationState, ZoneKeys};
use netsim::{DatagramService, NetError, Network, SimClock, Timestamp};
use resolver::{CacheStats, RecursiveResolver, ResolveError, ResolverConfig, SelectionStrategy};
use std::net::IpAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

/// Build a world: root + com + a.com zones, a.com signed with DS
/// linked per `link_ds`. Returns (network, registry, zoneset of a.com).
fn world(link_ds: bool) -> (Network, DelegationRegistry, ZoneSet) {
    let (net, registry, a_set, _) = signed_hierarchy(link_ds);
    (net, registry, a_set)
}

/// [`world`], also returning the zoneset the `com` server answers from.
fn signed_hierarchy(link_ds: bool) -> (Network, DelegationRegistry, ZoneSet, ZoneSet) {
    let clock = SimClock::new();
    clock.advance(1000);
    let net = Network::new(clock);
    let registry = DelegationRegistry::new();

    let root_keys = ZoneKeys::derive(&DnsName::root(), 0);
    let com_keys = ZoneKeys::derive(&name("com"), 0);
    let a_keys = ZoneKeys::derive(&name("a.com"), 0);

    // Root zone (trust anchor) serving DS for com.
    let root_set = ZoneSet::new();
    let mut root_zone = Zone::new(DnsName::root());
    root_zone.enable_signing(root_keys, 0, u32::MAX - 1);
    root_zone.add(com_keys.ds_record(300));
    root_set.insert(root_zone);
    net.bind_datagram(ip("198.41.0.4"), 53, Arc::new(AuthoritativeServer::new(root_set)));
    registry.delegate(
        &DnsName::root(),
        vec![NsEndpoint { name: name("a.root-servers.net"), ip: ip("198.41.0.4") }],
    );

    // com zone serving DS for a.com (when linked).
    let com_set = ZoneSet::new();
    let mut com_zone = Zone::new(name("com"));
    com_zone.enable_signing(com_keys, 0, u32::MAX - 1);
    if link_ds {
        com_zone.add(a_keys.ds_record(300));
    }
    com_set.insert(com_zone);
    net.bind_datagram(ip("192.5.6.30"), 53, Arc::new(AuthoritativeServer::new(com_set.clone())));
    registry.delegate(
        &name("com"),
        vec![NsEndpoint { name: name("a.gtld-servers.net"), ip: ip("192.5.6.30") }],
    );

    // a.com zone, signed.
    let a_set = ZoneSet::new();
    let mut a_zone = Zone::new(name("a.com"));
    a_zone.enable_signing(a_keys, 0, u32::MAX - 1);
    a_zone.add(Record::new(name("a.com"), 300, RData::A("1.2.3.4".parse().unwrap())));
    a_zone.add(Record::new(
        name("a.com"),
        300,
        RData::Https(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![b"h2".to_vec()])])),
    ));
    a_zone.add(Record::new(name("www.a.com"), 300, RData::Cname(name("a.com"))));
    a_set.insert(a_zone);
    net.bind_datagram(ip("173.245.58.1"), 53, Arc::new(AuthoritativeServer::new(a_set.clone())));
    registry.delegate(
        &name("a.com"),
        vec![NsEndpoint { name: name("ns1.cloudflare.com"), ip: ip("173.245.58.1") }],
    );

    (net, registry, a_set, com_set)
}

fn resolver_of(net: &Network, reg: &DelegationRegistry) -> RecursiveResolver {
    RecursiveResolver::new(net.clone(), reg.clone(), ResolverConfig::default())
}

#[test]
fn resolves_https_with_secure_validation() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    assert_eq!(res.records.len(), 1);
    assert_eq!(res.records.rrsig_count(), 1);
    assert_eq!(res.validation, Some(ValidationState::Secure));
    assert!(res.ad());
    assert!(!res.from_cache);
}

#[test]
fn missing_ds_gives_insecure_no_ad() {
    let (net, reg, _) = world(false);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert_eq!(res.validation, Some(ValidationState::Insecure));
    assert!(!res.ad());
    assert_eq!(res.records.rrsig_count(), 1); // signed but not validatable
}

#[test]
fn second_resolve_hits_cache() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let _ = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    let sent_before = net.stats().datagrams_sent;
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert!(res.from_cache);
    // Validation uses cached DNSKEY/DS too: no new traffic at all.
    assert_eq!(net.stats().datagrams_sent, sent_before);
}

#[test]
fn cname_and_target_are_cached_in_answer_order() {
    // One answer carries two RRsets (the authority chased the in-zone
    // CNAME): `www.a.com CNAME a.com`, then `a.com A`. In a one-entry
    // cache the second set stored evicts the first, so which survives
    // is the order they were stored in. That order is the answer's:
    // the target survives, the chase finds it, one query is sent. It
    // used to be a `HashMap`'s iteration order, which differs from one
    // hasher to the next — every resolver here has a fresh one.
    for _ in 0..32 {
        let (net, reg, _) = world(true);
        let config = ResolverConfig {
            validate: false,
            cache_shards: 1,
            cache_capacity_per_shard: Some(1),
            ..Default::default()
        };
        let r = RecursiveResolver::new(net.clone(), reg, config);
        let res = r.resolve(&name("www.a.com"), RecordType::A).unwrap();
        assert_eq!((res.chain.len(), res.records.len()), (1, 1));
        assert_eq!(net.stats().datagrams_sent, 1);
        let stats = r.cache().stats();
        assert_eq!((stats.insertions, stats.evictions, stats.hits), (2, 1, 1));
        let now = net.clock().now();
        assert!(r.cache().get(&name("a.com"), RecordType::A, now).is_some());
        assert!(r.cache().get(&name("www.a.com"), RecordType::Cname, now).is_none());
    }
}

#[test]
fn cache_expires_with_virtual_time() {
    let (net, reg, a_set) = world(true);
    let r = resolver_of(&net, &reg);
    let _ = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    // Mutate the zone while the cache is warm.
    a_set.with_zone(&name("a.com"), |z| {
        z.set(
            name("a.com"),
            RecordType::Https,
            vec![Record::new(
                name("a.com"),
                300,
                RData::Https(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![b"h3".to_vec()])])),
            )],
        );
    });
    // Warm cache still serves the old record.
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert!(res.from_cache);
    match &res.records.to_records()[0].rdata {
        RData::Https(rd) => assert_eq!(rd.alpn().unwrap(), vec!["h2"]),
        other => panic!("{other:?}"),
    }
    // After TTL expiry the new record is fetched.
    net.clock().advance(301);
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert!(!res.from_cache);
    match &res.records.to_records()[0].rdata {
        RData::Https(rd) => assert_eq!(rd.alpn().unwrap(), vec!["h3"]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn chases_cname_for_https() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("www.a.com"), RecordType::Https).unwrap();
    assert_eq!(res.chain.len(), 1);
    assert_eq!(res.records.len(), 1);
    assert_eq!(res.records.to_records()[0].name, name("a.com"));
}

#[test]
fn nxdomain_and_negative_cache() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("missing.a.com"), RecordType::A).unwrap();
    assert_eq!(res.rcode, Rcode::NxDomain);
    let sent = net.stats().datagrams_sent;
    let res2 = r.resolve(&name("missing.a.com"), RecordType::A).unwrap();
    assert_eq!(res2.rcode, Rcode::NxDomain);
    assert!(res2.from_cache);
    assert_eq!(net.stats().datagrams_sent, sent);
}

#[test]
fn nodata_is_noerror_empty() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::Aaaa).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    assert!(res.records.is_empty());
}

#[test]
fn failover_to_second_ns() {
    let (net, reg, _) = world(true);
    // Put a dead endpoint first in the list.
    reg.delegate(
        &name("a.com"),
        vec![
            NsEndpoint { name: name("ns-dead.x.net"), ip: ip("10.99.99.99") },
            NsEndpoint { name: name("ns1.cloudflare.com"), ip: ip("173.245.58.1") },
        ],
    );
    let r = RecursiveResolver::new(
        net.clone(),
        reg.clone(),
        ResolverConfig { strategy: SelectionStrategy::First, ..Default::default() },
    );
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert_eq!(res.records.len(), 1);
}

#[test]
fn no_authority_error() {
    let clock = SimClock::new();
    let net = Network::new(clock);
    let reg = DelegationRegistry::new();
    let r = resolver_of(&net, &reg);
    assert!(matches!(r.resolve(&name("x.test"), RecordType::A), Err(ResolveError::NoAuthority(_))));
}

#[test]
fn resolver_as_datagram_service_sets_ad() {
    let (net, reg, _) = world(true);
    let r = Arc::new(resolver_of(&net, &reg));
    net.bind_datagram(ip("8.8.8.8"), 53, r);
    let q = dns_wire::Message::query_dnssec(77, name("a.com"), RecordType::Https);
    let resp_bytes = net.send_datagram(ip("8.8.8.8"), 53, &q.encode()).unwrap();
    let resp = dns_wire::Message::decode(&resp_bytes).unwrap();
    assert_eq!(resp.id, 77);
    assert!(resp.flags.ad);
    assert_eq!(resp.answers_of(RecordType::Https).len(), 1);
    assert_eq!(resp.answers_of(RecordType::Rrsig).len(), 1);
}

#[test]
fn unsigned_zone_resolves_without_ad() {
    let (net, reg, a_set) = world(true);
    a_set.with_zone(&name("a.com"), |z| z.disable_signing());
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert_eq!(res.validation, Some(ValidationState::Unsigned));
    assert!(!res.ad());
    assert_eq!(res.records.rrsig_count(), 0);
}

#[test]
fn mixed_provider_ns_set_yields_intermittent_https() {
    // §4.2.3: a domain delegates to two providers; only one serves the
    // HTTPS record. Whether a resolver sees it depends on NS selection.
    let (net, reg, _) = world(true);

    // Second provider: same A record, no HTTPS record.
    let other_set = ZoneSet::new();
    let mut other_zone = Zone::new(name("a.com"));
    other_zone.add(Record::new(name("a.com"), 300, RData::A("1.2.3.4".parse().unwrap())));
    other_set.insert(other_zone);
    net.bind_datagram(ip("10.7.7.7"), 53, Arc::new(AuthoritativeServer::new(other_set)));
    reg.delegate(
        &name("a.com"),
        vec![
            NsEndpoint { name: name("ns1.cloudflare.com"), ip: ip("173.245.58.1") },
            NsEndpoint { name: name("ns1.other.net"), ip: ip("10.7.7.7") },
        ],
    );

    for strategy in
        [SelectionStrategy::First, SelectionStrategy::RoundRobin, SelectionStrategy::Random]
    {
        let r = RecursiveResolver::new(
            net.clone(),
            reg.clone(),
            ResolverConfig { strategy, validate: false, ..Default::default() },
        );
        let mut seen = Vec::new();
        for _ in 0..8 {
            let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
            seen.push(res.is_positive());
            net.clock().advance(301); // expire cache between observations
        }
        if strategy == SelectionStrategy::First {
            // The first-listed provider is the one that publishes it.
            assert!(seen.iter().all(|&positive| positive), "{strategy:?}: {seen:?}");
        } else {
            // Rotation and random picks reach both providers: both
            // outcomes occur.
            assert!(seen.contains(&true), "{strategy:?} never observed HTTPS: {seen:?}");
            assert!(seen.contains(&false), "{strategy:?} always observed HTTPS: {seen:?}");
        }
    }
}

/// The `com` server behind a gate that holds the first `com` DNSKEY
/// query until a second one arrives or 300 ms pass.
struct ComDnskeyGate {
    com: AuthoritativeServer,
    arrived: Mutex<usize>,
    second: Condvar,
}

impl DatagramService for ComDnskeyGate {
    fn handle(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, NetError> {
        let question = Message::decode(request).ok().and_then(|m| m.questions.into_iter().next());
        if question.is_some_and(|q| q.name == name("com") && q.qtype == RecordType::Dnskey) {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            if *arrived == 1 {
                let _held = self
                    .second
                    .wait_timeout_while(arrived, Duration::from_millis(300), |n| *n < 2)
                    .unwrap();
            } else {
                self.second.notify_all();
            }
        }
        self.com.handle(request, now)
    }
}

#[test]
fn concurrent_validations_fetch_shared_chain_material_once() {
    // Two pool workers validating different zones both need the DNSKEY
    // of their shared ancestor `com`. The check-then-fetch must be
    // atomic per resolver: one miss and one hit, as in a sequential
    // run — the cache statistics are a printed, pinned figure.
    let (net, reg, _, com_set) = signed_hierarchy(true);
    let b_keys = ZoneKeys::derive(&name("b.com"), 0);
    com_set.with_zone(&name("com"), |com| com.add(b_keys.ds_record(300))).unwrap();
    let b_set = ZoneSet::new();
    let mut b_zone = Zone::new(name("b.com"));
    b_zone.enable_signing(b_keys, 0, u32::MAX - 1);
    b_zone.add(Record::new(
        name("b.com"),
        300,
        RData::Https(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![b"h3".to_vec()])])),
    ));
    b_set.insert(b_zone);
    net.bind_datagram(ip("173.245.59.1"), 53, Arc::new(AuthoritativeServer::new(b_set)));
    reg.delegate(
        &name("b.com"),
        vec![NsEndpoint { name: name("ns2.cloudflare.com"), ip: ip("173.245.59.1") }],
    );
    let children = [name("a.com"), name("b.com")];
    let comparable = |r: &RecursiveResolver| CacheStats {
        lock_contended: 0, // scheduling-dependent by definition
        ..r.cache().stats()
    };

    let sequential = resolver_of(&net, &reg);
    for child in &children {
        let res = sequential.resolve(child, RecordType::Https).unwrap();
        assert_eq!(res.validation, Some(ValidationState::Secure), "{child}");
    }

    let gate = Arc::new(ComDnskeyGate {
        com: AuthoritativeServer::new(com_set),
        arrived: Mutex::new(0),
        second: Condvar::new(),
    });
    net.bind_datagram(ip("192.5.6.30"), 53, gate.clone());
    let shared = resolver_of(&net, &reg);
    std::thread::scope(|scope| {
        for child in &children {
            let shared = &shared;
            scope.spawn(move || {
                let res = shared.resolve(child, RecordType::Https).unwrap();
                assert_eq!(res.validation, Some(ValidationState::Secure), "{child}");
            });
        }
    });
    assert_eq!(
        comparable(&shared),
        comparable(&sequential),
        "com DNSKEY queries sent: {}",
        gate.arrived.lock().unwrap()
    );
}

/// A resolution step looks `(name, type)` and then `(name, CNAME)` up
/// under one shard lock, and counts like the two `get`s it replaced:
/// after a cold resolve through a CNAME, a resolve through the cached
/// CNAME, one after both entries expired and a CNAME query, every
/// `CacheStats` field but `lock_acquisitions` reads what the two-probe
/// code read (its lock counts were 14, 22, 36 and 42).
#[test]
fn one_lock_per_cache_step_counts_like_two_lookups() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let stats = |hits, miss_absent, miss_expired, insertions, lock_acquisitions| CacheStats {
        hits,
        miss_absent,
        miss_expired,
        insertions,
        lock_acquisitions,
        ..CacheStats::default()
    };
    let www = name("www.a.com");

    let res = r.resolve(&www, RecordType::Https).unwrap();
    assert_eq!((res.chain.len(), res.from_cache), (1, false));
    assert_eq!(r.cache().stats(), stats(2, 6, 0, 6, 13));

    let res = r.resolve(&www, RecordType::Https).unwrap();
    assert_eq!((res.chain.len(), res.from_cache), (1, true));
    assert_eq!(r.cache().stats(), stats(9, 7, 0, 6, 20));

    net.clock().advance(301);
    let res = r.resolve(&www, RecordType::A).unwrap();
    assert_eq!((res.chain.len(), res.from_cache), (1, false));
    assert_eq!(r.cache().stats(), stats(11, 8, 5, 12, 33));

    let res = r.resolve(&www, RecordType::Cname).unwrap();
    assert_eq!((res.chain.len(), res.from_cache), (0, true));
    assert_eq!(r.cache().stats(), stats(17, 8, 5, 12, 39));
}
