//! Failure-injection tests: lame delegations, malformed and mismatched
//! authority responses, well-formed responses with undecodable RDATA,
//! total blackouts, and strategy-dependent behaviour.

mod common;

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use common::{victim, BAD_RDATA, MISMATCHES};
use dns_wire::{DnsName, RData, Record, RecordType};
use netsim::{DatagramService, NetError, Network, SimClock, Timestamp};
use resolver::{RecursiveResolver, ResolveError, ResolverConfig, SelectionStrategy};
use std::net::IpAddr;
use std::sync::Arc;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

/// A server that returns unparseable bytes.
struct GarbageServer;
impl DatagramService for GarbageServer {
    fn handle(&self, _request: &[u8], _now: Timestamp, out: &mut Vec<u8>) -> Result<(), NetError> {
        *out = vec![0xFF; 9];
        Ok(())
    }
}

/// A server that serves a zone it is not delegated for (lame: REFUSED).
fn lame_server() -> Arc<AuthoritativeServer> {
    let zones = ZoneSet::new();
    let mut z = Zone::new(name("unrelated.example"));
    z.add(Record::new(name("unrelated.example"), 60, RData::A("9.9.9.9".parse().unwrap())));
    zones.insert(z);
    Arc::new(AuthoritativeServer::new(zones))
}

fn good_server() -> Arc<AuthoritativeServer> {
    let zones = ZoneSet::new();
    let mut z = Zone::new(name("a.com"));
    z.add(Record::new(name("a.com"), 60, RData::A("1.2.3.4".parse().unwrap())));
    zones.insert(z);
    Arc::new(AuthoritativeServer::new(zones))
}

fn world_with(
    first: Arc<dyn DatagramService>,
    second: Option<Arc<dyn DatagramService>>,
) -> (Network, DelegationRegistry) {
    let net = Network::new(SimClock::new());
    let reg = DelegationRegistry::new();
    net.bind_datagram(ip("10.0.0.1"), 53, first);
    let mut eps = vec![NsEndpoint { name: name("ns1.x.net"), ip: ip("10.0.0.1") }];
    if let Some(svc) = second {
        net.bind_datagram(ip("10.0.0.2"), 53, svc);
        eps.push(NsEndpoint { name: name("ns2.x.net"), ip: ip("10.0.0.2") });
    }
    reg.delegate(&name("a.com"), &eps);
    (net, reg)
}

fn resolver_first(net: &Network, reg: &DelegationRegistry) -> RecursiveResolver {
    RecursiveResolver::new(
        net.clone(),
        reg.clone(),
        ResolverConfig {
            strategy: SelectionStrategy::First,
            validate: false,
            ..Default::default()
        },
    )
}

#[test]
fn lame_first_server_fails_over() {
    let (net, reg) = world_with(lame_server(), Some(good_server()));
    let r = resolver_first(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::A).unwrap();
    assert_eq!(res.records.len(), 1);
}

#[test]
fn all_lame_is_an_error() {
    let (net, reg) = world_with(lame_server(), Some(lame_server()));
    let r = resolver_first(&net, &reg);
    assert!(matches!(r.resolve(&name("a.com"), RecordType::A), Err(ResolveError::Lame(_))));
}

#[test]
fn garbage_response_fails_over_to_good_server() {
    let (net, reg) = world_with(Arc::new(GarbageServer), Some(good_server()));
    let r = resolver_first(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::A).unwrap();
    assert_eq!(res.records.len(), 1);
}

#[test]
fn all_garbage_is_malformed_error() {
    let (net, reg) = world_with(Arc::new(GarbageServer), Some(Arc::new(GarbageServer)));
    let r = resolver_first(&net, &reg);
    assert!(matches!(r.resolve(&name("a.com"), RecordType::A), Err(ResolveError::Malformed)));
}

#[test]
fn a_reply_that_does_not_answer_the_query_is_skipped_and_never_cached() {
    // RFC 5452 §4: a response must match the query's id and question.
    for mismatch in MISMATCHES {
        let (net, reg) = world_with(Arc::new(mismatch), Some(good_server()));
        let r = resolver_first(&net, &reg);
        let res = r.resolve(&name("a.com"), RecordType::A).unwrap();
        assert_eq!(res.records.len(), 1, "{mismatch:?}: the honest second server answers");
        assert_eq!(
            res.records.records().next().unwrap().rdata().unwrap(),
            RData::A("1.2.3.4".parse().unwrap()),
            "{mismatch:?}"
        );
        assert!(!res.from_cache);
        let now = net.clock().now();
        assert!(r.cache().get(&victim(), RecordType::A, now).is_none(), "{mismatch:?} cached");
        assert_eq!(r.cache().len(), 1, "{mismatch:?}: only the honest answer is cached");
    }
}

#[test]
fn a_reply_with_undecodable_rdata_fails_over_and_caches_nothing_from_it() {
    for bad in BAD_RDATA {
        let (net, reg) = world_with(Arc::new(bad), Some(good_server()));
        let r = resolver_first(&net, &reg);
        let res = r.resolve(&name("a.com"), RecordType::A).unwrap();
        assert_eq!(res.records.len(), 1, "{bad:?}: the honest second server answers");
        assert!(!res.from_cache);
        let now = net.clock().now();
        assert!(r.cache().get(&victim(), RecordType::A, now).is_none(), "{bad:?} cached");
        assert_eq!(r.cache().len(), 1, "{bad:?}: only the honest answer is cached");
    }
}

#[test]
fn a_lone_reply_with_undecodable_rdata_is_malformed() {
    for bad in BAD_RDATA {
        let (net, reg) = world_with(Arc::new(bad), None);
        let r = resolver_first(&net, &reg);
        let got = r.resolve(&name("a.com"), RecordType::A);
        assert!(matches!(got, Err(ResolveError::Malformed)), "{bad:?}: {got:?}");
        assert!(r.cache().is_empty(), "{bad:?}");
    }
}

#[test]
fn all_mismatched_replies_is_malformed_error() {
    for mismatch in MISMATCHES {
        let (net, reg) = world_with(Arc::new(mismatch), Some(Arc::new(mismatch)));
        let r = resolver_first(&net, &reg);
        assert!(
            matches!(r.resolve(&name("a.com"), RecordType::A), Err(ResolveError::Malformed)),
            "{mismatch:?}"
        );
        assert!(r.cache().is_empty(), "{mismatch:?} cached");
    }
}

#[test]
fn total_blackout_is_network_error() {
    let (net, reg) = world_with(good_server(), None);
    net.set_unreachable(ip("10.0.0.1"));
    let r = resolver_first(&net, &reg);
    assert!(matches!(
        r.resolve(&name("a.com"), RecordType::A),
        Err(ResolveError::Network(NetError::Unreachable(_)))
    ));
    // Reachability restored: resolution works again (nothing was
    // negatively cached from a network error).
    net.set_reachable(ip("10.0.0.1"));
    assert!(r.resolve(&name("a.com"), RecordType::A).is_ok());
}

#[test]
fn blackout_after_cache_population_serves_from_cache() {
    let (net, reg) = world_with(good_server(), None);
    let r = resolver_first(&net, &reg);
    let _ = r.resolve(&name("a.com"), RecordType::A).unwrap();
    net.set_unreachable(ip("10.0.0.1"));
    // Warm cache masks the outage until the TTL expires.
    let res = r.resolve(&name("a.com"), RecordType::A).unwrap();
    assert!(res.from_cache);
    net.clock().advance(61);
    assert!(r.resolve(&name("a.com"), RecordType::A).is_err());
}

#[test]
fn strategies_produce_different_failure_exposure() {
    // First endpoint dead, second fine: `First` pays a failover on every
    // cold resolve; round-robin alternates.
    let (net, reg) = world_with(good_server(), Some(good_server()));
    net.set_unreachable(ip("10.0.0.1"));
    for strategy in
        [SelectionStrategy::First, SelectionStrategy::RoundRobin, SelectionStrategy::Random]
    {
        let r = RecursiveResolver::new(
            net.clone(),
            reg.clone(),
            ResolverConfig { strategy, validate: false, seed: 3, ..Default::default() },
        );
        let res = r.resolve(&name("a.com"), RecordType::A).unwrap();
        assert_eq!(res.records.len(), 1, "{strategy:?} must succeed via failover");
    }
}
