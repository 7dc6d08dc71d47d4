//! Cross-crate end-to-end paths: browser → resolver → authoritative
//! server → TLS/ECH handshake, over the full simulated stack.

use httpsrr::authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use httpsrr::browser::{Browser, BrowserProfile, NavEvent, Outcome, UrlScheme};
use httpsrr::dns_wire::svcb::key;
use httpsrr::dns_wire::{DnsName, RData, Record, RecordType, SvcParam, SvcbRdata};
use httpsrr::ecosystem::{EcosystemConfig, World};
use httpsrr::netsim::{DatagramService, NetError, Network, SimClock, Timestamp};
use httpsrr::resolver::{RecursiveResolver, ResolverConfig};
use httpsrr::tlsech::{
    ClientHello, EchConfigList, EchExtension, EchKeyManager, EchServerState, InnerHello,
    ServerResponse, WebServer, WebServerConfig,
};
use std::net::IpAddr;
use std::sync::{Arc, Weak};

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

struct Stack {
    network: Network,
    zones: ZoneSet,
    web: Arc<WebServer>,
    /// The public resolver, which the network binds only weakly.
    _resolver: Arc<RecursiveResolver>,
}

/// A resolver bound at an address without being owned by the binding:
/// it owns the network, so an owning binding would be a cycle that
/// keeps the whole stack alive after the test drops it.
struct BoundResolver(Weak<RecursiveResolver>);

impl DatagramService for BoundResolver {
    fn handle(&self, request: &[u8], now: Timestamp, reply: &mut Vec<u8>) -> Result<(), NetError> {
        self.0.upgrade().ok_or(NetError::Reset)?.handle(request, now, reply)
    }
}

impl Stack {
    /// A browser asking the stack's public resolver at 9.9.9.9.
    fn browser(&self, profile: BrowserProfile) -> Browser {
        Browser::new(profile, self.network.clone(), ip("9.9.9.9"))
    }
}

/// Build a full stack for `shop.example` with an HTTPS record, a web
/// server (ECH-capable cover name), and a public resolver at 9.9.9.9.
fn full_stack(with_ech: bool) -> Stack {
    let network = Network::new(SimClock::new());
    let registry = DelegationRegistry::new();
    let apex = name("shop.example");
    let cover = name("cover.shop.example");

    let web = Arc::new(WebServer::new(
        network.clone(),
        WebServerConfig {
            cert_names: vec![apex.clone(), cover.clone()],
            alpn: vec!["h2".into(), "http/1.1".into()].into(),
        },
    ));
    let ech_param = if with_ech {
        web.enable_ech(EchServerState::new(EchKeyManager::new(cover.clone(), "e2e", 1)));
        Some(SvcParam::Ech(web.current_ech_configs().unwrap()))
    } else {
        None
    };
    network.bind_stream(ip("198.51.100.7"), 443, web.clone());

    let mut params = vec![SvcParam::Alpn(vec![b"h2".to_vec()])];
    params.extend(ech_param);
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(apex.clone(), 60, RData::A("198.51.100.7".parse().unwrap())));
    zone.add(Record::new(cover.clone(), 60, RData::A("198.51.100.7".parse().unwrap())));
    zone.add(Record::new(apex.clone(), 60, RData::Https(SvcbRdata::service_self(params))));
    let zones = ZoneSet::new();
    zones.insert(zone);
    network.bind_datagram(ip("10.1.1.1"), 53, Arc::new(AuthoritativeServer::new(zones.clone())));
    registry.delegate(&apex, &[NsEndpoint { name: name("ns1.shop.example"), ip: ip("10.1.1.1") }]);

    let resolver = Arc::new(RecursiveResolver::new(
        network.clone(),
        registry,
        ResolverConfig { validate: false, ..Default::default() },
    ));
    network.bind_datagram(ip("9.9.9.9"), 53, Arc::new(BoundResolver(Arc::downgrade(&resolver))));
    Stack { network, zones, web, _resolver: resolver }
}

#[test]
fn browser_full_path_plain() {
    let stack = full_stack(false);
    let browser = stack.browser(BrowserProfile::firefox());
    let nav = browser.navigate("shop.example", UrlScheme::Bare);
    assert!(nav.queried_https_rr());
    match nav.outcome {
        Outcome::HttpsOk { alpn, used_ech, port, .. } => {
            assert_eq!(alpn.as_deref(), Some("h2"));
            assert!(!used_ech);
            assert_eq!(port, 443);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn browser_full_path_with_ech() {
    let stack = full_stack(true);
    for profile in [BrowserProfile::chrome(), BrowserProfile::firefox()] {
        let name = profile.name;
        let browser = stack.browser(profile);
        let nav = browser.navigate("shop.example", UrlScheme::Https);
        match &nav.outcome {
            Outcome::HttpsOk { used_ech, .. } => {
                assert!(used_ech, "{}: {:?}", name, nav.events)
            }
            other => panic!("{name}: {other:?}"),
        }
        // The outer SNI on the wire must be the cover name, not the real one.
        let outer_snis: Vec<String> = nav
            .events
            .iter()
            .filter_map(|e| match e {
                httpsrr::browser::NavEvent::TlsAttempt { sni, ech: true, .. } => Some(sni.clone()),
                _ => None,
            })
            .collect();
        assert!(!outer_snis.is_empty());
        assert!(outer_snis.iter().all(|s| s == "cover.shop.example"));
    }
}

#[test]
fn safari_skips_ech_but_connects() {
    let stack = full_stack(true);
    let browser = stack.browser(BrowserProfile::safari());
    let nav = browser.navigate("shop.example", UrlScheme::Https);
    assert!(!nav.events.iter().any(|e| matches!(e, NavEvent::TlsAttempt { ech: true, .. })));
    assert!(matches!(nav.outcome, Outcome::HttpsOk { used_ech: false, .. }));
}

#[test]
fn zone_update_visible_after_ttl() {
    let stack = full_stack(false);
    let browser = stack.browser(BrowserProfile::chrome());
    let apex = name("shop.example");

    let nav = browser.navigate("shop.example", UrlScheme::Https);
    assert!(matches!(nav.outcome, Outcome::HttpsOk { .. }));

    // The zone drops its HTTPS record; the resolver cache still has it.
    stack.zones.with_zone(&apex, |z| {
        z.set(apex.clone(), httpsrr::dns_wire::RecordType::Https, vec![]);
    });
    let nav = browser.navigate("shop.example", UrlScheme::Bare);
    assert!(
        matches!(nav.outcome, Outcome::HttpsOk { .. }),
        "cached record still upgrades: {:?}",
        nav.outcome
    );

    // After the 60 s TTL the negative truth propagates: the bare-URL
    // navigation downgrades to plain HTTP... but there is no HTTP server,
    // so Chrome reports a connect failure on port 80.
    stack.network.clock().advance(61);
    let nav = browser.navigate("shop.example", UrlScheme::Bare);
    assert!(
        !matches!(nav.outcome, Outcome::HttpsOk { .. }),
        "expired record must stop the upgrade: {:?}",
        nav.outcome
    );
}

#[test]
fn ech_key_rotation_recovers_via_retry_end_to_end() {
    let stack = full_stack(true);
    let browser = stack.browser(BrowserProfile::chrome());

    // Prime the resolver cache with the current ECH config.
    let nav = browser.navigate("shop.example", UrlScheme::Https);
    assert!(matches!(nav.outcome, Outcome::HttpsOk { used_ech: true, .. }));

    // Rotate the server key twice (grace depth 1 → cached config dead),
    // while DNS caches still serve the old config.
    stack.web.rotate_ech_key("e2e");
    stack.web.rotate_ech_key("e2e");
    let nav = browser.navigate("shop.example", UrlScheme::Https);
    assert!(
        nav.events.iter().any(|e| matches!(e, httpsrr::browser::NavEvent::EchRetry)),
        "expected the retry path: {:?}",
        nav.events
    );
    assert!(matches!(nav.outcome, Outcome::HttpsOk { used_ech: true, .. }));
}

/// A world's ECH-enabled web server shares its provider's key state, so
/// after the key has rotated many times it still opens a ClientHello
/// sealed to the ECHConfig its zone advertises.
#[test]
fn a_world_ech_server_opens_the_config_its_zone_advertises_after_rotations() {
    let mut world = World::build(EcosystemConfig::tiny());
    world.step_to_day(3);
    let resolver = RecursiveResolver::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig::default(),
    );
    let mut opened = 0;
    for d in world.domains.iter().filter(|d| d.ech_enabled) {
        let Ok(res) = resolver.resolve(&d.apex, RecordType::Https) else { continue };
        let advertised =
            res.records.records().find_map(|rec| Some(rec.svcb().ok()?.param(key::ECH)?.to_vec()));
        let Some(advertised) = advertised else { continue };
        let list = EchConfigList::decode(&advertised).expect("a well-formed config list");
        let config = list.preferred();
        let inner = InnerHello { sni: d.apex.key(), alpn: vec!["h2".into()] };
        let sealed = config.public_key.seal(config.public_name.key().as_bytes(), &inner.encode());
        let hello = ClientHello {
            sni: config.public_name.key(),
            alpn: vec!["h2".into()],
            ech: Some(EchExtension { config_id: config.config_id, sealed_inner: sealed }),
        };
        let reply = world.network.stream_exchange(IpAddr::V4(d.ip), 443, &hello.encode()).unwrap();
        assert!(
            matches!(
                ServerResponse::decode(&reply),
                Some(ServerResponse::Accepted { used_ech: true, .. })
            ),
            "{}: {:?}",
            d.apex,
            ServerResponse::decode(&reply)
        );
        opened += 1;
    }
    assert!(opened > 0, "the tiny world has an ECH domain");
}
