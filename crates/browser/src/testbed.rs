//! The client-side testbed (the paper's Figure 6): a controlled domain
//! on our own authoritative server, a public recursive resolver, and web
//! servers with configurable HTTPS records — plus runners for every §5
//! experiment, producing the Table 6 / Table 7 support matrices.

use crate::navigate::{Browser, FailureReason, NavEvent, Navigation, Outcome, UrlScheme};
use crate::profile::BrowserProfile;
use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use dns_wire::{DnsName, RData, Record, RecordType, SvcParam, SvcbRdata};
use netsim::{DatagramService, NetError, Network, SimClock, Timestamp};
use resolver::{RecursiveResolver, ResolverConfig};
use std::net::{AddrParseError, IpAddr, Ipv4Addr};
use std::str::FromStr;
use std::sync::{Arc, Weak};
use tlsech::{EchKeyManager, EchServerState, HttpServer, WebServer, WebServerConfig};

/// The testbed's resolver as bound at its address. The binding holds it
/// weakly: the resolver owns the network it is bound into, so an owning
/// binding would keep the network, and with it every server and cache
/// of the testbed, alive after the testbed is dropped.
struct BoundResolver(Weak<RecursiveResolver>);

impl DatagramService for BoundResolver {
    fn handle(&self, request: &[u8], now: Timestamp, reply: &mut Vec<u8>) -> Result<(), NetError> {
        self.0.upgrade().ok_or(NetError::Reset)?.handle(request, now, reply)
    }
}

/// Support level for one matrix cell, mirroring the paper's notation:
/// full circle / half circle / empty circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// The feature is fetched *and* used correctly (●).
    Full,
    /// The record is fetched but an essential function is missing (◐).
    Partial,
    /// No support (○).
    None,
}

impl std::fmt::Display for Support {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Support::Full => write!(f, "full"),
            Support::Partial => write!(f, "half"),
            Support::None => write!(f, "none"),
        }
    }
}

/// Addresses used by the testbed.
pub mod addr {
    /// Authoritative NS for the test domain.
    pub const NS: &str = "10.0.0.53";
    /// The public recursive resolver (the testbed's 8.8.8.8).
    pub const RESOLVER: &str = "8.8.8.8";
    /// Primary web server (the A record of the test domain).
    pub const WEB_PRIMARY: &str = "203.0.113.10";
    /// Alternative endpoint (TargetName / AliasMode target).
    pub const WEB_ALT: &str = "203.0.113.20";
    /// Address published in ipv4hint when testing hint preference.
    pub const WEB_HINT: &str = "203.0.113.30";
    /// Split-mode client-facing server.
    pub const WEB_FRONT: &str = "198.51.100.40";
}

/// The testbed world.
pub struct Testbed {
    /// The simulated network.
    pub network: Network,
    /// Delegation registry.
    pub registry: DelegationRegistry,
    /// Our authoritative zones.
    pub zones: ZoneSet,
    /// The recursive resolver (held to flush caches between rounds).
    pub resolver: Arc<RecursiveResolver>,
    /// The controlled test domain (`test-domain.com`).
    pub domain: DnsName,
}

fn ip<A: FromStr<Err = AddrParseError>>(s: &str) -> A {
    s.parse().expect("valid test address")
}

fn name(s: &str) -> DnsName {
    DnsName::parse(s).expect("valid test name")
}

impl Testbed {
    /// Build the Figure 6 environment: authoritative server + resolver.
    pub fn new() -> Testbed {
        let clock = SimClock::new();
        clock.advance(1_000);
        let network = Network::new(clock);
        let registry = DelegationRegistry::new();
        let domain = name("test-domain.com");

        let zones = ZoneSet::new();
        zones.insert(Zone::new(domain.clone()));
        let server = Arc::new(AuthoritativeServer::new(zones.clone()));
        network.bind_datagram(ip(addr::NS), 53, server);
        registry.delegate(
            &domain,
            &[NsEndpoint { name: name("ns1.test-domain.com"), ip: ip(addr::NS) }],
        );

        let resolver = Arc::new(RecursiveResolver::new(
            network.clone(),
            registry.clone(),
            ResolverConfig { validate: false, ..Default::default() },
        ));
        let service = Arc::new(BoundResolver(Arc::downgrade(&resolver)));
        network.bind_datagram(ip(addr::RESOLVER), 53, service);

        Testbed { network, registry, zones, resolver, domain }
    }

    /// A browser asking the testbed resolver at its address.
    pub fn browser(&self, profile: BrowserProfile) -> Browser {
        Browser::new(profile, self.network.clone(), ip(addr::RESOLVER))
    }

    /// Load the test domain over `scheme` in a fresh `profile` browser.
    fn load(&self, profile: &BrowserProfile, scheme: UrlScheme) -> Navigation {
        self.browser(profile.clone()).navigate(&self.domain.key(), scheme)
    }

    /// Reset DNS state between experiment rounds (the paper clears local
    /// caches and waits out the 60 s TTL; we flush directly).
    pub fn flush_dns(&self) {
        self.resolver.cache().flush();
    }

    /// Replace the test domain's A and HTTPS RRsets.
    pub fn set_domain_records(&self, a: Vec<Ipv4Addr>, https: Option<SvcbRdata>) {
        self.set_a(&self.domain, &a);
        self.zones.with_zone(&self.domain, |z| {
            let https_records = https
                .map(|rd| vec![Record::new(self.domain.clone(), 60, RData::Https(rd))])
                .unwrap_or_default();
            z.set(self.domain.clone(), RecordType::Https, https_records);
        });
        self.flush_dns();
    }

    /// Replace the A RRset of an arbitrary in-zone name.
    pub fn set_a(&self, owner: &DnsName, addrs: &[Ipv4Addr]) {
        self.zones.with_zone(&self.domain, |z| {
            let records = addrs.iter().map(|&a| Record::new(owner.clone(), 60, RData::A(a)));
            z.set(owner.clone(), RecordType::A, records.collect());
        });
    }

    /// Bind a fresh web server at `ip:port`.
    pub fn web_server(
        &self,
        at: &str,
        port: u16,
        cert_names: Vec<DnsName>,
        alpn: Vec<&str>,
    ) -> Arc<WebServer> {
        let server = Arc::new(WebServer::new(
            self.network.clone(),
            WebServerConfig { cert_names, alpn: alpn.into_iter().map(String::from).collect() },
        ));
        self.network.bind_stream(ip(at), port, server.clone());
        server
    }

    /// Bind a fresh `h2`/`http/1.1` web server for the test domain at
    /// `at:port`.
    fn serve_domain(&self, at: &str, port: u16) -> Arc<WebServer> {
        self.web_server(at, port, vec![self.domain.clone()], vec!["h2", "http/1.1"])
    }

    /// Bind a plain HTTP (port 80) endpoint at `at`.
    pub fn http_server(&self, at: &str) {
        self.network.bind_stream(ip(at), 80, Arc::new(HttpServer { host: self.domain.key() }));
    }

    /// Default ServiceMode record `1 . alpn=h2`.
    pub fn basic_service_record(&self) -> SvcbRdata {
        SvcbRdata::service_self(vec![SvcParam::Alpn(vec![b"h2".to_vec()])])
    }
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed::new()
    }
}

/// Results of the §5.1 utilization experiment for one browser.
#[derive(Debug, Clone)]
pub struct UtilizationResult {
    /// Support per URL form: bare, `http://`, `https://`.
    pub bare: Support,
    /// `http://` form.
    pub http: Support,
    /// `https://` form.
    pub https: Support,
}

/// One full Table 6 row set for a browser.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Browser display name.
    pub browser: &'static str,
    /// §5.1 utilization per URL form.
    pub utilization: UtilizationResult,
    /// AliasMode TargetName following.
    pub alias_target: Support,
    /// ServiceMode TargetName following.
    pub service_target: Support,
    /// `port` parameter usage.
    pub port: Support,
    /// `alpn` parameter usage.
    pub alpn: Support,
    /// IP hints usage.
    pub ip_hints: Support,
}

/// One full Table 7 row set for a browser.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Browser display name.
    pub browser: &'static str,
    /// Shared-mode ECH support.
    pub shared_mode: Support,
    /// Fallback on unilateral (DNS-only) ECH.
    pub unilateral: Support,
    /// Handling of malformed ECH configs.
    pub malformed: Support,
    /// Recovery from mismatched (rotated) keys via retry.
    pub mismatched_key: Support,
    /// Split-mode support.
    pub split_mode: Support,
}

/// Run the §5.1 utilization experiment.
pub fn run_utilization(tb: &Testbed, profile: &BrowserProfile) -> UtilizationResult {
    tb.set_domain_records(vec![ip(addr::WEB_PRIMARY)], Some(tb.basic_service_record()));
    tb.serve_domain(addr::WEB_PRIMARY, 443);
    tb.http_server(addr::WEB_PRIMARY);

    let judge = |scheme: UrlScheme| -> Support {
        tb.flush_dns();
        let nav = tb.load(profile, scheme);
        match (&nav.outcome, nav.queried_https_rr()) {
            (Outcome::HttpsOk { .. }, true) => Support::Full,
            (_, true) => Support::Partial, // fetched the record, connected via HTTP
            (Outcome::HttpsOk { .. }, false) => Support::Partial,
            _ => Support::None,
        }
    };
    UtilizationResult {
        bare: judge(UrlScheme::Bare),
        http: judge(UrlScheme::Http),
        https: judge(UrlScheme::Https),
    }
}

/// §5.2.1 AliasMode: `HTTPS 0 pool.test-domain.com.`, A only at the pool.
pub fn run_alias_mode(tb: &Testbed, profile: &BrowserProfile) -> Support {
    let pool = name("pool.test-domain.com");
    tb.set_domain_records(vec![], Some(SvcbRdata::alias(pool.clone())));
    tb.set_a(&pool, &[ip(addr::WEB_ALT)]);
    tb.serve_domain(addr::WEB_ALT, 443);

    let nav = tb.load(profile, UrlScheme::Https);
    match nav.outcome {
        Outcome::HttpsOk { ip: got, .. } if got == ip::<IpAddr>(addr::WEB_ALT) => Support::Full,
        _ => Support::None,
    }
}

/// §5.2.2 ServiceMode TargetName: service lives only at the target.
pub fn run_service_target(tb: &Testbed, profile: &BrowserProfile) -> Support {
    let pool = name("pool.test-domain.com");
    tb.set_domain_records(
        vec![ip(addr::WEB_PRIMARY)],
        Some(SvcbRdata {
            priority: 1,
            target: pool.clone(),
            params: vec![SvcParam::Alpn(vec![b"h2".to_vec()])],
        }),
    );
    tb.set_a(&pool, &[ip(addr::WEB_ALT)]);
    // The real service is only at the alt address; nothing at primary:443.
    tb.network.unbind_stream(ip(addr::WEB_PRIMARY), 443);
    tb.serve_domain(addr::WEB_ALT, 443);

    let nav = tb.load(profile, UrlScheme::Https);
    match nav.outcome {
        Outcome::HttpsOk { ip: got, .. } if got == ip::<IpAddr>(addr::WEB_ALT) => Support::Full,
        _ => Support::None,
    }
}

/// §5.2.2(1) `port`: service on 8443 only.
pub fn run_port_usage(tb: &Testbed, profile: &BrowserProfile) -> Support {
    tb.set_domain_records(
        vec![ip(addr::WEB_PRIMARY)],
        Some(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec()]),
            SvcParam::Port(8443),
        ])),
    );
    tb.network.unbind_stream(ip(addr::WEB_PRIMARY), 443);
    tb.serve_domain(addr::WEB_PRIMARY, 8443);

    let nav = tb.load(profile, UrlScheme::Https);
    match nav.outcome {
        Outcome::HttpsOk { port: 8443, .. } => Support::Full,
        _ => Support::None,
    }
}

/// §5.2.2(1) port failover: advertised 8443, service only on 443.
/// Full = connects (via fallback or by never leaving 443);
/// None = hard failure.
pub fn run_port_failover(tb: &Testbed, profile: &BrowserProfile) -> (Support, bool) {
    tb.set_domain_records(
        vec![ip(addr::WEB_PRIMARY)],
        Some(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec()]),
            SvcParam::Port(8443),
        ])),
    );
    tb.network.unbind_stream(ip(addr::WEB_PRIMARY), 8443);
    tb.serve_domain(addr::WEB_PRIMARY, 443);

    let nav = tb.load(profile, UrlScheme::Https);
    let fell_back =
        nav.events.iter().any(|e| matches!(e, NavEvent::Fallback(msg) if msg.contains("port")));
    match nav.outcome {
        Outcome::HttpsOk { .. } => (Support::Full, fell_back),
        _ => (Support::None, fell_back),
    }
}

/// §5.2.2(2) IP hints: hint and A point at different, both-alive servers;
/// returns which address was contacted first.
pub fn run_ip_hint_preference(tb: &Testbed, profile: &BrowserProfile) -> (Support, IpAddr) {
    tb.set_domain_records(
        vec![ip(addr::WEB_PRIMARY)],
        Some(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec()]),
            SvcParam::Ipv4Hint(vec![addr::WEB_HINT.parse().expect("v4")]),
        ])),
    );
    tb.serve_domain(addr::WEB_PRIMARY, 443);
    tb.serve_domain(addr::WEB_HINT, 443);

    let nav = tb.load(profile, UrlScheme::Https);
    let first = nav.tls_ips().first().copied().unwrap_or(ip("0.0.0.0"));
    let used_hint = first == ip::<IpAddr>(addr::WEB_HINT);
    match nav.outcome {
        Outcome::HttpsOk { .. } if used_hint => (Support::Full, first),
        Outcome::HttpsOk { .. } => (Support::None, first), // connected, hints unused
        _ => (Support::None, first),
    }
}

/// §5.2.2(2) IP-hint failover: only one of hint/A is reachable. Returns
/// (support when only hint works, support when only A works).
pub fn run_ip_hint_failover(tb: &Testbed, profile: &BrowserProfile) -> (Support, Support) {
    let record = SvcbRdata::service_self(vec![
        SvcParam::Alpn(vec![b"h2".to_vec()]),
        SvcParam::Ipv4Hint(vec![addr::WEB_HINT.parse().expect("v4")]),
    ]);

    // Case A: only the hint address serves.
    tb.set_domain_records(vec![ip(addr::WEB_PRIMARY)], Some(record.clone()));
    tb.network.unbind_stream(ip(addr::WEB_PRIMARY), 443);
    tb.network.unbind_stream(ip(addr::WEB_HINT), 443);
    tb.serve_domain(addr::WEB_HINT, 443);
    let nav = tb.load(profile, UrlScheme::Https);
    let hint_only = match nav.outcome {
        Outcome::HttpsOk { .. } => Support::Full,
        _ => Support::None,
    };

    // Case B: only the A-record address serves.
    tb.network.unbind_stream(ip(addr::WEB_HINT), 443);
    tb.serve_domain(addr::WEB_PRIMARY, 443);
    tb.flush_dns();
    let nav = tb.load(profile, UrlScheme::Https);
    let a_only = match nav.outcome {
        Outcome::HttpsOk { .. } => Support::Full,
        _ => Support::None,
    };
    (hint_only, a_only)
}

/// §5.2.2(3) alpn: server exclusively speaks `proto` and the record says
/// so; success means the browser honoured the advertisement.
pub fn run_alpn(tb: &Testbed, profile: &BrowserProfile, proto: &str) -> Support {
    tb.set_domain_records(
        vec![ip(addr::WEB_PRIMARY)],
        Some(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![proto.as_bytes().to_vec()])])),
    );
    tb.network.unbind_stream(ip(addr::WEB_PRIMARY), 443);
    tb.web_server(addr::WEB_PRIMARY, 443, vec![tb.domain.clone()], vec![proto]);

    let nav = tb.load(profile, UrlScheme::Https);
    match nav.outcome {
        Outcome::HttpsOk { alpn: Some(p), .. } if p == proto => Support::Full,
        _ => Support::None,
    }
}

/// Configure the shared-mode ECH world; returns the front server.
fn setup_shared_ech(tb: &Testbed) -> Arc<WebServer> {
    let cover = name("cover.test-domain.com");
    let server = tb.web_server(
        addr::WEB_PRIMARY,
        443,
        vec![tb.domain.clone(), cover.clone()],
        vec!["h2", "http/1.1"],
    );
    server.enable_ech(EchServerState::new(EchKeyManager::new(cover.clone(), "testbed-shared", 1)));
    let configs = server.current_ech_configs().expect("just enabled");
    tb.set_domain_records(
        vec![ip(addr::WEB_PRIMARY)],
        Some(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec()]),
            SvcParam::Ech(configs),
        ])),
    );
    tb.set_a(&cover, &[ip(addr::WEB_PRIMARY)]);
    server
}

/// §5.3.1 shared-mode ECH support.
pub fn run_ech_shared(tb: &Testbed, profile: &BrowserProfile) -> Support {
    let _server = setup_shared_ech(tb);
    let nav = tb.load(profile, UrlScheme::Https);
    match nav.outcome {
        Outcome::HttpsOk { used_ech: true, .. } => Support::Full,
        Outcome::HttpsOk { used_ech: false, .. } => Support::None, // connected without ECH
        _ => Support::None,
    }
}

/// §5.3.1(1) unilateral ECH: the server dropped ECH, DNS still advertises.
pub fn run_ech_unilateral(tb: &Testbed, profile: &BrowserProfile) -> Support {
    let server = setup_shared_ech(tb);
    server.disable_ech();
    let nav = tb.load(profile, UrlScheme::Https);
    match nav.outcome {
        // Success = graceful fallback to standard TLS.
        Outcome::HttpsOk { used_ech: false, .. } => Support::Full,
        _ => Support::None,
    }
}

/// §5.3.1(2) malformed ECH configuration in DNS.
pub fn run_ech_malformed(tb: &Testbed, profile: &BrowserProfile) -> Support {
    let _server = setup_shared_ech(tb);
    // Overwrite the record with garbage ECH bytes (the copy-paste typo).
    tb.set_domain_records(
        vec![ip(addr::WEB_PRIMARY)],
        Some(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec()]),
            SvcParam::Ech(b"corrupted ech config bytes".to_vec()),
        ])),
    );
    let nav = tb.load(profile, UrlScheme::Https);
    match nav.outcome {
        Outcome::HttpsOk { .. } => Support::Full, // ignored the bad config
        Outcome::Failed(FailureReason::MalformedEch) => Support::None, // hard fail
        _ => Support::None,
    }
}

/// §5.3.1(3) key mismatch: DNS carries a stale key; the server offers
/// retry configs. Returns (support, whether the retry path was used).
pub fn run_ech_mismatch(tb: &Testbed, profile: &BrowserProfile) -> (Support, bool) {
    let server = setup_shared_ech(tb);
    // Rotate with no grace: the advertised key no longer decrypts.
    {
        // Replace state with a no-grace manager, then rotate.
        server.enable_ech(EchServerState::new(EchKeyManager::new(
            name("cover.test-domain.com"),
            "testbed-shared",
            0,
        )));
        // DNS still carries the config from setup_shared_ech (same seed,
        // rotation 0). Rotate the server away from it.
        server.rotate_ech_key("testbed-shared");
    }
    let nav = tb.load(profile, UrlScheme::Https);
    let retried = nav.events.iter().any(|e| matches!(e, NavEvent::EchRetry));
    match nav.outcome {
        Outcome::HttpsOk { used_ech: true, .. } => (Support::Full, retried),
        _ => (Support::None, retried),
    }
}

/// §5.3.2 split mode: client-facing server on a different apex and IP.
pub fn run_ech_split(tb: &Testbed, profile: &BrowserProfile) -> (Support, Option<FailureReason>) {
    let public = name("public-ech.net");

    // The public name needs its own zone + delegation.
    let front_zones = ZoneSet::new();
    let mut front_zone = Zone::new(public.clone());
    front_zone.add(Record::new(public.clone(), 60, RData::A(addr::WEB_FRONT.parse().expect("v4"))));
    front_zones.insert(front_zone);
    tb.network.bind_datagram(ip("10.0.0.54"), 53, Arc::new(AuthoritativeServer::new(front_zones)));
    tb.registry
        .delegate(&public, &[NsEndpoint { name: name("ns1.public-ech.net"), ip: ip("10.0.0.54") }]);

    // Back-end: the test domain's server, no ECH.
    tb.network.unbind_stream(ip(addr::WEB_PRIMARY), 443);
    tb.serve_domain(addr::WEB_PRIMARY, 443);

    // Client-facing server with ECH for the public name, forwarding to
    // the back end.
    let front = tb.web_server(addr::WEB_FRONT, 443, vec![public.clone()], vec!["h2", "http/1.1"]);
    front.enable_ech(EchServerState::new(EchKeyManager::new(public.clone(), "testbed-split", 1)));
    front.add_forward(&tb.domain.key(), (ip(addr::WEB_PRIMARY), 443));
    let configs = front.current_ech_configs().expect("enabled");

    tb.set_domain_records(
        vec![ip(addr::WEB_PRIMARY)],
        Some(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec()]),
            SvcParam::Ech(configs),
        ])),
    );

    let nav = tb.load(profile, UrlScheme::Https);
    match nav.outcome {
        Outcome::HttpsOk { used_ech: true, .. } => (Support::Full, None),
        Outcome::Failed(reason) => (Support::None, Some(reason)),
        _ => (Support::None, None),
    }
}

/// Run the full Table 6 battery for one browser.
pub fn table6_row(profile: &BrowserProfile) -> Table6Row {
    let alpn_h2 = run_alpn(&Testbed::new(), profile, "h2");
    let alpn_h3 = run_alpn(&Testbed::new(), profile, "h3");
    Table6Row {
        browser: profile.name,
        utilization: run_utilization(&Testbed::new(), profile),
        alias_target: run_alias_mode(&Testbed::new(), profile),
        service_target: run_service_target(&Testbed::new(), profile),
        port: run_port_usage(&Testbed::new(), profile),
        alpn: if alpn_h2 == Support::Full && alpn_h3 == Support::Full {
            Support::Full
        } else {
            Support::None
        },
        ip_hints: run_ip_hint_preference(&Testbed::new(), profile).0,
    }
}

/// Run the full Table 7 battery for one browser.
pub fn table7_row(profile: &BrowserProfile) -> Table7Row {
    Table7Row {
        browser: profile.name,
        shared_mode: run_ech_shared(&Testbed::new(), profile),
        unilateral: run_ech_unilateral(&Testbed::new(), profile),
        malformed: run_ech_malformed(&Testbed::new(), profile),
        mismatched_key: run_ech_mismatch(&Testbed::new(), profile).0,
        split_mode: run_ech_split(&Testbed::new(), profile).0,
    }
}
