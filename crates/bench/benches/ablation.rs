//! Ablations of four design choices:
//!
//! 1. resolver NS-selection strategy → HTTPS visibility for mixed-NS
//!    domains (the §4.2.3 mechanism),
//! 2. cache TTL clamping → staleness window after zone changes (Fig 12's
//!    mechanism),
//! 3. ECH rotation grace window → stale-key recovery vs hard failure
//!    (§4.4.2's retry requirement),
//! 4. browser failover policy → reachability under mismatched IP hints
//!    (§4.3.5 × §5.2).

use criterion::{criterion_group, criterion_main, Criterion};
use httpsrr::authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use httpsrr::browser::{BrowserProfile, Outcome, Testbed, UrlScheme};
use httpsrr::dns_wire::{DnsName, RData, Record, RecordType, SvcParam, SvcbRdata};
use httpsrr::netsim::{Network, SimClock};
use httpsrr::resolver::{RecursiveResolver, ResolverConfig, SelectionStrategy};
use httpsrr::tlsech::{EchKeyManager, EchServerState};
use std::net::IpAddr;
use std::sync::Arc;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).expect("valid")
}

fn ip(s: &str) -> IpAddr {
    s.parse().expect("valid")
}

/// Build a mixed-NS world: one domain served by a provider pair where
/// only one publishes the HTTPS record.
fn mixed_ns_world() -> (Network, DelegationRegistry) {
    let net = Network::new(SimClock::new());
    let reg = DelegationRegistry::new();
    let apex = name("mixed.example");

    let with = ZoneSet::new();
    let mut z1 = Zone::new(apex.clone());
    z1.add(Record::new(apex.clone(), 60, RData::A("1.1.1.1".parse().expect("v4"))));
    z1.add(Record::new(
        apex.clone(),
        60,
        RData::Https(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![b"h2".to_vec()])])),
    ));
    with.insert(z1);
    net.bind_datagram(ip("10.0.0.1"), 53, Arc::new(AuthoritativeServer::new(with)));

    let without = ZoneSet::new();
    let mut z2 = Zone::new(apex.clone());
    z2.add(Record::new(apex.clone(), 60, RData::A("1.1.1.1".parse().expect("v4"))));
    without.insert(z2);
    net.bind_datagram(ip("10.0.0.2"), 53, Arc::new(AuthoritativeServer::new(without)));

    reg.delegate(
        &apex,
        vec![
            NsEndpoint { name: name("ns1.with.example"), ip: ip("10.0.0.1") },
            NsEndpoint { name: name("ns2.without.example"), ip: ip("10.0.0.2") },
        ],
    );
    (net, reg)
}

/// Fraction of 20 cold-cache resolutions that see the HTTPS record,
/// under a given NS-selection strategy.
fn visibility_under(strategy: SelectionStrategy, seed: u64) -> f64 {
    let (net, reg) = mixed_ns_world();
    let r = RecursiveResolver::new(
        net.clone(),
        reg,
        ResolverConfig { strategy, seed, validate: false, ..Default::default() },
    );
    let apex = name("mixed.example");
    let mut seen = 0usize;
    let rounds = 20usize;
    for _ in 0..rounds {
        let res = r.resolve(&apex, RecordType::Https).expect("resolves");
        if res.is_positive() {
            seen += 1;
        }
        net.clock().advance(301); // expire positive AND negative caches
    }
    seen as f64 / rounds as f64
}

/// Grace-window ablation: does a client holding a one-rotation-stale
/// config still connect, with and without server-side grace keys?
fn stale_key_outcome(grace_depth: usize) -> bool {
    use httpsrr::tlsech::{
        ClientHello, EchConfigList, EchExtension, InnerHello, ServerResponse, WebServer,
        WebServerConfig,
    };
    let net = Network::new(SimClock::new());
    let server = WebServer::new(
        net,
        WebServerConfig { cert_names: vec![name("a.example")], alpn: vec!["h2".into()] },
    );
    server.enable_ech(EchServerState {
        manager: EchKeyManager::new(name("cover.example"), "ablate", grace_depth),
        retry_enabled: false, // isolate the grace window's effect
    });
    let cached = server.current_ech_configs().expect("enabled");
    server.rotate_ech_key("ablate");
    let list = EchConfigList::decode(&cached).expect("valid");
    let cfg = list.preferred();
    let inner = InnerHello { sni: "a.example".into(), alpn: vec!["h2".into()] };
    let sealed = cfg.public_key.seal(cfg.public_name.key().as_bytes(), &inner.encode());
    let hello = ClientHello {
        sni: cfg.public_name.key(),
        alpn: vec!["h2".into()],
        ech: Some(EchExtension { config_id: cfg.config_id, sealed_inner: sealed }),
    };
    matches!(server.handshake(&hello), ServerResponse::Accepted { used_ech: true, .. })
}

/// Browser-failover ablation: success rate when only the hint IP works.
fn hint_only_success(profile: &BrowserProfile) -> bool {
    let tb = Testbed::new();
    tb.set_domain_records(
        vec!["203.0.113.10".parse().expect("v4")],
        Some(SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec()]),
            SvcParam::Ipv4Hint(vec!["203.0.113.30".parse().expect("v4")]),
        ])),
    );
    tb.web_server(
        httpsrr::browser::testbed::addr::WEB_HINT,
        443,
        vec![tb.domain.clone()],
        vec!["h2"],
    );
    tb.network.set_unreachable(ip("203.0.113.10"));
    tb.flush_dns();
    let nav = tb.browser(profile.clone()).navigate(&tb.domain.key(), UrlScheme::Https);
    matches!(nav.outcome, Outcome::HttpsOk { .. })
}

fn regenerate() {
    println!("=== ablation 1: NS selection vs mixed-NS HTTPS visibility ===");
    for (label, strategy) in [
        ("first-listed", SelectionStrategy::First),
        ("round-robin", SelectionStrategy::RoundRobin),
        ("random", SelectionStrategy::Random),
    ] {
        println!(
            "  {label:<14} sees HTTPS in {:>4.0}% of fresh resolutions",
            100.0 * visibility_under(strategy, 42)
        );
    }

    println!("=== ablation 3: ECH rotation grace window (retry disabled) ===");
    for depth in [0usize, 1, 2] {
        println!(
            "  grace depth {depth}: stale-config client {}",
            if stale_key_outcome(depth) { "connects" } else { "hard-fails" }
        );
    }

    println!("=== ablation 4: browser IP failover under dead A record ===");
    for p in BrowserProfile::all_measured() {
        println!(
            "  {:<14} {}",
            p.name,
            if hint_only_success(&p) {
                "connects (uses hints or fails over)"
            } else {
                "hard failure"
            }
        );
    }
}

fn benches(c: &mut Criterion) {
    regenerate();
    c.bench_function("mixed_ns_visibility_roundrobin", |b| {
        b.iter(|| visibility_under(SelectionStrategy::RoundRobin, 7))
    });
    c.bench_function("stale_key_grace1", |b| b.iter(|| stale_key_outcome(1)));
    c.bench_function("hint_only_navigation_safari", |b| {
        b.iter(|| hint_only_success(&BrowserProfile::safari()))
    });

    // Ablation 2: TTL clamp effect on staleness, measured directly on
    // the cache layer.
    use httpsrr::netsim::Timestamp;
    use httpsrr::resolver::RecordCache;
    c.bench_function("cache_staleness_clamped_vs_not", |b| {
        b.iter(|| {
            let mut stale_windows = (0u64, 0u64);
            for (i, cache) in
                [RecordCache::new(), RecordCache::with_ttl_clamp(60)].into_iter().enumerate()
            {
                let apex = name("ttl.example");
                let rec = Record::new(apex.clone(), 300, RData::A("1.2.3.4".parse().expect("v4")));
                cache.insert_positive(&apex, RecordType::A, vec![rec], vec![], Timestamp(0));
                // Find when the entry stops being served.
                let mut t = 0u64;
                while cache.age(&apex, RecordType::A, Timestamp(t)).is_some() {
                    t += 10;
                }
                if i == 0 {
                    stale_windows.0 = t;
                } else {
                    stale_windows.1 = t;
                }
            }
            assert!(stale_windows.1 < stale_windows.0);
            stale_windows
        })
    });
}

criterion_group! {
    name = ablation;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(ablation);
