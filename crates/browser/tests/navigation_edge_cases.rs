//! Navigation edge cases beyond the Table 6/7 matrix: no-record paths,
//! HTTP fallback, DNS failure handling, and event-trace contents.

use browser::{BrowserProfile, NavEvent, Outcome, Testbed, UrlScheme};
use dns_wire::{RecordType, SvcParam, SvcbRdata};

#[test]
fn https_scheme_without_record_uses_plain_tls() {
    let tb = Testbed::new();
    tb.set_domain_records(vec!["203.0.113.10".parse().unwrap()], None);
    tb.web_server(
        browser::testbed::addr::WEB_PRIMARY,
        443,
        vec![tb.domain.clone()],
        vec!["h2", "http/1.1"],
    );
    let nav = tb.browser(BrowserProfile::chrome()).navigate(&tb.domain.key(), UrlScheme::Https);
    // Still queried the HTTPS type (clients cannot know in advance).
    assert!(nav.queried_https_rr());
    assert!(matches!(nav.outcome, Outcome::HttpsOk { used_ech: false, .. }));
}

#[test]
fn bare_url_without_record_stays_http() {
    let tb = Testbed::new();
    tb.set_domain_records(vec!["203.0.113.10".parse().unwrap()], None);
    tb.http_server(browser::testbed::addr::WEB_PRIMARY);
    for p in BrowserProfile::all_measured() {
        tb.flush_dns();
        let nav = tb.browser(p.clone()).navigate(&tb.domain.key(), UrlScheme::Bare);
        assert!(matches!(nav.outcome, Outcome::HttpOk { .. }), "{}: {:?}", p.name, nav.outcome);
    }
}

#[test]
fn nonexistent_domain_fails_with_no_address() {
    let tb = Testbed::new();
    let nav =
        tb.browser(BrowserProfile::firefox()).navigate("no-such.test-domain.com", UrlScheme::Https);
    assert!(matches!(nav.outcome, Outcome::Failed(_)));
}

#[test]
fn event_trace_contains_both_dns_queries() {
    let tb = Testbed::new();
    tb.set_domain_records(vec!["203.0.113.10".parse().unwrap()], Some(tb.basic_service_record()));
    tb.web_server(browser::testbed::addr::WEB_PRIMARY, 443, vec![tb.domain.clone()], vec!["h2"]);
    let nav = tb.browser(BrowserProfile::edge()).navigate(&tb.domain.key(), UrlScheme::Https);
    let qtypes: Vec<RecordType> = nav
        .events
        .iter()
        .filter_map(|e| match e {
            NavEvent::DnsQuery { qtype, .. } => Some(*qtype),
            _ => None,
        })
        .collect();
    assert!(qtypes.contains(&RecordType::Https));
    assert!(qtypes.contains(&RecordType::A));
}

#[test]
fn alpn_offer_is_filtered_by_record() {
    // Record advertises h3 only; the browser offers exactly that.
    let tb = Testbed::new();
    tb.set_domain_records(
        vec!["203.0.113.10".parse().unwrap()],
        Some(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![b"h3".to_vec()])])),
    );
    tb.web_server(browser::testbed::addr::WEB_PRIMARY, 443, vec![tb.domain.clone()], vec!["h3"]);
    let nav = tb.browser(BrowserProfile::chrome()).navigate(&tb.domain.key(), UrlScheme::Https);
    let offers: Vec<Vec<String>> = nav
        .events
        .iter()
        .filter_map(|e| match e {
            NavEvent::TlsAttempt { alpn, .. } => Some(alpn.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(offers, vec![vec!["h3".to_string()]]);
    assert!(matches!(nav.outcome, Outcome::HttpsOk { alpn: Some(p), .. } if p == "h3"));
}

#[test]
fn multiple_service_records_pick_lowest_priority() {
    let tb = Testbed::new();
    // Two ServiceMode records: priority 2 points nowhere useful (port
    // 9999), priority 1 is the good one. Clients must pick priority 1.
    tb.zones.with_zone(&tb.domain, |z| {
        use dns_wire::{RData, Record};
        z.set(
            tb.domain.clone(),
            RecordType::Https,
            vec![
                Record::new(
                    tb.domain.clone(),
                    60,
                    RData::Https(SvcbRdata {
                        priority: 2,
                        target: dns_wire::DnsName::root(),
                        params: vec![SvcParam::Alpn(vec![b"h2".to_vec()]), SvcParam::Port(9_999)],
                    }),
                ),
                Record::new(
                    tb.domain.clone(),
                    60,
                    RData::Https(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![
                        b"h2".to_vec()
                    ])])),
                ),
            ],
        );
        z.set(
            tb.domain.clone(),
            RecordType::A,
            vec![Record::new(tb.domain.clone(), 60, RData::A("203.0.113.10".parse().unwrap()))],
        );
    });
    tb.web_server(browser::testbed::addr::WEB_PRIMARY, 443, vec![tb.domain.clone()], vec!["h2"]);
    tb.flush_dns();
    // Safari honours port params; picking priority 2 would send it to
    // 9999 and fail. Success proves priority-1 selection.
    let nav = tb.browser(BrowserProfile::safari()).navigate(&tb.domain.key(), UrlScheme::Https);
    assert!(matches!(nav.outcome, Outcome::HttpsOk { port: 443, .. }), "{:?}", nav.outcome);
}

#[test]
fn http_scheme_upgrade_skips_http_entirely() {
    let tb = Testbed::new();
    tb.set_domain_records(vec!["203.0.113.10".parse().unwrap()], Some(tb.basic_service_record()));
    tb.web_server(browser::testbed::addr::WEB_PRIMARY, 443, vec![tb.domain.clone()], vec!["h2"]);
    // No HTTP server bound: if the browser tried port 80 first it would
    // fail. Chrome upgrades directly from the HTTPS record.
    let nav = tb.browser(BrowserProfile::chrome()).navigate(&tb.domain.key(), UrlScheme::Http);
    assert!(matches!(nav.outcome, Outcome::HttpsOk { .. }));
    assert!(
        !nav.events.iter().any(|e| matches!(e, NavEvent::HttpAttempt { .. })),
        "no plaintext attempt expected: {:?}",
        nav.events
    );
}

#[test]
fn a_dropped_testbed_frees_its_resolver_and_network() {
    let tb = Testbed::new();
    tb.set_domain_records(vec!["203.0.113.10".parse().unwrap()], None);
    tb.http_server(browser::testbed::addr::WEB_PRIMARY);
    let nav = tb.browser(BrowserProfile::chrome()).navigate(&tb.domain.key(), UrlScheme::Bare);
    assert!(matches!(nav.outcome, Outcome::HttpOk { .. }), "{:?}", nav.outcome);
    let (resolver, network) = (std::sync::Arc::downgrade(&tb.resolver), tb.network.downgrade());
    drop(tb);
    assert!(resolver.upgrade().is_none(), "the resolver outlived its testbed");
    assert!(network.upgrade().is_none(), "the network outlived its testbed");
}
