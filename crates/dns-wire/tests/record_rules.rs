//! The RFC 9460 record rules `dns_wire::svcb` writes once, against the
//! copies they replaced, kept here as oracles:
//!
//! - [`client_choice`] against the browser's choice (the lowest-priority
//!   ServiceMode record by `min_by_key`, else the first alias) and the
//!   scanner's one-pass loop, on generated HTTPS RRsets of mixed modes,
//!   equal priorities and RDATA that does not read;
//! - [`SvcbRdata::lint`] and [`SvcbView::lint`] against the owned lint
//!   they replaced, on generated records with IPv4-shaped, digit-only,
//!   root and ordinary targets and `mandatory` lists naming present and
//!   absent keys.

use dns_wire::svcb::{client_choice, key, key_to_name, Lint};
use dns_wire::wire::WireWriter;
use dns_wire::{DnsName, SvcParam, SvcbRdata, SvcbView};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The browser's choice before [`client_choice`].
fn browser_choice<'a>(records: &[SvcbView<'a>]) -> Option<SvcbView<'a>> {
    let records = records.iter().copied();
    records
        .clone()
        .filter(|rd| !rd.is_alias())
        .min_by_key(|rd| rd.priority())
        .or_else(|| records.clone().find(|rd| rd.is_alias()))
}

/// The scanner's one-pass choice before [`client_choice`].
fn scanner_choice<'a>(records: &[SvcbView<'a>]) -> Option<SvcbView<'a>> {
    let mut chosen: Option<SvcbView<'a>> = None;
    for &rd in records {
        chosen = match chosen {
            Some(c) if rd.is_alias() || (!c.is_alias() && c.priority() <= rd.priority()) => Some(c),
            _ => Some(rd),
        };
    }
    chosen
}

/// `SvcbRdata::lint` before it read [`SvcbView::lint`].
fn owned_lint(rd: &SvcbRdata) -> Vec<String> {
    let mut issues = Vec::new();
    if rd.priority == 0 {
        if !rd.params.is_empty() {
            issues.push("AliasMode record carries SvcParams".to_string());
        }
        if rd.target.is_root() {
            issues.push("AliasMode TargetName of \".\" does not provide a true alias".to_string());
        }
    } else {
        if let Some(SvcParam::Mandatory(keys)) = rd.param(key::MANDATORY) {
            for k in keys {
                if rd.param(*k).is_none() {
                    issues.push(format!("mandatory key {} absent", key_to_name(*k)));
                }
            }
        }
        if rd.params.is_empty() {
            issues.push("ServiceMode record with empty SvcParams".to_string());
        }
    }
    if !rd.target.is_root() && rd.target.key().parse::<Ipv4Addr>().is_ok() {
        issues.push("TargetName is an IPv4 address literal".to_string());
    }
    issues
}

fn encode(rd: &SvcbRdata) -> Vec<u8> {
    let mut w = WireWriter::new();
    rd.encode(&mut w);
    w.into_bytes()
}

/// Targets a lint tells apart: the root, dotted quads in and out of
/// range, with a leading zero, too short and too long, digit-only
/// labels that are no address, and ordinary names.
const TARGETS: [&str; 14] = [
    ".",
    "1.2.3.4",
    "0.0.0.0",
    "255.255.255.255",
    "256.1.1.1",
    "01.2.3.4",
    "1.2.3",
    "1.2.3.4.5",
    "1234.1.1.1",
    "123",
    "a.1.2.3",
    "1.2.3.a",
    "svc.example.net",
    "SVC.Example.NET",
];

/// Keys a `mandatory` list may name: registered ones and an unknown one.
const NAMEABLE: [u16; 6] = [key::ALPN, key::PORT, key::IPV4HINT, key::ECH, key::IPV6HINT, 42];

/// A record of any mode with any target and, per key, the parameter or
/// not; a `mandatory` list names distinct keys, present or absent, in
/// any order (its wire form sorts them).
fn arb_record() -> impl Strategy<Value = SvcbRdata> {
    (
        prop_oneof![Just(0u16), Just(1), Just(2), any::<u16>()],
        0..TARGETS.len(),
        (any::<bool>(), proptest::collection::vec(0..NAMEABLE.len(), 1..=NAMEABLE.len())),
        proptest::collection::vec(any::<bool>(), 6),
    )
        .prop_map(|(priority, target, (mandatory, named), present)| {
            let mut keys: Vec<u16> = Vec::new();
            for k in named.into_iter().map(|i| NAMEABLE[i]) {
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            let mut params: Vec<SvcParam> =
                if mandatory { vec![SvcParam::Mandatory(keys)] } else { Vec::new() };
            let optional = [
                SvcParam::Alpn(vec![b"h2".to_vec()]),
                SvcParam::Port(8443),
                SvcParam::Ipv4Hint(vec![Ipv4Addr::new(192, 0, 2, 1)]),
                SvcParam::Ech(vec![0xFE, 0x0D]),
                SvcParam::Ipv6Hint(vec![Ipv6Addr::LOCALHOST]),
                SvcParam::Unknown { key: 42, value: vec![7] },
            ];
            params.extend(optional.into_iter().zip(present).filter(|(_, on)| *on).map(|(p, _)| p));
            SvcbRdata { priority, target: DnsName::parse(TARGETS[target]).unwrap(), params }
        })
}

/// The encoding of a record an RRset may hold: few priorities, so that
/// equal ones are common, and records alike but for a port.
fn arb_member() -> impl Strategy<Value = Vec<u8>> {
    let targets = [".", "svc.example.net", "1.2.3.4"];
    (0u16..4, 0..targets.len(), 0u16..3).prop_map(move |(priority, target, port)| {
        let params = (port > 0).then_some(SvcParam::Port(port)).into_iter().collect();
        encode(&SvcbRdata { priority, target: DnsName::parse(targets[target]).unwrap(), params })
    })
}

/// The RDATA of an RRset member: mostly a record's encoding, else bytes
/// [`SvcbView::read`] cannot read (no priority, or a target that runs
/// past the end).
fn arb_rdata() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_member(),
        arb_member(),
        arb_member(),
        proptest::collection::vec(any::<u8>(), 0..2),
        Just(vec![0, 1, 3, b's', b'v']),
    ]
}

/// Two views are the same choice when they read the same bytes.
fn same(one: Option<SvcbView<'_>>, other: Option<SvcbView<'_>>) -> bool {
    format!("{one:?}") == format!("{other:?}")
}

#[test]
fn the_choice_of_the_examples_is_the_former_choices() {
    let records = [
        encode(&SvcbRdata::alias(DnsName::parse("b.com").unwrap())),
        encode(&SvcbRdata { priority: 2, target: DnsName::root(), params: vec![] }),
        encode(&SvcbRdata::service_self(vec![SvcParam::Port(1)])),
        encode(&SvcbRdata::service_self(vec![SvcParam::Port(2)])),
    ];
    let views: Vec<SvcbView> = records.iter().filter_map(|r| SvcbView::read(r)).collect();
    let chosen = client_choice(views.iter().copied()).unwrap();
    assert_eq!((chosen.priority(), chosen.param(key::PORT)), (1, Some(&[0, 1][..])));
    assert!(same(Some(chosen), browser_choice(&views)));
    assert!(same(Some(chosen), scanner_choice(&views)));
    assert!(client_choice(views[..1].iter().copied()).unwrap().is_alias());
    assert!(client_choice(std::iter::empty()).is_none());
}

#[test]
fn every_lint_reads_as_the_owned_lint_did() {
    let cases = [
        (SvcbRdata { priority: 0, target: DnsName::root(), params: vec![SvcParam::Port(1)] }, 2),
        (SvcbRdata::service_self(vec![SvcParam::Mandatory(vec![key::IPV6HINT, 42])]), 2),
        (SvcbRdata::service_self(vec![]), 1),
        (SvcbRdata::alias(DnsName::parse("192.0.2.1").unwrap()), 1),
    ];
    for (rd, count) in cases {
        assert_eq!(rd.lint(), owned_lint(&rd), "{rd:?}");
        assert_eq!(rd.lint().len(), count, "{rd:?}");
    }
    let mut findings = Vec::new();
    let bytes = encode(&SvcbRdata::service_self(vec![SvcParam::Mandatory(vec![key::ECH])]));
    SvcbView::parse(&bytes).unwrap().lint(|lint| findings.push(lint));
    assert_eq!(findings, [Lint::MandatoryAbsent(key::ECH)]);
}

proptest! {
    /// The shared choice picks what the browser and the scanner picked,
    /// over the views an RRset's RDATA read as.
    #[test]
    fn the_shared_choice_equals_the_browser_and_scanner_choices(
        rrset in proptest::collection::vec(arb_rdata(), 0..8),
    ) {
        let views: Vec<SvcbView> = rrset.iter().filter_map(|r| SvcbView::read(r)).collect();
        let chosen = client_choice(views.iter().copied());
        prop_assert!(same(chosen, browser_choice(&views)), "browser: {:?}", views);
        prop_assert!(same(chosen, scanner_choice(&views)), "scanner: {:?}", views);
    }

    /// `lint`'s strings are the owned lint's, in its order, for a record
    /// as the wire holds it; a record built in memory with an unsorted
    /// `mandatory` list gets the same findings, its absent keys in
    /// ascending order. The view's findings render as those strings.
    #[test]
    fn lint_equals_the_owned_lint_it_replaced(rd in arb_record()) {
        let bytes = encode(&rd);
        let wire = SvcbRdata::decode(&bytes).unwrap();
        let issues = rd.lint();
        prop_assert_eq!(&issues, &owned_lint(&wire));
        prop_assert_eq!(&wire.lint(), &issues);
        let mut in_memory = owned_lint(&rd);
        let mut sorted = issues.clone();
        in_memory.sort();
        sorted.sort();
        prop_assert_eq!(in_memory, sorted);
        let mut findings = Vec::new();
        SvcbView::parse(&bytes).unwrap().lint(|lint| findings.push(lint.to_string()));
        prop_assert_eq!(findings, issues);
    }
}
