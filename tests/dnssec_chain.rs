//! Integration tests of the DNSSEC chain through the whole stack:
//! ecosystem-built root/TLD/zone hierarchy validated by the resolver.

use httpsrr::dns_wire::RecordType;
use httpsrr::dnssec::ValidationState;
use httpsrr::ecosystem::{EcosystemConfig, World};
use httpsrr::resolver::{RecursiveResolver, ResolverConfig};

fn world() -> World {
    World::build(EcosystemConfig::tiny())
}

fn validating_resolver(world: &World) -> RecursiveResolver {
    RecursiveResolver::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig { validate: true, ..Default::default() },
    )
}

#[test]
fn signed_ds_uploaded_domain_is_secure() {
    let w = world();
    let r = validating_resolver(&w);
    let d = w
        .domains
        .iter()
        .find(|d| {
            d.signed && d.ds_uploaded && w.publishes_today(d) && d.secondary_provider.is_none()
        })
        .expect("a secure HTTPS domain exists");
    let res = r.resolve(&d.apex, RecordType::Https).unwrap();
    assert!(res.is_positive());
    assert_eq!(res.validation, Some(ValidationState::Secure), "{}", d.apex);
    assert!(res.ad());
}

#[test]
fn signed_without_ds_is_insecure() {
    let w = world();
    let r = validating_resolver(&w);
    let d = w
        .domains
        .iter()
        .find(|d| {
            d.signed && !d.ds_uploaded && w.publishes_today(d) && d.secondary_provider.is_none()
        })
        .expect("an insecure HTTPS domain exists");
    let res = r.resolve(&d.apex, RecordType::Https).unwrap();
    assert_eq!(res.validation, Some(ValidationState::Insecure), "{}", d.apex);
    assert!(!res.ad());
    assert!(res.records.rrsig_count() > 0, "still signed, just unanchored");
}

#[test]
fn unsigned_domain_is_unsigned() {
    let w = world();
    let r = validating_resolver(&w);
    let d = w
        .domains
        .iter()
        .find(|d| !d.signed && w.publishes_today(d) && d.secondary_provider.is_none())
        .expect("an unsigned HTTPS domain exists");
    let res = r.resolve(&d.apex, RecordType::Https).unwrap();
    assert_eq!(res.validation, Some(ValidationState::Unsigned));
    assert_eq!(res.records.rrsig_count(), 0);
}

#[test]
fn a_records_validate_like_https_records() {
    let w = world();
    let r = validating_resolver(&w);
    let d = w
        .domains
        .iter()
        .find(|d| d.signed && d.ds_uploaded && d.secondary_provider.is_none())
        .expect("a secure domain exists");
    let res = r.resolve(&d.apex, RecordType::A).unwrap();
    assert_eq!(res.validation, Some(ValidationState::Secure));
}

#[test]
fn tld_dnskeys_resolve_and_validate() {
    let w = world();
    let r = validating_resolver(&w);
    for tld in ["com", "net", "org"] {
        let apex = httpsrr::dns_wire::DnsName::parse(tld).unwrap();
        let res = r.resolve(&apex, RecordType::Dnskey).unwrap();
        assert!(res.is_positive(), "{tld} must publish DNSKEY");
        assert_eq!(res.validation, Some(ValidationState::Secure), "{tld}");
    }
}

#[test]
fn validation_survives_cache_round_trips() {
    let w = world();
    let r = validating_resolver(&w);
    let d = w
        .domains
        .iter()
        .find(|d| {
            d.signed && d.ds_uploaded && w.publishes_today(d) && d.secondary_provider.is_none()
        })
        .expect("a secure domain exists");
    let cold = r.resolve(&d.apex, RecordType::Https).unwrap();
    let warm = r.resolve(&d.apex, RecordType::Https).unwrap();
    assert!(!cold.from_cache && warm.from_cache);
    assert_eq!(cold.validation, warm.validation);
    assert_eq!(cold.records, warm.records);
}
