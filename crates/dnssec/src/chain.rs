//! Chain-of-trust validation: walk DS→DNSKEY links from the root down to
//! the zone that signed an RRset, then verify the RRSIG.

use crate::signer::{ds_matches_dnskey, verify_rrsig};
use dns_wire::record::{DnskeyRdata, DsRdata, RrsigRdata};
use dns_wire::{DnsName, RData, Record};

/// Validation outcome for an RRset, matching RFC 4035 terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationState {
    /// Unbroken chain from the root; the AD bit may be set.
    Secure,
    /// A zone cut without a DS record breaks the chain: the data is not
    /// protected but not provably bad (the paper's "insecure" bucket).
    Insecure,
    /// Signatures/digests exist but fail: tampering or misconfiguration.
    Bogus,
    /// The RRset carries no signature at all.
    Unsigned,
}

impl std::fmt::Display for ValidationState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationState::Secure => write!(f, "secure"),
            ValidationState::Insecure => write!(f, "insecure"),
            ValidationState::Bogus => write!(f, "bogus"),
            ValidationState::Unsigned => write!(f, "unsigned"),
        }
    }
}

/// Supplies DNSSEC records on demand during a chain walk. Implemented by
/// the recursive resolver (which fetches them over the simulated network)
/// and by in-memory fixtures in tests.
pub trait ChainSource {
    /// DNSKEY RRset of a zone apex, with its RRSIGs, if the zone is signed.
    fn dnskeys(&mut self, zone: &DnsName) -> Option<(Vec<DnskeyRdata>, Vec<RrsigRdata>)>;
    /// DS RRset for `zone` as published in its *parent* zone.
    fn ds_set(&mut self, zone: &DnsName) -> Option<Vec<DsRdata>>;
}

/// Validate an RRset with its RRSIGs at time `now`, trusting the root
/// zone's keys and only those.
///
/// `source` provides DNSKEY/DS lookups. The walk starts at the signer's
/// zone and climbs toward the root, requiring each zone's DNSKEY to be
/// endorsed by a DS in its parent, and each DS / DNSKEY RRset itself to
/// be signed.
pub fn validate(
    rrset: &[Record],
    rrsigs: &[RrsigRdata],
    source: &mut dyn ChainSource,
    now: u32,
) -> ValidationState {
    if rrset.is_empty() {
        return ValidationState::Unsigned;
    }
    let covering: Vec<&RrsigRdata> =
        rrsigs.iter().filter(|s| s.type_covered == rrset[0].rtype).collect();
    if covering.is_empty() {
        return ValidationState::Unsigned;
    }

    for sig in covering {
        match validate_with_sig(rrset, sig, source, now) {
            ValidationState::Secure => return ValidationState::Secure,
            ValidationState::Insecure => return ValidationState::Insecure,
            _ => continue,
        }
    }
    ValidationState::Bogus
}

fn validate_with_sig(
    rrset: &[Record],
    sig: &RrsigRdata,
    source: &mut dyn ChainSource,
    now: u32,
) -> ValidationState {
    let zone = &sig.signer;
    // The owner must be within the signer's zone.
    if !rrset[0].name.is_subdomain_of(zone) {
        return ValidationState::Bogus;
    }
    let Some((keys, key_sigs)) = source.dnskeys(zone) else {
        return ValidationState::Insecure;
    };
    // Find a key that verifies the RRset signature.
    let Some(signing_key) = keys.iter().find(|k| verify_rrsig(sig, rrset, k, now)) else {
        return ValidationState::Bogus;
    };
    // The DNSKEY RRset itself must be signed by one of its keys
    // (self-signed apex keyset), unless the zone is the root.
    if zone.is_root() {
        return ValidationState::Secure;
    }
    let dnskey_rrset: Vec<Record> = keys
        .iter()
        .map(|k| Record::new(zone.clone(), sig.original_ttl, RData::Dnskey(k.clone())))
        .collect();
    let keyset_ok = key_sigs.iter().any(|ks| {
        ks.type_covered == dns_wire::RecordType::Dnskey
            && keys.iter().any(|k| verify_rrsig(ks, &dnskey_rrset, k, now))
    });
    if !keyset_ok {
        return ValidationState::Bogus;
    }
    // Climb: the parent must endorse this zone's key via DS.
    let Some(ds_set) = source.ds_set(zone) else {
        // Signed zone, no DS uploaded: the paper's "insecure" case.
        return ValidationState::Insecure;
    };
    if !ds_set.iter().any(|ds| ds_matches_dnskey(ds, zone, signing_key)) {
        return ValidationState::Bogus;
    }
    // Recurse up to the parent zone: the DS RRset lives in the parent
    // and must itself be validated. We model parent endorsement by
    // walking the ancestor chain of zone apexes.
    let mut current = zone.clone();
    loop {
        let Some(parent) = enclosing_zone(&current, source) else {
            return ValidationState::Insecure;
        };
        if parent.is_root() {
            return ValidationState::Secure;
        }
        // Parent must be a signed zone endorsed by *its* parent.
        let Some((pkeys, _)) = source.dnskeys(&parent) else {
            return ValidationState::Insecure;
        };
        let Some(pds) = source.ds_set(&parent) else {
            return ValidationState::Insecure;
        };
        if !pds.iter().any(|ds| pkeys.iter().any(|k| ds_matches_dnskey(ds, &parent, k))) {
            return ValidationState::Bogus;
        }
        current = parent;
    }
}

/// The nearest enclosing zone apex above `zone` that publishes keys, or
/// the root.
fn enclosing_zone(zone: &DnsName, source: &mut dyn ChainSource) -> Option<DnsName> {
    let mut candidate = zone.parent()?;
    loop {
        if candidate.is_root() || source.dnskeys(&candidate).is_some() {
            return Some(candidate);
        }
        candidate = candidate.parent()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::ZoneKeys;
    use dns_wire::{NameBuildHasher, RecordType};
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    /// In-memory fixture: a hierarchy of signed zones with optional DS.
    #[derive(Default)]
    struct Fixture {
        keys: HashMap<DnsName, ZoneKeys, NameBuildHasher>,
        ds: HashMap<DnsName, Vec<DsRdata>, NameBuildHasher>,
    }

    impl Fixture {
        /// Create a signed zone; `link_ds=false` models the missing-DS
        /// registrar problem.
        fn add_zone(&mut self, apex: &str, link_ds: bool) {
            let apex = name(apex);
            let keys = ZoneKeys::derive(&apex, 0);
            if link_ds {
                let ds = match keys.ds_record(300).rdata {
                    RData::Ds(d) => d,
                    _ => unreachable!(),
                };
                self.ds.insert(apex.clone(), vec![ds]);
            }
            self.keys.insert(apex, keys);
        }

        fn sign(&self, zone: &str, rrset: &[Record]) -> Vec<RrsigRdata> {
            let sig = self.keys[&name(zone)].sign(rrset, 0, u32::MAX - 1);
            match sig.rdata {
                RData::Rrsig(s) => vec![s],
                _ => unreachable!(),
            }
        }
    }

    impl ChainSource for Fixture {
        fn dnskeys(&mut self, zone: &DnsName) -> Option<(Vec<DnskeyRdata>, Vec<RrsigRdata>)> {
            let keys = self.keys.get(zone)?;
            let rdata = keys.dnskey_rdata();
            let rrset = vec![keys.dnskey_record(300)];
            let sig = keys.sign(&rrset, 0, u32::MAX - 1);
            let sig_rdata = match sig.rdata {
                RData::Rrsig(s) => s,
                _ => unreachable!(),
            };
            Some((vec![rdata], vec![sig_rdata]))
        }

        fn ds_set(&mut self, zone: &DnsName) -> Option<Vec<DsRdata>> {
            self.ds.get(zone).cloned()
        }
    }

    fn https_rrset() -> Vec<Record> {
        use dns_wire::SvcbRdata;
        vec![Record::new(
            name("a.com"),
            300,
            RData::Https(SvcbRdata::service_self(vec![dns_wire::SvcParam::Alpn(vec![
                b"h2".to_vec()
            ])])),
        )]
    }

    fn full_chain_fixture(link_child_ds: bool) -> Fixture {
        let mut fx = Fixture::default();
        fx.add_zone("com", true);
        fx.add_zone("a.com", link_child_ds);
        fx
    }

    #[test]
    fn secure_chain_validates() {
        let mut fx = full_chain_fixture(true);
        let rrset = https_rrset();
        let sigs = fx.sign("a.com", &rrset);
        assert_eq!(validate(&rrset, &sigs, &mut fx, 100), ValidationState::Secure);
    }

    #[test]
    fn missing_ds_is_insecure() {
        // The paper's headline DNSSEC finding: signed HTTPS records whose
        // zones never uploaded DS → insecure (49.4% of signed, Table 9).
        let mut fx = full_chain_fixture(false);
        let rrset = https_rrset();
        let sigs = fx.sign("a.com", &rrset);
        assert_eq!(validate(&rrset, &sigs, &mut fx, 100), ValidationState::Insecure);
    }

    #[test]
    fn no_rrsig_is_unsigned() {
        let mut fx = full_chain_fixture(true);
        let rrset = https_rrset();
        assert_eq!(validate(&rrset, &[], &mut fx, 100), ValidationState::Unsigned);
    }

    #[test]
    fn tampered_rrset_is_bogus() {
        let mut fx = full_chain_fixture(true);
        let mut rrset = https_rrset();
        let sigs = fx.sign("a.com", &rrset);
        rrset[0].rdata = RData::A(Ipv4Addr::new(6, 6, 6, 6));
        // Type changed → sig no longer covers; rebuild as same-type tamper:
        let mut rrset2 = https_rrset();
        rrset2[0].ttl = 300;
        if let RData::Https(rd) = &mut rrset2[0].rdata {
            rd.priority = 2;
        }
        assert_eq!(validate(&rrset2, &sigs, &mut fx, 100), ValidationState::Bogus);
    }

    #[test]
    fn expired_signature_is_bogus() {
        let mut fx = full_chain_fixture(true);
        let rrset = https_rrset();
        let sig = fx.keys[&name("a.com")].sign(&rrset, 0, 50);
        let sigs = match sig.rdata {
            RData::Rrsig(s) => vec![s],
            _ => unreachable!(),
        };
        assert_eq!(validate(&rrset, &sigs, &mut fx, 100), ValidationState::Bogus);
    }

    #[test]
    fn wrong_key_ds_is_bogus() {
        let mut fx = full_chain_fixture(true);
        // Replace the child DS with one derived from a different key.
        let rogue = ZoneKeys::derive(&name("a.com"), 99);
        let ds = match rogue.ds_record(300).rdata {
            RData::Ds(d) => d,
            _ => unreachable!(),
        };
        fx.ds.insert(name("a.com"), vec![ds]);
        let rrset = https_rrset();
        let sigs = fx.sign("a.com", &rrset);
        assert_eq!(validate(&rrset, &sigs, &mut fx, 100), ValidationState::Bogus);
    }

    #[test]
    fn unsigned_parent_breaks_chain_to_insecure() {
        let mut fx = Fixture::default();
        // a.com is signed and has DS, but "com" has keys with no DS of its
        // own, and com's parent (root) is the anchor. Walk: a.com secure
        // requires com endorsement... com has no DS → insecure.
        fx.add_zone("com", false);
        fx.add_zone("a.com", true);
        let rrset = https_rrset();
        let sigs = fx.sign("a.com", &rrset);
        assert_eq!(validate(&rrset, &sigs, &mut fx, 100), ValidationState::Insecure);
    }

    #[test]
    fn sig_from_unrelated_zone_is_bogus() {
        let mut fx = full_chain_fixture(true);
        fx.add_zone("evil.org", true);
        let rrset = https_rrset(); // owner a.com
        let sigs = fx.sign("evil.org", &rrset);
        assert_eq!(validate(&rrset, &sigs, &mut fx, 100), ValidationState::Bogus);
    }

    #[test]
    fn sig_covering_wrong_type_is_unsigned() {
        let mut fx = full_chain_fixture(true);
        let a_rrset = vec![Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(1, 1, 1, 1)))];
        let sigs = fx.sign("a.com", &a_rrset);
        let https = https_rrset();
        // RRSIG covers A, not HTTPS.
        assert_eq!(validate(&https, &sigs, &mut fx, 100), ValidationState::Unsigned);
        assert_eq!(sigs[0].type_covered, RecordType::A);
    }
}
