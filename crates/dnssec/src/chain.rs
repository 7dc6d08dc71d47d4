//! Chain-of-trust validation: walk DS→DNSKEY links from the root down to
//! the zone that signed an RRset, then verify the RRSIG.

use crate::signer::{ds_matches_dnskey, verify, SIGNER_AT};
use dns_wire::{DnsName, RdataView, RecordType};

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

/// An RRset with its covering RRSIGs, read where it lies (a resolver's,
/// in its reply): what [`validate`] checks and a [`ChainSource`] hands out.
pub trait SignedSet {
    /// The owner name.
    fn owner(&self) -> &DnsName;
    /// The record type.
    fn rtype(&self) -> RecordType;
    /// Each record's RDATA.
    fn rdatas(&self) -> impl Iterator<Item = RdataView<'_>>;
    /// Each covering RRSIG's RDATA.
    fn signatures(&self) -> impl Iterator<Item = RdataView<'_>>;
}

/// Supplies DNSSEC records on demand during a chain walk. Implemented by
/// the recursive resolver (which fetches them over the simulated network)
/// and by in-memory fixtures in tests.
pub trait ChainSource {
    /// The sets handed out.
    type Set: SignedSet;
    /// DNSKEY RRset of a zone apex, with its RRSIGs, if the zone is signed.
    fn dnskeys(&mut self, zone: &DnsName) -> Option<Self::Set>;
    /// DS RRset for `zone` as published in its *parent* zone.
    fn ds_set(&mut self, zone: &DnsName) -> Option<Self::Set>;
}

/// Whether RRSIG RDATA covers `rtype`: its first field.
fn covers(rrsig: &RdataView<'_>, rtype: RecordType) -> bool {
    rrsig.bytes().starts_with(&rtype.code().to_be_bytes())
}

/// Validate an RRset with its RRSIGs at time `now`, trusting the root
/// zone's keys and only those.
///
/// `source` provides DNSKEY/DS lookups. The walk starts at the signer's
/// zone and climbs toward the root, requiring each zone's DNSKEY to be
/// endorsed by a DS in its parent, and each DS / DNSKEY RRset itself to
/// be signed. Signatures are checked over the sets in place.
pub fn validate<C: ChainSource>(set: &impl SignedSet, source: &mut C, now: u32) -> ValidationState {
    let mut covering = set.signatures().filter(|s| covers(s, set.rtype())).peekable();
    if set.rdatas().next().is_none() || covering.peek().is_none() {
        return ValidationState::Unsigned;
    }
    for sig in covering {
        match validate_with_sig(set, sig, source, now) {
            state @ (ValidationState::Secure | ValidationState::Insecure) => return state,
            _ => continue,
        }
    }
    ValidationState::Bogus
}

fn validate_with_sig<C: ChainSource>(
    set: &impl SignedSet,
    sig: RdataView<'_>,
    source: &mut C,
    now: u32,
) -> ValidationState {
    // The signer's zone is the owner or one of its ancestors, named as
    // the owner spells it.
    let signer = sig.name_at(SIGNER_AT).map(|(name, _)| name);
    let mut ancestors = std::iter::successors(Some(set.owner().clone()), DnsName::parent);
    let Some(zone) = signer.and_then(|signer| ancestors.find(|a| signer.eq_name(a))) else {
        return ValidationState::Bogus;
    };
    let Some(keys) = source.dnskeys(&zone) else {
        return ValidationState::Insecure;
    };
    // Find a key that verifies the RRset signature.
    let Some(signing_key) = keys.rdatas().find(|k| verify(sig, set, k.bytes(), now)) else {
        return ValidationState::Bogus;
    };
    // The DNSKEY RRset itself must be signed by one of its keys
    // (self-signed apex keyset), unless the zone is the root.
    if zone.is_root() {
        return ValidationState::Secure;
    }
    let keyset_ok = keys.signatures().any(|ks| {
        covers(&ks, RecordType::Dnskey) && keys.rdatas().any(|k| verify(ks, &keys, k.bytes(), now))
    });
    if !keyset_ok {
        return ValidationState::Bogus;
    }
    // Climb: the parent must endorse this zone's key via DS.
    let Some(ds_set) = source.ds_set(&zone) else {
        // Signed zone, no DS uploaded: the paper's "insecure" case.
        return ValidationState::Insecure;
    };
    if !ds_set.rdatas().any(|ds| ds_matches_dnskey(ds.bytes(), &zone, signing_key.bytes())) {
        return ValidationState::Bogus;
    }
    // Recurse up to the parent zone: the DS RRset lives in the parent
    // and must itself be validated. We model parent endorsement by
    // walking the ancestor chain of zone apexes.
    let mut current = zone;
    loop {
        let Some(parent) = enclosing_zone(&current, source) else {
            return ValidationState::Insecure;
        };
        if parent.is_root() {
            return ValidationState::Secure;
        }
        // Parent must be a signed zone endorsed by *its* parent.
        let Some(pkeys) = source.dnskeys(&parent) else {
            return ValidationState::Insecure;
        };
        let Some(pds) = source.ds_set(&parent) else {
            return ValidationState::Insecure;
        };
        let endorsed = pds
            .rdatas()
            .any(|ds| pkeys.rdatas().any(|k| ds_matches_dnskey(ds.bytes(), &parent, k.bytes())));
        if !endorsed {
            return ValidationState::Bogus;
        }
        current = parent;
    }
}

/// The nearest enclosing zone apex above `zone` that publishes keys, or
/// the root.
fn enclosing_zone(zone: &DnsName, source: &mut impl ChainSource) -> Option<DnsName> {
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
    use crate::signer::tests::{rrsig_of, TestSet};
    use crate::signer::ZoneKeys;
    use dns_wire::record::RrsigRdata;
    use dns_wire::{NameBuildHasher, RData, Record};
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    /// In-memory fixture: a hierarchy of signed zones with optional DS.
    #[derive(Default)]
    struct Fixture {
        keys: HashMap<DnsName, ZoneKeys, NameBuildHasher>,
        ds: HashMap<DnsName, Record, NameBuildHasher>,
    }

    impl Fixture {
        /// Create a signed zone; `link_ds=false` models the missing-DS
        /// registrar problem.
        fn add_zone(&mut self, apex: &str, link_ds: bool) {
            let apex = name(apex);
            let keys = ZoneKeys::derive(&apex, 0);
            if link_ds {
                self.ds.insert(apex.clone(), keys.ds_record(300));
            }
            self.keys.insert(apex, keys);
        }

        fn sign(&self, zone: &str, rrset: &[Record]) -> Vec<RrsigRdata> {
            vec![rrsig_of(&self.keys[&name(zone)].sign(rrset, 0, u32::MAX - 1))]
        }
    }

    impl ChainSource for Fixture {
        type Set = TestSet;

        fn dnskeys(&mut self, zone: &DnsName) -> Option<TestSet> {
            let keys = self.keys.get(zone)?;
            let rrset = vec![keys.dnskey_record(300)];
            let sig = rrsig_of(&keys.sign(&rrset, 0, u32::MAX - 1));
            Some(TestSet::new(&rrset, &[sig]))
        }

        fn ds_set(&mut self, zone: &DnsName) -> Option<TestSet> {
            self.ds.get(zone).map(|ds| TestSet::new(std::slice::from_ref(ds), &[]))
        }
    }

    fn check(rrset: &[Record], sigs: &[RrsigRdata], fx: &mut Fixture) -> ValidationState {
        validate(&TestSet::new(rrset, sigs), fx, 100)
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
        assert_eq!(check(&rrset, &sigs, &mut fx), ValidationState::Secure);
    }

    #[test]
    fn missing_ds_is_insecure() {
        // The paper's headline DNSSEC finding: signed HTTPS records whose
        // zones never uploaded DS → insecure (49.4% of signed, Table 9).
        let mut fx = full_chain_fixture(false);
        let rrset = https_rrset();
        let sigs = fx.sign("a.com", &rrset);
        assert_eq!(check(&rrset, &sigs, &mut fx), ValidationState::Insecure);
    }

    #[test]
    fn no_rrsig_is_unsigned() {
        let mut fx = full_chain_fixture(true);
        let rrset = https_rrset();
        assert_eq!(check(&rrset, &[], &mut fx), ValidationState::Unsigned);
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
        assert_eq!(check(&rrset2, &sigs, &mut fx), ValidationState::Bogus);
    }

    #[test]
    fn expired_signature_is_bogus() {
        let mut fx = full_chain_fixture(true);
        let rrset = https_rrset();
        let sigs = vec![rrsig_of(&fx.keys[&name("a.com")].sign(&rrset, 0, 50))];
        assert_eq!(check(&rrset, &sigs, &mut fx), ValidationState::Bogus);
    }

    #[test]
    fn wrong_key_ds_is_bogus() {
        let mut fx = full_chain_fixture(true);
        // Replace the child DS with one derived from a different key.
        let rogue = ZoneKeys::derive(&name("a.com"), 99);
        fx.ds.insert(name("a.com"), rogue.ds_record(300));
        let rrset = https_rrset();
        let sigs = fx.sign("a.com", &rrset);
        assert_eq!(check(&rrset, &sigs, &mut fx), ValidationState::Bogus);
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
        assert_eq!(check(&rrset, &sigs, &mut fx), ValidationState::Insecure);
    }

    #[test]
    fn sig_from_unrelated_zone_is_bogus() {
        let mut fx = full_chain_fixture(true);
        fx.add_zone("evil.org", true);
        let rrset = https_rrset(); // owner a.com
        let sigs = fx.sign("evil.org", &rrset);
        assert_eq!(check(&rrset, &sigs, &mut fx), ValidationState::Bogus);
    }

    #[test]
    fn sig_covering_wrong_type_is_unsigned() {
        let mut fx = full_chain_fixture(true);
        let a_rrset = vec![Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(1, 1, 1, 1)))];
        let sigs = fx.sign("a.com", &a_rrset);
        let https = https_rrset();
        // RRSIG covers A, not HTTPS.
        assert_eq!(check(&https, &sigs, &mut fx), ValidationState::Unsigned);
        assert_eq!(sigs[0].type_covered, RecordType::A);
    }
}
