//! The delegation registry: which name servers (by name and IP) are
//! authoritative for which zone apex.
//!
//! This stands in for full root/TLD referral chasing: resolvers consult
//! the registry to find the NS set of the deepest enclosing zone, then
//! query those servers directly. Parent-zone information (needed for the
//! DNSSEC DS lookup) is derived by walking apex ancestors in the same
//! registry.

use dns_wire::{DnsName, NameBuildHasher};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use std::sync::Arc;

/// One authoritative name-server endpoint for a zone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NsEndpoint {
    /// The NS host name (e.g. `amir.ns.cloudflare.com.`).
    pub name: DnsName,
    /// Its address on the simulated network.
    pub ip: IpAddr,
}

#[derive(Default)]
struct RegistryState {
    /// Keyed by the apex itself (its `Hash`/`Eq` fold case) and probed
    /// by borrowed suffixes, hashed once per ancestor.
    delegations: HashMap<DnsName, Arc<[NsEndpoint]>, NameBuildHasher>,
    /// Every distinct endpoint list ever delegated, once: the zones of
    /// one provider (or one mixed provider pair) share its allocation.
    /// Lists are few (one per NS set), so none is ever dropped.
    lists: HashSet<Arc<[NsEndpoint]>>,
}

/// Shared registry of zone delegations.
#[derive(Clone, Default)]
pub struct DelegationRegistry {
    state: Arc<RwLock<RegistryState>>,
}

impl DelegationRegistry {
    /// Empty registry.
    pub fn new() -> DelegationRegistry {
        DelegationRegistry::default()
    }

    /// Set (replace) the NS endpoints for a zone apex. A list equal to
    /// one delegated before shares that one's allocation; only a list
    /// not seen before is copied.
    pub fn delegate(&self, apex: &DnsName, endpoints: &[NsEndpoint]) {
        let mut st = self.state.write();
        let list = match st.lists.get(endpoints) {
            Some(list) => Arc::clone(list),
            None => {
                let list: Arc<[NsEndpoint]> = endpoints.into();
                st.lists.insert(Arc::clone(&list));
                list
            }
        };
        st.delegations.insert(apex.clone(), list);
    }

    /// Remove a delegation entirely (the §4.2.3 "no NS records" case).
    pub fn undelegate(&self, apex: &DnsName) -> bool {
        self.state.write().delegations.remove(apex).is_some()
    }

    /// NS endpoints for exactly this apex.
    pub fn endpoints_of(&self, apex: &DnsName) -> Option<Arc<[NsEndpoint]>> {
        self.state.read().delegations.get(apex).cloned()
    }

    /// Find the deepest delegated zone containing `name`, returning
    /// `(zone apex, endpoints)`. The walk probes borrowed suffixes of
    /// `name`; the apex is the hit's suffix, sharing `name`'s buffer and
    /// spelling, and the endpoints are the registry's own list (shared by
    /// every zone with the same NS set), so a lookup allocates nothing
    /// and costs two reference counts however deep the name and however
    /// many servers the zone has.
    pub fn find_authority(&self, name: &DnsName) -> Option<(DnsName, Arc<[NsEndpoint]>)> {
        let st = self.state.read();
        name.find_ancestor(|apex| st.delegations.get(apex.as_key()).cloned())
    }

    /// Find the authority for the *parent* of `apex` — where the DS
    /// record for `apex` lives.
    pub fn find_parent_authority(&self, apex: &DnsName) -> Option<(DnsName, Arc<[NsEndpoint]>)> {
        self.find_authority(&apex.parent()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn ep(ns: &str, ip: &str) -> NsEndpoint {
        NsEndpoint { name: name(ns), ip: ip.parse().unwrap() }
    }

    #[test]
    fn deepest_delegation_wins() {
        let reg = DelegationRegistry::new();
        reg.delegate(&DnsName::root(), &[ep("a.root-servers.net", "198.41.0.4")]);
        reg.delegate(&name("com"), &[ep("a.gtld-servers.net", "192.5.6.30")]);
        reg.delegate(&name("a.com"), &[ep("ns1.cloudflare.com", "173.245.58.1")]);

        let (apex, eps) = reg.find_authority(&name("www.a.com")).unwrap();
        assert_eq!(apex, name("a.com"));
        assert_eq!(eps.len(), 1);

        let (apex, _) = reg.find_authority(&name("b.com")).unwrap();
        assert_eq!(apex, name("com"));

        let (apex, _) = reg.find_authority(&name("x.org")).unwrap();
        assert_eq!(apex, DnsName::root());
    }

    #[test]
    fn apex_of_key_agrees_with_find_authority() {
        // The registry used to be keyed by the dotted key and walked its
        // dot-suffixes; walking a name's parents must find the same apex.
        let reg = DelegationRegistry::new();
        reg.delegate(&DnsName::root(), &[ep("a.root-servers.net", "198.41.0.4")]);
        reg.delegate(&name("com"), &[ep("a.gtld-servers.net", "192.5.6.30")]);
        reg.delegate(&name("a.com"), &[ep("ns1.cloudflare.com", "173.245.58.1")]);
        let apexes = [".", "a.com", "com"];

        for n in ["www.a.com", "WWW.A.Com", "a.com", "b.com", "x.org", "."] {
            let key = name(n).key();
            let by_suffix = std::iter::successors(Some(key.as_str()), |k| {
                k.split_once('.').map(|(_, rest)| rest).filter(|rest| !rest.is_empty())
            })
            .chain(["."])
            .find(|k| apexes.iter().any(|a| a == k));
            let by_parent = reg.find_authority(&name(n)).map(|(apex, _)| apex.key());
            assert_eq!(by_suffix.map(str::to_string), by_parent, "name {n}");
        }

        let empty = DelegationRegistry::new();
        assert!(empty.find_authority(&name("www.a.com")).is_none());
        assert!(empty.find_authority(&DnsName::root()).is_none());
    }

    #[test]
    fn parent_authority_for_ds() {
        let reg = DelegationRegistry::new();
        reg.delegate(&DnsName::root(), &[ep("a.root-servers.net", "198.41.0.4")]);
        reg.delegate(&name("com"), &[ep("a.gtld-servers.net", "192.5.6.30")]);
        reg.delegate(&name("a.com"), &[ep("ns1.cloudflare.com", "173.245.58.1")]);

        let (apex, _) = reg.find_parent_authority(&name("a.com")).unwrap();
        assert_eq!(apex, name("com"));
        let (apex, _) = reg.find_parent_authority(&name("com")).unwrap();
        assert_eq!(apex, DnsName::root());
        assert!(reg.find_parent_authority(&DnsName::root()).is_none());
    }

    #[test]
    fn undelegate_removes() {
        let reg = DelegationRegistry::new();
        reg.delegate(&name("a.com"), &[ep("ns1.x.net", "1.1.1.1")]);
        assert!(reg.undelegate(&name("a.com")));
        assert!(!reg.undelegate(&name("a.com")));
        assert!(reg.find_authority(&name("a.com")).is_none());
    }

    #[test]
    fn multiple_endpoints_preserved_in_order() {
        let reg = DelegationRegistry::new();
        let eps = vec![ep("ns1.x.net", "1.1.1.1"), ep("ns2.y.net", "2.2.2.2")];
        reg.delegate(&name("a.com"), &eps);
        assert_eq!(reg.endpoints_of(&name("a.com")).unwrap()[..], eps[..]);
    }

    #[test]
    fn equal_endpoint_lists_share_one_allocation() {
        let reg = DelegationRegistry::new();
        let provider = || vec![ep("ns1.x.net", "1.1.1.1"), ep("ns2.x.net", "2.2.2.2")];
        let (a, b, c) = (name("a.com"), name("b.com"), name("c.com"));
        reg.delegate(&a, &provider());
        reg.delegate(&b, &provider());
        reg.delegate(&c, &[ep("ns1.y.net", "3.3.3.3")]);
        let first = reg.endpoints_of(&a).unwrap();
        assert!(Arc::ptr_eq(&first, &reg.endpoints_of(&b).unwrap()));
        assert!(!Arc::ptr_eq(&first, &reg.endpoints_of(&c).unwrap()));

        // The list outlives every zone delegated to it.
        assert!(reg.undelegate(&a));
        assert!(reg.undelegate(&b));
        reg.delegate(&a, &provider());
        assert!(Arc::ptr_eq(&first, &reg.endpoints_of(&a).unwrap()));

        // Order is part of the list: a reordered set is its own.
        reg.delegate(&b, &provider().into_iter().rev().collect::<Vec<_>>());
        assert!(!Arc::ptr_eq(&first, &reg.endpoints_of(&b).unwrap()));
    }
}
