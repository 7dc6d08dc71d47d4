//! A WHOIS-like registry attributing IP addresses to operating
//! organizations, including the BYOIP failure mode the paper calls out
//! (customers bringing their own prefixes to a cloud provider, so WHOIS
//! reports the original owner).

use std::net::{IpAddr, Ipv4Addr};

/// One WHOIS allocation: a /16-ish block and its registered org.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Network address of the block.
    pub network: Ipv4Addr,
    /// Prefix length.
    pub prefix_len: u8,
    /// Registered organization.
    pub org: String,
}

/// The WHOIS database.
#[derive(Debug, Default)]
pub struct WhoisDb {
    allocations: Vec<Allocation>,
}

impl WhoisDb {
    /// Empty database.
    pub fn new() -> WhoisDb {
        WhoisDb::default()
    }

    /// Register a block.
    pub fn allocate(&mut self, network: Ipv4Addr, prefix_len: u8, org: &str) {
        self.allocations.push(Allocation { network, prefix_len, org: org.to_string() });
    }

    /// Look up the registered org of an address (most-specific match).
    pub fn lookup(&self, ip: IpAddr) -> Option<&str> {
        let IpAddr::V4(v4) = ip else { return None };
        let addr = u32::from(v4);
        self.allocations
            .iter()
            .filter(|a| {
                let net = u32::from(a.network);
                let mask = if a.prefix_len == 0 { 0 } else { u32::MAX << (32 - a.prefix_len) };
                (addr & mask) == (net & mask)
            })
            .max_by_key(|a| a.prefix_len)
            .map(|a| a.org.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_specific_match_wins() {
        let mut db = WhoisDb::new();
        db.allocate(Ipv4Addr::new(172, 16, 0, 0), 12, "Cloud Provider");
        db.allocate(Ipv4Addr::new(172, 17, 0, 0), 24, "BYOIP Customer Org");
        assert_eq!(db.lookup("172.16.5.5".parse().unwrap()), Some("Cloud Provider"));
        // BYOIP: the /24 inside the cloud block reports the customer.
        assert_eq!(db.lookup("172.17.0.9".parse().unwrap()), Some("BYOIP Customer Org"));
        assert_eq!(db.lookup("10.0.0.1".parse().unwrap()), None);
        assert_eq!(db.lookup("::1".parse().unwrap()), None);
    }

    #[test]
    fn exact_boundaries() {
        let mut db = WhoisDb::new();
        db.allocate(Ipv4Addr::new(192, 0, 2, 0), 24, "TestNet");
        assert_eq!(db.lookup("192.0.2.0".parse().unwrap()), Some("TestNet"));
        assert_eq!(db.lookup("192.0.2.255".parse().unwrap()), Some("TestNet"));
        assert_eq!(db.lookup("192.0.3.0".parse().unwrap()), None);
    }
}
