//! Direct-to-authority consistency scan (§4.2.3's supplementary
//! experiment): bypass recursive resolvers and query every delegated
//! name server of a domain directly, detecting NS sets that *disagree*
//! about the HTTPS record — the root cause of resolver-dependent
//! intermittent records.
//!
//! A test oracle over public API only (`World::registry`,
//! `Network::send_datagram`, `MessageView`): no report or command runs
//! it, so it lives with the tests that do, included by `#[path]`.

use dns_wire::{DnsName, Message, MessageView, RecordType};
use ecosystem::World;
use std::sync::atomic::{AtomicU16, Ordering};

/// Per-endpoint result of a direct authority query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointAnswer {
    /// NS host name.
    pub ns_name: String,
    /// Number of HTTPS records returned (0 = none / NODATA).
    pub https_records: usize,
    /// Whether the endpoint answered at all.
    pub responded: bool,
}

/// A domain whose authoritative servers disagree about the HTTPS RRset.
#[derive(Debug, Clone)]
pub struct AuthorityDisagreement {
    /// Universe domain id.
    pub domain_id: u32,
    /// Apex name.
    pub apex: String,
    /// Per-endpoint answers.
    pub answers: Vec<EndpointAnswer>,
}

impl AuthorityDisagreement {
    /// Endpoints that served the HTTPS record.
    pub fn serving(&self) -> Vec<&str> {
        self.answers.iter().filter(|a| a.https_records > 0).map(|a| a.ns_name.as_str()).collect()
    }

    /// Endpoints that answered but without the HTTPS record.
    pub fn not_serving(&self) -> Vec<&str> {
        self.answers
            .iter()
            .filter(|a| a.responded && a.https_records == 0)
            .map(|a| a.ns_name.as_str())
            .collect()
    }
}

/// Query every delegated NS endpoint of every listed domain directly and
/// return the domains whose endpoints disagree about the HTTPS record.
pub fn authority_consistency_scan(world: &World) -> Vec<AuthorityDisagreement> {
    let next_id = AtomicU16::new(1);
    let mut out = Vec::new();
    for &id in world.today_list().ranked() {
        let d = world.domain(id);
        if let Some(report) = probe_domain(world, &d.apex, id, &next_id) {
            out.push(report);
        }
    }
    out
}

/// Probe a single apex across all its delegated endpoints.
pub fn probe_domain(
    world: &World,
    apex: &DnsName,
    domain_id: u32,
    next_id: &AtomicU16,
) -> Option<AuthorityDisagreement> {
    let endpoints = world.registry.endpoints_of(apex)?;
    if endpoints.len() < 2 {
        return None;
    }
    let mut answers = Vec::with_capacity(endpoints.len());
    for ep in endpoints.iter() {
        let qid = next_id.fetch_add(1, Ordering::Relaxed);
        let query = Message::query(qid, apex.clone(), RecordType::Https);
        let answer = match world.network.send_datagram(ep.ip, 53, &query.encode()) {
            // Only the answer-section HTTPS count matters here, so a
            // borrowed view suffices: no rdata is ever decoded.
            Ok(bytes) => match MessageView::parse(&bytes) {
                Ok(resp) => EndpointAnswer {
                    ns_name: ep.name.key(),
                    https_records: resp
                        .answers()
                        .filter(|r| r.rtype() == RecordType::Https)
                        .count(),
                    responded: true,
                },
                Err(_) => {
                    EndpointAnswer { ns_name: ep.name.key(), https_records: 0, responded: false }
                }
            },
            Err(_) => EndpointAnswer { ns_name: ep.name.key(), https_records: 0, responded: false },
        };
        answers.push(answer);
    }
    let serving = answers.iter().filter(|a| a.https_records > 0).count();
    let denying = answers.iter().filter(|a| a.responded && a.https_records == 0).count();
    if serving > 0 && denying > 0 {
        Some(AuthorityDisagreement { domain_id, apex: apex.key(), answers })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::EcosystemConfig;

    #[test]
    fn finds_mixed_provider_disagreements() {
        let world = ecosystem::World::build(EcosystemConfig::tiny());
        let reports = authority_consistency_scan(&world);
        // The tiny config guarantees mixed-NS domains; those that are
        // currently publishing disagree across their endpoints.
        let truth: Vec<u32> = world
            .domains
            .iter()
            .filter(|d| d.secondary_provider.is_some() && world.publishes_today(d))
            .map(|d| d.id)
            .collect();
        if truth.is_empty() {
            // Seed produced no *publishing* mixed domain on the list today;
            // nothing to assert beyond "no false positives" below.
            assert!(reports.is_empty());
            return;
        }
        let found: Vec<u32> = reports.iter().map(|r| r.domain_id).collect();
        for id in &truth {
            if world.today_list().rank_of(*id).is_some() {
                assert!(found.contains(id), "mixed domain {id} not flagged");
            }
        }
        for r in &reports {
            assert!(!r.serving().is_empty());
            assert!(!r.not_serving().is_empty());
            // Every flagged domain is genuinely mixed-provider.
            let d = world.domain(r.domain_id);
            assert!(d.secondary_provider.is_some(), "false positive on {}", r.apex);
        }
    }

    #[test]
    fn consistent_domains_not_flagged() {
        let world = ecosystem::World::build(EcosystemConfig::tiny());
        let reports = authority_consistency_scan(&world);
        for d in &world.domains {
            if d.secondary_provider.is_none() {
                assert!(
                    !reports.iter().any(|r| r.domain_id == d.id),
                    "single-provider domain {} flagged",
                    d.apex
                );
            }
        }
    }
}
