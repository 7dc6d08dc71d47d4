//! Special-purpose scans beyond the daily snapshot: the §4.4.2 hourly
//! ECH scan (key-rotation measurement) and the §4.3.5 connectivity probe
//! (TLS handshakes to every address of hint/A-mismatched domains).

use dns_wire::svcb::key;
use dns_wire::{DnsName, RData, RecordType, RecordView, SvcbView};
use ecosystem::World;
use resolver::{RecursiveResolver, ResolverConfig};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use tlsech::{ClientHello, ServerResponse};

/// One hourly ECH observation: which config a domain advertised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchObservation {
    /// Hour index since the scan window start.
    pub hour: u32,
    /// Domain universe id.
    pub domain_id: u32,
    /// Hash of the ECHConfigList bytes (identifies the config).
    pub config_hash: u64,
}

/// Run hourly HTTPS scans for `window_hours`, recording each domain's
/// advertised ECH config. `sample` limits how many ECH-bearing domains
/// are scanned each hour.
pub fn hourly_ech_scan(world: &mut World, window_hours: u64, sample: usize) -> Vec<EchObservation> {
    let resolver = RecursiveResolver::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig { validate: false, ..Default::default() },
    );
    let targets: Vec<(u32, DnsName)> = world
        .domains
        .iter()
        .filter(|d| d.ech_enabled && world.publishes_today(d))
        .take(sample)
        .map(|d| (d.id, d.apex.clone()))
        .collect();

    let mut out = Vec::new();
    for hour in 0..window_hours {
        world.advance_hours(1);
        for (id, apex) in &targets {
            let Ok(res) = resolver.resolve(apex, RecordType::Https) else { continue };
            for rd in res.records.records().filter_map(|rec| https_view(&rec)) {
                if let Some(ech) = rd.param(key::ECH) {
                    out.push(EchObservation {
                        hour: hour as u32,
                        domain_id: *id,
                        config_hash: simcrypto::siphash::siphash24(&[1u8; 16], [ech]),
                    });
                }
            }
        }
    }
    out
}

/// The HTTPS RDATA of an answer record, read in place; `None` for a
/// record of another type.
fn https_view<'a>(rec: &RecordView<'a>) -> Option<SvcbView<'a>> {
    (rec.rtype() == RecordType::Https).then(|| rec.svcb().ok()).flatten()
}

/// Result of probing one mismatched domain's addresses (§4.3.5).
#[derive(Debug, Clone)]
pub struct ConnectivityReport {
    /// Domain universe id.
    pub domain_id: u32,
    /// Day of the probe.
    pub day: u64,
    /// Addresses from the IP hints, with reachability.
    pub hint_results: Vec<(Ipv4Addr, bool)>,
    /// Addresses from the A RRset, with reachability.
    pub a_results: Vec<(Ipv4Addr, bool)>,
}

impl ConnectivityReport {
    /// At least one probed address was unreachable.
    pub fn any_unreachable(&self) -> bool {
        self.hint_results.iter().chain(&self.a_results).any(|(_, ok)| !ok)
    }

    /// Reachable only via the hint addresses.
    pub fn hint_only(&self) -> bool {
        self.hint_results.iter().any(|(_, ok)| *ok) && self.a_results.iter().all(|(_, ok)| !ok)
    }

    /// Reachable only via the A addresses.
    pub fn a_only(&self) -> bool {
        self.a_results.iter().any(|(_, ok)| *ok) && self.hint_results.iter().all(|(_, ok)| !ok)
    }
}

/// Probe every currently hint/A-mismatched domain: resolve HTTPS + A,
/// then attempt a TLS handshake with each distinct address.
pub fn connectivity_probe(world: &World) -> Vec<ConnectivityReport> {
    let resolver = Arc::new(RecursiveResolver::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig { validate: false, ..Default::default() },
    ));
    let mut reports = Vec::new();
    for d in &world.domains {
        if !world.publishes_today(d) || !d.hint_mismatch() {
            continue;
        }
        let Ok(https) = resolver.resolve(&d.apex, RecordType::Https) else { continue };
        let hints: Vec<Ipv4Addr> = https
            .records
            .records()
            .filter_map(|rec| https_view(&rec)?.ipv4hint())
            .flatten()
            .collect();
        let Ok(a) = resolver.resolve(&d.apex, RecordType::A) else { continue };
        let a_ips: Vec<Ipv4Addr> = a
            .records
            .records()
            .filter_map(|rec| match rec.rdata() {
                Ok(RData::A(ip)) => Some(ip),
                _ => None,
            })
            .collect();
        if hints.is_empty() || hints == a_ips {
            continue;
        }
        let probe = |ip: Ipv4Addr| -> bool {
            let hello = ClientHello::plain(&d.apex.key(), vec!["h2".into()]);
            match world.network.stream_exchange(IpAddr::V4(ip), 443, &hello.encode()) {
                Ok(bytes) => {
                    matches!(ServerResponse::decode(&bytes), Some(ServerResponse::Accepted { .. }))
                }
                Err(_) => false,
            }
        };
        reports.push(ConnectivityReport {
            domain_id: d.id,
            day: world.current_day,
            hint_results: hints.iter().map(|&ip| (ip, probe(ip))).collect(),
            a_results: a_ips.iter().map(|&ip| (ip, probe(ip))).collect(),
        });
    }
    reports
}
