//! The navigation engine: drives one URL load through DNS (HTTPS, A and
//! AAAA queries via the shared [`QueryEngine`]), HTTPS-RR
//! interpretation, TLS (optionally with ECH), and the profile's failover
//! behaviours, producing a typed event trace that the testbed asserts
//! on.

use crate::profile::{BrowserProfile, IpFallback, MalformedEchBehavior};
use dns_wire::{DnsName, RData, Record, RecordType, SvcbRdata};
use netsim::Network;
use resolver::QueryEngine;
use std::net::IpAddr;
use tlsech::{AlertCause, ClientHello, EchConfigList, EchExtension, InnerHello, ServerResponse};

/// URL form entered by the user (the three §5.1 variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrlScheme {
    /// `example.com` typed bare into the address bar.
    Bare,
    /// `http://example.com`.
    Http,
    /// `https://example.com`.
    Https,
}

/// One observable step of a navigation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NavEvent {
    /// A DNS query was issued.
    DnsQuery {
        /// Queried name.
        name: String,
        /// Queried type.
        qtype: RecordType,
    },
    /// A TLS connection attempt.
    TlsAttempt {
        /// Destination address.
        ip: IpAddr,
        /// Destination port.
        port: u16,
        /// Outer SNI sent.
        sni: String,
        /// Whether an ECH extension was attached.
        ech: bool,
        /// ALPN protocols offered.
        alpn: Vec<String>,
    },
    /// A plaintext HTTP connection attempt.
    HttpAttempt {
        /// Destination address.
        ip: IpAddr,
        /// Destination port (80).
        port: u16,
    },
    /// A failover action taken by the browser.
    Fallback(&'static str),
    /// The browser accepted server-provided ECH retry configs.
    EchRetry,
    /// Firefox's compatibility h2 attempt after an h3-only connection.
    H2CompatAttempt,
}

/// Why a navigation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// No usable IP address for the intended endpoint.
    NoAddress,
    /// All connection attempts failed at the network layer.
    ConnectFailed,
    /// The presented certificate did not cover the expected name
    /// (includes `ERR_ECH_FALLBACK_CERTIFICATE_INVALID`).
    CertificateInvalid,
    /// Hard failure on an unparsable ECH configuration.
    MalformedEch,
    /// TLS alert from the server (ALPN mismatch etc.).
    TlsAlert,
    /// DNS resolution failed outright.
    DnsFailure,
}

/// Final outcome of a navigation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Connected over plaintext HTTP (port 80).
    HttpOk {
        /// Address connected to.
        ip: IpAddr,
    },
    /// TLS session established.
    HttpsOk {
        /// Address connected to.
        ip: IpAddr,
        /// Port connected to.
        port: u16,
        /// Negotiated ALPN protocol (None = HTTP/1.1 without ALPN).
        alpn: Option<String>,
        /// Whether the session used (accepted) ECH.
        used_ech: bool,
    },
    /// Navigation failed.
    Failed(FailureReason),
}

/// The result of a navigation: outcome plus the full event trace.
#[derive(Debug, Clone)]
pub struct Navigation {
    /// Final outcome.
    pub outcome: Outcome,
    /// Ordered observable events.
    pub events: Vec<NavEvent>,
}

impl Navigation {
    /// Whether an HTTPS-type DNS query was issued.
    pub fn queried_https_rr(&self) -> bool {
        self.events.iter().any(|e| matches!(e, NavEvent::DnsQuery { qtype: RecordType::Https, .. }))
    }

    /// The IPs of all TLS attempts, in order.
    pub fn tls_ips(&self) -> Vec<IpAddr> {
        self.events
            .iter()
            .filter_map(|e| match e {
                NavEvent::TlsAttempt { ip, .. } => Some(*ip),
                _ => None,
            })
            .collect()
    }
}

/// A browser instance resolving through a [`QueryEngine`] and connecting
/// over the engine's simulated network.
pub struct Browser {
    profile: BrowserProfile,
    engine: QueryEngine,
    /// The advertised address of the configured recursive resolver. DNS
    /// semantics come from the engine, but the stub-to-recursive hop is
    /// still subject to this address's reachability (so tests can
    /// blackhole the resolver).
    resolver_ip: IpAddr,
}

impl Browser {
    /// Create a browser resolving through `engine`, whose recursive
    /// resolver is advertised at `resolver_ip:53`.
    pub fn new(profile: BrowserProfile, engine: QueryEngine, resolver_ip: IpAddr) -> Browser {
        Browser { profile, engine, resolver_ip }
    }

    fn network(&self) -> &Network {
        self.engine.network()
    }

    /// Load `host` with the given URL form.
    pub fn navigate(&self, host: &str, scheme: UrlScheme) -> Navigation {
        let mut events = Vec::new();
        let outcome = self.navigate_inner(host, scheme, &mut events);
        Navigation { outcome, events }
    }

    fn navigate_inner(&self, host: &str, scheme: UrlScheme, events: &mut Vec<NavEvent>) -> Outcome {
        let Ok(host_name) = DnsName::parse(host) else {
            return Outcome::Failed(FailureReason::DnsFailure);
        };

        // 1. DNS: browsers race HTTPS, A and AAAA queries for every URL
        // form (v4 preferred among the candidates, v6 appended).
        let https_answers = if self.profile.queries_https_rr {
            self.dns_query(&host_name, RecordType::Https, events)
        } else {
            Vec::new()
        };
        let host_ips = self.resolve_addrs(&host_name, events);

        let mut https_record = select_https_record(&https_answers);
        if let Some(rd) = https_record {
            if self.profile.ignores_record_without_alpn && !rd.is_alias() && rd.alpn_ids().is_none()
            {
                https_record = None;
            }
        }

        // 2. Scheme decision.
        let go_https = match scheme {
            UrlScheme::Https => true,
            UrlScheme::Bare | UrlScheme::Http => {
                https_record.is_some() && self.profile.upgrades_on_https_rr
            }
        };
        if !go_https {
            // Plaintext HTTP to the A-record address.
            let Some(ip) = host_ips.first().copied() else {
                return Outcome::Failed(FailureReason::NoAddress);
            };
            events.push(NavEvent::HttpAttempt { ip, port: 80 });
            return match self.network().stream_exchange(ip, 80, b"GET / HTTP/1.1\r\n\r\n") {
                Ok(_) => Outcome::HttpOk { ip },
                Err(_) => Outcome::Failed(FailureReason::ConnectFailed),
            };
        }

        // 3. HTTPS path.
        let Some(record) = https_record else {
            // No HTTPS RR: plain TLS to the A address on 443.
            let Some(ip) = host_ips.first().copied() else {
                return Outcome::Failed(FailureReason::NoAddress);
            };
            let alpn = vec!["h2".to_string(), "http/1.1".to_string()];
            return self.tls_connect(ip, 443, host, alpn, None, host, events, &[]);
        };
        let record = record.clone();

        if record.is_alias() {
            return self.navigate_alias(&record, host, &host_ips, events);
        }
        self.navigate_service(&record, &host_name, host, &host_ips, events)
    }

    fn navigate_alias(
        &self,
        record: &SvcbRdata,
        host: &str,
        host_ips: &[IpAddr],
        events: &mut Vec<NavEvent>,
    ) -> Outcome {
        let target_ips = if self.profile.follows_alias_target && !record.target.is_root() {
            self.resolve_addrs(&record.target, events)
        } else {
            // Chrome/Edge/Firefox: keep trying the owner name's addresses.
            host_ips.to_vec()
        };
        let Some(ip) = target_ips.first().copied() else {
            // The paper's observed failure: no IP associated with the owner.
            return Outcome::Failed(FailureReason::NoAddress);
        };
        let alpn = vec!["h2".to_string(), "http/1.1".to_string()];
        self.tls_connect(ip, 443, host, alpn, None, host, events, &target_ips[1..])
    }

    #[allow(clippy::too_many_arguments)]
    fn navigate_service(
        &self,
        record: &SvcbRdata,
        host_name: &DnsName,
        host: &str,
        host_ips: &[IpAddr],
        events: &mut Vec<NavEvent>,
    ) -> Outcome {
        // Endpoint selection (TargetName).
        let endpoint_name = if !record.target.is_root() && self.profile.follows_service_target {
            record.target.clone()
        } else {
            host_name.clone()
        };

        // Address candidates: A records of the endpoint vs IP hints.
        let endpoint_ips: Vec<IpAddr> = if endpoint_name.key() == host.to_ascii_lowercase() {
            host_ips.to_vec()
        } else {
            self.resolve_addrs(&endpoint_name, events)
        };
        let hint_ips: Vec<IpAddr> = record
            .ipv4hint()
            .map(|v| v.iter().map(|a| IpAddr::V4(*a)).collect())
            .unwrap_or_default();

        let (primary, secondary) = if self.profile.prefers_ip_hints && !hint_ips.is_empty() {
            (hint_ips.clone(), endpoint_ips.clone())
        } else if !endpoint_ips.is_empty() {
            (endpoint_ips.clone(), hint_ips.clone())
        } else {
            (hint_ips.clone(), Vec::new())
        };
        let Some(first_ip) = primary.first().copied() else {
            return Outcome::Failed(FailureReason::NoAddress);
        };

        // Port.
        let advertised_port = record.port();
        let port = if self.profile.uses_port_param { advertised_port.unwrap_or(443) } else { 443 };

        // ALPN offer: the record's protocols intersected with support.
        let alpn: Vec<String> = match record.alpn() {
            Some(ids) => ids
                .into_iter()
                .filter(|p| self.profile.supported_alpn.contains(&p.as_ref()))
                .map(|p| p.into_owned())
                .collect(),
            None => vec!["h2".to_string(), "http/1.1".to_string()],
        };

        // ECH.
        let mut ech_config: Option<EchConfigList> = None;
        if let Some(bytes) = record.ech() {
            if self.profile.supports_ech {
                match EchConfigList::decode(bytes) {
                    Some(list) => ech_config = Some(list),
                    None => match self.profile.malformed_ech {
                        MalformedEchBehavior::HardFail => {
                            return Outcome::Failed(FailureReason::MalformedEch);
                        }
                        MalformedEchBehavior::Ignore => {
                            events.push(NavEvent::Fallback("ignored malformed ECH config"));
                        }
                    },
                }
            }
        }

        // Split-mode-aware connection target.
        let (connect_ip, fallback_ips): (IpAddr, Vec<IpAddr>) = match &ech_config {
            Some(list)
                if self.profile.supports_ech_split_mode
                    && list.preferred().public_name != endpoint_name =>
            {
                // Correct split-mode behaviour: resolve the public name and
                // connect to the client-facing server.
                let ips = self.resolve_addrs(&list.preferred().public_name, events);
                match ips.first().copied() {
                    Some(ip) => (ip, ips[1..].to_vec()),
                    None => return Outcome::Failed(FailureReason::NoAddress),
                }
            }
            _ => (first_ip, secondary.clone()),
        };

        // First attempt (with failovers inside).
        let outcome = self.tls_connect_with_fallbacks(
            connect_ip,
            port,
            host,
            alpn.clone(),
            ech_config.as_ref(),
            events,
            &fallback_ips,
            advertised_port,
        );

        // Firefox compatibility: after an h3-only success, race an h2
        // connection as well.
        if self.profile.h3_then_h2_compat {
            if let Outcome::HttpsOk { alpn: Some(p), .. } = &outcome {
                if p == "h3" && alpn.iter().all(|a| a == "h3") {
                    events.push(NavEvent::H2CompatAttempt);
                }
            }
        }
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn tls_connect_with_fallbacks(
        &self,
        ip: IpAddr,
        port: u16,
        host: &str,
        alpn: Vec<String>,
        ech: Option<&EchConfigList>,
        events: &mut Vec<NavEvent>,
        fallback_ips: &[IpAddr],
        advertised_port: Option<u16>,
    ) -> Outcome {
        let first = self.tls_connect(ip, port, host, alpn.clone(), ech, host, events, fallback_ips);
        // Port failover: if the advertised port failed at connect level,
        // Safari/Firefox retry on 443.
        if let Outcome::Failed(FailureReason::ConnectFailed) = first {
            if self.profile.port_fallback && advertised_port.is_some() && port != 443 {
                events.push(NavEvent::Fallback("port fallback to 443"));
                return self.tls_connect(ip, 443, host, alpn, ech, host, events, fallback_ips);
            }
        }
        first
    }

    /// One TLS connection attempt (plus intra-call IP failover and ECH
    /// fallback/retry logic).
    #[allow(clippy::too_many_arguments)]
    fn tls_connect(
        &self,
        ip: IpAddr,
        port: u16,
        host: &str,
        alpn: Vec<String>,
        ech: Option<&EchConfigList>,
        inner_host: &str,
        events: &mut Vec<NavEvent>,
        fallback_ips: &[IpAddr],
    ) -> Outcome {
        let hello = match ech {
            Some(list) => {
                let cfg = list.preferred();
                let inner = InnerHello { sni: inner_host.to_string(), alpn: alpn.clone() };
                let sealed = cfg.public_key.seal(cfg.public_name.key().as_bytes(), &inner.encode());
                ClientHello {
                    sni: cfg.public_name.key(),
                    alpn: alpn.clone(),
                    ech: Some(EchExtension { config_id: cfg.config_id, sealed_inner: sealed }),
                }
            }
            None => ClientHello::plain(host, alpn.clone()),
        };
        events.push(NavEvent::TlsAttempt {
            ip,
            port,
            sni: hello.sni.clone(),
            ech: hello.ech.is_some(),
            alpn: alpn.clone(),
        });

        let resp_bytes = match self.network().stream_exchange(ip, port, &hello.encode()) {
            Ok(b) => b,
            Err(_) => {
                // IP failover per profile.
                match self.profile.ip_fallback {
                    IpFallback::HardFail => return Outcome::Failed(FailureReason::ConnectFailed),
                    IpFallback::Immediate | IpFallback::Delayed => {
                        if let Some(next) = fallback_ips.first().copied() {
                            events.push(NavEvent::Fallback(
                                if self.profile.ip_fallback == IpFallback::Immediate {
                                    "immediate IP failover"
                                } else {
                                    "delayed IP failover"
                                },
                            ));
                            return self.tls_connect(
                                next,
                                port,
                                host,
                                alpn,
                                ech,
                                inner_host,
                                events,
                                &fallback_ips[1..],
                            );
                        }
                        return Outcome::Failed(FailureReason::ConnectFailed);
                    }
                }
            }
        };
        let Some(resp) = ServerResponse::decode(&resp_bytes) else {
            return Outcome::Failed(FailureReason::TlsAlert);
        };
        self.handle_response(resp, ip, port, host, alpn, ech, events)
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_response(
        &self,
        resp: ServerResponse,
        ip: IpAddr,
        port: u16,
        host: &str,
        alpn: Vec<String>,
        ech: Option<&EchConfigList>,
        events: &mut Vec<NavEvent>,
    ) -> Outcome {
        match resp {
            ServerResponse::Accepted { cert_name, alpn: negotiated, used_ech, served_sni: _ } => {
                if let (Some(list), false) = (ech, used_ech) {
                    // The server did not accept our ECH (unilateral
                    // deployment, or split-mode misdelivery). Per the
                    // draft, validate the certificate against the OUTER
                    // name; on success retry without ECH, otherwise it is
                    // the ECH-fallback certificate error.
                    let outer = &list.preferred().public_name;
                    if cert_name == *outer {
                        events.push(NavEvent::Fallback("ECH not accepted; standard TLS retry"));
                        return self.tls_connect(ip, port, host, alpn, None, host, events, &[]);
                    }
                    return Outcome::Failed(FailureReason::CertificateInvalid);
                }
                // Normal certificate validation against the target host.
                let expected = DnsName::parse(host).ok();
                if expected.map(|e| e != cert_name).unwrap_or(true) {
                    return Outcome::Failed(FailureReason::CertificateInvalid);
                }
                Outcome::HttpsOk { ip, port, alpn: negotiated, used_ech }
            }
            ServerResponse::EchRetry { retry_configs, .. } => {
                if !self.profile.supports_ech_retry {
                    return Outcome::Failed(FailureReason::TlsAlert);
                }
                let Some(list) = EchConfigList::decode(&retry_configs) else {
                    return Outcome::Failed(FailureReason::TlsAlert);
                };
                events.push(NavEvent::EchRetry);
                self.tls_connect(ip, port, host, alpn, Some(&list), host, events, &[])
            }
            ServerResponse::Alert(cause) => Outcome::Failed(match cause {
                AlertCause::CertificateInvalid => FailureReason::CertificateInvalid,
                _ => FailureReason::TlsAlert,
            }),
        }
    }

    /// Issue one DNS query through the engine, returning the answer
    /// records — the traversed CNAME chain followed by the final RRset —
    /// or empty on failure. The stub-to-recursive hop approximates the
    /// removed on-wire path: the query fails (empty answers) when the
    /// resolver's advertised address is blackholed or nothing listens
    /// at `resolver_ip:53`; unlike the wire path, the hop itself is not
    /// counted in [`netsim::TrafficStats`].
    fn dns_query(
        &self,
        name: &DnsName,
        qtype: RecordType,
        events: &mut Vec<NavEvent>,
    ) -> Vec<Record> {
        events.push(NavEvent::DnsQuery { name: name.key(), qtype });
        if self.network().can_connect(self.resolver_ip, 53).is_err() {
            return Vec::new();
        }
        match self.engine.resolve(name, qtype) {
            Ok(res) => {
                let mut records = res.chain;
                records.extend(res.records.to_records());
                records
            }
            Err(_) => Vec::new(),
        }
    }

    /// Resolve the address candidates for `name`: A records first (every
    /// simulated web endpoint is v4), then AAAA records.
    fn resolve_addrs(&self, name: &DnsName, events: &mut Vec<NavEvent>) -> Vec<IpAddr> {
        let mut ips = a_ips(&self.dns_query(name, RecordType::A, events));
        ips.extend(self.dns_query(name, RecordType::Aaaa, events).iter().filter_map(|r| {
            match &r.rdata {
                RData::Aaaa(a) => Some(IpAddr::V6(*a)),
                _ => None,
            }
        }));
        ips
    }
}

/// Pick the HTTPS record a client would use: lowest-priority ServiceMode
/// record, else an AliasMode record.
fn select_https_record(answers: &[Record]) -> Option<&SvcbRdata> {
    let rdatas: Vec<&SvcbRdata> = answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Https(rd) => Some(rd),
            _ => None,
        })
        .collect();
    rdatas
        .iter()
        .filter(|rd| !rd.is_alias())
        .min_by_key(|rd| rd.priority)
        .or_else(|| rdatas.iter().find(|rd| rd.is_alias()))
        .copied()
}

fn a_ips(records: &[Record]) -> Vec<IpAddr> {
    records
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::A(a) => Some(IpAddr::V4(*a)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::SvcParam;

    fn https_rec(rd: SvcbRdata) -> Record {
        Record::new(DnsName::parse("a.com").unwrap(), 60, RData::Https(rd))
    }

    #[test]
    fn record_selection_prefers_low_priority_service_mode() {
        let answers = vec![
            https_rec(SvcbRdata { priority: 2, target: DnsName::root(), params: vec![] }),
            https_rec(SvcbRdata { priority: 1, target: DnsName::root(), params: vec![] }),
            https_rec(SvcbRdata::alias(DnsName::parse("b.com").unwrap())),
        ];
        assert_eq!(select_https_record(&answers).unwrap().priority, 1);
    }

    #[test]
    fn record_selection_falls_back_to_alias() {
        let answers = vec![https_rec(SvcbRdata::alias(DnsName::parse("b.com").unwrap()))];
        assert!(select_https_record(&answers).unwrap().is_alias());
        assert!(select_https_record(&[]).is_none());
    }

    #[test]
    fn a_ip_extraction_ignores_other_types() {
        let recs = vec![
            Record::new(DnsName::parse("a.com").unwrap(), 60, RData::A("1.2.3.4".parse().unwrap())),
            https_rec(SvcbRdata::service_self(vec![SvcParam::Port(443)])),
        ];
        assert_eq!(a_ips(&recs), vec!["1.2.3.4".parse::<IpAddr>().unwrap()]);
    }
}
