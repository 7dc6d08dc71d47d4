//! The navigation engine: drives one URL load through DNS (HTTPS, A and
//! AAAA queries, each one datagram to the browser's recursive resolver
//! over the simulated network), HTTPS-RR interpretation, TLS (optionally
//! with ECH), and the profile's failover behaviours, producing a typed
//! event trace that the testbed asserts on.

use crate::profile::{BrowserProfile, IpFallback, MalformedEchBehavior};
use dns_wire::{DnsName, Message, RData, Record, RecordType, SvcbRdata};
use netsim::Network;
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

/// A browser instance: it asks its recursive resolver every DNS
/// question over the simulated network, and connects over that network.
pub struct Browser {
    profile: BrowserProfile,
    network: Network,
    /// The configured recursive resolver, asked at port 53.
    resolver_ip: IpAddr,
}

impl Browser {
    /// Create a browser on `network` whose recursive resolver listens at
    /// `resolver_ip:53`.
    pub fn new(profile: BrowserProfile, network: Network, resolver_ip: IpAddr) -> Browser {
        Browser { profile, network, resolver_ip }
    }

    /// Load `host` with the given URL form.
    pub fn navigate(&self, host: &str, scheme: UrlScheme) -> Navigation {
        let mut visit = Visit { browser: self, host, events: Vec::new() };
        let outcome = visit.run(scheme);
        Navigation { outcome, events: visit.events }
    }
}

/// The ALPN offer when no HTTPS record names the protocols.
fn default_alpn() -> Vec<String> {
    vec!["h2".to_string(), "http/1.1".to_string()]
}

/// One navigation in progress: the browser, the host it loads (the SNI,
/// inner SNI under ECH, and the name the certificate must cover) and
/// the events observed so far.
struct Visit<'a> {
    browser: &'a Browser,
    host: &'a str,
    events: Vec<NavEvent>,
}

impl<'a> Visit<'a> {
    fn profile(&self) -> &'a BrowserProfile {
        &self.browser.profile
    }

    fn run(&mut self, scheme: UrlScheme) -> Outcome {
        let Ok(host_name) = DnsName::parse(self.host) else {
            return Outcome::Failed(FailureReason::DnsFailure);
        };
        let profile = self.profile();

        // 1. DNS: browsers race HTTPS, A and AAAA queries for every URL
        // form (v4 preferred among the candidates, v6 appended).
        let https_answers = if profile.queries_https_rr {
            self.dns_query(&host_name, RecordType::Https)
        } else {
            Vec::new()
        };
        let host_ips = self.resolve_addrs(&host_name);
        let record = select_https_record(&https_answers).filter(|rd| {
            !(profile.ignores_record_without_alpn && !rd.is_alias() && rd.alpn_ids().is_none())
        });

        // 2. Scheme decision.
        let go_https = match scheme {
            UrlScheme::Https => true,
            UrlScheme::Bare | UrlScheme::Http => record.is_some() && profile.upgrades_on_https_rr,
        };
        if !go_https {
            // Plaintext HTTP to the A-record address.
            let Some(ip) = host_ips.first().copied() else {
                return Outcome::Failed(FailureReason::NoAddress);
            };
            self.events.push(NavEvent::HttpAttempt { ip, port: 80 });
            return match self.browser.network.stream_exchange(ip, 80, b"GET / HTTP/1.1\r\n\r\n") {
                Ok(_) => Outcome::HttpOk { ip },
                Err(_) => Outcome::Failed(FailureReason::ConnectFailed),
            };
        }

        // 3. HTTPS path.
        match record {
            // No HTTPS RR: plain TLS to the A address on 443.
            None => match host_ips.first().copied() {
                Some(ip) => self.tls_connect(ip, 443, &default_alpn(), None, &[]),
                None => Outcome::Failed(FailureReason::NoAddress),
            },
            Some(record) if record.is_alias() => self.alias(record, &host_ips),
            Some(record) => self.service(record, &host_name, &host_ips),
        }
    }

    fn alias(&mut self, record: &SvcbRdata, host_ips: &[IpAddr]) -> Outcome {
        let target_ips = if self.profile().follows_alias_target && !record.target.is_root() {
            self.resolve_addrs(&record.target)
        } else {
            // Chrome/Edge/Firefox: keep trying the owner name's addresses.
            host_ips.to_vec()
        };
        let Some(ip) = target_ips.first().copied() else {
            // The paper's observed failure: no IP associated with the owner.
            return Outcome::Failed(FailureReason::NoAddress);
        };
        self.tls_connect(ip, 443, &default_alpn(), None, &target_ips[1..])
    }

    fn service(&mut self, record: &SvcbRdata, host_name: &DnsName, host_ips: &[IpAddr]) -> Outcome {
        let profile = self.profile();

        // Endpoint selection (TargetName).
        let endpoint_name = if !record.target.is_root() && profile.follows_service_target {
            record.target.clone()
        } else {
            host_name.clone()
        };

        // Address candidates: A records of the endpoint vs IP hints.
        let endpoint_ips: Vec<IpAddr> = if endpoint_name.key() == self.host.to_ascii_lowercase() {
            host_ips.to_vec()
        } else {
            self.resolve_addrs(&endpoint_name)
        };
        let hint_ips: Vec<IpAddr> = record
            .ipv4hint()
            .map(|v| v.iter().map(|a| IpAddr::V4(*a)).collect())
            .unwrap_or_default();

        let (primary, secondary) = if profile.prefers_ip_hints && !hint_ips.is_empty() {
            (hint_ips, endpoint_ips)
        } else if !endpoint_ips.is_empty() {
            (endpoint_ips, hint_ips)
        } else {
            (hint_ips, Vec::new())
        };
        let Some(first_ip) = primary.first().copied() else {
            return Outcome::Failed(FailureReason::NoAddress);
        };

        // Port.
        let port = if profile.uses_port_param { record.port().unwrap_or(443) } else { 443 };

        // ALPN offer: the record's protocols intersected with support.
        let alpn: Vec<String> = match record.alpn() {
            Some(ids) => ids
                .into_iter()
                .filter(|p| profile.supported_alpn.contains(&p.as_ref()))
                .map(|p| p.into_owned())
                .collect(),
            None => default_alpn(),
        };

        // ECH.
        let mut ech_config: Option<EchConfigList> = None;
        if let Some(bytes) = record.ech() {
            if profile.supports_ech {
                match EchConfigList::decode(bytes) {
                    Some(list) => ech_config = Some(list),
                    None => match profile.malformed_ech {
                        MalformedEchBehavior::HardFail => {
                            return Outcome::Failed(FailureReason::MalformedEch);
                        }
                        MalformedEchBehavior::Ignore => {
                            self.events.push(NavEvent::Fallback("ignored malformed ECH config"));
                        }
                    },
                }
            }
        }

        // Split-mode-aware connection target.
        let (connect_ip, fallback_ips): (IpAddr, Vec<IpAddr>) = match &ech_config {
            Some(list)
                if profile.supports_ech_split_mode
                    && list.preferred().public_name != endpoint_name =>
            {
                // Correct split-mode behaviour: resolve the public name and
                // connect to the client-facing server.
                let ips = self.resolve_addrs(&list.preferred().public_name);
                match ips.first().copied() {
                    Some(ip) => (ip, ips[1..].to_vec()),
                    None => return Outcome::Failed(FailureReason::NoAddress),
                }
            }
            _ => (first_ip, secondary),
        };

        let ech = ech_config.as_ref();
        let mut outcome = self.tls_connect(connect_ip, port, &alpn, ech, &fallback_ips);
        // Port failover: if the advertised port failed at connect level,
        // Safari/Firefox retry on 443.
        if outcome == Outcome::Failed(FailureReason::ConnectFailed)
            && profile.port_fallback
            && port != 443
        {
            self.events.push(NavEvent::Fallback("port fallback to 443"));
            outcome = self.tls_connect(connect_ip, 443, &alpn, ech, &fallback_ips);
        }

        // Firefox compatibility: after an h3-only success, race an h2
        // connection as well.
        if profile.h3_then_h2_compat {
            if let Outcome::HttpsOk { alpn: Some(p), .. } = &outcome {
                if p == "h3" && alpn.iter().all(|a| a == "h3") {
                    self.events.push(NavEvent::H2CompatAttempt);
                }
            }
        }
        outcome
    }

    /// One TLS connection attempt (plus intra-call IP failover and ECH
    /// fallback/retry logic).
    fn tls_connect(
        &mut self,
        ip: IpAddr,
        port: u16,
        alpn: &[String],
        ech: Option<&EchConfigList>,
        fallback_ips: &[IpAddr],
    ) -> Outcome {
        let hello = match ech {
            Some(list) => {
                let cfg = list.preferred();
                let inner = InnerHello { sni: self.host.to_string(), alpn: alpn.to_vec() };
                let sealed = cfg.public_key.seal(cfg.public_name.key().as_bytes(), &inner.encode());
                ClientHello {
                    sni: cfg.public_name.key(),
                    alpn: alpn.to_vec(),
                    ech: Some(EchExtension { config_id: cfg.config_id, sealed_inner: sealed }),
                }
            }
            None => ClientHello::plain(self.host, alpn.to_vec()),
        };
        self.events.push(NavEvent::TlsAttempt {
            ip,
            port,
            sni: hello.sni.clone(),
            ech: hello.ech.is_some(),
            alpn: alpn.to_vec(),
        });

        let Ok(resp_bytes) = self.browser.network.stream_exchange(ip, port, &hello.encode()) else {
            // IP failover per profile.
            let (action, next) = match (self.profile().ip_fallback, fallback_ips.first()) {
                (IpFallback::HardFail, _) | (_, None) => {
                    return Outcome::Failed(FailureReason::ConnectFailed)
                }
                (IpFallback::Immediate, Some(&next)) => ("immediate IP failover", next),
                (IpFallback::Delayed, Some(&next)) => ("delayed IP failover", next),
            };
            self.events.push(NavEvent::Fallback(action));
            return self.tls_connect(next, port, alpn, ech, &fallback_ips[1..]);
        };
        let Some(resp) = ServerResponse::decode(&resp_bytes) else {
            return Outcome::Failed(FailureReason::TlsAlert);
        };
        self.handle_response(resp, ip, port, alpn, ech)
    }

    fn handle_response(
        &mut self,
        resp: ServerResponse,
        ip: IpAddr,
        port: u16,
        alpn: &[String],
        ech: Option<&EchConfigList>,
    ) -> Outcome {
        match resp {
            ServerResponse::Accepted { cert_name, alpn: negotiated, used_ech, served_sni: _ } => {
                if let (Some(list), false) = (ech, used_ech) {
                    // The server did not accept our ECH (unilateral
                    // deployment, or split-mode misdelivery). Per the
                    // draft, validate the certificate against the OUTER
                    // name; on success retry without ECH, otherwise it is
                    // the ECH-fallback certificate error.
                    if cert_name == list.preferred().public_name {
                        self.events
                            .push(NavEvent::Fallback("ECH not accepted; standard TLS retry"));
                        return self.tls_connect(ip, port, alpn, None, &[]);
                    }
                    return Outcome::Failed(FailureReason::CertificateInvalid);
                }
                // Normal certificate validation against the target host.
                if !DnsName::parse(self.host).is_ok_and(|expected| expected == cert_name) {
                    return Outcome::Failed(FailureReason::CertificateInvalid);
                }
                Outcome::HttpsOk { ip, port, alpn: negotiated, used_ech }
            }
            ServerResponse::EchRetry { retry_configs, .. } => {
                if !self.profile().supports_ech_retry {
                    return Outcome::Failed(FailureReason::TlsAlert);
                }
                let Some(list) = EchConfigList::decode(&retry_configs) else {
                    return Outcome::Failed(FailureReason::TlsAlert);
                };
                self.events.push(NavEvent::EchRetry);
                self.tls_connect(ip, port, alpn, Some(&list), &[])
            }
            ServerResponse::Alert(cause) => Outcome::Failed(match cause {
                AlertCause::CertificateInvalid => FailureReason::CertificateInvalid,
                _ => FailureReason::TlsAlert,
            }),
        }
    }

    /// Ask the resolver one question, as one query datagram to
    /// `resolver_ip:53`, returning the reply's answer records (a CNAME
    /// chain, then the final RRset), or none when the resolver cannot be
    /// reached or fails the query.
    fn dns_query(&mut self, name: &DnsName, qtype: RecordType) -> Vec<Record> {
        self.events.push(NavEvent::DnsQuery { name: name.key(), qtype });
        let query = Message::query(0, name.clone(), qtype).encode();
        self.browser
            .network
            .send_datagram(self.browser.resolver_ip, 53, &query)
            .ok()
            .and_then(|reply| Message::decode(&reply).ok())
            .map(|reply| reply.answers)
            .unwrap_or_default()
    }

    /// Resolve the address candidates for `name`: A records first (every
    /// simulated web endpoint is v4), then AAAA records.
    fn resolve_addrs(&mut self, name: &DnsName) -> Vec<IpAddr> {
        let mut ips = a_ips(&self.dns_query(name, RecordType::A));
        ips.extend(self.dns_query(name, RecordType::Aaaa).iter().filter_map(|r| match &r.rdata {
            RData::Aaaa(a) => Some(IpAddr::V6(*a)),
            _ => None,
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
