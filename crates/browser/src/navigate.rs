//! The navigation engine: drives one URL load through DNS (HTTPS, A and
//! AAAA queries, each one datagram to the browser's recursive resolver
//! over the simulated network), HTTPS-RR interpretation, TLS (optionally
//! with ECH), and the profile's failover behaviours, producing a typed
//! event trace that the testbed asserts on.

use crate::profile::{BrowserProfile, IpFallback, MalformedEchBehavior};
use dns_wire::svcb::key;
use dns_wire::{DnsName, Message, MessageView, RecordType, RecordView, SvcbView};
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
        let https_reply = if profile.queries_https_rr {
            self.dns_query(&host_name, RecordType::Https)
        } else {
            Vec::new()
        };
        let host_ips = self.resolve_addrs(&host_name);
        let record = select_https_record(&answers(&https_reply)).filter(|rd| {
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

    fn alias(&mut self, record: SvcbView<'_>, host_ips: &[IpAddr]) -> Outcome {
        let target_ips = if self.profile().follows_alias_target && !record.target().is_root() {
            self.resolve_addrs(&record.target().to_owned())
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

    fn service(&mut self, record: SvcbView<'_>, host: &DnsName, host_ips: &[IpAddr]) -> Outcome {
        let profile = self.profile();

        // Endpoint selection (TargetName).
        let endpoint_name = if !record.target().is_root() && profile.follows_service_target {
            record.target().to_owned()
        } else {
            host.clone()
        };

        // Address candidates: A records of the endpoint vs IP hints.
        let endpoint_ips: Vec<IpAddr> = if endpoint_name.key() == self.host.to_ascii_lowercase() {
            host_ips.to_vec()
        } else {
            self.resolve_addrs(&endpoint_name)
        };
        let hint_ips: Vec<IpAddr> =
            record.ipv4hint().map(|v| v.map(IpAddr::V4).collect()).unwrap_or_default();

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
        let advertised = record.param(key::PORT).and_then(<[u8]>::first_chunk);
        let port = match advertised {
            Some(port) if profile.uses_port_param => u16::from_be_bytes(*port),
            _ => 443,
        };

        // ALPN offer: the record's protocols intersected with support.
        let alpn: Vec<String> = match record.alpn_ids() {
            Some(ids) => ids
                .map(String::from_utf8_lossy)
                .filter(|p| profile.supported_alpn.contains(&p.as_ref()))
                .map(|p| p.into_owned())
                .collect(),
            None => default_alpn(),
        };

        // ECH.
        let mut ech_config: Option<EchConfigList> = None;
        if let Some(bytes) = record.param(key::ECH) {
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
    /// `resolver_ip:53`, returning its reply ([`answers`] reads the
    /// records in it: a CNAME chain, then the final RRset), or nothing
    /// when the resolver cannot be reached.
    fn dns_query(&mut self, name: &DnsName, qtype: RecordType) -> Vec<u8> {
        self.events.push(NavEvent::DnsQuery { name: name.key(), qtype });
        let query = Message::query(0, name.clone(), qtype).encode();
        self.browser.network.send_datagram(self.browser.resolver_ip, 53, &query).unwrap_or_default()
    }

    /// Resolve the address candidates for `name`: A records first (every
    /// simulated web endpoint is v4), then AAAA records.
    fn resolve_addrs(&mut self, name: &DnsName) -> Vec<IpAddr> {
        let mut ips = addresses(&self.dns_query(name, RecordType::A));
        ips.extend(addresses(&self.dns_query(name, RecordType::Aaaa)));
        ips
    }
}

/// The answer records of a resolver's reply, read in place; none when
/// the reply does not parse or holds a record whose RDATA do not check.
fn answers(reply: &[u8]) -> Vec<RecordView<'_>> {
    let Ok(view) = MessageView::parse(reply) else {
        return Vec::new();
    };
    let mut records = view.answers().chain(view.authorities()).chain(view.additionals());
    if records.any(|rec| rec.check_rdata().is_err()) {
        return Vec::new();
    }
    view.answers().collect()
}

/// Pick the HTTPS record a client would use: lowest-priority ServiceMode
/// record, else an AliasMode record.
fn select_https_record<'a>(answers: &[RecordView<'a>]) -> Option<SvcbView<'a>> {
    let records = answers
        .iter()
        .filter(|rec| rec.rtype() == RecordType::Https)
        .filter_map(|rec| rec.svcb().ok());
    records
        .clone()
        .filter(|rd| !rd.is_alias())
        .min_by_key(|rd| rd.priority())
        .or_else(|| records.clone().find(|rd| rd.is_alias()))
}

/// The addresses of the A and AAAA records among a reply's answers.
fn addresses(reply: &[u8]) -> Vec<IpAddr> {
    answers(reply)
        .iter()
        .filter_map(|rec| match rec.rtype() {
            RecordType::A => rec.rdata_view().bytes().first_chunk::<4>().map(|a| IpAddr::from(*a)),
            RecordType::Aaaa => {
                rec.rdata_view().bytes().first_chunk::<16>().map(|a| IpAddr::from(*a))
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{RData, Record, SvcParam, SvcbRdata};

    fn https_rec(rd: SvcbRdata) -> Record {
        Record::new(DnsName::parse("a.com").unwrap(), 60, RData::Https(rd))
    }

    /// A resolver's reply answering with `records`.
    fn reply(records: Vec<Record>) -> Vec<u8> {
        let query = Message::query(0, DnsName::parse("a.com").unwrap(), RecordType::Https);
        Message { answers: records, ..query.response() }.encode()
    }

    #[test]
    fn record_selection_prefers_low_priority_service_mode() {
        let reply = reply(vec![
            https_rec(SvcbRdata { priority: 2, target: DnsName::root(), params: vec![] }),
            https_rec(SvcbRdata { priority: 1, target: DnsName::root(), params: vec![] }),
            https_rec(SvcbRdata::alias(DnsName::parse("b.com").unwrap())),
        ]);
        assert_eq!(select_https_record(&answers(&reply)).unwrap().priority(), 1);
    }

    #[test]
    fn record_selection_falls_back_to_alias() {
        let reply = reply(vec![https_rec(SvcbRdata::alias(DnsName::parse("b.com").unwrap()))]);
        assert!(select_https_record(&answers(&reply)).unwrap().is_alias());
        assert!(select_https_record(&[]).is_none());
    }

    #[test]
    fn a_ip_extraction_ignores_other_types() {
        let reply = reply(vec![
            Record::new(DnsName::parse("a.com").unwrap(), 60, RData::A("1.2.3.4".parse().unwrap())),
            https_rec(SvcbRdata::service_self(vec![SvcParam::Port(443)])),
        ]);
        assert_eq!(addresses(&reply), vec!["1.2.3.4".parse::<IpAddr>().unwrap()]);
    }
}
