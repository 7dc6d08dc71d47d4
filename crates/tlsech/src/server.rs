//! The simulated web server: a [`StreamService`] performing the
//! structural TLS handshake, with ECH shared-mode termination,
//! split-mode forwarding to back-end servers, the draft's retry
//! mechanism, ALPN negotiation, and certificate presentation (validation
//! happens at the client, as in real TLS).

use crate::ech::EchKeyManager;
use crate::msg::{AlertCause, ClientHello, InnerHello, ServerResponse};
use dns_wire::DnsName;
use netsim::{NetError, Network, StreamService, Timestamp, WeakNetwork};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

/// ECH serving state for client-facing servers: one key manager
/// (current and grace keys), shared. Clones share it, so a rotation
/// through any of them is what every server holding one opens with and
/// sends as its retry configs.
#[derive(Clone)]
pub struct EchServerState(Arc<RwLock<EchKeyManager>>);

impl EchServerState {
    /// Serving state holding `manager`.
    pub fn new(manager: EchKeyManager) -> EchServerState {
        EchServerState(Arc::new(RwLock::new(manager)))
    }

    /// Rotate the shared key ([`EchKeyManager::rotate`]).
    pub fn rotate(&self, label_seed: &str) {
        self.0.write().rotate(label_seed);
    }

    /// The currently advertised config list, encoded.
    pub fn configs(&self) -> Vec<u8> {
        self.0.read().current_config_list().encode()
    }
}

/// Configuration of a web server endpoint.
#[derive(Debug, Clone)]
pub struct WebServerConfig {
    /// Names the server's certificate covers; the first is the default
    /// certificate presented on unknown SNI.
    pub cert_names: Vec<DnsName>,
    /// ALPN protocols supported, in server preference order
    /// (e.g. `["h2", "http/1.1"]`); servers with the same list share one.
    pub alpn: Arc<[String]>,
}

/// A web server bound to one or more `(ip, port)` pairs on the network.
pub struct WebServer {
    config: WebServerConfig,
    ech: RwLock<Option<EchServerState>>,
    /// Split-mode forwarding: inner SNI → back-end address.
    forwards: RwLock<HashMap<String, (IpAddr, u16)>>,
    /// Non-owning: the network owns the servers bound into it.
    network: WeakNetwork,
}

impl WebServer {
    /// Create a server without ECH. The server sends its split-mode
    /// forwards through `network` but does not keep it alive.
    pub fn new(network: Network, config: WebServerConfig) -> WebServer {
        WebServer {
            config,
            ech: RwLock::new(None),
            forwards: RwLock::new(HashMap::new()),
            network: network.downgrade(),
        }
    }

    /// Install ECH serving state (making this a client-facing server).
    pub fn enable_ech(&self, state: EchServerState) {
        *self.ech.write() = Some(state);
    }

    /// Remove ECH serving state (the §5.3 "unilateral ECH" experiment:
    /// DNS keeps advertising ECH the server no longer supports).
    pub fn disable_ech(&self) {
        *self.ech.write() = None;
    }

    /// Rotate the ECH key (no-op without ECH state). Returns the new
    /// config list bytes to publish in DNS.
    pub fn rotate_ech_key(&self, label_seed: &str) -> Option<Vec<u8>> {
        let guard = self.ech.read();
        let state = guard.as_ref()?;
        state.rotate(label_seed);
        Some(state.configs())
    }

    /// Current ECH config list bytes (what DNS should advertise).
    pub fn current_ech_configs(&self) -> Option<Vec<u8>> {
        self.ech.read().as_ref().map(EchServerState::configs)
    }

    /// Add a split-mode forwarding rule: inner SNI → back-end address.
    pub fn add_forward(&self, inner_sni: &str, backend: (IpAddr, u16)) {
        self.forwards.write().insert(inner_sni.to_ascii_lowercase(), backend);
    }

    fn negotiate_alpn(&self, offered: &[String]) -> Result<Option<String>, AlertCause> {
        if offered.is_empty() {
            // No ALPN offered: implicit HTTP/1.1 over TLS.
            return Ok(None);
        }
        match offered.iter().find(|p| self.config.alpn.contains(p)) {
            Some(p) => Ok(Some(p.clone())),
            None => Err(AlertCause::NoApplicationProtocol),
        }
    }

    fn cert_for(&self, sni: &str) -> DnsName {
        let cfg = &self.config;
        let want = DnsName::parse(sni).ok();
        match want.and_then(|w| cfg.cert_names.iter().find(|n| **n == w).cloned()) {
            Some(n) => n,
            // Unknown SNI: present the default certificate; the client's
            // validation will fail, as real servers/browsers do.
            None => cfg.cert_names.first().cloned().unwrap_or_else(DnsName::root),
        }
    }

    fn serve_plain(&self, sni: &str, alpn_offered: &[String], used_ech: bool) -> ServerResponse {
        match self.negotiate_alpn(alpn_offered) {
            Ok(alpn) => ServerResponse::Accepted {
                cert_name: self.cert_for(sni),
                alpn,
                used_ech,
                served_sni: sni.to_string(),
            },
            Err(cause) => ServerResponse::Alert(cause),
        }
    }

    /// Process one ClientHello.
    pub fn handshake(&self, hello: &ClientHello) -> ServerResponse {
        let ech_guard = self.ech.read();
        match (&hello.ech, ech_guard.as_ref()) {
            (Some(ext), Some(state)) => {
                let opened = state.0.read().open(hello.sni.as_bytes(), &ext.sealed_inner);
                match opened {
                    Some(plain) => {
                        let Some(inner) = InnerHello::decode(&plain) else {
                            return ServerResponse::Alert(AlertCause::HandshakeFailure);
                        };
                        // Split mode: forward to the back end if a rule matches.
                        let fwd =
                            self.forwards.read().get(&inner.sni.to_ascii_lowercase()).copied();
                        if let Some((ip, port)) = fwd {
                            let fwd_hello = ClientHello::plain(&inner.sni, inner.alpn.clone());
                            // A dropped network reaches no back end.
                            let forwarded =
                                self.network.upgrade().ok_or(NetError::Reset).and_then(|network| {
                                    network.stream_exchange(ip, port, &fwd_hello.encode())
                                });
                            return match forwarded {
                                Ok(bytes) => match ServerResponse::decode(&bytes) {
                                    Some(ServerResponse::Accepted {
                                        cert_name,
                                        alpn,
                                        served_sni,
                                        ..
                                    }) => ServerResponse::Accepted {
                                        cert_name,
                                        alpn,
                                        used_ech: true,
                                        served_sni,
                                    },
                                    Some(other) => other,
                                    None => ServerResponse::Alert(AlertCause::HandshakeFailure),
                                },
                                Err(_) => ServerResponse::Alert(AlertCause::HandshakeFailure),
                            };
                        }
                        // Shared mode: serve the inner name locally.
                        self.serve_plain(&inner.sni, &inner.alpn, true)
                    }
                    None => ServerResponse::EchRetry {
                        cert_name: self.cert_for(&hello.sni),
                        retry_configs: state.configs(),
                    },
                }
            }
            // Server without ECH support: the extension is ignored and the
            // outer SNI is served (real TLS servers ignore unknown
            // extensions). The client detects that ECH was not accepted.
            (Some(_), None) | (None, _) => self.serve_plain(&hello.sni, &hello.alpn, false),
        }
    }
}

impl StreamService for WebServer {
    fn exchange(&self, message: &[u8], _now: Timestamp) -> Result<Vec<u8>, NetError> {
        let Some(hello) = ClientHello::decode(message) else {
            return Err(NetError::Reset);
        };
        Ok(self.handshake(&hello).encode())
    }
}

/// A plain-HTTP (port 80) endpoint: accepts any request and reports the
/// canonical redirect-to-HTTPS response, so browser models can observe
/// "connected via HTTP first".
pub struct HttpServer {
    /// The host this server redirects to (https://host).
    pub host: String,
}

impl StreamService for HttpServer {
    fn exchange(&self, message: &[u8], _now: Timestamp) -> Result<Vec<u8>, NetError> {
        if message.starts_with(b"GET ") {
            Ok(format!(
                "HTTP/1.1 301 Moved Permanently\r\nLocation: https://{}/\r\n\r\n",
                self.host
            )
            .into_bytes())
        } else {
            Err(NetError::Reset)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ech::{EchConfigList, EchKeyManager};
    use crate::msg::EchExtension;
    use netsim::SimClock;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn net() -> Network {
        Network::new(SimClock::new())
    }

    fn basic_server(net: &Network) -> WebServer {
        WebServer::new(
            net.clone(),
            WebServerConfig {
                cert_names: vec![name("a.com"), name("cover.a.com")],
                alpn: vec!["h2".into(), "http/1.1".into()].into(),
            },
        )
    }

    fn seal_inner(configs: &[u8], outer_sni: &str, inner: &InnerHello) -> EchExtension {
        let list = EchConfigList::decode(configs).unwrap();
        let cfg = list.preferred();
        EchExtension {
            config_id: cfg.config_id,
            sealed_inner: cfg.public_key.seal(outer_sni.as_bytes(), &inner.encode()),
        }
    }

    #[test]
    fn plain_handshake_and_alpn() {
        let net = net();
        let s = basic_server(&net);
        match s.handshake(&ClientHello::plain("a.com", vec!["h2".into()])) {
            ServerResponse::Accepted { cert_name, alpn, used_ech, served_sni } => {
                assert_eq!(cert_name, name("a.com"));
                assert_eq!(alpn.as_deref(), Some("h2"));
                assert!(!used_ech);
                assert_eq!(served_sni, "a.com");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn alpn_mismatch_alerts() {
        let net = net();
        let s = basic_server(&net);
        assert_eq!(
            s.handshake(&ClientHello::plain("a.com", vec!["h3".into()])),
            ServerResponse::Alert(AlertCause::NoApplicationProtocol)
        );
    }

    #[test]
    fn no_alpn_means_http11() {
        let net = net();
        let s = basic_server(&net);
        match s.handshake(&ClientHello::plain("a.com", vec![])) {
            ServerResponse::Accepted { alpn, .. } => assert!(alpn.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_sni_presents_default_cert() {
        let net = net();
        let s = basic_server(&net);
        match s.handshake(&ClientHello::plain("other.org", vec![])) {
            ServerResponse::Accepted { cert_name, .. } => assert_eq!(cert_name, name("a.com")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ech_shared_mode_round_trip() {
        let net = net();
        let s = basic_server(&net);
        s.enable_ech(EchServerState::new(EchKeyManager::new(name("cover.a.com"), "k", 1)));
        let configs = s.current_ech_configs().unwrap();
        let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
        let ech = seal_inner(&configs, "cover.a.com", &inner);
        let hello =
            ClientHello { sni: "cover.a.com".into(), alpn: vec!["h2".into()], ech: Some(ech) };
        match s.handshake(&hello) {
            ServerResponse::Accepted { used_ech, served_sni, cert_name, .. } => {
                assert!(used_ech);
                assert_eq!(served_sni, "a.com");
                assert_eq!(cert_name, name("a.com"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_key_triggers_retry_with_fresh_configs() {
        let net = net();
        let s = basic_server(&net);
        s.enable_ech(EchServerState::new(EchKeyManager::new(name("cover.a.com"), "k", 0)));
        let stale_configs = s.current_ech_configs().unwrap();
        s.rotate_ech_key("k");
        let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
        let ech = seal_inner(&stale_configs, "cover.a.com", &inner);
        let hello =
            ClientHello { sni: "cover.a.com".into(), alpn: vec!["h2".into()], ech: Some(ech) };
        match s.handshake(&hello) {
            ServerResponse::EchRetry { retry_configs, .. } => {
                assert_eq!(retry_configs, s.current_ech_configs().unwrap());
                // Retrying with the fresh configs succeeds.
                let ech2 = seal_inner(&retry_configs, "cover.a.com", &inner);
                let hello2 = ClientHello {
                    sni: "cover.a.com".into(),
                    alpn: vec!["h2".into()],
                    ech: Some(ech2),
                };
                assert!(matches!(
                    s.handshake(&hello2),
                    ServerResponse::Accepted { used_ech: true, .. }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn grace_window_accepts_recently_rotated_key() {
        let net = net();
        let s = basic_server(&net);
        s.enable_ech(EchServerState::new(EchKeyManager::new(name("cover.a.com"), "k", 2)));
        let old = s.current_ech_configs().unwrap();
        s.rotate_ech_key("k");
        let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
        let ech = seal_inner(&old, "cover.a.com", &inner);
        let hello =
            ClientHello { sni: "cover.a.com".into(), alpn: vec!["h2".into()], ech: Some(ech) };
        assert!(matches!(s.handshake(&hello), ServerResponse::Accepted { used_ech: true, .. }));
    }

    #[test]
    fn server_without_ech_ignores_extension() {
        // Unilateral ECH: DNS advertises ECH, server dropped it.
        let net = net();
        let s = basic_server(&net);
        let mgr = EchKeyManager::new(name("cover.a.com"), "other", 0);
        let configs = mgr.current_config_list().encode();
        let inner = InnerHello { sni: "a.com".into(), alpn: vec![] };
        let ech = seal_inner(&configs, "cover.a.com", &inner);
        let hello = ClientHello { sni: "cover.a.com".into(), alpn: vec![], ech: Some(ech) };
        match s.handshake(&hello) {
            ServerResponse::Accepted { used_ech, served_sni, .. } => {
                assert!(!used_ech);
                assert_eq!(served_sni, "cover.a.com");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn split_mode_forwarding() {
        let net = net();
        // Back-end server for a.com at 1.1.1.1:443.
        let backend = Arc::new(WebServer::new(
            net.clone(),
            WebServerConfig { cert_names: vec![name("a.com")], alpn: vec!["h2".into()].into() },
        ));
        net.bind_stream("1.1.1.1".parse().unwrap(), 443, backend);

        // Client-facing server for b.com at 2.2.2.2 with a forward rule.
        let front = WebServer::new(
            net.clone(),
            WebServerConfig { cert_names: vec![name("b.com")], alpn: vec!["h2".into()].into() },
        );
        front.enable_ech(EchServerState::new(EchKeyManager::new(name("b.com"), "front", 1)));
        front.add_forward("a.com", ("1.1.1.1".parse().unwrap(), 443));

        let configs = front.current_ech_configs().unwrap();
        let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
        let ech = seal_inner(&configs, "b.com", &inner);
        let hello = ClientHello { sni: "b.com".into(), alpn: vec!["h2".into()], ech: Some(ech) };
        match front.handshake(&hello) {
            ServerResponse::Accepted { cert_name, used_ech, served_sni, .. } => {
                assert_eq!(cert_name, name("a.com"));
                assert!(used_ech);
                assert_eq!(served_sni, "a.com");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_service_wire_round_trip() {
        let net = net();
        let s = Arc::new(basic_server(&net));
        net.bind_stream("9.9.9.9".parse().unwrap(), 443, s);
        let hello = ClientHello::plain("a.com", vec!["h2".into()]);
        let resp_bytes =
            net.stream_exchange("9.9.9.9".parse().unwrap(), 443, &hello.encode()).unwrap();
        assert!(matches!(
            ServerResponse::decode(&resp_bytes),
            Some(ServerResponse::Accepted { .. })
        ));
        assert!(net.stream_exchange("9.9.9.9".parse().unwrap(), 443, b"garbage").is_err());
    }

    #[test]
    fn http_server_redirects() {
        let net = net();
        net.bind_stream(
            "9.9.9.9".parse().unwrap(),
            80,
            Arc::new(HttpServer { host: "a.com".into() }),
        );
        let resp = net
            .stream_exchange(
                "9.9.9.9".parse().unwrap(),
                80,
                b"GET / HTTP/1.1\r\nHost: a.com\r\n\r\n",
            )
            .unwrap();
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 301"));
        assert!(text.contains("https://a.com/"));
    }
}
