//! ECH scenario tests spanning the tlsech crate: multi-config lists,
//! forwarding failure modes, and ALPN interaction with ECH.

use dns_wire::DnsName;
use netsim::{Network, SimClock};
use std::sync::Arc;
use tlsech::{
    AlertCause, ClientHello, EchConfig, EchConfigList, EchExtension, EchKeyManager, EchServerState,
    InnerHello, ServerResponse, WebServer, WebServerConfig,
};

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn seal_with(cfg: &EchConfig, inner: &InnerHello) -> EchExtension {
    EchExtension {
        config_id: cfg.config_id,
        sealed_inner: cfg.public_key.seal(cfg.public_name.key().as_bytes(), &inner.encode()),
    }
}

fn ech_server(net: &Network) -> WebServer {
    let s = WebServer::new(
        net.clone(),
        WebServerConfig {
            cert_names: vec![name("a.com"), name("cover.a.com")],
            alpn: vec!["h2".into(), "http/1.1".into()].into(),
        },
    );
    s.enable_ech(EchServerState::new(EchKeyManager::new(name("cover.a.com"), "scenario", 1)));
    s
}

#[test]
fn client_uses_preferred_config_from_multi_entry_list() {
    let net = Network::new(SimClock::new());
    let server = ech_server(&net);
    let current = EchConfigList::decode(&server.current_ech_configs().unwrap()).unwrap();
    // Build a list with a bogus second entry; clients must use the first.
    let bogus = EchConfig::new(
        99,
        name("cover.a.com"),
        simcrypto::SimKeyPair::derive("unrelated").public(),
    );
    let list = EchConfigList(vec![current.preferred().clone(), bogus]);
    let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
    let hello = ClientHello {
        sni: list.preferred().public_name.key(),
        alpn: vec!["h2".into()],
        ech: Some(seal_with(list.preferred(), &inner)),
    };
    assert!(matches!(server.handshake(&hello), ServerResponse::Accepted { used_ech: true, .. }));
}

#[test]
fn inner_alpn_governs_negotiation() {
    let net = Network::new(SimClock::new());
    let server = ech_server(&net);
    let configs = EchConfigList::decode(&server.current_ech_configs().unwrap()).unwrap();
    // Outer offers h2; the inner hello offers only h9 → no protocol.
    let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h9".into()] };
    let hello = ClientHello {
        sni: "cover.a.com".into(),
        alpn: vec!["h2".into()],
        ech: Some(seal_with(configs.preferred(), &inner)),
    };
    assert_eq!(server.handshake(&hello), ServerResponse::Alert(AlertCause::NoApplicationProtocol));
}

#[test]
fn corrupted_sealed_inner_triggers_retry_not_panic() {
    let net = Network::new(SimClock::new());
    let server = ech_server(&net);
    let configs = EchConfigList::decode(&server.current_ech_configs().unwrap()).unwrap();
    let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
    let mut ext = seal_with(configs.preferred(), &inner);
    let mid = ext.sealed_inner.len() / 2;
    ext.sealed_inner[mid] ^= 0xFF;
    let hello = ClientHello { sni: "cover.a.com".into(), alpn: vec!["h2".into()], ech: Some(ext) };
    // Undecryptable payload is indistinguishable from a stale key: the
    // server answers with retry configs.
    assert!(matches!(server.handshake(&hello), ServerResponse::EchRetry { .. }));
}

#[test]
fn split_mode_forward_to_dead_backend_fails_handshake() {
    let net = Network::new(SimClock::new());
    let front = WebServer::new(
        net.clone(),
        WebServerConfig { cert_names: vec![name("b.com")], alpn: vec!["h2".into()].into() },
    );
    front.enable_ech(EchServerState::new(EchKeyManager::new(name("b.com"), "front", 1)));
    // Forward rule to an address with no listener.
    front.add_forward("a.com", ("10.9.9.9".parse().unwrap(), 443));
    let configs = EchConfigList::decode(&front.current_ech_configs().unwrap()).unwrap();
    let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
    let hello = ClientHello {
        sni: "b.com".into(),
        alpn: vec!["h2".into()],
        ech: Some(seal_with(configs.preferred(), &inner)),
    };
    assert_eq!(front.handshake(&hello), ServerResponse::Alert(AlertCause::HandshakeFailure));
}

#[test]
fn split_mode_chain_of_two_hops() {
    // front (b.com) forwards a.com to mid; mid serves a.com locally.
    let net = Network::new(SimClock::new());
    let mid = Arc::new(WebServer::new(
        net.clone(),
        WebServerConfig { cert_names: vec![name("a.com")], alpn: vec!["h2".into()].into() },
    ));
    net.bind_stream("10.1.1.1".parse().unwrap(), 443, mid);

    let front = WebServer::new(
        net.clone(),
        WebServerConfig { cert_names: vec![name("b.com")], alpn: vec!["h2".into()].into() },
    );
    front.enable_ech(EchServerState::new(EchKeyManager::new(name("b.com"), "front2", 1)));
    front.add_forward("a.com", ("10.1.1.1".parse().unwrap(), 443));
    let configs = EchConfigList::decode(&front.current_ech_configs().unwrap()).unwrap();
    let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
    let hello = ClientHello {
        sni: "b.com".into(),
        alpn: vec!["h2".into()],
        ech: Some(seal_with(configs.preferred(), &inner)),
    };
    match front.handshake(&hello) {
        ServerResponse::Accepted { cert_name, used_ech, alpn, .. } => {
            assert_eq!(cert_name, name("a.com"));
            assert!(used_ech);
            assert_eq!(alpn.as_deref(), Some("h2"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn disable_then_reenable_ech() {
    let net = Network::new(SimClock::new());
    let server = ech_server(&net);
    let old_configs = server.current_ech_configs().unwrap();
    server.disable_ech();
    assert!(server.current_ech_configs().is_none());
    assert!(server.rotate_ech_key("scenario").is_none());

    // Re-enable (Cloudflare's promised ECH return): new manager state.
    server.enable_ech(EchServerState::new(EchKeyManager::new(
        name("cover.a.com"),
        "scenario-v2",
        1,
    )));
    let new_configs = server.current_ech_configs().unwrap();
    assert_ne!(old_configs, new_configs);
}
