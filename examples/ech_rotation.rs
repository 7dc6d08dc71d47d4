//! The §4.4.2 hourly ECH scan: watch the provider rotate its ECH keys
//! every 1.1–1.4 hours over a 7-day window and reproduce Figure 4's
//! lifetime distribution, then demonstrate why the retry mechanism
//! matters by replaying a stale-key handshake.
//!
//! Run with: `cargo run --release --example ech_rotation`

use httpsrr::analysis::fig4_rotation;
use httpsrr::ecosystem::{EcosystemConfig, World};
use httpsrr::scanner::hourly_ech_scan;

fn main() {
    let mut world = World::build(EcosystemConfig::tiny());
    // The paper scanned hourly for 7 days (July 21–27, 2023).
    let window_hours = 7 * 24;
    eprintln!("running {window_hours} hourly scans …");
    let observations = hourly_ech_scan(&mut world, window_hours, 20);
    let stats = fig4_rotation(&observations);
    println!("{stats}");
    println!(
        "(paper: 169 distinct configs over 7 days, lifetimes 1.1–1.4 h, mean 1.26 h, TTL 300 s)"
    );

    // Stale-key demonstration: a client using a cached config after one
    // rotation gets a retry, after several rotations (beyond the grace
    // window) it still recovers via retry configs.
    use httpsrr::dns_wire::DnsName;
    use httpsrr::tlsech::{
        ClientHello, EchConfigList, EchKeyManager, EchServerState, InnerHello, ServerResponse,
        WebServer, WebServerConfig,
    };
    let server = WebServer::new(
        world.network.clone(),
        WebServerConfig {
            cert_names: vec![
                DnsName::parse("a.com").expect("valid"),
                DnsName::parse("cover.a.com").expect("valid"),
            ],
            alpn: vec!["h2".into()].into(),
        },
    );
    server.enable_ech(EchServerState::new(EchKeyManager::new(
        DnsName::parse("cover.a.com").expect("valid"),
        "demo",
        0,
    )));
    let cached = server.current_ech_configs().expect("ech enabled");
    server.rotate_ech_key("demo"); // DNS cache now stale

    let list = EchConfigList::decode(&cached).expect("valid configs");
    let cfg = list.preferred();
    let inner = InnerHello { sni: "a.com".into(), alpn: vec!["h2".into()] };
    let sealed = cfg.public_key.seal(cfg.public_name.key().as_bytes(), &inner.encode());
    let hello = ClientHello {
        sni: cfg.public_name.key(),
        alpn: vec!["h2".into()],
        ech: Some(httpsrr::tlsech::EchExtension { config_id: cfg.config_id, sealed_inner: sealed }),
    };
    match server.handshake(&hello) {
        ServerResponse::EchRetry { retry_configs, .. } => {
            println!(
                "stale key rejected; server offered fresh retry configs ({} bytes)",
                retry_configs.len()
            );
            let fresh = EchConfigList::decode(&retry_configs).expect("valid retry configs");
            let cfg2 = fresh.preferred();
            let sealed2 = cfg2.public_key.seal(cfg2.public_name.key().as_bytes(), &inner.encode());
            let hello2 = ClientHello {
                sni: cfg2.public_name.key(),
                alpn: vec!["h2".into()],
                ech: Some(httpsrr::tlsech::EchExtension {
                    config_id: cfg2.config_id,
                    sealed_inner: sealed2,
                }),
            };
            match server.handshake(&hello2) {
                ServerResponse::Accepted { used_ech: true, served_sni, .. } => {
                    println!("retry succeeded: ECH session established for {served_sni}");
                }
                other => println!("unexpected retry outcome: {other:?}"),
            }
        }
        other => println!("unexpected outcome: {other:?}"),
    }
}
