//! # tlsech
//!
//! A structural TLS 1.3 + Encrypted ClientHello simulator: ECHConfig
//! lists (as carried in the `ech` SvcParam), outer/inner ClientHello
//! messages, the draft retry mechanism, ALPN negotiation, certificate
//! presentation, shared- and split-mode ECH topologies, and web-server
//! endpoints bindable to the simulated network.
//!
//! "Structural" means the messages and state transitions are faithful —
//! who sends which SNI where, which key decrypts what, when retry fires —
//! while the cryptography is the simulated scheme from `simcrypto`.

#![warn(missing_docs)]

pub mod ech;
pub mod msg;
pub mod server;

pub use ech::{EchConfig, EchConfigList, EchKeyManager, ECH_VERSION};
pub use msg::{AlertCause, ClientHello, EchExtension, InnerHello, ServerResponse};
pub use server::{EchServerState, HttpServer, WebServer, WebServerConfig};
