//! ECH configuration objects: the `ECHConfigList` that rides in the
//! `ech` SvcParam, and helpers for key rotation.
//!
//! The wire layout mirrors draft-ietf-tls-esni-17 structurally (version,
//! config id, public name, public key) with the HPKE suites replaced by
//! the simulated key (see `simcrypto`). Parsing is strict: anything that
//! does not round-trip is "malformed ECH" to a browser.

use dns_wire::DnsName;
use simcrypto::{SimKeyPair, SimPublicKey};

/// Version tag mirroring ECH draft-13's 0xfe0d.
pub const ECH_VERSION: u16 = 0xfe0d;

/// One ECH configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EchConfig {
    /// Configuration id echoed by clients (helps servers pick a key).
    pub config_id: u8,
    /// The client-facing server's name: the outer SNI clients must use.
    pub public_name: DnsName,
    /// The public key clients seal the inner ClientHello to.
    pub public_key: SimPublicKey,
}

impl EchConfig {
    /// Build a config for a client-facing server.
    pub fn new(config_id: u8, public_name: DnsName, public_key: SimPublicKey) -> EchConfig {
        EchConfig { config_id, public_name, public_key }
    }

    /// Encode a single config.
    pub fn encode(&self) -> Vec<u8> {
        let name = self.public_name.key();
        let key = self.public_key.to_bytes();
        let mut out = Vec::with_capacity(6 + name.len() + key.len());
        out.extend_from_slice(&ECH_VERSION.to_be_bytes());
        out.push(self.config_id);
        out.push(name.len() as u8);
        out.extend_from_slice(name.as_bytes());
        out.push(key.len() as u8);
        out.extend_from_slice(&key);
        out
    }

    fn decode_one(buf: &[u8]) -> Option<(EchConfig, usize)> {
        if buf.len() < 4 {
            return None;
        }
        let version = u16::from_be_bytes([buf[0], buf[1]]);
        if version != ECH_VERSION {
            return None;
        }
        let config_id = buf[2];
        let name_len = buf[3] as usize;
        let name_end = 4 + name_len;
        let key_len_at = name_end;
        if buf.len() < key_len_at + 1 {
            return None;
        }
        let name_bytes = &buf[4..name_end];
        let name_str = std::str::from_utf8(name_bytes).ok()?;
        let public_name = DnsName::parse(name_str).ok()?;
        let key_len = buf[key_len_at] as usize;
        let key_end = key_len_at + 1 + key_len;
        if buf.len() < key_end {
            return None;
        }
        let public_key = SimPublicKey::from_bytes(&buf[key_len_at + 1..key_end])?;
        Some((EchConfig { config_id, public_name, public_key }, key_end))
    }
}

/// An ordered list of ECH configs, as carried in the `ech` SvcParam.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EchConfigList(pub Vec<EchConfig>);

impl EchConfigList {
    /// A single-config list.
    pub fn single(config: EchConfig) -> EchConfigList {
        EchConfigList(vec![config])
    }

    /// Encode the list (2-byte total length + configs).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        for c in &self.0 {
            body.extend_from_slice(&c.encode());
        }
        let mut out = Vec::with_capacity(2 + body.len());
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Strict decode; `None` means "malformed ECH".
    pub fn decode(buf: &[u8]) -> Option<EchConfigList> {
        if buf.len() < 2 {
            return None;
        }
        let total = u16::from_be_bytes([buf[0], buf[1]]) as usize;
        if buf.len() != 2 + total {
            return None;
        }
        let mut configs = Vec::new();
        let mut pos = 2;
        while pos < buf.len() {
            let (config, used) = EchConfig::decode_one(&buf[pos..])?;
            configs.push(config);
            pos += used;
        }
        if configs.is_empty() {
            return None;
        }
        Some(EchConfigList(configs))
    }

    /// The first (preferred) config.
    pub fn preferred(&self) -> &EchConfig {
        &self.0[0]
    }
}

/// Server-side ECH key manager implementing the rotation discipline the
/// paper measures in §4.4.2: a current key plus a grace window of recent
/// keys, so clients holding DNS-cached configs keep working until the
/// caches expire.
///
/// `Clone` copies the whole key state, so a server handed a clone accepts
/// exactly what the original advertises and accepted at that moment.
#[derive(Debug, Clone)]
pub struct EchKeyManager {
    /// The client-facing name advertised in configs.
    pub public_name: DnsName,
    current: SimKeyPair,
    /// Previous keys still accepted (newest first).
    grace: Vec<SimKeyPair>,
    /// How many previous keys to keep accepting.
    grace_depth: usize,
    config_counter: u8,
    rotations: u64,
}

impl EchKeyManager {
    /// Create a manager with an initial key derived from `label_seed`.
    pub fn new(public_name: DnsName, label_seed: &str, grace_depth: usize) -> EchKeyManager {
        EchKeyManager {
            current: SimKeyPair::derive(&format!("{label_seed}:0")),
            public_name,
            grace: Vec::new(),
            grace_depth,
            config_counter: 0,
            rotations: 0,
        }
    }

    /// The currently advertised config.
    pub fn current_config(&self) -> EchConfig {
        EchConfig::new(self.config_counter, self.public_name.clone(), self.current.public())
    }

    /// The currently advertised config list (what goes in DNS).
    pub fn current_config_list(&self) -> EchConfigList {
        EchConfigList::single(self.current_config())
    }

    /// Rotate to a fresh key; old keys slide into the grace window.
    pub fn rotate(&mut self, label_seed: &str) {
        self.rotations += 1;
        let next = SimKeyPair::derive(&format!("{label_seed}:{}", self.rotations));
        let old = std::mem::replace(&mut self.current, next);
        self.grace.insert(0, old);
        self.grace.truncate(self.grace_depth);
        self.config_counter = self.config_counter.wrapping_add(1);
    }

    /// Try to open a sealed payload with the current key, then the grace
    /// window. Returns the plaintext on success.
    pub fn open(&self, aad: &[u8], sealed: &[u8]) -> Option<Vec<u8>> {
        if let Some(pt) = self.current.open(aad, sealed) {
            return Some(pt);
        }
        self.grace.iter().find_map(|k| k.open(aad, sealed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn config(id: u8) -> EchConfig {
        EchConfig::new(
            id,
            name("cloudflare-ech.com"),
            SimKeyPair::derive(&format!("k{id}")).public(),
        )
    }

    #[test]
    fn config_list_round_trip() {
        let list = EchConfigList(vec![config(1), config(2)]);
        let bytes = list.encode();
        assert_eq!(EchConfigList::decode(&bytes).unwrap(), list);
    }

    #[test]
    fn truncated_and_garbage_are_malformed() {
        let list = EchConfigList::single(config(1));
        let bytes = list.encode();
        for cut in 0..bytes.len() {
            assert!(EchConfigList::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        assert!(EchConfigList::decode(b"not an ech config at all").is_none());
        assert!(EchConfigList::decode(&[]).is_none());
        // Wrong version word.
        let mut bad = bytes.clone();
        bad[2] = 0x00;
        assert!(EchConfigList::decode(&bad).is_none());
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = EchConfigList::single(config(1)).encode();
        bytes.push(0);
        assert!(EchConfigList::decode(&bytes).is_none());
    }

    #[test]
    fn key_manager_rotation_and_grace() {
        let mut mgr = EchKeyManager::new(name("cloudflare-ech.com"), "seed", 1);
        let cfg0 = mgr.current_config();
        let sealed0 = cfg0.public_key.seal(b"", b"inner0");

        mgr.rotate("seed");
        let cfg1 = mgr.current_config();
        assert_ne!(cfg0.public_key, cfg1.public_key);
        assert_ne!(cfg0.config_id, cfg1.config_id);

        // Grace window still opens the old config's payloads.
        assert_eq!(mgr.open(b"", &sealed0).unwrap(), b"inner0");
        // Current key works too.
        let sealed1 = cfg1.public_key.seal(b"", b"inner1");
        assert_eq!(mgr.open(b"", &sealed1).unwrap(), b"inner1");

        // After a second rotation (grace depth 1), key 0 ages out.
        mgr.rotate("seed");
        assert!(mgr.open(b"", &sealed0).is_none());
        assert_eq!(mgr.rotations, 2);
    }

    #[test]
    fn clone_equals_a_manager_replayed_from_the_seed() {
        // A clone must be indistinguishable from a manager rebuilt by
        // replaying every rotation: same advertised bytes, same rotation
        // count, same current and grace keys.
        let mut mgr = EchKeyManager::new(name("cloudflare-ech.com"), "cf-ech", 2);
        let mut sealed = Vec::new();
        for i in 0..50u32 {
            if i >= 47 {
                sealed.push(mgr.current_config().public_key.seal(b"aad", b"grace"));
            }
            mgr.rotate("cf-ech");
        }
        // Sealed to the key three rotations back (aged out of a depth-2
        // window), the two grace keys, and the current key.
        sealed.push(mgr.current_config().public_key.seal(b"aad", b"current"));
        let clone = mgr.clone();
        let mut replayed = EchKeyManager::new(name("cloudflare-ech.com"), "cf-ech", 2);
        for _ in 0..50 {
            replayed.rotate("cf-ech");
        }
        assert_eq!(clone.current_config_list().encode(), replayed.current_config_list().encode());
        assert_eq!(clone.rotations, 50);
        assert_eq!(clone.rotations, replayed.rotations);
        for (i, payload) in sealed.iter().enumerate() {
            assert_eq!(clone.open(b"aad", payload), replayed.open(b"aad", payload), "payload {i}");
            assert_eq!(clone.open(b"aad", payload).is_some(), i > 0, "payload {i}");
        }
    }

    #[test]
    fn clear_grace_breaks_stale_clients() {
        // A server that rotates without accounting for DNS caches (grace
        // depth 0, the cut-over mode) cannot open what a stale client
        // sealed; one with a grace window still can.
        for (depth, opens) in [(0, false), (4, true)] {
            let mut mgr = EchKeyManager::new(name("x.com"), "s", depth);
            let sealed = mgr.current_config().public_key.seal(b"", b"inner");
            mgr.rotate("s");
            assert_eq!(mgr.open(b"", &sealed).is_some(), opens, "grace depth {depth}");
        }
    }

    #[test]
    fn preferred_is_first() {
        let list = EchConfigList(vec![config(7), config(9)]);
        assert_eq!(list.preferred().config_id, 7);
    }
}
