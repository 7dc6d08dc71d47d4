//! # simcrypto
//!
//! Deterministic *simulated* cryptography for the `httpsrr` workspace.
//!
//! The paper's experiments depend on key **identity** — which ECH key a
//! record advertises vs. which key the server holds, whether a DNSSEC
//! signature was produced by the key a DS record points at, whether a
//! tampered RRset still verifies — never on cryptographic strength. This
//! crate therefore provides a keyed-MAC construction (a from-scratch
//! SipHash-2-4, tested against the reference vectors) wrapped in
//! sign/verify and seal/open APIs whose *failure modes* match real
//! crypto: verification fails on any bit flip, decryption fails on key
//! mismatch, and key ids distinguish rotated keys.
//!
//! **This is not security software.** "Public" keys carry the MAC key
//! material so that verifiers can recompute MACs; a real adversary could
//! forge. The simulated adversaries in this workspace do not.

#![warn(missing_docs)]

pub mod siphash;

use siphash::siphash24;

/// Domain-separation prefixes so signatures, digests and AEAD tags can
/// never be confused for one another.
mod domain {
    pub const SIGN: &[u8] = b"simcrypto/sign/v1";
    pub const DIGEST: &[u8] = b"simcrypto/digest/v1";
    pub const SEAL_TAG: &[u8] = b"simcrypto/seal-tag/v1";
    pub const SEAL_STREAM: &[u8] = b"simcrypto/seal-stream/v1";
}

/// A 128-bit keyed digest of the concatenation of `parts` (two
/// domain-separated SipHash-2-4 passes, each fed the tag and then the
/// parts in place).
pub fn digest128(key: &[u8; 16], parts: &[&[u8]]) -> [u8; 16] {
    let half = |pass: &[u8]| {
        let tagged = [domain::DIGEST, pass].into_iter().chain(parts.iter().copied());
        siphash24(key, tagged).to_le_bytes()
    };
    let (lo, hi) = (half(&[0]), half(&[1]));
    std::array::from_fn(|i| if i < 8 { lo[i] } else { hi[i - 8] })
}

/// An unkeyed 128-bit digest of the concatenation of `parts` (fixed
/// well-known key). Stands in for SHA-256 in DS-record digests.
pub fn unkeyed_digest(parts: &[&[u8]]) -> [u8; 16] {
    digest128(&[0x5A; 16], parts)
}

/// Identifier of a key pair; rotating a key yields a fresh id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct KeyId(u64);

/// A simulated key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimKeyPair {
    id: KeyId,
    material: [u8; 16],
}

/// The shareable half of a [`SimKeyPair`].
///
/// Carries the key material (see crate docs for why that is acceptable
/// here); equality of two public keys means "same underlying key".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimPublicKey {
    id: KeyId,
    material: [u8; 16],
}

/// A detached signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub [u8; 16]);

impl SimKeyPair {
    /// Deterministically derive a key pair from a label (for reproducible
    /// fixtures: same label, same key).
    pub fn derive(label: &str) -> Self {
        let material = digest128(&[0xA5; 16], &[label.as_bytes()]);
        let id = KeyId(siphash24(&material, [b"key-id"]));
        SimKeyPair { id, material }
    }

    /// The shareable public half.
    pub fn public(&self) -> SimPublicKey {
        SimPublicKey { id: self.id, material: self.material }
    }

    /// Sign a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(digest128(&self.material, &[domain::SIGN, message]))
    }

    /// Open a sealed box produced with [`SimPublicKey::seal`] against this
    /// key. Returns `None` when the key id differs, the tag fails, or the
    /// box is structurally invalid — the caller cannot distinguish these,
    /// matching real AEAD behaviour.
    pub fn open(&self, aad: &[u8], sealed: &[u8]) -> Option<Vec<u8>> {
        // Layout: key_id (8) | tag (16) | ciphertext (...)
        if sealed.len() < 24 {
            return None;
        }
        let mut idb = [0u8; 8];
        idb.copy_from_slice(&sealed[..8]);
        if KeyId(u64::from_le_bytes(idb)) != self.id {
            return None;
        }
        let tag: &[u8] = &sealed[8..24];
        let ciphertext = &sealed[24..];
        let plaintext = xor_stream(&self.material, ciphertext);
        let expect = seal_tag(&self.material, aad, &plaintext);
        if tag != expect {
            return None;
        }
        Some(plaintext)
    }
}

impl SimPublicKey {
    /// Opaque serialized form (id + material), e.g. for embedding in an
    /// ECHConfig or a DNSKEY record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(24);
        v.extend_from_slice(&self.id.0.to_le_bytes());
        v.extend_from_slice(&self.material);
        v
    }

    /// Parse the serialized form.
    pub fn from_bytes(bytes: &[u8]) -> Option<SimPublicKey> {
        if bytes.len() != 24 {
            return None;
        }
        let mut idb = [0u8; 8];
        idb.copy_from_slice(&bytes[..8]);
        let mut material = [0u8; 16];
        material.copy_from_slice(&bytes[8..]);
        Some(SimPublicKey { id: KeyId(u64::from_le_bytes(idb)), material })
    }

    /// Verify a detached signature over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        digest128(&self.material, &[domain::SIGN, message]) == sig.0
    }

    /// Seal `plaintext` to the holder of this key (ECH-style).
    pub fn seal(&self, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let tag = seal_tag(&self.material, aad, plaintext);
        let ciphertext = xor_stream(&self.material, plaintext);
        let mut out = Vec::with_capacity(24 + ciphertext.len());
        out.extend_from_slice(&self.id.0.to_le_bytes());
        out.extend_from_slice(&tag);
        out.extend_from_slice(&ciphertext);
        out
    }
}

fn seal_tag(key: &[u8; 16], aad: &[u8], plaintext: &[u8]) -> [u8; 16] {
    digest128(key, &[domain::SEAL_TAG, &(aad.len() as u64).to_le_bytes(), aad, plaintext])
}

fn xor_stream(key: &[u8; 16], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut counter: u64 = 0;
    let mut block = [0u8; 16];
    for (i, &b) in data.iter().enumerate() {
        if i % 16 == 0 {
            block = digest128(key, &[domain::SEAL_STREAM, &counter.to_le_bytes()]);
            counter += 1;
        }
        out.push(b ^ block[i % 16]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = SimKeyPair::derive("sign");
        let sig = kp.sign(b"hello https rr");
        assert!(kp.public().verify(b"hello https rr", &sig));
    }

    #[test]
    fn tampered_message_fails_verification() {
        let kp = SimKeyPair::derive("zone:a.com");
        let sig = kp.sign(b"record set");
        assert!(!kp.public().verify(b"record sey", &sig));
        let mut bad = sig.clone();
        bad.0[0] ^= 1;
        assert!(!kp.public().verify(b"record set", &bad));
    }

    #[test]
    fn wrong_key_fails_verification() {
        let a = SimKeyPair::derive("a");
        let b = SimKeyPair::derive("b");
        let sig = a.sign(b"msg");
        assert!(!b.public().verify(b"msg", &sig));
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        assert_eq!(SimKeyPair::derive("x"), SimKeyPair::derive("x"));
        assert_ne!(SimKeyPair::derive("x").id, SimKeyPair::derive("y").id);
    }

    #[test]
    fn seal_open_round_trip() {
        let kp = SimKeyPair::derive("seal");
        let sealed = kp.public().seal(b"outer-sni", b"inner client hello");
        assert_eq!(kp.open(b"outer-sni", &sealed).unwrap(), b"inner client hello");
    }

    #[test]
    fn open_fails_on_rotated_key() {
        // The §4.4.2 scenario: client sealed to a stale (cached) key.
        let old = SimKeyPair::derive("ech-2023-07-21T10");
        let new = SimKeyPair::derive("ech-2023-07-21T11");
        let sealed = old.public().seal(b"", b"inner");
        assert!(new.open(b"", &sealed).is_none());
        assert!(old.open(b"", &sealed).is_some());
    }

    #[test]
    fn open_fails_on_tamper_or_aad_mismatch() {
        let kp = SimKeyPair::derive("k");
        let mut sealed = kp.public().seal(b"aad", b"payload");
        assert!(kp.open(b"wrong-aad", &sealed).is_none());
        let last = sealed.len() - 1;
        sealed[last] ^= 0xFF;
        assert!(kp.open(b"aad", &sealed).is_none());
        assert!(kp.open(b"aad", &sealed[..10]).is_none());
    }

    #[test]
    fn public_key_serialization_round_trip() {
        let kp = SimKeyPair::derive("serialize-me");
        let pk = kp.public();
        let bytes = pk.to_bytes();
        assert_eq!(SimPublicKey::from_bytes(&bytes).unwrap(), pk);
        assert!(SimPublicKey::from_bytes(&bytes[..23]).is_none());
    }

    #[test]
    fn digest_is_stable_and_keyed() {
        let k1 = [1u8; 16];
        let k2 = [2u8; 16];
        assert_eq!(digest128(&k1, &[b"data"]), digest128(&k1, &[b"data"]));
        assert_ne!(digest128(&k1, &[b"data"]), digest128(&k2, &[b"data"]));
        assert_ne!(digest128(&k1, &[b"data"]), digest128(&k1, &[b"date"]));
        assert_eq!(unkeyed_digest(&[b"x"]), unkeyed_digest(&[b"x"]));
    }

    /// A message fed in two parts hashes as the whole, at every split
    /// point; and the outputs are the ones the concatenating code gave.
    #[test]
    fn parts_hash_as_their_concatenation_at_every_split() {
        let key = [1u8; 16];
        let message: Vec<u8> = (0..40).collect();
        for at in 0..=message.len() {
            let (head, tail) = message.split_at(at);
            for cut in 0..=tail.len() {
                let (mid, rest) = tail.split_at(cut);
                let parts = siphash24(&key, [head, mid, rest]);
                assert_eq!(parts, siphash24(&key, [&message]), "split at {at}, {cut}");
            }
            assert_eq!(digest128(&key, &[head, tail]), digest128(&key, &[&message]));
        }
        let pinned = [
            0x82, 0xab, 0xe0, 0x32, 0xd7, 0x40, 0x9a, 0x15, 0xbd, 0x74, 0x55, 0xe0, 0x31, 0x90,
            0x16, 0x5b,
        ];
        assert_eq!(digest128(&key, &[b"owner\x00", b"dnskey-rdata"]), pinned);
        let pinned = [
            0x22, 0x9f, 0x8d, 0xba, 0x06, 0x6c, 0x79, 0x76, 0x03, 0x64, 0xf5, 0x6f, 0xa6, 0x53,
            0x81, 0x09,
        ];
        assert_eq!(SimKeyPair::derive("pin").sign(b"signed data").0, pinned);
        let pinned = [
            0xd5, 0xe3, 0xe3, 0x05, 0xfb, 0x2a, 0xc9, 0x87, 0x70, 0xa8, 0x9f, 0x80, 0xe0, 0xdb,
            0xa4, 0xb7,
        ];
        assert_eq!(unkeyed_digest(&[b"\x01a\x03com\x00", b"rdata"]), pinned);
    }

    #[test]
    fn seal_hides_plaintext_bytes() {
        let kp = SimKeyPair::derive("privacy");
        let sealed = kp.public().seal(b"", b"private-example-ech.com");
        // The ciphertext portion must not contain the plaintext verbatim.
        let ct = &sealed[24..];
        assert_ne!(ct, b"private-example-ech.com");
    }

    #[test]
    fn empty_plaintext_seal_open() {
        let kp = SimKeyPair::derive("empty");
        let sealed = kp.public().seal(b"aad", b"");
        assert_eq!(kp.open(b"aad", &sealed).unwrap(), Vec::<u8>::new());
    }
}
