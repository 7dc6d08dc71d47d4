//! RRset signing: canonical signing bytes, RRSIG generation, and zone
//! key material (DNSKEY + parent-side DS).

use dns_wire::record::{DnskeyRdata, DsRdata, RrsigRdata};
use dns_wire::wire::WireWriter;
use dns_wire::{DnsName, RData, Record, RecordType};
use simcrypto::{SimKeyPair, SimPublicKey};

/// Private algorithm number used for the simulated scheme (PRIVATEDNS).
pub const SIM_ALGORITHM: u8 = 253;
/// Private digest-type number for simulated DS digests.
pub const SIM_DIGEST_TYPE: u8 = 253;

/// Key material for a signed zone: one zone-signing key used both as ZSK
/// and KSK (single-key zones keep the simulation simple; the chain logic
/// is unchanged).
#[derive(Debug, Clone)]
pub struct ZoneKeys {
    /// The zone apex these keys sign for.
    pub apex: DnsName,
    key: SimKeyPair,
}

impl ZoneKeys {
    /// Deterministically derive keys for a zone (same apex+generation →
    /// same key; bump `generation` to roll the key).
    pub fn derive(apex: &DnsName, generation: u32) -> ZoneKeys {
        let label = format!("zonekey:{}:{generation}", apex.key());
        ZoneKeys { apex: apex.clone(), key: SimKeyPair::derive(&label) }
    }

    /// The DNSKEY record to publish at the zone apex.
    pub fn dnskey_record(&self, ttl: u32) -> Record {
        Record::new(self.apex.clone(), ttl, RData::Dnskey(self.dnskey_rdata()))
    }

    /// The DNSKEY RDATA (flags 257: zone key + SEP).
    pub fn dnskey_rdata(&self) -> DnskeyRdata {
        DnskeyRdata {
            flags: 257,
            protocol: 3,
            algorithm: SIM_ALGORITHM,
            public_key: self.key.public().to_bytes(),
        }
    }

    /// The DS record the *parent* zone should publish for this zone.
    /// A registrar/operator mismatch in the ecosystem model simply omits
    /// this record, yielding the Insecure state.
    pub fn ds_record(&self, ttl: u32) -> Record {
        let dnskey = self.dnskey_rdata();
        let mut w = WireWriter::new();
        w.put_name_uncompressed(&self.apex);
        let mut rdw = WireWriter::new();
        RData::Dnskey(dnskey.clone()).encode(&mut rdw);
        w.put_bytes(rdw.as_bytes());
        let digest = simcrypto::unkeyed_digest(w.as_bytes()).to_vec();
        Record::new(
            self.apex.clone(),
            ttl,
            RData::Ds(DsRdata {
                key_tag: dnskey.key_tag(),
                algorithm: SIM_ALGORITHM,
                digest_type: SIM_DIGEST_TYPE,
                digest,
            }),
        )
    }

    /// Sign an RRset, producing its RRSIG record. All records must share
    /// owner name, type, and TTL.
    pub fn sign(&self, rrset: &[Record], inception: u32, expiration: u32) -> Record {
        sign_rrset(&self.key, &self.apex, rrset, inception, expiration)
    }
}

/// Compute the canonical bytes an RRSIG covers (RFC 4034 §3.1.8.1,
/// simplified: RRSIG-RDATA-minus-signature || canonical RRset).
pub fn rrset_signing_bytes(sig_template: &RrsigRdata, rrset: &[Record]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u16(sig_template.type_covered.code());
    w.put_u8(sig_template.algorithm);
    w.put_u8(sig_template.labels);
    w.put_u32(sig_template.original_ttl);
    w.put_u32(sig_template.expiration);
    w.put_u32(sig_template.inception);
    w.put_u16(sig_template.key_tag);
    w.put_name_uncompressed(&sig_template.signer);

    // Canonical RRset: sort by RDATA wire form; lowercase owner. Every
    // record of a set has the same owner up to case, so its canonical
    // form is the first record's.
    let owner = rrset.first().map(|r| r.name.canonical_wire()).unwrap_or_default();
    let mut rdatas: Vec<Vec<u8>> = rrset
        .iter()
        .map(|r| {
            let mut rw = WireWriter::new();
            r.rdata.encode(&mut rw);
            rw.into_bytes()
        })
        .collect();
    rdatas.sort();
    for rdata in &rdatas {
        w.put_bytes(&owner);
        w.put_u16(sig_template.type_covered.code());
        w.put_u16(1); // class IN
        w.put_u32(sig_template.original_ttl);
        w.put_u16(rdata.len() as u16);
        w.put_bytes(rdata);
    }
    w.into_bytes()
}

/// Sign an RRset with an arbitrary key (used directly by tests that need
/// a *wrong* key; production code goes through [`ZoneKeys::sign`]).
pub fn sign_rrset(
    key: &SimKeyPair,
    signer: &DnsName,
    rrset: &[Record],
    inception: u32,
    expiration: u32,
) -> Record {
    assert!(!rrset.is_empty(), "cannot sign an empty RRset");
    let first = &rrset[0];
    debug_assert!(rrset.iter().all(|r| r.name == first.name && r.rtype == first.rtype));
    let dnskey = DnskeyRdata {
        flags: 257,
        protocol: 3,
        algorithm: SIM_ALGORITHM,
        public_key: key.public().to_bytes(),
    };
    let template = RrsigRdata {
        type_covered: first.rtype,
        algorithm: SIM_ALGORITHM,
        labels: first.name.label_count() as u8,
        original_ttl: first.ttl,
        expiration,
        inception,
        key_tag: dnskey.key_tag(),
        signer: signer.clone(),
        signature: Vec::new(),
    };
    let bytes = rrset_signing_bytes(&template, rrset);
    let sig = key.sign(&bytes);
    let mut rdata = template;
    rdata.signature = sig.0.to_vec();
    Record::with_type(first.name.clone(), RecordType::Rrsig, first.ttl, RData::Rrsig(rdata))
}

/// Verify an RRSIG over an RRset with a DNSKEY. Checks algorithm, key
/// tag, signer, validity window, and the signature itself.
pub fn verify_rrsig(sig: &RrsigRdata, rrset: &[Record], dnskey: &DnskeyRdata, now: u32) -> bool {
    if rrset.is_empty()
        || sig.algorithm != SIM_ALGORITHM
        || dnskey.algorithm != SIM_ALGORITHM
        || sig.key_tag != dnskey.key_tag()
        || now < sig.inception
        || now > sig.expiration
    {
        return false;
    }
    let Some(pk) = SimPublicKey::from_bytes(&dnskey.public_key) else {
        return false;
    };
    let mut template = sig.clone();
    let signature = std::mem::take(&mut template.signature);
    if signature.len() != 16 {
        return false;
    }
    let bytes = rrset_signing_bytes(&template, rrset);
    let mut sig_arr = [0u8; 16];
    sig_arr.copy_from_slice(&signature);
    pk.verify(&bytes, &simcrypto::Signature(sig_arr))
}

/// Check a DS record against a child DNSKEY (digest match).
pub fn ds_matches_dnskey(ds: &DsRdata, owner: &DnsName, dnskey: &DnskeyRdata) -> bool {
    if ds.algorithm != SIM_ALGORITHM
        || ds.digest_type != SIM_DIGEST_TYPE
        || ds.key_tag != dnskey.key_tag()
    {
        return false;
    }
    let mut w = WireWriter::new();
    w.put_name_uncompressed(owner);
    let mut rdw = WireWriter::new();
    RData::Dnskey(dnskey.clone()).encode(&mut rdw);
    w.put_bytes(rdw.as_bytes());
    simcrypto::unkeyed_digest(w.as_bytes()).to_vec() == ds.digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn a_rrset() -> Vec<Record> {
        vec![
            Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(1, 2, 3, 4))),
            Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(5, 6, 7, 8))),
        ]
    }

    fn rrsig_of(rec: &Record) -> &RrsigRdata {
        match &rec.rdata {
            RData::Rrsig(s) => s,
            other => panic!("expected RRSIG, got {other:?}"),
        }
    }

    #[test]
    fn sign_then_verify() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let sig = keys.sign(&rrset, 100, 10_000);
        assert!(verify_rrsig(rrsig_of(&sig), &rrset, &keys.dnskey_rdata(), 5_000));
    }

    #[test]
    fn verification_fails_outside_validity_window() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let sig = keys.sign(&rrset, 100, 10_000);
        assert!(!verify_rrsig(rrsig_of(&sig), &rrset, &keys.dnskey_rdata(), 50));
        assert!(!verify_rrsig(rrsig_of(&sig), &rrset, &keys.dnskey_rdata(), 10_001));
    }

    #[test]
    fn verification_fails_on_tampered_rrset() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let sig = keys.sign(&rrset, 0, u32::MAX);
        let mut tampered = rrset.clone();
        tampered[0].rdata = RData::A(Ipv4Addr::new(6, 6, 6, 6));
        assert!(!verify_rrsig(rrsig_of(&sig), &tampered, &keys.dnskey_rdata(), 1));
    }

    #[test]
    fn verification_fails_with_rotated_key() {
        let gen0 = ZoneKeys::derive(&name("a.com"), 0);
        let gen1 = ZoneKeys::derive(&name("a.com"), 1);
        let rrset = a_rrset();
        let sig = gen0.sign(&rrset, 0, u32::MAX);
        assert!(!verify_rrsig(rrsig_of(&sig), &rrset, &gen1.dnskey_rdata(), 1));
    }

    #[test]
    fn rrset_order_does_not_matter() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let mut reversed = rrset.clone();
        reversed.reverse();
        let sig = keys.sign(&rrset, 0, u32::MAX);
        assert!(verify_rrsig(rrsig_of(&sig), &reversed, &keys.dnskey_rdata(), 1));
    }

    #[test]
    fn ds_matches_only_its_key() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let other = ZoneKeys::derive(&name("a.com"), 1);
        let ds_rec = keys.ds_record(300);
        let ds = match &ds_rec.rdata {
            RData::Ds(d) => d.clone(),
            other => panic!("expected DS, got {other:?}"),
        };
        assert!(ds_matches_dnskey(&ds, &name("a.com"), &keys.dnskey_rdata()));
        assert!(!ds_matches_dnskey(&ds, &name("a.com"), &other.dnskey_rdata()));
        assert!(!ds_matches_dnskey(&ds, &name("b.com"), &keys.dnskey_rdata()));
    }

    #[test]
    fn owner_name_case_does_not_matter() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let sig = keys.sign(&rrset, 0, u32::MAX);
        let mut upper = rrset.clone();
        for r in &mut upper {
            r.name = name("A.COM");
        }
        assert!(verify_rrsig(rrsig_of(&sig), &upper, &keys.dnskey_rdata(), 1));
    }

    #[test]
    fn dnskey_flags_and_tag() {
        let keys = ZoneKeys::derive(&name("example.org"), 3);
        let rd = keys.dnskey_rdata();
        assert_eq!(rd.flags, 257, "zone key and secure entry point");
        assert_eq!(rd.algorithm, SIM_ALGORITHM);
    }
}
