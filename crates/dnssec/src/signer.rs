//! Signing over wire bytes: the one builder of RFC 4034 §3.1.8.1 signed
//! data, which the zone signs and the validator verifies through; zone
//! key material; and the checks of a signature and a DS against a key.

use crate::chain::SignedSet;
use dns_wire::record::{key_tag, DnskeyRdata, DsRdata};
use dns_wire::wire::WireWriter;
use dns_wire::{DnsName, RData, RdataView, Record, RecordType};
use simcrypto::{Signature, SimKeyPair, SimPublicKey};
use std::cell::Cell;

/// Private algorithm number used for the simulated scheme (PRIVATEDNS).
pub const SIM_ALGORITHM: u8 = 253;
/// Private digest-type number for simulated DS digests.
pub const SIM_DIGEST_TYPE: u8 = 253;

/// Where the signer's name starts in RRSIG RDATA.
pub(crate) const SIGNER_AT: usize = 18;

/// Key material for a signed zone: one zone-signing key used both as ZSK
/// and KSK (single-key zones keep the simulation simple; the chain logic
/// is unchanged).
#[derive(Debug, Clone)]
pub struct ZoneKeys {
    /// The zone apex these keys sign for.
    pub apex: DnsName,
    key: SimKeyPair,
    key_tag: u16,
}

impl ZoneKeys {
    /// Deterministically derive keys for a zone (same apex+generation →
    /// same key; bump `generation` to roll the key).
    pub fn derive(apex: &DnsName, generation: u32) -> ZoneKeys {
        let label = format!("zonekey:{}:{generation}", apex.key());
        let mut keys = ZoneKeys { apex: apex.clone(), key: SimKeyPair::derive(&label), key_tag: 0 };
        keys.key_tag = key_tag(&wire(&RData::Dnskey(keys.dnskey_rdata())));
        keys
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
        let digest = ds_digest(&self.apex, &wire(&RData::Dnskey(self.dnskey_rdata())));
        let (algorithm, digest_type, digest) = (SIM_ALGORITHM, SIM_DIGEST_TYPE, digest.to_vec());
        let ds = DsRdata { key_tag: self.key_tag, algorithm, digest_type, digest };
        Record::new(self.apex.clone(), ttl, RData::Ds(ds))
    }

    /// Sign an RRset, producing its RRSIG record ([`ZoneKeys::write_rrsig`],
    /// decoded). All records must share owner name, type, and TTL.
    pub fn sign(&self, rrset: &[Record], inception: u32, expiration: u32) -> Record {
        let first = rrset.first().expect("cannot sign an empty RRset");
        let rdatas: Vec<Vec<u8>> = rrset.iter().map(|r| wire(&r.rdata)).collect();
        let views = rdatas.iter().map(|rdata| RdataView::new(rdata, (0, rdata.len())));
        let (mut out, window) = (Vec::new(), (inception, expiration));
        self.write_rrsig(&mut out, &first.name, first.rtype, first.ttl, views, window);
        let rdata = RData::decode(RecordType::Rrsig, (10, out.len()), &out).expect("RRSIG decodes");
        Record::with_type(first.name.clone(), RecordType::Rrsig, first.ttl, rdata)
    }

    /// Append the RRSIG record over `owner`'s `rtype` RRset, its records'
    /// RDATA read in place, as a zone keeps a record after its owner name:
    /// TYPE, CLASS, TTL, RDLENGTH, RDATA. `ttl`, the first record's, is
    /// the RRSIG's own and its original TTL.
    pub fn write_rrsig<'r>(
        &self,
        out: &mut Vec<u8>,
        owner: &DnsName,
        rtype: RecordType,
        ttl: u32,
        rdatas: impl IntoIterator<Item = RdataView<'r>>,
        (inception, expiration): (u32, u32),
    ) {
        let record = out.len();
        let [t0, t1] = rtype.code().to_be_bytes();
        // TYPE RRSIG, CLASS IN, TTL, RDLENGTH (patched below), then the
        // type covered, algorithm, labels, original TTL, window, key tag.
        out.extend_from_slice(&[0, 46, 0, 1]);
        out.extend_from_slice(&ttl.to_be_bytes());
        out.extend_from_slice(&[0, 0, t0, t1, SIM_ALGORITHM, owner.label_count() as u8]);
        for field in [ttl, expiration, inception] {
            out.extend_from_slice(&field.to_be_bytes());
        }
        out.extend_from_slice(&self.key_tag.to_be_bytes());
        out.extend(canonical_name(self.apex.labels()));
        let unsigned = RdataView::new(out, (record + 10, out.len()));
        let signature = with_signed_data(unsigned, owner, rdatas, |data, _| self.key.sign(data));
        out.extend_from_slice(&signature.expect("the RDATA above holds a signer").0);
        let rdlength = (out.len() - record - 10) as u16;
        out[record + 8..record + 10].copy_from_slice(&rdlength.to_be_bytes());
    }
}

fn wire(rdata: &RData) -> Vec<u8> {
    let mut w = WireWriter::new();
    rdata.encode(&mut w);
    w.into_bytes()
}

thread_local! {
    /// [`with_signed_data`]'s buffers, taken for a build and put back
    /// after it (so a build nested in another gets its own).
    #[allow(clippy::type_complexity)]
    static SCRATCH: Cell<(Vec<u8>, Vec<u8>, Vec<(usize, usize)>)> =
        const { Cell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// The one builder of RFC 4034 §3.1.8.1 signed data, which the zone
/// signs and the validator verifies: hands `f` the RRSIG RDATA up to its
/// signer, the signer in canonical form, then each record — the
/// lowercased `owner`, the type covered, class IN, the original TTL, the
/// RDATA in canonical form (§6.2) — in canonical order (§6.3),
/// duplicates kept; and the RRSIG's signature. Everything is read in
/// place into buffers this thread keeps. `None` when the RRSIG RDATA
/// holds no signer.
pub(crate) fn with_signed_data<'r, R>(
    rrsig: RdataView<'_>,
    owner: &DnsName,
    rdatas: impl IntoIterator<Item = RdataView<'r>>,
    f: impl FnOnce(&[u8], &[u8]) -> R,
) -> Option<R> {
    let fixed = rrsig.bytes().get(..SIGNER_AT)?;
    let (signer, signature) = rrsig.name_at(SIGNER_AT)?;
    let rtype = RecordType::from_code(u16::from_be_bytes([fixed[0], fixed[1]]));
    let (mut data, mut canonical, mut spans) = SCRATCH.take();
    data.clear();
    canonical.clear();
    data.extend_from_slice(fixed);
    data.extend(canonical_name(signer.labels()));
    // What every record starts with, then each one's RDATA.
    canonical.extend(canonical_name(owner.labels()));
    canonical
        .extend_from_slice(&[fixed[0], fixed[1], 0, 1, fixed[4], fixed[5], fixed[6], fixed[7]]);
    let head = canonical.len();
    for rdata in rdatas {
        let start = canonical.len();
        put_canonical_rdata(&mut canonical, rtype, rdata);
        spans.push((start, canonical.len()));
    }
    spans.sort_unstable_by(|a, b| canonical[a.0..a.1].cmp(&canonical[b.0..b.1]));
    for (start, end) in spans.drain(..) {
        data.extend_from_slice(&canonical[..head]);
        data.extend_from_slice(&((end - start) as u16).to_be_bytes());
        data.extend_from_slice(&canonical[start..end]);
    }
    let out = f(&data, &rrsig.bytes()[signature..]);
    SCRATCH.set((data, canonical, spans));
    Some(out)
}

/// A name's uncompressed wire form, lowercased (RFC 4034 §6.2).
fn canonical_name<'n>(
    labels: impl Iterator<Item = &'n [u8]> + 'n,
) -> impl Iterator<Item = u8> + 'n {
    labels
        .flat_map(|l| std::iter::once(l.len() as u8).chain(l.iter().map(u8::to_ascii_lowercase)))
        .chain(std::iter::once(0))
}

/// Append RDATA in canonical form (RFC 4034 §6.2): the names
/// [`RecordType::rdata_names`] lists expanded and lowercased, the rest
/// verbatim — as is all other RDATA (HTTPS and SVCB included: RFC 9460
/// §2.2 forbids compressing their target) and what follows a name that
/// does not parse.
fn put_canonical_rdata(out: &mut Vec<u8>, rtype: RecordType, rdata: RdataView<'_>) {
    let (before, names) = rtype.rdata_names();
    let bytes = rdata.bytes();
    let mut at = before.min(bytes.len());
    out.extend_from_slice(&bytes[..at]);
    for _ in 0..names {
        let Some((name, next)) = rdata.name_at(at) else { break };
        out.extend(canonical_name(name.labels()));
        at = next;
    }
    out.extend_from_slice(&bytes[at..]);
}

/// Whether the RRSIG with RDATA `rrsig` over `set` verifies under the
/// DNSKEY with RDATA `dnskey` at `now`: algorithm, key tag and validity
/// window, then the signature over the signed data.
pub(crate) fn verify(rrsig: RdataView<'_>, set: &impl SignedSet, dnskey: &[u8], now: u32) -> bool {
    let key = dnskey.get(4..).and_then(SimPublicKey::from_bytes);
    let (Some(f), Some(key)) = (rrsig.bytes().get(..SIGNER_AT), key) else {
        return false;
    };
    let field = |at: usize| u32::from_be_bytes([f[at], f[at + 1], f[at + 2], f[at + 3]]);
    let checks = |data: &[u8], signature: &[u8]| {
        signature.try_into().is_ok_and(|signature| key.verify(data, &Signature(signature)))
    };
    f[2] == SIM_ALGORITHM
        && dnskey[3] == SIM_ALGORITHM
        && u16::from_be_bytes([f[16], f[17]]) == key_tag(dnskey)
        && (field(12)..=field(8)).contains(&now)
        && with_signed_data(rrsig, set.owner(), set.rdatas(), checks) == Some(true)
}

/// The DS digest of a zone's DNSKEY RDATA, over the zone's name in
/// canonical form (RFC 4034 §5.1.4).
fn ds_digest(owner: &DnsName, dnskey: &[u8]) -> [u8; 16] {
    let mut name = [0u8; 255];
    let len = name.iter_mut().zip(canonical_name(owner.labels())).map(|(to, b)| *to = b).count();
    simcrypto::unkeyed_digest(&[&name[..len], dnskey])
}

/// Whether the DS with RDATA `ds` endorses the DNSKEY with RDATA
/// `dnskey` of the zone `owner`.
pub(crate) fn ds_matches_dnskey(ds: &[u8], owner: &DnsName, dnskey: &[u8]) -> bool {
    ds.len() > 4
        && ds[2..4] == [SIM_ALGORITHM, SIM_DIGEST_TYPE]
        && u16::from_be_bytes([ds[0], ds[1]]) == key_tag(dnskey)
        && ds[4..] == ds_digest(owner, dnskey)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dns_wire::record::{RrsigRdata, SoaRdata, SrvRdata};
    use dns_wire::{MessageView, SvcParam, SvcbRdata};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;
    use std::ops::Range;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    /// A set as a reply holds it: the records' RDATA, then the RRSIGs',
    /// one after another in one buffer.
    pub(crate) struct TestSet {
        owner: DnsName,
        rtype: RecordType,
        bytes: Vec<u8>,
        records: Vec<Range<usize>>,
        rrsigs: Vec<Range<usize>>,
    }

    impl TestSet {
        pub(crate) fn new(records: &[Record], rrsigs: &[RrsigRdata]) -> TestSet {
            let mut w = WireWriter::new();
            let mut put = |rdata: RData| {
                let start = w.len();
                rdata.encode(&mut w);
                start..w.len()
            };
            let ranges = records.iter().map(|r| put(r.rdata.clone())).collect();
            let sigs = rrsigs.iter().map(|s| put(RData::Rrsig(s.clone()))).collect();
            TestSet {
                owner: records[0].name.clone(),
                rtype: records[0].rtype,
                bytes: w.into_bytes(),
                records: ranges,
                rrsigs: sigs,
            }
        }
    }

    impl SignedSet for TestSet {
        fn owner(&self) -> &DnsName {
            &self.owner
        }

        fn rtype(&self) -> RecordType {
            self.rtype
        }

        fn rdatas(&self) -> impl Iterator<Item = RdataView<'_>> {
            self.records.iter().map(|r| RdataView::new(&self.bytes, (r.start, r.end)))
        }

        fn signatures(&self) -> impl Iterator<Item = RdataView<'_>> {
            self.rrsigs.iter().map(|r| RdataView::new(&self.bytes, (r.start, r.end)))
        }
    }

    pub(crate) fn rrsig_of(rec: &Record) -> RrsigRdata {
        match &rec.rdata {
            RData::Rrsig(s) => s.clone(),
            other => panic!("expected RRSIG, got {other:?}"),
        }
    }

    fn wire(rdata: RData) -> Vec<u8> {
        let mut w = WireWriter::new();
        rdata.encode(&mut w);
        w.into_bytes()
    }

    /// Whether `sig` over `rrset` verifies under `keys`' DNSKEY at `now`.
    fn verifies(sig: &Record, rrset: &[Record], keys: &ZoneKeys, now: u32) -> bool {
        let set = TestSet::new(rrset, &[rrsig_of(sig)]);
        let dnskey = wire(RData::Dnskey(keys.dnskey_rdata()));
        let sig = set.signatures().next().unwrap();
        verify(sig, &set, &dnskey, now)
    }

    fn a_rrset() -> Vec<Record> {
        vec![
            Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(1, 2, 3, 4))),
            Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(5, 6, 7, 8))),
        ]
    }

    #[test]
    fn sign_then_verify() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let sig = keys.sign(&rrset, 100, 10_000);
        assert!(verifies(&sig, &rrset, &keys, 5_000));
    }

    #[test]
    fn verification_fails_outside_validity_window() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let sig = keys.sign(&rrset, 100, 10_000);
        assert!(!verifies(&sig, &rrset, &keys, 50));
        assert!(!verifies(&sig, &rrset, &keys, 10_001));
    }

    #[test]
    fn verification_fails_on_tampered_rrset() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let sig = keys.sign(&rrset, 0, u32::MAX);
        let mut tampered = rrset.clone();
        tampered[0].rdata = RData::A(Ipv4Addr::new(6, 6, 6, 6));
        assert!(!verifies(&sig, &tampered, &keys, 1));
    }

    #[test]
    fn verification_fails_with_rotated_key() {
        let gen0 = ZoneKeys::derive(&name("a.com"), 0);
        let gen1 = ZoneKeys::derive(&name("a.com"), 1);
        let rrset = a_rrset();
        let sig = gen0.sign(&rrset, 0, u32::MAX);
        assert!(!verifies(&sig, &rrset, &gen1, 1));
    }

    #[test]
    fn rrset_order_does_not_matter() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let rrset = a_rrset();
        let mut reversed = rrset.clone();
        reversed.reverse();
        let sig = keys.sign(&rrset, 0, u32::MAX);
        assert!(verifies(&sig, &reversed, &keys, 1));
    }

    #[test]
    fn ds_matches_only_its_key() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let other = ZoneKeys::derive(&name("a.com"), 1);
        let ds = wire(keys.ds_record(300).rdata);
        let key = |keys: &ZoneKeys| wire(RData::Dnskey(keys.dnskey_rdata()));
        assert!(ds_matches_dnskey(&ds, &name("a.com"), &key(&keys)));
        assert!(!ds_matches_dnskey(&ds, &name("a.com"), &key(&other)));
        assert!(!ds_matches_dnskey(&ds, &name("b.com"), &key(&keys)));
    }

    /// RFC 4034 §5.1.4 digests the owner in canonical form: a DS made for
    /// `a.com` endorses its key under a signer spelled `A.COM`, and one
    /// made by keys for `A.Com` endorses it under `a.com`.
    #[test]
    fn a_ds_matches_its_key_under_any_spelling_of_the_owner() {
        for (made_for, checked_under) in [("a.com", "A.COM"), ("A.Com", "a.com")] {
            let keys = ZoneKeys::derive(&name(made_for), 0);
            let ds = wire(keys.ds_record(300).rdata);
            let dnskey = wire(RData::Dnskey(keys.dnskey_rdata()));
            assert!(ds_matches_dnskey(&ds, &name(checked_under), &dnskey), "{made_for}");
        }
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
        assert!(verifies(&sig, &upper, &keys, 1));
    }

    /// §6.2: the name inside a CNAME's RDATA is signed lowercased, so its
    /// spelling does not matter either; an HTTPS target's does.
    #[test]
    fn rdata_name_case_matters_only_outside_the_listed_types() {
        let keys = ZoneKeys::derive(&name("a.com"), 0);
        let cname = |target| vec![Record::new(name("www.a.com"), 300, RData::Cname(name(target)))];
        let sig = keys.sign(&cname("Target.A.com"), 0, u32::MAX);
        assert!(verifies(&sig, &cname("target.a.com"), &keys, 1));
        let https = |target| {
            let rdata = SvcbRdata { priority: 1, target: name(target), params: Vec::new() };
            vec![Record::new(name("a.com"), 300, RData::Https(rdata))]
        };
        let sig = keys.sign(&https("Pool.a.com"), 0, u32::MAX);
        assert!(verifies(&sig, &https("Pool.a.com"), &keys, 1));
        assert!(!verifies(&sig, &https("pool.a.com"), &keys, 1));
    }

    #[test]
    fn dnskey_flags_and_tag() {
        let keys = ZoneKeys::derive(&name("example.org"), 3);
        let rd = keys.dnskey_rdata();
        assert_eq!(rd.flags, 257, "zone key and secure entry point");
        assert_eq!(rd.algorithm, SIM_ALGORITHM);
        let sig = rrsig_of(&keys.sign(&a_rrset(), 0, 1));
        assert_eq!(sig.key_tag, key_tag(&wire(RData::Dnskey(rd))));
    }

    // What the builder replaced, kept as its oracle: the signed data
    // built from owned records, each RDATA encoded on its own, sorted,
    // with the owner lowercased and nothing else.

    fn rrset_signing_bytes(sig_template: &RrsigRdata, rrset: &[Record]) -> Vec<u8> {
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
        // form is the first record's (every length octet is below 'A').
        let owner = rrset.first().map(|r| {
            let mut ow = WireWriter::new();
            ow.put_name_uncompressed(&r.name);
            ow.into_bytes().to_ascii_lowercase()
        });
        let owner = owner.unwrap_or_default();
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

    /// Labels in both cases, so that names share suffixes up to case.
    fn arb_name() -> impl Strategy<Value = DnsName> {
        let label = prop_oneof![
            Just("a"),
            Just("A"),
            Just("www"),
            Just("Www"),
            Just("example"),
            Just("EXAMPLE"),
            Just("com"),
        ];
        proptest::collection::vec(label, 0..4).prop_map(|l| DnsName::from_labels(l).unwrap())
    }

    fn lower(name: &DnsName) -> DnsName {
        DnsName::from_labels(name.labels().map(<[u8]>::to_ascii_lowercase)).unwrap()
    }

    /// Every modelled type (and one opaque RFC 3597 type), by index.
    const TYPES: [RecordType; 15] = [
        RecordType::A,
        RecordType::Aaaa,
        RecordType::Ns,
        RecordType::Cname,
        RecordType::Ptr,
        RecordType::Mx,
        RecordType::Txt,
        RecordType::Soa,
        RecordType::Srv,
        RecordType::Dname,
        RecordType::Https,
        RecordType::Svcb,
        RecordType::Dnskey,
        RecordType::Ds,
        RecordType::Unknown(999),
    ];

    /// Material for one record's RDATA: two names, two numbers, bytes.
    type Material = (DnsName, DnsName, u16, u32, Vec<u8>);

    fn arb_material() -> impl Strategy<Value = Material> {
        let bytes = proptest::collection::vec(any::<u8>(), 1..12);
        (arb_name(), arb_name(), any::<u16>(), any::<u32>(), bytes)
    }

    /// RDATA of type `rtype` made from `m`; with `lowered`, the names
    /// RFC 4034 §6.2 lowercases are lowercased.
    fn rdata_of(rtype: RecordType, m: &Material, lowered: bool) -> RData {
        let (one, two, n16, n32, bytes) = m;
        let fold = |n: &DnsName| if lowered { lower(n) } else { n.clone() };
        match rtype {
            RecordType::A => RData::A(Ipv4Addr::from(*n32)),
            RecordType::Aaaa => RData::Aaaa(Ipv4Addr::from(*n32).to_ipv6_mapped()),
            RecordType::Ns => RData::Ns(fold(one)),
            RecordType::Cname => RData::Cname(fold(one)),
            RecordType::Ptr => RData::Ptr(fold(one)),
            RecordType::Dname => RData::Dname(fold(one)),
            RecordType::Mx => RData::Mx(*n16, fold(one)),
            RecordType::Txt => RData::Txt(vec![bytes.clone(), one.to_string().into_bytes()]),
            RecordType::Soa => RData::Soa(SoaRdata {
                mname: fold(one),
                rname: fold(two),
                serial: *n32,
                refresh: 7200,
                retry: u32::from(*n16),
                expire: 1_209_600,
                minimum: 300,
            }),
            RecordType::Srv => {
                RData::Srv(SrvRdata { priority: *n16, weight: 5, port: 443, target: fold(one) })
            }
            RecordType::Https | RecordType::Svcb => {
                let params = vec![SvcParam::Alpn(vec![bytes.clone()]), SvcParam::Port(*n16)];
                let rdata = SvcbRdata { priority: *n16, target: one.clone(), params };
                if rtype == RecordType::Https {
                    RData::Https(rdata)
                } else {
                    RData::Svcb(rdata)
                }
            }
            RecordType::Dnskey => RData::Dnskey(DnskeyRdata {
                flags: *n16,
                protocol: 3,
                algorithm: SIM_ALGORITHM,
                public_key: bytes.clone(),
            }),
            RecordType::Ds => RData::Ds(DsRdata {
                key_tag: *n16,
                algorithm: SIM_ALGORITHM,
                digest_type: SIM_DIGEST_TYPE,
                digest: bytes.clone(),
            }),
            _ => RData::Unknown(bytes.clone()),
        }
    }

    /// Write RDATA with the names §6.2 lists compressed against what
    /// `w` holds, as a reply may carry them.
    fn put_compressed(w: &mut WireWriter, rdata: &RData) {
        match rdata {
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) | RData::Dname(n) => w.put_name(n),
            RData::Mx(preference, host) => {
                w.put_u16(*preference);
                w.put_name(host);
            }
            RData::Soa(soa) => {
                w.put_name(&soa.mname);
                w.put_name(&soa.rname);
                for field in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    w.put_u32(field);
                }
            }
            RData::Srv(srv) => {
                for field in [srv.priority, srv.weight, srv.port] {
                    w.put_u16(field);
                }
                w.put_name(&srv.target);
            }
            RData::Rrsig(sig) => {
                let mut fixed = WireWriter::new();
                RData::Rrsig(RrsigRdata { signer: DnsName::root(), ..sig.clone() })
                    .encode(&mut fixed);
                w.put_bytes(&fixed.as_bytes()[..SIGNER_AT]);
                w.put_name(&sig.signer);
                w.put_bytes(&sig.signature);
            }
            other => other.encode(w),
        }
    }

    /// A reply to `(owner, rtype)` answering `records` then `rrsigs`,
    /// every name it can compress compressed.
    fn reply(owner: &DnsName, rtype: RecordType, records: &[RData], rrsigs: &[RData]) -> Vec<u8> {
        let mut w = WireWriter::new();
        for field in [0, 0x8400, 1, (records.len() + rrsigs.len()) as u16, 0, 0] {
            w.put_u16(field);
        }
        w.put_name(owner);
        w.put_u16(rtype.code());
        w.put_u16(1);
        for (t, rdata) in
            records.iter().map(|r| (rtype, r)).chain(rrsigs.iter().map(|r| (RecordType::Rrsig, r)))
        {
            w.put_name(owner);
            w.put_u16(t.code());
            w.put_u16(1);
            w.put_u32(300);
            let len_at = w.len();
            w.put_u16(0);
            put_compressed(&mut w, rdata);
            w.patch_u16(len_at, (w.len() - len_at - 2) as u16);
        }
        w.into_bytes()
    }

    /// A record as a zone node keeps it after its owner name: TYPE, CLASS,
    /// TTL, RDLENGTH, then the RDATA (at offset 10), names uncompressed.
    fn after_owner(rtype: RecordType, rdata: &RData) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u16(rtype.code());
        w.put_u16(1);
        w.put_u32(300);
        w.put_u16(0);
        rdata.encode(&mut w);
        w.patch_u16(8, (w.len() - 10) as u16);
        w.into_bytes()
    }

    fn signed_data<'r>(
        rrsig: RdataView<'_>,
        owner: &DnsName,
        rdatas: impl IntoIterator<Item = RdataView<'r>>,
    ) -> Vec<u8> {
        with_signed_data(rrsig, owner, rdatas, |data, _| data.to_vec()).unwrap()
    }

    proptest! {
        /// Random sets of every modelled type — names in their RDATA
        /// compressed and in mixed case, records repeated, several RRSIGs
        /// with mixed-case signers — read from a reply and from zone-node
        /// records: the builder's signed data equals the owned builder it
        /// replaced, given the set with its owner, its signer and the
        /// §6.2 RDATA names lowercased.
        #[test]
        fn signed_data_equals_the_owned_builder_it_replaced(
            t in 0usize..TYPES.len(),
            owner in arb_name(),
            pool in proptest::collection::vec(arb_material(), 1..4),
            picks in proptest::collection::vec(0usize..4, 1..7),
            sigs in proptest::collection::vec((arb_name(), any::<u32>(), any::<u16>(), 0u8..4), 1..4),
        ) {
            let rtype = TYPES[t];
            let set = |lowered| -> Vec<RData> {
                picks.iter().map(|&i| rdata_of(rtype, &pool[i % pool.len()], lowered)).collect()
            };
            let (records, lowered) = (set(false), set(true));
            let rrsigs: Vec<RrsigRdata> = sigs
                .iter()
                .map(|(signer, time, tag, labels)| RrsigRdata {
                    type_covered: rtype,
                    algorithm: SIM_ALGORITHM,
                    labels: *labels,
                    original_ttl: time / 3,
                    expiration: *time,
                    inception: time / 2,
                    key_tag: *tag,
                    signer: signer.clone(),
                    signature: vec![0xA5; usize::from(*labels) * 4],
                })
                .collect();

            let as_rrsig = |sig: &RrsigRdata| RData::Rrsig(sig.clone());
            let bytes = reply(&owner, rtype, &records, &rrsigs.iter().map(as_rrsig).collect::<Vec<_>>());
            let view = MessageView::parse(&bytes).unwrap();
            let answers: Vec<_> = view.answers().collect();
            let (in_reply, sigs_in_reply) = answers.split_at(records.len());
            let node: Vec<Vec<u8>> = records.iter().map(|r| after_owner(rtype, r)).collect();
            let in_node = || node.iter().map(|r| RdataView::new(r, (10, r.len())));

            let owned: Vec<Record> = lowered
                .iter()
                .map(|rdata| Record::with_type(lower(&owner), rtype, 300, rdata.clone()))
                .collect();
            for (sig, in_reply_sig) in rrsigs.iter().zip(sigs_in_reply) {
                let template = RrsigRdata { signer: lower(&sig.signer), signature: Vec::new(), ..sig.clone() };
                let expected = rrset_signing_bytes(&template, &owned);
                let from_reply = signed_data(
                    in_reply_sig.rdata_view(),
                    &owner,
                    in_reply.iter().map(|r| r.rdata_view()),
                );
                prop_assert_eq!(&from_reply, &expected);
                let sig_in_node = after_owner(RecordType::Rrsig, &as_rrsig(sig));
                let sig_view = RdataView::new(&sig_in_node, (10, sig_in_node.len()));
                prop_assert_eq!(&signed_data(sig_view, &owner, in_node()), &expected);
            }
        }
    }
}
