//! The checks that accept or reject RDATA without building it agree with
//! the decoders that build it: [`RecordView::check_rdata`] with
//! [`RecordView::rdata`] and with the decoder `RData::decode` replaced
//! (kept below as [`reference_decode`], which holds its own copy of every
//! rule) — the same values built, the same errors —
//! [`SvcbView::parse`] with [`SvcbRdata::decode`],
//! [`SvcParam::check`] with [`SvcParam::decode`], and
//! [`RecordView::soa_minimum`] with the decoded SOA's `minimum`; what
//! [`RecordView::svcb`] reads of checked RDATA is what the decoder
//! builds. A
//! resolver that only checks an answer must accept and reject exactly the
//! datagrams one that decodes it does.

use dns_wire::svcb::key;
use dns_wire::wire::{WireReader, WireWriter};
use dns_wire::{
    DnsName, DnskeyRdata, DsRdata, MessageView, RData, RecordType, RrsigRdata, SoaRdata, SrvRdata,
    SvcParam, SvcbRdata, SvcbView, WireError,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

/// The question name every message below asks about; RDATA may point
/// at it (offset 12) or at its suffix `example.com` (offset 16).
const QNAME: &str = "www.example.com";

fn svcb(priority: u16, target: &str, params: Vec<SvcParam>) -> SvcbRdata {
    SvcbRdata { priority, target: name(target), params }
}

/// One valid RDATA of every modelled type, plus a few shapes that
/// exercise compression pointers and SvcParam keys.
fn samples() -> Vec<(RecordType, Vec<u8>)> {
    let encode = |rdata: &RData| {
        let mut w = WireWriter::new();
        rdata.encode(&mut w);
        w.into_bytes()
    };
    let all_params = vec![
        SvcParam::Mandatory(vec![key::ALPN, key::IPV4HINT]),
        SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]),
        SvcParam::NoDefaultAlpn,
        SvcParam::Port(8443),
        SvcParam::Ipv4Hint(vec![Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(192, 0, 2, 2)]),
        SvcParam::Ech(vec![0xFE, 0x0D, 0, 1]),
        SvcParam::Ipv6Hint(vec![Ipv6Addr::LOCALHOST]),
        SvcParam::Unknown { key: 42, value: vec![1, 2, 3] },
    ];
    let rdatas = [
        RData::A(Ipv4Addr::new(192, 0, 2, 7)),
        RData::Aaaa(Ipv6Addr::LOCALHOST),
        RData::Cname(name("target.example.net")),
        RData::Dname(name("example.org")),
        RData::Ns(name("ns1.example.net")),
        RData::Ptr(name("host.example")),
        RData::Mx(10, name("mail.example.com")),
        RData::Txt(vec![b"v=spf1".to_vec(), Vec::new(), b"x".to_vec()]),
        RData::Soa(SoaRdata {
            mname: name("ns1.example.com"),
            rname: name("hostmaster.example.com"),
            serial: 2024,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }),
        RData::Srv(SrvRdata { priority: 1, weight: 2, port: 443, target: name("srv.example") }),
        RData::Svcb(svcb(1, ".", all_params.clone())),
        RData::Https(svcb(1, ".", all_params)),
        RData::Https(svcb(0, "alias.example.net", Vec::new())),
        RData::Https(svcb(2, "1.2.3.4", vec![SvcParam::Alpn(vec![b"h3-29".to_vec()])])),
        RData::Rrsig(RrsigRdata {
            type_covered: RecordType::Https,
            algorithm: 13,
            labels: 2,
            original_ttl: 300,
            expiration: 2_000,
            inception: 1_000,
            key_tag: 4242,
            signer: name("example.com"),
            signature: vec![0xAB; 16],
        }),
        RData::Dnskey(DnskeyRdata {
            flags: 257,
            protocol: 3,
            algorithm: 13,
            public_key: vec![7; 8],
        }),
        RData::Ds(DsRdata { key_tag: 1, algorithm: 13, digest_type: 2, digest: vec![9; 8] }),
        RData::Unknown(vec![0, 1, 2]),
    ];
    let mut out: Vec<(RecordType, Vec<u8>)> =
        rdatas.iter().map(|rd| (rd.record_type(), encode(rd))).collect();
    // Names that point into the question.
    out.push((RecordType::Cname, vec![0xC0, 12]));
    out.push((RecordType::Ns, vec![2, b'n', b's', 0xC0, 16]));
    let mut soa = vec![0xC0, 12, 0xC0, 16];
    for field in [1u32, 2, 3, 4, 60] {
        soa.extend_from_slice(&field.to_be_bytes());
    }
    out.push((RecordType::Soa, soa));
    let mut rrsig = vec![0, 1, 13, 2, 0, 0, 1, 44, 0, 0, 7, 208, 0, 0, 3, 232, 0, 1];
    rrsig.extend_from_slice(&[0xC0, 16, 0xAA, 0xBB]);
    out.push((RecordType::Rrsig, rrsig));
    out
}

/// A response to `QNAME`/HTTPS whose one answer record (owner: a pointer
/// to the question) has type `rtype` and exactly `rdata`.
fn message_with(rtype: RecordType, rdata: &[u8]) -> Vec<u8> {
    let mut buf = vec![0x12, 0x34, 0x84, 0x00, 0, 1, 0, 1, 0, 0, 0, 0];
    for label in QNAME.split('.') {
        buf.push(label.len() as u8);
        buf.extend_from_slice(label.as_bytes());
    }
    buf.push(0);
    buf.extend_from_slice(&RecordType::Https.code().to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes());
    buf.extend_from_slice(&[0xC0, 12]);
    buf.extend_from_slice(&rtype.code().to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes());
    buf.extend_from_slice(&300u32.to_be_bytes());
    buf.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    buf.extend_from_slice(rdata);
    buf
}

/// `rdata` changed by one mutation: kept, truncated, a byte overwritten,
/// a byte appended, or a byte inserted.
fn mutate(mut rdata: Vec<u8>, (kind, at, byte): (u8, u16, u8)) -> Vec<u8> {
    let at = usize::from(at);
    match kind {
        1 => rdata.truncate(at % (rdata.len() + 1)),
        2 if !rdata.is_empty() => {
            let i = at % rdata.len();
            rdata[i] = byte;
        }
        3 => rdata.push(byte),
        4 => rdata.insert(at % (rdata.len() + 1), byte),
        _ => {}
    }
    rdata
}

/// The RDATA decoder that built while it checked, each type's rules
/// written out a second time: what [`RData::decode`] (check, then build
/// from the checked bytes) is held to.
fn reference_decode(
    rtype: RecordType,
    rdata_range: (usize, usize),
    whole_message: &[u8],
) -> Result<RData, WireError> {
    let (start, end) = rdata_range;
    if end > whole_message.len() || start > end {
        return Err(WireError::Truncated { context: "rdata range" });
    }
    let rdata = &whole_message[start..end];
    let read_name_at = |off: usize| -> Result<(DnsName, usize), WireError> {
        DnsName::decode_at(whole_message, start + off).map(|(n, next)| (n, next - start))
    };
    match rtype {
        RecordType::A => {
            if rdata.len() != 4 {
                return Err(WireError::InvalidValue { context: "A rdata" });
            }
            Ok(RData::A(Ipv4Addr::new(rdata[0], rdata[1], rdata[2], rdata[3])))
        }
        RecordType::Aaaa => {
            if rdata.len() != 16 {
                return Err(WireError::InvalidValue { context: "AAAA rdata" });
            }
            let mut o = [0u8; 16];
            o.copy_from_slice(rdata);
            Ok(RData::Aaaa(Ipv6Addr::from(o)))
        }
        RecordType::Cname | RecordType::Dname | RecordType::Ns | RecordType::Ptr => {
            let (name, consumed) = read_name_at(0)?;
            if consumed != rdata.len() {
                return Err(WireError::RdataLengthMismatch { declared: rdata.len(), consumed });
            }
            Ok(match rtype {
                RecordType::Cname => RData::Cname(name),
                RecordType::Dname => RData::Dname(name),
                RecordType::Ns => RData::Ns(name),
                _ => RData::Ptr(name),
            })
        }
        RecordType::Mx => {
            if rdata.len() < 3 {
                return Err(WireError::Truncated { context: "MX rdata" });
            }
            let pref = u16::from_be_bytes([rdata[0], rdata[1]]);
            let (host, consumed) = read_name_at(2)?;
            if consumed != rdata.len() {
                return Err(WireError::RdataLengthMismatch { declared: rdata.len(), consumed });
            }
            Ok(RData::Mx(pref, host))
        }
        RecordType::Txt => {
            let mut r = WireReader::new(rdata);
            let mut strings = Vec::new();
            while r.remaining() > 0 {
                let n = r.read_u8()? as usize;
                strings.push(r.read_bytes(n, "TXT string")?.to_vec());
            }
            Ok(RData::Txt(strings))
        }
        RecordType::Soa => {
            let (mname, off1) = read_name_at(0)?;
            let (rname, off2) = read_name_at(off1)?;
            let mut r = WireReader::new(rdata);
            r.seek(off2)?;
            let soa = SoaRdata {
                mname,
                rname,
                serial: r.read_u32()?,
                refresh: r.read_u32()?,
                retry: r.read_u32()?,
                expire: r.read_u32()?,
                minimum: r.read_u32()?,
            };
            if r.remaining() > 0 {
                return Err(WireError::TrailingBytes(r.remaining()));
            }
            Ok(RData::Soa(soa))
        }
        RecordType::Srv => {
            let mut r = WireReader::new(rdata);
            let priority = r.read_u16()?;
            let weight = r.read_u16()?;
            let port = r.read_u16()?;
            let (target, consumed) = read_name_at(6)?;
            if consumed != rdata.len() {
                return Err(WireError::RdataLengthMismatch { declared: rdata.len(), consumed });
            }
            Ok(RData::Srv(SrvRdata { priority, weight, port, target }))
        }
        RecordType::Svcb => Ok(RData::Svcb(SvcbRdata::decode(rdata)?)),
        RecordType::Https => Ok(RData::Https(SvcbRdata::decode(rdata)?)),
        RecordType::Rrsig => {
            let mut r = WireReader::new(rdata);
            let type_covered = RecordType::from_code(r.read_u16()?);
            let algorithm = r.read_u8()?;
            let labels = r.read_u8()?;
            let original_ttl = r.read_u32()?;
            let expiration = r.read_u32()?;
            let inception = r.read_u32()?;
            let key_tag = r.read_u16()?;
            let (signer, next) = read_name_at(r.position())?;
            let signature = rdata
                .get(next..)
                .ok_or(WireError::Truncated { context: "RRSIG signature" })?
                .to_vec();
            Ok(RData::Rrsig(RrsigRdata {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer,
                signature,
            }))
        }
        RecordType::Dnskey => {
            let mut r = WireReader::new(rdata);
            let flags = r.read_u16()?;
            let protocol = r.read_u8()?;
            let algorithm = r.read_u8()?;
            let public_key = r.read_bytes(r.remaining(), "DNSKEY key")?.to_vec();
            Ok(RData::Dnskey(DnskeyRdata { flags, protocol, algorithm, public_key }))
        }
        RecordType::Ds => {
            let mut r = WireReader::new(rdata);
            let key_tag = r.read_u16()?;
            let algorithm = r.read_u8()?;
            let digest_type = r.read_u8()?;
            let digest = r.read_bytes(r.remaining(), "DS digest")?.to_vec();
            if digest.is_empty() {
                return Err(WireError::InvalidValue { context: "DS digest" });
            }
            Ok(RData::Ds(DsRdata { key_tag, algorithm, digest_type, digest }))
        }
        RecordType::Opt => Ok(RData::Opt(rdata.to_vec())),
        RecordType::Unknown(_) => Ok(RData::Unknown(rdata.to_vec())),
    }
}

/// The RDATA range of the one answer record of [`message_with`]'s
/// message: after the header, the question, the owner pointer and the
/// record's ten octets of fixed fields.
fn rdata_range(rdata: &[u8]) -> (usize, usize) {
    let start = 12 + QNAME.len() + 2 + 4 + 2 + 10;
    (start, start + rdata.len())
}

/// Check one answer record against its decoders.
fn agree(rtype: RecordType, rdata: &[u8]) {
    let buf = message_with(rtype, rdata);
    let view = MessageView::parse(&buf).expect("a well-formed message around any RDATA");
    let rec = view.answers().next().expect("one answer");
    let decoded = rec.rdata();
    let reference = reference_decode(rtype, rdata_range(rdata), &buf);
    assert_eq!(decoded, reference);
    spelled_alike(decoded.as_ref().ok(), reference.as_ref().ok());
    assert_eq!(RData::decode(rtype, rdata_range(rdata), &buf), reference);
    assert_eq!(rec.check_rdata(), decoded.as_ref().map(|_| ()).map_err(Clone::clone));
    if matches!(rtype, RecordType::Svcb | RecordType::Https) {
        let owned = SvcbRdata::decode(rdata);
        let seen = SvcbView::parse(rdata);
        assert_eq!(seen.map(|_| ()), owned.as_ref().map(|_| ()).map_err(Clone::clone));
        if let (Ok(view), Ok(owned)) = (rec.svcb(), owned) {
            same_reading(&view, &owned);
        }
    }
    if rtype == RecordType::Soa {
        let minimum = match decoded {
            Ok(RData::Soa(soa)) => Ok(soa.minimum),
            Ok(other) => panic!("SOA decoded as {other:?}"),
            Err(e) => Err(e),
        };
        assert_eq!(rec.soa_minimum(), minimum);
    }
}

/// Names compare ignoring case: the two decoders must also spell every
/// name alike, which their presentation shows.
fn spelled_alike(one: Option<&RData>, other: Option<&RData>) {
    assert_eq!(one.map(RData::to_presentation), other.map(RData::to_presentation));
}

/// What a reader sees through an SVCB view is what the owned RDATA says.
fn same_reading(view: &SvcbView<'_>, owned: &SvcbRdata) {
    assert_eq!(view.priority(), owned.priority);
    assert_eq!(view.is_alias(), owned.priority == 0);
    assert!(view.target().eq_name(&owned.target));
    assert_eq!(view.target().to_owned().to_string(), owned.target.to_string());
    assert_eq!(view.has_params(), !owned.params.is_empty());
    assert_eq!(view.params().count(), owned.params.len());
    let ids: Option<Vec<&[u8]>> = view.alpn_ids().map(Iterator::collect);
    let owned_ids: Option<Vec<&[u8]>> = match owned.param(key::ALPN) {
        Some(SvcParam::Alpn(ids)) => Some(ids.iter().map(Vec::as_slice).collect()),
        _ => None,
    };
    assert_eq!(ids, owned_ids);
    let hints: Option<Vec<Ipv4Addr>> = view.ipv4hint().map(Iterator::collect);
    let owned_hints = match owned.param(key::IPV4HINT) {
        Some(SvcParam::Ipv4Hint(hints)) => Some(hints.clone()),
        _ => None,
    };
    assert_eq!(hints, owned_hints);
    let owned_ech = match owned.param(key::ECH) {
        Some(SvcParam::Ech(config)) => Some(config.as_slice()),
        _ => None,
    };
    assert_eq!(view.param(key::ECH), owned_ech);
    assert_eq!(view.param(key::PORT).is_some(), owned.param(key::PORT).is_some());
    assert_eq!(view.param(key::IPV6HINT).is_some(), owned.param(key::IPV6HINT).is_some());
}

#[test]
fn every_sample_is_accepted_by_both() {
    for (rtype, rdata) in samples() {
        agree(rtype, &rdata);
        assert!(MessageView::parse(&message_with(rtype, &rdata))
            .unwrap()
            .answers()
            .all(|r| r.check_rdata().is_ok()));
    }
}

#[test]
fn views_refuse_the_wrong_type() {
    let buf = message_with(RecordType::A, &[1, 2, 3, 4]);
    let view = MessageView::parse(&buf).unwrap();
    let rec = view.answers().next().unwrap();
    assert!(rec.svcb().is_err());
    assert!(rec.soa_minimum().is_err());
}

proptest! {
    /// Every modelled type, each sample mutated once: both sides accept
    /// or both reject, with the same error.
    #[test]
    fn check_agrees_with_decode_on_mutated_rdata(
        sample in 0usize..64,
        mutations in proptest::collection::vec((0u8..5, any::<u16>(), any::<u8>()), 1..4),
    ) {
        let samples = samples();
        let (rtype, rdata) = samples[sample % samples.len()].clone();
        let rdata = mutations.into_iter().fold(rdata, mutate);
        agree(rtype, &rdata);
    }

    /// Arbitrary values under every registered key, the reserved one and
    /// a few unknown ones.
    #[test]
    fn svcparam_check_agrees_with_decode(
        k in prop_oneof![0u16..8, Just(key::INVALID), any::<u16>()],
        value in proptest::collection::vec(prop_oneof![0u8..4, any::<u8>()], 0..20),
    ) {
        prop_assert_eq!(SvcParam::check(k, &value), SvcParam::decode(k, &value).map(|_| ()));
    }
}

#[test]
fn a_record_re_entered_by_offset_is_the_record_walked_to() {
    let buf = message_with(RecordType::A, &[192, 0, 2, 1]);
    let view = MessageView::parse(&buf).unwrap();
    let walked = view.answers().next().unwrap();
    let again = dns_wire::RecordView::at(&buf, walked.offset()).unwrap();
    assert_eq!(again.offset(), walked.offset());
    assert_eq!(again.to_owned().unwrap(), walked.to_owned().unwrap());
    assert!(again.name().eq_view(&walked.name()));
    assert!(again.name().eq_view(&view.question().unwrap().name()));
}
