//! The checks that accept or reject RDATA without building it agree with
//! the decoders that build it: [`RecordView::check_rdata`] with
//! [`RecordView::rdata`], [`SvcbView::parse`] with [`SvcbRdata::decode`],
//! [`SvcParam::check`] with [`SvcParam::decode`], and
//! [`RecordView::soa_minimum`] with the decoded SOA's `minimum`; what
//! [`RecordView::svcb`] reads of checked RDATA is what the decoder
//! builds. A
//! resolver that only checks an answer must accept and reject exactly the
//! datagrams one that decodes it does.

use dns_wire::svcb::key;
use dns_wire::wire::WireWriter;
use dns_wire::{
    DnsName, DnskeyRdata, DsRdata, MessageView, RData, RecordType, RrsigRdata, SoaRdata, SrvRdata,
    SvcParam, SvcbRdata, SvcbView,
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

/// Check one answer record against its decoders.
fn agree(rtype: RecordType, rdata: &[u8]) {
    let buf = message_with(rtype, rdata);
    let view = MessageView::parse(&buf).expect("a well-formed message around any RDATA");
    let rec = view.answers().next().expect("one answer");
    let decoded = rec.rdata();
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

/// What a reader sees through an SVCB view is what the owned RDATA says.
fn same_reading(view: &SvcbView<'_>, owned: &SvcbRdata) {
    assert_eq!(view.priority(), owned.priority);
    assert_eq!(view.is_alias(), owned.is_alias());
    assert!(view.target().eq_name(&owned.target));
    assert_eq!(view.target().to_owned().to_string(), owned.target.to_string());
    assert_eq!(view.has_params(), !owned.params.is_empty());
    assert_eq!(view.params().count(), owned.params.len());
    let ids: Option<Vec<&[u8]>> = view.alpn_ids().map(Iterator::collect);
    let owned_ids: Option<Vec<&[u8]>> =
        owned.alpn_ids().map(|ids| ids.iter().map(Vec::as_slice).collect());
    assert_eq!(ids, owned_ids);
    let hints: Option<Vec<Ipv4Addr>> = view.ipv4hint().map(Iterator::collect);
    assert_eq!(hints.as_deref(), owned.ipv4hint());
    assert_eq!(view.param(key::ECH), owned.ech());
    assert_eq!(view.param(key::PORT).is_some(), owned.port().is_some());
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
