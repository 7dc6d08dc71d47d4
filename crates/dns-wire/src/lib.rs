//! # dns-wire
//!
//! DNS data model and codecs for the `httpsrr` workspace: domain names,
//! resource records (including RFC 9460 SVCB/HTTPS service bindings and
//! the DNSSEC record types), full messages with EDNS(0), RFC 1035 name
//! compression, and zone-file presentation format.
//!
//! This crate is `std`-only, allocation-friendly, and panic-free on
//! untrusted input: all decoding returns [`WireError`] rather than
//! panicking, and malformed structures seen in the wild (truncated RDATA,
//! compression loops, out-of-order SvcParams, bad hint lengths) map to
//! specific variants.
//!
//! ```
//! use dns_wire::{DnsName, Message, RecordType};
//!
//! let query = Message::query(0x2b, DnsName::parse("example.com").unwrap(), RecordType::Https);
//! let bytes = query.encode();
//! let back = Message::decode(&bytes).unwrap();
//! assert_eq!(back.question().unwrap().qtype, RecordType::Https);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod message;
pub mod name;
pub mod presentation;
pub mod record;
pub mod svcb;
pub mod view;
pub mod wire;

pub use error::{ParseError, WireError};
pub use message::{write_dnssec_query, Edns, Flags, Message, Opcode, Question, Rcode};
pub use name::{DnsName, NameBuf, NameBuildHasher, NameHasher, NameKey, NameRef};
pub use record::{
    DnsClass, DnskeyRdata, DsRdata, RData, Record, RecordType, RrsigRdata, SoaRdata, SrvRdata,
};
pub use svcb::{SvcParam, SvcbRdata, SvcbView};
pub use view::{MessageView, NameView, QuestionView, RdataView, RecordView};

#[cfg(test)]
mod proptests {
    use crate::message::{Flags, Message, Opcode, Rcode};
    use crate::name::DnsName;
    use crate::record::{DnsClass, RData, Record, RecordType, SoaRdata};
    use crate::svcb::{SvcParam, SvcbRdata};
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn arb_label() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'z'), Just(b'0'), Just(b'-'), Just(b'X')],
            1..8,
        )
    }

    fn arb_name() -> impl Strategy<Value = DnsName> {
        proptest::collection::vec(arb_label(), 0..5)
            .prop_map(|labels| DnsName::from_labels(labels).unwrap())
    }

    /// Names drawn from a handful of labels in both cases, so that two
    /// of them usually share a suffix — up to case, sometimes.
    fn arb_related_name() -> impl Strategy<Value = DnsName> {
        let label = prop_oneof![
            Just(&b"a"[..]),
            Just(&b"A"[..]),
            Just(&b"b"[..]),
            Just(&b"www"[..]),
            Just(&b"example"[..]),
            Just(&b"Example"[..]),
            Just(&b"com"[..]),
            Just(&b"COM"[..]),
        ];
        proptest::collection::vec(label, 0..5).prop_map(|l| DnsName::from_labels(l).unwrap())
    }

    fn arb_svcparam() -> impl Strategy<Value = SvcParam> {
        prop_oneof![
            proptest::collection::vec(any::<u8>().prop_map(|b| vec![b % 26 + b'a']), 1..4)
                .prop_map(SvcParam::Alpn),
            Just(SvcParam::NoDefaultAlpn),
            any::<u16>().prop_map(SvcParam::Port),
            proptest::collection::vec(any::<u32>().prop_map(Ipv4Addr::from), 1..4)
                .prop_map(SvcParam::Ipv4Hint),
            proptest::collection::vec(any::<u128>().prop_map(Ipv6Addr::from), 1..3)
                .prop_map(SvcParam::Ipv6Hint),
            proptest::collection::vec(any::<u8>(), 1..64).prop_map(SvcParam::Ech),
            (7u16..1000, proptest::collection::vec(any::<u8>(), 0..16))
                .prop_map(|(key, value)| SvcParam::Unknown { key, value }),
        ]
    }

    fn arb_svcb() -> impl Strategy<Value = SvcbRdata> {
        (any::<u16>(), arb_name(), proptest::collection::vec(arb_svcparam(), 0..5)).prop_map(
            |(priority, target, mut params)| {
                // One param per key: encoding sorts by key and decoding
                // requires strictly increasing keys.
                params.sort_by_key(|p| p.key());
                params.dedup_by_key(|p| p.key());
                SvcbRdata { priority, target, params }
            },
        )
    }

    fn arb_rdata() -> impl Strategy<Value = RData> {
        prop_oneof![
            any::<u32>().prop_map(|v| RData::A(Ipv4Addr::from(v))),
            any::<u128>().prop_map(|v| RData::Aaaa(Ipv6Addr::from(v))),
            arb_name().prop_map(RData::Cname),
            arb_name().prop_map(RData::Ns),
            (any::<u16>(), arb_name()).prop_map(|(p, h)| RData::Mx(p, h)),
            // Presentation format is lossy for non-printable TXT bytes,
            // so generate printable, space-free strings here.
            proptest::collection::vec(
                proptest::collection::vec((b'a'..=b'z').prop_map(|b| b), 0..32),
                1..3,
            )
            .prop_map(RData::Txt),
            (
                arb_name(),
                arb_name(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>()
            )
                .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                    RData::Soa(SoaRdata { mname, rname, serial, refresh, retry, expire, minimum })
                }),
            arb_svcb().prop_map(RData::Https),
            arb_svcb().prop_map(RData::Svcb),
        ]
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, rdata)| Record {
            name,
            rtype: rdata.record_type(),
            class: DnsClass::In,
            ttl,
            rdata,
        })
    }

    proptest! {
        #[test]
        fn svcb_rdata_round_trip(rd in arb_svcb()) {
            let mut w = crate::wire::WireWriter::new();
            rd.encode(&mut w);
            let back = SvcbRdata::decode(w.as_bytes()).unwrap();
            prop_assert_eq!(back, rd);
        }

        #[test]
        fn svcb_presentation_round_trip(rd in arb_svcb()) {
            let text = rd.to_presentation();
            let tokens: Vec<&str> = text.split_whitespace().collect();
            let parsed = SvcbRdata::parse_presentation(&tokens).unwrap();
            prop_assert_eq!(parsed, rd);
        }

        #[test]
        fn message_round_trip(
            id in any::<u16>(),
            qname in arb_name(),
            answers in proptest::collection::vec(arb_record(), 0..6),
            authorities in proptest::collection::vec(arb_record(), 0..3),
            additionals in proptest::collection::vec(arb_record(), 0..3),
            ad in any::<bool>(),
            rcode in (0u8..6).prop_map(Rcode::from_code),
            with_edns in any::<bool>(),
        ) {
            let msg = Message {
                id,
                opcode: Opcode::Query,
                flags: Flags { qr: true, ra: true, ad, ..Default::default() },
                rcode,
                questions: vec![crate::message::Question::new(qname, RecordType::Https)],
                answers,
                authorities,
                additionals,
                edns: with_edns.then(crate::message::Edns::dnssec),
            };
            let buf = msg.encode();
            let view = crate::view::MessageView::parse(&buf).unwrap();
            prop_assert_eq!(view.id(), msg.id);
            prop_assert_eq!(view.rcode(), msg.rcode);
            prop_assert_eq!(view.edns(), msg.edns);
            prop_assert_eq!(view.answer_count(), msg.answers.len());
            prop_assert_eq!(view.additionals().count(), msg.additionals.len());
            prop_assert_eq!(Message::decode(&buf).unwrap(), msg);
        }

        /// The compression dictionary compares suffixes where they lie
        /// in the buffer; the bytes must be those of the dictionary it
        /// replaced, a map from each canonical suffix to the offset it
        /// was first spelled out at.
        #[test]
        fn name_compression_matches_the_reference_dictionary(
            names in proptest::collection::vec(
                (arb_related_name(), any::<bool>(), 0usize..4), 1..12),
        ) {
            let mut w = crate::wire::WireWriter::new();
            let mut expect: Vec<u8> = Vec::new();
            let mut dict: std::collections::HashMap<DnsName, u16> = Default::default();
            let mut starts = Vec::new();
            for (name, compress, filler) in &names {
                w.put_bytes(&vec![0xEE; *filler]);
                expect.extend(vec![0xEE; *filler]);
                starts.push(expect.len());
                if *compress {
                    w.put_name(name);
                } else {
                    w.put_name_uncompressed(name);
                }
                let labels: Vec<&[u8]> = name.labels().collect();
                let mut pointed = false;
                for (i, label) in labels.iter().enumerate() {
                    if *compress {
                        let suffix = DnsName::from_labels(&labels[i..]).unwrap();
                        if let Some(&at) = dict.get(&suffix) {
                            expect.extend((0xC000 | at).to_be_bytes());
                            pointed = true;
                            break;
                        }
                        dict.insert(suffix, expect.len() as u16);
                    }
                    expect.push(label.len() as u8);
                    expect.extend_from_slice(label);
                }
                if !pointed {
                    expect.push(0);
                }
            }
            prop_assert_eq!(w.as_bytes(), &expect[..]);
            starts.push(expect.len());
            for (i, (name, _, _)) in names.iter().enumerate() {
                let (back, next) = DnsName::decode_at(w.as_bytes(), starts[i]).unwrap();
                prop_assert_eq!(&back, name);
                prop_assert_eq!(next + names.get(i + 1).map_or(0, |n| n.2), starts[i + 1]);
            }
        }

        /// Messages whose names share suffixes: whatever the writer
        /// compressed, the decoder reads the same message back.
        #[test]
        fn shared_suffix_message_round_trip(
            qname in arb_related_name(),
            owners in proptest::collection::vec((arb_related_name(), arb_related_name()), 0..8),
        ) {
            let answers = owners
                .into_iter()
                .map(|(owner, target)| Record::new(owner, 60, RData::Cname(target)))
                .collect();
            let msg = Message {
                answers,
                ..Message::query(7, qname, RecordType::Https).response()
            };
            prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }

        #[test]
        fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Message::decode(&bytes);
            let _ = SvcbRdata::decode(&bytes);
            let _ = DnsName::decode_at(&bytes, 0);
        }

        #[test]
        fn decode_encode_byte_identity(
            id in any::<u16>(),
            qname in arb_name(),
            answers in proptest::collection::vec(arb_record(), 0..6),
            authorities in proptest::collection::vec(arb_record(), 0..3),
        ) {
            let msg = Message {
                id,
                opcode: Opcode::Query,
                flags: Flags { qr: true, ra: true, ..Default::default() },
                rcode: Rcode::NoError,
                questions: vec![crate::message::Question::new(qname, RecordType::Https)],
                answers,
                authorities,
                additionals: Vec::new(),
                edns: Some(crate::message::Edns::dnssec()),
            };
            let wire = msg.encode();
            // decode → re-encode reproduces the exact bytes.
            prop_assert_eq!(Message::decode(&wire).unwrap().encode(), wire);
        }

        /// `skip_at` and `decode_at` walk a name the same way: from any
        /// offset of any bytes, the same resume offset or both an error.
        /// The bytes lean on length octets, pointers and the reserved
        /// label types, so that most walks get past their first octet.
        #[test]
        fn skip_at_agrees_with_decode_at(
            bytes in proptest::collection::vec(
                prop_oneof![
                    0u8..4,
                    Just(63u8),
                    Just(0x40u8),
                    Just(0x80u8),
                    Just(0xC0u8),
                    any::<u8>(),
                ],
                0..96,
            ),
            start in 0usize..100,
        ) {
            let decoded = DnsName::decode_at(&bytes, start).ok().map(|(_, next)| next);
            prop_assert_eq!(DnsName::skip_at(&bytes, start).ok(), decoded);
        }

        #[test]
        fn message_view_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(view) = crate::view::MessageView::parse(&bytes) {
                for q in view.questions() {
                    let _ = q.name().labels().count();
                    let _ = q.name().flat().map(|f| f.ancestors().count());
                    let _ = q.to_owned();
                }
                for r in view.answers().chain(view.authorities()).chain(view.additionals()) {
                    let _ = r.name().labels().count();
                    let _ = r.rdata();
                }
                let _ = view.to_message();
            }
        }

        #[test]
        fn name_parse_display_round_trip(name in arb_name()) {
            let text = name.to_string();
            let back = DnsName::parse(&text).unwrap();
            prop_assert_eq!(back, name);
        }

        #[test]
        fn record_presentation_round_trip(rec in arb_record()) {
            let line = rec.to_presentation();
            let back = crate::presentation::parse_record_line(&line, &DnsName::root(), rec.ttl)
                .unwrap().unwrap();
            prop_assert_eq!(back, rec);
        }
    }
}
