//! The in-place query writer against the owned query it stands in for:
//! `write_dnssec_query(out, id, name, qtype)` leaves in `out` exactly
//! `Message::query_dnssec(id, name, qtype).encode()`, whatever `out`
//! held before — for the root, names in mixed case and of 1 to 127
//! labels up to the 255-octet limit, every type code and every id.

use dns_wire::{write_dnssec_query, DnsName, Message, RecordType};
use proptest::prelude::*;

/// The owned query's bytes.
fn reference(id: u16, name: &DnsName, qtype: RecordType) -> Vec<u8> {
    Message::query_dnssec(id, name.clone(), qtype).encode()
}

/// A label of `len` octets: letters in both cases, digits and hyphens,
/// or any octet at all.
fn arb_label(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<u8>> {
    let octet = prop_oneof![
        Just(b'a'),
        Just(b'Z'),
        Just(b'b'),
        Just(b'Y'),
        Just(b'0'),
        Just(b'-'),
        any::<u8>(),
    ];
    proptest::collection::vec(octet, len)
}

/// The longest prefix of `labels` that fits a name.
fn fitting(labels: Vec<Vec<u8>>) -> DnsName {
    let mut kept = labels.len();
    loop {
        if let Ok(name) = DnsName::from_labels(labels[..kept].to_vec()) {
            return name;
        }
        kept -= 1;
    }
}

/// Names from the root to the 255-octet limit: many short labels (up
/// to 127 of one octet each), or a few long ones.
fn arb_name() -> impl Strategy<Value = DnsName> {
    prop_oneof![
        proptest::collection::vec(arb_label(1..=1), 0..=127),
        proptest::collection::vec(arb_label(1..=3), 0..=127),
        proptest::collection::vec(arb_label(1..=63), 0..=6),
    ]
    .prop_map(fitting)
}

#[test]
fn the_edges_are_written_as_the_owned_query_encodes_them() {
    let one_octet: Vec<Vec<u8>> = (0..127).map(|i| vec![b'a' + (i % 26) as u8]).collect();
    let longest_labels: Vec<Vec<u8>> =
        vec![vec![b'X'; 63], vec![b'y'; 63], vec![b'Z'; 63], vec![b'w'; 61]];
    let names = [
        DnsName::root(),
        DnsName::parse("WWW.Example.COM").unwrap(),
        DnsName::from_labels(one_octet).unwrap(),
        DnsName::from_labels(longest_labels).unwrap(),
    ];
    assert_eq!(names[2].label_count(), 127);
    assert_eq!((names[2].wire_len(), names[3].wire_len()), (255, 255));
    let mut out = vec![0xEE; 600];
    for name in &names {
        for (id, qtype) in
            [(0, RecordType::Https), (0xFFFF, RecordType::A), (0x1234, RecordType::Opt)]
        {
            write_dnssec_query(&mut out, id, name, qtype);
            assert_eq!(out, reference(id, name, qtype), "{name} {qtype}");
        }
    }
}

proptest! {
    #[test]
    fn a_written_query_is_the_owned_query_encoded(
        id in any::<u16>(),
        name in arb_name(),
        code in any::<u16>(),
        dirt in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let qtype = RecordType::from_code(code);
        let mut out = dirt;
        write_dnssec_query(&mut out, id, &name, qtype);
        prop_assert_eq!(out, reference(id, &name, qtype));
    }
}
