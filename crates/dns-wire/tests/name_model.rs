//! Model-based property test: the flat, shared-buffer [`DnsName`] against
//! the label-vector layout it replaced (`Vec<Vec<u8>>`, one heap block
//! per label), for every public operation, over mixed case and arbitrary
//! label octets 0x00–0xFF.

use dns_wire::wire::WireWriter;
use dns_wire::{DnsName, Message, MessageView, RecordType};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The reference model: one `Vec<u8>` per label, most-specific first,
/// with the semantics `DnsName` had when this was its layout.
#[derive(Debug, Clone)]
struct Model(Vec<Vec<u8>>);

fn lower(label: &[u8]) -> Vec<u8> {
    label.to_ascii_lowercase()
}

impl Model {
    fn of(name: &DnsName) -> Model {
        Model(name.labels().map(<[u8]>::to_vec).collect())
    }

    fn wire_len(&self) -> usize {
        self.0.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    fn is_valid(&self) -> bool {
        self.0.iter().all(|l| (1..=63).contains(&l.len())) && self.wire_len() <= 255
    }

    fn eq(&self, other: &Model) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| lower(a) == lower(b))
    }

    fn cmp(&self, other: &Model) -> Ordering {
        for (a, b) in self.0.iter().rev().zip(other.0.iter().rev()) {
            match lower(a).cmp(&lower(b)) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.0.len().cmp(&other.0.len())
    }

    fn is_subdomain_of(&self, other: &Model) -> bool {
        other.0.len() <= self.0.len()
            && Model(self.0[self.0.len() - other.0.len()..].to_vec()).eq(other)
    }

    fn parent(&self) -> Option<Model> {
        (!self.0.is_empty()).then(|| Model(self.0[1..].to_vec()))
    }

    fn prepend(&self, label: &str) -> Option<Model> {
        if label.is_empty() || label.len() > 63 || label.contains('.') {
            return None;
        }
        let mut labels = vec![label.as_bytes().to_vec()];
        labels.extend(self.0.iter().cloned());
        Some(Model(labels)).filter(|m| m.wire_len() <= 255)
    }

    /// Uncompressed wire form, case preserved.
    fn wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for label in &self.0 {
            out.push(label.len() as u8);
            out.extend_from_slice(label);
        }
        out.push(0);
        out
    }

    fn key(&self) -> String {
        if self.0.is_empty() {
            return ".".to_string();
        }
        let dotted: Vec<String> =
            self.0.iter().map(|l| lower(l).iter().map(|&b| b as char).collect()).collect();
        dotted.join(".")
    }

    fn display(&self) -> String {
        if self.0.is_empty() {
            return ".".to_string();
        }
        let mut s = String::new();
        for label in &self.0 {
            for &b in label {
                if b == b'.' || b == b'\\' {
                    s.push('\\');
                    s.push(b as char);
                } else if b.is_ascii_graphic() {
                    s.push(b as char);
                } else {
                    s.push_str(&format!("\\{b:03}"));
                }
            }
            s.push('.');
        }
        s
    }
}

fn hash_of(name: &DnsName) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// Label octets: anything at all, weighted towards the bytes that make
/// case folding, escaping and length-octet look-alikes matter.
fn arb_octet() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        b'a'..=b'e',
        b'A'..=b'E',
        1u8..=8,
        Just(b'.'),
        Just(b'\\'),
        b'0'..=b'9',
        Just(b' '),
    ]
}

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(arb_octet(), 1..6),
        proptest::collection::vec(arb_octet(), 1..6),
        proptest::collection::vec(arb_octet(), 1..=63),
    ]
}

fn arb_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(arb_label(), 0..7)
}

/// Label lists on both sides of the limits: empty and 64–70 octet
/// labels, and enough long labels to pass 255 octets.
fn arb_labels_any() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let label = prop_oneof![
        arb_label(),
        arb_label(),
        proptest::collection::vec(arb_octet(), 0..2),
        proptest::collection::vec(arb_octet(), 50..70),
    ];
    proptest::collection::vec(label, 0..8)
}

fn flip_case(labels: &[Vec<u8>], mask: u64) -> Vec<Vec<u8>> {
    let mut i = 0;
    labels
        .iter()
        .map(|l| {
            l.iter()
                .map(|&b| {
                    i += 1;
                    if mask >> (i % 64) & 1 == 1 && b.is_ascii_alphabetic() {
                        b ^ 0x20
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect()
}

/// A pair of names that are related more often than two independent
/// draws would be: equal up to case, ancestor and descendant, sharing a
/// suffix, or the boundary trap — the same flat bytes split into labels
/// differently.
fn arb_pair() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<Vec<u8>>)> {
    (arb_labels(), arb_labels(), 0u8..7, any::<u64>(), arb_label()).prop_map(
        |(a, other, how, mask, extra)| {
            let b = match how {
                0 => other,
                1 => flip_case(&a, mask),
                2 => flip_case(&a[(mask as usize % (a.len() + 1))..], mask),
                3 => {
                    let mut b = vec![extra];
                    b.extend(flip_case(&a, mask));
                    b
                }
                4 if a.len() >= 2 && a[0].len() + a[1].len() < 63 => {
                    // `[x, com, …]` → `[x\003com, …]`: byte-for-byte the
                    // same flat tail, one label boundary fewer.
                    let mut glued = a[0].clone();
                    glued.push(a[1].len() as u8);
                    glued.extend_from_slice(&a[1]);
                    let mut b = vec![glued];
                    b.extend(a[2..].iter().cloned());
                    b
                }
                5 if !a.is_empty() => {
                    // `badexample.com` beside `example.com`.
                    let mut b = a.clone();
                    let cut = mask as usize % a.len();
                    if b[cut].len() < 63 {
                        b[cut].insert(0, extra[0]);
                    }
                    b.drain(..cut);
                    b
                }
                _ => {
                    let mut b = other;
                    b.extend(a[(mask as usize % (a.len() + 1))..].iter().cloned());
                    b
                }
            };
            (a, b)
        },
    )
}

fn arb_prepend_label() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(b'!'..=b'~', 0..4),
        proptest::collection::vec(b'a'..=b'z', 1..20),
        proptest::collection::vec(b'A'..=b'Z', 60..70),
    ]
    .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

/// Build the name and the model from one label list, skipping lists the
/// limits reject (those are `construction_enforces_the_limits`' job).
fn build(labels: Vec<Vec<u8>>) -> Option<(DnsName, Model)> {
    let model = Model(labels);
    model.is_valid().then(|| (DnsName::from_labels(&model.0).unwrap(), model))
}

proptest! {
    #[test]
    fn construction_enforces_the_limits(labels in arb_labels_any()) {
        let model = Model(labels);
        match DnsName::from_labels(&model.0) {
            Ok(name) => {
                prop_assert!(model.is_valid(), "accepted {model:?}");
                prop_assert_eq!(Model::of(&name).0, model.0);
            }
            Err(_) => prop_assert!(!model.is_valid(), "rejected {model:?}"),
        }
    }

    #[test]
    fn relations_match_the_model(pair in arb_pair()) {
        let (a, b) = (build(pair.0), build(pair.1));
        prop_assume!(a.is_some() && b.is_some());
        let ((a, ma), (b, mb)) = (a.unwrap(), b.unwrap());
        prop_assert_eq!(a == b, ma.eq(&mb), "eq {ma:?} {mb:?}");
        if ma.eq(&mb) {
            prop_assert_eq!(hash_of(&a), hash_of(&b), "hash {ma:?} {mb:?}");
        }
        prop_assert_eq!(a.cmp(&b), ma.cmp(&mb), "cmp {ma:?} {mb:?}");
        prop_assert_eq!(b.cmp(&a), mb.cmp(&ma), "cmp {mb:?} {ma:?}");
        prop_assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
        prop_assert_eq!(a.is_subdomain_of(&b), ma.is_subdomain_of(&mb), "sub {ma:?} {mb:?}");
        prop_assert_eq!(b.is_subdomain_of(&a), mb.is_subdomain_of(&ma), "sub {mb:?} {ma:?}");
        // Against every ancestor of `a` too: that is where a name whose
        // flat bytes merely end like `a`'s would pass for a descendant.
        let (mut anc, mut manc) = (a.clone(), ma.clone());
        while let (Some(p), Some(mp)) = (anc.parent(), manc.parent()) {
            prop_assert_eq!(b.is_subdomain_of(&p), mb.is_subdomain_of(&mp), "sub {mb:?} {mp:?}");
            prop_assert_eq!(b == p, mb.eq(&mp), "eq {mb:?} {mp:?}");
            prop_assert_eq!(b.cmp(&p), mb.cmp(&mp), "cmp {mb:?} {mp:?}");
            (anc, manc) = (p, mp);
        }
        prop_assert!(anc.is_root() && manc.0.is_empty());
        // A clone shares the buffer and is indistinguishable.
        let c = a.clone();
        prop_assert!(c == a && hash_of(&c) == hash_of(&a) && c.cmp(&b) == a.cmp(&b));
    }

    #[test]
    fn derivations_match_the_model(labels in arb_labels(), label in arb_prepend_label()) {
        let built = build(labels);
        prop_assume!(built.is_some());
        let (name, model) = built.unwrap();
        prop_assert_eq!(name.label_count(), model.0.len());
        prop_assert_eq!(name.is_root(), model.0.is_empty());
        prop_assert_eq!(name.wire_len(), model.wire_len());
        prop_assert_eq!(name.key(), model.key());
        let mut appended = String::from("x");
        name.write_key(&mut appended);
        prop_assert_eq!(appended, format!("x{}", model.key()));
        let mut streamed = Vec::new();
        name.for_each_key_byte(|b| streamed.push(b));
        prop_assert_eq!(streamed, model.key().into_bytes());
        prop_assert_eq!(name.to_string(), model.display());

        // The whole ancestor chain, each step sharing the child's buffer.
        let (mut n, mut m) = (name.clone(), model.clone());
        loop {
            match (n.parent(), m.parent()) {
                (Some(pn), Some(pm)) => {
                    prop_assert_eq!(&Model::of(&pn).0, &pm.0);
                    prop_assert!(n.is_subdomain_of(&pn) && name.is_subdomain_of(&pn));
                    prop_assert_eq!(pn.key(), pm.key());
                    prop_assert_eq!(pn.wire_len(), pm.wire_len());
                    // A parent equals, hashes and sorts like the same
                    // name built on its own.
                    let fresh = DnsName::from_labels(&pm.0).unwrap();
                    prop_assert!(pn == fresh && hash_of(&pn) == hash_of(&fresh));
                    prop_assert_eq!(pn.cmp(&name), fresh.cmp(&name));
                    (n, m) = (pn, pm);
                }
                (None, None) => break,
                (pn, pm) => prop_assert!(false, "parent {pn:?} vs {pm:?}"),
            }
        }
        prop_assert!(n.is_root());

        match (name.prepend(&label), model.prepend(&label)) {
            (Ok(n), Some(m)) => {
                prop_assert_eq!(Model::of(&n).0, m.0);
                prop_assert_eq!(n.parent().unwrap(), name);
            }
            (Err(_), None) => {}
            (n, m) => prop_assert!(false, "prepend {label:?}: {n:?} vs {m:?}"),
        }
    }

    #[test]
    fn text_and_wire_round_trips(pair in arb_pair()) {
        let (a, b) = (build(pair.0), build(pair.1));
        prop_assume!(a.is_some() && b.is_some());
        let ((a, ma), (b, mb)) = (a.unwrap(), b.unwrap());
        // Presentation: exact labels back, case included.
        let parsed = DnsName::parse(&a.to_string()).unwrap();
        prop_assert_eq!(Model::of(&parsed).0, ma.0.clone());
        prop_assert_eq!(a.to_string().parse::<DnsName>().unwrap(), a.clone());

        // Uncompressed wire: the model's bytes, and back.
        let mut w = WireWriter::new();
        w.put_name_uncompressed(&a);
        prop_assert_eq!(w.as_bytes(), &ma.wire()[..]);
        let (back, next) = DnsName::decode_at(w.as_bytes(), 0).unwrap();
        prop_assert_eq!(Model::of(&back).0, ma.0.clone());
        prop_assert_eq!(next, ma.wire_len());

        // Compressed wire: whatever suffixes the writer shared, each
        // name decodes to itself (up to the case of a shared suffix)
        // and reading resumes where the next one starts.
        let mut w = WireWriter::new();
        w.put_u16(0xABCD);
        let mut at = Vec::new();
        for n in [&a, &b, &a] {
            at.push(w.len());
            w.put_name(n);
        }
        at.push(w.len());
        for (i, m) in [&ma, &mb, &ma].into_iter().enumerate() {
            let (back, next) = DnsName::decode_at(w.as_bytes(), at[i]).unwrap();
            prop_assert!(Model::of(&back).eq(m), "compressed {m:?} came back {back:?}");
            prop_assert_eq!(next, at[i + 1]);
        }
        prop_assert_eq!(DnsName::skip_at(w.as_bytes(), at[1]).unwrap(), at[2]);

        // A borrowed view of the same name inside a message.
        let wire = Message::query(7, a.clone(), RecordType::Https).encode();
        let view = MessageView::parse(&wire).unwrap();
        let qname = view.question().unwrap().name();
        prop_assert_eq!(Model::of(&qname.to_owned()).0, ma.0.clone());
        prop_assert!(qname.eq_name(&a));
        prop_assert_eq!(qname.eq_name(&b), ma.eq(&mb));
        prop_assert_eq!(qname.to_string(), ma.display());
    }
}

/// The two traps a flat suffix comparison falls into, spelled out.
#[test]
fn a_suffix_only_matches_on_a_label_boundary() {
    let com = DnsName::parse("com").unwrap();
    let example = DnsName::parse("example.com").unwrap();
    // One seven-octet label whose tail reads like the label `com`.
    let glued = DnsName::from_labels([b"a\x03com"]).unwrap();
    assert_eq!(glued.label_count(), 1);
    assert!(!glued.is_subdomain_of(&com));
    assert_ne!(glued, DnsName::parse("a.com").unwrap());
    assert!(!DnsName::parse("badexample.com").unwrap().is_subdomain_of(&example));
    assert!(DnsName::parse("bad.Example.COM").unwrap().is_subdomain_of(&example));
    // The same holds for a parent, which starts inside a shared buffer.
    let parent = DnsName::parse("x.badexample.com").unwrap().parent().unwrap();
    assert!(!parent.is_subdomain_of(&example));
    assert!(parent.is_subdomain_of(&com));
}
