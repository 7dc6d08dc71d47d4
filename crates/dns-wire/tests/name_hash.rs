//! The contracts of a name's hash and of the key bytes derived from it
//! (and of [`NameRef`], the borrowed key that hashes and compares like
//! the name):
//! [`DnsName::for_each_key_byte`] streams exactly the bytes of
//! [`DnsName::key`] (shard choice and the `Random` selector's seeds are
//! FNV-1a over them, so pinned reports depend on every byte); names equal
//! up to ASCII case hash to one word under [`NameBuildHasher`] and no
//! other byte change keeps them equal; and the word spreads world-shaped
//! names over a hash table's buckets like a uniform hash would.

use dns_wire::{
    DnsName, Message, MessageView, NameBuildHasher, NameKey, NameRef, RData, Record, RecordType,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::hash::BuildHasher;

fn word<T: std::hash::Hash + ?Sized>(key: &T) -> u64 {
    NameBuildHasher::default().hash_one(key)
}

/// Label octets: anything at all, weighted towards the bytes that make
/// case folding and key rendering interesting — letters of both cases,
/// octets from 0x80 up (two UTF-8 bytes in a key), `.` and `\` inside a
/// label, and octets that look like length octets.
fn arb_octet() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        b'a'..=b'z',
        b'A'..=b'Z',
        0x80u8..=0xFF,
        Just(b'.'),
        Just(b'\\'),
        1u8..=8,
        b'0'..=b'9',
    ]
}

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(arb_octet(), 1..6),
        proptest::collection::vec(arb_octet(), 1..=20),
        proptest::collection::vec(arb_octet(), 40..=63),
    ]
}

/// Label lists from the root (none) up to the 255-octet limit.
fn arb_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(arb_label(), 0..7).prop_map(|mut labels| {
        while labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1 > 255 {
            labels.pop();
        }
        labels
    })
}

fn build(labels: &[Vec<u8>]) -> DnsName {
    DnsName::from_labels(labels).unwrap()
}

fn key_bytes(name: &DnsName) -> Vec<u8> {
    let mut out = Vec::new();
    name.for_each_key_byte(|b| out.push(b));
    out
}

/// Flip the case of the letters `mask` selects, byte by byte.
fn flip_case(labels: &[Vec<u8>], mask: u64) -> Vec<Vec<u8>> {
    let mut i = 0u32;
    let flip = |b: u8, i: u32| mask.rotate_right(i) & 1 == 1 && b.is_ascii_alphabetic();
    labels
        .iter()
        .map(|l| {
            l.iter()
                .map(|&b| {
                    i += 1;
                    if flip(b, i) {
                        b ^ 0x20
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn key_bytes_are_the_rendered_key(labels in arb_labels()) {
        let name = build(&labels);
        prop_assert_eq!(key_bytes(&name), name.key().into_bytes());
        // The same for every ancestor, each reading from inside the
        // child's buffer.
        let mut at = name;
        while let Some(parent) = at.parent() {
            prop_assert_eq!(key_bytes(&parent), parent.key().into_bytes());
            at = parent;
        }
        prop_assert_eq!(key_bytes(&at), b".".to_vec());
    }

    #[test]
    fn case_decides_neither_equality_nor_the_hash(labels in arb_labels(), mask in any::<u64>()) {
        let name = build(&labels);
        let flipped = build(&flip_case(&labels, mask));
        prop_assert_eq!(&name, &flipped);
        prop_assert_eq!(word(&name), word(&flipped));
        prop_assert_eq!(word(&(name.clone(), 65u16)), word(&(flipped, 65u16)));
    }

    #[test]
    fn any_other_byte_change_makes_a_different_name(
        labels in arb_labels(),
        pick in any::<usize>(),
        with in any::<u8>(),
    ) {
        let octets: usize = labels.iter().map(Vec::len).sum();
        prop_assume!(octets > 0);
        let (mut changed, mut at) = (labels.clone(), pick % octets);
        let label = changed
            .iter_mut()
            .find_map(|l| if at < l.len() { Some(l) } else { at -= l.len(); None })
            .unwrap();
        prop_assume!(!label[at].eq_ignore_ascii_case(&with));
        label[at] = with;
        let (name, other) = (build(&labels), build(&changed));
        prop_assert_ne!(&name, &other);
        prop_assert_ne!(word(&name), word(&other));
    }

    #[test]
    fn a_parent_hashes_like_the_same_name_built_alone(labels in arb_labels(), mask in any::<u64>()) {
        let name = build(&labels);
        let mut at = name.clone();
        for depth in 1..=labels.len() {
            at = at.parent().unwrap();
            let alone = build(&flip_case(&labels[depth..], mask));
            prop_assert_eq!(&at, &alone);
            prop_assert_eq!(word(&at), word(&alone));
            prop_assert_eq!(word(&(at.clone(), 1u16)), word(&(alone, 1u16)));
        }
        prop_assert!(at.is_root());
        prop_assert_eq!(word(&at), word(&DnsName::root()));
    }

    /// The borrowed key: every suffix of a name, borrowed from its
    /// buffer, has the owned suffix's hash word — alone and beside a
    /// type — and its case-folding equality with every suffix of a
    /// re-cased copy; a `DnsName`-keyed map answers it as it answers the
    /// owned name; `find_ancestor` hands back the hit with the name's
    /// spelling; and a query's question borrowed in place is the same key.
    #[test]
    fn a_borrowed_suffix_hashes_and_compares_like_the_owned_name(
        labels in arb_labels(),
        mask in any::<u64>(),
        pick in any::<usize>(),
    ) {
        let name = build(&labels);
        let recased = flip_case(&labels, mask);
        let other = build(&recased);
        let map: HashMap<DnsName, usize, NameBuildHasher> =
            (0..=labels.len()).rev().map(|depth| (build(&recased[depth..]), depth)).collect();
        let suffixes: Vec<NameRef<'_>> = name.name_ref().ancestors().collect();
        prop_assert_eq!(suffixes.len(), labels.len() + 1);
        for (depth, suffix) in suffixes.iter().enumerate() {
            let owned = build(&labels[depth..]);
            prop_assert_eq!(word(suffix.as_key()), word(&owned));
            prop_assert_eq!(word(&(suffix.as_key(), 65u16)), word(&(owned.clone(), 65u16)));
            prop_assert_eq!(map.get(suffix.as_key()), map.get(&owned));
            for (at, theirs) in other.name_ref().ancestors().enumerate() {
                prop_assert_eq!(*suffix == theirs, owned == build(&recased[at..]));
                prop_assert_eq!(suffix.as_key() == theirs.as_key(), *suffix == theirs);
            }
        }

        let want = pick % (labels.len() + 1);
        let hit = name.find_ancestor(|a| map.get(a.as_key()).filter(|&&d| d >= want).copied());
        let (apex, depth) = hit.unwrap();
        prop_assert_eq!(apex.to_string(), build(&labels[depth..]).to_string());
        prop_assert_eq!(map.get(&apex), Some(&depth));

        let query = Message::query(1, name.clone(), RecordType::A).encode();
        let view = MessageView::parse(&query).unwrap();
        let question = view.question().unwrap().name().flat().unwrap();
        prop_assert!(question == name.name_ref());
        prop_assert_eq!(word(question.as_key()), word(&name));
        prop_assert_eq!(map.get(question.as_key()), Some(&0));
    }
}

/// A name with a compression pointer is not borrowed in place.
#[test]
fn a_compressed_name_has_no_flat_view() {
    let mut reply =
        Message::query(1, DnsName::parse("www.example.com").unwrap(), RecordType::A).response();
    let owner = DnsName::parse("example.com").unwrap();
    reply.answers.push(Record::new(owner, 60, RData::A([192, 0, 2, 1].into())));
    let wire = reply.encode();
    let view = MessageView::parse(&wire).unwrap();
    assert!(view.question().unwrap().name().flat().is_some());
    assert!(view.answers().next().unwrap().name().flat().is_none());
}

#[test]
fn a_type_beside_a_name_changes_the_hash() {
    for name in ["example.com", "www.Example.COM", ".", "d7.net"] {
        let name = DnsName::parse(name).unwrap();
        let mut words: Vec<u64> = (0..=u16::MAX).map(|t| word(&(name.clone(), t))).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), 1 << 16, "{name}");
    }
}

/// The χ² statistic of `counts` against a uniform spread of their sum.
fn chi_squared(counts: &[u64]) -> f64 {
    let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum()
}

/// Six standard deviations above the mean of χ² with `buckets - 1`
/// degrees of freedom: a uniform hash passes with probability above
/// 1 − 10⁻⁸, and a hash that leaves the top or the low bits to the
/// name's length or its last octets fails by orders of magnitude.
fn chi_squared_bound(buckets: usize) -> f64 {
    let dof = (buckets - 1) as f64;
    dof + 6.0 * (2.0 * dof).sqrt()
}

/// Hashbrown picks a bucket from a hash's low bits and screens a probe
/// with its top seven: both must look uniform, or the table silently
/// turns into long linear probes. World-shaped names are the test
/// input — sequential `d<N>.<tld>` and `site<NNNNN>.<tld>` apexes, their
/// `www.` hosts, provider name-server hosts — and `(name, type)` keys as
/// the record cache files them.
#[test]
fn world_shaped_names_spread_over_the_buckets() {
    const PER_SHAPE: usize = 40_000;
    let tlds = ["com", "net", "org"];
    let providers = ["ns.cloudflare.com", "domaincontrol.com", "nsone.net", "hyp.net"];
    let mut names = Vec::with_capacity(5 * PER_SHAPE);
    for n in 0..PER_SHAPE {
        let tld = tlds[n % 3];
        names.push(format!("d{n}.{tld}"));
        names.push(format!("www.d{n}.{tld}"));
        names.push(format!("site{n:05}.{tld}"));
        names.push(format!("www.Site{n:05}.{tld}"));
        names.push(format!("ns{}.p{n}.{}", n % 4 + 1, providers[n % 4]));
    }
    let names: Vec<DnsName> = names.iter().map(|s| DnsName::parse(s).unwrap()).collect();
    assert_eq!(names.len(), 200_000);

    let types = [1u16, 28, 65];
    let keyed: Vec<u64> =
        names.iter().enumerate().map(|(i, n)| word(&(n.clone(), types[i % 3]))).collect();
    for (what, words) in [("names", names.iter().map(word).collect::<Vec<_>>()), ("keys", keyed)] {
        let mut distinct = words.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), words.len(), "{what}: 64-bit collisions");

        let (mut top, mut low) = (vec![0u64; 128], vec![0u64; 4096]);
        for w in &words {
            top[(w >> 57) as usize] += 1;
            low[(w & 4095) as usize] += 1;
        }
        let (top_chi, low_chi) = (chi_squared(&top), chi_squared(&low));
        assert!(top_chi < chi_squared_bound(128), "{what}: top-7-bit χ² {top_chi:.1}");
        assert!(low_chi < chi_squared_bound(4096), "{what}: low-12-bit χ² {low_chi:.1}");
    }
}
