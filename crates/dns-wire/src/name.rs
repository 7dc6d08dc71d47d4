//! Domain names: one flat, shared buffer per name with case-insensitive
//! semantics, wire encoding/decoding (including RFC 1035 compression
//! pointers), and presentation-format parsing/printing.
//!
//! A name can also be borrowed as its flat bytes, a [`NameRef`]: a
//! suffix of a [`DnsName`]'s buffer (an ancestor walk) or a message's
//! uncompressed name ([`NameView::flat`](crate::NameView::flat), such as
//! a query's question at offset 12). Every `DnsName`-keyed map borrows
//! its keys as [`dyn NameKey`](NameKey), whose hash word and
//! case-folding equality are exactly `DnsName`'s, so such a map is
//! probed by borrowed bytes without building, cloning or dropping a
//! name.

use crate::error::{ParseError, WireError};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Maximum wire length of a name (RFC 1035 §3.1).
pub const MAX_NAME_WIRE_LEN: usize = 255;
/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Budget of compression pointers followed before declaring a loop.
pub(crate) const MAX_POINTER_HOPS: usize = 64;
/// Longest flat form: the wire form without its root octet.
const MAX_FLAT_LEN: usize = MAX_NAME_WIRE_LEN - 1;
/// Most labels a name can carry (a label takes at least two octets).
const MAX_LABELS: usize = MAX_FLAT_LEN / 2;

/// A fully-qualified DNS domain name.
///
/// Stored flat: the uncompressed wire form without the root octet
/// (`3www7Example3COM`), original case preserved, in one
/// reference-counted buffer. A clone is a reference count, and
/// [`DnsName::parent`] shares its child's buffer from one label
/// further in, so walking a name's ancestors allocates nothing.
///
/// Every length octet is at most 63 and so sits below `'A'`: folding
/// ASCII case over the whole buffer folds exactly the label bytes, which
/// is what lets equality be one case-insensitive slice comparison.
/// Comparison and hashing are case-insensitive over ASCII, per RFC 1035
/// §2.3.3; the original case is preserved for display.
///
/// `Hash` writes one `u64`: the flat bytes case-folded eight at a time
/// and multiply-mixed a word at a time. It is unkeyed on purpose — the
/// simulation has no adversary to flood a map — and [`NameBuildHasher`]
/// passes the word straight to the map, so a name-keyed probe hashes
/// the name once and nothing else.
///
/// ```
/// use dns_wire::DnsName;
/// let a = DnsName::parse("WWW.Example.COM").unwrap();
/// let b = DnsName::parse("www.example.com").unwrap();
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), "WWW.Example.COM.");
/// ```
#[derive(Clone)]
pub struct DnsName {
    /// Length-prefixed labels, most-specific first, no root octet. Every
    /// label is 1..=63 octets and the whole is at most 254, so offsets
    /// and lengths fit a `u8`.
    buf: Arc<[u8]>,
    /// Where this name starts in `buf`; always on a length octet, or at
    /// `buf.len()` for the root.
    start: u8,
}

/// A name assembled on the stack: building one allocates nothing, and
/// freezing it into a [`DnsName`] allocates once. The one place that
/// enforces the label and name length limits the flat layout depends
/// on. An answer writer keeps the name it is chasing in one, borrowed
/// as a [`NameRef`] for map probes.
#[derive(Clone)]
pub struct NameBuf {
    bytes: [u8; MAX_FLAT_LEN],
    len: usize,
}

impl Default for NameBuf {
    fn default() -> NameBuf {
        NameBuf { bytes: [0; MAX_FLAT_LEN], len: 0 }
    }
}

impl NameBuf {
    /// The root name: no labels yet.
    pub fn new() -> NameBuf {
        NameBuf::default()
    }

    /// Append one label (1..=63 octets), keeping the whole within 255
    /// octets on the wire.
    pub fn push_label(&mut self, label: &[u8]) -> Result<(), WireError> {
        if label.is_empty() {
            return Err(WireError::InvalidValue { context: "empty label" });
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        let body = self.reserve(1 + label.len())?;
        body[0] = label.len() as u8;
        body[1..].copy_from_slice(label);
        Ok(())
    }

    /// Append every label of a name; an error if the result would pass
    /// 255 octets on the wire.
    pub fn push_name(&mut self, name: NameRef<'_>) -> Result<(), WireError> {
        self.reserve(name.flat.len())?.copy_from_slice(name.flat);
        Ok(())
    }

    /// The name built so far, borrowed.
    pub fn name_ref(&self) -> NameRef<'_> {
        NameRef { flat: &self.bytes[..self.len] }
    }

    fn reserve(&mut self, n: usize) -> Result<&mut [u8], WireError> {
        let end = self.len + n;
        if end > MAX_FLAT_LEN {
            return Err(WireError::NameTooLong(end + 1)); // + root octet
        }
        let body = &mut self.bytes[self.len..end];
        self.len = end;
        Ok(body)
    }

    /// The name built so far, as an owned [`DnsName`]: one allocation
    /// (none for the root).
    pub fn freeze(&self) -> DnsName {
        if self.len == 0 {
            DnsName::root()
        } else {
            DnsName { buf: Arc::from(&self.bytes[..self.len]), start: 0 }
        }
    }
}

impl From<NameRef<'_>> for NameBuf {
    fn from(name: NameRef<'_>) -> NameBuf {
        let mut buf = NameBuf::new();
        buf.bytes[..name.flat.len()].copy_from_slice(name.flat);
        buf.len = name.flat.len();
        buf
    }
}

impl DnsName {
    /// The root name (`.`). Every root shares one static empty buffer.
    pub fn root() -> Self {
        static ROOT: OnceLock<Arc<[u8]>> = OnceLock::new();
        DnsName { buf: ROOT.get_or_init(|| Arc::from([])).clone(), start: 0 }
    }

    /// Build from raw labels (no root label), most-specific first.
    /// Labels may hold any octets but must be 1..=63 long, and the name
    /// at most 255 octets on the wire.
    pub fn from_labels<I>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let mut flat = NameBuf::new();
        for label in labels {
            flat.push_label(label.as_ref())?;
        }
        Ok(flat.freeze())
    }

    /// Parse a presentation-format name such as `www.example.com` or
    /// `example.com.`. A lone `.` yields the root name. `\.`-style
    /// escapes and the `\DDD` decimal escapes [`fmt::Display`] emits
    /// are honoured.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        let s = s.trim();
        let bad = || ParseError::BadName(s.to_string());
        if s.is_empty() {
            return Err(bad());
        }
        if s == "." {
            return Ok(DnsName::root());
        }
        let mut flat = NameBuf::new();
        let mut label = [0u8; MAX_LABEL_LEN];
        let mut n = 0usize;
        let mut rest = s.as_bytes();
        while let Some((&b, tail)) = rest.split_first() {
            rest = tail;
            let octet = match b {
                b'\\' => match rest {
                    [h @ b'0'..=b'9', t @ b'0'..=b'9', u @ b'0'..=b'9', tail @ ..]
                        if (*h, *t, *u) <= (b'2', b'5', b'5') =>
                    {
                        rest = tail;
                        (h - b'0') * 100 + (t - b'0') * 10 + (u - b'0')
                    }
                    [esc, tail @ ..] => {
                        rest = tail;
                        *esc
                    }
                    [] => return Err(bad()),
                },
                b'.' => {
                    flat.push_label(&label[..n]).map_err(|_| bad())?;
                    n = 0;
                    continue;
                }
                _ => b,
            };
            *label.get_mut(n).ok_or_else(bad)? = octet;
            n += 1;
        }
        if n > 0 {
            flat.push_label(&label[..n]).map_err(|_| bad())?;
        }
        Ok(flat.freeze())
    }

    /// The flat form: length-prefixed labels without the root octet.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.buf[self.start as usize..]
    }

    /// The labels of this name, most-specific first, excluding the root.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: self.wire() }
    }

    /// Number of labels (the root name has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire().is_empty()
    }

    /// Length of the uncompressed wire encoding (labels + root octet).
    pub fn wire_len(&self) -> usize {
        self.wire().len() + 1
    }

    /// The name with its leftmost label removed; `None` for the root.
    /// Shares this name's buffer.
    pub fn parent(&self) -> Option<DnsName> {
        let first = *self.wire().first()?;
        Some(DnsName { buf: self.buf.clone(), start: self.start + 1 + first })
    }

    /// Prepend a label, e.g. `example.com`.prepend("www") = `www.example.com`.
    pub fn prepend(&self, label: &str) -> Result<DnsName, ParseError> {
        let bad = || ParseError::BadName(label.to_string());
        if label.contains('.') {
            return Err(bad());
        }
        let mut flat = NameBuf::new();
        flat.push_label(label.as_bytes()).map_err(|_| bad())?;
        flat.push_name(self.name_ref()).map_err(|_| bad())?;
        Ok(flat.freeze())
    }

    /// Walk this name and its ancestors, nearest first, until `probe`
    /// gives a value for one. That ancestor comes back beside the value
    /// as a name sharing this one's buffer and spelling: the walk reads
    /// borrowed suffixes, and the hit costs one reference count.
    pub fn find_ancestor<T>(
        &self,
        mut probe: impl FnMut(NameRef<'_>) -> Option<T>,
    ) -> Option<(DnsName, T)> {
        self.name_ref().ancestors().find_map(|ancestor| {
            let value = probe(ancestor)?;
            // An ancestor's bytes end where this name's buffer ends.
            let start = (self.buf.len() - ancestor.flat.len()) as u8;
            Some((DnsName { buf: self.buf.clone(), start }, value))
        })
    }

    /// True when `self` equals `other` or is a descendant of it.
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &DnsName) -> bool {
        self.name_ref().is_subdomain_of(other.name_ref())
    }

    /// Lowercased presentation form without trailing dot (root → `.`),
    /// convenient as a map key in higher layers.
    pub fn key(&self) -> String {
        let mut s = String::with_capacity(self.wire().len().max(1));
        self.write_key(&mut s);
        s
    }

    /// Append [`DnsName::key`]'s rendering to `out` without allocating a
    /// fresh `String` — hot paths (e.g. batch partitioning) reuse one
    /// cleared buffer across many names.
    pub fn write_key(&self, out: &mut String) {
        key_chars(self.labels(), |c| out.push(c));
    }

    /// Feed the UTF-8 bytes of [`DnsName::key`] to `sink`, in order,
    /// without building the string: a map keyed by the name itself can
    /// still derive a value (a shard index, a seed) from the dotted key.
    pub fn for_each_key_byte(&self, mut sink: impl FnMut(u8)) {
        let wire = self.wire();
        if wire.is_empty() {
            return sink(b'.');
        }
        // Every length octet but the first becomes the dot before its
        // label; an octet rendered as a `char` is U+0000..=U+00FF, two
        // UTF-8 bytes from 0x80 up.
        let mut next_len = 0;
        for (at, &b) in wire.iter().enumerate() {
            if at == next_len {
                next_len += 1 + b as usize;
                if at > 0 {
                    sink(b'.');
                }
            } else if b < 0x80 {
                sink(b.to_ascii_lowercase());
            } else {
                sink(0xC0 | (b >> 6));
                sink(0x80 | (b & 0x3F));
            }
        }
    }

    /// Validate a (possibly compressed) name at `start` without building
    /// it, returning the offset at which sequential reading resumes.
    /// The walk is [`DnsName::decode_at`]'s, so a name that passes
    /// `skip_at` decodes without error.
    pub fn skip_at(buf: &[u8], start: usize) -> Result<usize, WireError> {
        walk_name(buf, start, |_| Ok(()))
    }

    /// Decode a (possibly compressed) name from `buf` starting at `start`.
    /// Returns the name and the offset at which sequential reading resumes.
    pub fn decode_at(buf: &[u8], start: usize) -> Result<(DnsName, usize), WireError> {
        let mut flat = NameBuf::new();
        let next = walk_name(buf, start, |label| flat.push_label(label))?;
        Ok((flat.freeze(), next))
    }
}

/// Walk the (possibly compressed) name at `start`, handing each label to
/// `label` in order, and return the offset at which sequential reading
/// resumes: after the first pointer, or after the root octet when there
/// is none. The one owner of the structural rules: pointers strictly
/// backwards (so the walk ends) within a hop budget, labels of at most
/// 63 octets (a length octet's top bits say so), and at most 255 octets
/// spelled out — so a label handed on never breaks [`NameBuf`]'s limits.
fn walk_name(
    buf: &[u8],
    start: usize,
    mut label: impl FnMut(&[u8]) -> Result<(), WireError>,
) -> Result<usize, WireError> {
    let mut pos = start;
    let mut resume: Option<usize> = None;
    let mut hops = 0usize;
    let mut wire_len = 1usize; // root octet
    loop {
        let len_byte =
            *buf.get(pos).ok_or(WireError::Truncated { context: "name label length" })?;
        match len_byte & 0xC0 {
            0x00 => {
                let n = len_byte as usize;
                if n == 0 {
                    return Ok(resume.unwrap_or(pos + 1));
                }
                let end = pos + 1 + n;
                let body =
                    buf.get(pos + 1..end).ok_or(WireError::Truncated { context: "name label" })?;
                wire_len += n + 1;
                if wire_len > MAX_NAME_WIRE_LEN {
                    return Err(WireError::NameTooLong(wire_len));
                }
                label(body)?;
                pos = end;
            }
            0xC0 => {
                let second = *buf
                    .get(pos + 1)
                    .ok_or(WireError::Truncated { context: "compression pointer" })?;
                let target = (((len_byte & 0x3F) as usize) << 8) | second as usize;
                hops += 1;
                if target >= pos || hops > MAX_POINTER_HOPS {
                    return Err(WireError::BadCompressionPointer { at: pos });
                }
                resume.get_or_insert(pos + 2);
                pos = target;
            }
            other => return Err(WireError::UnsupportedLabelType(other)),
        }
    }
}

/// Iterator over the labels of a [`DnsName`], most-specific first.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at_checked(len as usize)?;
        self.rest = rest;
        Some(label)
    }
}

/// The lowercased dotted form of a label sequence, no trailing dot
/// (no labels → `.`), one `char` per octet: what [`DnsName::key`] and
/// [`NameView::write_key`](crate::view::NameView::write_key) render.
pub(crate) fn key_chars<'a>(labels: impl Iterator<Item = &'a [u8]>, mut sink: impl FnMut(char)) {
    let mut any = false;
    for label in labels {
        if any {
            sink('.');
        }
        any = true;
        for &b in label {
            sink(b.to_ascii_lowercase() as char);
        }
    }
    if !any {
        sink('.');
    }
}

/// The presentation form of a label sequence: every label dot-terminated
/// (no labels → `.`), dots and backslashes escaped, anything that is not
/// a graphic ASCII character as `\DDD`.
pub(crate) fn fmt_labels<'a>(
    labels: impl Iterator<Item = &'a [u8]>,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let mut any = false;
    for label in labels {
        any = true;
        for &b in label {
            if b == b'.' || b == b'\\' {
                write!(f, "\\{}", b as char)?;
            } else if b.is_ascii_graphic() {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\{:03}", b)?;
            }
        }
        write!(f, ".")?;
    }
    if !any {
        write!(f, ".")?;
    }
    Ok(())
}

/// Record where each label of `wire` starts (the offset of its length
/// octet) and return how many there are, so that a right-to-left walk
/// needs no heap.
fn label_starts(wire: &[u8], starts: &mut [u8; MAX_LABELS]) -> usize {
    let mut count = 0;
    let mut pos = 0;
    while let (Some(&len), Some(slot)) = (wire.get(pos), starts.get_mut(count)) {
        *slot = pos as u8;
        count += 1;
        pos += 1 + len as usize;
    }
    count
}

fn label_at(wire: &[u8], start: u8) -> &[u8] {
    let start = start as usize;
    &wire[start + 1..start + 1 + wire[start] as usize]
}

/// Equality of two flat names, ASCII case folded.
fn flat_eq(a: &[u8], b: &[u8]) -> bool {
    // Names in one map nearly always agree in case: try the exact bytes
    // before folding.
    a.len() == b.len() && (a == b || a.eq_ignore_ascii_case(b))
}

impl PartialEq for DnsName {
    fn eq(&self, other: &Self) -> bool {
        flat_eq(self.wire(), other.wire())
    }
}

impl Eq for DnsName {}

impl Hash for DnsName {
    /// One word: `fold_hash` of the flat bytes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(fold_hash(self.wire()));
    }
}

/// A name borrowed as its flat bytes (length-prefixed labels, no root
/// octet): a suffix of a [`DnsName`]'s buffer, or a message's name
/// spelled out in place ([`NameView::flat`](crate::NameView::flat)).
/// Compares like a `DnsName`, ASCII case folded; as
/// [`dyn NameKey`](NameKey) it also hashes like one.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    /// Always on a length octet, with labels of 1..=63 octets up to the
    /// end of the slice, at most 254 octets in all.
    pub(crate) flat: &'a [u8],
}

impl<'a> NameRef<'a> {
    /// The name with its leftmost label removed; `None` for the root.
    pub fn parent(self) -> Option<NameRef<'a>> {
        let (&len, rest) = self.flat.split_first()?;
        Some(NameRef { flat: rest.get(len as usize..)? })
    }

    /// This name, then each ancestor up to and including the root.
    pub fn ancestors(self) -> impl Iterator<Item = NameRef<'a>> {
        std::iter::successors(Some(self), |name| name.parent())
    }

    /// The probe form of this name for a `DnsName`-keyed map.
    pub fn as_key(&self) -> &(dyn NameKey + 'a) {
        self
    }

    /// The labels, most-specific first.
    pub fn labels(self) -> Labels<'a> {
        Labels { rest: self.flat }
    }

    /// True when `self` equals `other` or is a descendant of it.
    pub fn is_subdomain_of(self, other: NameRef<'_>) -> bool {
        let (mine, theirs) = (self.flat, other.flat);
        let Some(cut) = mine.len().checked_sub(theirs.len()) else {
            return false;
        };
        if !mine[cut..].eq_ignore_ascii_case(theirs) {
            return false;
        }
        // Matching bytes are not enough: `other` has to start where one
        // of our labels starts. The one label `a\003com` ends with the
        // bytes of `com` and is not under it.
        let mut pos = 0;
        while pos < cut {
            pos += 1 + mine[pos] as usize;
        }
        pos == cut
    }
}

impl PartialEq for NameRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        flat_eq(self.flat, other.flat)
    }
}

impl Eq for NameRef<'_> {}

impl fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NameRef(")?;
        fmt_labels(Labels { rest: self.flat }, f)?;
        write!(f, ")")
    }
}

/// What a `DnsName`-keyed map is probed with: a [`DnsName`] or a
/// [`NameRef`], as `&dyn NameKey`. `DnsName` borrows as `dyn NameKey`,
/// and the trait object's `Hash` and `Eq` are `DnsName`'s, so a
/// `HashMap<DnsName, _, NameBuildHasher>` answers a borrowed probe as it
/// answers the owned name.
///
/// ```
/// use dns_wire::{DnsName, NameBuildHasher, NameKey};
/// use std::collections::HashMap;
/// let mut zones: HashMap<DnsName, u32, NameBuildHasher> = HashMap::default();
/// zones.insert(DnsName::parse("example.com").unwrap(), 7);
/// let host = DnsName::parse("WWW.Example.COM").unwrap();
/// let hit = host.name_ref().ancestors().find_map(|a| zones.get(a.as_key()));
/// assert_eq!(hit, Some(&7));
/// ```
pub trait NameKey {
    /// The name's flat bytes, borrowed.
    fn name_ref(&self) -> NameRef<'_>;
}

impl NameKey for DnsName {
    fn name_ref(&self) -> NameRef<'_> {
        NameRef { flat: self.wire() }
    }
}

impl NameKey for NameRef<'_> {
    fn name_ref(&self) -> NameRef<'_> {
        *self
    }
}

impl Hash for dyn NameKey + '_ {
    /// `DnsName`'s word: `fold_hash` of the flat bytes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(fold_hash(self.name_ref().flat));
    }
}

impl PartialEq for dyn NameKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.name_ref() == other.name_ref()
    }
}

impl Eq for dyn NameKey + '_ {}

impl<'a> Borrow<dyn NameKey + 'a> for DnsName {
    fn borrow(&self) -> &(dyn NameKey + 'a) {
        self
    }
}

/// Odd multiplier of the mixing steps (2^64 / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// One in every byte of a word.
const BYTES: u64 = 0x0101_0101_0101_0101;

/// The 128-bit product of `x` and [`MIX`], its halves xored: every
/// input bit reaches the low bits as well as the high ones.
fn mix(x: u64) -> u64 {
    let p = x as u128 * MIX as u128;
    p as u64 ^ (p >> 64) as u64
}

/// Lowercase the ASCII letters among eight bytes at once (SWAR): add
/// 0x20 where a byte is in `A..=Z`, leave every other byte, 0x80 and up
/// included, as it is.
fn fold_word(w: u64) -> u64 {
    let low7 = w & (0x7F * BYTES);
    let from_a = low7 + (0x80 - b'A' as u64) * BYTES; // top bit: ≥ 'A'
    let past_z = low7 + (0x7F - b'Z' as u64) * BYTES; // top bit: > 'Z'
    let upper = from_a & !past_z & !w & (0x80 * BYTES);
    w | (upper >> 2)
}

/// The case-folded hash of a flat name: the length, then each word of
/// eight folded bytes (the last zero-padded), mixed in turn. Names that
/// differ only in ASCII case hash alike; a parent hashes like the same
/// name built on its own, since only its own bytes are read.
fn fold_hash(flat: &[u8]) -> u64 {
    let mut h = MIX ^ flat.len() as u64;
    let mut words = flat.chunks_exact(8);
    for word in &mut words {
        h = mix(h ^ fold_word(u64::from_le_bytes(word.try_into().expect("eight bytes"))));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h ^ fold_word(u64::from_le_bytes(last)));
    }
    h
}

/// The hasher of every name-keyed map: a [`DnsName`]'s word passes
/// straight through, and a small integer beside it (the record type of
/// a `(DnsName, u16)` key, a flag) is multiplied in. Unkeyed and not
/// meant for untrusted keys; see [`DnsName`].
///
/// ```
/// use dns_wire::{DnsName, NameBuildHasher};
/// use std::collections::HashMap;
/// let mut zones: HashMap<DnsName, u32, NameBuildHasher> = HashMap::default();
/// zones.insert(DnsName::parse("Example.COM").unwrap(), 7);
/// assert_eq!(zones.get(&DnsName::parse("example.com").unwrap()), Some(&7));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NameHasher(u64);

/// Builds a [`NameHasher`] per probe; the `S` of every name-keyed map.
pub type NameBuildHasher = std::hash::BuildHasherDefault<NameHasher>;

impl NameHasher {
    fn mix_in(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(MIX);
    }
}

impl Hasher for NameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// A name's word (or a `u64` key) passes through into a fresh
    /// hasher; a later word is chained onto what is there.
    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_mul(MIX) ^ word;
    }

    fn write_u8(&mut self, n: u8) {
        self.mix_in(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.mix_in(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.mix_in(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.mix_in(n as u64);
    }

    /// Raw bytes only reach here from key types other than names and
    /// integers; they are mixed in one at a time.
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.mix_in(b.into()));
    }
}

impl PartialOrd for DnsName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DnsName {
    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences
    /// right-to-left, case-insensitively.
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.wire(), other.wire());
        let (mut a_starts, mut b_starts) = ([0u8; MAX_LABELS], [0u8; MAX_LABELS]);
        let a_count = label_starts(a, &mut a_starts);
        let b_count = label_starts(b, &mut b_starts);
        let a_rev = a_starts[..a_count].iter().rev().map(|&s| label_at(a, s));
        let b_rev = b_starts[..b_count].iter().rev().map(|&s| label_at(b, s));
        for (la, lb) in a_rev.zip(b_rev) {
            let la = la.iter().map(u8::to_ascii_lowercase);
            match la.cmp(lb.iter().map(u8::to_ascii_lowercase)) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        a_count.cmp(&b_count)
    }
}

impl fmt::Debug for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DnsName({self})")
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_labels(self.labels(), f)
    }
}

impl std::str::FromStr for DnsName {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DnsName::parse("a.example.com.").unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.to_string(), "a.example.com.");
        assert_eq!(DnsName::root().to_string(), ".");
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let a = DnsName::parse("ExAmPlE.CoM").unwrap();
        let b = DnsName::parse("example.com").unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn parent_and_prepend() {
        let apex = DnsName::parse("example.com").unwrap();
        let www = apex.prepend("www").unwrap();
        assert_eq!(www.to_string(), "www.example.com.");
        assert_eq!(www.parent().unwrap(), apex);
        assert_eq!(apex.parent().unwrap().parent().unwrap(), DnsName::root());
        assert!(DnsName::root().parent().is_none());
    }

    #[test]
    fn subdomain_relation() {
        let com = DnsName::parse("com").unwrap();
        let ex = DnsName::parse("example.com").unwrap();
        let www = DnsName::parse("www.Example.COM").unwrap();
        assert!(www.is_subdomain_of(&ex));
        assert!(www.is_subdomain_of(&com));
        assert!(www.is_subdomain_of(&DnsName::root()));
        assert!(ex.is_subdomain_of(&ex));
        assert!(!ex.is_subdomain_of(&www));
        assert!(!DnsName::parse("badexample.com").unwrap().is_subdomain_of(&ex));
    }

    #[test]
    fn wire_round_trip_plain() {
        let n = DnsName::parse("mail.example.org").unwrap();
        let mut w = crate::wire::WireWriter::new();
        w.put_name_uncompressed(&n);
        let buf = w.into_bytes();
        let (decoded, next) = DnsName::decode_at(&buf, 0).unwrap();
        assert_eq!(decoded, n);
        assert_eq!(next, buf.len());
    }

    #[test]
    fn decode_rejects_pointer_loop() {
        // A pointer at offset 0 pointing to itself.
        let buf = [0xC0, 0x00];
        assert!(matches!(
            DnsName::decode_at(&buf, 0),
            Err(WireError::BadCompressionPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        let buf = [0xC0, 0x05, 0, 0, 0, 0];
        assert!(DnsName::decode_at(&buf, 0).is_err());
    }

    #[test]
    fn decode_follows_backward_pointer() {
        // "com" at 0, then "example" + pointer to 0.
        let mut buf = vec![3, b'c', b'o', b'm', 0];
        let ptr_at = buf.len();
        buf.extend_from_slice(&[7]);
        buf.extend_from_slice(b"example");
        buf.extend_from_slice(&[0xC0, 0x00]);
        let (n, next) = DnsName::decode_at(&buf, ptr_at).unwrap();
        assert_eq!(n, DnsName::parse("example.com").unwrap());
        assert_eq!(next, buf.len());
    }

    #[test]
    fn rejects_oversized_label() {
        let long = "a".repeat(64);
        assert!(DnsName::parse(&long).is_err());
        assert!(DnsName::parse(&"a".repeat(63)).is_ok());
    }

    #[test]
    fn rejects_oversized_name() {
        let label = "a".repeat(63);
        let name = format!("{label}.{label}.{label}.{label}.{label}");
        assert!(DnsName::parse(&name).is_err());
    }

    #[test]
    fn from_labels_enforces_the_limits() {
        assert_eq!(DnsName::from_labels([[b'a'; 63]]).unwrap().wire_len(), 65);
        assert_eq!(DnsName::from_labels([[b'a'; 64]]), Err(WireError::LabelTooLong(64)));
        assert!(matches!(DnsName::from_labels([b""]), Err(WireError::InvalidValue { .. })));
        // 3 × 64 + 62 + the root octet = 255 fits; one octet more does not.
        let mut labels = vec![vec![b'a'; 63]; 3];
        labels.push(vec![b'b'; 61]);
        assert_eq!(DnsName::from_labels(&labels).unwrap().wire_len(), 255);
        labels[3].push(b'b');
        assert_eq!(DnsName::from_labels(&labels), Err(WireError::NameTooLong(256)));
        assert!(DnsName::from_labels(&labels[..3]).unwrap().prepend(&"b".repeat(62)).is_err());
        assert_eq!(DnsName::from_labels::<[&[u8]; 0]>([]).unwrap(), DnsName::root());
    }

    #[test]
    fn decimal_escapes_round_trip() {
        let n = DnsName::from_labels([&[0u8, b' ', 200, b'a'][..]]).unwrap();
        assert_eq!(n.to_string(), r"\000\032\200a.");
        assert_eq!(DnsName::parse(&n.to_string()).unwrap().labels().next(), n.labels().next());
        // Not a decimal octet: the escape covers one character, as before.
        assert_eq!(DnsName::parse(r"\256").unwrap().labels().next(), Some(&b"256"[..]));
    }

    #[test]
    fn escaped_dot_in_label() {
        let n = DnsName::parse(r"foo\.bar.example").unwrap();
        assert_eq!(n.label_count(), 2);
        assert_eq!(n.labels().next(), Some(&b"foo.bar"[..]));
        assert_eq!(n.to_string(), r"foo\.bar.example.");
    }

    #[test]
    fn canonical_order_rfc4034() {
        // RFC 4034 §6.1 example ordering.
        let mut names: Vec<DnsName> = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "Z.a.example",
            "zABC.a.EXAMPLE",
            "z.example",
        ]
        .iter()
        .map(|s| DnsName::parse(s).unwrap())
        .collect();
        let expected: Vec<DnsName> = names.clone();
        names.reverse();
        names.sort();
        assert_eq!(names, expected);
    }

    #[test]
    fn key_is_lowercase_no_trailing_dot() {
        assert_eq!(DnsName::parse("WWW.Example.Com.").unwrap().key(), "www.example.com");
        assert_eq!(DnsName::root().key(), ".");
    }

    #[test]
    fn write_key_appends_and_matches_key() {
        let mut buf = String::from("x");
        DnsName::parse("A.Example").unwrap().write_key(&mut buf);
        assert_eq!(buf, "xa.example");
        buf.clear();
        DnsName::root().write_key(&mut buf);
        assert_eq!(buf, ".");
    }

    #[test]
    fn rejects_empty_label() {
        assert!(DnsName::parse("a..b").is_err());
        assert!(DnsName::parse("").is_err());
    }
}
