//! Low-level wire reader/writer used by all codecs in this crate.
//!
//! `WireReader` is a bounds-checked cursor over an immutable byte slice; it
//! supports absolute seeks so name decompression can follow pointers while
//! remembering where the sequential scan should resume. `WireWriter` is an
//! append-only buffer with a name-compression dictionary.

use crate::error::WireError;
use crate::name::DnsName;

/// Bounds-checked reading cursor over a DNS message buffer.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Create a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current absolute offset into the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Move the cursor to an absolute offset.
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.buf.len() {
            return Err(WireError::Truncated { context: "seek target" });
        }
        self.pos = pos;
        Ok(())
    }

    /// Read a single octet.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated { context: "u8" })?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        let bytes = self.read_bytes(2, "u16")?;
        Ok(u16::from_be_bytes([bytes[0], bytes[1]]))
    }

    /// Read a big-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.read_bytes(4, "u32")?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Read exactly `n` bytes, advancing the cursor.
    pub fn read_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a domain name starting at the cursor, following compression
    /// pointers. The cursor resumes after the first pointer (or after the
    /// terminating root label when no pointer was present).
    pub fn read_name(&mut self) -> Result<DnsName, WireError> {
        let (name, next) = DnsName::decode_at(self.buf, self.pos)?;
        self.pos = next;
        Ok(name)
    }
}

/// Append-only writer with DNS name compression.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// The compression dictionary: the offset of every label this
    /// writer spelled out in a compressible name, in writing order. The
    /// name suffix that starts at each (through any pointer it ends in)
    /// is what a later name may point at; the suffixes are compared
    /// where they lie in `buf`, so the dictionary stores no names. A
    /// suffix is spelled out at most once — every later use is a pointer
    /// — so the first match is the only one. Offsets must fit in 14 bits
    /// per RFC 1035.
    suffixes: Vec<u16>,
    /// When false, names are written uncompressed (required inside RDATA of
    /// newer record types such as SVCB/HTTPS, RFC 9460 §2.2).
    compression_enabled: bool,
}

/// Whether the (possibly compressed) name at `at` in `buf` spells the
/// labels of `flat` (length-prefixed, no root octet), ASCII case aside.
fn name_at_eq(buf: &[u8], mut at: usize, mut flat: &[u8]) -> bool {
    loop {
        let Some(&len) = buf.get(at) else {
            return false;
        };
        if len == 0 {
            return flat.is_empty();
        }
        if len & 0xC0 == 0xC0 {
            // The writer's own pointer: always backwards, so this ends.
            let Some(&low) = buf.get(at + 1) else {
                return false;
            };
            at = usize::from(u16::from_be_bytes([len & 0x3F, low]));
            continue;
        }
        // Length octet and label in one comparison: the octet is below
        // 'A', so ignoring case cannot make two lengths agree.
        let end = at + 1 + len as usize;
        match (buf.get(at..end), flat.split_at_checked(end - at)) {
            (Some(label), Some((head, tail))) if label.eq_ignore_ascii_case(head) => {
                at = end;
                flat = tail;
            }
            _ => return false,
        }
    }
}

impl WireWriter {
    /// New empty writer with compression enabled.
    pub fn new() -> Self {
        WireWriter { buf: Vec::with_capacity(512), suffixes: Vec::new(), compression_enabled: true }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether anything has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// View of the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append one octet.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrite a previously written big-endian u16 (e.g. RDLENGTH backfill).
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        let b = v.to_be_bytes();
        self.buf[at] = b[0];
        self.buf[at + 1] = b[1];
    }

    /// Append a domain name, emitting a compression pointer when a suffix of
    /// the name was already written and compression is allowed: the
    /// longest such suffix, at the offset it was first written.
    pub fn put_name(&mut self, name: &DnsName) {
        let mut rest = name.wire();
        if self.compression_enabled {
            while let Some(&len) = rest.first() {
                let known =
                    self.suffixes.iter().find(|&&at| name_at_eq(&self.buf, at.into(), rest));
                if let Some(&at) = known {
                    self.put_u16(0xC000 | at);
                    return;
                }
                if let Ok(at @ 0..=0x3FFF) = u16::try_from(self.buf.len()) {
                    self.suffixes.push(at);
                }
                let (label, tail) = rest.split_at(1 + len as usize);
                self.buf.extend_from_slice(label);
                rest = tail;
            }
        }
        self.buf.extend_from_slice(rest);
        self.buf.push(0); // root label
    }

    /// Append a domain name without compression (RFC 9460 requires
    /// uncompressed TargetName inside SVCB/HTTPS RDATA).
    pub fn put_name_uncompressed(&mut self, name: &DnsName) {
        let prev = self.compression_enabled;
        self.compression_enabled = false;
        self.put_name(name);
        self.compression_enabled = prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_primitives() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE];
        let mut r = WireReader::new(&data);
        assert_eq!(r.read_u8().unwrap(), 0x12);
        assert_eq!(r.read_u16().unwrap(), 0x3456);
        assert_eq!(r.read_u32().unwrap(), 0x789ABCDE);
        assert_eq!(r.remaining(), 0);
        assert!(r.read_u8().is_err());
    }

    #[test]
    fn reader_truncation_reports_context() {
        let mut r = WireReader::new(&[0x00]);
        let err = r.read_u16().unwrap_err();
        assert_eq!(err, WireError::Truncated { context: "u16" });
    }

    #[test]
    fn writer_patch() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(7);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.as_bytes(), &[0xBE, 0xEF, 7]);
    }

    #[test]
    fn name_compression_round_trip() {
        let a = DnsName::parse("www.example.com").unwrap();
        let b = DnsName::parse("mail.example.com").unwrap();
        let mut w = WireWriter::new();
        w.put_name(&a);
        let first_len = w.len();
        w.put_name(&b);
        // "mail" label (5) + 2-byte pointer = 7 bytes.
        assert_eq!(w.len() - first_len, 7);

        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.read_name().unwrap(), a);
        assert_eq!(r.read_name().unwrap(), b);
    }

    #[test]
    fn compression_is_case_insensitive_and_takes_the_longest_first_written_suffix() {
        let name = |s: &str| DnsName::parse(s).unwrap();
        let mut w = WireWriter::new();
        w.put_u16(0xAAAA);
        w.put_name(&name("www.Example.com")); // at 2: 3www 7Example 3com 0
        w.put_name(&name("MAIL.example.COM")); // at 19: 4MAIL -> 6
        w.put_name(&name("x.mail.EXAMPLE.com")); // at 26: 1x -> 19
        w.put_name_uncompressed(&name("com")); // at 30, never pointed at
        w.put_name(&name("Com")); // -> 14, not 30
        w.put_name(&name("org")); // nothing shared
        w.put_name(&DnsName::root());
        let mut expect = vec![0xAA, 0xAA];
        expect.extend_from_slice(b"\x03www\x07Example\x03com\x00");
        expect.extend_from_slice(b"\x04MAIL\xC0\x06");
        expect.extend_from_slice(b"\x01x\xC0\x13");
        expect.extend_from_slice(b"\x03com\x00");
        expect.extend_from_slice(b"\xC0\x0E");
        expect.extend_from_slice(b"\x03org\x00\x00");
        assert_eq!(w.as_bytes(), &expect[..]);
    }

    #[test]
    fn labels_past_the_14_bit_offset_limit_are_never_pointed_at() {
        let name = |s: &str| DnsName::parse(s).unwrap();
        let mut w = WireWriter::new();
        w.put_bytes(&vec![0xEE; 0x3FFE]);
        w.put_name(&name("a.b")); // `a` at 0x3FFE, `b` at 0x4000
        let at = w.len();
        w.put_name(&name("b")); // spelled out again: 0x4000 cannot be encoded
        w.put_name(&name("A.B")); // the whole name can: it starts at 0x3FFE
        w.put_name(&name("x.b")); // and `b` still cannot
        assert_eq!(&w.as_bytes()[at..], b"\x01b\x00\xFF\xFE\x01x\x01b\x00");
    }

    #[test]
    fn uncompressed_name_has_no_pointer() {
        let a = DnsName::parse("www.example.com").unwrap();
        let mut w = WireWriter::new();
        w.put_name(&a);
        let before = w.len();
        w.put_name_uncompressed(&a);
        // Full name again: 4+1 + 8 + 4 + 1 = wire length of the name.
        assert_eq!(w.len() - before, a.wire_len());
    }
}
