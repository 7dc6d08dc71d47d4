//! Borrowed message views: the crate's one message decoder. A single
//! validation pass over a datagram, then lazy, zero-copy access to names
//! and RDATA.
//!
//! [`MessageView::parse`] reads the header fields and walks every
//! question and resource record once — names are *validated* by the walk
//! [`DnsName::decode_at`] shares, but never materialized, RDATA is left
//! as an `RDLENGTH`-delimited subrange of the buffer, and all the pass
//! keeps is where each section starts: the section iterators walk the
//! validated bytes again, stepping over each name in place instead of
//! validating it twice, so a view owns no heap memory. The header,
//! section, OPT/extended-RCODE and trailing-byte rules live here and
//! nowhere else. Callers then read what they need:
//!
//! - [`NameView`] exposes a compression-aware label iterator plus
//!   comparison/rendering helpers that work straight off the wire;
//! - [`RecordView::check_rdata`] checks the record's RDATA against its
//!   type's rules ([`RData::check`], the one place they live), building
//!   nothing; [`RecordView::rdata_view`] then reads the checked bytes in
//!   place — names where [`RecordType::rdata_names`] puts them — and
//!   [`RecordView::svcb`] and [`RecordView::soa_minimum`] read the fields
//!   a resolver or a browser needs. [`RecordView::rdata`] builds typed
//!   [`RData`] (the same check, then a build from the checked bytes) for
//!   a reader that wants owned values;
//! - [`RecordView::at`] re-enters a record by the offset
//!   [`RecordView::offset`] reported, reading that one record's fields
//!   again — how a resolver keeps a reply's answers as offsets into its
//!   bytes;
//! - `to_owned()` escape hatches ([`NameView::to_owned`],
//!   [`RecordView::to_owned`], [`MessageView::to_message`]) produce the
//!   owned types. [`Message::decode`] is `parse` followed by
//!   `to_message`, so the owned and borrowed paths accept exactly the
//!   same datagrams;
//! - two ways around building a name: [`NameView::flat`] borrows a name
//!   spelled out in place as a [`NameRef`] map key, and
//!   [`RecordView::owner_for`] shares the asked name as the owner of a
//!   record that points at the question.

use crate::error::WireError;
use crate::message::{Edns, Flags, Message, Opcode, Question, Rcode};
use crate::name::{fmt_labels, key_chars, DnsName, NameBuf, NameKey, NameRef, MAX_POINTER_HOPS};
use crate::record::{soa_minimum, DnsClass, RData, Record, RecordType};
use crate::svcb::SvcbView;
use std::fmt;

/// Borrowed view of one (possibly compressed) domain name inside a
/// message buffer. Copyable; holds only the buffer reference and the
/// offset where the name starts.
#[derive(Debug, Clone, Copy)]
pub struct NameView<'a> {
    buf: &'a [u8],
    start: usize,
}

impl<'a> NameView<'a> {
    /// The name at `start` of `buf`, which the caller has walked.
    pub(crate) fn at(buf: &'a [u8], start: usize) -> NameView<'a> {
        NameView { buf, start }
    }

    /// Case-insensitive comparison against another borrowed name, in
    /// this message or another one.
    pub fn eq_view(&self, other: &NameView<'_>) -> bool {
        // In one message, the same offset or the same pointer is the
        // same name.
        if std::ptr::eq(self.buf, other.buf) {
            let pointer = |at: usize| self.buf.get(at..at + 2).filter(|p| p[0] >= 0xC0);
            if self.start == other.start
                || pointer(self.start).is_some_and(|p| Some(p) == pointer(other.start))
            {
                return true;
            }
        }
        let mut theirs = other.labels();
        self.labels().all(|l| theirs.next().is_some_and(|t| l.eq_ignore_ascii_case(t)))
            && theirs.next().is_none()
    }

    /// Iterate the raw labels (most-specific first), following
    /// compression pointers without allocating.
    pub fn labels(&self) -> LabelIter<'a> {
        LabelIter { buf: self.buf, pos: self.start, hops: 0 }
    }

    /// Number of labels (the root name has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels().next().is_none()
    }

    /// Case-insensitive comparison against an owned [`DnsName`]: one
    /// slice comparison when the name is spelled out in place (as a
    /// question is), a label walk otherwise.
    pub fn eq_name(&self, other: &DnsName) -> bool {
        if let Some(flat) = self.flat() {
            return flat == other.name_ref();
        }
        let mut theirs = other.labels();
        self.labels().all(|l| theirs.next().is_some_and(|t| l.eq_ignore_ascii_case(t)))
            && theirs.next().is_none()
    }

    /// Append the lowercased dotted form (no trailing dot; root → `.`)
    /// to `out`, matching [`DnsName::key`].
    pub fn write_key(&self, out: &mut String) {
        key_chars(self.labels(), |c| out.push(c));
    }

    /// The name's flat bytes, borrowed from the message, when it is
    /// spelled out in place with no compression pointer — as a query's
    /// question name at offset 12 is; `None` otherwise.
    pub fn flat(&self) -> Option<NameRef<'a>> {
        let mut pos = self.start;
        loop {
            match *self.buf.get(pos)? {
                0 => return Some(NameRef { flat: &self.buf[self.start..pos] }),
                len @ 1..=0x3F => pos += 1 + len as usize,
                _ => return None,
            }
        }
    }

    /// Materialize an owned [`DnsName`].
    pub fn to_owned(&self) -> DnsName {
        self.to_buf().freeze()
    }

    /// Spell the name out on the stack, pointers followed. Views are
    /// only handed out for names that passed [`DnsName::skip_at`], whose
    /// labels always fit; a label that did not would be left out.
    pub fn to_buf(&self) -> NameBuf {
        let mut buf = NameBuf::new();
        for label in self.labels() {
            let _ = buf.push_label(label);
        }
        buf
    }
}

impl fmt::Display for NameView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_labels(self.labels(), f)
    }
}

/// Compression-aware iterator over the labels of a [`NameView`].
///
/// Malformed structure (which parsing already rejects) terminates the
/// iteration instead of panicking.
#[derive(Debug, Clone)]
pub struct LabelIter<'a> {
    buf: &'a [u8],
    pos: usize,
    hops: usize,
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            let len_byte = *self.buf.get(self.pos)?;
            match len_byte & 0xC0 {
                0x00 => {
                    if len_byte == 0 {
                        return None;
                    }
                    let start = self.pos + 1;
                    let end = start + len_byte as usize;
                    let label = self.buf.get(start..end)?;
                    self.pos = end;
                    return Some(label);
                }
                0xC0 => {
                    let second = *self.buf.get(self.pos + 1)?;
                    let target = (((len_byte & 0x3F) as usize) << 8) | second as usize;
                    if target >= self.pos || self.hops >= MAX_POINTER_HOPS {
                        return None;
                    }
                    self.hops += 1;
                    self.pos = target;
                }
                _ => return None,
            }
        }
    }
}

/// One record's RDATA where it lies: a buffer and the RDATA's range in
/// it, names inside resolving against the whole buffer — a reply's
/// ([`RecordView::rdata_view`]), or a zone's record after its owner name.
#[derive(Debug, Clone, Copy)]
pub struct RdataView<'a> {
    buf: &'a [u8],
    start: usize,
    end: usize,
}

impl<'a> RdataView<'a> {
    /// The RDATA at `start..end` of `buf`, cut at the buffer's end.
    pub fn new(buf: &'a [u8], (start, end): (usize, usize)) -> RdataView<'a> {
        let end = end.min(buf.len());
        RdataView { buf, start: start.min(end), end }
    }

    /// The RDATA bytes.
    pub fn bytes(&self) -> &'a [u8] {
        &self.buf[self.start..self.end]
    }

    /// The name at `offset` into the RDATA, pointers followed, and the
    /// offset after it; `None` unless a valid name starts there and ends
    /// inside the RDATA.
    pub fn name_at(&self, offset: usize) -> Option<(NameView<'a>, usize)> {
        let at = self.start.checked_add(offset)?;
        let next = DnsName::skip_at(&self.buf[..self.end], at).ok()?;
        Some((NameView { buf: self.buf, start: at }, next - self.start))
    }
}

/// The fixed fields of one question-section entry.
#[derive(Debug, Clone, Copy)]
struct QuestionMeta {
    name_off: usize,
    qtype: u16,
    qclass: u16,
}

/// How a reader steps over the name at `pos`: [`DnsName::skip_at`]
/// validates it, [`skip_in_place`] trusts a validated message.
type SkipName = fn(&[u8], usize) -> Result<usize, WireError>;

/// Where the name at `pos` ends in place — after its root octet or its
/// first pointer — in a message [`MessageView::parse`] has validated:
/// the labels are stepped over, a pointer is not followed. Bounds are
/// still checked and the offset only grows, so other bytes give an
/// error or a wrong end, never a panic or a loop.
pub(crate) fn skip_in_place(buf: &[u8], mut pos: usize) -> Result<usize, WireError> {
    loop {
        match *buf.get(pos).ok_or(WireError::Truncated { context: "name label length" })? {
            0 => return Ok(pos + 1),
            len @ 1..=0x3F => pos += 1 + len as usize,
            0xC0..=0xFF if pos + 2 <= buf.len() => return Ok(pos + 2),
            _ => return Err(WireError::Truncated { context: "name label" }),
        }
    }
}

impl QuestionMeta {
    /// Validate the entry at `pos`; returns it and the offset after it.
    fn read_at(buf: &[u8], pos: usize) -> Result<(QuestionMeta, usize), WireError> {
        QuestionMeta::read_with(buf, pos, DnsName::skip_at)
    }

    /// Read the entry at `pos` of a validated message again.
    fn reread_at(buf: &[u8], pos: usize) -> Result<(QuestionMeta, usize), WireError> {
        QuestionMeta::read_with(buf, pos, skip_in_place)
    }

    fn read_with(
        buf: &[u8],
        pos: usize,
        skip: SkipName,
    ) -> Result<(QuestionMeta, usize), WireError> {
        let fixed = skip(buf, pos)?;
        let qtype = read_u16_at(buf, fixed, "question type")?;
        let qclass = read_u16_at(buf, fixed + 2, "question class")?;
        Ok((QuestionMeta { name_off: pos, qtype, qclass }, fixed + 4))
    }
}

/// The fixed fields of one resource record: where the owner name
/// starts and where the RDATA subrange lies.
#[derive(Debug, Clone, Copy)]
struct RecordMeta {
    name_off: usize,
    rtype: u16,
    class: u16,
    ttl: u32,
    rd_start: usize,
    rd_end: usize,
}

impl RecordMeta {
    /// Validate the record at `pos` (owner-name structure, fixed fields,
    /// `RDLENGTH` within the buffer); returns it and the offset after it.
    fn read_at(buf: &[u8], pos: usize) -> Result<(RecordMeta, usize), WireError> {
        RecordMeta::read_with(buf, pos, DnsName::skip_at)
    }

    /// Read the record at `pos` of a validated message again.
    fn reread_at(buf: &[u8], pos: usize) -> Result<(RecordMeta, usize), WireError> {
        RecordMeta::read_with(buf, pos, skip_in_place)
    }

    fn read_with(buf: &[u8], pos: usize, skip: SkipName) -> Result<(RecordMeta, usize), WireError> {
        let fixed = skip(buf, pos)?;
        let rtype = read_u16_at(buf, fixed, "record type")?;
        let class = read_u16_at(buf, fixed + 2, "record class")?;
        let ttl = read_u32_at(buf, fixed + 4, "record ttl")?;
        let rdlen = read_u16_at(buf, fixed + 8, "rdlength")? as usize;
        let rd_start = fixed + 10;
        let rd_end = rd_start + rdlen;
        if rd_end > buf.len() {
            return Err(WireError::Truncated { context: "rdata" });
        }
        Ok((RecordMeta { name_off: pos, rtype, class, ttl, rd_start, rd_end }, rd_end))
    }
}

/// Lazy walk over `left` consecutive entries starting at `pos`, in bytes
/// [`MessageView::parse`] has already accepted — so names are stepped
/// over in place (`reread_at`), which cannot fail here; if it did the
/// walk would end instead of panicking.
fn walk<'a, M>(
    buf: &'a [u8],
    mut pos: usize,
    mut left: usize,
    read_at: impl Fn(&[u8], usize) -> Result<(M, usize), WireError> + 'a,
) -> impl Iterator<Item = M> + 'a {
    std::iter::from_fn(move || {
        left = left.checked_sub(1)?;
        let (meta, next) = read_at(buf, pos).ok()?;
        pos = next;
        Some(meta)
    })
}

/// Borrowed view of one question-section entry.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    buf: &'a [u8],
    meta: QuestionMeta,
}

impl<'a> QuestionView<'a> {
    /// The queried name, borrowed.
    pub fn name(&self) -> NameView<'a> {
        NameView { buf: self.buf, start: self.meta.name_off }
    }

    /// The queried type.
    pub fn qtype(&self) -> RecordType {
        RecordType::from_code(self.meta.qtype)
    }

    /// The queried class.
    pub fn qclass(&self) -> DnsClass {
        DnsClass::from_code(self.meta.qclass)
    }

    /// Materialize an owned [`Question`].
    pub fn to_owned(&self) -> Question {
        Question { name: self.name().to_owned(), qtype: self.qtype(), qclass: self.qclass() }
    }
}

/// Borrowed view of one resource record. The RDATA stays in the buffer
/// until [`RecordView::rdata`] decodes it.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    buf: &'a [u8],
    meta: RecordMeta,
}

impl<'a> RecordView<'a> {
    /// Re-enter the record that starts at `offset` of `message`, as
    /// [`RecordView::offset`] reported it on a view of a message
    /// [`MessageView::parse`] accepted: the owner name is stepped over
    /// in place and the fixed fields read again; nothing else of the
    /// message is walked or validated again. At another offset this
    /// fails or reads whatever lies there — it never panics.
    pub fn at(message: &'a [u8], offset: usize) -> Result<RecordView<'a>, WireError> {
        RecordMeta::reread_at(message, offset).map(|(meta, _)| RecordView { buf: message, meta })
    }

    /// Where this record starts in its message.
    pub fn offset(&self) -> usize {
        self.meta.name_off
    }

    /// The owner name, borrowed.
    pub fn name(&self) -> NameView<'a> {
        NameView { buf: self.buf, start: self.meta.name_off }
    }

    /// The record type.
    pub fn rtype(&self) -> RecordType {
        RecordType::from_code(self.meta.rtype)
    }

    /// The record class.
    pub fn class(&self) -> DnsClass {
        DnsClass::from_code(self.meta.class)
    }

    /// Time to live, seconds.
    pub fn ttl(&self) -> u32 {
        self.meta.ttl
    }

    /// Decode the typed [`RData`] on demand. This is where malformed
    /// RDATA surfaces: the parse pass only validated the subrange
    /// boundaries, not the contents.
    pub fn rdata(&self) -> Result<RData, WireError> {
        RData::decode(self.rtype(), (self.meta.rd_start, self.meta.rd_end), self.buf)
    }

    /// Whether [`RecordView::rdata`] would succeed, answered without
    /// building anything ([`RData::check`]).
    pub fn check_rdata(&self) -> Result<(), WireError> {
        RData::check(self.rtype(), (self.meta.rd_start, self.meta.rd_end), self.buf)
    }

    /// The RDATA, in place.
    pub fn rdata_view(&self) -> RdataView<'a> {
        RdataView { buf: self.buf, start: self.meta.rd_start, end: self.meta.rd_end }
    }

    /// The RDATA of an SVCB or HTTPS record, read in place
    /// ([`SvcbView::read`]): the priority and the target are located,
    /// the parameters are not checked again — for a record whose RDATA
    /// [`RecordView::check_rdata`] accepted, as the resolver's are. An
    /// error for another type or RDATA too short for a target.
    pub fn svcb(&self) -> Result<SvcbView<'a>, WireError> {
        if !matches!(self.rtype(), RecordType::Svcb | RecordType::Https) {
            return Err(WireError::InvalidValue { context: "SVCB view of another type" });
        }
        SvcbView::read(&self.buf[self.meta.rd_start..self.meta.rd_end])
            .ok_or(WireError::Truncated { context: "SVCB rdata" })
    }

    /// The `minimum` field of an SOA record — its negative-caching TTL
    /// (RFC 2308) — read off the wire after the checks
    /// [`RecordView::rdata`] makes, without building either name; an
    /// error for malformed RDATA or another type.
    pub fn soa_minimum(&self) -> Result<u32, WireError> {
        if self.rtype() != RecordType::Soa {
            return Err(WireError::InvalidValue { context: "SOA minimum of another type" });
        }
        soa_minimum((self.meta.rd_start, self.meta.rd_end), self.buf)
    }

    /// Materialize an owned [`Record`], decoding name and RDATA.
    pub fn to_owned(&self) -> Result<Record, WireError> {
        self.record_named(self.name().to_owned())
    }

    /// The owner name of a record of the reply to a question about
    /// `qname`. When the owner is exactly the pointer to the question
    /// (`0xC00C`) and the question spells `qname` byte for byte, it is a
    /// clone of `qname` — what decoding would build, spelling included —
    /// and no name is decoded.
    pub fn owner_for(&self, qname: &DnsName) -> DnsName {
        let flat = qname.wire();
        let owner_is_question = self.buf.get(self.meta.name_off..self.meta.name_off + 2)
            == Some(&[0xC0, 12][..])
            && self.buf.get(12..12 + flat.len()) == Some(flat)
            && self.buf.get(12 + flat.len()) == Some(&0);
        if owner_is_question {
            qname.clone()
        } else {
            self.name().to_owned()
        }
    }

    /// The type an RRSIG record covers — the first field of its RDATA —
    /// without decoding the rest; `None` for another type or RDATA too
    /// short to hold it.
    pub fn rrsig_covers(&self) -> Option<RecordType> {
        if self.meta.rtype != RecordType::Rrsig.code() {
            return None;
        }
        let field = self.buf.get(self.meta.rd_start..self.meta.rd_end)?.first_chunk::<2>()?;
        Some(RecordType::from_code(u16::from_be_bytes(*field)))
    }

    fn record_named(&self, name: DnsName) -> Result<Record, WireError> {
        Ok(Record {
            name,
            rtype: self.rtype(),
            class: self.class(),
            ttl: self.meta.ttl,
            rdata: self.rdata()?,
        })
    }
}

/// A lazily-decoded borrowed view over an encoded DNS message.
///
/// ```
/// use dns_wire::{DnsName, Message, MessageView, RecordType};
///
/// let query = Message::query(7, DnsName::parse("example.com").unwrap(), RecordType::Https);
/// let bytes = query.encode();
/// let view = MessageView::parse(&bytes).unwrap();
/// assert_eq!(view.id(), 7);
/// let q = view.question().unwrap();
/// assert_eq!(q.qtype(), RecordType::Https);
/// assert!(q.name().eq_name(&DnsName::parse("EXAMPLE.com").unwrap()));
/// assert_eq!(view.to_message().unwrap(), query);
/// ```
#[derive(Debug, Clone)]
pub struct MessageView<'a> {
    buf: &'a [u8],
    id: u16,
    opcode: Opcode,
    flags: Flags,
    rcode: Rcode,
    qdcount: usize,
    /// Record counts of the answer, authority and additional sections,
    /// and the offset each of them starts at (questions start at 12).
    counts: [usize; 3],
    starts: [usize; 3],
    edns: Option<Edns>,
}

fn read_u16_at(buf: &[u8], at: usize, context: &'static str) -> Result<u16, WireError> {
    match buf.get(at..at + 2) {
        Some(b) => Ok(u16::from_be_bytes([b[0], b[1]])),
        None => Err(WireError::Truncated { context }),
    }
}

fn read_u32_at(buf: &[u8], at: usize, context: &'static str) -> Result<u32, WireError> {
    match buf.get(at..at + 4) {
        Some(b) => Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]])),
        None => Err(WireError::Truncated { context }),
    }
}

impl<'a> MessageView<'a> {
    /// Parse the message structure in one pass: header fields, question
    /// and record offsets, EDNS extraction (a non-zero extended RCODE
    /// merged into the header RCODE). Names are validated but not
    /// materialized; RDATA contents are not inspected. Rejects trailing
    /// bytes.
    pub fn parse(buf: &'a [u8]) -> Result<MessageView<'a>, WireError> {
        if buf.len() < 12 {
            return Err(WireError::Truncated { context: "header" });
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let b2 = buf[2];
        let b3 = buf[3];
        let flags = Flags {
            qr: b2 & 0x80 != 0,
            aa: b2 & 0x04 != 0,
            tc: b2 & 0x02 != 0,
            rd: b2 & 0x01 != 0,
            ra: b3 & 0x80 != 0,
            ad: b3 & 0x20 != 0,
            cd: b3 & 0x10 != 0,
        };
        let opcode = Opcode::from_code((b2 >> 3) & 0x0F);
        let mut rcode = Rcode::from_code(b3 & 0x0F);
        let qdcount = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        let ancount = u16::from_be_bytes([buf[6], buf[7]]) as usize;
        let nscount = u16::from_be_bytes([buf[8], buf[9]]) as usize;
        let arcount = u16::from_be_bytes([buf[10], buf[11]]) as usize;

        let mut pos = 12;
        for _ in 0..qdcount {
            pos = QuestionMeta::read_at(buf, pos)?.1;
        }

        let counts = [ancount, nscount, arcount];
        let mut starts = [0; 3];
        let mut edns = None;
        for (section, &count) in counts.iter().enumerate() {
            starts[section] = pos;
            for _ in 0..count {
                let (meta, next) = RecordMeta::read_at(buf, pos)?;
                pos = next;
                // OPT pseudo-records in the additional section become
                // EDNS state (last one wins; a non-zero extended RCODE
                // merges with the header RCODE).
                if section == 2 && meta.rtype == RecordType::Opt.code() {
                    let e = Edns {
                        udp_payload_size: meta.class,
                        version: ((meta.ttl >> 16) & 0xFF) as u8,
                        dnssec_ok: meta.ttl & 0x8000 != 0,
                        extended_rcode: ((meta.ttl >> 24) & 0xFF) as u8,
                    };
                    if e.extended_rcode != 0 {
                        let full = ((e.extended_rcode as u16) << 4) | (rcode.code() as u16);
                        rcode = Rcode::from_code((full & 0xFF) as u8);
                    }
                    edns = Some(e);
                }
            }
        }
        if pos != buf.len() {
            return Err(WireError::TrailingBytes(buf.len() - pos));
        }
        Ok(MessageView { buf, id, opcode, flags, rcode, qdcount, counts, starts, edns })
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Operation.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// Header flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Response code, with any EDNS extended RCODE already merged.
    pub fn rcode(&self) -> Rcode {
        self.rcode
    }

    /// EDNS(0) state from the OPT pseudo-record, if present.
    pub fn edns(&self) -> Option<Edns> {
        self.edns
    }

    /// Whether the EDNS DO bit is set.
    pub fn dnssec_ok(&self) -> bool {
        self.edns.map(|e| e.dnssec_ok).unwrap_or(false)
    }

    /// Number of question-section entries.
    pub fn question_count(&self) -> usize {
        self.qdcount
    }

    /// Number of answer-section records.
    pub fn answer_count(&self) -> usize {
        self.counts[0]
    }

    /// First question, if present.
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.questions().next()
    }

    /// Iterate the question section.
    pub fn questions(&self) -> impl Iterator<Item = QuestionView<'a>> + '_ {
        let buf = self.buf;
        walk(buf, 12, self.qdcount, QuestionMeta::reread_at)
            .map(move |meta| QuestionView { buf, meta })
    }

    /// Iterate one of the three record sections.
    fn section(&self, section: usize) -> impl Iterator<Item = RecordView<'a>> + '_ {
        let buf = self.buf;
        walk(buf, self.starts[section], self.counts[section], RecordMeta::reread_at)
            .map(move |meta| RecordView { buf, meta })
    }

    /// Iterate the answer section.
    pub fn answers(&self) -> impl Iterator<Item = RecordView<'a>> + '_ {
        self.section(0)
    }

    /// Iterate the authority section.
    pub fn authorities(&self) -> impl Iterator<Item = RecordView<'a>> + '_ {
        self.section(1)
    }

    /// Iterate the additional section, excluding OPT pseudo-records
    /// (their contents are exposed via [`MessageView::edns`]).
    pub fn additionals(&self) -> impl Iterator<Item = RecordView<'a>> + '_ {
        self.section(2).filter(|r| r.meta.rtype != RecordType::Opt.code())
    }

    /// Materialize an owned [`Message`], decoding every name and RDATA:
    /// the second half of [`Message::decode`]. Fails only on malformed
    /// RDATA — the structure was validated by [`MessageView::parse`],
    /// and OPT pseudo-records are never decoded.
    pub fn to_message(&self) -> Result<Message, WireError> {
        let mut questions = Vec::with_capacity(self.qdcount);
        for q in self.questions() {
            questions.push(q.to_owned());
        }
        let mut answers = Vec::with_capacity(self.counts[0]);
        for r in self.answers() {
            answers.push(r.to_owned()?);
        }
        let mut authorities = Vec::with_capacity(self.counts[1]);
        for r in self.authorities() {
            authorities.push(r.to_owned()?);
        }
        let mut additionals = Vec::new();
        for r in self.additionals() {
            additionals.push(r.to_owned()?);
        }
        Ok(Message {
            id: self.id,
            opcode: self.opcode,
            flags: self.flags,
            rcode: self.rcode,
            questions,
            answers,
            authorities,
            additionals,
            edns: self.edns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Edns, Message};
    use crate::record::{RData, Record, SoaRdata};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn sample_response() -> Message {
        let q = Message::query_dnssec(0x4242, name("www.Example.com"), RecordType::Https);
        let mut resp = q.response();
        resp.answers.push(Record::new(
            name("www.example.com"),
            300,
            RData::Cname(name("example.com")),
        ));
        resp.answers.push(Record::new(
            name("example.com"),
            60,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        resp.authorities.push(Record::new(
            name("example.com"),
            3600,
            RData::Soa(SoaRdata {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 60,
            }),
        ));
        resp.additionals.push(Record::new(
            name("ns1.example.com"),
            300,
            RData::A(Ipv4Addr::new(5, 6, 7, 8)),
        ));
        resp
    }

    #[test]
    fn view_matches_owned_decode() {
        let buf = sample_response().encode();
        let view = MessageView::parse(&buf).unwrap();
        assert_eq!(view.to_message().unwrap(), sample_response());
    }

    #[test]
    fn header_fields_without_decoding() {
        let buf = sample_response().encode();
        let view = MessageView::parse(&buf).unwrap();
        assert_eq!(view.id(), 0x4242);
        assert!(view.flags().qr);
        assert_eq!(view.rcode(), Rcode::NoError);
        assert!(view.dnssec_ok());
        assert_eq!(view.question_count(), 1);
        assert_eq!(view.answer_count(), 2);
        assert_eq!(view.authorities().count(), 1);
        assert_eq!(view.additionals().count(), 1);
    }

    #[test]
    fn name_view_labels_follow_compression() {
        let buf = sample_response().encode();
        let view = MessageView::parse(&buf).unwrap();
        // Second answer's owner was compressed against the question name.
        let second = view.answers().nth(1).unwrap();
        let labels: Vec<&[u8]> = second.name().labels().collect();
        assert_eq!(labels, vec![&b"Example"[..], &b"com"[..]]);
        assert!(second.name().eq_name(&name("example.COM")));
        assert!(!second.name().eq_name(&name("example.org")));
        assert!(!second.name().eq_name(&name("www.example.com")));
        assert_eq!(second.name().to_owned(), name("example.com"));
    }

    #[test]
    fn rdata_decoded_on_demand() {
        let buf = sample_response().encode();
        let view = MessageView::parse(&buf).unwrap();
        let first = view.answers().next().unwrap();
        assert_eq!(first.rtype(), RecordType::Cname);
        assert_eq!(first.rdata().unwrap(), RData::Cname(name("example.com")));
        let soa = view.authorities().next().unwrap();
        match soa.rdata().unwrap() {
            RData::Soa(s) => assert_eq!(s.minimum, 60),
            other => panic!("expected SOA, got {other:?}"),
        }
    }

    #[test]
    fn bad_rdata_surfaces_lazily() {
        // An A record with 3-byte RDATA: structurally fine (the range is
        // in bounds) but semantically invalid.
        let mut q = Message::query(1, name("x.com"), RecordType::A);
        q.edns = None; // keep the appended answer the only record
        let mut buf = q.encode();
        // Append a hand-built answer record and bump ANCOUNT.
        buf[7] = 1;
        buf.extend_from_slice(&[0xC0, 12]); // name: pointer to the question
        buf.extend_from_slice(&1u16.to_be_bytes()); // type A
        buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        buf.extend_from_slice(&60u32.to_be_bytes()); // ttl
        buf.extend_from_slice(&3u16.to_be_bytes()); // rdlength
        buf.extend_from_slice(&[1, 2, 3]);
        let view = MessageView::parse(&buf).unwrap();
        let rec = view.answers().next().unwrap();
        assert!(rec.rdata().is_err());
        assert!(view.to_message().is_err());
        assert!(Message::decode(&buf).is_err());
    }

    #[test]
    fn structural_errors_rejected_at_parse() {
        let buf = sample_response().encode();
        for cut in 0..buf.len() {
            assert!(MessageView::parse(&buf[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        assert_eq!(MessageView::parse(&trailing).unwrap_err(), WireError::TrailingBytes(1));
    }

    #[test]
    fn name_view_renders_key_and_canonical_wire() {
        let buf = sample_response().encode();
        let view = MessageView::parse(&buf).unwrap();
        let qname = view.question().unwrap().name();
        let mut key = String::new();
        qname.write_key(&mut key);
        assert_eq!(key, "www.example.com");
        assert_eq!(qname.to_owned(), name("www.example.com"));
        assert_eq!(qname.to_string(), "www.Example.com.");
    }

    #[test]
    fn edns_extended_rcode_merged() {
        let q = Message::query(9, name("a.com"), RecordType::A);
        let mut resp = q.response();
        resp.rcode = Rcode::Other(5);
        resp.edns = Some(Edns { extended_rcode: 1, ..Default::default() });
        let buf = resp.encode();
        let view = MessageView::parse(&buf).unwrap();
        assert_eq!(view.rcode(), Rcode::from_code(0x15));
    }

    #[test]
    fn root_name_view() {
        let q = Message::query(3, DnsName::root(), RecordType::Ns);
        let buf = q.encode();
        let view = MessageView::parse(&buf).unwrap();
        let qname = view.question().unwrap().name();
        assert!(qname.is_root());
        assert_eq!(qname.label_count(), 0);
        let mut key = String::new();
        qname.write_key(&mut key);
        assert_eq!(key, ".");
        assert_eq!(qname.to_string(), ".");
    }
}
