//! DNS messages: header flags, questions, sections, EDNS(0), full codec.

use crate::error::WireError;
use crate::name::{DnsName, NameKey};
use crate::record::{DnsClass, RData, Record, RecordType};
use crate::view::MessageView;
use crate::wire::WireWriter;
use std::fmt;

/// Response codes (RCODE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure (also used for DNSSEC validation failure).
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
    /// Any other code.
    Other(u8),
}

impl Rcode {
    /// Numeric code (low 4 bits).
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c,
        }
    }

    /// From a numeric code.
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Other(c) => write!(f, "RCODE{c}"),
        }
    }
}

/// Operation codes (OPCODE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status.
    Status,
    /// Zone change notification.
    Notify,
    /// Dynamic update.
    Update,
    /// Anything else.
    Other(u8),
}

impl Opcode {
    /// Numeric opcode.
    pub fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Other(c) => c,
        }
    }

    /// From a numeric opcode.
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Other(other),
        }
    }
}

/// Header flag bits (RFC 1035 §4.1.1 + RFC 3655 AD/CD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Query (false) or response (true).
    pub qr: bool,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authenticated data: the resolver validated the DNSSEC chain.
    pub ad: bool,
    /// Checking disabled: client asks resolver not to validate.
    pub cd: bool,
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Name queried.
    pub name: DnsName,
    /// Type queried.
    pub qtype: RecordType,
    /// Class queried.
    pub qclass: DnsClass,
}

impl Question {
    /// Convenience IN-class question.
    pub fn new(name: DnsName, qtype: RecordType) -> Self {
        Question { name, qtype, qclass: DnsClass::In }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.qclass, self.qtype)
    }
}

/// EDNS(0) state extracted from / rendered to an OPT pseudo-record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edns {
    /// Advertised UDP payload size.
    pub udp_payload_size: u16,
    /// EDNS version (0).
    pub version: u8,
    /// DNSSEC OK: requester wants DNSSEC records in the response.
    pub dnssec_ok: bool,
    /// Extended RCODE high bits (combined with header RCODE).
    pub extended_rcode: u8,
}

impl Default for Edns {
    fn default() -> Self {
        Edns { udp_payload_size: 1232, version: 0, dnssec_ok: false, extended_rcode: 0 }
    }
}

impl Edns {
    /// EDNS with the DO bit set (a validating resolver's default).
    pub fn dnssec() -> Self {
        Edns { dnssec_ok: true, ..Default::default() }
    }

    fn to_record(self) -> Record {
        // OPT: name = root, class = udp size, ttl = ext-rcode/version/flags.
        let ttl = ((self.extended_rcode as u32) << 24)
            | ((self.version as u32) << 16)
            | if self.dnssec_ok { 0x8000 } else { 0 };
        Record {
            name: DnsName::root(),
            rtype: RecordType::Opt,
            class: DnsClass::Unknown(self.udp_payload_size),
            ttl,
            rdata: RData::Opt(Vec::new()),
        }
    }
}

/// A full DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Operation.
    pub opcode: Opcode,
    /// Header flags.
    pub flags: Flags,
    /// Response code (4-bit header part; extended via EDNS).
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (excluding the OPT pseudo-record).
    pub additionals: Vec<Record>,
    /// EDNS(0) state, rendered as an OPT record on encode.
    pub edns: Option<Edns>,
}

impl Message {
    /// A recursive-desired query for one question.
    pub fn query(id: u16, name: DnsName, qtype: RecordType) -> Self {
        Message {
            id,
            opcode: Opcode::Query,
            flags: Flags { rd: true, ..Default::default() },
            rcode: Rcode::NoError,
            questions: vec![Question::new(name, qtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: Some(Edns::default()),
        }
    }

    /// A query with the EDNS DO bit set (asks for RRSIGs).
    pub fn query_dnssec(id: u16, name: DnsName, qtype: RecordType) -> Self {
        let mut m = Message::query(id, name, qtype);
        m.edns = Some(Edns::dnssec());
        m
    }

    /// Start a response to this query, copying id/question and setting QR.
    pub fn response(&self) -> Message {
        Message {
            id: self.id,
            opcode: self.opcode,
            flags: Flags { qr: true, rd: self.flags.rd, ra: true, ..Default::default() },
            rcode: Rcode::NoError,
            questions: self.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: self.edns.map(|e| Edns { dnssec_ok: e.dnssec_ok, ..Default::default() }),
        }
    }

    /// Whether the requester set the EDNS DO bit.
    pub fn dnssec_ok(&self) -> bool {
        self.edns.map(|e| e.dnssec_ok).unwrap_or(false)
    }

    /// First question, if present.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// All answer records of a given type.
    pub fn answers_of(&self, rtype: RecordType) -> Vec<&Record> {
        self.answers.iter().filter(|r| r.rtype == rtype).collect()
    }

    /// Encode to wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u16(self.id);
        let mut b2: u8 = 0;
        if self.flags.qr {
            b2 |= 0x80;
        }
        b2 |= (self.opcode.code() & 0x0F) << 3;
        if self.flags.aa {
            b2 |= 0x04;
        }
        if self.flags.tc {
            b2 |= 0x02;
        }
        if self.flags.rd {
            b2 |= 0x01;
        }
        w.put_u8(b2);
        let mut b3: u8 = 0;
        if self.flags.ra {
            b3 |= 0x80;
        }
        if self.flags.ad {
            b3 |= 0x20;
        }
        if self.flags.cd {
            b3 |= 0x10;
        }
        b3 |= self.rcode.code() & 0x0F;
        w.put_u8(b3);
        w.put_u16(self.questions.len() as u16);
        w.put_u16(self.answers.len() as u16);
        w.put_u16(self.authorities.len() as u16);
        let arcount = self.additionals.len() + usize::from(self.edns.is_some());
        w.put_u16(arcount as u16);
        for q in &self.questions {
            w.put_name(&q.name);
            w.put_u16(q.qtype.code());
            w.put_u16(q.qclass.code());
        }
        for rec in self.answers.iter().chain(&self.authorities).chain(&self.additionals) {
            rec.encode(&mut w);
        }
        if let Some(edns) = self.edns {
            edns.to_record().encode(&mut w);
        }
        w.into_bytes()
    }

    /// Decode from wire format: the borrowed view's parse, then every
    /// name and RDATA materialized. Rejects trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        MessageView::parse(buf)?.to_message()
    }
}

/// Write the query [`Message::query_dnssec`]`(id, name, qtype)` into
/// `out`, which is cleared first: exactly the bytes its
/// [`Message::encode`] makes, written without building the message — a
/// sender that reuses `out` writes every query in place.
pub fn write_dnssec_query(
    out: &mut Vec<u8>,
    id: u16,
    name: &(impl NameKey + ?Sized),
    qtype: RecordType,
) {
    out.clear();
    out.extend_from_slice(&id.to_be_bytes());
    // RD alone; one question, no answer or authority, the OPT record.
    out.extend_from_slice(&[0x01, 0, 0, 1, 0, 0, 0, 0, 0, 1]);
    // The question name is the first in the message: nothing to point at.
    out.extend_from_slice(name.name_ref().flat);
    out.push(0);
    out.extend_from_slice(&qtype.code().to_be_bytes());
    out.extend_from_slice(&DnsClass::In.code().to_be_bytes());
    // OPT: root owner, `Edns::dnssec()`'s payload size, the DO bit, no
    // options.
    out.push(0);
    out.extend_from_slice(&RecordType::Opt.code().to_be_bytes());
    out.extend_from_slice(&Edns::dnssec().udp_payload_size.to_be_bytes());
    out.extend_from_slice(&0x8000u32.to_be_bytes());
    out.extend_from_slice(&[0, 0]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(0x1234, name("a.com"), RecordType::Https);
        let buf = q.encode();
        let back = Message::decode(&buf).unwrap();
        assert_eq!(back, q);
        assert!(back.flags.rd);
        assert!(!back.flags.qr);
        assert_eq!(back.question().unwrap().qtype, RecordType::Https);
    }

    #[test]
    fn dnssec_query_sets_do_bit() {
        let q = Message::query_dnssec(7, name("a.com"), RecordType::Https);
        let back = Message::decode(&q.encode()).unwrap();
        assert!(back.dnssec_ok());
    }

    #[test]
    fn response_round_trip_with_sections() {
        let q = Message::query(1, name("a.com"), RecordType::A);
        let mut resp = q.response();
        resp.answers.push(Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(1, 2, 3, 4))));
        resp.authorities.push(Record::new(name("a.com"), 300, RData::Ns(name("ns1.a.com"))));
        resp.additionals.push(Record::new(
            name("ns1.a.com"),
            300,
            RData::A(Ipv4Addr::new(5, 6, 7, 8)),
        ));
        resp.flags.ad = true;
        let back = Message::decode(&resp.encode()).unwrap();
        assert_eq!(back, resp);
        assert!(back.flags.qr);
        assert!(back.flags.ad);
        assert_eq!(back.answers.len(), 1);
        assert_eq!(back.authorities.len(), 1);
        assert_eq!(back.additionals.len(), 1);
    }

    #[test]
    fn rcode_round_trip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
        ] {
            let q = Message::query(9, name("x.com"), RecordType::A);
            let mut resp = q.response();
            resp.rcode = rc;
            assert_eq!(Message::decode(&resp.encode()).unwrap().rcode, rc);
        }
    }

    #[test]
    fn edns_round_trip() {
        let mut q = Message::query(2, name("a.com"), RecordType::Https);
        q.edns =
            Some(Edns { udp_payload_size: 4096, version: 0, dnssec_ok: true, extended_rcode: 0 });
        let back = Message::decode(&q.encode()).unwrap();
        assert_eq!(back.edns.unwrap().udp_payload_size, 4096);
        assert!(back.edns.unwrap().dnssec_ok);
    }

    #[test]
    fn no_edns_when_absent() {
        let mut q = Message::query(3, name("a.com"), RecordType::A);
        q.edns = None;
        let back = Message::decode(&q.encode()).unwrap();
        assert!(back.edns.is_none());
    }

    #[test]
    fn truncated_message_rejected() {
        let q = Message::query(4, name("a.com"), RecordType::A);
        let buf = q.encode();
        for cut in 0..buf.len() {
            assert!(Message::decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let q = Message::query(5, name("a.com"), RecordType::A);
        let mut buf = q.encode();
        buf.push(0);
        assert_eq!(Message::decode(&buf), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn ad_and_cd_bits() {
        let q = Message::query(6, name("a.com"), RecordType::Https);
        let mut resp = q.response();
        resp.flags.ad = true;
        resp.flags.cd = true;
        let back = Message::decode(&resp.encode()).unwrap();
        assert!(back.flags.ad && back.flags.cd);
    }

    #[test]
    fn compression_shrinks_response() {
        let q = Message::query(8, name("www.verylongdomainname.example"), RecordType::A);
        let mut resp = q.response();
        for i in 0..4 {
            resp.answers.push(Record::new(
                name("www.verylongdomainname.example"),
                300,
                RData::A(Ipv4Addr::new(10, 0, 0, i)),
            ));
        }
        let buf = resp.encode();
        let uncompressed_estimate = resp.questions[0].name.wire_len() * 5;
        assert!(buf.len() < 12 + uncompressed_estimate + 4 * 14 + 11 + 10);
        assert_eq!(Message::decode(&buf).unwrap(), resp);
    }
}
