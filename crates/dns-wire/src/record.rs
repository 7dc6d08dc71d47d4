//! Resource records: type/class registries, typed RDATA, wire codec.

use crate::error::WireError;
use crate::name::DnsName;
use crate::svcb::{character_strings, SvcbRdata, SvcbView};
use crate::view::RdataView;
use crate::wire::{WireReader, WireWriter};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNS record types used in this workspace (numeric values per IANA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 address.
    A,
    /// Name server.
    Ns,
    /// Canonical name (alias of the whole name).
    Cname,
    /// Start of authority.
    Soa,
    /// Pointer (reverse lookups).
    Ptr,
    /// Mail exchange.
    Mx,
    /// Text.
    Txt,
    /// IPv6 address.
    Aaaa,
    /// Service location (RFC 2782).
    Srv,
    /// Subtree redirection (RFC 6672).
    Dname,
    /// EDNS(0) pseudo-record (RFC 6891).
    Opt,
    /// Delegation signer (DNSSEC).
    Ds,
    /// Resource record signature (DNSSEC).
    Rrsig,
    /// Public key (DNSSEC).
    Dnskey,
    /// General-purpose service binding (RFC 9460).
    Svcb,
    /// HTTPS-specific service binding (RFC 9460).
    Https,
    /// Any type not modelled explicitly.
    Unknown(u16),
}

impl RecordType {
    /// Numeric type code.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Srv => 33,
            RecordType::Dname => 39,
            RecordType::Opt => 41,
            RecordType::Ds => 43,
            RecordType::Rrsig => 46,
            RecordType::Dnskey => 48,
            RecordType::Svcb => 64,
            RecordType::Https => 65,
            RecordType::Unknown(code) => code,
        }
    }

    /// Map a numeric type code to a variant.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            33 => RecordType::Srv,
            39 => RecordType::Dname,
            41 => RecordType::Opt,
            43 => RecordType::Ds,
            46 => RecordType::Rrsig,
            48 => RecordType::Dnskey,
            64 => RecordType::Svcb,
            65 => RecordType::Https,
            other => RecordType::Unknown(other),
        }
    }

    /// Presentation mnemonic (`A`, `HTTPS`, `TYPE1234`, …).
    pub fn mnemonic(self) -> String {
        match self {
            RecordType::A => "A".into(),
            RecordType::Ns => "NS".into(),
            RecordType::Cname => "CNAME".into(),
            RecordType::Soa => "SOA".into(),
            RecordType::Ptr => "PTR".into(),
            RecordType::Mx => "MX".into(),
            RecordType::Txt => "TXT".into(),
            RecordType::Aaaa => "AAAA".into(),
            RecordType::Srv => "SRV".into(),
            RecordType::Dname => "DNAME".into(),
            RecordType::Opt => "OPT".into(),
            RecordType::Ds => "DS".into(),
            RecordType::Rrsig => "RRSIG".into(),
            RecordType::Dnskey => "DNSKEY".into(),
            RecordType::Svcb => "SVCB".into(),
            RecordType::Https => "HTTPS".into(),
            RecordType::Unknown(code) => format!("TYPE{code}"),
        }
    }

    /// Where the domain names lie in RDATA of this type: the octets
    /// before the first name, and how many names follow it one after
    /// another; `(0, 0)` for a type that holds none. These are the names
    /// a message may compress, so a reader expands them, and the ones
    /// canonical form lowercases (RFC 4034 §6.2; the RRSIG signer too,
    /// RFC 6840 §5.1). An SVCB or HTTPS target is not listed: RFC 9460
    /// §2.2 forbids compressing it, so its bytes are the name.
    pub fn rdata_names(self) -> (usize, usize) {
        match self {
            RecordType::Ns | RecordType::Cname | RecordType::Ptr | RecordType::Dname => (0, 1),
            RecordType::Mx => (2, 1),
            RecordType::Srv => (6, 1),
            RecordType::Soa => (0, 2),
            RecordType::Rrsig => (18, 1),
            _ => (0, 0),
        }
    }

    /// Parse a presentation mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        let up = s.to_ascii_uppercase();
        Some(match up.as_str() {
            "A" => RecordType::A,
            "NS" => RecordType::Ns,
            "CNAME" => RecordType::Cname,
            "SOA" => RecordType::Soa,
            "PTR" => RecordType::Ptr,
            "MX" => RecordType::Mx,
            "TXT" => RecordType::Txt,
            "AAAA" => RecordType::Aaaa,
            "SRV" => RecordType::Srv,
            "DNAME" => RecordType::Dname,
            "OPT" => RecordType::Opt,
            "DS" => RecordType::Ds,
            "RRSIG" => RecordType::Rrsig,
            "DNSKEY" => RecordType::Dnskey,
            "SVCB" => RecordType::Svcb,
            "HTTPS" => RecordType::Https,
            other => {
                let code: u16 = other.strip_prefix("TYPE")?.parse().ok()?;
                RecordType::from_code(code)
            }
        })
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// DNS class. Only IN is used operationally; others round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsClass {
    /// Internet.
    In,
    /// Chaos.
    Ch,
    /// Hesiod.
    Hs,
    /// QCLASS ANY.
    Any,
    /// Unmodelled class.
    Unknown(u16),
}

impl DnsClass {
    /// Numeric class code.
    pub fn code(self) -> u16 {
        match self {
            DnsClass::In => 1,
            DnsClass::Ch => 3,
            DnsClass::Hs => 4,
            DnsClass::Any => 255,
            DnsClass::Unknown(code) => code,
        }
    }

    /// Map a numeric class code to a variant.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => DnsClass::In,
            3 => DnsClass::Ch,
            4 => DnsClass::Hs,
            255 => DnsClass::Any,
            other => DnsClass::Unknown(other),
        }
    }

    /// Parse a presentation mnemonic (`IN`, `CH`, `HS`, `ANY`, or the
    /// RFC 3597 `CLASSnnn` form); the inverse of [`fmt::Display`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        let up = s.to_ascii_uppercase();
        Some(match up.as_str() {
            "IN" => DnsClass::In,
            "CH" => DnsClass::Ch,
            "HS" => DnsClass::Hs,
            "ANY" => DnsClass::Any,
            other => DnsClass::from_code(other.strip_prefix("CLASS")?.parse().ok()?),
        })
    }
}

impl fmt::Display for DnsClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsClass::In => write!(f, "IN"),
            DnsClass::Ch => write!(f, "CH"),
            DnsClass::Hs => write!(f, "HS"),
            DnsClass::Any => write!(f, "ANY"),
            DnsClass::Unknown(code) => write!(f, "CLASS{code}"),
        }
    }
}

/// SOA RDATA fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaRdata {
    /// Primary name server.
    pub mname: DnsName,
    /// Responsible mailbox, encoded as a name.
    pub rname: DnsName,
    /// Zone serial number.
    pub serial: u32,
    /// Refresh interval (seconds).
    pub refresh: u32,
    /// Retry interval (seconds).
    pub retry: u32,
    /// Expire limit (seconds).
    pub expire: u32,
    /// Negative-caching TTL (seconds).
    pub minimum: u32,
}

/// SRV RDATA fields (RFC 2782).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrvRdata {
    /// Priority (lower preferred).
    pub priority: u16,
    /// Weight for equal-priority selection.
    pub weight: u16,
    /// Service port.
    pub port: u16,
    /// Target host.
    pub target: DnsName,
}

/// RRSIG RDATA fields (RFC 4034 §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrsigRdata {
    /// Type of the RRset covered by this signature.
    pub type_covered: RecordType,
    /// Signature algorithm number.
    pub algorithm: u8,
    /// Number of labels in the original owner name.
    pub labels: u8,
    /// Original TTL of the covered RRset.
    pub original_ttl: u32,
    /// Signature expiration (absolute seconds).
    pub expiration: u32,
    /// Signature inception (absolute seconds).
    pub inception: u32,
    /// Key tag of the signing DNSKEY.
    pub key_tag: u16,
    /// Name of the zone that signed.
    pub signer: DnsName,
    /// Signature bytes.
    pub signature: Vec<u8>,
}

/// DNSKEY RDATA fields (RFC 4034 §2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnskeyRdata {
    /// Flags; bit 7 = Zone Key, bit 15 = SEP (KSK).
    pub flags: u16,
    /// Always 3 for DNSSEC.
    pub protocol: u8,
    /// Algorithm number.
    pub algorithm: u8,
    /// Public key bytes.
    pub public_key: Vec<u8>,
}

/// RFC 4034 Appendix B key tag of DNSKEY RDATA in wire form: the RDATA
/// summed as big-endian 16-bit words, the carry folded in once.
pub fn key_tag(dnskey_rdata: &[u8]) -> u16 {
    let word = |w: &[u8]| u32::from(w[0]) << 8 | u32::from(w.get(1).copied().unwrap_or(0));
    let mut acc: u32 = dnskey_rdata.chunks(2).map(word).sum();
    acc += (acc >> 16) & 0xFFFF;
    (acc & 0xFFFF) as u16
}

/// DS RDATA fields (RFC 4034 §5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsRdata {
    /// Key tag of the referenced DNSKEY.
    pub key_tag: u16,
    /// Algorithm of the referenced DNSKEY.
    pub algorithm: u8,
    /// Digest algorithm number.
    pub digest_type: u8,
    /// Digest of the DNSKEY.
    pub digest: Vec<u8>,
}

/// Typed RDATA for every record type the workspace understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Alias target.
    Cname(DnsName),
    /// Subtree redirection target.
    Dname(DnsName),
    /// Authoritative name server.
    Ns(DnsName),
    /// Reverse pointer.
    Ptr(DnsName),
    /// Mail exchange (preference, host).
    Mx(u16, DnsName),
    /// Text strings.
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa(SoaRdata),
    /// Service location.
    Srv(SrvRdata),
    /// General service binding.
    Svcb(SvcbRdata),
    /// HTTPS service binding.
    Https(SvcbRdata),
    /// Resource record signature.
    Rrsig(RrsigRdata),
    /// DNSSEC public key.
    Dnskey(DnskeyRdata),
    /// Delegation signer.
    Ds(DsRdata),
    /// EDNS(0) options (opaque option list).
    Opt(Vec<u8>),
    /// Opaque RDATA of an unmodelled type.
    Unknown(Vec<u8>),
}

impl RData {
    /// The record type corresponding to this RDATA (for `Unknown`, the
    /// caller's record carries the real type; this returns `TYPE0`).
    pub fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Cname(_) => RecordType::Cname,
            RData::Dname(_) => RecordType::Dname,
            RData::Ns(_) => RecordType::Ns,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Mx(..) => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Soa(_) => RecordType::Soa,
            RData::Srv(_) => RecordType::Srv,
            RData::Svcb(_) => RecordType::Svcb,
            RData::Https(_) => RecordType::Https,
            RData::Rrsig(_) => RecordType::Rrsig,
            RData::Dnskey(_) => RecordType::Dnskey,
            RData::Ds(_) => RecordType::Ds,
            RData::Opt(_) => RecordType::Opt,
            RData::Unknown(_) => RecordType::Unknown(0),
        }
    }

    /// Encode RDATA bytes (without the RDLENGTH prefix). Names inside
    /// RDATA are written uncompressed — required for SVCB/HTTPS and the
    /// safe modern default for all types (RFC 3597 §4).
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            RData::A(a) => w.put_bytes(&a.octets()),
            RData::Aaaa(a) => w.put_bytes(&a.octets()),
            RData::Cname(n) | RData::Dname(n) | RData::Ns(n) | RData::Ptr(n) => {
                w.put_name_uncompressed(n)
            }
            RData::Mx(pref, host) => {
                w.put_u16(*pref);
                w.put_name_uncompressed(host);
            }
            RData::Txt(strings) => {
                for s in strings {
                    w.put_u8(s.len().min(255) as u8);
                    w.put_bytes(&s[..s.len().min(255)]);
                }
            }
            RData::Soa(soa) => {
                w.put_name_uncompressed(&soa.mname);
                w.put_name_uncompressed(&soa.rname);
                w.put_u32(soa.serial);
                w.put_u32(soa.refresh);
                w.put_u32(soa.retry);
                w.put_u32(soa.expire);
                w.put_u32(soa.minimum);
            }
            RData::Srv(srv) => {
                w.put_u16(srv.priority);
                w.put_u16(srv.weight);
                w.put_u16(srv.port);
                w.put_name_uncompressed(&srv.target);
            }
            RData::Svcb(rd) | RData::Https(rd) => rd.encode(w),
            RData::Rrsig(sig) => {
                w.put_u16(sig.type_covered.code());
                w.put_u8(sig.algorithm);
                w.put_u8(sig.labels);
                w.put_u32(sig.original_ttl);
                w.put_u32(sig.expiration);
                w.put_u32(sig.inception);
                w.put_u16(sig.key_tag);
                w.put_name_uncompressed(&sig.signer);
                w.put_bytes(&sig.signature);
            }
            RData::Dnskey(key) => {
                w.put_u16(key.flags);
                w.put_u8(key.protocol);
                w.put_u8(key.algorithm);
                w.put_bytes(&key.public_key);
            }
            RData::Ds(ds) => {
                w.put_u16(ds.key_tag);
                w.put_u8(ds.algorithm);
                w.put_u8(ds.digest_type);
                w.put_bytes(&ds.digest);
            }
            RData::Opt(bytes) | RData::Unknown(bytes) => w.put_bytes(bytes),
        }
    }

    /// Decode RDATA of the given type from exactly `rdata`. Names inside
    /// compressed messages may point into `whole_message`; when decoding a
    /// standalone RDATA buffer pass the RDATA itself as the whole message.
    /// The RDATA are checked ([`RData::check`], where every acceptance
    /// rule lives), then built from the checked bytes.
    pub fn decode(
        rtype: RecordType,
        rdata_range: (usize, usize),
        whole_message: &[u8],
    ) -> Result<RData, WireError> {
        RData::check(rtype, rdata_range, whole_message)?;
        RData::from_checked(rtype, RdataView::new(whole_message, rdata_range))
            .ok_or(WireError::Truncated { context: "rdata" })
    }

    /// Build RDATA that [`RData::check`] accepted: fields are read at
    /// their offsets and names where [`RecordType::rdata_names`] puts
    /// them. `None` only for bytes the check refuses.
    fn from_checked(rtype: RecordType, rdata: RdataView<'_>) -> Option<RData> {
        let bytes = rdata.bytes();
        let u16_at = |at: usize| bytes.get(at..)?.first_chunk().map(|b| u16::from_be_bytes(*b));
        let u32_at = |at: usize| bytes.get(at..)?.first_chunk().map(|b| u32::from_be_bytes(*b));
        let name_at = |at: usize| rdata.name_at(at).map(|(name, next)| (name.to_owned(), next));
        let (before, _) = rtype.rdata_names();
        Some(match rtype {
            RecordType::A => RData::A(Ipv4Addr::from(*bytes.first_chunk::<4>()?)),
            RecordType::Aaaa => RData::Aaaa(Ipv6Addr::from(*bytes.first_chunk::<16>()?)),
            RecordType::Cname => RData::Cname(name_at(before)?.0),
            RecordType::Dname => RData::Dname(name_at(before)?.0),
            RecordType::Ns => RData::Ns(name_at(before)?.0),
            RecordType::Ptr => RData::Ptr(name_at(before)?.0),
            RecordType::Mx => RData::Mx(u16_at(0)?, name_at(before)?.0),
            RecordType::Txt => RData::Txt(character_strings(bytes).map(<[u8]>::to_vec).collect()),
            RecordType::Soa => {
                let (mname, next) = name_at(before)?;
                let (rname, fields) = name_at(next)?;
                RData::Soa(SoaRdata {
                    mname,
                    rname,
                    serial: u32_at(fields)?,
                    refresh: u32_at(fields + 4)?,
                    retry: u32_at(fields + 8)?,
                    expire: u32_at(fields + 12)?,
                    minimum: u32_at(fields + 16)?,
                })
            }
            RecordType::Srv => RData::Srv(SrvRdata {
                priority: u16_at(0)?,
                weight: u16_at(2)?,
                port: u16_at(4)?,
                target: name_at(before)?.0,
            }),
            RecordType::Svcb => RData::Svcb(SvcbRdata::from_view(SvcbView::read(bytes)?)),
            RecordType::Https => RData::Https(SvcbRdata::from_view(SvcbView::read(bytes)?)),
            RecordType::Rrsig => {
                let (signer, signature) = name_at(before)?;
                RData::Rrsig(RrsigRdata {
                    type_covered: RecordType::from_code(u16_at(0)?),
                    algorithm: *bytes.get(2)?,
                    labels: *bytes.get(3)?,
                    original_ttl: u32_at(4)?,
                    expiration: u32_at(8)?,
                    inception: u32_at(12)?,
                    key_tag: u16_at(16)?,
                    signer,
                    signature: bytes.get(signature..)?.to_vec(),
                })
            }
            RecordType::Dnskey => RData::Dnskey(DnskeyRdata {
                flags: u16_at(0)?,
                protocol: *bytes.get(2)?,
                algorithm: *bytes.get(3)?,
                public_key: bytes.get(4..)?.to_vec(),
            }),
            RecordType::Ds => RData::Ds(DsRdata {
                key_tag: u16_at(0)?,
                algorithm: *bytes.get(2)?,
                digest_type: *bytes.get(3)?,
                digest: bytes.get(4..)?.to_vec(),
            }),
            RecordType::Opt => RData::Opt(bytes.to_vec()),
            RecordType::Unknown(_) => RData::Unknown(bytes.to_vec()),
        })
    }

    /// Whether these RDATA are well formed for their type, answered
    /// without building them: no name, vector or parameter list is
    /// allocated. Every type's acceptance rules live here once;
    /// [`RData::decode`] is this check followed by a build, and
    /// [`RecordView::check_rdata`](crate::RecordView::check_rdata) is
    /// how a reader of a received message asks it.
    pub fn check(
        rtype: RecordType,
        rdata_range: (usize, usize),
        whole_message: &[u8],
    ) -> Result<(), WireError> {
        let (start, end) = rdata_range;
        if end > whole_message.len() || start > end {
            return Err(WireError::Truncated { context: "rdata range" });
        }
        let rdata = &whole_message[start..end];
        // Where the name at `off` ends, relative to the RDATA: the walk
        // `decode` makes, without keeping the labels.
        let skip_name_at =
            |off: usize| DnsName::skip_at(whole_message, start + off).map(|next| next - start);
        let name_fills = |off: usize| {
            let consumed = skip_name_at(off)?;
            if consumed != rdata.len() {
                return Err(WireError::RdataLengthMismatch { declared: rdata.len(), consumed });
            }
            Ok(())
        };
        match rtype {
            RecordType::A if rdata.len() != 4 => {
                Err(WireError::InvalidValue { context: "A rdata" })
            }
            RecordType::Aaaa if rdata.len() != 16 => {
                Err(WireError::InvalidValue { context: "AAAA rdata" })
            }
            RecordType::A | RecordType::Aaaa => Ok(()),
            RecordType::Cname | RecordType::Dname | RecordType::Ns | RecordType::Ptr => {
                name_fills(0)
            }
            RecordType::Mx if rdata.len() < 3 => Err(WireError::Truncated { context: "MX rdata" }),
            RecordType::Mx => name_fills(2),
            RecordType::Txt => {
                let mut r = WireReader::new(rdata);
                while r.remaining() > 0 {
                    let n = r.read_u8()? as usize;
                    r.read_bytes(n, "TXT string")?;
                }
                Ok(())
            }
            RecordType::Soa => soa_minimum(rdata_range, whole_message).map(|_| ()),
            RecordType::Srv => {
                let mut r = WireReader::new(rdata);
                for _ in 0..3 {
                    r.read_u16()?;
                }
                name_fills(6)
            }
            RecordType::Svcb | RecordType::Https => SvcbView::parse(rdata).map(|_| ()),
            RecordType::Rrsig => {
                let mut r = WireReader::new(rdata);
                r.read_u16()?;
                r.read_u8()?;
                r.read_u8()?;
                for _ in 0..3 {
                    r.read_u32()?;
                }
                r.read_u16()?;
                let next = skip_name_at(r.position())?;
                match rdata.get(next..) {
                    Some(_) => Ok(()),
                    None => Err(WireError::Truncated { context: "RRSIG signature" }),
                }
            }
            RecordType::Dnskey | RecordType::Ds => {
                let mut r = WireReader::new(rdata);
                r.read_u16()?;
                r.read_u8()?;
                r.read_u8()?;
                if rtype == RecordType::Ds && r.remaining() == 0 {
                    return Err(WireError::InvalidValue { context: "DS digest" });
                }
                Ok(())
            }
            RecordType::Opt | RecordType::Unknown(_) => Ok(()),
        }
    }

    /// Presentation form of the RDATA.
    pub fn to_presentation(&self) -> String {
        let mut out = String::new();
        self.write_presentation(&mut out);
        out
    }

    /// Append the presentation form to `out` without intermediate
    /// per-field or per-byte allocations — bulk rendering paths reuse one
    /// cleared buffer across many records.
    pub fn write_presentation(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            RData::A(a) => {
                let _ = write!(out, "{a}");
            }
            RData::Aaaa(a) => {
                let _ = write!(out, "{a}");
            }
            RData::Cname(n) | RData::Dname(n) | RData::Ns(n) | RData::Ptr(n) => {
                let _ = write!(out, "{n}");
            }
            RData::Mx(pref, host) => {
                let _ = write!(out, "{pref} {host}");
            }
            RData::Txt(strings) => {
                for (i, s) in strings.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let _ = write!(out, "\"{}\"", String::from_utf8_lossy(s));
                }
            }
            RData::Soa(s) => {
                let _ = write!(
                    out,
                    "{} {} {} {} {} {} {}",
                    s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
                );
            }
            RData::Srv(s) => {
                let _ = write!(out, "{} {} {} {}", s.priority, s.weight, s.port, s.target);
            }
            RData::Svcb(rd) | RData::Https(rd) => rd.write_presentation(out),
            RData::Rrsig(sig) => {
                let _ = write!(
                    out,
                    "{} {} {} {} {} {} {} {} ",
                    sig.type_covered,
                    sig.algorithm,
                    sig.labels,
                    sig.original_ttl,
                    sig.expiration,
                    sig.inception,
                    sig.key_tag,
                    sig.signer,
                );
                crate::svcb::base64ish_into(out, &sig.signature);
            }
            RData::Dnskey(k) => {
                let _ = write!(out, "{} {} {} ", k.flags, k.protocol, k.algorithm);
                crate::svcb::base64ish_into(out, &k.public_key);
            }
            RData::Ds(d) => {
                let _ = write!(out, "{} {} {} ", d.key_tag, d.algorithm, d.digest_type);
                push_hex(out, &d.digest, b"0123456789ABCDEF");
            }
            RData::Opt(bytes) | RData::Unknown(bytes) => {
                let _ = write!(out, "\\# {} ", bytes.len());
                push_hex(out, bytes, b"0123456789abcdef");
            }
        }
    }
}

/// Append the hex rendering of `bytes` using the given 16-entry alphabet.
fn push_hex(out: &mut String, bytes: &[u8], alphabet: &[u8; 16]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(alphabet[(b >> 4) as usize] as char);
        out.push(alphabet[(b & 0x0F) as usize] as char);
    }
}

/// The `minimum` field of the SOA RDATA at `rdata_range`, read after
/// the checks [`RData::decode`] makes: both names walked, not built,
/// then exactly five 32-bit fields.
pub(crate) fn soa_minimum(
    rdata_range: (usize, usize),
    whole_message: &[u8],
) -> Result<u32, WireError> {
    let (start, end) = rdata_range;
    if end > whole_message.len() || start > end {
        return Err(WireError::Truncated { context: "rdata range" });
    }
    let rname = DnsName::skip_at(whole_message, start)?;
    let fields = DnsName::skip_at(whole_message, rname)?;
    let mut r = WireReader::new(&whole_message[start..end]);
    r.seek(fields - start)?;
    for _ in 0..4 {
        r.read_u32()?;
    }
    let minimum = r.read_u32()?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(minimum)
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: DnsName,
    /// Record type; kept separately so unknown types survive round-trips.
    pub rtype: RecordType,
    /// Class (IN in practice).
    pub class: DnsClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed RDATA.
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor for class IN.
    pub fn new(name: DnsName, ttl: u32, rdata: RData) -> Self {
        let rtype = rdata.record_type();
        Record { name, rtype, class: DnsClass::In, ttl, rdata }
    }

    /// Construct with an explicit type (for unknown-type records).
    pub fn with_type(name: DnsName, rtype: RecordType, ttl: u32, rdata: RData) -> Self {
        Record { name, rtype, class: DnsClass::In, ttl, rdata }
    }

    /// Encode this record (name possibly compressed; RDLENGTH backfilled).
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_name(&self.name);
        w.put_u16(self.rtype.code());
        w.put_u16(self.class.code());
        w.put_u32(self.ttl);
        let len_at = w.len();
        w.put_u16(0);
        let before = w.len();
        self.rdata.encode(w);
        let rdlen = w.len() - before;
        w.patch_u16(len_at, rdlen as u16);
    }

    /// Zone-file presentation line.
    pub fn to_presentation(&self) -> String {
        let mut out = String::new();
        self.write_presentation(&mut out);
        out
    }

    /// Append the zone-file presentation line to `out` (see
    /// [`RData::write_presentation`] for the allocation contract).
    pub fn write_presentation(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = write!(out, "{} {} {} {} ", self.name, self.ttl, self.class, self.rtype);
        self.rdata.write_presentation(out);
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_presentation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::svcb::SvcParam;

    /// A message whose only content is `rec` as its one answer: a header
    /// with ANCOUNT 1, then the record.
    fn one_record_message(rec: &Record) -> Vec<u8> {
        let mut msg = Message::query(0, DnsName::root(), RecordType::A);
        msg.questions.clear();
        msg.edns = None;
        msg.answers.push(rec.clone());
        msg.encode()
    }

    fn rt(rec: &Record) -> Record {
        let mut back = Message::decode(&one_record_message(rec)).unwrap();
        assert_eq!(back.answers.len(), 1);
        back.answers.remove(0)
    }

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    #[test]
    fn a_record_round_trip() {
        let rec = Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(rt(&rec), rec);
        assert_eq!(rec.to_presentation(), "a.com. 300 IN A 1.2.3.4");
    }

    #[test]
    fn aaaa_record_round_trip() {
        let rec = Record::new(name("a.com"), 60, RData::Aaaa("2606:4700::1".parse().unwrap()));
        assert_eq!(rt(&rec), rec);
    }

    #[test]
    fn cname_ns_soa_round_trip() {
        for rec in [
            Record::new(name("www.a.com"), 300, RData::Cname(name("a.com"))),
            Record::new(name("a.com"), 300, RData::Ns(name("ns1.cloudflare.com"))),
            Record::new(
                name("a.com"),
                3600,
                RData::Soa(SoaRdata {
                    mname: name("ns1.a.com"),
                    rname: name("hostmaster.a.com"),
                    serial: 2024033101,
                    refresh: 7200,
                    retry: 3600,
                    expire: 1209600,
                    minimum: 300,
                }),
            ),
        ] {
            assert_eq!(rt(&rec), rec);
        }
    }

    #[test]
    fn https_record_round_trip_with_all_params() {
        let rd = SvcbRdata {
            priority: 1,
            target: DnsName::root(),
            params: vec![
                SvcParam::Mandatory(vec![1, 4]),
                SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]),
                SvcParam::Port(8443),
                SvcParam::Ipv4Hint(vec![Ipv4Addr::new(104, 16, 132, 229)]),
                SvcParam::Ech(vec![1, 2, 3, 4, 5, 6, 7, 8]),
                SvcParam::Ipv6Hint(vec!["2606:4700::6810:84e5".parse().unwrap()]),
            ],
        };
        let rec = Record::new(name("a.com"), 300, RData::Https(rd));
        assert_eq!(rt(&rec), rec);
    }

    #[test]
    fn svcb_distinct_from_https() {
        let rd = SvcbRdata::alias(name("pool.a.com"));
        let svcb = Record::new(name("_dns.a.com"), 300, RData::Svcb(rd.clone()));
        assert_eq!(svcb.rtype, RecordType::Svcb);
        let https = Record::new(name("a.com"), 300, RData::Https(rd));
        assert_eq!(https.rtype, RecordType::Https);
        assert_eq!(rt(&svcb), svcb);
    }

    #[test]
    fn rrsig_dnskey_ds_round_trip() {
        let key = DnskeyRdata { flags: 257, protocol: 3, algorithm: 253, public_key: vec![9; 16] };
        let tag = 0x1234;
        for rec in [
            Record::new(name("a.com"), 300, RData::Dnskey(key)),
            Record::new(
                name("a.com"),
                300,
                RData::Rrsig(RrsigRdata {
                    type_covered: RecordType::Https,
                    algorithm: 253,
                    labels: 2,
                    original_ttl: 300,
                    expiration: 1_700_000_000,
                    inception: 1_690_000_000,
                    key_tag: tag,
                    signer: name("a.com"),
                    signature: vec![7; 24],
                }),
            ),
            Record::new(
                name("a.com"),
                300,
                RData::Ds(DsRdata {
                    key_tag: tag,
                    algorithm: 253,
                    digest_type: 1,
                    digest: vec![3; 16],
                }),
            ),
        ] {
            assert_eq!(rt(&rec), rec);
        }
    }

    #[test]
    fn key_tag_is_stable() {
        let rdata = |public_key: Vec<u8>| {
            let key = DnskeyRdata { flags: 256, protocol: 3, algorithm: 253, public_key };
            let mut w = WireWriter::new();
            RData::Dnskey(key).encode(&mut w);
            w.into_bytes()
        };
        let key = rdata(vec![1, 2, 3, 4]);
        assert_eq!(key_tag(&key), key_tag(&key));
        assert_ne!(key_tag(&key), key_tag(&rdata(vec![1, 2, 3, 5])));
        // Words 0x0100, 0x03FD, 0x0102, 0x0304: no carry to fold.
        assert_eq!(key_tag(&key), 0x0100 + 0x03FD + 0x0102 + 0x0304);
    }

    #[test]
    fn txt_mx_srv_ptr_dname_round_trip() {
        for rec in [
            Record::new(name("a.com"), 300, RData::Txt(vec![b"v=spf1 -all".to_vec()])),
            Record::new(name("a.com"), 300, RData::Mx(10, name("mail.a.com"))),
            Record::new(
                name("_sip._tcp.a.com"),
                300,
                RData::Srv(SrvRdata {
                    priority: 1,
                    weight: 5,
                    port: 5060,
                    target: name("sip.a.com"),
                }),
            ),
            Record::new(name("4.3.2.1.in-addr.arpa"), 300, RData::Ptr(name("a.com"))),
            Record::new(name("old.a.com"), 300, RData::Dname(name("new.a.com"))),
        ] {
            assert_eq!(rt(&rec), rec);
        }
    }

    #[test]
    fn unknown_type_round_trips_opaquely() {
        let rec = Record::with_type(
            name("a.com"),
            RecordType::Unknown(999),
            300,
            RData::Unknown(vec![1, 2, 3]),
        );
        let back = rt(&rec);
        assert_eq!(back.rtype, RecordType::Unknown(999));
        assert_eq!(back.rdata, RData::Unknown(vec![1, 2, 3]));
    }

    #[test]
    fn truncated_rdata_rejected() {
        let rec = Record::new(name("a.com"), 300, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
        let buf = one_record_message(&rec);
        // Every cut after the 12-octet header falls inside the record.
        for cut in 12..buf.len() {
            assert!(Message::decode(&buf[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_a_length_rejected() {
        // Hand-encode a header announcing one answer, then an A record
        // with 3-byte RDATA.
        let mut w = WireWriter::new();
        w.put_bytes(&[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]);
        w.put_name(&name("x.com"));
        w.put_u16(RecordType::A.code());
        w.put_u16(DnsClass::In.code());
        w.put_u32(60);
        w.put_u16(3);
        w.put_bytes(&[1, 2, 3]);
        assert!(Message::decode(w.as_bytes()).is_err());
    }

    #[test]
    fn mnemonics_round_trip() {
        for t in [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Ptr,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Aaaa,
            RecordType::Srv,
            RecordType::Dname,
            RecordType::Opt,
            RecordType::Ds,
            RecordType::Rrsig,
            RecordType::Dnskey,
            RecordType::Svcb,
            RecordType::Https,
            RecordType::Unknown(1234),
        ] {
            assert_eq!(RecordType::from_mnemonic(&t.mnemonic()), Some(t));
            assert_eq!(RecordType::from_code(t.code()), t);
        }
        assert_eq!(RecordType::from_mnemonic("https"), Some(RecordType::Https));
        assert_eq!(RecordType::from_mnemonic("bogus"), None);
    }
}
