//! SVCB / HTTPS RDATA per RFC 9460: SvcPriority, TargetName, SvcParams.
//!
//! The seven registered SvcParamKeys (`mandatory`, `alpn`,
//! `no-default-alpn`, `port`, `ipv4hint`, `ech`, `ipv6hint`) are modelled
//! explicitly; unrecognized keys round-trip as opaque `keyNNNNN` values.

use crate::error::{ParseError, WireError};
use crate::name::DnsName;
use crate::wire::{WireReader, WireWriter};
use std::borrow::Cow;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Numeric SvcParamKey values (RFC 9460 §14.3.2).
pub mod key {
    /// `mandatory`
    pub const MANDATORY: u16 = 0;
    /// `alpn`
    pub const ALPN: u16 = 1;
    /// `no-default-alpn`
    pub const NO_DEFAULT_ALPN: u16 = 2;
    /// `port`
    pub const PORT: u16 = 3;
    /// `ipv4hint`
    pub const IPV4HINT: u16 = 4;
    /// `ech`
    pub const ECH: u16 = 5;
    /// `ipv6hint`
    pub const IPV6HINT: u16 = 6;
    /// First key of the invalid range (65280-65534 are private use).
    pub const INVALID: u16 = 65535;
}

/// A single SvcParam (key + typed value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcParam {
    /// Keys the client must understand to use this record (RFC 9460 §8).
    Mandatory(Vec<u16>),
    /// Application-Layer Protocol Negotiation identifiers, e.g. `h2`, `h3`.
    Alpn(Vec<Vec<u8>>),
    /// The endpoint does not support the default protocol (HTTP/1.1).
    NoDefaultAlpn,
    /// Alternative port for the service endpoint.
    Port(u16),
    /// IPv4 address hints.
    Ipv4Hint(Vec<Ipv4Addr>),
    /// Encrypted ClientHello configuration (opaque ECHConfigList bytes).
    Ech(Vec<u8>),
    /// IPv6 address hints.
    Ipv6Hint(Vec<Ipv6Addr>),
    /// Unrecognized key carried opaquely.
    Unknown {
        /// Numeric SvcParamKey.
        key: u16,
        /// Raw value bytes.
        value: Vec<u8>,
    },
}

impl SvcParam {
    /// The numeric SvcParamKey of this parameter.
    pub fn key(&self) -> u16 {
        match self {
            SvcParam::Mandatory(_) => key::MANDATORY,
            SvcParam::Alpn(_) => key::ALPN,
            SvcParam::NoDefaultAlpn => key::NO_DEFAULT_ALPN,
            SvcParam::Port(_) => key::PORT,
            SvcParam::Ipv4Hint(_) => key::IPV4HINT,
            SvcParam::Ech(_) => key::ECH,
            SvcParam::Ipv6Hint(_) => key::IPV6HINT,
            SvcParam::Unknown { key, .. } => *key,
        }
    }

    fn encode_value(&self, w: &mut WireWriter) {
        match self {
            SvcParam::Mandatory(keys) => {
                // The wire form lists the keys in increasing order (RFC
                // 9460 §8); the presentation form may list them in any.
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                for k in sorted {
                    w.put_u16(k);
                }
            }
            SvcParam::Alpn(ids) => {
                for id in ids {
                    w.put_u8(id.len() as u8);
                    w.put_bytes(id);
                }
            }
            SvcParam::NoDefaultAlpn => {}
            SvcParam::Port(p) => w.put_u16(*p),
            SvcParam::Ipv4Hint(addrs) => {
                for a in addrs {
                    w.put_bytes(&a.octets());
                }
            }
            SvcParam::Ech(bytes) => w.put_bytes(bytes),
            SvcParam::Ipv6Hint(addrs) => {
                for a in addrs {
                    w.put_bytes(&a.octets());
                }
            }
            SvcParam::Unknown { value, .. } => w.put_bytes(value),
        }
    }

    /// Encode key, length and value.
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.key());
        let len_at = w.len();
        w.put_u16(0);
        let before = w.len();
        self.encode_value(w);
        let vlen = w.len() - before;
        w.patch_u16(len_at, vlen as u16);
    }

    /// Decode one SvcParam from raw value bytes for the given key.
    pub fn decode(k: u16, value: &[u8]) -> Result<SvcParam, WireError> {
        match k {
            key::MANDATORY => {
                if value.is_empty() || !value.len().is_multiple_of(2) {
                    return Err(WireError::InvalidSvcParam {
                        key: k,
                        reason: "mandatory list length must be a positive multiple of 2",
                    });
                }
                let keys: Vec<u16> =
                    value.chunks_exact(2).map(|c| u16::from_be_bytes([c[0], c[1]])).collect();
                // Keys must be strictly increasing and must not include
                // `mandatory` itself (RFC 9460 §8).
                if keys.windows(2).any(|w| w[0] >= w[1]) || keys.contains(&key::MANDATORY) {
                    return Err(WireError::InvalidSvcParam {
                        key: k,
                        reason: "mandatory list must be strictly increasing and exclude key 0",
                    });
                }
                Ok(SvcParam::Mandatory(keys))
            }
            key::ALPN => {
                let mut ids = Vec::new();
                let mut r = WireReader::new(value);
                while r.remaining() > 0 {
                    let n = r.read_u8()? as usize;
                    if n == 0 {
                        return Err(WireError::InvalidSvcParam { key: k, reason: "empty alpn-id" });
                    }
                    ids.push(r.read_bytes(n, "alpn-id")?.to_vec());
                }
                if ids.is_empty() {
                    return Err(WireError::InvalidSvcParam {
                        key: k,
                        reason: "alpn list must be non-empty",
                    });
                }
                Ok(SvcParam::Alpn(ids))
            }
            key::NO_DEFAULT_ALPN => {
                if !value.is_empty() {
                    return Err(WireError::InvalidSvcParam {
                        key: k,
                        reason: "no-default-alpn takes no value",
                    });
                }
                Ok(SvcParam::NoDefaultAlpn)
            }
            key::PORT => {
                if value.len() != 2 {
                    return Err(WireError::InvalidSvcParam {
                        key: k,
                        reason: "port must be exactly 2 octets",
                    });
                }
                Ok(SvcParam::Port(u16::from_be_bytes([value[0], value[1]])))
            }
            key::IPV4HINT => {
                if value.is_empty() || !value.len().is_multiple_of(4) {
                    return Err(WireError::InvalidSvcParam {
                        key: k,
                        reason: "ipv4hint length must be a positive multiple of 4",
                    });
                }
                Ok(SvcParam::Ipv4Hint(
                    value.chunks_exact(4).map(|c| Ipv4Addr::new(c[0], c[1], c[2], c[3])).collect(),
                ))
            }
            key::ECH => {
                if value.is_empty() {
                    return Err(WireError::InvalidSvcParam {
                        key: k,
                        reason: "ech value must be non-empty",
                    });
                }
                Ok(SvcParam::Ech(value.to_vec()))
            }
            key::IPV6HINT => {
                if value.is_empty() || !value.len().is_multiple_of(16) {
                    return Err(WireError::InvalidSvcParam {
                        key: k,
                        reason: "ipv6hint length must be a positive multiple of 16",
                    });
                }
                Ok(SvcParam::Ipv6Hint(
                    value
                        .chunks_exact(16)
                        .map(|c| {
                            let mut o = [0u8; 16];
                            o.copy_from_slice(c);
                            Ipv6Addr::from(o)
                        })
                        .collect(),
                ))
            }
            key::INVALID => {
                Err(WireError::InvalidSvcParam { key: k, reason: "key 65535 is reserved invalid" })
            }
            other => Ok(SvcParam::Unknown { key: other, value: value.to_vec() }),
        }
    }
}

/// Convert a numeric key to its presentation mnemonic. Registered keys
/// return a borrowed `'static` string; only `keyNNNNN` fallbacks allocate.
pub fn key_to_name(k: u16) -> Cow<'static, str> {
    match k {
        key::MANDATORY => Cow::Borrowed("mandatory"),
        key::ALPN => Cow::Borrowed("alpn"),
        key::NO_DEFAULT_ALPN => Cow::Borrowed("no-default-alpn"),
        key::PORT => Cow::Borrowed("port"),
        key::IPV4HINT => Cow::Borrowed("ipv4hint"),
        key::ECH => Cow::Borrowed("ech"),
        key::IPV6HINT => Cow::Borrowed("ipv6hint"),
        other => Cow::Owned(format!("key{other}")),
    }
}

/// Convert a presentation mnemonic to its numeric key.
pub fn name_to_key(s: &str) -> Option<u16> {
    match s {
        "mandatory" => Some(key::MANDATORY),
        "alpn" => Some(key::ALPN),
        "no-default-alpn" => Some(key::NO_DEFAULT_ALPN),
        "port" => Some(key::PORT),
        "ipv4hint" => Some(key::IPV4HINT),
        "ech" => Some(key::ECH),
        "ipv6hint" => Some(key::IPV6HINT),
        other => other.strip_prefix("key").and_then(|n| n.parse().ok()),
    }
}

impl fmt::Display for SvcParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcParam::Mandatory(keys) => {
                write!(f, "mandatory=")?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", key_to_name(*k))?;
                }
                Ok(())
            }
            SvcParam::Alpn(ids) => {
                write!(f, "alpn=")?;
                for (i, id) in ids.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", String::from_utf8_lossy(id))?;
                }
                Ok(())
            }
            SvcParam::NoDefaultAlpn => write!(f, "no-default-alpn"),
            SvcParam::Port(p) => write!(f, "port={p}"),
            SvcParam::Ipv4Hint(addrs) => {
                write!(f, "ipv4hint=")?;
                for (i, a) in addrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
            SvcParam::Ech(bytes) => write!(f, "ech={}", base64ish(bytes)),
            SvcParam::Ipv6Hint(addrs) => {
                write!(f, "ipv6hint=")?;
                for (i, a) in addrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
            SvcParam::Unknown { key, value } => {
                write!(f, "key{key}=")?;
                for b in value {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
        }
    }
}

/// Standard base64 (with padding) used for the `ech` presentation value.
pub fn base64ish(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    base64ish_into(&mut out, data);
    out
}

/// Append the [`base64ish`] rendering of `data` to `out`, so bulk
/// presentation paths can reuse one cleared buffer instead of allocating
/// a fresh `String` per value.
pub fn base64ish_into(out: &mut String, data: &[u8]) {
    const ALPHA: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    out.reserve(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHA[(n >> 18) as usize & 63] as char);
        out.push(ALPHA[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { ALPHA[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if chunk.len() > 2 { ALPHA[n as usize & 63] as char } else { '=' });
    }
}

/// Inverse of [`base64ish`]. Returns `None` on any non-alphabet character
/// or bad padding (used to detect "malformed ECH" zone-file typos).
pub fn debase64ish(s: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a' + 26) as u32),
            b'0'..=b'9' => Some((c - b'0' + 52) as u32),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for chunk in bytes.chunks(4) {
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || (pad > 0 && !chunk[4 - pad..].iter().all(|&c| c == b'=')) {
            return None;
        }
        let mut n = 0u32;
        for (i, &c) in chunk.iter().enumerate() {
            let v = if c == b'=' {
                if i < 4 - pad {
                    return None;
                }
                0
            } else {
                val(c)?
            };
            n = (n << 6) | v;
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

/// SVCB/HTTPS RDATA: priority, target, parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvcbRdata {
    /// 0 = AliasMode; anything else = ServiceMode (lower preferred).
    pub priority: u16,
    /// Alias target (AliasMode) or alternative endpoint (ServiceMode).
    /// `.` (root) in ServiceMode means "the owner name of this record".
    pub target: DnsName,
    /// Service parameters; must be empty in AliasMode.
    pub params: Vec<SvcParam>,
}

impl SvcbRdata {
    /// AliasMode record pointing at `target`.
    pub fn alias(target: DnsName) -> Self {
        SvcbRdata { priority: 0, target, params: Vec::new() }
    }

    /// ServiceMode record with priority 1 targeting the owner (`.`).
    pub fn service_self(params: Vec<SvcParam>) -> Self {
        SvcbRdata { priority: 1, target: DnsName::root(), params }
    }

    /// True when this record is in AliasMode (priority 0).
    pub fn is_alias(&self) -> bool {
        self.priority == 0
    }

    /// Find the first parameter with the given key.
    pub fn param(&self, key: u16) -> Option<&SvcParam> {
        self.params.iter().find(|p| p.key() == key)
    }

    /// ALPN identifiers advertised, if any. Identifiers borrow from the
    /// record when they are valid UTF-8 (the overwhelmingly common case),
    /// so scan paths pay no per-call `String` allocations.
    pub fn alpn(&self) -> Option<Vec<Cow<'_, str>>> {
        match self.param(key::ALPN) {
            Some(SvcParam::Alpn(ids)) => {
                Some(ids.iter().map(|i| String::from_utf8_lossy(i)).collect())
            }
            _ => None,
        }
    }

    /// Raw ALPN identifier bytes, if any — fully borrowed, for callers
    /// that only test membership.
    pub fn alpn_ids(&self) -> Option<&[Vec<u8>]> {
        match self.param(key::ALPN) {
            Some(SvcParam::Alpn(ids)) => Some(ids),
            _ => None,
        }
    }

    /// The `port` parameter, if present.
    pub fn port(&self) -> Option<u16> {
        match self.param(key::PORT) {
            Some(SvcParam::Port(p)) => Some(*p),
            _ => None,
        }
    }

    /// IPv4 hints, if present.
    pub fn ipv4hint(&self) -> Option<&[Ipv4Addr]> {
        match self.param(key::IPV4HINT) {
            Some(SvcParam::Ipv4Hint(a)) => Some(a),
            _ => None,
        }
    }

    /// IPv6 hints, if present.
    pub fn ipv6hint(&self) -> Option<&[Ipv6Addr]> {
        match self.param(key::IPV6HINT) {
            Some(SvcParam::Ipv6Hint(a)) => Some(a),
            _ => None,
        }
    }

    /// Raw ECHConfigList bytes, if present.
    pub fn ech(&self) -> Option<&[u8]> {
        match self.param(key::ECH) {
            Some(SvcParam::Ech(b)) => Some(b),
            _ => None,
        }
    }

    /// Encode RDATA (without the RDLENGTH prefix). TargetName is written
    /// uncompressed per RFC 9460 §2.2. Parameters are sorted by key.
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.priority);
        w.put_name_uncompressed(&self.target);
        let mut params: Vec<&SvcParam> = self.params.iter().collect();
        params.sort_by_key(|p| p.key());
        for p in params {
            p.encode(w);
        }
    }

    /// Decode RDATA from exactly `rdata`.
    pub fn decode(rdata: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(rdata);
        let priority = r.read_u16()?;
        let target = r.read_name()?;
        let mut params = Vec::new();
        let mut last_key: Option<u16> = None;
        while r.remaining() > 0 {
            let k = r.read_u16()?;
            if let Some(prev) = last_key {
                if k <= prev {
                    return Err(WireError::SvcParamsOutOfOrder);
                }
            }
            last_key = Some(k);
            let vlen = r.read_u16()? as usize;
            let value = r.read_bytes(vlen, "SvcParamValue")?;
            params.push(SvcParam::decode(k, value)?);
        }
        Ok(SvcbRdata { priority, target, params })
    }

    /// Validate RFC 9460 semantic rules, returning human-readable issues.
    /// (Used by the scanner's misconfiguration analysis; an empty vec means
    /// the record is well-formed.)
    pub fn lint(&self) -> Vec<String> {
        let mut issues = Vec::new();
        if self.is_alias() {
            if !self.params.is_empty() {
                issues.push("AliasMode record carries SvcParams".to_string());
            }
            if self.target.is_root() {
                issues.push(
                    "AliasMode TargetName of \".\" does not provide a true alias".to_string(),
                );
            }
        } else {
            if let Some(SvcParam::Mandatory(keys)) = self.param(key::MANDATORY) {
                for k in keys {
                    if self.param(*k).is_none() {
                        issues.push(format!("mandatory key {} absent", key_to_name(*k)));
                    }
                }
            }
            if self.params.is_empty() {
                issues.push("ServiceMode record with empty SvcParams".to_string());
            }
        }
        // An IP-address-shaped TargetName is a known wild misconfiguration.
        if !self.target.is_root() && self.target.key().parse::<std::net::Ipv4Addr>().is_ok() {
            issues.push("TargetName is an IPv4 address literal".to_string());
        }
        issues
    }

    /// Presentation form of the RDATA, e.g. `1 . alpn=h2,h3 ipv4hint=1.2.3.4`.
    pub fn to_presentation(&self) -> String {
        let mut out = String::new();
        self.write_presentation(&mut out);
        out
    }

    /// Append the presentation form to `out` without the per-param
    /// `String` round-trips of the naive rendering.
    pub fn write_presentation(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = write!(out, "{} {}", self.priority, self.target);
        let mut params: Vec<&SvcParam> = self.params.iter().collect();
        params.sort_by_key(|p| p.key());
        for p in params {
            let _ = write!(out, " {p}");
        }
    }

    /// Parse presentation-format RDATA tokens (after the type mnemonic).
    pub fn parse_presentation(tokens: &[&str]) -> Result<Self, ParseError> {
        let mut it = tokens.iter();
        let prio_tok = it.next().ok_or(ParseError::MissingField("SvcPriority"))?;
        let priority: u16 = prio_tok.parse().map_err(|_| ParseError::BadField {
            field: "SvcPriority",
            token: prio_tok.to_string(),
        })?;
        let target_tok = it.next().ok_or(ParseError::MissingField("TargetName"))?;
        let target = DnsName::parse(target_tok)?;
        let mut params: Vec<SvcParam> = Vec::new();
        for tok in it {
            let param = parse_svcparam_token(tok)?;
            // A key appears at most once (RFC 9460 §2.2).
            if params.iter().any(|p| p.key() == param.key()) {
                return Err(ParseError::BadSvcParam(tok.to_string()));
            }
            params.push(param);
        }
        Ok(SvcbRdata { priority, target, params })
    }
}

/// One `key=value` token. Whatever it accepts encodes to a value
/// [`SvcParam::decode`] accepts back.
fn parse_svcparam_token(tok: &str) -> Result<SvcParam, ParseError> {
    let (k, v) = match tok.split_once('=') {
        Some((k, v)) => (k, Some(v)),
        None => (tok, None),
    };
    let bad = || ParseError::BadSvcParam(tok.to_string());
    let key_num = name_to_key(k).ok_or_else(bad)?;
    if k.starts_with("key") {
        // The generic `keyNNNNN` form (RFC 9460 §2.1): the value is the
        // wire-format value, here in hex, decoded — and so checked — as
        // the wire decoder would, registered key or not.
        let hex = v.unwrap_or("");
        let value = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(hex.get(i..i + 2).ok_or_else(bad)?, 16).map_err(|_| bad()))
            .collect::<Result<Vec<u8>, _>>()?;
        return SvcParam::decode(key_num, &value).map_err(|_| bad());
    }
    let value = || v.ok_or_else(bad);
    match key_num {
        key::MANDATORY => {
            let keys: Vec<u16> =
                value()?.split(',').map(name_to_key).collect::<Option<_>>().ok_or_else(bad)?;
            // No key twice and not `mandatory` itself (RFC 9460 §8).
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) || sorted.contains(&key::MANDATORY) {
                return Err(bad());
            }
            Ok(SvcParam::Mandatory(keys))
        }
        key::ALPN => {
            let ids: Vec<Vec<u8>> = value()?.split(',').map(|s| s.as_bytes().to_vec()).collect();
            // An alpn-id is 1..=255 octets behind a one-octet length.
            if ids.iter().any(|i| i.is_empty() || i.len() > 255) {
                return Err(bad());
            }
            Ok(SvcParam::Alpn(ids))
        }
        key::NO_DEFAULT_ALPN if v.is_none() => Ok(SvcParam::NoDefaultAlpn),
        key::PORT => Ok(SvcParam::Port(value()?.parse().map_err(|_| bad())?)),
        key::IPV4HINT => {
            let addrs: Result<Vec<Ipv4Addr>, _> = value()?.split(',').map(|s| s.parse()).collect();
            Ok(SvcParam::Ipv4Hint(addrs.map_err(|_| bad())?))
        }
        key::ECH => match debase64ish(value()?) {
            Some(config) if !config.is_empty() => Ok(SvcParam::Ech(config)),
            _ => Err(bad()),
        },
        key::IPV6HINT => {
            let addrs: Result<Vec<Ipv6Addr>, _> = value()?.split(',').map(|s| s.parse()).collect();
            Ok(SvcParam::Ipv6Hint(addrs.map_err(|_| bad())?))
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(rd: &SvcbRdata) -> SvcbRdata {
        let mut w = WireWriter::new();
        rd.encode(&mut w);
        SvcbRdata::decode(w.as_bytes()).unwrap()
    }

    #[test]
    fn alias_mode_round_trip() {
        let rd = SvcbRdata::alias(DnsName::parse("b.com").unwrap());
        assert!(rd.is_alias());
        assert_eq!(rt(&rd), rd);
        assert_eq!(rd.to_presentation(), "0 b.com.");
    }

    #[test]
    fn cloudflare_default_round_trip() {
        // The default record Cloudflare publishes for proxied zones (§4.3.1).
        let rd = SvcbRdata::service_self(vec![
            SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]),
            SvcParam::Ipv4Hint(vec![Ipv4Addr::new(104, 16, 1, 1)]),
            SvcParam::Ipv6Hint(vec!["2606:4700::1".parse().unwrap()]),
        ]);
        let back = rt(&rd);
        assert_eq!(back, rd);
        assert_eq!(back.alpn().unwrap(), vec!["h2", "h3"]);
        assert_eq!(back.ipv4hint().unwrap().len(), 1);
        assert!(back.lint().is_empty());
    }

    #[test]
    fn params_sorted_on_encode_and_order_enforced_on_decode() {
        let rd = SvcbRdata {
            priority: 1,
            target: DnsName::root(),
            params: vec![
                SvcParam::Ipv6Hint(vec!["::1".parse().unwrap()]),
                SvcParam::Alpn(vec![b"h2".to_vec()]),
                SvcParam::Port(8443),
            ],
        };
        let mut w = WireWriter::new();
        rd.encode(&mut w);
        let back = SvcbRdata::decode(w.as_bytes()).unwrap();
        let keys: Vec<u16> = back.params.iter().map(|p| p.key()).collect();
        assert_eq!(keys, vec![key::ALPN, key::PORT, key::IPV6HINT]);

        // Hand-build out-of-order params: port (3) then alpn (1).
        let mut w2 = WireWriter::new();
        w2.put_u16(1);
        w2.put_name_uncompressed(&DnsName::root());
        SvcParam::Port(443).encode(&mut w2);
        SvcParam::Alpn(vec![b"h2".to_vec()]).encode(&mut w2);
        assert_eq!(SvcbRdata::decode(w2.as_bytes()), Err(WireError::SvcParamsOutOfOrder));
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut w = WireWriter::new();
        w.put_u16(1);
        w.put_name_uncompressed(&DnsName::root());
        SvcParam::Port(443).encode(&mut w);
        SvcParam::Port(8443).encode(&mut w);
        assert_eq!(SvcbRdata::decode(w.as_bytes()), Err(WireError::SvcParamsOutOfOrder));
    }

    #[test]
    fn mandatory_validation() {
        // Self-referential mandatory is invalid.
        assert!(SvcParam::decode(key::MANDATORY, &[0, 0]).is_err());
        // Unsorted list invalid.
        assert!(SvcParam::decode(key::MANDATORY, &[0, 4, 0, 1]).is_err());
        // Sorted list of alpn, ipv4hint decodes.
        let p = SvcParam::decode(key::MANDATORY, &[0, 1, 0, 4]).unwrap();
        assert_eq!(p, SvcParam::Mandatory(vec![1, 4]));
        // Lint flags missing mandatory params.
        let rd = SvcbRdata {
            priority: 1,
            target: DnsName::root(),
            params: vec![SvcParam::Mandatory(vec![key::ALPN])],
        };
        assert!(rd.lint().iter().any(|i| i.contains("mandatory key alpn")));
    }

    #[test]
    fn bad_hint_lengths_rejected() {
        assert!(SvcParam::decode(key::IPV4HINT, &[1, 2, 3]).is_err());
        assert!(SvcParam::decode(key::IPV4HINT, &[]).is_err());
        assert!(SvcParam::decode(key::IPV6HINT, &[0; 15]).is_err());
        assert!(SvcParam::decode(key::PORT, &[0]).is_err());
        assert!(SvcParam::decode(key::NO_DEFAULT_ALPN, &[1]).is_err());
        assert!(SvcParam::decode(key::ECH, &[]).is_err());
        assert!(SvcParam::decode(key::INVALID, &[]).is_err());
    }

    #[test]
    fn unknown_key_round_trips() {
        let p = SvcParam::Unknown { key: 7, value: vec![1, 2, 3] };
        let mut w = WireWriter::new();
        let rd = SvcbRdata { priority: 1, target: DnsName::root(), params: vec![p.clone()] };
        rd.encode(&mut w);
        let back = SvcbRdata::decode(w.as_bytes()).unwrap();
        assert_eq!(back.params, vec![p]);
        assert_eq!(key_to_name(7), "key7");
        assert_eq!(name_to_key("key7"), Some(7));
    }

    #[test]
    fn presentation_round_trip() {
        let rd = SvcbRdata {
            priority: 1,
            target: DnsName::root(),
            params: vec![
                SvcParam::Alpn(vec![b"h2".to_vec(), b"h3".to_vec()]),
                SvcParam::Port(8443),
                SvcParam::Ipv4Hint(vec![Ipv4Addr::new(1, 2, 3, 4)]),
            ],
        };
        let text = rd.to_presentation();
        assert_eq!(text, "1 . alpn=h2,h3 port=8443 ipv4hint=1.2.3.4");
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let parsed = SvcbRdata::parse_presentation(&tokens).unwrap();
        assert_eq!(parsed, rd);
    }

    /// What the presentation parser accepts encodes to RDATA the wire
    /// decoder accepts (RFC 9460 §2.1, §2.2, §8), and what it cannot
    /// encode that way it rejects.
    #[test]
    fn presentation_accepts_only_what_the_wire_decoder_accepts() {
        let long_alpn_id = format!("1 . alpn={}", "a".repeat(256));
        let cases = [
            // Keys in any order; the wire form sorts them.
            (
                "1 . mandatory=port,alpn alpn=h2 port=8443",
                Some("1 . mandatory=alpn,port alpn=h2 port=8443"),
            ),
            ("1 . mandatory=alpn,alpn alpn=h2", None),
            ("1 . mandatory=mandatory", None),
            ("1 . key65535=00", None),
            ("1 . alpn=h2 alpn=h3", None),
            (&long_alpn_id, None),
            ("1 . ech=", None),
            // The generic form carries the wire value: a length octet,
            // then the alpn-id. Without the octet, 0x68 overruns.
            ("1 . key1=026832", Some("1 . alpn=h2")),
            ("1 . key1=6832", None),
            ("1 . key7=0102", Some("1 . key7=0102")),
        ];
        for (text, decodes_as) in cases {
            let tokens: Vec<&str> = text.split_whitespace().collect();
            match (SvcbRdata::parse_presentation(&tokens), decodes_as) {
                (Ok(rd), Some(expect)) => assert_eq!(rt(&rd).to_presentation(), expect, "{text}"),
                (Err(_), None) => {}
                (parsed, _) => panic!("{text}: parsed as {parsed:?}, expected {decodes_as:?}"),
            }
        }
    }

    #[test]
    fn ech_presentation_round_trip() {
        let rd = SvcbRdata {
            priority: 1,
            target: DnsName::root(),
            params: vec![SvcParam::Ech(vec![0xAB, 0xCD, 0xEF, 0x01, 0x02])],
        };
        let text = rd.to_presentation();
        let tokens: Vec<&str> = text.split_whitespace().collect();
        assert_eq!(SvcbRdata::parse_presentation(&tokens).unwrap(), rd);
    }

    #[test]
    fn base64_vectors() {
        assert_eq!(base64ish(b""), "");
        assert_eq!(base64ish(b"f"), "Zg==");
        assert_eq!(base64ish(b"fo"), "Zm8=");
        assert_eq!(base64ish(b"foo"), "Zm9v");
        assert_eq!(base64ish(b"foobar"), "Zm9vYmFy");
        for v in [&b""[..], b"f", b"fo", b"foo", b"foob", b"fooba", b"foobar"] {
            assert_eq!(debase64ish(&base64ish(v)).unwrap(), v);
        }
        assert!(debase64ish("####").is_none());
        assert!(debase64ish("Zg=").is_none());
        assert!(debase64ish("Z===").is_none());
    }

    #[test]
    fn lint_alias_self_target() {
        // newlinesmag.com case from §E.1: AliasMode with "." target.
        let rd = SvcbRdata { priority: 0, target: DnsName::root(), params: vec![] };
        assert!(rd.lint().iter().any(|i| i.contains("true alias")));
    }

    #[test]
    fn lint_ip_literal_target() {
        // unze.com.pk case from §E.1: IP address as TargetName.
        let rd = SvcbRdata {
            priority: 1,
            target: DnsName::parse("1.2.3.4").unwrap(),
            params: vec![SvcParam::Port(443)],
        };
        assert!(rd.lint().iter().any(|i| i.contains("IPv4 address literal")));
    }

    #[test]
    fn lint_empty_servicemode() {
        // §4.3.3: 202 apex domains in ServiceMode with no SvcParams.
        let rd = SvcbRdata::service_self(vec![]);
        assert!(rd.lint().iter().any(|i| i.contains("empty SvcParams")));
    }
}
