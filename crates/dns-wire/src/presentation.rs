//! Zone-file presentation format: parsing record lines and whole zone texts.
//!
//! Supports the subset of RFC 1035 master-file syntax the paper's testbed
//! uses: one record per line, optional TTL, `IN` class, `$ORIGIN`, relative
//! names, and `;` comments. Parenthesized continuations are not needed (all
//! RDATA in this workspace fits on one line).

use crate::error::ParseError;
use crate::name::DnsName;
use crate::record::{
    DnsClass, DnskeyRdata, DsRdata, RData, Record, RecordType, RrsigRdata, SoaRdata, SrvRdata,
};
use crate::svcb::{debase64ish, SvcbRdata};

/// Parse a single record line such as
/// `a.com. 300 IN HTTPS 1 . alpn=h2,h3 ipv4hint=1.2.3.4`.
///
/// `origin` resolves relative names and `@`. TTL defaults to `default_ttl`
/// when omitted.
pub fn parse_record_line(
    line: &str,
    origin: &DnsName,
    default_ttl: u32,
) -> Result<Option<Record>, ParseError> {
    let line = strip_comment(line);
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.is_empty() {
        return Ok(None);
    }
    let mut idx = 0;
    let name = parse_name_token(tokens[idx], origin)?;
    idx += 1;

    // Optional TTL and optional class, in either order.
    let mut ttl = default_ttl;
    let mut class = DnsClass::In;
    for _ in 0..2 {
        match tokens.get(idx) {
            Some(t) if t.chars().all(|c| c.is_ascii_digit()) => {
                ttl = t
                    .parse()
                    .map_err(|_| ParseError::BadField { field: "TTL", token: t.to_string() })?;
                idx += 1;
            }
            Some(t) => match DnsClass::from_mnemonic(t) {
                Some(c) => {
                    class = c;
                    idx += 1;
                }
                None => break,
            },
            None => break,
        }
    }

    let type_tok = tokens.get(idx).ok_or(ParseError::MissingField("record type"))?;
    let rtype = RecordType::from_mnemonic(type_tok)
        .ok_or_else(|| ParseError::UnknownType(type_tok.to_string()))?;
    idx += 1;
    let rest = &tokens[idx..];
    let rdata = parse_rdata(rtype, rest, origin)?;
    Ok(Some(Record { name, rtype, class, ttl, rdata }))
}

/// Parse a whole zone text. Lines may use `$ORIGIN` and `$TTL` directives.
/// Returns the records in file order.
pub fn parse_zone_text(text: &str, initial_origin: &DnsName) -> Result<Vec<Record>, ParseError> {
    let mut origin = initial_origin.clone();
    let mut default_ttl = 3600u32;
    let mut records = Vec::new();
    for raw in text.lines() {
        let line = strip_comment(raw);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("$ORIGIN") {
            origin = DnsName::parse(rest.trim())?;
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("$TTL") {
            let t = rest.trim();
            default_ttl = t
                .parse()
                .map_err(|_| ParseError::BadField { field: "$TTL", token: t.to_string() })?;
            continue;
        }
        if let Some(rec) = parse_record_line(trimmed, &origin, default_ttl)? {
            records.push(rec);
        }
    }
    Ok(records)
}

/// Render records as a zone text (one presentation line each).
pub fn to_zone_text(records: &[Record]) -> String {
    let mut s = String::new();
    for r in records {
        s.push_str(&r.to_presentation());
        s.push('\n');
    }
    s
}

fn strip_comment(line: &str) -> &str {
    // A ';' outside of a quoted string starts a comment.
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            ';' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_name_token(tok: &str, origin: &DnsName) -> Result<DnsName, ParseError> {
    if tok == "@" {
        return Ok(origin.clone());
    }
    if tok.ends_with('.') && !tok.ends_with("\\.") {
        return DnsName::parse(tok);
    }
    // Relative name: append origin.
    let rel = DnsName::parse(tok)?;
    DnsName::from_labels(rel.labels().chain(origin.labels()))
        .map_err(|_| ParseError::BadName(tok.to_string()))
}

fn parse_rdata(rtype: RecordType, tokens: &[&str], origin: &DnsName) -> Result<RData, ParseError> {
    let get = |i: usize, field: &'static str| -> Result<&str, ParseError> {
        tokens.get(i).copied().ok_or(ParseError::MissingField(field))
    };
    let num = |tok: &str, field: &'static str| -> Result<u32, ParseError> {
        tok.parse().map_err(|_| ParseError::BadField { field, token: tok.to_string() })
    };
    match rtype {
        RecordType::A => {
            let t = get(0, "address")?;
            Ok(RData::A(
                t.parse()
                    .map_err(|_| ParseError::BadField { field: "A address", token: t.into() })?,
            ))
        }
        RecordType::Aaaa => {
            let t = get(0, "address")?;
            Ok(RData::Aaaa(
                t.parse()
                    .map_err(|_| ParseError::BadField { field: "AAAA address", token: t.into() })?,
            ))
        }
        RecordType::Cname => Ok(RData::Cname(parse_name_token(get(0, "target")?, origin)?)),
        RecordType::Dname => Ok(RData::Dname(parse_name_token(get(0, "target")?, origin)?)),
        RecordType::Ns => Ok(RData::Ns(parse_name_token(get(0, "nsdname")?, origin)?)),
        RecordType::Ptr => Ok(RData::Ptr(parse_name_token(get(0, "ptrdname")?, origin)?)),
        RecordType::Mx => Ok(RData::Mx(
            num(get(0, "preference")?, "MX preference")? as u16,
            parse_name_token(get(1, "exchange")?, origin)?,
        )),
        RecordType::Txt => {
            if tokens.is_empty() {
                return Err(ParseError::MissingField("TXT data"));
            }
            let strings = tokens.iter().map(|t| t.trim_matches('"').as_bytes().to_vec()).collect();
            Ok(RData::Txt(strings))
        }
        RecordType::Soa => Ok(RData::Soa(SoaRdata {
            mname: parse_name_token(get(0, "mname")?, origin)?,
            rname: parse_name_token(get(1, "rname")?, origin)?,
            serial: num(get(2, "serial")?, "SOA serial")?,
            refresh: num(get(3, "refresh")?, "SOA refresh")?,
            retry: num(get(4, "retry")?, "SOA retry")?,
            expire: num(get(5, "expire")?, "SOA expire")?,
            minimum: num(get(6, "minimum")?, "SOA minimum")?,
        })),
        RecordType::Srv => Ok(RData::Srv(SrvRdata {
            priority: num(get(0, "priority")?, "SRV priority")? as u16,
            weight: num(get(1, "weight")?, "SRV weight")? as u16,
            port: num(get(2, "port")?, "SRV port")? as u16,
            target: parse_name_token(get(3, "target")?, origin)?,
        })),
        RecordType::Svcb => Ok(RData::Svcb(SvcbRdata::parse_presentation(tokens)?)),
        RecordType::Https => Ok(RData::Https(SvcbRdata::parse_presentation(tokens)?)),
        RecordType::Rrsig => Ok(RData::Rrsig(RrsigRdata {
            type_covered: RecordType::from_mnemonic(get(0, "type covered")?)
                .ok_or_else(|| ParseError::UnknownType(tokens[0].to_string()))?,
            algorithm: num(get(1, "algorithm")?, "RRSIG algorithm")? as u8,
            labels: num(get(2, "labels")?, "RRSIG labels")? as u8,
            original_ttl: num(get(3, "original ttl")?, "RRSIG original ttl")?,
            expiration: num(get(4, "expiration")?, "RRSIG expiration")?,
            inception: num(get(5, "inception")?, "RRSIG inception")?,
            key_tag: num(get(6, "key tag")?, "RRSIG key tag")? as u16,
            signer: parse_name_token(get(7, "signer")?, origin)?,
            signature: debase64ish(get(8, "signature")?).ok_or_else(|| ParseError::BadField {
                field: "RRSIG signature",
                token: tokens[8].to_string(),
            })?,
        })),
        RecordType::Dnskey => Ok(RData::Dnskey(DnskeyRdata {
            flags: num(get(0, "flags")?, "DNSKEY flags")? as u16,
            protocol: num(get(1, "protocol")?, "DNSKEY protocol")? as u8,
            algorithm: num(get(2, "algorithm")?, "DNSKEY algorithm")? as u8,
            public_key: debase64ish(get(3, "public key")?).ok_or_else(|| ParseError::BadField {
                field: "DNSKEY key",
                token: tokens[3].to_string(),
            })?,
        })),
        RecordType::Ds => {
            let hex = get(3, "digest")?;
            if hex.len() % 2 != 0 {
                return Err(ParseError::BadField { field: "DS digest", token: hex.to_string() });
            }
            let digest = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
                .collect::<Result<Vec<u8>, _>>()
                .map_err(|_| ParseError::BadField { field: "DS digest", token: hex.to_string() })?;
            Ok(RData::Ds(DsRdata {
                key_tag: num(get(0, "key tag")?, "DS key tag")? as u16,
                algorithm: num(get(1, "algorithm")?, "DS algorithm")? as u8,
                digest_type: num(get(2, "digest type")?, "DS digest type")? as u8,
                digest,
            }))
        }
        RecordType::Opt | RecordType::Unknown(_) => {
            // RFC 3597 generic syntax: \# length hexdata
            if get(0, "\\#")? != "\\#" {
                return Err(ParseError::BadField {
                    field: "generic rdata",
                    token: tokens[0].to_string(),
                });
            }
            let len: usize = num(get(1, "length")?, "generic length")? as usize;
            let hex: String = tokens[2..].concat();
            if hex.len() != len * 2 {
                return Err(ParseError::BadField { field: "generic rdata", token: hex });
            }
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
                .collect::<Result<Vec<u8>, _>>()
                .map_err(|_| ParseError::BadField { field: "generic rdata", token: hex.clone() })?;
            Ok(if rtype == RecordType::Opt { RData::Opt(bytes) } else { RData::Unknown(bytes) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn origin() -> DnsName {
        DnsName::parse("example.com").unwrap()
    }

    #[test]
    fn parse_paper_figure1_examples() {
        // The two example records from the paper's Figure 1.
        let r1 = parse_record_line("a.com. 300 IN HTTPS 0 b.com.", &origin(), 60).unwrap().unwrap();
        match &r1.rdata {
            RData::Https(rd) => {
                assert!(rd.is_alias());
                assert_eq!(rd.target, DnsName::parse("b.com").unwrap());
            }
            other => panic!("wrong rdata: {other:?}"),
        }
        let r2 =
            parse_record_line("c.com. 300 IN HTTPS 1 . alpn=h3 ipv4hint=1.2.3.4", &origin(), 60)
                .unwrap()
                .unwrap();
        match &r2.rdata {
            RData::Https(rd) => {
                assert_eq!(rd.priority, 1);
                assert_eq!(rd.alpn().unwrap(), vec!["h3"]);
                assert_eq!(rd.ipv4hint().unwrap(), &[Ipv4Addr::new(1, 2, 3, 4)]);
            }
            other => panic!("wrong rdata: {other:?}"),
        }
    }

    #[test]
    fn relative_names_and_at() {
        let r = parse_record_line("www 60 IN A 1.2.3.4", &origin(), 60).unwrap().unwrap();
        assert_eq!(r.name, DnsName::parse("www.example.com").unwrap());
        let r = parse_record_line("@ 60 IN A 1.2.3.4", &origin(), 60).unwrap().unwrap();
        assert_eq!(r.name, origin());
    }

    #[test]
    fn relative_name_plus_origin_past_255_octets_is_a_located_error() {
        let long = "o".repeat(63);
        let origin = DnsName::parse(&format!("{long}.{long}.{long}")).unwrap();
        // 193 octets of origin + 62 fit exactly; one more does not.
        let fits = "r".repeat(61);
        let r =
            parse_record_line(&format!("{fits} 60 IN A 1.2.3.4"), &origin, 60).unwrap().unwrap();
        assert_eq!(r.name.wire_len(), 255);
        let over = "r".repeat(62);
        let err = parse_record_line(&format!("{over} 60 IN A 1.2.3.4"), &origin, 60).unwrap_err();
        assert_eq!(err, ParseError::BadName(over.clone()));
        // The same rule inside RDATA.
        let err = parse_record_line(&format!("@ 60 IN CNAME {over}"), &origin, 60).unwrap_err();
        assert_eq!(err, ParseError::BadName(over));
    }

    #[test]
    fn ttl_defaults_and_comments() {
        let r =
            parse_record_line("a.com. IN A 1.2.3.4 ; proxied", &origin(), 1234).unwrap().unwrap();
        assert_eq!(r.ttl, 1234);
        assert!(parse_record_line("; whole line comment", &origin(), 60).unwrap().is_none());
        assert!(parse_record_line("   ", &origin(), 60).unwrap().is_none());
    }

    #[test]
    fn zone_text_round_trip() {
        let text = "\
$ORIGIN a.com.
$TTL 300
@ IN SOA ns1.a.com. hostmaster.a.com. 1 7200 3600 1209600 300
@ IN NS ns1.a.com.
@ IN A 2.2.3.4
@ IN HTTPS 1 . alpn=h2,h3 ipv4hint=104.16.1.1 ipv6hint=2606:4700::1
www IN CNAME a.com.
";
        let recs = parse_zone_text(text, &DnsName::root()).unwrap();
        assert_eq!(recs.len(), 5);
        let rendered = to_zone_text(&recs);
        let reparsed = parse_zone_text(&rendered, &DnsName::root()).unwrap();
        assert_eq!(reparsed, recs);
    }

    #[test]
    fn unknown_type_generic_syntax() {
        let r =
            parse_record_line("a.com. 60 IN TYPE999 \\# 3 010203", &origin(), 60).unwrap().unwrap();
        assert_eq!(r.rtype, RecordType::Unknown(999));
        assert_eq!(r.rdata, RData::Unknown(vec![1, 2, 3]));
        let line = r.to_presentation();
        let back = parse_record_line(&line, &origin(), 60).unwrap().unwrap();
        assert_eq!(back.rdata, r.rdata);
    }

    #[test]
    fn bad_lines_rejected() {
        assert!(parse_record_line("a.com. 60 IN BOGUS x", &origin(), 60).is_err());
        assert!(parse_record_line("a.com. 60 IN A not-an-ip", &origin(), 60).is_err());
        assert!(parse_record_line("a.com. 60 IN HTTPS", &origin(), 60).is_err());
        assert!(parse_record_line("a.com. 60 IN HTTPS one .", &origin(), 60).is_err());
        assert!(parse_record_line("a.com. 60 IN MX 10", &origin(), 60).is_err());
    }

    #[test]
    fn malformed_ech_token_rejected() {
        // The §5.3 "malformed ECH configuration" copy-paste-typo case:
        // invalid base64 must be rejected at zone-load time by a correct
        // implementation (the testbed bypasses this to serve malformed ECH).
        assert!(
            parse_record_line("a.com. 60 IN HTTPS 1 . ech=!!notbase64!!", &origin(), 60).is_err()
        );
    }

    #[test]
    fn soa_fields() {
        let r = parse_record_line(
            "a.com. 3600 IN SOA ns1.a.com. hostmaster.a.com. 2024033101 7200 3600 1209600 300",
            &origin(),
            60,
        )
        .unwrap()
        .unwrap();
        match r.rdata {
            RData::Soa(soa) => {
                assert_eq!(soa.serial, 2024033101);
                assert_eq!(soa.minimum, 300);
            }
            other => panic!("wrong rdata: {other:?}"),
        }
    }
}
