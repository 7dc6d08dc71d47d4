//! Error types for DNS wire-format and presentation-format processing.

use core::fmt;

/// Errors produced while decoding DNS wire data.
///
/// Decoding never panics on malformed input: every failure mode observed in
/// the wild (truncation, label overruns, compression loops, bad parameter
/// encodings) maps to a variant here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated {
        /// What was being decoded when the data ran out.
        context: &'static str,
    },
    /// A domain-name label exceeded 63 octets.
    LabelTooLong(usize),
    /// A domain name exceeded 255 octets in wire form.
    NameTooLong(usize),
    /// A compression pointer pointed at or after its own location, the
    /// pointer chain exceeded the loop budget, or the pointer stood in a
    /// name that is never compressed (an SVCB TargetName).
    BadCompressionPointer {
        /// Byte offset of the offending pointer.
        at: usize,
    },
    /// A label type other than `00` (normal) or `11` (pointer) was seen.
    UnsupportedLabelType(u8),
    /// An RDATA length field disagreed with the actual encoded content.
    RdataLengthMismatch {
        /// Declared RDLENGTH.
        declared: usize,
        /// Bytes actually consumed.
        consumed: usize,
    },
    /// An SvcParam was structurally invalid (e.g. odd-length ipv4hint).
    InvalidSvcParam {
        /// The numeric SvcParamKey.
        key: u16,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// SvcParamKeys were not in strictly increasing order (RFC 9460 §2.2).
    SvcParamsOutOfOrder,
    /// A value field held an out-of-range or meaningless value.
    InvalidValue {
        /// What was being decoded.
        context: &'static str,
    },
    /// Trailing bytes remained after a complete structure was decoded.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "truncated input while decoding {context}")
            }
            WireError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63-octet limit"),
            WireError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255-octet limit"),
            WireError::BadCompressionPointer { at } => {
                write!(f, "invalid compression pointer at offset {at}")
            }
            WireError::UnsupportedLabelType(b) => write!(f, "unsupported label type {b:#04x}"),
            WireError::RdataLengthMismatch { declared, consumed } => {
                write!(f, "RDLENGTH {declared} disagrees with {consumed} bytes consumed")
            }
            WireError::InvalidSvcParam { key, reason } => {
                write!(f, "invalid SvcParam key{key}: {reason}")
            }
            WireError::SvcParamsOutOfOrder => write!(f, "SvcParamKeys not strictly increasing"),
            WireError::InvalidValue { context } => write!(f, "invalid value in {context}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after structure"),
        }
    }
}

impl std::error::Error for WireError {}

/// Errors produced while parsing presentation-format (zone-file) text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A required field was absent.
    MissingField(&'static str),
    /// A field failed to parse.
    BadField {
        /// Field name.
        field: &'static str,
        /// Offending token.
        token: String,
    },
    /// The record type mnemonic was not recognized.
    UnknownType(String),
    /// A domain name in the text was invalid.
    BadName(String),
    /// An SvcParam in the text was invalid.
    BadSvcParam(String),
    /// Unexpected extra tokens at end of entry.
    TrailingTokens(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingField(name) => write!(f, "missing field: {name}"),
            ParseError::BadField { field, token } => write!(f, "bad {field}: {token:?}"),
            ParseError::UnknownType(t) => write!(f, "unknown record type {t:?}"),
            ParseError::BadName(n) => write!(f, "bad domain name {n:?}"),
            ParseError::BadSvcParam(p) => write!(f, "bad SvcParam {p:?}"),
            ParseError::TrailingTokens(t) => write!(f, "trailing tokens: {t:?}"),
        }
    }
}

impl std::error::Error for ParseError {}
