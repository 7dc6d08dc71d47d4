//! Name servers whose replies a resolver must refuse — replies that do
//! not answer the query in flight (RFC 5452 §4), and well-formed replies
//! holding RDATA that does not decode — shared by `failure_injection`
//! (synchronous backend) and `event_backend`, each of which binds them
//! into its own two-server world for `a.com`.

use dns_wire::{DnsName, Message, RData, Record, RecordType};
use netsim::{DatagramService, NetError, Timestamp};

/// How a reply fails to match the query it is sent back for.
#[derive(Debug, Clone, Copy)]
pub enum Mismatch {
    /// The right question under another transaction id.
    WrongId,
    /// A well-formed response to a question nobody asked.
    OtherQuestion,
    /// The query itself, QR bit clear.
    Echo,
}

/// Every kind of mismatch.
pub const MISMATCHES: [Mismatch; 3] = [Mismatch::WrongId, Mismatch::OtherQuestion, Mismatch::Echo];

/// The name whose forged A record the mismatched responses carry.
pub fn victim() -> DnsName {
    DnsName::parse("victim.example").unwrap()
}

impl DatagramService for Mismatch {
    fn handle(&self, request: &[u8], _now: Timestamp, out: &mut Vec<u8>) -> Result<(), NetError> {
        let query = Message::decode(request).map_err(|_| NetError::Reset)?;
        let mut reply = match self {
            Mismatch::Echo => {
                *out = request.to_vec();
                return Ok(());
            }
            Mismatch::WrongId => Message { id: query.id.wrapping_add(1), ..query.response() },
            Mismatch::OtherQuestion => {
                Message::query_dnssec(query.id, victim(), RecordType::A).response()
            }
        };
        reply.answers.push(Record::new(victim(), 3600, RData::A("6.6.6.6".parse().unwrap())));
        *out = reply.encode();
        Ok(())
    }
}

/// An answer record whose RDATA does not decode, in an otherwise
/// well-formed reply.
#[derive(Debug, Clone, Copy)]
pub enum BadRdata {
    /// An HTTPS record whose `alpn` SvcParam claims 5 octets and holds 3.
    TruncatedSvcParam,
    /// An A record of 3 octets.
    ShortA,
}

/// Every kind of undecodable answer.
pub const BAD_RDATA: [BadRdata; 2] = [BadRdata::TruncatedSvcParam, BadRdata::ShortA];

impl DatagramService for BadRdata {
    /// The reply to the query asked, answering it with a decodable A
    /// record for [`victim`] and then, owned by the question name, the
    /// undecodable record.
    fn handle(&self, request: &[u8], _now: Timestamp, out: &mut Vec<u8>) -> Result<(), NetError> {
        let query = Message::decode(request).map_err(|_| NetError::Reset)?;
        let mut reply = query.response();
        reply.edns = None; // keep the answer section last
        reply.answers.push(Record::new(victim(), 3600, RData::A("6.6.6.6".parse().unwrap())));
        let mut bytes = reply.encode();
        let (rtype, rdata): (RecordType, &[u8]) = match self {
            // Priority 1, target ".", then key 1 (alpn), length 5.
            BadRdata::TruncatedSvcParam => {
                (RecordType::Https, &[0, 1, 0, 0, 1, 0, 5, 2, b'h', b'2'])
            }
            BadRdata::ShortA => (RecordType::A, &[1, 2, 3]),
        };
        bytes[7] += 1; // ANCOUNT
        bytes.extend_from_slice(&[0xC0, 12]); // owner: the question name
        bytes.extend_from_slice(&rtype.code().to_be_bytes());
        bytes.extend_from_slice(&1u16.to_be_bytes());
        bytes.extend_from_slice(&3600u32.to_be_bytes());
        bytes.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        bytes.extend_from_slice(rdata);
        *out = bytes;
        Ok(())
    }
}
