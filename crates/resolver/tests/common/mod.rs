//! Name servers whose replies do not answer the query in flight
//! (RFC 5452 §4) — shared by `failure_injection` (synchronous backend)
//! and `event_backend`, each of which binds them into its own
//! two-server world for `a.com`.

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
    fn handle(&self, request: &[u8], _now: Timestamp) -> Result<Vec<u8>, NetError> {
        let query = Message::decode(request).map_err(|_| NetError::Reset)?;
        let mut reply = match self {
            Mismatch::Echo => return Ok(request.to_vec()),
            Mismatch::WrongId => Message { id: query.id.wrapping_add(1), ..query.response() },
            Mismatch::OtherQuestion => {
                Message::query_dnssec(query.id, victim(), RecordType::A).response()
            }
        };
        reply.answers.push(Record::new(victim(), 3600, RData::A("6.6.6.6".parse().unwrap())));
        Ok(reply.encode())
    }
}
