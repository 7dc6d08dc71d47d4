//! Name servers whose replies do not answer the query in flight
//! (RFC 5452 §4), and a two-server world to put them in — shared by
//! `failure_injection` (synchronous backend) and `event_backend`.

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use dns_wire::{DnsName, Message, RData, Record, RecordType};
use netsim::{DatagramService, NetError, Network, SimClock, Timestamp};
use std::sync::Arc;

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

/// `a.com` (A 1.2.3.4) delegated to two servers: 10.0.0.1 answers every
/// query with a `first` mismatch; 10.0.0.2 does the same with `second`,
/// or serves the zone honestly when that is `None`.
pub fn mismatch_world(first: Mismatch, second: Option<Mismatch>) -> (Network, DelegationRegistry) {
    let honest = || -> Arc<dyn DatagramService> {
        let a_com = DnsName::parse("a.com").unwrap();
        let mut zone = Zone::new(a_com.clone());
        zone.add(Record::new(a_com, 60, RData::A("1.2.3.4".parse().unwrap())));
        let zones = ZoneSet::new();
        zones.insert(zone);
        Arc::new(AuthoritativeServer::new(zones))
    };
    let net = Network::new(SimClock::new());
    net.bind_datagram("10.0.0.1".parse().unwrap(), 53, Arc::new(first));
    net.bind_datagram(
        "10.0.0.2".parse().unwrap(),
        53,
        second.map_or_else(honest, |m| -> Arc<dyn DatagramService> { Arc::new(m) }),
    );
    let reg = DelegationRegistry::new();
    let endpoint = |n: u8| NsEndpoint {
        name: DnsName::parse(&format!("ns{n}.x.net")).unwrap(),
        ip: format!("10.0.0.{n}").parse().unwrap(),
    };
    reg.delegate(&DnsName::parse("a.com").unwrap(), vec![endpoint(1), endpoint(2)]);
    (net, reg)
}
