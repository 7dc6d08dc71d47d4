//! Property test pinning the sharded cache's behavioural invariance:
//! for any scripted sequence of inserts, lookups, clock advances, and
//! flushes, a 1-shard cache and a 16-shard cache return the same
//! answers and aggregate the same statistics.

use dns_wire::{DnsName, RData, Rcode, Record, RecordType};
use netsim::Timestamp;
use proptest::prelude::*;
use resolver::{RecordCache, RrSet};
use std::net::Ipv4Addr;

/// One scripted cache operation over a small universe of owner names.
#[derive(Debug, Clone)]
enum Op {
    /// Insert an A RRset for domain `d` with TTL `ttl`.
    InsertPositive { d: u8, ttl: u32 },
    /// Insert an NXDOMAIN entry for domain `d` with TTL `ttl`.
    InsertNegative { d: u8, ttl: u32 },
    /// Look up domain `d` (both record types).
    Get { d: u8 },
    /// Advance the scripted clock.
    Advance { secs: u32 },
    /// Flush everything.
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, 0u32..600).prop_map(|(d, ttl)| Op::InsertPositive { d, ttl }),
        (0u8..12, 0u32..600).prop_map(|(d, ttl)| Op::InsertNegative { d, ttl }),
        (0u8..12).prop_map(|d| Op::Get { d }),
        (1u32..400).prop_map(|secs| Op::Advance { secs }),
        Just(Op::Flush),
    ]
}

fn name_of(d: u8) -> DnsName {
    DnsName::parse(&format!("domain-{d}.shard-prop.example")).expect("valid name")
}

fn a_record(d: u8, ttl: u32) -> Record {
    Record::new(name_of(d), ttl, RData::A(Ipv4Addr::new(192, 0, 2, d)))
}

fn a_set(d: u8, ttl: u32) -> RrSet {
    RrSet::from_records(&[a_record(d, ttl)], &[])
}

proptest! {
    #[test]
    fn the_number_of_shards_does_not_change_behaviour(ops in proptest::collection::vec(arb_op(), 1..100)) {
        let one = RecordCache::with_config(1, None);
        let sixteen = RecordCache::with_config(16, None);
        let mut now = Timestamp(0);
        for op in &ops {
            match *op {
                Op::InsertPositive { d, ttl } => {
                    let n = name_of(d);
                    one.insert_positive(&n, RecordType::A, a_set(d, ttl), now);
                    sixteen.insert_positive(&n, RecordType::A, a_set(d, ttl), now);
                }
                Op::InsertNegative { d, ttl } => {
                    let n = name_of(d);
                    one.insert_negative(&n, RecordType::Https, Rcode::NxDomain, ttl, now);
                    sixteen.insert_negative(&n, RecordType::Https, Rcode::NxDomain, ttl, now);
                }
                Op::Get { d } => {
                    let n = name_of(d);
                    prop_assert_eq!(
                        one.get(&n, RecordType::A, now),
                        sixteen.get(&n, RecordType::A, now)
                    );
                    prop_assert_eq!(
                        one.get(&n, RecordType::Https, now),
                        sixteen.get(&n, RecordType::Https, now)
                    );
                    prop_assert_eq!(
                        one.expires_at(&n, RecordType::A, now),
                        sixteen.expires_at(&n, RecordType::A, now)
                    );
                }
                Op::Advance { secs } => now = now.plus(secs as u64),
                Op::Flush => {
                    one.flush();
                    sixteen.flush();
                }
            }
            // Aggregate views agree after every step, not just at the end.
            prop_assert_eq!(one.len(), sixteen.len());
        }
        prop_assert_eq!(one.stats(), sixteen.stats());
        prop_assert_eq!(one.is_empty(), sixteen.is_empty());
    }
}
