//! Per-link latency and loss modelling for the simulated network.
//!
//! A [`LinkModel`] decides, for each datagram send, whether the exchange
//! survives and how long the round trip takes in *virtual* milliseconds.
//! Every decision is a pure function of `(model seed, destination,
//! payload, attempt)`, drawn through a splitmix64 mix — no RNG state is
//! consumed, so the model is trivially thread-count invariant and a
//! retransmit (same payload, higher attempt number) re-draws both fate
//! and RTT exactly the way a real retransmitted packet meets fresh
//! network conditions.
//!
//! A [`Network`](crate::Network) carries no model until one is
//! installed, and its scheduled path then behaves as
//! [`LinkModel::zero`]: no latency, no loss. The synchronous
//! [`Network::send_datagram`](crate::Network::send_datagram) path ignores
//! the model entirely; installing one moves the resolver's batches onto
//! the scheduled path.

use std::collections::HashMap;
use std::net::IpAddr;

/// What the link decided about one datagram exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// The request and its reply both survive; the round trip takes
    /// `rtt_ms` virtual milliseconds.
    Deliver {
        /// Round-trip time in virtual milliseconds.
        rtt_ms: u64,
    },
    /// The request or the reply was lost in flight; the caller will
    /// never hear back and can only time out.
    Drop,
}

/// Per-endpoint behaviour override: slow, lossy, or outright mute
/// ("lame" in the paper's sense of a delegation that never answers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointOverride {
    /// Extra round-trip milliseconds added on top of the link base RTT.
    pub extra_rtt_ms: u64,
    /// Loss probability in permille for this endpoint, replacing the
    /// link-wide loss rate. `None` keeps the link-wide rate.
    pub loss_permille: Option<u16>,
    /// The endpoint never answers at all (every exchange is a drop).
    pub mute: bool,
}

/// Seeded latency/loss model for the whole simulated network, with
/// per-endpoint overrides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkModel {
    seed: u64,
    base_rtt_ms: u64,
    jitter_ms: u64,
    loss_permille: u16,
    overrides: HashMap<IpAddr, EndpointOverride>,
}

impl LinkModel {
    /// The zero model: every exchange is delivered instantly. This is
    /// what the scheduled path does on a [`Network`](crate::Network) that
    /// carries no model.
    pub fn zero() -> LinkModel {
        LinkModel::default()
    }

    /// A model with only a seed set; configure with the builder methods.
    pub fn new(seed: u64) -> LinkModel {
        LinkModel { seed, ..LinkModel::default() }
    }

    /// Set the base round-trip time in milliseconds.
    pub fn with_rtt_ms(mut self, ms: u64) -> LinkModel {
        self.base_rtt_ms = ms;
        self
    }

    /// Set the RTT jitter: each exchange adds a deterministic draw from
    /// `0..=ms` on top of the base RTT.
    pub fn with_jitter_ms(mut self, ms: u64) -> LinkModel {
        self.jitter_ms = ms;
        self
    }

    /// Set the link-wide loss probability in permille (`10` = 1%).
    pub fn with_loss_permille(mut self, permille: u16) -> LinkModel {
        assert!(permille <= 1_000, "loss is a probability: at most 1000 permille");
        self.loss_permille = permille;
        self
    }

    /// Install a per-endpoint override (replacing any previous one).
    pub fn with_endpoint(mut self, ip: IpAddr, over: EndpointOverride) -> LinkModel {
        self.overrides.insert(ip, over);
        self
    }

    /// Mark an endpoint as slow: `extra_ms` added to every round trip.
    pub fn with_slow_endpoint(self, ip: IpAddr, extra_ms: u64) -> LinkModel {
        self.with_endpoint(ip, EndpointOverride { extra_rtt_ms: extra_ms, ..Default::default() })
    }

    /// Mark an endpoint as lame: it never answers.
    pub fn with_lame_endpoint(self, ip: IpAddr) -> LinkModel {
        self.with_endpoint(ip, EndpointOverride { mute: true, ..Default::default() })
    }

    /// Decide the fate of one datagram exchange. Deterministic in
    /// `(seed, dst, payload, attempt)`.
    pub fn fate(&self, dst: IpAddr, payload: &[u8], attempt: u32) -> LinkFate {
        let over = self.overrides.get(&dst);
        if over.is_some_and(|o| o.mute) {
            return LinkFate::Drop;
        }
        let loss = over.and_then(|o| o.loss_permille).unwrap_or(self.loss_permille);
        let h = self.draw(dst, payload, attempt);
        if loss > 0 && (h % 1_000) < u64::from(loss) {
            return LinkFate::Drop;
        }
        let mut rtt = self.base_rtt_ms + over.map_or(0, |o| o.extra_rtt_ms);
        if self.jitter_ms > 0 {
            // Re-mix so the jitter draw is independent of the loss draw.
            rtt += splitmix64(h ^ 0x9e37_79b9_7f4a_7c15) % (self.jitter_ms + 1);
        }
        LinkFate::Deliver { rtt_ms: rtt }
    }

    /// One deterministic 64-bit draw per `(dst, payload, attempt)`.
    fn draw(&self, dst: IpAddr, payload: &[u8], attempt: u32) -> u64 {
        let mut h = self.seed ^ 0x6a09_e667_f3bc_c909;
        match dst {
            IpAddr::V4(v4) => {
                h = splitmix64(h ^ u64::from(u32::from(v4)));
            }
            IpAddr::V6(v6) => {
                let o = v6.octets();
                h = splitmix64(h ^ u64::from_le_bytes(o[..8].try_into().unwrap()));
                h = splitmix64(h ^ u64::from_le_bytes(o[8..].try_into().unwrap()));
            }
        }
        h = splitmix64(h ^ fnv1a(payload));
        splitmix64(h ^ u64::from(attempt))
    }
}

/// FNV-1a over a byte slice (payload fingerprint for the draw).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn zero_model_delivers_instantly() {
        let m = LinkModel::zero();
        assert_eq!(m.fate(ip("10.0.0.1"), b"q", 0), LinkFate::Deliver { rtt_ms: 0 });
    }

    #[test]
    fn fate_is_deterministic_and_attempt_sensitive() {
        let m = LinkModel::new(7).with_rtt_ms(20).with_jitter_ms(10);
        let a = m.fate(ip("10.0.0.1"), b"query", 0);
        assert_eq!(a, m.fate(ip("10.0.0.1"), b"query", 0), "same inputs, same fate");
        match a {
            LinkFate::Deliver { rtt_ms } => assert!((20..=30).contains(&rtt_ms)),
            LinkFate::Drop => panic!("lossless model must deliver"),
        }
        // Different attempts and different destinations re-draw jitter:
        // across a handful of tries at least one must differ.
        let varied = (0..8).map(|att| m.fate(ip("10.0.0.1"), b"query", att)).collect::<Vec<_>>();
        assert!(varied.iter().any(|f| *f != a), "jitter must vary across attempts");
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let m = LinkModel::new(11).with_loss_permille(100); // 10%
        let drops = (0..10_000u32)
            .filter(|&i| m.fate(ip("10.0.0.1"), &i.to_le_bytes(), 0) == LinkFate::Drop)
            .count();
        assert!((700..=1_300).contains(&drops), "~10% of 10k, got {drops}");
    }

    #[test]
    fn endpoint_overrides() {
        let slow = ip("10.0.0.9");
        let lame = ip("10.0.0.8");
        let m = LinkModel::new(3)
            .with_rtt_ms(20)
            .with_slow_endpoint(slow, 400)
            .with_lame_endpoint(lame);
        assert_eq!(m.fate(lame, b"q", 0), LinkFate::Drop);
        assert_eq!(m.fate(slow, b"q", 0), LinkFate::Deliver { rtt_ms: 420 });
        assert_eq!(m.fate(ip("10.0.0.1"), b"q", 0), LinkFate::Deliver { rtt_ms: 20 });
        // A per-endpoint loss override replaces the link-wide rate.
        let m = LinkModel::new(3).with_endpoint(
            lame,
            EndpointOverride { loss_permille: Some(1_000), ..Default::default() },
        );
        assert_eq!(m.fate(lame, b"q", 0), LinkFate::Drop);
        assert_ne!(m.fate(ip("10.0.0.1"), b"q", 0), LinkFate::Drop);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn loss_over_1000_permille_rejected() {
        let _ = LinkModel::new(0).with_loss_permille(1_001);
    }
}
