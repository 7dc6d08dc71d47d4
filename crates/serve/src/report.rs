//! Serving results: per-phase reports and the sweep-level
//! [`ServeReport`].
//!
//! Every number here derives from virtual time or deterministic
//! counters, and the canonical text renderings use fixed-precision
//! formatting, so two runs of the same sweep produce byte-identical
//! strings — the property the determinism tests byte-compare.

use resolver::EvictionPolicy;
use std::fmt::Write;

/// The achieved/offered ratio below which a phase counts as saturated.
pub const SATURATION_THRESHOLD: f64 = 0.95;

/// One load phase's results.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Nominal offered load, thousand queries per virtual second.
    pub offered_kqps: f64,
    /// Queries that arrived (and were served) in the phase window.
    pub queries: u64,
    /// Realized arrival rate (`queries / window`) — the Poisson
    /// processes fluctuate a few percent around the nominal offer, so
    /// saturation is judged against this, not against
    /// [`offered_kqps`](Self::offered_kqps).
    pub arrived_kqps: f64,
    /// Achieved throughput: completions over the span from phase start
    /// to the last completion (which extends past the window when the
    /// backlog grows — i.e. under saturation).
    pub achieved_kqps: f64,
    /// Fraction of queries answered from the resolver cache.
    pub hit_rate: f64,
    /// Median virtual-time latency (queue wait + service + miss
    /// penalty), microseconds.
    pub p50_us: u64,
    /// 99th-percentile virtual-time latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile virtual-time latency, microseconds.
    pub p999_us: u64,
    /// Queries that failed to resolve.
    pub failures: u64,
    /// Cache capacity evictions during the phase.
    pub evictions: u64,
    /// TTL-expired entries swept during the phase.
    pub swept: u64,
    /// Hit rate per eighth of the phase window (the warm-up series).
    pub hit_series: Vec<f64>,
}

impl PhaseReport {
    /// Whether the phase failed to keep up with the load that actually
    /// arrived: the busy period ran more than `1/0.95` of the arrival
    /// window, i.e. the backlog grew instead of draining.
    pub fn saturated(&self) -> bool {
        self.achieved_kqps < self.arrived_kqps * SATURATION_THRESHOLD
    }

    /// Canonical one-line rendering.
    pub fn canonical_line(&self) -> String {
        let series: Vec<String> = self.hit_series.iter().map(|h| format!("{h:.4}")).collect();
        format!(
            "offered_kqps={:.3} queries={} arrived_kqps={:.3} achieved_kqps={:.3} \
             hit_rate={:.4} p50_us={} p99_us={} p999_us={} failures={} evictions={} swept={} \
             saturated={} series={}",
            self.offered_kqps,
            self.queries,
            self.arrived_kqps,
            self.achieved_kqps,
            self.hit_rate,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.failures,
            self.evictions,
            self.swept,
            self.saturated(),
            series.join(",")
        )
    }
}

/// A full load sweep's results.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Eviction policy of the engine's cache (when bounded). It has one
    /// value; the field stays for the `policy=` header, which the
    /// benchmark harness digests.
    pub policy: EvictionPolicy,
    /// Per-shard capacity bound (`None` = unbounded).
    pub capacity_per_shard: Option<usize>,
    /// Stub clients generating load.
    pub clients: usize,
    /// Virtual service workers in the queueing model.
    pub workers: usize,
    /// Per-phase results, in ramp order.
    pub phases: Vec<PhaseReport>,
}

impl ServeReport {
    /// Highest offered kq/s the engine sustained (achieved ≥ 95% of
    /// offered); 0 if every phase saturated.
    pub fn sustained_kqps(&self) -> f64 {
        self.phases.iter().filter(|p| !p.saturated()).map(|p| p.offered_kqps).fold(0.0, f64::max)
    }

    /// Whether any phase saturated (the sweep found the knee).
    pub fn saturated(&self) -> bool {
        self.phases.iter().any(|p| p.saturated())
    }

    /// The p99 latency (µs) of the highest non-saturated phase, if any.
    pub fn p99_at_sustained_us(&self) -> Option<u64> {
        self.phases
            .iter()
            .filter(|p| !p.saturated())
            .max_by(|a, b| a.offered_kqps.total_cmp(&b.offered_kqps))
            .map(|p| p.p99_us)
    }

    /// Canonical multi-line rendering; byte-identical across runs and
    /// host thread counts.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        let capacity = match self.capacity_per_shard {
            Some(c) => c.to_string(),
            None => "unbounded".to_string(),
        };
        let _ = writeln!(
            out,
            "serve policy={} capacity_per_shard={} clients={} workers={}",
            self.policy, capacity, self.clients, self.workers
        );
        for (i, phase) in self.phases.iter().enumerate() {
            let _ = writeln!(out, "phase {i:02} {}", phase.canonical_line());
        }
        let _ = writeln!(
            out,
            "sustained_kqps={:.3} saturated={}",
            self.sustained_kqps(),
            self.saturated()
        );
        out
    }
}
