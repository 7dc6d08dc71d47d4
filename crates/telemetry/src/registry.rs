//! The labelled metrics registry.
//!
//! A [`MetricsRegistry`] names and owns a set of [`Counter`]s and
//! [`Histogram`]s. Registration (first lookup of a name) takes a short
//! mutex on a `BTreeMap`; after that, recorders hold an
//! `Arc<Counter>`/`Arc<Histogram>` and never touch the registry again,
//! so the hot path stays lock-free. One registry is typically attached
//! per engine (the scanner labels one per vantage point).
//!
//! Exports honour the crate's determinism split:
//! [`counters_text`](MetricsRegistry::counters_text) renders *only* the
//! deterministic classes — counters plus **deterministic histograms**
//! ([`det_histogram`](MetricsRegistry::det_histogram), fed exclusively
//! from outcome-derived values such as virtual-time latencies, never
//! from wall clocks) — in sorted-name order, and is the byte-identical
//! snapshot the determinism suite pins across thread counts.
//! [`render_text`](MetricsRegistry::render_text) adds the wall-clock
//! histogram class for human consumption.

use crate::counter::Counter;
use crate::histogram::Histogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

/// A labelled set of named counters and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    label: String,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Histograms over *outcome-derived* values (virtual-time latencies,
    /// counts), which the batch determinism contract makes thread-count
    /// invariant — so they render into the pinned snapshot, unlike the
    /// wall-clock `histograms` class.
    det_histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry with the given label (e.g. a vantage name).
    pub fn new(label: &str) -> MetricsRegistry {
        MetricsRegistry { label: label.to_string(), ..MetricsRegistry::default() }
    }

    /// The registry's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock();
        match counters.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::new());
                counters.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock();
        match histograms.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new());
                histograms.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Get or create the *deterministic* histogram named `name`. Only
    /// record outcome-derived values here (virtual-time latencies, queue
    /// shapes derived from inputs) — never wall-clock measurements: this
    /// class is rendered into [`counters_text`](Self::counters_text) and
    /// pinned byte-identical across thread counts.
    pub fn det_histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.det_histograms.lock();
        match histograms.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new());
                histograms.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Current value of counter `name` (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.lock().get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Sorted `(name, value)` snapshot of every counter — the
    /// deterministic metric class.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.counters.lock().iter().map(|(n, c)| (n.clone(), c.get())).collect()
    }

    /// Canonical text rendering of the deterministic metric classes:
    /// one `counter <name> <value>` line per counter, then one
    /// `det_histogram <name> …` block (summary plus occupied buckets)
    /// per deterministic histogram, each class sorted by name.
    /// Byte-identical across worker thread counts — this is the string
    /// the determinism suite pins.
    pub fn counters_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counter_snapshot() {
            let _ = writeln!(out, "counter {name} {value}");
        }
        let det = self.det_histograms.lock();
        for (name, h) in det.iter() {
            let s = h.snapshot();
            let _ = writeln!(out, "det_histogram {name} {s}");
            for (lo, hi, count) in s.occupied() {
                let _ = writeln!(out, "  bucket {lo}..={hi} {count}");
            }
        }
        out
    }

    /// Full human-readable report: label, deterministic counters and
    /// histograms, then wall-clock histograms with quantiles and
    /// occupied buckets.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "# registry {}", if self.label.is_empty() { "-" } else { &self.label });
        out.push_str(&self.counters_text());
        let histograms = self.histograms.lock();
        for (name, h) in histograms.iter() {
            let s = h.snapshot();
            let _ = writeln!(out, "histogram {name} {s}");
            for (lo, hi, count) in s.occupied() {
                let _ = writeln!(out, "  bucket {lo}..={hi} {count}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let reg = MetricsRegistry::new("test");
        reg.counter("a").add(2);
        reg.counter("a").inc();
        assert_eq!(reg.counter_value("a"), 3);
        assert_eq!(reg.counter_value("never"), 0);
    }

    #[test]
    fn counters_text_is_sorted_and_stable() {
        let reg = MetricsRegistry::new("v");
        reg.counter("zeta").inc();
        reg.counter("alpha").add(4);
        assert_eq!(reg.counters_text(), "counter alpha 4\ncounter zeta 1\n");
        // Registration order does not matter.
        let reg2 = MetricsRegistry::new("v");
        reg2.counter("alpha").add(4);
        reg2.counter("zeta").inc();
        assert_eq!(reg.counters_text(), reg2.counters_text());
    }

    #[test]
    fn det_histograms_render_into_the_pinned_snapshot() {
        let reg = MetricsRegistry::new("v");
        reg.counter("engine.queries").add(3);
        reg.det_histogram("engine.vt_query_ms").record(20);
        reg.det_histogram("engine.vt_query_ms").record(0);
        let text = reg.counters_text();
        assert!(text.contains("counter engine.queries 3"));
        assert!(text.contains("det_histogram engine.vt_query_ms count=2"));
        assert!(text.contains("  bucket 0..=0 1"));
        assert!(text.contains("  bucket 16..=31 1"));
        // Wall-clock histograms stay out of the pinned snapshot.
        reg.histogram("engine.batch_us").record(123);
        assert!(!reg.counters_text().contains("engine.batch_us"));
        assert!(reg.render_text().contains("histogram engine.batch_us"));
    }

    #[test]
    fn render_text_includes_histograms() {
        let reg = MetricsRegistry::new("isp");
        reg.counter("engine.batches").inc();
        reg.histogram("wave_us").record(900);
        let text = reg.render_text();
        assert!(text.starts_with("# registry isp\n"));
        assert!(text.contains("counter engine.batches 1"));
        assert!(text.contains("histogram wave_us count=1"));
        assert!(text.contains("bucket 512..=1023 1"));
    }
}
