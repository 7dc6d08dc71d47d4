//! In-memory span recorder for the traced run. Spans are opened and
//! closed from the benchmark's own code, around calls into the
//! program's public functions; nothing inside the program is touched.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// One timed call. `parent` is the id of the span that was open when
/// this one started (`None` for the root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans on one thread; kept in memory until the run ends.
/// A disabled tracer records nothing: the untraced reps run the same
/// workload code with every `enter`/`exit` reduced to one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one. Returns
    /// its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds, indexed by span id: the
/// span's duration minus the durations of its direct children.
/// (Children of one parent never overlap: the recorder is
/// single-threaded and closes innermost-first.)
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time summed by span name under the subtree rooted at `root`,
/// ranked largest first: `(name, self seconds, calls)`.
pub fn ranked_self_time(spans: &[Span], root: usize) -> Vec<(String, f64, usize)> {
    let own = self_times_ns(spans);
    let mut inside = vec![false; spans.len()];
    let mut by_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    // Ids are handed out in opening order, so a parent's id is always
    // below its children's and one forward pass settles membership.
    for s in spans {
        inside[s.id] = s.id == root || s.parent.is_some_and(|p| inside[p]);
        if inside[s.id] {
            let e = by_name.entry(&s.name).or_default();
            e.0 += own[s.id];
            e.1 += 1;
        }
    }
    let mut ranked: Vec<(String, f64, usize)> = by_name
        .into_iter()
        .map(|(n, (ns, calls))| (n.to_string(), ns as f64 / 1e9, calls))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
}

/// The span file: one JSON array of `{id, name, start_ns, end_ns,
/// parent}` objects.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "  {{\"id\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
            s.id,
            crate::json::string(&s.name),
            s.start_ns,
            s.end_ns,
            parent
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { id, name: name.to_string(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 { a 10..40 { a1 15..25 }, b 50..90 { b1 50..60, b2 70..90 } }
        let spans = vec![
            span(0, "root", 0, 100, None),
            span(1, "a", 10, 40, Some(0)),
            span(2, "leaf", 15, 25, Some(1)),
            span(3, "b", 50, 90, Some(0)),
            span(4, "leaf", 50, 60, Some(3)),
            span(5, "leaf", 70, 90, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 10, 10, 20]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn ranking_sums_by_name_within_the_subtree() {
        let spans = vec![
            span(0, "root", 0, 100, None),
            span(1, "a", 10, 40, Some(0)),
            span(2, "leaf", 15, 25, Some(1)),
            span(3, "b", 50, 90, Some(0)),
            span(4, "leaf", 50, 60, Some(3)),
            span(5, "leaf", 70, 90, Some(3)),
        ];
        let all = ranked_self_time(&spans, 0);
        assert_eq!(all[0], ("leaf".to_string(), 40e-9, 3));
        assert_eq!(all[1], ("root".to_string(), 30e-9, 1));
        let under_b = ranked_self_time(&spans, 3);
        assert_eq!(under_b, vec![("leaf".to_string(), 30e-9, 2), ("b".to_string(), 10e-9, 1)]);
    }

    #[test]
    fn recorder_links_parents_and_orders_ids() {
        let mut t = Tracer::new(true);
        let root = t.enter("root");
        t.span("child", || ());
        let second = t.enter("child");
        t.span("grandchild", || ());
        t.exit(second);
        t.exit(root);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        let id = off.enter("root");
        off.span("child", || ());
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
