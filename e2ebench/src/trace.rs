//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the program: the benchmark wraps each
//! call into a layer's public function in [`Tracer::span`]. Records
//! stay in memory until the run ends, when [`Tracer::dump_json`]
//! writes them out. A layer's self time is its span minus the part of
//! that interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = a root).
    pub parent: u64,
    /// Layer name, e.g. `underhood.encrypt_query`.
    pub name: &'static str,
    /// Operation the span belongs to (shared by all spans of one
    /// request or iteration).
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans on this thread, innermost last: `(span id, op)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every submitter thread of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the root span of operation `op` on this thread.
    pub fn root<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, Some(op), f)
    }

    /// Runs `f` as a child of the innermost open span on this thread
    /// (a root of operation 0 if none is open).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, None, f)
    }

    fn enter<R>(&self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = STACK.with(|s| {
            let s = s.borrow();
            match (op, s.last()) {
                (Some(op), _) => (0, op),
                (None, Some(&(pid, pop))) => (pid, pop),
                (None, None) => (0, 0),
            }
        });
        STACK.with(|s| s.borrow_mut().push((id, op)));
        let start_ns = self.now_ns();
        // The stack entry must be popped even if `f` panics, or later
        // spans on this thread would nest under a dead parent.
        struct Pop;
        impl Drop for Pop {
            fn drop(&mut self) {
                STACK.with(|s| s.borrow_mut().pop());
            }
        }
        let pop = Pop;
        let out = f();
        let end_ns = self.now_ns();
        drop(pop);
        self.spans
            .lock()
            .expect("span buffer lock")
            .push(SpanRecord {
                id,
                parent,
                name,
                op,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span buffer lock").clone()
    }
}

/// Runs `f` inside a span when tracing, or just runs it.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// The layer spans of the operations whose roots are named in
/// `roots`: every non-root span descending from such a root.
fn layer_spans<'s>(spans: &'s [SpanRecord], roots: &[&str]) -> Vec<&'s SpanRecord> {
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let root_name = |s: &SpanRecord| {
        let mut cur = s;
        while let Some(p) = by_id.get(&cur.parent) {
            cur = p;
        }
        (cur.parent == 0).then_some(cur.name)
    };
    spans
        .iter()
        .filter(|s| s.parent != 0 && root_name(s).is_some_and(|r| roots.contains(&r)))
        .collect()
}

/// Per-operation self time of each layer, in microseconds:
/// `layer -> [one entry per operation that ran the layer]`.
/// Operations are identified by their root spans, named in `roots`.
pub fn layer_self_us(spans: &[SpanRecord], roots: &[&str]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(spans);
    let mut per: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for s in layer_spans(spans, roots) {
        *per.entry((s.name, s.op)).or_default() += selfs[&s.id];
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per {
        out.entry(name).or_default().push(ns as f64 / 1e3);
    }
    out
}

/// Sum of the self times of every layer span under the roots named in
/// `roots`, over the roots' summed duration: the share of traced
/// operation time that some layer span accounts for.
pub fn coverage(spans: &[SpanRecord], roots: &[&str]) -> f64 {
    let selfs = self_times(spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent == 0 && roots.contains(&s.name))
        .map(|s| s.dur_ns())
        .sum();
    let layers: u64 = layer_spans(spans, roots).iter().map(|s| selfs[&s.id]).sum();
    if total == 0 {
        return 0.0;
    }
    layers as f64 / total as f64
}

/// Durations in microseconds of the roots named `root`.
pub fn root_us(spans: &[SpanRecord], root: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

impl Tracer {
    /// The span dump as JSON: one object per span, with its self time.
    pub fn dump_json(&self) -> String {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{sep}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, selfs[&s.id]
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, 0, "op", 0, 100),
            rec(2, 1, "a", 10, 40),
            rec(3, 1, "b", 30, 60),
            rec(4, 2, "c", 15, 20),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 50);
        assert_eq!(s[&2], 30 - 5);
        assert_eq!(s[&3], 30);
        assert_eq!(s[&4], 5);
        // Layer self times (a + b + c) cover the op minus its own gap.
        assert!((coverage(&spans, &["op"]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_get_parents_and_the_op_of_their_root() {
        let t = Tracer::new();
        t.root("op", 7, || {
            t.span("outer", || t.span("inner", || ()));
        });
        let spans = t.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span").clone();
        let (op, outer, inner) = (by_name("op"), by_name("outer"), by_name("inner"));
        assert_eq!(op.parent, 0);
        assert_eq!(outer.parent, op.id);
        assert_eq!(inner.parent, outer.id);
        assert!(spans.iter().all(|s| s.op == 7));
        let layers = layer_self_us(&spans, &["op"]);
        assert_eq!(layers.len(), 2);
        assert!(layers.contains_key("inner") && layers.contains_key("outer"));
    }
}
