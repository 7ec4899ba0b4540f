//! The metrics registry: counters, gauges, fixed-bucket histograms, and
//! the span arena.

use crate::report::{RunReport, SpanNode};
use crate::ShardAttribution;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Default histogram bucket upper bounds: powers of four from 1 to 4^15,
/// covering counts-of-things and byte sizes alike with 16 fixed buckets
/// (plus one overflow bucket).
pub const DEFAULT_BUCKETS: &[u64] = &[
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864,
    268435456, 1073741824,
];

/// A fixed-bucket histogram: observations are counted into the first
/// bucket whose upper bound is `>=` the value, with an overflow bucket
/// past the last bound. Bounds never change after construction.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A histogram over [`DEFAULT_BUCKETS`].
    pub fn new() -> Histogram {
        Histogram::with_bounds(DEFAULT_BUCKETS)
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Rebuild a histogram from a snapshot (the inverse of
    /// [`Histogram::snapshot`]), used when merging a child registry's
    /// report into a parent that has no histogram under that name yet.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Histogram {
        Histogram {
            bounds: snap.bounds.clone(),
            counts: snap.counts.clone(),
            count: snap.count,
            sum: snap.sum,
            min: if snap.count == 0 { u64::MAX } else { snap.min },
            max: snap.max,
        }
    }

    /// Fold a child registry's snapshot into this histogram.
    ///
    /// Same bounds (the common case — both sides bucket with
    /// [`DEFAULT_BUCKETS`] or the same registered bounds): exact
    /// bucket-wise addition. Differing bounds: each foreign bucket's
    /// count is re-bucketed at that bucket's upper bound (overflow at
    /// the snapshot max), which preserves count/sum/min/max exactly and
    /// bucket shape approximately.
    pub fn merge_snapshot(&mut self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        if self.bounds == snap.bounds {
            for (mine, theirs) in self.counts.iter_mut().zip(&snap.counts) {
                *mine = mine.saturating_add(*theirs);
            }
        } else {
            for (i, &n) in snap.counts.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let value = snap.bounds.get(i).copied().unwrap_or(snap.max);
                let idx = self
                    .bounds
                    .iter()
                    .position(|&b| value <= b)
                    .unwrap_or(self.bounds.len());
                self.counts[idx] = self.counts[idx].saturating_add(n);
            }
        }
        self.count += snap.count;
        self.sum = self.sum.saturating_add(snap.sum);
        self.min = self.min.min(snap.min);
        self.max = self.max.max(snap.max);
    }

    /// Immutable snapshot for reports.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A read-only view of a [`Histogram`] at report time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
struct SpanRec {
    name: String,
    nanos: u64,
    children: Vec<usize>,
    /// Attribution attached via [`Registry::annotate`] or a shard merge:
    /// last write wins per key, insertion-ordered.
    meta: Vec<(String, u64)>,
}

/// Set `key` on a span's metadata, last-write-wins.
fn set_meta(meta: &mut Vec<(String, u64)>, key: &str, value: u64) {
    match meta.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => meta.push((key.to_string(), value)),
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRec>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

/// The recorder instrumented code reports into: accumulates counters,
/// gauges, histograms, and the span tree, and snapshots them into a
/// [`RunReport`].
///
/// Single-threaded by design (interior `RefCell`, shared via `Rc`), like
/// the simulation itself; each test thread installs its own.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RefCell<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Pre-register a histogram with explicit bucket bounds (observations
    /// to unknown names otherwise get [`DEFAULT_BUCKETS`]).
    pub fn register_histogram(&self, name: &str, bounds: &[u64]) {
        self.inner
            .borrow_mut()
            .histograms
            .insert(name.to_string(), Histogram::with_bounds(bounds));
    }

    /// Current value of a counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Append one report span node (and its subtree) into the arena,
    /// under `parent` (`None` ⇒ a new root). Returns the new node's id.
    fn attach_span(inner: &mut Inner, parent: Option<usize>, node: &SpanNode) -> usize {
        let id = inner.spans.len();
        inner.spans.push(SpanRec {
            name: node.name.clone(),
            nanos: node.nanos,
            children: Vec::new(),
            meta: node.meta.clone(),
        });
        match parent {
            Some(p) => inner.spans[p].children.push(id),
            None => inner.roots.push(id),
        }
        for child in &node.children {
            Registry::attach_span(inner, Some(id), child);
        }
        id
    }

    /// Snapshot everything recorded so far into a [`RunReport`]. Spans
    /// still open keep their zero duration.
    pub fn report(&self) -> RunReport {
        let inner = self.inner.borrow();
        fn build(spans: &[SpanRec], idx: usize) -> SpanNode {
            SpanNode {
                name: spans[idx].name.clone(),
                nanos: spans[idx].nanos,
                meta: spans[idx].meta.clone(),
                children: spans[idx]
                    .children
                    .iter()
                    .map(|&c| build(spans, c))
                    .collect(),
            }
        }
        RunReport {
            spans: inner
                .roots
                .iter()
                .map(|&r| build(&inner.spans, r))
                .collect(),
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Open a named region; returns an id handed back to
    /// [`Registry::span_exit`]. Nesting is implied by call order.
    pub fn span_enter(&self, name: &str) -> usize {
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        inner.spans.push(SpanRec {
            name: name.to_string(),
            nanos: 0,
            children: Vec::new(),
            meta: Vec::new(),
        });
        match inner.stack.last().copied() {
            Some(parent) => inner.spans[parent].children.push(id),
            None => inner.roots.push(id),
        }
        inner.stack.push(id);
        id
    }

    /// Close the region identified by `id` after `nanos` nanoseconds of
    /// monotonic wall-clock time.
    pub fn span_exit(&self, id: usize, nanos: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(rec) = inner.spans.get_mut(id) {
            rec.nanos = nanos;
        }
        // Guards drop LIFO; tolerate a leaked guard by popping through it.
        if let Some(pos) = inner.stack.iter().rposition(|&s| s == id) {
            inner.stack.truncate(pos);
        }
    }

    /// Add `delta` to the named counter (saturating).
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set the named gauge.
    pub fn gauge(&self, name: &str, value: i64) {
        self.inner
            .borrow_mut()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Attach `key = value` to the innermost open span — per-shard
    /// attribution, retry counts, item totals (dropped when no span is
    /// open — attribution without a span has nowhere to live).
    pub fn annotate(&self, key: &str, value: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(id) = inner.stack.last().copied() {
            set_meta(&mut inner.spans[id].meta, key, value);
        }
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Exact merge of a child worker's report: counters add saturating,
    /// gauges last-write-wins, histograms merge bucket-wise, and each
    /// child root span attaches under the currently open span (the span
    /// the parallel stage was entered from), so the merged tree has the
    /// same shape as a serial run — only the timings differ.
    ///
    /// With `attr`, every attached child root is also stamped with the
    /// worker's shard index, the number of items it processed, and —
    /// when the shard was quarantined and retried serially — a
    /// `quarantined` marker. Attribution is metadata only.
    pub fn merge_child(&self, report: &RunReport, attr: Option<&ShardAttribution>) {
        let mut inner = self.inner.borrow_mut();
        for (name, delta) in &report.counters {
            match inner.counters.get_mut(name) {
                Some(v) => *v = v.saturating_add(*delta),
                None => {
                    inner.counters.insert(name.clone(), *delta);
                }
            }
        }
        for (name, value) in &report.gauges {
            inner.gauges.insert(name.clone(), *value);
        }
        for (name, snap) in &report.histograms {
            match inner.histograms.get_mut(name) {
                Some(h) => h.merge_snapshot(snap),
                None => {
                    inner
                        .histograms
                        .insert(name.clone(), Histogram::from_snapshot(snap));
                }
            }
        }
        let parent = inner.stack.last().copied();
        for root in &report.spans {
            let id = Registry::attach_span(&mut inner, parent, root);
            if let Some(attr) = attr {
                let meta = &mut inner.spans[id].meta;
                set_meta(meta, "shard", attr.shard);
                set_meta(meta, "items", attr.items);
                if attr.quarantined {
                    set_meta(meta, "quarantined", 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics() {
        let r = Registry::new();
        assert_eq!(r.counter("a"), 0);
        r.add("a", 2);
        r.add("a", 3);
        r.add("b", 1);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 1);
        r.add("a", u64::MAX);
        assert_eq!(r.counter("a"), u64::MAX, "counters saturate");
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::new();
        r.gauge("g", 10);
        r.gauge("g", -3);
        assert_eq!(r.report().gauges["g"], -3);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2]);
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 5000);
        assert_eq!(s.sum, 5222);
        assert!((s.mean() - 5222.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_default_buckets_cover_everything() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(*s.counts.last().unwrap(), 1, "overflow bucket catches all");
        assert_eq!(s.counts.len(), DEFAULT_BUCKETS.len() + 1);
    }

    #[test]
    fn registered_bounds_are_respected() {
        let r = Registry::new();
        r.register_histogram("h", &[2, 4]);
        r.observe("h", 3);
        let s = &r.report().histograms["h"];
        assert_eq!(s.bounds, vec![2, 4]);
        assert_eq!(s.counts, vec![0, 1, 0]);
    }

    #[test]
    fn span_tree_nesting_and_monotonic_timing() {
        let r = Registry::new();
        let outer = r.span_enter("outer");
        let inner = r.span_enter("inner");
        r.span_exit(inner, 5);
        let sibling = r.span_enter("sibling");
        r.span_exit(sibling, 7);
        r.span_exit(outer, 20);
        let root2 = r.span_enter("root2");
        r.span_exit(root2, 1);

        let report = r.report();
        assert_eq!(report.spans.len(), 2);
        let o = &report.spans[0];
        assert_eq!(o.name, "outer");
        assert_eq!(o.nanos, 20);
        assert_eq!(
            o.children
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            ["inner", "sibling"]
        );
        // A parent's recorded time always covers its children's.
        assert!(o.nanos >= o.children.iter().map(|c| c.nanos).sum::<u64>());
        assert_eq!(report.spans[1].name, "root2");
    }

    #[test]
    fn merge_child_combines_metrics_exactly() {
        let child = Registry::new();
        let s = child.span_enter("child.work");
        child.span_exit(s, 10);
        child.add("shared", 5);
        child.add("child.only", 2);
        child.gauge("g", 99);
        child.observe("h", 7);

        let parent = Registry::new();
        parent.add("shared", 1);
        parent.gauge("g", 1);
        parent.observe("h", 3);
        let outer = parent.span_enter("outer");
        parent.merge_child(&child.report(), None);
        parent.span_exit(outer, 50);

        let report = parent.report();
        assert_eq!(report.counters["shared"], 6);
        assert_eq!(report.counters["child.only"], 2);
        assert_eq!(report.gauges["g"], 99, "gauges: last write wins");
        let h = &report.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 10);
        assert_eq!((h.min, h.max), (3, 7));
        // Child roots attach under the span open at merge time.
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].children.len(), 1);
        assert_eq!(report.spans[0].children[0].name, "child.work");
    }

    #[test]
    fn merge_child_without_open_span_adds_roots() {
        let child = Registry::new();
        let s = child.span_enter("orphan");
        child.span_exit(s, 1);
        let parent = Registry::new();
        parent.merge_child(&child.report(), None);
        assert_eq!(parent.report().spans[0].name, "orphan");
    }

    #[test]
    fn histogram_merge_with_differing_bounds_rebuckets() {
        let mut a = Histogram::with_bounds(&[10, 100]);
        a.record(5);
        let mut b = Histogram::with_bounds(&[50]);
        b.record(40); // bucket ≤50
        b.record(700); // overflow
        a.merge_snapshot(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 745);
        assert_eq!((s.min, s.max), (5, 700));
        // 40 lands via its bucket bound 50 → bucket ≤100; 700 via max → overflow.
        assert_eq!(s.counts, vec![1, 1, 1]);
    }

    #[test]
    fn merging_empty_child_is_a_noop() {
        let parent = Registry::new();
        parent.add("c", 1);
        parent.merge_child(&Registry::new().report(), None);
        assert_eq!(parent.counter("c"), 1);
        assert!(parent.report().spans.is_empty());
    }

    #[test]
    fn merging_an_empty_snapshot_into_a_histogram_is_a_noop() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        h.record(5);
        h.merge_snapshot(&Histogram::with_bounds(&[7]).snapshot());
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max, s.sum), (5, 5, 5));
        assert_eq!(s.counts, vec![1, 0, 0]);
    }

    #[test]
    fn merging_into_an_empty_histogram_adopts_the_child_exactly() {
        let mut child = Histogram::with_bounds(&[10, 100]);
        child.record(3);
        child.record(60);
        let mut parent = Histogram::with_bounds(&[10, 100]);
        parent.merge_snapshot(&child.snapshot());
        let s = parent.snapshot();
        assert_eq!(s.counts, vec![1, 1, 0]);
        assert_eq!((s.count, s.sum, s.min, s.max), (2, 63, 3, 60));
        assert!((s.mean() - 31.5).abs() < 1e-9);
    }

    #[test]
    fn merge_child_with_disjoint_keys_keeps_both_sides() {
        let child = Registry::new();
        child.add("child.only", 7);
        child.gauge("child.g", -2);
        child.observe("child.h", 11);
        let parent = Registry::new();
        parent.add("parent.only", 3);
        parent.observe("parent.h", 4);
        parent.merge_child(&child.report(), None);
        let report = parent.report();
        assert_eq!(report.counters["parent.only"], 3);
        assert_eq!(report.counters["child.only"], 7);
        assert_eq!(report.gauges["child.g"], -2);
        // The child's histogram appears exactly — bounds, distribution,
        // and summary stats — next to the untouched parent one.
        let ch = &report.histograms["child.h"];
        assert_eq!((ch.count, ch.sum, ch.min, ch.max), (1, 11, 11, 11));
        assert_eq!(report.histograms["parent.h"].count, 1);
    }

    #[test]
    fn histogram_distribution_survives_a_same_bounds_merge() {
        // "Quantiles after merge": with equal bounds the merged bucket
        // distribution is the exact bucket-wise sum, so any quantile read
        // off the buckets matches a single histogram fed both streams.
        let mut a = Histogram::with_bounds(&[10, 100, 1000]);
        let mut b = Histogram::with_bounds(&[10, 100, 1000]);
        let mut oracle = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [1, 5, 50] {
            a.record(v);
            oracle.record(v);
        }
        for v in [70, 500, 2000] {
            b.record(v);
            oracle.record(v);
        }
        a.merge_snapshot(&b.snapshot());
        assert_eq!(a.snapshot(), oracle.snapshot());
    }

    #[test]
    fn annotate_attaches_to_the_innermost_open_span() {
        let r = Registry::new();
        r.annotate("orphan", 1); // no open span: dropped
        let outer = r.span_enter("outer");
        let inner = r.span_enter("inner");
        r.annotate("items", 5);
        r.annotate("items", 9); // last write wins
        r.span_exit(inner, 2);
        r.annotate("outer.items", 3);
        r.span_exit(outer, 10);
        let report = r.report();
        let o = &report.spans[0];
        assert_eq!(o.meta, vec![("outer.items".to_string(), 3)]);
        assert_eq!(o.children[0].meta, vec![("items".to_string(), 9)]);
    }

    #[test]
    fn attributed_merge_stamps_shard_meta_on_child_roots_only() {
        let child = Registry::new();
        let outer = child.span_enter("work");
        let inner = child.span_enter("work.step");
        child.span_exit(inner, 1);
        child.span_exit(outer, 3);
        child.add("c", 2);

        let parent = Registry::new();
        let stage = parent.span_enter("stage");
        parent.merge_child(
            &child.report(),
            Some(&ShardAttribution {
                shard: 3,
                items: 17,
                quarantined: true,
            }),
        );
        parent.span_exit(stage, 9);

        let report = parent.report();
        assert_eq!(report.counters["c"], 2);
        let stage = &report.spans[0];
        assert!(stage.meta.is_empty(), "the open parent span is untouched");
        let root = &stage.children[0];
        assert_eq!(
            root.meta,
            vec![
                ("shard".to_string(), 3),
                ("items".to_string(), 17),
                ("quarantined".to_string(), 1)
            ]
        );
        assert!(
            root.children[0].meta.is_empty(),
            "descendants carry no attribution"
        );
    }

    #[test]
    fn leaked_inner_span_does_not_corrupt_stack() {
        let r = Registry::new();
        let outer = r.span_enter("outer");
        let _leaked = r.span_enter("leaked");
        r.span_exit(outer, 9); // pops through the leaked child
        let next = r.span_enter("next");
        r.span_exit(next, 1);
        let report = r.report();
        assert_eq!(report.spans.len(), 2, "next span is a root again");
        assert_eq!(report.spans[1].name, "next");
    }
}
