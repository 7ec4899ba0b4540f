//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into the library's public API only —
//! never inside it — and kept in memory until the run ends, when
//! [`Tracer::to_json`] serializes them for the trace file. A span records
//! its name, start, end, parent, the id of the root span of its tree
//! (`run`), and optionally the number of items the call processed. A
//! disabled tracer records nothing: its `span` is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run: usize,
    pub name: &'static str,
    pub start_ns: u64,
    /// Zero while the span is still open.
    pub end_ns: u64,
    pub items: Option<u64>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-name totals over a whole trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let parent = inner.open.last().copied();
            let run = parent.map_or(id, |p| inner.spans[p].run);
            inner.spans.push(Span {
                id,
                parent,
                run,
                name,
                start_ns: 0,
                end_ns: 0,
                items: None,
            });
            inner.open.push(id);
            // Stamp the start last, so the bookkeeping above is not timed.
            inner.spans[id].start_ns = self.now_ns();
            id
        };
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[id].end_ns = end.max(1);
        inner.open.pop();
        inner.last_closed = Some(id);
        out
    }

    /// Attach an item count to the most recently closed span.
    pub fn items(&self, n: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if let Some(id) = inner.last_closed {
            inner.spans[id].items = Some(n);
        }
    }

    /// Durations (ms) of every closed span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != 0)
            .map(Span::ms)
            .collect()
    }

    /// Total and self time per span name. A span's self time is its
    /// duration minus the time its direct children cover.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        let closed = || inner.spans.iter().filter(|s| s.end_ns != 0);
        for s in closed() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for s in closed() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(child_ns[s.id]) as f64 / 1e6;
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{");
        for (key, value) in header {
            let _ = write!(out, "\"{key}\":\"{value}\",");
        }
        out.push_str("\"spans\":[");
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let items = s.items.map_or("null".to_string(), |n| n.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"items\":{items}}}",
                s.id, s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_a_run_and_split_self_time() {
        let tr = Tracer::new(true);
        tr.span("outer", || {
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.items(7);
        });
        tr.items(9);
        tr.span("second", || ());
        let inner = tr.inner.borrow();
        assert_eq!(inner.spans[1].parent, Some(0));
        assert_eq!(inner.spans[1].run, 0);
        assert_eq!(inner.spans[1].items, Some(7));
        assert_eq!(inner.spans[0].items, Some(9));
        assert_eq!(inner.spans[2].run, 2);
        drop(inner);
        let totals = tr.layer_totals();
        assert!(totals["outer"].self_ms < totals["outer"].total_ms);
        assert_eq!(totals["inner"].self_ms, totals["inner"].total_ms);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 3), 3);
        assert!(tr.durations_ms("x").is_empty());
    }
}
