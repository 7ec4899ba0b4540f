//! # iotmap-obs — the workspace's observability layer
//!
//! A std-only, zero-dependency tracing + metrics subsystem threaded
//! through the whole measurement pipeline:
//!
//! * **Spans** — RAII-guarded, nesting, monotonic wall-clock timed
//!   regions (`obs::span!("discovery.censys")`), collected into a tree;
//! * **Metrics** — counters, gauges, and fixed-bucket histograms kept in
//!   a [`Registry`] (`obs::count!("discovery.certs_parsed", n)`);
//! * **Run reports** — the span tree + metrics serialised to a
//!   human-readable markdown summary and a line-oriented JSON-lines
//!   format (hand-rolled writer, no serde) via [`RunReport`].
//!
//! ## Recording model
//!
//! Instrumented code talks to a thread-local [`Recorder`]. By default
//! none is installed, and every instrumentation point reduces to one
//! thread-local flag check — the hot paths cost ~nothing when
//! observability is off (see the overhead guard in `iotmap-bench`).
//! A harness that wants a report installs a [`Registry`]:
//!
//! ```
//! use std::rc::Rc;
//!
//! let registry = Rc::new(iotmap_obs::Registry::new());
//! iotmap_obs::install(registry.clone());
//! {
//!     let _span = iotmap_obs::span!("demo.stage");
//!     iotmap_obs::count!("demo.items", 3);
//! }
//! iotmap_obs::uninstall();
//! let report = registry.report();
//! assert_eq!(report.counters["demo.items"], 3);
//! println!("{}", report.to_markdown());
//! ```
//!
//! The thread-local design matches the workspace: per-thread recorders
//! keep parallel `cargo test` threads isolated from each other, and the
//! pipeline's deterministic fan-out layer (`iotmap-par`) builds on it —
//! each worker thread runs under its own child [`Registry`], and after
//! the join the child [`RunReport`]s are folded back into the parent
//! recorder **in shard order** via [`merge_child_report`]. Counters add,
//! gauges are last-write-wins, histograms merge bucket-wise, and child
//! span roots attach under the parent's currently open span, so an
//! instrumented parallel run reports the same span tree and metric
//! totals as a serial run — only the timings differ.

mod metrics;
mod report;
mod span;

pub use metrics::{Histogram, HistogramSnapshot, Registry, DEFAULT_BUCKETS};
pub use report::{json_escape, EventResilienceRow, RunReport, SourceCompleteness, SpanNode};
pub use span::SpanGuard;

/// JSONL report format version written by [`RunReport::to_jsonl`]. v2
/// added per-span `self_nanos` and the optional `meta` attribution map.
pub const JSONL_FORMAT: &str = "iotmap-obs.v2";

use std::cell::RefCell;
use std::rc::Rc;

/// One worker shard's identity, attached to its merged span roots by
/// [`Recorder::merge_child_attributed`] so a trace can show which shard
/// did how much work (and whether it had to be quarantined and retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAttribution {
    /// Shard index within the sharded call.
    pub shard: u64,
    /// Items the shard processed.
    pub items: u64,
    /// The shard panicked and was retried serially.
    pub quarantined: bool,
}

/// The sink instrumented code reports into.
///
/// Implementations record through `&self`: recorders are shared
/// (`Rc<dyn Recorder>`) between the thread-local slot and the harness
/// that will read the results back, so interior mutability is the
/// implementor's responsibility. [`Registry`] is the standard
/// implementation; tests may plug in their own.
pub trait Recorder {
    /// A named region opened; returns an id handed back to
    /// [`Recorder::span_exit`]. Nesting is implied by call order.
    fn span_enter(&self, name: &str) -> usize;
    /// The region identified by `id` closed after `nanos` nanoseconds of
    /// monotonic wall-clock time.
    fn span_exit(&self, id: usize, nanos: u64);
    /// Add `delta` to the named counter.
    fn add(&self, name: &str, delta: u64);
    /// Set the named gauge.
    fn gauge(&self, name: &str, value: i64);
    /// Record one observation into the named histogram.
    fn observe(&self, name: &str, value: u64);
    /// Attach `key = value` metadata to the innermost open span —
    /// per-shard attribution, retry counts, item totals. The default
    /// drops it: plain recorders need no span metadata, and new trait
    /// methods must not break existing implementations.
    fn annotate(&self, _key: &str, _value: u64) {}
    /// Fold a child worker's finished [`RunReport`] into this recorder.
    ///
    /// Called by the parallel execution layer after joining a worker, in
    /// shard order. The default implementation replays the report
    /// through the generic interface: spans re-entered/exited in order,
    /// counters re-added, gauges re-set, and histogram buckets replayed
    /// at each bucket's upper bound (approximate when bounds differ).
    /// [`Registry`] overrides this with an exact structural merge.
    fn merge_child(&self, report: &RunReport) {
        fn replay_span<R: Recorder + ?Sized>(rec: &R, node: &SpanNode) {
            let id = rec.span_enter(&node.name);
            for (key, value) in &node.meta {
                rec.annotate(key, *value);
            }
            for child in &node.children {
                replay_span(rec, child);
            }
            rec.span_exit(id, node.nanos);
        }
        for root in &report.spans {
            replay_span(self, root);
        }
        for (name, delta) in &report.counters {
            self.add(name, *delta);
        }
        for (name, value) in &report.gauges {
            self.gauge(name, *value);
        }
        for (name, snap) in &report.histograms {
            for (i, &n) in snap.counts.iter().enumerate() {
                let value = snap.bounds.get(i).copied().unwrap_or(snap.max);
                for _ in 0..n {
                    self.observe(name, value);
                }
            }
        }
    }
    /// [`Recorder::merge_child`] with the merging shard's identity, so
    /// recorders that keep a span tree can attribute each merged subtree
    /// to the worker that produced it. The default ignores the
    /// attribution and merges plainly; [`Registry`] overrides this to
    /// stamp `shard` / `items` / `quarantined` metadata on the attached
    /// child roots.
    fn merge_child_attributed(&self, report: &RunReport, _attr: &ShardAttribution) {
        self.merge_child(report);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<dyn Recorder>>> = const { RefCell::new(None) };
}

/// Install a recorder for the current thread. Replaces any previous one.
pub fn install(recorder: Rc<dyn Recorder>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(recorder));
}

/// Remove the current thread's recorder, returning instrumentation to
/// the ~free disabled path.
pub fn uninstall() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Is a recorder installed on this thread? This is the only cost an
/// instrumentation point pays when observability is off.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Run `f` against the installed recorder, if any.
#[inline]
pub fn with_recorder<R>(f: impl FnOnce(&dyn Recorder) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|r| f(r.as_ref())))
}

#[doc(hidden)]
pub fn current_recorder() -> Option<Rc<dyn Recorder>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Run `f` under a fresh [`Registry`] and return its result with the
/// report of everything it recorded. The caller's recorder (or none) is
/// reinstalled afterwards and sees none of `f`'s instrumentation.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, RunReport) {
    let previous = current_recorder();
    let registry = Rc::new(Registry::new());
    install(registry.clone());
    let out = f();
    match previous {
        Some(recorder) => install(recorder),
        None => uninstall(),
    }
    (out, registry.report())
}

/// Fold a child worker's [`RunReport`] into this thread's recorder (a
/// no-op when none is installed). The parallel execution layer calls
/// this once per worker, in shard order, after the join — see
/// [`Recorder::merge_child`] for the merge semantics.
pub fn merge_child_report(report: &RunReport) {
    with_recorder(|r| r.merge_child(report));
}

/// [`merge_child_report`] with shard attribution — the variant the
/// parallel execution layer uses so each worker's merged span roots
/// carry the shard index, item count, and quarantine marker.
pub fn merge_child_report_attributed(report: &RunReport, attr: &ShardAttribution) {
    with_recorder(|r| r.merge_child_attributed(report, attr));
}

/// Attach metadata to the innermost open span (function form; prefer the
/// [`annotate!`] macro, which skips evaluating its arguments when
/// disabled).
pub fn annotate(key: &str, value: u64) {
    with_recorder(|r| r.annotate(key, value));
}

/// Peak resident-set size of this process in bytes, read from Linux's
/// `VmHWM` high-water mark in `/proc/self/status`; `None` on platforms
/// without procfs. This is the number the scale bench gates on: a
/// bounded-memory run must keep its *peak*, not just its current RSS,
/// under the documented ceiling.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Open a span through the installed recorder (function form; prefer the
/// [`span!`] macro, which skips evaluating a computed name when
/// disabled).
pub fn span(name: &str) -> SpanGuard {
    if enabled() {
        SpanGuard::enter_active(name)
    } else {
        SpanGuard::inactive()
    }
}

/// Open an RAII span: `let _guard = obs::span!("discovery.censys");`.
///
/// The name expression is only evaluated when a recorder is installed,
/// so `span!(format!("provider.{name}"))` allocates nothing on the
/// disabled path.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter_active(::core::convert::AsRef::<str>::as_ref(&$name))
        } else {
            $crate::SpanGuard::inactive()
        }
    };
}

/// Bump a counter: `obs::count!("certs_parsed")` or
/// `obs::count!("flows_sampled", n)`. Arguments are only evaluated when
/// a recorder is installed.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::with_recorder(|r| {
                r.add(::core::convert::AsRef::<str>::as_ref(&$name), $delta as u64)
            });
        }
    };
}

/// Set a gauge: `obs::gauge!("world.servers", n)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::with_recorder(|r| {
                r.gauge(::core::convert::AsRef::<str>::as_ref(&$name), $value as i64)
            });
        }
    };
}

/// Attach metadata to the innermost open span:
/// `obs::annotate!("attempts", n)`. Arguments are only evaluated when a
/// recorder is installed; without an open span the annotation is dropped.
#[macro_export]
macro_rules! annotate {
    ($key:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::with_recorder(|r| {
                r.annotate(::core::convert::AsRef::<str>::as_ref(&$key), $value as u64)
            });
        }
    };
}

/// Record a histogram observation: `obs::observe!("flow.bytes", b)`.
#[macro_export]
macro_rules! observe {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::with_recorder(|r| {
                r.observe(::core::convert::AsRef::<str>::as_ref(&$name), $value as u64)
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_restores_the_outer_recorder_untouched() {
        let outer = Rc::new(Registry::new());
        install(outer.clone());
        count!("outer.before");
        let (value, inner) = capture(|| {
            count!("inner.items", 2);
            7
        });
        count!("outer.after");
        uninstall();
        assert_eq!(value, 7);
        assert_eq!(inner.counters.get("inner.items"), Some(&2));
        assert!(!inner.counters.contains_key("outer.before"));
        let outer = outer.report();
        assert_eq!(outer.counters.get("outer.before"), Some(&1));
        assert_eq!(outer.counters.get("outer.after"), Some(&1));
        assert!(!outer.counters.contains_key("inner.items"));

        // Without an outer recorder, capture leaves none installed.
        let ((), inner) = capture(|| count!("inner.alone"));
        assert!(!enabled());
        assert_eq!(inner.counters.get("inner.alone"), Some(&1));
    }

    #[test]
    fn disabled_by_default() {
        uninstall();
        assert!(!enabled());
        // All of these must be harmless no-ops.
        let _g = span("nothing");
        count!("nothing");
        gauge!("nothing", 1);
        observe!("nothing", 1);
        assert!(with_recorder(|_| ()).is_none());
    }

    #[test]
    fn install_uninstall_roundtrip() {
        let registry = Rc::new(Registry::new());
        install(registry.clone());
        assert!(enabled());
        count!("x", 2);
        uninstall();
        assert!(!enabled());
        count!("x", 40); // dropped: no recorder
        assert_eq!(registry.report().counters["x"], 2);
    }

    #[test]
    fn merge_child_report_targets_installed_recorder() {
        let child = Registry::new();
        child.add("merged", 4);
        let report = child.report();
        uninstall();
        merge_child_report(&report); // no recorder installed: dropped
        let parent = Rc::new(Registry::new());
        install(parent.clone());
        merge_child_report(&report);
        uninstall();
        assert_eq!(parent.counter("merged"), 4);
    }

    #[test]
    fn default_merge_child_replays_through_the_generic_interface() {
        use std::cell::RefCell;

        #[derive(Default)]
        struct Log(RefCell<Vec<String>>);
        impl Recorder for Log {
            fn span_enter(&self, name: &str) -> usize {
                self.0.borrow_mut().push(format!("enter {name}"));
                0
            }
            fn span_exit(&self, _id: usize, nanos: u64) {
                self.0.borrow_mut().push(format!("exit {nanos}"));
            }
            fn add(&self, name: &str, delta: u64) {
                self.0.borrow_mut().push(format!("add {name}={delta}"));
            }
            fn gauge(&self, name: &str, value: i64) {
                self.0.borrow_mut().push(format!("gauge {name}={value}"));
            }
            fn observe(&self, name: &str, value: u64) {
                self.0.borrow_mut().push(format!("observe {name}={value}"));
            }
        }

        let child = Registry::new();
        let outer = child.span_enter("outer");
        let inner = child.span_enter("inner");
        child.span_exit(inner, 2);
        child.span_exit(outer, 9);
        child.add("c", 3);
        child.gauge("g", -1);

        let log = Log::default();
        log.merge_child(&child.report());
        assert_eq!(
            *log.0.borrow(),
            vec![
                "enter outer",
                "enter inner",
                "exit 2",
                "exit 9",
                "add c=3",
                "gauge g=-1"
            ]
        );
    }

    #[test]
    fn lazy_name_evaluation_when_disabled() {
        uninstall();
        let mut evaluated = false;
        count!(
            {
                evaluated = true;
                "side-effect"
            },
            1
        );
        assert!(
            !evaluated,
            "count! must not evaluate its name when disabled"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_reported_and_plausible() {
        let rss = peak_rss_bytes().expect("procfs VmHWM available on linux");
        // Any live process has megabytes resident but nowhere near a TB.
        assert!(rss > 1 << 20, "peak RSS {rss} implausibly small");
        assert!(rss < 1 << 40, "peak RSS {rss} implausibly large");
    }
}
