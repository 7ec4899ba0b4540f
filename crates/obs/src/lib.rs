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
//! Instrumented code talks to a thread-local [`Registry`]. By default
//! none is installed, and every instrumentation point reduces to one
//! thread-local flag check — the hot paths cost ~nothing when
//! observability is off (see the overhead guard in `iotmap-bench`).
//! A harness that wants a report installs one:
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
/// [`Registry::merge_child`] so a trace can show which shard did how
/// much work (and whether it had to be quarantined and retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAttribution {
    /// Shard index within the sharded call.
    pub shard: u64,
    /// Items the shard processed.
    pub items: u64,
    /// The shard panicked and was retried serially.
    pub quarantined: bool,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<Registry>>> = const { RefCell::new(None) };
}

/// Install a recorder for the current thread. Replaces any previous one.
pub fn install(recorder: Rc<Registry>) {
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
pub fn with_recorder<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|r| f(r)))
}

pub(crate) fn current_recorder() -> Option<Rc<Registry>> {
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
/// this once per worker, in shard order, after the join, with the
/// worker's [`ShardAttribution`]; a pass that flushes partial-local
/// metrics passes `None`. See [`Registry::merge_child`] for the merge
/// semantics.
pub fn merge_child_report(report: &RunReport, attr: Option<&ShardAttribution>) {
    with_recorder(|r| r.merge_child(report, attr));
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
        let _g = span!("nothing");
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
        merge_child_report(&report, None); // no recorder installed: dropped
        let parent = Rc::new(Registry::new());
        install(parent.clone());
        merge_child_report(&report, None);
        uninstall();
        assert_eq!(parent.counter("merged"), 4);
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
