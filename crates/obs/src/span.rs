//! RAII span guards: monotonic wall-clock timing of nested regions.

use crate::Registry;
use std::rc::Rc;
use std::time::Instant;

/// An open span. Dropping it closes the span and reports the elapsed
/// monotonic time to the recorder that was installed at entry.
///
/// An inactive guard (observability disabled at entry) carries no state
/// and its drop is free.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

struct ActiveSpan {
    recorder: Rc<Registry>,
    id: usize,
    started: Instant,
}

impl SpanGuard {
    /// A guard that records nothing.
    pub fn inactive() -> SpanGuard {
        SpanGuard { inner: None }
    }

    /// Open a span against the currently installed recorder. Falls back
    /// to an inactive guard if none is installed (the `span!` macro has
    /// already checked, but racing uninstalls must stay safe).
    pub fn enter_active(name: &str) -> SpanGuard {
        let Some(recorder) = crate::current_recorder() else {
            return SpanGuard::inactive();
        };
        let id = recorder.span_enter(name);
        SpanGuard {
            inner: Some(ActiveSpan {
                recorder,
                id,
                started: Instant::now(),
            }),
        }
    }

    /// Is this guard actually recording?
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Close the span now instead of at end of scope.
    pub fn exit(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if let Some(active) = self.inner.take() {
            let nanos = active.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            active.recorder.span_exit(active.id, nanos);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_guard_is_inert() {
        let g = SpanGuard::inactive();
        assert!(!g.is_active());
        g.exit();
    }

    #[test]
    fn guard_reports_on_drop() {
        crate::uninstall();
        let registry = Rc::new(Registry::new());
        crate::install(registry.clone());
        {
            let g = crate::span!("outer");
            assert!(g.is_active());
            crate::span!("inner").exit();
        }
        crate::uninstall();
        let report = registry.report();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "outer");
        assert_eq!(report.spans[0].children.len(), 1);
        assert_eq!(report.spans[0].children[0].name, "inner");
    }
}
