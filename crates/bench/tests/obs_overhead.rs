//! Overhead guard: instrumentation must cost ~nothing when no recorder is
//! installed, and a no-op recorder must not slow the pipeline either.
//!
//! `Experiment::prepare` at the small preset runs the full world build,
//! scan collection, discovery, and footprint inference — every span and
//! counter site in the hot paths fires (or is skipped) here. We compare
//! the disabled path against a literal no-op `Recorder` and assert the
//! difference stays under 5% (plus a small absolute slack so scheduler
//! jitter on a ~10s workload cannot flake the suite).
//!
//! The second guard times the hot traffic path with the recorder the
//! harnesses really install: one small-preset analysis pass with no
//! recorder against one with a `Registry`, under a 3% budget.

use iotmap_bench::Experiment;
use iotmap_netflow::LineId;
use iotmap_obs::{Recorder, Registry};
use iotmap_world::WorldConfig;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The timing tests of this file run one at a time: on a small machine
/// one test's work would otherwise land in the other's measurements.
static TIMING: Mutex<()> = Mutex::new(());

fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed timing test must not fail the other one too.
    TIMING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A recorder that pays the dispatch cost and drops everything.
struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn span_enter(&self, _name: &str) -> usize {
        0
    }
    fn span_exit(&self, _id: usize, _nanos: u64) {}
    fn add(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: i64) {}
    fn observe(&self, _name: &str, _value: u64) {}
}

fn timed_prepare(config: &WorldConfig) -> Duration {
    let t0 = Instant::now();
    let exp = Experiment::prepare(config);
    let elapsed = t0.elapsed();
    // Keep the result alive until after the clock stops, and sanity-check
    // that the run actually did the work.
    assert!(exp.index.len() > 100);
    elapsed
}

#[test]
fn noop_recorder_overhead_is_bounded() {
    let _timing = timing_lock();
    let config = WorldConfig::small(42);

    // Warm-up (page cache, allocator) outside the measurement.
    iotmap_obs::uninstall();
    let _ = timed_prepare(&config);

    // Interleave the two configurations and keep the best of each, which
    // cancels one-sided load spikes.
    let mut disabled = Duration::MAX;
    let mut noop = Duration::MAX;
    for _ in 0..2 {
        iotmap_obs::uninstall();
        disabled = disabled.min(timed_prepare(&config));

        iotmap_obs::install(Rc::new(NoopRecorder));
        noop = noop.min(timed_prepare(&config));
        iotmap_obs::uninstall();
    }

    let budget = disabled.mul_f64(1.05) + Duration::from_millis(300);
    assert!(
        noop <= budget,
        "no-op recorder too expensive: disabled={disabled:?} noop={noop:?} budget={budget:?}"
    );
}

fn timed_analysis_pass(exp: &Experiment, excluded: &HashSet<LineId>) -> Duration {
    let t0 = Instant::now();
    let report = exp.analysis_pass(exp.world.config.study_period, excluded);
    let elapsed = t0.elapsed();
    assert!(report.total_lines() > 0);
    elapsed
}

/// The real `Registry` on the hot traffic path: the analysis pass folds
/// every exported flow of the study week, and its flow metrics must stay
/// partial-local (flushed once per pass), so recording them costs under
/// 3% of the pass (plus a small absolute slack for scheduler jitter).
#[test]
fn registry_overhead_on_the_analysis_pass_is_bounded() {
    let _timing = timing_lock();
    let exp = Experiment::prepare(&WorldConfig::small(42));
    let excluded = exp.excluded_lines(&exp.contact_pass(exp.world.config.study_period));

    iotmap_obs::uninstall();
    let _ = timed_analysis_pass(&exp, &excluded);

    // Best of each side, interleaved in ABBA order so neither side always
    // runs first. A noisy neighbour can slow a whole block of ten passes,
    // so up to three blocks run before the budget counts as missed; a
    // real per-flow cost shows in every block.
    let budget = |disabled: Duration| disabled.mul_f64(1.03) + Duration::from_millis(50);
    let mut disabled = Duration::MAX;
    let mut registry = Duration::MAX;
    for round in 0..30 {
        if round % 4 == 1 || round % 4 == 2 {
            iotmap_obs::install(Rc::new(Registry::new()));
            registry = registry.min(timed_analysis_pass(&exp, &excluded));
            iotmap_obs::uninstall();
        } else {
            disabled = disabled.min(timed_analysis_pass(&exp, &excluded));
        }
        if round % 10 == 9 {
            eprintln!("analysis pass: disabled={disabled:?} registry={registry:?}");
            if registry <= budget(disabled) {
                break;
            }
        }
    }

    let budget = budget(disabled);
    assert!(
        registry <= budget,
        "Registry too expensive on the analysis pass: disabled={disabled:?} \
         registry={registry:?} budget={budget:?}"
    );
}
