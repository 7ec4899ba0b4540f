//! # iotmap-par — deterministic, std-only parallel execution
//!
//! A tiny fan-out engine for the workspace's hot loops: scoped worker
//! threads over [`std::thread::scope`], a `shard_*` API with **stable,
//! index-ordered merges**, and zero dependencies outside `std` and the
//! workspace's own `iotmap-obs`/`iotmap-nettypes`.
//!
//! ## Determinism contract
//!
//! Parallel output must be byte-identical to serial output at any thread
//! count. The engine guarantees its half of that contract:
//!
//! - Items are split into **contiguous shards** (ZMap-style sharded
//!   sweeping): shard `i` covers `items[offset .. offset + len]`, in the
//!   original order.
//! - Shard results are **merged in shard-index order**, regardless of
//!   which worker finishes first.
//! - A shard that needs randomness derives a sub-RNG from
//!   `(parent seed, shard index)` via [`ShardCtx::rng`] — never from
//!   wall-clock time or thread identity.
//! - Observability is preserved: when the calling thread has an
//!   `iotmap-obs` recorder installed, each worker runs under its own
//!   child [`iotmap_obs::Registry`] and the child reports are merged
//!   into the parent **in shard order** after the join, so `--trace`
//!   and `--metrics` see the same counters and span tree as a serial
//!   run (only the timings differ).
//!
//! The caller owns the other half: per-item work must not depend on
//! *which* shard an item lands in (shard boundaries move with the thread
//! count), and fold/merge steps must be associative with respect to
//! concatenation in item order. [`ShardCtx::rng`] is shard-indexed, so
//! code whose *output* consumes it is only stable at a fixed thread
//! count — fine for probe pacing, not for payload content.
//!
//! ## Panic containment
//!
//! A worker panic no longer tears down the whole call: every worker runs
//! under `catch_unwind`, a poisoned shard is **quarantined** and retried
//! serially on the calling thread (in shard order, after all workers
//! joined), and only an over-budget quarantine — more than half the
//! shards poisoned — aborts the call by re-raising the first payload.
//! Shard bodies take `&[T]` and build fresh outputs, so a retry observes
//! exactly the state the first attempt did; a shard that panics *again*
//! during its serial retry is a genuine bug and propagates. The in-place
//! variant [`shard_map_mut`] can tear its chunk mid-mutation, so it only
//! quarantines crashes injected at shard entry (recognised by their
//! `iotmap_faults::crash::InjectedCrash` payload, raised before the
//! first item is touched) and propagates everything else.
//!
//! Containment is observable (`par.shard_panics`,
//! `par.shards_quarantined`, `par.quarantine_over_budget` counters) but
//! never changes results: a run with zero panics takes the exact same
//! code path and produces byte-identical output and obs reports.
//! Seeded crash injection (the `crash` fault family) is consulted at
//! shard entry when the calling thread armed it via
//! `iotmap_faults::crash::arm` — parallel fan-outs only; serial calls
//! take no shard rolls.
//!
//! ## Thread-count configuration
//!
//! The thread count is **thread-local** and defaults to 1 (serial),
//! mirroring the thread-local recorder in `iotmap-obs`. `shard_*` calls
//! run inline on the calling thread until [`set_threads`] /
//! [`with_threads`] opts in. Worker threads start at the default of 1,
//! so nested `shard_*` calls inside a worker are naturally serial — no
//! thread explosion.
//!
//! ```
//! let squares = iotmap_par::with_threads(4, || {
//!     iotmap_par::shard_map(&[1u64, 2, 3, 4, 5], |_i, x| x * x)
//! });
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use iotmap_faults::crash;
use iotmap_nettypes::SimRng;
use iotmap_obs::{RunReport, ShardAttribution};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Quarantine budget for one sharded call: more than this many poisoned
/// shards aborts the call instead of retrying them serially (systematic
/// failure, not a stray fault).
fn quarantine_budget(shards: usize) -> usize {
    (shards / 2).max(1)
}

/// Shard-entry crash injection: roll the armed plan (if any) for this
/// shard and panic with a recognisable payload on a hit.
fn maybe_crash_shard(armed: &Option<crash::CrashCtx>, index: usize) {
    if let Some(ctx) = armed {
        if crash::shard_should_crash(ctx, index) {
            crash::trip(format!("shard:{}/{index}", ctx.stage_name));
        }
    }
}

thread_local! {
    /// Worker-thread budget for `shard_*` calls issued from this thread.
    static THREADS: Cell<usize> = const { Cell::new(1) };
}

/// Current thread budget for this thread (≥ 1; 1 means serial/inline).
pub fn threads() -> usize {
    THREADS.with(|t| t.get())
}

/// Set the thread budget for `shard_*` calls issued from this thread.
///
/// `0` means "auto": [`std::thread::available_parallelism`], falling
/// back to 1 if the platform cannot report it.
pub fn set_threads(n: usize) {
    let n = if n == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n
    };
    THREADS.with(|t| t.set(n.max(1)));
}

/// Run `f` with the thread budget set to `n` (`0` = auto), restoring the
/// previous budget afterwards — even if `f` panics.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.with(|t| t.set(self.0));
        }
    }
    let guard = Restore(threads());
    set_threads(n);
    let out = f();
    drop(guard);
    out
}

/// Identity of one shard within a sharded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCtx {
    /// Shard index, `0 .. shards`.
    pub index: usize,
    /// Total number of shards in this call.
    pub shards: usize,
    /// Index (into the original item slice) of this shard's first item.
    pub offset: usize,
}

impl ShardCtx {
    /// Deterministic sub-RNG for this shard: forked from the parent
    /// stream by shard index, never from time or thread identity.
    ///
    /// Output-relevant randomness drawn from this stream is stable only
    /// at a fixed thread count (shard boundaries move with `threads()`);
    /// use it for shard-scoped concerns such as probe pacing.
    pub fn rng(&self, parent: &SimRng) -> SimRng {
        parent.fork_idx(self.index as u64)
    }
}

/// Split `items` into contiguous shards, run `f` on each shard (in
/// parallel when the thread budget allows), and return the shard results
/// **in shard-index order**.
///
/// This is the primitive the other `shard_*` helpers build on. With a
/// budget of 1 — or when there is at most one item — `f` runs inline on
/// the calling thread as a single shard covering the whole slice.
pub fn shard_chunks<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(ShardCtx, &'a [T]) -> R + Sync,
{
    let budget = threads();
    if budget <= 1 || items.len() <= 1 {
        let ctx = ShardCtx {
            index: 0,
            shards: 1,
            offset: 0,
        };
        return vec![f(ctx, items)];
    }

    let shards = budget.min(items.len());
    let chunk = items.len().div_ceil(shards);
    let instrumented = iotmap_obs::enabled();
    // Crash injection is armed via a thread-local, which workers cannot
    // see — capture the calling thread's context before fanning out.
    let armed = crash::armed();

    // `chunks()` can yield fewer pieces than `shards` when the ceiling
    // division rounds up; size the result table by the real count.
    let chunk_count = items.len().div_ceil(chunk);
    let mut results: Vec<Option<(R, Option<RunReport>)>> = Vec::new();
    results.resize_with(chunk_count, || None);
    let mut poisoned: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(index, slice)| {
                let ctx = ShardCtx {
                    index,
                    shards,
                    offset: index * chunk,
                };
                let f = &f;
                let armed = armed.clone();
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(move || {
                        run_shard(instrumented, move || {
                            maybe_crash_shard(&armed, index);
                            f(ctx, slice)
                        })
                    }))
                })
            })
            .collect();
        // Join in shard order so merges below are index-ordered no
        // matter which worker finished first.
        for (index, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(out)) => results[index] = Some(out),
                // A worker panic was caught inside the worker; a join
                // error would mean it escaped the catch (impossible in
                // practice) — quarantine both the same way.
                Ok(Err(payload)) | Err(payload) => poisoned.push((index, payload)),
            }
        }
    });

    let mut quarantined: Vec<usize> = Vec::new();
    if !poisoned.is_empty() {
        iotmap_obs::count!("par.shard_panics", poisoned.len() as u64);
        if poisoned.len() > quarantine_budget(chunk_count) {
            iotmap_obs::count!("par.quarantine_over_budget", 1);
            let (_, payload) = poisoned.swap_remove(0);
            resume_unwind(payload);
        }
        // Serial quarantine retry, in shard order, injection disarmed:
        // `f` only reads its `&[T]` slice, so the retry observes exactly
        // what the poisoned worker did. A second panic here is a genuine
        // bug and propagates.
        for (index, _payload) in poisoned {
            iotmap_obs::count!("par.shards_quarantined", 1);
            quarantined.push(index);
            let offset = index * chunk;
            let slice = &items[offset..(offset + chunk).min(items.len())];
            let ctx = ShardCtx {
                index,
                shards,
                offset,
            };
            results[index] = Some(run_shard(instrumented, || f(ctx, slice)));
        }
    }

    results
        .into_iter()
        .enumerate()
        .map(|(index, entry)| {
            let (out, report) = entry.expect("every shard resolved or aborted");
            if let Some(report) = report {
                let offset = index * chunk;
                let attr = ShardAttribution {
                    shard: index as u64,
                    items: ((offset + chunk).min(items.len()) - offset) as u64,
                    quarantined: quarantined.contains(&index),
                };
                iotmap_obs::merge_child_report_attributed(&report, &attr);
            }
            out
        })
        .collect()
}

/// Run the shard body, capturing its observability into a child registry
/// when the parent thread was instrumented.
fn run_shard<R>(instrumented: bool, body: impl FnOnce() -> R) -> (R, Option<RunReport>) {
    if !instrumented {
        return (body(), None);
    }
    // `capture` reinstalls the caller's recorder: a quarantine retry runs
    // on the calling thread, where the parent registry is installed.
    let (out, report) = iotmap_obs::capture(body);
    (out, Some(report))
}

/// Apply `f` to every item and collect the outputs in item order.
///
/// `f` receives the item's index in the original slice, so labelling is
/// stable across thread counts.
pub fn shard_map<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &'a T) -> R + Sync,
{
    let per_shard = shard_chunks(items, |ctx, slice| {
        slice
            .iter()
            .enumerate()
            .map(|(i, item)| f(ctx.offset + i, item))
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for shard in per_shard {
        out.extend(shard);
    }
    out
}

/// Apply `f` to every item **in place** and collect the outputs in item
/// order. Each worker owns a disjoint `&mut` chunk of the slice, so the
/// per-item work is the exact serial code — no merge step at all. This
/// is the shape the per-provider discovery fan-out uses.
pub fn shard_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let budget = threads();
    if budget <= 1 || items.len() <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let shards = budget.min(items.len());
    let chunk = items.len().div_ceil(shards);
    let instrumented = iotmap_obs::enabled();
    let armed = crash::armed();

    let chunk_count = items.len().div_ceil(chunk);
    let mut per_shard: Vec<Option<(Vec<R>, Option<RunReport>)>> = Vec::new();
    per_shard.resize_with(chunk_count, || None);
    let mut poisoned: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(index, slice)| {
                let offset = index * chunk;
                let f = &f;
                let armed = armed.clone();
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(move || {
                        run_shard(instrumented, move || {
                            // Injection fires before the first item is
                            // touched, so a quarantined injected crash
                            // leaves a pristine chunk behind.
                            maybe_crash_shard(&armed, index);
                            slice
                                .iter_mut()
                                .enumerate()
                                .map(|(i, item)| f(offset + i, item))
                                .collect::<Vec<R>>()
                        })
                    }))
                })
            })
            .collect();
        for (index, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(out)) => per_shard[index] = Some(out),
                Ok(Err(payload)) | Err(payload) => poisoned.push((index, payload)),
            }
        }
    });

    let mut quarantined: Vec<usize> = Vec::new();
    if !poisoned.is_empty() {
        iotmap_obs::count!("par.shard_panics", poisoned.len() as u64);
        // A genuine panic may have torn its `&mut` chunk mid-mutation,
        // so only entry-injected crashes (whose payload proves no item
        // was touched) are safe to quarantine and retry here.
        let real = poisoned
            .iter()
            .position(|(_, p)| p.downcast_ref::<crash::InjectedCrash>().is_none());
        if real.is_some() || poisoned.len() > quarantine_budget(chunk_count) {
            if real.is_none() {
                iotmap_obs::count!("par.quarantine_over_budget", 1);
            }
            let (_, payload) = poisoned.swap_remove(real.unwrap_or(0));
            resume_unwind(payload);
        }
        for (index, _payload) in poisoned {
            iotmap_obs::count!("par.shards_quarantined", 1);
            quarantined.push(index);
            let offset = index * chunk;
            let end = (offset + chunk).min(items.len());
            let slice = &mut items[offset..end];
            per_shard[index] = Some(run_shard(instrumented, || {
                slice
                    .iter_mut()
                    .enumerate()
                    .map(|(i, item)| f(offset + i, item))
                    .collect::<Vec<R>>()
            }));
        }
    }

    let total = items.len();
    let mut out = Vec::with_capacity(total);
    for (index, entry) in per_shard.into_iter().enumerate() {
        let (shard, report) = entry.expect("every shard resolved or aborted");
        if let Some(report) = report {
            let offset = index * chunk;
            let attr = ShardAttribution {
                shard: index as u64,
                items: ((offset + chunk).min(total) - offset) as u64,
                quarantined: quarantined.contains(&index),
            };
            iotmap_obs::merge_child_report_attributed(&report, &attr);
        }
        out.extend(shard);
    }
    out
}

/// Sharded fold: each shard starts from `make(ctx)`, folds its items in
/// order with `fold`, and the per-shard accumulators are combined with
/// `merge` **in shard-index order**.
///
/// For the parallel result to match the serial one, `merge(a, b)` must
/// equal "continue folding b's items into a" — true for the append-only
/// and additive accumulators the scan stages use.
pub fn shard_fold<'a, T, A, FM, FF, FG>(items: &'a [T], make: FM, fold: FF, mut merge: FG) -> A
where
    T: Sync,
    A: Send,
    FM: Fn(ShardCtx) -> A + Sync,
    FF: Fn(&mut A, usize, &'a T) + Sync,
    FG: FnMut(&mut A, A),
{
    let mut shards = shard_chunks(items, |ctx, slice| {
        let mut acc = make(ctx);
        for (i, item) in slice.iter().enumerate() {
            fold(&mut acc, ctx.offset + i, item);
        }
        acc
    })
    .into_iter();
    let mut acc = shards
        .next()
        .expect("shard_chunks yields at least one shard");
    for shard in shards {
        merge(&mut acc, shard);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_obs::Registry;
    use std::rc::Rc;

    #[test]
    fn default_budget_is_serial() {
        assert_eq!(threads(), 1);
    }

    #[test]
    fn with_threads_restores_budget() {
        set_threads(1);
        with_threads(3, || assert_eq!(threads(), 3));
        assert_eq!(threads(), 1);
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(threads(), 1, "budget restored after panic");
    }

    #[test]
    fn zero_means_auto() {
        with_threads(0, || assert!(threads() >= 1));
    }

    #[test]
    fn shard_map_preserves_order_at_any_budget() {
        let items: Vec<u64> = (0..103).collect();
        let serial = shard_map(&items, |i, x| (i as u64) * 1000 + x * x);
        for budget in [2, 3, 4, 8, 64] {
            let parallel = with_threads(budget, || {
                shard_map(&items, |i, x| (i as u64) * 1000 + x * x)
            });
            assert_eq!(parallel, serial, "budget {budget}");
        }
    }

    #[test]
    fn shard_map_mut_mutates_in_place() {
        let mut serial: Vec<u64> = (0..57).collect();
        let serial_out = shard_map_mut(&mut serial, |i, x| {
            *x += i as u64;
            *x
        });
        for budget in [2, 4, 8] {
            let mut par: Vec<u64> = (0..57).collect();
            let par_out = with_threads(budget, || {
                shard_map_mut(&mut par, |i, x| {
                    *x += i as u64;
                    *x
                })
            });
            assert_eq!(par, serial, "budget {budget}");
            assert_eq!(par_out, serial_out, "budget {budget}");
        }
    }

    #[test]
    fn shard_fold_matches_serial() {
        let items: Vec<u64> = (1..=200).collect();
        let serial = shard_fold(
            &items,
            |_| (0u64, Vec::new()),
            |acc, i, x| {
                acc.0 += x;
                if x % 17 == 0 {
                    acc.1.push((i, *x));
                }
            },
            |a, b| {
                a.0 += b.0;
                a.1.extend(b.1);
            },
        );
        for budget in [2, 4, 8] {
            let parallel = with_threads(budget, || {
                shard_fold(
                    &items,
                    |_| (0u64, Vec::new()),
                    |acc, i, x| {
                        acc.0 += x;
                        if x % 17 == 0 {
                            acc.1.push((i, *x));
                        }
                    },
                    |a, b| {
                        a.0 += b.0;
                        a.1.extend(b.1);
                    },
                )
            });
            assert_eq!(parallel, serial, "budget {budget}");
        }
    }

    #[test]
    fn empty_and_single_item_slices_run_inline() {
        let empty: [u32; 0] = [];
        assert!(with_threads(8, || shard_map(&empty, |_, x| *x)).is_empty());
        let one = [7u32];
        assert_eq!(
            with_threads(8, || shard_map(&one, |i, x| (i, *x))),
            vec![(0, 7)]
        );
    }

    #[test]
    fn shard_ctx_covers_slice_contiguously() {
        let items: Vec<u32> = (0..37).collect();
        let ctxs = with_threads(5, || shard_chunks(&items, |ctx, slice| (ctx, slice.len())));
        assert_eq!(ctxs.len(), 5);
        let mut next = 0usize;
        for (i, (ctx, len)) in ctxs.iter().enumerate() {
            assert_eq!(ctx.index, i);
            assert_eq!(ctx.shards, 5);
            assert_eq!(ctx.offset, next);
            next += len;
        }
        assert_eq!(next, items.len());
    }

    #[test]
    fn shard_rng_is_deterministic_per_index() {
        let parent = SimRng::new(42);
        let ctx = ShardCtx {
            index: 3,
            shards: 8,
            offset: 30,
        };
        let mut a = ctx.rng(&parent);
        let mut b = ctx.rng(&parent);
        assert_eq!(a.next_u64(), b.next_u64());
        let other = ShardCtx { index: 4, ..ctx };
        let mut c = other.rng(&parent);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn worker_metrics_merge_into_parent_in_shard_order() {
        let registry = Rc::new(Registry::new());
        iotmap_obs::install(registry.clone());
        let items: Vec<u64> = (0..40).collect();
        let sum: Vec<u64> = with_threads(4, || {
            shard_map(&items, |_, x| {
                iotmap_obs::count!("par.test.items", 1);
                *x
            })
        });
        iotmap_obs::uninstall();
        assert_eq!(sum.len(), 40);
        let report = registry.report();
        assert_eq!(report.counters.get("par.test.items"), Some(&40));
    }

    #[test]
    fn worker_spans_attach_under_parent_span() {
        let registry = Rc::new(Registry::new());
        iotmap_obs::install(registry.clone());
        {
            let _outer = iotmap_obs::span!("par.test.outer");
            let items: Vec<u64> = (0..4).collect();
            with_threads(2, || {
                shard_map(&items, |i, _| {
                    let _inner = iotmap_obs::span!("par.test.item");
                    i
                })
            });
        }
        iotmap_obs::uninstall();
        let report = registry.report();
        assert_eq!(report.spans.len(), 1);
        let outer = &report.spans[0];
        assert_eq!(outer.name, "par.test.outer");
        assert_eq!(outer.children.len(), 4);
        assert!(outer.children.iter().all(|c| c.name == "par.test.item"));
    }

    #[test]
    fn merged_worker_spans_carry_shard_attribution() {
        let registry = Rc::new(Registry::new());
        iotmap_obs::install(registry.clone());
        {
            let _outer = iotmap_obs::span!("par.test.outer");
            let items: Vec<u64> = (0..4).collect();
            with_threads(2, || {
                shard_map(&items, |i, _| {
                    let _inner = iotmap_obs::span!("par.test.item");
                    i
                })
            });
        }
        iotmap_obs::uninstall();
        let report = registry.report();
        let outer = &report.spans[0];
        // Two shards of two items each: child roots are stamped with the
        // shard that produced them, in shard order.
        let shards: Vec<u64> = outer
            .children
            .iter()
            .map(|c| c.meta_value("shard").expect("shard attribution"))
            .collect();
        assert_eq!(shards, vec![0, 0, 1, 1]);
        assert!(outer
            .children
            .iter()
            .all(|c| c.meta_value("items") == Some(2)));
        assert!(outer
            .children
            .iter()
            .all(|c| c.meta_value("quarantined").is_none()));
    }

    #[test]
    fn uninstrumented_workers_skip_child_registries() {
        // No recorder installed: shard bodies run with obs disabled.
        let items: Vec<u64> = (0..8).collect();
        let flags = with_threads(4, || shard_map(&items, |_, _| iotmap_obs::enabled()));
        assert!(flags.iter().all(|f| !f));
    }

    #[test]
    fn poisoned_shard_is_quarantined_and_retried() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let registry = Rc::new(Registry::new());
        iotmap_obs::install(registry.clone());
        let items: Vec<u64> = (0..40).collect();
        let tripped = AtomicBool::new(false);
        let out = with_threads(4, || {
            shard_map(&items, |i, x| {
                iotmap_obs::count!("par.test.seen", 1);
                // Poison one worker's first visit to item 25; the serial
                // quarantine retry then sees the flag already set.
                if i == 25 && !tripped.swap(true, Ordering::SeqCst) {
                    panic!("transient worker fault");
                }
                x * 2
            })
        });
        iotmap_obs::uninstall();
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, expected, "quarantine reproduces the serial result");
        let report = registry.report();
        assert_eq!(report.counters.get("par.shard_panics"), Some(&1));
        assert_eq!(report.counters.get("par.shards_quarantined"), Some(&1));
        assert!(!report.counters.contains_key("par.quarantine_over_budget"));
        // Every item was eventually observed (the retried shard re-counts
        // its own items exactly once — its poisoned report was dropped).
        assert_eq!(report.counters.get("par.test.seen"), Some(&40));
    }

    #[test]
    fn over_budget_quarantine_aborts_the_call() {
        let items: Vec<u64> = (0..40).collect();
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                shard_map(&items, |_, x| {
                    // Every shard poisons itself, far over the budget of
                    // shards/2 — containment must give up.
                    panic!("systematic failure {x}");
                })
            })
        });
        assert!(caught.is_err());
        assert_eq!(threads(), 1, "budget restored after abort");
    }

    #[test]
    fn injected_shard_crashes_are_contained() {
        use iotmap_faults::{crash, CrashFaults};
        // Find a seed whose rolls poison at least one but no more than
        // budget (= 2 of 4) shards, so containment — not abort — runs.
        let faults = CrashFaults {
            shard_rate: 0.3,
            max_crashes: 1,
            ..CrashFaults::NONE
        };
        let seed = (0..200u64)
            .find(|&seed| {
                crash::arm(seed, &faults, "par.test", 0);
                let ctx = crash::armed().expect("armed");
                crash::disarm();
                let hits = (0..4)
                    .filter(|&s| crash::shard_should_crash(&ctx, s))
                    .count();
                (1..=2).contains(&hits)
            })
            .expect("some seed poisons 1-2 of 4 shards");

        let items: Vec<u64> = (0..40).collect();
        let serial = shard_map(&items, |i, x| (i as u64) ^ (x * 3));
        crash::arm(seed, &faults, "par.test", 0);
        let parallel = with_threads(4, || shard_map(&items, |i, x| (i as u64) ^ (x * 3)));
        crash::disarm();
        assert_eq!(parallel, serial, "contained crashes never change output");

        // The in-place variant quarantines entry-injected crashes too.
        let mut serial_items: Vec<u64> = (0..40).collect();
        shard_map_mut(&mut serial_items, |i, x| *x += i as u64);
        let mut par_items: Vec<u64> = (0..40).collect();
        crash::arm(seed, &faults, "par.test", 0);
        with_threads(4, || shard_map_mut(&mut par_items, |i, x| *x += i as u64));
        crash::disarm();
        assert_eq!(par_items, serial_items);
    }

    #[test]
    fn genuine_panics_in_mut_shards_propagate() {
        // shard_map_mut cannot prove a real panic left its chunk intact,
        // so it must not retry — the panic propagates to the caller.
        let mut items: Vec<u64> = (0..40).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                shard_map_mut(&mut items, |i, x| {
                    *x += 1;
                    if i == 25 {
                        panic!("torn mutation");
                    }
                })
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn nested_shard_calls_are_serial_inside_workers() {
        let items: Vec<u64> = (0..8).collect();
        let budgets = with_threads(4, || {
            shard_map(&items, |_, _| {
                // Worker thread-locals default to 1 ⇒ nested calls inline.
                threads()
            })
        });
        assert!(budgets.iter().all(|&b| b == 1));
    }
}
