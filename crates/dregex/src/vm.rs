//! Pike-style NFA virtual machine: linear-time matching.
//!
//! The VM advances a set of threads (program counters) in lock-step over the
//! input. Each input byte is examined once per live thread, and thread sets
//! are deduplicated per step, giving `O(input × program)` worst-case time —
//! immune to the catastrophic backtracking that patterns like `(a+)+b`
//! trigger in naive engines.

use crate::prog::{Inst, Program, SetEntry};
use std::cell::Cell;

/// A deduplicated list of thread program counters.
struct ThreadList {
    dense: Vec<u32>,
    /// Generation-stamped sparse membership to avoid clearing per step.
    sparse: Vec<u32>,
    generation: u32,
}

impl ThreadList {
    fn new(n: usize) -> Self {
        ThreadList {
            dense: Vec::with_capacity(n),
            sparse: vec![0; n],
            generation: 0,
        }
    }

    fn clear(&mut self) {
        self.dense.clear();
        self.generation += 1;
    }

    fn contains(&self, pc: u32) -> bool {
        self.sparse[pc as usize] == self.generation
    }

    fn insert(&mut self, pc: u32) {
        self.sparse[pc as usize] = self.generation;
        self.dense.push(pc);
    }
}

/// Add a thread and transitively follow zero-width instructions.
/// `at_start` / `at_end` describe the position for anchor assertions.
fn add_thread(prog: &Program, list: &mut ThreadList, pc: u32, at_start: bool, at_end: bool) {
    if list.contains(pc) {
        return;
    }
    list.insert(pc);
    match prog.insts[pc as usize] {
        Inst::Jmp(t) => add_thread(prog, list, t, at_start, at_end),
        Inst::Split(a, b) => {
            add_thread(prog, list, a, at_start, at_end);
            add_thread(prog, list, b, at_start, at_end);
        }
        Inst::AssertStart => {
            if at_start {
                add_thread(prog, list, pc + 1, at_start, at_end);
            }
        }
        Inst::AssertEnd => {
            if at_end {
                add_thread(prog, list, pc + 1, at_start, at_end);
            }
        }
        Inst::Class(_) | Inst::Match | Inst::MatchId(_) => {}
    }
}

/// Run the VM. `start_anywhere` injects a fresh thread at every input
/// position (unanchored search). Returns the end position of the first
/// discovered match (earliest end), or `None`.
///
/// `steps` accumulates the number of thread-steps executed (one per live
/// thread per input byte) so callers can report `dregex.vm.steps` once
/// per exec instead of once per byte.
fn run(
    prog: &Program,
    input: &[u8],
    start_pos: usize,
    start_anywhere: bool,
    steps: &mut u64,
) -> Option<usize> {
    let n = prog.insts.len();
    let mut clist = ThreadList::new(n);
    let mut nlist = ThreadList::new(n);
    clist.clear();
    nlist.clear();

    let mut pos = start_pos;
    add_thread(prog, &mut clist, 0, pos == 0, pos == input.len());

    loop {
        let at_end = pos == input.len();
        // Check for accepting threads at this position.
        for &pc in &clist.dense {
            if matches!(prog.insts[pc as usize], Inst::Match) {
                return Some(pos);
            }
        }
        if at_end {
            return None;
        }
        let byte = input[pos];
        nlist.clear();
        let next_at_start = false;
        let next_at_end = pos + 1 == input.len();
        *steps += clist.dense.len() as u64;
        for i in 0..clist.dense.len() {
            let pc = clist.dense[i];
            if let Inst::Class(ref set) = prog.insts[pc as usize] {
                if set.contains(byte) {
                    add_thread(prog, &mut nlist, pc + 1, next_at_start, next_at_end);
                }
            }
        }
        pos += 1;
        std::mem::swap(&mut clist, &mut nlist);
        if start_anywhere && !prog.anchored_start {
            // Inject a new starting thread at this position.
            add_thread(prog, &mut clist, 0, pos == 0, pos == input.len());
        }
        if clist.dense.is_empty() {
            return None;
        }
    }
}

/// Unanchored search: does the pattern match anywhere?
pub fn search(prog: &Program, input: &[u8]) -> bool {
    let mut steps = 0u64;
    let matched = run(prog, input, 0, true, &mut steps).is_some();
    flush_vm_metrics(steps);
    matched
}

/// Anchored match: does the pattern match the entire input?
pub fn match_anchored(prog: &Program, input: &[u8]) -> bool {
    // Full match = a match starting at 0 that ends exactly at input end.
    // Scan match ends from position 0 only.
    let mut steps = 0u64;
    let n = prog.insts.len();
    let mut clist = ThreadList::new(n);
    let mut nlist = ThreadList::new(n);
    clist.clear();
    nlist.clear();
    add_thread(prog, &mut clist, 0, true, input.is_empty());
    for pos in 0..=input.len() {
        let at_end = pos == input.len();
        if at_end {
            flush_vm_metrics(steps);
            return clist
                .dense
                .iter()
                .any(|&pc| matches!(prog.insts[pc as usize], Inst::Match));
        }
        let byte = input[pos];
        nlist.clear();
        let next_at_end = pos + 1 == input.len();
        steps += clist.dense.len() as u64;
        for i in 0..clist.dense.len() {
            let pc = clist.dense[i];
            if let Inst::Class(ref set) = prog.insts[pc as usize] {
                if set.contains(byte) {
                    add_thread(prog, &mut nlist, pc + 1, false, next_at_end);
                }
            }
        }
        std::mem::swap(&mut clist, &mut nlist);
        if clist.dense.is_empty() {
            flush_vm_metrics(steps);
            return false;
        }
    }
    flush_vm_metrics(steps);
    false
}

/// Multi-pattern unanchored search over a combined program (see
/// [`crate::compile::compile_set`]): one lock-step scan of `input` decides,
/// for every pattern at once, whether it matches anywhere. `matched` must
/// have one slot per pattern (parallel to `entries`); hits are OR-ed in, so
/// callers can accumulate over several inputs. Patterns already `true` on
/// entry are not re-searched.
pub fn search_set(prog: &Program, entries: &[SetEntry], input: &[u8], matched: &mut [bool]) {
    debug_assert_eq!(entries.len(), matched.len());
    if matched.iter().all(|&m| m) {
        return;
    }
    let n = prog.insts.len();
    let mut clist = ThreadList::new(n);
    let mut nlist = ThreadList::new(n);
    clist.clear();
    nlist.clear();
    let mut steps = 0u64;
    let mut pos = 0usize;
    for (e, &done) in entries.iter().zip(matched.iter()) {
        if !done {
            add_thread(prog, &mut clist, e.start, true, input.is_empty());
        }
    }
    loop {
        let at_end = pos == input.len();
        // Harvest accepts at this position.
        for &pc in &clist.dense {
            if let Inst::MatchId(id) = prog.insts[pc as usize] {
                matched[id as usize] = true;
            }
        }
        if at_end || matched.iter().all(|&m| m) {
            break;
        }
        let byte = input[pos];
        nlist.clear();
        let next_at_end = pos + 1 == input.len();
        steps += clist.dense.len() as u64;
        for i in 0..clist.dense.len() {
            let pc = clist.dense[i];
            if let Inst::Class(ref set) = prog.insts[pc as usize] {
                if set.contains(byte) {
                    add_thread(prog, &mut nlist, pc + 1, false, next_at_end);
                }
            }
        }
        pos += 1;
        std::mem::swap(&mut clist, &mut nlist);
        // Unanchored patterns restart at every position; anchored ones only
        // ever start at position 0.
        let now_at_end = pos == input.len();
        for (e, &done) in entries.iter().zip(matched.iter()) {
            if !done && !e.anchored_start {
                add_thread(prog, &mut clist, e.start, false, now_at_end);
            }
        }
        if clist.dense.is_empty() {
            break;
        }
    }
    flush_vm_metrics(steps);
}

thread_local! {
    /// Executions and steps awaiting one record while a [`MetricsBatch`]
    /// is open on this thread.
    static PENDING: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Report one VM execution's step count: into the open batch, if any,
/// otherwise straight to the recorder.
fn flush_vm_metrics(steps: u64) {
    let batched = PENDING.with(|p| match p.get() {
        Some((execs, total)) => {
            p.set(Some((execs + 1, total + steps)));
            true
        }
        None => false,
    });
    if !batched {
        iotmap_obs::count!("dregex.vm.execs");
        iotmap_obs::count!("dregex.vm.steps", steps);
    }
}

/// Batches this thread's `dregex.vm.execs`/`dregex.vm.steps` counters:
/// while the guard lives, VM executions add to two locals, and dropping
/// it records each total once. Open one around a pass that runs many
/// matches; a guard opened inside another joins the outer batch, and
/// without one every execution records its own counters. The totals are
/// the same either way.
#[must_use = "the batch closes when the guard drops"]
pub struct MetricsBatch {
    outermost: bool,
}

impl MetricsBatch {
    /// Open a batch on this thread (a no-op when no recorder is
    /// installed, or inside an open batch).
    pub fn open() -> Self {
        let outermost = iotmap_obs::enabled()
            && PENDING.with(|p| {
                let idle = p.get().is_none();
                if idle {
                    p.set(Some((0, 0)));
                }
                idle
            });
        MetricsBatch { outermost }
    }
}

impl Drop for MetricsBatch {
    fn drop(&mut self) {
        if !self.outermost {
            return;
        }
        if let Some((execs, steps)) = PENDING.with(Cell::take) {
            if execs > 0 {
                iotmap_obs::count!("dregex.vm.execs", execs);
                iotmap_obs::count!("dregex.vm.steps", steps);
            }
        }
    }
}

/// Leftmost match: `(start, end)` of the first match, shortest end for the
/// leftmost start.
pub fn find(prog: &Program, input: &[u8]) -> Option<(usize, usize)> {
    let mut steps = 0u64;
    let mut found = None;
    for start in 0..=input.len() {
        if let Some(end) = run(prog, input, start, false, &mut steps) {
            found = Some((start, end));
            break;
        }
        if prog.anchored_start {
            break;
        }
    }
    flush_vm_metrics(steps);
    found
}

#[cfg(test)]
mod tests {
    use crate::{PatternSet, Regex};

    #[test]
    fn batched_metrics_record_the_same_totals_once() {
        let re = Regex::new("(.+\\.|^)(iot\\.example\\.)$").unwrap();
        let set = PatternSet::new(&["iot", "^dev", "x$"]).unwrap();
        let names = ["a.iot.example.", "dev.other.", "box", "iot.example."];
        let work = || {
            for name in names {
                re.is_match(name);
                re.is_full_match(name);
                re.find(name);
                set.matches(name);
            }
        };
        let counters = |report: &iotmap_obs::RunReport| {
            let get = |k: &str| report.counters.get(k).copied();
            (get("dregex.vm.execs"), get("dregex.vm.steps"))
        };
        let ((), each) = iotmap_obs::capture(work);
        let ((), batched) = iotmap_obs::capture(|| {
            let _batch = super::MetricsBatch::open();
            let _nested = super::MetricsBatch::open();
            work();
        });
        assert!(
            counters(&each).0.is_some_and(|execs| execs >= 4),
            "{:?}",
            counters(&each)
        );
        assert_eq!(counters(&batched), counters(&each));
        // An empty batch records nothing.
        let ((), empty) = iotmap_obs::capture(|| drop(super::MetricsBatch::open()));
        assert_eq!(counters(&empty), (None, None));
    }

    #[test]
    fn search_finds_interior_matches() {
        let re = Regex::new("iot").unwrap();
        assert!(re.is_match("device.iot.example"));
        assert!(!re.is_match("device.example"));
    }

    #[test]
    fn anchors_bind_input_boundaries() {
        let re = Regex::new("^abc$").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("xabc"));
        assert!(!re.is_match("abcx"));
    }

    #[test]
    fn dollar_mid_pattern_only_matches_at_end() {
        let re = Regex::new(r"com\.$").unwrap();
        assert!(re.is_match("example.com."));
        assert!(!re.is_match("example.com.evil"));
    }

    #[test]
    fn find_reports_shortest_leftmost() {
        let re = Regex::new("a+").unwrap();
        // Leftmost start 1; shortest end there is 2 (thread set reports
        // earliest accepting position).
        assert_eq!(re.find("baaa"), Some((1, 2)));
    }

    #[test]
    fn full_match_empty_input() {
        assert!(Regex::new("a*").unwrap().is_full_match(""));
        assert!(!Regex::new("a+").unwrap().is_full_match(""));
        assert!(Regex::new("").unwrap().is_full_match(""));
    }

    #[test]
    fn anchored_start_optimization_still_correct() {
        let re = Regex::new("^b").unwrap();
        assert!(!re.is_match("ab"));
        assert!(re.is_match("ba"));
    }

    #[test]
    fn byte_level_matching_handles_dots_in_domains() {
        let re = Regex::new(r"^[^.]+\.iot\.sap\.$").unwrap();
        assert!(re.is_match("tenant42.iot.sap."));
        assert!(!re.is_match("a.b.iot.sap."));
    }
}
