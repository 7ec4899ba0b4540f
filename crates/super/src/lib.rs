//! # iotmap-super — the supervised pipeline runtime
//!
//! The paper's campaign runs for days over flaky infrastructure; a
//! production pipeline must survive its *own* failures, not just degraded
//! inputs. This crate supervises a sequence of named stages:
//!
//! * **Panic containment + retry** — every stage attempt runs under
//!   `catch_unwind`; a panicked attempt is retried up to the policy's
//!   budget with **seeded exponential backoff** (pure-hash jitter via
//!   `iotmap_faults::roll`, so the retry schedule is a deterministic
//!   function of `(seed, stage, attempt)` — never of wall-clock or
//!   thread identity).
//! * **Deadlines** — a stage attempt that completes past its deadline is
//!   treated as failed and retried (checked post-hoc: safe Rust cannot
//!   kill a hung thread, so a deadline bounds what the supervisor
//!   *accepts*, not what it can interrupt).
//! * **Checkpoint/resume** — after each completed stage the supervisor
//!   serializes the stage's artifact into a [`CheckpointStore`]
//!   (std-only, length-prefixed binary, FNV-1a checksum, run fingerprint
//!   in the header; see the `checkpoint` module). A resumed run restores stages
//!   whose checkpoints verify and recomputes the rest — corrupted or
//!   mismatched files are detected, reported, and discarded, never
//!   trusted.
//! * **Crash injection** — the `crash` fault family
//!   ([`iotmap_faults::CrashFaults`]) is armed around every attempt, so
//!   seeded stage/shard panics and the post-stage kill switch exercise
//!   exactly the paths above.
//!
//! Stages must be **pure** functions of their (already-computed) inputs:
//! retrying one re-runs `f` against untouched borrows, and restoring one
//! from a checkpoint must be indistinguishable from computing it. The
//! facade's pipeline stages all have this shape. Every supervision event
//! is observable through `iotmap-obs` counters under `super.*`, which the
//! run report renders as its "Recovery" section.
//!
//! Generative stages whose artifact is the whole synthetic world are
//! checkpointed as a **replay witness** ([`StageArtifact::Replay`]):
//! the stage is deterministic from the fingerprinted inputs, so a resume
//! recomputes it and the checkpoint only stores a digest to verify the
//! replay against. Derived stages store their full artifact
//! ([`StageArtifact::Bytes`]) and are skipped entirely on resume.

mod checkpoint;
pub mod codec;

pub use checkpoint::{CheckpointStore, CkptError, KIND_BYTES, KIND_WITNESS, MAGIC};
pub use codec::{fnv1a, ByteReader, ByteWriter};

use iotmap_faults::{crash, key2, CrashFaults};
use iotmap_nettypes::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How a stage's artifact is checkpointed.
pub enum StageArtifact<T> {
    /// Never checkpointed: cheap to rebuild, always recomputed.
    Volatile,
    /// Deterministically replayable from the fingerprinted run inputs:
    /// the checkpoint stores only a witness digest, and a resume
    /// recomputes the stage and verifies the replay against it.
    Replay {
        /// Cheap digest of the artifact (e.g. element counts folded
        /// through FNV); a replay that produces a different digest
        /// invalidates the run's remaining checkpoints.
        witness: fn(&T) -> u64,
    },
    /// Fully serialized: a resume with a verified checkpoint skips the
    /// stage entirely.
    Bytes {
        /// Serialize the artifact into a checkpoint payload.
        encode: fn(&T, &mut ByteWriter),
        /// Deserialize a verified checkpoint payload. Every error is
        /// treated as corruption (the stage recomputes).
        decode: fn(&mut ByteReader) -> Result<T, String>,
    },
}

/// Retry/deadline policy for supervised stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePolicy {
    /// Extra attempts after the first (so `retries = 2` means up to 3
    /// attempts).
    pub retries: u32,
    /// Default per-attempt deadline; `None` means unbounded. Checked
    /// after the attempt completes.
    pub deadline: Option<Duration>,
    /// Base backoff before the first retry, in milliseconds; doubles per
    /// attempt, plus up to the same again in seeded jitter.
    pub backoff_base_ms: u64,
    /// Actually sleep the backoff between attempts. Off by default: the
    /// schedule is always *recorded* (deterministic), but tests and the
    /// simulation have nothing to wait for.
    pub sleep_on_retry: bool,
}

impl Default for StagePolicy {
    fn default() -> StagePolicy {
        StagePolicy {
            retries: 2,
            deadline: None,
            backoff_base_ms: 250,
            sleep_on_retry: false,
        }
    }
}

/// How a supervised stage concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// Computed by running the stage body.
    Computed,
    /// Restored from a verified checkpoint without running the body.
    Restored,
    /// Recomputed and verified against a stored replay witness.
    Replayed,
    /// Every attempt failed; the run error carries the detail.
    Failed,
}

/// One stage's supervision record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// The stage name.
    pub stage: String,
    /// Attempts taken (0 if restored from a checkpoint).
    pub attempts: u32,
    /// Attempts that panicked.
    pub panics: u32,
    /// Attempts that completed past the deadline.
    pub deadline_misses: u32,
    /// Total seeded backoff scheduled between attempts.
    pub backoff_ms: u64,
    /// How the stage concluded.
    pub outcome: StageOutcome,
}

/// The seeded backoff before retry number `attempt + 1` of `stage`:
/// exponential in the attempt index with pure-hash jitter, so the whole
/// schedule is a deterministic function of the plan seed.
pub fn backoff_ms(seed: u64, stage: &str, attempt: u32, base_ms: u64) -> u64 {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(16));
    let jitter = (iotmap_faults::roll(
        seed,
        "super.backoff",
        key2(iotmap_faults::hash_str(stage), attempt as u64),
    ) * exp as f64) as u64;
    exp + jitter
}

/// Human-readable description of a caught panic payload.
pub fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(injected) = payload.downcast_ref::<crash::InjectedCrash>() {
        format!("injected crash at {}", injected.site)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs each pipeline stage as a named, retryable, checkpointable unit.
pub struct Supervisor {
    seed: u64,
    policy: StagePolicy,
    deadlines: Vec<(String, Duration)>,
    crash: CrashFaults,
    store: Option<CheckpointStore>,
    resume: bool,
    next_index: usize,
    /// Per-stage supervision records, in execution order.
    pub log: Vec<StageReport>,
}

impl Supervisor {
    /// A supervisor whose retry schedules derive from `seed`.
    pub fn new(seed: u64) -> Supervisor {
        Supervisor {
            seed,
            policy: StagePolicy::default(),
            deadlines: Vec::new(),
            crash: CrashFaults::NONE,
            store: None,
            resume: false,
            next_index: 0,
            log: Vec::new(),
        }
    }

    /// Set the retry/deadline policy.
    pub fn policy(mut self, policy: StagePolicy) -> Supervisor {
        self.policy = policy;
        self
    }

    /// Override the deadline for one named stage.
    pub fn deadline_for(mut self, stage: &str, deadline: Duration) -> Supervisor {
        self.deadlines.push((stage.to_string(), deadline));
        self
    }

    /// Arm seeded crash injection for every stage attempt.
    pub fn crash(mut self, faults: CrashFaults) -> Supervisor {
        self.crash = faults;
        self
    }

    /// Attach a checkpoint store. With `resume` set, stages whose
    /// checkpoints verify are restored (or replay-verified) instead of
    /// trusted blindly; without it the store is write-only.
    pub fn store(mut self, store: CheckpointStore, resume: bool) -> Supervisor {
        self.store = Some(store);
        self.resume = resume;
        self
    }

    /// Start numbering stages at `n` instead of 0, so a pipeline split
    /// across several supervisors (e.g. a prepare phase and an execute
    /// phase) keeps the stable `{index:02}-{stage}.ckpt` file names of the
    /// single-supervisor layout.
    pub fn start_index(mut self, n: usize) -> Supervisor {
        self.next_index = n;
        self
    }

    /// Whether checkpoint restoration is still trusted: `true` only if a
    /// resume was requested and no witness mismatch has been detected so
    /// far. A later supervisor continuing this run should resume only when
    /// this still holds.
    pub fn resume_trusted(&self) -> bool {
        self.resume
    }

    fn deadline_of(&self, stage: &str) -> Option<Duration> {
        self.deadlines
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, d)| *d)
            .or(self.policy.deadline)
    }

    /// Run (or restore) one stage. `f` must be a pure function of its
    /// captures: it may run zero times (checkpoint restore), once, or
    /// several times (retry after panic/deadline).
    pub fn run_stage<T>(
        &mut self,
        name: &str,
        artifact: StageArtifact<T>,
        mut f: impl FnMut() -> T,
    ) -> Result<T, Error> {
        let index = self.next_index;
        self.next_index += 1;
        let _span = iotmap_obs::span!(format!("super.stage.{name}"));

        // Restore path: a fully-serialized stage with a verified
        // checkpoint skips computation entirely.
        if self.resume {
            if let StageArtifact::Bytes { decode, .. } = &artifact {
                if let Some(value) = self.try_restore(index, name, *decode) {
                    self.log.push(StageReport {
                        stage: name.to_string(),
                        attempts: 0,
                        panics: 0,
                        deadline_misses: 0,
                        backoff_ms: 0,
                        outcome: StageOutcome::Restored,
                    });
                    iotmap_obs::count!(format!("super.stage.{name}.restored"));
                    iotmap_obs::annotate!("restored", 1u64);
                    return Ok(value);
                }
            }
        }

        // Attempt loop: catch panics, check the deadline post-hoc,
        // schedule seeded backoff between attempts.
        let allowed = self.policy.retries + 1;
        let deadline = self.deadline_of(name);
        let mut attempts = 0u32;
        let mut panics = 0u32;
        let mut deadline_misses = 0u32;
        let mut total_backoff_ms = 0u64;
        let value = loop {
            let attempt = attempts;
            attempts += 1;
            iotmap_obs::count!(format!("super.stage.{name}.attempts"));
            crash::arm(self.seed, &self.crash, name, attempt);
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                crash::maybe_crash_stage(self.seed, &self.crash, name, attempt);
                f()
            }));
            let elapsed = started.elapsed();
            crash::disarm();

            let failure = match result {
                Ok(value) => match deadline {
                    Some(limit) if elapsed > limit => {
                        deadline_misses += 1;
                        iotmap_obs::count!(format!("super.stage.{name}.deadline_misses"));
                        format!(
                            "attempt {attempt} completed in {elapsed:?}, past its {limit:?} deadline"
                        )
                    }
                    _ => break value,
                },
                Err(payload) => {
                    panics += 1;
                    iotmap_obs::count!(format!("super.stage.{name}.panics"));
                    format!("attempt {attempt} panicked: {}", describe_panic(&*payload))
                }
            };
            if attempts >= allowed {
                self.log.push(StageReport {
                    stage: name.to_string(),
                    attempts,
                    panics,
                    deadline_misses,
                    backoff_ms: total_backoff_ms,
                    outcome: StageOutcome::Failed,
                });
                return Err(Error::stage(
                    name,
                    format!("failed after {attempts} attempts; last: {failure}"),
                ));
            }
            let backoff = backoff_ms(self.seed, name, attempt, self.policy.backoff_base_ms);
            total_backoff_ms += backoff;
            iotmap_obs::count!(format!("super.stage.{name}.backoff_ms"), backoff);
            if self.policy.sleep_on_retry {
                std::thread::sleep(Duration::from_millis(backoff.min(10_000)));
            }
        };

        // Stamp the retry history onto the stage span so the trace tree
        // shows recovery effort in place; clean runs stay unannotated
        // beyond the attempt count.
        iotmap_obs::annotate!("attempts", attempts);
        if panics > 0 {
            iotmap_obs::annotate!("panics", panics);
        }
        if deadline_misses > 0 {
            iotmap_obs::annotate!("deadline_misses", deadline_misses);
        }
        if total_backoff_ms > 0 {
            iotmap_obs::annotate!("backoff_ms", total_backoff_ms);
        }

        // Replay verification: the recomputed artifact must match the
        // witness a previous run checkpointed. A mismatch means the
        // stored run diverged from this one despite an identical
        // fingerprint, so nothing else in the store can be trusted.
        let mut outcome = StageOutcome::Computed;
        if self.resume {
            if let StageArtifact::Replay { witness } = &artifact {
                if self.verify_replay(index, name, witness(&value)) {
                    outcome = StageOutcome::Replayed;
                    iotmap_obs::count!(format!("super.stage.{name}.replayed"));
                }
            }
        }

        self.save_checkpoint(index, name, &artifact, &value);

        if self.crash.kill_after_stage.as_deref() == Some(name) {
            iotmap_obs::count!("super.run.killed");
            self.log.push(StageReport {
                stage: name.to_string(),
                attempts,
                panics,
                deadline_misses,
                backoff_ms: total_backoff_ms,
                outcome: StageOutcome::Failed,
            });
            return Err(Error::stage(
                name,
                "injected kill after stage completion (crash.kill_after_stage)",
            ));
        }

        self.log.push(StageReport {
            stage: name.to_string(),
            attempts,
            panics,
            deadline_misses,
            backoff_ms: total_backoff_ms,
            outcome,
        });
        Ok(value)
    }

    /// Try to restore a `Bytes` stage from its checkpoint; `None` means
    /// the stage must be computed (missing, corrupt, or mismatched —
    /// each reported).
    fn try_restore<T>(
        &mut self,
        index: usize,
        name: &str,
        decode: fn(&mut ByteReader) -> Result<T, String>,
    ) -> Option<T> {
        let store = self.store.as_ref()?;
        match store.load(index, name, KIND_BYTES) {
            Ok(payload) => {
                let mut reader = ByteReader::new(&payload);
                match decode(&mut reader).and_then(|v| reader.finish().map(|()| v)) {
                    Ok(value) => Some(value),
                    Err(detail) => {
                        self.report_bad_checkpoint(index, name, "corrupt", &detail, true);
                        None
                    }
                }
            }
            Err(CkptError::Missing) => None,
            Err(CkptError::Corrupt(detail)) => {
                self.report_bad_checkpoint(index, name, "corrupt", &detail, true);
                None
            }
            Err(CkptError::Mismatch(detail)) => {
                self.report_bad_checkpoint(index, name, "mismatched", &detail, false);
                None
            }
        }
    }

    /// Check a recomputed `Replay` stage against its stored witness.
    /// Returns whether a stored witness matched.
    fn verify_replay(&mut self, index: usize, name: &str, witness: u64) -> bool {
        let Some(store) = self.store.as_ref() else {
            return false;
        };
        match store.load(index, name, KIND_WITNESS) {
            Ok(payload) => {
                let mut reader = ByteReader::new(&payload);
                match reader.get_u64().and_then(|w| reader.finish().map(|()| w)) {
                    Ok(stored) if stored == witness => true,
                    Ok(stored) => {
                        iotmap_obs::count!("super.checkpoints.witness_mismatch");
                        eprintln!(
                            "# checkpoint {index:02}-{name}: replay witness {witness:#x} != \
                             stored {stored:#x}; distrusting the remaining checkpoints"
                        );
                        // The store's artifacts came from a run this one
                        // does not reproduce: recompute everything else.
                        self.resume = false;
                        false
                    }
                    Err(detail) => {
                        self.report_bad_checkpoint(index, name, "corrupt", &detail, true);
                        false
                    }
                }
            }
            Err(CkptError::Missing) => false,
            Err(CkptError::Corrupt(detail)) => {
                self.report_bad_checkpoint(index, name, "corrupt", &detail, true);
                false
            }
            Err(CkptError::Mismatch(detail)) => {
                self.report_bad_checkpoint(index, name, "mismatched", &detail, false);
                false
            }
        }
    }

    fn report_bad_checkpoint(
        &self,
        index: usize,
        name: &str,
        class: &str,
        detail: &str,
        discard: bool,
    ) {
        match class {
            "corrupt" => iotmap_obs::count!("super.checkpoints.corrupt"),
            _ => iotmap_obs::count!("super.checkpoints.mismatched"),
        }
        eprintln!("# checkpoint {index:02}-{name}: {class} ({detail}); stage will recompute");
        if discard {
            if let Some(store) = self.store.as_ref() {
                store.discard(index, name);
            }
        }
    }

    fn save_checkpoint<T>(
        &mut self,
        index: usize,
        name: &str,
        artifact: &StageArtifact<T>,
        value: &T,
    ) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        let (kind, payload) = match artifact {
            StageArtifact::Volatile => return,
            StageArtifact::Replay { witness } => {
                let mut writer = ByteWriter::new();
                writer.put_u64(witness(value));
                (KIND_WITNESS, writer.into_bytes())
            }
            StageArtifact::Bytes { encode, .. } => {
                let mut writer = ByteWriter::new();
                encode(value, &mut writer);
                (KIND_BYTES, writer.into_bytes())
            }
        };
        match store.save(index, name, kind, &payload) {
            Ok(()) => iotmap_obs::count!("super.checkpoints.written"),
            Err(e) => {
                iotmap_obs::count!("super.checkpoints.write_failed");
                eprintln!("# checkpoint {index:02}-{name}: write failed ({e}); run continues");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iotmap-super-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const U64_STAGE: StageArtifact<u64> = StageArtifact::Bytes {
        encode: |v, w| w.put_u64(*v),
        decode: |r| r.get_u64(),
    };

    #[test]
    fn transient_panics_are_retried_to_success() {
        let mut sup = Supervisor::new(7);
        let calls = Cell::new(0u32);
        let out = sup
            .run_stage("flaky", StageArtifact::Volatile, || {
                calls.set(calls.get() + 1);
                if calls.get() < 3 {
                    panic!("transient");
                }
                41u64 + 1
            })
            .expect("third attempt succeeds");
        assert_eq!(out, 42);
        assert_eq!(calls.get(), 3);
        let report = &sup.log[0];
        assert_eq!(report.attempts, 3);
        assert_eq!(report.panics, 2);
        assert_eq!(report.outcome, StageOutcome::Computed);
        // The backoff schedule is seeded and deterministic.
        let expected = backoff_ms(7, "flaky", 0, 250) + backoff_ms(7, "flaky", 1, 250);
        assert_eq!(report.backoff_ms, expected);
        assert!(report.backoff_ms >= 250 + 500, "exponential floor");
    }

    #[test]
    fn exhausted_retries_fail_with_a_stage_error() {
        let mut sup = Supervisor::new(7).policy(StagePolicy {
            retries: 1,
            ..StagePolicy::default()
        });
        let err = sup
            .run_stage("doomed", StageArtifact::<u64>::Volatile, || {
                panic!("persistent")
            })
            .expect_err("both attempts panic");
        let msg = err.to_string();
        assert!(msg.contains("doomed"), "{msg}");
        assert!(msg.contains("2 attempts"), "{msg}");
        assert_eq!(sup.log[0].outcome, StageOutcome::Failed);
    }

    #[test]
    fn injected_stage_crashes_exhaust_their_budget_then_pass() {
        let mut sup = Supervisor::new(7).crash(CrashFaults {
            stage_rate: 1.0,
            max_crashes: 2,
            ..CrashFaults::NONE
        });
        let out = sup
            .run_stage("injected", StageArtifact::Volatile, || 5u64)
            .expect("attempt 2 is past the crash budget");
        assert_eq!(out, 5);
        assert_eq!(sup.log[0].attempts, 3);
        assert_eq!(sup.log[0].panics, 2);
    }

    #[test]
    fn missed_deadlines_are_failures() {
        let mut sup = Supervisor::new(7).policy(StagePolicy {
            retries: 1,
            deadline: Some(Duration::ZERO),
            ..StagePolicy::default()
        });
        let err = sup
            .run_stage("slow", StageArtifact::Volatile, || 1u64)
            .expect_err("zero deadline always misses");
        assert!(err.to_string().contains("deadline"), "{err}");
        assert_eq!(sup.log[0].deadline_misses, 2);

        // A per-stage override can relax the default.
        let mut sup = Supervisor::new(7)
            .policy(StagePolicy {
                deadline: Some(Duration::ZERO),
                ..StagePolicy::default()
            })
            .deadline_for("slow", Duration::from_secs(3600));
        assert!(sup
            .run_stage("slow", StageArtifact::Volatile, || 1u64)
            .is_ok());
    }

    #[test]
    fn checkpointed_stages_restore_without_running() {
        let dir = temp_dir("restore");
        let mut first =
            Supervisor::new(7).store(CheckpointStore::open(&dir, 0xF00D).unwrap(), false);
        assert_eq!(
            first.run_stage("derived", U64_STAGE, || 1234u64).unwrap(),
            1234
        );

        let mut resumed =
            Supervisor::new(7).store(CheckpointStore::open(&dir, 0xF00D).unwrap(), true);
        let out = resumed
            .run_stage("derived", U64_STAGE, || {
                panic!("must not run: checkpoint verifies")
            })
            .unwrap();
        assert_eq!(out, 1234);
        assert_eq!(resumed.log[0].outcome, StageOutcome::Restored);
        assert_eq!(resumed.log[0].attempts, 0);

        // A different fingerprint refuses the file and recomputes.
        let mut other =
            Supervisor::new(7).store(CheckpointStore::open(&dir, 0xBEEF).unwrap(), true);
        assert_eq!(other.run_stage("derived", U64_STAGE, || 9u64).unwrap(), 9);
        assert_eq!(other.log[0].outcome, StageOutcome::Computed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_witness_mismatch_distrusts_the_store() {
        const REPLAYED: StageArtifact<u64> = StageArtifact::Replay { witness: |v| *v };
        let dir = temp_dir("witness");
        let mut first = Supervisor::new(7).store(CheckpointStore::open(&dir, 1).unwrap(), false);
        first.run_stage("gen", REPLAYED, || 10u64).unwrap();
        first.run_stage("derived", U64_STAGE, || 20u64).unwrap();

        // Resume where the replayed stage produces a different artifact:
        // the witness mismatch must invalidate the derived checkpoint.
        let mut diverged = Supervisor::new(7).store(CheckpointStore::open(&dir, 1).unwrap(), true);
        assert_eq!(diverged.run_stage("gen", REPLAYED, || 11u64).unwrap(), 11);
        assert_eq!(diverged.log[0].outcome, StageOutcome::Computed);
        let out = diverged.run_stage("derived", U64_STAGE, || 21u64).unwrap();
        assert_eq!(out, 21, "derived checkpoint no longer trusted");

        // A faithful resume replay-verifies and restores. (The diverged
        // run above overwrote the witness with 11.)
        let mut faithful = Supervisor::new(7).store(CheckpointStore::open(&dir, 1).unwrap(), true);
        assert_eq!(faithful.run_stage("gen", REPLAYED, || 11u64).unwrap(), 11);
        assert_eq!(faithful.log[0].outcome, StageOutcome::Replayed);
        assert_eq!(
            faithful
                .run_stage("derived", U64_STAGE, || panic!("restored"))
                .unwrap(),
            21
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_switch_fires_after_the_checkpoint_is_written() {
        let dir = temp_dir("kill");
        let mut sup = Supervisor::new(7)
            .store(CheckpointStore::open(&dir, 2).unwrap(), false)
            .crash(CrashFaults {
                kill_after_stage: Some("derived".to_string()),
                ..CrashFaults::NONE
            });
        let err = sup
            .run_stage("derived", U64_STAGE, || 77u64)
            .expect_err("kill switch aborts the run");
        assert!(err.to_string().contains("injected kill"), "{err}");

        // The checkpoint survived the kill: a resume restores it.
        let mut resumed = Supervisor::new(7).store(CheckpointStore::open(&dir, 2).unwrap(), true);
        assert_eq!(
            resumed
                .run_stage("derived", U64_STAGE, || panic!("restored"))
                .unwrap(),
            77
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
