//! # iotmap-bench — the experiment harness
//!
//! Shared plumbing for regenerating every table and figure of the paper.
//! World-building, discovery, footprints, and the traffic passes all live
//! behind [`iotmap::Pipeline`]; this crate wraps its [`RunArtifacts`] with
//! the experiment-only extras (anonymized labels) and the tiny
//! dependency-free CLI parser. See `src/bin/exp.rs` for the experiment
//! entry point.

pub use iotmap::{Pipeline, RunArtifacts, SCANNER_THRESHOLD};

use iotmap_faults::FaultPlan;
use iotmap_nettypes::Error;
use iotmap_traffic::Anonymization;
use iotmap_world::WorldConfig;
use std::ops::Deref;

/// A fully prepared experiment: the pipeline's [`RunArtifacts`] plus the
/// paper's anonymization scheme. Derefs to [`RunArtifacts`], so the world,
/// scans, discovery, index, and traffic passes are all reachable directly
/// (`exp.discovery`, `exp.contact_pass(..)`, …).
pub struct Experiment {
    pub artifacts: RunArtifacts,
    pub anonymization: Anonymization,
}

impl Deref for Experiment {
    type Target = RunArtifacts;

    fn deref(&self) -> &RunArtifacts {
        &self.artifacts
    }
}

impl Experiment {
    /// Build everything for a configuration, panicking on invalid built-in
    /// patterns (which would be a bug, not an input error). This is the
    /// §3 + §4 part of the study (discovery, validation, footprints);
    /// traffic passes are separate because only some experiments need
    /// them, each over its own study period.
    ///
    /// Binaries should reach for [`Experiment::try_prepare`] instead and
    /// exit 1 with the error message (the `exp` contract for stage
    /// failures); this panicking form is for tests and doc examples where
    /// a preparation failure is a bug by construction.
    pub fn prepare(config: &WorldConfig) -> Experiment {
        Self::try_prepare(config).unwrap_or_else(|e| panic!("experiment preparation failed: {e}"))
    }

    /// [`Experiment::prepare`] under a fault plan: every synthetic data
    /// source suffers the plan's seeded faults and the methodology
    /// degrades gracefully ([`FaultPlan::none`] is byte-identical to
    /// [`Experiment::prepare`]). Panics on failure — binaries should use
    /// [`Experiment::try_prepare_with_faults`] and exit 1 instead.
    pub fn prepare_with_faults(config: &WorldConfig, faults: FaultPlan) -> Experiment {
        Self::try_prepare_with_faults(config, faults)
            .unwrap_or_else(|e| panic!("experiment preparation failed: {e}"))
    }

    /// [`Experiment::prepare`], but surfacing pipeline errors. Runs on
    /// the calling thread's current `iotmap_par` budget (the `exp` binary
    /// sets it from `--threads` before preparing).
    pub fn try_prepare(config: &WorldConfig) -> Result<Experiment, Error> {
        Self::try_prepare_with_faults(config, FaultPlan::none())
    }

    /// [`Experiment::prepare_with_faults`], surfacing pipeline errors.
    pub fn try_prepare_with_faults(
        config: &WorldConfig,
        faults: FaultPlan,
    ) -> Result<Experiment, Error> {
        Self::try_prepare_opts(config, faults, None, None, None)
    }

    /// The full fallible constructor: faults plus optional checkpointing
    /// and the memoized world cache. `resume` wins over `checkpoints` when
    /// both are given (a resumed run re-checkpoints into the same
    /// directory anyway); see [`Pipeline::cache`] for how the cache
    /// composes with both.
    pub fn try_prepare_opts(
        config: &WorldConfig,
        faults: FaultPlan,
        checkpoints: Option<&str>,
        resume: Option<&str>,
        cache: Option<&str>,
    ) -> Result<Experiment, Error> {
        let mut pipeline = Pipeline::new(config.clone())
            .threads(iotmap_par::threads())
            .faults(faults);
        if let Some(dir) = resume {
            pipeline = pipeline.resume(dir);
        } else if let Some(dir) = checkpoints {
            pipeline = pipeline.checkpoints(dir);
        }
        if let Some(dir) = cache {
            pipeline = pipeline.cache(dir);
        }
        let artifacts = pipeline.run()?;
        Ok(Experiment {
            artifacts,
            anonymization: Anonymization::paper(),
        })
    }

    /// Anonymized label for a provider name.
    pub fn label(&self, provider: &str) -> &'static str {
        self.anonymization.label(provider)
    }
}

/// Parse `--seed`, `--scale` style CLI options (tiny, dependency-free).
pub struct CliOptions {
    pub seed: u64,
    pub preset: String,
    pub experiment: String,
    /// Directory to persist CSV artifacts into (`--out DIR`).
    pub out_dir: Option<String>,
    /// Print the instrumented span tree to stderr at exit (`--trace`).
    pub trace: bool,
    /// Write metrics as JSON-lines to this file at exit (`--metrics FILE`).
    pub metrics: Option<String>,
    /// Write the span tree as Chrome Trace Event Format JSON to this file
    /// at exit (`--trace-out FILE`) — loadable in `chrome://tracing` and
    /// Perfetto.
    pub trace_out: Option<String>,
    /// For `bench`: fail (exit 1) when any tracked stage regresses more
    /// than 25% vs the last comparable `BENCH_history.jsonl` entry
    /// (`--gate`).
    pub gate: bool,
    /// For `profile`: how many spans the self-time table lists
    /// (`--top N`, default 15).
    pub top: usize,
    /// For `profile`: skip the traffic passes so the invocation stays
    /// fast enough for `scripts/check.sh` (`--smoke`).
    pub smoke: bool,
    /// For `longitudinal`: how many days to roll the run forward
    /// (`--days N`, default 7).
    pub days: usize,
    /// For `bench`: population multiplier for the scaled phase
    /// (`--scale N`, default 1). Drives the replicated ISP run; `1`
    /// keeps the bench at the world's native size.
    pub scale: u64,
    /// Perf-history file override (`--history FILE`); defaults to
    /// `BENCH_history.jsonl` under `--out` (or the working directory).
    pub history: Option<String>,
    /// Worker-thread budget for the parallel stages (`--threads N`, 0 =
    /// all cores; defaults to `IOTMAP_THREADS` or 1). Output is
    /// byte-identical at any value.
    pub threads: usize,
    /// Fault plan selector (`--faults none|light|heavy|FILE`); a file is
    /// parsed with [`FaultPlan::parse_config`].
    pub faults: String,
    /// Checkpoint each completed pipeline stage into this run directory
    /// (`--checkpoints DIR`).
    pub checkpoints: Option<String>,
    /// Resume from checkpoints in this run directory (`--resume DIR`);
    /// implies checkpointing the stages that still have to run.
    pub resume: Option<String>,
    /// Memoized world cache directory (`--cache DIR`; defaults to
    /// `IOTMAP_CACHE` when set). See [`Pipeline::cache`] for how the
    /// cache composes with checkpoints and resume.
    pub cache: Option<String>,
    /// For `scenario`: one scenario file to run (`--file F`).
    pub file: Option<String>,
    /// For `scenario`: run every `*.scn` file in a directory
    /// (`--matrix DIR`).
    pub matrix: Option<String>,
}

impl CliOptions {
    /// Parse from `std::env::args`. Usage:
    /// `exp <experiment|all> [--seed N] [--preset small|medium|paper]`.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
        let mut seed = 42u64;
        let mut preset = "paper".to_string();
        let mut experiment = None;
        let mut out_dir = None;
        let mut trace = false;
        let mut metrics = None;
        let mut trace_out = None;
        let mut gate = false;
        let mut top = 15usize;
        let mut smoke = false;
        let mut days = 7usize;
        let mut scale = 1u64;
        let mut history = None;
        // Mode-specific flags actually given, for the post-parse check
        // that they match the selected experiment.
        let mut mode_flags: Vec<&'static str> = Vec::new();
        let mut threads = std::env::var("IOTMAP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(1usize);
        let mut faults = "none".to_string();
        let mut checkpoints = None;
        let mut resume = None;
        let mut cache = std::env::var("IOTMAP_CACHE")
            .ok()
            .filter(|v| !v.trim().is_empty());
        let mut file = None;
        let mut matrix = None;
        let mut it = args.skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seed" => {
                    seed = it
                        .next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?;
                }
                "--preset" => {
                    preset = it.next().ok_or("--preset needs a value")?;
                }
                "--out" => {
                    out_dir = Some(it.next().ok_or("--out needs a directory")?);
                }
                "--trace" => {
                    trace = true;
                }
                "--metrics" => {
                    metrics = Some(it.next().ok_or("--metrics needs a file path")?);
                }
                "--trace-out" => {
                    trace_out = Some(it.next().ok_or("--trace-out needs a file path")?);
                }
                "--gate" => {
                    gate = true;
                    mode_flags.push("--gate");
                }
                "--top" => {
                    top = it
                        .next()
                        .ok_or("--top needs a value")?
                        .parse()
                        .map_err(|e| format!("bad top count: {e}"))?;
                    mode_flags.push("--top");
                }
                "--smoke" => {
                    smoke = true;
                    mode_flags.push("--smoke");
                }
                "--days" => {
                    days = it
                        .next()
                        .ok_or("--days needs a value")?
                        .parse()
                        .map_err(|e| format!("bad day count: {e}"))?;
                    if days == 0 {
                        return Err("--days must be at least 1".to_string());
                    }
                    mode_flags.push("--days");
                }
                "--scale" => {
                    scale = it
                        .next()
                        .ok_or("--scale needs a value")?
                        .parse()
                        .map_err(|e| format!("bad scale factor: {e}"))?;
                    if scale == 0 {
                        return Err("--scale must be at least 1".to_string());
                    }
                    mode_flags.push("--scale");
                }
                "--history" => {
                    history = Some(it.next().ok_or("--history needs a file path")?);
                    mode_flags.push("--history");
                }
                "--threads" => {
                    threads = it
                        .next()
                        .ok_or("--threads needs a value")?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?;
                }
                "--faults" => {
                    faults = it.next().ok_or("--faults needs a value")?;
                }
                "--checkpoints" => {
                    checkpoints = Some(it.next().ok_or("--checkpoints needs a directory")?);
                }
                "--resume" => {
                    resume = Some(it.next().ok_or("--resume needs a directory")?);
                }
                "--cache" => {
                    cache = Some(it.next().ok_or("--cache needs a directory")?);
                }
                "--file" => {
                    file = Some(it.next().ok_or("--file needs a scenario file path")?);
                    mode_flags.push("--file");
                }
                "--matrix" => {
                    matrix = Some(it.next().ok_or("--matrix needs a directory")?);
                    mode_flags.push("--matrix");
                }
                "--help" | "-h" => return Err(usage()),
                other if experiment.is_none() && !other.starts_with('-') => {
                    experiment = Some(other.to_string());
                }
                other => return Err(format!("unknown argument {other:?}\n{}", usage())),
            }
        }
        let experiment = experiment.ok_or_else(usage)?;
        // Mode-specific flags are rejected — not silently ignored — when
        // the selected experiment cannot honour them.
        for flag in mode_flags {
            let allowed: &[&str] = match flag {
                "--gate" | "--history" => &["bench", "longitudinal"],
                "--top" | "--smoke" => &["profile"],
                "--days" => &["longitudinal"],
                "--scale" => &["bench"],
                "--file" | "--matrix" => &["scenario"],
                _ => unreachable!("unlisted mode flag {flag}"),
            };
            if !allowed.contains(&experiment.as_str()) {
                return Err(format!(
                    "{flag} is only valid for the {} experiment{}, not {experiment:?}\n{}",
                    allowed.join("/"),
                    if allowed.len() > 1 { "s" } else { "" },
                    usage()
                ));
            }
        }
        Ok(CliOptions {
            seed,
            preset,
            experiment,
            out_dir,
            trace,
            metrics,
            trace_out,
            gate,
            top,
            smoke,
            days,
            scale,
            history,
            threads,
            faults,
            checkpoints,
            resume,
            cache,
            file,
            matrix,
        })
    }

    /// The world configuration the options select.
    pub fn config(&self) -> Result<WorldConfig, String> {
        match self.preset.as_str() {
            "small" => Ok(WorldConfig::small(self.seed)),
            "medium" => Ok(WorldConfig::medium(self.seed)),
            "paper" => Ok(WorldConfig::paper(self.seed)),
            other => Err(format!("unknown preset {other:?} (small|medium|paper)")),
        }
    }

    /// The fault plan the options select: a preset name
    /// (`none`/`light`/`heavy`) or a path to a `key = value` config file
    /// understood by [`FaultPlan::parse_config`].
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        if let Some(plan) = FaultPlan::preset(&self.faults) {
            return Ok(plan);
        }
        let text = std::fs::read_to_string(&self.faults).map_err(|e| {
            format!(
                "--faults {:?}: not a preset and unreadable: {e}",
                self.faults
            )
        })?;
        FaultPlan::parse_config(&text).map_err(|e| format!("--faults {:?}: {e}", self.faults))
    }
}

fn usage() -> String {
    "usage: exp <experiment|all> [--seed N] [--preset small|medium|paper] [--out DIR]\n\
     \x20          [--trace] [--metrics FILE] [--trace-out FILE] [--threads N]\n\
     \x20          [--faults none|light|heavy|FILE] [--checkpoints DIR] [--resume DIR]\n\
     \x20          [--cache DIR] [--history FILE] [--gate] [--top N] [--smoke] [--days N]\n\
     \x20          [--scale N] [--file SCENARIO.scn] [--matrix DIR]\n\
     experiments: table1 fig3 fig4 fig5..fig16 vantage validation shared \
     diversity ports-observed consistency sec62-bgp sec62-blocklist \
     outage-deps cascade monitor ablation-coverage ablation-hitlist robustness \
     bench crash-recovery profile longitudinal scenario"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parsing() {
        let opts = CliOptions::parse(
            ["exp", "table1", "--seed", "7", "--preset", "small"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.experiment, "table1");
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.preset, "small");
        assert!(opts.config().is_ok());
        assert!(!opts.trace);
        assert!(opts.metrics.is_none());
        // The default honours IOTMAP_THREADS (the CI matrix sets it).
        let default_threads = std::env::var("IOTMAP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(1usize);
        assert_eq!(opts.threads, default_threads);

        let opts = CliOptions::parse(
            [
                "exp",
                "table1",
                "--trace",
                "--metrics",
                "m.jsonl",
                "--threads",
                "4",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(opts.trace);
        assert_eq!(opts.metrics.as_deref(), Some("m.jsonl"));
        assert_eq!(opts.threads, 4);
    }

    #[test]
    fn cli_profiling_flags() {
        let opts = CliOptions::parse(["exp", "profile"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.experiment, "profile");
        assert!(opts.trace_out.is_none());
        assert!(!opts.gate);
        assert_eq!(opts.top, 15);
        assert!(!opts.smoke);
        assert!(opts.history.is_none());

        let opts = CliOptions::parse(
            [
                "exp",
                "bench",
                "--trace-out",
                "t.json",
                "--gate",
                "--history",
                "h.jsonl",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        assert!(opts.gate);
        assert_eq!(opts.history.as_deref(), Some("h.jsonl"));

        let opts = CliOptions::parse(
            ["exp", "profile", "--top", "5", "--smoke"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.top, 5);
        assert!(opts.smoke);

        assert!(CliOptions::parse(
            ["exp", "profile", "--top", "many"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
    }

    #[test]
    fn cli_longitudinal_flags() {
        let opts =
            CliOptions::parse(["exp", "longitudinal"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.days, 7);

        let opts = CliOptions::parse(
            ["exp", "longitudinal", "--days", "3", "--gate"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.days, 3);
        assert!(opts.gate);

        assert!(CliOptions::parse(
            ["exp", "longitudinal", "--days", "0"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
        assert!(CliOptions::parse(
            ["exp", "longitudinal", "--days", "soon"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
    }

    #[test]
    fn cli_scale_flag() {
        let opts = CliOptions::parse(["exp", "bench"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.scale, 1, "native size by default");

        let opts = CliOptions::parse(
            ["exp", "bench", "--scale", "16"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.scale, 16);

        // Zero and non-numeric factors are rejected with a message that
        // names the flag.
        for bad in [
            &["exp", "bench", "--scale", "0"][..],
            &["exp", "bench", "--scale", "lots"][..],
        ] {
            let err = CliOptions::parse(bad.iter().map(|s| s.to_string()))
                .err()
                .unwrap_or_else(|| panic!("{bad:?} must be rejected"));
            assert!(err.contains("scale"), "{bad:?}: got: {err}");
        }
        assert!(
            CliOptions::parse(["exp", "bench", "--scale"].iter().map(|s| s.to_string())).is_err()
        );
    }

    #[test]
    fn cli_scenario_flags() {
        let opts = CliOptions::parse(["exp", "scenario"].iter().map(|s| s.to_string())).unwrap();
        assert!(opts.file.is_none());
        assert!(opts.matrix.is_none());

        let opts = CliOptions::parse(
            ["exp", "scenario", "--file", "scenarios/cert_storm.scn"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.file.as_deref(), Some("scenarios/cert_storm.scn"));

        let opts = CliOptions::parse(
            ["exp", "scenario", "--matrix", "scenarios"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.matrix.as_deref(), Some("scenarios"));

        assert!(
            CliOptions::parse(["exp", "scenario", "--file"].iter().map(|s| s.to_string())).is_err()
        );
        assert!(CliOptions::parse(
            ["exp", "scenario", "--matrix"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
    }

    #[test]
    fn cli_rejects_mode_flags_on_other_experiments() {
        // A mode-specific flag handed to an experiment that cannot honour
        // it must be an error, not a silent no-op.
        let cases: &[&[&str]] = &[
            &["exp", "table1", "--days", "7"],
            &["exp", "bench", "--days", "7"],
            &["exp", "bench", "--top", "5"],
            &["exp", "bench", "--smoke"],
            &["exp", "table1", "--gate"],
            &["exp", "profile", "--gate"],
            &["exp", "table1", "--history", "h.jsonl"],
            &["exp", "table1", "--scale", "4"],
            &["exp", "profile", "--scale", "4"],
            &["exp", "longitudinal", "--scale", "4"],
            &["exp", "table1", "--file", "s.scn"],
            &["exp", "bench", "--file", "s.scn"],
            &["exp", "table1", "--matrix", "scenarios"],
            &["exp", "longitudinal", "--matrix", "scenarios"],
        ];
        for case in cases {
            let err = CliOptions::parse(case.iter().map(|s| s.to_string()))
                .err()
                .unwrap_or_else(|| panic!("{case:?} must be rejected"));
            assert!(
                err.contains(case[2]),
                "{case:?}: error must name the offending flag, got: {err}"
            );
        }

        // The universal flags stay universal.
        assert!(CliOptions::parse(
            ["exp", "table1", "--trace-out", "t.json", "--threads", "2"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_ok());
    }

    #[test]
    fn cli_fault_plans() {
        let opts = CliOptions::parse(["exp", "table1"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.faults, "none");
        assert!(!opts.fault_plan().unwrap().is_active());

        let opts = CliOptions::parse(
            ["exp", "table1", "--faults", "heavy"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.fault_plan().unwrap(), FaultPlan::heavy());

        let opts = CliOptions::parse(
            ["exp", "table1", "--faults", "/no/such/file.conf"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(opts.fault_plan().is_err());
    }

    #[test]
    fn cli_checkpoint_flags() {
        let opts = CliOptions::parse(["exp", "table1"].iter().map(|s| s.to_string())).unwrap();
        assert!(opts.checkpoints.is_none());
        assert!(opts.resume.is_none());

        let opts = CliOptions::parse(
            ["exp", "table1", "--checkpoints", "/tmp/run1"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.checkpoints.as_deref(), Some("/tmp/run1"));

        let opts = CliOptions::parse(
            ["exp", "table1", "--resume", "/tmp/run1"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.resume.as_deref(), Some("/tmp/run1"));

        assert!(
            CliOptions::parse(["exp", "table1", "--resume"].iter().map(|s| s.to_string())).is_err()
        );

        let opts = CliOptions::parse(
            ["exp", "table1", "--cache", "/tmp/wc"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.cache.as_deref(), Some("/tmp/wc"));
        assert!(
            CliOptions::parse(["exp", "table1", "--cache"].iter().map(|s| s.to_string())).is_err()
        );
    }

    #[test]
    fn cli_rejects_bad_input() {
        assert!(CliOptions::parse(["exp"].iter().map(|s| s.to_string())).is_err());
        assert!(CliOptions::parse(["exp", "x", "--bogus"].iter().map(|s| s.to_string())).is_err());
        assert!(CliOptions::parse(
            ["exp", "x", "--threads", "no"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
        let opts = CliOptions::parse(
            ["exp", "x", "--preset", "huge"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(opts.config().is_err());
    }

    #[test]
    fn experiment_prepare_small_world() {
        let exp = Experiment::prepare(&WorldConfig::small(42));
        assert_eq!(exp.discovery.per_provider().count(), 16);
        assert!(exp.index.len() > 100);
        // Google's shared HTTPS set must have been pruned from the index.
        let g = exp.index.provider_index("google").unwrap();
        let google_indexed = exp.index.ips_of(g).len();
        let google_discovered = exp.discovery.get("google").unwrap().ips.len();
        assert!(google_indexed < google_discovered);
        assert!(!exp.shared_ips.is_empty());
    }
}
