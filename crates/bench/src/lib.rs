//! # iotmap-bench — the experiment harness
//!
//! Shared plumbing for regenerating every table and figure of the paper.
//! World-building, discovery, footprints, and the traffic passes all live
//! behind [`iotmap::Pipeline`]; this crate wraps its [`RunArtifacts`] with
//! the experiment-only extras (anonymized labels) and the tiny
//! dependency-free CLI parser. See `src/bin/exp/main.rs` for the
//! experiment entry point and its table of experiments.

pub mod record;

pub use iotmap::{Pipeline, RunArtifacts, SCANNER_THRESHOLD};

use iotmap_faults::FaultPlan;
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
    /// Build everything for a configuration, panicking on a pipeline
    /// failure (a bug by construction for tests and doc examples). This
    /// is the §3 + §4 part of the study (discovery, validation,
    /// footprints); traffic passes are separate because only some
    /// experiments need them, each over its own study period. Runs on the
    /// calling thread's `iotmap_par` budget.
    ///
    /// Binaries build the [`Pipeline`] with [`CliOptions::pipeline`] and
    /// wrap its artifacts with [`Experiment::new`], exiting 1 on failure.
    pub fn prepare(config: &WorldConfig) -> Experiment {
        let artifacts = Pipeline::new(config.clone())
            .threads(iotmap_par::threads())
            .run()
            .unwrap_or_else(|e| panic!("experiment preparation failed: {e}"));
        Experiment::new(artifacts)
    }

    /// Wrap a finished run with the paper's anonymization scheme.
    pub fn new(artifacts: RunArtifacts) -> Experiment {
        Experiment {
            artifacts,
            anonymization: Anonymization::paper(),
        }
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
        let mut o = CliOptions {
            seed: 42,
            preset: "paper".to_string(),
            experiment: String::new(),
            out_dir: None,
            trace: false,
            metrics: None,
            trace_out: None,
            gate: false,
            top: 15,
            smoke: false,
            days: 7,
            scale: 1,
            history: None,
            threads: std::env::var("IOTMAP_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(1),
            faults: "none".to_string(),
            checkpoints: None,
            resume: None,
            cache: iotmap::cache_dir_from_env(std::env::var_os("IOTMAP_CACHE"))
                .and_then(|dir| dir.into_os_string().into_string().ok()),
            file: None,
            matrix: None,
        };
        fn number<T: std::str::FromStr>(v: String, what: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("bad {what}: {e}"))
        }
        let mut experiment = None;
        // Mode-specific flags actually given, for the post-parse check
        // that they match the selected experiment.
        let mut mode_flags: Vec<(&str, &[&str])> = Vec::new();
        let mut it = args.skip(1);
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag {
                "--seed" => o.seed = number(value("a value")?, "seed")?,
                "--preset" => o.preset = value("a value")?,
                "--out" => o.out_dir = Some(value("a directory")?),
                "--trace" => o.trace = true,
                "--metrics" => o.metrics = Some(value("a file path")?),
                "--trace-out" => o.trace_out = Some(value("a file path")?),
                "--gate" => o.gate = true,
                "--top" => o.top = number(value("a value")?, "top count")?,
                "--smoke" => o.smoke = true,
                "--days" => o.days = number(value("a value")?, "day count")?,
                "--scale" => o.scale = number(value("a value")?, "scale factor")?,
                "--history" => o.history = Some(value("a file path")?),
                "--threads" => o.threads = number(value("a value")?, "thread count")?,
                "--faults" => o.faults = value("a value")?,
                "--checkpoints" => o.checkpoints = Some(value("a directory")?),
                "--resume" => o.resume = Some(value("a directory")?),
                "--cache" => o.cache = Some(value("a directory")?),
                "--file" => o.file = Some(value("a scenario file path")?),
                "--matrix" => o.matrix = Some(value("a directory")?),
                "--help" | "-h" => return Err(usage()),
                other if experiment.is_none() && !other.starts_with('-') => {
                    experiment = Some(other.to_string());
                }
                other => return Err(format!("unknown argument {other:?}\n{}", usage())),
            }
            if let Some(&mode_flag) = MODE_FLAGS.iter().find(|(f, _)| *f == flag) {
                mode_flags.push(mode_flag);
            }
        }
        o.experiment = experiment.ok_or_else(usage)?;
        for (flag, zero) in [("--days", o.days == 0), ("--scale", o.scale == 0)] {
            if zero {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        let experiment = o.experiment.as_str();
        // Mode-specific flags are rejected — not silently ignored — when
        // the selected experiment cannot honour them.
        for (flag, allowed) in mode_flags {
            if !allowed.contains(&experiment) {
                return Err(format!(
                    "{flag} is only valid for the {} experiment{}, not {experiment:?}\n{}",
                    allowed.join("/"),
                    if allowed.len() > 1 { "s" } else { "" },
                    usage()
                ));
            }
        }
        // The modes that build their own pipelines take no checkpoint
        // directory, and the two that never install a recorder take no
        // observability output.
        const OWN_PIPELINES: &[&str] = &["bench", "crash-recovery", "longitudinal", "scenario"];
        const UNRECORDED: &[&str] = &["crash-recovery", "longitudinal"];
        let unsupported = [
            ("--checkpoints", o.checkpoints.is_some(), OWN_PIPELINES),
            ("--resume", o.resume.is_some(), OWN_PIPELINES),
            ("--trace", o.trace, UNRECORDED),
            ("--metrics", o.metrics.is_some(), UNRECORDED),
            ("--trace-out", o.trace_out.is_some(), UNRECORDED),
        ];
        for (flag, given, modes) in unsupported {
            if given && modes.contains(&experiment) {
                return Err(format!(
                    "{flag} is not supported by the {experiment:?} experiment\n{}",
                    usage()
                ));
            }
        }
        Ok(o)
    }

    /// Whether `--trace`, `--metrics` or `--trace-out` asked for a
    /// recorder over the run.
    pub fn instrumented(&self) -> bool {
        self.trace || self.metrics.is_some() || self.trace_out.is_some()
    }

    /// The pipeline these options run: `config` under `faults`, on
    /// `--threads` workers, with the `--cache` world cache. Callers add
    /// checkpoints, resume or a scenario.
    pub fn pipeline(&self, config: &WorldConfig, faults: FaultPlan) -> Pipeline {
        let pipeline = Pipeline::new(config.clone())
            .threads(self.threads)
            .faults(faults);
        match &self.cache {
            Some(dir) => pipeline.cache(dir),
            None => pipeline,
        }
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

/// The mode-specific flags and the experiments that honour them.
const MODE_FLAGS: &[(&str, &[&str])] = &[
    ("--gate", &["bench", "longitudinal"]),
    ("--history", &["bench", "longitudinal"]),
    ("--top", &["profile"]),
    ("--smoke", &["profile"]),
    ("--days", &["longitudinal"]),
    ("--scale", &["bench"]),
    ("--file", &["scenario"]),
    ("--matrix", &["scenario"]),
];

fn usage() -> String {
    "usage: exp <experiment|all> [--seed N] [--preset small|medium|paper] [--out DIR]\n\
     \x20          [--trace] [--metrics FILE] [--trace-out FILE] [--threads N]\n\
     \x20          [--faults none|light|heavy|FILE] [--checkpoints DIR] [--resume DIR]\n\
     \x20          [--cache DIR] [--history FILE] [--gate] [--top N] [--smoke] [--days N]\n\
     \x20          [--scale N] [--file SCENARIO.scn] [--matrix DIR]\n\
     experiments: table1 fig3 fig4 vantage validation shared diversity ports-observed\n\
     \x20          consistency fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12a fig12b fig12c\n\
     \x20          fig13 fig14 fig15 fig16 outage-deps sec62-bgp sec62-blocklist cascade\n\
     \x20          monitor ablation-coverage ablation-hitlist robustness bench\n\
     \x20          crash-recovery profile longitudinal scenario"
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
    fn cli_rejects_flags_a_mode_cannot_honour() {
        // Modes that build their own pipelines write no checkpoints, and
        // crash-recovery and longitudinal install no recorder.
        let cases: &[&[&str]] = &[
            &["exp", "bench", "--checkpoints", "d"],
            &["exp", "bench", "--resume", "d"],
            &["exp", "crash-recovery", "--checkpoints", "d"],
            &["exp", "longitudinal", "--checkpoints", "d"],
            &["exp", "longitudinal", "--resume", "d"],
            &["exp", "scenario", "--resume", "d"],
            &["exp", "crash-recovery", "--trace"],
            &["exp", "crash-recovery", "--metrics", "m.jsonl"],
            &["exp", "longitudinal", "--metrics", "m.jsonl"],
            &["exp", "longitudinal", "--trace-out", "t.json"],
        ];
        for case in cases {
            let err = CliOptions::parse(case.iter().map(|s| s.to_string()))
                .err()
                .unwrap_or_else(|| panic!("{case:?} must be rejected"));
            assert!(
                err.contains(case[2]) && err.contains(case[1]),
                "{case:?}: error must name the flag and the experiment, got: {err}"
            );
        }

        // The same flags stay valid where they are honoured.
        let accepted: &[&[&str]] = &[
            &["exp", "table1", "--checkpoints", "d"],
            &["exp", "profile", "--resume", "d"],
            &["exp", "bench", "--metrics", "m.jsonl", "--trace"],
            &["exp", "scenario", "--trace-out", "t.json"],
        ];
        for case in accepted {
            assert!(
                CliOptions::parse(case.iter().map(|s| s.to_string())).is_ok(),
                "{case:?} must be accepted"
            );
        }
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
