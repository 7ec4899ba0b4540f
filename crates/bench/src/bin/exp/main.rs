//! `exp` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p iotmap-bench --bin exp -- all
//! cargo run --release -p iotmap-bench --bin exp -- fig13 --preset paper --seed 42
//! ```
//!
//! Output is plain text: the same rows/series the paper's tables and
//! figures report. EXPERIMENTS.md records a reference run.
//!
//! [`EXPERIMENTS`] is the one list of experiments: `all`, the unknown-name
//! check, the main-week traffic decision and dispatch all read it. Each
//! family lives in its own module.

mod bench;
mod deps;
mod discovery;
mod longitudinal;
mod recovery;
mod scenario;
mod traffic;

use iotmap_bench::record::{self, Value};
use iotmap_bench::{CliOptions, Experiment, Pipeline};
use iotmap_core::report::TextTable;
use iotmap_faults::FaultPlan;
use iotmap_netflow::LineId;
use iotmap_traffic::{AnalysisReport, Contacts};
use iotmap_world::WorldConfig;
use std::cell::Cell;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// The parsed command line: the options plus the world configuration and
/// fault plan they select.
struct Cli {
    opts: CliOptions,
    config: WorldConfig,
    faults: FaultPlan,
    /// The experiment now running: [`emit_table`] names its CSV after it.
    running: Cell<&'static str>,
}

impl Cli {
    /// Parse `std::env::args`, or exit 2 with the usage error.
    fn from_args() -> Cli {
        let opts = CliOptions::parse(std::env::args()).unwrap_or_else(|m| usage_error(m));
        let config = opts.config().unwrap_or_else(|m| usage_error(m));
        let faults = opts.fault_plan().unwrap_or_else(|m| usage_error(m));
        Cli {
            opts,
            config,
            faults,
            running: Cell::new(""),
        }
    }
}

/// The main-week traffic analysis: contacts, excluded scanner lines and
/// the analysis report.
type MainWeek = (Contacts, HashSet<LineId>, AnalysisReport);

/// How an experiment runs.
#[derive(Clone, Copy)]
enum Kind {
    /// A mode: prepares its own worlds, and `all` skips it.
    Mode(fn(&Cli)),
    /// Runs on the shared prepared world.
    World(fn(&Cli, &Experiment)),
    /// Runs on the shared world and the main-week traffic analysis.
    Traffic(fn(&Cli, &Experiment, &MainWeek)),
}

use Kind::{Mode, Traffic, World};

/// Every experiment, in `exp all` order.
const EXPERIMENTS: &[(&str, Kind)] = &[
    ("table1", World(discovery::run_table1)),
    ("fig3", World(discovery::run_fig3)),
    ("fig4", World(discovery::run_fig4)),
    ("vantage", World(discovery::run_vantage)),
    ("validation", World(discovery::run_validation)),
    ("shared", World(discovery::run_shared)),
    ("diversity", World(discovery::run_diversity)),
    ("ports-observed", World(discovery::run_ports_observed)),
    ("consistency", World(discovery::run_consistency)),
    ("fig5", Traffic(traffic::run_fig5)),
    ("fig6", Traffic(traffic::run_fig6)),
    ("fig7", Traffic(traffic::run_fig7)),
    ("fig8", Traffic(traffic::run_fig8)),
    ("fig9", Traffic(traffic::run_fig9)),
    ("fig10", Traffic(traffic::run_fig10)),
    ("fig11", Traffic(traffic::run_fig11)),
    ("fig12a", Traffic(traffic::run_fig12a)),
    ("fig12b", Traffic(traffic::run_fig12b)),
    ("fig12c", Traffic(traffic::run_fig12c)),
    ("fig13", Traffic(traffic::run_fig13)),
    ("fig14", Traffic(traffic::run_fig14)),
    ("fig15", World(traffic::run_fig15)),
    ("fig16", World(traffic::run_fig16)),
    ("outage-deps", World(traffic::run_outage_deps)),
    ("sec62-bgp", World(deps::run_sec62_bgp)),
    ("sec62-blocklist", World(deps::run_sec62_blocklist)),
    ("cascade", World(deps::run_cascade)),
    ("monitor", World(deps::run_monitor)),
    ("ablation-coverage", World(discovery::run_ablation_coverage)),
    ("ablation-hitlist", World(discovery::run_ablation_hitlist)),
    ("robustness", World(discovery::run_robustness)),
    ("bench", Mode(bench::run_bench)),
    ("crash-recovery", Mode(recovery::run_crash_recovery)),
    ("profile", Mode(bench::run_profile)),
    ("longitudinal", Mode(longitudinal::run_longitudinal)),
    ("scenario", Mode(scenario::run_scenario)),
];

fn main() {
    let cli = Cli::from_args();
    // Worker-thread budget for the parallel pipeline stages. Output is
    // byte-identical at any value; this only moves wall-clock time.
    iotmap_par::set_threads(cli.opts.threads);

    let name = cli.opts.experiment.as_str();
    let selected: Vec<&(&str, Kind)> = EXPERIMENTS
        .iter()
        .filter(|(n, kind)| *n == name || (name == "all" && !matches!(kind, Mode(_))))
        .collect();
    match selected[..] {
        [] => usage_error(format!("unknown experiment {name:?}")),
        [(_, Mode(run))] => run(&cli),
        _ => recorded(&cli.opts, || run_on_shared_world(&cli, &selected)),
    }
}

/// Prepare the shared world once and run the selected experiments on it.
fn run_on_shared_world(cli: &Cli, selected: &[&(&'static str, Kind)]) {
    let config = &cli.config;
    eprintln!(
        "# preparing world (seed {}, preset {}, {} lines)…",
        config.seed,
        cli.opts.preset,
        config.line_count()
    );
    if cli.faults.is_active() {
        eprintln!(
            "# fault plan: {} (seed {:#x})",
            cli.opts.faults, cli.faults.seed
        );
    }
    if let Some(dir) = &cli.opts.cache {
        eprintln!("# world cache: {dir}");
    }
    let t0 = std::time::Instant::now();
    let exp = prepare_shared(cli);
    eprintln!(
        "# world + discovery ready in {:.1}s ({} servers, {} discovered IPs)",
        t0.elapsed().as_secs_f64(),
        exp.world.servers.len(),
        exp.discovery.all_ips().len()
    );

    // The main-week traffic analysis is shared by most figures. An
    // instrumented run always performs it, so the emitted report covers a
    // full reference pipeline (discovery → footprints → traffic analysis)
    // regardless of which experiment was selected.
    let needs_traffic =
        cli.opts.instrumented() || selected.iter().any(|(_, k)| matches!(k, Traffic(_)));
    let main_week = needs_traffic.then(|| {
        eprintln!("# simulating main-week ISP traffic…");
        exp.full_traffic_analysis(config.study_period)
    });

    for &&(name, kind) in selected {
        println!("\n================ {name} ================");
        cli.running.set(name);
        match (kind, &main_week) {
            (World(run), _) => run(cli, &exp),
            (Traffic(run), Some(week)) => run(cli, &exp, week),
            _ => unreachable!("{name}: modes run alone, and traffic runs before any figure"),
        }
    }
}

/// Run `f` under a recorder when `--trace`, `--metrics` or `--trace-out`
/// asked for one, and emit what it recorded afterwards.
fn recorded<R>(opts: &CliOptions, f: impl FnOnce() -> R) -> R {
    if !opts.instrumented() {
        return f();
    }
    let (out, report) = iotmap_obs::capture(f);
    emit_observability(opts, &report);
    out
}

/// Exit 2 with a usage error.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The shared prepared world of the figure experiments and `profile`,
/// resumed from `--resume` or checkpointed into `--checkpoints` (resume
/// wins: a resumed run re-checkpoints into the same directory anyway).
fn prepare_shared(cli: &Cli) -> Experiment {
    let pipeline = cli.opts.pipeline(&cli.config, cli.faults.clone());
    let pipeline = match (&cli.opts.resume, &cli.opts.checkpoints) {
        (Some(dir), _) => pipeline.resume(dir),
        (None, Some(dir)) => pipeline.checkpoints(dir),
        (None, None) => pipeline,
    };
    run_or_die(&cli.opts, pipeline)
}

/// `config` under `faults` through the command line's pipeline, without
/// checkpoints: the sweeps' and the bench's worlds.
fn prepare(cli: &Cli, config: &WorldConfig, faults: FaultPlan) -> Experiment {
    run_or_die(&cli.opts, cli.opts.pipeline(config, faults))
}

fn run_or_die(opts: &CliOptions, pipeline: Pipeline) -> Experiment {
    Experiment::new(pipeline.run().unwrap_or_else(|e| pipeline_failed(opts, e)))
}

/// Exit 1 on a failed pipeline stage — experiments must never leave via
/// a panic's exit code. Whatever an installed recorder captured before
/// the failure is emitted first: a partial trace/metrics file beats none
/// when debugging.
fn pipeline_failed(opts: &CliOptions, e: impl std::fmt::Display) -> ! {
    eprintln!("pipeline failed: {e}");
    if let Some(report) = iotmap_obs::with_recorder(|r| r.report()) {
        iotmap_obs::uninstall();
        emit_observability(opts, &report);
    }
    std::process::exit(1);
}

/// Look up one provider's discovery, or exit with a clear error. Every
/// registry provider gets a (possibly empty) entry, so a miss means the
/// registry and the prepared discovery diverged — a bug, not user input.
fn require_provider<'a>(exp: &'a Experiment, name: &str) -> &'a iotmap_core::ProviderDiscovery {
    exp.discovery.require(name).unwrap_or_else(|e| {
        eprintln!("internal error: {e}");
        std::process::exit(2);
    })
}

/// Print the running experiment's table and, when `--out DIR` was given,
/// persist it as CSV there.
fn emit_table(cli: &Cli, t: &TextTable) {
    println!("{}", t.render());
    let name = cli.running.get();
    if let Some(dir) = &cli.opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(Path::new(dir).join(format!("{name}.csv")), t.to_csv()))
        {
            eprintln!("# failed to write {name}.csv: {e}");
        } else {
            eprintln!("# wrote {dir}/{name}.csv");
        }
    }
}

/// Write `content` to `path`, creating parent directories; exit 1 with a
/// clear message on failure (the observability files are the run's
/// deliverable when requested).
fn write_text(path: &Path, content: &str) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("# failed to create {}: {e}", parent.display());
            std::process::exit(1);
        }
    }
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("# failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Write a bench report under `--out` (or the working directory); exit 1
/// on failure.
fn write_report(opts: &CliOptions, file: &str, report: &Value) {
    let path = record::out_path(opts, file);
    write_text(&path, &report.to_pretty());
    eprintln!("# wrote {}", path.display());
}

/// Append `entry` to the perf history; return the history file and the
/// last entry comparable to `entry` before it. Exit 1 on failure.
fn append_history(opts: &CliOptions, entry: &Value) -> (PathBuf, Option<Value>) {
    let path = record::history_path(opts);
    match record::append_history(&path, entry) {
        Ok(comparable) => {
            eprintln!("# appended history to {}", path.display());
            (path, comparable)
        }
        Err(e) => {
            eprintln!("# failed to append {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Emit the recorded observability per the CLI flags: span tree to stderr
/// (`--trace`), JSONL + markdown companion (`--metrics`), Chrome Trace
/// Event Format JSON (`--trace-out`). Called on clean exits *and* on
/// mid-run failures, so partial runs stay debuggable.
fn emit_observability(opts: &CliOptions, report: &iotmap_obs::RunReport) {
    if opts.trace {
        eprintln!("\n# ---- span tree ----");
        eprint!("{}", report.render_span_tree());
    }
    if let Some(path) = &opts.metrics {
        let path = Path::new(path);
        write_text(path, &report.to_jsonl());
        // A human-readable companion next to the machine report.
        let md_path = path.with_extension("md");
        write_text(&md_path, &report.to_markdown());
        eprintln!(
            "# wrote metrics to {} (+ {})",
            path.display(),
            md_path.display()
        );
    }
    if let Some(path) = &opts.trace_out {
        let path = Path::new(path);
        write_text(path, &report.to_chrome_trace());
        eprintln!("# wrote Chrome trace to {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage text lists exactly the experiments of [`EXPERIMENTS`],
    /// in table order, so a new experiment cannot land in one list and
    /// not the other.
    #[test]
    fn usage_lists_every_experiment() {
        let Err(usage) = CliOptions::parse(["exp", "--help"].map(String::from).into_iter()) else {
            panic!("--help prints the usage");
        };
        let (_, listed) = usage
            .split_once("experiments:")
            .expect("the usage lists the experiments");
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed.split_whitespace().collect::<Vec<_>>(), table);
    }
}
