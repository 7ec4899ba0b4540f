//! `exp` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p iotmap-bench --bin exp -- all
//! cargo run --release -p iotmap-bench --bin exp -- fig13 --preset paper --seed 42
//! ```
//!
//! Output is plain text: the same rows/series the paper's tables and
//! figures report. EXPERIMENTS.md records a reference run.

use iotmap_bench::{CliOptions, Experiment, SCANNER_THRESHOLD};
use iotmap_core::disruptions::{BlocklistAudit, IncidentAudit, IncidentKind, RouteIncident};
use iotmap_core::report::{pct, table1, TextTable};
use iotmap_core::{
    Characterizer, GroundTruthReport, ObservedPorts, PatternRegistry, Source, StabilityAnalysis,
};
use iotmap_netflow::{FlowFold, FlowRecord, LineId};
use iotmap_nettypes::{Date, StudyPeriod};
use iotmap_traffic::{
    analysis::BUCKET_LABELS, cascade_impact, source_ablation, visibility_per_provider, Contacts,
    RegionGroup, ScannerAnalysis,
};
use iotmap_world::{BgpStreamEventKind, TrafficSimulator, WorldConfig};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::IpAddr;

/// Optional artifact directory (`--out DIR`): tables are also written as
/// CSV files there, one per experiment.
static OUT_DIR: std::sync::OnceLock<Option<std::path::PathBuf>> = std::sync::OnceLock::new();

/// Borrow the shared traffic pass, or exit with a clear error if the
/// dispatch table and `needs_traffic` ever disagree (better than a bare
/// `expect` panic deep in an experiment).
fn require_traffic<'a, T>(traffic: &'a Option<T>, experiment: &str) -> &'a T {
    traffic.as_ref().unwrap_or_else(|| {
        eprintln!(
            "internal error: experiment {experiment:?} needs the shared traffic pass, \
             but it was not prepared — fix the `needs_traffic` experiment list in exp.rs"
        );
        std::process::exit(2);
    })
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

/// Prepare an experiment, or exit(1) with a clear message when a pipeline
/// stage fails — experiments must never leave via a panic's exit code.
fn prepare_or_die(
    config: &WorldConfig,
    faults: iotmap_faults::FaultPlan,
    cache: Option<&str>,
) -> Experiment {
    Experiment::try_prepare_opts(config, faults, None, None, cache).unwrap_or_else(|e| {
        eprintln!("pipeline failed: {e}");
        std::process::exit(1);
    })
}

/// Print a table and, when `--out` was given, persist it as CSV.
fn emit_table(name: &str, t: &TextTable) {
    println!("{}", t.render());
    if let Some(Some(dir)) = OUT_DIR.get().map(|d| d.as_ref()) {
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(dir.join(format!("{name}.csv")), t.to_csv()))
        {
            eprintln!("# failed to write {name}.csv: {e}");
        } else {
            eprintln!("# wrote {}/{name}.csv", dir.display());
        }
    }
}

fn main() {
    let opts = match CliOptions::parse(std::env::args()) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let config = match opts.config() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let fault_plan = match opts.fault_plan() {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    OUT_DIR
        .set(opts.out_dir.clone().map(std::path::PathBuf::from))
        .expect("OUT_DIR set once");

    // Worker-thread budget for the parallel pipeline stages. Output is
    // byte-identical at any value; this only moves wall-clock time.
    iotmap_par::set_threads(opts.threads);

    // The discovery benchmark is its own mode: it times prepare, the
    // matching engine and the replicated ISP pass, writes
    // BENCH_pipeline.json, and (with --gate) enforces the history gate.
    // It installs its own recorder for the stage breakdown, so it runs
    // before the shared --trace/--metrics instrumentation.
    if opts.experiment == "bench" {
        run_bench(&opts, &config, &fault_plan);
        return;
    }

    // The crash-recovery drill is also its own mode: it runs the pipeline
    // several times (killed, resumed, uninterrupted) rather than preparing
    // one shared experiment, and exits non-zero unless every resumed run
    // is byte-identical to the uninterrupted baseline.
    if opts.experiment == "crash-recovery" {
        run_crash_recovery(&opts, &config, &fault_plan);
        return;
    }

    // The profiler is its own mode too: it always instruments, and its
    // output is the trace itself rather than an experiment's tables.
    if opts.experiment == "profile" {
        run_profile(&opts, &config, &fault_plan);
        return;
    }

    // The longitudinal study is its own mode: it rolls one prepared world
    // forward day by day, checks every rolled state byte-identical to a
    // from-scratch run over the merged corpus, and writes
    // BENCH_longitudinal.json with the per-day incremental vs full-rerun
    // cost.
    if opts.experiment == "longitudinal" {
        run_longitudinal(&opts, &config, &fault_plan);
        return;
    }

    // The scenario engine is its own mode: it runs an event-free baseline,
    // then each declarative scenario file, measures per-event resilience
    // deltas against the baseline, and writes BENCH_scenarios.json.
    if opts.experiment == "scenario" {
        run_scenario(&opts, &config, &fault_plan);
        return;
    }

    // Observability: `--trace`, `--metrics`, and `--trace-out` install a
    // recorder for the whole run; the report is emitted just before exit.
    let instrumented = opts.trace || opts.metrics.is_some() || opts.trace_out.is_some();
    let registry = std::rc::Rc::new(iotmap_obs::Registry::new());
    if instrumented {
        iotmap_obs::install(registry.clone());
    }

    let all = [
        "table1",
        "fig3",
        "fig4",
        "vantage",
        "validation",
        "shared",
        "diversity",
        "ports-observed",
        "consistency",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12a",
        "fig12b",
        "fig12c",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "outage-deps",
        "sec62-bgp",
        "sec62-blocklist",
        "cascade",
        "monitor",
        "ablation-coverage",
        "ablation-hitlist",
        "robustness",
    ];
    let selected: Vec<&str> = if opts.experiment == "all" {
        all.to_vec()
    } else if all.contains(&opts.experiment.as_str()) {
        vec![opts.experiment.as_str()]
    } else {
        eprintln!("unknown experiment {:?}", opts.experiment);
        std::process::exit(2);
    };

    eprintln!(
        "# preparing world (seed {}, preset {}, {} lines)…",
        config.seed,
        opts.preset,
        config.line_count()
    );
    if fault_plan.is_active() {
        eprintln!(
            "# fault plan: {} (seed {:#x})",
            opts.faults, fault_plan.seed
        );
    }
    if let Some(dir) = &opts.cache {
        eprintln!("# world cache: {dir}");
    }
    let t0 = std::time::Instant::now();
    let exp = match Experiment::try_prepare_opts(
        &config,
        fault_plan,
        opts.checkpoints.as_deref(),
        opts.resume.as_deref(),
        opts.cache.as_deref(),
    ) {
        Ok(exp) => exp,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            // Flush whatever the recorder captured before the failure:
            // a partial trace/metrics file beats none when debugging.
            if instrumented {
                iotmap_obs::uninstall();
                emit_observability(&opts, &registry.report());
            }
            std::process::exit(1);
        }
    };
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
    let needs_traffic = instrumented
        || selected.iter().any(|e| {
            matches!(
                *e,
                "fig5"
                    | "fig6"
                    | "fig7"
                    | "fig8"
                    | "fig9"
                    | "fig10"
                    | "fig11"
                    | "fig12a"
                    | "fig12b"
                    | "fig12c"
                    | "fig13"
                    | "fig14"
                    | "validation"
            )
        });
    let traffic = if needs_traffic {
        eprintln!("# simulating main-week ISP traffic…");
        let contacts = exp.contact_pass(config.study_period);
        let excluded = exp.excluded_lines(&contacts);
        let report = exp.analysis_pass(config.study_period, &excluded);
        Some((contacts, excluded, report))
    } else {
        None
    };

    for name in selected {
        println!("\n================ {name} ================");
        match name {
            "table1" => run_table1(&exp),
            "fig3" => run_fig3(&exp),
            "fig4" => run_fig4(&exp),
            "vantage" => run_vantage(&exp, &config),
            "validation" => run_validation(&exp),
            "shared" => run_shared(&exp),
            "diversity" => run_diversity(&exp),
            "fig5" => {
                let (contacts, _, _) = require_traffic(&traffic, name);
                run_fig5(&exp, contacts);
            }
            "fig6" => {
                let (contacts, excluded, _) = require_traffic(&traffic, name);
                run_fig6(&exp, contacts, excluded);
            }
            "fig7" => {
                let (contacts, excluded, _) = require_traffic(&traffic, name);
                run_fig7(&exp, contacts, excluded);
            }
            "fig8" => run_fig8(&exp, &require_traffic(&traffic, name).2),
            "fig9" => run_fig9(&exp, &require_traffic(&traffic, name).2),
            "fig10" => run_fig10(&exp, &require_traffic(&traffic, name).2),
            "fig11" => run_fig11(&exp, &require_traffic(&traffic, name).2),
            "fig12a" => run_fig12a(&require_traffic(&traffic, name).2),
            "fig12b" => run_fig12b(&exp, &require_traffic(&traffic, name).2),
            "fig12c" => run_fig12c(&require_traffic(&traffic, name).2),
            "fig13" => run_fig13(&require_traffic(&traffic, name).2),
            "fig14" => run_fig14(&require_traffic(&traffic, name).2),
            "fig15" | "fig16" | "outage-deps" => run_outage(&exp, name),
            "ports-observed" => run_ports_observed(&exp),
            "consistency" => run_consistency(&exp, &config),
            "monitor" => run_monitor(&exp),
            "ablation-coverage" => run_ablation_coverage(&config, opts.cache.as_deref()),
            "ablation-hitlist" => run_ablation_hitlist(&config, opts.cache.as_deref()),
            "robustness" => run_robustness(&config, opts.cache.as_deref()),
            "sec62-bgp" => run_sec62_bgp(&exp),
            "sec62-blocklist" => run_sec62_blocklist(&exp),
            "cascade" => run_cascade(&exp),
            _ => unreachable!(),
        }
    }

    if instrumented {
        iotmap_obs::uninstall();
        emit_observability(&opts, &registry.report());
    }
}

/// Write `content` to `path`, creating parent directories; exit 1 with a
/// clear message on failure (the observability files are the run's
/// deliverable when requested).
fn write_text(path: &std::path::Path, content: &str) {
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

/// Emit the recorded observability per the CLI flags: span tree to stderr
/// (`--trace`), JSONL + markdown companion (`--metrics`), Chrome Trace
/// Event Format JSON (`--trace-out`). Called on clean exits *and* on
/// mid-run failures, so partial runs stay debuggable.
fn emit_observability(opts: &iotmap_bench::CliOptions, report: &iotmap_obs::RunReport) {
    if opts.trace {
        eprintln!("\n# ---- span tree ----");
        eprint!("{}", report.render_span_tree());
    }
    if let Some(path) = &opts.metrics {
        let path = std::path::Path::new(path);
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
        let path = std::path::Path::new(path);
        write_text(path, &report.to_chrome_trace());
        eprintln!("# wrote Chrome trace to {}", path.display());
    }
}

// ---------------------------------------------------------------- Table 1

fn run_table1(exp: &Experiment) {
    let registry = PatternRegistry::paper_defaults();
    let sources = exp.sources();
    let mut rows = Vec::new();
    for patterns in registry.providers() {
        let disc = require_provider(exp, patterns.name);
        let fp = &exp.footprints[patterns.name];
        rows.push(Characterizer::row(patterns, disc, fp, &sources));
    }
    emit_table("table1", &table1(&rows));
}

// ------------------------------------------------------------------ Fig 3

fn run_fig3(exp: &Experiment) {
    let mut t = TextTable::new(&[
        "Provider",
        "Family",
        "Certs",
        "V6Scan",
        "PassiveDNS",
        "ActiveDNS",
        "Multiple",
        "Total",
    ]);
    for (name, disc) in exp.discovery.per_provider() {
        for v6 in [false, true] {
            let (excl, multi) = disc.source_breakdown(v6);
            let total: usize = excl.values().sum::<usize>() + multi;
            if total == 0 {
                continue;
            }
            t.row(vec![
                name.to_string(),
                if v6 { "IPv6" } else { "IPv4" }.to_string(),
                excl.get(&Source::Certificate)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                excl.get(&Source::Ipv6Scan)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                excl.get(&Source::PassiveDns)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                excl.get(&Source::ActiveDns)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                multi.to_string(),
                total.to_string(),
            ]);
        }
    }
    emit_table("fig3", &t);
}

// ------------------------------------------------------------------ Fig 4

fn run_fig4(exp: &Experiment) {
    let reference = Date::new(2022, 2, 28).epoch_days();
    let compares = [
        Date::new(2022, 3, 1).epoch_days(),
        Date::new(2022, 3, 3).epoch_days(),
        Date::new(2022, 3, 6).epoch_days(),
    ];
    let mut t = TextTable::new(&["Provider", "vs", "Both", "New", "Gone", "Stability"]);
    for (name, disc) in exp.discovery.per_provider() {
        for diff in StabilityAnalysis::figure4(disc, reference, &compares) {
            t.row(vec![
                name.to_string(),
                format!("{}", Date::from_epoch_days(diff.compare_day)),
                diff.both.to_string(),
                diff.added.to_string(),
                diff.removed.to_string(),
                pct(diff.stability()),
            ]);
        }
    }
    emit_table("fig4", &t);
}

// --------------------------------------------------------- §3.3 vantage

fn run_vantage(exp: &Experiment, config: &WorldConfig) {
    use iotmap_core::DiscoveryPipeline;
    use iotmap_dns::{ActiveCampaign, VantagePoint};
    let sources = exp.sources();
    let period = config.study_period;
    let mut vps = VantagePoint::paper_defaults();
    let single = DiscoveryPipeline::with_campaign(
        PatternRegistry::paper_defaults(),
        ActiveCampaign::new(vec![vps.remove(0)]),
    );
    let multi = DiscoveryPipeline::new(PatternRegistry::paper_defaults());
    let s = single
        .run_channels(&sources, period, &[Source::ActiveDns])
        .all_ips()
        .len();
    let m = multi
        .run_channels(&sources, period, &[Source::ActiveDns])
        .all_ips()
        .len();
    println!("active-DNS IPs from 1 vantage point : {s}");
    println!("active-DNS IPs from 3 vantage points: {m}");
    println!(
        "coverage gain: {} (paper: ≈17%)",
        pct(m as f64 / s.max(1) as f64 - 1.0)
    );
}

// --------------------------------------------------------- §3.4 validation

/// Per-IP byte totals for flows into a published prefix set.
struct PublishedSpaceFold {
    prefixes: Vec<iotmap_nettypes::Ipv4Prefix>,
}

impl FlowFold for PublishedSpaceFold {
    type Partial = HashMap<IpAddr, u64>;

    fn make(&self) -> Self::Partial {
        HashMap::new()
    }

    fn fold(&self, active: &mut Self::Partial, r: &FlowRecord) {
        if let IpAddr::V4(a) = r.remote {
            if self.prefixes.iter().any(|p| p.contains(a)) {
                *active.entry(r.remote).or_default() += r.bytes;
            }
        }
    }

    fn merge(&self, active: &mut Self::Partial, other: Self::Partial) {
        for (ip, bytes) in other {
            *active.entry(ip).or_default() += bytes;
        }
    }
}

fn run_validation(exp: &Experiment) {
    let pub_truth = &exp.world.published;
    for (name, published) in [
        ("cisco", &pub_truth.cisco_ips),
        ("siemens", &pub_truth.siemens_ips),
    ] {
        let disc = require_provider(exp, name);
        let r = GroundTruthReport::against_ip_list(name, disc, published);
        println!(
            "{name}: published {} IPs; discovered {} inside + {} outside; recall of published {}",
            r.published_total,
            r.discovered_inside,
            r.discovered_outside,
            pct(r.recall_of_published(disc, published)),
        );
    }
    let disc = require_provider(exp, "microsoft");
    let r = GroundTruthReport::against_prefixes("microsoft", disc, &pub_truth.microsoft_prefixes);
    println!(
        "microsoft: published prefixes cover {} addresses; discovered {} inside them (+{} outside)",
        r.published_total, r.discovered_inside, r.discovered_outside
    );

    // §3.4's traffic cross-check: which published IPs are *actually
    // active* in ISP flows, and how many of those did discovery miss?
    // This deliberately looks at raw flows, not the discovered index —
    // the whole point is to catch active published IPs the methodology
    // missed.
    eprintln!("# replaying traffic against Microsoft's published space…");
    let fold = PublishedSpaceFold {
        prefixes: pub_truth.microsoft_prefixes.clone(),
    };
    // The same faulted border router the contact and analysis passes see.
    let sim =
        TrafficSimulator::with_faults(&exp.world, exp.faults.seed, exp.faults.netflow.clone());
    let (active, _) = sim.run_fold(exp.world.config.study_period, &fold);
    let cov = iotmap_core::validate::ActiveCoverage::compute(disc, &active);
    println!(
        "microsoft: {} published-space IPs active at the ISP; methodology misses {} (≈{} of that traffic volume)",
        cov.active_published,
        cov.missed,
        pct(cov.missed_traffic_fraction)
    );
}

// --------------------------------------------------------- §3.4 shared IPs

fn run_shared(exp: &Experiment) {
    let registry = PatternRegistry::paper_defaults();
    let classifier = iotmap_core::SharedIpClassifier::new(&registry);
    let period = exp.world.config.study_period;
    let mut t = TextTable::new(&["Provider", "Dedicated", "Shared"]);
    for (name, disc) in exp.discovery.per_provider() {
        let (dedicated, shared) = classifier.split_provider(disc, &exp.world.passive_dns, period);
        if dedicated.is_empty() && shared.is_empty() {
            continue;
        }
        t.row(vec![
            name.to_string(),
            dedicated.len().to_string(),
            shared.len().to_string(),
        ]);
    }
    emit_table("shared", &t);
    println!("(Google's HTTPS front and the Akamai-fronted Oracle share are the shared sets.)");
}

// --------------------------------------------------------- §4.3 diversity

fn run_diversity(exp: &Experiment) {
    let sources = exp.sources();
    let mut t = TextTable::new(&["Provider", "#AS", "#v4 prefixes", "#v6 IPs", "Anycast(doc)"]);
    let registry = PatternRegistry::paper_defaults();
    for (name, disc) in exp.discovery.per_provider() {
        let mut asns = HashSet::new();
        let mut prefixes = HashSet::new();
        for &ip in disc.ips.keys() {
            if let IpAddr::V4(a) = ip {
                if let Some((prefix, origin)) = sources.routeviews.lookup_v4(a) {
                    asns.insert(origin.asn);
                    prefixes.insert(prefix);
                }
            }
        }
        let v6 = disc.v6_ips().count();
        let anycast = registry.get(name).is_some_and(|p| p.documented_anycast);
        t.row(vec![
            name.to_string(),
            asns.len().to_string(),
            prefixes.len().to_string(),
            v6.to_string(),
            if anycast { "yes" } else { "-" }.to_string(),
        ]);
    }
    emit_table("diversity", &t);
}

// ------------------------------------------------------------------ Fig 5

fn run_fig5(exp: &Experiment, contacts: &Contacts) {
    let analysis = ScannerAnalysis::new(&exp.index, contacts);
    let thresholds = [10, 20, 50, 100, 200, 500, 1000];
    let mut t = TextTable::new(&["Threshold", "Lines flagged", "IPv4 visibility"]);
    for p in analysis.curve(&thresholds) {
        t.row(vec![
            p.threshold.to_string(),
            p.lines_excluded.to_string(),
            pct(p.v4_visibility),
        ]);
    }
    emit_table("fig5", &t);
    println!(
        "at threshold {SCANNER_THRESHOLD}: v4 visibility {} | v6 visibility {} (paper: ~28% / ~51%)",
        pct(analysis.v4_visibility(SCANNER_THRESHOLD)),
        pct(analysis.v6_visibility(SCANNER_THRESHOLD)),
    );
}

// ------------------------------------------------------------------ Fig 6

fn run_fig6(exp: &Experiment, contacts: &Contacts, excluded: &HashSet<LineId>) {
    let vis = visibility_per_provider(&exp.index, contacts, excluded);
    let mut rows: Vec<_> = vis.iter().collect();
    rows.sort_by_key(|v| exp.label(&v.provider));
    let mut t = TextTable::new(&["Platform", "v4 visible", "v6 visible", "Lines"]);
    for v in rows {
        t.row(vec![
            exp.label(&v.provider).to_string(),
            pct(v.v4),
            v.v6.map(pct).unwrap_or_else(|| "-".to_string()),
            v.lines.to_string(),
        ]);
    }
    emit_table("fig6", &t);
}

// ------------------------------------------------------------------ Fig 7

fn run_fig7(exp: &Experiment, contacts: &Contacts, excluded: &HashSet<LineId>) {
    // Restricted map: what certificates alone would have found.
    let mut restricted: HashMap<String, HashSet<IpAddr>> = HashMap::new();
    for (name, disc) in exp.discovery.per_provider() {
        restricted.insert(
            name.to_string(),
            disc.ips_from_sources(&[Source::Certificate]),
        );
    }
    let mut rows = source_ablation(&exp.index, contacts, excluded, &restricted);
    rows.sort_by_key(|(name, _)| exp.label(name));
    let mut t = TextTable::new(&["Platform", "Line loss (TLS-certs-only)"]);
    for (name, decrease) in rows {
        t.row(vec![exp.label(&name).to_string(), pct(decrease)]);
    }
    emit_table("fig7", &t);
    println!("(paper: T4, D6, T2, D3 lose almost all lines; two of these rely on SNI)");
}

// -------------------------------------------------------------- Figs 8-12

fn provider_groups(exp: &Experiment) -> Vec<(&'static str, Vec<String>)> {
    let mut top4 = Vec::new();
    let mut cloud = Vec::new();
    let mut rest = Vec::new();
    for (p, l) in exp.anonymization.pairs() {
        match l.chars().next().unwrap() {
            'T' => top4.push(p.to_string()),
            'D' => cloud.push(p.to_string()),
            _ => rest.push(p.to_string()),
        }
    }
    vec![
        ("top-4", top4),
        ("cloud-dependent", cloud),
        ("others", rest),
    ]
}

fn run_fig8(exp: &Experiment, report: &iotmap_traffic::AnalysisReport) {
    let t1 = report.fig8_lines("amazon");
    for (group, providers) in provider_groups(exp) {
        println!("--- {group} ---");
        for p in providers {
            let Some(series) = report.fig8_lines(&p) else {
                continue;
            };
            if series.total() < 15.0 {
                continue; // the paper's ≥15-lines-per-hour filter
            }
            // §5.3: "their activity does not correlate to the one of the
            // platform providers" — report r against T1.
            let corr = t1
                .as_ref()
                .filter(|_| p != "amazon")
                .and_then(|t| series.correlation(t))
                .map(|r| format!("{r:+.2}"))
                .unwrap_or_else(|| "  - ".to_string());
            println!(
                "{}: mean lines/h {:8.1} | diurnality {:5.2} | r(T1) {} | daily peak hours {:?}",
                exp.label(&p),
                series.total() / series.len() as f64,
                series.diurnality(),
                corr,
                series.daily_peak_hours()
            );
        }
    }
}

fn run_fig9(exp: &Experiment, report: &iotmap_traffic::AnalysisReport) {
    for (group, providers) in provider_groups(exp) {
        println!("--- {group} ---");
        for p in providers {
            let Some(series) = report.fig9_downstream(&p) else {
                continue;
            };
            if series.total() <= 0.0 {
                continue;
            }
            let norm = series.normalized();
            let head: Vec<String> = norm.values()[..24.min(norm.len())]
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect();
            println!(
                "{}: total dn {} | first-day normalized series: {}",
                exp.label(&p),
                iotmap_core::report::bytes_h(series.total()),
                head.join(" ")
            );
        }
    }
}

fn run_fig10(exp: &Experiment, report: &iotmap_traffic::AnalysisReport) {
    let mut t = TextTable::new(&["Platform", "Downstream/Upstream"]);
    let mut rows: Vec<(String, f64)> = report
        .providers()
        .iter()
        .filter_map(|p| report.fig10_ratio(p).map(|r| (p.clone(), r)))
        .collect();
    rows.sort_by_key(|(p, _)| exp.label(p));
    for (p, ratio) in rows {
        t.row(vec![exp.label(&p).to_string(), format!("{ratio:.2}")]);
    }
    emit_table("fig10", &t);
    println!("(paper: ratios range from <0.33 to >3)");
}

fn run_fig11(exp: &Experiment, report: &iotmap_traffic::AnalysisReport) {
    for (p, label) in exp
        .anonymization
        .pairs()
        .iter()
        .map(|(p, l)| (p.to_string(), *l))
    {
        let mix = report.fig11_port_mix(&p);
        if mix.is_empty() {
            continue;
        }
        let cells: Vec<String> = mix
            .iter()
            .take(6)
            .map(|(port, f)| format!("{port}={}", pct(*f)))
            .collect();
        println!("{label}: {}", cells.join("  "));
    }
}

fn run_fig12a(report: &iotmap_traffic::AnalysisReport) {
    for (dir, down) in [("download", true), ("upload", false)] {
        let e = report.fig12a_ecdf(down);
        if e.is_empty() {
            continue;
        }
        println!(
            "{dir}: line-days {} | P(<=1MB) {} | P(<=10MB) {} | P(<=100MB) {} | median {}",
            e.len(),
            pct(e.fraction_at_or_below(1e6)),
            pct(e.fraction_at_or_below(1e7)),
            pct(e.fraction_at_or_below(1e8)),
            iotmap_core::report::bytes_h(e.median()),
        );
    }
    println!("(paper: >99% of lines exchange <10 MB/day in both directions)");
}

fn run_fig12b(exp: &Experiment, report: &iotmap_traffic::AnalysisReport) {
    let mut t = TextTable::new(&["Platform", "Line-days", "P(<=10MB)", "Median"]);
    let mut rows: Vec<&String> = report.providers().iter().collect();
    rows.sort_by_key(|p| exp.label(p));
    for p in rows {
        let Some(e) = report.fig12b_ecdf(p) else {
            continue;
        };
        if e.is_empty() {
            continue;
        }
        t.row(vec![
            exp.label(p).to_string(),
            e.len().to_string(),
            pct(e.fraction_at_or_below(1e7)),
            iotmap_core::report::bytes_h(e.median()),
        ]);
    }
    emit_table("fig12b", &t);
}

fn run_fig12c(report: &iotmap_traffic::AnalysisReport) {
    let mut t = TextTable::new(&["Port", "Line-days", "P(<=10MB)", "P(100MB..1GB)", "Median"]);
    for (port, _) in report.top_ports(7) {
        let e = report.fig12c_ecdf(port);
        if e.is_empty() {
            continue;
        }
        t.row(vec![
            port.to_string(),
            e.len().to_string(),
            pct(e.fraction_at_or_below(1e7)),
            pct(e.fraction_in(1e8, 1e9)),
            iotmap_core::report::bytes_h(e.median()),
        ]);
    }
    emit_table("fig12c", &t);
    println!("(paper: only TCP/5671 shows ~18% of lines at 100MB–1GB/day, at a single provider)");
}

fn run_fig13(report: &iotmap_traffic::AnalysisReport) {
    let (eu_only, us_any, mix, other_only) = report.fig13_line_buckets();
    println!(
        "lines: EU-only {} | contact US {} | EU+US mix {} | Asia/other-only {}",
        pct(eu_only),
        pct(us_any),
        pct(mix),
        pct(other_only)
    );
    let servers = report.fig13_server_buckets();
    let cells: Vec<String> = BUCKET_LABELS
        .iter()
        .zip(servers.iter())
        .map(|(l, f)| format!("{l} {}", pct(*f)))
        .collect();
    println!("servers: {}", cells.join(" | "));
    println!("(paper: 47% EU-only lines, ~40% contact US; servers ~30% EU / 65% US / 5% Asia)");
}

fn run_fig14(report: &iotmap_traffic::AnalysisReport) {
    let traffic = report.fig14_traffic_buckets();
    let cells: Vec<String> = BUCKET_LABELS
        .iter()
        .zip(traffic.iter())
        .map(|(l, f)| format!("{l} {}", pct(*f)))
        .collect();
    println!("traffic by server continent: {}", cells.join(" | "));
    let (v4, v6) = report.daily_active_lines();
    println!("mean daily active lines: v4 {v4:.0} | v6 {v6:.0}");
    println!("(paper: >62% EU-EU, ~35% with the US; 2.32M v4 / 202k v6 lines daily at 15M scale)");
}

// ------------------------------------------------- Figs 15/16 (Dec 2021)

fn run_outage(exp: &Experiment, which: &str) {
    // The outage experiments replay the December 2021 week on the same
    // world.
    let period = StudyPeriod::outage_week();
    eprintln!("# simulating outage-week ISP traffic…");
    let contacts = exp.contact_pass(period);
    let excluded = exp.excluded_lines(&contacts);
    let report = exp.analysis_pass(period, &excluded);
    let window = StudyPeriod::aws_outage_window();
    let h0 = period.start.epoch_hours();
    let win_from = (window.start.epoch_hours() - h0) as usize;
    let win_to = (window.end.epoch_hours() - h0) as usize;

    match which {
        "fig15" | "fig16" => {
            let lines_mode = which == "fig16";
            let t1 = "amazon";
            for group in [RegionGroup::UsEast1, RegionGroup::Europe] {
                let Some(series) = report.region_series(t1, group, lines_mode) else {
                    continue;
                };
                // Compare like with like: the outage window's hours of day
                // against the same hours on the other days of the week.
                let window_hours = win_from..win_to;
                let mut during = (0.0, 0u32);
                let mut baseline = (0.0, 0u32);
                let mut baseline_min = f64::INFINITY;
                for day in 0..7usize {
                    let mut day_sum = 0.0;
                    let mut day_n = 0u32;
                    for h in 0..series.len() {
                        let same_hod = h % 24 >= win_from % 24 && h % 24 < win_to % 24;
                        if !same_hod {
                            continue;
                        }
                        if h / 24 != day {
                            continue;
                        }
                        day_sum += series.get(h);
                        day_n += 1;
                    }
                    if day_n == 0 {
                        continue;
                    }
                    let in_window = (day * 24..(day + 1) * 24).any(|h| window_hours.contains(&h));
                    if in_window {
                        during.0 += day_sum;
                        during.1 += day_n;
                    } else {
                        baseline.0 += day_sum;
                        baseline.1 += day_n;
                        baseline_min = baseline_min.min(day_sum / day_n as f64);
                    }
                }
                let during_rate = during.0 / during.1.max(1) as f64;
                let base_rate = baseline.0 / baseline.1.max(1) as f64;
                println!(
                    "T1 {} [{}]: other-days mean {:12.0}/h | outage-day {:12.0}/h ({:+.1}%) | other-days min {:12.0}/h",
                    if lines_mode { "lines" } else { "downstream" },
                    group.label(),
                    base_rate,
                    during_rate,
                    (during_rate / base_rate.max(1e-9) - 1.0) * 100.0,
                    baseline_min,
                );
            }
            if which == "fig15" {
                println!("(paper: US-East drops >14.5%, below the previous week's minimum; EU dips slightly and serves >3x the US-East volume)");
            } else {
                println!("(paper: subscriber-line counts barely move — devices keep retrying)");
            }
        }
        "outage-deps" => {
            println!("impact on the cloud-dependent platforms (D1–D6):");
            println!("(outage-window hours of day vs the same hours on the other days)");
            for (p, label) in exp.anonymization.pairs() {
                if !label.starts_with('D') {
                    continue;
                }
                let Some(series) = report.fig9_downstream(p) else {
                    continue;
                };
                if series.total() <= 0.0 {
                    continue;
                }
                // Full-day totals: the outage day against the other days'
                // mean (lower variance than the 7-hour window for the
                // smaller platforms).
                let outage_day = win_from / 24;
                let _ = win_to;
                let mut day_totals = [0.0f64; 7];
                for h in 0..series.len() {
                    day_totals[(h / 24).min(6)] += series.get(h);
                }
                let d = day_totals[outage_day];
                let b: f64 = day_totals
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != outage_day)
                    .map(|(_, v)| v)
                    .sum::<f64>()
                    / 6.0;
                println!(
                    "{label}: outage-day downstream {:+.1}% vs other days' mean",
                    (d / b.max(1e-9) - 1.0) * 100.0
                );
            }
            println!("(paper: hardly any effect — these platforms are mapped to EU regions)");
        }
        _ => unreachable!(),
    }
}

// ---------------------------------------------------- §4.4 observed ports

fn run_ports_observed(exp: &Experiment) {
    let registry = PatternRegistry::paper_defaults();
    let mut t = TextTable::new(&[
        "Provider",
        "Open ports (gateways listening)",
        "Undocumented",
        "Cert-blind",
    ]);
    for patterns in registry.providers() {
        let disc = require_provider(exp, patterns.name);
        let obs = ObservedPorts::analyze(patterns, disc, &exp.scans.censys);
        if obs.listeners.is_empty() {
            continue;
        }
        let listeners: Vec<String> = obs
            .listeners
            .iter()
            .map(|(p, n)| format!("{p}:{n}"))
            .collect();
        let undoc: Vec<String> = obs.undocumented.iter().map(|p| p.to_string()).collect();
        let blind: Vec<String> = obs
            .cert_blind_ports()
            .iter()
            .map(|p| p.to_string())
            .collect();
        t.row(vec![
            patterns.name.to_string(),
            listeners.join(" "),
            if undoc.is_empty() {
                "-".into()
            } else {
                undoc.join(" ")
            },
            if blind.is_empty() {
                "-".into()
            } else {
                blind.join(" ")
            },
        ]);
    }
    emit_table("ports-observed", &t);
    println!("(cert-blind = listening ports a TLS-only scan can never identify — §4.4's point)");
}

// ------------------------------------------- §3.1 Dec-vs-Feb consistency

fn run_consistency(exp: &Experiment, config: &WorldConfig) {
    // The paper collected preliminary (IPv4-only) results for Dec 3–10,
    // 2021 and kept the February week because "the results are consistent".
    eprintln!("# rerunning collection + discovery for the December week…");
    let dec = StudyPeriod::outage_week();
    let scans = exp.world.collect_scan_data(dec);
    let sources = iotmap_core::DataSources {
        censys: &scans.censys,
        zgrab_v6: &scans.zgrab_v6,
        passive_dns: &exp.world.passive_dns,
        zones: &exp.world.zones,
        routeviews: &exp.world.bgp,
        latency: None,
    };
    let pipeline = iotmap_core::DiscoveryPipeline::new(PatternRegistry::paper_defaults());
    let dec_result = pipeline.run(&sources, dec);

    let mut t = TextTable::new(&["Provider", "Feb v4", "Dec v4", "Jaccard"]);
    for (name, feb) in exp.discovery.per_provider() {
        let feb_set: HashSet<IpAddr> = feb.v4_ips().collect();
        let dec_set: HashSet<IpAddr> = dec_result
            .get(name)
            .map(|d| d.v4_ips().collect())
            .unwrap_or_default();
        if feb_set.is_empty() && dec_set.is_empty() {
            continue;
        }
        let inter = feb_set.intersection(&dec_set).count();
        let union = feb_set.union(&dec_set).count().max(1);
        t.row(vec![
            name.to_string(),
            feb_set.len().to_string(),
            dec_set.len().to_string(),
            pct(inter as f64 / union as f64),
        ]);
    }
    emit_table("consistency", &t);
    println!(
        "(paper §3.1: the December and February collections are consistent;          cloud-hosted fleets churn between quarters, dedicated ones do not)"
    );
    let _ = config;
}

// -------------------------------------- §3.6 limitation ablation sweeps

fn coverage_point(config: WorldConfig, cache: Option<&str>) -> (usize, usize) {
    let exp = prepare_or_die(&config, iotmap_faults::FaultPlan::none(), cache);
    let v4 = exp.discovery.all_v4().len();
    let v6 = exp.discovery.all_v6().len();
    (v4, v6)
}

fn run_ablation_coverage(config: &WorldConfig, cache: Option<&str>) {
    // §3.6: "even DNSDB has its own limitations, e.g., it does not have
    // full coverage of all DNS requests." Sweep the sensor coverage.
    let mut t = TextTable::new(&["Passive-DNS coverage", "Discovered v4", "Discovered v6"]);
    for coverage in [0.3, 0.6, 0.92, 1.0] {
        eprintln!("# coverage sweep: {coverage} …");
        let cfg = WorldConfig {
            passive_dns_coverage: coverage,
            ..config.clone()
        };
        let (v4, v6) = coverage_point(cfg, cache);
        t.row(vec![
            format!("{coverage:.2}"),
            v4.to_string(),
            v6.to_string(),
        ]);
    }
    emit_table("ablation-coverage", &t);
    println!("(discovery degrades gracefully: certificates and active DNS backfill most losses)");
}

fn run_ablation_hitlist(config: &WorldConfig, cache: Option<&str>) {
    // §3.6: "our ability to discover IPv6 addresses is directly influenced
    // by the coverage of the chosen IPv6 hitlists."
    let mut t = TextTable::new(&["Hitlist coverage", "Discovered v6", "v6 via scans only"]);
    for coverage in [0.2, 0.5, 0.9, 1.0] {
        eprintln!("# hitlist sweep: {coverage} …");
        let cfg = WorldConfig {
            hitlist_coverage: coverage,
            ..config.clone()
        };
        let exp = prepare_or_die(&cfg, iotmap_faults::FaultPlan::none(), cache);
        let v6 = exp.discovery.all_v6().len();
        let scan_only: usize = exp
            .discovery
            .per_provider()
            .map(|(_, d)| {
                d.ips
                    .iter()
                    .filter(|(ip, ev)| {
                        ip.is_ipv6() && ev.sources.sole_source() == Some(Source::Ipv6Scan)
                    })
                    .count()
            })
            .sum();
        t.row(vec![
            format!("{coverage:.2}"),
            v6.to_string(),
            scan_only.to_string(),
        ]);
    }
    emit_table("ablation-hitlist", &t);
    println!("(IPv6 discovery scales with hitlist quality — §3.6's stated limitation)");
}

fn run_robustness(config: &WorldConfig, cache: Option<&str>) {
    use iotmap_faults::FaultPlan;
    // The §3.3/§3.4 blind spots made operational: rerun the complete
    // methodology (discovery → footprints → traffic) under seeded fault
    // plans of increasing severity and show graceful degradation —
    // coverage shrinks monotonically, but every source keeps
    // contributing and the run always completes.
    let prev = iotmap_obs::current_recorder();
    let mut t = TextTable::new(&[
        "Faults",
        "Discovered v4",
        "Discovered v6",
        "Providers",
        "Backend down GB",
        "Degraded sources",
    ]);
    for name in ["none", "light", "heavy"] {
        eprintln!("# robustness sweep: {name} faults…");
        let plan = FaultPlan::preset(name).expect("built-in preset");
        let registry = std::rc::Rc::new(iotmap_obs::Registry::new());
        iotmap_obs::install(registry.clone());
        let exp = prepare_or_die(config, plan, cache);
        let (report, _) = exp.full_traffic_analysis(config.study_period);
        iotmap_obs::uninstall();
        let down: u64 = report
            .providers()
            .iter()
            .map(|p| report.total_downstream(p))
            .sum();
        let providers = exp
            .discovery
            .per_provider()
            .filter(|(_, d)| !d.ips.is_empty())
            .count();
        let completeness = registry.report().fault_completeness();
        let degraded = if completeness.is_empty() {
            "-".to_string()
        } else {
            completeness
                .iter()
                .map(|s| s.source.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        t.row(vec![
            name.to_string(),
            exp.discovery.all_v4().len().to_string(),
            exp.discovery.all_v6().len().to_string(),
            providers.to_string(),
            format!("{:.2}", down as f64 / 1e9),
            degraded,
        ]);
    }
    match prev {
        Some(r) => iotmap_obs::install(r),
        None => iotmap_obs::uninstall(),
    }
    emit_table("robustness", &t);
    println!(
        "(heavier fault plans shrink coverage monotonically; every degraded source still contributes)"
    );
}

// ------------------------------------------- §7 continuous monitoring

fn run_monitor(exp: &Experiment) {
    use iotmap_core::{FootprintInference, Monitor, MonitoringWindow};
    // Capture the December window, then the February window, and report
    // the longitudinal findings — the §7 "continuous monitoring" mode.
    eprintln!("# capturing the December window for the monitor…");
    let dec = StudyPeriod::outage_week();
    let scans = exp.world.collect_scan_data(dec);
    let sources = iotmap_core::DataSources {
        censys: &scans.censys,
        zgrab_v6: &scans.zgrab_v6,
        passive_dns: &exp.world.passive_dns,
        zones: &exp.world.zones,
        routeviews: &exp.world.bgp,
        latency: None,
    };
    let dec_result =
        iotmap_core::DiscoveryPipeline::new(PatternRegistry::paper_defaults()).run(&sources, dec);
    let mut dec_fps = BTreeMap::new();
    for (name, disc) in dec_result.per_provider() {
        dec_fps.insert(name.to_string(), FootprintInference::infer(disc, &sources));
    }
    let feb_fps: BTreeMap<String, iotmap_core::Footprint> = exp
        .footprints
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();

    let mut monitor = Monitor::new();
    monitor.push(MonitoringWindow::capture("2021-12", &dec_result, &dec_fps));
    monitor.push(MonitoringWindow::capture(
        "2022-02",
        &exp.discovery,
        &feb_fps,
    ));
    let findings = monitor.latest_findings();
    if findings.is_empty() {
        println!("no findings: every backend footprint is stable across windows");
        return;
    }
    let mut t = TextTable::new(&["Provider", "Finding", "Detail"]);
    for f in &findings {
        t.row(vec![
            f.provider.clone(),
            format!("{:?}", f.kind),
            f.detail.clone(),
        ]);
    }
    emit_table("monitor", &t);
    println!("(country-level changes are the compliance-relevant alerts; churn is routine)");
}

// ------------------------------------------------------------------ §6.2

fn run_sec62_bgp(exp: &Experiment) {
    let incidents: Vec<RouteIncident> = exp
        .world
        .events
        .bgpstream
        .iter()
        .map(|e| RouteIncident {
            kind: match e.kind {
                BgpStreamEventKind::Leak => IncidentKind::Leak,
                BgpStreamEventKind::PossibleHijack => IncidentKind::PossibleHijack,
                BgpStreamEventKind::AsOutage => IncidentKind::AsOutage,
            },
            prefix: e.prefix,
            asn: e.asn,
        })
        .collect();
    let sources = exp.sources();
    let audit = IncidentAudit::run(&incidents, &exp.discovery, &sources);
    let count = |k: IncidentKind| incidents.iter().filter(|i| i.kind == k).count();
    println!(
        "BGPStream events in study week: {} leaks, {} possible hijacks, {} AS outages",
        count(IncidentKind::Leak),
        count(IncidentKind::PossibleHijack),
        count(IncidentKind::AsOutage)
    );
    println!(
        "affecting backend prefixes: {} | affecting backend ASes: {} | all clear: {}",
        audit.prefix_hits,
        audit.asn_hits,
        audit.all_clear()
    );
    println!("(paper: none of the events affected any backend IPs or ASes)");
}

fn run_sec62_blocklist(exp: &Experiment) {
    let firehol = &exp.world.events.firehol;
    let categories: BTreeMap<IpAddr, Vec<String>> = firehol
        .planted
        .iter()
        .map(|h| (h.ip, h.categories.iter().map(|c| c.to_string()).collect()))
        .collect();
    let audit = BlocklistAudit::run(&exp.discovery, &firehol.set, &categories);
    println!(
        "FireHOL aggregate: {} addresses from {} lists",
        firehol.set.len(),
        firehol.source_lists
    );
    println!(
        "backend IPs found on the blocklist: {}",
        audit.findings.len()
    );
    for (provider, n) in audit.per_provider() {
        println!("  {provider}: {n}");
    }
    let mut cat_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &audit.findings {
        for c in &f.categories {
            *cat_counts.entry(c.as_str()).or_default() += 1;
        }
    }
    println!("categories (non-exclusive): {cat_counts:?}");
    println!("(paper: 16 IPs over 6 providers — Baidu 5, Microsoft 4, SAP 4, Google 3, Amazon 2, Alibaba 1)");
}

// ------------------------------------------------------------- §7 cascade

fn run_cascade(exp: &Experiment) {
    let sources = exp.sources();
    let orgs = [
        "Amazon Web Services",
        "Microsoft Azure",
        "Alibaba Cloud",
        "Akamai Technologies",
    ];
    let deps = cascade_impact(&exp.discovery, &sources, &orgs);
    let mut t = TextTable::new(&["Provider", "AWS", "Azure", "AliCloud", "Akamai"]);
    for d in deps {
        // Skip the cloud operators' own IoT platforms for clarity.
        let row: Vec<String> = orgs
            .iter()
            .map(|o| {
                let share = d.loss_if_down(o);
                if share > 0.0005 {
                    pct(share)
                } else {
                    "-".to_string()
                }
            })
            .collect();
        let mut cells = vec![d.provider.clone()];
        cells.extend(row);
        t.row(cells);
    }
    emit_table("cascade", &t);
    println!("(share of each backend's discovered footprint lost if the cloud operator fails)");
}

// ----------------------------------------------------------- exp bench

/// Extract a numeric field from a bench report. The report is flat
/// `"key": value` JSON written by [`run_bench`], so a scan is enough —
/// no JSON parser dependency.
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract an unsigned integer field exactly. Identity fields (seed,
/// thread count, scale, days) go through this, not [`json_f64`]: an
/// `f64` round-trip merges distinct seeds above 2^53.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether a perf-history line was written by `experiment` under the
/// same preset, seed, thread budget and fault plan as this run. Entries
/// predating the "experiment" tag are bench lines.
fn history_matches(line: &str, experiment: &str, opts: &iotmap_bench::CliOptions) -> bool {
    json_str(line, "experiment").unwrap_or_else(|| "bench".to_string()) == experiment
        && json_str(line, "preset").as_deref() == Some(opts.preset.as_str())
        && json_u64(line, "seed") == Some(opts.seed)
        && json_u64(line, "threads") == Some(opts.threads as u64)
        && json_str(line, "faults").as_deref() == Some(opts.faults.as_str())
}

/// Extract a string field from flat `"key": "value"` JSON.
fn json_str(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let inner = rest.strip_prefix('"')?;
    Some(inner[..inner.find('"')?].to_string())
}

/// Extract the body of a one-level `"key": { ... }` object. The bench
/// stage maps hold only numeric values, so the first `}` closes it.
fn json_obj<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let inner = rest.strip_prefix('{')?;
    Some(&inner[..inner.find('}')?])
}

/// Collect every `discovery.*` span (at any depth) as `(name, ms)`.
fn discovery_stages(nodes: &[iotmap_obs::SpanNode], out: &mut Vec<(String, f64)>) {
    for n in nodes {
        if n.name.starts_with("discovery.") {
            out.push((n.name.clone(), n.nanos as f64 / 1e6));
        }
        discovery_stages(&n.children, out);
    }
}

/// Find the first span with `name`, depth-first.
fn find_span<'a>(
    nodes: &'a [iotmap_obs::SpanNode],
    name: &str,
) -> Option<&'a iotmap_obs::SpanNode> {
    for n in nodes {
        if n.name == name {
            return Some(n);
        }
        if let Some(found) = find_span(&n.children, name) {
            return Some(found);
        }
    }
    None
}

/// Short key for a prepare-stage span: `super.stage.world` → `world`,
/// `experiment.footprints` → `footprints`.
fn stage_key(name: &str) -> &str {
    name.strip_prefix("super.stage.")
        .or_else(|| name.strip_prefix("experiment."))
        .unwrap_or(name)
}

/// The working tree's abbreviated git revision, for perf-history lines.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Time prepare, the single-pass discovery engine and the replicated
/// ISP pass over one prepared world, and write `BENCH_pipeline.json`.
/// Only library code is timed; the per-provider fan-out reference
/// (`run_fanout`) is checked against the engine by
/// `tests/engine_equivalence.rs`, not here. With `--gate`, the history
/// gate compares prepare, engine and per-stage times against the last
/// entry from an identical configuration.
fn run_bench(
    opts: &iotmap_bench::CliOptions,
    config: &WorldConfig,
    faults: &iotmap_faults::FaultPlan,
) {
    eprintln!(
        "# bench: preparing world (seed {}, preset {}, faults {})…",
        config.seed, opts.preset, opts.faults
    );
    // The prepare pass runs instrumented: its span tree is the
    // `prepare_stages_ms` breakdown. Span overhead is one flag check plus
    // a clock read per stage, far below timing noise.
    let prep_prev = iotmap_obs::current_recorder();
    let prep_registry = std::rc::Rc::new(iotmap_obs::Registry::new());
    iotmap_obs::install(prep_registry.clone());
    let t0 = std::time::Instant::now();
    let exp = prepare_or_die(config, faults.clone(), opts.cache.as_deref());
    let wall_prepare_ms = t0.elapsed().as_secs_f64() * 1e3;
    iotmap_obs::uninstall();
    if let Some(r) = prep_prev {
        iotmap_obs::install(r);
    }
    let prep_report = prep_registry.report();
    // The pipeline's two phases each carry a span; report their summed
    // own-time (children sum to each by construction) and merge both
    // phases' stage children into one breakdown. Fall back to the wall
    // clock if the spans ever go missing.
    let phase_spans: Vec<_> = ["experiment.prepare", "experiment.execute"]
        .iter()
        .filter_map(|name| find_span(&prep_report.spans, name))
        .collect();
    let prepare_ms = if phase_spans.is_empty() {
        wall_prepare_ms
    } else {
        phase_spans.iter().map(|s| s.nanos as f64 / 1e6).sum()
    };
    let prepare_stages: Vec<(String, f64)> = phase_spans
        .iter()
        .flat_map(|s| s.children.iter())
        .map(|c| (stage_key(&c.name).to_string(), c.nanos as f64 / 1e6))
        .collect();
    // What the world cache actually did this run distinguishes otherwise
    // identical configurations in the perf history: "none" (no cache),
    // "cold" (cache directory given, nothing usable in it), or "warm"
    // (at least one artifact came from the cache).
    let cache_hits = prep_report.counters.get("cache.hit").copied().unwrap_or(0);
    let cache_tag = match (&opts.cache, cache_hits) {
        (None, _) => "none",
        (Some(_), 0) => "cold",
        (Some(_), _) => "warm",
    };
    let sources = exp.sources();
    let period = config.study_period;
    let pipeline = iotmap_core::DiscoveryPipeline::new(PatternRegistry::paper_defaults())
        .faults(faults.seed, faults.active_dns.clone());

    // What one discovery pass scans: every certificate record in every
    // snapshot, every IPv6 banner grab, every passive-DNS rrset.
    let cert_records: usize = sources.censys.iter().map(|s| s.records.len()).sum();
    let records = cert_records + sources.zgrab_v6.len() + sources.passive_dns.entries_slice().len();

    let iters: usize = if opts.preset == "small" { 5 } else { 3 };
    let mut engine_ms = f64::INFINITY;
    let mut engine_ips = 0usize;
    for i in 0..iters {
        let t = std::time::Instant::now();
        let r = pipeline.run(&sources, period);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        eprintln!("# bench: engine pass {}/{iters}: {ms:.1} ms", i + 1);
        engine_ms = engine_ms.min(ms);
        engine_ips = r.all_ips().len();
    }

    // One more instrumented engine pass for the per-stage breakdown and
    // the candidate/verified counters (timed passes run uninstrumented).
    let prev = iotmap_obs::current_recorder();
    let registry = std::rc::Rc::new(iotmap_obs::Registry::new());
    iotmap_obs::install(registry.clone());
    let _ = pipeline.run(&sources, period);
    iotmap_obs::uninstall();
    if let Some(r) = prev {
        iotmap_obs::install(r);
    }
    let report = registry.report();
    let mut stages = Vec::new();
    discovery_stages(&report.spans, &mut stages);
    let counters: Vec<(&String, &u64)> = report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("discovery."))
        .collect();

    // `records_per_sec` derives from ONE documented timing source: the
    // `core.discovery` span of the instrumented engine pass — the span
    // that wraps exactly the record-scanning engine, nothing else. The
    // wall-clock `engine_ms` (best of N uninstrumented passes) stays
    // what the regression gate tracks; the span is what throughput is
    // quoted from, so the two can never silently disagree about what
    // they measure.
    let engine_span_ms = find_span(&report.spans, "core.discovery")
        .map(|s| s.nanos as f64 / 1e6)
        .unwrap_or(engine_ms);
    let records_per_sec = records as f64 / (engine_span_ms / 1e3);

    // The --scale phase: the replicated ISP pass. It runs at every scale
    // (scale 1 keeps it cheap and keeps the history rows comparable).
    let scaled = run_bench_scaled(&exp, period, opts.scale);
    let peak_rss = iotmap_obs::peak_rss_bytes().unwrap_or(0);
    if peak_rss > SCALED_RSS_CEILING_BYTES {
        eprintln!(
            "# bench: REGRESSION — peak RSS {} MiB exceeds the documented {} MiB ceiling \
             (the streaming guarantee is broken)",
            peak_rss >> 20,
            SCALED_RSS_CEILING_BYTES >> 20
        );
        std::process::exit(1);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"iotmap-bench/pipeline-v4\",\n");
    json.push_str(&format!("  \"preset\": \"{}\",\n", opts.preset));
    json.push_str(&format!("  \"seed\": {},\n", config.seed));
    json.push_str(&format!("  \"threads\": {},\n", opts.threads));
    json.push_str(&format!("  \"faults\": \"{}\",\n", opts.faults));
    json.push_str(&format!("  \"cache\": \"{cache_tag}\",\n"));
    json.push_str(&format!("  \"scale\": {},\n", opts.scale));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"records\": {records},\n"));
    json.push_str(&format!("  \"discovered_ips\": {engine_ips},\n"));
    json.push_str(&format!("  \"prepare_ms\": {prepare_ms:.1},\n"));
    json.push_str("  \"prepare_stages_ms\": {\n");
    for (i, (name, ms)) in prepare_stages.iter().enumerate() {
        let comma = if i + 1 < prepare_stages.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!("    \"{name}\": {ms:.3}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"engine_ms\": {engine_ms:.3},\n"));
    json.push_str(&format!("  \"engine_span_ms\": {engine_span_ms:.3},\n"));
    json.push_str(&format!("  \"records_per_sec\": {records_per_sec:.0},\n"));
    json.push_str(&format!("  \"peak_rss_bytes\": {peak_rss},\n"));
    json.push_str("  \"scaled\": {\n");
    json.push_str(&format!("    \"isp_replicas\": {},\n", scaled.isp_replicas));
    json.push_str(&format!("    \"isp_lines\": {},\n", scaled.isp_lines));
    json.push_str(&format!("    \"isp_ms\": {:.3},\n", scaled.isp_ms));
    json.push_str(&format!(
        "    \"isp_total_dn_bytes\": {}\n",
        scaled.isp_total_dn_bytes
    ));
    json.push_str("  },\n");
    json.push_str("  \"stages_ms\": {\n");
    for (i, (name, ms)) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ms:.3}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str("  \"counters\": {\n");
    for (i, (name, v)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {v}{comma}\n"));
    }
    json.push_str("  }\n}\n");

    let path = match &opts.out_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("# failed to create {dir}: {e}");
                std::process::exit(1);
            }
            std::path::Path::new(dir).join("BENCH_pipeline.json")
        }
        None => std::path::PathBuf::from("BENCH_pipeline.json"),
    };
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("# failed to write {}: {e}", path.display());
        std::process::exit(1);
    }

    println!(
        "discovery bench (preset {}, seed {}, threads {}, faults {}, cache {cache_tag})",
        opts.preset, config.seed, opts.threads, opts.faults
    );
    println!("  records scanned      : {records}");
    println!("  discovered IPs       : {engine_ips}");
    println!("  prepare              : {prepare_ms:9.1} ms");
    for (name, ms) in &prepare_stages {
        println!("    prepare.{name:<20} {ms:9.1} ms");
    }
    println!("  engine (single-pass) : {engine_ms:9.1} ms  (best of {iters})");
    println!(
        "  engine span          : {engine_span_ms:9.1} ms  (core.discovery — records/sec source)"
    );
    println!("  records/sec          : {records_per_sec:.0}");
    for (name, ms) in &stages {
        println!("    {name:<28} {ms:9.1} ms");
    }
    println!(
        "  scaled ISP pass      : {:9.1} ms  ({} replicas, {} lines, 1 day)",
        scaled.isp_ms, scaled.isp_replicas, scaled.isp_lines
    );
    println!(
        "  peak RSS             : {:9.1} MiB  (ceiling {} MiB)",
        peak_rss as f64 / (1024.0 * 1024.0),
        SCALED_RSS_CEILING_BYTES >> 20
    );
    eprintln!("# wrote {}", path.display());

    // Chrome trace: the instrumented prepare pass and the instrumented
    // engine pass, concatenated into one timeline.
    if let Some(out) = &opts.trace_out {
        let mut combined = prep_report.clone();
        combined.spans.extend(report.spans.iter().cloned());
        write_text(std::path::Path::new(out), &combined.to_chrome_trace());
        eprintln!("# wrote Chrome trace to {out}");
    }

    // Perf history: append one line per bench run, and (with --gate)
    // compare against the last entry from an identical configuration.
    let history_path = opts
        .history
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| match &opts.out_dir {
            Some(dir) => std::path::Path::new(dir).join("BENCH_history.jsonl"),
            None => std::path::PathBuf::from("BENCH_history.jsonl"),
        });
    let previous = std::fs::read_to_string(&history_path).unwrap_or_default();
    let comparable = previous.lines().rev().find(|line| {
        history_matches(line, "bench", opts)
            // Entries predating the world cache carry no tag — they were
            // cache-less runs, so they compare against "none" only.
            && json_str(line, "cache").unwrap_or_else(|| "none".to_string()) == cache_tag
            // Entries predating the scaled phase ran at native size.
            && json_u64(line, "scale").unwrap_or(1) == opts.scale
    });

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let fmt_map = |pairs: &[(String, f64)]| {
        let cells: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v:.3}"))
            .collect();
        cells.join(",")
    };
    let line = format!(
        "{{\"schema\":\"iotmap-bench/history-v1\",\"unix_time\":{unix_time},\
         \"git\":\"{}\",\"preset\":\"{}\",\"seed\":{},\"threads\":{},\"faults\":\"{}\",\
         \"cache\":\"{cache_tag}\",\"scale\":{},\
         \"records\":{records},\"discovered_ips\":{engine_ips},\
         \"prepare_ms\":{prepare_ms:.1},\"engine_ms\":{engine_ms:.3},\
         \"engine_span_ms\":{engine_span_ms:.3},\
         \"records_per_sec\":{records_per_sec:.0},\
         \"scaled_isp_ms\":{:.3},\
         \"peak_rss_bytes\":{peak_rss},\
         \"prepare_stages_ms\":{{{}}},\"stages_ms\":{{{}}}}}\n",
        git_rev(),
        opts.preset,
        config.seed,
        opts.threads,
        opts.faults,
        opts.scale,
        scaled.isp_ms,
        fmt_map(&prepare_stages),
        fmt_map(&stages),
    );
    let appended = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&history_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match appended {
        Ok(()) => eprintln!("# appended history to {}", history_path.display()),
        Err(e) => {
            eprintln!("# failed to append {}: {e}", history_path.display());
            std::process::exit(1);
        }
    }

    if opts.gate {
        match comparable {
            None => println!(
                "  history gate         : no comparable entry in {} — pass",
                history_path.display()
            ),
            Some(prev) => {
                // Tracked stages: prepare and engine always; per-stage
                // entries only above a 10ms noise floor (sub-ms stages
                // jitter past any ratio threshold).
                let mut regressions: Vec<String> = Vec::new();
                let mut check = |label: &str, prev_ms: Option<f64>, cur_ms: f64, floor: f64| {
                    if let Some(p) = prev_ms {
                        if p >= floor && cur_ms > p * 1.25 {
                            regressions.push(format!(
                                "{label}: {cur_ms:.1} ms vs {p:.1} ms ({:+.0}%)",
                                (cur_ms / p - 1.0) * 100.0
                            ));
                        }
                    }
                };
                check("prepare_ms", json_f64(prev, "prepare_ms"), prepare_ms, 0.0);
                check("engine_ms", json_f64(prev, "engine_ms"), engine_ms, 0.0);
                if let Some(obj) = json_obj(prev, "prepare_stages_ms") {
                    for (name, cur) in &prepare_stages {
                        check(&format!("prepare.{name}"), json_f64(obj, name), *cur, 10.0);
                    }
                }
                if let Some(obj) = json_obj(prev, "stages_ms") {
                    for (name, cur) in &stages {
                        check(name, json_f64(obj, name), *cur, 10.0);
                    }
                }
                let prev_git = json_str(prev, "git").unwrap_or_else(|| "?".to_string());
                if regressions.is_empty() {
                    println!("  history gate         : ok (vs entry at git {prev_git})");
                } else {
                    for r in &regressions {
                        eprintln!("# bench: REGRESSION — {r}");
                    }
                    eprintln!(
                        "# bench: history gate FAILED — {} tracked stage(s) regressed >25% \
                         vs the entry at git {prev_git}",
                        regressions.len()
                    );
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Documented peak-RSS ceiling for a bench run, scaled phase included:
/// the replicated ISP pass folds flows block by block, so even at
/// `--scale 16` (≥2M subscriber lines) the process must stay under
/// this. DESIGN.md ("Scale model") documents the bound.
const SCALED_RSS_CEILING_BYTES: u64 = 6 * 1024 * 1024 * 1024;

/// What the `--scale` phase measured, for BENCH_pipeline.json.
struct ScaledBench {
    isp_replicas: u64,
    isp_lines: u64,
    isp_ms: f64,
    isp_total_dn_bytes: u64,
}

/// The `--scale N` phase over one prepared experiment: the §5 analysis
/// fold over a replicated subscriber population (replica `r` shifts
/// line ids by `r × n`) for one day, streamed block by block. At
/// `scale >= 16` the replica count is raised to cover at least 2M
/// subscriber lines — the acceptance bar for the scaled run.
fn run_bench_scaled(exp: &Experiment, period: StudyPeriod, scale: u64) -> ScaledBench {
    let lines = exp.world.isp.lines.len() as u64;
    let isp_replicas = if scale >= 16 {
        scale.max(2_000_000u64.div_ceil(lines))
    } else {
        scale
    };
    let day = {
        let d = period.start.date();
        StudyPeriod::from_dates(d, d.succ())
    };
    eprintln!(
        "# bench: replicated ISP pass ({isp_replicas} replicas = {} lines, 1 day)…",
        isp_replicas * lines
    );
    let t = std::time::Instant::now();
    let contacts = exp.contact_pass(day);
    let excluded = exp.excluded_lines(&contacts);
    drop(contacts);
    let isp_report = exp.scaled_analysis_pass(day, isp_replicas, &excluded);
    let isp_ms = t.elapsed().as_secs_f64() * 1e3;
    let isp_total_dn_bytes: u64 = isp_report
        .providers()
        .iter()
        .map(|p| isp_report.total_downstream(p))
        .sum();

    ScaledBench {
        isp_replicas,
        isp_lines: isp_replicas * lines,
        isp_ms,
        isp_total_dn_bytes,
    }
}

/// `exp profile` — run the full pipeline instrumented and report where
/// the time went: top-N spans by self-time, per-shard imbalance, and the
/// busiest counters. `--smoke` skips the traffic passes (the fast path
/// `scripts/check.sh` exercises); `--trace-out`/`--metrics` write the
/// same artifacts as any instrumented run, including on failure.
fn run_profile(
    opts: &iotmap_bench::CliOptions,
    config: &WorldConfig,
    faults: &iotmap_faults::FaultPlan,
) {
    eprintln!(
        "# profile: preparing world (seed {}, preset {}, faults {})…",
        config.seed, opts.preset, opts.faults
    );
    let registry = std::rc::Rc::new(iotmap_obs::Registry::new());
    iotmap_obs::install(registry.clone());
    let t0 = std::time::Instant::now();
    let exp = match Experiment::try_prepare_opts(
        config,
        faults.clone(),
        opts.checkpoints.as_deref(),
        opts.resume.as_deref(),
        opts.cache.as_deref(),
    ) {
        Ok(exp) => exp,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            iotmap_obs::uninstall();
            emit_observability(opts, &registry.report());
            std::process::exit(1);
        }
    };
    if !opts.smoke {
        eprintln!("# profile: simulating main-week ISP traffic…");
        let contacts = exp.contact_pass(config.study_period);
        let excluded = exp.excluded_lines(&contacts);
        let _ = exp.analysis_pass(config.study_period, &excluded);
    }
    let wall = t0.elapsed();
    iotmap_obs::uninstall();
    let report = registry.report();

    println!(
        "profile (preset {}, seed {}, threads {}, faults {}{})",
        opts.preset,
        config.seed,
        opts.threads,
        opts.faults,
        if opts.smoke { ", smoke" } else { "" }
    );
    println!(
        "  wall time            : {:9.1} ms",
        wall.as_secs_f64() * 1e3
    );
    println!("  discovered IPs       : {}", exp.discovery.all_ips().len());

    let total: u64 = report.spans.iter().map(|s| s.nanos).sum();
    println!("\n  top {} spans by self-time:", opts.top);
    for (path, self_nanos) in report.top_self_time(opts.top) {
        println!(
            "    {:>9.1} ms  {:>5.1}%  {path}",
            self_nanos as f64 / 1e6,
            self_nanos as f64 / total.max(1) as f64 * 100.0,
        );
    }

    // Per-shard imbalance: group attributed spans by name, sum each
    // shard's time, and compare the slowest shard to the mean.
    let mut sharded: BTreeMap<String, BTreeMap<u64, (u64, u64, bool)>> = BTreeMap::new();
    collect_sharded(&report.spans, &mut sharded);
    println!("\n  per-shard imbalance:");
    if sharded.is_empty() {
        println!("    (no sharded spans recorded — single-shard run)");
    }
    for (name, shards) in &sharded {
        let times: Vec<f64> = shards.values().map(|&(ns, _, _)| ns as f64 / 1e6).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let (max_shard, max_ms) = shards
            .iter()
            .map(|(&s, &(ns, _, _))| (s, ns as f64 / 1e6))
            .fold((0u64, 0.0f64), |a, b| if b.1 > a.1 { b } else { a });
        let items: u64 = shards.values().map(|&(_, i, _)| i).sum();
        let quarantined = shards.values().filter(|&&(_, _, q)| q).count();
        print!(
            "    {name}: {} shards, {items} items, mean {mean:.1} ms, \
             max {max_ms:.1} ms (shard {max_shard}), imbalance {:.2}x",
            shards.len(),
            max_ms / mean.max(1e-9),
        );
        if quarantined > 0 {
            print!(", {quarantined} quarantined");
        }
        println!();
    }

    // Counter deltas: the busiest counters of the whole run.
    let mut counters: Vec<(&String, &u64)> = report.counters.iter().collect();
    counters.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    println!("\n  top {} counters:", opts.top);
    for (name, value) in counters.into_iter().take(opts.top) {
        println!("    {value:>12}  {name}");
    }

    emit_observability(opts, &report);
}

/// Accumulate per-shard `(nanos, items, quarantined)` sums for every
/// span name that carries shard attribution, at any depth.
fn collect_sharded(
    nodes: &[iotmap_obs::SpanNode],
    out: &mut BTreeMap<String, BTreeMap<u64, (u64, u64, bool)>>,
) {
    for n in nodes {
        if let Some(shard) = n.meta_value("shard") {
            let entry = out
                .entry(n.name.clone())
                .or_default()
                .entry(shard)
                .or_insert((0, 0, false));
            entry.0 += n.nanos;
            // Every root merged from one shard carries the same item
            // count — take it, don't sum it.
            entry.1 = n.meta_value("items").unwrap_or(entry.1);
            entry.2 |= n.meta_value("quarantined").is_some();
        }
        collect_sharded(&n.children, out);
    }
}

/// The crash-recovery drill: for every stage boundary, run the pipeline
/// with the supervisor's kill switch armed after that stage (checkpointing
/// into a scratch run directory), resume from the checkpoints, and demand
/// the resumed artifacts are byte-identical to an uninterrupted run. A
/// final chaos pass injects seeded stage and shard crashes (no
/// checkpoints) and demands the retries converge to the same bytes.
/// Any divergence, failed resume, or unfired kill switch exits 1.
fn run_crash_recovery(
    opts: &iotmap_bench::CliOptions,
    config: &WorldConfig,
    faults: &iotmap_faults::FaultPlan,
) {
    use iotmap_bench::Pipeline;

    if faults.crash.is_active() {
        eprintln!(
            "# crash-recovery: note — the plan's own crash settings are overridden per scenario"
        );
    }
    let run = |plan: iotmap_faults::FaultPlan,
               dir: Option<&std::path::Path>,
               resume: bool|
     -> Result<iotmap_bench::RunArtifacts, iotmap_nettypes::Error> {
        let mut p = Pipeline::new(config.clone())
            .threads(opts.threads)
            .faults(plan);
        if let Some(dir) = dir {
            p = if resume {
                p.resume(dir)
            } else {
                p.checkpoints(dir)
            };
        }
        if let Some(cache) = opts.cache.as_deref() {
            p = p.cache(cache);
        }
        p.run()
    };

    eprintln!(
        "# crash-recovery: uninterrupted baseline (seed {}, preset {}, faults {})…",
        config.seed, opts.preset, opts.faults
    );
    let mut clean = faults.clone();
    clean.crash = iotmap_faults::CrashFaults::NONE;
    let baseline = match run(clean.clone(), None, false) {
        Ok(a) => a.canonical_dump(),
        Err(e) => {
            eprintln!("crash-recovery: baseline run failed: {e}");
            std::process::exit(1);
        }
    };

    let root = opts.out_dir.as_ref().map_or_else(
        || std::env::temp_dir().join(format!("iotmap-crash-recovery-{}", std::process::id())),
        |d| std::path::Path::new(d).join("crash-recovery"),
    );
    let stages = ["world", "scans", "discovery", "footprints", "shared-ip"];
    let mut failures = 0usize;
    for stage in stages {
        let dir = root.join(stage);
        let _ = std::fs::remove_dir_all(&dir);
        let mut kill = clean.clone();
        kill.crash.kill_after_stage = Some(stage.to_string());
        match run(kill, Some(&dir), false) {
            Err(_) => {}
            Ok(_) => {
                eprintln!("# {stage}: kill switch did not fire — nothing to resume from");
                failures += 1;
                continue;
            }
        }
        match run(clean.clone(), Some(&dir), true) {
            Ok(a) if a.canonical_dump() == baseline => {
                println!("{stage:>10}: killed after stage, resumed, artifacts byte-identical");
            }
            Ok(_) => {
                eprintln!("# {stage}: resumed artifacts DIVERGE from the uninterrupted run");
                failures += 1;
            }
            Err(e) => {
                eprintln!("# {stage}: resume failed: {e}");
                failures += 1;
            }
        }
    }

    // Chaos pass: seeded stage and shard crashes, contained by the
    // supervisor's retries and the shard quarantine — no checkpoints.
    let mut chaos = clean;
    chaos.crash.stage_rate = 0.4;
    chaos.crash.shard_rate = 0.02;
    chaos.crash.max_crashes = 2;
    match run(chaos, None, false) {
        Ok(a) if a.canonical_dump() == baseline => {
            println!(
                "{:>10}: injected crashes contained, artifacts byte-identical",
                "chaos"
            );
        }
        Ok(_) => {
            eprintln!("# chaos: artifacts DIVERGE after contained crashes");
            failures += 1;
        }
        Err(e) => {
            eprintln!("# chaos: run failed despite retry budget: {e}");
            failures += 1;
        }
    }

    if opts.out_dir.is_none() {
        let _ = std::fs::remove_dir_all(&root);
    }
    if failures > 0 {
        eprintln!("# crash-recovery: {failures} scenario(s) FAILED");
        std::process::exit(1);
    }
    println!("crash-recovery: all scenarios recovered byte-identically");
}

/// `exp longitudinal` — the paper's study as an incremental run: prepare
/// the world once, then roll the artifacts forward one day at a time via
/// `PreparedWorld::advance`, checking every rolled state byte-identical
/// to a from-scratch re-run over the merged corpus and recording how much
/// cheaper the incremental path is. Any divergence exits 1. Writes
/// `BENCH_longitudinal.json` plus a tagged perf-history line; `--gate`
/// additionally demands the mean per-day incremental cost stays below 25%
/// of a full re-run and has not regressed >25% vs the last comparable
/// history entry.
fn run_longitudinal(
    opts: &iotmap_bench::CliOptions,
    config: &WorldConfig,
    faults: &iotmap_faults::FaultPlan,
) {
    use iotmap_bench::Pipeline;

    eprintln!(
        "# longitudinal: preparing world (seed {}, preset {}, faults {}, {} days)…",
        config.seed, opts.preset, opts.faults, opts.days
    );
    let mut pipeline = Pipeline::new(config.clone())
        .threads(opts.threads)
        .faults(faults.clone());
    if let Some(dir) = opts.cache.as_deref() {
        pipeline = pipeline.cache(dir);
    }
    let mut prepared = match pipeline.prepare() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            std::process::exit(1);
        }
    };

    // Bootstrap the rolled run before the day loop, so each day's timing
    // measures `advance`, not the initial full execution.
    let t0 = std::time::Instant::now();
    if let Err(e) = prepared.rolled() {
        eprintln!("pipeline failed: {e}");
        std::process::exit(1);
    }
    let bootstrap_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("# longitudinal: day-0 bootstrap in {bootstrap_ms:.1} ms");

    struct DayRow {
        date: Date,
        scan_records: u64,
        certificates: u64,
        pdns_rows: u64,
        discovered_ips: usize,
        incremental_ms: f64,
        full_ms: f64,
    }
    let mut rows: Vec<DayRow> = Vec::with_capacity(opts.days);
    for day in 1..=opts.days {
        let delta = prepared.next_delta();
        // Churn is counted against the pristine database: every row the
        // widened window newly reveals, degraded or not downstream.
        let churn = delta.summary(&prepared.world.passive_dns);
        let date = Date::from_epoch_days((delta.to_end.unix() / 86_400) as i64 - 1);

        let t = std::time::Instant::now();
        let rolled_dump = match prepared.advance(&delta) {
            Ok(artifacts) => artifacts.canonical_dump(),
            Err(e) => {
                eprintln!("# longitudinal: day {day}: advance failed: {e}");
                std::process::exit(1);
            }
        };
        let incremental_ms = t.elapsed().as_secs_f64() * 1e3;

        // `advance` extends the pristine corpus in lockstep, so a plain
        // execute IS the from-scratch run over the merged corpus.
        let t = std::time::Instant::now();
        let oracle = match prepared.execute() {
            Ok(artifacts) => artifacts,
            Err(e) => {
                eprintln!("# longitudinal: day {day}: from-scratch re-run failed: {e}");
                std::process::exit(1);
            }
        };
        let full_ms = t.elapsed().as_secs_f64() * 1e3;
        if oracle.canonical_dump() != rolled_dump {
            eprintln!(
                "# longitudinal: day {day} ({date}): rolled artifacts DIVERGE from the \
                 from-scratch re-run over the merged corpus"
            );
            std::process::exit(1);
        }
        eprintln!(
            "# longitudinal: day {day}/{} ({date}): incremental {incremental_ms:.1} ms, \
             full re-run {full_ms:.1} ms, byte-identical",
            opts.days
        );
        rows.push(DayRow {
            date,
            scan_records: churn.scan_records,
            certificates: churn.certificates,
            pdns_rows: churn.pdns_rows_revealed,
            discovered_ips: oracle.discovery.all_ips().len(),
            incremental_ms,
            full_ms,
        });
    }

    let incremental_total_ms: f64 = rows.iter().map(|r| r.incremental_ms).sum();
    let full_total_ms: f64 = rows.iter().map(|r| r.full_ms).sum();
    let ratio = incremental_total_ms / full_total_ms;

    println!(
        "longitudinal (preset {}, seed {}, threads {}, faults {}, {} days)",
        opts.preset, config.seed, opts.threads, opts.faults, opts.days
    );
    println!("  day-0 bootstrap      : {bootstrap_ms:9.1} ms");
    println!(
        "  {:<5} {:<12} {:>8} {:>7} {:>10} {:>8} {:>12} {:>10} {:>7}",
        "day", "date", "records", "certs", "pdns-rows", "ips", "incr-ms", "full-ms", "ratio"
    );
    for (i, r) in rows.iter().enumerate() {
        println!(
            "  {:<5} {:<12} {:>8} {:>7} {:>10} {:>8} {:>12.1} {:>10.1} {:>6.1}%",
            i + 1,
            r.date.to_string(),
            r.scan_records,
            r.certificates,
            r.pdns_rows,
            r.discovered_ips,
            r.incremental_ms,
            r.full_ms,
            r.incremental_ms / r.full_ms * 100.0,
        );
    }
    println!(
        "  total                : incremental {incremental_total_ms:.1} ms vs full re-runs \
         {full_total_ms:.1} ms ({:.1}%)",
        ratio * 100.0
    );
    println!(
        "  byte-identity        : all {} days identical to from-scratch",
        opts.days
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"iotmap-bench/longitudinal-v1\",\n");
    json.push_str(&format!("  \"preset\": \"{}\",\n", opts.preset));
    json.push_str(&format!("  \"seed\": {},\n", config.seed));
    json.push_str(&format!("  \"threads\": {},\n", opts.threads));
    json.push_str(&format!("  \"faults\": \"{}\",\n", opts.faults));
    json.push_str(&format!("  \"days\": {},\n", opts.days));
    json.push_str(&format!("  \"bootstrap_ms\": {bootstrap_ms:.1},\n"));
    json.push_str("  \"per_day\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"day\": {}, \"date\": \"{}\", \"scan_records\": {}, \
             \"certificates\": {}, \"pdns_rows_revealed\": {}, \"discovered_ips\": {}, \
             \"incremental_ms\": {:.3}, \"full_ms\": {:.3}, \"ratio\": {:.4}}}{comma}\n",
            i + 1,
            r.date,
            r.scan_records,
            r.certificates,
            r.pdns_rows,
            r.discovered_ips,
            r.incremental_ms,
            r.full_ms,
            r.incremental_ms / r.full_ms,
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"incremental_total_ms\": {incremental_total_ms:.3},\n"
    ));
    json.push_str(&format!("  \"full_total_ms\": {full_total_ms:.3},\n"));
    json.push_str(&format!("  \"ratio\": {ratio:.4}\n"));
    json.push_str("}\n");

    let path = match &opts.out_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("# failed to create {dir}: {e}");
                std::process::exit(1);
            }
            std::path::Path::new(dir).join("BENCH_longitudinal.json")
        }
        None => std::path::PathBuf::from("BENCH_longitudinal.json"),
    };
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("# failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("# wrote {}", path.display());

    // Perf history: same file as bench, tagged so the two modes only ever
    // compare against their own entries.
    let history_path = opts
        .history
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| match &opts.out_dir {
            Some(dir) => std::path::Path::new(dir).join("BENCH_history.jsonl"),
            None => std::path::PathBuf::from("BENCH_history.jsonl"),
        });
    let previous = std::fs::read_to_string(&history_path).unwrap_or_default();
    let comparable = previous.lines().rev().find(|line| {
        history_matches(line, "longitudinal", opts)
            && json_u64(line, "days") == Some(opts.days as u64)
    });
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"schema\":\"iotmap-bench/history-v1\",\"experiment\":\"longitudinal\",\
         \"unix_time\":{unix_time},\"git\":\"{}\",\"preset\":\"{}\",\"seed\":{},\
         \"threads\":{},\"faults\":\"{}\",\"days\":{},\"bootstrap_ms\":{bootstrap_ms:.1},\
         \"incremental_ms\":{incremental_total_ms:.3},\"full_ms\":{full_total_ms:.3},\
         \"ratio\":{ratio:.4}}}\n",
        git_rev(),
        opts.preset,
        config.seed,
        opts.threads,
        opts.faults,
        opts.days,
    );
    let appended = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&history_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match appended {
        Ok(()) => eprintln!("# appended history to {}", history_path.display()),
        Err(e) => {
            eprintln!("# failed to append {}: {e}", history_path.display());
            std::process::exit(1);
        }
    }

    if opts.gate {
        // The tentpole's cost contract: rolling a day forward must cost
        // less than a quarter of re-running the merged corpus.
        if ratio >= 0.25 {
            eprintln!(
                "# longitudinal: gate FAILED — mean incremental cost is {:.1}% of a full \
                 re-run (must stay below 25%)",
                ratio * 100.0
            );
            std::process::exit(1);
        }
        match comparable {
            None => println!(
                "  history gate         : no comparable entry in {} — pass",
                history_path.display()
            ),
            Some(prev) => {
                let prev_git = json_str(prev, "git").unwrap_or_else(|| "?".to_string());
                let prev_ms = json_f64(prev, "incremental_ms").unwrap_or(f64::INFINITY);
                if incremental_total_ms > prev_ms * 1.25 {
                    eprintln!(
                        "# longitudinal: REGRESSION — incremental total {incremental_total_ms:.1} \
                         ms vs {prev_ms:.1} ms ({:+.0}%) at git {prev_git}",
                        (incremental_total_ms / prev_ms - 1.0) * 100.0
                    );
                    std::process::exit(1);
                }
                println!("  history gate         : ok (vs entry at git {prev_git})");
            }
        }
        println!(
            "  cost gate            : ok ({:.1}% of a full re-run, floor 25%)",
            ratio * 100.0
        );
    }
}

/// `exp scenario` — run declarative world-event scenarios and measure
/// graceful degradation. An event-free baseline runs first; then every
/// scenario file runs over the same `(config, faults, threads)`, its
/// engine phase executes twice as a byte-determinism oracle, and the
/// per-event precision/recall/footprint-stability deltas against the
/// baseline land in BENCH_scenarios.json.
fn run_scenario(
    opts: &iotmap_bench::CliOptions,
    config: &WorldConfig,
    faults: &iotmap_faults::FaultPlan,
) {
    use iotmap::scenario::{measure_resilience, Scenario};
    use iotmap_bench::Pipeline;

    // Collect (file, parsed scenario) pairs from --file / --matrix.
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    if let Some(f) = &opts.file {
        files.push(std::path::PathBuf::from(f));
    }
    if let Some(dir) = &opts.matrix {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("--matrix {dir:?}: {e}");
                std::process::exit(2);
            }
        };
        let mut found: Vec<std::path::PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
            .collect();
        found.sort();
        if found.is_empty() {
            eprintln!("--matrix {dir:?}: no *.scn files");
            std::process::exit(2);
        }
        files.extend(found);
    }
    if files.is_empty() {
        eprintln!("the scenario experiment needs --file SCENARIO.scn or --matrix DIR");
        std::process::exit(2);
    }
    let scenarios: Vec<(std::path::PathBuf, Scenario)> = files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("{}: {e}", path.display());
                std::process::exit(2);
            });
            let scenario = Scenario::parse(&text).unwrap_or_else(|e| {
                eprintln!("{}: {e}", path.display());
                std::process::exit(2);
            });
            (path, scenario)
        })
        .collect();

    // `--trace`/`--metrics`/`--trace-out` instrument the whole matrix; the
    // `scenario.*` gauges emitted by measure_resilience land in the run
    // report, so the metrics markdown carries the `## Resilience` table.
    let instrumented = opts.trace || opts.metrics.is_some() || opts.trace_out.is_some();
    let registry = std::rc::Rc::new(iotmap_obs::Registry::new());
    if instrumented {
        iotmap_obs::install(registry.clone());
    }

    let prepare = |scenario: Option<&Scenario>| {
        let mut pipeline = Pipeline::new(config.clone())
            .threads(opts.threads)
            .faults(faults.clone());
        if let Some(dir) = opts.cache.as_deref() {
            pipeline = pipeline.cache(dir);
        }
        if let Some(sc) = scenario {
            pipeline = pipeline.scenario(sc.clone());
        }
        pipeline.prepare().unwrap_or_else(|e| {
            eprintln!("pipeline failed: {e}");
            std::process::exit(1);
        })
    };
    let execute = |prepared: &iotmap::PreparedWorld, what: &str| {
        prepared.execute().unwrap_or_else(|e| {
            eprintln!("{what}: engine failed: {e}");
            std::process::exit(1);
        })
    };
    let discovered_providers = |artifacts: &iotmap::RunArtifacts| {
        artifacts
            .discovery
            .per_provider()
            .filter(|(_, d)| !d.ips.is_empty())
            .count()
    };

    eprintln!(
        "# scenario: event-free baseline (seed {}, preset {}, faults {}, threads {})…",
        config.seed, opts.preset, opts.faults, opts.threads
    );
    let t0 = std::time::Instant::now();
    let baseline = execute(&prepare(None), "baseline");
    let baseline_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "# scenario: baseline ready in {baseline_ms:.1} ms ({} providers, {} IPs)",
        discovered_providers(&baseline),
        baseline.discovery.all_ips().len()
    );

    struct ScenarioRow {
        file: String,
        name: String,
        fingerprint: u64,
        events: usize,
        skipped: u64,
        providers_discovered: usize,
        discovered_ips: usize,
        deterministic: bool,
        run_ms: f64,
        resilience: Vec<iotmap::scenario::EventResilience>,
    }
    let mut rows: Vec<ScenarioRow> = Vec::new();
    let mut all_deterministic = true;
    for (path, scenario) in &scenarios {
        eprintln!(
            "# scenario: {} ({} events)…",
            scenario.name,
            scenario.timeline.events.len()
        );
        let t = std::time::Instant::now();
        let prepared = prepare(Some(scenario));
        let artifacts = execute(&prepared, &scenario.name);
        let run_ms = t.elapsed().as_secs_f64() * 1e3;
        // Determinism oracle: a second engine execution over the same
        // prepared world must produce byte-identical artifacts.
        let deterministic =
            execute(&prepared, &scenario.name).canonical_dump() == artifacts.canonical_dump();
        all_deterministic &= deterministic;
        let resilience = measure_resilience(
            scenario,
            &artifacts.world,
            &baseline.discovery,
            &baseline.footprints,
            &artifacts.discovery,
            &artifacts.footprints,
        );
        eprintln!(
            "# scenario: {}: {} providers, {} IPs, {} skipped events, {}",
            scenario.name,
            discovered_providers(&artifacts),
            artifacts.discovery.all_ips().len(),
            artifacts.world.timeline.skipped,
            if deterministic {
                "deterministic"
            } else {
                "NON-DETERMINISTIC"
            }
        );
        rows.push(ScenarioRow {
            file: path.display().to_string(),
            name: scenario.name.clone(),
            fingerprint: scenario.fingerprint(),
            events: scenario.timeline.events.len(),
            skipped: artifacts.world.timeline.skipped,
            providers_discovered: discovered_providers(&artifacts),
            discovered_ips: artifacts.discovery.all_ips().len(),
            deterministic,
            run_ms,
            resilience,
        });
    }

    println!(
        "scenario matrix (preset {}, seed {}, threads {}, faults {})",
        opts.preset, config.seed, opts.threads, opts.faults
    );
    println!(
        "  baseline             : {} providers, {} IPs, {baseline_ms:.1} ms",
        discovered_providers(&baseline),
        baseline.discovery.all_ips().len()
    );
    for row in &rows {
        println!(
            "  {:<20} : {} events, {} providers, {} IPs, {}, {:.1} ms",
            row.name,
            row.events,
            row.providers_discovered,
            row.discovered_ips,
            if row.deterministic {
                "deterministic"
            } else {
                "NON-DETERMINISTIC"
            },
            row.run_ms,
        );
        for ev in &row.resilience {
            for p in &ev.providers {
                println!(
                    "    {:<40} {:<12} Δprecision {:+5}‰  Δrecall {:+5}‰  stability {:4}‰",
                    ev.label,
                    p.provider,
                    p.precision_delta_pm,
                    p.recall_delta_pm,
                    p.footprint_stability_pm,
                );
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"iotmap-bench/scenarios-v1\",\n");
    json.push_str(&format!("  \"preset\": \"{}\",\n", opts.preset));
    json.push_str(&format!("  \"seed\": {},\n", config.seed));
    json.push_str(&format!("  \"threads\": {},\n", opts.threads));
    json.push_str(&format!("  \"faults\": \"{}\",\n", opts.faults));
    json.push_str(&format!(
        "  \"baseline\": {{\"providers_discovered\": {}, \"discovered_ips\": {}, \
         \"run_ms\": {baseline_ms:.3}}},\n",
        discovered_providers(&baseline),
        baseline.discovery.all_ips().len()
    ));
    json.push_str("  \"scenarios\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"file\": \"{}\", \"fingerprint\": \"{:016x}\", \
             \"events\": {}, \"skipped_events\": {}, \"providers_discovered\": {}, \
             \"discovered_ips\": {}, \"deterministic\": {}, \"run_ms\": {:.3}, \
             \"resilience\": [",
            row.name,
            row.file,
            row.fingerprint,
            row.events,
            row.skipped,
            row.providers_discovered,
            row.discovered_ips,
            row.deterministic,
            row.run_ms,
        ));
        let mut first = true;
        for ev in &row.resilience {
            for p in &ev.providers {
                if !first {
                    json.push_str(", ");
                }
                first = false;
                json.push_str(&format!(
                    "{{\"event\": \"{}\", \"provider\": \"{}\", \"precision_delta_pm\": {}, \
                     \"recall_delta_pm\": {}, \"footprint_stability_pm\": {}, \
                     \"discovered\": {}}}",
                    ev.label,
                    p.provider,
                    p.precision_delta_pm,
                    p.recall_delta_pm,
                    p.footprint_stability_pm,
                    p.discovered,
                ));
            }
        }
        json.push_str(&format!("]}}{comma}\n"));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    let path = match &opts.out_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("# failed to create {dir}: {e}");
                std::process::exit(1);
            }
            std::path::Path::new(dir).join("BENCH_scenarios.json")
        }
        None => std::path::PathBuf::from("BENCH_scenarios.json"),
    };
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("# failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("# wrote {}", path.display());

    if instrumented {
        iotmap_obs::uninstall();
        emit_observability(opts, &registry.report());
    }

    if !all_deterministic {
        eprintln!("# scenario: determinism oracle FAILED — see rows above");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_netflow::Direction;
    use iotmap_nettypes::PortProto;

    /// The fold law: folding any split of the flow stream into two
    /// partials and merging them equals the serial fold.
    #[test]
    fn published_space_fold_merges_like_it_folds() {
        let fold = PublishedSpaceFold {
            prefixes: vec!["10.1.0.0/16".parse().unwrap()],
        };
        let records: Vec<FlowRecord> = (0..24u64)
            .map(|i| FlowRecord {
                time: Date::new(2022, 3, 1).midnight(),
                line: LineId(i % 5),
                remote: format!("10.{}.0.{}", i % 3, i % 4).parse().unwrap(),
                port: PortProto::tcp(443),
                direction: Direction::Downstream,
                bytes: 100 * (i + 1),
                packets: 1,
            })
            .collect();
        let serial = fold.fold_all(&records);
        assert_eq!(serial.len(), 4, "only the four 10.1.0.x remotes count");
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let mut left = fold.fold_all(a);
            fold.merge(&mut left, fold.fold_all(b));
            assert_eq!(left, serial, "split at {split}");
        }
    }

    /// Seeds above 2^53 are distinct history keys: 2^53 + 1 rounds to
    /// 2^53 as an `f64`, so the match must compare them as integers.
    #[test]
    fn history_matches_seeds_above_2_pow_53_exactly() {
        let opts = iotmap_bench::CliOptions::parse(
            [
                "exp",
                "bench",
                "--seed",
                "9007199254740993",
                "--threads",
                "1",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let line = |seed: u64| {
            format!(
                "{{\"schema\":\"iotmap-bench/history-v1\",\"preset\":\"paper\",\
                 \"seed\":{seed},\"threads\":1,\"faults\":\"none\"}}"
            )
        };
        assert_eq!(
            json_f64(&line(9007199254740992), "seed"),
            json_f64(&line(9007199254740993), "seed"),
            "the two seeds must collide as f64 for this test to mean anything"
        );
        assert!(history_matches(&line(9007199254740993), "bench", &opts));
        assert!(!history_matches(&line(9007199254740992), "bench", &opts));
        assert!(!history_matches(
            &line(9007199254740993),
            "longitudinal",
            &opts
        ));
    }
}
