//! `exp scenario`: run declarative world-event scenarios against an
//! event-free baseline and measure each event's resilience deltas.

use super::{pipeline_failed, recorded, usage_error, write_report, Cli};
use iotmap::scenario::{measure_resilience, Scenario};
use iotmap_bench::record::{self, Value};
use std::path::PathBuf;

/// `exp scenario` — run declarative world-event scenarios and measure
/// graceful degradation. An event-free baseline runs first; then every
/// scenario file runs over the same `(config, faults, threads)`, its
/// engine phase executes twice as a byte-determinism oracle, and the
/// per-event precision/recall/footprint-stability deltas against the
/// baseline land in BENCH_scenarios.json.
pub fn run_scenario(cli: &Cli) {
    let opts = &cli.opts;
    // Collect (file, parsed scenario) pairs from --file / --matrix.
    let mut files: Vec<PathBuf> = Vec::new();
    if let Some(f) = &opts.file {
        files.push(PathBuf::from(f));
    }
    if let Some(dir) = &opts.matrix {
        let entries = std::fs::read_dir(dir)
            .unwrap_or_else(|e| usage_error(format!("--matrix {dir:?}: {e}")));
        let mut found: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
            .collect();
        found.sort();
        if found.is_empty() {
            usage_error(format!("--matrix {dir:?}: no *.scn files"));
        }
        files.extend(found);
    }
    if files.is_empty() {
        usage_error("the scenario experiment needs --file SCENARIO.scn or --matrix DIR");
    }
    let scenarios: Vec<(PathBuf, Scenario)> = files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| usage_error(format!("{}: {e}", path.display())));
            let scenario = Scenario::parse(&text)
                .unwrap_or_else(|e| usage_error(format!("{}: {e}", path.display())));
            (path, scenario)
        })
        .collect();

    // `--trace`/`--metrics`/`--trace-out` instrument the whole matrix; the
    // `scenario.*` gauges emitted by measure_resilience land in the run
    // report, so the metrics markdown carries the `## Resilience` table.
    if !recorded(opts, || run_matrix(cli, &scenarios)) {
        eprintln!("# scenario: determinism oracle FAILED — see rows above");
        std::process::exit(1);
    }
}

/// Run the baseline and every scenario, print the per-event rows, and
/// write `BENCH_scenarios.json`. Returns whether every scenario's engine
/// phase was byte-deterministic.
fn run_matrix(cli: &Cli, scenarios: &[(PathBuf, Scenario)]) -> bool {
    let (opts, config) = (&cli.opts, &cli.config);
    let prepare = |scenario: Option<&Scenario>| {
        let pipeline = opts.pipeline(config, cli.faults.clone());
        match scenario {
            Some(sc) => pipeline.scenario(sc.clone()),
            None => pipeline,
        }
        .prepare()
        .unwrap_or_else(|e| pipeline_failed(opts, e))
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
    for (path, scenario) in scenarios {
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

    let scenario_rows = rows.iter().map(|row| {
        let resilience = row.resilience.iter().flat_map(|ev| {
            ev.providers.iter().map(|p| {
                Value::object([
                    ("event", ev.label.as_str().into()),
                    ("provider", p.provider.as_str().into()),
                    ("precision_delta_pm", p.precision_delta_pm.into()),
                    ("recall_delta_pm", p.recall_delta_pm.into()),
                    ("footprint_stability_pm", p.footprint_stability_pm.into()),
                    ("discovered", p.discovered.into()),
                ])
            })
        });
        Value::object([
            ("name", row.name.as_str().into()),
            ("file", row.file.as_str().into()),
            ("fingerprint", format!("{:016x}", row.fingerprint).into()),
            ("events", row.events.into()),
            ("skipped_events", row.skipped.into()),
            ("providers_discovered", row.providers_discovered.into()),
            ("discovered_ips", row.discovered_ips.into()),
            ("deterministic", Value::Bool(row.deterministic)),
            ("run_ms", Value::fixed(row.run_ms, 3)),
            ("resilience", Value::Arr(resilience.collect())),
        ])
    });
    let baseline_record = Value::object([
        (
            "providers_discovered",
            discovered_providers(&baseline).into(),
        ),
        ("discovered_ips", baseline.discovery.all_ips().len().into()),
        ("run_ms", Value::fixed(baseline_ms, 3)),
    ]);
    let report = record::report(
        "iotmap-bench/scenarios-v1",
        opts,
        vec![
            ("baseline", baseline_record),
            ("scenarios", Value::Arr(scenario_rows.collect())),
        ],
    );
    write_report(opts, "BENCH_scenarios.json", &report);
    all_deterministic
}
