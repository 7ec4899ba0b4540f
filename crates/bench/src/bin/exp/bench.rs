//! The timing modes: `exp bench` (prepare, the discovery engine and the
//! replicated ISP pass, written to `BENCH_pipeline.json` and the perf
//! history) and `exp profile` (where an instrumented run spends its time).

use super::{append_history, emit_observability, prepare, prepare_shared, write_report, Cli};
use iotmap_bench::record::{self, Value};
use iotmap_bench::Experiment;
use iotmap_core::PatternRegistry;
use iotmap_nettypes::StudyPeriod;
use iotmap_obs::RunReport;
use std::collections::BTreeMap;

/// Collect every `discovery.*` span (at any depth) as `(name, ms)`.
fn discovery_stages(nodes: &[iotmap_obs::SpanNode], out: &mut Vec<(String, f64)>) {
    for n in nodes {
        if n.name.starts_with("discovery.") {
            out.push((n.name.clone(), n.nanos as f64 / 1e6));
        }
        discovery_stages(&n.children, out);
    }
}

/// Short key for a prepare-stage span: `super.stage.world` → `world`,
/// `experiment.footprints` → `footprints`.
fn stage_key(name: &str) -> &str {
    name.strip_prefix("super.stage.")
        .or_else(|| name.strip_prefix("experiment."))
        .unwrap_or(name)
}

/// Time prepare, the single-pass discovery engine and the replicated
/// ISP pass over one prepared world, and write `BENCH_pipeline.json`.
/// Only library code is timed; the per-provider fan-out reference
/// (`run_fanout`) is checked against the engine by
/// `tests/engine_equivalence.rs`, not here. With `--gate`, the history
/// gate compares prepare, engine and per-stage times against the last
/// entry from an identical configuration.
pub fn run_bench(cli: &Cli) {
    let (opts, config, faults) = (&cli.opts, &cli.config, &cli.faults);
    eprintln!(
        "# bench: preparing world (seed {}, preset {}, faults {})…",
        config.seed, opts.preset, opts.faults
    );
    // The prepare pass runs instrumented: its span tree is the
    // `prepare_stages_ms` breakdown. Span overhead is one flag check plus
    // a clock read per stage, far below timing noise.
    let (exp, prep_report) = iotmap_obs::capture(|| prepare(cli, config, faults.clone()));
    // The pipeline's two phases each carry a span; report their summed
    // own-time (children sum to each by construction) and merge both
    // phases' stage children into one breakdown.
    let phase_spans: Vec<_> = ["experiment.prepare", "experiment.execute"]
        .iter()
        .filter_map(|name| prep_report.find_span(name))
        .collect();
    let prepare_ms = phase_spans.iter().map(|s| s.nanos as f64 / 1e6).sum();
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
    let (_, report) = iotmap_obs::capture(|| pipeline.run(&sources, period));
    let mut stages = Vec::new();
    discovery_stages(&report.spans, &mut stages);
    let counters: Vec<(&str, Value)> = report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("discovery."))
        .map(|(k, v)| (k.as_str(), (*v).into()))
        .collect();

    // `records_per_sec` derives from ONE documented timing source: the
    // `core.discovery` span of the instrumented engine pass — the span
    // that wraps exactly the record-scanning engine, nothing else. The
    // wall-clock `engine_ms` (best of N uninstrumented passes) stays
    // what the regression gate tracks; the span is what throughput is
    // quoted from, so the two can never silently disagree about what
    // they measure.
    let engine_span_ms = report
        .find_span("core.discovery")
        .map(|s| s.nanos as f64 / 1e6)
        .unwrap_or(engine_ms);
    let records_per_sec = records as f64 / (engine_span_ms / 1e3);

    // The --scale phase: the replicated ISP pass. It runs at every scale
    // (scale 1 keeps it cheap and keeps the history rows comparable).
    let (scaled, scaled_report) = run_bench_scaled(&exp, period, opts.scale);
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

    let report_record = record::report(
        "iotmap-bench/pipeline-v4",
        opts,
        vec![
            ("cache", cache_tag.into()),
            ("scale", opts.scale.into()),
            ("iters", iters.into()),
            ("records", records.into()),
            ("discovered_ips", engine_ips.into()),
            ("prepare_ms", Value::fixed(prepare_ms, 1)),
            ("prepare_stages_ms", Value::fixed_map(&prepare_stages, 3)),
            ("engine_ms", Value::fixed(engine_ms, 3)),
            ("engine_span_ms", Value::fixed(engine_span_ms, 3)),
            ("records_per_sec", Value::fixed(records_per_sec, 0)),
            ("peak_rss_bytes", peak_rss.into()),
            (
                "scaled",
                Value::object([
                    ("isp_replicas", scaled.isp_replicas.into()),
                    ("isp_lines", scaled.isp_lines.into()),
                    ("isp_ms", Value::fixed(scaled.isp_ms, 3)),
                    ("isp_contact_ms", Value::fixed(scaled.isp_contact_ms, 3)),
                    ("isp_exclusion_ms", Value::fixed(scaled.isp_exclusion_ms, 3)),
                    ("isp_analysis_ms", Value::fixed(scaled.isp_analysis_ms, 3)),
                    ("isp_total_dn_bytes", scaled.isp_total_dn_bytes.into()),
                ]),
            ),
            ("stages_ms", Value::fixed_map(&stages, 3)),
            ("counters", Value::object(counters)),
        ],
    );
    write_report(opts, "BENCH_pipeline.json", &report_record);

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
        "    contact / exclusion / analysis : {:.1} / {:.1} / {:.1} ms",
        scaled.isp_contact_ms, scaled.isp_exclusion_ms, scaled.isp_analysis_ms
    );
    println!(
        "  peak RSS             : {:9.1} MiB  (ceiling {} MiB)",
        peak_rss as f64 / (1024.0 * 1024.0),
        SCALED_RSS_CEILING_BYTES >> 20
    );

    // `--trace`, `--metrics` and `--trace-out` see one report: the
    // instrumented prepare pass, the instrumented engine pass and the
    // scaled phase, in run order.
    let combined = iotmap_obs::Registry::new();
    for phase in [&prep_report, &report, &scaled_report] {
        combined.merge_child(phase, None);
    }
    emit_observability(opts, &combined.report());

    // Perf history: append one line per bench run, and (with --gate)
    // compare against the last entry from an identical configuration.
    let entry = record::history_entry(
        &opts.experiment,
        opts,
        vec![
            ("cache", cache_tag.into()),
            ("scale", opts.scale.into()),
            ("records", records.into()),
            ("discovered_ips", engine_ips.into()),
            ("prepare_ms", Value::fixed(prepare_ms, 1)),
            ("engine_ms", Value::fixed(engine_ms, 3)),
            ("engine_span_ms", Value::fixed(engine_span_ms, 3)),
            ("records_per_sec", Value::fixed(records_per_sec, 0)),
            ("scaled_isp_ms", Value::fixed(scaled.isp_ms, 3)),
            ("peak_rss_bytes", peak_rss.into()),
            ("prepare_stages_ms", Value::fixed_map(&prepare_stages, 3)),
            ("stages_ms", Value::fixed_map(&stages, 3)),
        ],
    );
    let (history, comparable) = append_history(opts, &entry);

    if opts.gate {
        match comparable {
            None => println!(
                "  history gate         : no comparable entry in {} — pass",
                history.display()
            ),
            Some(prev) => {
                let regressions = record::bench_regressions(
                    &prev,
                    prepare_ms,
                    engine_ms,
                    &prepare_stages,
                    &stages,
                );
                let prev_git = record::entry_git(&prev);
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
    /// The whole ISP pass: the sum of its three layers below.
    isp_ms: f64,
    /// Contact pass over the base population (scanner evidence).
    isp_contact_ms: f64,
    /// Scanner exclusion over the contact sets.
    isp_exclusion_ms: f64,
    /// The replicated analysis pass.
    isp_analysis_ms: f64,
    isp_total_dn_bytes: u64,
}

/// The `--scale N` phase over one prepared experiment: the §5 analysis
/// fold over a replicated subscriber population (replica `r` shifts
/// line ids by `r × n`) for one day, streamed block by block. At
/// `scale >= 16` the replica count is raised to cover at least 2M
/// subscriber lines — the acceptance bar for the scaled run.
///
/// The phase runs under its own recorder, and the three `isp_*_ms`
/// layers are its `traffic.*` spans; the report is returned for the
/// combined trace.
fn run_bench_scaled(exp: &Experiment, period: StudyPeriod, scale: u64) -> (ScaledBench, RunReport) {
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
    let (isp_report, report) = iotmap_obs::capture(|| {
        let contacts = exp.contact_pass(day);
        let excluded = exp.excluded_lines(&contacts);
        drop(contacts);
        exp.scaled_analysis_pass(day, isp_replicas, &excluded)
    });
    let span_ms = |name| {
        let span = report
            .find_span(name)
            .expect("the scaled phase records its spans");
        span.nanos as f64 / 1e6
    };
    let isp_contact_ms = span_ms("traffic.contact_pass");
    let isp_exclusion_ms = span_ms("traffic.scanner_exclusion");
    let isp_analysis_ms = span_ms("traffic.scaled_analysis_pass");
    let isp_total_dn_bytes: u64 = isp_report
        .providers()
        .iter()
        .map(|p| isp_report.total_downstream(p))
        .sum();

    let scaled = ScaledBench {
        isp_replicas,
        isp_lines: isp_replicas * lines,
        isp_ms: isp_contact_ms + isp_exclusion_ms + isp_analysis_ms,
        isp_contact_ms,
        isp_exclusion_ms,
        isp_analysis_ms,
        isp_total_dn_bytes,
    };
    (scaled, report)
}

/// `exp profile` — run the full pipeline instrumented and report where
/// the time went: top-N spans by self-time, per-shard imbalance, and the
/// busiest counters. `--smoke` skips the traffic passes (the fast path
/// `scripts/check.sh` exercises); `--trace-out`/`--metrics` write the
/// same artifacts as any instrumented run, including on failure.
pub fn run_profile(cli: &Cli) {
    let (opts, config) = (&cli.opts, &cli.config);
    eprintln!(
        "# profile: preparing world (seed {}, preset {}, faults {})…",
        config.seed, opts.preset, opts.faults
    );
    let registry = std::rc::Rc::new(iotmap_obs::Registry::new());
    iotmap_obs::install(registry.clone());
    let t0 = std::time::Instant::now();
    let exp = prepare_shared(cli);
    if !opts.smoke {
        eprintln!("# profile: simulating main-week ISP traffic…");
        exp.full_traffic_analysis(config.study_period);
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let matches = |line: String, experiment: &str| {
            let current = record::history_entry(experiment, &opts, vec![]);
            record::last_comparable(&line, &current).is_some()
        };
        assert!(matches(line(9007199254740993), "bench"));
        assert!(!matches(line(9007199254740992), "bench"));
        assert!(!matches(line(9007199254740993), "longitudinal"));
    }
}
