//! The three workloads, untraced (end-to-end metrics), and the traced
//! run that times each layer's public calls (per-layer metrics).
//!
//! Everything here drives the library through its public API only:
//! `Pipeline`, `PreparedWorld`, `RunArtifacts`, `DiscoveryPipeline`,
//! `TrafficSimulator` and the traffic folds. Nothing is timed that the
//! library does not run itself.

use std::rc::Rc;
use std::time::Instant;

use iotmap::core::{FootprintInference, SharedIpClassifier};
use iotmap::faults::FaultPlan;
use iotmap::netflow::{CountingFold, FlowFold, StoringSink};
use iotmap::prelude::*;
use iotmap::recover::{scans_witness, world_witness};
use iotmap::traffic::{AnalysisFold, ContactFold, IpIndex};
use iotmap::world::TrafficSimulator;

use crate::spec::THREADS;
use crate::{digest, median, Bench};

/// Setups per run for `setup_s` (monitor sets up once per episode and
/// runs at least this many episodes).
const SETUPS: usize = 3;
/// Days rolled forward per monitor episode: the generated world's scan
/// calendar ends eight days after the main week, so a week of days all
/// carry full daily sweeps.
const EPISODE_DAYS: usize = 7;
/// Timed operations per run, at least, however short `--seconds` is.
const MIN_OPS: usize = 3;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn prepare(b: &Bench) -> Result<PreparedWorld, Error> {
    Pipeline::new(b.cfg.clone()).threads(THREADS).prepare()
}

/// Certificate records + IPv6 grabs + passive-DNS rrsets: the inputs
/// discovery scans.
fn input_records(world: &World, scans: &CollectedScans) -> u64 {
    let certs: usize = scans.censys.iter().map(|s| s.records.len()).sum();
    (certs + scans.zgrab_v6.len() + world.passive_dns.len()) as u64
}

fn delta_records(delta: &WorldDelta) -> u64 {
    delta.snapshots.iter().map(|s| s.records.len() as u64).sum()
}

/// Run `setup` [`SETUPS`] times, keeping the last result; returns the
/// median wall time in seconds.
fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, Error>) -> Result<(f64, T), Error> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    eprintln!("# setup: {secs:.3?} s");
    Ok((median(&secs), last.expect("SETUPS > 0")))
}

fn report_op_metrics(b: &mut Bench, op_ms: &[f64], rates: &[f64]) {
    eprintln!(
        "# timed ops: {} (median {:.1} ms, min {:.1}, max {:.1})",
        op_ms.len(),
        median(op_ms),
        op_ms.iter().copied().fold(f64::INFINITY, f64::min),
        op_ms.iter().copied().fold(0.0, f64::max)
    );
    eprintln!("# op ms: {op_ms:.0?}");
    b.metric("op_ms", median(op_ms));
    b.metric("items_per_s", median(rates));
}

/// The ISP week's outputs that must repeat: summed downstream bytes,
/// active lines, excluded scanner lines.
fn report_key(report: &AnalysisReport, excluded: usize) -> (u64, usize, usize) {
    let downstream = report
        .providers()
        .iter()
        .map(|p| report.total_downstream(p))
        .sum();
    (downstream, report.total_lines(), excluded)
}

fn expect_report(b: &Bench, key: (u64, usize, usize)) -> bool {
    b.expect("isp.total_downstream", key.0)
        & b.expect("isp.total_lines", key.1)
        & b.expect("isp.excluded_lines", key.2)
}

/// `discover`: prepare once, then repeat `execute()`.
pub fn discover(b: &mut Bench) -> Result<(), Error> {
    let (setup_s, prepared) = repeated_setup(|| prepare(b))?;
    b.metric("setup_s", setup_s);
    let records = input_records(&prepared.world, &prepared.scans);
    let mut first: Option<(Vec<u8>, bool)> = None;
    let (mut op_ms, mut rates) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while op_ms.len() < MIN_OPS || !b.deadline_passed(start) {
        let t = Instant::now();
        let result = prepared.execute();
        let ms = ms_since(t);
        op_ms.push(ms);
        rates.push(records as f64 / (ms / 1e3));
        let ok = match result {
            Err(e) => {
                eprintln!("# execute failed: {e}");
                false
            }
            Ok(artifacts) => {
                let dump = artifacts.canonical_dump();
                match &first {
                    Some((want, first_ok)) => {
                        *first_ok && b.check("execute output repeats byte for byte", *want == dump)
                    }
                    None => {
                        let ok = b.expect("discover.digest", digest(&dump))
                            & b.expect(
                                "discover.discovered_ips",
                                artifacts.discovery.all_ips().len(),
                            )
                            & b.expect("discover.records", records);
                        first = Some((dump, ok));
                        ok
                    }
                }
            }
        };
        b.op(ok);
    }
    if !b.is_recorded("discover.digest") {
        // No recorded digest for this seed: a serial execute, outside the
        // timed phase, is the oracle.
        let serial = prepared.threads(1).execute().map(|a| a.canonical_dump());
        let ok = matches!((&first, serial), (Some((want, _)), Ok(got)) if *want == got);
        if !b.check("execute equals a serial execute", ok) {
            b.fail_all();
        }
    }
    report_op_metrics(b, &op_ms, &rates);
    Ok(())
}

/// `isp-week`: contact pass → scanner exclusion → analysis pass over the
/// main week, each run under a fresh obs `Registry`.
pub fn isp_week(b: &mut Bench) -> Result<(), Error> {
    let (setup_s, artifacts) = repeated_setup(|| prepare(b)?.execute())?;
    b.metric("setup_s", setup_s);
    let week = artifacts.world.config.study_period;
    let mut first: Option<((u64, usize, usize), bool)> = None;
    let (mut op_ms, mut rates) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while op_ms.len() < MIN_OPS || !b.deadline_passed(start) {
        let registry = Rc::new(Registry::new());
        iotmap_obs::install(registry.clone());
        let t = Instant::now();
        let contacts = artifacts.contact_pass(week);
        let excluded = artifacts.excluded_lines(&contacts);
        let report = artifacts.analysis_pass(week, &excluded);
        let ms = ms_since(t);
        iotmap_obs::uninstall();
        let flows = registry.counter("netflow.flows_exported");
        op_ms.push(ms);
        rates.push(flows as f64 / (ms / 1e3));
        let key = report_key(&report, excluded.len());
        let ok = match &first {
            Some((want, first_ok)) => *first_ok && b.check("ISP week output repeats", *want == key),
            None => {
                let ok = expect_report(b, key) & b.expect("isp.flows_both_passes", flows);
                first = Some((key, ok));
                ok
            }
        };
        b.op(ok);
    }
    if !b.is_recorded("isp.total_downstream") {
        // No recorded report for this seed: a serial week, outside the
        // timed phase, is the oracle.
        let serial = iotmap::par::with_threads(1, || {
            let contacts = artifacts.contact_pass(week);
            let excluded = artifacts.excluded_lines(&contacts);
            report_key(&artifacts.analysis_pass(week, &excluded), excluded.len())
        });
        let ok = matches!(first, Some((want, _)) if want == serial);
        if !b.check("ISP week equals a serial week", ok) {
            b.fail_all();
        }
    }
    report_op_metrics(b, &op_ms, &rates);
    Ok(())
}

/// One monitor episode's outcome.
struct Episode {
    prepared: PreparedWorld,
    day_ms: Vec<f64>,
    day_records: Vec<u64>,
    day_ok: Vec<bool>,
    dump: Vec<u8>,
}

/// Roll `prepared` (already bootstrapped) forward [`EPISODE_DAYS`] days,
/// each day timed as `next_delta` + `advance`; spans are recorded when
/// the tracer is on.
fn roll_episode(b: &Bench, mut prepared: PreparedWorld) -> Result<Episode, Error> {
    let tr = &b.tracer;
    let (mut day_ms, mut day_records, mut day_ok) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..EPISODE_DAYS {
        let t = Instant::now();
        let (records, ok) = tr.span("bench.day", || {
            let delta = tr.span("delta.next_day", || prepared.next_delta());
            let records = delta_records(&delta);
            tr.items(records);
            let result = tr.span("iotmap.advance", || prepared.advance(&delta).map(|_| ()));
            tr.items(records);
            (records, result)
        });
        day_ms.push(ms_since(t));
        day_records.push(records);
        day_ok.push(match ok {
            Ok(()) => true,
            Err(e) => {
                eprintln!("# advance failed: {e}");
                false
            }
        });
    }
    let dump = prepared.rolled()?.canonical_dump();
    Ok(Episode {
        prepared,
        day_ms,
        day_records,
        day_ok,
        dump,
    })
}

/// `monitor`: bootstrap, then roll the study forward day by day; each
/// episode starts from a fresh prepare + bootstrap (its setup).
pub fn monitor(b: &mut Bench) -> Result<(), Error> {
    let mut setup_s = Vec::new();
    let (mut op_ms, mut rates) = (Vec::new(), Vec::new());
    let mut first: Option<(String, bool)> = None;
    let start = Instant::now();
    let last = loop {
        let t = Instant::now();
        let mut prepared = prepare(b)?;
        prepared.rolled()?;
        setup_s.push(t.elapsed().as_secs_f64());
        let ep = roll_episode(b, prepared)?;
        for (&ms, &records) in ep.day_ms.iter().zip(&ep.day_records) {
            op_ms.push(ms);
            rates.push(records as f64 / (ms / 1e3));
        }
        let dump_digest = digest(&ep.dump);
        let episode_ok = match &first {
            Some((want, first_ok)) => {
                *first_ok && b.check("episode output repeats", *want == dump_digest)
            }
            None => {
                let ok = b.expect("monitor.digest", &dump_digest)
                    & b.expect("monitor.scan_records", ep.day_records.iter().sum::<u64>());
                first = Some((dump_digest, ok));
                ok
            }
        };
        for &ok in &ep.day_ok {
            b.op(ok && episode_ok);
        }
        if setup_s.len() >= SETUPS && b.deadline_passed(start) {
            break ep;
        }
    };
    eprintln!("# setup: {setup_s:.3?} s");
    // The oracle, outside the timed phase: `advance` extends the pristine
    // corpus in lockstep, so a fresh execute is the from-scratch run the
    // rolled artifacts must equal.
    let oracle = last.prepared.execute()?.canonical_dump();
    if !b.check(
        "rolled artifacts equal a from-scratch execute",
        oracle == last.dump,
    ) {
        b.fail_all();
    }
    b.metric("setup_s", median(&setup_s));
    report_op_metrics(b, &op_ms, &rates);
    Ok(())
}

/// Median of the durations of spans called `name`.
fn span_ms(b: &Bench, name: &str) -> f64 {
    let d = b.tracer.durations_ms(name);
    if d.is_empty() {
        f64::NAN
    } else {
        median(&d)
    }
}

/// The traced run: every layer's public calls, timed with spans, on the
/// workload's world, plus the workload's own operation with and without
/// spans for the tracing overhead.
pub fn traced(b: &mut Bench, workload: &str) -> Result<(), Error> {
    let period = b.cfg.study_period;
    let prepared = b.tracer.span("iotmap.prepare", || prepare(b))?;

    // World layers: the two generative calls prepare makes, made again
    // directly; their outputs must match the prepared ones.
    let world = b.tracer.span("world.generate", || World::generate(&b.cfg));
    let scans = b.tracer.span("world.collect_scans", || {
        world.collect_scan_data_with(period, &FaultPlan::none())
    });
    let ok = b.check(
        "World::generate matches the prepared world",
        world_witness(&world) == world_witness(&prepared.world),
    ) & b.check(
        "collect_scan_data_with matches the prepared scans",
        scans_witness(&scans) == scans_witness(&prepared.scans),
    );
    drop((world, scans));
    b.op(ok);

    let artifacts = engine_layers(b, &prepared)?;
    let week_key = traffic_layers(b, &artifacts);

    match workload {
        "discover" => {
            let want = Some(artifacts.canonical_dump());
            overhead_loop(b, |b| {
                let result = b.tracer.span("iotmap.execute", || prepared.execute());
                let ok = result.map(|a| a.canonical_dump()).ok() == want;
                b.check("execute output repeats byte for byte", ok)
            })
        }
        "isp-week" => overhead_loop(b, |b| {
            let registry = Rc::new(Registry::new());
            iotmap_obs::install(registry.clone());
            let tr = &b.tracer;
            let contacts = tr.span("traffic.contact_pass", || artifacts.contact_pass(period));
            let excluded = tr.span("traffic.scanner_exclusion", || {
                artifacts.excluded_lines(&contacts)
            });
            let report = tr.span("traffic.analysis_pass", || {
                artifacts.analysis_pass(period, &excluded)
            });
            iotmap_obs::uninstall();
            b.check(
                "ISP week output repeats",
                report_key(&report, excluded.len()) == week_key,
            )
        }),
        _ => {
            // Monitor: one untraced episode, then the traced one below;
            // every day of both must agree.
            let mut untraced = prepare(b)?;
            untraced.rolled()?;
            let tracer = std::mem::replace(&mut b.tracer, crate::trace::Tracer::new(false));
            let plain = roll_episode(b, untraced);
            b.tracer = tracer;
            let plain = plain?;
            let traced_ep = delta_layers(b, prepared)?;
            let plain_ms: f64 = plain.day_ms.iter().sum();
            let traced_ms: f64 = traced_ep.day_ms.iter().sum();
            b.metric(
                "bench.trace_overhead_pct",
                (traced_ms / plain_ms - 1.0) * 100.0,
            );
            let same = b.check(
                "traced episode equals untraced episode",
                plain.dump == traced_ep.dump,
            );
            b.op(same);
            return Ok(());
        }
    }
    delta_layers(b, prepared)?;
    Ok(())
}

/// `execute`, then each engine layer's public call on its outputs.
fn engine_layers(b: &mut Bench, prepared: &PreparedWorld) -> Result<RunArtifacts, Error> {
    let period = b.cfg.study_period;
    let tr = &b.tracer;
    let artifacts = tr.span("iotmap.execute", || prepared.execute())?;
    let sources = artifacts.sources();
    let registry = PatternRegistry::try_paper_defaults()?;
    let pipeline = DiscoveryPipeline::new(registry);
    let records = input_records(&artifacts.world, &artifacts.scans);

    let discovery = tr.span("core.discovery", || pipeline.run(&sources, period));
    tr.items(records);
    for (name, source) in [
        ("core.discovery.certificates", Source::Certificate),
        ("core.discovery.ipv6_scan", Source::Ipv6Scan),
        ("core.discovery.passive_dns", Source::PassiveDns),
    ] {
        tr.span(name, || pipeline.run_channels(&sources, period, &[source]));
    }
    let footprints = tr.span("core.footprints", || {
        discovery
            .per_provider()
            .map(|(name, disc)| (name.to_string(), FootprintInference::infer(disc, &sources)))
            .collect::<std::collections::HashMap<_, _>>()
    });
    let shared_ips = tr.span("core.shared_ip", || {
        let classifier = SharedIpClassifier::new(pipeline.registry());
        let mut shared = std::collections::HashSet::new();
        for (_, disc) in discovery.per_provider() {
            let (_, s) = classifier.split_provider(disc, &artifacts.world.passive_dns, period);
            shared.extend(s.keys().copied());
        }
        shared
    });
    let index = tr.span("traffic.index_build", || {
        IpIndex::build(&discovery, &footprints, &shared_ips)
    });

    let ips = discovery.all_ips().len();
    let ok = b.check(
        "bench-run discovery equals the engine's",
        ips == artifacts.discovery.all_ips().len()
            && shared_ips == artifacts.shared_ips
            && index.len() == artifacts.index.len(),
    ) & b.expect("discover.digest", digest(&artifacts.canonical_dump()))
        & b.expect("discover.discovered_ips", ips)
        & b.expect("discover.records", records);
    b.op(ok);

    let discovery_ms = span_ms(b, "core.discovery");
    let channels_ms = span_ms(b, "core.discovery.certificates")
        + span_ms(b, "core.discovery.ipv6_scan")
        + span_ms(b, "core.discovery.passive_dns");
    let engine_ms = discovery_ms
        + span_ms(b, "core.footprints")
        + span_ms(b, "core.shared_ip")
        + span_ms(b, "traffic.index_build");
    b.metric("world.generate_ms", span_ms(b, "world.generate"));
    b.metric("world.collect_scans_ms", span_ms(b, "world.collect_scans"));
    b.metric("iotmap.execute_ms", span_ms(b, "iotmap.execute"));
    b.metric("core.discovery_ms", discovery_ms);
    b.metric(
        "core.discovery.ns_per_record",
        discovery_ms * 1e6 / records as f64,
    );
    b.metric("core.discovery.records", records as f64);
    b.metric("core.discovered_ips", ips as f64);
    b.metric(
        "core.discovery.certificates_ms",
        span_ms(b, "core.discovery.certificates"),
    );
    b.metric(
        "core.discovery.ipv6_scan_ms",
        span_ms(b, "core.discovery.ipv6_scan"),
    );
    b.metric(
        "core.discovery.passive_dns_ms",
        span_ms(b, "core.discovery.passive_dns"),
    );
    b.metric("core.discovery.active_dns_ms", discovery_ms - channels_ms);
    b.metric("core.footprints_ms", span_ms(b, "core.footprints"));
    b.metric("core.shared_ip_ms", span_ms(b, "core.shared_ip"));
    b.metric("traffic.index_build_ms", span_ms(b, "traffic.index_build"));
    b.metric(
        "iotmap.execute_other_ms",
        span_ms(b, "iotmap.execute") - engine_ms,
    );
    Ok(artifacts)
}

/// Fold one block of stored flows the way `run_fold` does: per-shard
/// partials via `iotmap_par::shard_fold`, merged in shard order.
fn shard_fold<F: FlowFold + Sync>(fold: &F, flows: &[iotmap::netflow::FlowRecord]) -> F::Partial {
    iotmap::par::shard_fold(
        flows,
        |_| fold.make(),
        |acc, _, r| fold.fold(acc, r),
        |a, p| fold.merge(a, p),
    )
}

/// Flow generation and routing, the two folds, scanner exclusion,
/// report assembly, and the obs registry's cost on the analysis pass.
/// Returns the week's report key for later repeat checks.
fn traffic_layers(b: &mut Bench, artifacts: &RunArtifacts) -> (u64, usize, usize) {
    let week = b.cfg.study_period;
    let tr = &b.tracer;
    let sim = TrafficSimulator::with_faults(
        &artifacts.world,
        artifacts.faults.seed,
        artifacts.faults.netflow.clone(),
    );
    let (totals, stats) = tr.span("netflow.generate_route", || {
        sim.run_fold(week, &CountingFold)
    });
    tr.items(stats.flows_generated);

    let contacts = tr.span("traffic.contact_pass", || artifacts.contact_pass(week));
    let excluded = tr.span("traffic.scanner_exclusion", || {
        artifacts.excluded_lines(&contacts)
    });
    drop(contacts);

    // One day of exported flows, stored, then folded three times by
    // each fold.
    let first_day = week.days().next().expect("the study week has days");
    let day = StudyPeriod::from_dates(first_day, Date::from_epoch_days(first_day.epoch_days() + 1));
    let mut store = StoringSink::new();
    tr.span("netflow.store_day", || sim.run(day, &mut store));
    let flows = store.records;
    let day_flows = flows.len() as u64;
    tr.items(day_flows);
    let contact_fold = ContactFold::new(&artifacts.index);
    let analysis_fold = AnalysisFold::new(&artifacts.index, &excluded, week);
    for _ in 0..3 {
        tr.span("traffic.contact_fold", || shard_fold(&contact_fold, &flows));
        tr.items(day_flows);
        tr.span("traffic.analysis_fold", || {
            shard_fold(&analysis_fold, &flows)
        });
        tr.items(day_flows);
    }
    drop(flows);

    let (partial, _) = tr.span("traffic.analysis_week_fold", || {
        sim.run_fold(week, &analysis_fold)
    });
    let report = tr.span("traffic.into_report", || analysis_fold.into_report(partial));
    let key = report_key(&report, excluded.len());

    // Registry cost on the analysis pass: alternate none / registry.
    let (mut plain, mut with_registry) = (Vec::new(), Vec::new());
    let mut repeats = true;
    for _ in 0..2 {
        let t = Instant::now();
        let r = tr.span("traffic.analysis_pass", || {
            artifacts.analysis_pass(week, &excluded)
        });
        plain.push(ms_since(t));
        repeats &= report_key(&r, excluded.len()) == key;
        iotmap_obs::install(Rc::new(Registry::new()));
        let t = Instant::now();
        let r = tr.span("traffic.analysis_pass", || {
            artifacts.analysis_pass(week, &excluded)
        });
        with_registry.push(ms_since(t));
        iotmap_obs::uninstall();
        repeats &= report_key(&r, excluded.len()) == key;
    }

    let ok = b.check(
        "CountingFold saw every exported flow",
        totals.records == stats.flows_exported,
    ) & b.check(
        "analysis_pass repeats the fold + into_report result",
        repeats,
    ) & b.expect("netflow.flows_generated", stats.flows_generated)
        & b.expect("isp.flows_both_passes", 2 * stats.flows_exported)
        & b.expect("traffic.fold_flows", day_flows)
        & expect_report(b, key);
    b.op(ok);

    let gen_ms = span_ms(b, "netflow.generate_route");
    b.metric(
        "netflow.generate_route_ns_per_flow",
        gen_ms * 1e6 / stats.flows_generated as f64,
    );
    b.metric("netflow.flows_generated", stats.flows_generated as f64);
    b.metric("netflow.flows_exported", stats.flows_exported as f64);
    let n = day_flows as f64;
    b.metric(
        "traffic.contact_fold_ns_per_flow",
        span_ms(b, "traffic.contact_fold") * 1e6 / n,
    );
    b.metric(
        "traffic.analysis_fold_ns_per_flow",
        span_ms(b, "traffic.analysis_fold") * 1e6 / n,
    );
    b.metric("traffic.fold_flows", n);
    b.metric(
        "traffic.scanner_exclusion_ms",
        span_ms(b, "traffic.scanner_exclusion"),
    );
    b.metric("traffic.excluded_lines", key.2 as f64);
    b.metric("traffic.into_report_ms", span_ms(b, "traffic.into_report"));
    b.metric(
        "obs.registry_overhead_pct",
        (median(&with_registry) / median(&plain) - 1.0) * 100.0,
    );
    key
}

/// Alternate the workload's operation untraced and traced (inside a
/// `bench.op` span) for half the run's seconds, at least twice each;
/// reports the traced-minus-untraced median as the tracing overhead.
fn overhead_loop(b: &mut Bench, op: impl Fn(&Bench) -> bool) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let half = b.seconds / 2.0;
    while plain.len() < 2 || start.elapsed().as_secs_f64() < half {
        let tracer = std::mem::replace(&mut b.tracer, crate::trace::Tracer::new(false));
        let t = Instant::now();
        let ok = op(b);
        plain.push(ms_since(t));
        b.tracer = tracer;
        b.op(ok);
        let t = Instant::now();
        let ok = b.tracer.span("bench.op", || op(b));
        traced.push(ms_since(t));
        b.op(ok);
    }
    b.metric(
        "bench.trace_overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
    );
}

/// The traced `rolled()` bootstrap, then one traced episode of day
/// deltas.
fn delta_layers(b: &mut Bench, mut prepared: PreparedWorld) -> Result<Episode, Error> {
    b.tracer
        .span("iotmap.bootstrap", || prepared.rolled().map(|_| ()))?;
    let ep = roll_episode(b, prepared)?;
    let records: u64 = ep.day_records.iter().sum();
    let ok = ep.day_ok.iter().all(|&ok| ok)
        & b.expect("monitor.scan_records", records)
        & b.expect("monitor.digest", digest(&ep.dump));
    b.op(ok);
    let advance_ns: Vec<f64> = b
        .tracer
        .durations_ms("iotmap.advance")
        .iter()
        .zip(&ep.day_records)
        .map(|(ms, &n)| ms * 1e6 / n as f64)
        .collect();
    b.metric("delta.next_day_ms", span_ms(b, "delta.next_day"));
    b.metric("delta.scan_records", records as f64);
    b.metric("iotmap.advance_ms", span_ms(b, "iotmap.advance"));
    b.metric("iotmap.advance_ns_per_record", median(&advance_ns));
    b.metric("iotmap.bootstrap_ms", span_ms(b, "iotmap.bootstrap"));
    Ok(ep)
}
