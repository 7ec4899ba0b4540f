//! The 100×-scale tentpole's correctness contract: the interned-ID +
//! streaming-fold pipeline must stay **byte-identical** — by
//! `canonical_dump()` — across thread counts and fault plans, and the
//! sharded traffic passes must equal a serial fold of the exported flow
//! sequence.
//!
//! Matrix: small preset × threads {1, 4} × faults {none, heavy}, plus a
//! `#[ignore]`d paper-preset variant at threads {1, 2, 4, 8} for the
//! full acceptance sweep.

use iotmap::faults::FaultPlan;
use iotmap::netflow::{FlowFold, StoringSink};
use iotmap::prelude::*;
use iotmap::traffic::{AnalysisFold, ContactFold};
use iotmap::world::TrafficSimulator;

fn dump(config: &WorldConfig, faults: &FaultPlan, threads: usize) -> Vec<u8> {
    Pipeline::new(config.clone())
        .faults(faults.clone())
        .threads(threads)
        .run()
        .expect("pipeline")
        .canonical_dump()
}

#[test]
fn small_dump_is_thread_invariant_under_faults() {
    let config = WorldConfig::small(42);
    for faults in [FaultPlan::none(), FaultPlan::heavy()] {
        let serial = dump(&config, &faults, 1);
        let parallel = dump(&config, &faults, 4);
        assert_eq!(
            serial, parallel,
            "interned/streaming pipeline diverges at threads=4 (faults {faults:?})"
        );
    }
}

#[test]
fn traffic_folds_match_the_serial_sinks() {
    let artifacts = Pipeline::new(WorldConfig::small(42))
        .run()
        .expect("pipeline");
    let period = artifacts.world.config.study_period;
    let sim = TrafficSimulator::with_faults(
        &artifacts.world,
        artifacts.faults.seed,
        artifacts.faults.netflow.clone(),
    );

    // The serial reference: the whole exported sequence, in order,
    // folded into one partial on one thread.
    let mut store = StoringSink::new();
    sim.run(period, &mut store);
    let flows = store.records;

    // Contact pass: the sharded facade pass against the serial fold.
    let folded = iotmap::par::with_threads(4, || artifacts.contact_pass(period));
    let contact_fold = ContactFold::new(&artifacts.index);
    let serial = contact_fold.into_contacts(contact_fold.fold_all(&flows));
    assert_eq!(
        folded, serial,
        "sharded contact pass diverges from the serial fold"
    );

    // Analysis pass: report equality (AnalysisReport: PartialEq).
    let excluded = artifacts.excluded_lines(&folded);
    let folded_report = iotmap::par::with_threads(4, || artifacts.analysis_pass(period, &excluded));
    let fold = AnalysisFold::new(&artifacts.index, &excluded, period);
    assert_eq!(
        folded_report,
        fold.into_report(fold.fold_all(&flows)),
        "sharded analysis pass diverges from the serial fold"
    );
}

/// The folds count their flows in the partials and flush once per pass,
/// so the metrics must be the per-flow values — independent of how the
/// stream was sharded — and the flow-generation span must carry the
/// pass's flow, device-day and session counts and its per-layer times.
#[test]
fn fold_metrics_are_per_flow_values_at_any_thread_count() {
    let artifacts = Pipeline::new(WorldConfig::small(42))
        .run()
        .expect("pipeline");
    let period = artifacts.world.config.study_period;
    let run = |threads| {
        iotmap::par::with_threads(threads, || {
            let registry = std::rc::Rc::new(Registry::new());
            iotmap_obs::install(registry.clone());
            let contacts = artifacts.contact_pass(period);
            let excluded = artifacts.excluded_lines(&contacts);
            artifacts.analysis_pass(period, &excluded);
            iotmap_obs::uninstall();
            (registry.report(), excluded)
        })
    };
    let (serial, excluded) = run(1);
    let (sharded, _) = run(4);

    // The per-flow oracle: the exported stream, filtered the way each
    // fold filters it.
    let sim = TrafficSimulator::with_faults(
        &artifacts.world,
        artifacts.faults.seed,
        artifacts.faults.netflow.clone(),
    );
    let mut store = StoringSink::new();
    sim.run(period, &mut store);
    let matched: Vec<_> = store
        .records
        .iter()
        .filter(|r| artifacts.index.get(r.remote).is_some())
        .collect();
    let analyzed: Vec<u64> = matched
        .iter()
        .filter(|r| !excluded.contains(&r.line))
        .map(|r| r.bytes)
        .collect();

    for report in [&serial, &sharded] {
        assert_eq!(
            report.counters["traffic.contact.flows_matched"],
            matched.len() as u64
        );
        assert_eq!(
            report.counters["traffic.analysis.flows_analyzed"],
            analyzed.len() as u64
        );
        let hist = &report.histograms["traffic.analysis.flow_bytes"];
        assert_eq!(
            hist.count,
            report.counters["traffic.analysis.flows_analyzed"]
        );
        assert_eq!(hist.sum, analyzed.iter().sum::<u64>());
        assert_eq!(hist.min, *analyzed.iter().min().expect("flows analyzed"));
        assert_eq!(hist.max, *analyzed.iter().max().expect("flows analyzed"));

        // One flow-generation span per pass, annotated with its counts.
        let exported = report.counters["netflow.flows_exported"];
        for pass in ["traffic.contact_pass", "traffic.analysis_pass"] {
            let span = report.find_span(pass).expect("pass span");
            let flows = span.find_span("netflow.flow_generation").expect(pass);
            assert_eq!(
                flows.meta_value("flows_exported"),
                Some(exported / 2),
                "{pass}"
            );
            assert_eq!(
                flows.meta_value("flows_generated"),
                Some(report.counters["netflow.flows_generated"] / 2),
                "{pass}"
            );
            assert_eq!(
                flows.meta_value("device_days"),
                Some(report.counters["world.device_days"] / 2),
                "{pass}"
            );
            assert!(
                flows.meta_value("sessions").is_some_and(|s| s > 0),
                "{pass}"
            );
            // Per-layer wall time, summed over the pass's blocks.
            for layer in ["generate_ns", "route_ns", "fold_ns", "merge_ns"] {
                let ns = flows.meta_value(layer);
                assert!(ns.is_some_and(|ns| ns > 0), "{pass}: {layer} = {ns:?}");
            }
        }
    }
    // Device-days and sessions are per-pass counts, not per-shard ones.
    for pass in ["traffic.contact_pass", "traffic.analysis_pass"] {
        let meta = |report: &RunReport, key| {
            let span = report.find_span(pass).expect("pass span");
            span.find_span("netflow.flow_generation")
                .expect(pass)
                .meta_value(key)
        };
        for key in ["device_days", "sessions"] {
            assert_eq!(meta(&serial, key), meta(&sharded, key), "{pass}: {key}");
        }
    }
    // Buckets, count, sum, min and max all agree across thread counts.
    assert_eq!(
        serial.histograms["traffic.analysis.flow_bytes"],
        sharded.histograms["traffic.analysis.flow_bytes"]
    );
}

#[test]
fn scaled_analysis_at_one_replica_matches_the_plain_pass() {
    let artifacts = Pipeline::new(WorldConfig::small(42))
        .run()
        .expect("pipeline");
    let period = artifacts.world.config.study_period;
    let contacts = artifacts.contact_pass(period);
    let excluded = artifacts.excluded_lines(&contacts);
    assert_eq!(
        artifacts.scaled_analysis_pass(period, 1, &excluded),
        artifacts.analysis_pass(period, &excluded),
        "replicas=1 must be byte-identical to the unreplicated pass"
    );
}

/// The full acceptance sweep: paper preset, threads 1/2/4/8. Run with
/// `cargo test --release -- --ignored interned_paper` (minutes).
#[test]
#[ignore = "paper preset: minutes of wall clock; run explicitly"]
fn interned_paper_dump_is_thread_invariant() {
    let config = WorldConfig::paper(42);
    let faults = FaultPlan::none();
    let serial = dump(&config, &faults, 1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            dump(&config, &faults, threads),
            "paper preset diverges at threads={threads}"
        );
    }
}
