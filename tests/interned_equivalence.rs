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
    let serial = ContactFold::new(&artifacts.index).fold_all(&flows);
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
