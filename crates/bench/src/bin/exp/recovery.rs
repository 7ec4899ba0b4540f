//! `exp crash-recovery`: kill the pipeline after every stage, resume from
//! its checkpoints, and demand byte-identical artifacts.

use super::Cli;
use iotmap_faults::FaultPlan;
use std::path::Path;

/// The crash-recovery drill: for every stage boundary, run the pipeline
/// with the supervisor's kill switch armed after that stage (checkpointing
/// into a scratch run directory), resume from the checkpoints, and demand
/// the resumed artifacts are byte-identical to an uninterrupted run. A
/// final chaos pass injects seeded stage and shard crashes (no
/// checkpoints) and demands the retries converge to the same bytes.
/// Any divergence, failed resume, or unfired kill switch exits 1.
pub fn run_crash_recovery(cli: &Cli) {
    let (opts, config, faults) = (&cli.opts, &cli.config, &cli.faults);
    if faults.crash.is_active() {
        eprintln!(
            "# crash-recovery: note — the plan's own crash settings are overridden per scenario"
        );
    }
    let run = |plan: FaultPlan, dir: Option<&Path>, resume: bool| {
        let p = opts.pipeline(config, plan);
        match dir {
            Some(dir) if resume => p.resume(dir),
            Some(dir) => p.checkpoints(dir),
            None => p,
        }
        .run()
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
        |d| Path::new(d).join(&opts.experiment),
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
