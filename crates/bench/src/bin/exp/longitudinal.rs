//! `exp longitudinal`: roll one prepared world forward day by day and
//! check every rolled state against a from-scratch run.

use super::{append_history, pipeline_failed, write_report, Cli};
use iotmap_bench::record::{self, Value};
use iotmap_nettypes::Date;

/// `exp longitudinal` — the paper's study as an incremental run: prepare
/// the world once, then roll the artifacts forward one day at a time via
/// `PreparedWorld::advance`, checking every rolled state byte-identical
/// to a from-scratch re-run over the merged corpus and recording how much
/// cheaper the incremental path is. Any divergence exits 1. Writes
/// `BENCH_longitudinal.json` plus a tagged perf-history line; `--gate`
/// additionally demands the mean per-day incremental cost stays below 25%
/// of a full re-run and has not regressed >25% vs the last comparable
/// history entry.
pub fn run_longitudinal(cli: &Cli) {
    let (opts, config) = (&cli.opts, &cli.config);
    eprintln!(
        "# longitudinal: preparing world (seed {}, preset {}, faults {}, {} days)…",
        config.seed, opts.preset, opts.faults, opts.days
    );
    let mut prepared = opts
        .pipeline(config, cli.faults.clone())
        .prepare()
        .unwrap_or_else(|e| pipeline_failed(opts, e));

    // Bootstrap the rolled run before the day loop, so each day's timing
    // measures `advance`, not the initial full execution.
    let t0 = std::time::Instant::now();
    if let Err(e) = prepared.rolled() {
        pipeline_failed(opts, e);
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

    let per_day = rows.iter().enumerate().map(|(i, r)| {
        Value::object([
            ("day", (i + 1).into()),
            ("date", r.date.to_string().into()),
            ("scan_records", r.scan_records.into()),
            ("certificates", r.certificates.into()),
            ("pdns_rows_revealed", r.pdns_rows.into()),
            ("discovered_ips", r.discovered_ips.into()),
            ("incremental_ms", Value::fixed(r.incremental_ms, 3)),
            ("full_ms", Value::fixed(r.full_ms, 3)),
            ("ratio", Value::fixed(r.incremental_ms / r.full_ms, 4)),
        ])
    });
    let report = record::report(
        "iotmap-bench/longitudinal-v1",
        opts,
        vec![
            ("days", opts.days.into()),
            ("bootstrap_ms", Value::fixed(bootstrap_ms, 1)),
            ("per_day", Value::Arr(per_day.collect())),
            (
                "incremental_total_ms",
                Value::fixed(incremental_total_ms, 3),
            ),
            ("full_total_ms", Value::fixed(full_total_ms, 3)),
            ("ratio", Value::fixed(ratio, 4)),
        ],
    );
    write_report(opts, "BENCH_longitudinal.json", &report);

    // Perf history: same file as bench, tagged so the two modes only ever
    // compare against their own entries.
    let entry = record::history_entry(
        &opts.experiment,
        opts,
        vec![
            ("days", opts.days.into()),
            ("bootstrap_ms", Value::fixed(bootstrap_ms, 1)),
            ("incremental_ms", Value::fixed(incremental_total_ms, 3)),
            ("full_ms", Value::fixed(full_total_ms, 3)),
            ("ratio", Value::fixed(ratio, 4)),
        ],
    );
    let (history, comparable) = append_history(opts, &entry);

    if opts.gate {
        // The tentpole's cost contract: rolling a day forward must cost
        // less than a quarter of re-running the merged corpus.
        if record::cost_gate_fails(ratio) {
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
                history.display()
            ),
            Some(prev) => {
                if let Some(r) = record::incremental_regression(&prev, incremental_total_ms) {
                    eprintln!("# longitudinal: REGRESSION — {r}");
                    std::process::exit(1);
                }
                println!(
                    "  history gate         : ok (vs entry at git {})",
                    record::entry_git(&prev)
                );
            }
        }
        println!(
            "  cost gate            : ok ({:.1}% of a full re-run, floor 25%)",
            ratio * 100.0
        );
    }
}
