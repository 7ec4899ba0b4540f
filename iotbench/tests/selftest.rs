//! Fast self-test of the benchmark on the `small` preset:
//!
//! ```text
//! cargo test --release --manifest-path iotbench/Cargo.toml
//! ```
//!
//! Every workload, untraced and traced, must print every metric of its
//! mode with the spec's unit and fail nothing; item counts must agree
//! across runs of one seed; a wrong expected value must fail the run's
//! operations without aborting it; and `spec.json` must match
//! `--describe`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["discover", "isp-week", "monitor"];

struct Outcome {
    code: i32,
    last_line: String,
}

fn run(args: &[&str]) -> Outcome {
    // Traced runs write `.bench_trace/` into their working directory.
    let workdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&workdir).expect("create the self-test working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_iotbench"))
        .args(args)
        .current_dir(&workdir)
        .output()
        .expect("run iotbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    Outcome {
        code: out.status.code().unwrap_or(-1),
        last_line: stdout.lines().last().unwrap_or("").to_string(),
    }
}

fn small(workload: &str, trace: &str, extra: &[&str]) -> Outcome {
    small_seed(workload, "42", trace, extra)
}

fn small_seed(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Outcome {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--preset",
        "small",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

/// The bare scalar (number or boolean) after `"key": ` in a result line.
fn field(line: &str, key: &str) -> String {
    let pat = format!("\"{key}\": ");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '-')
        .collect()
}

/// `(value, unit)` of one metric in a result line.
fn metric(line: &str, name: &str) -> Option<(f64, String)> {
    let pat = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let value = rest[..rest.find(',')?].parse().ok()?;
    let unit_at = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
    let unit = rest[unit_at..].split('"').next()?.to_string();
    Some((value, unit))
}

/// `(name, unit)` of every metric in one section of `spec.json`.
fn spec_metrics(spec: &str, section: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{section}\": ["))
        .expect("section in spec");
    let body = &spec[start..];
    let body = &body[..body.find("\n  ]").expect("section end")];
    body.lines()
        .filter_map(|l| {
            let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
            let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

fn spec() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/spec.json")).expect("spec.json")
}

#[test]
fn spec_json_matches_describe() {
    let out = Command::new(env!("CARGO_BIN_EXE_iotbench"))
        .arg("--describe")
        .output()
        .expect("run --describe");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        spec(),
        "regenerate spec.json with --describe"
    );
}

#[test]
fn benchmark_json_names_the_spec_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(bench) = std::fs::read_to_string(path) else {
        return;
    };
    let spec = spec();
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in spec_metrics(&spec, section) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    for w in WORKLOADS {
        assert!(
            bench.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks {w}"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_and_fails_nothing() {
    let spec = spec();
    let mut counts: Vec<Vec<(String, f64)>> = Vec::new();
    for w in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = small(w, trace, &[]);
            let line = &out.last_line;
            assert_eq!(out.code, 0, "{w} trace {trace}: exit code");
            assert_eq!(field(line, "correct"), "true", "{w} trace {trace}: {line}");
            assert_eq!(
                field(line, "failed"),
                "0",
                "{w} trace {trace}: fail ratio must be 0"
            );
            assert!(field(line, "attempted").parse::<u64>().unwrap() > 0);
            let mut run_counts = Vec::new();
            for (name, unit) in spec_metrics(&spec, section) {
                let (value, got_unit) = metric(line, &name)
                    .unwrap_or_else(|| panic!("{w} trace {trace}: metric {name} missing"));
                assert_eq!(got_unit, unit, "{w}: unit of {name}");
                assert!(value.is_finite(), "{w}: {name} = {value}");
                if unit == "count" {
                    run_counts.push((name, value));
                }
            }
            if trace == "1" {
                counts.push(run_counts);
            }
        }
    }
    // Each traced run measures every layer on the same seed's world: the
    // item counts must repeat exactly.
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts differ: {counts:?}"
    );
}

#[test]
fn output_checks_fire_on_a_wrong_expected_value() {
    for (w, wrong) in [
        ("discover", "discover.digest=0000000000000000"),
        ("isp-week", "isp.total_lines=1"),
        ("monitor", "monitor.digest=0000000000000000"),
    ] {
        let out = small(w, "0", &["--expect", wrong]);
        let line = &out.last_line;
        assert_eq!(out.code, 0, "{w}: a failed check must not abort the run");
        assert_eq!(field(line, "correct"), "false", "{w}: {line}");
        let attempted: u64 = field(line, "attempted").parse().unwrap();
        let failed: u64 = field(line, "failed").parse().unwrap();
        assert!(
            attempted > 0 && failed == attempted,
            "{w}: {failed}/{attempted} failed"
        );
    }
}

#[test]
fn unrecorded_seeds_pass_their_oracles() {
    // `expected.tsv` has no small-preset rows for seed 7: the serial and
    // from-scratch oracles carry the checks.
    for w in WORKLOADS {
        let out = small_seed(w, "7", "0", &[]);
        assert_eq!(out.code, 0, "{w}");
        assert_eq!(
            field(&out.last_line, "correct"),
            "true",
            "{w}: {}",
            out.last_line
        );
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "discover", "--seed", "1"][..],
        &[
            "--workload",
            "discover",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--x",
        ][..],
    ] {
        let out = run(args);
        assert_eq!(out.code, 2, "{args:?}");
        assert!(
            out.last_line.is_empty(),
            "{args:?} printed {}",
            out.last_line
        );
    }
}
