//! `iotbench` — the iotmap benchmark.
//!
//! ```text
//! cargo run --release --manifest-path iotbench/Cargo.toml -- \
//!     --workload discover|isp-week|monitor --seed N --seconds S --trace 0|1 \
//!     [--preset small|paper] [--expect KEY=VALUE]...
//! cargo run --release --manifest-path iotbench/Cargo.toml -- --describe
//! ```
//!
//! A run generates its world from `--seed`, sets the workload up, then
//! repeats the workload's timed operation for `--seconds`, checking every
//! output. The last line of stdout is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` a traced run times each layer's
//! public calls and reports the per-layer ones, and writes its spans to
//! `.bench_trace/<workload>-<seed>.json`. `spec.json` (from
//! `--describe`) lists every workload and metric.
//!
//! Expected outputs for known `(preset, seed)` pairs live in
//! `expected.tsv`; `--expect KEY=VALUE` overrides one (the self-test uses
//! it to show a wrong value is caught). For other seeds, `discover` and
//! `isp-week` compare against a one-thread run made outside the timed
//! phase; `monitor` always compares its rolled artifacts against a
//! from-scratch execute. A mismatch fails the operations it belongs to;
//! it never aborts the run.

mod spec;
mod trace;
mod work;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use iotmap::world::WorldConfig;

const EXPECTED: &str = include_str!("../expected.tsv");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    preset: &'static str,
    expect: Vec<(String, String)>,
}

const USAGE: &str = "usage: iotbench --workload discover|isp-week|monitor --seed N --seconds S \
                     --trace 0|1 [--preset small|paper] [--expect KEY=VALUE]... | --describe";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut preset = spec::PRESET;
    let mut expect = Vec::new();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            // `small` is for the self-test; the benchmark runs `paper`.
            "--preset" => {
                preset = match value()?.as_str() {
                    "small" => "small",
                    "paper" => "paper",
                    other => return Err(format!("unknown preset {other:?}")),
                }
            }
            "--expect" => {
                let kv = value()?;
                let (k, v) = kv.split_once('=').ok_or("--expect takes KEY=VALUE")?;
                expect.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        preset,
        expect,
    })
}

/// One run's state: configuration, tracer, expectations, the operation
/// tally, and the metrics to print.
pub struct Bench {
    pub cfg: WorldConfig,
    pub preset: &'static str,
    pub seconds: f64,
    pub tracer: trace::Tracer,
    expected: HashMap<String, String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Bench {
    /// Count one operation; `ok` is false when it returned an error or
    /// failed its output check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Mark every operation so far failed: an oracle found their shared
    /// output wrong.
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
    }

    /// Compare an observed output against the recorded value for this
    /// preset and seed. Unrecorded keys pass (the observation is logged
    /// so it can be recorded).
    pub fn expect(&self, key: &str, observed: impl std::fmt::Display) -> bool {
        let observed = observed.to_string();
        match self.expected.get(key) {
            Some(want) if *want == observed => true,
            Some(want) => {
                eprintln!("# CHECK FAILED: {key} = {observed}, expected {want}");
                false
            }
            None => {
                eprintln!(
                    "# observed (unrecorded): {} {} {key} {observed}",
                    self.preset, self.cfg.seed
                );
                true
            }
        }
    }

    pub fn is_recorded(&self, key: &str) -> bool {
        self.expected.contains_key(key)
    }

    /// Log a failed internal consistency check; returns `ok`.
    pub fn check(&self, what: &str, ok: bool) -> bool {
        if !ok {
            eprintln!("# CHECK FAILED: {what}");
        }
        ok
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn deadline_passed(&self, since: Instant) -> bool {
        since.elapsed().as_secs_f64() >= self.seconds
    }
}

fn load_expected(
    preset: &str,
    seed: u64,
    overrides: &[(String, String)],
) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for line in EXPECTED.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() == 4 && f[0] == preset && f[1].parse() == Ok(seed) {
            out.insert(f[2].to_string(), f[3].to_string());
        }
    }
    for (k, v) in overrides {
        out.insert(k.clone(), v.clone());
    }
    out
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over a byte string: the digest `expected.tsv` records for
/// `canonical_dump()` outputs.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--describe"] {
        print!("{}", spec::describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(raw.into_iter()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = match args.preset {
        "small" => WorldConfig::small(args.seed),
        _ => WorldConfig::paper(args.seed),
    };
    // No world cache and no thread override from the environment: every
    // run prepares from scratch at the requested thread count.
    std::env::remove_var("IOTMAP_CACHE");
    std::env::remove_var("IOTMAP_THREADS");
    iotmap::par::set_threads(spec::THREADS);
    eprintln!(
        "# iotbench: workload {} seed {} preset {} threads {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.preset,
        spec::THREADS,
        args.seconds,
        args.trace as u8
    );
    let mut bench = Bench {
        expected: load_expected(args.preset, args.seed, &args.expect),
        cfg,
        preset: args.preset,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("discover", false) => work::discover(&mut bench),
        ("isp-week", false) => work::isp_week(&mut bench),
        ("monitor", false) => work::monitor(&mut bench),
        (workload, true) => work::traced(&mut bench, workload),
        _ => unreachable!("workload names are validated in parse_args"),
    };
    if let Err(e) = outcome {
        eprintln!("# iotbench: setup failed: {e}");
        return ExitCode::from(1);
    }
    if !args.trace {
        let rss = iotmap_obs::peak_rss_bytes().unwrap_or(0);
        bench.metric("peak_rss_mib", rss as f64 / (1024.0 * 1024.0));
    } else {
        let path = format!(".bench_trace/{}-{}.json", args.workload, args.seed);
        let json = bench.tracer.to_json(&[
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("preset", args.preset.to_string()),
        ]);
        match std::fs::create_dir_all(".bench_trace").and_then(|_| std::fs::write(&path, json)) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
        eprintln!("# self time per span (ms): calls  total  self  name");
        for (name, t) in bench.tracer.layer_totals() {
            eprintln!(
                "#   {:>4} {:>10.1} {:>10.1}  {name}",
                t.calls, t.total_ms, t.self_ms
            );
        }
    }
    match result_line(&bench, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("# iotbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The final JSON line, after checking that this mode's metrics were
/// measured exactly once each, are finite, and are the only ones.
fn result_line(bench: &Bench, traced: bool) -> Result<String, String> {
    let required = spec::required(traced);
    if let Some((name, _)) = bench.metrics.iter().find(|(m, _)| !required.contains(m)) {
        return Err(format!("metric {name} is not in the spec"));
    }
    for name in &required {
        let n = bench.metrics.iter().filter(|(m, _)| m == name).count();
        if n != 1 {
            return Err(format!("metric {name} measured {n} times"));
        }
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        bench.failed == 0 && bench.attempted > 0,
        bench.attempted,
        bench.failed
    );
    for (i, name) in required.iter().enumerate() {
        let (_, value) = bench
            .metrics
            .iter()
            .find(|(m, _)| m == name)
            .expect("checked above");
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let unit = spec::unit_of(name, traced).expect("required names come from the spec");
        eprintln!("# {name:<36} {value:>16.4} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload isp-week --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("isp-week", 7, true)
        );
        assert_eq!(a.preset, "paper");
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload discover --seed 1 --seconds 1").is_err());
        assert!(args("--workload discover --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload discover --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload discover --seed 1 --seconds 1 --trace 0 --bogus").is_err());
        assert!(args("--workload discover --seed 1 --seconds 1 --trace 0 --preset x").is_err());
    }

    #[test]
    fn median_and_digest() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}
