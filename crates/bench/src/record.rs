//! Bench records: the JSON reports `exp bench`, `exp longitudinal` and
//! `exp scenario` write (`pipeline-v4`, `longitudinal-v1`,
//! `scenarios-v1`), and the `history-v1` perf-history lines they append
//! and gate on. Strings are escaped with [`iotmap_obs::json_escape`] on
//! the way out and unescaped by [`Value::parse`] on the way back in.

use crate::CliOptions;
use std::path::{Path, PathBuf};

/// Both history gates fail a tracked time more than 25% above the
/// previous comparable entry's.
const REGRESSION_RATIO: f64 = 1.25;

/// Per-stage bench times below this in the previous entry are not gated:
/// sub-10 ms stages jitter past any ratio threshold.
const STAGE_FLOOR_MS: f64 = 10.0;

/// A JSON value. Objects keep their key order, and numbers are held as
/// their literal text, so a `u64` seed compares exactly and each timing
/// keeps the decimals it was written with.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::$variant(x.to_string())
            }
        }
    )*};
}
value_from!(&str => Str, String => Str, u64 => Num, usize => Num, i64 => Num);

/// How [`Value::write`] lays out a container.
#[derive(Clone, Copy)]
enum Layout {
    /// No whitespace: a history line.
    Compact,
    /// One line with `", "` / `": "` separators: a row inside an array.
    Inline,
    /// One field per line, indented two spaces per depth.
    Pretty(usize),
}

impl Value {
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `x` with exactly `decimals` fractional digits; `null` when not
    /// finite, which JSON cannot hold.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        match x.is_finite() {
            true => Value::Num(format!("{x:.decimals$}")),
            false => Value::Null,
        }
    }

    /// `(name, ms)` pairs as an object of [`Value::fixed`] numbers.
    pub fn fixed_map(pairs: &[(String, f64)], decimals: usize) -> Value {
        Value::object(
            pairs
                .iter()
                .map(|(k, v)| (k.as_str(), Value::fixed(*v, decimals))),
        )
    }

    /// The first field named `key`, if this is an object that has one.
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The report-file form: nested objects one field per line, each row
    /// of an array on one line, `"key": value` separators.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Pretty(0));
        out + "\n"
    }

    /// The history-line form: one line, no whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Compact);
        out
    }

    fn write(&self, out: &mut String, layout: Layout) {
        let (open, close, items): (char, char, Vec<(Option<&String>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => return out.push_str(n),
            Value::Str(s) => return write_str(out, s),
            Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let (sep, colon, child, depth) = match layout {
            Layout::Compact => (",", ":", Layout::Compact, None),
            Layout::Inline => (", ", ": ", Layout::Inline, None),
            Layout::Pretty(d) if open == '[' => (",", ": ", Layout::Inline, Some(d)),
            Layout::Pretty(d) => (",", ": ", Layout::Pretty(d + 1), Some(d)),
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i > 0 { sep } else { "" });
            if let Some(d) = depth {
                out.push_str(&format!("\n{}", "  ".repeat(d + 1)));
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(colon);
            }
            value.write(out, child);
        }
        if let (Some(d), false) = (depth, items.is_empty()) {
            out.push_str(&format!("\n{}", "  ".repeat(d)));
        }
        out.push(close);
    }

    /// Parse one JSON document: a report file or one history line.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut rest = text;
        let value = parse_value(&mut rest)?;
        match rest.trim_start() {
            "" => Ok(value),
            tail => Err(format!("trailing input at {tail:.20}")),
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push_str(&format!("\"{}\"", iotmap_obs::json_escape(s)));
}

/// Consume `c`, after any whitespace, from the front of `s` if it is there.
fn eat(s: &mut &str, c: char) -> bool {
    let t = s.trim_start();
    *s = t.strip_prefix(c).unwrap_or(t);
    s.len() < t.len()
}

fn parse_value(s: &mut &str) -> Result<Value, String> {
    *s = s.trim_start();
    for (word, value) in [
        ("true", Value::Bool(true)),
        ("false", Value::Bool(false)),
        ("null", Value::Null),
    ] {
        if let Some(rest) = s.strip_prefix(word) {
            *s = rest;
            return Ok(value);
        }
    }
    if s.starts_with('"') {
        return parse_str(s).map(Value::Str);
    }
    if eat(s, '[') {
        let mut items = Vec::new();
        while !eat(s, ']') {
            if !items.is_empty() && !eat(s, ',') {
                return Err(format!("expected ',' or ']' at {s:.20}"));
            }
            items.push(parse_value(s)?);
        }
        return Ok(Value::Arr(items));
    }
    if eat(s, '{') {
        let mut fields = Vec::new();
        while !eat(s, '}') {
            if !fields.is_empty() && !eat(s, ',') {
                return Err(format!("expected ',' or '}}' at {s:.20}"));
            }
            *s = s.trim_start();
            let key = parse_str(s)?;
            if !eat(s, ':') {
                return Err(format!("expected ':' at {s:.20}"));
            }
            fields.push((key, parse_value(s)?));
        }
        return Ok(Value::Obj(fields));
    }
    let len = s
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(s.len());
    let (num, rest) = s.split_at(len);
    num.parse::<f64>()
        .map_err(|_| format!("unexpected input at {s:.20}"))?;
    *s = rest;
    Ok(Value::Num(num.to_string()))
}

fn parse_str(s: &mut &str) -> Result<String, String> {
    let mut chars = s.strip_prefix('"').ok_or("expected a string")?.chars();
    let mut out = String::new();
    loop {
        match chars.next().ok_or("unterminated string")? {
            '"' => break,
            '\\' => out.push(match chars.next().ok_or("unterminated string")? {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    u32::from_str_radix(&hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or("bad \\u escape")?
                }
                c @ ('"' | '\\') => c,
                c => return Err(format!("bad escape \\{c}")),
            }),
            c => out.push(c),
        }
    }
    *s = chars.as_str();
    Ok(out)
}

// ------------------------------------------------------ records on disk

/// Where a report file goes: under `--out`, else the working directory.
pub fn out_path(opts: &CliOptions, file: &str) -> PathBuf {
    match &opts.out_dir {
        Some(dir) => Path::new(dir).join(file),
        None => PathBuf::from(file),
    }
}

/// The perf-history file: `--history`, else `BENCH_history.jsonl` next
/// to the reports.
pub fn history_path(opts: &CliOptions) -> PathBuf {
    match &opts.history {
        Some(file) => PathBuf::from(file),
        None => out_path(opts, "BENCH_history.jsonl"),
    }
}

/// The run configuration every record carries after its header.
fn config(opts: &CliOptions) -> [(&'static str, Value); 4] {
    [
        ("preset", opts.preset.as_str().into()),
        ("seed", opts.seed.into()),
        ("threads", opts.threads.into()),
        ("faults", opts.faults.as_str().into()),
    ]
}

/// A report record: `schema`, the run configuration, then `fields`.
pub fn report(schema: &str, opts: &CliOptions, fields: Vec<(&str, Value)>) -> Value {
    Value::object(
        [("schema", schema.into())]
            .into_iter()
            .chain(config(opts))
            .chain(fields),
    )
}

/// A perf-history line for `experiment`: schema, experiment tag, wall
/// time, git revision, the run configuration, then `fields`. Bench lines
/// carry no tag: they predate it, and an untagged line reads as bench.
pub fn history_entry(experiment: &str, opts: &CliOptions, fields: Vec<(&str, Value)>) -> Value {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let tag = (experiment != "bench").then(|| ("experiment", experiment.into()));
    let stamp = [("unix_time", unix_time.into()), ("git", git_rev().into())];
    let head = [("schema", "iotmap-bench/history-v1".into())]
        .into_iter()
        .chain(tag);
    Value::object(head.chain(stamp).chain(config(opts)).chain(fields))
}

/// The working tree's abbreviated git revision.
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

/// Whether two history entries come from the same experiment and
/// configuration. A legacy line lacking a field reads as its old
/// default: no tag is a bench run, no `cache` ran uncached, no `scale`
/// ran at native size.
fn comparable(prev: &Value, current: &Value) -> bool {
    let field = |entry: &Value, key: &str| {
        entry.get(key).cloned().or(match key {
            "experiment" => Some("bench".into()),
            "cache" => Some("none".into()),
            "scale" => Some(1u64.into()),
            _ => None,
        })
    };
    [
        "experiment",
        "preset",
        "seed",
        "threads",
        "faults",
        "cache",
        "scale",
        "days",
    ]
    .iter()
    .all(|key| field(prev, key) == field(current, key))
}

/// The last entry of a history file's text comparable to `current`;
/// lines that do not parse are skipped.
pub fn last_comparable(history: &str, current: &Value) -> Option<Value> {
    history
        .lines()
        .rev()
        .filter_map(|line| Value::parse(line).ok())
        .find(|entry| comparable(entry, current))
}

/// Append `entry` as one line to the history file at `path`, returning
/// the last comparable entry before it. A missing file is empty history.
pub fn append_history(path: &Path, entry: &Value) -> std::io::Result<Option<Value>> {
    use std::io::Write;
    let comparable = last_comparable(&std::fs::read_to_string(path).unwrap_or_default(), entry);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)?;
    writeln!(file, "{}", entry.to_compact())?;
    Ok(comparable)
}

/// The git revision a history entry was recorded at.
pub fn entry_git(entry: &Value) -> &str {
    match entry.get("git") {
        Some(Value::Str(git)) => git,
        _ => "?",
    }
}

// ---------------------------------------------------------------- gates

/// The bench history gate: one message per tracked time more than 25%
/// above `prev`'s. `prepare_ms` and `engine_ms` are always tracked; a
/// prepare or discovery stage only at or above `prev`'s 10 ms floor.
pub fn bench_regressions(
    prev: &Value,
    prepare_ms: f64,
    engine_ms: f64,
    prepare_stages: &[(String, f64)],
    stages: &[(String, f64)],
) -> Vec<String> {
    let mut tracked = vec![
        (
            "prepare_ms".to_string(),
            prev.get("prepare_ms"),
            prepare_ms,
            0.0,
        ),
        (
            "engine_ms".to_string(),
            prev.get("engine_ms"),
            engine_ms,
            0.0,
        ),
    ];
    for (map, prefix, current) in [
        ("prepare_stages_ms", "prepare.", prepare_stages),
        ("stages_ms", "", stages),
    ] {
        for (name, cur) in current {
            let p = prev.get(map).and_then(|m| m.get(name));
            tracked.push((format!("{prefix}{name}"), p, *cur, STAGE_FLOOR_MS));
        }
    }
    tracked
        .into_iter()
        .filter_map(|(label, prev_ms, cur, floor)| {
            let p = prev_ms?.as_f64()?;
            (p >= floor && cur > p * REGRESSION_RATIO).then(|| {
                format!(
                    "{label}: {cur:.1} ms vs {p:.1} ms ({:+.0}%)",
                    (cur / p - 1.0) * 100.0
                )
            })
        })
        .collect()
}

/// The longitudinal cost gate: rolling a day forward must cost less than
/// a quarter of re-running the merged corpus.
pub fn cost_gate_fails(ratio: f64) -> bool {
    ratio >= 0.25
}

/// The longitudinal history gate: a message when the total incremental
/// time is more than 25% above `prev`'s.
pub fn incremental_regression(prev: &Value, incremental_ms: f64) -> Option<String> {
    let prev_ms = prev
        .get("incremental_ms")
        .and_then(Value::as_f64)
        .unwrap_or(f64::INFINITY);
    (incremental_ms > prev_ms * REGRESSION_RATIO).then(|| {
        format!(
            "incremental total {incremental_ms:.1} ms vs {prev_ms:.1} ms ({:+.0}%) at git {}",
            (incremental_ms / prev_ms - 1.0) * 100.0,
            entry_git(prev)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> CliOptions {
        CliOptions::parse(
            ["exp"]
                .iter()
                .chain(args)
                .map(|s| s.to_string())
                .chain(["--threads".to_string(), "1".to_string()]),
        )
        .unwrap()
    }

    fn bench_entry(opts: &CliOptions, cache: &str, scale: u64) -> Value {
        history_entry(
            "bench",
            opts,
            vec![("cache", cache.into()), ("scale", scale.into())],
        )
    }

    #[test]
    fn quoted_fault_path_round_trips_and_stays_comparable() {
        let path = r#"q"x\y.faults"#;
        let opts = opts(&["bench", "--faults", path]);
        let entry = bench_entry(&opts, "none", 1);
        let line = entry.to_compact();
        assert!(!line.contains('\n'), "one history line: {line}");
        let parsed = Value::parse(&line).unwrap();
        assert_eq!(parsed, entry);
        assert_eq!(parsed.get("faults"), Some(&path.into()));

        let history = format!("{line}\n");
        let found = last_comparable(&history, &bench_entry(&opts, "none", 1));
        assert_eq!(found.as_ref(), Some(&entry), "the gate must find its entry");
        assert!(last_comparable(&history, &bench_entry(&opts, "cold", 1)).is_none());
    }

    #[test]
    fn quoted_scenario_names_round_trip_through_the_pretty_writer() {
        let opts = opts(&["scenario"]);
        let row = Value::object([
            ("name", r#"cert"storm\x"#.into()),
            ("file", r#"dir\cert"storm.scn"#.into()),
            ("deterministic", Value::Bool(true)),
            ("run_ms", Value::fixed(12.34567, 3)),
            ("resilience", Value::Arr(vec![])),
        ]);
        let record = report(
            "iotmap-bench/scenarios-v1",
            &opts,
            vec![("scenarios", Value::Arr(vec![row]))],
        );
        let text = record.to_pretty();
        assert!(text.contains("\"run_ms\": 12.346"), "{text}");
        assert_eq!(Value::parse(&text).unwrap(), record);
    }

    #[test]
    fn pretty_layout_keeps_rows_on_one_line() {
        let record = Value::object([
            ("seed", 18446744073709551615u64.into()),
            ("stages_ms", Value::fixed_map(&[("a".to_string(), 1.0)], 3)),
            ("empty", Value::Obj(vec![])),
            (
                "per_day",
                Value::Arr(vec![Value::object([
                    ("day", 1usize.into()),
                    ("ratio", Value::fixed(0.5, 4)),
                ])]),
            ),
        ]);
        assert_eq!(
            record.to_pretty(),
            "{\n  \"seed\": 18446744073709551615,\n  \"stages_ms\": {\n    \"a\": 1.000\n  },\n  \
             \"empty\": {},\n  \"per_day\": [\n    {\"day\": 1, \"ratio\": 0.5000}\n  ]\n}\n"
        );
        assert_eq!(
            record.to_compact(),
            "{\"seed\":18446744073709551615,\"stages_ms\":{\"a\":1.000},\"empty\":{},\
             \"per_day\":[{\"day\":1,\"ratio\":0.5000}]}"
        );
        let parsed = Value::parse(&record.to_pretty()).unwrap();
        assert_eq!(
            parsed.get("seed"),
            Some(&u64::MAX.into()),
            "exact past 2^53"
        );
        assert_eq!(Value::fixed(f64::INFINITY, 3), Value::Null);
        for bad in [
            "{\"a\":1",
            "{\"a\" 1}",
            "[1,]",
            "\"open",
            "{} x",
            "inf",
            "\"\\q\"",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// The committed history mixes every legacy shape: lines without
    /// `cache`, `scale` or `experiment`, and lines still carrying the
    /// retired `fanout_ms`/`speedup` fields.
    #[test]
    fn committed_history_parses_and_resolves_legacy_defaults() {
        let history = include_str!("../../../BENCH_history.jsonl");
        for (i, line) in history.lines().enumerate() {
            let entry = Value::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
            assert_eq!(entry.get("schema"), Some(&"iotmap-bench/history-v1".into()));
        }
        let paper = opts(&["bench", "--preset", "paper", "--seed", "42"]);
        let git_of =
            |current: &Value| last_comparable(history, current).map(|e| entry_git(&e).to_string());
        // No cache tag and no scale on the matched line: both defaulted.
        assert_eq!(
            git_of(&bench_entry(&paper, "none", 1)).as_deref(),
            Some("fd380d0")
        );
        // A cache tag but no scale.
        assert_eq!(
            git_of(&bench_entry(&paper, "cold", 1)).as_deref(),
            Some("64fc1bc")
        );
        assert_eq!(
            git_of(&bench_entry(&paper, "warm", 16)).as_deref(),
            Some("1597082")
        );
        assert_eq!(git_of(&bench_entry(&paper, "none", 16)), None);
        let longitudinal =
            |days: u64| history_entry("longitudinal", &paper, vec![("days", days.into())]);
        assert_eq!(git_of(&longitudinal(7)).as_deref(), Some("9559402"));
        assert_eq!(git_of(&longitudinal(3)), None);
    }

    fn prev_bench() -> Value {
        Value::parse(
            r#"{"schema":"iotmap-bench/history-v1","git":"abc1234","prepare_ms":100.0,
                "engine_ms":5.000,"prepare_stages_ms":{"world":10.000,"index":5.000},
                "stages_ms":{"discovery.certificates":20.000,"discovery.ipv6_scan":5.000}}"#,
        )
        .unwrap()
    }

    fn stages(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn bench_gate_flags_prepare_and_engine_at_any_size() {
        let prev = prev_bench();
        let regressions = bench_regressions(&prev, 130.0, 6.5, &[], &[]);
        assert_eq!(
            regressions,
            [
                "prepare_ms: 130.0 ms vs 100.0 ms (+30%)",
                "engine_ms: 6.5 ms vs 5.0 ms (+30%)"
            ]
        );
    }

    #[test]
    fn bench_gate_flags_stages_only_above_the_noise_floor() {
        let prev = prev_bench();
        let prepare = stages(&[("world", 13.0), ("index", 6.5), ("new_stage", 99.0)]);
        let engine = stages(&[
            ("discovery.certificates", 26.0),
            ("discovery.ipv6_scan", 6.5),
        ]);
        let regressions = bench_regressions(&prev, 100.0, 5.0, &prepare, &engine);
        assert_eq!(
            regressions,
            [
                "prepare.world: 13.0 ms vs 10.0 ms (+30%)",
                "discovery.certificates: 26.0 ms vs 20.0 ms (+30%)"
            ]
        );
    }

    #[test]
    fn bench_gate_passes_twenty_percent() {
        let prev = prev_bench();
        let prepare = stages(&[("world", 12.0), ("index", 6.0)]);
        let engine = stages(&[("discovery.certificates", 24.0)]);
        assert!(bench_regressions(&prev, 120.0, 6.0, &prepare, &engine).is_empty());
    }

    #[test]
    fn longitudinal_gates() {
        let prev = Value::parse(r#"{"git":"abc1234","incremental_ms":100.000}"#).unwrap();
        assert_eq!(
            incremental_regression(&prev, 130.0).as_deref(),
            Some("incremental total 130.0 ms vs 100.0 ms (+30%) at git abc1234")
        );
        assert_eq!(incremental_regression(&prev, 120.0), None);
        assert_eq!(incremental_regression(&Value::Obj(vec![]), 1e9), None);
        assert!(cost_gate_fails(0.25));
        assert!(cost_gate_fails(0.4));
        assert!(!cost_gate_fails(0.2499));
    }
}
