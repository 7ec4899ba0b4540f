//! Run reports: the span tree + metrics serialised to markdown (for
//! humans) and JSON-lines (for machines; hand-rolled writer, no serde).

use crate::metrics::HistogramSnapshot;
use std::collections::BTreeMap;

/// One node of the closed span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The name passed at `span_enter`.
    pub name: String,
    /// Monotonic wall-clock duration (0 if the span never closed).
    pub nanos: u64,
    /// Attribution metadata, in insertion order: shard identity stamped
    /// by the parallel layer's attributed merge, plus anything recorded
    /// through `annotate!` while the span was open.
    pub meta: Vec<(String, u64)>,
    /// Child spans, in entry order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time spent in this span itself, excluding its children —
    /// saturating, since a child recorded on another thread can
    /// (rarely) overlap its parent's clock.
    pub fn self_nanos(&self) -> u64 {
        self.nanos
            .saturating_sub(self.children.iter().map(|c| c.nanos).sum())
    }

    /// Look up one metadata value by key.
    pub fn meta_value(&self, key: &str) -> Option<u64> {
        self.meta.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Everything one instrumented run recorded.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Root spans, in entry order.
    pub spans: Vec<SpanNode>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Human-readable duration, scaled to ns/µs/ms/s.
pub(crate) fn fmt_nanos(nanos: u64) -> String {
    match nanos {
        0..=999 => format!("{nanos}ns"),
        1_000..=999_999 => format!("{:.1}µs", nanos as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", nanos as f64 / 1e6),
        _ => format!("{:.2}s", nanos as f64 / 1e9),
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_u64_array(values: &[u64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", cells.join(","))
}

/// One `(event, provider)` row of the scenario-resilience summary,
/// derived from the `scenario.<event>.<provider>.*` gauges the
/// resilience measurement publishes. Deltas are scenario-minus-baseline
/// in permille; stability is a permille Jaccard similarity (1000 =
/// footprint unchanged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventResilienceRow {
    pub event: String,
    pub provider: String,
    pub precision_delta_pm: i64,
    pub recall_delta_pm: i64,
    pub footprint_stability_pm: i64,
}

/// Per-source completeness under a fault plan, derived from the
/// `faults.<source>.*` counters the instruments emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceCompleteness {
    /// The source key (`censys`, `zgrab`, `passive_dns`, `active_dns`,
    /// `netflow`).
    pub source: String,
    /// Records lost to persistent faults (`…records_dropped`).
    pub dropped: u64,
    /// Operations that needed at least one retry (`…records_retried`).
    pub retried: u64,
    /// Of those, operations that eventually succeeded
    /// (`…records_recovered`).
    pub recovered: u64,
}

/// One supervised stage's recovery activity, derived from the
/// `super.stage.<stage>.*` counters the supervisor emits.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageRecovery {
    /// The stage name.
    pub stage: String,
    /// Attempts taken (0 when the stage restored from a checkpoint).
    pub attempts: u64,
    /// Attempts that panicked (contained and retried).
    pub panics: u64,
    /// Attempts that completed past their deadline.
    pub deadline_misses: u64,
    /// Total seeded backoff scheduled between attempts.
    pub backoff_ms: u64,
    /// 1 if the stage was restored from a verified checkpoint.
    pub restored: u64,
    /// 1 if the stage was recomputed and verified against a stored
    /// replay witness.
    pub replayed: u64,
}

impl StageRecovery {
    /// Whether anything beyond a clean single attempt happened.
    pub fn noteworthy(&self) -> bool {
        self.attempts > 1
            || self.panics > 0
            || self.deadline_misses > 0
            || self.backoff_ms > 0
            || self.restored > 0
            || self.replayed > 0
    }
}

/// Run-wide recovery activity: supervised stages plus checkpoint and
/// shard-quarantine totals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoverySummary {
    /// Per-stage rows, in stage-name order (only stages the supervisor
    /// touched appear).
    pub stages: Vec<StageRecovery>,
    /// Checkpoints written (`super.checkpoints.written`).
    pub checkpoints_written: u64,
    /// Checkpoints rejected as corrupt (`super.checkpoints.corrupt`).
    pub checkpoints_corrupt: u64,
    /// Checkpoints rejected as belonging to a different run
    /// (`super.checkpoints.mismatched`).
    pub checkpoints_mismatched: u64,
    /// Replay witnesses that failed verification
    /// (`super.checkpoints.witness_mismatch`).
    pub witness_mismatches: u64,
    /// Checkpoint writes that failed (`super.checkpoints.write_failed`).
    pub write_failures: u64,
    /// Worker shards that panicked (`par.shard_panics`).
    pub shard_panics: u64,
    /// Poisoned shards retried serially (`par.shards_quarantined`).
    pub shards_quarantined: u64,
    /// Whether the injected post-stage kill switch fired
    /// (`super.run.killed`).
    pub killed: bool,
}

impl RecoverySummary {
    /// True when the run had nothing to recover from: every stage took
    /// one clean attempt, no checkpoints were touched, no shard
    /// panicked. Trivial summaries render no report section, so
    /// unsupervised (and uneventful supervised) reports look exactly
    /// like before.
    pub fn is_trivial(&self) -> bool {
        self.stages.iter().all(|s| !s.noteworthy())
            && self.checkpoints_written == 0
            && self.checkpoints_corrupt == 0
            && self.checkpoints_mismatched == 0
            && self.witness_mismatches == 0
            && self.write_failures == 0
            && self.shard_panics == 0
            && self.shards_quarantined == 0
            && !self.killed
    }
}

impl RunReport {
    /// The recovery summary, derived from the `super.*` and
    /// `par.shard*` counters the supervisor and the shard executor
    /// emit.
    pub fn recovery(&self) -> RecoverySummary {
        let mut summary = RecoverySummary::default();
        let mut stages: BTreeMap<&str, StageRecovery> = BTreeMap::new();
        for (name, &value) in &self.counters {
            if let Some(rest) = name.strip_prefix("super.stage.") {
                // Stage names never contain dots, so the final segment
                // is the field.
                let Some((stage, field)) = rest.rsplit_once('.') else {
                    continue;
                };
                let row = stages.entry(stage).or_insert_with(|| StageRecovery {
                    stage: stage.to_string(),
                    ..StageRecovery::default()
                });
                match field {
                    "attempts" => row.attempts = value,
                    "panics" => row.panics = value,
                    "deadline_misses" => row.deadline_misses = value,
                    "backoff_ms" => row.backoff_ms = value,
                    "restored" => row.restored = value,
                    "replayed" => row.replayed = value,
                    _ => {}
                }
            } else {
                match name.as_str() {
                    "super.checkpoints.written" => summary.checkpoints_written = value,
                    "super.checkpoints.corrupt" => summary.checkpoints_corrupt = value,
                    "super.checkpoints.mismatched" => summary.checkpoints_mismatched = value,
                    "super.checkpoints.witness_mismatch" => summary.witness_mismatches = value,
                    "super.checkpoints.write_failed" => summary.write_failures = value,
                    "par.shard_panics" => summary.shard_panics = value,
                    "par.shards_quarantined" => summary.shards_quarantined = value,
                    "super.run.killed" => summary.killed = value > 0,
                    _ => {}
                }
            }
        }
        summary.stages = stages.into_values().collect();
        summary
    }

    /// Operator-facing notes: every `notes.<key>` counter, with the
    /// prefix stripped, in key order. Used for configuration surprises
    /// (e.g. an unparsable `IOTMAP_THREADS`) that must reach the report
    /// rather than vanish into a fallback.
    pub fn notes(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter_map(|(name, &value)| {
                name.strip_prefix("notes.")
                    .map(|key| (key.to_string(), value))
            })
            .collect()
    }

    /// The degraded-source summary: one row per source that emitted any
    /// `faults.<source>.records_{dropped,retried,recovered}` counter,
    /// in source-name order. Empty for an unfaulted run — fault-free
    /// reports carry no trace of the fault layer at all.
    pub fn fault_completeness(&self) -> Vec<SourceCompleteness> {
        let mut by_source: BTreeMap<&str, SourceCompleteness> = BTreeMap::new();
        for (name, &value) in &self.counters {
            let Some(rest) = name.strip_prefix("faults.") else {
                continue;
            };
            let Some((source, field)) = rest.split_once('.') else {
                continue;
            };
            let row = by_source
                .entry(source)
                .or_insert_with(|| SourceCompleteness {
                    source: source.to_string(),
                    dropped: 0,
                    retried: 0,
                    recovered: 0,
                });
            match field {
                "records_dropped" => row.dropped = value,
                "records_retried" => row.retried = value,
                "records_recovered" => row.recovered = value,
                _ => {}
            }
        }
        by_source.into_values().collect()
    }

    /// The scenario-resilience summary: one row per `(event, provider)`
    /// pair that published any `scenario.<event>.<provider>.*` gauge, in
    /// `(event, provider)` order. Empty for a scenario-free run —
    /// baseline reports carry no trace of the scenario layer at all.
    pub fn resilience(&self) -> Vec<EventResilienceRow> {
        let mut rows: BTreeMap<(String, String), EventResilienceRow> = BTreeMap::new();
        for (name, &value) in &self.gauges {
            let Some(rest) = name.strip_prefix("scenario.") else {
                continue;
            };
            // Event labels and provider names never contain '.', so the
            // last two dots delimit `<event>.<provider>.<field>`.
            let mut parts = rest.rsplitn(3, '.');
            let (Some(field), Some(provider), Some(event)) =
                (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let row = rows
                .entry((event.to_string(), provider.to_string()))
                .or_insert_with(|| EventResilienceRow {
                    event: event.to_string(),
                    provider: provider.to_string(),
                    precision_delta_pm: 0,
                    recall_delta_pm: 0,
                    footprint_stability_pm: 1000,
                });
            match field {
                "precision_delta_pm" => row.precision_delta_pm = value,
                "recall_delta_pm" => row.recall_delta_pm = value,
                "footprint_stability_pm" => row.footprint_stability_pm = value,
                _ => {}
            }
        }
        rows.into_values().collect()
    }

    /// Render the span tree alone (the `--trace` output of `exp`) as an
    /// indented text flame summary: duration, share of the parent,
    /// self-time for interior nodes, and any shard attribution.
    pub fn render_span_tree(&self) -> String {
        let mut out = String::new();
        fn walk(node: &SpanNode, depth: usize, parent_nanos: Option<u64>, out: &mut String) {
            let share = match parent_nanos {
                Some(p) if p > 0 => format!(" ({:.0}%)", node.nanos as f64 / p as f64 * 100.0),
                _ => String::new(),
            };
            let self_time = if node.children.is_empty() {
                String::new()
            } else {
                format!(" · self {}", fmt_nanos(node.self_nanos()))
            };
            let meta = if node.meta.is_empty() {
                String::new()
            } else {
                let cells: Vec<String> =
                    node.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(" [{}]", cells.join(" "))
            };
            out.push_str(&format!(
                "{}{} — {}{}{}{}\n",
                "  ".repeat(depth),
                node.name,
                fmt_nanos(node.nanos),
                share,
                self_time,
                meta
            ));
            for child in &node.children {
                walk(child, depth + 1, Some(node.nanos), out);
            }
        }
        for root in &self.spans {
            walk(root, 0, None, &mut out);
        }
        out
    }

    /// The top `n` spans by self-time, as `(path, self_nanos)` rows in
    /// descending order (ties broken by path for determinism). Every
    /// tree node is one candidate; paths are `/`-joined as in the JSONL
    /// report.
    pub fn top_self_time(&self, n: usize) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = Vec::new();
        fn walk(node: &SpanNode, path: &str, rows: &mut Vec<(String, u64)>) {
            let path = if path.is_empty() {
                node.name.clone()
            } else {
                format!("{path}/{}", node.name)
            };
            rows.push((path.clone(), node.self_nanos()));
            for child in &node.children {
                walk(child, &path, rows);
            }
        }
        for root in &self.spans {
            walk(root, "", &mut rows);
        }
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Export the span tree as Chrome Trace Event Format JSON — loadable
    /// in `chrome://tracing` and Perfetto.
    ///
    /// Spans record durations, not absolute timestamps, so the timeline
    /// is synthesized: each root starts where the previous one ended,
    /// and each child starts at its parent's start plus the preceding
    /// siblings' durations. Events are complete (`"ph":"X"`) with
    /// microsecond `ts`/`dur`; `args` carries the span's self-time and
    /// its attribution metadata.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        fn walk(node: &SpanNode, start_ns: u64, events: &mut Vec<String>) {
            let mut args = format!("\"self_us\":{:.3}", node.self_nanos() as f64 / 1e3);
            for (key, value) in &node.meta {
                args.push_str(&format!(",\"{}\":{value}", json_escape(key)));
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"iotmap\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                json_escape(&node.name),
                start_ns as f64 / 1e3,
                node.nanos as f64 / 1e3,
            ));
            let mut cursor = start_ns;
            for child in &node.children {
                walk(child, cursor, events);
                cursor = cursor.saturating_add(child.nanos);
            }
        }
        let mut cursor = 0u64;
        for root in &self.spans {
            walk(root, cursor, &mut events);
            cursor = cursor.saturating_add(root.nanos);
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }

    /// The full markdown summary: span tree + metric tables.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Run report\n\n## Span tree\n\n```\n");
        out.push_str(&self.render_span_tree());
        out.push_str("```\n");
        if !self.counters.is_empty() {
            out.push_str("\n## Counters\n\n| counter | value |\n|---|---:|\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("| {name} | {value} |\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\n## Gauges\n\n| gauge | value |\n|---|---:|\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("| {name} | {value} |\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "\n## Histograms\n\n| histogram | count | sum | mean | min | max |\n\
                 |---|---:|---:|---:|---:|---:|\n",
            );
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "| {name} | {} | {} | {:.1} | {} | {} |\n",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.min,
                    h.max
                ));
            }
        }
        let degraded = self.fault_completeness();
        if !degraded.is_empty() {
            out.push_str(
                "\n## Degraded sources\n\n| source | dropped | retried | recovered |\n\
                 |---|---:|---:|---:|\n",
            );
            for row in &degraded {
                out.push_str(&format!(
                    "| {} | {} | {} | {} |\n",
                    row.source, row.dropped, row.retried, row.recovered
                ));
            }
        }
        let resilience = self.resilience();
        if !resilience.is_empty() {
            out.push_str(
                "\n## Resilience\n\n| event | provider | Δprecision (‰) | Δrecall (‰) | \
                 footprint stability (‰) |\n|---|---|---:|---:|---:|\n",
            );
            for row in &resilience {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} |\n",
                    row.event,
                    row.provider,
                    row.precision_delta_pm,
                    row.recall_delta_pm,
                    row.footprint_stability_pm
                ));
            }
        }
        let recovery = self.recovery();
        if !recovery.is_trivial() {
            out.push_str("\n## Recovery\n");
            let rows: Vec<&StageRecovery> =
                recovery.stages.iter().filter(|s| s.noteworthy()).collect();
            if !rows.is_empty() {
                out.push_str(
                    "\n| stage | attempts | panics | deadline misses | backoff ms | \
                     restored | replayed |\n|---|---:|---:|---:|---:|---:|---:|\n",
                );
                for row in rows {
                    out.push_str(&format!(
                        "| {} | {} | {} | {} | {} | {} | {} |\n",
                        row.stage,
                        row.attempts,
                        row.panics,
                        row.deadline_misses,
                        row.backoff_ms,
                        row.restored,
                        row.replayed
                    ));
                }
            }
            out.push_str(&format!(
                "\n- checkpoints: {} written, {} corrupt, {} mismatched, \
                 {} witness mismatches, {} write failures\n",
                recovery.checkpoints_written,
                recovery.checkpoints_corrupt,
                recovery.checkpoints_mismatched,
                recovery.witness_mismatches,
                recovery.write_failures
            ));
            if recovery.shard_panics > 0 || recovery.shards_quarantined > 0 {
                out.push_str(&format!(
                    "- shards: {} panicked, {} quarantined and retried serially\n",
                    recovery.shard_panics, recovery.shards_quarantined
                ));
            }
            if recovery.killed {
                out.push_str("- run killed by the injected post-stage kill switch\n");
            }
        }
        let notes = self.notes();
        if !notes.is_empty() {
            out.push_str("\n## Notes\n\n");
            for (key, value) in &notes {
                out.push_str(&format!("- {key}: {value}\n"));
            }
        }
        out
    }

    /// The machine-readable report: one JSON object per line.
    ///
    /// Line `type`s: `meta` (format version header), `span` (one per
    /// span-tree node, with its `/`-joined `path`, `depth`,
    /// `self_nanos`, and — when attributed — a `meta` object),
    /// `counter`, `gauge`, `histogram`.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"meta\",\"format\":\"{}\"}}\n",
            crate::JSONL_FORMAT
        );
        fn walk(node: &SpanNode, path: &str, depth: usize, out: &mut String) {
            let path = if path.is_empty() {
                node.name.clone()
            } else {
                format!("{path}/{}", node.name)
            };
            let meta = if node.meta.is_empty() {
                String::new()
            } else {
                let cells: Vec<String> = node
                    .meta
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
                    .collect();
                format!(",\"meta\":{{{}}}", cells.join(","))
            };
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"path\":\"{}\",\"depth\":{},\
                 \"nanos\":{},\"self_nanos\":{}{meta}}}\n",
                json_escape(&node.name),
                json_escape(&path),
                depth,
                node.nanos,
                node.self_nanos()
            ));
            for child in &node.children {
                walk(child, &path, depth + 1, out);
            }
        }
        for root in &self.spans {
            walk(root, "", 0, &mut out);
        }
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
                json_escape(name)
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}\n",
                json_escape(name)
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\
                 \"max\":{},\"bounds\":{},\"counts\":{}}}\n",
                json_escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                json_u64_array(&h.bounds),
                json_u64_array(&h.counts)
            ));
        }
        for row in self.fault_completeness() {
            out.push_str(&format!(
                "{{\"type\":\"degraded_source\",\"source\":\"{}\",\"dropped\":{},\
                 \"retried\":{},\"recovered\":{}}}\n",
                json_escape(&row.source),
                row.dropped,
                row.retried,
                row.recovered
            ));
        }
        for row in self.resilience() {
            out.push_str(&format!(
                "{{\"type\":\"scenario_event\",\"event\":\"{}\",\"provider\":\"{}\",\
                 \"precision_delta_pm\":{},\"recall_delta_pm\":{},\
                 \"footprint_stability_pm\":{}}}\n",
                json_escape(&row.event),
                json_escape(&row.provider),
                row.precision_delta_pm,
                row.recall_delta_pm,
                row.footprint_stability_pm
            ));
        }
        let recovery = self.recovery();
        if !recovery.is_trivial() {
            for row in recovery.stages.iter().filter(|s| s.noteworthy()) {
                out.push_str(&format!(
                    "{{\"type\":\"recovery_stage\",\"stage\":\"{}\",\"attempts\":{},\
                     \"panics\":{},\"deadline_misses\":{},\"backoff_ms\":{},\
                     \"restored\":{},\"replayed\":{}}}\n",
                    json_escape(&row.stage),
                    row.attempts,
                    row.panics,
                    row.deadline_misses,
                    row.backoff_ms,
                    row.restored,
                    row.replayed
                ));
            }
            out.push_str(&format!(
                "{{\"type\":\"recovery\",\"checkpoints_written\":{},\
                 \"checkpoints_corrupt\":{},\"checkpoints_mismatched\":{},\
                 \"witness_mismatches\":{},\"write_failures\":{},\
                 \"shard_panics\":{},\"shards_quarantined\":{},\"killed\":{}}}\n",
                recovery.checkpoints_written,
                recovery.checkpoints_corrupt,
                recovery.checkpoints_mismatched,
                recovery.witness_mismatches,
                recovery.write_failures,
                recovery.shard_panics,
                recovery.shards_quarantined,
                recovery.killed
            ));
        }
        for (key, value) in self.notes() {
            out.push_str(&format!(
                "{{\"type\":\"note\",\"key\":\"{}\",\"value\":{value}}}\n",
                json_escape(&key)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_report() -> RunReport {
        let r = Registry::new();
        let a = r.span_enter("prepare");
        let b = r.span_enter("discovery");
        r.span_exit(b, 2_000_000);
        r.span_exit(a, 5_000_000);
        r.add("certs \"q\"", 7);
        r.gauge("servers", 42);
        r.register_histogram("bytes", &[10, 100]);
        r.observe("bytes", 55);
        r.report()
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_nanos(15), "15ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.5ms");
        assert_eq!(fmt_nanos(3_210_000_000), "3.21s");
    }

    #[test]
    fn markdown_contains_all_sections() {
        let md = sample_report().to_markdown();
        assert!(md.contains("## Span tree"));
        assert!(md.contains("prepare — 5.0ms"));
        assert!(md.contains("  discovery — 2.0ms (40%)"));
        assert!(md.contains("| certs \"q\" | 7 |"));
        assert!(md.contains("| servers | 42 |"));
        assert!(md.contains("| bytes | 1 | 55 | 55.0 | 55 | 55 |"));
    }

    #[test]
    fn jsonl_lines_are_wellformed() {
        let jsonl = sample_report().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "{\"type\":\"meta\",\"format\":\"iotmap-obs.v2\"}");
        assert!(lines[1].contains("\"path\":\"prepare\""));
        assert!(lines[1].contains("\"self_nanos\":3000000"));
        assert!(lines[2].contains("\"path\":\"prepare/discovery\""));
        assert!(lines[2].contains("\"depth\":1"));
        assert!(lines[2].contains("\"self_nanos\":2000000"));
        assert!(lines[3].contains("\"name\":\"certs \\\"q\\\"\""));
        assert!(lines[5].contains("\"bounds\":[10,100]"));
        assert!(lines[5].contains("\"counts\":[0,1,0]"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            // Balanced quotes: every line must be standalone-parseable.
            assert_eq!(line.matches('"').count() % 2, 0);
        }
    }

    #[test]
    fn span_tree_renders_self_time_and_attribution() {
        let r = Registry::new();
        let a = r.span_enter("prepare");
        let b = r.span_enter("shard");
        r.annotate("shard", 3);
        r.annotate("items", 120);
        r.span_exit(b, 2_000_000);
        r.span_exit(a, 5_000_000);
        let tree = r.report().render_span_tree();
        assert!(tree.contains("prepare — 5.0ms · self 3.0ms"));
        assert!(tree.contains("  shard — 2.0ms (40%) [shard=3 items=120]"));
        // Leaves carry no redundant self-time suffix.
        assert!(!tree.contains("shard — 2.0ms (40%) · self"));
    }

    #[test]
    fn top_self_time_orders_descending_with_path_tiebreak() {
        let r = Registry::new();
        let a = r.span_enter("prepare");
        let b = r.span_enter("world");
        r.span_exit(b, 3_000_000);
        let c = r.span_enter("scans");
        r.span_exit(c, 3_000_000);
        r.span_exit(a, 10_000_000);
        let rows = r.report().top_self_time(2);
        assert_eq!(
            rows,
            vec![
                ("prepare".to_string(), 4_000_000),
                ("prepare/scans".to_string(), 3_000_000),
            ]
        );
        assert_eq!(r.report().top_self_time(10).len(), 3);
    }

    #[test]
    fn jsonl_span_lines_carry_meta_objects() {
        let r = Registry::new();
        let a = r.span_enter("shard");
        r.annotate("items", 7);
        r.span_exit(a, 1_000);
        let jsonl = r.report().to_jsonl();
        assert!(jsonl.contains("\"meta\":{\"items\":7}"));
    }

    #[test]
    fn chrome_trace_synthesizes_a_sequential_timeline() {
        let trace = sample_report().to_chrome_trace();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.ends_with("]}\n"));
        assert!(trace.contains(
            "{\"name\":\"prepare\",\"cat\":\"iotmap\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":0.000,\"dur\":5000.000,\"args\":{\"self_us\":3000.000}}"
        ));
        // Child starts at the parent's start and keeps its own duration.
        assert!(trace.contains("{\"name\":\"discovery\",\"cat\":\"iotmap\",\"ph\":\"X\""));
        assert!(trace.contains("\"ts\":0.000,\"dur\":2000.000"));
        assert_eq!(
            trace.matches('{').count(),
            trace.matches('}').count(),
            "chrome trace JSON must be brace-balanced"
        );
        assert_eq!(trace.matches('"').count() % 2, 0);
    }

    #[test]
    fn chrome_trace_events_carry_attribution_args() {
        let r = Registry::new();
        let a = r.span_enter("shard");
        r.annotate("shard", 2);
        r.span_exit(a, 4_000);
        let trace = r.report().to_chrome_trace();
        assert!(trace.contains("\"args\":{\"self_us\":4.000,\"shard\":2}"));
    }

    #[test]
    fn fault_counters_surface_as_degraded_sources() {
        let r = Registry::new();
        r.add("faults.zgrab.records_dropped", 12);
        r.add("faults.zgrab.records_retried", 30);
        r.add("faults.zgrab.records_recovered", 25);
        r.add("faults.zgrab.targets_timed_out", 12); // detail key: ignored
        r.add("faults.censys.records_dropped", 4);
        r.add("scan.censys.certs_parsed", 100); // unrelated counter
        let report = r.report();
        let rows = report.fault_completeness();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            SourceCompleteness {
                source: "censys".to_string(),
                dropped: 4,
                retried: 0,
                recovered: 0,
            }
        );
        assert_eq!(rows[1].source, "zgrab");
        assert_eq!(
            (rows[1].dropped, rows[1].retried, rows[1].recovered),
            (12, 30, 25)
        );

        let md = report.to_markdown();
        assert!(md.contains("## Degraded sources"));
        assert!(md.contains("| zgrab | 12 | 30 | 25 |"));
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains(
            "{\"type\":\"degraded_source\",\"source\":\"censys\",\"dropped\":4,\
             \"retried\":0,\"recovered\":0}"
        ));
    }

    #[test]
    fn unfaulted_reports_carry_no_degraded_section() {
        let report = sample_report();
        assert!(report.fault_completeness().is_empty());
        assert!(!report.to_markdown().contains("Degraded sources"));
        assert!(!report.to_jsonl().contains("degraded_source"));
    }

    #[test]
    fn scenario_gauges_surface_as_resilience_rows() {
        let r = Registry::new();
        r.gauge("scenario.storm:microsoft@1.microsoft.recall_delta_pm", -250);
        r.gauge("scenario.storm:microsoft@1.microsoft.precision_delta_pm", 0);
        r.gauge(
            "scenario.storm:microsoft@1.microsoft.footprint_stability_pm",
            1000,
        );
        r.gauge(
            "scenario.migration:bosch@2->aws/ap-southeast-1.bosch.recall_delta_pm",
            -40,
        );
        r.gauge("traffic.scanner.lines_excluded", 3); // unrelated gauge
        let report = r.report();
        let rows = report.resilience();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            EventResilienceRow {
                event: "migration:bosch@2->aws/ap-southeast-1".to_string(),
                provider: "bosch".to_string(),
                precision_delta_pm: 0,
                recall_delta_pm: -40,
                footprint_stability_pm: 1000,
            }
        );
        assert_eq!(rows[1].event, "storm:microsoft@1");
        assert_eq!(rows[1].recall_delta_pm, -250);

        let md = report.to_markdown();
        assert!(md.contains("## Resilience"));
        assert!(md.contains("| storm:microsoft@1 | microsoft | 0 | -250 | 1000 |"));
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains(
            "{\"type\":\"scenario_event\",\"event\":\"storm:microsoft@1\",\
             \"provider\":\"microsoft\",\"precision_delta_pm\":0,\
             \"recall_delta_pm\":-250,\"footprint_stability_pm\":1000}"
        ));
    }

    #[test]
    fn scenario_free_reports_carry_no_resilience_section() {
        let report = sample_report();
        assert!(report.resilience().is_empty());
        assert!(!report.to_markdown().contains("## Resilience"));
        assert!(!report.to_jsonl().contains("scenario_event"));
    }

    #[test]
    fn recovery_counters_surface_as_a_recovery_section() {
        let r = Registry::new();
        r.add("super.stage.discovery.attempts", 3);
        r.add("super.stage.discovery.panics", 2);
        r.add("super.stage.discovery.backoff_ms", 850);
        r.add("super.stage.world.attempts", 1); // clean: not noteworthy
        r.add("super.stage.footprints.restored", 1);
        r.add("super.checkpoints.written", 5);
        r.add("super.checkpoints.corrupt", 1);
        r.add("par.shard_panics", 2);
        r.add("par.shards_quarantined", 2);
        let report = r.report();

        let recovery = report.recovery();
        assert!(!recovery.is_trivial());
        assert_eq!(recovery.stages.len(), 3);
        let discovery = &recovery.stages[0];
        assert_eq!(
            (
                discovery.stage.as_str(),
                discovery.attempts,
                discovery.panics
            ),
            ("discovery", 3, 2)
        );
        assert!(discovery.noteworthy());
        assert!(!recovery.stages[2].noteworthy(), "clean stage is trivial");
        assert_eq!(recovery.checkpoints_written, 5);
        assert_eq!(recovery.shards_quarantined, 2);

        let md = report.to_markdown();
        assert!(md.contains("## Recovery"));
        assert!(md.contains("| discovery | 3 | 2 | 0 | 850 | 0 | 0 |"));
        assert!(md.contains("| footprints | 0 | 0 | 0 | 0 | 1 | 0 |"));
        assert!(!md.contains("| world |"), "clean stages stay out");
        assert!(md.contains("5 written, 1 corrupt"));
        assert!(md.contains("2 panicked, 2 quarantined"));

        let jsonl = report.to_jsonl();
        assert!(jsonl.contains("\"type\":\"recovery_stage\",\"stage\":\"discovery\""));
        assert!(jsonl.contains("\"checkpoints_written\":5"));
        assert!(jsonl.contains("\"killed\":false"));
    }

    #[test]
    fn uneventful_reports_carry_no_recovery_or_notes_section() {
        let report = sample_report();
        assert!(report.recovery().is_trivial());
        assert!(report.notes().is_empty());
        let md = report.to_markdown();
        assert!(!md.contains("## Recovery"));
        assert!(!md.contains("## Notes"));
        assert!(!report.to_jsonl().contains("\"type\":\"recovery\""));

        // A supervised-but-clean run is also trivial: one attempt per
        // stage, nothing checkpointed, nothing quarantined.
        let r = Registry::new();
        r.add("super.stage.world.attempts", 1);
        r.add("super.stage.discovery.attempts", 1);
        let clean = r.report();
        assert!(clean.recovery().is_trivial());
        assert!(!clean.to_markdown().contains("## Recovery"));
    }

    #[test]
    fn notes_counters_surface_as_a_notes_section() {
        let r = Registry::new();
        r.add("notes.config.iotmap_threads_unparsable", 1);
        let report = r.report();
        assert_eq!(
            report.notes(),
            vec![("config.iotmap_threads_unparsable".to_string(), 1)]
        );
        let md = report.to_markdown();
        assert!(md.contains("## Notes"));
        assert!(md.contains("- config.iotmap_threads_unparsable: 1"));
        assert!(report.to_jsonl().contains(
            "{\"type\":\"note\",\"key\":\"config.iotmap_threads_unparsable\",\"value\":1}"
        ));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
