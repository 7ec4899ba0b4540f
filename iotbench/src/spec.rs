//! What the benchmark measures, as data: the workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics with
//! the end-to-end metric and workload each should move. `iotbench
//! --describe` prints these tables as JSON (committed as `spec.json`),
//! and a run refuses to print a result that misses one of its metrics.

use std::fmt::Write as _;

pub const THREADS: usize = 2;
pub const PRESET: &str = "paper";

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub setup: &'static str,
    pub timed_phase: &'static str,
    /// What one `items` unit of `items_per_s` is on this workload.
    pub item: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "discover",
        why: "batch re-analysis: discovery, footprints, shared-IP classification and the index do \
              all the work; traffic does none",
        setup: "Pipeline::prepare (world generation + scan synthesis), three times, the last kept",
        timed_phase: "PreparedWorld::execute, repeated",
        item: "input record (Censys certificate records + IPv6 grabs + passive-DNS rrsets)",
    },
    Workload {
        name: "isp-week",
        why: "the two NetFlow passes over the main week with an obs Registry installed: flow \
              generation, border router, folds and registry do all the work; discovery does none",
        setup: "Pipeline::prepare + PreparedWorld::execute, three times, the last kept",
        timed_phase:
            "contact_pass -> excluded_lines -> analysis_pass over the main week, repeated, \
                      each under a fresh iotmap_obs::Registry",
        item: "exported flow consumed (both passes)",
    },
    Workload {
        name: "monitor",
        why: "day-by-day roll-forward: discovery and match state updated in place by small \
              deltas; traffic does none, and full rebuilds only bootstrap",
        setup: "Pipeline::prepare + PreparedWorld::rolled bootstrap, once per 7-day episode",
        timed_phase: "PreparedWorld::next_delta + PreparedWorld::advance, one op per day, 7 days \
                      per episode, episodes repeated",
        item: "delta scan record",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median wall time of the workload's setup (see workloads[].setup)",
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median wall time of one timed operation: an execute (discover), a main-week \
               contact+exclusion+analysis (isp-week), a day's next_delta+advance (monitor)",
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "median over timed operations of items processed per second: records/s \
               (discover), exported flows/s over both passes (isp-week), delta scan records/s \
               (monitor)",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "peak resident set size (VmHWM) at exit",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub call: &'static str,
    /// The end-to-end metric a change in this layer should move, and on
    /// which workloads; empty for item counts, which must not move.
    pub moves: &'static str,
    pub on: &'static [&'static str],
    /// Workloads whose end-to-end metrics should not change.
    pub unchanged_on: &'static [&'static str],
}

const ALL: &[&str] = &["discover", "isp-week", "monitor"];
const DISCOVER: &[&str] = &["discover"];
const ISP: &[&str] = &["isp-week"];
const MONITOR: &[&str] = &["monitor"];
const NONE: &[&str] = &[];

const fn time(
    name: &'static str,
    unit: &'static str,
    call: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
    unchanged_on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
        call,
        moves,
        on,
        unchanged_on,
    }
}

const fn count(name: &'static str, call: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better: "higher",
        call,
        moves: "",
        on: NONE,
        unchanged_on: NONE,
    }
}

pub const LAYERS: &[Layer] = &[
    time(
        "world.generate_ms",
        "ms",
        "World::generate(&cfg)",
        "setup_s",
        ALL,
        NONE,
    ),
    time(
        "world.collect_scans_ms",
        "ms",
        "World::collect_scan_data_with(period, &FaultPlan::none())",
        "setup_s",
        ALL,
        NONE,
    ),
    time(
        "iotmap.execute_ms",
        "ms",
        "PreparedWorld::execute",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "core.discovery_ms",
        "ms",
        "DiscoveryPipeline::run",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "core.discovery.ns_per_record",
        "ns/record",
        "DiscoveryPipeline::run / core.discovery.records",
        "items_per_s",
        DISCOVER,
        ISP,
    ),
    count(
        "core.discovery.records",
        "Censys certificate records + IPv6 grabs + passive-DNS rrsets",
    ),
    count("core.discovered_ips", "DiscoveryResult::all_ips"),
    time(
        "core.discovery.certificates_ms",
        "ms",
        "DiscoveryPipeline::run_channels(&[Source::Certificate])",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "core.discovery.ipv6_scan_ms",
        "ms",
        "DiscoveryPipeline::run_channels(&[Source::Ipv6Scan])",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "core.discovery.passive_dns_ms",
        "ms",
        "DiscoveryPipeline::run_channels(&[Source::PassiveDns])",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "core.discovery.active_dns_ms",
        "ms",
        "derived: run minus run_channels over certificates, IPv6 scans and passive DNS \
         (the active-DNS seeds depend on the other harvests)",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "core.footprints_ms",
        "ms",
        "FootprintInference::infer for every provider",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "core.shared_ip_ms",
        "ms",
        "SharedIpClassifier::split_provider for every provider",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "traffic.index_build_ms",
        "ms",
        "IpIndex::build",
        "op_ms",
        DISCOVER,
        ISP,
    ),
    time(
        "iotmap.execute_other_ms",
        "ms",
        "derived: execute minus discovery, footprints, shared-IP and index (world/scan clones, \
         supervisor)",
        "op_ms",
        DISCOVER,
        NONE,
    ),
    time(
        "netflow.generate_route_ns_per_flow",
        "ns/flow",
        "TrafficSimulator::with_faults(..).run_fold(week, &CountingFold) / flows generated",
        "items_per_s",
        ISP,
        &["discover", "monitor"],
    ),
    count("netflow.flows_generated", "TrafficStats::flows_generated"),
    count("netflow.flows_exported", "TrafficStats::flows_exported"),
    time(
        "traffic.contact_fold_ns_per_flow",
        "ns/flow",
        "ContactFold make/fold/merge via iotmap_par::shard_fold over one stored day",
        "items_per_s",
        ISP,
        DISCOVER,
    ),
    time(
        "traffic.analysis_fold_ns_per_flow",
        "ns/flow",
        "AnalysisFold make/fold/merge via iotmap_par::shard_fold over one stored day",
        "items_per_s",
        ISP,
        DISCOVER,
    ),
    count(
        "traffic.fold_flows",
        "flows of one day stored by TrafficSimulator::run + StoringSink",
    ),
    time(
        "traffic.scanner_exclusion_ms",
        "ms",
        "RunArtifacts::excluded_lines",
        "op_ms",
        ISP,
        DISCOVER,
    ),
    count("traffic.excluded_lines", "RunArtifacts::excluded_lines"),
    time(
        "traffic.into_report_ms",
        "ms",
        "AnalysisFold::into_report",
        "op_ms",
        ISP,
        DISCOVER,
    ),
    Layer {
        name: "obs.registry_overhead_pct",
        unit: "%",
        better: "lower",
        call: "RunArtifacts::analysis_pass with a Registry installed vs none",
        moves: "items_per_s",
        on: ISP,
        unchanged_on: &["discover", "monitor"],
    },
    time(
        "delta.next_day_ms",
        "ms",
        "PreparedWorld::next_delta",
        "op_ms",
        MONITOR,
        &["discover", "isp-week"],
    ),
    count(
        "delta.scan_records",
        "WorldDelta snapshots over a 7-day episode",
    ),
    time(
        "iotmap.advance_ms",
        "ms",
        "PreparedWorld::advance",
        "op_ms",
        MONITOR,
        ISP,
    ),
    time(
        "iotmap.advance_ns_per_record",
        "ns/record",
        "PreparedWorld::advance / delta scan records",
        "items_per_s",
        MONITOR,
        ISP,
    ),
    time(
        "iotmap.bootstrap_ms",
        "ms",
        "first PreparedWorld::rolled",
        "setup_s",
        MONITOR,
        NONE,
    ),
    Layer {
        name: "bench.trace_overhead_pct",
        unit: "%",
        better: "lower",
        call: "the workload's timed operation with spans recorded vs without",
        moves: "",
        on: NONE,
        unchanged_on: NONE,
    },
];

fn list(names: &[&str]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// The tables above as one JSON document (`spec.json`).
pub fn describe() -> String {
    let mut out = String::from("{\n  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"args\": \"--workload {} --seed <n> --seconds <s> --trace \
             <0|1>\", \"preset\": \"{PRESET}\", \"threads\": {THREADS}, \"faults\": \"none\", \
             \"world_cache\": false, \"why\": \"{}\", \"setup\": \"{}\", \"timed_phase\": \"{}\", \
             \"item\": \"{}\"}}{}",
            w.name,
            w.name,
            w.why,
            w.setup,
            w.timed_phase,
            w.item,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \
             \"workloads\": {}, \"what\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better,
            m.bound,
            list(ALL),
            m.what,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, l) in LAYERS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"call\": \"{}\", \
             \"moves\": \"{}\", \"on\": {}, \"unchanged_on\": {}}}{}",
            l.name,
            l.unit,
            l.better,
            l.call,
            l.moves,
            list(l.on),
            list(l.unchanged_on),
            if i + 1 < LAYERS.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The unit a metric must be printed with, or `None` for an unknown name.
pub fn unit_of(name: &str, traced: bool) -> Option<&'static str> {
    if traced {
        LAYERS.iter().find(|l| l.name == name).map(|l| l.unit)
    } else {
        END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit)
    }
}

/// Every metric name a run in this mode must print, in order.
pub fn required(traced: bool) -> Vec<&'static str> {
    if traced {
        LAYERS.iter().map(|l| l.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}
