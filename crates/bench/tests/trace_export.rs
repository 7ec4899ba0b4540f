//! Golden tests for the hierarchical trace tree and its Chrome Trace
//! export: the prepare path's span shape is pinned on a fixed-seed small
//! preset, the stage breakdown must account for the prepare span's time
//! (the `prepare_stages_ms` contract), and installing a recorder must
//! never change the pipeline's outputs.

use iotmap_bench::Experiment;
use iotmap_obs::Registry;
use iotmap_world::WorldConfig;
use std::rc::Rc;

fn traced_prepare(config: &WorldConfig) -> (Experiment, iotmap_obs::RunReport) {
    let registry = Rc::new(Registry::new());
    iotmap_obs::install(registry.clone());
    let exp = Experiment::prepare(config);
    iotmap_obs::uninstall();
    (exp, registry.report())
}

#[test]
fn prepare_span_tree_matches_golden_shape() {
    let (exp, report) = traced_prepare(&WorldConfig::small(42));
    let prepare = report
        .find_span("experiment.prepare")
        .expect("prepare span");
    let execute = report
        .find_span("experiment.execute")
        .expect("execute span");

    // The two phases' direct children ARE the `prepare_stages_ms`
    // breakdown — pin them exactly so a refactor cannot silently drop a
    // stage from the bench report.
    let stages: Vec<&str> = prepare.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        stages,
        ["super.stage.world", "super.stage.scans"],
        "prepare stage spans changed — update exp bench's prepare_stages_ms docs"
    );
    let engine_stages: Vec<&str> = execute.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        engine_stages,
        [
            "super.stage.discovery",
            "experiment.footprints",
            "super.stage.shared-ip",
            "super.stage.index",
        ],
        "execute stage spans changed — update exp bench's prepare_stages_ms docs"
    );

    // World generation's phase breakdown, pinned the same way.
    let world = prepare
        .find_span("world.generate")
        .expect("world.generate span");
    let phases: Vec<&str> = world.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        phases,
        [
            "world.servers",
            "world.bgp",
            "world.tenants_zones",
            "world.background",
            "world.hitlist",
            "world.passive_dns",
            "world.published",
            "world.isp",
            "world.events",
        ]
    );

    // Passive-DNS synthesis: its three passes, each with its item count,
    // and the table's counts on the phase span.
    let pdns = world
        .find_span("world.passive_dns")
        .expect("passive_dns span");
    let passes: Vec<&str> = pdns.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        passes,
        [
            "world.passive_dns.resolve",
            "world.passive_dns.merge",
            "world.passive_dns.index",
        ]
    );
    let db = &exp.world.passive_dns;
    let entries = db.len() as u64;
    let observations: u64 = db.entries().map(|e| e.count).sum();
    assert_eq!(pdns.meta_value("entries"), Some(entries));
    assert_eq!(pdns.meta_value("observations"), Some(observations));
    let domains = pdns.meta_value("domains").expect("domains");
    let resolutions = pdns.meta_value("resolutions").expect("resolutions");
    assert!(0 < domains && domains < resolutions && resolutions < observations);
    let (resolve, merge, index) = (&pdns.children[0], &pdns.children[1], &pdns.children[2]);
    assert_eq!(resolve.meta_value("domains"), Some(domains));
    assert_eq!(resolve.meta_value("resolutions"), Some(resolutions));
    assert!(merge.meta_value("rows").is_some_and(|rows| rows >= entries));
    assert_eq!(index.meta_value("entries"), Some(entries));

    // Scan synthesis carries its two named campaigns.
    let collect = prepare
        .find_span("world.collect_scan_data")
        .expect("collect span");
    let campaigns: Vec<&str> = collect.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(campaigns, ["world.censys_sweeps", "world.zgrab_campaign"]);

    // A clean run's supervisor stages record exactly one attempt.
    for child in prepare
        .children
        .iter()
        .chain(execute.children.iter())
        .filter(|c| c.name.starts_with("super.stage."))
    {
        assert_eq!(child.meta_value("attempts"), Some(1), "{}", child.name);
        assert_eq!(child.meta_value("panics"), None, "{}", child.name);
    }
}

#[test]
fn prepare_stage_times_sum_to_prepare_time() {
    let (_exp, report) = traced_prepare(&WorldConfig::small(42));
    for phase in ["experiment.prepare", "experiment.execute"] {
        let span = report
            .find_span(phase)
            .unwrap_or_else(|| panic!("{phase} span"));
        let children: u64 = span.children.iter().map(|c| c.nanos).sum();
        assert!(
            children <= span.nanos,
            "{phase}: children ({children}) exceed their parent ({})",
            span.nanos
        );
        // The acceptance bar: the breakdown explains ≥90% of phase time.
        assert!(
            children as f64 >= span.nanos as f64 * 0.9,
            "{phase} stages only cover {:.1}% of the span",
            children as f64 / span.nanos as f64 * 100.0
        );
    }
}

#[test]
fn chrome_trace_export_is_loadable() {
    let (_exp, report) = traced_prepare(&WorldConfig::small(42));
    let trace = report.to_chrome_trace();
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(trace.trim_end().ends_with("]}"));
    assert!(trace.contains("\"name\":\"experiment.prepare\""));
    assert!(trace.contains("\"ph\":\"X\""));
    // Every event must be standalone-parseable by a strict JSON loader.
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    assert_eq!(trace.matches('"').count() % 2, 0);
    // The synthesized timeline starts at zero and stays within the run.
    assert!(trace.contains("\"ts\":0.000"));
}

#[test]
fn tracing_does_not_change_outputs() {
    let config = WorldConfig::small(42);
    iotmap_obs::uninstall();
    let untraced = Experiment::prepare(&config).artifacts.canonical_dump();
    let (traced_exp, _) = traced_prepare(&config);
    assert_eq!(
        untraced,
        traced_exp.artifacts.canonical_dump(),
        "installing a recorder changed the pipeline's outputs"
    );
    // Sharded execution with attribution enabled must not change them
    // either (the attributed merge only stamps metadata).
    let parallel_traced =
        iotmap_par::with_threads(4, || traced_prepare(&config).0.artifacts.canonical_dump());
    assert_eq!(untraced, parallel_traced);
}

#[test]
fn regex_vm_counter_totals_are_pinned() {
    // Batching the `dregex.vm.*` counters per pass changes how often
    // they are recorded, never what they add up to — serial or sharded.
    for threads in [1, 4] {
        let (_exp, report) =
            iotmap_par::with_threads(threads, || traced_prepare(&WorldConfig::small(42)));
        let counter = |name: &str| report.counters.get(name).copied();
        assert_eq!(
            (counter("dregex.vm.execs"), counter("dregex.vm.steps")),
            (Some(35_054), Some(8_684_359)),
            "threads {threads}"
        );
    }
}
