//! §6–§7: dependencies and monitoring — the §6.2 routing-incident and
//! blocklist audits, the cascade impact of a cloud operator failing, and
//! the §7 continuous-monitoring findings across the two windows.

use super::discovery::december_discovery;
use super::{emit_table, Cli};
use iotmap_bench::Experiment;
use iotmap_core::disruptions::{BlocklistAudit, IncidentAudit, IncidentKind, RouteIncident};
use iotmap_core::report::{pct, TextTable};
use iotmap_traffic::cascade_impact;
use iotmap_world::BgpStreamEventKind;
use std::collections::BTreeMap;
use std::net::IpAddr;

// ------------------------------------------- §7 continuous monitoring

pub fn run_monitor(cli: &Cli, exp: &Experiment) {
    use iotmap_core::{Footprint, FootprintInference, Monitor, MonitoringWindow};
    // Capture the December window, then the February window, and report
    // the longitudinal findings — the §7 "continuous monitoring" mode.
    eprintln!("# capturing the December window for the monitor…");
    let (dec_result, dec_fps) = december_discovery(exp, |sources, result| {
        let fps: BTreeMap<String, Footprint> = result
            .per_provider()
            .map(|(name, disc)| (name.to_string(), FootprintInference::infer(disc, sources)))
            .collect();
        (result, fps)
    });
    let feb_fps: BTreeMap<String, Footprint> = exp
        .footprints
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();

    let mut monitor = Monitor::new();
    monitor.push(MonitoringWindow::capture("2021-12", &dec_result, &dec_fps));
    monitor.push(MonitoringWindow::capture(
        "2022-02",
        &exp.discovery,
        &feb_fps,
    ));
    let findings = monitor.latest_findings();
    if findings.is_empty() {
        println!("no findings: every backend footprint is stable across windows");
        return;
    }
    let mut t = TextTable::new(&["Provider", "Finding", "Detail"]);
    for f in &findings {
        t.row(vec![
            f.provider.clone(),
            format!("{:?}", f.kind),
            f.detail.clone(),
        ]);
    }
    emit_table(cli, &t);
    println!("(country-level changes are the compliance-relevant alerts; churn is routine)");
}

// ------------------------------------------------------------------ §6.2

pub fn run_sec62_bgp(_: &Cli, exp: &Experiment) {
    let incidents: Vec<RouteIncident> = exp
        .world
        .events
        .bgpstream
        .iter()
        .map(|e| RouteIncident {
            kind: match e.kind {
                BgpStreamEventKind::Leak => IncidentKind::Leak,
                BgpStreamEventKind::PossibleHijack => IncidentKind::PossibleHijack,
                BgpStreamEventKind::AsOutage => IncidentKind::AsOutage,
            },
            prefix: e.prefix,
            asn: e.asn,
        })
        .collect();
    let sources = exp.sources();
    let audit = IncidentAudit::run(&incidents, &exp.discovery, &sources);
    let count = |k: IncidentKind| incidents.iter().filter(|i| i.kind == k).count();
    println!(
        "BGPStream events in study week: {} leaks, {} possible hijacks, {} AS outages",
        count(IncidentKind::Leak),
        count(IncidentKind::PossibleHijack),
        count(IncidentKind::AsOutage)
    );
    println!(
        "affecting backend prefixes: {} | affecting backend ASes: {} | all clear: {}",
        audit.prefix_hits,
        audit.asn_hits,
        audit.all_clear()
    );
    println!("(paper: none of the events affected any backend IPs or ASes)");
}

pub fn run_sec62_blocklist(_: &Cli, exp: &Experiment) {
    let firehol = &exp.world.events.firehol;
    let categories: BTreeMap<IpAddr, Vec<String>> = firehol
        .planted
        .iter()
        .map(|h| (h.ip, h.categories.iter().map(|c| c.to_string()).collect()))
        .collect();
    let audit = BlocklistAudit::run(&exp.discovery, &firehol.set, &categories);
    println!(
        "FireHOL aggregate: {} addresses from {} lists",
        firehol.set.len(),
        firehol.source_lists
    );
    println!(
        "backend IPs found on the blocklist: {}",
        audit.findings.len()
    );
    for (provider, n) in audit.per_provider() {
        println!("  {provider}: {n}");
    }
    let mut cat_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &audit.findings {
        for c in &f.categories {
            *cat_counts.entry(c.as_str()).or_default() += 1;
        }
    }
    println!("categories (non-exclusive): {cat_counts:?}");
    println!("(paper: 16 IPs over 6 providers — Baidu 5, Microsoft 4, SAP 4, Google 3, Amazon 2, Alibaba 1)");
}

// ------------------------------------------------------------- §7 cascade

pub fn run_cascade(cli: &Cli, exp: &Experiment) {
    let sources = exp.sources();
    let orgs = [
        "Amazon Web Services",
        "Microsoft Azure",
        "Alibaba Cloud",
        "Akamai Technologies",
    ];
    let deps = cascade_impact(&exp.discovery, &sources, &orgs);
    let mut t = TextTable::new(&["Provider", "AWS", "Azure", "AliCloud", "Akamai"]);
    for d in deps {
        // Skip the cloud operators' own IoT platforms for clarity.
        let row: Vec<String> = orgs
            .iter()
            .map(|o| {
                let share = d.loss_if_down(o);
                if share > 0.0005 {
                    pct(share)
                } else {
                    "-".to_string()
                }
            })
            .collect();
        let mut cells = vec![d.provider.clone()];
        cells.extend(row);
        t.row(cells);
    }
    emit_table(cli, &t);
    println!("(share of each backend's discovered footprint lost if the cloud operator fails)");
}
