//! §3–§4 and §3.6: Table 1, figs. 3–4, the vantage-point, validation,
//! shared-IP, diversity, observed-port and December-consistency checks,
//! and the limitation and fault sweeps that prepare their own worlds.

use super::{emit_table, prepare, require_provider, Cli};
use iotmap_bench::Experiment;
use iotmap_core::report::{pct, table1, TextTable};
use iotmap_core::{
    Characterizer, DataSources, DiscoveryPipeline, DiscoveryResult, GroundTruthReport,
    ObservedPorts, PatternRegistry, Source, StabilityAnalysis,
};
use iotmap_faults::FaultPlan;
use iotmap_netflow::{FlowFold, FlowRecord};
use iotmap_nettypes::{Date, StudyPeriod};
use iotmap_world::WorldConfig;
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

// ---------------------------------------------------------------- Table 1

pub fn run_table1(cli: &Cli, exp: &Experiment) {
    let registry = PatternRegistry::paper_defaults();
    let sources = exp.sources();
    let mut rows = Vec::new();
    for patterns in registry.providers() {
        let disc = require_provider(exp, patterns.name);
        let fp = &exp.footprints[patterns.name];
        rows.push(Characterizer::row(patterns, disc, fp, &sources));
    }
    emit_table(cli, &table1(&rows));
}

// ------------------------------------------------------------------ Fig 3

pub fn run_fig3(cli: &Cli, exp: &Experiment) {
    let mut t = TextTable::new(&[
        "Provider",
        "Family",
        "Certs",
        "V6Scan",
        "PassiveDNS",
        "ActiveDNS",
        "Multiple",
        "Total",
    ]);
    for (name, disc) in exp.discovery.per_provider() {
        for v6 in [false, true] {
            let (excl, multi) = disc.source_breakdown(v6);
            let total: usize = excl.values().sum::<usize>() + multi;
            if total == 0 {
                continue;
            }
            t.row(vec![
                name.to_string(),
                if v6 { "IPv6" } else { "IPv4" }.to_string(),
                excl.get(&Source::Certificate)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                excl.get(&Source::Ipv6Scan)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                excl.get(&Source::PassiveDns)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                excl.get(&Source::ActiveDns)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                multi.to_string(),
                total.to_string(),
            ]);
        }
    }
    emit_table(cli, &t);
}

// ------------------------------------------------------------------ Fig 4

pub fn run_fig4(cli: &Cli, exp: &Experiment) {
    let reference = Date::new(2022, 2, 28).epoch_days();
    let compares = [
        Date::new(2022, 3, 1).epoch_days(),
        Date::new(2022, 3, 3).epoch_days(),
        Date::new(2022, 3, 6).epoch_days(),
    ];
    let mut t = TextTable::new(&["Provider", "vs", "Both", "New", "Gone", "Stability"]);
    for (name, disc) in exp.discovery.per_provider() {
        for diff in StabilityAnalysis::figure4(disc, reference, &compares) {
            t.row(vec![
                name.to_string(),
                format!("{}", Date::from_epoch_days(diff.compare_day)),
                diff.both.to_string(),
                diff.added.to_string(),
                diff.removed.to_string(),
                pct(diff.stability()),
            ]);
        }
    }
    emit_table(cli, &t);
}

// --------------------------------------------------------- §3.3 vantage

pub fn run_vantage(cli: &Cli, exp: &Experiment) {
    use iotmap_dns::{ActiveCampaign, VantagePoint};
    let sources = exp.sources();
    let period = cli.config.study_period;
    let mut vps = VantagePoint::paper_defaults();
    let single = DiscoveryPipeline::with_campaign(
        PatternRegistry::paper_defaults(),
        ActiveCampaign::new(vec![vps.remove(0)]),
    );
    let multi = DiscoveryPipeline::new(PatternRegistry::paper_defaults());
    let s = single
        .run_channels(&sources, period, &[Source::ActiveDns])
        .all_ips()
        .len();
    let m = multi
        .run_channels(&sources, period, &[Source::ActiveDns])
        .all_ips()
        .len();
    println!("active-DNS IPs from 1 vantage point : {s}");
    println!("active-DNS IPs from 3 vantage points: {m}");
    println!(
        "coverage gain: {} (paper: ≈17%)",
        pct(m as f64 / s.max(1) as f64 - 1.0)
    );
}

// --------------------------------------------------------- §3.4 validation

/// Per-IP byte totals for flows into a published prefix set.
struct PublishedSpaceFold {
    prefixes: Vec<iotmap_nettypes::Ipv4Prefix>,
}

impl FlowFold for PublishedSpaceFold {
    type Partial = HashMap<IpAddr, u64>;

    fn make(&self) -> Self::Partial {
        HashMap::new()
    }

    fn fold(&self, active: &mut Self::Partial, r: &FlowRecord) {
        if let IpAddr::V4(a) = r.remote {
            if self.prefixes.iter().any(|p| p.contains(a)) {
                *active.entry(r.remote).or_default() += r.bytes;
            }
        }
    }

    fn merge(&self, active: &mut Self::Partial, other: Self::Partial) {
        for (ip, bytes) in other {
            *active.entry(ip).or_default() += bytes;
        }
    }
}

pub fn run_validation(_: &Cli, exp: &Experiment) {
    let pub_truth = &exp.world.published;
    for (name, published) in [
        ("cisco", &pub_truth.cisco_ips),
        ("siemens", &pub_truth.siemens_ips),
    ] {
        let disc = require_provider(exp, name);
        let r = GroundTruthReport::against_ip_list(name, disc, published);
        println!(
            "{name}: published {} IPs; discovered {} inside + {} outside; recall of published {}",
            r.published_total,
            r.discovered_inside,
            r.discovered_outside,
            pct(r.recall_of_published(disc, published)),
        );
    }
    let disc = require_provider(exp, "microsoft");
    let r = GroundTruthReport::against_prefixes("microsoft", disc, &pub_truth.microsoft_prefixes);
    println!(
        "microsoft: published prefixes cover {} addresses; discovered {} inside them (+{} outside)",
        r.published_total, r.discovered_inside, r.discovered_outside
    );

    // §3.4's traffic cross-check: which published IPs are *actually
    // active* in ISP flows, and how many of those did discovery miss?
    // This deliberately looks at raw flows, not the discovered index —
    // the whole point is to catch active published IPs the methodology
    // missed.
    eprintln!("# replaying traffic against Microsoft's published space…");
    let fold = PublishedSpaceFold {
        prefixes: pub_truth.microsoft_prefixes.clone(),
    };
    // The same faulted border router the contact and analysis passes see.
    let (active, _) = exp
        .simulator()
        .run_fold(exp.world.config.study_period, &fold);
    let cov = iotmap_core::validate::ActiveCoverage::compute(disc, &active);
    println!(
        "microsoft: {} published-space IPs active at the ISP; methodology misses {} (≈{} of that traffic volume)",
        cov.active_published,
        cov.missed,
        pct(cov.missed_traffic_fraction)
    );
}

// --------------------------------------------------------- §3.4 shared IPs

pub fn run_shared(cli: &Cli, exp: &Experiment) {
    let registry = PatternRegistry::paper_defaults();
    let classifier = iotmap_core::SharedIpClassifier::new(&registry);
    let period = exp.world.config.study_period;
    let mut t = TextTable::new(&["Provider", "Dedicated", "Shared"]);
    for (name, disc) in exp.discovery.per_provider() {
        let (dedicated, shared) = classifier.split_provider(disc, &exp.world.passive_dns, period);
        if dedicated.is_empty() && shared.is_empty() {
            continue;
        }
        t.row(vec![
            name.to_string(),
            dedicated.len().to_string(),
            shared.len().to_string(),
        ]);
    }
    emit_table(cli, &t);
    println!("(Google's HTTPS front and the Akamai-fronted Oracle share are the shared sets.)");
}

// --------------------------------------------------------- §4.3 diversity

pub fn run_diversity(cli: &Cli, exp: &Experiment) {
    let sources = exp.sources();
    let mut t = TextTable::new(&["Provider", "#AS", "#v4 prefixes", "#v6 IPs", "Anycast(doc)"]);
    let registry = PatternRegistry::paper_defaults();
    for (name, disc) in exp.discovery.per_provider() {
        let mut asns = HashSet::new();
        let mut prefixes = HashSet::new();
        for &ip in disc.ips.keys() {
            if let IpAddr::V4(a) = ip {
                if let Some((prefix, origin)) = sources.routeviews.lookup_v4(a) {
                    asns.insert(origin.asn);
                    prefixes.insert(prefix);
                }
            }
        }
        let v6 = disc.v6_ips().count();
        let anycast = registry.get(name).is_some_and(|p| p.documented_anycast);
        t.row(vec![
            name.to_string(),
            asns.len().to_string(),
            prefixes.len().to_string(),
            v6.to_string(),
            if anycast { "yes" } else { "-" }.to_string(),
        ]);
    }
    emit_table(cli, &t);
}

// ---------------------------------------------------- §4.4 observed ports

pub fn run_ports_observed(cli: &Cli, exp: &Experiment) {
    let registry = PatternRegistry::paper_defaults();
    let mut t = TextTable::new(&[
        "Provider",
        "Open ports (gateways listening)",
        "Undocumented",
        "Cert-blind",
    ]);
    for patterns in registry.providers() {
        let disc = require_provider(exp, patterns.name);
        let obs = ObservedPorts::analyze(patterns, disc, &exp.scans.censys);
        if obs.listeners.is_empty() {
            continue;
        }
        let listeners: Vec<String> = obs
            .listeners
            .iter()
            .map(|(p, n)| format!("{p}:{n}"))
            .collect();
        let undoc: Vec<String> = obs.undocumented.iter().map(|p| p.to_string()).collect();
        let blind: Vec<String> = obs
            .cert_blind_ports()
            .iter()
            .map(|p| p.to_string())
            .collect();
        t.row(vec![
            patterns.name.to_string(),
            listeners.join(" "),
            if undoc.is_empty() {
                "-".into()
            } else {
                undoc.join(" ")
            },
            if blind.is_empty() {
                "-".into()
            } else {
                blind.join(" ")
            },
        ]);
    }
    emit_table(cli, &t);
    println!("(cert-blind = listening ports a TLS-only scan can never identify — §4.4's point)");
}

// ------------------------------------------- §3.1 Dec-vs-Feb consistency

pub fn run_consistency(cli: &Cli, exp: &Experiment) {
    // The paper collected preliminary (IPv4-only) results for Dec 3–10,
    // 2021 and kept the February week because "the results are consistent".
    eprintln!("# rerunning collection + discovery for the December week…");
    let dec_result = december_discovery(exp, |_, result| result);

    let mut t = TextTable::new(&["Provider", "Feb v4", "Dec v4", "Jaccard"]);
    for (name, feb) in exp.discovery.per_provider() {
        let feb_set: HashSet<IpAddr> = feb.v4_ips().collect();
        let dec_set: HashSet<IpAddr> = dec_result
            .get(name)
            .map(|d| d.v4_ips().collect())
            .unwrap_or_default();
        if feb_set.is_empty() && dec_set.is_empty() {
            continue;
        }
        let inter = feb_set.intersection(&dec_set).count();
        let union = feb_set.union(&dec_set).count().max(1);
        t.row(vec![
            name.to_string(),
            feb_set.len().to_string(),
            dec_set.len().to_string(),
            pct(inter as f64 / union as f64),
        ]);
    }
    emit_table(cli, &t);
    println!(
        "(paper §3.1: the December and February collections are consistent;          cloud-hosted fleets churn between quarters, dedicated ones do not)"
    );
}

/// Collection and discovery rerun over the December 2021 week on the
/// same world, without the latency prober; `f` gets that week's data
/// sources and discovery result.
pub fn december_discovery<R>(
    exp: &Experiment,
    f: impl FnOnce(&DataSources<'_>, DiscoveryResult) -> R,
) -> R {
    let dec = StudyPeriod::outage_week();
    let scans = exp.world.collect_scan_data(dec);
    let sources = DataSources {
        censys: &scans.censys,
        zgrab_v6: &scans.zgrab_v6,
        passive_dns: &exp.world.passive_dns,
        zones: &exp.world.zones,
        routeviews: &exp.world.bgp,
        latency: None,
    };
    let result = DiscoveryPipeline::new(PatternRegistry::paper_defaults()).run(&sources, dec);
    f(&sources, result)
}

// -------------------------------------- §3.6 limitation ablation sweeps

pub fn run_ablation_coverage(cli: &Cli, _: &Experiment) {
    // §3.6: "even DNSDB has its own limitations, e.g., it does not have
    // full coverage of all DNS requests." Sweep the sensor coverage.
    let mut t = TextTable::new(&["Passive-DNS coverage", "Discovered v4", "Discovered v6"]);
    for coverage in [0.3, 0.6, 0.92, 1.0] {
        eprintln!("# coverage sweep: {coverage} …");
        let cfg = WorldConfig {
            passive_dns_coverage: coverage,
            ..cli.config.clone()
        };
        let exp = prepare(cli, &cfg, FaultPlan::none());
        t.row(vec![
            format!("{coverage:.2}"),
            exp.discovery.all_v4().len().to_string(),
            exp.discovery.all_v6().len().to_string(),
        ]);
    }
    emit_table(cli, &t);
    println!("(discovery degrades gracefully: certificates and active DNS backfill most losses)");
}

pub fn run_ablation_hitlist(cli: &Cli, _: &Experiment) {
    // §3.6: "our ability to discover IPv6 addresses is directly influenced
    // by the coverage of the chosen IPv6 hitlists."
    let mut t = TextTable::new(&["Hitlist coverage", "Discovered v6", "v6 via scans only"]);
    for coverage in [0.2, 0.5, 0.9, 1.0] {
        eprintln!("# hitlist sweep: {coverage} …");
        let cfg = WorldConfig {
            hitlist_coverage: coverage,
            ..cli.config.clone()
        };
        let exp = prepare(cli, &cfg, FaultPlan::none());
        let v6 = exp.discovery.all_v6().len();
        let scan_only: usize = exp
            .discovery
            .per_provider()
            .map(|(_, d)| {
                d.ips
                    .iter()
                    .filter(|(ip, ev)| {
                        ip.is_ipv6() && ev.sources.sole_source() == Some(Source::Ipv6Scan)
                    })
                    .count()
            })
            .sum();
        t.row(vec![
            format!("{coverage:.2}"),
            v6.to_string(),
            scan_only.to_string(),
        ]);
    }
    emit_table(cli, &t);
    println!("(IPv6 discovery scales with hitlist quality — §3.6's stated limitation)");
}

pub fn run_robustness(cli: &Cli, _: &Experiment) {
    // The §3.3/§3.4 blind spots made operational: rerun the complete
    // methodology (discovery → footprints → traffic) under seeded fault
    // plans of increasing severity and show graceful degradation —
    // coverage shrinks monotonically, but every source keeps
    // contributing and the run always completes.
    let mut t = TextTable::new(&[
        "Faults",
        "Discovered v4",
        "Discovered v6",
        "Providers",
        "Backend down GB",
        "Degraded sources",
    ]);
    for name in ["none", "light", "heavy"] {
        eprintln!("# robustness sweep: {name} faults…");
        let plan = FaultPlan::preset(name).expect("built-in preset");
        let ((exp, report), run) = iotmap_obs::capture(|| {
            let exp = prepare(cli, &cli.config, plan);
            let (_, _, report) = exp.full_traffic_analysis(cli.config.study_period);
            (exp, report)
        });
        let down: u64 = report
            .providers()
            .iter()
            .map(|p| report.total_downstream(p))
            .sum();
        let providers = exp
            .discovery
            .per_provider()
            .filter(|(_, d)| !d.ips.is_empty())
            .count();
        let completeness = run.fault_completeness();
        let degraded = if completeness.is_empty() {
            "-".to_string()
        } else {
            completeness
                .iter()
                .map(|s| s.source.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        t.row(vec![
            name.to_string(),
            exp.discovery.all_v4().len().to_string(),
            exp.discovery.all_v6().len().to_string(),
            providers.to_string(),
            format!("{:.2}", down as f64 / 1e9),
            degraded,
        ]);
    }
    emit_table(cli, &t);
    println!(
        "(heavier fault plans shrink coverage monotonically; every degraded source still contributes)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_netflow::{Direction, LineId};
    use iotmap_nettypes::PortProto;

    /// The fold law: folding any split of the flow stream into two
    /// partials and merging them equals the serial fold.
    #[test]
    fn published_space_fold_merges_like_it_folds() {
        let fold = PublishedSpaceFold {
            prefixes: vec!["10.1.0.0/16".parse().unwrap()],
        };
        let records: Vec<FlowRecord> = (0..24u64)
            .map(|i| FlowRecord {
                time: Date::new(2022, 3, 1).midnight(),
                line: LineId(i % 5),
                remote: format!("10.{}.0.{}", i % 3, i % 4).parse().unwrap(),
                port: PortProto::tcp(443),
                direction: Direction::Downstream,
                bytes: 100 * (i + 1),
                packets: 1,
            })
            .collect();
        let serial = fold.fold_all(&records);
        assert_eq!(serial.len(), 4, "only the four 10.1.0.x remotes count");
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let mut left = fold.fold_all(a);
            fold.merge(&mut left, fold.fold_all(b));
            assert_eq!(left, serial, "split at {split}");
        }
    }
}
