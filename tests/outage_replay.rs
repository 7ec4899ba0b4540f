//! Integration test of §6.1: the December 2021 AWS us-east-1 outage as
//! seen from the ISP — Fig. 15's volume crater vs Fig. 16's sticky
//! subscriber-line counts.

use iotmap::core::{
    DataSources, DiscoveryPipeline, FootprintInference, PatternRegistry, SharedIpClassifier,
};
use iotmap::nettypes::StudyPeriod;
use iotmap::traffic::{
    AnalysisFold, AnalysisReport, ContactFold, IpIndex, RegionGroup, ScannerAnalysis,
};
use iotmap::world::{TrafficSimulator, World, WorldConfig};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

fn report() -> &'static (World, AnalysisReport) {
    static FIXTURE: OnceLock<(World, AnalysisReport)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(42).with_outage_week());
        let period = world.config.study_period;
        let scans = world.collect_scan_data(period);
        let sources = DataSources {
            censys: &scans.censys,
            zgrab_v6: &scans.zgrab_v6,
            passive_dns: &world.passive_dns,
            zones: &world.zones,
            routeviews: &world.bgp,
            latency: None,
        };
        let registry = PatternRegistry::paper_defaults();
        let discovery =
            DiscoveryPipeline::new(PatternRegistry::paper_defaults()).run(&sources, period);
        let classifier = SharedIpClassifier::new(&registry);
        let mut footprints = HashMap::new();
        let mut shared = HashSet::new();
        for (name, disc) in discovery.per_provider() {
            footprints.insert(name.to_string(), FootprintInference::infer(disc, &sources));
            let (_, s) = classifier.split_provider(disc, &world.passive_dns, period);
            shared.extend(s.keys().copied());
        }
        let index = IpIndex::build(&discovery, &footprints, &shared);
        let sim = TrafficSimulator::new(&world);
        let contact_fold = ContactFold::new(&index);
        let contacts = contact_fold.into_contacts(sim.run_fold(period, &contact_fold).0);
        let excluded = ScannerAnalysis::new(&index, &contacts).flagged_lines(100);
        let fold = AnalysisFold::new(&index, &excluded, period);
        let (partial, _) = sim.run_fold(period, &fold);
        let report = fold.into_report(partial);
        (world, report)
    })
}

/// Day totals for one T1 region series.
fn day_totals(report: &AnalysisReport, group: RegionGroup, lines: bool) -> Vec<f64> {
    let series = report
        .region_series("amazon", group, lines)
        .expect("series");
    let mut out = vec![0.0; 7];
    for h in 0..series.len() {
        out[(h / 24).min(6)] += series.get(h);
    }
    out
}

/// Index of December 7 within the outage week.
fn outage_day_index() -> usize {
    let week = StudyPeriod::outage_week();
    ((StudyPeriod::aws_outage_window().start.epoch_days() - week.start.epoch_days()) as usize)
        .min(6)
}

fn delta_vs_other_days(totals: &[f64], day: usize) -> f64 {
    let others: f64 = totals
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != day)
        .map(|(_, v)| *v)
        .sum::<f64>()
        / (totals.len() - 1) as f64;
    totals[day] / others.max(1e-9) - 1.0
}

#[test]
fn us_east_downstream_craters_on_the_outage_day() {
    // Fig. 15: a drop well beyond the paper's ">14.5%", and below every
    // other day of the week.
    let (_, report) = report();
    let day = outage_day_index();
    let totals = day_totals(report, RegionGroup::UsEast1, false);
    let delta = delta_vs_other_days(&totals, day);
    assert!(delta < -0.15, "US-East outage-day delta {delta}");
    let min_other = totals
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != day)
        .map(|(_, v)| *v)
        .fold(f64::INFINITY, f64::min);
    assert!(
        totals[day] < min_other,
        "outage day {} must be the weekly minimum ({min_other})",
        totals[day]
    );
}

#[test]
fn eu_region_barely_moves_and_dominates() {
    let (_, report) = report();
    let day = outage_day_index();
    let eu = day_totals(report, RegionGroup::Europe, false);
    let us = day_totals(report, RegionGroup::UsEast1, false);
    let delta = delta_vs_other_days(&eu, day);
    assert!(delta.abs() < 0.25, "EU outage-day delta {delta}");
    // §6.1: the EU region serves a multiple of the US-East volume.
    let eu_total: f64 = eu.iter().sum();
    let us_total: f64 = us.iter().sum();
    assert!(
        eu_total > 1.5 * us_total,
        "EU {eu_total} vs US-East {us_total}"
    );
}

#[test]
fn subscriber_lines_stay_put_while_volume_drops() {
    // Fig. 16: devices keep retrying, so line counts dip far less than
    // bytes do.
    let (_, report) = report();
    let day = outage_day_index();
    let vol_delta = delta_vs_other_days(&day_totals(report, RegionGroup::UsEast1, false), day);
    let line_delta = delta_vs_other_days(&day_totals(report, RegionGroup::UsEast1, true), day);
    assert!(line_delta > -0.25, "line delta {line_delta}");
    assert!(
        line_delta > vol_delta + 0.10,
        "lines ({line_delta}) must dip far less than volume ({vol_delta})"
    );
}

#[test]
fn outage_week_has_its_own_calendar() {
    let (world, _) = report();
    assert_eq!(world.config.study_period, StudyPeriod::outage_week());
    assert!(StudyPeriod::outage_week().contains(StudyPeriod::aws_outage_window().start));
}
