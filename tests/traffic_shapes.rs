//! Integration tests for the §5 traffic analyses: the *shapes* the paper
//! reports must emerge from the synthetic world + methodology, end to end.

use iotmap::core::{
    DataSources, DiscoveryPipeline, FootprintInference, PatternRegistry, SharedIpClassifier,
};
use iotmap::netflow::LineId;
use iotmap::nettypes::PortProto;
use iotmap::traffic::{
    source_ablation, visibility_per_provider, AnalysisFold, AnalysisReport, ContactFold, Contacts,
    IpIndex, ScannerAnalysis,
};
use iotmap::world::{TrafficSimulator, World, WorldConfig};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;
use std::sync::OnceLock;

struct Fixture {
    world: World,
    discovery: iotmap::core::DiscoveryResult,
    index: IpIndex,
    contacts: Contacts,
    excluded: HashSet<LineId>,
    report: AnalysisReport,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(42));
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
        Fixture {
            world,
            discovery,
            index,
            contacts,
            excluded,
            report,
        }
    })
}

#[test]
fn most_lines_exchange_under_10mb_daily() {
    // Fig. 12a: ">99% of the subscriber lines … less than 10 MB per day".
    let f = fixture();
    for downstream in [true, false] {
        let e = f.report.fig12a_ecdf(downstream);
        assert!(e.len() > 500, "need data, got {}", e.len());
        let frac = e.fraction_at_or_below(1e7);
        assert!(
            frac > 0.93,
            "P(<=10MB) = {frac} ({})",
            if downstream { "dn" } else { "up" }
        );
    }
}

#[test]
fn down_up_ratios_span_the_paper_range() {
    // Fig. 10: "ratios range from less than 0.33 to more than 3".
    let f = fixture();
    let ratios: Vec<(String, f64)> = f
        .report
        .providers()
        .iter()
        .filter_map(|p| f.report.fig10_ratio(p).map(|r| (p.clone(), r)))
        .collect();
    assert!(
        ratios.iter().any(|(_, r)| *r > 2.0),
        "no download-heavy platform"
    );
    assert!(
        ratios.iter().any(|(_, r)| *r < 0.7),
        "no upload-heavy platform"
    );
    let bosch = ratios
        .iter()
        .find(|(p, _)| p == "bosch")
        .expect("bosch active");
    assert!(bosch.1 > 1.8, "bosch should be download-heavy: {}", bosch.1);
    let sierra = ratios
        .iter()
        .find(|(p, _)| p == "sierra")
        .expect("sierra active");
    assert!(
        sierra.1 < 0.8,
        "sierra telemetry is upload-heavy: {}",
        sierra.1
    );
}

#[test]
fn port_mixes_match_documented_protocols() {
    // Fig. 11: port usage differs per provider; non-standard ports are real.
    let f = fixture();
    let ports = |p: &str| -> Vec<u16> {
        f.report
            .fig11_port_mix(p)
            .into_iter()
            .filter(|(_, frac)| *frac > 0.03)
            .map(|(pp, _)| pp.port)
            .collect()
    };
    // Alibaba runs plaintext MQTT 1883, never 8883.
    let ali = ports("alibaba");
    assert!(ali.contains(&1883), "{ali:?}");
    assert!(!ali.contains(&8883), "{ali:?}");
    // Siemens moves real volume over ActiveMQ's 61616.
    let siemens = f.report.fig11_port_mix("siemens");
    let amq = siemens
        .iter()
        .find(|(pp, _)| pp.port == 61616)
        .map(|(_, frac)| *frac)
        .unwrap_or(0.0);
    assert!(amq > 0.15, "siemens 61616 share {amq}");
    // Cisco Kinetic's custom 9123/9124.
    let cisco = ports("cisco");
    assert!(cisco.contains(&9123) && cisco.contains(&9124), "{cisco:?}");
}

#[test]
fn amqp_heavy_class_exists_on_5671_only() {
    // Fig. 12c: only TCP/5671 shows a 100MB–1GB band, at one provider.
    let f = fixture();
    let amqp = f.report.fig12c_ecdf(PortProto::tcp(5671));
    assert!(!amqp.is_empty());
    let heavy_band = amqp.fraction_in(1e8, 1e9);
    assert!(heavy_band > 0.05, "AMQP heavy band {heavy_band}");
    for port in [443u16, 8883, 1883] {
        let e = f.report.fig12c_ecdf(PortProto::tcp(port));
        if e.is_empty() {
            continue;
        }
        assert!(
            e.fraction_in(1e8, 1e9) < heavy_band / 2.0,
            "port {port} should not carry the heavy band"
        );
    }
}

#[test]
fn diurnal_patterns_differ_by_provider_type() {
    // Fig. 8: consumer platforms peak in the evening; telemetry is flat.
    let f = fixture();
    let amazon = f.report.fig8_lines("amazon").unwrap();
    let google = f.report.fig8_lines("google").unwrap();
    assert!(
        amazon.diurnality() > google.diurnality() + 0.5,
        "amazon {} vs google {}",
        amazon.diurnality(),
        google.diurnality()
    );
    // Evening platforms peak between 17:00 and 22:00 on most days.
    let peaks = amazon.daily_peak_hours();
    let evening = peaks.iter().filter(|&&h| (17..=22).contains(&h)).count();
    assert!(evening >= peaks.len() - 1, "{peaks:?}");
}

#[test]
fn region_crossing_shapes() {
    // Figs. 13/14.
    let f = fixture();
    let (eu_only, us_any, _mix, other_only) = f.report.fig13_line_buckets();
    assert!(eu_only > 0.25, "EU-only lines {eu_only}");
    assert!((0.2..0.8).contains(&us_any), "US-touching lines {us_any}");
    assert!(other_only < 0.15, "elsewhere-only {other_only}");
    let traffic = f.report.fig14_traffic_buckets();
    assert!(traffic[0] > 0.45, "EU traffic share {}", traffic[0]);
    assert!(traffic[1] > 0.10, "US traffic share {}", traffic[1]);
    assert!(traffic[0] > traffic[1], "EU must dominate");
    assert!(traffic[2] < 0.15, "Asia share {}", traffic[2]);
}

#[test]
fn daily_active_line_fraction_matches_scale() {
    // §5.2: 2.32M of 15M lines (≈15%) show IoT activity per day; v6 is an
    // order of magnitude rarer.
    let f = fixture();
    let (v4, v6) = f.report.daily_active_lines();
    let frac = v4 / f.world.isp.lines.len() as f64;
    assert!(
        (0.08..0.30).contains(&frac),
        "daily v4 active fraction {frac}"
    );
    assert!(v6 > 0.0 && v6 < v4 / 3.0, "v6 {v6} vs v4 {v4}");
}

#[test]
fn scanner_curve_shape() {
    // Fig. 5: flagged lines fall steeply with the threshold; visibility
    // rises only slowly.
    let f = fixture();
    let analysis = ScannerAnalysis::new(&f.index, &f.contacts);
    let curve = analysis.curve(&[10, 100, 1000]);
    assert!(curve[0].lines_excluded >= curve[1].lines_excluded);
    assert!(curve[1].lines_excluded >= curve[2].lines_excluded);
    let vis_gain = curve[2].v4_visibility - curve[0].v4_visibility;
    assert!(
        vis_gain < 0.25,
        "visibility should not depend much on the threshold: {vis_gain}"
    );
    assert!((0.1..0.7).contains(&curve[1].v4_visibility));
}

#[test]
fn china_only_platforms_invisible_from_europe() {
    // Fig. 6: O3/O5 (Huawei, Baidu) have essentially no EU activity.
    let f = fixture();
    let vis = visibility_per_provider(&f.index, &f.contacts, &f.excluded);
    for name in ["baidu", "huawei"] {
        let v = vis.iter().find(|v| v.provider == name).unwrap();
        // At small scale the Chinese platforms have a handful of backends;
        // one stray expat household can touch a couple of them, so bound
        // the *lines*, and the visibility only loosely.
        assert!(v.lines <= 5, "{name} lines {}", v.lines);
        assert!(v.v4 < 0.5, "{name} visibility {}", v.v4);
    }
    // Google in contrast is highly visible.
    let google = vis.iter().find(|v| v.provider == "google").unwrap();
    assert!(google.v4 > 0.45, "google visibility {}", google.v4);
}

#[test]
fn tls_only_discovery_loses_sni_providers_lines() {
    // Fig. 7: with certificate-only discovery, SNI-gated platforms lose
    // almost all their lines; cert-friendly ones lose almost none.
    let f = fixture();
    let mut restricted: HashMap<String, HashSet<IpAddr>> = HashMap::new();
    for (name, disc) in f.discovery.per_provider() {
        restricted.insert(
            name.to_string(),
            disc.ips_from_sources(&[iotmap::core::Source::Certificate]),
        );
    }
    let ablation = source_ablation(&f.index, &f.contacts, &f.excluded, &restricted);
    let loss = |n: &str| ablation.iter().find(|(p, _)| p == n).unwrap().1;
    assert!(loss("google") > 0.85, "google loss {}", loss("google"));
    assert!(loss("sierra") > 0.85, "sierra loss {}", loss("sierra"));
    assert!(
        loss("microsoft") < 0.15,
        "microsoft loss {}",
        loss("microsoft")
    );
    assert!(loss("sap") < 0.15, "sap loss {}", loss("sap"));
}

#[test]
fn shared_infrastructure_is_excluded_from_the_index() {
    let f = fixture();
    // Google's discovered set is larger than its indexed set (the shared
    // HTTPS front is pruned, §3.4).
    let g = f.index.provider_index("google").unwrap();
    let indexed = f.index.ips_of(g).len();
    let discovered = f.discovery.get("google").unwrap().ips.len();
    assert!(
        indexed < discovered,
        "indexed {indexed} vs discovered {discovered}"
    );
}
