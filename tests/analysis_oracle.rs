//! An independent oracle for the §5 analysis fold.
//!
//! `Oracle` is the straightforward per-flow aggregation: one hash-set
//! insert per distinct (provider, hour) line, one map entry per
//! (line, day, …) key, std hashing throughout. `AnalysisFold` keeps
//! per-line bitsets and day sums instead; every figure accessor of its
//! report must read exactly what the oracle computes, on real exported
//! streams (small preset × faults none|heavy × threads 1|4) and on a
//! synthetic stream over a period longer than 64 days.

use iotmap::core::footprint::IpLocation;
use iotmap::core::{DiscoveryResult, Footprint, IpEvidence, ProviderDiscovery};
use iotmap::faults::FaultPlan;
use iotmap::netflow::{Direction, FlowFold, FlowRecord, LineId, StoringSink};
use iotmap::nettypes::{Continent, Location, PortProto, SimDuration};
use iotmap::prelude::*;
use iotmap::stats::Ecdf;
use iotmap::traffic::{AnalysisFold, IpIndex};
use iotmap::world::TrafficSimulator;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::IpAddr;

/// The map-based reference aggregation.
struct Oracle {
    providers: usize,
    start_hour: u64,
    hours: usize,
    hourly_lines: Vec<HashSet<LineId>>,
    hourly_lines_region: Vec<HashSet<LineId>>,
    hourly_dn: Vec<u64>,
    hourly_dn_region: Vec<u64>,
    total_dn: Vec<u64>,
    total_up: Vec<u64>,
    port_bytes: HashMap<(usize, PortProto), u64>,
    line_day_dn: HashMap<(LineId, i64), u64>,
    line_day_up: HashMap<(LineId, i64), u64>,
    line_day_prov_dn: HashMap<(LineId, i64, usize), u64>,
    line_day_port_dn: HashMap<(LineId, i64, PortProto), u64>,
    line_buckets: HashMap<LineId, u8>,
    bucket_bytes: [u64; 4],
    daily_v4: BTreeMap<i64, HashSet<LineId>>,
    daily_v6: BTreeMap<i64, HashSet<LineId>>,
}

impl Oracle {
    fn run(
        index: &IpIndex,
        excluded: &HashSet<LineId>,
        period: StudyPeriod,
        flows: &[FlowRecord],
    ) -> Oracle {
        let providers = index.providers().len();
        let hours = period.hours().count();
        let mut o = Oracle {
            providers,
            start_hour: period.start.epoch_hours(),
            hours,
            hourly_lines: vec![HashSet::new(); providers * hours],
            hourly_lines_region: vec![HashSet::new(); providers * 3 * hours],
            hourly_dn: vec![0; providers * hours],
            hourly_dn_region: vec![0; providers * 3 * hours],
            total_dn: vec![0; providers],
            total_up: vec![0; providers],
            port_bytes: HashMap::new(),
            line_day_dn: HashMap::new(),
            line_day_up: HashMap::new(),
            line_day_prov_dn: HashMap::new(),
            line_day_port_dn: HashMap::new(),
            line_buckets: HashMap::new(),
            bucket_bytes: [0; 4],
            daily_v4: BTreeMap::new(),
            daily_v6: BTreeMap::new(),
        };
        for r in flows {
            if excluded.contains(&r.line) || !period.contains(r.time) {
                continue;
            }
            let Some(meta) = index.get(r.remote) else {
                continue;
            };
            let p = meta.provider;
            let h = (r.time.epoch_hours() - o.start_hour) as usize;
            let day = r.time.epoch_days();
            let group = if index.is_us_east1(meta.region) {
                0
            } else if meta.continent == Some(Continent::Europe) {
                1
            } else {
                2
            };
            let bucket = match meta.continent.map(|c| c.paper_bucket()) {
                Some("EU") => 0,
                Some("US") => 1,
                Some("Asia") => 2,
                _ => 3,
            };
            let region = (p * 3 + group) * hours + h;
            o.hourly_lines[p * hours + h].insert(r.line);
            o.hourly_lines_region[region].insert(r.line);
            match r.direction {
                Direction::Downstream => {
                    o.hourly_dn[p * hours + h] += r.bytes;
                    o.hourly_dn_region[region] += r.bytes;
                    o.total_dn[p] += r.bytes;
                    *o.line_day_dn.entry((r.line, day)).or_default() += r.bytes;
                    *o.line_day_prov_dn.entry((r.line, day, p)).or_default() += r.bytes;
                    *o.line_day_port_dn.entry((r.line, day, r.port)).or_default() += r.bytes;
                }
                Direction::Upstream => {
                    o.total_up[p] += r.bytes;
                    *o.line_day_up.entry((r.line, day)).or_default() += r.bytes;
                }
            }
            *o.port_bytes.entry((p, r.port)).or_default() += r.bytes;
            *o.line_buckets.entry(r.line).or_default() |= 1 << bucket;
            o.bucket_bytes[bucket] += r.bytes;
            let daily = if r.remote.is_ipv4() {
                &mut o.daily_v4
            } else {
                &mut o.daily_v6
            };
            daily.entry(day).or_default().insert(r.line);
        }
        o
    }

    fn hourly<T>(&self, v: &[T], base: usize, f: impl Fn(&T) -> f64) -> Vec<f64> {
        v[base * self.hours..(base + 1) * self.hours]
            .iter()
            .map(f)
            .collect()
    }

    /// Everything the report's accessors expose, as the oracle sees it.
    fn view(&self, names: &[String]) -> View {
        let ecdf = |v: Vec<u64>| ecdf_text(&Ecdf::new(v.into_iter().map(|b| b as f64).collect()));
        let per_provider = (0..self.providers)
            .map(|p| {
                let total: u64 = self
                    .port_bytes
                    .iter()
                    .filter(|((pp, _), _)| *pp == p)
                    .map(|(_, b)| b)
                    .sum();
                let mut port_mix: Vec<(PortProto, f64)> = self
                    .port_bytes
                    .iter()
                    .filter(|((pp, _), _)| *pp == p && total > 0)
                    .map(|((_, port), b)| (*port, *b as f64 / total as f64))
                    .collect();
                port_mix.sort_by_key(|(port, _)| *port);
                ProviderView {
                    name: names[p].clone(),
                    lines: self.hourly(&self.hourly_lines, p, |s| s.len() as f64),
                    downstream: self.hourly(&self.hourly_dn, p, |&b| b as f64),
                    regions: (0..3)
                        .map(|g| {
                            (
                                self.hourly(&self.hourly_lines_region, p * 3 + g, |s| {
                                    s.len() as f64
                                }),
                                self.hourly(&self.hourly_dn_region, p * 3 + g, |&b| b as f64),
                            )
                        })
                        .collect(),
                    ratio: (self.total_up[p] > 0)
                        .then(|| self.total_dn[p] as f64 / self.total_up[p] as f64),
                    total_downstream: self.total_dn[p],
                    port_mix,
                    fig12b: ecdf(
                        self.line_day_prov_dn
                            .iter()
                            .filter(|((_, _, pp), _)| *pp == p)
                            .map(|(_, &b)| b)
                            .collect(),
                    ),
                }
            })
            .collect();

        let mut by_port: BTreeMap<PortProto, u64> = BTreeMap::new();
        for ((_, _, port), b) in &self.line_day_port_dn {
            *by_port.entry(*port).or_default() += b;
        }
        let mut top_ports: Vec<(PortProto, u64)> = by_port.into_iter().collect();
        top_ports.sort_by_key(|(_, b)| std::cmp::Reverse(*b));
        let fig12c = top_ports
            .iter()
            .map(|&(port, _)| {
                let samples = self
                    .line_day_port_dn
                    .iter()
                    .filter(|((_, _, pp), _)| *pp == port)
                    .map(|(_, &b)| b)
                    .collect();
                (port, ecdf(samples))
            })
            .collect();

        let lines = self.line_buckets.len().max(1) as f64;
        let count = |pred: fn(u8) -> bool| {
            self.line_buckets.values().filter(|&&m| pred(m)).count() as f64 / lines
        };
        let share = |v: &[u64; 4]| {
            let total: u64 = v.iter().sum();
            v.map(|n| {
                if total > 0 {
                    n as f64 / total as f64
                } else {
                    0.0
                }
            })
        };
        let mean = |days: &BTreeMap<i64, HashSet<LineId>>| {
            if days.is_empty() {
                0.0
            } else {
                days.values().map(|s| s.len()).sum::<usize>() as f64 / days.len() as f64
            }
        };
        View {
            per_provider,
            fig12a: [
                ecdf(self.line_day_dn.values().copied().collect()),
                ecdf(self.line_day_up.values().copied().collect()),
            ],
            fig12c,
            top_ports,
            fig13: (
                count(|m| m == 0b0001),
                count(|m| m & 0b0010 != 0),
                count(|m| m & 0b0011 == 0b0011),
                count(|m| m & 0b0011 == 0),
            ),
            fig14: share(&self.bucket_bytes),
            daily_active_lines: (mean(&self.daily_v4), mean(&self.daily_v6)),
            total_lines: self.line_buckets.len(),
        }
    }
}

/// An ECDF's samples, in its (sorted) debug form.
fn ecdf_text(e: &Ecdf) -> String {
    format!("{e:?}")
}

#[derive(Debug, PartialEq)]
struct ProviderView {
    name: String,
    lines: Vec<f64>,
    downstream: Vec<f64>,
    /// `(lines, downstream)` per region group.
    regions: Vec<(Vec<f64>, Vec<f64>)>,
    ratio: Option<f64>,
    total_downstream: u64,
    /// Fig. 11, ordered by port (the report orders by share).
    port_mix: Vec<(PortProto, f64)>,
    fig12b: String,
}

/// Every figure accessor's output.
#[derive(Debug, PartialEq)]
struct View {
    per_provider: Vec<ProviderView>,
    fig12a: [String; 2],
    fig12c: Vec<(PortProto, String)>,
    top_ports: Vec<(PortProto, u64)>,
    fig13: (f64, f64, f64, f64),
    fig14: [f64; 4],
    daily_active_lines: (f64, f64),
    total_lines: usize,
}

fn view(report: &AnalysisReport) -> View {
    let series =
        |s: Option<iotmap::stats::HourlySeries>| s.expect("known provider").values().to_vec();
    let per_provider = report
        .providers()
        .iter()
        .map(|name| {
            let mut port_mix = report.fig11_port_mix(name);
            port_mix.sort_by_key(|(port, _)| *port);
            ProviderView {
                name: name.clone(),
                lines: series(report.fig8_lines(name)),
                downstream: series(report.fig9_downstream(name)),
                regions: AnalysisReport::region_groups()
                    .iter()
                    .map(|&g| {
                        (
                            series(report.region_series(name, g, true)),
                            series(report.region_series(name, g, false)),
                        )
                    })
                    .collect(),
                ratio: report.fig10_ratio(name),
                total_downstream: report.total_downstream(name),
                port_mix,
                fig12b: ecdf_text(&report.fig12b_ecdf(name).expect("known provider")),
            }
        })
        .collect();
    let top_ports = report.top_ports(usize::MAX);
    View {
        per_provider,
        fig12a: [
            ecdf_text(&report.fig12a_ecdf(true)),
            ecdf_text(&report.fig12a_ecdf(false)),
        ],
        fig12c: top_ports
            .iter()
            .map(|&(port, _)| (port, ecdf_text(&report.fig12c_ecdf(port))))
            .collect(),
        top_ports,
        fig13: report.fig13_line_buckets(),
        fig14: report.fig14_traffic_buckets(),
        daily_active_lines: report.daily_active_lines(),
        total_lines: report.total_lines(),
    }
}

#[test]
fn analysis_pass_matches_the_map_based_oracle() {
    for (plan, faults) in [("none", FaultPlan::none()), ("heavy", FaultPlan::heavy())] {
        let artifacts = Pipeline::new(WorldConfig::small(42))
            .faults(faults)
            .run()
            .expect("pipeline");
        let period = artifacts.world.config.study_period;
        let sim = TrafficSimulator::with_faults(
            &artifacts.world,
            artifacts.faults.seed,
            artifacts.faults.netflow.clone(),
        );
        let mut store = StoringSink::new();
        sim.run(period, &mut store);
        let contacts = artifacts.contact_pass(period);
        // The small world flags no scanner, so exclude a spread of
        // exported lines too: the exclusion path must match as well.
        let mut excluded = artifacts.excluded_lines(&contacts);
        excluded.extend(store.records.iter().step_by(997).map(|r| r.line));

        let names = artifacts.index.providers();
        let want = Oracle::run(&artifacts.index, &excluded, period, &store.records).view(names);
        assert!(
            want.total_lines > 100,
            "a real stream: {}",
            want.total_lines
        );
        for threads in [1, 4] {
            let report =
                iotmap::par::with_threads(threads, || artifacts.analysis_pass(period, &excluded));
            assert!(
                view(&report) == want,
                "analysis pass diverges from the oracle (faults {plan}, threads {threads})"
            );
        }
    }
}

/// Two providers, v4 and v6 remotes in three region groups, a period of
/// 70 days, zero-byte flows and lines whose flows interleave: the
/// report of every chunking of the stream matches the oracle.
#[test]
fn synthetic_long_period_matches_the_oracle() {
    let ips: [(&str, &str, &str, Location); 4] = [
        (
            "alpha",
            "10.0.0.1",
            "eu-central-1",
            Location::new("Frankfurt", "DE", Continent::Europe, 50.1, 8.7),
        ),
        (
            "alpha",
            "2001:db8::1",
            "us-east-1",
            Location::new("Ashburn", "US", Continent::NorthAmerica, 39.0, -77.5),
        ),
        (
            "beta",
            "10.0.1.1",
            "ap-1",
            Location::new("Tokyo", "JP", Continent::Asia, 35.7, 139.7),
        ),
        (
            "beta",
            "10.0.1.2",
            "eu-west-1",
            Location::new("Dublin", "IE", Continent::Europe, 53.3, -6.3),
        ),
    ];
    let mut discoveries: BTreeMap<&str, ProviderDiscovery> = BTreeMap::new();
    let mut footprints: HashMap<String, Footprint> = HashMap::new();
    for (provider, ip, label, location) in &ips {
        let ip: IpAddr = ip.parse().unwrap();
        discoveries
            .entry(provider)
            .or_insert_with(|| ProviderDiscovery {
                name: provider.to_string(),
                ..Default::default()
            })
            .ips
            .insert(ip, IpEvidence::default());
        footprints
            .entry(provider.to_string())
            .or_default()
            .per_ip
            .insert(
                ip,
                IpLocation {
                    label: label.to_string(),
                    location: location.clone(),
                    contested: false,
                },
            );
    }
    let index = IpIndex::build(
        &DiscoveryResult::from_providers(discoveries.into_values().collect()),
        &footprints,
        &HashSet::new(),
    );

    // Flows start a day before the period and end a day after it.
    let before = Date::new(2022, 1, 2);
    let start = before.succ();
    let period = StudyPeriod::from_dates(start, Date::from_epoch_days(start.epoch_days() + 70));
    let mut rng = SimRng::new(19);
    let remotes: Vec<IpAddr> = ips
        .iter()
        .map(|(_, ip, _, _)| ip.parse().unwrap())
        .chain(["192.0.2.9".parse().unwrap()])
        .collect();
    let ports = [
        PortProto::tcp(443),
        PortProto::tcp(8883),
        PortProto::udp(5684),
    ];
    let flows: Vec<FlowRecord> = (0..3000u64)
        .map(|i| FlowRecord {
            time: before.midnight() + SimDuration::hours(rng.gen_below(72 * 24)),
            // Runs of one line, with lines recurring later.
            line: LineId(i / 7 % 40),
            remote: *rng.choose(&remotes),
            port: *rng.choose(&ports),
            direction: if rng.chance(0.6) {
                Direction::Downstream
            } else {
                Direction::Upstream
            },
            bytes: if rng.chance(0.05) {
                0
            } else {
                rng.gen_below(50_000)
            },
            packets: 1,
        })
        .collect();
    let excluded: HashSet<LineId> = [LineId(7)].into_iter().collect();

    let want = Oracle::run(&index, &excluded, period, &flows).view(index.providers());
    let fold = AnalysisFold::new(&index, &excluded, period);
    for chunk in [flows.len(), 1000, 333, 7, 1] {
        let mut acc = fold.make();
        for part in flows.chunks(chunk) {
            fold.merge(&mut acc, fold.fold_all(part));
        }
        assert!(
            view(&fold.into_report(acc)) == want,
            "chunks of {chunk} diverge from the oracle"
        );
    }
}
