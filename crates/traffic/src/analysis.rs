//! The main flow-analysis pass: everything behind Figures 8–16.
//!
//! The aggregation is expressed as a mergeable [`AnalysisFold`]
//! (see [`iotmap_netflow::FlowFold`]): every accumulator in
//! [`AnalysisPartial`] is a commutative join — integer adds, set
//! unions, map-entry adds — so per-shard partials merged in shard order
//! are byte-identical to a serial pass at any thread count, and the
//! simulator can stream blocks of exported flows through it without
//! ever materializing the full flow set. Byte volumes accumulate as
//! exact `u64` sums and convert to `f64` only at report time, so no
//! float-rounding order dependence can creep in.
//!
//! The per-flow accumulators are [`FxHashMap`]/[`FxHashSet`]: their keys
//! are keyed-anonymizer line ids, world IPs, days and ports, none chosen
//! by an outside party, so SipHash's collision resistance buys nothing
//! here. The pass's flow metrics live in the partial too and reach the
//! obs recorder once, in [`AnalysisFold::into_report`].

use crate::index::IpIndex;
use iotmap_netflow::{Direction, FlowFold, FlowRecord, LineId};
use iotmap_nettypes::{Continent, FxHashMap, FxHashSet, PortProto, StudyPeriod};
use iotmap_obs::{Histogram, RunReport};
use iotmap_stats::{Ecdf, HourlySeries};
use std::collections::{BTreeMap, HashSet};

/// Region grouping for the outage analysis (Fig. 15/16): the affected
/// region vs. the provider's European regions vs. everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionGroup {
    UsEast1,
    Europe,
    Other,
}

impl RegionGroup {
    const ALL: [RegionGroup; 3] = [
        RegionGroup::UsEast1,
        RegionGroup::Europe,
        RegionGroup::Other,
    ];

    fn of(index: &IpIndex, meta: &crate::index::IpMeta) -> RegionGroup {
        if index.is_us_east1(meta.region) {
            RegionGroup::UsEast1
        } else if meta.continent == Some(Continent::Europe) {
            RegionGroup::Europe
        } else {
            RegionGroup::Other
        }
    }

    fn ordinal(&self) -> usize {
        match self {
            RegionGroup::UsEast1 => 0,
            RegionGroup::Europe => 1,
            RegionGroup::Other => 2,
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            RegionGroup::UsEast1 => "US-East",
            RegionGroup::Europe => "EU",
            RegionGroup::Other => "Other",
        }
    }
}

/// Continent buckets of §5.7 (EU / US / Asia / Other).
fn bucket_of(continent: Option<Continent>) -> usize {
    match continent.map(|c| c.paper_bucket()) {
        Some("EU") => 0,
        Some("US") => 1,
        Some("Asia") => 2,
        _ => 3,
    }
}

/// Bucket labels, ordinal order.
pub const BUCKET_LABELS: [&str; 4] = ["EU", "US", "Asia", "Other"];

/// One shard's accumulated aggregates. Every field joins commutatively
/// under [`FlowFold::merge`], which is what keeps sharded runs
/// byte-identical to serial ones.
#[derive(Debug, Clone)]
pub struct AnalysisPartial {
    // Fig. 8: distinct lines per (provider, hour).
    hourly_lines: Vec<FxHashSet<LineId>>,
    // Fig. 9 / 15: downstream bytes per (provider, hour). Exact integer
    // sums; the report converts to f64 once.
    hourly_dn: Vec<u64>,
    // Fig. 15/16: per (provider, region group, hour).
    hourly_dn_region: Vec<u64>,
    hourly_lines_region: Vec<FxHashSet<LineId>>,
    // Fig. 10.
    total_dn: Vec<u64>,
    total_up: Vec<u64>,
    // Fig. 11.
    port_bytes: FxHashMap<(usize, PortProto), u64>,
    // Fig. 12.
    line_day_dn: FxHashMap<(LineId, i64), u64>,
    line_day_up: FxHashMap<(LineId, i64), u64>,
    line_day_prov_dn: FxHashMap<(LineId, i64, u16), u64>,
    line_day_port_dn: FxHashMap<(LineId, i64, PortProto), u64>,
    // Fig. 13/14.
    line_buckets: FxHashMap<LineId, u8>,
    bucket_bytes: [u64; 4],
    // Daily active lines per address family (§5.2's 2.32M / 202k),
    // indexed by day offset in the period.
    daily_v4: Vec<FxHashSet<LineId>>,
    daily_v6: Vec<FxHashSet<LineId>>,
    // `traffic.analysis.flow_bytes` (its count is
    // `traffic.analysis.flows_analyzed`): every flow to an indexed
    // backend from a non-excluded line, in or out of the period.
    flow_bytes: Histogram,
}

impl AnalysisPartial {
    fn new(providers: usize, hours: usize, days: usize) -> AnalysisPartial {
        AnalysisPartial {
            hourly_lines: vec![FxHashSet::default(); providers * hours],
            hourly_dn: vec![0; providers * hours],
            hourly_dn_region: vec![0; providers * 3 * hours],
            hourly_lines_region: vec![FxHashSet::default(); providers * 3 * hours],
            total_dn: vec![0; providers],
            total_up: vec![0; providers],
            port_bytes: FxHashMap::default(),
            line_day_dn: FxHashMap::default(),
            line_day_up: FxHashMap::default(),
            line_day_prov_dn: FxHashMap::default(),
            line_day_port_dn: FxHashMap::default(),
            line_buckets: FxHashMap::default(),
            bucket_bytes: [0; 4],
            daily_v4: vec![FxHashSet::default(); days],
            daily_v6: vec![FxHashSet::default(); days],
            flow_bytes: Histogram::new(),
        }
    }

    fn merge(&mut self, other: AnalysisPartial) {
        for (a, b) in self.hourly_lines.iter_mut().zip(other.hourly_lines) {
            a.extend(b);
        }
        for (a, b) in self.hourly_dn.iter_mut().zip(other.hourly_dn) {
            *a += b;
        }
        for (a, b) in self.hourly_dn_region.iter_mut().zip(other.hourly_dn_region) {
            *a += b;
        }
        for (a, b) in self
            .hourly_lines_region
            .iter_mut()
            .zip(other.hourly_lines_region)
        {
            a.extend(b);
        }
        for (a, b) in self.total_dn.iter_mut().zip(other.total_dn) {
            *a += b;
        }
        for (a, b) in self.total_up.iter_mut().zip(other.total_up) {
            *a += b;
        }
        for (k, v) in other.port_bytes {
            *self.port_bytes.entry(k).or_default() += v;
        }
        for (k, v) in other.line_day_dn {
            *self.line_day_dn.entry(k).or_default() += v;
        }
        for (k, v) in other.line_day_up {
            *self.line_day_up.entry(k).or_default() += v;
        }
        for (k, v) in other.line_day_prov_dn {
            *self.line_day_prov_dn.entry(k).or_default() += v;
        }
        for (k, v) in other.line_day_port_dn {
            *self.line_day_port_dn.entry(k).or_default() += v;
        }
        for (k, v) in other.line_buckets {
            *self.line_buckets.entry(k).or_default() |= v;
        }
        for (a, b) in self.bucket_bytes.iter_mut().zip(other.bucket_bytes) {
            *a += b;
        }
        for (a, b) in self.daily_v4.iter_mut().zip(other.daily_v4) {
            a.extend(b);
        }
        for (a, b) in self.daily_v6.iter_mut().zip(other.daily_v6) {
            a.extend(b);
        }
        self.flow_bytes.merge_snapshot(&other.flow_bytes.snapshot());
    }

    /// Report the pass's flow metrics to the installed recorder in one
    /// merge, leaving no key behind when no flow was analyzed (as
    /// per-flow recording would).
    fn flush_metrics(&self) {
        let snap = self.flow_bytes.snapshot();
        if snap.count == 0 || !iotmap_obs::enabled() {
            return;
        }
        let mut report = RunReport::default();
        report
            .counters
            .insert("traffic.analysis.flows_analyzed".to_string(), snap.count);
        report
            .histograms
            .insert("traffic.analysis.flow_bytes".to_string(), snap);
        iotmap_obs::merge_child_report(&report, None);
    }
}

/// The mergeable flow-analysis aggregation over a study period.
pub struct AnalysisFold<'a> {
    index: &'a IpIndex,
    excluded: FxHashSet<LineId>,
    start_hour: u64,
    hours: usize,
    start_day: u64,
    days: usize,
}

impl<'a> AnalysisFold<'a> {
    /// Fold covering a study period, skipping the `excluded` lines.
    pub fn new(index: &'a IpIndex, excluded: &HashSet<LineId>, period: StudyPeriod) -> Self {
        let start_hour = period.start.epoch_hours();
        let hours = period.hours().count();
        let start_day = start_hour / 24;
        AnalysisFold {
            index,
            excluded: excluded.iter().copied().collect(),
            start_hour,
            hours,
            start_day,
            days: ((start_hour + hours as u64).div_ceil(24) - start_day) as usize,
        }
    }

    /// Consume a folded partial into a report, flushing the pass's flow
    /// metrics to the installed recorder.
    pub fn into_report(&self, partial: AnalysisPartial) -> AnalysisReport {
        let _span = iotmap_obs::span!("traffic.analysis.into_report");
        let p = partial;
        p.flush_metrics();
        // Per-day family counts in day order, over the days that saw the
        // family at all.
        let day_counts = |days: &[FxHashSet<LineId>]| {
            days.iter()
                .filter(|s| !s.is_empty())
                .map(|s| s.len())
                .collect::<Vec<usize>>()
        };
        AnalysisReport {
            providers: self.index.providers().to_vec(),
            server_buckets: {
                let mut counts = [0usize; 4];
                for (_, meta) in self.index.iter() {
                    counts[bucket_of(meta.continent)] += 1;
                }
                counts
            },
            start_hour: self.start_hour,
            hours: self.hours,
            hourly_lines: p.hourly_lines.iter().map(|s| s.len() as f64).collect(),
            hourly_dn: p.hourly_dn.iter().map(|&b| b as f64).collect(),
            hourly_dn_region: p.hourly_dn_region.iter().map(|&b| b as f64).collect(),
            hourly_lines_region: p
                .hourly_lines_region
                .iter()
                .map(|s| s.len() as f64)
                .collect(),
            daily_v4: day_counts(&p.daily_v4),
            daily_v6: day_counts(&p.daily_v6),
            total_dn: p.total_dn,
            total_up: p.total_up,
            port_bytes: p.port_bytes,
            line_day_dn: p.line_day_dn,
            line_day_up: p.line_day_up,
            line_day_prov_dn: p.line_day_prov_dn,
            line_day_port_dn: p.line_day_port_dn,
            line_buckets: p.line_buckets,
            bucket_bytes: p.bucket_bytes,
        }
    }
}

impl FlowFold for AnalysisFold<'_> {
    type Partial = AnalysisPartial;

    fn make(&self) -> AnalysisPartial {
        AnalysisPartial::new(self.index.providers().len(), self.hours, self.days)
    }

    fn fold(&self, acc: &mut AnalysisPartial, r: &FlowRecord) {
        if self.excluded.contains(&r.line) {
            return;
        }
        let Some(meta) = self.index.get(r.remote) else {
            return;
        };
        acc.flow_bytes.record(r.bytes);
        let p = meta.provider;
        let hour = r.time.epoch_hours();
        if hour < self.start_hour {
            return;
        }
        let h = (hour - self.start_hour) as usize;
        if h >= self.hours {
            return;
        }
        // Whole days since the epoch, as `SimTime::epoch_days` computes.
        let day_abs = hour / 24;
        let day = day_abs as i64;
        let d = (day_abs - self.start_day) as usize;
        let group = RegionGroup::of(self.index, meta);

        acc.hourly_lines[p * self.hours + h].insert(r.line);
        let region_idx = (p * 3 + group.ordinal()) * self.hours + h;
        acc.hourly_lines_region[region_idx].insert(r.line);

        match r.direction {
            Direction::Downstream => {
                acc.hourly_dn[p * self.hours + h] += r.bytes;
                acc.hourly_dn_region[region_idx] += r.bytes;
                acc.total_dn[p] += r.bytes;
                *acc.line_day_dn.entry((r.line, day)).or_default() += r.bytes;
                *acc.line_day_prov_dn
                    .entry((r.line, day, p as u16))
                    .or_default() += r.bytes;
                *acc.line_day_port_dn
                    .entry((r.line, day, r.port))
                    .or_default() += r.bytes;
            }
            Direction::Upstream => {
                acc.total_up[p] += r.bytes;
                *acc.line_day_up.entry((r.line, day)).or_default() += r.bytes;
            }
        }
        *acc.port_bytes.entry((p, r.port)).or_default() += r.bytes;

        let bucket = bucket_of(meta.continent);
        *acc.line_buckets.entry(r.line).or_default() |= 1 << bucket;
        acc.bucket_bytes[bucket] += r.bytes;

        if r.remote.is_ipv4() {
            acc.daily_v4[d].insert(r.line);
        } else {
            acc.daily_v6[d].insert(r.line);
        }
    }

    fn merge(&self, acc: &mut AnalysisPartial, other: AnalysisPartial) {
        acc.merge(other);
    }
}

/// The finished aggregates, with one accessor per figure.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    providers: Vec<String>,
    server_buckets: [usize; 4],
    start_hour: u64,
    hours: usize,
    hourly_lines: Vec<f64>,
    hourly_dn: Vec<f64>,
    hourly_dn_region: Vec<f64>,
    hourly_lines_region: Vec<f64>,
    total_dn: Vec<u64>,
    total_up: Vec<u64>,
    port_bytes: FxHashMap<(usize, PortProto), u64>,
    line_day_dn: FxHashMap<(LineId, i64), u64>,
    line_day_up: FxHashMap<(LineId, i64), u64>,
    line_day_prov_dn: FxHashMap<(LineId, i64, u16), u64>,
    line_day_port_dn: FxHashMap<(LineId, i64, PortProto), u64>,
    line_buckets: FxHashMap<LineId, u8>,
    bucket_bytes: [u64; 4],
    daily_v4: Vec<usize>,
    daily_v6: Vec<usize>,
}

impl AnalysisReport {
    /// Provider names (index order).
    pub fn providers(&self) -> &[String] {
        &self.providers
    }

    fn pidx(&self, provider: &str) -> Option<usize> {
        self.providers.iter().position(|p| p == provider)
    }

    /// Fig. 8: hourly subscriber-line counts for one provider.
    pub fn fig8_lines(&self, provider: &str) -> Option<HourlySeries> {
        let p = self.pidx(provider)?;
        let mut s = HourlySeries::new(self.start_hour, self.hours);
        for h in 0..self.hours {
            s.add(
                self.start_hour + h as u64,
                self.hourly_lines[p * self.hours + h],
            );
        }
        Some(s)
    }

    /// Fig. 9 / 15: hourly downstream bytes for one provider.
    pub fn fig9_downstream(&self, provider: &str) -> Option<HourlySeries> {
        let p = self.pidx(provider)?;
        let mut s = HourlySeries::new(self.start_hour, self.hours);
        for h in 0..self.hours {
            s.add(
                self.start_hour + h as u64,
                self.hourly_dn[p * self.hours + h],
            );
        }
        Some(s)
    }

    /// Fig. 15/16 region-resolved series.
    pub fn region_series(
        &self,
        provider: &str,
        group: RegionGroup,
        lines: bool,
    ) -> Option<HourlySeries> {
        let p = self.pidx(provider)?;
        let mut s = HourlySeries::new(self.start_hour, self.hours);
        let base = (p * 3 + group.ordinal()) * self.hours;
        for h in 0..self.hours {
            let v = if lines {
                self.hourly_lines_region[base + h]
            } else {
                self.hourly_dn_region[base + h]
            };
            s.add(self.start_hour + h as u64, v);
        }
        Some(s)
    }

    /// All region groups (for iteration).
    pub fn region_groups() -> [RegionGroup; 3] {
        RegionGroup::ALL
    }

    /// Fig. 10: downstream/upstream byte ratio.
    pub fn fig10_ratio(&self, provider: &str) -> Option<f64> {
        let p = self.pidx(provider)?;
        let up = self.total_up[p];
        if up == 0 {
            return None;
        }
        Some(self.total_dn[p] as f64 / up as f64)
    }

    /// Total downstream bytes of one provider.
    pub fn total_downstream(&self, provider: &str) -> u64 {
        self.pidx(provider).map_or(0, |p| self.total_dn[p])
    }

    /// Fig. 11: per-provider port mix, as `(port, byte fraction)` sorted
    /// by share.
    pub fn fig11_port_mix(&self, provider: &str) -> Vec<(PortProto, f64)> {
        let Some(p) = self.pidx(provider) else {
            return Vec::new();
        };
        let total: u64 = self
            .port_bytes
            .iter()
            .filter(|((pp, _), _)| *pp == p)
            .map(|(_, b)| *b)
            .sum();
        if total == 0 {
            return Vec::new();
        }
        let mut mix: Vec<(PortProto, f64)> = self
            .port_bytes
            .iter()
            .filter(|((pp, _), _)| *pp == p)
            .map(|((_, port), b)| (*port, *b as f64 / total as f64))
            .collect();
        mix.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
        mix
    }

    /// Fig. 12a: ECDF of daily per-line traffic, down or up.
    pub fn fig12a_ecdf(&self, downstream: bool) -> Ecdf {
        let src = if downstream {
            &self.line_day_dn
        } else {
            &self.line_day_up
        };
        Ecdf::new(src.values().map(|&b| b as f64).collect())
    }

    /// Fig. 12b: per-provider ECDF of daily per-line download.
    pub fn fig12b_ecdf(&self, provider: &str) -> Option<Ecdf> {
        let p = self.pidx(provider)? as u16;
        let samples: Vec<f64> = self
            .line_day_prov_dn
            .iter()
            .filter(|((_, _, pp), _)| *pp == p)
            .map(|(_, &b)| b as f64)
            .collect();
        Some(Ecdf::new(samples))
    }

    /// Fig. 12c: per-port ECDF of daily per-line download.
    pub fn fig12c_ecdf(&self, port: PortProto) -> Ecdf {
        let samples: Vec<f64> = self
            .line_day_port_dn
            .iter()
            .filter(|((_, _, pp), _)| *pp == port)
            .map(|(_, &b)| b as f64)
            .collect();
        Ecdf::new(samples)
    }

    /// The top ports by total downstream bytes.
    pub fn top_ports(&self, k: usize) -> Vec<(PortProto, u64)> {
        let mut by_port: BTreeMap<PortProto, u64> = BTreeMap::new();
        for ((_, _, port), b) in &self.line_day_port_dn {
            *by_port.entry(*port).or_default() += b;
        }
        let mut v: Vec<_> = by_port.into_iter().collect();
        v.sort_by_key(|(_, b)| std::cmp::Reverse(*b));
        v.truncate(k);
        v
    }

    /// Fig. 13 (left): line distribution over contacted-continent
    /// combinations. Returns `(eu_only, us_any, eu_us_mix, asia_other_only)`
    /// fractions.
    pub fn fig13_line_buckets(&self) -> (f64, f64, f64, f64) {
        let total = self.line_buckets.len().max(1) as f64;
        let (mut eu_only, mut us_any, mut mix, mut no_eu_us) = (0usize, 0usize, 0usize, 0usize);
        for &mask in self.line_buckets.values() {
            let eu = mask & 0b0001 != 0;
            let us = mask & 0b0010 != 0;
            if mask == 0b0001 {
                eu_only += 1;
            }
            if us {
                us_any += 1;
            }
            if eu && us {
                mix += 1;
            }
            if !eu && !us {
                no_eu_us += 1;
            }
        }
        (
            eu_only as f64 / total,
            us_any as f64 / total,
            mix as f64 / total,
            no_eu_us as f64 / total,
        )
    }

    /// Fig. 13 (right): fraction of backend servers per continent bucket
    /// (EU, US, Asia, Other).
    pub fn fig13_server_buckets(&self) -> [f64; 4] {
        let total: usize = self.server_buckets.iter().sum();
        let mut out = [0.0; 4];
        if total > 0 {
            for (o, n) in out.iter_mut().zip(self.server_buckets.iter()) {
                *o = *n as f64 / total as f64;
            }
        }
        out
    }

    /// Fig. 14: traffic-volume share per server continent bucket.
    pub fn fig14_traffic_buckets(&self) -> [f64; 4] {
        let total: u64 = self.bucket_bytes.iter().sum();
        let mut out = [0.0; 4];
        if total > 0 {
            for (o, n) in out.iter_mut().zip(self.bucket_bytes.iter()) {
                *o = *n as f64 / total as f64;
            }
        }
        out
    }

    /// Mean daily active lines, per address family.
    pub fn daily_active_lines(&self) -> (f64, f64) {
        let mean = |v: &[usize]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<usize>() as f64 / v.len() as f64
            }
        };
        (mean(&self.daily_v4), mean(&self.daily_v6))
    }

    /// Total lines observed with IoT traffic.
    pub fn total_lines(&self) -> usize {
        self.line_buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_core::{DiscoveryResult, Footprint, IpEvidence, ProviderDiscovery};
    use iotmap_nettypes::{Date, Location, SimDuration};
    use std::collections::HashMap;
    use std::net::IpAddr;

    fn index() -> IpIndex {
        let mut a = ProviderDiscovery {
            name: "alpha".to_string(),
            ..Default::default()
        };
        a.ips
            .insert("10.0.0.1".parse().unwrap(), IpEvidence::default());
        a.ips
            .insert("10.0.0.2".parse().unwrap(), IpEvidence::default());
        let mut fp = Footprint::default();
        fp.per_ip.insert(
            "10.0.0.1".parse().unwrap(),
            iotmap_core::footprint::IpLocation {
                label: "eu-central-1".into(),
                location: Location::new("Frankfurt", "DE", Continent::Europe, 50.1, 8.7),
                contested: false,
            },
        );
        fp.per_ip.insert(
            "10.0.0.2".parse().unwrap(),
            iotmap_core::footprint::IpLocation {
                label: "us-east-1".into(),
                location: Location::new("Ashburn", "US", Continent::NorthAmerica, 39.0, -77.5),
                contested: false,
            },
        );
        let mut fps = HashMap::new();
        fps.insert("alpha".to_string(), fp);
        IpIndex::build(
            &DiscoveryResult::from_providers(vec![a]),
            &fps,
            &HashSet::new(),
        )
    }

    fn record(line: u64, ip: &str, hour: u64, dir: Direction, bytes: u64, port: u16) -> FlowRecord {
        FlowRecord {
            time: Date::new(2022, 2, 28).midnight() + SimDuration::hours(hour),
            line: LineId(line),
            remote: ip.parse::<IpAddr>().unwrap(),
            port: PortProto::tcp(port),
            direction: dir,
            bytes,
            packets: bytes / 1000 + 1,
        }
    }

    fn run_excluding(excluded: &HashSet<LineId>, records: &[FlowRecord]) -> AnalysisReport {
        let idx = index();
        let fold = AnalysisFold::new(&idx, excluded, StudyPeriod::main_week());
        fold.into_report(fold.fold_all(records))
    }

    fn run(records: &[FlowRecord]) -> AnalysisReport {
        run_excluding(&HashSet::new(), records)
    }

    #[test]
    fn hourly_series_and_totals() {
        let report = run(&[
            record(1, "10.0.0.1", 10, Direction::Downstream, 5000, 8883),
            record(1, "10.0.0.1", 10, Direction::Upstream, 1000, 8883),
            record(2, "10.0.0.1", 11, Direction::Downstream, 3000, 443),
        ]);
        let lines = report.fig8_lines("alpha").unwrap();
        assert_eq!(lines.get(10), 1.0);
        assert_eq!(lines.get(11), 1.0);
        assert_eq!(lines.get(12), 0.0);
        let dn = report.fig9_downstream("alpha").unwrap();
        assert_eq!(dn.get(10), 5000.0);
        assert_eq!(report.fig10_ratio("alpha"), Some(8.0));
        assert_eq!(report.total_downstream("alpha"), 8000);
    }

    #[test]
    fn port_mix_fractions() {
        let report = run(&[
            record(1, "10.0.0.1", 1, Direction::Downstream, 9000, 8883),
            record(1, "10.0.0.1", 2, Direction::Downstream, 1000, 443),
        ]);
        let mix = report.fig11_port_mix("alpha");
        assert_eq!(mix[0].0, PortProto::tcp(8883));
        assert!((mix[0].1 - 0.9).abs() < 1e-9);
        assert!((mix[1].1 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn ecdfs_by_line_day() {
        let report = run(&[
            record(1, "10.0.0.1", 1, Direction::Downstream, 1_000, 8883),
            record(1, "10.0.0.1", 2, Direction::Downstream, 2_000, 8883),
            record(2, "10.0.0.1", 1, Direction::Downstream, 50_000, 8883),
        ]);
        let e = report.fig12a_ecdf(true);
        // Two line-days: 3000 and 50000.
        assert_eq!(e.len(), 2);
        assert!((e.fraction_at_or_below(10_000.0) - 0.5).abs() < 1e-9);
        let per_port = report.fig12c_ecdf(PortProto::tcp(8883));
        assert_eq!(per_port.len(), 2);
        let top = report.top_ports(5);
        assert_eq!(top[0].0, PortProto::tcp(8883));
    }

    #[test]
    fn region_groups_and_buckets() {
        let report = run(&[
            record(1, "10.0.0.1", 1, Direction::Downstream, 1000, 443), // EU
            record(1, "10.0.0.2", 1, Direction::Downstream, 3000, 443), // us-east-1
            record(2, "10.0.0.1", 2, Direction::Downstream, 500, 443),  // EU only
        ]);
        let us = report
            .region_series("alpha", RegionGroup::UsEast1, false)
            .unwrap();
        assert_eq!(us.get(1), 3000.0);
        let eu = report
            .region_series("alpha", RegionGroup::Europe, false)
            .unwrap();
        assert_eq!(eu.total(), 1500.0);
        let lines_us = report
            .region_series("alpha", RegionGroup::UsEast1, true)
            .unwrap();
        assert_eq!(lines_us.get(1), 1.0);

        let (eu_only, us_any, mix, _) = report.fig13_line_buckets();
        assert!((eu_only - 0.5).abs() < 1e-9, "line 2 is EU-only");
        assert!((us_any - 0.5).abs() < 1e-9, "line 1 touches the US");
        assert!((mix - 0.5).abs() < 1e-9, "line 1 touches both");

        let servers = report.fig13_server_buckets();
        assert!((servers[0] - 0.5).abs() < 1e-9);
        assert!((servers[1] - 0.5).abs() < 1e-9);

        let traffic = report.fig14_traffic_buckets();
        assert!((traffic[1] - 3000.0 / 4500.0).abs() < 1e-9);
    }

    #[test]
    fn excluded_lines_and_unknown_remotes_ignored() {
        let excluded: HashSet<LineId> = [LineId(9)].into_iter().collect();
        let report = run_excluding(
            &excluded,
            &[
                record(9, "10.0.0.1", 1, Direction::Downstream, 1000, 443),
                record(1, "99.9.9.9", 1, Direction::Downstream, 1000, 443),
            ],
        );
        assert_eq!(report.total_lines(), 0);
        assert_eq!(report.total_downstream("alpha"), 0);
    }

    #[test]
    fn daily_family_counts() {
        let report = run(&[
            record(1, "10.0.0.1", 1, Direction::Downstream, 1000, 443),
            record(2, "10.0.0.1", 30, Direction::Downstream, 1000, 443),
        ]);
        let (v4, v6) = report.daily_active_lines();
        assert!((v4 - 1.0).abs() < 1e-9, "one line per day on two days");
        assert_eq!(v6, 0.0);
    }

    #[test]
    fn out_of_window_flows_dropped() {
        // A flow from December (outage week) must not land in the main
        // week's buckets.
        let report = run(&[FlowRecord {
            time: Date::new(2021, 12, 5).midnight(),
            line: LineId(1),
            remote: "10.0.0.1".parse().unwrap(),
            port: PortProto::tcp(443),
            direction: Direction::Downstream,
            bytes: 1000,
            packets: 1,
        }]);
        assert_eq!(report.fig9_downstream("alpha").unwrap().total(), 0.0);
    }

    /// The fold law behind the streaming path: folding any split of the
    /// stream into two partials and merging equals the serial pass, and
    /// so does the resulting report.
    #[test]
    fn split_fold_and_merge_match_serial() {
        let records = [
            record(1, "10.0.0.1", 10, Direction::Downstream, 5000, 8883),
            record(1, "10.0.0.2", 10, Direction::Upstream, 1000, 8883),
            record(2, "10.0.0.1", 11, Direction::Downstream, 3000, 443),
            record(3, "10.0.0.2", 30, Direction::Downstream, 700, 443),
            record(1, "10.0.0.1", 31, Direction::Upstream, 50, 1883),
        ];
        let idx = index();
        let excluded = HashSet::new();
        let fold = AnalysisFold::new(&idx, &excluded, StudyPeriod::main_week());
        let serial_report = fold.into_report(fold.fold_all(&records));
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let mut left = fold.fold_all(a);
            fold.merge(&mut left, fold.fold_all(b));
            assert_eq!(
                fold.into_report(left),
                serial_report,
                "split at {split} must merge to the serial report"
            );
        }
    }
}
