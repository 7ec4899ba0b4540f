//! Scanner exclusion (§5.2, Figure 5).
//!
//! "To identify scanners, we follow the method proposed by Richter et al.
//! For each day…, we compute the fraction of IoT backend server IPs that a
//! subscriber line contacts. A subscriber line is said to host a scanner
//! if it contacts more than a threshold of the server IPs."

use crate::index::IpIndex;
use iotmap_netflow::{FlowFold, FlowRecord, LineId};
use iotmap_nettypes::{FxHashMap, FxHashSet};
use std::collections::HashSet;
use std::net::IpAddr;

/// Result of the contact pass: per line, the distinct backend IPs it
/// contacted (both families).
pub type Contacts = FxHashMap<LineId, FxHashSet<IpAddr>>;

/// The contact pass as a mergeable fold: per-line contact sets are
/// pure set unions, so per-shard partials merged in any split of the
/// stream equal the serial pass.
pub struct ContactFold<'a> {
    index: &'a IpIndex,
}

/// Accumulator of [`ContactFold`]: the contact sets, plus the
/// `traffic.contact.flows_matched` count that
/// [`ContactFold::into_contacts`] reports once per pass.
#[derive(Debug, Default, PartialEq)]
pub struct ContactPartial {
    contacts: Contacts,
    flows_matched: u64,
}

impl<'a> ContactFold<'a> {
    /// New fold over an index.
    pub fn new(index: &'a IpIndex) -> Self {
        ContactFold { index }
    }

    /// Finish a folded partial: report its flow count to the installed
    /// recorder and return the contact sets.
    pub fn into_contacts(&self, partial: ContactPartial) -> Contacts {
        if partial.flows_matched > 0 {
            iotmap_obs::count!("traffic.contact.flows_matched", partial.flows_matched);
        }
        partial.contacts
    }
}

impl FlowFold for ContactFold<'_> {
    type Partial = ContactPartial;

    fn make(&self) -> ContactPartial {
        ContactPartial::default()
    }

    fn fold(&self, acc: &mut ContactPartial, record: &FlowRecord) {
        if self.index.get(record.remote).is_some() {
            acc.flows_matched += 1;
            acc.contacts
                .entry(record.line)
                .or_default()
                .insert(record.remote);
        }
    }

    fn merge(&self, acc: &mut ContactPartial, other: ContactPartial) {
        acc.flows_matched += other.flows_matched;
        for (line, ips) in other.contacts {
            acc.contacts.entry(line).or_default().extend(ips);
        }
    }
}

/// One point of the Figure 5 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScannerCurvePoint {
    /// Scanner threshold (backend IPs contacted).
    pub threshold: usize,
    /// Lines flagged (and excluded) at this threshold.
    pub lines_excluded: usize,
    /// Fraction of all IPv4 backend IPs still visible from the remaining
    /// lines.
    pub v4_visibility: f64,
}

/// The scanner analysis over contact sets.
pub struct ScannerAnalysis<'a> {
    index: &'a IpIndex,
    contacts: &'a Contacts,
}

impl<'a> ScannerAnalysis<'a> {
    /// Analyse a completed contact pass.
    pub fn new(index: &'a IpIndex, contacts: &'a Contacts) -> Self {
        ScannerAnalysis { index, contacts }
    }

    /// Lines contacting at least `threshold` distinct backend IPs.
    pub fn flagged_lines(&self, threshold: usize) -> HashSet<LineId> {
        self.contacts
            .iter()
            .filter(|(_, s)| s.len() >= threshold)
            .map(|(l, _)| *l)
            .collect()
    }

    /// Visibility of the IPv4 backend space from lines *below* the
    /// threshold.
    pub fn v4_visibility(&self, threshold: usize) -> f64 {
        let total = self.index.v4_count();
        if total == 0 {
            return 0.0;
        }
        let mut seen: HashSet<IpAddr> = HashSet::new();
        for (_, contacts) in self.contacts.iter().filter(|(_, s)| s.len() < threshold) {
            seen.extend(contacts.iter().filter(|ip| ip.is_ipv4()));
        }
        seen.len() as f64 / total as f64
    }

    /// IPv6 visibility from non-scanner lines.
    pub fn v6_visibility(&self, threshold: usize) -> f64 {
        let total = self.index.v6_count();
        if total == 0 {
            return 0.0;
        }
        let mut seen: HashSet<IpAddr> = HashSet::new();
        for (_, contacts) in self.contacts.iter().filter(|(_, s)| s.len() < threshold) {
            seen.extend(contacts.iter().filter(|ip| ip.is_ipv6()));
        }
        seen.len() as f64 / total as f64
    }

    /// The Figure 5 curve over a threshold ladder.
    pub fn curve(&self, thresholds: &[usize]) -> Vec<ScannerCurvePoint> {
        thresholds
            .iter()
            .map(|&t| ScannerCurvePoint {
                threshold: t,
                lines_excluded: self.flagged_lines(t).len(),
                v4_visibility: self.v4_visibility(t),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_core::{DiscoveryResult, IpEvidence, ProviderDiscovery};
    use iotmap_netflow::Direction;
    use iotmap_nettypes::{Date, PortProto};
    use std::collections::HashMap;

    fn index(n_ips: usize) -> IpIndex {
        let mut p = ProviderDiscovery {
            name: "x".to_string(),
            ..Default::default()
        };
        for i in 0..n_ips {
            let ip: IpAddr = format!("10.0.{}.{}", i / 250, 1 + i % 250).parse().unwrap();
            p.ips.insert(ip, IpEvidence::default());
        }
        IpIndex::build(
            &DiscoveryResult::from_providers(vec![p]),
            &HashMap::new(),
            &HashSet::new(),
        )
    }

    fn flow(line: u64, ip: &str) -> FlowRecord {
        FlowRecord {
            time: Date::new(2022, 3, 1).midnight(),
            line: LineId(line),
            remote: ip.parse().unwrap(),
            port: PortProto::tcp(8883),
            direction: Direction::Upstream,
            bytes: 100,
            packets: 1,
        }
    }

    /// Contact pass over lines that each contact the first `n` backend
    /// IPs of the index, given as `(line, n)`.
    fn contacts(idx: &IpIndex, lines: &[(u64, usize)]) -> Contacts {
        let records: Vec<FlowRecord> = lines
            .iter()
            .flat_map(|&(line, n)| {
                (0..n).map(move |i| flow(line, &format!("10.0.{}.{}", i / 250, 1 + i % 250)))
            })
            .collect();
        let fold = ContactFold::new(idx);
        fold.into_contacts(fold.fold_all(&records))
    }

    #[test]
    fn threshold_separates_scanners_from_households() {
        let idx = index(500);
        // Two households (3 and 5 IPs) and a scanner (400).
        let contacts = contacts(&idx, &[(1, 3), (2, 5), (3, 400)]);
        let analysis = ScannerAnalysis::new(&idx, &contacts);
        assert_eq!(analysis.flagged_lines(100).len(), 1);
        assert!(analysis.flagged_lines(100).contains(&LineId(3)));
        assert_eq!(analysis.flagged_lines(4).len(), 2);
    }

    #[test]
    fn visibility_excludes_scanner_contacts() {
        let idx = index(100);
        // A household contacting 10 of 100, and a scanner.
        let contacts = contacts(&idx, &[(1, 10), (2, 90)]);
        let analysis = ScannerAnalysis::new(&idx, &contacts);
        // With a high threshold the scanner is kept: full visibility.
        assert!((analysis.v4_visibility(1000) - 0.9).abs() < 1e-9);
        // With threshold 50 the scanner is dropped: only the household.
        assert!((analysis.v4_visibility(50) - 0.10).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone_in_lines() {
        let idx = index(300);
        let lines: Vec<(u64, usize)> = (0..20).map(|l| (l, 3 + l as usize * 10)).collect();
        let contacts = contacts(&idx, &lines);
        let analysis = ScannerAnalysis::new(&idx, &contacts);
        let curve = analysis.curve(&[10, 50, 100, 200]);
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[0].lines_excluded >= w[1].lines_excluded);
            assert!(w[0].v4_visibility <= w[1].v4_visibility + 1e-12);
        }
    }

    /// The fold law behind the streaming path, flow counter included:
    /// folding any split of the stream into two partials and merging
    /// equals the serial pass, and finishing it reports the serial count.
    #[test]
    fn contact_fold_merges_like_it_folds() {
        let idx = index(50);
        // Every fourth flow goes to an address outside the index.
        let records: Vec<FlowRecord> = (0..30)
            .map(|i| match i % 4 {
                3 => flow(1 + i % 5, "99.9.9.9"),
                _ => flow(1 + i % 5, &format!("10.0.0.{}", 1 + i % 50)),
            })
            .collect();
        let fold = ContactFold::new(&idx);
        let serial = fold.fold_all(&records);
        assert_eq!(serial.flows_matched, 23);
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let mut left = fold.fold_all(a);
            fold.merge(&mut left, fold.fold_all(b));
            assert_eq!(left, serial, "split at {split}");

            let registry = std::rc::Rc::new(iotmap_obs::Registry::new());
            iotmap_obs::install(registry.clone());
            let contacts = fold.into_contacts(left);
            iotmap_obs::uninstall();
            assert_eq!(contacts, serial.contacts, "split at {split}");
            assert_eq!(registry.counter("traffic.contact.flows_matched"), 23);
        }
    }

    #[test]
    fn non_backend_remotes_ignored() {
        let idx = index(10);
        let fold = ContactFold::new(&idx);
        let partial = fold.fold_all(&[flow(1, "99.99.99.99")]);
        assert_eq!(partial.flows_matched, 0);
        let registry = std::rc::Rc::new(iotmap_obs::Registry::new());
        iotmap_obs::install(registry.clone());
        assert!(fold.into_contacts(partial).is_empty());
        iotmap_obs::uninstall();
        assert!(
            !registry
                .report()
                .counters
                .contains_key("traffic.contact.flows_matched"),
            "no matched flow, no counter key"
        );
    }
}
