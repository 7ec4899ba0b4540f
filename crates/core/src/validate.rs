//! Validation of discovered IPs (§3.4).
//!
//! Two checks:
//!
//! 1. **Shared vs. dedicated** — an IP also carrying many domains that do
//!    *not* match any IoT pattern is not exclusively an IoT gateway
//!    (CDN-fronted or co-hosted infrastructure). The paper discovered
//!    Google's MQTT/HTTPS split this way and excludes shared IPs from the
//!    traffic analysis.
//! 2. **Ground truth** — compare against the IP lists / prefixes that
//!    Cisco, Siemens and Microsoft publish.

use crate::discovery::ProviderDiscovery;
use crate::patterns::PatternRegistry;
use iotmap_dns::PassiveDnsDb;
use iotmap_nettypes::{DomainName, Ipv4Prefix, StudyPeriod};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

/// Verdict for one IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedVerdict {
    /// Exclusively IoT: few or no unrelated domains point here.
    Dedicated,
    /// Also serves non-IoT content (`count` unrelated domains observed).
    Shared { non_iot_domains: u32 },
}

impl SharedVerdict {
    /// Is the IP shared?
    pub fn is_shared(&self) -> bool {
        matches!(self, SharedVerdict::Shared { .. })
    }
}

/// The shared-vs-dedicated classifier.
///
/// Owners recur across IPs (and across days in a roll-forward), so the
/// classifier runs the pattern registry once per distinct owner for its
/// whole lifetime: reuse one instance for every IP of a pass.
pub struct SharedIpClassifier<'a> {
    registry: &'a PatternRegistry,
    /// Maximum number of unrelated domains an exclusive IoT gateway may
    /// carry (stray vanity records exist; the paper chose the threshold by
    /// inspection).
    pub threshold: u32,
    /// `classify_owner(owner).is_some()` per owner seen so far. Exact for
    /// any window and database: the verdict depends on the name alone.
    is_iot: RefCell<HashMap<DomainName, bool>>,
}

impl<'a> SharedIpClassifier<'a> {
    /// Classifier with the default threshold of 3 unrelated domains.
    pub fn new(registry: &'a PatternRegistry) -> Self {
        SharedIpClassifier {
            registry,
            threshold: 3,
            is_iot: RefCell::default(),
        }
    }

    /// Classify one IP by inverse passive-DNS lookup.
    pub fn classify(&self, ip: IpAddr, pdns: &PassiveDnsDb, period: StudyPeriod) -> SharedVerdict {
        let mut non_iot = 0u32;
        let mut seen: HashSet<&str> = HashSet::new();
        let mut is_iot = self.is_iot.borrow_mut();
        for entry in pdns.domains_for_ip(ip, period) {
            if !seen.insert(entry.owner.as_str()) {
                continue;
            }
            let iot = match is_iot.get(&entry.owner) {
                Some(&iot) => iot,
                None => {
                    let iot = self.registry.classify_owner(&entry.owner).is_some();
                    is_iot.insert(entry.owner.clone(), iot);
                    iot
                }
            };
            if !iot {
                non_iot += 1;
            }
        }
        if non_iot > self.threshold {
            SharedVerdict::Shared {
                non_iot_domains: non_iot,
            }
        } else {
            SharedVerdict::Dedicated
        }
    }

    /// Classify a whole provider: returns `(dedicated, shared)` IP sets.
    pub fn split_provider(
        &self,
        discovery: &ProviderDiscovery,
        pdns: &PassiveDnsDb,
        period: StudyPeriod,
    ) -> (HashSet<IpAddr>, HashMap<IpAddr, u32>) {
        let _vm_metrics = iotmap_dregex::vm::MetricsBatch::open();
        let mut dedicated = HashSet::new();
        let mut shared = HashMap::new();
        for &ip in discovery.ips.keys() {
            match self.classify(ip, pdns, period) {
                SharedVerdict::Dedicated => {
                    dedicated.insert(ip);
                }
                SharedVerdict::Shared { non_iot_domains } => {
                    shared.insert(ip, non_iot_domains);
                }
            }
        }
        (dedicated, shared)
    }
}

/// §3.4's comparison against published ground truth.
#[derive(Debug, Clone)]
pub struct GroundTruthReport {
    pub provider: String,
    /// IPs the provider publishes (expanded from prefixes when needed).
    pub published_total: u64,
    /// Discovered IPs that fall inside the published space.
    pub discovered_inside: u64,
    /// Discovered IPs outside the published space (not an error —
    /// publication can be partial).
    pub discovered_outside: u64,
}

impl GroundTruthReport {
    /// Compare a discovery against a published full IP list (Cisco,
    /// Siemens).
    pub fn against_ip_list(
        provider: &str,
        discovery: &ProviderDiscovery,
        published: &[IpAddr],
    ) -> Self {
        let published_set: HashSet<&IpAddr> = published.iter().collect();
        let discovered: HashSet<IpAddr> = discovery.ips.keys().copied().collect();
        let inside = discovered
            .iter()
            .filter(|ip| published_set.contains(ip))
            .count() as u64;
        GroundTruthReport {
            provider: provider.to_string(),
            published_total: published.len() as u64,
            discovered_inside: inside,
            discovered_outside: discovered.len() as u64 - inside,
        }
    }

    /// Compare against published prefixes (Microsoft).
    pub fn against_prefixes(
        provider: &str,
        discovery: &ProviderDiscovery,
        published: &[Ipv4Prefix],
    ) -> Self {
        let published_total: u64 = published.iter().map(|p| p.size()).sum();
        let mut inside = 0u64;
        let mut outside = 0u64;
        for ip in discovery.ips.keys() {
            match ip {
                IpAddr::V4(a) if published.iter().any(|p| p.contains(*a)) => inside += 1,
                _ => outside += 1,
            }
        }
        GroundTruthReport {
            provider: provider.to_string(),
            published_total,
            discovered_inside: inside,
            discovered_outside: outside,
        }
    }

    /// Of the published IPs, how many did we find? (Only meaningful for
    /// full-list publication.)
    pub fn recall_of_published(&self, discovery: &ProviderDiscovery, published: &[IpAddr]) -> f64 {
        if published.is_empty() {
            return 1.0;
        }
        let found = published
            .iter()
            .filter(|ip| discovery.ips.contains_key(ip))
            .count();
        found as f64 / published.len() as f64
    }
}

/// The §3.4 traffic cross-check: of the published addresses that are
/// *actually active* (appear as flow remotes), how many did discovery
/// miss, and what traffic share do the misses carry?
#[derive(Debug, Clone, Default)]
pub struct ActiveCoverage {
    pub active_published: u64,
    pub missed: u64,
    pub missed_traffic_fraction: f64,
}

impl ActiveCoverage {
    /// `active` maps published-space IPs seen in traffic to their byte
    /// volume.
    pub fn compute(discovery: &ProviderDiscovery, active: &HashMap<IpAddr, u64>) -> Self {
        let mut missed = 0u64;
        let mut missed_bytes = 0u64;
        let mut total_bytes = 0u64;
        for (ip, bytes) in active {
            total_bytes += bytes;
            if !discovery.ips.contains_key(ip) {
                missed += 1;
                missed_bytes += bytes;
            }
        }
        ActiveCoverage {
            active_published: active.len() as u64,
            missed,
            missed_traffic_fraction: if total_bytes == 0 {
                0.0
            } else {
                missed_bytes as f64 / total_bytes as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::IpEvidence;
    use iotmap_dns::RData;
    use iotmap_nettypes::{Date, DomainName};

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn week() -> StudyPeriod {
        StudyPeriod::main_week()
    }

    fn t() -> iotmap_nettypes::SimTime {
        Date::new(2022, 3, 1).midnight()
    }

    #[test]
    fn dedicated_ip_with_only_iot_domains() {
        let registry = PatternRegistry::paper_defaults();
        let mut obs = Vec::new();
        let ip: IpAddr = "192.0.2.1".parse().unwrap();
        obs.push((
            d("hub-1.azure-devices.net"),
            RData::A("192.0.2.1".parse().unwrap()),
            t(),
        ));
        obs.push((
            d("hub-2.azure-devices.net"),
            RData::A("192.0.2.1".parse().unwrap()),
            t(),
        ));
        let pdns = PassiveDnsDb::from_observations(&obs);
        let c = SharedIpClassifier::new(&registry);
        assert_eq!(c.classify(ip, &pdns, week()), SharedVerdict::Dedicated);
    }

    #[test]
    fn shared_ip_with_many_web_domains() {
        let registry = PatternRegistry::paper_defaults();
        let mut obs = Vec::new();
        let ip: IpAddr = "192.0.2.2".parse().unwrap();
        obs.push((
            d("mqtt.googleapis.com"),
            RData::A("192.0.2.2".parse().unwrap()),
            t(),
        ));
        for i in 0..6 {
            obs.push((
                d(&format!("svc{i}.google-web.example")),
                RData::A("192.0.2.2".parse().unwrap()),
                t(),
            ));
        }
        let pdns = PassiveDnsDb::from_observations(&obs);
        let c = SharedIpClassifier::new(&registry);
        assert!(c.classify(ip, &pdns, week()).is_shared());
    }

    #[test]
    fn threshold_tolerates_stray_records() {
        let registry = PatternRegistry::paper_defaults();
        let mut obs = Vec::new();
        let ip: IpAddr = "192.0.2.3".parse().unwrap();
        obs.push((
            d("hub-9.iot.sap"),
            RData::A("192.0.2.3".parse().unwrap()),
            t(),
        ));
        for i in 0..3 {
            obs.push((
                d(&format!("stray{i}.example.org")),
                RData::A("192.0.2.3".parse().unwrap()),
                t(),
            ));
        }
        let pdns = PassiveDnsDb::from_observations(&obs);
        let c = SharedIpClassifier::new(&registry);
        assert_eq!(c.classify(ip, &pdns, week()), SharedVerdict::Dedicated);
    }

    fn discovery_with(ips: &[&str]) -> ProviderDiscovery {
        let mut p = ProviderDiscovery {
            name: "x".to_string(),
            ..Default::default()
        };
        for ip in ips {
            p.ips.insert(ip.parse().unwrap(), IpEvidence::default());
        }
        p
    }

    #[test]
    fn owner_memo_matches_fresh_per_ip_verdicts() {
        let registry = PatternRegistry::paper_defaults();
        let mut obs = Vec::new();
        let out_of_window = Date::new(2021, 6, 1).midnight();
        let mut point = |owner: &str, ip: &str, at| {
            obs.push((d(owner), RData::A(ip.parse().unwrap()), at));
        };
        let web = ["web0.example.org", "web1.example.org", "web2.example.org"];
        // .10: IoT + 4 shared web owners + one owner only it sees in-window.
        point("hub-1.azure-devices.net", "192.0.2.10", t());
        for owner in web.iter().chain(&["web3.example.org", "late.example.org"]) {
            point(owner, "192.0.2.10", t());
        }
        // .11: the same IoT and web owners (3 of them), plus `late`
        // observed only before the window.
        point("hub-1.azure-devices.net", "192.0.2.11", t());
        for owner in web {
            point(owner, "192.0.2.11", t());
        }
        point("late.example.org", "192.0.2.11", out_of_window);
        // .12 sits exactly on the threshold (3 non-IoT owners), .13 one
        // past it (4).
        point("mqtt.googleapis.com", "192.0.2.12", t());
        for owner in web {
            point(owner, "192.0.2.12", t());
            point(owner, "192.0.2.13", t());
        }
        point("web3.example.org", "192.0.2.13", t());

        let pdns = PassiveDnsDb::from_observations(&obs);
        let disc = discovery_with(&["192.0.2.10", "192.0.2.11", "192.0.2.12", "192.0.2.13"]);
        let mut want_dedicated = HashSet::new();
        let mut want_shared = HashMap::new();
        for &ip in disc.ips.keys() {
            match SharedIpClassifier::new(&registry).classify(ip, &pdns, week()) {
                SharedVerdict::Dedicated => {
                    want_dedicated.insert(ip);
                }
                SharedVerdict::Shared { non_iot_domains } => {
                    want_shared.insert(ip, non_iot_domains);
                }
            }
        }
        let ip = |s: &str| -> IpAddr { s.parse().unwrap() };
        assert_eq!(
            want_dedicated,
            HashSet::from([ip("192.0.2.11"), ip("192.0.2.12")])
        );
        assert_eq!(
            want_shared,
            HashMap::from([(ip("192.0.2.10"), 5), (ip("192.0.2.13"), 4)])
        );
        // A cold and then a warm memo give the fresh per-IP verdicts.
        let classifier = SharedIpClassifier::new(&registry);
        for pass in ["cold", "warm"] {
            let (dedicated, shared) = classifier.split_provider(&disc, &pdns, week());
            assert_eq!(dedicated, want_dedicated, "{pass}");
            assert_eq!(shared, want_shared, "{pass}");
        }
    }

    #[test]
    fn ground_truth_ip_list_comparison() {
        let disc = discovery_with(&["10.0.0.1", "10.0.0.2", "10.0.0.9"]);
        let published: Vec<IpAddr> = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let r = GroundTruthReport::against_ip_list("cisco", &disc, &published);
        assert_eq!(r.published_total, 3);
        assert_eq!(r.discovered_inside, 2);
        assert_eq!(r.discovered_outside, 1);
        let recall = r.recall_of_published(&disc, &published);
        assert!((recall - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn ground_truth_prefix_comparison() {
        let disc = discovery_with(&["10.1.0.5", "10.2.0.5"]);
        let published = vec!["10.1.0.0/24".parse().unwrap()];
        let r = GroundTruthReport::against_prefixes("microsoft", &disc, &published);
        assert_eq!(r.published_total, 256);
        assert_eq!(r.discovered_inside, 1);
        assert_eq!(r.discovered_outside, 1);
    }

    #[test]
    fn active_coverage_misses() {
        let disc = discovery_with(&["10.1.0.5"]);
        let mut active = HashMap::new();
        active.insert("10.1.0.5".parse().unwrap(), 900u64);
        active.insert("10.1.0.6".parse().unwrap(), 100u64);
        let c = ActiveCoverage::compute(&disc, &active);
        assert_eq!(c.active_published, 2);
        assert_eq!(c.missed, 1);
        assert!((c.missed_traffic_fraction - 0.1).abs() < 1e-9);
    }
}
