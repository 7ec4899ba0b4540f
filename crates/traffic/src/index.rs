//! The backend-IP index: discovered map → per-flow lookup table.
//!
//! §3.4: the traffic analysis uses only infrastructure "exclusively used
//! for IoT" — shared IPs (Google's HTTPS set, Akamai edges) are excluded
//! before any flow is attributed.
//!
//! Provider and region labels are **interned** ([`iotmap_nettypes::Interner`]):
//! the per-IP metadata carries compact u32 symbols instead of owned
//! strings, so the per-flow hot path (millions of lookups per simulated
//! day) compares integers, and the region-group classification of the
//! outage analysis is a symbol comparison instead of a string compare
//! per record.

use iotmap_core::{DiscoveryResult, Footprint};
use iotmap_nettypes::{Continent, FxHashMap, Interner, Sym};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

/// Per-IP metadata carried into the flow analyses.
#[derive(Debug, Clone)]
pub struct IpMeta {
    /// Index into [`IpIndex::providers`].
    pub provider: usize,
    /// Continent of the backend server (from footprint inference).
    pub continent: Option<Continent>,
    /// Site/region label (e.g. `us-east-1`) from footprint inference,
    /// interned in the index's region table.
    pub region: Sym,
}

/// The lookup table from remote address to backend metadata.
#[derive(Debug, Default)]
pub struct IpIndex {
    providers: Interner,
    regions: Interner,
    /// Symbol of the outage-struck region, when any indexed IP sits there.
    us_east1: Option<Sym>,
    /// Looked up once per exported flow; keyed by world IPs, which no
    /// outside party chooses, so the cheap hasher is safe.
    map: FxHashMap<IpAddr, IpMeta>,
}

impl IpIndex {
    /// Build from a discovery result and per-provider footprints,
    /// excluding `shared` IPs.
    ///
    /// `footprints` maps provider name → footprint; providers without an
    /// entry get IPs with unknown location.
    pub fn build(
        discovery: &DiscoveryResult,
        footprints: &HashMap<String, Footprint>,
        shared: &HashSet<IpAddr>,
    ) -> IpIndex {
        let _span = iotmap_obs::span!("traffic.index_build");
        let mut shared_excluded = 0u64;
        let mut index = IpIndex::default();
        for (name, disc) in discovery.per_provider() {
            let pidx = index.providers.intern(name).index();
            let fp = footprints.get(name);
            for &ip in disc.ips.keys() {
                if shared.contains(&ip) {
                    shared_excluded += 1;
                    continue;
                }
                let (continent, region) = fp
                    .and_then(|f| f.per_ip.get(&ip))
                    .map(|l| (Some(l.location.continent), l.label.as_str()))
                    .unwrap_or((None, ""));
                let region = index.regions.intern(region);
                index.map.insert(
                    ip,
                    IpMeta {
                        provider: pidx,
                        continent,
                        region,
                    },
                );
            }
        }
        index.us_east1 = index.regions.get("us-east-1");
        iotmap_obs::count!("traffic.index.ips_indexed", index.map.len() as u64);
        iotmap_obs::count!("traffic.index.shared_excluded", shared_excluded);
        index
    }

    /// Provider names, in index order.
    pub fn providers(&self) -> &[String] {
        self.providers.names()
    }

    /// Resolve a region symbol back to its label.
    pub fn region_name(&self, region: Sym) -> &str {
        self.regions.resolve(region)
    }

    /// Is this the outage-struck `us-east-1` region?
    pub fn is_us_east1(&self, region: Sym) -> bool {
        self.us_east1 == Some(region)
    }

    /// Look up a remote address.
    pub fn get(&self, ip: IpAddr) -> Option<&IpMeta> {
        self.map.get(&ip)
    }

    /// Number of indexed backend IPs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Indexed IPv4 count.
    pub fn v4_count(&self) -> usize {
        self.map.keys().filter(|ip| ip.is_ipv4()).count()
    }

    /// Indexed IPv6 count.
    pub fn v6_count(&self) -> usize {
        self.map.keys().filter(|ip| ip.is_ipv6()).count()
    }

    /// All indexed IPs of one provider (by index).
    pub fn ips_of(&self, provider: usize) -> HashSet<IpAddr> {
        self.map
            .iter()
            .filter(|(_, m)| m.provider == provider)
            .map(|(ip, _)| *ip)
            .collect()
    }

    /// Index of a provider by name.
    pub fn provider_index(&self, name: &str) -> Option<usize> {
        self.providers.get(name).map(|s| s.index())
    }

    /// Iterate over all `(ip, meta)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&IpAddr, &IpMeta)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_core::{IpEvidence, ProviderDiscovery};

    fn discovery() -> DiscoveryResult {
        let mut a = ProviderDiscovery {
            name: "amazon".to_string(),
            ..Default::default()
        };
        a.ips
            .insert("52.0.0.1".parse().unwrap(), IpEvidence::default());
        a.ips
            .insert("52.0.0.2".parse().unwrap(), IpEvidence::default());
        let mut g = ProviderDiscovery {
            name: "google".to_string(),
            ..Default::default()
        };
        g.ips
            .insert("60.0.0.1".parse().unwrap(), IpEvidence::default());
        g.ips
            .insert("2a09::1".parse().unwrap(), IpEvidence::default());
        DiscoveryResult::from_providers(vec![a, g])
    }

    #[test]
    fn build_and_lookup() {
        let disc = discovery();
        let idx = IpIndex::build(&disc, &HashMap::new(), &HashSet::new());
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.v4_count(), 3);
        assert_eq!(idx.v6_count(), 1);
        let meta = idx.get("52.0.0.1".parse().unwrap()).unwrap();
        assert_eq!(idx.providers()[meta.provider], "amazon");
        assert!(idx.get("9.9.9.9".parse().unwrap()).is_none());
        assert_eq!(idx.ips_of(idx.provider_index("google").unwrap()).len(), 2);
    }

    #[test]
    fn shared_ips_excluded() {
        let disc = discovery();
        let shared: HashSet<IpAddr> = ["60.0.0.1".parse().unwrap()].into_iter().collect();
        let idx = IpIndex::build(&disc, &HashMap::new(), &shared);
        assert_eq!(idx.len(), 3);
        assert!(idx.get("60.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn regions_are_interned_with_us_east1_cached() {
        let disc = discovery();
        let mut fp = Footprint::default();
        fp.per_ip.insert(
            "52.0.0.1".parse().unwrap(),
            iotmap_core::footprint::IpLocation {
                label: "us-east-1".into(),
                location: iotmap_nettypes::Location::new(
                    "Ashburn",
                    "US",
                    Continent::NorthAmerica,
                    39.0,
                    -77.5,
                ),
                contested: false,
            },
        );
        let mut fps = HashMap::new();
        fps.insert("amazon".to_string(), fp);
        let idx = IpIndex::build(&disc, &fps, &HashSet::new());
        let meta = idx.get("52.0.0.1".parse().unwrap()).unwrap();
        assert_eq!(idx.region_name(meta.region), "us-east-1");
        assert!(idx.is_us_east1(meta.region));
        let unlocated = idx.get("52.0.0.2".parse().unwrap()).unwrap();
        assert_eq!(idx.region_name(unlocated.region), "");
        assert!(!idx.is_us_east1(unlocated.region));
    }
}
