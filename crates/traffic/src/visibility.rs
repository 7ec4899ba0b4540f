//! Backend visibility (Fig. 6) and the data-source line ablation (Fig. 7).

use crate::index::IpIndex;
use crate::scanners::Contacts;
use iotmap_netflow::LineId;
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

/// Per-provider visibility from the vantage point.
#[derive(Debug, Clone)]
pub struct ProviderVisibility {
    pub provider: String,
    /// Fraction of the provider's discovered IPv4 backends contacted by
    /// (non-scanner) subscriber lines.
    pub v4: f64,
    /// Same for IPv6 (`None` when the provider has no IPv6 backends).
    pub v6: Option<f64>,
    /// Distinct subscriber lines with traffic to this provider.
    pub lines: usize,
}

/// Figure 6: per-provider visible-server fractions, from non-scanner
/// contact sets.
pub fn visibility_per_provider(
    index: &IpIndex,
    contacts: &Contacts,
    excluded: &HashSet<LineId>,
) -> Vec<ProviderVisibility> {
    let mut seen: Vec<HashSet<IpAddr>> = vec![HashSet::new(); index.providers().len()];
    let mut lines: Vec<HashSet<LineId>> = vec![HashSet::new(); index.providers().len()];
    for (line, ips) in contacts {
        if excluded.contains(line) {
            continue;
        }
        for &ip in ips {
            if let Some(meta) = index.get(ip) {
                seen[meta.provider].insert(ip);
                lines[meta.provider].insert(*line);
            }
        }
    }
    index
        .providers()
        .iter()
        .enumerate()
        .map(|(pi, name)| {
            let all = index.ips_of(pi);
            let v4_total = all.iter().filter(|ip| ip.is_ipv4()).count();
            let v6_total = all.iter().filter(|ip| ip.is_ipv6()).count();
            let v4_seen = seen[pi].iter().filter(|ip| ip.is_ipv4()).count();
            let v6_seen = seen[pi].iter().filter(|ip| ip.is_ipv6()).count();
            ProviderVisibility {
                provider: name.clone(),
                v4: if v4_total == 0 {
                    0.0
                } else {
                    v4_seen as f64 / v4_total as f64
                },
                v6: (v6_total > 0).then(|| v6_seen as f64 / v6_total as f64),
                lines: lines[pi].len(),
            }
        })
        .collect()
}

/// Figure 7: per provider, the relative decrease in detected IoT
/// subscriber lines when only a subset of the backend map (e.g.
/// TLS-certificate discoveries) is available.
///
/// `restricted[p]` is the backend IP subset per provider name.
pub fn source_ablation(
    index: &IpIndex,
    contacts: &Contacts,
    excluded: &HashSet<LineId>,
    restricted: &HashMap<String, HashSet<IpAddr>>,
) -> Vec<(String, f64)> {
    let n = index.providers().len();
    let mut full: Vec<HashSet<LineId>> = vec![HashSet::new(); n];
    let mut limited: Vec<HashSet<LineId>> = vec![HashSet::new(); n];
    for (line, ips) in contacts {
        if excluded.contains(line) {
            continue;
        }
        for &ip in ips {
            if let Some(meta) = index.get(ip) {
                full[meta.provider].insert(*line);
                if restricted
                    .get(&index.providers()[meta.provider])
                    .is_some_and(|s| s.contains(&ip))
                {
                    limited[meta.provider].insert(*line);
                }
            }
        }
    }
    index
        .providers()
        .iter()
        .enumerate()
        .map(|(pi, name)| {
            let f = full[pi].len();
            let l = limited[pi].len();
            let decrease = if f == 0 {
                0.0
            } else {
                1.0 - l as f64 / f as f64
            };
            (name.clone(), decrease)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanners::ContactFold;
    use iotmap_core::{DiscoveryResult, IpEvidence, ProviderDiscovery};
    use iotmap_netflow::{Direction, FlowFold, FlowRecord};
    use iotmap_nettypes::{Date, PortProto};

    fn index() -> IpIndex {
        let mut a = ProviderDiscovery {
            name: "alpha".to_string(),
            ..Default::default()
        };
        for i in 1..=4u8 {
            a.ips.insert(
                format!("10.0.0.{i}").parse().unwrap(),
                IpEvidence::default(),
            );
        }
        let mut b = ProviderDiscovery {
            name: "beta".to_string(),
            ..Default::default()
        };
        b.ips
            .insert("10.1.0.1".parse().unwrap(), IpEvidence::default());
        b.ips
            .insert("2a09::1".parse().unwrap(), IpEvidence::default());
        IpIndex::build(
            &DiscoveryResult::from_providers(vec![a, b]),
            &HashMap::new(),
            &HashSet::new(),
        )
    }

    /// The contact pass over one flow per `(line, remote)` pair.
    fn contacts(idx: &IpIndex, flows: &[(u64, &str)]) -> Contacts {
        let records: Vec<FlowRecord> = flows
            .iter()
            .map(|&(line, ip)| FlowRecord {
                time: Date::new(2022, 3, 1).midnight(),
                line: LineId(line),
                remote: ip.parse().unwrap(),
                port: PortProto::tcp(443),
                direction: Direction::Downstream,
                bytes: 1000,
                packets: 2,
            })
            .collect();
        let fold = ContactFold::new(idx);
        fold.into_contacts(fold.fold_all(&records))
    }

    #[test]
    fn per_provider_visibility() {
        let idx = index();
        let contacts = contacts(
            &idx,
            &[
                (1, "10.0.0.1"),
                (1, "10.0.0.2"),
                (2, "10.1.0.1"),
                (2, "2a09::1"),
            ],
        );
        let vis = visibility_per_provider(&idx, &contacts, &HashSet::new());
        let alpha = vis.iter().find(|v| v.provider == "alpha").unwrap();
        assert!((alpha.v4 - 0.5).abs() < 1e-9);
        assert_eq!(alpha.v6, None);
        assert_eq!(alpha.lines, 1);
        let beta = vis.iter().find(|v| v.provider == "beta").unwrap();
        assert!((beta.v4 - 1.0).abs() < 1e-9);
        assert_eq!(beta.v6, Some(1.0));
        assert_eq!(beta.lines, 1);
    }

    #[test]
    fn excluded_lines_do_not_count() {
        let idx = index();
        let contacts = contacts(&idx, &[(7, "10.0.0.1")]);
        let excluded: HashSet<LineId> = [LineId(7)].into_iter().collect();
        let vis = visibility_per_provider(&idx, &contacts, &excluded);
        assert_eq!(vis[0].v4, 0.0);
        assert_eq!(vis[0].lines, 0);
    }

    #[test]
    fn ablation_measures_line_loss() {
        let idx = index();
        // Line 1 contacts an IP that certificates would discover;
        // line 2 contacts one that only DNS finds.
        let mut flows = vec![(1, "10.0.0.1"), (2, "10.0.0.2")];
        let mut restricted = HashMap::new();
        restricted.insert(
            "alpha".to_string(),
            [IpAddr::from([10, 0, 0, 1])]
                .into_iter()
                .collect::<HashSet<_>>(),
        );
        let ablation = source_ablation(&idx, &contacts(&idx, &flows), &HashSet::new(), &restricted);
        let alpha = ablation.iter().find(|(n, _)| n == "alpha").unwrap();
        assert!((alpha.1 - 0.5).abs() < 1e-9, "half the lines lost");
        // Beta has no restricted set: total loss when lines exist.
        flows.push((3, "10.1.0.1"));
        let ablation = source_ablation(&idx, &contacts(&idx, &flows), &HashSet::new(), &restricted);
        let beta = ablation.iter().find(|(n, _)| n == "beta").unwrap();
        assert!((beta.1 - 1.0).abs() < 1e-9);
    }
}
