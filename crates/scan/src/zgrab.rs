//! ZGrab2-style application-layer banner grabs.
//!
//! "We add support for these IoT protocols to ZGrab2 and we use it to
//! collect TLS certificates from these IPv6 addresses. We perform this data
//! collection from a server located in Europe." (§3.3)

use crate::ethics::ProbePolicy;
use crate::hitlist::Ipv6Hitlist;
use crate::target::ScanView;
use iotmap_dregex::Regex;
use iotmap_faults::ZgrabFaults;
use iotmap_nettypes::{PortProto, SimDuration, SimRng, SimTime, StudyPeriod};
use iotmap_tls::{handshake, Certificate, ClientHello};
use std::net::{IpAddr, Ipv6Addr};
use std::sync::Arc;

/// One grabbed banner.
#[derive(Debug, Clone, PartialEq)]
pub struct ZgrabRecord {
    pub ip: Ipv6Addr,
    pub port: PortProto,
    pub certificate: Arc<Certificate>,
}

/// The ZGrab2-like scanner: hitlist × port set, one probe per target.
pub struct Zgrab2Scanner {
    pub ports: Vec<PortProto>,
    pub policy: ProbePolicy,
}

impl Zgrab2Scanner {
    /// Scanner for the paper's IoT port set.
    pub fn new(ports: Vec<PortProto>) -> Self {
        Zgrab2Scanner {
            ports,
            policy: ProbePolicy::paper_defaults(),
        }
    }

    /// Probe every hitlist address on every configured port. Targets are
    /// shuffled (randomized load spread, §3.7) but the result is sorted, so
    /// output is deterministic regardless.
    pub fn scan(
        &mut self,
        view: &dyn ScanView,
        hitlist: &Ipv6Hitlist,
        when: SimTime,
        rng: &mut SimRng,
    ) -> Vec<ZgrabRecord> {
        self.scan_with(view, hitlist, when, rng, 0, &ZgrabFaults::NONE)
    }

    /// [`Zgrab2Scanner::scan`] under a fault plan: each target's
    /// handshake may time out (transient — retried with seeded backoff up
    /// to `max_attempts` times, every attempt counted against the probe
    /// budget), and a completed handshake may still return a truncated
    /// banner whose certificate cannot be parsed. All decisions are pure
    /// rolls on the target identity, independent of the shuffle order and
    /// shard layout.
    pub fn scan_with(
        &mut self,
        view: &dyn ScanView,
        hitlist: &Ipv6Hitlist,
        when: SimTime,
        rng: &mut SimRng,
        fault_seed: u64,
        faults: &ZgrabFaults,
    ) -> Vec<ZgrabRecord> {
        let _span = iotmap_obs::span!("scan.zgrab.v6_scan");
        let mut targets: Vec<(Ipv6Addr, PortProto)> = Vec::new();
        for addr in hitlist.iter() {
            if !self.policy.allows(IpAddr::V6(addr)) {
                continue;
            }
            let open = view.ipv6_ports(addr);
            for port in &self.ports {
                if open.contains(port) {
                    targets.push((addr, *port));
                }
            }
        }
        self.policy.randomize_order(rng, &mut targets);

        // The grab itself shards over the (already shuffled) target list;
        // the final sort makes the output independent of both the shuffle
        // and the sharding, so parallel runs stay byte-identical. Probe
        // and fault accounting is summed per shard, applied after the
        // join: (records, probes, timed_out, partial, retried, recovered).
        let (mut records, probes, timed_out, partial, retried, recovered) = iotmap_par::shard_fold(
            &targets,
            |_ctx| (Vec::new(), 0u64, 0u64, 0u64, 0u64, 0u64),
            |acc: &mut (Vec<ZgrabRecord>, u64, u64, u64, u64, u64), _i, (addr, port)| {
                let (records, probes, timed_out, partial, retried, recovered) = acc;
                let target_key =
                    iotmap_faults::key2(iotmap_faults::key_ip(IpAddr::V6(*addr)), port.port as u64);
                let outcome = iotmap_faults::retry(
                    fault_seed,
                    "zgrab.timeout",
                    target_key,
                    faults.timeout_rate,
                    faults.max_attempts,
                );
                *probes += outcome.attempts as u64;
                if outcome.attempts > 1 {
                    *retried += 1;
                    if outcome.succeeded {
                        *recovered += 1;
                    }
                }
                if !outcome.succeeded {
                    *timed_out += 1;
                    return;
                }
                let Some(endpoint) = view.tls_endpoint(IpAddr::V6(*addr), *port) else {
                    return;
                };
                let outcome = handshake(&endpoint, &ClientHello::anonymous(), when);
                if let Some(cert) = outcome.observed_certificate_shared() {
                    if iotmap_faults::drops(
                        fault_seed,
                        "zgrab.partial_banner",
                        target_key,
                        faults.partial_banner_rate,
                    ) {
                        *partial += 1;
                        return;
                    }
                    records.push(ZgrabRecord {
                        ip: *addr,
                        port: *port,
                        certificate: cert.clone(),
                    });
                }
            },
            |a, b| {
                a.0.extend(b.0);
                a.1 += b.1;
                a.2 += b.2;
                a.3 += b.3;
                a.4 += b.4;
                a.5 += b.5;
            },
        );
        self.policy.record_probes(probes);
        records.sort_by_key(|r| (r.ip, r.port.port));
        iotmap_obs::count!("scan.zgrab.certs_parsed", records.len() as u64);
        if faults.is_active() {
            iotmap_obs::count!("faults.zgrab.targets_timed_out", timed_out);
            iotmap_obs::count!("faults.zgrab.banners_partial", partial);
            iotmap_obs::count!("faults.zgrab.records_dropped", timed_out + partial);
            iotmap_obs::count!("faults.zgrab.records_retried", retried);
            iotmap_obs::count!("faults.zgrab.records_recovered", recovered);
        }
        records
    }
}

/// Filter grabbed records by a domain-pattern regex and validity window.
pub fn filter_records<'a>(
    records: &'a [ZgrabRecord],
    pattern: &'a Regex,
    validity_window: StudyPeriod,
) -> impl Iterator<Item = &'a ZgrabRecord> {
    records.iter().filter(move |r| {
        r.certificate.valid_during(&validity_window)
            && r.certificate.all_names().any(|n| pattern.is_match(&n))
    })
}

/// The simulated duration of a scan honouring single-probe pacing: one
/// probe per destination, spread over the day.
pub fn scan_duration(targets: usize) -> SimDuration {
    // One packet per destination at a conservative 100 pps.
    SimDuration::seconds((targets as u64).div_ceil(100))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitlist::iot_probe_ports;
    use crate::target::fixtures::{cert, FakeInternet};
    use iotmap_nettypes::ports::well_known as wk;
    use iotmap_nettypes::Date;
    use iotmap_tls::TlsEndpoint;

    fn when() -> SimTime {
        Date::new(2022, 2, 28).midnight() + SimDuration::hours(3)
    }

    #[test]
    fn scans_only_hitlist_members() {
        let mut net = FakeInternet::new();
        net.add_v6(
            "2001:db8::1",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["*.iot-v6.example.com"])),
        );
        net.add_v6(
            "2001:db8::2",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["*.iot-v6.example.com"])),
        );
        let mut hitlist = Ipv6Hitlist::new();
        hitlist.add("2001:db8::1".parse().unwrap()); // ::2 is missing

        let mut scanner = Zgrab2Scanner::new(iot_probe_ports());
        let mut rng = SimRng::new(1);
        let records = scanner.scan(&net, &hitlist, when(), &mut rng);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].ip, "2001:db8::1".parse::<Ipv6Addr>().unwrap());
    }

    #[test]
    fn respects_port_set() {
        let mut net = FakeInternet::new();
        net.add_v6(
            "2001:db8::1",
            PortProto::tcp(8943), // Huawei HTTPS — not in the v6 probe set
            TlsEndpoint::plain(cert(&["*.iot-v6.example.com"])),
        );
        let mut hitlist = Ipv6Hitlist::new();
        hitlist.add("2001:db8::1".parse().unwrap());
        let mut scanner = Zgrab2Scanner::new(iot_probe_ports());
        let mut rng = SimRng::new(2);
        assert!(scanner.scan(&net, &hitlist, when(), &mut rng).is_empty());
    }

    #[test]
    fn probe_accounting_one_per_target() {
        let mut net = FakeInternet::new();
        net.add_v6(
            "2001:db8::1",
            wk::HTTPS,
            TlsEndpoint::plain(cert(&["a.example.com"])),
        );
        net.add_v6(
            "2001:db8::1",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["a.example.com"])),
        );
        let mut hitlist = Ipv6Hitlist::new();
        hitlist.add("2001:db8::1".parse().unwrap());
        let mut scanner = Zgrab2Scanner::new(iot_probe_ports());
        let mut rng = SimRng::new(3);
        let records = scanner.scan(&net, &hitlist, when(), &mut rng);
        assert_eq!(records.len(), 2);
        assert_eq!(scanner.policy.probes_sent(), 2); // one per (addr, port)
    }

    #[test]
    fn filter_by_pattern_and_validity() {
        let mut net = FakeInternet::new();
        net.add_v6(
            "2001:db8::5",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["*.iot.tencentdevices.com"])),
        );
        net.add_v6(
            "2001:db8::6",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["www.unrelated.example"])),
        );
        let mut hitlist = Ipv6Hitlist::new();
        hitlist.add("2001:db8::5".parse().unwrap());
        hitlist.add("2001:db8::6".parse().unwrap());
        let mut scanner = Zgrab2Scanner::new(iot_probe_ports());
        let mut rng = SimRng::new(4);
        let records = scanner.scan(&net, &hitlist, when(), &mut rng);
        let re = Regex::new(r"tencentdevices\.com$").unwrap();
        let hits: Vec<_> = filter_records(&records, &re, StudyPeriod::main_week()).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].ip, "2001:db8::5".parse::<Ipv6Addr>().unwrap());
    }

    #[test]
    fn suffix_index_agrees_with_filter_records() {
        let mut net = FakeInternet::new();
        net.add_v6(
            "2001:db8::5",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["*.iot.tencentdevices.com"])),
        );
        net.add_v6(
            "2001:db8::6",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["www.unrelated.example"])),
        );
        let mut hitlist = Ipv6Hitlist::new();
        hitlist.add("2001:db8::5".parse().unwrap());
        hitlist.add("2001:db8::6".parse().unwrap());
        let mut scanner = Zgrab2Scanner::new(iot_probe_ports());
        let mut rng = SimRng::new(7);
        let records = scanner.scan(&net, &hitlist, when(), &mut rng);

        let index = crate::san_suffix_index(
            records.iter().map(|r| &*r.certificate),
            StudyPeriod::main_week(),
        );
        let q = iotmap_nettypes::SuffixQuery::parse("tencentdevices.com").unwrap();
        let re = Regex::new(r"tencentdevices\.com$").unwrap();
        let via_filter: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.certificate.valid_during(&StudyPeriod::main_week())
                    && r.certificate.all_names().any(|n| re.is_match(&n))
            })
            .map(|(i, _)| i)
            .collect();
        let via_index: Vec<usize> = index.lookup(&q).into_iter().map(|i| i as usize).collect();
        assert_eq!(via_index, via_filter);
        assert!(!via_index.is_empty());
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let mut net = FakeInternet::new();
        for host in ["2001:db8::9", "2001:db8::3", "2001:db8::7"] {
            net.add_v6(
                host,
                wk::HTTPS,
                TlsEndpoint::plain(cert(&["x.example.com"])),
            );
        }
        let mut hitlist = Ipv6Hitlist::new();
        for host in ["2001:db8::9", "2001:db8::3", "2001:db8::7"] {
            hitlist.add(host.parse().unwrap());
        }
        let run = |seed| {
            let mut scanner = Zgrab2Scanner::new(iot_probe_ports());
            let mut rng = SimRng::new(seed);
            scanner
                .scan(&net, &hitlist, when(), &mut rng)
                .iter()
                .map(|r| r.ip)
                .collect::<Vec<_>>()
        };
        let a = run(1);
        let b = run(999); // different shuffle seed, same sorted output
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn scan_duration_paces_probes() {
        assert_eq!(scan_duration(0).as_secs(), 0);
        assert_eq!(scan_duration(100).as_secs(), 1);
        assert_eq!(scan_duration(101).as_secs(), 2);
    }
}
