//! The Censys-like daily snapshot service.
//!
//! Censys sweeps the IPv4 space, performs protocol handshakes on open
//! ports, stores the harvested certificates with geolocation metadata, and
//! publishes daily snapshots. The paper searches those snapshots for
//! certificate names matching the IoT domain patterns and keeps only
//! certificates valid during the study period (§3.3).

use crate::target::ScanView;
use iotmap_dregex::query::CensysNameQuery;
use iotmap_dregex::Regex;
use iotmap_faults::CensysFaults;
use iotmap_nettypes::{Date, Location, PortProto, SimDuration, StudyPeriod};
use iotmap_tls::{handshake, Certificate, ClientHello};
use std::net::IpAddr;
use std::sync::Arc;

/// One harvested certificate observation.
#[derive(Debug, Clone, PartialEq)]
pub struct CensysRecord {
    pub ip: IpAddr,
    pub port: PortProto,
    pub certificate: Arc<Certificate>,
    /// Censys's geolocation of the host (its own database — may disagree
    /// with other sources).
    pub location: Option<Location>,
}

/// One day's published scan results.
#[derive(Debug, Clone, PartialEq)]
pub struct CensysSnapshot {
    pub date: Date,
    pub records: Vec<CensysRecord>,
    /// Raw port-scan results: every responsive host and its open ports,
    /// whether or not a TLS handshake succeeded there. (Censys publishes
    /// this banner-level view alongside certificates; §4.4's observed-port
    /// analysis needs it because plaintext MQTT and custom TCP services
    /// never yield a certificate.)
    pub host_ports: Vec<(std::net::Ipv4Addr, Vec<PortProto>)>,
}

impl CensysSnapshot {
    /// String search over certificate names (the paper's
    /// `*.iot.us-east-2.amazonaws.com`-style queries), restricted to
    /// certificates valid throughout `validity_window`.
    pub fn search_names<'a>(
        &'a self,
        query: &'a CensysNameQuery,
        validity_window: StudyPeriod,
    ) -> impl Iterator<Item = &'a CensysRecord> {
        self.records.iter().filter(move |r| {
            r.certificate.valid_during(&validity_window)
                && r.certificate.all_names().any(|n| query.matches_name(&n))
        })
    }

    /// Regex search over certificate names, same validity rule.
    pub fn search_regex<'a>(
        &'a self,
        regex: &'a Regex,
        validity_window: StudyPeriod,
    ) -> impl Iterator<Item = &'a CensysRecord> {
        self.records.iter().filter(move |r| {
            r.certificate.valid_during(&validity_window)
                && r.certificate.all_names().any(|n| regex.is_match(&n))
        })
    }

    /// All records for one IP.
    pub fn records_for_ip(&self, ip: IpAddr) -> impl Iterator<Item = &CensysRecord> {
        self.records.iter().filter(move |r| r.ip == ip)
    }
}

/// The scanning service itself.
pub struct CensysService {
    /// TCP ports handshaked during the sweep. Censys scans a broad port
    /// set; this list covers the study's relevant ports.
    pub ports: Vec<PortProto>,
}

impl Default for CensysService {
    fn default() -> Self {
        use iotmap_nettypes::ports::well_known as wk;
        CensysService {
            ports: vec![
                wk::HTTPS,
                wk::HTTPS_ALT,
                wk::HTTPS_HUAWEI,
                wk::MQTT,
                wk::MQTT_ALT,
                wk::MQTT_TLS,
                wk::AMQP_TLS,
                wk::ACTIVEMQ,
                wk::OPC_UA,
                wk::KINETIC_A,
                wk::KINETIC_B,
            ],
        }
    }
}

impl CensysService {
    /// Service with the default port set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run one daily sweep over the scanner's view of the Internet.
    ///
    /// For every `(host, open port)` pair in our port set, attempt an
    /// anonymous TLS handshake (no SNI, no client certificate — a scanner
    /// does not know the right name). Record whatever certificate the
    /// server volunteers.
    pub fn daily_sweep(&self, view: &dyn ScanView, date: Date) -> CensysSnapshot {
        self.daily_sweep_with(view, date, 0, &CensysFaults::NONE)
    }

    /// [`CensysService::daily_sweep`] under a fault plan: a sweep-gap
    /// roll per `(host, day)` may skip a responsive host entirely
    /// (omitted from both the certificate records and the banner-level
    /// host/port view, like a ZMap probe lost on the wire), and a
    /// truncation roll per `(host, port, day)` may lose an individual
    /// harvested certificate to daily-snapshot truncation. Fault
    /// decisions are pure rolls keyed on the target identity, so the
    /// snapshot stays byte-identical at any thread count, and an
    /// inactive plan takes no rolls at all.
    pub fn daily_sweep_with(
        &self,
        view: &dyn ScanView,
        date: Date,
        fault_seed: u64,
        faults: &CensysFaults,
    ) -> CensysSnapshot {
        let _span = iotmap_obs::span!("scan.censys.daily_sweep");
        // Handshakes happen over the course of the day; noon is
        // representative for validity checks.
        let when = date.midnight() + SimDuration::hours(12);
        let day = date.epoch_days() as u64;
        // ZMap-style sharded sweep: the host list is split into contiguous
        // shards probed by worker threads, and the shard outputs are
        // concatenated in shard order, so the snapshot is byte-identical
        // to a serial sweep at any thread count (handshake outcomes and
        // geolocation depend only on the target, never on the shard).
        let hosts = view.ipv4_hosts();
        let (records, host_ports, gapped, truncated) = iotmap_par::shard_fold(
            &hosts,
            |_ctx| (Vec::new(), Vec::new(), 0u64, 0u64),
            |(records, host_ports, gapped, truncated): &mut (
                Vec<CensysRecord>,
                Vec<_>,
                u64,
                u64,
            ),
             _i,
             (addr, open_ports)| {
                let ip = IpAddr::V4(*addr);
                let host_key = iotmap_faults::key2(iotmap_faults::key_ip(ip), day);
                if iotmap_faults::drops(
                    fault_seed,
                    "censys.sweep_gap",
                    host_key,
                    faults.sweep_gap_rate,
                ) {
                    *gapped += 1;
                    return;
                }
                for port in open_ports {
                    if !self.ports.contains(port) {
                        continue;
                    }
                    let Some(endpoint) = view.tls_endpoint(ip, *port) else {
                        continue;
                    };
                    let outcome = handshake(&endpoint, &ClientHello::anonymous(), when);
                    if let Some(cert) = outcome.observed_certificate_shared() {
                        if iotmap_faults::drops(
                            fault_seed,
                            "censys.truncation",
                            iotmap_faults::key2(host_key, port.port as u64),
                            faults.truncation_rate,
                        ) {
                            *truncated += 1;
                            continue;
                        }
                        records.push(CensysRecord {
                            ip,
                            port: *port,
                            certificate: cert.clone(),
                            location: view.geolocate(ip),
                        });
                    }
                }
                host_ports.push((*addr, open_ports.clone()));
            },
            |a, b| {
                a.0.extend(b.0);
                a.1.extend(b.1);
                a.2 += b.2;
                a.3 += b.3;
            },
        );
        iotmap_obs::count!("scan.censys.certs_parsed", records.len() as u64);
        if faults.is_active() {
            iotmap_obs::count!("faults.censys.hosts_gapped", gapped);
            iotmap_obs::count!("faults.censys.records_truncated", truncated);
            iotmap_obs::count!("faults.censys.records_dropped", gapped + truncated);
        }
        CensysSnapshot {
            date,
            records,
            host_ports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::fixtures::{cert, FakeInternet};
    use iotmap_nettypes::ports::well_known as wk;
    use iotmap_tls::TlsEndpoint;

    fn study_week() -> StudyPeriod {
        StudyPeriod::main_week()
    }

    #[test]
    fn sweep_harvests_default_certificates() {
        let mut net = FakeInternet::new();
        net.add_v4(
            "198.51.100.1",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["*.azure-devices.net"])),
        );
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        assert_eq!(snap.records.len(), 1);
        let q = CensysNameQuery::new("*.azure-devices.net").unwrap();
        assert_eq!(snap.search_names(&q, study_week()).count(), 1);
    }

    #[test]
    fn sni_gated_hosts_yield_only_fallback_cert() {
        let mut net = FakeInternet::new();
        net.add_v4(
            "198.51.100.2",
            wk::HTTPS,
            TlsEndpoint::sni_gated(cert(&["mqtt.googleapis.com"]), cert(&["*.google.com"])),
        );
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        // A certificate was recorded — but it is the generic one.
        assert_eq!(snap.records.len(), 1);
        let q = CensysNameQuery::new("mqtt.googleapis.com").unwrap();
        assert_eq!(snap.search_names(&q, study_week()).count(), 0);
    }

    #[test]
    fn mutual_tls_hosts_yield_nothing() {
        let mut net = FakeInternet::new();
        net.add_v4(
            "198.51.100.3",
            wk::MQTT_TLS,
            TlsEndpoint::mutual_tls(cert(&["*.iot.us-east-1.amazonaws.com"])),
        );
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        assert!(snap.records.is_empty());
    }

    #[test]
    fn expired_certificates_filtered_by_search() {
        let mut net = FakeInternet::new();
        let mut c = cert(&["*.iot.sap"]);
        c.not_after = Date::new(2022, 3, 2).midnight(); // expires mid-study
        net.add_v4("198.51.100.4", wk::HTTPS, TlsEndpoint::plain(c));
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        assert_eq!(snap.records.len(), 1); // harvested on the 28th…
        let q = CensysNameQuery::new("*.iot.sap").unwrap();
        // …but not *valid during the study period*, so the search drops it.
        assert_eq!(snap.search_names(&q, study_week()).count(), 0);
    }

    #[test]
    fn regex_search_over_sans() {
        let mut net = FakeInternet::new();
        net.add_v4(
            "198.51.100.5",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["*.iot.eu-west-1.amazonaws.com"])),
        );
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        let re = Regex::new(r"\.iot\.[a-z0-9-]+\.amazonaws\.com$").unwrap();
        assert_eq!(snap.search_regex(&re, study_week()).count(), 1);
    }

    #[test]
    fn ports_outside_the_set_not_handshaked() {
        let mut net = FakeInternet::new();
        net.add_v4(
            "198.51.100.6",
            PortProto::tcp(2222),
            TlsEndpoint::plain(cert(&["*.iot.sap"])),
        );
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        assert!(snap.records.is_empty());
    }

    #[test]
    fn host_ports_include_plaintext_services() {
        let mut net = FakeInternet::new();
        net.add_v4(
            "198.51.100.8",
            PortProto::tcp(1883), // plaintext MQTT — no certificate possible
            TlsEndpoint::plain(cert(&["x.example.com"])),
        );
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        let (_, ports) = snap
            .host_ports
            .iter()
            .find(|(a, _)| *a == "198.51.100.8".parse::<std::net::Ipv4Addr>().unwrap())
            .expect("host recorded");
        assert!(ports.contains(&PortProto::tcp(1883)));
    }

    #[test]
    fn san_suffix_index_covers_valid_records_only() {
        let mut net = FakeInternet::new();
        net.add_v4(
            "198.51.100.10",
            wk::MQTT_TLS,
            TlsEndpoint::plain(cert(&["*.azure-devices.net", "mgmt.example.com"])),
        );
        let mut expired = cert(&["*.iot.eu-west-1.amazonaws.com"]);
        expired.not_after = Date::new(2022, 3, 2).midnight();
        net.add_v4("198.51.100.11", wk::HTTPS, TlsEndpoint::plain(expired));
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        assert_eq!(snap.records.len(), 2);

        let index =
            crate::san_suffix_index(snap.records.iter().map(|r| &*r.certificate), study_week());
        let q = iotmap_nettypes::SuffixQuery::parse(".azure-devices.net").unwrap();
        let azure_row = snap
            .records
            .iter()
            .position(|r| {
                r.certificate
                    .covers(&"h.azure-devices.net".parse().unwrap())
            })
            .unwrap() as u32;
        assert_eq!(index.lookup(&q), vec![azure_row]);
        // The expired amazon certificate never made it into the index.
        let amazon = iotmap_nettypes::SuffixQuery::parse(".amazonaws.com").unwrap();
        assert!(index.lookup(&amazon).is_empty());
    }

    #[test]
    fn geolocation_metadata_included() {
        let mut net = FakeInternet::new();
        net.add_v4(
            "198.51.100.7",
            wk::HTTPS,
            TlsEndpoint::plain(cert(&["*.iot.sap"])),
        );
        let snap = CensysService::new().daily_sweep(&net, Date::new(2022, 2, 28));
        assert_eq!(snap.records[0].location.as_ref().unwrap().city, "Frankfurt");
    }
}
