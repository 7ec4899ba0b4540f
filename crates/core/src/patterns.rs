//! The domain-pattern registry (§3.2 + Appendix A).
//!
//! For each of the sixteen IoT backend providers, the paper distils the
//! publicly documented `<subdomain>.<region>.<second-level-domain>` naming
//! scheme into regular expressions — one form for DNSDB owner names (FQDN
//! presentation, trailing dot) and one for certificate names (no trailing
//! dot, `*.` wildcards allowed). [`PatternRegistry::paper_defaults`] is
//! that distillation for the synthetic world's documentation; the structure
//! (and the regex dialect) is exactly the paper's.

use iotmap_dregex::Regex;
use iotmap_nettypes::{DomainName, Error, PortProto};

/// Where in a matched name the region code sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionHint {
    /// The code is the Nth label counting from the right (0 = TLD).
    LabelFromRight(usize),
    /// The naming scheme carries no location information.
    None,
}

impl RegionHint {
    /// Extract the region code from a (possibly wildcard) domain name.
    pub fn extract(&self, name: &str) -> Option<String> {
        match self {
            RegionHint::None => None,
            RegionHint::LabelFromRight(n) => {
                let trimmed = name.trim_end_matches('.');
                let labels: Vec<&str> = trimmed.split('.').collect();
                if labels.len() <= *n {
                    return None;
                }
                let code = labels[labels.len() - 1 - n];
                if code == "*" || code.is_empty() {
                    None
                } else {
                    Some(code.to_string())
                }
            }
        }
    }
}

/// A documented protocol/port pair (the Table 1 "Protocols (Ports)"
/// column).
#[derive(Debug, Clone, Copy)]
pub struct DocumentedPort {
    pub protocol: &'static str,
    pub port: PortProto,
}

/// The compiled patterns and documentation facts for one provider.
#[derive(Debug)]
pub struct ProviderPatterns {
    /// Canonical key (`"amazon"`, …).
    pub name: &'static str,
    /// Display name as in Table 1.
    pub display: &'static str,
    /// Pattern over DNSDB owner names (presentation form, trailing dot).
    pub owner_regex: Regex,
    /// Pattern over certificate names (no trailing dot).
    pub san_regex: Regex,
    /// Where region codes sit in matched names.
    pub region_hint: RegionHint,
    /// Documented protocol/port matrix.
    pub ports: Vec<DocumentedPort>,
    /// Documentation states an anycast front is in use.
    pub documented_anycast: bool,
}

impl ProviderPatterns {
    /// Compile a provider's patterns, failing with [`Error::Pattern`]
    /// instead of panicking when a regex does not compile.
    pub fn try_new(
        name: &'static str,
        display: &'static str,
        owner_pattern: &str,
        san_pattern: &str,
        region_hint: RegionHint,
        ports: Vec<DocumentedPort>,
        documented_anycast: bool,
    ) -> Result<Self, Error> {
        Ok(ProviderPatterns {
            name,
            display,
            owner_regex: Regex::with_options(owner_pattern, true)
                .map_err(|e| Error::pattern(name, format!("owner pattern: {e}")))?,
            san_regex: Regex::with_options(san_pattern, true)
                .map_err(|e| Error::pattern(name, format!("SAN pattern: {e}")))?,
            region_hint,
            ports,
            documented_anycast,
        })
    }

    /// Does a DNS owner name (any presentation) match this provider?
    pub fn matches_owner(&self, owner: &DomainName) -> bool {
        self.owner_regex.is_match(&owner.fqdn())
    }

    /// Does a certificate name match this provider?
    pub fn matches_san(&self, san: &str) -> bool {
        self.san_regex.is_match(san)
    }
}

/// The registry of all sixteen providers' patterns.
#[derive(Debug)]
pub struct PatternRegistry {
    providers: Vec<ProviderPatterns>,
}

fn tcp(proto: &'static str, port: u16) -> DocumentedPort {
    DocumentedPort {
        protocol: proto,
        port: PortProto::tcp(port),
    }
}

fn udp(proto: &'static str, port: u16) -> DocumentedPort {
    DocumentedPort {
        protocol: proto,
        port: PortProto::udp(port),
    }
}

impl PatternRegistry {
    /// Wrap an explicit pattern list.
    pub fn new(providers: Vec<ProviderPatterns>) -> Self {
        PatternRegistry { providers }
    }

    /// The registry distilled from the providers' public documentation —
    /// the analogue of the paper's Appendix A table. Panics on a broken
    /// built-in pattern (a bug, not an input error); fallible callers
    /// should use [`PatternRegistry::try_paper_defaults`].
    pub fn paper_defaults() -> Self {
        Self::try_paper_defaults().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PatternRegistry::paper_defaults`], returning
    /// [`Error::Pattern`] if any provider's regex fails to compile.
    pub fn try_paper_defaults() -> Result<Self, Error> {
        let region2 = RegionHint::LabelFromRight(2);
        let providers = vec![
            ProviderPatterns::try_new(
                "alibaba",
                "Alibaba IoT",
                r"(.+)\.(iot-as-mqtt|iot-as-http|iot-amqp)\.([[:alnum:]]+(-[[:alnum:]]+)*)\.aliyuncs\.com\.$",
                r"(.+)\.(iot-as-mqtt|iot-as-http|iot-amqp)\.([[:alnum:]]+(-[[:alnum:]]+)*)\.aliyuncs\.com$",
                region2,
                vec![tcp("MQTT", 1883), tcp("HTTPS", 443), udp("CoAP", 5682)],
                false,
            )?,
            ProviderPatterns::try_new(
                "amazon",
                "Amazon IoT",
                r"(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)(\.amazonaws\.com\.$)",
                r"(.+)(\.iot\.)([[:alnum:]]+(-[[:alnum:]]+)+)(\.amazonaws\.com$)",
                region2,
                vec![
                    tcp("MQTT", 8883),
                    tcp("MQTT", 443),
                    tcp("HTTPS", 443),
                    tcp("HTTPS", 8443),
                ],
                true, // Global Accelerator
            )?,
            ProviderPatterns::try_new(
                "baidu",
                "Baidu IoT",
                r"(.+)\.(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*)\.(baidubce\.com\.$)",
                r"(.+)\.(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*)\.(baidubce\.com$)",
                region2,
                vec![
                    tcp("MQTT", 1883),
                    tcp("MQTT", 1884),
                    tcp("MQTT", 443),
                    tcp("HTTP", 80),
                    tcp("HTTPS", 443),
                    udp("CoAP", 5682),
                    udp("CoAP", 5683),
                ],
                false,
            )?,
            ProviderPatterns::try_new(
                "bosch",
                "Bosch IoT Hub",
                r"(.+\.|^)(bosch-iot-hub\.com\.$)",
                r"(.+\.|^)(bosch-iot-hub\.com$)",
                RegionHint::None,
                vec![
                    tcp("MQTT", 8883),
                    tcp("HTTPS", 443),
                    tcp("AMQP", 5671),
                    udp("CoAP", 5684),
                ],
                false,
            )?,
            ProviderPatterns::try_new(
                "cisco",
                "Cisco Kinetic",
                r"(.+\.|^)(ciscokinetic\.io\.$)",
                r"(.+\.|^)(ciscokinetic\.io$)",
                RegionHint::None,
                vec![
                    tcp("MQTT", 8883),
                    tcp("MQTT", 443),
                    tcp("TCP", 9123),
                    tcp("TCP", 9124),
                ],
                false,
            )?,
            ProviderPatterns::try_new(
                "fujitsu",
                "Fujitsu IoT",
                r"^(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*)\.(paas\.cloud\.global\.fujitsu\.com\.$)",
                r"^(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*)\.(paas\.cloud\.global\.fujitsu\.com$)",
                RegionHint::LabelFromRight(5),
                vec![tcp("MQTT", 8883), tcp("HTTPS", 443)],
                false,
            )?,
            ProviderPatterns::try_new(
                "google",
                "Google IoT Core",
                r"^(mqtt|cloudiotdevice)\.googleapis\.com\.$",
                r"^(mqtt|cloudiotdevice)\.googleapis\.com$",
                RegionHint::None,
                vec![tcp("MQTT", 8883), tcp("MQTT", 443), tcp("HTTPS", 443)],
                false,
            )?,
            ProviderPatterns::try_new(
                "huawei",
                "Huawei IoT",
                r"^(iot-mqtts|iot-https)\.([[:alnum:]]+(-[[:alnum:]]+)*)\.(myhuaweicloud\.com\.$)",
                r"^(iot-mqtts|iot-https)\.([[:alnum:]]+(-[[:alnum:]]+)*)\.(myhuaweicloud\.com$)",
                region2,
                vec![tcp("MQTT", 8883), tcp("MQTT", 443), tcp("HTTPS", 8943)],
                false,
            )?,
            ProviderPatterns::try_new(
                "ibm",
                "IBM IoT",
                r"(.+\.|^)(internetofthings\.ibmcloud\.com\.$)",
                r"(.+\.|^)(internetofthings\.ibmcloud\.com$)",
                RegionHint::None,
                vec![
                    tcp("MQTT", 8883),
                    tcp("MQTT", 1883),
                    tcp("HTTP", 80),
                    tcp("HTTPS", 443),
                ],
                false,
            )?,
            ProviderPatterns::try_new(
                "microsoft",
                "Microsoft Azure IoT Hub",
                r"(.+\.|^)(azure-devices\.net\.$)",
                r"(.+\.|^)(azure-devices\.net$)",
                RegionHint::None,
                vec![tcp("MQTT", 8883), tcp("HTTPS", 443), tcp("AMQP", 5671)],
                false,
            )?,
            ProviderPatterns::try_new(
                "oracle",
                "Oracle IoT",
                r"(.+\.|^)(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*\.)?(oraclecloud\.com\.$)",
                r"(.+\.|^)(iot\.)([[:alnum:]]+(-[[:alnum:]]+)*\.)?(oraclecloud\.com$)",
                region2,
                vec![tcp("MQTT", 8883), tcp("HTTPS", 443)],
                false,
            )?,
            ProviderPatterns::try_new(
                "ptc",
                "PTC ThingWorx",
                r"(.+\.|^)(cloud\.thingworx\.com\.$)",
                r"(.+\.|^)(cloud\.thingworx\.com$)",
                RegionHint::None,
                vec![tcp("HTTPS", 443), tcp("MQTT", 8883), udp("UDP", 10010)],
                false,
            )?,
            ProviderPatterns::try_new(
                "sap",
                "SAP IoT",
                r"(.+\.|^)(iot\.sap\.$)",
                r"(.+\.|^)(iot\.sap$)",
                RegionHint::None,
                vec![tcp("MQTT", 8883), tcp("HTTPS", 443)],
                false,
            )?,
            ProviderPatterns::try_new(
                "siemens",
                "Siemens Mindsphere",
                r"(.+)\.(eu1|eu2|us1|cn1)\.(mindsphere\.io\.$)",
                r"(.+)\.(eu1|eu2|us1|cn1)\.(mindsphere\.io$)",
                region2,
                vec![
                    tcp("MQTT", 8883),
                    tcp("HTTPS", 443),
                    tcp("OPC-UA", 4840),
                    tcp("ActiveMQ", 61616),
                ],
                true,
            )?,
            ProviderPatterns::try_new(
                "sierra",
                "Sierra Wireless",
                r"^(na|ca|eu|ap)\.airvantage\.net\.$",
                r"^(na|ca|eu|ap)\.airvantage\.net$",
                region2,
                vec![
                    tcp("MQTT", 8883),
                    tcp("MQTT", 1883),
                    tcp("HTTP", 80),
                    tcp("HTTPS", 443),
                    udp("CoAP", 5686),
                ],
                false,
            )?,
            ProviderPatterns::try_new(
                "tencent",
                "Tencent IoT",
                r"(.+\.|^)(tencentdevices\.com\.$)",
                r"(.+\.|^)(tencentdevices\.com$)",
                RegionHint::None,
                vec![
                    tcp("MQTT", 8883),
                    tcp("MQTT", 1883),
                    tcp("HTTP", 80),
                    tcp("HTTPS", 443),
                    udp("CoAP", 5684),
                ],
                false,
            )?,
        ];
        Ok(PatternRegistry::new(providers))
    }

    /// All providers, alphabetical (registry order).
    pub fn providers(&self) -> &[ProviderPatterns] {
        &self.providers
    }

    /// Number of providers.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }

    /// Find a provider by canonical name.
    pub fn get(&self, name: &str) -> Option<&ProviderPatterns> {
        self.providers.iter().find(|p| p.name == name)
    }

    /// Which provider (if any) claims a DNS owner name? First match wins;
    /// the patterns are mutually exclusive by construction.
    pub fn classify_owner(&self, owner: &DomainName) -> Option<&ProviderPatterns> {
        let fqdn = owner.fqdn();
        self.providers
            .iter()
            .find(|p| p.owner_regex.is_match(&fqdn))
    }

    /// Which provider (if any) claims a certificate name?
    pub fn classify_san(&self, san: &str) -> Option<&ProviderPatterns> {
        self.providers.iter().find(|p| p.matches_san(san))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> PatternRegistry {
        PatternRegistry::paper_defaults()
    }

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn sixteen_providers() {
        assert_eq!(registry().len(), 16);
    }

    #[test]
    fn owner_patterns_match_own_namespace() {
        let r = registry();
        let cases = [
            ("amazon", "t0a1b2c3d.iot.us-east-1.amazonaws.com"),
            (
                "alibaba",
                "t00ff00ff.iot-as-mqtt.cn-shanghai-a.aliyuncs.com",
            ),
            ("baidu", "tdeadbeef.iot.cn-north-1.baidubce.com"),
            ("bosch", "hub-00ab12.bosch-iot-hub.com"),
            ("cisco", "hub-123456.ciscokinetic.io"),
            ("fujitsu", "iot.jp-east-1.paas.cloud.global.fujitsu.com"),
            ("google", "mqtt.googleapis.com"),
            ("huawei", "iot-mqtts.cn-north-4.myhuaweicloud.com"),
            ("ibm", "hub-aabbcc.internetofthings.ibmcloud.com"),
            ("microsoft", "hub-112233.azure-devices.net"),
            ("oracle", "t01234567.iot.us-ashburn-1.oraclecloud.com"),
            ("ptc", "hub-445566.cloud.thingworx.com"),
            ("sap", "hub-778899.iot.sap"),
            ("siemens", "t334455.eu1.mindsphere.io"),
            ("sierra", "eu.airvantage.net"),
            ("tencent", "hub-665544.tencentdevices.com"),
        ];
        for (name, domain) in cases {
            let got = r.classify_owner(&d(domain));
            assert_eq!(
                got.map(|p| p.name),
                Some(name),
                "classification of {domain}"
            );
        }
    }

    #[test]
    fn patterns_reject_lookalikes() {
        let r = registry();
        for fake in [
            "azure-devices.net.evil.com",
            "xamazonaws.com",
            "tencentdevices.com.cn",
            "iot.sap.example.org",
            "mqtt.googleapis.com.attacker.net",
            "www.example.com",
        ] {
            assert!(
                r.classify_owner(&d(fake)).is_none(),
                "{fake} should not classify"
            );
        }
    }

    #[test]
    fn san_patterns_match_wildcards() {
        let r = registry();
        assert_eq!(
            r.classify_san("*.iot.eu-west-1.amazonaws.com")
                .map(|p| p.name),
            Some("amazon")
        );
        assert_eq!(
            r.classify_san("*.azure-devices.net").map(|p| p.name),
            Some("microsoft")
        );
        assert_eq!(r.classify_san("*.iot.sap").map(|p| p.name), Some("sap"));
        assert!(r.classify_san("*.google.com").is_none());
        assert!(r.classify_san("*.eu-central-1.aws-elb.example").is_none());
    }

    #[test]
    fn region_hints_extract_codes() {
        let r = registry();
        let amazon = r.get("amazon").unwrap();
        assert_eq!(
            amazon.region_hint.extract("t0.iot.us-east-1.amazonaws.com"),
            Some("us-east-1".to_string())
        );
        assert_eq!(
            amazon.region_hint.extract("*.iot.eu-west-1.amazonaws.com"),
            Some("eu-west-1".to_string())
        );
        let fujitsu = r.get("fujitsu").unwrap();
        assert_eq!(
            fujitsu
                .region_hint
                .extract("iot.jp-east-1.paas.cloud.global.fujitsu.com."),
            Some("jp-east-1".to_string())
        );
        let microsoft = r.get("microsoft").unwrap();
        assert_eq!(microsoft.region_hint.extract("h.azure-devices.net"), None);
        let sierra = r.get("sierra").unwrap();
        assert_eq!(
            sierra.region_hint.extract("eu.airvantage.net"),
            Some("eu".to_string())
        );
    }

    #[test]
    fn region_hint_edge_cases() {
        let hint = RegionHint::LabelFromRight(2);
        assert_eq!(hint.extract("a.b"), None); // too few labels
        assert_eq!(hint.extract("*.amazonaws.com"), None); // wildcard label
        assert_eq!(RegionHint::None.extract("x.y.z"), None);
    }

    #[test]
    fn documented_anycast_flags() {
        let r = registry();
        assert!(r.get("amazon").unwrap().documented_anycast);
        assert!(r.get("siemens").unwrap().documented_anycast);
        assert!(!r.get("google").unwrap().documented_anycast);
    }

    #[test]
    fn documented_ports_match_table1_shapes() {
        let r = registry();
        // All sixteen claim MQTT support in some form except PTC
        // ("protocol agnostic" — we record its generic TLS + MQTT + UDP).
        for p in r.providers() {
            assert!(!p.ports.is_empty(), "{}", p.name);
        }
        let baidu = r.get("baidu").unwrap();
        assert!(baidu.ports.iter().any(|d| d.port == PortProto::tcp(1884)));
        let siemens = r.get("siemens").unwrap();
        assert!(siemens
            .ports
            .iter()
            .any(|d| d.port == PortProto::tcp(61616)));
    }
}
