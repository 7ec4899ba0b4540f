//! # iotmap-scan — the active-scanning substrate
//!
//! §3.3 of the paper uses two scanning instruments:
//!
//! * **Censys**, which "continuously scans the IPv4 address space … performs
//!   protocol-specific handshakes to collect banners; and it provides
//!   metadata, e.g., geolocation. These results are published on a daily
//!   basis." Module [`censys`] reproduces the daily-snapshot service.
//! * **ZGrab2** against **IPv6 hitlists** for addresses "that showed
//!   activity for popular IoT ports, i.e., 443 (HTTPS), 8883 (MQTT),
//!   1883 (MQTT), and 5671 (AMQP)". Modules [`zgrab`] and [`hitlist`].
//!
//! The scanners observe the Internet only through the [`target::ScanView`]
//! trait — the measurement code never touches ground truth directly, which
//! is what lets the same pipeline run against a real Internet or the
//! synthetic one.
//!
//! [`ethics`] implements the §3.7 controls (single probe per destination,
//! randomized spread, opt-out lists, PTR self-identification), and
//! [`lookingglass`] the RTT-based location estimation used as a footprint
//! fallback in §4.2.

pub mod censys;
pub mod ethics;
pub mod hitlist;
pub mod lookingglass;
pub mod target;
pub mod zgrab;

pub use censys::{CensysRecord, CensysService, CensysSnapshot};
pub use ethics::ProbePolicy;
pub use hitlist::Ipv6Hitlist;
pub use lookingglass::{estimate_location, LatencyProber, LookingGlassSite};
pub use target::ScanView;
pub use zgrab::{Zgrab2Scanner, ZgrabRecord};
