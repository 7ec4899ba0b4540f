//! # iotmap-dns — the DNS substrate
//!
//! The paper's discovery pipeline leans on DNS twice (§3.3):
//!
//! 1. **Passive DNS** — DNSDB, "a passive DNS database that contains
//!    historical DNS queries and replies for both IPv4 and IPv6 from
//!    multiple resolvers around the globe", queried with regular expressions
//!    and time ranges. Module [`passive`].
//! 2. **Active DNS** — daily resolutions of every DNSDB-discovered domain
//!    from three vantage points (two in Europe, one in the US), which
//!    increased IP coverage by ≈17% over a single vantage point. Module
//!    [`active`].
//!
//! Underneath both sits an authoritative model ([`zone`]): IoT backend
//! providers answer queries with policies ranging from static A records to
//! geo-DNS and rotating load-balancer pools — the mechanics that make
//! multiple vantage points and repeated resolution worthwhile in the first
//! place.

pub mod active;
pub mod passive;
pub mod rdns;
pub mod record;
pub mod resolver;
pub mod zone;

pub use active::{ActiveCampaign, ActiveObservation, CampaignResult, VantagePoint};
pub use passive::{PassiveDnsDb, RrsetAggregator, RrsetEntry, RrsetRows};
pub use rdns::PtrRegistry;
pub use record::{RData, RDataRef, Record, RrType};
pub use resolver::{resolve, ResolutionContext};
pub use zone::{Policy, ZoneDb};
