//! # iotmap-netflow — the flow-monitoring substrate
//!
//! §5.1 of the paper: "The ISP uses NetFlow to monitor the traffic flows at
//! all border routers of its network, using a consistent sampling rate
//! across all routers." §3.7 adds the privacy machinery: header data only,
//! anonymization by BGP prefix before the data hits the disk, BCP 38
//! ingress filtering against spoofing.
//!
//! This crate models exactly that: [`FlowRecord`]s, a packet
//! [`sampler`], [`router`]-side collection with ingress filtering, line
//! [`anonymize`]ation, and mergeable [`fold`]s — the one way to consume
//! the exported stream — so week-long traffic simulations never need to
//! materialize the full flow table.

pub mod anonymize;
pub mod fold;
pub mod record;
pub mod router;
pub mod sampler;

pub use anonymize::Anonymizer;
pub use fold::{CountingFold, FlowFold, FlowTotals, StoringSink};
pub use record::{Direction, FlowRecord, LineId};
pub use router::{BorderRouter, RouteTally};
pub use sampler::PacketSampler;
