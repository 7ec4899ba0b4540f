//! # iotmap-traffic — the ISP-side traffic analyses (§5, §6.1)
//!
//! Everything in this crate consumes two things and nothing else:
//!
//! 1. the **discovered backend map** produced by `iotmap-core` (dedicated
//!    IPs only, §3.4), distilled into an [`IpIndex`], and
//! 2. **anonymized, sampled NetFlow records** streamed through
//!    mergeable [`iotmap_netflow::FlowFold`]s ([`ContactFold`],
//!    [`AnalysisFold`]).
//!
//! The analyses mirror the paper section by section: scanner exclusion
//! (§5.2, Fig. 5), backend visibility (Fig. 6) and per-source line
//! ablation (Fig. 7), subscriber-line activity (Fig. 8), traffic volumes
//! and asymmetry (Figs. 9–10), port usage (Fig. 11), per-line ECDFs
//! (Figs. 12a–c), region crossing (Figs. 13–14), and the AWS outage
//! (Figs. 15–16). Provider names are anonymized per §3.7 ([`anonymize`]).

pub mod analysis;
pub mod anonymize;
pub mod index;
pub mod scanners;
pub mod visibility;
pub mod whatif;

pub use analysis::{AnalysisFold, AnalysisPartial, AnalysisReport, RegionGroup};
pub use anonymize::Anonymization;
pub use index::{IpIndex, IpMeta};
pub use scanners::{ContactFold, ContactPartial, Contacts, ScannerAnalysis, ScannerCurvePoint};
pub use visibility::{source_ablation, visibility_per_provider, ProviderVisibility};
pub use whatif::{cascade_impact, CloudDependence};
