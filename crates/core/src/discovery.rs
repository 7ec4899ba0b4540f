//! The multi-source discovery pipeline (§3.3).
//!
//! For each provider pattern, four instruments contribute candidate
//! backend IPs, each tagged with its source so Figure 3's per-source
//! breakdown and Figure 7's TLS-only ablation fall out directly:
//!
//! * **TLS certificates** from daily IPv4 snapshots (`Certificate`),
//! * **IPv6 hitlist banner grabs** (`Ipv6Scan`),
//! * **passive DNS** regex searches, including two-step CNAME chasing
//!   (`PassiveDns`),
//! * **active DNS** — daily resolution of every passive-DNS-discovered
//!   domain from three vantage points (`ActiveDns`).
//!
//! Each harvest is a **single pass over the records**: a
//! [`crate::matcher::MatchEngine`] classifies every record against all
//! sixteen providers at once (literal-suffix index lookups plus a combined
//! fallback VM), then one `iotmap-par::shard_fold` over the records
//! accumulates per-provider [`IpEvidence`] maps that `IpEvidence::join`
//! merges in shard order and then onto the result — so a multi-threaded
//! run is byte-identical to a serial one, and the record corpus is walked
//! once instead of once per provider. The two certificate channels (IPv4
//! snapshots and IPv6 banner grabs) are one harvest over
//! `(day, ip, certificate, location)` rows.
//!
//! [`DiscoveryPipeline::run_fanout`] keeps the original per-provider
//! fan-out (sixteen full scans, one worker per provider) as the reference
//! implementation: the differential tests (`tests/engine_equivalence.rs`)
//! pin the engine's output to it byte-for-byte. It is a test oracle, not
//! a production path, so no benchmark times it.

use crate::certid::{evidence_memos, CertSet, CertVerifyMemo};
use crate::matcher::{MatchEngine, MatchTable};
use crate::patterns::{PatternRegistry, ProviderPatterns};
use crate::sources::DataSources;
use iotmap_dns::{ActiveCampaign, PassiveDnsDb, RData};
use iotmap_faults::ActiveDnsFaults;
use iotmap_nettypes::{DomainName, Error, Location, StudyPeriod, SuffixIndex};
use iotmap_scan::zgrab::filter_records;
use iotmap_scan::CensysSnapshot;
use iotmap_tls::Certificate;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::IpAddr;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// One discovery channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    Certificate,
    Ipv6Scan,
    PassiveDns,
    ActiveDns,
}

impl Source {
    /// All channels, in report order.
    pub const ALL: [Source; 4] = [
        Source::Certificate,
        Source::Ipv6Scan,
        Source::PassiveDns,
        Source::ActiveDns,
    ];

    /// Report label (Fig. 3 legend).
    pub fn label(&self) -> &'static str {
        match self {
            Source::Certificate => "TLS Certificates",
            Source::Ipv6Scan => "IPv6 Scans",
            Source::PassiveDns => "Passive DNS",
            Source::ActiveDns => "Active DNS",
        }
    }

    /// Stable lowercase key used in metric names
    /// (`discovery.<key>.ips_discovered`).
    pub fn metric_key(&self) -> &'static str {
        match self {
            Source::Certificate => "certificates",
            Source::Ipv6Scan => "ipv6_scan",
            Source::PassiveDns => "passive_dns",
            Source::ActiveDns => "active_dns",
        }
    }

    fn bit(&self) -> u8 {
        match self {
            Source::Certificate => 1,
            Source::Ipv6Scan => 2,
            Source::PassiveDns => 4,
            Source::ActiveDns => 8,
        }
    }
}

/// A set of discovery channels (bitset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceSet(u8);

impl SourceSet {
    /// Empty set.
    pub fn empty() -> Self {
        SourceSet(0)
    }

    /// Add a channel.
    pub fn insert(&mut self, s: Source) {
        self.0 |= s.bit();
    }

    /// Membership test.
    pub fn contains(&self, s: Source) -> bool {
        self.0 & s.bit() != 0
    }

    /// Number of channels that contributed.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// The single contributing channel, if exactly one.
    pub fn sole_source(&self) -> Option<Source> {
        if self.count() != 1 {
            return None;
        }
        Source::ALL.into_iter().find(|s| self.contains(*s))
    }
}

/// Evidence accumulated for one discovered IP.
///
/// Every field is a **join-semilattice**: accumulation is commutative,
/// associative, and idempotent (`sources`/`days` are set unions,
/// `matched_names` keeps the lexicographically smallest
/// `MAX_MATCHED_NAMES` (12) names, the two options keep their smallest
/// `Some`), and `IpEvidence::join` joins all five. That is what lets
/// sharded partials merge in any grouping, lets the incremental engine
/// re-apply a record's evidence without drift, and makes a rolled-forward
/// run byte-identical to a from-scratch one.
#[derive(Debug, Clone, Default)]
pub struct IpEvidence {
    pub sources: SourceSet,
    /// Epoch days on which the IP was (re-)discovered — drives Fig. 4.
    pub days: BTreeSet<i64>,
    /// Region code extracted from a matching domain, if the scheme has one.
    pub domain_hint: Option<String>,
    /// Scanner-metadata geolocation (Censys).
    pub censys_location: Option<Location>,
    /// A few of the matching names (diagnostics; capped).
    pub matched_names: BTreeSet<String>,
}

const MAX_MATCHED_NAMES: usize = 12;

impl IpEvidence {
    pub(crate) fn note_name(&mut self, name: &str) {
        note_smallest(&mut self.matched_names, name);
    }

    pub(crate) fn note_hint(&mut self, hint: Option<String>) {
        join_hint(&mut self.domain_hint, hint);
    }

    pub(crate) fn note_location(&mut self, location: Option<Location>) {
        join_location(&mut self.censys_location, location);
    }

    /// Note one passive-DNS row seen under `owner`: the row's `days`
    /// (already clipped to the period) plus the owner's region hint and
    /// name.
    pub(crate) fn note_rrset(
        &mut self,
        patterns: &ProviderPatterns,
        owner: &DomainName,
        days: RangeInclusive<i64>,
    ) {
        self.days.extend(days);
        self.note_hint(patterns.region_hint.extract(owner.as_str()));
        self.note_name(owner.as_str());
    }

    /// The lattice join: fold another IP's evidence into this one. It is
    /// commutative, associative and idempotent, and joining equals noting
    /// `other`'s facts one by one — so shard partials may merge in any
    /// grouping before they land on the result.
    pub(crate) fn join(&mut self, other: IpEvidence) {
        self.sources.0 |= other.sources.0;
        self.days.extend(other.days);
        self.note_hint(other.domain_hint);
        self.note_location(other.censys_location);
        for name in other.matched_names {
            note_smallest(&mut self.matched_names, name);
        }
    }
}

/// Keep the [`MAX_MATCHED_NAMES`] lexicographically smallest distinct
/// names: insert, then evict the largest when over the cap. The cap is
/// lossless under joins — the smallest `cap` of a union depend only on
/// the smallest `cap` of each side.
pub(crate) fn note_smallest<S: AsRef<str> + Into<String>>(names: &mut BTreeSet<String>, name: S) {
    if names.len() >= MAX_MATCHED_NAMES {
        match names.last() {
            Some(max) if name.as_ref() < max.as_str() => {}
            _ => return,
        }
    }
    names.insert(name.into());
    if names.len() > MAX_MATCHED_NAMES {
        names.pop_last();
    }
}

/// Join for the hint slot: the smallest `Some` ever offered.
pub(crate) fn join_hint(slot: &mut Option<String>, candidate: Option<String>) {
    if let Some(c) = candidate {
        match slot {
            Some(cur) if *cur <= c => {}
            _ => *slot = Some(c),
        }
    }
}

/// A total order over locations (floats via `total_cmp`), so the
/// location slot has a deterministic min-join.
fn location_cmp(a: &Location, b: &Location) -> std::cmp::Ordering {
    a.city
        .cmp(&b.city)
        .then_with(|| a.country.as_str().cmp(b.country.as_str()))
        .then_with(|| a.continent.cmp(&b.continent))
        .then_with(|| a.lat.total_cmp(&b.lat))
        .then_with(|| a.lon.total_cmp(&b.lon))
}

/// Join for the location slot: the smallest `Some` under [`location_cmp`].
fn join_location(slot: &mut Option<Location>, candidate: Option<Location>) {
    if let Some(c) = candidate {
        match slot {
            Some(cur) if location_cmp(cur, &c) != std::cmp::Ordering::Greater => {}
            _ => *slot = Some(c),
        }
    }
}

/// One certificate-bearing scan row: the day it counts for, the host, its
/// certificate, and the scanner's geolocation of the host (Censys only).
type SanRow<'a> = (i64, IpAddr, &'a Arc<Certificate>, Option<&'a Location>);

/// Per-provider partial state for one shard of the certificate / IPv6
/// harvests: per-IP evidence without source bits, which
/// [`ProviderDiscovery::join_ips`] sets once on apply.
type IpPartials = Vec<HashMap<IpAddr, IpEvidence>>;

fn merge_ip_partials(a: &mut HashMap<IpAddr, IpEvidence>, b: HashMap<IpAddr, IpEvidence>) {
    for (ip, ev) in b {
        a.entry(ip).or_default().join(ev);
    }
}

/// Apply per-provider IP partials onto the result, one worker per
/// provider (disjoint `&mut`, no merge step).
fn apply_ip_partials(result: &mut DiscoveryResult, source: Source, partials: IpPartials) {
    let mut work: Vec<(&mut ProviderDiscovery, HashMap<IpAddr, IpEvidence>)> =
        result.providers.iter_mut().zip(partials).collect();
    iotmap_par::shard_map_mut(&mut work, |_i, (prov, partial)| {
        prov.join_ips(source, std::mem::take(partial));
    });
}

/// Per-provider partial state for one shard of the passive-DNS harvest:
/// direct per-IP evidence, matched owner domains, and the CNAME pairs to
/// chase once the direct pass has been applied.
#[derive(Debug, Clone, Default)]
struct PdnsPartial {
    ips: HashMap<IpAddr, IpEvidence>,
    domains: BTreeSet<DomainName>,
    cnames: Vec<(DomainName, DomainName)>,
}

impl PdnsPartial {
    fn merge(&mut self, later: PdnsPartial) {
        merge_ip_partials(&mut self.ips, later.ips);
        self.domains.extend(later.domains);
        self.cnames.extend(later.cnames);
    }
}

/// Everything discovered for one provider.
#[derive(Debug, Clone, Default)]
pub struct ProviderDiscovery {
    pub name: String,
    pub ips: HashMap<IpAddr, IpEvidence>,
    /// Domains that matched the provider's patterns (used to seed active
    /// resolution and the shared-IP analysis).
    pub domains: BTreeSet<DomainName>,
}

impl ProviderDiscovery {
    /// The evidence slot for `ip`, marked as found by `source`.
    pub(crate) fn evidence(&mut self, ip: IpAddr, source: Source) -> &mut IpEvidence {
        let ev = self.ips.entry(ip).or_default();
        ev.sources.insert(source);
        ev
    }

    /// Join one channel's shard-accumulated evidence onto this provider.
    fn join_ips(&mut self, source: Source, ips: HashMap<IpAddr, IpEvidence>) {
        for (ip, ev) in ips {
            self.evidence(ip, source).join(ev);
        }
    }

    /// Discovered IPv4 addresses.
    pub fn v4_ips(&self) -> impl Iterator<Item = IpAddr> + '_ {
        self.ips.keys().copied().filter(|ip| ip.is_ipv4())
    }

    /// Discovered IPv6 addresses.
    pub fn v6_ips(&self) -> impl Iterator<Item = IpAddr> + '_ {
        self.ips.keys().copied().filter(|ip| ip.is_ipv6())
    }

    /// IPs discoverable from a subset of channels only (Fig. 7 ablation).
    pub fn ips_from_sources(&self, allowed: &[Source]) -> HashSet<IpAddr> {
        self.ips
            .iter()
            .filter(|(_, ev)| allowed.iter().any(|s| ev.sources.contains(*s)))
            .map(|(ip, _)| *ip)
            .collect()
    }

    /// The set discovered on one specific day (Fig. 4 stability input).
    pub fn daily_set(&self, epoch_day: i64) -> HashSet<IpAddr> {
        self.ips
            .iter()
            .filter(|(_, ev)| ev.days.contains(&epoch_day))
            .map(|(ip, _)| *ip)
            .collect()
    }

    /// Per-source exclusive/multi breakdown (Fig. 3): returns
    /// `(per-source-exclusive counts, multi-source count)` for one address
    /// family.
    pub fn source_breakdown(&self, v6: bool) -> (BTreeMap<Source, usize>, usize) {
        let mut exclusive: BTreeMap<Source, usize> = BTreeMap::new();
        let mut multi = 0usize;
        for (ip, ev) in &self.ips {
            if ip.is_ipv6() != v6 {
                continue;
            }
            match ev.sources.sole_source() {
                Some(s) => *exclusive.entry(s).or_default() += 1,
                None => multi += 1,
            }
        }
        (exclusive, multi)
    }
}

/// Pipeline output: all providers.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryResult {
    pub(crate) providers: Vec<ProviderDiscovery>,
}

impl DiscoveryResult {
    /// Assemble from pre-built provider discoveries (harness and test
    /// use; the pipeline builds its own).
    pub fn from_providers(providers: Vec<ProviderDiscovery>) -> Self {
        DiscoveryResult { providers }
    }

    /// Per-provider view, in registry order.
    pub fn per_provider(&self) -> impl Iterator<Item = (&str, &ProviderDiscovery)> {
        self.providers.iter().map(|p| (p.name.as_str(), p))
    }

    /// Lookup one provider's discovery.
    pub fn get(&self, name: &str) -> Option<&ProviderDiscovery> {
        self.providers.iter().find(|p| p.name == name)
    }

    /// Lookup one provider's discovery, failing with
    /// [`Error::MissingProvider`] when absent — for callers that treat a
    /// missing provider as a pipeline error rather than an option.
    pub fn require(&self, name: &str) -> Result<&ProviderDiscovery, Error> {
        self.get(name)
            .ok_or_else(|| Error::MissingProvider(name.to_string()))
    }

    /// All discovered IPs across providers.
    pub fn all_ips(&self) -> HashSet<IpAddr> {
        self.providers
            .iter()
            .flat_map(|p| p.ips.keys().copied())
            .collect()
    }

    /// All discovered IPv4 addresses.
    pub fn all_v4(&self) -> HashSet<IpAddr> {
        self.all_ips()
            .into_iter()
            .filter(|ip| ip.is_ipv4())
            .collect()
    }

    /// All discovered IPv6 addresses.
    pub fn all_v6(&self) -> HashSet<IpAddr> {
        self.all_ips()
            .into_iter()
            .filter(|ip| ip.is_ipv6())
            .collect()
    }
}

/// The discovery pipeline.
pub struct DiscoveryPipeline {
    registry: PatternRegistry,
    campaign: ActiveCampaign,
    active_dns_faults: ActiveDnsFaults,
    fault_seed: u64,
}

impl DiscoveryPipeline {
    /// Pipeline with the paper's three active-DNS vantage points.
    pub fn new(registry: PatternRegistry) -> Self {
        DiscoveryPipeline {
            registry,
            campaign: ActiveCampaign::paper_defaults(),
            active_dns_faults: ActiveDnsFaults::NONE,
            fault_seed: 0,
        }
    }

    /// Pipeline with a custom campaign (e.g. single-vantage ablation).
    pub fn with_campaign(registry: PatternRegistry, campaign: ActiveCampaign) -> Self {
        DiscoveryPipeline {
            registry,
            campaign,
            active_dns_faults: ActiveDnsFaults::NONE,
            fault_seed: 0,
        }
    }

    /// Apply an active-DNS fault plan: the resolution campaigns this
    /// pipeline launches suffer the plan's vantage outages and query
    /// timeouts. The other sources degrade upstream (the scan datasets
    /// and passive-DNS database arrive already faulted), so this is the
    /// only fault knob the discovery stage itself needs.
    pub fn faults(mut self, fault_seed: u64, faults: ActiveDnsFaults) -> Self {
        self.active_dns_faults = faults;
        self.fault_seed = fault_seed;
        self
    }

    /// The registry in use.
    pub fn registry(&self) -> &PatternRegistry {
        &self.registry
    }

    /// Run this pipeline's resolution campaign (with its fault plan) over
    /// an explicit seed set — the incremental engine replays campaigns for
    /// delta periods and freshly matched owners.
    pub(crate) fn run_campaign(
        &self,
        zones: &iotmap_dns::ZoneDb,
        domains: &[DomainName],
        period: &StudyPeriod,
    ) -> iotmap_dns::CampaignResult {
        self.campaign.run_with_faults(
            zones,
            domains,
            period,
            self.fault_seed,
            &self.active_dns_faults,
        )
    }

    fn empty_result(&self) -> DiscoveryResult {
        DiscoveryResult {
            providers: self
                .registry
                .providers()
                .iter()
                .map(|p| ProviderDiscovery {
                    name: p.name.to_string(),
                    ..Default::default()
                })
                .collect(),
        }
    }

    /// Run all four instruments over a study period, using the single-pass
    /// matching engine.
    pub fn run(&self, sources: &DataSources<'_>, period: StudyPeriod) -> DiscoveryResult {
        let _span = iotmap_obs::span!("core.discovery");
        self.harvest(sources, period, &Source::ALL)
    }

    /// Run all four instruments with the original per-provider fan-out
    /// (sixteen full scans over every corpus). Kept as the reference
    /// implementation: [`DiscoveryPipeline::run`] must produce the exact
    /// same [`DiscoveryResult`] (`tests/engine_equivalence.rs`).
    pub fn run_fanout(&self, sources: &DataSources<'_>, period: StudyPeriod) -> DiscoveryResult {
        let _span = iotmap_obs::span!("core.discovery.fanout");
        let mut result = self.empty_result();
        self.harvest_certificates_fanout(sources, period, &mut result);
        self.harvest_v6_scans_fanout(sources, period, &mut result);
        self.harvest_passive_dns_fanout(sources, period, &mut result);
        self.harvest_active_dns_fanout(sources, period, &mut result);
        flush_discovery_totals(&result);
        result
    }

    /// Run with a restricted channel set (ablations; Fig. 7 uses
    /// certificates only).
    pub fn run_channels(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        channels: &[Source],
    ) -> DiscoveryResult {
        let _span = iotmap_obs::span!("core.discovery.channels");
        self.harvest(sources, period, channels)
    }

    /// The harvest sequence behind [`run`](Self::run) and
    /// [`run_channels`](Self::run_channels): each selected channel in
    /// report order, then the discovery totals.
    fn harvest(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        channels: &[Source],
    ) -> DiscoveryResult {
        let mut result = self.empty_result();
        for source in Source::ALL.into_iter().filter(|s| channels.contains(s)) {
            match source {
                Source::Certificate => {
                    self.harvest_certificate_snapshots(sources.censys, period, &mut result)
                }
                Source::Ipv6Scan => self.harvest_v6_scans(sources, period, &mut result),
                Source::PassiveDns => self.harvest_passive_dns(sources, period, &mut result),
                Source::ActiveDns => self.harvest_active_dns(sources, period, &mut result),
            }
        }
        flush_discovery_totals(&result);
        result
    }

    /// The certificate harvest over an explicit snapshot slice — the
    /// incremental engine feeds it just the day's fresh snapshots, since
    /// evidence joins make the per-snapshot contributions independent.
    pub(crate) fn harvest_certificate_snapshots(
        &self,
        snapshots: &[CensysSnapshot],
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        // In-period snapshot records in source order — the same
        // per-provider event sequence as the fan-out's snapshot walk.
        let rows = snapshots
            .iter()
            .filter(|s| period.contains(s.date.midnight()))
            .flat_map(|s| {
                let day = s.date.epoch_days();
                s.records.iter().map(move |r| (day, r))
            });
        self.harvest_sans(
            Source::Certificate,
            rows,
            |&(day, r)| (day, r.ip, &r.certificate, r.location.as_ref()),
            period,
            result,
        );
    }

    /// The IPv6 banner-grab harvest: the hitlist campaign runs once, so
    /// every grab is evidence for the period's first day.
    fn harvest_v6_scans(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        let day = period.start.epoch_days();
        self.harvest_sans(
            Source::Ipv6Scan,
            sources.zgrab_v6.iter(),
            |&r| (day, IpAddr::V6(r.ip), &r.certificate, None),
            period,
            result,
        );
    }

    /// Single-pass SAN harvest behind both certificate channels: classify
    /// every row, read as `(day, ip, certificate, location)` through
    /// `fields`, against all providers at once, then shard the rows and
    /// fan the evidence back in per provider. Rows stay references into
    /// the corpus: a materialised [`SanRow`] is several times their size,
    /// over hundreds of thousands of IPv4 rows.
    fn harvest_sans<'a, R: Sync>(
        &self,
        source: Source,
        rows: impl Iterator<Item = R>,
        fields: impl Fn(&R) -> SanRow<'a> + Sync,
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        let _span = iotmap_obs::span!(format!("discovery.{}", source.metric_key()));
        let providers = self.registry.providers();
        let engine = MatchEngine::sans(&self.registry);
        let rows: Vec<R> = rows.collect();
        let cert_of = |row: usize| fields(&rows[row]).2;
        let index = iotmap_scan::san_suffix_index((0..rows.len()).map(|i| &**cert_of(i)), period);
        // Records share certificates heavily (one gateway cert behind
        // thousands of IPs, and scaled corpora replicate rows): verify and
        // harvest each distinct cert once, then replay per record.
        let certs = CertSet::dedupe((0..rows.len()).map(cert_of));
        let mut verify_memo = CertVerifyMemo::new(certs.unique(), providers.len());
        let table = {
            let mut buf = String::new();
            engine.classify(
                &index,
                rows.len(),
                |p, row| {
                    verify_memo.check(p, certs.cert_of_row(row as usize), || {
                        let re = &providers[p].san_regex;
                        cert_of(row as usize)
                            .sans
                            .iter()
                            .any(|san| re.is_match(san.presentation_into(&mut buf)))
                    })
                },
                |row, emit| {
                    let certificate = cert_of(row as usize);
                    if certificate.valid_during(&period) {
                        let mut name_buf = String::new();
                        certificate.for_each_name(&mut name_buf, emit);
                    }
                },
            )
        };
        let matches = table.matched_per_provider();
        let memos = evidence_memos(&certs, &table, providers);
        let partials = iotmap_par::shard_fold(
            &rows,
            |_ctx| {
                providers
                    .iter()
                    .map(|_| HashMap::new())
                    .collect::<IpPartials>()
            },
            |acc, i, row| {
                if !table.any(i) {
                    return;
                }
                let (day, ip, _, location) = fields(row);
                let cert = certs.cert_of_row(i);
                for p in table.providers(i) {
                    let ev = acc[p].entry(ip).or_default();
                    ev.days.insert(day);
                    ev.note_location(location.cloned());
                    if let Some(memo) = memos.get(&(p, cert)) {
                        ev.note_hint(memo.hint.clone());
                        for name in &memo.names {
                            ev.note_name(name);
                        }
                    }
                }
            },
            |a, b| {
                for (pa, pb) in a.iter_mut().zip(b) {
                    merge_ip_partials(pa, pb);
                }
            },
        );
        apply_ip_partials(result, source, partials);
        flush_provider_matches(source, result, &matches);
    }

    /// Single-pass passive-DNS harvest: one classification of the rrset
    /// table via the database's owner suffix index, one sharded evidence
    /// pass, then per-provider CNAME chasing over the merged pairs.
    fn harvest_passive_dns(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        let _span = iotmap_obs::span!("discovery.passive_dns");
        let pdns = sources.passive_dns;
        let entries = pdns.entries_slice();
        let providers = self.registry.providers();
        let table = self.classify_rrsets(pdns, period);
        iotmap_obs::count!("discovery.pdns.rrsets_scanned", entries.len() as u64);
        let matches = table.matched_per_provider();
        let partials = iotmap_par::shard_fold(
            entries,
            |_ctx| {
                providers
                    .iter()
                    .map(|_| PdnsPartial::default())
                    .collect::<Vec<_>>()
            },
            |acc, i, entry| {
                if !table.any(i) {
                    return;
                }
                for p in table.providers(i) {
                    let partial = &mut acc[p];
                    partial.domains.insert(entry.owner.clone());
                    match &entry.rdata {
                        RData::Cname(target) => {
                            partial.cnames.push((entry.owner.clone(), target.clone()));
                        }
                        rdata => {
                            if let Some(ip) = rdata.ip() {
                                partial.ips.entry(ip).or_default().note_rrset(
                                    &providers[p],
                                    &entry.owner,
                                    entry.days_in(&period),
                                );
                            }
                        }
                    }
                }
            },
            |a, b| {
                for (pa, pb) in a.iter_mut().zip(b) {
                    pa.merge(pb);
                }
            },
        );
        // Apply direct evidence, then chase the merged CNAME pairs —
        // direct-before-chase per provider, exactly as the fan-out.
        let mut work: Vec<(&mut ProviderDiscovery, PdnsPartial)> =
            result.providers.iter_mut().zip(partials).collect();
        iotmap_par::shard_map_mut(&mut work, |pi, (prov, partial)| {
            let patterns = &providers[pi];
            let partial = std::mem::take(partial);
            prov.domains.extend(partial.domains);
            prov.join_ips(Source::PassiveDns, partial.ips);
            for (owner, target) in partial.cnames {
                for entry in pdns.entries_for_owner(&target, period) {
                    if let Some(ip) = entry.rdata.ip() {
                        prov.evidence(ip, Source::PassiveDns).note_rrset(
                            patterns,
                            &owner,
                            entry.days_in(&period),
                        );
                    }
                }
            }
        });
        flush_provider_matches(Source::PassiveDns, result, &matches);
    }

    /// Classify the passive-DNS rrset table against every provider's
    /// owner pattern at once, via the database's owner suffix index: row
    /// `r` matches provider `p` iff it is observed in `period` and its
    /// owner matches. The harvest and
    /// [`IncrementalDiscovery::bootstrap`](crate::IncrementalDiscovery::bootstrap)
    /// both read this one table, so the rows an incremental run tracks are
    /// exactly those whose evidence the harvest applied.
    pub(crate) fn classify_rrsets(&self, pdns: &PassiveDnsDb, period: StudyPeriod) -> MatchTable {
        let entries = pdns.entries_slice();
        let providers = self.registry.providers();
        let mut buf = String::new();
        MatchEngine::owners(&self.registry).classify(
            pdns.owner_suffix_index(),
            entries.len(),
            |p, row| {
                let entry = &entries[row as usize];
                entry.observed_in(&period)
                    && providers[p]
                        .owner_regex
                        .is_match(entry.owner.fqdn_into(&mut buf))
            },
            |row, emit| {
                let entry = &entries[row as usize];
                if entry.observed_in(&period) {
                    let mut fqdn = String::new();
                    emit(entry.owner.fqdn_into(&mut fqdn));
                }
            },
        )
    }

    /// Single-pass active-DNS seeding: the in-period owner corpus is
    /// classified once for every provider, then each provider's campaign
    /// runs exactly as in the fan-out.
    fn harvest_active_dns(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        let _span = iotmap_obs::span!("discovery.active_dns");
        let providers = self.registry.providers();
        let owners = sources.passive_dns.owners_in(period);
        let engine = MatchEngine::owners(&self.registry);
        let mut index = SuffixIndex::new();
        for (i, owner) in owners.iter().enumerate() {
            index.insert(owner.as_str(), i as u32);
        }
        let table = {
            let mut buf = String::new();
            engine.classify(
                &index,
                owners.len(),
                |p, row| {
                    providers[p]
                        .owner_regex
                        .is_match(owners[row as usize].fqdn_into(&mut buf))
                },
                |row, emit| {
                    let mut fqdn = String::new();
                    emit(owners[row as usize].fqdn_into(&mut fqdn));
                },
            )
        };
        let matches = iotmap_par::shard_map_mut(&mut result.providers, |pi, prov| {
            let patterns = &providers[pi];
            let mut seeds: BTreeSet<DomainName> = prov.domains.clone();
            for (i, owner) in owners.iter().enumerate() {
                if table.contains(i, pi) {
                    seeds.insert(owner.clone());
                }
            }
            if seeds.is_empty() {
                return 0;
            }
            let domains: Vec<DomainName> = seeds.iter().cloned().collect();
            let campaign_result = self.campaign.run_with_faults(
                sources.zones,
                &domains,
                &period,
                self.fault_seed,
                &self.active_dns_faults,
            );
            let matched = Self::apply_campaign_observations(prov, patterns, &campaign_result);
            prov.domains = seeds;
            matched
        });
        flush_provider_matches(Source::ActiveDns, result, &matches);
    }

    fn harvest_certificates_fanout(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        let _span = iotmap_obs::span!("discovery.certificates.fanout");
        // Per-provider fan-out: each worker owns exactly one provider's
        // discovery (disjoint `&mut`), walking the snapshots in
        // chronological order — the same per-provider event sequence as
        // a serial run, so evidence accumulation is byte-identical.
        let providers = self.registry.providers();
        let matches = iotmap_par::shard_map_mut(&mut result.providers, |pi, prov| {
            let patterns = &providers[pi];
            let mut matched = 0u64;
            for snapshot in sources.censys {
                let day = snapshot.date.epoch_days();
                let midnight = snapshot.date.midnight();
                if !period.contains(midnight) {
                    continue;
                }
                for record in snapshot.search_regex(&patterns.san_regex, period) {
                    matched += 1;
                    let entry = prov.ips.entry(record.ip).or_default();
                    entry.sources.insert(Source::Certificate);
                    entry.days.insert(day);
                    entry.note_location(record.location.clone());
                    Self::note_cert_names(entry, patterns, &record.certificate);
                }
            }
            matched
        });
        flush_provider_matches(Source::Certificate, result, &matches);
    }

    fn harvest_v6_scans_fanout(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        let _span = iotmap_obs::span!("discovery.ipv6_scan.fanout");
        let first_day = period.start.epoch_days();
        let providers = self.registry.providers();
        let matches = iotmap_par::shard_map_mut(&mut result.providers, |pi, prov| {
            let patterns = &providers[pi];
            let mut matched = 0u64;
            for record in filter_records(sources.zgrab_v6, &patterns.san_regex, period) {
                matched += 1;
                let entry = prov.ips.entry(IpAddr::V6(record.ip)).or_default();
                entry.sources.insert(Source::Ipv6Scan);
                entry.days.insert(first_day);
                Self::note_cert_names(entry, patterns, &record.certificate);
            }
            matched
        });
        flush_provider_matches(Source::Ipv6Scan, result, &matches);
    }

    fn harvest_passive_dns_fanout(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        let _span = iotmap_obs::span!("discovery.passive_dns.fanout");
        let pdns = sources.passive_dns;
        let providers = self.registry.providers();
        let per_provider: Vec<(u64, u64)> =
            iotmap_par::shard_map_mut(&mut result.providers, |pi, prov| {
                let patterns = &providers[pi];
                let mut matched = 0u64;
                let mut rrsets_scanned = 0u64;
                // Direct search: every entry whose owner matches the pattern.
                // (One linear scan per provider — DNSDB's flexible search.)
                let mut cname_targets: Vec<(DomainName, DomainName)> = Vec::new();
                for entry in pdns.entries() {
                    rrsets_scanned += 1;
                    if !entry.observed_in(&period) || !patterns.matches_owner(&entry.owner) {
                        continue;
                    }
                    matched += 1;
                    prov.domains.insert(entry.owner.clone());
                    match &entry.rdata {
                        RData::Cname(target) => {
                            cname_targets.push((entry.owner.clone(), target.clone()));
                        }
                        rdata => {
                            if let Some(ip) = rdata.ip() {
                                Self::note_pdns_ip(
                                    prov,
                                    patterns,
                                    ip,
                                    &entry.owner,
                                    entry.time_first.epoch_days().max(period.start.epoch_days()),
                                    entry
                                        .time_last
                                        .epoch_days()
                                        .min(period.end.epoch_days() - 1),
                                );
                            }
                        }
                    }
                }
                // CNAME chasing: A/AAAA records live under the alias target's
                // owner name (cloud load balancers).
                for (owner, target) in cname_targets {
                    for entry in pdns.entries_for_owner(&target, period) {
                        if let Some(ip) = entry.rdata.ip() {
                            Self::note_pdns_ip(
                                prov,
                                patterns,
                                ip,
                                &owner,
                                entry.time_first.epoch_days().max(period.start.epoch_days()),
                                entry
                                    .time_last
                                    .epoch_days()
                                    .min(period.end.epoch_days() - 1),
                            );
                        }
                    }
                }
                (matched, rrsets_scanned)
            });
        let matches: Vec<u64> = per_provider.iter().map(|(m, _)| *m).collect();
        let rrsets_scanned: u64 = per_provider.iter().map(|(_, s)| *s).sum();
        iotmap_obs::count!("discovery.pdns.rrsets_scanned", rrsets_scanned);
        flush_provider_matches(Source::PassiveDns, result, &matches);
    }

    /// Join a matching certificate's names into one IP's evidence — the
    /// shared inner loop of both fan-out certificate harvests.
    fn note_cert_names(
        entry: &mut IpEvidence,
        patterns: &crate::patterns::ProviderPatterns,
        certificate: &iotmap_tls::Certificate,
    ) {
        let mut buf = String::new();
        certificate.for_each_name(&mut buf, |name| {
            if patterns.matches_san(name) {
                entry.note_hint(patterns.region_hint.extract(name));
                entry.note_name(name);
            }
        });
    }

    /// Join a resolution campaign's observations into one provider's
    /// discovery — shared by the single-pass, incremental and fan-out
    /// active-DNS harvests. Returns the observation count for the match
    /// counters.
    pub(crate) fn apply_campaign_observations(
        prov: &mut ProviderDiscovery,
        patterns: &crate::patterns::ProviderPatterns,
        campaign_result: &iotmap_dns::CampaignResult,
    ) -> u64 {
        let mut matched = 0u64;
        for obs in &campaign_result.observations {
            matched += 1;
            let entry = prov.ips.entry(obs.ip).or_default();
            entry.sources.insert(Source::ActiveDns);
            entry.days.insert(obs.day);
            entry.note_hint(patterns.region_hint.extract(obs.domain.as_str()));
            entry.note_name(obs.domain.as_str());
        }
        matched
    }

    fn note_pdns_ip(
        provider: &mut ProviderDiscovery,
        patterns: &crate::patterns::ProviderPatterns,
        ip: IpAddr,
        owner: &DomainName,
        first_day: i64,
        last_day: i64,
    ) {
        let entry = provider.ips.entry(ip).or_default();
        entry.sources.insert(Source::PassiveDns);
        for d in first_day..=last_day {
            entry.days.insert(d);
        }
        entry.note_hint(patterns.region_hint.extract(owner.as_str()));
        entry.note_name(owner.as_str());
    }

    fn harvest_active_dns_fanout(
        &self,
        sources: &DataSources<'_>,
        period: StudyPeriod,
        result: &mut DiscoveryResult,
    ) {
        // Seed: every matching domain seen in passive DNS during the
        // period (the paper resolves "all domains identified via DNSDB").
        let _span = iotmap_obs::span!("discovery.active_dns.fanout");
        let providers = self.registry.providers();
        let matches = iotmap_par::shard_map_mut(&mut result.providers, |pi, prov| {
            let patterns = &providers[pi];
            let mut seeds: BTreeSet<DomainName> = prov.domains.clone();
            for owner in sources.passive_dns.owners_in(period) {
                if patterns.matches_owner(&owner) {
                    seeds.insert(owner);
                }
            }
            if seeds.is_empty() {
                return 0;
            }
            let domains: Vec<DomainName> = seeds.iter().cloned().collect();
            let campaign_result = self.campaign.run_with_faults(
                sources.zones,
                &domains,
                &period,
                self.fault_seed,
                &self.active_dns_faults,
            );
            let matched = Self::apply_campaign_observations(prov, patterns, &campaign_result);
            prov.domains = seeds;
            matched
        });
        flush_provider_matches(Source::ActiveDns, result, &matches);
    }
}

/// Report per-provider pattern-match counts for one discovery channel
/// (`discovery.<source>.matches.<provider>`), plus the channel total.
pub(crate) fn flush_provider_matches(source: Source, result: &DiscoveryResult, matches: &[u64]) {
    if !iotmap_obs::enabled() {
        return;
    }
    let key = source.metric_key();
    let mut total = 0u64;
    for (provider, &n) in result.providers.iter().zip(matches) {
        total += n;
        if n > 0 {
            iotmap_obs::count!(format!("discovery.{key}.matches.{}", provider.name), n);
        }
    }
    iotmap_obs::count!(format!("discovery.{key}.matches"), total);
}

/// Report the per-source and total distinct-IP tallies once a discovery
/// run has finished (`discovery.<source>.ips_discovered`).
pub(crate) fn flush_discovery_totals(result: &DiscoveryResult) {
    if !iotmap_obs::enabled() {
        return;
    }
    let mut per_source = [0u64; Source::ALL.len()];
    let mut total = 0u64;
    for provider in &result.providers {
        total += provider.ips.len() as u64;
        for ev in provider.ips.values() {
            for (i, s) in Source::ALL.iter().enumerate() {
                if ev.sources.contains(*s) {
                    per_source[i] += 1;
                }
            }
        }
    }
    for (i, s) in Source::ALL.iter().enumerate() {
        iotmap_obs::count!(
            format!("discovery.{}.ips_discovered", s.metric_key()),
            per_source[i]
        );
    }
    iotmap_obs::count!("discovery.ips_discovered", total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_nettypes::{Continent, SimRng};

    #[test]
    fn source_set_operations() {
        let mut s = SourceSet::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.sole_source(), None);
        s.insert(Source::PassiveDns);
        assert!(s.contains(Source::PassiveDns));
        assert!(!s.contains(Source::Certificate));
        assert_eq!(s.sole_source(), Some(Source::PassiveDns));
        s.insert(Source::ActiveDns);
        assert_eq!(s.count(), 2);
        assert_eq!(s.sole_source(), None);
        s.insert(Source::ActiveDns); // idempotent
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn evidence_name_cap() {
        let mut ev = IpEvidence::default();
        for i in 0..50 {
            ev.note_name(&format!("n{i}.example.com"));
        }
        assert_eq!(ev.matched_names.len(), MAX_MATCHED_NAMES);
    }

    /// One fact an instrument can note about an IP.
    #[derive(Debug, Clone)]
    enum Fact {
        Source(Source),
        Day(i64),
        Hint(Option<String>),
        Location(Option<Location>),
        Name(String),
    }

    fn random_facts(rng: &mut SimRng) -> Vec<Fact> {
        let n = rng.gen_below(60) as usize;
        (0..n)
            .map(|_| match rng.gen_below(6) {
                0 => Fact::Source(*rng.choose(&Source::ALL)),
                1 => Fact::Day(rng.gen_range_i64(19_000, 19_010)),
                2 => Fact::Hint(
                    rng.chance(0.5)
                        .then(|| format!("region-{}", rng.gen_below(4))),
                ),
                3 => Fact::Location(rng.chance(0.7).then(|| {
                    // Few cities, several latitudes each: ties on city
                    // must be broken by the coordinates.
                    let city = *rng.choose(&["Frankfurt", "Dublin"]);
                    let lat = 50.0 + rng.gen_below(3) as f64 * 0.25;
                    Location::new(city, "DE", Continent::Europe, lat, 8.7)
                })),
                _ => Fact::Name(format!("n{:02}.example.com", rng.gen_below(40))),
            })
            .collect()
    }

    fn note_all(facts: &[Fact]) -> IpEvidence {
        let mut ev = IpEvidence::default();
        for fact in facts.iter().cloned() {
            match fact {
                Fact::Source(s) => ev.sources.insert(s),
                Fact::Day(d) => {
                    ev.days.insert(d);
                }
                Fact::Hint(h) => ev.note_hint(h),
                Fact::Location(l) => ev.note_location(l),
                Fact::Name(n) => ev.note_name(&n),
            }
        }
        ev
    }

    fn joined(mut a: IpEvidence, b: IpEvidence) -> IpEvidence {
        a.join(b);
        a
    }

    type View = (
        SourceSet,
        BTreeSet<i64>,
        Option<String>,
        Option<Location>,
        BTreeSet<String>,
    );

    fn view(ev: &IpEvidence) -> View {
        (
            ev.sources,
            ev.days.clone(),
            ev.domain_hint.clone(),
            ev.censys_location.clone(),
            ev.matched_names.clone(),
        )
    }

    #[test]
    fn evidence_join_is_a_lattice_join() {
        let mut rng = SimRng::new(20);
        let (mut saw_cap, mut saw_city_tie) = (false, false);
        for _ in 0..400 {
            let (fa, fb, fc) = (
                random_facts(&mut rng),
                random_facts(&mut rng),
                random_facts(&mut rng),
            );
            let (a, b, c) = (note_all(&fa), note_all(&fb), note_all(&fc));
            let ab = joined(a.clone(), b.clone());
            assert_eq!(
                view(&ab),
                view(&joined(b.clone(), a.clone())),
                "commutative"
            );
            assert_eq!(
                view(&joined(ab.clone(), c.clone())),
                view(&joined(a.clone(), joined(b.clone(), c))),
                "associative"
            );
            assert_eq!(view(&joined(a.clone(), a.clone())), view(&a), "idempotent");
            let both: Vec<Fact> = fa.iter().chain(&fb).cloned().collect();
            assert_eq!(
                view(&ab),
                view(&note_all(&both)),
                "join = noting one by one"
            );

            let distinct: BTreeSet<&String> = both
                .iter()
                .filter_map(|f| match f {
                    Fact::Name(n) => Some(n),
                    _ => None,
                })
                .collect();
            saw_cap |= distinct.len() > MAX_MATCHED_NAMES;
            if let (Some(la), Some(lb)) = (&a.censys_location, &b.censys_location) {
                saw_city_tie |= la.city == lb.city && la.lat != lb.lat;
            }
        }
        assert!(saw_cap, "inputs exceed the name cap");
        assert!(saw_city_tie, "inputs tie on city but differ in lat");
    }

    #[test]
    fn provider_discovery_breakdowns() {
        let mut p = ProviderDiscovery {
            name: "x".to_string(),
            ..Default::default()
        };
        let mut cert_only = IpEvidence::default();
        cert_only.sources.insert(Source::Certificate);
        cert_only.days.insert(10);
        p.ips.insert("192.0.2.1".parse().unwrap(), cert_only);

        let mut both = IpEvidence::default();
        both.sources.insert(Source::Certificate);
        both.sources.insert(Source::PassiveDns);
        both.days.insert(11);
        p.ips.insert("192.0.2.2".parse().unwrap(), both);

        let mut v6 = IpEvidence::default();
        v6.sources.insert(Source::Ipv6Scan);
        v6.days.insert(10);
        p.ips.insert("2001:db8::1".parse().unwrap(), v6);

        let (excl, multi) = p.source_breakdown(false);
        assert_eq!(excl.get(&Source::Certificate), Some(&1));
        assert_eq!(multi, 1);
        let (excl6, multi6) = p.source_breakdown(true);
        assert_eq!(excl6.get(&Source::Ipv6Scan), Some(&1));
        assert_eq!(multi6, 0);

        assert_eq!(p.daily_set(10).len(), 2);
        assert_eq!(p.daily_set(11).len(), 1);
        assert_eq!(p.v4_ips().count(), 2);
        assert_eq!(p.v6_ips().count(), 1);

        let cert_view = p.ips_from_sources(&[Source::Certificate]);
        assert_eq!(cert_view.len(), 2);
        let pdns_view = p.ips_from_sources(&[Source::PassiveDns]);
        assert_eq!(pdns_view.len(), 1);
    }
}
