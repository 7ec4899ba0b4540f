//! Incremental (longitudinal) discovery: roll a [`DiscoveryResult`]
//! forward by one day instead of re-matching the full corpus.
//!
//! The paper's methodology is longitudinal — daily snapshots drive its
//! footprint-growth and outage findings — and every source decomposes
//! cleanly by day once evidence accumulation is a join (order-free,
//! idempotent; see the `IpEvidence` join helpers in [`crate::discovery`]):
//!
//! * **Certificates** — each snapshot's contribution is independent, so
//!   day N+1 only harvests the fresh snapshots.
//! * **IPv6 banner grabs** — the hitlist campaign runs once at period
//!   start; extending the end observes nothing new.
//! * **Passive DNS** — `observed_in` is monotone in the period end: the
//!   rows that become visible when the end moves from E to E' are exactly
//!   those with `E ≤ time_first < E'`. Day clamps widen with the end, so
//!   previously matched rows are *re-applied* under the new window —
//!   joins make re-application land exactly on the from-scratch state.
//! * **Active DNS** — fault rolls and resolutions key on the absolute
//!   `(day, vantage, domain, rrtype)`, so a campaign over the extended
//!   period is the disjoint union of the old seeds over the delta days
//!   and the freshly visible owners over the full period.
//!
//! The correctness oracle is byte-identity: `tests/incremental_equivalence.rs`
//! pins the rolled-forward artifacts' `canonical_dump()` against a
//! from-scratch run over the merged corpus at every day, thread count,
//! and fault plan.

use crate::discovery::{
    flush_discovery_totals, flush_provider_matches, DiscoveryPipeline, DiscoveryResult, Source,
};
use crate::sources::DataSources;
use iotmap_dns::{PassiveDnsDb, RData, RrsetEntry};
use iotmap_nettypes::{DomainName, StudyPeriod};
use std::collections::BTreeSet;
use std::net::IpAddr;

/// The per-provider match state an incremental run carries between days:
/// which passive-DNS rows matched so far (they must be re-applied under
/// each widened window), plus the full entry table ordered by first-seen
/// time so one binary search finds the rows a day boundary reveals.
#[derive(Debug)]
pub struct IncrementalDiscovery {
    period: StudyPeriod,
    /// Per provider: matched rows (indices into `entries_slice`), ascending.
    pdns_matched: Vec<Vec<u32>>,
    /// Every entry keyed by `(time_first, row)`, ascending.
    by_time_first: Vec<(u64, u32)>,
}

impl IncrementalDiscovery {
    /// Capture the match state of a finished from-scratch run over
    /// `period`. `pdns` must be the database that run consumed (i.e. the
    /// degraded copy when a fault plan was active).
    pub fn bootstrap(
        pipeline: &DiscoveryPipeline,
        pdns: &PassiveDnsDb,
        period: StudyPeriod,
    ) -> Self {
        let _span = iotmap_obs::span!("core.incremental.bootstrap");
        let providers = pipeline.registry().providers();
        let entries = pdns.entries_slice();
        // The same classification the single-pass harvest ran, so the
        // captured rows are exactly the ones whose evidence is already in
        // the artifacts.
        let table = pipeline.classify_rrsets(pdns, period);
        let mut pdns_matched = vec![Vec::new(); providers.len()];
        for row in 0..entries.len() {
            if !table.any(row) {
                continue;
            }
            for p in table.providers(row) {
                pdns_matched[p].push(row as u32);
            }
        }
        let mut by_time_first: Vec<(u64, u32)> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.time_first.unix(), i as u32))
            .collect();
        by_time_first.sort_unstable();
        IncrementalDiscovery {
            period,
            pdns_matched,
            by_time_first,
        }
    }

    /// The period the tracked result currently covers.
    pub fn period(&self) -> StudyPeriod {
        self.period
    }

    /// Roll `result` forward so it covers `new_period` (same start, later
    /// end). `sources` must already hold the merged corpus — in
    /// particular, the last `fresh_snapshots` entries of `sources.censys`
    /// are the snapshots the delta appended.
    ///
    /// Returns the distinct rdata IPs of the passive-DNS rows the widened
    /// window newly revealed — exactly the IPs whose inverse-lookup answer
    /// (`domains_for_ip`) changed, which downstream consumers (shared-IP
    /// classification) use to re-derive only what the day touched.
    pub fn advance(
        &mut self,
        pipeline: &DiscoveryPipeline,
        result: &mut DiscoveryResult,
        sources: &DataSources<'_>,
        new_period: StudyPeriod,
        fresh_snapshots: usize,
    ) -> Vec<IpAddr> {
        let _span = iotmap_obs::span!("core.incremental.advance");
        let _vm_metrics = iotmap_dregex::vm::MetricsBatch::open();
        let old_period = self.period;
        debug_assert_eq!(old_period.start, new_period.start);
        debug_assert!(new_period.end > old_period.end);
        let providers = pipeline.registry().providers();
        let entries = sources.passive_dns.entries_slice();

        // Certificates: only the fresh snapshots contribute new evidence.
        let fresh = &sources.censys[sources.censys.len() - fresh_snapshots..];
        pipeline.harvest_certificate_snapshots(fresh, new_period, result);

        // IPv6 banner grabs run once at period start: nothing to do.

        // Rows the widened window reveals: E_old ≤ time_first < E_new
        // (time_last ≥ time_first ≥ E_old > start holds automatically).
        let lo = self
            .by_time_first
            .partition_point(|&(t, _)| t < old_period.end.unix());
        let hi = self
            .by_time_first
            .partition_point(|&(t, _)| t < new_period.end.unix());
        let mut fresh_rows: Vec<u32> = self.by_time_first[lo..hi].iter().map(|&(_, r)| r).collect();
        fresh_rows.sort_unstable();
        iotmap_obs::count!("incremental.pdns.rows_fresh", fresh_rows.len() as u64);
        let mut fresh_ips: Vec<IpAddr> = fresh_rows
            .iter()
            .filter_map(|&row| entries[row as usize].rdata.ip())
            .collect();
        fresh_ips.sort_unstable();
        fresh_ips.dedup();
        let mut fresh_matched: Vec<Vec<u32>> = vec![Vec::new(); providers.len()];
        let mut buf = String::new();
        for &row in &fresh_rows {
            let fqdn = entries[row as usize].owner.fqdn_into(&mut buf);
            for (p, patterns) in providers.iter().enumerate() {
                if patterns.owner_regex.is_match(fqdn) {
                    fresh_matched[p].push(row);
                }
            }
        }

        // The active campaign's seed set at the old end, captured before
        // the re-application below inserts the fresh owners.
        let old_seeds: Vec<BTreeSet<DomainName>> =
            result.providers.iter().map(|p| p.domains.clone()).collect();

        let pdns_counts: Vec<u64> = fresh_matched.iter().map(|rows| rows.len() as u64).collect();
        for (p, fresh) in fresh_matched.iter().enumerate() {
            let merged = &mut self.pdns_matched[p];
            merged.extend_from_slice(fresh);
            merged.sort_unstable();
        }

        let pdns = sources.passive_dns;
        let zones = sources.zones;
        let matched_rows = &self.pdns_matched;
        // A matched row's passive-DNS contribution is fully determined by
        // its day clamp (`RrsetEntry::days_in`). The start never moves, so
        // re-application is a no-op join — skippable — unless the row is
        // newly visible or the widened end actually widened its days.
        let unchanged = |entry: &RrsetEntry| {
            entry.time_first < old_period.end
                && entry.days_in(&old_period) == entry.days_in(&new_period)
        };
        let adns_counts = iotmap_par::shard_map_mut(&mut result.providers, |pi, prov| {
            let patterns = &providers[pi];
            // Passive DNS: re-apply the matched rows whose contribution
            // changed under the widened window. Day clamps only grow, and
            // evidence writes are idempotent joins, so this lands exactly
            // on the from-scratch state while costing O(changed), not
            // O(corpus).
            for &row in &matched_rows[pi] {
                let entry = &entries[row as usize];
                match &entry.rdata {
                    RData::Cname(target) => {
                        prov.domains.insert(entry.owner.clone());
                        // A freshly matched alias has never been chased for
                        // this owner: apply every visible target entry, not
                        // just the changed ones.
                        let row_fresh = entry.time_first >= old_period.end;
                        for chased in pdns.entries_for_owner(target, new_period) {
                            if !row_fresh && unchanged(chased) {
                                continue;
                            }
                            if let Some(ip) = chased.rdata.ip() {
                                prov.evidence(ip, Source::PassiveDns).note_rrset(
                                    patterns,
                                    &entry.owner,
                                    chased.days_in(&new_period),
                                );
                            }
                        }
                    }
                    rdata => {
                        if unchanged(entry) {
                            continue;
                        }
                        prov.domains.insert(entry.owner.clone());
                        if let Some(ip) = rdata.ip() {
                            prov.evidence(ip, Source::PassiveDns).note_rrset(
                                patterns,
                                &entry.owner,
                                entry.days_in(&new_period),
                            );
                        }
                    }
                }
            }

            // Active DNS, decomposed: old seeds resolve over the delta
            // days only; freshly visible owners resolve over the full
            // extended period. Fault rolls key on the absolute
            // (day, vantage, domain, rrtype), so the union is exactly the
            // from-scratch campaign over the merged seed set.
            let mut matched = 0u64;
            if !old_seeds[pi].is_empty() {
                let domains: Vec<DomainName> = old_seeds[pi].iter().cloned().collect();
                let delta_period = StudyPeriod::new(old_period.end, new_period.end);
                let campaign = pipeline.run_campaign(zones, &domains, &delta_period);
                matched +=
                    DiscoveryPipeline::apply_campaign_observations(prov, patterns, &campaign);
            }
            let fresh_owners: BTreeSet<DomainName> = fresh_matched[pi]
                .iter()
                .map(|&row| entries[row as usize].owner.clone())
                .filter(|o| !old_seeds[pi].contains(o))
                .collect();
            if !fresh_owners.is_empty() {
                let domains: Vec<DomainName> = fresh_owners.into_iter().collect();
                let campaign = pipeline.run_campaign(zones, &domains, &new_period);
                matched +=
                    DiscoveryPipeline::apply_campaign_observations(prov, patterns, &campaign);
            }
            matched
        });
        flush_provider_matches(Source::PassiveDns, result, &pdns_counts);
        flush_provider_matches(Source::ActiveDns, result, &adns_counts);
        flush_discovery_totals(result);
        self.period = new_period;
        fresh_ips
    }
}
