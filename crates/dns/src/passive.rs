//! Passive DNS database — the DNSDB stand-in.
//!
//! DNSDB aggregates DNS answers observed at sensors co-located with
//! recursive resolvers world-wide, storing for each unique `(owner, rdata)`
//! pair the first-seen time, last-seen time, and observation count. The
//! paper queries it two ways (§3.3, Appendix A): *Flexible Search* (regex
//! over owner names, time-bounded) and *Basic Search* (wildcard owner
//! queries), and additionally inverts it (*rdata* lookups: "which domains
//! resolve to this IP?") for the shared-vs-dedicated classification of
//! §3.4.
//!
//! Coverage is inherently partial — "it does not have full coverage of all
//! DNS requests" (§3.6) — which the world model reproduces by only feeding
//! the database a sampled subset of simulated resolutions.

use crate::record::{RData, RrType};
use iotmap_dregex::query::{DnsdbQuery, DnsdbRdataQuery, RrTypeFilter};
use iotmap_faults::PassiveDnsFaults;
use iotmap_nettypes::{DomainName, SimDuration, SimTime, StudyPeriod, SuffixIndex};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::IpAddr;
use std::ops::RangeInclusive;

/// One aggregated RRset observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrsetEntry {
    pub owner: DomainName,
    pub rdata: RData,
    pub time_first: SimTime,
    pub time_last: SimTime,
    pub count: u64,
}

impl RrsetEntry {
    /// Was this entry observed within the window (overlap semantics, like
    /// DNSDB's `time_first_before` / `time_last_after` filters)?
    pub fn observed_in(&self, window: &StudyPeriod) -> bool {
        self.time_first < window.end && self.time_last >= window.start
    }

    /// The epoch days this entry spans, clipped to `period`: from the
    /// later of first-seen and period start to the earlier of last-seen
    /// and the period's last day. Empty when the entry is not
    /// [`observed_in`](Self::observed_in) the period.
    pub fn days_in(&self, period: &StudyPeriod) -> RangeInclusive<i64> {
        let first = self.time_first.epoch_days().max(period.start.epoch_days());
        let last = self.time_last.epoch_days().min(period.end.epoch_days() - 1);
        first..=last
    }
}

/// The passive DNS store.
#[derive(Debug, Clone, Default)]
pub struct PassiveDnsDb {
    entries: Vec<RrsetEntry>,
    by_pair: HashMap<(DomainName, RData), usize>,
    by_ip: HashMap<IpAddr, Vec<usize>>,
    by_owner: HashMap<DomainName, Vec<usize>>,
    /// Reversed-label index over owner names; postings are entry-table
    /// indices, ascending because entries only ever append.
    by_suffix: SuffixIndex,
}

impl PassiveDnsDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a database from already-aggregated entries, preserving
    /// their order, times, and counts while reconstructing every index —
    /// the deserialization path for cached/checkpointed databases. Entries
    /// must carry distinct `(owner, rdata)` pairs, which any dump of an
    /// existing database satisfies.
    pub fn from_entries(entries: Vec<RrsetEntry>) -> Self {
        let mut db = PassiveDnsDb::new();
        db.entries.reserve(entries.len());
        for e in entries {
            db.push_entry(e);
        }
        db
    }

    /// Record one observation of `(owner, rdata)` at `time`. The common
    /// (aggregation) case is a single hash lookup with no clones; the pair
    /// is cloned only when a new entry is created.
    pub fn observe(&mut self, owner: DomainName, rdata: RData, time: SimTime) {
        match self.by_pair.entry((owner, rdata)) {
            Entry::Occupied(o) => {
                let e = &mut self.entries[*o.get()];
                e.time_first = e.time_first.min(time);
                e.time_last = e.time_last.max(time);
                e.count += 1;
            }
            Entry::Vacant(v) => {
                let idx = self.entries.len();
                let (owner, rdata) = v.key().clone();
                v.insert(idx);
                if let Some(ip) = rdata.ip() {
                    self.by_ip.entry(ip).or_default().push(idx);
                }
                self.by_owner.entry(owner.clone()).or_default().push(idx);
                self.by_suffix.insert(owner.as_str(), idx as u32);
                self.entries.push(RrsetEntry {
                    owner,
                    rdata,
                    time_first: time,
                    time_last: time,
                    count: 1,
                });
            }
        }
    }

    /// Number of unique `(owner, rdata)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Run a DNSDB query (either API type) bounded to a time window.
    pub fn search<'a>(
        &'a self,
        query: &'a DnsdbQuery,
        window: StudyPeriod,
    ) -> impl Iterator<Item = &'a RrsetEntry> {
        self.entries.iter().filter(move |e| {
            e.observed_in(&window) && query.matches(&e.owner.fqdn(), rrtype_filter_of(&e.rdata))
        })
    }

    /// Run a typed DNSDB rdata query (`rdata/ip/<addr>`).
    pub fn search_rdata(
        &self,
        query: &DnsdbRdataQuery,
        window: StudyPeriod,
    ) -> impl Iterator<Item = &RrsetEntry> {
        self.domains_for_ip(query.ip, window)
    }

    /// Inverse (rdata) lookup: all entries whose answer is `ip`, observed
    /// in the window. This powers the shared-vs-dedicated check of §3.4.
    pub fn domains_for_ip(
        &self,
        ip: IpAddr,
        window: StudyPeriod,
    ) -> impl Iterator<Item = &RrsetEntry> {
        self.by_ip
            .get(&ip)
            .into_iter()
            .flatten()
            .map(move |&idx| &self.entries[idx])
            .filter(move |e| e.observed_in(&window))
    }

    /// All entries under one owner name, observed in the window — used by
    /// the pipeline's CNAME-chain chasing (a PR backend's tenant domain
    /// aliases a cloud load-balancer name; the A records live under the
    /// LB owner).
    pub fn entries_for_owner(
        &self,
        owner: &DomainName,
        window: StudyPeriod,
    ) -> impl Iterator<Item = &RrsetEntry> {
        self.by_owner
            .get(owner)
            .into_iter()
            .flatten()
            .map(move |&idx| &self.entries[idx])
            .filter(move |e| e.observed_in(&window))
    }

    /// All distinct owner names observed in a window (for active-campaign
    /// seeding).
    pub fn owners_in(&self, window: StudyPeriod) -> Vec<DomainName> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for e in &self.entries {
            if e.observed_in(&window) && seen.insert(&e.owner) {
                out.push(e.owner.clone());
            }
        }
        out
    }

    /// Iterate over every entry (for diagnostics / exports).
    pub fn entries(&self) -> impl Iterator<Item = &RrsetEntry> {
        self.entries.iter()
    }

    /// The raw entry table as a slice, in observation-insertion order —
    /// the unit the parallel scans shard over.
    pub fn entries_slice(&self) -> &[RrsetEntry] {
        &self.entries
    }

    /// The reversed-label suffix index over owner names. Postings are
    /// indices into [`PassiveDnsDb::entries_slice`], ascending; candidates
    /// still need the caller's own time-window and pattern verification.
    pub fn owner_suffix_index(&self) -> &SuffixIndex {
        &self.by_suffix
    }

    /// Re-insert an already-aggregated entry, preserving its times and
    /// count while maintaining every index — the degraded-copy rebuild
    /// path. Assumes the `(owner, rdata)` pair is not already present.
    fn push_entry(&mut self, e: RrsetEntry) {
        let idx = self.entries.len();
        if let Some(ip) = e.rdata.ip() {
            self.by_ip.entry(ip).or_default().push(idx);
        }
        self.by_owner.entry(e.owner.clone()).or_default().push(idx);
        self.by_suffix.insert(e.owner.as_str(), idx as u32);
        self.by_pair.insert((e.owner.clone(), e.rdata.clone()), idx);
        self.entries.push(e);
    }

    /// A degraded copy of this database under a fault plan: sensor-side
    /// record loss drops whole `(owner, rdata)` entries by a pure roll on
    /// their identity, and sensor outage windows (days relative to
    /// `period.start`) erase what was observed during them — an entry
    /// wholly inside an outage disappears, an entry straddling one has
    /// its first/last-seen times clipped to the outage boundary.
    ///
    /// Entry order, aggregates, and all three indexes are rebuilt
    /// faithfully for the survivors, so consumers cannot tell a degraded
    /// database from one that simply observed less. Emits
    /// `faults.passive_dns.*` counters when the plan is active.
    pub fn degraded(
        &self,
        fault_seed: u64,
        faults: &PassiveDnsFaults,
        period: &StudyPeriod,
    ) -> PassiveDnsDb {
        let outages: Vec<(SimTime, SimTime)> = faults
            .outage_windows
            .iter()
            .map(|&(offset, len)| {
                let start = period.start + SimDuration::hours(24 * offset as u64);
                (start, start + SimDuration::hours(24 * len as u64))
            })
            .collect();
        let inside = |t: SimTime| outages.iter().find(|(ws, we)| t >= *ws && t < *we);
        let mut db = PassiveDnsDb::new();
        let (mut lost, mut outage_dropped, mut clipped) = (0u64, 0u64, 0u64);
        for e in &self.entries {
            let key = iotmap_faults::key2(
                iotmap_faults::hash_str(e.owner.as_str()),
                iotmap_faults::hash_str(&format!("{:?}", e.rdata)),
            );
            if iotmap_faults::drops(fault_seed, "pdns.record_loss", key, faults.record_loss_rate) {
                lost += 1;
                continue;
            }
            let mut e = e.clone();
            let mut was_clipped = false;
            if let Some(&(_, we)) = inside(e.time_first) {
                e.time_first = we;
                was_clipped = true;
            }
            if let Some(&(ws, _)) = inside(e.time_last) {
                e.time_last = ws;
                was_clipped = true;
            }
            if e.time_first > e.time_last {
                // The whole observed life of this entry fell inside
                // outage windows: the sensors never saw it.
                outage_dropped += 1;
                continue;
            }
            if was_clipped {
                clipped += 1;
            }
            db.push_entry(e);
        }
        if faults.is_active() {
            iotmap_obs::count!("faults.passive_dns.entries_lost", lost);
            iotmap_obs::count!("faults.passive_dns.entries_outage_dropped", outage_dropped);
            iotmap_obs::count!("faults.passive_dns.entries_clipped", clipped);
            iotmap_obs::count!("faults.passive_dns.records_dropped", lost + outage_dropped);
        }
        db
    }

    /// [`PassiveDnsDb::search`], sharded over the entry table via
    /// `iotmap-par`. Hits come back in table order — identical to the
    /// serial iterator — because shards are contiguous and merged in
    /// shard-index order.
    pub fn par_search(&self, query: &DnsdbQuery, window: StudyPeriod) -> Vec<&RrsetEntry> {
        iotmap_par::shard_fold(
            &self.entries,
            |_ctx| Vec::new(),
            |hits: &mut Vec<&RrsetEntry>, _i, e| {
                if e.observed_in(&window)
                    && query.matches(&e.owner.fqdn(), rrtype_filter_of(&e.rdata))
                {
                    hits.push(e);
                }
            },
            |a, b| a.extend(b),
        )
    }
}

fn rrtype_filter_of(rdata: &RData) -> RrTypeFilter {
    match rdata.rrtype() {
        RrType::A => RrTypeFilter::A,
        RrType::Aaaa => RrTypeFilter::Aaaa,
        RrType::Cname => RrTypeFilter::Cname,
        RrType::Ptr => RrTypeFilter::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_nettypes::Date;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn t(day: u32) -> SimTime {
        Date::new(2022, 3, day).midnight()
    }

    fn a(last: u8) -> RData {
        RData::A(
            format!("192.0.2.{last}")
                .parse::<std::net::Ipv4Addr>()
                .unwrap(),
        )
    }

    fn week() -> StudyPeriod {
        StudyPeriod::from_dates(Date::new(2022, 3, 1), Date::new(2022, 3, 8))
    }

    #[test]
    fn days_in_clips_rows_to_the_period() {
        let mut db = PassiveDnsDb::new();
        // Starts before the period, ends inside it.
        db.observe(d("early.iot.sap"), a(1), Date::new(2022, 2, 25).midnight());
        db.observe(d("early.iot.sap"), a(1), t(3));
        // Starts inside the period, ends after it.
        db.observe(d("late.iot.sap"), a(2), t(6));
        db.observe(d("late.iot.sap"), a(2), Date::new(2022, 3, 20).midnight());
        // Seen twice on one day.
        db.observe(d("once.iot.sap"), a(3), t(4));
        db.observe(
            d("once.iot.sap"),
            a(3),
            t(4) + SimDuration::seconds(5 * 3600),
        );
        // Spans the whole period and more.
        db.observe(d("wide.iot.sap"), a(4), Date::new(2022, 2, 1).midnight());
        db.observe(d("wide.iot.sap"), a(4), Date::new(2022, 4, 1).midnight());
        let day = |date: u32| t(date).epoch_days();
        let spans: Vec<_> = db.entries().map(|e| e.days_in(&week())).collect();
        assert_eq!(
            spans,
            vec![
                day(1)..=day(3),
                day(6)..=day(7),
                day(4)..=day(4),
                day(1)..=day(7)
            ]
        );
        // A row outside the period clips to an empty range.
        let before = StudyPeriod::from_dates(Date::new(2022, 1, 1), Date::new(2022, 1, 8));
        let e = db.entries().next().unwrap();
        assert!(!e.observed_in(&before));
        assert!(e.days_in(&before).is_empty());
    }

    #[test]
    fn observe_aggregates_counts_and_times() {
        let mut db = PassiveDnsDb::new();
        db.observe(d("x.iot.sap"), a(1), t(3));
        db.observe(d("x.iot.sap"), a(1), t(5));
        db.observe(d("x.iot.sap"), a(1), t(2));
        assert_eq!(db.len(), 1);
        let e = db.entries().next().unwrap();
        assert_eq!(e.count, 3);
        assert_eq!(e.time_first, t(2));
        assert_eq!(e.time_last, t(5));
    }

    #[test]
    fn flexible_search_matches_pattern_and_window() {
        let mut db = PassiveDnsDb::new();
        db.observe(d("hub1.azure-devices.net"), a(1), t(2));
        db.observe(d("hub2.azure-devices.net"), a(2), t(3));
        db.observe(d("unrelated.example.com"), a(3), t(3));
        let q = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/A").unwrap();
        let hits: Vec<_> = db.search(&q, week()).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_respects_time_window() {
        let mut db = PassiveDnsDb::new();
        db.observe(
            d("old.azure-devices.net"),
            a(1),
            Date::new(2021, 6, 1).midnight(),
        );
        let q = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/A").unwrap();
        assert_eq!(db.search(&q, week()).count(), 0);
        // Overlap: first seen before the window, last seen inside.
        db.observe(d("old.azure-devices.net"), a(1), t(4));
        assert_eq!(db.search(&q, week()).count(), 1);
    }

    #[test]
    fn rrtype_filter_applies() {
        let mut db = PassiveDnsDb::new();
        db.observe(d("h.azure-devices.net"), a(1), t(2));
        db.observe(
            d("h.azure-devices.net"),
            RData::Aaaa("2001:db8::1".parse().unwrap()),
            t(2),
        );
        let qa = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/A").unwrap();
        let q6 = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/AAAA").unwrap();
        assert_eq!(db.search(&qa, week()).count(), 1);
        assert_eq!(db.search(&q6, week()).count(), 1);
    }

    #[test]
    fn domains_for_ip_inverse_lookup() {
        let mut db = PassiveDnsDb::new();
        db.observe(d("iot.example.com"), a(7), t(2));
        db.observe(d("www.shop.com"), a(7), t(3));
        db.observe(d("other.example.com"), a(8), t(3));
        let hits: Vec<_> = db
            .domains_for_ip("192.0.2.7".parse().unwrap(), week())
            .map(|e| e.owner.as_str().to_string())
            .collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&"iot.example.com".to_string()));
        assert!(hits.contains(&"www.shop.com".to_string()));
    }

    #[test]
    fn rdata_query_round_trip() {
        let mut db = PassiveDnsDb::new();
        db.observe(d("iot.example.com"), a(9), t(2));
        let q = DnsdbRdataQuery::parse("rdata/ip/192.0.2.9").unwrap();
        assert_eq!(db.search_rdata(&q, week()).count(), 1);
        let none = DnsdbRdataQuery::parse("rdata/ip/192.0.2.200").unwrap();
        assert_eq!(db.search_rdata(&none, week()).count(), 0);
    }

    #[test]
    fn par_search_matches_serial_at_any_thread_count() {
        let mut db = PassiveDnsDb::new();
        for i in 0..200u8 {
            let owner = if i % 3 == 0 {
                format!("hub{i}.azure-devices.net")
            } else {
                format!("host{i}.example.com")
            };
            db.observe(d(&owner), a(i), t(1 + (i % 7) as u32));
        }
        let q = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/A").unwrap();
        let serial: Vec<_> = db.search(&q, week()).collect();
        for threads in [1, 2, 4, 8] {
            let parallel = iotmap_par::with_threads(threads, || db.par_search(&q, week()));
            assert_eq!(parallel, serial, "threads {threads}");
        }
    }

    #[test]
    fn suffix_index_tracks_observe_and_degraded_rebuilds() {
        use iotmap_nettypes::SuffixQuery;
        let mut db = PassiveDnsDb::new();
        db.observe(d("hub1.azure-devices.net"), a(1), t(2));
        db.observe(d("hub1.azure-devices.net"), a(1), t(4)); // aggregate, no new posting
        db.observe(d("hub2.azure-devices.net"), a(2), t(3));
        db.observe(d("unrelated.example.com"), a(3), t(3));
        let q = SuffixQuery::parse(".azure-devices.net.").unwrap();
        assert_eq!(db.owner_suffix_index().lookup(&q), vec![0, 1]);
        // The degraded rebuild maintains the index for survivors too.
        let copy = db.degraded(0, &PassiveDnsFaults::NONE, &week());
        assert_eq!(copy.owner_suffix_index().lookup(&q), vec![0, 1]);
        assert_eq!(copy.owner_suffix_index().len(), db.len());
    }

    #[test]
    fn owners_in_dedupes() {
        let mut db = PassiveDnsDb::new();
        db.observe(d("a.example.com"), a(1), t(2));
        db.observe(d("a.example.com"), a(2), t(2));
        db.observe(d("b.example.com"), a(3), t(2));
        assert_eq!(db.owners_in(week()).len(), 2);
    }
}
