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

use crate::record::{RData, RDataRef, RrType};
use iotmap_dregex::query::{DnsdbQuery, DnsdbRdataQuery, RrTypeFilter};
use iotmap_faults::PassiveDnsFaults;
use iotmap_nettypes::{
    DomainName, FxHashMap, FxHasher, SimDuration, SimTime, StudyPeriod, SuffixIndex,
};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
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

/// The passive DNS store: the aggregated entry table plus the indexes
/// derived from it. The table is immutable once built; observations are
/// aggregated beforehand by an [`RrsetAggregator`].
#[derive(Debug, Clone, Default)]
pub struct PassiveDnsDb {
    entries: Vec<RrsetEntry>,
    by_ip: FxHashMap<IpAddr, Vec<usize>>,
    by_owner: HashMap<DomainName, Vec<usize>>,
    /// Reversed-label index over owner names; postings are entry-table
    /// indices, ascending.
    by_suffix: SuffixIndex,
}

impl PassiveDnsDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a database from already-aggregated entries, preserving their
    /// order, times, and counts — the one place the indexes are built, for
    /// the world build, the cache restore, and degraded copies alike.
    /// Entries must carry distinct `(owner, rdata)` pairs, which any
    /// aggregated table satisfies. The address/owner lookups and the
    /// suffix index are built as independent parts through `iotmap-par`.
    pub fn from_entries(entries: Vec<RrsetEntry>) -> Self {
        enum Part {
            Lookups,
            Suffixes,
        }
        // Rows of one owner mostly sit together (a domain's answers are
        // first seen over its own resolutions), so the owner indexes take
        // a run of rows per lookup.
        let runs = || {
            entries
                .chunk_by(|a, b| a.owner == b.owner)
                .scan(0, |start, run| {
                    let rows = *start..*start + run.len();
                    *start = rows.end;
                    Some((&run[0].owner, rows))
                })
        };
        let mut db = iotmap_par::shard_fold(
            &[Part::Lookups, Part::Suffixes],
            |_| PassiveDnsDb::default(),
            |ix: &mut PassiveDnsDb, _, part| match part {
                Part::Lookups => {
                    for (idx, e) in entries.iter().enumerate() {
                        if let Some(ip) = e.rdata.ip() {
                            ix.by_ip.entry(ip).or_default().push(idx);
                        }
                    }
                    for (owner, rows) in runs() {
                        match ix.by_owner.get_mut(owner) {
                            Some(idx) => idx.extend(rows),
                            None => {
                                ix.by_owner.insert(owner.clone(), rows.collect());
                            }
                        }
                    }
                }
                Part::Suffixes => {
                    for (owner, rows) in runs() {
                        ix.by_suffix
                            .insert_run(owner.as_str(), rows.start as u32..rows.end as u32);
                    }
                }
            },
            // Each part fills its own fields, and part order puts the
            // lookups first.
            |a, b| {
                a.by_ip.extend(b.by_ip);
                a.by_owner.extend(b.by_owner);
                if a.by_suffix.is_empty() {
                    a.by_suffix = b.by_suffix;
                }
            },
        );
        db.entries = entries;
        db
    }

    /// Aggregate raw sensor observations `(owner, rdata, time)`, in order,
    /// into a database.
    pub fn from_observations(observations: &[(DomainName, RData, SimTime)]) -> Self {
        let mut table = RrsetAggregator::new();
        for (owner, rdata, time) in observations {
            table.observe(owner, rdata.view(), *time);
        }
        table.into_db()
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

    /// A degraded copy of this database under a fault plan: sensor-side
    /// record loss drops whole `(owner, rdata)` entries by a pure roll on
    /// their identity, and sensor outage windows (days relative to
    /// `period.start`) erase what was observed during them — an entry
    /// wholly inside an outage disappears, an entry straddling one has
    /// its first/last-seen times clipped to the outage boundary.
    ///
    /// Entry order, aggregates, and every index are rebuilt
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
        let mut survivors = Vec::new();
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
            survivors.push(e);
        }
        if faults.is_active() {
            iotmap_obs::count!("faults.passive_dns.entries_lost", lost);
            iotmap_obs::count!("faults.passive_dns.entries_outage_dropped", outage_dropped);
            iotmap_obs::count!("faults.passive_dns.entries_clipped", clipped);
            iotmap_obs::count!("faults.passive_dns.records_dropped", lost + outage_dropped);
        }
        PassiveDnsDb::from_entries(survivors)
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

/// Observations aggregated the way DNSDB stores them: one row per
/// `(owner, rdata)` pair holding the first-seen time, the last-seen time
/// and a count, rows in first-seen order. Names are borrowed from
/// wherever the observations come from (the world builder borrows them
/// from its zones), so aggregating clones nothing; [`into_db`] clones
/// each distinct pair once.
///
/// Min, max and count combine commutatively, so tables aggregated over
/// consecutive runs of observations, flushed in run order and
/// [`absorb`]ed into one table, equal a table that observed the whole
/// sequence — rows, aggregates and row order alike. That is what lets
/// small, cache-resident tables do most of the aggregating.
///
/// The index is two-level: owner, then rdata within the owner. Rows of
/// one owner arrive in runs (a domain's answers, its alias chain), so
/// the owner lookup is mostly a pointer comparison with the last one and
/// the rdata lookup probes one owner's small index, not the whole table.
///
/// [`into_db`]: RrsetAggregator::into_db
/// [`absorb`]: RrsetAggregator::absorb
#[derive(Debug, Default)]
pub struct RrsetAggregator<'a> {
    owners: FxHashMap<&'a DomainName, usize>,
    /// The owner looked up last and its position in `indexes`.
    last: Option<(&'a DomainName, usize)>,
    indexes: Vec<OwnerIndex>,
    rows: Vec<Row<'a>>,
}

/// Open-addressing index over one owner's rows: a power-of-two number of
/// slots, each 0 (empty) or a row index plus one, probed linearly from
/// the rdata's hash and kept at most half full.
#[derive(Debug, Default)]
struct OwnerIndex {
    slots: Vec<u32>,
    rows: usize,
}

/// Rows flushed out of [`RrsetAggregator`]s, in flush order. Rows of
/// different flushes may repeat a pair; [`RrsetAggregator::absorb`]
/// folds them together.
#[derive(Debug, Default)]
pub struct RrsetRows<'a> {
    rows: Vec<Row<'a>>,
}

impl RrsetRows<'_> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were flushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
struct Row<'a> {
    owner: &'a DomainName,
    rdata: RDataRef<'a>,
    /// The rdata's hash, computed once per observation, so re-slotting
    /// or absorbing a row never re-reads a name.
    hash: u64,
    first: SimTime,
    last: SimTime,
    count: u64,
}

impl<'a> RrsetAggregator<'a> {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table with room for `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        RrsetAggregator {
            rows: Vec::with_capacity(rows),
            ..Self::default()
        }
    }

    /// Number of distinct `(owner, rdata)` rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Record one observation of `(owner, rdata)` at `time`.
    pub fn observe(&mut self, owner: &'a DomainName, rdata: RDataRef<'a>, time: SimTime) {
        let mut h = FxHasher::default();
        rdata.hash(&mut h);
        self.add(Row {
            owner,
            rdata,
            hash: h.finish(),
            first: time,
            last: time,
            count: 1,
        });
    }

    /// Move the rows, in first-seen order, to the end of `out`, leaving
    /// this table empty for the observations that follow.
    pub fn flush_into(&mut self, out: &mut RrsetRows<'a>) {
        self.owners.clear();
        self.last = None;
        self.indexes.clear();
        out.rows.append(&mut self.rows);
    }

    /// Fold in rows flushed from the observations that follow this
    /// table's, in flush order.
    pub fn absorb(&mut self, later: RrsetRows<'a>) {
        for row in later.rows {
            self.add(row);
        }
    }

    fn add(&mut self, row: Row<'a>) {
        let owner = match self.last {
            Some((last, at)) if std::ptr::eq(last, row.owner) => at,
            _ => {
                let next = self.indexes.len();
                let at = *self.owners.entry(row.owner).or_insert(next);
                if at == next {
                    self.indexes.push(OwnerIndex::default());
                }
                self.last = Some((row.owner, at));
                at
            }
        };
        let index = &mut self.indexes[owner];
        if 2 * (index.rows + 1) > index.slots.len() {
            index.grow(&self.rows);
        }
        let mask = index.slots.len() - 1;
        let mut i = row.hash as usize & mask;
        loop {
            match index.slots[i] {
                0 => {
                    self.rows.push(row);
                    index.slots[i] = self.rows.len() as u32;
                    index.rows += 1;
                    return;
                }
                slot => {
                    let r = &mut self.rows[slot as usize - 1];
                    if r.hash == row.hash && r.rdata == row.rdata {
                        r.first = r.first.min(row.first);
                        r.last = r.last.max(row.last);
                        r.count += row.count;
                        return;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The finished table as a database, rows in first-seen order.
    pub fn into_db(self) -> PassiveDnsDb {
        let entries = self
            .rows
            .into_iter()
            .map(|r| RrsetEntry {
                owner: r.owner.clone(),
                rdata: r.rdata.to_rdata(),
                time_first: r.first,
                time_last: r.last,
                count: r.count,
            })
            .collect();
        PassiveDnsDb::from_entries(entries)
    }
}

impl OwnerIndex {
    /// Double the slots and re-slot the owner's rows by their stored
    /// hashes.
    fn grow(&mut self, rows: &[Row<'_>]) {
        let slots = vec![0; (2 * self.slots.len()).max(8)];
        let old = std::mem::replace(&mut self.slots, slots);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut i = rows[slot as usize - 1].hash as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
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
        let db = PassiveDnsDb::from_observations(&[
            // Starts before the period, ends inside it.
            (d("early.iot.sap"), a(1), Date::new(2022, 2, 25).midnight()),
            (d("early.iot.sap"), a(1), t(3)),
            // Starts inside the period, ends after it.
            (d("late.iot.sap"), a(2), t(6)),
            (d("late.iot.sap"), a(2), Date::new(2022, 3, 20).midnight()),
            // Seen twice on one day.
            (d("once.iot.sap"), a(3), t(4)),
            (
                d("once.iot.sap"),
                a(3),
                t(4) + SimDuration::seconds(5 * 3600),
            ),
            // Spans the whole period and more.
            (d("wide.iot.sap"), a(4), Date::new(2022, 2, 1).midnight()),
            (d("wide.iot.sap"), a(4), Date::new(2022, 4, 1).midnight()),
        ]);
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
        let db = PassiveDnsDb::from_observations(&[
            (d("x.iot.sap"), a(1), t(3)),
            (d("x.iot.sap"), a(1), t(5)),
            (d("x.iot.sap"), a(1), t(2)),
        ]);
        assert_eq!(db.len(), 1);
        let e = db.entries().next().unwrap();
        assert_eq!(e.count, 3);
        assert_eq!(e.time_first, t(2));
        assert_eq!(e.time_last, t(5));
    }

    #[test]
    fn absorbing_consecutive_runs_equals_one_table() {
        let mut observations = Vec::new();
        for i in 0..60u32 {
            let owner = d(&format!("h{}.iot.sap", i % 7));
            let rdata = match i % 3 {
                0 => a((i % 5) as u8),
                1 => RData::Cname(d(&format!("lb{}.cloud.sap", i % 2))),
                _ => RData::Aaaa(format!("2001:db8::{}", i % 4).parse().unwrap()),
            };
            observations.push((owner, rdata, t(1 + (i * 7) % 20)));
        }
        let whole = PassiveDnsDb::from_observations(&observations);
        for cut in [0, 1, 17, 30, 59, 60] {
            let (head, tail) = observations.split_at(cut);
            // Two runs through one reused table, then absorbed.
            let mut run = RrsetAggregator::new();
            let mut rows = RrsetRows::default();
            for part in [head, tail] {
                for (owner, rdata, time) in part {
                    run.observe(owner, rdata.view(), *time);
                }
                run.flush_into(&mut rows);
            }
            assert!(run.is_empty());
            let mut table = RrsetAggregator::new();
            table.absorb(rows);
            let split = table.into_db();
            assert!(split.entries().eq(whole.entries()), "cut at {cut}");
        }
    }

    #[test]
    fn from_entries_builds_the_same_indexes_at_any_thread_count() {
        use iotmap_nettypes::SuffixQuery;
        // Runs of five rows per owner, owners recurring after a while,
        // addresses shared across owners.
        let observations: Vec<_> = (0..60u8)
            .map(|i| {
                let owner = d(&format!("n{}.z{}.iot.sap", (i / 5) % 7, (i / 5) % 3));
                (owner, a(i % 11), t(2))
            })
            .collect();
        let entries: Vec<RrsetEntry> = PassiveDnsDb::from_observations(&observations)
            .entries()
            .cloned()
            .collect();
        // The indexes one row at a time.
        let mut by_ip: FxHashMap<IpAddr, Vec<usize>> = FxHashMap::default();
        let mut by_owner: HashMap<DomainName, Vec<usize>> = HashMap::new();
        let mut by_suffix = SuffixIndex::new();
        for (idx, e) in entries.iter().enumerate() {
            by_ip.entry(e.rdata.ip().unwrap()).or_default().push(idx);
            by_owner.entry(e.owner.clone()).or_default().push(idx);
            by_suffix.insert(e.owner.as_str(), idx as u32);
        }
        let queries = [".z1.iot.sap.", ".iot.sap.", "1.z1.iot.sap.", "z2.iot.sap."]
            .map(|q| SuffixQuery::parse(q).unwrap());
        for threads in [1, 2, 4] {
            let db =
                iotmap_par::with_threads(threads, || PassiveDnsDb::from_entries(entries.clone()));
            assert_eq!(db.by_ip, by_ip, "threads {threads}");
            assert_eq!(db.by_owner, by_owner, "threads {threads}");
            for q in &queries {
                assert_eq!(db.owner_suffix_index().lookup(q), by_suffix.lookup(q));
            }
            assert_eq!(db.owner_suffix_index().len(), entries.len());
        }
    }

    #[test]
    fn flexible_search_matches_pattern_and_window() {
        let db = PassiveDnsDb::from_observations(&[
            (d("hub1.azure-devices.net"), a(1), t(2)),
            (d("hub2.azure-devices.net"), a(2), t(3)),
            (d("unrelated.example.com"), a(3), t(3)),
        ]);
        let q = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/A").unwrap();
        let hits: Vec<_> = db.search(&q, week()).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_respects_time_window() {
        let old = (
            d("old.azure-devices.net"),
            a(1),
            Date::new(2021, 6, 1).midnight(),
        );
        let q = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/A").unwrap();
        let db = PassiveDnsDb::from_observations(std::slice::from_ref(&old));
        assert_eq!(db.search(&q, week()).count(), 0);
        // Overlap: first seen before the window, last seen inside.
        let db = PassiveDnsDb::from_observations(&[old, (d("old.azure-devices.net"), a(1), t(4))]);
        assert_eq!(db.search(&q, week()).count(), 1);
    }

    #[test]
    fn rrtype_filter_applies() {
        let db = PassiveDnsDb::from_observations(&[
            (d("h.azure-devices.net"), a(1), t(2)),
            (
                d("h.azure-devices.net"),
                RData::Aaaa("2001:db8::1".parse().unwrap()),
                t(2),
            ),
        ]);
        let qa = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/A").unwrap();
        let q6 = DnsdbQuery::flexible(r"(.+\.|^)(azure-devices\.net\.$)/AAAA").unwrap();
        assert_eq!(db.search(&qa, week()).count(), 1);
        assert_eq!(db.search(&q6, week()).count(), 1);
    }

    #[test]
    fn domains_for_ip_inverse_lookup() {
        let db = PassiveDnsDb::from_observations(&[
            (d("iot.example.com"), a(7), t(2)),
            (d("www.shop.com"), a(7), t(3)),
            (d("other.example.com"), a(8), t(3)),
        ]);
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
        let db = PassiveDnsDb::from_observations(&[(d("iot.example.com"), a(9), t(2))]);
        let q = DnsdbRdataQuery::parse("rdata/ip/192.0.2.9").unwrap();
        assert_eq!(db.search_rdata(&q, week()).count(), 1);
        let none = DnsdbRdataQuery::parse("rdata/ip/192.0.2.200").unwrap();
        assert_eq!(db.search_rdata(&none, week()).count(), 0);
    }

    #[test]
    fn par_search_matches_serial_at_any_thread_count() {
        let observations: Vec<_> = (0..200u8)
            .map(|i| {
                let owner = if i % 3 == 0 {
                    format!("hub{i}.azure-devices.net")
                } else {
                    format!("host{i}.example.com")
                };
                (d(&owner), a(i), t(1 + (i % 7) as u32))
            })
            .collect();
        let db = PassiveDnsDb::from_observations(&observations);
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
        let db = PassiveDnsDb::from_observations(&[
            (d("hub1.azure-devices.net"), a(1), t(2)),
            (d("hub1.azure-devices.net"), a(1), t(4)), // aggregate, no new posting
            (d("hub2.azure-devices.net"), a(2), t(3)),
            (d("unrelated.example.com"), a(3), t(3)),
        ]);
        let q = SuffixQuery::parse(".azure-devices.net.").unwrap();
        assert_eq!(db.owner_suffix_index().lookup(&q), vec![0, 1]);
        // The degraded rebuild maintains the index for survivors too.
        let copy = db.degraded(0, &PassiveDnsFaults::NONE, &week());
        assert_eq!(copy.owner_suffix_index().lookup(&q), vec![0, 1]);
        assert_eq!(copy.owner_suffix_index().len(), db.len());
    }

    #[test]
    fn owners_in_dedupes() {
        let db = PassiveDnsDb::from_observations(&[
            (d("a.example.com"), a(1), t(2)),
            (d("a.example.com"), a(2), t(2)),
            (d("b.example.com"), a(3), t(2)),
        ]);
        assert_eq!(db.owners_in(week()).len(), 2);
    }
}
