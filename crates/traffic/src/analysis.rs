//! The main flow-analysis pass: everything behind Figures 8–16.
//!
//! The aggregation is expressed as a mergeable [`AnalysisFold`]
//! (see [`iotmap_netflow::FlowFold`]): every accumulator in
//! [`AnalysisPartial`] is a commutative join — integer adds, bitset
//! unions, per-line slot joins — so per-shard partials merged in shard
//! order are byte-identical to a serial pass at any thread count, and the
//! simulator can stream blocks of exported flows through it without
//! ever materializing the full flow set. Byte volumes accumulate as
//! exact `u64` sums and convert to `f64` only at report time, so no
//! float-rounding order dependence can creep in.
//!
//! Per-line state lives in one slot per subscriber line: hour and day
//! bitsets and per-day byte sums, for the line and for each provider and
//! port it talks to, in one word arena per partial (a slot allocates
//! nothing of its own, so dropping a week of them is cheap). Exported
//! flows arrive line-contiguous, so a run of one line's flows finds its
//! slot with a single lookup, and a flow sets a few bits and adds a few
//! words instead of inserting into shared hash tables.
//! [`AnalysisFold::into_report`] counts set bits and builds each of the
//! report's keyed maps once, presized, as independent jobs over the
//! thread budget. The line index and the port map are [`FxHashMap`]s:
//! their keys are keyed-anonymizer line ids and ports, none chosen by an
//! outside party, so SipHash's collision resistance buys nothing here.
//! The pass's flow metrics live in the partial too and reach the obs
//! recorder once, in [`AnalysisFold::into_report`].

use crate::index::IpIndex;
use iotmap_netflow::{Direction, FlowFold, FlowRecord, LineId};
use iotmap_nettypes::{Continent, FxHashMap, FxHashSet, PortProto, StudyPeriod};
use iotmap_obs::{Histogram, RunReport};
use iotmap_stats::{Ecdf, HourlySeries};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;

/// Region grouping for the outage analysis (Fig. 15/16): the affected
/// region vs. the provider's European regions vs. everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionGroup {
    UsEast1,
    Europe,
    Other,
}

impl RegionGroup {
    const ALL: [RegionGroup; 3] = [
        RegionGroup::UsEast1,
        RegionGroup::Europe,
        RegionGroup::Other,
    ];

    fn of(index: &IpIndex, meta: &crate::index::IpMeta) -> RegionGroup {
        if index.is_us_east1(meta.region) {
            RegionGroup::UsEast1
        } else if meta.continent == Some(Continent::Europe) {
            RegionGroup::Europe
        } else {
            RegionGroup::Other
        }
    }

    fn ordinal(&self) -> usize {
        match self {
            RegionGroup::UsEast1 => 0,
            RegionGroup::Europe => 1,
            RegionGroup::Other => 2,
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            RegionGroup::UsEast1 => "US-East",
            RegionGroup::Europe => "EU",
            RegionGroup::Other => "Other",
        }
    }
}

/// Continent buckets of §5.7 (EU / US / Asia / Other).
fn bucket_of(continent: Option<Continent>) -> usize {
    match continent.map(|c| c.paper_bucket()) {
        Some("EU") => 0,
        Some("US") => 1,
        Some("Asia") => 2,
        _ => 3,
    }
}

/// Bucket labels, ordinal order.
pub const BUCKET_LABELS: [&str; 4] = ["EU", "US", "Asia", "Other"];

/// Set bit `i` of a bitset stored as words.
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Call `f` with every set bit of a bitset stored as words, ascending;
/// visits set bits only.
fn for_each_one(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Where a day-sums pair sits in its block, as offsets from the block's
/// start: a seen-bitset over day offsets, then the exact bytes per day.
/// The seen bit keeps a day whose flows carried zero bytes in the report.
#[derive(Debug, Clone, Copy)]
struct DaySums {
    seen: usize,
    bytes: usize,
}

/// How many words a block kind spans, the first `bits` of them bitsets
/// and the rest byte sums: two blocks of one kind join by OR-ing the
/// former and adding the latter.
#[derive(Debug, Clone, Copy)]
struct Block {
    bits: usize,
    len: usize,
}

/// The word layout of the per-line blocks, fixed by the study period
/// (a bitset over `n` takes `n.div_ceil(64)` words, so no period is too
/// long):
///
/// - line block: v4 days | v6 days | dn seen | up seen ‖ dn bytes | up bytes
/// - provider block: hours | region group × hours | dn seen ‖ dn bytes
/// - port block: dn seen ‖ dn bytes
#[derive(Debug, Clone, Copy)]
struct Shape {
    hours: usize,
    days: usize,
    hour_words: usize,
    region_words: usize,
    day_words: usize,
    line: Block,
    provider: Block,
    port: Block,
    line_dn: DaySums,
    line_up: DaySums,
    provider_dn: DaySums,
    port_dn: DaySums,
}

impl Shape {
    fn new(hours: usize, days: usize) -> Shape {
        let (hw, rw, dw) = (
            hours.div_ceil(64),
            (3 * hours).div_ceil(64),
            days.div_ceil(64),
        );
        let provider_bits = hw + rw + dw;
        Shape {
            hours,
            days,
            hour_words: hw,
            region_words: rw,
            day_words: dw,
            line: Block {
                bits: 4 * dw,
                len: 4 * dw + 2 * days,
            },
            provider: Block {
                bits: provider_bits,
                len: provider_bits + days,
            },
            port: Block {
                bits: dw,
                len: dw + days,
            },
            line_dn: DaySums {
                seen: 2 * dw,
                bytes: 4 * dw,
            },
            line_up: DaySums {
                seen: 3 * dw,
                bytes: 4 * dw + days,
            },
            provider_dn: DaySums {
                seen: hw + rw,
                bytes: provider_bits,
            },
            port_dn: DaySums { seen: 0, bytes: dw },
        }
    }

    /// The v4 (`v6 == false`) or v6 day bitset of the line block at `at`.
    fn family_days(&self, at: usize, v6: bool) -> std::ops::Range<usize> {
        let start = at + if v6 { self.day_words } else { 0 };
        start..start + self.day_words
    }

    /// The hour bitset of the provider block at `at`.
    fn provider_hours(&self, at: usize) -> std::ops::Range<usize> {
        at..at + self.hour_words
    }

    /// The region group × hour bitset of the provider block at `at`.
    fn provider_regions(&self, at: usize) -> std::ops::Range<usize> {
        let start = at + self.hour_words;
        start..start + self.region_words
    }

    /// Record `bytes` on day `d` in the day sums of the block at `at`.
    fn add_day(&self, words: &mut [u64], at: usize, sums: DaySums, d: usize, bytes: u64) {
        set_bit(
            &mut words[at + sums.seen..at + sums.seen + self.day_words],
            d,
        );
        words[at + sums.bytes + d] += bytes;
    }

    /// Call `f(day offset, bytes)` for every day the day sums of the
    /// block at `at` saw.
    fn for_each_day(&self, words: &[u64], at: usize, sums: DaySums, mut f: impl FnMut(usize, u64)) {
        let seen = &words[at + sums.seen..at + sums.seen + self.day_words];
        for_each_one(seen, |d| f(d, words[at + sums.bytes + d]));
    }
}

/// Join the block at `src` into the block at `dst`.
fn join_block(words: &mut [u64], dst: usize, src: usize, block: Block) {
    for i in 0..block.bits {
        words[dst + i] |= words[src + i];
    }
    for i in block.bits..block.len {
        words[dst + i] += words[src + i];
    }
}

/// A line's entry for one provider or port: the key and where its block
/// starts in the partial's word arena.
#[derive(Debug, Clone, Copy)]
struct Keyed<K> {
    key: K,
    at: usize,
}

/// The block of `key`'s entry, allocating a zeroed block at the end of
/// the arena when the line has none yet. A line talks to a handful of
/// providers and ports, so a linear scan beats hashing.
fn entry<K: PartialEq + Copy>(
    list: &mut Vec<Keyed<K>>,
    key: K,
    words: &mut Vec<u64>,
    block: Block,
) -> usize {
    if let Some(e) = list.iter().find(|e| e.key == key) {
        return e.at;
    }
    let at = words.len();
    words.resize(at + block.len, 0);
    list.push(Keyed { key, at });
    at
}

/// Everything the report keys by subscriber line, for one line: its
/// line block and its provider and port entries.
#[derive(Debug, Clone)]
struct LineSlot {
    line: LineId,
    /// Fig. 13: mask of the continent buckets the line contacted.
    buckets: u8,
    at: usize,
    providers: Vec<Keyed<u16>>,
    ports: Vec<Keyed<PortProto>>,
}

impl LineSlot {
    /// This slot with every block offset moved up by `base`.
    fn rebased(mut self, base: usize) -> LineSlot {
        self.at += base;
        self.providers.iter_mut().for_each(|e| e.at += base);
        self.ports.iter_mut().for_each(|e| e.at += base);
        self
    }

    /// Fold another slot of the same line, whose blocks live in the same
    /// arena, into this one.
    fn join(&mut self, other: LineSlot, words: &mut [u64], shape: &Shape) {
        self.buckets |= other.buckets;
        join_block(words, self.at, other.at, shape.line);
        for theirs in other.providers {
            match self.providers.iter().find(|e| e.key == theirs.key) {
                Some(ours) => join_block(words, ours.at, theirs.at, shape.provider),
                None => self.providers.push(theirs),
            }
        }
        for theirs in other.ports {
            match self.ports.iter().find(|e| e.key == theirs.key) {
                Some(ours) => join_block(words, ours.at, theirs.at, shape.port),
                None => self.ports.push(theirs),
            }
        }
    }
}

/// What the partial knows about the line of the last folded flow.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    line: LineId,
    excluded: bool,
    /// The line's index in the partial's slots, once it has one.
    slot: Option<u32>,
}

/// One shard's accumulated aggregates. Every field joins commutatively
/// under [`FlowFold::merge`], which is what keeps sharded runs
/// byte-identical to serial ones.
#[derive(Debug, Clone)]
pub struct AnalysisPartial {
    shape: Shape,
    // Fig. 9 / 15: downstream bytes per (provider, hour). Exact integer
    // sums; the report converts to f64 once.
    hourly_dn: Vec<u64>,
    // Fig. 15/16: per (provider, region group, hour).
    hourly_dn_region: Vec<u64>,
    // Fig. 10.
    total_dn: Vec<u64>,
    total_up: Vec<u64>,
    // Fig. 11.
    port_bytes: FxHashMap<(usize, PortProto), u64>,
    // Fig. 14.
    bucket_bytes: [u64; 4],
    // Figs. 8, 12, 13, 15/16 and the daily family counts: one slot per
    // line in order of first appearance, the line → slot index, and the
    // arena holding every slot's blocks.
    slots: Vec<LineSlot>,
    slot_of: FxHashMap<LineId, u32>,
    words: Vec<u64>,
    cursor: Option<Cursor>,
    // `traffic.analysis.flow_bytes` (its count is
    // `traffic.analysis.flows_analyzed`): every flow to an indexed
    // backend from a non-excluded line, in or out of the period.
    flow_bytes: Histogram,
}

impl AnalysisPartial {
    fn new(providers: usize, shape: Shape) -> AnalysisPartial {
        AnalysisPartial {
            shape,
            hourly_dn: vec![0; providers * shape.hours],
            hourly_dn_region: vec![0; providers * 3 * shape.hours],
            total_dn: vec![0; providers],
            total_up: vec![0; providers],
            port_bytes: FxHashMap::default(),
            bucket_bytes: [0; 4],
            slots: Vec::new(),
            slot_of: FxHashMap::default(),
            words: Vec::new(),
            cursor: None,
            flow_bytes: Histogram::new(),
        }
    }

    /// The cursor for `line`: the cached one while a run of the line's
    /// flows continues, else one exclusion check and one slot lookup.
    fn cursor(&mut self, line: LineId, excluded: &FxHashSet<LineId>) -> Cursor {
        match self.cursor {
            Some(c) if c.line == line => c,
            _ => {
                let c = Cursor {
                    line,
                    excluded: excluded.contains(&line),
                    slot: self.slot_of.get(&line).copied(),
                };
                self.cursor = Some(c);
                c
            }
        }
    }

    /// The slot index of the cursor's line, created on the line's first
    /// in-period flow.
    fn cursor_slot(&mut self) -> usize {
        let cursor = self.cursor.as_mut().expect("a flow set the cursor");
        let i = *cursor.slot.get_or_insert_with(|| {
            let i = self.slots.len() as u32;
            let at = self.words.len();
            self.words.resize(at + self.shape.line.len, 0);
            self.slots.push(LineSlot {
                line: cursor.line,
                buckets: 0,
                at,
                providers: Vec::new(),
                ports: Vec::new(),
            });
            self.slot_of.insert(cursor.line, i);
            i
        });
        i as usize
    }

    fn merge(&mut self, other: AnalysisPartial) {
        for (a, b) in self.hourly_dn.iter_mut().zip(other.hourly_dn) {
            *a += b;
        }
        for (a, b) in self.hourly_dn_region.iter_mut().zip(other.hourly_dn_region) {
            *a += b;
        }
        for (a, b) in self.total_dn.iter_mut().zip(other.total_dn) {
            *a += b;
        }
        for (a, b) in self.total_up.iter_mut().zip(other.total_up) {
            *a += b;
        }
        for (k, v) in other.port_bytes {
            *self.port_bytes.entry(k).or_default() += v;
        }
        for (a, b) in self.bucket_bytes.iter_mut().zip(other.bucket_bytes) {
            *a += b;
        }
        // Slots append in first-appearance order with their blocks; only
        // a line seen by both partials (a run split between shards) joins,
        // leaving its appended blocks unused.
        let base = self.words.len();
        self.words.extend_from_slice(&other.words);
        for slot in other.slots {
            let slot = slot.rebased(base);
            match self.slot_of.entry(slot.line) {
                Entry::Occupied(e) => {
                    self.slots[*e.get() as usize].join(slot, &mut self.words, &self.shape)
                }
                Entry::Vacant(e) => {
                    e.insert(self.slots.len() as u32);
                    self.slots.push(slot);
                }
            }
        }
        // The cursor may name a line that `other` just gave a slot.
        self.cursor = None;
        self.flow_bytes.merge_snapshot(&other.flow_bytes.snapshot());
    }

    /// Report the pass's flow metrics to the installed recorder in one
    /// merge, leaving no key behind when no flow was analyzed (as
    /// per-flow recording would).
    fn flush_metrics(&self) {
        let snap = self.flow_bytes.snapshot();
        if snap.count == 0 || !iotmap_obs::enabled() {
            return;
        }
        let mut report = RunReport::default();
        report
            .counters
            .insert("traffic.analysis.flows_analyzed".to_string(), snap.count);
        report
            .histograms
            .insert("traffic.analysis.flow_bytes".to_string(), snap);
        iotmap_obs::merge_child_report(&report, None);
    }
}

/// A map presized for `len` entries.
fn map_with<K, V>(len: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(len, Default::default())
}

/// The mergeable flow-analysis aggregation over a study period.
pub struct AnalysisFold<'a> {
    index: &'a IpIndex,
    excluded: FxHashSet<LineId>,
    start_hour: u64,
    start_day: u64,
    shape: Shape,
}

impl<'a> AnalysisFold<'a> {
    /// Fold covering a study period, skipping the `excluded` lines.
    pub fn new(index: &'a IpIndex, excluded: &HashSet<LineId>, period: StudyPeriod) -> Self {
        let start_hour = period.start.epoch_hours();
        let hours = period.hours().count();
        let start_day = start_hour / 24;
        let days = ((start_hour + hours as u64).div_ceil(24) - start_day) as usize;
        AnalysisFold {
            index,
            excluded: excluded.iter().copied().collect(),
            start_hour,
            start_day,
            shape: Shape::new(hours, days),
        }
    }

    /// Consume a folded partial into a report, flushing the pass's flow
    /// metrics to the installed recorder.
    pub fn into_report(&self, partial: AnalysisPartial) -> AnalysisReport {
        let _span = iotmap_obs::span!("traffic.analysis.into_report");
        let p = partial;
        p.flush_metrics();
        // The port and provider maps cost about as much as the counts and
        // the two line maps together, so on two workers the contiguous
        // halves of this order balance.
        const PARTS: [Part; 5] = [
            Part::Counts,
            Part::LineDn,
            Part::LineUp,
            Part::Port,
            Part::Provider,
        ];
        let parts = iotmap_par::shard_fold(
            &PARTS,
            |_| LineParts::default(),
            |acc, _, &part| self.build_part(acc, part, &p),
            LineParts::join,
        );
        AnalysisReport {
            providers: self.index.providers().to_vec(),
            server_buckets: {
                let mut counts = [0usize; 4];
                for (_, meta) in self.index.iter() {
                    counts[bucket_of(meta.continent)] += 1;
                }
                counts
            },
            start_hour: self.start_hour,
            hours: self.shape.hours,
            hourly_lines: parts.hourly_lines.iter().map(|&n| n as f64).collect(),
            hourly_dn: p.hourly_dn.iter().map(|&b| b as f64).collect(),
            hourly_dn_region: p.hourly_dn_region.iter().map(|&b| b as f64).collect(),
            hourly_lines_region: parts
                .hourly_lines_region
                .iter()
                .map(|&n| n as f64)
                .collect(),
            // Per-day family counts in day order, over the days that saw
            // the family at all.
            daily_v4: parts.daily_v4.into_iter().filter(|&n| n > 0).collect(),
            daily_v6: parts.daily_v6.into_iter().filter(|&n| n > 0).collect(),
            total_dn: p.total_dn,
            total_up: p.total_up,
            port_bytes: p.port_bytes,
            line_day_dn: parts.line_day_dn,
            line_day_up: parts.line_day_up,
            line_day_prov_dn: parts.line_day_prov_dn,
            line_day_port_dn: parts.line_day_port_dn,
            line_buckets: parts.line_buckets,
            bucket_bytes: p.bucket_bytes,
        }
    }

    /// Build one part of the report from the partial's line slots.
    fn build_part(&self, acc: &mut LineParts, part: Part, p: &AnalysisPartial) {
        let sh = self.shape;
        let (slots, words) = (&p.slots[..], &p.words[..]);
        let day = |d: usize| (self.start_day + d as u64) as i64;
        match part {
            // Set bits → distinct-line counts.
            Part::Counts => {
                let providers = self.index.providers().len();
                acc.hourly_lines = vec![0; providers * sh.hours];
                acc.hourly_lines_region = vec![0; providers * 3 * sh.hours];
                acc.daily_v4 = vec![0; sh.days];
                acc.daily_v6 = vec![0; sh.days];
                acc.line_buckets = map_with(slots.len());
                for slot in slots {
                    acc.line_buckets.insert(slot.line, slot.buckets);
                    let v4 = &words[sh.family_days(slot.at, false)];
                    for_each_one(v4, |d| acc.daily_v4[d] += 1);
                    let v6 = &words[sh.family_days(slot.at, true)];
                    for_each_one(v6, |d| acc.daily_v6[d] += 1);
                    for e in &slot.providers {
                        let base = e.key as usize * sh.hours;
                        let hours = &words[sh.provider_hours(e.at)];
                        for_each_one(hours, |h| acc.hourly_lines[base + h] += 1);
                        let regions = &words[sh.provider_regions(e.at)];
                        for_each_one(regions, |i| acc.hourly_lines_region[3 * base + i] += 1);
                    }
                }
            }
            Part::LineDn => {
                acc.line_day_dn = line_day_map(slots, |s, f| {
                    sh.for_each_day(words, s.at, sh.line_dn, |d, b| f((s.line, day(d)), b))
                })
            }
            Part::LineUp => {
                acc.line_day_up = line_day_map(slots, |s, f| {
                    sh.for_each_day(words, s.at, sh.line_up, |d, b| f((s.line, day(d)), b))
                })
            }
            Part::Provider => {
                acc.line_day_prov_dn = line_day_map(slots, |s, f| {
                    for e in &s.providers {
                        let key = |d| (s.line, day(d), e.key);
                        sh.for_each_day(words, e.at, sh.provider_dn, |d, b| f(key(d), b));
                    }
                })
            }
            Part::Port => {
                acc.line_day_port_dn = line_day_map(slots, |s, f| {
                    for e in &s.ports {
                        let key = |d| (s.line, day(d), e.key);
                        sh.for_each_day(words, e.at, sh.port_dn, |d, b| f(key(d), b));
                    }
                })
            }
        }
    }
}

/// The parts of [`AnalysisFold::into_report`]: independent jobs over the
/// line slots, each building its report fields whole.
#[derive(Debug, Clone, Copy)]
enum Part {
    /// `hourly_lines*`, `daily_*` and `line_buckets`.
    Counts,
    LineDn,
    LineUp,
    Provider,
    Port,
}

/// The report fields built from the line slots. Each field is built
/// whole by one part's job, so its layout does not depend on how the
/// jobs were spread over workers.
#[derive(Debug, Default)]
struct LineParts {
    hourly_lines: Vec<usize>,
    hourly_lines_region: Vec<usize>,
    daily_v4: Vec<usize>,
    daily_v6: Vec<usize>,
    line_buckets: FxHashMap<LineId, u8>,
    line_day_dn: FxHashMap<(LineId, i64), u64>,
    line_day_up: FxHashMap<(LineId, i64), u64>,
    line_day_prov_dn: FxHashMap<(LineId, i64, u16), u64>,
    line_day_port_dn: FxHashMap<(LineId, i64, PortProto), u64>,
}

impl LineParts {
    /// Take the fields `other`'s jobs built; each field is built by one job.
    fn join(&mut self, other: LineParts) {
        fn keep<T: Default + PartialEq>(ours: &mut T, theirs: T) {
            if theirs != T::default() {
                *ours = theirs;
            }
        }
        keep(&mut self.hourly_lines, other.hourly_lines);
        keep(&mut self.hourly_lines_region, other.hourly_lines_region);
        keep(&mut self.daily_v4, other.daily_v4);
        keep(&mut self.daily_v6, other.daily_v6);
        keep(&mut self.line_buckets, other.line_buckets);
        keep(&mut self.line_day_dn, other.line_day_dn);
        keep(&mut self.line_day_up, other.line_day_up);
        keep(&mut self.line_day_prov_dn, other.line_day_prov_dn);
        keep(&mut self.line_day_port_dn, other.line_day_port_dn);
    }
}

/// A map of every `(key, bytes)` entry that `each` reports for the slots,
/// presized by a counting pass so it never rehashes.
fn line_day_map<K: Eq + Hash>(
    slots: &[LineSlot],
    each: impl Fn(&LineSlot, &mut dyn FnMut(K, u64)),
) -> FxHashMap<K, u64> {
    let mut len = 0;
    slots.iter().for_each(|s| each(s, &mut |_, _| len += 1));
    let mut map = map_with(len);
    slots.iter().for_each(|s| {
        each(s, &mut |k, b| {
            map.insert(k, b);
        })
    });
    map
}

impl FlowFold for AnalysisFold<'_> {
    type Partial = AnalysisPartial;

    fn make(&self) -> AnalysisPartial {
        AnalysisPartial::new(self.index.providers().len(), self.shape)
    }

    fn fold(&self, acc: &mut AnalysisPartial, r: &FlowRecord) {
        if acc.cursor(r.line, &self.excluded).excluded {
            return;
        }
        let Some(meta) = self.index.get(r.remote) else {
            return;
        };
        acc.flow_bytes.record(r.bytes);
        let p = meta.provider;
        let hour = r.time.epoch_hours();
        if hour < self.start_hour {
            return;
        }
        let sh = self.shape;
        let h = (hour - self.start_hour) as usize;
        if h >= sh.hours {
            return;
        }
        // Whole days since the epoch, as `SimTime::epoch_days` computes,
        // as an offset into the period.
        let d = (hour / 24 - self.start_day) as usize;
        let group = RegionGroup::of(self.index, meta).ordinal();
        let bucket = bucket_of(meta.continent);
        let downstream = r.direction == Direction::Downstream;

        let region_idx = (p * 3 + group) * sh.hours + h;
        if downstream {
            acc.hourly_dn[p * sh.hours + h] += r.bytes;
            acc.hourly_dn_region[region_idx] += r.bytes;
            acc.total_dn[p] += r.bytes;
        } else {
            acc.total_up[p] += r.bytes;
        }
        *acc.port_bytes.entry((p, r.port)).or_default() += r.bytes;
        acc.bucket_bytes[bucket] += r.bytes;

        let i = acc.cursor_slot();
        let slot = &mut acc.slots[i];
        let words = &mut acc.words;
        slot.buckets |= 1 << bucket;
        set_bit(&mut words[sh.family_days(slot.at, r.remote.is_ipv6())], d);
        let prov = entry(&mut slot.providers, p as u16, words, sh.provider);
        set_bit(&mut words[sh.provider_hours(prov)], h);
        set_bit(&mut words[sh.provider_regions(prov)], group * sh.hours + h);
        if downstream {
            sh.add_day(words, prov, sh.provider_dn, d, r.bytes);
            sh.add_day(words, slot.at, sh.line_dn, d, r.bytes);
            let port = entry(&mut slot.ports, r.port, words, sh.port);
            sh.add_day(words, port, sh.port_dn, d, r.bytes);
        } else {
            sh.add_day(words, slot.at, sh.line_up, d, r.bytes);
        }
    }

    fn merge(&self, acc: &mut AnalysisPartial, other: AnalysisPartial) {
        acc.merge(other);
    }
}

/// The finished aggregates, with one accessor per figure.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    providers: Vec<String>,
    server_buckets: [usize; 4],
    start_hour: u64,
    hours: usize,
    hourly_lines: Vec<f64>,
    hourly_dn: Vec<f64>,
    hourly_dn_region: Vec<f64>,
    hourly_lines_region: Vec<f64>,
    total_dn: Vec<u64>,
    total_up: Vec<u64>,
    port_bytes: FxHashMap<(usize, PortProto), u64>,
    line_day_dn: FxHashMap<(LineId, i64), u64>,
    line_day_up: FxHashMap<(LineId, i64), u64>,
    line_day_prov_dn: FxHashMap<(LineId, i64, u16), u64>,
    line_day_port_dn: FxHashMap<(LineId, i64, PortProto), u64>,
    line_buckets: FxHashMap<LineId, u8>,
    bucket_bytes: [u64; 4],
    daily_v4: Vec<usize>,
    daily_v6: Vec<usize>,
}

impl AnalysisReport {
    /// Provider names (index order).
    pub fn providers(&self) -> &[String] {
        &self.providers
    }

    fn pidx(&self, provider: &str) -> Option<usize> {
        self.providers.iter().position(|p| p == provider)
    }

    /// Fig. 8: hourly subscriber-line counts for one provider.
    pub fn fig8_lines(&self, provider: &str) -> Option<HourlySeries> {
        let p = self.pidx(provider)?;
        let mut s = HourlySeries::new(self.start_hour, self.hours);
        for h in 0..self.hours {
            s.add(
                self.start_hour + h as u64,
                self.hourly_lines[p * self.hours + h],
            );
        }
        Some(s)
    }

    /// Fig. 9 / 15: hourly downstream bytes for one provider.
    pub fn fig9_downstream(&self, provider: &str) -> Option<HourlySeries> {
        let p = self.pidx(provider)?;
        let mut s = HourlySeries::new(self.start_hour, self.hours);
        for h in 0..self.hours {
            s.add(
                self.start_hour + h as u64,
                self.hourly_dn[p * self.hours + h],
            );
        }
        Some(s)
    }

    /// Fig. 15/16 region-resolved series.
    pub fn region_series(
        &self,
        provider: &str,
        group: RegionGroup,
        lines: bool,
    ) -> Option<HourlySeries> {
        let p = self.pidx(provider)?;
        let mut s = HourlySeries::new(self.start_hour, self.hours);
        let base = (p * 3 + group.ordinal()) * self.hours;
        for h in 0..self.hours {
            let v = if lines {
                self.hourly_lines_region[base + h]
            } else {
                self.hourly_dn_region[base + h]
            };
            s.add(self.start_hour + h as u64, v);
        }
        Some(s)
    }

    /// All region groups (for iteration).
    pub fn region_groups() -> [RegionGroup; 3] {
        RegionGroup::ALL
    }

    /// Fig. 10: downstream/upstream byte ratio.
    pub fn fig10_ratio(&self, provider: &str) -> Option<f64> {
        let p = self.pidx(provider)?;
        let up = self.total_up[p];
        if up == 0 {
            return None;
        }
        Some(self.total_dn[p] as f64 / up as f64)
    }

    /// Total downstream bytes of one provider.
    pub fn total_downstream(&self, provider: &str) -> u64 {
        self.pidx(provider).map_or(0, |p| self.total_dn[p])
    }

    /// Fig. 11: per-provider port mix, as `(port, byte fraction)` sorted
    /// by share.
    pub fn fig11_port_mix(&self, provider: &str) -> Vec<(PortProto, f64)> {
        let Some(p) = self.pidx(provider) else {
            return Vec::new();
        };
        let total: u64 = self
            .port_bytes
            .iter()
            .filter(|((pp, _), _)| *pp == p)
            .map(|(_, b)| *b)
            .sum();
        if total == 0 {
            return Vec::new();
        }
        let mut mix: Vec<(PortProto, f64)> = self
            .port_bytes
            .iter()
            .filter(|((pp, _), _)| *pp == p)
            .map(|((_, port), b)| (*port, *b as f64 / total as f64))
            .collect();
        mix.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
        mix
    }

    /// Fig. 12a: ECDF of daily per-line traffic, down or up.
    pub fn fig12a_ecdf(&self, downstream: bool) -> Ecdf {
        let src = if downstream {
            &self.line_day_dn
        } else {
            &self.line_day_up
        };
        Ecdf::new(src.values().map(|&b| b as f64).collect())
    }

    /// Fig. 12b: per-provider ECDF of daily per-line download.
    pub fn fig12b_ecdf(&self, provider: &str) -> Option<Ecdf> {
        let p = self.pidx(provider)? as u16;
        let samples: Vec<f64> = self
            .line_day_prov_dn
            .iter()
            .filter(|((_, _, pp), _)| *pp == p)
            .map(|(_, &b)| b as f64)
            .collect();
        Some(Ecdf::new(samples))
    }

    /// Fig. 12c: per-port ECDF of daily per-line download.
    pub fn fig12c_ecdf(&self, port: PortProto) -> Ecdf {
        let samples: Vec<f64> = self
            .line_day_port_dn
            .iter()
            .filter(|((_, _, pp), _)| *pp == port)
            .map(|(_, &b)| b as f64)
            .collect();
        Ecdf::new(samples)
    }

    /// The top ports by total downstream bytes.
    pub fn top_ports(&self, k: usize) -> Vec<(PortProto, u64)> {
        let mut by_port: BTreeMap<PortProto, u64> = BTreeMap::new();
        for ((_, _, port), b) in &self.line_day_port_dn {
            *by_port.entry(*port).or_default() += b;
        }
        let mut v: Vec<_> = by_port.into_iter().collect();
        v.sort_by_key(|(_, b)| std::cmp::Reverse(*b));
        v.truncate(k);
        v
    }

    /// Fig. 13 (left): line distribution over contacted-continent
    /// combinations. Returns `(eu_only, us_any, eu_us_mix, asia_other_only)`
    /// fractions.
    pub fn fig13_line_buckets(&self) -> (f64, f64, f64, f64) {
        let total = self.line_buckets.len().max(1) as f64;
        let (mut eu_only, mut us_any, mut mix, mut no_eu_us) = (0usize, 0usize, 0usize, 0usize);
        for &mask in self.line_buckets.values() {
            let eu = mask & 0b0001 != 0;
            let us = mask & 0b0010 != 0;
            if mask == 0b0001 {
                eu_only += 1;
            }
            if us {
                us_any += 1;
            }
            if eu && us {
                mix += 1;
            }
            if !eu && !us {
                no_eu_us += 1;
            }
        }
        (
            eu_only as f64 / total,
            us_any as f64 / total,
            mix as f64 / total,
            no_eu_us as f64 / total,
        )
    }

    /// Fig. 13 (right): fraction of backend servers per continent bucket
    /// (EU, US, Asia, Other).
    pub fn fig13_server_buckets(&self) -> [f64; 4] {
        let total: usize = self.server_buckets.iter().sum();
        let mut out = [0.0; 4];
        if total > 0 {
            for (o, n) in out.iter_mut().zip(self.server_buckets.iter()) {
                *o = *n as f64 / total as f64;
            }
        }
        out
    }

    /// Fig. 14: traffic-volume share per server continent bucket.
    pub fn fig14_traffic_buckets(&self) -> [f64; 4] {
        let total: u64 = self.bucket_bytes.iter().sum();
        let mut out = [0.0; 4];
        if total > 0 {
            for (o, n) in out.iter_mut().zip(self.bucket_bytes.iter()) {
                *o = *n as f64 / total as f64;
            }
        }
        out
    }

    /// Mean daily active lines, per address family.
    pub fn daily_active_lines(&self) -> (f64, f64) {
        let mean = |v: &[usize]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<usize>() as f64 / v.len() as f64
            }
        };
        (mean(&self.daily_v4), mean(&self.daily_v6))
    }

    /// Total lines observed with IoT traffic.
    pub fn total_lines(&self) -> usize {
        self.line_buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotmap_core::{DiscoveryResult, Footprint, IpEvidence, ProviderDiscovery};
    use iotmap_nettypes::{Date, Location, SimDuration};
    use std::collections::HashMap;
    use std::net::IpAddr;

    fn index() -> IpIndex {
        let mut a = ProviderDiscovery {
            name: "alpha".to_string(),
            ..Default::default()
        };
        a.ips
            .insert("10.0.0.1".parse().unwrap(), IpEvidence::default());
        a.ips
            .insert("10.0.0.2".parse().unwrap(), IpEvidence::default());
        let mut fp = Footprint::default();
        fp.per_ip.insert(
            "10.0.0.1".parse().unwrap(),
            iotmap_core::footprint::IpLocation {
                label: "eu-central-1".into(),
                location: Location::new("Frankfurt", "DE", Continent::Europe, 50.1, 8.7),
                contested: false,
            },
        );
        fp.per_ip.insert(
            "10.0.0.2".parse().unwrap(),
            iotmap_core::footprint::IpLocation {
                label: "us-east-1".into(),
                location: Location::new("Ashburn", "US", Continent::NorthAmerica, 39.0, -77.5),
                contested: false,
            },
        );
        let mut fps = HashMap::new();
        fps.insert("alpha".to_string(), fp);
        IpIndex::build(
            &DiscoveryResult::from_providers(vec![a]),
            &fps,
            &HashSet::new(),
        )
    }

    fn record(line: u64, ip: &str, hour: u64, dir: Direction, bytes: u64, port: u16) -> FlowRecord {
        FlowRecord {
            time: Date::new(2022, 2, 28).midnight() + SimDuration::hours(hour),
            line: LineId(line),
            remote: ip.parse::<IpAddr>().unwrap(),
            port: PortProto::tcp(port),
            direction: dir,
            bytes,
            packets: bytes / 1000 + 1,
        }
    }

    fn run_excluding(excluded: &HashSet<LineId>, records: &[FlowRecord]) -> AnalysisReport {
        let idx = index();
        let fold = AnalysisFold::new(&idx, excluded, StudyPeriod::main_week());
        fold.into_report(fold.fold_all(records))
    }

    fn run(records: &[FlowRecord]) -> AnalysisReport {
        run_excluding(&HashSet::new(), records)
    }

    #[test]
    fn hourly_series_and_totals() {
        let report = run(&[
            record(1, "10.0.0.1", 10, Direction::Downstream, 5000, 8883),
            record(1, "10.0.0.1", 10, Direction::Upstream, 1000, 8883),
            record(2, "10.0.0.1", 11, Direction::Downstream, 3000, 443),
        ]);
        let lines = report.fig8_lines("alpha").unwrap();
        assert_eq!(lines.get(10), 1.0);
        assert_eq!(lines.get(11), 1.0);
        assert_eq!(lines.get(12), 0.0);
        let dn = report.fig9_downstream("alpha").unwrap();
        assert_eq!(dn.get(10), 5000.0);
        assert_eq!(report.fig10_ratio("alpha"), Some(8.0));
        assert_eq!(report.total_downstream("alpha"), 8000);
    }

    #[test]
    fn port_mix_fractions() {
        let report = run(&[
            record(1, "10.0.0.1", 1, Direction::Downstream, 9000, 8883),
            record(1, "10.0.0.1", 2, Direction::Downstream, 1000, 443),
        ]);
        let mix = report.fig11_port_mix("alpha");
        assert_eq!(mix[0].0, PortProto::tcp(8883));
        assert!((mix[0].1 - 0.9).abs() < 1e-9);
        assert!((mix[1].1 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn ecdfs_by_line_day() {
        let report = run(&[
            record(1, "10.0.0.1", 1, Direction::Downstream, 1_000, 8883),
            record(1, "10.0.0.1", 2, Direction::Downstream, 2_000, 8883),
            record(2, "10.0.0.1", 1, Direction::Downstream, 50_000, 8883),
        ]);
        let e = report.fig12a_ecdf(true);
        // Two line-days: 3000 and 50000.
        assert_eq!(e.len(), 2);
        assert!((e.fraction_at_or_below(10_000.0) - 0.5).abs() < 1e-9);
        let per_port = report.fig12c_ecdf(PortProto::tcp(8883));
        assert_eq!(per_port.len(), 2);
        let top = report.top_ports(5);
        assert_eq!(top[0].0, PortProto::tcp(8883));
    }

    #[test]
    fn region_groups_and_buckets() {
        let report = run(&[
            record(1, "10.0.0.1", 1, Direction::Downstream, 1000, 443), // EU
            record(1, "10.0.0.2", 1, Direction::Downstream, 3000, 443), // us-east-1
            record(2, "10.0.0.1", 2, Direction::Downstream, 500, 443),  // EU only
        ]);
        let us = report
            .region_series("alpha", RegionGroup::UsEast1, false)
            .unwrap();
        assert_eq!(us.get(1), 3000.0);
        let eu = report
            .region_series("alpha", RegionGroup::Europe, false)
            .unwrap();
        assert_eq!(eu.total(), 1500.0);
        let lines_us = report
            .region_series("alpha", RegionGroup::UsEast1, true)
            .unwrap();
        assert_eq!(lines_us.get(1), 1.0);

        let (eu_only, us_any, mix, _) = report.fig13_line_buckets();
        assert!((eu_only - 0.5).abs() < 1e-9, "line 2 is EU-only");
        assert!((us_any - 0.5).abs() < 1e-9, "line 1 touches the US");
        assert!((mix - 0.5).abs() < 1e-9, "line 1 touches both");

        let servers = report.fig13_server_buckets();
        assert!((servers[0] - 0.5).abs() < 1e-9);
        assert!((servers[1] - 0.5).abs() < 1e-9);

        let traffic = report.fig14_traffic_buckets();
        assert!((traffic[1] - 3000.0 / 4500.0).abs() < 1e-9);
    }

    #[test]
    fn excluded_lines_and_unknown_remotes_ignored() {
        let excluded: HashSet<LineId> = [LineId(9)].into_iter().collect();
        let report = run_excluding(
            &excluded,
            &[
                record(9, "10.0.0.1", 1, Direction::Downstream, 1000, 443),
                record(1, "99.9.9.9", 1, Direction::Downstream, 1000, 443),
            ],
        );
        assert_eq!(report.total_lines(), 0);
        assert_eq!(report.total_downstream("alpha"), 0);
    }

    #[test]
    fn daily_family_counts() {
        let report = run(&[
            record(1, "10.0.0.1", 1, Direction::Downstream, 1000, 443),
            record(2, "10.0.0.1", 30, Direction::Downstream, 1000, 443),
        ]);
        let (v4, v6) = report.daily_active_lines();
        assert!((v4 - 1.0).abs() < 1e-9, "one line per day on two days");
        assert_eq!(v6, 0.0);
    }

    #[test]
    fn out_of_window_flows_dropped() {
        // A flow from December (outage week) must not land in the main
        // week's buckets.
        let report = run(&[FlowRecord {
            time: Date::new(2021, 12, 5).midnight(),
            line: LineId(1),
            remote: "10.0.0.1".parse().unwrap(),
            port: PortProto::tcp(443),
            direction: Direction::Downstream,
            bytes: 1000,
            packets: 1,
        }]);
        assert_eq!(report.fig9_downstream("alpha").unwrap().total(), 0.0);
    }

    /// The fold law behind the streaming path: folding any split of the
    /// stream into two partials and merging equals the serial pass, and
    /// so does the resulting report.
    #[test]
    fn split_fold_and_merge_match_serial() {
        let records = [
            record(1, "10.0.0.1", 10, Direction::Downstream, 5000, 8883),
            record(1, "10.0.0.2", 10, Direction::Upstream, 1000, 8883),
            record(2, "10.0.0.1", 11, Direction::Downstream, 3000, 443),
            record(3, "10.0.0.2", 30, Direction::Downstream, 700, 443),
            record(1, "10.0.0.1", 31, Direction::Upstream, 50, 1883),
        ];
        let idx = index();
        let excluded = HashSet::new();
        let fold = AnalysisFold::new(&idx, &excluded, StudyPeriod::main_week());
        let serial_report = fold.into_report(fold.fold_all(&records));
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let mut left = fold.fold_all(a);
            fold.merge(&mut left, fold.fold_all(b));
            assert_eq!(
                fold.into_report(left),
                serial_report,
                "split at {split} must merge to the serial report"
            );
        }
    }

    /// Fold each chunk into its own partial and merge them left to
    /// right, as the simulator merges shards and blocks.
    fn fold_chunks(fold: &AnalysisFold, chunks: &[&[FlowRecord]]) -> AnalysisPartial {
        let mut acc = fold.make();
        for chunk in chunks {
            fold.merge(&mut acc, fold.fold_all(chunk));
        }
        acc
    }

    /// The merge laws the per-line slots must keep: a line's run of
    /// flows split between partials, one line in two non-adjacent
    /// partials, and merging into a partial that keeps folding all equal
    /// the serial fold.
    #[test]
    fn merge_joins_split_and_repeated_lines() {
        let records = [
            record(1, "10.0.0.1", 10, Direction::Downstream, 5000, 8883),
            record(1, "10.0.0.2", 11, Direction::Upstream, 1000, 8883),
            record(1, "10.0.0.1", 10, Direction::Downstream, 700, 8883),
            record(2, "10.0.0.2", 30, Direction::Downstream, 300, 443),
            record(3, "10.0.0.1", 50, Direction::Downstream, 20, 1883),
            record(1, "10.0.0.2", 52, Direction::Downstream, 80, 443),
            record(1, "10.0.0.1", 53, Direction::Upstream, 40, 1883),
        ];
        let idx = index();
        let excluded = HashSet::new();
        let fold = AnalysisFold::new(&idx, &excluded, StudyPeriod::main_week());
        let serial = fold.into_report(fold.fold_all(&records));
        let r = &records[..];
        // Inside line 1's first run, then line 1 again after lines 2 and 3.
        for chunks in [
            vec![&r[..1], &r[1..]],
            vec![&r[..2], &r[2..3], &r[3..5], &r[5..]],
            vec![&r[..3], &r[3..4], &r[4..5], &r[5..6], &r[6..]],
            r.chunks(1).collect(),
        ] {
            let report = fold.into_report(fold_chunks(&fold, &chunks));
            assert_eq!(
                report,
                serial,
                "chunks {:?}",
                chunks.iter().map(|c| c.len()).collect::<Vec<_>>()
            );
        }
        // Merge, then keep folding the same line into the merged partial,
        // starting from a partial whose last flow (to an unindexed
        // remote) left line 1 without a slot.
        let unknown = record(1, "99.9.9.9", 10, Direction::Downstream, 5, 443);
        let mut acc = fold.fold_all(&[unknown]);
        fold.merge(&mut acc, fold.fold_all(&r[..2]));
        for rec in &r[2..] {
            fold.fold(&mut acc, rec);
        }
        assert_eq!(fold.into_report(acc), serial, "fold after merge");
    }

    /// A period longer than 64 days spans several bitset words for days
    /// and hours; zero-byte flows still report their line-day.
    #[test]
    fn long_periods_use_multi_word_bitsets() {
        let start = Date::new(2022, 2, 28);
        let period = StudyPeriod::from_dates(start, Date::from_epoch_days(start.epoch_days() + 70));
        let h = |day: u64, hour: u64| day * 24 + hour;
        let records = [
            record(1, "10.0.0.1", h(0, 1), Direction::Downstream, 1000, 443),
            record(1, "10.0.0.1", h(63, 23), Direction::Downstream, 0, 443),
            record(1, "10.0.0.2", h(64, 0), Direction::Upstream, 500, 8883),
            record(2, "10.0.0.2", h(69, 5), Direction::Downstream, 2000, 8883),
            record(1, "10.0.0.1", h(69, 23), Direction::Downstream, 10, 1883),
        ];
        let idx = index();
        let excluded = HashSet::new();
        let fold = AnalysisFold::new(&idx, &excluded, period);
        let serial = fold.into_report(fold.fold_all(&records));
        let lines = serial.fig8_lines("alpha").unwrap();
        for hour in [h(0, 1), h(63, 23), h(64, 0), h(69, 5), h(69, 23)] {
            assert_eq!(lines.get(hour as usize), 1.0, "hour {hour}");
        }
        assert_eq!(lines.total(), 5.0);
        let us = serial
            .region_series("alpha", RegionGroup::UsEast1, true)
            .unwrap();
        assert_eq!((us.get(h(64, 0) as usize), us.total()), (1.0, 2.0));
        // Line-days: line 1 on days 0, 63 (zero bytes) and 69; line 2 on 69.
        assert_eq!(serial.fig12a_ecdf(true).len(), 4);
        assert_eq!(serial.fig12a_ecdf(false).len(), 1);
        assert_eq!(serial.fig12c_ecdf(PortProto::tcp(443)).len(), 2);
        // Four active days, one line each except day 69's two.
        assert_eq!(serial.daily_active_lines(), (5.0 / 4.0, 0.0));
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let report = fold.into_report(fold_chunks(&fold, &[a, b]));
            assert_eq!(report, serial, "split at {split}");
        }
    }
}
