//! Mergeable flow aggregation — the one way to consume exported NetFlow.
//!
//! A [`FlowFold`] consumes the exported flow stream in **mergeable
//! partials**, so the simulator can shard the subscriber lines across
//! workers — each folds its lines' exported records (routed in place by
//! the border router) into its own accumulator — and combine the
//! per-shard accumulators in shard order. The full flow set is never
//! materialized: peak memory is one line buffer per worker plus the
//! aggregate state (DESIGN.md decision #4).
//!
//! Determinism contract (same as `iotmap_par::shard_fold`):
//! `merge(a, b)` must equal "continue folding b's records into a" for
//! any split of the stream — in practice every partial is built from
//! commutative joins (integer adds, set unions, map-entry adds) or, for
//! [`StoringSink`], an in-order append, so a sharded run is
//! byte-identical to a serial one at any thread count.

use crate::record::FlowRecord;

/// A flow aggregation that can be computed in independent parts and
/// merged.
pub trait FlowFold {
    /// Per-shard accumulator state.
    type Partial: Send;

    /// A fresh, empty accumulator.
    fn make(&self) -> Self::Partial;

    /// Fold one exported record into an accumulator.
    fn fold(&self, acc: &mut Self::Partial, record: &FlowRecord);

    /// Combine `other` into `acc`. Must equal folding `other`'s records
    /// directly into `acc` (associative with respect to stream order).
    fn merge(&self, acc: &mut Self::Partial, other: Self::Partial);

    /// Fold `records` serially into one fresh accumulator: the reference
    /// any sharded run of the same sequence must equal.
    fn fold_all(&self, records: &[FlowRecord]) -> Self::Partial {
        let mut acc = self.make();
        for record in records {
            self.fold(&mut acc, record);
        }
        acc
    }
}

/// The trivial fold: record/byte totals, for tests and smoke checks.
pub struct CountingFold;

/// Accumulator of [`CountingFold`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowTotals {
    pub records: u64,
    pub bytes: u64,
}

impl FlowFold for CountingFold {
    type Partial = FlowTotals;

    fn make(&self) -> FlowTotals {
        FlowTotals::default()
    }

    fn fold(&self, acc: &mut FlowTotals, record: &FlowRecord) {
        acc.records += 1;
        acc.bytes += record.bytes;
    }

    fn merge(&self, acc: &mut FlowTotals, other: FlowTotals) {
        acc.records += other.records;
        acc.bytes += other.bytes;
    }
}

/// The collect fold: every exported record, in stream order — for tests
/// and small scales only. The fold itself keeps no state; the
/// simulator's `run` appends the collected sequence to `records`.
#[derive(Debug, Default)]
pub struct StoringSink {
    pub records: Vec<FlowRecord>,
}

impl StoringSink {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FlowFold for StoringSink {
    type Partial = Vec<FlowRecord>;

    fn make(&self) -> Vec<FlowRecord> {
        Vec::new()
    }

    fn fold(&self, acc: &mut Vec<FlowRecord>, record: &FlowRecord) {
        acc.push(*record);
    }

    fn merge(&self, acc: &mut Vec<FlowRecord>, other: Vec<FlowRecord>) {
        acc.extend(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Direction, LineId};
    use iotmap_nettypes::{Date, PortProto};

    fn records() -> Vec<FlowRecord> {
        (1..=10)
            .map(|i| FlowRecord {
                time: Date::new(2022, 3, 1).midnight(),
                line: LineId(i),
                remote: "192.0.2.1".parse().unwrap(),
                port: PortProto::tcp(443),
                direction: Direction::Downstream,
                bytes: i * 100,
                packets: 1,
            })
            .collect()
    }

    /// Folding any split of the stream into two partials and merging
    /// them equals the serial fold.
    fn assert_merges_like_it_folds<F: FlowFold>(fold: &F, records: &[FlowRecord])
    where
        F::Partial: PartialEq + std::fmt::Debug,
    {
        let serial = fold.fold_all(records);
        for split in 0..=records.len() {
            let (a, b) = records.split_at(split);
            let mut left = fold.fold_all(a);
            fold.merge(&mut left, fold.fold_all(b));
            assert_eq!(left, serial, "split at {split}");
        }
    }

    #[test]
    fn counting_fold_merges_like_it_folds() {
        let records = records();
        assert_merges_like_it_folds(&CountingFold, &records);
        let totals = CountingFold.fold_all(&records);
        assert_eq!((totals.records, totals.bytes), (10, 5500));
    }

    #[test]
    fn storing_sink_keeps_every_record_in_order() {
        let records = records();
        assert_merges_like_it_folds(&StoringSink::new(), &records);
        assert_eq!(StoringSink::new().fold_all(&records), records);
    }
}
