//! Pinned table snapshots: lock-free reads over one immutable version.
//!
//! A [`TableSnapshot`] captures everything a reader needs from one
//! [`TableStore`](crate::TableStore) version — the schema, the version
//! metadata, and `Arc` handles to the version's micro-partitions. Capture
//! holds the store's internal lock only long enough to clone the partition
//! handle list (metadata only; partitions are immutable and shared), after
//! which the snapshot can be scanned any number of times with **no lock at
//! all**: writers appending new versions to the store never disturb it.
//!
//! This is the storage half of the MVCC read path (§5.3): queries pin a
//! version per table up front and then execute entirely against pinned
//! snapshots, so a long SELECT never blocks — and is never blocked by —
//! concurrent DML or refreshes.

use std::sync::Arc;

use dt_common::{Batch, PredicateSet, Row, Schema, Timestamp, VersionId};

use crate::partition::Partition;

/// One immutable version of one table, pinned for lock-free scanning.
/// Cheap to clone (shares the schema and partition `Arc`s).
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    schema: Arc<Schema>,
    version: VersionId,
    commit_ts: Timestamp,
    row_count: usize,
    partitions: Vec<Arc<Partition>>,
}

impl TableSnapshot {
    /// Assemble a snapshot from resolved parts (called by
    /// [`TableStore::snapshot`](crate::TableStore::snapshot)).
    pub(crate) fn new(
        schema: Arc<Schema>,
        version: VersionId,
        commit_ts: Timestamp,
        row_count: usize,
        partitions: Vec<Arc<Partition>>,
    ) -> Self {
        TableSnapshot {
            schema,
            version,
            commit_ts,
            row_count,
            partitions,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The pinned version id.
    pub fn version(&self) -> VersionId {
        self.version
    }

    /// Commit timestamp of the pinned version.
    pub fn commit_ts(&self) -> Timestamp {
        self.commit_ts
    }

    /// Row count at the pinned version (from version metadata; free).
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// True when the pinned version holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Number of micro-partitions in the pinned version.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Iterate over the rows of the pinned version, in scan order, without
    /// cloning and without taking any lock.
    pub fn iter_rows(&self) -> impl Iterator<Item = &Row> {
        self.partitions.iter().flat_map(|p| p.rows().iter())
    }

    /// Materialize the rows of the pinned version (lock-free).
    pub fn scan(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.row_count);
        for p in &self.partitions {
            out.extend(p.rows().iter().cloned());
        }
        out
    }

    /// The pinned partition handles.
    pub fn partitions(&self) -> &[Arc<Partition>] {
        &self.partitions
    }

    /// The partitions a scan under `filter` has to read, in scan order:
    /// every partition whose zone maps do not prove that no row can match.
    /// Each partition ruled out is counted once as a zone-map prune (added
    /// to the process-wide counter once per scan); its column data is
    /// never touched (its data-read counter does not move).
    pub fn surviving_partitions(&self, filter: Option<&PredicateSet>) -> Vec<usize> {
        let Some(f) = filter else {
            return (0..self.partitions.len()).collect();
        };
        let survivors: Vec<usize> = (0..self.partitions.len())
            .filter(|&idx| {
                !self.partitions[idx]
                    .zone_maps()
                    .is_some_and(|z| f.prunes(z))
            })
            .collect();
        crate::telemetry::record_zone_map_prunes(self.partitions.len() - survivors.len());
        survivors
    }

    /// Read one partition (normally one of
    /// [`TableSnapshot::surviving_partitions`]) as a columnar batch with
    /// `filter` applied as a selection bitmap. No zone-map check.
    pub fn partition_batch(&self, idx: usize, filter: Option<&PredicateSet>) -> Batch {
        let mut batch = self.partitions[idx].batch();
        if let Some(f) = filter {
            f.apply(&mut batch);
        }
        batch
    }

    /// Scan the pinned version as columnar batches (one per surviving
    /// partition), skipping partitions whose zone maps prove the filter
    /// can't match. Zero-copy: batches share the partitions' column
    /// vectors. Lock-free, like [`TableSnapshot::scan`].
    pub fn scan_batches(&self, filter: Option<&PredicateSet>) -> Vec<Batch> {
        (self.surviving_partitions(filter).into_iter())
            .map(|i| self.partition_batch(i, filter))
            .collect()
    }

    /// How many of this snapshot's partitions `filter` prunes outright —
    /// scan planning / bench instrumentation.
    pub fn count_pruned(&self, filter: &PredicateSet) -> usize {
        self.partitions
            .iter()
            .filter(|p| p.zone_maps().is_some_and(|z| filter.prunes(z)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableStore;
    use dt_common::{row, Column, DataType, TxnId};

    fn store() -> TableStore {
        TableStore::with_partition_capacity(
            Schema::new(vec![Column::new("x", DataType::Int)]),
            Timestamp::EPOCH,
            TxnId(0),
            2,
        )
    }

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn snapshot_scans_match_store_scans() {
        let t = store();
        let v = t
            .commit_change(
                vec![row!(1i64), row!(2i64), row!(3i64)],
                vec![],
                ts(1),
                TxnId(1),
            )
            .unwrap();
        let snap = t.snapshot(v).unwrap();
        assert_eq!(snap.version(), v);
        assert_eq!(snap.commit_ts(), ts(1));
        assert_eq!(snap.row_count(), 3);
        assert_eq!(snap.partition_count(), 2);
        assert_eq!(snap.scan(), t.scan(v).unwrap());
        assert_eq!(snap.iter_rows().count(), 3);
    }

    #[test]
    fn snapshot_is_immune_to_later_commits() {
        let t = store();
        let v1 = t
            .commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        let snap = t.snapshot(v1).unwrap();
        // Writers keep appending — even overwriting everything.
        t.commit_change(vec![row!(2i64)], vec![], ts(2), TxnId(2))
            .unwrap();
        t.overwrite(vec![row!(9i64)], ts(3), TxnId(3)).unwrap();
        assert_eq!(snap.scan(), vec![row!(1i64)]);
        assert_eq!(snap.row_count(), 1);
        // A fresh latest snapshot sees the new contents.
        assert_eq!(t.snapshot_latest().scan(), vec![row!(9i64)]);
    }

    fn pred(column: usize, op: dt_common::CmpOp, lit: impl Into<dt_common::Value>) -> PredicateSet {
        PredicateSet::new(vec![dt_common::ColumnPredicate {
            column,
            op,
            literal: lit.into(),
        }])
    }

    #[test]
    fn scan_batches_match_row_scans() {
        let t = store();
        let v = t
            .commit_change(
                vec![row!(1i64), row!(2i64), row!(3i64), row!(4i64), row!(5i64)],
                vec![],
                ts(1),
                TxnId(1),
            )
            .unwrap();
        let snap = t.snapshot(v).unwrap();
        let rows: Vec<_> = snap
            .scan_batches(None)
            .iter()
            .flat_map(|b| b.to_rows())
            .collect();
        assert_eq!(rows, snap.scan());
    }

    #[test]
    fn zone_maps_prune_cold_partitions_without_reading_them() {
        // Partition capacity 2 → rows 1..=6 land in partitions
        // [1,2], [3,4], [5,6], each with tight zone maps.
        let t = store();
        let v = t
            .commit_change(
                (1..=6i64).map(|i| row!(i)).collect(),
                vec![],
                ts(1),
                TxnId(1),
            )
            .unwrap();
        let snap = t.snapshot(v).unwrap();
        assert_eq!(snap.partition_count(), 3);
        let f = pred(0, dt_common::CmpOp::Gt, 4i64);
        assert_eq!(snap.count_pruned(&f), 2);
        let batches = snap.scan_batches(Some(&f));
        let rows: Vec<_> = batches.iter().flat_map(|b| b.to_rows()).collect();
        assert_eq!(rows, vec![row!(5i64), row!(6i64)]);
        // The proof: pruned partitions' data was never touched, only the
        // surviving partition's was.
        assert_eq!(snap.partitions()[0].data_reads(), 0);
        assert_eq!(snap.partitions()[1].data_reads(), 0);
        assert_eq!(snap.partitions()[2].data_reads(), 1);
    }

    #[test]
    fn zone_maps_handle_nulls() {
        use dt_common::Value;
        let t = store();
        let v = t
            .commit_change(
                vec![
                    Row::new(vec![Value::Null]),
                    Row::new(vec![Value::Null]),
                    row!(7i64),
                    Row::new(vec![Value::Null]),
                ],
                vec![],
                ts(1),
                TxnId(1),
            )
            .unwrap();
        let snap = t.snapshot(v).unwrap();
        // Partition 0 is all-NULL: its zone map has no bounds, so any
        // comparison prunes it; NULLs never satisfy a comparison.
        let zs = snap.partitions()[0].zone_maps().unwrap();
        assert_eq!(zs[0].min, None);
        assert_eq!(zs[0].null_count, 2);
        let f = pred(0, dt_common::CmpOp::LtEq, 100i64);
        let rows: Vec<_> = snap
            .scan_batches(Some(&f))
            .iter()
            .flat_map(|b| b.to_rows())
            .collect();
        assert_eq!(rows, vec![row!(7i64)]);
        assert_eq!(snap.partitions()[0].data_reads(), 0);
    }

    #[test]
    fn zone_maps_handle_mixed_type_columns() {
        use dt_common::Value;
        // The schema says INT but storage is dynamically typed; a column
        // mixing ints and strings must neither wrongly prune nor wrongly
        // match (sql_cmp orders cross-rank types by rank: Int < Str).
        let t = store();
        let v = t
            .commit_change(
                vec![row!(1i64), row!("zz"), row!(5i64), row!("aa")],
                vec![],
                ts(1),
                TxnId(1),
            )
            .unwrap();
        let snap = t.snapshot(v).unwrap();
        let f = pred(0, dt_common::CmpOp::Eq, "aa");
        let rows: Vec<_> = snap
            .scan_batches(Some(&f))
            .iter()
            .flat_map(|b| b.to_rows())
            .collect();
        assert_eq!(rows, vec![row!("aa")]);
        // Strings sort above every int, so an int predicate that clears
        // the int range still can't match — but one inside it can.
        let f = pred(0, dt_common::CmpOp::Eq, 5i64);
        let rows: Vec<_> = snap
            .scan_batches(Some(&f))
            .iter()
            .flat_map(|b| b.to_rows())
            .collect();
        assert_eq!(rows, vec![row!(5i64)]);
        assert_eq!(
            snap.scan_batches(Some(&pred(0, dt_common::CmpOp::Eq, Value::Null)))
                .iter()
                .map(|b| b.live_count())
                .sum::<usize>(),
            0
        );
    }

    #[test]
    fn empty_table_scans_no_batches() {
        let t = store();
        let snap = t.snapshot_latest();
        assert!(snap.scan_batches(None).is_empty());
        assert_eq!(snap.count_pruned(&pred(0, dt_common::CmpOp::Eq, 1i64)), 0);
    }

    #[test]
    fn snapshot_of_unknown_version_errors() {
        let t = store();
        assert!(t.snapshot(VersionId(7)).is_err());
    }

    #[test]
    fn empty_initial_version_snapshots_cleanly() {
        let t = store();
        let snap = t.snapshot_latest();
        assert!(snap.is_empty());
        assert_eq!(snap.scan(), Vec::<Row>::new());
    }
}
