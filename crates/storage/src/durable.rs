//! Durable forms of storage state: the WAL's physical install record and
//! the checkpoint image of a whole [`TableStore`].
//!
//! Both are *physical*, not logical. A WAL install record carries the
//! exact partitions a committed change minted (ids included) and the new
//! version's metadata, so replay reconstructs the identical version chain
//! — same partition ids, same added/removed deltas — rather than
//! re-running the change and minting fresh ids. That is what makes a
//! recovered engine answer change scans and time-travel queries
//! byte-identically to the engine that crashed.

use dt_common::codec::{get_row, get_schema, put_row, put_schema, Reader, Writer};
use dt_common::{DtError, DtResult, PartitionId, Row, Schema, Timestamp, TxnId, VersionId};

use crate::table::TableStore;
use crate::version::TableVersion;

/// The physical contents of one version install, extracted from a
/// `PreparedChange` before the install consumes it and logged to the WAL
/// by the group-commit leader. `commit_ts`, the transaction id, and the
/// owning entity travel in the WAL record envelope (`dt-core`), not here.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionInstallRecord {
    /// Freshly minted partitions: `(id, rows)`. Ids are preserved so
    /// replay rebuilds the same partition pool.
    pub new_parts: Vec<(PartitionId, Vec<Row>)>,
    /// All partitions visible at the new version, in scan order.
    pub partitions: Vec<PartitionId>,
    /// Partitions added relative to the previous version.
    pub added: Vec<PartitionId>,
    /// Partitions removed relative to the previous version.
    pub removed: Vec<PartitionId>,
    /// Total row count at the new version.
    pub row_count: usize,
}

/// A complete, self-contained image of one [`TableStore`] as written into
/// a checkpoint: schema, partition pool, and the full version chain
/// (which is what keeps time travel and `UNDROP` working across a
/// restart).
#[derive(Debug, Clone)]
pub struct StoreCheckpoint {
    /// The table's schema.
    pub schema: Schema,
    /// Micro-partition capacity the store slices inserts into.
    pub partition_capacity: usize,
    /// The next partition id the store would mint.
    pub next_partition: u64,
    /// Every live partition, sorted by id.
    pub partitions: Vec<(PartitionId, Vec<Row>)>,
    /// The full version chain, oldest first.
    pub versions: Vec<TableVersion>,
}

impl StoreCheckpoint {
    /// Rebuild the store this checkpoint describes.
    pub fn restore(self) -> DtResult<TableStore> {
        TableStore::from_checkpoint(self)
    }
}

fn put_partition_ids(w: &mut Writer, ids: &[PartitionId]) {
    w.put_len(ids.len());
    for id in ids {
        w.put_u64(id.raw());
    }
}

fn get_partition_ids(r: &mut Reader<'_>) -> DtResult<Vec<PartitionId>> {
    let n = r.get_len(8)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(PartitionId(r.get_u64()?));
    }
    Ok(ids)
}

fn put_parts(w: &mut Writer, parts: &[(PartitionId, Vec<Row>)]) {
    w.put_len(parts.len());
    for (id, rows) in parts {
        w.put_u64(id.raw());
        w.put_len(rows.len());
        for row in rows {
            put_row(w, row);
        }
    }
}

fn get_parts(r: &mut Reader<'_>) -> DtResult<Vec<(PartitionId, Vec<Row>)>> {
    // A partition is at least an 8-byte id + 4-byte row count.
    let n = r.get_len(12)?;
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let id = PartitionId(r.get_u64()?);
        let rows_n = r.get_len(4)?;
        let mut rows = Vec::with_capacity(rows_n);
        for _ in 0..rows_n {
            rows.push(get_row(r)?);
        }
        parts.push((id, rows));
    }
    Ok(parts)
}

/// Encode a [`VersionInstallRecord`].
pub fn put_install_record(w: &mut Writer, rec: &VersionInstallRecord) {
    put_parts(w, &rec.new_parts);
    put_partition_ids(w, &rec.partitions);
    put_partition_ids(w, &rec.added);
    put_partition_ids(w, &rec.removed);
    w.put_u64(rec.row_count as u64);
}

/// Decode a [`VersionInstallRecord`].
pub fn get_install_record(r: &mut Reader<'_>) -> DtResult<VersionInstallRecord> {
    Ok(VersionInstallRecord {
        new_parts: get_parts(r)?,
        partitions: get_partition_ids(r)?,
        added: get_partition_ids(r)?,
        removed: get_partition_ids(r)?,
        row_count: r.get_u64()? as usize,
    })
}

fn put_version(w: &mut Writer, v: &TableVersion) {
    w.put_u64(v.id.raw());
    w.put_i64(v.commit_ts.as_micros());
    w.put_u64(v.created_by.raw());
    put_partition_ids(w, &v.partitions);
    put_partition_ids(w, &v.added);
    put_partition_ids(w, &v.removed);
    w.put_bool(v.data_equivalent);
    w.put_u64(v.row_count as u64);
}

fn get_version(r: &mut Reader<'_>) -> DtResult<TableVersion> {
    Ok(TableVersion {
        id: VersionId(r.get_u64()?),
        commit_ts: Timestamp::from_micros(r.get_i64()?),
        created_by: TxnId(r.get_u64()?),
        partitions: get_partition_ids(r)?,
        added: get_partition_ids(r)?,
        removed: get_partition_ids(r)?,
        data_equivalent: r.get_bool()?,
        row_count: r.get_u64()? as usize,
    })
}

/// Encode a [`StoreCheckpoint`].
pub fn put_store(w: &mut Writer, ck: &StoreCheckpoint) {
    put_schema(w, &ck.schema);
    w.put_u64(ck.partition_capacity as u64);
    w.put_u64(ck.next_partition);
    put_parts(w, &ck.partitions);
    w.put_len(ck.versions.len());
    for v in &ck.versions {
        put_version(w, v);
    }
}

/// Decode a [`StoreCheckpoint`].
pub fn get_store(r: &mut Reader<'_>) -> DtResult<StoreCheckpoint> {
    let schema = get_schema(r)?;
    let partition_capacity = r.get_u64()? as usize;
    let next_partition = r.get_u64()?;
    let partitions = get_parts(r)?;
    // A version is at least id + ts + txn + three counts + flag + rows.
    let n = r.get_len(45)?;
    let mut versions = Vec::with_capacity(n);
    for _ in 0..n {
        versions.push(get_version(r)?);
    }
    if versions.is_empty() {
        return Err(DtError::Corruption(
            "store checkpoint has an empty version chain".into(),
        ));
    }
    Ok(StoreCheckpoint {
        schema,
        partition_capacity,
        next_partition,
        partitions,
        versions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{row, Column, DataType};

    fn int_table(cap: usize) -> TableStore {
        TableStore::with_partition_capacity(
            Schema::new(vec![Column::new("x", DataType::Int)]),
            Timestamp::EPOCH,
            TxnId(0),
            cap,
        )
    }

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn install_record_replays_to_identical_physical_state() {
        let t = int_table(2);
        let v1 = t
            .commit_change(
                vec![row!(1i64), row!(2i64), row!(3i64)],
                vec![],
                ts(1),
                TxnId(1),
            )
            .unwrap();
        let prep = t
            .prepare_change_at(v1, vec![row!(9i64)], vec![row!(2i64)])
            .unwrap();
        let rec = prep.install_record();

        // Encode/decode the record like the WAL would.
        let mut w = Writer::new();
        put_install_record(&mut w, &rec);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = get_install_record(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, rec);

        // Install on the original; replay on a sibling that saw only v1.
        let replica = {
            let s = int_table(2);
            let p1 = s
                .prepare_change_at(VersionId(0), vec![row!(1i64), row!(2i64), row!(3i64)], vec![])
                .unwrap();
            s.replay_install(&p1.install_record(), ts(1), TxnId(1)).unwrap();
            s
        };
        let v2 = t.install_prepared(prep, ts(2), TxnId(2)).unwrap();
        let rv2 = replica.replay_install(&decoded, ts(2), TxnId(2)).unwrap();
        assert_eq!(v2, rv2);
        assert_eq!(t.scan(v2).unwrap(), replica.scan(rv2).unwrap());
        // Change scans agree too — the physical deltas were preserved.
        assert_eq!(
            t.changes_between(v1, v2).unwrap().inserts(),
            replica.changes_between(v1, rv2).unwrap().inserts()
        );
        // And the replica mints fresh partition ids past the replayed ones.
        replica
            .commit_change(vec![row!(50i64)], vec![], ts(3), TxnId(3))
            .unwrap();
    }

    #[test]
    fn store_checkpoint_round_trips() {
        let t = int_table(2);
        t.commit_change(
            vec![row!(1i64), row!(2i64), row!(3i64)],
            vec![],
            ts(1),
            TxnId(1),
        )
        .unwrap();
        t.commit_change(vec![row!(4i64)], vec![row!(2i64)], ts(2), TxnId(2))
            .unwrap();

        let ck = t.checkpoint_dump();
        let mut w = Writer::new();
        put_store(&mut w, &ck);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let restored = get_store(&mut r).unwrap().restore().unwrap();
        r.finish().unwrap();

        assert_eq!(restored.version_count(), t.version_count());
        assert_eq!(restored.latest_version(), t.latest_version());
        assert_eq!(restored.schema().columns(), t.schema().columns());
        for v in 0..t.version_count() as u64 {
            let v = VersionId(v);
            assert_eq!(restored.scan(v).unwrap(), t.scan(v).unwrap());
            assert_eq!(
                restored.commit_ts_of(v).unwrap(),
                t.commit_ts_of(v).unwrap()
            );
        }
        // The restored store keeps committing where the original left off.
        restored
            .commit_change(vec![row!(10i64)], vec![], ts(3), TxnId(3))
            .unwrap();
    }

    #[test]
    fn empty_version_chain_is_corruption() {
        let mut w = Writer::new();
        put_schema(&mut w, &Schema::new(vec![Column::new("x", DataType::Int)]));
        w.put_u64(64);
        w.put_u64(0);
        w.put_len(0); // no partitions
        w.put_len(0); // no versions
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(get_store(&mut r), Err(DtError::Corruption(_))));
    }
}
