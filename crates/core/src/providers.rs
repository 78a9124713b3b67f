//! Refresh-side providers: resolving table versions for refresh
//! evaluation.
//!
//! Queries and DML do not come through here — they run lock-free against
//! a [`crate::ReadSnapshot`] (which implements [`TableProvider`] itself).
//! [`SnapshotProvider`] serves refresh evaluation at a data timestamp
//! under delayed view semantics. Every provider, the read snapshot
//! included, turns a resolved table version into rows or zero-copy
//! batches through one crate-private type, `PinnedVersion`.

use std::collections::HashMap;
use std::sync::Arc;

use dt_catalog::{Entity, EntityKind};
use dt_common::{
    Batch, DtError, DtResult, EntityId, PredicateSet, Row, Schema, Timestamp, VersionId,
};
use dt_exec::TableProvider;
use dt_plan::{LogicalPlan, ResolvedRelation};
use dt_storage::TableStore;
use dt_txn::RefreshTsMap;

/// Which entities are DTs and where every entity's storage lives.
pub struct StorageView<'a> {
    /// Per-entity storage.
    pub tables: &'a HashMap<EntityId, Arc<TableStore>>,
    /// Entities that are DTs (their storage includes the `$ROW_ID` column,
    /// which scans strip).
    pub dt_entities: &'a dyn Fn(EntityId) -> bool,
    /// The refresh-timestamp → version map.
    pub refresh_map: &'a RefreshTsMap,
}

/// The payload of stored DT rows: each without its leading `$ROW_ID`.
pub fn strip_row_ids<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Vec<Row> {
    rows.into_iter()
        .map(|r| Row::new(r.values()[1..].to_vec()))
        .collect()
}

/// The payload schema of a DT: its stored schema minus the leading
/// `$ROW_ID` column.
fn dt_payload_schema(store: &TableStore) -> Schema {
    Schema::new(store.schema().columns()[1..].to_vec())
}

/// What a catalog entity binds to, for the live catalog and for frozen
/// snapshots alike: table → schema, view → SQL, DT → payload schema of its
/// storage (`store`, looked up by the caller).
pub(crate) fn resolved_relation(
    entity: &Entity,
    store: Option<&TableStore>,
) -> DtResult<ResolvedRelation> {
    match &entity.kind {
        EntityKind::Table { schema } => Ok(ResolvedRelation::Table {
            entity: entity.id,
            schema: schema.clone(),
        }),
        EntityKind::View { sql } => Ok(ResolvedRelation::View { sql: sql.clone() }),
        EntityKind::DynamicTable(_) => {
            let store =
                store.ok_or_else(|| DtError::Storage(format!("no storage for {}", entity.id)))?;
            Ok(ResolvedRelation::Table {
                entity: entity.id,
                schema: dt_payload_schema(store),
            })
        }
    }
}

/// One table version a provider resolved an entity to — the one place that
/// knows how a stored version becomes the relation a plan sees. DT storage
/// carries a leading `$ROW_ID` column that plans never see: row scans strip
/// it, and columnar scans shift the pushed-down filter one column right
/// going in and drop the column coming out.
pub(crate) struct PinnedVersion<'a> {
    pub(crate) store: &'a TableStore,
    pub(crate) version: VersionId,
    pub(crate) is_dt: bool,
}

impl PinnedVersion<'_> {
    /// The relation's rows, cloned out of the pinned partitions (the
    /// store's lock is held only while the version is pinned).
    pub(crate) fn rows(&self) -> DtResult<Vec<Row>> {
        let snap = self.store.snapshot(self.version)?;
        Ok(if self.is_dt {
            strip_row_ids(snap.iter_rows())
        } else {
            snap.scan()
        })
    }

    /// The relation as zero-copy columnar batches, one per partition whose
    /// zone maps do not rule `filter` out, fanned out over up to `threads`
    /// morsel workers.
    pub(crate) fn batches(
        &self,
        filter: Option<&PredicateSet>,
        threads: usize,
    ) -> DtResult<Vec<Batch>> {
        let snap = self.store.snapshot(self.version)?;
        if !self.is_dt {
            return Ok(crate::morsel::scan_batches_parallel(&snap, filter, threads));
        }
        let shifted = filter.map(|f| f.shift_columns(1));
        let batches = crate::morsel::scan_batches_parallel(&snap, shifted.as_ref(), threads);
        Ok(batches.into_iter().map(Batch::drop_first_column).collect())
    }
}

/// Refresh scans run one partition after another: the round driver
/// already spreads the round's ready DTs over the refresh workers.
pub(crate) const WRITE_SCAN_THREADS: usize = 1;

/// A provider that resolves every entity as of a data timestamp under
/// delayed view semantics (§3.1.1): a base table by commit timestamp, a DT
/// to the version its refresh at the *same* timestamp created (exact
/// lookup in the refresh-timestamp map; a miss fails the refresh —
/// production validation #1 of §6.1).
pub struct SnapshotProvider<'a> {
    view: StorageView<'a>,
    /// The data timestamp to resolve at.
    pub at: Timestamp,
}

impl<'a> SnapshotProvider<'a> {
    /// Build a provider at `at`.
    pub fn new(view: StorageView<'a>, at: Timestamp) -> Self {
        SnapshotProvider { view, at }
    }
}

impl SnapshotProvider<'_> {
    /// The version of `entity` this provider reads.
    pub(crate) fn pinned(&self, entity: EntityId) -> DtResult<PinnedVersion<'_>> {
        let store = self
            .view
            .tables
            .get(&entity)
            .ok_or_else(|| DtError::Storage(format!("no storage for {entity}")))?;
        let is_dt = (self.view.dt_entities)(entity);
        let version = if is_dt {
            self.view.refresh_map.exact_version_for(entity, self.at)?
        } else {
            // Base tables resolve by commit timestamp (§5.3).
            store
                .version_at(self.at)
                .ok_or_else(|| DtError::Storage(format!("no version of {entity} at {}", self.at)))?
        };
        Ok(PinnedVersion {
            store,
            version,
            is_dt,
        })
    }
}

impl TableProvider for SnapshotProvider<'_> {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        self.pinned(entity)?.rows()
    }

    fn scan_batches(
        &self,
        entity: EntityId,
        filter: Option<&PredicateSet>,
    ) -> DtResult<Vec<Batch>> {
        self.pinned(entity)?.batches(filter, WRITE_SCAN_THREADS)
    }
}

/// Evaluate a plan at a data timestamp (filters pushed into the scans
/// first, like every interactive query); also returns the total input row
/// count, read off version metadata, for the cost model and the
/// source-row telemetry.
pub(crate) fn evaluate_at(
    view: StorageView<'_>,
    plan: &LogicalPlan,
    ts: Timestamp,
) -> DtResult<(Vec<Row>, usize)> {
    let provider = SnapshotProvider::new(view, ts);
    let mut input_rows = 0usize;
    for e in plan.scanned_entities() {
        // An unresolvable source counts nothing here; executing the plan
        // reports it.
        input_rows += provider
            .pinned(e)
            .and_then(|p| p.store.row_count_at(p.version))
            .unwrap_or(0);
    }
    let rows = dt_exec::execute(&dt_plan::push_down_filters(plan), &provider)?;
    Ok((rows, input_rows))
}
