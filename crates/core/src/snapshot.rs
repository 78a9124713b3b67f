//! MVCC read snapshots: the lock-free query path.
//!
//! A [`ReadSnapshot`] is captured under a *brief* engine read lock — an
//! `Arc`'d [`CatalogSnapshot`] (cached by the catalog between mutations),
//! an `Arc<TableStore>` handle per table, a per-table [`VersionId`]
//! frontier, and an HLC read timestamp. Capture is O(tables) handle
//! clones (no row data, no binding), and the lock is released **before**
//! binding, planning, and execution. Storage is
//! already MVCC (every table is an immutable version chain ordered by
//! commit timestamp, §5.3), so a pinned reader is never disturbed by
//! writers appending new versions: a long SELECT no longer stalls — and is
//! no longer stalled by — refreshes or DML.
//!
//! Time travel falls out for free: [`crate::Engine::snapshot_at`] pins the
//! version each table had at a past instant (the snapshot-read rule of
//! §5.3) instead of the latest one, and the same execution path runs.
//!
//! A snapshot's statements go through the one statement router: it serves
//! `SELECT`, `EXPLAIN` and `SHOW DYNAMIC TABLES` with no `?` bindings, and
//! refuses everything else — `SHOW STATS`, whose counters are engine-wide,
//! included.

use std::collections::HashMap;
use std::sync::Arc;

use dt_catalog::{CatalogSnapshot, DtState, RefreshMode};
use dt_common::{
    Batch, Column, DataType, DtError, DtResult, EntityId, PredicateSet, Row, Schema, TargetLag,
    Timestamp, Value, VersionId,
};
use dt_exec::TableProvider;
use dt_plan::{BindOutput, Binder, LogicalPlan, ResolvedRelation, Resolver, ScalarExpr};
use dt_sql::ast;
use dt_storage::TableStore;
use dt_txn::Frontier;

use crate::providers::PinnedVersion;
use crate::router::{self, Surface};
use crate::state::{EngineState, ExecResult, QueryResult};

/// One table pinned inside a [`ReadSnapshot`]: the shared store handle,
/// the version the snapshot resolves it at, and what kind of relation it
/// backs.
struct TableHandle {
    store: Arc<TableStore>,
    /// `None` when the table had no version at the pinned instant (time
    /// travel before the table's first commit).
    version: Option<VersionId>,
    /// DT storage carries a leading `$ROW_ID` column that scans strip.
    is_dt: bool,
    /// DTs that had not completed initialization at capture error on scan
    /// (§3.1) — latest-reads only; time travel resolves whatever existed.
    uninitialized: bool,
}

/// A consistent, immutable view of the whole engine for one reader:
/// catalog, per-table pinned versions, and a read timestamp. All methods
/// take `&self` and acquire **no engine lock** — capture the snapshot via
/// [`crate::Engine::snapshot`] / [`crate::Session::snapshot`] and query it
/// as long as you like while writers proceed.
pub struct ReadSnapshot {
    catalog: Arc<CatalogSnapshot>,
    tables: HashMap<EntityId, TableHandle>,
    /// Entity → pinned version for every table with a version at the
    /// pinned instant, keyed by the read timestamp (§5.3's frontier).
    frontier: Frontier,
    read_ts: Timestamp,
    /// Worker-thread budget for morsel-parallel partition scans (1 =
    /// sequential). Defaults to the host's available parallelism.
    scan_threads: usize,
}

/// Name resolution over the frozen catalog (+ DT payload schemas from the
/// pinned storage handles).
struct SnapshotResolver<'a> {
    snap: &'a ReadSnapshot,
}

impl Resolver for SnapshotResolver<'_> {
    fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
        let e = self.snap.catalog.resolve(name)?;
        crate::providers::resolved_relation(e, self.snap.tables.get(&e.id).map(|h| &*h.store))
    }
}

impl EngineState {
    /// Capture a [`ReadSnapshot`]. `at = None` pins every table's latest
    /// version and a fresh HLC read timestamp; `at = Some(t)` pins the
    /// version visible at `t` (time travel, §5.3). Called under the engine
    /// read lock, which the caller releases immediately afterwards — the
    /// work here is O(tables) handle clones, no row data, no binding.
    pub fn capture_snapshot(&self, at: Option<Timestamp>) -> ReadSnapshot {
        self.capture(at, None)
    }

    /// Capture a [`ReadSnapshot`] covering only `entities` — O(entities)
    /// instead of O(all tables). The fast path for prepared statements,
    /// whose cached plan already names every table it scans; a point query
    /// doesn't pay for the rest of the catalog's storage handles.
    pub fn capture_snapshot_scoped(&self, entities: &[EntityId]) -> ReadSnapshot {
        self.capture(None, Some(entities))
    }

    fn capture(&self, at: Option<Timestamp>, scope: Option<&[EntityId]>) -> ReadSnapshot {
        let catalog = self.catalog.snapshot();
        let read_ts = at.unwrap_or_else(|| self.txn.read_timestamp());
        let pin = |tables: &mut HashMap<EntityId, TableHandle>,
                       id: EntityId,
                       store: &Arc<TableStore>| {
            let version = match at {
                None => Some(store.latest_version()),
                Some(t) => store.version_at(t),
            };
            // Uninitialized: no data timestamp yet, whatever its state (a
            // DT whose initialization failed can be suspended on errors).
            let is_dt = catalog.get(id).ok().and_then(|e| e.as_dt()).is_some();
            let data_ts = self.scheduler.data_ts(id);
            let uninitialized = is_dt && at.is_none() && data_ts.is_none();
            tables.insert(
                id,
                TableHandle {
                    store: Arc::clone(store),
                    version,
                    is_dt,
                    uninitialized,
                },
            );
        };
        let tables = match scope {
            Some(ids) => {
                let mut tables = HashMap::with_capacity(ids.len());
                for id in ids {
                    // Entities without storage are left out; scanning them
                    // errors exactly like an unknown entity would.
                    if let Some(store) = self.tables.get(id) {
                        pin(&mut tables, *id, store);
                    }
                }
                tables
            }
            None => {
                let mut tables = HashMap::with_capacity(self.tables.len());
                for (id, store) in &self.tables {
                    pin(&mut tables, *id, store);
                }
                tables
            }
        };
        let frontier = Frontier::from_sources(
            read_ts,
            tables
                .iter()
                .filter_map(|(id, h)| h.version.map(|v| (*id, v))),
        );
        ReadSnapshot {
            catalog,
            tables,
            frontier,
            read_ts,
            scan_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl ReadSnapshot {
    /// The HLC read timestamp this snapshot was pinned at (for latest
    /// reads, strictly after every commit visible in the snapshot).
    pub fn read_ts(&self) -> Timestamp {
        self.read_ts
    }

    /// The per-table version frontier: entity → pinned version, at the
    /// read timestamp (§5.3's frontier object, reused for reads).
    pub fn frontier(&self) -> &Frontier {
        &self.frontier
    }

    /// The frozen catalog view.
    pub fn catalog(&self) -> &Arc<CatalogSnapshot> {
        &self.catalog
    }

    /// The binding-relevant DDL generation at capture. Prepared statements
    /// compare this against the generation their plan was bound at.
    pub fn ddl_generation(&self) -> u64 {
        self.catalog.binding_generation()
    }

    /// The pinned version of `entity`, if it had one at the snapshot
    /// instant.
    pub fn version_of(&self, entity: EntityId) -> Option<VersionId> {
        self.frontier.get(entity)
    }

    /// The shared store handle of a pinned table — how a transaction's
    /// commit reaches the storage of the tables it buffered writes
    /// against without going back through the engine lock.
    pub(crate) fn table_store(&self, entity: EntityId) -> Option<Arc<TableStore>> {
        self.tables.get(&entity).map(|h| Arc::clone(&h.store))
    }

    /// Cap (or expand) the worker-thread budget for morsel-parallel
    /// partition scans. `1` forces sequential scans; the default is the
    /// host's available parallelism.
    pub fn set_scan_threads(&mut self, threads: usize) {
        self.scan_threads = threads.max(1);
    }

    /// The current morsel-scan worker budget.
    pub fn scan_threads(&self) -> usize {
        self.scan_threads
    }

    /// Bind a query against the frozen catalog. No lock.
    pub fn bind_query(&self, q: &ast::Query) -> DtResult<BindOutput> {
        Binder::new(&SnapshotResolver { snap: self }).bind_query(q)
    }

    /// Bind an expression over the empty scope (an `INSERT … VALUES` cell).
    pub(crate) fn bind_constant(&self, e: &ast::Expr) -> DtResult<ScalarExpr> {
        Binder::new(&SnapshotResolver { snap: self }).bind_constant(e)
    }

    /// Execute a bound plan against the pinned table versions. No lock.
    /// Pushable filter conjuncts are moved into the scans first, so
    /// storage can prune partitions via zone maps and evaluate the rest
    /// vectorized.
    pub fn execute_plan(&self, plan: &LogicalPlan) -> DtResult<Vec<Row>> {
        dt_exec::execute(&dt_plan::push_down_filters(plan), self)
    }

    /// Run a query against the snapshot and return its rows + schema.
    pub fn query(&self, sql: &str) -> DtResult<QueryResult> {
        router::query(Surface::Snapshot(self), &dt_sql::parse(sql)?, sql, None)
    }

    /// Run a SELECT and return sorted rows (deterministic comparisons).
    pub fn query_sorted(&self, sql: &str) -> DtResult<Vec<Row>> {
        Ok(self.query(sql)?.into_sorted_rows())
    }

    /// Parse and run any read-only statement (SELECT / EXPLAIN / SHOW
    /// DYNAMIC TABLES) against the snapshot.
    pub fn execute_read(&self, sql: &str) -> DtResult<ExecResult> {
        router::route(Surface::Snapshot(self), &dt_sql::parse(sql)?, sql, None)
    }

    /// `EXPLAIN q`: the plan `execute_plan` runs, and what an incremental
    /// refresh of a DT defined by `q` would read for each `Aggregate`.
    pub(crate) fn explain(&self, q: &ast::Query) -> DtResult<ExecResult> {
        let out = self.bind_query(q)?;
        let mode = if out.plan.is_differentiable() {
            "incrementally maintainable"
        } else {
            "full refresh only"
        };
        // The notes come from the plan the rules differentiate (pushdown
        // moves filters, never aggregates, so they meet their nodes in
        // printing order).
        let mut notes = dt_ivm::aggregate_maintenance(&out.plan).into_iter();
        // Render what `execute_plan` runs: filters already sunk through
        // joins and into the scans. (EXPLAIN takes no `?` placeholders, so
        // every comparison it shows is against a literal, as it is once a
        // prepared statement is bound.)
        let plan = dt_plan::push_down_filters(&out.plan);
        let text = plan.explain_with(&mut |node| match node {
            LogicalPlan::Aggregate { .. } => notes.next(),
            _ => None,
        });
        Ok(ExecResult::Ok(format!("{text}({mode})")))
    }

    /// `SHOW DYNAMIC TABLES` as of the snapshot: one status row per DT.
    pub(crate) fn show_dynamic_tables(&self) -> DtResult<ExecResult> {
        let mut out = Vec::new();
        for &id in self.catalog.dynamic_tables() {
            let e = self.catalog.get(id)?;
            let meta = e.as_dt().expect("dynamic_tables returns DTs");
            let lag = match meta.target_lag {
                TargetLag::Duration(d) => d.to_string(),
                TargetLag::Downstream => "DOWNSTREAM".to_string(),
            };
            let mode = match meta.refresh_mode {
                RefreshMode::Full => "FULL",
                RefreshMode::Incremental => "INCREMENTAL",
            };
            let state = match meta.state {
                DtState::Initializing => "INITIALIZING",
                DtState::Active => "ACTIVE",
                DtState::Suspended => "SUSPENDED",
                DtState::SuspendedOnErrors => "SUSPENDED_ON_ERRORS",
            };
            let handle = self
                .tables
                .get(&id)
                .ok_or_else(|| DtError::Storage(format!("no storage for {id}")))?;
            let rows = match handle.version {
                Some(v) => handle.store.row_count_at(v)? as i64,
                None => 0,
            };
            out.push(Row::new(vec![
                Value::Str(e.name.clone()),
                Value::Str(lag),
                Value::Str(mode.into()),
                Value::Str(state.into()),
                Value::Str(meta.warehouse.clone()),
                Value::Int(rows),
                Value::Int(meta.error_count as i64),
            ]));
        }
        let schema = Arc::new(Schema::new(vec![
            Column::new("name", DataType::Str),
            Column::new("target_lag", DataType::Str),
            Column::new("refresh_mode", DataType::Str),
            Column::new("state", DataType::Str),
            Column::new("warehouse", DataType::Str),
            Column::new("rows", DataType::Int),
            Column::new("errors", DataType::Int),
        ]));
        Ok(ExecResult::Rows(QueryResult::new(schema, out)))
    }

    /// The isolation level guaranteed for a query (§4): PL-SI when it
    /// reads a single DT and nothing else; PL-2 (Read Committed) otherwise.
    pub fn query_isolation_level(&self, sql: &str) -> DtResult<dt_isolation::IsolationLevel> {
        let stmt = dt_sql::parse(sql)?;
        let scanned = self
            .bind_query(router::select(&stmt)?)?
            .plan
            .scanned_entities();
        let all_dts = scanned.iter().all(|e| self.catalog.is_dt(*e));
        Ok(if scanned.len() == 1 && all_dts {
            dt_isolation::IsolationLevel::Pl3
        } else {
            dt_isolation::IsolationLevel::Pl2
        })
    }
}

impl std::fmt::Debug for ReadSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadSnapshot")
            .field("read_ts", &self.read_ts)
            .field("tables", &self.tables.len())
            .field("ddl_generation", &self.ddl_generation())
            .finish()
    }
}

impl ReadSnapshot {
    /// Resolve `entity` to its pinned version, with the scan-path error
    /// taxonomy (unknown entity, uninitialized DT, no version at the
    /// pinned instant).
    fn pinned(&self, entity: EntityId) -> DtResult<PinnedVersion<'_>> {
        let handle = self
            .tables
            .get(&entity)
            .ok_or_else(|| DtError::Storage(format!("no storage for {entity}")))?;
        if handle.uninitialized {
            return Err(DtError::NotInitialized(format!(
                "dynamic table {entity} has not been initialized yet"
            )));
        }
        let version = handle.version.ok_or_else(|| {
            DtError::Storage(format!("no version of {entity} at {}", self.read_ts))
        })?;
        Ok(PinnedVersion {
            store: &handle.store,
            version,
            is_dt: handle.is_dt,
        })
    }
}

/// Scans resolve through the pinned handles: the store's internal lock is
/// held only long enough to clone the version's partition-handle list,
/// then rows stream out of immutable `Arc`'d partitions.
impl TableProvider for ReadSnapshot {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        self.pinned(entity)?.rows()
    }

    /// The columnar scan: batches slice the version's partitions zero-copy,
    /// the pushed-down filter prunes partitions via their zone maps before
    /// any column data is read, and partitions fan out over morsel workers
    /// when the snapshot's thread budget allows.
    fn scan_batches(
        &self,
        entity: EntityId,
        filter: Option<&PredicateSet>,
    ) -> DtResult<Vec<Batch>> {
        self.pinned(entity)?.batches(filter, self.scan_threads)
    }
}
