//! The engine state: catalog, storage, transactions, scheduler, and the
//! DDL the statement router hands to the install leader.
//!
//! [`EngineState`] is the core that the public [`crate::Engine`] wraps in
//! a reader/writer lock. It has one writer: the install leader (the
//! `install` module), which applies every commit, refresh and other change
//! — the DDL below included — under the write lock. Connections never
//! touch it directly — they go through [`crate::Session`], which carries
//! the per-connection role and passes it into every call that needs one.

use std::collections::HashMap;
use std::sync::Arc;

use dt_catalog::{Catalog, DtState, DynamicTableMeta, RefreshMode, TargetLagSpec};
use dt_common::{
    Column, DataType, DtError, DtResult, Duration, DurabilityMode, EntityId, Row, Schema,
    SimClock, Timestamp, TxnId,
};
use dt_ivm::OuterJoinStrategy;
use dt_plan::{BindOutput, Binder, LogicalPlan, ResolvedRelation, Resolver};
use dt_scheduler::{
    CostModel, RefreshAction, Scheduler, SchedulerConfig, TargetLag, WarehousePool,
};
use dt_sql::ast;
use dt_storage::TableStore;
use dt_txn::{Frontier, RefreshTsMap, TxnManager};

use crate::durability::{SideEffect, WalRecord, WalShared};
use crate::engine::Engine;
use crate::refresh::RefreshLog;

/// EngineState configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Micro-partition capacity for new tables.
    pub partition_capacity: usize,
    /// Outer-join differentiation strategy (§5.5.1 ablation).
    pub outer_join: OuterJoinStrategy,
    /// Re-check the DVS guarantee after every refresh (§6.1 level 4).
    pub validate_dvs: bool,
    /// Consecutive failures before automatic suspension (§3.3.3).
    pub error_suspend_threshold: u32,
    /// Refresh cost model.
    pub cost_model: CostModel,
    /// Durability: in-memory (default) or write-ahead logged to a
    /// directory. Durable engines must be opened with
    /// [`crate::Engine::open_with_config`].
    pub durability: DurabilityMode,
    /// Automatic checkpoint threshold: checkpoint after this many WAL
    /// payload bytes since the last one. Ignored when not durable.
    pub wal_checkpoint_bytes: u64,
    /// Bound on how long a committer parks on a pessimistic table's
    /// wait-queue before surfacing a typed conflict (timeout).
    pub lock_wait_timeout: std::time::Duration,
    /// Adaptive concurrency control: commit/abort outcomes per decision
    /// window (per table).
    pub adaptive_lock_window: u32,
    /// Abort fraction at or above which a completed window flips a table
    /// to pessimistic locking.
    pub adaptive_abort_threshold: f64,
    /// How long an adaptively flipped table stays pessimistic before the
    /// policy tries optimistic again.
    pub adaptive_lock_cooldown: std::time::Duration,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            partition_capacity: 4096,
            outer_join: OuterJoinStrategy::Direct,
            validate_dvs: false,
            error_suspend_threshold: 5,
            cost_model: CostModel::default(),
            durability: DurabilityMode::None,
            wal_checkpoint_bytes: 8 * 1024 * 1024,
            lock_wait_timeout: dt_txn::lock_manager::DEFAULT_WAIT_TIMEOUT,
            adaptive_lock_window: 32,
            adaptive_abort_threshold: 0.5,
            adaptive_lock_cooldown: std::time::Duration::from_secs(5),
        }
    }
}

/// The rows of a query along with their schema. Iterable without cloning:
/// `&result` yields `&Row`, consuming the result yields owned [`Row`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    schema: Arc<Schema>,
    rows: Vec<Row>,
}

impl QueryResult {
    /// Build from a schema and rows.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Self {
        QueryResult { schema, rows }
    }

    /// The output schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Borrow the rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over the rows by reference.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Consume the result, taking the row vector without cloning.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Consume the result, taking the rows sorted (deterministic
    /// comparisons in tests).
    pub fn into_sorted_rows(self) -> Vec<Row> {
        let mut rows = self.rows;
        rows.sort();
        rows
    }
}

impl IntoIterator for QueryResult {
    type Item = Row;
    type IntoIter = std::vec::IntoIter<Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl<'a> IntoIterator for &'a QueryResult {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// Result of executing a statement.
#[derive(Debug, Clone)]
pub enum ExecResult {
    /// Query rows with their schema.
    Rows(QueryResult),
    /// DDL/utility success message.
    Ok(String),
    /// DML row count.
    Count(usize),
}

impl ExecResult {
    /// The query result, or `None` for DDL/DML outcomes — the non-query
    /// case is an explicit, debug-visible distinction rather than a silent
    /// empty row set.
    pub fn try_rows(self) -> Option<QueryResult> {
        match self {
            ExecResult::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The rows of a query result; errors when the statement was not a
    /// query (DDL/DML).
    pub fn into_rows(self) -> DtResult<Vec<Row>> {
        match self {
            ExecResult::Rows(r) => Ok(r.into_rows()),
            other => Err(DtError::Unsupported(format!(
                "statement did not produce rows (result: {other:?})"
            ))),
        }
    }
}

/// The single-node engine core: catalog, storage, transaction manager,
/// scheduler, warehouses, and refresh log. Wrapped in a reader/writer lock
/// by [`crate::Engine`]; obtain one via [`crate::Engine::new`] and interact
/// through [`crate::Session`] handles or [`crate::Engine::inspect`].
pub struct EngineState {
    pub(crate) clock: SimClock,
    /// `Arc`'d so the [`crate::Engine`] handle reads `active_txns` with no
    /// engine lock (all methods take `&self`).
    pub(crate) txn: Arc<TxnManager>,
    pub(crate) catalog: Catalog,
    pub(crate) tables: HashMap<EntityId, Arc<TableStore>>,
    /// `Arc`'d so parallel refresh workers can resolve DT versions
    /// lock-free against a pinned handle (all methods take `&self`).
    pub(crate) refresh_map: Arc<RefreshTsMap>,
    pub(crate) frontiers: HashMap<EntityId, Frontier>,
    pub(crate) scheduler: Scheduler,
    pub(crate) warehouses: WarehousePool,
    pub(crate) config: DbConfig,
    /// DT → warehouse name.
    pub(crate) dt_warehouse: HashMap<EntityId, String>,
    /// Every refresh executed, for telemetry and the §6.3 statistics. The
    /// log is behind its own lock (see [`RefreshLog`]), so telemetry reads
    /// never hold the engine lock.
    pub(crate) refresh_log: RefreshLog,
    /// Refreshes issued by the simulation driver whose virtual end time
    /// has not been reached yet (carried across `run_scheduler_until`
    /// calls so long refreshes keep blocking their DT — the precondition
    /// for skip behaviour, §3.3.3).
    pub(crate) pending_completions: Vec<crate::simulate::PendingCompletion>,
    /// The WAL, when durable. `None` means a purely in-memory engine.
    pub(crate) wal: Option<Arc<WalShared>>,
}

/// Resolver over the live catalog (+ DT payload schemas from storage).
pub(crate) struct DbResolver<'a> {
    pub db: &'a EngineState,
}

impl Resolver for DbResolver<'_> {
    fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
        let e = self.db.catalog.resolve(name)?;
        crate::providers::resolved_relation(e, self.db.tables.get(&e.id).map(|s| &**s))
    }
}

impl EngineState {
    /// Create an empty database at the simulation epoch.
    pub fn new(config: DbConfig) -> Self {
        let clock = SimClock::new();
        let txn = Arc::new(TxnManager::new(Arc::new(clock.clone())));
        EngineState {
            clock,
            txn,
            catalog: Catalog::new(),
            tables: HashMap::new(),
            refresh_map: Arc::new(RefreshTsMap::new()),
            frontiers: HashMap::new(),
            scheduler: Scheduler::new(SchedulerConfig {
                phase: Duration::ZERO,
                error_suspend_threshold: config.error_suspend_threshold,
            }),
            warehouses: WarehousePool::new(),
            dt_warehouse: HashMap::new(),
            refresh_log: RefreshLog::default(),
            pending_completions: Vec::new(),
            wal: None,
            config,
        }
    }

    /// The simulated clock (advance it to let the scheduler act).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        use dt_common::Clock;
        self.clock.now()
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The transaction manager — per-table write locks, HLC, commit
    /// timestamps. Tests and harnesses use it to observe (or stage)
    /// lock/commit states; transactions go through
    /// [`crate::Session::begin`].
    pub fn txn_manager(&self) -> &TxnManager {
        &self.txn
    }

    /// The storage handle of a table, if it has storage (for telemetry
    /// and tests; queries go through snapshots).
    pub fn table_store(&self, id: EntityId) -> Option<&Arc<TableStore>> {
        self.tables.get(&id)
    }

    /// The scheduler (read-only, for telemetry).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The warehouse pool (read-only, for billing telemetry).
    pub fn warehouses(&self) -> &WarehousePool {
        &self.warehouses
    }

    /// The refresh log handle (every refresh executed so far).
    pub fn refresh_log(&self) -> &RefreshLog {
        &self.refresh_log
    }

    /// The DDL generation: bumped whenever the catalog's entity set (or a
    /// definition) changes — Suspend/Resume don't count, so scheduler-driven
    /// state flips never invalidate cached plans. Prepared statements record
    /// the generation they were bound at and rebind when it moves.
    pub fn ddl_generation(&self) -> u64 {
        self.catalog.ddl_log().binding_generation()
    }

    /// Grant a privilege on a named entity to a role (§3.4).
    pub(crate) fn grant(
        &mut self,
        role: &str,
        entity: &str,
        privilege: dt_catalog::Privilege,
        wal: &mut Vec<WalRecord>,
    ) -> DtResult<()> {
        self.catalog.grant_on(role, entity, privilege)?;
        self.push_catalog_record(SideEffect::None, wal);
        Ok(())
    }

    /// Create a virtual warehouse with `nodes` nodes and a 5-minute
    /// auto-suspend (§3.3.1).
    pub(crate) fn create_warehouse(
        &mut self,
        name: &str,
        nodes: u32,
        wal: &mut Vec<WalRecord>,
    ) -> DtResult<()> {
        self.warehouses.create(name, nodes, Duration::from_mins(5))?;
        self.push_catalog_record(SideEffect::None, wal);
        Ok(())
    }

    pub(crate) fn is_dt(&self, id: EntityId) -> bool {
        self.catalog
            .get(id)
            .map(|e| e.as_dt().is_some())
            .unwrap_or(false)
    }

    /// Bind a query against the live catalog.
    pub(crate) fn bind_query(&self, q: &ast::Query) -> DtResult<BindOutput> {
        Binder::new(&DbResolver { db: self }).bind_query(q)
    }

    /// Execute one DDL statement as `role`, pushing its WAL records onto
    /// `wal`, in the install leader (`Engine::mutate`). The statement router
    /// refuses `?` placeholders in DDL and runs every other statement kind
    /// elsewhere.
    pub(crate) fn execute_ddl(
        &mut self,
        stmt: ast::Statement,
        sql: &str,
        role: &str,
        wal: &mut Vec<WalRecord>,
    ) -> DtResult<ExecResult> {
        match stmt {
            ast::Statement::CreateTable {
                name,
                columns,
                or_replace,
            } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| Column::new(n, t))
                        .collect(),
                );
                let now = self.now();
                let id = self
                    .catalog
                    .create_table(&name, schema.clone(), now, role, or_replace)?;
                self.create_store(id, schema, wal);
                Ok(ExecResult::Ok(format!("table {name} created")))
            }
            ast::Statement::CreateView {
                name,
                query,
                or_replace,
            } => {
                // Validate the view body binds before installing it.
                self.bind_query(&query)?;
                let now = self.now();
                let body = extract_defining_query(sql)?;
                self.catalog.create_view(&name, &body, now, role, or_replace)?;
                self.push_catalog_record(SideEffect::None, wal);
                Ok(ExecResult::Ok(format!("view {name} created")))
            }
            ast::Statement::Clone { name, source } => self.clone_entity(&name, &source, role, wal),
            ast::Statement::Drop { name } => {
                let now = self.now();
                let id = self.catalog.drop_entity(&name, now)?;
                self.scheduler.unregister(id);
                self.txn.locks().forget_table(id);
                self.push_catalog_record(SideEffect::None, wal);
                Ok(ExecResult::Ok(format!("{name} dropped")))
            }
            ast::Statement::Undrop { name } => {
                let now = self.now();
                let id = self.catalog.undrop(&name, now)?;
                // A recovered DT resumes scheduling from where it left off
                // (§3.4).
                if let Some(meta) = self.catalog.get(id)?.as_dt() {
                    let target = match meta.target_lag {
                        TargetLagSpec::Duration(d) => TargetLag::Duration(d),
                        TargetLagSpec::Downstream => TargetLag::Downstream,
                    };
                    let upstream = meta.upstream.clone();
                    self.scheduler.register(id, target, upstream);
                    if let Some(ts) = self.refresh_map.latest_refresh(id) {
                        self.scheduler.mark_initialized(id, ts)?;
                    }
                }
                self.push_catalog_record(SideEffect::None, wal);
                Ok(ExecResult::Ok(format!("{name} undropped")))
            }
            ast::Statement::AlterTableLocking { name, policy } => {
                // Resolve to a *base table*: DTs are written only by their
                // refreshes (which must stay non-blocking under the engine
                // write lock), and views have no storage to lock.
                let (id, _) = base_table(self.catalog.resolve(&name)?, &name)?;
                let policy = match policy {
                    ast::LockingPolicyOption::Optimistic => dt_txn::LockPolicy::Optimistic,
                    ast::LockingPolicyOption::Pessimistic => dt_txn::LockPolicy::Pessimistic,
                    ast::LockingPolicyOption::Auto => dt_txn::LockPolicy::Auto,
                };
                // A runtime concurrency knob, not durable catalog state:
                // deliberately not WAL-logged (a recovered engine starts
                // back at AUTO, like a restarted server).
                self.txn.locks().set_policy(id, policy);
                Ok(ExecResult::Ok(format!(
                    "{name} locking set to {}",
                    policy.as_str()
                )))
            }
            ast::Statement::AlterDynamicTable { name, action }
                if action != ast::AlterDtAction::Refresh =>
            {
                let id = self.catalog.resolve(&name)?.id;
                let now = self.now();
                let (state, done) = if action == ast::AlterDtAction::Suspend {
                    (DtState::Suspended, "suspended")
                } else {
                    // Never initialized (its initialization failed until it
                    // was suspended): it waits for one again.
                    let data = self.scheduler.state(id).and_then(|s| s.last_data_ts);
                    let state = data.map_or(DtState::Initializing, |_| DtState::Active);
                    (state, "resumed")
                };
                self.catalog.set_dt_state(id, state, now)?;
                self.scheduler
                    .set_suspended(id, state == DtState::Suspended)?;
                self.push_catalog_record(SideEffect::None, wal);
                Ok(ExecResult::Ok(format!("{name} {done}")))
            }
            // The router runs every other statement elsewhere.
            other => Err(DtError::internal(format!(
                "not a catalog change: {other:?}"
            ))),
        }
    }

    /// Zero-copy clone of a table or DT (§3.4): metadata is copied, every
    /// micro-partition is shared. A cloned DT keeps its source's data
    /// timestamp and contents, so it avoids reinitialization and is
    /// immediately queryable.
    fn clone_entity(
        &mut self,
        name: &str,
        source: &str,
        role: &str,
        wal: &mut Vec<WalRecord>,
    ) -> DtResult<ExecResult> {
        let src = self.catalog.resolve(source)?.clone();
        let now = self.now();
        match &src.kind {
            dt_catalog::EntityKind::Table { schema } => {
                let id = self
                    .catalog
                    .create_table(name, schema.clone(), now, role, false)?;
                let fork = self.tables[&src.id].fork();
                self.tables.insert(id, Arc::new(fork));
                let cloned = SideEffect::CloneStore { source: src.id, target: id };
                self.push_catalog_record(cloned, wal);
                Ok(ExecResult::Ok(format!("table {name} cloned from {source}")))
            }
            dt_catalog::EntityKind::View { .. } => Err(DtError::Unsupported(
                "CLONE of views is not supported; recreate the view".into(),
            )),
            dt_catalog::EntityKind::DynamicTable(meta) => {
                let mut meta = (**meta).clone();
                meta.error_count = 0;
                let target = match meta.target_lag {
                    TargetLagSpec::Duration(d) => TargetLag::Duration(d),
                    TargetLagSpec::Downstream => TargetLag::Downstream,
                };
                let upstream = meta.upstream.clone();
                let warehouse = meta.warehouse.clone();
                let id = self
                    .catalog
                    .create_dynamic_table(name, meta, now, role, false)?;
                let fork = self.tables[&src.id].fork();
                self.tables.insert(id, Arc::new(fork));
                self.dt_warehouse.insert(id, warehouse);
                self.scheduler.register(id, target, upstream);
                // Carry over the source's progress: frontier, refresh-ts
                // mapping for its current data timestamp, Active state.
                let mut carried = None;
                if let Some(frontier) = self.frontiers.get(&src.id).cloned() {
                    let ts = frontier.refresh_ts;
                    let version = self.tables[&id].latest_version();
                    let commit_ts = self.txn.hlc().tick();
                    self.refresh_map.record(id, ts, version, commit_ts);
                    self.frontiers.insert(id, frontier.clone());
                    self.scheduler.mark_initialized(id, ts)?;
                    self.catalog.set_dt_state(id, DtState::Active, now)?;
                    carried = Some((ts, version, commit_ts, frontier));
                }
                // The clone's catalog record, then the carried-over
                // refresh-map/frontier entry.
                let cloned = SideEffect::CloneStore { source: src.id, target: id };
                self.push_catalog_record(cloned, wal);
                let carried = carried.filter(|_| self.wal_enabled());
                if let Some((ts, version, commit_ts, frontier)) = carried {
                    wal.push(WalRecord::Refresh {
                        dt: id,
                        txn: TxnId(0),
                        refresh_ts: ts,
                        commit_ts,
                        install: None,
                        version,
                        frontier: frontier.iter().collect(),
                        catalog: Vec::new(),
                    });
                }
                Ok(ExecResult::Ok(format!(
                    "dynamic table {name} cloned from {source} (no reinitialization)"
                )))
            }
        }
    }

    /// The bound logical plan of a DT's stored definition (used by the
    /// operator-census harness, Figure 6).
    pub fn dt_plan(&self, name: &str) -> DtResult<LogicalPlan> {
        let e = self.catalog.resolve(name)?;
        let meta = e
            .as_dt()
            .ok_or_else(|| DtError::Unsupported(format!("'{name}' is not a dynamic table")))?;
        Ok(self.bind_definition(meta)?.plan)
    }

    /// Bind a DT's stored defining query against the live catalog.
    pub(crate) fn bind_definition(&self, meta: &DynamicTableMeta) -> DtResult<BindOutput> {
        match dt_sql::parse(&meta.definition_sql)? {
            ast::Statement::Query(q) => self.bind_query(&q),
            _ => Err(DtError::internal("DT definition is not a query")),
        }
    }

    // ------------------------------------------------------------------
    // Dynamic tables
    // ------------------------------------------------------------------

    /// The catalog part of `CREATE DYNAMIC TABLE`, run by the install
    /// leader: the DT, its store and its schedule, left `Initializing`. A
    /// session initializes it afterwards (`INITIALIZE = ON_SCHEDULE`: the
    /// scheduler).
    pub(crate) fn create_dynamic_table(
        &mut self,
        original_sql: &str,
        cdt: ast::CreateDynamicTable,
        role: &str,
        wal: &mut Vec<WalRecord>,
    ) -> DtResult<EntityId> {
        // The warehouse must exist (§3.3.1).
        self.warehouses.get(&cdt.warehouse)?;
        let out = self.bind_query(&cdt.query)?;
        let differentiable = out.plan.is_differentiable();
        let refresh_mode = match cdt.refresh_mode {
            ast::RefreshModeOption::Auto => {
                if differentiable {
                    RefreshMode::Incremental
                } else {
                    RefreshMode::Full
                }
            }
            ast::RefreshModeOption::Full => RefreshMode::Full,
            ast::RefreshModeOption::Incremental => {
                if !differentiable {
                    return Err(DtError::Unsupported(
                        "query is not incrementally maintainable (contains \
                         ORDER BY/LIMIT, scalar aggregates, or unpartitioned \
                         window functions); use REFRESH_MODE = FULL"
                            .into(),
                    ));
                }
                RefreshMode::Incremental
            }
        };
        let upstream = out.plan.scanned_entities();
        let target_lag = match cdt.target_lag {
            ast::TargetLag::Duration(d) => TargetLagSpec::Duration(d),
            ast::TargetLag::Downstream => TargetLagSpec::Downstream,
        };
        // Extract the defining query text: everything after the AS keyword.
        let definition_sql = extract_defining_query(original_sql)?;
        let meta = DynamicTableMeta {
            target_lag,
            warehouse: cdt.warehouse.to_ascii_lowercase(),
            refresh_mode,
            definition_sql,
            upstream: upstream.clone(),
            used_columns: out.used_columns.into_iter().collect(),
            state: DtState::Initializing,
            error_count: 0,
            definition_fingerprint: 0, // set by the catalog
        };
        let now = self.now();
        let id = self
            .catalog
            .create_dynamic_table(&cdt.name, meta, now, role, cdt.or_replace)?;
        // Stored schema: $ROW_ID then the payload columns.
        let mut cols = vec![Column::new("$row_id", DataType::Str)];
        cols.extend(out.plan.schema().columns().iter().cloned());
        self.dt_warehouse
            .insert(id, cdt.warehouse.to_ascii_lowercase());
        let sched_lag = match cdt.target_lag {
            ast::TargetLag::Duration(d) => TargetLag::Duration(d),
            ast::TargetLag::Downstream => TargetLag::Downstream,
        };
        self.scheduler.register(id, sched_lag, upstream);
        // Logged *before* the initial refresh so replay creates the DT's
        // store before it replays that refresh's install.
        self.create_store(id, Schema::new(cols), wal);
        Ok(id)
    }

    /// An empty store for the new entity `id`, and the catalog record that
    /// creates it on replay.
    fn create_store(&mut self, id: EntityId, schema: Schema, wal: &mut Vec<WalRecord>) {
        let (partition_capacity, created_ts) = (self.config.partition_capacity, self.now());
        let store =
            TableStore::with_partition_capacity(schema.clone(), created_ts, TxnId(0), partition_capacity);
        self.tables.insert(id, Arc::new(store));
        let created = SideEffect::CreateStore { entity: id, schema, partition_capacity, created_ts };
        self.push_catalog_record(created, wal);
    }
}

impl Engine {
    /// Initialize a DT (§3.1.2): pick an initialization data timestamp that
    /// reuses recent upstream data where possible, ensure the upstream
    /// chain has data at that timestamp, then run the initial refresh,
    /// whose install marks the DT initialized and `Active`.
    pub(crate) fn initialize_dt(&self, id: EntityId) -> DtResult<()> {
        let mut attempt = 0;
        loop {
            let ts = {
                let st = self.state.read();
                // Dropped, suspended, or initialized by a concurrent caller.
                let dt = st.catalog.get(id).ok().filter(|e| e.is_live());
                if dt.and_then(|e| e.as_dt()).map(|m| m.state) != Some(DtState::Initializing) {
                    return Ok(());
                }
                // Take "now" from the HLC: strictly after every commit so
                // far, so the initialization sees all committed data.
                let now = st.txn.hlc().tick();
                let chosen = st.scheduler.choose_init_ts(id, now);
                // If any upstream DT is already ahead of the chosen
                // timestamp, we cannot rewind it; fall forward to now.
                let data_ts = |up| st.scheduler.state(up).and_then(|s| s.last_data_ts);
                let ahead = |up| st.is_dt(up) && data_ts(up) > Some(chosen);
                if st.catalog.upstream_of(id).into_iter().any(ahead) { now } else { chosen }
            };
            let outcome = match self.ensure_upstream_at(id, ts).and_then(|()| self.refresh(id, ts, true)) {
                // A concurrent refresh holds a DT of the chain or moved it past
                // `ts`: back off (1 ms, doubling, ~1 s in all), choose again.
                Err(DtError::Conflict(_)) if attempt < 10 => {
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                    attempt += 1;
                    continue;
                }
                run => run?,
            };
            if let RefreshAction::Failed(msg) = outcome.action {
                return Err(DtError::Evaluation(format!("initialization failed: {msg}")));
            }
            return Ok(());
        }
    }

    /// Ensure every upstream DT of `id` has data at exactly `ts`,
    /// refreshing the chain in dependency order where needed.
    fn ensure_upstream_at(&self, id: EntityId, ts: Timestamp) -> DtResult<()> {
        for up in self.inspect(|st| st.catalog.upstream_of(id)) {
            if self.inspect(|st| !st.is_dt(up) || st.refresh_map.exact_version_for(up, ts).is_ok()) {
                continue;
            }
            self.ensure_upstream_at(up, ts)?;
            if let RefreshAction::Failed(msg) = self.refresh(up, ts, false)?.action {
                return Err(DtError::Evaluation(format!(
                    "upstream refresh of {up} failed: {msg}"
                )));
            }
            self.mutate(move |st, _| st.scheduler.mark_initialized(up, ts))?;
        }
        Ok(())
    }

    /// Manual refresh (§3.2): data timestamp after the command was issued;
    /// refreshes the whole upstream chain. Returns the number of refreshes
    /// executed. The clock advances by each refresh's duration (the command
    /// blocks). The install leader plans it and, after each install,
    /// charges the warehouse and reports — nothing holds the engine lock
    /// across a compute.
    pub(crate) fn manual_refresh(&self, name: &str, role: &str) -> DtResult<usize> {
        let (name, role) = (name.to_string(), role.to_string());
        let plan = self.mutate(move |st, _| {
            let e = st.catalog.resolve(&name)?;
            let not_dt = || DtError::Unsupported(format!("'{name}' is not a dynamic table"));
            let id = e.as_dt().map(|_| e.id).ok_or_else(not_dt)?;
            // OPERATE or OWNERSHIP required (§3.4), checked against the
            // *session* role the command arrived on.
            st.catalog
                .check_privilege(&role, &name, dt_catalog::Privilege::Operate)?;
            // §3.2: a data timestamp after the command was issued (the HLC
            // guarantees it is after every prior commit).
            let now = st.txn.hlc().tick();
            Ok(st.scheduler.manual_refresh_plan(id, now))
        })?;
        let mut reported = 0;
        let run = plan.iter().try_for_each(|cmd| {
            let outcome = self.refresh(cmd.dt, cmd.refresh_ts, false)?;
            let (dt, refresh_ts) = (cmd.dt, cmd.refresh_ts);
            self.mutate(move |st, wal| {
                let duration = st.charge(dt, st.now(), outcome.work_units)?;
                st.clock.advance(duration);
                let ended = st.now();
                st.report_refresh(dt, refresh_ts, &outcome, ended, wal)
            })?;
            reported += 1;
            Ok(())
        });
        // An issued refresh that did not run must not stay in flight.
        if let Err(e) = run {
            self.abandon(&plan[reported..]);
            return Err(e);
        }
        Ok(plan.len())
    }
}

/// `e`, resolved from `name`, as a base table: its id and schema. Views and
/// DTs are refused.
pub(crate) fn base_table(e: &dt_catalog::Entity, name: &str) -> DtResult<(EntityId, Schema)> {
    match &e.kind {
        dt_catalog::EntityKind::Table { schema } => Ok((e.id, schema.clone())),
        _ => Err(DtError::Unsupported(format!(
            "DML targets must be base tables; '{name}' is a {}",
            e.kind.label()
        ))),
    }
}

/// Extract the defining query text (everything after the first top-level
/// ` AS `) from a CREATE DYNAMIC TABLE or CREATE VIEW statement.
fn extract_defining_query(sql: &str) -> DtResult<String> {
    let lower = sql.to_ascii_lowercase();
    let mut idx = None;
    let bytes = lower.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    while i + 4 <= bytes.len() {
        match bytes[i] {
            b'\'' => in_str = !in_str,
            b'a' if !in_str
                && lower[i..].starts_with("as")
                && (i == 0 || (bytes[i - 1] as char).is_ascii_whitespace())
                && lower[i + 2..]
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_whitespace())
                    .unwrap_or(false) =>
            {
                idx = Some(i + 2);
                break;
            }
            _ => {}
        }
        i += 1;
    }
    let idx = idx.ok_or_else(|| DtError::internal("CREATE DYNAMIC TABLE without AS"))?;
    Ok(sql[idx..].trim().trim_end_matches(';').to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_defining_query_finds_top_level_as() {
        let sql = "CREATE DYNAMIC TABLE t TARGET_LAG = '1 minute' WAREHOUSE = wh \
                   AS SELECT a AS b FROM x;";
        assert_eq!(extract_defining_query(sql).unwrap(), "SELECT a AS b FROM x");
    }

    #[test]
    fn extract_skips_as_inside_strings() {
        let sql = "CREATE DYNAMIC TABLE t TARGET_LAG = ' as ' WAREHOUSE = wh AS SELECT 1 x";
        assert_eq!(extract_defining_query(sql).unwrap(), "SELECT 1 x");
    }
}
