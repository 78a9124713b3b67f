//! The public API: a shared [`Engine`] and per-connection [`Session`]s.
//!
//! The paper's system serves many concurrent sessions against one catalog:
//! queries read consistent snapshots while refreshes land in the
//! background. This module mirrors that split:
//!
//! - [`Engine`] owns the catalog, storage, transaction manager, scheduler,
//!   warehouses, and refresh log behind a reader/writer lock, and reads
//!   the wall clock unless built with [`Engine::simulated`]. It is cheaply
//!   cloneable (an `Arc` inside) and `Send + Sync`, so any number of
//!   threads can hold handles to one engine.
//! - [`Session`] is a per-connection handle created by
//!   [`Engine::session`]. It carries connection-local state — the current
//!   role, session variables, and a prepared-statement cache — and takes
//!   `&self` everywhere, so sessions can be shared or sent across threads
//!   freely.
//! - [`Statement`] is a prepared statement: lexed, parsed, and (for
//!   queries) bound once, then executed any number of times with different
//!   positional `?` parameter bindings.
//!
//! Every SQL entry point parses, then hands the statement and the surface
//! it arrived on (session, [`Transaction`], [`ReadSnapshot`]) to the one
//! statement router, which alone decides what a surface runs, the `?` rule
//! and the `FOR UPDATE` rule; a `query` refuses, before it runs, a
//! statement that answers with no rows.
//!
//! Read statements (`SELECT`, `EXPLAIN`, `SHOW DYNAMIC TABLES`, prepared
//! queries, time travel) take the engine's read lock only long enough to
//! capture a [`ReadSnapshot`] — an `Arc`'d catalog view plus per-table
//! pinned versions — then release it and bind, plan, and execute entirely
//! against the snapshot. Readers therefore never wait behind an in-flight
//! refresh. DML commits through [`Transaction`] (auto-commit is the
//! one-statement kind); a refresh computes with no engine lock held; and
//! every change to the engine state — a commit's or a refresh's install,
//! DDL, a grant, a warehouse, the scheduler's bookkeeping — is made by
//! the one writer, the install leader of the `install` module, which
//! takes the write lock briefly per batch.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dt_common::{Clock, DtError, DtResult, DurabilityMode, Row, Timestamp, Value};
use dt_plan::LogicalPlan;
use dt_sql::ast;

use crate::install::InstallShared;
use crate::refresh::RefreshLog;
use crate::router::{self, Surface};
use crate::simulate::Simulation;
use crate::snapshot::ReadSnapshot;
use crate::state::{DbConfig, EngineState, ExecResult, QueryResult};
use crate::transaction::Transaction;

/// The role sessions run as unless [`Engine::session_as`] says otherwise.
pub const DEFAULT_ROLE: &str = "sysadmin";

/// Commit-pipeline telemetry: how transaction commits have used the
/// install pipeline and the engine write lock so far. Captured with
/// [`Engine::commit_stats`].
///
/// The load-bearing relation is `install_lock_acquisitions` vs `commits`:
/// N concurrent committers can complete under *fewer* than N
/// engine-write-lock acquisitions, because one leader installs a whole
/// batch per acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitStats {
    /// Transactions committed through the optimistic install path
    /// (grouped and unbatched alike; excludes read-only commits, which
    /// install nothing).
    pub commits: u64,
    /// Transaction commits lost to a serialization conflict: refused at
    /// admission (the table's lock is held, a deadlock, a lock-wait
    /// timeout), refused in the row work (a pessimistic waiter whose
    /// table moved under a write set with deletes), or failed at install
    /// validation (version moved, table dropped).
    pub conflicts: u64,
    /// Times the install path acquired the engine write lock for a batch
    /// holding at least one commit — one per commit on the unbatched path.
    pub install_lock_acquisitions: u64,
    /// Most commits installed under one acquisition.
    pub max_batch: u64,
    /// Commits that went through the install queue.
    pub group_submitted: u64,
}

/// The connection counters of the network server serving an engine. They
/// live on the [`Engine`] handle so that [`Engine::stats`] lists them with
/// every other counter; the server increments them, and they stay 0 while
/// no server serves the engine. Servers sharing one engine share them,
/// admission limit included.
#[derive(Debug, Default)]
pub struct ConnectionCounters {
    /// Connections currently admitted: the server's admission count,
    /// claimed against its connection limit.
    pub active: AtomicUsize,
    /// Connections admitted since the engine opened.
    pub total: AtomicU64,
    /// Connections turned away at the connection limit.
    pub rejected: AtomicU64,
    /// Requests served across all connections.
    pub requests_served: AtomicU64,
}

/// [`ConnectionCounters`] read at one instant, with [`Engine::connection_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnectionStats {
    /// Connections currently admitted.
    pub active_connections: u64,
    /// Connections admitted so far.
    pub total_connections: u64,
    /// Connections turned away at the connection limit.
    pub rejected_connections: u64,
    /// Requests served across all connections.
    pub requests_served: u64,
}

/// A shared handle to one engine. Clones are cheap and refer to the same
/// underlying state; the handle is `Send + Sync`.
#[derive(Clone)]
pub struct Engine {
    pub(crate) state: Arc<RwLock<EngineState>>,
    /// The engine's clock, shared with the state, so reading the time
    /// needs no engine lock.
    clock: Arc<dyn Clock>,
    /// The refresh log, shared with the state (it has its own lock, so
    /// telemetry reads need no engine lock).
    refresh_log: RefreshLog,
    /// The install queue + pipeline telemetry (own synchronization; lives
    /// outside the engine lock so submitters enqueue lock-free).
    pub(crate) installs: Arc<InstallShared>,
    /// The durable half, shared with the state, so WAL telemetry needs no
    /// engine lock. `None` for an in-memory engine.
    wal: Option<Arc<crate::durability::WalShared>>,
    /// The admission lock table, shared with the state's `TxnManager`.
    /// Held directly on the handle so committers can acquire (and park on
    /// pessimistic wait-queues) **without any engine lock**: the current
    /// lock holder needs the engine write lock to install and release, so
    /// a waiter holding even the read lock would deadlock the pipeline.
    pub(crate) locks: Arc<dt_txn::LockManager>,
    /// The adaptive per-table concurrency-control policy, fed by commit
    /// outcomes and steering `locks` (no engine lock either).
    pub(crate) locking: Arc<crate::locking::AdaptivePolicy>,
    /// The transaction manager, shared with the state, so `active_txns`
    /// and a transaction's bookkeeping (abort, a read-only commit) need no
    /// engine lock.
    pub(crate) txns: Arc<dt_txn::TxnManager>,
    /// Kept by the server that serves this engine, if any.
    connections: Arc<ConnectionCounters>,
}

impl Engine {
    /// Create an empty in-memory engine on the wall clock.
    pub fn new(config: DbConfig) -> Self {
        Engine::from_state(EngineState::new(config, None))
    }

    /// Open (or create) a **durable** engine at `dir`: load the latest
    /// checkpoint, replay the WAL tail (a torn final record is truncated),
    /// and leave the WAL open so every subsequent commit, refresh, and DDL
    /// is logged and fsynced before it is acknowledged.
    pub fn open(dir: impl AsRef<std::path::Path>) -> DtResult<Engine> {
        Engine::open_with_config(DbConfig {
            durability: DurabilityMode::wal(dir.as_ref()),
            ..DbConfig::default()
        })
    }

    /// [`Engine::open`] with an explicit configuration. The configuration's
    /// [`DbConfig::durability`] selects the mode: `None` behaves exactly
    /// like [`Engine::new`], `Wal { dir }` recovers from and logs to `dir`.
    pub fn open_with_config(config: DbConfig) -> DtResult<Engine> {
        Engine::build(config, None)
    }

    /// [`Engine::open_with_config`] running a simulation (see
    /// [`crate::simulate`]): `sim.clock` instead of the wall clock.
    pub fn simulated(config: DbConfig, sim: Simulation) -> DtResult<Engine> {
        Engine::build(config, Some(sim))
    }

    fn build(config: DbConfig, sim: Option<Simulation>) -> DtResult<Engine> {
        let state = match config.durability.clone() {
            DurabilityMode::None => EngineState::new(config, sim),
            DurabilityMode::Wal { dir } => crate::durability::open_durable(config, sim, &dir)?,
        };
        Ok(Engine::from_state(state))
    }

    fn from_state(state: EngineState) -> Engine {
        let clock = Arc::clone(&state.clock);
        let refresh_log = state.refresh_log().clone();
        let wal = state.wal.clone();
        let installs = Arc::new(InstallShared::new(wal.is_some()));
        let txns = Arc::clone(&state.txn);
        let locks = Arc::clone(txns.locks());
        locks.set_wait_timeout(state.config.lock_wait_timeout);
        let locking = Arc::new(crate::locking::AdaptivePolicy::new(
            Arc::clone(&locks),
            crate::locking::AdaptiveConfig {
                window: state.config.adaptive_lock_window,
                abort_threshold: state.config.adaptive_abort_threshold,
                cooldown: state.config.adaptive_lock_cooldown,
            },
        ));
        Engine {
            state: Arc::new(RwLock::new(state)),
            clock,
            refresh_log,
            installs,
            wal,
            locks,
            locking,
            txns,
            connections: Arc::default(),
        }
    }

    /// Force a checkpoint now: snapshot the whole engine image, then
    /// truncate the WAL behind it. Returns `false` (and does nothing) for
    /// an in-memory engine.
    pub fn checkpoint(&self) -> DtResult<bool> {
        self.state.write().write_checkpoint()
    }

    /// WAL telemetry (appends, batches, fsyncs, bytes, checkpoints,
    /// records replayed at recovery). All zeros for an in-memory engine.
    /// No engine lock is taken.
    pub fn wal_stats(&self) -> dt_wal::WalStatsSnapshot {
        self.wal.as_ref().map(|w| w.stats()).unwrap_or_default()
    }

    /// Commit-pipeline telemetry: commits, conflict aborts, and — the
    /// group-commit effect — how many engine-write-lock acquisitions those
    /// installs cost. No engine lock is taken.
    pub fn commit_stats(&self) -> CommitStats {
        let shared = &self.installs;
        CommitStats {
            commits: shared.commits.load(Ordering::Relaxed),
            conflicts: shared.conflicts.load(Ordering::Relaxed),
            install_lock_acquisitions: shared.commit.lock_acquisitions.load(Ordering::Relaxed),
            max_batch: shared.commit.max_batch.load(Ordering::Relaxed),
            group_submitted: shared.commit.submitted.load(Ordering::Relaxed),
        }
    }

    /// Admission-lock telemetry: wait episodes and parked time, timeouts,
    /// deadlock victims, tables currently pessimistic, and adaptive mode
    /// flips. No engine lock is taken.
    pub fn lock_stats(&self) -> dt_txn::LockStats {
        self.locks.stats()
    }

    /// The connection counters, for the server that serves this engine to
    /// keep.
    pub fn connections(&self) -> &ConnectionCounters {
        &self.connections
    }

    /// Connection telemetry: all zeros while no server serves this engine.
    /// No engine lock is taken.
    pub fn connection_stats(&self) -> ConnectionStats {
        let c = &self.connections;
        ConnectionStats {
            active_connections: c.active.load(Ordering::Relaxed) as u64,
            total_connections: c.total.load(Ordering::Relaxed),
            rejected_connections: c.rejected.load(Ordering::Relaxed),
            requests_served: c.requests_served.load(Ordering::Relaxed),
        }
    }

    /// Every telemetry counter, as `(name, value)` pairs in a fixed order:
    /// the one list `SHOW STATS` (on every session, statement, transaction
    /// and wire path) and the wire `Stats` request return. No engine lock
    /// is taken, so it answers while a refresh round holds the write lock.
    ///
    /// | name | what it counts |
    /// |---|---|
    /// | `active_connections` | connections a server has admitted and not yet closed |
    /// | `total_connections` | connections a server has admitted |
    /// | `rejected_connections` | connections turned away at the server's connection limit |
    /// | `requests_served` | wire requests served across all connections |
    /// | `active_txns` | transactions open in the transaction manager |
    /// | `commits` | transactions committed through the install pipeline (read-only commits excluded) |
    /// | `conflicts` | commits lost to a serialization conflict: at admission, in the row work or at install validation |
    /// | `install_lock_acquisitions` | engine-write-lock acquisitions that installed at least one commit |
    /// | `max_batch` | most commits installed under one acquisition |
    /// | `group_submitted` | commits that went through the install queue |
    /// | `zone_map_pruned` | partitions skipped by zone-map pruning, in every engine of the process |
    /// | `refreshes` | refreshes recorded in the refresh log |
    /// | `refresh_batches` | engine-write-lock acquisitions that installed at least one refresh |
    /// | `refresh_max_batch` | most refreshes installed under one acquisition |
    /// | `refresh_group_submitted` | refreshes that went through the install queue |
    /// | `parallel_refresh_rounds` | parallel refresh rounds run |
    /// | `refresh_workers` | worker-pool size of a parallel refresh round |
    /// | `wal_appends` | WAL records appended (0 in memory) |
    /// | `wal_batches` | WAL batches appended |
    /// | `wal_fsyncs` | WAL fsync calls |
    /// | `wal_bytes` | WAL payload bytes appended |
    /// | `checkpoints` | checkpoints installed |
    /// | `recovery_replayed` | WAL records replayed by the last recovery |
    /// | `lock_waits` | times a transaction parked on a pessimistic table lock |
    /// | `lock_wait_time_us` | microseconds spent parked on table locks |
    /// | `lock_timeouts` | lock waits that gave up at the wait timeout |
    /// | `deadlocks` | deadlock victims aborted |
    /// | `tables_pessimistic` | tables currently in pessimistic locking mode |
    /// | `adaptive_flips` | adaptive optimistic/pessimistic mode flips |
    pub fn stats(&self) -> Vec<(&'static str, u64)> {
        let n = self.connection_stats();
        let c = self.commit_stats();
        let r = self.refresh_stats();
        let w = self.wal_stats();
        let l = self.lock_stats();
        vec![
            ("active_connections", n.active_connections),
            ("total_connections", n.total_connections),
            ("rejected_connections", n.rejected_connections),
            ("requests_served", n.requests_served),
            ("active_txns", self.txns.active_txns() as u64),
            ("commits", c.commits),
            ("conflicts", c.conflicts),
            ("install_lock_acquisitions", c.install_lock_acquisitions),
            ("max_batch", c.max_batch),
            ("group_submitted", c.group_submitted),
            ("zone_map_pruned", dt_storage::zone_map_pruned_total()),
            ("refreshes", r.refreshes),
            ("refresh_batches", r.install_lock_acquisitions),
            ("refresh_max_batch", r.max_batch),
            ("refresh_group_submitted", r.group_submitted),
            ("parallel_refresh_rounds", r.parallel_rounds),
            ("refresh_workers", r.workers),
            ("wal_appends", w.appends),
            ("wal_batches", w.batches),
            ("wal_fsyncs", w.fsyncs),
            ("wal_bytes", w.bytes),
            ("checkpoints", w.checkpoints),
            ("recovery_replayed", w.recovery_replayed),
            ("lock_waits", l.waits),
            ("lock_wait_time_us", l.wait_time_us),
            ("lock_timeouts", l.timeouts),
            ("deadlocks", l.deadlocks),
            ("tables_pessimistic", l.tables_pessimistic),
            ("adaptive_flips", l.adaptive_flips),
        ]
    }

    /// The `SHOW STATS` result: [`Engine::stats`] as `name`/`value` rows.
    pub fn show_stats(&self) -> QueryResult {
        use dt_common::{Column, DataType, Schema};
        let schema = Arc::new(Schema::new(vec![
            Column::new("name", DataType::Str),
            Column::new("value", DataType::Int),
        ]));
        let rows = self
            .stats()
            .into_iter()
            .map(|(name, v)| Row::new(vec![Value::Str(name.into()), Value::Int(v as i64)]))
            .collect();
        QueryResult::new(schema, rows)
    }

    /// Open a session running as the default role (`sysadmin`).
    pub fn session(&self) -> Session {
        self.session_as(DEFAULT_ROLE)
    }

    /// Open a session running as `role`.
    pub fn session_as(&self, role: &str) -> Session {
        Session {
            engine: self.clone(),
            inner: Arc::new(SessionInner {
                role: Mutex::new(role.to_string()),
                variables: Mutex::new(BTreeMap::new()),
                statements: Mutex::new(HashMap::new()),
                txn: Mutex::new(None),
                prelock: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Run a closure over the engine state under the read lock — the
    /// escape hatch for telemetry and introspection (catalog, scheduler,
    /// warehouses) without cloning.
    pub fn inspect<R>(&self, f: impl FnOnce(&EngineState) -> R) -> R {
        f(&self.state.read())
    }

    /// Run a closure over the engine state under the **write** lock — the
    /// mutable counterpart of [`Engine::inspect`], for maintenance tasks
    /// and tests that need exclusive access (e.g. holding the lock while
    /// asserting readers stay unblocked). No refresh can run inside it:
    /// its pin takes the read lock and its install the queue leader's
    /// write lock.
    pub fn inspect_mut<R>(&self, f: impl FnOnce(&mut EngineState) -> R) -> R {
        f(&mut self.state.write())
    }

    /// Capture a [`ReadSnapshot`] of the latest committed state. Holds the
    /// read lock only for the O(tables) capture — no binding, planning, or
    /// row data — then releases it; the snapshot is queried lock-free for
    /// as long as the caller keeps it, entirely undisturbed by concurrent
    /// DML, DDL, and refreshes.
    pub fn snapshot(&self) -> ReadSnapshot {
        self.state.read().capture_snapshot(None)
    }

    /// Capture a [`ReadSnapshot`] pinned at a past instant: each table
    /// resolves to the version visible at `at` (the snapshot-read rule of
    /// §5.3). Time travel is just an older frontier on the same read path.
    pub fn snapshot_at(&self, at: Timestamp) -> ReadSnapshot {
        self.state.read().capture_snapshot(Some(at))
    }

    /// The engine's current time: microseconds since the Unix epoch on
    /// the wall clock, or the injected clock's reading under a simulation.
    /// Takes no engine lock.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Create a virtual warehouse with `nodes` nodes (§3.3.1).
    pub fn create_warehouse(&self, name: &str, nodes: u32) -> DtResult<()> {
        let name = name.to_string();
        self.mutate(move |st, wal| st.create_warehouse(&name, nodes, wal))
    }

    /// A handle to the refresh log (every refresh executed so far). O(1):
    /// the log lives behind its own lock, so reading it never contends
    /// with the engine lock — and this no longer clones the whole log.
    pub fn refresh_log(&self) -> RefreshLog {
        self.refresh_log.clone()
    }

    /// The bound logical plan of a DT's stored definition (operator-census
    /// harness, Figure 6).
    pub fn dt_plan(&self, name: &str) -> DtResult<LogicalPlan> {
        self.state.read().dt_plan(name)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").finish_non_exhaustive()
    }
}

/// Cap on the per-session statement cache: past this, the cache is cleared
/// before inserting (statement handles users still hold stay valid — they
/// share their state via `Arc`). Keeps sessions that prepare interpolated
/// SQL from growing without bound.
const STATEMENT_CACHE_CAP: usize = 256;

pub(crate) struct SessionInner {
    pub(crate) role: Mutex<String>,
    variables: Mutex<BTreeMap<String, String>>,
    /// Prepared statements by SQL text (per-connection statement cache).
    statements: Mutex<HashMap<String, Statement>>,
    /// The session's current SQL-level transaction (opened with `BEGIN`,
    /// closed with `COMMIT`/`ROLLBACK`). Statements executed while this is
    /// `Some` — including prepared statements — run inside it.
    pub(crate) txn: Mutex<Option<Transaction>>,
    /// The tables written by the transaction whose `COMMIT` this session
    /// last lost. The next `BEGIN` locks them *before* pinning its
    /// snapshot, so a client re-running that transaction plans against
    /// their latest versions and cannot lose on them again: one lost
    /// attempt per transaction instead of a race the winner, one round
    /// trip ahead, keeps winning. Unlike the auto-commit retry's
    /// `prelock`, every written table is taken, in the canonical order
    /// commits take them, since locking only the pessimistic ones would
    /// let two such sessions each hold what the other's commit waits for.
    pub(crate) prelock: Mutex<Vec<dt_common::EntityId>>,
}

/// A per-connection handle: current role, session variables, and a
/// prepared-statement cache. Every method takes `&self`; clones share the
/// same session state.
#[derive(Clone)]
pub struct Session {
    engine: Engine,
    inner: Arc<SessionInner>,
}

impl Session {
    /// The engine this session talks to.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The current role (RBAC checks use it).
    pub fn role(&self) -> String {
        self.inner.role.lock().clone()
    }

    /// Switch the session role.
    pub fn set_role(&self, role: &str) {
        *self.inner.role.lock() = role.to_string();
    }

    /// Set a session variable.
    pub fn set_variable(&self, name: &str, value: &str) {
        self.inner
            .variables
            .lock()
            .insert(name.to_ascii_lowercase(), value.to_string());
    }

    /// Read a session variable.
    pub fn variable(&self, name: &str) -> Option<String> {
        self.inner
            .variables
            .lock()
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// Execute one SQL statement. Statements containing `?` placeholders
    /// must go through [`Session::prepare`] instead (a `Binding` error; in
    /// DDL, which takes none, `Unsupported`).
    ///
    /// Transaction lifecycle: `BEGIN` opens a session-scoped
    /// [`Transaction`]; while it is open, reads are served from its pinned
    /// snapshot and DML is buffered into it; `COMMIT` / `ROLLBACK` close
    /// it. Outside a transaction, DML auto-commits as the degenerate
    /// one-statement transaction (buffered, then committed optimistically
    /// — retried internally on write-write conflicts, so single statements
    /// keep their pre-transaction always-succeed behaviour).
    pub fn execute(&self, sql: &str) -> DtResult<ExecResult> {
        router::route(self.surface(), &dt_sql::parse(sql)?, sql, None)
    }

    fn surface(&self) -> Surface<'_> {
        Surface::Session {
            engine: &self.engine,
            session: Some(&self.inner),
            plan: None,
        }
    }

    /// Open an explicit transaction: every read inside it sees one
    /// snapshot pinned now, and DML inside it is buffered and applied
    /// atomically (or not at all) at [`Transaction::commit`]. The handle
    /// is independent of the SQL-level `BEGIN`/`COMMIT` state of this
    /// session — a session can hand out any number of concurrent handles.
    pub fn begin(&self) -> Transaction {
        Transaction::start(self.engine.clone(), None)
    }

    /// Open a time-travel transaction pinned at a past instant: reads
    /// resolve each table's version as of `at` (§5.3's snapshot-read
    /// rule). Writes are permitted but commit only if no touched table has
    /// changed since `at` — on any later commit the transaction conflicts.
    pub fn begin_at(&self, at: Timestamp) -> Transaction {
        Transaction::start(self.engine.clone(), Some(at))
    }

    /// True while this session has an open SQL-level transaction (`BEGIN`
    /// executed, neither `COMMIT` nor `ROLLBACK` yet).
    pub fn in_transaction(&self) -> bool {
        self.inner.txn.lock().is_some()
    }

    /// Capture a [`ReadSnapshot`] for this session: a consistent view of
    /// the whole engine that can be queried repeatedly (and concurrently
    /// with writers) without ever taking the engine lock.
    pub fn snapshot(&self) -> ReadSnapshot {
        self.engine.snapshot()
    }

    /// Run a query and return its result (rows + schema): the statement
    /// runs as [`Session::execute`] runs it, and one that produces no rows
    /// is `Unsupported` before it runs.
    pub fn query(&self, sql: &str) -> DtResult<QueryResult> {
        router::query(self.surface(), &dt_sql::parse(sql)?, sql, None)
    }

    /// Run a query and return sorted rows (deterministic comparisons).
    pub fn query_sorted(&self, sql: &str) -> DtResult<Vec<Row>> {
        Ok(self.query(sql)?.into_sorted_rows())
    }

    /// Time-travel query: pin the version each table had at `at` (an older
    /// frontier) and run the ordinary lock-free snapshot read path.
    pub fn query_at(&self, sql: &str, at: Timestamp) -> DtResult<QueryResult> {
        self.engine.snapshot_at(at).query(sql)
    }

    /// The isolation level guaranteed for a query (§4).
    pub fn query_isolation_level(&self, sql: &str) -> DtResult<dt_isolation::IsolationLevel> {
        self.engine.snapshot().query_isolation_level(sql)
    }

    /// Prepare a statement: lex, parse, and (for queries) bind once.
    /// Returns a [`Statement`] accepting positional `?` parameters at
    /// execute time. Prepared statements are cached per session by SQL
    /// text, so preparing the same text twice is free.
    pub fn prepare(&self, sql: &str) -> DtResult<Statement> {
        if let Some(stmt) = self.inner.statements.lock().get(sql) {
            return Ok(stmt.clone());
        }
        let stmt = dt_sql::parse(sql)?;
        let params = router::check_placeholders(&stmt, true)?;
        let plan = match &stmt {
            ast::Statement::Query(q) => {
                // Bind now against a snapshot (validates the query and
                // caches the plan) — the engine lock is already released
                // by the time binding runs.
                let snap = self.engine.snapshot();
                let plan = snap.bind_query(q)?.plan;
                Some(PlanCache {
                    plan: Mutex::new((snap.ddl_generation(), Arc::new(plan))),
                    binds: AtomicU64::new(1),
                })
            }
            _ => None,
        };
        let stmt = Statement {
            session: Arc::new(SessionRef {
                engine: self.engine.clone(),
                inner: Arc::downgrade(&self.inner),
            }),
            inner: Arc::new(PreparedInner {
                sql: sql.to_string(),
                stmt,
                params,
                plan,
            }),
        };
        let mut cache = self.inner.statements.lock();
        if cache.len() >= STATEMENT_CACHE_CAP {
            cache.clear();
        }
        cache.insert(sql.to_string(), stmt.clone());
        Ok(stmt)
    }

    /// Trigger a manual refresh of a DT and its upstream chain (§3.2).
    /// Returns the number of refreshes executed; the DT's own refresh
    /// failing with a user error is an outcome, not an `Err` (§3.3.3).
    pub fn manual_refresh(&self, name: &str) -> DtResult<usize> {
        Ok(self.engine.manual_refresh(name, &self.role())?.0)
    }

    /// Grant a privilege on a named entity to a role (§3.4).
    pub fn grant(
        &self,
        role: &str,
        entity: &str,
        privilege: dt_catalog::Privilege,
    ) -> DtResult<()> {
        let (role, entity) = (role.to_string(), entity.to_string());
        self.engine.mutate(move |st, wal| st.grant(&role, &entity, privilege, wal))
    }

    /// Number of statements in this session's prepared-statement cache.
    pub fn cached_statements(&self) -> usize {
        self.inner.statements.lock().len()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("role", &self.role()).finish()
    }
}

/// A weak back-reference to the owning session: statements must not keep
/// a session (and through it the cache that holds the statement) alive in
/// a reference cycle.
struct SessionRef {
    engine: Engine,
    inner: std::sync::Weak<SessionInner>,
}

/// A prepared query's bound plan: reused across executions and rebound
/// only when the catalog's DDL generation moves.
pub(crate) struct PlanCache {
    /// The DDL generation the plan was bound at, and the plan.
    plan: Mutex<(u64, Arc<LogicalPlan>)>,
    /// How many times the SQL was bound (1 at prepare; +1 per rebind after
    /// DDL). Lets tests assert that re-execution reuses one bound plan.
    binds: AtomicU64,
}

impl PlanCache {
    /// A snapshot and the cached plan of `q` bound against it. The engine
    /// lock is held only to capture the snapshot — scoped to the tables
    /// the plan scans, so a point query pays O(scanned) capture, not
    /// O(all tables) — and the rebind check and any rebinding run
    /// lock-free against it.
    pub(crate) fn pin(
        &self,
        engine: &Engine,
        q: &ast::Query,
    ) -> DtResult<(ReadSnapshot, Arc<LogicalPlan>)> {
        let (generation, cached) = {
            let slot = self.plan.lock();
            (slot.0, Arc::clone(&slot.1))
        };
        let snap = engine
            .state
            .read()
            .capture_snapshot_scoped(&cached.scanned_entities());
        if snap.ddl_generation() == generation {
            return Ok((snap, cached));
        }
        // DDL moved under us: take a full snapshot (the rebound plan may
        // scan different tables) and rebind against its catalog.
        let snap = engine.snapshot();
        let mut slot = self.plan.lock();
        if slot.0 != snap.ddl_generation() {
            slot.1 = Arc::new(snap.bind_query(q)?.plan);
            slot.0 = snap.ddl_generation();
            self.binds.fetch_add(1, Ordering::Relaxed);
        }
        Ok((snap, Arc::clone(&slot.1)))
    }
}

struct PreparedInner {
    sql: String,
    stmt: ast::Statement,
    params: usize,
    /// A query's bound plan; `None` for every other statement, which runs
    /// from `stmt`.
    plan: Option<PlanCache>,
}

/// A prepared statement: parse/bind once, execute many times with
/// positional `?` parameters. Cheap to clone; clones share the bound plan.
#[derive(Clone)]
pub struct Statement {
    session: Arc<SessionRef>,
    inner: Arc<PreparedInner>,
}

impl Statement {
    /// The SQL text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.inner.sql
    }

    /// Number of `?` parameters the statement expects.
    pub fn param_count(&self) -> usize {
        self.inner.params
    }

    /// How many times the statement's SQL has been bound (1 unless DDL
    /// invalidated the cached plan).
    pub fn times_bound(&self) -> u64 {
        let plan = self.inner.plan.as_ref();
        plan.map_or(1, |p| p.binds.load(Ordering::Relaxed))
    }

    /// Execute with `params` bound to the `?` placeholders in order —
    /// inside the owning session's open SQL-level transaction, if any, like
    /// [`Session::execute`].
    pub fn execute(&self, params: &[Value]) -> DtResult<ExecResult> {
        self.route(params, router::route)
    }

    /// Execute a prepared query with `params`, reusing the bound plan (see
    /// [`Statement::execute`]). A statement that answers with no rows is
    /// refused before it runs.
    pub fn query(&self, params: &[Value]) -> DtResult<QueryResult> {
        self.route(params, router::query)
    }

    /// Hand the statement and `params` (their number checked) to `entry`,
    /// one of the router's two entry points.
    fn route<T>(&self, params: &[Value], entry: router::Entry<T>) -> DtResult<T> {
        if params.len() != self.inner.params {
            return Err(DtError::Binding(format!(
                "statement expects {} parameter(s), {} bound",
                self.inner.params,
                params.len()
            )));
        }
        let session = self.session.inner.upgrade();
        let surface = Surface::Session {
            engine: &self.session.engine,
            session: session.as_deref(),
            plan: self.inner.plan.as_ref(),
        };
        entry(surface, &self.inner.stmt, &self.inner.sql, Some(params))
    }

    /// Execute a prepared query and return sorted rows.
    pub fn query_sorted(&self, params: &[Value]) -> DtResult<Vec<Row>> {
        Ok(self.query(params)?.into_sorted_rows())
    }
}

impl std::fmt::Debug for Statement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Statement")
            .field("sql", &self.inner.sql)
            .field("params", &self.inner.params)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::is_serialization_conflict;

    #[test]
    fn engine_is_send_sync_and_cheaply_cloneable() {
        fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
        assert_send_sync_clone::<Engine>();
        assert_send_sync_clone::<Session>();
        assert_send_sync_clone::<Statement>();
    }

    #[test]
    fn sessions_are_independent() {
        let engine = Engine::new(DbConfig::default());
        let a = engine.session_as("alpha");
        let b = engine.session_as("beta");
        a.set_variable("x", "1");
        assert_eq!(a.role(), "alpha");
        assert_eq!(b.role(), "beta");
        assert_eq!(a.variable("x").as_deref(), Some("1"));
        assert_eq!(b.variable("x"), None);
    }

    #[test]
    fn snapshot_capture_releases_the_engine_lock() {
        let engine = Engine::new(DbConfig::default());
        let session = engine.session();
        session.execute("CREATE TABLE t (k INT)").unwrap();
        session.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let snap = engine.snapshot();
        // The write lock is free while the snapshot is alive: a writer
        // proceeds, and the snapshot still answers from its pinned state.
        session.execute("INSERT INTO t VALUES (3)").unwrap();
        assert_eq!(snap.query("SELECT * FROM t").unwrap().len(), 2);
        assert_eq!(session.query("SELECT * FROM t").unwrap().len(), 3);
    }

    #[test]
    fn a_session_that_lost_a_commit_cannot_lose_its_retry() {
        for mode in ["OPTIMISTIC", "PESSIMISTIC"] {
            let engine = Engine::new(DbConfig::default());
            let (a, b) = (engine.session(), engine.session());
            a.execute("CREATE TABLE hot (id INT, v INT)").unwrap();
            a.execute("INSERT INTO hot VALUES (1, 0)").unwrap();
            a.execute(&format!("ALTER TABLE hot SET LOCKING {mode}"))
                .unwrap();
            let bump = |s: &Session, by: i64| {
                s.execute("BEGIN").unwrap();
                s.execute(&format!("UPDATE hot SET v = v + {by} WHERE id = 1"))
                    .unwrap();
            };

            // `b` loses: its snapshot predates `a`'s commit.
            bump(&a, 1);
            bump(&b, 10);
            a.execute("COMMIT").unwrap();
            assert!(is_serialization_conflict(&b.execute("COMMIT").unwrap_err()));

            // `b`'s retry locks `hot` before pinning its snapshot, so `a`'s
            // next transaction, begun after it, loses at COMMIT instead
            // (waiting for `b` first when `hot` is pessimistic) — and its
            // own retry then wins in turn.
            b.execute("BEGIN").unwrap();
            bump(&a, 1);
            let waiter = {
                let a = a.clone();
                std::thread::spawn(move || a.execute("COMMIT"))
            };
            b.execute("UPDATE hot SET v = v + 10 WHERE id = 1").unwrap();
            b.execute("COMMIT").unwrap();
            let lost = waiter.join().unwrap().unwrap_err();
            assert!(is_serialization_conflict(&lost), "{mode}: {lost:?}");
            bump(&a, 1);
            a.execute("COMMIT").unwrap();
            assert_eq!(
                a.query_sorted("SELECT v FROM hot").unwrap(),
                [dt_common::row!(12i64)],
                "{mode}"
            );
        }
    }
}
