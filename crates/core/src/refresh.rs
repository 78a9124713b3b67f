//! The refresh engine (§5.3–§5.5): action selection, differentiation,
//! merge, commit, and the production validations.
//!
//! Since PR 8 the row work of a refresh is split from its installation,
//! mirroring the optimistic transaction commit
//! ([`dt_storage::TableStore::prepare_change_at`] /
//! [`dt_storage::CommitGuard`]): `compute_refresh` runs against a pinned
//! `RefreshEnv` holding **no engine lock** and returns a
//! [`dt_storage::PreparedChange`]; only the O(metadata) install serializes.
//! The serial path ([`EngineState::run_refresh`]) and the parallel round
//! driver ([`crate::Engine::refresh_all_parallel`]) share this core.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use dt_catalog::RefreshMode;
use dt_common::{Batch, DtError, DtResult, EntityId, PredicateSet, Row, Timestamp, VersionId};
use dt_exec::TableProvider;
use dt_ivm::{
    assign_change_rows, delta, delta_unconsolidated, with_initial_row_ids, ChangeProvider,
    DeltaContext, MergeAction, OuterJoinStrategy,
};
use dt_plan::LogicalPlan;
use dt_scheduler::{CostModel, RefreshAction, RefreshOutcome};
use dt_storage::{ChangeSet, PreparedChange, TableStore};
use dt_txn::{Frontier, RefreshTsMap};

use crate::database::EngineState;
use crate::providers::{
    evaluate_at, strip_row_ids, PinnedVersion, SnapshotProvider, StorageView, VersionSemantics,
    WRITE_SCAN_THREADS,
};

/// One executed refresh, for telemetry and the §6.3 statistics. `Copy`:
/// entries are a few machine words, so handing them out by value is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshLogEntry {
    /// The DT refreshed.
    pub dt: EntityId,
    /// The refresh (data) timestamp.
    pub refresh_ts: Timestamp,
    /// Action label ("no_data", "full", "incremental", "reinitialize",
    /// "failed").
    pub action: &'static str,
    /// Output changed rows (inserts + deletes) — the delta installed.
    pub changed_rows: usize,
    /// DT size after the refresh.
    pub dt_rows: usize,
    /// Whether this was an initialization.
    pub initial: bool,
    /// Wall-clock duration of the refresh (prepare through install), in
    /// microseconds.
    pub duration_micros: u64,
    /// Source rows scanned: full query input rows for FULL/REINITIALIZE,
    /// source change rows consumed for INCREMENTAL, 0 for NO_DATA.
    pub source_rows: usize,
}

/// The refresh log: an append-only record of every refresh executed,
/// behind its own lock so telemetry readers never contend with the engine
/// lock. Cloning the handle is O(1) (an `Arc` inside); the engine hands
/// out handles via [`crate::Engine::refresh_log`] instead of copying the
/// whole history.
#[derive(Clone, Default)]
pub struct RefreshLog {
    inner: std::sync::Arc<parking_lot::RwLock<Vec<RefreshLogEntry>>>,
}

impl RefreshLog {
    /// Append one entry (engine-internal; called at most once per refresh).
    pub(crate) fn push(&self, entry: RefreshLogEntry) {
        self.inner.write().push(entry);
    }

    /// Number of refreshes recorded.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when no refresh has run yet.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// The most recent entry, if any.
    pub fn last(&self) -> Option<RefreshLogEntry> {
        self.inner.read().last().copied()
    }

    /// The last `n` entries, oldest first — the bounded way to check
    /// recent refresh activity.
    pub fn tail(&self, n: usize) -> Vec<RefreshLogEntry> {
        let log = self.inner.read();
        log[log.len().saturating_sub(n)..].to_vec()
    }

    /// A copy of the full history (for offline statistics; prefer
    /// [`RefreshLog::tail`] when only recent entries matter).
    pub fn entries(&self) -> Vec<RefreshLogEntry> {
        self.inner.read().clone()
    }

    /// How many recorded refreshes ran `action` ("no_data", "full",
    /// "incremental", "reinitialize", "failed").
    pub fn count_action(&self, action: &str) -> usize {
        self.inner
            .read()
            .iter()
            .filter(|e| e.action == action)
            .count()
    }
}

impl std::fmt::Debug for RefreshLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefreshLog").field("len", &self.len()).finish()
    }
}

/// Per-source change sets gathered for an interval.
struct IntervalChanges {
    per_entity: HashMap<EntityId, ChangeSet>,
}

impl ChangeProvider for IntervalChanges {
    fn changes(&self, entity: EntityId) -> DtResult<ChangeSet> {
        self.per_entity
            .get(&entity)
            .cloned()
            .ok_or_else(|| DtError::internal(format!("no change set gathered for {entity}")))
    }
}

/// Everything a refresh's delta computation needs, pinned by `Arc` under a
/// brief engine lock so the computation itself runs with **no** lock held —
/// the write-side analogue of [`crate::ReadSnapshot`]. Versioned stores
/// never mutate in place, so a worker reading through these handles sees a
/// stable world no matter what commits land meanwhile.
pub(crate) struct RefreshEnv {
    /// Storage handles for the DT and every scanned source.
    pub(crate) tables: HashMap<EntityId, Arc<TableStore>>,
    /// Which of those entities are DTs (their storage carries `$ROW_ID`).
    pub(crate) dt_ids: BTreeSet<EntityId>,
    /// The refresh-timestamp → version map (interior-mutable, `&self`).
    pub(crate) refresh_map: Arc<RefreshTsMap>,
    /// DT version resolution semantics (§3.1.1).
    pub(crate) semantics: VersionSemantics,
    /// Outer-join differentiation strategy (§5.5.1).
    pub(crate) outer_join: OuterJoinStrategy,
    /// The §3.3.2 cost model.
    pub(crate) cost_model: CostModel,
}

impl RefreshEnv {
    fn is_dt(&self, id: EntityId) -> bool {
        self.dt_ids.contains(&id)
    }

    fn store(&self, id: EntityId) -> DtResult<&Arc<TableStore>> {
        self.tables
            .get(&id)
            .ok_or_else(|| DtError::Storage(format!("no storage for {id}")))
    }

    /// The storage version of a source at a data timestamp (commit-time
    /// rule for base tables, exact refresh-timestamp rule for DTs — §5.3).
    fn source_version_at(&self, entity: EntityId, ts: Timestamp) -> DtResult<VersionId> {
        if self.is_dt(entity) && self.semantics == VersionSemantics::Dvs {
            self.refresh_map.exact_version_for(entity, ts)
        } else {
            self.store(entity)?
                .version_at(ts)
                .ok_or_else(|| DtError::Storage(format!("no version of {entity} at {ts}")))
        }
    }

    /// This environment's pinned tables as a provider view.
    fn view<'a>(&'a self, is_dt: &'a dyn Fn(EntityId) -> bool) -> StorageView<'a> {
        StorageView {
            tables: &self.tables,
            dt_entities: is_dt,
            refresh_map: &self.refresh_map,
        }
    }
}

/// The output of [`compute_refresh`]: the staged storage change (if any),
/// the outcome for the scheduler, and the frontier the DT will advance to
/// once the change installs.
pub(crate) struct ComputedRefresh {
    /// Action + row/cost accounting, as the scheduler wants it reported.
    pub(crate) outcome: RefreshOutcome,
    /// The staged storage change; `None` for NO_DATA (only metadata moves).
    pub(crate) prep: Option<PreparedChange>,
    /// Source rows scanned (see [`RefreshLogEntry::source_rows`]).
    pub(crate) source_rows: usize,
    /// The frontier the DT advances to at install.
    pub(crate) new_frontier: Frontier,
}

/// The row work of one refresh, runnable with no engine lock held: decide
/// the action (§5.4), evaluate or differentiate (§5.5), and stage the
/// result against the DT's pinned latest version. User errors (binding
/// losses surface earlier; evaluation errors surface here) propagate as
/// `Err` for the caller to classify.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_refresh(
    env: &RefreshEnv,
    dt: EntityId,
    refresh_ts: Timestamp,
    initial: bool,
    evolved: bool,
    refresh_mode: RefreshMode,
    plan: &LogicalPlan,
    prev: Option<&Frontier>,
) -> DtResult<ComputedRefresh> {
    let upstream = plan.scanned_entities();
    let store = Arc::clone(env.store(dt)?);
    // Pin the base version every staged change validates against at
    // install time (first committer wins, like transactional DML).
    let base = store.latest_version();

    // Resolve each source's version at the refresh timestamp. These
    // resolutions are stable under concurrent commits — every later commit
    // is minted strictly after `refresh_ts` by the shared HLC — so the
    // frontier can be computed here, before the install.
    let mut new_frontier = Frontier::at(refresh_ts);
    let mut to_versions = Vec::with_capacity(upstream.len());
    for up in &upstream {
        let to = env.source_version_at(*up, refresh_ts)?;
        new_frontier.set(*up, to);
        to_versions.push((*up, to));
    }

    // Decide the refresh action (§5.4).
    if !initial && !evolved {
        // NO_DATA: no source changed since the previous frontier.
        let prev = prev.ok_or_else(|| DtError::internal("refresh of uninitialized DT"))?;
        let mut unchanged = true;
        for (up, to) in &to_versions {
            let from = prev
                .get(*up)
                .ok_or_else(|| DtError::internal(format!("no frontier entry for {up}")))?;
            if !env.store(*up)?.unchanged_between(from.min(*to), *to)? {
                unchanged = false;
                break;
            }
        }
        if unchanged {
            // §3.3.2: uses negligible resources and no warehouse
            // compute; only the data timestamp advances.
            let dt_rows = store.row_count_at(base)?;
            return Ok(ComputedRefresh {
                outcome: RefreshOutcome {
                    action: RefreshAction::NoData,
                    changed_rows: 0,
                    dt_rows,
                    work_units: 0.0,
                },
                prep: None,
                source_rows: 0,
                new_frontier,
            });
        }
    }

    let full = initial || evolved || refresh_mode == RefreshMode::Full;
    if full {
        let is_dt = |id: EntityId| env.is_dt(id);
        let (rows, input_rows) = evaluate_at(env.view(&is_dt), env.semantics, plan, refresh_ts)?;
        let out_rows = with_initial_row_ids(rows);
        let changed = out_rows.len();
        let dt_rows = out_rows.len();
        let prep = store.prepare_overwrite_at(base, out_rows)?;
        let action = if evolved && !initial {
            RefreshAction::Reinitialize
        } else {
            RefreshAction::Full
        };
        return Ok(ComputedRefresh {
            outcome: RefreshOutcome {
                action,
                changed_rows: changed,
                dt_rows,
                work_units: env.cost_model.units(input_rows + changed),
            },
            prep: Some(prep),
            source_rows: input_rows,
            new_frontier,
        });
    }

    // INCREMENTAL (§5.5).
    let prev = prev.ok_or_else(|| DtError::internal("refresh of uninitialized DT"))?;
    let mut per_entity = HashMap::new();
    let mut change_volume = 0usize;
    for (up, to) in &to_versions {
        let from = prev
            .get(*up)
            .ok_or_else(|| DtError::internal(format!("no frontier entry for {up}")))?;
        let mut cs = if *to >= from {
            env.store(*up)?.changes_between(from, *to)?
        } else {
            return Err(DtError::internal("source version regressed"));
        };
        if env.is_dt(*up) {
            // DT storage carries the $ROW_ID column; the defining query
            // sees only the payload. Strip ids and re-consolidate (a
            // row whose id churned but whose payload did not is not a
            // logical change).
            cs = ChangeSet::new(
                strip_row_ids(cs.inserts().to_vec()),
                strip_row_ids(cs.deletes().to_vec()),
            )
            .consolidate();
        }
        change_volume += cs.len();
        per_entity.insert(*up, cs);
    }
    // §5.5.2 insert-only specialization: when the plan structure
    // guarantees differentiation introduces no redundant actions and
    // every source change is pure inserts, the final consolidation
    // pass is provably a no-op and is skipped.
    let insert_only = per_entity.values().all(|cs| cs.deletes().is_empty())
        && dt_ivm::merge::is_insert_only_safe(plan);
    let changes = IntervalChanges { per_entity };

    let d = {
        let is_dt = |id: EntityId| env.is_dt(id);
        // The "old" provider resolves each source at the previous
        // frontier version; implemented as a fixed-version provider.
        let old = FrontierProvider {
            env,
            frontier: prev,
        };
        let new = SnapshotProvider::new(env.view(&is_dt), refresh_ts, env.semantics);
        let ctx = DeltaContext {
            old: &old,
            new: &new,
            changes: &changes,
            outer_join: env.outer_join,
        };
        if insert_only {
            delta_unconsolidated(plan, &ctx)?
        } else {
            delta(plan, &ctx)?
        }
    };

    // Merge: assign $ROW_IDs against the pinned base version (walked by
    // reference; only payloads the delta names are indexed), validate the
    // §6.1 invariants, stage.
    let stored = store.snapshot(base)?;
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for c in assign_change_rows(stored.iter_rows(), &d)? {
        match c.action {
            MergeAction::Insert => inserts.push(c.into_stored_row()),
            MergeAction::Delete => deletes.push(c.into_stored_row()),
        }
    }
    let changed = inserts.len() + deletes.len();
    let prep = store.prepare_change_at(base, inserts, deletes)?;
    let dt_rows = prep.row_count();
    Ok(ComputedRefresh {
        outcome: RefreshOutcome {
            action: RefreshAction::Incremental,
            changed_rows: changed,
            dt_rows,
            work_units: env.cost_model.units(change_volume + changed),
        },
        prep: Some(prep),
        source_rows: change_volume,
        new_frontier,
    })
}

impl EngineState {
    /// Pin a [`RefreshEnv`] for `dt` and its scanned sources: `Arc` clones
    /// of the storage handles and refresh map plus the config the delta
    /// computation needs. O(#sources); taken under whatever engine lock
    /// the caller already holds.
    pub(crate) fn refresh_env(&self, dt: EntityId, upstream: &[EntityId]) -> DtResult<RefreshEnv> {
        let mut tables = HashMap::with_capacity(upstream.len() + 1);
        let mut dt_ids = BTreeSet::new();
        for id in upstream.iter().copied().chain(std::iter::once(dt)) {
            let store = self
                .tables
                .get(&id)
                .ok_or_else(|| DtError::Storage(format!("no storage for {id}")))?;
            tables.insert(id, Arc::clone(store));
            if self.is_dt(id) {
                dt_ids.insert(id);
            }
        }
        Ok(RefreshEnv {
            tables,
            dt_ids,
            refresh_map: Arc::clone(&self.refresh_map),
            semantics: self.config.semantics,
            outer_join: self.config.outer_join,
            cost_model: self.config.cost_model,
        })
    }

    /// Execute one refresh of `dt` to data timestamp `refresh_ts`.
    /// User errors become a `Failed` outcome (and bump the DT's error
    /// counter); internal invariant violations propagate as `Err`.
    pub fn run_refresh(
        &mut self,
        dt: EntityId,
        refresh_ts: Timestamp,
        initial: bool,
    ) -> DtResult<RefreshOutcome> {
        let started = std::time::Instant::now();
        match self.try_refresh(dt, refresh_ts, initial) {
            Ok((outcome, source_rows, pending_wal)) => {
                self.catalog.record_dt_success(dt)?;
                // Logged after `record_dt_success` so the record's catalog
                // image carries the error-counter reset (and any evolution
                // fingerprint update from step 2).
                if let Some(pending) = pending_wal {
                    let record = pending.into_record(self.catalog.to_bytes());
                    self.wal_append(&[record])?;
                }
                self.log_refresh(dt, refresh_ts, &outcome, initial, started, source_rows);
                Ok(outcome)
            }
            Err(e) if e.is_user_error() => {
                self.catalog.record_dt_error(dt)?;
                self.wal_log_catalog(crate::durability::SideEffect::None)?;
                let outcome = RefreshOutcome {
                    action: RefreshAction::Failed(e.to_string()),
                    changed_rows: 0,
                    dt_rows: 0,
                    work_units: self.config.cost_model.fixed_units,
                };
                self.log_refresh(dt, refresh_ts, &outcome, initial, started, 0);
                Ok(outcome)
            }
            Err(e) => Err(e),
        }
    }

    fn log_refresh(
        &mut self,
        dt: EntityId,
        refresh_ts: Timestamp,
        outcome: &RefreshOutcome,
        initial: bool,
        started: std::time::Instant,
        source_rows: usize,
    ) {
        self.refresh_log.push(RefreshLogEntry {
            dt,
            refresh_ts,
            action: action_label(&outcome.action),
            changed_rows: outcome.changed_rows,
            dt_rows: outcome.dt_rows,
            initial,
            duration_micros: started.elapsed().as_micros() as u64,
            source_rows,
        });
    }

    fn try_refresh(
        &mut self,
        dt: EntityId,
        refresh_ts: Timestamp,
        initial: bool,
    ) -> DtResult<(RefreshOutcome, usize, Option<crate::durability::PendingRefreshWal>)> {
        // 1. Rebind the defining query against the live catalog (§5.4).
        //    Binding failures (dropped upstream) are user errors that fail
        //    this refresh; once the upstream is restored, refreshes resume.
        let meta = self
            .catalog
            .get(dt)?
            .as_dt()
            .ok_or_else(|| DtError::internal(format!("{dt} is not a DT")))?
            .clone();
        let parsed = dt_sql::parse(&meta.definition_sql)?;
        let dt_sql::ast::Statement::Query(q) = parsed else {
            return Err(DtError::internal("DT definition is not a query"));
        };
        let bound = self.bind_query(&q)?;
        let plan = bound.plan;
        let upstream_now = plan.scanned_entities();

        // 2. Query evolution (§5.4): if the bound upstream set or any
        //    upstream schema changed, the stored results may be invalid —
        //    REINITIALIZE conservatively.
        let fingerprint_now = self.catalog.fingerprint(&upstream_now);
        let evolved = fingerprint_now != meta.definition_fingerprint;
        if evolved {
            let m = self.catalog.get_mut(dt)?.as_dt_mut().unwrap();
            m.definition_fingerprint = fingerprint_now;
            m.upstream = upstream_now.clone();
        }

        // 3. Lock the DT (§5.3: no concurrent refreshes of one DT).
        let txn = self.txn.begin_at(refresh_ts);
        self.txn.try_lock(&txn, dt)?;

        // 4. Compute: the shared prepare core, against a pinned env. The
        //    serial path holds the engine write lock throughout, so the
        //    staged change cannot conflict at install.
        let prev = self.frontiers.get(&dt).cloned();
        let mut wal_install = None;
        let result = self
            .refresh_env(dt, &upstream_now)
            .and_then(|env| {
                compute_refresh(
                    &env,
                    dt,
                    refresh_ts,
                    initial,
                    evolved,
                    meta.refresh_mode,
                    &plan,
                    prev.as_ref(),
                )
            })
            .and_then(|computed| {
                if let Some(prep) = computed.prep {
                    let store = &self.tables[&dt];
                    let install_ts = self.txn_commit_stamp(refresh_ts);
                    if self.wal_enabled() {
                        wal_install = Some((install_ts, prep.install_record()));
                    }
                    store.install_prepared(prep, install_ts, txn.id)?;
                    Ok(ComputedRefresh {
                        prep: None,
                        ..computed
                    })
                } else {
                    Ok(computed)
                }
            });
        match result {
            Ok(computed) => {
                let commit_ts = self.txn.commit(&txn)?;
                // Record the refresh-ts → version mapping (§5.3) and the
                // new frontier.
                let version = self.tables[&dt].latest_version();
                self.refresh_map.record(dt, refresh_ts, version, commit_ts);
                // Refreshes only move frontiers forward.
                if let Some(prev) = self.frontiers.get(&dt) {
                    debug_assert!(
                        computed.new_frontier.refresh_ts >= prev.refresh_ts,
                        "frontier moved backwards"
                    );
                }
                let pending_wal =
                    self.wal_enabled()
                        .then(|| crate::durability::PendingRefreshWal {
                            dt,
                            txn: txn.id,
                            refresh_ts,
                            commit_ts,
                            install: wal_install.take(),
                            version,
                            frontier: computed.new_frontier.clone(),
                        });
                self.frontiers.insert(dt, computed.new_frontier);

                // 5. DVS validation (§6.1 level 4): the stored contents
                //    must equal the defining query at the data timestamp.
                if self.config.validate_dvs
                    && self.config.semantics == VersionSemantics::Dvs
                    && !matches!(computed.outcome.action, RefreshAction::Failed(_))
                {
                    self.validate_dvs_invariant(dt, refresh_ts, &plan)?;
                }
                Ok((computed.outcome, computed.source_rows, pending_wal))
            }
            Err(e) => {
                self.txn.abort(&txn)?;
                Err(e)
            }
        }
    }

    /// Commit stamp for storage versions created by a refresh: strictly
    /// monotonic per table, at or after both the refresh timestamp and now.
    fn txn_commit_stamp(&self, refresh_ts: Timestamp) -> Timestamp {
        let hlc_now = self.txn.hlc().tick();
        hlc_now.max(refresh_ts)
    }

    /// §6.1 level-4 validation: "if you run the defining query as of the
    /// data timestamp, you should get the same result as in the DT."
    pub(crate) fn validate_dvs_invariant(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
        plan: &LogicalPlan,
    ) -> DtResult<()> {
        let store = &self.tables[&dt];
        let mut stored = strip_row_ids(store.scan(store.latest_version())?);
        stored.sort();
        let is_dt = |id: EntityId| self.is_dt(id);
        let view = StorageView {
            tables: &self.tables,
            dt_entities: &is_dt,
            refresh_map: &self.refresh_map,
        };
        let (mut expected, _) = evaluate_at(view, self.config.semantics, plan, refresh_ts)?;
        expected.sort();
        if stored != expected {
            return Err(DtError::internal(format!(
                "DVS violation on {dt} at {refresh_ts}: stored {} rows != query {} rows",
                stored.len(),
                expected.len()
            )));
        }
        Ok(())
    }
}

/// The log label for a refresh action.
pub(crate) fn action_label(action: &RefreshAction) -> &'static str {
    match action {
        RefreshAction::NoData => "no_data",
        RefreshAction::Full => "full",
        RefreshAction::Incremental => "incremental",
        RefreshAction::Reinitialize => "reinitialize",
        RefreshAction::Failed(_) => "failed",
    }
}

/// Resolves each source at the exact version recorded in a frontier — the
/// "previous data timestamp" side of the differentiation interval.
struct FrontierProvider<'a> {
    env: &'a RefreshEnv,
    frontier: &'a Frontier,
}

impl FrontierProvider<'_> {
    fn pinned(&self, entity: EntityId) -> DtResult<PinnedVersion<'_>> {
        let version = self
            .frontier
            .get(entity)
            .ok_or_else(|| DtError::internal(format!("no frontier entry for {entity}")))?;
        Ok(PinnedVersion {
            store: self.env.store(entity)?,
            version,
            is_dt: self.env.is_dt(entity),
        })
    }
}

impl TableProvider for FrontierProvider<'_> {
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
