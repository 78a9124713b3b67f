//! The refresh path (§5.3–§5.5). Every refresh of every DT — the initial
//! one behind `CREATE DYNAMIC TABLE`, `ALTER … REFRESH`, a tick of the
//! simulated scheduler, a DT in a parallel round — is the same three
//! steps, and this module is the only implementation of each:
//!
//! 1. **Pin** (`EngineState::pin_refresh`, under the engine read lock):
//!    take the DT's refresh lock (§5.3), reject a timestamp the DT is
//!    already at or past, rebind the defining query against the live
//!    catalog (§5.4), and pin by `Arc` the stores and frontier the row
//!    work reads.
//! 2. **Compute** (`PinnedRefresh::compute`, needs **no engine lock**):
//!    choose the action (§5.4), evaluate or differentiate (§5.5), and
//!    stage the result as a [`dt_storage::PreparedChange`] against the
//!    DT's pinned base version.
//! 3. **Install** (`install_refresh`, under the queue leader's engine
//!    write lock): the staged change goes through the engine's one
//!    install pipeline — the `install` module's validate → stamp → log →
//!    install core, shared with transaction commits — and the refresh
//!    then records itself in the refresh map, frontier, catalog, WAL
//!    batch and refresh log (an initial refresh also marks its DT
//!    initialized and `Active`); a refresh that failed with a user error
//!    records the failure instead.
//!
//! Every caller pins under a brief engine read lock, computes with no
//! engine lock held and submits step 3 to the install queue, where a
//! leader lands whatever queued together behind one lock acquisition
//! (`Engine::prepare_refresh` + `PreparedRefresh::install`). Callers
//! differ only in which timestamp they refresh to, where the compute step
//! runs — the round driver in [`crate::parallel_refresh`] spreads it over
//! a worker pool — and on which clock they report the outcome to the
//! scheduler (`EngineState::report_refresh`: inside the install for the
//! round driver, else in a mutation the caller queues to the same leader
//! afterwards, so no caller takes the engine write lock itself).

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use dt_catalog::{DtState, DynamicTableMeta, RefreshMode};
use dt_common::{Batch, DtError, DtResult, EntityId, PredicateSet, Row, Timestamp, VersionId};
use dt_exec::TableProvider;
use dt_ivm::{
    assign_change_rows, delta_over_stored, delta_unconsolidated, with_initial_row_ids,
    ChangeProvider, DeltaContext, MergeAction, OuterJoinStrategy, StoredOutput,
};
use dt_plan::LogicalPlan;
use dt_scheduler::{CostModel, RefreshAction, RefreshOutcome};
use dt_storage::{ChangeSet, PreparedChange, TableStore};
use dt_txn::{Frontier, RefreshTsMap, Txn};

use crate::durability::{SideEffect, WalRecord};
use crate::install::{check_admitted, validate_and_install, Installed};
use crate::providers::{
    evaluate_at, strip_row_ids, PinnedVersion, SnapshotProvider, StorageView, WRITE_SCAN_THREADS,
};
use crate::state::EngineState;

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
    fn changes(&self, entity: EntityId) -> DtResult<Cow<'_, ChangeSet>> {
        self.per_entity
            .get(&entity)
            .map(Cow::Borrowed)
            .ok_or_else(|| DtError::internal(format!("no change set gathered for {entity}")))
    }
}

/// Everything a refresh's delta computation needs, pinned by `Arc` under a
/// brief engine lock so the computation itself runs with **no** lock held —
/// the write-side analogue of [`crate::ReadSnapshot`]. Versioned stores
/// never mutate in place, so a worker reading through these handles sees a
/// stable world no matter what commits land meanwhile.
struct RefreshEnv {
    /// Storage handles for the DT and every scanned source.
    tables: HashMap<EntityId, Arc<TableStore>>,
    /// Which of those entities are DTs (their storage carries `$ROW_ID`).
    dt_ids: BTreeSet<EntityId>,
    /// The refresh-timestamp → version map (interior-mutable, `&self`).
    refresh_map: Arc<RefreshTsMap>,
    /// Outer-join differentiation strategy (§5.5.1).
    outer_join: OuterJoinStrategy,
    /// The §3.3.2 cost model.
    cost_model: CostModel,
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
        if self.is_dt(entity) {
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
struct ComputedRefresh {
    /// Action + row/cost accounting, as the scheduler wants it reported.
    outcome: RefreshOutcome,
    /// The staged storage change; `None` for NO_DATA (only metadata moves).
    prep: Option<PreparedChange>,
    /// Source rows scanned (see [`RefreshLogEntry::source_rows`]).
    source_rows: usize,
    /// The frontier the DT advances to at install.
    new_frontier: Frontier,
}

/// The row work of one refresh, runnable with no engine lock held: decide
/// the action (§5.4), evaluate or differentiate (§5.5), and stage the
/// result against the DT's pinned latest version. User errors (binding
/// losses surface earlier; evaluation errors surface here) propagate as
/// `Err` for the caller to classify.
fn compute_refresh(
    work: &PinnedWork,
    dt: EntityId,
    refresh_ts: Timestamp,
    initial: bool,
) -> DtResult<ComputedRefresh> {
    let PinnedWork {
        env,
        plan,
        upstream,
        refresh_mode,
        prev,
        ..
    } = work;
    let (prev, refresh_mode) = (prev.as_ref(), *refresh_mode);
    let evolved = work.evolved.is_some();
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
    for up in upstream {
        let to = env.source_version_at(*up, refresh_ts)?;
        new_frontier.set(*up, to);
        to_versions.push((*up, to));
    }

    // Decide the refresh action (§5.4). Each source's change scan over
    // the interval since the previous frontier is read once, here: it
    // answers the NO_DATA test and, if there is data, is the source delta
    // the INCREMENTAL path differentiates.
    let mut source_changes = Vec::with_capacity(to_versions.len());
    if !initial && !evolved {
        let prev = prev.ok_or_else(|| DtError::internal("refresh of uninitialized DT"))?;
        for (up, to) in &to_versions {
            let from = prev
                .get(*up)
                .ok_or_else(|| DtError::internal(format!("no frontier entry for {up}")))?;
            // A source behind its frontier entry has nothing new to show;
            // only differentiating across it is an error (below).
            let regressed = *to < from;
            let cs = if regressed {
                ChangeSet::empty()
            } else {
                env.store(*up)?.changes_between(from, *to)?
            };
            source_changes.push((*up, cs, regressed));
        }
        // NO_DATA: no source changed since the previous frontier.
        if source_changes.iter().all(|(_, cs, _)| cs.is_empty()) {
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
        let (rows, input_rows) = evaluate_at(env.view(&is_dt), plan, refresh_ts)?;
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

    // INCREMENTAL (§5.5): neither initial nor evolved, so the source
    // changes were gathered above.
    let prev = prev.ok_or_else(|| DtError::internal("refresh of uninitialized DT"))?;
    let mut per_entity = HashMap::new();
    let mut change_volume = 0usize;
    for (up, mut cs, regressed) in source_changes {
        if regressed {
            return Err(DtError::internal("source version regressed"));
        }
        if env.is_dt(up) {
            // DT storage carries the $ROW_ID column; the defining query
            // sees only the payload. Strip ids and re-consolidate (a
            // row whose id churned but whose payload did not is not a
            // logical change).
            cs = ChangeSet::new(strip_row_ids(cs.inserts()), strip_row_ids(cs.deletes()))
                .consolidate();
        }
        change_volume += cs.len();
        per_entity.insert(up, cs);
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
        let new = SnapshotProvider::new(env.view(&is_dt), refresh_ts);
        let ctx = DeltaContext {
            old: &old,
            new: &new,
            changes: &changes,
            outer_join: env.outer_join,
        };
        if insert_only {
            delta_unconsolidated(plan, &ctx)?
        } else {
            // The DT's own rows at `base` are the plan's output at the
            // previous frontier (§6.1): only refreshes write a DT, and
            // this one holds its refresh lock.
            let mut dt_at = Frontier::at(prev.refresh_ts);
            dt_at.set(dt, base);
            let provider = FrontierProvider {
                env,
                frontier: &dt_at,
            };
            let stored = StoredOutput {
                provider: &provider,
                entity: dt,
            };
            delta_over_stored(plan, &ctx, stored)?
        }
    };

    // Merge: assign $ROW_IDs against the pinned base version (through the
    // store's row index: no stored row is walked), validate the §6.1
    // invariants, stage. The lookup lives for this one statement: it has
    // let go of the index when `prepare_change_at` asks for it.
    let changes = assign_change_rows(&store.row_lookup(base)?, &d)?;
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for c in changes {
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

/// A refresh between steps 1 and 2: it holds its DT's refresh lock and
/// has everything its row work reads pinned. Whoever drops one without
/// installing it must abort `txn` to release the lock.
pub(crate) struct PinnedRefresh {
    dt: EntityId,
    refresh_ts: Timestamp,
    initial: bool,
    pub(crate) txn: Txn,
    started: Instant,
    /// `Err` when the defining query no longer binds (a user-fixable
    /// error, §3.3.3): there is no row work, and install records a failed
    /// refresh.
    work: Result<PinnedWork, String>,
}

struct PinnedWork {
    env: RefreshEnv,
    plan: LogicalPlan,
    /// The entities the bound plan scans.
    upstream: Vec<EntityId>,
    refresh_mode: RefreshMode,
    /// The frontier of the DT's previous refresh; `None` before the first.
    prev: Option<Frontier>,
    /// Query evolution (§5.4): the upstream set or a source schema changed
    /// since the stored contents were computed. Carries the fingerprint
    /// the catalog takes once the reinitialization has installed.
    evolved: Option<u64>,
    /// Re-check the DVS guarantee after install (§6.1 level 4).
    validate: bool,
}

impl PinnedRefresh {
    /// Step 2: the row work, against the pinned environment only. A user
    /// error (§3.3.3) yields a request whose install records the failure;
    /// any other error is returned, and the caller aborts `txn`.
    pub(crate) fn compute(self) -> DtResult<RefreshInstall> {
        let kind = match self.work {
            Err(error) => InstallKind::Failed { error },
            Ok(work) => {
                match compute_refresh(&work, self.dt, self.refresh_ts, self.initial) {
                    Ok(computed) => InstallKind::Staged {
                        store: Arc::clone(&work.env.tables[&self.dt]),
                        prep: computed.prep.map(Box::new),
                        outcome: computed.outcome,
                        source_rows: computed.source_rows,
                        new_frontier: computed.new_frontier,
                        upstream: work.upstream,
                        evolved: work.evolved,
                        validate_plan: work.validate.then(|| Box::new(work.plan)),
                    },
                    Err(e) if e.is_user_error() => InstallKind::Failed {
                        error: e.to_string(),
                    },
                    Err(e) => return Err(e),
                }
            }
        };
        Ok(RefreshInstall {
            dt: self.dt,
            refresh_ts: self.refresh_ts,
            initial: self.initial,
            txn: self.txn,
            started: self.started,
            kind,
        })
    }
}

/// A refresh between steps 2 and 3: its row work is done and staged, and
/// it still holds the DT's refresh lock. This is what travels through the
/// engine's install queue.
pub(crate) struct RefreshInstall {
    pub(crate) dt: EntityId,
    pub(crate) refresh_ts: Timestamp,
    initial: bool,
    pub(crate) txn: Txn,
    started: Instant,
    kind: InstallKind,
}

impl RefreshInstall {
    /// True when the refresh failed with a user error before install.
    pub(crate) fn is_failed(&self) -> bool {
        matches!(self.kind, InstallKind::Failed { .. })
    }
}

enum InstallKind {
    /// The delta computed and staged; install validates and publishes it.
    Staged {
        store: Arc<TableStore>,
        /// `None` for NO_DATA: only the data timestamp advances. Boxed
        /// to keep the `Failed` variant small.
        prep: Option<Box<PreparedChange>>,
        outcome: RefreshOutcome,
        source_rows: usize,
        new_frontier: Frontier,
        /// Every entity the refresh read.
        upstream: Vec<EntityId>,
        /// See [`PinnedWork::evolved`].
        evolved: Option<u64>,
        /// The bound plan, carried only when DVS validation is on.
        validate_plan: Option<Box<LogicalPlan>>,
    },
    /// The refresh failed with a user error; install records the failure
    /// (error counter, log) so the bookkeeping serializes with everything
    /// else.
    Failed { error: String },
}

/// Step 3, the refresh's part of the install leader's batch (under the
/// engine write lock): run the staged change through the shared core,
/// then record the refresh — refresh map, frontier, catalog, refresh log,
/// an initial refresh's `Active` state and, with `report_now`, the
/// scheduler — or, for a refresh that failed with a user error, record
/// the failure. The WAL records this produces are pushed onto
/// `wal_records` for the batch's one append.
///
/// `Err(DtError::Conflict)` means validation lost — the DT's version moved
/// past the prepared base, or the DT or a table it read was dropped since
/// the pin; the refresh transaction is aborted and nothing was installed.
pub(crate) fn install_refresh(
    st: &mut EngineState,
    req: RefreshInstall,
    report_now: bool,
    wal_records: &mut Vec<WalRecord>,
) -> DtResult<Installed> {
    let RefreshInstall {
        dt,
        refresh_ts,
        initial,
        txn,
        started,
        kind,
    } = req;
    // A drop since the pin aborts this refresh (and, via the round driver,
    // its cone) with a typed conflict.
    let dropped = |id: EntityId| {
        format!("entity {id} read by the refresh of {dt} was dropped before its install")
    };

    let (commit_ts, outcome, source_rows) = match kind {
        InstallKind::Failed { error } => {
            // §3.3.3: the refresh installs nothing and counts against the
            // DT; the next one (a later data timestamp) tries again.
            check_admitted(st, &txn, [dt], dropped)?;
            st.txn.abort(&txn)?;
            st.catalog.record_dt_error(dt)?;
            st.push_catalog_record(SideEffect::None, wal_records);
            let outcome = RefreshOutcome {
                action: RefreshAction::Failed(error),
                changed_rows: 0,
                dt_rows: 0,
                work_units: st.config.cost_model.fixed_units,
            };
            (refresh_ts, outcome, 0)
        }
        InstallKind::Staged {
            store,
            prep,
            outcome,
            source_rows,
            new_frontier,
            upstream,
            evolved,
            validate_plan,
        } => {
            // One stamp for the storage version and the refresh-map
            // entry; NO_DATA stages nothing and only takes the stamp.
            let live = std::iter::once(dt).chain(upstream.iter().copied());
            let staged = prep.map(|p| (dt, Arc::clone(&store), *p));
            let (commit_ts, mut installed) = validate_and_install(
                st,
                &txn,
                live,
                dropped,
                staged.into_iter().collect(),
                Some(refresh_ts),
            )?;

            // Metadata: the refresh-ts → version entry (§5.3), the new
            // frontier, and — only now that the reinitialization is in —
            // the evolved fingerprint and upstream set (§5.4).
            if let Some(fingerprint) = evolved {
                if let Some(m) = st.catalog.get_mut(dt)?.as_dt_mut() {
                    m.definition_fingerprint = fingerprint;
                    m.upstream = upstream;
                }
            }
            let version = store.latest_version();
            st.refresh_map.record(dt, refresh_ts, version, commit_ts);
            let frontier: Vec<_> = new_frontier.iter().collect();
            st.frontiers.insert(dt, new_frontier);
            st.catalog.record_dt_success(dt)?;
            // The catalog image is captured after the success bookkeeping
            // so the record carries the error-counter reset and any
            // evolution update.
            if st.wal_enabled() {
                wal_records.push(WalRecord::Refresh {
                    dt,
                    txn: txn.id,
                    refresh_ts,
                    commit_ts,
                    install: installed.pop().map(|(_, record)| (commit_ts, record)),
                    version,
                    frontier,
                    catalog: st.catalog.to_bytes(),
                });
            }

            // DVS validation (§6.1 level 4), when configured: the stored
            // contents must equal the defining query at the data
            // timestamp.
            if let Some(plan) = &validate_plan {
                st.validate_dvs_invariant(dt, refresh_ts, plan)?;
            }
            // §3.1.2: marked under the install's lock, so nothing sees a
            // DT with a frontier that is still initializing.
            if initial {
                st.scheduler.mark_initialized(dt, refresh_ts)?;
                if st.catalog.get(dt)?.as_dt().map(|m| m.state) == Some(DtState::Initializing) {
                    st.catalog.set_dt_state(dt, DtState::Active, refresh_ts)?;
                }
                st.push_catalog_record(SideEffect::None, wal_records);
            }
            (commit_ts, outcome, source_rows)
        }
    };

    st.refresh_log.push(RefreshLogEntry {
        dt,
        refresh_ts,
        action: action_label(&outcome.action),
        changed_rows: outcome.changed_rows,
        dt_rows: outcome.dt_rows,
        initial,
        duration_micros: started.elapsed().as_micros() as u64,
        source_rows,
    });
    if report_now {
        let ended = st.now();
        st.report_refresh(dt, refresh_ts, &outcome, ended, wal_records)?;
    }
    Ok(Installed {
        commit_ts,
        refresh: Some(outcome),
    })
}

impl EngineState {
    /// Step 1: admit a refresh of `dt` to `refresh_ts` and pin what its
    /// row work reads, under the engine read lock. Returns `Err` — holding
    /// nothing — when the DT is gone, another refresh holds its lock, or
    /// it is already at or past `refresh_ts` (all typed
    /// [`DtError::Conflict`]), and on internal errors.
    pub(crate) fn pin_refresh(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
        initial: bool,
    ) -> DtResult<PinnedRefresh> {
        let started = Instant::now();
        let dropped = || DtError::Conflict(format!("refresh target {dt} was dropped"));
        let entity = self.catalog.get(dt).map_err(|_| dropped())?;
        if !entity.is_live() {
            return Err(dropped());
        }
        let meta = entity
            .as_dt()
            .ok_or_else(|| DtError::internal(format!("{dt} is not a DT")))?;

        // The per-DT refresh lock (§5.3), conflict-fast. Held from here
        // through install, it keeps the DT's frontier frozen.
        let txn = self.txn.begin_at(refresh_ts);
        let work = self
            .txn
            .try_lock(&txn, dt)
            .and_then(|()| self.pin_work(dt, refresh_ts, meta));
        match work {
            Ok(work) => Ok(PinnedRefresh {
                dt,
                refresh_ts,
                initial,
                txn,
                started,
                work,
            }),
            Err(e) => {
                let _ = self.txn.abort(&txn);
                Err(e)
            }
        }
    }

    /// The part of the pin step that runs with the refresh lock held. The
    /// inner `Err` is a defining query that no longer binds.
    fn pin_work(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
        meta: &DynamicTableMeta,
    ) -> DtResult<Result<PinnedWork, String>> {
        // Staleness: a frontier never moves backwards. An overlapping
        // round with a newer timestamp may already have refreshed this DT
        // past `refresh_ts`; it needs nothing from this one.
        let prev = self.frontiers.get(&dt);
        if let Some(prev) = prev.filter(|prev| prev.refresh_ts >= refresh_ts) {
            return Err(DtError::Conflict(format!(
                "a newer refresh of {dt} (ts {}) already installed at or past {refresh_ts}",
                prev.refresh_ts
            )));
        }

        // Rebind the defining query against the live catalog (§5.4).
        let bound = self.bind_definition(meta);
        let plan = match bound {
            Ok(bound) => bound.plan,
            // A `Catalog` error here means an upstream no longer resolves
            // (dropped) — as user-fixable as a binding error (§3.3.3), so
            // it fails this refresh; once the upstream is back, refreshes
            // resume.
            Err(e) if e.is_user_error() || matches!(e, DtError::Catalog(_)) => {
                return Ok(Err(e.to_string()))
            }
            Err(e) => return Err(e),
        };
        let upstream = plan.scanned_entities();
        let fingerprint = self.catalog.fingerprint(&upstream);
        Ok(Ok(PinnedWork {
            env: self.refresh_env(dt, &upstream)?,
            plan,
            upstream,
            refresh_mode: meta.refresh_mode,
            prev: prev.cloned(),
            evolved: (fingerprint != meta.definition_fingerprint).then_some(fingerprint),
            validate: self.config.validate_dvs,
        }))
    }

    /// Pin a [`RefreshEnv`] for `dt` and its scanned sources: `Arc` clones
    /// of the storage handles and refresh map plus the config the delta
    /// computation needs. O(#sources).
    fn refresh_env(&self, dt: EntityId, upstream: &[EntityId]) -> DtResult<RefreshEnv> {
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
            outer_join: self.config.outer_join,
            cost_model: self.config.cost_model,
        })
    }

    /// Report a finished refresh to the scheduler as of `ended` — the
    /// caller's clock: now for the round driver, the virtual completion
    /// time (after the warehouse duration) for manual refreshes and the
    /// simulated scheduler — and suspend the DT in the catalog when its
    /// consecutive failures reached the threshold (§3.3.3). The catalog
    /// record a suspension needs is pushed onto `wal_records` for the
    /// caller to append.
    pub(crate) fn report_refresh(
        &mut self,
        dt: EntityId,
        refresh_ts: Timestamp,
        outcome: &RefreshOutcome,
        ended: Timestamp,
        wal_records: &mut Vec<WalRecord>,
    ) -> DtResult<()> {
        if self.scheduler.report(dt, refresh_ts, outcome, ended)? {
            self.catalog
                .set_dt_state(dt, DtState::SuspendedOnErrors, ended)?;
            self.push_catalog_record(SideEffect::None, wal_records);
        }
        Ok(())
    }

    /// §6.1 level-4 validation: "if you run the defining query as of the
    /// data timestamp, you should get the same result as in the DT."
    fn validate_dvs_invariant(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
        plan: &LogicalPlan,
    ) -> DtResult<()> {
        let store = &self.tables[&dt];
        let mut stored = strip_row_ids(store.snapshot_latest().iter_rows());
        stored.sort();
        let is_dt = |id: EntityId| self.is_dt(id);
        let view = StorageView {
            tables: &self.tables,
            dt_entities: &is_dt,
            refresh_map: &self.refresh_map,
        };
        let (mut expected, _) = evaluate_at(view, plan, refresh_ts)?;
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
