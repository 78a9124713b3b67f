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
//! Every refresh runs through the one executor in
//! [`crate::parallel_refresh`] (or `Engine::prepare_refresh` +
//! `PreparedRefresh::install`): it pins under a brief engine read lock,
//! computes with no engine lock held and submits step 3 to the install
//! queue, whose install hands the outcome to the caller's reporter.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dt_catalog::{DtState, DynamicTableMeta, RefreshMode};
use dt_common::{Batch, DtError, DtResult, EntityId, PredicateSet, Row, Timestamp, VersionId};
use dt_exec::TableProvider;
use dt_ivm::{
    assign_change_rows, delta_over_stored, delta_unconsolidated, with_initial_row_ids,
    ChangeProvider, DeltaContext, MergeAction, OuterJoinStrategy, StoredOutput,
};
use dt_plan::LogicalPlan;
use dt_scheduler::{DtGraph, RefreshAction, RefreshOutcome};
use dt_storage::{ChangeSet, PreparedChange, TableStore};
use dt_txn::{Frontier, RefreshTsMap, Txn};
use parking_lot::Mutex;

use crate::durability::WalRecord;
use crate::install::{check_admitted, validate_and_install, Installed, RefreshInstalled, Report};
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

/// One source's change over one interval, as a refresh reads it.
pub(crate) struct SourceChange {
    /// The payload rows: a DT's `$ROW_ID`s stripped, then consolidated (a
    /// row whose id churned but whose payload did not is no logical
    /// change).
    rows: ChangeSet,
    /// The stored interval changed at all, ids included: the NO_DATA test
    /// (§5.4), which a DT whose row ids churned fails with no payload
    /// change.
    moved: bool,
}

/// Per-source change sets gathered for an interval.
struct IntervalChanges {
    per_entity: HashMap<EntityId, Arc<SourceChange>>,
}

impl ChangeProvider for IntervalChanges {
    fn changes(&self, entity: EntityId) -> DtResult<Cow<'_, ChangeSet>> {
        self.per_entity
            .get(&entity)
            .map(|change| Cow::Borrowed(&change.rows))
            .ok_or_else(|| DtError::internal(format!("no change set gathered for {entity}")))
    }
}

/// An INCREMENTAL refresh's delta, kept for the plan to hand over to the
/// DT's readers once the install lands: the DT's version it was merged
/// into, and the delta in payload form, consolidated.
pub(crate) struct Delta {
    base: VersionId,
    rows: ChangeSet,
}

/// A change set of a plan: computed once by whoever asks first, the
/// others waiting for it; an error is every asker's.
type SharedChange = Arc<OnceLock<DtResult<Arc<SourceChange>>>>;

/// The change sets one plan's refreshes share, one per `(source, from
/// version, to version)`: the first refresh that asks for one scans it,
/// and a second asking meanwhile waits for that scan. An upstream DT's
/// INCREMENTAL delta is registered under the interval its install
/// created, so a reader whose interval is exactly that one reads the
/// delta and scans nothing. A source's sets are dropped once every DT of
/// the plan that reads it has read it, the rest with the plan.
pub(crate) struct PlanChanges {
    /// The sources that go through the cache: read by two or more of the
    /// plan's DTs, or themselves a DT of the plan that another one reads.
    sources: Mutex<HashMap<EntityId, SharedSource>>,
}

/// One source of a [`PlanChanges`].
#[derive(Default)]
struct SharedSource {
    /// The plan's DTs that read the source and have not read it yet.
    unread: usize,
    /// Its change sets, by `(from version, to version)`.
    sets: HashMap<(VersionId, VersionId), SharedChange>,
}

impl PlanChanges {
    /// The cache of a plan over `order`, whose DTs read what `graph` says
    /// they read; `None` when no source is shared and no DT of the plan
    /// reads another.
    pub(crate) fn for_plan(order: &[EntityId], graph: &DtGraph) -> Option<PlanChanges> {
        let mut sources: HashMap<EntityId, SharedSource> = HashMap::new();
        for source in order.iter().flat_map(|dt| graph.reads(*dt)) {
            sources.entry(*source).or_default().unread += 1;
        }
        let in_plan: HashSet<&EntityId> = order.iter().collect();
        sources.retain(|source, shared| shared.unread > 1 || in_plan.contains(source));
        (!sources.is_empty()).then(|| PlanChanges {
            sources: Mutex::new(sources),
        })
    }

    /// True when a DT of the plan reads `dt`: its refresh keeps its
    /// INCREMENTAL delta for [`PlanChanges::hand_over`].
    pub(crate) fn hands_over(&self, dt: EntityId) -> bool {
        self.sources.lock().contains_key(&dt)
    }

    /// Register `delta`, an installed refresh of `dt`, as `dt`'s change
    /// over the interval its install created, up to `version`.
    pub(crate) fn hand_over(&self, dt: EntityId, delta: Delta, version: VersionId) {
        let change = SourceChange {
            moved: !delta.rows.is_empty(),
            rows: delta.rows,
        };
        if let Some(shared) = self.sources.lock().get_mut(&dt) {
            let slot = shared.sets.entry((delta.base, version)).or_default();
            let _ = slot.set(Ok(Arc::new(change)));
        }
    }

    /// `source`'s change over (`from`, `to`]: the plan's shared one when
    /// `plan` shares `source`, else scanned for this refresh alone.
    fn read(
        plan: Option<&PlanChanges>,
        env: &RefreshEnv,
        source: EntityId,
        from: VersionId,
        to: VersionId,
    ) -> DtResult<Arc<SourceChange>> {
        let scan = || -> DtResult<Arc<SourceChange>> {
            let stored = env.store(source)?.changes_between(from, to)?;
            let moved = !stored.is_empty();
            let rows = match env.is_dt(source) {
                true => ChangeSet::new(
                    strip_row_ids(stored.inserts()),
                    strip_row_ids(stored.deletes()),
                )
                .consolidate(),
                false => stored,
            };
            Ok(Arc::new(SourceChange { rows, moved }))
        };
        let Some(plan) = plan else { return scan() };
        // The lock is let go at the end of this statement, before any scan.
        let slot = (plan.sources.lock().get_mut(&source))
            .map(|shared| Arc::clone(shared.sets.entry((from, to)).or_default()));
        let Some(slot) = slot else { return scan() };
        let change = slot.get_or_init(scan).clone();
        // This reader has its set: the last one to get here drops the
        // source's sets, after the lock is let go.
        let _read = {
            let mut sources = plan.sources.lock();
            match sources.get_mut(&source) {
                Some(shared) if shared.unread > 1 => {
                    shared.unread -= 1;
                    None
                }
                Some(_) => sources.remove(&source),
                None => None,
            }
        };
        change
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
    /// Action and row counts, as the scheduler wants them reported.
    outcome: RefreshOutcome,
    /// The staged storage change; `None` for NO_DATA (only metadata moves).
    prep: Option<PreparedChange>,
    /// The frontier the DT advances to at install.
    new_frontier: Frontier,
    /// An INCREMENTAL delta the plan hands over to the DT's readers.
    delta: Option<Delta>,
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
    shared: Option<&PlanChanges>,
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
    // A DT with no frontier yet gets its initial refresh (§3.1.2).
    let (initial, evolved) = (prev.is_none(), work.evolved.is_some());
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
    let is_dt = |id: EntityId| env.is_dt(id);
    let view = env.view(&is_dt);
    for up in upstream {
        let to = view.pinned_at(*up, refresh_ts)?.version;
        new_frontier.set(*up, to);
        to_versions.push((*up, to));
    }

    // Decide the refresh action (§5.4). Each source's change over the
    // interval since the previous frontier is read once, here (or shared
    // with the plan's other refreshes): it answers the NO_DATA test and,
    // if there is data, is the source delta the INCREMENTAL path
    // differentiates.
    let mut source_changes = Vec::with_capacity(to_versions.len());
    if let Some(prev) = prev.filter(|_| !evolved) {
        for (up, to) in &to_versions {
            let from = prev
                .get(*up)
                .ok_or_else(|| DtError::internal(format!("no frontier entry for {up}")))?;
            // A source behind its frontier entry (`None`) has nothing new
            // to show; only differentiating across it is an error (below).
            let change = match *to < from {
                true => None,
                false => Some(PlanChanges::read(shared, env, *up, from, *to)?),
            };
            source_changes.push((*up, change));
        }
        // NO_DATA: no source changed since the previous frontier.
        if !source_changes
            .iter()
            .any(|(_, change)| change.as_ref().is_some_and(|c| c.moved))
        {
            // §3.3.2: uses negligible resources and no warehouse
            // compute; only the data timestamp advances.
            let dt_rows = store.row_count_at(base)?;
            return Ok(ComputedRefresh {
                outcome: RefreshOutcome {
                    action: RefreshAction::NoData,
                    changed_rows: 0,
                    dt_rows,
                    source_rows: 0,
                },
                prep: None,
                new_frontier,
                delta: None,
            });
        }
    }

    let full = initial || evolved || refresh_mode == RefreshMode::Full;
    if full {
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
                source_rows: input_rows,
            },
            prep: Some(prep),
            new_frontier,
            delta: None,
        });
    }

    // INCREMENTAL (§5.5): neither initial nor evolved, so the source
    // changes were gathered above.
    let prev = prev.ok_or_else(|| DtError::internal("refresh of uninitialized DT"))?;
    let mut per_entity = HashMap::with_capacity(source_changes.len());
    for (up, change) in source_changes {
        let change = change.ok_or_else(|| DtError::internal("source version regressed"))?;
        per_entity.insert(up, change);
    }
    let change_volume = per_entity.values().map(|change| change.rows.len()).sum();
    // §5.5.2 insert-only specialization: when the plan structure
    // guarantees differentiation introduces no redundant actions and
    // every source change is pure inserts, the final consolidation
    // pass is provably a no-op and is skipped.
    let insert_only = per_entity
        .values()
        .all(|change| change.rows.deletes().is_empty())
        && dt_ivm::merge::is_insert_only_safe(plan);
    let changes = IntervalChanges { per_entity };

    let d = {
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
            outer_join: OuterJoinStrategy::Direct,
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
    // The DT's readers in the plan read `d` as its change over the
    // interval this install creates: the payload form a scan of it would
    // give, consolidated like one. The insert-only `d` has nothing to
    // cancel (§5.5.2), so sorting it in place is its consolidation.
    let delta = shared
        .filter(|shared| shared.hands_over(dt))
        .map(|_| Delta {
            base,
            rows: if insert_only { d.sorted() } else { d },
        });
    Ok(ComputedRefresh {
        outcome: RefreshOutcome {
            action: RefreshAction::Incremental,
            changed_rows: changed,
            dt_rows,
            source_rows: change_volume,
        },
        prep: Some(prep),
        new_frontier,
        delta,
    })
}

/// A refresh between steps 1 and 2: it holds its DT's refresh lock and
/// has everything its row work reads pinned. Whoever drops one without
/// installing it must abort `txn` to release the lock.
pub(crate) struct PinnedRefresh {
    dt: EntityId,
    refresh_ts: Timestamp,
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
    /// Step 2: the row work, against the pinned environment and the
    /// change sets `shared` by its plan only. A user error (§3.3.3) yields
    /// a request whose install records the failure; any other error is
    /// returned, and the caller aborts `txn`. Also returns the delta the
    /// plan hands over, when it wants the DT's.
    pub(crate) fn compute(
        self,
        shared: Option<&PlanChanges>,
    ) -> DtResult<(RefreshInstall, Option<Delta>)> {
        let (kind, delta) = match self.work {
            Err(error) => (InstallKind::Failed { error }, None),
            Ok(work) => match compute_refresh(&work, self.dt, self.refresh_ts, shared) {
                Ok(computed) => (
                    InstallKind::Staged {
                        store: Arc::clone(&work.env.tables[&self.dt]),
                        prep: computed.prep.map(Box::new),
                        outcome: computed.outcome,
                        new_frontier: computed.new_frontier,
                        upstream: work.upstream,
                        evolved: work.evolved,
                        validate_plan: work.validate.then(|| Box::new(work.plan)),
                    },
                    computed.delta,
                ),
                Err(e) if e.is_user_error() => (
                    InstallKind::Failed {
                        error: e.to_string(),
                    },
                    None,
                ),
                Err(e) => return Err(e),
            },
        };
        let install = RefreshInstall {
            dt: self.dt,
            refresh_ts: self.refresh_ts,
            txn: self.txn,
            started: self.started,
            kind,
        };
        Ok((install, delta))
    }
}

/// A refresh between steps 2 and 3: its row work is done and staged, and
/// it still holds the DT's refresh lock. This is what travels through the
/// engine's install queue.
pub(crate) struct RefreshInstall {
    pub(crate) dt: EntityId,
    pub(crate) refresh_ts: Timestamp,
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
/// an initial refresh's `Active` state — or, for a refresh that failed
/// with a user error, record the failure; then hand the outcome to
/// `report`. The WAL records this produces are pushed onto `wal_records`
/// for the batch's one append.
///
/// `Err(DtError::Conflict)` means validation lost — the DT's version moved
/// past the prepared base, or the DT or a table it read was dropped since
/// the pin; the refresh transaction is aborted and nothing was installed.
pub(crate) fn install_refresh(
    st: &mut EngineState,
    req: RefreshInstall,
    report: Report,
    wal_records: &mut Vec<WalRecord>,
) -> DtResult<Installed> {
    let RefreshInstall {
        dt,
        refresh_ts,
        txn,
        started,
        kind,
    } = req;
    // The refresh lock, held since the pin, froze the frontier: a DT
    // without one is initializing (§3.1.2).
    let initial = !st.frontiers.contains_key(&dt);
    // A drop since the pin aborts this refresh (and, via the round driver,
    // its cone) with a typed conflict.
    let dropped = |id: EntityId| {
        format!("entity {id} read by the refresh of {dt} was dropped before its install")
    };

    let (commit_ts, outcome, version) = match kind {
        InstallKind::Failed { error } => {
            // §3.3.3: the refresh installs nothing and counts against the
            // DT; the next one (a later data timestamp) tries again.
            check_admitted(st, &txn, [dt], dropped)?;
            st.txn.abort(&txn)?;
            // A failed initialization counts when the scheduler reports it
            // (`run_scheduler_until`); `CREATE DYNAMIC TABLE` returns it to
            // its caller instead.
            if !initial {
                st.record_refresh_error(dt, wal_records)?;
            }
            let outcome = RefreshOutcome {
                action: RefreshAction::Failed(error),
                changed_rows: 0,
                dt_rows: 0,
                source_rows: 0,
            };
            (refresh_ts, outcome, None)
        }
        InstallKind::Staged {
            store,
            prep,
            outcome,
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
            // frontier, and the catalog's refresh rule, which takes the
            // evolved fingerprint and upstream set (§5.4) only now that
            // the reinitialization is in.
            let version = store.latest_version();
            st.refresh_map.record(dt, refresh_ts, version, commit_ts);
            let frontier: Vec<_> = new_frontier.iter().collect();
            st.frontiers.insert(dt, new_frontier);
            let evolved = evolved.map(|fingerprint| (fingerprint, upstream));
            st.record_refreshed(dt, evolved.as_ref())?;
            if st.wal_enabled() {
                wal_records.push(WalRecord::Refresh {
                    dt,
                    txn: txn.id,
                    refresh_ts,
                    commit_ts,
                    install: installed.pop().map(|(_, record)| record),
                    version,
                    frontier,
                    evolved,
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
                st.scheduler.mark_initialized(dt, refresh_ts);
            }
            (commit_ts, outcome, Some(version))
        }
    };

    st.refresh_log.push(RefreshLogEntry {
        dt,
        refresh_ts,
        action: outcome.action.label(),
        changed_rows: outcome.changed_rows,
        dt_rows: outcome.dt_rows,
        initial,
        duration_micros: started.elapsed().as_micros() as u64,
        source_rows: outcome.source_rows,
    });
    report(st, &outcome, wal_records)?;
    Ok(Installed {
        commit_ts,
        refresh: Some(RefreshInstalled {
            outcome,
            initial,
            version,
        }),
    })
}

impl EngineState {
    /// Step 1: admit a refresh of `dt` to `refresh_ts` and pin what its
    /// row work reads, under the engine read lock. A DT with no frontier
    /// yet gets its initial refresh (§3.1.2), whoever asks. Returns `Err` —
    /// holding nothing — when the DT is gone, another refresh holds its
    /// lock, or it is already at or past `refresh_ts` (all typed
    /// [`DtError::Conflict`]), and on internal errors.
    pub(crate) fn pin_refresh(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
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
        if self.reads_itself(dt, &upstream) {
            let name = &self.catalog.get(dt)?.name;
            let error = DtError::Binding(format!("dynamic table '{name}' reads itself"));
            return Ok(Err(error.to_string()));
        }
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
    /// of the storage handles and the refresh map. O(#sources).
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
        })
    }

    /// The catalog side of an installed refresh, at install and at WAL
    /// replay alike: the consecutive-error count starts afresh, an
    /// evolved definition takes its new fingerprint and upstream set
    /// (§5.4), and an `INITIALIZING` DT becomes `ACTIVE` (§3.1.2). The
    /// catalog is touched only when a value changes, so a NO_DATA refresh
    /// keeps its generation and cached snapshot.
    pub(crate) fn record_refreshed(
        &mut self,
        dt: EntityId,
        evolved: Option<&(u64, Vec<EntityId>)>,
    ) -> DtResult<()> {
        let meta = (self.catalog.get(dt)?.as_dt())
            .ok_or_else(|| DtError::internal(format!("{dt} is not a DT")))?;
        let evolved = evolved.filter(|(fingerprint, upstream)| {
            (*fingerprint, upstream) != (meta.definition_fingerprint, &meta.upstream)
        });
        let activates = meta.state == DtState::Initializing;
        if meta.error_count == 0 && !activates && evolved.is_none() {
            return Ok(());
        }
        if let Some(meta) = self.catalog.get_mut(dt)?.as_dt_mut() {
            meta.error_count = 0;
            if activates {
                meta.state = DtState::Active;
            }
            if let Some((fingerprint, upstream)) = evolved {
                meta.definition_fingerprint = *fingerprint;
                meta.upstream = upstream.clone();
            }
        }
        Ok(())
    }

    /// Count a failed refresh against `dt` (§3.3.3) and push its status
    /// record onto `wal_records`.
    pub(crate) fn record_refresh_error(&mut self, dt: EntityId, wal_records: &mut Vec<WalRecord>) -> DtResult<()> {
        self.catalog.record_dt_error(dt)?;
        self.push_dt_status(dt, wal_records)
    }

    /// Report a finished refresh to the scheduler as of `ended` — now,
    /// except under a simulation, where a refresh ends after its warehouse
    /// time (see [`crate::simulate`]) — and, when it failed, suspend the
    /// live DT in the catalog once the catalog's consecutive-error counter
    /// has reached the threshold (§3.3.3). The status record a suspension
    /// needs is pushed onto `wal_records` for the caller to append.
    pub(crate) fn report_refresh(
        &mut self,
        dt: EntityId,
        refresh_ts: Timestamp,
        outcome: &RefreshOutcome,
        ended: Timestamp,
        wal_records: &mut Vec<WalRecord>,
    ) -> DtResult<()> {
        self.scheduler.report(dt, refresh_ts, outcome, ended);
        let live = self.catalog.get(dt).ok().filter(|e| e.is_live());
        let errors = live.and_then(|e| e.as_dt()).map_or(0, |m| m.error_count);
        let failed = matches!(outcome.action, RefreshAction::Failed(_));
        if failed && errors >= self.config.error_suspend_threshold {
            self.catalog.set_dt_state(dt, DtState::SuspendedOnErrors)?;
            self.push_dt_status(dt, wal_records)?;
        }
        Ok(())
    }

    /// True when a definition reading `upstream` reads `dt` itself,
    /// directly or through the DTs that read it — a view re-pointed under
    /// the definition can do that. O(the DTs reachable from `upstream`).
    fn reads_itself(&self, dt: EntityId, upstream: &[EntityId]) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = upstream.to_vec();
        while let Some(up) = stack.pop() {
            if up == dt {
                return true;
            }
            if seen.insert(up) {
                stack.extend(self.dt_reads.get(&up).into_iter().flatten());
            }
        }
        false
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

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{row, Column, DataType, Duration, Schema, TargetLag, TxnId};

    /// A plan over `dts`, each `(id, the entities it reads)`.
    fn plan_over(dts: &[(u64, &[u64])]) -> Option<PlanChanges> {
        let graph = DtGraph::new(dts.iter().map(|(id, reads)| {
            let lag = TargetLag::Duration(Duration::from_mins(1));
            (EntityId(*id), lag, false, reads.iter().copied().map(EntityId).collect())
        }));
        let order: Vec<EntityId> = dts.iter().map(|(id, _)| EntityId(*id)).collect();
        PlanChanges::for_plan(&order, &graph)
    }

    /// A refresh environment over one base table `t` (entity 1) of two
    /// versions after its first, and a plan of `readers` DTs that all
    /// read `t`.
    fn shared_table(readers: u64) -> (EntityId, RefreshEnv, PlanChanges) {
        let t = EntityId(1);
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let store = TableStore::new(schema, Timestamp::EPOCH, TxnId(0));
        for (i, x) in [1i64, 2].into_iter().enumerate() {
            store.commit_change(vec![row!(x)], vec![], Timestamp::from_secs(i as i64 + 1), TxnId(1)).unwrap();
        }
        let env = RefreshEnv {
            tables: HashMap::from([(t, Arc::new(store))]),
            dt_ids: BTreeSet::new(),
            refresh_map: Arc::default(),
        };
        let dts: Vec<(u64, &[u64])> = (2..2 + readers).map(|dt| (dt, &[1u64][..])).collect();
        (t, env, plan_over(&dts).expect("t is read twice"))
    }

    #[test]
    fn nothing_shared_is_no_cache() {
        // Two DTs over two tables; a chain's DT read by nobody in the plan.
        assert!(plan_over(&[(2, &[1]), (3, &[4])]).is_none());
        assert!(plan_over(&[(2, &[1]), (3, &[4, 5])]).is_none());
        let plan = plan_over(&[(2, &[1]), (3, &[2, 4])]).expect("3 reads 2");
        assert!(plan.hands_over(EntityId(2)) && !plan.hands_over(EntityId(3)));
    }

    #[test]
    fn two_askers_of_one_interval_share_one_scan() {
        let (t, env, plan) = shared_table(3);
        let barrier = std::sync::Barrier::new(2);
        let read = || {
            barrier.wait();
            PlanChanges::read(Some(&plan), &env, t, VersionId(0), VersionId(2)).unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(read), s.spawn(read));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.rows.inserts(), [row!(1i64), row!(2i64)]);
        assert_eq!(env.tables[&t].change_scans(), 1);
        // The third reader's interval is another scan, and with it every
        // reader of `t` has read it: the plan lets go of `t`'s sets.
        PlanChanges::read(Some(&plan), &env, t, VersionId(1), VersionId(2)).unwrap();
        assert_eq!(env.tables[&t].change_scans(), 2);
        assert!(plan.sources.lock().is_empty());
        PlanChanges::read(None, &env, t, VersionId(0), VersionId(2)).unwrap();
        assert_eq!(env.tables[&t].change_scans(), 3);
    }

    #[test]
    fn a_failed_scan_is_every_askers_error_and_never_an_empty_change() {
        let (t, env, plan) = shared_table(2);
        let read = || PlanChanges::read(Some(&plan), &env, t, VersionId(0), VersionId(7)).map(|_| ());
        let first = read().unwrap_err();
        assert!(matches!(first, DtError::Storage(_)), "{first:?}");
        assert_eq!(read().unwrap_err(), first);
        assert_eq!(env.tables[&t].change_scans(), 1);
    }

    #[test]
    fn a_handed_over_delta_is_read_without_a_scan_and_dropped_by_its_last_reader() {
        // `u` (2) over `t`, and `r` (3) over `u`; the environment has no
        // store for `u`, so a scan of it would fail.
        let (t, env, _) = shared_table(2);
        let plan = plan_over(&[(2, &[1]), (3, &[2])]).expect("3 reads 2");
        let u = EntityId(2);
        let rows = ChangeSet::new(vec![row!(5i64)], vec![]);
        let delta = Delta { base: VersionId(3), rows: rows.clone() };
        plan.hand_over(u, delta, VersionId(4));
        let change = PlanChanges::read(Some(&plan), &env, u, VersionId(3), VersionId(4)).unwrap();
        assert_eq!((&change.rows, change.moved), (&rows, true));
        assert!(plan.sources.lock().is_empty());
        // Its last reader has read it: `u` goes through the cache no
        // more, and a read scans (here, with no store, in vain).
        assert!(PlanChanges::read(Some(&plan), &env, u, VersionId(2), VersionId(4)).is_err());
        assert_eq!(env.tables[&t].change_scans(), 0);
    }
}
