//! The install pipeline: the one writer of the engine state. A
//! transaction's write set ([`crate::PreparedCommit`]), every refresh —
//! whoever runs it, through the refresh executor — and every other change
//! (DDL, grants, warehouses, the scheduler's bookkeeping:
//! `Engine::mutate`) become part of the database
//! only here. A refresh *is* a transaction (§5.3): both arrive with their
//! row work done against pinned versions and need the same thing —
//! validate, stamp, log, publish, all or nothing, durable before visible
//! (§6.1).
//!
//! Requests ride one [`dt_txn::CommitQueue`] as a tagged [`Install`]. The
//! **leader** (`install_batch`) takes the engine write lock once per batch
//! and runs every commit and refresh through one core
//! (`validate_and_install`):
//!
//! 1. the request's transaction is still active;
//! 2. every entity it writes — and, for a refresh, reads — is live in the
//!    catalog: a `DROP` leaves the store behind for `UNDROP`, so the
//!    version check alone would publish into an orphan and lose the
//!    writes;
//! 3. a [`dt_storage::CommitGuard`] per touched store in ascending entity
//!    order, and every prepared change validated against its guard (the
//!    base must still be the latest version: first committer wins)
//!    **before anything installs** — the guards also exclude writers that
//!    drive a store directly, past the engine lock;
//! 4. one commit timestamp minted with [`dt_txn::Hlc::tick_after`] past
//!    every guarded chain and, for a refresh, past its data timestamp, so
//!    it can never regress behind a chain it extends;
//! 5. the physical install records taken for the WAL, the versions
//!    installed — nothing can fail after step 3, so a multi-table commit
//!    is fully in or not at all, and with the write lock held no snapshot
//!    can fall between two installs — and the transaction committed at
//!    the stamp.
//!
//! A refresh then records itself (refresh map, frontier, catalog,
//! scheduler, refresh log: `crate::refresh::install_refresh`). A mutation
//! runs its closure over the state and contributes its WAL records only
//! when it returns `Ok`. The whole batch, all three kinds mixed, reaches
//! the WAL in **one** append and one fsync before the write lock drops —
//! `wal_append`, private to this module, is the log's only append site;
//! if the append fails, every acknowledgement in the batch becomes that
//! error, because the changes are already in place and none of them may
//! pass for durable.
//!
//! Admission guarantees batch-mates touch disjoint tables and DTs, so
//! outcomes are independent: one request's conflict never disturbs
//! another's install.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dt_common::{DtError, DtResult, EntityId, Timestamp, VersionId};
use dt_scheduler::RefreshOutcome;
use dt_storage::{CommitGuard, PreparedChange, TableStore, VersionInstallRecord};
use dt_txn::{CommitQueue, Txn};

use crate::durability::WalRecord;
use crate::engine::Engine;
use crate::refresh::{install_refresh, RefreshInstall};
use crate::state::EngineState;
use crate::transaction::is_serialization_conflict;

/// One table's share of a staged change: the entity, its store, and the
/// version built against a pinned base.
pub(crate) type StagedChange = (EntityId, Arc<TableStore>, PreparedChange);

/// A transaction's install-ready state: the manager handle plus each
/// touched table's staged change, in ascending entity order.
pub(crate) struct CommitRequest {
    pub(crate) txn: Txn,
    pub(crate) prepared: Vec<StagedChange>,
}

/// What travels through the install queue.
pub(crate) enum Install {
    /// A transaction's write set.
    Commit(CommitRequest),
    /// A refresh, and what its install reports once it has recorded
    /// itself.
    Refresh {
        request: RefreshInstall,
        report: Report,
    },
    /// Any other change to the engine state (see [`Engine::mutate`]).
    Mutate(Mutation),
}

/// A change to the engine state run by the install leader: it mutates the
/// state and pushes the WAL records that make it durable onto the list it
/// is given.
pub(crate) type Mutation =
    Box<dyn FnOnce(&mut EngineState, &mut Vec<WalRecord>) -> DtResult<()> + Send>;

/// What a refresh's install does with its outcome, in the same batch (the
/// caller's choice, see `crate::parallel_refresh`), pushing any WAL
/// records it needs onto the list it is given.
pub(crate) type Report =
    Box<dyn FnOnce(&mut EngineState, &RefreshOutcome, &mut Vec<WalRecord>) -> DtResult<()> + Send>;

/// The acknowledgement of one installed request.
pub(crate) struct Installed {
    /// The stamp on every version the request installed (`refresh_ts` for
    /// a refresh that failed with a user error, which installs nothing;
    /// `EPOCH` for a mutation, which stamps no version).
    pub(crate) commit_ts: Timestamp,
    /// What a refresh's install did; `None` for a transaction commit or a
    /// mutation.
    pub(crate) refresh: Option<RefreshInstalled>,
}

/// What one refresh's install did.
pub(crate) struct RefreshInstalled {
    /// The outcome its reporter was handed.
    pub(crate) outcome: RefreshOutcome,
    /// The install was its DT's initialization.
    pub(crate) initial: bool,
    /// The DT's version after the install (`None` for a failed refresh):
    /// the one it created, or for NO_DATA the one it already had.
    pub(crate) version: Option<VersionId>,
}

/// How one kind of request has used the queue and the engine write lock.
#[derive(Default)]
pub(crate) struct KindCounters {
    /// Requests that went through the queue.
    pub(crate) submitted: AtomicU64,
    /// Write-lock acquisitions that installed at least one such request.
    pub(crate) lock_acquisitions: AtomicU64,
    /// Most such requests installed under one acquisition.
    pub(crate) max_batch: AtomicU64,
}

impl KindCounters {
    /// Record that one write-lock acquisition installs `n` such requests.
    fn record_batch(&self, n: usize) {
        if n > 0 {
            self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
            self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
        }
    }
}

/// State shared by every handle of one engine that lives *outside* the
/// engine lock: the install queue (submitters hold no engine lock while
/// enqueueing), the pipeline's telemetry, and the round driver's settings.
pub(crate) struct InstallShared {
    queue: CommitQueue<Install, DtResult<Installed>>,
    pub(crate) commit: KindCounters,
    pub(crate) refresh: KindCounters,
    /// Transactions committed by the pipeline / lost to a serialization
    /// conflict anywhere on the commit path ([`InstallShared::record_conflict`]).
    pub(crate) commits: AtomicU64,
    pub(crate) conflicts: AtomicU64,
    /// Parallel rounds driven so far.
    pub(crate) rounds: AtomicU64,
    /// Worker-pool size for parallel rounds.
    pub(crate) threads: AtomicUsize,
}

impl InstallShared {
    pub(crate) fn new(durable: bool) -> Self {
        let queue = CommitQueue::new();
        // Durable batches pay one fsync each, so a new leader waits this
        // long for company before draining: well below one fsync and above
        // the arrival spread of concurrent committers (why it is a constant:
        // docs/DURABILITY.md). In-memory batches are free to form — their
        // window stays zero.
        const WAL_GATHER_WINDOW: std::time::Duration = std::time::Duration::from_micros(200);
        if durable {
            queue.set_gather(WAL_GATHER_WINDOW);
        }
        InstallShared {
            queue,
            commit: KindCounters::default(),
            refresh: KindCounters::default(),
            commits: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            threads: AtomicUsize::new(
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            ),
        }
    }

    /// Count one transaction commit lost to a serialization conflict: at
    /// admission, in the row work against a pinned base, or at install
    /// validation.
    pub(crate) fn record_conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
    }
}

impl Engine {
    /// Installs — commits, refreshes and other state changes — currently
    /// enqueued behind the in-flight batch (telemetry; tests use it to
    /// observe batching).
    pub fn pending_installs(&self) -> usize {
        self.installs.queue.pending()
    }

    /// Submit `request` to the install queue and block until a leader —
    /// possibly this thread — has installed the batch containing it.
    pub(crate) fn install(&self, request: Install) -> DtResult<Installed> {
        // A mutation has no transaction and counts as neither kind.
        let txn = match &request {
            Install::Commit(c) => Some((c.txn.clone(), &self.installs.commit)),
            Install::Refresh { request, .. } => Some((request.txn.clone(), &self.installs.refresh)),
            Install::Mutate(_) => None,
        };
        if let Some((_, counters)) = &txn {
            counters.submitted.fetch_add(1, Ordering::Relaxed);
        }
        let submitted = catch_unwind(AssertUnwindSafe(|| {
            self.installs
                .queue
                .submit(request, |batch| install_batch(self, batch))
        }));
        submitted.unwrap_or_else(|payload| {
            // The queue poisoned this request (a leader panicked with it
            // in the doomed batch, or this thread led and its own
            // processing panicked). The panic propagates — but first the
            // transaction must abort, or the locks it holds (admission
            // locks, a DT's refresh lock) would stay held forever.
            if let Some((txn, _)) = txn {
                let _ = self.txns.abort(&txn);
            }
            resume_unwind(payload)
        })
    }

    /// Run `change` over the engine state as the install leader — the one
    /// writer — and return its result. The WAL records `change` pushes
    /// reach the log in its batch's one append, and only if it returns
    /// `Ok`. `change` must not touch the engine: it runs under the write
    /// lock, possibly on another submitter's thread.
    pub(crate) fn mutate<R: Send + 'static>(
        &self,
        change: impl FnOnce(&mut EngineState, &mut Vec<WalRecord>) -> DtResult<R> + Send + 'static,
    ) -> DtResult<R> {
        let (result, received) = std::sync::mpsc::channel();
        self.install(Install::Mutate(Box::new(move |st, wal_records| {
            change(st, wal_records).map(|r| result.send(r).expect("the submitter is waiting"))
        })))?;
        Ok(received.try_recv().expect("an installed mutation sent its result"))
    }
}

/// The leader's body: take the engine write lock **once**, install the
/// whole batch under it, and return one outcome per request, in order.
pub(crate) fn install_batch(engine: &Engine, batch: Vec<Install>) -> Vec<DtResult<Installed>> {
    let mut st = engine.state.write();
    // Each commit's touched tables, captured before the requests are
    // consumed: the adaptive locking policy is fed per-table outcomes.
    let touched: Vec<Option<Vec<EntityId>>> = batch
        .iter()
        .map(|request| match request {
            Install::Commit(c) => Some(c.prepared.iter().map(|(id, _, _)| *id).collect()),
            Install::Refresh { .. } | Install::Mutate(_) => None,
        })
        .collect();
    let refreshes = batch.iter().filter(|r| matches!(r, Install::Refresh { .. })).count();
    engine.installs.commit.record_batch(touched.iter().flatten().count());
    engine.installs.refresh.record_batch(refreshes);

    let mut wal_records = Vec::new();
    let mut outcomes: Vec<DtResult<Installed>> = batch
        .into_iter()
        .map(|request| match request {
            Install::Commit(request) => install_commit(&st, request, &mut wal_records),
            Install::Refresh { request, report } => {
                install_refresh(&mut st, request, report, &mut wal_records)
            }
            Install::Mutate(change) => {
                let mut records = Vec::new();
                change(&mut st, &mut records)?;
                wal_records.append(&mut records);
                Ok(Installed {
                    commit_ts: Timestamp::EPOCH,
                    refresh: None,
                })
            }
        })
        .collect();
    // The batch is durable before the write lock drops: one append, one
    // fsync, of whatever each install returned — a failed refresh logged
    // its error counter, and an install that then failed DVS validation
    // is in the version chain all the same.
    if let Err(e) = st.wal_append(&wal_records) {
        for outcome in outcomes.iter_mut().filter(|o| o.is_ok()) {
            *outcome = Err(e.clone());
        }
    }

    // A failed append is a durability problem, not contention: it counts
    // as neither commit nor conflict and must not flip tables pessimistic.
    for (tables, outcome) in touched.iter().zip(&outcomes) {
        let Some(tables) = tables else { continue };
        match outcome {
            Ok(_) => {
                engine.installs.commits.fetch_add(1, Ordering::Relaxed);
                tables.iter().for_each(|id| engine.locking.record_commit(*id));
            }
            Err(e) if is_serialization_conflict(e) => {
                engine.installs.record_conflict();
                tables.iter().for_each(|id| engine.locking.record_abort(*id));
            }
            Err(_) => {}
        }
    }
    outcomes
}

impl EngineState {
    /// Append `records` as one framed, CRC'd, fsynced batch — while the
    /// leader holds the engine write lock, so durability strictly precedes
    /// visibility. The WAL's only append site. Crosses the auto-checkpoint
    /// threshold afterwards when enough bytes accumulated.
    fn wal_append(&self, records: &[WalRecord]) -> DtResult<()> {
        let Some(shared) = self.wal.as_ref().filter(|_| !records.is_empty()) else {
            return Ok(());
        };
        let payloads: Vec<Vec<u8>> = records.iter().map(|r| r.to_bytes()).collect();
        let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        shared.wal.lock().append_batch(&payloads)?;
        let total = shared.since_checkpoint.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if total >= shared.checkpoint_bytes {
            self.write_checkpoint()?;
        }
        Ok(())
    }
}

fn install_commit(
    st: &EngineState,
    request: CommitRequest,
    wal_records: &mut Vec<WalRecord>,
) -> DtResult<Installed> {
    let CommitRequest { txn, prepared } = request;
    let touched: Vec<EntityId> = prepared.iter().map(|(id, _, _)| *id).collect();
    let dropped =
        |id: EntityId| format!("touched table {id} was dropped after this transaction began");
    let (commit_ts, tables) = validate_and_install(st, &txn, touched, dropped, prepared, None)?;
    if st.wal_enabled() {
        wal_records.push(WalRecord::DmlCommit {
            commit_ts,
            txn: txn.id,
            tables,
        });
    }
    Ok(Installed {
        commit_ts,
        refresh: None,
    })
}

/// Steps 1 and 2 of the core: `txn` is active and every entity in `live`
/// exists. A dropped entity aborts `txn` with a typed conflict whose text
/// is `dropped(id)`.
pub(crate) fn check_admitted(
    st: &EngineState,
    txn: &Txn,
    live: impl IntoIterator<Item = EntityId>,
    dropped: impl Fn(EntityId) -> String,
) -> DtResult<()> {
    // A transaction can be retired out from under a queued install only
    // by driving the manager directly, but the check is what lets
    // `finish` run after the installs with no way to fail — the
    // inversion would publish versions while reporting failure.
    if !st.txn.is_active(txn) {
        return Err(DtError::Txn(format!(
            "transaction {} is not active",
            txn.id
        )));
    }
    for id in live {
        if !st.catalog.get(id).map(|e| e.is_live()).unwrap_or(false) {
            let _ = st.txn.abort(txn);
            return Err(DtError::Conflict(dropped(id)));
        }
    }
    Ok(())
}

/// The core every install runs through (see the module docs): validate
/// `changes` completely, then stamp and install them infallibly, and
/// commit `txn` at the stamp. `floor` is a refresh's data timestamp;
/// `changes` is empty for a NO_DATA refresh, which only takes a stamp.
/// Returns the commit timestamp and — on a durable engine — each change's
/// physical install record. On `Err` nothing was installed and, unless it
/// was already inactive, `txn` is aborted.
pub(crate) fn validate_and_install(
    st: &EngineState,
    txn: &Txn,
    live: impl IntoIterator<Item = EntityId>,
    dropped: impl Fn(EntityId) -> String,
    changes: Vec<StagedChange>,
    floor: Option<Timestamp>,
) -> DtResult<(Timestamp, Vec<(EntityId, VersionInstallRecord)>)> {
    check_admitted(st, txn, live, dropped)?;

    let (stores, preps): (Vec<_>, Vec<_>) = changes
        .into_iter()
        .map(|(id, store, prep)| (store, (id, prep)))
        .unzip();
    let guards: Vec<CommitGuard<'_>> = stores.iter().map(|s| s.commit_guard()).collect();
    for ((_, prep), guard) in preps.iter().zip(&guards) {
        if let Err(e) = guard.validate_prepared(prep) {
            drop(guards);
            let _ = st.txn.abort(txn);
            return Err(e);
        }
    }

    let floor = guards
        .iter()
        .map(|g| g.latest_commit_ts())
        .chain(floor)
        .max()
        .expect("an install has a staged change or a refresh timestamp");
    let commit_ts = st.txn.hlc().tick_after(floor);

    let mut records = Vec::new();
    for ((id, prep), guard) in preps.into_iter().zip(&guards) {
        if st.wal_enabled() {
            records.push((id, prep.install_record()));
        }
        guard.install_validated(prep, commit_ts, txn.id);
    }
    drop(guards);
    st.txn.finish(txn)?;
    Ok((commit_ts, records))
}
