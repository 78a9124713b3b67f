//! First-class transactions: snapshot-pinned reads plus buffered,
//! optimistically committed writes.
//!
//! [`crate::Session::begin`] returns a [`Transaction`] handle (SQL `BEGIN`
//! opens the same thing on the session itself). Every read inside the
//! transaction runs against **one** [`ReadSnapshot`] pinned at begin, so
//! re-reads are byte-identical no matter how many refreshes and DML
//! commits land concurrently. DML inside the transaction never touches
//! shared state: its row-level effect is computed against the pinned
//! snapshot overlaid with the transaction's own buffered writes
//! (read-your-own-writes), and buffered in a per-table write set.
//!
//! Statements reach a transaction through the one statement router — on
//! the handle, or through the session while its `BEGIN` is open — which
//! runs reads, `SHOW STATS` and DML and refuses DDL and refreshes. Abort
//! and a read-only commit go to the transaction manager on the [`Engine`]
//! handle and never wait for the engine lock.
//!
//! `COMMIT` applies the write set atomically under optimistic
//! first-committer-wins validation:
//!
//! 1. **Admission** — take `TxnManager` write locks on every touched table
//!    in one all-or-nothing step ([`dt_txn::TxnManager::try_lock_all`]).
//!    Per-table locks mean transactions over disjoint tables commit
//!    concurrently instead of serializing on one engine-wide lock; a held
//!    lock is an in-flight committer, i.e. a conflict.
//! 2. **Row work** — build each touched table's new version against the
//!    pinned base ([`dt_storage::TableStore::prepare_change_at`]) holding
//!    no lock at all: COW delete rewrites and partition minting happen
//!    while readers and other committers proceed.
//! 3. **Validation + install** — the prepared request enters the
//!    engine's install queue, the one refreshes install through too (the
//!    `install` module has the pipeline step by step). One **leader**
//!    takes the engine write lock *once for the whole batch* and, per
//!    transaction, validates **everything first** under per-table
//!    [`dt_storage::CommitGuard`]s, then mints one commit timestamp and
//!    only then installs. Past validation nothing can fail, so a
//!    multi-table commit is all-or-nothing: no reader, time-travel query,
//!    or crash can ever surface half of it. Followers are woken with
//!    their individual commit/conflict outcomes.
//!
//! `ROLLBACK` (or dropping the handle) discards the write set and aborts
//! the transaction; locks are only ever held from `prepare_commit` on,
//! and every commit/abort path (including dropping a [`PreparedCommit`])
//! releases them, so an abandoned handle can never leak a `TxnManager`
//! lock.

use std::collections::{BTreeMap, HashMap};

use dt_common::{Batch, DtError, DtResult, EntityId, PredicateSet, Row, Schema, Timestamp, TxnId};
use dt_exec::TableProvider;
use dt_plan::{BindOutput, LogicalPlan, ScalarExpr};
use dt_sql::ast;
use dt_txn::Txn;

use crate::dml::DmlChange;
use crate::engine::Engine;
use crate::install::{install_batch, CommitRequest, Install, StagedChange};
use crate::router::{self, Surface};
use crate::snapshot::ReadSnapshot;
use crate::state::{ExecResult, QueryResult};

/// True when an error is a serialization conflict — another transaction
/// committed (or is committing) a touched table first — or a deadlock
/// abort. Auto-commit statements retry on these; explicit transactions
/// surface them so the application can re-run its logic against fresh
/// data.
pub fn is_serialization_conflict(e: &DtError) -> bool {
    e.is_conflict() || e.is_deadlock()
}

/// The buffered effect of a transaction on one table.
#[derive(Debug, Default)]
struct TableWrites {
    inserts: Vec<Row>,
    deletes: Vec<Row>,
}

impl TableWrites {
    /// Fold one statement's change in. A delete first cancels against the
    /// transaction's own pending inserts (deleting a row you inserted in
    /// this transaction leaves no trace), so the surviving delete list
    /// always refers to rows of the pinned base version.
    fn fold(&mut self, inserts: Vec<Row>, deletes: Vec<Row>) {
        let mut pending = delete_counts(&deletes);
        remove_counted(&mut self.inserts, &mut pending);
        // Whatever did not cancel refers to rows of the base version.
        for d in &deletes {
            if let Some(n) = pending.get_mut(d).filter(|n| **n > 0) {
                *n -= 1;
                self.deletes.push(d.clone());
            }
        }
        self.inserts.extend(inserts);
    }

    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// What a transaction's statements run against: a
/// [`dt_exec::TableProvider`] view of "the pinned snapshot plus this
/// transaction's buffered writes" (base rows minus buffered deletes plus
/// buffered inserts), which gives them read-your-own-writes without
/// publishing anything; names resolve in the frozen catalog and queries
/// bind against the snapshot.
pub(crate) struct OverlayProvider<'a> {
    snap: &'a ReadSnapshot,
    writes: &'a BTreeMap<EntityId, TableWrites>,
}

impl TableProvider for OverlayProvider<'_> {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        Ok(dt_exec::batch::flatten(self.scan_batches(entity, None)?))
    }

    /// The pinned snapshot's columnar scan (zone-map pruned, zero-copy
    /// partition slices) with the buffered deletes cleared from the
    /// batches' selections, then the buffered inserts as one batch with
    /// `filter` applied. `filter` keeps or drops every copy of a row
    /// alike, and zone maps never prune a partition holding a row it
    /// keeps, so only the deletes it keeps can be, and must be, found.
    fn scan_batches(
        &self,
        entity: EntityId,
        filter: Option<&PredicateSet>,
    ) -> DtResult<Vec<Batch>> {
        let mut batches = self.snap.scan_batches(entity, filter)?;
        let Some(w) = self.writes.get(&entity) else {
            return Ok(batches);
        };
        let kept = |r: &&Row| filter.is_none_or(|f| f.matches_row(r));
        let mut pending = delete_counts(w.deletes.iter().filter(kept));
        // Each delete clears the first still-selected copy of its row in
        // scan order.
        let mut left: usize = pending.values().sum();
        for batch in &mut batches {
            if left == 0 {
                break;
            }
            let mut keep = vec![true; batch.len()];
            for (i, k) in keep.iter_mut().enumerate() {
                if left > 0 && batch.is_selected(i) {
                    if let Some(n) = pending.get_mut(&batch.row(i)).filter(|n| **n > 0) {
                        *n -= 1;
                        left -= 1;
                        *k = false;
                    }
                }
            }
            if keep.contains(&false) {
                batch.retain(&keep);
            }
        }
        if left > 0 {
            return Err(DtError::internal(
                "buffered delete not present in the pinned base version",
            ));
        }
        if let Some(first) = w.inserts.first() {
            let mut batch = Batch::from_rows(first.len(), &w.inserts);
            if let Some(f) = filter {
                f.apply(&mut batch);
            }
            batches.push(batch);
        }
        Ok(batches)
    }
}

/// `deletes` as a counted multiset.
fn delete_counts<'a>(deletes: impl IntoIterator<Item = &'a Row>) -> HashMap<&'a Row, usize> {
    let mut counts = HashMap::new();
    for d in deletes {
        *counts.entry(d).or_insert(0) += 1;
    }
    counts
}

/// Remove from `rows`, in one pass and keeping their order, the first
/// `pending[r]` copies of each row `r`; `pending` is left holding the
/// copies that were not found.
fn remove_counted(rows: &mut Vec<Row>, pending: &mut HashMap<&Row, usize>) {
    if pending.is_empty() {
        return;
    }
    rows.retain(|r| match pending.get_mut(r) {
        Some(n) if *n > 0 => {
            *n -= 1;
            false
        }
        _ => true,
    });
}

impl OverlayProvider<'_> {
    /// Resolve a DML target to a base table (errors for views and DTs).
    pub(crate) fn target_table(&self, name: &str) -> DtResult<(EntityId, Schema)> {
        crate::state::base_table(self.snap.catalog().resolve(name)?, name)
    }

    /// The catalog name of an entity (used to bind predicates and
    /// assignment expressions in the table's scope).
    pub(crate) fn entity_name(&self, id: EntityId) -> DtResult<String> {
        Ok(self.snap.catalog().get(id)?.name.clone())
    }

    /// Bind a query in the snapshot's catalog.
    pub(crate) fn bind_query(&self, q: &ast::Query) -> DtResult<BindOutput> {
        self.snap.bind_query(q)
    }

    /// Bind an `INSERT … VALUES` cell over the empty scope.
    pub(crate) fn bind_constant(&self, e: &ast::Expr) -> DtResult<ScalarExpr> {
        self.snap.bind_constant(e)
    }

    /// Execute a bound plan against the overlay, filters pushed into the
    /// scans first: the path every query inside the transaction takes.
    pub(crate) fn execute_plan(&self, plan: &LogicalPlan) -> DtResult<Vec<Row>> {
        dt_exec::execute(&dt_plan::push_down_filters(plan), self)
    }

    /// The overlay as a row scan: every base row cloned, the buffered
    /// deletes removed as first copies in scan order, the buffered
    /// inserts appended. The reference `dml`'s tests hold
    /// [`OverlayProvider::scan_batches`] to.
    #[cfg(test)]
    pub(crate) fn scan_by_rows(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        let mut rows = self.snap.scan(entity)?;
        if let Some(w) = self.writes.get(&entity) {
            let mut pending = delete_counts(&w.deletes);
            remove_counted(&mut rows, &mut pending);
            if pending.values().any(|n| *n > 0) {
                return Err(DtError::internal(
                    "buffered delete not present in the pinned base version",
                ));
            }
            rows.extend(w.inserts.iter().cloned());
        }
        Ok(rows)
    }
}

/// An explicit transaction over one engine: repeatable snapshot reads and
/// buffered DML, committed atomically with first-committer-wins
/// validation. Obtain one from [`crate::Session::begin`] /
/// [`crate::Session::begin_at`] or with SQL `BEGIN` through
/// [`crate::Session::execute`]. Dropping the handle without committing
/// rolls the transaction back.
pub struct Transaction {
    pub(crate) engine: Engine,
    snapshot: ReadSnapshot,
    txn: Txn,
    writes: BTreeMap<EntityId, TableWrites>,
    done: bool,
}

impl Transaction {
    /// Open a transaction: pin a snapshot (latest state, or the state at
    /// `at` for time-travel transactions) and register the transaction
    /// with the manager at the snapshot's read timestamp.
    pub(crate) fn start(engine: Engine, at: Option<Timestamp>) -> Transaction {
        let (snapshot, txn) = {
            let st = engine.state.read();
            let snap = st.capture_snapshot(at);
            let txn = st.txn.begin_at(snap.read_ts());
            (snap, txn)
        };
        Transaction::new(engine, snapshot, txn)
    }

    /// Open a transaction with `entities` already locked pessimistically.
    /// The locks are taken *before* the snapshot is pinned, so the
    /// snapshot is guaranteed to see each locked table's latest version —
    /// no committer can move it while the locks are held. This is what
    /// autocommit retries use after losing to a pessimistic table, and a
    /// session's `BEGIN` after its `COMMIT` lost: the retry plans against
    /// current state and cannot lose admission again. With no entities it
    /// is [`Transaction::start`].
    pub(crate) fn start_locked(engine: Engine, entities: &[EntityId]) -> DtResult<Transaction> {
        if entities.is_empty() {
            return Ok(Transaction::start(engine, None));
        }
        let txn = engine.txns.begin();
        if let Err(e) = engine.locks.lock_pessimistic(txn.id, entities.iter().copied()) {
            let _ = engine.txns.abort(&txn);
            return Err(e);
        }
        // Snapshot *after* the locks are held (see above). The manager
        // registered the transaction at `begin` with a snapshot timestamp
        // slightly before this snapshot's read timestamp; the transaction
        // reads through the snapshot.
        let snapshot = engine.state.read().capture_snapshot(None);
        Ok(Transaction::new(engine, snapshot, txn))
    }

    fn new(engine: Engine, snapshot: ReadSnapshot, txn: Txn) -> Transaction {
        Transaction {
            engine,
            snapshot,
            txn,
            writes: BTreeMap::new(),
            done: false,
        }
    }

    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.txn.id
    }

    /// The snapshot timestamp every read in this transaction resolves at.
    pub fn read_ts(&self) -> Timestamp {
        self.snapshot.read_ts()
    }

    /// The pinned snapshot (its frontier records the exact version of
    /// every table the transaction sees — and validates against at
    /// commit).
    pub fn snapshot(&self) -> &ReadSnapshot {
        &self.snapshot
    }

    /// Number of buffered row changes (inserts + deletes) awaiting commit.
    pub fn pending_changes(&self) -> usize {
        self.writes
            .values()
            .map(|w| w.inserts.len() + w.deletes.len())
            .sum()
    }

    /// The tables this transaction has buffered writes against.
    pub fn touched_tables(&self) -> Vec<EntityId> {
        self.writes.keys().copied().collect()
    }

    /// Execute one SQL statement inside the transaction: reads come from
    /// the pinned snapshot (overlaid with this transaction's own writes),
    /// DML is buffered until [`Transaction::commit`]. DDL, refreshes, and
    /// nested transaction control are rejected.
    pub fn execute(&mut self, sql: &str) -> DtResult<ExecResult> {
        router::route(Surface::Transaction(self), &dt_sql::parse(sql)?, sql, None)
    }

    /// Run a query against the transaction's pinned snapshot (plus its own
    /// buffered writes) and return rows + schema.
    pub fn query(&self, sql: &str) -> DtResult<QueryResult> {
        router::query(
            Surface::TransactionQuery(self),
            &dt_sql::parse(sql)?,
            sql,
            None,
        )
    }

    /// Run a query and return sorted rows (deterministic comparisons).
    pub fn query_sorted(&self, sql: &str) -> DtResult<Vec<Row>> {
        Ok(self.query(sql)?.into_sorted_rows())
    }

    /// The pinned snapshot overlaid with this transaction's writes.
    pub(crate) fn overlay(&self) -> OverlayProvider<'_> {
        OverlayProvider {
            snap: &self.snapshot,
            writes: &self.writes,
        }
    }

    /// `SELECT ... FOR UPDATE`: take the scanned base tables' admission
    /// locks **now**, pessimistically, and hold them until the transaction
    /// retires. Commit-time admission is re-entrant, so a later
    /// `prepare_commit` on the same tables just keeps the locks.
    ///
    /// Two subtleties:
    ///
    /// * The locks guarantee exclusion *from lock time on*, but this
    ///   transaction's snapshot was pinned at `BEGIN`. If a table's latest
    ///   version already moved past the snapshot, the rows being read are
    ///   stale and "locking" them would be a lie — that surfaces as a
    ///   typed conflict so the caller re-runs against fresh state (the
    ///   standard retry loop handles it).
    /// * Lock acquisition mid-transaction is exactly the mixed-mode edge
    ///   that can close a wait-for cycle; the manager's deadlock backstop
    ///   picks this transaction as the victim if so.
    pub(crate) fn lock_for_update(&self, plan: &LogicalPlan) -> DtResult<()> {
        let entities = plan.scanned_entities();
        for e in &entities {
            let ent = self.snapshot.catalog().get(*e)?;
            if !matches!(ent.kind, dt_catalog::EntityKind::Table { .. }) {
                return Err(DtError::Unsupported(format!(
                    "SELECT ... FOR UPDATE locks base tables; '{}' is a {}",
                    ent.name,
                    ent.kind.label()
                )));
            }
        }
        self.engine
            .locks
            .lock_pessimistic(self.txn.id, entities.iter().copied())?;
        for e in &entities {
            let latest = self
                .snapshot
                .table_store(*e)
                .map(|s| s.latest_version());
            if latest != self.snapshot.version_of(*e) {
                return Err(DtError::Conflict(format!(
                    "entity {e} changed after this transaction's snapshot; \
                     FOR UPDATE cannot lock stale rows — re-run the transaction"
                )));
            }
        }
        Ok(())
    }

    /// Plan one DML statement against the overlay and buffer its change.
    pub(crate) fn buffer(
        &mut self,
        plan: impl FnOnce(&OverlayProvider<'_>) -> DtResult<DmlChange>,
    ) -> DtResult<ExecResult> {
        let change = plan(&self.overlay())?;
        let slot = self.writes.entry(change.entity).or_default();
        slot.fold(change.inserts, change.deletes);
        if slot.is_empty() {
            // A statement whose effect nets to zero against this
            // transaction's own pending writes leaves no write-set entry
            // (and therefore takes no lock and validates nothing at
            // commit).
            self.writes.remove(&change.entity);
        }
        Ok(ExecResult::Count(change.count))
    }

    /// Commit: apply the whole write set atomically at one HLC commit
    /// timestamp, under optimistic first-committer-wins validation.
    /// Returns the commit timestamp. On a write-write conflict the
    /// transaction aborts, the write set is discarded, and the error
    /// satisfies [`is_serialization_conflict`].
    ///
    /// The install rides the engine's **install queue**: concurrent
    /// committers (and refreshes) batch behind one leader, which takes the
    /// engine write lock once per batch and installs every request inside
    /// it, each at its own commit timestamp. See
    /// [`Transaction::prepare_commit`] for the staged form.
    pub fn commit(self) -> DtResult<Timestamp> {
        self.prepare_commit()?.commit()
    }

    /// Run the local phases of a commit — admission and row work — and
    /// return a [`PreparedCommit`] ready for the install phase. The two
    /// phases:
    ///
    /// 1. **Admission** — per-table `TxnManager` write locks, all or
    ///    nothing; a held lock is another in-flight committer, i.e. a
    ///    conflict.
    /// 2. **Row work** — each table's new version is built against the
    ///    pinned base holding no lock at all.
    ///
    /// On any failure the transaction aborts and its locks release.
    /// Splitting the commit here lets callers (and tests) stage many
    /// committers before any of them enters the install queue.
    pub fn prepare_commit(mut self) -> DtResult<PreparedCommit> {
        self.done = true;
        let touched: Vec<EntityId> = self.writes.keys().copied().collect();
        let mut modes: std::collections::HashMap<EntityId, dt_txn::LockMode> =
            std::collections::HashMap::new();
        if !touched.is_empty() {
            // Phase 1 — admission through the lock manager, holding **no
            // engine lock**: optimistic tables fail fast (first committer
            // wins, exactly as before), pessimistic tables park on their
            // FIFO wait-queue. Parking must not pin the engine read lock —
            // the current holder needs the engine *write* lock to install
            // and release, so a parked reader-lock holder would deadlock
            // the whole pipeline.
            match self
                .engine
                .locks
                .acquire_for_commit(self.txn.id, touched.iter().copied())
            {
                Ok(acquired) => modes.extend(acquired),
                Err(e) => {
                    for id in &touched {
                        self.engine.locking.record_abort(*id);
                    }
                    if is_serialization_conflict(&e) {
                        self.engine.installs.record_conflict();
                    }
                    let _ = self.engine.txns.abort(&self.txn);
                    return Err(e);
                }
            }
        }

        // Phase 2 — row work, holding no lock at all: readers and
        // committers of other tables proceed concurrently. The write set
        // is moved, not cloned — commit owns `self`, and on any failure
        // the set is discarded anyway. `writes` is a BTreeMap, so the
        // prepared list comes out in ascending entity order — the order
        // the install phase acquires per-table commit guards in.
        let writes = std::mem::take(&mut self.writes);
        let mut prepared: Vec<StagedChange> = Vec::with_capacity(touched.len());
        for (id, w) in writes {
            let prep = (|| {
                let store = self.snapshot.table_store(id).ok_or_else(|| {
                    DtError::Storage(format!("no storage for {id} in the snapshot"))
                })?;
                let mut base = self.snapshot.version_of(id).ok_or_else(|| {
                    DtError::Storage(format!(
                        "no version of {id} at the transaction's snapshot"
                    ))
                })?;
                // Pessimistic rebase: a waiter admitted after parking has,
                // by construction, a stale snapshot — the writer it waited
                // for installed a newer version. The held admission lock
                // pins `latest` (no one else can move it), so a pure-insert
                // write set commutes and can simply re-base; rebasing would
                // silently misapply deletes/updates planned against rows
                // that may have changed, so those surface a conflict that
                // points at `SELECT ... FOR UPDATE`.
                if modes.get(&id) == Some(&dt_txn::LockMode::Pessimistic) {
                    let latest = store.latest_version();
                    if latest != base {
                        if w.deletes.is_empty() {
                            base = latest;
                        } else {
                            return Err(DtError::Conflict(format!(
                                "table {id} changed while this transaction waited \
                                 for its lock and the write set contains deletes; \
                                 re-run, reading the rows with SELECT ... FOR UPDATE"
                            )));
                        }
                    }
                }
                let p = store.prepare_change_at(base, w.inserts, w.deletes)?;
                Ok::<_, DtError>((id, store, p))
            })();
            match prep {
                Ok(sp) => prepared.push(sp),
                Err(e) => {
                    if is_serialization_conflict(&e) {
                        for (id, _, _) in &prepared {
                            self.engine.locking.record_abort(*id);
                        }
                        self.engine.locking.record_abort(id);
                        self.engine.installs.record_conflict();
                    }
                    let _ = self.engine.txns.abort(&self.txn);
                    return Err(e);
                }
            }
        }

        Ok(PreparedCommit {
            engine: self.engine.clone(),
            request: Some(CommitRequest {
                txn: self.txn.clone(),
                prepared,
            }),
        })
    }

    /// Roll back: discard every buffered write and abort the transaction.
    pub fn rollback(mut self) -> DtResult<()> {
        self.done = true;
        self.writes.clear();
        self.engine.txns.abort(&self.txn)
    }
}

impl Drop for Transaction {
    /// A dropped transaction rolls back: the write set dies with the
    /// handle and the manager marks the transaction aborted. No lock can
    /// leak — locks are only held inside `commit`, which always releases
    /// them on both outcomes.
    fn drop(&mut self) {
        if !self.done {
            let _ = self.engine.txns.abort(&self.txn);
        }
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.txn.id)
            .field("read_ts", &self.snapshot.read_ts())
            .field("touched_tables", &self.writes.len())
            .field("pending_changes", &self.pending_changes())
            .finish()
    }
}

/// A transaction's install-ready commit: admission passed (per-table
/// locks held) and every table's new version is built. Produced by
/// [`Transaction::prepare_commit`]; consumed by [`PreparedCommit::commit`]
/// (group-committed) or [`PreparedCommit::commit_unbatched`]. Dropping it
/// without committing aborts the transaction and releases its locks.
pub struct PreparedCommit {
    engine: Engine,
    request: Option<CommitRequest>,
}

impl PreparedCommit {
    /// The id of the transaction being committed.
    pub fn txn_id(&self) -> TxnId {
        self.request.as_ref().expect("present until consumed").txn.id
    }

    /// Finish the commit through the engine's install queue: enqueue the
    /// request and block until a leader — possibly this thread — installs
    /// the batch containing it. Returns this transaction's commit
    /// timestamp, or its individual conflict outcome.
    pub fn commit(mut self) -> DtResult<Timestamp> {
        let request = self.request.take().expect("present until consumed");
        if request.prepared.is_empty() {
            // Read-only transaction: nothing to validate or install.
            return self.engine.txns.commit(&request.txn);
        }
        Ok(self.engine.install(Install::Commit(request))?.commit_ts)
    }

    /// Finish the commit alone, as a batch of one: take the engine write
    /// lock for this transaction instead of riding the queue. Same
    /// validation and atomicity guarantees; one lock acquisition per
    /// commit.
    pub fn commit_unbatched(mut self) -> DtResult<Timestamp> {
        let request = self.request.take().expect("present until consumed");
        if request.prepared.is_empty() {
            return self.engine.txns.commit(&request.txn);
        }
        let installed = install_batch(&self.engine, vec![Install::Commit(request)])
            .pop()
            .expect("one outcome per request")?;
        Ok(installed.commit_ts)
    }

    /// Abandon the prepared commit: abort the transaction and release its
    /// per-table locks (dropping the handle does the same).
    pub fn abort(mut self) {
        if let Some(request) = self.request.take() {
            let _ = self.engine.txns.abort(&request.txn);
        }
    }
}

impl Drop for PreparedCommit {
    fn drop(&mut self) {
        if let Some(request) = self.request.take() {
            let _ = self.engine.txns.abort(&request.txn);
        }
    }
}

impl std::fmt::Debug for PreparedCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedCommit")
            .field("consumed", &self.request.is_none())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DbConfig;

    #[test]
    fn transaction_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Transaction>();
    }

    #[test]
    fn conflict_classifier_is_typed() {
        assert!(is_serialization_conflict(&DtError::conflict(
            "first committer wins"
        )));
        assert!(is_serialization_conflict(&DtError::deadlock(
            "t1 waits on entity e2 held by t2"
        )));
        // Only the variant counts, never the message.
        assert!(!is_serialization_conflict(&DtError::Txn(
            "entity e3 is locked by t7".into()
        )));
        assert!(!is_serialization_conflict(&DtError::Unsupported("x".into())));
    }

    #[test]
    fn a_commit_lost_at_admission_counts_one_conflict() {
        let engine = Engine::new(DbConfig::default());
        let session = engine.session();
        session.execute("CREATE TABLE t (k INT)").unwrap();
        let conflicts = || engine.commit_stats().conflicts;
        let begin_insert = |k: i64| {
            let mut txn = session.begin();
            txn.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
            txn
        };
        let (winner, loser) = (begin_insert(1), begin_insert(2));
        // The winner holds the table's admission lock from here to its
        // install; the optimistic loser fails fast at admission.
        let prepared = winner.prepare_commit().unwrap();
        let before = conflicts();
        let err = loser.prepare_commit().unwrap_err();
        assert!(is_serialization_conflict(&err), "{err:?}");
        assert_eq!(conflicts(), before + 1);
        prepared.commit().unwrap();
        assert_eq!(conflicts(), before + 1);
        let listed = engine
            .stats()
            .into_iter()
            .find(|(name, _)| *name == "conflicts");
        assert_eq!(listed, Some(("conflicts", before + 1)));
    }

    #[test]
    fn fold_cancels_deletes_against_own_inserts_as_a_multiset() {
        use dt_common::row;
        let (a, b, c, d) = (row!(1i64), row!(2i64), row!(3i64), row!(4i64));
        let mut w = TableWrites::default();
        w.fold(vec![a.clone(), b.clone(), a.clone()], vec![]);
        // Two of the three deletes of `a` cancel this transaction's own
        // inserts; the third, and `d`, refer to the base version.
        w.fold(
            vec![c.clone()],
            vec![a.clone(), d.clone(), a.clone(), a.clone()],
        );
        assert_eq!(w.inserts, [b, c]);
        assert_eq!(w.deletes, [a, d]);
    }

    #[test]
    fn counted_removal_takes_the_first_copies_and_reports_the_missing() {
        use dt_common::row;
        let mut rows = vec![row!(1i64), row!(2i64), row!(1i64), row!(3i64), row!(1i64)];
        let deletes = [row!(1i64), row!(9i64), row!(1i64)];
        let mut pending = delete_counts(&deletes);
        remove_counted(&mut rows, &mut pending);
        assert_eq!(rows, [row!(2i64), row!(3i64), row!(1i64)]);
        // The overlay scan turns a leftover into its internal error.
        assert_eq!(pending[&row!(1i64)], 0);
        assert_eq!(pending[&row!(9i64)], 1);
    }

    #[test]
    fn net_zero_statement_leaves_no_write_set_entry() {
        let engine = Engine::new(DbConfig::default());
        let session = engine.session();
        session.execute("CREATE TABLE t (k INT)").unwrap();
        let mut txn = session.begin();
        txn.execute("INSERT INTO t VALUES (1)").unwrap();
        txn.execute("DELETE FROM t WHERE k = 1").unwrap();
        assert_eq!(txn.pending_changes(), 0);
        assert!(txn.touched_tables().is_empty());
        txn.commit().unwrap();
    }

    #[test]
    fn debug_formats_a_transaction_with_buffered_writes() {
        let engine = Engine::new(DbConfig::default());
        let session = engine.session();
        session.execute("CREATE TABLE t (k INT)").unwrap();
        let mut txn = session.begin();
        txn.execute("INSERT INTO t VALUES (1)").unwrap();
        let text = format!("{txn:?}");
        assert!(text.contains("touched_tables: 1"), "{text}");
        assert!(text.contains("pending_changes: 1"), "{text}");
    }
}
