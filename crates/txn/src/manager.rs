//! The transaction manager: snapshots, locks, commits.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dt_common::{Clock, DtError, DtResult, EntityId, Timestamp, TxnId};

use crate::hlc::Hlc;
use crate::lock_manager::LockManager;

/// A live transaction handle.
#[derive(Debug, Clone)]
pub struct Txn {
    /// This transaction's id.
    pub id: TxnId,
    /// Snapshot timestamp: reads resolve table versions as of this instant
    /// (largest commit timestamp ≤ snapshot, §5.3).
    pub snapshot_ts: Timestamp,
}

/// Transaction manager shared by the whole database instance. It tracks
/// live transactions only — id and snapshot timestamp — from `begin` until
/// commit or abort.
pub struct TxnManager {
    hlc: Hlc,
    state: Mutex<ManagerState>,
    /// Entity admission locks: which transaction currently holds each
    /// entity, plus the pessimistic wait-queues and per-table lock modes.
    /// The paper's conflict management is lock-based: each DT is locked
    /// when a refresh begins and unlocked after it commits (§5.3). Shared
    /// (`Arc`) so the engine's commit path can park on a wait-queue
    /// without holding any manager or engine lock.
    locks: Arc<LockManager>,
}

struct ManagerState {
    next_txn: u64,
    /// Live transactions and their snapshot timestamps.
    active: HashMap<TxnId, Timestamp>,
}

impl TxnManager {
    /// Build over a physical clock.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        TxnManager {
            hlc: Hlc::new(clock),
            state: Mutex::new(ManagerState {
                next_txn: 1,
                active: HashMap::new(),
            }),
            locks: Arc::new(LockManager::new()),
        }
    }

    /// Access the clock for timestamp generation outside transactions.
    pub fn hlc(&self) -> &Hlc {
        &self.hlc
    }

    /// The shared admission lock table. Callers that may park on a
    /// pessimistic wait-queue clone this `Arc` and acquire through it
    /// directly, so no manager (or engine) lock is held while blocked.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// Begin a transaction with a snapshot at the current HLC time.
    pub fn begin(&self) -> Txn {
        let snapshot_ts = self.hlc.tick();
        self.begin_at(snapshot_ts)
    }

    /// Pin a read timestamp for an MVCC snapshot read: an HLC tick, so the
    /// returned instant is strictly after every commit issued so far — a
    /// reader resolving each table's version as of this timestamp sees all
    /// committed data and none of what commits later (§5.3). Lock-free
    /// queries capture one of these together with a per-table version
    /// [`Frontier`](crate::Frontier) and then never consult shared state
    /// again.
    pub fn read_timestamp(&self) -> Timestamp {
        self.hlc.tick()
    }

    /// Begin a transaction with an explicit snapshot timestamp (time-travel
    /// queries and DT refreshes, which read as of their refresh timestamp).
    pub fn begin_at(&self, snapshot_ts: Timestamp) -> Txn {
        let mut st = self.state.lock();
        let id = TxnId(st.next_txn);
        st.next_txn += 1;
        st.active.insert(id, snapshot_ts);
        Txn { id, snapshot_ts }
    }

    /// Try to lock `entity` for `txn`. Fails (without blocking) when another
    /// transaction holds the lock — the caller (the refresh scheduler)
    /// treats that as "previous refresh still running" and skips (§3.3.3);
    /// the optimistic commit path treats it as a serialization conflict.
    pub fn try_lock(&self, txn: &Txn, entity: EntityId) -> DtResult<()> {
        self.locks.try_lock(txn.id, entity)
    }

    /// Try to lock every entity in `entities` for `txn`, atomically: either
    /// all locks are acquired in one critical section or none are. The
    /// all-or-nothing shape is what lets optimistic transaction commits
    /// take their per-table write locks without deadlock — two committers
    /// over overlapping table sets can never each hold half of the other's
    /// locks, because acquisition is indivisible.
    pub fn try_lock_all(
        &self,
        txn: &Txn,
        entities: impl IntoIterator<Item = EntityId>,
    ) -> DtResult<()> {
        self.locks.try_lock_all(txn.id, entities)
    }

    /// True when `entity` is currently locked.
    pub fn is_locked(&self, entity: EntityId) -> bool {
        self.locks.is_locked(entity)
    }

    /// End a live transaction: forget it and release its admission locks
    /// (waking any queued waiters). A transaction that already ended is a
    /// [`DtError::Txn`]. The optimistic commit path ends its transaction
    /// this way once the versions it stamped with an already-minted commit
    /// timestamp are installed (every version of a multi-table commit must
    /// carry the same stamp).
    pub fn finish(&self, txn: &Txn) -> DtResult<()> {
        if self.state.lock().active.remove(&txn.id).is_none() {
            return Err(DtError::Txn(format!("transaction {} is not active", txn.id)));
        }
        self.locks.release_all(txn.id);
        Ok(())
    }

    /// Commit: assign a commit timestamp from the HLC (totally ordered per
    /// account), release locks, and return the commit timestamp for the
    /// storage layer to stamp new table versions with.
    pub fn commit(&self, txn: &Txn) -> DtResult<Timestamp> {
        let commit_ts = self.hlc.tick();
        self.finish(txn)?;
        Ok(commit_ts)
    }

    /// Abort: release locks, forget the transaction, and tick the HLC —
    /// like a commit, which mints its timestamp, so the timestamps a
    /// history mints (and the WAL records carrying them) do not depend on
    /// which of its transactions abort.
    pub fn abort(&self, txn: &Txn) -> DtResult<()> {
        self.finish(txn)?;
        self.hlc.tick();
        Ok(())
    }

    /// True while the transaction is live (begun, neither committed nor
    /// aborted). The optimistic install path checks this during its
    /// validation phase — *before* publishing any table version — so a
    /// transaction aborted out from under a queued commit fails cleanly
    /// instead of after its writes are already visible.
    pub fn is_active(&self, txn: &Txn) -> bool {
        self.state.lock().active.contains_key(&txn.id)
    }

    /// Number of currently live transactions.
    pub fn active_txns(&self) -> usize {
        self.state.lock().active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::SimClock;

    fn mgr() -> TxnManager {
        TxnManager::new(Arc::new(SimClock::new()))
    }

    #[test]
    fn read_timestamps_are_pinned_after_every_commit() {
        let m = mgr();
        let t = m.begin();
        let commit_ts = m.commit(&t).unwrap();
        let r1 = m.read_timestamp();
        assert!(r1 > commit_ts, "a read snapshot must see all commits");
        let r2 = m.read_timestamp();
        assert!(r2 > r1);
    }

    #[test]
    fn begin_commit_assigns_ordered_timestamps() {
        let m = mgr();
        let t1 = m.begin();
        let t2 = m.begin();
        assert!(t1.snapshot_ts < t2.snapshot_ts);
        let c1 = m.commit(&t1).unwrap();
        let c2 = m.commit(&t2).unwrap();
        assert!(c1 < c2);
    }

    #[test]
    fn double_commit_or_abort_rejected() {
        let m = mgr();
        let t = m.begin();
        m.commit(&t).unwrap();
        assert!(matches!(m.commit(&t), Err(DtError::Txn(_))));
        let t = m.begin();
        m.abort(&t).unwrap();
        assert!(matches!(m.abort(&t), Err(DtError::Txn(_))));
    }

    #[test]
    fn locks_conflict_and_release_on_commit() {
        let m = mgr();
        let e = EntityId(1);
        let t1 = m.begin();
        let t2 = m.begin();
        m.try_lock(&t1, e).unwrap();
        // Re-entrant for the same txn.
        m.try_lock(&t1, e).unwrap();
        let err = m.try_lock(&t2, e).unwrap_err();
        assert!(err.is_conflict(), "lock failures are typed conflicts: {err:?}");
        m.commit(&t1).unwrap();
        assert!(!m.is_locked(e));
        m.try_lock(&t2, e).unwrap();
        m.abort(&t2).unwrap();
        assert!(!m.is_locked(e));
    }

    #[test]
    fn abort_then_commit_rejected() {
        let m = mgr();
        let t = m.begin();
        m.abort(&t).unwrap();
        let err = m.commit(&t).unwrap_err();
        assert!(
            !err.is_conflict(),
            "lifecycle errors are not conflicts: {err:?}"
        );
    }

    #[test]
    fn try_lock_all_is_all_or_nothing() {
        let m = mgr();
        let (a, b, c) = (EntityId(1), EntityId(2), EntityId(3));
        let t1 = m.begin();
        let t2 = m.begin();
        m.try_lock(&t1, b).unwrap();
        // t2 wants {a, b, c}; b is held by t1, so nothing is acquired.
        let err = m.try_lock_all(&t2, [a, b, c]).unwrap_err();
        assert!(err.is_conflict(), "got {err:?}");
        assert!(!m.is_locked(a));
        assert!(!m.is_locked(c));
        // Releasing b lets the whole set go through, re-entrantly for
        // entities t2 already holds.
        m.abort(&t1).unwrap();
        m.try_lock_all(&t2, [a, b]).unwrap();
        m.try_lock_all(&t2, [a, b, c]).unwrap();
        assert!(m.is_locked(a) && m.is_locked(b) && m.is_locked(c));
        m.commit(&t2).unwrap();
        assert!(!m.is_locked(a) && !m.is_locked(b) && !m.is_locked(c));
    }

    #[test]
    fn finish_ends_the_transaction_and_releases_locks() {
        let m = mgr();
        let e = EntityId(7);
        let t = m.begin();
        m.try_lock(&t, e).unwrap();
        m.finish(&t).unwrap();
        assert!(!m.is_active(&t));
        assert!(!m.is_locked(e));
        // Already finished: a second finish is rejected.
        assert!(matches!(m.finish(&t), Err(DtError::Txn(_))));
    }

    #[test]
    fn begin_at_uses_explicit_snapshot() {
        let m = mgr();
        let t = m.begin_at(Timestamp::from_secs(1234));
        assert_eq!(t.snapshot_ts, Timestamp::from_secs(1234));
    }

    #[test]
    fn terminal_state_stays_bounded_under_commit_churn() {
        let m = mgr();
        for i in 0..10_000 {
            let t = m.begin();
            if i % 3 == 0 {
                m.abort(&t).unwrap();
            } else {
                m.commit(&t).unwrap();
            }
        }
        assert_eq!(m.active_txns(), 0);
    }
}
