//! Per-table lock manager: the admission layer of the commit pipeline.
//!
//! Every writer — interactive transactions, autocommit DML, and DT
//! refreshes — claims its touched tables here before doing any row work.
//! Each table runs in one of two modes:
//!
//! * **Optimistic** (the default): `try_lock` answers immediately. A held
//!   lock is a typed [`DtError::Conflict`] and the caller aborts/retries —
//!   first-committer-wins, exactly the pre-lock-manager behavior. Disjoint
//!   writers never contend, so this fast path stays wait-free.
//! * **Pessimistic**: contended writers park on a per-table FIFO wait-queue
//!   (a ticket queue over one condvar) instead of churning through
//!   abort-retry. Waits are bounded by a configurable timeout; a timeout
//!   surfaces as a typed `Conflict` so existing retry loops classify it
//!   exactly like an optimistic abort.
//!
//! Multi-table acquisition is **all-or-nothing in canonical table order**
//! (ascending [`EntityId`]): either every requested lock is held on return
//! or none that this call took are. Because every commit acquires in the
//! same order, queued writers cannot deadlock among themselves. Cycles can
//! still arise on *mixed-mode edges* — e.g. `SELECT ... FOR UPDATE` takes a
//! lock mid-transaction, and the later commit's canonical order crosses it.
//! A wait-for chain walk runs before every park as a backstop; the
//! transaction that would close a cycle is chosen as the victim and gets a
//! typed [`DtError::Deadlock`].
//!
//! Mode selection is per table: a manual policy pin
//! (`ALTER TABLE ... SET LOCKING {OPTIMISTIC|PESSIMISTIC|AUTO}`) or, under
//! `Auto`, whatever the engine's adaptive policy last decided
//! ([`LockManager::set_adaptive_mode`]).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dt_common::{DtError, DtResult, EntityId, TxnId};

/// How a table's admission lock behaves *right now*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Conflict-abort on contention (first-committer-wins fast path).
    Optimistic,
    /// Block on a FIFO wait-queue on contention.
    Pessimistic,
}

impl LockMode {
    /// Lowercase name, as shown in `SHOW`/docs.
    pub fn as_str(self) -> &'static str {
        match self {
            LockMode::Optimistic => "optimistic",
            LockMode::Pessimistic => "pessimistic",
        }
    }
}

/// Who decides a table's [`LockMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPolicy {
    /// Pinned optimistic by `ALTER TABLE ... SET LOCKING OPTIMISTIC`.
    Optimistic,
    /// Pinned pessimistic by `ALTER TABLE ... SET LOCKING PESSIMISTIC`.
    Pessimistic,
    /// The adaptive policy flips the mode based on observed abort rate
    /// (the default).
    Auto,
}

impl LockPolicy {
    /// Lowercase name, as shown in `SHOW`/docs.
    pub fn as_str(self) -> &'static str {
        match self {
            LockPolicy::Optimistic => "optimistic",
            LockPolicy::Pessimistic => "pessimistic",
            LockPolicy::Auto => "auto",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TableLocking {
    policy: LockPolicy,
    current: LockMode,
}

impl Default for TableLocking {
    fn default() -> Self {
        TableLocking {
            policy: LockPolicy::Auto,
            current: LockMode::Optimistic,
        }
    }
}

struct LockState {
    /// Which transaction currently holds each entity's admission lock.
    locks: HashMap<EntityId, TxnId>,
    /// FIFO wait-queues: `(ticket, txn)` in arrival order. A waiter may
    /// take the lock only when it is free *and* the waiter's ticket is at
    /// the front, so wakeup order never reorders the queue.
    queues: HashMap<EntityId, VecDeque<(u64, TxnId)>>,
    /// The wait-for graph: each transaction waits on at most one entity at
    /// a time (acquisition is sequential), so one edge per waiter suffices.
    waiting_on: HashMap<TxnId, EntityId>,
    /// Per-table mode/policy; absent entries mean `Auto`/`Optimistic`.
    tables: HashMap<EntityId, TableLocking>,
    next_ticket: u64,
}

/// A point-in-time snapshot of the manager's counters. `SHOW STATS` and
/// the wire `Stats` request report them through `dt_core::Engine::stats`,
/// whose rustdoc is the one table of counter names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Wait episodes: times a transaction parked on a wait-queue.
    pub waits: u64,
    /// Total microseconds spent parked across all wait episodes.
    pub wait_time_us: u64,
    /// Waits abandoned because the lock timeout elapsed.
    pub timeouts: u64,
    /// Deadlock victims aborted by the cycle backstop.
    pub deadlocks: u64,
    /// Tables whose *current* mode is pessimistic.
    pub tables_pessimistic: u64,
    /// Mode changes applied by the adaptive policy (either direction).
    pub adaptive_flips: u64,
}

/// Default bound on a single multi-table acquisition's total wait.
pub const DEFAULT_WAIT_TIMEOUT: Duration = Duration::from_millis(500);

/// The admission lock table. See the module docs for the design; the
/// manager is shared (behind an `Arc`) between the [`TxnManager`]
/// (which releases a transaction's locks when it retires) and the engine
/// (which acquires without holding any engine-wide lock, so a parked
/// waiter never blocks readers or installers).
///
/// [`TxnManager`]: crate::TxnManager
pub struct LockManager {
    state: Mutex<LockState>,
    /// Notified whenever a lock is released or a waiter leaves a queue.
    available: Condvar,
    wait_timeout_us: AtomicU64,
    waits: AtomicU64,
    wait_time_us: AtomicU64,
    timeouts: AtomicU64,
    deadlocks: AtomicU64,
    adaptive_flips: AtomicU64,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

impl LockManager {
    /// An empty lock table with the default wait timeout.
    pub fn new() -> Self {
        LockManager {
            state: Mutex::new(LockState {
                locks: HashMap::new(),
                queues: HashMap::new(),
                waiting_on: HashMap::new(),
                tables: HashMap::new(),
                next_ticket: 0,
            }),
            available: Condvar::new(),
            wait_timeout_us: AtomicU64::new(DEFAULT_WAIT_TIMEOUT.as_micros() as u64),
            waits: AtomicU64::new(0),
            wait_time_us: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            deadlocks: AtomicU64::new(0),
            adaptive_flips: AtomicU64::new(0),
        }
    }

    /// Bound every subsequent acquisition's total wait (`DbConfig`'s
    /// `lock_wait_timeout` knob).
    pub fn set_wait_timeout(&self, timeout: Duration) {
        self.wait_timeout_us
            .store(timeout.as_micros() as u64, Ordering::Relaxed);
    }

    /// The current acquisition wait bound.
    pub fn wait_timeout(&self) -> Duration {
        Duration::from_micros(self.wait_timeout_us.load(Ordering::Relaxed))
    }

    // -- mode / policy ------------------------------------------------------

    /// Pin or unpin a table's locking policy (the `ALTER TABLE ... SET
    /// LOCKING` override). Pinning also sets the current mode; returning to
    /// `Auto` resets to optimistic and hands control back to the adaptive
    /// policy.
    pub fn set_policy(&self, entity: EntityId, policy: LockPolicy) {
        let mut st = self.state.lock();
        let entry = st.tables.entry(entity).or_default();
        entry.policy = policy;
        entry.current = match policy {
            LockPolicy::Optimistic | LockPolicy::Auto => LockMode::Optimistic,
            LockPolicy::Pessimistic => LockMode::Pessimistic,
        };
    }

    /// The table's configured policy (`Auto` when never altered).
    pub fn policy(&self, entity: EntityId) -> LockPolicy {
        self.state
            .lock()
            .tables
            .get(&entity)
            .map(|t| t.policy)
            .unwrap_or(LockPolicy::Auto)
    }

    /// The table's current mode.
    pub fn mode(&self, entity: EntityId) -> LockMode {
        self.state
            .lock()
            .tables
            .get(&entity)
            .map(|t| t.current)
            .unwrap_or(LockMode::Optimistic)
    }

    /// Apply an adaptive-policy decision. No-op (returns `false`) when the
    /// table's policy is pinned by `ALTER` or the mode already matches;
    /// otherwise flips the mode and counts an adaptive flip.
    pub fn set_adaptive_mode(&self, entity: EntityId, mode: LockMode) -> bool {
        let mut st = self.state.lock();
        let entry = st.tables.entry(entity).or_default();
        if entry.policy != LockPolicy::Auto || entry.current == mode {
            return false;
        }
        entry.current = mode;
        self.adaptive_flips.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drop a table's locking state entirely (table dropped from the
    /// catalog).
    pub fn forget_table(&self, entity: EntityId) {
        self.state.lock().tables.remove(&entity);
    }

    /// Counter snapshot for `SHOW STATS`.
    pub fn stats(&self) -> LockStats {
        let tables_pessimistic = {
            let st = self.state.lock();
            st.tables
                .values()
                .filter(|t| t.current == LockMode::Pessimistic)
                .count() as u64
        };
        LockStats {
            waits: self.waits.load(Ordering::Relaxed),
            wait_time_us: self.wait_time_us.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            tables_pessimistic,
            adaptive_flips: self.adaptive_flips.load(Ordering::Relaxed),
        }
    }

    // -- acquisition --------------------------------------------------------

    /// Non-blocking single-entity claim, regardless of the table's mode.
    /// Used by the refresh path ("previous refresh still running" →
    /// skip), which may hold the engine write lock and so must never
    /// park. Queued waiters count as
    /// contention so a barger cannot starve the FIFO queue.
    pub fn try_lock(&self, txn: TxnId, entity: EntityId) -> DtResult<()> {
        let mut st = self.state.lock();
        Self::try_one(&mut st, txn, entity).map(|_| ())
    }

    /// Non-blocking all-or-nothing claim of a whole entity set: either
    /// every lock is acquired in one critical section or none are.
    pub fn try_lock_all(&self, txn: TxnId, entities: impl IntoIterator<Item = EntityId>) -> DtResult<()> {
        let entities: Vec<EntityId> = entities.into_iter().collect();
        let mut st = self.state.lock();
        for e in &entities {
            if let Some(holder) = st.locks.get(e) {
                if *holder != txn {
                    return Err(DtError::Conflict(format!(
                        "entity {e} is locked by {holder}"
                    )));
                }
            } else if st.queues.get(e).is_some_and(|q| !q.is_empty()) {
                return Err(DtError::Conflict(format!(
                    "entity {e} has queued writers"
                )));
            }
        }
        for e in entities {
            st.locks.insert(e, txn);
        }
        Ok(())
    }

    /// Commit-time admission: claim every touched table in canonical
    /// (ascending `EntityId`) order, honoring each table's current mode —
    /// optimistic tables answer immediately with a typed `Conflict` on
    /// contention, pessimistic tables park FIFO under the shared timeout.
    /// All-or-nothing: on any failure, locks this call took are released.
    /// Returns the mode each entity was acquired under, so the caller
    /// knows which tables were serialized by waiting.
    pub fn acquire_for_commit(
        &self,
        txn: TxnId,
        entities: impl IntoIterator<Item = EntityId>,
    ) -> DtResult<Vec<(EntityId, LockMode)>> {
        self.acquire(txn, entities, None)
    }

    /// `SELECT ... FOR UPDATE`: claim the tables pessimistically (parking
    /// on contention regardless of configured mode), in canonical order,
    /// all-or-nothing. The locks are held until the transaction retires.
    pub fn lock_pessimistic(
        &self,
        txn: TxnId,
        entities: impl IntoIterator<Item = EntityId>,
    ) -> DtResult<()> {
        self.acquire(txn, entities, Some(LockMode::Pessimistic))
            .map(|_| ())
    }

    fn acquire(
        &self,
        txn: TxnId,
        entities: impl IntoIterator<Item = EntityId>,
        force: Option<LockMode>,
    ) -> DtResult<Vec<(EntityId, LockMode)>> {
        let mut sorted: Vec<EntityId> = entities.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let deadline = Instant::now() + self.wait_timeout();

        let mut st = self.state.lock();
        let mut newly_acquired: Vec<EntityId> = Vec::new();
        let mut out = Vec::with_capacity(sorted.len());
        for entity in sorted {
            let mode = force.unwrap_or_else(|| {
                st.tables
                    .get(&entity)
                    .map(|t| t.current)
                    .unwrap_or(LockMode::Optimistic)
            });
            let result = match mode {
                LockMode::Optimistic => Self::try_one(&mut st, txn, entity),
                LockMode::Pessimistic => self.wait_one(&mut st, txn, entity, deadline),
            };
            match result {
                Ok(took) => {
                    if took {
                        newly_acquired.push(entity);
                    }
                    out.push((entity, mode));
                }
                Err(e) => {
                    // All-or-nothing: undo this call's acquisitions (locks
                    // the transaction held before the call stay held).
                    for n in newly_acquired {
                        st.locks.remove(&n);
                    }
                    self.available.notify_all();
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Immediate claim attempt. `Ok(true)` = newly acquired, `Ok(false)` =
    /// already held by `txn` (re-entrant).
    fn try_one(st: &mut LockState, txn: TxnId, entity: EntityId) -> DtResult<bool> {
        match st.locks.get(&entity) {
            Some(holder) if *holder == txn => Ok(false),
            Some(holder) => Err(DtError::Conflict(format!(
                "entity {entity} is locked by {holder}"
            ))),
            None if st.queues.get(&entity).is_some_and(|q| !q.is_empty()) => Err(
                DtError::Conflict(format!("entity {entity} has queued writers")),
            ),
            None => {
                st.locks.insert(entity, txn);
                Ok(true)
            }
        }
    }

    /// Park FIFO until the lock is free and we are at the queue front, the
    /// deadline passes (typed `Conflict`), or waiting would close a
    /// wait-for cycle (typed `Deadlock`; the would-be waiter is the
    /// victim, since its edge is the one that completes the cycle).
    fn wait_one(
        &self,
        st: &mut parking_lot::MutexGuard<'_, LockState>,
        txn: TxnId,
        entity: EntityId,
        deadline: Instant,
    ) -> DtResult<bool> {
        match st.locks.get(&entity) {
            Some(holder) if *holder == txn => return Ok(false),
            None if st.queues.get(&entity).is_none_or(|q| q.is_empty()) => {
                st.locks.insert(entity, txn);
                return Ok(true);
            }
            _ => {}
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queues.entry(entity).or_default().push_back((ticket, txn));
        st.waiting_on.insert(txn, entity);
        self.waits.fetch_add(1, Ordering::Relaxed);
        let parked_at = Instant::now();
        let outcome = loop {
            let free = !st.locks.contains_key(&entity);
            let at_front = st
                .queues
                .get(&entity)
                .and_then(|q| q.front())
                .is_some_and(|&(t, _)| t == ticket);
            if free && at_front {
                break Ok(());
            }
            if let Some(cycle) = Self::find_cycle(st, txn, entity) {
                break Err(DtError::deadlock(cycle));
            }
            let now = Instant::now();
            if now >= deadline {
                let holder = st
                    .locks
                    .get(&entity)
                    .map(|h| h.to_string())
                    .unwrap_or_else(|| "queued writers".to_string());
                break Err(DtError::Conflict(format!(
                    "lock timeout after {:?} waiting for entity {entity} (held by {holder})",
                    self.wait_timeout()
                )));
            }
            self.available.wait_for(st, deadline - now);
        };
        // Leave the queue and the wait-for graph on every path.
        if let Some(q) = st.queues.get_mut(&entity) {
            q.retain(|&(t, _)| t != ticket);
            if q.is_empty() {
                st.queues.remove(&entity);
            }
        }
        st.waiting_on.remove(&txn);
        self.wait_time_us
            .fetch_add(parked_at.elapsed().as_micros() as u64, Ordering::Relaxed);
        match outcome {
            Ok(()) => {
                st.locks.insert(entity, txn);
                Ok(true)
            }
            Err(e) => {
                if e.is_deadlock() {
                    self.deadlocks.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                // Our departure may put a successor at the queue front.
                self.available.notify_all();
                Err(e)
            }
        }
    }

    /// Walk the wait-for chain from the lock `me` wants. Each transaction
    /// waits on at most one entity (acquisition is sequential), so the
    /// graph's out-degree is ≤ 1 and a single chase finds any cycle
    /// through `me`.
    fn find_cycle(st: &LockState, me: TxnId, want: EntityId) -> Option<String> {
        let mut entity = want;
        let mut seen: HashSet<TxnId> = HashSet::new();
        let mut chain = format!("{me} waits on entity {want}");
        loop {
            let holder = *st.locks.get(&entity)?;
            if holder == me {
                return Some(chain);
            }
            if !seen.insert(holder) {
                // A cycle not involving `me`; its own members will detect it.
                return None;
            }
            let next = *st.waiting_on.get(&holder)?;
            chain.push_str(&format!(
                "; {holder} holds entity {entity} and waits on entity {next}"
            ));
            entity = next;
        }
    }

    // -- release / introspection -------------------------------------------

    /// Release every lock `txn` holds and wake all waiters. Called by the
    /// transaction manager when a transaction retires (commit or abort).
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        let before = st.locks.len();
        st.locks.retain(|_, holder| *holder != txn);
        if st.locks.len() != before || !st.queues.is_empty() {
            self.available.notify_all();
        }
    }

    /// True when the entity's admission lock is held.
    pub fn is_locked(&self, entity: EntityId) -> bool {
        self.state.lock().locks.contains_key(&entity)
    }

    /// The current lock holder, if any.
    pub fn holder(&self, entity: EntityId) -> Option<TxnId> {
        self.state.lock().locks.get(&entity).copied()
    }

    /// Number of transactions parked on the entity's wait-queue.
    pub fn queue_len(&self, entity: EntityId) -> usize {
        self.state
            .lock()
            .queues
            .get(&entity)
            .map(|q| q.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn optimistic_try_lock_conflicts_and_is_reentrant() {
        let lm = LockManager::new();
        let e = EntityId(1);
        lm.try_lock(t(1), e).unwrap();
        lm.try_lock(t(1), e).unwrap();
        let err = lm.try_lock(t(2), e).unwrap_err();
        assert!(err.is_conflict());
        lm.release_all(t(1));
        lm.try_lock(t(2), e).unwrap();
    }

    #[test]
    fn pessimistic_wait_succeeds_after_release() {
        let lm = Arc::new(LockManager::new());
        lm.set_policy(EntityId(1), LockPolicy::Pessimistic);
        lm.try_lock(t(1), EntityId(1)).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            lm2.acquire_for_commit(t(2), [EntityId(1)]).map(|m| m[0].1)
        });
        // Let the waiter park, then release.
        while lm.queue_len(EntityId(1)) == 0 {
            std::thread::yield_now();
        }
        lm.release_all(t(1));
        let mode = waiter.join().unwrap().unwrap();
        assert_eq!(mode, LockMode::Pessimistic);
        assert_eq!(lm.holder(EntityId(1)), Some(t(2)));
        let stats = lm.stats();
        assert_eq!(stats.waits, 1);
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn pessimistic_wait_times_out_as_typed_conflict() {
        let lm = LockManager::new();
        lm.set_wait_timeout(Duration::from_millis(10));
        let e = EntityId(1);
        lm.set_policy(e, LockPolicy::Pessimistic);
        lm.try_lock(t(1), e).unwrap();
        let err = lm.acquire_for_commit(t(2), [e]).unwrap_err();
        assert!(err.is_conflict(), "timeout must be a typed conflict: {err:?}");
        assert!(err.to_string().contains("lock timeout"), "{err}");
        // No admission state leaks: the queue is empty and the holder
        // unchanged.
        assert_eq!(lm.queue_len(e), 0);
        assert_eq!(lm.holder(e), Some(t(1)));
        assert_eq!(lm.stats().timeouts, 1);
    }

    #[test]
    fn multi_table_acquisition_is_all_or_nothing() {
        let lm = LockManager::new();
        lm.set_wait_timeout(Duration::from_millis(10));
        let (a, b) = (EntityId(1), EntityId(2));
        lm.set_policy(b, LockPolicy::Pessimistic);
        lm.try_lock(t(1), b).unwrap();
        // t2 wants {a, b}: a (optimistic) is granted, then b times out, so
        // a must be released again.
        let err = lm.acquire_for_commit(t(2), [b, a]).unwrap_err();
        assert!(err.is_conflict());
        assert!(!lm.is_locked(a), "all-or-nothing must undo partial grants");
        assert_eq!(lm.holder(b), Some(t(1)));
    }

    #[test]
    fn mixed_mode_cycle_is_detected_as_deadlock() {
        let lm = Arc::new(LockManager::new());
        lm.set_wait_timeout(Duration::from_secs(5));
        let (a, b) = (EntityId(1), EntityId(2));
        // t1 holds a and parks on b; t2 holds b and then wants a — the
        // second wait would close the cycle, so t2 is the victim.
        lm.try_lock(t(1), a).unwrap();
        lm.try_lock(t(2), b).unwrap();
        let lm2 = Arc::clone(&lm);
        let first = std::thread::spawn(move || lm2.lock_pessimistic(t(1), [b]));
        while lm.queue_len(b) == 0 {
            std::thread::yield_now();
        }
        let err = lm.lock_pessimistic(t(2), [a]).unwrap_err();
        assert!(err.is_deadlock(), "got {err:?}");
        assert_eq!(lm.stats().deadlocks, 1);
        // The victim aborts: releasing its locks unblocks the survivor.
        lm.release_all(t(2));
        first.join().unwrap().unwrap();
        assert_eq!(lm.holder(b), Some(t(1)));
    }

    #[test]
    fn queue_is_fifo() {
        let lm = Arc::new(LockManager::new());
        lm.set_wait_timeout(Duration::from_secs(10));
        let e = EntityId(1);
        lm.set_policy(e, LockPolicy::Pessimistic);
        lm.try_lock(t(100), e).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 1..=4u64 {
            let lm2 = Arc::clone(&lm);
            let order2 = Arc::clone(&order);
            // Serialize enqueue order: wait until the previous waiter is
            // parked before spawning the next.
            while lm.queue_len(e) < (i - 1) as usize {
                std::thread::yield_now();
            }
            handles.push(std::thread::spawn(move || {
                lm2.acquire_for_commit(t(i), [e]).unwrap();
                order2.lock().push(i);
                lm2.release_all(t(i));
            }));
        }
        while lm.queue_len(e) < 4 {
            std::thread::yield_now();
        }
        lm.release_all(t(100));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn try_lock_does_not_barge_past_waiters() {
        let lm = Arc::new(LockManager::new());
        lm.set_wait_timeout(Duration::from_secs(10));
        let e = EntityId(1);
        lm.try_lock(t(1), e).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || lm2.lock_pessimistic(t(2), [e]));
        while lm.queue_len(e) == 0 {
            std::thread::yield_now();
        }
        lm.release_all(t(1));
        // Even if the lock is momentarily free, a try-lock may not skip
        // the queue.
        let err_or_grant = lm.try_lock(t(3), e);
        if let Err(e) = &err_or_grant {
            assert!(e.is_conflict());
        } else {
            // The waiter won the race first and try_lock saw it as holder —
            // that is also queue-respecting; but a grant to t3 while t2 is
            // still queued would be a fairness bug.
            panic!("try_lock barged past a queued waiter");
        }
        waiter.join().unwrap().unwrap();
        assert_eq!(lm.holder(e), Some(t(2)));
    }

    #[test]
    fn adaptive_flips_respect_manual_pins() {
        let lm = LockManager::new();
        let e = EntityId(1);
        assert!(lm.set_adaptive_mode(e, LockMode::Pessimistic));
        assert!(!lm.set_adaptive_mode(e, LockMode::Pessimistic), "no-op flip");
        assert_eq!(lm.mode(e), LockMode::Pessimistic);
        assert_eq!(lm.stats().adaptive_flips, 1);
        // A manual pin takes priority and adaptive decisions become no-ops.
        lm.set_policy(e, LockPolicy::Optimistic);
        assert_eq!(lm.mode(e), LockMode::Optimistic);
        assert!(!lm.set_adaptive_mode(e, LockMode::Pessimistic));
        assert_eq!(lm.mode(e), LockMode::Optimistic);
        // Returning to AUTO hands control back.
        lm.set_policy(e, LockPolicy::Auto);
        assert!(lm.set_adaptive_mode(e, LockMode::Pessimistic));
        assert_eq!(lm.stats().adaptive_flips, 2);
    }
}
