//! Writer group-commit: a leader/follower commit coordinator.
//!
//! Optimistic committers do all of their row work lock-free, but the final
//! validate+install step needs the engine write lock — and taking that
//! lock once *per commit* serializes every committer on the lock's
//! acquire/release cycle even when their table sets are disjoint.
//! [`CommitQueue`] amortizes that cost: concurrent committers enqueue
//! their prepared requests, and the first to arrive while no leader is
//! active becomes the **leader**. The leader drains the queue, processes
//! the whole batch in one call (the engine's commit path takes the write
//! lock once per batch and installs every transaction inside it), hands
//! each follower its individual outcome, and keeps draining — requests
//! that arrive while a batch is in flight form the next batch — until
//! the queue is empty or it hits the [`MAX_LEADER_ROUNDS`] fairness
//! bound, at which point it releases leadership and a waiting follower
//! takes over. Followers block until their outcome is ready.
//!
//! ## The gather window
//!
//! A freshly self-promoted leader may optionally wait a short
//! [`CommitQueue::set_gather`] window before draining its first batch, so
//! concurrent committers that are a few microseconds behind join it
//! instead of forming the next one. With a zero window (the default) the
//! queue drains immediately — right when processing a batch is cheap.
//! When each batch pays a fixed cost that amortizes over its members —
//! the durable commit path fsyncs once per batch — immediate draining
//! produces a convoy: N steady-state writers split into two alternating
//! cohorts (while one cohort's batch is flushing, the other enqueues and
//! is drained the instant leadership turns over, before the first cohort
//! is back), pinning the average batch near N/2 and paying twice the
//! necessary flushes. A window on the order of the inter-arrival gap
//! (far below the fsync cost it saves) lets the batch fill to ~N first.
//! This is the same trade as MySQL's `binlog_group_commit_sync_delay` or
//! PostgreSQL's `commit_delay`: a bounded latency add on the leader buys
//! fewer, larger flushes for everyone.
//!
//! The queue is deliberately generic: `T` is a prepared commit request,
//! `R` its outcome, and the batch processor is a closure supplied at
//! [`CommitQueue::submit`]. Every submitter passes the same logic; the
//! leader runs *its own* closure over everyone's requests, so no closure
//! is ever stored in the queue.
//!
//! ## Poisoning
//!
//! If the leader's processor panics, every request in the doomed batch is
//! marked poisoned and its submitter panics in turn (mirroring mutex
//! poisoning: an install that died half-way is an internal bug, and
//! pretending it was a clean conflict would hide it). Requests that were
//! still queued — not yet claimed by the panicking leader — survive: the
//! leader flag is cleared on the way out, so one of the waiting followers
//! promotes itself to leader and processes the remainder. The queue stays
//! usable after a poisoned batch.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Most batches a leader processes before handing leadership off to a
/// waiting follower. The leader's own outcome is ready after its first
/// round; every further round serves *other* threads' requests, so
/// without a bound one committer's `submit` latency would grow with
/// system-wide load under sustained traffic. Three rounds keeps the
/// batching benefit (a leader already holding the engine lock warm
/// drains the backlog that formed behind it) while bounding any one
/// caller's capture.
pub const MAX_LEADER_ROUNDS: usize = 3;

/// Where a follower's outcome is delivered.
struct Slot<R> {
    result: Mutex<Option<R>>,
    poisoned: AtomicBool,
}

struct Entry<T, R> {
    request: T,
    slot: Arc<Slot<R>>,
}

struct QueueState<T, R> {
    pending: Vec<Entry<T, R>>,
    /// True while some thread is the leader (draining and processing).
    leader: bool,
}

/// A group-commit queue: concurrent [`CommitQueue::submit`] calls are
/// batched, one submitter leads, everyone gets their own outcome. See the
/// module docs for the protocol.
pub struct CommitQueue<T, R> {
    state: Mutex<QueueState<T, R>>,
    /// Followers wait here for their slot to fill (or for leadership to
    /// free up after a poisoned batch).
    wake: Condvar,
    /// Nanoseconds a new leader waits before draining a batch that would
    /// contain only itself (see the module docs). Zero = drain at once.
    gather_ns: AtomicU64,
}

impl<T, R> Default for CommitQueue<T, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, R> CommitQueue<T, R> {
    /// An empty queue.
    pub fn new() -> Self {
        CommitQueue {
            state: Mutex::new(QueueState {
                pending: Vec::new(),
                leader: false,
            }),
            wake: Condvar::new(),
            gather_ns: AtomicU64::new(0),
        }
    }

    /// Requests currently enqueued and not yet claimed by a leader
    /// (telemetry; tests use it to observe a pile-up forming).
    pub fn pending(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Set the gather window: how long a new leader waits for more
    /// committers to join before draining its first batch (see the
    /// module docs). Zero — the default — drains immediately. Worth
    /// setting only when every batch pays a fixed cost that amortizes
    /// over its members, e.g. one fsync per durable batch; the window
    /// should stay well below that per-batch cost.
    pub fn set_gather(&self, window: std::time::Duration) {
        self.gather_ns
            .store(window.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Submit one request and block until a leader (possibly this thread)
    /// processes it; returns this request's outcome. `process` maps a
    /// batch of requests to their outcomes, one each, in order — it runs
    /// at most once per queue round, and only if this thread ends up
    /// leading (followers' closures are never called).
    ///
    /// # Panics
    ///
    /// Panics if a leader's processor panicked while this request was in
    /// its batch (see the module docs on poisoning), or if `process`
    /// returns a different number of outcomes than it was given requests.
    pub fn submit<F>(&self, request: T, mut process: F) -> R
    where
        F: FnMut(Vec<T>) -> Vec<R>,
    {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            poisoned: AtomicBool::new(false),
        });
        let mut st = self.state.lock();
        st.pending.push(Entry {
            request,
            slot: Arc::clone(&slot),
        });
        loop {
            // Checked under the state lock on every iteration. The leader
            // delivers results and poison marks *before* taking the state
            // lock to notify, so whatever this thread observes here is
            // consistent: either its outcome is already visible, or it
            // enters `wait` before the leader can acquire the lock — no
            // wakeup can be lost.
            if let Some(r) = slot.result.lock().take() {
                return r;
            }
            if slot.poisoned.load(Ordering::Acquire) {
                panic!("group-commit leader panicked while processing this batch");
            }
            if !st.leader {
                // Become the leader: drain and process until the queue is
                // empty — or the round bound is hit, at which point
                // leadership is handed off so this caller's latency stays
                // bounded under sustained load (its own outcome was ready
                // after round one; later rounds are altruism). The
                // handoff is the ordinary self-promotion path: leadership
                // is released and everyone woken under the state lock, so
                // a submitter of one of the still-pending entries takes
                // over.
                st.leader = true;
                // Gather before the FIRST round only: give committers
                // that are a few microseconds behind a moment to join the
                // batch. Waiting even when some requests are already
                // pending matters — under N steady writers, leadership
                // changes hands exactly when one cohort has enqueued and
                // the other is mid-statement, so draining instantly locks
                // in half-sized batches forever. Later rounds need no
                // window: whatever arrived while the previous round was
                // processing already formed one. The leader flag is set,
                // so submitters arriving during the sleep enqueue and
                // wait rather than self-promoting.
                let gather = self.gather_ns.load(Ordering::Relaxed);
                if gather > 0 {
                    drop(st);
                    std::thread::sleep(std::time::Duration::from_nanos(gather));
                    st = self.state.lock();
                }
                let mut rounds = 0;
                loop {
                    let batch = std::mem::take(&mut st.pending);
                    drop(st);
                    self.run_batch(batch, &mut process);
                    rounds += 1;
                    st = self.state.lock();
                    self.wake.notify_all();
                    if st.pending.is_empty() || rounds >= MAX_LEADER_ROUNDS {
                        st.leader = false;
                        drop(st);
                        return slot
                            .result
                            .lock()
                            .take()
                            .expect("the leader's own request is always in its first batch");
                    }
                }
            }
            // Follow: wait for the leader to deliver our outcome. A wake
            // without a result means either a spurious wakeup, or the
            // leader exited (cleanly or by panic) before claiming our
            // entry — the loop re-checks all three conditions.
            self.wake.wait(&mut st);
        }
    }

    /// Process one drained batch, delivering outcomes into the entries'
    /// slots. On processor panic (or outcome-arity mismatch) the whole
    /// batch is poisoned and leadership released before propagating.
    fn run_batch<F>(&self, batch: Vec<Entry<T, R>>, process: &mut F)
    where
        F: FnMut(Vec<T>) -> Vec<R>,
    {
        let mut requests = Vec::with_capacity(batch.len());
        let mut slots = Vec::with_capacity(batch.len());
        for e in batch {
            requests.push(e.request);
            slots.push(e.slot);
        }
        let expected = slots.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| process(requests)));
        match outcome {
            Ok(results) if results.len() == expected => {
                for (slot, r) in slots.iter().zip(results) {
                    *slot.result.lock() = Some(r);
                }
            }
            Ok(results) => {
                self.poison(&slots);
                panic!(
                    "group-commit processor returned {} outcome(s) for {} request(s)",
                    results.len(),
                    expected
                );
            }
            Err(payload) => {
                self.poison(&slots);
                resume_unwind(payload);
            }
        }
    }

    /// Mark every slot of a doomed batch poisoned, release leadership, and
    /// wake everyone: poisoned followers propagate the panic, still-queued
    /// followers self-promote to leader. The marks land before the state
    /// lock is taken and the notify fires under it, so no waiter can check
    /// its slot, miss the mark, and then miss the wakeup too.
    fn poison(&self, slots: &[Arc<Slot<R>>]) {
        for s in slots {
            s.poisoned.store(true, Ordering::Release);
        }
        let mut st = self.state.lock();
        st.leader = false;
        self.wake.notify_all();
        drop(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    /// The sizes of the batches every `process` closure that records
    /// into it was handed, in order: one entry per leader round.
    #[derive(Clone, Default)]
    struct Batches(Arc<Mutex<Vec<usize>>>);

    impl Batches {
        fn record(&self, n: usize) {
            self.0.lock().push(n);
        }

        fn count(&self) -> usize {
            self.0.lock().len()
        }

        /// (requests processed, batches, largest batch).
        fn summary(&self) -> (usize, usize, usize) {
            let sizes = self.0.lock();
            let max = sizes.iter().copied().max().unwrap_or(0);
            (sizes.iter().sum(), sizes.len(), max)
        }
    }

    #[test]
    fn single_submit_is_a_batch_of_one() {
        let q: CommitQueue<u32, u32> = CommitQueue::new();
        let batches = Batches::default();
        let r = q.submit(41, |reqs| {
            batches.record(reqs.len());
            reqs.into_iter().map(|x| x + 1).collect()
        });
        assert_eq!(r, 42);
        assert_eq!(batches.summary(), (1, 1, 1));
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn concurrent_submitters_share_one_leader_round() {
        // The first submitter leads and stalls inside its first batch;
        // three more submitters pile up, and the leader's SECOND round
        // processes all of them at once: 4 commits, 2 batches.
        let q: Arc<CommitQueue<u32, u32>> = Arc::new(CommitQueue::new());
        let batches = Batches::default();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let leader = {
            let q = Arc::clone(&q);
            let batches = batches.clone();
            thread::spawn(move || {
                let mut first = true;
                q.submit(0, move |reqs| {
                    batches.record(reqs.len());
                    if first {
                        first = false;
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                    }
                    reqs.into_iter().map(|x| x * 10).collect()
                })
            })
        };
        entered_rx.recv().unwrap();

        let followers: Vec<_> = (1..4u32)
            .map(|i| {
                let q = Arc::clone(&q);
                let batches = batches.clone();
                thread::spawn(move || {
                    q.submit(i, |reqs| {
                        batches.record(reqs.len());
                        reqs.into_iter().map(|x| x * 10).collect()
                    })
                })
            })
            .collect();
        wait_for(|| q.pending() == 3, "three followers to enqueue");
        release_tx.send(()).unwrap();

        assert_eq!(leader.join().unwrap(), 0);
        let mut results: Vec<u32> = followers.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, vec![10, 20, 30]);

        let (submitted, rounds, max_batch) = batches.summary();
        assert_eq!(submitted, 4);
        assert_eq!(rounds, 2, "one stalled round + one batched round");
        assert_eq!(max_batch, 3);
    }

    #[test]
    fn gather_window_merges_a_near_miss_into_one_batch() {
        // With no window, a submitter that arrives while the first is
        // already processing lands in a second batch. With a generous
        // window, a submitter that arrives DURING the leader's gather
        // sleep joins the first batch: 2 commits, 1 batch, max_batch 2.
        let q: Arc<CommitQueue<u32, u32>> = Arc::new(CommitQueue::new());
        q.set_gather(Duration::from_millis(200));
        let batches = Batches::default();
        let submit = |x: u32| {
            let q = Arc::clone(&q);
            let batches = batches.clone();
            thread::spawn(move || {
                q.submit(x, |reqs| {
                    batches.record(reqs.len());
                    reqs.into_iter().map(|x| x * 10).collect()
                })
            })
        };

        let first = submit(1);
        // Wait until the first submitter has enqueued (it is now inside
        // its gather sleep, holding leadership, its own entry still
        // pending), then submit the second.
        wait_for(|| q.pending() == 1, "the first submitter to enqueue");
        let second = submit(2);

        assert_eq!(first.join().unwrap(), 10);
        assert_eq!(second.join().unwrap(), 20);
        assert_eq!(
            batches.summary(),
            (2, 1, 2),
            "the second submitter must ride the gathered first batch"
        );
    }

    #[test]
    fn leader_panic_poisons_its_batch_and_frees_the_queue() {
        // Round 1 (leader alone) succeeds but stalls so a follower can
        // enqueue; round 2 — containing the follower — panics. The
        // follower observes the poison and panics too; a later submitter
        // finds no leader and proceeds normally.
        let q: Arc<CommitQueue<u32, u32>> = Arc::new(CommitQueue::new());
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let leader = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut round = 0;
                q.submit(0, move |reqs| {
                    round += 1;
                    if round == 1 {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        reqs
                    } else {
                        panic!("injected leader failure");
                    }
                })
            })
        };
        entered_rx.recv().unwrap();

        let follower = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.submit(7, |reqs| reqs))
        };
        wait_for(|| q.pending() == 1, "the follower to enqueue");
        release_tx.send(()).unwrap();

        // The leader's submit propagates the injected panic; the follower
        // panics on the poisoned batch.
        assert!(leader.join().is_err(), "leader must propagate its panic");
        assert!(follower.join().is_err(), "poisoned follower must panic");

        // The queue did not deadlock or leak leadership.
        assert_eq!(q.pending(), 0);
        let r = q.submit(5, |reqs| reqs.into_iter().map(|x| x + 1).collect());
        assert_eq!(r, 6);
    }

    #[test]
    fn follower_self_promotes_when_leader_dies_before_claiming_it() {
        // The leader panics in its FIRST round (its own entry only). A
        // follower that enqueued during that round was never claimed, so
        // it promotes itself and completes normally.
        let q: Arc<CommitQueue<u32, u32>> = Arc::new(CommitQueue::new());
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let batches = Batches::default();
        let leader = {
            let q = Arc::clone(&q);
            let batches = batches.clone();
            thread::spawn(move || {
                q.submit(0, move |reqs: Vec<u32>| -> Vec<u32> {
                    batches.record(reqs.len());
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    panic!("injected leader failure");
                })
            })
        };
        entered_rx.recv().unwrap();
        let follower = {
            let q = Arc::clone(&q);
            let batches = batches.clone();
            thread::spawn(move || {
                q.submit(9, |reqs| {
                    batches.record(reqs.len());
                    reqs.into_iter().map(|x| x * 2).collect()
                })
            })
        };
        wait_for(|| q.pending() == 1, "the follower to enqueue");
        release_tx.send(()).unwrap();

        assert!(leader.join().is_err());
        assert_eq!(follower.join().unwrap(), 18, "unclaimed follower self-promotes");
        assert_eq!(batches.count(), 2, "doomed leader round, then the follower's own");
    }

    #[test]
    fn leader_hands_off_after_the_round_bound() {
        // The leader's closure stalls at the start of every round; while
        // each round is in flight, one more submitter enqueues. After
        // MAX_LEADER_ROUNDS rounds the leader returns (its own outcome
        // was ready after round one) and the still-pending follower
        // self-promotes, processing itself with its OWN closure — proving
        // one committer is never captured indefinitely.
        let q: Arc<CommitQueue<u32, u32>> = Arc::new(CommitQueue::new());
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let batches = Batches::default();
        let leader = {
            let q = Arc::clone(&q);
            let batches = batches.clone();
            thread::spawn(move || {
                q.submit(0, move |reqs| {
                    batches.record(reqs.len());
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    // Leader's closure marks outcomes +1000.
                    reqs.into_iter().map(|x| x + 1000).collect()
                })
            })
        };

        // Rounds 1..=MAX_LEADER_ROUNDS: before releasing each round, park
        // one more submitter behind it. Submitters 1 and 2 are processed
        // by the leader's rounds 2 and 3; submitter 3 is left pending
        // when the bound trips.
        let mut followers = Vec::new();
        for i in 1..=3u32 {
            entered_rx.recv().unwrap();
            let q2 = Arc::clone(&q);
            let batches = batches.clone();
            followers.push(thread::spawn(move || {
                // Follower closures mark outcomes +2000 — only the
                // self-promoted survivor's closure ever runs.
                q2.submit(i, |reqs| {
                    batches.record(reqs.len());
                    reqs.into_iter().map(|x| x + 2000).collect()
                })
            }));
            wait_for(|| q.pending() == 1, "the next submitter to enqueue");
            release_tx.send(()).unwrap();
        }

        assert_eq!(leader.join().unwrap(), 1000, "leader got its round-one outcome");
        let mut results: Vec<u32> = followers.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_unstable();
        // Submitters 1 and 2 were served by the leader (+1000); submitter
        // 3 outlived the bound and served itself (+2000).
        assert_eq!(results, vec![1001, 1002, 2003]);
        assert_eq!(batches.count(), 4, "three leader rounds + the survivor's own");
    }
}
