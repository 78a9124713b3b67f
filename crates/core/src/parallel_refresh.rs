//! The round driver: refresh a whole dependency DAG of dynamic tables
//! concurrently, each DT as soon as the DTs it reads have landed.
//!
//! The paper's scheduler (§5.2) aligns every DT in a DAG to shared grid
//! timestamps; this module exploits the alignment. It adds no refresh
//! logic of its own — each DT goes through the one pin → compute →
//! install path of [`crate::refresh`] — only *where* and *when* the steps
//! run:
//!
//! 1. **Order** — one topological level order over the due set
//!    ([`dt_scheduler::Scheduler::level_order`]) ranks the DTs; a DT is
//!    *ready* once every in-round DT it reads has installed (`RoundPlan`),
//!    and the workers of the round's one pool always start the
//!    lowest-ranked ready DT. There is no barrier between levels: a round
//!    takes as long as its critical path, not the sum of each level's
//!    slowest refresh, and one worker starts the DTs in exactly the level
//!    order.
//! 2. **Pin + compute** — each worker pins its DT under a brief engine
//!    **read** lock, then computes its delta completely lock-free.
//! 3. **Group install** — the O(metadata) install rides the engine's
//!    install queue, beside transaction commits: one leader drains every
//!    refresh staged at that moment under a single engine write lock
//!    acquisition, installs each, reports each to the scheduler at the
//!    current time, and appends the whole batch to the WAL with one
//!    fsync — so N refreshes land in fewer than N lock acquisitions.
//!
//! A DT that fails, conflicts, or is suspended prunes its downstream cone
//! for the round (§3.3.3): descendants cannot produce a consistent result
//! at the round timestamp without it, and they retry next round.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::time::Instant;

use dt_common::{DtError, DtResult, EntityId, Timestamp};
use dt_scheduler::{RefreshAction, RefreshOutcome};

use crate::install::Install;
use crate::refresh::{action_label, RefreshInstall};
use crate::Engine;

/// Refresh-pipeline telemetry: how refreshes have used the install
/// pipeline and the engine write lock so far. Captured with
/// [`Engine::refresh_stats`].
///
/// The load-bearing relation mirrors [`crate::CommitStats`]: N refreshes
/// that stage together complete under fewer than N engine write lock
/// acquisitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Refreshes recorded in the refresh log, whoever ran them.
    pub refreshes: u64,
    /// Times the install path acquired the engine write lock for a queued
    /// batch holding at least one refresh.
    pub install_lock_acquisitions: u64,
    /// Most refreshes installed under one acquisition.
    pub max_batch: u64,
    /// Refresh installs that went through the install queue.
    pub group_submitted: u64,
    /// Parallel rounds driven by [`Engine::refresh_all_parallel`].
    pub parallel_rounds: u64,
    /// Current worker-pool size for parallel rounds.
    pub workers: u64,
}

/// The result of one installed (or recorded-failed) refresh.
#[derive(Debug, Clone)]
pub struct InstalledRefresh {
    /// The DT refreshed.
    pub dt: EntityId,
    /// The data timestamp refreshed to.
    pub refresh_ts: Timestamp,
    /// The commit timestamp stamped on the storage version and the
    /// refresh-map entry (`refresh_ts` for a failed refresh, which has
    /// neither).
    pub commit_ts: Timestamp,
    /// Action label ("no_data", "full", "incremental", "reinitialize",
    /// "failed").
    pub action: &'static str,
    /// Delta rows installed.
    pub changed_rows: usize,
    /// DT size after the refresh.
    pub dt_rows: usize,
    /// The user error, when `action == "failed"`.
    pub error: Option<String>,
}

impl InstalledRefresh {
    fn new(
        dt: EntityId,
        refresh_ts: Timestamp,
        commit_ts: Timestamp,
        outcome: RefreshOutcome,
    ) -> InstalledRefresh {
        InstalledRefresh {
            dt,
            refresh_ts,
            commit_ts,
            action: action_label(&outcome.action),
            changed_rows: outcome.changed_rows,
            dt_rows: outcome.dt_rows,
            error: match outcome.action {
                RefreshAction::Failed(error) => Some(error),
                _ => None,
            },
        }
    }
}

/// A refresh whose row work is done and staged, holding the DT's refresh
/// lock. [`PreparedRefresh::install`] publishes it through the engine's
/// install queue; dropping without installing aborts the refresh
/// transaction and releases the lock, installing nothing.
pub struct PreparedRefresh {
    engine: Engine,
    request: Option<RefreshInstall>,
}

impl PreparedRefresh {
    /// The DT this refresh targets.
    pub fn dt(&self) -> EntityId {
        self.request.as_ref().expect("not yet installed").dt
    }

    /// True when the prepare phase classified this refresh as failed (a
    /// user error); install will record the failure rather than publish.
    pub fn is_failed(&self) -> bool {
        self.request.as_ref().expect("not yet installed").is_failed()
    }

    /// Install through the engine's install queue. Blocks until a leader
    /// (this thread or another) lands the batch containing this refresh.
    /// Returns `Err(DtError::Conflict)` when validation lost — the DT's
    /// version moved past the prepared base, or a table read by the refresh
    /// was dropped mid-round; the refresh transaction is aborted and nothing
    /// was installed.
    pub fn install(self) -> DtResult<InstalledRefresh> {
        let request = self.request.as_ref().expect("already installed");
        let (dt, refresh_ts) = (request.dt, request.refresh_ts);
        let (commit_ts, outcome) = self.submit(true)?;
        Ok(InstalledRefresh::new(dt, refresh_ts, commit_ts, outcome))
    }

    /// Submit to the install queue; with `report_now` the install reports
    /// the outcome to the scheduler, else the caller does, on its clock.
    fn submit(mut self, report_now: bool) -> DtResult<(Timestamp, RefreshOutcome)> {
        let request = self.request.take().expect("already installed");
        let installed = self.engine.install(Install::Refresh { request, report_now })?;
        Ok((installed.commit_ts, installed.refresh.expect("a refresh install carries its outcome")))
    }
}

impl Drop for PreparedRefresh {
    fn drop(&mut self) {
        if let Some(req) = self.request.take() {
            let _ = self.engine.inspect(|st| st.txn_manager().abort(&req.txn));
        }
    }
}

/// Per-DT status within one parallel round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundStatus {
    /// Installed (including NO_DATA) — the DT advanced to the round's
    /// data timestamp. `at_micros` is the wall-clock offset from round
    /// start to install completion (the DT's actual lag at that instant).
    Installed {
        /// Action label.
        action: &'static str,
        /// Delta rows installed.
        changed_rows: usize,
        /// Wall-clock micros from round start to install.
        at_micros: u64,
    },
    /// Failed with a recorded user error; its cone was pruned.
    Failed(String),
    /// Skipped on a typed conflict (locked by an overlapping round, or a
    /// table it reads was dropped mid-round); its cone was pruned.
    Conflict(String),
    /// Skipped because an ancestor was unavailable this round.
    Pruned,
}

/// The report of one [`Engine::refresh_all_parallel`] round.
#[derive(Debug, Clone)]
pub struct RefreshRoundReport {
    /// The shared data timestamp every DT in the round refreshed to.
    pub refresh_ts: Timestamp,
    /// Topological levels executed.
    pub levels: usize,
    /// DTs installed (including NO_DATA).
    pub refreshed: usize,
    /// Of `refreshed`, how many were NO_DATA.
    pub no_data: usize,
    /// DTs whose refresh failed with a recorded user error.
    pub failed: usize,
    /// DTs skipped on a typed conflict.
    pub conflicts: usize,
    /// DTs pruned because an ancestor was unavailable.
    pub pruned: usize,
    /// Per-DT status: the DTs pruned before the round started, then every
    /// other DT in completion order — a pruned DT at the completion that
    /// resolved the last DT it reads.
    pub outcomes: Vec<(EntityId, RoundStatus)>,
}

impl RefreshRoundReport {
    fn record(&mut self, dt: EntityId, status: RoundStatus) {
        match &status {
            RoundStatus::Installed { action, .. } => {
                self.refreshed += 1;
                self.no_data += usize::from(*action == "no_data");
            }
            RoundStatus::Failed(_) => self.failed += 1,
            RoundStatus::Conflict(_) => self.conflicts += 1,
            RoundStatus::Pruned => self.pruned += 1,
        }
        self.outcomes.push((dt, status));
    }
}

/// The dependency bookkeeping of one round, free of threads and clocks:
/// which DT may start next, and what a finished one unblocks or prunes.
/// DTs are handled by *rank*, their position in the flattened level order.
struct RoundPlan {
    /// Rank → DT.
    order: Vec<EntityId>,
    /// Rank → the in-round DTs it reads that have not finished yet.
    waiting_on: Vec<usize>,
    /// Rank → an in-round DT it reads did not land.
    blocked: Vec<bool>,
    /// Rank → ranks of the in-round DTs that read it.
    dependents: Vec<Vec<usize>>,
    /// Ranks that may start, lowest first.
    ready: BTreeSet<usize>,
    /// DTs handed out by `start` and not yet `finish`ed.
    running: usize,
    /// The round was abandoned: nothing more starts.
    abandoned: bool,
}

impl RoundPlan {
    /// Plan a round over `levels` (a topological level order); a DT's
    /// in-round upstreams are the entries of `upstream_of` that are in
    /// `levels` themselves.
    fn new(levels: &[Vec<EntityId>], upstream_of: &BTreeMap<EntityId, Vec<EntityId>>) -> Self {
        let order: Vec<EntityId> = levels.iter().flatten().copied().collect();
        let rank: BTreeMap<EntityId, usize> =
            order.iter().enumerate().map(|(r, dt)| (*dt, r)).collect();
        let mut plan = RoundPlan {
            waiting_on: vec![0; order.len()],
            blocked: vec![false; order.len()],
            dependents: vec![Vec::new(); order.len()],
            ready: BTreeSet::new(),
            running: 0,
            abandoned: false,
            order,
        };
        for (r, dt) in plan.order.iter().enumerate() {
            let ups = upstream_of.get(dt).map_or(&[][..], Vec::as_slice);
            for up in ups.iter().filter_map(|up| rank.get(up)) {
                plan.waiting_on[r] += 1;
                plan.dependents[*up].push(r);
            }
            if plan.waiting_on[r] == 0 {
                plan.ready.insert(r);
            }
        }
        plan
    }

    /// Hand out the lowest-ranked ready DT, if any.
    fn start(&mut self) -> Option<EntityId> {
        if self.abandoned {
            return None;
        }
        let r = self.ready.pop_first()?;
        self.running += 1;
        Some(self.order[r])
    }

    /// Nothing will start: nothing is ready (or the round was abandoned)
    /// and nothing running can make anything ready.
    fn is_drained(&self) -> bool {
        (self.abandoned || self.ready.is_empty()) && self.running == 0
    }

    /// Stop handing out DTs, whatever becomes ready; the ones running
    /// finish.
    fn abandon(&mut self) {
        self.abandoned = true;
    }

    /// Record that a started `dt` finished, having `landed` (installed) or
    /// not. Every DT for which it was the last unfinished upstream becomes
    /// ready — or, if any of its upstreams did not land, is pruned, which
    /// in turn resolves the DTs reading it. Returns the DTs pruned, each
    /// exactly once per round.
    fn finish(&mut self, dt: EntityId, landed: bool) -> Vec<EntityId> {
        self.running -= 1;
        let r = (self.order.iter())
            .position(|d| *d == dt)
            .expect("finished a DT of this round");
        let mut pruned = Vec::new();
        let mut resolved = vec![(r, landed)];
        while let Some((r, landed)) = resolved.pop() {
            for d in std::mem::take(&mut self.dependents[r]) {
                self.blocked[d] |= !landed;
                self.waiting_on[d] -= 1;
                if self.waiting_on[d] > 0 {
                    continue;
                }
                if self.blocked[d] {
                    pruned.push(self.order[d]);
                    resolved.push((d, false));
                } else {
                    self.ready.insert(d);
                }
            }
        }
        pruned
    }
}

/// What the workers of one round share.
struct RoundState {
    plan: RoundPlan,
    report: RefreshRoundReport,
    internal_error: Option<DtError>,
}

impl Engine {
    /// Set the worker-pool size for [`Engine::refresh_all_parallel`]
    /// (clamped to at least 1; defaults to the host's available
    /// parallelism).
    pub fn set_refresh_threads(&self, n: usize) {
        self.installs.threads.store(n.max(1), Ordering::Relaxed);
    }

    /// Current worker-pool size for parallel refresh rounds.
    pub fn refresh_threads(&self) -> usize {
        self.installs.threads.load(Ordering::Relaxed).max(1)
    }

    /// Refresh-pipeline telemetry. No engine lock is taken.
    pub fn refresh_stats(&self) -> RefreshStats {
        let shared = &self.installs;
        RefreshStats {
            refreshes: self.refresh_log().len() as u64,
            install_lock_acquisitions: shared.refresh.lock_acquisitions.load(Ordering::Relaxed),
            max_batch: shared.refresh.max_batch.load(Ordering::Relaxed),
            group_submitted: shared.refresh.submitted.load(Ordering::Relaxed),
            parallel_rounds: shared.rounds.load(Ordering::Relaxed),
            workers: self.refresh_threads() as u64,
        }
    }

    /// Prepare one refresh of `dt` to `refresh_ts`: pin it under a brief
    /// engine **read** lock, then compute + stage the delta lock-free.
    /// Returns `Err` on admission conflicts (the DT was dropped, another
    /// refresh holds it, or it is already at or past `refresh_ts`) and
    /// internal errors; user errors (binding/evaluation) return a failed
    /// [`PreparedRefresh`] whose install records the failure.
    pub fn prepare_refresh(&self, dt: EntityId, refresh_ts: Timestamp) -> DtResult<PreparedRefresh> {
        self.prepare(dt, refresh_ts, false)
    }

    /// Run one refresh the one way — pin under the read lock, compute with
    /// no engine lock, install through the queue — and return its outcome
    /// for the caller to report on its own (virtual) clock. `initial` marks
    /// a DT's first refresh (§3.1.2). Callers must hold no engine guard.
    pub(crate) fn refresh(&self, dt: EntityId, ts: Timestamp, initial: bool) -> DtResult<RefreshOutcome> {
        Ok(self.prepare(dt, ts, initial)?.submit(false)?.1)
    }

    fn prepare(&self, dt: EntityId, refresh_ts: Timestamp, initial: bool) -> DtResult<PreparedRefresh> {
        let pinned = self.state.read().pin_refresh(dt, refresh_ts, initial)?;
        let txn = pinned.txn.clone();
        match pinned.compute() {
            Ok(request) => Ok(PreparedRefresh {
                engine: self.clone(),
                request: Some(request),
            }),
            Err(e) => {
                let _ = self.inspect(|st| st.txn_manager().abort(&txn));
                Err(e)
            }
        }
    }

    /// Refresh every active, initialized dynamic table to one shared data
    /// timestamp, each as soon as the DTs it reads have landed (§5.2's
    /// whole-DAG alignment: unchanged cones land as free NO_DATA
    /// refreshes). Suspended or uninitialized
    /// DTs — and their downstream cones — sit the round out. Returns the
    /// per-DT report; `Err` only on internal invariant violations.
    pub fn refresh_all_parallel(&self) -> DtResult<RefreshRoundReport> {
        // Choose the round timestamp and rank the due set under a brief
        // read lock. The HLC tick orders the round after every commit that
        // has already landed; base rows committing after it surface in the
        // next round.
        let (refresh_ts, levels, upstream_of, pre_pruned) = {
            let st = self.state.read();
            let refresh_ts = st.txn_manager().hlc().tick();
            let mut eligible = Vec::new();
            let mut unavailable = Vec::new();
            for id in st.scheduler().registered() {
                let sched = st.scheduler().state(id).expect("registered");
                let live = st
                    .catalog()
                    .get(id)
                    .map(|e| e.is_live())
                    .unwrap_or(false);
                if live && !sched.suspended && st.frontiers.contains_key(&id) {
                    eligible.push(id);
                } else {
                    unavailable.push(id);
                }
            }
            // A suspended/uninitialized parent prunes its cone up front.
            let mut pre_pruned = BTreeSet::new();
            for root in &unavailable {
                pre_pruned.extend(st.scheduler().downstream_cone(*root, &eligible));
            }
            let included: Vec<EntityId> = eligible
                .iter()
                .copied()
                .filter(|id| !pre_pruned.contains(id))
                .collect();
            let levels = st.scheduler().level_order(&included);
            let upstream_of: BTreeMap<EntityId, Vec<EntityId>> = included
                .iter()
                .map(|id| {
                    (
                        *id,
                        st.scheduler().state(*id).expect("registered").upstream.clone(),
                    )
                })
                .collect();
            (refresh_ts, levels, upstream_of, pre_pruned)
        };
        self.installs.rounds.fetch_add(1, Ordering::Relaxed);

        let round_started = Instant::now();
        let mut report = RefreshRoundReport {
            refresh_ts,
            levels: levels.len(),
            refreshed: 0,
            no_data: 0,
            failed: 0,
            conflicts: 0,
            pruned: 0,
            outcomes: Vec::new(),
        };
        for dt in pre_pruned {
            report.record(dt, RoundStatus::Pruned);
        }

        // One pool for the whole round: each worker starts the
        // lowest-ranked DT whose in-round upstreams have all installed,
        // prepares lock-free and submits to the install queue, where
        // refreshes that finish together share one install batch.
        let workers = self
            .refresh_threads()
            .min(levels.iter().map(Vec::len).max().unwrap_or(0));
        let shared = parking_lot::Mutex::new(RoundState {
            plan: RoundPlan::new(&levels, &upstream_of),
            report,
            internal_error: None,
        });
        let wake = parking_lot::Condvar::new();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| self.round_worker(&shared, &wake, refresh_ts, round_started));
            }
        });
        let RoundState {
            report,
            internal_error,
            ..
        } = shared.into_inner();
        match internal_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// One worker of a round: start ready DTs until the round is drained.
    fn round_worker(
        &self,
        shared: &parking_lot::Mutex<RoundState>,
        wake: &parking_lot::Condvar,
        refresh_ts: Timestamp,
        round_started: Instant,
    ) {
        loop {
            let dt = {
                let mut st = shared.lock();
                loop {
                    if let Some(dt) = st.plan.start() {
                        break dt;
                    }
                    if st.plan.is_drained() {
                        return;
                    }
                    wake.wait(&mut st);
                }
            };
            // A panicking refresh must still finish its DT, or the other
            // workers would wait for it forever instead of draining and
            // letting the scope propagate the panic.
            let step = || self.round_step(dt, refresh_ts, round_started);
            let status = std::panic::catch_unwind(std::panic::AssertUnwindSafe(step));
            let mut st = shared.lock();
            let landed = matches!(status, Ok(Ok(RoundStatus::Installed { .. })));
            let pruned = st.plan.finish(dt, landed);
            let panic = match status {
                Ok(Ok(status)) => {
                    st.report.record(dt, status);
                    for dt in pruned {
                        st.report.record(dt, RoundStatus::Pruned);
                    }
                    None
                }
                // An internal error (or a panic) ends the round: what is
                // running finishes, nothing else starts.
                Ok(Err(e)) => {
                    st.plan.abandon();
                    st.internal_error.get_or_insert(e);
                    None
                }
                Err(panic) => {
                    st.plan.abandon();
                    Some(panic)
                }
            };
            drop(st);
            wake.notify_all();
            if let Some(panic) = panic {
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// One worker step of a round: prepare + install one DT, classifying
    /// conflicts and recorded failures into a [`RoundStatus`].
    fn round_step(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
        round_started: Instant,
    ) -> DtResult<RoundStatus> {
        let prepared = match self.prepare_refresh(dt, refresh_ts) {
            Ok(p) => p,
            Err(e) if e.is_conflict() => return Ok(RoundStatus::Conflict(e.to_string())),
            Err(e) => return Err(e),
        };
        match prepared.install() {
            Ok(installed) => Ok(match installed.error {
                Some(error) => RoundStatus::Failed(error),
                None => RoundStatus::Installed {
                    action: installed.action,
                    changed_rows: installed.changed_rows,
                    at_micros: round_started.elapsed().as_micros() as u64,
                },
            }),
            Err(e) if e.is_conflict() => Ok(RoundStatus::Conflict(e.to_string())),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dt(n: u64) -> EntityId {
        EntityId(n)
    }

    /// A plan over `levels`, where `reads` lists each DT's upstreams (a
    /// number in no level is a base table).
    fn plan(levels: &[&[u64]], reads: &[(u64, &[u64])]) -> RoundPlan {
        let levels: Vec<Vec<EntityId>> = (levels.iter())
            .map(|l| l.iter().copied().map(dt).collect())
            .collect();
        let upstream_of = (reads.iter())
            .map(|(d, ups)| (dt(*d), ups.iter().copied().map(dt).collect()))
            .collect();
        RoundPlan::new(&levels, &upstream_of)
    }

    /// Everything `plan` will start right now, in the order it hands it out.
    fn start_all(plan: &mut RoundPlan) -> Vec<u64> {
        std::iter::from_fn(|| plan.start()).map(|d| d.0).collect()
    }

    fn pruned(plan: &mut RoundPlan, finished: u64, landed: bool) -> Vec<u64> {
        plan.finish(dt(finished), landed).into_iter().map(|d| d.0).collect()
    }

    #[test]
    fn a_diamond_joins_at_the_completion_of_its_second_arm() {
        // 1 → {2, 3} → 4, over base table 100.
        let mut p = plan(
            &[&[1], &[2, 3], &[4]],
            &[(1, &[100]), (2, &[1]), (3, &[1]), (4, &[2, 3])],
        );
        assert_eq!(start_all(&mut p), [1], "nothing starts before 1 has landed");
        assert!(!p.is_drained());
        assert!(pruned(&mut p, 1, true).is_empty());
        assert_eq!(start_all(&mut p), [2, 3]);
        assert!(pruned(&mut p, 3, true).is_empty());
        assert!(start_all(&mut p).is_empty(), "4 still waits for 2");
        assert!(pruned(&mut p, 2, true).is_empty());
        assert_eq!(start_all(&mut p), [4]);
        assert!(pruned(&mut p, 4, true).is_empty());
        assert!(p.is_drained());
    }

    #[test]
    fn an_uneven_forest_has_no_barrier_between_levels() {
        // A chain 1 → 2 → 3 → 4 beside a short tree 5 → 6.
        let mut p = plan(
            &[&[1, 5], &[2, 6], &[3], &[4]],
            &[(2, &[1]), (3, &[2]), (4, &[3]), (6, &[5])],
        );
        assert_eq!(start_all(&mut p), [1, 5]);
        // 6 reads only 5: it starts while 1, its level's other root, runs.
        assert!(pruned(&mut p, 5, true).is_empty());
        assert_eq!(start_all(&mut p), [6]);
        assert!(pruned(&mut p, 6, true).is_empty());
        assert!(start_all(&mut p).is_empty());
        for (done, next) in [(1, vec![2]), (2, vec![3]), (3, vec![4]), (4, vec![])] {
            assert!(pruned(&mut p, done, true).is_empty());
            assert_eq!(start_all(&mut p), next);
        }
        assert!(p.is_drained());
    }

    #[test]
    fn a_failing_root_prunes_its_cone_once_as_each_last_upstream_resolves() {
        // 3 reads 1; 4 reads 1 and 2; 5 reads 3 and 4; 6 reads 2 only.
        let mut p = plan(
            &[&[1, 2], &[3, 4, 6], &[5]],
            &[(3, &[1]), (4, &[1, 2]), (6, &[2]), (5, &[3, 4])],
        );
        assert_eq!(start_all(&mut p), [1, 2]);
        // 1 fails while 2 runs: 3 is resolved (its only upstream), 4 and
        // therefore 5 still wait for 2.
        assert_eq!(pruned(&mut p, 1, false), [3]);
        assert!(start_all(&mut p).is_empty());
        assert!(!p.is_drained());
        // 2 lands: 4's last upstream is in and one of them failed, which
        // resolves 5 in turn; 6 never read the failed root.
        assert_eq!(pruned(&mut p, 2, true), [4, 5]);
        assert_eq!(start_all(&mut p), [6]);
        assert!(pruned(&mut p, 6, true).is_empty());
        assert!(p.is_drained());
    }

    #[test]
    fn one_worker_starts_the_round_in_level_order() {
        // 4 reads 3 and 5 reads 1: a first-come queue would run 5 before 4.
        let levels: [&[u64]; 3] = [&[1, 2, 3], &[4, 5], &[6]];
        let mut p = plan(&levels, &[(4, &[3]), (5, &[1]), (6, &[4, 5])]);
        let mut started = Vec::new();
        while let Some(d) = p.start() {
            started.push(d.0);
            assert!(p.finish(d, true).is_empty());
        }
        assert_eq!(started, levels.concat());
        assert!(p.is_drained());
    }

    #[test]
    fn an_abandoned_round_drains_once_its_running_dts_finish() {
        let mut p = plan(&[&[1, 2, 3], &[4]], &[(4, &[1])]);
        assert_eq!(p.start(), Some(dt(1)));
        assert_eq!(p.start(), Some(dt(2)));
        p.abandon();
        assert!(p.start().is_none());
        assert!(!p.is_drained(), "1 and 2 are still running");
        // 1 lands and would have made 4 ready.
        p.finish(dt(1), true);
        assert!(p.start().is_none());
        assert!(!p.is_drained());
        p.finish(dt(2), true);
        assert!(p.start().is_none());
        assert!(p.is_drained());
    }
}
