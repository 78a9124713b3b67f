//! The round driver: refresh a whole dependency DAG of dynamic tables
//! concurrently, level by level.
//!
//! The paper's scheduler (§5.2) aligns every DT in a DAG to shared grid
//! timestamps; this module exploits the alignment. It adds no refresh
//! logic of its own — each DT goes through the one pin → compute →
//! install path of [`crate::refresh`] — only *where* the steps run:
//!
//! 1. **Level** — one topological level order over the due set
//!    ([`dt_scheduler::Scheduler::level_order`]); every DT in a level
//!    depends only on levels already installed.
//! 2. **Pin + compute** — each worker pins its DT under a brief engine
//!    **read** lock, then computes its delta completely lock-free.
//! 3. **Group install** — the O(metadata) install rides the engine's
//!    install queue, beside transaction commits: one leader drains every
//!    staged refresh of the level under a single engine write lock
//!    acquisition, installs each, reports each to the scheduler at the
//!    current time, and appends the whole batch to the WAL with one
//!    fsync — so a level lands in one or two lock acquisitions instead
//!    of N.
//!
//! A DT that fails, conflicts, or is suspended prunes its downstream cone
//! for the round (§3.3.3): descendants cannot produce a consistent result
//! at the round timestamp without it, and they retry next round.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// The load-bearing relation mirrors [`crate::CommitStats`]: a level of N
/// refreshes completes under fewer than N engine write lock acquisitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Refreshes recorded in the refresh log (inline and round alike).
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
    pub fn install(mut self) -> DtResult<InstalledRefresh> {
        let request = self.request.take().expect("already installed");
        let (dt, refresh_ts) = (request.dt, request.refresh_ts);
        let installed = self.engine.install(Install::Refresh {
            request,
            report_now: true,
        })?;
        let outcome = installed
            .refresh
            .expect("a refresh install carries its outcome");
        Ok(InstalledRefresh::new(dt, refresh_ts, installed.commit_ts, outcome))
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
    /// Per-DT status, in completion order within each level.
    pub outcomes: Vec<(EntityId, RoundStatus)>,
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
        let pinned = self.state.read().pin_refresh(dt, refresh_ts, false)?;
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
    /// timestamp, level-parallel (§5.2's whole-DAG alignment: unchanged
    /// cones land as free NO_DATA refreshes). Suspended or uninitialized
    /// DTs — and their downstream cones — sit the round out. Returns the
    /// per-DT report; `Err` only on internal invariant violations.
    pub fn refresh_all_parallel(&self) -> DtResult<RefreshRoundReport> {
        // Choose the round timestamp and level the due set under a brief
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
            report.pruned += 1;
            report.outcomes.push((dt, RoundStatus::Pruned));
        }

        // DTs that did not land this round; their descendants prune.
        let mut unavailable: BTreeSet<EntityId> = BTreeSet::new();
        let mut internal_error: Option<DtError> = None;
        for level in levels {
            // Prune descendants of anything that failed an earlier level.
            let mut runnable = Vec::with_capacity(level.len());
            for dt in level {
                let blocked = upstream_of
                    .get(&dt)
                    .map(|ups| ups.iter().any(|u| unavailable.contains(u)))
                    .unwrap_or(false);
                if blocked {
                    unavailable.insert(dt);
                    report.pruned += 1;
                    report.outcomes.push((dt, RoundStatus::Pruned));
                } else {
                    runnable.push(dt);
                }
            }
            if runnable.is_empty() {
                continue;
            }

            // Execute the level on the worker pool: each worker claims DTs
            // off a shared cursor, prepares lock-free, and submits to the
            // install queue — so an entire level gravitates into one or
            // two install batches.
            let workers = self.refresh_threads().min(runnable.len()).max(1);
            let cursor = AtomicUsize::new(0);
            let results: parking_lot::Mutex<Vec<(EntityId, DtResult<RoundStatus>)>> =
                parking_lot::Mutex::new(Vec::with_capacity(runnable.len()));
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&dt) = runnable.get(i) else { break };
                        let status = self.round_step(dt, refresh_ts, round_started);
                        results.lock().push((dt, status));
                    });
                }
            });

            for (dt, status) in results.into_inner() {
                match status {
                    Ok(st @ RoundStatus::Installed { action, .. }) => {
                        report.refreshed += 1;
                        if action == "no_data" {
                            report.no_data += 1;
                        }
                        report.outcomes.push((dt, st));
                    }
                    Ok(st @ RoundStatus::Failed(_)) => {
                        report.failed += 1;
                        unavailable.insert(dt);
                        report.outcomes.push((dt, st));
                    }
                    Ok(st @ RoundStatus::Conflict(_)) => {
                        report.conflicts += 1;
                        unavailable.insert(dt);
                        report.outcomes.push((dt, st));
                    }
                    Ok(RoundStatus::Pruned) => unreachable!("workers never prune"),
                    Err(e) => {
                        if internal_error.is_none() {
                            internal_error = Some(e);
                        }
                    }
                }
            }
            if let Some(e) = internal_error {
                return Err(e);
            }
        }
        Ok(report)
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
