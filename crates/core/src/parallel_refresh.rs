//! The refresh executor: the one runner of every set of refreshes — a round
//! over the whole DT graph, `ALTER … REFRESH` and its upstream chain, an
//! initialization and the chain it forces, the simulator's due set. It
//! adds no refresh logic of its own — each command goes through the one
//! pin → compute → install path of [`crate::refresh`] — only *when* each
//! runs, and what a failure does to the rest:
//!
//! 1. **Order** — a plan is a list of commands `(dt, refresh_ts)` in
//!    topological rank order, with the edges of the one DT graph
//!    ([`crate::EngineState::dt_graph`]). A command is *ready* once every
//!    in-plan DT it reads has installed (`RoundPlan`), and the workers
//!    always start the lowest-ranked ready one: no barrier between levels,
//!    so a round takes its critical path. One worker runs on the calling
//!    thread, exactly in rank order.
//! 2. **Pin + compute** — each worker pins its DT under a brief engine
//!    **read** lock (a DT with no data yet gets its initial refresh,
//!    §3.1.2), then computes its delta lock-free.
//! 3. **Group install + report** — the install rides the engine's install
//!    queue beside transaction commits: one leader installs every refresh
//!    staged at that moment under one write lock acquisition, runs each
//!    one's *reporter* (the caller's choice: report to the scheduler,
//!    charge a simulated warehouse, mark an initialization) in the same
//!    batch, and appends the batch to the WAL with one fsync.
//!
//! A command that fails or conflicts prunes its in-plan downstream cone
//! (§3.3.3): its readers keep their data timestamp, and their lag grows. A
//! command the scheduler issued that did not run is withdrawn, so no DT
//! stays in flight. docs/PARALLEL_REFRESH.md lists each caller's plan and
//! reporter.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;

use dt_common::{DtError, DtResult, EntityId, Timestamp};
use dt_scheduler::{DtGraph, RefreshAction, RefreshCommand, RefreshOutcome};

use crate::install::{Install, RefreshInstalled, Report};
use crate::refresh::{Delta, PlanChanges, RefreshInstall};
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

    /// Install through the engine's install queue, reporting to the
    /// scheduler as a round does. Blocks until a leader (this thread or
    /// another) lands the batch containing this refresh. Returns
    /// `Err(DtError::Conflict)` when validation lost — the DT's version
    /// moved past the prepared base, or a table read by the refresh was
    /// dropped mid-round; the refresh transaction is aborted and nothing
    /// was installed.
    pub fn install(self) -> DtResult<InstalledRefresh> {
        let request = self.request.as_ref().expect("already installed");
        let (dt, refresh_ts) = (request.dt, request.refresh_ts);
        let (commit_ts, RefreshInstalled { outcome, .. }) = self.submit(report_at_install(dt, refresh_ts))?;
        Ok(InstalledRefresh {
            dt,
            refresh_ts,
            commit_ts,
            action: outcome.action.label(),
            changed_rows: outcome.changed_rows,
            dt_rows: outcome.dt_rows,
            error: match outcome.action {
                RefreshAction::Failed(error) => Some(error),
                _ => None,
            },
        })
    }

    /// Submit to the install queue, whose install hands the outcome to
    /// `report`; returns what the install did.
    fn submit(mut self, report: Report) -> DtResult<(Timestamp, RefreshInstalled)> {
        let request = self.request.take().expect("already installed");
        let installed = self.engine.install(Install::Refresh { request, report })?;
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

/// The round's reporter: report the refresh to the scheduler as it
/// installs, at the engine's clock.
fn report_at_install(dt: EntityId, refresh_ts: Timestamp) -> Report {
    Box::new(move |st, outcome, wal| {
        let now = st.now();
        st.report_refresh(dt, refresh_ts, outcome, now, wal)
    })
}

/// How one command of a plan ended: per-DT status within one parallel
/// round.
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
    /// table it reads was dropped mid-round), with the conflict's message;
    /// its cone was pruned.
    Conflict(String),
    /// Skipped because an ancestor was unavailable this round.
    Pruned,
}

/// The report of one [`Engine::refresh_all_parallel`] round.
#[derive(Debug, Clone, Default)]
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

/// The dependency bookkeeping of one plan, free of threads and clocks:
/// which command may start next, and what a finished one unblocks or
/// prunes. Commands are handled by *rank*, their position in the plan's
/// topological order.
struct RoundPlan {
    /// Rank → the in-plan DTs it reads that have not finished yet.
    waiting_on: Vec<usize>,
    /// Rank → an in-plan DT it reads did not land.
    blocked: Vec<bool>,
    /// Rank → ranks of the in-plan DTs that read it.
    dependents: Vec<Vec<usize>>,
    /// Ranks that may start, lowest first.
    ready: BTreeSet<usize>,
    /// Ranks handed out by `start` and not yet `finish`ed.
    running: usize,
    /// The plan was halted: nothing more starts.
    halted: bool,
}

impl RoundPlan {
    /// Plan over `order` (a topological order): a DT's in-plan upstreams
    /// are the DTs it reads in `graph` that are in `order` themselves.
    fn new(order: &[EntityId], graph: &DtGraph) -> Self {
        let rank: BTreeMap<EntityId, usize> =
            order.iter().enumerate().map(|(r, dt)| (*dt, r)).collect();
        let mut plan = RoundPlan {
            waiting_on: vec![0; order.len()],
            blocked: vec![false; order.len()],
            dependents: vec![Vec::new(); order.len()],
            ready: BTreeSet::new(),
            running: 0,
            halted: false,
        };
        for (r, dt) in order.iter().enumerate() {
            for up in graph.upstream(*dt).iter().filter_map(|up| rank.get(up)) {
                plan.waiting_on[r] += 1;
                plan.dependents[*up].push(r);
            }
            if plan.waiting_on[r] == 0 {
                plan.ready.insert(r);
            }
        }
        plan
    }

    /// Hand out the lowest ready rank, if any.
    fn start(&mut self) -> Option<usize> {
        if self.halted {
            return None;
        }
        let r = self.ready.pop_first()?;
        self.running += 1;
        Some(r)
    }

    /// Nothing will start: nothing is ready (or the plan was halted) and
    /// nothing running can make anything ready.
    fn is_drained(&self) -> bool {
        (self.halted || self.ready.is_empty()) && self.running == 0
    }

    /// Stop handing out commands, whatever becomes ready; the ones running
    /// finish.
    fn halt(&mut self) {
        self.halted = true;
    }

    /// Record that the started rank `r` finished, having `landed`
    /// (installed) or not. Every rank for which it was the last unfinished
    /// upstream becomes ready — or, if any of its upstreams did not land,
    /// is pruned, which in turn resolves the ranks reading it. Returns the
    /// ranks pruned, each exactly once per plan.
    fn finish(&mut self, r: usize, landed: bool) -> Vec<usize> {
        self.running -= 1;
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
                    pruned.push(d);
                    resolved.push((d, false));
                } else {
                    self.ready.insert(d);
                }
            }
        }
        pruned
    }
}

/// What the workers of one plan share.
struct Run {
    plan: RoundPlan,
    /// How each finished command ended, in completion order, and whether
    /// its install initialized the DT.
    ended: Vec<(EntityId, RoundStatus, bool)>,
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
        self.prepare(dt, refresh_ts, None).map(|(prepared, _)| prepared)
    }

    /// [`Engine::prepare_refresh`] within a plan whose refreshes share
    /// `shared`; also returns the delta the plan hands over, if it wants
    /// the DT's.
    fn prepare(
        &self,
        dt: EntityId,
        refresh_ts: Timestamp,
        shared: Option<&PlanChanges>,
    ) -> DtResult<(PreparedRefresh, Option<Delta>)> {
        let pinned = self.state.read().pin_refresh(dt, refresh_ts)?;
        let txn = pinned.txn.clone();
        match pinned.compute(shared) {
            Ok((request, delta)) => Ok((PreparedRefresh { engine: self.clone(), request: Some(request) }, delta)),
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
        let (refresh_ts, graph, levels, pre_pruned) = {
            let st = self.state.read();
            let refresh_ts = st.txn_manager().hlc().tick();
            let graph = st.dt_graph();
            // A suspended or uninitialized DT sits the round out, and its
            // cone is pruned up front: upstream before downstream, a DT is
            // in when every DT it reads is.
            let (mut included, mut pre_pruned) = (BTreeSet::new(), BTreeSet::new());
            for &id in graph.order() {
                if graph.is_suspended(id) || !st.frontiers.contains_key(&id) {
                    continue;
                }
                if graph.upstream(id).iter().all(|up| included.contains(up)) {
                    included.insert(id);
                } else {
                    pre_pruned.insert(id);
                }
            }
            let levels = graph.level_order(&included.into_iter().collect::<Vec<_>>());
            (refresh_ts, graph, levels, pre_pruned)
        };
        self.installs.rounds.fetch_add(1, Ordering::Relaxed);

        let mut report = RefreshRoundReport { refresh_ts, levels: levels.len(), ..Default::default() };
        for dt in pre_pruned {
            report.record(dt, RoundStatus::Pruned);
        }

        // One pool for the whole round, where refreshes that finish
        // together share one install batch.
        let workers = self
            .refresh_threads()
            .min(levels.iter().map(Vec::len).max().unwrap_or(0));
        let commands = (levels.into_iter().flatten())
            .map(|dt| RefreshCommand { dt, refresh_ts, skipped: 0 })
            .collect();
        let reporter = |cmd: &RefreshCommand| report_at_install(cmd.dt, cmd.refresh_ts);
        for (dt, status, _) in self.execute(commands, &graph, workers, false, reporter)? {
            report.record(dt, status);
        }
        Ok(report)
    }

    /// Run `commands` (in topological rank order; edges from `graph`) on
    /// `workers`: each command once its in-plan upstreams have installed,
    /// the lowest-ranked ready one first, its install handing the outcome
    /// to `report(cmd)`; one that does not land prunes its in-plan cone.
    /// The refreshes share one change set per source and interval
    /// ([`PlanChanges`]). Returns how each ended, and whether its install
    /// was its DT's initialization, in completion order — a pruned one at
    /// the completion that resolved the last DT it reads; `at_micros`
    /// counts from the call. When the scheduler `issued` the commands,
    /// those that did not run are withdrawn. `Err` only on an internal
    /// error, once the running commands have finished: nothing else
    /// starts.
    pub(crate) fn execute(
        &self,
        commands: Vec<RefreshCommand>,
        graph: &DtGraph,
        workers: usize,
        issued: bool,
        report: impl Fn(&RefreshCommand) -> Report + Sync,
    ) -> DtResult<Vec<(EntityId, RoundStatus, bool)>> {
        let order: Vec<EntityId> = commands.iter().map(|cmd| cmd.dt).collect();
        let plan = RoundPlan::new(&order, graph);
        // A plan of one command has nothing to share.
        let changes = (order.len() > 1).then(|| PlanChanges::for_plan(&order, graph)).flatten();
        let shared = parking_lot::Mutex::new(Run { plan, ended: Vec::new(), internal_error: None });
        let (wake, started) = (parking_lot::Condvar::new(), Instant::now());
        let work = || self.work(&commands, &shared, &wake, &report, started, changes.as_ref());
        if workers > 1 {
            std::thread::scope(|s| (0..workers).for_each(|_| {
                s.spawn(work);
            }));
        } else {
            work();
        }
        let Run { ended, internal_error, .. } = shared.into_inner();
        // A command ran when its install reported: it installed or failed.
        let ran: BTreeSet<EntityId> = (ended.iter().filter(|_| issued))
            .filter(|(_, status, _)| matches!(status, RoundStatus::Installed { .. } | RoundStatus::Failed(_)))
            .map(|(dt, ..)| *dt)
            .collect();
        let unrun: Vec<RefreshCommand> = commands.into_iter().filter(|cmd| issued && !ran.contains(&cmd.dt)).collect();
        let withdrawn = if unrun.is_empty() { Ok(()) } else { self.abandon(unrun) };
        match internal_error {
            Some(e) => Err(e),
            None => withdrawn.map(|()| ended),
        }
    }

    /// One worker of a plan: start ready commands until the plan is
    /// drained.
    fn work(
        &self,
        commands: &[RefreshCommand],
        shared: &parking_lot::Mutex<Run>,
        wake: &parking_lot::Condvar,
        report: &(dyn Fn(&RefreshCommand) -> Report + Sync),
        started: Instant,
        changes: Option<&PlanChanges>,
    ) {
        loop {
            let rank = {
                let mut run = shared.lock();
                loop {
                    if let Some(rank) = run.plan.start() {
                        break rank;
                    }
                    if run.plan.is_drained() {
                        return;
                    }
                    wake.wait(&mut run);
                }
            };
            let cmd = &commands[rank];
            // A panicking refresh must still finish its command, or the
            // other workers would wait for it forever instead of draining
            // and letting the scope propagate the panic.
            let step = || self.run_step(cmd, report(cmd), started, changes);
            let status = catch_unwind(AssertUnwindSafe(step));
            let mut run = shared.lock();
            let landed = matches!(status, Ok(Ok((RoundStatus::Installed { .. }, _))));
            let pruned = run.plan.finish(rank, landed);
            let panic = match status {
                Ok(Ok((status, initial))) => {
                    run.ended.push((cmd.dt, status, initial));
                    let pruned = pruned.into_iter().map(|r| (commands[r].dt, RoundStatus::Pruned, false));
                    run.ended.extend(pruned);
                    None
                }
                // An internal error (or a panic) ends the plan: what is
                // running finishes, nothing else starts.
                Ok(Err(e)) => {
                    run.plan.halt();
                    run.internal_error.get_or_insert(e);
                    None
                }
                Err(panic) => {
                    run.plan.halt();
                    Some(panic)
                }
            };
            drop(run);
            wake.notify_all();
            if let Some(panic) = panic {
                resume_unwind(panic);
            }
        }
    }

    /// Prepare + install one command of a plan that started at `started`
    /// and shares `changes`, and whether it initialized the DT; a lost
    /// conflict is a status. An installed INCREMENTAL delta the plan wants
    /// is handed over before this returns, so before any reader starts.
    fn run_step(
        &self,
        cmd: &RefreshCommand,
        report: Report,
        started: Instant,
        changes: Option<&PlanChanges>,
    ) -> DtResult<(RoundStatus, bool)> {
        let installed = self.prepare(cmd.dt, cmd.refresh_ts, changes).and_then(|(prepared, delta)| {
            let (_, installed) = prepared.submit(report)?;
            if let (Some(changes), Some(delta), Some(version)) = (changes, delta, installed.version) {
                changes.hand_over(cmd.dt, delta, version);
            }
            Ok(installed)
        });
        Ok(match installed {
            Ok(RefreshInstalled {
                outcome: RefreshOutcome { action: RefreshAction::Failed(error), .. },
                initial,
                ..
            }) => (RoundStatus::Failed(error), initial),
            Ok(RefreshInstalled { outcome, initial, .. }) => {
                let at_micros = started.elapsed().as_micros() as u64;
                let (action, changed_rows) = (outcome.action.label(), outcome.changed_rows);
                (RoundStatus::Installed { action, changed_rows, at_micros }, initial)
            }
            Err(DtError::Conflict(conflict)) => (RoundStatus::Conflict(conflict), false),
            Err(e) => return Err(e),
        })
    }

    /// Withdraw refreshes the scheduler issued that did not run: take
    /// their DTs out of flight, and back the grid points they skipped.
    fn abandon(&self, commands: Vec<RefreshCommand>) -> DtResult<()> {
        self.mutate(move |st, _| {
            commands.iter().for_each(|cmd| st.scheduler.abandon(cmd.dt, cmd.skipped));
            Ok(())
        })
    }

    /// Run a DT's chain — the upstream DTs it refreshes, then the DT
    /// itself, last — on one worker. The DT's own refresh failing with a
    /// user error is an outcome (§3.3.3), returned as `Ok(Some(error))`,
    /// unless it was the DT's initialization: that is the caller's error,
    /// as `CREATE DYNAMIC TABLE`'s is. `Err` also when a command of the
    /// chain conflicted (that conflict), when an upstream refresh failed
    /// ([`DtError::Evaluation`] naming it; the DT keeps its data
    /// timestamp), or on an internal error; [`ChainError::failed`] names
    /// the DT whose refresh failed.
    pub(crate) fn execute_chain(
        &self,
        commands: Vec<RefreshCommand>,
        graph: &DtGraph,
        issued: bool,
        report: impl Fn(&RefreshCommand) -> Report + Sync,
    ) -> Result<Option<String>, ChainError> {
        let target = commands.last().map(|cmd| cmd.dt);
        let mut own_failure = None;
        // One worker ends the commands in rank order: the first that did
        // not land is the cause.
        for (dt, status, initial) in self.execute(commands, graph, 1, issued, report)? {
            let error = match status {
                RoundStatus::Conflict(conflict) => return Err(DtError::Conflict(conflict).into()),
                RoundStatus::Failed(error) => error,
                RoundStatus::Installed { .. } | RoundStatus::Pruned => continue,
            };
            let error = if Some(dt) != target {
                let name = self.inspect(|st| st.catalog.get(dt).map_or(dt.to_string(), |e| e.name.clone()));
                format!("upstream refresh of {name} failed: {error}")
            } else if initial {
                format!("initialization failed: {error}")
            } else {
                own_failure = Some(error);
                continue;
            };
            return Err(ChainError { failed: Some(dt), error: DtError::Evaluation(error) });
        }
        Ok(own_failure)
    }
}

/// Why a chain ([`Engine::execute_chain`]) did not land.
#[derive(Debug)]
pub(crate) struct ChainError {
    /// The DT whose refresh failed with a user error, when one did: the
    /// chain's own DT, or an upstream DT it refreshes.
    pub(crate) failed: Option<EntityId>,
    /// The caller's error.
    pub(crate) error: DtError,
}

impl From<DtError> for ChainError {
    fn from(error: DtError) -> Self {
        ChainError { failed: None, error }
    }
}

impl From<ChainError> for DtError {
    fn from(chain: ChainError) -> Self {
        chain.error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::TargetLag;

    fn dt(n: u64) -> EntityId {
        EntityId(n)
    }

    /// A [`RoundPlan`] that speaks in DT numbers rather than ranks.
    struct Numbered {
        plan: RoundPlan,
        order: Vec<u64>,
    }

    impl Numbered {
        fn start(&mut self) -> Option<u64> {
            self.plan.start().map(|r| self.order[r])
        }

        fn finish(&mut self, d: u64, landed: bool) -> Vec<u64> {
            let r = self.order.iter().position(|o| *o == d).expect("a DT of the plan");
            self.plan.finish(r, landed).into_iter().map(|r| self.order[r]).collect()
        }

        fn is_drained(&self) -> bool {
            self.plan.is_drained()
        }
    }

    /// A plan over `order`, where `reads` lists each DT's upstreams (a
    /// number that is no DT of the plan is a base table, or a DT the plan
    /// leaves out).
    fn ordered(order: &[u64], reads: &[(u64, &[u64])]) -> Numbered {
        let dts = reads.iter().flat_map(|(d, ups)| std::iter::once(d).chain(*ups));
        let dts: BTreeSet<u64> = dts.chain(order).copied().collect();
        let graph = DtGraph::new(dts.into_iter().map(|d| {
            let ups = reads.iter().find(|(r, _)| *r == d).map_or(&[][..], |(_, ups)| *ups);
            (dt(d), TargetLag::Downstream, false, ups.iter().copied().map(dt).collect())
        }));
        let ids: Vec<EntityId> = order.iter().copied().map(dt).collect();
        Numbered { plan: RoundPlan::new(&ids, &graph), order: order.to_vec() }
    }

    /// A round's plan: its DTs ranked by `levels`, flattened.
    fn plan(levels: &[&[u64]], reads: &[(u64, &[u64])]) -> Numbered {
        ordered(&levels.concat(), reads)
    }

    /// Everything `plan` will start right now, in the order it hands it out.
    fn start_all(plan: &mut Numbered) -> Vec<u64> {
        std::iter::from_fn(|| plan.start()).collect()
    }

    fn pruned(plan: &mut Numbered, finished: u64, landed: bool) -> Vec<u64> {
        plan.finish(finished, landed)
    }

    /// What one worker starts, finishing each DT as landed.
    fn one_worker(mut p: Numbered) -> Vec<u64> {
        let mut started = Vec::new();
        while let Some(d) = p.start() {
            started.push(d);
            assert!(p.finish(d, true).is_empty());
        }
        assert!(p.is_drained());
        started
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
        let p = plan(&levels, &[(4, &[3]), (5, &[1]), (6, &[4, 5])]);
        assert_eq!(one_worker(p), levels.concat());
    }

    #[test]
    fn one_worker_runs_a_flat_due_set_in_the_given_order() {
        // The simulator's due set: no DT of it reads another, and the
        // order is the scheduler's, not the ids'.
        let p = ordered(&[7, 3, 5], &[(7, &[100]), (3, &[1]), (5, &[1])]);
        assert_eq!(one_worker(p), [7, 3, 5]);
    }

    #[test]
    fn one_worker_runs_a_chain_with_a_gap_in_the_given_order() {
        // An initialization chain of 4: 3 already has data at the chosen
        // timestamp, so the plan leaves it out; 4 still waits for 1, which
        // it reads directly.
        let reads: [(u64, &[u64]); 3] = [(2, &[1]), (3, &[2]), (4, &[3, 1])];
        assert_eq!(one_worker(ordered(&[1, 2, 4], &reads)), [1, 2, 4]);
        let mut p = ordered(&[1, 2, 4], &reads);
        assert_eq!(start_all(&mut p), [1], "2 and 4 wait for 1");
        assert_eq!(pruned(&mut p, 1, false), [2, 4]);
    }

    #[test]
    fn an_abandoned_round_drains_once_its_running_dts_finish() {
        let mut p = plan(&[&[1, 2, 3], &[4]], &[(4, &[1])]);
        assert_eq!(p.start(), Some(1));
        assert_eq!(p.start(), Some(2));
        p.plan.halt();
        assert!(p.start().is_none());
        assert!(!p.is_drained(), "1 and 2 are still running");
        // 1 lands and would have made 4 ready.
        p.finish(1, true);
        assert!(p.start().is_none());
        assert!(!p.is_drained());
        p.finish(2, true);
        assert!(p.start().is_none());
        assert!(p.is_drained());
    }
}
