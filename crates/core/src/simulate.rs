//! The simulator, the one module that knows of one: virtual time, the
//! §3.3.2 cost model, warehouse charging and refreshes still running on
//! their warehouses. An engine built with [`Engine::simulated`] reads the
//! injected [`SimClock`] instead of the wall clock and charges each refresh
//! its work units: `ALTER … REFRESH` advances the clock by their warehouse
//! time as it reports, and [`Engine::run_scheduler_until`] hands its due
//! set to the refresh executor with a reporter (`complete_later`) that
//! counts the refresh in the run's [`SimStats`] and keeps the DT in flight
//! until the clock passes that time, so slow refreshes skip grid points
//! (§3.3.3). On the wall clock a refresh charges nothing.

use std::sync::Arc;

use parking_lot::Mutex;

use dt_catalog::DtState;
use dt_common::{Clock, DtError, DtResult, Duration, EntityId, SimClock, Timestamp};
use dt_scheduler::{CostModel, RefreshAction, RefreshCommand, RefreshOutcome};

use crate::durability::WalRecord;
use crate::engine::Engine;
use crate::install::Report;
use crate::parallel_refresh::ChainError;
use crate::state::EngineState;

/// What [`Engine::simulated`] injects into an engine.
#[derive(Debug, Clone, Default)]
pub struct Simulation {
    /// The virtual clock the engine reads. Clones share one timeline:
    /// keep one to advance time.
    pub clock: SimClock,
    /// The §3.3.2 cost model every refresh is charged by.
    pub cost_model: CostModel,
}

/// A simulated engine's part of the [`EngineState`].
pub(crate) struct Simulator {
    clock: SimClock,
    cost_model: CostModel,
    /// Refreshes issued by `run_scheduler_until` whose virtual end time
    /// has not been reached yet (carried across calls so long refreshes
    /// keep blocking their DT — the precondition for skips, §3.3.3).
    pending_completions: Vec<PendingCompletion>,
}

impl From<Simulation> for Simulator {
    fn from(sim: Simulation) -> Self {
        Simulator { clock: sim.clock, cost_model: sim.cost_model, pending_completions: Vec::new() }
    }
}

impl Simulator {
    /// The clock the engine reads: a handle on the injected timeline.
    pub(crate) fn clock(&self) -> Arc<dyn Clock> {
        Arc::new(self.clock.clone())
    }
}

/// A refresh whose computation ran but whose virtual end time (warehouse
/// duration) lies in the future: a DT stays in flight until it has passed.
#[derive(Debug, Clone)]
struct PendingCompletion {
    /// Virtual completion time.
    ended: Timestamp,
    /// The DT refreshed.
    dt: EntityId,
    /// Its data timestamp.
    refresh_ts: Timestamp,
    /// The outcome to report to the scheduler at `ended`.
    outcome: RefreshOutcome,
}

/// Aggregate statistics of a simulation run (the §6.3 measurements).
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total refreshes executed (including NO_DATA, excluding initial).
    pub refreshes: u64,
    /// NO_DATA refreshes.
    pub no_data: u64,
    /// Incremental refreshes.
    pub incremental: u64,
    /// Full refreshes.
    pub full: u64,
    /// Reinitializations.
    pub reinitialize: u64,
    /// Failed refreshes.
    pub failed: u64,
    /// Skipped grid points.
    pub skipped: u64,
    /// Warehouse credits consumed.
    pub credits: f64,
}

/// The simulator's reporter: the refresh runs on its DT's warehouse from
/// `now`, is counted in `stats` with the grid points it skipped, and the
/// DT stays in flight until the clock passes its end.
fn complete_later(cmd: &RefreshCommand, now: Timestamp, stats: &Arc<Mutex<SimStats>>) -> Report {
    let (RefreshCommand { dt, refresh_ts, skipped }, stats) = (cmd.clone(), Arc::clone(stats));
    Box::new(move |st, outcome, _| {
        let ended = now.add(st.charge(dt, now, outcome)?);
        let mut stats = stats.lock();
        *match outcome.action {
            RefreshAction::NoData => &mut stats.no_data,
            RefreshAction::Full => &mut stats.full,
            RefreshAction::Incremental => &mut stats.incremental,
            RefreshAction::Reinitialize => &mut stats.reinitialize,
            RefreshAction::Failed(_) => &mut stats.failed,
        } += 1;
        stats.refreshes += 1;
        stats.skipped += skipped;
        let outcome = outcome.clone();
        if let Some(sim) = st.sim.as_mut() {
            sim.pending_completions.push(PendingCompletion { ended, dt, refresh_ts, outcome });
        }
        Ok(())
    })
}

impl EngineState {
    /// When a refresh of `dt` that its caller waits for ends: now on the
    /// wall clock; under a simulation, once its warehouse has run its work
    /// units from now (§3.3.1) — the clock advances by that time.
    pub(crate) fn blocking_refresh_end(&mut self, dt: EntityId, outcome: &RefreshOutcome) -> DtResult<Timestamp> {
        let Some(clock) = self.sim.as_ref().map(|sim| sim.clock.clone()) else {
            return Ok(self.now());
        };
        let duration = self.charge(dt, clock.now(), outcome)?;
        Ok(clock.advance(duration))
    }

    /// Move a simulation's clock up to `t`, a time recovery read from the
    /// log; the wall clock is not set.
    pub(crate) fn restore_clock(&self, t: Timestamp) {
        if let Some(sim) = self.sim.as_ref().filter(|sim| sim.clock.now() < t) {
            sim.clock.advance_to(t);
        }
    }

    /// Report every pending completion whose virtual end time has passed.
    /// A completion whose DT is dropped by then is discarded, and the DT
    /// taken out of flight (its skips stand: the refresh ran); one dropped
    /// and undropped since is reported.
    fn settle_completions(&mut self, now: Timestamp, wal: &mut Vec<WalRecord>) -> DtResult<()> {
        let Some(sim) = self.sim.as_mut() else { return Ok(()) };
        // Process in end-time order.
        sim.pending_completions.sort_by_key(|p| p.ended);
        let due = sim.pending_completions.partition_point(|p| p.ended <= now);
        let settled: Vec<PendingCompletion> = sim.pending_completions.drain(..due).collect();
        for p in settled {
            if self.catalog.get(p.dt).is_ok_and(|e| e.is_live()) {
                self.report_refresh(p.dt, p.refresh_ts, &p.outcome, p.ended, wal)?;
            } else {
                self.scheduler.abandon(p.dt, 0);
            }
        }
        Ok(())
    }

    /// Run the work units of a refresh of `dt` with `outcome` on its
    /// warehouse from `start` (§3.3.1) and return how long they take; no
    /// work takes no time.
    fn charge(&mut self, dt: EntityId, start: Timestamp, outcome: &RefreshOutcome) -> DtResult<Duration> {
        let units = self.sim.as_ref().map_or(0.0, |sim| sim.cost_model.refresh_units(outcome));
        if units <= 0.0 {
            return Ok(Duration::ZERO);
        }
        let meta = (self.catalog.get(dt)?.as_dt())
            .ok_or_else(|| DtError::internal(format!("{dt} is not a DT")))?;
        Ok(self.warehouses.get_mut(&meta.warehouse)?.execute(start, units))
    }

    /// Advance the virtual clock from `now` (before `end`) to the next
    /// event — a pending completion or an active DT's next grid point —
    /// but not past `end`.
    fn step_clock(&self, now: Timestamp, end: Timestamp) {
        let Some(sim) = &self.sim else { return };
        let graph = self.dt_graph();
        let active =
            |id: &EntityId| !graph.is_suspended(*id) && self.scheduler.data_ts(*id).is_some();
        let grid_points = graph.order().iter().copied().filter(active).filter_map(|id| {
            let period = graph.period_of(id)?;
            let phase = dt_scheduler::periods::ACCOUNT_PHASE;
            Some(dt_scheduler::periods::grid_at_or_before(now, period, phase).add(period))
        });
        // The earliest pending completion counts only when it lies ahead.
        let completion = sim.pending_completions.iter().map(|p| p.ended).min();
        let ahead = completion.into_iter().chain(grid_points).filter(|t| *t > now);
        sim.clock.advance_to(ahead.fold(end, Timestamp::min));
    }
}

impl Engine {
    /// Run the scheduler until the virtual clock reaches `end`. May be
    /// called repeatedly; refreshes still executing at `end` remain pending
    /// and complete during later calls. Each refresh — an initialization
    /// too — computes with no engine lock held and installs through the
    /// queue, and so does each step of the scheduler's bookkeeping, so
    /// readers and writers interleave with the whole run.
    ///
    /// Only a simulated engine ([`Engine::simulated`]) runs it: on the wall
    /// clock it returns [`DtError::Unsupported`] and does nothing.
    pub fn run_scheduler_until(&self, end: Timestamp) -> DtResult<SimStats> {
        if self.inspect(|st| st.sim.is_none()) {
            let msg = "run_scheduler_until drives a simulated engine; this one reads the wall clock";
            return Err(DtError::Unsupported(msg.into()));
        }
        let stats = Arc::new(Mutex::new(SimStats::default()));
        loop {
            // 1. Complete refreshes whose virtual end time has passed.
            let (now, to_init) = self.mutate(|st, wal| {
                let now = st.now();
                st.settle_completions(now, wal)?;
                let state = |id: &EntityId| st.catalog.get(*id).ok()?.as_dt().map(|m| m.state);
                let initializing = |id: &EntityId| state(id) == Some(DtState::Initializing);
                let to_init = st.catalog.dynamic_tables().into_iter().filter(initializing);
                Ok((now, to_init.collect::<Vec<_>>()))
            })?;

            // 2. Initialize any DTs awaiting initialization. A failed one
            // is a failed refresh of that DT (§3.3.3): counted against it,
            // reported towards suspension, and the fleet goes on. A chain
            // that failed on an upstream counts nothing against the DT: the
            // upstream's failure counts at its own initialization, or at
            // its install once it has data.
            for id in to_init {
                match self.initialize_dt(id) {
                    Err(ChainError { failed: Some(dt), error }) if dt == id => {
                        stats.lock().failed += 1;
                        let action = RefreshAction::Failed(error.to_string());
                        let failed = RefreshOutcome { action, changed_rows: 0, dt_rows: 0, source_rows: 0 };
                        self.mutate(move |st, wal| {
                            st.record_refresh_error(id, wal)?;
                            st.report_refresh(id, now, &failed, now, wal)
                        })?;
                    }
                    Err(ChainError { failed: Some(_), .. }) => {}
                    other => other?,
                }
            }

            // 3. Run the due refreshes, one at a time in dependency order,
            // each reporting by counting itself, charging its warehouse and
            // queuing its completion. One that conflicts is withdrawn and
            // issued again at a later grid point.
            let (due, graph) = self.mutate(move |st, _| {
                let graph = st.dt_graph();
                Ok((st.scheduler.due_refreshes(&graph, now), graph))
            })?;
            self.execute(due, &graph, 1, true, |cmd| complete_later(cmd, now, &stats))?;

            // 4. Advance virtual time to the next event, or stop at `end`.
            if now >= end {
                break;
            }
            self.mutate(move |st, _| {
                st.step_clock(now, end);
                Ok(())
            })?;
        }
        let stats = stats.lock().clone();
        Ok(SimStats { credits: self.state.read().warehouses.total_credits(), ..stats })
    }
}
