//! The simulation driver: advances virtual time, lets the scheduler issue
//! refreshes, executes them on warehouses, and collects fleet statistics.

use dt_catalog::DtState;
use dt_common::{DtResult, Duration, EntityId, Timestamp};
use dt_scheduler::{RefreshAction, RefreshCommand, RefreshOutcome};

use crate::durability::WalRecord;
use crate::engine::Engine;
use crate::state::EngineState;

/// A refresh whose computation ran but whose virtual end time (warehouse
/// duration) lies in the future. Held in [`EngineState`] so it survives across
/// `run_scheduler_until` calls: a DT stays in-flight until its refresh's
/// virtual duration has elapsed, which is what makes slow refreshes skip
/// grid points (§3.3.3).
#[derive(Debug, Clone)]
pub struct PendingCompletion {
    /// Virtual completion time.
    pub ended: Timestamp,
    /// The DT refreshed.
    pub dt: EntityId,
    /// Its data timestamp.
    pub refresh_ts: Timestamp,
    /// The outcome to report to the scheduler at `ended`.
    pub outcome: RefreshOutcome,
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

impl SimStats {
    /// Fraction of refreshes that moved no data (paper: >90%).
    pub fn no_data_fraction(&self) -> f64 {
        if self.refreshes == 0 {
            0.0
        } else {
            self.no_data as f64 / self.refreshes as f64
        }
    }
}

impl EngineState {
    /// Report every pending completion whose virtual end time has passed.
    /// A completion whose DT the scheduler no longer knows (dropped since
    /// it was issued) is discarded; one dropped and undropped since is
    /// reported to its new schedule.
    fn settle_completions(&mut self, now: Timestamp, wal: &mut Vec<WalRecord>) -> DtResult<()> {
        // Process in end-time order.
        self.pending_completions.sort_by_key(|p| p.ended);
        let due = self.pending_completions.partition_point(|p| p.ended <= now);
        let settled: Vec<PendingCompletion> = self.pending_completions.drain(..due).collect();
        for p in settled {
            if self.scheduler.state(p.dt).is_some() {
                self.report_refresh(p.dt, p.refresh_ts, &p.outcome, p.ended, wal)?;
            }
        }
        Ok(())
    }

    /// Run `units` of a refresh of `dt` on its warehouse from `start`
    /// (§3.3.1) and return how long they take; no work takes no time.
    pub(crate) fn charge(&mut self, dt: EntityId, start: Timestamp, units: f64) -> DtResult<Duration> {
        if units <= 0.0 {
            return Ok(Duration::ZERO);
        }
        let wh = &self.dt_warehouse[&dt];
        Ok(self.warehouses.get_mut(wh)?.execute(start, units))
    }

    /// Advance the virtual clock from `now` (before `end`) to the next
    /// event — a pending completion or an active DT's next grid point —
    /// but not past `end`.
    fn step_clock(&self, now: Timestamp, end: Timestamp) {
        let sched = &self.scheduler;
        let active = |id: &EntityId| {
            sched.state(*id).is_some_and(|s| !s.suspended && s.last_data_ts.is_some())
        };
        let grid_points = sched.registered().into_iter().filter(active).filter_map(|id| {
            let period = sched.period_of(id)?;
            Some(dt_scheduler::periods::grid_at_or_before(now, period, Duration::ZERO).add(period))
        });
        // The earliest pending completion counts only when it lies ahead.
        let completion = self.pending_completions.iter().map(|p| p.ended).min();
        let ahead = completion.into_iter().chain(grid_points).filter(|t| *t > now);
        self.clock.advance_to(ahead.fold(end, Timestamp::min));
    }
}

impl Engine {
    /// Take refreshes the scheduler issued but that will not run out of
    /// flight.
    pub(crate) fn abandon(&self, issued: &[RefreshCommand]) {
        let dts: Vec<EntityId> = issued.iter().map(|cmd| cmd.dt).collect();
        // The caller is already returning an error.
        let _ = self.mutate(move |st, _| {
            dts.iter().for_each(|dt| st.scheduler.abandon(*dt));
            Ok(())
        });
    }

    /// Run the scheduler until the virtual clock reaches `end`. May be
    /// called repeatedly; refreshes still executing at `end` remain pending
    /// and complete during later calls. Each refresh — an initialization
    /// too — computes with no engine lock held and installs through the
    /// queue, and so does each step of the scheduler's bookkeeping, so
    /// readers and writers interleave with the whole run.
    pub fn run_scheduler_until(&self, end: Timestamp) -> DtResult<SimStats> {
        let mut stats = SimStats::default();
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
            // is a failed refresh of that DT (§3.3.3): counted, reported
            // towards suspension, and the fleet goes on.
            for id in to_init {
                match self.initialize_dt(id) {
                    Err(e) if e.is_user_error() => {
                        stats.failed += 1;
                        let action = RefreshAction::Failed(e.to_string());
                        let failed = RefreshOutcome { action, changed_rows: 0, dt_rows: 0, work_units: 0.0 };
                        self.mutate(move |st, wal| st.report_refresh(id, now, &failed, now, wal))?;
                    }
                    other => other?,
                }
            }

            // 3. Issue due refreshes. One that does not run is abandoned,
            // and so is every one issued after it.
            let due = self.mutate(move |st, _| Ok(st.scheduler.due_refreshes(now)))?;
            for (i, cmd) in due.iter().enumerate() {
                stats.skipped += cmd.skipped;
                let outcome = match self.refresh(cmd.dt, cmd.refresh_ts, false) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        self.abandon(&due[i..]);
                        return Err(e);
                    }
                };
                stats.refreshes += 1;
                match &outcome.action {
                    RefreshAction::NoData => stats.no_data += 1,
                    RefreshAction::Full => stats.full += 1,
                    RefreshAction::Incremental => stats.incremental += 1,
                    RefreshAction::Reinitialize => stats.reinitialize += 1,
                    RefreshAction::Failed(_) => stats.failed += 1,
                }
                let (dt, refresh_ts) = (cmd.dt, cmd.refresh_ts);
                self.mutate(move |st, _| {
                    let ended = now.add(st.charge(dt, now, outcome.work_units)?);
                    let pending = PendingCompletion { ended, dt, refresh_ts, outcome };
                    st.pending_completions.push(pending);
                    Ok(())
                })?;
            }

            // 4. Advance virtual time to the next event, or stop at `end`.
            if now >= end {
                break;
            }
            self.mutate(move |st, _| {
                st.step_clock(now, end);
                Ok(())
            })?;
        }
        stats.credits = self.state.read().warehouses.total_credits();
        Ok(stats)
    }
}
