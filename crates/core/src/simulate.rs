//! The simulation driver: advances virtual time, lets the scheduler issue
//! refreshes, executes them on warehouses, and collects fleet statistics.

use dt_catalog::DtState;
use dt_common::{DtResult, Duration, EntityId, Timestamp};
use dt_scheduler::{RefreshAction, RefreshOutcome};

use crate::database::EngineState;
use crate::engine::Engine;

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
    fn settle_completions(&mut self, now: Timestamp) -> DtResult<()> {
        // Process in end-time order.
        self.pending_completions.sort_by_key(|p| p.ended);
        while self
            .pending_completions
            .first()
            .map(|p| p.ended <= now)
            .unwrap_or(false)
        {
            let p = self.pending_completions.remove(0);
            let mut wal_records = Vec::new();
            self.report_refresh(p.dt, p.refresh_ts, &p.outcome, p.ended, &mut wal_records)?;
            self.wal_append(&wal_records)?;
        }
        Ok(())
    }
}

impl Engine {
    /// Run the scheduler until the virtual clock reaches `end`. May be
    /// called repeatedly; refreshes still executing at `end` remain pending
    /// and complete during later calls. Each refresh — an initialization
    /// too — computes with no engine lock held and installs through the
    /// queue; the write lock is held only for the scheduler's bookkeeping,
    /// so readers and writers interleave with the whole run.
    pub fn run_scheduler_until(&self, end: Timestamp) -> DtResult<SimStats> {
        let mut stats = SimStats::default();
        loop {
            // 1. Complete refreshes whose virtual end time has passed.
            let (now, to_init) = {
                let mut st = self.state.write();
                let now = st.now();
                st.settle_completions(now)?;
                let state = |id: &EntityId| st.catalog.get(*id).ok()?.as_dt().map(|m| m.state);
                let initializing = |id: &EntityId| state(id) == Some(DtState::Initializing);
                let to_init = st.catalog.dynamic_tables().into_iter().filter(initializing);
                (now, to_init.collect::<Vec<_>>())
            };

            // 2. Initialize any DTs awaiting initialization. A failed one
            // is a failed refresh of that DT (§3.3.3): counted, reported
            // towards suspension, and the fleet goes on.
            for id in to_init {
                match self.initialize_dt(id) {
                    Err(e) if e.is_user_error() => {
                        stats.failed += 1;
                        let action = RefreshAction::Failed(e.to_string());
                        let failed = RefreshOutcome { action, changed_rows: 0, dt_rows: 0, work_units: 0.0 };
                        let (st, mut wal_records) = (&mut *self.state.write(), Vec::new());
                        st.report_refresh(id, now, &failed, now, &mut wal_records)?;
                        st.wal_append(&wal_records)?;
                    }
                    other => other?,
                }
            }

            // 3. Issue due refreshes. One that does not run is abandoned,
            // and so is every one issued after it.
            let due = self.state.write().scheduler.due_refreshes(now);
            for (i, cmd) in due.iter().enumerate() {
                stats.skipped += cmd.skipped;
                let outcome = match self.refresh(cmd.dt, cmd.refresh_ts, false) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        let mut st = self.state.write();
                        due[i..].iter().for_each(|cmd| st.scheduler.abandon(cmd.dt));
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
                let st = &mut *self.state.write();
                let duration = if outcome.work_units > 0.0 {
                    let wh = &st.dt_warehouse[&cmd.dt];
                    st.warehouses.get_mut(wh)?.execute(now, outcome.work_units)
                } else {
                    Duration::ZERO
                };
                st.pending_completions.push(PendingCompletion {
                    ended: now.add(duration),
                    dt: cmd.dt,
                    refresh_ts: cmd.refresh_ts,
                    outcome,
                });
            }

            // 4. Advance virtual time to the next event, or stop at `end`.
            if now >= end {
                break;
            }
            let st = self.state.write();
            let mut next = end;
            if let Some(p) = st.pending_completions.iter().map(|p| p.ended).min() {
                if p > now {
                    next = next.min(p);
                }
            }
            for id in st.scheduler.registered() {
                if let (Some(period), Some(sched)) =
                    (st.scheduler.period_of(id), st.scheduler.state(id))
                {
                    if sched.suspended || sched.last_data_ts.is_none() {
                        continue;
                    }
                    let phase = Duration::ZERO;
                    let cur = dt_scheduler::periods::grid_at_or_before(now, period, phase);
                    let upcoming = cur.add(period);
                    if upcoming > now {
                        next = next.min(upcoming);
                    }
                }
            }
            if next <= now {
                next = now.add(Duration::from_secs(1));
            }
            st.clock.advance_to(next.min(end).max(now));
        }
        stats.credits = self.state.read().warehouses.total_credits();
        Ok(stats)
    }
}
