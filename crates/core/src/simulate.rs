//! The simulation driver: advances virtual time, lets the scheduler issue
//! refreshes, executes them on warehouses, and collects fleet statistics.

use dt_catalog::DtState;
use dt_common::{DtResult, Duration, EntityId, Timestamp};
use dt_scheduler::{RefreshAction, RefreshOutcome};

use crate::database::EngineState;

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

    /// Run the scheduler until the virtual clock reaches `end`. May be
    /// called repeatedly; refreshes still executing at `end` remain pending
    /// and complete during later calls.
    pub fn run_scheduler_until(&mut self, end: Timestamp) -> DtResult<SimStats> {
        let mut stats = SimStats::default();
        loop {
            let now = self.now();

            // 1. Complete refreshes whose virtual end time has passed.
            self.settle_completions(now)?;

            // 2. Initialize any DTs awaiting initialization.
            let to_init: Vec<EntityId> = self
                .catalog
                .dynamic_tables()
                .into_iter()
                .filter(|id| {
                    self.catalog
                        .get(*id)
                        .ok()
                        .and_then(|e| e.as_dt().map(|m| m.state == DtState::Initializing))
                        .unwrap_or(false)
                })
                .collect();
            for id in to_init {
                self.initialize_dt(id)?;
            }

            // 3. Issue due refreshes.
            for cmd in self.scheduler.due_refreshes(now) {
                stats.skipped += cmd.skipped;
                let outcome = self.run_refresh(cmd.dt, cmd.refresh_ts, false)?;
                stats.refreshes += 1;
                match &outcome.action {
                    RefreshAction::NoData => stats.no_data += 1,
                    RefreshAction::Full => stats.full += 1,
                    RefreshAction::Incremental => stats.incremental += 1,
                    RefreshAction::Reinitialize => stats.reinitialize += 1,
                    RefreshAction::Failed(_) => stats.failed += 1,
                }
                let duration = if outcome.work_units > 0.0 {
                    let wh = self.dt_warehouse[&cmd.dt].clone();
                    self.warehouses.get_mut(&wh)?.execute(now, outcome.work_units)
                } else {
                    Duration::ZERO
                };
                self.pending_completions.push(PendingCompletion {
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
            let mut next = end;
            if let Some(p) = self.pending_completions.iter().map(|p| p.ended).min() {
                if p > now {
                    next = next.min(p);
                }
            }
            for id in self.scheduler.registered() {
                if let (Some(period), Some(st)) =
                    (self.scheduler.period_of(id), self.scheduler.state(id))
                {
                    if st.suspended || st.last_data_ts.is_none() {
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
            self.clock.advance_to(next.min(end).max(now));
        }
        stats.credits = self.warehouses.total_credits();
        Ok(stats)
    }
}
