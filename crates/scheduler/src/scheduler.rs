//! The refresh planner.
//!
//! The [`Scheduler`] keeps only scheduling state per DT — data timestamp,
//! the refresh in flight, skips, action counts and lag samples — and takes
//! everything else from the [`DtGraph`] each call is handed: which DTs
//! exist, what each reads, its target lag and period, and whether it is
//! suspended. The engine renders that graph from its catalog, so the
//! catalog is the one place those facts live; the consecutive-error
//! counter that suspends a DT (§3.3.3) is the catalog's too.

use std::collections::BTreeMap;

use dt_common::{Duration, EntityId, Timestamp};

use crate::graph::DtGraph;
use crate::periods::{grid_at_or_before, ACCOUNT_PHASE};

/// The action a refresh took (§3.3.2 / §3.3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefreshAction {
    /// Sources unchanged; only the data timestamp advanced. Free.
    NoData,
    /// INSERT OVERWRITE of the full defining query.
    Full,
    /// Changes computed and merged.
    Incremental,
    /// Upstream change invalidated stored results; recompute with row ids.
    Reinitialize,
    /// The refresh failed with a user error.
    Failed(String),
}

impl RefreshAction {
    /// The action's name in logs and statistics.
    pub fn label(&self) -> &'static str {
        match self {
            RefreshAction::NoData => "no_data",
            RefreshAction::Full => "full",
            RefreshAction::Incremental => "incremental",
            RefreshAction::Reinitialize => "reinitialize",
            RefreshAction::Failed(_) => "failed",
        }
    }
}

/// The outcome the driver reports after executing a refresh.
#[derive(Debug, Clone)]
pub struct RefreshOutcome {
    /// What happened.
    pub action: RefreshAction,
    /// Output changed rows (inserts + deletes) — the §6.3 metric.
    pub changed_rows: usize,
    /// The DT's row count after the refresh.
    pub dt_rows: usize,
    /// Source rows the refresh read: the whole query input for FULL and
    /// REINITIALIZE, the source change rows for INCREMENTAL, 0 for NO_DATA
    /// and failures.
    pub source_rows: usize,
}

/// A refresh the scheduler wants executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshCommand {
    /// The DT to refresh.
    pub dt: EntityId,
    /// The data timestamp to refresh to.
    pub refresh_ts: Timestamp,
    /// Grid points skipped since the last refresh (folded into this one's
    /// change interval, §3.3.3).
    pub skipped: u64,
}

/// One point of the lag sawtooth (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LagSample {
    /// Measurement instant.
    pub at: Timestamp,
    /// Lag value.
    pub lag: Duration,
    /// True for the peak (just before commit), false for the trough
    /// (just after).
    pub peak: bool,
}

/// Scheduler-side state of one DT, created by its first
/// [`Scheduler::mark_initialized`] or [`Scheduler::report`].
#[derive(Debug, Clone, Default)]
pub struct DtSchedState {
    /// Current data timestamp (None until initialized).
    pub last_data_ts: Option<Timestamp>,
    /// In-flight refresh: (refresh_ts, expected end).
    pub in_flight: Option<(Timestamp, Timestamp)>,
    /// Total skips.
    pub skipped_total: u64,
    /// Counts per action label, for the §6.3 statistics.
    pub action_counts: BTreeMap<&'static str, u64>,
    /// Lag sawtooth samples.
    pub lag_samples: Vec<LagSample>,
}

/// The refresh planner.
#[derive(Debug, Default)]
pub struct Scheduler {
    dts: BTreeMap<EntityId, DtSchedState>,
}

impl Scheduler {

    /// State of one DT, if it has been initialized or reported.
    pub fn state(&self, id: EntityId) -> Option<&DtSchedState> {
        self.dts.get(&id)
    }

    /// The data timestamp of a DT; `None` until it is initialized.
    pub fn data_ts(&self, id: EntityId) -> Option<Timestamp> {
        self.dts.get(&id)?.last_data_ts
    }

    /// Choose an initialization data timestamp (§3.1.2): the most recent
    /// upstream DT data timestamp that is within the target lag of `now`,
    /// else `now` itself. This avoids the quadratic re-refresh cascade when
    /// users create DTs in dependency order.
    pub fn choose_init_ts(&self, graph: &DtGraph, id: EntityId, now: Timestamp) -> Timestamp {
        let lag = graph.effective_lag(id).unwrap_or(Duration::ZERO);
        // All upstream DTs (if any have data within lag) must share the
        // chosen timestamp; the minimum qualifying choice is the most
        // recent one common to all. We use the max recent and rely on the
        // driver to refresh any upstream that lacks that exact timestamp.
        (graph.upstream(id).iter())
            .filter_map(|up| self.data_ts(*up))
            .filter(|ts| now.since(*ts) <= lag)
            .max()
            .unwrap_or(now)
    }

    /// Mark a DT initialized at a data timestamp. Like a late
    /// [`Scheduler::report`], it never moves the data timestamp backwards.
    pub fn mark_initialized(&mut self, id: EntityId, data_ts: Timestamp) {
        let st = self.dts.entry(id).or_default();
        st.last_data_ts = st.last_data_ts.max(Some(data_ts));
    }

    /// Withdraw an issued refresh of `id` that will not run: clear its
    /// in-flight mark and take back the `skipped` grid points it counted,
    /// counting no refresh. Every command [`Scheduler::due_refreshes`] or
    /// [`Scheduler::manual_refresh_plan`] issues is reported or abandoned.
    pub fn abandon(&mut self, id: EntityId, skipped: u64) {
        if let Some(st) = self.dts.get_mut(&id) {
            st.in_flight = None;
            st.skipped_total -= skipped;
        }
    }

    /// Compute the refreshes due at `now`, in dependency order. A DT is due
    /// when its grid point advanced beyond its data timestamp, it is not
    /// suspended, not currently refreshing, and every upstream DT already
    /// has data at the target timestamp.
    pub fn due_refreshes(&mut self, graph: &DtGraph, now: Timestamp) -> Vec<RefreshCommand> {
        let mut out = Vec::new();
        for &id in graph.order() {
            let Some(period) = graph.period_of(id) else {
                continue;
            };
            let Some(last) = self.data_ts(id).filter(|_| !graph.is_suspended(id)) else {
                continue;
            };
            let scheduled = grid_at_or_before(now, period, ACCOUNT_PHASE);
            // Still running: the missed grid point is skipped; the next
            // refresh covers its interval (§3.3.3).
            if scheduled <= last || self.dts[&id].in_flight.is_some() {
                continue;
            }
            // Upstream readiness at the same data timestamp.
            let ready = graph.upstream(id).iter().all(|up| {
                self.dts.get(up).is_some_and(|up| {
                    up.last_data_ts.is_some_and(|t| t >= scheduled) && up.in_flight.is_none()
                })
            });
            if !ready {
                continue;
            }
            // Count skipped grid points in (last, scheduled).
            let p = period.as_micros();
            let missed = ((scheduled.as_micros() - last.as_micros()) / p - 1).max(0) as u64;
            let st = self.dts.get_mut(&id).expect("initialized");
            st.skipped_total += missed;
            st.in_flight = Some((scheduled, Timestamp::MAX));
            out.push(RefreshCommand {
                dt: id,
                refresh_ts: scheduled,
                skipped: missed,
            });
        }
        out
    }

    /// Plan a manual refresh (§3.2): a data timestamp at `now` (after the
    /// command was issued, and so after every DT's data timestamp),
    /// refreshing every upstream DT first at the same timestamp, in
    /// dependency order.
    pub fn manual_refresh_plan(
        &mut self,
        graph: &DtGraph,
        id: EntityId,
        now: Timestamp,
    ) -> Vec<RefreshCommand> {
        let mut chain = graph.upstream_order(id);
        chain.push(id);
        let mut out = Vec::new();
        for dt in chain {
            self.dts.entry(dt).or_default().in_flight = Some((now, Timestamp::MAX));
            out.push(RefreshCommand {
                dt,
                refresh_ts: now,
                skipped: 0,
            });
        }
        out
    }

    /// Report a refresh outcome. `ended` is when the refresh job finished,
    /// on the engine's clock. A failure leaves the data timestamp where it
    /// is; whether it suspends the DT is the caller's decision, from the
    /// catalog's consecutive-error counter (§3.3.3).
    pub fn report(
        &mut self,
        id: EntityId,
        refresh_ts: Timestamp,
        outcome: &RefreshOutcome,
        ended: Timestamp,
    ) {
        let st = self.dts.entry(id).or_default();
        st.in_flight = None;
        *st.action_counts.entry(outcome.action.label()).or_insert(0) += 1;
        // §3.3.3: failures are not retried; the next scheduled refresh (a
        // later data timestamp) will be attempted. A late completion report
        // (e.g. a manual refresh already advanced the data timestamp past
        // this one) must not move time backwards.
        let failed = matches!(outcome.action, RefreshAction::Failed(_));
        if failed || st.last_data_ts >= Some(refresh_ts) {
            return;
        }
        // Lag sawtooth: the peak is measured just before this commit
        // (against the previous data timestamp), the trough just after.
        if let Some(prev) = st.last_data_ts {
            st.lag_samples.push(LagSample {
                at: ended,
                lag: ended.since(prev),
                peak: true,
            });
        }
        st.lag_samples.push(LagSample {
            at: ended,
            lag: ended.since(refresh_ts),
            peak: false,
        });
        st.last_data_ts = Some(refresh_ts);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use dt_common::TargetLag;

    use super::*;
    use crate::periods::canonical_period;

    fn mins(m: i64) -> Duration {
        Duration::from_mins(m)
    }

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A graph of DTs `(id, lag, reads)`, none suspended.
    fn graph(dts: &[(u64, Duration, &[u64])]) -> DtGraph {
        DtGraph::new(dts.iter().map(|(id, lag, reads)| {
            let reads = reads.iter().copied().map(EntityId).collect();
            (EntityId(*id), TargetLag::Duration(*lag), false, reads)
        }))
    }

    fn ok_outcome() -> RefreshOutcome {
        RefreshOutcome {
            action: RefreshAction::Incremental,
            changed_rows: 10,
            dt_rows: 100,
            source_rows: 100,
        }
    }

    fn failed_outcome() -> RefreshOutcome {
        RefreshOutcome {
            action: RefreshAction::Failed("division by zero".into()),
            changed_rows: 0,
            dt_rows: 0,
            source_rows: 0,
        }
    }

    #[test]
    fn due_refreshes_in_dependency_order_and_alignment() {
        let mut s = Scheduler::default();
        let (a, b) = (EntityId(1), EntityId(2));
        let g = graph(&[(1, mins(2), &[]), (2, mins(2), &[1])]);
        s.mark_initialized(a, ts(0));
        s.mark_initialized(b, ts(0));
        // At t=100s the 48s grid has points at 48 and 96.
        let due = s.due_refreshes(&g, ts(100));
        // Only `a` can start; `b` waits for a's data at ts 96.
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].dt, a);
        assert_eq!(due[0].refresh_ts, ts(96));
        s.report(a, ts(96), &ok_outcome(), ts(101));
        let due = s.due_refreshes(&g, ts(102));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].dt, b);
        assert_eq!(due[0].refresh_ts, ts(96));
    }

    /// The two topologies §5.2 calls out, at fleet size: many independent
    /// DTs, and one deep chain (where every DT waits for its upstream's
    /// data at the same timestamp, which limits responsiveness).
    #[test]
    fn due_refreshes_over_a_flat_fleet_and_a_deep_chain() {
        const N: u64 = 1000;
        let now = ts(3600);

        // Independent DTs, lags of 1..=60 minutes, never refreshed since
        // the epoch: all due at once, each at its own period's grid point,
        // the grid points passed meanwhile counted as skipped.
        let mut flat = Scheduler::default();
        let flat_graph = DtGraph::new((0..N).map(|i| {
            (EntityId(i), TargetLag::Duration(mins(1 + (i % 60) as i64)), false, vec![])
        }));
        for i in 0..N {
            flat.mark_initialized(EntityId(i), ts(0));
        }
        let due = flat.due_refreshes(&flat_graph, now);
        let ids: BTreeSet<EntityId> = due.iter().map(|c| c.dt).collect();
        assert_eq!((due.len(), ids.len()), (N as usize, N as usize));
        for cmd in &due {
            let p = canonical_period(mins(1 + (cmd.dt.0 % 60) as i64)).as_secs();
            assert_eq!(cmd.refresh_ts, ts(3600 / p * p), "{cmd:?}");
            assert_eq!(cmd.skipped, (3600 / p - 1) as u64, "{cmd:?}");
        }
        assert!(flat.due_refreshes(&flat_graph, now).is_empty(), "all in flight");

        // A chain: one wave drains head first, one DT per call (the next
        // is not ready until its upstream reported), and every link gets
        // the same data timestamp.
        let mut chain = Scheduler::default();
        let chain_graph = DtGraph::new((0..N).map(|i| {
            let upstream = if i == 0 { vec![] } else { vec![EntityId(i - 1)] };
            (EntityId(i), TargetLag::Duration(mins(5)), false, upstream)
        }));
        for i in 0..N {
            chain.mark_initialized(EntityId(i), ts(0));
        }
        for i in 0..N {
            let due = chain.due_refreshes(&chain_graph, now);
            let expected = RefreshCommand { dt: EntityId(i), refresh_ts: ts(3552), skipped: 36 };
            assert_eq!(due, [expected]);
            chain.report(EntityId(i), ts(3552), &ok_outcome(), now);
        }
        assert!(chain.due_refreshes(&chain_graph, now).is_empty());
    }

    #[test]
    fn no_duplicate_issue_while_in_flight_and_skips_counted() {
        let mut s = Scheduler::default();
        let a = EntityId(1);
        let g = graph(&[(1, mins(1), &[])]);
        s.mark_initialized(a, ts(0));
        let due = s.due_refreshes(&g, ts(50));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].refresh_ts, ts(48));
        // Still in flight at the next grid point: nothing due.
        assert!(s.due_refreshes(&g, ts(100)).is_empty());
        // Finishes late at t=150 (after missing grid 96 and 144).
        s.report(a, ts(48), &ok_outcome(), ts(150));
        let due = s.due_refreshes(&g, ts(150));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].refresh_ts, ts(144));
        // Grid point 96 was skipped.
        assert_eq!(due[0].skipped, 1);
        assert_eq!(s.state(a).unwrap().skipped_total, 1);
    }

    #[test]
    fn mark_initialized_never_rewinds_the_data_timestamp() {
        let mut s = Scheduler::default();
        let a = EntityId(1);
        let g = graph(&[(1, mins(1), &[])]);
        s.mark_initialized(a, ts(10));
        // A round moved the DT to 48 before a forced refresh at 10 was
        // marked: the mark must not take it back.
        let due = s.due_refreshes(&g, ts(50));
        s.report(a, due[0].refresh_ts, &ok_outcome(), ts(51));
        s.mark_initialized(a, ts(10));
        assert_eq!(s.data_ts(a), Some(ts(48)));
        s.mark_initialized(a, ts(60));
        assert_eq!(s.data_ts(a), Some(ts(60)));
    }

    #[test]
    fn an_abandoned_refresh_is_issued_again_and_counts_nothing() {
        let mut s = Scheduler::default();
        let (a, b) = (EntityId(1), EntityId(2));
        let g = graph(&[(1, mins(1), &[]), (2, mins(1), &[1])]);
        s.mark_initialized(a, ts(0));
        s.mark_initialized(b, ts(0));
        let plan = s.manual_refresh_plan(&g, b, ts(30));
        assert_eq!(plan.len(), 2);
        assert!(s.due_refreshes(&g, ts(50)).is_empty(), "both in flight");
        for cmd in &plan {
            s.abandon(cmd.dt, cmd.skipped);
        }
        assert_eq!(s.due_refreshes(&g, ts(50)).len(), 1, "a is due again");
        assert!(s.state(a).unwrap().action_counts.is_empty());
        assert_eq!(s.data_ts(a), Some(ts(0)));
        s.abandon(EntityId(99), 0); // unknown ids are ignored
    }

    #[test]
    fn a_withdrawn_command_takes_back_its_skips() {
        let mut s = Scheduler::default();
        let a = EntityId(1);
        let g = graph(&[(1, mins(1), &[])]);
        s.mark_initialized(a, ts(0));
        // Withdrawn at each grid point from 144 on: each command counts
        // every grid point since 0, so only one of them may stand.
        for (now, skipped) in [(150, 2), (200, 3), (250, 4)] {
            let due = s.due_refreshes(&g, ts(now));
            assert_eq!(due[0].skipped, skipped);
            assert_eq!(s.state(a).unwrap().skipped_total, skipped);
            s.abandon(a, due[0].skipped);
            assert_eq!(s.state(a).unwrap().skipped_total, 0);
        }
    }

    #[test]
    fn suspended_and_uninitialized_dts_are_not_due() {
        let mut s = Scheduler::default();
        let (a, b) = (EntityId(1), EntityId(2));
        let suspended = |on: bool| {
            DtGraph::new([
                (a, TargetLag::Duration(mins(1)), on, vec![]),
                (b, TargetLag::Duration(mins(1)), false, vec![]),
            ])
        };
        s.mark_initialized(a, ts(0));
        assert!(s.due_refreshes(&suspended(true), ts(50)).is_empty());
        let due = s.due_refreshes(&suspended(false), ts(50));
        assert_eq!(due.iter().map(|c| c.dt).collect::<Vec<_>>(), [a]);
    }

    #[test]
    fn a_failure_counts_its_action_and_keeps_the_data_timestamp() {
        let mut s = Scheduler::default();
        let a = EntityId(1);
        let g = graph(&[(1, mins(1), &[])]);
        s.mark_initialized(a, ts(0));
        let due = s.due_refreshes(&g, ts(50));
        s.report(a, due[0].refresh_ts, &failed_outcome(), ts(51));
        let st = s.state(a).unwrap();
        assert_eq!((st.last_data_ts, st.in_flight), (Some(ts(0)), None));
        assert_eq!(st.action_counts.get("failed"), Some(&1));
        assert!(st.lag_samples.is_empty());
        // The next grid point is issued as usual.
        assert_eq!(s.due_refreshes(&g, ts(100)).len(), 1);
        // A report creates the state of a DT never initialized.
        s.report(EntityId(2), ts(48), &failed_outcome(), ts(49));
        assert_eq!(s.data_ts(EntityId(2)), None);
    }

    #[test]
    fn lag_sawtooth_peaks_and_troughs() {
        let mut s = Scheduler::default();
        let a = EntityId(1);
        let g = graph(&[(1, mins(1), &[])]);
        s.mark_initialized(a, ts(0));
        let due = s.due_refreshes(&g, ts(50));
        s.report(a, due[0].refresh_ts, &ok_outcome(), ts(52));
        let samples = &s.state(a).unwrap().lag_samples;
        // Peak: 52 - 0 = 52s; trough: 52 - 48 = 4s.
        assert_eq!(samples[0].lag, Duration::from_secs(52));
        assert!(samples[0].peak);
        assert_eq!(samples[1].lag, Duration::from_secs(4));
        assert!(!samples[1].peak);
    }

    #[test]
    fn manual_refresh_plans_upstream_chain() {
        let mut s = Scheduler::default();
        let (a, b, c) = (EntityId(1), EntityId(2), EntityId(3));
        let g = graph(&[(1, mins(10), &[]), (2, mins(10), &[1]), (3, mins(10), &[2])]);
        for dt in [a, b, c] {
            s.mark_initialized(dt, ts(0));
        }
        let plan = s.manual_refresh_plan(&g, c, ts(500));
        let order: Vec<EntityId> = plan.iter().map(|c| c.dt).collect();
        assert_eq!(order, vec![a, b, c]);
        assert!(plan.iter().all(|c| c.refresh_ts == ts(500)));
    }

    #[test]
    fn init_timestamp_reuses_recent_upstream_data() {
        let mut s = Scheduler::default();
        let (a, b) = (EntityId(1), EntityId(2));
        let g = graph(&[(1, mins(10), &[]), (2, mins(10), &[1])]);
        s.mark_initialized(a, ts(400));
        // a's data (t=400) is within b's 10-minute lag at t=500: reuse it —
        // initialized to a timestamp *before* creation (§3.1.2).
        assert_eq!(s.choose_init_ts(&g, b, ts(500)), ts(400));
        // Outside the lag window: initialize at now.
        assert_eq!(s.choose_init_ts(&g, b, ts(10_000)), ts(10_000));
    }
}
