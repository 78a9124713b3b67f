//! The refresh planner.

use std::collections::{BTreeMap, BTreeSet};

use dt_common::{DtError, DtResult, Duration, EntityId, Timestamp};

use crate::periods::{canonical_period, grid_at_or_before, TargetLag};

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Constant per-account phase offsetting the refresh grid (§5.2).
    pub phase: Duration,
    /// Consecutive failures before automatic suspension (§3.3.3).
    pub error_suspend_threshold: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            phase: Duration::ZERO,
            error_suspend_threshold: 5,
        }
    }
}

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

/// The outcome the driver reports after executing a refresh.
#[derive(Debug, Clone)]
pub struct RefreshOutcome {
    /// What happened.
    pub action: RefreshAction,
    /// Output changed rows (inserts + deletes) — the §6.3 metric.
    pub changed_rows: usize,
    /// The DT's row count after the refresh.
    pub dt_rows: usize,
    /// Work units consumed (for warehouse billing).
    pub work_units: f64,
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

/// Scheduler-side state of one DT.
#[derive(Debug, Clone)]
pub struct DtSchedState {
    /// Entity id.
    pub id: EntityId,
    /// Declared target lag.
    pub target: TargetLag,
    /// Upstream entities (only registered DTs constrain scheduling).
    pub upstream: Vec<EntityId>,
    /// Current data timestamp (None until initialized).
    pub last_data_ts: Option<Timestamp>,
    /// In-flight refresh: (refresh_ts, expected end).
    pub in_flight: Option<(Timestamp, Timestamp)>,
    /// Suspended (user or errors).
    pub suspended: bool,
    /// Consecutive error count.
    pub error_count: u32,
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
    config: SchedulerConfig,
    dts: BTreeMap<EntityId, DtSchedState>,
}

impl Scheduler {
    /// Build with a config.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            config,
            dts: BTreeMap::new(),
        }
    }

    /// Register a DT. Until [`Scheduler::mark_initialized`] it is not
    /// scheduled.
    pub fn register(&mut self, id: EntityId, target: TargetLag, upstream: Vec<EntityId>) {
        self.dts.insert(
            id,
            DtSchedState {
                id,
                target,
                upstream,
                last_data_ts: None,
                in_flight: None,
                suspended: false,
                error_count: 0,
                skipped_total: 0,
                action_counts: BTreeMap::new(),
                lag_samples: Vec::new(),
            },
        );
    }

    /// Remove a DT (drop/replace).
    pub fn unregister(&mut self, id: EntityId) {
        self.dts.remove(&id);
    }

    /// State of one DT.
    pub fn state(&self, id: EntityId) -> Option<&DtSchedState> {
        self.dts.get(&id)
    }

    /// All registered DTs.
    pub fn registered(&self) -> Vec<EntityId> {
        self.dts.keys().copied().collect()
    }

    /// Suspend or resume a DT (user action; resume clears errors).
    pub fn set_suspended(&mut self, id: EntityId, suspended: bool) -> DtResult<()> {
        let st = self
            .dts
            .get_mut(&id)
            .ok_or_else(|| DtError::Catalog(format!("unknown DT {id}")))?;
        st.suspended = suspended;
        if !suspended {
            st.error_count = 0;
        }
        Ok(())
    }

    /// Effective target lag: durations stand; DOWNSTREAM resolves to the
    /// minimum effective lag of downstream DTs (§3.2). Returns None for a
    /// DOWNSTREAM DT with no duration-lagged consumer (it refreshes only
    /// on demand).
    pub fn effective_lag(&self, id: EntityId) -> Option<Duration> {
        let mut memo: BTreeMap<EntityId, Option<Duration>> = BTreeMap::new();
        self.effective_lag_memo(id, &mut memo)
    }

    fn effective_lag_memo(
        &self,
        id: EntityId,
        memo: &mut BTreeMap<EntityId, Option<Duration>>,
    ) -> Option<Duration> {
        if let Some(v) = memo.get(&id) {
            return *v;
        }
        memo.insert(id, None); // cycle guard (graphs are acyclic anyway)
        let result = match self.dts.get(&id).map(|s| s.target) {
            Some(TargetLag::Duration(d)) => Some(d),
            Some(TargetLag::Downstream) => {
                let mut best: Option<Duration> = None;
                for (did, st) in &self.dts {
                    if st.upstream.contains(&id) {
                        if let Some(l) = self.effective_lag_memo(*did, memo) {
                            best = Some(match best {
                                None => l,
                                Some(b) => b.min(l),
                            });
                        }
                    }
                }
                best
            }
            None => None,
        };
        memo.insert(id, result);
        result
    }

    /// The refresh period of a DT: the canonical period for its effective
    /// lag, raised to at least every upstream DT's period (§5.2: each DT's
    /// period must be ≥ those upstream).
    pub fn period_of(&self, id: EntityId) -> Option<Duration> {
        let lag = self.effective_lag(id)?;
        let mut p = canonical_period(lag);
        if let Some(st) = self.dts.get(&id) {
            for up in &st.upstream {
                if self.dts.contains_key(up) {
                    if let Some(up_p) = self.period_of(*up) {
                        if up_p > p {
                            p = up_p;
                        }
                    }
                }
            }
        }
        Some(p)
    }

    /// Choose an initialization data timestamp (§3.1.2): the most recent
    /// upstream DT data timestamp that is within the target lag of `now`,
    /// else `now` itself. This avoids the quadratic re-refresh cascade when
    /// users create DTs in dependency order.
    pub fn choose_init_ts(&self, id: EntityId, now: Timestamp) -> Timestamp {
        let lag = self.effective_lag(id).unwrap_or(Duration::ZERO);
        let Some(st) = self.dts.get(&id) else {
            return now;
        };
        let mut best: Option<Timestamp> = None;
        for up in &st.upstream {
            if let Some(up_st) = self.dts.get(up) {
                if let Some(ts) = up_st.last_data_ts {
                    if now.since(ts) <= lag {
                        best = Some(match best {
                            None => ts,
                            Some(b) => b.max(ts),
                        });
                    }
                }
            }
        }
        // All upstream DTs (if any have data within lag) must share the
        // chosen timestamp; the minimum qualifying choice is the most
        // recent one common to all. We use the max recent and rely on the
        // driver to refresh any upstream that lacks that exact timestamp.
        best.unwrap_or(now)
    }

    /// Mark a DT initialized at a data timestamp. Like a late
    /// [`Scheduler::report`], it never moves the data timestamp backwards.
    pub fn mark_initialized(&mut self, id: EntityId, data_ts: Timestamp) -> DtResult<()> {
        let st = self
            .dts
            .get_mut(&id)
            .ok_or_else(|| DtError::Catalog(format!("unknown DT {id}")))?;
        st.last_data_ts = st.last_data_ts.max(Some(data_ts));
        Ok(())
    }

    /// Withdraw an issued refresh of `id` that will not run: clear its
    /// in-flight mark without counting a refresh. Every command
    /// [`Scheduler::due_refreshes`] or [`Scheduler::manual_refresh_plan`]
    /// issues is either reported or abandoned.
    pub fn abandon(&mut self, id: EntityId) {
        if let Some(st) = self.dts.get_mut(&id) {
            st.in_flight = None;
        }
    }

    /// Compute the refreshes due at `now`, in dependency order. A DT is due
    /// when its grid point advanced beyond its data timestamp, it is not
    /// suspended, not currently refreshing, and every upstream DT already
    /// has data at the target timestamp.
    pub fn due_refreshes(&mut self, now: Timestamp) -> Vec<RefreshCommand> {
        let order = self.topo_order();
        let mut out = Vec::new();
        for id in order {
            let Some(period) = self.period_of(id) else {
                continue;
            };
            let phase = self.config.phase;
            let Some(st) = self.dts.get(&id) else { continue };
            if st.suspended || st.last_data_ts.is_none() {
                continue;
            }
            let scheduled = grid_at_or_before(now, period, phase);
            let last = st.last_data_ts.unwrap();
            if scheduled <= last {
                continue;
            }
            if let Some((_, end)) = st.in_flight {
                // Previous refresh still running: the missed grid point is
                // skipped; the next refresh covers its interval (§3.3.3).
                let _ = end;
                continue;
            }
            // Upstream readiness at the same data timestamp.
            let ready = st.upstream.iter().all(|up| match self.dts.get(up) {
                Some(up_st) => {
                    up_st.last_data_ts.map(|t| t >= scheduled).unwrap_or(false)
                        && up_st.in_flight.is_none()
                }
                None => true, // base tables impose no constraint
            });
            if !ready {
                continue;
            }
            // Count skipped grid points in (last, scheduled).
            let p = period.as_micros();
            let missed = ((scheduled.as_micros() - last.as_micros()) / p - 1).max(0) as u64;
            let st = self.dts.get_mut(&id).unwrap();
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
    /// command was issued), refreshing every upstream DT first at the same
    /// timestamp, in dependency order.
    pub fn manual_refresh_plan(&mut self, id: EntityId, now: Timestamp) -> Vec<RefreshCommand> {
        let mut closure = BTreeSet::new();
        self.upstream_closure(id, &mut closure);
        closure.insert(id);
        let order = self.topo_order();
        let mut out = Vec::new();
        for cand in order {
            if !closure.contains(&cand) {
                continue;
            }
            if let Some(st) = self.dts.get_mut(&cand) {
                if st.last_data_ts == Some(now) {
                    continue; // already there
                }
                st.in_flight = Some((now, Timestamp::MAX));
                out.push(RefreshCommand {
                    dt: cand,
                    refresh_ts: now,
                    skipped: 0,
                });
            }
        }
        out
    }

    fn upstream_closure(&self, id: EntityId, out: &mut BTreeSet<EntityId>) {
        if let Some(st) = self.dts.get(&id) {
            for up in &st.upstream {
                if self.dts.contains_key(up) && out.insert(*up) {
                    self.upstream_closure(*up, out);
                }
            }
        }
    }

    fn topo_order(&self) -> Vec<EntityId> {
        // Kahn's algorithm over DT→DT edges.
        let ids: BTreeSet<EntityId> = self.dts.keys().copied().collect();
        let mut indeg: BTreeMap<EntityId, usize> = ids.iter().map(|i| (*i, 0)).collect();
        for st in self.dts.values() {
            let n = st.upstream.iter().filter(|u| ids.contains(u)).count();
            indeg.insert(st.id, n);
        }
        let mut ready: Vec<EntityId> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(i, _)| *i)
            .collect();
        let mut out = Vec::with_capacity(ids.len());
        while let Some(i) = ready.pop() {
            out.push(i);
            for st in self.dts.values() {
                if st.upstream.contains(&i) {
                    if let Some(d) = indeg.get_mut(&st.id) {
                        *d -= 1;
                        if *d == 0 {
                            ready.push(st.id);
                        }
                    }
                }
            }
        }
        out
    }

    /// Group `dts` into topological levels of the DT dependency DAG: every
    /// DT in level *k* depends (directly or transitively, **within the
    /// given set**) only on DTs in levels < *k*. All DTs in one level can
    /// therefore refresh concurrently once the previous levels have
    /// installed; a parallel refresh round ranks its DTs by this order
    /// and starts each when the DTs it reads have landed. DTs in `dts`
    /// that are not registered are ignored; ordering within a level is
    /// deterministic (ascending entity id).
    pub fn level_order(&self, dts: &[EntityId]) -> Vec<Vec<EntityId>> {
        let set: BTreeSet<EntityId> = dts
            .iter()
            .copied()
            .filter(|id| self.dts.contains_key(id))
            .collect();
        // Depth of each DT = 1 + max depth of its in-set DT upstreams.
        let mut depth: BTreeMap<EntityId, usize> = BTreeMap::new();
        for id in self.topo_order() {
            if !set.contains(&id) {
                continue;
            }
            let d = self.dts[&id]
                .upstream
                .iter()
                .filter(|u| set.contains(u))
                .filter_map(|u| depth.get(u))
                .map(|d| d + 1)
                .max()
                .unwrap_or(0);
            depth.insert(id, d);
        }
        let max_depth = depth.values().copied().max().map_or(0, |d| d + 1);
        let mut levels = vec![Vec::new(); max_depth];
        for (id, d) in depth {
            levels[d].push(id);
        }
        levels
    }

    /// The downstream cone of `root` restricted to `within`: every DT in
    /// `within` that (transitively) reads `root`, excluding `root` itself.
    /// A parallel refresh round prunes this cone when `root` fails, is
    /// suspended, or conflicts — its descendants cannot produce a
    /// consistent result at the round's timestamp without it (§3.3.3).
    pub fn downstream_cone(&self, root: EntityId, within: &[EntityId]) -> Vec<EntityId> {
        let set: BTreeSet<EntityId> = within.iter().copied().collect();
        // Traverse every registered descendant (an out-of-scope intermediate
        // DT still propagates unavailability), then restrict the answer.
        let mut visited: BTreeSet<EntityId> = BTreeSet::new();
        let mut frontier = vec![root];
        while let Some(parent) = frontier.pop() {
            for st in self.dts.values() {
                if st.upstream.contains(&parent) && visited.insert(st.id) {
                    frontier.push(st.id);
                }
            }
        }
        visited.into_iter().filter(|id| set.contains(id)).collect()
    }

    /// Report a refresh outcome. `started`/`ended` are the wall (simulated)
    /// times of the refresh job. Returns true if the DT was auto-suspended
    /// by the error policy.
    pub fn report(
        &mut self,
        id: EntityId,
        refresh_ts: Timestamp,
        outcome: &RefreshOutcome,
        ended: Timestamp,
    ) -> DtResult<bool> {
        let threshold = self.config.error_suspend_threshold;
        let st = self
            .dts
            .get_mut(&id)
            .ok_or_else(|| DtError::Catalog(format!("unknown DT {id}")))?;
        st.in_flight = None;
        let label = match &outcome.action {
            RefreshAction::NoData => "no_data",
            RefreshAction::Full => "full",
            RefreshAction::Incremental => "incremental",
            RefreshAction::Reinitialize => "reinitialize",
            RefreshAction::Failed(_) => "failed",
        };
        *st.action_counts.entry(label).or_insert(0) += 1;
        if let RefreshAction::Failed(_) = outcome.action {
            // §3.3.3: failures are not retried; the next scheduled refresh
            // (a later data timestamp) will be attempted. Consecutive
            // failures suspend the DT.
            st.error_count += 1;
            if st.error_count >= threshold {
                st.suspended = true;
                return Ok(true);
            }
            return Ok(false);
        }
        st.error_count = 0;
        // A late completion report (e.g. a manual refresh already advanced
        // the data timestamp past this one) must not move time backwards.
        if st.last_data_ts.map(|t| t >= refresh_ts).unwrap_or(false) {
            return Ok(false);
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
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: i64) -> Duration {
        Duration::from_mins(m)
    }

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn ok_outcome() -> RefreshOutcome {
        RefreshOutcome {
            action: RefreshAction::Incremental,
            changed_rows: 10,
            dt_rows: 100,
            work_units: 100.0,
        }
    }

    #[test]
    fn level_order_groups_by_dag_depth() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let base = EntityId(100); // not registered: base tables don't level
        let (a, b, c, d, e) = (EntityId(1), EntityId(2), EntityId(3), EntityId(4), EntityId(5));
        s.register(a, TargetLag::Duration(mins(1)), vec![base]);
        s.register(b, TargetLag::Duration(mins(1)), vec![base]);
        s.register(c, TargetLag::Duration(mins(1)), vec![a, b]);
        s.register(d, TargetLag::Duration(mins(1)), vec![c]);
        s.register(e, TargetLag::Duration(mins(1)), vec![base]);
        let levels = s.level_order(&[a, b, c, d, e]);
        assert_eq!(levels, vec![vec![a, b, e], vec![c], vec![d]]);
        // Restricting the set re-levels: without c, d has no in-set parent.
        let levels = s.level_order(&[a, d]);
        assert_eq!(levels, vec![vec![a, d]]);
        // Unregistered ids are ignored.
        assert_eq!(s.level_order(&[base]), Vec::<Vec<EntityId>>::new());
    }

    #[test]
    fn downstream_cone_is_transitive_and_restricted() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let (a, b, c, d, e) = (EntityId(1), EntityId(2), EntityId(3), EntityId(4), EntityId(5));
        s.register(a, TargetLag::Duration(mins(1)), vec![]);
        s.register(b, TargetLag::Duration(mins(1)), vec![a]);
        s.register(c, TargetLag::Duration(mins(1)), vec![b]);
        s.register(d, TargetLag::Duration(mins(1)), vec![a]);
        s.register(e, TargetLag::Duration(mins(1)), vec![]);
        let all = [a, b, c, d, e];
        assert_eq!(s.downstream_cone(a, &all), vec![b, c, d]);
        assert_eq!(s.downstream_cone(b, &all), vec![c]);
        assert_eq!(s.downstream_cone(e, &all), vec![]);
        // Restriction: c reads b which reads a, but only c is in scope.
        assert_eq!(s.downstream_cone(a, &[c]), vec![c]);
    }

    #[test]
    fn downstream_lag_resolution() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let (a, b, c) = (EntityId(1), EntityId(2), EntityId(3));
        s.register(a, TargetLag::Downstream, vec![]);
        s.register(b, TargetLag::Duration(mins(10)), vec![a]);
        s.register(c, TargetLag::Duration(mins(2)), vec![a]);
        // a inherits the *minimum* downstream lag.
        assert_eq!(s.effective_lag(a), Some(mins(2)));
        // A pure-DOWNSTREAM chain with no consumer resolves to None.
        let mut s2 = Scheduler::new(SchedulerConfig::default());
        s2.register(a, TargetLag::Downstream, vec![]);
        assert_eq!(s2.effective_lag(a), None);
    }

    #[test]
    fn period_respects_upstream() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let (a, b) = (EntityId(1), EntityId(2));
        // Upstream with a large lag → large period; downstream with small
        // lag is clamped up to the upstream period (§5.2).
        s.register(a, TargetLag::Duration(Duration::from_hours(4)), vec![]);
        s.register(b, TargetLag::Duration(mins(1)), vec![a]);
        let pa = s.period_of(a).unwrap();
        let pb = s.period_of(b).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn due_refreshes_in_dependency_order_and_alignment() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let (a, b) = (EntityId(1), EntityId(2));
        s.register(a, TargetLag::Duration(mins(2)), vec![]);
        s.register(b, TargetLag::Duration(mins(2)), vec![a]);
        s.mark_initialized(a, ts(0)).unwrap();
        s.mark_initialized(b, ts(0)).unwrap();
        // At t=100s the 48s grid has points at 48 and 96.
        let due = s.due_refreshes(ts(100));
        // Only `a` can start; `b` waits for a's data at ts 96.
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].dt, a);
        assert_eq!(due[0].refresh_ts, ts(96));
        s.report(a, ts(96), &ok_outcome(), ts(101)).unwrap();
        let due = s.due_refreshes(ts(102));
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
        let mut flat = Scheduler::new(SchedulerConfig::default());
        for i in 0..N {
            flat.register(EntityId(i), TargetLag::Duration(mins(1 + (i % 60) as i64)), vec![]);
            flat.mark_initialized(EntityId(i), ts(0)).unwrap();
        }
        let due = flat.due_refreshes(now);
        let ids: BTreeSet<EntityId> = due.iter().map(|c| c.dt).collect();
        assert_eq!((due.len(), ids.len()), (N as usize, N as usize));
        for cmd in &due {
            let p = canonical_period(mins(1 + (cmd.dt.0 % 60) as i64)).as_secs();
            assert_eq!(cmd.refresh_ts, ts(3600 / p * p), "{cmd:?}");
            assert_eq!(cmd.skipped, (3600 / p - 1) as u64, "{cmd:?}");
        }
        assert!(flat.due_refreshes(now).is_empty(), "all in flight");

        // A chain: one wave drains head first, one DT per call (the next
        // is not ready until its upstream reported), and every link gets
        // the same data timestamp. (200 links: a call walks each DT's
        // whole upstream path, so draining 1000 takes minutes.)
        const DEPTH: u64 = 200;
        let mut chain = Scheduler::new(SchedulerConfig::default());
        for i in 0..DEPTH {
            let upstream = if i == 0 { vec![] } else { vec![EntityId(i - 1)] };
            chain.register(EntityId(i), TargetLag::Duration(mins(5)), upstream);
            chain.mark_initialized(EntityId(i), ts(0)).unwrap();
        }
        for i in 0..DEPTH {
            let due = chain.due_refreshes(now);
            let expected = RefreshCommand { dt: EntityId(i), refresh_ts: ts(3552), skipped: 36 };
            assert_eq!(due, [expected]);
            chain.report(EntityId(i), ts(3552), &ok_outcome(), now).unwrap();
        }
        assert!(chain.due_refreshes(now).is_empty());
    }

    #[test]
    fn no_duplicate_issue_while_in_flight_and_skips_counted() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let a = EntityId(1);
        s.register(a, TargetLag::Duration(mins(1)), vec![]);
        s.mark_initialized(a, ts(0)).unwrap();
        let due = s.due_refreshes(ts(50));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].refresh_ts, ts(48));
        // Still in flight at the next grid point: nothing due.
        assert!(s.due_refreshes(ts(100)).is_empty());
        // Finishes late at t=150 (after missing grid 96 and 144).
        s.report(a, ts(48), &ok_outcome(), ts(150)).unwrap();
        let due = s.due_refreshes(ts(150));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].refresh_ts, ts(144));
        // Grid point 96 was skipped.
        assert_eq!(due[0].skipped, 1);
        assert_eq!(s.state(a).unwrap().skipped_total, 1);
    }

    #[test]
    fn mark_initialized_never_rewinds_the_data_timestamp() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let a = EntityId(1);
        s.register(a, TargetLag::Duration(mins(1)), vec![]);
        s.mark_initialized(a, ts(10)).unwrap();
        // A round moved the DT to 48 before a forced refresh at 10 was
        // marked: the mark must not take it back.
        let due = s.due_refreshes(ts(50));
        s.report(a, due[0].refresh_ts, &ok_outcome(), ts(51)).unwrap();
        s.mark_initialized(a, ts(10)).unwrap();
        assert_eq!(s.state(a).unwrap().last_data_ts, Some(ts(48)));
        s.mark_initialized(a, ts(60)).unwrap();
        assert_eq!(s.state(a).unwrap().last_data_ts, Some(ts(60)));
    }

    #[test]
    fn an_abandoned_refresh_is_issued_again_and_counts_nothing() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let (a, b) = (EntityId(1), EntityId(2));
        s.register(a, TargetLag::Duration(mins(1)), vec![]);
        s.register(b, TargetLag::Duration(mins(1)), vec![a]);
        s.mark_initialized(a, ts(0)).unwrap();
        s.mark_initialized(b, ts(0)).unwrap();
        let plan = s.manual_refresh_plan(b, ts(30));
        assert_eq!(plan.len(), 2);
        assert!(s.due_refreshes(ts(50)).is_empty(), "both in flight");
        for cmd in &plan {
            s.abandon(cmd.dt);
        }
        assert_eq!(s.due_refreshes(ts(50)).len(), 1, "a is due again");
        assert!(s.state(a).unwrap().action_counts.is_empty());
        assert_eq!(s.state(a).unwrap().last_data_ts, Some(ts(0)));
        s.abandon(EntityId(99)); // unknown ids are ignored
    }

    #[test]
    fn error_counter_suspends_after_threshold() {
        let mut s = Scheduler::new(SchedulerConfig {
            phase: Duration::ZERO,
            error_suspend_threshold: 3,
        });
        let a = EntityId(1);
        s.register(a, TargetLag::Duration(mins(1)), vec![]);
        s.mark_initialized(a, ts(0)).unwrap();
        let fail = RefreshOutcome {
            action: RefreshAction::Failed("division by zero".into()),
            changed_rows: 0,
            dt_rows: 0,
            work_units: 10.0,
        };
        let mut now = 50;
        for i in 0..3 {
            let due = s.due_refreshes(ts(now));
            assert_eq!(due.len(), 1, "round {i}");
            let suspended = s.report(a, due[0].refresh_ts, &fail, ts(now + 1)).unwrap();
            assert_eq!(suspended, i == 2);
            now += 48;
        }
        assert!(s.state(a).unwrap().suspended);
        assert!(s.due_refreshes(ts(now)).is_empty());
        // Resume clears the error count.
        s.set_suspended(a, false).unwrap();
        assert_eq!(s.state(a).unwrap().error_count, 0);
        assert!(!s.due_refreshes(ts(now)).is_empty());
    }

    #[test]
    fn success_resets_error_counter() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let a = EntityId(1);
        s.register(a, TargetLag::Duration(mins(1)), vec![]);
        s.mark_initialized(a, ts(0)).unwrap();
        let fail = RefreshOutcome {
            action: RefreshAction::Failed("x".into()),
            changed_rows: 0,
            dt_rows: 0,
            work_units: 1.0,
        };
        let due = s.due_refreshes(ts(50));
        s.report(a, due[0].refresh_ts, &fail, ts(51)).unwrap();
        assert_eq!(s.state(a).unwrap().error_count, 1);
        let due = s.due_refreshes(ts(100));
        s.report(a, due[0].refresh_ts, &ok_outcome(), ts(101)).unwrap();
        assert_eq!(s.state(a).unwrap().error_count, 0);
    }

    #[test]
    fn lag_sawtooth_peaks_and_troughs() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let a = EntityId(1);
        s.register(a, TargetLag::Duration(mins(1)), vec![]);
        s.mark_initialized(a, ts(0)).unwrap();
        let due = s.due_refreshes(ts(50));
        s.report(a, due[0].refresh_ts, &ok_outcome(), ts(52)).unwrap();
        let samples = &s.state(a).unwrap().lag_samples;
        // Peak: 52 - 0 = 52s; trough: 52 - 48 = 4s.
        assert_eq!(samples[0].lag, Duration::from_secs(52));
        assert!(samples[0].peak);
        assert_eq!(samples[1].lag, Duration::from_secs(4));
        assert!(!samples[1].peak);
    }

    #[test]
    fn manual_refresh_plans_upstream_chain() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let (a, b, c) = (EntityId(1), EntityId(2), EntityId(3));
        s.register(a, TargetLag::Duration(mins(10)), vec![]);
        s.register(b, TargetLag::Duration(mins(10)), vec![a]);
        s.register(c, TargetLag::Duration(mins(10)), vec![b]);
        s.mark_initialized(a, ts(0)).unwrap();
        s.mark_initialized(b, ts(0)).unwrap();
        s.mark_initialized(c, ts(0)).unwrap();
        let plan = s.manual_refresh_plan(c, ts(500));
        let order: Vec<EntityId> = plan.iter().map(|c| c.dt).collect();
        assert_eq!(order, vec![a, b, c]);
        assert!(plan.iter().all(|c| c.refresh_ts == ts(500)));
    }

    #[test]
    fn init_timestamp_reuses_recent_upstream_data() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let (a, b) = (EntityId(1), EntityId(2));
        s.register(a, TargetLag::Duration(mins(10)), vec![]);
        s.mark_initialized(a, ts(400)).unwrap();
        s.register(b, TargetLag::Duration(mins(10)), vec![a]);
        // a's data (t=400) is within b's 10-minute lag at t=500: reuse it —
        // initialized to a timestamp *before* creation (§3.1.2).
        assert_eq!(s.choose_init_ts(b, ts(500)), ts(400));
        // Outside the lag window: initialize at now.
        assert_eq!(s.choose_init_ts(b, ts(10_000)), ts(10_000));
    }
}
