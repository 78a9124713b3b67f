//! Virtual warehouses: the data-plane resource model (§3.3.1).
//!
//! A warehouse is a cluster of nodes billed per second while active, with
//! automatic suspension when idle. Refresh cost follows §3.3.2's model:
//! a fixed cost plus a variable cost linear in the amount of changed data;
//! duration scales inversely with the node count.

use std::collections::HashMap;

use dt_common::{DtError, DtResult, Duration, Timestamp};

use crate::scheduler::{RefreshAction, RefreshOutcome};

/// The fixed + variable refresh cost model of §3.3.2, in abstract "work
/// units" (1 unit ≈ 1 node-millisecond).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed per-refresh cost (query compilation, version resolution,
    /// commit) — paid even by small incremental refreshes.
    pub fixed_units: f64,
    /// Cost per input/changed row scanned.
    pub unit_per_row: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // Defaults chosen so a no-op incremental refresh costs ~200ms
            // of one node and large scans dominate beyond ~10k rows.
            fixed_units: 200.0,
            unit_per_row: 0.02,
        }
    }
}

impl CostModel {
    /// Work units for a refresh that processes `rows` rows.
    pub fn units(&self, rows: usize) -> f64 {
        self.fixed_units + self.unit_per_row * rows as f64
    }

    /// Work units of a refresh with `outcome`: none for NO_DATA (§3.3.2:
    /// no warehouse compute), the fixed cost for a failure, else the rows
    /// it read and wrote.
    pub fn refresh_units(&self, outcome: &RefreshOutcome) -> f64 {
        match outcome.action {
            RefreshAction::NoData => 0.0,
            RefreshAction::Failed(_) => self.fixed_units,
            _ => self.units(outcome.source_rows + outcome.changed_rows),
        }
    }
}

/// One virtual warehouse.
#[derive(Debug, Clone)]
pub struct Warehouse {
    /// Name (catalog-level identity).
    pub name: String,
    /// Number of nodes; duration scales as 1/nodes.
    pub nodes: u32,
    /// Suspend automatically after this much idle time.
    pub auto_suspend: Duration,
    /// Credits consumed so far (node-seconds).
    credits: f64,
    /// The instant the warehouse became (or will become) idle.
    busy_until: Timestamp,
    /// Whether currently suspended.
    suspended: bool,
    /// Total resumes (cold starts).
    resumes: u64,
}

impl Warehouse {
    /// A suspended warehouse with the given size.
    pub fn new(name: impl Into<String>, nodes: u32, auto_suspend: Duration) -> Self {
        assert!(nodes > 0);
        Warehouse {
            name: name.into(),
            nodes,
            auto_suspend,
            credits: 0.0,
            busy_until: Timestamp::EPOCH,
            suspended: true,
            resumes: 0,
        }
    }

    /// Account for suspension up to `now` (lazily applied before use).
    fn settle(&mut self, now: Timestamp) {
        if !self.suspended && now > self.busy_until {
            let idle = now.since(self.busy_until);
            if idle >= self.auto_suspend {
                // Bill the idle tail up to auto-suspend, then suspend.
                self.credits += self.auto_suspend.as_secs_f64() * self.nodes as f64;
                self.suspended = true;
            }
        }
    }

    /// Execute a job of `units` work at `now`; returns its duration.
    /// Resuming a suspended warehouse counts a cold start.
    pub fn execute(&mut self, now: Timestamp, units: f64) -> Duration {
        self.settle(now);
        if self.suspended {
            self.suspended = false;
            self.resumes += 1;
            self.busy_until = now;
        } else if now > self.busy_until {
            // Bill idle-but-running time since the last job.
            self.credits += now.since(self.busy_until).as_secs_f64() * self.nodes as f64;
            self.busy_until = now;
        }
        // 1 unit = 1 node-millisecond of work.
        let millis = (units / self.nodes as f64).max(1.0);
        let d = Duration::from_micros((millis * 1_000.0) as i64);
        // Jobs on a warehouse serialize in this model (one refresh at a
        // time per DT; co-located DTs queue, trading latency for cost —
        // exactly the §3.3.1 trade-off).
        let start = self.busy_until.max(now);
        self.busy_until = start.add(d);
        self.credits += d.as_secs_f64() * self.nodes as f64;
        d
    }

    /// When the warehouse will next be free.
    pub fn busy_until(&self) -> Timestamp {
        self.busy_until
    }

    /// Credits (node-seconds) consumed so far.
    pub fn credits(&self) -> f64 {
        self.credits
    }

    /// Cold starts so far.
    pub fn resumes(&self) -> u64 {
        self.resumes
    }

    /// Whether the warehouse is suspended as of `now`.
    pub fn is_suspended(&mut self, now: Timestamp) -> bool {
        self.settle(now);
        self.suspended
    }
}

/// The account's warehouses, by name.
#[derive(Debug, Default)]
pub struct WarehousePool {
    warehouses: HashMap<String, Warehouse>,
}

impl WarehousePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a warehouse. Names are unique.
    pub fn create(&mut self, name: &str, nodes: u32, auto_suspend: Duration) -> DtResult<()> {
        let lname = name.to_ascii_lowercase();
        if self.warehouses.contains_key(&lname) {
            return Err(DtError::Catalog(format!("warehouse '{lname}' already exists")));
        }
        self.warehouses
            .insert(lname.clone(), Warehouse::new(lname, nodes, auto_suspend));
        Ok(())
    }

    /// Look up a warehouse.
    pub fn get_mut(&mut self, name: &str) -> DtResult<&mut Warehouse> {
        self.warehouses
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DtError::Catalog(format!("unknown warehouse '{name}'")))
    }

    /// Read-only lookup.
    pub fn get(&self, name: &str) -> DtResult<&Warehouse> {
        self.warehouses
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DtError::Catalog(format!("unknown warehouse '{name}'")))
    }

    /// Total credits across all warehouses.
    pub fn total_credits(&self) -> f64 {
        self.warehouses.values().map(|w| w.credits()).sum()
    }

    /// Dump every warehouse's definition as `(name, nodes, auto_suspend)`,
    /// sorted by name. Runtime accounting (credits, busy-until, resume
    /// counts) is deliberately excluded: a restarted engine starts its
    /// warehouses cold, like a resumed account.
    pub fn dump(&self) -> Vec<(String, u32, Duration)> {
        let mut out: Vec<(String, u32, Duration)> = self
            .warehouses
            .values()
            .map(|w| (w.name.clone(), w.nodes, w.auto_suspend))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn cost_model_fixed_plus_variable() {
        let m = CostModel::default();
        assert!(m.units(0) > 0.0);
        assert!(m.units(1_000_000) > 100.0 * m.units(0) / 2.0);
    }

    #[test]
    fn refresh_units_follow_the_outcome() {
        let m = CostModel { fixed_units: 100.0, unit_per_row: 0.5 };
        let outcome = |action| RefreshOutcome { action, changed_rows: 4, dt_rows: 9, source_rows: 6 };
        assert_eq!(m.refresh_units(&outcome(RefreshAction::NoData)), 0.0);
        assert_eq!(m.refresh_units(&outcome(RefreshAction::Failed("x".into()))), 100.0);
        assert_eq!(m.refresh_units(&outcome(RefreshAction::Full)), 105.0);
        assert_eq!(m.refresh_units(&outcome(RefreshAction::Incremental)), m.units(10));
    }

    #[test]
    fn bigger_warehouses_run_faster_but_cost_more_per_second() {
        let mut small = Warehouse::new("s", 1, Duration::from_mins(5));
        let mut big = Warehouse::new("b", 8, Duration::from_mins(5));
        let d_small = small.execute(ts(0), 8000.0);
        let d_big = big.execute(ts(0), 8000.0);
        assert!(d_big < d_small);
        // Same total credits for the same work (seconds × nodes).
        let ratio = small.credits() / big.credits();
        assert!((ratio - 1.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn auto_suspend_stops_billing() {
        let mut w = Warehouse::new("w", 2, Duration::from_secs(60));
        w.execute(ts(0), 1000.0);
        let after_job = w.credits();
        // A long idle period: only the 60s auto-suspend tail is billed.
        assert!(w.is_suspended(ts(3600)));
        let billed_idle = w.credits() - after_job;
        assert!((billed_idle - 120.0).abs() < 1.0, "billed {billed_idle}");
        // Next job is a cold start.
        w.execute(ts(3600), 1000.0);
        assert_eq!(w.resumes(), 2);
    }

    #[test]
    fn jobs_queue_on_a_busy_warehouse() {
        let mut w = Warehouse::new("w", 1, Duration::from_mins(5));
        let d1 = w.execute(ts(0), 10_000.0); // 10s on one node
        assert_eq!(d1, Duration::from_secs(10));
        // Second job issued at t=0 starts after the first.
        w.execute(ts(0), 10_000.0);
        assert_eq!(w.busy_until(), ts(20));
    }

    #[test]
    fn pool_create_and_duplicate() {
        let mut p = WarehousePool::new();
        p.create("WH", 4, Duration::from_mins(5)).unwrap();
        assert!(p.create("wh", 1, Duration::from_mins(5)).is_err());
        assert_eq!(p.get("wh").unwrap().nodes, 4);
        assert!(p.get("nope").is_err());
    }
}
