//! Refresh scheduling (§3.2, §3.3, §5.2 of the paper).
//!
//! * [`graph`] — the DT dependency graph every scheduling call reads:
//!   live DTs with their target lags and states, the DTs each definition
//!   reads, the topological order, target-lag resolution (durations and
//!   `DOWNSTREAM`, §3.2) and each DT's refresh period.
//! * [`periods`] — the canonical refresh periods `48·2ⁿ` seconds with a
//!   constant per-account phase, which guarantee that the data timestamps
//!   of DTs with different target lags align (§5.2).
//! * [`warehouse`] — the virtual-warehouse cost model: per-second credit
//!   billing, auto-suspend, node-count scaling (§3.3.1), and the
//!   fixed + variable refresh cost model of §3.3.2.
//! * [`scheduler`] — the refresh planner: due-refresh computation in
//!   dependency order with aligned data timestamps, skip logic when the
//!   previous refresh is still running (§3.3.3), and lag telemetry (the
//!   sawtooth of Figure 4).
//!
//! The scheduler is a *planner*: it decides what to refresh and when, and
//! is driven by the database façade (`dt-core`), which renders the graph
//! from its catalog, executes refreshes and reports outcomes back. This
//! mirrors the paper's split between the scheduler service and the refresh
//! jobs it issues (§5.1).

pub mod graph;
pub mod periods;
pub mod scheduler;
pub mod warehouse;

pub use graph::DtGraph;
pub use periods::{canonical_period, CANONICAL_BASE_SECS};
pub use scheduler::{
    DtSchedState, LagSample, RefreshAction, RefreshCommand, RefreshOutcome, Scheduler,
};
pub use warehouse::{CostModel, Warehouse, WarehousePool};
