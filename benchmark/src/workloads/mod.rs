//! The four workloads. Each stresses different layers, so that for any
//! optimisation one workload exercises its mechanism and another
//! bypasses it (see `benchmark/README.md` for the reasons and the
//! expected interactions).

use crate::harness::{Ctx, Measured, Timeline};

pub mod dag_refresh;
pub mod ingest_fresh;
pub mod query_mix;
pub mod txn_contention;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["ingest_fresh", "dag_refresh", "query_mix", "txn_contention"];

/// Run the workload `ctx` names.
pub fn run(ctx: &Ctx) -> (Measured, Timeline) {
    match ctx.workload {
        "ingest_fresh" => ingest_fresh::run(ctx),
        "dag_refresh" => dag_refresh::run(ctx),
        "query_mix" => query_mix::run(ctx),
        "txn_contention" => txn_contention::run(ctx),
        other => unreachable!("workload {other} was validated against NAMES"),
    }
}

/// Wall-time budget of a traced run's layer walk, seconds.
pub fn walk_budget_s(ctx: &Ctx) -> f64 {
    if ctx.smoke {
        1.0
    } else {
        4.0
    }
}

/// Operations the layer walk steps through at most.
pub const WALK_OPS: usize = 2000;

/// Bytes of user data in `values` integer cells.
pub const fn int_bytes(values: u64) -> u64 {
    values * 8
}
