//! Plan execution.
//!
//! A vectorized batch-at-a-time pipeline over
//! [`LogicalPlan`](dt_plan::LogicalPlan)s, mirroring the optimized
//! vectorized plans the production system runs on a virtual warehouse
//! (§5.1). Operators exchange columnar [`Batch`](dt_common::Batch)es and
//! rows materialize once, at the top of the plan.
//!
//! **Columnar end to end** — no input row is ever built:
//!
//! * *scan* — shared column vectors straight from storage, pushed-down
//!   predicates applied as selection bitmaps, partitions skipped by zone
//!   map;
//! * *filter* — Kleene truth masks with typed fast paths ([`batch`]);
//! * *projection* of bare columns and literals — a column permutation;
//! * *grouped aggregation* — group keys hashed column-wise into dense
//!   group ids, typed per-group states ([`aggregate`]);
//! * *join* — build side hashed column-wise on the `ON` condition's
//!   equi-keys (nested loop without any), probe batch by batch, output
//!   gathered column by column, residual conjuncts as batch filters; outer
//!   joins pad unmatched sides with NULL columns ([`join`]);
//! * *`DISTINCT`*, *`UNION ALL`*, *`LIMIT`* — selection bitmaps over the
//!   input batches.
//!
//! Aggregation, join and `DISTINCT` share one key-hashing primitive,
//! [`keys::KeyTable`], which the IVM rules also use to restrict a
//! snapshot to the keys a delta touched.
//!
//! **Still row-shaped**: *window functions* and *sort* flatten their input
//! to rows and re-shred the result; a *projection* or *filter* conjunct
//! outside the vectorizable grammar, and a group key, join key or
//! aggregate argument that is not a bare column, evaluate
//! [`ScalarExpr::eval`](dt_plan::ScalarExpr::eval) on one materialized row
//! per selected row (into a column, once per batch).
//!
//! **The row interpreter** — [`execute_rows`] with
//! [`aggregate::execute_aggregate`], [`join::execute_join`] and
//! [`executor::project_rows`] — is kept for two things: it is the
//! differential oracle (every batch operator must give its rows, in its
//! order, with its errors: `tests/columnar_differential.rs`,
//! `tests/kernel_differential.rs`), and the IVM rules run
//! `execute_join` / `execute_window` over the small row slices a delta
//! restricts a join or a partition to.
//!
//! Batches are fetched through a [`TableProvider`], which the database
//! façade implements by resolving each scanned entity to the table version
//! dictated by the query's snapshot (§5.3) — the executor itself is
//! snapshot-agnostic.

pub mod aggregate;
pub mod batch;
pub mod executor;
pub mod join;
pub mod keys;
pub mod window;

pub use batch::execute_batches;
pub use executor::{execute, execute_rows, execute_sorted, MapProvider, TableProvider};
