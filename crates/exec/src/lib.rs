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
//! * *filter* and *projection* — the predicate or output list over the
//!   batch, bare columns shared and literals splatted ([`batch`]);
//! * *grouped aggregation* — group keys hashed column-wise into dense
//!   group ids, typed per-group states ([`aggregate`]);
//! * *join* — build side hashed column-wise on the `ON` condition's
//!   equi-keys (nested loop without any), probe batch by batch, output
//!   gathered column by column, residual conjuncts evaluated over it in
//!   `ON` order; outer joins pad unmatched sides with NULL columns
//!   ([`join`]);
//! * *`DISTINCT`*, *`UNION ALL`*, *`LIMIT`* — selection bitmaps over the
//!   input batches.
//!
//! Aggregation, join and `DISTINCT` share one key-hashing primitive,
//! [`keys::KeyTable`], which the IVM rules also use to restrict a
//! snapshot to the keys a delta touched. Every operator evaluates its
//! expressions with one evaluator, [`keys::eval_column`]: anything but a
//! bare column or a literal is
//! [`ScalarExpr::eval`](dt_plan::ScalarExpr::eval) on one materialized
//! row per live row (into a column, once per batch), and
//! [`keys::FirstError`] reports the earliest failing row's error, so the
//! batch pipeline's expression semantics are the row interpreter's by
//! construction.
//!
//! **Still row-shaped**: *window functions* and *sort* flatten their input
//! to rows and re-shred the result.
//!
//! **The row interpreter** — [`execute_rows`] with
//! [`aggregate::execute_aggregate`], [`join::execute_join`] and
//! [`executor::project_rows`] — is the differential oracle only: every
//! batch operator must give its rows, in its order, with its errors
//! (`tests/columnar_differential.rs`, `tests/kernel_differential.rs`).
//! The IVM rules join with [`join::execute_join_batches`], like every
//! query, and recompute changed window partitions with
//! [`window::execute_window`], the one window implementation.
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
