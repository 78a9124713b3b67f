//! Shared foundation types for the Dynamic Tables reproduction.
//!
//! This crate deliberately has no dependency on the rest of the workspace.
//! It provides:
//!
//! * [`value::Value`] — the dynamically typed scalar used throughout the
//!   engine, with total ordering and hashing (floats are ordered IEEE-754
//!   totally so they can participate in group-by keys, mirroring the paper's
//!   discussion of float nondeterminism in §3.4).
//! * [`schema::Schema`] / [`schema::Column`] — relational schemas.
//! * [`time`] — a *simulated* clock. All scheduling and lag experiments in
//!   the paper (Figure 4, §5.2) are reproduced on virtual time so results
//!   are deterministic.
//! * [`error::DtError`] — the workspace-wide error type.
//! * [`ids`] — strongly typed identifiers.
//! * [`codec`] — the one binary codec every durable and wire format in the
//!   workspace is written in.
//! * [`retry_backoff`] — the one wait between retries of a transaction that
//!   lost a write-write conflict (the engine's auto-commit loop and the
//!   client's `run_txn` both call it).

pub mod codec;
pub mod column;
pub mod durability;
pub mod error;
pub mod ids;
mod retry;
pub mod row;
pub mod schema;
pub mod time;
pub mod value;

pub use column::{Batch, CmpOp, ColumnPredicate, ColumnVec, PredicateSet, ZoneMap};
pub use durability::DurabilityMode;
pub use error::{DtError, DtResult};
pub use ids::{EntityId, PartitionId, RefreshId, TxnId, VersionId};
pub use retry::retry_backoff;
pub use row::Row;
pub use schema::{Column, DataType, Schema};
pub use time::{Clock, Duration, SimClock, Timestamp};
pub use value::{numeric_hash_bits, Value};
