//! Dynamic Tables: the paper's primary contribution, assembled.
//!
//! [`Engine`] owns the shared state — catalog, versioned storage, the
//! transaction manager, scheduler, and virtual warehouses — and any number
//! of [`Session`]s execute SQL against it concurrently:
//!
//! ```
//! use dt_core::{DbConfig, Engine};
//! use dt_common::Value;
//!
//! let engine = Engine::new(DbConfig::default());
//! engine.create_warehouse("wh", 4).unwrap();
//!
//! let session = engine.session();
//! session.execute("CREATE TABLE clicks (user_id INT, n INT)").unwrap();
//! session.execute("INSERT INTO clicks VALUES (1, 10), (2, 5)").unwrap();
//! session.execute(
//!     "CREATE DYNAMIC TABLE per_user TARGET_LAG = '1 minute' WAREHOUSE = wh \
//!      AS SELECT user_id, sum(n) total FROM clicks GROUP BY user_id",
//! )
//! .unwrap();
//!
//! // Plain queries take `&self` and run against an MVCC snapshot: a
//! // brief read-lock capture pins per-table versions, then bind, plan,
//! // and execute run with no engine lock at all.
//! let rows = session.query("SELECT * FROM per_user").unwrap();
//! assert_eq!(rows.len(), 2);
//!
//! // Snapshots are first-class: pin one and re-read it while writers
//! // proceed — results are byte-identical until you capture a new one.
//! let snap = session.snapshot();
//! let pinned = snap.query_sorted("SELECT * FROM per_user").unwrap();
//! session.execute("INSERT INTO clicks VALUES (1, 99)").unwrap();
//! assert_eq!(snap.query_sorted("SELECT * FROM per_user").unwrap(), pinned);
//!
//! // Prepared statements bind once and re-execute with `?` parameters.
//! let stmt = session.prepare("SELECT total FROM per_user WHERE user_id = ?").unwrap();
//! let one = stmt.query(&[Value::Int(1)]).unwrap();
//! assert_eq!(one.rows()[0].get(0), &Value::Int(10));
//! let two = stmt.query(&[Value::Int(2)]).unwrap();
//! assert_eq!(two.rows()[0].get(0), &Value::Int(5));
//!
//! // Explicit transactions: reads pinned to one snapshot, DML buffered
//! // and applied atomically (first committer wins) at commit. SQL
//! // BEGIN/COMMIT/ROLLBACK through `Session::execute` drive the same
//! // lifecycle.
//! let mut txn = session.begin();
//! txn.execute("INSERT INTO clicks VALUES (3, 7)").unwrap();
//! assert_eq!(txn.query("SELECT * FROM clicks").unwrap().len(), 4);
//! assert_eq!(session.query("SELECT * FROM clicks").unwrap().len(), 3);
//! txn.commit().unwrap();
//! assert_eq!(session.query("SELECT * FROM clicks").unwrap().len(), 4);
//! ```
//!
//! The crate wires together every substrate built for this reproduction:
//! versioned copy-on-write storage (`dt-storage`), the HLC-based
//! transaction manager with refresh-timestamp version resolution
//! (`dt-txn`), the catalog with its DDL log (`dt-catalog`), the SQL
//! front end and binder (`dt-sql`/`dt-plan`), the executor (`dt-exec`),
//! query differentiation (`dt-ivm`), and the lag-driven scheduler with
//! virtual warehouses (`dt-scheduler`).
//!
//! Delayed view semantics is enforced end to end: after every refresh the
//! DT's contents equal its defining query evaluated at the refresh's data
//! timestamp, and the optional [`DbConfig::validate_dvs`] mode re-checks
//! that equality on every refresh — the paper's §6.1 level-4 randomized
//! validation, which the `dvs_validation` harness and property tests run
//! at scale.

mod dml;
mod durability;
pub mod engine;
mod install;
pub mod locking;
pub mod morsel;
pub mod parallel_refresh;
pub mod providers;
pub mod refresh;
mod router;
pub mod simulate;
pub mod snapshot;
pub mod state;
pub mod transaction;

pub use dt_common::DurabilityMode;
pub use dt_wal::WalStatsSnapshot;
pub use engine::{
    CommitStats, ConnectionCounters, ConnectionStats, Engine, Session, Statement, DEFAULT_ROLE,
};
pub use locking::{AdaptiveConfig, AdaptivePolicy};
pub use parallel_refresh::{
    InstalledRefresh, PreparedRefresh, RefreshRoundReport, RefreshStats, RoundStatus,
};
pub use refresh::{RefreshLog, RefreshLogEntry};
pub use simulate::SimStats;
pub use snapshot::ReadSnapshot;
pub use state::{DbConfig, EngineState, ExecResult, QueryResult};
pub use transaction::{is_serialization_conflict, PreparedCommit, Transaction};
