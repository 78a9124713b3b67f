//! Transactions, clocks, and version resolution.
//!
//! Reproduces the transaction-engine pieces Dynamic Tables relies on (§5.3):
//!
//! * [`hlc::Hlc`] — a Hybrid Logical Clock (Kulkarni et al.) producing
//!   commit timestamps that are totally ordered per account and close to
//!   physical time.
//! * [`manager::TxnManager`] — begin/commit with snapshot timestamps,
//!   per-entity locks (each DT is locked for the duration of its refresh;
//!   concurrent refreshes of one DT are not permitted, §3.3.3/§5.3); it
//!   tracks live transactions only.
//! * [`lock_manager::LockManager`] — the admission lock table behind the
//!   manager: per-table optimistic try-locks (first-committer-wins) or
//!   pessimistic FIFO wait-queues with timeouts and a wait-for-cycle
//!   deadlock backstop, selectable per table (manually or adaptively).
//! * [`group_commit::CommitQueue`] — the writer group-commit coordinator:
//!   concurrent committers enqueue prepared requests, one leader installs
//!   the whole batch under a single engine-lock acquisition, and every
//!   follower receives its individual commit/conflict outcome.
//! * [`refresh_map::RefreshTsMap`] — the mapping from *refresh timestamp*
//!   (data timestamp) to *commit timestamp / table version* for each DT.
//!   Regular tables resolve versions by commit timestamp; DTs reading other
//!   DTs must find the version created by the refresh with the **same**
//!   refresh timestamp, and fail hard if it is missing (production
//!   validation #1, §6.1).
//! * [`frontier::Frontier`] — the per-DT map of consumed source versions
//!   that the data timestamp abstracts over.

pub mod frontier;
pub mod group_commit;
pub mod hlc;
pub mod lock_manager;
pub mod manager;
pub mod refresh_map;

pub use frontier::Frontier;
pub use group_commit::CommitQueue;
pub use hlc::{Hlc, HlcTimestamp};
pub use lock_manager::{LockManager, LockMode, LockPolicy, LockStats};
pub use manager::{Txn, TxnManager};
pub use refresh_map::RefreshTsMap;
