//! Copy-on-write, versioned table storage.
//!
//! This crate reproduces the storage substrate that Dynamic Tables builds on
//! (§5.1, §5.5.2 of the paper):
//!
//! * Tables are stored as sets of immutable **micro-partitions**
//!   ([`partition::Partition`]).
//! * Every committed change produces a new immutable **table version**
//!   ([`version::TableVersion`]) that records which partitions were *added*
//!   and *removed* relative to its parent — the copy-on-write scheme that
//!   powers Snowflake's change tracking and time travel.
//! * **Change scans** ([`change::ChangeSet`]) between two versions are
//!   computed from the added/removed partition sets, including the
//!   *consolidation* step that cancels rows copied verbatim between
//!   partitions (the read-amplification fix of §5.5.2) and detection of
//!   *data-equivalent* maintenance operations (reclustering/defragmentation)
//!   that change files but not logical contents.
//! * **Time travel**: any version can be resolved by commit timestamp
//!   ([`table::TableStore::version_at`]), the mechanism snapshot reads and
//!   DVS rely on.
//! * **Pinned snapshots** ([`snapshot::TableSnapshot`]): any version can be
//!   pinned as a lock-free handle over its immutable partitions, which is
//!   what lets the engine's MVCC read path execute entire queries without
//!   holding any lock (§5.3).
//! * **Two-phase optimistic commits** ([`table::TableStore::prepare_change_at`]
//!   / [`table::TableStore::install_prepared`]): all row work of a change is
//!   done lock-free against a pinned base version, and the install is an
//!   O(metadata) step that validates the base is still the latest — the
//!   first-committer-wins substrate of the engine's transaction commits,
//!   which lets a multi-table transaction install every touched table's
//!   version at one commit timestamp.
//! * **Rows found by value** ([`table::TableStore::row_lookup`], the
//!   [`row_index`]): a change locates its delete victims, and a merge the
//!   stored copies of a row, through a per-store index that is built
//!   lazily and advanced from the version chain — work proportional to
//!   the change, not to the table.

pub mod change;
pub mod durable;
pub mod partition;
pub mod row_index;
pub mod snapshot;
pub mod table;
pub mod telemetry;
pub mod version;

pub use change::{ChangeSet, RowDelta};
pub use durable::{StoreCheckpoint, VersionInstallRecord};
pub use partition::{ColumnarPartition, Partition};
pub use row_index::RowLookup;
pub use snapshot::TableSnapshot;
pub use table::{
    CommitGuard, PreparedChange, RowIndexStats, TableStore, DEFAULT_PARTITION_CAPACITY,
};
pub use telemetry::zone_map_pruned_total;
pub use version::TableVersion;
