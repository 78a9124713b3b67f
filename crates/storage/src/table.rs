//! The versioned table store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dt_common::{
    Column, DtError, DtResult, PartitionId, Row, Schema, Timestamp, TxnId, VersionId,
};

use crate::change::ChangeSet;
use crate::partition::Partition;
use crate::row_index::{Held, RowIndex, RowLookup};
use crate::snapshot::TableSnapshot;
use crate::version::TableVersion;

/// Default number of rows per micro-partition.
pub const DEFAULT_PARTITION_CAPACITY: usize = 4096;

struct Inner {
    partitions: HashMap<PartitionId, Arc<Partition>>,
    versions: Vec<TableVersion>,
}

impl Inner {
    fn version(&self, v: VersionId) -> DtResult<&TableVersion> {
        self.versions
            .get(v.raw() as usize)
            .ok_or_else(|| DtError::Storage(format!("unknown version {v}")))
    }

    fn partition(&self, pid: PartitionId) -> DtResult<Arc<Partition>> {
        self.partitions
            .get(&pid)
            .map(Arc::clone)
            .ok_or_else(|| DtError::Storage(format!("missing partition {pid}")))
    }
}

/// The net partition movement over a version interval, as handles: what
/// a change scan reads and what the row index advances by. A partition
/// added and then removed inside the interval appears in neither list.
struct PartitionDelta {
    added: Vec<Arc<Partition>>,
    removed: Vec<Arc<Partition>>,
    /// Every version in the interval either moved no partition or is
    /// data-equivalent (§5.5.2: the partitions moved, the logical
    /// contents did not) — known from metadata alone.
    logically_empty: bool,
}

impl PartitionDelta {
    fn rows(&self) -> usize {
        let rows = |parts: &[Arc<Partition>]| parts.iter().map(|p| p.len()).sum::<usize>();
        rows(&self.added) + rows(&self.removed)
    }
}

/// Work the row-location index of one store has done, by count
/// ([`TableStore::row_index_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowIndexStats {
    /// Times an index was built by hashing a whole version: the first
    /// lookup, a lookup at a version older than the cached one, or one
    /// across an interval that moved more rows than the table holds.
    pub builds: u64,
    /// Rows hashed to bring the cached index to a later version: the rows
    /// of the partitions the versions in between added or removed.
    pub advanced_rows: u64,
}

/// The output of the (lock-free) row work of a change: freshly minted
/// partitions plus the metadata of the version they will form.
struct ChangeBuild {
    new_parts: Vec<Arc<Partition>>,
    partitions: Vec<PartitionId>,
    added: Vec<PartitionId>,
    removed: Vec<PartitionId>,
    /// The version holds the same rows as its base, repartitioned; change
    /// scans skip it (§5.5.2).
    data_equivalent: bool,
    row_count: usize,
}

/// A change whose row work has been done against a pinned base version but
/// which has not been installed yet — phase one of the optimistic
/// transaction commit. Built by [`TableStore::prepare_change_at`] with no
/// lock held; installed (O(metadata)) by [`TableStore::install_prepared`],
/// which validates the base version is still the latest.
pub struct PreparedChange {
    base: VersionId,
    build: ChangeBuild,
}

impl PreparedChange {
    /// The version this change was prepared against.
    pub fn base(&self) -> VersionId {
        self.base
    }

    /// Rows the table will hold once the change is installed.
    pub fn row_count(&self) -> usize {
        self.build.row_count
    }

    /// Snapshot the physical contents of this change for the write-ahead
    /// log. Called by the group-commit leader just before
    /// [`CommitGuard::install_validated`] consumes the change; replaying
    /// the record with [`TableStore::replay_install`] reconstructs the
    /// identical version (same partition ids, same deltas).
    pub fn install_record(&self) -> crate::durable::VersionInstallRecord {
        crate::durable::VersionInstallRecord {
            new_parts: self
                .build
                .new_parts
                .iter()
                .map(|p| (p.id(), p.rows().to_vec()))
                .collect(),
            partitions: self.build.partitions.clone(),
            added: self.build.added.clone(),
            removed: self.build.removed.clone(),
            row_count: self.build.row_count,
        }
    }
}

impl std::fmt::Debug for PreparedChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedChange")
            .field("base", &self.base)
            .field("row_count", &self.build.row_count)
            .finish()
    }
}

/// Exclusive commit access to one [`TableStore`]: holds the store's writer
/// commit lock so the latest version cannot move between **validation**
/// ([`CommitGuard::validate_prepared`]) and **install**
/// ([`CommitGuard::install_validated`]). This split is what makes
/// multi-table commits all-or-nothing: the committer guards every touched
/// table, validates every prepared change, mints a commit timestamp past
/// every table's latest version, and only then installs — at which point
/// no install can fail, so a failure can never strand a half-applied
/// commit.
pub struct CommitGuard<'a> {
    store: &'a TableStore,
    _lock: parking_lot::MutexGuard<'a, ()>,
}

impl CommitGuard<'_> {
    /// The latest version id — stable while this guard is held.
    pub fn latest_version(&self) -> VersionId {
        self.store.latest_version()
    }

    /// The latest version's commit timestamp — stable while this guard is
    /// held. Committers fold this into their HLC so the minted commit
    /// timestamp can never regress behind the chain it extends.
    pub fn latest_commit_ts(&self) -> Timestamp {
        self.store
            .commit_ts_of(self.latest_version())
            .expect("latest version always resolvable")
    }

    /// Validate that `prep` still applies: its base must be the latest
    /// version. Because the guard pins the latest version, a successful
    /// validation cannot be invalidated before
    /// [`CommitGuard::install_validated`] runs.
    pub fn validate_prepared(&self, prep: &PreparedChange) -> DtResult<()> {
        let latest = self.latest_version();
        if latest != prep.base {
            return Err(DtError::Conflict(format!(
                "write-write conflict: prepared against version {} but the \
                 table is now at {latest} (first committer wins)",
                prep.base
            )));
        }
        Ok(())
    }

    /// Install a change that was validated under this guard, at
    /// `commit_ts`. Infallible by contract: the caller must have called
    /// [`CommitGuard::validate_prepared`] on this guard and minted
    /// `commit_ts` at or after [`CommitGuard::latest_commit_ts`] — both
    /// stay true while the guard is held, so the install cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if the contract is violated (an unvalidated change or a
    /// regressing timestamp) — that is an internal bug in the caller, not
    /// a runtime condition.
    pub fn install_validated(
        &self,
        prep: PreparedChange,
        commit_ts: Timestamp,
        txn: TxnId,
    ) -> VersionId {
        debug_assert_eq!(
            self.latest_version(),
            prep.base,
            "install_validated called without validate_prepared"
        );
        let b = prep.build;
        self.store
            .install_version(
                b.new_parts,
                commit_ts,
                txn,
                b.partitions,
                b.added,
                b.removed,
                b.data_equivalent,
                b.row_count,
            )
            .expect("validated prepared change cannot fail to install")
    }

    /// Validate `prep` and `commit_ts` under this guard, then install:
    /// the whole install phase of a single-table writer.
    fn install_checked(
        &self,
        prep: PreparedChange,
        commit_ts: Timestamp,
        txn: TxnId,
    ) -> DtResult<VersionId> {
        self.validate_prepared(&prep)?;
        if commit_ts < self.latest_commit_ts() {
            return Err(DtError::Storage(format!(
                "commit timestamp {commit_ts} precedes latest version at {}",
                self.latest_commit_ts()
            )));
        }
        Ok(self.install_validated(prep, commit_ts, txn))
    }
}

/// One table's storage: an append-only chain of immutable versions over a
/// pool of immutable micro-partitions.
///
/// Thread-safe, and MVCC-friendly: writers serialize among themselves on
/// `commit_lock` and do all row work (copy-on-write rewrites, partition
/// minting) *outside* the `inner` lock, taking it only for the brief
/// metadata install of the new version. Readers — scans, snapshots,
/// change scans — therefore never wait behind the row-processing part of
/// a commit, which is what keeps the engine's pinned [`TableSnapshot`]
/// readers latency-flat while refreshes land (§5.3).
pub struct TableStore {
    schema: Arc<Schema>,
    partition_capacity: usize,
    /// Partition ids are minted lock-free.
    next_partition: AtomicU64,
    /// Serializes writers against each other (the engine additionally
    /// serializes refreshes per DT with transaction locks, §5.3).
    commit_lock: Mutex<()>,
    inner: RwLock<Inner>,
    /// The row-location index of at most one version — derived data that
    /// only [`TableStore::row_lookup`] reads, builds and advances. Locked
    /// before `inner`, never while holding it.
    row_index: Mutex<Option<RowIndex>>,
    index_builds: AtomicU64,
    index_advanced_rows: AtomicU64,
}

impl TableStore {
    fn from_parts(
        schema: Arc<Schema>,
        partition_capacity: usize,
        next_partition: u64,
        inner: Inner,
    ) -> TableStore {
        TableStore {
            schema,
            partition_capacity,
            next_partition: AtomicU64::new(next_partition),
            commit_lock: Mutex::new(()),
            inner: RwLock::new(inner),
            row_index: Mutex::new(None),
            index_builds: AtomicU64::new(0),
            index_advanced_rows: AtomicU64::new(0),
        }
    }

    /// Create an empty table. An initial empty version is committed at
    /// `created_ts` so that time-travel reads before any DML see an empty
    /// table rather than an error.
    pub fn new(schema: Schema, created_ts: Timestamp, created_by: TxnId) -> Self {
        Self::with_partition_capacity(schema, created_ts, created_by, DEFAULT_PARTITION_CAPACITY)
    }

    /// As [`TableStore::new`] with an explicit micro-partition capacity.
    pub fn with_partition_capacity(
        schema: Schema,
        created_ts: Timestamp,
        created_by: TxnId,
        partition_capacity: usize,
    ) -> Self {
        assert!(partition_capacity > 0, "partition capacity must be positive");
        let v0 = TableVersion {
            id: VersionId(0),
            commit_ts: created_ts,
            created_by,
            partitions: vec![],
            added: vec![],
            removed: vec![],
            data_equivalent: false,
            row_count: 0,
        };
        TableStore::from_parts(
            Arc::new(schema),
            partition_capacity,
            0,
            Inner {
                partitions: HashMap::new(),
                versions: vec![v0],
            },
        )
    }

    /// The table's schema.
    pub fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The schema's columns (convenience).
    pub fn columns(&self) -> Vec<Column> {
        self.schema.columns().to_vec()
    }

    /// The latest version id.
    pub fn latest_version(&self) -> VersionId {
        let inner = self.inner.read();
        inner.versions.last().expect("version chain never empty").id
    }

    /// The commit timestamp of a version.
    pub fn commit_ts_of(&self, v: VersionId) -> DtResult<Timestamp> {
        Ok(self.inner.read().version(v)?.commit_ts)
    }

    /// Row count at a version.
    pub fn row_count_at(&self, v: VersionId) -> DtResult<usize> {
        Ok(self.inner.read().version(v)?.row_count)
    }

    /// Resolve the version visible at time `ts`: the version with the
    /// largest commit timestamp ≤ `ts` (the snapshot-read rule of §5.3).
    pub fn version_at(&self, ts: Timestamp) -> Option<VersionId> {
        let inner = self.inner.read();
        // Versions are in commit-ts order; binary search for the rightmost
        // version with commit_ts <= ts.
        let vs = &inner.versions;
        let mut lo = 0usize;
        let mut hi = vs.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if vs[mid].commit_ts <= ts {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            None
        } else {
            Some(vs[lo - 1].id)
        }
    }

    /// Pin version `v` as a [`TableSnapshot`]: resolves the version's
    /// partition handles under a brief read lock, after which the snapshot
    /// scans with no lock at all. Writers appending new versions never
    /// disturb an outstanding snapshot.
    pub fn snapshot(&self, v: VersionId) -> DtResult<TableSnapshot> {
        let inner = self.inner.read();
        let tv = inner.version(v)?;
        let partitions = (tv.partitions.iter())
            .map(|pid| inner.partition(*pid))
            .collect::<DtResult<Vec<_>>>()?;
        Ok(TableSnapshot::new(
            Arc::clone(&self.schema),
            tv.id,
            tv.commit_ts,
            tv.row_count,
            partitions,
        ))
    }

    /// Pin the latest version as a [`TableSnapshot`].
    pub fn snapshot_latest(&self) -> TableSnapshot {
        self.snapshot(self.latest_version())
            .expect("latest version always resolvable")
    }

    /// Full scan of the table at a version. The store's lock is held only
    /// while the version is pinned, not while its rows are cloned.
    pub fn scan(&self, v: VersionId) -> DtResult<Vec<Row>> {
        Ok(self.snapshot(v)?.scan())
    }

    /// Slice rows into capacity-sized immutable partitions with freshly
    /// minted ids. Lock-free: partition ids come off an atomic counter, so
    /// the (potentially large) row work never holds a lock readers need.
    fn mint_partitions(&self, rows: Vec<Row>) -> Vec<Arc<Partition>> {
        let capacity = self.partition_capacity;
        let mut out = Vec::new();
        let mut buf = Vec::with_capacity(capacity.min(rows.len()));
        for r in rows {
            buf.push(r);
            if buf.len() == capacity {
                let id = PartitionId(self.next_partition.fetch_add(1, Ordering::Relaxed));
                out.push(Arc::new(Partition::new(id, std::mem::take(&mut buf))));
            }
        }
        if !buf.is_empty() {
            let id = PartitionId(self.next_partition.fetch_add(1, Ordering::Relaxed));
            out.push(Arc::new(Partition::new(id, buf)));
        }
        out
    }

    /// Install a fully built version — the only write-path step that takes
    /// the inner write lock, and it is O(metadata): insert the new
    /// partition handles and append the version record.
    #[allow(clippy::too_many_arguments)]
    fn install_version(
        &self,
        new_parts: Vec<Arc<Partition>>,
        commit_ts: Timestamp,
        created_by: TxnId,
        partitions: Vec<PartitionId>,
        added: Vec<PartitionId>,
        removed: Vec<PartitionId>,
        data_equivalent: bool,
        row_count: usize,
    ) -> DtResult<VersionId> {
        let mut inner = self.inner.write();
        let prev = inner.versions.last().expect("chain never empty");
        if commit_ts < prev.commit_ts {
            return Err(DtError::Storage(format!(
                "commit timestamp {commit_ts} precedes latest version at {}",
                prev.commit_ts
            )));
        }
        for p in new_parts {
            inner.partitions.insert(p.id(), p);
        }
        let id = VersionId(inner.versions.len() as u64);
        inner.versions.push(TableVersion {
            id,
            commit_ts,
            created_by,
            partitions,
            added,
            removed,
            data_equivalent,
            row_count,
        });
        Ok(id)
    }

    /// Validate row arity against the schema.
    fn check_rows(&self, rows: &[Row]) -> DtResult<()> {
        for r in rows {
            if r.len() != self.schema.len() {
                return Err(DtError::Storage(format!(
                    "row arity {} does not match schema arity {}",
                    r.len(),
                    self.schema.len()
                )));
            }
        }
        Ok(())
    }

    /// The stored rows a change deletes, as ascending slots per partition:
    /// of each distinct row in `deletes`, the first copies in the scan
    /// order of `prev_parts`, as many as `deletes` names it. `lookup` must
    /// be pinned at the version `prev_parts` belong to. O(`deletes`) plus
    /// one map probe per partition — no stored row is visited.
    fn find_victims(
        lookup: &RowLookup<'_>,
        prev_parts: &[Arc<Partition>],
        deletes: &[Row],
    ) -> DtResult<HashMap<PartitionId, Vec<u32>>> {
        let mut wanted: HashMap<&Row, usize> = HashMap::new();
        for r in deletes {
            *wanted.entry(r).or_insert(0) += 1;
        }
        // Copies still to delete of each distinct row, and every stored
        // copy of one as `(slot, index into remaining)` by partition.
        let mut remaining = Vec::with_capacity(wanted.len());
        let mut candidates: HashMap<PartitionId, Vec<(u32, usize)>> = HashMap::new();
        for (row, copies) in wanted {
            for loc in lookup.index().locations(row.values().iter()) {
                let found = candidates.entry(loc.part).or_default();
                found.push((loc.slot, remaining.len()));
            }
            remaining.push(copies);
        }

        let mut victims = HashMap::new();
        let mut missing = deletes.len();
        for part in prev_parts {
            if missing == 0 {
                break;
            }
            let Some(found) = candidates.get_mut(&part.id()) else {
                continue;
            };
            found.sort_unstable();
            let mut doomed = Vec::new();
            for (slot, row) in found {
                if remaining[*row] > 0 {
                    remaining[*row] -= 1;
                    doomed.push(*slot);
                }
            }
            if !doomed.is_empty() {
                missing -= doomed.len();
                victims.insert(part.id(), doomed);
            }
        }
        if missing > 0 {
            return Err(DtError::Storage(format!(
                "{missing} row(s) to delete were not found"
            )));
        }
        Ok(victims)
    }

    /// The row work of a change commit: rewrite the partitions of
    /// `prev_parts` that hold `victims` copy-on-write and mint partitions
    /// for `inserts`. Takes **no lock** at all: it runs against a pinned
    /// base version whose stability is validated at install time
    /// ([`TableStore::prepare_change_at`]).
    fn build_change(
        &self,
        prev_parts: &[Arc<Partition>],
        inserts: Vec<Row>,
        victims: &HashMap<PartitionId, Vec<u32>>,
    ) -> ChangeBuild {
        let mut kept: Vec<PartitionId> = Vec::with_capacity(prev_parts.len() + 1);
        let mut added: Vec<PartitionId> = Vec::new();
        let mut removed: Vec<PartitionId> = Vec::new();
        let mut new_parts: Vec<Arc<Partition>> = Vec::new();
        let mut row_count = 0usize;
        let mut carried_rows = 0usize;
        let mut mint = |rows: Vec<Row>, kept: &mut Vec<PartitionId>| {
            for p in self.mint_partitions(rows) {
                added.push(p.id());
                kept.push(p.id());
                row_count += p.len();
                new_parts.push(p);
            }
        };

        for part in prev_parts {
            let Some(doomed) = victims.get(&part.id()) else {
                kept.push(part.id());
                carried_rows += part.len();
                continue;
            };
            // Copy-on-write rewrite of this partition.
            let mut doomed = doomed.iter().peekable();
            let survivors: Vec<Row> = (part.rows().iter().enumerate())
                .filter(|(slot, _)| doomed.next_if(|d| **d as usize == *slot).is_none())
                .map(|(_, r)| r.clone())
                .collect();
            removed.push(part.id());
            mint(survivors, &mut kept);
        }
        mint(inserts, &mut kept);

        ChangeBuild {
            new_parts,
            partitions: kept,
            added,
            removed,
            data_equivalent: false,
            row_count: row_count + carried_rows,
        }
    }

    /// The implementation [`TableStore::find_victims`] +
    /// [`TableStore::build_change`] replaced, kept as the oracle of
    /// `the_index_changes_a_table_exactly_as_the_scan_did`: it hashes every
    /// stored row once to find the delete victims.
    #[cfg(test)]
    fn build_change_by_scan(
        &self,
        prev_parts: &[Arc<Partition>],
        inserts: Vec<Row>,
        deletes: &[Row],
    ) -> DtResult<ChangeBuild> {
        // Multiset of rows still to delete.
        let mut to_delete: HashMap<Row, usize> = HashMap::new();
        for r in deletes {
            *to_delete.entry(r.clone()).or_insert(0) += 1;
        }

        let mut kept: Vec<PartitionId> = Vec::with_capacity(prev_parts.len() + 1);
        let mut added: Vec<PartitionId> = Vec::new();
        let mut removed: Vec<PartitionId> = Vec::new();
        let mut new_parts: Vec<Arc<Partition>> = Vec::new();
        let mut row_count = 0usize;
        let mut missing = deletes.len();

        for part in prev_parts {
            let touches = !to_delete.is_empty()
                && part.rows().iter().any(|r| {
                    to_delete
                        .get(r)
                        .map(|n| *n > 0)
                        .unwrap_or(false)
                });
            if !touches {
                kept.push(part.id());
                row_count += part.len();
                continue;
            }
            // Copy-on-write rewrite of this partition.
            let mut survivors = Vec::with_capacity(part.len());
            for r in part.rows() {
                match to_delete.get_mut(r) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        missing -= 1;
                    }
                    _ => survivors.push(r.clone()),
                }
            }
            removed.push(part.id());
            if !survivors.is_empty() {
                for p in self.mint_partitions(survivors) {
                    added.push(p.id());
                    kept.push(p.id());
                    row_count += p.len();
                    new_parts.push(p);
                }
            }
        }

        if missing > 0 {
            return Err(DtError::Storage(format!(
                "{missing} row(s) to delete were not found"
            )));
        }

        if !inserts.is_empty() {
            for p in self.mint_partitions(inserts) {
                added.push(p.id());
                kept.push(p.id());
                row_count += p.len();
                new_parts.push(p);
            }
        }

        Ok(ChangeBuild {
            new_parts,
            partitions: kept,
            added,
            removed,
            data_equivalent: false,
            row_count,
        })
    }

    /// Apply a DML change: insert `inserts` and delete one occurrence of
    /// each row in `deletes` (multiset delete by value). Partitions touched
    /// by deletes are rewritten copy-on-write; untouched partitions are
    /// carried over. Returns the new version.
    pub fn commit_change(
        &self,
        inserts: Vec<Row>,
        deletes: Vec<Row>,
        commit_ts: Timestamp,
        txn: TxnId,
    ) -> DtResult<VersionId> {
        let guard = self.commit_guard();
        let prep = self.prepare_change_at(guard.latest_version(), inserts, deletes)?;
        guard.install_checked(prep, commit_ts, txn)
    }

    /// Phase one of an optimistic (transactional) commit: do **all** the
    /// row work of a change against the pinned `base` version — COW delete
    /// rewrites, partition minting — holding no lock whatsoever. The
    /// returned [`PreparedChange`] is installed later with
    /// [`TableStore::install_prepared`], which re-validates that `base` is
    /// still the latest version (first committer wins). Between the two
    /// phases, readers and writers of this table proceed undisturbed.
    pub fn prepare_change_at(
        &self,
        base: VersionId,
        inserts: Vec<Row>,
        deletes: Vec<Row>,
    ) -> DtResult<PreparedChange> {
        self.check_rows(&inserts)?;
        self.check_rows(&deletes)?;
        let pinned = self.snapshot(base)?;
        // An insert-only change needs no row located (and never makes the
        // store build its index).
        let victims = if deletes.is_empty() {
            HashMap::new()
        } else {
            Self::find_victims(&self.row_lookup(base)?, pinned.partitions(), &deletes)?
        };
        let build = self.build_change(pinned.partitions(), inserts, &victims);
        Ok(PreparedChange { base, build })
    }

    /// [`TableStore::prepare_change_at`] through
    /// [`TableStore::build_change_by_scan`].
    #[cfg(test)]
    fn prepare_change_at_by_scan(
        &self,
        base: VersionId,
        inserts: Vec<Row>,
        deletes: Vec<Row>,
    ) -> DtResult<PreparedChange> {
        self.check_rows(&inserts)?;
        self.check_rows(&deletes)?;
        let pinned = self.snapshot(base)?;
        let build = self.build_change_by_scan(pinned.partitions(), inserts, &deletes)?;
        Ok(PreparedChange { base, build })
    }

    /// Phase one of an optimistic full replacement: mint partitions for a
    /// complete new contents against the pinned `base` version with no lock
    /// held — the staged counterpart of [`TableStore::overwrite`], used by
    /// FULL/REINITIALIZE refreshes that install through the group-commit
    /// queue. Installed later under a [`CommitGuard`] like any other
    /// [`PreparedChange`]; if the table's latest version moved past `base`
    /// in the meantime, validation fails and the refresh aborts.
    pub fn prepare_overwrite_at(&self, base: VersionId, rows: Vec<Row>) -> DtResult<PreparedChange> {
        self.check_rows(&rows)?;
        let removed = self.inner.read().version(base)?.partitions.clone();
        let row_count = rows.len();
        let new_parts = self.mint_partitions(rows);
        let added: Vec<PartitionId> = new_parts.iter().map(|p| p.id()).collect();
        let partitions = added.clone();
        Ok(PreparedChange {
            base,
            build: ChangeBuild {
                new_parts,
                partitions,
                added,
                removed,
                data_equivalent: false,
                row_count,
            },
        })
    }

    /// Phase two of an optimistic commit: install an already-built change
    /// at `commit_ts`. O(metadata) — no row is touched. Fails without
    /// installing anything when the table's latest version moved past the
    /// prepared base (a concurrent commit landed first); the caller treats
    /// that as a write–write conflict and aborts.
    ///
    /// Single-table convenience over the staged [`TableStore::commit_guard`]
    /// path: multi-table committers hold a guard per table so that *every*
    /// table validates before *any* table installs.
    pub fn install_prepared(
        &self,
        prep: PreparedChange,
        commit_ts: Timestamp,
        txn: TxnId,
    ) -> DtResult<VersionId> {
        self.commit_guard().install_checked(prep, commit_ts, txn)
    }

    /// Acquire this table's writer commit lock as a [`CommitGuard`]. While
    /// the guard is held, no writer — not even one bypassing the engine and
    /// driving the store directly — can move the table's latest version, so
    /// a validation performed through the guard stays true until the guard
    /// installs (or is dropped). Multi-table commits acquire their guards
    /// in ascending entity order, validate every table, and only then
    /// install: all-or-nothing by construction.
    pub fn commit_guard(&self) -> CommitGuard<'_> {
        CommitGuard {
            _lock: self.commit_lock.lock(),
            store: self,
        }
    }

    /// Replace the entire contents (`INSERT OVERWRITE`, the FULL refresh
    /// action of §3.3.2).
    pub fn overwrite(&self, rows: Vec<Row>, commit_ts: Timestamp, txn: TxnId) -> DtResult<VersionId> {
        let guard = self.commit_guard();
        let prep = self.prepare_overwrite_at(guard.latest_version(), rows)?;
        guard.install_checked(prep, commit_ts, txn)
    }

    /// Background maintenance: rewrite all partitions into optimally sized
    /// ones without changing logical contents. Produces a *data-equivalent*
    /// version that change scans skip (§5.5.2).
    pub fn recluster(&self, commit_ts: Timestamp, txn: TxnId) -> DtResult<VersionId> {
        let guard = self.commit_guard();
        let latest = guard.latest_version();
        let mut prep = self.prepare_overwrite_at(latest, self.scan(latest)?)?;
        prep.build.data_equivalent = true;
        guard.install_checked(prep, commit_ts, txn)
    }

    /// The net partition movement over (`from`, `to`], resolved to handles
    /// under a brief read lock so that whoever reads their rows holds no
    /// lock the install path needs.
    fn partition_delta(&self, from: VersionId, to: VersionId) -> DtResult<PartitionDelta> {
        if from > to {
            return Err(DtError::Storage(format!(
                "change interval runs backwards: {from} > {to}"
            )));
        }
        let inner = self.inner.read();
        inner.version(to)?;
        // A partition added then removed inside the interval cancels.
        let mut net: HashMap<PartitionId, i32> = HashMap::new();
        let mut logically_empty = true;
        for v in &inner.versions[from.raw() as usize + 1..=to.raw() as usize] {
            logically_empty &= v.data_equivalent || v.is_empty_delta();
            for pid in &v.added {
                *net.entry(*pid).or_insert(0) += 1;
            }
            for pid in &v.removed {
                *net.entry(*pid).or_insert(0) -= 1;
            }
        }
        let mut moved: Vec<(PartitionId, i32)> = net.into_iter().filter(|(_, w)| *w != 0).collect();
        moved.sort_unstable();
        let mut delta = PartitionDelta {
            added: Vec::new(),
            removed: Vec::new(),
            logically_empty,
        };
        for (pid, w) in moved {
            let side = if w > 0 { &mut delta.added } else { &mut delta.removed };
            side.push(inner.partition(pid)?);
        }
        Ok(delta)
    }

    /// Compute the changes between two versions (exclusive `from`,
    /// inclusive `to`). Data-equivalent versions contribute nothing. The
    /// result is consolidated: rows copied between partitions by
    /// copy-on-write rewrites cancel out, so only logical changes remain.
    /// An interval whose versions each moved no partition, or moved them
    /// data-equivalently (§5.5.2), is answered from version metadata; no
    /// row is read, and none is ever read while the store's lock is held.
    pub fn changes_between(&self, from: VersionId, to: VersionId) -> DtResult<ChangeSet> {
        let delta = self.partition_delta(from, to)?;
        if delta.logically_empty {
            return Ok(ChangeSet::empty());
        }
        Ok(ChangeSet::consolidated(
            delta.added.iter().flat_map(|p| p.rows()),
            delta.removed.iter().flat_map(|p| p.rows()),
        ))
    }

    /// True when the interval (`from`, `to`] contains no logical change
    /// (a change could still net to zero, so this is the change scan).
    pub fn unchanged_between(&self, from: VersionId, to: VersionId) -> DtResult<bool> {
        Ok(self.changes_between(from, to)?.is_empty())
    }

    /// Pin the row-location index at `base` — the way to find stored rows
    /// **by value** without walking the table. The store keeps the index
    /// of one version: the first lookup builds it (one hash per stored
    /// row), a lookup at a later version advances it by the rows of the
    /// partitions the versions in between added or removed, and a lookup
    /// at an older version (a transaction pinned before later commits,
    /// time travel) gets an index of its own and leaves the cached one
    /// where it is.
    pub fn row_lookup(&self, base: VersionId) -> DtResult<RowLookup<'_>> {
        let build = || -> DtResult<RowIndex> {
            let index = RowIndex::build(base, self.snapshot(base)?.partitions());
            self.index_builds.fetch_add(1, Ordering::Relaxed);
            Ok(index)
        };
        let mut cached = self.row_index.lock();
        match cached.as_ref().map(RowIndex::version) {
            Some(at) if at == base => {}
            Some(at) if at > base => {
                drop(cached);
                return Ok(RowLookup(Held::ThrowAway(build()?)));
            }
            Some(at) => {
                let delta = self.partition_delta(at, base)?;
                let moved = delta.rows();
                // An interval that replaced the table (overwrite,
                // recluster) moved every row twice; indexing `base`
                // afresh hashes each once.
                if moved > self.row_count_at(base)? {
                    *cached = Some(build()?);
                } else {
                    let index = cached.as_mut().expect("matched Some");
                    index.advance(base, &delta.removed, &delta.added);
                    self.index_advanced_rows
                        .fetch_add(moved as u64, Ordering::Relaxed);
                }
            }
            None => *cached = Some(build()?),
        }
        Ok(RowLookup(Held::Cached(cached)))
    }

    /// What the row-location index has cost this store so far, by count.
    pub fn row_index_stats(&self) -> RowIndexStats {
        RowIndexStats {
            builds: self.index_builds.load(Ordering::Relaxed),
            advanced_rows: self.index_advanced_rows.load(Ordering::Relaxed),
        }
    }

    /// Number of versions in the chain (for telemetry / time travel tests).
    pub fn version_count(&self) -> usize {
        self.inner.read().versions.len()
    }

    /// Zero-copy clone (§3.4): a new store sharing every micro-partition
    /// with this one (partitions are immutable and `Arc`-shared, so only
    /// metadata is copied — Snowflake's zero-copy-cloning).
    pub fn fork(&self) -> TableStore {
        // Hold the commit lock so the fork can't interleave with a
        // writer's pin/install window.
        let _commit = self.commit_lock.lock();
        let inner = self.inner.read();
        TableStore::from_parts(
            Arc::clone(&self.schema),
            self.partition_capacity,
            self.next_partition.load(Ordering::Relaxed),
            Inner {
                partitions: inner.partitions.clone(),
                versions: inner.versions.clone(),
            },
        )
    }

    /// Number of live partitions at the latest version.
    pub fn partition_count(&self) -> usize {
        let inner = self.inner.read();
        inner.versions.last().expect("chain never empty").partitions.len()
    }

    /// Append the version described by a WAL install record, exactly as
    /// originally installed: the record's partitions are inserted under
    /// their original ids and the version metadata is appended verbatim.
    /// The partition id counter is bumped past every replayed id so
    /// post-recovery commits cannot collide with recovered partitions.
    ///
    /// Recovery-only: ordering and idempotence are the caller's job (the
    /// engine replays records in WAL order and skips already-checkpointed
    /// timestamps), though a regressing `commit_ts` is still rejected.
    pub fn replay_install(
        &self,
        rec: &crate::durable::VersionInstallRecord,
        commit_ts: Timestamp,
        txn: TxnId,
    ) -> DtResult<VersionId> {
        let mut max_id = 0u64;
        let new_parts: Vec<Arc<Partition>> = rec
            .new_parts
            .iter()
            .map(|(id, rows)| {
                max_id = max_id.max(id.raw() + 1);
                Arc::new(Partition::new(*id, rows.clone()))
            })
            .collect();
        self.next_partition.fetch_max(max_id, Ordering::Relaxed);
        self.install_version(
            new_parts,
            commit_ts,
            txn,
            rec.partitions.clone(),
            rec.added.clone(),
            rec.removed.clone(),
            false,
            rec.row_count,
        )
    }

    /// Dump the store's complete physical state — schema, partition pool,
    /// full version chain — for a checkpoint. Partitions are sorted by id
    /// so the image is deterministic.
    pub fn checkpoint_dump(&self) -> crate::durable::StoreCheckpoint {
        let inner = self.inner.read();
        let mut partitions: Vec<(PartitionId, Vec<Row>)> = inner
            .partitions
            .values()
            .map(|p| (p.id(), p.rows().to_vec()))
            .collect();
        partitions.sort_by_key(|(id, _)| *id);
        crate::durable::StoreCheckpoint {
            schema: (*self.schema).clone(),
            partition_capacity: self.partition_capacity,
            next_partition: self.next_partition.load(Ordering::Relaxed),
            partitions,
            versions: inner.versions.clone(),
        }
    }

    /// Rebuild a store from a checkpoint image (the inverse of
    /// [`TableStore::checkpoint_dump`]).
    pub fn from_checkpoint(ck: crate::durable::StoreCheckpoint) -> DtResult<TableStore> {
        if ck.versions.is_empty() {
            return Err(DtError::Corruption(
                "store checkpoint has an empty version chain".into(),
            ));
        }
        if ck.partition_capacity == 0 {
            return Err(DtError::Corruption(
                "store checkpoint has zero partition capacity".into(),
            ));
        }
        let mut partitions = HashMap::with_capacity(ck.partitions.len());
        for (id, rows) in ck.partitions {
            partitions.insert(id, Arc::new(Partition::new(id, rows)));
        }
        // Every partition any version references must exist in the pool.
        for v in &ck.versions {
            for pid in &v.partitions {
                if !partitions.contains_key(pid) {
                    return Err(DtError::Corruption(format!(
                        "store checkpoint: version {} references missing partition {pid}",
                        v.id
                    )));
                }
            }
        }
        Ok(TableStore::from_parts(
            Arc::new(ck.schema),
            ck.partition_capacity,
            ck.next_partition,
            Inner {
                partitions,
                versions: ck.versions,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{row, DataType};

    fn int_table(cap: usize) -> TableStore {
        TableStore::with_partition_capacity(
            Schema::new(vec![Column::new("x", DataType::Int)]),
            Timestamp::EPOCH,
            TxnId(0),
            cap,
        )
    }

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn insert_scan_roundtrip() {
        let t = int_table(2);
        let v = t
            .commit_change(vec![row!(1i64), row!(2i64), row!(3i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        let mut rows = t.scan(v).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!(1i64), row!(2i64), row!(3i64)]);
        // Capacity 2 => two partitions for three rows.
        assert_eq!(t.partition_count(), 2);
    }

    #[test]
    fn delete_rewrites_copy_on_write() {
        let t = int_table(10);
        t.commit_change(vec![row!(1i64), row!(2i64), row!(3i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        let v2 = t
            .commit_change(vec![], vec![row!(2i64)], ts(2), TxnId(2))
            .unwrap();
        let mut rows = t.scan(v2).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!(1i64), row!(3i64)]);
    }

    #[test]
    fn delete_missing_row_errors() {
        let t = int_table(10);
        t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        let err = t
            .commit_change(vec![], vec![row!(99i64)], ts(2), TxnId(2))
            .unwrap_err();
        assert!(matches!(err, DtError::Storage(_)));
    }

    #[test]
    fn time_travel_resolves_snapshot_rule() {
        let t = int_table(10);
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(10), TxnId(1)).unwrap();
        let v2 = t.commit_change(vec![row!(2i64)], vec![], ts(20), TxnId(2)).unwrap();
        assert_eq!(t.version_at(ts(5)), Some(VersionId(0)));
        assert_eq!(t.version_at(ts(10)), Some(v1));
        assert_eq!(t.version_at(ts(15)), Some(v1));
        assert_eq!(t.version_at(ts(99)), Some(v2));
    }

    #[test]
    fn change_scan_between_versions() {
        let t = int_table(10);
        let v1 = t
            .commit_change(vec![row!(1i64), row!(2i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        let v2 = t
            .commit_change(vec![row!(3i64)], vec![row!(1i64)], ts(2), TxnId(2))
            .unwrap();
        let cs = t.changes_between(v1, v2).unwrap();
        assert_eq!(cs.inserts(), &[row!(3i64)]);
        assert_eq!(cs.deletes(), &[row!(1i64)]);
    }

    #[test]
    fn change_scan_cancels_copy_on_write_amplification() {
        // Deleting one row of a 3-row partition rewrites all three rows;
        // consolidation must hide the two copied survivors.
        let t = int_table(10);
        let v1 = t
            .commit_change(vec![row!(1i64), row!(2i64), row!(3i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        let v2 = t
            .commit_change(vec![], vec![row!(2i64)], ts(2), TxnId(2))
            .unwrap();
        let cs = t.changes_between(v1, v2).unwrap();
        assert!(cs.inserts().is_empty());
        assert_eq!(cs.deletes(), &[row!(2i64)]);
    }

    #[test]
    fn recluster_is_invisible_to_change_scans() {
        let t = int_table(2);
        let v1 = t
            .commit_change(
                vec![row!(1i64), row!(2i64), row!(3i64), row!(4i64), row!(5i64)],
                vec![],
                ts(1),
                TxnId(1),
            )
            .unwrap();
        let v2 = t.recluster(ts(2), TxnId(2)).unwrap();
        assert!(t.changes_between(v1, v2).unwrap().is_empty());
        assert!(t.unchanged_between(v1, v2).unwrap());
        // But data survives.
        assert_eq!(t.scan(v2).unwrap().len(), 5);
    }

    #[test]
    fn change_scan_spanning_recluster_still_sees_dml() {
        let t = int_table(2);
        let v1 = t
            .commit_change(vec![row!(1i64), row!(2i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        t.recluster(ts(2), TxnId(2)).unwrap();
        let v3 = t
            .commit_change(vec![row!(9i64)], vec![], ts(3), TxnId(3))
            .unwrap();
        let cs = t.changes_between(v1, v3).unwrap();
        assert_eq!(cs.inserts(), &[row!(9i64)]);
        assert!(cs.deletes().is_empty());
    }

    #[test]
    fn overwrite_replaces_everything() {
        let t = int_table(10);
        let v1 = t
            .commit_change(vec![row!(1i64), row!(2i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        let v2 = t.overwrite(vec![row!(7i64)], ts(2), TxnId(2)).unwrap();
        assert_eq!(t.scan(v2).unwrap(), vec![row!(7i64)]);
        let cs = t.changes_between(v1, v2).unwrap();
        assert_eq!(cs.inserts(), &[row!(7i64)]);
        assert_eq!(cs.deletes().len(), 2);
    }

    #[test]
    fn commit_timestamps_must_not_regress() {
        let t = int_table(10);
        t.commit_change(vec![row!(1i64)], vec![], ts(10), TxnId(1)).unwrap();
        assert!(t
            .commit_change(vec![row!(2i64)], vec![], ts(5), TxnId(2))
            .is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let t = int_table(10);
        assert!(t
            .commit_change(vec![Row::new(vec![])], vec![], ts(1), TxnId(1))
            .is_err());
    }

    #[test]
    fn unchanged_between_detects_no_data() {
        let t = int_table(10);
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        let v2 = t.recluster(ts(2), TxnId(2)).unwrap();
        assert!(t.unchanged_between(v1, v2).unwrap());
        let v3 = t.commit_change(vec![row!(2i64)], vec![], ts(3), TxnId(3)).unwrap();
        assert!(!t.unchanged_between(v1, v3).unwrap());
    }

    #[test]
    fn prepared_change_installs_when_base_is_still_latest() {
        let t = int_table(2);
        let v1 = t
            .commit_change(vec![row!(1i64), row!(2i64), row!(3i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        let prep = t
            .prepare_change_at(v1, vec![row!(9i64)], vec![row!(2i64)])
            .unwrap();
        assert_eq!(prep.base(), v1);
        assert_eq!(prep.row_count(), 3);
        let v2 = t.install_prepared(prep, ts(2), TxnId(2)).unwrap();
        let mut rows = t.scan(v2).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!(1i64), row!(3i64), row!(9i64)]);
    }

    #[test]
    fn prepared_change_conflicts_when_version_moved() {
        let t = int_table(10);
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        let prep = t.prepare_change_at(v1, vec![row!(2i64)], vec![]).unwrap();
        // A concurrent commit lands first: first committer wins.
        t.commit_change(vec![row!(7i64)], vec![], ts(2), TxnId(2)).unwrap();
        let err = t.install_prepared(prep, ts(3), TxnId(3)).unwrap_err();
        assert!(err.is_conflict(), "got {err:?}");
        // Nothing was installed by the losing change.
        let mut rows = t.scan(t.latest_version()).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!(1i64), row!(7i64)]);
    }

    #[test]
    fn prepared_overwrite_replaces_contents_on_install() {
        let t = int_table(2);
        let v1 = t
            .commit_change(vec![row!(1i64), row!(2i64), row!(3i64)], vec![], ts(1), TxnId(1))
            .unwrap();
        let prep = t.prepare_overwrite_at(v1, vec![row!(7i64), row!(8i64)]).unwrap();
        assert_eq!(prep.base(), v1);
        assert_eq!(prep.row_count(), 2);
        let v2 = t.install_prepared(prep, ts(2), TxnId(2)).unwrap();
        let mut rows = t.scan(v2).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!(7i64), row!(8i64)]);
        // The base version remains readable (time travel).
        assert_eq!(t.scan(v1).unwrap().len(), 3);
    }

    #[test]
    fn prepared_overwrite_conflicts_when_version_moved() {
        let t = int_table(10);
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        let prep = t.prepare_overwrite_at(v1, vec![row!(5i64)]).unwrap();
        t.commit_change(vec![row!(2i64)], vec![], ts(2), TxnId(2)).unwrap();
        let err = t.install_prepared(prep, ts(3), TxnId(3)).unwrap_err();
        assert!(err.is_conflict(), "got {err:?}");
    }

    #[test]
    fn prepare_against_old_version_sees_its_rows_only() {
        let t = int_table(10);
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        t.commit_change(vec![row!(2i64)], vec![], ts(2), TxnId(2)).unwrap();
        // Deleting row 2 against base v1 fails: v1 never contained it.
        assert!(t
            .prepare_change_at(v1, vec![], vec![row!(2i64)])
            .is_err());
    }

    #[test]
    fn commit_guard_validates_then_installs_atomically() {
        let t = int_table(10);
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        let prep = t.prepare_change_at(v1, vec![row!(2i64)], vec![]).unwrap();
        let guard = t.commit_guard();
        assert_eq!(guard.latest_version(), v1);
        assert_eq!(guard.latest_commit_ts(), ts(1));
        guard.validate_prepared(&prep).unwrap();
        let v2 = guard.install_validated(prep, ts(2), TxnId(2));
        drop(guard);
        assert_eq!(t.latest_version(), v2);
        assert_eq!(t.scan(v2).unwrap().len(), 2);
    }

    #[test]
    fn commit_guard_blocks_direct_writers_until_released() {
        // While a committer holds the guard, a direct `commit_change`
        // racer cannot slip a version in between validation and install:
        // it blocks on the same commit lock the guard holds.
        let t = std::sync::Arc::new(int_table(10));
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        let prep = t.prepare_change_at(v1, vec![row!(2i64)], vec![]).unwrap();
        let guard = t.commit_guard();
        let racer = {
            let t = std::sync::Arc::clone(&t);
            std::thread::spawn(move || {
                t.commit_change(vec![row!(9i64)], vec![], ts(9), TxnId(9)).unwrap()
            })
        };
        // The racer cannot commit while the guard is held; validation
        // stays true and the install succeeds.
        std::thread::sleep(std::time::Duration::from_millis(10));
        guard.validate_prepared(&prep).unwrap();
        let v2 = guard.install_validated(prep, ts(2), TxnId(2));
        drop(guard);
        let v3 = racer.join().unwrap();
        assert!(v3 > v2, "the racer serialized after the guarded install");
        assert_eq!(t.scan(v3).unwrap().len(), 3);
    }

    #[test]
    fn commit_guard_conflict_when_prepared_base_moved() {
        let t = int_table(10);
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        let prep = t.prepare_change_at(v1, vec![row!(2i64)], vec![]).unwrap();
        t.commit_change(vec![row!(7i64)], vec![], ts(2), TxnId(2)).unwrap();
        let guard = t.commit_guard();
        let err = guard.validate_prepared(&prep).unwrap_err();
        assert!(err.is_conflict(), "got {err:?}");
    }

    #[test]
    fn net_zero_dml_reports_unchanged() {
        let t = int_table(10);
        let v1 = t.commit_change(vec![row!(1i64)], vec![], ts(1), TxnId(1)).unwrap();
        // Insert then delete the same row: interval nets to zero.
        t.commit_change(vec![row!(5i64)], vec![], ts(2), TxnId(2)).unwrap();
        let v3 = t.commit_change(vec![], vec![row!(5i64)], ts(3), TxnId(3)).unwrap();
        assert!(t.changes_between(v1, v3).unwrap().is_empty());
        assert!(t.unchanged_between(v1, v3).unwrap());
    }
    fn stats(t: &TableStore) -> (u64, u64) {
        let s = t.row_index_stats();
        (s.builds, s.advanced_rows)
    }

    #[test]
    fn the_row_index_is_built_by_the_first_delete_and_advanced_by_the_next() {
        let t = int_table(4);
        let v1 = t
            .commit_change((0..10i64).map(|i| row!(i)).collect(), vec![], ts(1), TxnId(1))
            .unwrap();
        assert_eq!(stats(&t), (0, 0), "inserts locate no row");
        // [0..4) [4..8) [8, 9]: deleting 5 rewrites the middle partition.
        let v2 = t.commit_change(vec![], vec![row!(5i64)], ts(2), TxnId(2)).unwrap();
        assert_eq!(stats(&t), (1, 0));
        // The next delete crosses v2: one partition of 4 rows removed, one
        // of 3 survivors added.
        t.commit_change(vec![], vec![row!(9i64)], ts(3), TxnId(3)).unwrap();
        assert_eq!(stats(&t), (1, 7));
        // A writer pinned before those commits gets an index of its own;
        // the cached one stays where it was.
        assert_eq!(t.row_lookup(v1).unwrap().copies(row!(5i64).values()), 1);
        assert_eq!(stats(&t), (2, 7));
        // (which is v2, the base of the last writer).
        assert_eq!(t.row_lookup(v2).unwrap().copies(row!(5i64).values()), 0);
        assert_eq!(stats(&t), (2, 7));
        t.commit_change(vec![], vec![row!(0i64)], ts(4), TxnId(4)).unwrap();
        assert_eq!(stats(&t), (2, 7 + 2 + 1), "advanced across v3 only");
        assert!(t.row_lookup(VersionId(99)).is_err());
    }

    #[test]
    fn an_interval_that_replaced_the_table_rebuilds_the_row_index() {
        let t = int_table(2);
        t.commit_change((0..6i64).map(|i| row!(i)).collect(), vec![], ts(1), TxnId(1))
            .unwrap();
        t.commit_change(vec![], vec![row!(0i64)], ts(2), TxnId(2)).unwrap();
        t.recluster(ts(3), TxnId(3)).unwrap();
        let before = stats(&t);
        let v = t.commit_change(vec![], vec![row!(3i64)], ts(4), TxnId(4)).unwrap();
        assert_eq!(stats(&t), (before.0 + 1, before.1));
        let mut rows = t.scan(v).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!(1i64), row!(2i64), row!(4i64), row!(5i64)]);
    }

    #[test]
    fn a_fork_starts_without_the_row_index_and_diverges() {
        let t = int_table(2);
        t.commit_change((0..5i64).map(|i| row!(i)).collect(), vec![], ts(1), TxnId(1))
            .unwrap();
        t.commit_change(vec![], vec![row!(1i64)], ts(2), TxnId(2)).unwrap();
        let f = t.fork();
        assert_eq!(stats(&f), (0, 0));
        f.commit_change(vec![], vec![row!(2i64)], ts(3), TxnId(3)).unwrap();
        t.commit_change(vec![], vec![row!(3i64)], ts(3), TxnId(3)).unwrap();
        assert_eq!(f.row_lookup(f.latest_version()).unwrap().copies(row!(3i64).values()), 1);
        assert_eq!(t.row_lookup(t.latest_version()).unwrap().copies(row!(3i64).values()), 0);
        assert_eq!(t.row_lookup(t.latest_version()).unwrap().copies(row!(2i64).values()), 1);
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(Vec<(i64, i64)>),
            /// Delete the stored rows at these positions (mod the table
            /// size) — duplicates of one value included.
            Delete(Vec<usize>, Vec<(i64, i64)>),
            /// Delete one more copy of a row than the table holds.
            DeleteTooMany(usize),
            Recluster,
            Overwrite(Vec<(i64, i64)>),
        }

        fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
            prop::collection::vec((0..4i64, 0..3i64), 0..max)
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                rows_strategy(7).prop_map(Op::Insert),
                rows_strategy(7).prop_map(Op::Insert),
                (prop::collection::vec(0..1000usize, 1..6), rows_strategy(3))
                    .prop_map(|(at, ins)| Op::Delete(at, ins)),
                (prop::collection::vec(0..1000usize, 1..6), rows_strategy(3))
                    .prop_map(|(at, ins)| Op::Delete(at, ins)),
                (0..1000usize).prop_map(Op::DeleteTooMany),
                Just(Op::Recluster),
                rows_strategy(5).prop_map(Op::Overwrite),
            ]
        }

        fn two_column_table(cap: usize) -> TableStore {
            TableStore::with_partition_capacity(
                Schema::new(vec![
                    Column::new("x", DataType::Int),
                    Column::new("y", DataType::Int),
                ]),
                Timestamp::EPOCH,
                TxnId(0),
                cap,
            )
        }

        fn rows(vals: &[(i64, i64)]) -> Vec<Row> {
            vals.iter().map(|(x, y)| row!(*x, *y)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

            /// Random histories over a bag with many duplicate full rows:
            /// the store that locates victims through the index and a
            /// mirror that finds them by scanning every row mint the same
            /// partitions — ids, row order, `added` / `removed`, version
            /// chain — and fail the same commits with the same error.
            #[test]
            fn the_index_changes_a_table_exactly_as_the_scan_did(
                ops in prop::collection::vec(op_strategy(), 1..30),
                capacity in 1..9usize,
            ) {
                let indexed = two_column_table(capacity);
                let scanned = two_column_table(capacity);
                for (i, op) in ops.iter().enumerate() {
                    let (at, txn) = (ts(i as i64 + 1), TxnId(i as u64 + 1));
                    let stored = indexed.scan(indexed.latest_version()).unwrap();
                    let change = match op {
                        Op::Insert(vals) => Some((rows(vals), vec![])),
                        Op::Delete(picks, ins) if !stored.is_empty() => {
                            let mut slots: Vec<usize> =
                                picks.iter().map(|p| p % stored.len()).collect();
                            slots.sort_unstable();
                            slots.dedup();
                            let doomed = slots.iter().map(|s| stored[*s].clone()).collect();
                            Some((rows(ins), doomed))
                        }
                        Op::DeleteTooMany(pick) if !stored.is_empty() => {
                            let row = &stored[pick % stored.len()];
                            let held = stored.iter().filter(|r| *r == row).count();
                            Some((vec![], vec![row.clone(); held + 1]))
                        }
                        Op::Delete(..) | Op::DeleteTooMany(_) => None,
                        Op::Recluster => {
                            indexed.recluster(at, txn).unwrap();
                            scanned.recluster(at, txn).unwrap();
                            None
                        }
                        Op::Overwrite(vals) => {
                            indexed.overwrite(rows(vals), at, txn).unwrap();
                            scanned.overwrite(rows(vals), at, txn).unwrap();
                            None
                        }
                    };
                    if let Some((inserts, deletes)) = change {
                        let got = indexed.commit_change(inserts.clone(), deletes.clone(), at, txn);
                        let guard = scanned.commit_guard();
                        let want = scanned
                            .prepare_change_at_by_scan(guard.latest_version(), inserts, deletes)
                            .and_then(|prep| guard.install_checked(prep, at, txn));
                        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                        if got.is_err() {
                            // The scan minted the survivors' partitions
                            // before it noticed the missing victim; the
                            // index fails first and burns no id.
                            break;
                        }
                    }
                    prop_assert_eq!(
                        format!("{:?}", indexed.checkpoint_dump()),
                        format!("{:?}", scanned.checkpoint_dump())
                    );
                }
            }
        }
    }
}
