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
use crate::snapshot::TableSnapshot;
use crate::version::TableVersion;

/// Default number of rows per micro-partition.
pub const DEFAULT_PARTITION_CAPACITY: usize = 4096;

struct Inner {
    partitions: HashMap<PartitionId, Arc<Partition>>,
    versions: Vec<TableVersion>,
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
}

impl TableStore {
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
        TableStore {
            schema: Arc::new(schema),
            partition_capacity,
            next_partition: AtomicU64::new(0),
            commit_lock: Mutex::new(()),
            inner: RwLock::new(Inner {
                partitions: HashMap::new(),
                versions: vec![v0],
            }),
        }
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
        let inner = self.inner.read();
        inner
            .versions
            .get(v.raw() as usize)
            .map(|tv| tv.commit_ts)
            .ok_or_else(|| DtError::Storage(format!("unknown version {v}")))
    }

    /// Row count at a version.
    pub fn row_count_at(&self, v: VersionId) -> DtResult<usize> {
        let inner = self.inner.read();
        inner
            .versions
            .get(v.raw() as usize)
            .map(|tv| tv.row_count)
            .ok_or_else(|| DtError::Storage(format!("unknown version {v}")))
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
        let tv = inner
            .versions
            .get(v.raw() as usize)
            .ok_or_else(|| DtError::Storage(format!("unknown version {v}")))?;
        let mut partitions = Vec::with_capacity(tv.partitions.len());
        for pid in &tv.partitions {
            partitions.push(Arc::clone(inner.partitions.get(pid).ok_or_else(
                || DtError::Storage(format!("missing partition {pid}")),
            )?));
        }
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

    /// Full scan of the table at a version.
    pub fn scan(&self, v: VersionId) -> DtResult<Vec<Row>> {
        let inner = self.inner.read();
        let tv = inner
            .versions
            .get(v.raw() as usize)
            .ok_or_else(|| DtError::Storage(format!("unknown version {v}")))?;
        let mut out = Vec::with_capacity(tv.row_count);
        for pid in &tv.partitions {
            let p = inner
                .partitions
                .get(pid)
                .ok_or_else(|| DtError::Storage(format!("missing partition {pid}")))?;
            out.extend(p.rows().iter().cloned());
        }
        Ok(out)
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

    /// The row work of a change commit: apply `deletes` to `prev_parts`
    /// copy-on-write and mint partitions for `inserts`. Takes **no lock**
    /// at all: it runs against a pinned base version whose stability is
    /// validated at install time ([`TableStore::prepare_change_at`]).
    fn build_change(
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
        let base_parts = {
            let inner = self.inner.read();
            let tv = inner
                .versions
                .get(base.raw() as usize)
                .ok_or_else(|| DtError::Storage(format!("unknown version {base}")))?;
            let mut parts = Vec::with_capacity(tv.partitions.len());
            for pid in &tv.partitions {
                parts.push(Arc::clone(inner.partitions.get(pid).ok_or_else(
                    || DtError::Storage(format!("missing partition {pid}")),
                )?));
            }
            parts
        };
        let build = self.build_change(&base_parts, inserts, &deletes)?;
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
        let removed = {
            let inner = self.inner.read();
            inner
                .versions
                .get(base.raw() as usize)
                .ok_or_else(|| DtError::Storage(format!("unknown version {base}")))?
                .partitions
                .clone()
        };
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

    /// Compute the changes between two versions (exclusive `from`,
    /// inclusive `to`). Data-equivalent versions contribute nothing. The
    /// result is consolidated: rows copied between partitions by
    /// copy-on-write rewrites cancel out, so only logical changes remain.
    pub fn changes_between(&self, from: VersionId, to: VersionId) -> DtResult<ChangeSet> {
        if from == to {
            return Ok(ChangeSet::empty());
        }
        if from > to {
            return Err(DtError::Storage(format!(
                "change interval runs backwards: {from} > {to}"
            )));
        }
        let inner = self.inner.read();
        if to.raw() as usize >= inner.versions.len() {
            return Err(DtError::Storage(format!("unknown version {to}")));
        }
        // Net added/removed partition ids over the interval. A partition
        // added then removed inside the interval cancels.
        let mut net: HashMap<PartitionId, i32> = HashMap::new();
        let mut all_data_equivalent = true;
        for v in inner
            .versions
            .iter()
            .skip(from.raw() as usize + 1)
            .take((to.raw() - from.raw()) as usize)
        {
            if !v.data_equivalent {
                all_data_equivalent = false;
            }
            for pid in &v.added {
                *net.entry(*pid).or_insert(0) += 1;
            }
            for pid in &v.removed {
                *net.entry(*pid).or_insert(0) -= 1;
            }
        }
        // Fast path: an interval consisting solely of data-equivalent
        // operations is logically empty — skip reading any partitions.
        if all_data_equivalent {
            return Ok(ChangeSet::empty());
        }
        let mut cs = ChangeSet::empty();
        let mut ids: Vec<(PartitionId, i32)> = net.into_iter().filter(|(_, w)| *w != 0).collect();
        ids.sort_by_key(|(pid, _)| *pid);
        for (pid, w) in ids {
            let part = inner
                .partitions
                .get(&pid)
                .ok_or_else(|| DtError::Storage(format!("missing partition {pid}")))?;
            if w > 0 {
                for r in part.rows() {
                    cs.push_insert(r.clone());
                }
            } else {
                for r in part.rows() {
                    cs.push_delete(r.clone());
                }
            }
        }
        Ok(cs.consolidate())
    }

    /// True when the interval (`from`, `to`] contains no logical change —
    /// the test that drives NO_DATA refreshes (§3.3.2). Cheap: inspects
    /// version metadata only, never row data, unless a non-data-equivalent
    /// version is present in the interval.
    pub fn unchanged_between(&self, from: VersionId, to: VersionId) -> DtResult<bool> {
        if from == to {
            return Ok(true);
        }
        let inner = self.inner.read();
        if to.raw() as usize >= inner.versions.len() || from > to {
            return Err(DtError::Storage(format!(
                "bad version interval ({from}, {to}]"
            )));
        }
        let all_trivial = inner
            .versions
            .iter()
            .skip(from.raw() as usize + 1)
            .take((to.raw() - from.raw()) as usize)
            .all(|v| v.data_equivalent || v.is_empty_delta());
        if all_trivial {
            return Ok(true);
        }
        drop(inner);
        // Fall back to the precise check (a change could still net to zero).
        Ok(self.changes_between(from, to)?.is_empty())
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
        TableStore {
            schema: Arc::clone(&self.schema),
            partition_capacity: self.partition_capacity,
            next_partition: AtomicU64::new(self.next_partition.load(Ordering::Relaxed)),
            commit_lock: Mutex::new(()),
            inner: RwLock::new(Inner {
                partitions: inner.partitions.clone(),
                versions: inner.versions.clone(),
            }),
        }
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
        Ok(TableStore {
            schema: Arc::new(ck.schema),
            partition_capacity: ck.partition_capacity,
            next_partition: AtomicU64::new(ck.next_partition),
            commit_lock: Mutex::new(()),
            inner: RwLock::new(Inner {
                partitions,
                versions: ck.versions,
            }),
        })
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
}
