//! Durability: WAL records, checkpoints, and crash recovery.
//!
//! With [`dt_common::DurabilityMode::Wal`] configured, the engine logs
//! every state mutation to a segmented write-ahead log (`dt-wal`) before
//! the mutation becomes visible to any reader:
//!
//! * **Catalog records** carry a *full* catalog image (plus warehouse
//!   definitions) after every DDL, grant, or
//!   warehouse mutation — trivially idempotent to replay, and faithful to
//!   the serialization order because the install leader is the state's one
//!   writer and appends under the engine write lock. A side effect
//!   describes the storage action that rode along (a new table store, a
//!   zero-copy clone).
//! * **DML commit records** carry each committed transaction's physical
//!   install — exact partition ids, rows, and the version's delta per
//!   touched table, never its whole partition list — stamped with the real
//!   HLC commit timestamp, so replay reconstructs byte-identical version
//!   chains at the original commit instants (time travel included).
//! * **Refresh records** carry a DT refresh's storage install (if any),
//!   the refresh-ts → version mapping entry, the new frontier, and — only
//!   when §5.4 evolution installed — the new fingerprint and upstream set.
//!   No catalog image: replay applies the one metadata rule install
//!   applies (`EngineState::record_refreshed`), so a record's size does
//!   not grow with the number of DTs.
//! * **DT status records** carry one DT's consecutive-error count and
//!   state, as absolute values, after a failed refresh or a suspension on
//!   errors — idempotent to replay.
//!
//! The install pipeline's leader (the `install` module; transaction
//! commits, refreshes and every other state change share its
//! [`dt_txn::CommitQueue`]) appends its whole batch with **one** `fsync`
//! while still holding the engine write lock — the WAL's only append
//! site: durable strictly before acknowledged *and* before visible, at
//! ≤ 1 fsync per batch. Only an auto-commit statement (`commit_unbatched`)
//! installs inline, as a batch of one through the same leader body.
//!
//! The bytes of every record and of the checkpoint image are written with
//! [`dt_common::codec`]; the file formats around them belong to `dt-wal`.
//!
//! A checkpoint snapshots the entire engine image — catalog, every table
//! store (dropped ones included, for `UNDROP`), frontiers, and the
//! refresh-timestamp map — then rolls the WAL and removes sealed segments.
//! Recovery loads the latest checkpoint, replays the WAL tail (skipping
//! records at or below the checkpoint watermark), truncates a torn tail,
//! and rebuilds the scheduler from the recovered catalog.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dt_catalog::{Catalog, DtState};
use dt_common::codec::{get_schema, put_schema, Reader, Writer};
use dt_common::{
    DtError, DtResult, Duration, EntityId, Schema, Timestamp, TxnId, VersionId,
};
use dt_storage::{TableStore, VersionInstallRecord};
use dt_txn::Frontier;
use dt_wal::{Wal, WalStats, WalStatsSnapshot};

use crate::simulate::Simulation;
use crate::state::{DbConfig, EngineState};

/// The durable half of an engine: the segmented WAL (behind its own lock,
/// so appends from a leader holding the engine write lock never contend
/// with stats readers) plus the auto-checkpoint accounting. The `Engine`
/// handle keeps a clone for lock-free `SHOW STATS`.
pub(crate) struct WalShared {
    pub(crate) wal: Mutex<Wal>,
    stats: Arc<WalStats>,
    /// Payload bytes appended since the last checkpoint (auto-checkpoint
    /// trigger).
    pub(crate) since_checkpoint: AtomicU64,
    /// Auto-checkpoint threshold, from [`DbConfig::wal_checkpoint_bytes`].
    pub(crate) checkpoint_bytes: u64,
    dir: PathBuf,
}

impl WalShared {
    /// Current WAL telemetry (lock-free).
    pub(crate) fn stats(&self) -> WalStatsSnapshot {
        self.stats.snapshot()
    }
}

/// Warehouse definitions — engine state that lives outside the catalog but
/// must survive a restart. Each DT's warehouse is in the catalog.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct EngineMeta {
    /// `(name, nodes, auto_suspend)`, sorted by name.
    warehouses: Vec<(String, u32, Duration)>,
}

impl EngineMeta {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.warehouses.len());
        for (name, nodes, auto_suspend) in &self.warehouses {
            w.put_str(name);
            w.put_u32(*nodes);
            w.put_i64(auto_suspend.as_micros());
        }
    }

    fn decode(r: &mut Reader<'_>) -> DtResult<EngineMeta> {
        let n = r.get_len(16)?;
        let mut warehouses = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.get_str()?;
            let nodes = r.get_u32()?;
            let auto_suspend = Duration::from_micros(r.get_i64()?);
            warehouses.push((name, nodes, auto_suspend));
        }
        Ok(EngineMeta { warehouses })
    }
}

/// The storage action that rode along with a catalog mutation. Replay
/// applies it only when the target store does not already exist — entity
/// ids are never reused, so presence means the record was already applied.
pub(crate) enum SideEffect {
    /// Pure catalog/privilege/warehouse change; storage untouched.
    None,
    /// A new (empty) table store was created for `entity` with the given
    /// *stored* schema (DTs include `$ROW_ID`).
    CreateStore {
        entity: EntityId,
        schema: Schema,
        partition_capacity: usize,
        created_ts: Timestamp,
    },
    /// `target`'s store is a zero-copy fork of `source`'s (CLONE, §3.4).
    CloneStore { source: EntityId, target: EntityId },
}

const EFFECT_NONE: u8 = 0;
const EFFECT_CREATE: u8 = 1;
const EFFECT_CLONE: u8 = 2;

impl SideEffect {
    fn encode(&self, w: &mut Writer) {
        match self {
            SideEffect::None => w.put_u8(EFFECT_NONE),
            SideEffect::CreateStore {
                entity,
                schema,
                partition_capacity,
                created_ts,
            } => {
                w.put_u8(EFFECT_CREATE);
                w.put_u64(entity.0);
                put_schema(w, schema);
                w.put_u64(*partition_capacity as u64);
                w.put_i64(created_ts.as_micros());
            }
            SideEffect::CloneStore { source, target } => {
                w.put_u8(EFFECT_CLONE);
                w.put_u64(source.0);
                w.put_u64(target.0);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> DtResult<SideEffect> {
        match r.get_u8()? {
            EFFECT_NONE => Ok(SideEffect::None),
            EFFECT_CREATE => {
                let entity = EntityId(r.get_u64()?);
                let schema = get_schema(r)?;
                let partition_capacity = r.get_u64()? as usize;
                let created_ts = Timestamp::from_micros(r.get_i64()?);
                if partition_capacity == 0 {
                    return Err(DtError::Corruption(
                        "CreateStore side effect with zero partition capacity".into(),
                    ));
                }
                Ok(SideEffect::CreateStore {
                    entity,
                    schema,
                    partition_capacity,
                    created_ts,
                })
            }
            EFFECT_CLONE => Ok(SideEffect::CloneStore {
                source: EntityId(r.get_u64()?),
                target: EntityId(r.get_u64()?),
            }),
            t => Err(DtError::Corruption(format!(
                "unknown WAL side-effect tag {t}"
            ))),
        }
    }
}

/// One durable engine mutation. Every record carries a unique HLC stamp;
/// replay skips records at or below the checkpoint watermark, which makes
/// a crash between checkpoint write and segment removal harmless.
pub(crate) enum WalRecord {
    /// Full catalog + engine-meta image after a DDL/grant/warehouse
    /// mutation, plus the storage side effect that rode along.
    Catalog {
        stamp: Timestamp,
        catalog: Vec<u8>,
        meta: EngineMeta,
        side_effect: SideEffect,
    },
    /// One committed DML transaction: the physical install per touched
    /// table, all at one commit timestamp.
    DmlCommit {
        commit_ts: Timestamp,
        txn: TxnId,
        tables: Vec<(EntityId, VersionInstallRecord)>,
    },
    /// One installed DT refresh, or a clone's carried-over frontier.
    /// Replay installs the storage change, records the refresh-map entry
    /// and the frontier, and applies the refresh's catalog metadata rule.
    Refresh {
        dt: EntityId,
        txn: TxnId,
        refresh_ts: Timestamp,
        /// The commit stamp of the storage version and the refresh-map
        /// entry alike.
        commit_ts: Timestamp,
        /// The physical install; `None` for NO_DATA and carried-over clone
        /// frontiers.
        install: Option<VersionInstallRecord>,
        /// The version the refresh-map entry points at.
        version: VersionId,
        /// The new frontier: `(refresh_ts, per-source versions)`.
        frontier: Vec<(EntityId, VersionId)>,
        /// The fingerprint and upstream set the DT's definition evolved to
        /// (§5.4); `None` when it did not evolve.
        evolved: Option<(u64, Vec<EntityId>)>,
    },
    /// One DT's consecutive-error count and state after a failed refresh
    /// or a suspension on errors (§3.3.3).
    DtStatus {
        stamp: Timestamp,
        dt: EntityId,
        error_count: u32,
        state: DtState,
    },
}

const REC_CATALOG: u8 = 0;
const REC_DML: u8 = 1;
const REC_REFRESH: u8 = 2;
const REC_DT_STATUS: u8 = 3;

impl WalRecord {
    /// The stamp replay compares against the checkpoint watermark. Appends
    /// happen under the engine write lock and stamps come from the shared
    /// HLC, so WAL order equals stamp order.
    fn stamp(&self) -> Timestamp {
        match self {
            WalRecord::Catalog { stamp, .. } => *stamp,
            WalRecord::DmlCommit { commit_ts, .. } => *commit_ts,
            WalRecord::Refresh { commit_ts, .. } => *commit_ts,
            WalRecord::DtStatus { stamp, .. } => *stamp,
        }
    }

    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WalRecord::Catalog {
                stamp,
                catalog,
                meta,
                side_effect,
            } => {
                w.put_u8(REC_CATALOG);
                w.put_i64(stamp.as_micros());
                w.put_bytes(catalog);
                meta.encode(&mut w);
                side_effect.encode(&mut w);
            }
            WalRecord::DmlCommit {
                commit_ts,
                txn,
                tables,
            } => {
                w.put_u8(REC_DML);
                w.put_i64(commit_ts.as_micros());
                w.put_u64(txn.0);
                w.put_len(tables.len());
                for (id, rec) in tables {
                    w.put_u64(id.0);
                    dt_storage::durable::put_install_record(&mut w, rec);
                }
            }
            WalRecord::Refresh {
                dt,
                txn,
                refresh_ts,
                commit_ts,
                install,
                version,
                frontier,
                evolved,
            } => {
                w.put_u8(REC_REFRESH);
                w.put_u64(dt.0);
                w.put_u64(txn.0);
                w.put_i64(refresh_ts.as_micros());
                w.put_i64(commit_ts.as_micros());
                match install {
                    Some(rec) => {
                        w.put_bool(true);
                        dt_storage::durable::put_install_record(&mut w, rec);
                    }
                    None => w.put_bool(false),
                }
                w.put_u64(version.0);
                put_versions(&mut w, frontier);
                match evolved {
                    Some((fingerprint, upstream)) => {
                        w.put_bool(true);
                        w.put_u64(*fingerprint);
                        dt_catalog::durable::put_entity_ids(&mut w, upstream);
                    }
                    None => w.put_bool(false),
                }
            }
            WalRecord::DtStatus {
                stamp,
                dt,
                error_count,
                state,
            } => {
                w.put_u8(REC_DT_STATUS);
                w.put_i64(stamp.as_micros());
                w.put_u64(dt.0);
                w.put_u32(*error_count);
                dt_catalog::durable::put_dt_state(&mut w, *state);
            }
        }
        w.into_bytes()
    }

    pub(crate) fn from_bytes(bytes: &[u8]) -> DtResult<WalRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.get_u8()? {
            REC_CATALOG => {
                let stamp = Timestamp::from_micros(r.get_i64()?);
                let catalog = r.get_bytes()?.to_vec();
                let meta = EngineMeta::decode(&mut r)?;
                let side_effect = SideEffect::decode(&mut r)?;
                WalRecord::Catalog {
                    stamp,
                    catalog,
                    meta,
                    side_effect,
                }
            }
            REC_DML => {
                let commit_ts = Timestamp::from_micros(r.get_i64()?);
                let txn = TxnId(r.get_u64()?);
                let n = r.get_len(9)?;
                let mut tables = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = EntityId(r.get_u64()?);
                    let rec = dt_storage::durable::get_install_record(&mut r)?;
                    tables.push((id, rec));
                }
                WalRecord::DmlCommit {
                    commit_ts,
                    txn,
                    tables,
                }
            }
            REC_REFRESH => {
                let dt = EntityId(r.get_u64()?);
                let txn = TxnId(r.get_u64()?);
                let refresh_ts = Timestamp::from_micros(r.get_i64()?);
                let commit_ts = Timestamp::from_micros(r.get_i64()?);
                let install = if r.get_bool()? {
                    Some(dt_storage::durable::get_install_record(&mut r)?)
                } else {
                    None
                };
                let version = VersionId(r.get_u64()?);
                let frontier = get_versions(&mut r)?;
                let evolved = if r.get_bool()? {
                    let fingerprint = r.get_u64()?;
                    Some((fingerprint, dt_catalog::durable::get_entity_ids(&mut r)?))
                } else {
                    None
                };
                WalRecord::Refresh {
                    dt,
                    txn,
                    refresh_ts,
                    commit_ts,
                    install,
                    version,
                    frontier,
                    evolved,
                }
            }
            REC_DT_STATUS => WalRecord::DtStatus {
                stamp: Timestamp::from_micros(r.get_i64()?),
                dt: EntityId(r.get_u64()?),
                error_count: r.get_u32()?,
                state: dt_catalog::durable::get_dt_state(&mut r)?,
            },
            t => return Err(DtError::Corruption(format!("unknown WAL record tag {t}"))),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// Encode `(source, version)` pairs: a frontier's.
fn put_versions(w: &mut Writer, versions: &[(EntityId, VersionId)]) {
    w.put_len(versions.len());
    for (id, v) in versions {
        w.put_u64(id.0);
        w.put_u64(v.0);
    }
}

fn get_versions(r: &mut Reader<'_>) -> DtResult<Vec<(EntityId, VersionId)>> {
    let n = r.get_len(16)?;
    let mut versions = Vec::with_capacity(n);
    for _ in 0..n {
        versions.push((EntityId(r.get_u64()?), VersionId(r.get_u64()?)));
    }
    Ok(versions)
}

/// One entity's frontier in a checkpoint image:
/// `(entity, refresh_ts, sorted source versions)`.
type FrontierEntry = (EntityId, Timestamp, Vec<(EntityId, VersionId)>);

/// The checkpoint payload: a complete engine image at one instant, taken
/// under the engine write lock.
struct CheckpointImage {
    /// Replay skips WAL records stamped at or below this (a fresh HLC tick,
    /// strictly above every record appended so far).
    watermark: Timestamp,
    /// The engine's clock; recovery restores it into a simulation's only.
    now: Timestamp,
    catalog: Vec<u8>,
    meta: EngineMeta,
    /// Every table store, dropped entities included (`UNDROP`), by id.
    stores: Vec<(EntityId, dt_storage::StoreCheckpoint)>,
    /// Per-entity frontiers: `(entity, refresh_ts, source versions)`.
    frontiers: Vec<FrontierEntry>,
    /// The refresh-ts → version map (§5.3), required for exact-lookup
    /// snapshot isolation and time travel after a restart.
    refresh_map: Vec<(EntityId, Timestamp, VersionId, Timestamp)>,
}

impl CheckpointImage {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_i64(self.watermark.as_micros());
        w.put_i64(self.now.as_micros());
        w.put_bytes(&self.catalog);
        self.meta.encode(&mut w);
        w.put_len(self.stores.len());
        for (id, ck) in &self.stores {
            w.put_u64(id.0);
            dt_storage::durable::put_store(&mut w, ck);
        }
        w.put_len(self.frontiers.len());
        for (id, refresh_ts, pairs) in &self.frontiers {
            w.put_u64(id.0);
            w.put_i64(refresh_ts.as_micros());
            put_versions(&mut w, pairs);
        }
        w.put_len(self.refresh_map.len());
        for (id, refresh_ts, version, commit_ts) in &self.refresh_map {
            w.put_u64(id.0);
            w.put_i64(refresh_ts.as_micros());
            w.put_u64(version.0);
            w.put_i64(commit_ts.as_micros());
        }
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> DtResult<CheckpointImage> {
        let mut r = Reader::new(bytes);
        let watermark = Timestamp::from_micros(r.get_i64()?);
        let now = Timestamp::from_micros(r.get_i64()?);
        let catalog = r.get_bytes()?.to_vec();
        let meta = EngineMeta::decode(&mut r)?;
        let n = r.get_len(16)?;
        let mut stores = Vec::with_capacity(n);
        for _ in 0..n {
            let id = EntityId(r.get_u64()?);
            let ck = dt_storage::durable::get_store(&mut r)?;
            stores.push((id, ck));
        }
        let n = r.get_len(16)?;
        let mut frontiers = Vec::with_capacity(n);
        for _ in 0..n {
            let id = EntityId(r.get_u64()?);
            let refresh_ts = Timestamp::from_micros(r.get_i64()?);
            frontiers.push((id, refresh_ts, get_versions(&mut r)?));
        }
        let n = r.get_len(32)?;
        let mut refresh_map = Vec::with_capacity(n);
        for _ in 0..n {
            let id = EntityId(r.get_u64()?);
            let refresh_ts = Timestamp::from_micros(r.get_i64()?);
            let version = VersionId(r.get_u64()?);
            let commit_ts = Timestamp::from_micros(r.get_i64()?);
            refresh_map.push((id, refresh_ts, version, commit_ts));
        }
        r.finish()?;
        Ok(CheckpointImage {
            watermark,
            now,
            catalog,
            meta,
            stores,
            frontiers,
            refresh_map,
        })
    }
}

impl EngineState {
    /// True when mutations must produce WAL records.
    pub(crate) fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Push the catalog record for the state as it is now — a full
    /// catalog + engine-meta image plus the storage side effect, stamped
    /// with a fresh HLC tick — onto `wal`, for the install batch's one
    /// append. Nothing (and no tick) when the engine is not durable.
    pub(crate) fn push_catalog_record(&self, side_effect: SideEffect, wal: &mut Vec<WalRecord>) {
        if self.wal_enabled() {
            wal.push(WalRecord::Catalog {
                stamp: self.txn.hlc().tick(),
                catalog: self.catalog.to_bytes(),
                meta: self.engine_meta(),
                side_effect,
            });
        }
    }

    /// Push `dt`'s consecutive-error count and state, as they are now,
    /// onto `wal`: the record of a failed refresh or a suspension on
    /// errors. Nothing when the engine is not durable.
    pub(crate) fn push_dt_status(&self, dt: EntityId, wal: &mut Vec<WalRecord>) -> DtResult<()> {
        if self.wal_enabled() {
            let meta = (self.catalog.get(dt)?.as_dt())
                .ok_or_else(|| DtError::internal(format!("{dt} is not a DT")))?;
            wal.push(WalRecord::DtStatus {
                stamp: self.txn.hlc().tick(),
                dt,
                error_count: meta.error_count,
                state: meta.state,
            });
        }
        Ok(())
    }

    fn engine_meta(&self) -> EngineMeta {
        EngineMeta {
            warehouses: self.warehouses.dump(),
        }
    }

    /// Write a checkpoint: the complete engine image, then roll the WAL
    /// and remove sealed segments behind it. Returns `false` (and does
    /// nothing) when the engine is not durable. Must be called with the
    /// engine write lock held (the install leader's append and
    /// `Engine::checkpoint`).
    pub(crate) fn write_checkpoint(&self) -> DtResult<bool> {
        let Some(shared) = &self.wal else {
            return Ok(false);
        };
        let mut stores: Vec<(EntityId, dt_storage::StoreCheckpoint)> = self
            .tables
            .iter()
            .map(|(id, store)| (*id, store.checkpoint_dump()))
            .collect();
        stores.sort_by_key(|(id, _)| *id);
        let mut frontiers: Vec<FrontierEntry> = self
            .frontiers
            .iter()
            .map(|(id, f)| {
                let mut pairs: Vec<(EntityId, VersionId)> = f.iter().collect();
                pairs.sort();
                (*id, f.refresh_ts, pairs)
            })
            .collect();
        frontiers.sort_by_key(|(id, _, _)| *id);
        let image = CheckpointImage {
            watermark: self.txn.hlc().tick(),
            now: self.now(),
            catalog: self.catalog.to_bytes(),
            meta: self.engine_meta(),
            stores,
            frontiers,
            refresh_map: self.refresh_map.dump(),
        };
        dt_wal::write_checkpoint(&shared.dir, &image.to_bytes(), &shared.stats)?;
        let mut wal = shared.wal.lock();
        wal.roll()?;
        wal.remove_sealed_segments()?;
        shared.since_checkpoint.store(0, Ordering::Relaxed);
        Ok(true)
    }
}

/// Open (or create) a durable engine state at `dir`: load the latest
/// checkpoint, replay the WAL tail, rebuild the scheduler, and leave the
/// WAL open for appending. The returned state has `wal` attached.
pub(crate) fn open_durable(config: DbConfig, sim: Option<Simulation>, dir: &Path) -> DtResult<EngineState> {
    std::fs::create_dir_all(dir)
        .map_err(|e| DtError::Io(format!("create WAL directory {}: {e}", dir.display())))?;
    let stats = Arc::new(WalStats::default());
    let mut state = EngineState::new(config.clone(), sim);
    let mut watermark = Timestamp::EPOCH;
    if let Some(bytes) = dt_wal::read_checkpoint(dir)? {
        let image = CheckpointImage::from_bytes(&bytes)?;
        watermark = image.watermark;
        state.restore_clock(image.now);
        state.catalog = Catalog::from_bytes(&image.catalog)?;
        apply_meta(&mut state, &image.meta)?;
        for (id, ck) in image.stores {
            state.tables.insert(id, Arc::new(ck.restore()?));
        }
        for (id, refresh_ts, pairs) in image.frontiers {
            let mut f = Frontier::at(refresh_ts);
            for (src, v) in pairs {
                f.set(src, v);
            }
            state.frontiers.insert(id, f);
        }
        for (id, refresh_ts, version, commit_ts) in image.refresh_map {
            state.refresh_map.record(id, refresh_ts, version, commit_ts);
        }
    }

    let (wal, recovered) = Wal::open(dir, Arc::clone(&stats))?;
    let mut replayed = 0u64;
    let mut max_stamp = watermark;
    for bytes in &recovered.records {
        let record = WalRecord::from_bytes(bytes)?;
        if record.stamp() <= watermark {
            continue;
        }
        max_stamp = max_stamp.max(record.stamp());
        replay_record(&mut state, record)?;
        replayed += 1;
    }
    stats.record_recovery(replayed);

    // Push the HLC (and a simulation's clock) past everything recovered, so
    // the first post-recovery commit stamps after the last pre-crash one.
    if max_stamp > Timestamp::EPOCH {
        state.restore_clock(max_stamp);
        state.txn.hlc().tick_after(max_stamp);
    }
    rebuild_schedule(&mut state);

    state.wal = Some(Arc::new(WalShared {
        wal: Mutex::new(wal),
        stats,
        since_checkpoint: AtomicU64::new(0),
        checkpoint_bytes: config.wal_checkpoint_bytes,
        dir: dir.to_path_buf(),
    }));
    Ok(state)
}

fn apply_meta(state: &mut EngineState, meta: &EngineMeta) -> DtResult<()> {
    for (name, nodes, auto_suspend) in &meta.warehouses {
        // Warehouse definitions only; runtime accounting starts cold.
        state.warehouses.create(name, *nodes, *auto_suspend)?;
    }
    Ok(())
}

fn replay_record(state: &mut EngineState, record: WalRecord) -> DtResult<()> {
    match record {
        WalRecord::Catalog {
            catalog,
            meta,
            side_effect,
            ..
        } => {
            state.catalog = Catalog::from_bytes(&catalog)?;
            state.warehouses = dt_scheduler::WarehousePool::new();
            apply_meta(state, &meta)?;
            match side_effect {
                SideEffect::None => {}
                SideEffect::CreateStore {
                    entity,
                    schema,
                    partition_capacity,
                    created_ts,
                } => {
                    state.tables.entry(entity).or_insert_with(|| {
                        Arc::new(TableStore::with_partition_capacity(
                            schema,
                            created_ts,
                            TxnId(0),
                            partition_capacity,
                        ))
                    });
                }
                SideEffect::CloneStore { source, target } => {
                    if !state.tables.contains_key(&target) {
                        let fork = state
                            .tables
                            .get(&source)
                            .ok_or_else(|| {
                                DtError::Corruption(format!(
                                    "WAL clone of {target} references missing source store {source}"
                                ))
                            })?
                            .fork();
                        state.tables.insert(target, Arc::new(fork));
                    }
                }
            }
        }
        WalRecord::DmlCommit {
            commit_ts,
            txn,
            tables,
        } => {
            for (id, rec) in tables {
                let store = state.tables.get(&id).ok_or_else(|| {
                    DtError::Corruption(format!(
                        "WAL commit references missing table store {id}"
                    ))
                })?;
                store.replay_install(&rec, commit_ts, txn)?;
            }
        }
        WalRecord::Refresh {
            dt,
            txn,
            refresh_ts,
            commit_ts,
            install,
            version,
            frontier,
            evolved,
        } => {
            if let Some(rec) = install {
                let store = state.tables.get(&dt).ok_or_else(|| {
                    DtError::Corruption(format!(
                        "WAL refresh references missing DT store {dt}"
                    ))
                })?;
                store.replay_install(&rec, commit_ts, txn)?;
            }
            state.refresh_map.record(dt, refresh_ts, version, commit_ts);
            let mut f = Frontier::at(refresh_ts);
            for (src, v) in frontier {
                f.set(src, v);
            }
            state.frontiers.insert(dt, f);
            state.record_refreshed(dt, evolved.as_ref())?;
        }
        WalRecord::DtStatus {
            dt,
            error_count,
            state: dt_state,
            ..
        } => {
            let missing =
                || DtError::Corruption(format!("WAL status record references {dt}, not a DT"));
            let entity = state.catalog.get_mut(dt).map_err(|_| missing())?;
            let meta = entity.as_dt_mut().ok_or_else(missing)?;
            meta.error_count = error_count;
            meta.state = dt_state;
        }
    }
    Ok(())
}

/// Rebuild what scheduling reads beside the recovered catalog: what each
/// live DT's definition binds to (the DT graph's edges), and the data
/// timestamp of each initialized DT from the refresh map. Runtime lag
/// samples start fresh — the scheduler re-learns cadence from the first
/// post-recovery rounds.
fn rebuild_schedule(state: &mut EngineState) {
    state.rebind_dt_reads();
    for id in state.catalog.dynamic_tables() {
        if let Some(ts) = state.refresh_map.latest_refresh(id) {
            state.scheduler.mark_initialized(id, ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{Column, DataType, Row, Value};

    fn sample_install() -> VersionInstallRecord {
        VersionInstallRecord {
            new_parts: vec![(
                dt_common::PartitionId(3),
                vec![Row::new(vec![Value::Int(1), Value::Str("a".into())])],
            )],
            added: vec![dt_common::PartitionId(3)],
            removed: vec![dt_common::PartitionId(1)],
            in_place: vec![0],
            row_count: 1,
        }
    }

    #[test]
    fn every_dts_warehouse_survives_a_restart_from_the_catalog_alone() {
        // Replaced and dropped DTs keep their warehouse, and a clone has
        // its source's — across WAL replay and across a checkpoint, with
        // no DT listed in the engine meta.
        let dir = std::env::temp_dir().join(format!("dt-engine-meta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let warehouses = |engine: &crate::Engine| {
            engine.inspect(|st| {
                assert_eq!(st.engine_meta().warehouses.len(), 2);
                (1..)
                    .map_while(|id| st.catalog.get(EntityId(id)).ok())
                    .filter_map(|e| Some((e.id, e.as_dt()?.warehouse.clone())))
                    .collect::<Vec<_>>()
            })
        };
        {
            let engine = crate::Engine::open(&dir).unwrap();
            engine.create_warehouse("wh", 1).unwrap();
            engine.create_warehouse("other", 1).unwrap();
            let session = engine.session();
            for sql in [
                "CREATE TABLE t (k INT)",
                "CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
                "CREATE OR REPLACE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = OTHER \
                 AS SELECT k FROM t",
                "CREATE DYNAMIC TABLE b TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
                "DROP TABLE b",
                "CREATE DYNAMIC TABLE c CLONE a",
            ] {
                session.execute(sql).unwrap();
            }
        }
        let expected = [(2, "wh"), (3, "other"), (4, "wh"), (5, "other")];
        let expected: Vec<(EntityId, String)> =
            expected.iter().map(|(id, wh)| (EntityId(*id), wh.to_string())).collect();
        let replayed = crate::Engine::open(&dir).unwrap();
        assert_eq!(warehouses(&replayed), expected, "after WAL replay");
        assert!(replayed.checkpoint().unwrap());
        drop(replayed);
        let restored = crate::Engine::open(&dir).unwrap();
        assert_eq!(warehouses(&restored), expected, "after a checkpoint");
        drop(restored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_records_round_trip() {
        let catalog = Catalog::new().to_bytes();
        let records = vec![
            WalRecord::Catalog {
                stamp: Timestamp::from_micros(41),
                catalog: catalog.clone(),
                meta: EngineMeta {
                    warehouses: vec![("wh".into(), 4, Duration::from_mins(5))],
                },
                side_effect: SideEffect::CreateStore {
                    entity: EntityId(7),
                    schema: Schema::new(vec![Column::new("k", DataType::Int)]),
                    partition_capacity: 4096,
                    created_ts: Timestamp::from_micros(40),
                },
            },
            WalRecord::Catalog {
                stamp: Timestamp::from_micros(42),
                catalog,
                meta: EngineMeta::default(),
                side_effect: SideEffect::CloneStore {
                    source: EntityId(7),
                    target: EntityId(9),
                },
            },
            WalRecord::DmlCommit {
                commit_ts: Timestamp::from_micros(43),
                txn: TxnId(5),
                tables: vec![(EntityId(7), sample_install())],
            },
            WalRecord::Refresh {
                dt: EntityId(9),
                txn: TxnId(6),
                refresh_ts: Timestamp::from_micros(44),
                commit_ts: Timestamp::from_micros(45),
                install: Some(sample_install()),
                version: VersionId(1),
                frontier: vec![(EntityId(7), VersionId(2))],
                evolved: Some((0xfeed, vec![EntityId(7), EntityId(8)])),
            },
            WalRecord::Refresh {
                dt: EntityId(9),
                txn: TxnId(7),
                refresh_ts: Timestamp::from_micros(46),
                commit_ts: Timestamp::from_micros(47),
                install: None,
                version: VersionId(1),
                frontier: vec![(EntityId(7), VersionId(2))],
                evolved: None,
            },
            WalRecord::DtStatus {
                stamp: Timestamp::from_micros(48),
                dt: EntityId(9),
                error_count: 3,
                state: DtState::SuspendedOnErrors,
            },
        ];
        for rec in records {
            let bytes = rec.to_bytes();
            let back = WalRecord::from_bytes(&bytes).unwrap();
            assert_eq!(back.to_bytes(), bytes);
            assert_eq!(back.stamp(), rec.stamp());
        }
    }

    #[test]
    fn wal_record_decode_rejects_corruption() {
        let rec = WalRecord::DmlCommit {
            commit_ts: Timestamp::from_micros(1),
            txn: TxnId(1),
            tables: vec![(EntityId(1), sample_install())],
        };
        let bytes = rec.to_bytes();
        // Unknown tag.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(matches!(
            WalRecord::from_bytes(&bad),
            Err(DtError::Corruption(_))
        ));
        // Every truncation must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(WalRecord::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(WalRecord::from_bytes(&long).is_err());
    }

    #[test]
    fn checkpoint_image_round_trips() {
        let image = CheckpointImage {
            watermark: Timestamp::from_micros(100),
            now: Timestamp::from_secs(9),
            catalog: Catalog::new().to_bytes(),
            meta: EngineMeta {
                warehouses: vec![("wh".into(), 2, Duration::from_mins(5))],
            },
            stores: vec![],
            frontiers: vec![(
                EntityId(3),
                Timestamp::from_micros(90),
                vec![(EntityId(1), VersionId(4))],
            )],
            refresh_map: vec![(
                EntityId(3),
                Timestamp::from_micros(90),
                VersionId(2),
                Timestamp::from_micros(95),
            )],
        };
        let bytes = image.to_bytes();
        let back = CheckpointImage::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.watermark, image.watermark);
        assert_eq!(back.frontiers, image.frontiers);
        assert_eq!(back.refresh_map, image.refresh_map);
    }
}
