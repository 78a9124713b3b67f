//! Checkpoint codec for catalog state.
//!
//! The catalog is small (metadata only), so checkpoints carry it whole —
//! and so does every DDL WAL record: rather than defining a replay
//! operation per DDL statement, a DDL record snapshots the entire
//! post-statement catalog. Replay is then trivially idempotent and
//! total-order-faithful: install the newest snapshot, done. The encode
//! format is [`dt_common::codec`] (explicit little-endian layout, strict
//! decoding that surfaces here as [`DtError::Corruption`]).
//!
//! This module encodes the public catalog pieces ([`Entity`],
//! [`DdlEvent`], [`Privilege`]); the [`crate::Catalog`] container itself
//! (private maps) implements `encode`/`decode` in `catalog.rs` on top of
//! these.

use std::collections::{BTreeMap, BTreeSet};

use dt_common::codec::{get_schema, put_schema, Reader, Writer};
use dt_common::{DtError, DtResult, Duration, EntityId, Timestamp};

use crate::ddl_log::{DdlEvent, DdlOp};
use crate::entity::{DtState, DynamicTableMeta, Entity, EntityKind, RefreshMode, TargetLagSpec};
use crate::privilege::Privilege;

fn err<T>(msg: impl Into<String>) -> DtResult<T> {
    Err(DtError::Corruption(msg.into()))
}

fn put_entity_ids(w: &mut Writer, ids: &[EntityId]) {
    w.put_len(ids.len());
    for id in ids {
        w.put_u64(id.raw());
    }
}

fn get_entity_ids(r: &mut Reader<'_>) -> DtResult<Vec<EntityId>> {
    let n = r.get_len(8)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(EntityId(r.get_u64()?));
    }
    Ok(ids)
}

fn put_dt_meta(w: &mut Writer, m: &DynamicTableMeta) {
    match m.target_lag {
        TargetLagSpec::Duration(d) => {
            w.put_u8(0);
            w.put_i64(d.as_micros());
        }
        TargetLagSpec::Downstream => w.put_u8(1),
    }
    w.put_str(&m.warehouse);
    w.put_u8(match m.refresh_mode {
        RefreshMode::Full => 0,
        RefreshMode::Incremental => 1,
    });
    w.put_str(&m.definition_sql);
    put_entity_ids(w, &m.upstream);
    w.put_len(m.used_columns.len());
    for (id, cols) in &m.used_columns {
        w.put_u64(id.raw());
        w.put_len(cols.len());
        for c in cols {
            w.put_str(c);
        }
    }
    w.put_u8(match m.state {
        DtState::Initializing => 0,
        DtState::Active => 1,
        DtState::Suspended => 2,
        DtState::SuspendedOnErrors => 3,
    });
    w.put_u32(m.error_count);
    w.put_u64(m.definition_fingerprint);
}

fn get_dt_meta(r: &mut Reader<'_>) -> DtResult<DynamicTableMeta> {
    let target_lag = match r.get_u8()? {
        0 => TargetLagSpec::Duration(Duration::from_micros(r.get_i64()?)),
        1 => TargetLagSpec::Downstream,
        tag => return err(format!("unknown TargetLagSpec tag {tag:#04x}")),
    };
    let warehouse = r.get_str()?;
    let refresh_mode = match r.get_u8()? {
        0 => RefreshMode::Full,
        1 => RefreshMode::Incremental,
        tag => return err(format!("unknown RefreshMode tag {tag:#04x}")),
    };
    let definition_sql = r.get_str()?;
    let upstream = get_entity_ids(r)?;
    let n = r.get_len(12)?;
    let mut used_columns = BTreeMap::new();
    for _ in 0..n {
        let id = EntityId(r.get_u64()?);
        let cols_n = r.get_len(4)?;
        let mut cols = BTreeSet::new();
        for _ in 0..cols_n {
            cols.insert(r.get_str()?);
        }
        used_columns.insert(id, cols);
    }
    let state = match r.get_u8()? {
        0 => DtState::Initializing,
        1 => DtState::Active,
        2 => DtState::Suspended,
        3 => DtState::SuspendedOnErrors,
        tag => return err(format!("unknown DtState tag {tag:#04x}")),
    };
    let error_count = r.get_u32()?;
    let definition_fingerprint = r.get_u64()?;
    Ok(DynamicTableMeta {
        target_lag,
        warehouse,
        refresh_mode,
        definition_sql,
        upstream,
        used_columns,
        state,
        error_count,
        definition_fingerprint,
    })
}

/// Encode one catalog [`Entity`], live or dropped.
pub fn put_entity(w: &mut Writer, e: &Entity) {
    w.put_u64(e.id.raw());
    w.put_str(&e.name);
    match &e.kind {
        EntityKind::Table { schema } => {
            w.put_u8(0);
            put_schema(w, schema);
        }
        EntityKind::View { sql } => {
            w.put_u8(1);
            w.put_str(sql);
        }
        EntityKind::DynamicTable(m) => {
            w.put_u8(2);
            put_dt_meta(w, m);
        }
    }
    w.put_i64(e.created_at.as_micros());
    match e.dropped_at {
        Some(ts) => {
            w.put_bool(true);
            w.put_i64(ts.as_micros());
        }
        None => w.put_bool(false),
    }
    w.put_str(&e.owner);
}

/// Decode one catalog [`Entity`].
pub fn get_entity(r: &mut Reader<'_>) -> DtResult<Entity> {
    let id = EntityId(r.get_u64()?);
    let name = r.get_str()?;
    let kind = match r.get_u8()? {
        0 => EntityKind::Table {
            schema: get_schema(r)?,
        },
        1 => EntityKind::View { sql: r.get_str()? },
        2 => EntityKind::DynamicTable(Box::new(get_dt_meta(r)?)),
        tag => return err(format!("unknown EntityKind tag {tag:#04x}")),
    };
    let created_at = Timestamp::from_micros(r.get_i64()?);
    let dropped_at = if r.get_bool()? {
        Some(Timestamp::from_micros(r.get_i64()?))
    } else {
        None
    };
    let owner = r.get_str()?;
    Ok(Entity {
        id,
        name,
        kind,
        created_at,
        dropped_at,
        owner,
    })
}

/// Encode one [`DdlEvent`].
pub fn put_ddl_event(w: &mut Writer, e: &DdlEvent) {
    w.put_u64(e.seq);
    w.put_i64(e.ts.as_micros());
    w.put_u64(e.entity.raw());
    w.put_str(&e.name);
    match &e.op {
        DdlOp::Create => w.put_u8(0),
        DdlOp::Replace { previous } => {
            w.put_u8(1);
            w.put_u64(previous.raw());
        }
        DdlOp::Drop => w.put_u8(2),
        DdlOp::Undrop => w.put_u8(3),
        DdlOp::Suspend => w.put_u8(4),
        DdlOp::Resume => w.put_u8(5),
    }
}

/// Decode one [`DdlEvent`].
pub fn get_ddl_event(r: &mut Reader<'_>) -> DtResult<DdlEvent> {
    let seq = r.get_u64()?;
    let ts = Timestamp::from_micros(r.get_i64()?);
    let entity = EntityId(r.get_u64()?);
    let name = r.get_str()?;
    let op = match r.get_u8()? {
        0 => DdlOp::Create,
        1 => DdlOp::Replace {
            previous: EntityId(r.get_u64()?),
        },
        2 => DdlOp::Drop,
        3 => DdlOp::Undrop,
        4 => DdlOp::Suspend,
        5 => DdlOp::Resume,
        tag => return err(format!("unknown DdlOp tag {tag:#04x}")),
    };
    Ok(DdlEvent {
        seq,
        ts,
        entity,
        name,
        op,
    })
}

/// Encode a [`Privilege`] as a one-byte tag.
pub fn put_privilege(w: &mut Writer, p: Privilege) {
    w.put_u8(match p {
        Privilege::Select => 0,
        Privilege::Ownership => 1,
        Privilege::Monitor => 2,
        Privilege::Operate => 3,
    });
}

/// Decode a [`Privilege`].
pub fn get_privilege(r: &mut Reader<'_>) -> DtResult<Privilege> {
    Ok(match r.get_u8()? {
        0 => Privilege::Select,
        1 => Privilege::Ownership,
        2 => Privilege::Monitor,
        3 => Privilege::Operate,
        tag => return err(format!("unknown Privilege tag {tag:#04x}")),
    })
}
