//! Immutable catalog snapshots for lock-free reads.
//!
//! The engine's MVCC read path pins a [`CatalogSnapshot`] while it briefly
//! holds the engine lock, then binds, plans, and executes with no lock at
//! all. Snapshots are immutable and `Arc`-shared: the catalog rebuilds one
//! lazily after a mutation and then hands the same `Arc` to every reader
//! until the next mutation, so steady-state capture is one `Arc` clone.

use std::collections::HashMap;

use dt_common::{DtError, DtResult, EntityId};

use crate::entity::{Entity, EntityKind};
use crate::privilege::{Privilege, PrivilegeSet};

/// A frozen, point-in-time view of the catalog: entities (live and
/// dropped), name resolution, the privilege table, and the generation
/// counters the snapshot was taken at. All methods take `&self` and touch
/// no lock.
#[derive(Debug)]
pub struct CatalogSnapshot {
    /// The catalog mutation generation this snapshot reflects.
    generation: u64,
    /// The binding-relevant DDL generation (prepared statements rebind
    /// when this moves).
    binding_generation: u64,
    entities: HashMap<EntityId, Entity>,
    by_name: HashMap<String, EntityId>,
    privileges: PrivilegeSet,
    /// Live DTs, in id order (precomputed for SHOW DYNAMIC TABLES).
    dynamic_tables: Vec<EntityId>,
}

impl CatalogSnapshot {
    pub(crate) fn new(
        generation: u64,
        binding_generation: u64,
        entities: HashMap<EntityId, Entity>,
        by_name: HashMap<String, EntityId>,
        privileges: PrivilegeSet,
    ) -> Self {
        let mut dynamic_tables: Vec<EntityId> = entities
            .values()
            .filter(|e| e.is_live() && matches!(e.kind, EntityKind::DynamicTable(_)))
            .map(|e| e.id)
            .collect();
        dynamic_tables.sort();
        CatalogSnapshot {
            generation,
            binding_generation,
            entities,
            by_name,
            privileges,
            dynamic_tables,
        }
    }

    /// The catalog mutation generation this snapshot was captured at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The binding-relevant DDL generation at capture (see
    /// [`crate::Catalog::binding_generation`]).
    pub fn binding_generation(&self) -> u64 {
        self.binding_generation
    }

    /// Resolve a live entity by name.
    pub fn resolve(&self, name: &str) -> DtResult<&Entity> {
        let lname = name.to_ascii_lowercase();
        self.by_name
            .get(&lname)
            .and_then(|id| self.entities.get(id))
            .ok_or_else(|| DtError::Catalog(format!("unknown entity '{lname}'")))
    }

    /// Get any entity (live or dropped) by id.
    pub fn get(&self, id: EntityId) -> DtResult<&Entity> {
        self.entities
            .get(&id)
            .ok_or_else(|| DtError::Catalog(format!("unknown entity {id}")))
    }

    /// True when `id` names a dynamic table in this snapshot.
    pub fn is_dt(&self, id: EntityId) -> bool {
        self.entities
            .get(&id)
            .map(|e| e.as_dt().is_some())
            .unwrap_or(false)
    }

    /// Live DTs at capture time, in id order.
    pub fn dynamic_tables(&self) -> &[EntityId] {
        &self.dynamic_tables
    }

    /// The privilege table as of capture.
    pub fn privileges(&self) -> &PrivilegeSet {
        &self.privileges
    }

    /// Check that `role` held `privilege` on the live entity `name` as of
    /// capture.
    pub fn check_privilege(
        &self,
        role: &str,
        name: &str,
        privilege: Privilege,
    ) -> DtResult<()> {
        let e = self.resolve(name)?;
        self.privileges.check(role, e.id, &e.name, privilege)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::entity::DtState;
    use dt_common::{Column, DataType, Schema, Timestamp};
    use std::sync::Arc;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn schema() -> Schema {
        Schema::new(vec![Column::new("x", DataType::Int)])
    }

    #[test]
    fn snapshot_is_cached_until_a_mutation() {
        let mut c = Catalog::new();
        c.create_table("t", schema(), ts(1), "admin", false).unwrap();
        let a = c.snapshot();
        let b = c.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "unchanged catalog must reuse one Arc");
        c.drop_entity("t", ts(2)).unwrap();
        let d = c.snapshot();
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(d.generation() > a.generation());
    }

    #[test]
    fn snapshot_is_immune_to_later_ddl() {
        let mut c = Catalog::new();
        let id = c.create_table("t", schema(), ts(1), "admin", false).unwrap();
        let snap = c.snapshot();
        c.drop_entity("t", ts(2)).unwrap();
        // The live catalog no longer resolves `t`, the snapshot still does.
        assert!(c.resolve("t").is_err());
        assert_eq!(snap.resolve("t").unwrap().id, id);
        assert!(snap.get(id).unwrap().is_live());
    }

    #[test]
    fn state_and_grant_mutations_invalidate_the_cache() {
        let mut c = Catalog::new();
        c.create_table("base", schema(), ts(1), "admin", false).unwrap();
        let meta = crate::entity::DynamicTableMeta {
            target_lag: dt_common::TargetLag::Downstream,
            warehouse: "wh".into(),
            refresh_mode: crate::entity::RefreshMode::Full,
            definition_sql: "select * from base".into(),
            upstream: vec![],
            used_columns: Default::default(),
            state: DtState::Initializing,
            error_count: 0,
            definition_fingerprint: 0,
        };
        let dt = c
            .create_dynamic_table("d", meta, ts(2), "admin", false)
            .unwrap();
        let before = c.snapshot();
        // Suspend/Resume and grants don't move the *binding* generation,
        // but they must still surface in fresh snapshots.
        c.set_dt_state(dt, DtState::Active).unwrap();
        let after_state = c.snapshot();
        assert!(!Arc::ptr_eq(&before, &after_state));
        assert_eq!(
            after_state.get(dt).unwrap().as_dt().unwrap().state,
            DtState::Active
        );
        assert_eq!(
            after_state.binding_generation(),
            before.binding_generation()
        );

        assert!(after_state.check_privilege("analyst", "d", Privilege::Operate).is_err());
        c.grant_on("analyst", "d", Privilege::Operate).unwrap();
        let after_grant = c.snapshot();
        assert!(after_grant.check_privilege("analyst", "d", Privilege::Operate).is_ok());
        // The pre-grant snapshot still answers from its frozen state.
        assert!(after_state.check_privilege("analyst", "d", Privilege::Operate).is_err());
    }

    #[test]
    fn snapshot_precomputes_live_dts() {
        let mut c = Catalog::new();
        c.create_table("base", schema(), ts(1), "admin", false).unwrap();
        assert!(c.snapshot().dynamic_tables().is_empty());
        assert!(!c.snapshot().is_dt(EntityId(99)));
    }
}
