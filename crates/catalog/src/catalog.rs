//! The catalog proper.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use dt_common::{DtError, DtResult, EntityId, Schema, Timestamp};

use crate::ddl_log::{DdlLog, DdlOp};
use crate::entity::{DtState, DynamicTableMeta, Entity, EntityKind};
use crate::privilege::{Privilege, PrivilegeSet};
use crate::snapshot::CatalogSnapshot;

/// The account-wide catalog. Single-writer (the engine serializes DDL
/// through it); readers capture immutable [`CatalogSnapshot`]s via
/// [`Catalog::snapshot`] and never block behind writers.
pub struct Catalog {
    entities: HashMap<EntityId, Entity>,
    /// Live name → id.
    by_name: HashMap<String, EntityId>,
    /// Dropped entities by name, most recent last (for UNDROP).
    dropped_by_name: HashMap<String, Vec<EntityId>>,
    next_id: u64,
    ddl: DdlLog,
    privileges: PrivilegeSet,
    /// Mutation generation: bumped by *every* catalog mutation (DDL, DT
    /// state flips, error counters, grants) — unlike the DDL log's
    /// binding generation, which tracks only binding-relevant changes.
    generation: u64,
    /// The snapshot built at `generation`, handed out until the next
    /// mutation. Interior-mutable so `snapshot(&self)` can fill it lazily.
    snapshot_cache: Mutex<Option<Arc<CatalogSnapshot>>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog {
            entities: HashMap::new(),
            by_name: HashMap::new(),
            dropped_by_name: HashMap::new(),
            next_id: 1,
            ddl: DdlLog::new(),
            privileges: PrivilegeSet::new(),
            generation: 0,
            snapshot_cache: Mutex::new(None),
        }
    }

    fn mint(&mut self) -> EntityId {
        let id = EntityId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Record a mutation: bump the generation and invalidate the cached
    /// snapshot. Every `&mut self` entry point calls this.
    fn touch(&mut self) {
        self.generation += 1;
        *self.snapshot_cache.lock() = None;
    }

    /// The mutation generation (bumped by every catalog change, including
    /// state flips and grants that the binding generation ignores).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Capture an immutable snapshot of the catalog. O(1) between
    /// mutations: the snapshot is rebuilt lazily after a change and the
    /// same `Arc` is handed to every caller until the next change.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        let mut cache = self.snapshot_cache.lock();
        if let Some(snap) = &*cache {
            return Arc::clone(snap);
        }
        let snap = Arc::new(CatalogSnapshot::new(
            self.generation,
            self.ddl.binding_generation(),
            self.entities.clone(),
            self.by_name.clone(),
            self.privileges.clone(),
        ));
        *cache = Some(Arc::clone(&snap));
        snap
    }

    /// Fingerprint of a DT definition against its bound upstream entities:
    /// upstream ids + their schemas (for tables). Any difference at refresh
    /// time means the definition's meaning may have changed → REINITIALIZE.
    pub fn fingerprint(&self, upstream: &[EntityId]) -> u64 {
        let mut h = DefaultHasher::new();
        for id in upstream {
            id.raw().hash(&mut h);
            if let Some(e) = self.entities.get(id) {
                match &e.kind {
                    EntityKind::Table { schema } => {
                        for c in schema.columns() {
                            c.name.hash(&mut h);
                            format!("{}", c.ty).hash(&mut h);
                        }
                    }
                    EntityKind::View { sql } => sql.hash(&mut h),
                    EntityKind::DynamicTable(m) => m.definition_sql.hash(&mut h),
                }
            }
        }
        h.finish()
    }

    fn install(
        &mut self,
        name: &str,
        kind: EntityKind,
        now: Timestamp,
        owner: &str,
        or_replace: bool,
    ) -> DtResult<EntityId> {
        let lname = name.to_ascii_lowercase();
        let replaced = match self.by_name.get(&lname) {
            Some(prev) if or_replace => Some(*prev),
            Some(_) => {
                return Err(DtError::Catalog(format!("entity '{lname}' already exists")))
            }
            None => None,
        };
        // Validation passed: everything below mutates.
        self.touch();
        if let Some(prev) = replaced {
            // Replace = drop previous + create new id under the same name.
            // The id change is visible to downstream DTs as a replaced
            // dependency and forces their reinitialization (§3.3.2).
            if let Some(e) = self.entities.get_mut(&prev) {
                e.dropped_at = Some(now);
            }
            self.dropped_by_name.entry(lname.clone()).or_default().push(prev);
        }
        let id = self.mint();
        self.entities.insert(
            id,
            Entity {
                id,
                name: lname.clone(),
                kind,
                created_at: now,
                dropped_at: None,
                owner: owner.to_string(),
            },
        );
        self.by_name.insert(lname.clone(), id);
        self.privileges.grant(owner, id, Privilege::Ownership);
        let op = match replaced {
            Some(previous) => DdlOp::Replace { previous },
            None => DdlOp::Create,
        };
        self.ddl.append(now, id, lname, op);
        Ok(id)
    }

    /// Create a base table.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        now: Timestamp,
        owner: &str,
        or_replace: bool,
    ) -> DtResult<EntityId> {
        self.install(name, EntityKind::Table { schema }, now, owner, or_replace)
    }

    /// Create a view.
    pub fn create_view(
        &mut self,
        name: &str,
        sql: &str,
        now: Timestamp,
        owner: &str,
        or_replace: bool,
    ) -> DtResult<EntityId> {
        self.install(
            name,
            EntityKind::View {
                sql: sql.to_string(),
            },
            now,
            owner,
            or_replace,
        )
    }

    /// Create a dynamic table. `meta.upstream` must already be bound by the
    /// planner; this method validates acyclicity (§3.1.1: cycles are not
    /// allowed).
    pub fn create_dynamic_table(
        &mut self,
        name: &str,
        mut meta: DynamicTableMeta,
        now: Timestamp,
        owner: &str,
        or_replace: bool,
    ) -> DtResult<EntityId> {
        // Acyclicity: none of the upstream entities may (transitively)
        // depend on an entity with this name. Since the new DT doesn't
        // exist yet, a cycle can only arise through OR REPLACE.
        if or_replace {
            if let Some(prev) = self.by_name.get(&name.to_ascii_lowercase()).copied() {
                let mut stack = meta.upstream.clone();
                let mut seen = BTreeSet::new();
                while let Some(u) = stack.pop() {
                    if u == prev {
                        return Err(DtError::Catalog(format!(
                            "cycle detected: '{name}' would depend on itself"
                        )));
                    }
                    if !seen.insert(u) {
                        continue;
                    }
                    if let Some(e) = self.entities.get(&u) {
                        if let EntityKind::DynamicTable(m) = &e.kind {
                            stack.extend(m.upstream.iter().copied());
                        }
                    }
                }
            }
        }
        meta.definition_fingerprint = self.fingerprint(&meta.upstream);
        meta.state = DtState::Initializing;
        self.install(
            name,
            EntityKind::DynamicTable(Box::new(meta)),
            now,
            owner,
            or_replace,
        )
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

    /// Mutable access by id. Counts as a mutation (the caller holds `&mut
    /// Entity`), but only when the lookup succeeds — a failed lookup must
    /// not invalidate the snapshot cache.
    pub fn get_mut(&mut self, id: EntityId) -> DtResult<&mut Entity> {
        if self.entities.contains_key(&id) {
            self.touch();
        }
        self.entities
            .get_mut(&id)
            .ok_or_else(|| DtError::Catalog(format!("unknown entity {id}")))
    }

    /// Drop an entity by name (retained for UNDROP).
    pub fn drop_entity(&mut self, name: &str, now: Timestamp) -> DtResult<EntityId> {
        let lname = name.to_ascii_lowercase();
        let id = *self
            .by_name
            .get(&lname)
            .ok_or_else(|| DtError::Catalog(format!("unknown entity '{lname}'")))?;
        self.touch();
        self.by_name.remove(&lname);
        if let Some(e) = self.entities.get_mut(&id) {
            e.dropped_at = Some(now);
        }
        self.dropped_by_name.entry(lname.clone()).or_default().push(id);
        self.ddl.append(now, id, lname, DdlOp::Drop);
        Ok(id)
    }

    /// Restore the most recently dropped entity with this name (§3.4: "if
    /// the table is UNDROPped, then refreshes should resume without issue").
    pub fn undrop(&mut self, name: &str, now: Timestamp) -> DtResult<EntityId> {
        let lname = name.to_ascii_lowercase();
        if self.by_name.contains_key(&lname) {
            return Err(DtError::Catalog(format!(
                "cannot UNDROP '{lname}': a live entity with that name exists"
            )));
        }
        let id = self
            .dropped_by_name
            .get_mut(&lname)
            .and_then(|v| v.pop())
            .ok_or_else(|| DtError::Catalog(format!("no dropped entity named '{lname}'")))?;
        self.touch();
        if let Some(e) = self.entities.get_mut(&id) {
            e.dropped_at = None;
        }
        self.by_name.insert(lname.clone(), id);
        self.ddl.append(now, id, lname, DdlOp::Undrop);
        Ok(id)
    }

    /// Set a DT's lifecycle state, logging suspend/resume transitions.
    pub fn set_dt_state(&mut self, id: EntityId, state: DtState, now: Timestamp) -> DtResult<()> {
        let name = self.get(id)?.name.clone();
        let meta = self
            .get_mut(id)?
            .as_dt_mut()
            .ok_or_else(|| DtError::Catalog(format!("'{name}' is not a dynamic table")))?;
        let old = meta.state;
        meta.state = state;
        if state == DtState::Active {
            meta.error_count = 0;
        }
        match (old, state) {
            (DtState::Active, DtState::Suspended | DtState::SuspendedOnErrors) => {
                self.ddl.append(now, id, name, DdlOp::Suspend);
            }
            (DtState::Suspended | DtState::SuspendedOnErrors, DtState::Active) => {
                self.ddl.append(now, id, name, DdlOp::Resume);
            }
            _ => {}
        }
        Ok(())
    }

    /// Record a refresh failure; returns the new consecutive-error count.
    pub fn record_dt_error(&mut self, id: EntityId) -> DtResult<u32> {
        let meta = self
            .get_mut(id)?
            .as_dt_mut()
            .ok_or_else(|| DtError::Catalog("not a dynamic table".into()))?;
        meta.error_count += 1;
        Ok(meta.error_count)
    }

    /// Record a refresh success (resets the consecutive-error counter).
    pub fn record_dt_success(&mut self, id: EntityId) -> DtResult<()> {
        let meta = self
            .get_mut(id)?
            .as_dt_mut()
            .ok_or_else(|| DtError::Catalog("not a dynamic table".into()))?;
        meta.error_count = 0;
        Ok(())
    }

    /// Live DTs, in id order.
    pub fn dynamic_tables(&self) -> Vec<EntityId> {
        let mut ids: Vec<EntityId> = self
            .entities
            .values()
            .filter(|e| e.is_live() && matches!(e.kind, EntityKind::DynamicTable(_)))
            .map(|e| e.id)
            .collect();
        ids.sort();
        ids
    }

    /// Direct upstream dependencies of a DT.
    pub fn upstream_of(&self, id: EntityId) -> Vec<EntityId> {
        self.entities
            .get(&id)
            .and_then(|e| e.as_dt())
            .map(|m| m.upstream.clone())
            .unwrap_or_default()
    }

    /// Live DTs whose upstream set contains `id`.
    pub fn downstream_of(&self, id: EntityId) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .entities
            .values()
            .filter(|e| e.is_live())
            .filter(|e| e.as_dt().map(|m| m.upstream.contains(&id)).unwrap_or(false))
            .map(|e| e.id)
            .collect();
        out.sort();
        out
    }

    /// Topological order (upstream before downstream) of the given DTs,
    /// considering only DT→DT edges.
    pub fn topo_order(&self, ids: &[EntityId]) -> Vec<EntityId> {
        let set: BTreeSet<EntityId> = ids.iter().copied().collect();
        let mut indeg: BTreeMap<EntityId, usize> = set.iter().map(|id| (*id, 0)).collect();
        for id in &set {
            for up in self.upstream_of(*id) {
                if set.contains(&up) {
                    *indeg.get_mut(id).unwrap() += 1;
                }
            }
        }
        let mut ready: Vec<EntityId> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut out = Vec::with_capacity(set.len());
        while let Some(id) = ready.pop() {
            out.push(id);
            for down in self.downstream_of(id) {
                if let Some(d) = indeg.get_mut(&down) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(down);
                    }
                }
            }
        }
        out
    }

    /// The DDL log.
    pub fn ddl_log(&self) -> &DdlLog {
        &self.ddl
    }

    /// The grant table.
    pub fn privileges(&self) -> &PrivilegeSet {
        &self.privileges
    }

    /// Mutable grant table.
    pub fn privileges_mut(&mut self) -> &mut PrivilegeSet {
        self.touch();
        &mut self.privileges
    }

    /// Grant `privilege` on the live entity `name` to `role` (§3.4). The
    /// session layer calls this with the *granting session's* target role;
    /// subsequent privilege checks read whatever role the checking session
    /// carries.
    pub fn grant_on(
        &mut self,
        role: &str,
        name: &str,
        privilege: Privilege,
    ) -> DtResult<()> {
        let id = self.resolve(name)?.id;
        self.touch();
        self.privileges.grant(role, id, privilege);
        Ok(())
    }

    /// Check that `role` holds `privilege` on the live entity `name`.
    pub fn check_privilege(
        &self,
        role: &str,
        name: &str,
        privilege: Privilege,
    ) -> DtResult<()> {
        let e = self.resolve(name)?;
        self.privileges.check(role, e.id, &e.name, privilege)
    }

    /// Encode the complete catalog — entities live and dropped, the
    /// UNDROP stacks, the DDL log, and the grant table — with the
    /// `dt-wal` codec. Used both by checkpoints and by DDL WAL records
    /// (which snapshot the whole post-statement catalog; see
    /// [`crate::durable`]).
    pub fn encode(&self, w: &mut dt_common::codec::Writer) {
        w.put_u64(self.next_id);
        w.put_u64(self.generation);
        let mut entities: Vec<&Entity> = self.entities.values().collect();
        entities.sort_by_key(|e| e.id);
        w.put_len(entities.len());
        for e in entities {
            crate::durable::put_entity(w, e);
        }
        let mut dropped: Vec<(&String, &Vec<EntityId>)> = self.dropped_by_name.iter().collect();
        dropped.sort_by_key(|(name, _)| name.as_str());
        w.put_len(dropped.len());
        for (name, ids) in dropped {
            w.put_str(name);
            w.put_len(ids.len());
            for id in ids {
                w.put_u64(id.raw());
            }
        }
        let events = self.ddl.events_since(0);
        w.put_len(events.len());
        for e in events {
            crate::durable::put_ddl_event(w, e);
        }
        let grants = self.privileges.dump();
        w.put_len(grants.len());
        for (role, entity, privs) in grants {
            w.put_str(&role);
            w.put_u64(entity.raw());
            w.put_len(privs.len());
            for p in privs {
                crate::durable::put_privilege(w, p);
            }
        }
    }

    /// Encode the catalog as a standalone byte blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = dt_common::codec::Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode a catalog encoded by [`Catalog::encode`].
    pub fn decode(r: &mut dt_common::codec::Reader<'_>) -> DtResult<Catalog> {
        let next_id = r.get_u64()?;
        let generation = r.get_u64()?;
        let n = r.get_len(20)?;
        let mut entities = HashMap::with_capacity(n);
        let mut by_name = HashMap::new();
        for _ in 0..n {
            let e = crate::durable::get_entity(r)?;
            if e.id.raw() >= next_id {
                return Err(DtError::Corruption(format!(
                    "catalog image: entity {} not below next_id {next_id}",
                    e.id
                )));
            }
            if e.is_live() && by_name.insert(e.name.clone(), e.id).is_some() {
                return Err(DtError::Corruption(format!(
                    "catalog image: duplicate live name '{}'",
                    e.name
                )));
            }
            entities.insert(e.id, e);
        }
        let n = r.get_len(8)?;
        let mut dropped_by_name = HashMap::with_capacity(n);
        for _ in 0..n {
            let name = r.get_str()?;
            let ids_n = r.get_len(8)?;
            let mut ids = Vec::with_capacity(ids_n);
            for _ in 0..ids_n {
                let id = EntityId(r.get_u64()?);
                if !entities.contains_key(&id) {
                    return Err(DtError::Corruption(format!(
                        "catalog image: UNDROP stack references unknown entity {id}"
                    )));
                }
                ids.push(id);
            }
            dropped_by_name.insert(name, ids);
        }
        let n = r.get_len(22)?;
        let mut ddl = DdlLog::new();
        for _ in 0..n {
            let e = crate::durable::get_ddl_event(r)?;
            let seq = ddl.append(e.ts, e.entity, e.name, e.op);
            if seq != e.seq {
                return Err(DtError::Corruption(format!(
                    "catalog image: DDL event out of order (seq {} at position {seq})",
                    e.seq
                )));
            }
        }
        let n = r.get_len(16)?;
        let mut grants = Vec::with_capacity(n);
        for _ in 0..n {
            let role = r.get_str()?;
            let entity = EntityId(r.get_u64()?);
            let privs_n = r.get_len(1)?;
            let mut privs = Vec::with_capacity(privs_n);
            for _ in 0..privs_n {
                privs.push(crate::durable::get_privilege(r)?);
            }
            grants.push((role, entity, privs));
        }
        Ok(Catalog {
            entities,
            by_name,
            dropped_by_name,
            next_id,
            ddl,
            privileges: PrivilegeSet::restore(grants),
            generation,
            snapshot_cache: Mutex::new(None),
        })
    }

    /// Decode a catalog from a standalone byte blob (strict: trailing
    /// bytes are corruption).
    pub fn from_bytes(bytes: &[u8]) -> DtResult<Catalog> {
        let mut r = dt_common::codec::Reader::new(bytes);
        let c = Catalog::decode(&mut r)?;
        r.finish()?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{RefreshMode, TargetLagSpec};
    use dt_common::{Column, DataType, Duration};

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn schema() -> Schema {
        Schema::new(vec![Column::new("x", DataType::Int)])
    }

    fn dt_meta(upstream: Vec<EntityId>) -> DynamicTableMeta {
        DynamicTableMeta {
            target_lag: TargetLagSpec::Duration(Duration::from_mins(1)),
            warehouse: "wh".into(),
            refresh_mode: RefreshMode::Incremental,
            definition_sql: "select * from t".into(),
            upstream,
            used_columns: BTreeMap::new(),
            state: DtState::Initializing,
            error_count: 0,
            definition_fingerprint: 0,
        }
    }

    #[test]
    fn create_resolve_duplicate() {
        let mut c = Catalog::new();
        let id = c.create_table("T", schema(), ts(1), "admin", false).unwrap();
        assert_eq!(c.resolve("t").unwrap().id, id);
        assert!(c.create_table("t", schema(), ts(2), "admin", false).is_err());
    }

    #[test]
    fn or_replace_mints_new_id_and_logs_replace() {
        let mut c = Catalog::new();
        let id1 = c.create_table("t", schema(), ts(1), "admin", false).unwrap();
        let id2 = c.create_table("t", schema(), ts(2), "admin", true).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(c.resolve("t").unwrap().id, id2);
        let last = c.ddl_log().events_since(0).last().unwrap().clone();
        assert_eq!(last.op, DdlOp::Replace { previous: id1 });
        // The old entity is retained (dropped) for inspection.
        assert!(!c.get(id1).unwrap().is_live());
    }

    #[test]
    fn drop_undrop_roundtrip() {
        let mut c = Catalog::new();
        let id = c.create_table("t", schema(), ts(1), "admin", false).unwrap();
        c.drop_entity("t", ts(2)).unwrap();
        assert!(c.resolve("t").is_err());
        let back = c.undrop("t", ts(3)).unwrap();
        assert_eq!(back, id);
        assert!(c.resolve("t").unwrap().is_live());
    }

    #[test]
    fn undrop_blocked_by_live_name() {
        let mut c = Catalog::new();
        c.create_table("t", schema(), ts(1), "admin", false).unwrap();
        c.drop_entity("t", ts(2)).unwrap();
        c.create_table("t", schema(), ts(3), "admin", false).unwrap();
        assert!(c.undrop("t", ts(4)).is_err());
    }

    #[test]
    fn dt_graph_topology() {
        let mut c = Catalog::new();
        let base = c.create_table("base", schema(), ts(1), "admin", false).unwrap();
        let dt1 = c
            .create_dynamic_table("dt1", dt_meta(vec![base]), ts(2), "admin", false)
            .unwrap();
        let dt2 = c
            .create_dynamic_table("dt2", dt_meta(vec![dt1]), ts(3), "admin", false)
            .unwrap();
        let dt3 = c
            .create_dynamic_table("dt3", dt_meta(vec![dt1, base]), ts(4), "admin", false)
            .unwrap();
        assert_eq!(c.downstream_of(dt1), vec![dt2, dt3]);
        assert_eq!(c.upstream_of(dt2), vec![dt1]);
        let order = c.topo_order(&[dt3, dt2, dt1]);
        let pos = |id| order.iter().position(|x| *x == id).unwrap();
        assert!(pos(dt1) < pos(dt2));
        assert!(pos(dt1) < pos(dt3));
    }

    #[test]
    fn replace_cycle_detection() {
        let mut c = Catalog::new();
        let base = c.create_table("base", schema(), ts(1), "admin", false).unwrap();
        let dt1 = c
            .create_dynamic_table("dt1", dt_meta(vec![base]), ts(2), "admin", false)
            .unwrap();
        let dt2 = c
            .create_dynamic_table("dt2", dt_meta(vec![dt1]), ts(3), "admin", false)
            .unwrap();
        // Replacing dt1 with a definition reading dt2 would create a cycle.
        let err = c
            .create_dynamic_table("dt1", dt_meta(vec![dt2]), ts(4), "admin", true)
            .unwrap_err();
        assert!(matches!(err, DtError::Catalog(_)));
    }

    #[test]
    fn error_counter_and_state() {
        let mut c = Catalog::new();
        let base = c.create_table("base", schema(), ts(1), "admin", false).unwrap();
        let dt = c
            .create_dynamic_table("dt", dt_meta(vec![base]), ts(2), "admin", false)
            .unwrap();
        c.set_dt_state(dt, DtState::Active, ts(3)).unwrap();
        assert_eq!(c.record_dt_error(dt).unwrap(), 1);
        assert_eq!(c.record_dt_error(dt).unwrap(), 2);
        c.record_dt_success(dt).unwrap();
        assert_eq!(c.get(dt).unwrap().as_dt().unwrap().error_count, 0);
        c.set_dt_state(dt, DtState::SuspendedOnErrors, ts(4)).unwrap();
        let last = c.ddl_log().events_since(0).last().unwrap().clone();
        assert_eq!(last.op, DdlOp::Suspend);
    }

    #[test]
    fn fingerprint_changes_when_upstream_replaced() {
        let mut c = Catalog::new();
        let base = c.create_table("base", schema(), ts(1), "admin", false).unwrap();
        let fp1 = c.fingerprint(&[base]);
        let base2 = c.create_table("base", schema(), ts(2), "admin", true).unwrap();
        let fp2 = c.fingerprint(&[base2]);
        assert_ne!(fp1, fp2);
    }

    #[test]
    fn owner_gets_ownership_privilege() {
        let mut c = Catalog::new();
        let id = c.create_table("t", schema(), ts(1), "alice", false).unwrap();
        assert!(c.privileges().has("alice", id, Privilege::Select));
        assert!(!c.privileges().has("bob", id, Privilege::Select));
    }

    #[test]
    fn encode_decode_round_trips_full_catalog() {
        let mut c = Catalog::new();
        let base = c.create_table("base", schema(), ts(1), "admin", false).unwrap();
        let dt = c
            .create_dynamic_table("dt", dt_meta(vec![base]), ts(2), "admin", false)
            .unwrap();
        c.set_dt_state(dt, DtState::Active, ts(3)).unwrap();
        c.record_dt_error(dt).unwrap();
        c.create_view("v", "select x from base", ts(4), "alice", false)
            .unwrap();
        c.create_table("gone", schema(), ts(5), "admin", false).unwrap();
        c.drop_entity("gone", ts(6)).unwrap();
        c.grant_on("analyst", "dt", Privilege::Monitor).unwrap();
        c.create_table("base", schema(), ts(7), "admin", true).unwrap();

        let bytes = c.to_bytes();
        let back = Catalog::from_bytes(&bytes).unwrap();

        assert_eq!(back.generation(), c.generation());
        assert_eq!(back.dynamic_tables(), c.dynamic_tables());
        assert_eq!(back.ddl_log().len(), c.ddl_log().len());
        assert_eq!(
            back.ddl_log().binding_generation(),
            c.ddl_log().binding_generation()
        );
        assert_eq!(back.resolve("dt").unwrap().id, dt);
        let m = back.get(dt).unwrap().as_dt().unwrap();
        assert_eq!(m.state, DtState::Active);
        assert_eq!(m.error_count, 1);
        assert_eq!(m.upstream, vec![base]);
        assert!(back.privileges().has("analyst", dt, Privilege::Monitor));
        assert!(back.privileges().has("alice", back.resolve("v").unwrap().id, Privilege::Select));
        // Dropped entities and their UNDROP stacks survive.
        assert!(back.resolve("gone").is_err());
        let mut back = back;
        let restored = back.undrop("gone", ts(8)).unwrap();
        assert_eq!(restored, c.resolve("base").map(|_| restored).unwrap());
        // The replaced old "base" is retained as dropped.
        assert!(!back.get(base).unwrap().is_live());
        // And new DDL keeps working with non-colliding ids.
        let fresh = back.create_table("fresh", schema(), ts(9), "admin", false).unwrap();
        assert!(c.get(fresh).is_err(), "id {fresh} was never minted in the original");
    }

    #[test]
    fn decode_rejects_corrupt_images() {
        let mut c = Catalog::new();
        c.create_table("t", schema(), ts(1), "admin", false).unwrap();
        let bytes = c.to_bytes();
        // Truncation at any point is corruption, never a panic.
        for cut in 0..bytes.len() {
            assert!(Catalog::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes are rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Catalog::from_bytes(&extended).is_err());
    }
}
