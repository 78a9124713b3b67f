//! Catalog entities.

use std::collections::{BTreeMap, BTreeSet};

use dt_common::{EntityId, Schema, TargetLag, Timestamp};

/// Refresh mode chosen for a DT (§3.3.2). `AUTO` is resolved to one of
/// these at creation time by the planner (incremental iff differentiable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// Recompute the defining query from scratch every refresh.
    Full,
    /// Compute and apply changes since the last refresh.
    Incremental,
}

/// Lifecycle state of a DT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtState {
    /// Created, awaiting initialization.
    Initializing,
    /// Initialized; the scheduler refreshes it to meet its target lag.
    Active,
    /// Suspended by the user.
    Suspended,
    /// Suspended automatically after too many consecutive errors (§3.3.3).
    SuspendedOnErrors,
}

/// Metadata of one dynamic table.
#[derive(Debug, Clone)]
pub struct DynamicTableMeta {
    /// Target lag.
    pub target_lag: TargetLag,
    /// Virtual warehouse used for refreshes.
    pub warehouse: String,
    /// Refresh mode (resolved, never AUTO).
    pub refresh_mode: RefreshMode,
    /// The defining query, as SQL text. (The planner re-binds it on every
    /// refresh, which is how upstream DDL is detected, §5.4.)
    pub definition_sql: String,
    /// Upstream entities read by the defining query.
    pub upstream: Vec<EntityId>,
    /// Columns used from each upstream entity (for query-evolution checks:
    /// a change to an unused column does not force reinitialization, §5.4).
    pub used_columns: BTreeMap<EntityId, BTreeSet<String>>,
    /// Lifecycle state.
    pub state: DtState,
    /// Consecutive refresh failures (§3.3.3). Reset on success or RESUME.
    pub error_count: u32,
    /// Fingerprint of the bound definition (upstream entity ids + schema
    /// hash). A mismatch at refresh time triggers REINITIALIZE (§5.4).
    pub definition_fingerprint: u64,
}

/// What kind of entity a catalog entry is.
#[derive(Debug, Clone)]
pub enum EntityKind {
    /// A base table with a fixed schema.
    Table {
        /// The table schema.
        schema: Schema,
    },
    /// A view: a named query, expanded inline at bind time.
    View {
        /// The defining query text.
        sql: String,
    },
    /// A dynamic table.
    DynamicTable(Box<DynamicTableMeta>),
}

impl EntityKind {
    /// Short label for messages.
    pub fn label(&self) -> &'static str {
        match self {
            EntityKind::Table { .. } => "table",
            EntityKind::View { .. } => "view",
            EntityKind::DynamicTable(_) => "dynamic table",
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Stable id. Replacing an entity (`CREATE OR REPLACE`) mints a new id
    /// under the same name — that id change is what downstream DTs detect
    /// as a replaced dependency (§3.3.2 REINITIALIZE).
    pub id: EntityId,
    /// Name (unique among live entities).
    pub name: String,
    /// What it is.
    pub kind: EntityKind,
    /// Creation time.
    pub created_at: Timestamp,
    /// Drop time, if dropped (retained for UNDROP).
    pub dropped_at: Option<Timestamp>,
    /// Owning role.
    pub owner: String,
}

impl Entity {
    /// True when the entity is live (not dropped).
    pub fn is_live(&self) -> bool {
        self.dropped_at.is_none()
    }

    /// Dynamic-table metadata, if this is a DT.
    pub fn as_dt(&self) -> Option<&DynamicTableMeta> {
        match &self.kind {
            EntityKind::DynamicTable(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable dynamic-table metadata, if this is a DT.
    pub fn as_dt_mut(&mut self) -> Option<&mut DynamicTableMeta> {
        match &mut self.kind {
            EntityKind::DynamicTable(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{Column, DataType};

    #[test]
    fn entity_accessors() {
        let e = Entity {
            id: EntityId(1),
            name: "t".into(),
            kind: EntityKind::Table {
                schema: Schema::new(vec![Column::new("x", DataType::Int)]),
            },
            created_at: Timestamp::EPOCH,
            dropped_at: None,
            owner: "admin".into(),
        };
        assert!(e.is_live());
        assert!(e.as_dt().is_none());
        assert_eq!(e.kind.label(), "table");
    }
}
