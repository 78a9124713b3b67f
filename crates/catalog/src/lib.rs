//! The catalog: named entities, dependencies, and privileges.
//!
//! Reproduces the catalog-side machinery of §5.1 and §3.4:
//!
//! * **Entities** — base tables, views, and dynamic tables, resolvable by
//!   name, with drop/undrop (dropped entities are retained so `UNDROP`
//!   restores them and downstream DTs recover automatically, §3.4).
//! * **Dependencies** — each DT records the entities and the specific
//!   columns its stored contents were computed from (§5.4), used for
//!   query-evolution detection. The refresh DAG is rendered from what the
//!   definitions bind to now, not from this record.
//! * **Privileges** — role-based access control with the DT-specific
//!   MONITOR and OPERATE privileges (§3.4).

pub mod catalog;
pub mod durable;
pub mod entity;
pub mod privilege;
pub mod snapshot;

pub use catalog::Catalog;
pub use entity::{DtState, DynamicTableMeta, Entity, EntityKind, RefreshMode};
pub use privilege::{Privilege, PrivilegeSet, Role};
pub use snapshot::CatalogSnapshot;
