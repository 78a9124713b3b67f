//! The DDL log.
//!
//! §5.1: "The catalog generates a timestamped, linearizable log of DDL
//! operations to all DTs and related entities. This DDL log is consumed by
//! a job in the scheduler that renders the dependency graph of DTs and
//! issues refresh commands." Every catalog mutation appends an event, and
//! the events travel in every catalog image ([`crate::Catalog::encode`]).
//! The scheduler does not replay them: the engine renders the DT graph
//! from the catalog itself (`dt_scheduler::DtGraph`), rebinding the
//! definitions after each event that changes what a name binds to — the
//! events [`DdlLog::binding_generation`] counts.

use dt_common::{EntityId, Timestamp};

/// Kinds of DDL operation recorded in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdlOp {
    /// Entity created.
    Create,
    /// Entity replaced (`CREATE OR REPLACE`): `previous` is the replaced id.
    Replace {
        /// The entity id this one replaced.
        previous: EntityId,
    },
    /// Entity dropped.
    Drop,
    /// Entity restored by UNDROP.
    Undrop,
    /// DT suspended (by user or error policy).
    Suspend,
    /// DT resumed.
    Resume,
}

/// One DDL log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdlEvent {
    /// Position in the log (dense, starting at 0) — the linearization order.
    pub seq: u64,
    /// When the operation happened.
    pub ts: Timestamp,
    /// The entity operated on.
    pub entity: EntityId,
    /// Entity name at the time of the operation.
    pub name: String,
    /// The operation.
    pub op: DdlOp,
}

/// Append-only DDL log.
#[derive(Debug, Default)]
pub struct DdlLog {
    events: Vec<DdlEvent>,
    /// Events that change what names bind to (Create/Replace/Drop/Undrop —
    /// not Suspend/Resume). Prepared-statement caches key on this.
    binding_ops: u64,
}

impl DdlLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event; the log assigns the sequence number.
    pub fn append(&mut self, ts: Timestamp, entity: EntityId, name: String, op: DdlOp) -> u64 {
        let seq = self.events.len() as u64;
        if matches!(
            op,
            DdlOp::Create | DdlOp::Replace { .. } | DdlOp::Drop | DdlOp::Undrop
        ) {
            self.binding_ops += 1;
        }
        self.events.push(DdlEvent {
            seq,
            ts,
            entity,
            name,
            op,
        });
        seq
    }

    /// Count of binding-relevant events (Create/Replace/Drop/Undrop).
    /// Suspend/Resume don't change what a bound plan reads, so cached
    /// plans key their validity on this counter rather than [`DdlLog::len`].
    pub fn binding_generation(&self) -> u64 {
        self.binding_ops
    }

    /// Events with `seq >= from`, in order. [`crate::Catalog::encode`]
    /// reads them all to write the catalog image.
    pub fn events_since(&self, from: u64) -> &[DdlEvent] {
        let start = (from as usize).min(self.events.len());
        &self.events[start..]
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no DDL has happened yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_append_only_and_ordered() {
        let mut log = DdlLog::new();
        let s0 = log.append(Timestamp::from_secs(1), EntityId(1), "a".into(), DdlOp::Create);
        let s1 = log.append(Timestamp::from_secs(2), EntityId(1), "a".into(), DdlOp::Drop);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(log.events_since(0).len(), 2);
        assert_eq!(log.events_since(1).len(), 1);
        assert_eq!(log.events_since(5).len(), 0);
        assert_eq!(log.events_since(1)[0].op, DdlOp::Drop);
    }
}
