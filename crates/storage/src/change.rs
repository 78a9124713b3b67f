//! Change sets: the multiset difference between two table versions.

use std::collections::HashMap;

use dt_common::Row;

/// One row-level change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowDelta {
    /// The row was inserted.
    Insert(Row),
    /// The row was deleted.
    Delete(Row),
}

impl RowDelta {
    /// The row payload regardless of direction.
    pub fn row(&self) -> &Row {
        match self {
            RowDelta::Insert(r) | RowDelta::Delete(r) => r,
        }
    }

    /// +1 for insert, -1 for delete (the commutative-group view of changes
    /// used by DBSP-style IVM, which our differentiation rules follow).
    pub fn weight(&self) -> i64 {
        match self {
            RowDelta::Insert(_) => 1,
            RowDelta::Delete(_) => -1,
        }
    }
}

/// A multiset of inserted and deleted rows between two versions of a table
/// (or of a query result). Internally kept as rows with signed weights so
/// consolidation is a single pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    inserts: Vec<Row>,
    deletes: Vec<Row>,
}

impl ChangeSet {
    /// An empty change set.
    pub fn empty() -> Self {
        ChangeSet::default()
    }

    /// Build from insert and delete row multisets.
    pub fn new(inserts: Vec<Row>, deletes: Vec<Row>) -> Self {
        ChangeSet { inserts, deletes }
    }

    /// Inserted rows.
    pub fn inserts(&self) -> &[Row] {
        &self.inserts
    }

    /// Deleted rows.
    pub fn deletes(&self) -> &[Row] {
        &self.deletes
    }

    /// Add an insert.
    pub fn push_insert(&mut self, r: Row) {
        self.inserts.push(r);
    }

    /// Add a delete.
    pub fn push_delete(&mut self, r: Row) {
        self.deletes.push(r);
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of change rows (inserts + deletes) — the metric the
    /// paper uses for "output changed rows" in §6.3.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Merge another change set into this one (interval composition: the
    /// changes over `[a,b]` followed by `[b,c]` compose to `[a,c]`, which is how
    /// a refresh following a *skip* covers the skipped interval, §3.3.3).
    pub fn extend(&mut self, other: ChangeSet) {
        self.inserts.extend(other.inserts);
        self.deletes.extend(other.deletes);
    }

    /// Cancel matching insert/delete pairs (the read-amplification
    /// elimination of §5.5.2): a row that was deleted and re-inserted
    /// verbatim — e.g. because copy-on-write rewrote its partition — is not
    /// a logical change. Returns the consolidated set, in which any given
    /// row appears only as net inserts or net deletes.
    pub fn consolidate(self) -> ChangeSet {
        ChangeSet::consolidated(&self.inserts, &self.deletes)
    }

    /// The consolidated change set of `inserts` and `deletes`, read in
    /// place: only the rows that survive the cancellation are cloned —
    /// what lets a change scan over rewritten partitions pay for the rows
    /// that changed, not for the ones copy-on-write carried along.
    pub fn consolidated<'a>(
        inserts: impl IntoIterator<Item = &'a Row>,
        deletes: impl IntoIterator<Item = &'a Row>,
    ) -> ChangeSet {
        let mut weights: HashMap<&Row, i64> = HashMap::new();
        for r in inserts {
            *weights.entry(r).or_insert(0) += 1;
        }
        for r in deletes {
            *weights.entry(r).or_insert(0) -= 1;
        }
        // Deterministic output order for tests: sort by row.
        let mut entries: Vec<(&Row, i64)> = weights.into_iter().filter(|(_, w)| *w != 0).collect();
        entries.sort_unstable();
        let mut out = ChangeSet::empty();
        for (row, w) in entries {
            let side = if w > 0 { &mut out.inserts } else { &mut out.deletes };
            side.extend(std::iter::repeat_n(row, w.unsigned_abs() as usize).cloned());
        }
        out
    }

    /// Iterate as signed deltas.
    pub fn deltas(&self) -> impl Iterator<Item = RowDelta> + '_ {
        self.deletes
            .iter()
            .map(|r| RowDelta::Delete(r.clone()))
            .chain(self.inserts.iter().map(|r| RowDelta::Insert(r.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;

    #[test]
    fn consolidation_cancels_copies() {
        let cs = ChangeSet::new(
            vec![row!(1i64), row!(2i64), row!(2i64)],
            vec![row!(1i64), row!(2i64), row!(3i64)],
        );
        let c = cs.consolidate();
        assert_eq!(c.inserts(), &[row!(2i64)]);
        assert_eq!(c.deletes(), &[row!(3i64)]);
    }

    #[test]
    fn consolidation_preserves_multiplicity() {
        let cs = ChangeSet::new(vec![row!(5i64), row!(5i64), row!(5i64)], vec![row!(5i64)]);
        let c = cs.consolidate();
        assert_eq!(c.inserts().len(), 2);
        assert!(c.deletes().is_empty());
    }

    #[test]
    fn extend_composes_intervals() {
        let mut a = ChangeSet::new(vec![row!(1i64)], vec![]);
        let b = ChangeSet::new(vec![row!(2i64)], vec![row!(1i64)]);
        a.extend(b);
        let c = a.consolidate();
        assert_eq!(c.inserts(), &[row!(2i64)]);
        assert!(c.deletes().is_empty());
    }

    #[test]
    fn weights() {
        assert_eq!(RowDelta::Insert(row!(1i64)).weight(), 1);
        assert_eq!(RowDelta::Delete(row!(1i64)).weight(), -1);
    }

    #[test]
    fn empty_and_len() {
        let mut cs = ChangeSet::empty();
        assert!(cs.is_empty());
        cs.push_insert(row!(9i64));
        cs.push_delete(row!(8i64));
        assert_eq!(cs.len(), 2);
        assert!(!cs.is_empty());
    }
}
