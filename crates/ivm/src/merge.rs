//! `$ROW_ID` / `$ACTION` assignment and the merge step.
//!
//! §5.5: "Incremental DTs define a unique ID for every row in the query
//! result, and store those IDs alongside the data. [...] These changes are
//! a set of rows with the same columns as Q, plus 2 additional metadata
//! columns. The $ACTION column indicates whether a row represents an
//! insertion or a deletion. [...] The $ROW_ID column provides the
//! identifier of the row to be modified."
//!
//! Row ids are content hashes with an *occurrence index* so duplicate rows
//! in a bag each get a distinct id, plus a plaintext prefix (§5.5.2: the
//! production system uses plaintext prefixes to improve runtime pruning on
//! row-id joins; we reproduce the format).
//!
//! The merge enforces the two production validations of §6.1:
//!
//! 1. never more than one row per `($ROW_ID, $ACTION)` pair, and
//! 2. never a delete of a row that does not exist.
//!
//! Both fail the refresh rather than corrupt the table.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::hash::{Hash, Hasher};

use dt_common::{DtResult, DtError, Row, Value};
use dt_plan::ScalarExpr;
use dt_storage::{ChangeSet, RowLookup};

/// The action of a change row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeAction {
    /// `$ACTION = INSERT`.
    Insert,
    /// `$ACTION = DELETE`.
    Delete,
}

/// One row of the differentiated result: payload plus metadata columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRow {
    /// `$ACTION`.
    pub action: MergeAction,
    /// `$ROW_ID`.
    pub row_id: String,
    /// The payload columns.
    pub row: Row,
}

/// Hash of a row's content (stable across refreshes).
fn content_hash(row: &Row) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// Build the row id for the `occurrence`-th copy of `row`. The plaintext
/// prefix carries the low bits of the hash for pruning-friendly sorting.
pub fn make_row_id(row: &Row, occurrence: usize) -> String {
    row_id_of(content_hash(row), occurrence)
}

/// `{:04x}-{:016x}-{}` of the hash's low 16 bits, the hash and the
/// occurrence, digit by digit: an id is minted per probe of the merge, and
/// `format!`'s padded hex was a sixth of a probe.
fn row_id_of(content_hash: u64, occurrence: usize) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut id = String::with_capacity(24);
    let mut hex = |value: u64, digits: u32| {
        for shift in (0..digits).rev() {
            id.push(HEX[(value >> (4 * shift)) as usize & 0xf] as char);
        }
        id.push('-');
    };
    hex(content_hash & 0xffff, 4);
    hex(content_hash, 16);
    write!(id, "{occurrence}").expect("writing to a String");
    id
}

/// Prefix every row of a full query result with a fresh `$ROW_ID` — the
/// stored form of a DT (id column first, then the payload), as written by
/// initialization and FULL refreshes.
pub fn with_initial_row_ids(rows: Vec<Row>) -> Vec<Row> {
    let mut occ: HashMap<u64, usize> = HashMap::new();
    rows.into_iter()
        .map(|r| {
            let n = occ.entry(content_hash(&r)).or_insert(0);
            let id = make_row_id(&r, *n);
            *n += 1;
            stored_row(id, &r)
        })
        .collect()
}

/// The stored form of a payload row: `$ROW_ID` first, then the payload.
fn stored_row(row_id: String, payload: &Row) -> Row {
    let mut vals = Vec::with_capacity(payload.len() + 1);
    vals.push(Value::Str(row_id));
    vals.extend_from_slice(payload.values());
    Row::new(vals)
}

impl ChangeRow {
    /// This change as a row of DT storage (`$ROW_ID` first).
    pub fn into_stored_row(self) -> Row {
        stored_row(self.row_id, &self.row)
    }
}

/// A DT's stored rows (`$ROW_ID` first, then the payload), looked up by
/// value. The merge reads them through this and nothing else.
pub trait StoredRows {
    /// How many stored rows carry `row_id` and `payload`, every column.
    fn copies(&self, row_id: &Value, payload: &Row) -> usize;
}

impl StoredRows for RowLookup<'_> {
    fn copies(&self, row_id: &Value, payload: &Row) -> usize {
        RowLookup::copies(self, std::iter::once(row_id).chain(payload.values()))
    }
}

/// The stored copies of one payload the delta names, and how many of them
/// (and of the ids minted after them) this merge has used up.
#[derive(Default)]
struct Occurrences {
    /// The payload's [`content_hash`].
    hash: u64,
    /// `$ROW_ID`s of the stored copies, in scan order.
    ids: Vec<Value>,
    claimed: usize,
    minted: usize,
}

impl Occurrences {
    /// Find the stored copies of `payload`. They carry the occurrence
    /// indices 0, 1, 2 … in scan order — initialization numbers them so,
    /// deletes claim from the back and inserts append — so the ids are
    /// probed in that order until one is absent. A stored id held by
    /// several rows (a corrupt table) is listed once per row, which the
    /// §6.1 check on the change rows then refuses.
    fn probe(stored: &impl StoredRows, payload: &Row) -> Occurrences {
        let hash = content_hash(payload);
        let mut ids = Vec::new();
        for occurrence in 0.. {
            let id = Value::Str(row_id_of(hash, occurrence));
            let copies = stored.copies(&id, payload);
            if copies == 0 {
                break;
            }
            ids.extend(std::iter::repeat_n(id, copies));
        }
        Occurrences {
            hash,
            ids,
            ..Occurrences::default()
        }
    }
}

/// Assign `$ROW_ID`s to a consolidated change set against the DT's stored
/// rows: deletes claim the ids of existing copies of their payload;
/// inserts mint ids at the next free occurrence index. The stored rows are
/// never walked: each payload the delta names costs one lookup per stored
/// copy of it, plus one. Fails with the §6.1 invariant errors when a
/// delete cannot be matched or two change rows share a
/// `($ROW_ID, $ACTION)` pair.
pub fn assign_change_rows(
    stored: &impl StoredRows,
    delta: &ChangeSet,
) -> DtResult<Vec<ChangeRow>> {
    let mut by_content: HashMap<&[Value], Occurrences> = HashMap::new();
    for r in delta.inserts().iter().chain(delta.deletes()) {
        if let Entry::Vacant(e) = by_content.entry(r.values()) {
            e.insert(Occurrences::probe(stored, r));
        }
    }
    let mut out = Vec::with_capacity(delta.len());
    // Deletes claim ids from the back (highest occurrence first keeps the
    // lowest-occurrence ids stable across refreshes).
    for d in delta.deletes() {
        let occ = by_content
            .get_mut(d.values())
            .expect("seeded from the delta");
        if occ.claimed >= occ.ids.len() {
            return Err(DtError::IvmInvariant(format!(
                "delete of nonexistent row {d}"
            )));
        }
        occ.claimed += 1;
        out.push(ChangeRow {
            action: MergeAction::Delete,
            row_id: occ.ids[occ.ids.len() - occ.claimed].expect_str()?.to_owned(),
            row: d.clone(),
        });
    }
    // Inserts mint fresh occurrence indices: existing copies − claimed
    // deletes + already-minted inserts of the same content, so slots freed
    // by this merge's deletes are reused first.
    for i in delta.inserts() {
        let occ = by_content
            .get_mut(i.values())
            .expect("seeded from the delta");
        let occurrence = occ.ids.len() - occ.claimed + occ.minted;
        occ.minted += 1;
        out.push(ChangeRow {
            action: MergeAction::Insert,
            row_id: row_id_of(occ.hash, occurrence),
            row: i.clone(),
        });
    }
    check_unique_actions(&out)?;
    Ok(out)
}

/// §6.1 validation: never more than one change row per
/// `($ROW_ID, $ACTION)` pair.
fn check_unique_actions(changes: &[ChangeRow]) -> DtResult<()> {
    let mut seen = HashSet::with_capacity(changes.len());
    for c in changes {
        if !seen.insert((c.row_id.as_str(), c.action)) {
            return Err(DtError::IvmInvariant(format!(
                "duplicate ($ROW_ID, $ACTION) pair: ({}, {:?})",
                c.row_id, c.action
            )));
        }
    }
    Ok(())
}

/// Apply a projection to both sides of a change set (the Δ rule for π).
pub fn project_delta(d: &ChangeSet, exprs: &[ScalarExpr]) -> DtResult<ChangeSet> {
    let apply = |rows: &[Row]| -> DtResult<Vec<Row>> {
        let mut out = Vec::with_capacity(rows.len());
        for r in rows {
            let mut vals = Vec::with_capacity(exprs.len());
            for e in exprs {
                vals.push(e.eval(r)?);
            }
            out.push(Row::new(vals));
        }
        Ok(out)
    };
    Ok(ChangeSet::new(apply(d.inserts())?, apply(d.deletes())?))
}

/// True when a plan is *insert-only safe*: if all source changes are pure
/// inserts, the differentiated output is also pure inserts with no
/// duplicate content collisions requiring consolidation (§5.5.2's
/// insert-only specialization). Holds for scan/filter/project/union-all/
/// inner-join compositions.
pub fn is_insert_only_safe(plan: &dt_plan::LogicalPlan) -> bool {
    use dt_plan::LogicalPlan as P;
    let mut ok = true;
    plan.walk(&mut |p| match p {
        P::TableScan { .. }
        | P::SingleRow
        | P::Filter { .. }
        | P::Project { .. }
        | P::UnionAll { .. } => {}
        P::Join { join_type, .. } if *join_type == dt_plan::JoinType::Inner => {}
        _ => ok = false,
    });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;

    /// A DT held in a `Vec`, for the merge's own tests.
    impl StoredRows for Vec<Row> {
        fn copies(&self, row_id: &Value, payload: &Row) -> usize {
            self.iter()
                .filter(|r| r.values().split_first() == Some((row_id, payload.values())))
                .count()
        }
    }

    /// The stored copies of one payload the delta names, as the walk below
    /// finds them.
    #[derive(Default)]
    struct WalkedOccurrences<'a> {
        /// `$ROW_ID`s of the stored copies, in scan order.
        ids: Vec<&'a str>,
        claimed: usize,
        minted: usize,
    }

    /// The implementation [`assign_change_rows`] replaced, kept as its
    /// oracle: it walks every stored row once, one hash probe each, against
    /// an index of the payloads the delta names.
    fn assign_change_rows_by_walk<'a>(
        stored: impl IntoIterator<Item = &'a Row>,
        delta: &'a ChangeSet,
    ) -> DtResult<Vec<ChangeRow>> {
        let mut by_content: HashMap<&[Value], WalkedOccurrences<'a>> = delta
            .inserts()
            .iter()
            .chain(delta.deletes())
            .map(|r| (r.values(), WalkedOccurrences::default()))
            .collect();
        for r in stored {
            let (id, payload) = r
                .values()
                .split_first()
                .ok_or_else(|| DtError::internal("stored DT row without a $ROW_ID column"))?;
            if let Some(occ) = by_content.get_mut(payload) {
                occ.ids.push(id.expect_str()?);
            }
        }
        let mut out = Vec::with_capacity(delta.len());
        // Deletes claim ids from the back (highest occurrence first keeps the
        // lowest-occurrence ids stable across refreshes).
        for d in delta.deletes() {
            let occ = by_content
                .get_mut(d.values())
                .expect("seeded from the delta");
            if occ.claimed >= occ.ids.len() {
                return Err(DtError::IvmInvariant(format!(
                    "delete of nonexistent row {d}"
                )));
            }
            occ.claimed += 1;
            out.push(ChangeRow {
                action: MergeAction::Delete,
                row_id: occ.ids[occ.ids.len() - occ.claimed].to_string(),
                row: d.clone(),
            });
        }
        // Inserts mint fresh occurrence indices: existing copies − claimed
        // deletes + already-minted inserts of the same content, so slots freed
        // by this merge's deletes are reused first.
        for i in delta.inserts() {
            let occ = by_content
                .get_mut(i.values())
                .expect("seeded from the delta");
            let occurrence = occ.ids.len() - occ.claimed + occ.minted;
            occ.minted += 1;
            out.push(ChangeRow {
                action: MergeAction::Insert,
                row_id: make_row_id(i, occurrence),
                row: i.clone(),
            });
        }
        check_unique_actions(&out)?;
        Ok(out)
    }


    /// Apply assigned change rows to stored rows the way the storage
    /// install does: deletes remove the exact stored row, inserts append.
    fn apply(stored: &mut Vec<Row>, changes: Vec<ChangeRow>) {
        for c in changes {
            let action = c.action;
            let row = c.into_stored_row();
            match action {
                MergeAction::Delete => {
                    let pos = stored.iter().position(|r| *r == row);
                    stored.remove(pos.expect("delete names a stored row"));
                }
                MergeAction::Insert => stored.push(row),
            }
        }
    }

    fn ids(stored: &[Row]) -> Vec<&str> {
        stored
            .iter()
            .map(|r| r.get(0).expect_str().unwrap())
            .collect()
    }

    fn payloads(stored: &[Row]) -> Vec<Row> {
        let mut p: Vec<Row> = stored
            .iter()
            .map(|r| Row::new(r.values()[1..].to_vec()))
            .collect();
        p.sort();
        p
    }

    #[test]
    fn initialize_assigns_distinct_ids_to_duplicates() {
        let s = with_initial_row_ids(vec![row!(1i64), row!(1i64), row!(2i64)]);
        let distinct: HashSet<_> = ids(&s).into_iter().collect();
        assert_eq!(distinct.len(), 3);
        assert_eq!(payloads(&s), vec![row!(1i64), row!(1i64), row!(2i64)]);
    }

    #[test]
    fn row_ids_are_stable_and_prefixed() {
        let a = make_row_id(&row!(1i64, "x"), 0);
        let b = make_row_id(&row!(1i64, "x"), 0);
        assert_eq!(a, b);
        // prefix-hash-occurrence format.
        assert_eq!(a.split('-').count(), 3);
        assert_ne!(a, make_row_id(&row!(1i64, "x"), 1));
    }

    #[test]
    fn row_ids_are_spelled_as_padded_hex_and_decimal() {
        for hash in [0, 1, 0xabc, 0xf692_beba_65b0_0e27, u64::MAX] {
            for occurrence in [0, 9, 10, 12_345] {
                let want = format!("{:04x}-{:016x}-{}", hash & 0xffff, hash, occurrence);
                assert_eq!(row_id_of(hash, occurrence), want);
            }
        }
    }

    #[test]
    fn assign_update_delete_insert_roundtrip() {
        let mut s = with_initial_row_ids(vec![row!(1i64), row!(2i64)]);
        let delta = ChangeSet::new(vec![row!(3i64)], vec![row!(2i64)]);
        let changes = assign_change_rows(&s, &delta).unwrap();
        apply(&mut s, changes);
        assert_eq!(payloads(&s), vec![row!(1i64), row!(3i64)]);
    }

    #[test]
    fn delete_of_missing_row_is_invariant_violation() {
        let s = with_initial_row_ids(vec![row!(1i64)]);
        let delta = ChangeSet::new(vec![], vec![row!(99i64)]);
        let err = assign_change_rows(&s, &delta).unwrap_err();
        assert!(matches!(err, DtError::IvmInvariant(_)));
    }

    #[test]
    fn deleting_more_copies_than_stored_fails() {
        let s = with_initial_row_ids(vec![row!(1i64)]);
        let delta = ChangeSet::new(vec![], vec![row!(1i64), row!(1i64)]);
        let err = assign_change_rows(&s, &delta).unwrap_err();
        assert!(matches!(err, DtError::IvmInvariant(_)));
    }

    #[test]
    fn duplicate_row_id_action_rejected() {
        let c = ChangeRow {
            action: MergeAction::Insert,
            row_id: "x".into(),
            row: row!(1i64),
        };
        let delete = ChangeRow {
            action: MergeAction::Delete,
            ..c.clone()
        };
        // An update is a delete + insert of one id; that is not a duplicate.
        check_unique_actions(&[c.clone(), delete]).unwrap();
        let err = check_unique_actions(&[c.clone(), c]).unwrap_err();
        assert!(matches!(err, DtError::IvmInvariant(_)));
    }

    #[test]
    fn stored_rows_sharing_an_id_fail_the_merge() {
        // Two stored copies of one payload under one id (a corrupt table):
        // deleting both would emit the pair (id, DELETE) twice.
        let mut s = with_initial_row_ids(vec![row!(1i64)]);
        s.push(s[0].clone());
        let delta = ChangeSet::new(vec![], vec![row!(1i64), row!(1i64)]);
        let err = assign_change_rows(&s, &delta).unwrap_err();
        assert!(matches!(err, DtError::IvmInvariant(_)));
    }

    #[test]
    fn duplicate_content_inserts_get_distinct_ids() {
        let s = with_initial_row_ids(vec![row!(7i64)]);
        let delta = ChangeSet::new(vec![row!(7i64), row!(7i64)], vec![]);
        let changes = assign_change_rows(&s, &delta).unwrap();
        let minted: HashSet<_> = changes.iter().map(|c| c.row_id.as_str()).collect();
        assert_eq!(minted.len(), 2);
        // And they don't collide with the stored copy's id.
        assert!(!minted.contains(ids(&s)[0]));
    }

    #[test]
    fn delete_then_reinsert_same_content_reuses_freed_slot() {
        let mut s = with_initial_row_ids(vec![row!(5i64), row!(5i64)]);
        let before: HashSet<String> = ids(&s).into_iter().map(String::from).collect();
        // Update-like churn: delete one copy, insert one copy.
        let delta = ChangeSet::new(vec![row!(5i64)], vec![row!(5i64)]);
        let changes = assign_change_rows(&s, &delta).unwrap();
        assert_eq!(changes[0].row_id, changes[1].row_id);
        apply(&mut s, changes);
        let after: HashSet<String> = ids(&s).into_iter().map(String::from).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn only_payloads_the_delta_names_are_matched() {
        // Stored rows the delta does not name never enter the index; a
        // delete of a payload that merely resembles one still fails.
        let s = with_initial_row_ids((0..100i64).map(|i| row!(i, i % 3)).collect());
        let delta = ChangeSet::new(vec![row!(100i64, 1i64)], vec![row!(7i64, 1i64)]);
        let changes = assign_change_rows(&s, &delta).unwrap();
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].row_id, ids(&s)[7]);
        let bad = ChangeSet::new(vec![], vec![row!(7i64, 2i64)]);
        assert!(assign_change_rows(&s, &bad).is_err());
    }

    /// The ids this merge assigns on a fixed bag with duplicates are the
    /// ones the whole-table-index implementation it replaced assigned
    /// (values printed by that implementation), so stored `$ROW_ID`s do
    /// not churn across the upgrade.
    #[test]
    fn assigned_ids_match_the_previous_implementation() {
        const A: &str = "0e27-f692beba65b00e27";
        const B: &str = "22b4-f7d77f7059d822b4";
        const C: &str = "1db0-453a3cc402fc1db0";
        const D: &str = "84f8-8d2cdc77a78684f8";
        let (a, b, c, d) = (
            row!(1i64, "a"),
            row!(2i64, "b"),
            row!(3i64, "c"),
            row!(4i64, "d"),
        );
        let s = with_initial_row_ids(vec![
            a.clone(),
            a.clone(),
            b.clone(),
            a.clone(),
            c.clone(),
            b.clone(),
        ]);
        let id = |h: &str, n: usize| format!("{h}-{n}");
        assert_eq!(
            ids(&s),
            [id(A, 0), id(A, 1), id(B, 0), id(A, 2), id(C, 0), id(B, 1)]
        );
        let delta = ChangeSet::new(
            vec![a.clone(), a.clone(), d.clone(), d.clone(), b.clone()],
            vec![a.clone(), c.clone(), b.clone(), b.clone()],
        );
        let got: Vec<(MergeAction, String, Row)> = assign_change_rows(&s, &delta)
            .unwrap()
            .into_iter()
            .map(|c| (c.action, c.row_id, c.row))
            .collect();
        use MergeAction::{Delete, Insert};
        assert_eq!(
            got,
            vec![
                (Delete, id(A, 2), a.clone()),
                (Delete, id(C, 0), c),
                (Delete, id(B, 1), b.clone()),
                (Delete, id(B, 0), b.clone()),
                (Insert, id(A, 2), a.clone()),
                (Insert, id(A, 3), a),
                (Insert, id(D, 0), d.clone()),
                (Insert, id(D, 1), d),
                (Insert, id(B, 0), b),
            ]
        );
    }

    #[test]
    fn insert_only_safety_detection() {
        use dt_plan::LogicalPlan as P;
        use std::sync::Arc;
        let scan = P::TableScan {
            entity: dt_common::EntityId(1),
            name: "t".into(),
            schema: Arc::new(dt_common::Schema::empty()),
            pushdown: None,
        };
        assert!(is_insert_only_safe(&scan));
        let agg = P::Distinct {
            input: Box::new(scan.clone()),
        };
        assert!(!is_insert_only_safe(&agg));
    }
    mod oracle {
        use super::*;
        use dt_common::{Column, DataType, Schema, Timestamp, TxnId};
        use dt_storage::TableStore;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// An incremental merge: delete the payloads stored at these
            /// positions (mod the DT size), insert these.
            Merge(Vec<usize>, Vec<(i64, i64)>),
            /// Delete one more copy of a payload than the DT holds.
            DeleteTooMany(usize),
            /// A FULL refresh: new contents, fresh ids.
            Full(Vec<(i64, i64)>),
            Recluster,
            /// Corrupt the DT — store a second row under an id in use —
            /// and delete every copy of that payload.
            ShareAnId(usize),
        }

        fn payloads_strategy(max: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
            prop::collection::vec((0..3i64, 0..2i64), 0..max)
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            let merge = || {
                (prop::collection::vec(0..1000usize, 0..5), payloads_strategy(5))
                    .prop_map(|(at, ins)| Op::Merge(at, ins))
            };
            prop_oneof![
                merge(),
                merge(),
                merge(),
                merge(),
                (0..1000usize).prop_map(Op::DeleteTooMany),
                payloads_strategy(8).prop_map(Op::Full),
                Just(Op::Recluster),
                (0..1000usize).prop_map(Op::ShareAnId),
            ]
        }

        fn payloads(vals: &[(i64, i64)]) -> Vec<Row> {
            vals.iter().map(|(a, b)| row!(*a, *b)).collect()
        }

        fn payload_of(stored: &Row) -> Row {
            Row::new(stored.values()[1..].to_vec())
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

            /// Random refresh histories of a DT full of duplicate payloads,
            /// in partitions of 1–8 rows: probing the store's row index
            /// assigns the change rows — ids, actions, order — the walk
            /// over every stored row assigned, and refuses the same deltas
            /// with the same §6.1 error.
            #[test]
            fn probing_the_index_assigns_the_ids_the_walk_did(
                initial in payloads_strategy(10),
                ops in prop::collection::vec(op_strategy(), 1..25),
                capacity in 1..9usize,
            ) {
                let store = TableStore::with_partition_capacity(
                    Schema::new(vec![
                        Column::new("$ROW_ID", DataType::Str),
                        Column::new("a", DataType::Int),
                        Column::new("b", DataType::Int),
                    ]),
                    Timestamp::EPOCH,
                    TxnId(0),
                    capacity,
                );
                let at = |i: usize| Timestamp::from_secs(i as i64 + 1);
                store
                    .overwrite(with_initial_row_ids(payloads(&initial)), at(0), TxnId(1))
                    .unwrap();
                for (i, op) in ops.iter().enumerate() {
                    let (at, txn) = (at(i + 1), TxnId(i as u64 + 2));
                    let base = store.latest_version();
                    let stored = store.scan(base).unwrap();
                    let pick = |p: &usize| payload_of(&stored[p % stored.len()]);
                    let delta = match op {
                        Op::Merge(picks, ins) => {
                            let mut slots: Vec<usize> = picks
                                .iter()
                                .filter(|_| !stored.is_empty())
                                .map(|p| p % stored.len())
                                .collect();
                            slots.sort_unstable();
                            slots.dedup();
                            let doomed = slots.iter().map(pick).collect();
                            ChangeSet::new(payloads(ins), doomed)
                        }
                        Op::DeleteTooMany(p) if !stored.is_empty() => {
                            let held = stored.iter().filter(|r| payload_of(r) == pick(p)).count();
                            ChangeSet::new(vec![], vec![pick(p); held + 1])
                        }
                        Op::ShareAnId(p) if !stored.is_empty() => {
                            let twin = stored[p % stored.len()].clone();
                            store.commit_change(vec![twin], vec![], at, txn).unwrap();
                            let held = stored.iter().filter(|r| payload_of(r) == pick(p)).count();
                            ChangeSet::new(vec![], vec![pick(p); held + 1])
                        }
                        Op::DeleteTooMany(_) | Op::ShareAnId(_) => continue,
                        Op::Full(vals) => {
                            store
                                .overwrite(with_initial_row_ids(payloads(vals)), at, txn)
                                .unwrap();
                            continue;
                        }
                        Op::Recluster => {
                            store.recluster(at, txn).unwrap();
                            continue;
                        }
                    };
                    let base = store.latest_version();
                    let want = assign_change_rows_by_walk(store.snapshot(base).unwrap().iter_rows(), &delta);
                    let got = assign_change_rows(&store.row_lookup(base).unwrap(), &delta);
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    let Ok(changes) = got else {
                        prop_assert!(matches!(want, Err(DtError::IvmInvariant(_))));
                        if matches!(op, Op::ShareAnId(_)) {
                            break;
                        }
                        continue;
                    };
                    prop_assert!(!matches!(op, Op::DeleteTooMany(_) | Op::ShareAnId(_)));
                    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
                    for c in changes {
                        match c.action {
                            MergeAction::Insert => inserts.push(c.into_stored_row()),
                            MergeAction::Delete => deletes.push(c.into_stored_row()),
                        }
                    }
                    store.commit_change(inserts, deletes, at, txn).unwrap();
                }
            }
        }
    }
}
