//! The key-hashing primitive under the hash aggregate, the hash join,
//! `DISTINCT` and the IVM rules' affected-key restriction.
//!
//! A [`KeyTable`] maps key tuples to dense ids (`0, 1, 2, …` in first-seen
//! order). Keys arrive column-wise: one [`ColumnVec`] per key column plus
//! the physical slots to read, so a batch is hashed a column at a time
//! (typed loops over `Int`/`Float` vectors, `Value`s only for `Generic`
//! ones) and no key tuple is ever allocated per row — a `Value` is built
//! once per *distinct* key, when it is stored.
//!
//! Key equality is `Value`'s own and hashing is consistent with it
//! (`Int(1)` and `Float(1.0)` are one key, `NULL` equals `NULL`, `-0.0` and
//! `0.0` differ), so a table
//! agrees with the `BTreeMap<Vec<Value>, _>` / `HashMap<Vec<Value>, _>` /
//! `HashSet<Row>` the row operators use, whatever mix of typed and generic
//! columns the batches bring. Callers that need SQL's "NULL matches
//! nothing" (joins) leave NULL-keyed rows out with [`without_null_keys`].
//!
//! Expression keys are materialised once per batch by [`eval_column`].
//! Evaluating a column at a time meets errors in a different order than
//! the row interpreter, which stops at the first failing *row*;
//! [`FirstError`] restores that order.

use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use dt_common::{numeric_hash_bits, Batch, ColumnVec, DtError, DtResult, Value};
use dt_plan::ScalarExpr;

/// The id reported for a key that is not in the table.
pub const ABSENT: u32 = u32::MAX;

const EMPTY: u32 = u32::MAX;

/// Key tuples → dense ids, open addressing over `Value` hashing.
#[derive(Debug, Clone)]
pub struct KeyTable {
    width: usize,
    /// Stored keys, id-major: key `g` is `keys[g * width..][..width]`.
    keys: Vec<Value>,
    /// The hash of each stored key.
    hashes: Vec<u64>,
    /// Open-addressing slots holding ids; always a power of two and at
    /// most half full.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl KeyTable {
    /// An empty table over `width`-column keys.
    pub fn new(width: usize) -> KeyTable {
        KeyTable {
            width,
            keys: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
            hasher: RandomState::new(),
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The stored form of key `id`: the values it was first seen with.
    pub fn key(&self, id: usize) -> &[Value] {
        &self.keys[id * self.width..(id + 1) * self.width]
    }

    /// The id of each listed slot's key, storing keys not seen before
    /// (new ids are handed out in slot order). `ids` is overwritten.
    pub fn intern(&mut self, cols: &[Arc<ColumnVec>], rows: &[usize], ids: &mut Vec<u32>) {
        debug_assert_eq!(cols.len(), self.width);
        ids.clear();
        ids.reserve(rows.len());
        let hashes = self.hash_rows(cols, rows);
        for (&row, hash) in rows.iter().zip(hashes) {
            if (self.len() + 1) * 2 > self.slots.len() {
                self.grow();
            }
            ids.push(match self.probe(hash, cols, row) {
                Ok(id) => id,
                Err(free_slot) => {
                    let id = self.len() as u32;
                    self.slots[free_slot] = id;
                    self.hashes.push(hash);
                    self.keys.extend(cols.iter().map(|c| c.get(row)));
                    id
                }
            });
        }
    }

    /// The id of each listed slot's key, [`ABSENT`] for keys the table
    /// does not hold. `ids` is overwritten.
    pub fn find(&self, cols: &[Arc<ColumnVec>], rows: &[usize], ids: &mut Vec<u32>) {
        debug_assert_eq!(cols.len(), self.width);
        ids.clear();
        let hashes = self.hash_rows(cols, rows);
        ids.extend(
            (rows.iter().zip(hashes))
                .map(|(&row, hash)| self.probe(hash, cols, row).unwrap_or(ABSENT)),
        );
    }

    /// The id stored for slot `row`'s key, or the free slot where the
    /// linear probe for it ended.
    fn probe(&self, hash: u64, cols: &[Arc<ColumnVec>], row: usize) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if self.matches(id, hash, cols, row) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Replace the stored form of key `id` with the (equal) values in slot
    /// `row` — how a table seeded from one relation comes to report the
    /// spelling first seen in another.
    pub fn restate(&mut self, id: usize, cols: &[Arc<ColumnVec>], row: usize) {
        for (stored, col) in self.keys[id * self.width..].iter_mut().zip(cols) {
            *stored = col.get(row);
        }
    }

    fn matches(&self, id: u32, hash: u64, cols: &[Arc<ColumnVec>], row: usize) -> bool {
        self.hashes[id as usize] == hash
            && cols
                .iter()
                .zip(self.key(id as usize))
                .all(|(col, stored)| slot_equals(col, row, stored))
    }

    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![EMPTY; mask + 1];
        for (id, hash) in self.hashes.iter().enumerate() {
            let mut slot = *hash as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id as u32;
        }
        self.slots = slots;
    }

    /// One hash per listed slot, folded over the key columns a column at
    /// a time.
    fn hash_rows(&self, cols: &[Arc<ColumnVec>], rows: &[usize]) -> Vec<u64> {
        let mut out = vec![0u64; rows.len()];
        let null = self.hasher.hash_one(Value::Null);
        // Numbers hash as their `numeric_hash_bits` whatever column they sit
        // in (so `Int(1)` in a typed column meets `Float(1.0)` in a generic
        // one); everything else hashes as the `Value` it is.
        let number = |f: f64| self.hasher.hash_one(numeric_hash_bits(f));
        for col in cols {
            let out = &mut out[..];
            match &**col {
                // An i64's f64 image is never NaN or -0.0: its bits are
                // already the normalised ones.
                ColumnVec::Int { data, .. } => fold_column(out, rows, col, null, |i| {
                    self.hasher.hash_one((data[i] as f64).to_bits())
                }),
                ColumnVec::Float { data, .. } => {
                    fold_column(out, rows, col, null, |i| number(data[i]))
                }
                ColumnVec::Generic(values) => {
                    fold_column(out, rows, col, null, |i| match &values[i] {
                        Value::Int(x) => number(*x as f64),
                        Value::Float(x) => number(*x),
                        other => self.hasher.hash_one(other),
                    })
                }
            }
        }
        out
    }
}

/// Fold one key column's slot hashes into the running row hashes.
fn fold_column(
    hashes: &mut [u64],
    rows: &[usize],
    col: &ColumnVec,
    null: u64,
    hash_valid: impl Fn(usize) -> u64,
) {
    for (h, &i) in hashes.iter_mut().zip(rows) {
        let value_hash = if col.is_null(i) { null } else { hash_valid(i) };
        *h = (h.rotate_left(5) ^ value_hash).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `col[row] == stored` under `Value`'s equality, without materialising
/// the slot for typed columns.
fn slot_equals(col: &ColumnVec, row: usize, stored: &Value) -> bool {
    match col {
        ColumnVec::Int { data, validity } => match validity {
            Some(valid) if !valid[row] => stored.is_null(),
            _ => Value::Int(data[row]) == *stored,
        },
        ColumnVec::Float { data, validity } => match validity {
            Some(valid) if !valid[row] => stored.is_null(),
            _ => Value::Float(data[row]) == *stored,
        },
        ColumnVec::Generic(values) => values[row] == *stored,
    }
}

/// The listed slots whose key has no NULL component — the rows an
/// equi-join can match at all.
pub fn without_null_keys(cols: &[Arc<ColumnVec>], rows: &[usize]) -> Vec<usize> {
    rows.iter()
        .copied()
        .filter(|&i| cols.iter().all(|c| !c.is_null(i)))
        .collect()
}

/// The first error of a batch, in the row interpreter's order.
///
/// The row operators run every step of one row (key expressions, then each
/// aggregate's argument and update, or each residual conjunct) before
/// touching the next row, so the error they report is the one at the
/// earliest failing row. The columnar kernels run one step over all rows
/// before the next step. They stay exact by running their steps in the
/// within-row order and letting each step see only the live rows *before*
/// the earliest failure found so far: a later step can then only fail at
/// an earlier row, and the error left at the end of the batch is the one
/// the row interpreter stops at.
#[derive(Debug)]
pub struct FirstError {
    live: usize,
    error: Option<DtError>,
}

impl FirstError {
    /// No failure yet among `live` live rows.
    pub fn new(live: usize) -> FirstError {
        FirstError { live, error: None }
    }

    /// How many leading live rows the next step may look at.
    pub fn live(&self) -> usize {
        self.live
    }

    /// A step failed at live position `pos` (below [`FirstError::live`]).
    pub fn fail(&mut self, pos: usize, error: DtError) {
        debug_assert!(pos < self.live);
        self.live = pos;
        self.error = Some(error);
    }

    /// Later steps run over a list rows were dropped from: `live` of its
    /// entries lie before the earliest failure.
    pub fn shorten(&mut self, live: usize) {
        debug_assert!(live <= self.live);
        self.live = live;
    }

    /// The batch's verdict once every step has run.
    pub fn finish(self) -> DtResult<()> {
        self.error.map_or(Ok(()), Err)
    }
}

/// `expr` over the listed live slots of `batch` as one column indexed by
/// physical slot (slots not listed hold NULL). A bare column is shared,
/// not copied; anything else is evaluated once per listed row, up to
/// `first`'s frontier.
pub fn eval_column(
    expr: &ScalarExpr,
    batch: &Batch,
    rows: &[usize],
    first: &mut FirstError,
) -> Arc<ColumnVec> {
    match expr {
        ScalarExpr::Column(c) if *c < batch.arity() => Arc::clone(batch.column(*c)),
        ScalarExpr::Literal(v) => Arc::new(ColumnVec::from_values(vec![v.clone(); batch.len()])),
        _ => {
            let mut values = vec![Value::Null; batch.len()];
            for (pos, &i) in rows[..first.live()].iter().enumerate() {
                match expr.eval(&batch.row(i)) {
                    Ok(v) => values[i] = v,
                    Err(e) => {
                        first.fail(pos, e);
                        break;
                    }
                }
            }
            Arc::new(ColumnVec::from_values(values))
        }
    }
}

/// [`eval_columns`] when nothing else in the batch can fail: the columns,
/// or the error of the earliest failing row.
pub fn try_eval_columns(
    exprs: &[ScalarExpr],
    batch: &Batch,
    rows: &[usize],
) -> DtResult<Vec<Arc<ColumnVec>>> {
    let mut first = FirstError::new(rows.len());
    let cols = eval_columns(exprs, batch, rows, &mut first);
    first.finish().map(|()| cols)
}

/// [`eval_column`] for each of `exprs`, in order.
pub fn eval_columns(
    exprs: &[ScalarExpr],
    batch: &Batch,
    rows: &[usize],
    first: &mut FirstError,
) -> Vec<Arc<ColumnVec>> {
    exprs
        .iter()
        .map(|e| eval_column(e, batch, rows, first))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{row, Row};

    fn columns(rows: &[Row]) -> Vec<Arc<ColumnVec>> {
        Batch::from_rows(rows[0].len(), rows).columns().to_vec()
    }

    #[test]
    fn ids_are_dense_and_first_seen() {
        let cols = columns(&[row!(7i64), row!(3i64), row!(7i64), row!(9i64), row!(3i64)]);
        let mut t = KeyTable::new(1);
        let mut ids = Vec::new();
        t.intern(&cols, &[0, 1, 2, 3, 4], &mut ids);
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.key(2), &[Value::Int(9)]);
        // Only the listed slots are read.
        let mut t = KeyTable::new(1);
        t.intern(&cols, &[3, 1], &mut ids);
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn typed_and_generic_columns_share_keys() {
        // Int(1) in a typed column, Float(1.0) and 'x' in a generic one.
        let typed = columns(&[row!(1i64), row!(2i64)]);
        let generic = columns(&[row!(1.0f64), row!("x"), Row::new(vec![Value::Null])]);
        assert!(matches!(&*typed[0], ColumnVec::Int { .. }));
        assert!(matches!(&*generic[0], ColumnVec::Generic(_)));
        let mut t = KeyTable::new(1);
        let mut ids = Vec::new();
        t.intern(&typed, &[0, 1], &mut ids);
        t.intern(&generic, &[0, 1, 2], &mut ids);
        assert_eq!(ids, vec![0, 2, 3]);
        // The first-seen spelling is the one kept.
        assert!(matches!(t.key(0), [Value::Int(1)]));
        t.find(&generic, &[2, 0], &mut ids);
        assert_eq!(ids, vec![3, 0]);
        t.restate(0, &generic, 0);
        assert!(matches!(t.key(0), [Value::Float(_)]));
    }

    #[test]
    fn float_edge_keys_follow_value_equality() {
        let cols = columns(&[row!(0.0f64), row!(-0.0f64), row!(f64::NAN), row!(f64::NAN)]);
        let mut t = KeyTable::new(1);
        let mut ids = Vec::new();
        t.intern(&cols, &[0, 1, 2, 3], &mut ids);
        assert_eq!(ids, vec![0, 1, 2, 2]);
    }

    #[test]
    fn multi_column_keys_and_growth() {
        let rows: Vec<Row> = (0..500i64).map(|i| row!(i % 50, i % 7)).collect();
        let cols = columns(&rows);
        let all: Vec<usize> = (0..rows.len()).collect();
        let mut t = KeyTable::new(2);
        let mut ids = Vec::new();
        t.intern(&cols, &all, &mut ids);
        assert_eq!(t.len(), 350);
        let mut again = Vec::new();
        t.find(&cols, &all, &mut again);
        assert_eq!(ids, again);
        let other = columns(&[row!(50i64, 0i64)]);
        t.find(&other, &[0], &mut again);
        assert_eq!(again, vec![ABSENT]);
    }

    #[test]
    fn zero_width_keys_are_one_group() {
        let mut t = KeyTable::new(0);
        let mut ids = Vec::new();
        t.find(&[], &[0, 1], &mut ids);
        assert_eq!(ids, vec![ABSENT, ABSENT]);
        t.intern(&[], &[0, 1, 2], &mut ids);
        assert_eq!((ids, t.len()), (vec![0, 0, 0], 1));
    }

    #[test]
    fn null_keyed_rows_can_be_left_out() {
        let cols = columns(&[
            row!(1i64, "a"),
            Row::new(vec![Value::Null, Value::Str("b".into())]),
            Row::new(vec![Value::Int(3), Value::Null]),
        ]);
        assert_eq!(without_null_keys(&cols, &[0, 1, 2]), vec![0]);
    }

    #[test]
    fn first_error_is_the_earliest_row_not_the_earliest_step() {
        // Step 1 fails at row 3, step 2 at row 1: the row interpreter
        // reports row 1's error.
        let b = Batch::from_rows(
            1,
            &[row!(5i64), row!(0i64), row!(7i64), row!("x"), row!(1i64)],
        );
        let rows = b.live_indices();
        let negate = ScalarExpr::Neg(Box::new(ScalarExpr::col(0)));
        let divide = ScalarExpr::Binary {
            left: Box::new(ScalarExpr::lit(1i64)),
            op: dt_plan::BinOp::Div,
            right: Box::new(ScalarExpr::col(0)),
        };
        let mut first = FirstError::new(rows.len());
        eval_columns(&[negate, divide], &b, &rows, &mut first);
        assert_eq!(first.live(), 1);
        let err = first.finish().unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }
}
