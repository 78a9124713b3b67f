//! Columnar batches: column vectors, selection bitmaps, zone maps, and
//! pushable predicate sets.
//!
//! These types are the vocabulary of the vectorized read path. They live in
//! `dt-common` because three crates that cannot depend on each other all
//! speak them: `dt-storage` shreds partitions into [`ColumnVec`]s and keeps
//! a [`ZoneMap`] per partition column, `dt-plan` extracts [`PredicateSet`]s
//! from filters, and `dt-exec` runs its operators over [`Batch`]es.
//!
//! Two comparison orders exist in the engine: `Value`'s total `Ord` (exact,
//! used for sorting/grouping) and `Value::sql_cmp` (numeric pairs widen to
//! f64 — what predicates observe). The two can disagree for integers beyond
//! 2^53, so zone-map *construction* uses the exact order while pruning
//! *checks* use `sql_cmp`: an exact minimum is also a minimum under the sql
//! projection (i64 → f64 is monotone), which keeps pruning conservative.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::row::Row;
use crate::value::Value;

/// One column of a batch or partition: a typed vector with an optional
/// validity mask, falling back to a generic `Value` vector for mixed or
/// non-numeric columns. The typed variants exist so scans of int/float
/// columns move machine words, not enum-tagged `Value`s.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// All values are `Int` (or NULL where the validity bit is false).
    Int {
        /// The payloads; dead slots (NULLs) hold 0.
        data: Vec<i64>,
        /// `None` means every slot is valid; otherwise `validity[i]` is
        /// true iff slot `i` is non-NULL.
        validity: Option<Vec<bool>>,
    },
    /// All values are `Float` (or NULL where the validity bit is false).
    Float {
        /// The payloads; dead slots (NULLs) hold 0.0.
        data: Vec<f64>,
        /// As for [`ColumnVec::Int`].
        validity: Option<Vec<bool>>,
    },
    /// Anything else: strings, bools, timestamps, mixed types.
    Generic(Vec<Value>),
}

impl ColumnVec {
    /// Build from values, choosing the typed representation when the
    /// column is homogeneously Int or homogeneously Float (NULLs allowed).
    /// Mixed Int/Float columns stay generic so values round-trip exactly.
    pub fn from_values(values: Vec<Value>) -> ColumnVec {
        let mut all_int = true;
        let mut all_float = true;
        let mut any_null = false;
        let mut any_value = false;
        for v in &values {
            match v {
                Value::Null => any_null = true,
                Value::Int(_) => {
                    any_value = true;
                    all_float = false;
                }
                Value::Float(_) => {
                    any_value = true;
                    all_int = false;
                }
                _ => {
                    all_int = false;
                    all_float = false;
                }
            }
            if !all_int && !all_float {
                break;
            }
        }
        if !any_value || (!all_int && !all_float) {
            return ColumnVec::Generic(values);
        }
        let validity = any_null.then(|| values.iter().map(|v| !v.is_null()).collect());
        if all_int {
            let data = values
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    _ => 0,
                })
                .collect();
            ColumnVec::Int { data, validity }
        } else {
            let data = values
                .iter()
                .map(|v| match v {
                    Value::Float(f) => *f,
                    _ => 0.0,
                })
                .collect();
            ColumnVec::Float { data, validity }
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Generic(v) => v.len(),
        }
    }

    /// True when the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff slot `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { validity, .. } | ColumnVec::Float { validity, .. } => {
                validity.as_ref().is_some_and(|v| !v[i])
            }
            ColumnVec::Generic(v) => v[i].is_null(),
        }
    }

    /// Materialize slot `i` as a `Value`.
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { data, validity } => match validity {
                Some(v) if !v[i] => Value::Null,
                _ => Value::Int(data[i]),
            },
            ColumnVec::Float { data, validity } => match validity {
                Some(v) if !v[i] => Value::Null,
                _ => Value::Float(data[i]),
            },
            ColumnVec::Generic(v) => v[i].clone(),
        }
    }

    /// Gather the given slots into a new column (preserves typing).
    pub fn gather(&self, indices: &[usize]) -> ColumnVec {
        match self {
            ColumnVec::Int { data, validity } => ColumnVec::Int {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity: validity
                    .as_ref()
                    .map(|v| indices.iter().map(|&i| v[i]).collect()),
            },
            ColumnVec::Float { data, validity } => ColumnVec::Float {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity: validity
                    .as_ref()
                    .map(|v| indices.iter().map(|&i| v[i]).collect()),
            },
            ColumnVec::Generic(v) => {
                ColumnVec::Generic(indices.iter().map(|&i| v[i].clone()).collect())
            }
        }
    }

    /// `parts` end to end as one column, typed as [`ColumnVec::from_values`]
    /// types it: mixed parts end up generic, so values keep their variants.
    pub fn concat(parts: &[&ColumnVec]) -> ColumnVec {
        ColumnVec::from_values(
            (parts.iter())
                .flat_map(|p| (0..p.len()).map(move |i| p.get(i)))
                .collect(),
        )
    }

    /// Compute this column's [`ZoneMap`] (min/max over non-NULL values
    /// under the exact total order, plus null accounting).
    pub fn zone_map(&self) -> ZoneMap {
        let mut null_count = 0usize;
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        match self {
            ColumnVec::Int { data, validity } => {
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                let mut any = false;
                for (i, &x) in data.iter().enumerate() {
                    if validity.as_ref().is_some_and(|v| !v[i]) {
                        null_count += 1;
                        continue;
                    }
                    any = true;
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                if any {
                    min = Some(Value::Int(lo));
                    max = Some(Value::Int(hi));
                }
            }
            ColumnVec::Float { data, validity } => {
                let mut best: Option<(f64, f64)> = None;
                for (i, &x) in data.iter().enumerate() {
                    if validity.as_ref().is_some_and(|v| !v[i]) {
                        null_count += 1;
                        continue;
                    }
                    best = Some(match best {
                        None => (x, x),
                        Some((lo, hi)) => (
                            if x.total_cmp(&lo) == Ordering::Less { x } else { lo },
                            if x.total_cmp(&hi) == Ordering::Greater { x } else { hi },
                        ),
                    });
                }
                if let Some((lo, hi)) = best {
                    min = Some(Value::Float(lo));
                    max = Some(Value::Float(hi));
                }
            }
            ColumnVec::Generic(values) => {
                for v in values {
                    if v.is_null() {
                        null_count += 1;
                        continue;
                    }
                    match &mut min {
                        None => min = Some(v.clone()),
                        Some(m) if v < m => *m = v.clone(),
                        _ => {}
                    }
                    match &mut max {
                        None => max = Some(v.clone()),
                        Some(m) if v > m => *m = v.clone(),
                        _ => {}
                    }
                }
            }
        }
        ZoneMap {
            min,
            max,
            null_count,
            row_count: self.len(),
        }
    }
}

/// Per-partition per-column min/max statistics, computed once at commit
/// time. `min`/`max` are `None` when the column holds no non-NULL value
/// (empty or all-NULL partition) — in that case no comparison predicate can
/// ever match, so the partition prunes for free.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-NULL value (exact total order), if any.
    pub min: Option<Value>,
    /// Largest non-NULL value (exact total order), if any.
    pub max: Option<Value>,
    /// Number of NULL slots.
    pub null_count: usize,
    /// Total slots covered.
    pub row_count: usize,
}

impl ZoneMap {
    /// Conservative check: could *any* value covered by this zone map
    /// satisfy `v OP lit`? `false` means the partition can be skipped
    /// without scanning it. Comparisons are three-valued: NULL never
    /// satisfies one, so NULLs are invisible here, and a NULL literal
    /// matches nothing. All checks use `sql_cmp` to agree with what the
    /// predicate evaluation itself would observe.
    pub fn may_match(&self, op: CmpOp, lit: &Value) -> bool {
        if lit.is_null() {
            return false;
        }
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            // No non-NULL values: no comparison can ever be true.
            return false;
        };
        // sql_cmp on non-null values always returns Some.
        let min_lit = min.sql_cmp(lit).expect("non-null cmp");
        let max_lit = max.sql_cmp(lit).expect("non-null cmp");
        match op {
            CmpOp::Lt => min_lit == Ordering::Less,
            CmpOp::LtEq => min_lit != Ordering::Greater,
            CmpOp::Gt => max_lit == Ordering::Greater,
            CmpOp::GtEq => max_lit != Ordering::Less,
            CmpOp::Eq => min_lit != Ordering::Greater && max_lit != Ordering::Less,
            // Prune only when every value equals the literal.
            CmpOp::NotEq => !(min_lit == Ordering::Equal && max_lit == Ordering::Equal),
        }
    }
}

/// Comparison operators a scan can apply (the pushable subset of `BinOp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// The operator with its operands swapped (`lit OP col` → `col OP' lit`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }

    /// Does an operand ordering of `o` (left vs right) satisfy the
    /// comparison? (`Lt` accepts `Less`, `LtEq` accepts `Less|Equal`, …)
    pub fn accepts(self, o: Ordering) -> bool {
        match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::NotEq => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::LtEq => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::GtEq => o != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        })
    }
}

/// One pushable predicate: `column OP literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Input column index.
    pub column: usize,
    /// The comparison.
    pub op: CmpOp,
    /// The constant side.
    pub literal: Value,
}

impl ColumnPredicate {
    /// Does `v` satisfy the predicate? Three-valued logic collapsed for
    /// filtering: NULL (either side) is "not true".
    pub fn matches(&self, v: &Value) -> bool {
        match v.sql_cmp(&self.literal) {
            None => false,
            Some(o) => self.op.accepts(o),
        }
    }

    /// AND this predicate into `keep` over all slots of `col` (vectorized;
    /// typed fast paths for int/float columns with numeric literals). The
    /// predicate's `column` index is ignored — `col` is the column.
    pub fn and_mask(&self, col: &ColumnVec, keep: &mut [bool]) {
        self.and_into(col, keep);
    }

    fn and_into(&self, col: &ColumnVec, keep: &mut [bool]) {
        match (col, &self.literal) {
            (ColumnVec::Int { data, validity }, Value::Int(l)) => {
                let lit = *l as f64;
                for (i, k) in keep.iter_mut().enumerate() {
                    if !*k {
                        continue;
                    }
                    if validity.as_ref().is_some_and(|v| !v[i]) {
                        *k = false;
                        continue;
                    }
                    // sql_cmp widens Int/Int to f64; mirror it exactly.
                    *k = self.op.accepts((data[i] as f64).total_cmp(&lit));
                }
            }
            (ColumnVec::Int { data, validity }, Value::Float(l)) => {
                for (i, k) in keep.iter_mut().enumerate() {
                    if !*k {
                        continue;
                    }
                    if validity.as_ref().is_some_and(|v| !v[i]) {
                        *k = false;
                        continue;
                    }
                    *k = self.op.accepts((data[i] as f64).total_cmp(l));
                }
            }
            (ColumnVec::Float { data, validity }, Value::Int(l)) => {
                let lit = *l as f64;
                for (i, k) in keep.iter_mut().enumerate() {
                    if !*k {
                        continue;
                    }
                    if validity.as_ref().is_some_and(|v| !v[i]) {
                        *k = false;
                        continue;
                    }
                    *k = self.op.accepts(data[i].total_cmp(&lit));
                }
            }
            (ColumnVec::Float { data, validity }, Value::Float(l)) => {
                for (i, k) in keep.iter_mut().enumerate() {
                    if !*k {
                        continue;
                    }
                    if validity.as_ref().is_some_and(|v| !v[i]) {
                        *k = false;
                        continue;
                    }
                    *k = self.op.accepts(data[i].total_cmp(l));
                }
            }
            _ => {
                for (i, k) in keep.iter_mut().enumerate() {
                    if *k {
                        *k = self.matches(&col.get(i));
                    }
                }
            }
        }
    }
}

impl fmt::Display for ColumnPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} {}", self.column, self.op, self.literal)
    }
}

/// A conjunction of pushable predicates, attached to a scan. Storage
/// evaluates it vectorized (and prunes whole partitions via zone maps);
/// providers without columnar storage apply it row-at-a-time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PredicateSet {
    /// The conjuncts. Empty means "keep everything".
    pub preds: Vec<ColumnPredicate>,
}

impl PredicateSet {
    /// An empty (always-true) set.
    pub fn new(preds: Vec<ColumnPredicate>) -> PredicateSet {
        PredicateSet { preds }
    }

    /// True when there is nothing to apply.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Row-at-a-time evaluation (fallback providers, residual checks).
    pub fn matches_row(&self, row: &Row) -> bool {
        self.preds.iter().all(|p| {
            row.values()
                .get(p.column)
                .is_some_and(|v| p.matches(v))
        })
    }

    /// Shift every column index by `offset` (DT storage carries a leading
    /// `$ROW_ID` column the plan never sees).
    pub fn shift_columns(&self, offset: usize) -> PredicateSet {
        PredicateSet {
            preds: self
                .preds
                .iter()
                .map(|p| ColumnPredicate {
                    column: p.column + offset,
                    op: p.op,
                    literal: p.literal.clone(),
                })
                .collect(),
        }
    }

    /// Can a partition with these per-column zone maps be skipped entirely?
    /// Conservative: returns true only when some conjunct provably matches
    /// no value in the partition.
    pub fn prunes(&self, zone_maps: &[ZoneMap]) -> bool {
        self.preds.iter().any(|p| {
            zone_maps
                .get(p.column)
                .is_some_and(|z| !z.may_match(p.op, &p.literal))
        })
    }

    /// Narrow `batch`'s selection to rows satisfying every conjunct.
    pub fn apply(&self, batch: &mut Batch) {
        if self.preds.is_empty() || batch.is_empty() {
            return;
        }
        let mut keep = match batch.sel.take() {
            Some(sel) => sel,
            None => vec![true; batch.len()],
        };
        for p in &self.preds {
            match batch.columns.get(p.column) {
                Some(col) => p.and_into(col, &mut keep),
                // Out-of-range column matches nothing (mirrors
                // `matches_row` on a short row).
                None => keep.iter_mut().for_each(|k| *k = false),
            }
        }
        batch.sel = Some(keep);
    }
}

impl fmt::Display for PredicateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.preds.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// A batch of rows in columnar form: shared column vectors plus a
/// selection bitmap. The bitmap lets filters "delete" rows without
/// copying column data; operators that need dense output compact first.
/// Columns are `Arc`'d so a batch sliced straight out of an immutable
/// storage partition is zero-copy.
#[derive(Debug, Clone)]
pub struct Batch {
    len: usize,
    columns: Vec<Arc<ColumnVec>>,
    /// `None` = all rows live; otherwise `sel[i]` is true iff row `i` is
    /// still in the result.
    sel: Option<Vec<bool>>,
}

impl Batch {
    /// Build from shared columns (all must have `len` slots).
    pub fn new(columns: Vec<Arc<ColumnVec>>, len: usize) -> Batch {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        Batch {
            len,
            columns,
            sel: None,
        }
    }

    /// A batch of `len` zero-column rows (FROM-less SELECT).
    pub fn zero_width(len: usize) -> Batch {
        Batch {
            len,
            columns: Vec::new(),
            sel: None,
        }
    }

    /// Shred rows (all of the same arity) into a columnar batch.
    pub fn from_rows(arity: usize, rows: &[Row]) -> Batch {
        let mut cols = Vec::with_capacity(arity);
        for c in 0..arity {
            let values = rows
                .iter()
                .map(|r| r.values().get(c).cloned().unwrap_or(Value::Null))
                .collect();
            cols.push(Arc::new(ColumnVec::from_values(values)));
        }
        Batch {
            len: rows.len(),
            columns: cols,
            sel: None,
        }
    }

    /// Number of physical slots (including deselected rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch has no physical slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column vectors.
    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.columns
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &Arc<ColumnVec> {
        &self.columns[c]
    }

    /// The selection bitmap (`None` = everything selected).
    pub fn selection(&self) -> Option<&[bool]> {
        self.sel.as_deref()
    }

    /// Replace the selection bitmap wholesale.
    pub fn set_selection(&mut self, sel: Option<Vec<bool>>) {
        debug_assert!(sel.as_ref().is_none_or(|s| s.len() == self.len));
        self.sel = sel;
    }

    /// True iff physical row `i` is selected.
    pub fn is_selected(&self, i: usize) -> bool {
        self.sel.as_ref().is_none_or(|s| s[i])
    }

    /// Number of selected rows.
    pub fn live_count(&self) -> usize {
        match &self.sel {
            None => self.len,
            Some(s) => s.iter().filter(|k| **k).count(),
        }
    }

    /// Physical indices of selected rows, in order.
    pub fn live_indices(&self) -> Vec<usize> {
        match &self.sel {
            None => (0..self.len).collect(),
            Some(s) => s
                .iter()
                .enumerate()
                .filter_map(|(i, k)| k.then_some(i))
                .collect(),
        }
    }

    /// Intersect the selection with `keep` (physical indexing).
    pub fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        match &mut self.sel {
            None => self.sel = Some(keep.to_vec()),
            Some(sel) => {
                for (s, k) in sel.iter_mut().zip(keep) {
                    *s = *s && *k;
                }
            }
        }
    }

    /// Materialize physical row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Materialize the selected rows, in order.
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.live_count());
        for i in 0..self.len {
            if self.is_selected(i) {
                out.push(self.row(i));
            }
        }
        out
    }

    /// Densify: gather selected rows into fresh columns with no selection
    /// bitmap. A no-op (cheap Arc clones) when everything is selected.
    pub fn compact(&self) -> Batch {
        if self.sel.is_none() {
            return self.clone();
        }
        let idx = self.live_indices();
        Batch {
            len: idx.len(),
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(&idx)))
                .collect(),
            sel: None,
        }
    }

    /// The selected rows of `batches`, in order, as one dense batch of
    /// `arity` columns. A single batch with nothing deselected is shared,
    /// not copied.
    pub fn concat(batches: &[Batch], arity: usize) -> Batch {
        if let [only] = batches {
            return only.compact();
        }
        let dense: Vec<Batch> = batches.iter().map(Batch::compact).collect();
        let columns = (0..arity)
            .map(|c| {
                let parts: Vec<&ColumnVec> = dense.iter().map(|b| &*b.columns[c]).collect();
                Arc::new(ColumnVec::concat(&parts))
            })
            .collect();
        Batch::new(columns, dense.iter().map(Batch::len).sum())
    }

    /// Drop the leading column (strips DT storage's `$ROW_ID`).
    pub fn drop_first_column(mut self) -> Batch {
        if !self.columns.is_empty() {
            self.columns.remove(0);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn typed_fast_path_round_trips() {
        let c = ColumnVec::from_values(vec![Value::Int(3), Value::Null, Value::Int(-1)]);
        assert!(matches!(c, ColumnVec::Int { .. }));
        assert_eq!(c.get(0), Value::Int(3));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(-1));
        let f = ColumnVec::from_values(vec![Value::Float(0.5)]);
        assert!(matches!(f, ColumnVec::Float { .. }));
        // Mixed Int/Float must stay generic so variants round-trip exactly.
        let m = ColumnVec::from_values(vec![Value::Int(1), Value::Float(1.0)]);
        assert!(matches!(m, ColumnVec::Generic(_)));
        assert_eq!(m.get(0), Value::Int(1));
        assert_eq!(m.get(1), Value::Float(1.0));
    }

    #[test]
    fn batch_from_rows_to_rows_identity() {
        let rows = vec![row!(1i64, "a"), row!(2i64, "b")];
        let b = Batch::from_rows(2, &rows);
        assert_eq!(b.to_rows(), rows);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.live_count(), 2);
    }

    #[test]
    fn concat_keeps_typing_only_when_every_part_agrees() {
        let ints = Batch::from_rows(1, &[row!(1i64), Row::new(vec![Value::Null])]);
        let mut more = Batch::from_rows(1, &[row!(2i64), row!(3i64)]);
        more.retain(&[false, true]);
        let all = Batch::concat(&[ints.clone(), more], 1);
        assert!(matches!(&**all.column(0), ColumnVec::Int { .. }));
        assert_eq!(
            all.to_rows(),
            vec![row!(1i64), Row::new(vec![Value::Null]), row!(3i64)]
        );
        let mixed = Batch::concat(&[ints.clone(), Batch::from_rows(1, &[row!(1.0f64)])], 1);
        assert!(matches!(&**mixed.column(0), ColumnVec::Generic(_)));
        assert!(matches!(mixed.row(2).get(0), Value::Float(_)));
        // One fully selected batch is shared; none is an empty batch.
        let alone = Batch::concat(std::slice::from_ref(&ints), 1);
        assert!(Arc::ptr_eq(alone.column(0), ints.column(0)));
        assert_eq!(Batch::concat(&[], 2).arity(), 2);
        assert!(Batch::concat(&[], 2).is_empty());
    }

    #[test]
    fn selection_and_compact() {
        let rows = vec![row!(1i64), row!(2i64), row!(3i64)];
        let mut b = Batch::from_rows(1, &rows);
        b.retain(&[true, false, true]);
        assert_eq!(b.live_count(), 2);
        assert_eq!(b.to_rows(), vec![row!(1i64), row!(3i64)]);
        let dense = b.compact();
        assert_eq!(dense.len(), 2);
        assert!(dense.selection().is_none());
        assert_eq!(dense.to_rows(), vec![row!(1i64), row!(3i64)]);
        // retain intersects with the existing selection.
        b.retain(&[true, true, false]);
        assert_eq!(b.to_rows(), vec![row!(1i64)]);
    }

    #[test]
    fn predicate_masks_match_row_semantics() {
        let rows = vec![
            row!(1i64),
            Row::new(vec![Value::Null]),
            row!(5i64),
            row!(3i64),
        ];
        let mut b = Batch::from_rows(1, &rows);
        let ps = PredicateSet::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::GtEq,
            literal: Value::Int(3),
        }]);
        ps.apply(&mut b);
        assert_eq!(b.to_rows(), vec![row!(5i64), row!(3i64)]);
        // Same verdicts row-at-a-time (NULL never matches).
        let kept: Vec<Row> = rows.iter().filter(|r| ps.matches_row(r)).cloned().collect();
        assert_eq!(b.to_rows(), kept);
    }

    #[test]
    fn zone_map_bounds_and_may_match() {
        let c = ColumnVec::from_values(vec![Value::Int(10), Value::Null, Value::Int(20)]);
        let z = c.zone_map();
        assert_eq!(z.min, Some(Value::Int(10)));
        assert_eq!(z.max, Some(Value::Int(20)));
        assert_eq!(z.null_count, 1);
        assert!(z.may_match(CmpOp::Eq, &Value::Int(15)));
        assert!(!z.may_match(CmpOp::Eq, &Value::Int(25)));
        assert!(!z.may_match(CmpOp::Gt, &Value::Int(20)));
        assert!(z.may_match(CmpOp::GtEq, &Value::Int(20)));
        assert!(!z.may_match(CmpOp::Lt, &Value::Int(10)));
        assert!(z.may_match(CmpOp::NotEq, &Value::Int(10)));
        // NULL literal can never match.
        assert!(!z.may_match(CmpOp::Eq, &Value::Null));
    }

    #[test]
    fn zone_map_of_all_null_or_empty_prunes_everything() {
        for c in [
            ColumnVec::from_values(vec![Value::Null, Value::Null]),
            ColumnVec::from_values(vec![]),
        ] {
            let z = c.zone_map();
            assert_eq!(z.min, None);
            for op in [CmpOp::Eq, CmpOp::NotEq, CmpOp::Lt, CmpOp::GtEq] {
                assert!(!z.may_match(op, &Value::Int(0)));
            }
        }
    }

    #[test]
    fn not_eq_prunes_only_constant_partitions() {
        let constant = ColumnVec::from_values(vec![Value::Int(7), Value::Int(7)]).zone_map();
        assert!(!constant.may_match(CmpOp::NotEq, &Value::Int(7)));
        assert!(constant.may_match(CmpOp::NotEq, &Value::Int(8)));
    }

    #[test]
    fn predicate_set_prunes_via_zone_maps() {
        let zs = vec![
            ColumnVec::from_values(vec![Value::Int(1), Value::Int(5)]).zone_map(),
            ColumnVec::from_values(vec![Value::Str("a".into())]).zone_map(),
        ];
        let hit = PredicateSet::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            literal: Value::Int(4),
        }]);
        assert!(!hit.prunes(&zs));
        let miss = PredicateSet::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Gt,
            literal: Value::Int(5),
        }]);
        assert!(miss.prunes(&zs));
        // Unknown column index cannot prune.
        let unknown = PredicateSet::new(vec![ColumnPredicate {
            column: 9,
            op: CmpOp::Eq,
            literal: Value::Int(1),
        }]);
        assert!(!unknown.prunes(&zs));
    }

    #[test]
    fn shift_columns_offsets_indices() {
        let ps = PredicateSet::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Eq,
            literal: Value::Int(1),
        }]);
        let shifted = ps.shift_columns(1);
        assert_eq!(shifted.preds[0].column, 1);
        assert!(shifted.matches_row(&row!("rowid", 1i64)));
    }

    #[test]
    fn mixed_type_zone_maps_stay_sound() {
        // A column mixing ints and strings: Ord ranks Int < Str, so
        // min=Int, max=Str. A string comparison must still be matchable.
        let c = ColumnVec::from_values(vec![Value::Int(5), Value::Str("x".into())]);
        let z = c.zone_map();
        assert!(z.may_match(CmpOp::Eq, &Value::Int(5)));
        assert!(z.may_match(CmpOp::Eq, &Value::Str("x".into())));
        assert!(z.may_match(CmpOp::GtEq, &Value::Str("a".into())));
        // And the vectorized filter agrees with row semantics.
        let mut b = Batch::new(vec![Arc::new(c)], 2);
        let ps = PredicateSet::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::Eq,
            literal: Value::Str("x".into()),
        }]);
        ps.apply(&mut b);
        assert_eq!(b.to_rows(), vec![row!("x")]);
    }
}
