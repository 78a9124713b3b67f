//! The batch-at-a-time pipeline: operators consume and produce columnar
//! [`Batch`]es; rows are materialized only at operator boundaries that are
//! still row-shaped (window functions, sorting) and at the top of the
//! plan, so `ExecResult` and the SQL surface are unchanged.
//!
//! Filters evaluate vectorized wherever the predicate (or a prefix of its
//! conjunction) is provably error-free — comparisons of columns and
//! literals composed with `AND`/`OR`/`NOT`/`IS NULL`/`IN (list)` — using Kleene
//! true/false mask pairs so three-valued logic matches the row interpreter
//! bit for bit. Anything else (arithmetic that can divide by zero, CASE,
//! function calls) falls back to row-at-a-time evaluation over the still
//! selected rows only, which preserves the row path's error behavior
//! exactly: a conjunct is only ever skipped for a row when an earlier
//! conjunct already evaluated to definite FALSE, the same rows the row
//! interpreter's `AND` short-circuit would skip.

use std::sync::Arc;

use dt_common::{Batch, ColumnPredicate, ColumnVec, CmpOp, DtResult, Row, Value};
use dt_plan::expr::BinOp;
use dt_plan::{LogicalPlan, ScalarExpr};

use crate::aggregate::execute_aggregate_batches;
use crate::executor::{project_rows, sort_rows, TableProvider};
use crate::join::execute_join_batches;
use crate::keys::KeyTable;
use crate::window::execute_window;

/// Execute a plan as a batch pipeline, returning its result batches (batch
/// order is the result order; within a batch, selected rows in physical
/// order).
pub fn execute_batches(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
) -> DtResult<Vec<Batch>> {
    match plan {
        LogicalPlan::TableScan {
            entity, pushdown, ..
        } => provider.scan_batches(*entity, pushdown.as_ref().filter(|p| !p.is_empty())),
        LogicalPlan::SingleRow => Ok(vec![Batch::zero_width(1)]),
        LogicalPlan::Filter { input, predicate } => {
            let mut batches = execute_batches(input, provider)?;
            for b in &mut batches {
                filter_batch(b, predicate)?;
            }
            Ok(batches)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let batches = execute_batches(input, provider)?;
            batches.iter().map(|b| project_batch(b, exprs)).collect()
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            ..
        } => {
            let l = execute_batches(left, provider)?;
            let r = execute_batches(right, provider)?;
            execute_join_batches(
                &l,
                &r,
                left.schema().len(),
                right.schema().len(),
                *join_type,
                on,
            )
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            let mut out = Vec::new();
            for i in inputs {
                out.extend(execute_batches(i, provider)?);
            }
            Ok(out)
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            ..
        } => {
            let batches = execute_batches(input, provider)?;
            let rows = execute_aggregate_batches(&batches, group_exprs, aggregates, None)?;
            Ok(rows_to_batches(rows))
        }
        LogicalPlan::Distinct { input } => {
            // Whole rows are the keys; ids are handed out in first-seen
            // order, so a row is new exactly when its id is the next one.
            let mut batches = execute_batches(input, provider)?;
            let mut seen = KeyTable::new(input.schema().len());
            let mut ids = Vec::new();
            for b in &mut batches {
                let rows = b.live_indices();
                let mut next = seen.len() as u32;
                seen.intern(b.columns(), &rows, &mut ids);
                let mut keep = vec![false; b.len()];
                for (&slot, &id) in rows.iter().zip(&ids) {
                    if id == next {
                        keep[slot] = true;
                        next += 1;
                    }
                }
                b.set_selection(Some(keep));
            }
            Ok(batches)
        }
        LogicalPlan::Window { input, exprs, .. } => {
            let rows = flatten(execute_batches(input, provider)?);
            Ok(rows_to_batches(execute_window(&rows, exprs)?))
        }
        LogicalPlan::Sort { input, keys } => {
            let rows = flatten(execute_batches(input, provider)?);
            Ok(rows_to_batches(sort_rows(rows, keys)?))
        }
        LogicalPlan::Limit { input, n } => {
            let batches = execute_batches(input, provider)?;
            let mut remaining = *n as usize;
            let mut out = Vec::new();
            for mut b in batches {
                if remaining == 0 {
                    break;
                }
                let live = b.live_count();
                if live <= remaining {
                    remaining -= live;
                    out.push(b);
                } else {
                    // Deselect everything past the first `remaining` live rows.
                    let mut keep = vec![false; b.len()];
                    let mut taken = 0usize;
                    for (i, k) in keep.iter_mut().enumerate() {
                        if taken == remaining {
                            break;
                        }
                        if b.is_selected(i) {
                            *k = true;
                            taken += 1;
                        }
                    }
                    b.set_selection(Some(keep));
                    out.push(b);
                    remaining = 0;
                }
            }
            Ok(out)
        }
    }
}

/// Materialize all selected rows of all batches, in order.
pub fn flatten(batches: Vec<Batch>) -> Vec<Row> {
    let mut out = Vec::new();
    for b in &batches {
        out.extend(b.to_rows());
    }
    out
}

fn rows_to_batches(rows: Vec<Row>) -> Vec<Batch> {
    if rows.is_empty() {
        return Vec::new();
    }
    let arity = rows[0].len();
    vec![Batch::from_rows(arity, &rows)]
}

// ---------------------------------------------------------------------------
// Filter: vectorized Kleene masks with exact row-path fallback.

/// A Kleene truth-mask pair over a batch's physical slots: `t[i]` = the
/// predicate is definitely TRUE for slot `i`, `f[i]` = definitely FALSE;
/// neither = NULL. (Both never hold.)
struct Mask {
    t: Vec<bool>,
    f: Vec<bool>,
}

impl Mask {
    fn constant(n: usize, v: Option<bool>) -> Mask {
        Mask {
            t: vec![v == Some(true); n],
            f: vec![v == Some(false); n],
        }
    }

    fn not(self) -> Mask {
        Mask {
            t: self.f,
            f: self.t,
        }
    }

    fn and(mut self, rhs: &Mask) -> Mask {
        for i in 0..self.t.len() {
            self.t[i] = self.t[i] && rhs.t[i];
            self.f[i] = self.f[i] || rhs.f[i];
        }
        self
    }

    fn or(mut self, rhs: &Mask) -> Mask {
        for i in 0..self.t.len() {
            self.t[i] = self.t[i] || rhs.t[i];
            self.f[i] = self.f[i] && rhs.f[i];
        }
        self
    }
}

/// Narrow `batch`'s selection to rows where `predicate` is true, with the
/// row interpreter's exact result *and error* semantics.
fn filter_batch(batch: &mut Batch, predicate: &ScalarExpr) -> DtResult<()> {
    filter_rows(batch, predicate).map_err(|(_, e)| e)
}

/// [`filter_batch`], reporting an error together with the physical slot it
/// was raised at (the selection is left as it was).
pub(crate) fn filter_rows(
    batch: &mut Batch,
    predicate: &ScalarExpr,
) -> Result<(), (usize, dt_common::DtError)> {
    let conjuncts = predicate.conjuncts();

    // Longest prefix of conjuncts that evaluates vectorized. The split is a
    // prefix (not an arbitrary subset) so the residual is only skipped for
    // rows an earlier conjunct decided FALSE — exactly the rows the row
    // path's left-to-right AND short-circuit would skip.
    let mut prefix: Option<Mask> = None;
    let mut vectorized = 0usize;
    for c in &conjuncts {
        match vector_mask(c, batch) {
            Some(m) => {
                prefix = Some(match prefix {
                    None => m,
                    Some(p) => p.and(&m),
                });
                vectorized += 1;
            }
            None => break,
        }
    }
    let residual = ScalarExpr::and_all(conjuncts[vectorized..].iter().copied());

    let mut keep = vec![false; batch.len()];
    match (prefix, residual) {
        (Some(mask), None) => {
            for (i, k) in keep.iter_mut().enumerate() {
                *k = batch.is_selected(i) && mask.t[i];
            }
        }
        (Some(mask), Some(rest)) => {
            for (i, k) in keep.iter_mut().enumerate() {
                if !batch.is_selected(i) || mask.f[i] {
                    continue;
                }
                // Rows where the prefix is TRUE or NULL both evaluate the
                // residual in the row path (NULL AND x still evaluates x),
                // so evaluate it here too — for its errors — and keep the
                // row only when the whole conjunction is true.
                let ok = rest.eval(&batch.row(i)).map_err(|e| (i, e))?.is_true();
                *k = mask.t[i] && ok;
            }
        }
        (None, residual) => {
            let rest = residual.unwrap_or(ScalarExpr::Literal(Value::Bool(true)));
            for (i, k) in keep.iter_mut().enumerate() {
                if batch.is_selected(i) {
                    *k = rest.eval(&batch.row(i)).map_err(|e| (i, e))?.is_true();
                }
            }
        }
    }
    batch.set_selection(Some(keep));
    Ok(())
}

fn cmp_of(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::NotEq => CmpOp::NotEq,
        BinOp::Lt => CmpOp::Lt,
        BinOp::LtEq => CmpOp::LtEq,
        BinOp::Gt => CmpOp::Gt,
        BinOp::GtEq => CmpOp::GtEq,
        _ => return None,
    })
}

/// Evaluate `e` as a vectorized Kleene mask over `batch`, or `None` when
/// `e` is outside the provably error-free grammar (comparisons over
/// in-range columns and literals, composed with AND/OR/NOT/IS NULL and
/// IN over literal lists).
fn vector_mask(e: &ScalarExpr, batch: &Batch) -> Option<Mask> {
    let n = batch.len();
    match e {
        ScalarExpr::Literal(Value::Bool(b)) => Some(Mask::constant(n, Some(*b))),
        ScalarExpr::Literal(Value::Null) => Some(Mask::constant(n, None)),
        ScalarExpr::Not(inner) => Some(vector_mask(inner, batch)?.not()),
        ScalarExpr::IsNull { expr, negated } => match &**expr {
            ScalarExpr::Column(i) if *i < batch.arity() => {
                let col = batch.column(*i);
                let t: Vec<bool> = (0..n).map(|r| col.is_null(r) != *negated).collect();
                let f = t.iter().map(|b| !b).collect();
                Some(Mask { t, f })
            }
            ScalarExpr::Literal(v) => Some(Mask::constant(n, Some(v.is_null() != *negated))),
            _ => None,
        },
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => {
            let lits: Vec<&Value> = list
                .iter()
                .map(|e| match e {
                    ScalarExpr::Literal(v) => Some(v),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            let has_null = lits.iter().any(|v| v.is_null());
            match &**expr {
                ScalarExpr::Column(i) if *i < batch.arity() => {
                    Some(in_list_mask(batch.column(*i), &lits, has_null, *negated, n))
                }
                ScalarExpr::Literal(v) => {
                    let one = ColumnVec::from_values(vec![v.clone()]);
                    let m = in_list_mask(&one, &lits, has_null, *negated, 1);
                    Some(Mask::constant(
                        n,
                        match (m.t[0], m.f[0]) {
                            (true, _) => Some(true),
                            (_, true) => Some(false),
                            _ => None,
                        },
                    ))
                }
                _ => None,
            }
        }
        ScalarExpr::Binary { left, op, right } => {
            if matches!(op, BinOp::And | BinOp::Or) {
                let l = vector_mask(left, batch)?;
                let r = vector_mask(right, batch)?;
                return Some(if *op == BinOp::And { l.and(&r) } else { l.or(&r) });
            }
            let cmp = cmp_of(*op)?;
            cmp_mask(left, cmp, right, batch)
        }
        _ => None,
    }
}

/// Mask for `col [NOT] IN (literals)` with SQL's three-valued semantics:
/// TRUE on any equal candidate, NULL when the operand is NULL or when no
/// candidate matched but one was NULL, FALSE otherwise (both flipped by
/// `negated`).
fn in_list_mask(col: &ColumnVec, lits: &[&Value], has_null: bool, negated: bool, n: usize) -> Mask {
    let mut m = Mask::constant(n, None);
    for r in 0..n {
        let v = col.get(r);
        if v.is_null() {
            continue;
        }
        let hit = lits.iter().any(|c| v.sql_eq(c) == Value::Bool(true));
        match (hit, has_null) {
            (true, _) => {
                if negated {
                    m.f[r] = true;
                } else {
                    m.t[r] = true;
                }
            }
            (false, true) => {}
            (false, false) => {
                if negated {
                    m.t[r] = true;
                } else {
                    m.f[r] = true;
                }
            }
        }
    }
    m
}

/// Mask for `left CMP right` where each side is a column or literal.
fn cmp_mask(left: &ScalarExpr, op: CmpOp, right: &ScalarExpr, batch: &Batch) -> Option<Mask> {
    let n = batch.len();
    match (left, right) {
        (ScalarExpr::Column(i), ScalarExpr::Literal(v)) if *i < batch.arity() => {
            Some(column_lit_mask(batch.column(*i), op, v, n))
        }
        (ScalarExpr::Literal(v), ScalarExpr::Column(i)) if *i < batch.arity() => {
            Some(column_lit_mask(batch.column(*i), op.flip(), v, n))
        }
        (ScalarExpr::Column(i), ScalarExpr::Column(j))
            if *i < batch.arity() && *j < batch.arity() =>
        {
            let (a, b) = (batch.column(*i), batch.column(*j));
            let mut m = Mask::constant(n, None);
            for r in 0..n {
                if let Some(o) = a.get(r).sql_cmp(&b.get(r)) {
                    if op.accepts(o) {
                        m.t[r] = true;
                    } else {
                        m.f[r] = true;
                    }
                }
            }
            Some(m)
        }
        (ScalarExpr::Literal(a), ScalarExpr::Literal(b)) => {
            Some(Mask::constant(n, a.sql_cmp(b).map(|o| op.accepts(o))))
        }
        _ => None,
    }
}

fn column_lit_mask(col: &ColumnVec, op: CmpOp, lit: &Value, n: usize) -> Mask {
    if lit.is_null() {
        // NULL literal: the comparison is NULL for every row.
        return Mask::constant(n, None);
    }
    let pred = ColumnPredicate {
        column: 0,
        op,
        literal: lit.clone(),
    };
    let mut t = vec![true; n];
    pred.and_mask(col, &mut t);
    // With a non-NULL literal the comparison is NULL exactly when the
    // column slot is NULL; everything else not-true is definite FALSE.
    let f = (0..n).map(|i| !t[i] && !col.is_null(i)).collect();
    Mask { t, f }
}

// ---------------------------------------------------------------------------
// Projection.

/// Project a batch. When every output expression is a bare column or a
/// literal the projection is a zero-copy column permutation (plus constant
/// splats); otherwise rows are materialized and evaluated.
fn project_batch(batch: &Batch, exprs: &[ScalarExpr]) -> DtResult<Batch> {
    let simple = exprs.iter().all(|e| match e {
        ScalarExpr::Column(i) => *i < batch.arity(),
        ScalarExpr::Literal(_) => true,
        _ => false,
    });
    if simple {
        let dense = batch.compact();
        let n = dense.len();
        let columns = exprs
            .iter()
            .map(|e| match e {
                ScalarExpr::Column(i) => Arc::clone(dense.column(*i)),
                ScalarExpr::Literal(v) => {
                    Arc::new(ColumnVec::from_values(vec![v.clone(); n]))
                }
                _ => unreachable!("checked simple"),
            })
            .collect();
        return Ok(Batch::new(columns, n));
    }
    let rows = project_rows(&batch.to_rows(), exprs)?;
    Ok(Batch::from_rows(exprs.len(), &rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;

    fn int_batch(vals: &[Option<i64>]) -> Batch {
        let rows: Vec<Row> = vals
            .iter()
            .map(|v| Row::new(vec![v.map(Value::Int).unwrap_or(Value::Null)]))
            .collect();
        Batch::from_rows(1, &rows)
    }

    fn col_gt(i: usize, lit: i64) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(ScalarExpr::col(i)),
            op: BinOp::Gt,
            right: Box::new(ScalarExpr::lit(lit)),
        }
    }

    #[test]
    fn vectorized_filter_matches_row_semantics() {
        let mut b = int_batch(&[Some(1), None, Some(5), Some(3)]);
        filter_batch(&mut b, &col_gt(0, 2)).unwrap();
        assert_eq!(b.to_rows(), vec![row!(5i64), row!(3i64)]);
    }

    #[test]
    fn kleene_or_with_null_operand() {
        // x > 2 OR NULL: true where x > 2, else NULL (not true).
        let pred = ScalarExpr::Binary {
            left: Box::new(col_gt(0, 2)),
            op: BinOp::Or,
            right: Box::new(ScalarExpr::Literal(Value::Null)),
        };
        let mut b = int_batch(&[Some(1), Some(5)]);
        filter_batch(&mut b, &pred).unwrap();
        assert_eq!(b.to_rows(), vec![row!(5i64)]);
    }

    #[test]
    fn not_of_comparison_keeps_nulls_out() {
        // NOT (x > 2): NULL rows stay NULL, so stay filtered out.
        let pred = ScalarExpr::Not(Box::new(col_gt(0, 2)));
        let mut b = int_batch(&[Some(1), None, Some(5)]);
        filter_batch(&mut b, &pred).unwrap();
        assert_eq!(b.to_rows(), vec![row!(1i64)]);
    }

    #[test]
    fn is_null_vectorizes() {
        let pred = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::col(0)),
            negated: false,
        };
        let mut b = int_batch(&[Some(1), None]);
        filter_batch(&mut b, &pred).unwrap();
        assert_eq!(b.to_rows(), vec![Row::new(vec![Value::Null])]);
    }

    #[test]
    fn in_list_vectorizes_with_three_valued_semantics() {
        let in_list = |list: Vec<ScalarExpr>, negated| ScalarExpr::InList {
            expr: Box::new(ScalarExpr::col(0)),
            list,
            negated,
        };
        // x IN (1, 3): plain membership; NULL operand never passes.
        let pred = in_list(vec![ScalarExpr::lit(1i64), ScalarExpr::lit(3i64)], false);
        let mut b = int_batch(&[Some(1), None, Some(2), Some(3)]);
        filter_batch(&mut b, &pred).unwrap();
        assert_eq!(b.to_rows(), vec![row!(1i64), row!(3i64)]);
        // x IN (1, NULL): a NULL candidate turns misses into NULL, so only
        // the definite hit survives.
        let pred = in_list(
            vec![ScalarExpr::lit(1i64), ScalarExpr::Literal(Value::Null)],
            false,
        );
        let mut b = int_batch(&[Some(1), Some(2), None]);
        filter_batch(&mut b, &pred).unwrap();
        assert_eq!(b.to_rows(), vec![row!(1i64)]);
        // x NOT IN (1, NULL): hits become definite FALSE, misses NULL —
        // nothing survives.
        let pred = in_list(
            vec![ScalarExpr::lit(1i64), ScalarExpr::Literal(Value::Null)],
            true,
        );
        let mut b = int_batch(&[Some(1), Some(2), None]);
        filter_batch(&mut b, &pred).unwrap();
        assert_eq!(b.to_rows(), Vec::<Row>::new());
        // x NOT IN (1, 3) without NULLs behaves as the complement.
        let pred = in_list(vec![ScalarExpr::lit(1i64), ScalarExpr::lit(3i64)], true);
        let mut b = int_batch(&[Some(1), Some(2), None, Some(3)]);
        filter_batch(&mut b, &pred).unwrap();
        assert_eq!(b.to_rows(), vec![row!(2i64)]);
        // NOT (x IN ...) mask-negation path agrees with the direct form.
        let direct = in_list(vec![ScalarExpr::lit(2i64)], true);
        let negation = ScalarExpr::Not(Box::new(in_list(vec![ScalarExpr::lit(2i64)], false)));
        let mut a = int_batch(&[Some(1), Some(2), None]);
        let mut b = int_batch(&[Some(1), Some(2), None]);
        filter_batch(&mut a, &direct).unwrap();
        filter_batch(&mut b, &negation).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn residual_errors_surface_only_for_rows_passing_the_prefix() {
        // x > 2 AND 1/(x-3) > 0: the row path short-circuits the division
        // for x=1 (prefix false) but evaluates — and errors — for x=3.
        let div = ScalarExpr::Binary {
            left: Box::new(ScalarExpr::Binary {
                left: Box::new(ScalarExpr::lit(1i64)),
                op: BinOp::Div,
                right: Box::new(ScalarExpr::Binary {
                    left: Box::new(ScalarExpr::col(0)),
                    op: BinOp::Sub,
                    right: Box::new(ScalarExpr::lit(3i64)),
                }),
            }),
            op: BinOp::Gt,
            right: Box::new(ScalarExpr::lit(0i64)),
        };
        let and = |l: ScalarExpr, r: ScalarExpr| ScalarExpr::Binary {
            left: Box::new(l),
            op: BinOp::And,
            right: Box::new(r),
        };
        // Only prefix-false rows: no error, row filtered by prefix.
        let mut ok = int_batch(&[Some(1), Some(2)]);
        filter_batch(&mut ok, &and(col_gt(0, 2), div.clone())).unwrap();
        assert!(ok.to_rows().is_empty());
        // A row passing the prefix with x=3 must error, as in the row path.
        let mut bad = int_batch(&[Some(1), Some(3)]);
        let err = filter_batch(&mut bad, &and(col_gt(0, 2), div));
        assert!(err.is_err());
    }

    #[test]
    fn zero_copy_projection_shares_columns() {
        let b = int_batch(&[Some(1), Some(2)]);
        let p = project_batch(&b, &[ScalarExpr::col(0), ScalarExpr::lit(7i64)]).unwrap();
        assert!(Arc::ptr_eq(p.column(0), b.column(0)));
        assert_eq!(p.to_rows(), vec![row!(1i64, 7i64), row!(2i64, 7i64)]);
    }

    #[test]
    fn limit_truncates_within_a_batch() {
        use dt_common::EntityId;
        use std::sync::Arc as StdArc;
        let mut p = crate::executor::MapProvider::new();
        p.insert(EntityId(1), vec![row!(1i64), row!(2i64), row!(3i64)]);
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::TableScan {
                entity: EntityId(1),
                name: "t".into(),
                schema: StdArc::new(dt_common::Schema::new(vec![dt_common::Column::new(
                    "x",
                    dt_common::DataType::Int,
                )])),
                pushdown: None,
            }),
            n: 2,
        };
        let out = flatten(execute_batches(&plan, &p).unwrap());
        assert_eq!(out, vec![row!(1i64), row!(2i64)]);
    }
}
