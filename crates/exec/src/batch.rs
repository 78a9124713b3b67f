//! The batch-at-a-time pipeline: operators consume and produce columnar
//! [`Batch`]es; rows are materialized only at operator boundaries that are
//! still row-shaped (window functions, sorting) and at the top of the
//! plan, so `ExecResult` and the SQL surface are unchanged.
//!
//! Filters and projections evaluate their expressions with [`eval_column`],
//! the one evaluator every batch operator uses: a bare column is shared, a
//! literal splatted, anything else evaluated by the row interpreter's
//! `ScalarExpr::eval` once per live row, and [`FirstError`] reports the
//! error of the earliest failing row. So a filter keeps exactly the rows,
//! and raises exactly the error, of the row path's `Filter`, and a
//! projection gives the row path's rows without copying the columns it
//! passes through.

use dt_common::{Batch, DtResult, Row};
use dt_plan::{LogicalPlan, ScalarExpr};

use crate::aggregate::execute_aggregate_batches;
use crate::executor::{sort_rows, TableProvider};
use crate::join::execute_join_batches;
use crate::keys::{eval_column, try_eval_columns, FirstError, KeyTable};
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
// Filter and projection: expressions through `eval_column`.

/// Narrow `batch`'s selection to the rows where `predicate` is TRUE, with
/// the row interpreter's result and, at the earliest failing row, its
/// error (the selection is then left as it was).
fn filter_batch(batch: &mut Batch, predicate: &ScalarExpr) -> DtResult<()> {
    let rows = batch.live_indices();
    let mut first = FirstError::new(rows.len());
    let verdict = eval_column(predicate, batch, &rows, &mut first);
    first.finish()?;
    let mut keep = vec![false; batch.len()];
    for i in rows {
        keep[i] = verdict.get(i).is_true();
    }
    batch.set_selection(Some(keep));
    Ok(())
}

/// Project a batch: each output column is [`eval_column`] over the dense
/// batch, so bare columns stay shared and literals are splatted.
fn project_batch(batch: &Batch, exprs: &[ScalarExpr]) -> DtResult<Batch> {
    let dense = batch.compact();
    let rows: Vec<usize> = (0..dense.len()).collect();
    Ok(Batch::new(try_eval_columns(exprs, &dense, &rows)?, dense.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::project_rows;
    use dt_common::{row, Value};
    use dt_plan::BinOp;
    use std::sync::Arc;

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
    fn computed_projection_shares_bare_columns() {
        let b = int_batch(&[Some(1), None, Some(5)]);
        let exprs = [
            ScalarExpr::col(0),
            ScalarExpr::Binary {
                left: Box::new(ScalarExpr::col(0)),
                op: BinOp::Add,
                right: Box::new(ScalarExpr::lit(1i64)),
            },
        ];
        let p = project_batch(&b, &exprs).unwrap();
        assert!(Arc::ptr_eq(p.column(0), b.column(0)));
        assert_eq!(p.to_rows(), project_rows(&b.to_rows(), &exprs).unwrap());
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
