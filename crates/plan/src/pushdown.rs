//! Filter pushdown: move conjuncts below joins and into table scans.
//!
//! [`push_down_filters`] rewrites `Filter` nodes. The predicate is split
//! at its top-level `AND`s and each conjunct sinks as far as it can:
//!
//! * **Through a join.** A conjunct that reads one input only moves to
//!   that input when the join cannot re-introduce the rows it rejects:
//!   either input of an `INNER` join, the preserved (left) input of a
//!   `LEFT` join, the preserved (right) input of a `RIGHT` join, nothing
//!   below a `FULL` join. A conjunct on the NULL-padded side stays above
//!   the join — `WHERE r.x IS NULL` over a `LEFT` join selects exactly the
//!   padded rows. Only conjuncts that can never raise
//!   ([`ScalarExpr::is_infallible_predicate`]) move: below the join a
//!   predicate also sees the rows that find no partner, and an expression
//!   that errors on one of those would fail a query that succeeds today.
//! * **Into a scan.** Conjuncts of the form `column OP literal` (either
//!   orientation) become a [`PredicateSet`] on the scan, which storage
//!   evaluates vectorized and prunes partitions with.
//!
//! Whatever cannot sink stays behind as the residual filter, in its
//! original order — so a conjunct a scan *can't* apply is never lost.
//! With everything pushed, the filter node disappears entirely.
//!
//! Only comparisons against literals are pushable — run the rewrite
//! *after* [`LogicalPlan::bind_params`], so prepared-statement parameters
//! have already become literals and get pushed too. (An unbound
//! `Parameter` is simply not pushable; the rewrite is safe either way.)
//!
//! Note on evaluation order: SQL leaves conjunct evaluation order
//! unspecified. Pushing a conjunct means rows it rejects never reach the
//! residual, so a residual that would *error* on such a row (e.g.
//! `1/x = 1 AND x > 0` at `x = 0`) no longer does. Result rows are always
//! identical, and in identical order; only error surfacing on rejected
//! rows can differ, exactly as in any engine with scan-level filtering.

use std::sync::Arc;

use dt_common::{CmpOp, ColumnPredicate, PredicateSet};

use crate::expr::{BinOp, ScalarExpr};
use crate::join_keys::{join_side, JoinSide};
use crate::plan::{JoinType, LogicalPlan};

/// Rewrite the plan bottom-up, sinking the conjuncts of every `Filter`
/// through joins and into scans. Pure function: returns the rewritten
/// plan.
pub fn push_down_filters(plan: &LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let conjuncts: Vec<ScalarExpr> = predicate.conjuncts().into_iter().cloned().collect();
            push_filter(input, conjuncts)
        }
        LogicalPlan::TableScan { .. } | LogicalPlan::SingleRow => plan.clone(),
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(push_down_filters(input)),
            exprs: exprs.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(push_down_filters(left)),
            right: Box::new(push_down_filters(right)),
            join_type: *join_type,
            on: on.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::UnionAll { inputs, schema } => LogicalPlan::UnionAll {
            inputs: inputs.iter().map(push_down_filters).collect(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(push_down_filters(input)),
            group_exprs: group_exprs.clone(),
            aggregates: aggregates.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(push_down_filters(input)),
        },
        LogicalPlan::Window {
            input,
            exprs,
            schema,
        } => LogicalPlan::Window {
            input: Box::new(push_down_filters(input)),
            exprs: exprs.clone(),
            schema: Arc::clone(schema),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(push_down_filters(input)),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(push_down_filters(input)),
            n: *n,
        },
    }
}

/// The rewritten form of `Filter(input, AND(conjuncts))`, `input` not yet
/// rewritten.
fn push_filter(input: &LogicalPlan, conjuncts: Vec<ScalarExpr>) -> LogicalPlan {
    let (rewritten, residual) = match input {
        LogicalPlan::TableScan {
            entity,
            name,
            schema,
            pushdown,
        } => {
            let mut pushed = pushdown.clone().unwrap_or_default().preds;
            let mut residual = Vec::new();
            for c in conjuncts {
                match as_column_predicate(&c) {
                    Some(p) => pushed.push(p),
                    None => residual.push(c),
                }
            }
            let scan = LogicalPlan::TableScan {
                entity: *entity,
                name: name.clone(),
                schema: Arc::clone(schema),
                pushdown: (!pushed.is_empty()).then(|| PredicateSet::new(pushed)),
            };
            (scan, residual)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            schema,
        } => {
            let left_arity = left.schema().len();
            let (mut to_left, mut to_right, mut residual) = (Vec::new(), Vec::new(), Vec::new());
            for c in conjuncts {
                let side = if c.is_infallible_predicate() {
                    join_side(&c, left_arity)
                } else {
                    JoinSide::Both
                };
                match (side, join_type) {
                    (JoinSide::Left, JoinType::Inner | JoinType::Left) => to_left.push(c),
                    (JoinSide::Right, JoinType::Inner | JoinType::Right) => {
                        to_right.push(c.map_columns(&|i| i - left_arity))
                    }
                    _ => residual.push(c),
                }
            }
            let join = LogicalPlan::Join {
                left: Box::new(push_filter(left, to_left)),
                right: Box::new(push_filter(right, to_right)),
                join_type: *join_type,
                on: on.clone(),
                schema: Arc::clone(schema),
            };
            (join, residual)
        }
        // Conjuncts arriving from above a join meet a filter that was
        // already on that input: sink them together. They go first, which
        // is safe because they cannot raise and only narrows the rows the
        // older conjuncts see.
        LogicalPlan::Filter {
            input: inner,
            predicate,
        } if conjuncts.iter().all(ScalarExpr::is_infallible_predicate) => {
            let mut all = conjuncts;
            all.extend(predicate.conjuncts().into_iter().cloned());
            return push_filter(inner, all);
        }
        other => (push_down_filters(other), conjuncts),
    };
    match ScalarExpr::and_all(&residual) {
        // Everything pushed: the filter node dissolves (its schema equals
        // its input's, so shapes are unchanged).
        None => rewritten,
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(rewritten),
            predicate,
        },
    }
}

/// `col OP literal` / `literal OP col` → a pushable [`ColumnPredicate`].
fn as_column_predicate(e: &ScalarExpr) -> Option<ColumnPredicate> {
    let ScalarExpr::Binary { left, op, right } = e else {
        return None;
    };
    let op = cmp_of(*op)?;
    match (left.as_ref(), right.as_ref()) {
        (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => Some(ColumnPredicate {
            column: *c,
            op,
            literal: v.clone(),
        }),
        (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => Some(ColumnPredicate {
            column: *c,
            op: op.flip(),
            literal: v.clone(),
        }),
        _ => None,
    }
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

/// The pushed-predicate set of a scan, if any (bench/test introspection).
pub fn scan_pushdown(plan: &LogicalPlan) -> Option<&PredicateSet> {
    match plan {
        LogicalPlan::TableScan { pushdown, .. } => pushdown.as_ref(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{Column, DataType, EntityId, Schema, Value};
    use std::sync::Arc;

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            entity: EntityId(1),
            name: "t".into(),
            schema: Arc::new(Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("y", DataType::Int),
            ])),
            pushdown: None,
        }
    }

    fn bin(l: ScalarExpr, op: BinOp, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn fully_pushable_filter_dissolves() {
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(5i64)),
        };
        let out = push_down_filters(&p);
        let LogicalPlan::TableScan { pushdown, .. } = &out else {
            panic!("filter should dissolve into the scan: {out:?}");
        };
        let ps = pushdown.as_ref().unwrap();
        assert_eq!(ps.preds.len(), 1);
        assert_eq!(ps.preds[0].column, 0);
        assert_eq!(ps.preds[0].op, CmpOp::Gt);
        assert_eq!(ps.preds[0].literal, Value::Int(5));
        assert_eq!(out.schema(), p.schema());
    }

    #[test]
    fn flipped_literal_orientation_is_normalized() {
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: bin(ScalarExpr::lit(5i64), BinOp::Lt, ScalarExpr::col(1)),
        };
        let out = push_down_filters(&p);
        let LogicalPlan::TableScan { pushdown, .. } = &out else {
            panic!()
        };
        let p0 = &pushdown.as_ref().unwrap().preds[0];
        // 5 < y  ≡  y > 5
        assert_eq!((p0.column, p0.op), (1, CmpOp::Gt));
    }

    #[test]
    fn mixed_conjunction_keeps_residual() {
        // x > 5 AND x + y = 3: first conjunct pushes, second stays.
        let pushable = bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(5i64));
        let residual = bin(
            bin(ScalarExpr::col(0), BinOp::Add, ScalarExpr::col(1)),
            BinOp::Eq,
            ScalarExpr::lit(3i64),
        );
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: bin(pushable, BinOp::And, residual.clone()),
        };
        let out = push_down_filters(&p);
        let LogicalPlan::Filter { input, predicate } = &out else {
            panic!("residual filter must remain: {out:?}");
        };
        assert_eq!(*predicate, residual);
        let LogicalPlan::TableScan { pushdown, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(pushdown.as_ref().unwrap().preds.len(), 1);
    }

    #[test]
    fn or_and_non_literal_comparisons_do_not_push() {
        for pred in [
            // OR is not a conjunction.
            bin(
                bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(1i64)),
                BinOp::Or,
                bin(ScalarExpr::col(1), BinOp::Gt, ScalarExpr::lit(1i64)),
            ),
            // column-vs-column.
            bin(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::col(1)),
            // unbound parameter.
            bin(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::Parameter(0)),
        ] {
            let p = LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: pred.clone(),
            };
            let out = push_down_filters(&p);
            assert_eq!(out, p, "{pred:?} must not push");
        }
    }

    #[test]
    fn filters_above_non_scans_are_untouched() {
        let p = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Distinct {
                input: Box::new(scan()),
            }),
            predicate: bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(5i64)),
        };
        assert_eq!(push_down_filters(&p), p);
    }

    fn join(join_type: JoinType) -> LogicalPlan {
        let other = LogicalPlan::TableScan {
            entity: EntityId(2),
            name: "u".into(),
            schema: Arc::new(Schema::new(vec![Column::new("z", DataType::Int)])),
            pushdown: None,
        };
        let mut columns = scan().schema().columns().to_vec();
        columns.extend(other.schema().columns().iter().cloned());
        LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(other),
            join_type,
            on: bin(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::col(2)),
            schema: Arc::new(Schema::new(columns)),
        }
    }

    /// Push `WHERE x > 1 AND z < 9 AND x + z = 4` over a join of `join_type`
    /// and report (left scan's pushdown, right scan's pushdown, residual).
    fn pushed_over(join_type: JoinType) -> (Option<String>, Option<String>, Option<String>) {
        let on_left = bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(1i64));
        let on_right = bin(ScalarExpr::col(2), BinOp::Lt, ScalarExpr::lit(9i64));
        let on_both = bin(
            bin(ScalarExpr::col(0), BinOp::Add, ScalarExpr::col(2)),
            BinOp::Eq,
            ScalarExpr::lit(4i64),
        );
        let p = LogicalPlan::Filter {
            input: Box::new(join(join_type)),
            predicate: ScalarExpr::and_all([&on_left, &on_right, &on_both]).unwrap(),
        };
        let out = push_down_filters(&p);
        assert_eq!(out.schema(), p.schema());
        let (join, residual) = match &out {
            LogicalPlan::Filter { input, predicate } => (input.as_ref(), Some(predicate.to_string())),
            other => (other, None),
        };
        let LogicalPlan::Join { left, right, .. } = join else {
            panic!("join must stay in place: {out:?}");
        };
        let text = |p: &LogicalPlan| scan_pushdown(p).map(|ps| ps.to_string());
        (text(left), text(right), residual)
    }

    #[test]
    fn one_sided_conjuncts_sink_through_an_inner_join_into_the_scans() {
        let (left, right, residual) = pushed_over(JoinType::Inner);
        assert_eq!(left.as_deref(), Some("#0 > 1"));
        // Rebased to the right input's own column numbering.
        assert_eq!(right.as_deref(), Some("#0 < 9"));
        assert_eq!(residual.as_deref(), Some("((#0 Add #2) Eq 4)"));
    }

    #[test]
    fn outer_joins_only_let_the_preserved_side_through() {
        let (left, right, residual) = pushed_over(JoinType::Left);
        assert_eq!((left.as_deref(), right), (Some("#0 > 1"), None));
        assert_eq!(
            residual.as_deref(),
            Some("((#2 Lt 9) And ((#0 Add #2) Eq 4))")
        );
        let (left, right, _) = pushed_over(JoinType::Right);
        assert_eq!((left, right.as_deref()), (None, Some("#0 < 9")));
        let (left, right, _) = pushed_over(JoinType::Full);
        assert_eq!((left, right), (None, None));
    }

    #[test]
    fn a_conjunct_that_can_raise_stays_above_the_join() {
        // 10 / x > 1 reads the left input only, but below the join it
        // would also divide by the x of rows that find no partner.
        let fallible = bin(
            bin(ScalarExpr::lit(10i64), BinOp::Div, ScalarExpr::col(0)),
            BinOp::Gt,
            ScalarExpr::lit(1i64),
        );
        let p = LogicalPlan::Filter {
            input: Box::new(join(JoinType::Inner)),
            predicate: fallible,
        };
        assert_eq!(push_down_filters(&p), p);
    }

    #[test]
    fn pushed_conjuncts_merge_with_a_filter_already_on_that_input() {
        // Filter(Join(Filter(scan, y = 3 AND x + y > 0), u), x > 1): both
        // pushable conjuncts reach the scan, the arithmetic one stays.
        let LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            schema,
        } = join(JoinType::Inner)
        else {
            panic!()
        };
        let arithmetic = bin(
            bin(ScalarExpr::col(0), BinOp::Add, ScalarExpr::col(1)),
            BinOp::Gt,
            ScalarExpr::lit(0i64),
        );
        let filtered_left = LogicalPlan::Filter {
            input: left,
            predicate: bin(
                bin(ScalarExpr::col(1), BinOp::Eq, ScalarExpr::lit(3i64)),
                BinOp::And,
                arithmetic.clone(),
            ),
        };
        let p = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(filtered_left),
                right,
                join_type,
                on,
                schema,
            }),
            predicate: bin(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(1i64)),
        };
        let LogicalPlan::Join { left, .. } = push_down_filters(&p) else {
            panic!("outer filter must dissolve")
        };
        let LogicalPlan::Filter { input, predicate } = *left else {
            panic!("arithmetic conjunct must stay on the left input")
        };
        assert_eq!(predicate, arithmetic);
        assert_eq!(scan_pushdown(&input).unwrap().to_string(), "#0 > 1 AND #1 = 3");
    }

    #[test]
    fn explain_shows_pushdown() {
        let p = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: bin(ScalarExpr::col(0), BinOp::GtEq, ScalarExpr::lit(2i64)),
        };
        let text = push_down_filters(&p).explain();
        assert!(text.contains("Scan t [pushdown: #0 >= 2]"), "{text}");
    }
}
