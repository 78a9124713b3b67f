//! Logical plans.

use std::collections::BTreeMap;
use std::sync::Arc;

use dt_common::{DtResult, EntityId, PredicateSet, Schema, Value};

use crate::expr::{AggExpr, ScalarExpr, WindowExpr};

/// Join types (bound form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
    /// Right outer join.
    Right,
    /// Full outer join.
    Full,
}

impl JoinType {
    /// True for any outer join.
    pub fn is_outer(self) -> bool {
        !matches!(self, JoinType::Inner)
    }
}

/// A bound, typed logical plan. Every node carries its output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a stored table (base table or DT contents).
    TableScan {
        /// The catalog entity scanned.
        entity: EntityId,
        /// Entity name (for debugging / EXPLAIN).
        name: String,
        /// Output schema.
        schema: Arc<Schema>,
        /// Column-vs-constant conjuncts pushed below the scan by
        /// [`crate::pushdown::push_down_filters`]. Storage applies them
        /// vectorized and uses them to zone-map-prune partitions. `None`
        /// until the rewrite runs (the binder never sets them).
        pushdown: Option<PredicateSet>,
    },
    /// A single empty row (FROM-less SELECT).
    SingleRow,
    /// Filter rows by a boolean predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The predicate.
        predicate: ScalarExpr,
    },
    /// Compute projections.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Projection expressions.
        exprs: Vec<ScalarExpr>,
        /// Output schema (names chosen by the binder).
        schema: Arc<Schema>,
    },
    /// Join two inputs on a predicate over the concatenated row.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join type.
        join_type: JoinType,
        /// ON condition over `left ++ right` columns.
        on: ScalarExpr,
        /// Output schema (left columns then right columns).
        schema: Arc<Schema>,
    },
    /// Bag union (UNION ALL). All inputs share the first input's schema.
    UnionAll {
        /// The inputs.
        inputs: Vec<LogicalPlan>,
        /// Output schema.
        schema: Arc<Schema>,
    },
    /// Grouped aggregation. Output = group key columns then aggregates.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group key expressions (may be empty for scalar aggregation,
        /// which is NOT differentiable in our engine — matching §3.3.2,
        /// where scalar aggregates are unsupported for incremental mode).
        group_exprs: Vec<ScalarExpr>,
        /// Aggregate expressions.
        aggregates: Vec<AggExpr>,
        /// Output schema.
        schema: Arc<Schema>,
    },
    /// Set-ify the bag (SELECT DISTINCT).
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Compute window functions; appends one column per expression.
    Window {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The window expressions.
        exprs: Vec<WindowExpr>,
        /// Output schema: input columns then window columns.
        schema: Arc<Schema>,
    },
    /// Sort (top-level ORDER BY). Not differentiable.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys over the input schema (expr, descending).
        keys: Vec<(ScalarExpr, bool)>,
    },
    /// Row-count limit. Not differentiable.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Max rows.
        n: u64,
    },
}

impl LogicalPlan {
    /// The output schema of this plan.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            LogicalPlan::TableScan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::UnionAll { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Window { schema, .. } => Arc::clone(schema),
            LogicalPlan::SingleRow => Arc::new(Schema::empty()),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Direct children.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. } | LogicalPlan::SingleRow => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Pre-order visit of the whole plan tree.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a LogicalPlan)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// All entities scanned by this plan (the DT's upstream set, §5.4).
    pub fn scanned_entities(&self) -> Vec<EntityId> {
        let mut out = Vec::new();
        self.walk(&mut |p| {
            if let LogicalPlan::TableScan { entity, .. } = p {
                out.push(*entity);
            }
        });
        out.sort();
        out.dedup();
        out
    }

    /// True when every operator in the plan has a differentiation rule
    /// (§3.3.2's supported set). Sort and Limit are the unsupported ones in
    /// this engine; scalar (group-less) aggregates are also excluded, as in
    /// the paper.
    pub fn is_differentiable(&self) -> bool {
        let mut ok = true;
        self.walk(&mut |p| match p {
            LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => ok = false,
            LogicalPlan::Aggregate { group_exprs, .. } if group_exprs.is_empty() => ok = false,
            // §5.5.1: the window derivative requires PARTITION BY.
            LogicalPlan::Window { exprs, .. }
                if exprs.iter().any(|w| w.partition_by.is_empty()) =>
            {
                ok = false
            }
            _ => {}
        });
        ok
    }

    /// Every scalar expression referenced anywhere in this node (not
    /// recursing into children).
    fn node_exprs(&self) -> Vec<&ScalarExpr> {
        match self {
            LogicalPlan::TableScan { .. } | LogicalPlan::SingleRow => vec![],
            LogicalPlan::Filter { predicate, .. } => vec![predicate],
            LogicalPlan::Project { exprs, .. } => exprs.iter().collect(),
            LogicalPlan::Join { on, .. } => vec![on],
            LogicalPlan::UnionAll { .. } | LogicalPlan::Distinct { .. } => vec![],
            LogicalPlan::Aggregate {
                group_exprs,
                aggregates,
                ..
            } => group_exprs
                .iter()
                .chain(aggregates.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
            LogicalPlan::Window { exprs, .. } => exprs
                .iter()
                .flat_map(|w| {
                    w.arg
                        .iter()
                        .chain(w.partition_by.iter())
                        .chain(w.order_by.iter().map(|(e, _)| e))
                })
                .collect(),
            LogicalPlan::Sort { keys, .. } => keys.iter().map(|(e, _)| e).collect(),
            LogicalPlan::Limit { .. } => vec![],
        }
    }

    /// The largest `?` parameter index referenced anywhere in the plan
    /// (None when the plan is parameter-free and directly executable).
    pub fn max_parameter(&self) -> Option<usize> {
        let mut max: Option<usize> = None;
        self.walk(&mut |p| {
            for e in p.node_exprs() {
                if let Some(i) = e.max_parameter() {
                    max = Some(max.map_or(i, |m| m.max(i)));
                }
            }
        });
        max
    }

    /// Bind `?` parameters: returns a copy of the plan with every
    /// [`ScalarExpr::Parameter`] replaced by the corresponding literal.
    /// Errors when a parameter index exceeds `params` (too few bindings).
    /// Shared `Arc<Schema>`s are reused, so binding is cheap relative to
    /// lexing/parsing/binding the statement from scratch. Known limitation:
    /// schemas are *not* recomputed, so a column whose type is only known
    /// at bind time (e.g. a bare `SELECT ?`) keeps the planning-time
    /// STRING placeholder type in the output schema even though the rows
    /// carry the bound value's real type. Parameters in predicates and
    /// arithmetic — the normal usage — are unaffected.
    pub fn bind_params(&self, params: &[Value]) -> DtResult<LogicalPlan> {
        Ok(match self {
            LogicalPlan::TableScan { .. } | LogicalPlan::SingleRow => self.clone(),
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(input.bind_params(params)?),
                predicate: predicate.bind_params(params)?,
            },
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => LogicalPlan::Project {
                input: Box::new(input.bind_params(params)?),
                exprs: exprs
                    .iter()
                    .map(|e| e.bind_params(params))
                    .collect::<DtResult<_>>()?,
                schema: Arc::clone(schema),
            },
            LogicalPlan::Join {
                left,
                right,
                join_type,
                on,
                schema,
            } => LogicalPlan::Join {
                left: Box::new(left.bind_params(params)?),
                right: Box::new(right.bind_params(params)?),
                join_type: *join_type,
                on: on.bind_params(params)?,
                schema: Arc::clone(schema),
            },
            LogicalPlan::UnionAll { inputs, schema } => LogicalPlan::UnionAll {
                inputs: inputs
                    .iter()
                    .map(|p| p.bind_params(params))
                    .collect::<DtResult<_>>()?,
                schema: Arc::clone(schema),
            },
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                schema,
            } => LogicalPlan::Aggregate {
                input: Box::new(input.bind_params(params)?),
                group_exprs: group_exprs
                    .iter()
                    .map(|e| e.bind_params(params))
                    .collect::<DtResult<_>>()?,
                aggregates: aggregates
                    .iter()
                    .map(|a| {
                        Ok(AggExpr {
                            func: a.func,
                            arg: match &a.arg {
                                Some(e) => Some(e.bind_params(params)?),
                                None => None,
                            },
                            distinct: a.distinct,
                            name: a.name.clone(),
                        })
                    })
                    .collect::<DtResult<_>>()?,
                schema: Arc::clone(schema),
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(input.bind_params(params)?),
            },
            LogicalPlan::Window {
                input,
                exprs,
                schema,
            } => LogicalPlan::Window {
                input: Box::new(input.bind_params(params)?),
                exprs: exprs
                    .iter()
                    .map(|w| {
                        Ok(WindowExpr {
                            func: w.func,
                            arg: match &w.arg {
                                Some(e) => Some(e.bind_params(params)?),
                                None => None,
                            },
                            partition_by: w
                                .partition_by
                                .iter()
                                .map(|e| e.bind_params(params))
                                .collect::<DtResult<_>>()?,
                            order_by: w
                                .order_by
                                .iter()
                                .map(|(e, d)| Ok((e.bind_params(params)?, *d)))
                                .collect::<DtResult<_>>()?,
                            name: w.name.clone(),
                        })
                    })
                    .collect::<DtResult<_>>()?,
                schema: Arc::clone(schema),
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(input.bind_params(params)?),
                keys: keys
                    .iter()
                    .map(|(e, d)| Ok((e.bind_params(params)?, *d)))
                    .collect::<DtResult<_>>()?,
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: Box::new(input.bind_params(params)?),
                n: *n,
            },
        })
    }

    /// A one-line-per-node EXPLAIN rendering.
    pub fn explain(&self) -> String {
        self.explain_with(&mut |_| None)
    }

    /// [`LogicalPlan::explain`] with a line of `note`'s under each node it
    /// has one for (nodes are asked in the order they print).
    pub fn explain_with(&self, note: &mut dyn FnMut(&LogicalPlan) -> Option<String>) -> String {
        fn go(
            p: &LogicalPlan,
            depth: usize,
            out: &mut String,
            note: &mut dyn FnMut(&LogicalPlan) -> Option<String>,
        ) {
            let pad = "  ".repeat(depth);
            let line = match p {
                LogicalPlan::TableScan { name, pushdown, .. } => match pushdown {
                    Some(ps) if !ps.is_empty() => format!("Scan {name} [pushdown: {ps}]"),
                    _ => format!("Scan {name}"),
                },
                LogicalPlan::SingleRow => "SingleRow".to_string(),
                LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
                LogicalPlan::Project { exprs, .. } => format!("Project [{} exprs]", exprs.len()),
                LogicalPlan::Join { join_type, on, .. } => format!("{join_type:?}Join on {on}"),
                LogicalPlan::UnionAll { inputs, .. } => {
                    format!("UnionAll [{} inputs]", inputs.len())
                }
                LogicalPlan::Aggregate {
                    group_exprs,
                    aggregates,
                    ..
                } => format!(
                    "Aggregate [{} keys, {} aggs]",
                    group_exprs.len(),
                    aggregates.len()
                ),
                LogicalPlan::Distinct { .. } => "Distinct".to_string(),
                LogicalPlan::Window { exprs, .. } => format!("Window [{} fns]", exprs.len()),
                LogicalPlan::Sort { keys, .. } => format!("Sort [{} keys]", keys.len()),
                LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
            };
            out.push_str(&pad);
            out.push_str(&line);
            out.push('\n');
            if let Some(note) = note(p) {
                out.push_str(&format!("{pad}  · {note}\n"));
            }
            for c in p.children() {
                go(c, depth + 1, out, note);
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s, note);
        s
    }
}

/// Operator kinds counted by the Figure 6 census.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OperatorKind {
    /// Table scan.
    Scan,
    /// Filter.
    Filter,
    /// Projection.
    Project,
    /// Inner join.
    InnerJoin,
    /// Any outer join.
    OuterJoin,
    /// UNION ALL.
    UnionAll,
    /// Grouped aggregation.
    Aggregate,
    /// DISTINCT.
    Distinct,
    /// Window function.
    Window,
    /// Sort.
    Sort,
    /// Limit.
    Limit,
}

impl OperatorKind {
    /// Display name matching the figure's axis labels.
    pub fn name(self) -> &'static str {
        match self {
            OperatorKind::Scan => "scan",
            OperatorKind::Filter => "filter",
            OperatorKind::Project => "project",
            OperatorKind::InnerJoin => "inner join",
            OperatorKind::OuterJoin => "outer join",
            OperatorKind::UnionAll => "union all",
            OperatorKind::Aggregate => "aggregate",
            OperatorKind::Distinct => "distinct",
            OperatorKind::Window => "window function",
            OperatorKind::Sort => "sort",
            OperatorKind::Limit => "limit",
        }
    }
}

/// Count operator occurrences in a plan — the measurement behind Figure 6
/// (frequency of each operator in the definitions of incremental DTs).
pub fn operator_census(plan: &LogicalPlan) -> BTreeMap<OperatorKind, usize> {
    let mut counts = BTreeMap::new();
    plan.walk(&mut |p| {
        let kind = match p {
            LogicalPlan::TableScan { .. } => OperatorKind::Scan,
            LogicalPlan::SingleRow => return,
            LogicalPlan::Filter { .. } => OperatorKind::Filter,
            LogicalPlan::Project { .. } => OperatorKind::Project,
            LogicalPlan::Join { join_type, .. } => {
                if join_type.is_outer() {
                    OperatorKind::OuterJoin
                } else {
                    OperatorKind::InnerJoin
                }
            }
            LogicalPlan::UnionAll { .. } => OperatorKind::UnionAll,
            LogicalPlan::Aggregate { .. } => OperatorKind::Aggregate,
            LogicalPlan::Distinct { .. } => OperatorKind::Distinct,
            LogicalPlan::Window { .. } => OperatorKind::Window,
            LogicalPlan::Sort { .. } => OperatorKind::Sort,
            LogicalPlan::Limit { .. } => OperatorKind::Limit,
        };
        *counts.entry(kind).or_insert(0) += 1;
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{Column, DataType};

    fn scan(id: u64) -> LogicalPlan {
        LogicalPlan::TableScan {
            entity: EntityId(id),
            name: format!("t{id}"),
            schema: Arc::new(Schema::new(vec![Column::new("x", DataType::Int)])),
            pushdown: None,
        }
    }

    #[test]
    fn scanned_entities_dedup() {
        let p = LogicalPlan::Join {
            left: Box::new(scan(1)),
            right: Box::new(scan(1)),
            join_type: JoinType::Inner,
            on: ScalarExpr::lit(true),
            schema: Arc::new(Schema::empty()),
        };
        assert_eq!(p.scanned_entities(), vec![EntityId(1)]);
    }

    #[test]
    fn differentiability_rules() {
        assert!(scan(1).is_differentiable());
        let sorted = LogicalPlan::Sort {
            input: Box::new(scan(1)),
            keys: vec![],
        };
        assert!(!sorted.is_differentiable());
        let limited = LogicalPlan::Limit {
            input: Box::new(scan(1)),
            n: 5,
        };
        assert!(!limited.is_differentiable());
        // Scalar aggregate (no group keys) is not differentiable.
        let scalar_agg = LogicalPlan::Aggregate {
            input: Box::new(scan(1)),
            group_exprs: vec![],
            aggregates: vec![],
            schema: Arc::new(Schema::empty()),
        };
        assert!(!scalar_agg.is_differentiable());
    }

    #[test]
    fn census_counts_join_flavors() {
        let p = LogicalPlan::Join {
            left: Box::new(scan(1)),
            right: Box::new(LogicalPlan::Join {
                left: Box::new(scan(2)),
                right: Box::new(scan(3)),
                join_type: JoinType::Left,
                on: ScalarExpr::lit(true),
                schema: Arc::new(Schema::empty()),
            }),
            join_type: JoinType::Inner,
            on: ScalarExpr::lit(true),
            schema: Arc::new(Schema::empty()),
        };
        let census = operator_census(&p);
        assert_eq!(census[&OperatorKind::InnerJoin], 1);
        assert_eq!(census[&OperatorKind::OuterJoin], 1);
        assert_eq!(census[&OperatorKind::Scan], 3);
    }

    #[test]
    fn bind_params_replaces_every_slot() {
        use dt_common::Value;
        let p = LogicalPlan::Filter {
            input: Box::new(scan(1)),
            predicate: ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::Parameter(0)),
        };
        assert_eq!(p.max_parameter(), Some(0));
        let bound = p.bind_params(&[Value::Int(9)]).unwrap();
        assert_eq!(bound.max_parameter(), None);
        let LogicalPlan::Filter { predicate, .. } = &bound else {
            panic!()
        };
        assert_eq!(
            *predicate,
            ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(9i64))
        );
        // Too few bindings is an error, not a silent NULL.
        assert!(p.bind_params(&[]).is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let p = LogicalPlan::Filter {
            input: Box::new(scan(1)),
            predicate: ScalarExpr::lit(true),
        };
        let text = p.explain();
        assert!(text.contains("Filter"));
        assert!(text.contains("  Scan t1"));
    }
}
