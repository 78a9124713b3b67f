//! Name resolution and plan construction.
//!
//! The binder lowers an AST query to a [`LogicalPlan`], resolving relation
//! names through a [`Resolver`] (implemented by the catalog), expanding
//! views inline, and tracking exactly which columns of which upstream
//! entities the query reads — the dependency metadata the paper's query
//! evolution uses (§5.4).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dt_common::{Column, DataType, DtError, DtResult, EntityId, Schema, Value};
use dt_sql::ast;

use crate::expr::{AggExpr, AggFunc, BinOp, ScalarExpr, ScalarFunc, WindowExpr, WindowFunc};
use crate::plan::{JoinType, LogicalPlan};

/// What a relation name resolves to.
#[derive(Debug, Clone)]
pub enum ResolvedRelation {
    /// A stored relation (base table or dynamic table): scanned directly.
    Table {
        /// The catalog entity.
        entity: EntityId,
        /// Its schema.
        schema: Schema,
    },
    /// A view: its SQL is parsed and bound inline.
    View {
        /// The view's defining query text.
        sql: String,
    },
}

/// Resolves relation names during binding (implemented by the catalog).
pub trait Resolver {
    /// Resolve `name` to a stored relation or a view.
    fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation>;
}

/// The result of binding a query.
#[derive(Debug, Clone)]
pub struct BindOutput {
    /// The bound plan.
    pub plan: LogicalPlan,
    /// Columns read from each upstream entity (§5.4 dependency tracking).
    pub used_columns: BTreeMap<EntityId, BTreeSet<String>>,
}

/// One column visible in a binding scope.
#[derive(Debug, Clone)]
struct ScopeCol {
    qualifier: Option<String>,
    name: String,
    ty: DataType,
    /// The storage entity this column ultimately comes from, when it is a
    /// direct table column (used-column tracking).
    entity: Option<EntityId>,
}

/// A binding scope: the columns of the current FROM row.
#[derive(Debug, Clone, Default)]
struct Scope {
    cols: Vec<ScopeCol>,
}

impl Scope {
    fn from_schema(
        schema: &Schema,
        qualifier: Option<&str>,
        entity: Option<EntityId>,
    ) -> Scope {
        Scope {
            cols: schema
                .columns()
                .iter()
                .map(|c| ScopeCol {
                    qualifier: qualifier.map(|q| q.to_ascii_lowercase()),
                    name: c.name.clone(),
                    ty: c.ty,
                    entity,
                })
                .collect(),
        }
    }

    fn concat(&self, other: &Scope) -> Scope {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Scope { cols }
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> DtResult<usize> {
        let lname = name.to_ascii_lowercase();
        let lq = qualifier.map(|q| q.to_ascii_lowercase());
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            let q_ok = match &lq {
                Some(q) => c.qualifier.as_deref() == Some(q.as_str()),
                None => true,
            };
            if q_ok && c.name == lname {
                if found.is_some() {
                    return Err(DtError::Binding(format!(
                        "ambiguous column '{}'",
                        display_col(qualifier, name)
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            DtError::Binding(format!("unknown column '{}'", display_col(qualifier, name)))
        })
    }

    fn types(&self) -> Vec<DataType> {
        self.cols.iter().map(|c| c.ty).collect()
    }
}

fn display_col(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

/// The binder.
pub struct Binder<'a> {
    resolver: &'a dyn Resolver,
    used_columns: BTreeMap<EntityId, BTreeSet<String>>,
    view_depth: usize,
}

impl<'a> Binder<'a> {
    /// Build a binder over a resolver.
    pub fn new(resolver: &'a dyn Resolver) -> Self {
        Binder {
            resolver,
            used_columns: BTreeMap::new(),
            view_depth: 0,
        }
    }

    /// Bind a scalar expression over the empty scope (an `INSERT … VALUES`
    /// cell): literals, `?` placeholders, operators, casts and scalar
    /// functions. A column reference, an aggregate or a window function
    /// has nothing to range over there and is a binding error.
    pub fn bind_constant(mut self, e: &ast::Expr) -> DtResult<ScalarExpr> {
        self.bind_scalar(e, &Scope::default())
    }

    /// Bind a full query.
    pub fn bind_query(mut self, q: &ast::Query) -> DtResult<BindOutput> {
        let plan = self.bind_query_inner(q)?;
        Ok(BindOutput {
            plan,
            used_columns: self.used_columns,
        })
    }

    fn bind_query_inner(&mut self, q: &ast::Query) -> DtResult<LogicalPlan> {
        let first = self.bind_select_block(&q.select)?;
        if q.union_all.is_empty() {
            return Ok(first);
        }
        let schema = first.schema();
        let mut inputs = vec![first];
        for block in &q.union_all {
            let p = self.bind_select_block(block)?;
            if p.schema().len() != schema.len() {
                return Err(DtError::Binding(format!(
                    "UNION ALL arity mismatch: {} vs {}",
                    schema.len(),
                    p.schema().len()
                )));
            }
            inputs.push(p);
        }
        Ok(LogicalPlan::UnionAll { inputs, schema })
    }

    fn bind_relation(&mut self, r: &ast::TableRef) -> DtResult<(LogicalPlan, Scope)> {
        match r {
            ast::TableRef::Named { name, alias } => {
                let binding = alias.as_deref().unwrap_or(name);
                match self.resolver.resolve_relation(name)? {
                    ResolvedRelation::Table { entity, schema } => {
                        let scope = Scope::from_schema(&schema, Some(binding), Some(entity));
                        Ok((
                            LogicalPlan::TableScan {
                                entity,
                                name: name.to_ascii_lowercase(),
                                schema: Arc::new(schema),
                                pushdown: None,
                            },
                            scope,
                        ))
                    }
                    ResolvedRelation::View { sql } => {
                        if self.view_depth > 16 {
                            return Err(DtError::Binding(format!(
                                "view nesting too deep while expanding '{name}'"
                            )));
                        }
                        self.view_depth += 1;
                        let parsed = dt_sql::parse(&sql)?;
                        let ast::Statement::Query(vq) = parsed else {
                            return Err(DtError::Binding(format!(
                                "view '{name}' does not define a query"
                            )));
                        };
                        let plan = self.bind_query_inner(&vq)?;
                        self.view_depth -= 1;
                        let scope = Scope::from_schema(&plan.schema(), Some(binding), None);
                        Ok((plan, scope))
                    }
                }
            }
            ast::TableRef::Subquery { query, alias } => {
                let plan = self.bind_query_inner(query)?;
                let scope = Scope::from_schema(&plan.schema(), Some(alias), None);
                Ok((plan, scope))
            }
        }
    }

    fn bind_select_block(&mut self, b: &ast::SelectBlock) -> DtResult<LogicalPlan> {
        // 1. FROM + JOINs.
        let (mut plan, mut scope) = match &b.from {
            Some(r) => self.bind_relation(r)?,
            None => (LogicalPlan::SingleRow, Scope::default()),
        };
        for join in &b.joins {
            let (right_plan, right_scope) = self.bind_relation(&join.relation)?;
            let combined = scope.concat(&right_scope);
            let on = self.bind_scalar(&join.on, &combined)?;
            let join_type = match join.join_type {
                ast::JoinType::Inner => JoinType::Inner,
                ast::JoinType::Left => JoinType::Left,
                ast::JoinType::Right => JoinType::Right,
                ast::JoinType::Full => JoinType::Full,
            };
            let schema = Arc::new(plan.schema().join(&right_plan.schema()));
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(right_plan),
                join_type,
                on,
                schema,
            };
            scope = combined;
        }

        // 2. WHERE.
        if let Some(w) = &b.where_clause {
            let predicate = self.bind_scalar(w, &scope)?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // 3. Aggregation.
        let has_aggs = select_items_contain_aggregate(&b.items)
            || b.having.as_ref().is_some_and(expr_contains_aggregate);
        let explicit_group = !matches!(b.group_by, ast::GroupBy::None);
        let (plan, item_exprs, item_names) = if has_aggs || explicit_group {
            self.bind_aggregate_block(b, plan, &scope)?
        } else {
            // 4a. Window functions (non-aggregate path).
            let mut window_exprs: Vec<WindowExpr> = Vec::new();
            let mut exprs = Vec::new();
            let mut names = Vec::new();
            for item in &b.items {
                match item {
                    ast::SelectItem::Wildcard => {
                        for (i, c) in scope.cols.iter().enumerate() {
                            self.note_use(c);
                            exprs.push(ScalarExpr::Column(i));
                            names.push(c.name.clone());
                        }
                    }
                    ast::SelectItem::QualifiedWildcard(q) => {
                        let lq = q.to_ascii_lowercase();
                        let mut any = false;
                        for (i, c) in scope.cols.iter().enumerate() {
                            if c.qualifier.as_deref() == Some(lq.as_str()) {
                                self.note_use(c);
                                exprs.push(ScalarExpr::Column(i));
                                names.push(c.name.clone());
                                any = true;
                            }
                        }
                        if !any {
                            return Err(DtError::Binding(format!("unknown relation '{q}'")));
                        }
                    }
                    ast::SelectItem::Expr { expr, alias } => {
                        let bound =
                            self.bind_scalar_with_windows(expr, &scope, &mut window_exprs)?;
                        names.push(alias.clone().unwrap_or_else(|| derive_name(expr, &exprs)));
                        exprs.push(bound);
                    }
                }
            }
            let plan = if window_exprs.is_empty() {
                plan
            } else {
                let mut cols = plan.schema().columns().to_vec();
                for w in &window_exprs {
                    let arg_ty = w.arg.as_ref().map(|a| a.infer_type(&scope.types()));
                    cols.push(Column::new(w.name.clone(), w.func.result_type(arg_ty)));
                }
                LogicalPlan::Window {
                    input: Box::new(plan),
                    exprs: window_exprs,
                    schema: Arc::new(Schema::new(cols)),
                }
            };
            (plan, exprs, names)
        };

        // 5. Projection.
        let input_types: Vec<DataType> = plan
            .schema()
            .columns()
            .iter()
            .map(|c| c.ty)
            .collect();
        let out_cols: Vec<Column> = item_exprs
            .iter()
            .zip(&item_names)
            .map(|(e, n)| Column::new(n.clone(), e.infer_type(&input_types)))
            .collect();
        let out_schema = Arc::new(Schema::new(out_cols));
        let mut plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: item_exprs.clone(),
            schema: Arc::clone(&out_schema),
        };

        // 6. DISTINCT.
        if b.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        // 7. ORDER BY / LIMIT over the projected schema.
        if !b.order_by.is_empty() {
            let mut keys = Vec::new();
            for (e, desc) in &b.order_by {
                let key = self.bind_order_key(e, &out_schema, &item_names)?;
                keys.push((key, *desc));
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(n) = b.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    fn bind_order_key(
        &mut self,
        e: &ast::Expr,
        out_schema: &Schema,
        names: &[String],
    ) -> DtResult<ScalarExpr> {
        // Ordinal form: ORDER BY 2.
        if let ast::Expr::Int(n) = e {
            let idx = *n as usize;
            if idx >= 1 && idx <= out_schema.len() {
                return Ok(ScalarExpr::Column(idx - 1));
            }
            return Err(DtError::Binding(format!("ORDER BY ordinal {n} out of range")));
        }
        // Output-column-name form.
        if let ast::Expr::Column { qualifier: None, name } = e {
            if let Some(i) = names.iter().position(|x| x == &name.to_ascii_lowercase()) {
                return Ok(ScalarExpr::Column(i));
            }
        }
        Err(DtError::Unsupported(
            "ORDER BY supports output column names or ordinals".into(),
        ))
    }

    /// Bind the aggregate form of a SELECT block; returns the plan up to
    /// (and including) the Aggregate node plus the bound projection exprs
    /// over that node's output.
    fn bind_aggregate_block(
        &mut self,
        b: &ast::SelectBlock,
        input: LogicalPlan,
        scope: &Scope,
    ) -> DtResult<(LogicalPlan, Vec<ScalarExpr>, Vec<String>)> {
        // Group keys.
        let (key_asts, key_names): (Vec<ast::Expr>, Vec<String>) = match &b.group_by {
            ast::GroupBy::Exprs(es) => (
                es.clone(),
                es.iter()
                    .enumerate()
                    .map(|(i, e)| derive_name_idx(e, i))
                    .collect(),
            ),
            ast::GroupBy::All => {
                // GROUP BY ALL: every projection item free of aggregates.
                let mut asts = Vec::new();
                let mut names = Vec::new();
                for (i, item) in b.items.iter().enumerate() {
                    if let ast::SelectItem::Expr { expr, alias } = item {
                        if !expr_contains_aggregate(expr) {
                            asts.push(expr.clone());
                            names.push(alias.clone().unwrap_or_else(|| derive_name_idx(expr, i)));
                        }
                    }
                }
                (asts, names)
            }
            ast::GroupBy::None => (vec![], vec![]),
        };
        let keys: Vec<ScalarExpr> = key_asts
            .iter()
            .map(|e| self.bind_scalar(e, scope))
            .collect::<DtResult<_>>()?;

        // Collect aggregates from the projection and HAVING, then bind the
        // projection expressions over the Aggregate output.
        let mut aggs: Vec<AggExpr> = Vec::new();
        let mut item_exprs = Vec::new();
        let mut item_names = Vec::new();
        for (i, item) in b.items.iter().enumerate() {
            let ast::SelectItem::Expr { expr, alias } = item else {
                return Err(DtError::Unsupported(
                    "wildcard projections cannot be combined with GROUP BY".into(),
                ));
            };
            let bound = self.bind_post_agg(expr, scope, &keys, &mut aggs)?;
            item_names.push(alias.clone().unwrap_or_else(|| derive_name_idx(expr, i)));
            item_exprs.push(bound);
        }
        let having_bound = match &b.having {
            Some(h) => Some(self.bind_post_agg(h, scope, &keys, &mut aggs)?),
            None => None,
        };

        // Build the Aggregate schema: keys then aggregates.
        let in_types = scope.types();
        let mut cols = Vec::with_capacity(keys.len() + aggs.len());
        for (k, n) in keys.iter().zip(&key_names) {
            cols.push(Column::new(n.clone(), k.infer_type(&in_types)));
        }
        for a in &aggs {
            let arg_ty = a.arg.as_ref().map(|e| e.infer_type(&in_types));
            cols.push(Column::new(a.name.clone(), a.func.result_type(arg_ty)));
        }
        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_exprs: keys,
            aggregates: aggs,
            schema: Arc::new(Schema::new(cols)),
        };
        if let Some(h) = having_bound {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: h,
            };
        }
        Ok((plan, item_exprs, item_names))
    }

    /// Bind an expression over the output of an Aggregate node: aggregate
    /// calls become references to aggregate columns; sub-expressions equal
    /// to a group key become key column references; anything else must be
    /// built from those (or constants).
    fn bind_post_agg(
        &mut self,
        e: &ast::Expr,
        pre: &Scope,
        keys: &[ScalarExpr],
        aggs: &mut Vec<AggExpr>,
    ) -> DtResult<ScalarExpr> {
        // Parameters, like constants, are valid anywhere.
        if let ast::Expr::Placeholder(i) = e {
            return Ok(ScalarExpr::Parameter(*i));
        }
        // Aggregate call?
        if let ast::Expr::Function { name, args, distinct } = e {
            if let Some(func) = AggFunc::from_name(name) {
                let arg = match args.as_slice() {
                    [] | [ast::FunctionArg::Wildcard] => None,
                    [ast::FunctionArg::Expr(a)] => Some(self.bind_scalar(a, pre)?),
                    _ => {
                        return Err(DtError::Unsupported(format!(
                            "{name} with multiple arguments"
                        )))
                    }
                };
                if func != AggFunc::Count && arg.is_none() {
                    return Err(DtError::Binding(format!("{name}(*) is not valid")));
                }
                let candidate = AggExpr {
                    func,
                    arg,
                    distinct: *distinct,
                    name: name.clone(),
                };
                let idx = match aggs.iter().position(|a| {
                    a.func == candidate.func
                        && a.arg == candidate.arg
                        && a.distinct == candidate.distinct
                }) {
                    Some(i) => i,
                    None => {
                        aggs.push(candidate);
                        aggs.len() - 1
                    }
                };
                return Ok(ScalarExpr::Column(keys.len() + idx));
            }
        }
        // A sub-expression equal to a group key?
        if let Ok(bound) = self.bind_scalar(e, pre) {
            if let Some(i) = keys.iter().position(|k| *k == bound) {
                return Ok(ScalarExpr::Column(i));
            }
            // A constant is fine anywhere.
            if let ScalarExpr::Literal(_) = bound {
                return Ok(bound);
            }
        }
        // Recurse structurally.
        match e {
            ast::Expr::Binary { left, op, right } => Ok(ScalarExpr::Binary {
                left: Box::new(self.bind_post_agg(left, pre, keys, aggs)?),
                op: bind_binop(*op),
                right: Box::new(self.bind_post_agg(right, pre, keys, aggs)?),
            }),
            ast::Expr::Unary { op, expr } => {
                let inner = self.bind_post_agg(expr, pre, keys, aggs)?;
                Ok(match op {
                    ast::UnaryOp::Neg => ScalarExpr::Neg(Box::new(inner)),
                    ast::UnaryOp::Not => ScalarExpr::Not(Box::new(inner)),
                })
            }
            ast::Expr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.bind_post_agg(expr, pre, keys, aggs)?),
                negated: *negated,
            }),
            ast::Expr::Cast { expr, ty } => Ok(ScalarExpr::Cast {
                expr: Box::new(self.bind_post_agg(expr, pre, keys, aggs)?),
                ty: *ty,
            }),
            ast::Expr::Case {
                when_then,
                else_value,
            } => {
                let mut arms = Vec::new();
                for (c, v) in when_then {
                    arms.push((
                        self.bind_post_agg(c, pre, keys, aggs)?,
                        self.bind_post_agg(v, pre, keys, aggs)?,
                    ));
                }
                let else_value = match else_value {
                    Some(ev) => Some(Box::new(self.bind_post_agg(ev, pre, keys, aggs)?)),
                    None => None,
                };
                Ok(ScalarExpr::Case {
                    when_then: arms,
                    else_value,
                })
            }
            ast::Expr::Function { name, args, .. } if ScalarFunc::from_name(name).is_some() => {
                let func = ScalarFunc::from_name(name).unwrap();
                let mut bound_args = Vec::new();
                for (i, a) in args.iter().enumerate() {
                    match a {
                        ast::FunctionArg::Expr(e) => {
                            let e = normalize_unit_arg(func, i, e);
                            bound_args.push(self.bind_post_agg(&e, pre, keys, aggs)?)
                        }
                        ast::FunctionArg::Wildcard => {
                            return Err(DtError::Binding(format!("{name}(*) is not valid")))
                        }
                    }
                }
                Ok(ScalarExpr::Func {
                    func,
                    args: bound_args,
                })
            }
            ast::Expr::Column { qualifier, name } => Err(DtError::Binding(format!(
                "column '{}' must appear in GROUP BY or inside an aggregate",
                display_col(qualifier.as_deref(), name)
            ))),
            other => Err(DtError::Unsupported(format!(
                "expression {other:?} in aggregate context"
            ))),
        }
    }

    fn note_use(&mut self, c: &ScopeCol) {
        if let Some(e) = c.entity {
            self.used_columns.entry(e).or_default().insert(c.name.clone());
        }
    }

    /// Bind a pure scalar expression (no aggregates, no windows).
    fn bind_scalar(&mut self, e: &ast::Expr, scope: &Scope) -> DtResult<ScalarExpr> {
        let mut no_windows = Vec::new();
        let bound = self.bind_scalar_with_windows(e, scope, &mut no_windows)?;
        if !no_windows.is_empty() {
            return Err(DtError::Binding(
                "window functions are only allowed in the SELECT list".into(),
            ));
        }
        Ok(bound)
    }

    /// Bind a scalar expression, hoisting window functions into
    /// `window_exprs`; a hoisted function is replaced by a reference to the
    /// column the Window node will append.
    fn bind_scalar_with_windows(
        &mut self,
        e: &ast::Expr,
        scope: &Scope,
        window_exprs: &mut Vec<WindowExpr>,
    ) -> DtResult<ScalarExpr> {
        Ok(match e {
            ast::Expr::Null => ScalarExpr::Literal(Value::Null),
            ast::Expr::Bool(b) => ScalarExpr::lit(*b),
            ast::Expr::Int(i) => ScalarExpr::lit(*i),
            ast::Expr::Float(f) => ScalarExpr::lit(*f),
            ast::Expr::String(s) => ScalarExpr::lit(s.as_str()),
            ast::Expr::Interval(d) => ScalarExpr::Literal(Value::Duration(*d)),
            ast::Expr::Placeholder(i) => ScalarExpr::Parameter(*i),
            ast::Expr::Column { qualifier, name } => {
                let idx = scope.resolve(qualifier.as_deref(), name)?;
                self.note_use(&scope.cols[idx]);
                ScalarExpr::Column(idx)
            }
            ast::Expr::Unary { op, expr } => {
                let inner = self.bind_scalar_with_windows(expr, scope, window_exprs)?;
                match op {
                    ast::UnaryOp::Neg => ScalarExpr::Neg(Box::new(inner)),
                    ast::UnaryOp::Not => ScalarExpr::Not(Box::new(inner)),
                }
            }
            ast::Expr::Binary { left, op, right } => ScalarExpr::Binary {
                left: Box::new(self.bind_scalar_with_windows(left, scope, window_exprs)?),
                op: bind_binop(*op),
                right: Box::new(self.bind_scalar_with_windows(right, scope, window_exprs)?),
            },
            ast::Expr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(self.bind_scalar_with_windows(expr, scope, window_exprs)?),
                negated: *negated,
            },
            ast::Expr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(self.bind_scalar_with_windows(expr, scope, window_exprs)?),
                list: list
                    .iter()
                    .map(|x| self.bind_scalar_with_windows(x, scope, window_exprs))
                    .collect::<DtResult<_>>()?,
                negated: *negated,
            },
            ast::Expr::Between { expr, low, high } => {
                // e BETWEEN a AND b  ≡  e >= a AND e <= b.
                let e = self.bind_scalar_with_windows(expr, scope, window_exprs)?;
                let low = self.bind_scalar_with_windows(low, scope, window_exprs)?;
                let high = self.bind_scalar_with_windows(high, scope, window_exprs)?;
                ScalarExpr::Binary {
                    left: Box::new(ScalarExpr::Binary {
                        left: Box::new(e.clone()),
                        op: BinOp::GtEq,
                        right: Box::new(low),
                    }),
                    op: BinOp::And,
                    right: Box::new(ScalarExpr::Binary {
                        left: Box::new(e),
                        op: BinOp::LtEq,
                        right: Box::new(high),
                    }),
                }
            }
            ast::Expr::Case {
                when_then,
                else_value,
            } => ScalarExpr::Case {
                when_then: when_then
                    .iter()
                    .map(|(c, v)| {
                        Ok((
                            self.bind_scalar_with_windows(c, scope, window_exprs)?,
                            self.bind_scalar_with_windows(v, scope, window_exprs)?,
                        ))
                    })
                    .collect::<DtResult<_>>()?,
                else_value: match else_value {
                    Some(ev) => Some(Box::new(self.bind_scalar_with_windows(
                        ev,
                        scope,
                        window_exprs,
                    )?)),
                    None => None,
                },
            },
            ast::Expr::Cast { expr, ty } => ScalarExpr::Cast {
                expr: Box::new(self.bind_scalar_with_windows(expr, scope, window_exprs)?),
                ty: *ty,
            },
            ast::Expr::Function {
                name,
                args,
                distinct,
            } => {
                if let Some(func) = ScalarFunc::from_name(name) {
                    if *distinct {
                        return Err(DtError::Binding(format!(
                            "DISTINCT is not valid in scalar function {name}"
                        )));
                    }
                    let mut bound = Vec::new();
                    for (i, a) in args.iter().enumerate() {
                        match a {
                            ast::FunctionArg::Expr(e) => {
                                let e = normalize_unit_arg(func, i, e);
                                bound.push(self.bind_scalar_with_windows(
                                    &e,
                                    scope,
                                    window_exprs,
                                )?)
                            }
                            ast::FunctionArg::Wildcard => {
                                return Err(DtError::Binding(format!("{name}(*) is not valid")))
                            }
                        }
                    }
                    ScalarExpr::Func { func, args: bound }
                } else if AggFunc::from_name(name).is_some() {
                    return Err(DtError::Binding(format!(
                        "aggregate function {name} requires GROUP BY context"
                    )));
                } else {
                    return Err(DtError::Binding(format!("unknown function '{name}'")));
                }
            }
            ast::Expr::WindowFunction {
                name,
                args,
                partition_by,
                order_by,
            } => {
                let func = WindowFunc::from_name(name).ok_or_else(|| {
                    DtError::Binding(format!("unknown window function '{name}'"))
                })?;
                let arg = match args.as_slice() {
                    [] | [ast::FunctionArg::Wildcard] => None,
                    [ast::FunctionArg::Expr(a)] => {
                        Some(self.bind_scalar_with_windows(a, scope, window_exprs)?)
                    }
                    _ => {
                        return Err(DtError::Unsupported(format!(
                            "window {name} with multiple arguments"
                        )))
                    }
                };
                let partition_by = partition_by
                    .iter()
                    .map(|e| self.bind_scalar(e, scope))
                    .collect::<DtResult<Vec<_>>>()?;
                let order_by = order_by
                    .iter()
                    .map(|(e, d)| Ok((self.bind_scalar(e, scope)?, *d)))
                    .collect::<DtResult<Vec<_>>>()?;
                let idx = scope.cols.len() + window_exprs.len();
                window_exprs.push(WindowExpr {
                    func,
                    arg,
                    partition_by,
                    order_by,
                    name: format!("{name}_w{}", window_exprs.len()),
                });
                ScalarExpr::Column(idx)
            }
        })
    }
}

fn bind_binop(op: ast::BinaryOp) -> BinOp {
    match op {
        ast::BinaryOp::Add => BinOp::Add,
        ast::BinaryOp::Sub => BinOp::Sub,
        ast::BinaryOp::Mul => BinOp::Mul,
        ast::BinaryOp::Div => BinOp::Div,
        ast::BinaryOp::Mod => BinOp::Mod,
        ast::BinaryOp::Eq => BinOp::Eq,
        ast::BinaryOp::NotEq => BinOp::NotEq,
        ast::BinaryOp::Lt => BinOp::Lt,
        ast::BinaryOp::LtEq => BinOp::LtEq,
        ast::BinaryOp::Gt => BinOp::Gt,
        ast::BinaryOp::GtEq => BinOp::GtEq,
        ast::BinaryOp::And => BinOp::And,
        ast::BinaryOp::Or => BinOp::Or,
    }
}

/// Snowflake allows `date_trunc(hour, ts)` with a bare unit keyword; the
/// parser sees `hour` as a column. Normalize to a string literal.
fn normalize_unit_arg(func: ScalarFunc, arg_idx: usize, e: &ast::Expr) -> ast::Expr {
    if func == ScalarFunc::DateTrunc && arg_idx == 0 {
        if let ast::Expr::Column {
            qualifier: None,
            name,
        } = e
        {
            if matches!(
                name.as_str(),
                "second" | "seconds" | "minute" | "minutes" | "hour" | "hours" | "day" | "days"
            ) {
                return ast::Expr::String(name.clone());
            }
        }
    }
    e.clone()
}

fn expr_contains_aggregate(e: &ast::Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if let ast::Expr::Function { name, .. } = x {
            if AggFunc::from_name(name).is_some() {
                found = true;
            }
        }
    });
    found
}

fn select_items_contain_aggregate(items: &[ast::SelectItem]) -> bool {
    items.iter().any(|i| match i {
        ast::SelectItem::Expr { expr, .. } => expr_contains_aggregate(expr),
        _ => false,
    })
}

fn derive_name(e: &ast::Expr, prior: &[ScalarExpr]) -> String {
    derive_name_idx(e, prior.len())
}

fn derive_name_idx(e: &ast::Expr, i: usize) -> String {
    match e {
        ast::Expr::Column { name, .. } => name.clone(),
        ast::Expr::Function { name, .. } | ast::Expr::WindowFunction { name, .. } => name.clone(),
        ast::Expr::Cast { expr, .. } => derive_name_idx(expr, i),
        _ => format!("col_{i}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::operator_census;
    use crate::plan::OperatorKind;
    use std::collections::HashMap;

    /// A test resolver with a few fixed tables and views.
    struct Fixture {
        tables: HashMap<String, (EntityId, Schema)>,
        views: HashMap<String, String>,
    }

    impl Fixture {
        fn new() -> Self {
            let mut tables = HashMap::new();
            tables.insert(
                "orders".to_string(),
                (
                    EntityId(1),
                    Schema::new(vec![
                        Column::new("id", DataType::Int),
                        Column::new("customer", DataType::Str),
                        Column::new("amount", DataType::Float),
                        Column::new("ts", DataType::Timestamp),
                    ]),
                ),
            );
            tables.insert(
                "customers".to_string(),
                (
                    EntityId(2),
                    Schema::new(vec![
                        Column::new("name", DataType::Str),
                        Column::new("region", DataType::Str),
                    ]),
                ),
            );
            let mut views = HashMap::new();
            views.insert(
                "big_orders".to_string(),
                "SELECT id, amount FROM orders WHERE amount > 100".to_string(),
            );
            Fixture { tables, views }
        }
    }

    impl Resolver for Fixture {
        fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
            let lname = name.to_ascii_lowercase();
            if let Some((e, s)) = self.tables.get(&lname) {
                return Ok(ResolvedRelation::Table {
                    entity: *e,
                    schema: s.clone(),
                });
            }
            if let Some(sql) = self.views.get(&lname) {
                return Ok(ResolvedRelation::View { sql: sql.clone() });
            }
            Err(DtError::Catalog(format!("unknown entity '{lname}'")))
        }
    }

    fn bind(sql: &str) -> BindOutput {
        let f = Fixture::new();
        let stmt = dt_sql::parse(sql).unwrap();
        let dt_sql::ast::Statement::Query(q) = stmt else {
            panic!("not a query")
        };
        Binder::new(&f).bind_query(&q).unwrap()
    }

    fn bind_err(sql: &str) -> DtError {
        let f = Fixture::new();
        let stmt = dt_sql::parse(sql).unwrap();
        let dt_sql::ast::Statement::Query(q) = stmt else {
            panic!("not a query")
        };
        Binder::new(&f).bind_query(&q).unwrap_err()
    }

    #[test]
    fn bind_simple_projection() {
        let out = bind("SELECT id, amount * 2 AS double_amount FROM orders");
        let schema = out.plan.schema();
        assert_eq!(schema.names(), vec!["id", "double_amount"]);
        assert_eq!(schema.column(1).ty, DataType::Float);
        assert_eq!(
            out.used_columns[&EntityId(1)],
            ["amount", "id"].iter().map(|s| s.to_string()).collect()
        );
    }

    #[test]
    fn bind_join_with_qualifiers() {
        let out = bind(
            "SELECT o.id, c.region FROM orders o JOIN customers c ON o.customer = c.name",
        );
        assert!(out.plan.is_differentiable());
        assert_eq!(out.plan.schema().names(), vec!["id", "region"]);
        // Used columns span both entities.
        assert!(out.used_columns[&EntityId(1)].contains("customer"));
        assert!(out.used_columns[&EntityId(2)].contains("name"));
    }

    #[test]
    fn ambiguous_column_errors() {
        let e = bind_err("SELECT name FROM customers c JOIN customers d ON c.name = d.name");
        assert!(matches!(e, DtError::Binding(_)), "{e}");
    }

    #[test]
    fn bind_group_by_all() {
        let out = bind(
            "SELECT customer, count(*) n, sum(amount) total FROM orders GROUP BY ALL",
        );
        let LogicalPlan::Project { input, .. } = &out.plan else {
            panic!()
        };
        let LogicalPlan::Aggregate {
            group_exprs,
            aggregates,
            ..
        } = input.as_ref()
        else {
            panic!("expected aggregate, got {}", input.explain())
        };
        assert_eq!(group_exprs.len(), 1);
        assert_eq!(aggregates.len(), 2);
        assert_eq!(out.plan.schema().names(), vec!["customer", "n", "total"]);
    }

    #[test]
    fn bind_group_key_expression_reuse() {
        // Select item that IS a group key expression, plus arithmetic on top.
        let out = bind(
            "SELECT date_trunc('hour', ts) h, count(*) + 1 FROM orders GROUP BY date_trunc('hour', ts)",
        );
        assert_eq!(out.plan.schema().len(), 2);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let e = bind_err("SELECT customer, amount, count(*) FROM orders GROUP BY customer");
        assert!(matches!(e, DtError::Binding(_)));
    }

    #[test]
    fn bind_having() {
        let out = bind("SELECT customer, count(*) FROM orders GROUP BY customer HAVING count(*) > 5");
        // Filter on top of Aggregate, under Project.
        let LogicalPlan::Project { input, .. } = &out.plan else {
            panic!()
        };
        assert!(matches!(input.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn bind_view_expansion_tracks_base_columns() {
        let out = bind("SELECT id FROM big_orders WHERE amount > 500");
        // The view expands to a plan over `orders`.
        assert_eq!(out.plan.scanned_entities(), vec![EntityId(1)]);
        assert!(out.used_columns[&EntityId(1)].contains("amount"));
    }

    #[test]
    fn bind_window_function() {
        let out = bind(
            "SELECT customer, sum(amount) OVER (PARTITION BY customer ORDER BY ts) running FROM orders",
        );
        let census = operator_census(&out.plan);
        assert_eq!(census[&OperatorKind::Window], 1);
        assert!(out.plan.is_differentiable());
        assert_eq!(out.plan.schema().names(), vec!["customer", "running"]);
    }

    #[test]
    fn window_without_partition_not_differentiable() {
        let out = bind("SELECT sum(amount) OVER (ORDER BY ts) FROM orders");
        assert!(!out.plan.is_differentiable());
    }

    #[test]
    fn bind_union_all() {
        let out = bind("SELECT id FROM orders UNION ALL SELECT id FROM orders");
        assert!(matches!(out.plan, LogicalPlan::UnionAll { .. }));
        let e = bind_err("SELECT id FROM orders UNION ALL SELECT id, amount FROM orders");
        assert!(matches!(e, DtError::Binding(_)));
    }

    #[test]
    fn bind_subquery() {
        let out = bind("SELECT y FROM (SELECT amount AS y FROM orders) AS sub WHERE y > 1");
        assert_eq!(out.plan.schema().names(), vec!["y"]);
    }

    #[test]
    fn order_by_and_limit_not_differentiable() {
        let out = bind("SELECT id FROM orders ORDER BY id LIMIT 3");
        assert!(!out.plan.is_differentiable());
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let out = bind("SELECT * FROM orders");
        assert_eq!(out.plan.schema().len(), 4);
        let out = bind("SELECT c.* FROM orders o JOIN customers c ON o.customer = c.name");
        assert_eq!(out.plan.schema().names(), vec!["name", "region"]);
    }

    #[test]
    fn listing_1_delayed_trains_binds() {
        // The paper's Listing 1, second DT, against equivalent tables.
        struct Trains;
        impl Resolver for Trains {
            fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
                let schema = match name {
                    "train_arrivals" => Schema::new(vec![
                        Column::new("train_id", DataType::Int),
                        Column::new("arrival_time", DataType::Timestamp),
                        Column::new("schedule_id", DataType::Int),
                    ]),
                    "schedule" => Schema::new(vec![
                        Column::new("id", DataType::Int),
                        Column::new("expected_arrival_time", DataType::Timestamp),
                    ]),
                    _ => return Err(DtError::Catalog("unknown".into())),
                };
                Ok(ResolvedRelation::Table {
                    entity: EntityId(if name == "schedule" { 2 } else { 1 }),
                    schema,
                })
            }
        }
        let stmt = dt_sql::parse(
            "SELECT train_id, date_trunc(hour, s.expected_arrival_time) hour, \
             count_if(arrival_time - s.expected_arrival_time > INTERVAL '10 minutes') num_delays \
             FROM train_arrivals a JOIN schedule s ON a.schedule_id = s.id GROUP BY ALL",
        )
        .unwrap();
        let dt_sql::ast::Statement::Query(q) = stmt else {
            panic!()
        };
        let out = Binder::new(&Trains).bind_query(&q).unwrap();
        assert!(out.plan.is_differentiable());
        assert_eq!(
            out.plan.schema().names(),
            vec!["train_id", "hour", "num_delays"]
        );
    }
}
