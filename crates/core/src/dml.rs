//! DML planning: computing the row-level effect of an INSERT / DELETE /
//! UPDATE statement — value binding, coercion, predicate matching,
//! assignment evaluation.
//!
//! Every DML statement runs inside a [`crate::Transaction`] (auto-commit
//! is the one-statement kind), so every statement is planned against a
//! [`TxnDmlSource`]: the transaction's pinned snapshot overlaid with its
//! own buffered write set. The resulting [`DmlChange`] is buffered until
//! `COMMIT`.

use dt_common::{DtError, DtResult, EntityId, Row, Schema, Value};
use dt_plan::LogicalPlan;
use dt_sql::ast;

use crate::transaction::TxnDmlSource;

/// The row-level effect of one DML statement: rows to insert and rows to
/// delete on one base table, plus the statement's user-visible row count.
#[derive(Debug, Clone)]
pub(crate) struct DmlChange {
    /// The target base table.
    pub entity: EntityId,
    /// Rows the statement adds.
    pub inserts: Vec<Row>,
    /// Rows the statement removes (multiset, by value).
    pub deletes: Vec<Row>,
    /// Rows inserted / deleted / matched by UPDATE — what
    /// `ExecResult::Count` reports.
    pub count: usize,
}

/// Coerce a value row to a table schema (arity + type checks).
fn coerce_row(schema: &Schema, values: Vec<Value>) -> DtResult<Row> {
    if values.len() != schema.len() {
        return Err(DtError::Type(format!(
            "INSERT arity {} does not match table arity {}",
            values.len(),
            schema.len()
        )));
    }
    let mut out = Vec::with_capacity(values.len());
    for (v, c) in values.into_iter().zip(schema.columns()) {
        out.push(if v.is_null() { v } else { v.cast(c.ty)? });
    }
    Ok(Row::new(out))
}

/// Build `SELECT <items> [FROM <table>] [WHERE <predicate>]` — the scaffold
/// used to bind VALUES expressions, predicates, and SET assignments in the
/// right scope.
fn scaffold_query(
    items: Vec<ast::SelectItem>,
    from: Option<String>,
    where_clause: Option<ast::Expr>,
) -> ast::Query {
    ast::Query {
        select: ast::SelectBlock {
            distinct: false,
            items,
            from: from.map(|name| ast::TableRef::Named { name, alias: None }),
            joins: vec![],
            where_clause,
            group_by: ast::GroupBy::None,
            having: None,
            order_by: vec![],
            limit: None,
        },
        union_all: vec![],
        for_update: false,
    }
}

/// Plan `INSERT INTO table VALUES ... | <query>`.
pub(crate) fn plan_insert(
    src: &TxnDmlSource<'_>,
    table: &str,
    values: Vec<Vec<ast::Expr>>,
    query: Option<ast::Query>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, schema) = src.target_table(table)?;
    let mut rows = Vec::new();
    if let Some(q) = query {
        let out = src.bind_query(&q)?;
        if out.plan.schema().len() != schema.len() {
            return Err(DtError::Type(format!(
                "INSERT query arity {} does not match table arity {}",
                out.plan.schema().len(),
                schema.len()
            )));
        }
        let plan = out.plan.bind_params(params)?;
        for r in src.execute_plan(&plan)? {
            rows.push(coerce_row(&schema, r.values().to_vec())?);
        }
    } else {
        // VALUES rows: bind each expression over an empty scope.
        for row_exprs in values {
            let mut vals = Vec::with_capacity(row_exprs.len());
            for e in row_exprs {
                let q = scaffold_query(
                    vec![ast::SelectItem::Expr {
                        expr: e,
                        alias: None,
                    }],
                    None,
                    None,
                );
                let out = src.bind_query(&q)?;
                let plan = out.plan.bind_params(params)?;
                let r = src.execute_plan(&plan)?;
                vals.push(r[0].get(0).clone());
            }
            rows.push(coerce_row(&schema, vals)?);
        }
    }
    let count = rows.len();
    Ok(DmlChange {
        entity: id,
        inserts: rows,
        deletes: vec![],
        count,
    })
}

/// The visible rows of `id` matching `predicate` (all rows when absent).
fn matching_rows(
    src: &TxnDmlSource<'_>,
    id: EntityId,
    predicate: &Option<ast::Expr>,
    params: &[Value],
) -> DtResult<Vec<Row>> {
    let all = src.scan_base(id)?;
    let Some(p) = predicate else {
        return Ok(all);
    };
    // Bind the predicate against the table's schema.
    let q = scaffold_query(
        vec![ast::SelectItem::Wildcard],
        Some(src.entity_name(id)?),
        Some(p.clone()),
    );
    let out = src.bind_query(&q)?;
    let LogicalPlan::Project { input, .. } = &out.plan else {
        return Err(DtError::internal("expected projection"));
    };
    let LogicalPlan::Filter { predicate, .. } = input.as_ref() else {
        return Err(DtError::internal("expected filter"));
    };
    let predicate = predicate.bind_params(params)?;
    let mut out_rows = Vec::new();
    for r in all {
        if predicate.eval(&r)?.is_true() {
            out_rows.push(r);
        }
    }
    Ok(out_rows)
}

/// Plan `DELETE FROM table [WHERE predicate]`.
pub(crate) fn plan_delete(
    src: &TxnDmlSource<'_>,
    table: &str,
    predicate: Option<ast::Expr>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, _schema) = src.target_table(table)?;
    let doomed = matching_rows(src, id, &predicate, params)?;
    let count = doomed.len();
    Ok(DmlChange {
        entity: id,
        inserts: vec![],
        deletes: doomed,
        count,
    })
}

/// Plan `UPDATE table SET col = expr, ... [WHERE predicate]`.
pub(crate) fn plan_update(
    src: &TxnDmlSource<'_>,
    table: &str,
    assignments: Vec<(String, ast::Expr)>,
    predicate: Option<ast::Expr>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, schema) = src.target_table(table)?;
    let old = matching_rows(src, id, &predicate, params)?;
    // Bind assignment expressions against the table schema.
    let mut bound: Vec<(usize, dt_plan::ScalarExpr)> = Vec::new();
    for (col, e) in &assignments {
        let idx = schema.index_of(col)?;
        let q = scaffold_query(
            vec![ast::SelectItem::Expr {
                expr: e.clone(),
                alias: None,
            }],
            Some(src.entity_name(id)?),
            None,
        );
        let out = src.bind_query(&q)?;
        let LogicalPlan::Project { exprs, .. } = &out.plan else {
            return Err(DtError::internal("expected projection"));
        };
        bound.push((idx, exprs[0].bind_params(params)?));
    }
    let mut new_rows = Vec::with_capacity(old.len());
    for r in &old {
        let mut vals = r.values().to_vec();
        for (idx, e) in &bound {
            let v = e.eval(r)?;
            vals[*idx] = if v.is_null() {
                v
            } else {
                v.cast(schema.column(*idx).ty)?
            };
        }
        new_rows.push(Row::new(vals));
    }
    let count = old.len();
    Ok(DmlChange {
        entity: id,
        inserts: new_rows,
        deletes: old,
        count,
    })
}
