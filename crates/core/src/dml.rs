//! DML planning: computing the row-level effect of an INSERT / DELETE /
//! UPDATE statement — value binding, coercion, predicate matching,
//! assignment evaluation.
//!
//! Every DML statement runs inside a [`crate::Transaction`] (auto-commit
//! is the one-statement kind), so every statement is planned against an
//! [`OverlayProvider`]: the transaction's pinned snapshot overlaid with
//! its own buffered write set. The resulting [`DmlChange`] is buffered until
//! `COMMIT`.

use dt_common::{DtError, DtResult, EntityId, Row, Schema, Value};
use dt_plan::LogicalPlan;
use dt_sql::ast;

use crate::transaction::OverlayProvider;

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
/// used to bind predicates and SET assignments in the table's scope.
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
    src: &OverlayProvider<'_>,
    table: &str,
    values: &[Vec<ast::Expr>],
    query: Option<&ast::Query>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, schema) = src.target_table(table)?;
    let mut rows = Vec::new();
    if let Some(q) = query {
        let out = src.bind_query(q)?;
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
        // VALUES rows: each cell bound over the empty scope and evaluated
        // in place, so the first bad cell's error is the statement's.
        for row_exprs in values {
            let mut vals = Vec::with_capacity(row_exprs.len());
            for e in row_exprs {
                let cell = src.bind_constant(e)?.bind_params(params)?;
                vals.push(cell.eval(&Row::empty())?);
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

/// The visible rows of `id` matching `predicate` (all rows when absent):
/// `SELECT * FROM t [WHERE predicate]` run inside the transaction, so a
/// DML `WHERE` matches the rows, in the order and with the errors of
/// that query — through the same pushed-down, zone-map-pruned scan.
fn matching_rows(
    src: &OverlayProvider<'_>,
    id: EntityId,
    predicate: Option<&ast::Expr>,
    params: &[Value],
) -> DtResult<Vec<Row>> {
    let q = scaffold_query(
        vec![ast::SelectItem::Wildcard],
        Some(src.entity_name(id)?),
        predicate.cloned(),
    );
    src.execute_plan(&src.bind_query(&q)?.plan.bind_params(params)?)
}

/// Plan `DELETE FROM table [WHERE predicate]`.
pub(crate) fn plan_delete(
    src: &OverlayProvider<'_>,
    table: &str,
    predicate: Option<&ast::Expr>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, _schema) = src.target_table(table)?;
    let doomed = matching_rows(src, id, predicate, params)?;
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
    src: &OverlayProvider<'_>,
    table: &str,
    assignments: &[(String, ast::Expr)],
    predicate: Option<&ast::Expr>,
    params: &[Value],
) -> DtResult<DmlChange> {
    let (id, schema) = src.target_table(table)?;
    let old = matching_rows(src, id, predicate, params)?;
    // Bind assignment expressions against the table schema.
    let mut bound: Vec<(usize, dt_plan::ScalarExpr)> = Vec::new();
    for (col, e) in assignments {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::state::DbConfig;

    /// The row loop [`matching_rows`] replaced: every row the transaction
    /// sees cloned out of the overlay, then the bound predicate evaluated
    /// on each in scan order.
    fn matching_rows_by_scan(
        src: &OverlayProvider<'_>,
        id: EntityId,
        predicate: &Option<ast::Expr>,
        params: &[Value],
    ) -> DtResult<Vec<Row>> {
        let all = src.scan_by_rows(id)?;
        let Some(p) = predicate else {
            return Ok(all);
        };
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

    /// xorshift64: the histories are a function of the seed alone.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        /// A `k` / `v` cell: a small integer (zero included), or NULL.
        fn cell(&mut self) -> String {
            match self.below(6) {
                0 => "NULL".into(),
                _ => self.below(5).to_string(),
            }
        }

        /// A row of `t (id, k, v)`: a fresh one, or a copy of a row the
        /// transaction sees, so the table holds duplicates.
        fn row(&mut self, visible: &[Row]) -> String {
            if !visible.is_empty() && self.below(3) == 0 {
                let r = &visible[self.below(visible.len() as u64) as usize];
                let vals: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
                return format!("({})", vals.join(", "));
            }
            format!("({}, {}, {})", self.below(40), self.cell(), self.cell())
        }

        /// A `WHERE` clause (or none): conjuncts that push into the scan
        /// and ones that cannot, some able to fail on a zero. The flag is
        /// set when a pushed conjunct follows one that can fail — the
        /// only shape where the row loop evaluated the failing one on
        /// rows the scan now drops first.
        fn predicate(&mut self) -> (Option<String>, bool) {
            let (a, c) = (self.below(40), self.below(5));
            let p = match self.below(10) {
                0 => return (None, false),
                1 => format!("id >= {a} AND id < {}", a + 1 + self.below(15)),
                2 => format!("k = {c}"),
                3 => "k IS NULL".into(),
                4 => format!("v + 0 > {c}"),
                5 => format!("id >= {a} AND v % 3 = {}", c % 3),
                6 => format!("k = {c} OR id < {a}"),
                7 => format!("10 / v > {c}"),
                8 => format!("id < {a} AND 10 / k > 1"),
                _ => return (Some(format!("10 / v > 1 AND id < {a}")), true),
            };
            (Some(p), false)
        }
    }

    fn rows_of(src: &OverlayProvider<'_>, id: EntityId) -> Vec<Row> {
        src.scan_by_rows(id).unwrap()
    }

    /// One seeded history: a multi-partition table with duplicates and
    /// NULLs, then a transaction of INSERT / UPDATE / DELETE statements
    /// that hit its own inserts and earlier updates. Every `WHERE` is
    /// matched both ways; returns how many rows the query path matched.
    fn history(seed: u64) -> usize {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let engine = Engine::new(DbConfig {
            partition_capacity: 1 + (seed % 4) as usize,
            ..DbConfig::default()
        });
        let session = engine.session();
        session
            .execute("CREATE TABLE t (id INT, k INT, v INT)")
            .unwrap();
        for _ in 0..2 + rng.below(3) {
            let rows: Vec<String> = (0..3 + rng.below(12)).map(|_| rng.row(&[])).collect();
            session
                .execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                .unwrap();
        }
        // Committed deletes and updates rewrite partitions.
        session
            .execute(&format!("DELETE FROM t WHERE id = {}", rng.below(40)))
            .unwrap();
        session
            .execute(&format!("UPDATE t SET v = 1 WHERE id < {}", rng.below(40)))
            .unwrap();

        let mut txn = session.begin();
        let id = txn.overlay().target_table("t").unwrap().0;
        let mut matched = 0;
        for _ in 0..14 {
            let visible = rows_of(&txn.overlay(), id);
            let (p, may_diverge) = rng.predicate();
            let where_clause = p
                .as_ref()
                .map(|p| format!(" WHERE {p}"))
                .unwrap_or_default();
            let sql = match rng.below(4) {
                0 => {
                    let rows: Vec<String> =
                        (0..1 + rng.below(4)).map(|_| rng.row(&visible)).collect();
                    format!("INSERT INTO t VALUES {}", rows.join(", "))
                }
                1 => format!("UPDATE t SET v = v + 1{where_clause}"),
                2 => format!("UPDATE t SET k = NULL, id = id + 1{where_clause}"),
                _ => format!("DELETE FROM t{where_clause}"),
            };
            let predicate = match dt_sql::parse(&sql).unwrap() {
                ast::Statement::Update { predicate, .. }
                | ast::Statement::Delete { predicate, .. } => Some(predicate),
                _ => None,
            };
            if let Some(predicate) = predicate {
                let src = txn.overlay();
                let new = matching_rows(&src, id, predicate.as_ref(), &[]);
                let old = matching_rows_by_scan(&src, id, &predicate, &[]);
                match (&new, &old) {
                    (Ok(n), Ok(o)) => assert_eq!(n, o, "seed {seed}: {sql}"),
                    (Err(n), Err(o)) => {
                        assert_eq!(n.to_string(), o.to_string(), "seed {seed}: {sql}")
                    }
                    (Ok(_), Err(_)) if may_diverge => {}
                    _ => panic!("seed {seed}: {sql}: query path {new:?}, row loop {old:?}"),
                }
                matched += new.map_or(0, |rows| rows.len());
            }
            let outcome = txn.execute(&sql);
            assert!(
                outcome.is_ok() || p.is_some(),
                "seed {seed}: {sql}: {outcome:?}"
            );
            let seen = txn.query("SELECT * FROM t").unwrap().rows().to_vec();
            assert_eq!(
                seen,
                rows_of(&txn.overlay(), id),
                "seed {seed}: after {sql}"
            );
        }
        let mut expected = rows_of(&txn.overlay(), id);
        expected.sort();
        txn.commit().unwrap();
        assert_eq!(
            session.query_sorted("SELECT * FROM t").unwrap(),
            expected,
            "seed {seed}"
        );
        matched
    }

    #[test]
    fn dml_where_matches_the_row_loop_over_seeded_histories() {
        let matched: usize = (0..64).map(history).sum();
        // The histories match rows, not just empty sets.
        assert!(matched > 1000, "{matched} rows matched over 64 histories");
    }
}
