//! The interpreter.

use std::collections::HashMap;

use dt_common::{Batch, DtError, DtResult, EntityId, PredicateSet, Row};
use dt_plan::{LogicalPlan, ScalarExpr};

use crate::aggregate::execute_aggregate;
use crate::join::execute_join;
use crate::window::execute_window;

/// Supplies the rows of stored relations at the snapshot being queried.
///
/// The executor never sees engine state: the engine's read path hands it a
/// pinned snapshot handle (per-table version + shared storage), refreshes
/// hand it a version-resolving view, and tests hand it an in-memory map.
pub trait TableProvider {
    /// All rows of `entity` at this provider's snapshot.
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>>;

    /// The same relation as columnar batches, with `filter` (a pushed-down
    /// conjunction) already applied. Providers with columnar storage
    /// override this to return partition slices zero-copy and to skip
    /// partitions whose zone maps prove no row can match; the default
    /// shreds `scan` and filters row-equivalently, so every provider is
    /// batch-capable.
    fn scan_batches(
        &self,
        entity: EntityId,
        filter: Option<&PredicateSet>,
    ) -> DtResult<Vec<Batch>> {
        let rows = self.scan(entity)?;
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch = Batch::from_rows(rows[0].len(), &rows);
        if let Some(f) = filter {
            f.apply(&mut batch);
        }
        Ok(vec![batch])
    }
}

/// References to providers are providers (lets callers pass `&snapshot`
/// without re-wrapping). Forwards `scan_batches` explicitly so provider
/// overrides survive the indirection.
impl<P: TableProvider + ?Sized> TableProvider for &P {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        (**self).scan(entity)
    }

    fn scan_batches(
        &self,
        entity: EntityId,
        filter: Option<&PredicateSet>,
    ) -> DtResult<Vec<Batch>> {
        (**self).scan_batches(entity, filter)
    }
}

/// Shared snapshot handles are providers: an `Arc`'d snapshot can be
/// cloned across threads and scanned from each without re-capturing.
impl<P: TableProvider + ?Sized> TableProvider for std::sync::Arc<P> {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        (**self).scan(entity)
    }

    fn scan_batches(
        &self,
        entity: EntityId,
        filter: Option<&PredicateSet>,
    ) -> DtResult<Vec<Batch>> {
        (**self).scan_batches(entity, filter)
    }
}

/// A provider backed by an in-memory map (tests and deltas).
#[derive(Debug, Clone, Default)]
pub struct MapProvider {
    tables: HashMap<EntityId, Vec<Row>>,
}

impl MapProvider {
    /// Empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register rows for an entity.
    pub fn insert(&mut self, entity: EntityId, rows: Vec<Row>) {
        self.tables.insert(entity, rows);
    }
}

impl TableProvider for MapProvider {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        self.tables
            .get(&entity)
            .cloned()
            .ok_or_else(|| DtError::Storage(format!("no rows registered for {entity}")))
    }
}

/// Execute a plan, returning its result bag (row order unspecified).
///
/// This is the batch pipeline: operators run batch-at-a-time over columnar
/// [`Batch`]es (pushed-down predicates and zone-map pruning at the scan,
/// projected columns shared, not copied) and rows are materialized once at
/// the top, so the result is row-shaped exactly as before.
pub fn execute(plan: &LogicalPlan, provider: &dyn TableProvider) -> DtResult<Vec<Row>> {
    Ok(crate::batch::flatten(crate::batch::execute_batches(
        plan, provider,
    )?))
}

/// Execute a plan with the legacy row-at-a-time interpreter.
///
/// Kept as the differential baseline for the batch pipeline: both must
/// produce identical rows in identical order for every plan. Pushed-down
/// scan predicates are honored row-at-a-time so the two paths accept the
/// same (optimized) plans.
pub fn execute_rows(plan: &LogicalPlan, provider: &dyn TableProvider) -> DtResult<Vec<Row>> {
    match plan {
        LogicalPlan::TableScan {
            entity, pushdown, ..
        } => {
            let mut rows = provider.scan(*entity)?;
            if let Some(ps) = pushdown {
                if !ps.is_empty() {
                    rows.retain(|r| ps.matches_row(r));
                }
            }
            Ok(rows)
        }
        LogicalPlan::SingleRow => Ok(vec![Row::empty()]),
        LogicalPlan::Filter { input, predicate } => {
            let rows = execute_rows(input, provider)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                if predicate.eval(&r)?.is_true() {
                    out.push(r);
                }
            }
            Ok(out)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let rows = execute_rows(input, provider)?;
            project_rows(&rows, exprs)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            ..
        } => {
            let l = execute_rows(left, provider)?;
            let r = execute_rows(right, provider)?;
            execute_join(
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
                out.extend(execute_rows(i, provider)?);
            }
            Ok(out)
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            ..
        } => {
            let rows = execute_rows(input, provider)?;
            execute_aggregate(&rows, group_exprs, aggregates)
        }
        LogicalPlan::Distinct { input } => {
            let rows = execute_rows(input, provider)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for r in rows {
                if seen.insert(r.clone()) {
                    out.push(r);
                }
            }
            Ok(out)
        }
        LogicalPlan::Window { input, exprs, .. } => {
            let rows = execute_rows(input, provider)?;
            execute_window(&rows, exprs)
        }
        LogicalPlan::Sort { input, keys } => {
            let rows = execute_rows(input, provider)?;
            sort_rows(rows, keys)
        }
        LogicalPlan::Limit { input, n } => {
            let mut rows = execute_rows(input, provider)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
    }
}

/// Evaluate a projection list over rows.
pub fn project_rows(rows: &[Row], exprs: &[ScalarExpr]) -> DtResult<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let mut vals = Vec::with_capacity(exprs.len());
        for e in exprs {
            vals.push(e.eval(r)?);
        }
        out.push(Row::new(vals));
    }
    Ok(out)
}

pub(crate) fn sort_rows(mut rows: Vec<Row>, keys: &[(ScalarExpr, bool)]) -> DtResult<Vec<Row>> {
    // Precompute key tuples to avoid re-evaluating during comparison and to
    // surface evaluation errors eagerly.
    let mut keyed: Vec<(Vec<dt_common::Value>, Row)> = Vec::with_capacity(rows.len());
    for r in rows.drain(..) {
        let mut k = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            k.push(e.eval(&r)?);
        }
        keyed.push((k, r));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, desc)) in keys.iter().enumerate() {
            let o = ka[i].cmp(&kb[i]);
            let o = if *desc { o.reverse() } else { o };
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Execute and sort the result (for deterministic comparisons — the DVS
/// validation compares result *multisets*).
pub fn execute_sorted(plan: &LogicalPlan, provider: &dyn TableProvider) -> DtResult<Vec<Row>> {
    let mut rows = execute(plan, provider)?;
    rows.sort();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{row, Column, DataType, Schema, Value};
    use dt_plan::{Binder, ResolvedRelation, Resolver};

    /// A fixture database: `nums(x INT, y INT)` and `names(id INT, s STRING)`.
    struct Fixture;

    impl Resolver for Fixture {
        fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
            let (id, schema) = match name {
                "nums" => (
                    EntityId(1),
                    Schema::new(vec![
                        Column::new("x", DataType::Int),
                        Column::new("y", DataType::Int),
                    ]),
                ),
                "names" => (
                    EntityId(2),
                    Schema::new(vec![
                        Column::new("id", DataType::Int),
                        Column::new("s", DataType::Str),
                    ]),
                ),
                _ => return Err(DtError::Catalog("unknown".into())),
            };
            Ok(ResolvedRelation::Table { entity: id, schema })
        }
    }

    fn provider() -> MapProvider {
        let mut p = MapProvider::new();
        p.insert(
            EntityId(1),
            vec![row!(1i64, 10i64), row!(2i64, 20i64), row!(3i64, 30i64), row!(2i64, 5i64)],
        );
        p.insert(
            EntityId(2),
            vec![row!(1i64, "one"), row!(2i64, "two"), row!(9i64, "nine")],
        );
        p
    }

    fn run(sql: &str) -> Vec<Row> {
        let stmt = dt_sql::parse(sql).unwrap();
        let dt_sql::ast::Statement::Query(q) = stmt else {
            panic!()
        };
        let out = Binder::new(&Fixture).bind_query(&q).unwrap();
        execute_sorted(&out.plan, &provider()).unwrap()
    }

    #[test]
    fn filter_and_project() {
        let rows = run("SELECT x + y AS s FROM nums WHERE x >= 2");
        assert_eq!(rows, vec![row!(7i64), row!(22i64), row!(33i64)]);
    }

    #[test]
    fn inner_join_hash_path() {
        let rows = run("SELECT n.x, m.s FROM nums n JOIN names m ON n.x = m.id");
        assert_eq!(
            rows,
            vec![row!(1i64, "one"), row!(2i64, "two"), row!(2i64, "two")]
        );
    }

    #[test]
    fn left_join_pads_nulls() {
        let rows = run("SELECT n.x, m.s FROM nums n LEFT JOIN names m ON n.x = m.id");
        assert_eq!(rows.len(), 4);
        assert!(rows.contains(&Row::new(vec![Value::Int(3), Value::Null])));
    }

    #[test]
    fn right_join_mirrors_left() {
        let rows = run("SELECT m.id, m.s FROM nums n RIGHT JOIN names m ON n.x = m.id");
        // Unmatched right row (9, 'nine') must appear once.
        assert!(rows.contains(&row!(9i64, "nine")));
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn full_join_pads_both_sides() {
        let rows = run("SELECT n.x, m.id FROM nums n FULL OUTER JOIN names m ON n.x = m.id");
        assert!(rows.contains(&Row::new(vec![Value::Int(3), Value::Null])));
        assert!(rows.contains(&Row::new(vec![Value::Null, Value::Int(9)])));
    }

    #[test]
    fn non_equi_join_nested_loop() {
        let rows = run("SELECT n.x, m.id FROM nums n JOIN names m ON n.x < m.id");
        // x<id pairs: (1,2),(1,9),(2,9),(2,9),(3,9)
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn group_by_with_aggs() {
        let rows = run("SELECT x, count(*) c, sum(y) s FROM nums GROUP BY x");
        assert_eq!(
            rows,
            vec![
                row!(1i64, 1i64, 10i64),
                row!(2i64, 2i64, 25i64),
                row!(3i64, 1i64, 30i64)
            ]
        );
    }

    #[test]
    fn count_distinct_and_avg() {
        let rows = run("SELECT count(distinct x), avg(y) FROM nums GROUP BY true");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(3));
        assert_eq!(rows[0].get(1), &Value::Float(16.25));
    }

    #[test]
    fn count_if_aggregate() {
        let rows = run("SELECT x, count_if(y > 8) FROM nums GROUP BY x");
        assert_eq!(
            rows,
            vec![row!(1i64, 1i64), row!(2i64, 1i64), row!(3i64, 1i64)]
        );
    }

    #[test]
    fn distinct_dedupes() {
        let rows = run("SELECT DISTINCT x FROM nums");
        assert_eq!(rows, vec![row!(1i64), row!(2i64), row!(3i64)]);
    }

    #[test]
    fn union_all_is_bag_union() {
        let rows = run("SELECT x FROM nums UNION ALL SELECT x FROM nums");
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn having_filters_groups() {
        let rows = run("SELECT x, count(*) FROM nums GROUP BY x HAVING count(*) > 1");
        assert_eq!(rows, vec![row!(2i64, 2i64)]);
    }

    #[test]
    fn order_by_and_limit() {
        let stmt = dt_sql::parse("SELECT x, y FROM nums ORDER BY y DESC LIMIT 2").unwrap();
        let dt_sql::ast::Statement::Query(q) = stmt else {
            panic!()
        };
        let out = Binder::new(&Fixture).bind_query(&q).unwrap();
        // Don't sort: order matters here.
        let rows = execute(&out.plan, &provider()).unwrap();
        assert_eq!(rows, vec![row!(3i64, 30i64), row!(2i64, 20i64)]);
    }

    #[test]
    fn window_running_sum() {
        let rows = run(
            "SELECT x, sum(y) OVER (PARTITION BY x ORDER BY y) run FROM nums WHERE x = 2",
        );
        assert_eq!(rows, vec![row!(2i64, 5i64), row!(2i64, 25i64)]);
    }

    #[test]
    fn window_row_number_and_rank() {
        let rows = run("SELECT x, row_number() OVER (PARTITION BY x ORDER BY y) FROM nums");
        // Each x=1,3 partition has row 1; x=2 has rows 1,2.
        assert_eq!(
            rows,
            vec![
                row!(1i64, 1i64),
                row!(2i64, 1i64),
                row!(2i64, 2i64),
                row!(3i64, 1i64)
            ]
        );
    }

    #[test]
    fn window_whole_partition_without_order() {
        let rows = run("SELECT x, sum(y) OVER (PARTITION BY x) FROM nums WHERE x = 2");
        assert_eq!(rows, vec![row!(2i64, 25i64), row!(2i64, 25i64)]);
    }

    #[test]
    fn case_and_scalar_funcs_evaluate() {
        let rows = run(
            "SELECT CASE WHEN x > 1 THEN upper(s) ELSE lower(s) END FROM names m JOIN nums n ON m.id = n.x WHERE m.id = 1",
        );
        assert_eq!(rows, vec![row!("one")]);
    }

    #[test]
    fn evaluation_error_propagates() {
        let stmt = dt_sql::parse("SELECT y / (x - x) FROM nums").unwrap();
        let dt_sql::ast::Statement::Query(q) = stmt else {
            panic!()
        };
        let out = Binder::new(&Fixture).bind_query(&q).unwrap();
        let err = execute(&out.plan, &provider()).unwrap_err();
        assert!(err.is_user_error());
    }

    #[test]
    fn missing_table_is_storage_error() {
        let p = MapProvider::new();
        let plan = LogicalPlan::TableScan {
            entity: EntityId(99),
            name: "ghost".into(),
            schema: std::sync::Arc::new(Schema::empty()),
            pushdown: None,
        };
        assert!(matches!(execute(&plan, &p), Err(DtError::Storage(_))));
    }
}
