//! Differential tests for the columnar group-by / join / `DISTINCT`
//! kernels and the join-aware filter pushdown.
//!
//! Every plan runs twice — un-pushed through the row interpreter
//! (`dt_exec::execute_rows`, the oracle) and pushed through the batch
//! pipeline (`dt_exec::execute`) — and must give the same rows, in the same
//! order, *spelled* the same (`Int(1)` is not `Float(1.0)` here, although
//! `Value`'s equality says so), or the same error. Inputs are batches the
//! way storage hands them out: several per table, each column typed
//! (`Int`, `Float`) in one batch and generic (mixed, strings) in the next,
//! with NULLs, `-0.0`, `NaN`, values next to `i64::MAX`, and selection
//! masks that deselect part of a batch.
//!
//! The last section refreshes a join DT and an aggregate-over-join DT
//! against a model kept by the test, and checks that a delta's join keys
//! keep the opposite side's scan away from partitions they cannot match.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dt_common::{
    row, Batch, Column, ColumnVec, DataType, DtError, DtResult, EntityId, PredicateSet, Row, Schema,
    Value,
};
use dt_exec::{MapProvider, TableProvider};
use dt_ivm::{delta, DeltaContext, MapChanges, OuterJoinStrategy};
use dt_plan::{push_down_filters, Binder, LogicalPlan, ResolvedRelation, Resolver};
use dt_storage::ChangeSet;
use dynamic_tables::core::{DbConfig, Engine, Session};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// The two paths.

/// `l (a, b, c)` and `r (x, y)`. The declared types only feed the binder's
/// output schema; the batches hold whatever the test put in them.
struct Tables;

const L: EntityId = EntityId(1);
const R: EntityId = EntityId(2);

impl Resolver for Tables {
    fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
        let (entity, cols): (_, &[&str]) = match name {
            "l" => (L, &["a", "b", "c"]),
            "r" => (R, &["x", "y"]),
            _ => return Err(DtError::Catalog(format!("unknown relation '{name}'"))),
        };
        let schema = Schema::new(cols.iter().map(|c| Column::new(*c, DataType::Int)).collect());
        Ok(ResolvedRelation::Table { entity, schema })
    }
}

/// A provider over hand-built batches: `scan` is their selected rows, in
/// order; `scan_batches` is the batches themselves with the pushed filter
/// applied on top of their own selection.
#[derive(Default)]
struct BatchProvider {
    tables: HashMap<EntityId, Vec<Batch>>,
}

impl TableProvider for BatchProvider {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        Ok(self.tables[&entity].iter().flat_map(Batch::to_rows).collect())
    }

    fn scan_batches(&self, entity: EntityId, filter: Option<&PredicateSet>) -> DtResult<Vec<Batch>> {
        let mut batches = self.tables[&entity].clone();
        if let Some(f) = filter {
            batches.iter_mut().for_each(|b| f.apply(b));
        }
        Ok(batches)
    }
}

fn plan_of(sql: &str) -> LogicalPlan {
    let dt_sql::ast::Statement::Query(q) = dt_sql::parse(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    Binder::new(&Tables).bind_query(&q).unwrap().plan
}

/// Rows spelled out (`Debug` tells `Int(1)` from `Float(1.0)` and `-0.0`
/// from `0.0`), or the error.
fn spelled(result: DtResult<Vec<Row>>) -> Result<Vec<String>, DtError> {
    result.map(|rows| rows.iter().map(|r| format!("{:?}", r.values())).collect())
}

/// Run `sql` down both paths and require the same outcome; returns it.
///
/// The kernels' contract is exact: on one plan, the batch pipeline gives
/// the row interpreter's rows, order, spelling *and error* — checked on the
/// un-pushed plan and again on the pushed one. Pushdown's contract is the
/// one `dt_plan::pushdown` documents: the same rows in the same order
/// whenever the un-pushed plan succeeds; a row a pushed conjunct rejects
/// early can no longer fail a later expression, so a failing un-pushed
/// plan may succeed (or stop at another row) once pushed.
fn assert_paths_agree(sql: &str, provider: &dyn TableProvider) -> Result<Vec<String>, DtError> {
    let plan = plan_of(sql);
    let pushed = push_down_filters(&plan);
    let oracle = spelled(dt_exec::execute_rows(&plan, provider));
    let columnar = spelled(dt_exec::execute(&plan, provider));
    assert_eq!(oracle, columnar, "kernels diverged on the un-pushed plan: {sql}");
    let pushed_oracle = spelled(dt_exec::execute_rows(&pushed, provider));
    let pushed_columnar = spelled(dt_exec::execute(&pushed, provider));
    assert_eq!(pushed_oracle, pushed_columnar, "kernels diverged on the pushed plan: {sql}");
    if oracle.is_ok() || pushed == plan {
        assert_eq!(oracle, pushed_columnar, "pushdown changed the result of: {sql}");
    }
    oracle
}

// ---------------------------------------------------------------------------
// Generated inputs.

/// A cursor over a test case's entropy words.
struct Words<'a> {
    words: &'a [u64],
    at: usize,
}

impl Words<'_> {
    fn next(&mut self) -> u64 {
        let w = self.words[self.at % self.words.len()];
        // Revisit the words with a twist once they run out.
        let lap = (self.at / self.words.len()) as u64;
        self.at += 1;
        w.rotate_left((lap % 64) as u32) ^ lap.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
        &items[self.below(items.len())]
    }
}

/// One column of one batch: a kind (what a partition of real storage
/// might hold) and values drawn from that kind's pool.
fn column(w: &mut Words<'_>, len: usize) -> ColumnVec {
    let ints = |w: &mut Words<'_>| Value::Int(w.below(7) as i64 - 2);
    let floats = |w: &mut Words<'_>| {
        Value::Float(*w.pick(&[
            1.0, 2.0, -0.0, 0.0, f64::NAN, 0.1, 0.2, 0.3, 1e16, -1e16, 2.5,
        ]))
    };
    let kind = w.below(5);
    let values = (0..len)
        .map(|_| {
            if w.below(6) == 0 {
                return Value::Null;
            }
            match kind {
                0 | 1 => ints(w),
                2 => floats(w),
                3 => match w.below(5) {
                    0 => Value::Str(format!("s{}", w.below(2))),
                    1 => Value::Bool(w.below(2) == 0),
                    2 => floats(w),
                    _ => ints(w),
                },
                _ => Value::Int(*w.pick(&[i64::MAX, i64::MAX - 1, 1, -1, 2])),
            }
        })
        .collect();
    ColumnVec::from_values(values)
}

/// 0–3 batches of 0–11 rows each, some with part of their rows deselected.
fn table(w: &mut Words<'_>, arity: usize) -> Vec<Batch> {
    (0..w.below(4))
        .map(|_| {
            let len = w.below(12);
            let columns = (0..arity).map(|_| Arc::new(column(w, len))).collect();
            let mut b = Batch::new(columns, len);
            if w.below(3) == 0 {
                b.set_selection(Some((0..len).map(|_| w.below(3) != 0).collect()));
            }
            b
        })
        .collect()
}

fn provider(w: &mut Words<'_>) -> BatchProvider {
    let mut p = BatchProvider::default();
    p.tables.insert(L, table(w, 3));
    p.tables.insert(R, table(w, 2));
    p
}

const GROUP_BYS: &[&str] = &[
    "SELECT a, count(*), count(b), sum(b), min(c), max(c), avg(b) FROM l GROUP BY a",
    "SELECT a, b, count(*), sum(c), min(b), max(a) FROM l GROUP BY a, b",
    "SELECT a + 1, count(*), sum(b) FROM l GROUP BY a + 1",
    "SELECT a, b * 2, avg(c) FROM l GROUP BY a, b * 2",
    "SELECT count(*), count(a), sum(b), min(a), max(c), avg(c) FROM l",
    "SELECT a, count(distinct b), max(distinct c), count_if(b > 1) FROM l GROUP BY a",
    "SELECT a, sum(b + c), min(b - 1) FROM l GROUP BY a",
    "SELECT b, sum(a), sum(c) FROM l WHERE c > 0 GROUP BY b",
    "SELECT a IS NULL, count(*), sum(b) FROM l WHERE b < 3 GROUP BY a IS NULL",
    "SELECT sum(a), avg(b) FROM l WHERE c > 100000",
];

const DISTINCTS: &[&str] = &[
    "SELECT DISTINCT a FROM l",
    "SELECT DISTINCT a, b FROM l",
    "SELECT DISTINCT b, c FROM l WHERE a > 0",
    "SELECT DISTINCT a + b FROM l",
];

const JOIN_TYPES: &[&str] = &["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"];

const JOIN_ONS: &[&str] = &[
    "l.a = r.x",
    "r.x = l.a AND l.b = r.y",
    "l.a + 1 = r.x",
    "l.a = r.x AND l.b < r.y",
    "l.a = r.x AND l.b + r.y > 0 AND l.c > r.y",
    "l.a < r.x",
    "1 = r.y",
    "l.a = r.x AND r.y IS NULL",
];

const JOIN_WHERES: &[&str] = &[
    "",
    "WHERE l.c > 0",
    "WHERE r.y > 0",
    "WHERE r.y IS NULL",
    "WHERE l.a IS NULL OR l.b > 1",
    "WHERE l.c >= 0 AND r.y < 3 AND l.a + r.x > 0",
    "WHERE 4 / l.b > 1 AND r.x = 1",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn group_by_and_distinct_agree_with_the_row_interpreter(
        words in prop::collection::vec(0u64..u64::MAX, 16..64),
    ) {
        let mut w = Words { words: &words, at: 0 };
        let p = provider(&mut w);
        for sql in GROUP_BYS.iter().chain(DISTINCTS) {
            // An error is an outcome like any other here.
            let _ = assert_paths_agree(sql, &p);
        }
    }

    #[test]
    fn joins_agree_with_the_row_interpreter(
        words in prop::collection::vec(0u64..u64::MAX, 16..64),
    ) {
        let mut w = Words { words: &words, at: 0 };
        let p = provider(&mut w);
        for _ in 0..12 {
            let sql = format!(
                "SELECT l.a, l.b, l.c, r.x, r.y FROM l {} r ON {} {}",
                w.pick(JOIN_TYPES), w.pick(JOIN_ONS), w.pick(JOIN_WHERES)
            );
            let _ = assert_paths_agree(&sql, &p);
        }
        // Aggregate over a filtered join: the benchmark's `join` shape.
        let _ = assert_paths_agree(
            "SELECT r.y, count(*), sum(l.c) FROM l JOIN r ON l.a = r.x \
             WHERE l.b >= 0 AND l.b < 3 GROUP BY r.y",
            &p,
        );
    }
}

// ---------------------------------------------------------------------------
// Hand-picked inputs for what the generator only sometimes hits.

fn batches_of(parts: &[&[Row]], arity: usize) -> Vec<Batch> {
    parts.iter().map(|rows| Batch::from_rows(arity, rows)).collect()
}

fn l_only(parts: &[&[Row]]) -> BatchProvider {
    let mut p = BatchProvider::default();
    p.tables.insert(L, batches_of(parts, 3));
    p.tables.insert(R, Vec::new());
    p
}

#[test]
fn one_group_across_int_float_and_string_partitions_keeps_its_first_spelling() {
    // Int(1) in a typed partition, Float(1.0) in a float one, then a mixed
    // partition: one group, spelled Int(1); sums go Int, then Float.
    let p = l_only(&[
        &[row!(1i64, 10i64, 1i64), row!(2i64, 20i64, 1i64)],
        &[row!(1.0f64, 0.5f64, 1i64), row!(2.0f64, 7i64, 1i64)],
        &[row!("s", 1i64, 1i64), row!(1i64, 1i64, 1i64)],
    ]);
    let out = assert_paths_agree("SELECT a, count(*), sum(b), max(b) FROM l GROUP BY a", &p).unwrap();
    assert_eq!(
        out,
        vec![
            "[Int(1), Int(3), Float(11.5), Int(10)]",
            "[Int(2), Int(2), Int(27), Int(20)]",
            "[Str(\"s\"), Int(1), Int(1), Int(1)]",
        ]
    );
    // DISTINCT keeps the first spelling too, in first-seen order.
    let out = assert_paths_agree("SELECT DISTINCT a FROM l", &p).unwrap();
    assert_eq!(out, vec!["[Int(1)]", "[Int(2)]", "[Str(\"s\")]"]);
}

#[test]
fn negative_zero_nan_and_null_keys_group_like_the_row_path() {
    let null = Value::Null;
    let p = l_only(&[&[
        row!(0.0f64, 1i64, 0i64),
        row!(-0.0f64, 2i64, 0i64),
        row!(f64::NAN, 3i64, 0i64),
        Row::new(vec![null.clone(), Value::Int(4), Value::Int(0)]),
        row!(f64::NAN, 5i64, 0i64),
        Row::new(vec![null, Value::Int(6), Value::Int(0)]),
        row!(0.0f64, 7i64, 0i64),
    ]]);
    let out = assert_paths_agree("SELECT a, sum(b) FROM l GROUP BY a", &p).unwrap();
    assert_eq!(
        out,
        vec![
            "[Null, Int(10)]",
            "[Float(-0.0), Int(2)]",
            "[Float(0.0), Int(8)]",
            "[Float(NaN), Int(8)]",
        ]
    );
}

#[test]
fn sum_overflow_is_the_row_paths_error_in_release_builds_too() {
    // A typed Int column whose running sum passes i64::MAX: checked, not
    // wrapped — whatever the build profile.
    let p = l_only(&[&[row!(1i64, i64::MAX, 0i64), row!(1i64, 1i64, 0i64)]]);
    let err = assert_paths_agree("SELECT a, sum(b) FROM l GROUP BY a", &p).unwrap_err();
    assert_eq!(err, DtError::Evaluation("integer overflow".into()));
    // Across partitions as well, and for the group-less form.
    let p = l_only(&[&[row!(1i64, i64::MAX, 0i64)], &[row!(1i64, 1i64, 0i64)]]);
    let err = assert_paths_agree("SELECT sum(b) FROM l", &p).unwrap_err();
    assert_eq!(err, DtError::Evaluation("integer overflow".into()));
    // Staying just inside is fine, and min/max/avg never overflow.
    let p = l_only(&[&[row!(1i64, i64::MAX - 1, 0i64), row!(1i64, 1i64, 0i64)]]);
    let out = assert_paths_agree("SELECT sum(b), max(b), avg(b) FROM l", &p).unwrap();
    assert_eq!(out.len(), 1);
    assert!(out[0].starts_with(&format!("[Int({}), Int({})", i64::MAX, i64::MAX - 1)));
}

#[test]
fn the_error_reported_is_the_earliest_failing_rows() {
    // sum(b) overflows at row 2; avg(c) meets a string at row 1. The row
    // interpreter stops at row 1, so that is the error — although the
    // columnar kernel runs the whole sum first.
    let p = l_only(&[&[
        row!(1i64, i64::MAX, 1i64),
        row!(1i64, 0i64, "x"),
        row!(1i64, 1i64, 2i64),
    ]]);
    let err = assert_paths_agree("SELECT a, sum(b), avg(c) FROM l GROUP BY a", &p).unwrap_err();
    assert_eq!(err, DtError::Type("avg over 'x'".into()));
    // A key expression failing at row 0 beats both.
    let err = assert_paths_agree("SELECT 1 / (a - 1), sum(b), avg(c) FROM l GROUP BY 1 / (a - 1)", &p)
        .unwrap_err();
    assert_eq!(err, DtError::Evaluation("division by zero".into()));
    // And a sum that meets a string reports the running sum it had.
    let p = l_only(&[&[row!(1i64, 5i64, 0i64)], &[row!(1i64, 7i64, 0i64), row!(1i64, "x", 0i64)]]);
    let err = assert_paths_agree("SELECT a, sum(b) FROM l GROUP BY a", &p).unwrap_err();
    assert_eq!(err, DtError::Type("cannot add 12 + 'x'".into()));
}

#[test]
fn float_sums_add_in_scan_order() {
    // (1e16 + 1.0) + -1e16 = 0, 1e16 + (-1e16 + 1.0)... the order decides.
    let p = l_only(&[
        &[row!(1i64, 1e16f64, 0i64), row!(2i64, 0.1f64, 0i64), row!(1i64, 1.0f64, 0i64)],
        &[row!(2i64, 0.2f64, 0i64), row!(1i64, -1e16f64, 0i64), row!(2i64, 0.3f64, 0i64)],
    ]);
    let out = assert_paths_agree("SELECT a, sum(b), avg(b) FROM l GROUP BY a", &p).unwrap();
    assert_eq!(out[0], format!("[Int(1), Float({:?}), Float({:?})]", 0.0, 0.0));
    let s = 0.1f64 + 0.2 + 0.3;
    assert_eq!(out[1], format!("[Int(2), Float({s:?}), Float({:?})]", s / 3.0));
}

#[test]
fn empty_input_with_and_without_group_keys() {
    let mut masked = Batch::from_rows(3, &[row!(1i64, 2i64, 3i64)]);
    masked.set_selection(Some(vec![false]));
    for batches in [Vec::new(), vec![masked]] {
        let mut p = BatchProvider::default();
        p.tables.insert(L, batches);
        p.tables.insert(R, Vec::new());
        let out = assert_paths_agree("SELECT count(*), sum(a), min(b), avg(c) FROM l", &p).unwrap();
        assert_eq!(out, vec!["[Int(0), Null, Null, Null]"]);
        let out = assert_paths_agree("SELECT a, count(*) FROM l GROUP BY a", &p).unwrap();
        assert!(out.is_empty());
        assert!(assert_paths_agree("SELECT DISTINCT a FROM l", &p).unwrap().is_empty());
        let out = assert_paths_agree("SELECT l.a, r.x FROM l FULL OUTER JOIN r ON l.a = r.x", &p);
        assert!(out.unwrap().is_empty());
    }
}

// ---------------------------------------------------------------------------
// Join pushdown.

fn join_fixture() -> MapProvider {
    let null = Value::Null;
    let mut p = MapProvider::new();
    p.insert(
        L,
        vec![
            row!(1i64, 10i64, 1i64),
            row!(2i64, 20i64, -1i64),
            row!(3i64, 30i64, 1i64),
            Row::new(vec![null.clone(), Value::Int(40), Value::Int(1)]),
            row!(5i64, 50i64, 1i64),
        ],
    );
    p.insert(
        R,
        vec![
            row!(1i64, 100i64),
            row!(1i64, 0i64),
            row!(3i64, -5i64),
            Row::new(vec![Value::Int(5), null.clone()]),
            Row::new(vec![null, Value::Int(7)]),
            row!(9i64, 9i64),
            row!(4i64, 1i64),
        ],
    );
    p
}

/// The plan EXPLAIN would print for `sql`.
fn pushed_text(sql: &str) -> String {
    push_down_filters(&plan_of(sql)).explain()
}

#[test]
fn pushdown_through_every_join_type_keeps_rows_and_order() {
    let p = join_fixture();
    let wheres = [
        "l.c > 0",
        "r.y > 0",
        "r.y IS NULL",
        "l.a IS NOT NULL AND r.x < 5",
        "l.c > 0 AND r.y >= 0 AND l.b + r.y > 20",
        "l.c > 0 OR r.y > 0",
    ];
    for jt in JOIN_TYPES {
        for w in wheres {
            let sql = format!("SELECT l.a, l.b, r.x, r.y FROM l {jt} r ON l.a = r.x WHERE {w}");
            assert_paths_agree(&sql, &p).unwrap();
        }
    }
}

#[test]
fn a_filter_on_the_null_padded_side_of_a_left_join_stays_above_it() {
    let p = join_fixture();
    let sql = "SELECT l.a, r.y FROM l LEFT JOIN r ON l.a = r.x WHERE r.y IS NULL";
    // Rows 2 and NULL have no partner, 5's partner has y NULL: pushing
    // `y IS NULL` below the join would also pad rows 1 and 3.
    let out = assert_paths_agree(sql, &p).unwrap();
    assert_eq!(out, vec!["[Int(5), Null]", "[Int(2), Null]", "[Null, Null]"]);
    let text = pushed_text(sql);
    assert!(text.contains("Filter (#4 IS NULL)"), "{text}");
    assert!(text.contains("Scan r\n"), "{text}");

    // A comparison on the padded side stays above too (it rejects the
    // padded rows, but only the join knows which those are) ...
    let sql = "SELECT l.a, r.y FROM l LEFT JOIN r ON l.a = r.x WHERE r.y > 0 AND l.c > 0";
    assert_eq!(assert_paths_agree(sql, &p).unwrap(), vec!["[Int(1), Int(100)]"]);
    let text = pushed_text(sql);
    assert!(text.contains("Filter (#4 Gt 0)"), "{text}");
    // ... while the preserved side's conjunct reaches its scan.
    assert!(text.contains("Scan l [pushdown: #2 > 0]"), "{text}");
    assert!(text.contains("Scan r\n"), "{text}");

    // Mirrored for RIGHT; nothing moves below FULL; both move below INNER.
    let text = pushed_text("SELECT 1 FROM l RIGHT JOIN r ON l.a = r.x WHERE r.y > 0 AND l.c > 0");
    assert!(text.contains("Scan r [pushdown: #1 > 0]") && text.contains("Scan l\n"), "{text}");
    let text = pushed_text("SELECT 1 FROM l FULL OUTER JOIN r ON l.a = r.x WHERE r.y > 0 AND l.c > 0");
    assert!(!text.contains("pushdown"), "{text}");
    let text = pushed_text("SELECT 1 FROM l JOIN r ON l.a = r.x WHERE r.y > 0 AND l.c > 0");
    assert!(text.contains("Scan l [pushdown: #2 > 0]"), "{text}");
    assert!(text.contains("Scan r [pushdown: #1 > 0]") && !text.contains("Filter"), "{text}");
}

#[test]
fn a_conjunct_that_can_raise_is_not_evaluated_on_rows_the_join_drops() {
    // l.b = 0 only on a row with no partner: above the join 10 / l.b never
    // sees it. Pushed below, the query would start failing.
    let mut p = MapProvider::new();
    p.insert(L, vec![row!(1i64, 5i64, 0i64), row!(2i64, 0i64, 0i64)]);
    p.insert(R, vec![row!(1i64, 1i64)]);
    let sql = "SELECT l.a FROM l JOIN r ON l.a = r.x WHERE 10 / l.b > 1";
    assert_eq!(assert_paths_agree(sql, &p).unwrap(), vec!["[Int(1)]"]);
}

// ---------------------------------------------------------------------------
// One equi-key rule: a column-free operand is a (left-side) key.

#[test]
fn a_constant_join_key_hashes_in_the_executor_and_restricts_in_the_delta() {
    // ON 1 = r.y: the executor hashes r on y and probes with the constant.
    let p = join_fixture();
    for jt in JOIN_TYPES {
        let sql = format!("SELECT l.a, r.x, r.y FROM l {jt} r ON 1 = r.y");
        assert_paths_agree(&sql, &p).unwrap();
    }

    // The outer-join delta uses the same keys: with `1 = y` extracted, a
    // change to a y = 1 row restricts both sides to key 1 — every l row
    // (constant key), only the y = 1 rows of r — and the delta still
    // reconciles old to new.
    let plan = plan_of("SELECT l.a, r.x, r.y FROM l LEFT JOIN r ON 1 = r.y");
    let l_rows = vec![row!(1i64, 0i64, 0i64), row!(2i64, 0i64, 0i64)];
    let (old_r, new_r) = (vec![row!(7i64, 2i64)], vec![row!(7i64, 2i64), row!(8i64, 1i64)]);
    let (mut old, mut new, mut changes) = (MapProvider::new(), MapProvider::new(), MapChanges::new());
    old.insert(L, l_rows.clone());
    new.insert(L, l_rows);
    old.insert(R, old_r);
    new.insert(R, new_r);
    changes.insert(R, ChangeSet::new(vec![row!(8i64, 1i64)], vec![]));
    let ctx = DeltaContext {
        old: &old,
        new: &new,
        changes: &changes,
        outer_join: OuterJoinStrategy::Direct,
    };
    let d = delta(&plan, &ctx).unwrap();
    let null = Value::Null;
    let padded = |a: i64| Row::new(vec![Value::Int(a), null.clone(), null.clone()]);
    assert_eq!(d.deletes(), &[padded(1), padded(2)]);
    assert_eq!(d.inserts(), &[row!(1i64, 8i64, 1i64), row!(2i64, 8i64, 1i64)]);
}

// ---------------------------------------------------------------------------
// Refreshes of a join DT and an aggregate-over-join DT, against a model.

const PARTITION_CAPACITY: usize = 8;
const CUSTOMERS: i64 = 64;

/// `orders (id, cust, amount)` and `customers (cust, region)` as the test
/// believes them to be.
#[derive(Default)]
struct Model {
    orders: Vec<(i64, i64, i64)>,
    customers: BTreeMap<i64, i64>,
    next_order: i64,
}

impl Model {
    fn add_customers(&mut self, s: &Session, custs: std::ops::Range<i64>) {
        let values: Vec<String> = custs
            .map(|c| {
                self.customers.insert(c, c % 4);
                format!("({c}, {})", c % 4)
            })
            .collect();
        s.execute(&format!("INSERT INTO customers VALUES {}", values.join(", "))).unwrap();
    }

    /// `n` orders for customers `first_cust, first_cust + 1, …` (wrapping
    /// within `span` customers).
    fn add_orders(&mut self, s: &Session, n: i64, first_cust: i64, span: i64) {
        let values: Vec<String> = (0..n)
            .map(|i| {
                let (id, cust) = (self.next_order + i, first_cust + i % span);
                self.orders.push((id, cust, 10 + id % 7));
                format!("({id}, {cust}, {})", 10 + id % 7)
            })
            .collect();
        self.next_order += n;
        s.execute(&format!("INSERT INTO orders VALUES {}", values.join(", "))).unwrap();
    }

    fn reprice(&mut self, s: &Session, from: i64, to: i64) {
        for o in self.orders.iter_mut().filter(|o| o.0 >= from && o.0 < to) {
            o.2 += 100;
        }
        s.execute(&format!("UPDATE orders SET amount = amount + 100 WHERE id >= {from} AND id < {to}"))
            .unwrap();
    }

    fn delete_orders(&mut self, s: &Session, from: i64, to: i64) {
        self.orders.retain(|o| o.0 < from || o.0 >= to);
        s.execute(&format!("DELETE FROM orders WHERE id >= {from} AND id < {to}")).unwrap();
    }

    fn move_customer(&mut self, s: &Session, cust: i64, region: i64) {
        self.customers.insert(cust, region);
        s.execute(&format!("UPDATE customers SET region = {region} WHERE cust = {cust}")).unwrap();
    }

    fn drop_customers(&mut self, s: &Session, from: i64, to: i64) {
        self.customers.retain(|c, _| *c < from || *c >= to);
        s.execute(&format!("DELETE FROM customers WHERE cust >= {from} AND cust < {to}")).unwrap();
    }

    /// `orders ⋈ customers`, sorted.
    fn joined(&self) -> Vec<Row> {
        let mut out: Vec<Row> = (self.orders.iter())
            .filter_map(|&(id, cust, amount)| {
                self.customers.get(&cust).map(|&region| row!(id, cust, amount, region))
            })
            .collect();
        out.sort();
        out
    }

    /// `count(*)`, `sum(amount)` of the join by region.
    fn by_region(&self) -> Vec<Row> {
        let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for r in self.joined() {
            let g = groups.entry(r.get(3).expect_int().unwrap()).or_default();
            g.0 += 1;
            g.1 += r.get(2).expect_int().unwrap();
        }
        groups.into_iter().map(|(region, (n, total))| row!(region, n, total)).collect()
    }

    fn check(&self, s: &Session, round: &str) {
        let got = s.query_sorted("SELECT id, cust, amount, region FROM oc").unwrap();
        assert_eq!(got, self.joined(), "oc after {round}");
        let got = s.query_sorted("SELECT region, n, total FROM by_region").unwrap();
        assert_eq!(got, self.by_region(), "by_region after {round}");
    }
}

#[test]
fn join_and_aggregate_over_join_dts_stay_correct_and_prune_the_opposite_side() {
    let engine = Engine::new(DbConfig {
        validate_dvs: true,
        partition_capacity: PARTITION_CAPACITY,
        ..DbConfig::default()
    });
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE orders (id INT, cust INT, amount INT)").unwrap();
    s.execute("CREATE TABLE customers (cust INT, region INT)").unwrap();
    let mut model = Model::default();
    // Customers arrive in order: 8 partitions with disjoint `cust` ranges.
    model.add_customers(&s, 0..CUSTOMERS);
    model.add_orders(&s, 160, 0, CUSTOMERS);
    s.execute(
        "CREATE DYNAMIC TABLE oc TARGET_LAG = '1 minute' WAREHOUSE = wh AS \
         SELECT o.id, o.cust, o.amount, c.region FROM orders o JOIN customers c ON o.cust = c.cust",
    )
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE by_region TARGET_LAG = '1 minute' WAREHOUSE = wh AS \
         SELECT c.region, count(*) n, sum(o.amount) total FROM orders o \
         JOIN customers c ON o.cust = c.cust GROUP BY c.region",
    )
    .unwrap();
    model.check(&s, "initialization");
    /// Refresh both DTs and check them; returns how many partitions the
    /// refreshes' scans pruned.
    fn refresh(s: &Session, model: &Model, round: &str) -> u64 {
        let before = dt_storage::zone_map_pruned_total();
        s.manual_refresh("oc").unwrap();
        s.manual_refresh("by_region").unwrap();
        model.check(s, round);
        dt_storage::zone_map_pruned_total() - before
    }

    // New orders for customers 16..19 only: each DT's refresh scans
    // `customers` for the delta's keys and skips the 7 partitions whose
    // `cust` range cannot hold them.
    model.add_orders(&s, 12, 16, 4);
    let pruned = refresh(&s, &model, "an insert round on the probe side");
    assert!(pruned >= 14, "the customers scans pruned only {pruned} partitions");

    model.reprice(&s, 40, 60);
    refresh(&s, &model, "an update round");

    model.delete_orders(&s, 100, 130);
    refresh(&s, &model, "a delete round");

    // A change on the build side: one customer moves region, four go.
    model.move_customer(&s, 17, 3);
    model.drop_customers(&s, 40, 44);
    refresh(&s, &model, "a round that changes customers");

    // Both sides in one round, with orders for customers that no longer
    // (or do not yet) exist.
    model.add_orders(&s, 20, 38, 30);
    model.add_customers(&s, CUSTOMERS..CUSTOMERS + 4);
    model.reprice(&s, 0, 10);
    refresh(&s, &model, "a mixed round");

    model.delete_orders(&s, 0, model.next_order);
    refresh(&s, &model, "emptying orders");
    model.add_orders(&s, 50, 0, CUSTOMERS + 4);
    refresh(&s, &model, "refilling them");

    let log = engine.refresh_log();
    assert_eq!(log.count_action("failed"), 0);
    assert!(log.count_action("incremental") >= 14, "{:?}", log.entries());
}
