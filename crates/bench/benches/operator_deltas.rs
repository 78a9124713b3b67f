//! Criterion bench: per-operator differentiation cost and the §5.5
//! ablations (exp-operators in DESIGN.md):
//!
//! * delta computation per operator family vs full recompute;
//! * outer join: direct derivative vs the naive inner∪anti rewrite
//!   (§5.5.1's duplicated-subplan cost);
//! * change consolidation vs the insert-only specialization that skips it
//!   (§5.5.2).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dt_common::{row, Column, DataType, EntityId, Row, Schema};
use dt_exec::MapProvider;
use dt_ivm::{delta, DeltaContext, MapChanges, OuterJoinStrategy};
use dt_plan::{AggExpr, AggFunc, JoinType, LogicalPlan, ScalarExpr, WindowExpr, WindowFunc};
use dt_storage::ChangeSet;

const N: usize = 5000;
const DELTA_N: usize = 50;

fn scan(id: u64) -> LogicalPlan {
    LogicalPlan::TableScan {
        entity: EntityId(id),
        name: format!("t{id}"),
        schema: Arc::new(Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ])),
        pushdown: None,
    }
}

/// Rows are (unique_key, group): join keys are unique (fanout 1, the
/// common case for key joins), groups have ~100 members each.
fn rows(n: usize, offset: i64) -> Vec<Row> {
    (0..n)
        .map(|i| row!(offset + i as i64, (i % 100) as i64))
        .collect()
}

struct Fixture {
    old: MapProvider,
    new: MapProvider,
    changes: MapChanges,
}

fn fixture() -> Fixture {
    let base = rows(N, 0);
    let fresh = rows(DELTA_N, N as i64); // fresh unique keys, existing groups
    let mut new_rows = base.clone();
    new_rows.extend(fresh.clone());
    let mut old = MapProvider::new();
    old.insert(EntityId(1), base.clone());
    old.insert(EntityId(2), base.clone());
    let mut new = MapProvider::new();
    new.insert(EntityId(1), new_rows.clone());
    new.insert(EntityId(2), base.clone());
    let mut changes = MapChanges::new();
    changes.insert(EntityId(1), ChangeSet::new(fresh, vec![]));
    changes.insert(EntityId(2), ChangeSet::empty());
    Fixture { old, new, changes }
}

fn plans() -> Vec<(&'static str, LogicalPlan)> {
    let join_on = ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2));
    vec![
        (
            "filter",
            LogicalPlan::Filter {
                input: Box::new(scan(1)),
                predicate: ScalarExpr::Binary {
                    left: Box::new(ScalarExpr::col(1)),
                    op: dt_plan::expr::BinOp::Gt,
                    right: Box::new(ScalarExpr::lit(10i64)),
                },
            },
        ),
        (
            "inner_join",
            LogicalPlan::Join {
                left: Box::new(scan(1)),
                right: Box::new(scan(2)),
                join_type: JoinType::Inner,
                on: join_on.clone(),
                schema: Arc::new(scan(1).schema().join(&scan(2).schema())),
            },
        ),
        (
            "aggregate",
            LogicalPlan::Aggregate {
                input: Box::new(scan(1)),
                group_exprs: vec![ScalarExpr::col(1)],
                aggregates: vec![AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col(0)),
                    distinct: false,
                    name: "s".into(),
                }],
                schema: Arc::new(Schema::new(vec![
                    Column::new("k", DataType::Int),
                    Column::new("s", DataType::Int),
                ])),
            },
        ),
        (
            "distinct",
            LogicalPlan::Distinct {
                input: Box::new(scan(1)),
            },
        ),
        (
            "window",
            LogicalPlan::Window {
                input: Box::new(scan(1)),
                exprs: vec![WindowExpr {
                    func: WindowFunc::Sum,
                    arg: Some(ScalarExpr::col(0)),
                    partition_by: vec![ScalarExpr::col(1)],
                    order_by: vec![(ScalarExpr::col(0), false)],
                    name: "w".into(),
                }],
                schema: Arc::new(Schema::new(vec![
                    Column::new("k", DataType::Int),
                    Column::new("v", DataType::Int),
                    Column::new("w", DataType::Int),
                ])),
            },
        ),
    ]
}

fn bench_operator_deltas(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("operator_delta");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for (name, plan) in plans() {
        group.bench_with_input(BenchmarkId::new("delta", name), &plan, |b, plan| {
            let ctx = DeltaContext {
                old: &f.old,
                new: &f.new,
                changes: &f.changes,
                outer_join: OuterJoinStrategy::Direct,
            };
            b.iter(|| delta(plan, &ctx).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("full_recompute", name), &plan, |b, plan| {
            b.iter(|| {
                // Full refresh baseline: evaluate at the new snapshot.
                let new = dt_exec::execute(plan, &f.new).unwrap();
                let old = dt_exec::execute(plan, &f.old).unwrap();
                ChangeSet::new(new, old).consolidate()
            });
        });
    }
    group.finish();
}

fn bench_outer_join_strategies(c: &mut Criterion) {
    let f = fixture();
    let plan = LogicalPlan::Join {
        left: Box::new(scan(1)),
        right: Box::new(scan(2)),
        join_type: JoinType::Left,
        on: ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2)),
        schema: Arc::new(scan(1).schema().join(&scan(2).schema())),
    };
    let mut group = c.benchmark_group("outer_join_strategy");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for (label, strategy) in [
        ("direct", OuterJoinStrategy::Direct),
        ("naive_rewrite", OuterJoinStrategy::NaiveRewrite),
    ] {
        group.bench_function(label, |b| {
            let ctx = DeltaContext {
                old: &f.old,
                new: &f.new,
                changes: &f.changes,
                outer_join: strategy,
            };
            b.iter(|| delta(&plan, &ctx).unwrap());
        });
    }
    group.finish();
}

fn bench_consolidation(c: &mut Criterion) {
    // Insert-only specialization: consolidation is a no-op that can be
    // skipped when the plan and changes are insert-only (§5.5.2).
    let inserts: Vec<Row> = rows(20_000, 0);
    let mut group = c.benchmark_group("consolidation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    group.bench_function("consolidate", |b| {
        b.iter_with_setup(
            || ChangeSet::new(inserts.clone(), vec![]),
            |cs| cs.consolidate(),
        );
    });
    group.bench_function("insert_only_skip", |b| {
        let plan = scan(1);
        b.iter_with_setup(
            || ChangeSet::new(inserts.clone(), vec![]),
            |cs| {
                // What a refresh does when every source change is an insert.
                if dt_ivm::merge::is_insert_only_safe(&plan) {
                    cs
                } else {
                    cs.consolidate()
                }
            },
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_operator_deltas,
    bench_outer_join_strategies,
    bench_consolidation
);
criterion_main!(benches);
