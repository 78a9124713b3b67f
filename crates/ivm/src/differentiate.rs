//! The differentiation rules.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dt_common::{Batch, DtResult, EntityId, Row, Schema, Value};
use dt_exec::aggregate::{execute_aggregate_batches, fold_aggregate_delta, folds_from_delta};
use dt_exec::batch::flatten;
use dt_exec::keys::{try_eval_columns, KeyTable, ABSENT};
use dt_exec::{execute_batches, TableProvider};
use dt_plan::{
    equi_join_keys, push_down_filters, AggExpr, BinOp, JoinType, LogicalPlan, ScalarExpr,
};
use dt_storage::ChangeSet;

use crate::merge::project_delta;

/// Supplies per-entity change sets over the refresh interval.
pub trait ChangeProvider {
    /// The changes to `entity` over the interval being differentiated —
    /// borrowed where the provider holds them, so a plan that scans one
    /// source several times copies its change set for none of them.
    fn changes(&self, entity: EntityId) -> DtResult<Cow<'_, ChangeSet>>;
}

/// An in-memory change provider (tests, benches).
#[derive(Debug, Clone, Default)]
pub struct MapChanges {
    changes: HashMap<EntityId, ChangeSet>,
}

impl MapChanges {
    /// Empty provider (entities default to no change).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register changes for an entity.
    pub fn insert(&mut self, entity: EntityId, cs: ChangeSet) {
        self.changes.insert(entity, cs);
    }
}

impl ChangeProvider for MapChanges {
    fn changes(&self, entity: EntityId) -> DtResult<Cow<'_, ChangeSet>> {
        Ok(self.changes.get(&entity).map_or_else(Cow::default, Cow::Borrowed))
    }
}

/// How outer joins are differentiated (§5.5.1 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OuterJoinStrategy {
    /// Direct derivative: restrict both sides to the affected join keys and
    /// recompute the outer join over the restriction at both snapshot ends.
    /// Common terms (the unaffected keys) are factored out entirely.
    #[default]
    Direct,
    /// The original rewrite: outer join = inner join ∪ padded anti-join(s),
    /// differentiated term by term. The `Q` and `R` sub-plans are evaluated
    /// once *per term*, reproducing the duplicated-subplan cost the paper
    /// describes (and abandoned).
    NaiveRewrite,
}

/// Everything a differentiation pass needs: snapshot providers at both ends
/// of the interval plus the per-entity source changes.
pub struct DeltaContext<'a> {
    /// Snapshot at the interval start `t0` (the previous data timestamp).
    pub old: &'a dyn TableProvider,
    /// Snapshot at the interval end `t1` (the new data timestamp).
    pub new: &'a dyn TableProvider,
    /// Source change sets over `(t0, t1]`.
    pub changes: &'a dyn ChangeProvider,
    /// Outer-join differentiation strategy.
    pub outer_join: OuterJoinStrategy,
}

/// A DT's own rows at the version a delta will be merged into. Under
/// delayed view semantics (§6.1) they *are* its defining plan's output at
/// the interval start, so a rule that needs the old output of the affected
/// groups can look it up here — as the merge finds old rows in the DT, by
/// row id, not in the sources.
#[derive(Clone, Copy)]
pub struct StoredOutput<'a> {
    /// Resolves [`StoredOutput::entity`] to the DT's rows — the plan's
    /// output columns, no `$ROW_ID` — at that version.
    pub provider: &'a dyn TableProvider,
    /// The DT.
    pub entity: EntityId,
}

/// Where the node being differentiated finds its own output at the
/// interval start: in the DT's stored rows, column `j` of the node being
/// their column `columns[j]`.
#[derive(Clone)]
struct Stored<'a> {
    rows: StoredOutput<'a>,
    schema: Arc<Schema>,
    columns: Vec<usize>,
}

impl Stored<'_> {
    /// The node's output rows for the groups of `affected` (keyed on the
    /// node's first `keys` columns), in key order. Zone maps keep the scan
    /// to the DT partitions whose key range meets the affected keys.
    fn read(&self, keys: usize, affected: &KeyTable) -> DtResult<Vec<Row>> {
        let scan = LogicalPlan::TableScan {
            entity: self.rows.entity,
            name: String::new(),
            schema: Arc::clone(&self.schema),
            pushdown: None,
        };
        let key_columns: Vec<_> = self.columns[..keys].iter().map(|c| ScalarExpr::col(*c)).collect();
        let stored = flatten(restricted(&scan, self.rows.provider, &key_columns, affected)?);
        let pick = |r: &Row| Row::new(self.columns.iter().map(|c| r.get(*c).clone()).collect());
        let mut rows: Vec<Row> = stored.iter().map(pick).collect();
        sort_by_key(&mut rows, keys);
        Ok(rows)
    }
}

fn sort_by_key(rows: &mut [Row], keys: usize) {
    rows.sort_by(|a, b| a.values()[..keys].cmp(&b.values()[..keys]));
}

/// Carry a stored column mapping through a projection: where each input
/// column sits in the stored rows, when `exprs` keeps every one of them as
/// a bare column.
fn columns_below(columns: &[usize], exprs: &[ScalarExpr], arity: usize) -> Option<Vec<usize>> {
    (0..arity)
        .map(|j| {
            let at = exprs.iter().position(|e| matches!(e, ScalarExpr::Column(c) if *c == j))?;
            Some(columns[at])
        })
        .collect()
}

/// The `Aggregate` whose output a DT defined by `plan` stores: the root,
/// or the node under projections that keep all of its columns.
fn stored_aggregate(plan: &LogicalPlan) -> Option<&LogicalPlan> {
    let mut columns: Vec<usize> = (0..plan.schema().len()).collect();
    let mut node = plan;
    loop {
        match node {
            LogicalPlan::Project { input, exprs, .. } => {
                columns = columns_below(&columns, exprs, input.schema().len())?;
                node = input;
            }
            LogicalPlan::Aggregate { .. } => return Some(node),
            _ => return None,
        }
    }
}

/// One line per `Aggregate` of `plan`, in the order `EXPLAIN` prints them,
/// saying what an incremental refresh of a DT defined by `plan` reads for
/// it: which aggregates are maintained from the delta, which force a
/// recompute of every affected group (so a refresh reads the node's whole
/// input), and where the groups' old rows come from. Empty for a plan no
/// refresh differentiates.
pub fn aggregate_maintenance(plan: &LogicalPlan) -> Vec<String> {
    let mut notes = Vec::new();
    if !plan.is_differentiable() {
        return notes;
    }
    let stored = stored_aggregate(plan);
    plan.walk(&mut |node| {
        let LogicalPlan::Aggregate { aggregates, schema, .. } = node else {
            return;
        };
        let (mut folded, mut recomputed) = (Vec::new(), Vec::new());
        for (a, folds) in aggregates.iter().zip(folds_from_delta(aggregates, schema)) {
            let func = a.func.name();
            let distinct = if a.distinct { "DISTINCT " } else { "" };
            let arg = a.arg.as_ref().map_or("*".to_string(), ScalarExpr::to_string);
            if folds { &mut folded } else { &mut recomputed }.push(format!("{func}({distinct}{arg})"));
        }
        let list = |names: Vec<String>| match names.is_empty() {
            true => "none".to_string(),
            false => names.join(", "),
        };
        let old = match stored.is_some_and(|s| std::ptr::eq(s, node)) {
            true => "the stored DT",
            false => "the source at the old end",
        };
        notes.push(format!(
            "maintained from the delta: {}; recompute their group from the source: {}; old rows from {old}",
            list(folded),
            list(recomputed),
        ));
    });
    notes
}

/// Compute `Δ_I plan`: the consolidated change set over the interval.
pub fn delta(plan: &LogicalPlan, ctx: &DeltaContext<'_>) -> DtResult<ChangeSet> {
    Ok(delta_inner(plan, ctx)?.into_owned().consolidate())
}

/// [`delta`] for the refresh of a DT whose rows are `stored`: the same
/// change set, with the old output of an aggregation read back from the DT
/// instead of recomputed from the sources wherever the DT holds it.
pub fn delta_over_stored(
    plan: &LogicalPlan,
    ctx: &DeltaContext<'_>,
    stored: StoredOutput<'_>,
) -> DtResult<ChangeSet> {
    let schema = plan.schema();
    let stored = Stored {
        rows: stored,
        columns: (0..schema.len()).collect(),
        schema,
    };
    Ok(delta_node(plan, ctx, Some(stored))?.into_owned().consolidate())
}

/// As [`delta`] but without the final change-consolidation pass — the
/// insert-only specialization of §5.5.2. Only sound when
/// [`crate::merge::is_insert_only_safe`] holds for the plan and every
/// source change set is insert-only; the differentiated output is then
/// guaranteed to contain no cancelling pairs.
pub fn delta_unconsolidated(plan: &LogicalPlan, ctx: &DeltaContext<'_>) -> DtResult<ChangeSet> {
    Ok(delta_inner(plan, ctx)?.into_owned())
}

/// `Δ plan` of a node whose output no DT stores.
fn delta_inner<'a>(plan: &LogicalPlan, ctx: &DeltaContext<'a>) -> DtResult<Cow<'a, ChangeSet>> {
    delta_node(plan, ctx, None)
}

/// `Δ plan`, unconsolidated. Only a bare scan borrows (the source's own
/// change set); every operator above it builds a new one.
fn delta_node<'a>(
    plan: &LogicalPlan,
    ctx: &DeltaContext<'a>,
    stored: Option<Stored<'_>>,
) -> DtResult<Cow<'a, ChangeSet>> {
    let built: DtResult<ChangeSet> = match plan {
        LogicalPlan::TableScan { entity, .. } => return ctx.changes.changes(*entity),
        LogicalPlan::SingleRow => Ok(ChangeSet::empty()),
        LogicalPlan::Filter { input, predicate } => {
            let d = delta_inner(input, ctx)?;
            let keep = |rows: &[Row]| -> DtResult<Vec<Row>> {
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    if predicate.eval(r)?.is_true() {
                        out.push(r.clone());
                    }
                }
                Ok(out)
            };
            Ok(ChangeSet::new(keep(d.inserts())?, keep(d.deletes())?))
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let below = stored.and_then(|s| {
                let columns = columns_below(&s.columns, exprs, input.schema().len())?;
                Some(Stored { columns, ..s })
            });
            let d = delta_node(input, ctx, below)?;
            project_delta(&d, exprs)
        }
        LogicalPlan::UnionAll { inputs, .. } => {
            let mut out = ChangeSet::empty();
            for i in inputs {
                out.extend(delta_inner(i, ctx)?.into_owned());
            }
            Ok(out)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            ..
        } => match join_type {
            JoinType::Inner => inner_join_delta(left, right, on, ctx),
            _ => match ctx.outer_join {
                OuterJoinStrategy::Direct => {
                    outer_join_delta_direct(left, right, *join_type, on, ctx)
                }
                OuterJoinStrategy::NaiveRewrite => {
                    outer_join_delta_naive(left, right, *join_type, on, ctx)
                }
            },
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            schema,
        } => {
            #[cfg(test)]
            if tests::oracle::TWO_SIDED.get() {
                return tests::oracle::aggregate_delta(input, group_exprs, aggregates, ctx)
                    .map(Cow::Owned);
            }
            aggregate_delta(input, group_exprs, aggregates, schema, stored, ctx)
        }
        LogicalPlan::Distinct { input } => {
            let d = delta_inner(input, ctx)?;
            if d.is_empty() {
                return Ok(Cow::default());
            }
            // Affected "keys" are the changed rows themselves.
            let all_columns: Vec<ScalarExpr> =
                (0..input.schema().len()).map(ScalarExpr::col).collect();
            let affected = affected_keys(&d, &all_columns)?;
            let present = |provider| -> DtResult<HashSet<Row>> {
                let batches = restricted(input, provider, &all_columns, &affected)?;
                Ok(flatten(batches).into_iter().collect())
            };
            let old_present = present(ctx.old)?;
            let new_present = present(ctx.new)?;
            let inserts: Vec<Row> = new_present.difference(&old_present).cloned().collect();
            let deletes: Vec<Row> = old_present.difference(&new_present).cloned().collect();
            Ok(ChangeSet::new(inserts, deletes))
        }
        LogicalPlan::Window { input, exprs, .. } => {
            let d = delta_inner(input, ctx)?;
            if d.is_empty() {
                return Ok(Cow::default());
            }
            // The paper's rule: recompute every changed partition at both
            // snapshot ends. Partition keys are the union of all window
            // exprs' PARTITION BY keys evaluated on changed rows.
            let mut key_exprs: Vec<ScalarExpr> = Vec::new();
            for w in exprs {
                for k in &w.partition_by {
                    if !key_exprs.contains(k) {
                        key_exprs.push(k.clone());
                    }
                }
            }
            let affected = affected_keys(&d, &key_exprs)?;
            let old_rows = flatten(restricted(input, ctx.old, &key_exprs, &affected)?);
            let new_rows = flatten(restricted(input, ctx.new, &key_exprs, &affected)?);
            let old_out = dt_exec::window::execute_window(&old_rows, exprs)?;
            let new_out = dt_exec::window::execute_window(&new_rows, exprs)?;
            Ok(ChangeSet::new(new_out, old_out))
        }
        LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => Err(dt_common::DtError::Unsupported(
            "ORDER BY / LIMIT plans are not differentiable; use FULL refresh mode".into(),
        )),
    };
    built.map(Cow::Owned)
}

/// `Δ γ(Q)`: the groups `ΔQ` touches, as they were (deletes) and as they
/// are (inserts). As they were is read back from the DT when it stores
/// this node's output, else recomputed from `Q` at the old end. As they
/// are is folded from those old rows and `ΔQ`; `Q` is read, at the new end
/// only, for the groups the fold cannot decide — and not at all when
/// there are none.
fn aggregate_delta(
    input: &LogicalPlan,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
    schema: &Schema,
    stored: Option<Stored<'_>>,
    ctx: &DeltaContext<'_>,
) -> DtResult<ChangeSet> {
    let d = delta_inner(input, ctx)?;
    if d.is_empty() {
        return Ok(ChangeSet::empty());
    }
    let affected = affected_keys(&d, group_exprs)?;
    // One pass over `Q`: rows of other groups are dropped by the
    // aggregate's own key lookup. (No key-range filter here, unlike
    // `restricted`: a group's rows lie all over the input, so the range
    // rarely rules a partition out, and checking it against thousands of
    // small partitions cost a `txn_contention` round 3–4 ms of its 18.)
    let recompute = |provider, only: KeyTable| -> DtResult<Vec<Row>> {
        let batches = evaluate_batches(input, provider)?;
        execute_aggregate_batches(&batches, group_exprs, aggregates, Some(only))
    };
    let keys = group_exprs.len();
    let old_out = match stored {
        Some(stored) => stored.read(keys, &affected)?,
        None => recompute(ctx.old, affected.clone())?,
    };
    let (mut new_out, undecided) = fold_aggregate_delta(
        group_exprs,
        aggregates,
        schema,
        affected,
        &old_out,
        d.inserts(),
        d.deletes(),
    );
    if !undecided.is_empty() {
        new_out.extend(recompute(ctx.new, undecided)?);
    }
    sort_by_key(&mut new_out, keys);
    // A group that vanished is only a delete, a new one only an insert.
    Ok(ChangeSet::new(new_out, old_out))
}

/// `Δ(Q ⋈ R) = ΔQ ⋈ R₁ + Q₀ ⋈ ΔR` — signed join where insert × insert =
/// insert, insert × delete = delete, etc.
fn inner_join_delta(
    left: &LogicalPlan,
    right: &LogicalPlan,
    on: &ScalarExpr,
    ctx: &DeltaContext<'_>,
) -> DtResult<ChangeSet> {
    let dl = delta_inner(left, ctx)?;
    let dr = delta_inner(right, ctx)?;
    let la = left.schema().len();
    let ra = right.schema().len();
    let mut out = ChangeSet::empty();
    // Each delta only meets the opposite side's rows that carry one of its
    // join keys; without equi keys, all of them.
    let keys = equi_join_keys(on, la);
    let opposite = |side: &LogicalPlan, provider, side_keys: &[ScalarExpr], d: &ChangeSet, d_keys| {
        if side_keys.is_empty() {
            return evaluate(side, provider);
        }
        Ok(flatten(restricted(
            side,
            provider,
            side_keys,
            &affected_keys(d, d_keys)?,
        )?))
    };
    if !dl.is_empty() {
        let r1 = opposite(right, ctx.new, &keys.right, &dl, &keys.left)?;
        signed_join_into(
            &mut out,
            (dl.inserts(), dl.deletes()),
            (&r1, &[]),
            la,
            ra,
            on,
        )?;
    }
    if !dr.is_empty() {
        let q0 = opposite(left, ctx.old, &keys.left, &dr, &keys.right)?;
        signed_join_into(
            &mut out,
            (&q0, &[]),
            (dr.inserts(), dr.deletes()),
            la,
            ra,
            on,
        )?;
    }
    Ok(out)
}

/// Join two signed sets, each an (inserts, deletes) pair of row slices,
/// accumulating weighted results into `out`.
fn signed_join_into(
    out: &mut ChangeSet,
    l: (&[Row], &[Row]),
    r: (&[Row], &[Row]),
    la: usize,
    ra: usize,
    on: &ScalarExpr,
) -> DtResult<()> {
    // Four sign combinations; inner-join execution handles the matching.
    let combos: [(&[Row], &[Row], bool); 4] = [
        (l.0, r.0, true),
        (l.0, r.1, false),
        (l.1, r.0, false),
        (l.1, r.1, true),
    ];
    for (lrows, rrows, insert) in combos {
        if lrows.is_empty() || rrows.is_empty() {
            continue;
        }
        let joined = dt_exec::join::execute_join(lrows, rrows, la, ra, JoinType::Inner, on)?;
        for row in joined {
            if insert {
                out.push_insert(row);
            } else {
                out.push_delete(row);
            }
        }
    }
    Ok(())
}

/// Direct outer-join derivative: restrict both inputs to the join keys that
/// appear in either delta, recompute the outer join over the restrictions
/// at both ends of the interval, and emit the difference. Unaffected keys
/// never reach the join — the "factoring out common terms" of §5.5.1.
fn outer_join_delta_direct(
    left: &LogicalPlan,
    right: &LogicalPlan,
    join_type: JoinType,
    on: &ScalarExpr,
    ctx: &DeltaContext<'_>,
) -> DtResult<ChangeSet> {
    let dl = delta_inner(left, ctx)?;
    let dr = delta_inner(right, ctx)?;
    if dl.is_empty() && dr.is_empty() {
        return Ok(ChangeSet::empty());
    }
    let la = left.schema().len();
    let ra = right.schema().len();
    let keys = equi_join_keys(on, la);
    let (lk, rk) = (&keys.left, &keys.right);
    if lk.is_empty() {
        // No equi keys: every row is potentially affected; fall back to a
        // full recompute diff.
        let old = dt_exec::join::execute_join(
            &evaluate(left, ctx.old)?,
            &evaluate(right, ctx.old)?,
            la,
            ra,
            join_type,
            on,
        )?;
        let new = dt_exec::join::execute_join(
            &evaluate(left, ctx.new)?,
            &evaluate(right, ctx.new)?,
            la,
            ra,
            join_type,
            on,
        )?;
        return Ok(ChangeSet::new(new, old));
    }
    // Affected key set: keys of changed rows on either side.
    let mut affected = KeyTable::new(lk.len());
    collect_keys(&dl, lk, &mut affected)?;
    collect_keys(&dr, rk, &mut affected)?;

    let l0 = flatten(restricted(left, ctx.old, lk, &affected)?);
    let r0 = flatten(restricted(right, ctx.old, rk, &affected)?);
    let l1 = flatten(restricted(left, ctx.new, lk, &affected)?);
    let r1 = flatten(restricted(right, ctx.new, rk, &affected)?);

    let old = dt_exec::join::execute_join(&l0, &r0, la, ra, join_type, on)?;
    let new = dt_exec::join::execute_join(&l1, &r1, la, ra, join_type, on)?;
    Ok(ChangeSet::new(new, old))
}

/// Naive outer-join derivative via the inner ∪ anti rewrite. The rewrite
/// `Δ(Q ⟕ R) = Δ(Q ⋈ R) + Δ(π_{R=NULL}(Q ▷ R))` repeats the `Q` and `R`
/// terms; each term evaluates its sub-plans independently, so the input
/// plans are executed roughly twice as often as in the direct form — the
/// duplicated-subplan cost of §5.5.1. Results are identical.
fn outer_join_delta_naive(
    left: &LogicalPlan,
    right: &LogicalPlan,
    join_type: JoinType,
    on: &ScalarExpr,
    ctx: &DeltaContext<'_>,
) -> DtResult<ChangeSet> {
    let la = left.schema().len();
    let ra = right.schema().len();
    // Term 1: the inner-join delta.
    let mut out = inner_join_delta(left, right, on, ctx)?;
    // Terms 2/3: deltas of the padded anti-joins. Computed as full
    // recompute diffs of the anti-join terms (re-evaluating Q and R).
    if matches!(join_type, JoinType::Left | JoinType::Full) {
        let old = anti_join_padded(&evaluate(left, ctx.old)?, &evaluate(right, ctx.old)?, la, ra, on, true)?;
        let new = anti_join_padded(&evaluate(left, ctx.new)?, &evaluate(right, ctx.new)?, la, ra, on, true)?;
        out.extend(ChangeSet::new(new, old));
    }
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        let old = anti_join_padded(&evaluate(left, ctx.old)?, &evaluate(right, ctx.old)?, la, ra, on, false)?;
        let new = anti_join_padded(&evaluate(left, ctx.new)?, &evaluate(right, ctx.new)?, la, ra, on, false)?;
        out.extend(ChangeSet::new(new, old));
    }
    Ok(out)
}

/// `π_{other=NULL}(probe ▷ build)`: rows of one side with no join partner,
/// padded with NULLs on the other side.
fn anti_join_padded(
    left: &[Row],
    right: &[Row],
    la: usize,
    ra: usize,
    on: &ScalarExpr,
    left_side: bool,
) -> DtResult<Vec<Row>> {
    // Run the appropriate half-outer join and keep only padded rows.
    let jt = if left_side { JoinType::Left } else { JoinType::Right };
    let joined = dt_exec::join::execute_join(left, right, la, ra, jt, on)?;
    let out = joined
        .into_iter()
        .filter(|r| {
            if left_side {
                r.values()[la..].iter().all(Value::is_null)
            } else {
                r.values()[..la].iter().all(Value::is_null)
            }
        })
        .collect();
    Ok(out)
}

/// Add the key tuple of every changed row of `d` to `out`.
fn collect_keys(d: &ChangeSet, key_exprs: &[ScalarExpr], out: &mut KeyTable) -> DtResult<()> {
    let mut ids = Vec::new();
    for rows in [d.inserts(), d.deletes()] {
        let Some(r) = rows.first() else { continue };
        let b = Batch::from_rows(r.len(), rows);
        let slots = b.live_indices();
        let cols = try_eval_columns(key_exprs, &b, &slots)?;
        out.intern(&cols, &slots, &mut ids);
    }
    Ok(())
}

fn affected_keys(d: &ChangeSet, key_exprs: &[ScalarExpr]) -> DtResult<KeyTable> {
    let mut out = KeyTable::new(key_exprs.len());
    collect_keys(d, key_exprs, &mut out)?;
    Ok(out)
}

/// Evaluate a sub-plan at one end of the interval as columnar batches.
/// Filters are pushed into the scans first, like every interactive query,
/// so zone maps prune refresh scans too. (Only sub-plans handed to a
/// snapshot come through here: [`delta_inner`] recurses on the un-pushed
/// plan, whose scans stand for the raw source changes.)
fn evaluate_batches(plan: &LogicalPlan, provider: &dyn TableProvider) -> DtResult<Vec<Batch>> {
    execute_batches(&push_down_filters(plan), provider)
}

/// [`evaluate_batches`], materialized as rows.
fn evaluate(plan: &LogicalPlan, provider: &dyn TableProvider) -> DtResult<Vec<Row>> {
    Ok(flatten(evaluate_batches(plan, provider)?))
}

/// `[min, max]` over `keys` of every key that is a bare column, as one
/// conjunction — a filter that keeps every row whose key tuple is in
/// `keys`, and lets zone maps rule out partitions that lie outside them.
fn key_range(key_exprs: &[ScalarExpr], keys: &KeyTable) -> Option<ScalarExpr> {
    let mut bounds = Vec::new();
    for (k, e) in key_exprs.iter().enumerate() {
        let values = || (0..keys.len()).map(|id| &keys.key(id)[k]);
        // A NULL key is matched by NULL rows, which no comparison keeps.
        if !matches!(e, ScalarExpr::Column(_)) || values().any(Value::is_null) {
            continue;
        }
        for (op, bound) in [(BinOp::GtEq, values().min()), (BinOp::LtEq, values().max())] {
            bounds.push(ScalarExpr::Binary {
                left: Box::new(e.clone()),
                op,
                right: Box::new(ScalarExpr::Literal(bound?.clone())),
            });
        }
    }
    ScalarExpr::and_all(&bounds)
}

/// Evaluate a sub-plan and narrow each batch's selection to the rows whose
/// key tuple is in `keys`, so only those rows are ever materialized. The
/// keys' range goes in as a filter above the plan first, which the pushdown
/// carries into the scans: partitions whose zone maps lie outside the
/// affected keys are never read.
fn restricted(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    key_exprs: &[ScalarExpr],
    keys: &KeyTable,
) -> DtResult<Vec<Batch>> {
    if keys.is_empty() {
        return Ok(Vec::new());
    }
    let mut batches = match key_range(key_exprs, keys) {
        None => evaluate_batches(plan, provider)?,
        Some(predicate) => {
            let input = Box::new(plan.clone());
            evaluate_batches(&LogicalPlan::Filter { input, predicate }, provider)?
        }
    };
    let mut ids = Vec::new();
    for b in &mut batches {
        let slots = b.live_indices();
        let cols = try_eval_columns(key_exprs, b, &slots)?;
        keys.find(&cols, &slots, &mut ids);
        let mut keep = vec![false; b.len()];
        for (&slot, &id) in slots.iter().zip(&ids) {
            keep[slot] = id != ABSENT;
        }
        b.set_selection(Some(keep));
    }
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;
    use dt_exec::{execute, MapProvider};

    mod fixtures {
        use super::*;

        /// Apply a change set to a row multiset.
        pub fn apply(mut rows: Vec<Row>, cs: &ChangeSet) -> Vec<Row> {
            for d in cs.deletes() {
                let pos = rows
                    .iter()
                    .position(|r| r == d)
                    .unwrap_or_else(|| panic!("delete of missing row {d}"));
                rows.swap_remove(pos);
            }
            rows.extend(cs.inserts().iter().cloned());
            rows.sort();
            rows
        }
    }

    /// Check Δ correctness: old result + Δ == new result (as multisets).
    fn check_delta(
        plan: &LogicalPlan,
        old: &MapProvider,
        new: &MapProvider,
        changes: &MapChanges,
        strategy: OuterJoinStrategy,
    ) -> ChangeSet {
        let ctx = DeltaContext {
            old,
            new,
            changes,
            outer_join: strategy,
        };
        let d = delta(plan, &ctx).unwrap();
        let mut expect = execute(plan, new).unwrap();
        expect.sort();
        let got = fixtures::apply(execute(plan, old).unwrap(), &d);
        assert_eq!(got, expect, "delta did not reconcile old to new");
        d
    }

    use dt_common::{Column, DataType, DtError, EntityId, Schema};
    use std::sync::Arc;

    fn scan(id: u64, cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::TableScan {
            entity: EntityId(id),
            name: format!("t{id}"),
            schema: Arc::new(Schema::new(
                cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
            )),
            pushdown: None,
        }
    }

    fn two_int_scan(id: u64) -> LogicalPlan {
        scan(id, &[("k", DataType::Int), ("v", DataType::Int)])
    }

    /// Fixture: t1 = {(1,10),(2,20)} → {(1,10),(2,25),(3,30)}.
    fn fixture() -> (MapProvider, MapProvider, MapChanges) {
        let mut old = MapProvider::new();
        old.insert(EntityId(1), vec![row!(1i64, 10i64), row!(2i64, 20i64)]);
        let mut new = MapProvider::new();
        new.insert(
            EntityId(1),
            vec![row!(1i64, 10i64), row!(2i64, 25i64), row!(3i64, 30i64)],
        );
        let mut ch = MapChanges::new();
        ch.insert(
            EntityId(1),
            ChangeSet::new(
                vec![row!(2i64, 25i64), row!(3i64, 30i64)],
                vec![row!(2i64, 20i64)],
            ),
        );
        (old, new, ch)
    }

    #[test]
    fn scan_delta_is_source_change() {
        let (old, new, ch) = fixture();
        let plan = two_int_scan(1);
        let d = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn filter_delta() {
        let (old, new, ch) = fixture();
        let plan = LogicalPlan::Filter {
            input: Box::new(two_int_scan(1)),
            predicate: ScalarExpr::Binary {
                left: Box::new(ScalarExpr::col(1)),
                op: dt_plan::expr::BinOp::Gt,
                right: Box::new(ScalarExpr::lit(15i64)),
            },
        };
        let d = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
        // (1,10) changes filtered out entirely.
        assert!(d
            .inserts()
            .iter()
            .chain(d.deletes().iter())
            .all(|r| r.get(1).expect_int().unwrap() > 15));
    }

    #[test]
    fn project_delta_applies_exprs() {
        let (old, new, ch) = fixture();
        let plan = LogicalPlan::Project {
            input: Box::new(two_int_scan(1)),
            exprs: vec![ScalarExpr::col(0)],
            schema: Arc::new(Schema::new(vec![Column::new("k", DataType::Int)])),
        };
        let d = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
        // Projection makes the (2,20)→(2,25) update cancel on column k.
        assert_eq!(d.inserts(), &[row!(3i64)]);
        assert!(d.deletes().is_empty());
    }

    fn join_fixture() -> (MapProvider, MapProvider, MapChanges, LogicalPlan) {
        // left(1): k,v — right(2): k,w
        let mut old = MapProvider::new();
        old.insert(EntityId(1), vec![row!(1i64, 10i64), row!(2i64, 20i64)]);
        old.insert(EntityId(2), vec![row!(1i64, 100i64), row!(9i64, 900i64)]);
        let mut new = MapProvider::new();
        new.insert(
            EntityId(1),
            vec![row!(1i64, 10i64), row!(2i64, 20i64), row!(9i64, 90i64)],
        );
        new.insert(EntityId(2), vec![row!(1i64, 100i64), row!(1i64, 101i64)]);
        let mut ch = MapChanges::new();
        ch.insert(EntityId(1), ChangeSet::new(vec![row!(9i64, 90i64)], vec![]));
        ch.insert(
            EntityId(2),
            ChangeSet::new(vec![row!(1i64, 101i64)], vec![row!(9i64, 900i64)]),
        );
        let on = ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2));
        let plan = LogicalPlan::Join {
            left: Box::new(two_int_scan(1)),
            right: Box::new(scan(2, &[("k", DataType::Int), ("w", DataType::Int)])),
            join_type: JoinType::Inner,
            on,
            schema: Arc::new(Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
                Column::new("k2", DataType::Int),
                Column::new("w", DataType::Int),
            ])),
        };
        (old, new, ch, plan)
    }

    #[test]
    fn inner_join_delta_bilinear() {
        let (old, new, ch, plan) = join_fixture();
        check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
    }

    #[test]
    fn outer_join_deltas_both_strategies_agree() {
        for jt in [JoinType::Left, JoinType::Right, JoinType::Full] {
            let (old, new, ch, plan) = join_fixture();
            let LogicalPlan::Join {
                left, right, on, schema, ..
            } = plan
            else {
                panic!()
            };
            let plan = LogicalPlan::Join {
                left,
                right,
                join_type: jt,
                on,
                schema,
            };
            let d1 = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
            let d2 = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::NaiveRewrite);
            // Consolidated deltas must be identical.
            let mut a = (d1.inserts().to_vec(), d1.deletes().to_vec());
            let mut b = (d2.inserts().to_vec(), d2.deletes().to_vec());
            a.0.sort();
            a.1.sort();
            b.0.sort();
            b.1.sort();
            assert_eq!(a, b, "strategies disagree for {jt:?}");
        }
    }

    #[test]
    fn aggregate_delta_affected_groups_only() {
        let (old, new, ch) = fixture();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(two_int_scan(1)),
            group_exprs: vec![ScalarExpr::col(0)],
            aggregates: vec![dt_plan::AggExpr {
                func: dt_plan::AggFunc::Sum,
                arg: Some(ScalarExpr::col(1)),
                distinct: false,
                name: "s".into(),
            }],
            schema: Arc::new(Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("s", DataType::Int),
            ])),
        };
        let d = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
        // Group k=1 is unaffected: no delta rows may mention it.
        assert!(d
            .inserts()
            .iter()
            .chain(d.deletes().iter())
            .all(|r| r.get(0) != &Value::Int(1)));
    }

    #[test]
    fn distinct_delta() {
        // Distinct over k: old {1,2}, new {1,2,3} + dup of 2.
        let (old, new, ch) = fixture();
        let plan = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(two_int_scan(1)),
                exprs: vec![ScalarExpr::col(0)],
                schema: Arc::new(Schema::new(vec![Column::new("k", DataType::Int)])),
            }),
        };
        let d = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
        assert_eq!(d.inserts(), &[row!(3i64)]);
        assert!(d.deletes().is_empty());
    }

    #[test]
    fn window_delta_partition_recompute() {
        let (old, new, ch) = fixture();
        let plan = LogicalPlan::Window {
            input: Box::new(two_int_scan(1)),
            exprs: vec![dt_plan::WindowExpr {
                func: dt_plan::WindowFunc::Sum,
                arg: Some(ScalarExpr::col(1)),
                partition_by: vec![ScalarExpr::col(0)],
                order_by: vec![],
                name: "w".into(),
            }],
            schema: Arc::new(Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
                Column::new("w", DataType::Int),
            ])),
        };
        let d = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
        // Partition k=1 untouched.
        assert!(d
            .inserts()
            .iter()
            .chain(d.deletes().iter())
            .all(|r| r.get(0) != &Value::Int(1)));
    }

    #[test]
    fn union_all_delta() {
        let (old, new, ch) = fixture();
        let plan = LogicalPlan::UnionAll {
            inputs: vec![two_int_scan(1), two_int_scan(1)],
            schema: two_int_scan(1).schema(),
        };
        let d = check_delta(&plan, &old, &new, &ch, OuterJoinStrategy::Direct);
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn no_change_produces_empty_delta_without_scanning() {
        let (old, _, _) = fixture();
        let empty = MapChanges::new();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(two_int_scan(1)),
            group_exprs: vec![ScalarExpr::col(0)],
            aggregates: vec![],
            schema: Arc::new(Schema::new(vec![Column::new("k", DataType::Int)])),
        };
        // `new` provider deliberately has no data for entity 1: if the
        // delta path touched it, it would error. It must not.
        let ctx = DeltaContext {
            old: &old,
            new: &MapProvider::new(),
            changes: &empty,
            outer_join: OuterJoinStrategy::Direct,
        };
        assert!(delta(&plan, &ctx).unwrap().is_empty());
    }

    #[test]
    fn sort_and_limit_are_not_differentiable() {
        let (old, new, ch) = fixture();
        let plan = LogicalPlan::Limit {
            input: Box::new(two_int_scan(1)),
            n: 1,
        };
        let ctx = DeltaContext {
            old: &old,
            new: &new,
            changes: &ch,
            outer_join: OuterJoinStrategy::Direct,
        };
        assert!(matches!(
            delta(&plan, &ctx),
            Err(DtError::Unsupported(_))
        ));
    }

    /// The `Aggregate` rule [`aggregate_delta`] replaced, verbatim, as its
    /// oracle: aggregate the input's affected groups at both ends of the
    /// interval. While [`oracle::TWO_SIDED`] is set on this thread,
    /// [`delta_node`] runs it instead.
    pub(super) mod oracle {
        use super::super::*;
        use std::cell::Cell;

        thread_local! {
            pub static TWO_SIDED: Cell<bool> = const { Cell::new(false) };
        }

        pub fn aggregate_delta(
            input: &LogicalPlan,
            group_exprs: &[ScalarExpr],
            aggregates: &[AggExpr],
            ctx: &DeltaContext<'_>,
        ) -> DtResult<ChangeSet> {
            let d = delta_inner(input, ctx)?;
            if d.is_empty() {
                return Ok(ChangeSet::empty());
            }
            // One pass per snapshot end: rows of unaffected groups are
            // dropped by the aggregate's own key lookup.
            let affected = affected_keys(&d, group_exprs)?;
            let side = |provider| -> DtResult<Vec<Row>> {
                let batches = evaluate_batches(input, provider)?;
                execute_aggregate_batches(&batches, group_exprs, aggregates, Some(affected.clone()))
            };
            let old_out = side(ctx.old)?;
            let new_out = side(ctx.new)?;
            // Groups that vanished entirely produce deletes; empty restricted
            // input yields no groups (grouped aggregation over zero rows is
            // the empty set, since group_exprs is non-empty for
            // differentiable plans).
            Ok(ChangeSet::new(new_out, old_out))
        }

        /// `delta(plan, ctx)` as the two-sided rule computed it.
        pub fn delta(plan: &LogicalPlan, ctx: &DeltaContext<'_>) -> DtResult<ChangeSet> {
            TWO_SIDED.set(true);
            let d = super::super::delta(plan, ctx);
            TWO_SIDED.set(false);
            d
        }
    }

    mod histories {
        use super::*;
        use crate::merge::{assign_change_rows, with_initial_row_ids, MergeAction};
        use dt_common::{PredicateSet, Timestamp, TxnId, VersionId};
        use dt_plan::{Binder, ResolvedRelation, Resolver};
        use dt_storage::TableStore;
        use proptest::prelude::*;

        const T: EntityId = EntityId(1);
        const U: EntityId = EntityId(2);
        const DT: EntityId = EntityId(9);

        /// `t (k INT, v INT, f FLOAT)` and `u (k INT, w INT)`.
        struct Tables;

        impl Resolver for Tables {
            fn resolve_relation(&self, name: &str) -> DtResult<ResolvedRelation> {
                let (entity, cols): (_, &[(&str, DataType)]) = match name {
                    "t" => (T, &[("k", DataType::Int), ("v", DataType::Int), ("f", DataType::Float)]),
                    "u" => (U, &[("k", DataType::Int), ("w", DataType::Int)]),
                    _ => return Err(DtError::Catalog(format!("unknown relation '{name}'"))),
                };
                let schema = Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect());
                Ok(ResolvedRelation::Table { entity, schema })
            }
        }

        /// What the fold decides, what it cannot, and where no DT holds the
        /// aggregation's output.
        const DEFINITIONS: &[&str] = &[
            "SELECT k, count(*) n, sum(v) s, min(v) lo, max(v) hi FROM t GROUP BY k",
            // No count(*): deletes leave every group undecided.
            "SELECT k, sum(v) s, max(v) hi FROM t GROUP BY k",
            // count(v) tells a sum of zero from a sum of nothing.
            "SELECT k, count(*) n, count(v) c, sum(v) s, count_if(v > 1) big FROM t GROUP BY k",
            "SELECT k, count(*) n, sum(v) s FROM t GROUP BY k",
            // A projection that permutes; FLOAT extremes.
            "SELECT max(v) hi, k, count(*) n, min(f) flo, max(f) fhi FROM t GROUP BY k",
            "SELECT k, count(*) n, avg(v) a, count(DISTINCT v) d FROM t GROUP BY k",
            "SELECT f, count(*) n, sum(v) s FROM t GROUP BY f",
            "SELECT k, count(*) n, sum(f) sf FROM t GROUP BY k",
            // The DT does not hold these aggregations' output.
            "SELECT k, count(*) n, sum(v) s FROM t GROUP BY k HAVING count(*) > 1",
            "SELECT k, sum(v) * 2 d, count(*) + 1 m FROM t GROUP BY k",
            "SELECT a.k, a.n, a.hi, u.w FROM \
             (SELECT k, count(*) n, max(v) hi FROM t GROUP BY k) a JOIN u ON a.k = u.k",
            // An argument that can fail, an expression key over a filter.
            "SELECT k, count(*) n, sum(100 / v) q FROM t GROUP BY k",
            "SELECT k + 1 k1, count(*) n, min(v) lo FROM t WHERE v < 6 GROUP BY k + 1",
        ];

        fn plan_of(sql: &str) -> LogicalPlan {
            let dt_sql::ast::Statement::Query(q) = dt_sql::parse(sql).unwrap() else {
                panic!("not a query: {sql}")
            };
            Binder::new(&Tables).bind_query(&q).unwrap().plan
        }

        /// Stores pinned at a version each; `DT`'s rows lose their `$ROW_ID`.
        struct At<'a>(Vec<(EntityId, &'a TableStore, VersionId)>);

        impl At<'_> {
            fn pinned(&self, entity: EntityId) -> (&TableStore, VersionId) {
                let (_, store, version) = self.0.iter().find(|(e, ..)| *e == entity).unwrap();
                (store, *version)
            }
        }

        impl TableProvider for At<'_> {
            fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
                let (store, version) = self.pinned(entity);
                let rows = store.scan(version)?;
                Ok(match entity {
                    DT => rows.iter().map(|r| Row::new(r.values()[1..].to_vec())).collect(),
                    _ => rows,
                })
            }

            fn scan_batches(&self, entity: EntityId, filter: Option<&PredicateSet>) -> DtResult<Vec<Batch>> {
                let (store, version) = self.pinned(entity);
                let snap = store.snapshot(version)?;
                if entity != DT {
                    return Ok(snap.scan_batches(filter));
                }
                let shifted = filter.map(|f| f.shift_columns(1));
                let batches = snap.scan_batches(shifted.as_ref());
                Ok(batches.into_iter().map(Batch::drop_first_column).collect())
            }
        }

        /// A `t` row from three small draws: NULLs, duplicates, a zero,
        /// values whose sums leave the `INT` range, exact FLOATs.
        fn t_row((k, v, f): (u8, u8, u8)) -> Row {
            const BIG: i64 = 4_000_000_000_000_000_000;
            let int = |x: Option<i64>| x.map_or(Value::Null, Value::Int);
            let k = int((k > 0).then_some(i64::from(k)));
            let v = int(match v {
                0..=5 => None,
                6 | 7 => Some(BIG),
                8 | 9 => Some(-BIG),
                10 => Some(i64::MAX),
                v => Some(i64::from(v % 7) - 3),
            });
            let f = [None, Some(-1.5), Some(0.0), Some(0.25), Some(1.0), Some(2.5)][usize::from(f)];
            Row::new(vec![k, v, f.map_or(Value::Null, Value::Float)])
        }

        fn store(columns: Vec<Column>, capacity: usize) -> TableStore {
            TableStore::with_partition_capacity(Schema::new(columns), Timestamp::EPOCH, TxnId(0), capacity)
        }

        /// `Debug` tells `Int(1)` from `Float(1.0)`: deltas must agree in
        /// spelling, not only in value.
        fn spelled(d: &DtResult<ChangeSet>) -> String {
            format!("{d:?}")
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

            /// Random histories of inserts and deletes on a multi-partition
            /// `t`, refreshing a DT of each definition after every step:
            /// the rule gives the consolidated delta — or the error — the
            /// two-sided recompute gives, with the old rows read from the
            /// DT's own store and with them recomputed from the source,
            /// and the DT it maintains equals its defining query.
            #[test]
            fn the_rule_matches_the_two_sided_recompute(
                definition in 0..DEFINITIONS.len(),
                initial in prop::collection::vec((0..5u8, 0..40u8, 0..6u8), 0..12),
                steps in prop::collection::vec(
                    (
                        prop::collection::vec((0..5u8, 0..40u8, 0..6u8), 0..5),
                        prop::collection::vec(0..1000usize, 0..4),
                        0..8u8,
                    ),
                    1..14,
                ),
                capacity in 1..6usize,
            ) {
                let plan = plan_of(DEFINITIONS[definition]);
                let t = store(
                    vec![
                        Column::new("k", DataType::Int),
                        Column::new("v", DataType::Int),
                        Column::new("f", DataType::Float),
                    ],
                    capacity,
                );
                let u = store(vec![Column::new("k", DataType::Int), Column::new("w", DataType::Int)], capacity);
                let at = |i: usize| (Timestamp::from_secs(i as i64 + 1), TxnId(i as u64 + 1));
                let (ts, txn) = at(0);
                t.commit_change(initial.into_iter().map(t_row).collect(), vec![], ts, txn).unwrap();
                u.commit_change((1..4i64).map(|k| row!(k, k * 10)).collect(), vec![], ts, txn).unwrap();
                let u_at = u.latest_version();

                // Initialize the DT; a definition that fails on the initial
                // rows has no DT to maintain.
                let mut columns = vec![Column::new("$ROW_ID", DataType::Str)];
                columns.extend(plan.schema().columns().iter().cloned());
                let dt = store(columns, capacity);
                let mut frontier = t.latest_version();
                let Ok(rows) = execute(&plan, &At(vec![(T, &t, frontier), (U, &u, u_at)])) else {
                    return Ok(());
                };
                dt.overwrite(with_initial_row_ids(rows), ts, txn).unwrap();

                for (i, (inserts, deletes, shuffle)) in steps.into_iter().enumerate() {
                    let (ts, txn) = at(i + 1);
                    let rows = t.scan(t.latest_version()).unwrap();
                    let mut doomed: Vec<usize> = deletes.iter().filter(|_| !rows.is_empty()).map(|p| p % rows.len()).collect();
                    doomed.sort_unstable();
                    doomed.dedup();
                    let doomed = doomed.into_iter().map(|p| rows[p].clone()).collect();
                    t.commit_change(inserts.into_iter().map(t_row).collect(), doomed, ts, txn).unwrap();
                    if shuffle == 0 {
                        t.recluster(ts, txn).unwrap();
                    }

                    let to = t.latest_version();
                    let mut changes = MapChanges::new();
                    changes.insert(T, t.changes_between(frontier, to).unwrap());
                    let old = At(vec![(T, &t, frontier), (U, &u, u_at)]);
                    let new = At(vec![(T, &t, to), (U, &u, u_at)]);
                    let ctx = DeltaContext { old: &old, new: &new, changes: &changes, outer_join: OuterJoinStrategy::Direct };
                    let base = dt.latest_version();
                    let stored = At(vec![(DT, &dt, base)]);

                    let want = oracle::delta(&plan, &ctx);
                    let got = delta_over_stored(&plan, &ctx, StoredOutput { provider: &stored, entity: DT });
                    prop_assert_eq!(spelled(&got), spelled(&want), "step {} of {}", i, DEFINITIONS[definition]);
                    prop_assert_eq!(spelled(&delta(&plan, &ctx)), spelled(&want), "step {}, no stored output", i);

                    // A failed refresh installs nothing: the next one
                    // covers its interval too.
                    let Ok(d) = got else { continue };
                    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
                    for c in assign_change_rows(&dt.row_lookup(base).unwrap(), &d).unwrap() {
                        match c.action {
                            MergeAction::Insert => inserts.push(c.into_stored_row()),
                            MergeAction::Delete => deletes.push(c.into_stored_row()),
                        }
                    }
                    dt.commit_change(inserts, deletes, ts, txn).unwrap();
                    frontier = to;
                    let mut held = At(vec![(DT, &dt, dt.latest_version())]).scan(DT).unwrap();
                    let mut query = execute(&plan, &new).unwrap();
                    held.sort();
                    query.sort();
                    prop_assert_eq!(format!("{held:?}"), format!("{query:?}"), "DVS after step {}", i);
                }
            }
        }
    }
}
