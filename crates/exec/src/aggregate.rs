//! Grouped aggregation.
//!
//! Two implementations of one contract (one output row per group, group
//! keys then aggregate values, groups in key-tuple order; a group-less
//! aggregation over no rows yields one row of identities):
//!
//! * [`execute_aggregate_batches`] — the hash aggregate every query and
//!   refresh runs. Group keys are hashed column-wise into dense group ids
//!   by a [`KeyTable`]; each aggregate keeps its per-group states in typed
//!   vectors for as long as its argument arrives as a typed column, and
//!   falls back to one [`Accumulator`] per group when it does not.
//! * [`execute_aggregate`] — the row-at-a-time form over a `BTreeMap`,
//!   kept as the differential oracle.
//!
//! An `INT` `sum` is order-independent in both: it accumulates in 128 bits
//! and checks the range once, when the group finishes, so the total either
//! fits or it does not — whatever order the rows arrived in. That is what
//! lets [`fold_aggregate_delta`] maintain a stored sum by adding a delta's
//! inserts and subtracting its deletes and still land on the value (or the
//! error) a scan of the whole group would.

use std::collections::{BTreeMap, HashSet};

use dt_common::{Batch, ColumnVec, DataType, DtError, DtResult, Row, Schema, Value};
use dt_plan::{AggExpr, AggFunc, ScalarExpr};

use crate::keys::{eval_column, eval_columns, FirstError, KeyTable, ABSENT};

/// One aggregate's running state.
enum AccState {
    Count(i64),
    Sum(SumState),
    MinMax { best: Option<Value>, is_min: bool },
    Avg { sum: f64, n: i64 },
    Distinct(HashSet<Value>),
}

/// A running `sum`: nothing yet, integers only so far (wide, so the order
/// they came in cannot overflow it), or whatever [`Value::add`] made of a
/// first non-integer and everything after it.
enum SumState {
    Empty,
    Int(i128),
    Other(Value),
}

/// A wide integer total as the `INT` it must fit.
fn narrow(total: i128) -> DtResult<Value> {
    i64::try_from(total)
        .map(Value::Int)
        .map_err(|_| DtError::Evaluation("integer overflow".into()))
}

impl SumState {
    fn add(&mut self, x: &Value) -> DtResult<()> {
        *self = match (&*self, x) {
            (_, Value::Null) => return Ok(()),
            (SumState::Empty, Value::Int(i)) => SumState::Int(i128::from(*i)),
            (SumState::Empty, x) => SumState::Other(x.clone()),
            (SumState::Int(s), Value::Int(i)) => SumState::Int(s + i128::from(*i)),
            (SumState::Int(s), x) => SumState::Other(narrow(*s)?.add(x)?),
            (SumState::Other(s), x) => SumState::Other(s.add(x)?),
        };
        Ok(())
    }

    fn finish(self) -> DtResult<Value> {
        match self {
            SumState::Empty => Ok(Value::Null),
            SumState::Int(s) => narrow(s),
            SumState::Other(v) => Ok(v),
        }
    }
}

/// A running accumulator for one aggregate expression.
pub struct Accumulator {
    func: AggFunc,
    state: AccState,
}

impl Accumulator {
    /// Fresh accumulator for an aggregate.
    pub fn new(a: &AggExpr) -> Accumulator {
        let state = if a.distinct {
            AccState::Distinct(HashSet::new())
        } else {
            match a.func {
                AggFunc::Count | AggFunc::CountIf => AccState::Count(0),
                AggFunc::Sum => AccState::Sum(SumState::Empty),
                AggFunc::Min => AccState::MinMax {
                    best: None,
                    is_min: true,
                },
                AggFunc::Max => AccState::MinMax {
                    best: None,
                    is_min: false,
                },
                AggFunc::Avg => AccState::Avg { sum: 0.0, n: 0 },
            }
        };
        Accumulator {
            func: a.func,
            state,
        }
    }

    /// Fold one input value (already the evaluated argument; `None` means
    /// the aggregate has no argument, i.e. `count(*)`).
    pub fn update(&mut self, v: Option<&Value>) -> DtResult<()> {
        match &mut self.state {
            AccState::Count(n) => match self.func {
                AggFunc::Count => {
                    // count(*) counts rows; count(x) counts non-null x.
                    match v {
                        None => *n += 1,
                        Some(x) if !x.is_null() => *n += 1,
                        _ => {}
                    }
                }
                AggFunc::CountIf => {
                    if v.map(|x| x.is_true()).unwrap_or(false) {
                        *n += 1;
                    }
                }
                _ => return Err(DtError::internal("count state for non-count func")),
            },
            AccState::Sum(sum) => {
                if let Some(x) = v {
                    sum.add(x)?;
                }
            }
            AccState::MinMax { best, is_min } => {
                if let Some(x) = v {
                    if !x.is_null() {
                        let better = match best {
                            None => true,
                            Some(b) => {
                                if *is_min {
                                    x < b
                                } else {
                                    x > b
                                }
                            }
                        };
                        if better {
                            *best = Some(x.clone());
                        }
                    }
                }
            }
            AccState::Avg { sum, n } => {
                if let Some(x) = v {
                    match x {
                        Value::Null => {}
                        Value::Int(i) => {
                            *sum += *i as f64;
                            *n += 1;
                        }
                        Value::Float(f) => {
                            *sum += f;
                            *n += 1;
                        }
                        other => {
                            return Err(DtError::Type(format!("avg over {other}")));
                        }
                    }
                }
            }
            AccState::Distinct(set) => {
                if let Some(x) = v {
                    if !x.is_null() {
                        set.insert(x.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Produce the final aggregate value.
    pub fn finish(self) -> DtResult<Value> {
        Ok(match self.state {
            AccState::Count(n) => Value::Int(n),
            AccState::Sum(sum) => sum.finish()?,
            AccState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AccState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AccState::Distinct(set) => match self.func {
                AggFunc::Count => Value::Int(set.len() as i64),
                AggFunc::Sum => {
                    let mut sum = SumState::Empty;
                    for v in &set {
                        sum.add(v)?;
                    }
                    sum.finish()?
                }
                AggFunc::Avg => {
                    let mut sum = 0.0;
                    let mut n = 0i64;
                    for v in set {
                        match v {
                            Value::Int(i) => {
                                sum += i as f64;
                                n += 1;
                            }
                            Value::Float(f) => {
                                sum += f;
                                n += 1;
                            }
                            _ => return Err(DtError::Type("avg distinct non-numeric".into())),
                        }
                    }
                    if n == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum / n as f64)
                    }
                }
                AggFunc::Min => set.into_iter().min().unwrap_or(Value::Null),
                AggFunc::Max => set.into_iter().max().unwrap_or(Value::Null),
                AggFunc::CountIf => {
                    return Err(DtError::Unsupported("count_if(distinct ...)".into()))
                }
            },
        })
    }
}

/// Execute a grouped aggregation. Output rows: group keys then aggregate
/// values, one row per group. With no group keys this is a scalar
/// aggregation producing exactly one row (even over empty input).
pub fn execute_aggregate(
    rows: &[Row],
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
) -> DtResult<Vec<Row>> {
    // BTreeMap keyed on the group-key tuple gives deterministic output order.
    let mut groups: BTreeMap<Vec<Value>, Vec<Accumulator>> = BTreeMap::new();
    for r in rows {
        fold_row(&mut groups, r, group_exprs, aggregates)?;
    }
    finish_groups(groups, group_exprs, aggregates)
}

/// One aggregate's running state for every group, indexed by group id.
///
/// Typed while the argument column's representation allows it: the typed
/// variants hold exactly what the matching [`Accumulator`] would, so a
/// column that stops fitting (an `Int` partition followed by a `Float` or
/// mixed one) demotes the states to accumulators mid-stream and carries on
/// with the row path's own arithmetic.
enum GroupStates {
    /// `sum`/`min`/`max` before their first batch: its column picks.
    Unset,
    /// `count(*)`, `count(x)`, `count_if(p)`.
    Count(Vec<i64>),
    /// Wide, like [`SumState::Int`]: the range is checked at `finish`.
    SumInt { sum: Vec<i128>, any: Vec<bool> },
    SumFloat { sum: Vec<f64>, any: Vec<bool> },
    /// `min`/`max` over an `Int` column.
    BestInt { best: Vec<i64>, any: Vec<bool> },
    /// `min`/`max` over a `Float` column.
    BestFloat { best: Vec<f64>, any: Vec<bool> },
    Avg { sum: Vec<f64>, n: Vec<i64> },
    /// DISTINCT aggregates, generic or mixed columns.
    Accumulators(Vec<Accumulator>),
}

impl GroupStates {
    fn new(a: &AggExpr) -> GroupStates {
        match a.func {
            _ if a.distinct => GroupStates::Accumulators(Vec::new()),
            AggFunc::Count | AggFunc::CountIf => GroupStates::Count(Vec::new()),
            AggFunc::Avg => GroupStates::Avg {
                sum: Vec::new(),
                n: Vec::new(),
            },
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => GroupStates::Unset,
        }
    }

    /// Get ready for a batch whose argument column is `col`: settle on a
    /// representation that can take it and make room for `groups` groups.
    fn prepare(&mut self, a: &AggExpr, col: Option<&ColumnVec>, groups: usize) {
        let is_sum = a.func == AggFunc::Sum;
        let fits = match (&*self, col) {
            (GroupStates::Unset, Some(ColumnVec::Int { .. })) => {
                let any = Vec::new();
                *self = match is_sum {
                    true => GroupStates::SumInt { sum: Vec::new(), any },
                    false => GroupStates::BestInt { best: Vec::new(), any },
                };
                true
            }
            (GroupStates::Unset, Some(ColumnVec::Float { .. })) => {
                let (v, any) = (Vec::new(), Vec::new());
                *self = match is_sum {
                    true => GroupStates::SumFloat { sum: v, any },
                    false => GroupStates::BestFloat { best: v, any },
                };
                true
            }
            (GroupStates::Unset, _) => false,
            (GroupStates::Count(_) | GroupStates::Accumulators(_), _) => true,
            (GroupStates::SumInt { .. } | GroupStates::BestInt { .. }, col) => {
                matches!(col, Some(ColumnVec::Int { .. }))
            }
            (GroupStates::SumFloat { .. } | GroupStates::BestFloat { .. }, col) => {
                matches!(col, Some(ColumnVec::Float { .. }))
            }
            (GroupStates::Avg { .. }, col) => {
                matches!(col, Some(ColumnVec::Int { .. } | ColumnVec::Float { .. }))
            }
        };
        if !fits {
            self.demote(a);
        }
        match self {
            GroupStates::Unset => unreachable!("settled above"),
            GroupStates::Count(n) => n.resize(groups, 0),
            GroupStates::SumInt { sum, any } => {
                sum.resize(groups, 0);
                any.resize(groups, false);
            }
            GroupStates::BestInt { best, any } => {
                best.resize(groups, 0);
                any.resize(groups, false);
            }
            GroupStates::SumFloat { sum: v, any } | GroupStates::BestFloat { best: v, any } => {
                v.resize(groups, 0.0);
                any.resize(groups, false);
            }
            GroupStates::Avg { sum, n } => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            GroupStates::Accumulators(accs) => accs.resize_with(groups, || Accumulator::new(a)),
        }
    }

    /// Re-express typed states as the accumulators holding the same values.
    fn demote(&mut self, a: &AggExpr) {
        let is_min = a.func == AggFunc::Min;
        let states: Vec<AccState> = match std::mem::replace(self, GroupStates::Unset) {
            GroupStates::Unset => Vec::new(),
            GroupStates::Count(n) => n.into_iter().map(AccState::Count).collect(),
            GroupStates::SumInt { sum, any } => (sum.into_iter().zip(any))
                .map(|(s, any)| AccState::Sum(if any { SumState::Int(s) } else { SumState::Empty }))
                .collect(),
            GroupStates::SumFloat { sum, any } => (sum.into_iter().zip(any))
                .map(|(s, any)| {
                    AccState::Sum(if any { SumState::Other(Value::Float(s)) } else { SumState::Empty })
                })
                .collect(),
            GroupStates::BestInt { best, any } => (best.into_iter().zip(any))
                .map(|(b, any)| AccState::MinMax {
                    best: any.then_some(Value::Int(b)),
                    is_min,
                })
                .collect(),
            GroupStates::BestFloat { best, any } => (best.into_iter().zip(any))
                .map(|(b, any)| AccState::MinMax {
                    best: any.then_some(Value::Float(b)),
                    is_min,
                })
                .collect(),
            GroupStates::Avg { sum, n } => (sum.into_iter().zip(n))
                .map(|(sum, n)| AccState::Avg { sum, n })
                .collect(),
            GroupStates::Accumulators(accs) => {
                *self = GroupStates::Accumulators(accs);
                return;
            }
        };
        let func = a.func;
        *self = GroupStates::Accumulators(
            (states.into_iter())
                .map(|state| Accumulator { func, state })
                .collect(),
        );
    }

    /// Fold slot `rows[p]` of `col` into group `ids[p]`, for every `p` in
    /// order. An error comes back with the position it happened at.
    fn update(
        &mut self,
        a: &AggExpr,
        col: Option<&ColumnVec>,
        rows: &[usize],
        ids: &[u32],
    ) -> Result<(), (usize, DtError)> {
        let slots = || rows.iter().zip(ids).map(|(&i, &g)| (i, g as usize));
        match (self, col) {
            (GroupStates::Count(n), None) => {
                if a.func == AggFunc::Count {
                    ids.iter().for_each(|&g| n[g as usize] += 1);
                }
            }
            (GroupStates::Count(n), Some(col)) if a.func == AggFunc::Count => {
                slots().for_each(|(i, g)| n[g] += i64::from(!col.is_null(i)));
            }
            (GroupStates::Count(n), Some(col)) => {
                // count_if: only a generic column can hold a TRUE.
                if let ColumnVec::Generic(values) = col {
                    slots().for_each(|(i, g)| n[g] += i64::from(values[i].is_true()));
                }
            }
            (GroupStates::SumInt { sum, any }, Some(col @ ColumnVec::Int { data, .. })) => {
                // 2^64 addends of 64 bits fit in 128.
                for (i, g) in slots() {
                    if !col.is_null(i) {
                        sum[g] += i128::from(data[i]);
                        any[g] = true;
                    }
                }
            }
            (GroupStates::SumFloat { sum, any }, Some(col @ ColumnVec::Float { data, .. })) => {
                for (i, g) in slots() {
                    if !col.is_null(i) {
                        sum[g] = if any[g] { sum[g] + data[i] } else { data[i] };
                        any[g] = true;
                    }
                }
            }
            (GroupStates::BestInt { best, any }, Some(col @ ColumnVec::Int { data, .. })) => {
                let is_min = a.func == AggFunc::Min;
                for (i, g) in slots() {
                    let x = data[i];
                    if !col.is_null(i) && (!any[g] || if is_min { x < best[g] } else { x > best[g] })
                    {
                        best[g] = x;
                        any[g] = true;
                    }
                }
            }
            (GroupStates::BestFloat { best, any }, Some(col @ ColumnVec::Float { data, .. })) => {
                let is_min = a.func == AggFunc::Min;
                for (i, g) in slots() {
                    // `Value`'s float order (total, NaN-normalising), not f64's.
                    let (x, b) = (Value::Float(data[i]), Value::Float(best[g]));
                    if !col.is_null(i) && (!any[g] || if is_min { x < b } else { x > b }) {
                        best[g] = data[i];
                        any[g] = true;
                    }
                }
            }
            (GroupStates::Avg { sum, n }, Some(col @ ColumnVec::Int { data, .. })) => {
                for (i, g) in slots() {
                    if !col.is_null(i) {
                        sum[g] += data[i] as f64;
                        n[g] += 1;
                    }
                }
            }
            (GroupStates::Avg { sum, n }, Some(col @ ColumnVec::Float { data, .. })) => {
                for (i, g) in slots() {
                    if !col.is_null(i) {
                        sum[g] += data[i];
                        n[g] += 1;
                    }
                }
            }
            (GroupStates::Accumulators(accs), col) => {
                for (pos, (i, g)) in slots().enumerate() {
                    let v = col.map(|c| c.get(i));
                    accs[g].update(v.as_ref()).map_err(|e| (pos, e))?;
                }
            }
            _ => unreachable!("prepare() matched the states to the column"),
        }
        Ok(())
    }

    /// Group `g`'s final value (call once per group).
    fn finish(&mut self, g: usize) -> DtResult<Value> {
        let some = |any: bool, v: Value| if any { v } else { Value::Null };
        Ok(match self {
            GroupStates::Unset => unreachable!("a group implies a prepared batch"),
            GroupStates::Count(n) => Value::Int(n[g]),
            GroupStates::SumInt { sum, any } => some(any[g], narrow(sum[g])?),
            GroupStates::BestInt { best, any } => some(any[g], Value::Int(best[g])),
            GroupStates::SumFloat { sum: v, any } | GroupStates::BestFloat { best: v, any } => {
                some(any[g], Value::Float(v[g]))
            }
            GroupStates::Avg { sum, n } => some(n[g] != 0, Value::Float(sum[g] / n[g] as f64)),
            GroupStates::Accumulators(accs) => {
                let spent = Accumulator {
                    func: AggFunc::Count,
                    state: AccState::Count(0),
                };
                std::mem::replace(&mut accs[g], spent).finish()?
            }
        })
    }
}

/// The hash aggregate: fold the selected rows of `batches` into one output
/// row per group, without materialising an input row.
///
/// Group expressions that are not bare columns are evaluated once per
/// batch into a column; key columns are hashed into dense group ids;
/// each aggregate then runs one loop per batch over its argument column.
/// Output, order and errors are [`execute_aggregate`]'s: rows within a
/// group are folded in scan order (float sums are bit-identical), the
/// group key returned is the first one seen, and the error reported is the
/// one at the earliest failing row.
///
/// With `only = Some(keys)` the aggregation is restricted to those group
/// keys: rows of any other group are dropped before any aggregate sees
/// them, and a key no row carries yields no group — the IVM rule's
/// "recompute the affected groups".
pub fn execute_aggregate_batches(
    batches: &[Batch],
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
    only: Option<KeyTable>,
) -> DtResult<Vec<Row>> {
    let restricted = only.is_some();
    let mut table = only.unwrap_or_else(|| KeyTable::new(group_exprs.len()));
    // Restricted runs only: which of the given keys some row has carried.
    let mut seen = vec![false; table.len()];
    let mut states: Vec<GroupStates> = aggregates.iter().map(GroupStates::new).collect();
    let mut ids = Vec::new();
    for b in batches {
        let mut rows = b.live_indices();
        let mut first = FirstError::new(rows.len());
        let key_cols = eval_columns(group_exprs, b, &rows, &mut first);
        rows.truncate(first.live());
        if restricted {
            table.find(&key_cols, &rows, &mut ids);
            let mut kept = 0;
            for p in 0..rows.len() {
                if ids[p] == ABSENT {
                    continue;
                }
                let g = ids[p] as usize;
                if !seen[g] {
                    // Report the key as this relation spells it, not as
                    // the delta that seeded the table did.
                    seen[g] = true;
                    table.restate(g, &key_cols, rows[p]);
                }
                (rows[kept], ids[kept]) = (rows[p], ids[p]);
                kept += 1;
            }
            rows.truncate(kept);
            first.shorten(kept);
        } else {
            table.intern(&key_cols, &rows, &mut ids);
        }
        for (a, state) in aggregates.iter().zip(&mut states) {
            let col = a.arg.as_ref().map(|e| eval_column(e, b, &rows, &mut first));
            let n = first.live();
            state.prepare(a, col.as_deref(), table.len());
            if let Err((pos, e)) = state.update(a, col.as_deref(), &rows[..n], &ids[..n]) {
                first.fail(pos, e);
            }
        }
        first.finish()?;
    }

    if table.is_empty() && group_exprs.is_empty() && !restricted {
        return Ok(vec![identity_row(aggregates)?]);
    }
    let mut order: Vec<usize> = (0..table.len())
        .filter(|g| !restricted || seen[*g])
        .collect();
    order.sort_by(|a, b| table.key(*a).cmp(table.key(*b)));
    let mut out = Vec::with_capacity(order.len());
    for g in order {
        let mut vals = table.key(g).to_vec();
        for state in &mut states {
            vals.push(state.finish(g)?);
        }
        out.push(Row::new(vals));
    }
    Ok(out)
}

/// Which of an `Aggregate` node's aggregates [`fold_aggregate_delta`] can
/// maintain from a delta, in order; `schema` is the node's output schema
/// (group keys, then aggregates). The others force a recompute of every
/// group a delta touches, and so does a `FLOAT` group key (all `false`).
pub fn folds_from_delta(aggregates: &[AggExpr], schema: &Schema) -> Vec<bool> {
    let (keys, values) = schema.columns().split_at(schema.len() - aggregates.len());
    // Two spellings of one FLOAT key are one group, reported as the scan
    // first met it — which a delta cannot know.
    let keys_fold = keys.iter().all(|k| k.ty != DataType::Float);
    (aggregates.iter().zip(values))
        .map(|(a, column)| {
            keys_fold
                && !a.distinct
                && match a.func {
                    AggFunc::Count | AggFunc::CountIf | AggFunc::Min | AggFunc::Max => true,
                    // A FLOAT sum's bits depend on the order of its addends.
                    AggFunc::Sum => column.ty == DataType::Int,
                    AggFunc::Avg => false,
                }
        })
        .collect()
}

/// Maintain an aggregation across an interval from what it held at the old
/// end and the change to its input, reading none of the input itself.
///
/// `affected` holds the group keys the change touches, `old` the
/// aggregation's output rows for them at the old end, `inserts` / `deletes`
/// the input rows the interval added and removed. Per group, each
/// aggregate's new value follows from its old one and the same aggregate
/// taken over the group's inserts and over its deletes: counts add and
/// subtract, so do `INT` sums, `min` / `max` take in an inserted extreme
/// and outlive deletes strictly inside the stored one, and a group whose
/// `count(*)` reaches zero is gone.
///
/// Returns the new rows of the groups this decides, and the keys of those
/// it cannot, to be recomputed from the input by
/// [`execute_aggregate_batches`] restricted to them. Undecided is anything
/// whose value, spelling or error would depend on rows outside the delta:
/// an aggregate [`folds_from_delta`] rules out; a deleted value that ties
/// (or beats) the stored `min` / `max`; deletes without a `count(*)` to say
/// whether the group survives them; a sum that deletes bring to exactly
/// zero with no `count` of the same argument to tell zero from NULL; totals
/// that leave the `INT` range; an argument or key that fails to evaluate on
/// a delta row (the recompute then reports it in scan order).
///
/// What it decides is then what that recompute would return, bit for bit,
/// given that values are spelled as their column types say (an `INT`
/// column holds no `1.0`, as stored tables guarantee): two spellings of
/// one value are equal, and which of them a scan reports depends on rows
/// a delta does not show. An expression that mixes them (`iff(p, 1, 1.0)`
/// as a key) can make a folded row differ from a scanned one in spelling,
/// never in value.
pub fn fold_aggregate_delta(
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
    schema: &Schema,
    affected: KeyTable,
    old: &[Row],
    inserts: &[Row],
    deletes: &[Row],
) -> (Vec<Row>, KeyTable) {
    let keys = group_exprs.len();
    let over = |delta: &[Row]| match delta.first() {
        None => Ok(Vec::new()),
        Some(r) => {
            let batch = Batch::from_rows(r.len(), delta);
            execute_aggregate_batches(&[batch], group_exprs, aggregates, None)
        }
    };
    // Every side's row for each affected group, by the group's id.
    fn by_group<'a>(affected: &KeyTable, keys: usize, rows: &'a [Row]) -> Option<Vec<Option<&'a Row>>> {
        let mut at = vec![None; affected.len()];
        let key_columns = Batch::from_rows(keys, rows);
        let mut ids = Vec::new();
        affected.find(key_columns.columns(), &key_columns.live_indices(), &mut ids);
        for (row, id) in rows.iter().zip(ids) {
            *at.get_mut(id as usize)? = Some(row);
        }
        Some(at)
    }
    let fold = || {
        if !folds_from_delta(aggregates, schema).iter().all(|folds| *folds) {
            return None;
        }
        let (ins, del) = (over(inserts).ok()?, over(deletes).ok()?);
        let old = by_group(&affected, keys, old)?;
        let (ins, del) = (by_group(&affected, keys, &ins)?, by_group(&affected, keys, &del)?);
        let (mut rows, mut undecided) = (Vec::new(), Vec::new());
        for g in 0..affected.len() {
            match fold_group(aggregates, keys, old[g], ins[g], del[g]) {
                Some(row) => rows.extend(row),
                None => undecided.push(Row::new(affected.key(g).to_vec())),
            }
        }
        Some((rows, undecided))
    };
    let Some((rows, undecided)) = fold() else {
        return (Vec::new(), affected);
    };
    let mut recompute = KeyTable::new(keys);
    let key_columns = Batch::from_rows(keys, &undecided);
    recompute.intern(key_columns.columns(), &key_columns.live_indices(), &mut Vec::new());
    (rows, recompute)
}

/// One group of [`fold_aggregate_delta`], every aggregate one that
/// [`folds_from_delta`]: its row at the old end and the aggregation of its
/// inserted and of its deleted input rows, each `None` when there is none.
/// `Some(None)`: the group is gone; `None`: undecided.
fn fold_group(
    aggregates: &[AggExpr],
    keys: usize,
    old: Option<&Row>,
    ins: Option<&Row>,
    del: Option<&Row>,
) -> Option<Option<Row>> {
    // A surviving group keeps its spelling; a new one takes the delta's.
    let key = &old.or(ins)?.values()[..keys];
    fn value_of(side: Option<&Row>, column: usize) -> &Value {
        side.map_or(&Value::Null, |r| r.get(column))
    }
    let value = |side, j: usize| value_of(side, keys + j);
    // Count-like aggregate `j` after the change.
    let count = |j: usize| -> Option<i64> {
        let n = |side| match value(side, j) {
            Value::Null => Some(0),
            Value::Int(n) => Some(*n),
            _ => None,
        };
        let after = n(old)?.checked_add(n(ins)?)?.checked_sub(n(del)?)?;
        (after >= 0).then_some(after)
    };
    let is_count = |a: &AggExpr| a.func == AggFunc::Count;
    match aggregates.iter().position(|a| is_count(a) && a.arg.is_none()) {
        Some(star) if count(star)? == 0 => return Some(None),
        // Without count(*), deletes may have emptied the group.
        None if del.is_some() => return None,
        _ => {}
    }
    let mut values = key.to_vec();
    for (j, a) in aggregates.iter().enumerate() {
        let (o, i, d) = (value(old, j), value(ins, j), value(del, j));
        values.push(match a.func {
            AggFunc::Avg => return None,
            AggFunc::Count | AggFunc::CountIf => Value::Int(count(j)?),
            AggFunc::Sum => {
                let int = |v: &Value| match v {
                    Value::Null => Some(None),
                    Value::Int(x) => Some(Some(i128::from(*x))),
                    _ => None,
                };
                match (int(o)?, int(i)?, int(d)?) {
                    (None, None, None) => Value::Null,
                    (o, i, None) => narrow(o.unwrap_or(0) + i.unwrap_or(0)).ok()?,
                    (None, _, Some(_)) => return None,
                    (Some(o), i, Some(d)) => {
                        let total = narrow(o + i.unwrap_or(0) - d).ok()?;
                        // Non-NULL arguments went: is any left? A count
                        // of the same argument says; failing that, only
                        // a total other than zero does.
                        let same = |b: &AggExpr| is_count(b) && b.arg.is_some() && b.arg == a.arg;
                        match aggregates.iter().position(same) {
                            Some(c) if count(c)? == 0 => Value::Null,
                            None if total == Value::Int(0) => return None,
                            _ => total,
                        }
                    }
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let beats = |x: &Value, y: &Value| match a.func {
                    AggFunc::Min => x < y,
                    _ => x > y,
                };
                // Deleting a copy of the extreme may or may not leave one.
                if !d.is_null() && (o.is_null() || !beats(o, d)) {
                    return None;
                }
                match (o, i) {
                    (Value::Null, i) => i.clone(),
                    (o, i) if !i.is_null() && beats(i, o) => i.clone(),
                    (o, _) => o.clone(),
                }
            }
        });
    }
    Some(Some(Row::new(values)))
}

/// Scalar aggregation over the empty bag: one row of identities.
fn identity_row(aggregates: &[AggExpr]) -> DtResult<Row> {
    let vals: DtResult<Vec<Value>> = aggregates
        .iter()
        .map(|a| Accumulator::new(a).finish())
        .collect();
    Ok(Row::new(vals?))
}

fn fold_row(
    groups: &mut BTreeMap<Vec<Value>, Vec<Accumulator>>,
    r: &Row,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
) -> DtResult<()> {
    let mut key = Vec::with_capacity(group_exprs.len());
    for e in group_exprs {
        key.push(e.eval(r)?);
    }
    let accs = groups
        .entry(key)
        .or_insert_with(|| aggregates.iter().map(Accumulator::new).collect());
    for (acc, a) in accs.iter_mut().zip(aggregates) {
        let arg = match &a.arg {
            Some(e) => Some(e.eval(r)?),
            None => None,
        };
        acc.update(arg.as_ref())?;
    }
    Ok(())
}

fn finish_groups(
    groups: BTreeMap<Vec<Value>, Vec<Accumulator>>,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
) -> DtResult<Vec<Row>> {
    if groups.is_empty() && group_exprs.is_empty() {
        return Ok(vec![identity_row(aggregates)?]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut vals = key;
        for acc in accs {
            vals.push(acc.finish()?);
        }
        out.push(Row::new(vals));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;

    fn agg(func: AggFunc, arg: Option<ScalarExpr>, distinct: bool) -> AggExpr {
        AggExpr {
            func,
            arg,
            distinct,
            name: "a".into(),
        }
    }

    #[test]
    fn sum_ignores_nulls_and_is_null_when_empty() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Null]),
            row!(1i64, 5i64),
        ];
        let out = execute_aggregate(
            &rows,
            &[ScalarExpr::col(0)],
            &[agg(AggFunc::Sum, Some(ScalarExpr::col(1)), false)],
        )
        .unwrap();
        assert_eq!(out, vec![row!(1i64, 5i64)]);

        let all_null = vec![Row::new(vec![Value::Int(1), Value::Null])];
        let out = execute_aggregate(
            &all_null,
            &[ScalarExpr::col(0)],
            &[agg(AggFunc::Sum, Some(ScalarExpr::col(1)), false)],
        )
        .unwrap();
        assert_eq!(out[0].get(1), &Value::Null);
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let out = execute_aggregate(
            &[],
            &[],
            &[
                agg(AggFunc::Count, None, false),
                agg(AggFunc::Sum, Some(ScalarExpr::col(0)), false),
            ],
        )
        .unwrap();
        assert_eq!(out, vec![Row::new(vec![Value::Int(0), Value::Null])]);
    }

    #[test]
    fn count_star_vs_count_column() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Null]),
            row!(1i64, 2i64),
        ];
        let out = execute_aggregate(
            &rows,
            &[ScalarExpr::col(0)],
            &[
                agg(AggFunc::Count, None, false),
                agg(AggFunc::Count, Some(ScalarExpr::col(1)), false),
            ],
        )
        .unwrap();
        assert_eq!(out, vec![row!(1i64, 2i64, 1i64)]);
    }

    #[test]
    fn min_max_distinct() {
        let rows = vec![row!(1i64, 5i64), row!(1i64, 5i64), row!(1i64, 2i64)];
        let out = execute_aggregate(
            &rows,
            &[ScalarExpr::col(0)],
            &[
                agg(AggFunc::Min, Some(ScalarExpr::col(1)), false),
                agg(AggFunc::Max, Some(ScalarExpr::col(1)), false),
                agg(AggFunc::Sum, Some(ScalarExpr::col(1)), true),
            ],
        )
        .unwrap();
        assert_eq!(out, vec![row!(1i64, 2i64, 5i64, 7i64)]);
    }

    fn batches(parts: &[&[Row]]) -> Vec<Batch> {
        parts.iter().map(|rows| Batch::from_rows(2, rows)).collect()
    }

    #[test]
    fn hash_aggregate_matches_the_row_form_across_typed_and_mixed_batches() {
        // Int partition, then a Float one (sum and max demote mid-stream),
        // with a deselected row and a NULL argument.
        let mut parts = batches(&[
            &[row!(1i64, 5i64), row!(2i64, 7i64), row!(1i64, 9i64)],
            &[row!(1.0f64, 0.5f64), Row::new(vec![Value::Int(2), Value::Null])],
        ]);
        parts[0].retain(&[true, true, false]);
        let rows: Vec<Row> = parts.iter().flat_map(Batch::to_rows).collect();
        let aggs = [
            agg(AggFunc::Count, None, false),
            agg(AggFunc::Count, Some(ScalarExpr::col(1)), false),
            agg(AggFunc::Sum, Some(ScalarExpr::col(1)), false),
            agg(AggFunc::Max, Some(ScalarExpr::col(1)), false),
            agg(AggFunc::Avg, Some(ScalarExpr::col(1)), false),
        ];
        let keys = [ScalarExpr::col(0)];
        let got = execute_aggregate_batches(&parts, &keys, &aggs, None).unwrap();
        assert_eq!(got, execute_aggregate(&rows, &keys, &aggs).unwrap());
        assert_eq!(
            got,
            vec![row!(1i64, 2i64, 2i64, 5.5f64, 5i64, 2.75f64), row!(2i64, 2i64, 1i64, 7i64, 7i64, 7.0f64)]
        );
        // The group key is the first spelling seen: Int(1), not Float(1.0).
        assert!(matches!(got[0].get(0), Value::Int(1)));
    }

    #[test]
    fn restricted_aggregate_keeps_only_the_given_groups_spelled_as_the_input_spells_them() {
        let parts = batches(&[&[row!(1i64, 5i64), row!(2i64, 7i64), row!(3i64, 1i64), row!(1i64, 2i64)]]);
        // Affected keys as a delta spelled them: 1.0 (present as Int 1), 3,
        // and 9 (carried by no row).
        let delta = Batch::from_rows(1, &[row!(1.0f64), row!(3i64), row!(9i64)]);
        let mut only = KeyTable::new(1);
        only.intern(delta.columns(), &delta.live_indices(), &mut Vec::new());
        let aggs = [agg(AggFunc::Sum, Some(ScalarExpr::col(1)), false)];
        let got = execute_aggregate_batches(&parts, &[ScalarExpr::col(0)], &aggs, Some(only)).unwrap();
        assert_eq!(got, vec![row!(1i64, 7i64), row!(3i64, 1i64)]);
        assert!(matches!(got[0].get(0), Value::Int(1)));
    }

    #[test]
    fn int_sums_do_not_depend_on_the_order_of_their_addends() {
        let sum = [agg(AggFunc::Sum, Some(ScalarExpr::col(1)), false)];
        let keys = [ScalarExpr::col(0)];
        let both = |values: &[Value]| {
            let rows: Vec<Row> = values.iter().map(|v| Row::new(vec![Value::Int(1), v.clone()])).collect();
            let by_row = execute_aggregate(&rows, &keys, &sum);
            let by_batch = execute_aggregate_batches(&batches(&[&rows]), &keys, &sum, None);
            assert_eq!(by_row, by_batch, "{values:?}");
            by_row.map(|out| out[0].get(1).clone())
        };
        let (max, one) = (Value::Int(i64::MAX), Value::Int(1));
        // A running sum may pass through values no INT holds ...
        assert_eq!(both(&[max.clone(), one.clone(), Value::Int(-1)]), Ok(max.clone()));
        // ... the total may not,
        let overflow = Err(DtError::Evaluation("integer overflow".into()));
        assert_eq!(both(&[max.clone(), one.clone()]), overflow);
        // and neither may the integers a FLOAT is first added to.
        assert_eq!(both(&[max, one, Value::Float(0.5), Value::Int(-1)]), overflow);
    }

    /// `k, count(*), count(v), sum(v), max(v)` folded over one group.
    fn fold_one(star: bool, old: Option<Row>, inserts: &[Row], deletes: &[Row]) -> Result<Vec<Row>, usize> {
        let v = || Some(ScalarExpr::col(1));
        let mut aggs = vec![
            agg(AggFunc::Count, v(), false),
            agg(AggFunc::Sum, v(), false),
            agg(AggFunc::Max, v(), false),
        ];
        if star {
            aggs.insert(0, agg(AggFunc::Count, None, false));
        }
        let schema = Schema::new(vec![dt_common::Column::new("c", DataType::Int); aggs.len() + 1]);
        let delta = Batch::from_rows(1, &[inserts, deletes].concat());
        let mut affected = KeyTable::new(1);
        affected.intern(delta.columns(), &delta.live_indices(), &mut Vec::new());
        let old: Vec<Row> = old.into_iter().collect();
        let (rows, undecided) =
            fold_aggregate_delta(&[ScalarExpr::col(0)], &aggs, &schema, affected, &old, inserts, deletes);
        if undecided.is_empty() { Ok(rows) } else { Err(undecided.len()) }
    }

    #[test]
    fn a_group_folds_from_its_old_row_and_the_delta() {
        let null = || Row::new(vec![Value::Int(1), Value::Null]);
        // count(*) 3, count(v) 2, sum 7, max 5 takes in 9 and NULL, loses 2.
        let old = || Some(row!(1i64, 3i64, 2i64, 7i64, 5i64));
        let got = fold_one(true, old(), &[row!(1i64, 9i64), null()], &[row!(1i64, 2i64)]);
        assert_eq!(got, Ok(vec![row!(1i64, 4i64, 2i64, 14i64, 9i64)]));
        // A new group; a group whose last row goes.
        assert_eq!(fold_one(true, None, &[row!(1i64, 4i64)], &[]), Ok(vec![row!(1i64, 1i64, 1i64, 4i64, 4i64)]));
        let last = Some(row!(1i64, 1i64, 1i64, 5i64, 5i64));
        assert_eq!(fold_one(true, last, &[], &[row!(1i64, 5i64)]), Ok(vec![]));
        // A delete strictly inside the max, of a value that adds nothing.
        let old = Some(row!(1i64, 3i64, 2i64, 5i64, 5i64));
        let got = fold_one(true, old, &[], &[row!(1i64, 0i64)]);
        assert_eq!(got, Ok(vec![row!(1i64, 2i64, 1i64, 5i64, 5i64)]));
    }

    #[test]
    fn what_the_delta_cannot_decide_is_left_to_a_recompute() {
        let old = || Some(row!(1i64, 3i64, 3i64, 7i64, 5i64));
        // Deleting a copy of the max; deleting without a count(*).
        assert_eq!(fold_one(true, old(), &[], &[row!(1i64, 5i64)]), Err(1));
        let no_star = || Some(row!(1i64, 3i64, 7i64, 5i64));
        assert_eq!(fold_one(false, no_star(), &[], &[row!(1i64, 2i64)]), Err(1));
        assert_eq!(fold_one(false, no_star(), &[row!(1i64, 2i64)], &[]), Ok(vec![row!(1i64, 4i64, 9i64, 5i64)]));
        // A total outside INT, with and without deletes.
        let big = || Some(row!(1i64, 1i64, 1i64, i64::MAX, i64::MAX));
        assert_eq!(fold_one(true, big(), &[row!(1i64, 1i64)], &[]), Err(1));
        assert_eq!(fold_one(true, big(), &[row!(1i64, 9i64)], &[row!(1i64, 2i64)]), Err(1));
        // An argument that fails on a delta row: the scan reports it.
        assert_eq!(fold_one(true, old(), &[row!(1i64, "x")], &[]), Err(1));
        // A key the old rows do not know under the delta's id.
        assert_eq!(fold_one(true, Some(row!(2i64, 1i64, 1i64, 1i64, 1i64)), &[row!(1i64, 1i64)], &[]), Err(1));
    }

    #[test]
    fn a_sum_brought_to_zero_needs_a_count_of_its_argument() {
        // `k, count(*), sum(v)`: 4 - 4 is 0 if a 0 remains, NULL if only NULLs do.
        let v = || Some(ScalarExpr::col(1));
        let mut aggs = vec![agg(AggFunc::Count, None, false), agg(AggFunc::Sum, v(), false)];
        let schema = Schema::new(vec![dt_common::Column::new("c", DataType::Int); 4]);
        let fold = |aggs: &[AggExpr], old: Row, deletes: &[Row]| {
            let delta = Batch::from_rows(1, deletes);
            let mut affected = KeyTable::new(1);
            affected.intern(delta.columns(), &delta.live_indices(), &mut Vec::new());
            let (rows, undecided) =
                fold_aggregate_delta(&[ScalarExpr::col(0)], aggs, &schema, affected, &[old], &[], deletes);
            (rows, undecided.len())
        };
        assert_eq!(fold(&aggs, row!(1i64, 2i64, 4i64), &[row!(1i64, 4i64)]), (vec![], 1));
        assert_eq!(fold(&aggs, row!(1i64, 2i64, 4i64), &[row!(1i64, 3i64)]), (vec![row!(1i64, 1i64, 1i64)], 0));
        // With `count(v)` beside it the count decides: one 0 left, or none.
        aggs.push(agg(AggFunc::Count, v(), false));
        let got = fold(&aggs, row!(1i64, 2i64, 4i64, 2i64), &[row!(1i64, 4i64)]);
        assert_eq!(got, (vec![row!(1i64, 1i64, 0i64, 1i64)], 0));
        let got = fold(&aggs, row!(1i64, 2i64, 4i64, 1i64), &[row!(1i64, 4i64)]);
        assert_eq!(got, (vec![Row::new(vec![Value::Int(1), Value::Int(1), Value::Null, Value::Int(0)])], 0));
        // A FLOAT sum is never folded; nor is anything beside it.
        let mut float = schema.columns().to_vec();
        float[2] = dt_common::Column::new("s", DataType::Float);
        assert_eq!(folds_from_delta(&aggs, &Schema::new(float)), vec![true, false, true]);
    }
}
