//! Join execution: hash join on the `ON` condition's equi-keys with a
//! nested-loop fallback; all four join types.
//!
//! Two implementations of one contract (output order: matches in probe
//! (left) order, each probe row's partners in build (right) order; then
//! unmatched left rows NULL-padded, in probe order; then unmatched right
//! rows NULL-padded, in build order):
//!
//! * [`execute_join_batches`] — the columnar join every query runs: keys
//!   hashed column-wise by a [`KeyTable`], output assembled as gathered
//!   columns, residual conjuncts applied as batch filters.
//! * [`execute_join`] — the row-at-a-time form, kept as the differential
//!   oracle and for the small signed joins the IVM rules run over delta
//!   slices.

use std::collections::HashMap;
use std::sync::Arc;

use dt_common::{Batch, ColumnVec, DtResult, Row, Value};
use dt_plan::{equi_join_keys, JoinType, ScalarExpr};

use crate::batch::filter_rows;
use crate::keys::{
    eval_columns, try_eval_columns, without_null_keys, FirstError, KeyTable, ABSENT,
};

fn eval_key(exprs: &[ScalarExpr], row: &Row) -> DtResult<Option<Vec<Value>>> {
    // SQL equi-join keys never match on NULL; a NULL key joins nothing.
    let mut k = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = e.eval(row)?;
        if v.is_null() {
            return Ok(None);
        }
        k.push(v);
    }
    Ok(Some(k))
}

/// Execute a join between materialized inputs.
pub fn execute_join(
    left: &[Row],
    right: &[Row],
    left_arity: usize,
    right_arity: usize,
    join_type: JoinType,
    on: &ScalarExpr,
) -> DtResult<Vec<Row>> {
    let keys = equi_join_keys(on, left_arity);
    let mut out = Vec::new();
    let mut left_matched = vec![false; left.len()];
    let mut right_matched = vec![false; right.len()];

    if keys.left.is_empty() {
        // Nested loop.
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                let joined = l.concat(r);
                if residual_ok(&keys.residual, &joined)? {
                    left_matched[i] = true;
                    right_matched[j] = true;
                    out.push(joined);
                }
            }
        }
    } else {
        // Hash join: build on the right.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (j, r) in right.iter().enumerate() {
            if let Some(k) = eval_key(&keys.right, r)? {
                table.entry(k).or_default().push(j);
            }
        }
        for (i, l) in left.iter().enumerate() {
            if let Some(k) = eval_key(&keys.left, l)? {
                if let Some(matches) = table.get(&k) {
                    for &j in matches {
                        let joined = l.concat(&right[j]);
                        if residual_ok(&keys.residual, &joined)? {
                            left_matched[i] = true;
                            right_matched[j] = true;
                            out.push(joined);
                        }
                    }
                }
            }
        }
    }

    // Outer padding.
    if matches!(join_type, JoinType::Left | JoinType::Full) {
        for (i, l) in left.iter().enumerate() {
            if !left_matched[i] {
                out.push(l.concat(&Row::nulls(right_arity)));
            }
        }
    }
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        for (j, r) in right.iter().enumerate() {
            if !right_matched[j] {
                out.push(Row::nulls(left_arity).concat(r));
            }
        }
    }
    Ok(out)
}

/// Candidate pairs are assembled and filtered this many at a time, so a
/// nested-loop or heavily duplicated join never holds more than a chunk of
/// its cross product.
const PAIR_CHUNK: usize = 1 << 16;

/// The columnar join. The build side (right) is made one dense batch and
/// its key columns hashed into a [`KeyTable`]; each probe (left) batch has
/// its key columns looked up in one pass, the matching (probe slot, build
/// slot) pairs gathered into an output batch column by column, and the
/// residual `ON` conjuncts applied to that batch as filters. No row is
/// materialised. Output, order and errors are [`execute_join`]'s.
pub fn execute_join_batches(
    left: &[Batch],
    right: &[Batch],
    left_arity: usize,
    right_arity: usize,
    join_type: JoinType,
    on: &ScalarExpr,
) -> DtResult<Vec<Batch>> {
    let keys = equi_join_keys(on, left_arity);
    let pad_left = matches!(join_type, JoinType::Left | JoinType::Full);
    let pad_right = matches!(join_type, JoinType::Right | JoinType::Full);
    let build = Batch::concat(right, right_arity);
    let build_rows: Vec<usize> = (0..build.len()).collect();

    // Hash path: `partners[starts[id]..starts[id + 1]]` are the build
    // slots holding key `id`, ascending. Nested-loop path: every build
    // slot partners every probe row.
    let hashed = if keys.left.is_empty() {
        None
    } else {
        let cols = try_eval_columns(&keys.right, &build, &build_rows)?;
        let keyed = without_null_keys(&cols, &build_rows);
        let mut table = KeyTable::new(cols.len());
        let mut ids = Vec::new();
        table.intern(&cols, &keyed, &mut ids);
        let mut starts = vec![0usize; table.len() + 1];
        for &id in &ids {
            starts[id as usize + 1] += 1;
        }
        for id in 0..table.len() {
            starts[id + 1] += starts[id];
        }
        let mut fill = starts.clone();
        let mut partners = vec![0usize; keyed.len()];
        for (&slot, &id) in keyed.iter().zip(&ids) {
            partners[fill[id as usize]] = slot;
            fill[id as usize] += 1;
        }
        Some((table, starts, partners))
    };

    let mut out = Vec::new();
    let mut build_matched = vec![false; build.len()];
    let mut unmatched_left = Vec::new();
    let mut ids = Vec::new();
    for b in left {
        let rows = b.live_indices();
        let mut first = FirstError::new(rows.len());
        // Per live probe row, the id of its key (hash path only).
        if let Some((table, ..)) = &hashed {
            let cols = eval_columns(&keys.left, b, &rows, &mut first);
            let live = &rows[..first.live()];
            let keyed = without_null_keys(&cols, live);
            let mut found = Vec::new();
            table.find(&cols, &keyed, &mut found);
            ids.clear();
            ids.resize(b.len(), ABSENT);
            for (&slot, &id) in keyed.iter().zip(&found) {
                ids[slot] = id;
            }
        }
        let mut probe_matched = vec![false; b.len()];
        let (mut probe_slots, mut build_slots) = (Vec::new(), Vec::new());
        let mut pos = 0;
        while pos < first.live() {
            // Collect one chunk of candidate pairs, whole probe rows at a
            // time, remembering where each probe row's pairs begin.
            probe_slots.clear();
            build_slots.clear();
            let chunk_start = pos;
            let mut pair_starts = Vec::new();
            while pos < first.live() && probe_slots.len() < PAIR_CHUNK {
                let slot = rows[pos];
                pair_starts.push(probe_slots.len());
                let candidates = match &hashed {
                    None => &build_rows[..],
                    Some(_) if ids[slot] == ABSENT => &[],
                    Some((_, starts, partners)) => {
                        let id = ids[slot] as usize;
                        &partners[starts[id]..starts[id + 1]]
                    }
                };
                probe_slots.extend(std::iter::repeat_n(slot, candidates.len()));
                build_slots.extend_from_slice(candidates);
                pos += 1;
            }
            if probe_slots.is_empty() {
                continue;
            }
            let columns = (b.columns().iter())
                .map(|c| Arc::new(c.gather(&probe_slots)))
                .chain(build.columns().iter().map(|c| Arc::new(c.gather(&build_slots))))
                .collect();
            let mut pairs = Batch::new(columns, probe_slots.len());
            // Residual conjuncts in ON order, each over the pairs the
            // earlier ones kept. The row path stops at the earliest failing
            // pair, so after a failure later conjuncts only see the pairs
            // before it.
            let mut failed = None;
            for conjunct in &keys.residual {
                if let Err((p, e)) = filter_rows(&mut pairs, conjunct) {
                    failed = Some((p, e));
                    let mut keep = vec![false; pairs.len()];
                    keep[..p].fill(true);
                    pairs.retain(&keep);
                }
            }
            if let Some((p, e)) = failed {
                let probe_row = pair_starts.partition_point(|&start| start <= p) - 1;
                first.fail(chunk_start + probe_row, e);
            }
            if pad_left || pad_right {
                for p in pairs.live_indices() {
                    probe_matched[probe_slots[p]] = true;
                    build_matched[build_slots[p]] = true;
                }
            }
            out.push(pairs);
        }
        first.finish()?;
        if pad_left {
            let unmatched: Vec<usize> = (rows.into_iter())
                .filter(|&slot| !probe_matched[slot])
                .collect();
            unmatched_left.push(padded(b, &unmatched, right_arity, true));
        }
    }

    out.extend(unmatched_left);
    if pad_right {
        let unmatched: Vec<usize> = (0..build.len()).filter(|&j| !build_matched[j]).collect();
        out.push(padded(&build, &unmatched, left_arity, false));
    }
    Ok(out)
}

/// The listed slots of `side` with `pad` NULL columns after them
/// (`pad_after`) or before them.
fn padded(side: &Batch, slots: &[usize], pad: usize, pad_after: bool) -> Batch {
    let nulls = Arc::new(ColumnVec::Generic(vec![Value::Null; slots.len()]));
    let own = side.columns().iter().map(|c| Arc::new(c.gather(slots)));
    let padding = std::iter::repeat_n(nulls, pad);
    let columns = if pad_after {
        own.chain(padding).collect()
    } else {
        padding.chain(own).collect()
    };
    Batch::new(columns, slots.len())
}

fn residual_ok(residual: &[ScalarExpr], joined: &Row) -> DtResult<bool> {
    for p in residual {
        if !p.eval(joined)?.is_true() {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;
    use dt_plan::BinOp;

    fn eq(l: usize, r: usize) -> ScalarExpr {
        ScalarExpr::eq(ScalarExpr::col(l), ScalarExpr::col(r))
    }

    #[test]
    fn null_keys_never_match() {
        let left = vec![Row::new(vec![Value::Null]), row!(1i64)];
        let right = vec![Row::new(vec![Value::Null]), row!(1i64)];
        let out = execute_join(&left, &right, 1, 1, JoinType::Inner, &eq(0, 1)).unwrap();
        assert_eq!(out, vec![row!(1i64, 1i64)]);
        // But FULL join surfaces the null rows unmatched.
        let out = execute_join(&left, &right, 1, 1, JoinType::Full, &eq(0, 1)).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn residual_predicate_applies_after_hash_match() {
        // ON a = b AND a > 1
        let on = ScalarExpr::Binary {
            left: Box::new(eq(0, 1)),
            op: BinOp::And,
            right: Box::new(ScalarExpr::Binary {
                left: Box::new(ScalarExpr::col(0)),
                op: BinOp::Gt,
                right: Box::new(ScalarExpr::lit(1i64)),
            }),
        };
        let left = vec![row!(1i64), row!(2i64)];
        let right = vec![row!(1i64), row!(2i64)];
        let out = execute_join(&left, &right, 1, 1, JoinType::Inner, &on).unwrap();
        assert_eq!(out, vec![row!(2i64, 2i64)]);
    }

    #[test]
    fn duplicate_left_and_right_rows_multiply() {
        let left = vec![row!(1i64), row!(1i64)];
        let right = vec![row!(1i64), row!(1i64), row!(1i64)];
        let out = execute_join(&left, &right, 1, 1, JoinType::Inner, &eq(0, 1)).unwrap();
        assert_eq!(out.len(), 6);
    }
}
