//! Query differentiation: the incremental view maintenance engine.
//!
//! This crate reproduces the extensible differentiation framework of §5.5:
//! given a defining query `Q` and a data-timestamp interval `I = (t0, t1]`,
//! it computes `Δ_I Q` — the set of row insertions and deletions that
//! transform `Q`'s result at `t0` into its result at `t1` — in terms of the
//! sources and, for the old rows of an aggregation, of the DT's own stored
//! rows, which under delayed view semantics are `Q` at `t0`. Nothing else
//! is kept between refreshes (the framework "does not reuse state from
//! preceding data timestamps", §5.5.3).
//!
//! Differentiation rules per operator:
//!
//! * **scan** — the storage change scan over the interval.
//! * **filter / project / union all** — linear: apply to the delta.
//! * **inner join** — bilinearity: `Δ(Q ⋈ R) = ΔQ ⋈ R₁ + Q₀ ⋈ ΔR`.
//! * **outer joins** — either the *direct* derivative (affected-join-key
//!   restricted recompute, factoring out common terms) or the *naive*
//!   inner-join + anti-join rewrite that duplicates the `Q`/`R` terms —
//!   the trade-off §5.5.1 describes. Both are implemented; the naive form
//!   exists as the ablation baseline.
//! * **distinct** — affected-key recompute at both ends.
//! * **grouped aggregation** — the affected groups' old rows are read back
//!   from the DT (or recomputed at the old end when the DT does not hold
//!   the aggregation's output); their new rows are folded from the old
//!   rows and the delta ([`dt_exec::aggregate::fold_aggregate_delta`]),
//!   and only the groups the fold cannot decide are recomputed, at the new
//!   end.
//! * **window functions** — the paper's partition-recompute rule:
//!   `Δ(ξₖ(Q)) = π₋(ξₖ(Q|I₀ ⋉ₖ ΔQ)) + π₊(ξₖ(Q|I₁ ⋉ₖ ΔQ))`.
//!
//! The [`merge`] module implements `$ROW_ID`/`$ACTION` assignment, change
//! consolidation, and the two production invariants of §6.1: no duplicate
//! `($ROW_ID, $ACTION)` pair, and no delete of a nonexistent row.

pub mod differentiate;
pub mod merge;

pub use differentiate::{
    aggregate_maintenance, delta, delta_over_stored, delta_unconsolidated, ChangeProvider,
    DeltaContext, MapChanges, OuterJoinStrategy, StoredOutput,
};
pub use merge::{assign_change_rows, with_initial_row_ids, ChangeRow, MergeAction, StoredRows};
