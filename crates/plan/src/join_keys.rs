//! Which side of a join an expression reads, and the equi-join keys of an
//! `ON` condition.
//!
//! One definition for the three places that need it: the executor's hash
//! join, the IVM rules that restrict a join's inputs to affected keys, and
//! the filter pushdown that moves one-sided conjuncts below a join.

use crate::expr::{BinOp, ScalarExpr};

/// The join inputs an expression over `left ++ right` columns reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinSide {
    /// No column at all (literals, parameters).
    Neither,
    /// Only columns below the left arity.
    Left,
    /// Only columns at or above the left arity.
    Right,
    /// Columns of both inputs.
    Both,
}

/// Classify `e` over a join whose left input has `left_arity` columns.
pub(crate) fn join_side(e: &ScalarExpr, left_arity: usize) -> JoinSide {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    let left = cols.iter().any(|c| *c < left_arity);
    let right = cols.iter().any(|c| *c >= left_arity);
    match (left, right) {
        (false, false) => JoinSide::Neither,
        (true, false) => JoinSide::Left,
        (false, true) => JoinSide::Right,
        (true, true) => JoinSide::Both,
    }
}

/// Equi-key pairs extracted from an `ON` condition.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiJoinKeys {
    /// Key expressions over the left row.
    pub left: Vec<ScalarExpr>,
    /// The matching key expressions over the right row, rebased to the
    /// right input's own column indices.
    pub right: Vec<ScalarExpr>,
    /// Conjuncts that are not `left-side = right-side` comparisons, over
    /// the concatenated row, in `ON` order.
    pub residual: Vec<ScalarExpr>,
}

/// Split `on` into hashable equi-key pairs and residual conjuncts. A
/// conjunct `a = b` is a key pair when one operand reads only the left
/// input and the other only the right, in either order; an operand that
/// reads no column at all (`ON 1 = r.y`) counts as a left-side expression.
pub fn equi_join_keys(on: &ScalarExpr, left_arity: usize) -> EquiJoinKeys {
    let mut keys = EquiJoinKeys {
        left: vec![],
        right: vec![],
        residual: vec![],
    };
    let rebase = |e: &ScalarExpr| e.map_columns(&|i| i - left_arity);
    for c in on.conjuncts() {
        if let ScalarExpr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = c
        {
            use JoinSide::{Left, Neither, Right};
            match (join_side(left, left_arity), join_side(right, left_arity)) {
                (Left | Neither, Right) => {
                    keys.left.push((**left).clone());
                    keys.right.push(rebase(right));
                    continue;
                }
                (Right, Left | Neither) => {
                    keys.left.push((**right).clone());
                    keys.right.push(rebase(left));
                    continue;
                }
                _ => {}
            }
        }
        keys.residual.push(c.clone());
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::eq(l, r)
    }

    #[test]
    fn extraction_orients_sides() {
        // ON right.col = left.col (reversed order) still extracts.
        let keys = equi_join_keys(&eq(ScalarExpr::col(2), ScalarExpr::col(0)), 2);
        assert_eq!(keys.left, vec![ScalarExpr::col(0)]);
        assert_eq!(keys.right, vec![ScalarExpr::col(0)]);
        assert!(keys.residual.is_empty());
    }

    #[test]
    fn column_free_operand_is_a_left_key() {
        // ON 1 = r.y and ON r.y = 1 both hash on (1, y).
        for on in [
            eq(ScalarExpr::lit(1i64), ScalarExpr::col(3)),
            eq(ScalarExpr::col(3), ScalarExpr::lit(1i64)),
        ] {
            let keys = equi_join_keys(&on, 2);
            assert_eq!(keys.left, vec![ScalarExpr::lit(1i64)]);
            assert_eq!(keys.right, vec![ScalarExpr::col(1)]);
            assert!(keys.residual.is_empty());
        }
    }

    #[test]
    fn one_sided_and_mixed_conjuncts_are_residual() {
        let same_side = eq(ScalarExpr::col(0), ScalarExpr::col(1));
        let constant = eq(ScalarExpr::lit(1i64), ScalarExpr::lit(1i64));
        let mixed = eq(
            ScalarExpr::Binary {
                left: Box::new(ScalarExpr::col(0)),
                op: BinOp::Add,
                right: Box::new(ScalarExpr::col(2)),
            },
            ScalarExpr::col(3),
        );
        let on = ScalarExpr::and_all([&same_side, &constant, &mixed]).unwrap();
        let keys = equi_join_keys(&on, 2);
        assert!(keys.left.is_empty() && keys.right.is_empty());
        assert_eq!(keys.residual, vec![same_side, constant, mixed]);
    }
}
