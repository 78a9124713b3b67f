//! Logical planning: bound expressions, logical plans, and the binder.
//!
//! The binder turns the raw AST from `dt-sql` into a typed
//! [`plan::LogicalPlan`] over a resolver (the catalog). Views are expanded
//! inline; name binding records, per upstream entity, exactly which columns
//! the query uses (the dependency metadata of §5.4). The plan inventory
//! matches the incrementally maintainable subset of §3.3.2; plans that fall
//! outside it (ORDER BY / LIMIT at the top level) are still executable but
//! are reported as non-differentiable, which forces the DT to FULL refresh
//! mode — mirroring how the production system treats unsupported operators.

pub mod binder;
pub mod expr;
mod join_keys;
pub mod plan;
pub mod pushdown;

pub use binder::{BindOutput, Binder, Resolver, ResolvedRelation};
pub use expr::{AggExpr, AggFunc, BinOp, ScalarExpr, ScalarFunc, WindowExpr, WindowFunc};
pub use join_keys::{equi_join_keys, EquiJoinKeys};
pub use plan::{operator_census, JoinType, LogicalPlan, OperatorKind};
pub use pushdown::{push_down_filters, scan_pushdown};
