//! Bound (resolved) expressions and their evaluation.
//!
//! Bound expressions refer to input columns by *index*, so evaluation needs
//! no name lookups. Scalar evaluation lives here (rather than in `dt-exec`)
//! because both the executor and the IVM merge/consolidation machinery
//! evaluate expressions.

use std::fmt;

use dt_common::{DataType, DtError, DtResult, Row, Value};

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// Absolute value.
    Abs,
    /// Lowercase a string.
    Lower,
    /// Uppercase a string.
    Upper,
    /// String length.
    Length,
    /// First non-NULL argument.
    Coalesce,
    /// String concatenation.
    Concat,
    /// Truncate a timestamp to a unit: `date_trunc('hour', ts)`.
    DateTrunc,
    /// `iff(cond, a, b)`.
    Iff,
}

impl ScalarFunc {
    /// Look up by SQL name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name {
            "abs" => ScalarFunc::Abs,
            "lower" => ScalarFunc::Lower,
            "upper" => ScalarFunc::Upper,
            "length" | "len" => ScalarFunc::Length,
            "coalesce" => ScalarFunc::Coalesce,
            "concat" => ScalarFunc::Concat,
            "date_trunc" => ScalarFunc::DateTrunc,
            "iff" => ScalarFunc::Iff,
            _ => return None,
        })
    }
}

/// Aggregate functions (§3.3.2: distinct and grouped aggregations are
/// incrementally supported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(*)` / `count(x)`.
    Count,
    /// `count_if(pred)` (used in the paper's Listing 1).
    CountIf,
    /// `sum(x)`.
    Sum,
    /// `min(x)`.
    Min,
    /// `max(x)`.
    Max,
    /// `avg(x)`.
    Avg,
}

impl AggFunc {
    /// Look up by SQL name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "count_if" | "countif" => AggFunc::CountIf,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }

    /// The SQL name [`AggFunc::from_name`] reads.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::CountIf => "count_if",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// Result type given the argument type.
    pub fn result_type(self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count | AggFunc::CountIf => DataType::Int,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Int),
            AggFunc::Avg => DataType::Float,
        }
    }
}

/// Window functions with PARTITION BY (§3.3.2, §5.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFunc {
    /// `row_number()`.
    RowNumber,
    /// `rank()`.
    Rank,
    /// Windowed `sum`.
    Sum,
    /// Windowed `count`.
    Count,
    /// Windowed `min`.
    Min,
    /// Windowed `max`.
    Max,
    /// Windowed `avg`.
    Avg,
}

impl WindowFunc {
    /// Look up by SQL name.
    pub fn from_name(name: &str) -> Option<WindowFunc> {
        Some(match name {
            "row_number" => WindowFunc::RowNumber,
            "rank" => WindowFunc::Rank,
            "sum" => WindowFunc::Sum,
            "count" => WindowFunc::Count,
            "min" => WindowFunc::Min,
            "max" => WindowFunc::Max,
            "avg" => WindowFunc::Avg,
            _ => return None,
        })
    }

    /// Result type given the argument type.
    pub fn result_type(self, arg: Option<DataType>) -> DataType {
        match self {
            WindowFunc::RowNumber | WindowFunc::Rank | WindowFunc::Count => DataType::Int,
            WindowFunc::Sum | WindowFunc::Min | WindowFunc::Max => arg.unwrap_or(DataType::Int),
            WindowFunc::Avg => DataType::Float,
        }
    }
}

/// Binary operators over values (bound form of the AST operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// A bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Input column by index.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Positional `?` parameter of a prepared statement (0-based). Replaced
    /// by a [`ScalarExpr::Literal`] via [`ScalarExpr::bind_params`] before
    /// evaluation; evaluating an unbound parameter is an error.
    Parameter(usize),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<ScalarExpr>),
    /// Logical NOT (three-valued).
    Not(Box<ScalarExpr>),
    /// `IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<ScalarExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `IN (list)`.
    InList {
        /// Operand.
        expr: Box<ScalarExpr>,
        /// Candidates.
        list: Vec<ScalarExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `CASE WHEN ... END`.
    Case {
        /// (condition, value) arms.
        when_then: Vec<(ScalarExpr, ScalarExpr)>,
        /// ELSE value (NULL when absent).
        else_value: Option<Box<ScalarExpr>>,
    },
    /// Cast.
    Cast {
        /// Operand.
        expr: Box<ScalarExpr>,
        /// Target type.
        ty: DataType,
    },
    /// Scalar function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Shorthand column reference.
    pub fn col(i: usize) -> ScalarExpr {
        ScalarExpr::Column(i)
    }

    /// Shorthand literal.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    /// Equality comparison helper.
    pub fn eq(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(left),
            op: BinOp::Eq,
            right: Box::new(right),
        }
    }

    /// The conjuncts of this predicate: its top-level `AND` tree flattened,
    /// left to right. A predicate that is not a conjunction is its own
    /// single conjunct.
    pub fn conjuncts(&self) -> Vec<&ScalarExpr> {
        fn go<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
            match e {
                ScalarExpr::Binary {
                    left,
                    op: BinOp::And,
                    right,
                } => {
                    go(left, out);
                    go(right, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    /// Reassemble conjuncts into one left-deep `AND` (evaluation order
    /// preserved), or `None` when there are none.
    pub fn and_all<'a>(conjuncts: impl IntoIterator<Item = &'a ScalarExpr>) -> Option<ScalarExpr> {
        let mut it = conjuncts.into_iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, c| ScalarExpr::Binary {
            left: Box::new(acc),
            op: BinOp::And,
            right: Box::new(c.clone()),
        }))
    }

    /// True when this predicate can never raise, whatever row it sees:
    /// comparisons, `IS NULL` and `IN (literals)` over columns and
    /// literals, composed with `AND`/`OR`/`NOT`. Only such a predicate may
    /// be evaluated on rows the original plan would not have shown it
    /// (e.g. below a join, on rows that find no partner).
    pub fn is_infallible_predicate(&self) -> bool {
        let atom = |e: &ScalarExpr| matches!(e, ScalarExpr::Column(_) | ScalarExpr::Literal(_));
        match self {
            ScalarExpr::Literal(Value::Bool(_) | Value::Null) => true,
            ScalarExpr::Not(e) => e.is_infallible_predicate(),
            ScalarExpr::IsNull { expr, .. } => atom(expr),
            ScalarExpr::InList { expr, list, .. } => {
                atom(expr) && list.iter().all(|c| matches!(c, ScalarExpr::Literal(_)))
            }
            ScalarExpr::Binary { left, op, right } => match op {
                BinOp::And | BinOp::Or => {
                    left.is_infallible_predicate() && right.is_infallible_predicate()
                }
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                    atom(left) && atom(right)
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Evaluate against an input row.
    pub fn eval(&self, row: &Row) -> DtResult<Value> {
        match self {
            ScalarExpr::Column(i) => {
                row.values().get(*i).cloned().ok_or_else(|| {
                    DtError::internal(format!("column index {i} out of range ({})", row.len()))
                })
            }
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Parameter(i) => Err(DtError::Binding(format!(
                "parameter ?{} is not bound (use a prepared statement and \
                 supply {} value(s))",
                i + 1,
                i + 1
            ))),
            ScalarExpr::Binary { left, op, right } => {
                // AND/OR need three-valued logic with short-circuiting on
                // known outcomes.
                if matches!(op, BinOp::And | BinOp::Or) {
                    return self.eval_logical(row, *op, left, right);
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                match op {
                    BinOp::Add => l.add(&r),
                    BinOp::Sub => l.sub(&r),
                    BinOp::Mul => l.mul(&r),
                    BinOp::Div => l.div(&r),
                    BinOp::Mod => l.modulo(&r),
                    BinOp::Eq => Ok(l.sql_eq(&r)),
                    BinOp::NotEq => Ok(match l.sql_cmp(&r) {
                        None => Value::Null,
                        Some(o) => Value::Bool(o != std::cmp::Ordering::Equal),
                    }),
                    BinOp::Lt => Ok(cmp_to_bool(l.sql_cmp(&r), |o| o.is_lt())),
                    BinOp::LtEq => Ok(cmp_to_bool(l.sql_cmp(&r), |o| o.is_le())),
                    BinOp::Gt => Ok(cmp_to_bool(l.sql_cmp(&r), |o| o.is_gt())),
                    BinOp::GtEq => Ok(cmp_to_bool(l.sql_cmp(&r), |o| o.is_ge())),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            ScalarExpr::Neg(e) => e.eval(row)?.neg(),
            ScalarExpr::Not(e) => Ok(match e.eval(row)? {
                Value::Null => Value::Null,
                Value::Bool(b) => Value::Bool(!b),
                other => return Err(DtError::Type(format!("NOT applied to {other}"))),
            }),
            ScalarExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for cand in list {
                    let c = cand.eval(row)?;
                    match v.sql_eq(&c) {
                        Value::Bool(true) => return Ok(Value::Bool(!*negated)),
                        Value::Null => saw_null = true,
                        _ => {}
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                })
            }
            ScalarExpr::Case {
                when_then,
                else_value,
            } => {
                for (cond, value) in when_then {
                    if cond.eval(row)?.is_true() {
                        return value.eval(row);
                    }
                }
                match else_value {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            ScalarExpr::Cast { expr, ty } => expr.eval(row)?.cast(*ty),
            ScalarExpr::Func { func, args } => eval_func(*func, args, row),
        }
    }

    fn eval_logical(
        &self,
        row: &Row,
        op: BinOp,
        left: &ScalarExpr,
        right: &ScalarExpr,
    ) -> DtResult<Value> {
        let l = left.eval(row)?;
        match (op, &l) {
            (BinOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = right.eval(row)?;
        Ok(match op {
            BinOp::And => match (&l, &r) {
                (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (Value::Bool(a), Value::Bool(b)) => Value::Bool(*a && *b),
                _ => return Err(DtError::Type("AND over non-booleans".into())),
            },
            BinOp::Or => match (&l, &r) {
                (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (Value::Bool(a), Value::Bool(b)) => Value::Bool(*a || *b),
                _ => return Err(DtError::Type("OR over non-booleans".into())),
            },
            _ => unreachable!(),
        })
    }

    /// Best-effort result type given input column types.
    pub fn infer_type(&self, input: &[DataType]) -> DataType {
        match self {
            ScalarExpr::Column(i) => input.get(*i).copied().unwrap_or(DataType::Str),
            ScalarExpr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
            // A parameter's type is unknown until bound; STRING is the
            // widest-rendering default.
            ScalarExpr::Parameter(_) => DataType::Str,
            ScalarExpr::Binary { left, op, right } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    let lt = left.infer_type(input);
                    let rt = right.infer_type(input);
                    match (lt, rt) {
                        (DataType::Timestamp, DataType::Timestamp) => DataType::Duration,
                        (DataType::Timestamp, _) | (_, DataType::Timestamp) => DataType::Timestamp,
                        (DataType::Duration, _) | (_, DataType::Duration) => DataType::Duration,
                        (DataType::Float, _) | (_, DataType::Float) => DataType::Float,
                        _ => DataType::Int,
                    }
                }
                BinOp::Div => DataType::Float,
                BinOp::Mod => DataType::Int,
                _ => DataType::Bool,
            },
            ScalarExpr::Neg(e) => e.infer_type(input),
            ScalarExpr::Not(_) | ScalarExpr::IsNull { .. } | ScalarExpr::InList { .. } => {
                DataType::Bool
            }
            ScalarExpr::Case {
                when_then,
                else_value,
            } => when_then
                .first()
                .map(|(_, v)| v.infer_type(input))
                .or_else(|| else_value.as_ref().map(|e| e.infer_type(input)))
                .unwrap_or(DataType::Str),
            ScalarExpr::Cast { ty, .. } => *ty,
            ScalarExpr::Func { func, args } => match func {
                ScalarFunc::Abs => args
                    .first()
                    .map(|a| a.infer_type(input))
                    .unwrap_or(DataType::Int),
                ScalarFunc::Lower | ScalarFunc::Upper | ScalarFunc::Concat => DataType::Str,
                ScalarFunc::Length => DataType::Int,
                ScalarFunc::Coalesce | ScalarFunc::Iff => args
                    .iter()
                    .skip(if *func == ScalarFunc::Iff { 1 } else { 0 })
                    .map(|a| a.infer_type(input))
                    .next()
                    .unwrap_or(DataType::Str),
                ScalarFunc::DateTrunc => DataType::Timestamp,
            },
        }
    }

    /// Visit all column indices referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Column(i) => out.push(*i),
            ScalarExpr::Literal(_) | ScalarExpr::Parameter(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            ScalarExpr::Neg(e) | ScalarExpr::Not(e) => e.referenced_columns(out),
            ScalarExpr::IsNull { expr, .. } => expr.referenced_columns(out),
            ScalarExpr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
            ScalarExpr::Case {
                when_then,
                else_value,
            } => {
                for (c, v) in when_then {
                    c.referenced_columns(out);
                    v.referenced_columns(out);
                }
                if let Some(e) = else_value {
                    e.referenced_columns(out);
                }
            }
            ScalarExpr::Cast { expr, .. } => expr.referenced_columns(out),
            ScalarExpr::Func { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// The largest parameter index referenced by this expression.
    pub fn max_parameter(&self) -> Option<usize> {
        let mut max = None;
        self.walk_params(&mut |i| max = Some(max.map_or(i, |m: usize| m.max(i))));
        max
    }

    fn walk_params(&self, f: &mut impl FnMut(usize)) {
        match self {
            ScalarExpr::Parameter(i) => f(*i),
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.walk_params(f);
                right.walk_params(f);
            }
            ScalarExpr::Neg(e) | ScalarExpr::Not(e) => e.walk_params(f),
            ScalarExpr::IsNull { expr, .. } => expr.walk_params(f),
            ScalarExpr::InList { expr, list, .. } => {
                expr.walk_params(f);
                for e in list {
                    e.walk_params(f);
                }
            }
            ScalarExpr::Case {
                when_then,
                else_value,
            } => {
                for (c, v) in when_then {
                    c.walk_params(f);
                    v.walk_params(f);
                }
                if let Some(e) = else_value {
                    e.walk_params(f);
                }
            }
            ScalarExpr::Cast { expr, .. } => expr.walk_params(f),
            ScalarExpr::Func { args, .. } => {
                for a in args {
                    a.walk_params(f);
                }
            }
        }
    }

    /// Replace every [`ScalarExpr::Parameter`] with the corresponding
    /// literal from `params`. Errors when a parameter index is out of
    /// range (too few bindings supplied).
    pub fn bind_params(&self, params: &[Value]) -> DtResult<ScalarExpr> {
        Ok(match self {
            ScalarExpr::Parameter(i) => {
                let v = params.get(*i).ok_or_else(|| {
                    DtError::Binding(format!(
                        "no value bound for parameter ?{} ({} supplied)",
                        i + 1,
                        params.len()
                    ))
                })?;
                ScalarExpr::Literal(v.clone())
            }
            ScalarExpr::Column(i) => ScalarExpr::Column(*i),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Binary { left, op, right } => ScalarExpr::Binary {
                left: Box::new(left.bind_params(params)?),
                op: *op,
                right: Box::new(right.bind_params(params)?),
            },
            ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(e.bind_params(params)?)),
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.bind_params(params)?)),
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.bind_params(params)?),
                negated: *negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(expr.bind_params(params)?),
                list: list
                    .iter()
                    .map(|e| e.bind_params(params))
                    .collect::<DtResult<_>>()?,
                negated: *negated,
            },
            ScalarExpr::Case {
                when_then,
                else_value,
            } => ScalarExpr::Case {
                when_then: when_then
                    .iter()
                    .map(|(c, v)| Ok((c.bind_params(params)?, v.bind_params(params)?)))
                    .collect::<DtResult<_>>()?,
                else_value: match else_value {
                    Some(e) => Some(Box::new(e.bind_params(params)?)),
                    None => None,
                },
            },
            ScalarExpr::Cast { expr, ty } => ScalarExpr::Cast {
                expr: Box::new(expr.bind_params(params)?),
                ty: *ty,
            },
            ScalarExpr::Func { func, args } => ScalarExpr::Func {
                func: *func,
                args: args
                    .iter()
                    .map(|e| e.bind_params(params))
                    .collect::<DtResult<_>>()?,
            },
        })
    }

    /// Rewrite column indices with `f` (used when composing plans, e.g. to
    /// shift right-join-side columns by the left arity).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> ScalarExpr {
        match self {
            ScalarExpr::Column(i) => ScalarExpr::Column(f(*i)),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Parameter(i) => ScalarExpr::Parameter(*i),
            ScalarExpr::Binary { left, op, right } => ScalarExpr::Binary {
                left: Box::new(left.map_columns(f)),
                op: *op,
                right: Box::new(right.map_columns(f)),
            },
            ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(e.map_columns(f))),
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.map_columns(f))),
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negated: *negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(expr.map_columns(f)),
                list: list.iter().map(|e| e.map_columns(f)).collect(),
                negated: *negated,
            },
            ScalarExpr::Case {
                when_then,
                else_value,
            } => ScalarExpr::Case {
                when_then: when_then
                    .iter()
                    .map(|(c, v)| (c.map_columns(f), v.map_columns(f)))
                    .collect(),
                else_value: else_value.as_ref().map(|e| Box::new(e.map_columns(f))),
            },
            ScalarExpr::Cast { expr, ty } => ScalarExpr::Cast {
                expr: Box::new(expr.map_columns(f)),
                ty: *ty,
            },
            ScalarExpr::Func { func, args } => ScalarExpr::Func {
                func: *func,
                args: args.iter().map(|e| e.map_columns(f)).collect(),
            },
        }
    }
}

fn cmp_to_bool(
    c: Option<std::cmp::Ordering>,
    f: impl Fn(std::cmp::Ordering) -> bool,
) -> Value {
    match c {
        None => Value::Null,
        Some(o) => Value::Bool(f(o)),
    }
}

fn eval_func(func: ScalarFunc, args: &[ScalarExpr], row: &Row) -> DtResult<Value> {
    let arity_err = |want: &str| {
        Err(DtError::Type(format!(
            "{func:?} expects {want} argument(s), got {}",
            args.len()
        )))
    };
    match func {
        ScalarFunc::Abs => {
            let [a] = args else { return arity_err("1") };
            match a.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(x) => Ok(Value::Float(x.abs())),
                other => Err(DtError::Type(format!("abs({other})"))),
            }
        }
        ScalarFunc::Lower | ScalarFunc::Upper => {
            let [a] = args else { return arity_err("1") };
            match a.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Str(if func == ScalarFunc::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                other => Err(DtError::Type(format!("{func:?}({other})"))),
            }
        }
        ScalarFunc::Length => {
            let [a] = args else { return arity_err("1") };
            match a.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(DtError::Type(format!("length({other})"))),
            }
        }
        ScalarFunc::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::Concat => {
            let mut out = String::new();
            for a in args {
                match a.eval(row)? {
                    Value::Null => return Ok(Value::Null),
                    Value::Str(s) => out.push_str(&s),
                    other => out.push_str(&other.to_string()),
                }
            }
            Ok(Value::Str(out))
        }
        ScalarFunc::DateTrunc => {
            let [unit, ts] = args else { return arity_err("2") };
            let unit = match unit.eval(row)? {
                Value::Str(s) => s,
                other => return Err(DtError::Type(format!("date_trunc unit {other}"))),
            };
            let t = match ts.eval(row)? {
                Value::Null => return Ok(Value::Null),
                Value::Timestamp(t) => t,
                other => return Err(DtError::Type(format!("date_trunc over {other}"))),
            };
            let us = t.as_micros();
            let per = match unit.to_ascii_lowercase().as_str() {
                "second" | "seconds" => 1_000_000i64,
                "minute" | "minutes" => 60_000_000,
                "hour" | "hours" => 3_600_000_000,
                "day" | "days" => 86_400_000_000,
                other => {
                    return Err(DtError::Evaluation(format!(
                        "unknown date_trunc unit '{other}'"
                    )))
                }
            };
            Ok(Value::Timestamp(dt_common::Timestamp::from_micros(
                us.div_euclid(per) * per,
            )))
        }
        ScalarFunc::Iff => {
            let [c, a, b] = args else { return arity_err("3") };
            if c.eval(row)?.is_true() {
                a.eval(row)
            } else {
                b.eval(row)
            }
        }
    }
}

/// A bound aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// The argument (None for `count(*)`).
    pub arg: Option<ScalarExpr>,
    /// DISTINCT aggregation.
    pub distinct: bool,
    /// Output column name.
    pub name: String,
}

/// A bound window expression.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowExpr {
    /// The function.
    pub func: WindowFunc,
    /// The argument (None for `row_number()` / `count(*)`).
    pub arg: Option<ScalarExpr>,
    /// PARTITION BY keys (§5.5.1 requires a PARTITION BY for the
    /// partition-recompute derivative to apply).
    pub partition_by: Vec<ScalarExpr>,
    /// ORDER BY keys (expr, descending).
    pub order_by: Vec<(ScalarExpr, bool)>,
    /// Output column name.
    pub name: String,
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(i) => write!(f, "#{i}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Parameter(i) => write!(f, "?{}", i + 1),
            ScalarExpr::Binary { left, op, right } => write!(f, "({left} {op:?} {right})"),
            ScalarExpr::Neg(e) => write!(f, "(-{e})"),
            ScalarExpr::Not(e) => write!(f, "(NOT {e})"),
            ScalarExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::InList { expr, negated, .. } => {
                write!(f, "({expr} {}IN (...))", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::Case { .. } => write!(f, "CASE"),
            ScalarExpr::Cast { expr, ty } => write!(f, "({expr}::{ty})"),
            ScalarExpr::Func { func, .. } => write!(f, "{func:?}(...)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::row;

    fn b(l: ScalarExpr, op: BinOp, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_and_comparison() {
        let r = row!(10i64, 3i64);
        let e = b(ScalarExpr::col(0), BinOp::Add, ScalarExpr::col(1));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(13));
        let e = b(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::col(1));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_and_or() {
        let r = row!(1i64);
        let null = ScalarExpr::Literal(Value::Null);
        let t = ScalarExpr::lit(true);
        let f = ScalarExpr::lit(false);
        // false AND NULL = false; true OR NULL = true; true AND NULL = NULL.
        assert_eq!(
            b(f.clone(), BinOp::And, null.clone()).eval(&r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            b(t.clone(), BinOp::Or, null.clone()).eval(&r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(b(t, BinOp::And, null).eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn in_list_with_nulls() {
        let r = row!(2i64);
        let e = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::col(0)),
            list: vec![ScalarExpr::lit(1i64), ScalarExpr::Literal(Value::Null)],
            negated: false,
        };
        // 2 IN (1, NULL) = NULL (unknown).
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
        let e = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::col(0)),
            list: vec![ScalarExpr::lit(2i64), ScalarExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn case_expression() {
        let e = ScalarExpr::Case {
            when_then: vec![(
                b(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(0i64)),
                ScalarExpr::lit("pos"),
            )],
            else_value: Some(Box::new(ScalarExpr::lit("neg"))),
        };
        assert_eq!(e.eval(&row!(5i64)).unwrap(), Value::Str("pos".into()));
        assert_eq!(e.eval(&row!(-5i64)).unwrap(), Value::Str("neg".into()));
    }

    #[test]
    fn date_trunc() {
        let t = dt_common::Timestamp::from_secs(3_725); // 1h 2m 5s
        let e = ScalarExpr::Func {
            func: ScalarFunc::DateTrunc,
            args: vec![
                ScalarExpr::lit("hour"),
                ScalarExpr::Literal(Value::Timestamp(t)),
            ],
        };
        assert_eq!(
            e.eval(&Row::empty()).unwrap(),
            Value::Timestamp(dt_common::Timestamp::from_secs(3600))
        );
    }

    #[test]
    fn coalesce_and_concat() {
        let e = ScalarExpr::Func {
            func: ScalarFunc::Coalesce,
            args: vec![
                ScalarExpr::Literal(Value::Null),
                ScalarExpr::lit(7i64),
                ScalarExpr::lit(9i64),
            ],
        };
        assert_eq!(e.eval(&Row::empty()).unwrap(), Value::Int(7));
        let e = ScalarExpr::Func {
            func: ScalarFunc::Concat,
            args: vec![ScalarExpr::lit("a"), ScalarExpr::lit(1i64)],
        };
        assert_eq!(e.eval(&Row::empty()).unwrap(), Value::Str("a1".into()));
    }

    #[test]
    fn map_columns_shifts_references() {
        let e = b(ScalarExpr::col(0), BinOp::Eq, ScalarExpr::col(2));
        let shifted = e.map_columns(&|i| i + 5);
        let mut refs = Vec::new();
        shifted.referenced_columns(&mut refs);
        assert_eq!(refs, vec![5, 7]);
    }

    #[test]
    fn type_inference() {
        let input = [DataType::Int, DataType::Float, DataType::Timestamp];
        assert_eq!(
            b(ScalarExpr::col(0), BinOp::Add, ScalarExpr::col(1)).infer_type(&input),
            DataType::Float
        );
        assert_eq!(
            b(ScalarExpr::col(2), BinOp::Sub, ScalarExpr::col(2)).infer_type(&input),
            DataType::Duration
        );
        assert_eq!(
            b(ScalarExpr::col(0), BinOp::Lt, ScalarExpr::col(1)).infer_type(&input),
            DataType::Bool
        );
    }

    #[test]
    fn parameters_substitute_and_count() {
        let e = b(
            ScalarExpr::col(0),
            BinOp::Eq,
            ScalarExpr::Parameter(1),
        );
        assert_eq!(e.max_parameter(), Some(1));
        // Unbound parameters refuse to evaluate.
        assert!(e.eval(&row!(1i64)).is_err());
        // Too few bindings error; enough bindings substitute a literal.
        assert!(e.bind_params(&[Value::Int(5)]).is_err());
        let bound = e.bind_params(&[Value::Int(5), Value::Int(1)]).unwrap();
        assert_eq!(bound.max_parameter(), None);
        assert_eq!(bound.eval(&row!(1i64)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_bubbles_as_user_error() {
        let e = b(ScalarExpr::lit(1i64), BinOp::Div, ScalarExpr::lit(0i64));
        assert!(e.eval(&Row::empty()).unwrap_err().is_user_error());
    }
}
