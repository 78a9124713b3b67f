//! Abstract syntax tree for the supported SQL dialect.

use dt_common::{DataType, Duration};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...` (possibly a UNION ALL chain).
    Query(Query),
    /// `CREATE TABLE name (col type, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
        /// `OR REPLACE` was specified.
        or_replace: bool,
    },
    /// `CREATE VIEW name AS query`.
    CreateView {
        /// View name.
        name: String,
        /// Defining query.
        query: Query,
        /// `OR REPLACE` was specified.
        or_replace: bool,
    },
    /// `CREATE DYNAMIC TABLE name TARGET_LAG=... WAREHOUSE=... AS query`.
    CreateDynamicTable(CreateDynamicTable),
    /// `INSERT INTO name VALUES (...), ...` or `INSERT INTO name <query>`.
    Insert {
        /// Target table.
        table: String,
        /// Row-constructor values (if VALUES form).
        values: Vec<Vec<Expr>>,
        /// Source query (if query form).
        query: Option<Query>,
    },
    /// `DELETE FROM name [WHERE expr]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        predicate: Option<Expr>,
    },
    /// `UPDATE name SET col=expr, ... [WHERE expr]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional predicate.
        predicate: Option<Expr>,
    },
    /// `DROP TABLE|VIEW|DYNAMIC TABLE name`.
    Drop {
        /// Entity name.
        name: String,
    },
    /// `UNDROP TABLE name` (§3.4: recovery after upstream DDL).
    Undrop {
        /// Entity name.
        name: String,
    },
    /// `CREATE [DYNAMIC] TABLE name CLONE source` — zero-copy clone (§3.4).
    Clone {
        /// New entity name.
        name: String,
        /// Entity to clone.
        source: String,
    },
    /// `EXPLAIN <query>` — print the logical plan as it will run: bound,
    /// with filters pushed through joins and into the scans. Takes no `?`
    /// placeholders (a parameter is only pushed once a value is bound); to
    /// see a prepared statement's plan, EXPLAIN it with literals.
    Explain(Query),
    /// `SHOW DYNAMIC TABLES` — status of every DT.
    ShowDynamicTables,
    /// `SHOW STATS` — engine telemetry counters (commit + refresh
    /// pipelines) as `name`/`value` rows.
    ShowStats,
    /// `ALTER DYNAMIC TABLE name SUSPEND|RESUME|REFRESH`.
    AlterDynamicTable {
        /// DT name.
        name: String,
        /// The action.
        action: AlterDtAction,
    },
    /// `ALTER TABLE name SET LOCKING OPTIMISTIC|PESSIMISTIC|AUTO` —
    /// per-table concurrency-control override for the commit pipeline's
    /// admission locks.
    AlterTableLocking {
        /// Base-table name.
        name: String,
        /// The requested locking policy.
        policy: LockingPolicyOption,
    },
    /// `BEGIN [TRANSACTION]` / `START TRANSACTION` — open an explicit
    /// transaction on the session. Reads inside it are pinned to one
    /// snapshot; DML is buffered until `COMMIT`.
    Begin,
    /// `COMMIT` — atomically apply the session's buffered transaction
    /// under first-committer-wins validation.
    Commit,
    /// `ROLLBACK` — discard the session's buffered transaction.
    Rollback,
}

/// Locking policy named in `ALTER TABLE ... SET LOCKING`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockingPolicyOption {
    /// First-committer-wins: conflict-abort on contention.
    Optimistic,
    /// FIFO wait-queues: block on contention (bounded by the lock
    /// timeout).
    Pessimistic,
    /// Let the adaptive policy pick per observed abort rate (default).
    Auto,
}

/// Actions on `ALTER DYNAMIC TABLE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlterDtAction {
    /// Stop scheduling refreshes.
    Suspend,
    /// Resume scheduling refreshes (resets the error counter).
    Resume,
    /// Trigger a manual refresh (§3.2: data timestamp after the command).
    Refresh,
}

/// `CREATE DYNAMIC TABLE` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateDynamicTable {
    /// DT name.
    pub name: String,
    /// Target lag: a duration or DOWNSTREAM (§3.2).
    pub target_lag: TargetLag,
    /// Virtual warehouse executing refreshes (§3.3.1).
    pub warehouse: String,
    /// Requested refresh mode (§3.3.2). AUTO lets the system pick
    /// INCREMENTAL when the query is differentiable, FULL otherwise.
    pub refresh_mode: RefreshModeOption,
    /// Initialization: synchronous (ON_CREATE) or by the scheduler.
    pub initialize_on_create: bool,
    /// Defining query.
    pub query: Query,
    /// `OR REPLACE` was specified.
    pub or_replace: bool,
}

/// Target lag specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetLag {
    /// Keep lag below this duration.
    Duration(Duration),
    /// Align with the minimum target lag of downstream DTs (§3.2).
    Downstream,
}

/// Refresh mode requested at creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshModeOption {
    /// System decides (incremental when possible).
    Auto,
    /// Always recompute from scratch.
    Full,
    /// Require incremental; creation fails if not differentiable.
    Incremental,
}

/// A query: one or more SELECT blocks combined with UNION ALL.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The first SELECT block.
    pub select: SelectBlock,
    /// Additional blocks appended with UNION ALL.
    pub union_all: Vec<SelectBlock>,
    /// `FOR UPDATE`: inside an explicit transaction, pessimistically lock
    /// every scanned base table at read time (held until the transaction
    /// retires). Rejected outside a transaction and in subqueries.
    pub for_update: bool,
}

/// One SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectBlock {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause (None for `SELECT <exprs>` without FROM).
    pub from: Option<TableRef>,
    /// JOIN clauses, applied left to right.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys; `GroupBy::All` is Snowflake's `GROUP BY ALL`
    /// (group by every non-aggregate projection — used in Listing 1).
    pub group_by: GroupBy,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys (expr, descending).
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

/// GROUP BY clause.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupBy {
    /// No grouping.
    None,
    /// Explicit keys.
    Exprs(Vec<Expr>),
    /// `GROUP BY ALL`.
    All,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// Expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias` (or implicit trailing identifier alias).
        alias: Option<String>,
    },
}

/// A FROM-clause relation.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table/view/DT with optional alias.
    Named {
        /// Object name.
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// A parenthesized subquery with alias.
    Subquery {
        /// The inner query.
        query: Box<Query>,
        /// Alias (required).
        alias: String,
    },
}

impl TableRef {
    /// The name this relation binds in scope.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Named { name, alias } => alias.as_deref().unwrap_or(name),
            TableRef::Subquery { alias, .. } => alias,
        }
    }
}

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// INNER JOIN.
    Inner,
    /// LEFT OUTER JOIN.
    Left,
    /// RIGHT OUTER JOIN.
    Right,
    /// FULL OUTER JOIN.
    Full,
}

/// One JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join type.
    pub join_type: JoinType,
    /// Right-hand relation.
    pub relation: TableRef,
    /// ON condition.
    pub on: Expr,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// NULL literal.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    String(String),
    /// Interval literal, e.g. `INTERVAL '10 minutes'`.
    Interval(Duration),
    /// Positional `?` parameter placeholder (0-based, numbered left to
    /// right in parse order). Only meaningful inside prepared statements;
    /// bound to a concrete value at execute time.
    Placeholder(usize),
    /// Column reference, optionally qualified: `a.b` or `b`.
    Column {
        /// Table qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operator.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operator.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Operand.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
    },
    /// `CASE WHEN c THEN v ... [ELSE e] END`.
    Case {
        /// (condition, value) arms.
        when_then: Vec<(Expr, Expr)>,
        /// ELSE value.
        else_value: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)` or `expr::type`.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Target type.
        ty: DataType,
    },
    /// Function call (scalar or aggregate; the binder decides which).
    Function {
        /// Function name, lowercased.
        name: String,
        /// Arguments; `count(*)` is represented with `args == [Wildcard]`.
        args: Vec<FunctionArg>,
        /// `DISTINCT` inside the call (e.g. `count(distinct x)`).
        distinct: bool,
    },
    /// Window function: `func(args) OVER (PARTITION BY ... ORDER BY ...)`.
    WindowFunction {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<FunctionArg>,
        /// PARTITION BY keys.
        partition_by: Vec<Expr>,
        /// ORDER BY keys (expr, descending).
        order_by: Vec<(Expr, bool)>,
    },
}

/// Function argument.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionArg {
    /// `*` as in `count(*)`.
    Wildcard,
    /// Ordinary expression argument.
    Expr(Expr),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
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
    /// `<>` / `!=`
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

impl Expr {
    /// Visit this expression tree pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.walk(f)
            }
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between { expr, low, high } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Case {
                when_then,
                else_value,
            } => {
                for (c, v) in when_then {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = else_value {
                    e.walk(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    if let FunctionArg::Expr(e) = a {
                        e.walk(f);
                    }
                }
            }
            Expr::WindowFunction {
                args,
                partition_by,
                order_by,
                ..
            } => {
                for a in args {
                    if let FunctionArg::Expr(e) = a {
                        e.walk(f);
                    }
                }
                for e in partition_by {
                    e.walk(f);
                }
                for (e, _) in order_by {
                    e.walk(f);
                }
            }
            _ => {}
        }
    }

    /// True when this expression contains a window function anywhere.
    pub fn contains_window_function(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::WindowFunction { .. }) {
                found = true;
            }
        });
        found
    }
}

impl Query {
    /// Visit every expression in this query, including expressions inside
    /// joined relations and FROM-clause subqueries.
    pub fn walk_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for block in std::iter::once(&self.select).chain(self.union_all.iter()) {
            for item in &block.items {
                if let SelectItem::Expr { expr, .. } = item {
                    expr.walk(f);
                }
            }
            if let Some(r) = &block.from {
                walk_table_ref(r, f);
            }
            for j in &block.joins {
                walk_table_ref(&j.relation, f);
                j.on.walk(f);
            }
            if let Some(w) = &block.where_clause {
                w.walk(f);
            }
            if let GroupBy::Exprs(keys) = &block.group_by {
                for k in keys {
                    k.walk(f);
                }
            }
            if let Some(h) = &block.having {
                h.walk(f);
            }
            for (e, _) in &block.order_by {
                e.walk(f);
            }
        }
    }
}

fn walk_table_ref<'a>(r: &'a TableRef, f: &mut impl FnMut(&'a Expr)) {
    if let TableRef::Subquery { query, .. } = r {
        query.walk_exprs(f);
    }
}

impl Statement {
    /// Visit every expression in this statement, wherever it appears.
    pub fn walk_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Statement::Query(q) | Statement::Explain(q) => q.walk_exprs(f),
            Statement::CreateView { query, .. } => query.walk_exprs(f),
            Statement::CreateDynamicTable(cdt) => cdt.query.walk_exprs(f),
            Statement::Insert { values, query, .. } => {
                for row in values {
                    for e in row {
                        e.walk(f);
                    }
                }
                if let Some(q) = query {
                    q.walk_exprs(f);
                }
            }
            Statement::Delete { predicate, .. } => {
                if let Some(p) = predicate {
                    p.walk(f);
                }
            }
            Statement::Update {
                assignments,
                predicate,
                ..
            } => {
                for (_, e) in assignments {
                    e.walk(f);
                }
                if let Some(p) = predicate {
                    p.walk(f);
                }
            }
            Statement::CreateTable { .. }
            | Statement::Drop { .. }
            | Statement::Undrop { .. }
            | Statement::Clone { .. }
            | Statement::ShowDynamicTables
            | Statement::ShowStats
            | Statement::AlterDynamicTable { .. }
            | Statement::AlterTableLocking { .. }
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback => {}
        }
    }

    /// Number of `?` placeholders in this statement (placeholders are
    /// numbered contiguously by the parser, so the count is `max + 1`).
    pub fn placeholder_count(&self) -> usize {
        let mut max: Option<usize> = None;
        self.walk_exprs(&mut |e| {
            if let Expr::Placeholder(i) = e {
                max = Some(max.map_or(*i, |m| m.max(*i)));
            }
        });
        max.map_or(0, |m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_nested_expressions() {
        let e = Expr::Binary {
            left: Box::new(Expr::Column {
                qualifier: None,
                name: "a".into(),
            }),
            op: BinaryOp::Add,
            right: Box::new(Expr::Case {
                when_then: vec![(Expr::Bool(true), Expr::Int(1))],
                else_value: Some(Box::new(Expr::Int(2))),
            }),
        };
        // Binary + Column + Case + condition + value + else = 6 nodes.
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 6);
    }

    #[test]
    fn window_function_detection() {
        let w = Expr::WindowFunction {
            name: "sum".into(),
            args: vec![FunctionArg::Expr(Expr::Int(1))],
            partition_by: vec![],
            order_by: vec![],
        };
        assert!(w.contains_window_function());
        assert!(!Expr::Int(1).contains_window_function());
    }

    #[test]
    fn placeholder_count_walks_every_clause() {
        let q = Query {
            select: SelectBlock {
                distinct: false,
                items: vec![SelectItem::Expr {
                    expr: Expr::Placeholder(1),
                    alias: None,
                }],
                from: None,
                joins: vec![],
                where_clause: Some(Expr::Binary {
                    left: Box::new(Expr::Column {
                        qualifier: None,
                        name: "k".into(),
                    }),
                    op: BinaryOp::Eq,
                    right: Box::new(Expr::Placeholder(0)),
                }),
                group_by: GroupBy::None,
                having: None,
                order_by: vec![],
                limit: None,
            },
            union_all: vec![],
            for_update: false,
        };
        assert_eq!(Statement::Query(q).placeholder_count(), 2);
        let none = Statement::ShowDynamicTables;
        assert_eq!(none.placeholder_count(), 0);
    }

    #[test]
    fn table_ref_binding_names() {
        let t = TableRef::Named {
            name: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.binding_name(), "o");
        let t2 = TableRef::Named {
            name: "orders".into(),
            alias: None,
        };
        assert_eq!(t2.binding_name(), "orders");
    }
}
