//! Recursive-descent parser.

use dt_common::{DataType, DtError, DtResult, Duration, TargetLag};

use crate::ast::*;
use crate::lexer::{Symbol, Token, TokenKind};

/// Parse one statement (convenience wrapper used by tests).
pub fn parse_statement(tokens: Vec<Token>) -> DtResult<Statement> {
    Parser::new(tokens).parse_single()
}

/// The parser state: a token stream and a cursor.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Number of `?` placeholders seen so far; each placeholder takes the
    /// next index in parse order.
    placeholders: usize,
}

impl Parser {
    /// Build over a token stream (must end with Eof).
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            placeholders: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> DtError {
        DtError::Parse {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn advance(&mut self) -> TokenKind {
        let k = self.tokens[self.pos.min(self.tokens.len() - 1)].kind.clone();
        self.pos += 1;
        k
    }

    /// Consume a keyword (identifier with the given lowercase text).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let TokenKind::Ident(w) = self.peek() {
            if w == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(w) if w == kw)
    }

    fn expect_kw(&mut self, kw: &str) -> DtResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {}", kw.to_uppercase())))
        }
    }

    fn eat_sym(&mut self, s: Symbol) -> bool {
        if self.peek() == &TokenKind::Symbol(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Symbol) -> DtResult<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn expect_ident(&mut self) -> DtResult<String> {
        match self.advance() {
            TokenKind::Ident(w) => Ok(w),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_string(&mut self) -> DtResult<String> {
        match self.advance() {
            TokenKind::StringLit(s) => Ok(s),
            other => Err(self.err(format!("expected string literal, found {other:?}"))),
        }
    }

    /// Parse exactly one statement, consuming an optional trailing `;`.
    pub fn parse_single(&mut self) -> DtResult<Statement> {
        let stmt = self.parse_statement()?;
        self.eat_sym(Symbol::Semicolon);
        if self.peek() != &TokenKind::Eof {
            return Err(self.err("unexpected trailing tokens"));
        }
        Ok(stmt)
    }

    fn parse_statement(&mut self) -> DtResult<Statement> {
        if self.peek_kw("select") {
            return Ok(Statement::Query(self.parse_query()?));
        }
        if self.eat_kw("explain") {
            return Ok(Statement::Explain(self.parse_query()?));
        }
        if self.eat_kw("show") {
            if self.eat_kw("stats") {
                return Ok(Statement::ShowStats);
            }
            self.expect_kw("dynamic")?;
            self.expect_kw("tables")?;
            return Ok(Statement::ShowDynamicTables);
        }
        if self.eat_kw("create") {
            return self.parse_create();
        }
        if self.eat_kw("insert") {
            return self.parse_insert();
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.expect_ident()?;
            let predicate = if self.eat_kw("where") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, predicate });
        }
        if self.eat_kw("update") {
            let table = self.expect_ident()?;
            self.expect_kw("set")?;
            let mut assignments = Vec::new();
            loop {
                let col = self.expect_ident()?;
                self.expect_sym(Symbol::Eq)?;
                let value = self.parse_expr()?;
                assignments.push((col, value));
                if !self.eat_sym(Symbol::Comma) {
                    break;
                }
            }
            let predicate = if self.eat_kw("where") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                assignments,
                predicate,
            });
        }
        if self.eat_kw("drop") {
            // DROP [DYNAMIC] TABLE name | DROP VIEW name
            self.eat_kw("dynamic");
            if !self.eat_kw("table") {
                self.expect_kw("view")?;
            }
            let name = self.expect_ident()?;
            return Ok(Statement::Drop { name });
        }
        if self.eat_kw("undrop") {
            self.eat_kw("dynamic");
            self.expect_kw("table")?;
            let name = self.expect_ident()?;
            return Ok(Statement::Undrop { name });
        }
        if self.eat_kw("begin") {
            // BEGIN [TRANSACTION | WORK]
            if !self.eat_kw("transaction") {
                self.eat_kw("work");
            }
            return Ok(Statement::Begin);
        }
        if self.eat_kw("start") {
            self.expect_kw("transaction")?;
            return Ok(Statement::Begin);
        }
        if self.eat_kw("commit") {
            self.eat_kw("transaction");
            return Ok(Statement::Commit);
        }
        if self.eat_kw("rollback") {
            self.eat_kw("transaction");
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("alter") {
            // ALTER TABLE name SET LOCKING OPTIMISTIC|PESSIMISTIC|AUTO
            if self.eat_kw("table") {
                let name = self.expect_ident()?;
                self.expect_kw("set")?;
                self.expect_kw("locking")?;
                let policy = if self.eat_kw("optimistic") {
                    LockingPolicyOption::Optimistic
                } else if self.eat_kw("pessimistic") {
                    LockingPolicyOption::Pessimistic
                } else if self.eat_kw("auto") {
                    LockingPolicyOption::Auto
                } else {
                    return Err(self.err("expected OPTIMISTIC, PESSIMISTIC, or AUTO"));
                };
                return Ok(Statement::AlterTableLocking { name, policy });
            }
            self.expect_kw("dynamic")?;
            self.expect_kw("table")?;
            let name = self.expect_ident()?;
            let action = if self.eat_kw("suspend") {
                AlterDtAction::Suspend
            } else if self.eat_kw("resume") {
                AlterDtAction::Resume
            } else if self.eat_kw("refresh") {
                AlterDtAction::Refresh
            } else {
                return Err(self.err("expected SUSPEND, RESUME, or REFRESH"));
            };
            return Ok(Statement::AlterDynamicTable { name, action });
        }
        Err(self.err("expected a statement"))
    }

    fn parse_create(&mut self) -> DtResult<Statement> {
        let or_replace = if self.eat_kw("or") {
            self.expect_kw("replace")?;
            true
        } else {
            false
        };
        if self.eat_kw("dynamic") {
            self.expect_kw("table")?;
            // CREATE DYNAMIC TABLE name CLONE source
            if matches!(self.peek2(), TokenKind::Ident(w) if w == "clone") {
                let name = self.expect_ident()?;
                self.expect_kw("clone")?;
                let source = self.expect_ident()?;
                return Ok(Statement::Clone { name, source });
            }
            return self.parse_create_dynamic_table(or_replace);
        }
        if self.eat_kw("table") {
            // CREATE TABLE name CLONE source
            if matches!(self.peek2(), TokenKind::Ident(w) if w == "clone") {
                let name = self.expect_ident()?;
                self.expect_kw("clone")?;
                let source = self.expect_ident()?;
                return Ok(Statement::Clone { name, source });
            }
            let name = self.expect_ident()?;
            self.expect_sym(Symbol::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col = self.expect_ident()?;
                let ty_name = self.expect_ident()?;
                columns.push((col, DataType::parse(&ty_name)?));
                if !self.eat_sym(Symbol::Comma) {
                    break;
                }
            }
            self.expect_sym(Symbol::RParen)?;
            return Ok(Statement::CreateTable {
                name,
                columns,
                or_replace,
            });
        }
        if self.eat_kw("view") {
            let name = self.expect_ident()?;
            self.expect_kw("as")?;
            let query = self.parse_query()?;
            return Ok(Statement::CreateView {
                name,
                query,
                or_replace,
            });
        }
        Err(self.err("expected TABLE, VIEW, or DYNAMIC TABLE"))
    }

    fn parse_create_dynamic_table(&mut self, or_replace: bool) -> DtResult<Statement> {
        let name = self.expect_ident()?;
        let mut target_lag = None;
        let mut warehouse = None;
        let mut refresh_mode = RefreshModeOption::Auto;
        let mut initialize_on_create = true;
        loop {
            if self.eat_kw("target_lag") {
                self.expect_sym(Symbol::Eq)?;
                target_lag = Some(if self.eat_kw("downstream") {
                    TargetLag::Downstream
                } else {
                    let s = self.expect_string()?;
                    TargetLag::Duration(Duration::parse(&s).map_err(|m| self.err(m))?)
                });
            } else if self.eat_kw("warehouse") || self.eat_kw("warheouse") {
                // "WARHEOUSE" appears verbatim in the paper's Listing 1;
                // accept the typo for fidelity.
                self.expect_sym(Symbol::Eq)?;
                warehouse = Some(self.expect_ident()?);
            } else if self.eat_kw("refresh_mode") {
                self.expect_sym(Symbol::Eq)?;
                let m = self.expect_ident()?;
                refresh_mode = match m.as_str() {
                    "auto" => RefreshModeOption::Auto,
                    "full" => RefreshModeOption::Full,
                    "incremental" => RefreshModeOption::Incremental,
                    other => return Err(self.err(format!("unknown refresh mode '{other}'"))),
                };
            } else if self.eat_kw("initialize") {
                self.expect_sym(Symbol::Eq)?;
                let m = self.expect_ident()?;
                initialize_on_create = match m.as_str() {
                    "on_create" => true,
                    "on_schedule" => false,
                    other => return Err(self.err(format!("unknown initialize option '{other}'"))),
                };
            } else {
                break;
            }
        }
        self.expect_kw("as")?;
        let query = self.parse_query()?;
        let target_lag = target_lag.ok_or_else(|| self.err("TARGET_LAG is required"))?;
        let warehouse = warehouse.ok_or_else(|| self.err("WAREHOUSE is required"))?;
        Ok(Statement::CreateDynamicTable(CreateDynamicTable {
            name,
            target_lag,
            warehouse,
            refresh_mode,
            initialize_on_create,
            query,
            or_replace,
        }))
    }

    fn parse_insert(&mut self) -> DtResult<Statement> {
        self.expect_kw("into")?;
        let table = self.expect_ident()?;
        if self.eat_kw("values") {
            let mut values = Vec::new();
            loop {
                self.expect_sym(Symbol::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_sym(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_sym(Symbol::RParen)?;
                values.push(row);
                if !self.eat_sym(Symbol::Comma) {
                    break;
                }
            }
            return Ok(Statement::Insert {
                table,
                values,
                query: None,
            });
        }
        let query = self.parse_query()?;
        Ok(Statement::Insert {
            table,
            values: vec![],
            query: Some(query),
        })
    }

    /// Parse a query: SELECT block (UNION ALL SELECT block)*.
    pub fn parse_query(&mut self) -> DtResult<Query> {
        let select = self.parse_select_block()?;
        let mut union_all = Vec::new();
        while self.peek_kw("union") {
            self.advance();
            self.expect_kw("all")?;
            union_all.push(self.parse_select_block()?);
        }
        let for_update = if self.eat_kw("for") {
            self.expect_kw("update")?;
            true
        } else {
            false
        };
        Ok(Query {
            select,
            union_all,
            for_update,
        })
    }

    fn parse_select_block(&mut self) -> DtResult<SelectBlock> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_sym(Symbol::Comma) {
                break;
            }
        }
        let mut from = None;
        let mut joins = Vec::new();
        if self.eat_kw("from") {
            from = Some(self.parse_table_ref()?);
            loop {
                let join_type = if self.eat_kw("join") || self.eat_kw("inner") {
                    if self.peek_kw("join") {
                        self.advance();
                    }
                    JoinType::Inner
                } else if self.eat_kw("left") {
                    self.eat_kw("outer");
                    self.expect_kw("join")?;
                    JoinType::Left
                } else if self.eat_kw("right") {
                    self.eat_kw("outer");
                    self.expect_kw("join")?;
                    JoinType::Right
                } else if self.eat_kw("full") {
                    self.eat_kw("outer");
                    self.expect_kw("join")?;
                    JoinType::Full
                } else {
                    break;
                };
                let relation = self.parse_table_ref()?;
                self.expect_kw("on")?;
                let on = self.parse_expr()?;
                joins.push(Join {
                    join_type,
                    relation,
                    on,
                });
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            if self.eat_kw("all") {
                GroupBy::All
            } else {
                let mut keys = Vec::new();
                loop {
                    keys.push(self.parse_expr()?);
                    if !self.eat_sym(Symbol::Comma) {
                        break;
                    }
                }
                GroupBy::Exprs(keys)
            }
        } else {
            GroupBy::None
        };
        let having = if self.eat_kw("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.parse_expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_sym(Symbol::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.advance() {
                TokenKind::IntLit(n) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("expected nonnegative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectBlock {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_select_item(&mut self) -> DtResult<SelectItem> {
        if self.eat_sym(Symbol::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* form
        if let (TokenKind::Ident(q), TokenKind::Symbol(Symbol::Dot)) = (self.peek(), self.peek2()) {
            if self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::Symbol(Symbol::Star))
            {
                let q = q.clone();
                self.pos += 3;
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.expect_ident()?)
        } else if let TokenKind::Ident(w) = self.peek() {
            // Implicit alias: a bare identifier that is not a clause keyword.
            const CLAUSE_KWS: &[&str] = &[
                "from", "where", "group", "having", "order", "limit", "union", "join", "inner",
                "left", "right", "full", "on", "as", "and", "or", "not", "between", "in", "is",
                "when", "then", "else", "end", "asc", "desc", "for",
            ];
            if CLAUSE_KWS.contains(&w.as_str()) {
                None
            } else {
                let w = w.clone();
                self.pos += 1;
                Some(w)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> DtResult<TableRef> {
        if self.eat_sym(Symbol::LParen) {
            let query = self.parse_query()?;
            if query.for_update {
                return Err(self.err(
                    "FOR UPDATE is not allowed in a subquery; apply it to the \
                     outer query",
                ));
            }
            self.expect_sym(Symbol::RParen)?;
            self.eat_kw("as");
            let alias = self.expect_ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.expect_ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.expect_ident()?)
        } else if let TokenKind::Ident(w) = self.peek() {
            const CLAUSE_KWS: &[&str] = &[
                "join", "inner", "left", "right", "full", "on", "where", "group", "having",
                "order", "limit", "union", "for",
            ];
            if CLAUSE_KWS.contains(&w.as_str()) {
                None
            } else {
                let w = w.clone();
                self.pos += 1;
                Some(w)
            }
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    /// Expression precedence: OR < AND < NOT < comparison < additive <
    /// multiplicative < unary minus < postfix `::type` < primary.
    pub fn parse_expr(&mut self) -> DtResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> DtResult<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            let right = self.parse_and()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> DtResult<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            let right = self.parse_not()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> DtResult<Expr> {
        if self.eat_kw("not") {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> DtResult<Expr> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN / BETWEEN
        let negated = if self.peek_kw("not")
            && matches!(self.peek2(), TokenKind::Ident(w) if w == "in" || w == "between")
        {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw("in") {
            self.expect_sym(Symbol::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_sym(Symbol::Comma) {
                    break;
                }
            }
            self.expect_sym(Symbol::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("between") {
            let low = self.parse_additive()?;
            self.expect_kw("and")?;
            let high = self.parse_additive()?;
            let between = Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(between),
                }
            } else {
                between
            });
        }
        let op = match self.peek() {
            TokenKind::Symbol(Symbol::Eq) => BinaryOp::Eq,
            TokenKind::Symbol(Symbol::NotEq) => BinaryOp::NotEq,
            TokenKind::Symbol(Symbol::Lt) => BinaryOp::Lt,
            TokenKind::Symbol(Symbol::LtEq) => BinaryOp::LtEq,
            TokenKind::Symbol(Symbol::Gt) => BinaryOp::Gt,
            TokenKind::Symbol(Symbol::GtEq) => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_additive()?;
        Ok(Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn parse_additive(&mut self) -> DtResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol(Symbol::Plus) => BinaryOp::Add,
                TokenKind::Symbol(Symbol::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> DtResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol(Symbol::Star) => BinaryOp::Mul,
                TokenKind::Symbol(Symbol::Slash) => BinaryOp::Div,
                TokenKind::Symbol(Symbol::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> DtResult<Expr> {
        if self.eat_sym(Symbol::Minus) {
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> DtResult<Expr> {
        let mut e = self.parse_primary()?;
        while self.eat_sym(Symbol::DoubleColon) {
            let ty = DataType::parse(&self.expect_ident()?)?;
            e = Expr::Cast {
                expr: Box::new(e),
                ty,
            };
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> DtResult<Expr> {
        match self.advance() {
            TokenKind::IntLit(n) => Ok(Expr::Int(n)),
            TokenKind::FloatLit(f) => Ok(Expr::Float(f)),
            TokenKind::StringLit(s) => Ok(Expr::String(s)),
            TokenKind::Symbol(Symbol::LParen) => {
                let e = self.parse_expr()?;
                self.expect_sym(Symbol::RParen)?;
                Ok(e)
            }
            TokenKind::Symbol(Symbol::Question) => {
                let idx = self.placeholders;
                self.placeholders += 1;
                Ok(Expr::Placeholder(idx))
            }
            TokenKind::Ident(word) => self.parse_ident_expr(word),
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }

    fn parse_ident_expr(&mut self, word: String) -> DtResult<Expr> {
        match word.as_str() {
            "null" => return Ok(Expr::Null),
            "true" => return Ok(Expr::Bool(true)),
            "false" => return Ok(Expr::Bool(false)),
            "interval" => {
                let s = self.expect_string()?;
                let d = Duration::parse(&s).map_err(|m| self.err(m))?;
                return Ok(Expr::Interval(d));
            }
            "cast" => {
                self.expect_sym(Symbol::LParen)?;
                let e = self.parse_expr()?;
                self.expect_kw("as")?;
                let ty = DataType::parse(&self.expect_ident()?)?;
                self.expect_sym(Symbol::RParen)?;
                return Ok(Expr::Cast {
                    expr: Box::new(e),
                    ty,
                });
            }
            "case" => {
                let mut when_then = Vec::new();
                while self.eat_kw("when") {
                    let c = self.parse_expr()?;
                    self.expect_kw("then")?;
                    let v = self.parse_expr()?;
                    when_then.push((c, v));
                }
                let else_value = if self.eat_kw("else") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_kw("end")?;
                if when_then.is_empty() {
                    return Err(self.err("CASE requires at least one WHEN arm"));
                }
                return Ok(Expr::Case {
                    when_then,
                    else_value,
                });
            }
            _ => {}
        }
        // Function call?
        if self.peek() == &TokenKind::Symbol(Symbol::LParen) {
            self.advance();
            let distinct = self.eat_kw("distinct");
            let mut args = Vec::new();
            if self.peek() != &TokenKind::Symbol(Symbol::RParen) {
                loop {
                    if self.eat_sym(Symbol::Star) {
                        args.push(FunctionArg::Wildcard);
                    } else {
                        args.push(FunctionArg::Expr(self.parse_expr()?));
                    }
                    if !self.eat_sym(Symbol::Comma) {
                        break;
                    }
                }
            }
            self.expect_sym(Symbol::RParen)?;
            // OVER clause → window function.
            if self.eat_kw("over") {
                self.expect_sym(Symbol::LParen)?;
                let mut partition_by = Vec::new();
                let mut order_by = Vec::new();
                if self.eat_kw("partition") {
                    self.expect_kw("by")?;
                    loop {
                        partition_by.push(self.parse_expr()?);
                        if !self.eat_sym(Symbol::Comma) {
                            break;
                        }
                    }
                }
                if self.eat_kw("order") {
                    self.expect_kw("by")?;
                    loop {
                        let e = self.parse_expr()?;
                        let desc = if self.eat_kw("desc") {
                            true
                        } else {
                            self.eat_kw("asc");
                            false
                        };
                        order_by.push((e, desc));
                        if !self.eat_sym(Symbol::Comma) {
                            break;
                        }
                    }
                }
                self.expect_sym(Symbol::RParen)?;
                if distinct {
                    return Err(self.err("DISTINCT is not supported in window functions"));
                }
                return Ok(Expr::WindowFunction {
                    name: word,
                    args,
                    partition_by,
                    order_by,
                });
            }
            return Ok(Expr::Function {
                name: word,
                args,
                distinct,
            });
        }
        // Qualified column: a.b
        if self.peek() == &TokenKind::Symbol(Symbol::Dot) {
            self.advance();
            let col = self.expect_ident()?;
            return Ok(Expr::Column {
                qualifier: Some(word),
                name: col,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name: word,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(sql: &str) -> Statement {
        Parser::new(tokenize(sql).unwrap()).parse_single().unwrap()
    }

    fn parse_err(sql: &str) -> DtError {
        Parser::new(tokenize(sql).unwrap())
            .parse_single()
            .unwrap_err()
    }

    #[test]
    fn simple_select() {
        let s = parse("SELECT a, b + 1 AS c FROM t WHERE a > 2;");
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.select.items.len(), 2);
        assert!(q.select.where_clause.is_some());
        assert!(q.union_all.is_empty());
    }

    #[test]
    fn joins_of_all_types() {
        let s = parse(
            "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y \
             RIGHT OUTER JOIN d ON c.z = d.z FULL OUTER JOIN e ON d.w = e.w",
        );
        let Statement::Query(q) = s else { panic!() };
        let types: Vec<_> = q.select.joins.iter().map(|j| j.join_type).collect();
        assert_eq!(
            types,
            vec![JoinType::Inner, JoinType::Left, JoinType::Right, JoinType::Full]
        );
    }

    #[test]
    fn group_by_all_and_having() {
        let s = parse("SELECT k, count(*) c FROM t GROUP BY ALL HAVING count(*) > 1");
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.select.group_by, GroupBy::All);
        assert!(q.select.having.is_some());
    }

    #[test]
    fn union_all_chain() {
        let s = parse("SELECT a FROM t UNION ALL SELECT a FROM u UNION ALL SELECT a FROM v");
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.union_all.len(), 2);
    }

    #[test]
    fn window_function() {
        let s = parse("SELECT sum(x) OVER (PARTITION BY k ORDER BY ts DESC) FROM t");
        let Statement::Query(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.select.items[0] else {
            panic!()
        };
        let Expr::WindowFunction {
            partition_by,
            order_by,
            ..
        } = expr
        else {
            panic!("expected window function, got {expr:?}")
        };
        assert_eq!(partition_by.len(), 1);
        assert!(order_by[0].1, "DESC flag");
    }

    #[test]
    fn create_dynamic_table_listing_1() {
        // Second DT of the paper's Listing 1 (adapted: variant paths become
        // plain columns).
        let s = parse(
            "CREATE DYNAMIC TABLE delayed_trains \
             TARGET_LAG = '1 minute' \
             WAREHOUSE = trains_wh \
             AS SELECT train_id, \
                date_trunc('hour', s.expected_arrival_time) hour, \
                count_if(arrival_time - s.expected_arrival_time > INTERVAL '10 minutes') num_delays \
             FROM train_arrivals a \
             JOIN schedule s ON a.schedule_id = s.id \
             GROUP BY ALL;",
        );
        let Statement::CreateDynamicTable(dt) = s else {
            panic!()
        };
        assert_eq!(dt.name, "delayed_trains");
        assert_eq!(
            dt.target_lag,
            TargetLag::Duration(Duration::from_mins(1))
        );
        assert_eq!(dt.warehouse, "trains_wh");
        assert_eq!(dt.query.select.joins.len(), 1);
    }

    #[test]
    fn create_dynamic_table_downstream_and_typo() {
        let s = parse(
            "CREATE DYNAMIC TABLE t TARGET_LAG = DOWNSTREAM WARHEOUSE = wh AS SELECT 1 x",
        );
        let Statement::CreateDynamicTable(dt) = s else {
            panic!()
        };
        assert_eq!(dt.target_lag, TargetLag::Downstream);
    }

    #[test]
    fn create_dt_requires_lag_and_warehouse() {
        let e = parse_err("CREATE DYNAMIC TABLE t WAREHOUSE = wh AS SELECT 1 x");
        assert!(matches!(e, DtError::Parse { .. }));
        let e = parse_err("CREATE DYNAMIC TABLE t TARGET_LAG = '1 minute' AS SELECT 1 x");
        assert!(matches!(e, DtError::Parse { .. }));
    }

    #[test]
    fn insert_values_and_query_forms() {
        let s = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')");
        let Statement::Insert { values, query, .. } = s else {
            panic!()
        };
        assert_eq!(values.len(), 2);
        assert!(query.is_none());

        let s = parse("INSERT INTO t SELECT * FROM u");
        let Statement::Insert { values, query, .. } = s else {
            panic!()
        };
        assert!(values.is_empty());
        assert!(query.is_some());
    }

    #[test]
    fn update_and_delete() {
        let s = parse("UPDATE t SET a = a + 1, b = 'x' WHERE a < 10");
        let Statement::Update { assignments, .. } = s else {
            panic!()
        };
        assert_eq!(assignments.len(), 2);

        let s = parse("DELETE FROM t WHERE a = 1");
        assert!(matches!(s, Statement::Delete { .. }));
        let s = parse("DELETE FROM t");
        let Statement::Delete { predicate, .. } = s else {
            panic!()
        };
        assert!(predicate.is_none());
    }

    #[test]
    fn alter_dynamic_table_actions() {
        for (sql, action) in [
            ("ALTER DYNAMIC TABLE t SUSPEND", AlterDtAction::Suspend),
            ("ALTER DYNAMIC TABLE t RESUME", AlterDtAction::Resume),
            ("ALTER DYNAMIC TABLE t REFRESH", AlterDtAction::Refresh),
        ] {
            let s = parse(sql);
            let Statement::AlterDynamicTable { action: a, .. } = s else {
                panic!()
            };
            assert_eq!(a, action);
        }
    }

    #[test]
    fn expression_precedence() {
        let s = parse("SELECT 1 + 2 * 3 = 7 AND true OR false");
        let Statement::Query(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.select.items[0] else {
            panic!()
        };
        // Top must be OR.
        assert!(matches!(
            expr,
            Expr::Binary {
                op: BinaryOp::Or,
                ..
            }
        ));
    }

    #[test]
    fn between_in_isnull_case() {
        parse("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1,2,3) AND c IS NOT NULL");
        parse("SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t");
        parse("SELECT * FROM t WHERE a NOT IN (1, 2)");
    }

    #[test]
    fn double_colon_cast() {
        let s = parse("SELECT x::float FROM t");
        let Statement::Query(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.select.items[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Cast { .. }));
    }

    #[test]
    fn subquery_in_from() {
        let s = parse("SELECT y FROM (SELECT x AS y FROM t) AS sub WHERE y > 0");
        let Statement::Query(q) = s else { panic!() };
        assert!(matches!(q.select.from, Some(TableRef::Subquery { .. })));
    }

    #[test]
    fn placeholders_number_left_to_right() {
        let s = parse("SELECT k + ? FROM t WHERE v BETWEEN ? AND ?");
        assert_eq!(s.placeholder_count(), 3);
        let Statement::Query(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.select.items[0] else {
            panic!()
        };
        let Expr::Binary { right, .. } = expr else { panic!() };
        assert_eq!(**right, Expr::Placeholder(0));
    }

    #[test]
    fn placeholders_in_insert_values() {
        let s = parse("INSERT INTO t VALUES (?, ?), (?, 4)");
        assert_eq!(s.placeholder_count(), 3);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let e = parse_err("SELECT 1 x SELECT");
        assert!(matches!(e, DtError::Parse { .. }));
    }

    #[test]
    fn drop_and_undrop() {
        assert!(matches!(parse("DROP TABLE t"), Statement::Drop { .. }));
        assert!(matches!(
            parse("DROP DYNAMIC TABLE t"),
            Statement::Drop { .. }
        ));
        assert!(matches!(parse("UNDROP TABLE t"), Statement::Undrop { .. }));
    }

    #[test]
    fn order_by_and_limit() {
        let s = parse("SELECT a FROM t ORDER BY a DESC, b LIMIT 10");
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.select.order_by.len(), 2);
        assert!(q.select.order_by[0].1);
        assert!(!q.select.order_by[1].1);
        assert_eq!(q.select.limit, Some(10));
    }

    #[test]
    fn transaction_control_statements() {
        assert_eq!(parse("BEGIN"), Statement::Begin);
        assert_eq!(parse("BEGIN TRANSACTION"), Statement::Begin);
        assert_eq!(parse("begin work;"), Statement::Begin);
        assert_eq!(parse("START TRANSACTION"), Statement::Begin);
        assert_eq!(parse("COMMIT"), Statement::Commit);
        assert_eq!(parse("COMMIT TRANSACTION"), Statement::Commit);
        assert_eq!(parse("ROLLBACK"), Statement::Rollback);
        assert_eq!(parse("rollback transaction"), Statement::Rollback);
        // START without TRANSACTION is not a statement.
        assert!(matches!(parse_err("START"), DtError::Parse { .. }));
        // Trailing garbage is still rejected.
        assert!(matches!(parse_err("BEGIN COMMIT"), DtError::Parse { .. }));
    }

    #[test]
    fn select_for_update() {
        let s = parse("SELECT * FROM t WHERE k = 1 FOR UPDATE");
        let Statement::Query(q) = s else { panic!() };
        assert!(q.for_update);
        // Without the clause the flag stays clear, and `for` is not
        // swallowed as an implicit alias.
        let s = parse("SELECT a FROM t ORDER BY a LIMIT 1 FOR UPDATE;");
        let Statement::Query(q) = s else { panic!() };
        assert!(q.for_update);
        assert_eq!(q.select.limit, Some(1));
        let s = parse("SELECT a FROM t");
        let Statement::Query(q) = s else { panic!() };
        assert!(!q.for_update);
        // FOR must be followed by UPDATE.
        assert!(matches!(parse_err("SELECT a FROM t FOR"), DtError::Parse { .. }));
        // Not allowed inside a FROM-clause subquery.
        let e = parse_err("SELECT * FROM (SELECT a FROM t FOR UPDATE) s");
        assert!(matches!(e, DtError::Parse { .. }));
        assert!(e.to_string().contains("subquery"), "{e}");
    }

    #[test]
    fn alter_table_set_locking() {
        for (sql, policy) in [
            ("ALTER TABLE t SET LOCKING OPTIMISTIC", LockingPolicyOption::Optimistic),
            ("ALTER TABLE t SET LOCKING PESSIMISTIC", LockingPolicyOption::Pessimistic),
            ("alter table t set locking auto;", LockingPolicyOption::Auto),
        ] {
            let s = parse(sql);
            let Statement::AlterTableLocking { name, policy: p } = s else {
                panic!("expected AlterTableLocking for {sql}")
            };
            assert_eq!(name, "t");
            assert_eq!(p, policy);
        }
        assert!(matches!(
            parse_err("ALTER TABLE t SET LOCKING SOMETIMES"),
            DtError::Parse { .. }
        ));
        // The DT form still parses.
        assert!(matches!(
            parse("ALTER DYNAMIC TABLE t SUSPEND"),
            Statement::AlterDynamicTable { .. }
        ));
    }

    #[test]
    fn count_star_and_distinct() {
        let s = parse("SELECT count(*), count(DISTINCT x) FROM t");
        let Statement::Query(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.select.items[1] else {
            panic!()
        };
        let Expr::Function { distinct, .. } = expr else {
            panic!()
        };
        assert!(distinct);
    }
}
