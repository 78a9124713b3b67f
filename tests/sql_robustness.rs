//! Robustness: the SQL front end must never panic — any byte soup either
//! parses or returns a structured error (user errors fail a single
//! statement or refresh, never the process; §3.3.3's error model depends
//! on this).

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(s in "\\PC{0,120}") {
        let _ = dt_sql::parse(&s);
    }

    #[test]
    fn arbitrary_token_soup_never_panics(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "select", "from", "where", "group", "by", "join", "on", "(", ")",
                "1", "'x'", "+", "*", ",", "a", "b", "count", "over", "partition",
                "union", "all", "order", "limit", "case", "when", "then", "end",
                "create", "dynamic", "table", "as", "::", "int", "not", "in",
            ]),
            0..25,
        )
    ) {
        let sql = words.join(" ");
        let _ = dt_sql::parse(&sql);
    }

    /// Statements that do parse can be fed to a database without panics.
    #[test]
    fn parsed_statements_execute_or_error_cleanly(
        n in 0..1000i64,
        name in "[a-z]{1,8}",
    ) {
        let engine = dt_core::Engine::new(dt_core::DbConfig::default());
        engine.create_warehouse("wh", 1).unwrap();
        let db = engine.session();
        // These may succeed or fail (unknown tables etc.) but never panic.
        let _ = db.execute(&format!("CREATE TABLE {name} (x INT)"));
        let _ = db.execute(&format!("INSERT INTO {name} VALUES ({n})"));
        let _ = db.execute(&format!("SELECT x + {n} FROM {name}"));
        let _ = db.execute(&format!("SELECT * FROM missing_{name}"));
        let _ = db.execute(&format!(
            "CREATE DYNAMIC TABLE d_{name} TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT x FROM {name}"
        ));
        let _ = db.execute(&format!("DELETE FROM {name} WHERE x = {n}"));
        let _ = db.execute(&format!("DROP TABLE {name}"));
    }
}

#[test]
fn malformed_placeholder_usage_errors_cleanly() {
    use dt_common::Value;
    let engine = dt_core::Engine::new(dt_core::DbConfig::default());
    engine.create_warehouse("wh", 1).unwrap();
    let session = engine.session();
    session.execute("CREATE TABLE t (k INT)").unwrap();
    session.execute("INSERT INTO t VALUES (1)").unwrap();

    // `?` outside a prepared statement is rejected up front.
    let err = session.execute("SELECT * FROM t WHERE k = ?").unwrap_err();
    assert!(matches!(err, dt_common::DtError::Binding(_)), "{err}");

    // `?` in DDL is rejected at prepare time AND at raw-execute time, with
    // an error that doesn't point at an API that would also refuse it.
    let ddl = "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
               AS SELECT k FROM t WHERE k = ?";
    let err = session.prepare(ddl).unwrap_err();
    assert!(matches!(err, dt_common::DtError::Unsupported(_)), "{err}");
    let err = session.execute(ddl).unwrap_err();
    assert!(matches!(err, dt_common::DtError::Unsupported(_)), "{err}");

    // No-binding entry points (time travel, isolation analysis) reject
    // placeholders instead of silently returning empty results.
    let err = session
        .query_at("SELECT * FROM t WHERE k = ?", engine.now())
        .unwrap_err();
    assert!(matches!(err, dt_common::DtError::Binding(_)), "{err}");
    let err = session
        .query_isolation_level("SELECT * FROM t WHERE k = ?")
        .unwrap_err();
    assert!(matches!(err, dt_common::DtError::Binding(_)), "{err}");

    // Too few / too many bindings are arity errors, not silent NULLs.
    let stmt = session.prepare("SELECT * FROM t WHERE k = ?").unwrap();
    let err = stmt.query(&[]).unwrap_err();
    assert!(matches!(err, dt_common::DtError::Binding(_)), "{err}");
    let err = stmt
        .query(&[Value::Int(1), Value::Int(2)])
        .unwrap_err();
    assert!(matches!(err, dt_common::DtError::Binding(_)), "{err}");

    // `?` placeholder soup never panics the front end.
    for sql in [
        "SELECT ?",
        "SELECT ? FROM ? WHERE ?",
        "INSERT INTO t VALUES (?, ?,)",
        "?",
        "SELECT * FROM t WHERE k IN (?, ?, ?)",
    ] {
        let _ = dt_sql::parse(sql);
    }
}

#[test]
fn error_messages_are_structured_and_positioned() {
    let err = dt_sql::parse("SELECT 1 +").unwrap_err();
    assert!(matches!(err, dt_common::DtError::Parse { .. }));
    let err = dt_sql::parse("SELECT 'unterminated").unwrap_err();
    assert!(matches!(err, dt_common::DtError::Lex { .. }));
    let err = dt_sql::parse("CREATE DYNAMIC TABLE t AS SELECT 1").unwrap_err();
    // Missing TARGET_LAG is a parse error naming the requirement.
    let dt_common::DtError::Parse { message, .. } = err else {
        panic!()
    };
    assert!(message.contains("TARGET_LAG"));
}

/// One table of entry points × statements: a statement gets the same
/// answer wherever it arrives. Rows, `Ok` text, a row count, an isolation
/// level, or the typed error; `SHOW STATS` reports engine-wide counters,
/// so a snapshot refuses it; a `?` in DDL is `Unsupported` everywhere, and
/// a `?` on an entry point that takes no bindings is a `Binding` error.
/// A refused `INSERT` leaves the table as it was, even when the
/// transaction it arrived in commits afterwards.
#[test]
fn every_entry_point_gives_a_statement_the_same_answer() {
    use dt_common::{DtError, DtResult, Value};
    use dt_core::{ExecResult, QueryResult};

    #[derive(Debug, Clone, PartialEq)]
    enum A {
        Rows,
        Text,
        Count,
        Level,
        Unsupported,
        Binding,
        Other(String),
    }
    use A::*;
    fn error(e: DtError) -> A {
        match e {
            DtError::Unsupported(_) => Unsupported,
            DtError::Binding(_) => Binding,
            other => Other(format!("{other:?}")),
        }
    }
    fn exec(r: DtResult<ExecResult>) -> A {
        match r {
            Ok(ExecResult::Rows(_)) => Rows,
            Ok(ExecResult::Ok(_)) => Text,
            Ok(ExecResult::Count(_)) => Count,
            Err(e) => error(e),
        }
    }
    fn rows(r: DtResult<QueryResult>) -> A {
        r.map_or_else(error, |_| Rows)
    }

    let engine = dt_core::Engine::new(dt_core::DbConfig::default());
    engine.create_warehouse("wh", 1).unwrap();
    let session = engine.session();
    session.execute("CREATE TABLE t (k INT)").unwrap();
    session.execute("INSERT INTO t VALUES (1)").unwrap();
    session
        .execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t")
        .unwrap();
    let in_begin = engine.session();
    // Each transaction commits after its statement, so a write it buffered
    // lands.
    let inside = |run: &dyn Fn() -> A| {
        in_begin.execute("BEGIN").unwrap();
        let answer = run();
        in_begin.execute("COMMIT").unwrap();
        answer
    };
    let handle = |run: &dyn Fn(&mut dt_core::Transaction) -> A| {
        let mut txn = session.begin();
        let answer = run(&mut txn);
        txn.commit().unwrap();
        answer
    };
    let params = |sql: &str| {
        if sql.contains('?') {
            vec![Value::Int(1)]
        } else {
            vec![]
        }
    };
    let statements = [
        "SELECT k FROM t",
        "SHOW DYNAMIC TABLES",
        "SHOW STATS",
        "EXPLAIN SELECT k FROM t",
        "CREATE DYNAMIC TABLE e TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k FROM t WHERE k = ?",
        "SELECT k FROM t WHERE k = ?",
        "INSERT INTO t VALUES (2)",
    ];
    // Per entry point, its answer to each of `statements`, in order.
    type Entry<'a> = (&'static str, [A; 7], Box<dyn Fn(&str) -> A + 'a>);
    let entries: Vec<Entry> = vec![
        (
            "Session::execute",
            [Rows, Rows, Rows, Text, Unsupported, Binding, Count],
            Box::new(|sql| exec(session.execute(sql))),
        ),
        (
            "Session::query",
            [
                Rows,
                Rows,
                Rows,
                Unsupported,
                Unsupported,
                Binding,
                Unsupported,
            ],
            Box::new(|sql| rows(session.query(sql))),
        ),
        (
            "Session::execute in BEGIN",
            [Rows, Rows, Rows, Text, Unsupported, Binding, Count],
            Box::new(|sql| inside(&|| exec(in_begin.execute(sql)))),
        ),
        (
            "Session::query in BEGIN",
            [
                Rows,
                Rows,
                Rows,
                Unsupported,
                Unsupported,
                Binding,
                Unsupported,
            ],
            Box::new(|sql| inside(&|| rows(in_begin.query(sql)))),
        ),
        (
            "Session::query_at",
            [
                Rows,
                Rows,
                Unsupported,
                Unsupported,
                Unsupported,
                Binding,
                Unsupported,
            ],
            Box::new(|sql| rows(session.query_at(sql, engine.now()))),
        ),
        (
            "Session::query_isolation_level",
            [
                Level,
                Unsupported,
                Unsupported,
                Unsupported,
                Unsupported,
                Binding,
                Unsupported,
            ],
            Box::new(|sql| {
                session
                    .query_isolation_level(sql)
                    .map_or_else(error, |_| Level)
            }),
        ),
        (
            "Statement::execute",
            [Rows, Rows, Rows, Text, Unsupported, Rows, Count],
            Box::new(|sql| match session.prepare(sql) {
                Ok(stmt) => exec(stmt.execute(&params(sql))),
                Err(e) => error(e),
            }),
        ),
        (
            "Statement::query",
            [
                Rows,
                Rows,
                Rows,
                Unsupported,
                Unsupported,
                Rows,
                Unsupported,
            ],
            Box::new(|sql| match session.prepare(sql) {
                Ok(stmt) => rows(stmt.query(&params(sql))),
                Err(e) => error(e),
            }),
        ),
        (
            "Transaction::execute",
            [Rows, Rows, Rows, Text, Unsupported, Binding, Count],
            Box::new(|sql| handle(&|txn| exec(txn.execute(sql)))),
        ),
        (
            "Transaction::query",
            [
                Rows,
                Rows,
                Rows,
                Unsupported,
                Unsupported,
                Binding,
                Unsupported,
            ],
            Box::new(|sql| handle(&|txn| rows(txn.query(sql)))),
        ),
        (
            "ReadSnapshot::execute_read",
            [
                Rows,
                Rows,
                Unsupported,
                Text,
                Unsupported,
                Binding,
                Unsupported,
            ],
            Box::new(|sql| exec(engine.snapshot().execute_read(sql))),
        ),
        (
            "ReadSnapshot::query",
            [
                Rows,
                Rows,
                Unsupported,
                Unsupported,
                Unsupported,
                Binding,
                Unsupported,
            ],
            Box::new(|sql| rows(engine.snapshot().query(sql))),
        ),
    ];
    let count = || session.query("SELECT k FROM t").unwrap().len();
    let mut wrong = Vec::new();
    for (entry, expected, run) in &entries {
        for (sql, want) in statements.iter().zip(expected) {
            let before = count();
            let got = run(sql);
            if got != *want {
                wrong.push(format!("{entry} on `{sql}`: {got:?}, expected {want:?}"));
            }
            // Only an INSERT that answered with its count wrote a row.
            let wrote = count() - before;
            if wrote != usize::from(got == Count) {
                wrong.push(format!(
                    "{entry} on `{sql}`: {got:?}, but wrote {wrote} row(s)"
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} cells differ:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    // Nothing refused above ran: the DDL with `?` created no table.
    assert!(session.query("SELECT * FROM e").is_err());
}
