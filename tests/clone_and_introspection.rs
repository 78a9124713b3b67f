//! Zero-copy cloning (§3.4), EXPLAIN, and SHOW DYNAMIC TABLES.

use dt_common::{row, Value};
use dt_core::{DbConfig, Engine, ExecResult, Session};

fn setup() -> (Engine, Session) {
    let cfg = DbConfig { validate_dvs: true, ..DbConfig::default() };
    let eng = Engine::new(cfg);
    eng.create_warehouse("wh", 2).unwrap();
    let db = eng.session();
    (eng, db)
}

#[test]
fn clone_table_shares_data_and_diverges_after_dml() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    db.execute("CREATE TABLE t2 CLONE t").unwrap();
    assert_eq!(db.query_sorted("SELECT * FROM t2").unwrap().len(), 2);
    // Divergence: DML on the clone leaves the source untouched.
    db.execute("INSERT INTO t2 VALUES (3)").unwrap();
    db.execute("DELETE FROM t WHERE k = 1").unwrap();
    assert_eq!(db.query_sorted("SELECT * FROM t").unwrap(), vec![row!(2i64)]);
    assert_eq!(db.query_sorted("SELECT * FROM t2").unwrap().len(), 3);
}

#[test]
fn clone_dt_avoids_reinitialization_and_refreshes_independently() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, sum(v) s FROM t GROUP BY k",
    )
    .unwrap();
    let refreshes_before = eng.refresh_log().len();
    db.execute("CREATE DYNAMIC TABLE d2 CLONE d").unwrap();
    // No new refresh ran: the clone took the source's contents and data
    // timestamp ("Cloned DTs can avoid reinitialization", §3.4).
    assert_eq!(eng.refresh_log().len(), refreshes_before);
    assert_eq!(
        db.query_sorted("SELECT * FROM d2").unwrap(),
        vec![row!(1i64, 10i64)]
    );
    // The clone refreshes on its own and catches up with new data.
    db.execute("INSERT INTO t VALUES (1, 5)").unwrap();
    db.execute("ALTER DYNAMIC TABLE d2 REFRESH").unwrap();
    assert_eq!(
        db.query_sorted("SELECT * FROM d2").unwrap(),
        vec![row!(1i64, 15i64)]
    );
    // The source is still at the old snapshot until its own refresh.
    assert_eq!(
        db.query_sorted("SELECT * FROM d").unwrap(),
        vec![row!(1i64, 10i64)]
    );
}

#[test]
fn clone_name_conflicts_rejected() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    assert!(db.execute("CREATE TABLE t CLONE t").is_err());
    assert!(db.execute("CREATE TABLE u CLONE missing").is_err());
}

#[test]
fn explain_renders_plan_and_mode() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    let ExecResult::Ok(text) = db
        .execute("EXPLAIN SELECT k, count(*) FROM t WHERE v > 0 GROUP BY k")
        .unwrap()
    else {
        panic!()
    };
    assert!(text.contains("Aggregate"), "{text}");
    // EXPLAIN shows the plan that runs: the filter has sunk into the scan.
    assert!(!text.contains("Filter"), "{text}");
    assert!(text.contains("Scan t [pushdown: #1 > 0]"), "{text}");
    assert!(text.contains("incrementally maintainable"), "{text}");

    // The benchmark's `join` class with literals: the id range reaches the
    // `facts` scan under the join, the `dim` scan stays bare.
    db.execute("CREATE TABLE facts (id INT, k INT, region INT, v INT)").unwrap();
    db.execute("CREATE TABLE dim (k INT, label INT)").unwrap();
    let join = "SELECT d.label, count(*), sum(f.v) FROM facts f JOIN dim d ON f.k = d.k \
                WHERE f.id >= 100 AND f.id < 20100 GROUP BY d.label";
    let ExecResult::Ok(text) = db.execute(&format!("EXPLAIN {join}")).unwrap() else {
        panic!()
    };
    let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
    let at = lines.iter().position(|l| l.starts_with("InnerJoin")).expect(&text);
    assert_eq!(lines[at + 1], "Scan facts [pushdown: #0 >= 100 AND #0 < 20100]", "{text}");
    assert_eq!(lines[at + 2], "Scan dim", "{text}");
    assert!(!text.contains("Filter"), "{text}");

    // A conjunct the scan cannot apply stays behind as the residual filter.
    let ExecResult::Ok(text) = db
        .execute("EXPLAIN SELECT k FROM t WHERE v + 1 > 2 AND k < 3")
        .unwrap()
    else {
        panic!()
    };
    assert!(text.contains("Filter (("), "{text}");
    assert!(text.contains("Scan t [pushdown: #0 < 3]"), "{text}");

    let ExecResult::Ok(text) = db
        .execute("EXPLAIN SELECT k FROM t ORDER BY k LIMIT 1")
        .unwrap()
    else {
        panic!()
    };
    assert!(text.contains("full refresh only"), "{text}");
}

/// `EXPLAIN` answers "why does this DT's refresh read its whole input?":
/// under each `Aggregate` of a maintainable plan, what a refresh maintains
/// from the delta, what makes it recompute a group from the source, and
/// where it finds the groups' old rows.
#[test]
fn explain_says_what_an_aggregate_refresh_reads() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT, f FLOAT)").unwrap();
    let explain = |sql: &str| {
        let ExecResult::Ok(text) = db.execute(&format!("EXPLAIN {sql}")).unwrap() else {
            panic!()
        };
        text
    };
    /// The line under the `n`-th `Aggregate` line.
    fn note(text: &str, n: usize) -> &str {
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        let at = (0..lines.len()).filter(|i| lines[*i].starts_with("Aggregate")).nth(n).expect(text);
        lines[at + 1]
    }

    // The benchmark's rollup shape: all of it folds, and the projection
    // above keeps every column, so the DT itself holds the old rows.
    let text = explain("SELECT k, count(*) n, sum(v) total, max(v) hi FROM t WHERE v > 0 GROUP BY k");
    assert_eq!(
        note(&text, 0),
        "· maintained from the delta: count(*), sum(#1), max(#1); \
         recompute their group from the source: none; old rows from the stored DT",
        "{text}"
    );

    // avg, DISTINCT and a FLOAT sum each force the recompute.
    let text = explain("SELECT k, count(*), avg(v), count(DISTINCT v), sum(f), min(f) FROM t GROUP BY k");
    assert_eq!(
        note(&text, 0),
        "· maintained from the delta: count(*), min(#2); recompute their group from the source: \
         avg(#1), count(DISTINCT #1), sum(#2); old rows from the stored DT",
        "{text}"
    );
    // A FLOAT group key leaves nothing to the delta.
    let text = explain("SELECT f, count(*) FROM t GROUP BY f");
    assert!(note(&text, 0).starts_with("· maintained from the delta: none; recompute their group from the source: count(*);"), "{text}");

    // HAVING, an expression over an aggregate, or a join above it: the DT
    // does not hold the aggregation's output, so the old end is read.
    for sql in [
        "SELECT k, count(*) n FROM t GROUP BY k HAVING count(*) > 1",
        "SELECT k, sum(v) * 2 FROM t GROUP BY k",
        "SELECT a.k, a.n, t.v FROM (SELECT k, count(*) n FROM t GROUP BY k) a JOIN t ON a.k = t.k",
    ] {
        let text = explain(sql);
        assert!(note(&text, 0).ends_with("old rows from the source at the old end"), "{text}");
    }

    // Nothing to say about a plan no refresh differentiates.
    let text = explain("SELECT k, count(*) FROM t GROUP BY k ORDER BY k LIMIT 3");
    assert!(!text.contains("maintained from the delta"), "{text}");
    assert!(text.contains("full refresh only"), "{text}");
}

#[test]
fn show_dynamic_tables_reports_status() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '5 minutes' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    db.execute("ALTER DYNAMIC TABLE d SUSPEND").unwrap();
    let rows = db.query("SHOW DYNAMIC TABLES").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.schema().names()[0], "name");
    let r = &rows.rows()[0];
    assert_eq!(r.get(0), &Value::Str("d".into()));
    assert_eq!(r.get(1), &Value::Str("5m".into()));
    assert_eq!(r.get(2), &Value::Str("INCREMENTAL".into()));
    assert_eq!(r.get(3), &Value::Str("SUSPENDED".into()));
    assert_eq!(r.get(4), &Value::Str("wh".into()));
    assert_eq!(r.get(5), &Value::Int(2));
}
