//! One change set per (source, interval) per plan, by count: a round's
//! DTs over one table share one change scan of it, and a DT over a DT
//! refreshed in the same round reads the delta its upstream just
//! installed instead of scanning the upstream's store — unless its own
//! interval is another one, when it scans as before. Counted with
//! `TableStore::change_scans`, checked against the defining queries run
//! from scratch.

use std::collections::BTreeMap;

use dt_common::Row;
use dynamic_tables::core::{DbConfig, Engine, RefreshRoundReport, RoundStatus, Session};

/// Three DTs over `t`, a DT over each, and the query over `t` alone
/// that each one's contents must equal. `c` keeps only rows no insert of
/// this test makes, so its deltas are empty.
const DTS: [(&str, &str, &str); 6] = [
    (
        "a",
        "SELECT k, v FROM t WHERE v >= 10",
        "SELECT k, v FROM t WHERE v >= 10",
    ),
    (
        "b",
        "SELECT k, sum(v) s FROM t GROUP BY k",
        "SELECT k, sum(v) s FROM t GROUP BY k",
    ),
    (
        "c",
        "SELECT k, v FROM t WHERE v > 1000",
        "SELECT k, v FROM t WHERE v > 1000",
    ),
    (
        "a2",
        "SELECT k, count(*) n FROM a GROUP BY k",
        "SELECT k, count(*) n FROM t WHERE v >= 10 GROUP BY k",
    ),
    (
        "b2",
        "SELECT k, s FROM b WHERE s > 25",
        "SELECT k, sum(v) s FROM t GROUP BY k HAVING sum(v) > 25",
    ),
    (
        "c2",
        "SELECT k, v FROM c",
        "SELECT k, v FROM t WHERE v > 1000",
    ),
];

fn setup() -> (Engine, Session) {
    let eng = Engine::new(DbConfig::default());
    eng.create_warehouse("wh", 2).unwrap();
    eng.set_refresh_threads(2);
    let db = eng.session();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 5), (1, 30)")
        .unwrap();
    for (name, sql, _) in DTS {
        db.execute(&format!(
            "CREATE DYNAMIC TABLE {name} TARGET_LAG = '1 minute' WAREHOUSE = wh AS {sql}"
        ))
        .unwrap();
    }
    (eng, db)
}

/// Change scans answered so far by the store of each of `t` and the DTs.
fn scans(eng: &Engine) -> BTreeMap<&'static str, u64> {
    let names = std::iter::once("t").chain(DTS.iter().map(|(name, ..)| *name));
    eng.inspect(|s| {
        let scans = |name| {
            s.table_store(s.catalog().resolve(name).unwrap().id)
                .unwrap()
                .change_scans()
        };
        names.map(|name| (name, scans(name))).collect()
    })
}

/// The change scans of each store since `before`, the stores scanned only.
fn scanned(eng: &Engine, before: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, u64> {
    let after = scans(eng);
    after
        .into_iter()
        .map(|(name, n)| (name, n - before[name]))
        .filter(|(_, n)| *n > 0)
        .collect()
}

fn status(eng: &Engine, report: &RefreshRoundReport, name: &str) -> RoundStatus {
    let id = eng.inspect(|s| s.catalog().resolve(name).unwrap().id);
    report
        .outcomes
        .iter()
        .find(|(dt, _)| *dt == id)
        .unwrap()
        .1
        .clone()
}

fn action(eng: &Engine, report: &RefreshRoundReport, name: &str) -> (&'static str, usize) {
    match status(eng, report, name) {
        RoundStatus::Installed {
            action,
            changed_rows,
            ..
        } => (action, changed_rows),
        other => panic!("{name}: {other:?}"),
    }
}

fn assert_contents(db: &Session) {
    for (name, _, scratch) in DTS {
        let stored: Vec<Row> = db.query_sorted(&format!("SELECT * FROM {name}")).unwrap();
        assert_eq!(stored, db.query_sorted(scratch).unwrap(), "{name}");
    }
}

#[test]
fn a_round_scans_a_shared_table_once_and_no_upstream_dt() {
    let (eng, db) = setup();
    db.execute("INSERT INTO t VALUES (2, 40), (4, 7)").unwrap();
    db.execute("DELETE FROM t WHERE k = 3").unwrap();
    let before = scans(&eng);
    let report = eng.refresh_all_parallel().unwrap();
    assert_eq!(
        (report.refreshed, report.failed, report.conflicts),
        (6, 0, 0),
        "{report:?}"
    );
    // `t`'s one interval is scanned once for `a`, `b` and `c`; each DT
    // over a DT reads its upstream's installed delta.
    assert_eq!(scanned(&eng, &before), BTreeMap::from([("t", 1)]));
    for name in ["a", "b", "a2", "b2"] {
        assert_eq!(action(&eng, &report, name).0, "incremental", "{name}");
    }
    // `c`'s delta is empty, and so its reader's interval is unchanged.
    assert_eq!(action(&eng, &report, "c"), ("incremental", 0));
    assert_eq!(action(&eng, &report, "c2"), ("no_data", 0));
    assert_contents(&db);
}

#[test]
fn a_reader_whose_interval_spans_two_upstream_versions_scans_it() {
    let (eng, db) = setup();
    // `a` alone moves ahead of its reader: an ALTER refreshes the
    // upstream chain of the DT it names, and `a` has none.
    db.execute("INSERT INTO t VALUES (5, 50)").unwrap();
    let before = scans(&eng);
    db.execute("ALTER DYNAMIC TABLE a REFRESH").unwrap();
    assert_eq!(scanned(&eng, &before), BTreeMap::from([("t", 1)]));

    db.execute("UPDATE t SET v = v + 1 WHERE k = 1").unwrap();
    let before = scans(&eng);
    let report = eng.refresh_all_parallel().unwrap();
    assert_eq!(
        (report.refreshed, report.failed, report.conflicts),
        (6, 0, 0),
        "{report:?}"
    );
    // `a` reads `t` from the ALTER's version, `b` and `c` from the
    // creation's: two intervals, two scans. `a2` reads `a` across the
    // ALTER's version and the round's, which is no one install's delta.
    assert_eq!(scanned(&eng, &before), BTreeMap::from([("t", 2), ("a", 1)]));
    assert_eq!(action(&eng, &report, "a2").0, "incremental");
    assert_contents(&db);

    // Aligned again, the next round shares everything.
    db.execute("INSERT INTO t VALUES (1, 11)").unwrap();
    let before = scans(&eng);
    eng.refresh_all_parallel().unwrap();
    assert_eq!(scanned(&eng, &before), BTreeMap::from([("t", 1)]));
    assert_contents(&db);
}
