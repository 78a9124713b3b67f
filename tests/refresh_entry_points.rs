//! One refresh path, whoever asks: the same history driven through
//! `Session::manual_refresh`, `ALTER DYNAMIC TABLE … REFRESH` and
//! `Engine::refresh_all_parallel` must leave the same refresh log, the
//! same error counters and the same DT contents. Both scenarios are
//! failure histories (§3.3.3, §5.4): a refresh that fails must leave the
//! DT able to recover on its own once the cause is fixed.

use dt_common::{EntityId, Row};
use dt_core::{DbConfig, Engine, Session};

#[derive(Clone, Copy, Debug)]
enum EntryPoint {
    ManualRefresh,
    AlterRefresh,
    ParallelRound,
}

const ENTRY_POINTS: [EntryPoint; 3] = [
    EntryPoint::ManualRefresh,
    EntryPoint::AlterRefresh,
    EntryPoint::ParallelRound,
];

impl EntryPoint {
    /// Refresh `d` once. A refresh that fails with a user error is an
    /// outcome, not an `Err`, through every entry point.
    fn refresh(self, eng: &Engine, db: &Session) {
        match self {
            EntryPoint::ManualRefresh => {
                db.manual_refresh("d").unwrap();
            }
            EntryPoint::AlterRefresh => {
                db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
            }
            EntryPoint::ParallelRound => {
                eng.refresh_all_parallel().unwrap();
            }
        }
    }
}

fn setup() -> (Engine, Session) {
    // §6.1 level-4 validation on every refresh.
    let eng = Engine::new(DbConfig {
        validate_dvs: true,
        ..DbConfig::default()
    });
    eng.create_warehouse("wh", 4).unwrap();
    let db = eng.session();
    (eng, db)
}

/// What the catalog and the scheduler each hold about `d`.
#[derive(Debug, PartialEq)]
struct DtMeta {
    catalog_errors: u32,
    scheduler_errors: u32,
    fingerprint: u64,
    upstream: Vec<EntityId>,
}

fn dt_meta(eng: &Engine) -> DtMeta {
    eng.inspect(|st| {
        let entity = st.catalog().resolve("d").unwrap();
        let meta = entity.as_dt().unwrap();
        DtMeta {
            catalog_errors: meta.error_count,
            scheduler_errors: st.scheduler().state(entity.id).unwrap().error_count,
            fingerprint: meta.definition_fingerprint,
            upstream: meta.upstream.clone(),
        }
    })
}

/// What one scenario leaves behind, compared across entry points.
#[derive(Debug, PartialEq)]
struct Observed {
    actions: Vec<&'static str>,
    /// `(catalog, scheduler)` consecutive-error counters after each refresh.
    errors: Vec<(u32, u32)>,
    rows: Vec<Row>,
}

fn observe(eng: &Engine, db: &Session, errors: Vec<(u32, u32)>) -> Observed {
    Observed {
        actions: eng.refresh_log().entries().iter().map(|e| e.action).collect(),
        errors,
        rows: db.query_sorted("SELECT * FROM d").unwrap(),
    }
}

/// (a) The upstream table is replaced (query evolution, §5.4) and the
/// reinitialization it forces fails on a row the defining query cannot
/// evaluate. The failure must leave the catalog's fingerprint and upstream
/// set alone, so that the next refresh still sees the evolution and
/// reinitializes.
fn replaced_upstream_with_a_failing_row(entry: EntryPoint) -> Observed {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, 10 / k q FROM t",
    )
    .unwrap();
    let before_replace = db.query_sorted("SELECT * FROM d").unwrap();
    db.execute("CREATE OR REPLACE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (0), (5)").unwrap();
    let bound = dt_meta(&eng);
    let mut errors = Vec::new();

    entry.refresh(&eng, &db);
    assert_eq!(eng.refresh_log().last().unwrap().action, "failed", "{entry:?}");
    let failed = dt_meta(&eng);
    assert_eq!(failed.fingerprint, bound.fingerprint, "{entry:?}");
    assert_eq!(failed.upstream, bound.upstream, "{entry:?}");
    assert_eq!(db.query_sorted("SELECT * FROM d").unwrap(), before_replace);
    errors.push((failed.catalog_errors, failed.scheduler_errors));

    db.execute("UPDATE t SET k = 2 WHERE k = 0").unwrap();
    entry.refresh(&eng, &db);
    assert_eq!(
        eng.refresh_log().last().unwrap().action,
        "reinitialize",
        "{entry:?}"
    );
    let recovered = dt_meta(&eng);
    assert_ne!(recovered.fingerprint, bound.fingerprint, "{entry:?}");
    assert_ne!(recovered.upstream, bound.upstream, "{entry:?}");
    assert_eq!(
        db.query_sorted("SELECT * FROM d").unwrap(),
        db.query_sorted("SELECT k, 10 / k q FROM t").unwrap(),
        "{entry:?}"
    );
    errors.push((recovered.catalog_errors, recovered.scheduler_errors));
    observe(&eng, &db, errors)
}

/// (b) The upstream table is dropped, then undropped. The refresh in
/// between fails and counts against the DT; the one after succeeds and
/// resets the counter.
fn dropped_then_undropped_upstream(entry: EntryPoint) -> Observed {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k FROM t",
    )
    .unwrap();
    db.execute("DROP TABLE t").unwrap();
    let mut errors = Vec::new();

    entry.refresh(&eng, &db);
    assert_eq!(eng.refresh_log().last().unwrap().action, "failed", "{entry:?}");
    let failed = dt_meta(&eng);
    errors.push((failed.catalog_errors, failed.scheduler_errors));

    db.execute("UNDROP TABLE t").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    entry.refresh(&eng, &db);
    let recovered = dt_meta(&eng);
    errors.push((recovered.catalog_errors, recovered.scheduler_errors));
    observe(&eng, &db, errors)
}

#[test]
fn failure_histories_are_the_same_through_every_entry_point() {
    type Scenario = fn(EntryPoint) -> Observed;
    let scenarios: [(&str, Scenario, Observed); 2] = [
        (
            "replaced upstream with a failing row",
            replaced_upstream_with_a_failing_row,
            Observed {
                actions: vec!["full", "failed", "reinitialize"],
                errors: vec![(1, 1), (0, 0)],
                rows: vec![dt_common::row!(2i64, 5i64), dt_common::row!(5i64, 2i64)],
            },
        ),
        (
            "dropped then undropped upstream",
            dropped_then_undropped_upstream,
            Observed {
                actions: vec!["full", "failed", "incremental"],
                errors: vec![(1, 1), (0, 0)],
                rows: vec![dt_common::row!(1i64), dt_common::row!(2i64)],
            },
        ),
    ];
    for (name, scenario, expected) in scenarios {
        for entry in ENTRY_POINTS {
            assert_eq!(scenario(entry), expected, "{name} through {entry:?}");
        }
    }
}
