//! End-to-end integration tests: the full Dynamic Table lifecycle across
//! catalog, storage, transactions, planning, execution, IVM, and
//! scheduling.

use dt_common::{row, DtError, Duration, Row, Timestamp, Value};
use dt_core::{DbConfig, Engine, Session};

fn setup() -> (Engine, Session) {
    // §6.1 level-4 validation on every refresh.
    let cfg = DbConfig { validate_dvs: true, ..DbConfig::default() };
    let eng = Engine::new(cfg);
    eng.create_warehouse("wh", 4).unwrap();
    let db = eng.session();
    (eng, db)
}

#[test]
fn create_insert_refresh_query() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (1, 5)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, sum(v) s FROM t GROUP BY k",
    )
    .unwrap();
    let rows = db.query_sorted("SELECT * FROM agg").unwrap();
    assert_eq!(rows, vec![row!(1i64, 15i64), row!(2i64, 20i64)]);

    // New DML is invisible until a refresh (delayed view semantics).
    db.execute("INSERT INTO t VALUES (2, 100)").unwrap();
    let rows = db.query_sorted("SELECT * FROM agg").unwrap();
    assert_eq!(rows, vec![row!(1i64, 15i64), row!(2i64, 20i64)]);

    db.execute("ALTER DYNAMIC TABLE agg REFRESH").unwrap();
    let rows = db.query_sorted("SELECT * FROM agg").unwrap();
    assert_eq!(rows, vec![row!(1i64, 15i64), row!(2i64, 120i64)]);
    // That refresh was incremental.
    let log = eng.refresh_log();
    assert_eq!(log.last().unwrap().action, "incremental");
}

#[test]
fn updates_and_deletes_propagate_incrementally() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE f TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, v FROM t WHERE v >= 15",
    )
    .unwrap();
    db.execute("UPDATE t SET v = v + 100 WHERE k = 1").unwrap();
    db.execute("DELETE FROM t WHERE k = 2").unwrap();
    db.execute("ALTER DYNAMIC TABLE f REFRESH").unwrap();
    let rows = db.query_sorted("SELECT * FROM f").unwrap();
    assert_eq!(rows, vec![row!(1i64, 110i64), row!(3i64, 30i64)]);
}

#[test]
fn stacked_dynamic_tables_share_data_timestamps() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE events (id INT, kind STRING, amount INT)")
        .unwrap();
    db.execute(
        "INSERT INTO events VALUES (1, 'a', 10), (2, 'b', 20), (3, 'a', 30)",
    )
    .unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE filtered TARGET_LAG = DOWNSTREAM WAREHOUSE = wh \
         AS SELECT id, kind, amount FROM events WHERE amount > 5",
    )
    .unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE by_kind TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT kind, count(*) n, sum(amount) total FROM filtered GROUP BY kind",
    )
    .unwrap();
    let rows = db.query_sorted("SELECT * FROM by_kind").unwrap();
    assert_eq!(
        rows,
        vec![row!("a", 2i64, 40i64), row!("b", 1i64, 20i64)]
    );
    // Refreshing the downstream DT refreshes the upstream chain at the
    // same data timestamp (§3.1.2/§3.2).
    db.execute("INSERT INTO events VALUES (4, 'b', 40)").unwrap();
    db.execute("ALTER DYNAMIC TABLE by_kind REFRESH").unwrap();
    let rows = db.query_sorted("SELECT * FROM by_kind").unwrap();
    assert_eq!(
        rows,
        vec![row!("a", 2i64, 40i64), row!("b", 2i64, 60i64)]
    );
}

#[test]
fn listing_1_train_pipeline() {
    // The paper's Listing 1, adapted to our schema model.
    let (eng, db) = setup();
    eng.create_warehouse("trains_wh", 2).unwrap();
    db.execute("CREATE TABLE trains (id INT)").unwrap();
    db.execute(
        "CREATE TABLE train_events (train_id INT, type STRING, time TIMESTAMP, schedule_id INT)",
    )
    .unwrap();
    db.execute("CREATE TABLE schedule (id INT, expected_arrival_time TIMESTAMP)")
        .unwrap();
    db.execute("INSERT INTO trains VALUES (1), (2)").unwrap();
    db.execute("INSERT INTO schedule VALUES (10, 1000000000), (11, 2000000000)")
        .unwrap();
    // Train 1 arrives 11 minutes late; train 2 on time.
    db.execute(
        "INSERT INTO train_events VALUES \
         (1, 'ARRIVAL', 1660000000, 10), \
         (2, 'ARRIVAL', 2000000000, 11), \
         (1, 'DEPARTURE', 999, 10)",
    )
    .unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE train_arrivals \
         TARGET_LAG = DOWNSTREAM \
         WARHEOUSE = trains_wh \
         AS SELECT t.id train_id, e.time arrival_time, e.schedule_id schedule_id \
         FROM train_events e JOIN trains t ON e.train_id = t.id \
         WHERE e.type = 'ARRIVAL'",
    )
    .unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE delayed_trains \
         TARGET_LAG = '1 minute' \
         WAREHOUSE = trains_wh \
         AS SELECT train_id, \
            date_trunc(hour, s.expected_arrival_time) hour, \
            count_if(arrival_time - s.expected_arrival_time > INTERVAL '10 minutes') num_delays \
         FROM train_arrivals a JOIN schedule s ON a.schedule_id = s.id \
         GROUP BY ALL",
    )
    .unwrap();
    let rows = db.query_sorted("SELECT train_id, num_delays FROM delayed_trains").unwrap();
    assert_eq!(rows, vec![row!(1i64, 1i64), row!(2i64, 0i64)]);
    // Both DTs bound incrementally.
    for name in ["train_arrivals", "delayed_trains"] {
        let mode = eng.inspect(|s| {
            s.catalog().resolve(name).unwrap().as_dt().unwrap().refresh_mode
        });
        assert_eq!(mode, dt_catalog::RefreshMode::Incremental);
    }
}

#[test]
fn full_refresh_mode_for_non_differentiable_queries() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    // ORDER BY + LIMIT is not incrementally maintainable → AUTO picks FULL.
    db.execute(
        "CREATE DYNAMIC TABLE top2 TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, v FROM t ORDER BY v DESC LIMIT 2",
    )
    .unwrap();
    let mode = eng.inspect(|s| {
        s.catalog().resolve("top2").unwrap().as_dt().unwrap().refresh_mode
    });
    assert_eq!(mode, dt_catalog::RefreshMode::Full);
    db.execute("INSERT INTO t VALUES (4, 99)").unwrap();
    db.execute("ALTER DYNAMIC TABLE top2 REFRESH").unwrap();
    let rows = db.query_sorted("SELECT v FROM top2").unwrap();
    assert_eq!(rows, vec![row!(30i64), row!(99i64)]);
    assert_eq!(eng.refresh_log().last().unwrap().action, "full");
    // Requesting INCREMENTAL explicitly fails.
    let err = db
        .execute(
            "CREATE DYNAMIC TABLE bad TARGET_LAG = '1 minute' WAREHOUSE = wh \
             REFRESH_MODE = INCREMENTAL AS SELECT k FROM t ORDER BY k LIMIT 1",
        )
        .unwrap_err();
    assert!(matches!(err, dt_common::DtError::Unsupported(_)));
}

#[test]
fn no_data_refresh_when_sources_unchanged() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k FROM t",
    )
    .unwrap();
    db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
    assert_eq!(eng.refresh_log().last().unwrap().action, "no_data");
    // The data timestamp still advanced.
    eng.inspect(|s| {
        let id = s.catalog().resolve("d").unwrap().id;
        let st = s.scheduler().state(id).unwrap();
        assert_eq!(st.action_counts.get("no_data"), Some(&1));
    });
}

#[test]
fn scheduled_refreshes_maintain_lag() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, sum(v) s FROM t GROUP BY k",
    )
    .unwrap();
    // Simulate 10 minutes with periodic DML.
    for i in 0..10 {
        eng.run_scheduler_until(Timestamp::from_secs((i + 1) * 60)).unwrap();
        db.execute(&format!("INSERT INTO t VALUES (1, {i})")).unwrap();
    }
    eng.run_scheduler_until(Timestamp::from_secs(660)).unwrap();
    let log = eng.refresh_log().entries();
    let scheduled: Vec<_> = log.iter().filter(|e| !e.initial).collect();
    assert!(scheduled.len() >= 10, "refreshes: {}", scheduled.len());
    assert!(scheduled.iter().any(|e| e.action == "incremental"));
    // The DT caught up with all DML after the last refresh window.
    db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
    let rows = db.query_sorted("SELECT s FROM d").unwrap();
    let total: i64 = 1 + (0..10).sum::<i64>();
    assert_eq!(rows, vec![row!(total)]);
    // Lag samples never exceeded the 1-minute target by much (the sawtooth
    // peaks stay near period + duration).
    let max_peak = eng.inspect(|s| {
        let id = s.catalog().resolve("d").unwrap().id;
        s.scheduler()
            .state(id)
            .unwrap()
            .lag_samples
            .iter()
            .filter(|s| s.peak)
            .map(|s| s.lag)
            .max()
            .unwrap()
    });
    assert!(
        max_peak <= Duration::from_secs(120),
        "max peak lag {max_peak}"
    );
}

#[test]
fn consecutive_failures_auto_suspend_and_resume_recovers() {
    let cfg = DbConfig { error_suspend_threshold: 3, ..DbConfig::default() };
    let eng = Engine::new(cfg);
    let db = eng.session();
    eng.create_warehouse("wh", 1).unwrap();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, 100 / v q FROM t",
    )
    .unwrap();
    // Poison the data: division by zero on refresh.
    db.execute("INSERT INTO t VALUES (2, 0)").unwrap();
    eng.run_scheduler_until(Timestamp::from_secs(600)).unwrap();
    eng.inspect(|s| {
        let id = s.catalog().resolve("d").unwrap().id;
        assert!(s.scheduler().state(id).unwrap().suspended);
        assert_eq!(
            s.catalog().get(id).unwrap().as_dt().unwrap().state,
            dt_catalog::DtState::SuspendedOnErrors
        );
    });
    let failed = eng.refresh_log().count_action("failed");
    assert_eq!(failed, 3);
    // Fix the data and resume: refreshes pick up from where they left off.
    db.execute("DELETE FROM t WHERE v = 0").unwrap();
    db.execute("ALTER DYNAMIC TABLE d RESUME").unwrap();
    eng.run_scheduler_until(Timestamp::from_secs(700)).unwrap();
    let rows = db.query_sorted("SELECT q FROM d").unwrap();
    assert_eq!(rows, vec![row!(100i64)]);
}

#[test]
fn drop_undrop_upstream_recovers_automatically() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k FROM t",
    )
    .unwrap();
    // Upstream DDL takes precedence over downstream (§3.4): the drop
    // succeeds and the DT's refreshes fail afterwards — as logged failed
    // refreshes, not as errors of the statement that asked for one.
    db.execute("DROP TABLE t").unwrap();
    db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
    assert_eq!(eng.refresh_log().last().unwrap().action, "failed");
    // UNDROP: refreshes resume without issue.
    db.execute("UNDROP TABLE t").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
    let rows = db.query_sorted("SELECT k FROM d").unwrap();
    assert_eq!(rows, vec![row!(1i64), row!(2i64)]);
}

#[test]
fn replacing_upstream_forces_reinitialize() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k FROM t",
    )
    .unwrap();
    db.execute("CREATE OR REPLACE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
    assert_eq!(eng.refresh_log().last().unwrap().action, "reinitialize");
    let rows = db.query_sorted("SELECT k FROM d").unwrap();
    assert_eq!(rows, vec![row!(7i64)]);
}

#[test]
fn isolation_levels_per_query_shape() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d1 TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d2 TARGET_LAG = '1 hour' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    // Single DT → snapshot isolation (reported as PL-3 here since a single
    // snapshot read admits no phenomena).
    let l1 = db.query_isolation_level("SELECT * FROM d1").unwrap();
    assert_eq!(l1, dt_isolation::IsolationLevel::Pl3);
    // Joining two DTs whose data timestamps may differ → Read Committed.
    let l2 = db
        .query_isolation_level("SELECT * FROM d1 a JOIN d2 b ON a.k = b.k")
        .unwrap();
    assert_eq!(l2, dt_isolation::IsolationLevel::Pl2);
    // DT joined with a base table → Read Committed.
    let l3 = db
        .query_isolation_level("SELECT * FROM d1 a JOIN t ON a.k = t.k")
        .unwrap();
    assert_eq!(l3, dt_isolation::IsolationLevel::Pl2);
}

#[test]
fn time_travel_reads_past_versions() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    eng.clock().advance(Duration::from_secs(100));
    let before = eng.now();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let rows = db.query_at("SELECT * FROM t", before).unwrap().into_rows();
    assert_eq!(rows, vec![row!(1i64)]);
    let rows = db.query_sorted("SELECT * FROM t").unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn rbac_operate_required_for_manual_refresh() {
    let eng = Engine::new(DbConfig::default());
    // Session-scoped roles: the creating session owns what it creates.
    let db = eng.session_as("owner_role");
    eng.create_warehouse("wh", 1).unwrap();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    // Owner can refresh.
    assert!(db.manual_refresh("d").is_ok());
    // Another role cannot until granted OPERATE.
    db.set_role("analyst");
    let err = db.manual_refresh("d").unwrap_err();
    assert!(matches!(err, dt_common::DtError::AccessDenied { .. }));
    db.grant("analyst", "d", dt_catalog::Privilege::Operate).unwrap();
    assert!(db.manual_refresh("d").is_ok());
}

#[test]
fn window_function_dt_maintains_incrementally() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (grp INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (1, 20), (2, 5)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE w TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT grp, v, sum(v) OVER (PARTITION BY grp ORDER BY v) run FROM t",
    )
    .unwrap();
    db.execute("INSERT INTO t VALUES (1, 30)").unwrap();
    db.execute("ALTER DYNAMIC TABLE w REFRESH").unwrap();
    assert_eq!(eng.refresh_log().last().unwrap().action, "incremental");
    let rows = db.query_sorted("SELECT grp, v, run FROM w").unwrap();
    assert_eq!(
        rows,
        vec![
            row!(1i64, 10i64, 10i64),
            row!(1i64, 20i64, 30i64),
            row!(1i64, 30i64, 60i64),
            row!(2i64, 5i64, 5i64),
        ]
    );
}

#[test]
fn outer_join_dt_with_both_strategies() {
    for strategy in [
        dt_ivm::OuterJoinStrategy::Direct,
        dt_ivm::OuterJoinStrategy::NaiveRewrite,
    ] {
        let cfg = DbConfig { validate_dvs: true, outer_join: strategy, ..DbConfig::default() };
        let eng = Engine::new(cfg);
        let db = eng.session();
        eng.create_warehouse("wh", 2).unwrap();
        db.execute("CREATE TABLE l (k INT, v INT)").unwrap();
        db.execute("CREATE TABLE r (k INT, w INT)").unwrap();
        db.execute("INSERT INTO l VALUES (1, 10), (2, 20)").unwrap();
        db.execute("INSERT INTO r VALUES (1, 100)").unwrap();
        db.execute(
            "CREATE DYNAMIC TABLE oj TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT l.k, l.v, r.w FROM l LEFT JOIN r ON l.k = r.k",
        )
        .unwrap();
        // A matching row arrives: (2,20,NULL) must become (2,20,200).
        db.execute("INSERT INTO r VALUES (2, 200)").unwrap();
        db.execute("ALTER DYNAMIC TABLE oj REFRESH").unwrap();
        let rows = db.query_sorted("SELECT * FROM oj").unwrap();
        assert_eq!(
            rows,
            vec![row!(1i64, 10i64, 100i64), row!(2i64, 20i64, 200i64)],
            "strategy {strategy:?}"
        );
    }
}

#[test]
fn querying_uninitialized_dt_errors() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         INITIALIZE = ON_SCHEDULE AS SELECT k FROM t",
    )
    .unwrap();
    let err = db.query("SELECT * FROM d").unwrap_err();
    assert!(matches!(err, dt_common::DtError::NotInitialized(_)));
    // The simulation driver initializes it.
    eng.run_scheduler_until(Timestamp::from_secs(120)).unwrap();
    assert!(db.query("SELECT * FROM d").is_ok());
}

#[test]
fn union_all_and_distinct_dts() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE a (k INT)").unwrap();
    db.execute("CREATE TABLE b (k INT)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (2)").unwrap();
    db.execute("INSERT INTO b VALUES (2), (3)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE u TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT DISTINCT k FROM (SELECT k FROM a UNION ALL SELECT k FROM b) x",
    )
    .unwrap();
    db.execute("INSERT INTO a VALUES (3), (4)").unwrap();
    db.execute("ALTER DYNAMIC TABLE u REFRESH").unwrap();
    let rows = db.query_sorted("SELECT k FROM u").unwrap();
    assert_eq!(rows, vec![row!(1i64), row!(2i64), row!(3i64), row!(4i64)]);
}

#[test]
fn view_between_table_and_dt() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 0)").unwrap();
    db.execute("CREATE VIEW nonzero AS SELECT k, v FROM t WHERE v > 0").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, v FROM nonzero",
    )
    .unwrap();
    let rows = db.query_sorted("SELECT * FROM d").unwrap();
    assert_eq!(rows, vec![row!(1i64, 10i64)]);
    // The DT depends on the *table* through the view.
    eng.inspect(|s| {
        let id = s.catalog().resolve("d").unwrap().id;
        let t = s.catalog().resolve("t").unwrap().id;
        assert_eq!(s.catalog().upstream_of(id), vec![t]);
    });
}

#[test]
fn null_handling_in_dt_payloads() {
    let (_eng, db) = setup();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, NULL), (NULL, 5)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, v FROM t",
    )
    .unwrap();
    let rows = db.query_sorted("SELECT * FROM d").unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows
        .iter()
        .any(|r| r.get(0).is_null() && r.get(1) == &Value::Int(5)));
    // Incremental delete of a NULL-bearing row.
    db.execute("DELETE FROM t WHERE v = 5").unwrap();
    db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
    let rows = db.query_sorted("SELECT * FROM d").unwrap();
    assert_eq!(rows, vec![Row::new(vec![Value::Int(1), Value::Null])]);
}

/// A refresh the scheduler issued but nobody ran must not leave its DT in
/// flight: with `u`'s refresh lock held elsewhere, `ALTER … REFRESH` of
/// `d` (which reads `u`) conflicts, and afterwards both DTs still refresh
/// on schedule.
#[test]
fn a_refresh_issued_but_never_run_does_not_stay_in_flight() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    for (name, from) in [("u", "t"), ("d", "u")] {
        db.execute(&format!(
            "CREATE DYNAMIC TABLE {name} TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k FROM {from}"
        ))
        .unwrap();
    }
    let (u, ts) = eng.inspect(|s| (s.catalog().resolve("u").unwrap().id, s.txn_manager().hlc().tick()));
    let held = eng.prepare_refresh(u, ts).unwrap();
    let err = db.manual_refresh("d").unwrap_err();
    assert!(err.is_conflict(), "{err:?}");
    drop(held);

    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let stats = eng.run_scheduler_until(Timestamp::from_secs(600)).unwrap();
    assert!(stats.refreshes >= 2, "{stats:?}");
    assert_eq!(db.query_sorted("SELECT k FROM d").unwrap(), vec![row!(1i64), row!(2i64)]);
}

/// One DT whose initialization fails must not wedge the simulated
/// scheduler for the fleet: each failed initialization is a failed
/// refresh of that DT, counted and reported until it is suspended on
/// errors (§3.3.3), while a healthy DT keeps refreshing.
#[test]
fn a_failed_initialization_does_not_wedge_the_scheduler() {
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("CREATE TABLE z (k INT)").unwrap();
    db.execute("INSERT INTO z VALUES (0)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE good TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k FROM t",
    )
    .unwrap();
    let err = db
        .execute(
            "CREATE DYNAMIC TABLE bad TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT 10 / k q FROM z",
        )
        .unwrap_err();
    assert!(err.is_user_error(), "{err:?}");

    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let stats = eng.run_scheduler_until(Timestamp::from_secs(600)).unwrap();
    assert_eq!(db.query_sorted("SELECT k FROM good").unwrap(), vec![row!(1i64), row!(2i64)]);
    // The default threshold is five consecutive failures.
    assert_eq!(stats.failed, 5, "{stats:?}");
    eng.inspect(|s| {
        let id = s.catalog().resolve("bad").unwrap().id;
        assert!(s.scheduler().state(id).unwrap().suspended);
        assert_eq!(
            s.catalog().get(id).unwrap().as_dt().unwrap().state,
            dt_catalog::DtState::SuspendedOnErrors
        );
    });
    // Suspended, it is still uninitialized: reads say so, and RESUME puts
    // it back in line for an initialization.
    let err = db.query("SELECT q FROM bad").unwrap_err();
    assert!(matches!(err, DtError::NotInitialized(_)), "{err:?}");
    db.execute("UPDATE z SET k = 2").unwrap();
    db.execute("ALTER DYNAMIC TABLE bad RESUME").unwrap();
    eng.run_scheduler_until(Timestamp::from_secs(660)).unwrap();
    assert_eq!(db.query_sorted("SELECT q FROM bad").unwrap(), vec![row!(5i64)]);
    eng.inspect(|s| {
        let id = s.catalog().resolve("bad").unwrap().id;
        let state = s.catalog().get(id).unwrap().as_dt().unwrap().state;
        assert_eq!(state, dt_catalog::DtState::Active);
    });
}

/// `CREATE DYNAMIC TABLE` beside other refreshes of its upstream DT: an
/// initialization whose forced refresh of `u` loses (`u`'s refresh lock
/// is held, or a round moved `u` past the chosen timestamp) backs off and
/// chooses again, so every CREATE succeeds and initializes.
#[test]
fn creating_a_dt_over_a_dt_beside_refresh_rounds_initializes_it() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let (eng, db) = setup();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    let values: Vec<String> = (0..2000).map(|k| format!("({k})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE u TARGET_LAG = '1 minute' WAREHOUSE = wh REFRESH_MODE = FULL \
         AS SELECT k FROM t",
    )
    .unwrap();
    // DOWNSTREAM lag: the initialization timestamp is "now", so each
    // CREATE forces a refresh of `u`.
    let create = |name: &str| {
        format!("CREATE DYNAMIC TABLE {name} TARGET_LAG = DOWNSTREAM WAREHOUSE = wh AS SELECT k FROM u")
    };

    // A refresh of `u` in flight elsewhere: the CREATE waits it out.
    let (u, ts) = eng.inspect(|s| (s.catalog().resolve("u").unwrap().id, s.txn_manager().hlc().tick()));
    let held = eng.prepare_refresh(u, ts).unwrap();
    let creator = {
        let (sql, session) = (create("d"), eng.session());
        std::thread::spawn(move || session.execute(&sql))
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    held.install().unwrap();
    creator.join().unwrap().unwrap();
    assert_eq!(db.query("SELECT k FROM d").unwrap().rows().len(), 2000);

    // Rounds on another thread, refreshing `u` (and every `d…`) again and
    // again while the CREATEs run.
    let stop = Arc::new(AtomicBool::new(false));
    let rounds = {
        let (eng, stop, writer) = (eng.clone(), Arc::clone(&stop), eng.session());
        std::thread::spawn(move || {
            let mut n = 2000;
            while !stop.load(Ordering::Relaxed) {
                writer.execute(&format!("INSERT INTO t VALUES ({n})")).unwrap();
                eng.refresh_all_parallel().unwrap();
                n += 1;
            }
            n - 2000
        })
    };
    for i in 0..20 {
        db.execute(&create(&format!("d{i}"))).unwrap();
        assert!(db.query(&format!("SELECT k FROM d{i}")).unwrap().rows().len() >= 2000);
    }
    stop.store(true, Ordering::Relaxed);
    assert!(rounds.join().unwrap() > 0);
}

/// A DT dropped while its simulated refresh is still running on the
/// warehouse: the refresh's completion is discarded when it comes due, so
/// the scheduler keeps running, and after `UNDROP` the DT refreshes again.
#[test]
fn dropping_a_dt_with_a_pending_completion_does_not_fail_the_scheduler() {
    let cost_model = dt_scheduler::CostModel { fixed_units: 100_000.0, unit_per_row: 1.0 };
    let eng = Engine::new(DbConfig { cost_model, ..DbConfig::default() });
    eng.create_warehouse("wh", 1).unwrap();
    let db = eng.session();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    // The refresh issued at the 60 s grid point runs for 100 s.
    eng.run_scheduler_until(eng.now().add(Duration::from_secs(80))).unwrap();
    db.execute("DROP TABLE d").unwrap();
    eng.run_scheduler_until(eng.now().add(Duration::from_secs(600))).unwrap();

    db.execute("UNDROP TABLE d").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let stats = eng.run_scheduler_until(eng.now().add(Duration::from_secs(600))).unwrap();
    assert!(stats.refreshes >= 1, "{stats:?}");
    assert_eq!(db.query_sorted("SELECT k FROM d").unwrap(), vec![row!(1i64), row!(2i64)]);
}
