//! Time travel, skip semantics, and frontier behaviour across refreshes.

use dt_common::{row, Duration, SimClock, Timestamp};
use dt_core::{DbConfig, Engine, Simulation};
use dt_scheduler::CostModel;

#[test]
fn dt_time_travel_history_tracks_refreshes() {
    let cfg = DbConfig { validate_dvs: true, ..DbConfig::default() };
    let clock = SimClock::new();
    let simulation = Simulation { clock: clock.clone(), ..Simulation::default() };
    let eng = Engine::simulated(cfg, simulation).unwrap();
    let db = eng.session();
    eng.create_warehouse("wh", 2).unwrap();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    clock.advance(Duration::from_secs(100));
    let after_init = eng.now();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();

    // Time travel to before the second refresh shows the old contents.
    let rows = db.query_at("SELECT k FROM d", after_init).unwrap().into_rows();
    assert_eq!(rows, vec![row!(1i64)]);
    let rows = db
        .query_at("SELECT k FROM d", eng.now())
        .unwrap()
        .into_sorted_rows();
    assert_eq!(rows, vec![row!(1i64), row!(2i64)]);
}

#[test]
fn skipped_refreshes_reduce_time_travel_granularity_but_not_correctness() {
    // §3.3.3: a skip leaves no time-travel entry for the skipped data
    // timestamp, and the following refresh covers the whole interval.
    let cfg = DbConfig { validate_dvs: true, ..DbConfig::default() };
    // Heavy refreshes: ~100 s on one node, period 48 s → skips.
    let cost_model = CostModel {
        fixed_units: 100_000.0,
        unit_per_row: 1.0,
    };
    let eng = Engine::simulated(cfg, Simulation { cost_model, ..Simulation::default() }).unwrap();
    let db = eng.session();
    eng.create_warehouse("wh", 1).unwrap();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (0, 0)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, sum(v) s FROM t GROUP BY k",
    )
    .unwrap();
    // 10 minutes of DML every 20 s.
    let mut t = Timestamp::EPOCH;
    let mut i = 0;
    while t < Timestamp::from_secs(600) {
        t = t.add(Duration::from_secs(20));
        eng.run_scheduler_until(t).unwrap();
        i += 1;
        db.execute(&format!("INSERT INTO t VALUES ({}, {i})", i % 3)).unwrap();
    }
    eng.run_scheduler_until(Timestamp::from_secs(600)).unwrap();
    eng.inspect(|s| {
        let id = s.catalog().resolve("d").unwrap().id;
        let st = s.scheduler().state(id).unwrap();
        assert!(st.skipped_total > 0, "expected skips under pressure");
        // Every executed refresh upheld DVS (validate_dvs checked), and the
        // refresh count is below the grid-point count by the skip count.
        let refreshes: u64 = st.action_counts.values().sum();
        assert!(refreshes + st.skipped_total <= 600 / 48 + 1);
    });
}

#[test]
fn frontier_only_moves_forward_under_mixed_refresh_kinds() {
    let cfg = DbConfig { validate_dvs: true, ..DbConfig::default() };
    let eng = Engine::simulated(cfg, Simulation::default()).unwrap();
    let db = eng.session();
    eng.create_warehouse("wh", 4).unwrap();
    db.execute("CREATE TABLE a (k INT)").unwrap();
    db.execute("CREATE TABLE b (k INT)").unwrap();
    db.execute("INSERT INTO a VALUES (1)").unwrap();
    db.execute("INSERT INTO b VALUES (2)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k FROM a UNION ALL SELECT k FROM b",
    )
    .unwrap();
    // Alternate DML on a and b; manual + scheduled refreshes interleave.
    for i in 0..5 {
        db.execute(&format!("INSERT INTO a VALUES ({i})")).unwrap();
        db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
        db.execute(&format!("INSERT INTO b VALUES ({i})")).unwrap();
        let next = eng.now().add(Duration::from_secs(60));
        eng.run_scheduler_until(next).unwrap();
    }
    db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
    let rows = db.query_sorted("SELECT k FROM d").unwrap();
    assert_eq!(rows.len(), 12); // 2 seed + 10 inserts
}

#[test]
fn no_data_refreshes_advance_data_timestamp_without_new_versions() {
    let clock = SimClock::new();
    let simulation = Simulation { clock: clock.clone(), ..Simulation::default() };
    let eng = Engine::simulated(DbConfig::default(), simulation).unwrap();
    let db = eng.session();
    eng.create_warehouse("wh", 2).unwrap();
    db.execute("CREATE TABLE t (k INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    // Three manual refreshes with no DML: all NO_DATA.
    for _ in 0..3 {
        clock.advance(Duration::from_secs(60));
        db.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
        assert_eq!(eng.refresh_log().last().unwrap().action, "no_data");
    }
    // The scheduler's data timestamp advanced with each NO_DATA refresh.
    eng.inspect(|s| {
        let id = s.catalog().resolve("d").unwrap().id;
        let st = s.scheduler().state(id).unwrap();
        assert_eq!(st.action_counts["no_data"], 3);
    });
}
