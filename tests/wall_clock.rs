//! Wall time in a served engine: `Engine::new` and `Engine::open` read
//! the system clock, so commit timestamps, data timestamps and the lags
//! the scheduler records are microseconds since the Unix epoch (§3.2,
//! §3.3.2, §5.3). Only an engine built with `Engine::simulated` runs on a
//! `SimClock` and drives the simulated scheduler.

use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

use dt_common::{row, DtError, Duration, SimClock, Timestamp};
use dt_core::{DbConfig, DurabilityMode, Engine, Simulation};

/// The system clock, read the way the engine reads it.
fn system_now() -> Timestamp {
    Timestamp::from_micros(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_micros() as i64,
    )
}

/// A per-test scratch directory, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let path = std::env::temp_dir().join(format!("dt-wall-clock-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TestDir(path)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_served_engine_records_lags_in_wall_time() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 1).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t")
        .unwrap();
    for k in 0..3 {
        s.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
        engine.refresh_all_parallel().unwrap();
    }
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    s.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
    assert_eq!(s.query_sorted("SELECT k FROM d").unwrap().len(), 4);

    let now = system_now();
    let (samples, credits) = engine.inspect(|st| {
        let id = st.catalog().resolve("d").unwrap().id;
        let samples = st.scheduler().state(id).unwrap().lag_samples.clone();
        (samples, st.warehouses().total_credits())
    });
    // Three rounds and one manual refresh: a peak and a trough each.
    assert_eq!(samples.len(), 8, "{samples:?}");
    for sample in &samples {
        assert!(sample.lag >= Duration::ZERO, "{sample:?}");
        assert!(
            now.since(sample.at).as_micros().abs() < 1_000_000,
            "{sample:?} vs {now}"
        );
    }
    assert!(
        engine.now().since(now).as_micros().abs() < 1_000_000,
        "{} vs {now}",
        engine.now()
    );
    // On the wall clock a refresh runs no warehouse model.
    assert_eq!(credits, 0.0);
}

#[test]
fn commits_are_stamped_in_wall_time() {
    let engine = Engine::new(DbConfig::default());
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    let mut txn = s.begin();
    txn.execute("INSERT INTO t VALUES (1)").unwrap();
    let first = txn.commit().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut txn = s.begin();
    txn.execute("INSERT INTO t VALUES (2)").unwrap();
    let second = txn.commit().unwrap();

    assert!(
        second.since(first) >= Duration::from_millis(50),
        "{first} then {second}"
    );
    let between = first.add(Duration::from_millis(10));
    assert_eq!(
        s.query_at("SELECT k FROM t", between).unwrap().into_rows(),
        vec![row!(1i64)]
    );
    assert_eq!(
        s.query_sorted("SELECT k FROM t").unwrap(),
        vec![row!(1i64), row!(2i64)]
    );
}

#[test]
fn a_log_written_ahead_of_the_wall_clock_reopens_behind_it() {
    let dir = TestDir::new("ahead");
    let config = DbConfig {
        durability: DurabilityMode::wal(&dir.0),
        ..DbConfig::default()
    };
    let ahead = SimClock::starting_at(system_now().add(Duration::from_hours(1)));
    let mut stamps = Vec::new();
    {
        let simulation = Simulation {
            clock: ahead.clone(),
            ..Simulation::default()
        };
        let engine = Engine::simulated(config, simulation).unwrap();
        let s = engine.session();
        s.execute("CREATE TABLE t (k INT)").unwrap();
        for k in 0..3 {
            let mut txn = s.begin();
            txn.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
            stamps.push(txn.commit().unwrap());
            ahead.advance(Duration::from_secs(1));
        }
    }
    // Reopened on the wall clock, which now reads behind every replayed
    // stamp: the next commit still stamps after all of them.
    let engine = Engine::open(&dir.0).unwrap();
    assert!(
        engine.now() < stamps[0],
        "the wall clock reads behind the log"
    );
    let s = engine.session();
    let mut txn = s.begin();
    txn.execute("INSERT INTO t VALUES (3)").unwrap();
    let next = txn.commit().unwrap();
    assert!(
        stamps.iter().all(|stamp| next > *stamp),
        "{next} after {stamps:?}"
    );
    assert_eq!(s.query_sorted("SELECT k FROM t").unwrap().len(), 4);
    let last_replayed = s.query_at("SELECT k FROM t", stamps[2]).unwrap();
    assert_eq!(last_replayed.len(), 3);
}

#[test]
fn the_simulated_scheduler_refuses_a_wall_clock_engine() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 1).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t")
        .unwrap();
    let refreshes = engine.refresh_log().len();
    let end = engine.now().add(Duration::from_hours(1));
    let err = engine.run_scheduler_until(end).unwrap_err();
    assert!(matches!(err, DtError::Unsupported(_)), "{err:?}");
    assert_eq!(engine.refresh_log().len(), refreshes, "it ran nothing");

    // The same calls drive a simulated engine.
    let engine = Engine::simulated(DbConfig::default(), Simulation::default()).unwrap();
    engine.create_warehouse("wh", 1).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t")
        .unwrap();
    let stats = engine
        .run_scheduler_until(Timestamp::from_secs(3600))
        .unwrap();
    assert!(stats.refreshes > 0, "{stats:?}");
    assert_eq!(engine.now(), Timestamp::from_secs(3600));
}
