//! Concurrency smoke test: the engine/session split must let N reader
//! sessions query while another session drives refreshes, with no
//! deadlocks and snapshot-consistent results — and, since the MVCC read
//! path landed, readers must hold **no engine lock** during bind, plan,
//! and execute: a pinned [`dt_core::ReadSnapshot`] keeps answering even
//! while a writer sits inside the write lock mid-refresh.
//!
//! The invariant for the smoke test: `bal` holds pairs of rows whose `v`
//! values sum to zero per statement (each INSERT commits atomically), so
//! `SELECT * FROM agg` — a single-DT read, hence one consistent snapshot
//! (§4) — must always sum to zero, no matter how refreshes interleave.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

use dt_common::{Duration, Timestamp, Value};
use dt_core::{DbConfig, Engine};

#[test]
fn readers_run_while_scheduler_refreshes() {
    let engine = Engine::new(DbConfig { validate_dvs: true, ..DbConfig::default() });
    engine.create_warehouse("wh", 4).unwrap();
    let admin = engine.session();
    admin.execute("CREATE TABLE bal (k INT, v INT)").unwrap();
    admin.execute("INSERT INTO bal VALUES (1, 100), (2, -100)").unwrap();
    admin
        .execute(
            "CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k, sum(v) s FROM bal GROUP BY k",
        )
        .unwrap();

    let done = AtomicBool::new(false);
    let readers_started = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // N reader sessions, each its own thread and session handle.
        for reader in 0..4 {
            let engine = engine.clone();
            let done = &done;
            let readers_started = &readers_started;
            scope.spawn(move || {
                let session = engine.session_as(&format!("reader_{reader}"));
                let stmt = session
                    .prepare("SELECT s FROM agg WHERE s > ? OR s <= ?")
                    .unwrap();
                readers_started.fetch_add(1, Ordering::Relaxed);
                let mut queries = 0u64;
                // Check `done` at the bottom so every reader completes at
                // least one full query cycle even under release-mode
                // scheduling on a single core.
                loop {
                    // Plain query: the whole DT, one snapshot. Sum is 0.
                    let total: i64 = session
                        .query("SELECT * FROM agg")
                        .unwrap()
                        .iter()
                        .map(|r| r.get(1).expect_int().unwrap())
                        .sum();
                    assert_eq!(total, 0, "snapshot tore in reader {reader}");
                    // Prepared query with bindings exercises the same read
                    // path through the statement cache.
                    let rows = stmt
                        .query(&[Value::Int(0), Value::Int(0)])
                        .unwrap();
                    let total: i64 =
                        rows.iter().map(|r| r.get(0).expect_int().unwrap()).sum();
                    assert_eq!(total, 0);
                    queries += 1;
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                assert!(queries > 0, "reader {reader} never ran");
            });
        }

        // Writer: DML + scheduler driving + manual refreshes, all under the
        // write lock, interleaving with the readers. Wait for every reader
        // thread to be up first — in release mode the whole writer loop can
        // otherwise finish before a reader is even scheduled.
        while readers_started.load(Ordering::Relaxed) < 4 {
            std::thread::yield_now();
        }
        let writer = engine.session();
        let mut t = Timestamp::EPOCH;
        for i in 0..30i64 {
            let v = 10 + i;
            writer
                .execute(&format!(
                    "INSERT INTO bal VALUES (1, {v}), (2, {})",
                    -v
                ))
                .unwrap();
            if i % 3 == 0 {
                writer.manual_refresh("agg").unwrap();
            } else {
                t = t.add(Duration::from_secs(60));
                engine.run_scheduler_until(t).unwrap();
            }
        }
        done.store(true, Ordering::Relaxed);
    });

    // Final state: everything drained, still balanced.
    let total: i64 = admin
        .query("SELECT * FROM agg")
        .unwrap()
        .iter()
        .map(|r| r.get(1).expect_int().unwrap())
        .sum();
    assert_eq!(total, 0);
    let failed = engine.refresh_log().count_action("failed");
    assert_eq!(failed, 0);
}

/// Snapshot isolation: a reader holding a [`dt_core::ReadSnapshot`]
/// re-reads byte-identical results while another session commits DML and
/// drives refreshes; fresh reads see the new state.
#[test]
fn pinned_snapshot_rereads_identically_under_concurrent_writes() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 2).unwrap();
    let admin = engine.session();
    admin.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    admin.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    admin
        .execute(
            "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k, sum(v) s FROM t GROUP BY k",
        )
        .unwrap();

    let snap = admin.snapshot();
    let table_before = snap.query_sorted("SELECT * FROM t").unwrap();
    let dt_before = snap.query_sorted("SELECT * FROM d").unwrap();
    let show_before = snap
        .execute_read("SHOW DYNAMIC TABLES")
        .unwrap()
        .try_rows()
        .unwrap();
    assert_eq!(table_before.len(), 2);
    assert_eq!(dt_before.len(), 2);

    // Another session commits DML, refreshes, and even drops/creates DDL.
    let writer = engine.session();
    writer.execute("INSERT INTO t VALUES (3, 30)").unwrap();
    writer.execute("DELETE FROM t WHERE k = 1").unwrap();
    writer.manual_refresh("d").unwrap();
    engine
        .run_scheduler_until(engine.now().add(Duration::from_secs(120)))
        .unwrap();
    writer.execute("CREATE TABLE unrelated (x INT)").unwrap();

    // The pinned snapshot re-reads byte-identical results...
    assert_eq!(snap.query_sorted("SELECT * FROM t").unwrap(), table_before);
    assert_eq!(snap.query_sorted("SELECT * FROM d").unwrap(), dt_before);
    assert_eq!(
        snap.execute_read("SHOW DYNAMIC TABLES")
            .unwrap()
            .try_rows()
            .unwrap(),
        show_before
    );
    // ...its frozen catalog doesn't even know about post-capture DDL...
    assert!(snap.query("SELECT * FROM unrelated").is_err());
    // ...while fresh session reads see the new state.
    let table_now = admin.query_sorted("SELECT * FROM t").unwrap();
    assert_ne!(table_now, table_before);
    assert_eq!(table_now.len(), 2);
    assert_ne!(admin.query_sorted("SELECT * FROM d").unwrap(), dt_before);
}

/// The acceptance check for the MVCC read path: a long-running reader
/// that overlaps a refresh completes without ever waiting for the write
/// lock. A real refresh lands, then a writer thread takes the engine
/// write lock and *keeps holding it* until the reader has finished full
/// bind+plan+execute cycles against a snapshot pinned before the refresh
/// — under the pre-MVCC read path (reads under the engine read lock) this
/// test would deadlock.
#[test]
fn long_reader_overlapping_a_refresh_never_waits_for_the_write_lock() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 1).unwrap();
    let session = engine.session();
    session.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    session
        .execute("INSERT INTO t VALUES (1, 5), (2, 7), (3, 9)")
        .unwrap();
    session
        .execute(
            "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k, sum(v) s FROM t GROUP BY k",
        )
        .unwrap();
    // Stage new data so the refresh below has real work to do.
    session.execute("INSERT INTO t VALUES (1, 100)").unwrap();

    let snap = session.snapshot();
    let expected = snap.query_sorted("SELECT * FROM d").unwrap();
    let stale_t = snap.query_sorted("SELECT * FROM t").unwrap();

    // A real refresh lands...
    session.manual_refresh("d").unwrap();
    let (locked_tx, locked_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let writer_engine = engine.clone();
        scope.spawn(move || {
            writer_engine.inspect_mut(|_| {
                // ...then the write lock is taken, and it stays held until
                // the reader reports in (bounded wait so a reader failure
                // can't hang the test).
                locked_tx.send(()).unwrap();
                let _ = done_rx.recv_timeout(std::time::Duration::from_secs(60));
            });
        });

        // Wait until the writer provably holds the write lock.
        locked_rx.recv().unwrap();
        // Long-running reader: many full bind+plan+execute cycles, plus
        // EXPLAIN and SHOW, all against the pinned snapshot. If any of
        // them touched the engine lock this would deadlock (the writer
        // won't release until we finish).
        for _ in 0..25 {
            assert_eq!(snap.query_sorted("SELECT * FROM d").unwrap(), expected);
            assert_eq!(snap.query_sorted("SELECT * FROM t").unwrap(), stale_t);
        }
        snap.execute_read("SHOW DYNAMIC TABLES").unwrap();
        snap.execute_read("EXPLAIN SELECT * FROM d").unwrap();
        assert!(snap
            .query_isolation_level("SELECT * FROM d")
            .is_ok());
        done_tx.send(()).unwrap();
    });

    // With the lock released, a fresh read sees the refreshed DT.
    let refreshed = session.query_sorted("SELECT * FROM d").unwrap();
    assert_ne!(refreshed, expected);
}

#[test]
fn sessions_share_one_engine_but_keep_their_own_roles() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 1).unwrap();
    let owner = engine.session_as("owner");
    owner.execute("CREATE TABLE t (k INT)").unwrap();
    owner
        .execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t")
        .unwrap();

    // A concurrent session with a different role is denied OPERATE until
    // granted — role state is per-session, not process-global.
    let analyst = engine.session_as("analyst");
    let handle = std::thread::spawn(move || analyst.manual_refresh("d"));
    let err = handle.join().unwrap().unwrap_err();
    assert!(matches!(err, dt_common::DtError::AccessDenied { .. }));
    // The owner session is unaffected by the other session's role.
    assert!(owner.manual_refresh("d").is_ok());
    owner.grant("analyst", "d", dt_catalog::Privilege::Operate).unwrap();
    let analyst = engine.session_as("analyst");
    assert!(analyst.manual_refresh("d").is_ok());
}

/// `SHOW STATS` (executed, prepared, and over the wire) and the four
/// stats accessors read only the engine's lock-free telemetry — WAL
/// counters and `active_txns` included — so they answer while another
/// thread sits inside the engine **write** lock: the statement that says
/// what the install pipeline is doing never waits for it.
#[test]
fn stats_answer_while_the_engine_write_lock_is_held() {
    let dir = std::env::temp_dir().join(format!("dt-stats-lock-free-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::open(&dir).unwrap();
    let session = engine.session();
    session.execute("CREATE TABLE t (k INT)").unwrap();
    session.execute("INSERT INTO t VALUES (1)").unwrap();
    let server =
        dt_server::Server::bind(engine.clone(), "127.0.0.1:0", dt_server::ServerConfig::default())
            .unwrap();
    let mut client = dt_client::Client::connect(server.local_addr()).unwrap();

    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (stats_tx, stats_rx) = mpsc::channel();
    let answered = std::thread::scope(|scope| {
        let engine = &engine;
        scope.spawn(move || {
            engine.inspect_mut(|_| {
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
        });
        held_rx.recv().unwrap();
        scope.spawn(|| {
            let shown = session.execute("SHOW STATS").unwrap().into_rows().unwrap();
            let prepared = session.prepare("SHOW STATS").unwrap().execute(&[]).unwrap();
            let remote = client.stats().unwrap();
            let remote_shown = client.query("SHOW STATS").unwrap();
            let stats = (
                shown.len(),
                engine.wal_stats(),
                engine.commit_stats(),
                engine.refresh_stats(),
                engine.lock_stats(),
                prepared.into_rows().unwrap().len(),
                remote,
                remote_shown.len(),
            );
            stats_tx.send(stats).unwrap();
        });
        // Release before judging, so a blocked probe fails the test
        // instead of hanging the scope.
        let answered = stats_rx.recv_timeout(std::time::Duration::from_secs(10));
        release_tx.send(()).unwrap();
        answered
    });
    let (shown, wal, commits, _, _, prepared, remote, remote_shown) =
        answered.expect("stats waited for the engine write lock");
    assert_eq!(shown, 29);
    assert_eq!((wal.appends, commits.commits), (2, 1));
    assert_eq!((prepared, remote.iter().count(), remote_shown), (29, 29, 29));
    assert_eq!(remote.get("active_connections"), Some(1));
    assert_eq!(remote.get("wal_appends"), Some(2));
    drop(client);
    server.shutdown();
    drop((session, engine));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `refresh` on one thread. On another, once a refresh transaction is
/// open, commit an auto-commit INSERT into the unrelated `other` and read
/// `f` through a fresh snapshot, then check that the refresh has not
/// finished. Returns `f`'s row count as the read saw it.
fn beside_a_refresh(engine: &Engine, refresh: impl FnOnce() + Send) -> dt_common::DtResult<usize> {
    let finished = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            refresh();
            finished.store(true, Ordering::SeqCst);
        });
        let refreshing = || (engine.stats().iter()).any(|&(n, v)| n == "active_txns" && v >= 1);
        while !refreshing() {
            assert!(!finished.load(Ordering::SeqCst), "no refresh transaction was seen");
            std::thread::yield_now();
        }
        engine.session().execute("INSERT INTO other VALUES (1)").unwrap();
        let read = engine.snapshot().query("SELECT * FROM f").map(|r| r.len());
        assert!(!finished.load(Ordering::SeqCst), "the INSERT and the read waited for the refresh");
        read
    })
}

/// A refresh is a transaction on its own warehouse (§3.3.1, §5.3): whoever
/// runs it — `CREATE DYNAMIC TABLE`'s initialization, `ALTER … REFRESH`,
/// the simulated scheduler — it computes with no engine lock held, so an
/// unrelated writer and a reader finish while a FULL refresh of a
/// 200 000-row source is still computing, and the reader sees the DT as it
/// was before the refresh.
#[test]
fn refreshes_compute_beside_readers_and_writers() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 1).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE src (k INT, v INT)").unwrap();
    s.execute("CREATE TABLE other (x INT)").unwrap();
    for chunk in 0..20 {
        let rows: Vec<String> = (0..10_000)
            .map(|i| format!("({}, {})", chunk * 10_000 + i, i % 7))
            .collect();
        s.execute(&format!("INSERT INTO src VALUES {}", rows.join(", "))).unwrap();
    }

    let create = "CREATE DYNAMIC TABLE f TARGET_LAG = '1 minute' WAREHOUSE = wh \
                  REFRESH_MODE = FULL AS SELECT k, v FROM src";
    let read = beside_a_refresh(&engine, || {
        s.execute(create).unwrap();
    });
    assert!(matches!(read, Err(dt_common::DtError::NotInitialized(_))), "{read:?}");

    s.execute("INSERT INTO src VALUES (-1, 0)").unwrap();
    let read = beside_a_refresh(&engine, || {
        s.execute("ALTER DYNAMIC TABLE f REFRESH").unwrap();
    });
    assert_eq!(read.unwrap(), 200_000);

    s.execute("INSERT INTO src VALUES (-2, 0)").unwrap();
    let read = beside_a_refresh(&engine, || {
        engine.run_scheduler_until(engine.now().add(Duration::from_secs(60))).unwrap();
    });
    assert_eq!(read.unwrap(), 200_001);
    assert_eq!(s.query("SELECT * FROM f").unwrap().len(), 200_002);

    // DDL beside a refresh: a CREATE TABLE and a SUSPEND / RESUME of
    // another DT finish while the refresh of `f` is still computing.
    s.execute("CREATE DYNAMIC TABLE g TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT x FROM other")
        .unwrap();
    s.execute("INSERT INTO src VALUES (-3, 0)").unwrap();
    let finished = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            s.execute("ALTER DYNAMIC TABLE f REFRESH").unwrap();
            finished.store(true, Ordering::SeqCst);
        });
        let refreshing = || (engine.stats().iter()).any(|&(n, v)| n == "active_txns" && v >= 1);
        while !refreshing() {
            assert!(!finished.load(Ordering::SeqCst), "no refresh transaction was seen");
            std::thread::yield_now();
        }
        let ddl = engine.session();
        for sql in ["CREATE TABLE n (x INT)", "ALTER DYNAMIC TABLE g SUSPEND", "ALTER DYNAMIC TABLE g RESUME"] {
            ddl.execute(sql).unwrap();
        }
        assert!(!finished.load(Ordering::SeqCst), "the DDL waited for the refresh");
    });
    assert_eq!(s.query("SELECT * FROM f").unwrap().len(), 200_003);
}

/// A transaction's bookkeeping — `rollback`, dropping the handle, a
/// read-only `commit` — reaches the transaction manager on the engine
/// handle, not through the engine lock: each finishes while another
/// thread holds the engine **write** lock.
#[test]
fn transaction_bookkeeping_finishes_while_the_engine_write_lock_is_held() {
    let engine = Engine::new(DbConfig::default());
    let session = engine.session();
    session.execute("CREATE TABLE t (k INT)").unwrap();
    session.execute("INSERT INTO t VALUES (1)").unwrap();
    let (rolled_back, dropped, read_only) = (session.begin(), session.begin(), session.begin());
    assert_eq!(read_only.query("SELECT * FROM t").unwrap().len(), 1);

    let released = AtomicBool::new(false);
    let (held_tx, held_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let (engine, released) = (&engine, &released);
        scope.spawn(move || {
            engine.inspect_mut(|_| {
                held_tx.send(()).unwrap();
                // Held until the probes are done, 2 s at most.
                let _ = done_rx.recv_timeout(std::time::Duration::from_secs(2));
                released.store(true, Ordering::SeqCst);
            })
        });
        held_rx.recv().unwrap();
        let still_held = |what: &str| {
            assert!(
                !released.load(Ordering::SeqCst),
                "{what} waited for the engine write lock"
            );
        };
        rolled_back.rollback().unwrap();
        still_held("rollback");
        drop(dropped);
        still_held("dropping a transaction");
        read_only.commit().unwrap();
        still_held("a read-only commit");
        done_tx.send(()).unwrap();
    });
    let active = engine
        .stats()
        .into_iter()
        .find(|(name, _)| *name == "active_txns");
    assert_eq!(active, Some(("active_txns", 0)));
}
