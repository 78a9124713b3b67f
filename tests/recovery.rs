//! Crash recovery: every committed transaction, refresh round, and DDL
//! operation must survive a kill at any instant. The tests simulate
//! crashes by dropping the engine (no shutdown hook exists — the WAL is
//! fsynced per commit batch, so a drop IS a kill) and then damaging the
//! on-disk state: truncating the live segment at every byte offset,
//! flipping bits in record payloads, and interleaving checkpoints. After
//! each recovery the engine must answer queries byte-identically to the
//! committed pre-crash state, including `query_at` time travel and
//! `UNDROP`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dt_common::{row, Duration, Row, Value};
use dt_core::{DbConfig, DurabilityMode, Engine};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A unique per-test scratch directory, removed on drop.
struct TestDir {
    path: PathBuf,
}

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("dt-recovery-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TestDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn durable(dir: &Path) -> Engine {
    Engine::open(dir).unwrap()
}

fn durable_with(dir: &Path, f: impl FnOnce(&mut DbConfig)) -> Engine {
    let mut cfg = DbConfig {
        durability: DurabilityMode::wal(dir),
        ..DbConfig::default()
    };
    f(&mut cfg);
    Engine::open_with_config(cfg).unwrap()
}

/// All WAL segment files in `dir`, sorted by name (= sequence order).
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("wal-") && n.ends_with(".seg"))
                .unwrap_or(false)
        })
        .collect();
    segs.sort();
    segs
}

/// Snapshot every file in the directory so a crash point can be replayed
/// repeatedly against pristine bytes.
fn snapshot_dir(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect();
    files.sort();
    files
}

fn restore_dir(dir: &Path, files: &[(PathBuf, Vec<u8>)]) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let p = entry.unwrap().path();
        if p.is_file() {
            std::fs::remove_file(&p).unwrap();
        }
    }
    for (p, bytes) in files {
        std::fs::write(p, bytes).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Plain durability: committed work survives a restart.
// ---------------------------------------------------------------------------

#[test]
fn committed_dml_and_ddl_survive_restart() {
    let dir = TestDir::new("basic");
    let before;
    {
        let eng = durable(dir.path());
        let s = eng.session();
        s.execute("CREATE TABLE t (k INT, v INT, name STRING)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, NULL)").unwrap();
        s.execute("INSERT INTO t VALUES (3, 30, 'c')").unwrap();
        s.execute("UPDATE t SET v = v + 1 WHERE k = 2").unwrap();
        s.execute("DELETE FROM t WHERE k = 1").unwrap();
        before = s.query_sorted("SELECT * FROM t").unwrap();
        // Engine dropped here without any shutdown hook: a simulated kill.
    }
    let eng = durable(dir.path());
    let s = eng.session();
    assert_eq!(s.query_sorted("SELECT * FROM t").unwrap(), before);
    assert_eq!(
        before,
        vec![Row::new(vec![Value::Int(2), Value::Int(21), Value::Null]), row!(3i64, 30i64, "c")]
    );
    // The recovered engine keeps working: more DML and another restart.
    s.execute("INSERT INTO t VALUES (4, 40, 'd')").unwrap();
    let again = s.query_sorted("SELECT * FROM t").unwrap();
    drop(s);
    drop(eng);
    let eng = durable(dir.path());
    assert_eq!(eng.session().query_sorted("SELECT * FROM t").unwrap(), again);
    assert!(eng.wal_stats().recovery_replayed > 0);
}

#[test]
fn multi_table_transaction_is_atomic_across_a_crash() {
    let dir = TestDir::new("txn");
    {
        let eng = durable(dir.path());
        let s = eng.session();
        s.execute("CREATE TABLE checking (owner INT, balance INT)").unwrap();
        s.execute("CREATE TABLE savings (owner INT, balance INT)").unwrap();
        s.execute("INSERT INTO checking VALUES (1, 100)").unwrap();
        s.execute("INSERT INTO savings VALUES (1, 50)").unwrap();
        // One transaction moves 30 across both tables: it must be durable
        // as a unit (single DmlCommit record spanning both stores).
        let mut txn = s.begin();
        txn.execute("UPDATE checking SET balance = balance - 30 WHERE owner = 1").unwrap();
        txn.execute("UPDATE savings SET balance = balance + 30 WHERE owner = 1").unwrap();
        txn.commit().unwrap();
    }
    let eng = durable(dir.path());
    let s = eng.session();
    assert_eq!(s.query_sorted("SELECT * FROM checking").unwrap(), vec![row!(1i64, 70i64)]);
    assert_eq!(s.query_sorted("SELECT * FROM savings").unwrap(), vec![row!(1i64, 80i64)]);
}

#[test]
fn concurrent_group_commits_are_all_durable_at_one_fsync_per_batch() {
    const WRITERS: usize = 4;
    const TXNS: usize = 25;
    const ROWS: usize = 8;
    let dir = TestDir::new("group");
    // Every commit below is acknowledged (unwrapped), so every row is owed.
    let assert_all_rows_present = |eng: &Engine, when: &str| {
        for w in 0..WRITERS {
            let owed: Vec<Row> = (0..TXNS * ROWS).map(|k| row!(k as i64, w as i64)).collect();
            let found = eng.session().query_sorted(&format!("SELECT * FROM t{w}")).unwrap();
            assert_eq!(found, owed, "t{w} {when}");
        }
    };
    {
        let eng = durable(dir.path());
        let s = eng.session();
        for w in 0..WRITERS {
            s.execute(&format!("CREATE TABLE t{w} (k INT, v INT)")).unwrap();
            if w % 2 == 0 {
                s.execute(&format!("ALTER TABLE t{w} SET LOCKING PESSIMISTIC")).unwrap();
            }
        }
        // Deltas over the commit window: set-up appends are excluded.
        let (commits_before, wal_before) = (eng.commit_stats().commits, eng.wal_stats());
        // Explicit transactions on disjoint tables ride the group-commit
        // queue; adaptive or pinned pessimistic, they never conflict and
        // never park.
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let s = eng.session();
                scope.spawn(move || {
                    for i in 0..TXNS {
                        let values: Vec<String> =
                            (i * ROWS..(i + 1) * ROWS).map(|k| format!("({k}, {w})")).collect();
                        let mut txn = s.begin();
                        txn.execute(&format!("INSERT INTO t{w} VALUES {}", values.join(", ")))
                            .unwrap();
                        txn.commit().unwrap();
                    }
                });
            }
        });
        assert_all_rows_present(&eng, "before the crash");
        assert_eq!(eng.commit_stats().commits - commits_before, (WRITERS * TXNS) as u64);
        assert_eq!(eng.commit_stats().conflicts, 0);
        assert_eq!(eng.lock_stats().waits, 0, "disjoint writers parked");
        let wal = eng.wal_stats();
        let (batches, fsyncs) = (wal.batches - wal_before.batches, wal.fsyncs - wal_before.fsyncs);
        assert!(batches > 0);
        assert!(fsyncs <= batches, "{fsyncs} fsyncs for {batches} WAL batches");
    }
    assert_all_rows_present(&durable(dir.path()), "after recovery");
}

#[test]
fn refresh_rounds_time_travel_and_dag_survive_restart() {
    let dir = TestDir::new("refresh");
    let (after_init, after_second, final_now);
    let (rows_init, rows_second, rows_now);
    {
        let eng = durable(dir.path());
        eng.create_warehouse("wh", 2).unwrap();
        let s = eng.session();
        s.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        s.execute(
            "CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k, sum(v) s FROM t GROUP BY k",
        )
        .unwrap();
        s.execute(
            "CREATE DYNAMIC TABLE top1 TARGET_LAG = DOWNSTREAM WAREHOUSE = wh \
             AS SELECT k, s FROM agg WHERE s >= 20",
        )
        .unwrap();
        eng.clock().advance(Duration::from_secs(60));
        after_init = eng.now();
        s.execute("INSERT INTO t VALUES (1, 5), (3, 30)").unwrap();
        s.execute("ALTER DYNAMIC TABLE agg REFRESH").unwrap();
        eng.clock().advance(Duration::from_secs(60));
        after_second = eng.now();
        s.execute("DELETE FROM t WHERE k = 2").unwrap();
        s.execute("ALTER DYNAMIC TABLE agg REFRESH").unwrap();
        final_now = eng.now();
        rows_init = s.query_at("SELECT * FROM agg", after_init).unwrap().into_sorted_rows();
        rows_second = s.query_at("SELECT * FROM agg", after_second).unwrap().into_sorted_rows();
        rows_now = s.query_sorted("SELECT * FROM agg").unwrap();
    }
    let eng = durable(dir.path());
    let s = eng.session();
    // Time-travel history is intact at every pre-crash timestamp.
    assert_eq!(s.query_at("SELECT * FROM agg", after_init).unwrap().into_sorted_rows(), rows_init);
    assert_eq!(
        s.query_at("SELECT * FROM agg", after_second).unwrap().into_sorted_rows(),
        rows_second
    );
    assert_eq!(s.query_at("SELECT * FROM agg", final_now).unwrap().into_sorted_rows(), rows_now);
    assert_eq!(s.query_sorted("SELECT * FROM agg").unwrap(), rows_now);
    // The DT DAG and scheduler were rebuilt: refreshes keep flowing, and
    // the DOWNSTREAM child refreshes through its parent.
    s.execute("INSERT INTO t VALUES (4, 400)").unwrap();
    s.execute("ALTER DYNAMIC TABLE top1 REFRESH").unwrap();
    let top = s.query_sorted("SELECT * FROM top1").unwrap();
    assert!(top.contains(&row!(4i64, 400i64)), "downstream refresh missed new data: {top:?}");
}

#[test]
fn suspension_clone_and_undrop_survive_restart() {
    let dir = TestDir::new("ddl");
    {
        let eng = durable(dir.path());
        eng.create_warehouse("wh", 2).unwrap();
        let s = eng.session();
        s.execute("CREATE TABLE t (k INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        s.execute(
            "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
        )
        .unwrap();
        s.execute("CREATE TABLE t2 CLONE t").unwrap();
        s.execute("CREATE DYNAMIC TABLE d2 CLONE d").unwrap();
        s.execute("ALTER DYNAMIC TABLE d SUSPEND").unwrap();
        s.execute("INSERT INTO t2 VALUES (3)").unwrap();
        s.execute("DROP TABLE t2").unwrap();
    }
    let eng = durable(dir.path());
    let s = eng.session();
    // The clone recovered with its carried-over refresh history.
    assert_eq!(s.query_sorted("SELECT k FROM d2").unwrap(), vec![row!(1i64), row!(2i64)]);
    // The drop recovered, and so did the dropped store: UNDROP restores it.
    assert!(s.query("SELECT k FROM t2").is_err());
    s.execute("UNDROP TABLE t2").unwrap();
    assert_eq!(
        s.query_sorted("SELECT k FROM t2").unwrap(),
        vec![row!(1i64), row!(2i64), row!(3i64)]
    );
    // The suspension recovered: d reports SUSPENDED and skips refreshes.
    let show = s.query("SHOW DYNAMIC TABLES").unwrap();
    let d_row = show.rows().iter().find(|r| r.get(0) == &Value::Str("d".into()));
    assert!(d_row.is_some(), "SHOW DYNAMIC TABLES lost d");
    s.execute("ALTER DYNAMIC TABLE d RESUME").unwrap();
    s.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
}

// ---------------------------------------------------------------------------
// Checkpoints: truncation, replay watermark, and equivalence.
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_truncates_sealed_wal_and_replay_resumes_from_watermark() {
    let dir = TestDir::new("checkpoint");
    {
        let eng = durable(dir.path());
        let s = eng.session();
        s.execute("CREATE TABLE t (k INT)").unwrap();
        for i in 0..10 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        assert!(eng.checkpoint().unwrap());
        // The checkpoint rolled the WAL and removed sealed segments: one
        // (empty) active segment plus the checkpoint file remain.
        assert_eq!(segments(dir.path()).len(), 1);
        assert!(dir.path().join(dt_wal::CHECKPOINT_FILE).exists());
        assert_eq!(eng.wal_stats().checkpoints, 1);
        // Post-checkpoint commits land in the fresh segment.
        for i in 10..13 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let eng = durable(dir.path());
    let s = eng.session();
    let rows = s.query_sorted("SELECT k FROM t").unwrap();
    assert_eq!(rows, (0..13i64).map(|i| row!(i)).collect::<Vec<Row>>());
    // Only the 3 post-watermark commits were replayed, not the 11 records
    // the checkpoint already covers.
    assert_eq!(eng.wal_stats().recovery_replayed, 3);
    drop(s);
    drop(eng);
    // A reopen directly after a checkpoint replays nothing.
    let eng = durable(dir.path());
    assert!(eng.checkpoint().unwrap());
    drop(eng);
    let eng = durable(dir.path());
    assert_eq!(eng.wal_stats().recovery_replayed, 0);
    assert_eq!(
        eng.session().query_sorted("SELECT k FROM t").unwrap(),
        (0..13i64).map(|i| row!(i)).collect::<Vec<Row>>()
    );
}

#[test]
fn automatic_checkpoints_fire_on_wal_growth() {
    let dir = TestDir::new("auto-ckpt");
    let eng = durable_with(dir.path(), |cfg| cfg.wal_checkpoint_bytes = 4096);
    let s = eng.session();
    s.execute("CREATE TABLE t (k INT, pad STRING)").unwrap();
    let pad = "x".repeat(200);
    for i in 0..40 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, '{pad}')")).unwrap();
    }
    assert!(eng.wal_stats().checkpoints >= 1, "no automatic checkpoint fired");
    drop(s);
    drop(eng);
    let eng = durable(dir.path());
    assert_eq!(eng.session().query("SELECT k FROM t").unwrap().len(), 40);
}

/// Checkpoints fire from inside install batches — under the engine write
/// lock, between a round's levels and between writers' commits — while
/// two explicit-transaction writers and a round driver with two refresh
/// threads keep the pipeline busy. No round may lose a DT to it, and the
/// image plus the WAL behind it must recover everything: base tables, each
/// DT equal to its defining query at its own data timestamp, and time
/// travel to an instant before the first checkpoint.
#[test]
fn auto_checkpoints_under_concurrent_rounds_and_writers_recover_everything() {
    const WRITERS: usize = 2;
    const TXNS: usize = 40;
    const ROUNDS: usize = 25;
    // Each DT's defining query, and the same query over base tables only:
    // `query_at` resolves a DT by commit time, a refresh by data timestamp.
    const DTS: [(&str, &str, &str); 3] = [
        ("sums", "SELECT k, sum(v) s FROM t0 GROUP BY k", "SELECT k, sum(v) s FROM t0 GROUP BY k"),
        ("evens", "SELECT k, v FROM t1 WHERE v % 2 = 0", "SELECT k, v FROM t1 WHERE v % 2 = 0"),
        (
            "low",
            "SELECT k, s FROM sums WHERE k < 2",
            "SELECT k, sum(v) s FROM t0 WHERE k < 2 GROUP BY k",
        ),
    ];
    let dir = TestDir::new("ckpt-rounds");
    let owed = |w: usize| -> Vec<Row> {
        let mut rows: Vec<Row> = (0..=TXNS as i64)
            .flat_map(|i| [row!(i % 4, 2 * i + w as i64), row!(i % 4 + 4, -i)])
            .collect();
        rows.sort();
        rows
    };
    let (early, t0_early, sums_early);
    {
        let eng = durable_with(dir.path(), |cfg| cfg.wal_checkpoint_bytes = 16 * 1024);
        eng.set_refresh_threads(2);
        eng.create_warehouse("wh", 2).unwrap();
        let s = eng.session();
        for w in 0..WRITERS {
            s.execute(&format!("CREATE TABLE t{w} (k INT, v INT)")).unwrap();
            s.execute(&format!("INSERT INTO t{w} VALUES (0, {w}), (4, 0)")).unwrap();
        }
        for (name, definition, _) in DTS {
            s.execute(&format!(
                "CREATE DYNAMIC TABLE {name} TARGET_LAG = '1 minute' WAREHOUSE = wh AS {definition}"
            ))
            .unwrap();
        }
        assert_eq!(eng.wal_stats().checkpoints, 0, "set-up alone must not checkpoint");
        early = eng.inspect(|st| st.txn_manager().hlc().tick());
        t0_early = s.query_sorted("SELECT * FROM t0").unwrap();
        sums_early = s.query_sorted("SELECT * FROM sums").unwrap();

        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let s = eng.session();
                scope.spawn(move || {
                    for i in 1..=TXNS as i64 {
                        let mut txn = s.begin();
                        txn.execute(&format!(
                            "INSERT INTO t{w} VALUES ({}, {}), ({}, {})",
                            i % 4,
                            2 * i + w as i64,
                            i % 4 + 4,
                            -i
                        ))
                        .unwrap();
                        txn.commit().unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    let round = eng.refresh_all_parallel().unwrap();
                    assert_eq!(
                        (round.refreshed, round.failed, round.conflicts, round.pruned),
                        (DTS.len(), 0, 0, 0),
                        "{round:?}"
                    );
                }
            });
        });
        let checkpoints = eng.wal_stats().checkpoints;
        assert!(checkpoints >= 2, "{checkpoints} automatic checkpoint(s)");
    }

    let eng = durable(dir.path());
    let s = eng.session();
    for w in 0..WRITERS {
        assert_eq!(s.query_sorted(&format!("SELECT * FROM t{w}")).unwrap(), owed(w), "t{w}");
    }
    let check_dvs = |when: &str| {
        for (name, _, over_base_tables) in DTS {
            let data_ts = eng.inspect(|st| {
                let id = st.catalog().resolve(name).unwrap().id;
                st.scheduler().state(id).unwrap().last_data_ts.unwrap()
            });
            assert_eq!(
                s.query_sorted(&format!("SELECT * FROM {name}")).unwrap(),
                s.query_at(over_base_tables, data_ts).unwrap().into_sorted_rows(),
                "{name} at its data timestamp {data_ts}, {when}"
            );
        }
    };
    check_dvs("after recovery");
    assert_eq!(s.query_at("SELECT * FROM t0", early).unwrap().into_sorted_rows(), t0_early);
    assert_eq!(s.query_at("SELECT * FROM sums", early).unwrap().into_sorted_rows(), sums_early);
    // The recovered engine carries on from there.
    let round = eng.refresh_all_parallel().unwrap();
    assert_eq!((round.refreshed, round.failed, round.conflicts), (DTS.len(), 0, 0), "{round:?}");
    check_dvs("after a further round");
    assert_eq!(
        s.query_sorted("SELECT * FROM sums").unwrap(),
        s.query_sorted(DTS[0].1).unwrap(),
        "the further round caught `sums` up"
    );
}

// ---------------------------------------------------------------------------
// Crash-point sweep: kill at every byte of the live segment.
// ---------------------------------------------------------------------------

#[test]
fn kill_at_every_wal_byte_recovers_a_committed_prefix() {
    let dir = TestDir::new("sweep");
    const N: i64 = 8;
    {
        let eng = durable(dir.path());
        let s = eng.session();
        s.execute("CREATE TABLE t (k INT)").unwrap();
        // One commit per value: the WAL holds one catalog record followed
        // by N single-row DmlCommit records, all in one segment.
        for i in 0..N {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let pristine = snapshot_dir(dir.path());
    let segs = segments(dir.path());
    assert_eq!(segs.len(), 1, "sweep expects a single live segment");
    let seg = &segs[0];
    let seg_len = std::fs::metadata(seg).unwrap().len();

    // Truncate the segment at EVERY byte offset: recovery must always
    // succeed, and the surviving rows must be a contiguous committed
    // prefix 0..k. A cut inside frame j destroys frames j.. and nothing
    // before — so k can only grow as the cut point moves right.
    let mut last_recovered: i64 = 0;
    for cut in 0..=seg_len {
        restore_dir(dir.path(), &pristine);
        let f = std::fs::OpenOptions::new().write(true).open(seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let eng = durable(dir.path());
        let s = eng.session();
        match s.query_sorted("SELECT k FROM t") {
            Err(_) => {
                // The CREATE TABLE record itself was cut: nothing exists yet.
                assert_eq!(last_recovered, 0, "table vanished after commits survived a longer prefix");
            }
            Ok(rows) => {
                let k = rows.len() as i64;
                assert!(k <= N);
                assert_eq!(rows, (0..k).map(|i| row!(i)).collect::<Vec<Row>>(), "non-prefix state at cut {cut}");
                assert!(k >= last_recovered, "longer WAL prefix recovered fewer commits at cut {cut}");
                last_recovered = k;
            }
        }
    }
    assert_eq!(last_recovered, N, "full-length segment must recover every commit");
}

#[test]
fn bit_flips_are_detected_and_the_corrupt_suffix_is_dropped() {
    let dir = TestDir::new("bitflip");
    const N: i64 = 6;
    {
        let eng = durable(dir.path());
        let s = eng.session();
        s.execute("CREATE TABLE t (k INT)").unwrap();
        for i in 0..N {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let pristine = snapshot_dir(dir.path());
    let segs = segments(dir.path());
    let seg = &segs[0];
    let seg_len = std::fs::metadata(seg).unwrap().len() as usize;

    // Flip one bit at a spread of positions across the segment. Flips in
    // the 14-byte segment header must be refused outright (the segment's
    // identity is untrustworthy); flips in the record region are caught by
    // the per-frame CRC — recovery keeps the frames before the damaged one
    // and truncates the rest. Never a crash, never garbage served.
    for pos in (0..seg_len).step_by(7) {
        restore_dir(dir.path(), &pristine);
        let mut bytes = std::fs::read(seg).unwrap();
        bytes[pos] ^= 0x40;
        std::fs::write(seg, &bytes).unwrap();
        if pos < 14 {
            assert!(
                Engine::open(dir.path()).is_err(),
                "damaged segment header accepted at byte {pos}"
            );
            continue;
        }
        let eng = durable(dir.path());
        let s = eng.session();
        if let Ok(rows) = s.query_sorted("SELECT k FROM t") {
            let k = rows.len() as i64;
            assert!(k <= N);
            assert_eq!(rows, (0..k).map(|i| row!(i)).collect::<Vec<Row>>(), "non-prefix state after flip at {pos}");
        }
        // After truncation the damaged bytes are gone: a second reopen of
        // the SAME directory must replay cleanly and identically.
        let replayed = eng.wal_stats().recovery_replayed;
        drop(s);
        drop(eng);
        let eng = durable(dir.path());
        assert_eq!(eng.wal_stats().recovery_replayed, replayed, "recovery not idempotent after flip at {pos}");
    }
}

#[test]
fn torn_tail_is_truncated_and_the_engine_keeps_accepting_writes() {
    let dir = TestDir::new("torn");
    {
        let eng = durable(dir.path());
        let s = eng.session();
        s.execute("CREATE TABLE t (k INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();
    }
    // Tear the last record in half.
    let segs = segments(dir.path());
    let seg = &segs[0];
    let len = std::fs::metadata(seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(seg).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    let eng = durable(dir.path());
    let s = eng.session();
    assert_eq!(s.query_sorted("SELECT k FROM t").unwrap(), vec![row!(1i64)]);
    // The truncated WAL accepts new appends at the repaired tail.
    s.execute("INSERT INTO t VALUES (9)").unwrap();
    drop(s);
    drop(eng);
    let eng = durable(dir.path());
    assert_eq!(
        eng.session().query_sorted("SELECT k FROM t").unwrap(),
        vec![row!(1i64), row!(9i64)]
    );
}

// ---------------------------------------------------------------------------
// Differential equivalence: the recovered engine answers the full fixture
// set byte-identically to the pre-crash engine.
// ---------------------------------------------------------------------------

const FIXTURES: &[&str] = &[
    "SELECT k, v FROM t1 WHERE k < 20",
    "SELECT k, v FROM t1 WHERE k IN (3, 7, 250, 299)",
    "SELECT k FROM t1 WHERE name NOT IN ('n1', 'n2') AND k < 40",
    "SELECT k FROM t1 WHERE k > 90 AND k <= 110",
    "SELECT k FROM t1 WHERE k + 1 > 100 AND k < 150",
    "SELECT k, v FROM t1 WHERE v = 3 OR k = 299",
    "SELECT k, name FROM t1 WHERE name IS NULL",
    "SELECT k FROM t1 WHERE name = 'n3'",
    "SELECT k * 2 d, v FROM t1 WHERE k BETWEEN 10 AND 25",
    "SELECT a.k, a.v, b.w FROM t1 a JOIN t2 b ON a.k = b.k WHERE a.k < 60",
    "SELECT a.k, b.w FROM t1 a LEFT JOIN t2 b ON a.k = b.k WHERE a.k < 120",
    "SELECT v, count(*) c, min(k) lo, max(k) hi FROM t1 GROUP BY v",
    "SELECT DISTINCT v FROM t1 WHERE k < 100",
    "SELECT k FROM t1 WHERE k < 5 UNION ALL SELECT k FROM t2 WHERE k < 5",
    "SELECT v, k, sum(k) OVER (PARTITION BY v ORDER BY k) run FROM t1 WHERE k < 50",
    "SELECT k, v FROM t1 WHERE v > 5 ORDER BY v, k DESC LIMIT 17",
    "SELECT count(*) n, sum(v) s FROM t1 WHERE k > 100000",
    "SELECT k, d FROM (SELECT k, v - 1 d FROM t1 WHERE k > 30) x WHERE d < 5",
    "SELECT * FROM dt_totals",
];

#[test]
fn recovered_engine_answers_the_differential_fixture_set_identically() {
    let dir = TestDir::new("differential");
    let mut expected: Vec<Vec<Row>> = Vec::new();
    let at;
    let expected_at;
    {
        let eng = durable(dir.path());
        eng.create_warehouse("wh", 2).unwrap();
        let s = eng.session();
        s.execute("CREATE TABLE t1 (k INT, v INT, name STRING)").unwrap();
        s.execute("CREATE TABLE t2 (k INT, w FLOAT)").unwrap();
        for chunk in 0..6i64 {
            let rows: Vec<String> = (0..50)
                .map(|i| {
                    let k = chunk * 50 + i;
                    let name = if k % 7 == 0 { "NULL".into() } else { format!("'n{}'", k % 10) };
                    format!("({k}, {}, {name})", k % 13)
                })
                .collect();
            s.execute(&format!("INSERT INTO t1 VALUES {}", rows.join(", "))).unwrap();
        }
        for chunk in 0..4i64 {
            let rows: Vec<String> =
                (0..25).map(|i| format!("({}, {}.5)", chunk * 25 + i, (chunk * 25 + i) * 2)).collect();
            s.execute(&format!("INSERT INTO t2 VALUES {}", rows.join(", "))).unwrap();
        }
        s.execute(
            "CREATE DYNAMIC TABLE dt_totals TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT v, sum(k) total FROM t1 GROUP BY v",
        )
        .unwrap();
        // Mid-history checkpoint: half the state comes back via snapshot,
        // half via replay — equivalence must hold across the seam.
        assert!(eng.checkpoint().unwrap());
        eng.clock().advance(Duration::from_secs(60));
        at = eng.now();
        s.execute("UPDATE t1 SET v = v + 1 WHERE k < 10").unwrap();
        s.execute("ALTER DYNAMIC TABLE dt_totals REFRESH").unwrap();
        for sql in FIXTURES {
            expected.push(s.query(sql).unwrap().into_rows());
        }
        expected_at = s.query_at("SELECT * FROM dt_totals", at).unwrap().into_sorted_rows();
    }
    let eng = durable(dir.path());
    let s = eng.session();
    for (sql, want) in FIXTURES.iter().zip(&expected) {
        let got = s.query(sql).unwrap().into_rows();
        assert_eq!(&got, want, "recovered answer diverged for: {sql}");
    }
    assert_eq!(
        s.query_at("SELECT * FROM dt_totals", at).unwrap().into_sorted_rows(),
        expected_at
    );
    assert!(eng.wal_stats().recovery_replayed > 0);
}

#[test]
fn in_memory_mode_is_preserved_and_writes_nothing() {
    let dir = TestDir::new("memory");
    let eng = Engine::new(DbConfig::default());
    let s = eng.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let stats = eng.wal_stats();
    assert_eq!(stats.appends, 0);
    assert_eq!(stats.fsyncs, 0);
    assert!(snapshot_dir(dir.path()).is_empty());
}
