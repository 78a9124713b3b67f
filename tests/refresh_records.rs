//! What a refresh writes down. A refresh logs its own change — the
//! storage install, the version, the frontier and a §5.4 evolution — and
//! a failed refresh or a suspension on errors one small per-DT record, so
//! WAL bytes per refresh do not grow with the number of DTs (§6.3: a
//! fleet is large and mostly NO_DATA). A refresh that changes no catalog
//! value leaves the catalog, and its cached snapshot, alone. Files of an
//! older format are refused with a typed error and left as they were.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dt_common::DtError;
use dt_core::{DbConfig, DurabilityMode, Engine};

struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let path =
            std::env::temp_dir().join(format!("dt-refresh-records-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TestDir(path)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A durable engine at `dir` that never checkpoints on its own, holding
/// `n` single-table projection DTs `d0…` over `t` and `bad`, which fails
/// to refresh once `u` holds a 0.
fn fleet(dir: &Path, n: usize) -> Engine {
    let config = DbConfig {
        durability: DurabilityMode::wal(dir),
        wal_checkpoint_bytes: u64::MAX,
        ..DbConfig::default()
    };
    let eng = Engine::open_with_config(config).unwrap();
    eng.create_warehouse("wh", 2).unwrap();
    let s = eng.session();
    for sql in [
        "CREATE TABLE t (k INT)",
        "INSERT INTO t VALUES (1), (2)",
        "CREATE TABLE u (k INT)",
        "INSERT INTO u VALUES (1)",
        "CREATE DYNAMIC TABLE bad TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, 10 / k q FROM u",
    ] {
        s.execute(sql).unwrap();
    }
    for i in 0..n {
        s.execute(&format!(
            "CREATE DYNAMIC TABLE d{i} TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t"
        ))
        .unwrap();
    }
    eng
}

fn wal_bytes(eng: &Engine) -> u64 {
    eng.wal_stats().bytes
}

/// WAL bytes per refresh over `rounds` rounds in which every refresh is
/// NO_DATA.
fn bytes_per_no_data_refresh(eng: &Engine, rounds: usize) -> f64 {
    let (start, mut refreshes) = (wal_bytes(eng), 0);
    for _ in 0..rounds {
        let round = eng.refresh_all_parallel().unwrap();
        assert_eq!((round.failed, round.conflicts), (0, 0), "{round:?}");
        refreshes += round.refreshed;
    }
    let no_data = eng.refresh_log().tail(refreshes);
    assert!(no_data.iter().all(|e| e.action == "no_data"), "{no_data:?}");
    (wal_bytes(eng) - start) as f64 / refreshes as f64
}

/// WAL bytes of one failed refresh of `bad`.
fn bytes_of_a_failed_refresh(eng: &Engine) -> u64 {
    let s = eng.session();
    s.execute("INSERT INTO u VALUES (0)").unwrap();
    let start = wal_bytes(eng);
    s.execute("ALTER DYNAMIC TABLE bad REFRESH").unwrap();
    assert_eq!(eng.refresh_log().last().unwrap().action, "failed");
    wal_bytes(eng) - start
}

#[test]
fn wal_bytes_per_refresh_do_not_grow_with_the_fleet() {
    let (small_dir, large_dir) = (TestDir::new("n10"), TestDir::new("n200"));
    let (small, large) = (fleet(&small_dir.0, 10), fleet(&large_dir.0, 200));
    let (per_small, per_large) = (bytes_per_no_data_refresh(&small, 5), bytes_per_no_data_refresh(&large, 2));
    assert!(
        per_large <= per_small * 1.1,
        "WAL bytes per NO_DATA refresh: {per_small:.0} at 10 DTs, {per_large:.0} at 200"
    );
    let (failed_small, failed_large) = (bytes_of_a_failed_refresh(&small), bytes_of_a_failed_refresh(&large));
    assert!(failed_small > 0);
    assert_eq!(failed_small, failed_large, "WAL bytes of a failed refresh at 10 and 200 DTs");
}

/// The WAL bytes of a one-row `INSERT` and a one-row `DELETE` are the
/// same at 10 and at 300 partitions: a commit logs its version's delta,
/// never the table's partition list.
#[test]
fn wal_bytes_per_one_row_commit_do_not_grow_with_the_table() {
    let dir = TestDir::new("one-row");
    let eng = fleet(&dir.0, 0);
    let s = eng.session();
    s.execute("CREATE TABLE g (k INT)").unwrap();
    let logged = |sql: &str| {
        let start = wal_bytes(&eng);
        s.execute(sql).unwrap();
        wal_bytes(&eng) - start
    };
    let mut at = Vec::new();
    for i in 0..300 {
        if i == 10 || i == 299 {
            at.push((
                logged("INSERT INTO g VALUES (-1)"),
                logged("DELETE FROM g WHERE k = -1"),
            ));
        }
        s.execute(&format!("INSERT INTO g VALUES ({i})")).unwrap();
    }
    assert_eq!(
        at[0], at[1],
        "(insert, delete) WAL bytes at 10 and 300 partitions"
    );
}

/// A refresh that changes no catalog value — NO_DATA with no errors to
/// reset — keeps the catalog's generation and hands out the same cached
/// snapshot; resetting a failed DT's error count is a change.
#[test]
fn refreshes_that_change_no_catalog_value_leave_the_catalog_alone() {
    let eng = Engine::new(DbConfig::default());
    eng.create_warehouse("wh", 2).unwrap();
    let s = eng.session();
    for sql in [
        "CREATE TABLE t (k INT)",
        "INSERT INTO t VALUES (1), (2)",
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k, 10 / k q FROM t",
    ] {
        s.execute(sql).unwrap();
    }
    let catalog = || eng.inspect(|st| (st.catalog().generation(), st.catalog().snapshot()));
    let errors = || eng.inspect(|st| st.catalog().resolve("d").unwrap().as_dt().unwrap().error_count);
    let (generation, snapshot) = catalog();
    for _ in 0..10 {
        assert_eq!(eng.refresh_all_parallel().unwrap().refreshed, 1);
    }
    assert_eq!(eng.refresh_log().last().unwrap().action, "no_data");
    let (after, same) = catalog();
    assert_eq!(after, generation, "NO_DATA rounds moved the catalog generation");
    assert!(Arc::ptr_eq(&snapshot, &same), "NO_DATA rounds dropped the cached catalog snapshot");

    s.execute("INSERT INTO t VALUES (0)").unwrap();
    eng.refresh_all_parallel().unwrap();
    assert_eq!(errors(), 1);
    let (failed, failed_snapshot) = catalog();
    assert!(failed > after);
    s.execute("DELETE FROM t WHERE k = 0").unwrap();
    eng.refresh_all_parallel().unwrap();
    assert_eq!(errors(), 0);
    let (reset, reset_snapshot) = catalog();
    assert!(reset > failed, "resetting the error count is a catalog change");
    assert!(!Arc::ptr_eq(&failed_snapshot, &reset_snapshot));
}

/// The formats before this one: 1, whose catalog records rode every
/// refresh, and 2, whose versions carried their whole partition list.
const OLD_VERSIONS: [u16; 2] = [1, 2];

/// Set the `u16` format version at bytes 4..6 of `file` (segment and
/// checkpoint headers alike) to `version`.
fn mark_version(file: &Path, version: u16) {
    let mut bytes = std::fs::read(file).unwrap();
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    std::fs::write(file, bytes).unwrap();
}

fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
        .collect();
    files.sort();
    files
}

/// `Engine::open` on `dir` fails with a `Corruption` error naming
/// `version {version}`, and changes no byte of any file in it.
fn assert_refused(dir: &Path, version: u16) {
    let untouched = files(dir);
    let named = format!("version {version}");
    match Engine::open(dir) {
        Err(DtError::Corruption(msg)) => assert!(msg.contains(&named), "{msg}"),
        Err(e) => panic!("expected a corruption error naming {named}, got {e}"),
        Ok(_) => panic!("a {named} directory opened"),
    }
    assert_eq!(files(dir), untouched, "refusing to open changed the files");
}

fn durable_table(dir: &Path) -> Engine {
    let eng = Engine::open(dir).unwrap();
    let s = eng.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    eng
}

#[test]
fn an_old_format_segment_is_refused_and_left_as_it_was() {
    for version in OLD_VERSIONS {
        let dir = TestDir::new(&format!("old-segment-v{version}"));
        drop(durable_table(&dir.0));
        mark_version(&dir.0.join("wal-00000001.seg"), version);
        assert_refused(&dir.0, version);
    }
}

#[test]
fn an_old_format_checkpoint_is_refused_and_left_as_it_was() {
    for version in OLD_VERSIONS {
        let dir = TestDir::new(&format!("old-checkpoint-v{version}"));
        let eng = durable_table(&dir.0);
        assert!(eng.checkpoint().unwrap());
        drop(eng);
        mark_version(&dir.0.join(dt_wal::CHECKPOINT_FILE), version);
        assert_refused(&dir.0, version);
    }
}
