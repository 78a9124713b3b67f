//! The row-location index under the merge, the refresh install and the
//! DML commit (`dt_storage::row_index`): it is derived data that nothing
//! on the install path maintains, so every way a store comes to hold a
//! version the index has not seen — checkpoint restore, WAL replay, a
//! zero-copy clone, UNDROP, a FULL or REINITIALIZE refresh, a commit that
//! lost its race, a write pinned in the past — must leave incremental
//! refreshes with deletes DVS-exact and `$ROW_ID`-stable. And it must cost
//! what changed: built once, advanced by the rows of rewritten partitions.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dt_common::{Row, Value};
use dt_ivm::merge::make_row_id;
use dt_storage::RowIndexStats;
use dynamic_tables::core::{DbConfig, DurabilityMode, Engine, Session, Simulation};

/// Every stored table spans many partitions at this capacity.
const PARTITION_CAPACITY: usize = 8;

/// `f` is a bag: ten distinct payloads over all of `t`'s rows.
const F_SQL: &str = "SELECT k, v FROM t WHERE v >= 10";
const G_SQL: &str = "SELECT k, count(*) n, sum(v) s FROM f GROUP BY k";

fn config() -> DbConfig {
    DbConfig {
        validate_dvs: true,
        partition_capacity: PARTITION_CAPACITY,
        ..DbConfig::default()
    }
}

/// A unique scratch directory, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let path = std::env::temp_dir().join(format!("dt-row-index-{}-{tag}", std::process::id()));
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

fn durable(dir: &Path) -> Engine {
    Engine::open_with_config(DbConfig {
        durability: DurabilityMode::wal(dir),
        ..config()
    })
    .unwrap()
}

/// `t (id, k, v)`, `f` over it and `g` over `f`, with `rows` rows loaded.
fn create(engine: &Engine, rows: i64) -> Session {
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (id INT, k INT, v INT)").unwrap();
    insert(&s, 0, rows);
    for (name, sql) in [("f", F_SQL), ("g", G_SQL)] {
        s.execute(&format!(
            "CREATE DYNAMIC TABLE {name} TARGET_LAG = '1 minute' WAREHOUSE = wh AS {sql}"
        ))
        .unwrap();
    }
    s
}

fn insert(s: &Session, from: i64, to: i64) {
    let values: Vec<String> = (from..to)
        .map(|id| format!("({id}, {}, {})", id % 5, (id % 10) * 10 + 5))
        .collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
}

/// One batch of every kind of change, then a refresh of the whole chain.
/// Batch `i` inserts ids `1000 + 20 i ..`, updates and deletes bands of
/// the preloaded ids, so deltas carry deletes of duplicate payloads.
fn round(s: &Session, i: i64) {
    insert(s, 1000 + 20 * i, 1000 + 20 * i + 12);
    s.execute(&format!(
        "UPDATE t SET v = v + 10 WHERE id >= {} AND id < {}",
        10 * i,
        10 * i + 6
    ))
    .unwrap();
    s.execute(&format!(
        "DELETE FROM t WHERE id >= {} AND id < {}",
        10 * i + 6,
        10 * i + 9
    ))
    .unwrap();
    s.execute("ALTER DYNAMIC TABLE g REFRESH").unwrap();
}

/// A table's stored rows — `$ROW_ID` included for a DT — sorted.
fn stored(engine: &Engine, table: &str) -> Vec<Row> {
    let mut rows = engine.inspect(|st| {
        let store = st.table_store(st.catalog().resolve(table).unwrap().id).unwrap();
        store.scan(store.latest_version()).unwrap()
    });
    rows.sort();
    rows
}

fn index_stats(engine: &Engine, table: &str) -> RowIndexStats {
    engine.inspect(|st| {
        let id = st.catalog().resolve(table).unwrap().id;
        st.table_store(id).unwrap().row_index_stats()
    })
}

/// DVS (§6.1) by an independent read, and the `$ROW_ID` rule: the stored
/// copies of a payload carry exactly the occurrence indices `0..n`.
fn check(engine: &Engine, s: &Session, dts: &[(&str, &str)], when: &str) {
    for (dt, sql) in dts {
        assert_eq!(
            s.query_sorted(&format!("SELECT * FROM {dt}")).unwrap(),
            s.query_sorted(sql).unwrap(),
            "{dt} is not its defining query {when}"
        );
        let mut ids: BTreeMap<Row, Vec<Value>> = BTreeMap::new();
        for r in stored(engine, dt) {
            let payload = Row::new(r.values()[1..].to_vec());
            ids.entry(payload).or_default().push(r.get(0).clone());
        }
        for (payload, mut held) in ids {
            held.sort();
            let mut dense: Vec<Value> = (0..held.len())
                .map(|n| Value::Str(make_row_id(&payload, n)))
                .collect();
            dense.sort();
            assert_eq!(held, dense, "ids of {payload} in {dt} {when}");
        }
    }
}

const FG: [(&str, &str); 2] = [("f", F_SQL), ("g", G_SQL)];

/// Rows that differ between two sorted multisets, counted once a side.
fn differing(a: &[Row], b: &[Row]) -> usize {
    let mut weights: BTreeMap<&Row, i64> = BTreeMap::new();
    for r in a {
        *weights.entry(r).or_default() += 1;
    }
    for r in b {
        *weights.entry(r).or_default() -= 1;
    }
    weights.values().map(|w| w.unsigned_abs() as usize).sum()
}

/// The refresh moved exactly the stored rows its log entry counts: no
/// `$ROW_ID` of an unchanged row churned.
fn round_keeping_ids(engine: &Engine, s: &Session, i: i64) {
    let before = stored(engine, "f");
    round(s, i);
    let f = engine.inspect(|st| st.catalog().resolve("f").unwrap().id);
    let entries = engine.refresh_log().entries();
    let entry = entries.iter().rev().find(|e| e.dt == f).unwrap();
    assert_eq!(entry.action, "incremental");
    assert_eq!(differing(&before, &stored(engine, "f")), entry.changed_rows);
}

#[test]
fn restore_and_replay_leave_later_refreshes_exact_and_id_stable() {
    let dir = TestDir::new("restart");
    // The same script on an engine that never restarts.
    let control = Engine::new(config());
    let cs = create(&control, 100);
    {
        let engine = durable(&dir.0);
        let s = create(&engine, 100);
        for i in 0..3 {
            round_keeping_ids(&engine, &s, i);
            round(&cs, i);
        }
        assert!(engine.checkpoint().unwrap());
        // The WAL tail past the checkpoint: replayed version by version.
        for i in 3..5 {
            round_keeping_ids(&engine, &s, i);
            round(&cs, i);
        }
        check(&engine, &s, &FG, "before the restart");
    }
    let engine = durable(&dir.0);
    let s = engine.session();
    assert_eq!(index_stats(&engine, "f"), RowIndexStats::default());
    check(&engine, &s, &FG, "after the restart");
    for i in 5..8 {
        round_keeping_ids(&engine, &s, i);
        round(&cs, i);
        check(&engine, &s, &FG, "in a round after the restart");
    }
    for table in ["t", "f", "g"] {
        assert_eq!(stored(&engine, table), stored(&control, table), "{table}");
    }
    assert_eq!(index_stats(&engine, "f").builds, 1);
}

#[test]
fn a_clone_and_its_source_diverge_and_an_undropped_table_keeps_working() {
    let engine = Engine::new(config());
    let s = create(&engine, 100);
    round(&s, 0);
    // Both sides of each clone start from stores that share partitions;
    // the source's index is warm, the clone has none.
    s.execute("CREATE TABLE t2 CLONE t").unwrap();
    s.execute("CREATE DYNAMIC TABLE f2 CLONE f").unwrap();
    assert_eq!(index_stats(&engine, "t2"), RowIndexStats::default());
    assert_eq!(index_stats(&engine, "f2"), RowIndexStats::default());

    s.execute("DELETE FROM t2 WHERE id >= 40 AND id < 50").unwrap();
    round(&s, 1);
    assert_eq!(
        s.query_sorted("SELECT id FROM t2 WHERE id >= 36 AND id < 52").unwrap().len(),
        6,
        "the clone lost its own ten rows and none of the source's"
    );
    assert_eq!(
        s.query_sorted("SELECT id FROM t WHERE id >= 40 AND id < 50").unwrap().len(),
        10
    );
    // `f` has moved on, `f2` is still where the clone left it; then it
    // catches up over an interval of two batches, on its own index.
    assert_ne!(stored(&engine, "f"), stored(&engine, "f2"));
    s.execute("ALTER DYNAMIC TABLE f2 REFRESH").unwrap();
    assert_eq!(engine.refresh_log().last().unwrap().action, "incremental");
    check(&engine, &s, &[("f", F_SQL), ("f2", F_SQL), ("g", G_SQL)], "after diverging");
    assert_eq!(stored(&engine, "f"), stored(&engine, "f2"));

    // A dropped store comes back with whatever index it had; a dropped
    // source fails refreshes until it is back.
    s.execute("DROP TABLE t2").unwrap();
    s.execute("UNDROP TABLE t2").unwrap();
    s.execute("DELETE FROM t2 WHERE id >= 50 AND id < 55").unwrap();
    assert_eq!(
        s.query_sorted("SELECT id FROM t2 WHERE id >= 36 AND id < 60").unwrap().len(),
        9
    );
    s.execute("DROP DYNAMIC TABLE f").unwrap();
    s.execute("UNDROP DYNAMIC TABLE f").unwrap();
    round(&s, 2);
    check(&engine, &s, &FG, "after UNDROP");
}

#[test]
fn a_full_or_reinitializing_refresh_between_incrementals_is_crossed_by_a_rebuild() {
    let engine = Engine::new(config());
    let s = create(&engine, 100);
    s.execute(&format!(
        "CREATE DYNAMIC TABLE full TARGET_LAG = '1 minute' WAREHOUSE = wh \
         REFRESH_MODE = FULL AS {F_SQL}"
    ))
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE over_full TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, count(*) n FROM full GROUP BY k",
    )
    .unwrap();
    let all = [FG[0], FG[1], ("full", F_SQL)];
    for i in 0..2 {
        round(&s, i);
        s.execute("ALTER DYNAMIC TABLE over_full REFRESH").unwrap();
        check(&engine, &s, &all, "beside a FULL-mode DT");
    }
    // A FULL-mode DT never locates a row; the DT reading it does (and
    // re-indexes its five rows each time: every group changes, so
    // advancing would hash them twice).
    assert_eq!(index_stats(&engine, "full"), RowIndexStats::default());
    assert_eq!(index_stats(&engine, "over_full").advanced_rows, 0);
    assert!(index_stats(&engine, "over_full").builds >= 1);

    // Query evolution (§5.4): `f` is rewritten wholesale, with fresh ids,
    // under an index that last saw the version before.
    let builds = index_stats(&engine, "f").builds;
    let kept = s.query_sorted("SELECT id, k, v FROM t").unwrap();
    s.execute("CREATE OR REPLACE TABLE t (id INT, k INT, v INT)").unwrap();
    let values: Vec<String> = kept.iter().map(|r| format!("({}, {}, {})", r.get(0), r.get(1), r.get(2))).collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
    s.execute("ALTER DYNAMIC TABLE g REFRESH").unwrap();
    let actions: Vec<_> = engine.refresh_log().tail(2).iter().map(|e| e.action).collect();
    // (The reloaded rows are the old ones, so the rewritten `f` holds the
    // same rows under the same ids and `g` sees no change.)
    assert_eq!(actions, ["reinitialize", "no_data"]);
    check(&engine, &s, &FG, "after the reinitialization");
    for i in 2..4 {
        round_keeping_ids(&engine, &s, i);
        check(&engine, &s, &FG, "after the reinitialization");
    }
    assert_eq!(
        index_stats(&engine, "f").builds,
        builds + 1,
        "crossing the rewrite re-indexes f once instead of hashing it twice"
    );
}

#[test]
fn a_losing_committer_retries_and_a_write_in_the_past_conflicts_without_touching_the_cache() {
    let clock = dt_common::SimClock::new();
    let simulation = Simulation { clock: clock.clone(), ..Simulation::default() };
    let engine = Engine::simulated(config(), simulation).unwrap();
    let s = create(&engine, 100);
    round(&s, 0);
    let before_any = engine.now();
    clock.advance(dt_common::Duration::from_secs(1));

    // Two optimistic transactions delete different rows of one version.
    let (mut first, mut second) = (s.begin(), s.begin());
    first.execute("DELETE FROM t WHERE id = 50").unwrap();
    second.execute("DELETE FROM t WHERE id = 51").unwrap();
    first.commit().unwrap();
    let lost = second.commit().unwrap_err();
    assert!(lost.is_conflict(), "{lost:?}");
    let mut retry = s.begin();
    retry.execute("DELETE FROM t WHERE id = 51").unwrap();
    retry.commit().unwrap();
    assert!(s.query_sorted("SELECT id FROM t WHERE id >= 50 AND id < 52").unwrap().is_empty());
    let warm = index_stats(&engine, "t");
    assert_eq!(warm.builds, 1, "the loser and the retry shared the winner's index");

    // A transaction pinned before all of that may write, and loses: its
    // victims are located in an index of its own.
    let mut stale = s.begin_at(before_any);
    stale.execute("DELETE FROM t WHERE id = 60").unwrap();
    let err = stale.commit().unwrap_err();
    assert!(err.is_conflict(), "{err:?}");
    let after = index_stats(&engine, "t");
    assert_eq!((after.builds, after.advanced_rows), (warm.builds + 1, warm.advanced_rows));
    assert_eq!(s.query_sorted("SELECT id FROM t WHERE id = 60").unwrap().len(), 1);

    round(&s, 1);
    check(&engine, &s, &FG, "after the conflicts");
    assert_eq!(index_stats(&engine, "t").builds, after.builds);
}

/// Work by count: over 50 incremental refreshes of a 20 000-row DT with
/// deltas of at most 100 rows, the index is built once, and advancing it
/// hashes no more rows than the partitions those versions moved hold.
#[test]
fn fifty_small_refreshes_of_a_large_dt_hash_what_they_rewrote() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE big (id INT, v INT)").unwrap();
    for chunk in 0..20 {
        let values: Vec<String> = (chunk * 1000..(chunk + 1) * 1000)
            .map(|id| format!("({id}, {})", id % 97))
            .collect();
        s.execute(&format!("INSERT INTO big VALUES {}", values.join(", "))).unwrap();
    }
    s.execute(
        "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT id, v FROM big WHERE v >= 0",
    )
    .unwrap();
    let moved_rows = |table: &str, from: usize| -> u64 {
        engine.inspect(|st| {
            let store = st.table_store(st.catalog().resolve(table).unwrap().id).unwrap();
            let ck = store.checkpoint_dump();
            let len: BTreeMap<_, _> = ck.partitions.iter().map(|(id, rows)| (*id, rows.len())).collect();
            (ck.versions[from..].iter())
                .flat_map(|v| v.added.iter().chain(&v.removed))
                .map(|p| len[p] as u64)
                .sum()
        })
    };
    let versions = |table: &str| engine.inspect(|st| st.table_store(st.catalog().resolve(table).unwrap().id).unwrap().version_count());

    let mut since = None;
    for i in 0..51i64 {
        // 40 inserts, 30 updates (a delete and an insert each in `d`).
        let values: Vec<String> = (0..40).map(|n| format!("({}, {})", 100_000 + 40 * i + n, n)).collect();
        s.execute(&format!("INSERT INTO big VALUES {}", values.join(", "))).unwrap();
        s.execute(&format!("UPDATE big SET v = v + 1 WHERE id >= {} AND id < {}", 300 * i, 300 * i + 30)).unwrap();
        s.execute("ALTER DYNAMIC TABLE d REFRESH").unwrap();
        let entry = engine.refresh_log().last().unwrap();
        assert_eq!((entry.action, entry.changed_rows), ("incremental", 100));
        // The first refresh builds; count what the other fifty cross.
        since.get_or_insert_with(|| (versions("d") - 1, versions("big") - 1));
    }
    let (d_from, big_from) = since.unwrap();
    for (table, from) in [("d", d_from), ("big", big_from)] {
        let stats = index_stats(&engine, table);
        assert_eq!(stats.builds, 1, "{table}");
        // The index stands at the base of the last change, one version
        // short of the latest.
        assert!(stats.advanced_rows > 0, "{table}");
        assert!(
            stats.advanced_rows <= moved_rows(table, from),
            "{table}: hashed {} rows to cross versions that moved {}",
            stats.advanced_rows,
            moved_rows(table, from)
        );
        assert!(
            stats.advanced_rows < 50 * 20_000 / 2,
            "{table}: {} rows hashed is a walk of the table per refresh",
            stats.advanced_rows
        );
    }
    assert_eq!(
        s.query_sorted("SELECT id, v FROM d").unwrap(),
        s.query_sorted("SELECT id, v FROM big").unwrap()
    );
}
