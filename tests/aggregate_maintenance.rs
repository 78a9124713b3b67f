//! What an incremental refresh of an aggregate DT reads, by count, and the
//! contract it keeps. The groups a delta touches are maintained from the
//! DT's own stored rows and the delta (`dt_exec::aggregate::
//! fold_aggregate_delta`): an insert-only delta reads no source partition
//! at all, a delete the fold cannot decide re-reads the source at the new
//! end only, and after every round the DT equals its defining query as a
//! model kept by the test computes it (§6.1) — also across a checkpoint
//! and a WAL tail, for a clone, over a FULL-mode DT and across a
//! REINITIALIZE.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dt_common::{row, PartitionId, Row};
use dynamic_tables::core::{DbConfig, DurabilityMode, Engine, Session};

/// The benchmark's rollup shape: counts, an `INT` sum, a `max`.
const BY_G: &str = "SELECT g, count(*) n, sum(v) total, max(id) max_id FROM facts GROUP BY g";

const GROUPS: i64 = 16;

/// `facts (id, g, v)` as the test believes it to be.
#[derive(Default)]
struct Model {
    rows: BTreeMap<i64, (i64, i64)>,
    next_id: i64,
}

impl Model {
    fn insert(&mut self, s: &Session, n: i64) {
        let mut values = Vec::new();
        for id in self.next_id..self.next_id + n {
            // Positive: a group's sum never passes through zero, which a
            // delete could not tell from NULL without a count(v).
            let (g, v) = (id % GROUPS, id % 7 + 1);
            self.rows.insert(id, (g, v));
            values.push(format!("({id}, {g}, {v})"));
        }
        self.next_id += n;
        s.execute(&format!("INSERT INTO facts VALUES {}", values.join(", ")))
            .unwrap();
    }

    fn delete(&mut self, s: &Session, ids: &[i64]) {
        for id in ids {
            self.rows.remove(id).expect("the model holds the row");
            s.execute(&format!("DELETE FROM facts WHERE id = {id}")).unwrap();
        }
    }

    /// The largest id of group `g`.
    fn max_of(&self, g: i64) -> i64 {
        *(self.rows.iter().rev().find(|(_, r)| r.0 == g).unwrap().0)
    }

    /// [`BY_G`] over the model, in key order.
    fn by_g(&self) -> Vec<Row> {
        let mut groups: BTreeMap<i64, (i64, i64, i64)> = BTreeMap::new();
        for (id, (g, v)) in &self.rows {
            let e = groups.entry(*g).or_insert((0, 0, i64::MIN));
            *e = (e.0 + 1, e.1 + v, e.2.max(*id));
        }
        groups
            .into_iter()
            .map(|(g, (n, total, max_id))| row!(g, n, total, max_id))
            .collect()
    }

    /// DVS by a read the engine had no part in.
    fn check(&self, s: &Session, dt: &str, when: &str) {
        assert_eq!(
            s.query_sorted(&format!("SELECT g, n, total, max_id FROM {dt}")).unwrap(),
            self.by_g(),
            "{dt} is not its defining query {when}"
        );
    }
}

fn config(partition_capacity: usize) -> DbConfig {
    // No `validate_dvs`: it evaluates the defining query, which reads the
    // source; the model does the checking here.
    DbConfig {
        partition_capacity,
        ..DbConfig::default()
    }
}

/// `facts` with `rows` rows (loaded 1 000 a statement) and `by_g` over it.
fn create(engine: &Engine, rows: i64) -> (Session, Model) {
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE facts (id INT, g INT, v INT)").unwrap();
    let mut model = Model::default();
    while model.next_id < rows {
        model.insert(&s, 1000.min(rows - model.next_id));
    }
    create_dt(&s, "by_g", BY_G, "");
    model.check(&s, "by_g", "at initialization");
    (s, model)
}

fn create_dt(s: &Session, name: &str, sql: &str, options: &str) {
    s.execute(&format!(
        "CREATE DYNAMIC TABLE {name} TARGET_LAG = '1 minute' WAREHOUSE = wh {options} AS {sql}"
    ))
    .unwrap();
}

/// `Partition::data_reads` of every partition of `table`'s latest version.
fn data_reads(engine: &Engine, table: &str) -> BTreeMap<PartitionId, u64> {
    engine.inspect(|st| {
        let store = st.table_store(st.catalog().resolve(table).unwrap().id).unwrap();
        let snap = store.snapshot_latest();
        snap.partitions().iter().map(|p| (p.id(), p.data_reads())).collect()
    })
}

/// Refresh `dt` incrementally and return how many times each partition of
/// `source`'s latest version was read since `before` (a partition minted
/// since then counts from zero).
fn refresh_reading(engine: &Engine, s: &Session, dt: &str, source: &str, before: &BTreeMap<PartitionId, u64>) -> u64 {
    s.execute(&format!("ALTER DYNAMIC TABLE {dt} REFRESH")).unwrap();
    assert_eq!(engine.refresh_log().last().unwrap().action, "incremental");
    data_reads(engine, source)
        .iter()
        .map(|(id, reads)| reads - before.get(id).copied().unwrap_or(0))
        .sum()
}

#[test]
fn fifty_insert_only_refreshes_read_no_source_partition() {
    let engine = Engine::new(config(4096));
    let (s, mut model) = create(&engine, 50_000);
    let before = data_reads(&engine, "facts");
    assert!(before.len() >= 12, "{} partitions", before.len());
    // Initialization was a FULL refresh: it read every one of them.
    assert!(before.values().all(|reads| *reads >= 1));
    for round in 0..50 {
        model.insert(&s, 100);
        let read = refresh_reading(&engine, &s, "by_g", "facts", &before);
        assert_eq!(read, 0, "round {round} read source partitions");
        let entry = engine.refresh_log().last().unwrap();
        assert_eq!((entry.source_rows, entry.changed_rows), (100, 2 * GROUPS as usize));
        model.check(&s, "by_g", "after an insert-only round");
    }
    // Every partition initialization read is where it was; the fifty the
    // rounds minted were never read.
    let after = data_reads(&engine, "facts");
    assert_eq!(after.len(), before.len() + 50);
    for (id, reads) in &after {
        assert_eq!(*reads, before.get(id).copied().unwrap_or(0), "{id:?}");
    }
}

#[test]
fn a_delete_the_fold_cannot_decide_rereads_the_source_at_one_end_only() {
    let engine = Engine::new(config(64));
    let (s, mut model) = create(&engine, 2_000);
    let partitions = |engine: &Engine| data_reads(engine, "facts").len() as u64;

    // A delete strictly inside its group's max: counts and the sum
    // subtract, the max stands. Nothing is read.
    let before = data_reads(&engine, "facts");
    model.delete(&s, &[17, 18]);
    assert_eq!(refresh_reading(&engine, &s, "by_g", "facts", &before), 0);
    model.check(&s, "by_g", "after a delete inside the max");

    // Deleting group 3's max: whether a copy remains is in the source.
    // Each partition of the new end is read once; the old end — the
    // rewritten partition it alone holds included — is not.
    let before = data_reads(&engine, "facts");
    let doomed = model.max_of(3);
    model.delete(&s, &[doomed]);
    model.insert(&s, 10);
    let read = refresh_reading(&engine, &s, "by_g", "facts", &before);
    assert_eq!(read, partitions(&engine), "one scan of the new end");
    model.check(&s, "by_g", "after deleting a group's max");

    // A group that vanishes and comes back.
    let before = data_reads(&engine, "facts");
    let group_5: Vec<i64> = model.rows.iter().filter(|(_, r)| r.0 == 5).map(|(id, _)| *id).collect();
    model.delete(&s, &group_5);
    let read = refresh_reading(&engine, &s, "by_g", "facts", &before);
    assert_eq!(read, 0, "count(*) reached zero: the group is gone, nothing to look up");
    assert_eq!(model.by_g().len() as i64, GROUPS - 1);
    model.check(&s, "by_g", "after a group vanished");
    let before = data_reads(&engine, "facts");
    model.insert(&s, 2 * GROUPS);
    assert_eq!(refresh_reading(&engine, &s, "by_g", "facts", &before), 0);
    model.check(&s, "by_g", "after the group came back");
}

/// A unique scratch directory, removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let path = std::env::temp_dir().join(format!("dt-agg-maintenance-{}-{tag}", std::process::id()));
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
        ..config(64)
    })
    .unwrap()
}

#[test]
fn a_restored_dt_is_maintained_from_its_own_rows() {
    let dir = TestDir::new("restart");
    let mut model = {
        let engine = durable(&dir.0);
        let (s, mut model) = create(&engine, 1_000);
        for _ in 0..3 {
            model.insert(&s, 20);
            s.execute("ALTER DYNAMIC TABLE by_g REFRESH").unwrap();
        }
        assert!(engine.checkpoint().unwrap());
        // The WAL tail past the checkpoint, deletes of a max included.
        for round in 0..2 {
            model.insert(&s, 20);
            let doomed = model.max_of(2);
            model.delete(&s, &[doomed, 40 + round]);
            s.execute("ALTER DYNAMIC TABLE by_g REFRESH").unwrap();
            model.check(&s, "by_g", "before the restart");
        }
        model
    };
    let engine = durable(&dir.0);
    let s = engine.session();
    model.check(&s, "by_g", "after the restart");
    // Restored partitions start uncounted: after insert-only rounds over
    // the restored DT, no partition of the source has ever been read.
    for _ in 0..3 {
        model.insert(&s, 20);
        let read = refresh_reading(&engine, &s, "by_g", "facts", &BTreeMap::new());
        assert_eq!(read, 0);
        model.check(&s, "by_g", "in a round after the restart");
    }
    let doomed = model.max_of(7);
    model.delete(&s, &[doomed]);
    let read = refresh_reading(&engine, &s, "by_g", "facts", &BTreeMap::new());
    assert_eq!(read, data_reads(&engine, "facts").len() as u64);
    model.check(&s, "by_g", "after deleting a max after the restart");
}

#[test]
fn a_clone_is_maintained_from_its_own_rows() {
    let engine = Engine::new(config(64));
    let (s, mut model) = create(&engine, 1_000);
    s.execute("CREATE DYNAMIC TABLE by_g2 CLONE by_g").unwrap();
    // The source moves on; the original follows at once, the clone later,
    // over an interval of two batches — each from its own stored rows.
    let before = data_reads(&engine, "facts");
    model.insert(&s, 50);
    assert_eq!(refresh_reading(&engine, &s, "by_g", "facts", &before), 0);
    model.insert(&s, 50);
    model.delete(&s, &[3, 4, 5]);
    assert_eq!(refresh_reading(&engine, &s, "by_g2", "facts", &before), 0);
    model.check(&s, "by_g2", "after the clone caught up");
    assert_eq!(refresh_reading(&engine, &s, "by_g", "facts", &before), 0);
    model.check(&s, "by_g", "beside its clone");
}

#[test]
fn a_full_mode_dt_and_a_reinitialization_are_crossed() {
    let engine = Engine::new(config(64));
    let (s, mut model) = create(&engine, 1_000);
    create_dt(&s, "copy", "SELECT id, g, v FROM facts WHERE id >= 0", "REFRESH_MODE = FULL");
    create_dt(&s, "full_by_g", BY_G, "REFRESH_MODE = FULL");
    create_dt(&s, "over_copy", &BY_G.replace("facts", "copy"), "");
    for _ in 0..3 {
        model.insert(&s, 30);
        model.delete(&s, &[model.next_id - 100]);
        // `copy` is rewritten wholesale, fresh row ids and all; the DT over
        // it still sees a 31-row delta and folds it without reading any of
        // the new partitions.
        s.execute("ALTER DYNAMIC TABLE over_copy REFRESH").unwrap();
        let log = engine.refresh_log().tail(2);
        assert_eq!((log[0].action, log[1].action), ("full", "incremental"));
        assert_eq!(log[1].source_rows, 31);
        assert!(data_reads(&engine, "copy").values().all(|reads| *reads == 0));
        model.check(&s, "over_copy", "over a FULL-mode DT");
        s.execute("ALTER DYNAMIC TABLE full_by_g REFRESH").unwrap();
        assert_eq!(engine.refresh_log().last().unwrap().action, "full");
        model.check(&s, "full_by_g", "in FULL mode");
    }

    // Query evolution (§5.4): the source is replaced, `by_g` recomputed
    // from scratch; the refreshes after it fold again.
    s.execute("CREATE OR REPLACE TABLE facts (id INT, g INT, v INT)").unwrap();
    let mut model = Model::default();
    model.insert(&s, 500);
    s.execute("ALTER DYNAMIC TABLE by_g REFRESH").unwrap();
    assert_eq!(engine.refresh_log().last().unwrap().action, "reinitialize");
    model.check(&s, "by_g", "after the reinitialization");
    for _ in 0..3 {
        let before = data_reads(&engine, "facts");
        model.insert(&s, 30);
        model.delete(&s, &[model.next_id - 200]);
        assert_eq!(refresh_reading(&engine, &s, "by_g", "facts", &before), 0);
        model.check(&s, "by_g", "in a round after the reinitialization");
    }
}
