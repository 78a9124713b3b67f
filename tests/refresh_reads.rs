//! What a refresh reads: multi-partition sources scanned as columnar
//! batches (including DT storage, whose leading `$ROW_ID` column shifts a
//! pushed-down filter one column right and is dropped again), key
//! restriction on batches, the delta-only merge, and zone-map pruning of
//! refresh scans. Expected contents come from a model kept by the test,
//! not from the engine's own evaluation.

use std::collections::BTreeMap;

use dt_common::{row, Row};
use dynamic_tables::core::{DbConfig, Engine, Session};

/// Every stored table spans several partitions at this capacity.
const PARTITION_CAPACITY: usize = 8;

fn engine() -> Engine {
    let engine = Engine::new(DbConfig {
        validate_dvs: true,
        partition_capacity: PARTITION_CAPACITY,
        ..DbConfig::default()
    });
    engine.create_warehouse("wh", 4).unwrap();
    engine
}

fn partitions_of(engine: &Engine, table: &str) -> usize {
    engine.inspect(|st| {
        let id = st.catalog().resolve(table).unwrap().id;
        st.table_store(id).unwrap().partition_count()
    })
}

/// The base table `t (id, k, v)` as the test believes it to be.
#[derive(Default)]
struct Model {
    rows: Vec<(i64, i64, i64)>,
    next_id: i64,
}

impl Model {
    /// Ten distinct `(k, v)` payloads over all ids, so `f` is a bag with
    /// many copies of each row.
    fn insert(&mut self, s: &Session, n: i64) {
        let mut values = Vec::new();
        for id in self.next_id..self.next_id + n {
            let (k, v) = (id % 5, (id % 10) * 10 + 5);
            self.rows.push((id, k, v));
            values.push(format!("({id}, {k}, {v})"));
        }
        self.next_id += n;
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }

    fn update(&mut self, s: &Session, from: i64, to: i64) {
        for r in self.rows.iter_mut().filter(|r| r.0 >= from && r.0 < to) {
            r.2 += 10;
        }
        s.execute(&format!(
            "UPDATE t SET v = v + 10 WHERE id >= {from} AND id < {to}"
        ))
        .unwrap();
    }

    fn delete(&mut self, s: &Session, from: i64, to: i64) {
        self.rows.retain(|r| r.0 < from || r.0 >= to);
        s.execute(&format!("DELETE FROM t WHERE id >= {from} AND id < {to}"))
            .unwrap();
    }

    /// `SELECT k, v FROM t WHERE v >= 10`, sorted.
    fn f(&self) -> Vec<Row> {
        let mut out: Vec<Row> = self
            .rows
            .iter()
            .filter(|r| r.2 >= 10)
            .map(|r| row!(r.1, r.2))
            .collect();
        out.sort();
        out
    }

    /// `SELECT k, count(*), sum(v) FROM f WHERE v < 90 GROUP BY k`, sorted.
    fn g(&self) -> Vec<Row> {
        let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for r in self.rows.iter().filter(|r| r.2 >= 10 && r.2 < 90) {
            let g = groups.entry(r.1).or_default();
            g.0 += 1;
            g.1 += r.2;
        }
        groups
            .into_iter()
            .map(|(k, (n, s))| row!(k, n, s))
            .collect()
    }

    fn check(&self, s: &Session, round: &str) {
        assert_eq!(
            s.query_sorted("SELECT k, v FROM f").unwrap(),
            self.f(),
            "f after {round}"
        );
        assert_eq!(
            s.query_sorted("SELECT k, n, s FROM g").unwrap(),
            self.g(),
            "g after {round}"
        );
    }
}

/// A DT-on-DT aggregate over a filtered DT, a bag with duplicates, and
/// insert / update / delete batches: after every round both DTs equal
/// their defining queries — refreshed serially, then by parallel rounds.
fn dag_stays_correct(refresh: impl Fn(&Engine, &Session)) {
    let engine = engine();
    let s = engine.session();
    s.execute("CREATE TABLE t (id INT, k INT, v INT)").unwrap();
    let mut model = Model::default();
    model.insert(&s, 80);
    s.execute(
        "CREATE DYNAMIC TABLE f TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, v FROM t WHERE v >= 10",
    )
    .unwrap();
    // The filter over `f` is pushed into the scan of DT storage, where the
    // payload column `v` sits one column to the right.
    s.execute(
        "CREATE DYNAMIC TABLE g TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, count(*) n, sum(v) s FROM f WHERE v < 90 GROUP BY k",
    )
    .unwrap();
    model.check(&s, "initialization");
    assert!(partitions_of(&engine, "t") >= 4);
    assert!(partitions_of(&engine, "f") >= 4);

    model.insert(&s, 30);
    refresh(&engine, &s);
    model.check(&s, "an insert-only round");

    model.update(&s, 20, 45);
    refresh(&engine, &s);
    model.check(&s, "an update round");

    model.delete(&s, 60, 75);
    refresh(&engine, &s);
    model.check(&s, "a delete round");

    model.insert(&s, 25);
    model.update(&s, 0, 15);
    model.delete(&s, 100, 120);
    refresh(&engine, &s);
    model.check(&s, "a mixed round");

    // Every copy of one payload goes, then comes back.
    model.delete(&s, 0, model.next_id);
    refresh(&engine, &s);
    model.check(&s, "emptying the table");
    model.insert(&s, 40);
    refresh(&engine, &s);
    model.check(&s, "refilling it");

    let log = engine.refresh_log();
    assert_eq!(log.count_action("failed"), 0);
    assert!(log.count_action("incremental") >= 12, "{:?}", log.entries());
}

#[test]
fn multi_partition_dag_stays_correct_refreshed_serially() {
    dag_stays_correct(|_, s| {
        s.manual_refresh("g").unwrap();
    });
}

#[test]
fn multi_partition_dag_stays_correct_refreshed_in_parallel_rounds() {
    dag_stays_correct(|engine, _| {
        engine.set_refresh_threads(2);
        let report = engine.refresh_all_parallel().unwrap();
        assert_eq!(
            (report.refreshed, report.failed, report.conflicts),
            (2, 0, 0),
            "{report:?}"
        );
    });
}

/// An incremental refresh of a filtered aggregate pushes the filter into
/// its snapshot scan, so partitions the zone maps rule out are never read.
/// `avg` is what makes it scan at all: an aggregate the refresh cannot
/// maintain from the delta, so the affected groups are recomputed from the
/// source — at the new end only, their old rows come from the DT.
#[test]
fn incremental_refresh_prunes_partitions_by_zone_map() {
    let engine = engine();
    let s = engine.session();
    s.execute("CREATE TABLE t (id INT, k INT)").unwrap();
    let values = |ids: std::ops::Range<i64>| -> String {
        let v: Vec<String> = ids.map(|id| format!("({id}, {})", id % 3)).collect();
        v.join(", ")
    };
    // Ids arrive in order: partitions hold disjoint id ranges.
    s.execute(&format!("INSERT INTO t VALUES {}", values(0..64)))
        .unwrap();
    assert!(partitions_of(&engine, "t") >= 8);
    s.execute(
        "CREATE DYNAMIC TABLE recent TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, count(*) n, avg(id) a FROM t WHERE id >= 48 GROUP BY k",
    )
    .unwrap();

    s.execute(&format!("INSERT INTO t VALUES {}", values(64..72)))
        .unwrap();
    let before = dt_storage::zone_map_pruned_total();
    s.manual_refresh("recent").unwrap();
    let pruned = dt_storage::zone_map_pruned_total() - before;
    assert_eq!(engine.refresh_log().last().unwrap().action, "incremental");
    // The one end the refresh scans skips the six partitions below id 48
    // (one end prunes 6 where two pruned 12), and so does the evaluation
    // `validate_dvs` checks the result against: 12 in all, 18 while the old
    // end was scanned as well.
    assert!(pruned >= 12, "refresh scans pruned {pruned} partitions");
    assert_eq!(
        s.query_sorted("SELECT k, n, a FROM recent").unwrap(),
        vec![row!(0i64, 8i64, 58.5f64), row!(1i64, 8i64, 59.5f64), row!(2i64, 8i64, 60.5f64)]
    );
}
