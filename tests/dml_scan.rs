//! A DML `WHERE` matches through the query path: `UPDATE` and `DELETE`
//! find their rows with the same pushed-down, zone-map-pruned columnar
//! scan as `SELECT * FROM t WHERE p` inside the same transaction, over
//! the pinned snapshot with the transaction's own buffered writes laid
//! over it. So they match exactly the rows, in exactly the order and
//! with exactly the errors of that `SELECT`, and a band `UPDATE` reads
//! the partitions of its band, not the table. `INSERT … VALUES`
//! evaluates its cells in place, with the messages it always had.

use std::collections::{BTreeMap, HashMap};

use dt_common::{row, PartitionId, Row, Value};
use dt_core::{DbConfig, Engine, ExecResult, Session, Transaction};

/// xorshift64: every history is a function of its seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A `k` / `v` cell: a small integer (zero included), or NULL.
    fn cell(&mut self) -> Option<i64> {
        (self.below(6) != 0).then(|| self.below(5) as i64)
    }

    /// A row of `t (id, k, v)`: a fresh one, or a copy of a visible row,
    /// so the table holds duplicates.
    fn row(&mut self, visible: &[Row]) -> Row {
        if !visible.is_empty() && self.below(3) == 0 {
            return visible[self.below(visible.len() as u64) as usize].clone();
        }
        let id = self.below(40) as i64;
        Row::new(vec![Value::Int(id), value(self.cell()), value(self.cell())])
    }
}

fn value(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn sql_values(rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.values().iter().map(Value::to_string).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    tuples.join(", ")
}

/// A `WHERE` clause the test can evaluate itself. Some conjuncts push
/// into the scan (`id` ranges, `k = c`), some cannot (arithmetic, `OR`,
/// `IS NULL`), and some shapes mix both.
#[derive(Debug, Clone, Copy)]
enum Pred {
    All,
    IdRange(i64, i64),
    KEq(i64),
    KNull,
    VAbove(i64),
    IdFromVMod(i64, i64),
    KEqOrIdBelow(i64, i64),
}

impl Pred {
    fn random(rng: &mut Rng) -> Pred {
        let (a, c) = (rng.below(40) as i64, rng.below(5) as i64);
        match rng.below(7) {
            0 => Pred::All,
            1 => Pred::IdRange(a, a + 1 + rng.below(15) as i64),
            2 => Pred::KEq(c),
            3 => Pred::KNull,
            4 => Pred::VAbove(c),
            5 => Pred::IdFromVMod(a, c % 3),
            _ => Pred::KEqOrIdBelow(c, a),
        }
    }

    fn sql(self) -> String {
        match self {
            Pred::All => String::new(),
            Pred::IdRange(lo, hi) => format!(" WHERE id >= {lo} AND id < {hi}"),
            Pred::KEq(c) => format!(" WHERE k = {c}"),
            Pred::KNull => " WHERE k IS NULL".into(),
            Pred::VAbove(c) => format!(" WHERE v + 0 > {c}"),
            Pred::IdFromVMod(lo, m) => format!(" WHERE id >= {lo} AND v % 3 = {m}"),
            Pred::KEqOrIdBelow(c, a) => format!(" WHERE k = {c} OR id < {a}"),
        }
    }

    /// SQL's three-valued `WHERE`, by hand: NULL never matches.
    fn matches(self, r: &Row) -> bool {
        let (id, k, v) = (int(r.get(0)).unwrap(), int(r.get(1)), int(r.get(2)));
        match self {
            Pred::All => true,
            Pred::IdRange(lo, hi) => id >= lo && id < hi,
            Pred::KEq(c) => k == Some(c),
            Pred::KNull => k.is_none(),
            Pred::VAbove(c) => v.is_some_and(|v| v > c),
            Pred::IdFromVMod(lo, m) => id >= lo && v.is_some_and(|v| v % 3 == m),
            Pred::KEqOrIdBelow(c, a) => k == Some(c) || id < a,
        }
    }
}

/// What a transaction over `t` sees, kept by the test: the committed rows
/// in scan order, how many copies of each the transaction deleted (the
/// first ones in scan order), and its own inserts in statement order. A
/// delete cancels against the transaction's own inserts first.
struct Model {
    base: Vec<Row>,
    base_deleted: HashMap<Row, usize>,
    inserts: Vec<Row>,
}

impl Model {
    fn view(&self) -> Vec<Row> {
        let mut deleted = self.base_deleted.clone();
        let mut out = Vec::new();
        for r in &self.base {
            match deleted.get_mut(r).filter(|n| **n > 0) {
                Some(n) => *n -= 1,
                None => out.push(r.clone()),
            }
        }
        out.extend(self.inserts.iter().cloned());
        out
    }

    fn delete(&mut self, rows: &[Row]) {
        for r in rows {
            match self.inserts.iter().position(|i| i == r) {
                Some(at) => {
                    self.inserts.remove(at);
                }
                None => *self.base_deleted.entry(r.clone()).or_insert(0) += 1,
            }
        }
    }
}

fn engine(partition_capacity: usize) -> Engine {
    Engine::new(DbConfig {
        partition_capacity,
        ..DbConfig::default()
    })
}

/// `t (id, k, v)` over several small partitions, with duplicates and
/// NULLs, some of them rewritten by committed deletes and updates.
fn seeded_table(rng: &mut Rng, partition_capacity: usize) -> (Engine, Session) {
    let engine = engine(partition_capacity);
    let s = engine.session();
    s.execute("CREATE TABLE t (id INT, k INT, v INT)").unwrap();
    for _ in 0..2 + rng.below(3) {
        let rows: Vec<Row> = (0..3 + rng.below(12)).map(|_| rng.row(&[])).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", sql_values(&rows)))
            .unwrap();
    }
    s.execute(&format!("DELETE FROM t WHERE id = {}", rng.below(40)))
        .unwrap();
    s.execute(&format!("UPDATE t SET v = 1 WHERE id < {}", rng.below(40)))
        .unwrap();
    (engine, s)
}

fn rows(txn: &Transaction, sql: &str) -> Vec<Row> {
    txn.query(sql).unwrap().rows().to_vec()
}

fn count(outcome: ExecResult) -> usize {
    match outcome {
        ExecResult::Count(n) => n,
        other => panic!("expected a row count, got {other:?}"),
    }
}

#[test]
fn dml_matches_the_model_over_seeded_histories() {
    let mut matched = 0;
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let (_engine, s) = seeded_table(&mut rng, 1 + (seed % 4) as usize);
        let mut model = Model {
            base: s.query("SELECT * FROM t").unwrap().rows().to_vec(),
            base_deleted: HashMap::new(),
            inserts: Vec::new(),
        };
        let mut txn = s.begin();
        for step in 0..14 {
            let p = Pred::random(&mut rng);
            let expected: Vec<Row> = model.view().into_iter().filter(|r| p.matches(r)).collect();
            let at = format!("seed {seed} step {step}{}", p.sql());
            assert_eq!(
                rows(&txn, &format!("SELECT * FROM t{}", p.sql())),
                expected,
                "{at}"
            );
            match rng.below(4) {
                0 => {
                    let new: Vec<Row> = (0..1 + rng.below(4))
                        .map(|_| rng.row(&model.view()))
                        .collect();
                    txn.execute(&format!("INSERT INTO t VALUES {}", sql_values(&new)))
                        .unwrap();
                    model.inserts.extend(new);
                }
                1 => {
                    let n = txn
                        .execute(&format!("UPDATE t SET v = v + 1{}", p.sql()))
                        .unwrap();
                    assert_eq!(count(n), expected.len(), "{at}");
                    model.delete(&expected);
                    model.inserts.extend(expected.iter().map(|r| {
                        let v = int(r.get(2)).map(|v| v + 1);
                        Row::new(vec![r.get(0).clone(), r.get(1).clone(), value(v)])
                    }));
                }
                2 => {
                    let n = txn
                        .execute(&format!("UPDATE t SET k = NULL, id = id + 1{}", p.sql()))
                        .unwrap();
                    assert_eq!(count(n), expected.len(), "{at}");
                    model.delete(&expected);
                    model.inserts.extend(expected.iter().map(|r| {
                        let id = int(r.get(0)).unwrap() + 1;
                        Row::new(vec![Value::Int(id), Value::Null, r.get(2).clone()])
                    }));
                }
                _ => {
                    let n = txn.execute(&format!("DELETE FROM t{}", p.sql())).unwrap();
                    assert_eq!(count(n), expected.len(), "{at}");
                    model.delete(&expected);
                }
            }
            matched += expected.len();
            assert_eq!(rows(&txn, "SELECT * FROM t"), model.view(), "{at}");
        }
        txn.commit().unwrap();
        let mut committed = model.view();
        committed.sort();
        assert_eq!(
            s.query_sorted("SELECT * FROM t").unwrap(),
            committed,
            "seed {seed}"
        );
    }
    assert!(matched > 1000, "{matched} rows matched over 64 histories");
}

/// A predicate that can fail on a zero, alone or beside conjuncts that
/// push into the scan (before and after it).
fn failing_predicate(rng: &mut Rng) -> String {
    let a = rng.below(40);
    match rng.below(4) {
        0 => "10 / v > 1".into(),
        1 => format!("10 / v > 1 AND id < {a}"),
        2 => format!("id >= {a} AND 10 / k > 1"),
        _ => format!("id >= {a} AND id < {} AND 10 / (v - 1) > 0", a + 8),
    }
}

#[test]
fn dml_errors_iff_the_same_select_errors() {
    let (mut errors, mut successes) = (0, 0);
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let (_engine, s) = seeded_table(&mut rng, 1 + (seed % 3) as usize);
        let mut txn = s.begin();
        for step in 0..10 {
            // Own inserts (zeros among them) and deletes (some of the
            // zeros): a deleted zero must not raise, an inserted one must.
            let visible = rows(&txn, "SELECT * FROM t");
            let new: Vec<Row> = (0..1 + rng.below(3)).map(|_| rng.row(&visible)).collect();
            txn.execute(&format!("INSERT INTO t VALUES {}", sql_values(&new)))
                .unwrap();
            txn.execute(&format!("DELETE FROM t WHERE k = {}", rng.below(5)))
                .unwrap();

            let p = failing_predicate(&mut rng);
            let select = txn.query(&format!("SELECT * FROM t WHERE {p}"));
            let dml = match rng.below(2) {
                0 => format!("DELETE FROM t WHERE {p}"),
                _ => format!("UPDATE t SET v = v + 1 WHERE {p}"),
            };
            let outcome = txn.execute(&dml);
            let at = format!("seed {seed} step {step}: {dml}");
            match (select, outcome) {
                (Ok(q), Ok(n)) => {
                    assert_eq!(count(n), q.rows().len(), "{at}");
                    successes += 1;
                }
                (Err(q), Err(d)) => {
                    assert_eq!(q.to_string(), d.to_string(), "{at}");
                    errors += 1;
                }
                (q, d) => panic!("{at}: SELECT {q:?}, DML {d:?}"),
            }
        }
        txn.commit().unwrap();
    }
    // Both outcomes occur often enough to mean something.
    assert!(
        errors > 50 && successes > 50,
        "{errors} errors, {successes} successes"
    );
}

/// `Partition::data_reads` of every partition of `table`'s latest version.
fn data_reads(engine: &Engine, table: &str) -> BTreeMap<PartitionId, u64> {
    engine.inspect(|st| {
        let store = st
            .table_store(st.catalog().resolve(table).unwrap().id)
            .unwrap();
        let snap = store.snapshot_latest();
        snap.partitions()
            .iter()
            .map(|p| (p.id(), p.data_reads()))
            .collect()
    })
}

#[test]
fn band_dml_reads_the_partitions_of_its_band() {
    // 100 000 rows with sequential ids in 100 partitions of 1 000.
    let engine = engine(1000);
    let s = engine.session();
    s.execute("CREATE TABLE orders (id INT, amount INT)")
        .unwrap();
    for chunk in 0..100i64 {
        let rows: Vec<Row> = (chunk * 1000..(chunk + 1) * 1000)
            .map(|id| row!(id, id % 97))
            .collect();
        s.execute(&format!("INSERT INTO orders VALUES {}", sql_values(&rows)))
            .unwrap();
    }
    let before = data_reads(&engine, "orders");
    assert_eq!(before.len(), 100);
    let pruned_before = dt_storage::zone_map_pruned_total();

    let mut txn = s.begin();
    let n = txn
        .execute("UPDATE orders SET amount = amount + 1 WHERE id >= 10000 AND id < 10400")
        .unwrap();
    assert_eq!(count(n), 400);
    let n = txn
        .execute("DELETE FROM orders WHERE id >= 50500 AND id < 50700")
        .unwrap();
    assert_eq!(count(n), 200);

    let after = data_reads(&engine, "orders");
    let read: Vec<PartitionId> = after
        .iter()
        .filter(|(id, reads)| **reads > before[*id])
        .map(|(id, _)| *id)
        .collect();
    // Each statement read the one partition holding its band, once …
    assert_eq!(read.len(), 2, "partitions read: {read:?}");
    assert!(read.iter().all(|id| after[id] == before[id] + 1));
    // … and ruled the other 99 out by their zone maps alone.
    assert!(dt_storage::zone_map_pruned_total() >= pruned_before + 2 * 99);
    txn.commit().unwrap();
    assert_eq!(
        s.query_sorted("SELECT count(*) FROM orders").unwrap(),
        [row!(99_800i64)]
    );
    assert_eq!(
        s.query_sorted("SELECT count(*) FROM orders WHERE amount = id % 97 + 1")
            .unwrap(),
        [row!(400i64)]
    );
}

fn insert_error(s: &Session, sql: &str) -> String {
    s.execute(sql).unwrap_err().to_string()
}

#[test]
fn values_cells_keep_their_semantics_and_messages() {
    let engine = engine(4096);
    let s = engine.session();
    s.execute("CREATE TABLE m (i INT, f FLOAT, s STRING)")
        .unwrap();

    // Coercion to the column types, NULL in any column, expression cells.
    s.execute("INSERT INTO m VALUES (1.5, 2, 'a'), (NULL, NULL, NULL)")
        .unwrap();
    s.execute("INSERT INTO m VALUES (-5, 1 + 2, CAST(7 AS STRING))")
        .unwrap();
    s.execute("INSERT INTO m VALUES (CAST('12' AS INT), 2 * 1.25, upper('b'))")
        .unwrap();
    s.execute("INSERT INTO m VALUES ('13', '0.5', 14)").unwrap();
    let prepared = s.prepare("INSERT INTO m VALUES (?, ?, 'p')").unwrap();
    prepared
        .execute(&[Value::Int(20), Value::Float(0.25)])
        .unwrap();
    prepared
        .execute(&[Value::Str("21".into()), Value::Null])
        .unwrap();
    assert_eq!(
        s.query_sorted("SELECT i, f, s FROM m").unwrap(),
        [
            Row::new(vec![Value::Null, Value::Null, Value::Null]),
            row!(-5i64, 3.0f64, "7"),
            row!(1i64, 2.0f64, "a"),
            row!(12i64, 2.5f64, "B"),
            row!(13i64, 0.5f64, "14"),
            row!(20i64, 0.25f64, "p"),
            Row::new(vec![Value::Int(21), Value::Null, Value::Str("p".into())]),
        ]
    );

    // The messages the statement-per-cell path gave, word for word.
    let cases = [
        (
            "INSERT INTO m VALUES (1, 2)",
            "type error: INSERT arity 2 does not match table arity 3",
        ),
        (
            "INSERT INTO m VALUES ('x', 1, 'a')",
            "evaluation error: cannot cast 'x' to INT",
        ),
        (
            "INSERT INTO m VALUES (TRUE, 1, 'a')",
            "type error: cannot cast true to INT",
        ),
        (
            "INSERT INTO m VALUES (1 / 0, 1, 'a')",
            "evaluation error: division by zero",
        ),
        (
            "INSERT INTO m VALUES (x, 1, 'a')",
            "binding error: unknown column 'x'",
        ),
        (
            "INSERT INTO m VALUES (nope(1), 1, 'a')",
            "binding error: unknown function 'nope'",
        ),
        // The first bad row wins, and inside a row the first bad cell.
        (
            "INSERT INTO m VALUES (1, 1, 'a'), (1 / 0, x, 'b'), (1, 2)",
            "evaluation error: division by zero",
        ),
        (
            "INSERT INTO m VALUES (1, 1, 'a'), (x, 1 / 0, 'b'), (1, 2)",
            "binding error: unknown column 'x'",
        ),
        (
            "INSERT INTO m VALUES (1, 1, 'a'), (1, 2), (1 / 0, 1, 'b')",
            "type error: INSERT arity 2 does not match table arity 3",
        ),
        (
            "INSERT INTO m VALUES ('x', 1 / 0, 'a')",
            "evaluation error: division by zero",
        ),
    ];
    for (sql, message) in cases {
        assert_eq!(insert_error(&s, sql), message, "{sql}");
    }
    let prepared = s.prepare("INSERT INTO m VALUES (?, ?, ?)").unwrap();
    assert_eq!(
        prepared.execute(&[Value::Int(1)]).unwrap_err().to_string(),
        "binding error: statement expects 3 parameter(s), 1 bound"
    );
    assert_eq!(
        prepared
            .execute(&[Value::Str("y".into()), Value::Int(1), Value::Int(2)])
            .unwrap_err()
            .to_string(),
        "evaluation error: cannot cast 'y' to INT"
    );
    // Nothing of a failed statement was kept.
    assert_eq!(
        s.query_sorted("SELECT count(*) FROM m").unwrap(),
        [row!(7i64)]
    );
    // A cell is a scalar over no rows: an aggregate or a window function
    // has nothing to range over there (each cell used to run as its own
    // one-row query, where `count(*)` counted 1).
    assert_eq!(
        insert_error(&s, "INSERT INTO m VALUES (count(*), 1, 'a')"),
        "binding error: aggregate function count requires GROUP BY context"
    );
    assert_eq!(
        insert_error(&s, "INSERT INTO m VALUES (row_number() OVER (), 1, 'a')"),
        "binding error: window functions are only allowed in the SELECT list"
    );
}
