//! `dag_refresh` — refresh does all the work: IVM differentiation, the
//! executor, storage installs and level parallelism. No wire, no WAL.
//!
//! One thread, in process, in memory, `set_refresh_threads(2)`. Eight
//! DTs in three levels over `orders` ⋈ `customers`. Each iteration
//! commits one transaction of 1 400 inserts, a 400-row `UPDATE` band and
//! a 200-row `DELETE` band (so deltas are not append-only), runs one
//! whole-DAG round, and reads the leaf. The work is deterministic: a
//! traced run does a fixed number of iterations, so its counters repeat
//! exactly for one seed, while an untraced run fills its time window.

use std::time::{Duration, Instant};

use dt_core::{Engine, Session};

use super::{int_bytes, walk_budget_s};
use crate::harness::{
    check_dvs, create_dts, engine_counters, int, load_table, new_engine, one_round, quiesce,
    repeated_setup, resolve_dts, scalar, Ctx, DtDef, DtKind, Measured, Observation, QuerySample,
    Timeline, WriteSample,
};
use crate::stats::Prng;
use crate::trace::{walk_refresh_round, Walk};

const ORDERS: i64 = 100_000;
const CUSTOMERS: i64 = 2_000;
const REGIONS: i64 = 16;
const INSERTS: i64 = 1_400;
const INSERTS_PER_STATEMENT: i64 = 700;
const UPDATES: i64 = 400;
const DELETES: i64 = 200;
/// Iterations per second of requested window that a traced run performs
/// (an iteration takes about 0.4 s on the 2-core reference host).
const TRACED_ITERATIONS_PER_S: f64 = 2.0;

const LEAF_SQL: &str = "SELECT regions, n, total, max_id FROM rollup";

const DTS: [DtDef; 8] = [
    DtDef {
        name: "o_open",
        kind: DtKind::Project,
        lag: "DOWNSTREAM",
        sql: "SELECT id, cust, amount FROM orders WHERE status < 3",
    },
    DtDef {
        name: "o_big",
        kind: DtKind::Project,
        lag: "DOWNSTREAM",
        sql: "SELECT id, cust, amount FROM orders WHERE amount >= 500",
    },
    DtDef {
        name: "o_cust",
        kind: DtKind::Join,
        lag: "DOWNSTREAM",
        sql: "SELECT o.id, o.cust, o.amount, c.region FROM orders o \
              JOIN customers c ON o.cust = c.cust",
    },
    DtDef {
        name: "by_cust",
        kind: DtKind::Aggregate,
        lag: "DOWNSTREAM",
        sql: "SELECT cust, count(*) n, sum(amount) total FROM o_open GROUP BY cust",
    },
    DtDef {
        name: "big_by_cust",
        kind: DtKind::Aggregate,
        lag: "DOWNSTREAM",
        sql: "SELECT cust, count(*) n_big, sum(amount) total_big FROM o_big GROUP BY cust",
    },
    DtDef {
        name: "by_region",
        kind: DtKind::Aggregate,
        lag: "DOWNSTREAM",
        sql: "SELECT region, count(*) n, sum(amount) total, max(id) max_id FROM o_cust \
              GROUP BY region",
    },
    DtDef {
        name: "cust_summary",
        kind: DtKind::Join,
        lag: "'1 minute'",
        sql: "SELECT a.cust, a.n, a.total, b.n_big, b.total_big FROM by_cust a \
              JOIN big_by_cust b ON a.cust = b.cust",
    },
    DtDef {
        name: "rollup",
        kind: DtKind::Aggregate,
        lag: "'1 minute'",
        sql: "SELECT count(*) regions, sum(n) n, sum(total) total, max(max_id) max_id \
              FROM by_region",
    },
];

fn order_row(rng: &mut Prng, id: i64) -> String {
    format!(
        "{id}, {}, {}, {}",
        rng.below(CUSTOMERS as u64),
        rng.below(1000),
        rng.below(4)
    )
}

fn setup(ctx: &Ctx) -> Engine {
    let engine = new_engine(None);
    engine.set_refresh_threads(2);
    let s = engine.session();
    s.execute("CREATE TABLE orders (id INT, cust INT, amount INT, status INT)")
        .expect("create orders");
    s.execute("CREATE TABLE customers (cust INT, region INT, tier INT)")
        .expect("create customers");
    let mut rng = Prng::new(ctx.seed, 1);
    load_table(&s, "orders", ORDERS, |id| order_row(&mut rng, id));
    load_table(&s, "customers", CUSTOMERS, |c| {
        format!("{c}, {}, {}", c % REGIONS, c % 3)
    });
    create_dts(&s, &DTS);
    engine
}

/// The statements of iteration `i`'s transaction and the last id it
/// inserts.
fn batch_sql(seed: u64, i: u64) -> (Vec<String>, i64) {
    let mut rng = Prng::new(seed, 1_000 + i);
    let first = ORDERS + i as i64 * INSERTS;
    let mut statements = Vec::new();
    let mut id = first;
    while id < first + INSERTS {
        let end = (id + INSERTS_PER_STATEMENT).min(first + INSERTS);
        let rows: Vec<String> = (id..end)
            .map(|id| format!("({})", order_row(&mut rng, id)))
            .collect();
        statements.push(format!("INSERT INTO orders VALUES {}", rows.join(", ")));
        id = end;
    }
    // Bands walk through the preloaded ids, 1 000 apart, so updates and
    // deletes keep hitting rows that exist.
    let lo = (i as i64 % (ORDERS / 1000 - 1)) * 1000;
    statements.push(format!(
        "UPDATE orders SET amount = amount + {} WHERE id >= {lo} AND id < {}",
        1 + rng.below(9),
        lo + UPDATES
    ));
    statements.push(format!(
        "DELETE FROM orders WHERE id >= {} AND id < {}",
        lo + 500,
        lo + 500 + DELETES
    ));
    (statements, first + INSERTS - 1)
}

/// One iteration: commit the batch, run a round, read the leaf.
fn iteration(
    ctx: &Ctx,
    tl: &Timeline,
    engine: &Engine,
    session: &Session,
    i: u64,
    m: &mut Measured,
) {
    let (statements, marker) = batch_sql(ctx.seed, i);
    let sent = tl.now();
    let committed = (|| {
        let mut txn = session.begin();
        for sql in &statements {
            txn.execute(sql)?;
        }
        txn.commit()
    })();
    let acked = tl.now();
    m.writes.push(WriteSample {
        due: sent,
        sent,
        acked,
        born: acked,
        stream: 0,
        marker,
        retries: 0,
        user_bytes: int_bytes(4 * (INSERTS + UPDATES) as u64),
        ok: committed.is_ok(),
    });
    m.rounds.push(one_round(engine, tl));
    let sent = tl.now();
    let leaf = session.query(LEAF_SQL);
    let recv = tl.now();
    let row = leaf.as_ref().ok().and_then(|r| r.rows().first());
    m.queries.push(QuerySample {
        sent,
        recv,
        class: 0,
        ok: row.is_some_and(|r| int(r, 0) == REGIONS),
    });
    if let Some(row) = row {
        m.observations.push(Observation {
            at: recv,
            stream: 0,
            marker: int(row, 3),
        });
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> (Measured, Timeline) {
    let (engine, setup_s, setups) = repeated_setup(|| setup(ctx), drop);
    let mut m = Measured {
        setup_s,
        setups,
        query_classes: vec!["leaf"],
        dts: resolve_dts(&engine, &DTS),
        ..Measured::default()
    };
    let session = engine.session();
    let mut tl = Timeline::start(ctx);
    let mut i = 0u64;
    if ctx.trace {
        // Fixed work, so that the window's counters repeat exactly.
        let per_s = |s: f64| (s * TRACED_ITERATIONS_PER_S).ceil() as u64;
        for _ in 0..per_s(ctx.warmup) {
            iteration(ctx, &tl, &engine, &session, i, &mut m);
            i += 1;
        }
        (tl.w0, tl.w1) = (tl.now(), u64::MAX);
        let before = engine_counters(&engine);
        for _ in 0..per_s(ctx.seconds) {
            iteration(ctx, &tl, &engine, &session, i, &mut m);
            i += 1;
        }
        tl.w1 = tl.now();
        m.counters = engine_counters(&engine).since(&before);
    } else {
        while tl.now() < tl.w1 {
            iteration(ctx, &tl, &engine, &session, i, &mut m);
            i += 1;
        }
    }

    m.check(
        "every round made the batch it followed visible in the leaf",
        m.writes
            .iter()
            .zip(&m.observations)
            .all(|(w, o)| o.marker >= w.marker),
    );
    quiesce(&engine, &tl, &mut m);
    let committed = m.writes.iter().filter(|w| w.ok).count() as i64;
    m.check(
        "orders holds every committed insert",
        scalar(
            &session,
            &format!("SELECT count(*) FROM orders WHERE id >= {ORDERS}"),
        ) == committed * INSERTS,
    );
    check_dvs(&session, &DTS, &mut m, "live");

    if ctx.trace {
        m.walk = Some(walk_layers(ctx, &tl, &engine, &m, i));
    }
    (m, tl)
}

/// A few more iterations stepped through the layers by hand: the batch
/// transaction (execute → prepare_commit → commit), each DT's refresh
/// (prepare → install) in dependency order, and the leaf read.
fn walk_layers(ctx: &Ctx, tl: &Timeline, engine: &Engine, m: &Measured, mut i: u64) -> Walk {
    let mut walk = Walk::new(tl);
    let session = engine.session();
    let dts: Vec<_> = m.dts.iter().map(|(id, _, _)| *id).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(walk_budget_s(ctx));
    while Instant::now() < deadline {
        let (statements, _) = batch_sql(ctx.seed, i);
        i += 1;
        walk.op("write", |o| o.write_txn(&session, &statements, true));
        walk_refresh_round(&mut walk, engine, &dts);
        walk.op("query", |o| {
            o.query(engine, LEAF_SQL, false, "");
        });
    }
    walk
}
