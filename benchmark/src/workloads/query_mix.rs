//! `query_mix` — the read path does the work (plan and pushdown, the
//! batch executor, storage snapshots and zone maps, wire row encoding)
//! while a trickle of writes and refreshes keeps versions moving: reads
//! beside writes.
//!
//! In memory, over TCP. One closed-loop reader connection runs six
//! prepared statements with fixed weights, chosen so that the median of
//! the mix falls in `range` and its tail in `join`. The refresh driver
//! inserts `TRICKLE_ROWS` rows in process, runs a round and reads the DT,
//! every `TRICKLE_EVERY`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dt_client::{Client, Prepared};
use dt_common::Value;
use dt_core::{Engine, Session};
use dt_server::{Server, ServerConfig};
use dt_wire::Request;

use super::{int_bytes, walk_budget_s};
use crate::harness::{
    check_dvs, counters_over_window, create_dts, drive_refreshes, int, load_table, new_engine,
    quiesce, repeated_setup, resolve_dts, scalar, server_counters, Ctx, DtDef, DtKind, Measured,
    Observation, QuerySample, RoundHooks, Timeline, WriteSample,
};
use crate::metrics::QUERY_CLASSES;
use crate::stats::Prng;
use crate::trace::{timed_us, walk_refresh_round, Walk};

const FACTS: i64 = 300_000;
const DIM_KEYS: i64 = 1_000;
const REGIONS: i64 = 16;
const LABELS: i64 = 10;
const RANGE_IDS: i64 = 5_000;
const ROWS_IDS: i64 = 2_000;
const JOIN_IDS: i64 = 20_000;
const TRICKLE_ROWS: i64 = 200;
const TRICKLE_EVERY: Duration = Duration::from_secs(1);

/// Per class, in `QUERY_CLASSES` order: weight in percent, the prepared
/// text, and the width of the id range its parameters span (0: none).
const CLASSES: [(u64, &str, i64); 6] = [
    (10, "SELECT region, n, total, max_id FROM by_region", 0),
    (15, "SELECT id, k, region, v FROM facts WHERE id = ?", 1),
    (
        50,
        "SELECT count(*), sum(v) FROM facts WHERE id >= ? AND id < ?",
        RANGE_IDS,
    ),
    (
        10,
        "SELECT id, k, v FROM facts WHERE id >= ? AND id < ?",
        ROWS_IDS,
    ),
    (
        10,
        "SELECT region, count(*), sum(v) FROM facts GROUP BY region",
        0,
    ),
    (
        5,
        "SELECT d.label, count(*), sum(f.v) FROM facts f JOIN dim d ON f.k = d.k \
         WHERE f.id >= ? AND f.id < ? GROUP BY d.label",
        JOIN_IDS,
    ),
];

const DTS: [DtDef; 1] = [DtDef {
    name: "by_region",
    kind: DtKind::Aggregate,
    lag: "'1 minute'",
    sql: "SELECT region, count(*) n, sum(v) total, max(id) max_id FROM facts GROUP BY region",
}];

struct World {
    server: Server,
    engine: Engine,
}

fn fact_row(rng: &mut Prng, id: i64) -> String {
    format!(
        "{id}, {}, {}, {}",
        rng.below(DIM_KEYS as u64),
        rng.below(REGIONS as u64),
        rng.below(1000)
    )
}

fn setup(ctx: &Ctx) -> World {
    let engine = new_engine(None);
    let s = engine.session();
    s.execute("CREATE TABLE facts (id INT, k INT, region INT, v INT)")
        .expect("create facts");
    s.execute("CREATE TABLE dim (k INT, label INT)")
        .expect("create dim");
    let mut rng = Prng::new(ctx.seed, 1);
    load_table(&s, "facts", FACTS, |id| fact_row(&mut rng, id));
    load_table(&s, "dim", DIM_KEYS, |k| format!("{k}, {}", k % LABELS));
    create_dts(&s, &DTS);
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind the server");
    World { server, engine }
}

/// Reads are dealt in blocks of this many, each block holding every class
/// in exactly its weight's share and shuffled by the seed. Drawing each
/// read's class independently made the number of `join`s in a 20 s window
/// vary by ±11 % between seeds, and with it `query_ok_per_s`, which the
/// slow classes decide (spread 14–20 % over ten seeds, against 4 % dealt).
const BLOCK: u64 = 20;

/// The `i`-th generated read: its class and parameters. Ranges stay
/// inside the preloaded, dense ids, so every answer's shape is known.
fn read_op(seed: u64, i: u64) -> (usize, Vec<Value>) {
    let mut deck: Vec<usize> = CLASSES
        .iter()
        .enumerate()
        .flat_map(|(class, (weight, _, _))| {
            std::iter::repeat_n(class, (weight * BLOCK / 100) as usize)
        })
        .collect();
    assert_eq!(deck.len() as u64, BLOCK, "weights are multiples of 5 %");
    let mut shuffle = Prng::new(seed, 3_000_000 + i / BLOCK);
    for k in (1..deck.len()).rev() {
        deck.swap(k, shuffle.below(k as u64 + 1) as usize);
    }
    let class = deck[(i % BLOCK) as usize];
    let mut rng = Prng::new(seed, 2_000_000 + i);
    let width = CLASSES[class].2;
    let params = match width {
        0 => vec![],
        1 => vec![Value::Int(rng.below(FACTS as u64))],
        _ => {
            let lo = rng.below((FACTS - width) as u64);
            vec![Value::Int(lo), Value::Int(lo + width)]
        }
    };
    (class, params)
}

/// Whether `rows` is the answer class `class` must give.
fn shape_ok(class: usize, rows: &[dt_common::Row]) -> bool {
    let total = |col: usize| rows.iter().map(|r| int(r, col)).sum::<i64>();
    match QUERY_CLASSES[class] {
        "dt" => rows.len() == REGIONS as usize,
        "point" => rows.len() == 1,
        "range" => rows.len() == 1 && int(&rows[0], 0) == RANGE_IDS,
        "rows" => rows.len() == ROWS_IDS as usize,
        "agg" => rows.len() == REGIONS as usize && total(1) >= FACTS,
        "join" => rows.len() == LABELS as usize && total(1) == JOIN_IDS,
        other => unreachable!("class {other}"),
    }
}

fn reader(
    ctx: &Ctx,
    tl: &Timeline,
    addr: std::net::SocketAddr,
    stop: &AtomicBool,
) -> Vec<QuerySample> {
    let mut client = Client::connect(addr).expect("reader connects");
    let prepared: Vec<Prepared> = CLASSES
        .iter()
        .map(|(_, sql, _)| client.prepare(sql).expect("prepare a mix statement"))
        .collect();
    let mut samples = Vec::new();
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let (class, params) = read_op(ctx.seed, i);
        i += 1;
        let sent = tl.now();
        let answer = client.query_prepared(prepared[class], &params);
        let recv = tl.now();
        samples.push(QuerySample {
            sent,
            recv,
            class,
            ok: matches!(&answer, Ok(rows) if shape_ok(class, rows.rows())),
        });
    }
    let _ = client.close();
    samples
}

/// The driver's trickle: a batch before each round, a DT read after it.
struct Trickle<'a> {
    seed: u64,
    session: &'a Session,
    next: u64,
    writes: Vec<WriteSample>,
    seen: Vec<Observation>,
}

/// The `i`-th trickle batch and its last id.
fn trickle_sql(seed: u64, i: u64) -> (String, i64) {
    let mut rng = Prng::new(seed, 1_000 + i);
    let first = FACTS + i as i64 * TRICKLE_ROWS;
    let rows: Vec<String> = (first..first + TRICKLE_ROWS)
        .map(|id| format!("({})", fact_row(&mut rng, id)))
        .collect();
    (
        format!("INSERT INTO facts VALUES {}", rows.join(", ")),
        first + TRICKLE_ROWS - 1,
    )
}

impl RoundHooks for Trickle<'_> {
    fn before(&mut self, tl: &Timeline) {
        let (sql, marker) = trickle_sql(self.seed, self.next);
        self.next += 1;
        let sent = tl.now();
        let ok = self.session.execute(&sql).is_ok();
        let acked = tl.now();
        self.writes.push(WriteSample {
            due: sent,
            sent,
            acked,
            born: acked,
            stream: 0,
            marker,
            retries: 0,
            user_bytes: int_bytes(4 * TRICKLE_ROWS as u64),
            ok,
        });
    }

    fn after(&mut self, tl: &Timeline) {
        if let Ok(rows) = self.session.query(CLASSES[0].1) {
            self.seen.push(Observation {
                at: tl.now(),
                stream: 0,
                marker: rows.rows().iter().map(|r| int(r, 3)).max().unwrap_or(-1),
            });
        }
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> (Measured, Timeline) {
    let (world, setup_s, setups) = repeated_setup(|| setup(ctx), drop);
    let mut m = Measured {
        setup_s,
        setups,
        query_classes: QUERY_CLASSES.to_vec(),
        dts: resolve_dts(&world.engine, &DTS),
        ..Measured::default()
    };
    let tl = Timeline::start(ctx);
    let stop = AtomicBool::new(false);
    let addr = world.server.local_addr();
    let session = world.engine.session();

    std::thread::scope(|s| {
        let reader_thread = s.spawn(|| reader(ctx, &tl, addr, &stop));
        let driver = s.spawn(|| {
            let mut trickle = Trickle {
                seed: ctx.seed,
                session: &session,
                next: 0,
                writes: Vec::new(),
                seen: Vec::new(),
            };
            let rounds = drive_refreshes(&world.engine, &tl, TRICKLE_EVERY, &stop, &mut trickle);
            (rounds, trickle.writes, trickle.seen)
        });
        m.counters = counters_over_window(&tl, || server_counters(&world.engine, &world.server));
        stop.store(true, Ordering::SeqCst);
        m.queries = reader_thread.join().expect("reader thread");
        (m.rounds, m.writes, m.observations) = driver.join().expect("driver thread");
    });

    quiesce(&world.engine, &tl, &mut m);
    let acked = m.writes.iter().filter(|w| w.ok).count() as i64;
    m.check(
        "facts holds every acknowledged trickle row",
        scalar(&session, "SELECT count(*) FROM facts") == FACTS + acked * TRICKLE_ROWS,
    );
    check_dvs(&session, &DTS, &mut m, "live");

    if ctx.trace {
        m.walk = Some(walk_layers(ctx, &tl, &world, &m));
    }
    (m, tl)
}

/// Step the first generated reads through the layers by hand (request
/// frame → snapshot → execute → rows frame; parse and bind are timed
/// aside because the run's statements are prepared), then a few trickle
/// batches and by-hand refreshes. A class stops being walked once it has
/// used its share of the budget, so the slow classes do not starve the
/// fast ones of samples.
fn walk_layers(ctx: &Ctx, tl: &Timeline, world: &World, m: &Measured) -> Walk {
    let mut walk = Walk::new(tl);
    let engine = &world.engine;
    let session = engine.session();
    let budget = walk_budget_s(ctx);
    let per_class_us = budget * 0.75 / CLASSES.len() as f64 * 1e6;
    let mut spent_us = [0.0f64; CLASSES.len()];
    // The quiet pass: each walked `range` read is also sent through the
    // server as a prepared statement, with nothing else running.
    let range = QUERY_CLASSES.iter().position(|c| *c == "range");
    let mut client =
        Client::connect(world.server.local_addr()).expect("quiet-pass client connects");
    let statement = client
        .prepare(CLASSES[range.expect("range class")].1)
        .expect("prepare range");
    for i in 0..super::WALK_OPS as u64 {
        let (class, params) = read_op(ctx.seed, i);
        if spent_us[class] >= per_class_us {
            continue;
        }
        // The walk binds literal text: the parameters substituted into
        // the statement give the plan the prepared path executes.
        let mut literal = CLASSES[class].1.to_string();
        for p in &params {
            literal = literal.replacen('?', &int_text(p), 1);
        }
        let began = Instant::now();
        walk.op(&format!("query.{}", QUERY_CLASSES[class]), |o| {
            o.request_hop(&Request::ExecutePrepared {
                id: class as u64 + 1,
                params: params.clone(),
            });
            let rows = o.query(engine, &literal, true, QUERY_CLASSES[class]);
            o.response_hop(&rows);
        });
        if Some(class) == range {
            walk.quiet_client_us.push(timed_us(|| {
                client
                    .query_prepared(statement, &params)
                    .expect("quiet-pass range read");
            }));
        }
        spent_us[class] += began.elapsed().as_secs_f64() * 1e6;
    }
    let _ = client.close();
    let dts: Vec<_> = m.dts.iter().map(|(id, _, _)| *id).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(budget * 0.25);
    let mut batch = m.writes.len() as u64;
    while Instant::now() < deadline {
        let (sql, _) = trickle_sql(ctx.seed, batch);
        batch += 1;
        // Auto-commit DML takes the unbatched commit path.
        walk.op("write", |o| o.write_txn(&session, &[sql], false));
        walk_refresh_round(&mut walk, engine, &dts);
    }
    walk
}

fn int_text(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        other => unreachable!("mix parameters are integers, not {other:?}"),
    }
}
