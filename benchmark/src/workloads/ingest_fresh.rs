//! `ingest_fresh` — the paper's headline path: a client writes rows over
//! TCP into a durable engine and a second client sees them arrive in a
//! depth-2 dynamic table. Wire, parse/plan, commit and WAL fsync do most
//! of the work; the refresh deltas are small.
//!
//! Connection A is an **open-loop** writer: `RATE_PER_S` unprepared
//! 8-row `INSERT … VALUES` per second, timed from their due instants.
//! Connection B is a closed-loop probe of the leaf DT with a 2 ms think
//! time; it gives freshness as a remote reader sees it and the query
//! latency. The refresh driver runs rounds with a 10 ms floor.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

use dt_client::Client;
use dt_core::{Engine, Session};
use dt_server::{Server, ServerConfig};
use dt_wire::{Request, Response};

use super::{int_bytes, walk_budget_s, WALK_OPS};
use crate::harness::{
    check_dvs, counters_over_window, create_dts, drive_refreshes, finish_durable, int, load_table,
    new_engine, pin_current_thread, quiesce, repeated_setup, resolve_dts, scalar, server_counters,
    Ctx, DtDef, DtKind, Measured, NoHooks, Observation, QuerySample, Side, Timeline, WriteSample,
};
use crate::stats::{median, Pacer, Prng};
use crate::trace::{timed_us, walk_refresh_round, Walk};

const PRELOAD_EVENTS: i64 = 50_000;
const DIM_KEYS: i64 = 1_000;
const REGIONS: i64 = 16;
const ROWS_PER_INSERT: i64 = 8;
/// Offered rate. A single connection saturates near 2 500 inserts/s on
/// the 2-core reference host, so this sits far below half of it; what the
/// run measures is latency at a fixed rate, not capacity.
const RATE_PER_S: u64 = 100;
const DRIVER_FLOOR: Duration = Duration::from_millis(10);
const PROBE_THINK: Duration = Duration::from_millis(2);
/// Rows whose `v` is below this pass `enriched`'s filter.
const FILTER_BELOW: i64 = 900;

const PROBE_SQL: &str = "SELECT region, n, total, max_seq FROM by_region";

const DTS: [DtDef; 2] = [
    DtDef {
        name: "enriched",
        kind: DtKind::Join,
        lag: "DOWNSTREAM",
        sql: "SELECT e.seq, e.k, e.v, d.region FROM events e JOIN dim d ON e.k = d.k \
              WHERE e.v < 900",
    },
    DtDef {
        name: "by_region",
        kind: DtKind::Aggregate,
        lag: "'1 minute'",
        sql: "SELECT region, count(*) n, sum(v) total, max(seq) max_seq FROM enriched \
              GROUP BY region",
    },
];

struct World {
    // Declared before `engine` so the server (and its connection
    // threads) is gone before the engine's last handle drops.
    server: Server,
    engine: Engine,
    dir: PathBuf,
}

impl World {
    /// Drop a world that was only set up, and its WAL directory.
    fn discard(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn setup(ctx: &Ctx) -> World {
    let dir = ctx
        .scratch
        .join(format!("wal-ingest_fresh-{}", std::process::id()));
    let engine = new_engine(Some(&dir));
    let s = engine.session();
    s.execute("CREATE TABLE events (seq INT, k INT, v INT)")
        .expect("create events");
    s.execute("CREATE TABLE dim (k INT, region INT)")
        .expect("create dim");
    let mut rng = Prng::new(ctx.seed, 1);
    load_table(&s, "events", PRELOAD_EVENTS, |seq| {
        format!("{seq}, {}, {}", rng.below(DIM_KEYS as u64), rng.below(1000))
    });
    load_table(&s, "dim", DIM_KEYS, |k| format!("{k}, {}", k % REGIONS));
    create_dts(&s, &DTS);
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind the server");
    World {
        server,
        engine,
        dir,
    }
}

/// The `i`-th generated write: its SQL and its last sequence number. The
/// last row always passes the DT's filter, so the statement's marker
/// reaches the leaf.
fn insert_sql(seed: u64, i: u64) -> (String, i64) {
    let mut rng = Prng::new(seed, 1_000 + i);
    let first = PRELOAD_EVENTS + i as i64 * ROWS_PER_INSERT;
    let rows: Vec<String> = (0..ROWS_PER_INSERT)
        .map(|j| {
            let v = if j + 1 == ROWS_PER_INSERT {
                rng.below(FILTER_BELOW as u64)
            } else {
                rng.below(1000)
            };
            format!("({}, {}, {v})", first + j, rng.below(DIM_KEYS as u64))
        })
        .collect();
    (
        format!("INSERT INTO events VALUES {}", rows.join(", ")),
        first + ROWS_PER_INSERT - 1,
    )
}

fn writer(ctx: &Ctx, tl: &Timeline, addr: std::net::SocketAddr) -> (Vec<WriteSample>, f64) {
    let mut client = Client::connect(addr).expect("writer connects");
    let mut pacer = Pacer::new(tl.instant(0), Duration::from_micros(1_000_000 / RATE_PER_S));
    let mut samples = Vec::new();
    let mut i = 0u64;
    while tl.nanos(pacer.peek_due()) < tl.w1 {
        let (sql, marker) = insert_sql(ctx.seed, i);
        i += 1;
        let due = tl.nanos(pacer.wait_next());
        let sent = tl.now();
        let ok = matches!(client.execute(&sql), Ok(o) if o.count() == ROWS_PER_INSERT as u64);
        samples.push(WriteSample {
            due,
            sent,
            acked: tl.now(),
            born: due,
            stream: 0,
            marker,
            retries: 0,
            user_bytes: int_bytes(3 * ROWS_PER_INSERT as u64),
            ok,
        });
    }
    let _ = client.close();
    (samples, pacer.max_late().as_secs_f64() * 1e3)
}

fn probe(
    tl: &Timeline,
    addr: std::net::SocketAddr,
    stop: &AtomicBool,
    visible: &AtomicI64,
) -> (Vec<QuerySample>, Vec<Observation>) {
    let mut client = Client::connect(addr).expect("probe connects");
    let mut queries = Vec::new();
    let mut seen = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let sent = tl.now();
        let answer = client.query(PROBE_SQL);
        let recv = tl.now();
        let ok = matches!(&answer, Ok(rows) if rows.len() == REGIONS as usize);
        if let Ok(rows) = &answer {
            let marker = rows.rows().iter().map(|r| int(r, 3)).max().unwrap_or(-1);
            visible.store(marker, Ordering::SeqCst);
            seen.push(Observation {
                at: recv,
                stream: 0,
                marker,
            });
        }
        queries.push(QuerySample {
            sent,
            recv,
            class: 0,
            ok,
        });
        std::thread::sleep(PROBE_THINK);
    }
    let _ = client.close();
    (queries, seen)
}

/// Every acknowledged write is present, and every DT equals its query.
fn check_state(session: &Session, m: &mut Measured, phase: &str) {
    let acked = m.writes.iter().filter(|w| w.ok).count() as i64;
    let unknown = m.writes.len() as i64 - acked;
    let rows = scalar(session, "SELECT count(*) FROM events");
    let least = PRELOAD_EVENTS + acked * ROWS_PER_INSERT;
    m.check(
        format!("{phase}: events holds every acknowledged row ({rows} rows, {least} acknowledged)"),
        (least..=least + unknown * ROWS_PER_INSERT).contains(&rows),
    );
    let last = m.writes.iter().filter(|w| w.ok).map(|w| w.marker).max();
    if let Some(last) = last {
        m.check(
            format!("{phase}: leaf DT has reached the last acknowledged seq {last}"),
            scalar(session, "SELECT max(max_seq) FROM by_region") >= last,
        );
    }
    check_dvs(session, &DTS, m, phase);
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> (Measured, Timeline) {
    // Before any thread is spawned, so that the server's threads and the
    // clients inherit the serving side's cores.
    pin_current_thread(Side::Serving);
    let (world, setup_s, setups) = repeated_setup(|| setup(ctx), World::discard);
    let mut m = Measured {
        setup_s,
        setups,
        query_classes: vec!["probe"],
        dts: resolve_dts(&world.engine, &DTS),
        ..Measured::default()
    };
    let tl = Timeline::start(ctx);
    let stop = AtomicBool::new(false);
    let visible = AtomicI64::new(-1);
    let addr = world.server.local_addr();

    std::thread::scope(|s| {
        let writer_thread = s.spawn(|| writer(ctx, &tl, addr));
        let probe_thread = s.spawn(|| probe(&tl, addr, &stop, &visible));
        let driver = s.spawn(|| {
            pin_current_thread(Side::Refresh);
            drive_refreshes(&world.engine, &tl, DRIVER_FLOOR, &stop, &mut NoHooks)
        });
        m.counters = counters_over_window(&tl, || server_counters(&world.engine, &world.server));
        let (writes, late_max_ms) = writer_thread.join().expect("writer thread");
        // Keep refreshing and probing until the last acknowledged row is
        // visible, so every write of the window gets its freshness.
        let last = writes.iter().filter(|w| w.ok).map(|w| w.marker).max();
        let deadline = Instant::now() + Duration::from_secs(10);
        while last.is_some_and(|l| visible.load(Ordering::SeqCst) < l) && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        m.writes = writes;
        m.late_max_ms = late_max_ms;
        (m.queries, m.observations) = probe_thread.join().expect("probe thread");
        m.rounds = driver.join().expect("driver thread");
    });

    // An open loop that cannot keep up shows as lateness that is still
    // there at the end of the window.
    let mut late_at_end: Vec<f64> = m
        .writes
        .iter()
        .filter(|w| w.due >= tl.w1 - (tl.w1 - tl.w0) / 4)
        .map(|w| (w.sent - w.due) as f64 / 1e6)
        .collect();
    let late_at_end = median(&mut late_at_end);
    m.check(
        format!("generator keeps up: median lateness over the last quarter is {late_at_end:.1} ms"),
        late_at_end < 100.0,
    );
    // Quiesce, check, then crash-restart and check what was recovered.
    quiesce(&world.engine, &tl, &mut m);
    check_state(&world.engine.session(), &mut m, "live");
    let World {
        server,
        engine,
        dir,
    } = world;
    finish_durable(
        ctx,
        &mut m,
        server,
        engine,
        &dir,
        check_state,
        |engine, m| walk_layers(ctx, &tl, engine, m),
    );
    (m, tl)
}

/// Step the first generated operations through the layers by hand, on
/// the recovered engine: each write as the server would run it (and a
/// twin of it through a real server and client, the quiet pass), a probe
/// read after each, and a by-hand refresh round every tenth write (the
/// run's own ratio of writes to rounds).
fn walk_layers(ctx: &Ctx, tl: &Timeline, engine: &Engine, m: &Measured) -> Walk {
    let mut walk = Walk::new(tl);
    let session = engine.session();
    let dts: Vec<_> = m.dts.iter().map(|(id, _, _)| *id).collect();
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind the quiet-pass server");
    let mut client = Client::connect(server.local_addr()).expect("quiet-pass client connects");
    let deadline = Instant::now() + Duration::from_secs_f64(walk_budget_s(ctx));
    for i in 0..WALK_OPS as u64 {
        if Instant::now() >= deadline {
            break;
        }
        let (sql, _) = insert_sql(ctx.seed, i);
        let (twin, _) = insert_sql(ctx.seed, WALK_OPS as u64 + i);
        walk.quiet_client_us.push(timed_us(|| {
            client.execute(&twin).expect("quiet-pass insert");
        }));
        walk.op("tcp_write", |o| {
            let Request::Query { sql } = o.request_hop(&Request::Query { sql }) else {
                unreachable!("a query request decodes as one");
            };
            // Auto-commit DML takes the unbatched commit path.
            o.write_txn(&session, &[sql], false);
            o.response_hop(&Response::Count(ROWS_PER_INSERT as u64));
        });
        walk.op("tcp_query", |o| {
            o.request_hop(&Request::Query {
                sql: PROBE_SQL.into(),
            });
            let rows = o.query(engine, PROBE_SQL, false, "");
            o.response_hop(&rows);
        });
        if i % 10 == 9 {
            walk_refresh_round(&mut walk, engine, &dts);
        }
    }
    let _ = client.close();
    server.shutdown();
    walk
}
