//! `txn_contention` — the same commit path as `ingest_fresh`, used
//! differently: multi-statement read-modify-write transactions on one
//! hot table, so `dt-txn` (first-committer-wins validation, AUTO locking
//! flips, wait-queues, group commit) decides the result instead of
//! parsing and fsync.
//!
//! Durable, over TCP. Two closed-loop connections each run
//! `Client::run_txn(64, …)`: two `UPDATE`s on `accounts` and one `INSERT`
//! into `transfers`. The refresh driver runs rounds with a 60 ms floor
//! and after every round reads `ledger` — whose total must be conserved
//! in every version (the paper's Fig. 1–2 isolation point) — and
//! `xfer_stats`, which carries each writer's `max(seq)`.

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
    new_engine, quiesce, repeated_setup, resolve_dts, scalar, server_counters, Ctx, DtDef, DtKind,
    Measured, Observation, QuerySample, RoundHooks, Timeline, WriteSample,
};
use crate::stats::Prng;
use crate::trace::{timed_us, walk_refresh_round, Walk};

const ACCOUNTS: i64 = 256;
/// Transfers already on the books when the run starts (negative `seq`,
/// so they never look like a writer's). A set-up of a few tens of
/// milliseconds does not repeat (`setup_s` 62 ms against 79 ms between two
/// sets of runs with 10 000), and the window adds only 5 000 rows to this
/// many, so `xfer_stats`'s refresh costs nearly the same at both ends.
const HISTORY: i64 = 40_000;
const SEED_BALANCE: i64 = 1_000;
const WRITERS: u32 = 2;
const MAX_ATTEMPTS: usize = 64;
const DRIVER_FLOOR: Duration = Duration::from_millis(60);

const LEDGER_SQL: &str = "SELECT n, total FROM ledger";
const STATS_SQL: &str = "SELECT src, max_seq FROM xfer_stats";

const DTS: [DtDef; 2] = [
    DtDef {
        name: "ledger",
        kind: DtKind::Aggregate,
        lag: "'1 minute'",
        sql: "SELECT count(*) n, sum(balance) total FROM accounts",
    },
    DtDef {
        name: "xfer_stats",
        kind: DtKind::Aggregate,
        lag: "'1 minute'",
        sql: "SELECT src, count(*) n, sum(amount) total, max(seq) max_seq FROM transfers \
              GROUP BY src",
    },
];

struct World {
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
        .join(format!("wal-txn_contention-{}", std::process::id()));
    let engine = new_engine(Some(&dir));
    let s = engine.session();
    s.execute("CREATE TABLE accounts (id INT, balance INT)")
        .expect("create accounts");
    s.execute("CREATE TABLE transfers (seq INT, src INT, dst INT, amount INT)")
        .expect("create transfers");
    load_table(&s, "accounts", ACCOUNTS, |id| {
        format!("{id}, {SEED_BALANCE}")
    });
    // History is records only: the balances above are where the books
    // stand after it.
    let mut rng = Prng::new(ctx.seed, 1);
    load_table(&s, "transfers", HISTORY, |i| {
        let src = rng.below(ACCOUNTS as u64);
        format!("{}, {src}, {}, 1", i - HISTORY, (src + 1) % ACCOUNTS)
    });
    create_dts(&s, &DTS);
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind the server");
    World {
        server,
        engine,
        dir,
    }
}

/// Writer `w`'s `i`-th transfer: its three statements and its sequence
/// number. A writer's source accounts share its parity, so `xfer_stats`
/// (grouped by source) carries one `max(seq)` per writer.
fn transfer_sql(seed: u64, w: u32, i: u64) -> ([String; 3], i64) {
    let mut rng = Prng::new(seed, (u64::from(w) + 1) * 1_000_000 + i);
    let writers = i64::from(WRITERS);
    let src = rng.below((ACCOUNTS / writers) as u64) * writers + i64::from(w);
    let dst = (src + 1 + rng.below((ACCOUNTS - 1) as u64)) % ACCOUNTS;
    let amount = 1 + rng.below(10);
    let seq = i as i64 * writers + i64::from(w);
    (
        [
            format!("UPDATE accounts SET balance = balance - {amount} WHERE id = {src}"),
            format!("UPDATE accounts SET balance = balance + {amount} WHERE id = {dst}"),
            format!("INSERT INTO transfers VALUES ({seq}, {src}, {dst}, {amount})"),
        ],
        seq,
    )
}

fn writer(ctx: &Ctx, tl: &Timeline, addr: std::net::SocketAddr, w: u32) -> Vec<WriteSample> {
    let mut client = Client::connect(addr).expect("writer connects");
    let mut samples = Vec::new();
    let mut i = 0u64;
    while tl.now() < tl.w1 {
        let (statements, marker) = transfer_sql(ctx.seed, w, i);
        i += 1;
        let mut attempts = 0u32;
        let sent = tl.now();
        let outcome = client.run_txn(MAX_ATTEMPTS, |c| {
            attempts += 1;
            for sql in &statements {
                c.execute(sql)?;
            }
            Ok(())
        });
        let acked = tl.now();
        samples.push(WriteSample {
            due: sent,
            sent,
            acked,
            born: acked,
            stream: w,
            marker,
            retries: attempts.saturating_sub(1),
            user_bytes: int_bytes(2 + 4),
            ok: outcome.is_ok(),
        });
    }
    let _ = client.close();
    samples
}

/// After every round: read the ledger (must be conserved) and each
/// writer's visible `max(seq)`.
struct Auditor<'a> {
    session: &'a Session,
    visible: &'a [AtomicI64],
    queries: Vec<QuerySample>,
    seen: Vec<Observation>,
    ledger_conserved: bool,
}

impl RoundHooks for Auditor<'_> {
    fn after(&mut self, tl: &Timeline) {
        let sent = tl.now();
        let ledger = self.session.query(LEDGER_SQL);
        let recv = tl.now();
        let conserved = matches!(&ledger, Ok(r) if r.len() == 1
            && int(&r.rows()[0], 0) == ACCOUNTS
            && int(&r.rows()[0], 1) == ACCOUNTS * SEED_BALANCE);
        self.ledger_conserved &= conserved;
        self.queries.push(QuerySample {
            sent,
            recv,
            class: 0,
            ok: conserved,
        });

        let sent = tl.now();
        let stats = self.session.query(STATS_SQL);
        let recv = tl.now();
        self.queries.push(QuerySample {
            sent,
            recv,
            class: 1,
            ok: stats.is_ok(),
        });
        if let Ok(rows) = stats {
            for w in 0..WRITERS {
                let marker = rows
                    .rows()
                    .iter()
                    .filter(|r| int(r, 0) % i64::from(WRITERS) == i64::from(w))
                    .map(|r| int(r, 1))
                    .max()
                    .unwrap_or(-1);
                self.visible[w as usize].store(marker, Ordering::SeqCst);
                self.seen.push(Observation {
                    at: recv,
                    stream: w,
                    marker,
                });
            }
        }
    }
}

/// Balance conserved, one transfer row per committed transaction, and
/// every DT equal to its query.
fn check_state(session: &Session, m: &mut Measured, phase: &str) {
    m.check(
        format!("{phase}: total balance is conserved"),
        scalar(session, "SELECT sum(balance) FROM accounts") == ACCOUNTS * SEED_BALANCE,
    );
    let committed = m.writes.iter().filter(|w| w.ok).count() as i64;
    let unknown = m.writes.len() as i64 - committed;
    let rows = scalar(session, "SELECT count(*) FROM transfers WHERE seq >= 0");
    m.check(
        format!("{phase}: transfers has one row per committed transaction ({rows} vs {committed})"),
        (committed..=committed + unknown).contains(&rows),
    );
    check_dvs(session, &DTS, m, phase);
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> (Measured, Timeline) {
    let (world, setup_s, setups) = repeated_setup(|| setup(ctx), World::discard);
    let mut m = Measured {
        setup_s,
        setups,
        query_classes: vec!["ledger", "xfer_stats"],
        dts: resolve_dts(&world.engine, &DTS),
        ..Measured::default()
    };
    let tl = Timeline::start(ctx);
    let stop = AtomicBool::new(false);
    let visible: Vec<AtomicI64> = (0..WRITERS).map(|_| AtomicI64::new(-1)).collect();
    let addr = world.server.local_addr();
    let session = world.engine.session();
    let mut ledger_conserved = true;

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let tl = &tl;
                s.spawn(move || writer(ctx, tl, addr, w))
            })
            .collect();
        let driver = s.spawn(|| {
            let mut auditor = Auditor {
                session: &session,
                visible: &visible,
                queries: Vec::new(),
                seen: Vec::new(),
                ledger_conserved: true,
            };
            let rounds = drive_refreshes(&world.engine, &tl, DRIVER_FLOOR, &stop, &mut auditor);
            (rounds, auditor)
        });
        m.counters = counters_over_window(&tl, || server_counters(&world.engine, &world.server));
        for handle in writers {
            m.writes.extend(handle.join().expect("writer thread"));
        }
        // Keep refreshing until each writer's last commit is visible.
        let deadline = Instant::now() + Duration::from_secs(10);
        let last = |w: u32| {
            m.writes
                .iter()
                .filter(|s| s.ok && s.stream == w)
                .map(|s| s.marker)
                .max()
                .unwrap_or(-1)
        };
        while (0..WRITERS).any(|w| visible[w as usize].load(Ordering::SeqCst) < last(w))
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        let (rounds, auditor) = driver.join().expect("driver thread");
        m.rounds = rounds;
        m.queries = auditor.queries;
        m.observations = auditor.seen;
        ledger_conserved = auditor.ledger_conserved;
    });

    m.check(
        "every ledger version read during the run conserved the total",
        ledger_conserved,
    );
    quiesce(&world.engine, &tl, &mut m);
    check_state(&session, &mut m, "live");
    drop(session);
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

/// Step writer 0's first transfers through the layers by hand, without
/// a second writer: five request/response hops (BEGIN, three statements,
/// COMMIT) around `begin → execute ×3 → prepare_commit → commit` (and a
/// twin of each through a real server and client, the quiet pass), a
/// ledger read after each, and a by-hand refresh round every fifth.
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
        let (statements, _) = transfer_sql(ctx.seed, 0, i);
        let (twin, _) = transfer_sql(ctx.seed, 0, WALK_OPS as u64 + i);
        walk.quiet_client_us.push(timed_us(|| {
            client
                .run_txn(1, |c| {
                    for sql in &twin {
                        c.execute(sql)?;
                    }
                    Ok(())
                })
                .expect("quiet-pass transfer");
        }));
        walk.op("tcp_write", |o| {
            o.request_hop(&Request::Begin);
            let mut txn = o.step("core.txn.execute_us", || session.begin());
            o.response_hop(&Response::Ok("transaction started".into()));
            for sql in &statements {
                o.request_hop(&Request::Query { sql: sql.clone() });
                o.aside("sql.parse_us", || dt_sql::parse(sql).expect("parses"));
                o.step("core.txn.execute_us", || {
                    txn.execute(sql).expect("walked statement runs")
                });
                o.response_hop(&Response::Count(1));
            }
            o.request_hop(&Request::Commit);
            let prepared = o.step("core.txn.prepare_commit_us", || {
                txn.prepare_commit().expect("walked transfer prepares")
            });
            o.step("core.txn.commit_us", || {
                prepared.commit().expect("walked transfer commits")
            });
            o.response_hop(&Response::Ok("transaction committed".into()));
        });
        walk.op("query", |o| {
            o.query(engine, LEDGER_SQL, false, "");
        });
        if i % 5 == 4 {
            walk_refresh_round(&mut walk, engine, &dts);
        }
    }
    let _ = client.close();
    server.shutdown();
    walk
}
