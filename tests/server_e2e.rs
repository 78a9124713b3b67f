//! End-to-end wire-protocol tests over real TCP sockets: the full
//! engine surface — DDL, DML, prepared statements with `?` parameters,
//! explicit transactions with conflict retry, time travel, telemetry —
//! exercised remotely, plus the service behaviors a network front end
//! must get right (admission control, disconnect rollback, graceful
//! shutdown).

use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use dynamic_tables::client::{Client, ClientError};
use dynamic_tables::core::{DbConfig, Engine};
use dynamic_tables::server::{Server, ServerConfig};
use dt_common::Value;

fn serve(config: ServerConfig) -> (Engine, Server) {
    let engine = Engine::new(DbConfig::default());
    let server = Server::bind(engine.clone(), "127.0.0.1:0", config).unwrap();
    (engine, server)
}

fn serve_default() -> (Engine, Server) {
    serve(ServerConfig::default())
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..5000 {
        if cond() {
            return;
        }
        thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

fn int(rows: &dynamic_tables::wire::RemoteRows, row: usize, col: usize) -> i64 {
    match &rows.rows()[row].values()[col] {
        Value::Int(v) => *v,
        other => panic!("expected Int, got {other:?}"),
    }
}

#[test]
fn remote_session_full_surface() {
    let (engine, server) = serve_default();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // DDL + DML + query.
    client.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    client.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    let rows = client.query("SELECT k, v FROM t ORDER BY k").unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.schema().columns().len(), 2);
    assert_eq!(int(&rows, 0, 1), 10);
    assert_eq!(int(&rows, 1, 1), 20);

    // Prepared statements with `?` parameters, reused with fresh binds.
    let ins = client.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
    assert_eq!(ins.param_count(), 2);
    client
        .execute_prepared(ins, &[Value::Int(3), Value::Int(30)])
        .unwrap();
    client
        .execute_prepared(ins, &[Value::Int(4), Value::Int(40)])
        .unwrap();
    let sel = client.prepare("SELECT v FROM t WHERE k = ?").unwrap();
    let rows = client.query_prepared(sel, &[Value::Int(4)]).unwrap();
    assert_eq!(int(&rows, 0, 0), 40);

    // Time travel: advance the simulated clock past the folded HLC
    // ticks of the commits so far, capture "now", commit more, and read
    // back the old state through the wire.
    engine.clock().advance(dt_common::Duration::from_secs(100));
    let before = engine.now();
    client.execute("INSERT INTO t VALUES (5, 50)").unwrap();
    let old = client.query_at("SELECT k FROM t", before).unwrap();
    assert_eq!(old.len(), 4);
    let new = client.query("SELECT k FROM t").unwrap();
    assert_eq!(new.len(), 5);

    // Explicit transaction: commit publishes, rollback discards.
    client.begin().unwrap();
    client.execute("INSERT INTO t VALUES (6, 60)").unwrap();
    client.commit().unwrap();
    client.begin().unwrap();
    client.execute("INSERT INTO t VALUES (7, 70)").unwrap();
    client.rollback().unwrap();
    let rows = client.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(int(&rows, 0, 0), 6);

    // Engine errors arrive typed and leave the connection usable.
    let err = client.query("SELECT nope FROM t").unwrap_err();
    assert!(matches!(err, ClientError::Engine(_)), "got {err:?}");
    assert_eq!(client.query("SELECT k FROM t").unwrap().len(), 6);

    client.close().unwrap();
    server.shutdown();
}

#[test]
fn remote_conflict_is_typed_and_retryable() {
    let (_engine, server) = serve_default();
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.execute("CREATE TABLE acct (id INT, bal INT)").unwrap();
    setup.execute("INSERT INTO acct VALUES (1, 100)").unwrap();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();

    // Classic first-committer-wins race: both transactions update the
    // same row; the second committer must get a typed Conflict.
    a.begin().unwrap();
    a.execute("UPDATE acct SET bal = bal - 10 WHERE id = 1").unwrap();
    b.begin().unwrap();
    b.execute("UPDATE acct SET bal = bal - 20 WHERE id = 1").unwrap();
    a.commit().unwrap();
    let err = b.commit().unwrap_err();
    assert!(err.is_conflict(), "expected conflict, got {err:?}");

    // The loser retries through the helper and lands its change.
    b.run_txn(8, |c| {
        c.execute("UPDATE acct SET bal = bal - 20 WHERE id = 1")?;
        Ok(())
    })
    .unwrap();
    let rows = setup.query("SELECT bal FROM acct WHERE id = 1").unwrap();
    assert_eq!(int(&rows, 0, 0), 70);
    server.shutdown();
}

#[test]
fn disconnect_mid_transaction_rolls_back_and_leaks_nothing() {
    let (engine, server) = serve_default();
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).unwrap();
    setup.execute("CREATE TABLE t (x INT)").unwrap();
    setup.execute("INSERT INTO t VALUES (1)").unwrap();

    // Open a transaction remotely, buffer a write, then vanish without
    // COMMIT, ROLLBACK, or even Close.
    {
        let mut doomed = Client::connect(addr).unwrap();
        doomed.begin().unwrap();
        doomed.execute("INSERT INTO t VALUES (999)").unwrap();
        assert_eq!(
            engine.inspect(|s| s.txn_manager().active_txns()),
            1,
            "remote txn should be live"
        );
        // Drop the Client: the socket closes, no farewell frames.
    }

    // The server notices the disconnect, drops the session, and the
    // session drop aborts the orphaned transaction.
    wait_until(
        || engine.inspect(|s| s.txn_manager().active_txns()) == 0,
        "orphaned transaction to roll back",
    );
    wait_until(|| server.active_connections() == 1, "connection to be reaped");

    // Nothing leaked: the buffered insert is gone and a subsequent
    // writer commits cleanly (no admission lock held by the ghost).
    let rows = setup.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(int(&rows, 0, 0), 1);
    setup.begin().unwrap();
    setup.execute("INSERT INTO t VALUES (2)").unwrap();
    setup.commit().unwrap();
    let rows = setup.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(int(&rows, 0, 0), 2);
    server.shutdown();
}

#[test]
fn connection_limit_rejects_with_server_busy() {
    let (_engine, server) = serve(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let _b = Client::connect(addr).unwrap();
    wait_until(|| server.active_connections() == 2, "both admissions");

    // The N+1th connection is answered, not hung.
    let err = Client::connect(addr).unwrap_err();
    match err {
        ClientError::Busy { active, limit } => {
            assert_eq!(limit, 2);
            assert!(active >= 2, "active = {active}");
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(err.is_busy());

    // Rejections are counted, and a freed slot re-admits.
    assert!(server.stats().rejected_connections >= 1);
    a.execute("CREATE TABLE t (x INT)").unwrap();
    a.close().unwrap();
    wait_until(|| server.active_connections() == 1, "slot to free");
    let mut c = Client::connect(addr).unwrap();
    c.execute("INSERT INTO t VALUES (1)").unwrap();
    server.shutdown();
}

/// What `clients` closed-loop connections saw, each moving 5 from
/// `checking` to `savings` `transfers_each` times through `run_txn(64)`.
struct Transfers {
    /// Transactions that committed; the rest lost a conflict 64 times.
    committed: usize,
    /// The most attempts any one transaction made.
    max_attempts: usize,
}

/// Runs the transfers and checks what must hold however the conflicts
/// fall: a transaction either commits or reports a typed conflict, and
/// the books balance over exactly the committed ones.
fn remote_transfers(clients: usize, transfers_each: usize, pessimistic: bool) -> Transfers {
    const TOTAL: i64 = 10_000;

    let (_engine, server) = serve_default();
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).unwrap();
    setup
        .execute("CREATE TABLE checking (owner INT, balance INT)")
        .unwrap();
    setup
        .execute("CREATE TABLE savings (owner INT, balance INT)")
        .unwrap();
    setup
        .execute(&format!("INSERT INTO checking VALUES (1, {TOTAL})"))
        .unwrap();
    setup.execute("INSERT INTO savings VALUES (1, 0)").unwrap();
    if pessimistic {
        setup
            .execute("ALTER TABLE checking SET LOCKING PESSIMISTIC")
            .unwrap();
    }

    let workers: Vec<_> = (0..clients)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut seen = Transfers { committed: 0, max_attempts: 0 };
                for _ in 0..transfers_each {
                    let mut attempts = 0;
                    let outcome = client.run_txn(64, |c| {
                        attempts += 1;
                        c.execute("UPDATE checking SET balance = balance - 5 WHERE owner = 1")?;
                        c.execute("UPDATE savings SET balance = balance + 5 WHERE owner = 1")?;
                        Ok(())
                    });
                    match outcome {
                        Ok(()) => seen.committed += 1,
                        Err(e) => assert!(e.is_conflict() && attempts == 64, "{attempts} attempts: {e:?}"),
                    }
                    seen.max_attempts = seen.max_attempts.max(attempts);
                }
                client.close().unwrap();
                seen
            })
        })
        .collect();
    let mut total = Transfers { committed: 0, max_attempts: 0 };
    for w in workers {
        let seen = w.join().unwrap();
        total.committed += seen.committed;
        total.max_attempts = total.max_attempts.max(seen.max_attempts);
    }

    let c = int(&setup.query("SELECT balance FROM checking").unwrap(), 0, 0);
    let s = int(&setup.query("SELECT balance FROM savings").unwrap(), 0, 0);
    assert_eq!(c + s, TOTAL, "balance not conserved: {c} + {s}");
    assert_eq!(s, total.committed as i64 * 5);

    // The commit pipeline was actually exercised remotely.
    let stats = setup.stats().unwrap();
    assert!(stats.get("commits").unwrap() >= total.committed as u64);
    server.shutdown();
    total
}

#[test]
fn concurrent_remote_transfers_conserve_balance() {
    assert_eq!(remote_transfers(4, 12, false).committed, 4 * 12);

    // Two closed-loop writers on one pessimistic hot row, where the loser
    // of a conflict ("table changed while this transaction waited for its
    // lock and the write set contains deletes") re-enters behind the
    // winner. `run_txn`'s back-off makes exhausting 64 attempts rarer, not
    // impossible (the winner never waits), so that count is printed, not
    // asserted; what a transaction that gives up leaves behind is.
    let hot = remote_transfers(2, 500, true);
    println!(
        "pessimistic hot row, 2 x 500 transfers: {} committed, {} exhausted 64 attempts, \
         max attempts per transaction = {}",
        hot.committed,
        2 * 500 - hot.committed,
        hot.max_attempts
    );
}

#[test]
fn show_stats_over_the_wire() {
    let (engine, server) = serve_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.execute("CREATE TABLE t (x INT)").unwrap();
    client.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    client.query("SELECT x FROM t WHERE x > 100").unwrap();
    // Refresh telemetry crosses the wire too: the DT's initialization is
    // one recorded refresh.
    engine.create_warehouse("wh", 1).unwrap();
    client
        .execute(
            "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT x FROM t",
        )
        .unwrap();

    // Typed surface.
    let stats = client.stats().unwrap();
    assert!(stats.get("active_connections").unwrap() >= 1);
    assert!(stats.get("total_connections").unwrap() >= 1);
    assert!(stats.get("requests_served").unwrap() >= 3);
    assert!(
        stats.get("commits").unwrap() >= 1,
        "expected commits, got {}",
        stats.get("commits").unwrap()
    );
    assert!(
        stats.get("refreshes").unwrap() >= 1,
        "expected refreshes, got {}",
        stats.get("refreshes").unwrap()
    );
    assert!(stats.get("refresh_workers").unwrap() >= 1);

    // SQL surface: `SHOW STATS` as (name, value) rows, same numbers.
    let rows = client.query("SHOW STATS").unwrap();
    let mut saw = std::collections::HashMap::new();
    for row in rows.rows() {
        let name = match &row.values()[0] {
            Value::Str(s) => s.clone(),
            other => panic!("expected Str, got {other:?}"),
        };
        let value = match &row.values()[1] {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        };
        saw.insert(name, value);
    }
    for field in [
        "active_connections",
        "total_connections",
        "requests_served",
        "active_txns",
        "commits",
        "conflicts",
        "zone_map_pruned",
        "refreshes",
        "refresh_batches",
        "refresh_workers",
        "wal_appends",
        "wal_batches",
        "wal_fsyncs",
        "wal_bytes",
        "checkpoints",
        "recovery_replayed",
    ] {
        assert!(saw.contains_key(field), "SHOW STATS missing {field}");
    }
    assert!(saw["commits"] >= 1);
    assert!(saw["active_connections"] >= 1);
    assert!(saw["refreshes"] >= 1);
    // An in-memory engine reports an all-zero WAL row set.
    assert_eq!(saw["wal_appends"], 0);
    assert_eq!(saw["wal_fsyncs"], 0);
    server.shutdown();
}

/// The names of a `SHOW STATS` result, in order, with their values.
fn stat_rows(rows: &[dt_common::Row]) -> Vec<(String, u64)> {
    rows.iter()
        .map(|row| match (&row.values()[0], &row.values()[1]) {
            (Value::Str(name), Value::Int(v)) => (name.clone(), *v as u64),
            other => panic!("expected (Str, Int), got {other:?}"),
        })
        .collect()
}

/// `SHOW STATS` has one answer: a session, a prepared statement, SQL
/// `BEGIN … COMMIT`, a `Transaction` handle, a wire `Query`, a wire
/// prepared statement and the typed `Client::stats` all list the same
/// names in the same order.
#[test]
fn show_stats_is_one_list_on_every_path() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 1).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT x FROM t")
        .unwrap();

    // In process, with no server serving the engine.
    let session = stat_rows(s.query("SHOW STATS").unwrap().rows());
    let prepared = s.prepare("SHOW STATS").unwrap().execute(&[]).unwrap();
    let prepared = stat_rows(&prepared.into_rows().unwrap());
    s.execute("BEGIN").unwrap();
    let in_sql_txn = stat_rows(s.query("SHOW STATS").unwrap().rows());
    s.execute("COMMIT").unwrap();
    let mut txn = s.begin();
    let in_handle = stat_rows(&txn.execute("SHOW STATS").unwrap().into_rows().unwrap());
    txn.rollback().unwrap();

    let value = |list: &[(String, u64)], name: &str| {
        list.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no {name}")).1
    };
    let connection_counters =
        ["active_connections", "total_connections", "rejected_connections", "requests_served"];
    for name in connection_counters {
        assert_eq!(value(&session, name), 0, "{name} with no server");
    }
    assert!(value(&session, "commits") >= 1);
    assert!(value(&session, "refreshes") >= 1);

    // Over the wire.
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let wire = stat_rows(client.query("SHOW STATS").unwrap().rows());
    let stmt = client.prepare("SHOW STATS").unwrap();
    let wire_prepared = stat_rows(client.query_prepared(stmt, &[]).unwrap().rows());
    let typed: Vec<(String, u64)> =
        client.stats().unwrap().iter().map(|(n, v)| (n.to_string(), v)).collect();
    assert!(value(&typed, "active_connections") >= 1);
    assert!(value(&typed, "requests_served") >= 3);

    let names = |list: &[(String, u64)]| list.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    let expected = names(&session);
    for (path, list) in [
        ("prepared statement", &prepared),
        ("SQL BEGIN … COMMIT", &in_sql_txn),
        ("Transaction handle", &in_handle),
        ("wire Query", &wire),
        ("wire Prepare / ExecutePrepared", &wire_prepared),
        ("Client::stats", &typed),
    ] {
        assert_eq!(names(list), expected, "{path} lists other names than Session::execute");
    }
    let unique: std::collections::HashSet<_> = expected.iter().collect();
    assert_eq!((expected.len(), unique.len()), (29, 29), "{expected:?}");
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn durable_server_reports_wal_stats_and_survives_restart() {
    let dir = std::env::temp_dir()
        .join(format!("dt-server-e2e-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Serve a durable engine; every remote commit is WAL-logged + fsynced.
    let engine = Engine::open(&dir).unwrap();
    let server = Server::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.execute("CREATE TABLE t (x INT)").unwrap();
    let before = client.stats().unwrap();
    client.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    client.execute("INSERT INTO t VALUES (3)").unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.get("wal_appends").unwrap() >= 3,
        "expected WAL appends, got {}",
        stats.get("wal_appends").unwrap()
    );
    assert!(stats.get("wal_batches").unwrap() >= 3);
    assert!(stats.get("wal_bytes").unwrap() > 0);
    // Steady state is one fsync per group-commit batch (segment creation
    // and directory syncs at open time are excluded by the delta).
    assert!(
        stats.get("wal_fsyncs").unwrap() - before.get("wal_fsyncs").unwrap()
            <= stats.get("wal_batches").unwrap() - before.get("wal_batches").unwrap(),
        "more than one fsync per batch: {} fsyncs for {} batches",
        stats.get("wal_fsyncs").unwrap() - before.get("wal_fsyncs").unwrap(),
        stats.get("wal_batches").unwrap() - before.get("wal_batches").unwrap()
    );
    drop(client);
    server.shutdown();

    // Restart the server over the same directory: the data is back and
    // the recovery counter crosses the wire.
    let engine = Engine::open(&dir).unwrap();
    let server = Server::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let rows = client.query("SELECT x FROM t ORDER BY x").unwrap();
    assert_eq!(
        (0..3).map(|i| int(&rows, i, 0)).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    let stats = client.stats().unwrap();
    assert!(stats.get("recovery_replayed").unwrap() > 0, "recovery_replayed not reported");
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_answers_then_drains() {
    let (_engine, server) = serve_default();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.execute("CREATE TABLE t (x INT)").unwrap();

    // Shutdown on another thread: it blocks until connections drain.
    let handle = thread::spawn(move || server.shutdown());

    // In-flight requests may still be answered (that's the drain
    // guarantee), but the connection must observe shutdown promptly once
    // the stream of requests has any gap at all.
    let mut evicted = false;
    for _ in 0..200 {
        match client.execute("INSERT INTO t VALUES (1)") {
            Err(ClientError::ShuttingDown) | Err(ClientError::Io(_)) | Err(ClientError::Closed) => {
                evicted = true;
                break;
            }
            Ok(_) => thread::sleep(Duration::from_millis(5)),
            Err(other) => panic!("unexpected error during shutdown: {other:?}"),
        }
    }
    assert!(evicted, "connection never observed shutdown");
    handle.join().unwrap();

    // And brand-new connections are refused outright.
    assert!(TcpStream::connect(addr).is_err() || Client::connect(addr).is_err());
}
