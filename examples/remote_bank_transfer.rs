//! The bank-transfer example, moved across the network: the engine runs
//! behind `dt-server` on an ephemeral TCP port, and every actor — the
//! schema setup, the transferring writers, the invariant-checking
//! readers — is a `dt-client` connection speaking the framed wire
//! protocol. Same guarantees as the in-process version:
//!
//! * each transfer is an explicit transaction (BEGIN → two UPDATEs →
//!   COMMIT), retried on optimistic conflicts via
//!   [`dt_client::Client::run_txn`];
//! * readers observe `checking + savings` in two separate statements
//!   inside a read transaction and must always see the total conserved,
//!   because both reads come from the transaction's pinned snapshot —
//!   even though every statement now crosses a socket.
//!
//! Finishes with a `SHOW STATS` round trip so the server's own counters
//! (connections, requests, commits, conflicts) tell the story too.
//!
//! Run with: `cargo run --example remote_bank_transfer`

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use dynamic_tables::client::Client;
use dynamic_tables::core::{DbConfig, Engine};
use dynamic_tables::server::{Server, ServerConfig};
use dt_common::Value;

const TOTAL: i64 = 1_000;
const WRITERS: usize = 2;
const TRANSFERS_EACH: usize = 50;

fn read_int(rows: &dynamic_tables::wire::RemoteRows) -> i64 {
    match &rows.rows()[0].values()[0] {
        Value::Int(v) => *v,
        other => panic!("expected Int, got {other:?}"),
    }
}

fn main() {
    // The "database side": an engine served over TCP.
    let engine = Engine::new(DbConfig::default());
    let server = Server::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    println!("serving on {addr}");

    // The "application side": everything below is remote clients.
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

    let stop = Arc::new(AtomicBool::new(false));
    let observations = Arc::new(AtomicUsize::new(0));

    // Readers: remote multi-statement read transactions; the pinned
    // snapshot makes the two SELECTs atomic despite the network hops.
    let mut readers = Vec::new();
    for _ in 0..2 {
        let stop = Arc::clone(&stop);
        let observations = Arc::clone(&observations);
        readers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            while !stop.load(Ordering::Relaxed) {
                client.begin().unwrap();
                let c = read_int(&client.query("SELECT sum(balance) FROM checking").unwrap());
                let s = read_int(&client.query("SELECT sum(balance) FROM savings").unwrap());
                client.commit().unwrap();
                assert_eq!(
                    c + s,
                    TOTAL,
                    "half-applied transfer observed over the wire: {c} + {s}"
                );
                observations.fetch_add(1, Ordering::Relaxed);
            }
            client.close().unwrap();
        }));
    }

    // Writers: remote transfers racing on the same rows; conflicts come
    // back as typed errors and run_txn retries the whole transaction.
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..TRANSFERS_EACH {
                    client
                        .run_txn(64, |c| {
                            c.execute(
                                "UPDATE checking SET balance = balance - 5 WHERE owner = 1",
                            )?;
                            c.execute(
                                "UPDATE savings SET balance = balance + 5 WHERE owner = 1",
                            )?;
                            Ok(())
                        })
                        .unwrap();
                }
                client.close().unwrap();
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    let final_checking = read_int(&setup.query("SELECT balance FROM checking").unwrap());
    let final_savings = read_int(&setup.query("SELECT balance FROM savings").unwrap());
    let transfers = (WRITERS * TRANSFERS_EACH) as i64;
    println!(
        "{transfers} remote transfers committed; final balances: \
         checking = {final_checking}, savings = {final_savings}"
    );
    println!(
        "total conserved in {} remote snapshot observations",
        observations.load(Ordering::Relaxed)
    );
    assert_eq!(final_checking + final_savings, TOTAL);
    assert_eq!(final_savings, transfers * 5);

    // The server's own view of what just happened.
    let stats = setup.stats().unwrap();
    let get = |name| stats.get(name).expect("the server lists every counter");
    println!(
        "server stats: {} connections served, {} requests, {} commits, {} conflicts",
        get("total_connections"),
        get("requests_served"),
        get("commits"),
        get("conflicts")
    );
    assert!(get("commits") >= transfers as u64);

    setup.close().unwrap();
    server.shutdown();
    println!("server drained and shut down cleanly");
}
