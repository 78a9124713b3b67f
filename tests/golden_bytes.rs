//! Golden bytes: one WAL record and one wire frame, captured as hex from
//! an earlier engine, must still decode — and the same inputs must still
//! encode to exactly those bytes. Both formats are written with
//! `dt_common::codec`; this is the tripwire for a layout change that the
//! round-trip tests (which encode and decode with the same code) cannot
//! see.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dt_common::{row, Value};
use dt_core::Engine;
use dt_wal::{Wal, WalStats};
use dt_wire::{read_frame, write_frame, Request, DEFAULT_MAX_FRAME_LEN};

/// The `DmlCommit` WAL record of `INSERT INTO t VALUES (1, 'a'), (2, NULL)`
/// as the second statement of a fresh durable engine (after
/// `CREATE TABLE t (k INT, s STRING)`): record tag, HLC commit timestamp,
/// transaction id, one `(entity, physical install)` pair.
const DML_COMMIT_RECORD: &str = "\
    0103000000000000000100000000000000010000000100000000000000010000000000000000000000\
    0200000002000000020100000000000000040100000061020000000202000000000000000001000000\
    0000000000000000010000000000000000000000000000000200000000000000";

/// `Request::ExecutePrepared { id: 7, params: [Int(-3), Str("héllo"),
/// Null, Float(1.5), Bool(true)] }` as one frame: `u32` length, then the
/// payload.
const EXECUTE_PREPARED_FRAME: &str = "\
    2d0000000307000000000000000500000002fdffffffffffffff040600000068c3a96c6c6f00030000\
    00000000f83f0101";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let path =
            std::env::temp_dir().join(format!("dt-golden-bytes-{}-{tag}", std::process::id()));
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

fn wal_records(dir: &Path) -> Vec<Vec<u8>> {
    let (_, recovered) = Wal::open(dir, Arc::new(WalStats::default())).unwrap();
    recovered.records
}

#[test]
fn wal_record_and_wire_frame_bytes_are_stable() {
    // Wire: decode the fixture, re-encode it byte-identically.
    let frame = unhex(EXECUTE_PREPARED_FRAME);
    let payload = read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    let request = Request::decode(&payload).unwrap();
    assert_eq!(
        request,
        Request::ExecutePrepared {
            id: 7,
            params: vec![
                Value::Int(-3),
                Value::Str("héllo".into()),
                Value::Null,
                Value::Float(1.5),
                Value::Bool(true),
            ],
        }
    );
    let mut reencoded = Vec::new();
    write_frame(&mut reencoded, &request.encode()).unwrap();
    assert_eq!(hex(&reencoded), EXECUTE_PREPARED_FRAME);

    // WAL, encode side: the same two statements on a fresh durable engine
    // log the same bytes (virtual clock and ids are deterministic).
    let written = TestDir::new("written");
    {
        let session = Engine::open(&written.0).unwrap().session();
        session.execute("CREATE TABLE t (k INT, s STRING)").unwrap();
        session
            .execute("INSERT INTO t VALUES (1, 'a'), (2, NULL)")
            .unwrap();
    }
    let records = wal_records(&written.0);
    assert_eq!(records.len(), 2, "one catalog record, one DML commit");
    assert_eq!(hex(&records[1]), DML_COMMIT_RECORD);

    // WAL, decode side: a log holding the fixture behind the table's
    // catalog record recovers to the inserted rows.
    let replayed = TestDir::new("replayed");
    {
        let (mut wal, _) = Wal::open(&replayed.0, Arc::new(WalStats::default())).unwrap();
        wal.append_batch(&[records[0].clone(), unhex(DML_COMMIT_RECORD)])
            .unwrap();
    }
    let session = Engine::open(&replayed.0).unwrap().session();
    assert_eq!(
        session.query_sorted("SELECT * FROM t").unwrap(),
        vec![row!(1i64, "a"), row![Value::Int(2), Value::Null]]
    );
}

/// Record count and `crc32` of the concatenated WAL records of the
/// scripted history in [`refresh_history_logs_the_same_records_in_the_same_order`].
const REFRESH_HISTORY_RECORDS: usize = 24;
const REFRESH_HISTORY_CRC32: u32 = 45_290_034;

/// Every kind of install the engine logs, in one single-threaded durable
/// history: DDL, the initial refreshes behind `CREATE DYNAMIC TABLE`, an
/// auto-commit and an explicit-transaction commit, an inline refresh
/// (`ALTER … REFRESH`), a round through the install queue (two levels,
/// two DTs in the first), and a refresh that fails with a user error
/// through both. Ids, the virtual clock and — with one refresh thread —
/// the order of installs are deterministic, so the log is too: the same
/// records, the same bytes, in the same order.
#[test]
fn refresh_history_logs_the_same_records_in_the_same_order() {
    let dir = TestDir::new("refresh-history");
    {
        let engine = Engine::open(&dir.0).unwrap();
        engine.set_refresh_threads(1);
        engine.create_warehouse("wh", 2).unwrap();
        let session = engine.session();
        for sql in [
            "CREATE TABLE t (k INT, v INT)",
            "INSERT INTO t VALUES (1, 10), (2, 20)",
            "CREATE DYNAMIC TABLE d1 TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k, 100 / v q FROM t",
            "CREATE DYNAMIC TABLE d2 TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k, q + 1 r FROM d1",
            "CREATE DYNAMIC TABLE d3 TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT v, count(*) n FROM t GROUP BY v",
            "INSERT INTO t VALUES (3, 25)",
        ] {
            session.execute(sql).unwrap();
        }
        let mut txn = session.begin();
        txn.execute("UPDATE t SET v = 50 WHERE k = 1").unwrap();
        txn.execute("INSERT INTO t VALUES (4, 20)").unwrap();
        txn.commit().unwrap();
        session.execute("ALTER DYNAMIC TABLE d2 REFRESH").unwrap();

        session.execute("DELETE FROM t WHERE k = 2").unwrap();
        let round = engine.refresh_all_parallel().unwrap();
        assert_eq!((round.levels, round.refreshed, round.failed), (2, 3, 0));

        // `100 / v` cannot evaluate the new row: d1 fails, inline and then
        // in a round (where d2 is pruned and d3 still installs).
        session.execute("INSERT INTO t VALUES (5, 0)").unwrap();
        session.execute("ALTER DYNAMIC TABLE d1 REFRESH").unwrap();
        assert_eq!(engine.refresh_log().last().unwrap().action, "failed");
        let round = engine.refresh_all_parallel().unwrap();
        assert_eq!((round.refreshed, round.failed, round.pruned), (1, 1, 1));
    }
    let records = wal_records(&dir.0);
    assert_eq!(records.len(), REFRESH_HISTORY_RECORDS);
    assert_eq!(
        dt_wal::crc32::crc32(&records.concat()),
        REFRESH_HISTORY_CRC32,
        "record tags in order: {:?}",
        records.iter().map(|r| r[0]).collect::<Vec<_>>()
    );
}
