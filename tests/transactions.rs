//! First-class transaction lifecycle: snapshot-pinned repeatable reads,
//! buffered DML with atomic first-committer-wins commit, SQL
//! `BEGIN`/`COMMIT`/`ROLLBACK` through the session, and DSG certification
//! that the histories the engine produces are free of the G0/G1
//! phenomena.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use dynamic_tables::core::{is_serialization_conflict, DbConfig, Engine};
use dynamic_tables::isolation::{analyze, History};
use dt_common::{row, DtError, EntityId, TxnId, Value};
use dt_storage::TableStore;

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..5000 {
        if cond() {
            return;
        }
        thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

fn store_of(engine: &Engine, table: &str) -> (EntityId, Arc<TableStore>) {
    engine.inspect(|st| {
        let id = st.catalog().resolve(table).unwrap().id;
        (id, Arc::clone(st.table_store(id).unwrap()))
    })
}

fn engine_with_accounts() -> Engine {
    let engine = Engine::new(DbConfig::default());
    let s = engine.session();
    s.execute("CREATE TABLE checking (owner INT, balance INT)").unwrap();
    s.execute("CREATE TABLE savings (owner INT, balance INT)").unwrap();
    s.execute("INSERT INTO checking VALUES (1, 100), (2, 100)").unwrap();
    s.execute("INSERT INTO savings VALUES (1, 50), (2, 50)").unwrap();
    engine
}

#[test]
fn reads_are_repeatable_while_writers_commit() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let txn = s.begin();
    let before = txn.query_sorted("SELECT * FROM checking").unwrap();
    // Another session commits DML mid-transaction.
    let other = engine.session();
    other.execute("INSERT INTO checking VALUES (3, 900)").unwrap();
    other.execute("UPDATE checking SET balance = 0 WHERE owner = 1").unwrap();
    // Re-reads inside the transaction are byte-identical.
    assert_eq!(txn.query_sorted("SELECT * FROM checking").unwrap(), before);
    txn.commit().unwrap();
    // A fresh statement sees the other session's writes.
    assert_eq!(s.query("SELECT * FROM checking").unwrap().len(), 3);
}

#[test]
fn reads_are_repeatable_while_refreshes_land() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE src (k INT, v INT)").unwrap();
    s.execute("INSERT INTO src VALUES (1, 10), (2, 20)").unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, sum(v) total FROM src GROUP BY k",
    )
    .unwrap();

    let txn = s.begin();
    let pinned = txn.query_sorted("SELECT * FROM agg").unwrap();
    assert_eq!(pinned, vec![row!(1i64, 10i64), row!(2i64, 20i64)]);

    // A refresh lands while the transaction is open...
    let other = engine.session();
    other.execute("INSERT INTO src VALUES (1, 90)").unwrap();
    other.manual_refresh("agg").unwrap();
    assert_eq!(
        other.query_sorted("SELECT * FROM agg").unwrap(),
        vec![row!(1i64, 100i64), row!(2i64, 20i64)]
    );

    // ...and the transaction still sees its pinned frontier, repeatably.
    assert_eq!(txn.query_sorted("SELECT * FROM agg").unwrap(), pinned);
    assert_eq!(txn.query_sorted("SELECT * FROM agg").unwrap(), pinned);
    txn.commit().unwrap();
}

#[test]
fn buffered_dml_is_invisible_until_commit_then_atomic() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let observer = engine.session();

    let mut txn = s.begin();
    txn.execute("UPDATE checking SET balance = balance - 30 WHERE owner = 1").unwrap();
    txn.execute("UPDATE savings SET balance = balance + 30 WHERE owner = 1").unwrap();

    // Read-your-own-writes inside the transaction...
    assert_eq!(
        txn.query_sorted("SELECT balance FROM checking WHERE owner = 1").unwrap(),
        vec![row!(70i64)]
    );
    // ...but nothing published: an outside observer still sees the old state.
    assert_eq!(
        observer.query_sorted("SELECT balance FROM checking WHERE owner = 1").unwrap(),
        vec![row!(100i64)]
    );

    let commit_ts = txn.commit().unwrap();
    // Both tables flipped atomically at one commit timestamp.
    assert_eq!(
        observer.query_sorted("SELECT balance FROM checking WHERE owner = 1").unwrap(),
        vec![row!(70i64)]
    );
    assert_eq!(
        observer.query_sorted("SELECT balance FROM savings WHERE owner = 1").unwrap(),
        vec![row!(80i64)]
    );
    // Time travel to just before the commit sees the untouched state of
    // *both* tables — there is no instant where only one was applied.
    let just_before = dt_common::Timestamp::from_micros(commit_ts.as_micros() - 1);
    let before = observer
        .query_at("SELECT balance FROM checking WHERE owner = 1", just_before)
        .unwrap();
    assert_eq!(before.rows(), &[row!(100i64)]);
}

#[test]
fn write_write_conflict_first_committer_wins() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let mut t1 = s.begin();
    let mut t2 = s.begin();
    t1.execute("UPDATE checking SET balance = 1 WHERE owner = 1").unwrap();
    t2.execute("UPDATE checking SET balance = 2 WHERE owner = 1").unwrap();
    t1.commit().unwrap();
    let err = t2.commit().unwrap_err();
    assert!(is_serialization_conflict(&err), "got {err:?}");
    // The winner's write survives; the loser's is discarded entirely.
    assert_eq!(
        s.query_sorted("SELECT balance FROM checking WHERE owner = 1").unwrap(),
        vec![row!(1i64)]
    );
}

#[test]
fn disjoint_tables_commit_concurrently_without_conflict() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let mut t1 = s.begin();
    let mut t2 = s.begin();
    t1.execute("INSERT INTO checking VALUES (7, 1)").unwrap();
    t2.execute("INSERT INTO savings VALUES (7, 1)").unwrap();
    // Both commit: their lock sets are disjoint, so neither is the other's
    // first committer.
    t1.commit().unwrap();
    t2.commit().unwrap();
    assert_eq!(s.query("SELECT * FROM checking").unwrap().len(), 3);
    assert_eq!(s.query("SELECT * FROM savings").unwrap().len(), 3);
}

#[test]
fn commit_is_per_table_not_engine_wide() {
    // A transaction on table A is mid-commit (holds A's TxnManager lock).
    // A transaction on table B commits anyway — the write path locks per
    // table, not one engine-wide lock; and a third transaction on A
    // conflicts immediately.
    let engine = engine_with_accounts();
    let s = engine.session();

    // Hold checking's per-table lock the way an in-flight committer does.
    let (holder, checking_id) = engine.inspect(|st| {
        let id = st.catalog().resolve("checking").unwrap().id;
        let t = st.txn_manager().begin();
        st.txn_manager().try_lock(&t, id).unwrap();
        (t, id)
    });

    // Disjoint table: commits while checking is locked.
    let mut on_savings = s.begin();
    on_savings.execute("INSERT INTO savings VALUES (9, 9)").unwrap();
    on_savings.commit().unwrap();

    // Same table: conflicts fast instead of waiting.
    let mut on_checking = s.begin();
    on_checking.execute("INSERT INTO checking VALUES (9, 9)").unwrap();
    let err = on_checking.commit().unwrap_err();
    assert!(is_serialization_conflict(&err), "got {err:?}");

    engine.inspect(|st| {
        st.txn_manager().abort(&holder).unwrap();
        assert!(!st.txn_manager().is_locked(checking_id));
    });
}

#[test]
fn overlapping_writers_one_commit_one_abort() {
    // The acceptance scenario, with real threads: two transactions racing
    // on the same table produce exactly one commit and one conflict abort.
    let engine = engine_with_accounts();
    let commits = Arc::new(AtomicUsize::new(0));
    let aborts = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    for i in 0..2 {
        let engine = engine.clone();
        let commits = Arc::clone(&commits);
        let aborts = Arc::clone(&aborts);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let s = engine.session();
            let mut txn = s.begin();
            txn.execute(&format!(
                "UPDATE checking SET balance = {i} WHERE owner = 2"
            ))
            .unwrap();
            barrier.wait();
            match txn.commit() {
                Ok(_) => commits.fetch_add(1, Ordering::SeqCst),
                Err(e) => {
                    assert!(is_serialization_conflict(&e), "got {e:?}");
                    aborts.fetch_add(1, Ordering::SeqCst)
                }
            };
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(commits.load(Ordering::SeqCst), 1, "exactly one winner");
    assert_eq!(aborts.load(Ordering::SeqCst), 1, "exactly one conflict abort");
    // The surviving balance belongs to one of the two writers.
    let s = engine.session();
    let rows = s.query_sorted("SELECT balance FROM checking WHERE owner = 2").unwrap();
    assert!(rows == vec![row!(0i64)] || rows == vec![row!(1i64)]);
}

#[test]
fn rollback_discards_buffered_dml() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let mut txn = s.begin();
    txn.execute("DELETE FROM checking").unwrap();
    txn.execute("INSERT INTO checking VALUES (42, 42)").unwrap();
    assert_eq!(txn.query("SELECT * FROM checking").unwrap().len(), 1);
    txn.rollback().unwrap();
    // Nothing happened.
    assert_eq!(
        s.query_sorted("SELECT * FROM checking").unwrap(),
        vec![row!(1i64, 100i64), row!(2i64, 100i64)]
    );
}

#[test]
fn dropped_transaction_rolls_back_and_leaks_no_locks() {
    let engine = engine_with_accounts();
    let s = engine.session();
    {
        let mut txn = s.begin();
        txn.execute("INSERT INTO checking VALUES (8, 8)").unwrap();
        // Dropped without commit or rollback.
    }
    assert_eq!(s.query("SELECT * FROM checking").unwrap().len(), 2);
    // No lock leaked: a follow-up transaction on the same table commits.
    let mut txn = s.begin();
    txn.execute("INSERT INTO checking VALUES (8, 8)").unwrap();
    txn.commit().unwrap();
    assert_eq!(s.query("SELECT * FROM checking").unwrap().len(), 3);
    let checking = engine.inspect(|st| st.catalog().resolve("checking").unwrap().id);
    engine.inspect(|st| assert!(!st.txn_manager().is_locked(checking)));
}

#[test]
fn sql_begin_commit_rollback_lifecycle() {
    let engine = engine_with_accounts();
    let s = engine.session();
    assert!(!s.in_transaction());

    s.execute("BEGIN").unwrap();
    assert!(s.in_transaction());
    s.execute("UPDATE savings SET balance = 0 WHERE owner = 1").unwrap();
    // Reads inside the SQL transaction see the buffered write...
    assert_eq!(
        s.query_sorted("SELECT balance FROM savings WHERE owner = 1").unwrap(),
        vec![row!(0i64)]
    );
    // ...while another session does not.
    let other = engine.session();
    assert_eq!(
        other.query_sorted("SELECT balance FROM savings WHERE owner = 1").unwrap(),
        vec![row!(50i64)]
    );
    s.execute("COMMIT").unwrap();
    assert!(!s.in_transaction());
    assert_eq!(
        other.query_sorted("SELECT balance FROM savings WHERE owner = 1").unwrap(),
        vec![row!(0i64)]
    );

    // ROLLBACK path.
    s.execute("START TRANSACTION").unwrap();
    s.execute("DELETE FROM savings").unwrap();
    s.execute("ROLLBACK").unwrap();
    assert!(!s.in_transaction());
    assert_eq!(other.query("SELECT * FROM savings").unwrap().len(), 2);
}

#[test]
fn nested_begin_and_stray_commit_rollback_error() {
    let engine = engine_with_accounts();
    let s = engine.session();

    // Stray COMMIT / ROLLBACK: no transaction in progress.
    let err = s.execute("COMMIT").unwrap_err();
    assert!(matches!(err, DtError::Txn(_)), "got {err:?}");
    let err = s.execute("ROLLBACK").unwrap_err();
    assert!(matches!(err, DtError::Txn(_)), "got {err:?}");

    // Nested BEGIN rejected; the outer transaction survives.
    s.execute("BEGIN").unwrap();
    let err = s.execute("BEGIN TRANSACTION").unwrap_err();
    assert!(matches!(err, DtError::Txn(_)), "got {err:?}");
    assert!(s.in_transaction());
    s.execute("ROLLBACK").unwrap();
    assert!(!s.in_transaction());
}

#[test]
fn ddl_and_refresh_rejected_inside_transactions() {
    let engine = engine_with_accounts();
    let s = engine.session();
    s.execute("BEGIN").unwrap();
    for sql in [
        "CREATE TABLE nope (x INT)",
        "DROP TABLE checking",
        "ALTER DYNAMIC TABLE whatever REFRESH",
    ] {
        let err = s.execute(sql).unwrap_err();
        assert!(matches!(err, DtError::Unsupported(_)), "{sql}: got {err:?}");
    }
    s.execute("ROLLBACK").unwrap();
    // Outside a transaction DDL works again.
    s.execute("CREATE TABLE yep (x INT)").unwrap();
}

#[test]
fn prepared_statements_join_the_open_sql_transaction() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let read = s.prepare("SELECT balance FROM checking WHERE owner = ?").unwrap();
    let write = s.prepare("UPDATE checking SET balance = ? WHERE owner = ?").unwrap();

    s.execute("BEGIN").unwrap();
    write.execute(&[Value::Int(7), Value::Int(1)]).unwrap();
    // The prepared read sees the buffered write (read-your-own-writes)...
    assert_eq!(
        read.query(&[Value::Int(1)]).unwrap().rows(),
        &[row!(7i64)]
    );
    // ...and other sessions see nothing until COMMIT.
    let other = engine.session();
    assert_eq!(
        other.query_sorted("SELECT balance FROM checking WHERE owner = 1").unwrap(),
        vec![row!(100i64)]
    );
    s.execute("COMMIT").unwrap();
    assert_eq!(
        other.query_sorted("SELECT balance FROM checking WHERE owner = 1").unwrap(),
        vec![row!(7i64)]
    );
    // After the transaction, the prepared statement runs auto-commit again.
    assert_eq!(read.query(&[Value::Int(1)]).unwrap().rows(), &[row!(7i64)]);
}

#[test]
fn time_travel_transaction_pins_an_old_frontier() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let before = engine.inspect(|st| st.txn_manager().hlc().tick());
    s.execute("UPDATE checking SET balance = 0 WHERE owner = 1").unwrap();

    let txn = s.begin_at(before);
    assert_eq!(
        txn.query_sorted("SELECT balance FROM checking WHERE owner = 1").unwrap(),
        vec![row!(100i64)]
    );
    txn.commit().unwrap();

    // A *writing* time-travel transaction conflicts if the table moved
    // after its pinned instant — the begin frontier is stale by
    // construction.
    let mut stale = s.begin_at(before);
    stale.execute("INSERT INTO checking VALUES (5, 5)").unwrap();
    let err = stale.commit().unwrap_err();
    assert!(is_serialization_conflict(&err), "got {err:?}");
}

#[test]
fn autocommit_dml_retries_past_conflicts() {
    // Hammer one table from several threads with single-statement DML:
    // the auto-commit path must absorb write-write conflicts internally
    // (retry) so every statement succeeds, exactly like the pre-MVCC
    // serialized write path did.
    let engine = engine_with_accounts();
    let threads = 4;
    let per_thread = 25;
    let mut handles = Vec::new();
    for t in 0..threads {
        let engine = engine.clone();
        handles.push(thread::spawn(move || {
            let s = engine.session();
            for i in 0..per_thread {
                s.execute(&format!(
                    "INSERT INTO checking VALUES ({}, {i})",
                    100 + t
                ))
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = engine.session();
    assert_eq!(
        s.query("SELECT * FROM checking").unwrap().len(),
        2 + threads * per_thread
    );
}

#[test]
fn concurrent_drop_of_touched_table_conflicts_instead_of_losing_writes() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let mut txn = s.begin();
    txn.execute("INSERT INTO checking VALUES (5, 5)").unwrap();
    // Another session drops the table mid-transaction. The store survives
    // for UNDROP, so version validation alone would pass — the commit
    // must still refuse rather than write into the orphaned store.
    let other = engine.session();
    other.execute("DROP TABLE checking").unwrap();
    let err = txn.commit().unwrap_err();
    assert!(is_serialization_conflict(&err), "got {err:?}");
    // After UNDROP the old contents are back, without the lost write.
    other.execute("UNDROP TABLE checking").unwrap();
    assert_eq!(other.query("SELECT * FROM checking").unwrap().len(), 2);
}

#[test]
fn prepared_dml_retries_past_conflicts_like_plain_execute() {
    // Prepared DML outside a transaction must take the same optimistic
    // auto-commit path as Session::execute — concurrent same-table writes
    // are absorbed by retry, never surfaced as spurious lock errors.
    let engine = engine_with_accounts();
    let threads = 4;
    let per_thread = 25;
    let mut handles = Vec::new();
    for t in 0..threads {
        let engine = engine.clone();
        handles.push(thread::spawn(move || {
            let s = engine.session();
            let stmt = s.prepare("INSERT INTO savings VALUES (?, ?)").unwrap();
            for i in 0..per_thread {
                stmt.execute(&[Value::Int(200 + t), Value::Int(i)]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = engine.session();
    assert_eq!(
        s.query("SELECT * FROM savings").unwrap().len(),
        2 + (threads * per_thread) as usize
    );
}

/// Build an isolation [`History`] from a concrete engine run and certify
/// the produced histories free of the G0/G1 phenomena — the
/// snapshot-isolation shape the paper's consistency model assumes.
#[test]
fn dsg_checker_certifies_histories_free_of_g0_g1() {
    let engine = engine_with_accounts();
    let s = engine.session();
    let checking = engine.inspect(|st| st.catalog().resolve("checking").unwrap().id);
    let savings = engine.inspect(|st| st.catalog().resolve("savings").unwrap().id);

    let mut h = History::new();

    // T1: transfer between the two tables. Record what it actually read
    // (the pinned versions) and what it installed.
    let mut t1 = s.begin();
    let r1c = t1.snapshot().version_of(checking).unwrap().raw() as u32;
    let r1s = t1.snapshot().version_of(savings).unwrap().raw() as u32;
    t1.query("SELECT * FROM checking").unwrap();
    t1.query("SELECT * FROM savings").unwrap();
    h.read(1, "checking", r1c).read(1, "savings", r1s);
    t1.execute("UPDATE checking SET balance = balance - 10 WHERE owner = 1").unwrap();
    t1.execute("UPDATE savings SET balance = balance + 10 WHERE owner = 1").unwrap();

    // T2: a concurrent writer on the same table set, beginning at the same
    // frontier. First committer (T1) wins; T2 aborts without installing.
    let mut t2 = s.begin();
    let r2c = t2.snapshot().version_of(checking).unwrap().raw() as u32;
    t2.query("SELECT * FROM checking").unwrap();
    h.read(2, "checking", r2c);
    t2.execute("UPDATE checking SET balance = 0 WHERE owner = 2").unwrap();

    t1.commit().unwrap();
    let c_after = engine.inspect(|st| {
        st.table_store(checking).unwrap().latest_version().raw() as u32
    });
    let s_after = engine.inspect(|st| {
        st.table_store(savings).unwrap().latest_version().raw() as u32
    });
    h.write(1, "checking", c_after)
        .write(1, "savings", s_after)
        .commit(1);

    assert!(t2.commit().is_err(), "first committer wins");
    h.abort(2);

    // T3: a pure reader beginning after T1's commit reads T1's versions.
    let t3 = s.begin();
    let r3c = t3.snapshot().version_of(checking).unwrap().raw() as u32;
    assert_eq!(r3c, c_after, "reader sees the committed frontier");
    t3.query("SELECT * FROM checking").unwrap();
    h.read(3, "checking", r3c).commit(3);
    t3.commit().unwrap();

    let report = analyze(&h);
    assert!(report.free_of("G0"), "no write-cycle: {:?}", report.phenomena);
    assert!(report.free_of("G1a"), "no aborted reads: {:?}", report.phenomena);
    assert!(report.free_of("G1b"), "no intermediate reads: {:?}", report.phenomena);
    assert!(report.free_of("G1c"), "no dependency cycle: {:?}", report.phenomena);
}

#[test]
fn group_commit_installs_disjoint_committers_under_fewer_lock_acquisitions() {
    // The acceptance scenario for writer group-commit: N concurrent
    // committers on disjoint tables complete with FEWER engine-write-lock
    // acquisitions than commits. Deterministic staging: every committer
    // finishes admission + row work first; the first to enter the queue
    // becomes leader and stalls (we hold its table's storage commit
    // guard, which the install phase must acquire), so the rest pile up
    // behind it and land in one batched second round.
    const N: usize = 4;
    let engine = Engine::new(DbConfig::default());
    let s = engine.session();
    for i in 0..N {
        s.execute(&format!("CREATE TABLE g{i} (k INT)")).unwrap();
    }

    let mut staged = Vec::new();
    for i in 0..N {
        let mut txn = s.begin();
        txn.execute(&format!("INSERT INTO g{i} VALUES ({i})")).unwrap();
        staged.push(txn.prepare_commit().unwrap());
    }
    let before = engine.commit_stats();

    // Stall the leader inside its install: hold g0's storage commit
    // guard, which `validate_and_install` must acquire.
    let (_, g0_store) = store_of(&engine, "g0");
    let gate = g0_store.commit_guard();

    let mut staged = staged.into_iter();
    let leader = {
        let first = staged.next().unwrap();
        thread::spawn(move || first.commit().unwrap())
    };
    // The leader has drained its one-entry batch and taken the engine
    // write lock once it bumps the acquisition counter; every later
    // submit is now a follower.
    wait_until(
        || engine.commit_stats().install_lock_acquisitions == before.install_lock_acquisitions + 1,
        "the first committer to lead its batch",
    );

    let followers: Vec<_> = staged
        .map(|p| thread::spawn(move || p.commit().unwrap()))
        .collect();
    wait_until(
        || engine.pending_installs() == N - 1,
        "all remaining committers to enqueue",
    );
    drop(gate);

    leader.join().unwrap();
    for f in followers {
        f.join().unwrap();
    }

    let after = engine.commit_stats();
    let commits = after.commits - before.commits;
    let acquisitions = after.install_lock_acquisitions - before.install_lock_acquisitions;
    assert_eq!(commits, N as u64, "every committer committed");
    assert_eq!(
        acquisitions, 2,
        "one stalled leader round + one batch for the other {} committers",
        N - 1
    );
    assert!(acquisitions < commits, "group commit must batch");
    assert!(after.max_batch >= (N - 1) as u64, "stats: {after:?}");

    // And the data all landed.
    for i in 0..N {
        assert_eq!(
            s.query_sorted(&format!("SELECT * FROM g{i}")).unwrap(),
            vec![row!(i as i64)]
        );
    }
}

#[test]
fn forced_install_failure_cannot_leave_half_applied_state() {
    // Regression for the half-applied-commit bug: a multi-table commit
    // whose install fails on the SECOND table must not leave the first
    // table's new version published. We force the failure with a writer
    // that drives savings' store directly — bypassing the engine lock and
    // the TxnManager admission locks entirely — after the transaction has
    // prepared. The hardened pipeline validates every table under held
    // storage commit guards before installing anything, so the commit
    // aborts as a clean conflict with no version installed anywhere.
    let engine = engine_with_accounts();
    let s = engine.session();
    let (_, checking_store) = store_of(&engine, "checking");
    let (_, savings_store) = store_of(&engine, "savings");
    let checking_versions = checking_store.version_count();

    let mut txn = s.begin();
    txn.execute("INSERT INTO checking VALUES (77, 77)").unwrap();
    txn.execute("INSERT INTO savings VALUES (77, 77)").unwrap();

    // The direct-store racer lands a savings version the engine never saw.
    let ts = engine.inspect(|st| st.txn_manager().hlc().tick());
    savings_store
        .commit_change(vec![row!(999i64, 999i64)], vec![], ts, TxnId(999_999))
        .unwrap();

    let err = txn.commit().unwrap_err();
    assert!(is_serialization_conflict(&err), "got {err:?}");

    // Nothing half-applied: checking gained no version and neither table
    // shows the transaction's rows.
    assert_eq!(
        checking_store.version_count(),
        checking_versions,
        "no version may be installed on any table of an aborted commit"
    );
    assert!(s.query_sorted("SELECT * FROM checking WHERE owner = 77").unwrap().is_empty());
    assert!(s.query_sorted("SELECT * FROM savings WHERE owner = 77").unwrap().is_empty());

    // A retry against fresh state (which now includes the racer's row)
    // succeeds atomically.
    let mut retry = s.begin();
    retry.execute("INSERT INTO checking VALUES (77, 77)").unwrap();
    retry.execute("INSERT INTO savings VALUES (77, 77)").unwrap();
    retry.commit().unwrap();
    assert_eq!(s.query("SELECT * FROM checking WHERE owner = 77").unwrap().len(), 1);
    assert_eq!(s.query("SELECT * FROM savings WHERE owner = 77").unwrap().len(), 1);
}

#[test]
fn install_failures_under_racing_direct_writers_stay_atomic() {
    // Stress variant: a racer hammers savings' store directly while
    // transactions commit {checking, savings} pairs. Whatever interleaving
    // occurs, a transaction's marker rows appear in BOTH tables (commit
    // returned Ok) or NEITHER (conflict abort) — never in one.
    let engine = engine_with_accounts();
    let (_, savings_store) = store_of(&engine, "savings");
    let stop = Arc::new(AtomicUsize::new(0));
    let racer = {
        let engine = engine.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut i = 0i64;
            while stop.load(Ordering::SeqCst) == 0 {
                let ts = engine.inspect(|st| st.txn_manager().hlc().tick());
                match savings_store.commit_change(
                    vec![row!(500_000 + i, 0i64)],
                    vec![],
                    ts,
                    TxnId(900_000),
                ) {
                    Ok(_) => i += 1,
                    // An engine commit can land on savings between this
                    // racer's tick and its install, making `ts` regress
                    // behind the chain — the racer simply lost that race;
                    // re-tick and try again.
                    Err(DtError::Storage(_)) => {}
                    Err(e) => panic!("racer commit failed: {e}"),
                }
                thread::yield_now();
            }
        })
    };

    let s = engine.session();
    let mut committed = Vec::new();
    let mut aborted = Vec::new();
    for m in 0..30i64 {
        let mut txn = s.begin();
        txn.execute(&format!("INSERT INTO checking VALUES ({}, 1)", 1000 + m)).unwrap();
        txn.execute(&format!("INSERT INTO savings  VALUES ({}, 1)", 1000 + m)).unwrap();
        match txn.commit() {
            Ok(_) => committed.push(1000 + m),
            Err(e) => {
                assert!(is_serialization_conflict(&e), "got {e:?}");
                aborted.push(1000 + m);
            }
        }
    }
    stop.store(1, Ordering::SeqCst);
    racer.join().unwrap();

    for m in committed {
        assert_eq!(
            s.query(&format!("SELECT * FROM checking WHERE owner = {m}")).unwrap().len(),
            1,
            "committed marker {m} missing from checking"
        );
        assert_eq!(
            s.query(&format!("SELECT * FROM savings WHERE owner = {m}")).unwrap().len(),
            1,
            "committed marker {m} missing from savings"
        );
    }
    for m in aborted {
        assert!(
            s.query(&format!("SELECT * FROM checking WHERE owner = {m}")).unwrap().is_empty(),
            "aborted marker {m} leaked into checking"
        );
        assert!(
            s.query(&format!("SELECT * FROM savings WHERE owner = {m}")).unwrap().is_empty(),
            "aborted marker {m} leaked into savings"
        );
    }
}

#[test]
fn externally_aborted_transaction_cannot_install_at_commit() {
    // A transaction retired through the manager directly (bypassing the
    // handle) between prepare and install must fail validation BEFORE
    // publishing anything — never install its versions and then report a
    // lifecycle error.
    let engine = engine_with_accounts();
    let s = engine.session();
    let (_, checking_store) = store_of(&engine, "checking");
    let versions = checking_store.version_count();

    let mut txn = s.begin();
    txn.execute("INSERT INTO checking VALUES (55, 55)").unwrap();
    let pc = txn.prepare_commit().unwrap();
    let handle = dt_txn::Txn {
        id: pc.txn_id(),
        snapshot_ts: dt_common::Timestamp::EPOCH,
    };
    engine.inspect(|st| st.txn_manager().abort(&handle)).unwrap();

    let err = pc.commit().unwrap_err();
    assert!(matches!(err, DtError::Txn(_)), "got {err:?}");
    assert!(!is_serialization_conflict(&err), "not a retryable conflict");
    assert_eq!(
        checking_store.version_count(),
        versions,
        "an inactive transaction must not publish a version"
    );
    assert!(s.query("SELECT * FROM checking WHERE owner = 55").unwrap().is_empty());
}

#[test]
fn concurrent_drop_during_group_commit_conflicts_only_the_dropped_table() {
    // Two staged committers share one group-commit window; between
    // staging and install, one committer's table is DROPped. The batch
    // must commit the survivor and conflict-abort the victim — and the
    // victim's store must stay untouched for UNDROP.
    let engine = engine_with_accounts();
    let s = engine.session();

    let mut on_checking = s.begin();
    on_checking.execute("INSERT INTO checking VALUES (8, 8)").unwrap();
    let on_checking = on_checking.prepare_commit().unwrap();

    let mut on_savings = s.begin();
    on_savings.execute("INSERT INTO savings VALUES (8, 8)").unwrap();
    let on_savings = on_savings.prepare_commit().unwrap();

    // The DROP lands after admission but before install.
    s.execute("DROP TABLE savings").unwrap();

    let before = engine.commit_stats();
    let (_, checking_store) = store_of(&engine, "checking");
    let gate = checking_store.commit_guard();
    let leader = thread::spawn(move || on_checking.commit());
    wait_until(
        || engine.commit_stats().install_lock_acquisitions == before.install_lock_acquisitions + 1,
        "the checking committer to lead",
    );
    let follower = thread::spawn(move || on_savings.commit());
    wait_until(|| engine.pending_installs() == 1, "the savings committer to enqueue");
    drop(gate);

    leader.join().unwrap().expect("surviving table commits");
    let err = follower.join().unwrap().unwrap_err();
    assert!(is_serialization_conflict(&err), "got {err:?}");

    assert_eq!(s.query("SELECT * FROM checking WHERE owner = 8").unwrap().len(), 1);
    s.execute("UNDROP TABLE savings").unwrap();
    assert_eq!(
        s.query_sorted("SELECT * FROM savings").unwrap(),
        vec![row!(1i64, 50i64), row!(2i64, 50i64)],
        "the dropped table's store must not contain the aborted write"
    );
}

/// Group-committed histories stay within the paper's isolation model:
/// concurrent committers over overlapping table sets, batched by the
/// queue, produce histories free of G0/G1 — and no reader ever observes a
/// half-applied multi-table commit.
#[test]
fn dsg_checker_certifies_group_committed_histories() {
    let engine = Engine::new(DbConfig::default());
    let s = engine.session();
    for i in 0..4 {
        s.execute(&format!("CREATE TABLE h{i} (k INT, v INT)")).unwrap();
        s.execute(&format!("INSERT INTO h{i} VALUES (0, 0)")).unwrap();
    }
    let stores: Vec<(EntityId, Arc<TableStore>)> =
        (0..4).map(|i| store_of(&engine, &format!("h{i}"))).collect();

    let seed = engine.commit_stats();
    let history = Arc::new(Mutex::new(History::new()));
    let label = Arc::new(AtomicUsize::new(1));
    let mut handles = Vec::new();
    for w in 0..4usize {
        let engine = engine.clone();
        let history = Arc::clone(&history);
        let label = Arc::clone(&label);
        let stores = stores.clone();
        handles.push(thread::spawn(move || {
            let s = engine.session();
            // Each writer hits an overlapping pair of tables. Kept to a
            // dozen transactions in total: the DSG checker *enumerates*
            // simple cycles, which is exponential in dense histories.
            let (a, b) = (w % 4, (w + 1) % 4);
            for i in 0..3 {
                let me = label.fetch_add(1, Ordering::SeqCst) as u32;
                let mut txn = s.begin();
                let ra = txn.snapshot().version_of(stores[a].0).unwrap().raw() as u32;
                let rb = txn.snapshot().version_of(stores[b].0).unwrap().raw() as u32;
                txn.query(&format!("SELECT * FROM h{a}")).unwrap();
                txn.query(&format!("SELECT * FROM h{b}")).unwrap();
                history.lock().unwrap().read(me, &format!("h{a}"), ra).read(
                    me,
                    &format!("h{b}"),
                    rb,
                );
                txn.execute(&format!("INSERT INTO h{a} VALUES ({w}, {i})")).unwrap();
                txn.execute(&format!("INSERT INTO h{b} VALUES ({w}, {i})")).unwrap();
                match txn.commit() {
                    Ok(commit_ts) => {
                        // The versions installed at our commit timestamp
                        // are exactly ours (timestamps are unique).
                        let va = stores[a].1.version_at(commit_ts).unwrap().raw() as u32;
                        let vb = stores[b].1.version_at(commit_ts).unwrap().raw() as u32;
                        let mut h = history.lock().unwrap();
                        h.write(me, &format!("h{a}"), va)
                            .write(me, &format!("h{b}"), vb)
                            .commit(me);
                        // No half-application: both tables carry a version
                        // stamped at exactly this commit timestamp.
                        assert_eq!(stores[a].1.commit_ts_of(dt_common::VersionId(va as u64)).unwrap(), commit_ts);
                        assert_eq!(stores[b].1.commit_ts_of(dt_common::VersionId(vb as u64)).unwrap(), commit_ts);
                    }
                    Err(e) => {
                        assert!(is_serialization_conflict(&e), "got {e:?}");
                        history.lock().unwrap().abort(me);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let h = history.lock().unwrap();
    let report = analyze(&h);
    for phenomenon in ["G0", "G1a", "G1b", "G1c"] {
        assert!(
            report.free_of(phenomenon),
            "{phenomenon} in group-committed history: {:?}",
            report.phenomena
        );
    }
    assert!(h.committed().len() > 1, "some transactions must commit");
    let stats = engine.commit_stats();
    assert_eq!(
        stats.commits - seed.commits,
        h.committed().len() as u64,
        "history and telemetry agree"
    );
}

/// DDL, a warehouse and a commit share one install batch: behind a stalled
/// leader (a commit on `g0`) queue `CREATE TABLE n`, a duplicate `CREATE
/// TABLE g1`, `ALTER DYNAMIC TABLE d SUSPEND`, a new warehouse and a commit
/// on `g1`. The duplicate fails exactly as it does alone and takes nobody
/// with it; the other four land in one WAL batch and survive a restart.
#[test]
fn ddl_rides_the_install_queue_and_a_mixed_batch_replays() {
    let dir = std::env::temp_dir().join(format!("dt-ddl-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let engine = Engine::open(&dir).unwrap();
        engine.create_warehouse("wh", 1).unwrap();
        let s = engine.session();
        for t in ["g0", "g1"] {
            s.execute(&format!("CREATE TABLE {t} (k INT)")).unwrap();
        }
        s.execute("CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM g0")
            .unwrap();
        let stage = |table: &str| {
            let mut txn = s.begin();
            txn.execute(&format!("INSERT INTO {table} VALUES (7)")).unwrap();
            txn.prepare_commit().unwrap()
        };
        let (on_g0, on_g1) = (stage("g0"), stage("g1"));
        let (commits, wal) = (engine.commit_stats(), engine.wal_stats());

        // Stall the leader inside its install, on `g0`'s commit guard.
        let (_, g0_store) = store_of(&engine, "g0");
        let gate = g0_store.commit_guard();
        let leader = thread::spawn(move || on_g0.commit());
        wait_until(
            || {
                engine.commit_stats().install_lock_acquisitions
                    == commits.install_lock_acquisitions + 1
            },
            "the commit on `g0` to lead its batch",
        );
        let ddl: Vec<_> = [
            "CREATE TABLE n (x INT)",
            "CREATE TABLE g1 (k INT)",
            "ALTER DYNAMIC TABLE d SUSPEND",
        ]
        .map(|sql| {
            let s = engine.session();
            thread::spawn(move || s.execute(sql).map(|_| ()))
        })
        .into();
        let warehouse = {
            let engine = engine.clone();
            thread::spawn(move || engine.create_warehouse("wh2", 1))
        };
        let follower = thread::spawn(move || on_g1.commit());
        wait_until(|| engine.pending_installs() == 5, "all five to enqueue");
        drop(gate);

        leader.join().unwrap().expect("the leader commits");
        let outcomes: Vec<_> = ddl.into_iter().map(|t| t.join().unwrap()).collect();
        let alone = s.execute("CREATE TABLE g1 (k INT)").unwrap_err();
        assert_eq!(format!("{:?}", outcomes[1]), format!("{:?}", Err::<(), _>(alone)));
        outcomes[0].as_ref().expect("CREATE TABLE n");
        outcomes[2].as_ref().expect("ALTER … SUSPEND");
        warehouse.join().unwrap().expect("the warehouse");
        follower.join().unwrap().expect("the commit on `g1`");
        assert_eq!(engine.wal_stats().batches, wal.batches + 2, "the leader's batch, then one more");
    }

    let engine = Engine::open(&dir).unwrap();
    let s = engine.session();
    assert!(s.query("SELECT * FROM n").unwrap().is_empty());
    assert_eq!(s.query_sorted("SELECT * FROM g1").unwrap(), vec![row!(7i64)]);
    engine.inspect(|st| {
        let d = st.catalog().resolve("d").unwrap().as_dt().unwrap();
        assert_eq!(d.state, dt_catalog::DtState::Suspended);
        assert!(st.warehouses().get("wh2").is_ok());
    });
    drop((s, engine));
    let _ = std::fs::remove_dir_all(&dir);
}
