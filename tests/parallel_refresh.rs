//! Parallel DAG refresh (PR 8): whole-DAG rounds to one shared data
//! timestamp, group-installed levels landing in O(1) engine-lock
//! acquisitions, typed-conflict cone pruning when a base table vanishes
//! mid-round, snapshot consistency for concurrent readers, and DSG
//! certification of refresh + writer histories.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dynamic_tables::core::{DbConfig, Engine, RoundStatus};
use dynamic_tables::isolation::{analyze, History};
use dt_common::EntityId;
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

fn id_of(engine: &Engine, name: &str) -> EntityId {
    engine.inspect(|st| st.catalog().resolve(name).unwrap().id)
}

fn status_of(report: &dynamic_tables::core::RefreshRoundReport, dt: EntityId) -> &RoundStatus {
    &report
        .outcomes
        .iter()
        .find(|(id, _)| *id == dt)
        .unwrap_or_else(|| panic!("no outcome for {dt} in {report:?}"))
        .1
}

/// A three-DT DAG refreshes as one round: every DT advances to the same
/// shared data timestamp, levels respect dependencies, and a quiet second
/// round is all NO_DATA.
#[test]
fn parallel_round_refreshes_whole_dag_to_one_timestamp() {
    let engine = Engine::new(DbConfig { validate_dvs: true, ..DbConfig::default() });
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t1 (k INT, v INT)").unwrap();
    s.execute("INSERT INTO t1 VALUES (1, 10), (2, 20)").unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, sum(v) s FROM t1 GROUP BY k",
    )
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE b TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, v FROM t1",
    )
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE c TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k, s FROM a",
    )
    .unwrap();

    s.execute("INSERT INTO t1 VALUES (1, 5), (3, 30)").unwrap();
    let report = engine.refresh_all_parallel().unwrap();
    assert_eq!(report.refreshed, 3, "all three DTs land: {report:?}");
    assert_eq!(report.failed, 0, "{report:?}");
    assert_eq!(report.conflicts, 0, "{report:?}");
    assert_eq!(report.pruned, 0, "{report:?}");
    assert_eq!(report.levels, 2, "a,b then c");

    // Every refresh in the round carries the round's shared timestamp.
    let log = engine.refresh_log();
    let round: Vec<_> = log
        .entries()
        .into_iter()
        .filter(|e| e.refresh_ts == report.refresh_ts)
        .collect();
    assert_eq!(round.len(), 3, "{round:?}");
    assert!(round.iter().all(|e| e.action == "incremental"), "{round:?}");
    // Telemetry satellites: durations and source-row counts are recorded.
    assert!(round.iter().all(|e| e.source_rows > 0), "{round:?}");

    // The downstream DT sees the refreshed upstream, not stale state.
    assert_eq!(
        s.query_sorted("SELECT * FROM c").unwrap(),
        s.query_sorted("SELECT k, sum(v) s FROM t1 GROUP BY k").unwrap(),
    );

    // Nothing changed since: the whole DAG lands as free NO_DATA.
    let quiet = engine.refresh_all_parallel().unwrap();
    assert_eq!(quiet.refreshed, 3, "{quiet:?}");
    assert_eq!(quiet.no_data, 3, "{quiet:?}");

    let stats = engine.refresh_stats();
    assert_eq!(stats.parallel_rounds, 2);
    assert_eq!(stats.group_submitted, 9, "all nine installs rode the queue");
    assert_eq!(stats.group_submitted, stats.refreshes);
    assert!(stats.refreshes >= 6, "{stats:?}");
}

/// The acceptance scenario for group install: a level of N disjoint
/// refreshes lands in at most TWO engine-write-lock acquisitions.
/// Deterministic staging mirrors the writer group-commit test: all N
/// prepares finish first, the first installer leads a one-entry batch and
/// stalls on its table's storage commit guard (held by the test), the
/// other N-1 pile up behind it and drain as one batch.
#[test]
fn level_of_disjoint_refreshes_installs_in_at_most_two_lock_acquisitions() {
    const N: usize = 4;
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    for i in 0..N {
        s.execute(&format!("CREATE TABLE g{i} (k INT)")).unwrap();
        s.execute(&format!(
            "CREATE DYNAMIC TABLE d{i} TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k FROM g{i}"
        ))
        .unwrap();
        s.execute(&format!("INSERT INTO g{i} VALUES ({i})")).unwrap();
    }

    let refresh_ts = engine.inspect(|st| st.txn_manager().hlc().tick());
    let mut prepared = Vec::new();
    for i in 0..N {
        let dt = id_of(&engine, &format!("d{i}"));
        prepared.push(engine.prepare_refresh(dt, refresh_ts).unwrap());
    }
    let before = engine.refresh_stats();

    // Stall the leader inside its install: hold d0's storage commit
    // guard, which the install phase must acquire.
    let (_, d0_store) = store_of(&engine, "d0");
    let gate = d0_store.commit_guard();

    let mut prepared = prepared.into_iter();
    let leader = {
        let first = prepared.next().unwrap();
        thread::spawn(move || first.install().unwrap())
    };
    wait_until(
        || {
            engine.refresh_stats().install_lock_acquisitions
                == before.install_lock_acquisitions + 1
        },
        "the first installer to lead its batch",
    );

    let followers: Vec<_> = prepared
        .map(|p| thread::spawn(move || p.install().unwrap()))
        .collect();
    wait_until(
        || engine.pending_installs() == N - 1,
        "all remaining installers to enqueue",
    );
    drop(gate);

    let first = leader.join().unwrap();
    assert_eq!(first.action, "incremental");
    for f in followers {
        let installed = f.join().unwrap();
        assert_eq!(installed.action, "incremental");
        assert_eq!(installed.refresh_ts, refresh_ts);
    }

    let after = engine.refresh_stats();
    let acquisitions = after.install_lock_acquisitions - before.install_lock_acquisitions;
    assert_eq!(
        acquisitions, 2,
        "one stalled leader round + one batch for the other {} installs",
        N - 1
    );
    assert!(after.max_batch >= (N - 1) as u64, "stats: {after:?}");
    assert_eq!(after.group_submitted - before.group_submitted, N as u64);

    // And the refreshed contents all landed.
    for i in 0..N {
        assert_eq!(
            s.query_sorted(&format!("SELECT * FROM d{i}")).unwrap(),
            s.query_sorted(&format!("SELECT k FROM g{i}")).unwrap(),
        );
    }
}

/// One pipeline: transaction commits and refresh installs queued behind
/// the same stalled leader land together — one engine-write-lock
/// acquisition, one WAL batch, one fsync — and still get one outcome
/// each. Staged like the test above; the leader is a commit on `lead`.
/// Behind it queue a commit on `a`, a commit on `b` prepared against a
/// version `b` has since left (it must lose first-committer-wins and take
/// nobody with it), and the refreshes of `d1` and `d2`. Everything
/// acknowledged survives a crash, with both DTs equal to their queries.
#[test]
fn commits_and_refreshes_share_one_batch_with_individual_outcomes() {
    let dir = std::env::temp_dir().join(format!("dt-mixed-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rows = |s: &dynamic_tables::core::Session, sql: &str| s.query_sorted(sql).unwrap();
    {
        let engine = Engine::open(&dir).unwrap();
        engine.create_warehouse("wh", 4).unwrap();
        let s = engine.session();
        for t in ["lead", "a", "b"] {
            s.execute(&format!("CREATE TABLE {t} (k INT)")).unwrap();
        }
        for i in 1..=2 {
            s.execute(&format!("CREATE TABLE g{i} (k INT)")).unwrap();
            s.execute(&format!(
                "CREATE DYNAMIC TABLE d{i} TARGET_LAG = '1 minute' WAREHOUSE = wh \
                 AS SELECT k FROM g{i}"
            ))
            .unwrap();
            s.execute(&format!("INSERT INTO g{i} VALUES ({i})")).unwrap();
        }

        let stage = |table: &str, at: Option<dt_common::Timestamp>| {
            let mut txn = at.map_or_else(|| s.begin(), |at| s.begin_at(at));
            txn.execute(&format!("INSERT INTO {table} VALUES (7)")).unwrap();
            txn.prepare_commit().unwrap()
        };
        let before_b_moved = engine.inspect(|st| st.txn_manager().hlc().tick());
        s.execute("INSERT INTO b VALUES (0)").unwrap();
        let (on_lead, on_a) = (stage("lead", None), stage("a", None));
        let stale_on_b = stage("b", Some(before_b_moved));
        let refresh_ts = engine.inspect(|st| st.txn_manager().hlc().tick());
        let refreshes: Vec<_> = ["d1", "d2"]
            .map(|d| engine.prepare_refresh(id_of(&engine, d), refresh_ts).unwrap())
            .into();
        let (commits, refreshed, wal) =
            (engine.commit_stats(), engine.refresh_stats(), engine.wal_stats());

        // Stall the leader inside its install, on `lead`'s commit guard.
        let (_, lead_store) = store_of(&engine, "lead");
        let gate = lead_store.commit_guard();
        let leader = thread::spawn(move || on_lead.commit());
        wait_until(
            || {
                engine.commit_stats().install_lock_acquisitions
                    == commits.install_lock_acquisitions + 1
            },
            "the commit on `lead` to lead its batch",
        );
        let followers: Vec<_> = [on_a, stale_on_b]
            .map(|p| thread::spawn(move || p.commit()))
            .into();
        let installers: Vec<_> = refreshes
            .into_iter()
            .map(|p| thread::spawn(move || p.install()))
            .collect();
        wait_until(|| engine.pending_installs() == 4, "all four to enqueue");
        drop(gate);

        leader.join().unwrap().expect("the leader commits");
        let mut outcomes = followers.into_iter().map(|f| f.join().unwrap());
        outcomes.next().unwrap().expect("the commit on `a` is independent of the loser");
        let lost = outcomes.next().unwrap().unwrap_err();
        assert!(lost.is_conflict() && lost.to_string().contains("first committer wins"), "{lost}");
        for installer in installers {
            let installed = installer.join().unwrap().expect("refreshes install beside the loser");
            assert_eq!((installed.action, installed.refresh_ts), ("incremental", refresh_ts));
        }

        // Two acquisitions in all: the stalled leader's, then one for the
        // mixed four — which counts once toward each kind it contains.
        let (c, r, w) = (engine.commit_stats(), engine.refresh_stats(), engine.wal_stats());
        assert_eq!(c.install_lock_acquisitions - commits.install_lock_acquisitions, 2);
        assert_eq!(r.install_lock_acquisitions - refreshed.install_lock_acquisitions, 1);
        assert_eq!((c.commits - commits.commits, c.conflicts - commits.conflicts), (2, 1));
        assert!(c.max_batch >= 2 && r.max_batch >= 2, "{c:?} {r:?}");
        assert_eq!(c.group_submitted - commits.group_submitted, 3);
        assert_eq!(r.group_submitted - refreshed.group_submitted, 2);
        // One append and one fsync per acquisition; the loser logs nothing.
        assert_eq!(
            (w.appends - wal.appends, w.batches - wal.batches, w.fsyncs - wal.fsyncs),
            (4, 2, 2),
            "the mixed batch must reach the WAL in one append"
        );
    }

    let s = Engine::open(&dir).unwrap().session();
    assert_eq!(rows(&s, "SELECT * FROM lead"), rows(&s, "SELECT * FROM a"));
    assert_eq!(rows(&s, "SELECT * FROM a").len(), 1);
    assert_eq!(rows(&s, "SELECT * FROM b").len(), 1, "the loser's row must not be there");
    for i in 1..=2 {
        let stored = rows(&s, &format!("SELECT * FROM d{i}"));
        assert_eq!(stored, rows(&s, &format!("SELECT k FROM g{i}")), "d{i} after recovery");
        assert_eq!(stored.len(), 1);
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 2: a base table dropped between a refresh's prepare and its
/// install aborts that refresh with a typed conflict — the same liveness
/// guard as the transactional commit path — and a subsequent whole-DAG
/// round records the orphaned DT as failed, prunes its downstream cone,
/// and still refreshes the rest. The round itself never poisons.
#[test]
fn base_dropped_mid_round_aborts_cone_with_typed_conflict() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute("CREATE TABLE u (k INT)").unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE d1 TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE d3 TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM d1",
    )
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE d2 TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM u",
    )
    .unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("INSERT INTO u VALUES (2)").unwrap();

    let d1 = id_of(&engine, "d1");
    let d2 = id_of(&engine, "d2");
    let d3 = id_of(&engine, "d3");

    // Prepare d1's refresh while t is live, then drop t before install.
    let refresh_ts = engine.inspect(|st| st.txn_manager().hlc().tick());
    let prep = engine.prepare_refresh(d1, refresh_ts).unwrap();
    assert!(!prep.is_failed(), "t was live at prepare");
    s.execute("DROP TABLE t").unwrap();
    let err = prep.install().unwrap_err();
    assert!(err.is_conflict(), "typed conflict, got: {err}");
    assert!(err.to_string().contains("dropped"), "{err}");

    // d1's refresh lock was released by the abort; a whole-DAG round now
    // records d1 as failed (its base no longer binds), prunes d3, and
    // still refreshes d2 — Ok, not Err.
    let report = engine.refresh_all_parallel().unwrap();
    assert!(
        matches!(status_of(&report, d1), RoundStatus::Failed(e) if e.contains("t")),
        "{report:?}"
    );
    assert_eq!(*status_of(&report, d3), RoundStatus::Pruned, "{report:?}");
    assert!(
        matches!(
            status_of(&report, d2),
            RoundStatus::Installed { action: "incremental", .. }
        ),
        "{report:?}"
    );
    assert_eq!(report.failed, 1, "{report:?}");
    assert_eq!(report.pruned, 1, "{report:?}");
    assert_eq!(report.refreshed, 1, "{report:?}");

    // Restore the base: the next round resumes the whole cone.
    s.execute("UNDROP TABLE t").unwrap();
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    let healed = engine.refresh_all_parallel().unwrap();
    assert_eq!(healed.failed, 0, "{healed:?}");
    assert_eq!(healed.refreshed, 3, "{healed:?}");
    assert_eq!(
        s.query_sorted("SELECT * FROM d3").unwrap(),
        s.query_sorted("SELECT k FROM t").unwrap(),
    );
}

/// Satellite 3a: a reader pinned mid-round never observes a
/// half-refreshed level out of dependency order. For the chain
/// t → a → b, any snapshot must satisfy |b| ≤ |a| ≤ |t|: a child version
/// derives from an already-installed parent version at the same round
/// timestamp, and installs happen child-after-parent.
#[test]
fn readers_never_observe_half_refreshed_level() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (m INT)").unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT m FROM t",
    )
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE b TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT m FROM a",
    )
    .unwrap();

    thread::scope(|scope| {
        let refresher = {
            let engine = engine.clone();
            scope.spawn(move || {
                let s = engine.session();
                for i in 0..20 {
                    s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
                    engine.refresh_all_parallel().unwrap();
                }
            })
        };
        // The reader races the rounds: every snapshot must be internally
        // consistent (monotone row counts down the chain) and stable on
        // re-read.
        let engine = engine.clone();
        let reader = scope.spawn(move || {
            while !refresher.is_finished() {
                let snap = engine.snapshot();
                let nt = snap.query_sorted("SELECT * FROM t").unwrap().len();
                let na = snap.query_sorted("SELECT * FROM a").unwrap().len();
                let nb = snap.query_sorted("SELECT * FROM b").unwrap().len();
                assert!(
                    nb <= na && na <= nt,
                    "half-refreshed level visible: |t|={nt} |a|={na} |b|={nb}"
                );
                assert_eq!(
                    snap.query_sorted("SELECT * FROM b").unwrap().len(),
                    nb,
                    "pinned snapshot re-read must be stable"
                );
            }
            refresher.join().unwrap();
        });
        reader.join().unwrap();
    });

    // Once quiescent, the whole chain converges.
    assert_eq!(s.query_sorted("SELECT * FROM a").unwrap().len(), 20);
    assert_eq!(s.query_sorted("SELECT * FROM b").unwrap().len(), 20);
}

/// Satellite 3b: two overlapping rounds serialize per DT via the refresh
/// lock — a DT is refreshed at most once per round timestamp (no
/// double-apply), losers classify as conflicts, and with DVS validation
/// on, every installed result equals the defining query at its data
/// timestamp.
#[test]
fn overlapping_rounds_serialize_per_dt_without_double_apply() {
    let engine = Engine::new(DbConfig { validate_dvs: true, ..DbConfig::default() });
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE b TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM a",
    )
    .unwrap();

    thread::scope(|scope| {
        let writer = {
            let engine = engine.clone();
            scope.spawn(move || {
                let s = engine.session();
                for i in 0..10 {
                    s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
                }
            })
        };
        let rounds: Vec<_> = (0..2)
            .map(|_| {
                let engine = engine.clone();
                scope.spawn(move || {
                    for _ in 0..5 {
                        // Internal errors would be Err; per-DT losers of
                        // overlapping rounds must classify as conflicts.
                        engine.refresh_all_parallel().unwrap();
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in rounds {
            r.join().unwrap();
        }
    });

    // No double-apply: at most one non-failed refresh per (dt, refresh_ts).
    let mut seen = std::collections::BTreeSet::new();
    for e in engine.refresh_log().entries() {
        if e.initial || e.action == "failed" {
            continue;
        }
        assert!(
            seen.insert((e.dt, e.refresh_ts)),
            "duplicate refresh of {:?} at {}",
            e.dt,
            e.refresh_ts
        );
    }

    // Quiesce and converge (DVS validation ran on every install above).
    let final_round = engine.refresh_all_parallel().unwrap();
    assert_eq!(final_round.failed, 0, "{final_round:?}");
    assert_eq!(
        s.query_sorted("SELECT * FROM b").unwrap(),
        s.query_sorted("SELECT * FROM t").unwrap(),
    );
}

/// Satellite 3c: a history of one writer transaction, one parallel
/// refresh round, and one trailing reader is free of the G0/G1 phenomena
/// — refreshes behave like well-formed transactions in the DSG.
#[test]
fn dsg_certifies_refresh_and_writer_history_free_of_g0_g1() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    let (t_id, t_store) = store_of(&engine, "t");
    let (a_id, a_store) = store_of(&engine, "a");

    let mut h = History::new();

    // T1: a writer on the base table.
    let mut t1 = s.begin();
    let r1 = t1.snapshot().version_of(t_id).unwrap().raw() as u32;
    t1.query("SELECT * FROM t").unwrap();
    h.read(1, "t", r1);
    t1.execute("INSERT INTO t VALUES (2)").unwrap();
    t1.commit().unwrap();
    let t_after = t_store.latest_version().raw() as u32;
    h.write(1, "t", t_after).commit(1);

    // T2: the parallel refresh round — reads the base at its resolved
    // version (the committed frontier) and installs a's new version.
    let a_before = a_store.latest_version().raw() as u32;
    let report = engine.refresh_all_parallel().unwrap();
    assert_eq!(report.refreshed, 1, "{report:?}");
    let a_after = a_store.latest_version().raw() as u32;
    assert!(a_after > a_before, "the refresh installed a new version");
    h.read(2, "t", t_after).write(2, "a", a_after).commit(2);

    // T3: a trailing reader sees both committed versions.
    let t3 = s.begin();
    let r3t = t3.snapshot().version_of(t_id).unwrap().raw() as u32;
    let r3a = t3.snapshot().version_of(a_id).unwrap().raw() as u32;
    assert_eq!((r3t, r3a), (t_after, a_after));
    t3.query("SELECT * FROM t").unwrap();
    t3.query("SELECT * FROM a").unwrap();
    h.read(3, "t", r3t).read(3, "a", r3a).commit(3);
    t3.commit().unwrap();

    let report = analyze(&h);
    assert!(report.free_of("G0"), "no write cycle: {:?}", report.phenomena);
    assert!(report.free_of("G1a"), "no aborted reads: {:?}", report.phenomena);
    assert!(report.free_of("G1b"), "no intermediate reads: {:?}", report.phenomena);
    assert!(report.free_of("G1c"), "no dependency cycle: {:?}", report.phenomena);
}

/// Satellite 1: `SHOW STATS` surfaces the refresh-pipeline counters
/// locally — refreshes, group-install batches, parallel rounds, and the
/// worker-pool size — alongside the commit-pipeline counters.
#[test]
fn show_stats_reports_refresh_counters_locally() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    engine.refresh_all_parallel().unwrap();

    let dynamic_tables::core::ExecResult::Rows(rows) = s.execute("SHOW STATS").unwrap() else {
        panic!("SHOW STATS must return rows");
    };
    let mut saw = std::collections::HashMap::new();
    for row in rows.rows() {
        let (dt_common::Value::Str(name), dt_common::Value::Int(v)) =
            (&row.values()[0], &row.values()[1])
        else {
            panic!("expected (Str, Int) rows, got {row:?}");
        };
        saw.insert(name.clone(), *v);
    }
    assert!(saw["refreshes"] >= 2, "initialization + round: {saw:?}");
    assert!(saw["refresh_batches"] >= 1, "{saw:?}");
    assert!(saw["refresh_group_submitted"] >= 1, "{saw:?}");
    assert_eq!(saw["parallel_refresh_rounds"], 1, "{saw:?}");
    assert!(saw["refresh_workers"] >= 1, "{saw:?}");
    assert!(saw.contains_key("commits"), "{saw:?}");

    // And it answers inside an open transaction (engine-global counters,
    // not snapshot state).
    s.execute("BEGIN").unwrap();
    assert!(matches!(
        s.execute("SHOW STATS"),
        Ok(dynamic_tables::core::ExecResult::Rows(_))
    ));
    s.execute("ROLLBACK").unwrap();
}

/// Suspended DTs sit a round out, and their downstream cones prune with
/// them rather than reading a stale parent at the round timestamp.
#[test]
fn suspended_subtree_is_pruned_from_parallel_rounds() {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE t (k INT)").unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE a TARGET_LAG = '1 minute' WAREHOUSE = wh AS SELECT k FROM t",
    )
    .unwrap();
    s.execute(
        "CREATE DYNAMIC TABLE child TARGET_LAG = '1 minute' WAREHOUSE = wh \
         AS SELECT k FROM a",
    )
    .unwrap();
    s.execute("ALTER DYNAMIC TABLE a SUSPEND").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();

    let a = id_of(&engine, "a");
    let child = id_of(&engine, "child");
    let report = engine.refresh_all_parallel().unwrap();
    assert!(
        !report.outcomes.iter().any(|(id, _)| *id == a),
        "suspended DTs are not part of the round: {report:?}"
    );
    assert_eq!(*status_of(&report, child), RoundStatus::Pruned, "{report:?}");
    assert_eq!(report.refreshed, 0, "{report:?}");

    s.execute("ALTER DYNAMIC TABLE a RESUME").unwrap();
    let resumed = engine.refresh_all_parallel().unwrap();
    assert_eq!(resumed.refreshed, 2, "{resumed:?}");
    assert_eq!(s.query_sorted("SELECT * FROM child").unwrap().len(), 1);
}
