//! Transaction commit contention: do writers on disjoint tables really
//! commit concurrently, and what does writer group-commit buy on top?
//!
//! N writer threads each run a fixed number of transactions (a small DML
//! batch, then commit) over either **disjoint** table sets (writer *i*
//! owns table *i*) or **overlapping** ones (every writer hits the same
//! table). Two commit paths are compared:
//!
//! * `per-table` — explicit [`dt_core::Transaction`]s finished with
//!   `commit_unbatched()`: DML is planned lock-free against the pinned
//!   snapshot, commit takes per-table `TxnManager` locks, and each
//!   committer acquires the engine write lock itself for the O(metadata)
//!   validate+install (the PR-4 pipeline).
//! * `group-commit` — the same transactions finished with `commit()`:
//!   committers enqueue into the engine's commit queue, one leader drains
//!   and installs a whole batch per engine-write-lock acquisition, and
//!   followers are woken with their individual outcomes. The
//!   `locks/commit` column reports acquisitions ÷ commits — below 1.0
//!   means batching actually happened.
//!
//! Report: commit p50/p99/max latency (µs), throughput (commits/s), and
//! abort rate per (writers, path, mode). Expected shape:
//! `group-commit/disjoint` holds commit p99 at or below `per-table` from
//! 4 writers up (one lock acquisition amortizes across the batch), and
//! `overlapping` shows a non-zero abort rate for both optimistic paths —
//! the price of first-committer-wins.
//!
//! Known tradeoff the overlapping columns make visible: group commit
//! holds a committer's per-table admission locks across its queue wait,
//! so on a *hot shared table* the lock-hold window grows from the bare
//! install to a leader/follower handoff — other writers conflict against
//! it more often, inflating the abort (retry) rate and cutting hot-table
//! throughput versus `per-table`. Batching cannot help that workload
//! anyway (batch-mates are disjoint by admission); the fix for hot
//! tables is the **locking dimension** below.
//!
//! On top of the commit paths, the `per-table` path runs under three
//! admission-locking arms:
//!
//! * `optimistic` — tables pinned `SET LOCKING OPTIMISTIC`: pure
//!   first-committer-wins, the historical series.
//! * `pessimistic` — tables pinned `SET LOCKING PESSIMISTIC`: contended
//!   committers park on the lock manager's FIFO wait-queue instead of
//!   abort-retrying; pure-insert write sets rebase onto the version the
//!   wait exposed, so a wait replaces a whole replan-retry cycle.
//! * `adaptive` — tables left on `AUTO`: the engine's abort-rate window
//!   flips hot tables to pessimistic mid-run (the `flips` column shows
//!   it happening).
//!
//! The locking gates (8 writers, re-measured on failure like the p99
//! gate): `pessimistic/overlapping` must beat `optimistic/overlapping`
//! on **both** aborts and throughput, and the pessimistic and adaptive
//! disjoint arms must stay within 10% of optimistic disjoint throughput
//! — wait-queues must not tax writers that never contend.
//!
//! Run with: `cargo run --release -p dt-bench --bin txn_commit_contention`
//! Optional args: `[writers] [txns-per-writer] [rows-per-txn]
//! [--json PATH]`. With no `writers` argument the harness sweeps
//! 2/4/8 writer threads; `--json` additionally writes every run as a
//! `BENCH_txn_commit.json`-style artifact for the perf trajectory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use dt_core::{is_serialization_conflict, DbConfig, Engine};

#[derive(Clone, Copy, PartialEq)]
enum CommitPath {
    PerTable,
    GroupCommit,
}

impl CommitPath {
    fn label(self) -> &'static str {
        match self {
            CommitPath::PerTable => "per-table",
            CommitPath::GroupCommit => "group-commit",
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum TableMode {
    Disjoint,
    Overlapping,
}

impl TableMode {
    fn label(self) -> &'static str {
        match self {
            TableMode::Disjoint => "disjoint",
            TableMode::Overlapping => "overlapping",
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Locking {
    Optimistic,
    Pessimistic,
    Adaptive,
}

impl Locking {
    fn label(self) -> &'static str {
        match self {
            Locking::Optimistic => "optimistic",
            Locking::Pessimistic => "pessimistic",
            Locking::Adaptive => "adaptive",
        }
    }
}

fn setup(writers: usize, locking: Locking) -> Engine {
    let engine = Engine::new(DbConfig::default());
    let db = engine.session();
    for t in 0..writers {
        db.execute(&format!("CREATE TABLE t{t} (k INT, v INT)")).unwrap();
        db.execute(&format!("INSERT INTO t{t} VALUES (0, 0)")).unwrap();
        // Pin the mode for the optimistic/pessimistic arms so the series
        // measures one admission strategy, not whatever the adaptive
        // policy drifts into; the adaptive arm leaves tables on AUTO.
        match locking {
            Locking::Optimistic => {
                db.execute(&format!("ALTER TABLE t{t} SET LOCKING OPTIMISTIC")).unwrap();
            }
            Locking::Pessimistic => {
                db.execute(&format!("ALTER TABLE t{t} SET LOCKING PESSIMISTIC")).unwrap();
            }
            Locking::Adaptive => {}
        }
    }
    engine
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct RunReport {
    writers: usize,
    path: CommitPath,
    mode: TableMode,
    locking: Locking,
    commits: u64,
    aborts: u64,
    p50: u64,
    p99: u64,
    max: u64,
    wall_ms: u128,
    throughput: f64,
    lock_acquisitions: u64,
    max_batch: u64,
    lock_waits: u64,
    lock_timeouts: u64,
    adaptive_flips: u64,
}

fn insert_sql(table: usize, writer: usize, txn: usize, rows: usize) -> String {
    let mut values = Vec::with_capacity(rows);
    for r in 0..rows {
        values.push(format!("({}, {})", writer * 1_000_000 + txn * 100 + r, r));
    }
    format!("INSERT INTO t{table} VALUES {}", values.join(", "))
}

/// Run one (writers, path, mode) workload and collect per-commit
/// latencies (µs).
fn run(
    path: CommitPath,
    mode: TableMode,
    locking: Locking,
    writers: usize,
    txns: usize,
    rows: usize,
) -> RunReport {
    let engine = setup(writers, locking);
    let baseline = engine.commit_stats();
    let commits = AtomicU64::new(0);
    let aborts = AtomicU64::new(0);
    let barrier = Barrier::new(writers);
    let mut all_lat: Vec<u64> = Vec::new();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..writers {
            let engine = engine.clone();
            let (commits, aborts, barrier) = (&commits, &aborts, &barrier);
            handles.push(scope.spawn(move || {
                let session = engine.session();
                let table = match mode {
                    TableMode::Disjoint => w,
                    TableMode::Overlapping => 0,
                };
                let mut lat = Vec::with_capacity(txns);
                barrier.wait();
                for i in 0..txns {
                    let sql = insert_sql(table, w, i, rows);
                    let start = Instant::now();
                    loop {
                        let mut txn = session.begin();
                        txn.execute(&sql).unwrap();
                        let outcome = match path {
                            CommitPath::GroupCommit => txn.commit(),
                            CommitPath::PerTable => txn.commit_unbatched(),
                        };
                        match outcome {
                            Ok(_) => {
                                commits.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) if is_serialization_conflict(&e) => {
                                aborts.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("commit failed: {e}"),
                        }
                    }
                    lat.push(start.elapsed().as_micros() as u64);
                }
                lat
            }));
        }
        for h in handles {
            all_lat.extend(h.join().unwrap());
        }
    });
    let wall_ms = t0.elapsed().as_millis();

    // Sanity: every transaction eventually committed, and the data proves
    // it — each table holds its seed row plus every committed batch.
    let session = engine.session();
    let expected: usize = writers * txns * rows + writers;
    let mut total = 0usize;
    for t in 0..writers {
        total += session.query(&format!("SELECT * FROM t{t}")).unwrap().len();
    }
    assert_eq!(total, expected, "lost or duplicated committed rows");
    assert_eq!(commits.load(Ordering::Relaxed) as usize, writers * txns);

    let stats = engine.commit_stats();
    let lock = engine.lock_stats();
    all_lat.sort_unstable();
    let committed = commits.load(Ordering::Relaxed);
    RunReport {
        writers,
        path,
        mode,
        locking,
        commits: committed,
        aborts: aborts.load(Ordering::Relaxed),
        p50: percentile(&all_lat, 0.50),
        p99: percentile(&all_lat, 0.99),
        max: all_lat.last().copied().unwrap_or(0),
        wall_ms,
        throughput: committed as f64 / (wall_ms.max(1) as f64 / 1000.0),
        lock_acquisitions: stats.install_lock_acquisitions - baseline.install_lock_acquisitions,
        max_batch: stats.max_batch,
        lock_waits: lock.waits,
        lock_timeouts: lock.timeouts,
        adaptive_flips: lock.adaptive_flips,
    }
}

fn json_escape_free(r: &RunReport) -> String {
    format!(
        "    {{\"writers\": {}, \"path\": \"{}\", \"tables\": \"{}\", \
         \"locking\": \"{}\", \
         \"commits\": {}, \"aborts\": {}, \"p50_us\": {}, \"p99_us\": {}, \
         \"max_us\": {}, \"wall_ms\": {}, \"throughput_per_s\": {:.1}, \
         \"install_lock_acquisitions\": {}, \"max_batch\": {}, \
         \"lock_waits\": {}, \"lock_timeouts\": {}, \"adaptive_flips\": {}}}",
        r.writers,
        r.path.label(),
        r.mode.label(),
        r.locking.label(),
        r.commits,
        r.aborts,
        r.p50,
        r.p99,
        r.max,
        r.wall_ms,
        r.throughput,
        r.lock_acquisitions,
        r.max_batch,
        r.lock_waits,
        r.lock_timeouts,
        r.adaptive_flips,
    )
}

fn main() {
    let mut writers_arg: Option<usize> = None;
    let mut txns: usize = 200;
    let mut rows: usize = 8;
    let mut json_path: Option<String> = None;
    let mut positional = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = args.next();
            continue;
        }
        let v: usize = a.parse().unwrap_or_else(|_| panic!("bad argument {a}"));
        match positional {
            0 => writers_arg = Some(v),
            1 => txns = v,
            2 => rows = v,
            _ => panic!("too many arguments"),
        }
        positional += 1;
    }
    let writer_counts: Vec<usize> = match writers_arg {
        Some(w) => vec![w],
        None => vec![2, 4, 8],
    };

    println!("# Transaction commit latency under write contention");
    println!(
        "# writers x {txns} txns x {rows} rows/txn \
         (latencies in µs per committed txn incl. retries)\n"
    );
    println!(
        "{:<8} {:<13} {:<12} {:<12} {:>8} {:>7} {:>10} {:>7} {:>7} {:>7} {:>8} {:>10} {:>12} {:>7} {:>9} {:>6}",
        "writers",
        "path",
        "tables",
        "locking",
        "commits",
        "aborts",
        "abort-rate",
        "p50",
        "p99",
        "max",
        "wall-ms",
        "commits/s",
        "locks/commit",
        "waits",
        "timeouts",
        "flips"
    );

    let print_report = |r: &RunReport| {
        println!(
            "{:<8} {:<13} {:<12} {:<12} {:>8} {:>7} {:>9.1}% {:>7} {:>7} {:>7} {:>8} {:>10.0} {:>12.2} {:>7} {:>9} {:>6}",
            r.writers,
            r.path.label(),
            r.mode.label(),
            r.locking.label(),
            r.commits,
            r.aborts,
            100.0 * r.aborts as f64 / (r.commits + r.aborts).max(1) as f64,
            r.p50,
            r.p99,
            r.max,
            r.wall_ms,
            r.throughput,
            r.lock_acquisitions as f64 / r.commits.max(1) as f64,
            r.lock_waits,
            r.lock_timeouts,
            r.adaptive_flips,
        );
    };

    let mut reports = Vec::new();
    for &writers in &writer_counts {
        for mode in [TableMode::Disjoint, TableMode::Overlapping] {
            // The two commit paths, pure optimistic.
            for path in [CommitPath::PerTable, CommitPath::GroupCommit] {
                let r = run(path, mode, Locking::Optimistic, writers, txns, rows);
                print_report(&r);
                reports.push(r);
            }
            // The locking dimension, on the per-table path (one engine
            // write-lock acquisition per commit — the cleanest view of
            // what admission alone changes).
            for locking in [Locking::Pessimistic, Locking::Adaptive] {
                let r = run(CommitPath::PerTable, mode, locking, writers, txns, rows);
                print_report(&r);
                reports.push(r);
            }
        }
    }

    // Invariants the harness asserts (kept loose enough for 1-core CI):
    // no path aborts on disjoint tables — conflicts and waits alike
    // require a shared table.
    for r in &reports {
        if r.mode == TableMode::Disjoint {
            assert_eq!(
                r.aborts,
                0,
                "{}/{}/{} must not abort",
                r.path.label(),
                r.mode.label(),
                r.locking.label()
            );
        }
        if r.mode == TableMode::Disjoint {
            assert_eq!(
                r.lock_waits,
                0,
                "disjoint writers must never park ({}/{})",
                r.path.label(),
                r.locking.label()
            );
        }
    }

    // The trajectory artifact records every raw number regardless of how
    // the gates below fare.
    if let Some(path) = json_path {
        let body: Vec<String> = reports.iter().map(json_escape_free).collect();
        let json = format!(
            "{{\n  \"bench\": \"txn_commit_contention\",\n  \"txns_per_writer\": {txns},\n  \
             \"rows_per_txn\": {rows},\n  \"runs\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        );
        std::fs::write(&path, json).unwrap();
        println!("\nwrote {path}");
    }

    // The group-commit acceptance check: at 4+ writers the batched path's
    // commit p99 must be no worse than the per-table path's (1.25x slack
    // plus a 100µs cushion absorb measurement noise). Asserted on disjoint
    // tables — group-commit's home turf; overlapping runs are dominated by
    // first-committer-wins retry churn, whose wild tails are reported but
    // not gated. Past 4 writers the gate also requires real parallelism:
    // at >2x core oversubscription the batched path's leader/follower
    // condvar handoff pays whole scheduler quanta, which measures the
    // host's scheduler, not the commit pipeline. The remaining gated
    // counts re-measure on failure (a transient scheduler hiccup vanishes
    // on retry; a genuine regression fails all three attempts), keeping
    // the bound tight without turning CI red over one preempted quantum.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut gated = 0usize;
    for &writers in &writer_counts {
        if writers < 4 {
            continue;
        }
        if cores < 2 || (writers > 4 && writers > cores * 2) {
            println!(
                "note: skipping p99 gate at {writers} writers — only {cores} \
                 core(s) available, oversubscription would gate the scheduler"
            );
            continue;
        }
        gated += 1;
        let p99_of = |path: CommitPath| {
            reports
                .iter()
                .find(|r| {
                    r.writers == writers
                        && r.mode == TableMode::Disjoint
                        && r.path == path
                        && r.locking == Locking::Optimistic
                })
                .map(|r| r.p99)
                .unwrap()
        };
        let holds = |per_table: u64, grouped: u64| {
            grouped as f64 <= per_table as f64 * 1.25 + 100.0
        };
        let mut per_table = p99_of(CommitPath::PerTable);
        let mut grouped = p99_of(CommitPath::GroupCommit);
        let mut attempts = 1;
        while !holds(per_table, grouped) && attempts < 3 {
            println!(
                "note: re-measuring p99 gate at {writers} writers (attempt \
                 {attempts} saw group {grouped}µs vs per-table {per_table}µs)"
            );
            per_table =
                run(CommitPath::PerTable, TableMode::Disjoint, Locking::Optimistic, writers, txns, rows)
                    .p99;
            grouped =
                run(CommitPath::GroupCommit, TableMode::Disjoint, Locking::Optimistic, writers, txns, rows)
                    .p99;
            attempts += 1;
        }
        assert!(
            holds(per_table, grouped),
            "group-commit p99 ({grouped}µs) worse than per-table \
             ({per_table}µs) at {writers} writers / disjoint after \
             {attempts} attempts"
        );
    }

    // The locking gates, asserted at the highest gated writer count with
    // ≥ 2 cores (a single core serializes everything and measures the
    // scheduler, not admission):
    //
    // 1. Hot table: `pessimistic/overlapping` beats
    //    `optimistic/overlapping` (per-table path) on BOTH aborts and
    //    throughput — parking must outperform abort-retry churn where it
    //    matters.
    // 2. Disjoint fast path: the pessimistic and adaptive arms stay
    //    within 10% of optimistic disjoint throughput (plus a small
    //    absolute cushion for sub-millisecond runs).
    let lock_gate_writers = writer_counts.iter().copied().filter(|&w| w >= 4).max();
    if let (Some(writers), true) = (lock_gate_writers, cores >= 2) {
        let find = |mode: TableMode, locking: Locking| {
            reports
                .iter()
                .find(|r| {
                    r.writers == writers
                        && r.mode == mode
                        && r.path == CommitPath::PerTable
                        && r.locking == locking
                })
                .map(|r| (r.aborts, r.throughput))
                .unwrap()
        };
        let beats = |(opt_aborts, opt_tput): (u64, f64), (pess_aborts, pess_tput): (u64, f64)| {
            pess_aborts < opt_aborts && pess_tput > opt_tput
        };
        let mut optimistic = find(TableMode::Overlapping, Locking::Optimistic);
        let mut pessimistic = find(TableMode::Overlapping, Locking::Pessimistic);
        let mut attempts = 1;
        while !beats(optimistic, pessimistic) && attempts < 3 {
            println!(
                "note: re-measuring locking gate at {writers} writers (attempt \
                 {attempts} saw pessimistic {}/{:.0} vs optimistic {}/{:.0})",
                pessimistic.0, pessimistic.1, optimistic.0, optimistic.1
            );
            let o = run(CommitPath::PerTable, TableMode::Overlapping, Locking::Optimistic, writers, txns, rows);
            let p = run(CommitPath::PerTable, TableMode::Overlapping, Locking::Pessimistic, writers, txns, rows);
            optimistic = (o.aborts, o.throughput);
            pessimistic = (p.aborts, p.throughput);
            attempts += 1;
        }
        assert!(
            beats(optimistic, pessimistic),
            "pessimistic/overlapping ({} aborts, {:.0} commits/s) must beat \
             optimistic/overlapping ({} aborts, {:.0} commits/s) on both \
             axes at {writers} writers after {attempts} attempts",
            pessimistic.0,
            pessimistic.1,
            optimistic.0,
            optimistic.1
        );

        let disjoint_holds = |opt: f64, other: f64| other >= opt * 0.9 - 500.0;
        for locking in [Locking::Pessimistic, Locking::Adaptive] {
            let opt = find(TableMode::Disjoint, Locking::Optimistic).1;
            let mut other = find(TableMode::Disjoint, locking).1;
            let mut attempts = 1;
            while !disjoint_holds(opt, other) && attempts < 3 {
                println!(
                    "note: re-measuring disjoint {} arm at {writers} writers \
                     (attempt {attempts} saw {other:.0} vs optimistic {opt:.0})",
                    locking.label()
                );
                other = run(CommitPath::PerTable, TableMode::Disjoint, locking, writers, txns, rows)
                    .throughput;
                attempts += 1;
            }
            assert!(
                disjoint_holds(opt, other),
                "{}/disjoint throughput ({other:.0}/s) regressed more than \
                 10% below optimistic ({opt:.0}/s) at {writers} writers \
                 after {attempts} attempts",
                locking.label()
            );
        }
        println!(
            "\nok: locking gates held at {writers} writers — pessimistic \
             beats optimistic on the hot table on both aborts and \
             throughput; disjoint arms within 10%"
        );
    } else {
        println!("\nnote: locking gates skipped — not enough cores or writers");
    }

    if gated > 0 {
        println!(
            "\nok: all workloads committed every transaction; conflicts only \
             on overlapping tables; group-commit p99 no worse than per-table \
             at 4+ writers"
        );
    } else {
        println!(
            "\nok: all workloads committed every transaction; conflicts only \
             on overlapping tables (p99 gate skipped — not enough cores)"
        );
    }
}
