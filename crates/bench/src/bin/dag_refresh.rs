//! DAG refresh throughput: what does level-parallel refresh with group
//! install buy over refreshing the same DAG serially?
//!
//! The harness builds a `levels × fanout` DT grid over one churning base
//! table — level 0 reads the base, level *i* reads level *i-1* — and
//! drives `rounds` refresh rounds through two arms:
//!
//! * `serial` — every DT refreshed one at a time in topological order,
//!   each inline under the engine write lock
//!   (`EngineState::run_refresh`: pin, compute and install in place).
//! * `parallel` — [`dt_core::Engine::refresh_all_parallel`]: each level's
//!   deltas computed concurrently against pinned snapshots, installs
//!   group-committed so a whole level lands in one or two engine-lock
//!   acquisitions.
//!
//! Report per arm: refreshes/s, per-DT actual lag (wall-clock offset from
//! round start to that DT's install — the paper's §3.3.2 actual-lag
//! measure against the 1-minute target every DT declares) at p50/p99,
//! and group-install telemetry (lock acquisitions, max batch).
//!
//! Gates (exit non-zero on violation):
//! * both arms refresh every DT every round and converge to identical
//!   contents — the arms must agree before speed matters;
//! * every per-DT actual lag stays under the declared 1-minute target;
//! * on hosts with ≥ 4 cores, parallel throughput ≥ 2x serial (skipped
//!   below 4 cores, where level parallelism has nothing to run on).
//!
//! Run with: `cargo run --release -p dt-bench --bin dag_refresh`
//! Optional args: `[levels] [fanout] [rounds] [--json PATH]`.

use std::time::Instant;

use dt_core::{DbConfig, Engine, RoundStatus};

/// The target lag every DT in the grid declares, in microseconds.
const TARGET_LAG_US: u64 = 60_000_000;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn dt_name(level: usize, slot: usize) -> String {
    format!("d_{level}_{slot}")
}

/// Build the grid: `fanout` chains of depth `levels` over one base table.
fn setup(levels: usize, fanout: usize) -> Engine {
    let engine = Engine::new(DbConfig::default());
    engine.create_warehouse("wh", 4).unwrap();
    let s = engine.session();
    s.execute("CREATE TABLE src (k INT, v INT)").unwrap();
    s.execute("INSERT INTO src VALUES (0, 0)").unwrap();
    for level in 0..levels {
        for slot in 0..fanout {
            let upstream = if level == 0 {
                "src".to_string()
            } else {
                dt_name(level - 1, slot)
            };
            s.execute(&format!(
                "CREATE DYNAMIC TABLE {} TARGET_LAG = '1 minute' WAREHOUSE = wh \
                 AS SELECT k, v FROM {upstream}",
                dt_name(level, slot)
            ))
            .unwrap();
        }
    }
    engine
}

struct ArmReport {
    mode: &'static str,
    refreshes: u64,
    wall_ms: u128,
    refreshes_per_s: f64,
    lag_p50_us: u64,
    lag_p99_us: u64,
    lock_acquisitions: u64,
    max_batch: u64,
    workers: u64,
}

fn finish_arm(
    mode: &'static str,
    engine: &Engine,
    refreshes: u64,
    wall: std::time::Duration,
    mut lags: Vec<u64>,
) -> ArmReport {
    lags.sort_unstable();
    let stats = engine.refresh_stats();
    ArmReport {
        mode,
        refreshes,
        wall_ms: wall.as_millis(),
        refreshes_per_s: refreshes as f64 / wall.as_secs_f64(),
        lag_p50_us: percentile(&lags, 0.50),
        lag_p99_us: percentile(&lags, 0.99),
        lock_acquisitions: stats.install_lock_acquisitions,
        max_batch: stats.max_batch,
        workers: stats.workers,
    }
}

/// The serial arm: topological order, one DT at a time, engine write lock
/// held across each refresh.
fn run_serial(levels: usize, fanout: usize, rounds: usize) -> (Engine, ArmReport) {
    let engine = setup(levels, fanout);
    let s = engine.session();
    let order: Vec<String> = (0..levels)
        .flat_map(|l| (0..fanout).map(move |f| dt_name(l, f)))
        .collect();
    let ids: Vec<_> = order
        .iter()
        .map(|n| engine.inspect(|st| st.catalog().resolve(n).unwrap().id))
        .collect();

    let mut lags = Vec::new();
    let mut refreshes = 0u64;
    let started = Instant::now();
    for round in 0..rounds {
        s.execute(&format!("INSERT INTO src VALUES ({round}, {round})")).unwrap();
        let round_start = Instant::now();
        engine.inspect_mut(|st| {
            let refresh_ts = st.txn_manager().hlc().tick();
            for &dt in &ids {
                st.run_refresh(dt, refresh_ts, false).unwrap();
                lags.push(round_start.elapsed().as_micros() as u64);
                refreshes += 1;
            }
        });
    }
    let report = finish_arm("serial", &engine, refreshes, started.elapsed(), lags);
    (engine, report)
}

/// The parallel arm: whole-DAG rounds through the level-parallel
/// group-install path.
fn run_parallel(levels: usize, fanout: usize, rounds: usize) -> (Engine, ArmReport) {
    let engine = setup(levels, fanout);
    let s = engine.session();
    let mut lags = Vec::new();
    let mut refreshes = 0u64;
    let started = Instant::now();
    for round in 0..rounds {
        s.execute(&format!("INSERT INTO src VALUES ({round}, {round})")).unwrap();
        let report = engine.refresh_all_parallel().unwrap();
        assert_eq!(
            report.failed + report.conflicts + report.pruned,
            0,
            "an uncontended round refreshes everything: {report:?}"
        );
        for (_, status) in &report.outcomes {
            if let RoundStatus::Installed { at_micros, .. } = status {
                lags.push(*at_micros);
                refreshes += 1;
            }
        }
    }
    let report = finish_arm("parallel", &engine, refreshes, started.elapsed(), lags);
    (engine, report)
}

fn json_line(r: &ArmReport) -> String {
    format!(
        "{{\"mode\": \"{}\", \"refreshes\": {}, \"wall_ms\": {}, \
         \"refreshes_per_s\": {:.1}, \"lag_p50_us\": {}, \"lag_p99_us\": {}, \
         \"target_lag_us\": {}, \"install_lock_acquisitions\": {}, \
         \"max_batch\": {}, \"workers\": {}}}",
        r.mode,
        r.refreshes,
        r.wall_ms,
        r.refreshes_per_s,
        r.lag_p50_us,
        r.lag_p99_us,
        TARGET_LAG_US,
        r.lock_acquisitions,
        r.max_batch,
        r.workers,
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut positional = Vec::new();
    let mut json_path: Option<String> = None;
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = args.next();
        } else {
            positional.push(a);
        }
    }
    let levels: usize = positional.first().map_or(3, |a| a.parse().unwrap());
    let fanout: usize = positional.get(1).map_or(4, |a| a.parse().unwrap());
    let rounds: usize = positional.get(2).map_or(5, |a| a.parse().unwrap());
    let dts = levels * fanout;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "dag_refresh: {levels} levels x {fanout} fanout = {dts} DTs, \
         {rounds} rounds, {cores} cores"
    );

    let (serial_engine, serial) = run_serial(levels, fanout, rounds);
    let (parallel_engine, parallel) = run_parallel(levels, fanout, rounds);

    println!(
        "{:<10} {:>10} {:>9} {:>12} {:>12} {:>12} {:>8} {:>9}",
        "mode", "refreshes", "wall_ms", "refresh/s", "lag_p50_us", "lag_p99_us", "locks", "max_batch"
    );
    for r in [&serial, &parallel] {
        println!(
            "{:<10} {:>10} {:>9} {:>12.1} {:>12} {:>12} {:>8} {:>9}",
            r.mode,
            r.refreshes,
            r.wall_ms,
            r.refreshes_per_s,
            r.lag_p50_us,
            r.lag_p99_us,
            r.lock_acquisitions,
            r.max_batch,
        );
    }

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"dag_refresh\",\n  \"levels\": {levels},\n  \
             \"fanout\": {fanout},\n  \"rounds\": {rounds},\n  \"cores\": {cores},\n  \
             \"runs\": [\n    {},\n    {}\n  ]\n}}\n",
            json_line(&serial),
            json_line(&parallel),
        );
        std::fs::write(&path, json).unwrap();
        println!("wrote {path}");
    }

    // Gate 1: both arms refreshed every DT every round...
    let expected = (dts * rounds) as u64;
    assert_eq!(serial.refreshes, expected, "serial arm skipped refreshes");
    assert_eq!(parallel.refreshes, expected, "parallel arm skipped refreshes");
    // ...and converged to identical contents (deepest level sees all rows).
    let ss = serial_engine.session();
    let ps = parallel_engine.session();
    for slot in 0..fanout {
        let q = format!("SELECT * FROM {}", dt_name(levels - 1, slot));
        let lhs = ss.query_sorted(&q).unwrap();
        let rhs = ps.query_sorted(&q).unwrap();
        assert_eq!(lhs, rhs, "arms disagree on {q}");
        assert_eq!(lhs.len(), rounds + 1, "stale chain tail in {q}");
    }

    // Gate 2: every DT met its declared target lag in both arms.
    for r in [&serial, &parallel] {
        assert!(
            r.lag_p99_us < TARGET_LAG_US,
            "{}: p99 actual lag {}us breaches the {}us target",
            r.mode,
            r.lag_p99_us,
            TARGET_LAG_US
        );
    }

    // Gate 3: with real cores to run on, level parallelism must pay.
    if cores >= 4 {
        assert!(
            parallel.refreshes_per_s >= 2.0 * serial.refreshes_per_s,
            "parallel ({:.1}/s) is not 2x serial ({:.1}/s) on a {cores}-core host",
            parallel.refreshes_per_s,
            serial.refreshes_per_s
        );
        println!(
            "gate: parallel {:.1}/s >= 2x serial {:.1}/s — ok",
            parallel.refreshes_per_s, serial.refreshes_per_s
        );
    } else {
        println!("gate: parallel >= 2x serial skipped ({cores} cores < 4)");
    }
    println!("dag_refresh ok");
}
