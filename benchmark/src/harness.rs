//! What every workload shares: the run context and its timeline, the
//! sample records, the refresh driver that stands in for the server's
//! missing wall-clock scheduler, set-up repetition, and the correctness
//! checks.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dt_common::{EntityId, Row};
use dt_core::{DbConfig, DurabilityMode, Engine, RefreshLogEntry, RoundStatus, Session};

use crate::stats::{median, Counters};

/// A run sets its world up at least this many times; `setup_s` is the
/// median.
const SETUP_REPEATS_MIN: usize = 5;
/// A world that sets up in less than half a second is set up more often,
/// until the repeats have taken this long together or reached the maximum:
/// single set-ups of one world differ by ±15 % (allocation, page faults,
/// file creation), and a short set-up can afford the repeats that make
/// its median as steady as a long one's.
const SETUP_REPEATS_TARGET_S: f64 = 2.5;
const SETUP_REPEATS_MAX: usize = 200;

/// Everything one run is told on its command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Warm-up before the window, seconds.
    pub warmup: f64,
    /// Traced run: adds the layer walk and emits the per-layer metrics.
    pub trace: bool,
    /// Smoke run: short windows, numbers not comparable.
    pub smoke: bool,
    /// Directory for WAL directories, traces and result files.
    pub scratch: PathBuf,
}

/// One run's clock: every sample is nanoseconds since `origin`, and the
/// measured window is `[w0, w1)`.
#[derive(Debug, Clone)]
pub struct Timeline {
    origin: Instant,
    /// Window start, ns.
    pub w0: u64,
    /// Window end, ns.
    pub w1: u64,
}

impl Timeline {
    /// Start the clock now: warm-up first, then the window.
    pub fn start(ctx: &Ctx) -> Timeline {
        let w0 = (ctx.warmup * 1e9) as u64;
        Timeline {
            origin: Instant::now(),
            w0,
            w1: w0 + (ctx.seconds * 1e9) as u64,
        }
    }

    /// Nanoseconds since the run started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `t` as an `Instant`.
    pub fn instant(&self, t: u64) -> Instant {
        self.origin + Duration::from_nanos(t)
    }

    /// `at` as nanoseconds since the run started.
    pub fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Sleep until `t` (returns at once when it has passed).
    pub fn sleep_until(&self, t: u64) {
        std::thread::sleep(self.instant(t).saturating_duration_since(Instant::now()));
    }

    /// Whether `t` lies in the measured window.
    pub fn in_window(&self, t: u64) -> bool {
        (self.w0..self.w1).contains(&t)
    }

    /// A timeline with the given window, for unit tests.
    #[cfg(test)]
    pub fn for_test(w0: u64, w1: u64) -> Timeline {
        Timeline {
            origin: Instant::now(),
            w0,
            w1,
        }
    }
}

/// One write unit as its client saw it.
#[derive(Debug, Clone)]
pub struct WriteSample {
    /// When it was due (open loop) or sent (closed loop), ns.
    pub due: u64,
    /// When it was sent, ns.
    pub sent: u64,
    /// When it was acknowledged, ns.
    pub acked: u64,
    /// When the row counts as created for freshness: its due time in an
    /// open loop, its acknowledgement in a closed loop, ns.
    pub born: u64,
    /// Visibility stream the marker belongs to (one per writer).
    pub stream: u32,
    /// The unit's last sequence number; the unit is visible in the leaf
    /// DT once the leaf's `max(seq)` for the stream reaches it.
    pub marker: i64,
    /// Attempts beyond the first.
    pub retries: u32,
    /// Bytes of user data carried (8 per integer column value).
    pub user_bytes: u64,
    /// Whether it was acknowledged as committed.
    pub ok: bool,
}

/// One read as its client saw it.
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// When it was sent, ns.
    pub sent: u64,
    /// When its answer arrived, ns.
    pub recv: u64,
    /// Index into the workload's query classes.
    pub class: usize,
    /// Whether the answer arrived and had the expected shape.
    pub ok: bool,
}

/// One look at the leaf DT: at `at`, its `max(seq)` for `stream` was
/// `marker`.
#[derive(Debug, Clone)]
pub struct Observation {
    /// When the answer was in the reader's hands, ns.
    pub at: u64,
    /// Visibility stream.
    pub stream: u32,
    /// `max(seq)` seen.
    pub marker: i64,
}

/// One whole-DAG refresh round.
#[derive(Debug, Clone)]
pub struct RoundSample {
    /// Round start, ns.
    pub start: u64,
    /// Round end, ns.
    pub end: u64,
    /// Whether any DT installed something other than NO_DATA.
    pub carried: bool,
    /// Refresh-log length before the round.
    pub log_from: usize,
    /// Refresh-log length after the round.
    pub log_to: usize,
    /// Per DT: offset from round start to install, ns.
    pub installs: Vec<(EntityId, u64)>,
    /// DTs that failed, conflicted or were pruned (must stay 0).
    pub problems: usize,
}

/// What a DT's defining query mostly does; refresh time is reported per
/// kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtKind {
    /// Projection and filter.
    Project,
    /// Join.
    Join,
    /// Grouped or scalar aggregate.
    Aggregate,
}

/// A dynamic table of a workload.
#[derive(Debug, Clone, Copy)]
pub struct DtDef {
    /// Table name.
    pub name: &'static str,
    /// Kind, for per-kind refresh time.
    pub kind: DtKind,
    /// `TARGET_LAG` clause value.
    pub lag: &'static str,
    /// Defining query.
    pub sql: &'static str,
}

/// Everything a run measured; `metrics.rs` turns it into named values.
#[derive(Debug, Default)]
pub struct Measured {
    /// Median set-up time, seconds, and how many set-ups it is over.
    pub setup_s: f64,
    /// See `setup_s`.
    pub setups: usize,
    /// Write units, all phases.
    pub writes: Vec<WriteSample>,
    /// Reads, all phases.
    pub queries: Vec<QuerySample>,
    /// Names of the query classes `QuerySample::class` indexes.
    pub query_classes: Vec<&'static str>,
    /// Leaf-DT observations in time order.
    pub observations: Vec<Observation>,
    /// Refresh rounds in time order.
    pub rounds: Vec<RoundSample>,
    /// The engine's whole refresh log at the end of the run.
    pub log: Vec<RefreshLogEntry>,
    /// The workload's DTs.
    pub dts: Vec<(EntityId, &'static str, DtKind)>,
    /// Engine and server counters over the window.
    pub counters: Counters,
    /// Worst generator lateness, ms (open loop only).
    pub late_max_ms: f64,
    /// Time to reopen the durable engine, ms (0 when in-memory).
    pub recovery_ms: f64,
    /// WAL records replayed on reopen.
    pub recovery_replayed: u64,
    /// Failed correctness checks; empty means correct.
    pub failures: Vec<String>,
    /// The layer walk of a traced run.
    pub walk: Option<crate::trace::Walk>,
}

impl Measured {
    /// Record a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        if !ok {
            self.failures.push(what.into());
        }
    }
}

/// Set the world up several times (see [`SETUP_REPEATS_MIN`]), keep the
/// last, and report the median set-up time in seconds and the number of
/// set-ups. Every other world goes to `discard` before the next is built,
/// outside the timing: dropping 300 k rows or unlinking a WAL directory
/// is not set-up.
pub fn repeated_setup<W>(
    mut setup: impl FnMut() -> W,
    mut discard: impl FnMut(W),
) -> (W, f64, usize) {
    let mut times = Vec::new();
    loop {
        let started = Instant::now();
        let world = setup();
        times.push(started.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPEATS_MIN
            && (times.iter().sum::<f64>() >= SETUP_REPEATS_TARGET_S
                || times.len() >= SETUP_REPEATS_MAX);
        if enough {
            let n = times.len();
            return (world, median(&mut times), n);
        }
        discard(world);
    }
}

/// An engine with the default configuration, in memory or logging to a
/// fresh WAL directory, with the warehouse the DTs name.
pub fn new_engine(wal_dir: Option<&Path>) -> Engine {
    let engine = match wal_dir {
        None => Engine::new(DbConfig::default()),
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Engine::open_with_config(DbConfig {
                durability: DurabilityMode::wal(dir),
                ..DbConfig::default()
            })
            .expect("open a fresh durable engine")
        }
    };
    engine.create_warehouse("wh", 4).expect("create warehouse");
    engine
}

/// Load `rows` rows into `table`, 1 000 per `INSERT`.
pub fn load_table(session: &Session, table: &str, rows: i64, mut row: impl FnMut(i64) -> String) {
    let mut next = 0;
    while next < rows {
        let end = (next + 1000).min(rows);
        let values: Vec<String> = (next..end).map(|r| format!("({})", row(r))).collect();
        session
            .execute(&format!("INSERT INTO {table} VALUES {}", values.join(", ")))
            .expect("preload insert");
        next = end;
    }
}

/// Create (and thereby initialise) the workload's DTs in order.
pub fn create_dts(session: &Session, defs: &[DtDef]) {
    for d in defs {
        session
            .execute(&format!(
                "CREATE DYNAMIC TABLE {} TARGET_LAG = {} WAREHOUSE = wh AS {}",
                d.name, d.lag, d.sql
            ))
            .expect("create dynamic table");
    }
}

/// Catalog ids of the workload's DTs.
pub fn resolve_dts(engine: &Engine, defs: &[DtDef]) -> Vec<(EntityId, &'static str, DtKind)> {
    engine.inspect(|st| {
        defs.iter()
            .map(|d| {
                let id = st.catalog().resolve(d.name).expect("DT exists").id;
                (id, d.name, d.kind)
            })
            .collect()
    })
}

/// Which cores the two sides of `ingest_fresh` may use. In the paper
/// refreshes run on their own compute (a warehouse, §3.3.1), apart from
/// the compute that serves clients; on one small host the workload gets
/// the same separation by giving the refresh driver — and the engine's
/// refresh workers, which inherit its mask — the last core the process
/// may use and everything else (clients, server threads) the others. It
/// is a latency-at-fixed-rate workload that leaves the host mostly idle,
/// and left alone the kernel either packs each client/server pair onto
/// one core or spreads it over two, for minutes at a time: a round trip
/// that has to wake an idle virtual core costs 0.21 ms against 0.15 ms,
/// and the probe's median moved by 39 % between two sets of runs of the
/// same code. The throughput workloads are not pinned — they want every
/// core for scans, refresh workers and writers, and pinning halves what
/// they can do without making them steadier. A process allowed a single
/// core is left alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Clients and the server's connection threads.
    Serving,
    /// The refresh driver and the engine's refresh workers.
    Refresh,
}

/// Words of a CPU mask: room for 1 024 cores.
const MASK_WORDS: usize = 16;

/// Restrict the calling thread (and threads it spawns later) to the
/// cores of `side`, taken from the cores the process was allowed when
/// this was first called. Best effort: an error from the kernel is
/// ignored, since the run is still correct, only noisier.
pub fn pin_current_thread(side: Side) {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    static ALLOWED: std::sync::OnceLock<[u64; MASK_WORDS]> = std::sync::OnceLock::new();
    let size = std::mem::size_of::<[u64; MASK_WORDS]>();
    let allowed = ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `sched_getaffinity(2)` writes at most `cpusetsize` bytes
        // to `mask`, which is that large. Pid 0 is the calling thread.
        let read = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) };
        if read < 0 {
            mask = [0; MASK_WORDS];
        }
        mask
    });
    if allowed.iter().map(|w| w.count_ones()).sum::<u32>() < 2 {
        return;
    }
    let word = allowed.iter().rposition(|w| *w != 0).unwrap_or(0);
    let last = 1u64 << (63 - allowed[word].leading_zeros());
    let mut mask = [0u64; MASK_WORDS];
    match side {
        Side::Refresh => mask[word] = last,
        Side::Serving => {
            mask = *allowed;
            mask[word] &= !last;
        }
    }
    // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from `mask`,
    // which is that large. The call changes scheduling only.
    unsafe {
        sched_setaffinity(0, size, mask.as_ptr());
    }
}

/// Work a workload hangs on the refresh driver's rounds.
pub trait RoundHooks {
    /// Runs before each round (the in-process write trickle).
    fn before(&mut self, _tl: &Timeline) {}
    /// Runs after each round (leaf-DT observation, invariant reads).
    fn after(&mut self, _tl: &Timeline) {}
}

/// Hooks that do nothing.
pub struct NoHooks;
impl RoundHooks for NoHooks {}

/// Run one whole-DAG round and record it.
pub fn one_round(engine: &Engine, tl: &Timeline) -> RoundSample {
    let log_from = engine.refresh_log().len();
    let start = tl.now();
    let report = engine
        .refresh_all_parallel()
        .expect("refresh round hit an internal error");
    let end = tl.now();
    let installs = report
        .outcomes
        .iter()
        .filter_map(|(dt, status)| match status {
            RoundStatus::Installed { at_micros, .. } => Some((*dt, *at_micros * 1000)),
            _ => None,
        })
        .collect();
    RoundSample {
        start,
        end,
        carried: report.refreshed > report.no_data,
        log_from,
        log_to: engine.refresh_log().len(),
        installs,
        problems: report.failed + report.conflicts + report.pruned,
    }
}

/// The refresh driver: round after round until `stop`, the next round
/// starting at `max(previous end, previous start + floor)`. It stands in
/// for the wall-clock scheduler `dt-server` does not have yet.
pub fn drive_refreshes(
    engine: &Engine,
    tl: &Timeline,
    floor: Duration,
    stop: &AtomicBool,
    hooks: &mut impl RoundHooks,
) -> Vec<RoundSample> {
    let mut rounds = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let round_start = Instant::now();
        hooks.before(tl);
        rounds.push(one_round(engine, tl));
        hooks.after(tl);
        // Sleep out the floor in slices so `stop` is seen promptly.
        let next = round_start + floor;
        while !stop.load(Ordering::SeqCst) {
            let left = next.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(Duration::from_millis(5)));
        }
    }
    rounds
}

/// Engine-side counters read at one instant (all public, lock-free or a
/// brief read lock). Server counters are added by TCP workloads.
pub fn engine_counters(engine: &Engine) -> Counters {
    let c = engine.commit_stats();
    let r = engine.refresh_stats();
    let w = engine.wal_stats();
    let l = engine.lock_stats();
    let mut out = Counters::default();
    out.push("commits", c.commits);
    out.push("conflicts", c.conflicts);
    out.push("commit_batches", c.install_lock_acquisitions);
    out.push("refreshes", r.refreshes);
    out.push("refresh_batches", r.install_lock_acquisitions);
    out.push("refresh_rounds", r.parallel_rounds);
    out.push("wal_appends", w.appends);
    out.push("wal_fsyncs", w.fsyncs);
    out.push("wal_bytes", w.bytes);
    out.push("wal_checkpoints", w.checkpoints);
    out.push("lock_waits", l.waits);
    out.push("lock_wait_us", l.wait_time_us);
    out.push("lock_timeouts", l.timeouts);
    out.push("deadlocks", l.deadlocks);
    out.push("adaptive_flips", l.adaptive_flips);
    out.push("zone_map_pruned", dt_storage::zone_map_pruned_total());
    out
}

/// `engine_counters` plus the server's own.
pub fn server_counters(engine: &Engine, server: &dt_server::Server) -> Counters {
    let mut out = engine_counters(engine);
    let s = server.stats();
    out.push("server_requests", s.requests_served);
    out.push("server_rejected", s.rejected_connections);
    out
}

/// Read the counters at the window's two ends (sleeping until each) and
/// return what happened in between.
pub fn counters_over_window(tl: &Timeline, read: impl Fn() -> Counters) -> Counters {
    tl.sleep_until(tl.w0);
    let before = read();
    tl.sleep_until(tl.w1);
    read().since(&before)
}

/// End of the concurrent phase: record that no round had a problem, run
/// rounds until one finds nothing to do, and keep the refresh log.
pub fn quiesce(engine: &Engine, tl: &Timeline, m: &mut Measured) {
    m.check(
        "no refresh failed, conflicted or was pruned",
        m.rounds.iter().all(|r| r.problems == 0),
    );
    while one_round(engine, tl).carried {}
    m.log = engine.refresh_log().entries();
}

/// The tail of a durable workload: shut the server down, drop the engine,
/// reopen its directory, re-run `check` on what was recovered, run the
/// traced run's `walk` (plus two probes with the window's mean WAL record
/// size: a WAL append on the run's disk model, and a real `fdatasync` on
/// the host's disk) on the recovered engine, and remove the WAL directory.
pub fn finish_durable(
    ctx: &Ctx,
    m: &mut Measured,
    server: dt_server::Server,
    engine: Engine,
    dir: &Path,
    check: impl Fn(&Session, &mut Measured, &str),
    walk: impl FnOnce(&Engine, &Measured) -> crate::trace::Walk,
) {
    server.shutdown();
    drop(engine);
    let started = Instant::now();
    let engine = Engine::open(dir).expect("reopen the durable engine");
    m.recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    m.recovery_replayed = engine.wal_stats().recovery_replayed;
    check(&engine.session(), m, "recovered");
    if ctx.trace {
        let mut walk = walk(&engine, m);
        let record_bytes = m.counters.get("wal_bytes") / m.counters.get("wal_appends").max(1);
        let probe_dir = ctx
            .scratch
            .join(format!("wal-probe-{}", std::process::id()));
        let fsync_us = crate::trace::probe_fsync_us(&probe_dir, record_bytes as usize, 200);
        walk.layers
            .insert("wal.probe_fsync_us".into(), vec![fsync_us]);
        let disk_us = crate::disk::real_fdatasync_us(&ctx.scratch, record_bytes as usize, 200);
        walk.layers
            .insert("host.fdatasync_us".into(), vec![disk_us]);
        m.walk = Some(walk);
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(dir);
}

/// Delayed view semantics (§6.1) at rest: with no refresh or write in
/// flight, each DT equals its defining query evaluated from scratch.
/// Call after a final round that found nothing left to do.
pub fn check_dvs(session: &Session, defs: &[DtDef], m: &mut Measured, phase: &str) {
    for d in defs {
        let stored = session.query_sorted(&format!("SELECT * FROM {}", d.name));
        let fresh = session.query_sorted(d.sql);
        let ok = matches!((&stored, &fresh), (Ok(a), Ok(b)) if a == b);
        m.check(
            format!("{phase}: DT {} equals its defining query", d.name),
            ok,
        );
    }
}

/// One integer cell of a one-row answer.
pub fn scalar(session: &Session, sql: &str) -> i64 {
    session
        .query(sql)
        .ok()
        .and_then(|r| r.rows().first().map(|row| int(row, 0)))
        .unwrap_or(i64::MIN)
}

/// Integer column `col` of `row`; NULL (an aggregate over nothing) and
/// anything else unexpected read as `i64::MIN`.
pub fn int(row: &Row, col: usize) -> i64 {
    row.get(col).expect_int().unwrap_or(i64::MIN)
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
