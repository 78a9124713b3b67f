//! The paper's claims, each as one function returning a small typed
//! result whose `check` holds the claim's predicate — and whose doc
//! comment holds the paper's text and section number, so the oracle is
//! self-contained (`PAPER.md` is a stub).
//!
//! Every run is deterministic: fixed [`SEEDS`] over the engine's
//! `SimClock`, so `tests/reproduction.rs` pins exact values where a claim
//! is exact and bands where it is a shape. The only wall-clock reading
//! ([`RefreshCost::micros`]) is reported, never asserted. [`run_all`] is
//! what the `reproduce` bin prints.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use dt_catalog::RefreshMode;
use dt_common::{
    row, Column, DataType, DtResult, Duration, EntityId, Row, Schema, TargetLag, Timestamp,
};
use dt_core::{DbConfig, Engine, Session, Simulation};
use dt_exec::{MapProvider, TableProvider};
use dt_isolation::{analyze, History, IsolationLevel};
use dt_ivm::{delta, delta_unconsolidated, DeltaContext, MapChanges, OuterJoinStrategy};
use dt_plan::{operator_census, JoinType, LogicalPlan, OperatorKind, ScalarExpr};
use dt_scheduler::CostModel;
use dt_storage::ChangeSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    apply_bulk_change, apply_traffic, build_fleet, create_base_tables, lag_bucket, sample_query,
};

/// Seed of the 600-DT fleet behind Fig. 5 and Fig. 6.
const FLEET_SEED: u64 = 42;
/// Seed of the 120-DT fleet and its 8 hours of traffic behind §6.3.
const ADOPTION_SEED: u64 = 1234;
/// Seed of the §6.1 random DTs and DML.
const DVS_SEED: u64 = 99;

/// Every seed a claim draws from, for the provenance block.
pub const SEEDS: [(&str, u64); 3] =
    [("fleet", FLEET_SEED), ("adoption", ADOPTION_SEED), ("dvs_validation", DVS_SEED)];

fn ensure(holds: bool, otherwise: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(otherwise.to_string())
    }
}

fn share(part: usize, whole: usize) -> f64 {
    part as f64 / whole as f64
}

fn engine(config: DbConfig, nodes: u32) -> (Engine, Session) {
    engine_on(config, Simulation::default(), nodes)
}

/// [`engine`] running `sim`.
fn engine_on(config: DbConfig, sim: Simulation, nodes: u32) -> (Engine, Session) {
    let engine = Engine::simulated(config, sim).expect("an in-memory engine opens");
    engine.create_warehouse("wh", nodes).expect("fresh engine has no warehouse 'wh'");
    let db = engine.session();
    (engine, db)
}

/// [`engine`] over the fleet's base tables.
fn fleet_engine(config: DbConfig, nodes: u32) -> (Engine, Session) {
    let (engine, db) = engine(config, nodes);
    create_base_tables(&db).expect("base tables load");
    (engine, db)
}

fn refresh_mode(engine: &Engine, dt: &str) -> RefreshMode {
    engine.inspect(|s| s.catalog().resolve(dt).expect("a live DT").as_dt().expect("a DT").refresh_mode)
}

// --- Fig. 1 / Fig. 2 (§4) --------------------------------------------------

/// The §4 worked history under both semantics, analysed by `dt-isolation`:
/// level reached and tags of the phenomena found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationFigures {
    /// Fig. 1: refreshes are read/write transactions.
    pub fig1: (IsolationLevel, Vec<&'static str>),
    /// Fig. 2: refreshes are derivations.
    pub fig2: (IsolationLevel, Vec<&'static str>),
    /// Fig. 2: some cycle has exactly one anti-dependency edge.
    pub fig2_g_single: bool,
}

impl IsolationFigures {
    /// §4, Fig. 1: under persisted-table semantics the refresh
    /// transactions mask the conflict — the DSG is serializable with no
    /// phenomena although T5 observes read skew. Fig. 2: under delayed
    /// view semantics the refreshes are derivations and the same skew
    /// appears as a G-single cycle T5 ⇄ T2, so the history is PL-2 and not
    /// PL-2+.
    pub fn check(&self) -> Result<(), String> {
        ensure(
            self.fig1.0 == IsolationLevel::Pl3 && self.fig1.1.is_empty(),
            "Fig. 1 is not serializable and phenomenon-free",
        )?;
        ensure(
            self.fig2_g_single && self.fig2.0 < IsolationLevel::Pl2Plus,
            "Fig. 2 does not show the skew as a G-single cycle",
        )
    }
}

/// Fig. 1 and Fig. 2: T1 writes x1, a refresh makes y3 from x1, T2 writes
/// x2, a refresh makes y4 from x2, T5 reads y3 and x2.
pub fn isolation_figures() -> IsolationFigures {
    let mut fig1 = History::new();
    fig1.write(1, "x", 1).commit(1);
    fig1.read(3, "x", 1).write(3, "y", 3).commit(3);
    fig1.write(2, "x", 2).commit(2);
    fig1.read(4, "x", 2).write(4, "y", 4).commit(4);
    fig1.read(5, "y", 3).read(5, "x", 2).commit(5);

    let mut fig2 = History::new();
    fig2.write(1, "x", 1).commit(1);
    fig2.derive(3, ("y", 3), &[("x", 1)]).commit(3);
    fig2.write(2, "x", 2).commit(2);
    fig2.derive(4, ("y", 4), &[("x", 2)]).commit(4);
    fig2.read(5, "y", 3).read(5, "x", 2).commit(5);

    let (r1, r2) = (analyze(&fig1), analyze(&fig2));
    let tags = |r: &dt_isolation::Report| r.phenomena.iter().map(|p| p.tag()).collect();
    IsolationFigures {
        fig1: (r1.level, tags(&r1)),
        fig2: (r2.level, tags(&r2)),
        fig2_g_single: r2.phenomena.iter().any(|p| p.is_g_single()),
    }
}

// --- Fig. 4 (§5.2) ---------------------------------------------------------

/// One DT under continuous traffic for 30 simulated minutes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sawtooth {
    /// The DT's target lag `t`.
    pub target: Duration,
    /// The canonical period `p` the scheduler chose.
    pub period: Duration,
    /// `p + w + d` of every refresh cycle: the period plus the lag left
    /// at the trough (waiting `w` and refresh duration `d` together).
    pub cycles: Vec<Duration>,
    /// The highest peak of the sawtooth.
    pub max_peak: Duration,
}

impl Sawtooth {
    /// §5.2, Fig. 4: lag rises at 1 s/s between refresh commits and drops
    /// when one commits; the period is the largest canonical `48·2ⁿ` s
    /// that leaves room for waiting and refreshing, so every cycle keeps
    /// `p + w + d < t` and the lag never exceeds the target.
    pub fn check(&self) -> Result<(), String> {
        let (p, half) = (self.period.as_micros(), self.target.as_micros() / 2);
        let n = self.period.as_secs() / 48;
        ensure(p == 48_000_000 * n && n > 0 && n & (n - 1) == 0, "the period is not 48·2ⁿ s")?;
        ensure(p <= half && half < 2 * p, "the period is not the largest canonical one within t/2")?;
        ensure(!self.cycles.is_empty(), "no refresh cycle completed")?;
        ensure(self.cycles.iter().all(|c| *c < self.target), "a cycle has p + w + d >= t")?;
        ensure(self.max_peak <= self.target, "the lag exceeded the target")
    }
}

/// Fig. 4: a grouped aggregate with a 5-minute target lag, one insert
/// every 30 simulated seconds so every refresh has data.
pub fn lag_sawtooth() -> Sawtooth {
    let (engine, db) = fleet_engine(DbConfig::default(), 2);
    db.execute(
        "CREATE DYNAMIC TABLE sawtooth TARGET_LAG = '5 minutes' WAREHOUSE = wh \
         AS SELECT k, count(*) n, sum(v) s FROM events GROUP BY k",
    )
    .expect("the sawtooth DT binds");
    for i in 1..=60i64 {
        engine.run_scheduler_until(Timestamp::from_secs(30 * i)).expect("scheduler runs");
        db.execute(&format!("INSERT INTO events VALUES ({}, {i}, 'w')", i % 8)).expect("insert");
    }
    let (samples, period) = engine.inspect(|s| {
        let id = s.catalog().resolve("sawtooth").expect("just created").id;
        let st = s.scheduler().state(id).expect("initialized at creation");
        (st.lag_samples.clone(), s.dt_graph().period_of(id).expect("has a target lag"))
    });
    let troughs = samples.iter().filter(|s| !s.peak).skip(1);
    let peaks = samples.iter().filter(|s| s.peak);
    Sawtooth {
        target: Duration::from_mins(5),
        period,
        cycles: troughs.map(|s| period + s.lag).collect(),
        max_peak: peaks.map(|s| s.lag).max().unwrap_or(Duration::ZERO),
    }
}

// --- Fig. 5 and Fig. 6 (§6.3): censuses over one 600-DT fleet ----------------

fn census_fleet() -> (Engine, Vec<String>) {
    let (engine, db) = fleet_engine(DbConfig::default(), 8);
    let names = build_fleet(&db, &mut StdRng::seed_from_u64(FLEET_SEED), 600)
        .expect("every sampled definition binds");
    (engine, names)
}

/// Target lags of the live catalog: the histogram, as a count per
/// [`crate::LAG_BUCKETS`] label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LagCensus(pub BTreeMap<&'static str, usize>);

impl LagCensus {
    fn count(&self, labels: &[&str]) -> usize {
        labels.iter().filter_map(|l| self.0.get(l)).sum()
    }

    /// DTs with a duration target lag.
    pub fn total(&self) -> usize {
        self.0.values().sum()
    }

    /// Target lag under 5 minutes (streaming).
    pub fn under_5m(&self) -> usize {
        self.count(&["<1m", "1m-5m"])
    }

    /// Target lag of 16 hours or more (batch).
    pub fn over_16h(&self) -> usize {
        self.count(&[">=16h"])
    }

    /// DTs between the two ends.
    pub fn between(&self) -> usize {
        self.total() - self.under_5m() - self.over_16h()
    }

    /// §6.3, Fig. 5: more than 25 % of active DTs have a target lag of
    /// 16 hours or more, about 20 % under 5 minutes, and the majority
    /// (~55 %) sits in between — the middle of the latency spectrum is
    /// where most of the use is. Bands: 15–25 % / > 25 % / > 50 %.
    pub fn check(&self) -> Result<(), String> {
        let of_total = |n| share(n, self.total());
        ensure(
            (0.15..=0.25).contains(&of_total(self.under_5m()))
                && of_total(self.over_16h()) > 0.25
                && of_total(self.between()) > 0.5,
            "the target lags do not have Fig. 5's shape",
        )
    }
}

/// Fig. 5: a census of target lags over the live catalog (the
/// measurement, not the generator).
pub fn target_lag_census() -> LagCensus {
    let (engine, _) = census_fleet();
    let mut buckets = BTreeMap::new();
    engine.inspect(|s| {
        for id in s.catalog().dynamic_tables() {
            let meta = s.catalog().get(id).expect("listed").as_dt().expect("a DT");
            if let TargetLag::Duration(lag) = meta.target_lag {
                *buckets.entry(lag_bucket(lag)).or_insert(0) += 1;
            }
        }
    });
    LagCensus(buckets)
}

/// How many incremental DT definitions contain each operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorCensus {
    /// DTs in incremental refresh mode.
    pub incremental_dts: usize,
    /// Definitions containing the operator at least once.
    pub containing: BTreeMap<OperatorKind, usize>,
}

impl OperatorCensus {
    /// Definitions containing `kind`.
    pub fn count(&self, kind: OperatorKind) -> usize {
        self.containing.get(&kind).copied().unwrap_or(0)
    }

    /// §6.3, Fig. 6: in the definitions of incremental DTs projections
    /// and filters are the most frequent operators, joins and aggregates
    /// are common, and window functions, outer joins, DISTINCT and UNION
    /// ALL are all in use though rarer. Bands: every definition projects;
    /// filter, aggregate and inner join each in ≥ 25 %; each rarer operator
    /// in > 0 and in fewer than any common one.
    pub fn check(&self) -> Result<(), String> {
        use OperatorKind::*;
        let least_common = [Filter, Aggregate, InnerJoin].map(|k| self.count(k)).into_iter().min();
        let least_common = least_common.unwrap_or(0);
        ensure(self.count(Project) == self.incremental_dts, "not every definition projects")?;
        ensure(
            share(least_common, self.incremental_dts) >= 0.25,
            "filter, aggregate or inner join is not common",
        )?;
        ensure(
            [Window, OuterJoin, Distinct, UnionAll].iter().all(|k| (1..least_common).contains(&self.count(*k))),
            "a rarer operator is absent, or not rarer",
        )
    }
}

/// Fig. 6: a census over the bound plans of every incremental DT.
pub fn operator_frequency() -> OperatorCensus {
    let (engine, names) = census_fleet();
    let mut census = OperatorCensus { incremental_dts: 0, containing: BTreeMap::new() };
    for name in names.iter().filter(|n| refresh_mode(&engine, n) == RefreshMode::Incremental) {
        census.incremental_dts += 1;
        for kind in operator_census(&engine.dt_plan(name).expect("a live DT")).into_keys() {
            *census.containing.entry(kind).or_insert(0) += 1;
        }
    }
    census
}

// --- §6.3 adoption statistics -----------------------------------------------

/// A 120-DT fleet simulated for 8 hours, read back from the catalog, the
/// refresh log and the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct AdoptionStats {
    /// DTs in the fleet.
    pub fleet: usize,
    /// Of them, in incremental refresh mode.
    pub incremental_dts: usize,
    /// Refreshes after initialization.
    pub refreshes: usize,
    /// Of them, NO_DATA.
    pub no_data: usize,
    /// Incremental refreshes that changed at least one row of a non-empty
    /// DT (§6.3's filter).
    pub incremental_with_change: usize,
    /// Of those, changed under 1 % of the DT.
    pub changed_under_1pct: usize,
    /// Of those, changed over 10 % of the DT.
    pub changed_over_10pct: usize,
    /// Grid points skipped, fleet-wide.
    pub skips: u64,
    /// Warehouse credits (node-seconds).
    pub credits: f64,
}

impl AdoptionStats {
    /// §6.3: almost 70 % of active DTs refresh incrementally; over 90 % of
    /// refreshes find no new data (NO_DATA); of the incremental refreshes
    /// that change anything, 67 % change under 1 % of their DT and 21 %
    /// change over 10 % — "highlighting the need to dynamically choose
    /// full refreshes when a large fraction of the data has changed".
    ///
    /// The generator is not tuned to the paper's fleet, so the shape is
    /// what is asserted: incremental mode 60–80 % (measured 77.5 % against
    /// ~70 %), NO_DATA > 90 %, the small-change bucket a majority and
    /// larger than the large-change one, which is 10–30 % (measured 59.2 %
    /// against 67 %, 18.5 % against 21 %). A fleet whose lags sit above
    /// its data's cadence skips nothing and still pays for its refreshes.
    pub fn check(&self) -> Result<(), String> {
        let small = share(self.changed_under_1pct, self.incremental_with_change);
        let large = share(self.changed_over_10pct, self.incremental_with_change);
        ensure(
            (0.6..=0.8).contains(&share(self.incremental_dts, self.fleet)),
            "incremental refresh mode is outside 60–80 % of the fleet",
        )?;
        ensure(share(self.no_data, self.refreshes) > 0.9, "NO_DATA is not over 90 % of refreshes")?;
        ensure(
            small > 0.5 && small > large && (0.1..=0.3).contains(&large),
            "the change-ratio buckets lost §6.3's shape",
        )?;
        ensure(self.skips == 0 && self.credits > 0.0, "an unloaded fleet skipped, or refreshed for free")
    }
}

/// §6.3: most lags sit far above the base tables' update cadence (a burst
/// every 40 minutes, every fifth one a broad change), which is what makes
/// NO_DATA dominate in production too.
pub fn adoption_stats() -> AdoptionStats {
    let mut rng = StdRng::seed_from_u64(ADOPTION_SEED);
    let (engine, db) = fleet_engine(DbConfig::default(), 8);
    let names = build_fleet(&db, &mut rng, 120).expect("every sampled definition binds");
    for round in 1..=12i64 {
        engine.run_scheduler_until(Timestamp::from_secs(40 * 60 * round)).expect("scheduler runs");
        if round % 5 == 0 {
            apply_bulk_change(&db, &mut rng).expect("bulk change");
        } else {
            apply_traffic(&db, &mut rng, 4).expect("traffic");
        }
    }
    let log = engine.refresh_log().entries();
    let log: Vec<_> = log.iter().filter(|e| !e.initial).collect();
    let changing: Vec<_> = log
        .iter()
        .filter(|e| e.action == "incremental" && e.changed_rows > 0 && e.dt_rows > 0)
        .collect();
    let ratio = |e: &dt_core::RefreshLogEntry| share(e.changed_rows, e.dt_rows);
    AdoptionStats {
        fleet: names.len(),
        incremental_dts: names.iter().filter(|n| refresh_mode(&engine, n) == RefreshMode::Incremental).count(),
        refreshes: log.len(),
        no_data: log.iter().filter(|e| e.action == "no_data").count(),
        incremental_with_change: changing.len(),
        changed_under_1pct: changing.iter().filter(|e| ratio(e) < 0.01).count(),
        changed_over_10pct: changing.iter().filter(|e| ratio(e) > 0.10).count(),
        skips: engine.inspect(|s| {
            let dts = s.catalog().dynamic_tables();
            dts.iter().filter_map(|id| s.scheduler().state(*id)).map(|st| st.skipped_total).sum()
        }),
        credits: engine.inspect(|s| s.warehouses().total_credits()),
    }
}

// --- §3.3.3 skips -------------------------------------------------------------

/// One warehouse size under a refresh that costs 60 node-seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SkipRun {
    /// Warehouse nodes.
    pub nodes: u32,
    /// Refreshes the scheduler ran.
    pub refreshes: u64,
    /// Grid points it skipped.
    pub skips: u64,
    /// Warehouse credits (node-seconds).
    pub credits: f64,
    /// Refreshes computed (those above, any still running when the window
    /// closed, and the closing manual one), each of which passed the
    /// in-engine DVS validation: a violation fails the run.
    pub dvs_validated: usize,
}

/// The same 20 minutes of traffic on 1, 2, 4 and 8 nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct SkipBehavior {
    /// Grid points in the window (its length over the 48 s period).
    pub grid_points: u64,
    /// One run per warehouse size, smallest first.
    pub runs: Vec<SkipRun>,
}

impl SkipBehavior {
    /// §3.3.3: when a refresh is still running as the next one falls due,
    /// the scheduler skips that grid point rather than queueing a round;
    /// the following refresh covers the skipped interval, so a DT that
    /// falls behind gracefully raises its rate of progress, DVS is never
    /// compromised, and the fixed cost of each skipped refresh is saved.
    pub fn check(&self) -> Result<(), String> {
        ensure(
            self.runs.iter().all(|r| r.refreshes + r.skips <= self.grid_points),
            "more refreshes + skips than grid points: a round was queued",
        )?;
        ensure(
            self.runs.iter().all(|r| r.dvs_validated as u64 > r.refreshes),
            "not every refresh was DVS-validated",
        )?;
        ensure(
            self.runs.first().is_some_and(|r| r.skips > 0) && self.runs.last().is_some_and(|r| r.skips == 0),
            "the under-provisioned warehouse never skipped, or the one that keeps up did",
        )?;
        ensure(
            self.runs.windows(2).all(|w| {
                w[0].skips >= w[1].skips && w[0].refreshes <= w[1].refreshes && w[0].credits < w[1].credits
            }),
            "fewer nodes did not mean more skips, fewer refreshes and fewer credits",
        )
    }
}

/// §3.3.3: a 1-minute target lag (48 s period) over refreshes that take
/// 60 s of one node, with the in-engine DVS validation on throughout.
pub fn skip_behavior() -> SkipBehavior {
    const WINDOW_SECS: i64 = 1200;
    let run = |nodes: u32| {
        let config = DbConfig { validate_dvs: true, ..DbConfig::default() };
        let cost_model = CostModel { fixed_units: 60_000.0, unit_per_row: 1.0 };
        let simulation = Simulation { cost_model, ..Simulation::default() };
        let (engine, db) = engine_on(config, simulation, nodes);
        db.execute("CREATE TABLE t (k INT, v INT)").expect("create");
        db.execute("INSERT INTO t VALUES (1, 1)").expect("insert");
        db.execute(
            "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh \
             AS SELECT k, sum(v) s FROM t GROUP BY k",
        )
        .expect("the DT binds");
        for i in 1..=WINDOW_SECS / 24 {
            engine.run_scheduler_until(Timestamp::from_secs(24 * i)).expect("no refresh violates DVS");
            db.execute(&format!("INSERT INTO t VALUES ({}, {i})", i % 4)).expect("insert");
        }
        let (refreshes, skips) = engine.inspect(|s| {
            let id = s.catalog().resolve("d").expect("just created").id;
            let st = s.scheduler().state(id).expect("initialized at creation");
            (st.action_counts.values().sum::<u64>(), st.skipped_total)
        });
        // The DT still reconciles exactly after the last skip.
        db.execute("ALTER DYNAMIC TABLE d REFRESH").expect("the catch-up refresh upholds DVS");
        SkipRun {
            nodes,
            refreshes,
            skips,
            credits: engine.inspect(|s| s.warehouses().total_credits()),
            dvs_validated: engine.refresh_log().entries().iter().filter(|e| !e.initial).count(),
        }
    };
    SkipBehavior { grid_points: (WINDOW_SECS / 48) as u64, runs: [1, 2, 4, 8].map(run).to_vec() }
}

// --- §6.1 randomized DVS validation ---------------------------------------------

/// Random DTs under random DML, every refresh validated in-engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DvsValidation {
    /// Random DTs created.
    pub dts: usize,
    /// Refreshes run, each one checked.
    pub refreshes: usize,
    /// Refreshes whose DT did not equal its defining query at its data
    /// timestamp (or that failed at all).
    pub discrepancies: usize,
    /// The first such failure: definition and error.
    pub first_failure: Option<String>,
}

impl DvsValidation {
    /// §6.1: "if you run the defining query as of the data timestamp, you
    /// should get the same result as in the DT. Checking this assertion
    /// within a framework that generates random SQL queries allows us to
    /// test the correctness of hundreds of thousands of different DTs in
    /// a matter of hours." Here: 200 random DTs, 800 refreshes, none may
    /// differ.
    pub fn check(&self) -> Result<(), String> {
        ensure(self.dts == 200 && self.refreshes == 800, "the run is short of 200 DTs x 4 refreshes")?;
        ensure(self.discrepancies == 0, "a DT differs from its defining query at its data timestamp")
    }
}

/// §6.1: ten fresh engines of 20 random DTs each (small catalogs, the
/// initialization path exercised repeatedly), four rounds of random DML
/// and a refresh of every DT per round.
pub fn dvs_validation() -> DvsValidation {
    let mut rng = StdRng::seed_from_u64(DVS_SEED);
    let mut out = DvsValidation { dts: 0, refreshes: 0, discrepancies: 0, first_failure: None };
    for _ in 0..10 {
        let (_engine, db) = fleet_engine(DbConfig { validate_dvs: true, ..DbConfig::default() }, 4);
        let mut checked = |sql: String, definition: &str| {
            if let Err(e) = db.execute(&sql) {
                out.discrepancies += 1;
                out.first_failure.get_or_insert_with(|| format!("{definition}: {e}"));
            }
        };
        let definitions: Vec<String> = (0..20).map(|_| sample_query(&mut rng)).collect();
        for (i, q) in definitions.iter().enumerate() {
            checked(format!("CREATE DYNAMIC TABLE v_{i} TARGET_LAG = '1 minute' WAREHOUSE = wh AS {q}"), q);
        }
        for _ in 0..4 {
            apply_traffic(&db, &mut rng, 10).expect("traffic");
            for (i, q) in definitions.iter().enumerate() {
                checked(format!("ALTER DYNAMIC TABLE v_{i} REFRESH"), q);
            }
        }
        out.dts += definitions.len();
        out.refreshes += 4 * definitions.len();
    }
    out
}

// --- §3.3.2 / §6.3 incremental vs full crossover, by count ------------------------

/// What one refresh cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshCost {
    /// `RefreshLogEntry::source_rows`: rows the refresh read.
    pub source_rows: usize,
    /// Warehouse credits (node-seconds) the cost model charged.
    pub credits: f64,
    /// Wall time, median of 5. Reported only.
    pub micros: u128,
}

/// One changed fraction, refreshed once incrementally and once in full.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverPoint {
    /// Rows inserted into the source before the refresh.
    pub changed_rows: usize,
    /// `REFRESH_MODE = INCREMENTAL`.
    pub incremental: RefreshCost,
    /// `REFRESH_MODE = FULL`.
    pub full: RefreshCost,
}

/// A 200-group aggregate over a 4 000-row source, swept over the changed
/// fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossover {
    /// Source rows before the change.
    pub base_rows: usize,
    /// One point per fraction, smallest first.
    pub points: Vec<CrossoverPoint>,
}

impl Crossover {
    /// §3.3.2: an incremental refresh costs a fixed part plus a variable
    /// part linear in the changed data, a full refresh reads its whole
    /// input whatever changed; §6.3: 21 % of refreshes change over 10 % of
    /// their DT, "highlighting the need to dynamically choose full
    /// refreshes when a large fraction of the data has changed".
    ///
    /// Asserted by count: the incremental refresh reads exactly the
    /// change, the full one the whole input at every fraction, and the
    /// cost model's credits follow (incremental rises with the fraction
    /// and stays below full). Wall time is not asserted. Since the aggregate
    /// rule maintains groups from the DT's stored rows and the delta
    /// (PR 23) it reproduces the claim's shape at the small end: at 4 000
    /// rows an incremental refresh takes ≈ 80–170 µs at 0.1 % changed and
    /// ≈ 120–160 µs at 0.5 % against ≈ 185–240 µs full, and is level with
    /// it at 1 % (≈ 185–225 µs either way). From 5 % — 200 changed rows,
    /// one in each of the 200 groups — it is 2–3x dearer (≈ 530–870 µs
    /// against ≈ 230–300 µs) and stays 1.4–1.8x dearer up to 100 %: every
    /// group changes, so the incremental side locates, deletes and
    /// re-inserts all 200 DT rows through the merge where a full refresh
    /// overwrites them (not profiled further). (While the rule read the
    /// source at both ends, PR 21–22: ≈ 190–250 µs against ≈ 230–300 µs at
    /// 0.1 %, level at 0.5 %, 2.3–3x dearer from 5 %.) The crossover sits near
    /// 1 % of the source, far below the 10 % the remark suggests, because
    /// this DT is 5 % of its source: what matters is the share of *groups*
    /// a change touches (ROADMAP item 8(c)).
    pub fn check(&self) -> Result<(), String> {
        let points = &self.points;
        ensure(
            points.iter().all(|p| p.incremental.source_rows == p.changed_rows),
            "an incremental refresh did not read exactly the change",
        )?;
        ensure(
            points.iter().all(|p| p.full.source_rows == self.base_rows + p.changed_rows),
            "a full refresh did not read its whole input",
        )?;
        ensure(
            points.iter().all(|p| p.incremental.credits < p.full.credits),
            "the cost model charges an incremental refresh more than a full one",
        )?;
        ensure(
            points.windows(2).all(|w| w[0].incremental.credits < w[1].incremental.credits),
            "incremental credits do not grow with the changed fraction",
        )
    }
}

/// §3.3.2: sweep the changed fraction from 0.1 % to 100 %.
pub fn crossover() -> Crossover {
    const BASE_ROWS: usize = 4000;
    /// One refresh after `changed` fresh rows, on a fresh engine.
    fn refresh(mode: &str, changed: usize) -> RefreshCost {
        let insert = |db: &Session, rows: usize, v0: usize| {
            let values: Vec<String> = (0..rows).map(|i| format!("({}, {})", i % 200, v0 + i)).collect();
            db.execute(&format!("INSERT INTO src VALUES {}", values.join(", "))).expect("insert");
        };
        let (engine, db) = engine(DbConfig::default(), 4);
        db.execute("CREATE TABLE src (k INT, v INT)").expect("create");
        insert(&db, BASE_ROWS, 0);
        db.execute(&format!(
            "CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' WAREHOUSE = wh \
             REFRESH_MODE = {mode} AS SELECT k, count(*) c, sum(v) s FROM src GROUP BY k"
        ))
        .expect("the DT binds");
        insert(&db, changed, 100_000);
        let credits = || engine.inspect(|s| s.warehouses().total_credits());
        let before = credits();
        let started = std::time::Instant::now();
        db.execute("ALTER DYNAMIC TABLE agg REFRESH").expect("refresh");
        let micros = started.elapsed().as_micros();
        let source_rows = engine.refresh_log().last().expect("the refresh is logged").source_rows;
        RefreshCost { source_rows, credits: credits() - before, micros }
    }
    let median = |mode: &str, changed: usize| {
        let mut runs: Vec<_> = (0..5).map(|_| refresh(mode, changed)).collect();
        runs.sort_by_key(|r| r.micros);
        runs[2]
    };
    let point = |fraction: &f64| {
        let changed_rows = (BASE_ROWS as f64 * fraction) as usize;
        CrossoverPoint {
            changed_rows,
            incremental: median("INCREMENTAL", changed_rows),
            full: median("FULL", changed_rows),
        }
    };
    let points = [0.001, 0.005, 0.01, 0.05, 0.10, 0.25, 0.50, 1.00].iter().map(point).collect();
    Crossover { base_rows: BASE_ROWS, points }
}

// --- §5.5 ablations, by count -----------------------------------------------------

/// A [`MapProvider`] that counts how often a table is read.
struct CountingProvider {
    tables: MapProvider,
    scans: Cell<usize>,
}

impl TableProvider for CountingProvider {
    fn scan(&self, entity: EntityId) -> DtResult<Vec<Row>> {
        self.scans.set(self.scans.get() + 1);
        self.tables.scan(entity)
    }
}

const ABLATION_ROWS: i64 = 5000;

fn scan(id: u64) -> LogicalPlan {
    let columns = vec![Column::new("k", DataType::Int), Column::new("v", DataType::Int)];
    LogicalPlan::TableScan {
        entity: EntityId(id),
        name: format!("t{id}"),
        schema: Arc::new(Schema::new(columns)),
        pushdown: None,
    }
}

/// `t1 ⋈ t2` on `k`.
fn join(join_type: JoinType) -> LogicalPlan {
    LogicalPlan::Join {
        left: Box::new(scan(1)),
        right: Box::new(scan(2)),
        join_type,
        on: ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::col(2)),
        schema: Arc::new(scan(1).schema().join(&scan(2).schema())),
    }
}

/// Unique join keys `first..first + n`, a hundred values of `v`.
fn keyed_rows(first: i64, n: i64) -> Vec<Row> {
    (first..first + n).map(|k| row!(k, k % 100)).collect()
}

/// Two tables of [`ABLATION_ROWS`] matching keys at both ends of an
/// interval: `t1` changes by `d1`, `t2` by `d2`.
struct Interval {
    old: CountingProvider,
    new: CountingProvider,
    changes: MapChanges,
}

impl Interval {
    fn new(d1: ChangeSet, d2: ChangeSet) -> Interval {
        let base = keyed_rows(0, ABLATION_ROWS);
        let apply = |d: &ChangeSet| -> Vec<Row> {
            let kept = base.iter().filter(|r| !d.deletes().contains(r));
            kept.chain(d.inserts()).cloned().collect()
        };
        let provider = |t1: Vec<Row>, t2: Vec<Row>| {
            let mut tables = MapProvider::new();
            tables.insert(EntityId(1), t1);
            tables.insert(EntityId(2), t2);
            CountingProvider { tables, scans: Cell::new(0) }
        };
        let (old, new) = (provider(base.clone(), base.clone()), provider(apply(&d1), apply(&d2)));
        let mut changes = MapChanges::new();
        changes.insert(EntityId(1), d1);
        changes.insert(EntityId(2), d2);
        Interval { old, new, changes }
    }

    /// A fresh differentiation pass: the read counters start at zero.
    fn context(&self, outer_join: OuterJoinStrategy) -> DeltaContext<'_> {
        self.old.scans.set(0);
        self.new.scans.set(0);
        DeltaContext { old: &self.old, new: &self.new, changes: &self.changes, outer_join }
    }

    fn scans(&self) -> usize {
        self.old.scans.get() + self.new.scans.get()
    }
}

/// Same multiset of inserts and of deletes.
fn same_change(a: &ChangeSet, b: &ChangeSet) -> bool {
    let sorted = |rows: &[Row]| {
        let mut rows = rows.to_vec();
        rows.sort();
        rows
    };
    sorted(a.inserts()) == sorted(b.inserts()) && sorted(a.deletes()) == sorted(b.deletes())
}

/// Both outer-join derivatives over one interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OuterJoinAblation {
    /// Table reads of the direct derivative.
    pub direct_scans: usize,
    /// Table reads of the inner ∪ anti-join rewrite.
    pub naive_scans: usize,
    /// Rows in the consolidated delta (inserts + deletes) of each.
    pub delta_rows: (usize, usize),
    /// The two consolidated deltas are the same multiset.
    pub identical: bool,
}

impl OuterJoinAblation {
    /// §5.5.1: differentiating an outer join through its rewrite as an
    /// inner join plus padded anti-joins repeats the `Q` and `R` sub-plans
    /// in every term, so they are evaluated over and over; the direct
    /// derivative factors the common terms out. Both give the same
    /// change. Asserted for a FULL OUTER join with changes on both sides:
    /// the rewrite reads its inputs at least twice as often (a LEFT join
    /// has one anti-join term fewer: 6 reads against 4).
    pub fn check(&self) -> Result<(), String> {
        ensure(self.identical && self.delta_rows.0 > 0, "the two derivatives disagree, or nothing changed")?;
        ensure(
            self.direct_scans > 0 && self.naive_scans >= 2 * self.direct_scans,
            "the rewrite does not repeat its sub-plans",
        )
    }
}

/// §5.5.1: `t1 FULL OUTER JOIN t2` where `t1` gains 50 fresh keys and `t2`
/// loses 50 old keys and gains partners for 25 of the fresh ones.
pub fn outer_join_ablation() -> OuterJoinAblation {
    let interval = Interval::new(
        ChangeSet::new(keyed_rows(ABLATION_ROWS, 50), vec![]),
        ChangeSet::new(keyed_rows(ABLATION_ROWS, 25), keyed_rows(100, 50)),
    );
    let plan = join(JoinType::Full);
    let run = |strategy| {
        let d = delta(&plan, &interval.context(strategy)).expect("outer joins differentiate");
        (interval.scans(), d)
    };
    let (direct_scans, direct) = run(OuterJoinStrategy::Direct);
    let (naive_scans, naive) = run(OuterJoinStrategy::NaiveRewrite);
    OuterJoinAblation {
        direct_scans,
        naive_scans,
        delta_rows: (direct.len(), naive.len()),
        identical: same_change(&direct, &naive),
    }
}

/// The insert-only path beside the general one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOnlyAblation {
    /// `is_insert_only_safe` accepts the plan.
    pub plan_is_safe: bool,
    /// Inserts and deletes in the unconsolidated delta.
    pub unconsolidated: (usize, usize),
    /// It equals the consolidated delta as a multiset.
    pub identical: bool,
}

impl InsertOnlyAblation {
    /// §5.5.2: when every source change is an insert and the plan is a
    /// composition of scans, filters, projections, UNION ALL and inner
    /// joins, the differentiated output holds only inserts and no
    /// cancelling pair, so change consolidation can be skipped without
    /// changing the result.
    pub fn check(&self) -> Result<(), String> {
        ensure(self.plan_is_safe, "the filter-over-inner-join plan is not insert-only safe")?;
        ensure(
            self.unconsolidated.0 > 0 && self.unconsolidated.1 == 0,
            "the insert-only delta is empty, or carries deletes",
        )?;
        ensure(self.identical, "skipping consolidation changed the delta")
    }
}

/// §5.5.2: a filter over `t1 JOIN t2`, both sides gaining the same 50
/// fresh keys.
pub fn insert_only_ablation() -> InsertOnlyAblation {
    let fresh = || ChangeSet::new(keyed_rows(ABLATION_ROWS, 50), vec![]);
    let interval = Interval::new(fresh(), fresh());
    let plan = LogicalPlan::Filter {
        input: Box::new(join(JoinType::Inner)),
        predicate: ScalarExpr::Binary {
            left: Box::new(ScalarExpr::col(1)),
            op: dt_plan::BinOp::GtEq,
            right: Box::new(ScalarExpr::lit(10i64)),
        },
    };
    let ctx = interval.context(OuterJoinStrategy::Direct);
    let skipped = delta_unconsolidated(&plan, &ctx).expect("inner joins differentiate");
    let consolidated = delta(&plan, &ctx).expect("inner joins differentiate");
    InsertOnlyAblation {
        plan_is_safe: dt_ivm::merge::is_insert_only_safe(&plan),
        unconsolidated: (skipped.inserts().len(), skipped.deletes().len()),
        identical: same_change(&skipped, &consolidated),
    }
}

// --- All of them, for the bin -----------------------------------------------------

/// One claim as the `reproduce` bin reports it.
#[derive(Debug, Clone)]
pub struct Report {
    /// The claim's function; the `tests/reproduction.rs` case has the same
    /// name.
    pub claim: &'static str,
    /// Where the paper makes it.
    pub section: &'static str,
    /// What the paper says, in a few words.
    pub paper: &'static str,
    /// What this run measured: the result, `Debug`-printed.
    pub measured: String,
    /// The result of the claim's `check`.
    pub verdict: Result<(), String>,
}

/// Run every claim at full size, in the paper's order of sections.
pub fn run_all() -> Vec<Report> {
    macro_rules! report {
        ($claim:ident, $section:literal, $paper:literal) => {{
            let result = $claim();
            Report {
                claim: stringify!($claim),
                section: $section,
                paper: $paper,
                measured: format!("{result:?}"),
                verdict: result.check(),
            }
        }};
    }
    vec![
        report!(crossover, "§3.3.2", "incremental cost is linear in the change, full reads everything"),
        report!(skip_behavior, "§3.3.3", "overload skips grid points, never queues; DVS holds"),
        report!(isolation_figures, "§4 Fig. 1/2", "Fig. 1 serializable; Fig. 2 a G-single cycle"),
        report!(lag_sawtooth, "§5.2 Fig. 4", "p + w + d < t in every cycle"),
        report!(outer_join_ablation, "§5.5.1", "the rewrite repeats its sub-plans; same change"),
        report!(insert_only_ablation, "§5.5.2", "insert-only deltas need no consolidation"),
        report!(dvs_validation, "§6.1", "every refresh equals the query at its data timestamp"),
        report!(target_lag_census, "§6.3 Fig. 5", "~20 % < 5 min, > 25 % >= 16 h, ~55 % between"),
        report!(operator_frequency, "§6.3 Fig. 6", "project/filter everywhere; join, aggregate common"),
        report!(adoption_stats, "§6.3", "~70 % incremental; > 90 % NO_DATA; 67 % < 1 %, 21 % > 10 %"),
    ]
}
