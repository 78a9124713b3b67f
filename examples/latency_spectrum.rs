//! "Ease across the latency spectrum": one pipeline, four target lags from
//! streaming (1 minute) to batch (16 hours), all the same SQL. Simulates a
//! day of traffic and reports the lag and cost each DT achieved.
//!
//! Run with: `cargo run --example latency_spectrum`

use dt_common::{Duration, Timestamp};
use dt_core::{DbConfig, Engine, Simulation};

fn main() {
    let engine = Engine::simulated(DbConfig::default(), Simulation::default()).unwrap();
    engine.create_warehouse("wh", 4).unwrap();
    let db = engine.session();
    db.execute("CREATE TABLE metrics (host INT, value INT)").unwrap();
    db.execute("INSERT INTO metrics VALUES (1, 10), (2, 20)").unwrap();

    // The same aggregation at four points of the latency spectrum.
    let lags = ["1 minute", "15 minutes", "2 hours", "16 hours"];
    for (i, lag) in lags.iter().enumerate() {
        db.execute(&format!(
            "CREATE DYNAMIC TABLE agg_{i} TARGET_LAG = '{lag}' WAREHOUSE = wh \
             AS SELECT host, count(*) n, sum(value) total FROM metrics GROUP BY host"
        ))
        .unwrap();
    }

    // A day of simulated traffic: one insert every 10 minutes.
    let day = Timestamp::from_secs(86_400);
    let mut t = Timestamp::EPOCH;
    let mut host = 0i64;
    while t < day {
        t = t.add(Duration::from_mins(10));
        engine.run_scheduler_until(t).unwrap();
        host = (host + 1) % 8;
        db.execute(&format!("INSERT INTO metrics VALUES ({host}, 1)")).unwrap();
    }
    engine.run_scheduler_until(day).unwrap();

    let total_refreshes = engine
        .refresh_log()
        .entries()
        .iter()
        .filter(|e| !e.initial)
        .count();
    println!("one day simulated; {total_refreshes} scheduled refreshes total");
    println!("{:>10} {:>10} {:>12} {:>12} {:>12}", "DT", "target", "refreshes", "no_data", "max peak lag");
    for (i, lag) in lags.iter().enumerate() {
        let st = engine.inspect(|s| {
            let id = s.catalog().resolve(&format!("agg_{i}")).unwrap().id;
            s.scheduler().state(id).unwrap().clone()
        });
        let total: u64 = st.action_counts.values().sum();
        let no_data = st.action_counts.get("no_data").copied().unwrap_or(0);
        let max_peak = st
            .lag_samples
            .iter()
            .filter(|s| s.peak)
            .map(|s| s.lag)
            .max()
            .unwrap_or(Duration::ZERO);
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>12}",
            format!("agg_{i}"),
            lag,
            total,
            no_data,
            max_peak.to_string()
        );
    }
    println!(
        "\nwarehouse credits: {:.1} node-seconds — tighter lags cost more; \
         the SQL never changed.",
        engine.inspect(|s| s.warehouses().total_credits())
    );
}
