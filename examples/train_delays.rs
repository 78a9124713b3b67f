//! The paper's Listing 1: a two-stage pipeline tracking late-arriving
//! trains, driven by the scheduler on simulated time.
//!
//! Run with: `cargo run --example train_delays`

use dt_common::{Duration, Timestamp};
use dt_core::{DbConfig, Engine, Simulation};

fn main() {
    let cfg = DbConfig { validate_dvs: true, ..DbConfig::default() };
    let engine = Engine::simulated(cfg, Simulation::default()).unwrap();
    engine.create_warehouse("trains_wh", 2).unwrap();
    let db = engine.session();

    db.execute("CREATE TABLE trains (id INT)").unwrap();
    db.execute(
        "CREATE TABLE train_events (train_id INT, type STRING, time TIMESTAMP, schedule_id INT)",
    )
    .unwrap();
    db.execute("CREATE TABLE schedule (id INT, expected_arrival_time TIMESTAMP)")
        .unwrap();
    db.execute("INSERT INTO trains VALUES (1), (2), (3)").unwrap();

    // Listing 1, verbatim modulo variant-path syntax (including the
    // WARHEOUSE typo, which our parser accepts for fidelity).
    db.execute(
        "CREATE DYNAMIC TABLE train_arrivals \
         TARGET_LAG = DOWNSTREAM \
         WARHEOUSE = trains_wh \
         AS SELECT t.id train_id, e.time arrival_time, e.schedule_id schedule_id \
            FROM train_events e JOIN trains t ON e.train_id = t.id \
            WHERE e.type = 'ARRIVAL'",
    )
    .unwrap();
    db.execute(
        "CREATE DYNAMIC TABLE delayed_trains \
         TARGET_LAG = '1 minute' \
         WAREHOUSE = trains_wh \
         AS SELECT train_id, \
                   date_trunc(hour, s.expected_arrival_time) hour, \
                   count_if(arrival_time - s.expected_arrival_time > INTERVAL '10 minutes') num_delays \
            FROM train_arrivals a JOIN schedule s ON a.schedule_id = s.id \
            GROUP BY ALL",
    )
    .unwrap();

    // Simulate a morning of arrivals: every 2 minutes a train arrives,
    // some of them late; the scheduler keeps delayed_trains within its
    // 1-minute target lag.
    let mut schedule_id = 0;
    for round in 0..30i64 {
        let expected = Timestamp::from_secs(3600 + round * 120);
        let late_by = if round % 3 == 0 { 720 } else { 30 }; // 12 min or 30 s
        let actual = expected.add(Duration::from_secs(late_by));
        schedule_id += 1;
        db.execute(&format!(
            "INSERT INTO schedule VALUES ({schedule_id}, {})",
            expected.as_micros()
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO train_events VALUES ({}, 'ARRIVAL', {}, {schedule_id})",
            round % 3 + 1,
            actual.as_micros()
        ))
        .unwrap();
        engine.run_scheduler_until(Timestamp::from_secs((round + 1) * 120)).unwrap();
    }

    db.execute("ALTER DYNAMIC TABLE delayed_trains REFRESH").unwrap();
    println!("delayed trains by hour:");
    for row in db
        .query_sorted("SELECT train_id, hour, num_delays FROM delayed_trains")
        .unwrap()
    {
        println!("  {row}");
    }

    // Telemetry: how the pipeline behaved.
    let st = engine.inspect(|s| {
        let id = s.catalog().resolve("delayed_trains").unwrap().id;
        s.scheduler().state(id).unwrap().clone()
    });
    println!("\nrefresh actions for delayed_trains: {:?}", st.action_counts);
    let max_peak = st
        .lag_samples
        .iter()
        .filter(|s| s.peak)
        .map(|s| s.lag)
        .max()
        .unwrap();
    println!("max observed lag peak: {max_peak} (target: 1m)");
    println!(
        "warehouse credits consumed: {:.1} node-seconds",
        engine.inspect(|s| s.warehouses().total_credits())
    );
}
