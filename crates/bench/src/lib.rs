//! The reproduction of the paper's evaluation: a synthetic workload and
//! the claims checked over it.
//!
//! The paper's §6.3 measurements come from Snowflake's production fleet,
//! which we cannot have. The substitution: a **synthetic fleet generator**
//! (this module) that creates a population of Dynamic Tables inside our
//! engine — with target lags drawn from a distribution shaped like the
//! paper reports, definitions drawn from weighted query templates, and
//! update traffic applied to base tables — and [`reproduce`], which
//! *measures* the live system the same way the paper measures production
//! (catalog census, refresh logs, scheduler telemetry) and holds each of
//! the paper's claims as a predicate over the measurement. Two consumers:
//! `tests/reproduction.rs` asserts every claim, the `reproduce` bin prints
//! them and writes `REPRODUCTION.json`. Performance numbers come from
//! `benchmark/`, never from here.

pub mod reproduce;

use dt_common::{DtResult, Duration};
use dt_core::Session;
use rand::rngs::StdRng;
use rand::Rng;

/// Target-lag buckets matching Figure 5's x-axis.
pub const LAG_BUCKETS: &[(&str, i64, i64)] = &[
    // (label, min seconds inclusive, max seconds exclusive)
    ("<1m", 0, 60),
    ("1m-5m", 60, 300),
    ("5m-30m", 300, 1800),
    ("30m-2h", 1800, 7200),
    ("2h-8h", 7200, 28800),
    ("8h-16h", 28800, 57600),
    (">=16h", 57600, i64::MAX),
];

/// Sample a target lag from the synthetic fleet distribution. The weights
/// are the stand-in for production (§6.3: ~20% under 5 minutes, >25% at or
/// above 16 hours, the rest in between — "the middle ground between
/// classic batch and streaming is underserved" and yet the majority).
pub fn sample_target_lag(rng: &mut StdRng) -> Duration {
    let r: f64 = rng.gen();
    let secs = if r < 0.08 {
        // sub-minute (the paper's minimum GA lag is 1 minute; lower values
        // "in early testing" — we sample at exactly 1 minute)
        60
    } else if r < 0.20 {
        rng.gen_range(60..300)
    } else if r < 0.45 {
        rng.gen_range(300..1800)
    } else if r < 0.62 {
        rng.gen_range(1800..7200)
    } else if r < 0.74 {
        rng.gen_range(7200..57600)
    } else {
        rng.gen_range(57600..172_800)
    };
    Duration::from_secs(secs)
}

/// Bucket a lag for the Figure 5 histogram.
pub fn lag_bucket(lag: Duration) -> &'static str {
    let s = lag.as_secs();
    for (label, lo, hi) in LAG_BUCKETS {
        if s >= *lo && s < *hi {
            return label;
        }
    }
    ">=16h"
}

/// The base schema every synthetic fleet runs over.
/// Number of distinct keys in the synthetic base tables. Large enough that
/// single-key updates change well under 1% of a keyed DT (the §6.3 ratio
/// measurement needs realistic DT sizes).
pub const BASE_KEYS: i64 = 400;

/// Seed rows per key: keyed DTs start at BASE_KEYS×ROWS_PER_KEY rows, so a
/// single-key update changes ≈ (2·rows_per_key)/(total) ≪ 1% of the DT.
pub const ROWS_PER_KEY: i64 = 5;

pub fn create_base_tables(db: &Session) -> DtResult<()> {
    db.execute("CREATE TABLE events (k INT, v INT, kind STRING)")?;
    db.execute("CREATE TABLE dims (k INT, region STRING)")?;
    db.execute("CREATE TABLE facts (k INT, amount INT)")?;
    // Seed data: batched inserts, BASE_KEYS distinct keys.
    let mut events = Vec::new();
    let mut dims = Vec::new();
    let mut facts = Vec::new();
    for k in 0..BASE_KEYS {
        dims.push(format!("({k}, '{}')", if k % 2 == 0 { "emea" } else { "amer" }));
        for j in 0..ROWS_PER_KEY {
            events.push(format!("({k}, {}, 'x')", (k * 10 + j * 13) % 97));
        }
        facts.push(format!("({k}, {})", k * 7 % 89));
    }
    db.execute(&format!("INSERT INTO dims VALUES {}", dims.join(", ")))?;
    db.execute(&format!("INSERT INTO events VALUES {}", events.join(", ")))?;
    db.execute(&format!("INSERT INTO facts VALUES {}", facts.join(", ")))?;
    Ok(())
}

/// Generate a random DT defining query. Template weights are tuned so the
/// resulting operator census has the *shape* of Figure 6: projections and
/// filters ubiquitous; joins and aggregates common; window functions,
/// outer joins, distinct, and union-all present but rarer.
pub fn sample_query(rng: &mut StdRng) -> String {
    let r: f64 = rng.gen();
    if r < 0.16 {
        // filter + project
        format!("SELECT k, v + {} d FROM events WHERE v > {}", rng.gen_range(1..5), rng.gen_range(0..50))
    } else if r < 0.30 {
        // inner join + aggregate (the workhorse)
        "SELECT e.k, count(*) n, sum(e.v) tv \
         FROM events e JOIN dims d ON e.k = d.k GROUP BY e.k"
            .to_string()
    } else if r < 0.44 {
        // plain grouped aggregate
        format!(
            "SELECT k, count(*) c, sum(v) s, max(v) mx FROM events WHERE v >= {} GROUP BY k",
            rng.gen_range(0..30)
        )
    } else if r < 0.52 {
        // two-way join, no aggregate
        "SELECT e.k, e.v, f.amount FROM events e JOIN facts f ON e.k = f.k".to_string()
    } else if r < 0.58 {
        // outer join
        "SELECT e.k, e.v, d.region FROM events e LEFT JOIN dims d ON e.k = d.k".to_string()
    } else if r < 0.64 {
        // window function
        "SELECT k, v, sum(v) OVER (PARTITION BY k ORDER BY v) run FROM events".to_string()
    } else if r < 0.68 {
        // distinct
        "SELECT DISTINCT kind, k FROM events".to_string()
    } else if r < 0.72 {
        // union all
        "SELECT k FROM events UNION ALL SELECT k FROM facts".to_string()
    } else {
        // non-differentiable → FULL refresh mode (the ~30% of the fleet,
        // matching the paper's "almost 70% incremental")
        format!("SELECT k, v FROM events ORDER BY v DESC LIMIT {}", rng.gen_range(2..10))
    }
}

/// Build a synthetic fleet of `n` DTs. Returns their names.
pub fn build_fleet(db: &Session, rng: &mut StdRng, n: usize) -> DtResult<Vec<String>> {
    let mut names = Vec::with_capacity(n);
    for i in 0..n {
        let lag = sample_target_lag(rng);
        let query = sample_query(rng);
        let name = format!("fleet_dt_{i}");
        db.execute(&format!(
            "CREATE DYNAMIC TABLE {name} TARGET_LAG = '{} seconds' WAREHOUSE = wh AS {query}",
            lag.as_secs()
        ))?;
        names.push(name);
    }
    Ok(names)
}

/// Apply one round of random update traffic to the base tables.
pub fn apply_traffic(db: &Session, rng: &mut StdRng, intensity: usize) -> DtResult<()> {
    for _ in 0..intensity {
        let k = rng.gen_range(0..BASE_KEYS);
        match rng.gen_range(0..10) {
            0..=6 => db.execute(&format!(
                "INSERT INTO events VALUES ({k}, {}, 'y')",
                rng.gen_range(0..100)
            ))?,
            7 => db.execute(&format!("INSERT INTO facts VALUES ({k}, {})", rng.gen_range(0..100)))?,
            8 => db.execute(&format!("DELETE FROM events WHERE k = {k} AND v > 90"))?,
            _ => db.execute(&format!("UPDATE facts SET amount = amount + 1 WHERE k = {k}"))?,
        };
    }
    Ok(())
}

/// A bulk change touching a broad key range — the occasional "dimension
/// update" that changes >10% of downstream DTs (§6.3's 21% bucket).
pub fn apply_bulk_change(db: &Session, rng: &mut StdRng) -> DtResult<()> {
    let lo = rng.gen_range(0..BASE_KEYS / 2);
    let hi = lo + BASE_KEYS / 3;
    db.execute(&format!(
        "UPDATE events SET v = v + 1 WHERE k >= {lo} AND k < {hi}"
    ))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sampled_lags_cover_the_spectrum() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut buckets = std::collections::BTreeMap::new();
        for _ in 0..2000 {
            let lag = sample_target_lag(&mut rng);
            *buckets.entry(lag_bucket(lag)).or_insert(0usize) += 1;
        }
        // The shape constraints the paper reports.
        let frac = |label: &str| *buckets.get(label).unwrap_or(&0) as f64 / 2000.0;
        let under_5m = frac("<1m") + frac("1m-5m");
        let over_16h = frac(">=16h");
        assert!(under_5m > 0.12 && under_5m < 0.30, "under 5m: {under_5m}");
        assert!(over_16h > 0.18, "over 16h: {over_16h}");
        let middle = 1.0 - under_5m - over_16h;
        assert!(middle > 0.45, "middle: {middle}");
    }

    #[test]
    fn sampled_queries_bind_and_build_fleet() {
        let mut rng = StdRng::seed_from_u64(11);
        let engine = dt_core::Engine::new(dt_core::DbConfig::default());
        engine.create_warehouse("wh", 4).unwrap();
        let db = engine.session();
        create_base_tables(&db).unwrap();
        let names = build_fleet(&db, &mut rng, 40).unwrap();
        assert_eq!(names.len(), 40);
        // Most of the fleet is incremental (paper: ~70%).
        let incremental = engine.inspect(|s| {
            names
                .iter()
                .filter(|n| {
                    s.catalog().resolve(n).unwrap().as_dt().unwrap().refresh_mode
                        == dt_catalog::RefreshMode::Incremental
                })
                .count()
        });
        assert!(incremental as f64 / 40.0 > 0.6);
    }
}
