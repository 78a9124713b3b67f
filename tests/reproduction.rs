//! The reproduction, asserted: one case per claim of
//! `dt_bench::reproduce`, named after the function it checks. Each case
//! asserts the paper's predicate (`check`, whose doc comment carries the
//! paper's text and section) and pins what this engine measures — exact
//! values where the run is deterministic (fixed seeds over `SimClock`), so
//! a change to the scheduler, the refresh decision or the IVM rules that
//! moves a figure shows up here by name.

use dt_bench::reproduce;
use dt_common::Duration;
use dt_isolation::IsolationLevel;
use dt_plan::OperatorKind;

/// `check` must hold; the failure is printed with the measurement.
fn holds(measured: &impl std::fmt::Debug, verdict: Result<(), String>) {
    if let Err(failure) = verdict {
        panic!("{failure}: {measured:?}");
    }
}

#[test]
fn isolation_figures() {
    let r = reproduce::isolation_figures();
    holds(&r, r.check());
    assert_eq!(r.fig1, (IsolationLevel::Pl3, vec![]));
    assert_eq!(r.fig2, (IsolationLevel::Pl2, vec!["G2"]));
    assert!(r.fig2_g_single);
}

#[test]
fn lag_sawtooth() {
    let r = reproduce::lag_sawtooth();
    holds(&r, r.check());
    assert_eq!(r.period, Duration::from_secs(96), "canonical period for a 5-minute target");
    // 30 minutes hold 18 grid points; the first trough starts no cycle.
    assert_eq!(r.cycles.len(), 17);
    // w + d is the cost model's 200 fixed units + 0.02 per row on 2 nodes:
    // 96.10 s to the centisecond, 30 µs apart by whether a period saw three
    // inserts or four.
    let micros = |d: &Duration| d.as_micros();
    assert_eq!(r.cycles.iter().map(micros).min(), Some(96_100_090), "{r:?}");
    assert_eq!(r.cycles.iter().map(micros).max(), Some(96_100_120), "{r:?}");
    assert_eq!(r.max_peak.as_micros(), 96_100_120);
}

#[test]
fn target_lag_census() {
    let r = reproduce::target_lag_census();
    holds(&r, r.check());
    assert_eq!((r.under_5m(), r.between(), r.over_16h(), r.total()), (118, 325, 157, 600), "{r:?}");
    // The histogram itself, along `LAG_BUCKETS` (nothing is under the
    // 1-minute minimum, so that bucket has no entry).
    let histogram: Vec<_> =
        dt_bench::LAG_BUCKETS.iter().filter_map(|(label, _, _)| r.0.get(label).copied()).collect();
    assert_eq!(histogram, [118, 153, 107, 39, 26, 157], "{r:?}");
}

#[test]
fn operator_frequency() {
    use OperatorKind::*;
    let r = reproduce::operator_frequency();
    holds(&r, r.check());
    assert_eq!(r.incremental_dts, 440);
    let pinned = [
        (Scan, 440),
        (Project, 440),
        (Filter, 177),
        (Aggregate, 147),
        (InnerJoin, 125),
        (OuterJoin, 49),
        (Window, 37),
        (Distinct, 31),
        (UnionAll, 21),
    ];
    for (kind, count) in pinned {
        assert_eq!(r.count(kind), count, "{}: {r:?}", kind.name());
    }
    assert_eq!(r.containing.len(), pinned.len(), "an operator no incremental DT may contain: {r:?}");
}

#[test]
fn adoption_stats() {
    let r = reproduce::adoption_stats();
    holds(&r, r.check());
    assert_eq!((r.incremental_dts, r.fleet), (93, 120), "{r:?}");
    assert_eq!((r.no_data, r.refreshes), (13_419, 14_290), "{r:?}");
    assert_eq!(
        (r.changed_under_1pct, r.changed_over_10pct, r.incremental_with_change),
        (391, 122, 661),
        "{r:?}"
    );
    assert_eq!(r.skips, 0);
    assert_eq!(r.credits.round(), 74_628.0);
}

#[test]
fn skip_behavior() {
    let r = reproduce::skip_behavior();
    holds(&r, r.check());
    assert_eq!(r.grid_points, 25);
    let seen: Vec<_> = r.runs.iter().map(|run| (run.nodes, run.refreshes, run.skips)).collect();
    assert_eq!(seen, [(1, 19, 4), (2, 24, 0), (4, 24, 0), (8, 24, 0)], "{r:?}");
    let credits: Vec<_> = r.runs.iter().map(|run| run.credits.round()).collect();
    assert_eq!(credits, [1260.0, 2424.0, 4728.0, 9336.0], "{r:?}");
}

#[test]
fn dvs_validation() {
    let r = reproduce::dvs_validation();
    holds(&r, r.check());
    assert_eq!((r.dts, r.refreshes, r.discrepancies), (200, 800, 0), "{r:?}");
}

#[test]
fn crossover() {
    let r = reproduce::crossover();
    holds(&r, r.check());
    let changed: Vec<_> = r.points.iter().map(|p| p.changed_rows).collect();
    assert_eq!(changed, [4, 20, 40, 200, 400, 1000, 2000, 4000]);
    // The cost model in credits (node-seconds): 200 fixed units + 0.02 per
    // row read or written, a unit being a node-millisecond.
    let (lo, hi) = (&r.points[0], &r.points[7]);
    let close = |credits: f64, units: f64| (credits * 1000.0 - units).abs() < 0.01;
    assert!(close(lo.incremental.credits, 200.0 + 0.02 * (4.0 + 8.0)), "{r:?}");
    assert!(close(lo.full.credits, 200.0 + 0.02 * (4004.0 + 200.0)), "{r:?}");
    assert!(close(hi.incremental.credits, 200.0 + 0.02 * (4000.0 + 400.0)), "{r:?}");
    assert!(close(hi.full.credits, 200.0 + 0.02 * (8000.0 + 200.0)), "{r:?}");
}

#[test]
fn outer_join_ablation() {
    let r = reproduce::outer_join_ablation();
    holds(&r, r.check());
    // Direct: both inputs, restricted, at both ends. The rewrite: the
    // inner-join term's two, then both inputs at both ends per anti-join.
    assert_eq!((r.direct_scans, r.naive_scans), (4, 10), "{r:?}");
    assert_eq!(r.delta_rows, (150, 150), "{r:?}");
}

#[test]
fn insert_only_ablation() {
    let r = reproduce::insert_only_ablation();
    holds(&r, r.check());
    // 50 fresh keys pair up; `v >= 10` keeps 40 of them.
    assert_eq!(r.unconsolidated, (40, 0), "{r:?}");
}
