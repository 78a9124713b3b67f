//! `compare A B`: one row per (workload, end-to-end metric) with both
//! sides' values, how much worse B is than A, the metric's bound from
//! `BENCHMARK.json`, and a verdict. Used for the A/A acceptance (two sets
//! of runs of the same code must agree within the bounds) and to read a
//! change against its parent.
//!
//! A side is one result file or a comma-separated set of them. A set is
//! reduced to its median, and with four or more files to its spread
//! (`stats::spread`) as well. One value per side cannot
//! resolve a difference smaller than the run-to-run spread, so a set
//! whose spread exceeds the bound makes the row `unresolved` — unless
//! every run of B reads better than every run of A — instead of letting
//! noise read as `worse` or as `ok`.

use std::path::Path;
use std::process::ExitCode;

use crate::stats::{median, spread, Json};

/// `setup_s` differences below this many seconds are noise whatever
/// their ratio (set-up takes well under a second on some workloads).
const SETUP_FLOOR_S: f64 = 0.1;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is not worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// No comparison possible.
    Unresolved,
}

/// How much worse `b` is than `a` as a share of `a` (negative when it is
/// better), given which direction is better.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Verdict for one metric from each side's values (one per result file).
/// Returns how much worse B's median is, and the verdict.
pub fn judge(name: &str, a: &[f64], b: &[f64], better: &str, bound: f64) -> (f64, Verdict) {
    if a.is_empty() || b.is_empty() || a.iter().chain(b).any(|v| !v.is_finite()) {
        return (0.0, Verdict::Unresolved);
    }
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    if ma <= 0.0 {
        return (0.0, Verdict::Unresolved);
    }
    let worse = worse_by(ma, mb, better);
    let b_always_better = a
        .iter()
        .all(|x| b.iter().all(|y| worse_by(*x, *y, better) < 0.0));
    let too_noisy = [a, b].into_iter().filter_map(spread).any(|s| s > bound);
    let small_setup = name == "setup_s" && (mb - ma).abs() < SETUP_FLOOR_S;
    let verdict = if too_noisy && !b_always_better {
        Verdict::Unresolved
    } else if worse > bound && !small_setup {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Whether all result files were measured alike enough to compare.
fn comparable(docs: &[&Json]) -> Result<(), String> {
    for doc in docs {
        if doc.get("host").and_then(|h| h.get("comparable")) != Some(&Json::Bool(true)) {
            return Err("a smoke result is not comparable".into());
        }
    }
    for key in ["nproc", "build_profile", "window_s", "warmup_s"] {
        let of = |doc: &Json| doc.get("host").and_then(|h| h.get(key)).cloned();
        if docs.iter().any(|doc| of(doc) != of(docs[0])) {
            return Err(format!("the results differ in {key}"));
        }
    }
    Ok(())
}

/// Run the comparison; exits non-zero when any row is `worse`.
pub fn run(files: &[String], benchmark_json: Option<&Path>) -> Result<ExitCode, String> {
    let [a_paths, b_paths] = files else {
        return Err("compare takes exactly two sides (a file, or files joined by commas)".into());
    };
    let side = |paths: &str| paths.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let (a, b) = (side(a_paths)?, side(b_paths)?);
    let spec_path = benchmark_json.unwrap_or(Path::new("BENCHMARK.json"));
    let spec = load(&spec_path.to_string_lossy())?;
    let alike = comparable(&a.iter().chain(&b).collect::<Vec<_>>());
    if let Err(why) = &alike {
        println!("note: {why}; every row is unresolved");
    }
    let workloads = spec.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    let metrics = spec.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    println!(
        "{:<15} {:<22} {:>13} {:>13} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound"
    );
    let mut any_worse = false;
    for w in workloads {
        let workload = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for m in metrics {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("?");
            let (name, better) = (field("name"), field("better"));
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let values = |side: &[Json]| -> Vec<f64> {
                side.iter()
                    .map(|doc| value(doc, workload, name).unwrap_or(f64::NAN))
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            let (worse, mut verdict) = judge(name, &va, &vb, better, bound);
            if alike.is_err() {
                verdict = Verdict::Unresolved;
            }
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<15} {name:<22} {:>13.4} {:>13.4} {:>8.1}% {:>6.0}%  {}",
                median(&mut va.clone()),
                median(&mut vb.clone()),
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 80.0, "higher") - 0.20).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let v = |a, b, better, bound| judge("freshness_p50_ms", &[a], &[b], better, bound).1;
        assert_eq!(v(10.0, 10.9, "lower", 0.10), Verdict::Ok);
        assert_eq!(v(10.0, 11.1, "lower", 0.10), Verdict::Worse);
        assert_eq!(v(10.0, 5.0, "lower", 0.10), Verdict::Ok);
        assert_eq!(v(100.0, 85.0, "higher", 0.10), Verdict::Worse);
        assert_eq!(judge("x", &[], &[1.0], "lower", 0.1).1, Verdict::Unresolved);
        assert_eq!(
            judge("x", &[0.0], &[1.0], "lower", 0.1).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge("x", &[1.0], &[f64::NAN], "lower", 0.1).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn small_absolute_setup_differences_are_not_regressions() {
        let v = |name, a, b| judge(name, &[a], &[b], "lower", 0.25).1;
        assert_eq!(v("setup_s", 0.20, 0.28), Verdict::Ok);
        assert_eq!(v("setup_s", 1.0, 1.4), Verdict::Worse);
        assert_eq!(v("other_s", 0.20, 0.28), Verdict::Worse);
    }

    #[test]
    fn a_set_noisier_than_the_bound_is_unresolved_unless_b_always_wins() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.2];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.2];
        let noisy = [8.0, 14.0, 9.0, 13.0, 10.0];
        let faster = [5.0, 5.1, 4.9, 5.0, 7.0];
        let v = |a: &[f64], b: &[f64]| judge("m", a, b, "lower", 0.10).1;
        assert_eq!(v(&steady, &steady), Verdict::Ok);
        assert_eq!(v(&steady, &slower), Verdict::Worse);
        assert_eq!(v(&steady, &noisy), Verdict::Unresolved);
        assert_eq!(v(&noisy, &steady), Verdict::Unresolved);
        // Every run of `faster` beats every run of `noisy`.
        assert_eq!(v(&noisy, &faster), Verdict::Ok);
    }
}
