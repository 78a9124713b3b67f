//! `all`: every workload in its own process, untraced (end-to-end
//! metrics) then traced (per-layer metrics), every metric printed by
//! name with its unit and sample count, one result file written.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::stats::Json;
use crate::workloads::NAMES;
use crate::{host, Args};

/// Measured window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` is the same number.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Where a single run leaves its detail file.
pub fn detail_path(scratch: &Path, workload: &str, trace: bool) -> PathBuf {
    scratch.join(format!("detail-{workload}-trace{}.json", u8::from(trace)))
}

/// The end-to-end metric whose change between the untraced and the
/// traced run is reported as `trace.overhead_share`.
fn headline(workload: &str) -> &'static str {
    match workload {
        "ingest_fresh" => "freshness_p50_ms",
        "dag_refresh" => "refresh_round_p50_ms",
        "query_mix" => "query_ok_per_s",
        _ => "write_ok_per_s",
    }
}

/// One child run: returns its detail document.
fn child(args: &Args, scratch: &Path, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.unwrap_or(1).to_string()])
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let detail = detail_path(scratch, workload, trace);
    let _ = std::fs::remove_file(&detail);
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(&detail).map_err(|_| {
        format!(
            "{workload} (trace {}) left no result; it said:\n{}",
            u8::from(trace),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

fn metric(doc: &Json, set: &str, name: &str) -> Option<f64> {
    doc.get(set)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Print one run's metrics and return them as `name → {value, unit, n}`.
fn print_and_collect(doc: &Json, set: &str) -> Json {
    let metrics = doc
        .get(set)
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .unwrap_or(&[]);
    Json::obj(metrics.iter().map(|(name, m)| {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let n = doc
            .get("samples")
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        println!("  {name:<34} {value:>16.4} {unit:<7} n={n}");
        (
            name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit)),
                ("n", Json::Num(n)),
            ]),
        )
    }))
}

/// Run the whole suite.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let scratch = host::scratch_dir()?;
    let mut all_correct = true;
    let mut host_block = Json::Null;
    let mut workloads = Vec::new();
    for workload in NAMES {
        let plain = child(args, &scratch, workload, false)?;
        let traced = child(args, &scratch, workload, true)?;
        host_block = plain.get("host").cloned().unwrap_or(Json::Null);

        println!("== {workload}: end to end (tracing off)");
        let end_to_end = print_and_collect(&plain, "result");
        println!("== {workload}: per layer (traced run)");
        let per_layer = print_and_collect(&traced, "result");
        // Positive when the traced run was worse on the headline metric
        // (slower, or for a rate, lower).
        let name = headline(workload);
        let overhead = match (
            metric(&plain, "result", name),
            metric(&traced, "end_to_end_of_traced_run", name),
        ) {
            (Some(off), Some(on)) if off > 0.0 && name.ends_with("_per_s") => (off - on) / off,
            (Some(off), Some(on)) if off > 0.0 => (on - off) / off,
            _ => 0.0,
        };
        println!(
            "  {:<34} {overhead:>16.4} {:<7} ({name}, traced vs untraced)",
            "trace.overhead_share", "ratio"
        );

        let mut failed_checks = Vec::new();
        let mut ops = [0.0, 0.0];
        for doc in [&plain, &traced] {
            let result = doc.get("result");
            let get = |k: &str| result.and_then(|r| r.get(k)).and_then(Json::as_f64);
            ops[0] += get("attempted").unwrap_or(0.0);
            ops[1] += get("failed").unwrap_or(0.0);
            failed_checks.extend(
                doc.get("failed_checks")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .cloned(),
            );
        }
        let correct = failed_checks.is_empty();
        all_correct &= correct;
        println!(
            "  operations: {} attempted, {} failed; checks: {}",
            ops[0],
            ops[1],
            if correct { "all passed" } else { "FAILED" }
        );
        for check in &failed_checks {
            println!("  CHECK FAILED: {}", check.as_str().unwrap_or("?"));
        }
        workloads.push((
            workload,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(ops[0])),
                ("failed", Json::Num(ops[1])),
                ("failed_checks", Json::Arr(failed_checks)),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("trace.overhead_share", Json::Num(overhead)),
            ]),
        ));
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| scratch.join("result.json"));
    let doc = Json::obj([("host", host_block), ("workloads", Json::obj(workloads))]);
    std::fs::write(&out, doc.to_line() + "\n")
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("result written to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
