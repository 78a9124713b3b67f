//! The repo's benchmark: write → refresh → read freshness on four
//! workloads, with per-layer attribution. See `benchmark/README.md`.
//!
//! ```text
//! dt-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! dt-benchmark [all] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! dt-benchmark compare A.json B.json [--benchmark-json FILE]
//! ```
//!
//! The first form is one run: its last line on standard output is the
//! result object the benchmark contract prescribes. The second runs
//! every workload in its own process, untraced then traced, prints every
//! metric by name and writes one result file. The third compares two
//! result files against the bounds in `BENCHMARK.json`.

mod compare;
mod disk;
mod harness;
mod host;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Ctx;
use stats::Json;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    benchmark_json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?.into()),
            "--benchmark-json" => args.benchmark_json = Some(value("--benchmark-json")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

/// Window and warm-up lengths: smoke runs are short and say so.
fn windows(args: &Args) -> (f64, f64) {
    if args.smoke {
        (args.seconds.unwrap_or(3.0).min(3.0), 1.0)
    } else {
        (args.seconds.unwrap_or(suite::DEFAULT_SECONDS), 3.0)
    }
}

fn run_one(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let Some(workload) = workloads::NAMES.iter().find(|n| **n == workload) else {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            workloads::NAMES.join(", ")
        ));
    };
    let (seconds, warmup) = windows(args);
    let scratch = host::scratch_dir()?;
    let ctx = Ctx {
        workload,
        seed: args.seed.unwrap_or(1),
        seconds,
        warmup,
        trace: args.trace,
        smoke: args.smoke,
        scratch,
    };
    let (mut measured, tl) = workloads::run(&ctx);
    let unseen = metrics::never_visible(&measured, &tl);
    measured.check(
        format!("every write of the window became visible in the leaf DT ({unseen} did not)"),
        unseen == 0,
    );
    let end_to_end = metrics::end_to_end(&measured, &tl);
    // The contract's line carries one metric set: end to end when
    // untraced, per layer when traced.
    let values = if ctx.trace {
        metrics::per_layer(&measured, &tl)
    } else {
        end_to_end.clone()
    };
    let (attempted, failed) = metrics::attempted_failed(&measured, &tl);
    let correct = measured.failures.is_empty();

    for v in &values {
        eprintln!(
            "{:<34} {:>16.4} {:<7} n={}",
            v.def.name, v.value, v.def.unit, v.n
        );
    }
    for failure in &measured.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    if ctx.trace {
        let path = ctx.scratch.join(format!("trace-{workload}.json"));
        trace::write_trace(&path, workload, &measured)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }

    let metrics_json = |values: &[metrics::Value]| {
        Json::obj(values.iter().map(|v| {
            (
                v.def.name,
                Json::obj([
                    ("value", Json::Num(v.value)),
                    ("unit", Json::str(v.def.unit)),
                ]),
            )
        }))
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(&values)),
    ]);
    // The detail file carries what the contract's one line has no room
    // for: where the numbers came from, how many samples stand behind
    // each, and (for `all`'s tracing-overhead figure) the end-to-end
    // metrics of a traced run.
    let detail = Json::obj([
        ("host", host::provenance(&ctx)),
        ("workload", Json::str(*workload)),
        ("trace", Json::Bool(ctx.trace)),
        ("result", result.clone()),
        (
            "samples",
            Json::obj(values.iter().map(|v| (v.def.name, Json::Num(v.n as f64)))),
        ),
        (
            "end_to_end_of_traced_run",
            if ctx.trace {
                Json::obj([("metrics", metrics_json(&end_to_end))])
            } else {
                Json::Null
            },
        ),
        (
            "failed_checks",
            Json::Arr(measured.failures.iter().map(Json::str).collect()),
        ),
    ]);
    let detail_path = suite::detail_path(&ctx.scratch, workload, ctx.trace);
    std::fs::write(&detail_path, detail.to_line() + "\n")
        .map_err(|e| format!("write {}: {e}", detail_path.display()))?;
    println!("{}", result.to_line());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("dt-benchmark: refusing to measure a debug build; use benchmark/run.sh");
        return ExitCode::from(2);
    }
    let outcome = parse_args().and_then(|args| {
        match (args.positional.first().map(String::as_str), &args.workload) {
            (Some("compare"), _) => {
                compare::run(&args.positional[1..], args.benchmark_json.as_deref())
            }
            (None | Some("all"), None) => suite::run(&args),
            (None, Some(workload)) => run_one(&args, workload),
            (Some(other), _) => Err(format!("unknown command {other}")),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dt-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
