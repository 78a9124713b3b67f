//! Runs every claim of [`dt_bench::reproduce`] at full size, prints one
//! table, writes `REPRODUCTION.json` (claims plus the provenance of the
//! run) into the current directory, and exits non-zero if any claim's
//! `check` fails.
//!
//! Run with: `cargo run --release -p dt-bench --bin reproduce`

use std::fmt::Write as _;

use dt_bench::reproduce::{run_all, Report, SEEDS};

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c)).expect("String writes"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn to_json(reports: &[Report]) -> String {
    let seeds: Vec<String> = SEEDS.iter().map(|(name, seed)| format!("{}: {seed}", json_string(name))).collect();
    let claims: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"claim\": {}, \"section\": {}, \"paper\": {}, \"measured\": {}, \"ok\": {}, \"failure\": {}}}",
                json_string(r.claim),
                json_string(r.section),
                json_string(r.paper),
                json_string(&r.measured),
                r.verdict.is_ok(),
                r.verdict.as_ref().err().map_or("null".into(), |e| json_string(e)),
            )
        })
        .collect();
    format!(
        "{{\n  \"crate_version\": {},\n  \"build_profile\": {},\n  \"available_parallelism\": {},\n  \
         \"seeds\": {{{}}},\n  \"claims\": [\n{}\n  ]\n}}\n",
        json_string(env!("CARGO_PKG_VERSION")),
        json_string(if cfg!(debug_assertions) { "debug" } else { "release" }),
        std::thread::available_parallelism().map_or(0, usize::from),
        seeds.join(", "),
        claims.join(",\n"),
    )
}

fn main() -> std::io::Result<()> {
    let reports = run_all();
    println!("{:<21} {:<12} {:<6} the paper's claim", "claim", "section", "");
    for r in &reports {
        let verdict = if r.verdict.is_ok() { "ok" } else { "FAILED" };
        println!("{:<21} {:<12} {verdict:<6} {}", r.claim, r.section, r.paper);
        println!("    measured: {}", r.measured);
        if let Err(failure) = &r.verdict {
            println!("    failed: {failure}");
        }
    }
    std::fs::write("REPRODUCTION.json", to_json(&reports))?;
    let failed = reports.iter().filter(|r| r.verdict.is_err()).count();
    println!("\n{} of {} claims hold; wrote REPRODUCTION.json", reports.len() - failed, reports.len());
    if failed > 0 {
        std::process::exit(1);
    }
    Ok(())
}
