//! The metric tables (`BENCHMARK.json` lists exactly these names; a unit
//! test holds the two together) and the one place a run's samples become
//! named values.

use crate::harness::{peak_rss_mb, DtKind, Measured, Timeline};
use crate::stats::{ratio, summarize, Summary};

/// A metric's name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: what a user of the engine feels. Every workload
/// reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("freshness_p50_ms", "ms", "lower"),
    def("write_ok_per_s", "1/s", "higher"),
    def("query_ok_per_s", "1/s", "higher"),
    def("refresh_round_p50_ms", "ms", "lower"),
];

/// The query classes of `query_mix`, in `QuerySample::class` order.
pub const QUERY_CLASSES: [&str; 6] = ["dt", "point", "range", "rows", "agg", "join"];

/// Per-layer metrics (layers are the crates), reported by the traced
/// run. The first block is counter deltas and sample tails over the
/// window; the second is the layer walk's median busy time per
/// operation. A metric a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("server.requests", "count", "higher"),
    def("server.rejected_connections", "count", "lower"),
    def("client.retries", "count", "lower"),
    def("client.write_p50_ms", "ms", "lower"),
    def("client.write_p99_ms", "ms", "lower"),
    def("client.freshness_p99_ms", "ms", "lower"),
    def("client.query_p50_ms", "ms", "lower"),
    def("client.query_p99_ms", "ms", "lower"),
    def("client.late_max_ms", "ms", "lower"),
    def("txn.commits", "count", "higher"),
    def("txn.conflicts", "count", "lower"),
    def("txn.conflict_share", "ratio", "lower"),
    def("txn.commit_batches", "count", "lower"),
    def("txn.commits_per_batch", "ratio", "higher"),
    def("txn.lock_waits", "count", "lower"),
    def("txn.lock_wait_ms", "ms", "lower"),
    def("txn.lock_timeouts", "count", "lower"),
    def("txn.deadlocks", "count", "lower"),
    def("txn.adaptive_flips", "count", "lower"),
    def("wal.appends", "count", "lower"),
    def("wal.fsyncs", "count", "lower"),
    def("wal.bytes", "bytes", "lower"),
    def("wal.checkpoints", "count", "lower"),
    def("wal.fsyncs_per_commit", "ratio", "lower"),
    def("wal.bytes_per_user_byte", "ratio", "lower"),
    def("core.refresh.rounds", "count", "higher"),
    def("core.refresh.refreshes", "count", "higher"),
    def("core.refresh.no_data_share", "ratio", "lower"),
    def("core.refresh.source_rows", "rows", "lower"),
    def("core.refresh.changed_rows", "rows", "lower"),
    def("core.refresh.install_batches", "count", "lower"),
    def("core.refresh.round_p99_ms", "ms", "lower"),
    def("core.refresh.dt_ms.project", "ms", "lower"),
    def("core.refresh.dt_ms.join", "ms", "lower"),
    def("core.refresh.dt_ms.aggregate", "ms", "lower"),
    def("core.recovery_ms", "ms", "lower"),
    def("wal.recovery_replayed", "count", "lower"),
    def("storage.zone_map_pruned", "count", "higher"),
    def("core.refresh.rows_per_s", "rows/s", "higher"),
    def("host.peak_rss_mb", "MB", "lower"),
    def("wire.encode_us", "us", "lower"),
    def("wire.decode_us", "us", "lower"),
    def("sql.parse_us", "us", "lower"),
    def("core.snapshot_capture_us", "us", "lower"),
    def("plan.bind_us", "us", "lower"),
    def("exec.execute_us", "us", "lower"),
    def("exec.execute_us.dt", "us", "lower"),
    def("exec.execute_us.point", "us", "lower"),
    def("exec.execute_us.range", "us", "lower"),
    def("exec.execute_us.rows", "us", "lower"),
    def("exec.execute_us.agg", "us", "lower"),
    def("exec.execute_us.join", "us", "lower"),
    def("core.txn.execute_us", "us", "lower"),
    def("core.txn.prepare_commit_us", "us", "lower"),
    def("core.txn.commit_us", "us", "lower"),
    def("core.refresh.prepare_us", "us", "lower"),
    def("core.refresh.install_us", "us", "lower"),
    def("wal.probe_fsync_us", "us", "lower"),
    def("host.fdatasync_us", "us", "lower"),
    def("server.overhead_us", "us", "lower"),
    def("trace.unattributed_share", "ratio", "lower"),
];

/// A computed metric with the number of samples behind it (0 for a
/// counter or a single reading).
#[derive(Debug, Clone)]
pub struct Value {
    /// Which metric.
    pub def: MetricDef,
    /// Its value.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Completions per second over the window, estimated from the first to
/// the last completion inside it: unlike count ÷ window length this does
/// not step by a whole completion at the window's edges, which matters
/// when a workload completes only tens of units per run.
#[derive(Debug, Default)]
struct Rate {
    first: u64,
    last: u64,
    n: usize,
}

impl Rate {
    fn record(&mut self, at: u64) {
        if self.n == 0 {
            self.first = at;
        }
        self.last = at;
        self.n += 1;
    }

    fn per_s(&self) -> f64 {
        ratio(
            self.n.saturating_sub(1) as f64,
            (self.last - self.first) as f64 / 1e9,
        )
    }
}

/// The window's samples, reduced once and shared by both metric sets.
struct Reduced {
    write: Summary,
    write_rate: Rate,
    fresh: Summary,
    query: Summary,
    query_rate: Rate,
    round: Summary,
    round_busy_s: f64,
    source_rows: u64,
}

fn reduce(m: &Measured, tl: &Timeline) -> Reduced {
    let mut write_ms = Vec::new();
    let mut fresh_ms = Vec::new();
    let mut write_rate = Rate::default();
    // Observations per stream are in time order with non-decreasing
    // markers, and so are a stream's writes: one forward scan per stream.
    let streams = m.writes.iter().map(|w| w.stream).max().map_or(0, |s| s + 1);
    for stream in 0..streams {
        let mut seen = m
            .observations
            .iter()
            .filter(|o| o.stream == stream)
            .peekable();
        for w in m.writes.iter().filter(|w| w.stream == stream && w.ok) {
            if tl.in_window(w.acked) {
                write_rate.record(w.acked);
            }
            if !tl.in_window(w.due) {
                continue;
            }
            write_ms.push(ms(w.acked - w.due));
            while seen.peek().is_some_and(|o| o.marker < w.marker) {
                seen.next();
            }
            if let Some(o) = seen.peek() {
                fresh_ms.push(ms(o.at.saturating_sub(w.born)));
            }
        }
    }
    let mut query_ms = Vec::new();
    let mut query_rate = Rate::default();
    for q in m.queries.iter().filter(|q| q.ok) {
        if tl.in_window(q.recv) {
            query_rate.record(q.recv);
        }
        if tl.in_window(q.sent) {
            query_ms.push(ms(q.recv - q.sent));
        }
    }
    let in_window: Vec<_> = m.rounds.iter().filter(|r| tl.in_window(r.start)).collect();
    let mut round_ms: Vec<f64> = in_window
        .iter()
        .filter(|r| r.carried)
        .map(|r| ms(r.end - r.start))
        .collect();
    let round_busy_s = in_window
        .iter()
        .map(|r| (r.end - r.start) as f64 / 1e9)
        .sum();
    let source_rows = in_window
        .iter()
        .flat_map(|r| m.log.get(r.log_from..r.log_to).unwrap_or(&[]))
        .map(|e| e.source_rows as u64)
        .sum();
    Reduced {
        write: summarize(&mut write_ms),
        write_rate,
        fresh: summarize(&mut fresh_ms),
        query: summarize(&mut query_ms),
        query_rate,
        round: summarize(&mut round_ms),
        round_busy_s,
        source_rows,
    }
}

/// Number of window writes whose marker never became visible in the
/// leaf DT (must be 0: the run drains before it stops observing).
pub fn never_visible(m: &Measured, tl: &Timeline) -> usize {
    let r = reduce(m, tl);
    r.write.n - r.fresh.n
}

/// Client operations of the window: how many were attempted and how
/// many failed or came back with the wrong shape.
pub fn attempted_failed(m: &Measured, tl: &Timeline) -> (u64, u64) {
    let writes = m
        .writes
        .iter()
        .filter(|w| tl.in_window(w.due))
        .map(|w| w.ok);
    let queries = m
        .queries
        .iter()
        .filter(|q| tl.in_window(q.sent))
        .map(|q| q.ok);
    let (mut attempted, mut failed) = (0, 0);
    for ok in writes.chain(queries) {
        attempted += 1;
        failed += u64::from(!ok);
    }
    (attempted, failed)
}

/// The end-to-end metrics of a run, in table order.
pub fn end_to_end(m: &Measured, tl: &Timeline) -> Vec<Value> {
    let r = reduce(m, tl);
    let values = [
        ("setup_s", m.setup_s, m.setups),
        ("freshness_p50_ms", r.fresh.p50, r.fresh.n),
        ("write_ok_per_s", r.write_rate.per_s(), r.write_rate.n),
        ("query_ok_per_s", r.query_rate.per_s(), r.query_rate.n),
        ("refresh_round_p50_ms", r.round.p50, r.round.n),
    ];
    END_TO_END
        .iter()
        .map(|def| {
            let (_, value, n) = values
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .expect("every end-to-end metric is computed");
            Value {
                def: *def,
                value: *value,
                n: *n,
            }
        })
        .collect()
}

/// The per-layer metrics of a traced run, in table order.
pub fn per_layer(m: &Measured, tl: &Timeline) -> Vec<Value> {
    let r = reduce(m, tl);
    let c = &m.counters;
    let window_writes = || m.writes.iter().filter(|w| tl.in_window(w.due));
    let retries: u64 = window_writes().map(|w| u64::from(w.retries)).sum();
    let user_bytes: u64 = window_writes().filter(|w| w.ok).map(|w| w.user_bytes).sum();
    let p99 = |s: &Summary| s.p99().unwrap_or(0.0);

    let window_rounds: Vec<_> = m.rounds.iter().filter(|r| tl.in_window(r.start)).collect();
    let mut all_round_ms: Vec<f64> = window_rounds.iter().map(|r| ms(r.end - r.start)).collect();
    let round_all = summarize(&mut all_round_ms);
    let entries: Vec<_> = window_rounds
        .iter()
        .flat_map(|r| m.log.get(r.log_from..r.log_to).unwrap_or(&[]))
        .collect();
    let no_data = entries.iter().filter(|e| e.action == "no_data").count();
    let changed_rows: usize = entries.iter().map(|e| e.changed_rows).sum();
    // Median refresh time of the DTs of one kind, NO_DATA refreshes (free
    // by design, §5.2) left out.
    let dt_ms = |kind: DtKind| {
        let mut v: Vec<f64> = entries
            .iter()
            .filter(|e| e.action != "no_data")
            .filter(|e| m.dts.iter().any(|(id, _, k)| *id == e.dt && *k == kind))
            .map(|e| e.duration_micros as f64 / 1e3)
            .collect();
        summarize(&mut v).p50
    };

    let walk = m.walk.as_ref();
    let layer = |name: &str| walk.map_or(0.0, |w| w.layer_us(name));
    let (overhead_us, unattributed) = walk.map_or((0.0, 0.0), server_overhead);

    // Everything that does not come from the walk, by name; a name of the
    // table that is not here is a walk layer.
    let from_window = [
        ("server.requests", c.get("server_requests") as f64),
        (
            "server.rejected_connections",
            c.get("server_rejected") as f64,
        ),
        ("client.retries", retries as f64),
        ("client.write_p50_ms", r.write.p50),
        ("client.write_p99_ms", p99(&r.write)),
        ("client.freshness_p99_ms", p99(&r.fresh)),
        ("client.query_p50_ms", r.query.p50),
        ("client.query_p99_ms", p99(&r.query)),
        ("client.late_max_ms", m.late_max_ms),
        ("txn.commits", c.get("commits") as f64),
        ("txn.conflicts", c.get("conflicts") as f64),
        (
            "txn.conflict_share",
            ratio(
                c.get("conflicts") as f64,
                (c.get("commits") + c.get("conflicts")) as f64,
            ),
        ),
        ("txn.commit_batches", c.get("commit_batches") as f64),
        (
            "txn.commits_per_batch",
            ratio(c.get("commits") as f64, c.get("commit_batches") as f64),
        ),
        ("txn.lock_waits", c.get("lock_waits") as f64),
        ("txn.lock_wait_ms", c.get("lock_wait_us") as f64 / 1e3),
        ("txn.lock_timeouts", c.get("lock_timeouts") as f64),
        ("txn.deadlocks", c.get("deadlocks") as f64),
        ("txn.adaptive_flips", c.get("adaptive_flips") as f64),
        ("wal.appends", c.get("wal_appends") as f64),
        ("wal.fsyncs", c.get("wal_fsyncs") as f64),
        ("wal.bytes", c.get("wal_bytes") as f64),
        ("wal.checkpoints", c.get("wal_checkpoints") as f64),
        (
            "wal.fsyncs_per_commit",
            ratio(c.get("wal_fsyncs") as f64, c.get("commits") as f64),
        ),
        (
            "wal.bytes_per_user_byte",
            ratio(c.get("wal_bytes") as f64, user_bytes as f64),
        ),
        ("core.refresh.rounds", window_rounds.len() as f64),
        ("core.refresh.refreshes", entries.len() as f64),
        (
            "core.refresh.no_data_share",
            ratio(no_data as f64, entries.len() as f64),
        ),
        ("core.refresh.source_rows", r.source_rows as f64),
        ("core.refresh.changed_rows", changed_rows as f64),
        (
            "core.refresh.install_batches",
            c.get("refresh_batches") as f64,
        ),
        ("core.refresh.round_p99_ms", p99(&round_all)),
        ("core.refresh.dt_ms.project", dt_ms(DtKind::Project)),
        ("core.refresh.dt_ms.join", dt_ms(DtKind::Join)),
        ("core.refresh.dt_ms.aggregate", dt_ms(DtKind::Aggregate)),
        ("core.recovery_ms", m.recovery_ms),
        ("wal.recovery_replayed", m.recovery_replayed as f64),
        ("storage.zone_map_pruned", c.get("zone_map_pruned") as f64),
        (
            "core.refresh.rows_per_s",
            ratio(r.source_rows as f64, r.round_busy_s),
        ),
        ("host.peak_rss_mb", peak_rss_mb()),
        ("server.overhead_us", overhead_us),
        ("trace.unattributed_share", unattributed),
    ];
    for (name, _) in &from_window {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "{name} is computed but not in the per-layer table"
        );
    }
    PER_LAYER
        .iter()
        .map(|def| {
            let windowed = from_window.iter().find(|(name, _)| *name == def.name);
            Value {
                def: *def,
                value: windowed.map_or_else(|| layer(def.name), |(_, v)| *v),
                n: walk.map_or(0, |w| w.layers.get(def.name).map_or(0, Vec::len)),
            }
        })
        .collect()
}

/// What the TCP server path costs beyond the layers the walk stepped
/// through by hand: the client-observed median of the walked operation
/// sent over TCP on an otherwise idle engine, minus the walk's median sum
/// for that operation, in µs and as a share of that client median.
/// In-process workloads have no server and report 0.
fn server_overhead(walk: &crate::trace::Walk) -> (f64, f64) {
    if walk.quiet_client_us.is_empty() {
        return (0.0, 0.0);
    }
    let walked_us = ["tcp_write", "query.range"]
        .into_iter()
        .find(|kind| walk.ops(kind) > 0)
        .map_or(0.0, |kind| walk.op_sum_us(kind));
    let client = summarize(&mut walk.quiet_client_us.clone()).p50;
    let overhead = client - walked_us;
    (overhead, ratio(overhead, client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Observation, WriteSample};
    use crate::stats::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_computed_layer_metric_is_in_the_table_and_an_empty_run_reads_zero() {
        let tl = Timeline::for_test(0, 1_000_000);
        let values = per_layer(&Measured::default(), &tl);
        assert_eq!(values.len(), PER_LAYER.len());
        for v in values.iter().filter(|v| v.def.name != "host.peak_rss_mb") {
            assert_eq!(v.value, 0.0, "{}", v.def.name);
        }
    }

    #[test]
    fn freshness_runs_from_due_time_to_first_covering_observation() {
        let tl = Timeline::for_test(1_000_000, 10_000_000);
        let write = |due: u64, marker: i64| WriteSample {
            due,
            sent: due + 10_000,
            acked: due + 100_000,
            born: due,
            stream: 0,
            marker,
            retries: 0,
            user_bytes: 0,
            ok: true,
        };
        let see = |at: u64, marker: i64| Observation {
            at,
            stream: 0,
            marker,
        };
        let m = Measured {
            // The first write is warm-up; the last never becomes visible.
            writes: vec![
                write(500_000, 1),
                write(2_000_000, 2),
                write(3_000_000, 3),
                write(9_000_000, 9),
            ],
            observations: vec![
                see(1_500_000, 1),
                see(2_500_000, 1),
                see(4_000_000, 3),
                see(9_500_000, 3),
            ],
            ..Measured::default()
        };
        let e2e = end_to_end(&m, &tl);
        let get = |name: &str| e2e.iter().find(|v| v.def.name == name).unwrap();
        // Writes 2 and 3 both first appear in the observation at 4 ms.
        assert_eq!(get("freshness_p50_ms").n, 2);
        assert_eq!(get("freshness_p50_ms").value, 1.0);
        let layers = per_layer(&m, &tl);
        let write_p50 = layers.iter().find(|v| v.def.name == "client.write_p50_ms");
        assert_eq!(write_p50.unwrap().value, 0.1);
        assert_eq!(get("write_ok_per_s").n, 3);
        assert_eq!(never_visible(&m, &tl), 1);
    }
}
