//! The traced run: spans around calls into the engine's public
//! functions, and the single-threaded layer walk that steps one
//! operation at a time through wire → sql → core → wal by hand.
//!
//! Spans of the measured window are built from the samples the harness
//! keeps anyway (one per client operation, per round, per DT), so the
//! window itself runs the same code traced or not; the walk runs after
//! the window and the checks. Spans inside the crates are a later issue.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dt_core::{Engine, Session};
use dt_wire::{read_frame, write_frame, RemoteRows, Request, Response, DEFAULT_MAX_FRAME_LEN};

use crate::harness::{Measured, Timeline};
use crate::stats::{median, Json};

/// One timed interval: which layer, when, caused by which span, for
/// which operation.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or operation name.
    pub name: String,
    /// Start, ns since the run started.
    pub start: u64,
    /// End, ns since the run started.
    pub end: u64,
    /// This span's id (1-based).
    pub id: u64,
    /// Id of the span that caused it (0 for a root).
    pub parent: u64,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
}

/// Samples of the layer walk: per layer, the busy time of each walked
/// operation in µs; per operation kind, the sum of its layers.
#[derive(Debug)]
pub struct Walk {
    tl: Timeline,
    spans: Vec<Span>,
    next_op: u64,
    /// Busy µs per walked operation, by layer name.
    pub layers: BTreeMap<String, Vec<f64>>,
    /// Sum of an operation's own layers in µs, by operation kind.
    pub op_sums: BTreeMap<String, Vec<f64>>,
    /// Client-observed µs of the walked operation kind sent over TCP with
    /// nothing else running (see [`timed_us`]); empty for in-process
    /// workloads.
    pub quiet_client_us: Vec<f64>,
}

/// One operation being walked.
pub struct OpWalk<'a> {
    walk: &'a mut Walk,
    op: u64,
    root: u64,
    /// (layer, µs, counts towards the operation's sum)
    totals: Vec<(String, f64, bool)>,
}

impl Walk {
    /// An empty walk on the run's clock.
    pub fn new(tl: &Timeline) -> Walk {
        Walk {
            tl: tl.clone(),
            spans: Vec::new(),
            next_op: 1,
            layers: BTreeMap::new(),
            op_sums: BTreeMap::new(),
            quiet_client_us: Vec::new(),
        }
    }

    /// Walk one operation of `kind`: `body` steps it through the layers.
    pub fn op<T>(&mut self, kind: &str, body: impl FnOnce(&mut OpWalk<'_>) -> T) -> T {
        let op = self.next_op;
        self.next_op += 1;
        let root = self.spans.len() as u64 + 1;
        let start = self.tl.now();
        self.spans.push(Span {
            name: format!("walk.{kind}"),
            start,
            end: start,
            id: root,
            parent: 0,
            op,
        });
        let mut walked = OpWalk {
            walk: self,
            op,
            root,
            totals: Vec::new(),
        };
        let out = body(&mut walked);
        let totals = std::mem::take(&mut walked.totals);
        self.spans[root as usize - 1].end = self.tl.now();
        let mut sum = 0.0;
        let mut per_layer: BTreeMap<String, f64> = BTreeMap::new();
        for (layer, us, counts) in totals {
            if counts {
                sum += us;
            }
            *per_layer.entry(layer).or_default() += us;
        }
        for (layer, us) in per_layer {
            self.layers.entry(layer).or_default().push(us);
        }
        self.op_sums.entry(kind.to_string()).or_default().push(sum);
        out
    }

    /// Median busy µs of `layer` per walked operation (0 if never hit).
    pub fn layer_us(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |v| median(&mut v.clone()))
    }

    /// Median of the per-operation layer sums for `kind`, µs.
    pub fn op_sum_us(&self, kind: &str) -> f64 {
        self.op_sums
            .get(kind)
            .map_or(0.0, |v| median(&mut v.clone()))
    }

    /// Operations walked of `kind`.
    pub fn ops(&self, kind: &str) -> usize {
        self.op_sums.get(kind).map_or(0, Vec::len)
    }
}

impl OpWalk<'_> {
    fn timed<T>(&mut self, layer: &str, counts: bool, f: impl FnOnce() -> T) -> T {
        let start = self.walk.tl.now();
        let began = Instant::now();
        let out = f();
        let us = began.elapsed().as_secs_f64() * 1e6;
        let id = self.walk.spans.len() as u64 + 1;
        self.walk.spans.push(Span {
            name: layer.to_string(),
            start,
            end: self.walk.tl.now(),
            id,
            parent: self.root,
            op: self.op,
        });
        self.totals.push((layer.to_string(), us, counts));
        out
    }

    /// A step on the operation's own path: timed under `layer` and
    /// counted in the operation's sum.
    pub fn step<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, true, f)
    }

    /// A step the real operation does not pay separately (it is inside
    /// another step, or skipped by a prepared statement): timed under
    /// `layer`, left out of the operation's sum.
    pub fn aside<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, false, f)
    }

    /// One message through the wire layer on an in-memory buffer: encode
    /// and frame it, then read the frame back and decode it.
    fn hop<T>(&mut self, encode: impl FnOnce() -> Vec<u8>, decode: impl FnOnce(&[u8]) -> T) -> T {
        let buf = self.step("wire.encode_us", || {
            let mut buf = Vec::new();
            write_frame(&mut buf, &encode()).expect("frame into memory");
            buf
        });
        self.step("wire.decode_us", || {
            let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .expect("read back a frame")
                .expect("one frame");
            decode(&payload)
        })
    }

    /// Send `request` through the wire layer.
    pub fn request_hop(&mut self, request: &Request) -> Request {
        self.hop(
            || request.encode(),
            |payload| Request::decode(payload).expect("decode a request just encoded"),
        )
    }

    /// Send `response` through the wire layer.
    pub fn response_hop(&mut self, response: &Response) -> Response {
        self.hop(
            || response.encode(),
            |payload| Response::decode(payload).expect("decode a response just encoded"),
        )
    }

    /// A write transaction, by hand: `begin` → `execute` each statement →
    /// `prepare_commit` → `commit` (`commit_unbatched` when `batched` is
    /// false, the path auto-commit DML takes). Parsing happens inside
    /// `Transaction::execute`, so it is also timed aside.
    pub fn write_txn(&mut self, session: &Session, statements: &[String], batched: bool) {
        self.aside("sql.parse_us", || {
            for sql in statements {
                dt_sql::parse(sql).expect("walked statement parses");
            }
        });
        let txn = self.step("core.txn.execute_us", || {
            let mut txn = session.begin();
            for sql in statements {
                txn.execute(sql).expect("walked statement runs");
            }
            txn
        });
        let prepared = self.step("core.txn.prepare_commit_us", || {
            txn.prepare_commit().expect("walked transaction prepares")
        });
        self.step("core.txn.commit_us", || {
            if batched {
                prepared.commit()
            } else {
                prepared.commit_unbatched()
            }
            .expect("walked transaction commits")
        });
    }

    /// A read, by hand: parse → snapshot → bind → execute. `prepared`
    /// reads skip parse and bind in the real path, so those are timed
    /// aside. `class` (may be empty) also files the execute time under
    /// `exec.execute_us.<class>`. Returns the rows as the wire would
    /// carry them.
    pub fn query(&mut self, engine: &Engine, sql: &str, prepared: bool, class: &str) -> Response {
        let parse = || dt_sql::parse(sql).expect("walked query parses");
        let ast = if prepared {
            self.aside("sql.parse_us", parse)
        } else {
            self.step("sql.parse_us", parse)
        };
        let dt_sql::ast::Statement::Query(query) = ast else {
            panic!("walked read is not a query: {sql}");
        };
        let snap = self.step("core.snapshot_capture_us", || engine.snapshot());
        let bind = || snap.bind_query(&query).expect("walked query binds");
        let bound = if prepared {
            self.aside("plan.bind_us", bind)
        } else {
            self.step("plan.bind_us", bind)
        };
        let rows = self.step("exec.execute_us", || {
            snap.execute_plan(&bound.plan).expect("walked query runs")
        });
        if !class.is_empty() {
            let us = self.totals.last().expect("just pushed").1;
            self.totals
                .push((format!("exec.execute_us.{class}"), us, false));
        }
        Response::Rows(RemoteRows::new(bound.plan.schema(), rows))
    }
}

/// One by-hand refresh of every DT in `dts` (already in dependency
/// order) to a fresh round timestamp: `prepare_refresh` then `install`,
/// each timed per DT.
pub fn walk_refresh_round(walk: &mut Walk, engine: &Engine, dts: &[dt_common::EntityId]) {
    let ts = engine.inspect(|st| st.txn_manager().hlc().tick());
    for dt in dts {
        walk.op("refresh", |o| {
            let prepared = o.step("core.refresh.prepare_us", || {
                engine.prepare_refresh(*dt, ts).expect("by-hand prepare")
            });
            o.step("core.refresh.install_us", || {
                prepared.install().expect("by-hand install")
            });
        });
    }
}

/// Time one operation in µs. Traced TCP workloads use it for the quiet
/// pass: each walked operation is also sent through a real client and
/// server, right after its by-hand twin and with no refresh driver or
/// second client running. The quiet pass's median minus the walk's layer
/// sum is what the server path costs (`server.overhead_us`); waiting
/// caused by concurrent work is deliberately not in it — that shows as
/// the distance between the quiet pass and the window's client latency.
pub fn timed_us(op: impl FnOnce()) -> f64 {
    let began = Instant::now();
    op();
    began.elapsed().as_secs_f64() * 1e6
}

/// Median latency in µs of a one-record `Wal::append_batch` (one write
/// and one fdatasync) of `record_bytes` bytes in a fresh log under
/// `dir`, which is on the filesystem the run's WAL used.
pub fn probe_fsync_us(dir: &Path, record_bytes: usize, appends: usize) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let stats = Arc::new(dt_wal::WalStats::default());
    let (mut wal, _) = dt_wal::Wal::open(dir, stats).expect("open the probe WAL");
    let payload = vec![vec![0xA5u8; record_bytes.max(1)]];
    let mut samples: Vec<f64> = (0..appends)
        .map(|_| {
            let began = Instant::now();
            wal.append_batch(&payload).expect("probe append");
            began.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    median(&mut samples)
}

/// Write every span of the run — the window's, built from its samples,
/// then the walk's — to `path` as one JSON document.
pub fn write_trace(path: &Path, workload: &str, m: &Measured) -> std::io::Result<()> {
    let mut spans: Vec<Span> = Vec::new();
    let mut push = |name: String, start: u64, end: u64, parent: u64, op: u64| -> u64 {
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            name,
            start,
            end,
            id,
            parent,
            op,
        });
        id
    };
    let mut op = 0u64;
    for w in &m.writes {
        op += 1;
        push("client.write".into(), w.sent, w.acked, 0, op);
    }
    for q in &m.queries {
        op += 1;
        let class = m.query_classes.get(q.class).copied().unwrap_or("");
        push(format!("client.query.{class}"), q.sent, q.recv, 0, op);
    }
    for r in &m.rounds {
        op += 1;
        let round = push("core.refresh.round".into(), r.start, r.end, 0, op);
        // The log says how long each DT's refresh took, the round report
        // when it installed; together they place the DT span.
        for entry in m.log.get(r.log_from..r.log_to).unwrap_or(&[]) {
            let Some((_, at)) = r.installs.iter().find(|(dt, _)| *dt == entry.dt) else {
                continue;
            };
            let name = m
                .dts
                .iter()
                .find(|(id, _, _)| *id == entry.dt)
                .map_or("?", |(_, n, _)| n);
            let end = r.start + at;
            push(
                format!("core.refresh.dt.{name}"),
                end.saturating_sub(entry.duration_micros * 1000),
                end,
                round,
                op,
            );
        }
    }
    // Walk spans keep their own parent links; shift ids past the
    // window's spans.
    if let Some(walk) = &m.walk {
        let base = spans.len() as u64;
        for s in &walk.spans {
            spans.push(Span {
                id: s.id + base,
                parent: if s.parent == 0 { 0 } else { s.parent + base },
                op: s.op + op,
                ..s.clone()
            });
        }
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        file,
        "{{\"workload\": \"{workload}\", \"unit\": \"us\", \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("name", Json::str(s.name.clone())),
            ("start", Json::Num(s.start as f64 / 1e3)),
            ("end", Json::Num(s.end as f64 / 1e3)),
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("op", Json::Num(s.op as f64)),
        ])
        .to_line();
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(file, "{line}{comma}")?;
    }
    writeln!(file, "]}}")?;
    file.flush()
}
