//! The protocol messages: handshake, requests, responses, typed errors.
//!
//! Layouts follow the [`dt_common::codec`] conventions (little-endian
//! scalars, length-prefixed strings/sequences, one-byte enum tags) and
//! are documented byte-for-byte in `docs/PROTOCOL.md`.

use std::sync::Arc;

use dt_common::codec::{
    get_rows, get_schema, get_values, put_rows, put_schema, put_values,
    DecodeError, DecodeResult, Reader, Writer,
};
use dt_common::{DtError, Row, Schema, Timestamp, Value};

/// The protocol version this crate speaks. Bumped on any layout change;
/// the handshake rejects mismatches with a typed error so old clients
/// fail loud, not weird.
pub const PROTOCOL_VERSION: u16 = 1;

/// The 4-byte magic opening every client hello: `b"DTWP"` (Dynamic
/// Tables Wire Protocol). Lets the server reject a peer that is not
/// speaking this protocol at all before trusting any further bytes.
pub const HELLO_MAGIC: [u8; 4] = *b"DTWP";

/// The client's first frame: magic plus the protocol version it speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the client proposes ([`PROTOCOL_VERSION`]).
    pub version: u16,
}

impl Hello {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(&HELLO_MAGIC);
        w.put_u16(self.version);
        w.into_bytes()
    }

    /// Decode a frame payload. Checks the magic but *not* the version —
    /// version policy belongs to the server, which answers a bad version
    /// with a typed error rather than a closed socket.
    pub fn decode(payload: &[u8]) -> DecodeResult<Hello> {
        let mut r = Reader::new(payload);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = r.get_u8()?;
        }
        if magic != HELLO_MAGIC {
            return Err(DecodeError(format!(
                "bad hello magic {magic:02x?} (expected {HELLO_MAGIC:02x?})"
            )));
        }
        let version = r.get_u16()?;
        r.finish()?;
        Ok(Hello { version })
    }
}

/// One client request. Every variant gets exactly one [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one SQL statement (query, DML, DDL, or transaction control —
    /// the server answers with whatever the statement produces).
    Query { sql: String },
    /// Time-travel query: run `sql` against the state as of `at`.
    QueryAt { sql: String, at: Timestamp },
    /// Prepare a statement; the response carries a connection-scoped id.
    Prepare { sql: String },
    /// Execute a previously prepared statement with positional `?`
    /// parameter bindings.
    ExecutePrepared { id: u64, params: Vec<Value> },
    /// Open a transaction on this connection's session.
    Begin,
    /// Commit the connection's open transaction.
    Commit,
    /// Roll back the connection's open transaction.
    Rollback,
    /// Telemetry: the same list `SHOW STATS` returns as rows.
    Stats,
    /// Orderly goodbye: the server answers [`Response::Goodbye`] and
    /// closes. Any open transaction rolls back.
    Close,
}

const REQ_QUERY: u8 = 0;
const REQ_QUERY_AT: u8 = 1;
const REQ_PREPARE: u8 = 2;
const REQ_EXECUTE_PREPARED: u8 = 3;
const REQ_BEGIN: u8 = 4;
const REQ_COMMIT: u8 = 5;
const REQ_ROLLBACK: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_CLOSE: u8 = 8;

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Query { sql } => {
                w.put_u8(REQ_QUERY);
                w.put_str(sql);
            }
            Request::QueryAt { sql, at } => {
                w.put_u8(REQ_QUERY_AT);
                w.put_str(sql);
                w.put_i64(at.as_micros());
            }
            Request::Prepare { sql } => {
                w.put_u8(REQ_PREPARE);
                w.put_str(sql);
            }
            Request::ExecutePrepared { id, params } => {
                w.put_u8(REQ_EXECUTE_PREPARED);
                w.put_u64(*id);
                put_values(&mut w, params);
            }
            Request::Begin => w.put_u8(REQ_BEGIN),
            Request::Commit => w.put_u8(REQ_COMMIT),
            Request::Rollback => w.put_u8(REQ_ROLLBACK),
            Request::Stats => w.put_u8(REQ_STATS),
            Request::Close => w.put_u8(REQ_CLOSE),
        }
        w.into_bytes()
    }

    /// Decode a frame payload (strict: trailing bytes are malformed).
    pub fn decode(payload: &[u8]) -> DecodeResult<Request> {
        let mut r = Reader::new(payload);
        let req = match r.get_u8()? {
            REQ_QUERY => Request::Query { sql: r.get_str()? },
            REQ_QUERY_AT => Request::QueryAt {
                sql: r.get_str()?,
                at: Timestamp::from_micros(r.get_i64()?),
            },
            REQ_PREPARE => Request::Prepare { sql: r.get_str()? },
            REQ_EXECUTE_PREPARED => Request::ExecutePrepared {
                id: r.get_u64()?,
                params: get_values(&mut r)?,
            },
            REQ_BEGIN => Request::Begin,
            REQ_COMMIT => Request::Commit,
            REQ_ROLLBACK => Request::Rollback,
            REQ_STATS => Request::Stats,
            REQ_CLOSE => Request::Close,
            tag => {
                return Err(DecodeError(format!(
                    "unknown request tag {tag:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(req)
    }
}

/// A query result shipped over the wire: schema plus rows. The remote
/// twin of `dt_core::QueryResult`, defined here so `dt-client` needs no
/// engine dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteRows {
    schema: Arc<Schema>,
    rows: Vec<Row>,
}

impl RemoteRows {
    /// Build from a schema and rows.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Self {
        RemoteRows { schema, rows }
    }

    /// The output schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Borrow the rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Consume into the row vector.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Consume into sorted rows (deterministic comparisons in tests).
    pub fn into_sorted_rows(self) -> Vec<Row> {
        let mut rows = self.rows;
        rows.sort();
        rows
    }
}

impl<'a> IntoIterator for &'a RemoteRows {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// Telemetry as `(name, value)` pairs, in the order the server listed
/// them: the answer to [`Request::Stats`]. The server sends
/// `dt_core::Engine::stats`, whose rustdoc says what each name counts.
/// Decoding keeps every pair, names this build does not know included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats(Vec<(String, u64)>);

impl Stats {
    /// The value of the counter `name`, if the server reported one.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The pairs, in the server's order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }

    fn put(&self, w: &mut Writer) {
        w.put_len(self.0.len());
        for (name, v) in self.iter() {
            w.put_str(name);
            w.put_u64(v);
        }
    }

    fn read(r: &mut Reader<'_>) -> DecodeResult<Stats> {
        // Each pair is at least a 4-byte name length + 8-byte value.
        let n = r.get_len(12)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push((r.get_str()?, r.get_u64()?));
        }
        Ok(Stats(pairs))
    }
}

impl<N: Into<String>> FromIterator<(N, u64)> for Stats {
    fn from_iter<I: IntoIterator<Item = (N, u64)>>(pairs: I) -> Self {
        Stats(pairs.into_iter().map(|(n, v)| (n.into(), v)).collect())
    }
}

/// A typed protocol-level failure, distinct from engine errors so remote
/// callers can program against each class: engine errors (including
/// retryable [`DtError::Conflict`]) leave the connection usable,
/// [`WireError::ServerBusy`] says "come back later", and protocol
/// violations mean the stream can no longer be trusted.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The engine rejected the statement; the connection stays usable.
    /// Conflicts arrive here as `DtError::Conflict`, so remote retry
    /// loops classify exactly like local ones.
    Engine(DtError),
    /// Admission control: the server is at its connection limit.
    ServerBusy {
        /// Connections currently active.
        active: u32,
        /// The configured limit.
        limit: u32,
    },
    /// The peer violated the framing or message layout; the server
    /// answers (when the framing still permits) and closes.
    Protocol(String),
    /// The server is draining for shutdown.
    ShuttingDown,
}

const ERR_ENGINE: u8 = 0;
const ERR_BUSY: u8 = 1;
const ERR_PROTOCOL: u8 = 2;
const ERR_SHUTTING_DOWN: u8 = 3;

impl WireError {
    /// True when this is a retryable engine serialization conflict.
    pub fn is_conflict(&self) -> bool {
        matches!(self, WireError::Engine(e) if e.is_conflict())
    }

    fn put(&self, w: &mut Writer) {
        match self {
            WireError::Engine(e) => {
                w.put_u8(ERR_ENGINE);
                put_dt_error(w, e);
            }
            WireError::ServerBusy { active, limit } => {
                w.put_u8(ERR_BUSY);
                w.put_u32(*active);
                w.put_u32(*limit);
            }
            WireError::Protocol(m) => {
                w.put_u8(ERR_PROTOCOL);
                w.put_str(m);
            }
            WireError::ShuttingDown => w.put_u8(ERR_SHUTTING_DOWN),
        }
    }

    fn get(r: &mut Reader<'_>) -> DecodeResult<WireError> {
        Ok(match r.get_u8()? {
            ERR_ENGINE => WireError::Engine(get_dt_error(r)?),
            ERR_BUSY => WireError::ServerBusy {
                active: r.get_u32()?,
                limit: r.get_u32()?,
            },
            ERR_PROTOCOL => WireError::Protocol(r.get_str()?),
            ERR_SHUTTING_DOWN => WireError::ShuttingDown,
            tag => {
                return Err(DecodeError(format!(
                    "unknown error tag {tag:#04x}"
                )))
            }
        })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Engine(e) => write!(f, "{e}"),
            WireError::ServerBusy { active, limit } => {
                write!(f, "server busy: {active}/{limit} connections in use")
            }
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
            WireError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for WireError {}

/// One server response. Mirrors `dt_core::ExecResult` plus the
/// protocol-only outcomes (handshake, prepared handles, stats, errors).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted; the version the server will speak.
    Hello { version: u16 },
    /// DDL/utility success message.
    Ok(String),
    /// DML row count.
    Count(u64),
    /// Query rows with their schema.
    Rows(RemoteRows),
    /// A prepared statement handle: connection-scoped id plus the number
    /// of `?` parameters the statement expects.
    Prepared { id: u64, params: u16 },
    /// Telemetry: `(name, value)` pairs.
    Stats(Stats),
    /// The request failed. Engine errors leave the connection usable.
    Err(WireError),
    /// Orderly close acknowledgment; the server closes after sending.
    Goodbye,
}

const RESP_HELLO: u8 = 0;
const RESP_OK: u8 = 1;
const RESP_COUNT: u8 = 2;
const RESP_ROWS: u8 = 3;
const RESP_PREPARED: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_ERR: u8 = 6;
const RESP_GOODBYE: u8 = 7;

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Hello { version } => {
                w.put_u8(RESP_HELLO);
                w.put_u16(*version);
            }
            Response::Ok(m) => {
                w.put_u8(RESP_OK);
                w.put_str(m);
            }
            Response::Count(n) => {
                w.put_u8(RESP_COUNT);
                w.put_u64(*n);
            }
            Response::Rows(rows) => {
                w.put_u8(RESP_ROWS);
                put_schema(&mut w, rows.schema());
                put_rows(&mut w, rows.rows());
            }
            Response::Prepared { id, params } => {
                w.put_u8(RESP_PREPARED);
                w.put_u64(*id);
                w.put_u16(*params);
            }
            Response::Stats(s) => {
                w.put_u8(RESP_STATS);
                s.put(&mut w);
            }
            Response::Err(e) => {
                w.put_u8(RESP_ERR);
                e.put(&mut w);
            }
            Response::Goodbye => w.put_u8(RESP_GOODBYE),
        }
        w.into_bytes()
    }

    /// Decode a frame payload (strict: trailing bytes are malformed).
    pub fn decode(payload: &[u8]) -> DecodeResult<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.get_u8()? {
            RESP_HELLO => Response::Hello {
                version: r.get_u16()?,
            },
            RESP_OK => Response::Ok(r.get_str()?),
            RESP_COUNT => Response::Count(r.get_u64()?),
            RESP_ROWS => {
                let schema = Arc::new(get_schema(&mut r)?);
                let rows = get_rows(&mut r)?;
                for (i, row) in rows.iter().enumerate() {
                    if row.len() != schema.len() {
                        return Err(DecodeError(format!(
                            "row {i} has {} value(s), schema has {} column(s)",
                            row.len(),
                            schema.len()
                        )));
                    }
                }
                Response::Rows(RemoteRows::new(schema, rows))
            }
            RESP_PREPARED => Response::Prepared {
                id: r.get_u64()?,
                params: r.get_u16()?,
            },
            RESP_STATS => Response::Stats(Stats::read(&mut r)?),
            RESP_ERR => Response::Err(WireError::get(&mut r)?),
            RESP_GOODBYE => Response::Goodbye,
            tag => {
                return Err(DecodeError(format!(
                    "unknown response tag {tag:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// DtError over the wire: every variant round-trips so remote callers see
// the same typed errors local ones do.
// ---------------------------------------------------------------------------

const DTERR_LEX: u8 = 0;
const DTERR_PARSE: u8 = 1;
const DTERR_BINDING: u8 = 2;
const DTERR_UNSUPPORTED: u8 = 3;
const DTERR_TYPE: u8 = 4;
const DTERR_EVALUATION: u8 = 5;
const DTERR_CATALOG: u8 = 6;
const DTERR_ACCESS_DENIED: u8 = 7;
const DTERR_STORAGE: u8 = 8;
const DTERR_TXN: u8 = 9;
const DTERR_CONFLICT: u8 = 10;
const DTERR_NOT_INITIALIZED: u8 = 11;
const DTERR_SUSPENDED: u8 = 12;
const DTERR_VERSION_NOT_FOUND: u8 = 13;
const DTERR_IVM_INVARIANT: u8 = 14;
const DTERR_INTERNAL: u8 = 15;
const DTERR_IO: u8 = 16;
const DTERR_CORRUPTION: u8 = 17;
const DTERR_DEADLOCK: u8 = 18;

/// Encode a [`DtError`].
pub fn put_dt_error(w: &mut Writer, e: &DtError) {
    match e {
        DtError::Lex { pos, message } => {
            w.put_u8(DTERR_LEX);
            w.put_u64(*pos as u64);
            w.put_str(message);
        }
        DtError::Parse { pos, message } => {
            w.put_u8(DTERR_PARSE);
            w.put_u64(*pos as u64);
            w.put_str(message);
        }
        DtError::Binding(m) => {
            w.put_u8(DTERR_BINDING);
            w.put_str(m);
        }
        DtError::Unsupported(m) => {
            w.put_u8(DTERR_UNSUPPORTED);
            w.put_str(m);
        }
        DtError::Type(m) => {
            w.put_u8(DTERR_TYPE);
            w.put_str(m);
        }
        DtError::Evaluation(m) => {
            w.put_u8(DTERR_EVALUATION);
            w.put_str(m);
        }
        DtError::Catalog(m) => {
            w.put_u8(DTERR_CATALOG);
            w.put_str(m);
        }
        DtError::AccessDenied { privilege, entity } => {
            w.put_u8(DTERR_ACCESS_DENIED);
            w.put_str(privilege);
            w.put_str(entity);
        }
        DtError::Storage(m) => {
            w.put_u8(DTERR_STORAGE);
            w.put_str(m);
        }
        DtError::Txn(m) => {
            w.put_u8(DTERR_TXN);
            w.put_str(m);
        }
        DtError::Conflict(m) => {
            w.put_u8(DTERR_CONFLICT);
            w.put_str(m);
        }
        DtError::NotInitialized(m) => {
            w.put_u8(DTERR_NOT_INITIALIZED);
            w.put_str(m);
        }
        DtError::Suspended(m) => {
            w.put_u8(DTERR_SUSPENDED);
            w.put_str(m);
        }
        DtError::VersionNotFound { entity, refresh_ts } => {
            w.put_u8(DTERR_VERSION_NOT_FOUND);
            w.put_str(entity);
            w.put_i64(*refresh_ts);
        }
        DtError::IvmInvariant(m) => {
            w.put_u8(DTERR_IVM_INVARIANT);
            w.put_str(m);
        }
        DtError::Internal(m) => {
            w.put_u8(DTERR_INTERNAL);
            w.put_str(m);
        }
        DtError::Io(m) => {
            w.put_u8(DTERR_IO);
            w.put_str(m);
        }
        DtError::Corruption(m) => {
            w.put_u8(DTERR_CORRUPTION);
            w.put_str(m);
        }
        DtError::Deadlock(m) => {
            w.put_u8(DTERR_DEADLOCK);
            w.put_str(m);
        }
    }
}

/// Decode a [`DtError`].
pub fn get_dt_error(r: &mut Reader<'_>) -> DecodeResult<DtError> {
    Ok(match r.get_u8()? {
        DTERR_LEX => DtError::Lex {
            pos: r.get_u64()? as usize,
            message: r.get_str()?,
        },
        DTERR_PARSE => DtError::Parse {
            pos: r.get_u64()? as usize,
            message: r.get_str()?,
        },
        DTERR_BINDING => DtError::Binding(r.get_str()?),
        DTERR_UNSUPPORTED => DtError::Unsupported(r.get_str()?),
        DTERR_TYPE => DtError::Type(r.get_str()?),
        DTERR_EVALUATION => DtError::Evaluation(r.get_str()?),
        DTERR_CATALOG => DtError::Catalog(r.get_str()?),
        DTERR_ACCESS_DENIED => DtError::AccessDenied {
            privilege: r.get_str()?,
            entity: r.get_str()?,
        },
        DTERR_STORAGE => DtError::Storage(r.get_str()?),
        DTERR_TXN => DtError::Txn(r.get_str()?),
        DTERR_CONFLICT => DtError::Conflict(r.get_str()?),
        DTERR_NOT_INITIALIZED => DtError::NotInitialized(r.get_str()?),
        DTERR_SUSPENDED => DtError::Suspended(r.get_str()?),
        DTERR_VERSION_NOT_FOUND => DtError::VersionNotFound {
            entity: r.get_str()?,
            refresh_ts: r.get_i64()?,
        },
        DTERR_IVM_INVARIANT => DtError::IvmInvariant(r.get_str()?),
        DTERR_INTERNAL => DtError::Internal(r.get_str()?),
        DTERR_IO => DtError::Io(r.get_str()?),
        DTERR_CORRUPTION => DtError::Corruption(r.get_str()?),
        DTERR_DEADLOCK => DtError::Deadlock(r.get_str()?),
        tag => {
            return Err(DecodeError(format!(
                "unknown DtError tag {tag:#04x}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{Column, DataType};

    fn round_trip_request(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_magic() {
        let h = Hello {
            version: PROTOCOL_VERSION,
        };
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
        let mut bytes = h.encode();
        bytes[0] = b'X';
        assert!(Hello::decode(&bytes).is_err());
        assert!(Hello::decode(&bytes[..3]).is_err());
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            sql: "SELECT 1".into(),
        });
        round_trip_request(Request::QueryAt {
            sql: "SELECT * FROM t".into(),
            at: Timestamp::from_secs(42),
        });
        round_trip_request(Request::Prepare {
            sql: "SELECT * FROM t WHERE k = ?".into(),
        });
        round_trip_request(Request::ExecutePrepared {
            id: 7,
            params: vec![Value::Int(1), Value::Null, Value::Str("x".into())],
        });
        round_trip_request(Request::Begin);
        round_trip_request(Request::Commit);
        round_trip_request(Request::Rollback);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Close);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Hello { version: 1 });
        round_trip_response(Response::Ok("table created".into()));
        round_trip_response(Response::Count(99));
        let schema = Arc::new(Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("s", DataType::Str),
        ]));
        round_trip_response(Response::Rows(RemoteRows::new(
            schema,
            vec![
                Row::new(vec![Value::Int(1), Value::Str("a".into())]),
                Row::new(vec![Value::Int(2), Value::Null]),
            ],
        )));
        round_trip_response(Response::Prepared { id: 3, params: 2 });
        round_trip_response(Response::Stats(Stats::from_iter([
            ("active_connections", 4),
            ("commits", 55),
            ("wal_bytes", 65536),
        ])));
        round_trip_response(Response::Goodbye);
    }

    #[test]
    fn every_dt_error_variant_round_trips() {
        let errors = vec![
            DtError::Lex {
                pos: 3,
                message: "bad char".into(),
            },
            DtError::Parse {
                pos: 9,
                message: "expected FROM".into(),
            },
            DtError::Binding("unknown column".into()),
            DtError::Unsupported("no window functions".into()),
            DtError::Type("INT vs STR".into()),
            DtError::Evaluation("division by zero".into()),
            DtError::Catalog("duplicate table".into()),
            DtError::AccessDenied {
                privilege: "SELECT".into(),
                entity: "t".into(),
            },
            DtError::Storage("missing version".into()),
            DtError::Txn("stray COMMIT".into()),
            DtError::Conflict("first committer wins".into()),
            DtError::NotInitialized("dt1".into()),
            DtError::Suspended("dt2".into()),
            DtError::VersionNotFound {
                entity: "orders".into(),
                refresh_ts: -5,
            },
            DtError::IvmInvariant("dup row id".into()),
            DtError::Internal("bug".into()),
            DtError::Io("fsync failed".into()),
            DtError::Corruption("bad record crc".into()),
            DtError::Deadlock("t1 waits on e2 held by t2".into()),
        ];
        for e in errors {
            let resp = Response::Err(WireError::Engine(e.clone()));
            let bytes = resp.encode();
            let back = Response::decode(&bytes).unwrap();
            let Response::Err(WireError::Engine(got)) = back else {
                panic!("wrong response shape for {e:?}");
            };
            assert_eq!(got, e);
            // Conflicts and deadlocks stay classifiable across the wire.
            assert_eq!(got.is_conflict(), e.is_conflict());
            assert_eq!(got.is_deadlock(), e.is_deadlock());
        }
    }

    #[test]
    fn wire_error_variants_round_trip() {
        for e in [
            WireError::ServerBusy {
                active: 8,
                limit: 8,
            },
            WireError::Protocol("oversized frame".into()),
            WireError::ShuttingDown,
        ] {
            let bytes = Response::Err(e.clone()).encode();
            assert_eq!(Response::decode(&bytes).unwrap(), Response::Err(e));
        }
    }

    #[test]
    fn rows_with_schema_mismatch_are_rejected() {
        let schema = Arc::new(Schema::new(vec![Column::new("k", DataType::Int)]));
        let resp = Response::Rows(RemoteRows::new(
            schema,
            vec![Row::new(vec![Value::Int(1), Value::Int(2)])],
        ));
        // Encoding is mechanical; the *decoder* enforces row arity.
        assert!(Response::decode(&resp.encode()).is_err());
    }

    #[test]
    fn stats_tolerate_unknown_fields() {
        // A name this build has never heard of decodes intact, in place.
        let stats = Stats::from_iter([("commits", 7), ("a_future_counter", 123), ("deadlocks", 0)]);
        let bytes = Response::Stats(stats.clone()).encode();
        // The layout: tag, pair count, then (name: str, value: u64) pairs.
        let mut w = Writer::new();
        w.put_u8(RESP_STATS);
        w.put_len(3);
        for (name, v) in [("commits", 7), ("a_future_counter", 123), ("deadlocks", 0)] {
            w.put_str(name);
            w.put_u64(v);
        }
        assert_eq!(bytes, w.into_bytes());
        let Response::Stats(back) = Response::decode(&bytes).unwrap() else {
            panic!("wrong response shape");
        };
        assert_eq!(back, stats);
        assert_eq!(back.get("a_future_counter"), Some(123));
        assert_eq!(back.get("commits"), Some(7));
        assert_eq!(back.get("no_such_counter"), None);
        let names: Vec<&str> = back.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["commits", "a_future_counter", "deadlocks"]);
    }
}
