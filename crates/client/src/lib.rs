//! Blocking client for the dt wire protocol.
//!
//! [`Client`] speaks the framed protocol defined in `dt-wire` over a
//! plain `std::net::TcpStream` — no async runtime, no engine
//! dependency. It is deliberately thin: one in-flight request at a
//! time, one response per request, errors surfaced as typed
//! [`ClientError`]s so callers can distinguish *retry the transaction*
//! ([`ClientError::is_conflict`]) from *retry the connection*
//! ([`ClientError::is_busy`]) from *give up*.
//!
//! ```no_run
//! use dt_client::Client;
//!
//! let mut client = Client::connect("127.0.0.1:4443")?;
//! client.execute("CREATE TABLE t (x INT)")?;
//! client.execute("INSERT INTO t VALUES (1), (2)")?;
//! let rows = client.query("SELECT x FROM t ORDER BY x")?;
//! assert_eq!(rows.len(), 2);
//! # Ok::<(), dt_client::ClientError>(())
//! ```
//!
//! Transactions work exactly like local sessions — `begin`, do work,
//! `commit`, and on [`ClientError::is_conflict`] roll back and retry.
//! [`Client::run_txn`] packages that loop.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

use dt_common::{DtError, Timestamp, Value};
use dt_wire::{
    read_frame, write_frame, FrameError, Hello, RemoteRows, Request, Response, Stats, WireError,
    DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// The engine reported an error executing the request. Inspect the
    /// inner [`DtError`] — [`ClientError::is_conflict`] is the common
    /// dispatch for optimistic retry loops.
    Engine(DtError),
    /// The server is at its connection limit; back off and reconnect.
    Busy {
        /// Connections active when the server turned this one away.
        active: u32,
        /// The server's connection limit.
        limit: u32,
    },
    /// The server is shutting down; reconnect later.
    ShuttingDown,
    /// One side violated the wire protocol (bad frame, bad version,
    /// unexpected response kind). The connection is not reusable.
    Protocol(String),
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The server closed the connection where a response was expected.
    Closed,
}

impl ClientError {
    /// True when the failure is an optimistic-concurrency conflict: roll
    /// back and retry the transaction.
    pub fn is_conflict(&self) -> bool {
        matches!(self, ClientError::Engine(e) if e.is_conflict())
    }

    /// True when the server refused the connection for capacity reasons.
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Busy { .. })
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Engine(e) => write!(f, "engine error: {e}"),
            ClientError::Busy { active, limit } => {
                write!(f, "server busy: {active}/{limit} connections")
            }
            ClientError::ShuttingDown => write!(f, "server is shutting down"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Closed => write!(f, "connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::TooLarge { len, max } => {
                ClientError::Protocol(format!("frame length {len} exceeds cap {max}"))
            }
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Engine(e) => ClientError::Engine(e),
            WireError::ServerBusy { active, limit } => ClientError::Busy { active, limit },
            WireError::Protocol(msg) => ClientError::Protocol(msg),
            WireError::ShuttingDown => ClientError::ShuttingDown,
        }
    }
}

/// Convenience alias for client results.
pub type ClientResult<T> = Result<T, ClientError>;

/// Outcome of a statement that is not a row-returning query — mirrors
/// the engine's `ExecResult` across the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The statement returned rows.
    Rows(RemoteRows),
    /// The statement succeeded with a status message (DDL, BEGIN, ...).
    Ok(String),
    /// The statement affected this many rows (DML).
    Count(u64),
}

impl Outcome {
    /// Affected-row count, or 0 for non-DML outcomes.
    pub fn count(&self) -> u64 {
        match self {
            Outcome::Count(n) => *n,
            _ => 0,
        }
    }
}

/// A statement prepared on the server, addressable by id for the
/// lifetime of the connection that prepared it.
#[derive(Debug, Clone, Copy)]
pub struct Prepared {
    id: u64,
    params: u16,
}

impl Prepared {
    /// The server-assigned statement id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of `?` parameters the statement expects.
    pub fn param_count(&self) -> usize {
        self.params as usize
    }
}

/// A blocking connection to a dt server: one request in flight at a
/// time, typed responses, typed errors.
pub struct Client {
    stream: TcpStream,
    max_frame_len: u32,
}

impl Client {
    /// Connect and perform the protocol handshake. Fails with
    /// [`ClientError::Busy`] when the server is at its connection limit
    /// and [`ClientError::Protocol`] on a version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        Client::connect_with_frame_cap(addr, DEFAULT_MAX_FRAME_LEN)
    }

    /// [`Client::connect`] with an explicit cap on response frame size.
    pub fn connect_with_frame_cap(
        addr: impl ToSocketAddrs,
        max_frame_len: u32,
    ) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            stream,
            max_frame_len,
        };
        let hello = Hello {
            version: PROTOCOL_VERSION,
        };
        // If the server already turned us away (e.g. ServerBusy), our
        // hello write can fail with a broken pipe while its answer sits
        // in the receive buffer — so read first, report the write
        // failure only when there was no answer to prefer.
        let wrote = write_frame(&mut client.stream, &hello.encode())
            .and_then(|()| client.stream.flush());
        let response = match client.read_response() {
            Ok(response) => response,
            Err(read_err) => {
                wrote?;
                return Err(read_err);
            }
        };
        match response {
            Response::Hello { version } if version == PROTOCOL_VERSION => Ok(client),
            Response::Hello { version } => Err(ClientError::Protocol(format!(
                "server speaks protocol version {version}, client speaks {PROTOCOL_VERSION}"
            ))),
            Response::Err(e) => Err(e.into()),
            other => Err(ClientError::Protocol(format!(
                "unexpected handshake response: {other:?}"
            ))),
        }
    }

    fn read_response(&mut self) -> ClientResult<Response> {
        let payload =
            read_frame(&mut self.stream, self.max_frame_len)?.ok_or(ClientError::Closed)?;
        Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Send one request, read one response. `Response::Err` frames are
    /// converted to typed [`ClientError`]s here, so every public method
    /// only ever sees success-shaped responses.
    fn round_trip(&mut self, request: &Request) -> ClientResult<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        self.stream.flush()?;
        match self.read_response()? {
            Response::Err(e) => Err(e.into()),
            response => Ok(response),
        }
    }

    fn expect_outcome(response: Response) -> ClientResult<Outcome> {
        match response {
            Response::Rows(rows) => Ok(Outcome::Rows(rows)),
            Response::Ok(msg) => Ok(Outcome::Ok(msg)),
            Response::Count(n) => Ok(Outcome::Count(n)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    fn expect_rows(response: Response) -> ClientResult<RemoteRows> {
        match Self::expect_outcome(response)? {
            Outcome::Rows(rows) => Ok(rows),
            other => Err(ClientError::Protocol(format!(
                "statement did not return rows: {other:?}"
            ))),
        }
    }

    /// Run a row-returning statement and collect its rows.
    pub fn query(&mut self, sql: &str) -> ClientResult<RemoteRows> {
        let response = self.round_trip(&Request::Query { sql: sql.into() })?;
        Self::expect_rows(response)
    }

    /// Run a query against the database as of `at` (time travel).
    pub fn query_at(&mut self, sql: &str, at: Timestamp) -> ClientResult<RemoteRows> {
        let response = self.round_trip(&Request::QueryAt {
            sql: sql.into(),
            at,
        })?;
        Self::expect_rows(response)
    }

    /// Run any statement; DDL and DML return their status / row count.
    pub fn execute(&mut self, sql: &str) -> ClientResult<Outcome> {
        let response = self.round_trip(&Request::Query { sql: sql.into() })?;
        Self::expect_outcome(response)
    }

    /// Prepare a statement with `?` placeholders on the server.
    pub fn prepare(&mut self, sql: &str) -> ClientResult<Prepared> {
        match self.round_trip(&Request::Prepare { sql: sql.into() })? {
            Response::Prepared { id, params } => Ok(Prepared { id, params }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to prepare: {other:?}"
            ))),
        }
    }

    /// Execute a prepared statement with bound parameter values.
    pub fn execute_prepared(&mut self, stmt: Prepared, params: &[Value]) -> ClientResult<Outcome> {
        let response = self.round_trip(&Request::ExecutePrepared {
            id: stmt.id,
            params: params.to_vec(),
        })?;
        Self::expect_outcome(response)
    }

    /// Execute a prepared query and collect its rows.
    pub fn query_prepared(
        &mut self,
        stmt: Prepared,
        params: &[Value],
    ) -> ClientResult<RemoteRows> {
        let response = self.round_trip(&Request::ExecutePrepared {
            id: stmt.id,
            params: params.to_vec(),
        })?;
        Self::expect_rows(response)
    }

    /// Open an explicit transaction on this connection's session.
    pub fn begin(&mut self) -> ClientResult<()> {
        let response = self.round_trip(&Request::Begin)?;
        Self::expect_outcome(response).map(|_| ())
    }

    /// Commit the open transaction. A [`ClientError::is_conflict`] error
    /// means first-committer-wins validation failed: roll back and retry.
    pub fn commit(&mut self) -> ClientResult<()> {
        let response = self.round_trip(&Request::Commit)?;
        Self::expect_outcome(response).map(|_| ())
    }

    /// Roll back the open transaction.
    pub fn rollback(&mut self) -> ClientResult<()> {
        let response = self.round_trip(&Request::Rollback)?;
        Self::expect_outcome(response).map(|_| ())
    }

    /// Run `body` inside a transaction, retrying the whole transaction on
    /// commit/statement conflicts up to `max_attempts` times — the remote
    /// mirror of the engine's optimistic-retry idiom.
    ///
    /// `body` gets the client back and must stay on this connection. A
    /// non-conflict error aborts immediately (after a best-effort
    /// rollback). Returns the body's value from the attempt that
    /// committed.
    pub fn run_txn<T>(
        &mut self,
        max_attempts: usize,
        mut body: impl FnMut(&mut Client) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let mut last_conflict: Option<ClientError> = None;
        for attempt in 0..max_attempts {
            self.begin()?;
            match body(self).and_then(|value| self.commit().map(|_| value)) {
                Ok(value) => return Ok(value),
                Err(e) if e.is_conflict() => {
                    // The engine aborts the conflicting txn itself, but a
                    // mid-body conflict may leave the session txn open.
                    self.rollback().ok();
                    last_conflict = Some(e);
                    // Without a wait the loser re-enters one round trip
                    // behind the winner every time and keeps losing.
                    dt_common::retry_backoff(attempt);
                }
                Err(e) => {
                    self.rollback().ok();
                    return Err(e);
                }
            }
        }
        Err(last_conflict.unwrap_or_else(|| {
            ClientError::Protocol("run_txn called with max_attempts = 0".into())
        }))
    }

    /// Fetch the server's telemetry: the `(name, value)` list `SHOW STATS`
    /// returns as rows (`dt_core::Engine::stats` says what each name
    /// counts). Look a counter up with [`Stats::get`].
    pub fn stats(&mut self) -> ClientResult<Stats> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to stats: {other:?}"
            ))),
        }
    }

    /// Politely end the session: the server answers `Goodbye`, rolls back
    /// any open transaction, and closes the connection.
    pub fn close(mut self) -> ClientResult<()> {
        match self.round_trip(&Request::Close)? {
            Response::Goodbye => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to close: {other:?}"
            ))),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}
