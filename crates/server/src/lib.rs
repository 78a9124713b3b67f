//! The network front end: a framed wire-protocol server over TCP.
//!
//! Everything the engine can do in-process — queries, prepared
//! statements with `?` parameters, `BEGIN`/`COMMIT`/`ROLLBACK`
//! transactions, time travel, telemetry — becomes reachable over a
//! socket. The design leans on two properties the engine already
//! guarantees:
//!
//! * [`Engine`] is `Clone + Send + Sync`: every connection thread holds
//!   its own cheap handle to one shared engine.
//! * [`Session`] methods are `&self` and sessions are independent: one
//!   session per connection gives each remote peer its own role,
//!   variables, prepared-statement cache, and transaction scope — the
//!   same isolation local callers get.
//!
//! **Threading model.** One OS thread per connection over
//! `std::net::TcpListener` (the build environment has no registry
//! access, so no tokio; the paper's service is session-threaded too).
//! An accept thread admits connections under a configurable limit —
//! the N+1th connection is answered with a typed
//! [`WireError::ServerBusy`] frame and closed, never left hanging.
//!
//! **Connection lifecycle.** Handshake (magic + protocol version,
//! answered with [`Response::Hello`] or a typed protocol error), then a
//! request/response loop. Sockets are polled with a short read timeout
//! so every connection keeps enforcing its idle timeout and observing
//! shutdown without losing partial frames ([`dt_wire::FrameReader`]).
//! Frame sizes are capped in both directions before any allocation.
//!
//! **Failure semantics.** Engine errors (including retryable
//! [`dt_common::DtError::Conflict`]) are answered in-band and leave the
//! connection usable. Protocol violations (bad magic, oversized or
//! malformed frames) are answered with a typed error where framing
//! still permits, then the connection closes — the server never panics
//! on hostile bytes. When a connection drops — cleanly or not — its
//! session is dropped, which rolls back any open transaction: no
//! admission lock or `TxnManager` state can leak past a disconnect.
//!
//! **Shutdown.** [`Server::shutdown`] stops admitting, nudges the
//! accept loop awake, lets every connection finish the request it is
//! processing (in-flight requests drain; the next poll observes the
//! flag), then joins all threads. Open transactions of still-connected
//! peers roll back via the same session-drop path.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dt_core::{ConnectionStats, Engine, ExecResult, Session, Statement};
use dt_wire::{
    write_frame, FrameError, FrameReader, Hello, Poll, RemoteRows, Request, Response, WireError,
    PROTOCOL_VERSION,
};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently admitted connections; the next one is
    /// answered with [`WireError::ServerBusy`] and closed.
    pub max_connections: usize,
    /// A connection that sends no complete request for this long is
    /// answered with a typed protocol error and closed. Also bounds how
    /// long a peer may dawdle over the handshake.
    pub idle_timeout: Duration,
    /// Per-frame payload cap, enforced before any allocation on both
    /// received and sent frames.
    pub max_frame_len: u32,
    /// Socket read-poll granularity: how often an idle connection wakes
    /// to check its idle timeout and the shutdown flag. Latency of
    /// shutdown and idle enforcement, not of requests.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            max_frame_len: dt_wire::DEFAULT_MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// State shared between the accept loop and connections. The connection
/// counters live on the engine ([`Engine::connections`]), so `SHOW STATS`
/// lists them with the engine's own.
struct Shared {
    engine: Engine,
    config: ServerConfig,
    shutdown: AtomicBool,
}

/// A running wire-protocol server. Dropping it (or calling
/// [`Server::shutdown`]) drains and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `engine`. Returns once the listener is live; the accept loop and
    /// all connections run on background threads.
    pub fn bind(
        engine: Engine,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("dt-server-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on (resolves ephemeral
    /// ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently admitted.
    pub fn active_connections(&self) -> usize {
        self.shared.engine.connections().active.load(Ordering::Relaxed)
    }

    /// The connection counters, as the engine keeps them; `SHOW STATS`
    /// lists them with every other counter.
    pub fn stats(&self) -> ConnectionStats {
        self.shared.engine.connection_stats()
    }

    /// Graceful shutdown: stop admitting, let every connection finish
    /// its in-flight request, roll back transactions left open by
    /// still-connected peers (their sessions drop), and join all
    /// threads. Also runs on `Drop`; returns when fully drained.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept`; poke it awake. The
        // throwaway connection is answered with `ShuttingDown`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_inner();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("connections", &self.stats())
            .finish()
    }
}

/// Decrements the active-connection count when a connection thread
/// exits, however it exits (panic-safe: runs during unwind too).
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.engine.connections().active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            answer_and_close(stream, &WireError::ShuttingDown);
            break;
        }
        // Admission control: claim a slot or reject with a typed frame.
        let limit = shared.config.max_connections;
        let conns = shared.engine.connections();
        let mut admitted = false;
        loop {
            let cur = conns.active.load(Ordering::SeqCst);
            if cur >= limit {
                break;
            }
            if conns
                .active
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                admitted = true;
                break;
            }
        }
        if !admitted {
            conns.rejected.fetch_add(1, Ordering::Relaxed);
            let active = conns.active.load(Ordering::SeqCst) as u32;
            let busy = WireError::ServerBusy {
                active,
                limit: limit as u32,
            };
            // Detached: the rejection drain must not stall admissions.
            let _ = std::thread::Builder::new()
                .name("dt-server-reject".into())
                .spawn(move || answer_and_close(stream, &busy));
            continue;
        }
        conns.total.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("dt-server-conn".into())
            .spawn(move || {
                let _guard = ConnGuard(Arc::clone(&conn_shared));
                serve_connection(stream, conn_shared);
            });
        match handle {
            Ok(h) => conn_threads.push(h),
            // Spawn failed: the guard never ran, release the slot here.
            Err(_) => {
                conns.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
        // Reap finished threads so a long-lived server doesn't
        // accumulate handles.
        conn_threads.retain(|h| !h.is_finished());
    }
    for h in conn_threads {
        let _ = h.join();
    }
}

/// Best-effort single-frame answer on a connection being turned away
/// (busy / shutting down). Errors are ignored: the peer may already be
/// gone, and the connection was never admitted. Half-closes and then
/// drains the peer's in-flight bytes (its `Hello` is likely mid-flight)
/// so closing the socket doesn't RST the answer away before the peer
/// reads it.
fn answer_and_close(stream: TcpStream, err: &WireError) {
    use std::io::Read;
    let mut stream = stream;
    let _ = write_frame(&mut stream, &Response::Err(err.clone()).encode());
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Outcome of handling one request: the response, plus whether the
/// connection should close after sending it.
struct Handled {
    response: Response,
    close: bool,
}

impl Handled {
    fn reply(response: Response) -> Handled {
        Handled {
            response,
            close: false,
        }
    }

    fn last(response: Response) -> Handled {
        Handled {
            response,
            close: true,
        }
    }
}

/// Per-connection state: the engine session (role, variables, open
/// transaction) plus the connection-scoped prepared-statement table.
struct Connection {
    shared: Arc<Shared>,
    session: Session,
    statements: HashMap<u64, Statement>,
    next_statement_id: u64,
}

impl Connection {
    fn new(shared: Arc<Shared>) -> Connection {
        let session = shared.engine.session();
        Connection {
            shared,
            session,
            statements: HashMap::new(),
            next_statement_id: 1,
        }
    }

    fn handle(&mut self, request: Request) -> Handled {
        match request {
            Request::Query { sql } => Handled::reply(exec_to_response(self.session.execute(&sql))),
            Request::QueryAt { sql, at } => {
                Handled::reply(match self.session.query_at(&sql, at) {
                    Ok(rows) => rows_response(rows),
                    Err(e) => Response::Err(WireError::Engine(e)),
                })
            }
            Request::Prepare { sql } => Handled::reply(match self.session.prepare(&sql) {
                Ok(stmt) => {
                    let id = self.next_statement_id;
                    self.next_statement_id += 1;
                    let params = stmt.param_count() as u16;
                    self.statements.insert(id, stmt);
                    Response::Prepared { id, params }
                }
                Err(e) => Response::Err(WireError::Engine(e)),
            }),
            Request::ExecutePrepared { id, params } => {
                let Some(stmt) = self.statements.get(&id) else {
                    return Handled::reply(Response::Err(WireError::Engine(
                        dt_common::DtError::Binding(format!(
                            "unknown prepared statement id {id} on this connection"
                        )),
                    )));
                };
                Handled::reply(exec_to_response(stmt.execute(&params)))
            }
            Request::Begin => Handled::reply(exec_to_response(self.session.execute("BEGIN"))),
            Request::Commit => Handled::reply(exec_to_response(self.session.execute("COMMIT"))),
            Request::Rollback => {
                Handled::reply(exec_to_response(self.session.execute("ROLLBACK")))
            }
            Request::Stats => {
                Handled::reply(Response::Stats(self.shared.engine.stats().into_iter().collect()))
            }
            Request::Close => Handled::last(Response::Goodbye),
        }
    }
}

fn rows_response(rows: dt_core::QueryResult) -> Response {
    let schema = rows.schema().clone();
    Response::Rows(RemoteRows::new(schema, rows.into_rows()))
}

fn exec_to_response(result: dt_common::DtResult<ExecResult>) -> Response {
    match result {
        Ok(ExecResult::Rows(rows)) => rows_response(rows),
        Ok(ExecResult::Ok(message)) => Response::Ok(message),
        Ok(ExecResult::Count(n)) => Response::Count(n as u64),
        Err(e) => Response::Err(WireError::Engine(e)),
    }
}

/// Outcome of waiting for one complete frame.
enum Gather {
    Frame(Vec<u8>),
    IdleTimeout,
    Closed,
    Shutdown,
    TooLarge { len: u32, max: u32 },
    Io,
}

/// Poll the socket until a complete frame arrives, the deadline passes,
/// the peer closes, or the server begins shutting down. Partial frames
/// survive across polls inside `reader`.
fn gather_frame(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    shared: &Shared,
    deadline: Instant,
) -> Gather {
    loop {
        match reader.poll(stream, shared.config.max_frame_len) {
            Ok(Poll::Frame(payload)) => return Gather::Frame(payload),
            Ok(Poll::Pending) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Gather::Shutdown;
                }
                if Instant::now() >= deadline {
                    return Gather::IdleTimeout;
                }
            }
            Ok(Poll::Closed) => return Gather::Closed,
            Err(FrameError::TooLarge { len, max }) => return Gather::TooLarge { len, max },
            Err(FrameError::Io(_)) => return Gather::Io,
        }
    }
}

fn send(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    write_frame(stream, &response.encode())?;
    stream.flush()
}

fn serve_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(shared.config.poll_interval))
        .is_err()
    {
        return;
    }
    let mut reader = FrameReader::new();

    // --- Handshake: one Hello frame within the idle window. ---
    let deadline = Instant::now() + shared.config.idle_timeout;
    let hello = match gather_frame(&mut stream, &mut reader, &shared, deadline) {
        Gather::Frame(payload) => payload,
        Gather::Shutdown => {
            let _ = send(&mut stream, &Response::Err(WireError::ShuttingDown));
            return;
        }
        Gather::IdleTimeout => {
            let _ = send(
                &mut stream,
                &Response::Err(WireError::Protocol("handshake timed out".into())),
            );
            return;
        }
        Gather::TooLarge { len, max } => {
            let _ = send(
                &mut stream,
                &Response::Err(WireError::Protocol(format!(
                    "frame length {len} exceeds cap {max}"
                ))),
            );
            return;
        }
        Gather::Closed | Gather::Io => return,
    };
    match Hello::decode(&hello) {
        Ok(h) if h.version == PROTOCOL_VERSION => {
            if send(
                &mut stream,
                &Response::Hello {
                    version: PROTOCOL_VERSION,
                },
            )
            .is_err()
            {
                return;
            }
        }
        Ok(h) => {
            let _ = send(
                &mut stream,
                &Response::Err(WireError::Protocol(format!(
                    "unsupported protocol version {} (server speaks {PROTOCOL_VERSION})",
                    h.version
                ))),
            );
            return;
        }
        Err(e) => {
            let _ = send(
                &mut stream,
                &Response::Err(WireError::Protocol(e.to_string())),
            );
            return;
        }
    }

    // --- Request loop. The session (and with it any open transaction,
    // which rolls back on drop) lives exactly as long as this scope. ---
    let mut conn = Connection::new(Arc::clone(&shared));
    loop {
        // Checked here — not only on idle polls — so a connection kept
        // busy by a fast request stream still observes shutdown between
        // requests (the in-flight one was fully answered).
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = send(&mut stream, &Response::Err(WireError::ShuttingDown));
            return;
        }
        let deadline = Instant::now() + shared.config.idle_timeout;
        let payload = match gather_frame(&mut stream, &mut reader, &shared, deadline) {
            Gather::Frame(payload) => payload,
            Gather::Shutdown => {
                // Drained: the previous request was fully answered.
                let _ = send(&mut stream, &Response::Err(WireError::ShuttingDown));
                return;
            }
            Gather::IdleTimeout => {
                let _ = send(
                    &mut stream,
                    &Response::Err(WireError::Protocol(format!(
                        "idle timeout: no request in {:?}",
                        shared.config.idle_timeout
                    ))),
                );
                return;
            }
            Gather::TooLarge { len, max } => {
                // The oversized frame was never read off the socket;
                // answer typed, then close (the stream position is
                // unrecoverable).
                let _ = send(
                    &mut stream,
                    &Response::Err(WireError::Protocol(format!(
                        "frame length {len} exceeds cap {max}"
                    ))),
                );
                return;
            }
            Gather::Closed | Gather::Io => return,
        };
        shared.engine.connections().requests_served.fetch_add(1, Ordering::Relaxed);
        let handled = match Request::decode(&payload) {
            Ok(request) => conn.handle(request),
            // Framing was intact — only the payload was malformed — so
            // the connection stays usable after a typed answer.
            Err(e) => Handled::reply(Response::Err(WireError::Protocol(e.to_string()))),
        };
        let encoded = handled.response.encode();
        let frame = if encoded.len() as u64 <= shared.config.max_frame_len as u64 {
            encoded
        } else {
            Response::Err(WireError::Protocol(format!(
                "response exceeds frame cap {}; narrow the query",
                shared.config.max_frame_len
            )))
            .encode()
        };
        if write_frame(&mut stream, &frame).and_then(|_| stream.flush()).is_err() {
            return;
        }
        if handled.close {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert!(c.max_connections > 0);
        assert!(c.idle_timeout > c.poll_interval);
        assert!(c.max_frame_len >= 1024);
    }
}
