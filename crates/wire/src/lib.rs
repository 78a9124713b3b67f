//! The wire protocol shared by `dt-server` and `dt-client`.
//!
//! The paper's system is a multi-tenant cloud service; this crate is the
//! contract that turns the in-process engine into one. It defines —
//! independently of both endpoints, so neither can drift — the three
//! layers of the protocol:
//!
//! 1. **Framing** ([`frame`]): every message is a length-prefixed frame
//!    (`u32` little-endian payload length, then the payload), with the
//!    length validated against a cap before any allocation.
//! 2. **Encoding** ([`dt_common::codec`], the workspace's one byte
//!    codec, shared with the WAL): an explicit little-endian binary
//!    layout for the engine's data vocabulary — [`dt_common::Value`],
//!    [`dt_common::Schema`], [`dt_common::Row`] — plus, in [`message`],
//!    every [`dt_common::DtError`] variant. The layout is documented for
//!    foreign clients in `docs/PROTOCOL.md`.
//! 3. **Messages** ([`message`]): a version-tagged handshake
//!    ([`Hello`]), request kinds ([`Request`]) covering the whole engine
//!    surface (queries, time travel, prepared statements with `?`
//!    parameters, `BEGIN`/`COMMIT`/`ROLLBACK`, telemetry, orderly
//!    close), and typed responses ([`Response`]) whose error channel
//!    ([`WireError`]) distinguishes engine errors (conflicts stay
//!    retryable — [`DtError::is_conflict`] works remotely), admission
//!    rejection (`ServerBusy`), protocol violations, and shutdown.
//!
//! Decoding never panics on malformed input: truncated frames, hostile
//! length prefixes, unknown tags, and garbage payloads all surface as
//! typed errors — property-tested here and exercised against live
//! sockets by the workspace's server robustness suite.
//!
//! [`DtError::is_conflict`]: dt_common::DtError::is_conflict

pub mod frame;
pub mod message;

pub use dt_common::codec::{DecodeError, DecodeResult, Reader, Writer};
pub use frame::{
    read_frame, write_frame, FrameError, FrameReader, Poll, DEFAULT_MAX_FRAME_LEN,
};
pub use message::{
    Hello, RemoteRows, Request, Response, Stats, WireError, HELLO_MAGIC, PROTOCOL_VERSION,
};
