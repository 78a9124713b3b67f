//! WAL telemetry counters. `SHOW STATS` and the wire `Stats` request
//! report them through `dt_core::Engine::stats`, whose rustdoc is the one
//! table of counter names.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters shared between the WAL appender and stats readers.
/// Updated with relaxed atomics — these are observability counters, not
/// synchronization; the durability ordering comes from the fsyncs.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: AtomicU64,
    /// `append_batch` calls (each is one group-commit batch).
    pub batches: AtomicU64,
    /// fsync/fdatasync calls issued (WAL segments, checkpoint files, and
    /// directory syncs alike).
    pub fsyncs: AtomicU64,
    /// Payload bytes appended (excluding frame headers).
    pub bytes: AtomicU64,
    /// Checkpoints installed.
    pub checkpoints: AtomicU64,
    /// Records replayed past the checkpoint watermark at the most recent
    /// recovery.
    pub recovery_replayed: AtomicU64,
}

/// A point-in-time copy of [`WalStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    /// Records appended.
    pub appends: u64,
    /// Group-commit batches appended.
    pub batches: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Payload bytes appended.
    pub bytes: u64,
    /// Checkpoints installed.
    pub checkpoints: u64,
    /// Records replayed at the most recent recovery.
    pub recovery_replayed: u64,
}

impl WalStats {
    /// Snapshot every counter.
    pub fn snapshot(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            recovery_replayed: self.recovery_replayed.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn record_batch(&self, records: usize, payload_bytes: usize) {
        self.appends.fetch_add(records as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload_bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Record how many WAL records recovery replayed past the checkpoint
    /// watermark. Called by the engine's recovery path, which owns the
    /// replay loop (only the file layer lives in this crate).
    pub fn record_recovery(&self, records: u64) {
        self.recovery_replayed.store(records, Ordering::Relaxed);
    }
}
