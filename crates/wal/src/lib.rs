//! Write-ahead logging and checkpointing for the Dynamic Tables engine.
//!
//! This crate owns the *file formats* (segment, record frame, checkpoint
//! file) and the *file discipline* — what the higher layers put in a
//! record's bytes is their business:
//!
//! * [`crc32`] — hand-rolled IEEE CRC-32, the integrity check under
//!   every record frame and checkpoint file.
//! * [`log`] — the append-only segmented WAL: one `write_all` + one
//!   `fdatasync` per group-commit batch, torn-tail truncation on
//!   recovery, segment roll + sealed-segment removal behind checkpoints.
//! * [`checkpoint`] — atomic install (temp + rename) and validated load
//!   of the single checkpoint snapshot file.
//! * [`stats`] — the atomic telemetry counters `SHOW STATS` reports.
//!
//! The bytes inside a record or checkpoint are written with the
//! workspace's one codec, [`dt_common::codec`] (its [`Reader`] and
//! [`Writer`] are re-exported here); this crate only frames, checksums
//! and syncs them.

pub mod checkpoint;
pub mod crc32;
pub mod log;
pub mod stats;

pub use checkpoint::{read_checkpoint, write_checkpoint, CHECKPOINT_FILE};
pub use dt_common::codec::{Reader, Writer};
pub use log::{Recovered, Wal, DEFAULT_SEGMENT_BYTES, MAX_RECORD_BYTES};
pub use stats::{WalStats, WalStatsSnapshot};

#[cfg(test)]
pub(crate) mod test_dir {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A unique per-test scratch directory, removed on drop.
    pub struct TestDir {
        path: PathBuf,
    }

    impl TestDir {
        pub fn new(tag: &str) -> TestDir {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "dt-wal-test-{}-{tag}-{n}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TestDir { path }
        }

        pub fn path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}
