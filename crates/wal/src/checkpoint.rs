//! Checkpoint file storage: a single atomically-installed snapshot file.
//!
//! The checkpoint *content* (catalog, table stores, frontiers…) is encoded
//! by the layers that own it; this module stores the resulting opaque
//! payload crash-safely:
//!
//! ```text
//! checkpoint.dtck = [b"DTCK"][u16 version][u32 crc32(payload)]
//!                   [u64 payload_len][payload]
//! ```
//!
//! Installation is write-to-temp → fsync → rename → fsync-dir, so at
//! every instant the directory holds either the old complete checkpoint
//! or the new complete checkpoint, never a partial one. A checkpoint that
//! fails validation on read (bad magic/version/CRC/length) is reported as
//! [`DtError::Corruption`] rather than silently ignored: falling back to
//! an older state would *undo* commits, which is worse than refusing to
//! open.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use dt_common::{DtError, DtResult};

use crate::crc32::crc32;
use crate::log::io_err;
use crate::stats::WalStats;

const CKPT_MAGIC: &[u8; 4] = b"DTCK";
const CKPT_VERSION: u16 = 3;
const CKPT_HEADER_LEN: usize = 18;

/// The checkpoint file's name inside the durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.dtck";

fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join(CHECKPOINT_FILE)
}

/// Atomically install `payload` as the directory's checkpoint, replacing
/// any previous one.
pub fn write_checkpoint(dir: &Path, payload: &[u8], stats: &WalStats) -> DtResult<()> {
    fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp)
        .map_err(|e| io_err("create checkpoint temp file", e))?;
    let mut header = Vec::with_capacity(CKPT_HEADER_LEN);
    header.extend_from_slice(CKPT_MAGIC);
    header.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    header.extend_from_slice(&crc32(payload).to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.write_all(&header)
        .and_then(|_| file.write_all(payload))
        .map_err(|e| io_err("write checkpoint", e))?;
    file.sync_all().map_err(|e| io_err("sync checkpoint", e))?;
    stats.record_fsync();
    fs::rename(&tmp, checkpoint_path(dir)).map_err(|e| io_err("install checkpoint", e))?;
    let d = File::open(dir).map_err(|e| io_err("open wal dir for sync", e))?;
    d.sync_all().map_err(|e| io_err("sync wal dir", e))?;
    stats.record_fsync();
    stats.record_checkpoint();
    Ok(())
}

/// Load the directory's checkpoint payload, if one has ever been
/// installed. `Ok(None)` means "no checkpoint" (fresh directory);
/// validation failures are [`DtError::Corruption`].
pub fn read_checkpoint(dir: &Path) -> DtResult<Option<Vec<u8>>> {
    let path = checkpoint_path(dir);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f
            .read_to_end(&mut bytes)
            .map_err(|e| io_err("read checkpoint", e))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("open checkpoint", e)),
    };
    let corrupt = |msg: &str| DtError::Corruption(format!("{}: {msg}", path.display()));
    if bytes.len() < CKPT_HEADER_LEN {
        return Err(corrupt("file shorter than header"));
    }
    if &bytes[0..4] != CKPT_MAGIC {
        return Err(corrupt("bad checkpoint magic"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != CKPT_VERSION {
        return Err(corrupt(&format!("unsupported checkpoint version {version}")));
    }
    let crc = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[10..18].try_into().unwrap()) as usize;
    let body = &bytes[CKPT_HEADER_LEN..];
    if body.len() != len {
        return Err(corrupt("checkpoint length mismatch"));
    }
    if crc32(body) != crc {
        return Err(corrupt("checkpoint CRC mismatch"));
    }
    Ok(Some(body.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    #[test]
    fn missing_checkpoint_is_none() {
        let td = TestDir::new("ckpt-none");
        assert_eq!(read_checkpoint(td.path()).unwrap(), None);
    }

    #[test]
    fn round_trips_and_replaces() {
        let td = TestDir::new("ckpt-rt");
        let stats = WalStats::default();
        write_checkpoint(td.path(), b"first state", &stats).unwrap();
        assert_eq!(read_checkpoint(td.path()).unwrap().unwrap(), b"first state");
        write_checkpoint(td.path(), b"second state", &stats).unwrap();
        assert_eq!(read_checkpoint(td.path()).unwrap().unwrap(), b"second state");
        assert_eq!(stats.snapshot().checkpoints, 2);
    }

    #[test]
    fn corruption_is_detected() {
        let td = TestDir::new("ckpt-corrupt");
        write_checkpoint(td.path(), b"some payload bytes", &WalStats::default()).unwrap();
        let path = td.path().join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(td.path()),
            Err(DtError::Corruption(_))
        ));
        // Truncated file is also corruption, not silently empty.
        std::fs::write(&path, &bytes[..5]).unwrap();
        assert!(matches!(
            read_checkpoint(td.path()),
            Err(DtError::Corruption(_))
        ));
    }
}
