//! The append-only segmented write-ahead log.
//!
//! On-disk layout, rooted at the durability directory:
//!
//! ```text
//! wal-00000001.seg          sealed segment (behind a later segment)
//! wal-00000002.seg          active segment (appends go here)
//! ```
//!
//! Each segment starts with a 14-byte header — magic `"DTWL"`, a `u16`
//! format version, and the segment's `u64` sequence number (which must
//! match the filename, so a misfiled segment is caught) — followed by
//! length+CRC framed records:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload bytes]
//! ```
//!
//! Append policy: [`Wal::append_batch`] writes every record of a
//! group-commit batch with a single `write_all` and a single
//! `fdatasync`. That is the classic group-commit amortization — the
//! leader pays one fsync for the whole batch, followers pay none.
//!
//! Recovery policy: segments are scanned in sequence order. A framing or
//! CRC failure in the **final** segment is a torn tail — expected after a
//! crash mid-append — and is truncated in place, after which the segment
//! is reused for appends. The same failure in any earlier (sealed)
//! segment cannot be explained by a crash (sealed segments were fully
//! synced before their successor was created) and surfaces as
//! [`DtError::Corruption`].

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dt_common::{DtError, DtResult};

use crate::crc32::crc32;
use crate::stats::WalStats;

const SEG_MAGIC: &[u8; 4] = b"DTWL";
const SEG_VERSION: u16 = 3;
const SEG_HEADER_LEN: u64 = 14;
const FRAME_HEADER_LEN: u64 = 8;

/// Upper bound on a single record payload. A length prefix beyond this is
/// treated as frame corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: u32 = 256 * 1024 * 1024;

/// Default segment-roll threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 16 * 1024 * 1024;

pub(crate) fn io_err(ctx: &str, e: std::io::Error) -> DtError {
    DtError::Io(format!("{ctx}: {e}"))
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.seg"))
}

fn segment_header(seq: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(SEG_HEADER_LEN as usize);
    h.extend_from_slice(SEG_MAGIC);
    h.extend_from_slice(&SEG_VERSION.to_le_bytes());
    h.extend_from_slice(&seq.to_le_bytes());
    h
}

/// Sync the directory itself so segment creation/removal survives a crash.
fn sync_dir(dir: &Path, stats: &WalStats) -> DtResult<()> {
    let d = File::open(dir).map_err(|e| io_err("open wal dir for sync", e))?;
    d.sync_all().map_err(|e| io_err("sync wal dir", e))?;
    stats.record_fsync();
    Ok(())
}

/// List `wal-*.seg` files in `dir`, sorted by sequence number.
fn list_segments(dir: &Path) -> DtResult<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read wal dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read wal dir entry", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".seg")) else {
            continue;
        };
        let Ok(seq) = stem.parse::<u64>() else { continue };
        segs.push((seq, entry.path()));
    }
    segs.sort_by_key(|(seq, _)| *seq);
    Ok(segs)
}

/// What a [`Wal::open`] scan found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every intact record payload, in append order across segments.
    pub records: Vec<Vec<u8>>,
    /// Whether a torn/corrupt tail was truncated off the final segment.
    pub truncated_tail: bool,
}

/// The append side of the write-ahead log. One instance per engine,
/// behind the engine's WAL mutex; [`Wal::open`] also performs the
/// recovery scan so there is exactly one reader of the segment format.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    stats: Arc<WalStats>,
    segment_bytes: u64,
    file: File,
    seq: u64,
    written: u64,
}

impl Wal {
    /// Open (creating if needed) the WAL rooted at `dir`, scanning any
    /// existing segments. Returns the appender positioned after the last
    /// intact record, plus every intact record for replay.
    pub fn open(dir: &Path, stats: Arc<WalStats>) -> DtResult<(Wal, Recovered)> {
        Wal::open_with_segment_bytes(dir, stats, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Wal::open`] with an explicit segment-roll threshold (tests use a
    /// tiny threshold to exercise multi-segment recovery).
    pub fn open_with_segment_bytes(
        dir: &Path,
        stats: Arc<WalStats>,
        segment_bytes: u64,
    ) -> DtResult<(Wal, Recovered)> {
        fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        let segs = list_segments(dir)?;

        if segs.is_empty() {
            let wal = Wal::create_segment(dir, stats, segment_bytes, 1)?;
            return Ok((wal, Recovered::default()));
        }

        let mut recovered = Recovered::default();
        let last = segs.len() - 1;
        let mut tail_offset = SEG_HEADER_LEN;
        for (i, (seq, path)) in segs.iter().enumerate() {
            let is_final = i == last;
            let good =
                scan_segment(path, *seq, is_final, &mut recovered.records)?;
            if is_final {
                tail_offset = good.offset;
                recovered.truncated_tail = good.torn;
            }
        }

        let (seq, path) = segs[last].clone();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("reopen wal segment", e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err("stat wal segment", e))?
            .len();
        if recovered.truncated_tail || file_len > tail_offset {
            // Cut the torn tail off so the next append starts at a clean
            // record boundary, and make the cut durable before appending.
            file.set_len(tail_offset)
                .map_err(|e| io_err("truncate torn wal tail", e))?;
            file.sync_all()
                .map_err(|e| io_err("sync truncated wal segment", e))?;
            stats.record_fsync();
        }
        if tail_offset == SEG_HEADER_LEN && file_len < SEG_HEADER_LEN {
            // The final segment died before its header hit disk; rewrite it.
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek wal segment", e))?;
            file.write_all(&segment_header(seq))
                .map_err(|e| io_err("rewrite wal segment header", e))?;
            file.sync_all()
                .map_err(|e| io_err("sync wal segment header", e))?;
            stats.record_fsync();
        }
        file.seek(SeekFrom::Start(tail_offset))
            .map_err(|e| io_err("seek wal segment end", e))?;

        Ok((
            Wal {
                dir: dir.to_path_buf(),
                stats,
                segment_bytes,
                file,
                seq,
                written: tail_offset,
            },
            recovered,
        ))
    }

    fn create_segment(
        dir: &Path,
        stats: Arc<WalStats>,
        segment_bytes: u64,
        seq: u64,
    ) -> DtResult<Wal> {
        let path = segment_path(dir, seq);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("create wal segment", e))?;
        file.write_all(&segment_header(seq))
            .map_err(|e| io_err("write wal segment header", e))?;
        file.sync_all()
            .map_err(|e| io_err("sync new wal segment", e))?;
        stats.record_fsync();
        sync_dir(dir, &stats)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            stats,
            segment_bytes,
            file,
            seq,
            written: SEG_HEADER_LEN,
        })
    }

    /// The durability directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active segment's sequence number.
    pub fn active_segment(&self) -> u64 {
        self.seq
    }

    /// Append a group-commit batch: every record framed and written in
    /// one `write_all`, made durable with one `fdatasync`. Returns only
    /// after the batch is on disk — the caller (a group-commit leader
    /// holding the engine write lock) may then publish the installs.
    pub fn append_batch(&mut self, payloads: &[Vec<u8>]) -> DtResult<()> {
        if payloads.is_empty() {
            return Ok(());
        }
        let payload_bytes: usize = payloads.iter().map(|p| p.len()).sum();
        let mut buf =
            Vec::with_capacity(payload_bytes + payloads.len() * FRAME_HEADER_LEN as usize);
        for p in payloads {
            debug_assert!(p.len() as u64 <= MAX_RECORD_BYTES as u64);
            buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(p).to_le_bytes());
            buf.extend_from_slice(p);
        }
        self.file
            .write_all(&buf)
            .map_err(|e| io_err("append wal batch", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync wal batch", e))?;
        self.written += buf.len() as u64;
        self.stats.record_batch(payloads.len(), payload_bytes);
        self.stats.record_fsync();
        if self.written >= self.segment_bytes {
            self.roll()?;
        }
        Ok(())
    }

    /// Seal the active segment and start a fresh one. The old segment is
    /// fully synced before the new one becomes visible, which is what
    /// licenses recovery to treat sealed-segment corruption as fatal.
    pub fn roll(&mut self) -> DtResult<()> {
        self.file
            .sync_all()
            .map_err(|e| io_err("sync sealed wal segment", e))?;
        self.stats.record_fsync();
        let next = Wal::create_segment(
            &self.dir,
            Arc::clone(&self.stats),
            self.segment_bytes,
            self.seq + 1,
        )?;
        *self = next;
        Ok(())
    }

    /// Delete every sealed segment (sequence number below the active
    /// one). Called after a checkpoint installs: the checkpoint covers
    /// everything the sealed segments held.
    pub fn remove_sealed_segments(&mut self) -> DtResult<usize> {
        let mut removed = 0;
        for (seq, path) in list_segments(&self.dir)? {
            if seq < self.seq {
                fs::remove_file(&path).map_err(|e| io_err("remove sealed wal segment", e))?;
                removed += 1;
            }
        }
        if removed > 0 {
            sync_dir(&self.dir, &self.stats)?;
        }
        Ok(removed)
    }

    /// The shared stats counters.
    pub fn stats(&self) -> &Arc<WalStats> {
        &self.stats
    }
}

struct ScanEnd {
    /// Byte offset just past the last intact record.
    offset: u64,
    /// Whether the segment ended with a torn/corrupt frame.
    torn: bool,
}

/// Scan one segment, pushing intact payloads onto `out`. For the final
/// segment a bad frame ends the scan (torn tail); for sealed segments it
/// is corruption.
fn scan_segment(
    path: &Path,
    expect_seq: u64,
    is_final: bool,
    out: &mut Vec<Vec<u8>>,
) -> DtResult<ScanEnd> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read wal segment", e))?;

    let name = path.display();
    let corrupt = |msg: String| -> DtError { DtError::Corruption(format!("{name}: {msg}")) };

    if bytes.len() < SEG_HEADER_LEN as usize {
        if is_final {
            // Crashed during segment creation: header never hit disk.
            return Ok(ScanEnd { offset: SEG_HEADER_LEN, torn: true });
        }
        return Err(corrupt(format!("sealed segment is {} byte(s)", bytes.len())));
    }
    if &bytes[0..4] != SEG_MAGIC {
        return Err(corrupt("bad segment magic".into()));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != SEG_VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let seq = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
    if seq != expect_seq {
        return Err(corrupt(format!(
            "segment header claims sequence {seq}, filename says {expect_seq}"
        )));
    }

    let mut pos = SEG_HEADER_LEN as usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(ScanEnd { offset: pos as u64, torn: false });
        }
        let bad = |what: &str| -> DtResult<ScanEnd> {
            if is_final {
                Ok(ScanEnd { offset: pos as u64, torn: true })
            } else {
                Err(corrupt(format!("{what} at offset {pos} in sealed segment")))
            }
        };
        if remaining < FRAME_HEADER_LEN as usize {
            return bad("torn frame header");
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            return bad("implausible record length");
        }
        let body_start = pos + FRAME_HEADER_LEN as usize;
        if bytes.len() - body_start < len as usize {
            return bad("torn record body");
        }
        let payload = &bytes[body_start..body_start + len as usize];
        if crc32(payload) != crc {
            return bad("record CRC mismatch");
        }
        out.push(payload.to_vec());
        pos = body_start + len as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    fn rec(n: usize, fill: u8) -> Vec<u8> {
        vec![fill; n]
    }

    fn open(dir: &Path) -> (Wal, Recovered) {
        Wal::open(dir, Arc::new(WalStats::default())).unwrap()
    }

    #[test]
    fn round_trips_across_reopen() {
        let td = TestDir::new("wal-roundtrip");
        {
            let (mut wal, rec0) = open(td.path());
            assert!(rec0.records.is_empty());
            wal.append_batch(&[rec(10, 1), rec(0, 0), rec(100, 2)]).unwrap();
            wal.append_batch(&[rec(5, 3)]).unwrap();
            let s = wal.stats().snapshot();
            assert_eq!((s.appends, s.batches), (4, 2));
            assert!(s.fsyncs >= 2 && s.bytes == 115);
        }
        let (_wal, recovered) = open(td.path());
        assert!(!recovered.truncated_tail);
        assert_eq!(
            recovered.records,
            vec![rec(10, 1), rec(0, 0), rec(100, 2), rec(5, 3)]
        );
    }

    #[test]
    fn torn_tail_truncated_at_every_cut_point() {
        let td = TestDir::new("wal-torn");
        let full_len = {
            let (mut wal, _) = open(td.path());
            wal.append_batch(&[rec(20, 7)]).unwrap();
            wal.append_batch(&[rec(30, 8)]).unwrap();
            std::fs::metadata(td.path().join("wal-00000001.seg")).unwrap().len()
        };
        let seg = td.path().join("wal-00000001.seg");
        let pristine = std::fs::read(&seg).unwrap();
        // Cut the file at every length from empty to full; recovery must
        // open cleanly every time and keep exactly the records whose
        // frames survived intact.
        for cut in 0..=full_len {
            std::fs::write(&seg, &pristine[..cut as usize]).unwrap();
            let (_wal, recovered) = open(td.path());
            let n = recovered.records.len();
            assert!(n <= 2, "cut {cut}: {n} records");
            if cut >= full_len {
                assert_eq!(n, 2);
            } else if cut >= SEG_HEADER_LEN + 8 + 20 + 8 + 30 {
                assert_eq!(n, 2, "cut {cut}");
            } else if cut >= SEG_HEADER_LEN + 8 + 20 {
                assert_eq!(n, 1, "cut {cut}");
            } else {
                assert_eq!(n, 0, "cut {cut}");
            }
            // After truncation the log must accept appends again.
            let (mut wal, _) = open(td.path());
            wal.append_batch(&[rec(3, 9)]).unwrap();
            let (_w, r2) = open(td.path());
            assert_eq!(r2.records.len(), n + 1);
            // Restore for the next iteration.
            std::fs::write(&seg, &pristine).unwrap();
        }
    }

    #[test]
    fn bit_flip_in_tail_is_detected_and_truncated() {
        let td = TestDir::new("wal-flip");
        {
            let (mut wal, _) = open(td.path());
            wal.append_batch(&[rec(40, 1)]).unwrap();
            wal.append_batch(&[rec(40, 2)]).unwrap();
        }
        let seg = td.path().join("wal-00000001.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip a bit inside the second record's payload.
        let second_payload = SEG_HEADER_LEN as usize + 8 + 40 + 8 + 5;
        bytes[second_payload] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        let (_wal, recovered) = open(td.path());
        assert!(recovered.truncated_tail);
        assert_eq!(recovered.records, vec![rec(40, 1)]);
    }

    #[test]
    fn corruption_in_sealed_segment_is_fatal() {
        let td = TestDir::new("wal-sealed");
        {
            let (mut wal, _) =
                Wal::open_with_segment_bytes(td.path(), Arc::new(WalStats::default()), 64)
                    .unwrap();
            wal.append_batch(&[rec(100, 1)]).unwrap(); // rolls: 100 > 64
            wal.append_batch(&[rec(10, 2)]).unwrap();
            assert_eq!(wal.active_segment(), 2);
        }
        let seg1 = td.path().join("wal-00000001.seg");
        let mut bytes = std::fs::read(&seg1).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&seg1, &bytes).unwrap();
        let err = Wal::open(td.path(), Arc::new(WalStats::default())).unwrap_err();
        assert!(matches!(err, DtError::Corruption(_)), "{err:?}");
    }

    #[test]
    fn roll_and_remove_sealed_segments() {
        let td = TestDir::new("wal-roll");
        let (mut wal, _) =
            Wal::open_with_segment_bytes(td.path(), Arc::new(WalStats::default()), 32).unwrap();
        for i in 0..5 {
            wal.append_batch(&[rec(40, i)]).unwrap();
        }
        assert!(wal.active_segment() >= 5);
        let removed = wal.remove_sealed_segments().unwrap();
        assert_eq!(removed, wal.active_segment() as usize - 1);
        // Only the (empty) active segment remains; recovery sees no records.
        let (_w, recovered) = open(td.path());
        assert!(recovered.records.is_empty());
    }

    #[test]
    fn one_fsync_per_batch() {
        let td = TestDir::new("wal-fsync");
        let (mut wal, _) = open(td.path());
        let before = wal.stats().snapshot().fsyncs;
        for _ in 0..10 {
            wal.append_batch(&[rec(8, 1), rec(8, 2), rec(8, 3)]).unwrap();
        }
        let s = wal.stats().snapshot();
        assert_eq!(s.fsyncs - before, 10);
        assert_eq!(s.appends, 30);
        assert_eq!(s.batches, 10);
    }
}
