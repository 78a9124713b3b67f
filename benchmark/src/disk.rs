//! The model disk. The durable workloads write their WAL, checkpoints and
//! recovery files for real, under the scratch directory, but the
//! *barrier* — `fdatasync(2)` / `fsync(2)` — is replaced by a fixed wait
//! of [`MODEL_SYNC`].
//!
//! Why: the sandbox this benchmark is judged in is a small VM on a shared
//! host whose disk takes anything from 0.2 ms to 3 ms to sync, drifting
//! over minutes. The engine syncs under its write lock on every commit
//! and every refresh install, so that drift went straight into write
//! latency (1.2 ms with a 0.2 ms sync, 4.3 ms with a 3 ms one), into
//! transaction throughput (295/s → 125/s) and into everything that waits
//! for the lock — the numbers moved by a third between two sets of runs
//! of the same code, which measures the neighbours, not the engine. With
//! the wait fixed, the *number* of syncs a commit path issues still costs
//! what it should (group commit still pays off), and bytes written still
//! go through `write(2)` to the real filesystem.
//!
//! How: the process defines the C symbols `fdatasync` and `fsync` itself.
//! The Rust standard library reaches them through `libc`, and a symbol
//! defined in the executable wins over the shared C library's, so every
//! `File::sync_data` / `sync_all` in the engine lands here. No crate is
//! changed. [`real_fdatasync_us`] issues the real system call, and reports
//! what the host's disk takes as the layer metric `host.fdatasync_us`.

use std::ffi::{c_int, c_long};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::median;

/// What one sync costs on the model disk: the quiet host's `fdatasync`
/// of a 10 KB append (0.18–0.26 ms measured), as a sleep, which like a
/// real sync leaves the core to other threads.
pub const MODEL_SYNC: Duration = Duration::from_micros(200);

#[cfg(target_arch = "x86_64")]
const SYS_FDATASYNC: c_long = 75;
#[cfg(target_arch = "aarch64")]
const SYS_FDATASYNC: c_long = 83;

extern "C" {
    fn syscall(number: c_long, ...) -> c_long;
}

/// The real `fdatasync`: 0, or -1 with `errno` set, like the C wrapper.
fn real_fdatasync(fd: c_int) -> c_int {
    // SAFETY: `fdatasync` takes one file descriptor and touches no memory
    // of the caller; a bad descriptor is reported through errno.
    unsafe { syscall(SYS_FDATASYNC, fd) as c_int }
}

/// Replaces the C library's `fdatasync` for this process.
#[no_mangle]
pub extern "C" fn fdatasync(_fd: c_int) -> c_int {
    std::thread::sleep(MODEL_SYNC);
    0
}

/// Replaces the C library's `fsync` for this process.
#[no_mangle]
pub extern "C" fn fsync(_fd: c_int) -> c_int {
    std::thread::sleep(MODEL_SYNC);
    0
}

/// Median time of a real `fdatasync` after appending `record_bytes` to a
/// file in `dir`, in µs: what the host's disk does, whatever the model.
pub fn real_fdatasync_us(dir: &Path, record_bytes: usize, appends: usize) -> f64 {
    let path = dir.join(format!("sync-probe-{}", std::process::id()));
    let Ok(mut file) = OpenOptions::new().create(true).append(true).open(&path) else {
        return 0.0;
    };
    let payload = vec![0xA5u8; record_bytes.max(1)];
    let mut samples: Vec<f64> = (0..appends)
        .filter_map(|_| {
            file.write_all(&payload).ok()?;
            let began = Instant::now();
            (real_fdatasync(file.as_raw_fd()) == 0).then(|| began.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    drop(file);
    let _ = std::fs::remove_file(&path);
    median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_syncs_land_on_the_model_and_the_probe_reaches_the_disk() {
        // The kernel refuses to sync `/dev/null` (EINVAL); the model does
        // not look at the descriptor.
        let null = std::fs::File::open("/dev/null").expect("open /dev/null");
        let began = Instant::now();
        null.sync_data()
            .expect("File::sync_data lands on the model");
        null.sync_all().expect("File::sync_all lands on the model");
        assert!(began.elapsed() >= MODEL_SYNC * 2);
        assert_eq!(real_fdatasync(null.as_raw_fd()), -1);
        assert!(real_fdatasync_us(&std::env::temp_dir(), 4096, 3) > 0.0);
    }
}
