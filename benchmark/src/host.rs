//! Where a result came from: host, build, source revision, seed, window
//! lengths and the filesystem under the WAL. A number without this block
//! cannot be compared with another.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::harness::Ctx;
use crate::stats::Json;

/// The benchmark's scratch directory, `<target dir>/benchmark-scratch`,
/// found from the running executable (`<target dir>/release/<exe>`), so
/// WAL files land on the build's disk and never on a tmpfs such as
/// `/tmp` may be.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable is not inside <target dir>/<profile>/")?;
    let dir = target.join("benchmark-scratch");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The provenance block of one run.
pub fn provenance(ctx: &Ctx) -> Json {
    let wal_fs = filesystem_of(&ctx.scratch);
    if wal_fs == "tmpfs" {
        eprintln!(
            "dt-benchmark: warning: {} is on a tmpfs; fsync there costs nothing",
            ctx.scratch.display()
        );
    }
    // Outside a git checkout (the benchmark driver's copy is not one)
    // there is no revision to record.
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("build_profile", Json::str("release")),
        ("git_rev", rev.map_or(Json::Null, Json::Str)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("seed", Json::Num(ctx.seed as f64)),
        ("wal_filesystem", Json::Str(wal_fs)),
        (
            "sync_model_us",
            Json::Num(crate::disk::MODEL_SYNC.as_micros() as f64),
        ),
        ("warmup_s", Json::Num(ctx.warmup)),
        ("window_s", Json::Num(ctx.seconds)),
        ("comparable", Json::Bool(!ctx.smoke)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filesystem_of_root_is_known_and_proc_is_proc() {
        assert_ne!(filesystem_of(Path::new("/")), "unknown");
        assert_eq!(filesystem_of(Path::new("/proc/self")), "proc");
    }
}
