//! The one retry policy for a lost write-write conflict.

use std::hash::{Hash, Hasher};
use std::time::Duration;

/// How long the loser of a conflict waits before attempt `attempt + 1`;
/// `None` means only yield. The winning committer holds its per-table
/// locks for a short, bounded window, so the first four retries just
/// yield; after that the wait is exponential with deterministic
/// per-thread jitter, so a herd of losers doesn't re-collide in lockstep,
/// and capped at 2 ms to keep worst-case statement latency bounded.
fn backoff_delay(attempt: usize) -> Option<Duration> {
    if attempt < 4 {
        return None;
    }
    let exp = (attempt - 4).min(6) as u32;
    let base_us = (25u64 << exp).min(2000);
    let jitter = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        attempt.hash(&mut h);
        h.finish() % (base_us / 2 + 1)
    };
    Some(Duration::from_micros(base_us / 2 + jitter))
}

/// Wait out a serialization conflict before retrying: call with the
/// zero-based index of the attempt that just lost. Both retry loops — the
/// engine's auto-commit DML and the client's `run_txn` — share this
/// schedule.
pub fn retry_backoff(attempt: usize) {
    match backoff_delay(attempt) {
        None => std::thread::yield_now(),
        Some(delay) => std::thread::sleep(delay),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_yields_first_then_grows_jittered_under_the_cap() {
        for attempt in 0..4 {
            assert_eq!(backoff_delay(attempt), None, "attempt {attempt} must only yield");
        }
        let delays: Vec<Duration> = (4..64).map(|a| backoff_delay(a).unwrap()).collect();
        for (i, d) in delays.iter().enumerate() {
            let base_us = (25u64 << i.min(6)).min(2000);
            assert!(
                *d >= Duration::from_micros(base_us / 2) && *d <= Duration::from_micros(base_us),
                "attempt {}: {d:?} outside [{}, {base_us}] µs",
                i + 4,
                base_us / 2
            );
            assert!(*d <= Duration::from_millis(2));
        }
        // Past the cap the base no longer moves, so any spread is the
        // per-attempt jitter: one thread does not wait the same time twice
        // in a row for sixty attempts.
        let capped: std::collections::BTreeSet<Duration> = delays[6..].iter().copied().collect();
        assert!(capped.len() > 1, "no jitter across attempts: {capped:?}");
        // Deterministic per (thread, attempt).
        assert_eq!(backoff_delay(9), backoff_delay(9));
    }
}
