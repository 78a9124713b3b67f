//! Time: instants, durations and the clocks that read them.
//!
//! The paper's contract — target lag (§3.2), actual lag (§3.3.2), commit
//! timestamps close to physical time (§5.3) — is stated in wall time, so an
//! engine reads a [`WallClock`]: microseconds since the Unix epoch. All of
//! the paper's scheduling experiments — the lag sawtooth of Figure 4,
//! canonical refresh periods, skips — are about *when* things happen, and
//! to reproduce them deterministically a simulation injects a [`SimClock`]
//! instead: virtual time that starts at 0 and only advances when the
//! simulation driver tells it to.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Microsecond-precision instant: since the Unix epoch on the wall clock,
/// since t = 0 on a simulated one.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(i64);

impl Timestamp {
    /// The epoch (t = 0).
    pub const EPOCH: Timestamp = Timestamp(0);
    /// The maximum representable instant.
    pub const MAX: Timestamp = Timestamp(i64::MAX);

    /// Build from raw microseconds since the epoch.
    pub const fn from_micros(us: i64) -> Self {
        Timestamp(us)
    }

    /// Build from seconds since the epoch.
    pub const fn from_secs(s: i64) -> Self {
        Timestamp(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> i64 {
        self.0 / 1_000_000
    }

    /// This instant shifted forward by `d` (negative durations shift back).
    pub const fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.as_micros())
    }

    /// Elapsed duration since `earlier` (negative if `earlier` is later).
    pub const fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_micros(self.0 - earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as fractional seconds for readability in harness output.
        let s = self.0 / 1_000_000;
        let us = (self.0 % 1_000_000).abs();
        if us == 0 {
            write!(f, "t+{s}s")
        } else {
            write!(f, "t+{s}.{us:06}s")
        }
    }
}

/// Signed microsecond duration.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(i64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Build from microseconds.
    pub const fn from_micros(us: i64) -> Self {
        Duration(us)
    }

    /// Build from milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Duration(ms * 1_000)
    }

    /// Build from seconds.
    pub const fn from_secs(s: i64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Build from minutes.
    pub const fn from_mins(m: i64) -> Self {
        Duration::from_secs(m * 60)
    }

    /// Build from hours.
    pub const fn from_hours(h: i64) -> Self {
        Duration::from_secs(h * 3600)
    }

    /// Build from days.
    pub const fn from_days(d: i64) -> Self {
        Duration::from_secs(d * 86_400)
    }

    /// Microseconds.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> i64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float, for telemetry plots.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True for durations of length zero or less.
    pub const fn is_non_positive(self) -> bool {
        self.0 <= 0
    }

    /// Scale by an integer factor.
    pub const fn times(self, n: i64) -> Duration {
        Duration(self.0 * n)
    }

    /// Parse a human interval such as `"1 minute"`, `"30 seconds"`,
    /// `"16 hours"`, `"2 days"` — the format accepted by `TARGET_LAG`.
    pub fn parse(s: &str) -> Result<Duration, String> {
        let t = s.trim().to_ascii_lowercase();
        let (num_part, unit_part) = match t.find(|c: char| c.is_ascii_alphabetic()) {
            Some(i) => t.split_at(i),
            None => return Err(format!("interval '{s}' has no unit")),
        };
        let n: i64 = num_part
            .trim()
            .parse()
            .map_err(|_| format!("bad interval quantity in '{s}'"))?;
        let unit = unit_part.trim();
        let per = match unit {
            "us" | "microsecond" | "microseconds" => 1,
            "ms" | "millisecond" | "milliseconds" => 1_000,
            "s" | "sec" | "secs" | "second" | "seconds" => 1_000_000,
            "m" | "min" | "mins" | "minute" | "minutes" => 60_000_000,
            "h" | "hr" | "hrs" | "hour" | "hours" => 3_600_000_000,
            "d" | "day" | "days" => 86_400_000_000,
            other => return Err(format!("unknown interval unit '{other}'")),
        };
        Ok(Duration(n * per))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us % 3_600_000_000 == 0 {
            write!(f, "{}h", us / 3_600_000_000)
        } else if us % 60_000_000 == 0 {
            write!(f, "{}m", us / 60_000_000)
        } else if us % 1_000_000 == 0 {
            write!(f, "{}s", us / 1_000_000)
        } else if us.abs() >= 1_000_000 {
            write!(f, "{:.2}s", us as f64 / 1e6)
        } else {
            write!(f, "{}us", us)
        }
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// A dynamic table's target lag (§3.2), as parsed, stored in the catalog
/// and scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetLag {
    /// Keep lag below this duration.
    Duration(Duration),
    /// Align with the minimum target lag of downstream DTs.
    Downstream,
}

/// A source of "now". An engine reads a [`WallClock`]; a simulation
/// injects a [`SimClock`] so experiments are deterministic and fast.
pub trait Clock: Send + Sync {
    /// Current instant.
    fn now(&self) -> Timestamp;
}

/// System time in microseconds since the Unix epoch, never moving
/// backwards: a reading is the maximum of every reading so far, so a step
/// back of the system clock holds time still instead of reversing it.
#[derive(Debug, Default)]
pub struct WallClock {
    last: AtomicI64,
}

impl Clock for WallClock {
    fn now(&self) -> Timestamp {
        let since_epoch = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
        let wall = since_epoch.map_or(0, |d| d.as_micros() as i64);
        Timestamp(self.last.fetch_max(wall, Ordering::Relaxed).max(wall))
    }
}

/// Deterministic, manually advanced clock shared by the whole system.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<Mutex<Timestamp>>,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at the given instant.
    pub fn starting_at(t: Timestamp) -> Self {
        SimClock {
            now: Arc::new(Mutex::new(t)),
        }
    }

    /// Advance by `d`, returning the new now. Panics on negative advance:
    /// simulated time, like real time, never goes backwards.
    pub fn advance(&self, d: Duration) -> Timestamp {
        assert!(d.as_micros() >= 0, "SimClock cannot move backwards");
        let mut now = self.now.lock();
        *now = now.add(d);
        *now
    }

    /// Jump directly to `t` (must not be in the past).
    pub fn advance_to(&self, t: Timestamp) -> Timestamp {
        let mut now = self.now.lock();
        assert!(t >= *now, "SimClock cannot move backwards");
        *now = t;
        *now
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        *self.now.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_roundtrips() {
        let t = Timestamp::from_secs(10);
        let t2 = t.add(Duration::from_mins(2));
        assert_eq!(t2.since(t), Duration::from_secs(120));
        assert_eq!(t2.as_secs(), 130);
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(Duration::parse("1 minute").unwrap(), Duration::from_mins(1));
        assert_eq!(Duration::parse("30 seconds").unwrap(), Duration::from_secs(30));
        assert_eq!(Duration::parse("16 hours").unwrap(), Duration::from_hours(16));
        assert_eq!(Duration::parse("2d").unwrap(), Duration::from_days(2));
        assert_eq!(Duration::parse("250ms").unwrap(), Duration::from_millis(250));
        assert!(Duration::parse("five minutes").is_err());
        assert!(Duration::parse("10 fortnights").is_err());
        assert!(Duration::parse("10").is_err());
    }

    #[test]
    fn duration_display() {
        assert_eq!(Duration::from_mins(90).to_string(), "90m");
        assert_eq!(Duration::from_hours(2).to_string(), "2h");
        assert_eq!(Duration::from_secs(45).to_string(), "45s");
    }

    #[test]
    fn sim_clock_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), Timestamp::EPOCH);
        c.advance(Duration::from_secs(5));
        assert_eq!(c.now(), Timestamp::from_secs(5));
        c.advance_to(Timestamp::from_secs(9));
        assert_eq!(c.now().as_secs(), 9);
    }

    #[test]
    #[should_panic]
    fn sim_clock_rejects_backwards() {
        let c = SimClock::starting_at(Timestamp::from_secs(100));
        c.advance_to(Timestamp::from_secs(50));
    }

    #[test]
    fn wall_clock_reads_system_time_and_never_goes_back() {
        let c = WallClock::default();
        let system = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_micros() as i64;
        let first = c.now();
        assert!((first.as_micros() - system).abs() < 1_000_000, "{first} vs {system}");
        // A reading ahead of the system clock holds until the system
        // clock catches up.
        let ahead = system + 3_600_000_000;
        c.last.store(ahead, Ordering::Relaxed);
        assert_eq!(c.now().as_micros(), ahead);
    }

    #[test]
    fn clones_share_the_same_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        assert_eq!(b.now(), Timestamp::from_secs(1));
    }
}
