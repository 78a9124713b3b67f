//! Hybrid Logical Clock (Kulkarni et al., "Logical Physical Clocks").
//!
//! Snowflake draws commit timestamps from an HLC so that commits are totally
//! ordered relative to all other transactions in the account while staying
//! close to physical time (§5.3). We implement the full HLC algorithm —
//! a `(physical, logical)` pair with the send/receive rules — and also a
//! *folded* form: because the rest of the system keys table versions by a
//! single [`Timestamp`], [`Hlc::tick`] folds the logical component into
//! otherwise-unused microseconds (commits and refreshes are far sparser
//! than one per µs), preserving the two properties everything depends on:
//! strict monotonicity and closeness to physical time.

use std::sync::Arc;

use parking_lot::Mutex;

use dt_common::{Clock, Duration, Timestamp};

/// A full hybrid logical timestamp: physical microseconds plus a logical
/// counter that breaks ties between events within the same microsecond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HlcTimestamp {
    /// Physical component (microseconds since epoch).
    pub physical: i64,
    /// Logical tie-breaker.
    pub logical: u32,
}

impl HlcTimestamp {
    /// The zero timestamp.
    pub const ZERO: HlcTimestamp = HlcTimestamp {
        physical: 0,
        logical: 0,
    };
}

struct HlcState {
    last: HlcTimestamp,
}

/// A hybrid logical clock bound to a physical clock: the engine's wall
/// clock, or the virtual clock a simulation injects.
pub struct Hlc {
    clock: Arc<dyn Clock>,
    state: Mutex<HlcState>,
}

impl Hlc {
    /// Create an HLC reading physical time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Hlc {
            clock,
            state: Mutex::new(HlcState {
                last: HlcTimestamp::ZERO,
            }),
        }
    }

    /// The HLC "send/local event" rule: produce a timestamp strictly greater
    /// than every previously issued or observed one, with physical part
    /// `max(wall, last.physical)`.
    pub fn now_hlc(&self) -> HlcTimestamp {
        let wall = self.clock.now().as_micros();
        let mut st = self.state.lock();
        let next = if wall > st.last.physical {
            HlcTimestamp {
                physical: wall,
                logical: 0,
            }
        } else {
            HlcTimestamp {
                physical: st.last.physical,
                logical: st.last.logical + 1,
            }
        };
        st.last = next;
        next
    }

    /// The HLC "receive" rule: merge a remote timestamp so later local
    /// timestamps causally follow it.
    pub fn observe(&self, remote: HlcTimestamp) {
        let wall = self.clock.now().as_micros();
        let mut st = self.state.lock();
        let max_phys = wall.max(st.last.physical).max(remote.physical);
        let logical = if max_phys == st.last.physical && max_phys == remote.physical {
            st.last.logical.max(remote.logical) + 1
        } else if max_phys == st.last.physical {
            st.last.logical + 1
        } else if max_phys == remote.physical {
            remote.logical + 1
        } else {
            0
        };
        st.last = HlcTimestamp {
            physical: max_phys,
            logical,
        };
    }

    /// Folded commit timestamp: a plain [`Timestamp`] that is strictly
    /// monotonic across calls. When the wall clock has not advanced since
    /// the previous tick, the logical increment lands in the microsecond
    /// field (`last + 1µs`).
    pub fn tick(&self) -> Timestamp {
        let wall = self.clock.now().as_micros();
        let mut st = self.state.lock();
        let prev_folded = st.last.physical + st.last.logical as i64;
        let folded = wall.max(prev_folded + 1);
        st.last = HlcTimestamp {
            physical: folded,
            logical: 0,
        };
        Timestamp::from_micros(folded)
    }

    /// Folded tick with a floor: a strictly monotonic [`Timestamp`] that is
    /// additionally **strictly greater than `floor`** — the receive rule of
    /// the HLC folded into one atomic step. The optimistic commit path uses
    /// this to mint a commit timestamp past the latest version of every
    /// table it is about to install into, which is what makes the install
    /// itself infallible: a version stamped by `tick_after(latest)` can
    /// never regress behind the version chain it extends.
    pub fn tick_after(&self, floor: Timestamp) -> Timestamp {
        let wall = self.clock.now().as_micros();
        let mut st = self.state.lock();
        let prev_folded = st.last.physical + st.last.logical as i64;
        let folded = wall.max(prev_folded + 1).max(floor.as_micros() + 1);
        st.last = HlcTimestamp {
            physical: folded,
            logical: 0,
        };
        Timestamp::from_micros(folded)
    }

    /// Drift between the folded clock and physical time — bounded in the
    /// HLC algorithm by the number of same-instant events.
    pub fn drift(&self) -> Duration {
        let st = self.state.lock();
        Duration::from_micros(
            (st.last.physical + st.last.logical as i64) - self.clock.now().as_micros(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::SimClock;

    fn fixture() -> (SimClock, Hlc) {
        let c = SimClock::new();
        let h = Hlc::new(Arc::new(c.clone()));
        (c, h)
    }

    #[test]
    fn hlc_is_strictly_monotonic_without_clock_advance() {
        let (_c, h) = fixture();
        let a = h.now_hlc();
        let b = h.now_hlc();
        let d = h.now_hlc();
        assert!(a < b && b < d);
        assert_eq!(a.physical, b.physical);
        assert_eq!(b.logical + 1, d.logical);
    }

    #[test]
    fn hlc_tracks_physical_time() {
        let (c, h) = fixture();
        h.now_hlc();
        c.advance(Duration::from_secs(10));
        let t = h.now_hlc();
        assert_eq!(t.physical, Timestamp::from_secs(10).as_micros());
        assert_eq!(t.logical, 0);
    }

    #[test]
    fn observe_merges_remote_causality() {
        let (_c, h) = fixture();
        let remote = HlcTimestamp {
            physical: 5_000_000,
            logical: 7,
        };
        h.observe(remote);
        let t = h.now_hlc();
        assert!(t > remote, "local event must causally follow observed one");
    }

    #[test]
    fn folded_ticks_are_strictly_monotonic() {
        let (c, h) = fixture();
        let mut prev = h.tick();
        for i in 0..100 {
            if i % 10 == 0 {
                c.advance(Duration::from_micros(3));
            }
            let t = h.tick();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn tick_after_exceeds_floor_and_stays_monotonic() {
        let (_c, h) = fixture();
        let t1 = h.tick();
        // A floor far in the future (e.g. a version installed at a later
        // wall-clock instant) pushes the next tick past it.
        let floor = Timestamp::from_secs(500);
        let t2 = h.tick_after(floor);
        assert!(t2 > floor && t2 > t1);
        // Subsequent plain ticks causally follow the observed floor.
        let t3 = h.tick();
        assert!(t3 > t2);
        // A floor in the past changes nothing beyond normal monotonicity.
        let t4 = h.tick_after(Timestamp::from_micros(1));
        assert!(t4 > t3);
    }

    #[test]
    fn folded_ticks_stay_close_to_physical_time() {
        let (c, h) = fixture();
        for _ in 0..50 {
            h.tick();
        }
        // 50 same-instant events => at most 50µs of drift.
        assert!(h.drift() <= Duration::from_micros(50));
        c.advance(Duration::from_secs(1));
        h.tick();
        assert!(h.drift() <= Duration::ZERO);
    }
}
