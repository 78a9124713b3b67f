//! Canonical refresh periods.

use dt_common::Duration;

/// The constant per-account phase offsetting every refresh grid (§5.2).
/// An engine serves one account.
pub const ACCOUNT_PHASE: Duration = Duration::ZERO;

/// Base of the canonical period set: §5.2 "We define a set of canonical
/// refresh periods as 48·2ⁿ seconds, for integers n."
pub const CANONICAL_BASE_SECS: i64 = 48;

/// Choose the canonical refresh period for a target lag: the largest
/// `48·2ⁿ` not exceeding half the target lag (leaving the other half of the
/// budget for waiting time `w` and refresh duration `d`, per the
/// `p + w + d < t` requirement of §5.2), clamped below at `48·2⁰`.
///
/// Because every canonical period divides all larger ones and the phase is
/// constant per account, the refresh grids of different DTs align — the
/// property §5.2 relies on for snapshot isolation across the DT graph.
pub fn canonical_period(target_lag: Duration) -> Duration {
    let budget_secs = (target_lag.as_secs() / 2).max(CANONICAL_BASE_SECS);
    let mut p = CANONICAL_BASE_SECS;
    while p * 2 <= budget_secs {
        p *= 2;
    }
    Duration::from_secs(p)
}

/// The last grid point at or before `now` for a period and phase.
pub fn grid_at_or_before(
    now: dt_common::Timestamp,
    period: Duration,
    phase: Duration,
) -> dt_common::Timestamp {
    let p = period.as_micros();
    let ph = phase.as_micros();
    let t = now.as_micros() - ph;
    let k = t.div_euclid(p);
    dt_common::Timestamp::from_micros(k * p + ph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::Timestamp;

    #[test]
    fn canonical_periods_are_48_times_powers_of_two() {
        for lag_mins in [1i64, 2, 5, 10, 60, 960] {
            let p = canonical_period(Duration::from_mins(lag_mins)).as_secs();
            assert_eq!(p % CANONICAL_BASE_SECS, 0);
            let q = p / CANONICAL_BASE_SECS;
            assert_eq!(q & (q - 1), 0, "{q} not a power of two");
        }
    }

    #[test]
    fn period_leaves_headroom_under_target() {
        // 1 minute target → 48s period (the minimum).
        assert_eq!(canonical_period(Duration::from_mins(1)), Duration::from_secs(48));
        // 10 minutes → largest 48·2ⁿ ≤ 300s = 192s.
        assert_eq!(
            canonical_period(Duration::from_mins(10)),
            Duration::from_secs(192)
        );
        // 16 hours → ≤ 28800s: 48·512 = 24576s.
        assert_eq!(
            canonical_period(Duration::from_hours(16)),
            Duration::from_secs(24576)
        );
    }

    #[test]
    fn period_can_be_much_smaller_than_target_lag() {
        // §5.2: users are sometimes surprised that the refresh period is
        // substantially smaller than the target lag.
        let target = Duration::from_hours(1);
        let p = canonical_period(target);
        assert!(p.as_secs() * 2 <= target.as_secs());
    }

    #[test]
    fn smaller_periods_divide_larger_ones() {
        let a = canonical_period(Duration::from_mins(2)).as_secs();
        let b = canonical_period(Duration::from_hours(4)).as_secs();
        assert_eq!(b % a, 0);
    }

    #[test]
    fn downstream_chain_resolves_to_min_consumer_lag_and_period() {
        use crate::graph::DtGraph;
        use dt_common::{EntityId, TargetLag};

        // a ← b ← {c, d}: a and b are DOWNSTREAM, c/d carry durations.
        let (a, b, c, d) = (EntityId(1), EntityId(2), EntityId(3), EntityId(4));
        let s = DtGraph::new([
            (a, TargetLag::Downstream, false, vec![]),
            (b, TargetLag::Downstream, false, vec![a]),
            (c, TargetLag::Duration(Duration::from_mins(30)), false, vec![b]),
            (d, TargetLag::Duration(Duration::from_hours(4)), false, vec![b]),
        ]);

        // §3.2: DOWNSTREAM inherits the *minimum* consumer lag, transitively.
        assert_eq!(s.effective_lag(b), Some(Duration::from_mins(30)));
        assert_eq!(s.effective_lag(a), Some(Duration::from_mins(30)));

        // The refresh period is the canonical period of the resolved lag:
        // 30 min → half-budget 900 s → largest 48·2ⁿ ≤ 900 is 48·16 = 768.
        assert_eq!(s.period_of(a), Some(canonical_period(Duration::from_mins(30))));
        assert_eq!(s.period_of(a), Some(Duration::from_secs(768)));
    }

    #[test]
    fn phase_alignment_guarantee_across_lag_spectrum() {
        // §5.2: because every canonical period divides all larger ones and
        // the phase is constant per account, every grid point of a larger
        // period is also a grid point of any smaller period — so data
        // timestamps of DTs with different target lags align.
        let phase = Duration::from_secs(17);
        let lag_mins = [1i64, 7, 30, 120, 960, 5760];
        for now_secs in [1_000i64, 54_321, 1_000_000] {
            let now = Timestamp::from_secs(now_secs);
            for &la in &lag_mins {
                for &lb in &lag_mins {
                    let pa = canonical_period(Duration::from_mins(la));
                    let pb = canonical_period(Duration::from_mins(lb));
                    if pa > pb {
                        continue;
                    }
                    assert_eq!(pb.as_secs() % pa.as_secs(), 0, "{pa:?} ∤ {pb:?}");
                    // A grid point of the coarser grid sits on the finer one.
                    let gb = grid_at_or_before(now, pb, phase);
                    assert_eq!(grid_at_or_before(gb, pa, phase), gb);
                }
            }
        }
    }

    #[test]
    fn grid_alignment() {
        let p = Duration::from_secs(96);
        let phase = Duration::from_secs(10);
        let g = grid_at_or_before(Timestamp::from_secs(500), p, phase);
        assert_eq!(g, Timestamp::from_secs(490)); // 10 + 5*96 = 490
        // Grid points of a divider period include those of the multiple.
        let small = Duration::from_secs(48);
        let g2 = grid_at_or_before(g, small, phase);
        assert_eq!(g2, g);
    }
}
