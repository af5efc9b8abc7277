//! Clock mapping between a shared *fleet* timeline and a per-instance
//! *local* timeline — the wiring that lets one simulation step several
//! independent [`Engine`](crate::Engine)-driven instances in lockstep.
//!
//! A fleet manager owns one global clock and advances every member
//! instance to each global instant. Healthy members run at rate 1.0
//! (local time ≡ fleet time, offset by nothing); a degraded member runs
//! *slower*: while the fleet advances Δt, the slowed instance only gets
//! `rate · Δt` of its own simulated time, so the same event queue drains
//! later in fleet terms. [`ClockMap`] records the piecewise-linear
//! mapping — rate changes only at explicit [`ClockMap::set_rate`] calls —
//! and converts instants in both directions, including instants that fall
//! in *earlier* segments (needed when harvesting completion timestamps
//! recorded on a local clock before a slowdown landed).
//!
//! The mapping is pure `u64`/`f64` arithmetic on picosecond counts; given
//! the same segment history it is bit-stable across runs, preserving the
//! determinism contract of the engine it sits beside.

use crate::time::{Dur, SimTime};

/// One linear segment of the mapping: from `fleet`/`local` onward, local
/// time advances `rate` picoseconds per fleet picosecond.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    fleet: SimTime,
    local: SimTime,
    rate: f64,
}

/// A piecewise-linear, monotone mapping between fleet time and one
/// instance's local time.
///
/// ```
/// use desim::{ClockMap, SimTime};
///
/// let mut c = ClockMap::identity();
/// c.set_rate(SimTime::from_us(10), 0.5); // instance halves speed at t=10us
/// assert_eq!(c.local_of(SimTime::from_us(10)), SimTime::from_us(10));
/// assert_eq!(c.local_of(SimTime::from_us(30)), SimTime::from_us(20));
/// assert_eq!(c.fleet_of(SimTime::from_us(20)), SimTime::from_us(30));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClockMap {
    segs: Vec<Segment>,
}

impl Default for ClockMap {
    fn default() -> Self {
        Self::identity()
    }
}

impl ClockMap {
    /// The identity mapping: local time ≡ fleet time (rate 1.0).
    pub fn identity() -> Self {
        ClockMap {
            segs: vec![Segment {
                fleet: SimTime::ZERO,
                local: SimTime::ZERO,
                rate: 1.0,
            }],
        }
    }

    /// The current (latest-segment) rate.
    pub fn rate(&self) -> f64 {
        self.last().rate
    }

    fn last(&self) -> &Segment {
        self.segs.last().expect("ClockMap always has a segment")
    }

    /// Changes the rate from fleet instant `at` onward. Local time is
    /// continuous across the change.
    ///
    /// # Panics
    /// Panics if `at` precedes the last rate change (segments must be
    /// appended in fleet-time order) or if `rate` is not finite and
    /// positive (a zero rate would make [`ClockMap::fleet_of`] undefined
    /// — model a dead instance by not advancing it at all instead).
    pub fn set_rate(&mut self, at: SimTime, rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "ClockMap rate must be finite and positive, got {rate}"
        );
        assert!(
            at >= self.last().fleet,
            "ClockMap rate changes must be appended in fleet order"
        );
        let local = self.local_of(at);
        self.segs.push(Segment {
            fleet: at,
            local,
            rate,
        });
    }

    /// The local instant corresponding to fleet instant `t`.
    ///
    /// # Panics
    /// Panics if `t` precedes the first segment (fleet time starts at 0).
    pub fn local_of(&self, t: SimTime) -> SimTime {
        let seg = self
            .segs
            .iter()
            .rev()
            .find(|s| s.fleet <= t)
            .expect("fleet instant precedes ClockMap origin");
        let dt = (t - seg.fleet).as_ps();
        seg.local + Dur::from_ps(scale(dt, seg.rate))
    }

    /// The fleet instant corresponding to local instant `t`. Inverse of
    /// [`ClockMap::local_of`] up to picosecond rounding.
    ///
    /// # Panics
    /// Panics if `t` precedes the first segment.
    pub fn fleet_of(&self, t: SimTime) -> SimTime {
        let seg = self
            .segs
            .iter()
            .rev()
            .find(|s| s.local <= t)
            .expect("local instant precedes ClockMap origin");
        let dt = (t - seg.local).as_ps();
        seg.fleet + Dur::from_ps(scale(dt, 1.0 / seg.rate))
    }
}

/// Scales a picosecond count by a rate, rounding to nearest. Exact for
/// rate 1.0 (the common, healthy-instance case takes the integer path).
fn scale(ps: u64, rate: f64) -> u64 {
    if rate == 1.0 {
        ps
    } else {
        (ps as f64 * rate).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_both_ways() {
        let c = ClockMap::identity();
        let t = SimTime::from_us(123);
        assert_eq!(c.local_of(t), t);
        assert_eq!(c.fleet_of(t), t);
        assert_eq!(c.rate(), 1.0);
    }

    #[test]
    fn slowdown_stretches_fleet_time() {
        let mut c = ClockMap::identity();
        c.set_rate(SimTime::from_us(100), 0.25);
        // Before the change: identity.
        assert_eq!(c.local_of(SimTime::from_us(40)), SimTime::from_us(40));
        // After: 100us of fleet time yields 25us of local time.
        assert_eq!(c.local_of(SimTime::from_us(200)), SimTime::from_us(125));
        assert_eq!(c.fleet_of(SimTime::from_us(125)), SimTime::from_us(200));
        // Historical local instants still map through the old segment.
        assert_eq!(c.fleet_of(SimTime::from_us(70)), SimTime::from_us(70));
    }

    #[test]
    fn stacked_rate_changes_compose() {
        let mut c = ClockMap::identity();
        c.set_rate(SimTime::from_us(10), 0.5);
        c.set_rate(SimTime::from_us(20), 2.0);
        // 10us @ 1.0 + 10us @ 0.5 = 15us local at fleet 20us.
        assert_eq!(c.local_of(SimTime::from_us(20)), SimTime::from_us(15));
        // +5us fleet @ 2.0 = +10us local.
        assert_eq!(c.local_of(SimTime::from_us(25)), SimTime::from_us(25));
        assert_eq!(c.fleet_of(SimTime::from_us(25)), SimTime::from_us(25));
    }

    #[test]
    fn roundtrip_is_exact_at_rate_one_and_close_otherwise() {
        let mut c = ClockMap::identity();
        c.set_rate(SimTime::from_us(7), 1.0 / 3.0);
        for ps in [0u64, 6_999_999, 7_000_001, 1_000_000_000, 123_456_789_123] {
            let t = SimTime::from_ps(ps);
            let back = c.fleet_of(c.local_of(t));
            let err = back.as_ps().abs_diff(t.as_ps());
            assert!(err <= 4, "roundtrip error {err} ps at {ps}");
        }
    }

    #[test]
    fn monotone_under_slowdown() {
        let mut c = ClockMap::identity();
        c.set_rate(SimTime::from_us(1), 0.1);
        let mut prev = SimTime::ZERO;
        for us in 0..100 {
            let l = c.local_of(SimTime::from_us(us));
            assert!(l >= prev, "local clock went backwards at {us}us");
            prev = l;
        }

        // `fleet_of` must be non-decreasing too: the fleet's completion
        // harvest releases a prefix of its local-time-ordered heap and
        // relies on it. Probe picosecond-adjacent local instants around
        // every rate knee, where rounding in two segments meets.
        for factor in [1.0, 1.5, 3.0, 8.0] {
            let mut c = ClockMap::identity();
            for (i, us) in [3u64, 7, 7, 20].into_iter().enumerate() {
                // Alternate slow and healthy so knees go both ways; the
                // repeated instant stacks two changes on one knee.
                let rate = if i % 2 == 0 { 1.0 / factor } else { 1.0 };
                c.set_rate(SimTime::from_ps(us * 1_000_000 + 333), rate);
            }
            let knees: Vec<u64> = c.segs.iter().map(|s| s.local.as_ps()).collect();
            for knee in knees {
                let lo = knee.saturating_sub(8);
                let mut prev = c.fleet_of(SimTime::from_ps(lo));
                for ps in lo + 1..=knee + 8 {
                    let f = c.fleet_of(SimTime::from_ps(ps));
                    assert!(
                        f >= prev,
                        "fleet clock went backwards at local {ps}ps (factor {factor})"
                    );
                    prev = f;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "appended in fleet order")]
    fn out_of_order_rate_change_panics() {
        let mut c = ClockMap::identity();
        c.set_rate(SimTime::from_us(10), 0.5);
        c.set_rate(SimTime::from_us(5), 0.5);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_rate_panics() {
        let mut c = ClockMap::identity();
        c.set_rate(SimTime::from_us(1), 0.0);
    }
}
