//! Virtual time for the discrete-event simulation.
//!
//! Model time is measured in integer **microseconds** since the start of the
//! simulation. The paper reports throughput in "completed queries per time
//! slice" where a slice is 3600 seconds of wall-clock time; microsecond
//! resolution keeps scheduler decisions (which operate at the level of
//! optimizer tasks taking tens of microseconds) exact while still allowing
//! multi-hour experiments inside a `u64`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, microseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" sentinels.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds since simulation start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration; used as "infinite" timeouts.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Construct from fractional seconds, rounded to the nearest
    /// microsecond with ties away from zero (negative values and NaN clamp
    /// to zero, values past `u64::MAX` saturate).
    ///
    /// Equal to `(secs * 1e6).round() as u64` for every input, without the
    /// `round` libcall baseline x86-64 makes: below 2^52 the fraction
    /// `us - trunc(us)` is exact (Sterbenz), and from 2^52 on every `f64`
    /// is already a whole number.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        const WHOLE_FROM: f64 = (1u64 << 52) as f64;
        let us = secs * 1_000_000.0;
        SimDuration(if us < WHOLE_FROM {
            // A negative `us` keeps a fraction above -1 (or saturates at
            // `i64::MIN`): it rounds to at most 0, and clamps to 0.
            let whole = us as i64;
            (whole + i64::from(us - whole as f64 >= 0.5)).max(0) as u64
        } else {
            us as u64
        })
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by a non-negative float, rounding to the nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "durations cannot be negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction went negative");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "inf")
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_micros(), 1_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!((t + d).as_secs(), 13);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 2, SimDuration::from_secs(6));
        assert_eq!(d / 3, SimDuration::from_secs(1));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(4));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_float_round_trip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_micros(), 1_500_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(250));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
        assert_eq!(format!("{}", SimDuration::MAX), "inf");
    }

    /// The rounding `from_secs_f64` replaced, kept as its oracle.
    fn assert_rounds_like_f64_round(secs: f64) {
        let oracle = if secs <= 0.0 {
            0
        } else {
            (secs * 1_000_000.0).round() as u64
        };
        let got = SimDuration::from_secs_f64(secs).as_micros();
        assert_eq!(got, oracle, "{secs:e} ({:#x})", secs.to_bits());
    }

    #[test]
    fn from_secs_f64_rounds_like_f64_round_at_the_edges() {
        let two_52 = (1u64 << 52) as f64;
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let edges = [
            [0.0, -0.0, f64::MIN_POSITIVE, f64::from_bits(1)],
            [-f64::from_bits(1), 5e-7, below(5e-7), 2.5e-6],
            [0.5, below(0.5), -5e-7, -3.0],
            [two_52, two_52 - 0.5, 2f64.powi(53), 2f64.powi(64)].map(|us| us / 1e6),
            [f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN],
        ];
        for secs in edges.into_iter().flatten() {
            assert_rounds_like_f64_round(secs);
        }
        // Every half microsecond across 2^52 µs, where the branches meet.
        for k in 0..64 {
            assert_rounds_like_f64_round((two_52 - 16.0 + f64::from(k) * 0.5) / 1e6);
        }
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_micros(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }

    proptest::proptest! {
        /// Random bit patterns cover every class of `f64` (NaN, infinities,
        /// subnormals, negatives); each case also walks ties and near-ties
        /// from a random microsecond on.
        #[test]
        fn prop_from_secs_f64_matches_f64_round(bits in 0u64..u64::MAX, start in 0u64..1 << 53) {
            assert_rounds_like_f64_round(f64::from_bits(bits));
            for step in 0..256u64 {
                let frac = [0.5, 0.25, 0.75, 0.499_999_9][step as usize % 4];
                let secs = ((start + step / 4) as f64 + frac) / 1e6;
                for bits in [secs.to_bits() - 1, secs.to_bits(), secs.to_bits() + 1] {
                    assert_rounds_like_f64_round(f64::from_bits(bits));
                }
            }
        }
    }
}
