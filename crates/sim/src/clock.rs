//! Virtual time.
//!
//! All simulated time is kept in integer nanoseconds. [`Time`] is an absolute
//! point on the virtual clock, [`Duration`] a span between two points. Both
//! are thin wrappers over `u64` so they are `Copy`, hashable, and totally
//! ordered, and arithmetic between them is checked in debug builds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the virtual clock, in nanoseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`. Saturates at zero rather than wrapping,
    /// so accidental misordering shows up as a zero span, not a huge one.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Construct from a floating-point number of microseconds (rounded).
    #[inline]
    pub fn from_micros_f64(us: f64) -> Duration {
        debug_assert!(us >= 0.0, "negative duration: {us}");
        Duration((us * 1_000.0).round() as u64)
    }

    /// Construct from a floating-point number of seconds (rounded).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Duration {
        debug_assert!(s >= 0.0, "negative duration: {s}");
        Duration((s * 1e9).round() as u64)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        debug_assert!(self.0 >= rhs.0, "time underflow: {self:?} - {rhs:?}");
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self:?} - {rhs:?}");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(self.0 >= rhs.0, "duration underflow: {self:?} - {rhs:?}");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        debug_assert!(self.0 >= rhs.0, "duration underflow: {self:?} -= {rhs:?}");
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        debug_assert!(rhs >= 0.0);
        Duration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::ZERO + Duration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        assert_eq!(t - Time::ZERO, Duration::from_micros(5));
        assert_eq!(t.since(Time::ZERO), Duration::from_micros(5));
    }

    #[test]
    fn since_saturates() {
        let early = Time(100);
        let late = Time(200);
        assert_eq!(early.since(late), Duration::ZERO);
        assert_eq!(late.since(early), Duration(100));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_micros(3), Duration::from_nanos(3_000));
        assert_eq!(Duration::from_millis(2), Duration::from_micros(2_000));
        assert_eq!(Duration::from_micros_f64(1.5), Duration(1_500));
        assert_eq!(Duration::from_secs_f64(1e-6), Duration(1_000));
    }

    #[test]
    fn duration_float_views() {
        let d = Duration::from_nanos(2_500_000);
        assert!((d.as_micros_f64() - 2_500.0).abs() < 1e-9);
        assert!((d.as_millis_f64() - 2.5).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_micros(10);
        assert_eq!(d * 3, Duration::from_micros(30));
        assert_eq!(d * 0.5, Duration::from_micros(5));
        assert_eq!(d / 2, Duration::from_micros(5));
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_micros).sum();
        assert_eq!(total, Duration::from_micros(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Duration(999)), "999ns");
        assert_eq!(format!("{}", Duration(1_500)), "1.500us");
        assert_eq!(format!("{}", Duration(2_000_000)), "2.000ms");
        assert_eq!(format!("{}", Duration(3_500_000_000)), "3.500s");
    }

    #[test]
    fn min_max() {
        let a = Time(5);
        let b = Time(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Duration(5).max(Duration(9)), Duration(9));
        assert_eq!(Duration(5).min(Duration(9)), Duration(5));
    }
}
