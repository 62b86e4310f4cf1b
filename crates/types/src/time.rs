//! Simulated time.
//!
//! The whole reproduction runs on a discrete-event clock with millisecond
//! resolution. [`SimTime`] is an absolute instant (milliseconds since the
//! start of the simulation) and [`SimDuration`] a span. Millisecond
//! resolution is sufficient: the paper's WAN latencies are tens to hundreds
//! of milliseconds and service times are seconds.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute simulated instant, in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant a given number of seconds after the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Span from an earlier instant to `self`; saturates at zero if
    /// `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One second.
    pub const SECOND: SimDuration = SimDuration(1000);
    /// One minute.
    pub const MINUTE: SimDuration = SimDuration(60 * 1000);
    /// One hour.
    pub const HOUR: SimDuration = SimDuration(3600 * 1000);

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Builds a span from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1000)
    }

    /// Builds a span from fractional seconds, rounding to milliseconds.
    /// Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1000.0).round() as u64)
    }

    /// Milliseconds in the span.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds in the span (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Seconds in the span as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
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
        self.since(rhs)
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
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t.as_secs(), 15);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(
            SimTime::from_secs(1).since(SimTime::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_constants() {
        assert_eq!(SimDuration::MINUTE, SimDuration::from_secs(60));
        assert_eq!(SimDuration::HOUR, SimDuration::from_mins(60));
        assert_eq!(SimDuration::SECOND * 3, SimDuration::from_secs(3));
    }

    #[test]
    fn fractional_seconds_round() {
        assert_eq!(SimDuration::from_secs_f64(0.0005).as_millis(), 1);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(2).to_string(), "t+2.000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }

    proptest! {
        #[test]
        fn add_then_since_roundtrips(base in 0u64..1_000_000, d in 0u64..1_000_000) {
            let t0 = SimTime(base);
            let t1 = t0 + SimDuration(d);
            prop_assert_eq!(t1.since(t0), SimDuration(d));
        }

        #[test]
        fn ordering_consistent_with_millis(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
            prop_assert_eq!(SimTime(a) < SimTime(b), a < b);
        }
    }
}
