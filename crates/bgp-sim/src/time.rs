//! Simulated time: microseconds since simulation start.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (microseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// True for the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0 / 1_000_000;
        let us = self.0 % 1_000_000;
        write!(f, "{s}.{us:06}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(2) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 2_500_000);
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(1500));
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(SimTime::ZERO - SimTime::from_secs(5), SimDuration::ZERO);
    }

    #[test]
    fn addition_saturates_at_the_end_of_time() {
        // Scenario timelines add offsets to arbitrary phase-start times;
        // overflow must pin at the maximum instead of wrapping (a wrapped
        // event time would fire in the past and corrupt the queue order).
        let eot = SimTime(u64::MAX);
        assert_eq!(eot + SimDuration::from_secs(1), eot);
        assert_eq!(SimTime(u64::MAX - 1) + SimDuration(5), eot);
        let mut t = SimTime(u64::MAX - 2);
        t += SimDuration::from_secs(10);
        assert_eq!(t, eot);
    }

    #[test]
    fn duration_addition_saturates() {
        let huge = SimDuration(u64::MAX);
        assert_eq!(huge + SimDuration::from_secs(1), huge);
        assert_eq!(SimDuration(u64::MAX - 3) + SimDuration(10), huge);
    }

    #[test]
    fn saturated_arithmetic_stays_ordered() {
        // Saturation must not break the ordering invariants the event
        // queue relies on: t + d >= t for every t, d.
        for t in [0u64, 1, 1 << 32, u64::MAX - 1, u64::MAX] {
            for d in [0u64, 1, 1 << 40, u64::MAX] {
                let t = SimTime(t);
                assert!(t + SimDuration(d) >= t, "t={t}, d={d}");
            }
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }
}
