//! Virtual time.
//!
//! The simulator never reads the wall clock: every timestamp is a
//! [`SimTime`], a nanosecond count since simulation start. Durations are
//! ordinary [`std::time::Duration`] values, which keeps call sites readable
//! (`t + Duration::from_millis(5)`).

use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulation's virtual clock, in nanoseconds since start.
///
/// `SimTime` is a plain 64-bit counter: it is `Copy`, totally ordered and
/// cheap to pass around. At nanosecond resolution it can represent ~584
/// years of virtual time, far beyond any experiment in this repository.
///
/// # Examples
///
/// ```
/// use simkit::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_millis(3);
/// assert_eq!(t.as_nanos(), 3_000_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_millis(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from a raw nanosecond count.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Test probe: creates an instant from whole microseconds.
    #[doc(hidden)]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Test probe: creates an instant from whole milliseconds.
    #[doc(hidden)]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let secs = self.0 / 1_000_000_000;
        let millis = (self.0 % 1_000_000_000) / 1_000_000;
        write!(f, "{secs}.{millis:03}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_nanos(9).as_nanos(), 9);
    }

    #[test]
    fn arithmetic_is_consistent() {
        let a = SimTime::from_millis(10);
        let b = a + Duration::from_millis(15);
        assert_eq!(b - a, Duration::from_millis(15));
        // Subtraction saturates rather than panicking.
        assert_eq!(a - b, Duration::ZERO);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats_seconds() {
        let t = SimTime::from_millis(1234);
        assert_eq!(t.to_string(), "1.234s");
    }
}
