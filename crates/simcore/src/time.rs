//! Virtual time for the simulator.
//!
//! Time is an integer count of microseconds since simulation start. Integer
//! time orders slot free times and channel completions exactly (no
//! floating-point ties) and makes runs reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw microsecond count.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    ///
    /// Negative and non-finite inputs clamp to zero: cost models occasionally
    /// produce tiny negative values from subtraction and those must not panic.
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((secs * 1_000_000.0).round() as u64)
    }

    /// Raw microsecond count.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Span as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time to move `bytes` through a channel of `bytes_per_sec` bandwidth.
    ///
    /// Zero-bandwidth channels are treated as infinitely fast rather than
    /// stalling the simulation; configurations validate bandwidth > 0
    /// separately.
    pub fn transfer(bytes: u64, bytes_per_sec: u64) -> SimDuration {
        if bytes_per_sec == 0 || bytes == 0 {
            return SimDuration(0);
        }
        // Round up: a transfer always takes at least one microsecond per
        // partial quantum, so distinct transfers never collapse to zero cost.
        let us = (bytes as u128 * 1_000_000).div_ceil(bytes_per_sec as u128);
        SimDuration(us.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_add_duration() {
        let t = SimTime(10) + SimDuration(5);
        assert_eq!(t, SimTime(15));
    }

    #[test]
    fn time_sub_saturates() {
        assert_eq!(SimTime(3) - SimTime(10), SimDuration::ZERO);
        assert_eq!(SimTime(10) - SimTime(3), SimDuration(7));
    }

    #[test]
    fn duration_from_secs_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration(1_500_000));
        assert_eq!(SimDuration::from_secs_f64(0.0000005), SimDuration(1));
    }

    #[test]
    fn duration_from_secs_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn transfer_rounds_up() {
        // 1 byte over 1 MB/s = 1 us exactly.
        assert_eq!(SimDuration::transfer(1, 1_000_000), SimDuration(1));
        // 3 bytes over 2 MB/s = 1.5 us, rounds to 2.
        assert_eq!(SimDuration::transfer(3, 2_000_000), SimDuration(2));
    }

    #[test]
    fn transfer_zero_cases() {
        assert_eq!(SimDuration::transfer(0, 100), SimDuration::ZERO);
        assert_eq!(SimDuration::transfer(100, 0), SimDuration::ZERO);
    }

    #[test]
    fn transfer_large_does_not_overflow() {
        let d = SimDuration::transfer(u64::MAX, 1);
        assert_eq!(d, SimDuration(u64::MAX));
    }

    #[test]
    fn max_is_the_later_instant() {
        assert_eq!(SimTime(4).max(SimTime(10)), SimTime(10));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime(1_500_000)), "1.500000s");
        assert_eq!(format!("{}", SimDuration(250)), "0.000250s");
    }
}
