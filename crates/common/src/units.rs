//! Byte-size and virtual-time units.
//!
//! The OPA engine executes the real MapReduce data flow while charging
//! *virtual* time through a cost model, so wall-clock types from `std::time`
//! are deliberately not used anywhere in the data path. [`SimTime`] is an
//! absolute instant on the simulated clock and [`SimDuration`] a span; both
//! are microsecond-granular integers so event ordering is exact and runs are
//! bit-for-bit reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// One kibibyte (1024 bytes).
pub const KB: u64 = 1024;
/// One mebibyte (1024 KiB).
pub const MB: u64 = 1024 * KB;
/// One gibibyte (1024 MiB).
pub const GB: u64 = 1024 * MB;

/// A byte count with human-readable formatting.
///
/// ```
/// use opa_common::units::{ByteSize, MB};
/// assert_eq!(ByteSize(256 * MB).to_string(), "256.00 MB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// The raw number of bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GB {
            write!(f, "{:.2} GB", b as f64 / GB as f64)
        } else if b >= MB {
            write!(f, "{:.2} MB", b as f64 / MB as f64)
        } else if b >= KB {
            write!(f, "{:.2} KB", b as f64 / KB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl From<u64> for ByteSize {
    fn from(b: u64) -> Self {
        ByteSize(b)
    }
}

/// An instant on the simulated clock, in microseconds since job start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The epoch: simulated time zero (job start).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from fractional seconds. Negative inputs clamp to
    /// zero (cost models can produce tiny negative values from rounding).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// This instant in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from fractional seconds, clamping negatives to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// This span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
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

    #[test]
    fn byte_size_formats_each_magnitude() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize(2 * KB).to_string(), "2.00 KB");
        assert_eq!(ByteSize(140 * MB).to_string(), "140.00 MB");
        assert_eq!(ByteSize(256 * GB).to_string(), "256.00 GB");
    }

    #[test]
    fn sim_time_roundtrips_through_seconds() {
        let t = SimTime::from_secs_f64(4860.0);
        assert!((t.as_secs_f64() - 4860.0).abs() < 1e-6);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn sim_time_arithmetic() {
        let t = SimTime::from_secs_f64(10.0);
        let d = SimDuration::from_secs_f64(2.5);
        assert_eq!((t + d).as_secs_f64(), 12.5);
        assert_eq!((t - SimTime::from_secs_f64(4.0)).as_secs_f64(), 6.0);
        // Subtraction saturates rather than panicking.
        assert_eq!(SimTime::ZERO - t, SimDuration::ZERO);
    }

    #[test]
    fn durations_sum() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs_f64(i as f64)).sum();
        assert_eq!(total.as_secs_f64(), 10.0);
    }

    #[test]
    fn max_and_since() {
        let a = SimTime::from_secs_f64(3.0);
        let b = SimTime::from_secs_f64(5.0);
        assert_eq!(a.max(b), b);
        assert_eq!(b.saturating_since(a).as_secs_f64(), 2.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }
}
