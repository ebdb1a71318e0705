use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time with nanosecond resolution.
///
/// Unlike `std::time::Duration`, arithmetic saturates instead of panicking:
/// simulated experiments routinely add large provisioning latencies to large
/// run times and a saturated maximum is a more useful failure mode than an
/// abort mid-sweep.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration (~584 years).
    pub(crate) const MAX: SimDuration = SimDuration(u64::MAX);

    const NANOS_PER_SEC: u64 = 1_000_000_000;
    const NANOS_PER_MILLI: u64 = 1_000_000;

    /// Creates a duration from whole nanoseconds.
    pub(crate) const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(Self::NANOS_PER_MILLI))
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(Self::NANOS_PER_SEC))
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration::from_secs(m.saturating_mul(60))
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration::from_secs(h.saturating_mul(3600))
    }

    /// Creates a duration from fractional seconds, clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * Self::NANOS_PER_SEC as f64;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// Whole nanoseconds in this duration.
    pub(crate) const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / Self::NANOS_PER_SEC as f64
    }

    /// Fractional hours — the unit cloud billing is quoted in.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Saturating addition.
    pub(crate) const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (floors at zero).
    pub(crate) const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 3600.0 {
            write!(f, "{:.2}h", s / 3600.0)
        } else if s >= 60.0 {
            write!(f, "{:.2}m", s / 60.0)
        } else if s >= 1.0 {
            write!(f, "{:.3}s", s)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_mins(3), SimDuration::from_secs(180));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_secs(3600));
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration::MAX);
    }

    #[test]
    fn billing_hours() {
        let d = SimDuration::from_secs(36);
        assert!((d.as_hours_f64() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_secs(7200).to_string(), "2.00h");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1.50m");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_nanos(42).to_string(), "42ns");
    }

    #[test]
    fn scalar_ops() {
        assert_eq!(SimDuration::from_secs(10) * 3, SimDuration::from_secs(30));
        assert_eq!(
            SimDuration::from_secs(10) / 4,
            SimDuration::from_millis(2500)
        );
        // Division by zero is clamped to division by one rather than panicking.
        assert_eq!(SimDuration::from_secs(10) / 0, SimDuration::from_secs(10));
    }

    #[test]
    fn sum_iterates() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
