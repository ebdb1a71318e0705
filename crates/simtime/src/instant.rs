use crate::SimDuration;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in nanoseconds since the simulation
/// epoch (the instant the clock was created).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The simulation epoch: time zero.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant from nanoseconds since the epoch.
    #[cfg(test)]
    pub(crate) const fn from_nanos(ns: u64) -> Self {
        SimInstant(ns)
    }

    /// Nanoseconds since the epoch.
    #[cfg(test)]
    pub(crate) const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The elapsed duration since `earlier`, or zero if `earlier` is later
    /// (virtual time never runs backwards, so a zero floor flags misuse
    /// without poisoning an entire sweep).
    pub(crate) const fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub(crate) fn max(self, other: SimInstant) -> SimInstant {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.as_nanos()))
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(SimInstant::EPOCH.as_nanos(), 0);
    }

    #[test]
    fn add_then_subtract() {
        let t0 = SimInstant::EPOCH + SimDuration::from_secs(10);
        let t1 = t0 + SimDuration::from_secs(5);
        assert_eq!(t1 - t0, SimDuration::from_secs(5));
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimInstant::from_nanos(5);
        let b = SimInstant::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn debug_format() {
        let t = SimInstant::EPOCH + SimDuration::from_secs(90);
        assert_eq!(format!("{t:?}"), "t+1.50m");
    }
}
