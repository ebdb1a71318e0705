use crate::clock::Clock;
use crate::{SimDuration, SimInstant};
use parking_lot::Mutex;
use std::sync::Arc;

/// A thread-safe, cloneable handle to a virtual clock.
///
/// The cloud provider, the batch orchestrator and the data collector all
/// observe one timeline; cloning the handle shares the underlying clock.
/// Mutations are monotonic, so concurrent advancement from the parallel
/// collector threads can never rewind time.
#[derive(Debug, Clone, Default)]
pub struct SharedClock {
    inner: Arc<Mutex<Clock>>,
}

impl SharedClock {
    /// Creates a shared clock at the simulation epoch.
    pub fn new() -> Self {
        SharedClock {
            inner: Arc::new(Mutex::new(Clock::new())),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimInstant {
        self.inner.lock().now()
    }

    /// Advances the clock to `t` if `t` is in the future.
    pub fn advance_to(&self, t: SimInstant) -> SimDuration {
        self.inner.lock().advance_to(t)
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance_by(&self, d: SimDuration) -> SimInstant {
        self.inner.lock().advance_by(d)
    }

    /// True if two handles share the same underlying clock.
    #[cfg(test)]
    fn same_clock(&self, other: &SharedClock) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let a = SharedClock::new();
        let b = a.clone();
        a.advance_by(SimDuration::from_secs(5));
        assert_eq!(b.now().as_secs_f64(), 5.0);
        assert!(a.same_clock(&b));
    }

    #[test]
    fn independent_clocks_do_not_share() {
        let a = SharedClock::new();
        let b = SharedClock::new();
        a.advance_by(SimDuration::from_secs(5));
        assert_eq!(b.now(), SimInstant::EPOCH);
        assert!(!a.same_clock(&b));
    }

    #[test]
    fn concurrent_advancement_is_monotonic() {
        let clock = SharedClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = clock.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance_by(SimDuration::from_nanos(1));
                    }
                });
            }
        });
        assert_eq!(clock.now().as_nanos(), 4000);
    }
}
