use crate::{SimDuration, SimInstant};

/// A monotonically advancing virtual clock.
///
/// The clock only moves forward: [`Clock::advance_to`] with an instant in the
/// past is a no-op. The batch orchestrator advances it to each task's end,
/// and defensive callers (e.g. a pool resize completing "in the past" after
/// a failure retry) must not rewind history.
#[derive(Debug, Clone)]
pub(crate) struct Clock {
    now: SimInstant,
}

impl Clock {
    /// Creates a clock at the simulation epoch.
    pub(crate) fn new() -> Self {
        Clock {
            now: SimInstant::EPOCH,
        }
    }

    /// The current virtual time.
    pub(crate) fn now(&self) -> SimInstant {
        self.now
    }

    /// Advances the clock to `t` if `t` is in the future; otherwise leaves it
    /// unchanged. Returns the (possibly zero) amount of time skipped.
    pub(crate) fn advance_to(&mut self, t: SimInstant) -> SimDuration {
        let skipped = t.duration_since(self.now);
        self.now = self.now.max(t);
        skipped
    }

    /// Advances the clock by `d`.
    pub(crate) fn advance_by(&mut self, d: SimDuration) -> SimInstant {
        self.now += d;
        self.now
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_epoch() {
        assert_eq!(Clock::new().now(), SimInstant::EPOCH);
    }

    #[test]
    fn advance_by_accumulates() {
        let mut c = Clock::new();
        c.advance_by(SimDuration::from_secs(3));
        c.advance_by(SimDuration::from_secs(4));
        assert_eq!(c.now().as_secs_f64(), 7.0);
    }

    #[test]
    fn never_rewinds() {
        let mut c = Clock::new();
        c.advance_by(SimDuration::from_secs(10));
        let skipped = c.advance_to(SimInstant::EPOCH + SimDuration::from_secs(5));
        assert_eq!(skipped, SimDuration::ZERO);
        assert_eq!(c.now().as_secs_f64(), 10.0);
    }

    #[test]
    fn advance_to_reports_skip() {
        let mut c = Clock::new();
        let skipped = c.advance_to(SimInstant::EPOCH + SimDuration::from_secs(2));
        assert_eq!(skipped, SimDuration::from_secs(2));
    }
}
