//! Per-family core quota tracking.
//!
//! Azure enforces vCPU quotas per VM family per subscription; running a
//! 16-node HB120rs_v3 scenario needs 1,920 cores of HBv3 quota. The tool's
//! data-collection loop must surface quota failures as failed tasks rather
//! than aborting the sweep, so the tracker reports precise availability.

use crate::error::CloudError;
use std::collections::HashMap;

/// Tracks used vs. allowed cores for each SKU family.
#[derive(Debug, Clone)]
pub struct QuotaTracker {
    default_limit: u32,
    limits: HashMap<String, u32>,
    used: HashMap<String, u32>,
}

impl QuotaTracker {
    /// Creates a tracker where every family defaults to `default_limit`
    /// cores unless overridden via [`QuotaTracker::set_limit`].
    pub(crate) fn with_default_limit(default_limit: u32) -> Self {
        QuotaTracker {
            default_limit,
            limits: HashMap::new(),
            used: HashMap::new(),
        }
    }

    /// Overrides the limit for one family.
    pub fn set_limit(&mut self, family: &str, cores: u32) {
        self.limits.insert(family.to_string(), cores);
    }

    /// The configured limit for a family.
    pub(crate) fn limit(&self, family: &str) -> u32 {
        self.limits
            .get(family)
            .copied()
            .unwrap_or(self.default_limit)
    }

    /// Cores currently in use for a family.
    pub fn used(&self, family: &str) -> u32 {
        self.used.get(family).copied().unwrap_or(0)
    }

    /// Cores still available for a family.
    pub(crate) fn available(&self, family: &str) -> u32 {
        self.limit(family).saturating_sub(self.used(family))
    }

    /// Attempts to take `cores` from the family's quota.
    pub(crate) fn try_acquire(&mut self, family: &str, cores: u32) -> Result<(), CloudError> {
        let available = self.available(family);
        if cores > available {
            return Err(CloudError::QuotaExceeded {
                family: family.to_string(),
                requested: cores,
                available,
            });
        }
        *self.used.entry(family.to_string()).or_insert(0) += cores;
        Ok(())
    }

    /// Returns `cores` to the family's quota (saturating at zero so a
    /// double-release cannot underflow).
    pub(crate) fn release(&mut self, family: &str, cores: u32) {
        if let Some(u) = self.used.get_mut(family) {
            *u = u.saturating_sub(cores);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let mut q = QuotaTracker::with_default_limit(1000);
        q.try_acquire("HBv3", 600).unwrap();
        assert_eq!(q.used("HBv3"), 600);
        assert_eq!(q.available("HBv3"), 400);
        q.release("HBv3", 600);
        assert_eq!(q.available("HBv3"), 1000);
    }

    #[test]
    fn exceeding_quota_reports_availability() {
        let mut q = QuotaTracker::with_default_limit(1000);
        q.try_acquire("HBv3", 900).unwrap();
        let err = q.try_acquire("HBv3", 200).unwrap_err();
        match err {
            CloudError::QuotaExceeded {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, 200);
                assert_eq!(available, 100);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A failed acquire takes nothing.
        assert_eq!(q.used("HBv3"), 900);
    }

    #[test]
    fn families_are_independent() {
        let mut q = QuotaTracker::with_default_limit(100);
        q.try_acquire("HC", 100).unwrap();
        q.try_acquire("HBv3", 100).unwrap();
        assert_eq!(q.available("HC"), 0);
        assert_eq!(q.available("HBv3"), 0);
    }

    #[test]
    fn per_family_override() {
        let mut q = QuotaTracker::with_default_limit(100);
        q.set_limit("HBv3", 5000);
        assert_eq!(q.limit("HBv3"), 5000);
        assert_eq!(q.limit("HC"), 100);
        q.try_acquire("HBv3", 4000).unwrap();
    }

    #[test]
    fn double_release_saturates() {
        let mut q = QuotaTracker::with_default_limit(100);
        q.try_acquire("HC", 50).unwrap();
        q.release("HC", 50);
        q.release("HC", 50);
        assert_eq!(q.used("HC"), 0);
        assert_eq!(q.available("HC"), 100);
    }
}
