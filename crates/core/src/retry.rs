//! Deterministic retry policy for the collection loop.
//!
//! The paper's Algorithm 1 assumes the cloud eventually cooperates; real
//! sweeps hit capacity blips, unhealthy boots and node loss. A
//! [`RetryPolicy`] retries *transient* faults with exponential backoff on
//! the simulated clock — seeded jitter, so a sweep replays identically —
//! while *permanent* faults fail fast and quota exhaustion skips the rest
//! of the SKU instead of burning attempts.

use batchsim::BatchError;
use cloudsim::{CloudError, Fnv64};

/// How a collection-layer failure should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultClass {
    /// Retry with backoff: injected transient faults, capacity blips.
    Transient,
    /// No attempt on this SKU can ever succeed (family quota exhausted):
    /// skip its remaining scenarios, keep the other shards running.
    PermanentForSku,
    /// Retrying cannot help (hard rejections, config errors): fail fast.
    Permanent,
}

/// Classifies a cloud control-plane error for retry purposes.
pub(crate) fn classify_cloud(e: &CloudError) -> FaultClass {
    match e {
        CloudError::QuotaExceeded { .. } => FaultClass::PermanentForSku,
        CloudError::ProvisioningFailed {
            transient: true, ..
        } => FaultClass::Transient,
        _ => FaultClass::Permanent,
    }
}

/// Classifies a batch-layer error for retry purposes.
pub(crate) fn classify_batch(e: &BatchError) -> FaultClass {
    match e {
        BatchError::Cloud(c) => classify_cloud(c),
        _ => FaultClass::Permanent,
    }
}

/// A deterministic retry/backoff schedule.
///
/// Backoff for retry `n` (1-based) is `base · 2^(n-1)` capped at `max`,
/// scaled by a jitter factor in `[0.8, 1.2)` derived from a stateless hash
/// of `(jitter_seed, scope, attempt)` — no RNG state, so serial and
/// parallel collects advance the clock identically per scope.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated seconds.
    pub base_backoff_secs: f64,
    /// Upper bound on a single backoff, in simulated seconds.
    pub max_backoff_secs: f64,
    /// Seed for the jitter hash.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_secs: 30.0,
            max_backoff_secs: 300.0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// A policy retrying up to `max_attempts` total attempts.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Simulated seconds to back off before retry `attempt` (1-based: the
    /// first retry is attempt 1) of an operation in `scope`.
    pub fn backoff_secs(&self, scope: &str, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self.base_backoff_secs * f64::from(1u32 << exp.min(31));
        let capped = raw.min(self.max_backoff_secs);
        capped * jitter(self.jitter_seed, scope, attempt)
    }
}

/// Stateless jitter factor in `[0.8, 1.2)` via 64-bit FNV-1a.
fn jitter(seed: u64, scope: &str, attempt: u32) -> f64 {
    let h = Fnv64::new()
        .field(&seed.to_le_bytes())
        .field(scope.as_bytes())
        .field(&attempt.to_le_bytes())
        .finish();
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    0.8 + 0.4 * unit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_retries() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 3);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        // with_max_attempts never drops below one attempt.
        assert_eq!(RetryPolicy::with_max_attempts(0).max_attempts, 1);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter_seed: 1,
            ..RetryPolicy::default()
        };
        let b1 = p.backoff_secs("s", 1);
        let b2 = p.backoff_secs("s", 2);
        let b3 = p.backoff_secs("s", 3);
        // Jitter is within ±20%, so doubling dominates it.
        assert!((0.8 * 30.0..1.2 * 30.0).contains(&b1), "{b1}");
        assert!(b2 > b1, "{b2} vs {b1}");
        assert!(b3 > b2, "{b3} vs {b2}");
        // Deep attempts cap at max (± jitter).
        let deep = p.backoff_secs("s", 20);
        assert!(deep <= 1.2 * p.max_backoff_secs, "{deep}");
        assert!(deep >= 0.8 * p.max_backoff_secs, "{deep}");
    }

    #[test]
    fn backoff_is_deterministic_per_scope() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_secs("a", 1), p.backoff_secs("a", 1));
        assert_ne!(p.backoff_secs("a", 1), p.backoff_secs("b", 1));
    }

    #[test]
    fn classification() {
        let quota = CloudError::QuotaExceeded {
            family: "HC".into(),
            requested: 100,
            available: 10,
        };
        assert_eq!(classify_cloud(&quota), FaultClass::PermanentForSku);
        let transient = CloudError::ProvisioningFailed {
            operation: "allocate nodes".into(),
            reason: "injected".into(),
            transient: true,
        };
        assert_eq!(classify_cloud(&transient), FaultClass::Transient);
        let hard = CloudError::UnknownSku("X".into());
        assert_eq!(classify_cloud(&hard), FaultClass::Permanent);

        assert_eq!(
            classify_batch(&BatchError::Cloud(quota)),
            FaultClass::PermanentForSku
        );
        assert_eq!(
            classify_batch(&BatchError::PoolUnavailable { pool: "p".into() }),
            FaultClass::Permanent
        );
    }
}
