//! Deterministic virtual time for the HPCAdvisor simulation stack.
//!
//! Every simulator in this workspace (the cloud provider, the batch
//! orchestrator, the application performance models) operates in *virtual*
//! time so that multi-hour cloud experiments replay in milliseconds and are
//! bit-for-bit reproducible. This crate provides the shared vocabulary:
//!
//! * [`SimDuration`] / [`SimInstant`] — nanosecond-resolution time types with
//!   the arithmetic the simulators need (no reliance on `std::time`, which
//!   would tie results to the host clock).
//! * [`SharedClock`] — a monotonically advancing virtual clock behind a
//!   lock, shared by the cloud provider and every batch service drawing on
//!   it.
//!
//! # Example
//!
//! ```
//! use simtime::{SharedClock, SimDuration};
//!
//! let clock = SharedClock::new();
//! let booted = clock.now() + SimDuration::from_secs(30);
//! clock.advance_to(booted);
//! assert_eq!(clock.now().as_secs_f64(), 30.0);
//! ```

mod clock;
mod duration;
mod instant;
mod shared;

pub use duration::SimDuration;
pub use instant::SimInstant;
pub use shared::SharedClock;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Duration addition is commutative within u64 range.
        #[test]
        fn duration_add_commutes(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
            let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
            prop_assert_eq!(da + db, db + da);
        }

        /// Instant minus instant round-trips through duration addition.
        #[test]
        fn instant_difference_roundtrip(a in 0u64..u32::MAX as u64, d in 0u64..u32::MAX as u64) {
            let start = SimInstant::from_nanos(a);
            let later = start + SimDuration::from_nanos(d);
            prop_assert_eq!(later - start, SimDuration::from_nanos(d));
        }

        /// `as_secs_f64` and `from_secs_f64` agree to nanosecond precision.
        #[test]
        fn secs_f64_roundtrip(ns in 0u64..1_000_000_000_000u64) {
            let d = SimDuration::from_nanos(ns);
            let rt = SimDuration::from_secs_f64(d.as_secs_f64());
            let err = rt.as_nanos().abs_diff(ns);
            // f64 has 52 bits of mantissa; allow a few ns of rounding.
            prop_assert!(err <= 256, "err {err} ns");
        }
    }
}
