//! Deterministic run-to-run noise.
//!
//! Real cloud runs never repeat exactly: placement, network traffic and OS
//! jitter perturb wall-clock times by a few percent. The models reproduce
//! that with a log-normal multiplier whose seed is a hash of the full
//! scenario identity plus an experiment seed — so a sweep is realistic *and*
//! replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};

/// Relative standard deviation of the noise multiplier.
const SIGMA: f64 = 0.018;

/// Derives a 64-bit seed from the scenario identity.
pub(crate) fn scenario_seed(
    app: &str,
    sku: &str,
    nodes: u32,
    ppn: u32,
    inputs: &crate::Inputs,
    experiment_seed: u64,
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    app.hash(&mut h);
    sku.to_ascii_lowercase().hash(&mut h);
    nodes.hash(&mut h);
    ppn.hash(&mut h);
    for (k, v) in inputs {
        k.hash(&mut h);
        v.hash(&mut h);
    }
    experiment_seed.hash(&mut h);
    h.finish()
}

/// A multiplicative noise factor, log-normal with median 1.
///
/// Uses the Box–Muller transform on two uniform draws; `exp(σZ)` for
/// standard normal `Z` gives the log-normal multiplier.
pub(crate) fn noise_factor(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (SIGMA * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn deterministic_for_same_scenario() {
        let i = inputs(&[("BOXFACTOR", "30")]);
        let s1 = scenario_seed("lammps", "Standard_HB120rs_v3", 8, 120, &i, 42);
        let s2 = scenario_seed("lammps", "standard_hb120rs_v3", 8, 120, &i, 42);
        assert_eq!(s1, s2, "sku case must not change the seed");
        assert_eq!(noise_factor(s1), noise_factor(s2));
    }

    #[test]
    fn different_scenarios_differ() {
        let i = inputs(&[("BOXFACTOR", "30")]);
        let a = scenario_seed("lammps", "HB120rs_v3", 8, 120, &i, 42);
        let b = scenario_seed("lammps", "HB120rs_v3", 16, 120, &i, 42);
        let c = scenario_seed("lammps", "HB120rs_v3", 8, 120, &i, 43);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_is_small_and_centred() {
        let mut product = 1.0f64;
        let mut count = 0;
        for seed in 0..2000u64 {
            let f = noise_factor(seed);
            assert!(f > 0.85 && f < 1.15, "noise {f} out of envelope");
            product *= f;
            count += 1;
        }
        let geo_mean = product.powf(1.0 / count as f64);
        assert!((geo_mean - 1.0).abs() < 0.01, "geometric mean {geo_mean}");
    }
}
