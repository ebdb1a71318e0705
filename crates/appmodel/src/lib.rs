//! Analytic performance models of the HPC applications the paper evaluates.
//!
//! The HPCAdvisor tool treats applications as black boxes: it runs them on a
//! (SKU, node-count, processes-per-node, input-parameters) point and observes
//! wall-clock time plus whatever metrics the run script scrapes from the
//! application log. This crate is the simulation-side stand-in for the real
//! codes: given the same point it produces a deterministic, physically
//! plausible wall-clock time and a synthetic application log.
//!
//! The models are built on a shared execution engine (`engine`):
//!
//! * **Roofline compute** — per-step time is the max of FLOP time and memory
//!   traffic time across the allocated cores/sockets.
//! * **Cache model** — when the per-node working set falls inside the node's
//!   L3 (HBv3's 1.5 GiB 3D V-Cache!), effective memory bandwidth rises and
//!   strong scaling turns **superlinear**, reproducing the paper's Fig. 5
//!   "efficiency > 1" observation.
//! * **Hockney communication** — halo exchanges (surface-to-volume) and
//!   tree all-reduce collectives over the SKU's interconnect; Ethernet SKUs
//!   pay ~20× the latency of InfiniBand ones and fall apart at scale.
//! * **Load imbalance** — a slowly growing multiplier with rank count.
//! * **Deterministic noise** — seeded log-normal run-to-run variation, so
//!   two scenarios never tie exactly (just like real clouds) yet every
//!   experiment replays bit-for-bit.
//!
//! Per-application models (`apps`) translate user-facing input parameters
//! (the paper's `appinputs`) into engine work profiles:
//!
//! | App | Inputs | Character |
//! |-----|--------|-----------|
//! | LAMMPS (LJ benchmark) | `BOXFACTOR` | compute-bound, near-linear scaling |
//! | OpenFOAM (motorBike) | `mesh` (blockMesh dims) | memory/collective-bound, flattens |
//! | WRF | `resolution_km`, `hours` | halo-bound, moderate scaling |
//! | GROMACS | `atoms`, `steps` | PME all-reduce limited |
//! | NAMD | `atoms`, `steps` | good scaling |
//! | matmul | `n` | the paper's toy example |

mod apps;
mod engine;
mod error;
mod machine;
mod noise;
mod work;

/// Version of the analytic application models. Bump this whenever a change
/// to the engine or a per-application model alters the numbers a scenario
/// produces for the same inputs — downstream result caches fold it into
/// their fingerprints, so stale cached data points invalidate automatically.
pub const MODEL_VERSION: u32 = 1;

pub use apps::{AppRegistry, AppRun};
pub use engine::{Bottleneck, EngineOutput};
pub use error::ModelError;
pub use machine::MachineProfile;

/// Convenience: inputs are string key-value pairs, exactly as they arrive
/// from the tool's `appinputs` section and the run script's environment.
pub type Inputs = std::collections::BTreeMap<String, String>;

/// Builds an [`Inputs`] map from `(key, value)` pairs.
#[cfg(test)]
pub(crate) fn inputs(pairs: &[(&str, &str)]) -> Inputs {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cloudsim::SkuCatalog;
    use proptest::prelude::*;

    fn machine(name: &str) -> MachineProfile {
        MachineProfile::from_sku(SkuCatalog::azure_hpc().get(name).unwrap())
    }

    proptest! {
        /// More total work never runs faster (same machine/layout).
        #[test]
        fn monotone_in_work(boxf in 2u32..20, extra in 1u32..8) {
            let reg = AppRegistry::standard();
            let m = machine("HB120rs_v3");
            let small = reg.run("lammps", &m, 2, 120,
                &inputs(&[("BOXFACTOR", &boxf.to_string())]), 7).unwrap();
            let big = reg.run("lammps", &m, 2, 120,
                &inputs(&[("BOXFACTOR", &(boxf + extra).to_string())]), 7).unwrap();
            prop_assert!(big.wall_time > small.wall_time);
        }

        /// Scaling out on InfiniBand never increases time by more than the
        /// noise envelope for a compute-bound app at fixed (large) input.
        #[test]
        fn lammps_strong_scaling_sane(n1 in 1u32..5) {
            let reg = AppRegistry::standard();
            let m = machine("HB120rs_v3");
            let n2 = n1 * 2;
            let input = inputs(&[("BOXFACTOR", "24")]);
            let t1 = reg.run("lammps", &m, n1, 120, &input, 3).unwrap().wall_time;
            let t2 = reg.run("lammps", &m, n2, 120, &input, 3).unwrap().wall_time;
            // Doubling nodes should help substantially (at least 1.4×).
            prop_assert!(t2.as_secs_f64() < t1.as_secs_f64() / 1.4,
                "t({n1})={t1}, t({n2})={t2}");
        }

        /// Determinism: identical scenario + seed ⇒ identical run.
        #[test]
        fn deterministic(nodes in 1u32..17, seed in 0u64..1000) {
            let reg = AppRegistry::standard();
            let m = machine("HB120rs_v2");
            let input = inputs(&[("mesh", "40 16 16")]);
            let a = reg.run("openfoam", &m, nodes, 120, &input, seed).unwrap();
            let b = reg.run("openfoam", &m, nodes, 120, &input, seed).unwrap();
            prop_assert_eq!(a.wall_time, b.wall_time);
            prop_assert_eq!(a.log, b.log);
        }
    }
}
