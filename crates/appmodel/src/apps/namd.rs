//! NAMD — classical MD with a measurement-based load balancer.
//!
//! Inputs: `atoms` (default 1,066,628 — the STMV benchmark) and `steps`.
//! NAMD's Charm++ overdecomposition gives it better strong scaling than
//! GROMACS at the same atom count but a higher per-atom cost.

use super::{hms, parse_input_or, AppModel};
use crate::error::ModelError;
use crate::work::{flat_arch, HaloSpec, WorkProfile};
use crate::Inputs;

/// Effective FLOPs per atom per step.
const FLOPS_PER_ATOM_STEP: f64 = 15_000.0;
/// Resident bytes per atom.
const BYTES_PER_ATOM: f64 = 500.0;

/// The NAMD model.
pub(crate) struct Namd;

impl AppModel for Namd {
    fn name(&self) -> &str {
        "namd"
    }

    fn binary(&self) -> &str {
        "namd2"
    }

    fn log_file(&self) -> &str {
        "namd.log"
    }

    fn work(&self, inputs: &Inputs) -> Result<WorkProfile, ModelError> {
        let atoms: u64 = parse_input_or(self.name(), inputs, "atoms", 1_066_628)?;
        if !(1_000..=2_000_000_000).contains(&atoms) {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "atoms".into(),
                value: atoms.to_string(),
                reason: "must be in 1e3..=2e9".into(),
            });
        }
        let steps: u64 = parse_input_or(self.name(), inputs, "steps", 500)?;
        if steps == 0 {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "steps".into(),
                value: "0".into(),
                reason: "must be ≥ 1".into(),
            });
        }
        let atoms_f = atoms as f64;
        Ok(WorkProfile {
            steps,
            flops_per_step: atoms_f * FLOPS_PER_ATOM_STEP,
            bytes_per_step: atoms_f * 180.0,
            working_set_bytes: atoms_f * BYTES_PER_ATOM,
            serial_secs: 15.0,
            // Charm++ overdecomposition hides most serial work.
            serial_fraction: 6.0e-5,
            halo: Some(HaloSpec {
                bytes_per_rank: 6.0 * 48.0 * atoms_f.powf(2.0 / 3.0),
                messages_per_rank: 12,
                decomp_dims: 3,
            }),
            collective: None,
            arch_efficiency: flat_arch,
            bandwidth_sensitivity: 0.25,
        })
    }

    fn render_log(&self, work: &WorkProfile, ranks: u64, wall_secs: f64) -> String {
        let atoms = (work.working_set_bytes / BYTES_PER_ATOM).round() as u64;
        let exec = (wall_secs - work.serial_secs).max(0.001);
        let days_per_ns = (exec / 86_400.0) / (work.steps as f64 * 2e-6).max(1e-12);
        format!(
            "Charm++> Running on {ranks} processors\n\
             Info: NAMD 3.0 for Linux-x86_64-MPI\n\
             Info: SIMULATION PARAMETERS:\n\
             Info: STRUCTURE: {atoms} ATOMS\n\
             Info: Benchmark time: {ranks} CPUs {per_step:.6} s/step {days_per_ns:.5} days/ns\n\
             TIMING: {steps}  CPU: {exec:.3}, 0.01/step  Wall: {exec:.3}\n\
             WallClock: {wall:.3}  CPUTime: {exec:.3}  Memory: 2048.0 MB\n\
             End of program\n\
             Total wall time: {hms}\n",
            ranks = ranks,
            atoms = atoms,
            per_step = exec / work.steps as f64,
            days_per_ns = days_per_ns,
            steps = work.steps,
            exec = exec,
            wall = wall_secs,
            hms = hms(wall_secs),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppRegistry;
    use crate::inputs;
    use crate::machine::MachineProfile;
    use cloudsim::SkuCatalog;

    fn v3() -> MachineProfile {
        MachineProfile::from_sku(SkuCatalog::azure_hpc().get("HB120rs_v3").unwrap())
    }

    #[test]
    fn default_is_stmv() {
        let w = Namd.work(&inputs(&[])).unwrap();
        assert_eq!((w.working_set_bytes / BYTES_PER_ATOM) as u64, 1_066_628);
    }

    #[test]
    fn scales_better_than_gromacs_at_same_size() {
        let reg = AppRegistry::standard();
        let m = v3();
        let i = inputs(&[("atoms", "1000000"), ("steps", "1000")]);
        // Compare per-step times: at 500–1000 steps both runs are dominated
        // by fixed startup, which would mask the scaling difference.
        let speedup = |app: &str| {
            reg.run(app, &m, 1, 120, &i, 0)
                .unwrap()
                .engine
                .per_step_secs
                / reg
                    .run(app, &m, 8, 120, &i, 0)
                    .unwrap()
                    .engine
                    .per_step_secs
        };
        let namd = speedup("namd");
        let gmx = speedup("gromacs");
        assert!(namd > gmx, "NAMD {namd:.2}× vs GROMACS {gmx:.2}×");
    }

    #[test]
    fn log_has_wallclock_line() {
        let w = Namd.work(&inputs(&[])).unwrap();
        let log = Namd.render_log(&w, 480, 90.0);
        assert!(log.contains("WallClock: 90.000"));
        assert!(log.contains("End of program"));
    }

    #[test]
    fn input_bounds() {
        assert!(Namd.work(&inputs(&[("atoms", "10")])).is_err());
        assert!(Namd.work(&inputs(&[("steps", "0")])).is_err());
    }
}
