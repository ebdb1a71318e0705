//! GROMACS — molecular dynamics with PME long-range electrostatics.
//!
//! Inputs: `atoms` (system size; default 1 M, roughly the STMV benchmark)
//! and `steps`. The PME grid transposes behave like frequent mid-sized
//! collectives, so GROMACS scales less well than plain LJ and is a good
//! contrast case for the advisor: past a few nodes, cost rises with little
//! time gained.

use super::{hms, parse_input_or, AppModel};
use crate::error::ModelError;
use crate::work::{flat_arch, CollectiveSpec, HaloSpec, WorkProfile};
use crate::Inputs;

/// Effective FLOPs per atom per step (short-range + PME at sustained rates).
const FLOPS_PER_ATOM_STEP: f64 = 9_000.0;
/// Resident bytes per atom.
const BYTES_PER_ATOM: f64 = 400.0;

/// The GROMACS model.
pub(crate) struct Gromacs;

impl AppModel for Gromacs {
    fn name(&self) -> &str {
        "gromacs"
    }

    fn binary(&self) -> &str {
        "gmx_mpi"
    }

    fn log_file(&self) -> &str {
        "md.log"
    }

    fn work(&self, inputs: &Inputs) -> Result<WorkProfile, ModelError> {
        let atoms: u64 = parse_input_or(self.name(), inputs, "atoms", 1_000_000)?;
        if !(1_000..=2_000_000_000).contains(&atoms) {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "atoms".into(),
                value: atoms.to_string(),
                reason: "must be in 1e3..=2e9".into(),
            });
        }
        let steps: u64 = parse_input_or(self.name(), inputs, "steps", 10_000)?;
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
            bytes_per_step: atoms_f * 150.0,
            working_set_bytes: atoms_f * BYTES_PER_ATOM,
            serial_secs: 10.0,
            serial_fraction: 1.5e-4,
            halo: Some(HaloSpec {
                bytes_per_rank: 6.0 * 40.0 * atoms_f.powf(2.0 / 3.0),
                messages_per_rank: 6,
                decomp_dims: 3,
            }),
            // PME grid transpose + energy reductions: latency-sensitive,
            // several per step.
            collective: Some(CollectiveSpec {
                bytes: 4096.0,
                count_per_step: 4.0,
            }),
            arch_efficiency: flat_arch,
            bandwidth_sensitivity: 0.20,
        })
    }

    fn render_log(&self, work: &WorkProfile, ranks: u64, wall_secs: f64) -> String {
        let atoms = (work.working_set_bytes / BYTES_PER_ATOM).round() as u64;
        let exec = (wall_secs - work.serial_secs).max(0.001);
        // 2 fs step: ns simulated = steps × 2e-6.
        let ns = work.steps as f64 * 2e-6;
        let ns_per_day = ns / (exec / 86_400.0);
        format!(
            "                      :-) GROMACS - gmx mdrun, 2023.3 (-:\n\
             Running on {ranks} MPI ranks\n\
             System: {atoms} atoms\n\
             starting mdrun 'Protein in water'\n\
             {steps} steps,     {ns:.3} ps.\n\
             \n\
                            Core t (s)   Wall t (s)        (%)\n\
                    Time: {core:.3}     {exec:.3}      100.0\n\
                              (ns/day)    (hour/ns)\n\
             Performance:   {ns_per_day:.3}     {hours_per_ns:.3}\n\
             Finished mdrun on rank 0\n\
             Total wall time: {hms}\n",
            ranks = ranks,
            atoms = atoms,
            steps = work.steps,
            ns = ns * 1000.0,
            core = exec * ranks as f64,
            exec = exec,
            ns_per_day = ns_per_day,
            hours_per_ns = 24.0 / ns_per_day.max(1e-9),
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
    fn defaults_are_stmv_scale() {
        let w = Gromacs.work(&inputs(&[])).unwrap();
        assert_eq!((w.working_set_bytes / BYTES_PER_ATOM) as u64, 1_000_000);
        assert_eq!(w.steps, 10_000);
    }

    #[test]
    fn input_bounds() {
        assert!(Gromacs.work(&inputs(&[("atoms", "10")])).is_err());
        assert!(Gromacs.work(&inputs(&[("atoms", "3000000000")])).is_err());
        assert!(Gromacs.work(&inputs(&[("steps", "0")])).is_err());
    }

    #[test]
    fn scaling_saturates_earlier_than_lammps() {
        let reg = AppRegistry::standard();
        let m = v3();
        let i = inputs(&[("atoms", "1000000"), ("steps", "5000")]);
        let t1 = reg
            .run("gromacs", &m, 1, 120, &i, 0)
            .unwrap()
            .wall_time
            .as_secs_f64();
        let t16 = reg
            .run("gromacs", &m, 16, 120, &i, 0)
            .unwrap()
            .wall_time
            .as_secs_f64();
        let speedup = t1 / t16;
        assert!(
            speedup < 12.0,
            "1M atoms over 1920 ranks cannot scale freely, got {speedup:.1}×"
        );
        assert!(speedup > 2.0, "some scaling must remain, got {speedup:.1}×");
    }

    #[test]
    fn log_reports_performance() {
        let w = Gromacs.work(&inputs(&[])).unwrap();
        let log = Gromacs.render_log(&w, 240, 120.0);
        assert!(log.contains("Performance:"));
        assert!(log.contains("Finished mdrun"));
    }
}
