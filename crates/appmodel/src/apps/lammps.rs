//! LAMMPS — the official Lennard-Jones benchmark (`in.lj`).
//!
//! The paper's Listing 2 sweeps a `BOXFACTOR` that multiplies the x/y/z box
//! indices of the stock input; the stock box holds 32,000 atoms, so a factor
//! of 30 yields 32,000 · 30³ = 864 M ≈ the "800 million atoms" the paper
//! quotes. LJ is compute-dominated with a surface-to-volume halo exchange
//! and scales near-linearly on InfiniBand — which is exactly what Listing 4's
//! advice table shows (173 s → 36 s from 3 → 16 nodes).
//!
//! Calibration: effective ~12.4 kFLOP per atom-step (pair forces +
//! neighbour maintenance at sustained rates) and a 10⁻⁴ serial fraction
//! land 16 × HB120rs_v3 at ≈ 36 s of loop time for 100 steps of the ×30
//! box — the paper's Listing 4 series (173/132/69/36 s) within ~5%.

use super::{hms, parse_input_or, AppModel};
use crate::error::ModelError;
use crate::work::{flat_arch, HaloSpec, WorkProfile};
use crate::Inputs;

/// Atoms in the stock `in.lj` box (x = y = z index 1).
const BASE_ATOMS: u64 = 32_000;
/// Effective FLOPs per atom per step, calibrated as described above.
const FLOPS_PER_ATOM_STEP: f64 = 11_800.0;
/// Resident bytes per atom: atom data plus full + half neighbour lists and
/// ghost copies — what makes the ×30 box (~520 GB) overflow a single
/// 448 GiB node, exactly as the paper's advice tables imply (they start at
/// 3 nodes).
const BYTES_PER_ATOM: f64 = 600.0;

/// The LAMMPS LJ model.
pub(crate) struct Lammps;

impl AppModel for Lammps {
    fn name(&self) -> &str {
        "lammps"
    }

    fn binary(&self) -> &str {
        "lmp"
    }

    fn log_file(&self) -> &str {
        "log.lammps"
    }

    fn work(&self, inputs: &Inputs) -> Result<WorkProfile, ModelError> {
        let boxfactor: u64 = parse_input_or(self.name(), inputs, "BOXFACTOR", 1)?;
        if boxfactor == 0 || boxfactor > 200 {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "BOXFACTOR".into(),
                value: boxfactor.to_string(),
                reason: "must be in 1..=200".into(),
            });
        }
        let steps: u64 = parse_input_or(self.name(), inputs, "steps", 100)?;
        if steps == 0 {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "steps".into(),
                value: "0".into(),
                reason: "must be ≥ 1".into(),
            });
        }
        let atoms = BASE_ATOMS * boxfactor.pow(3);
        let atoms_f = atoms as f64;
        Ok(WorkProfile {
            steps,
            flops_per_step: atoms_f * FLOPS_PER_ATOM_STEP,
            bytes_per_step: atoms_f * 200.0,
            working_set_bytes: atoms_f * BYTES_PER_ATOM,
            serial_secs: 4.0,
            serial_fraction: 2.0e-4,
            halo: Some(HaloSpec {
                bytes_per_rank: 6.0 * 32.0 * atoms_f.powf(2.0 / 3.0),
                messages_per_rank: 6,
                decomp_dims: 3,
            }),
            collective: None,
            arch_efficiency: flat_arch,
            bandwidth_sensitivity: 0.35,
        })
    }

    fn render_log(&self, work: &WorkProfile, ranks: u64, wall_secs: f64) -> String {
        let atoms = (work.working_set_bytes / BYTES_PER_ATOM).round() as u64;
        let loop_secs = (wall_secs - work.serial_secs).max(0.001);
        // The `Loop time of` line reproduces the real LAMMPS field layout:
        // $4 = seconds, $9 = steps, $12 = atoms — the fields Listing 2's awk
        // commands extract.
        format!(
            "LAMMPS (2 Aug 2023 - Update 3)\n\
             OMP_NUM_THREADS environment is not set.\n\
             Created orthogonal box\n\
             Created {atoms} atoms\n\
             Neighbor list info ...\n\
             Setting up Verlet run ...\n\
             Per MPI rank memory allocation (min/avg/max) = 3.154 | 3.156 | 3.162 Mbytes\n\
             Step          Temp          E_pair         E_mol          TotEng         Press\n\
             {last_step}   0.70503476   -5.6763043      0             -4.6188278     0.70570302\n\
             Loop time of {loop_secs:.6} on {ranks} procs for {steps} steps with {atoms} atoms\n\
             Performance: {perf:.3} tau/day, {sps:.3} timesteps/s, {aps:.3} Matom-step/s\n\
             MPI task timing breakdown:\n\
             Total wall time: {hms}\n",
            atoms = atoms,
            last_step = work.steps,
            loop_secs = loop_secs,
            ranks = ranks,
            steps = work.steps,
            perf = 0.005 * 86400.0 * work.steps as f64 / loop_secs,
            sps = work.steps as f64 / loop_secs,
            aps = atoms as f64 * work.steps as f64 / loop_secs / 1e6,
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
    fn boxfactor_30_is_864m_atoms() {
        let w = Lammps.work(&inputs(&[("BOXFACTOR", "30")])).unwrap();
        let atoms = w.working_set_bytes / BYTES_PER_ATOM;
        assert_eq!(atoms as u64, 864_000_000);
    }

    /// Scraped loop time of a run — what the paper's tables report
    /// (Listing 2's awk extracts the `Loop time` field, $4, which excludes
    /// setup).
    fn loop_time(run: &crate::apps::AppRun) -> f64 {
        run.log
            .lines()
            .find(|l| l.starts_with("Loop time of "))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|v| v.parse().ok())
            .expect("Loop time line")
    }

    #[test]
    fn paper_listing4_shape() {
        // Paper Listing 4 (HB120rs_v3, LJ ×30): 173/132/69/36 s at 3/4/8/16
        // nodes. Require the same series within ±20%.
        let reg = AppRegistry::standard();
        let m = v3();
        let input = inputs(&[("BOXFACTOR", "30")]);
        let expect = [(3u32, 173.0f64), (4, 132.0), (8, 69.0), (16, 36.0)];
        for (nodes, paper) in expect {
            let run = reg.run("lammps", &m, nodes, 120, &input, 0).unwrap();
            let measured = loop_time(&run);
            let ratio = measured / paper;
            assert!(
                (0.8..1.2).contains(&ratio),
                "nodes={nodes}: measured {measured:.1}s vs paper {paper}s"
            );
        }
    }

    #[test]
    fn single_node_ooms_at_box30() {
        // 864M atoms × ~600 B ≈ 520 GB does not fit one 448 GiB node — the
        // paper's advice table starting at 3 nodes reflects this.
        let reg = AppRegistry::standard();
        let m = v3();
        let input = inputs(&[("BOXFACTOR", "30")]);
        assert!(matches!(
            reg.run("lammps", &m, 1, 120, &input, 0),
            Err(crate::ModelError::OutOfMemory { .. })
        ));
        assert!(reg.run("lammps", &m, 2, 120, &input, 0).is_ok());
    }

    #[test]
    fn near_linear_scaling_8_to_16() {
        let reg = AppRegistry::standard();
        let m = v3();
        let input = inputs(&[("BOXFACTOR", "30")]);
        let t8 = loop_time(&reg.run("lammps", &m, 8, 120, &input, 0).unwrap());
        let t16 = loop_time(&reg.run("lammps", &m, 16, 120, &input, 0).unwrap());
        let speedup = t8 / t16;
        assert!(speedup > 1.6, "8→16 node speedup {speedup:.2} too low");
    }

    #[test]
    fn log_matches_listing2_awk_fields() {
        let w = Lammps.work(&inputs(&[("BOXFACTOR", "30")])).unwrap();
        let log = Lammps.render_log(&w, 1920, 40.0);
        let loop_line = log.lines().find(|l| l.contains("Loop")).unwrap();
        let fields: Vec<&str> = loop_line.split_whitespace().collect();
        // awk '{print $4}' → exec time; $9 → steps; $12 → atoms (1-indexed).
        assert!(fields[3].parse::<f64>().is_ok(), "field 4 = {}", fields[3]);
        assert_eq!(fields[8], "100");
        assert_eq!(fields[11], "864000000");
        assert!(log.contains("Total wall time: "));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Lammps.work(&inputs(&[("BOXFACTOR", "0")])).is_err());
        assert!(Lammps.work(&inputs(&[("BOXFACTOR", "abc")])).is_err());
        assert!(Lammps
            .work(&inputs(&[("BOXFACTOR", "5"), ("steps", "0")]))
            .is_err());
        // Missing BOXFACTOR defaults to the stock box.
        let w = Lammps.work(&inputs(&[])).unwrap();
        assert_eq!((w.working_set_bytes / BYTES_PER_ATOM) as u64, 32_000);
    }

    #[test]
    fn hc44rs_is_slowest_sku_of_fig2() {
        let reg = AppRegistry::standard();
        let catalog = SkuCatalog::azure_hpc();
        let input = inputs(&[("BOXFACTOR", "30")]);
        let hc = MachineProfile::from_sku(catalog.get("HC44rs").unwrap());
        let t_hc = loop_time(&reg.run("lammps", &hc, 16, 44, &input, 0).unwrap());
        let t_v3 = loop_time(&reg.run("lammps", &v3(), 16, 120, &input, 0).unwrap());
        assert!(t_hc > 1.3 * t_v3, "HC44rs {t_hc:.0}s vs HBv3 {t_v3:.0}s");
    }
}
