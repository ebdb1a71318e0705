//! OpenFOAM — the motorBike tutorial at swept mesh resolutions.
//!
//! The paper's Listing 3 uses `BLOCKMESH_DIMENSIONS = "40 16 16"` for the
//! motorBike case "containing 8 million cells": the background block mesh
//! (40·16·16 = 10,240 cells) is refined by snappyHexMesh by a roughly
//! constant factor, so cells ≈ 780 × (x·y·z). The solver is a pressure-
//! velocity loop whose inner conjugate-gradient solves are global-reduction
//! and memory-bandwidth heavy — strong scaling flattens well before LAMMPS
//! does (Listing 3: 59 s → 34 s from 3 → 16 nodes, only 1.7×).
//!
//! Calibration: ~88 kFLOP effective per cell per outer iteration (≈100
//! inner CG iterations at ~0.9 kFLOP each), serial fraction 0.26%, 250
//! outer iterations.

use super::{hms, lookup, parse_input_or, AppModel};
use crate::error::ModelError;
use crate::work::{CollectiveSpec, HaloSpec, WorkProfile};
use crate::Inputs;
use cloudsim::CpuArch;

/// snappyHexMesh refinement multiplier over the background block mesh.
const CELLS_PER_BLOCK_CELL: f64 = 780.0;
/// Effective FLOPs per cell per outer iteration (inner solves included).
const FLOPS_PER_CELL_ITER: f64 = 90_000.0;
/// Resident bytes per cell (fields + matrix + mesh).
const BYTES_PER_CELL: f64 = 1_000.0;

/// CFD sweeps are memory-starved on Intel parts: 44 Skylake cores share
/// 190 GB/s (0.07 B/FLOP) where EPYC H-series nodes offer ~3× the bytes per
/// FLOP, so the Xeons deliver only a fraction of their nominal rate here.
fn openfoam_arch_efficiency(arch: CpuArch) -> f64 {
    match arch {
        CpuArch::SkylakeSp => 0.45,
        CpuArch::CascadeLake => 0.50,
        _ => 1.0,
    }
}

/// The OpenFOAM motorBike model.
pub(crate) struct OpenFoam;

impl OpenFoam {
    /// Parses the `mesh` input ("X Y Z" block dimensions) into cell count.
    fn cells(&self, inputs: &Inputs) -> Result<f64, ModelError> {
        let mesh = lookup(inputs, "mesh")
            .or_else(|| lookup(inputs, "BLOCKMESH_DIMENSIONS"))
            .ok_or_else(|| ModelError::MissingInput {
                app: self.name().into(),
                key: "mesh".into(),
            })?;
        let bad = |reason: &str| ModelError::BadInput {
            app: self.name().into(),
            key: "mesh".into(),
            value: mesh.to_string(),
            reason: reason.into(),
        };
        // Every token must parse before the count is checked.
        let mut dims = [0u64; 3];
        let mut count = 0;
        for token in mesh.split_whitespace() {
            let dim = token
                .parse::<u64>()
                .map_err(|_| bad("expected three integers 'X Y Z'"))?;
            if let Some(slot) = dims.get_mut(count) {
                *slot = dim;
            }
            count += 1;
        }
        if count != 3 || dims.contains(&0) {
            return Err(bad("expected three positive integers 'X Y Z'"));
        }
        Ok(dims.iter().product::<u64>() as f64 * CELLS_PER_BLOCK_CELL)
    }
}

impl AppModel for OpenFoam {
    fn name(&self) -> &str {
        "openfoam"
    }

    fn binary(&self) -> &str {
        "simpleFoam"
    }

    fn log_file(&self) -> &str {
        "log.simpleFoam"
    }

    fn work(&self, inputs: &Inputs) -> Result<WorkProfile, ModelError> {
        let cells = self.cells(inputs)?;
        let iterations: u64 = parse_input_or(self.name(), inputs, "iterations", 250)?;
        if iterations == 0 {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "iterations".into(),
                value: "0".into(),
                reason: "must be ≥ 1".into(),
            });
        }
        Ok(WorkProfile {
            steps: iterations,
            flops_per_step: cells * FLOPS_PER_CELL_ITER,
            bytes_per_step: cells * 800.0,
            working_set_bytes: cells * BYTES_PER_CELL,
            serial_secs: 8.0,
            serial_fraction: 2.74e-3,
            halo: Some(HaloSpec {
                bytes_per_rank: 6.0 * 48.0 * cells.powf(2.0 / 3.0),
                messages_per_rank: 8,
                decomp_dims: 3,
            }),
            collective: Some(CollectiveSpec {
                bytes: 8.0,
                // ~40 inner reductions per outer iteration (CG dot products
                // across p/U solves) hit the network as latency-bound
                // all-reduces.
                count_per_step: 40.0,
            }),
            arch_efficiency: openfoam_arch_efficiency,
            bandwidth_sensitivity: 0.30,
        })
    }

    fn render_log(&self, work: &WorkProfile, ranks: u64, wall_secs: f64) -> String {
        let cells = (work.working_set_bytes / BYTES_PER_CELL).round() as u64;
        // simpleFoam's ExecutionTime covers the whole solver process,
        // including initialisation (unlike LAMMPS' Loop time).
        let exec = wall_secs.max(0.001);
        format!(
            "/*---------------------------------------------------------------------------*\\\n\
             | =========                 |                                                 |\n\
             | \\\\      /  F ield         | OpenFOAM: The Open Source CFD Toolbox           |\n\
             \\*---------------------------------------------------------------------------*/\n\
             Build  : v2306 OPENFOAM=2306\n\
             Exec   : simpleFoam -parallel\n\
             nProcs : {ranks}\n\
             Mesh size: {cells} cells\n\
             Starting time loop\n\
             Time = {iters}\n\
             smoothSolver:  Solving for Ux, Initial residual = 1.2e-05\n\
             GAMG:  Solving for p, Initial residual = 3.4e-05\n\
             ExecutionTime = {exec:.2} s  ClockTime = {clock} s\n\
             End\n\
             Finalising parallel run\n\
             Total wall time: {hms}\n",
            ranks = ranks,
            cells = cells,
            iters = work.steps,
            exec = exec,
            clock = wall_secs.round() as u64,
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
    fn listing3_mesh_is_8m_cells() {
        let w = OpenFoam.work(&inputs(&[("mesh", "40 16 16")])).unwrap();
        let cells = w.working_set_bytes / BYTES_PER_CELL;
        assert!((7.5e6..8.5e6).contains(&cells), "cells {cells}");
    }

    #[test]
    fn paper_listing3_shape() {
        // Paper Listing 3 (HB120rs_v3 rows): 59/48/34 s at 3/4/16 nodes.
        let reg = AppRegistry::standard();
        let m = v3();
        let input = inputs(&[("mesh", "40 16 16")]);
        for (nodes, paper) in [(3u32, 59.0f64), (4, 48.0), (16, 34.0)] {
            let run = reg.run("openfoam", &m, nodes, 120, &input, 0).unwrap();
            let ratio = run.wall_time.as_secs_f64() / paper;
            assert!(
                (0.75..1.25).contains(&ratio),
                "nodes={nodes}: measured {:.1}s vs paper {paper}s",
                run.wall_time.as_secs_f64()
            );
        }
    }

    #[test]
    fn scaling_flattens_relative_to_lammps() {
        // OpenFOAM's 3→16-node speedup must be visibly below LAMMPS'.
        let reg = AppRegistry::standard();
        let m = v3();
        let of_in = inputs(&[("mesh", "40 16 16")]);
        let lj_in = inputs(&[("BOXFACTOR", "30")]);
        let of = reg
            .run("openfoam", &m, 3, 120, &of_in, 0)
            .unwrap()
            .wall_time
            .as_secs_f64()
            / reg
                .run("openfoam", &m, 16, 120, &of_in, 0)
                .unwrap()
                .wall_time
                .as_secs_f64();
        let lj = reg
            .run("lammps", &m, 3, 120, &lj_in, 0)
            .unwrap()
            .wall_time
            .as_secs_f64()
            / reg
                .run("lammps", &m, 16, 120, &lj_in, 0)
                .unwrap()
                .wall_time
                .as_secs_f64();
        assert!(of < 0.75 * lj, "OpenFOAM speedup {of:.2} vs LAMMPS {lj:.2}");
    }

    #[test]
    fn mesh_parsing_errors() {
        assert!(OpenFoam.work(&inputs(&[])).is_err());
        assert!(OpenFoam.work(&inputs(&[("mesh", "40 16")])).is_err());
        assert!(OpenFoam.work(&inputs(&[("mesh", "40 0 16")])).is_err());
        assert!(OpenFoam.work(&inputs(&[("mesh", "a b c")])).is_err());
        // BLOCKMESH_DIMENSIONS alias accepted.
        assert!(OpenFoam
            .work(&inputs(&[("BLOCKMESH_DIMENSIONS", "40 16 16")]))
            .is_ok());
    }

    #[test]
    fn log_has_execution_time_line() {
        let w = OpenFoam.work(&inputs(&[("mesh", "40 16 16")])).unwrap();
        let log = OpenFoam.render_log(&w, 480, 48.0);
        assert!(log.contains("ExecutionTime = 48.00 s"));
        assert!(log.contains("Finalising parallel run"));
        assert!(log.contains("nProcs : 480"));
    }

    #[test]
    fn larger_mesh_takes_longer() {
        let reg = AppRegistry::standard();
        let m = v3();
        let small = reg
            .run("openfoam", &m, 4, 120, &inputs(&[("mesh", "40 16 16")]), 0)
            .unwrap()
            .wall_time
            .as_secs_f64();
        let large = reg
            .run("openfoam", &m, 4, 120, &inputs(&[("mesh", "80 24 24")]), 0)
            .unwrap()
            .wall_time
            .as_secs_f64();
        assert!(large > 2.0 * small);
    }
}
