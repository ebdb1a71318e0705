//! Dense matrix multiplication — the paper's introductory toy example
//! ("matrix size for the matrix multiplication application").
//!
//! Input: `n` (matrix dimension). One SUMMA-style multiply: 2n³ FLOPs, a
//! broadcast per panel, blocked so the streamed traffic stays modest. It is
//! the most compute-bound profile in the registry and the easiest one for
//! the smart-sampling regressor to extrapolate — a deliberate contrast to
//! the communication-heavy CFD/weather codes.

use super::{hms, parse_input_or, AppModel};
use crate::error::ModelError;
use crate::work::{flat_arch, CollectiveSpec, WorkProfile};
use crate::Inputs;

/// The matmul model.
pub(crate) struct Matmul;

impl AppModel for Matmul {
    fn name(&self) -> &str {
        "matmul"
    }

    fn binary(&self) -> &str {
        "matmul"
    }

    fn log_file(&self) -> &str {
        "matmul.log"
    }

    fn work(&self, inputs: &Inputs) -> Result<WorkProfile, ModelError> {
        let n: u64 = parse_input_or(self.name(), inputs, "n", 16_384)?;
        if !(64..=1_000_000).contains(&n) {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "n".into(),
                value: n.to_string(),
                reason: "must be in 64..=1e6".into(),
            });
        }
        let nf = n as f64;
        Ok(WorkProfile {
            steps: 1,
            flops_per_step: 2.0 * nf * nf * nf,
            // Blocked: each element re-streamed ~O(n/block) times; use 24n².
            bytes_per_step: 24.0 * nf * nf,
            working_set_bytes: 3.0 * 8.0 * nf * nf,
            serial_secs: 1.0,
            serial_fraction: 0.0,
            halo: None,
            collective: Some(CollectiveSpec {
                bytes: 8.0 * nf,
                count_per_step: nf / 256.0,
            }),
            arch_efficiency: flat_arch,
            bandwidth_sensitivity: 0.15,
        })
    }

    fn render_log(&self, work: &WorkProfile, ranks: u64, wall_secs: f64) -> String {
        let n = ((work.working_set_bytes / 24.0).sqrt()).round() as u64;
        let exec = (wall_secs - work.serial_secs).max(0.001);
        let gflops = work.flops_per_step / exec / 1e9;
        format!(
            "MATMUL benchmark\n\
             ranks={ranks} n={n}\n\
             multiply done in {exec:.3} s ({gflops:.1} GFLOP/s)\n\
             RESULT OK\n\
             Total wall time: {hms}\n",
            ranks = ranks,
            n = n,
            exec = exec,
            gflops = gflops,
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
    fn cubic_in_n() {
        let w1 = Matmul.work(&inputs(&[("n", "8192")])).unwrap();
        let w2 = Matmul.work(&inputs(&[("n", "16384")])).unwrap();
        assert!((w2.flops_per_step / w1.flops_per_step - 8.0).abs() < 1e-9);
    }

    #[test]
    fn near_perfect_scaling() {
        let reg = AppRegistry::standard();
        let m = v3();
        let i = inputs(&[("n", "65536")]);
        let t1 = reg
            .run("matmul", &m, 1, 120, &i, 0)
            .unwrap()
            .wall_time
            .as_secs_f64();
        let t8 = reg
            .run("matmul", &m, 8, 120, &i, 0)
            .unwrap()
            .wall_time
            .as_secs_f64();
        let eff = t1 / t8 / 8.0;
        assert!(eff > 0.8, "efficiency {eff:.2}");
    }

    #[test]
    fn bounds_checked() {
        assert!(Matmul.work(&inputs(&[("n", "32")])).is_err());
        assert!(Matmul.work(&inputs(&[("n", "2000000")])).is_err());
        assert!(Matmul.work(&inputs(&[("n", "nan")])).is_err());
    }

    #[test]
    fn log_roundtrips_n() {
        let w = Matmul.work(&inputs(&[("n", "16384")])).unwrap();
        let log = Matmul.render_log(&w, 120, 10.0);
        assert!(log.contains("n=16384"), "{log}");
        assert!(log.contains("RESULT OK"));
    }
}
