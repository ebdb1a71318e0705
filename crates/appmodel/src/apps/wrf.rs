//! WRF — a CONUS-style forecast domain at swept horizontal resolution.
//!
//! Inputs: `resolution_km` (grid spacing; the paper's "resolution for a
//! weather forecast such as WRF") and `hours` of simulated forecast. Halving
//! the resolution quadruples the columns *and* halves the time step, so cost
//! grows with the cube of refinement — resolution is the dominant input
//! parameter, exactly the kind of strong input-dependence the tool exists to
//! capture. WRF is halo-exchange bound on a 2-D decomposition with moderate
//! strong scaling, and high-resolution domains out-grow small allocations
//! (simulated OOM).

use super::{hms, parse_input_or, AppModel};
use crate::error::ModelError;
use crate::work::{flat_arch, CollectiveSpec, HaloSpec, WorkProfile};
use crate::Inputs;

/// Columns of the reference CONUS 12 km domain (425 × 300).
const BASE_COLUMNS: f64 = 127_500.0;
/// Vertical levels.
const LEVELS: f64 = 50.0;
/// Effective FLOPs per grid point per step (physics + dynamics, sustained).
const FLOPS_PER_POINT_STEP: f64 = 150_000.0;
/// Resident bytes per grid point.
const BYTES_PER_POINT: f64 = 800.0;

/// The WRF model.
pub(crate) struct Wrf;

impl AppModel for Wrf {
    fn name(&self) -> &str {
        "wrf"
    }

    fn binary(&self) -> &str {
        "wrf.exe"
    }

    fn log_file(&self) -> &str {
        "rsl.out.0000"
    }

    fn work(&self, inputs: &Inputs) -> Result<WorkProfile, ModelError> {
        let res_km: f64 = parse_input_or(self.name(), inputs, "resolution_km", 12.0)?;
        if !(0.5..=50.0).contains(&res_km) {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "resolution_km".into(),
                value: res_km.to_string(),
                reason: "must be in 0.5..=50 km".into(),
            });
        }
        let hours: f64 = parse_input_or(self.name(), inputs, "hours", 6.0)?;
        if !(0.1..=240.0).contains(&hours) {
            return Err(ModelError::BadInput {
                app: self.name().into(),
                key: "hours".into(),
                value: hours.to_string(),
                reason: "must be in 0.1..=240 hours".into(),
            });
        }
        let refine = 12.0 / res_km;
        let columns = BASE_COLUMNS * refine * refine;
        let points = columns * LEVELS;
        // CFL: dt scales with grid spacing (6·Δx seconds is the WRF rule of
        // thumb).
        let dt_secs = 6.0 * res_km;
        let steps = ((hours * 3600.0) / dt_secs).ceil().max(1.0) as u64;
        Ok(WorkProfile {
            steps,
            flops_per_step: points * FLOPS_PER_POINT_STEP,
            bytes_per_step: points * 400.0,
            working_set_bytes: points * BYTES_PER_POINT,
            serial_secs: 25.0,
            serial_fraction: 3.0e-4,
            halo: Some(HaloSpec {
                // 2-D decomposition: halo per rank scales with the column
                // perimeter × levels.
                bytes_per_rank: 4.0 * 8.0 * columns.sqrt() * LEVELS * 4.0,
                messages_per_rank: 8,
                decomp_dims: 2,
            }),
            collective: Some(CollectiveSpec {
                bytes: 64.0,
                count_per_step: 3.0,
            }),
            arch_efficiency: flat_arch,
            bandwidth_sensitivity: 0.45,
        })
    }

    fn render_log(&self, work: &WorkProfile, ranks: u64, wall_secs: f64) -> String {
        let points = (work.working_set_bytes / BYTES_PER_POINT).round() as u64;
        let exec = (wall_secs - work.serial_secs).max(0.001);
        let per_step = exec / work.steps as f64;
        format!(
            "starting wrf task            0  of           {ranks}\n\
             WRF V4.5 MODEL\n\
             grid points: {points}\n\
             Timing for main: time 0000-00-00_00:00:00 on domain   1: {per_step:.5} elapsed seconds\n\
             Timing for Writing wrfout: 0.8 elapsed seconds\n\
             wrf: completed {steps} steps\n\
             Total elapsed seconds: {exec:.2}\n\
             d01 0000-00-00_06:00:00 wrf: SUCCESS COMPLETE WRF\n\
             Total wall time: {hms}\n",
            ranks = ranks,
            points = points,
            per_step = per_step,
            steps = work.steps,
            exec = exec,
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
    fn resolution_drives_cubic_cost() {
        // 12 km → 6 km: 4× points, 2× steps ⇒ ~8× work.
        let w12 = Wrf.work(&inputs(&[("resolution_km", "12")])).unwrap();
        let w6 = Wrf.work(&inputs(&[("resolution_km", "6")])).unwrap();
        let work12 = w12.flops_per_step * w12.steps as f64;
        let work6 = w6.flops_per_step * w6.steps as f64;
        let ratio = work6 / work12;
        assert!((7.0..9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn high_resolution_needs_many_nodes() {
        let reg = AppRegistry::standard();
        let m = v3();
        let i = inputs(&[("resolution_km", "1"), ("hours", "1")]);
        assert!(
            reg.run("wrf", &m, 1, 120, &i, 0).is_err(),
            "1 node must OOM"
        );
        assert!(reg.run("wrf", &m, 16, 120, &i, 0).is_ok());
    }

    #[test]
    fn input_validation() {
        assert!(Wrf.work(&inputs(&[("resolution_km", "0.1")])).is_err());
        assert!(Wrf.work(&inputs(&[("resolution_km", "100")])).is_err());
        assert!(Wrf.work(&inputs(&[("hours", "0")])).is_err());
        assert!(Wrf.work(&inputs(&[("resolution_km", "x")])).is_err());
        assert!(Wrf.work(&inputs(&[])).is_ok(), "all inputs default");
    }

    #[test]
    fn moderate_scaling_on_ib() {
        let reg = AppRegistry::standard();
        let m = v3();
        let i = inputs(&[("resolution_km", "3"), ("hours", "3")]);
        let t2 = reg
            .run("wrf", &m, 2, 120, &i, 0)
            .unwrap()
            .wall_time
            .as_secs_f64();
        let t8 = reg
            .run("wrf", &m, 8, 120, &i, 0)
            .unwrap()
            .wall_time
            .as_secs_f64();
        let speedup = t2 / t8;
        assert!(
            speedup > 2.0 && speedup < 4.5,
            "2→8 nodes speedup {speedup}"
        );
    }

    #[test]
    fn log_reports_success() {
        let w = Wrf.work(&inputs(&[])).unwrap();
        let log = Wrf.render_log(&w, 240, 100.0);
        assert!(log.contains("SUCCESS COMPLETE WRF"));
        assert!(log.contains("elapsed seconds"));
    }
}
