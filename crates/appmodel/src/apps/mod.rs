//! Per-application models and the registry the tool resolves them from.
//!
//! Each model translates user-facing `appinputs` into a [`WorkProfile`] and
//! renders a synthetic application log in the real code's format — close
//! enough that the paper's Listing 2 `grep`/`awk` scraping works verbatim
//! against it.

mod gromacs;
mod lammps;
mod matmul;
mod namd;
mod openfoam;
mod wrf;

use gromacs::Gromacs;
use lammps::Lammps;
use matmul::Matmul;
use namd::Namd;
use openfoam::OpenFoam;
use wrf::Wrf;

use crate::engine::{execute_profile, EngineOutput};
use crate::error::ModelError;
use crate::machine::MachineProfile;
use crate::noise::{noise_factor, scenario_seed};
use crate::work::WorkProfile;
use crate::Inputs;
use simtime::SimDuration;

/// One modelled application.
pub trait AppModel: Send + Sync {
    /// Registry name, e.g. `lammps`.
    fn name(&self) -> &str;
    /// Executable name the run script invokes via `mpirun`, e.g. `lmp`.
    fn binary(&self) -> &str;
    /// Name of the log file the application writes in its run directory.
    fn log_file(&self) -> &str;
    /// Translates inputs into a hardware-independent work profile.
    fn work(&self, inputs: &Inputs) -> Result<WorkProfile, ModelError>;
    /// Renders the application log for a completed run.
    fn render_log(&self, work: &WorkProfile, ranks: u64, wall_secs: f64) -> String;
}

/// Result of one simulated application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Wall-clock time including noise.
    pub wall_time: SimDuration,
    /// Synthetic application log text.
    pub log: String,
    /// Noise-free engine detail (bottleneck, utilizations, per-step time).
    pub engine: EngineOutput,
}

/// Registry of available application models.
pub struct AppRegistry {
    models: Vec<Box<dyn AppModel>>,
}

impl AppRegistry {
    /// All applications the paper mentions, plus the matmul toy example.
    pub fn standard() -> Self {
        AppRegistry {
            models: vec![
                Box::new(Lammps),
                Box::new(OpenFoam),
                Box::new(Wrf),
                Box::new(Gromacs),
                Box::new(Namd),
                Box::new(Matmul),
            ],
        }
    }

    /// Looks up a model by registry name (case-insensitive).
    pub(crate) fn get(&self, name: &str) -> Option<&dyn AppModel> {
        self.models
            .iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
            .map(|m| m.as_ref())
    }

    /// Looks up a model by its executable name (what `mpirun` launches).
    pub fn get_by_binary(&self, binary: &str) -> Option<&dyn AppModel> {
        let base = binary.rsplit('/').next().unwrap_or(binary);
        self.models
            .iter()
            .find(|m| m.binary() == base)
            .map(|m| m.as_ref())
    }

    /// Runs `app` on the given machine/layout/inputs and experiment seed.
    ///
    /// Validates the layout and the memory requirement (a too-small node
    /// count fails like a real OOM-killed job), executes the profile, and
    /// applies deterministic noise.
    pub fn run(
        &self,
        app: &str,
        machine: &MachineProfile,
        nodes: u32,
        ppn: u32,
        inputs: &Inputs,
        experiment_seed: u64,
    ) -> Result<AppRun, ModelError> {
        let model = self
            .get(app)
            .ok_or_else(|| ModelError::UnknownApp(app.to_string()))?;
        if nodes == 0 || ppn == 0 {
            return Err(ModelError::BadLayout(format!(
                "nodes={nodes}, ppn={ppn}: both must be ≥ 1"
            )));
        }
        if ppn > machine.cores {
            return Err(ModelError::BadLayout(format!(
                "ppn={} exceeds {} cores of {}",
                ppn, machine.cores, machine.sku_name
            )));
        }
        let work = model.work(inputs)?;
        let available_gib = machine.memory_gib * nodes as f64;
        if work.required_memory_gib() > available_gib {
            return Err(ModelError::OutOfMemory {
                app: model.name().to_string(),
                required_gib: work.required_memory_gib(),
                available_gib,
            });
        }
        let engine = execute_profile(&work, machine, nodes, ppn);
        let seed = scenario_seed(
            model.name(),
            &machine.sku_name,
            nodes,
            ppn,
            inputs,
            experiment_seed,
        );
        let wall_secs = engine.wall_secs * noise_factor(seed);
        let ranks = nodes as u64 * ppn as u64;
        let log = model.render_log(&work, ranks, wall_secs);
        Ok(AppRun {
            wall_time: SimDuration::from_secs_f64(wall_secs),
            log,
            engine,
        })
    }
}

/// Parses an optional numeric input with a default.
pub(crate) fn parse_input_or<T: std::str::FromStr>(
    app: &str,
    inputs: &Inputs,
    key: &str,
    default: T,
) -> Result<T, ModelError> {
    match lookup(inputs, key) {
        None => Ok(default),
        Some(raw) => raw.trim().parse().map_err(|_| ModelError::BadInput {
            app: app.to_string(),
            key: key.to_string(),
            value: raw.to_string(),
            reason: "not a valid number".into(),
        }),
    }
}

/// Case-insensitive input lookup (scripts export env vars in caps, YAML
/// configs usually use lowercase).
pub(crate) fn lookup<'a>(inputs: &'a Inputs, key: &str) -> Option<&'a str> {
    inputs
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(key))
        .map(|(_, v)| v.as_str())
}

/// Formats seconds as LAMMPS' `H:MM:SS` wall-time notation.
pub(crate) fn hms(secs: f64) -> String {
    let total = secs.round().max(0.0) as u64;
    format!(
        "{}:{:02}:{:02}",
        total / 3600,
        (total % 3600) / 60,
        total % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use cloudsim::SkuCatalog;

    fn machine(name: &str) -> MachineProfile {
        MachineProfile::from_sku(SkuCatalog::azure_hpc().get(name).unwrap())
    }

    #[test]
    fn registry_contains_paper_apps() {
        let reg = AppRegistry::standard();
        for app in ["lammps", "openfoam", "wrf", "gromacs", "namd", "matmul"] {
            assert!(reg.get(app).is_some(), "missing {app}");
        }
        assert!(reg.get("LAMMPS").is_some(), "lookup is case-insensitive");
        assert!(reg.get("hpl").is_none());
    }

    #[test]
    fn binary_lookup() {
        let reg = AppRegistry::standard();
        assert_eq!(reg.get_by_binary("lmp").unwrap().name(), "lammps");
        assert_eq!(
            reg.get_by_binary("/apps/bin/simpleFoam").unwrap().name(),
            "openfoam"
        );
        assert!(reg.get_by_binary("a.out").is_none());
    }

    #[test]
    fn layout_validation() {
        let reg = AppRegistry::standard();
        let m = machine("HC44rs");
        let i = inputs(&[("BOXFACTOR", "4")]);
        assert!(matches!(
            reg.run("lammps", &m, 0, 44, &i, 1),
            Err(ModelError::BadLayout(_))
        ));
        assert!(matches!(
            reg.run("lammps", &m, 1, 45, &i, 1),
            Err(ModelError::BadLayout(_))
        ));
        assert!(reg.run("lammps", &m, 1, 44, &i, 1).is_ok());
    }

    #[test]
    fn oom_on_too_few_nodes() {
        let reg = AppRegistry::standard();
        let m = machine("HB120rs_v3");
        // WRF at 1 km resolution needs terabytes.
        let i = inputs(&[("resolution_km", "1"), ("hours", "1")]);
        let err = reg.run("wrf", &m, 1, 120, &i, 1).unwrap_err();
        assert!(matches!(err, ModelError::OutOfMemory { .. }), "{err:?}");
        // Plenty of nodes succeed.
        assert!(reg.run("wrf", &m, 16, 120, &i, 1).is_ok());
    }

    #[test]
    fn unknown_app_error() {
        let reg = AppRegistry::standard();
        let m = machine("HC44rs");
        assert!(matches!(
            reg.run("hpl", &m, 1, 4, &Inputs::new(), 1),
            Err(ModelError::UnknownApp(_))
        ));
    }

    #[test]
    fn hms_formatting() {
        assert_eq!(hms(36.2), "0:00:36");
        assert_eq!(hms(3725.0), "1:02:05");
        assert_eq!(hms(-1.0), "0:00:00");
    }

    #[test]
    fn input_lookup_is_case_insensitive() {
        let i = inputs(&[("BOXFACTOR", "30")]);
        assert_eq!(lookup(&i, "boxfactor"), Some("30"));
        assert_eq!(lookup(&i, "BoxFactor"), Some("30"));
        assert_eq!(lookup(&i, "mesh"), None);
    }

    #[test]
    fn every_app_runs_with_defaults_where_allowed() {
        let reg = AppRegistry::standard();
        let m = machine("HB120rs_v3");
        // Apps with fully-defaulted inputs.
        for (app, input) in [
            ("lammps", inputs(&[("BOXFACTOR", "10")])),
            ("openfoam", inputs(&[("mesh", "40 16 16")])),
            ("wrf", inputs(&[("resolution_km", "12")])),
            ("gromacs", inputs(&[])),
            ("namd", inputs(&[])),
            ("matmul", inputs(&[("n", "20000")])),
        ] {
            let run = reg
                .run(app, &m, 2, 120, &input, 5)
                .unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(
                run.wall_time.as_secs_f64() > 0.0,
                "{app} produced zero time"
            );
            assert!(!run.log.is_empty(), "{app} produced no log");
        }
    }
}
