//! Work-directory persistence: the CLI's equivalent of the Python tool's
//! JSON state files.

use hpcadvisor_core::scenario::{self, Scenario};
use hpcadvisor_core::{replace, Dataset, ToolError, UserConfig};
use hpcadvisor_formats::{json, OrderedMap, Value};
use std::path::{Path, PathBuf};

/// A recorded deployment (enough to re-provision it deterministically).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DeploymentRecord {
    /// Resource-group name.
    pub(crate) name: String,
    /// Region.
    pub(crate) region: String,
    /// Application name.
    pub(crate) appname: String,
    /// Seed the deployment (and its scenarios) run under.
    pub(crate) seed: u64,
    /// `active` or `shutdown`.
    pub(crate) state: String,
}

/// The CLI work directory.
#[derive(Debug, Clone)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Opens (creating if needed) a work directory.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, ToolError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// Root path.
    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the plots output directory (created on demand).
    pub(crate) fn plots_dir(&self) -> Result<PathBuf, ToolError> {
        let dir = self.root.join("plots");
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Default path of the scenario-result cache file. The parent directory
    /// is created lazily by [`hpcadvisor_core::cache::ScenarioCache::save`].
    pub(crate) fn cache_file(&self) -> PathBuf {
        self.root.join("cache").join("scenario-cache.json")
    }

    /// Path of the crash-safe run journal `collect` writes as it goes and
    /// `collect --resume` replays after an interrupted run.
    pub(crate) fn journal_file(&self) -> PathBuf {
        self.root.join("run-journal.jsonl")
    }

    /// Path of the run trace `collect --trace` writes and the `trace`
    /// subcommands read.
    pub(crate) fn trace_file(&self) -> PathBuf {
        self.root.join("trace").join("run-trace.jsonl")
    }

    /// Directory of the daemon's durable service state (admission journal
    /// and per-job run journals); `serve` defaults its `--state-dir` here
    /// so a restarted daemon in the same work directory recovers.
    pub(crate) fn service_dir(&self) -> PathBuf {
        self.root.join("service")
    }

    fn file(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Saves the active configuration file text.
    pub(crate) fn save_config_text(&self, text: &str) -> Result<(), ToolError> {
        replace(&self.file("config.yaml"), text.as_bytes())?;
        Ok(())
    }

    /// Loads the active configuration.
    pub(crate) fn load_config(&self) -> Result<UserConfig, ToolError> {
        let path = self.file("config.yaml");
        let text = std::fs::read_to_string(&path).map_err(|_| {
            ToolError::Config(format!(
                "no configuration in work dir (expected {}); run 'deploy create -c <file>' first",
                path.display()
            ))
        })?;
        UserConfig::from_yaml(&text)
    }

    /// Saves the scenario list.
    pub(crate) fn save_scenarios(&self, scenarios: &[Scenario]) -> Result<(), ToolError> {
        replace(
            &self.file("scenarios.json"),
            scenario::to_json(scenarios).as_bytes(),
        )?;
        Ok(())
    }

    /// Loads the scenario list (empty if none yet).
    pub(crate) fn load_scenarios(&self) -> Result<Vec<Scenario>, ToolError> {
        match std::fs::read_to_string(self.file("scenarios.json")) {
            Ok(text) => scenario::from_json(&text),
            Err(_) => Ok(Vec::new()),
        }
    }

    /// Saves the dataset.
    pub(crate) fn save_dataset(&self, ds: &Dataset) -> Result<(), ToolError> {
        replace(&self.file("dataset.json"), ds.to_json().as_bytes())?;
        Ok(())
    }

    /// Loads the dataset (empty if none yet).
    pub(crate) fn load_dataset(&self) -> Result<Dataset, ToolError> {
        match std::fs::read_to_string(self.file("dataset.json")) {
            Ok(text) => Dataset::from_json(&text),
            Err(_) => Ok(Dataset::new()),
        }
    }

    /// Saves the deployment records.
    pub(crate) fn save_deployments(&self, records: &[DeploymentRecord]) -> Result<(), ToolError> {
        let items: Vec<Value> = records
            .iter()
            .map(|r| {
                let mut m = OrderedMap::new();
                m.insert("name", Value::str(&r.name));
                m.insert("region", Value::str(&r.region));
                m.insert("appname", Value::str(&r.appname));
                m.insert("seed", Value::Int(r.seed as i64));
                m.insert("state", Value::str(&r.state));
                Value::Map(m)
            })
            .collect();
        replace(
            &self.file("deployments.json"),
            json::to_string_pretty(&Value::Seq(items)).as_bytes(),
        )?;
        Ok(())
    }

    /// Loads the deployment records (empty if none yet).
    pub(crate) fn load_deployments(&self) -> Result<Vec<DeploymentRecord>, ToolError> {
        let text = match std::fs::read_to_string(self.file("deployments.json")) {
            Ok(t) => t,
            Err(_) => return Ok(Vec::new()),
        };
        let doc = json::parse(&text)?;
        let items = doc
            .as_seq()
            .ok_or_else(|| ToolError::Config("deployments.json must be an array".into()))?;
        items
            .iter()
            .map(|v| {
                let s = |k: &str| {
                    v.get(k)
                        .and_then(|x| x.as_str())
                        .map(str::to_string)
                        .ok_or_else(|| ToolError::Config(format!("deployment missing '{k}'")))
                };
                Ok(DeploymentRecord {
                    name: s("name")?,
                    region: s("region")?,
                    appname: s("appname")?,
                    seed: v.get("seed").and_then(|x| x.as_int()).unwrap_or(42) as u64,
                    state: s("state")?,
                })
            })
            .collect()
    }

    /// The most recent active deployment, if any.
    pub(crate) fn active_deployment(&self) -> Result<Option<DeploymentRecord>, ToolError> {
        Ok(self
            .load_deployments()?
            .into_iter()
            .rev()
            .find(|d| d.state == "active"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hpcadvisor-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrips_all_state() {
        let wd = WorkDir::open(tempdir("state")).unwrap();
        // Config.
        let config = UserConfig::example_lammps_small();
        wd.save_config_text(
            "subscription: mysubscription\nrgprefix: x\nappsetupurl: u\nappname: lammps\nregion: southcentralus\nskus:\n- Standard_HB120rs_v3\nnnodes: [1]\n",
        )
        .unwrap();
        assert_eq!(wd.load_config().unwrap().appname, "lammps");
        let _ = config;
        // Scenarios.
        let scenarios = hpcadvisor_core::scenario::generate_scenarios(
            &wd.load_config().unwrap(),
            &cloudsim::SkuCatalog::azure_hpc(),
        )
        .unwrap();
        wd.save_scenarios(&scenarios).unwrap();
        assert_eq!(wd.load_scenarios().unwrap(), scenarios);
        // Dataset.
        let mut ds = Dataset::new();
        ds.push(hpcadvisor_core::dataset::point(
            1,
            "lammps",
            "Standard_HB120rs_v3",
            1,
            120,
            10.0,
            0.01,
        ));
        wd.save_dataset(&ds).unwrap();
        assert_eq!(wd.load_dataset().unwrap(), ds);
        // Deployments.
        let records = vec![DeploymentRecord {
            name: "rg001".into(),
            region: "southcentralus".into(),
            appname: "lammps".into(),
            seed: 7,
            state: "active".into(),
        }];
        wd.save_deployments(&records).unwrap();
        assert_eq!(wd.load_deployments().unwrap(), records);
        assert_eq!(wd.active_deployment().unwrap().unwrap().name, "rg001");
        let _ = std::fs::remove_dir_all(wd.root());
    }

    #[test]
    fn empty_workdir_defaults() {
        let wd = WorkDir::open(tempdir("empty")).unwrap();
        assert!(wd.load_config().is_err());
        assert!(wd.load_scenarios().unwrap().is_empty());
        assert!(wd.load_dataset().unwrap().is_empty());
        assert!(wd.active_deployment().unwrap().is_none());
        let _ = std::fs::remove_dir_all(wd.root());
    }
}
