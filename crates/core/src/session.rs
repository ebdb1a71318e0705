//! The session: the whole pipeline, provider → deployment → scenarios →
//! collect, and the one owner of the data collector. This is the
//! programmatic equivalent of the CLI sequence `deploy create && collect`.
//! Its collect, [`Session::collect_with`], lives beside the chunk queue in
//! [`crate::collect`].
//!
//! Construction goes through [`SessionBuilder`]: everything a session
//! carries for its lifetime — seed, scenario list, cache (owned or shared),
//! cache policy, journal, custom scripts, progress tap — is declared up
//! front, and the built session is ready to collect with no further
//! mutation. Per-run knobs (workers, retries, capacity, budget, trace)
//! belong on [`CollectPlan`], not here:
//!
//! ```no_run
//! use hpcadvisor_core::{CollectPlan, ScenarioCache, Session, UserConfig};
//!
//! let mut session = Session::builder(UserConfig::example_lammps_small())
//!     .seed(42)
//!     .cache(ScenarioCache::open("cache.json"))
//!     .build()
//!     .unwrap();
//! let report = session.collect_with(&CollectPlan::new().workers(4)).unwrap();
//! # let _ = report;
//! ```

use crate::cache::{CachePolicy, ScenarioCache, SharedScenarioCache};
use crate::collect::{CollectPlan, CollectReport};
use crate::collector::ExecContext;
use crate::config::UserConfig;
use crate::dataset::Dataset;
use crate::deployment::DeploymentManager;
use crate::error::ToolError;
use crate::journal::RunJournal;
use crate::scenario::{generate_scenarios, Scenario};
use batchsim::SharedProvider;
use cloudsim::SkuCatalog;
use parking_lot::Mutex;
use std::sync::Arc;
use taskshell::Vfs;
use telemetry::EventTap;

/// Everything a [`Session`] can be configured with at build time.
///
/// Obtained from [`Session::builder`]; every method is optional and the
/// defaults match `Session::create(config, 42)`.
pub struct SessionBuilder {
    config: UserConfig,
    seed: u64,
    cache: Option<SharedScenarioCache>,
    cache_policy: Option<CachePolicy>,
    journal: Option<RunJournal>,
    scripts: Vec<(String, String)>,
    progress: Option<Arc<dyn EventTap>>,
    scenarios: Option<Vec<Scenario>>,
}

impl SessionBuilder {
    fn new(config: UserConfig) -> Self {
        SessionBuilder {
            config,
            seed: 42,
            cache: None,
            cache_policy: None,
            journal: None,
            scripts: Vec::new(),
            progress: None,
            scenarios: None,
        }
    }

    /// Experiment seed: drives deployment naming, simulated noise and
    /// scenario fingerprints (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a scenario-result cache owned by this session alone (e.g.
    /// a file-backed store from [`ScenarioCache::open`]).
    pub fn cache(mut self, cache: ScenarioCache) -> Self {
        self.cache = Some(SharedScenarioCache::new(cache));
        self
    }

    /// Attaches a cache handle shared with other sessions: all of them
    /// consult and feed the same store. This is how the advisor daemon
    /// dedups identical scenarios across tenants.
    pub fn shared_cache(mut self, cache: SharedScenarioCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Cache policy every collect of this session uses (default
    /// [`CachePolicy::ReadWrite`]).
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = Some(policy);
        self
    }

    /// Attaches a crash-safe run journal (see [`RunJournal`]); plan-based
    /// collects append every outcome as it lands and replay finished ones.
    pub fn journal(mut self, journal: RunJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Registers custom script content under a URL before anything runs,
    /// replacing the bundled script when the URL matches `appsetupurl`.
    pub fn script(mut self, url: impl Into<String>, content: impl Into<String>) -> Self {
        self.scripts.push((url.into(), content.into()));
        self
    }

    /// Attaches a live progress tap: every collect streams its trace
    /// events (scenario starts/ends, run framing) to `tap` as they are
    /// emitted — the daemon's per-job progress feed.
    pub fn progress(mut self, tap: Arc<dyn EventTap>) -> Self {
        self.progress = Some(tap);
        self
    }

    /// Starts the session from an existing scenario list, statuses
    /// included (a work directory's), instead of expanding the grid: the
    /// collects run what that list leaves to run.
    pub fn scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        self.scenarios = Some(scenarios);
        self
    }

    /// Creates the cloud environment, expands the scenario grid, and wires
    /// the session with everything declared on the builder. Without a
    /// cache, the session memoizes results in an in-memory one.
    pub fn build(self) -> Result<Session, ToolError> {
        let config = self.config;
        let mut manager = DeploymentManager::new(&config.subscription, &config.region, self.seed)?;
        let deployment = manager.create(&config)?;
        let scenarios = match self.scenarios {
            Some(scenarios) => scenarios,
            None => generate_scenarios(&config, &SkuCatalog::azure_hpc())?,
        };
        let ctx = ExecContext::new(
            manager.provider(),
            &deployment,
            config,
            self.seed,
            &self.scripts,
        )?;
        Ok(Session {
            manager,
            scenarios,
            ctx,
            shared_vfs: Arc::new(Mutex::new(Vfs::new())),
            cache: self.cache.unwrap_or_else(SharedScenarioCache::in_memory),
            cache_policy: self.cache_policy.unwrap_or_default(),
            journal: self.journal.map(|j| Arc::new(Mutex::new(j))),
            progress: self.progress,
        })
    }
}

/// One end-to-end advisory session over a single deployment, and the data
/// collector that runs its scenarios.
pub struct Session {
    manager: DeploymentManager,
    /// The scenario list with statuses.
    pub(crate) scenarios: Vec<Scenario>,
    /// Provider, deployment, configuration, seed and app script of every
    /// collect.
    pub(crate) ctx: ExecContext,
    /// The deployment's shared filesystem; chunks work on clones and are
    /// merged back.
    pub(crate) shared_vfs: Arc<Mutex<Vfs>>,
    pub(crate) cache: SharedScenarioCache,
    pub(crate) cache_policy: CachePolicy,
    pub(crate) journal: Option<Arc<Mutex<RunJournal>>>,
    pub(crate) progress: Option<Arc<dyn EventTap>>,
}

impl Session {
    /// Starts building a session over `config`; see [`SessionBuilder`].
    pub fn builder(config: UserConfig) -> SessionBuilder {
        SessionBuilder::new(config)
    }

    /// Creates the cloud environment and expands the scenario grid —
    /// shorthand for `Session::builder(config).seed(seed).build()`.
    pub fn create(config: UserConfig, seed: u64) -> Result<Self, ToolError> {
        Session::builder(config).seed(seed).build()
    }

    /// Creates a session that resumes an interrupted collection from a run
    /// journal: the cloud environment is recreated, and plan-based collects
    /// replay the journal's finished outcomes — only the remainder
    /// executes. The resumed dataset is byte-identical to what the
    /// uninterrupted run would have produced.
    pub fn resume(config: UserConfig, seed: u64, journal: RunJournal) -> Result<Self, ToolError> {
        Session::builder(config).seed(seed).journal(journal).build()
    }

    /// The deployment (resource-group) name.
    pub fn deployment(&self) -> &str {
        &self.ctx.deployment
    }

    /// The configuration this session runs.
    pub(crate) fn config(&self) -> &UserConfig {
        &self.ctx.config
    }

    /// The scenario list with statuses.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The shared cloud provider (billing, clock, quotas).
    pub fn provider(&self) -> SharedProvider {
        self.ctx.provider.clone()
    }

    /// A handle to the session's scenario-result cache (clones share the
    /// store).
    pub fn cache(&self) -> SharedScenarioCache {
        self.cache.clone()
    }

    /// The deployment's shared filesystem (inspectable, like the paper's
    /// jumpbox lets users do).
    pub fn shared_vfs(&self) -> Arc<Mutex<Vfs>> {
        self.shared_vfs.clone()
    }

    /// Runs all pending scenarios and returns the collected dataset:
    /// `collect_with(&CollectPlan::new())` followed by
    /// [`CollectReport::into_dataset`]. A chunk-level error fails that
    /// chunk's scenarios rather than the whole call.
    pub fn collect(&mut self) -> Result<Dataset, ToolError> {
        self.collect_with(&CollectPlan::new())
            .map(CollectReport::into_dataset)
    }

    /// A builder for another session over `config` with this one's seed,
    /// cache handle and cache policy: how partial execution builds its
    /// probe sessions.
    pub(crate) fn sibling(&self, config: UserConfig) -> SessionBuilder {
        Session::builder(config)
            .seed(self.ctx.seed)
            .shared_cache(self.cache())
            .cache_policy(self.cache_policy)
    }

    /// Total cloud spend of this session so far (all VM usage, including
    /// idle pool time — a superset of the per-task cost column).
    pub fn total_cloud_cost(&self) -> f64 {
        self.provider().lock().billing().total_cost()
    }

    /// Shuts the deployment down, deleting its resources.
    pub fn shutdown(&mut self) -> Result<(), ToolError> {
        self.manager.shutdown(&self.ctx.deployment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioStatus;

    #[test]
    fn end_to_end_session() {
        let config = UserConfig::example_lammps_small();
        let mut session = Session::create(config, 42).unwrap();
        assert_eq!(session.scenarios().len(), 3);
        let ds = session.collect().unwrap();
        assert_eq!(ds.len(), 3);
        assert!(session
            .scenarios()
            .iter()
            .all(|s| s.status == ScenarioStatus::Completed));
        // Data collection costs real (simulated) money.
        assert!(session.total_cloud_cost() > 0.0);
        session.shutdown().unwrap();
    }

    #[test]
    fn deterministic_across_sessions() {
        let run = || {
            let mut s = Session::create(UserConfig::example_lammps_small(), 123).unwrap();
            let ds = s.collect().unwrap();
            ds.points
                .iter()
                .map(|p| (p.nnodes, p.exec_time_secs, p.cost_dollars))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut s = Session::create(UserConfig::example_lammps_small(), seed).unwrap();
            let ds = s.collect().unwrap();
            ds.points[0].exec_time_secs
        };
        assert_ne!(run(1), run(2));
    }
}
