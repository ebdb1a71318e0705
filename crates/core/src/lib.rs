//! # hpcadvisor-core — the HPCAdvisor tool, reproduced in Rust
//!
//! This crate implements the paper's contribution: a tool that, given a
//! user's application (a bash setup/run script) and a grid of candidate
//! cloud configurations (VM types × node counts × application inputs),
//! automatically
//!
//! 1. **deploys** a cloud environment (Section III-B: resource group, VNet,
//!    storage, batch service, optional jumpbox/peering) — [`deployment`];
//! 2. **collects data** by expanding the scenario grid and running every
//!    scenario through the batch orchestrator with per-VM-type pool reuse
//!    (the paper's Algorithm 1) — [`scenario`], [`collect`], [`dataset`];
//! 3. **plots** execution time vs. nodes, execution time vs. cost, speed-up
//!    and efficiency (Figures 2–5) — [`plot`], [`metrics`];
//! 4. **advises** with the Pareto front over (execution time, cost)
//!    (Figure 6, Listings 3–4), including Slurm-recipe generation from the
//!    paper's "comprehensive advice" future work — [`pareto`], [`advice`];
//! 5. **optimizes** the number of scenarios that must actually run (the
//!    paper's Section III-F: aggressive SKU discarding, fixed-performance-
//!    factor regression, infrastructure-bottleneck hints) — [`sampling`],
//!    [`regress`].
//!
//! The cloud back-end is the `cloudsim`/`batchsim` simulator pair, the
//! applications are `appmodel` performance models, and user scripts run in
//! the `taskshell` interpreter — see DESIGN.md for the substitution map.
//!
//! ## Quick start
//!
//! Collection is described by a [`collect::CollectPlan`] (worker count,
//! retry, capacity, deadline, budget, subset) and returns a
//! [`collect::CollectReport`] with the dataset, per-scenario outcomes,
//! per-pool billing and executor stats:
//!
//! ```
//! use hpcadvisor_core::prelude::*;
//!
//! // Listing-1-style configuration (here built programmatically).
//! let config = UserConfig::example_lammps_small();
//! let mut session = Session::create(config, 42).unwrap();
//! // Split the grid into per-VM-type chunks and run them on 4 worker
//! // threads; the merged dataset is byte-identical to a serial run.
//! let report = session.collect_with(&CollectPlan::new().workers(4)).unwrap();
//! let advice = Advice::from_dataset(&report.dataset, &DataFilter::all());
//! assert!(!advice.rows.is_empty());
//! println!("{}", advice.render_text());
//! ```
//!
//! [`session::Session::collect`] runs the default plan and returns just the
//! [`dataset::Dataset`].

pub mod advice;
mod append_log;
pub mod appscript;
pub mod cache;
pub mod collect;
mod collector;
pub mod config;
pub mod dataset;
pub mod deployment;
pub mod error;
pub mod journal;
pub mod metrics;
pub mod pareto;
pub mod placement;
pub mod plot;
pub mod predictor;
pub mod regress;
pub mod replicate;
pub mod retry;
pub mod sampling;
pub mod scenario;
pub mod service;
pub mod service_state;
pub mod session;

pub use advice::{Advice, CapacityComparison};
pub use append_log::replace;
pub use cache::{CachePolicy, Fingerprint, Fingerprinter, ScenarioCache, SharedScenarioCache};
pub use cloudsim::Capacity;
pub use collect::{CollectPlan, CollectReport, CollectStats, ScenarioOutcome};
pub use config::UserConfig;
pub use dataset::{DataFilter, DataPoint, Dataset};
pub use deployment::{Deployment, DeploymentManager};
pub use error::ToolError;
pub use journal::{JournalEntry, RunJournal};
pub use placement::PlacementPolicy;
pub use retry::{FaultClass, RetryPolicy};
pub use scenario::{Scenario, ScenarioStatus};
pub use service::{
    AdviceRequest, AdvisorService, JobEvent, JobHandle, JobOutcome, ServiceConfig, ServiceError,
    TenantPolicy,
};
pub use service_state::{PendingJob, ServiceJournal, ServiceRecord, ServiceState};
pub use session::{Session, SessionBuilder};
pub use telemetry::{Trace, TraceEvent, TraceSummary};

/// Common imports for tool users.
pub mod prelude {
    pub use crate::advice::Advice;
    pub use crate::cache::{CachePolicy, ScenarioCache, SharedScenarioCache};
    pub use crate::collect::{CollectPlan, CollectReport};
    pub use crate::config::UserConfig;
    pub use crate::dataset::{DataFilter, DataPoint, Dataset};
    pub use crate::deployment::DeploymentManager;
    pub use crate::error::ToolError;
    pub use crate::journal::RunJournal;
    pub use crate::pareto::pareto_front;
    pub use crate::predictor::{advise_from_history, HistoryPredictor};
    pub use crate::replicate::{front_stability, render_stability, run_replicates};
    pub use crate::retry::RetryPolicy;
    pub use crate::sampling::partial::run_partial_execution;
    pub use crate::scenario::{Scenario, ScenarioStatus};
    pub use crate::service::{
        AdviceRequest, AdvisorService, JobEvent, JobHandle, JobOutcome, ServiceConfig,
        ServiceError, TenantPolicy,
    };
    pub use crate::session::{Session, SessionBuilder};
    pub use cloudsim::Capacity;
    pub use telemetry::{Trace, TraceSummary};
}
