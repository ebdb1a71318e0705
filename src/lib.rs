//! # hpcadvisor — a Rust reproduction of the HPCAdvisor paper (SC 2024)
//!
//! This meta-crate re-exports the whole workspace so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`core`] (`hpcadvisor-core`) — the tool itself: configuration,
//!   deployment, Algorithm-1 data collection, plots, Pareto-front advice,
//!   smart sampling.
//! * [`cloudsim`] — the simulated cloud provider (SKUs, pricing, quotas,
//!   billing, failure injection).
//! * [`batchsim`] — the Azure-Batch-like pool/task orchestrator.
//! * [`appmodel`] — analytic performance models of LAMMPS, OpenFOAM, WRF,
//!   GROMACS, NAMD and matmul.
//! * [`taskshell`] — the bash-subset interpreter that runs the user's
//!   setup/run scripts inside the simulation.
//! * [`formats`] (`hpcadvisor-formats`) — YAML/JSON/CSV codecs.
//! * [`svgplot`] — SVG/ASCII chart rendering.
//! * [`telemetry`] — the zero-cost-when-off run-trace layer (events,
//!   sinks, summaries, timeline extraction).
//! * [`simtime`] — deterministic virtual time.
//!
//! See `DESIGN.md` for the paper-to-substrate substitution map and
//! `EXPERIMENTS.md` for the reproduced tables and figures.

pub use appmodel;
pub use batchsim;
pub use cloudsim;
pub use hpcadvisor_cli as cli;
pub use hpcadvisor_core as core;
pub use hpcadvisor_formats as formats;
pub use simtime;
pub use svgplot;
pub use taskshell;
pub use telemetry;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use hpcadvisor_core::advice::AdviceSort;
    pub use hpcadvisor_core::replicate::{front_stability, render_stability, run_replicates};
    pub use hpcadvisor_core::sampling::{
        front_regret, front_similarity, run_sampled, AggressiveDiscard, BottleneckAware,
        FixedPerfFactor, FullGrid, Sampler,
    };
    pub use hpcadvisor_core::{
        metrics, plot, Advice, AdviceRequest, AdvisorService, Capacity, CollectPlan, CollectReport,
        DataFilter, DataPoint, Dataset, JobEvent, RetryPolicy, RunJournal, ScenarioStatus,
        ServiceConfig, ServiceError, Session, SharedScenarioCache, TenantPolicy, ToolError,
        UserConfig,
    };
}
