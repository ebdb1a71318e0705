//! A batch-orchestrator simulator — the Azure Batch substitute.
//!
//! HPCAdvisor's data-collection loop (the paper's Algorithm 1) talks to
//! Azure Batch through a narrow surface: create a pool of a given VM type,
//! resize it, run a *setup task* (once per pool, prepares the application
//! on the shared filesystem) and *compute tasks* (one per scenario,
//! spanning several nodes), read whether each completed or failed, and
//! finally resize to zero or delete the pool. This crate provides exactly
//! that surface over [`cloudsim::CloudProvider`] and virtual time.
//!
//! Algorithm 1 creates one task at a time and waits for it, so
//! [`BatchService::run_task`] runs a task to completion in one call: the
//! task gets the pool's first nodes (so its host list is real), rolls the
//! injected task, node-death and eviction faults, advances the shared
//! virtual clock by its duration and returns its [`TaskRecord`]. Task
//! *work* is supplied by the caller as a closure from [`TaskContext`] to
//! [`TaskResult`] — the core crate wires that closure to the `taskshell`
//! interpreter running the user's setup/run script against the
//! application models.

pub mod error;
pub mod pool;
pub mod service;
pub mod task;

pub use cloudsim::FaultKind;
pub use error::BatchError;
pub use pool::{Pool, PoolState};
pub use service::BatchService;
pub use task::{TaskContext, TaskKind, TaskRecord, TaskResult, TaskState};

use parking_lot::Mutex;
use std::sync::Arc;

/// Shared handle to the cloud provider, used by the orchestrator and the
/// tool concurrently.
pub type SharedProvider = Arc<Mutex<cloudsim::CloudProvider>>;

/// Wraps a provider for shared use.
pub fn share(provider: cloudsim::CloudProvider) -> SharedProvider {
    Arc::new(Mutex::new(provider))
}
