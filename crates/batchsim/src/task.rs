//! Task records and the execution context handed to task runners.

use cloudsim::{FaultKind, VmSku};
use simtime::SimDuration;
use std::sync::Arc;

/// What a task is for — mirrors the paper's Algorithm 1, which runs one
/// setup task per pool and one compute task per scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Prepares the application (download data, install software) on the
    /// pool's shared filesystem.
    Setup,
    /// Runs one scenario.
    Compute,
}

/// How a task ended. A task runs to completion in one call, so these are
/// the terminal states of the paper's scenario list: completed, failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Finished with exit code 0.
    Completed,
    /// Finished with non-zero exit code or infrastructure failure.
    Failed,
}

/// Everything a task runner can see about where it executes. The fields map
/// one-to-one onto the environment variables of the paper's Table I. What
/// is the same for every task of a pool (its SKU, name and hostnames) is
/// shared with the pool, and what is the same for every task of a layout
/// (its hosts and their `HOSTLIST_PPN` and hostfile texts) is built once
/// per layout by the pool, not per task.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// VM type of the pool (Table I: `SKU`, `VMTYPE`).
    pub sku: Arc<VmSku>,
    /// Hostnames assigned to this task (Table I: `HOSTLIST_PPN` is derived
    /// from this plus `ppn`).
    pub hosts: Arc<[String]>,
    /// Processes per node (Table I: `PPN`).
    pub ppn: u32,
    /// Pool name the task runs in.
    pub pool: Arc<str>,
    /// The text of [`TaskContext::hostlist_ppn`], shared with every task of
    /// the layout.
    pub hostlist_ppn_text: Arc<str>,
    /// The text of [`TaskContext::hostfile`], shared with every task of the
    /// layout: a task writes it into its filesystem without a copy.
    pub hostfile_text: Arc<str>,
}

impl TaskContext {
    /// Number of nodes (Table I: `NNODES`).
    pub fn nnodes(&self) -> u32 {
        self.hosts.len() as u32
    }

    /// The `host:ppn,host:ppn,...` list the paper passes to `mpirun`
    /// (Table I: `HOSTLIST_PPN`).
    pub fn hostlist_ppn(&self) -> String {
        self.hostlist_ppn_text.to_string()
    }

    /// Contents of a plain MPI hostfile (one host per line, `slots=` form).
    pub fn hostfile(&self) -> String {
        self.hostfile_text.to_string()
    }
}

/// What a task runner returns: how long the task took in virtual time and
/// what it printed.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// Virtual duration of the task.
    pub duration: SimDuration,
    /// Captured stdout (scraped for `HPCADVISORVAR` lines by the tool).
    pub stdout: String,
    /// Process exit code; non-zero marks the task failed.
    pub exit_code: i32,
}

impl TaskResult {
    /// A successful result.
    pub fn ok(duration: SimDuration, stdout: impl Into<String>) -> Self {
        TaskResult {
            duration,
            stdout: stdout.into(),
            exit_code: 0,
        }
    }

    /// A failed result.
    pub fn failed(duration: SimDuration, stdout: impl Into<String>, exit_code: i32) -> Self {
        TaskResult {
            duration,
            stdout: stdout.into(),
            exit_code: if exit_code == 0 { 1 } else { exit_code },
        }
    }
}

/// The service's record of one finished task.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Human-readable name (scenario id in the tool).
    pub name: String,
    /// Setup or compute.
    pub kind: TaskKind,
    /// Pool the task was submitted to.
    pub pool: Arc<str>,
    /// Nodes the task requires.
    pub nodes_required: u32,
    /// Processes per node.
    pub ppn: u32,
    /// How the task ended.
    pub state: TaskState,
    /// Time the task took, as reported by its runner; zero for a task that
    /// never started. It does not depend on the shared clock, which other
    /// pools may advance concurrently.
    pub duration: SimDuration,
    /// Captured stdout.
    pub stdout: String,
    /// Exit code (infrastructure failures use -1).
    pub exit_code: i32,
    /// Set when the failure was injected by the fault plan (task-start fault
    /// or mid-task node death); `None` for genuine application failures.
    /// Retry logic uses this to tell transient infrastructure loss apart
    /// from deterministic application errors.
    pub fault: Option<FaultKind>,
    /// True when the task failed because its spot nodes were reclaimed
    /// mid-run. Evicted tasks also carry a transient `fault` tag; the
    /// separate flag lets the collector count evictions and escalate to
    /// dedicated capacity after repeated reclaims.
    pub evicted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_result_never_has_zero_exit() {
        let r = TaskResult::failed(SimDuration::from_secs(1), "boom", 0);
        assert_eq!(r.exit_code, 1);
        let r = TaskResult::failed(SimDuration::from_secs(1), "boom", 7);
        assert_eq!(r.exit_code, 7);
    }
}
