//! Task records and the execution context handed to task runners.

use cloudsim::{FaultKind, VmSku};
use simtime::SimDuration;
use std::fmt::Write;
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
/// shared with the pool, not copied per task.
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
}

impl TaskContext {
    /// Number of nodes (Table I: `NNODES`).
    pub fn nnodes(&self) -> u32 {
        self.hosts.len() as u32
    }

    /// The `host:ppn,host:ppn,...` list the paper passes to `mpirun`
    /// (Table I: `HOSTLIST_PPN`).
    pub fn hostlist_ppn(&self) -> String {
        self.host_lists().0
    }

    /// Contents of a plain MPI hostfile (one host per line, `slots=` form).
    pub fn hostfile(&self) -> String {
        self.host_lists().1
    }

    /// [`TaskContext::hostlist_ppn`] and [`TaskContext::hostfile`], built
    /// in one pass over the hosts.
    pub fn host_lists(&self) -> (String, String) {
        let digits = self.ppn.checked_ilog10().map_or(1, |d| d as usize + 1);
        let names: usize = self.hosts.iter().map(String::len).sum();
        let n = self.hosts.len();
        let mut hostlist = String::with_capacity(names + n * (digits + 2));
        let mut hostfile = String::with_capacity(names + n * (digits + 8));
        for (i, host) in self.hosts.iter().enumerate() {
            if i > 0 {
                hostlist.push(',');
            }
            let _ = write!(hostlist, "{host}:{}", self.ppn);
            let _ = writeln!(hostfile, "{host} slots={}", self.ppn);
        }
        (hostlist, hostfile)
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
    use cloudsim::SkuCatalog;

    fn ctx() -> TaskContext {
        TaskContext {
            sku: Arc::new(SkuCatalog::azure_hpc().get("HC44rs").unwrap().clone()),
            hosts: Arc::new(["node-0".into(), "node-1".into(), "node-2".into()]),
            ppn: 44,
            pool: "pool-hc44rs".into(),
        }
    }

    #[test]
    fn hostlist_ppn_format() {
        assert_eq!(ctx().hostlist_ppn(), "node-0:44,node-1:44,node-2:44");
        assert_eq!(ctx().nnodes(), 3);
    }

    #[test]
    fn hostfile_format() {
        let hf = ctx().hostfile();
        assert_eq!(hf.lines().count(), 3);
        assert!(hf.starts_with("node-0 slots=44\n"));
    }

    #[test]
    fn host_lists_match_the_per_host_formats() {
        let mut c = ctx();
        for hosts in [0, 1, 3] {
            c.hosts = (0..hosts).map(|n| format!("node-{n}")).collect();
            let list: Vec<String> = c.hosts.iter().map(|h| format!("{h}:{}", c.ppn)).collect();
            let file: String = c
                .hosts
                .iter()
                .map(|h| format!("{h} slots={}\n", c.ppn))
                .collect();
            assert_eq!(c.host_lists(), (list.join(","), file));
        }
    }

    #[test]
    fn failed_result_never_has_zero_exit() {
        let r = TaskResult::failed(SimDuration::from_secs(1), "boom", 0);
        assert_eq!(r.exit_code, 1);
        let r = TaskResult::failed(SimDuration::from_secs(1), "boom", 7);
        assert_eq!(r.exit_code, 7);
    }
}
