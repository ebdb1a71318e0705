//! Task records and the execution context handed to task runners.

use cloudsim::{FaultKind, VmSku};
use simtime::{SimDuration, SimInstant};
use std::fmt::Write;
use std::sync::Arc;

/// Unique task identifier within one batch service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

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

/// Lifecycle state of a task. These are exactly the states the paper's
/// scenario list records: pending, (running,) completed, failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Submitted, waiting for nodes.
    Pending,
    /// Occupying nodes.
    Running,
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
    /// The task being run.
    pub task_id: TaskId,
    /// VM type of the pool (Table I: `SKU`, `VMTYPE`).
    pub sku: Arc<VmSku>,
    /// Hostnames assigned to this task (Table I: `HOSTLIST_PPN` is derived
    /// from this plus `ppn`).
    pub hosts: Arc<[String]>,
    /// Processes per node (Table I: `PPN`).
    pub ppn: u32,
    /// Pool name the task runs in.
    pub pool: Arc<str>,
    /// Resource group of the batch service, which roots the task directory.
    pub resource_group: Arc<str>,
}

impl TaskContext {
    /// Number of nodes (Table I: `NNODES`).
    pub fn nnodes(&self) -> u32 {
        self.hosts.len() as u32
    }

    /// Per-task working directory (Table I: `TASKRUN_DIR`).
    pub fn task_dir(&self) -> String {
        format!("/share/{}/tasks/{}", self.resource_group, self.task_id.0)
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

/// The service's record of one task.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Task id.
    pub id: TaskId,
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
    /// Current state.
    pub state: TaskState,
    /// Submission time.
    pub submitted_at: SimInstant,
    /// Start time, once running.
    pub started_at: Option<SimInstant>,
    /// Completion time, once finished.
    pub completed_at: Option<SimInstant>,
    /// Captured stdout, once finished.
    pub stdout: String,
    /// Exit code, once finished (infrastructure failures use -1).
    pub exit_code: Option<i32>,
    /// Time the task itself took, as reported by its runner. Unlike
    /// [`TaskRecord::duration`] this does not depend on the shared clock,
    /// which other pools may advance concurrently.
    pub run_duration: Option<SimDuration>,
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

impl TaskRecord {
    /// Wall-clock duration, once finished.
    pub fn duration(&self) -> Option<SimDuration> {
        Some(self.completed_at? - self.started_at?)
    }

    /// The task's own execution time: the runner-reported duration when
    /// available (always, for tasks that ran), else the wall-clock span.
    /// Identical to [`TaskRecord::duration`] under serial execution.
    pub fn execution_duration(&self) -> Option<SimDuration> {
        self.run_duration.or_else(|| self.duration())
    }

    /// True once the task reached a terminal state.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, TaskState::Completed | TaskState::Failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::SkuCatalog;

    fn ctx() -> TaskContext {
        TaskContext {
            task_id: TaskId(1),
            sku: Arc::new(SkuCatalog::azure_hpc().get("HC44rs").unwrap().clone()),
            hosts: Arc::new(["node-0".into(), "node-1".into(), "node-2".into()]),
            ppn: 44,
            pool: "pool-hc44rs".into(),
            resource_group: "rg".into(),
        }
    }

    #[test]
    fn task_dir_is_under_the_resource_group() {
        assert_eq!(ctx().task_dir(), "/share/rg/tasks/1");
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

    #[test]
    fn record_duration() {
        let mut rec = TaskRecord {
            id: TaskId(1),
            name: "t".into(),
            kind: TaskKind::Compute,
            pool: "p".into(),
            nodes_required: 2,
            ppn: 4,
            state: TaskState::Pending,
            submitted_at: SimInstant::EPOCH,
            started_at: None,
            completed_at: None,
            stdout: String::new(),
            exit_code: None,
            run_duration: None,
            fault: None,
            evicted: false,
        };
        assert_eq!(rec.duration(), None);
        assert!(!rec.is_finished());
        rec.started_at = Some(SimInstant::EPOCH + SimDuration::from_secs(10));
        rec.completed_at = Some(SimInstant::EPOCH + SimDuration::from_secs(25));
        rec.state = TaskState::Completed;
        assert_eq!(rec.duration(), Some(SimDuration::from_secs(15)));
        // Without a runner report, execution time falls back to wall clock.
        assert_eq!(rec.execution_duration(), Some(SimDuration::from_secs(15)));
        rec.run_duration = Some(SimDuration::from_secs(12));
        assert_eq!(rec.execution_duration(), Some(SimDuration::from_secs(12)));
        assert!(rec.is_finished());
    }
}
