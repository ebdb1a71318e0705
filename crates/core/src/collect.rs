//! The redesigned collection API: [`CollectPlan`] → [`CollectReport`].
//!
//! The paper's Algorithm 1 keeps one pool per VM type and walks the scenario
//! grid serially. Because each SKU owns an independent pool (and an
//! independent quota family on Azure's H-series), the per-SKU slices of the
//! grid are embarrassingly parallel — and within a SKU, scenarios are
//! independent too. This module splits the id-ordered scenario list into
//! per-SKU groups and each group into chunks of at most
//! [`CHUNK_SIZE`] scenarios: workers drain the chunk list through
//! an admission-gated queue, so a hot SKU whose group dwarfs the others is
//! stolen chunk by chunk instead of serializing the run behind one worker.
//! Each chunk runs against its own [`BatchService`] and a clone of the
//! deployment's shared filesystem; pool contexts and backoff scopes stay
//! keyed `(sku, region)`.
//!
//! Every collect takes this one path. A single worker drains the queue on
//! the calling thread; more workers drain it on scoped threads.
//!
//! Determinism: a scenario's data point depends only on the scenario itself,
//! the experiment seed, and the setup artifacts on the filesystem — not on
//! wall-clock interleaving — so the merged, id-ordered [`Dataset`] is
//! byte-identical for any worker count. Three mechanisms keep that true
//! under chunking:
//!
//! - chunk boundaries depend only on the scenario list, never on the
//!   worker count or on which worker ran what;
//! - each chunk's service qualifies its fault-injection counters by chunk
//!   index (`c0`, `c1`, …) on the shared provider, so two chunks of the
//!   same pool running concurrently keep interleaving-free attempt
//!   sequences while probabilistic rolls stay keyed by the bare pool scope;
//! - an admission gate reserves each chunk's worst-case `(family, region)`
//!   quota cores before it starts, so concurrent chunks of one family can
//!   never trip quota denials a serial run would not see.
//!
//! Chunk filesystems are merged back into the deployment's shared
//! filesystem, in chunk-index order, when all chunks finish.
//!
//! Incremental collection and resume: before chunking, one pass over the
//! run list fingerprints each runnable scenario once and consults the
//! session's run journal, then its [`crate::cache::ScenarioCache`] —
//! journaled outcomes replay and known fingerprints are answered without
//! touching a pool, and only the misses are split into chunks. New results
//! are buffered in each chunk's `ShardOutput` and inserted into the cache
//! after the merge barrier on the coordinating thread, so chunk workers
//! never contend on a cache lock.
//!
//! ```no_run
//! use hpcadvisor_core::prelude::*;
//!
//! let mut session = Session::create(UserConfig::example_openfoam(), 42).unwrap();
//! let report = session.collect_with(&CollectPlan::new().workers(4)).unwrap();
//! println!("{}", report.render_text());
//! let dataset = report.into_dataset();
//! # let _ = dataset;
//! ```

use crate::cache::{rehydrate_point, Fingerprint, Fingerprinter, ScenarioCache};
use crate::collector::{
    emit_scenario, index_by_id, resolve_ids, status_str, store_new_points, ExecContext,
    JournalWriter, ShardOutput, ShardRun,
};
use crate::dataset::{DataPoint, Dataset};
use crate::error::ToolError;
use crate::journal::{JournalEntry, RunJournal};
use crate::retry::RetryPolicy;
use crate::scenario::{Scenario, ScenarioStatus};
use crate::session::Session;
use batchsim::BatchService;
use cloudsim::{BillingSummary, Capacity};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use taskshell::Vfs;
use telemetry::{EventSink, EventTap, Trace, TraceEvent, TraceSummary, Value, COORDINATOR_SHARD};

/// A declarative description of one collection run, and the one home of
/// every per-run policy: retries, capacity class, eviction escalation,
/// deadline, budget, rerunning failures and pool teardown. What a session
/// *is* (deployment, seed, cache and its policy, journal, progress tap) is
/// set on its [`SessionBuilder`] instead.
///
/// Built fluently and handed to [`Session::collect_with`];
/// [`Session::collect`] runs the default plan.
///
/// [`SessionBuilder`]: crate::session::SessionBuilder
/// [`Session::collect`]: crate::session::Session::collect
#[derive(Debug, Clone)]
pub struct CollectPlan {
    workers: usize,
    subset: Option<Vec<u32>>,
    pub(crate) trace: bool,
    pub(crate) rerun_failed: bool,
    pub(crate) retry: RetryPolicy,
    pub(crate) capacity: Capacity,
    pub(crate) escalate_after: u32,
    pub(crate) deadline_secs: Option<f64>,
    pub(crate) budget_dollars: Option<f64>,
    pub(crate) delete_pools: bool,
}

impl Default for CollectPlan {
    fn default() -> Self {
        CollectPlan {
            workers: 1,
            subset: None,
            trace: false,
            rerun_failed: false,
            retry: RetryPolicy::default(),
            capacity: Capacity::Dedicated,
            escalate_after: 2,
            deadline_secs: None,
            budget_dollars: None,
            delete_pools: false,
        }
    }
}

impl CollectPlan {
    /// A single-worker plan: up to 3 attempts per operation, dedicated
    /// capacity, no deadline or budget, failures not rerun, and pools
    /// resized to zero after use.
    pub fn new() -> Self {
        CollectPlan::default()
    }

    /// Number of worker threads (0 and 1 both mean serial). Workers beyond
    /// the chunk count are not spawned.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Re-runs scenarios a previous collect left failed or timed out, and
    /// re-executes journaled failures instead of replaying them.
    pub fn rerun_failed(mut self, yes: bool) -> Self {
        self.rerun_failed = yes;
        self
    }

    /// Restricts the run to the given scenario ids (smart-sampling drivers).
    /// A repeated id runs once, at its first occurrence.
    pub fn subset(mut self, ids: impl Into<Vec<u32>>) -> Self {
        self.subset = Some(ids.into());
        self
    }

    /// Sets the retry schedule for transient faults (pool allocation,
    /// resize, task submission). The default retries up to 3 attempts with
    /// exponential backoff on the simulated clock; [`RetryPolicy::none`]
    /// disables it.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets the capacity class pools are provisioned with. Spot capacity
    /// bills at the SKU's discounted rate but exposes scenarios to
    /// eviction (requeued, then escalated to dedicated).
    pub fn capacity(mut self, capacity: Capacity) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets how many evictions one scenario tolerates before its pool
    /// escalates to dedicated capacity for the rest of that scenario.
    pub fn escalate_after(mut self, evictions: u32) -> Self {
        self.escalate_after = evictions;
        self
    }

    /// Sets a per-scenario wall-clock deadline (simulated seconds); a
    /// scenario whose retry loop exceeds it is marked timed out.
    pub fn deadline_secs(mut self, secs: f64) -> Self {
        self.deadline_secs = Some(secs);
        self
    }

    /// Sets a sweep-level cost budget in dollars; once billed spend reaches
    /// it, remaining scenarios are skipped (journaled) instead of executed.
    pub fn budget_dollars(mut self, dollars: f64) -> Self {
        self.budget_dollars = Some(dollars);
        self
    }

    /// Deletes pools after use instead of resizing them to zero (the
    /// paper's "resize pool to zero or delete pool, depending on user
    /// preference").
    pub fn delete_pools(mut self, yes: bool) -> Self {
        self.delete_pools = yes;
        self
    }

    /// Captures a deterministic run trace ([`CollectReport::trace`]): span
    /// events from every layer, stamped on shard-local simulated timelines
    /// and merged in shard order, so the trace bytes are identical for any
    /// worker count. Off by default — a disabled trace costs one branch per
    /// event site and allocates nothing.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Whether this plan runs `s`, given the status an earlier collect
    /// left it in.
    pub(crate) fn should_run(&self, s: &Scenario) -> bool {
        match s.status {
            ScenarioStatus::Pending => true,
            ScenarioStatus::Failed => self.rerun_failed,
            // Timed-out scenarios burned their wall-clock budget once
            // already; only an explicit rerun request tries again.
            ScenarioStatus::TimedOut => self.rerun_failed,
            ScenarioStatus::Completed => false,
            // Skipped scenarios never executed — always worth another try.
            ScenarioStatus::Skipped => true,
        }
    }
}

/// What happened to one executed scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario id in the session's grid.
    pub scenario_id: u32,
    /// VM type the scenario ran on.
    pub sku: String,
    /// Node count of the scenario.
    pub nnodes: u32,
    /// Final status after the run.
    pub status: ScenarioStatus,
    /// Index of the shard that executed it; `None` for cache hits, which
    /// never reach a shard.
    pub shard: Option<usize>,
    /// True if the result was served from the scenario cache.
    pub cached: bool,
    /// True if the outcome was replayed from the crash-safe run journal
    /// (`collect --resume`) instead of executing.
    pub replayed: bool,
    /// Execution attempts spent on the scenario: 1 means no retries, more
    /// means transient faults were retried, 0 means nothing executed
    /// (cached, replayed, or skipped before touching the cloud).
    pub attempts: u32,
    /// Simulated backoff seconds the scenario waited through on retries.
    pub backoff_secs: f64,
    /// Spot evictions the scenario survived (0 on dedicated capacity).
    pub evictions: u32,
    /// Region failovers the scenario went through before settling (0 when
    /// its first candidate region provisioned, or without a regions list).
    pub failovers: u32,
    /// Failure reason (quota, setup, task failure, deadline) when `status`
    /// is failed, skipped, or timed out.
    pub fail_reason: Option<String>,
}

impl ScenarioOutcome {
    /// An outcome that spent no execution attempts.
    pub(crate) fn settled(
        scenario: &Scenario,
        status: ScenarioStatus,
        fail_reason: Option<String>,
    ) -> Self {
        ScenarioOutcome {
            scenario_id: scenario.id,
            sku: scenario.sku.clone(),
            nnodes: scenario.nnodes,
            status,
            shard: None,
            cached: false,
            replayed: false,
            attempts: 0,
            backoff_secs: 0.0,
            evictions: 0,
            failovers: 0,
            fail_reason,
        }
    }

    /// A scenario of chunk `chunk` failed by a chunk-level error.
    fn chunk_failed(scenario: &Scenario, chunk: usize, reason: &str) -> Self {
        ScenarioOutcome {
            shard: Some(chunk),
            attempts: 1,
            ..ScenarioOutcome::settled(scenario, ScenarioStatus::Failed, Some(reason.to_string()))
        }
    }

    /// A scenario answered from the result cache.
    fn cached(scenario: &Scenario) -> Self {
        ScenarioOutcome {
            cached: true,
            ..ScenarioOutcome::settled(scenario, ScenarioStatus::Completed, None)
        }
    }

    /// A scenario replayed from the run journal.
    fn replayed(scenario: &Scenario, entry: &JournalEntry) -> Self {
        ScenarioOutcome {
            replayed: true,
            ..ScenarioOutcome::settled(scenario, entry.status, entry.fail_reason.clone())
        }
    }
}

/// Per-worker execution accounting for one collection run. Worker
/// attribution is wall-clock-dependent bookkeeping (like
/// [`CollectStats::wall_secs`]): it never reaches the dataset, the journal
/// or the run trace, which stay byte-identical across worker counts.
#[derive(Debug, Clone, Default)]
pub struct WorkerLoad {
    /// Chunks this worker executed.
    pub chunks: usize,
    /// Scenarios this worker executed.
    pub scenarios: usize,
    /// Wall-clock seconds this worker spent executing chunks.
    pub busy_secs: f64,
    /// Chunks this worker stole: chunks of a SKU group whose first chunk
    /// was taken by a different worker.
    pub steals: usize,
}

/// Aggregate statistics for one collection run.
#[derive(Debug, Clone, Default)]
pub struct CollectStats {
    /// Worker threads actually used.
    pub workers: usize,
    /// Number of work-stealing chunks the scenario list was split into
    /// (one per SKU group when the group fits [`CHUNK_SIZE`]).
    pub shards: usize,
    /// Total stolen chunks across all workers (0 on serial runs and on
    /// grids where every SKU group fits in one chunk).
    pub steals: usize,
    /// Per-worker utilization, indexed by worker id.
    pub worker_loads: Vec<WorkerLoad>,
    /// Scenarios the executor visited this run (cache hits and journal
    /// replays not counted; quota skips are, since the run reached them).
    pub executed: usize,
    /// Scenarios that completed (executed or cached).
    pub completed: usize,
    /// Scenarios that failed.
    pub failed: usize,
    /// Scenarios skipped by graceful degradation (e.g. SKU quota exhausted
    /// mid-run, or the cost budget tripping); they re-run on the next
    /// collect unless the skip was journaled (budget stops).
    pub skipped: usize,
    /// Scenarios killed by the per-scenario deadline watchdog.
    pub timed_out: usize,
    /// Total spot evictions survived across all scenarios.
    pub evictions: u32,
    /// Scenarios that needed more than one attempt (transient-fault
    /// retries).
    pub retried: usize,
    /// Total simulated backoff across all scenarios, in seconds.
    pub backoff_secs: f64,
    /// Total region failovers across all scenarios (0 without a multi-region
    /// placement grid).
    pub failovers: u32,
    /// Scenarios replayed from the run journal without executing.
    pub journal_replayed: usize,
    /// Scenarios answered from the result cache without running.
    pub cache_hits: usize,
    /// Scenarios consulted but not found in the cache (0 when the cache is
    /// off).
    pub cache_misses: usize,
    /// Wall-clock time of the executor, in seconds.
    pub wall_secs: f64,
    /// Cloud spend billed while the run executed, in US dollars: all VM
    /// usage, idle pool time included.
    pub cloud_cost: f64,
}

impl CollectStats {
    /// Adds a later run's statistics to these: counts and times sum,
    /// worker loads add up per worker id, and the worker count is the
    /// larger of the two.
    fn add(&mut self, next: CollectStats) {
        self.workers = self.workers.max(next.workers);
        self.shards += next.shards;
        self.steals += next.steals;
        if self.worker_loads.len() < next.worker_loads.len() {
            self.worker_loads
                .resize_with(next.worker_loads.len(), Default::default);
        }
        for (mine, theirs) in self.worker_loads.iter_mut().zip(next.worker_loads) {
            mine.chunks += theirs.chunks;
            mine.scenarios += theirs.scenarios;
            mine.busy_secs += theirs.busy_secs;
            mine.steals += theirs.steals;
        }
        self.executed += next.executed;
        self.completed += next.completed;
        self.failed += next.failed;
        self.skipped += next.skipped;
        self.timed_out += next.timed_out;
        self.evictions += next.evictions;
        self.retried += next.retried;
        self.backoff_secs += next.backoff_secs;
        self.failovers += next.failovers;
        self.journal_replayed += next.journal_replayed;
        self.cache_hits += next.cache_hits;
        self.cache_misses += next.cache_misses;
        self.wall_secs += next.wall_secs;
        self.cloud_cost += next.cloud_cost;
    }
}

/// Everything a collection run produced: the dataset, per-scenario
/// outcomes, per-pool billing and executor statistics.
#[derive(Debug, Default)]
pub struct CollectReport {
    /// Collected data points, ordered by scenario id.
    pub dataset: Dataset,
    /// Per-scenario outcomes, ordered by scenario id.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Cumulative per-SKU billing for the deployment (one entry ≈ one pool).
    pub billing: Vec<BillingSummary>,
    /// Executor statistics.
    pub stats: CollectStats,
    /// The merged run trace, when the plan enabled tracing
    /// ([`CollectPlan::trace`]). Byte-identical for any worker count.
    pub trace: Option<Trace>,
}

impl CollectReport {
    /// Extracts just the dataset (what [`Session::collect`] returns).
    ///
    /// [`Session::collect`]: crate::session::Session::collect
    pub fn into_dataset(self) -> Dataset {
        self.dataset
    }

    /// Appends a later run of the same session: its points, outcomes and
    /// trace events follow this report's, its stats add to these, and its
    /// billing (cumulative for the deployment) replaces this report's.
    pub(crate) fn append(&mut self, next: CollectReport) {
        self.dataset.extend(next.dataset);
        self.outcomes.extend(next.outcomes);
        self.billing = next.billing;
        self.stats.add(next.stats);
        match (&mut self.trace, next.trace) {
            (Some(trace), Some(more)) => trace.events.extend(more.events),
            (slot, more) => *slot = slot.take().or(more),
        }
    }

    /// Aggregated trace counters and histograms (provision latency, boot
    /// time, retries, cache hit ratio, dollars per completed scenario), when
    /// the run was traced.
    pub fn trace_summary(&self) -> Option<TraceSummary> {
        self.trace.as_ref().map(|t| t.summarize())
    }

    /// Human-readable summary: stats line, per-pool billing, failures.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "collected {} scenarios: {} completed, {} failed ({} worker{}, {} chunk{}, {:.2}s)",
            self.stats.executed + self.stats.cache_hits,
            self.stats.completed,
            self.stats.failed,
            self.stats.workers,
            if self.stats.workers == 1 { "" } else { "s" },
            self.stats.shards,
            if self.stats.shards == 1 { "" } else { "s" },
            self.stats.wall_secs,
        );
        if self.stats.workers > 1 {
            for (i, w) in self.stats.worker_loads.iter().enumerate() {
                let busy_pct = if self.stats.wall_secs > 0.0 {
                    100.0 * w.busy_secs / self.stats.wall_secs
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  worker {i}: {} chunk{} ({} stolen), {} scenario{}, {:.0}% busy",
                    w.chunks,
                    if w.chunks == 1 { "" } else { "s" },
                    w.steals,
                    w.scenarios,
                    if w.scenarios == 1 { "" } else { "s" },
                    busy_pct,
                );
            }
        }
        if self.stats.cache_hits > 0 || self.stats.cache_misses > 0 {
            let _ = writeln!(
                out,
                "  cache: {} hit{}, {} miss{}",
                self.stats.cache_hits,
                if self.stats.cache_hits == 1 { "" } else { "s" },
                self.stats.cache_misses,
                if self.stats.cache_misses == 1 {
                    ""
                } else {
                    "es"
                },
            );
        }
        if self.stats.journal_replayed > 0 {
            let _ = writeln!(
                out,
                "  journal: {} outcome{} replayed from a previous run",
                self.stats.journal_replayed,
                if self.stats.journal_replayed == 1 {
                    ""
                } else {
                    "s"
                },
            );
        }
        if self.stats.skipped > 0 {
            let _ = writeln!(
                out,
                "  skipped: {} scenario{} (graceful degradation; rerun to retry)",
                self.stats.skipped,
                if self.stats.skipped == 1 { "" } else { "s" },
            );
        }
        if self.stats.timed_out > 0 {
            let _ = writeln!(
                out,
                "  timed out: {} scenario{} hit the per-scenario deadline",
                self.stats.timed_out,
                if self.stats.timed_out == 1 { "" } else { "s" },
            );
        }
        if self.stats.evictions > 0 {
            let _ = writeln!(
                out,
                "  evictions: {} spot eviction{} survived via requeue/escalation",
                self.stats.evictions,
                if self.stats.evictions == 1 { "" } else { "s" },
            );
        }
        if self.stats.retried > 0 {
            let _ = writeln!(
                out,
                "  retries: {} scenario{} needed more than one attempt, {:.1}s simulated backoff",
                self.stats.retried,
                if self.stats.retried == 1 { "" } else { "s" },
                self.stats.backoff_secs,
            );
        }
        if self.stats.failovers > 0 {
            let _ = writeln!(
                out,
                "  failovers: {} region failover{} rerouted scenarios to healthy regions",
                self.stats.failovers,
                if self.stats.failovers == 1 { "" } else { "s" },
            );
        }
        if let Some(trace) = &self.trace {
            let _ = writeln!(out, "  trace: {} events captured", trace.len());
        }
        for b in &self.billing {
            let _ = writeln!(
                out,
                "  pool {}: peak {} nodes, {} spans, {:.3} node-h, ${:.2}",
                b.sku, b.peak_nodes, b.spans, b.node_hours, b.cost
            );
        }
        for o in &self.outcomes {
            let Some(reason) = &o.fail_reason else {
                continue;
            };
            let verb = match o.status {
                ScenarioStatus::Skipped => "skipped",
                ScenarioStatus::TimedOut => "timed out",
                _ => "failed",
            };
            let _ = writeln!(
                out,
                "  {verb} scenario {} ({} x {}): {}",
                o.scenario_id, o.sku, o.nnodes, reason
            );
        }
        out
    }
}

/// One chunk's hand-back: its output, the filesystem clone it worked on,
/// and its trace events (empty when the run is untraced).
type ShardResult = Result<(ShardOutput, Vfs, Vec<TraceEvent>), ToolError>;

/// Builds the sink for one shard (or the coordinator): enabled when the
/// run records a trace or streams live progress, with the tap attached so
/// subscribers see events as they are emitted.
fn shard_sink(shard: i64, on: bool, tap: &Option<Arc<dyn EventTap>>) -> EventSink {
    if !on {
        return EventSink::disabled();
    }
    let sink = EventSink::for_shard(shard);
    match tap {
        Some(tap) => sink.with_tap(tap.clone()),
        None => sink,
    }
}

/// Scenarios per work-stealing chunk. Small enough that a hot SKU's group
/// splits across workers, large enough that pool setup amortizes; on the
/// bundled example grids (≤ a dozen scenarios per SKU) every group fits in
/// one chunk.
pub const CHUNK_SIZE: usize = 32;

/// One work-stealing unit: a consecutive, id-ordered run of scenarios from
/// a single SKU group, plus the group index (steal accounting).
struct Chunk<'a> {
    scenarios: Vec<&'a Scenario>,
    group: usize,
}

/// Splits ordered scenarios into per-SKU groups, in first-appearance order
/// of the SKU, then each group into consecutive chunks of at most
/// [`CHUNK_SIZE`] scenarios. Boundaries depend only on the input —
/// never on the worker count.
fn split_chunks(ordered: Vec<&Scenario>) -> Vec<Chunk<'_>> {
    let mut groups: Vec<Vec<&Scenario>> = Vec::new();
    for scenario in ordered {
        match groups.iter_mut().find(|g| g[0].sku == scenario.sku) {
            Some(group) => group.push(scenario),
            None => groups.push(vec![scenario]),
        }
    }
    // One pass over each group: every scenario is moved once.
    let mut chunks = Vec::new();
    for (group, scenarios) in groups.into_iter().enumerate() {
        let mut rest = scenarios.into_iter().peekable();
        while rest.peek().is_some() {
            chunks.push(Chunk {
                scenarios: rest.by_ref().take(CHUNK_SIZE).collect(),
                group,
            });
        }
    }
    chunks
}

/// The shared chunk queue workers drain: a deterministic scan order (always
/// the lowest-index untaken chunk) plus a quota admission gate. Before a
/// chunk starts, its worst-case `(family, region)` core usage is reserved
/// against the region quota limits; a chunk that does not fit waits until a
/// running chunk releases its reservation. Serial runs see each chunk's
/// pool torn down (quota released) before the next starts, so the gate is
/// what keeps concurrent chunks of one family from tripping quota denials
/// a serial run would never see — and with it, keeps results byte-identical
/// across worker counts.
///
/// Known limitation: region-failover targets are not reserved — a scenario
/// rerouted mid-run draws on the target region's quota best-effort, which
/// only matters when concurrent failovers alone exceed a region's limit.
struct ChunkQueue {
    // std primitives (not the workspace's parking_lot) because the gate
    // needs a condition variable; poisoning is recovered, never propagated.
    state: std::sync::Mutex<QueueState>,
    ready: std::sync::Condvar,
    /// Per chunk: `(quota key id, cores)` reservations, each clamped to the
    /// key's limit so a lone over-sized chunk still admits on an idle gate.
    reservations: Vec<Vec<(usize, u32)>>,
    /// Per quota key id: the region's core limit for the family.
    limits: Vec<u32>,
    /// Per chunk: its SKU group index.
    groups: Vec<usize>,
}

struct QueueState {
    taken: Vec<bool>,
    /// Cores currently reserved per quota key id.
    used: Vec<u32>,
    /// Worker that took each group's first chunk; later chunks taken by a
    /// different worker count as steals.
    group_owner: Vec<Option<usize>>,
    remaining: usize,
}

impl ChunkQueue {
    /// Builds the queue, sizing each chunk's reservation from the SKU
    /// catalog (family, cores) and each scenario's pinned or home region.
    fn new(ctx: &ExecContext, chunks: &[Chunk]) -> ChunkQueue {
        let provider = ctx.provider.lock();
        let home = provider.region().name.clone();
        // Quota keys `(family, region)`, indexed by key id; a run has few.
        let mut keys: Vec<(&str, &str)> = Vec::new();
        let mut limits: Vec<u32> = Vec::new();
        let mut reservations = Vec::with_capacity(chunks.len());
        let mut groups = Vec::with_capacity(chunks.len());
        let mut ngroups = 0usize;
        for chunk in chunks {
            let mut need: BTreeMap<usize, u32> = BTreeMap::new();
            for s in &chunk.scenarios {
                // Unknown SKUs fail at runtime anyway; no reservation.
                let Some(sku) = provider.catalog().get(&s.sku) else {
                    continue;
                };
                let region = s.region.as_deref().unwrap_or(&home);
                let key = (sku.family.as_str(), region);
                let id = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                    keys.push(key);
                    limits.push(provider.quota_limit(region, &sku.family));
                    limits.len() - 1
                });
                let cores = sku.cores.saturating_mul(s.nnodes);
                let entry = need.entry(id).or_insert(0);
                *entry = (*entry).max(cores);
            }
            reservations.push(
                need.into_iter()
                    .map(|(id, cores)| (id, cores.min(limits[id])))
                    .collect(),
            );
            groups.push(chunk.group);
            ngroups = ngroups.max(chunk.group + 1);
        }
        ChunkQueue {
            state: std::sync::Mutex::new(QueueState {
                taken: vec![false; chunks.len()],
                used: vec![0; limits.len()],
                group_owner: vec![None; ngroups],
                remaining: chunks.len(),
            }),
            ready: std::sync::Condvar::new(),
            reservations,
            limits,
            groups,
        }
    }

    fn fits(&self, state: &QueueState, chunk: usize) -> bool {
        self.reservations[chunk]
            .iter()
            .all(|&(id, cores)| state.used[id].saturating_add(cores) <= self.limits[id])
    }

    /// Takes the lowest-index untaken chunk whose reservation fits,
    /// blocking while nothing fits but chunks remain. Returns the chunk
    /// index and whether taking it counts as a steal; `None` once every
    /// chunk has been claimed.
    fn acquire(&self, worker: usize) -> Option<(usize, bool)> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if state.remaining == 0 {
                return None;
            }
            let next = (0..self.groups.len()).find(|&i| !state.taken[i] && self.fits(&state, i));
            match next {
                Some(i) => {
                    state.taken[i] = true;
                    state.remaining -= 1;
                    for &(id, cores) in &self.reservations[i] {
                        state.used[id] += cores;
                    }
                    let group = self.groups[i];
                    let stolen = match state.group_owner[group] {
                        None => {
                            state.group_owner[group] = Some(worker);
                            false
                        }
                        Some(owner) => owner != worker,
                    };
                    return Some((i, stolen));
                }
                None => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }

    /// Releases a finished chunk's reservation and wakes waiting workers.
    fn release(&self, chunk: usize) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for &(id, cores) in &self.reservations[chunk] {
            state.used[id] = state.used[id].saturating_sub(cores);
        }
        drop(state);
        self.ready.notify_all();
    }
}

/// One scenario answered from the run journal instead of executing.
struct Replay<'a> {
    scenario: &'a Scenario,
    entry: JournalEntry,
}

/// How one collect's run list splits before anything executes.
#[derive(Default)]
struct Consult<'a> {
    /// Scenarios the run journal answers, with the entries they replay.
    replays: Vec<Replay<'a>>,
    /// Scenarios the cache answers; their rehydrated points are in
    /// `points` at the same index, and so are their fingerprints in
    /// `hit_fingerprints` when a journal is there to record them.
    hits: Vec<&'a Scenario>,
    points: Vec<DataPoint>,
    hit_fingerprints: Vec<Fingerprint>,
    /// Scenarios left to the chunks, in run-list order.
    misses: Vec<&'a Scenario>,
    /// Runnable misses the cache was asked about (0 when it was not read).
    cache_misses: usize,
    /// Scenario id → fingerprint of every replay and runnable miss: the
    /// journal writer keys executed outcomes by it, and the cache stores
    /// executed and replayed points under it, so a resumed run heals a
    /// store the interrupted run never got to save. Cache hits are not in
    /// it: they are neither executed nor stored again.
    fingerprints: HashMap<u32, Fingerprint>,
}

/// Sorts an ordered run list of distinct ids into journal replays, cache
/// hits and misses, fingerprinting each runnable scenario once. `cache` is
/// `None` when the collect's policy does not read it; with neither a
/// journal nor a cache to ask, nothing is fingerprinted.
///
/// Scenarios the plan would not run pass through as misses, so the shard
/// loop applies exactly the cold-path skip logic. Completed journal entries
/// always replay. Failed, timed-out and budget-skipped entries were all
/// deliberate terminal decisions, so they replay unless the run reruns
/// failures. Quota skips are never journaled, so they (and anything the
/// journal has not seen) go on to the cache.
fn consult<'a>(
    ctx: &ExecContext,
    journal: Option<&RunJournal>,
    cache: Option<&ScenarioCache>,
    ordered: Vec<&'a Scenario>,
) -> Consult<'a> {
    if journal.is_none() && cache.is_none() {
        return Consult {
            misses: ordered,
            ..Consult::default()
        };
    }
    let revision = ctx.provider.lock().catalog().revision();
    let fpr = Fingerprinter::new(&ctx.config.appname, &ctx.script, ctx.seed, revision)
        .with_capacity(ctx.plan.capacity);
    let mut out = Consult::default();
    if cache.is_some() {
        // Room for every scenario to hit: a cold run never writes to this
        // reservation, and a warm one never regrows the vector.
        out.points.reserve(ordered.len());
    }
    for s in ordered {
        if !ctx.plan.should_run(s) {
            out.misses.push(s);
            continue;
        }
        let fp = fpr.scenario(s);
        let replay = journal
            .and_then(|j| j.lookup(fp))
            .filter(|e| match e.status {
                ScenarioStatus::Completed => true,
                ScenarioStatus::Failed | ScenarioStatus::TimedOut | ScenarioStatus::Skipped => {
                    !ctx.plan.rerun_failed
                }
                ScenarioStatus::Pending => false,
            });
        if let Some(entry) = replay {
            out.fingerprints.insert(s.id, fp);
            out.replays.push(Replay {
                scenario: s,
                entry: entry.clone(),
            });
            continue;
        }
        if let Some(cache) = cache {
            if let Some(point) = cache.lookup(fp) {
                if journal.is_some() {
                    out.hit_fingerprints.push(fp);
                }
                out.hits.push(s);
                out.points
                    .push(rehydrate_point(point, s, &ctx.config.tags, &ctx.deployment));
                continue;
            }
            out.cache_misses += 1;
        }
        out.fingerprints.insert(s.id, fp);
        out.misses.push(s);
    }
    out
}

impl Session {
    /// Runs a collection under `plan` (worker count, retry, capacity,
    /// deadline, budget, optional subset) and returns a [`CollectReport`]
    /// with the dataset, per-scenario outcomes, billing and stats.
    ///
    /// Journal replays and cache hits are settled first, on the calling
    /// thread. The rest is split into chunks; every chunk gets a fresh
    /// batch service and a clone of the shared filesystem. One worker
    /// drains the chunk queue on the calling thread, more drain it on
    /// scoped threads; either way the results are merged in scenario-id
    /// order and filesystem changes are merged back, in chunk order, at
    /// the end.
    ///
    /// A chunk-level error (systemic, not per-scenario) marks that chunk's
    /// scenarios failed instead of aborting sibling chunks.
    pub fn collect_with(&mut self, plan: &CollectPlan) -> Result<CollectReport, ToolError> {
        let started = std::time::Instant::now();
        let mut ctx = self.ctx.clone();
        ctx.plan = plan.clone();
        let billed_before = ctx.provider.lock().billing().total_cost();

        let index = index_by_id(&self.scenarios);
        let ordered: Vec<&Scenario> = match &plan.subset {
            Some(ids) => resolve_ids(&self.scenarios, &index, ids)?,
            None => self
                .scenarios
                .iter()
                .filter(|s| ctx.plan.should_run(s))
                .collect(),
        };
        let requested = ordered.len();
        // One pass over the run list: outcomes a previous interrupted run
        // journaled are replayed verbatim (the resume path), the cache
        // answers what it knows, and only the rest reaches a shard (or a
        // pool).
        let policy = self.cache_policy;
        let consult = {
            let journal = self.journal.as_ref().map(|j| j.lock());
            let cache = policy.reads().then(|| self.cache.lock());
            consult(&ctx, journal.as_deref(), cache.as_deref(), ordered)
        };
        let journal_replayed = consult.replays.len();
        let cache_hits = consult.hits.len();
        let cache_misses = consult.cache_misses;
        // Cache hits count as finished for resume purposes too.
        if let Some(j) = &self.journal {
            let mut j = j.lock();
            let hits = consult.hits.iter().zip(&consult.hit_fingerprints);
            for ((hit, &fingerprint), point) in hits.zip(&consult.points) {
                j.append(JournalEntry {
                    fingerprint,
                    scenario_id: hit.id,
                    status: ScenarioStatus::Completed,
                    attempts: 0,
                    backoff_secs: 0.0,
                    fail_reason: None,
                    point: Some(point.clone()),
                });
            }
        }
        let chunks = split_chunks(consult.misses);
        let shards = chunks.len();
        let workers = plan.workers.max(1).min(shards.max(1));

        // Coordinator trace framing: run_start, then the decisions made
        // before any shard executes (journal replays, cache hits, in
        // requested order), then — after the merge barrier below — the
        // shard streams in shard-index order and run_end. Nothing here may
        // depend on worker count or wall-clock.
        let tracing = plan.trace;
        let tap = self.progress.clone();
        // Sinks run whenever the trace is recorded OR a live tap wants the
        // stream; a tap alone never turns on provider-level span buffering
        // (that stays a trace-only cost), and tapped-but-untraced events
        // are discarded after the run, so report bytes are unaffected.
        let sink_on = tracing || tap.is_some();
        if tracing {
            // The shared provider buffers span events only while a traced
            // run is in flight; shard services drain it under the same lock
            // hold as the call that produced them.
            ctx.provider.lock().set_trace_enabled(true);
        }
        let mut coord = shard_sink(COORDINATOR_SHARD, sink_on, &tap);
        coord.emit("run_start", "run", |m| {
            m.insert("scenarios", Value::Int(requested as i64));
            m.insert("seed", Value::Int(ctx.seed as i64));
        });
        for replay in &consult.replays {
            emit_scenario(&mut coord, "journal_replay", replay.scenario, |m| {
                m.insert("status", Value::str(status_str(replay.entry.status)));
            });
        }
        for &hit in &consult.hits {
            emit_scenario(&mut coord, "cache_hit", hit, |m| {
                m.insert("sku", Value::str(hit.sku.clone()));
                m.insert("nnodes", Value::Int(i64::from(hit.nnodes)));
            });
        }

        let fingerprints = Arc::new(consult.fingerprints);
        let env = ChunkEnv {
            ctx: &ctx,
            chunks: &chunks,
            queue: ChunkQueue::new(&ctx, &chunks),
            initial_vfs: self.shared_vfs.lock().clone(),
            journal: self.journal.as_ref().map(|j| JournalWriter {
                journal: j.clone(),
                fingerprints: Arc::clone(&fingerprints),
            }),
            sink_on,
            tap,
        };
        let (results, worker_loads) = run_chunks(&env, workers);
        if tracing {
            ctx.provider.lock().set_trace_enabled(false);
        }

        let mut trace_events: Vec<TraceEvent> = coord.take();
        // Cache hits are already completed: their points lead, their
        // outcomes are settled here, and the id sort below orders both.
        let mut points = consult.points;
        points.reserve(requested - points.len());
        let mut outcomes: Vec<ScenarioOutcome> = Vec::with_capacity(requested);
        for &hit in &consult.hits {
            outcomes.push(ScenarioOutcome::cached(hit));
        }
        for (chunk_idx, result) in results.into_iter().enumerate() {
            match result {
                Ok((out, vfs, events)) => {
                    trace_events.extend(events);
                    self.shared_vfs.lock().merge_from(vfs);
                    outcomes.extend(out.outcomes);
                    points.extend(out.points);
                }
                Err(e) => {
                    // Systemic chunk failure: fail the chunk's runnable
                    // scenarios, leave sibling chunks untouched.
                    let reason = format!("shard error: {e}");
                    for scenario in chunks[chunk_idx]
                        .scenarios
                        .iter()
                        .filter(|s| ctx.plan.should_run(s))
                    {
                        points.push(ctx.settled_point(scenario, ScenarioStatus::Failed, &reason));
                        outcomes.push(ScenarioOutcome::chunk_failed(scenario, chunk_idx, &reason));
                    }
                }
            }
        }

        // Splice journal replays back in with their recorded outcome. The
        // stored point is rehydrated onto the current scenario identity,
        // exactly like a cache hit.
        for Replay { scenario, entry } in consult.replays {
            outcomes.push(ScenarioOutcome::replayed(scenario, &entry));
            points.push(match entry.point {
                Some(p) => rehydrate_point(p, scenario, &ctx.config.tags, &ctx.deployment),
                // Point-less entries (older journals) get a synthetic point
                // matching the journaled status.
                None => {
                    let reason = entry.fail_reason.as_deref().unwrap_or("journaled failure");
                    ctx.settled_point(scenario, entry.status, reason)
                }
            });
        }

        // Deterministic id order, independent of shard completion order.
        points.sort_by_key(|p| p.scenario_id);
        outcomes.sort_by_key(|o| o.scenario_id);
        for oc in &outcomes {
            self.scenarios[index[&oc.scenario_id]].status = oc.status;
        }
        if policy.writes() {
            store_new_points(&self.cache, &fingerprints, &points)?;
        }
        let outcomes_total = outcomes.len();
        let executed = outcomes_total - cache_hits - journal_replayed;
        let completed = outcomes
            .iter()
            .filter(|o| o.status == ScenarioStatus::Completed)
            .count();
        let failed = outcomes
            .iter()
            .filter(|o| o.status == ScenarioStatus::Failed)
            .count();
        let skipped = outcomes
            .iter()
            .filter(|o| o.status == ScenarioStatus::Skipped)
            .count();
        let timed_out = outcomes
            .iter()
            .filter(|o| o.status == ScenarioStatus::TimedOut)
            .count();
        let evictions = outcomes.iter().map(|o| o.evictions).sum();
        let failovers = outcomes.iter().map(|o| o.failovers).sum();
        let retried = outcomes.iter().filter(|o| o.attempts > 1).count();
        let backoff_secs = outcomes.iter().map(|o| o.backoff_secs).sum();
        let dataset = Dataset { points };
        let (billing, cloud_cost) = {
            let provider = ctx.provider.lock();
            let billed = provider.billing();
            (
                billed.summarize_by_sku(Some(&ctx.deployment)),
                billed.total_cost() - billed_before,
            )
        };
        // run_end carries only worker-count-invariant aggregates: the cost
        // figure sums the points' deterministic price × nodes × exec-time
        // values, never the jitter-affected billing spans.
        let total_cost: f64 = dataset.points.iter().map(|p| p.cost_dollars).sum();
        coord.emit("run_end", "run", |m| {
            m.insert("completed", Value::Int(completed as i64));
            m.insert("failed", Value::Int(failed as i64));
            m.insert("skipped", Value::Int(skipped as i64));
            m.insert("timed_out", Value::Int(timed_out as i64));
            m.insert("cache_hits", Value::Int(cache_hits as i64));
            m.insert("cache_misses", Value::Int(cache_misses as i64));
            m.insert("replayed", Value::Int(journal_replayed as i64));
            m.insert("cost", Value::Float(total_cost));
        });
        trace_events.extend(coord.take());
        let trace = tracing.then(|| Trace::new(trace_events));
        Ok(CollectReport {
            dataset,
            outcomes,
            billing,
            trace,
            stats: CollectStats {
                workers,
                shards,
                steals: worker_loads.iter().map(|w| w.steals).sum(),
                worker_loads,
                executed,
                completed,
                failed,
                skipped,
                timed_out,
                evictions,
                failovers,
                retried,
                backoff_secs,
                journal_replayed,
                cache_hits,
                cache_misses,
                wall_secs: started.elapsed().as_secs_f64(),
                cloud_cost,
            },
        })
    }
}

/// Everything the chunk workers of one run share.
struct ChunkEnv<'a> {
    ctx: &'a ExecContext,
    chunks: &'a [Chunk<'a>],
    queue: ChunkQueue,
    /// The shared filesystem as the run found it. Every chunk starts from
    /// a clone, so no chunk sees files an earlier one downloaded and each
    /// chunk's timeline is the same for any worker count.
    initial_vfs: Vfs,
    journal: Option<JournalWriter>,
    sink_on: bool,
    tap: Option<Arc<dyn EventTap>>,
}

/// Drains the chunk queue with `workers` workers — the calling thread alone
/// when `workers` is 1, scoped threads otherwise — and returns each chunk's
/// result in chunk order plus each worker's load.
fn run_chunks(env: &ChunkEnv, workers: usize) -> (Vec<ShardResult>, Vec<WorkerLoad>) {
    let slots: Vec<Mutex<Option<ShardResult>>> =
        env.chunks.iter().map(|_| Mutex::new(None)).collect();
    let loads = if workers <= 1 {
        vec![chunk_worker(env, 0, &slots)]
    } else {
        let slots = &slots;
        let scoped = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| scope.spawn(move |_| chunk_worker(env, worker, slots)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        scoped.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    };
    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every chunk slot is filled"))
        .collect();
    (results, loads)
}

/// One worker: takes chunks from the admission-gated [`ChunkQueue`] until
/// none are left, runs each on a fresh [`BatchService`] (same provider, so
/// billing and quota stay global) over its own clone of the filesystem,
/// and files the result in the chunk's slot.
fn chunk_worker(env: &ChunkEnv, worker: usize, slots: &[Mutex<Option<ShardResult>>]) -> WorkerLoad {
    let ctx = env.ctx;
    let mut load = WorkerLoad::default();
    while let Some((i, stolen)) = env.queue.acquire(worker) {
        let chunk_started = std::time::Instant::now();
        let mut service = BatchService::new(ctx.provider.clone(), &ctx.deployment);
        // Fault counters are qualified by chunk index, and sinks are keyed
        // by chunk index — not worker id — so the merged stream is
        // invariant to which worker ran what.
        service.set_fault_qualifier(Some(format!("c{i}")));
        if env.sink_on {
            service.set_trace(shard_sink(i as i64, env.sink_on, &env.tap));
        }
        let vfs = Arc::new(Mutex::new(env.initial_vfs.clone()));
        let result = ShardRun {
            ctx,
            chunk: i,
            service: &mut service,
            vfs: vfs.clone(),
            journal: env.journal.clone(),
        }
        .run(&env.chunks[i].scenarios);
        let events = service.take_trace();
        // All runner closures are gone once the chunk finishes, so the Arc
        // is unique and the filesystem moves out copy-free.
        let result = result.map(|out| {
            let vfs = Arc::try_unwrap(vfs)
                .map(Mutex::into_inner)
                .unwrap_or_else(|arc| arc.lock().clone());
            (out, vfs, events)
        });
        *slots[i].lock() = Some(result);
        env.queue.release(i);
        load.chunks += 1;
        load.scenarios += env.chunks[i].scenarios.len();
        load.busy_secs += chunk_started.elapsed().as_secs_f64();
        if stolen {
            load.steals += 1;
        }
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UserConfig;
    use crate::session::Session;

    #[test]
    fn default_plan_matches_legacy_collect() {
        let serial = {
            let mut s = Session::create(UserConfig::example_lammps_small(), 42).unwrap();
            s.collect().unwrap().to_json()
        };
        let mut s = Session::create(UserConfig::example_lammps_small(), 42).unwrap();
        let report = s.collect_with(&CollectPlan::new()).unwrap();
        assert_eq!(report.stats.workers, 1);
        assert_eq!(report.stats.executed, 3);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.into_dataset().to_json(), serial);
    }

    #[test]
    fn per_sku_sharding_groups_scenarios() {
        let mut s = Session::create(UserConfig::example_openfoam(), 42).unwrap();
        let chunks = split_chunks(s.scenarios().iter().collect());
        assert_eq!(chunks.len(), 3, "one chunk per SKU");
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.group, i);
            let shard = &chunk.scenarios;
            assert!(shard.windows(2).all(|w| w[0].sku == w[1].sku));
            assert!(shard.windows(2).all(|w| w[0].id < w[1].id), "order kept");
        }
        let report = s.collect_with(&CollectPlan::new().workers(2)).unwrap();
        assert_eq!(report.stats.shards, 3);
        assert_eq!(report.stats.workers, 2);
        // Outcomes cover the whole grid and carry shard attribution.
        assert_eq!(report.outcomes.len(), 36);
        assert!(report.outcomes.iter().any(|o| o.shard == Some(2)));
        assert!(report.outcomes.iter().all(|o| !o.cached), "cold run");
        assert!(!report.billing.is_empty());
        assert!(report.render_text().contains("completed"));
    }

    const SKUS: [&str; 3] = ["A", "B", "C"];

    /// 70 scenarios per SKU of [`SKUS`], interleaved in id order.
    fn interleaved_grid() -> Vec<Scenario> {
        (0..210u32)
            .map(|i| Scenario {
                id: i + 1,
                sku: SKUS[i as usize % 3].to_string(),
                nnodes: 1,
                ppn: 1,
                appinputs: Vec::new(),
                region: None,
                status: ScenarioStatus::Pending,
            })
            .collect()
    }

    #[test]
    fn interleaved_groups_larger_than_a_chunk_split_in_id_order() {
        let grid = interleaved_grid();
        let chunks = split_chunks(grid.iter().collect());
        let sizes: Vec<(usize, usize)> = chunks
            .iter()
            .map(|c| (c.group, c.scenarios.len()))
            .collect();
        assert_eq!(
            sizes,
            [
                (0, 32),
                (0, 32),
                (0, 6),
                (1, 32),
                (1, 32),
                (1, 6),
                (2, 32),
                (2, 32),
                (2, 6)
            ]
        );
        for (group, sku) in SKUS.iter().enumerate() {
            let ids: Vec<u32> = chunks
                .iter()
                .filter(|c| c.group == group)
                .flat_map(|c| c.scenarios.iter())
                .inspect(|s| assert_eq!(s.sku, *sku))
                .map(|s| s.id)
                .collect();
            let expected: Vec<u32> = (0..70).map(|k| 3 * k + group as u32 + 1).collect();
            assert_eq!(ids, expected, "group {group} keeps id order");
        }
    }

    #[test]
    fn chunks_do_not_keep_their_groups_capacity() {
        // Every chunk stays queued until a worker takes it, so capacity a
        // chunk kept from its group would be held for the whole collect.
        let grid = interleaved_grid();
        for chunk in split_chunks(grid.iter().collect()) {
            assert!(chunk.scenarios.capacity() <= CHUNK_SIZE);
        }
    }

    #[test]
    fn subset_plans_run_only_requested_ids() {
        let mut s = Session::create(UserConfig::example_lammps_small(), 42).unwrap();
        let first_id = s.scenarios()[0].id;
        let report = s
            .collect_with(&CollectPlan::new().subset(vec![first_id]))
            .unwrap();
        assert_eq!(report.stats.executed, 1);
        assert_eq!(report.outcomes[0].scenario_id, first_id);
    }
}
