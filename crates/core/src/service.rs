//! The advisor as a long-lived service: many tenants, one simulator fleet.
//!
//! The paper frames HPCAdvisor as a tool one user runs per cluster; this
//! module is the backend that serves the same advice as a daemon. An
//! [`AdvisorService`] owns a pool of worker threads draining a bounded
//! [`JobQueue`] of [`AdviceRequest`]s. Each job builds an isolated
//! [`Session`] via [`Session::builder`] (own provider, own deployment) so
//! tenants can never observe each other's cloud state — with one
//! deliberate exception: all sessions share the service's
//! [`SharedScenarioCache`], so two tenants asking about the same
//! app/SKU/grid pay for one simulation and the second request reports
//! all-hits.
//!
//! Admission control reuses the collection guardrails as per-tenant
//! quotas ([`TenantPolicy`]): a cap on jobs in flight, a cumulative
//! simulated-spend budget (only *newly provisioned* pools count — cache
//! hits are free, so dedup stretches budgets), and a grid-size ceiling.
//! Every rejection is a typed [`ServiceError`], never a panic, and every
//! variant maps onto a wire [`ErrorCode`] through the exhaustive
//! [`ServiceError::wire_code`] match — adding a variant without a code is
//! a compile error.
//!
//! ## Crash safety
//!
//! With [`ServiceConfig::state_dir`] set, the service is durable:
//!
//! * a [`ServiceJournal`] records
//!   every admission, every completion, and every dollar charged, with
//!   the same torn-tail-salvage discipline as the collection journal;
//! * every job runs with a per-job [`RunJournal`] under
//!   `<state_dir>/jobs/`, so a job killed mid-grid resumes from its last
//!   finished scenario instead of restarting;
//! * the shared scenario cache is persisted after every job, not only at
//!   graceful shutdown.
//!
//! A restarted service replays the journal: tenant spend is restored (no
//! budget resets, no double billing) and every admitted-but-unfinished
//! job is re-enqueued and re-served byte-identically — replayed scenarios
//! come from the run journal and the cache, so only the interrupted
//! remainder is simulated and only that remainder is billed.
//!
//! ## Idempotent resubmission
//!
//! Requests may carry a client-chosen `request_key`. Submitting a key that
//! is already in flight for the same tenant *attaches* to the running job
//! instead of admitting a duplicate — the reconnect path after a dropped
//! connection. Submitting a key whose job already finished simply runs
//! again; the shared cache makes the rerun an all-hits, zero-dollar
//! answer with byte-identical dataset bytes.
//!
//! Progress streams through the telemetry layer: each job attaches an
//! [`EventTap`] to its session and forwards the interesting trace events
//! (`run_start`, `scenario_start`, `scenario_end`, `cache_hit`,
//! `run_end`) to every subscriber of the job. The [`JobHandle`] returned
//! by [`AdvisorService::submit`] is one such subscription.
//!
//! Shutdown comes in two grades: [`AdvisorService::shutdown`] (graceful —
//! closes admission, drains every admitted job, joins the workers) and
//! [`AdvisorService::shutdown_now`] (forced — closes admission, fails
//! every job still queued, and abandons the workers mid-job; the journal
//! makes this safe, because the next start replays whatever was cut off).

use crate::cache::{CachePolicy, SharedScenarioCache};
use crate::collect::{CollectPlan, CollectStats};
use crate::config::UserConfig;
use crate::dataset::DataFilter;
use crate::journal::RunJournal;
use crate::service_state::{PendingJob, ServiceJournal, ServiceRecord};
use crate::session::Session;
use cloudsim::Fnv64;
use hpcadvisor_formats::wire::ErrorCode;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use telemetry::{EventTap, TraceEvent};

/// Per-tenant admission limits. The same guardrails collection runs use
/// (budgets, caps) applied at the service boundary.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Maximum jobs one tenant may have queued or running at once.
    pub max_inflight: usize,
    /// Cumulative simulated-spend budget per tenant, in dollars of *newly
    /// provisioned* pool time across all their jobs. Cache hits provision
    /// nothing and therefore cost nothing against this budget. `None`
    /// disables the check.
    pub budget_dollars: Option<f64>,
    /// Largest scenario grid a single request may expand to. `None`
    /// disables the check.
    pub max_scenarios: Option<usize>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            max_inflight: 4,
            budget_dollars: None,
            max_scenarios: None,
        }
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the job queue (jobs run concurrently).
    pub workers: usize,
    /// Bound of the job queue, across all tenants.
    pub queue_capacity: usize,
    /// Admission limits applied to every tenant.
    pub policy: TenantPolicy,
    /// The scenario cache all jobs share — the cross-tenant dedup point.
    pub cache: SharedScenarioCache,
    /// Default cache policy for requests that do not override it.
    pub cache_policy: CachePolicy,
    /// Directory for durable service state (the service journal and
    /// per-job run journals). `None` keeps all accounting in memory — a
    /// crash then forgets spend and drops in-flight jobs, exactly the PR 6
    /// behavior.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            policy: TenantPolicy::default(),
            cache: SharedScenarioCache::in_memory(),
            cache_policy: CachePolicy::default(),
            state_dir: None,
        }
    }
}

/// Why the service refused or failed a request. Every admission failure
/// is one of these — the daemon maps them to wire error frames through
/// [`ServiceError::wire_code`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The bounded job queue is full; retry later.
    QueueFull {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The tenant already has `max_inflight` jobs queued or running.
    OverQuota {
        /// Offending tenant.
        tenant: String,
        /// Jobs currently in flight for the tenant.
        inflight: usize,
        /// The policy cap.
        limit: usize,
    },
    /// The tenant's cumulative simulated spend reached its budget.
    BudgetExhausted {
        /// Offending tenant.
        tenant: String,
        /// Dollars spent so far.
        spent: f64,
        /// The policy budget.
        budget: f64,
    },
    /// The request's scenario grid exceeds the per-request ceiling.
    GridTooLarge {
        /// Offending tenant.
        tenant: String,
        /// Scenario count the request expands to.
        scenarios: usize,
        /// The policy ceiling.
        limit: usize,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The job was admitted but failed while running (bad config, ...).
    JobFailed(String),
}

impl ServiceError {
    /// The wire error code for this refusal. The match is exhaustive on
    /// purpose — a new `ServiceError` variant without a wire code must
    /// fail the build here, not surface as an untyped message at
    /// runtime.
    pub fn wire_code(&self) -> ErrorCode {
        match self {
            ServiceError::QueueFull { .. } => ErrorCode::QueueFull,
            ServiceError::OverQuota { .. } => ErrorCode::OverQuota,
            ServiceError::BudgetExhausted { .. } => ErrorCode::BudgetExhausted,
            ServiceError::GridTooLarge { .. } => ErrorCode::GridTooLarge,
            ServiceError::ShuttingDown => ErrorCode::ShuttingDown,
            ServiceError::JobFailed(_) => ErrorCode::JobFailed,
        }
    }

    /// Backoff hint for refusals that clear on their own as load drains.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServiceError::QueueFull { .. } => Some(250),
            ServiceError::OverQuota { .. } => Some(500),
            ServiceError::ShuttingDown => Some(1000),
            _ => None,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "job queue full ({capacity} jobs); retry later")
            }
            ServiceError::OverQuota {
                tenant,
                inflight,
                limit,
            } => write!(
                f,
                "tenant '{tenant}' over quota: {inflight} jobs in flight (limit {limit})"
            ),
            ServiceError::BudgetExhausted {
                tenant,
                spent,
                budget,
            } => write!(
                f,
                "tenant '{tenant}' budget exhausted: ${spent:.2} spent of ${budget:.2}"
            ),
            ServiceError::GridTooLarge {
                tenant,
                scenarios,
                limit,
            } => write!(
                f,
                "tenant '{tenant}' request expands to {scenarios} scenarios (limit {limit})"
            ),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::JobFailed(m) => write!(f, "job failed: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One advice request, as admitted into the queue.
#[derive(Debug, Clone)]
pub struct AdviceRequest {
    /// Tenant the request is accounted against.
    pub(crate) tenant: String,
    /// The configuration to collect and advise on (the same YAML the CLI
    /// takes).
    pub(crate) config: UserConfig,
    /// Experiment seed (fingerprints include it, so tenants only dedup
    /// against results collected under the same seed).
    pub seed: u64,
    /// Worker threads for the job's own collection (per-SKU shards).
    pub workers: usize,
    /// Overrides the service's default cache policy for this request.
    pub(crate) cache_policy: Option<CachePolicy>,
    /// Client-chosen idempotency key. Resubmitting a key already in
    /// flight for the same tenant attaches to the running job instead of
    /// admitting a duplicate; with a state directory, the key also names
    /// the job's durable run journal across daemon restarts. `None` lets
    /// the service assign a per-admission key.
    pub request_key: Option<String>,
}

impl AdviceRequest {
    /// A serial request under the service's default cache policy.
    pub fn new(tenant: impl Into<String>, config: UserConfig, seed: u64) -> Self {
        AdviceRequest {
            tenant: tenant.into(),
            config,
            seed,
            workers: 1,
            cache_policy: None,
            request_key: None,
        }
    }

    /// Sets the idempotency key.
    pub fn with_key(mut self, key: impl Into<String>) -> Self {
        self.request_key = Some(key.into());
        self
    }
}

/// What a finished job hands back.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Service-assigned job id.
    pub job_id: u64,
    /// Tenant the job ran for.
    pub tenant: String,
    /// The collected dataset, serialized exactly as `Dataset::to_json` —
    /// byte-identical to what a standalone CLI run of the same
    /// config/seed produces.
    pub dataset_json: String,
    /// Rendered Pareto-front advice over the full dataset.
    pub advice_text: String,
    /// Executor statistics (cache hit/miss counters included — this is
    /// where cross-tenant dedup becomes observable).
    pub stats: CollectStats,
    /// Simulated dollars of pool time this job newly provisioned (zero
    /// for an all-hits run); what the tenant's budget is charged.
    pub run_cost_dollars: f64,
}

/// One message on a job's event stream.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// A live trace event from the running collection (scenario
    /// starts/ends, cache hits, run framing).
    Progress(TraceEvent),
    /// The job finished; terminal.
    Finished(Box<JobOutcome>),
    /// The job failed after admission; terminal.
    Failed(String),
}

impl JobEvent {
    fn is_terminal(&self) -> bool {
        !matches!(self, JobEvent::Progress(_))
    }
}

/// The client's end of one admitted job: a stream of [`JobEvent`]s ending
/// in `Finished` or `Failed`.
#[derive(Debug)]
pub struct JobHandle {
    events: Receiver<JobEvent>,
}

impl JobHandle {
    /// The live event stream (progress, then one terminal event).
    pub fn events(&self) -> &Receiver<JobEvent> {
        &self.events
    }

    /// Blocks until the job's terminal event, discarding progress.
    pub fn wait(self) -> Result<JobOutcome, ServiceError> {
        for event in self.events.iter() {
            match event {
                JobEvent::Progress(_) => continue,
                JobEvent::Finished(outcome) => return Ok(*outcome),
                JobEvent::Failed(m) => return Err(ServiceError::JobFailed(m)),
            }
        }
        Err(ServiceError::JobFailed(
            "job channel closed without a terminal event".into(),
        ))
    }
}

/// A bounded multi-producer multi-consumer queue that can be closed.
///
/// Pushes fail fast with [`QueuePushError::Full`] at the bound (admission
/// control's backpressure) and [`QueuePushError::Closed`] after
/// [`JobQueue::close`]; pops block until an item or the drain completes.
#[derive(Debug)]
pub(crate) struct JobQueue<T> {
    tx: Mutex<Option<SyncSender<T>>>,
    rx: Mutex<Receiver<T>>,
    capacity: usize,
}

/// Why a [`JobQueue::push`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueuePushError {
    /// The queue is at capacity.
    Full,
    /// The queue was closed.
    Closed,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub(crate) fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        JobQueue {
            tx: Mutex::new(Some(tx)),
            rx: Mutex::new(rx),
            capacity,
        }
    }

    /// The queue bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues without blocking; fails fast when full or closed.
    pub(crate) fn push(&self, item: T) -> Result<(), QueuePushError> {
        let tx = self.tx.lock();
        let Some(tx) = tx.as_ref() else {
            return Err(QueuePushError::Closed);
        };
        match tx.try_send(item) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(QueuePushError::Full),
            Err(TrySendError::Disconnected(_)) => Err(QueuePushError::Closed),
        }
    }

    /// Dequeues, blocking until an item arrives; `None` once the queue is
    /// closed *and* drained — consumers see every admitted item.
    pub(crate) fn pop(&self) -> Option<T> {
        self.rx.lock().recv().ok()
    }

    /// Closes the queue: pushes fail from now on, pops drain what is left.
    pub(crate) fn close(&self) {
        self.tx.lock().take();
    }
}

/// The broadcast side of one job: late subscribers (idempotent
/// resubmissions after a dropped connection) attach mid-run and are
/// guaranteed the terminal event even if it was published before they
/// arrived.
#[derive(Debug)]
struct JobShared {
    tenant: String,
    state: Mutex<JobSubscribers>,
}

#[derive(Debug, Default)]
struct JobSubscribers {
    subscribers: Vec<Sender<JobEvent>>,
    terminal: Option<JobEvent>,
}

impl JobShared {
    fn new(tenant: &str) -> Arc<JobShared> {
        Arc::new(JobShared {
            tenant: tenant.to_string(),
            state: Mutex::new(JobSubscribers::default()),
        })
    }

    /// Fans an event out to every live subscriber, pruning hung-up ones.
    /// Terminal events are remembered for late attachers.
    fn publish(&self, event: JobEvent) {
        let mut state = self.state.lock();
        if event.is_terminal() {
            state.terminal = Some(event.clone());
        }
        state
            .subscribers
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// A new subscription: live events from now on, or the stored
    /// terminal event immediately if the job already ended.
    fn attach(&self) -> Receiver<JobEvent> {
        let (tx, rx) = channel();
        let mut state = self.state.lock();
        match &state.terminal {
            Some(terminal) => {
                let _ = tx.send(terminal.clone());
            }
            None => state.subscribers.push(tx),
        }
        rx
    }
}

/// An admitted job traveling through the queue.
struct Job {
    id: u64,
    key: String,
    request: AdviceRequest,
    shared: Arc<JobShared>,
}

/// Trace-event kinds forwarded to clients as progress. Everything else
/// (pool resizes, node boots, task spans) stays in the trace layer.
const STREAMED_KINDS: &[&str] = &[
    "run_start",
    "scenario_start",
    "scenario_end",
    "cache_hit",
    "journal_replay",
    "run_end",
];

/// The per-job tap: forwards the streamed subset of trace events to the
/// job's subscribers. Send failures mean every client hung up — the run
/// continues; its results still feed the shared cache.
struct ProgressForwarder {
    shared: Arc<JobShared>,
}

impl EventTap for ProgressForwarder {
    fn on_event(&self, event: &TraceEvent) {
        if STREAMED_KINDS.contains(&event.kind.as_str()) {
            self.shared.publish(JobEvent::Progress(event.clone()));
        }
    }
}

/// 64-bit FNV-1a over a request key — names the per-job journal file so
/// arbitrary client keys become safe, fixed-length filenames.
fn key_hash(key: &str) -> u64 {
    Fnv64::new().write(key.as_bytes()).finish()
}

/// Shared state between the submitting side and the workers.
struct ServiceInner {
    queue: JobQueue<Job>,
    policy: TenantPolicy,
    cache: SharedScenarioCache,
    cache_policy: CachePolicy,
    accepting: AtomicBool,
    /// Forced shutdown: workers fail queued jobs instead of running them.
    force: AtomicBool,
    next_id: AtomicU64,
    /// tenant → jobs queued or running.
    inflight: Mutex<HashMap<String, usize>>,
    /// tenant → cumulative newly-provisioned dollars.
    spent: Mutex<HashMap<String, f64>>,
    /// The durable admission/spend log (`None` without a state dir).
    journal: Option<Mutex<ServiceJournal>>,
    /// Directory of per-job run journals (`None` without a state dir).
    jobs_dir: Option<PathBuf>,
    /// request key → in-flight job, for attach-on-resubmit.
    running: Mutex<HashMap<String, Arc<JobShared>>>,
}

impl ServiceInner {
    fn release(&self, tenant: &str) {
        let mut inflight = self.inflight.lock();
        if let Some(n) = inflight.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inflight.remove(tenant);
            }
        }
    }

    fn journal_append(&self, record: ServiceRecord) {
        if let Some(journal) = &self.journal {
            journal.lock().append(record);
        }
    }

    /// The durable run-journal path for a job key.
    fn job_journal_path(&self, key: &str) -> Option<PathBuf> {
        self.jobs_dir
            .as_ref()
            .map(|dir| dir.join(format!("job-{:016x}.jsonl", key_hash(key))))
    }
}

/// The multi-tenant advisor daemon's engine (see the module docs).
pub struct AdvisorService {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Event streams of jobs replayed from the journal at startup.
    recovery: Mutex<Vec<Receiver<JobEvent>>>,
    recovered_jobs: usize,
}

impl AdvisorService {
    /// Starts the worker pool and returns the running service. With a
    /// state directory, first replays the service journal: tenant spend
    /// is restored and every admitted-but-unfinished job is re-enqueued
    /// (their event streams are drained by [`AdvisorService::await_recovery`]).
    pub fn start(config: ServiceConfig) -> AdvisorService {
        let (journal, jobs_dir, pending) = match &config.state_dir {
            Some(dir) => {
                let _ = std::fs::create_dir_all(dir.join("jobs"));
                let journal = ServiceJournal::open(dir.join("service-journal.jsonl"));
                let pending = journal.state().pending.clone();
                (Some(Mutex::new(journal)), Some(dir.join("jobs")), pending)
            }
            None => (None, None, Vec::new()),
        };
        let spent = journal
            .as_ref()
            .map(|j| j.lock().state().spent.clone())
            .unwrap_or_default();
        let inner = Arc::new(ServiceInner {
            // Recovered jobs must all fit in the queue regardless of the
            // configured bound.
            queue: JobQueue::bounded(config.queue_capacity.max(pending.len())),
            policy: config.policy,
            cache: config.cache,
            cache_policy: config.cache_policy,
            accepting: AtomicBool::new(true),
            force: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            inflight: Mutex::new(HashMap::new()),
            spent: Mutex::new(spent),
            journal,
            jobs_dir,
            running: Mutex::new(HashMap::new()),
        });

        // Re-admit interrupted jobs before the workers start, bypassing
        // admission checks (they were already admitted once).
        let mut recovery = Vec::new();
        let mut recovered_jobs = 0;
        for pending_job in pending {
            if let Some(rx) = enqueue_recovered(&inner, pending_job) {
                recovery.push(rx);
                recovered_jobs += 1;
            }
        }

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("advisor-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = inner.queue.pop() {
                            if inner.force.load(Ordering::SeqCst) {
                                abandon_job(&inner, job);
                            } else {
                                run_job(&inner, job);
                            }
                        }
                    })
                    .expect("spawn advisor worker")
            })
            .collect();
        AdvisorService {
            inner,
            workers: Mutex::new(workers),
            recovery: Mutex::new(recovery),
            recovered_jobs,
        }
    }

    /// The shared scenario cache (for status displays and persistence).
    pub fn cache(&self) -> SharedScenarioCache {
        self.inner.cache.clone()
    }

    /// Dollars of newly-provisioned simulated pool time charged to
    /// `tenant` so far — across restarts, when a state directory is set.
    pub fn tenant_spend(&self, tenant: &str) -> f64 {
        self.inner.spent.lock().get(tenant).copied().unwrap_or(0.0)
    }

    /// Number of interrupted jobs replayed from the journal at startup.
    pub fn recovered_jobs(&self) -> usize {
        self.recovered_jobs
    }

    /// Blocks until every job recovered at startup reaches its terminal
    /// event, returning how many finished successfully. Call once, before
    /// serving traffic, so resubmitted requests find the cache warm.
    pub fn await_recovery(&self) -> usize {
        let receivers = std::mem::take(&mut *self.recovery.lock());
        let mut finished = 0;
        for rx in receivers {
            for event in rx.iter() {
                match event {
                    JobEvent::Progress(_) => continue,
                    JobEvent::Finished(_) => {
                        finished += 1;
                        break;
                    }
                    JobEvent::Failed(_) => break,
                }
            }
        }
        finished
    }

    /// Admits a request, returning the job's event stream, or the typed
    /// reason it was refused. Admission checks run in order: shutdown,
    /// grid size, budget, in-flight quota, queue capacity. A request
    /// whose `request_key` is already in flight for the same tenant
    /// attaches to the running job instead (no new admission).
    pub fn submit(&self, request: AdviceRequest) -> Result<JobHandle, ServiceError> {
        let inner = &self.inner;
        if !inner.accepting.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        let tenant = request.tenant.clone();
        // Idempotent resubmission: same key, same tenant, still running →
        // attach to the in-flight job.
        if let Some(key) = &request.request_key {
            let running = inner.running.lock();
            if let Some(shared) = running.get(key) {
                if shared.tenant == tenant {
                    return Ok(JobHandle {
                        events: shared.attach(),
                    });
                }
            }
        }
        if let Some(limit) = inner.policy.max_scenarios {
            let scenarios = request.config.scenario_count();
            if scenarios > limit {
                return Err(ServiceError::GridTooLarge {
                    tenant,
                    scenarios,
                    limit,
                });
            }
        }
        if let Some(budget) = inner.policy.budget_dollars {
            let spent = inner.spent.lock().get(&tenant).copied().unwrap_or(0.0);
            if spent >= budget {
                return Err(ServiceError::BudgetExhausted {
                    tenant,
                    spent,
                    budget,
                });
            }
        }
        {
            // Reserve the in-flight slot under the lock so racing submits
            // from one tenant cannot both pass the check.
            let mut inflight = inner.inflight.lock();
            let n = inflight.entry(tenant.clone()).or_insert(0);
            if *n >= inner.policy.max_inflight {
                return Err(ServiceError::OverQuota {
                    tenant,
                    inflight: *n,
                    limit: inner.policy.max_inflight,
                });
            }
            *n += 1;
        }
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
        let key = request
            .request_key
            .clone()
            .unwrap_or_else(|| format!("auto-{id}"));
        let shared = JobShared::new(&tenant);
        let events = shared.attach();
        inner.running.lock().insert(key.clone(), shared.clone());
        inner.journal_append(ServiceRecord::Admitted(PendingJob {
            key: key.clone(),
            tenant: tenant.clone(),
            seed: request.seed,
            workers: request.workers,
            config_yaml: request.config.to_yaml(),
            regions: request.config.regions.clone(),
            cache_policy: request.cache_policy,
        }));
        let job = Job {
            id,
            key: key.clone(),
            request,
            shared,
        };
        match inner.queue.push(job) {
            Ok(()) => Ok(JobHandle { events }),
            Err(e) => {
                inner.running.lock().remove(&key);
                inner.journal_append(ServiceRecord::Done { key });
                inner.release(&tenant);
                Err(match e {
                    QueuePushError::Full => ServiceError::QueueFull {
                        capacity: inner.queue.capacity(),
                    },
                    QueuePushError::Closed => ServiceError::ShuttingDown,
                })
            }
        }
    }

    /// Stops accepting work, drains every job already admitted, and joins
    /// the workers. In-flight jobs run to completion — their clients get
    /// their terminal events.
    pub fn shutdown(self) {
        self.inner.accepting.store(false, Ordering::SeqCst);
        self.inner.queue.close();
        for worker in self.workers.lock().drain(..) {
            let _ = worker.join();
        }
    }

    /// Forced shutdown: stops accepting work, fails every job still
    /// queued with [`ServiceError::ShuttingDown`], and detaches the
    /// workers without waiting for jobs already running. Safe only
    /// because state is journaled — a subsequent [`AdvisorService::start`]
    /// on the same state directory replays whatever was cut off.
    pub fn shutdown_now(&self) {
        self.inner.accepting.store(false, Ordering::SeqCst);
        self.inner.force.store(true, Ordering::SeqCst);
        self.inner.queue.close();
        // Detach the workers: whatever job each is in the middle of keeps
        // running on its thread, but nobody waits for it — the journal
        // still holds its admission, so a restart re-serves it.
        self.workers.lock().drain(..).for_each(drop);
    }
}

impl Drop for AdvisorService {
    fn drop(&mut self) {
        // Dropping without shutdown() still drains gracefully.
        self.inner.accepting.store(false, Ordering::SeqCst);
        self.inner.queue.close();
        for worker in self.workers.lock().drain(..) {
            let _ = worker.join();
        }
    }
}

/// Re-enqueues one journal-recovered job, returning its event stream.
fn enqueue_recovered(inner: &Arc<ServiceInner>, pending: PendingJob) -> Option<Receiver<JobEvent>> {
    let config = match UserConfig::from_yaml(&pending.config_yaml) {
        Ok(c) => c,
        Err(_) => {
            // Unreplayable (journal from an incompatible version): close it
            // out rather than crash-loop on it at every restart.
            inner.journal_append(ServiceRecord::Done {
                key: pending.key.clone(),
            });
            return None;
        }
    };
    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    let request = AdviceRequest {
        tenant: pending.tenant.clone(),
        config,
        seed: pending.seed,
        workers: pending.workers,
        cache_policy: pending.cache_policy,
        request_key: Some(pending.key.clone()),
    };
    let shared = JobShared::new(&pending.tenant);
    let rx = shared.attach();
    *inner
        .inflight
        .lock()
        .entry(pending.tenant.clone())
        .or_insert(0) += 1;
    inner
        .running
        .lock()
        .insert(pending.key.clone(), shared.clone());
    let job = Job {
        id,
        key: pending.key,
        request,
        shared,
    };
    // Capacity was sized to hold every recovered job in start().
    inner.queue.push(job).ok().map(|()| rx)
}

/// Fails one queued job during forced shutdown.
fn abandon_job(inner: &ServiceInner, job: Job) {
    // Deliberately NOT journaled as done: the admission stays in the
    // journal so the next start replays the job.
    inner.running.lock().remove(&job.key);
    job.shared
        .publish(JobEvent::Failed(ServiceError::ShuttingDown.to_string()));
    inner.release(&job.shared.tenant);
}

/// Executes one admitted job on a worker thread: isolated session, shared
/// cache, durable run journal, live progress, terminal event, spend
/// journaling, quota release.
fn run_job(inner: &ServiceInner, job: Job) {
    let Job {
        id,
        key,
        request,
        shared,
    } = job;
    let tenant = request.tenant.clone();
    let result = execute_request(inner, id, &tenant, &key, request, shared.clone());
    match result {
        Ok(outcome) => {
            let run_cost_dollars = outcome.run_cost_dollars;
            *inner.spent.lock().entry(tenant.clone()).or_insert(0.0) += run_cost_dollars;
            // Spend before Done: a crash between the two replays the job,
            // which re-serves from cache at $0 — never double-billed.
            inner.journal_append(ServiceRecord::Spend {
                tenant: tenant.clone(),
                dollars: run_cost_dollars,
            });
            inner.journal_append(ServiceRecord::Done { key: key.clone() });
            if let Some(path) = inner.job_journal_path(&key) {
                let _ = std::fs::remove_file(path);
            }
            // Persist the shared cache incrementally (no-op when clean),
            // so even a kill -9 keeps every finished job's scenarios.
            if inner.jobs_dir.is_some() {
                let _ = inner.cache.save();
            }
            // Deregister BEFORE publishing the terminal event: a waiter
            // woken by it must observe the key as free, so an immediate
            // resubmission runs fresh (from cache) instead of attaching
            // to a job that already finished.
            inner.running.lock().remove(&key);
            shared.publish(JobEvent::Finished(Box::new(outcome)));
        }
        Err(e) => {
            // Failed jobs are closed out too: replaying a config that
            // deterministically fails would crash-loop every restart.
            inner.journal_append(ServiceRecord::Done { key: key.clone() });
            if let Some(path) = inner.job_journal_path(&key) {
                let _ = std::fs::remove_file(path);
            }
            inner.running.lock().remove(&key);
            shared.publish(JobEvent::Failed(e.to_string()));
        }
    }
    inner.release(&tenant);
}

fn execute_request(
    inner: &ServiceInner,
    job_id: u64,
    tenant: &str,
    key: &str,
    request: AdviceRequest,
    shared: Arc<JobShared>,
) -> Result<JobOutcome, crate::error::ToolError> {
    let policy = request.cache_policy.unwrap_or(inner.cache_policy);
    let mut builder = Session::builder(request.config)
        .seed(request.seed)
        .shared_cache(inner.cache.clone())
        .cache_policy(policy)
        .progress(Arc::new(ProgressForwarder { shared }));
    if let Some(path) = inner.job_journal_path(key) {
        // Durable per-job journal: a job interrupted mid-grid resumes
        // from its last finished scenario on the next start. Open (not
        // open_fresh) — replaying the surviving prefix IS the feature.
        builder = builder.journal(RunJournal::open(path));
    }
    let mut session = builder.build()?;
    let report = session.collect_with(&CollectPlan::new().workers(request.workers.max(1)))?;
    // Budget accounting: only pool time this job newly provisioned. An
    // all-hits run provisions nothing and charges nothing.
    let run_cost_dollars = session.total_cloud_cost();
    let advice = crate::advice::Advice::from_dataset(&report.dataset, &DataFilter::all());
    let outcome = JobOutcome {
        job_id,
        tenant: tenant.to_string(),
        dataset_json: report.dataset.to_json(),
        advice_text: advice.render_text(),
        stats: report.stats.clone(),
        run_cost_dollars,
    };
    let _ = session.shutdown();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_queue_bounds_closes_and_drains() {
        let q: JobQueue<u32> = JobQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(QueuePushError::Full));
        q.close();
        assert_eq!(q.push(4), Err(QueuePushError::Closed));
        // Closed queues still drain what was admitted.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn single_request_round_trip_with_progress() {
        let service = AdvisorService::start(ServiceConfig::default());
        let request = AdviceRequest::new("t1", UserConfig::example_lammps_small(), 42);
        let handle = service.submit(request).unwrap();
        let mut kinds = Vec::new();
        let mut outcome = None;
        for event in handle.events().iter() {
            match event {
                JobEvent::Progress(ev) => kinds.push(ev.kind.clone()),
                JobEvent::Finished(o) => {
                    outcome = Some(*o);
                    break;
                }
                JobEvent::Failed(m) => panic!("job failed: {m}"),
            }
        }
        let outcome = outcome.expect("finished");
        assert_eq!(outcome.stats.completed, 3);
        assert_eq!(outcome.stats.cache_misses, 3);
        assert!(outcome.run_cost_dollars > 0.0, "cold run provisions pools");
        assert!(outcome.advice_text.contains("Nodes"));
        assert_eq!(
            kinds.iter().filter(|k| *k == "scenario_start").count(),
            3,
            "progress streamed per scenario: {kinds:?}"
        );
        assert_eq!(kinds.iter().filter(|k| *k == "scenario_end").count(), 3);
        assert_eq!(kinds.first().map(String::as_str), Some("run_start"));
        assert_eq!(kinds.last().map(String::as_str), Some("run_end"));
        assert!(service.tenant_spend("t1") > 0.0);
        service.shutdown();
    }

    #[test]
    fn bad_config_fails_the_job_not_the_service() {
        let service = AdvisorService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut config = UserConfig::example_lammps_small();
        config.skus = vec!["No_Such_Sku".into()];
        let handle = service
            .submit(AdviceRequest::new("t1", config, 42))
            .unwrap();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, ServiceError::JobFailed(_)), "{err}");
        // The worker survives and serves the next job.
        let handle = service
            .submit(AdviceRequest::new(
                "t1",
                UserConfig::example_lammps_small(),
                42,
            ))
            .unwrap();
        assert_eq!(handle.wait().unwrap().stats.completed, 3);
        service.shutdown();
    }

    #[test]
    fn every_service_error_maps_to_a_wire_code() {
        // The match in wire_code() is the compile-time guard; this pins
        // the actual pairings so a refactor cannot silently swap codes.
        let cases: Vec<(ServiceError, ErrorCode)> = vec![
            (
                ServiceError::QueueFull { capacity: 1 },
                ErrorCode::QueueFull,
            ),
            (
                ServiceError::OverQuota {
                    tenant: "t".into(),
                    inflight: 1,
                    limit: 1,
                },
                ErrorCode::OverQuota,
            ),
            (
                ServiceError::BudgetExhausted {
                    tenant: "t".into(),
                    spent: 1.0,
                    budget: 1.0,
                },
                ErrorCode::BudgetExhausted,
            ),
            (
                ServiceError::GridTooLarge {
                    tenant: "t".into(),
                    scenarios: 2,
                    limit: 1,
                },
                ErrorCode::GridTooLarge,
            ),
            (ServiceError::ShuttingDown, ErrorCode::ShuttingDown),
            (ServiceError::JobFailed("x".into()), ErrorCode::JobFailed),
        ];
        for (error, code) in cases {
            assert_eq!(error.wire_code(), code, "{error}");
        }
        assert_eq!(
            ServiceError::QueueFull { capacity: 1 }.retry_after_ms(),
            Some(250)
        );
        assert_eq!(ServiceError::JobFailed("x".into()).retry_after_ms(), None);
    }

    #[test]
    fn attach_after_terminal_replays_the_outcome() {
        let shared = JobShared::new("t");
        shared.publish(JobEvent::Failed("boom".into()));
        let rx = shared.attach();
        match rx.recv().unwrap() {
            JobEvent::Failed(m) => assert_eq!(m, "boom"),
            other => panic!("expected the stored terminal event, got {other:?}"),
        }
    }
}
