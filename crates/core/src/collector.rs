//! The data-collection loop — the paper's Algorithm 1.
//!
//! ```text
//! previousVMType ← ∅
//! foreach task in tasks do
//!     if previousVMType ≠ task.vmtype then
//!         if pool exists then resize pool to zero or delete pool
//!         create_setup_task(task)
//!         pool ← resize_pool(task.vmtype, task.nnodes)
//!     create_compute_task(task); execute_compute_task(task)
//!     store_task_data(task); update_task_status(task, completed)
//!     previousVMType ← task.vmtype
//! if pool then resize pool to zero or delete pool
//! ```
//!
//! Each compute task runs the user's `hpcadvisor_run` function in a fresh
//! `taskshell` interpreter over the deployment's shared filesystem, with the
//! Table I environment variables injected. The script is parsed once per
//! session, and the filesystem is moved into the interpreter, not copied.
//! `HPCADVISORVAR key=value` lines printed by the script are scraped into
//! the dataset, exactly as the paper describes.
//!
//! The loop itself lives in `ShardRun`, which executes one ordered slice of
//! scenarios against one [`BatchService`]. Every collect splits the grid
//! into per-VM-type chunks, runs each chunk as one `ShardRun` on its own
//! service, and merges the outputs in scenario order
//! ([`crate::collect`]).

use crate::appscript;
use crate::cache::{Fingerprint, SharedScenarioCache};
use crate::collect::{CollectPlan, ScenarioOutcome};
use crate::config::UserConfig;
use crate::dataset::DataPoint;
use crate::error::ToolError;
use crate::journal::{JournalEntry, RunJournal};
use crate::pairs::Pairs;
use crate::placement::PlacementPolicy;
use crate::retry::{classify_batch, FaultClass};
use crate::scenario::{push_short_sku, Scenario, ScenarioStatus};
use appmodel::AppRegistry;
use batchsim::{
    BatchService, FaultKind, SharedProvider, TaskContext, TaskKind, TaskResult, TaskState,
};
use cloudsim::Capacity;
use parking_lot::Mutex;
use simtime::SimDuration;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::Arc;
use taskshell::{ExecutionEnv, Interpreter, NodeEnv, Script, ShellError, UrlStore, Vfs};
use telemetry::{EventSink, OrderedMap, Value};

/// Transient provisioning faults a `(SKU, region)` pair absorbs in a
/// multi-region sweep before the region is marked down for that SKU and
/// later scenarios fail over without touching the cloud. Quota exhaustion
/// marks down immediately.
const REGION_MARKDOWN_AFTER: u32 = 2;

/// Everything a scenario executor needs that is independent of which
/// [`BatchService`] and filesystem it runs against. Shared by reference
/// across parallel shard workers, so it holds no mutable state.
#[derive(Clone)]
pub(crate) struct ExecContext {
    pub(crate) provider: SharedProvider,
    pub(crate) config: UserConfig,
    /// The app script's text, as the scenario cache fingerprints it.
    pub(crate) script: String,
    /// The same script parsed once for every task this context runs. A
    /// syntax error fails each task, as it would if each task parsed it.
    program: Result<Script, ShellError>,
    pub(crate) urls: UrlStore,
    pub(crate) deployment: String,
    /// The configuration's tags, as every point of the session carries
    /// them.
    pub(crate) tags: Pairs,
    /// `/share/{deployment}/apps/{appname}`: where setup runs and task
    /// directories live.
    app_dir: String,
    pub(crate) registry: Arc<AppRegistry>,
    /// Seed for the deterministic run-to-run noise and the fingerprints.
    pub(crate) seed: u64,
    /// The running collect's plan: its retry, capacity, deadline, budget,
    /// rerun and teardown policy.
    pub(crate) plan: CollectPlan,
}

impl ExecContext {
    /// The context of collects on an existing deployment. Resolves the
    /// application script from `appsetupurl` (bundled scripts are
    /// registered automatically for known app names), then registers the
    /// custom `scripts` by URL: one under `appsetupurl` replaces the app
    /// script. The script is parsed once, for every task.
    pub(crate) fn new(
        provider: SharedProvider,
        deployment: &str,
        config: UserConfig,
        seed: u64,
        scripts: &[(String, String)],
    ) -> Result<Self, ToolError> {
        let mut urls = UrlStore::with_known_inputs();
        appscript::seed_urlstore(&mut urls, &config.appsetupurl, &config.appname);
        let mut script = appscript::fetch_script(&urls, &config.appsetupurl)?;
        for (url, content) in scripts {
            urls.put(url, content.as_str());
            if *url == config.appsetupurl {
                script = content.clone();
            }
        }
        let app_dir = format!("/share/{deployment}/apps/{}", config.appname);
        Ok(ExecContext {
            provider,
            tags: Pairs::from(config.tags.as_slice()),
            config,
            program: Script::parse(&script),
            script,
            urls,
            app_dir,
            deployment: deployment.to_string(),
            registry: Arc::new(AppRegistry::standard()),
            seed,
            plan: CollectPlan::default(),
        })
    }

    /// A zero-cost point for a scenario that settled without a result:
    /// failed, timed out (killed by the deadline watchdog) or skipped (not
    /// executed, e.g. quota or budget degradation). The reason lands under
    /// the status's metric key. Any other status settles as `Failed`: a
    /// point without a result cannot claim to be completed or pending.
    pub(crate) fn settled_point(
        &self,
        scenario: &Scenario,
        status: ScenarioStatus,
        reason: &str,
    ) -> DataPoint {
        let (status, key) = match status {
            ScenarioStatus::Skipped => (status, "SKIPREASON"),
            ScenarioStatus::TimedOut => (status, "TIMEOUTREASON"),
            _ => (ScenarioStatus::Failed, "FAILREASON"),
        };
        DataPoint {
            scenario_id: scenario.id,
            appname: self.config.appname.clone(),
            sku: scenario.sku.clone(),
            nnodes: scenario.nnodes,
            ppn: scenario.ppn,
            appinputs: Pairs::from(scenario.appinputs.as_slice()),
            exec_time_secs: 0.0,
            task_secs: 0.0,
            cost_dollars: 0.0,
            status,
            capacity: self.plan.capacity,
            region: scenario.region.clone(),
            metrics: Pairs::from([(key, reason)]),
            infra: Pairs::new(),
            tags: self.tags.clone(),
            deployment: self.deployment.clone(),
        }
    }

    /// The environment of every task on a pool of `sku`, resolved once
    /// per pool.
    fn node_env(&self, sku: &cloudsim::VmSku) -> NodeEnv {
        NodeEnv::from(ExecutionEnv {
            sku: sku.clone(),
            registry: Arc::clone(&self.registry),
            experiment_seed: self.seed,
        })
    }

    /// Builds the task runner closure for the batch service, bound to the
    /// given shared filesystem (the deployment's, or a shard's clone).
    /// Everything it captures is shared, not copied: the parsed script, the
    /// URL store and the pool's node environment are reference-counted.
    fn make_runner(
        &self,
        vfs: &Arc<Mutex<Vfs>>,
        node: &NodeEnv,
        spec: RunnerSpec,
    ) -> impl FnOnce(&TaskContext) -> TaskResult {
        let shared_vfs = Arc::clone(vfs);
        let urls = self.urls.clone();
        let node = node.clone();
        let program = self.program.clone();
        move |ctx: &TaskContext| run_script_task(ctx, spec, &shared_vfs, urls, node, &program)
    }
}

/// Per-scenario retry bookkeeping: how many attempts were spent (across
/// pool resizes, setup and compute submissions), how much simulated
/// backoff the scenario waited through, and how many spot evictions it
/// survived.
#[derive(Debug, Clone, Copy)]
struct Tally {
    attempts: u32,
    backoff_secs: f64,
    evictions: u32,
    failovers: u32,
}

impl Tally {
    fn fresh() -> Self {
        Tally {
            attempts: 1,
            backoff_secs: 0.0,
            evictions: 0,
            failovers: 0,
        }
    }

    /// The outcome of `scenario` as chunk `chunk` settled it.
    fn outcome(
        self,
        scenario: &Scenario,
        chunk: usize,
        status: ScenarioStatus,
        fail_reason: Option<String>,
    ) -> ScenarioOutcome {
        ScenarioOutcome {
            shard: Some(chunk),
            attempts: self.attempts,
            backoff_secs: self.backoff_secs,
            evictions: self.evictions,
            failovers: self.failovers,
            ..ScenarioOutcome::settled(scenario, status, fail_reason)
        }
    }
}

/// Live journal hook handed into shard runs: appends each terminal outcome
/// (with its data point) the moment the scenario finishes, so a killed run
/// leaves a replayable prefix. Cloneable across shard workers; appends
/// serialize on the journal mutex.
#[derive(Clone)]
pub(crate) struct JournalWriter {
    pub(crate) journal: Arc<Mutex<RunJournal>>,
    /// Scenario id → content fingerprint, precomputed on the coordinator.
    pub(crate) fingerprints: Arc<HashMap<u32, Fingerprint>>,
}

impl JournalWriter {
    pub(crate) fn record(&self, outcome: &ScenarioOutcome, point: &DataPoint) {
        let Some(&fingerprint) = self.fingerprints.get(&outcome.scenario_id) else {
            return;
        };
        self.journal.lock().append(JournalEntry {
            fingerprint,
            scenario_id: outcome.scenario_id,
            status: outcome.status,
            attempts: outcome.attempts,
            backoff_secs: outcome.backoff_secs,
            fail_reason: outcome.fail_reason.clone(),
            point: Some(point.clone()),
        });
    }
}

/// Everything one shard produced: data points and per-scenario outcomes, in
/// execution order.
#[derive(Debug, Default)]
pub(crate) struct ShardOutput {
    pub(crate) points: Vec<DataPoint>,
    pub(crate) outcomes: Vec<ScenarioOutcome>,
}

/// The pool a shard currently holds. Algorithm 1 reuses one pool per VM
/// type; the placement dimension extends the reuse key with the region the
/// pool's nodes actually live in, so a failed-over scenario and its
/// same-placement successors share a pool.
struct PoolCtx {
    sku: String,
    /// Placement region; `None` is the deployment's home region.
    region: Option<String>,
    name: String,
    /// Environment of every task on the pool.
    node: NodeEnv,
    /// Hourly price of one node, dedicated and spot, at the pool's region's
    /// multiplier: an attempt bills the one its capacity class names.
    price: Prices,
    /// Whether the app's setup task succeeded on this pool.
    setup_ok: bool,
}

/// A pool's hourly node prices per capacity class.
#[derive(Debug, Clone, Copy)]
struct Prices {
    dedicated: f64,
    spot: f64,
}

impl Prices {
    /// The prices of a pool of `sku` (catalog entry `vm`) in `region`, or
    /// in the provider's home region. Placed scenarios bill at the placed
    /// region's multiplier: a failover's cost delta is real and lands in
    /// the dataset.
    fn resolve(
        provider: &SharedProvider,
        sku: &str,
        vm: &cloudsim::VmSku,
        region: Option<&str>,
    ) -> Result<Self, ToolError> {
        let provider = provider.lock();
        let dedicated = match region {
            Some(r) => provider.price_per_hour_in(sku, r)?,
            None => provider.price_per_hour(sku)?,
        };
        Ok(Prices {
            dedicated,
            spot: dedicated * (1.0 - vm.spot_discount),
        })
    }

    fn of(self, capacity: Capacity) -> f64 {
        match capacity {
            Capacity::Dedicated => self.dedicated,
            Capacity::Spot => self.spot,
        }
    }
}

/// The placement candidates of a scenario without a requested region: the
/// deployment's home region alone.
const HOME_REGION: &[Option<String>] = &[None];

/// Pool name for a `(SKU, region)` pair. Home-region pools keep the
/// pre-placement name so existing trace scopes and backoff jitter streams
/// stay byte-identical.
fn pool_name_for(sku: &str, region: Option<&str>) -> String {
    let mut name = String::from("pool-");
    push_short_sku(&mut name, sku);
    if let Some(r) = region {
        name.push('-');
        name.push_str(&r.to_ascii_lowercase());
    }
    name
}

/// Emits one scenario's trace event under its `s<id>` scope. The scope is
/// built only when the sink is recording, so an untraced run allocates
/// nothing per scenario here.
pub(crate) fn emit_scenario(
    sink: &mut EventSink,
    kind: &str,
    scenario: &Scenario,
    fill: impl FnOnce(&mut OrderedMap),
) {
    if sink.is_enabled() {
        sink.emit(kind, &format!("s{}", scenario.id), fill);
    }
}

/// The trace vocabulary's status strings.
pub(crate) fn status_str(status: ScenarioStatus) -> &'static str {
    match status {
        ScenarioStatus::Pending => "pending",
        ScenarioStatus::Completed => "completed",
        ScenarioStatus::Failed => "failed",
        ScenarioStatus::Skipped => "skipped",
        ScenarioStatus::TimedOut => "timed_out",
    }
}

/// Executes an ordered slice of scenarios against one batch service —
/// Algorithm 1 over one chunk. Every collect runs one `ShardRun` per chunk,
/// a consecutive run of one VM type's scenarios.
pub(crate) struct ShardRun<'a> {
    pub(crate) ctx: &'a ExecContext,
    /// Index of the chunk this run executes, recorded on its outcomes.
    pub(crate) chunk: usize,
    pub(crate) service: &'a mut BatchService,
    pub(crate) vfs: Arc<Mutex<Vfs>>,
    /// When set, every terminal outcome is appended to the run journal as
    /// the scenario finishes (crash-safe resume).
    pub(crate) journal: Option<JournalWriter>,
}

impl ShardRun<'_> {
    pub(crate) fn run(&mut self, scenarios: &[&Scenario]) -> Result<ShardOutput, ToolError> {
        let mut out = ShardOutput::default();
        // SKUs whose family quota ran out mid-run: their remaining
        // scenarios are skipped, not failed, and the sweep keeps going.
        let mut exhausted_skus: HashSet<String> = HashSet::new();
        // Region failover state, keyed per (SKU, region) so serial and
        // per-SKU-sharded runs make identical placement decisions.
        let mut placement = PlacementPolicy::new(&self.ctx.config.regions, REGION_MARKDOWN_AFTER);
        let mut current: Option<PoolCtx> = None;

        for &scenario in scenarios {
            if !self.ctx.plan.should_run(scenario) {
                continue;
            }
            let mut tally = Tally::fresh();
            emit_scenario(self.service.trace_mut(), "scenario_start", scenario, |m| {
                m.insert("sku", Value::str(scenario.sku.clone()));
                m.insert("nnodes", Value::Int(i64::from(scenario.nnodes)));
            });
            // Budget circuit breaker: once billed spend reaches the budget,
            // every remaining scenario degrades to a journaled skip — the
            // sweep stops spending but still produces a complete, resumable
            // picture of what was dropped and why.
            if let Some(budget) = self.ctx.plan.budget_dollars {
                let spent = self.ctx.provider.lock().billing().total_cost();
                if spent >= budget {
                    tally.attempts = 0;
                    self.settle(
                        &mut out,
                        scenario,
                        ScenarioStatus::Skipped,
                        &format!("budget exceeded: ${spent:.2} spent of ${budget:.2} budget"),
                        tally,
                        true,
                    );
                    continue;
                }
            }
            if exhausted_skus.contains(&scenario.sku) {
                tally.attempts = 0;
                self.settle(
                    &mut out,
                    scenario,
                    ScenarioStatus::Skipped,
                    "SKU quota exhausted earlier in this run",
                    tally,
                    false,
                );
                continue;
            }

            // Candidate placements in failover order. Home-region scenarios
            // (no placement dimension) keep the legacy single-candidate
            // path; placed ones start at their grid region and fall through
            // the remaining configured regions.
            let placed: Vec<Option<String>>;
            let placements = match &scenario.region {
                None => HOME_REGION,
                Some(requested) => {
                    let family = self
                        .ctx
                        .provider
                        .lock()
                        .catalog()
                        .get(&scenario.sku)
                        .map(|s| s.family.clone())
                        .unwrap_or_default();
                    placed = placement
                        .candidates(&scenario.sku, &family, requested)
                        .into_iter()
                        .map(Some)
                        .collect();
                    &placed
                }
            };
            if placements.is_empty() {
                tally.attempts = 0;
                self.settle(
                    &mut out,
                    scenario,
                    ScenarioStatus::Skipped,
                    &format!(
                        "no region satisfies placement SLA: every candidate region for {} \
                         is marked down",
                        scenario.sku
                    ),
                    tally,
                    true,
                );
                continue;
            }

            let mut handled = false;
            let mut tried: Vec<String> = Vec::new();
            let mut last_fault = String::new();
            for region in placements {
                let attempt_region = region.as_deref();
                match self.ensure_pool(scenario, attempt_region, &mut current, &mut tally)? {
                    Ok(()) => {
                        let pool = current.as_ref().expect("ensure_pool sets the pool context");
                        if !pool.setup_ok {
                            self.settle(
                                &mut out,
                                scenario,
                                ScenarioStatus::Failed,
                                "application setup failed on this pool",
                                tally,
                                true,
                            );
                            handled = true;
                            break;
                        }
                        // Compute task.
                        let point =
                            self.run_compute_task(pool, scenario, attempt_region, &mut tally)?;
                        // Escalation is scoped to the scenario: hand the pool
                        // back to the run's configured capacity class before
                        // the next scenario reuses it.
                        self.apply_capacity(&pool.name)?;
                        self.trace_scenario_end(scenario, point.status, tally, point.cost_dollars);
                        let fail_reason = match point.status {
                            ScenarioStatus::Failed => Some(
                                point
                                    .metric("FAILREASON")
                                    .map(str::to_string)
                                    .unwrap_or_else(|| "compute task failed".into()),
                            ),
                            ScenarioStatus::TimedOut => Some(
                                point
                                    .metric("TIMEOUTREASON")
                                    .map(str::to_string)
                                    .unwrap_or_else(|| "deadline exceeded".into()),
                            ),
                            _ => None,
                        };
                        let outcome =
                            tally.outcome(scenario, self.chunk, point.status, fail_reason);
                        if let Some(writer) = &self.journal {
                            writer.record(&outcome, &point);
                        }
                        out.outcomes.push(outcome);
                        out.points.push(point);
                        handled = true;
                        break;
                    }
                    Err((e, class)) => match (&scenario.region, class) {
                        (None, FaultClass::PermanentForSku) => {
                            // Quota exhaustion degrades the rest of the SKU
                            // to skips.
                            exhausted_skus.insert(scenario.sku.clone());
                            let reason = format!("SKU quota exhausted: {e}");
                            let skipped = ScenarioStatus::Skipped;
                            self.settle(&mut out, scenario, skipped, &reason, tally, false);
                            handled = true;
                            break;
                        }
                        (None, _) | (Some(_), FaultClass::Permanent) => {
                            // A placed scenario's hard rejection is not a
                            // region's fault; no other placement would fare
                            // better.
                            let reason = format!("pool resize: {e}");
                            let failed = ScenarioStatus::Failed;
                            self.settle(&mut out, scenario, failed, &reason, tally, true);
                            handled = true;
                            break;
                        }
                        (Some(_), _) => {
                            // The region fault domain tripped (outage,
                            // capacity crunch, exhausted quota pool): mark it
                            // and fail over to the next candidate.
                            let region_name = attempt_region.unwrap_or_default().to_string();
                            let permanent = class == FaultClass::PermanentForSku;
                            let down =
                                placement.record_fault(&scenario.sku, &region_name, permanent);
                            tally.failovers += 1;
                            last_fault = e.to_string();
                            tried.push(region_name.clone());
                            emit_scenario(self.service.trace_mut(), "failover", scenario, |m| {
                                m.insert("region", Value::str(region_name.clone()));
                                m.insert("fault", Value::str(last_fault.clone()));
                                m.insert(
                                    "marked_down",
                                    Value::str(if down { "true" } else { "false" }),
                                );
                            });
                        }
                    },
                }
            }
            if !handled {
                // Every candidate region faulted out: degrade to a journaled
                // skip so a resume honors the decision instead of re-rolling
                // the whole failover chain against the cloud.
                self.settle(
                    &mut out,
                    scenario,
                    ScenarioStatus::Skipped,
                    &format!(
                        "no region satisfies placement SLA: tried {}; last fault: {last_fault}",
                        tried.join(", ")
                    ),
                    tally,
                    true,
                );
            }
        }
        if let Some(pool) = current.take() {
            self.teardown_pool(&pool.name)?;
        }
        Ok(out)
    }

    /// Makes sure the active pool matches `(scenario.sku, region)` with at
    /// least `scenario.nnodes` nodes and a finished app setup, tearing down
    /// the previous pool on a key change (Algorithm 1's pool reuse,
    /// extended with the placement dimension). The outer `Result` carries
    /// systemic errors; the inner one reports provisioning failures with
    /// their retry classification so the caller can fail over.
    #[allow(clippy::type_complexity)]
    fn ensure_pool(
        &mut self,
        scenario: &Scenario,
        region: Option<&str>,
        current: &mut Option<PoolCtx>,
        tally: &mut Tally,
    ) -> Result<Result<(), (batchsim::BatchError, FaultClass)>, ToolError> {
        let reusable = current
            .as_ref()
            .filter(|pool| pool.sku == scenario.sku && pool.region.as_deref() == region);
        if let Some(pool) = reusable {
            if self
                .service
                .pool(&pool.name)
                .is_some_and(|p| p.nodes < scenario.nnodes)
            {
                // "The number of nodes that the user requested for testing
                // is then incremented in the pool."
                if let Err(err) = self.resize_with_retry(&pool.name, scenario.nnodes, tally) {
                    return Ok(Err(err));
                }
            }
            return Ok(Ok(()));
        }
        if let Some(pool) = current.take() {
            self.teardown_pool(&pool.name)?;
        }
        let mut name = pool_name_for(&scenario.sku, region);
        if self
            .service
            .pool(&name)
            .map(|p| p.state != batchsim::PoolState::Active)
            .unwrap_or(true)
        {
            // Deleted pools cannot be recreated under the same name;
            // uniquify defensively.
            if self.service.pool(&name).is_some() {
                name = format!("{name}-{}", scenario.id);
            }
            self.service.create_pool_in(&name, &scenario.sku, region)?;
        }
        let vm = &self.service.pool(&name).expect("pool exists").vm;
        let node = self.ctx.node_env(vm);
        let price = Prices::resolve(&self.ctx.provider, &scenario.sku, vm, region)?;
        self.apply_capacity(&name)?;
        let provisioned = self.resize_with_retry(&name, scenario.nnodes, tally);
        let setup_ok = match &provisioned {
            Ok(()) => self.run_setup_task(&name, &node, tally)?,
            Err(_) => false,
        };
        *current = Some(PoolCtx {
            sku: scenario.sku.clone(),
            region: region.map(str::to_string),
            name,
            node,
            price,
            setup_ok,
        });
        Ok(provisioned)
    }

    /// Resizes a pool under the retry policy: transient faults back off on
    /// the simulated clock and try again; permanent faults (and exhausted
    /// retries) return the error with its classification.
    fn resize_with_retry(
        &mut self,
        pool: &str,
        target: u32,
        tally: &mut Tally,
    ) -> Result<(), (batchsim::BatchError, FaultClass)> {
        let max_attempts = self.ctx.plan.retry.max_attempts;
        let mut retries = 0u32;
        loop {
            match self.service.resize_pool(pool, target) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let class = classify_batch(&e);
                    if class != FaultClass::Transient || retries + 1 >= max_attempts {
                        return Err((e, class));
                    }
                    retries += 1;
                    self.backoff(pool, retries, tally);
                }
            }
        }
    }

    /// Advances the shared simulated clock by the backoff for retry
    /// `retry_no` (1-based) in `scope`, tallying it against the current
    /// scenario. Only billing sees the wait — task durations are
    /// runner-reported, so retried datasets stay byte-identical.
    fn backoff(&mut self, scope: &str, retry_no: u32, tally: &mut Tally) {
        let secs = self.ctx.plan.retry.backoff_secs(scope, retry_no);
        tally.attempts += 1;
        tally.backoff_secs += secs;
        let attempt = tally.attempts;
        let trace = self.service.trace_mut();
        trace.emit("retry", scope, |m| {
            m.insert("attempt", Value::Int(i64::from(attempt)));
            m.insert("backoff_secs", Value::Float(secs));
        });
        trace.advance(secs);
        self.service
            .clock()
            .advance_by(SimDuration::from_secs_f64(secs));
    }

    /// Emits the scenario's terminal trace event. `cost` is the data
    /// point's deterministic price × nodes × exec-time figure, never the
    /// jittered billing span.
    fn trace_scenario_end(
        &mut self,
        scenario: &Scenario,
        status: ScenarioStatus,
        tally: Tally,
        cost: f64,
    ) {
        emit_scenario(self.service.trace_mut(), "scenario_end", scenario, |m| {
            m.insert("status", Value::str(status_str(status)));
            m.insert("attempts", Value::Int(i64::from(tally.attempts)));
            m.insert("evictions", Value::Int(i64::from(tally.evictions)));
            m.insert("cost", Value::Float(cost));
        });
    }

    /// Brings the pool's capacity class back to the run's configured one
    /// (spot sweeps provision spot pools; escalation flips a pool to
    /// dedicated for one scenario only). The switch needs an empty pool, so
    /// a populated pool is resized to zero first — the next scenario's
    /// resize-up re-provisions it.
    fn apply_capacity(&mut self, pool: &str) -> Result<(), ToolError> {
        let want = self.ctx.plan.capacity;
        if self.service.pool(pool).map(|p| p.capacity) == Some(want) {
            return Ok(());
        }
        self.service.resize_pool(pool, 0)?;
        self.service.set_pool_capacity(pool, want)?;
        Ok(())
    }

    /// Records a scenario that settled without a result (see
    /// [`ExecContext::settled_point`]). `journal` says whether the outcome
    /// is appended to the run journal: failures and deliberate stops (the
    /// budget breaker, placement exhausting every region) are, so a
    /// `--resume` honors them; quota skips are not, so the next collect
    /// attempts them again.
    fn settle(
        &mut self,
        out: &mut ShardOutput,
        scenario: &Scenario,
        status: ScenarioStatus,
        reason: &str,
        tally: Tally,
        journal: bool,
    ) {
        let point = self.ctx.settled_point(scenario, status, reason);
        self.trace_scenario_end(scenario, point.status, tally, 0.0);
        let outcome = tally.outcome(scenario, self.chunk, point.status, Some(reason.to_string()));
        if let (true, Some(writer)) = (journal, &self.journal) {
            writer.record(&outcome, &point);
        }
        out.points.push(point);
        out.outcomes.push(outcome);
    }

    fn teardown_pool(&mut self, pool: &str) -> Result<(), ToolError> {
        if self.service.pool(pool).is_none() {
            return Ok(());
        }
        self.service.resize_pool(pool, 0)?;
        Ok(())
    }

    /// Runs the pool's setup task (`hpcadvisor_setup` in the app directory),
    /// retrying injected transient faults. Returns whether setup succeeded.
    /// Genuine script failures carry no fault kind and never retry.
    fn run_setup_task(
        &mut self,
        pool: &str,
        node: &NodeEnv,
        tally: &mut Tally,
    ) -> Result<bool, ToolError> {
        let max_attempts = self.ctx.plan.retry.max_attempts;
        let mut attempt = 1u32;
        loop {
            let runner = self.ctx.make_runner(
                &self.vfs,
                node,
                RunnerSpec {
                    function: "hpcadvisor_setup",
                    cwd: self.ctx.app_dir.clone(),
                    env: Vec::new(),
                    write_hostfile: false,
                },
            );
            let record = self.service.run_task(
                pool,
                format!("setup-{}", self.ctx.config.appname),
                TaskKind::Setup,
                1,
                1,
                runner,
            )?;
            if record.state == TaskState::Completed {
                return Ok(true);
            }
            if record.fault != Some(FaultKind::Transient) || attempt >= max_attempts {
                return Ok(false);
            }
            self.backoff(pool, attempt, tally);
            attempt += 1;
        }
    }

    /// Runs one scenario's compute task and converts it to a data point,
    /// retrying attempts that failed from an injected transient fault
    /// (task-start rejection, mid-task node death). Application-level
    /// failures (e.g. an OOM) carry no fault kind and are never retried.
    ///
    /// Spot evictions get their own requeue path: the eviction tore the
    /// pool down, so the scenario backs off, re-provisions the pool and
    /// tries again; after `escalate_after` evictions the pool is escalated
    /// to dedicated capacity so the scenario can finish. Eviction retries
    /// are bounded by the escalation, not by `max_attempts`. The deadline
    /// watchdog cuts either loop short into a `TimedOut` point once the
    /// scenario's simulated wall-clock (attempts plus backoff) exceeds it.
    fn run_compute_task(
        &mut self,
        pool_ctx: &PoolCtx,
        scenario: &Scenario,
        region: Option<&str>,
        tally: &mut Tally,
    ) -> Result<DataPoint, ToolError> {
        let pool = pool_ctx.name.as_str();
        let max_attempts = self.ctx.plan.retry.max_attempts;
        let escalate_after = self.ctx.plan.escalate_after;
        let mut attempt = 1u32;
        let mut task_secs_total = 0.0f64;
        let backoff_start = tally.backoff_secs;
        // Real spend consumed by evicted attempts, surfaced as overhead in
        // the final point so spot rows carry their true cost.
        let mut eviction_cost = 0.0f64;
        loop {
            let (mut point, meta) = self.run_compute_task_once(pool_ctx, scenario, region)?;
            task_secs_total += point.task_secs;
            if point.status == ScenarioStatus::Completed {
                if tally.evictions > 0 {
                    point.cost_dollars += eviction_cost;
                    point.metrics.set("EVICTIONS", &tally.evictions.to_string());
                }
                return Ok(point);
            }
            if meta.evicted {
                tally.evictions += 1;
                eviction_cost += point.cost_dollars;
            }
            let elapsed = task_secs_total + (tally.backoff_secs - backoff_start);
            if let Some(deadline) = self.ctx.plan.deadline_secs {
                if elapsed >= deadline {
                    let mut point = self.ctx.settled_point(
                        scenario,
                        ScenarioStatus::TimedOut,
                        &format!(
                            "deadline exceeded: {elapsed:.0}s elapsed over {attempt} attempt(s) \
                             and {} eviction(s) against a {deadline:.0}s deadline",
                            tally.evictions
                        ),
                    );
                    // The attempts ran in the placed region; label the row
                    // with it, not the grid's requested one.
                    point.region = region.map(str::to_string);
                    return Ok(point);
                }
            }
            if meta.evicted {
                self.backoff(pool, attempt, tally);
                attempt += 1;
                if tally.evictions >= escalate_after
                    && self.service.pool(pool).map(|p| p.capacity) == Some(Capacity::Spot)
                {
                    self.service.resize_pool(pool, 0)?;
                    self.service.set_pool_capacity(pool, Capacity::Dedicated)?;
                }
                // The eviction deprovisioned the pool; bring it back before
                // the next attempt.
                if let Err((e, _)) = self.resize_with_retry(pool, scenario.nnodes, tally) {
                    point.metrics.set(
                        "FAILREASON",
                        &format!("pool re-provision after eviction: {e}"),
                    );
                    return Ok(point);
                }
                continue;
            }
            if !meta.retryable || attempt >= max_attempts {
                return Ok(point);
            }
            self.backoff(pool, attempt, tally);
            attempt += 1;
        }
    }

    /// One compute-task attempt, plus the facts the retry loop needs beyond
    /// the point itself: whether a failure is worth retrying (the batch
    /// layer flagged it transient) and whether it was a spot eviction.
    fn run_compute_task_once(
        &mut self,
        pool_ctx: &PoolCtx,
        scenario: &Scenario,
        region: Option<&str>,
    ) -> Result<(DataPoint, AttemptMeta), ToolError> {
        let pool = pool_ctx.name.as_str();
        // A u32 id takes at most 10 digits.
        let mut task_dir = String::with_capacity(self.ctx.app_dir.len() + "/task-".len() + 10);
        let _ = write!(task_dir, "{}/task-{}", self.ctx.app_dir, scenario.id);
        // The capacity class this attempt runs on (escalation may have
        // flipped the pool to dedicated mid-scenario).
        let capacity = self
            .service
            .pool(pool)
            .map(|p| p.capacity)
            .unwrap_or_default();
        let mut env: Vec<(String, String)> = Vec::with_capacity(5 + scenario.appinputs.len());
        env.extend([
            ("NNODES".into(), scenario.nnodes.to_string()),
            ("PPN".into(), scenario.ppn.to_string()),
            ("SKU".into(), scenario.sku.clone()),
            ("VMTYPE".into(), scenario.sku.clone()),
            ("TASKRUN_DIR".into(), task_dir.clone()),
        ]);
        env.extend(scenario.appinputs.iter().cloned());
        let runner = self.ctx.make_runner(
            &self.vfs,
            &pool_ctx.node,
            RunnerSpec {
                function: "hpcadvisor_run",
                cwd: task_dir,
                env,
                write_hostfile: true,
            },
        );
        let record = self.service.run_task(
            pool,
            scenario.label(&self.ctx.config.appname),
            TaskKind::Compute,
            scenario.nnodes,
            scenario.ppn,
            runner,
        )?;

        let (metrics, infra) = scrape(&record.stdout);

        // Runner-reported execution time: immune to sibling shards advancing
        // the shared virtual clock while this task runs.
        let task_secs = record.duration.as_secs_f64();
        // A non-finite APPEXECTIME (`nan`, `inf`) counts as unparsable: it
        // cannot be written to the dataset or the cache as JSON.
        let exec_time_secs = metrics
            .get("APPEXECTIME")
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|t| t.is_finite())
            .unwrap_or(task_secs);
        let price = pool_ctx.price.of(capacity);
        let cost_dollars = price * scenario.nnodes as f64 * exec_time_secs / 3600.0;
        let status = match record.state {
            TaskState::Completed => ScenarioStatus::Completed,
            _ => ScenarioStatus::Failed,
        };
        let retryable = record.fault == Some(FaultKind::Transient);
        let evicted = record.evicted;
        Ok((
            DataPoint {
                scenario_id: scenario.id,
                appname: self.ctx.config.appname.clone(),
                sku: scenario.sku.clone(),
                nnodes: scenario.nnodes,
                ppn: scenario.ppn,
                appinputs: Pairs::from(scenario.appinputs.as_slice()),
                exec_time_secs,
                task_secs,
                cost_dollars,
                status,
                // The row is labeled with the *requested* capacity class even
                // if escalation finished it on a dedicated pool: the sweep
                // stays homogeneous and the escalated row's dedicated-rate
                // cost (plus eviction overhead) is the true price of asking
                // for spot under that pressure.
                capacity: self.ctx.plan.capacity,
                // Where the row actually ran: the placed region after any
                // failover, or the home region (implicit) without one.
                region: region.map(str::to_string),
                metrics,
                infra,
                tags: self.ctx.tags.clone(),
                deployment: self.ctx.deployment.clone(),
            },
            AttemptMeta { retryable, evicted },
        ))
    }
}

/// Facts about one compute attempt the retry loop needs beyond the data
/// point itself.
#[derive(Debug, Clone, Copy)]
struct AttemptMeta {
    retryable: bool,
    evicted: bool,
}

/// Stores freshly-executed completed points under the fingerprints recorded
/// at consult time, persisting the cache if anything changed. Runs on the
/// coordinating thread after all shards have merged — shard workers never
/// touch the cache.
pub(crate) fn store_new_points(
    cache: &SharedScenarioCache,
    fingerprints: &HashMap<u32, Fingerprint>,
    points: &[DataPoint],
) -> Result<(), ToolError> {
    let mut cache = cache.lock();
    for p in points {
        if let Some(&fp) = fingerprints.get(&p.scenario_id) {
            cache.insert(fp, p);
        }
    }
    // The store tracks its own dirtiness: this is a no-op unless an
    // insert above (or a concurrent sharer) actually changed something.
    cache.save()
}

/// Maps scenario id → index in the array, built once per call instead of a
/// linear scan per id.
pub(crate) fn index_by_id(scenarios: &[Scenario]) -> HashMap<u32, usize> {
    scenarios
        .iter()
        .enumerate()
        .map(|(idx, s)| (s.id, idx))
        .collect()
}

/// Resolves requested ids into their scenarios in request order, failing on
/// unknown ids before anything runs. A repeated id keeps only its first
/// occurrence: a run settles each scenario once.
pub(crate) fn resolve_ids<'a>(
    scenarios: &'a [Scenario],
    index: &HashMap<u32, usize>,
    ids: &[u32],
) -> Result<Vec<&'a Scenario>, ToolError> {
    let mut seen = HashSet::with_capacity(ids.len());
    let mut ordered = Vec::with_capacity(ids.len());
    for &id in ids {
        let &idx = index
            .get(&id)
            .ok_or_else(|| ToolError::NoData(format!("scenario id {id} not found")))?;
        if seen.insert(id) {
            ordered.push(&scenarios[idx]);
        }
    }
    Ok(ordered)
}

/// The `HPCADVISOR` prefix that both scraped kinds of line start with.
const SCRAPE_PREFIX: &str = "HPCADVISOR";

/// Scrapes a task's `HPCADVISORVAR key=value` lines into its metrics and
/// its `HPCADVISORINFRA k=v k=v ...` lines into its infrastructure
/// utilizations, straight into the point's maps. The result is what
/// `str::lines` and `strip_prefix` give: a line ends at a `\n`. A
/// metric's key and value are trimmed around the line's first `=`; an
/// infra line's whitespace-separated tokens split at their first `=`, and
/// a token or metric line without one is skipped. A variable printed
/// twice keeps its first position and its last value, as a `Pairs` does
/// however it is built, so cold and warm runs read alike.
///
/// One search finds the matched lines and sizes both maps from them alone.
/// The pairs it finds are kept for the fill; a stdout with more than
/// [`KEPT_PAIRS`] of them is searched again.
fn scrape(stdout: &str) -> (Pairs, Pairs) {
    let mut kept = [(0, "", ""); KEPT_PAIRS];
    let mut found = 0;
    let mut sizes = [(0, 0); 2];
    scraped_pairs(stdout, |map, k, v| {
        if let Some(slot) = kept.get_mut(found) {
            *slot = (map, k, v);
        }
        found += 1;
        sizes[map].0 += 1;
        sizes[map].1 += k.len() + v.len();
    });
    let mut maps = sizes.map(|(entries, text_len)| Pairs::with_capacity(entries, text_len));
    if found <= KEPT_PAIRS {
        for &(map, k, v) in &kept[..found] {
            maps[map].set(k, v);
        }
    } else {
        scraped_pairs(stdout, |map, k, v| maps[map].set(k, v));
    }
    let [metrics, infra] = maps;
    (metrics, infra)
}

/// The pairs [`scrape`] keeps from its search: an application task prints
/// two or three metrics and four utilizations.
const KEPT_PAIRS: usize = 8;

/// Calls `pair(map, key, value)` for every pair of [`scrape`]'s lines in
/// order, `map` 0 for a metric and 1 for an infra utilization.
fn scraped_pairs<'a>(text: &'a str, mut pair: impl FnMut(usize, &'a str, &'a str)) {
    let mut from = 0;
    // A byte search for the prefix's first byte is much cheaper than a
    // search for the whole prefix; each hit is then checked in place.
    while let Some(at) = text[from..].find('H').map(|i| from + i) {
        from = at + 1;
        let line_start = at == 0 || text.as_bytes()[at - 1] == b'\n';
        if !line_start || !text[at..].starts_with(SCRAPE_PREFIX) {
            continue;
        }
        // The `\r` of a `\r\n` ending stays on the line: it can only end
        // a value or a token, and the trim or the whitespace split drops
        // it there, as it would drop a bare `\r` at the end of the text.
        from = text[at..].find('\n').map_or(text.len(), |len| at + len);
        let kind = &text[at + SCRAPE_PREFIX.len()..from];
        if let Some(rest) = kind.strip_prefix("VAR ") {
            if let Some((k, v)) = rest.split_once('=') {
                pair(0, k.trim(), v.trim());
            }
        } else if let Some(rest) = kind.strip_prefix("INFRA ") {
            for (k, v) in rest.split_whitespace().filter_map(|kv| kv.split_once('=')) {
                pair(1, k, v);
            }
        }
    }
}

/// What a runner should do.
#[derive(Debug, Clone)]
struct RunnerSpec {
    function: &'static str,
    cwd: String,
    env: Vec<(String, String)>,
    write_hostfile: bool,
}

/// Executes one script function inside a fresh interpreter over the shared
/// filesystem (sequential tasks, like a shared NFS mount). The interpreter
/// borrows the filesystem by move and hands it back; a task that errors out
/// rolls its changes back instead of working on a copy. The spec's
/// environment moves into the interpreter.
fn run_script_task(
    ctx: &TaskContext,
    spec: RunnerSpec,
    shared_vfs: &Mutex<Vfs>,
    urls: UrlStore,
    node: NodeEnv,
    program: &Result<Script, ShellError>,
) -> TaskResult {
    let mut vfs = std::mem::take(&mut *shared_vfs.lock());
    vfs.begin();
    let mut interp = Interpreter::new(node, vfs, urls);
    // The hostfile goes into the task directory as the spec names it.
    let hostfile_path = spec.write_hostfile.then(|| {
        let dir = spec.cwd.trim_end_matches('/');
        let mut path = String::with_capacity(dir.len() + "/hostfile".len());
        path.push_str(dir);
        path.push_str("/hostfile");
        path
    });
    interp.set_cwd(spec.cwd);
    for (k, v) in spec.env {
        interp.set_var(k, v);
    }
    // Table I variables that depend on the concrete node assignment. The
    // hostfile's text is the pool's, shared, not copied.
    interp.set_var("HOSTLIST_PPN", &*ctx.hostlist_ppn_text);
    if let Some(hostfile_path) = hostfile_path {
        interp
            .vfs_mut()
            .write(&hostfile_path, Arc::clone(&ctx.hostfile_text));
        interp.set_var("HOSTFILE_PATH", hostfile_path);
    }

    let (result, keep) = run_function(&mut interp, spec.function, program);
    let mut vfs = interp.into_vfs();
    if keep {
        vfs.commit();
    } else {
        vfs.rollback();
    }
    *shared_vfs.lock() = vfs;
    result
}

/// Loads the script and calls the task's function. Returns the task result
/// and whether its filesystem changes stand: only a function that ran to
/// an exit status (zero or not) keeps them.
fn run_function(
    interp: &mut Interpreter,
    function: &str,
    program: &Result<Script, ShellError>,
) -> (TaskResult, bool) {
    // Scheduling/launch overhead on the batch side.
    let overhead = SimDuration::from_secs(5);
    let loaded = match program {
        Ok(script) => interp.run_parsed(script),
        Err(e) => Err(e.clone()),
    };
    let load = match loaded {
        Ok(outcome) => outcome,
        Err(e) => {
            let stdout = format!("script parse error: {e}\n");
            return (TaskResult::failed(overhead, stdout, 127), false);
        }
    };
    if load.exit_code != 0 {
        let stdout = format!("{}script top-level failed\n", load.stdout);
        let duration = overhead + load.elapsed;
        return (TaskResult::failed(duration, stdout, load.exit_code), false);
    }
    match interp.call_function(function) {
        Ok(outcome) => {
            let duration = overhead + load.elapsed + outcome.elapsed;
            let result = if outcome.exit_code == 0 {
                TaskResult::ok(duration, outcome.stdout)
            } else {
                TaskResult::failed(duration, outcome.stdout, outcome.exit_code)
            };
            (result, true)
        }
        Err(e) => {
            let stdout = format!("script error in {function}: {e}\n");
            let duration = overhead + load.elapsed;
            (TaskResult::failed(duration, stdout, 126), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn setup(config: &UserConfig) -> Session {
        Session::builder(config.clone()).seed(42).build().unwrap()
    }

    #[test]
    fn collects_small_lammps_sweep() {
        let config = UserConfig::example_lammps_small();
        let mut session = setup(&config);
        let ds = session.collect().unwrap();
        assert_eq!(ds.len(), 3);
        assert!(session
            .scenarios()
            .iter()
            .all(|s| s.status == ScenarioStatus::Completed));
        for p in &ds.points {
            assert!(p.exec_time_secs > 0.0, "{p:?}");
            assert!(p.cost_dollars > 0.0);
            assert!(p.task_secs >= p.exec_time_secs * 0.5);
            assert!(p.metric("LAMMPSATOMS").is_some(), "scraped metrics present");
            assert!(p.infra_metric("bottleneck").is_some());
            assert_eq!(p.tags, Pairs::from([("version", "v1")]));
        }
        // More nodes ⇒ faster for this compute-bound input.
        let t1 = ds
            .points
            .iter()
            .find(|p| p.nnodes == 1)
            .unwrap()
            .exec_time_secs;
        let t4 = ds
            .points
            .iter()
            .find(|p| p.nnodes == 4)
            .unwrap()
            .exec_time_secs;
        assert!(t4 < t1);
    }

    #[test]
    fn scraped_exectime_excludes_setup_overhead() {
        let config = UserConfig::example_lammps_small();
        let mut session = setup(&config);
        let ds = session.collect().unwrap();
        for p in &ds.points {
            // APPEXECTIME (loop time) is well below the whole task duration
            // (which includes EESSI init, module load, wget, mpirun launch).
            assert!(p.exec_time_secs < p.task_secs, "{p:?}");
        }
    }

    #[test]
    fn completed_scenarios_are_not_rerun() {
        let config = UserConfig::example_lammps_small();
        let mut session = setup(&config);
        let first = session.collect().unwrap();
        assert_eq!(first.len(), 3);
        let second = session.collect().unwrap();
        assert!(second.is_empty(), "everything already completed");
    }

    #[test]
    fn pool_reuse_across_same_sku() {
        // With 1 SKU and 3 node counts, billing shows pool growth (resizes),
        // not one pool per scenario.
        let config = UserConfig::example_lammps_small();
        let mut session = setup(&config);
        session.collect().unwrap();
        let provider = session.provider();
        let p = provider.lock();
        let spans = p.billing().records();
        // Three resizes (1→2→4 nodes) plus the final resize-to-zero closes
        // the last span: exactly 3 usage records for the single pool.
        assert_eq!(spans.len(), 3, "spans: {spans:?}");
        assert_eq!(spans[0].nodes, 1);
        assert_eq!(spans[1].nodes, 2);
        assert_eq!(spans[2].nodes, 4);
    }

    #[test]
    fn oom_scenario_marked_failed_and_sweep_continues() {
        let mut config = UserConfig::example_lammps_small();
        config.appname = "wrf".into();
        config.appsetupurl = "https://example.com/scripts/wrf.sh".into();
        // 1 km WRF OOMs on 1–2 nodes of HBv3, succeeds on 16.
        config.appinputs = vec![
            ("resolution_km".into(), vec!["1".into()]),
            ("hours".into(), vec!["1".into()]),
        ];
        config.nnodes = vec![1, 16];
        let mut session = setup(&config);
        let ds = session.collect().unwrap();
        assert_eq!(ds.len(), 2);
        let failed = ds.points.iter().find(|p| p.nnodes == 1).unwrap();
        assert_eq!(failed.status, ScenarioStatus::Failed);
        let ok = ds.points.iter().find(|p| p.nnodes == 16).unwrap();
        assert_eq!(ok.status, ScenarioStatus::Completed);
        assert_eq!(
            session
                .scenarios()
                .iter()
                .filter(|s| s.status == ScenarioStatus::Failed)
                .count(),
            1
        );
    }

    #[test]
    fn cost_matches_price_times_nodes_times_time() {
        let config = UserConfig::example_lammps_small();
        let mut session = setup(&config);
        let ds = session.collect().unwrap();
        for p in ds.completed() {
            let expected = 3.60 * p.nnodes as f64 * p.exec_time_secs / 3600.0;
            assert!(
                (p.cost_dollars - expected).abs() < 1e-9,
                "cost {} vs expected {expected}",
                p.cost_dollars
            );
        }
    }

    #[test]
    fn setup_artifacts_visible_to_tasks_via_shared_fs() {
        let config = UserConfig::example_lammps_small();
        let mut session = setup(&config);
        session.collect().unwrap();
        let vfs = session.shared_vfs();
        let vfs = vfs.lock();
        // Setup downloaded in.lj.txt into the app dir...
        assert!(vfs.exists("/share/hpcadvisorlammps001/apps/lammps/in.lj.txt"));
        // ...and each task dir holds its own (sed-patched) copy + log.
        for s in session.scenarios() {
            let dir = format!("/share/hpcadvisorlammps001/apps/lammps/task-{}", s.id);
            assert!(vfs.exists(&format!("{dir}/in.lj.txt")), "{dir}");
            assert!(vfs.exists(&format!("{dir}/log.lammps")), "{dir}");
            let patched = vfs.read(&format!("{dir}/in.lj.txt")).unwrap();
            assert!(patched.contains("variable x index 8"), "sed applied");
        }
    }

    #[test]
    fn script_errors_roll_back_task_files_and_exit_statuses_keep_them() {
        // Every task downloads into its directory; the 1-node one then
        // exits 3, the others hit an unknown command (a script error).
        const SCRIPT: &str = "\
hpcadvisor_setup() {
  return 0
}

hpcadvisor_run() {
  wget https://www.lammps.org/inputs/in.lj.txt
  if [[ $NNODES == 1 ]]; then
    return 3
  fi
  frobnicate
}
";
        let config = UserConfig::example_lammps_small();
        let mut session = Session::builder(config.clone())
            .seed(42)
            .script(config.appsetupurl.clone(), SCRIPT)
            .build()
            .unwrap();
        let ds = session.collect().unwrap();
        assert_eq!(ds.len(), 3);
        assert!(ds.points.iter().all(|p| p.status == ScenarioStatus::Failed));
        let vfs = session.shared_vfs();
        let vfs = vfs.lock();
        for s in session.scenarios() {
            let dir = format!("/share/hpcadvisorlammps001/apps/lammps/task-{}", s.id);
            let kept = s.nnodes == 1;
            assert_eq!(vfs.exists(&format!("{dir}/in.lj.txt")), kept, "{dir}");
            assert_eq!(vfs.exists(&format!("{dir}/hostfile")), kept, "{dir}");
            assert_eq!(vfs.dir_exists(&dir), kept, "{dir}");
        }
    }

    #[test]
    fn script_syntax_error_fails_every_scenario() {
        let config = UserConfig::example_lammps_small();
        let mut session = Session::builder(config.clone())
            .seed(42)
            .script(
                config.appsetupurl.clone(),
                "hpcadvisor_run() {\n  echo $(\n}\n",
            )
            .build()
            .unwrap();
        let ds = session.collect().unwrap();
        assert_eq!(ds.len(), 3);
        assert!(ds.points.iter().all(|p| p.status == ScenarioStatus::Failed));
        assert!(!session
            .shared_vfs()
            .lock()
            .dir_exists("/share/hpcadvisorlammps001/apps/lammps"));
    }

    #[test]
    fn run_subset_only_runs_requested_ids() {
        let config = UserConfig::example_lammps_small();
        let mut session = setup(&config);
        let ids: Vec<u32> = session.scenarios().iter().map(|s| s.id).take(1).collect();
        let ds = session
            .collect_with(&CollectPlan::new().subset(ids))
            .unwrap()
            .into_dataset();
        assert_eq!(ds.len(), 1);
        assert_eq!(
            session
                .scenarios()
                .iter()
                .filter(|s| s.status == ScenarioStatus::Completed)
                .count(),
            1
        );
    }

    #[test]
    fn unknown_id_fails_before_running_anything() {
        let config = UserConfig::example_lammps_small();
        let mut session = setup(&config);
        let mut ids: Vec<u32> = session.scenarios().iter().map(|s| s.id).collect();
        ids.push(9999);
        let err = session
            .collect_with(&CollectPlan::new().subset(ids))
            .unwrap_err();
        assert!(matches!(err, ToolError::NoData(_)), "{err}");
        assert!(
            session
                .scenarios()
                .iter()
                .all(|s| s.status == ScenarioStatus::Pending),
            "id validation happens before execution"
        );
    }
}

#[cfg(test)]
mod option_tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use crate::session::Session;

    fn setup_with(config: &UserConfig) -> Session {
        Session::builder(config.clone()).seed(42).build().unwrap()
    }

    /// Runs the small LAMMPS grid under `plan` as one `ShardRun` on a batch
    /// service the test owns, so the pools it leaves behind can be
    /// inspected.
    fn run_on_own_service(plan: CollectPlan) -> BatchService {
        let config = UserConfig::example_lammps_small();
        let session = setup_with(&config);
        let mut service = BatchService::new(session.provider(), session.deployment());
        let ctx = ExecContext {
            plan,
            ..session.ctx.clone()
        };
        let out = ShardRun {
            ctx: &ctx,
            chunk: 0,
            service: &mut service,
            vfs: session.shared_vfs(),
            journal: None,
        }
        .run(&session.scenarios().iter().collect::<Vec<_>>())
        .unwrap();
        assert_eq!(out.points.len(), 3);
        service
    }

    #[test]
    fn resize_to_zero_keeps_pool_by_default() {
        let service = run_on_own_service(CollectPlan::new());
        let pool = service.pool("pool-hb120rs_v3").unwrap();
        assert_eq!(pool.state, batchsim::PoolState::Active);
        assert_eq!(pool.nodes, 0, "resized to zero, not deleted");
    }

    /// `price` × nodes × exec time, as a point's cost is figured.
    fn billed(price: f64, point: &DataPoint) -> f64 {
        price * point.nnodes as f64 * point.exec_time_secs / 3600.0
    }

    #[test]
    fn an_escalated_attempt_bills_dedicated_and_the_next_scenario_spot() {
        use cloudsim::{FaultPlan, Operation};
        let mut session = setup_with(&UserConfig::example_lammps_small());
        // The pool's first eviction check evicts: the first scenario's
        // first attempt, which escalates the pool to dedicated.
        session
            .provider()
            .lock()
            .set_fault_plan(FaultPlan::none().fail_nth(Operation::Eviction, 0));
        let plan = CollectPlan::new()
            .capacity(Capacity::Spot)
            .escalate_after(1);
        let points = session.collect_with(&plan).unwrap().into_dataset().points;
        let (dedicated, spot) = {
            let provider = session.provider();
            let provider = provider.lock();
            let dedicated = provider.price_per_hour("Standard_HB120rs_v3").unwrap();
            let discount = provider
                .catalog()
                .get("Standard_HB120rs_v3")
                .unwrap()
                .spot_discount;
            (dedicated, dedicated * (1.0 - discount))
        };
        assert!(spot < dedicated);
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.status == ScenarioStatus::Completed));
        // The finishing attempt ran on dedicated nodes; the evicted one, on
        // spot nodes, is billed on top.
        let escalated = &points[0];
        assert_eq!(escalated.metric("EVICTIONS"), Some("1"));
        assert_eq!(
            escalated.cost_dollars,
            billed(dedicated, escalated) + billed(spot, escalated)
        );
        // The pool went back to spot for the scenarios after it.
        for point in &points[1..] {
            assert_eq!(point.metric("EVICTIONS"), None);
            assert_eq!(point.cost_dollars, billed(spot, point), "{point:?}");
        }
    }

    #[test]
    fn a_failed_over_scenario_bills_its_placed_regions_price() {
        use cloudsim::{FaultMode, FaultPlan, RegionFault};
        let mut config = UserConfig::example_lammps_small();
        config.regions = vec!["southcentralus".into(), "westeurope".into()];
        let mut session = setup_with(&config);
        session
            .provider()
            .lock()
            .set_fault_plan(FaultPlan::none().fail_region_named(
                "southcentralus",
                RegionFault::Outage,
                FaultMode::Always,
            ));
        let points = session
            .collect_with(&CollectPlan::new())
            .unwrap()
            .into_dataset()
            .points;
        let (home, placed) = {
            let provider = session.provider();
            let provider = provider.lock();
            let sku = "Standard_HB120rs_v3";
            (
                provider.price_per_hour(sku).unwrap(),
                provider.price_per_hour_in(sku, "westeurope").unwrap(),
            )
        };
        assert_ne!(home, placed, "the regions' multipliers differ");
        assert_eq!(points.len(), 6);
        for point in &points {
            assert_eq!(point.status, ScenarioStatus::Completed);
            assert_eq!(point.region.as_deref(), Some("westeurope"));
            assert_eq!(point.cost_dollars, billed(placed, point), "{point:?}");
        }
    }

    #[test]
    fn rerun_failed_retries_failed_scenarios() {
        use cloudsim::{FaultPlan, Operation};
        let config = UserConfig::example_lammps_small();
        // Retries off: this test is about the *cross-run* rerun_failed
        // knob, so the in-run retry must not absorb the injected fault.
        let plan = CollectPlan::new()
            .rerun_failed(true)
            .retry(RetryPolicy::none());
        let mut session = setup_with(&config);
        // First pass: the second compute task (invocation 2: setup=0,
        // compute=1,2,3) fails by injection.
        session
            .provider()
            .lock()
            .set_fault_plan(FaultPlan::none().fail_nth(Operation::RunTask, 2));
        let first = session.collect_with(&plan).unwrap().into_dataset();
        assert_eq!(
            first
                .points
                .iter()
                .filter(|p| p.status == ScenarioStatus::Failed)
                .count(),
            1
        );
        // Second pass: only the failed scenario reruns, and succeeds.
        let second = session.collect_with(&plan).unwrap().into_dataset();
        assert_eq!(second.len(), 1);
        assert_eq!(second.points[0].status, ScenarioStatus::Completed);
        assert!(session
            .scenarios()
            .iter()
            .all(|s| s.status == ScenarioStatus::Completed));
    }
}

#[cfg(test)]
mod scrape_tests {
    use super::*;
    use proptest::prelude::*;

    /// The scrape as four walks of `str::lines`, two per map (one to size
    /// it, one to fill it): the reference [`scrape`] must match.
    fn scrape_by_lines(stdout: &str) -> (Pairs, Pairs) {
        let lines = |prefix: &'static str| {
            stdout
                .lines()
                .filter_map(move |line| line.strip_prefix(prefix))
        };
        let metrics = Pairs::from_sized(
            lines("HPCADVISORVAR ")
                .filter_map(|rest| rest.split_once('='))
                .map(|(k, v)| (k.trim(), v.trim())),
        );
        let infra = Pairs::from_sized(
            lines("HPCADVISORINFRA ")
                .flat_map(str::split_whitespace)
                .filter_map(|kv| kv.split_once('=')),
        );
        (metrics, infra)
    }

    fn assert_matches_the_line_walk(stdout: &str) {
        let (metrics, infra) = scrape(stdout);
        let (want_metrics, want_infra) = scrape_by_lines(stdout);
        assert_eq!(metrics, want_metrics, "metrics of {stdout:?}");
        assert_eq!(infra, want_infra, "infra of {stdout:?}");
    }

    #[test]
    fn line_endings_prefixes_and_separators_read_as_the_line_walk_does() {
        for stdout in [
            "",
            "no scraped line\n",
            // `\r\n` endings, and a last line without `\n`.
            "HPCADVISORVAR A=1\r\nHPCADVISORINFRA cpu=0.5 net=1\r\n",
            "HPCADVISORVAR A=1\nHPCADVISORVAR B=2",
            "HPCADVISORINFRA cpu=1 net=2",
            // A bare `\r` in a line and at the end of the text.
            "HPCADVISORVAR A=1\rHPCADVISORVAR B=2\n",
            "HPCADVISORINFRA a=1\rb=2 c=3\n",
            "HPCADVISORVAR A=1\r",
            "HPCADVISORINFRA cpu=1\r",
            "HPCADVISORINFRA cpu=1\r\r\n",
            "HPCADVISORVAR A=x\r\r\n",
            "HPCADVISORVAR\r\nHPCADVISORINFRA\r\n",
            // The prefix in the middle of a line.
            "log HPCADVISORVAR A=1\nxHPCADVISORINFRA c=1\n",
            "HPCADVISORHPCADVISORVAR A=1\nHPCADVISOR VAR B=2\nHPCADVISORVARX=3\n",
            "\nHPCADVISORVAR A=1",
            // Lines without `=`, repeated keys, spaces around `=`, empty
            // keys and values.
            "HPCADVISORVAR noequals\nHPCADVISORINFRA a b= =c\n",
            "HPCADVISORVAR K=1\nHPCADVISORVAR K=2\nHPCADVISORVAR J=3\nHPCADVISORVAR K=4\n",
            "HPCADVISORINFRA k=1 j=2 k=3\nHPCADVISORINFRA j=4\n",
            "HPCADVISORVAR  K  =  v v  \nHPCADVISORVAR K=a=b\n",
            "HPCADVISORVAR K=\nHPCADVISORVAR =v\nHPCADVISORVAR =\n",
            // More pairs than the search keeps for the fill.
            "HPCADVISORINFRA a=1 b=2 c=3 d=4 e=5\nlog\nHPCADVISORVAR f=6\n\
             HPCADVISORINFRA a=7 g=8 h=9 i=10\r\nHPCADVISORVAR f = 11\nHPCADVISORVAR j=12",
            // Non-ASCII text, Unicode whitespace included.
            "HPCADVISORVAR clé = värde ☃\u{3000}\nHPCADVISORINFRA ключ=значение\u{3000}x=y\u{85}z=w\n",
        ] {
            assert_matches_the_line_walk(stdout);
        }
    }

    #[test]
    fn a_task_stdout_scrapes_into_both_maps() {
        let stdout = "Time = 1\nExecutionTime = 12.5 s\n\
            HPCADVISORINFRA cpu=0.912 membw=0.400 net=0.100 bottleneck=compute\n\
            Simulation completed successfully.\n\
            HPCADVISORVAR APPEXECTIME=12.5\nHPCADVISORVAR OFCELLS=  1000 \n";
        let (metrics, infra) = scrape(stdout);
        assert_eq!(
            metrics.iter().collect::<Vec<_>>(),
            [("APPEXECTIME", "12.5"), ("OFCELLS", "1000")]
        );
        assert_eq!(infra.len(), 4);
        assert_eq!(infra.get("bottleneck"), Some("compute"));
        assert_matches_the_line_walk(stdout);
    }

    /// What generated stdouts are made of: both prefixes, a bare one, line
    /// endings, separators and keys and values, ASCII and not.
    const FRAGMENTS: &[&str] = &[
        "HPCADVISORVAR ",
        "HPCADVISORVAR ",
        "HPCADVISORINFRA ",
        "HPCADVISORINFRA ",
        "HPCADVISOR",
        "VAR ",
        "\n",
        "\n",
        "\r\n",
        "\r",
        "=",
        "=",
        " ",
        "  ",
        "\t",
        "\u{3000}",
        "K",
        "APPEXECTIME",
        "12.5",
        "x",
        "é",
        "ключ",
        "☃",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn the_one_pass_scrape_matches_the_line_walk(
            parts in proptest::collection::vec(0..FRAGMENTS.len(), 0..64)
        ) {
            let stdout: String = parts.iter().map(|&i| FRAGMENTS[i]).collect();
            assert_matches_the_line_walk(&stdout);
        }
    }
}
