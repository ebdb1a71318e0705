//! The batch service: pools, and tasks that run to completion one call at
//! a time.

use crate::error::BatchError;
use crate::pool::{Pool, PoolState};
use crate::task::{TaskContext, TaskKind, TaskRecord, TaskResult, TaskState};
use crate::SharedProvider;
use cloudsim::{Capacity, CloudError, CloudProvider, Fault, Operation};
use simtime::{SharedClock, SimDuration};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;
use telemetry::{EventSink, TraceEvent, Value};

/// A boxed task runner: computes the outcome of a task given where it
/// runs. [`BatchService::run_task`] takes any such closure, boxed or not.
///
/// The core crate passes a closure that interprets the user's run script
/// (via `taskshell`) against the application models; tests pass simple
/// stubs.
pub type Runner = Box<dyn FnOnce(&TaskContext) -> TaskResult + Send>;

/// The batch orchestrator for one resource group.
pub struct BatchService {
    provider: SharedProvider,
    resource_group: Arc<str>,
    clock: SharedClock,
    pools: HashMap<String, Pool>,
    trace: EventSink,
    fault_qualifier: Option<String>,
}

impl BatchService {
    /// Creates a service bound to a resource group of the shared provider.
    pub fn new(provider: SharedProvider, resource_group: &str) -> Self {
        let clock = provider.lock().clock();
        BatchService {
            provider,
            resource_group: resource_group.into(),
            clock,
            pools: HashMap::new(),
            trace: EventSink::disabled(),
            fault_qualifier: None,
        }
    }

    /// Sets a private fault-counter qualifier for every fault this service
    /// rolls on the shared provider (task faults, evictions, allocation
    /// faults). Schedulers that run several services against the same pool
    /// scope concurrently key each service (`c0`, `c1`, …) so their
    /// attempt sequences never interleave; `None` (the default) keeps the
    /// legacy shared counters exactly.
    pub fn set_fault_qualifier(&mut self, qualifier: Option<String>) {
        self.fault_qualifier = qualifier;
    }

    /// The virtual clock shared with the provider.
    pub fn clock(&self) -> SharedClock {
        self.clock.clone()
    }

    /// Installs the shard-local trace sink (disabled by default).
    ///
    /// The service stamps its own events — and the provider events it
    /// drains while holding the provider lock — on the sink's shard-local
    /// timeline, which advances only by deterministic durations
    /// (un-jittered boot latency, runner-reported task durations). The
    /// shared clock never reaches the sink.
    pub fn set_trace(&mut self, sink: EventSink) {
        self.trace = sink;
    }

    /// The trace sink, for layers driving this service (the collector
    /// stamps scenario-lifecycle events and backoff waits through it).
    pub fn trace_mut(&mut self) -> &mut EventSink {
        &mut self.trace
    }

    /// Drains the buffered trace events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Creates an empty pool of `sku` nodes in the provider's home region.
    pub fn create_pool(&mut self, name: &str, sku: &str) -> Result<(), BatchError> {
        self.create_pool_in(name, sku, None)
    }

    /// [`BatchService::create_pool`] pinned to a placement region. Every
    /// resize of the pool draws on that region's quota pool, pays its
    /// provisioning-latency profile, and is exposed to its injected region
    /// faults; spot evictions scale with the region's spot-pressure
    /// multiplier. `None` keeps the provider's home region and the legacy
    /// behavior exactly.
    pub fn create_pool_in(
        &mut self,
        name: &str,
        sku: &str,
        region: Option<&str>,
    ) -> Result<(), BatchError> {
        if self
            .pools
            .get(name)
            .is_some_and(|p| p.state == PoolState::Active)
        {
            return Err(BatchError::Cloud(CloudError::ResourceExists {
                group: self.resource_group.to_string(),
                name: name.to_string(),
            }));
        }
        let (vm_sku, region) = {
            let provider = self.provider.lock();
            let vm_sku = provider
                .catalog()
                .get(sku)
                .cloned()
                .ok_or_else(|| CloudError::UnknownSku(sku.to_string()))?;
            // Canonicalize the region name so quota/billing lookups and
            // trace fields all agree on one spelling.
            let region = match region {
                Some(r) => Some(provider.region_named(r)?.name.clone()),
                None => None,
            };
            (vm_sku, region)
        };
        let mut pool = Pool::new(name, sku, Arc::new(vm_sku));
        pool.region = region.clone();
        self.pools.insert(name.to_string(), pool);
        self.trace.emit("pool_create", name, |m| {
            m.insert("sku", Value::str(sku));
            if let Some(r) = &region {
                m.insert("region", Value::str(r));
            }
        });
        Ok(())
    }

    /// Resizes a pool to `target` nodes. Algorithm 1 resizes between
    /// scenarios, and a task holds no nodes once `run_task` returns. Each
    /// resize closes the previous billing span and opens a new one.
    pub fn resize_pool(&mut self, name: &str, target: u32) -> Result<(), BatchError> {
        let pool = self.active_pool(name)?;
        if pool.nodes == target {
            return Ok(());
        }
        let sku = pool.sku.clone();
        let capacity = pool.capacity;
        let region = pool.region.clone();
        let from = pool.nodes;
        let old_allocation = pool.allocation.take();
        self.trace.emit("pool_resize", name, |m| {
            m.insert("from", Value::Int(i64::from(from)));
            m.insert("to", Value::Int(i64::from(target)));
        });
        // Close out the old allocation first so quota frees before the new
        // acquire (growing a pool within quota would otherwise double-count).
        if let Some(id) = old_allocation {
            locked(&self.provider, &mut self.trace, |p| p.release_nodes(id))?;
        }
        self.active_pool(name)?.set_nodes(0);
        if target > 0 {
            // Call and drain under one lock hold so no other shard's
            // provider events interleave into this shard's trace; the
            // drained provision event carries the un-jittered boot latency.
            let mut provider = self.provider.lock();
            let home = provider.region().name.clone();
            let allocated = provider.allocate_nodes_keyed(
                &self.resource_group,
                &sku,
                target,
                capacity,
                region.as_deref().unwrap_or(&home),
                self.fault_qualifier.as_deref(),
            );
            let drained = provider.drain_trace();
            drop(provider);
            let boot_secs = drained
                .iter()
                .rev()
                .find(|e| e.kind == "provision")
                .and_then(|e| e.f64_field("boot_secs"));
            self.trace.absorb(drained);
            let allocation = allocated?;
            if let Some(boot) = boot_secs {
                self.trace.emit("node_boot", name, |m| {
                    m.insert("nodes", Value::Int(i64::from(target)));
                    m.insert("boot_secs", Value::Float(boot));
                });
                self.trace.advance(boot);
            }
            let pool = self.active_pool(name)?;
            pool.allocation = Some(allocation);
            pool.set_nodes(target);
        }
        Ok(())
    }

    /// Switches a pool between dedicated and spot capacity. The pool must be
    /// empty: capacity applies to the *next* resize, so callers shrink to
    /// zero first (the collector escalates evicted scenarios this way —
    /// resize to 0, switch to dedicated, resize back up).
    pub fn set_pool_capacity(&mut self, name: &str, capacity: Capacity) -> Result<(), BatchError> {
        let pool = self.active_pool(name)?;
        if pool.nodes > 0 {
            return Err(BatchError::PoolBusy {
                pool: name.to_string(),
            });
        }
        pool.capacity = capacity;
        Ok(())
    }

    /// Deletes a pool (resizing it to zero first).
    pub fn delete_pool(&mut self, name: &str) -> Result<(), BatchError> {
        self.resize_pool(name, 0)?;
        let pool = self.active_pool(name)?;
        pool.state = PoolState::Deleted;
        Ok(())
    }

    /// Looks up a pool.
    pub fn pool(&self, name: &str) -> Option<&Pool> {
        self.pools.get(name)
    }

    /// Active pool or error.
    fn active_pool(&mut self, name: &str) -> Result<&mut Pool, BatchError> {
        match self.pools.get_mut(name) {
            Some(p) if p.state == PoolState::Active => Ok(p),
            _ => Err(BatchError::PoolUnavailable {
                pool: name.to_string(),
            }),
        }
    }

    /// Runs one task on the pool's first `nodes_required` nodes to
    /// completion and returns its record, the way Algorithm 1 runs each
    /// step. The shared clock advances by the task's duration. A task that
    /// needs more nodes than the pool has fails without running, rather
    /// than hang the sweep.
    pub fn run_task(
        &mut self,
        pool: &str,
        name: impl Into<String>,
        kind: TaskKind,
        nodes_required: u32,
        ppn: u32,
        runner: impl FnOnce(&TaskContext) -> TaskResult,
    ) -> Result<TaskRecord, BatchError> {
        let p = self.active_pool(pool)?;
        let cores = p.vm.cores;
        if nodes_required == 0 || ppn == 0 || ppn > cores {
            return Err(BatchError::InvalidLayout {
                nodes: nodes_required,
                ppn,
                cores,
            });
        }
        let nodes = p.nodes;
        let mut record = TaskRecord {
            name: name.into(),
            kind,
            pool: Arc::clone(&p.name),
            nodes_required,
            ppn,
            state: TaskState::Failed,
            duration: SimDuration::ZERO,
            stdout: String::new(),
            exit_code: -1,
            fault: None,
            evicted: false,
        };
        if nodes < nodes_required {
            let reason = format!("pool '{pool}' has {nodes} nodes, task needs {nodes_required}");
            return Ok(self.fail_unstarted(record, &reason));
        }
        // Injected task-start failures (capacity loss, node crash, …),
        // counted per pool so parallel shards replay like a serial run.
        if let Err(fault) = self.roll(Operation::RunTask, pool, None) {
            record.fault = Some(fault.kind);
            return Ok(self.fail_unstarted(record, &fault.to_string()));
        }
        self.trace.emit("task_start", pool, |m| {
            m.insert("task", Value::str(&record.name));
            m.insert("task_kind", Value::str(kind_str(kind)));
            m.insert("nodes", Value::Int(i64::from(nodes_required)));
        });
        let ctx = self
            .pools
            .get_mut(pool)
            .expect("the task's pool exists")
            .task_context(nodes_required, ppn);
        let result = runner(ctx);
        record.duration = result.duration;
        record.stdout = result.stdout;
        record.exit_code = result.exit_code;
        // A node can die while the task runs: the task still consumes
        // its duration (the paper's failed tasks are billed too) but
        // finishes failed, tagged as an injected transient fault.
        if let Err(fault) = self.roll(Operation::NodeDeath, pool, None) {
            let _ = writeln!(record.stdout, "node died mid-task: {fault}");
            record.exit_code = -1;
            record.fault = Some(fault.kind);
        }
        // Spot pools can lose their nodes to capacity reclaim while a
        // compute task runs. The eviction check is keyed by pool name so
        // it replays identically under any worker count; the doomed task
        // consumes its runtime (the partial node-hours are billed when
        // the pool deprovisions below), fails with an eviction tag, and
        // the collector requeues or escalates it.
        let p = &self.pools[pool];
        if kind == TaskKind::Compute && p.capacity == Capacity::Spot {
            let region = p.region.clone();
            if let Err(fault) = self.roll(Operation::Eviction, pool, region.as_deref()) {
                let _ = writeln!(record.stdout, "spot capacity evicted mid-task: {fault}");
                record.exit_code = -1;
                record.fault = Some(fault.kind);
                record.evicted = true;
            }
        }
        self.clock.advance_to(self.clock.now() + record.duration);
        let p = self.pools.get_mut(pool).expect("the task's pool exists");
        if record.exit_code == 0 {
            record.state = TaskState::Completed;
            if kind == TaskKind::Setup {
                p.setup_done = true;
            }
        }
        // An eviction takes the whole pool with it: the provider reclaims
        // the nodes now, which closes the billing span at the eviction
        // instant — only the consumed (partial) node-hours are charged.
        // The pool object survives empty, setup state intact, so the
        // collector can resize it back up and retry.
        if record.evicted {
            if let Some(alloc) = p.allocation.take() {
                p.set_nodes(0);
                let _ = locked(&self.provider, &mut self.trace, |provider| {
                    provider.release_nodes(alloc)
                });
            }
        }
        // The shard-local timeline advances by the runner-reported duration
        // (deterministic), never by shared-clock readings.
        self.trace.advance(record.duration.as_secs_f64());
        if record.evicted {
            self.trace.emit("eviction", pool, |m| {
                m.insert("task", Value::str(&record.name));
            });
        }
        self.emit_task_end(&record, None);
        Ok(record)
    }

    /// Rolls an injected fault for `op` in a pool under this service's
    /// counter qualifier. Pools placed in a region (`pressure_region`)
    /// scale the plan's probabilistic rates by that region's spot-pressure
    /// multiplier; task faults pass `None` and keep pressure 1.0.
    fn roll(
        &mut self,
        op: Operation,
        pool: &str,
        pressure_region: Option<&str>,
    ) -> Result<(), Fault> {
        let qualifier = self.fault_qualifier.as_deref();
        locked(&self.provider, &mut self.trace, |p| {
            let pressure = pressure_region
                .and_then(|r| p.regions().get(r))
                .map_or(1.0, |r| r.spot_pressure);
            p.inject_fault(op, pool, pressure, qualifier)
        })
    }

    /// Fails a task that never started: it took no time.
    fn fail_unstarted(&mut self, mut record: TaskRecord, reason: &str) -> TaskRecord {
        record.stdout = format!("task failed before start: {reason}\n");
        self.emit_task_end(&record, Some(reason));
        record
    }

    /// Emits a finished task's `task_end` event, with the reason a task
    /// that never started failed.
    fn emit_task_end(&mut self, record: &TaskRecord, reason: Option<&str>) {
        self.trace.emit("task_end", &record.pool, |m| {
            m.insert("task", Value::str(&record.name));
            m.insert("task_kind", Value::str(kind_str(record.kind)));
            m.insert("secs", Value::Float(record.duration.as_secs_f64()));
            m.insert(
                "state",
                Value::str(match record.state {
                    TaskState::Completed => "completed",
                    TaskState::Failed => "failed",
                }),
            );
            if let Some(reason) = reason {
                m.insert("reason", Value::str(reason));
            }
        });
    }
}

/// Calls `f` on the provider and drains the events it buffered under the
/// same lock hold, so no other shard's provider events interleave into this
/// shard's trace, then stamps them onto `trace`.
fn locked<T>(
    provider: &SharedProvider,
    trace: &mut EventSink,
    f: impl FnOnce(&mut CloudProvider) -> T,
) -> T {
    let mut p = provider.lock();
    let out = f(&mut p);
    let drained = p.drain_trace();
    drop(p);
    trace.absorb(drained);
    out
}

/// Stable trace label for a task kind.
fn kind_str(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Setup => "setup",
        TaskKind::Compute => "compute",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share;
    use cloudsim::{CloudProvider, FaultPlan, ProviderConfig};
    use simtime::SimDuration;

    fn service() -> BatchService {
        let mut provider = CloudProvider::new(ProviderConfig::default()).unwrap();
        provider.create_resource_group("rg").unwrap();
        provider.create_vnet("rg", "vnet", "default").unwrap();
        provider.create_storage_account("rg", "stor").unwrap();
        provider.create_batch_account("rg", "batch").unwrap();
        BatchService::new(share(provider), "rg")
    }

    fn quick_runner(secs: u64) -> Runner {
        Box::new(move |_ctx| TaskResult::ok(SimDuration::from_secs(secs), "done\n"))
    }

    #[test]
    fn pool_lifecycle() {
        let mut svc = service();
        svc.create_pool("p1", "HB120rs_v3").unwrap();
        assert_eq!(svc.pool("p1").unwrap().nodes, 0);
        svc.resize_pool("p1", 4).unwrap();
        assert_eq!(svc.pool("p1").unwrap().nodes, 4);
        svc.resize_pool("p1", 8).unwrap();
        assert_eq!(svc.pool("p1").unwrap().nodes, 8);
        svc.delete_pool("p1").unwrap();
        assert_eq!(svc.pool("p1").unwrap().state, PoolState::Deleted);
        assert!(svc.resize_pool("p1", 2).is_err(), "deleted pool unusable");
    }

    #[test]
    fn duplicate_pool_rejected_unknown_sku_rejected() {
        let mut svc = service();
        svc.create_pool("p1", "HC44rs").unwrap();
        assert!(svc.create_pool("p1", "HC44rs").is_err());
        assert!(svc.create_pool("p2", "NoSuchSku").is_err());
    }

    #[test]
    fn task_runs_and_completes() {
        let mut svc = service();
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 2).unwrap();
        let before = svc.clock().now();
        let rec = svc
            .run_task(
                "p1",
                "scenario-1",
                TaskKind::Compute,
                2,
                44,
                quick_runner(120),
            )
            .unwrap();
        assert_eq!(rec.state, TaskState::Completed);
        assert_eq!(rec.exit_code, 0);
        assert_eq!(rec.duration, SimDuration::from_secs(120));
        assert_eq!(svc.clock().now() - before, SimDuration::from_secs(120));
        // The task holds no nodes once it returns: the pool resizes at once.
        svc.resize_pool("p1", 4).unwrap();
        assert_eq!(svc.pool("p1").unwrap().nodes, 4);
    }

    #[test]
    fn record_duration() {
        let mut svc = service();
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 1).unwrap();
        let before = svc.clock().now();
        // A sibling pool advances the shared clock while the task runs; the
        // record keeps the runner's own duration.
        let clock = svc.clock();
        let runner = move |_: &TaskContext| {
            clock.advance_by(SimDuration::from_secs(30));
            TaskResult::ok(SimDuration::from_secs(12), "")
        };
        let rec = svc
            .run_task("p1", "t", TaskKind::Compute, 1, 44, runner)
            .unwrap();
        assert_eq!(rec.duration, SimDuration::from_secs(12));
        assert_eq!(svc.clock().now() - before, SimDuration::from_secs(42));
        // A task that never started took no time.
        let rec = svc
            .run_task("p1", "huge", TaskKind::Compute, 2, 44, quick_runner(5))
            .unwrap();
        assert_eq!(rec.state, TaskState::Failed);
        assert_eq!(rec.duration, SimDuration::ZERO);
        assert_eq!(svc.clock().now() - before, SimDuration::from_secs(42));
    }

    #[test]
    fn a_task_runs_on_the_pools_first_nodes() {
        let mut svc = service();
        svc.create_pool("p1", "HB120rs_v3").unwrap();
        svc.resize_pool("p1", 3).unwrap();
        let seen = |svc: &mut BatchService, nodes: u32| {
            let (tx, rx) = std::sync::mpsc::channel();
            let runner = move |ctx: &TaskContext| {
                tx.send(ctx.clone()).unwrap();
                TaskResult::ok(SimDuration::from_secs(7), "")
            };
            let before = svc.clock().now();
            svc.run_task("p1", "t", TaskKind::Compute, nodes, 2, runner)
                .unwrap();
            assert_eq!(svc.clock().now() - before, SimDuration::from_secs(7));
            rx.recv().unwrap()
        };
        let one = seen(&mut svc, 1);
        assert_eq!(one.hostlist_ppn(), "p1-0000:2");
        assert_eq!(one.hostfile(), "p1-0000 slots=2\n");
        let all = seen(&mut svc, 3);
        assert!(Arc::ptr_eq(&all.hosts, &svc.pool("p1").unwrap().hosts));
        // A second task of a layout shares the first one's texts.
        let again = seen(&mut svc, 1);
        assert!(Arc::ptr_eq(&one.hostfile_text, &again.hostfile_text));
        assert!(Arc::ptr_eq(
            &one.hostlist_ppn_text,
            &again.hostlist_ppn_text
        ));
    }

    #[test]
    fn host_lists_survive_an_eviction_and_re_provision() {
        let mut provider = CloudProvider::new(ProviderConfig::default()).unwrap();
        provider.create_resource_group("rg").unwrap();
        provider.create_vnet("rg", "vnet", "default").unwrap();
        provider.create_storage_account("rg", "stor").unwrap();
        provider.create_batch_account("rg", "batch").unwrap();
        provider.set_fault_plan(FaultPlan::none().fail_nth(Operation::Eviction, 0));
        let mut svc = BatchService::new(share(provider), "rg");
        svc.create_pool("p1", "HB120rs_v3").unwrap();
        svc.set_pool_capacity("p1", Capacity::Spot).unwrap();
        let run = |svc: &mut BatchService, nodes: u32| {
            let (tx, rx) = std::sync::mpsc::channel();
            let runner = move |ctx: &TaskContext| {
                tx.send(ctx.clone()).unwrap();
                TaskResult::ok(SimDuration::from_secs(60), "")
            };
            let rec = svc
                .run_task("p1", "t", TaskKind::Compute, nodes, 120, runner)
                .unwrap();
            (rec, rx.recv().unwrap())
        };
        svc.resize_pool("p1", 2).unwrap();
        let (rec, before) = run(&mut svc, 2);
        assert!(rec.evicted);
        assert_eq!(svc.pool("p1").unwrap().nodes, 0);
        svc.resize_pool("p1", 3).unwrap();
        let (rec, after) = run(&mut svc, 2);
        assert!(!rec.evicted);
        assert_eq!(after.hostlist_ppn(), "p1-0000:120,p1-0001:120");
        assert_eq!(after.hostfile(), "p1-0000 slots=120\np1-0001 slots=120\n");
        assert_eq!(after.hostfile_text, before.hostfile_text);
        let (_, all) = run(&mut svc, 3);
        assert_eq!(all.hostlist_ppn(), "p1-0000:120,p1-0001:120,p1-0002:120");
    }

    #[test]
    fn context_carries_table1_environment() {
        let mut svc = service();
        svc.create_pool("p1", "HB120rs_v3").unwrap();
        svc.resize_pool("p1", 3).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let runner: Runner = Box::new(move |ctx| {
            tx.send((
                ctx.nnodes(),
                ctx.ppn,
                ctx.hostlist_ppn(),
                ctx.sku.name.clone(),
            ))
            .unwrap();
            TaskResult::ok(SimDuration::from_secs(1), "")
        });
        svc.run_task("p1", "t", TaskKind::Compute, 3, 120, runner)
            .unwrap();
        let (nnodes, ppn, hostlist, sku) = rx.recv().unwrap();
        assert_eq!(nnodes, 3);
        assert_eq!(ppn, 120);
        assert_eq!(hostlist, "p1-0000:120,p1-0001:120,p1-0002:120");
        assert_eq!(sku, "Standard_HB120rs_v3");
    }

    #[test]
    fn failing_task_marked_failed() {
        let mut svc = service();
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 1).unwrap();
        let runner: Runner = Box::new(|_| {
            TaskResult::failed(
                SimDuration::from_secs(5),
                "Simulation did not complete\n",
                1,
            )
        });
        let rec = svc
            .run_task("p1", "bad", TaskKind::Compute, 1, 44, runner)
            .unwrap();
        assert_eq!(rec.state, TaskState::Failed);
        assert_eq!(rec.exit_code, 1);
        assert!(rec.stdout.contains("did not complete"));
    }

    #[test]
    fn oversized_task_fails_not_hangs() {
        let mut svc = service();
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 2).unwrap();
        let rec = svc
            .run_task("p1", "huge", TaskKind::Compute, 16, 44, quick_runner(1))
            .unwrap();
        assert_eq!(rec.state, TaskState::Failed);
        assert!(rec.stdout.contains("needs 16"));
    }

    #[test]
    fn setup_task_marks_pool() {
        let mut svc = service();
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 1).unwrap();
        assert!(!svc.pool("p1").unwrap().setup_done);
        svc.run_task("p1", "setup", TaskKind::Setup, 1, 1, quick_runner(30))
            .unwrap();
        assert!(svc.pool("p1").unwrap().setup_done);
    }

    #[test]
    fn injected_task_fault() {
        let mut provider = CloudProvider::new(ProviderConfig::default()).unwrap();
        provider.create_resource_group("rg").unwrap();
        provider.create_vnet("rg", "vnet", "default").unwrap();
        provider.create_storage_account("rg", "stor").unwrap();
        provider.create_batch_account("rg", "batch").unwrap();
        provider.set_fault_plan(FaultPlan::none().fail_nth(Operation::RunTask, 0));
        let mut svc = BatchService::new(share(provider), "rg");
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 1).unwrap();
        let rec = svc
            .run_task("p1", "t", TaskKind::Compute, 1, 44, quick_runner(10))
            .unwrap();
        assert_eq!(rec.state, TaskState::Failed);
        assert!(rec.stdout.contains("injected transient failure"));
        assert_eq!(rec.fault, Some(cloudsim::FaultKind::Transient));
        // Nodes are back; the next task succeeds.
        let rec2 = svc
            .run_task("p1", "t2", TaskKind::Compute, 1, 44, quick_runner(10))
            .unwrap();
        assert_eq!(rec2.state, TaskState::Completed);
    }

    #[test]
    fn node_death_fails_task_after_it_consumed_time() {
        let mut provider = CloudProvider::new(ProviderConfig::default()).unwrap();
        provider.create_resource_group("rg").unwrap();
        provider.create_vnet("rg", "vnet", "default").unwrap();
        provider.create_storage_account("rg", "stor").unwrap();
        provider.create_batch_account("rg", "batch").unwrap();
        provider.set_fault_plan(FaultPlan::none().fail_nth(Operation::NodeDeath, 0));
        let mut svc = BatchService::new(share(provider), "rg");
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 1).unwrap();
        let before = svc.clock().now();
        let rec = svc
            .run_task("p1", "t", TaskKind::Compute, 1, 44, quick_runner(60))
            .unwrap();
        assert_eq!(rec.state, TaskState::Failed);
        assert_eq!(rec.fault, Some(cloudsim::FaultKind::Transient));
        assert!(rec.stdout.contains("node died mid-task"));
        // The doomed task still consumed its runtime before dying.
        assert_eq!(svc.clock().now() - before, SimDuration::from_secs(60));
        // Nodes freed; the next task is unaffected.
        let rec2 = svc
            .run_task("p1", "t2", TaskKind::Compute, 1, 44, quick_runner(10))
            .unwrap();
        assert_eq!(rec2.state, TaskState::Completed);
    }

    #[test]
    fn eviction_preempts_spot_pool_and_bills_partial_span() {
        let mut provider = CloudProvider::new(ProviderConfig::default()).unwrap();
        provider.create_resource_group("rg").unwrap();
        provider.create_vnet("rg", "vnet", "default").unwrap();
        provider.create_storage_account("rg", "stor").unwrap();
        provider.create_batch_account("rg", "batch").unwrap();
        // First eviction check fires; later ones don't.
        provider.set_fault_plan(FaultPlan::none().fail_nth(Operation::Eviction, 0));
        let mut svc = BatchService::new(share(provider), "rg");
        svc.create_pool("p1", "HB120rs_v3").unwrap();
        svc.set_pool_capacity("p1", Capacity::Spot).unwrap();
        svc.resize_pool("p1", 2).unwrap();

        let rec = svc
            .run_task("p1", "t", TaskKind::Compute, 2, 120, quick_runner(600))
            .unwrap();
        assert_eq!(rec.state, TaskState::Failed);
        assert!(rec.evicted, "eviction is tagged");
        assert_eq!(rec.fault, Some(cloudsim::FaultKind::Transient));
        assert!(rec.stdout.contains("evicted mid-task"));
        // The whole pool was reclaimed; its billing span closed at the
        // eviction instant with only the consumed node-hours, spot-priced.
        let pool = svc.pool("p1").unwrap();
        assert_eq!(pool.nodes, 0);
        assert!(pool.allocation.is_none());
        assert_eq!(pool.capacity, Capacity::Spot);
        {
            let provider = svc.provider.lock();
            let records = provider.billing().records();
            assert_eq!(records.len(), 1);
            let full_rate = 3.60 * 2.0 * (600.0 / 3600.0);
            assert!(records[0].cost > 0.0, "partial span is billed");
            assert!(
                records[0].cost < full_rate,
                "spot discount applied: {} < {full_rate}",
                records[0].cost
            );
        }
        // The collector's requeue path: resize back up and retry — the
        // second attempt survives (the plan only fired once per scope).
        svc.resize_pool("p1", 2).unwrap();
        let rec2 = svc
            .run_task(
                "p1",
                "t-retry",
                TaskKind::Compute,
                2,
                120,
                quick_runner(600),
            )
            .unwrap();
        assert_eq!(rec2.state, TaskState::Completed);
        assert!(!rec2.evicted);
    }

    #[test]
    fn dedicated_pools_never_see_eviction_checks() {
        let mut provider = CloudProvider::new(ProviderConfig::default()).unwrap();
        provider.create_resource_group("rg").unwrap();
        provider.create_vnet("rg", "vnet", "default").unwrap();
        provider.create_storage_account("rg", "stor").unwrap();
        provider.create_batch_account("rg", "batch").unwrap();
        // Even an always-evict plan cannot touch dedicated capacity.
        provider.set_fault_plan(FaultPlan::none().evict_pressure(1.0));
        let mut svc = BatchService::new(share(provider), "rg");
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 1).unwrap();
        let rec = svc
            .run_task("p1", "t", TaskKind::Compute, 1, 44, quick_runner(30))
            .unwrap();
        assert_eq!(rec.state, TaskState::Completed);
        assert!(!rec.evicted);
        assert_eq!(
            svc.provider
                .lock()
                .fault_attempts(Operation::Eviction, "p1"),
            0,
            "no eviction roll was consumed"
        );
    }

    #[test]
    fn regional_pool_draws_regional_quota_and_price() {
        let mut svc = service();
        svc.create_pool_in("p1", "HB120rs_v3", Some("westeurope"))
            .unwrap();
        assert_eq!(
            svc.pool("p1").unwrap().region.as_deref(),
            Some("westeurope")
        );
        svc.resize_pool("p1", 2).unwrap();
        {
            let mut provider = svc.provider.lock();
            assert_eq!(provider.quota_mut().used("HBv3"), 0, "home pool untouched");
            assert_eq!(
                provider.quota_mut_in("westeurope").unwrap().used("HBv3"),
                240
            );
        }
        svc.clock().advance_by(SimDuration::from_hours(1));
        svc.resize_pool("p1", 0).unwrap();
        let provider = svc.provider.lock();
        let records = provider.billing().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].region, "westeurope");
        // Billed at westeurope's 1.08 price multiplier.
        assert!(records[0].cost >= 2.0 * 3.60 * 1.08);
    }

    #[test]
    fn create_pool_in_unknown_region_rejected() {
        let mut svc = service();
        assert!(matches!(
            svc.create_pool_in("p1", "HC44rs", Some("atlantis")),
            Err(BatchError::Cloud(CloudError::UnknownRegion(_)))
        ));
    }

    #[test]
    fn regional_spot_evictions_scale_with_spot_pressure() {
        // southeastasia's spot pressure is 1.6: a 0.625 probabilistic
        // eviction rate saturates to 1.0 there, so every compute task on a
        // spot pool placed there is evicted; the same plan at home (pressure
        // 1.0) keeps the unscaled rate and lets some tasks through.
        let run = |region: Option<&str>| -> (u32, u32) {
            let mut provider = CloudProvider::new(ProviderConfig::default()).unwrap();
            provider.create_resource_group("rg").unwrap();
            provider.create_vnet("rg", "vnet", "default").unwrap();
            provider.create_storage_account("rg", "stor").unwrap();
            provider.create_batch_account("rg", "batch").unwrap();
            provider.set_fault_plan(FaultPlan::none().seed(11).evict_pressure(0.625));
            let mut svc = BatchService::new(share(provider), "rg");
            svc.create_pool_in("p1", "HB120rs_v3", region).unwrap();
            svc.set_pool_capacity("p1", Capacity::Spot).unwrap();
            let (mut evicted, mut completed) = (0, 0);
            for i in 0..6 {
                svc.resize_pool("p1", 1).unwrap();
                let rec = svc
                    .run_task(
                        "p1",
                        format!("t{i}"),
                        TaskKind::Compute,
                        1,
                        120,
                        quick_runner(60),
                    )
                    .unwrap();
                if rec.evicted {
                    evicted += 1;
                } else {
                    completed += 1;
                }
                svc.resize_pool("p1", 0).unwrap();
            }
            (evicted, completed)
        };
        let (pressured_evicted, pressured_completed) = run(Some("southeastasia"));
        assert_eq!(pressured_evicted, 6, "saturated rate evicts every task");
        assert_eq!(pressured_completed, 0);
        let (home_evicted, home_completed) = run(None);
        assert!(
            home_completed > 0,
            "unscaled rate lets some through ({home_evicted} evicted)"
        );
        assert!(home_evicted < pressured_evicted);
    }

    #[test]
    fn capacity_switch_requires_empty_pool() {
        let mut svc = service();
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 2).unwrap();
        assert!(
            svc.set_pool_capacity("p1", Capacity::Spot).is_err(),
            "capacity switch on a populated pool is rejected"
        );
        svc.resize_pool("p1", 0).unwrap();
        svc.set_pool_capacity("p1", Capacity::Spot).unwrap();
        assert_eq!(svc.pool("p1").unwrap().capacity, Capacity::Spot);
    }

    #[test]
    fn resize_closes_billing_spans() {
        let mut svc = service();
        svc.create_pool("p1", "HB120rs_v3").unwrap();
        svc.resize_pool("p1", 2).unwrap();
        svc.clock().advance_by(SimDuration::from_hours(1));
        svc.resize_pool("p1", 0).unwrap();
        let provider = svc.provider.lock();
        let records = provider.billing().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].nodes, 2);
        assert!(records[0].cost >= 2.0 * 3.60);
    }

    #[test]
    fn trace_stamps_pool_and_task_spans_on_local_timeline() {
        let mut svc = service();
        svc.provider.lock().set_trace_enabled(true);
        svc.set_trace(telemetry::EventSink::for_shard(0));
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 2).unwrap();
        svc.run_task("p1", "t", TaskKind::Compute, 2, 44, quick_runner(120))
            .unwrap();
        let events = svc.take_trace();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "pool_create",
                "pool_resize",
                "fault_roll", // AllocateNodes
                "quota",
                "fault_roll", // BootNode
                "provision",
                "node_boot",
                "fault_roll", // RunTask
                "task_start",
                "fault_roll", // NodeDeath
                "task_end",
            ]
        );
        let boot = 150.0 + 10.0 * 2f64.ln_1p();
        let node_boot = &events[6];
        assert_eq!(node_boot.t, 0.0, "boot starts the local timeline");
        assert_eq!(node_boot.f64_field("boot_secs"), Some(boot));
        let start = &events[8];
        assert_eq!(start.t, boot, "task starts when nodes are up");
        let end = &events[10];
        assert_eq!(end.t, boot + 120.0, "timeline advanced by task duration");
        assert_eq!(end.f64_field("secs"), Some(120.0));
        assert_eq!(end.str_field("state"), Some("completed"));
        assert!(events.iter().all(|e| e.shard == 0));
    }

    #[test]
    fn trace_disabled_service_emits_nothing() {
        let mut svc = service();
        svc.create_pool("p1", "HC44rs").unwrap();
        svc.resize_pool("p1", 1).unwrap();
        svc.run_task("p1", "t", TaskKind::Compute, 1, 44, quick_runner(10))
            .unwrap();
        assert!(svc.take_trace().is_empty());
    }
}
