//! Per-layer probes: replay a workload's own inputs through one layer's
//! public functions and time each call.
//!
//! The program has no wall-clock profile of its own yet, so the traced run
//! estimates how the `core.collect` span splits across layers as
//! `count × µs/call`: counts come from the program's deterministic sim
//! trace, µs/call from these probes. Each probe mirrors what the collector
//! does per task:
//!
//! - taskshell: one fresh `Interpreter` per task over a clone of the
//!   chunk's filesystem, with the collector's task environment, loading
//!   the app script and calling `hpcadvisor_run`, then cloning the
//!   filesystem back — the filesystem starts from a setup-prepared
//!   snapshot and grows for one chunk;
//! - appmodel: `AppRegistry::run` for the same scenario and the same
//!   exported variables (the part of the task the `mpirun` builtin spends
//!   in the model);
//! - batchsim: `BatchService::run_task` with a constant runner, 32 tasks
//!   per pool, so only the orchestrator's own event loop is timed;
//! - cloudsim: one `allocate_nodes_in` + `release_nodes` pair;
//! - journal and cache: appending and saving the run's own data points.

use crate::stats::median;
use crate::workloads::PRIMARY_REGION;
use appmodel::{AppRegistry, Inputs, MachineProfile};
use batchsim::{BatchService, TaskContext, TaskKind, TaskResult};
use cloudsim::{Capacity, CloudProvider, ProviderConfig, SkuCatalog};
use hpcadvisor_core::appscript::{bundled_script, seed_urlstore};
use hpcadvisor_core::cache::{Fingerprint, ScenarioCache};
use hpcadvisor_core::{
    CollectPlan, Dataset, JournalEntry, RunJournal, Scenario, Session, UserConfig,
};
use simtime::SimDuration;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use taskshell::{ExecutionEnv, Interpreter, UrlStore, Vfs};

/// Scenarios replayed through the task-level probes.
const TASK_SAMPLES: usize = 256;
/// Tasks a collector chunk runs on one filesystem clone (its default
/// chunk size).
const CHUNK: usize = 32;
/// Repetitions of the small probes.
const SMALL_SAMPLES: usize = 64;

/// Per-call times of each probed layer.
#[derive(Debug, Clone, Default)]
pub struct ProbeTimes {
    /// `parser::parse` of the app script.
    pub parse_us: f64,
    /// One task's interpreter work, excluding the app model.
    pub task_us: f64,
    /// One filesystem clone (a task makes two).
    pub vfs_clone_us: f64,
    /// One `AppRegistry::run`.
    pub appmodel_us: f64,
    /// One `BatchService::run_task` with a constant runner.
    pub batchsim_task_us: f64,
    /// One allocate + release pair on the provider.
    pub cloudsim_call_us: f64,
    /// One `RunJournal::append`.
    pub journal_append_us: f64,
    /// Inserting the run's points into a fresh store and saving it.
    pub cache_save_ms: f64,
}

impl ProbeTimes {
    /// Field-wise median of several probe runs.
    pub fn median(runs: &[ProbeTimes]) -> ProbeTimes {
        let field = |f: fn(&ProbeTimes) -> f64| med(&runs.iter().map(f).collect::<Vec<_>>());
        ProbeTimes {
            parse_us: field(|p| p.parse_us),
            task_us: field(|p| p.task_us),
            vfs_clone_us: field(|p| p.vfs_clone_us),
            appmodel_us: field(|p| p.appmodel_us),
            batchsim_task_us: field(|p| p.batchsim_task_us),
            cloudsim_call_us: field(|p| p.cloudsim_call_us),
            journal_append_us: field(|p| p.journal_append_us),
            cache_save_ms: field(|p| p.cache_save_ms),
        }
    }
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Evenly spaced sample of at most `n` scenarios.
fn sample(scenarios: &[Scenario], n: usize) -> Vec<&Scenario> {
    let step = scenarios.len().div_ceil(n).max(1);
    scenarios.iter().step_by(step).collect()
}

/// Runs every probe over the workload's `config`, `scenarios` and the
/// `dataset` one of its reps produced; the probe tasks are checked
/// against the dataset (see [`probe_tasks`]). Scratch files go under
/// `dir`.
pub fn run(
    config: &UserConfig,
    seed: u64,
    scenarios: &[Scenario],
    dataset: &Dataset,
    dir: &Path,
) -> Result<ProbeTimes, String> {
    let mut times = ProbeTimes::default();
    let script = bundled_script(&config.appname)
        .ok_or_else(|| format!("no bundled script for {}", config.appname))?;
    let tasks = sample(scenarios, TASK_SAMPLES);

    let mut parse = Vec::with_capacity(SMALL_SAMPLES);
    for _ in 0..SMALL_SAMPLES {
        let t = Instant::now();
        black_box(taskshell::parser::parse(black_box(script)).map_err(|e| e.to_string())?);
        parse.push(micros(t));
    }
    times.parse_us = med(&parse);

    let (task, clone, model) = probe_tasks(config, seed, &tasks, script, dataset)?;
    times.task_us = (med(&task) - med(&model)).max(0.0);
    times.vfs_clone_us = med(&clone);
    times.appmodel_us = med(&model);
    times.batchsim_task_us = probe_batchsim(&tasks)?;
    times.cloudsim_call_us = probe_cloudsim(&tasks)?;
    times.journal_append_us = probe_journal(dataset, &dir.join("probe-journal.jsonl"))?;
    times.cache_save_ms = probe_cache_save(dataset, &dir.join("probe-store.bin"))?;
    Ok(times)
}

/// The filesystem a chunk starts from: a session over the same config
/// after its setup task ran (one scenario collected).
fn setup_snapshot(config: &UserConfig, seed: u64) -> Result<(Vfs, String), String> {
    let mut session = Session::create(config.clone(), seed).map_err(|e| e.to_string())?;
    let first = session.scenarios()[0].id;
    session
        .collect_with(&CollectPlan::new().subset(vec![first]))
        .map_err(|e| e.to_string())?;
    let vfs = session.shared_vfs().lock().clone();
    let app_dir = format!("/share/{}/apps/{}", session.deployment(), config.appname);
    Ok((vfs, app_dir))
}

type Samples = Vec<f64>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The `TaskContext` batchsim hands each scenario's compute task. Hosts
/// are named after their pool, so the pool is named as the collector
/// names it (`pool_name_for` in `crates/core/src/collector.rs`): after the
/// SKU, plus the region the scenario was placed in when it failed over.
fn task_contexts(tasks: &[&Scenario], dataset: &Dataset) -> Result<Vec<TaskContext>, String> {
    let placed: HashMap<u32, &str> = dataset
        .points
        .iter()
        .filter_map(|p| Some((p.scenario_id, p.region.as_deref()?)))
        .collect();
    let mut current: Option<(String, BatchService)> = None;
    let mut contexts = Vec::with_capacity(tasks.len());
    for s in tasks {
        let mut name = format!(
            "pool-{}",
            s.sku.to_ascii_lowercase().replace("standard_", "")
        );
        if let Some(region) = placed.get(&s.id) {
            name = format!("{name}-{}", region.to_ascii_lowercase());
        }
        if current.as_ref().is_none_or(|(pool, _)| *pool != name) {
            let mut svc = BatchService::new(batchsim::share(provider()?), "rg");
            svc.create_pool(&name, &s.sku).map_err(err)?;
            current = Some((name, svc));
        }
        let (pool, svc) = current.as_mut().expect("set above");
        if svc.pool(pool).is_some_and(|p| p.nodes < s.nnodes) {
            svc.resize_pool(pool, s.nnodes).map_err(err)?;
        }
        let seen = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&seen);
        let runner: batchsim::service::Runner = Box::new(move |ctx: &TaskContext| {
            *slot.lock().expect("unpoisoned") = Some(ctx.clone());
            TaskResult::ok(SimDuration::from_secs(1), "")
        });
        let name = format!("t{}", s.id);
        svc.run_task(pool, &name, TaskKind::Compute, s.nnodes, s.ppn, runner)
            .map_err(err)?;
        let ctx = seen.lock().expect("unpoisoned").take();
        contexts.push(ctx.ok_or_else(|| format!("the task of scenario {} never ran", s.id))?);
    }
    Ok(contexts)
}

/// The value of `HPCADVISORVAR <key>=…` in a task's output.
fn scraped<'a>(stdout: &'a str, key: &str) -> Option<&'a str> {
    stdout.lines().find_map(|l| {
        let (k, v) = l.strip_prefix("HPCADVISORVAR ")?.split_once('=')?;
        (k.trim() == key).then(|| v.trim())
    })
}

/// Times the interpreter, filesystem clones and app model of each sampled
/// task. The task environment mirrors the collector's
/// (`run_compute_task_once` and `run_script_task` in
/// `crates/core/src/collector.rs`) and must follow changes there; two
/// checks catch a drift. The app model is called with the same variables
/// the interpreter exports to `mpirun`, and its log must be the one the
/// task printed. Each task must also print the `APPEXECTIME` the collect
/// recorded for its scenario; the model seeds its noise with every input,
/// so any variable that differs from the collector's shows there.
fn probe_tasks(
    config: &UserConfig,
    seed: u64,
    tasks: &[&Scenario],
    script: &str,
    dataset: &Dataset,
) -> Result<(Samples, Samples, Samples), String> {
    let (snapshot, app_dir) = setup_snapshot(config, seed)?;
    let contexts = task_contexts(tasks, dataset)?;
    let recorded: HashMap<u32, &str> = dataset
        .points
        .iter()
        .filter_map(|p| Some((p.scenario_id, p.metric("APPEXECTIME")?)))
        .collect();
    let catalog = SkuCatalog::azure_hpc();
    let registry = Arc::new(AppRegistry::standard());
    let mut urls = UrlStore::with_known_inputs();
    seed_urlstore(&mut urls, &config.appsetupurl, &config.appname);
    let (mut task, mut clone, mut model) = (Vec::new(), Vec::new(), Vec::new());
    let mut chunk_vfs = snapshot.clone();
    for (i, (s, ctx)) in tasks.iter().zip(&contexts).enumerate() {
        if i % CHUNK == 0 {
            chunk_vfs = snapshot.clone();
        }
        let sku = catalog
            .get(&s.sku)
            .ok_or_else(|| format!("unknown SKU {}", s.sku))?
            .clone();
        let task_dir = format!("{app_dir}/task-{}", s.id);
        let hostfile_path = format!("{task_dir}/hostfile");
        let mut env: Vec<(String, String)> = vec![
            ("NNODES".into(), s.nnodes.to_string()),
            ("PPN".into(), s.ppn.to_string()),
            ("SKU".into(), s.sku.clone()),
            ("VMTYPE".into(), s.sku.clone()),
            ("TASKRUN_DIR".into(), task_dir.clone()),
        ];
        env.extend(s.appinputs.iter().cloned());
        env.push(("HOSTLIST_PPN".into(), ctx.hostlist_ppn()));
        env.push(("HOSTFILE_PATH".into(), hostfile_path.clone()));

        let t = Instant::now();
        let vfs = chunk_vfs.clone();
        clone.push(micros(t));

        let t = Instant::now();
        let mut interp = Interpreter::new(
            ExecutionEnv {
                sku: sku.clone(),
                registry: registry.clone(),
                experiment_seed: seed,
            },
            vfs,
            urls.clone(),
        );
        interp.set_cwd(&task_dir);
        for (k, v) in &env {
            interp.set_var(k, v);
        }
        interp.vfs_mut().write(&hostfile_path, ctx.hostfile());
        interp.load_script(script).map_err(err)?;
        let out = interp.call_function("hpcadvisor_run").map_err(err)?;
        task.push(micros(t));
        if out.exit_code != 0 {
            return Err(format!("probe task {} exited {}", s.id, out.exit_code));
        }

        let t = Instant::now();
        chunk_vfs = interp.vfs().clone();
        clone.push(micros(t));

        let inputs: Inputs = env.into_iter().collect();
        let t = Instant::now();
        let machine = MachineProfile::from_sku(&sku);
        let run = registry
            .run(&config.appname, &machine, s.nnodes, s.ppn, &inputs, seed)
            .map_err(err)?;
        model.push(micros(t));

        if !out.stdout.contains(&run.log) {
            return Err(format!(
                "scenario {}: the app model's log differs from the one the probe task \
                 printed, so the probe's model inputs are not the task's",
                s.id
            ));
        }
        let printed = scraped(&out.stdout, "APPEXECTIME");
        if printed != recorded.get(&s.id).copied() {
            return Err(format!(
                "scenario {}: the probe task printed APPEXECTIME {printed:?}, the collect \
                 recorded {:?}; the probe no longer mirrors the collector's task environment",
                s.id,
                recorded.get(&s.id)
            ));
        }
    }
    Ok((task, clone, model))
}

/// A provider with the resource group a batch account needs.
fn provider() -> Result<CloudProvider, String> {
    let mut p = CloudProvider::new(ProviderConfig::default()).map_err(|e| e.to_string())?;
    p.create_resource_group("rg").map_err(|e| e.to_string())?;
    p.create_vnet("rg", "vnet", "default")
        .map_err(|e| e.to_string())?;
    p.create_storage_account("rg", "stor")
        .map_err(|e| e.to_string())?;
    p.create_batch_account("rg", "batch")
        .map_err(|e| e.to_string())?;
    Ok(p)
}

fn probe_batchsim(tasks: &[&Scenario]) -> Result<f64, String> {
    let mut svc = BatchService::new(batchsim::share(provider()?), "rg");
    let mut times = Vec::new();
    let mut skus: Vec<&str> = tasks.iter().map(|s| s.sku.as_str()).collect();
    skus.dedup();
    for (p, sku) in skus.iter().enumerate() {
        let pool = format!("pool-{p}");
        svc.create_pool(&pool, sku).map_err(|e| e.to_string())?;
        let nodes = tasks.iter().map(|s| s.nnodes).max().unwrap_or(1);
        svc.resize_pool(&pool, nodes).map_err(|e| e.to_string())?;
        for (i, s) in tasks
            .iter()
            .filter(|s| s.sku == *sku)
            .take(CHUNK)
            .enumerate()
        {
            let runner: batchsim::service::Runner =
                Box::new(|_| TaskResult::ok(SimDuration::from_secs(60), "done\n"));
            let t = Instant::now();
            let rec = svc
                .run_task(
                    &pool,
                    &format!("t{i}"),
                    TaskKind::Compute,
                    s.nnodes,
                    s.ppn,
                    runner,
                )
                .map_err(|e| e.to_string())?;
            times.push(micros(t));
            black_box(rec);
        }
        svc.delete_pool(&pool).map_err(|e| e.to_string())?;
    }
    Ok(med(&times))
}

fn probe_cloudsim(tasks: &[&Scenario]) -> Result<f64, String> {
    let mut p = provider()?;
    let mut times = Vec::new();
    for s in tasks.iter().cycle().take(SMALL_SAMPLES) {
        let t = Instant::now();
        let id = p
            .allocate_nodes_in("rg", &s.sku, s.nnodes, Capacity::Dedicated, PRIMARY_REGION)
            .map_err(|e| e.to_string())?;
        black_box(p.release_nodes(id).map_err(|e| e.to_string())?);
        times.push(micros(t));
    }
    Ok(med(&times))
}

fn synthetic_fingerprint(i: usize) -> Fingerprint {
    Fingerprint::from_hex(&format!("{i:032x}")).expect("32 hex digits")
}

fn probe_journal(dataset: &Dataset, path: &Path) -> Result<f64, String> {
    let mut journal = RunJournal::open_fresh(path);
    let mut times = Vec::new();
    for (i, p) in dataset.points.iter().take(512).enumerate() {
        let entry = JournalEntry {
            fingerprint: synthetic_fingerprint(i),
            scenario_id: p.scenario_id,
            status: p.status,
            attempts: 1,
            backoff_secs: 0.0,
            fail_reason: None,
            point: Some(p.clone()),
        };
        let t = Instant::now();
        journal.append(entry);
        times.push(micros(t));
    }
    drop(journal);
    let _ = std::fs::remove_file(path);
    Ok(med(&times))
}

/// Removes a binary cache store and its index sidecar.
pub fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut idx = path.as_os_str().to_os_string();
    idx.push(".idx");
    let _ = std::fs::remove_file(idx);
}

/// Bytes a binary cache store and its index occupy on disk.
pub fn store_bytes(path: &Path) -> u64 {
    let mut idx = path.as_os_str().to_os_string();
    idx.push(".idx");
    [path.as_os_str().to_os_string(), idx]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

fn probe_cache_save(dataset: &Dataset, path: &Path) -> Result<f64, String> {
    remove_store(path);
    let t = Instant::now();
    let mut cache = ScenarioCache::open(path);
    for (i, p) in dataset.points.iter().enumerate() {
        cache.insert(synthetic_fingerprint(i), p);
    }
    cache.save().map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    remove_store(path);
    Ok(ms)
}
