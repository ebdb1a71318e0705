//! The three collect workloads: `cold_sweep`, `warm_rerun` and
//! `chaos_sweep`.
//!
//! One rep is what `hpcadvisor collect && hpcadvisor advice` does on a work
//! directory: open the scenario-cache store and build the session (set-up),
//! collect the grid, write the dataset JSON and render the advice (time to
//! advice).

use crate::breakdown::{self, Layers};
use crate::probes::{self, remove_store, store_bytes, ProbeTimes};
use crate::report::{fnv1a, peak_rss_mib, reset_peak_rss, Outcome};
use crate::workloads::{chaos_config, chaos_faults, sweep_config, Workload};
use crate::Run;
use cloudsim::Capacity;
use hpcadvisor_core::{
    Advice, CollectPlan, CollectStats, DataFilter, RunJournal, ScenarioCache, Session,
    TraceSummary, UserConfig,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Samples gathered over a run's timed reps.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    open_ms: Vec<f64>,
    build_ms: Vec<f64>,
    time_to_advice: Vec<f64>,
    rate: Vec<f64>,
    json_ms: Vec<f64>,
    advice_ms: Vec<f64>,
    /// Collect wall seconds of untraced and traced reps.
    collect: Vec<f64>,
    traced_collect: Vec<f64>,
    busy_frac: Vec<f64>,
    /// Each rep's own peak RSS.
    peak_rss: Vec<f64>,
}

/// What a traced rep leaves for the per-layer report (identical on every
/// traced rep: the sim trace is deterministic).
struct Traced {
    summary: TraceSummary,
    stats: CollectStats,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn run_config(run: &Run) -> UserConfig {
    match run.workload {
        Workload::ChaosSweep => chaos_config(run.seed, run.size),
        _ => sweep_config(run.seed, run.size),
    }
}

/// The plan a workload collects under: one worker, on spot capacity for
/// the chaos sweep. On a 2-vCPU machine a second collect worker made
/// run-to-run medians spread 11–23%, more than any regression bound
/// could hold; multi-worker scaling stays with the CI `bench_large` tier.
fn plan(workload: Workload) -> CollectPlan {
    match workload {
        Workload::ChaosSweep => CollectPlan::new().capacity(Capacity::Spot),
        _ => CollectPlan::new(),
    }
}

/// Collects `config` cold into the store at `path`; returns the dataset
/// bytes (the warm rerun's reference and its pre-filled store).
fn prefill(config: &UserConfig, seed: u64, path: &Path) -> Result<String, String> {
    remove_store(path);
    let mut session = Session::builder(config.clone())
        .seed(seed)
        .cache(ScenarioCache::open(path))
        .build()
        .map_err(err)?;
    let report = session
        .collect_with(&plan(Workload::ColdSweep))
        .map_err(err)?;
    if report.stats.failed + report.stats.skipped + report.stats.timed_out > 0 {
        return Err(format!(
            "pre-fill collect did not complete: {:?}",
            report.stats
        ));
    }
    Ok(report.dataset.to_json())
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let config = run_config(run);
    let workload = run.workload;
    let rec = &run.rec;
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let mut traced: Option<Traced> = None;
    let mut digest: Option<u64> = None;
    let mut probe_runs: Vec<ProbeTimes> = Vec::new();
    let mut json_bytes = 0usize;
    let mut store_size = 0u64;
    let mut journal_stats = (0usize, 0u64);

    let warm_store = run.dir.join("warm-store.bin");
    let reference = match workload {
        Workload::WarmRerun => Some(prefill(&config, run.seed, &warm_store)?),
        _ => None,
    };
    let dataset_path = run.dir.join("dataset.json");
    let journal_path = run.dir.join("run-journal.jsonl");

    let reps = run.reps(|rep, timed| {
        // Traced runs alternate traced and untraced reps so the tracing
        // overhead is measured on the same grid in the same process.
        let trace_this = run.trace() && rep % 2 == 0;
        reset_peak_rss()?;
        let root = rec.enter("rep", None, rep);
        let t0 = Instant::now();
        let store: Option<PathBuf> = match workload {
            Workload::ColdSweep => Some(run.dir.join(format!("cold-store-{rep}.bin"))),
            Workload::WarmRerun => Some(warm_store.clone()),
            _ => None,
        };
        let t = Instant::now();
        let cache = rec.span("cache.open", root, rep, |_| {
            store.as_ref().map(ScenarioCache::open)
        });
        let open_ms = secs(t) * 1e3;
        let t = Instant::now();
        let mut session = rec
            .span("session.build", root, rep, |_| {
                let mut b = Session::builder(config.clone()).seed(run.seed);
                if let Some(cache) = cache {
                    b = b.cache(cache);
                }
                if workload == Workload::ChaosSweep {
                    b = b.journal(RunJournal::open_fresh(&journal_path));
                }
                let session = b.build()?;
                if workload == Workload::ChaosSweep {
                    session
                        .provider()
                        .lock()
                        .set_fault_plan(chaos_faults(run.seed));
                }
                Ok::<_, hpcadvisor_core::ToolError>(session)
            })
            .map_err(err)?;
        let build_ms = secs(t) * 1e3;
        let setup = secs(t0);

        let t1 = Instant::now();
        let report = rec
            .span("core.collect", root, rep, |_| {
                session.collect_with(&plan(workload).trace(trace_this))
            })
            .map_err(err)?;
        let collect = secs(t1);
        let t = Instant::now();
        let json = rec.span("formats.dataset_json", root, rep, |_| {
            let json = report.dataset.to_json();
            std::fs::write(&dataset_path, &json).map(|_| json)
        });
        let json = json.map_err(|e| format!("cannot write the dataset: {e}"))?;
        let json_ms = secs(t) * 1e3;
        let t = Instant::now();
        let advice = rec.span("core.advice", root, rep, |_| {
            Advice::from_dataset(&report.dataset, &DataFilter::all()).render_text()
        });
        let advice_ms = secs(t) * 1e3;
        let time_to_advice = secs(t1);
        rec.exit(root);
        black_box(advice);
        let peak_rss = peak_rss_mib()?;

        // Output checks, untimed.
        let n = session.scenarios().len();
        let st = &report.stats;
        let unfinished = st.failed + st.skipped + st.timed_out;
        out.check(unfinished == 0 && st.completed == n, || {
            format!(
                "rep {rep}: {} of {n} scenarios completed ({} failed, {} skipped, {} timed out)",
                st.completed, st.failed, st.skipped, st.timed_out
            )
        });
        let d = fnv1a(json.as_bytes());
        out.check(digest.is_none_or(|prev| prev == d), || {
            format!("rep {rep}: dataset digest {d:016x} differs from the first rep's")
        });
        digest = Some(d);
        json_bytes = json.len();
        if let Some(reference) = &reference {
            out.check(&json == reference, || {
                format!("rep {rep}: warm dataset bytes differ from the cold collect's")
            });
            out.check(st.cache_hits == n, || {
                format!(
                    "rep {rep}: {} of {n} scenarios hit the cache",
                    st.cache_hits
                )
            });
        }
        if trace_this && timed {
            // Probed after every traced rep, so per-call costs are measured
            // under the same machine conditions as the collects they split.
            probe_runs.push(probes::run(
                &config,
                run.seed,
                session.scenarios(),
                &report.dataset,
                &run.dir,
            )?);
            s.traced_collect.push(collect);
            traced = Some(Traced {
                summary: report.trace_summary().expect("traced rep has a trace"),
                stats: report.stats.clone(),
            });
            if let Some(path) = &store {
                store_size = store_bytes(path);
            }
            if workload == Workload::ChaosSweep {
                drop(session);
                let journal = RunJournal::open(&journal_path);
                let bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
                journal_stats = (journal.len(), bytes);
            }
        }
        if workload == Workload::ColdSweep {
            remove_store(store.as_ref().expect("cold reps use a store"));
        }

        if timed {
            out.attempted += n as u64;
            out.failed += unfinished as u64;
            let wall = st.wall_secs.max(f64::MIN_POSITIVE) * st.workers.max(1) as f64;
            let busy: f64 = st.worker_loads.iter().map(|w| w.busy_secs).sum();
            s.busy_frac.push(busy / wall);
            if !trace_this {
                s.peak_rss.push(peak_rss);
                s.setup.push(setup);
                if store.is_some() {
                    s.open_ms.push(open_ms);
                }
                s.build_ms.push(build_ms);
                s.time_to_advice.push(time_to_advice);
                s.rate.push(n as f64 / collect);
                s.collect.push(collect);
                s.json_ms.push(json_ms);
                s.advice_ms.push(advice_ms);
            }
        }
        Ok(())
    })?;

    out.sample("setup_s", &s.setup);
    out.sample("time_to_advice_s", &s.time_to_advice);
    out.sample("scenarios_per_s", &s.rate);
    out.sample("peak_rss_mib", &s.peak_rss);
    if let Some(d) = digest {
        crate::check_pinned_digest(run, d, &mut out);
    }
    if !run.trace() {
        return Ok(out);
    }

    // Per-layer report of the traced run.
    let traced = traced.ok_or("a traced run needs at least one traced rep")?;
    let probe = ProbeTimes::median(&probe_runs);
    let sm = &traced.summary;
    let st = &traced.stats;
    out.sample("session.build_ms", &s.build_ms);
    out.set("cache.open_ms", 0.0, 0);
    out.sample("cache.open_ms", &s.open_ms);
    out.sample("formats.dataset_json_ms", &s.json_ms);
    out.set("formats.dataset_json_bytes", json_bytes as f64, 1);
    out.sample("advice.ms", &s.advice_ms);
    out.sample("collect.wall_s", &s.collect);
    out.sample("collect.busy_frac", &s.busy_frac);
    out.set("collect.chunks", st.shards as f64, 1);
    out.set("collect.retries", sm.retries as f64, 1);
    out.set(
        "collect.useful_ratio",
        sm.completed as f64 / sm.tasks.max(1) as f64,
        1,
    );
    out.set("placement.failovers", st.failovers as f64, 1);
    out.set("taskshell.tasks", sm.tasks as f64, 1);
    out.set("batchsim.evictions", sm.evictions as f64, 1);
    out.set("cloudsim.provisions", sm.provisions as f64, 1);
    out.set("cloudsim.pool_resizes", sm.pool_resizes as f64, 1);
    out.set("cloudsim.fault_rolls", sm.fault_rolls as f64, 1);
    out.set("cloudsim.faults_fired", sm.faults_fired as f64, 1);
    out.set("cache.hits", st.cache_hits as f64, 1);
    out.set("cache.misses", st.cache_misses as f64, 1);
    let consulted = (st.cache_hits + st.cache_misses).max(1) as f64;
    out.set("cache.hit_ratio", st.cache_hits as f64 / consulted, 1);
    out.set("cache.store_bytes", store_size as f64, 1);
    out.set("journal.appends", journal_stats.0 as f64, 1);
    out.set("journal.bytes", journal_stats.1 as f64, 1);
    out.set("telemetry.events", sm.events as f64, 1);
    let untraced = crate::stats::median(&s.collect).unwrap_or(0.0);
    let with_trace = crate::stats::median(&s.traced_collect).unwrap_or(0.0);
    out.set(
        "telemetry.overhead_ratio",
        if untraced > 0.0 {
            with_trace / untraced - 1.0
        } else {
            0.0
        },
        s.traced_collect.len().min(s.collect.len()),
    );
    for name in [
        "wire.frames_per_job",
        "wire.bytes_per_job",
        "wire.decode_us",
        "serve.first_frame_ms",
        "serve.result_ms",
        "serve.refusals",
        "serve.job_p99_ms",
    ] {
        out.set(name, 0.0, 0);
    }
    let layers = Layers::estimate(&probe, sm, untraced, st.workers);
    layers.record(&probe, &mut out);
    out.notes = breakdown::render(run, &rec.snapshot(), &layers, reps);
    Ok(out)
}
