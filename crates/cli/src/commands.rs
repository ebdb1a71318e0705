//! Command implementations.

use crate::args::Args;
use crate::state::{DeploymentRecord, WorkDir};
use hpcadvisor_core::advice::{Advice, AdviceSort};
use hpcadvisor_core::cache::{CachePolicy, ScenarioCache, SharedScenarioCache};
use hpcadvisor_core::collect::CollectPlan;
use hpcadvisor_core::deployment::DeploymentManager;
use hpcadvisor_core::plot;
use hpcadvisor_core::sampling::{
    run_partial_execution, run_sampled, AggressiveDiscard, BottleneckAware, FixedPerfFactor,
    FullGrid, Sampler,
};
use hpcadvisor_core::scenario::generate_scenarios;
use hpcadvisor_core::session::Session;
use hpcadvisor_core::{
    Capacity, DataFilter, RetryPolicy, RunJournal, ScenarioStatus, ToolError, UserConfig,
};
use std::io::Write;

type Out<'a> = &'a mut dyn Write;

fn wline(out: Out, text: &str) -> Result<(), ToolError> {
    writeln!(out, "{text}").map_err(ToolError::Io)
}

/// Dispatches a parsed command line.
pub(crate) fn dispatch(argv: &[String], out: Out) -> Result<(), ToolError> {
    let args = Args::parse(argv)?;
    if args.has("help") || args.has("h") {
        return wline(out, crate::USAGE);
    }
    let command = args
        .positional
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| ToolError::Config("missing command; try --help".into()))?;
    let workdir = WorkDir::open(args.option("workdir").unwrap_or("hpcadvisor-data"))?;
    match command {
        "deploy" => deploy(&args, &workdir, out),
        "collect" => collect(&args, &workdir, out),
        "cache" => cache_cmd(&args, &workdir, out),
        "plot" => plot_cmd(&args, &workdir, out),
        "advice" => advice_cmd(&args, &workdir, out),
        "export" => export_cmd(&args, &workdir, out),
        "trace" => trace_cmd(&args, &workdir, out),
        "serve" => crate::serve::serve_cmd(&args, &workdir, out),
        "request" => crate::serve::request_cmd(&args, &workdir, out),
        "gui" => gui(&args, &workdir, out),
        other => Err(ToolError::Config(format!(
            "unknown command '{other}'; try --help"
        ))),
    }
}

/// Canonicalizes one region name against the catalog, or errors listing
/// every known region so a typo is a one-shot fix.
fn resolve_region(name: &str) -> Result<String, ToolError> {
    let catalog = cloudsim::RegionCatalog::azure();
    match catalog.get(name) {
        Some(region) => Ok(region.name.clone()),
        None => Err(ToolError::Config(format!(
            "unknown region '{}' (known regions: {})",
            name,
            catalog.names().join(", ")
        ))),
    }
}

/// Applies the typed `--region` / `--regions` overrides to a loaded
/// config: `--region` pins the home (deployment) region, `--regions`
/// replaces the multi-region placement list. Both validate against the
/// [`cloudsim::RegionCatalog`] before anything is provisioned. Returns
/// whether the config was modified.
fn apply_region_flags(args: &Args, config: &mut UserConfig) -> Result<bool, ToolError> {
    let mut changed = false;
    if let Some(region) = args.option("region") {
        config.region = resolve_region(region)?;
        changed = true;
    }
    if let Some(list) = args.option("regions") {
        let mut regions = Vec::new();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            regions.push(resolve_region(name)?);
        }
        if regions.is_empty() {
            return Err(ToolError::Config(
                "--regions requires a comma-separated list of region names".into(),
            ));
        }
        config.regions = regions;
        changed = true;
    }
    Ok(changed)
}

fn deploy(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    match args.positional.get(1).map(|s| s.as_str()) {
        Some("create") => {
            let config_path = args.option("config").ok_or_else(|| {
                ToolError::Config("deploy create requires -c <config.yaml>".into())
            })?;
            let text = std::fs::read_to_string(config_path)?;
            let mut config = UserConfig::from_yaml(&text)?;
            let text = if apply_region_flags(args, &mut config)? {
                config.to_yaml()
            } else {
                text
            };
            let seed = args.seed()?;
            // Provision (validates the whole Section III-B sequence).
            let mut manager = DeploymentManager::new(&config.subscription, &config.region, seed)?;
            let name = manager.create(&config)?;
            // Persist state for the later commands.
            workdir.save_config_text(&text)?;
            let scenarios = generate_scenarios(&config, &cloudsim::SkuCatalog::azure_hpc())?;
            workdir.save_scenarios(&scenarios)?;
            let mut records = workdir.load_deployments()?;
            records.push(DeploymentRecord {
                name: name.clone(),
                region: config.region.clone(),
                appname: config.appname.clone(),
                seed,
                state: "active".into(),
            });
            workdir.save_deployments(&records)?;
            wline(
                out,
                &format!("deployment '{name}' created in {}", config.region),
            )?;
            wline(
                out,
                &format!(
                    "{} scenarios pending; run 'hpcadvisor collect'",
                    scenarios.len()
                ),
            )
        }
        Some("list") => {
            let records = workdir.load_deployments()?;
            wline(
                out,
                "NAME                    REGION           APP        SEED  STATE",
            )?;
            for r in records {
                wline(
                    out,
                    &format!(
                        "{:<22}  {:<15}  {:<9}  {:<4}  {}",
                        r.name, r.region, r.appname, r.seed, r.state
                    ),
                )?;
            }
            Ok(())
        }
        Some("shutdown") => {
            let name = args
                .positional
                .get(2)
                .ok_or_else(|| ToolError::Config("deploy shutdown requires a name".into()))?;
            let mut records = workdir.load_deployments()?;
            let record = records
                .iter_mut()
                .find(|r| &r.name == name && r.state == "active")
                .ok_or_else(|| ToolError::UnknownDeployment(name.clone()))?;
            record.state = "shutdown".into();
            workdir.save_deployments(&records)?;
            wline(
                out,
                &format!("deployment '{name}' shut down; resources deleted"),
            )
        }
        other => Err(ToolError::Config(format!(
            "deploy needs a subcommand (create|list|shutdown), got {other:?}"
        ))),
    }
}

fn make_sampler(name: &str) -> Result<Box<dyn Sampler>, ToolError> {
    match name {
        "full" => Ok(Box::new(FullGrid::new())),
        "aggressive" => Ok(Box::new(AggressiveDiscard::new(0.15))),
        "perf-factor" => Ok(Box::new(FixedPerfFactor::new(0.10))),
        "bottleneck" => Ok(Box::new(BottleneckAware::new(0.55, 0.25))),
        other => Err(ToolError::Config(format!(
            "unknown sampler '{other}' (full|aggressive|perf-factor|bottleneck|partial)"
        ))),
    }
}

/// Resolves the scenario-cache file for this invocation: `--cache-dir`
/// overrides the default `<workdir>/cache/scenario-cache.json`.
fn cache_file(args: &Args, workdir: &WorkDir) -> std::path::PathBuf {
    match args.option("cache-dir") {
        Some(dir) => std::path::Path::new(dir).join("scenario-cache.json"),
        None => workdir.cache_file(),
    }
}

fn cache_cmd(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let path = cache_file(args, workdir);
    match args.positional.get(1).map(|s| s.as_str()) {
        None | Some("stats") => {
            let cache = ScenarioCache::open(&path);
            wline(out, &format!("cache file: {}", path.display()))?;
            let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            wline(
                out,
                &format!("cached results: {} ({size} bytes on disk)", cache.len()),
            )?;
            if cache.recovered() {
                wline(
                    out,
                    "warning: cache file was damaged or written for another model or catalog version; what it cannot serve re-runs, and the next save rebuilds the store",
                )?;
            }
            Ok(())
        }
        Some("clear") => {
            let mut cache = ScenarioCache::open(&path);
            let n = cache.len();
            cache.clear();
            cache.save()?;
            wline(out, &format!("cleared {n} cached results"))
        }
        other => Err(ToolError::Config(format!(
            "cache needs a subcommand (stats|clear), got {other:?}"
        ))),
    }
}

/// Builds the one plan every `collect` runs from its run flags.
fn collect_plan(args: &Args) -> Result<CollectPlan, ToolError> {
    let mut plan = CollectPlan::new();
    if let Some(n) = args.option("workers") {
        let n: usize = n
            .parse()
            .map_err(|_| ToolError::Config(format!("--workers must be a number, got '{n}'")))?;
        plan = plan.workers(n);
    }
    if args.has("no-retry") {
        plan = plan.retry(RetryPolicy::none());
    } else if let Some(n) = args.option("max-attempts") {
        let n: u32 = n.parse().map_err(|_| {
            ToolError::Config(format!("--max-attempts must be a number, got '{n}'"))
        })?;
        plan = plan.retry(RetryPolicy::with_max_attempts(n));
    }
    // Spot-capacity collection: `--capacity spot` provisions spot pools
    // (discounted, evictable); `auto` starts on spot but escalates a
    // scenario to dedicated after its first eviction.
    match args.option("capacity") {
        None | Some("dedicated") => {}
        Some("spot") => plan = plan.capacity(Capacity::Spot),
        Some("auto") => plan = plan.capacity(Capacity::Spot).escalate_after(1),
        Some(v) => {
            return Err(ToolError::Config(format!(
                "--capacity must be spot, dedicated or auto, got '{v}'"
            )))
        }
    }
    if let Some(secs) = non_negative(args, "deadline", "simulated seconds")? {
        plan = plan.deadline_secs(secs);
    }
    if let Some(dollars) = non_negative(args, "budget", "US dollars")? {
        plan = plan.budget_dollars(dollars);
    }
    Ok(plan.trace(args.has("trace")))
}

/// Parses `--<flag>` as a finite, non-negative number of `unit`.
fn non_negative(args: &Args, flag: &str, unit: &str) -> Result<Option<f64>, ToolError> {
    let Some(v) = args.option(flag) else {
        return Ok(None);
    };
    match v.parse::<f64>() {
        Ok(n) if n.is_finite() && n >= 0.0 => Ok(Some(n)),
        Ok(_) => Err(ToolError::Config(format!(
            "--{flag} must be non-negative {unit}, got '{v}'"
        ))),
        Err(_) => Err(ToolError::Config(format!(
            "--{flag} must be a number of {unit}, got '{v}'"
        ))),
    }
}

fn collect(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let config = workdir.load_config()?;
    let record = workdir.active_deployment()?.ok_or_else(|| {
        ToolError::Config("no active deployment; run 'deploy create' first".into())
    })?;
    let plan = collect_plan(args)?;
    let sampler = args.option("sampler");
    let mut strategy = match sampler {
        Some("partial") => None,
        name => Some(make_sampler(name.unwrap_or("full"))?),
    };

    // The session starts from the work directory's scenario statuses and
    // reuses finished results from its scenario cache unless --no-cache
    // was given. Its crash-safe run journal takes every outcome as it
    // lands: `--resume` replays an interrupted run's journal so only the
    // remainder executes; without it the journal starts fresh.
    let cache_path = cache_file(args, workdir);
    let journal_path = workdir.journal_file();
    let journal = if args.has("resume") {
        RunJournal::open(&journal_path)
    } else {
        RunJournal::open_fresh(&journal_path)
    };
    if journal.recovered() {
        wline(
            out,
            "warning: run journal was damaged; salvaged the readable prefix",
        )?;
    }
    let mut builder = Session::builder(config).seed(record.seed).journal(journal);
    builder = if args.has("no-cache") {
        builder.cache_policy(CachePolicy::Off)
    } else {
        builder.shared_cache(SharedScenarioCache::open(&cache_path))
    };
    let scenarios = workdir.load_scenarios()?;
    if !scenarios.is_empty() {
        builder = builder.scenarios(scenarios);
    }
    let mut session = builder.build()?;

    let (report, summary) = match strategy.as_mut() {
        // Partial-execution prediction (cited technique): probe every
        // scenario at 10% of its steps, verify the predicted front.
        None => {
            let partial = run_partial_execution(&mut session, &plan, 0.10, 0.10)?;
            let summary = format!(
                "partial execution: {} probes + {} full runs for {} scenarios (prediction error {:.1}%)",
                partial.probe_runs,
                partial.full_runs,
                partial.total,
                partial.mean_relative_error * 100.0
            );
            (partial.verified, summary)
        }
        Some(strategy) => {
            let (report, sampling) = run_sampled(&mut session, &plan, strategy.as_mut())?;
            let summary = format!(
                "sampler '{}': executed {}/{} scenarios ({} batches, {:.0}% saved)",
                sampling.strategy,
                sampling.executed,
                sampling.total,
                sampling.batches,
                sampling.savings() * 100.0
            );
            (report, summary)
        }
    };

    if let Some(trace) = &report.trace {
        let path = workdir.trace_file();
        hpcadvisor_core::replace(&path, trace.to_jsonl().as_bytes())?;
        wline(
            out,
            &format!(
                "trace: wrote {} events to {}; see 'trace summary' and 'trace timeline'",
                trace.len(),
                path.display()
            ),
        )?;
    }
    if sampler.is_some() {
        wline(out, &summary)?;
    }
    let stats = &report.stats;
    if stats.workers > 1 {
        wline(
            out,
            &format!(
                "parallel collect: {} workers over {} chunks ({} stolen) in {:.2}s",
                stats.workers, stats.shards, stats.steals, stats.wall_secs
            ),
        )?;
        for (i, load) in stats.worker_loads.iter().enumerate() {
            let busy_pct = if stats.wall_secs > 0.0 {
                100.0 * load.busy_secs / stats.wall_secs
            } else {
                0.0
            };
            wline(
                out,
                &format!(
                    "  worker {i}: {} chunks ({} stolen), {} scenarios, {busy_pct:.0}% busy",
                    load.chunks, load.steals, load.scenarios
                ),
            )?;
        }
    }
    if stats.cache_hits > 0 {
        wline(
            out,
            &format!(
                "cache: reused {} of {} scenarios from {}",
                stats.cache_hits,
                stats.cache_hits + stats.executed,
                cache_path.display()
            ),
        )?;
    }
    if stats.journal_replayed > 0 {
        wline(
            out,
            &format!(
                "journal: replayed {} finished scenarios from {}",
                stats.journal_replayed,
                journal_path.display()
            ),
        )?;
    }
    if stats.retried > 0 {
        wline(
            out,
            &format!(
                "retries: {} scenarios needed more than one attempt ({:.1}s simulated backoff)",
                stats.retried, stats.backoff_secs
            ),
        )?;
    }
    if stats.skipped > 0 {
        wline(
            out,
            &format!(
                "skipped: {} scenarios degraded gracefully (e.g. quota or budget); rerun collect to retry",
                stats.skipped
            ),
        )?;
    }
    if stats.evictions > 0 {
        wline(
            out,
            &format!(
                "evictions: {} spot evictions survived via requeue/escalation",
                stats.evictions
            ),
        )?;
    }
    if stats.timed_out > 0 {
        wline(
            out,
            &format!(
                "timed out: {} scenarios hit the --deadline watchdog",
                stats.timed_out
            ),
        )?;
    }

    let count = |status| {
        report
            .dataset
            .points
            .iter()
            .filter(|p| p.status == status)
            .count()
    };
    let completed = count(ScenarioStatus::Completed);
    let skipped = count(ScenarioStatus::Skipped);
    let timed_out = count(ScenarioStatus::TimedOut);
    let failed = report.dataset.len() - completed - skipped - timed_out;
    // `+ 0.0` normalizes the negative zero an empty billing ledger sums to,
    // so a fully-cached collection prints $0.00 rather than $-0.00.
    let total_cost = report.stats.cloud_cost + 0.0;
    let mut dataset = workdir.load_dataset()?;
    dataset.extend(report.dataset);
    workdir.save_dataset(&dataset)?;
    workdir.save_scenarios(session.scenarios())?;
    let mut skipnote = if skipped > 0 {
        format!(", {skipped} skipped")
    } else {
        String::new()
    };
    if timed_out > 0 {
        skipnote.push_str(&format!(", {timed_out} timed out"));
    }
    wline(
        out,
        &format!(
            "collected {completed} completed, {failed} failed{skipnote}; dataset now has {} rows",
            dataset.len()
        ),
    )?;
    wline(
        out,
        &format!("cloud spend this collection: ${total_cost:.2}"),
    )
}

fn parse_filter(args: &Args) -> Result<DataFilter, ToolError> {
    match args.option("filter") {
        None => Ok(DataFilter::all()),
        Some(spec) => DataFilter::parse(spec),
    }
}

fn plot_cmd(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let dataset = workdir.load_dataset()?;
    if dataset.is_empty() {
        return Err(ToolError::NoData(
            "dataset is empty; run 'collect' first".into(),
        ));
    }
    let filter = parse_filter(args)?;
    let charts = plot::all_charts(&dataset, &filter);
    if args.has("ascii") {
        for (_, chart) in charts {
            wline(out, &chart.to_ascii(72, 18))?;
        }
        return Ok(());
    }
    let dir = workdir.plots_dir()?;
    for (name, chart) in charts {
        let svg_path = dir.join(format!("{name}.svg"));
        std::fs::write(&svg_path, chart.to_svg(800, 500))?;
        std::fs::write(dir.join(format!("{name}.csv")), chart.to_csv())?;
        wline(out, &format!("wrote {}", svg_path.display()))?;
    }
    Ok(())
}

fn advice_cmd(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let dataset = workdir.load_dataset()?;
    if dataset.is_empty() {
        return Err(ToolError::NoData(
            "dataset is empty; run 'collect' first".into(),
        ));
    }
    let filter = parse_filter(args)?;
    let sort = match args.option("sort") {
        None | Some("time") => AdviceSort::ByTime,
        Some("cost") => AdviceSort::ByCost,
        Some(other) => {
            return Err(ToolError::Config(format!(
                "unknown sort '{other}' (time|cost)"
            )))
        }
    };
    let advice = Advice::from_dataset_sorted(&dataset, &filter, sort);
    if advice.rows.is_empty() {
        return Err(ToolError::NoData(
            "no completed rows match the filter".into(),
        ));
    }
    wline(out, advice.render_text().trim_end())?;
    if args.has("slurm") {
        let appname = dataset
            .points
            .first()
            .map(|p| p.appname.clone())
            .unwrap_or_else(|| "app".into());
        wline(
            out,
            "\n# Slurm recipe for the fastest Pareto-efficient row:",
        )?;
        wline(out, &advice.slurm_recipe(&advice.rows[0], &appname))?;
    }
    Ok(())
}

/// `export`: write the (filtered) dataset as CSV for spreadsheets/pandas.
fn export_cmd(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let dataset = workdir.load_dataset()?;
    if dataset.is_empty() {
        return Err(ToolError::NoData(
            "dataset is empty; run 'collect' first".into(),
        ));
    }
    let filter = parse_filter(args)?;
    let mut filtered = hpcadvisor_core::Dataset::new();
    for p in dataset.filter(&filter) {
        filtered.push(p.clone());
    }
    let csv = filtered.to_csv();
    match args.option("out") {
        Some(path) => {
            std::fs::write(path, csv)?;
            wline(out, &format!("wrote {} rows to {path}", filtered.len()))
        }
        None => {
            let path = workdir.root().join("dataset.csv");
            std::fs::write(&path, csv)?;
            wline(
                out,
                &format!("wrote {} rows to {}", filtered.len(), path.display()),
            )
        }
    }
}

/// `trace summary` / `trace timeline`: inspect the run trace written by
/// `collect --trace`.
fn trace_cmd(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let path = match args.option("in") {
        Some(p) => std::path::PathBuf::from(p),
        None => workdir.trace_file(),
    };
    let load = || -> Result<telemetry::Trace, ToolError> {
        let text = std::fs::read_to_string(&path).map_err(|_| {
            ToolError::NoData(format!(
                "no run trace at {}; run 'collect --trace' first",
                path.display()
            ))
        })?;
        telemetry::Trace::from_jsonl(&text)
            .map_err(|e| ToolError::Config(format!("unreadable trace {}: {e}", path.display())))
    };
    match args.positional.get(1).map(|s| s.as_str()) {
        None | Some("summary") => {
            let trace = load()?;
            wline(out, &format!("trace file: {}", path.display()))?;
            wline(out, trace.summarize().render_text().trim_end())
        }
        Some("timeline") => {
            let trace = load()?;
            let lanes = telemetry::build_timeline(&trace.events);
            if lanes.is_empty() {
                return Err(ToolError::NoData(
                    "trace has no boot/task spans to draw".into(),
                ));
            }
            let mut chart = svgplot::GanttChart::new("Collection run timeline").with_subtitle(
                &format!("{} events, {} pool lanes", trace.len(), lanes.len()),
            );
            for lane in &lanes {
                let mut spans = Vec::with_capacity(lane.spans.len());
                for s in &lane.spans {
                    spans.push(svgplot::GanttSpan {
                        start: s.start,
                        end: s.end,
                        kind: chart.kind(s.kind.label()),
                        label: s.label.clone(),
                    });
                }
                chart.add_lane(svgplot::GanttLane {
                    label: format!("shard{}/{}", lane.shard, lane.pool),
                    spans,
                });
            }
            let svg = chart.to_svg(900);
            let target = match args.option("out") {
                Some(p) => std::path::PathBuf::from(p),
                None => path.with_file_name("timeline.svg"),
            };
            if let Some(parent) = target.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&target, svg)?;
            wline(out, &format!("wrote {}", target.display()))
        }
        other => Err(ToolError::Config(format!(
            "trace needs a subcommand (summary|timeline), got {other:?}"
        ))),
    }
}

fn gui(args: &Args, workdir: &WorkDir, out: Out) -> Result<(), ToolError> {
    let _ = args;
    wline(out, "=== HPCAdvisor dashboard (terminal GUI) ===\n")?;
    wline(out, "-- Deployments --")?;
    let records = workdir.load_deployments()?;
    if records.is_empty() {
        wline(out, "(none)")?;
    }
    for r in &records {
        wline(
            out,
            &format!(
                "{} [{}] app={} region={}",
                r.name, r.state, r.appname, r.region
            ),
        )?;
    }
    let scenarios = workdir.load_scenarios()?;
    let pending = scenarios
        .iter()
        .filter(|s| s.status == hpcadvisor_core::ScenarioStatus::Pending)
        .count();
    wline(
        out,
        &format!(
            "\n-- Scenarios -- {} total, {} pending, {} completed, {} failed",
            scenarios.len(),
            pending,
            scenarios
                .iter()
                .filter(|s| s.status == hpcadvisor_core::ScenarioStatus::Completed)
                .count(),
            scenarios
                .iter()
                .filter(|s| s.status == hpcadvisor_core::ScenarioStatus::Failed)
                .count(),
        ),
    )?;
    let dataset = workdir.load_dataset()?;
    wline(out, &format!("\n-- Dataset -- {} rows", dataset.len()))?;
    if !dataset.is_empty() {
        let chart = plot::pareto_chart(&dataset, &DataFilter::all());
        wline(out, &chart.to_ascii(72, 16))?;
        let advice = Advice::from_dataset(&dataset, &DataFilter::all());
        wline(out, "-- Advice (Pareto front) --")?;
        wline(out, advice.render_text().trim_end())?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use std::path::PathBuf;

    pub(crate) fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpcadvisor-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn run_in(workdir: &std::path::Path, words: &[&str]) -> (String, bool) {
        let mut argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        argv.push("--workdir".into());
        argv.push(workdir.to_string_lossy().into_owned());
        let mut out = Vec::new();
        let ok = dispatch(&argv, &mut out).is_ok();
        (String::from_utf8(out).unwrap(), ok)
    }

    pub(crate) fn write_config(dir: &std::path::Path) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("myconfig.yaml");
        std::fs::write(
            &path,
            r#"
subscription: mysubscription
skus:
- Standard_HB120rs_v3
rgprefix: clitest
appsetupurl: https://example.com/scripts/lammps.sh
nnodes: [1, 2]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "8"
"#,
        )
        .unwrap();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::*;
    use crate::args::Args;
    use hpcadvisor_core::collect::CollectPlan;
    use hpcadvisor_core::RetryPolicy;
    use std::path::{Path, PathBuf};

    /// The full Table II command walk-through.
    #[test]
    fn table2_end_to_end() {
        let dir = tempdir("e2e");
        let config = write_config(&dir);

        let (out, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok, "{out}");
        assert!(out.contains("deployment 'clitest001' created"));
        assert!(out.contains("2 scenarios pending"));

        let (out, ok) = run_in(&dir, &["deploy", "list"]);
        assert!(ok);
        assert!(out.contains("clitest001") && out.contains("active"));

        let (out, ok) = run_in(&dir, &["collect"]);
        assert!(ok, "{out}");
        assert!(out.contains("collected 2 completed, 0 failed"), "{out}");
        assert!(out.contains("cloud spend"));

        let (out, ok) = run_in(&dir, &["plot"]);
        assert!(ok, "{out}");
        assert!(out.contains("exectime_vs_nodes.svg"));
        assert!(dir.join("plots/pareto_front.svg").exists());
        assert!(dir.join("plots/efficiency.csv").exists());

        let (out, ok) = run_in(&dir, &["plot", "--ascii"]);
        assert!(ok);
        assert!(out.contains("Execution Time vs Number of Nodes"));

        let (out, ok) = run_in(&dir, &["advice"]);
        assert!(ok, "{out}");
        assert!(out.contains("Exectime(s)  Cost($)  Nodes  SKU"));
        assert!(out.contains("hb120rs_v3"));

        let (out, ok) = run_in(&dir, &["advice", "--sort", "cost", "--slurm"]);
        assert!(ok);
        assert!(out.contains("#SBATCH --nodes="));

        let (out, ok) = run_in(&dir, &["gui"]);
        assert!(ok);
        assert!(out.contains("dashboard"));
        assert!(out.contains("2 completed"));

        let (out, ok) = run_in(&dir, &["deploy", "shutdown", "clitest001"]);
        assert!(ok, "{out}");
        let (out, _) = run_in(&dir, &["deploy", "list"]);
        assert!(out.contains("shutdown"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_collect_reuses_cache_and_cache_subcommands_work() {
        let dir = tempdir("cache");
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);

        // Empty cache reports zero entries.
        let (out, ok) = run_in(&dir, &["cache", "stats"]);
        assert!(ok, "{out}");
        assert!(out.contains("cached results: 0"), "{out}");

        // Cold collect populates the cache silently.
        let (out, ok) = run_in(&dir, &["collect"]);
        assert!(ok, "{out}");
        assert!(!out.contains("cache: reused"), "cold run: {out}");
        assert!(dir.join("cache/scenario-cache.json").exists());
        let (out, _) = run_in(&dir, &["cache", "stats"]);
        assert!(out.contains("cached results: 2"), "{out}");

        // Reset scenario statuses so the grid is pending again, then a warm
        // collect serves everything from the cache.
        let scenarios_json = dir.join("scenarios.json");
        let text = std::fs::read_to_string(&scenarios_json).unwrap();
        std::fs::write(&scenarios_json, text.replace("completed", "pending")).unwrap();
        let (out, ok) = run_in(&dir, &["collect"]);
        assert!(ok, "{out}");
        assert!(out.contains("cache: reused 2 of 2 scenarios"), "{out}");
        assert!(out.contains("cloud spend this collection: $0.00"), "{out}");

        // --no-cache forces a cold run.
        let text = std::fs::read_to_string(&scenarios_json).unwrap();
        std::fs::write(&scenarios_json, text.replace("completed", "pending")).unwrap();
        let (out, ok) = run_in(&dir, &["collect", "--no-cache"]);
        assert!(ok, "{out}");
        assert!(!out.contains("cache: reused"), "{out}");
        assert!(!out.contains("$0.00"), "cold run costs money: {out}");

        // cache clear empties the store.
        let (out, ok) = run_in(&dir, &["cache", "clear"]);
        assert!(ok, "{out}");
        assert!(out.contains("cleared 2 cached results"), "{out}");
        let (out, _) = run_in(&dir, &["cache", "stats"]);
        assert!(out.contains("cached results: 0"), "{out}");

        // Unknown subcommand errors.
        let (_, ok) = run_in(&dir, &["cache", "bogus"]);
        assert!(!ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_dir_option_relocates_the_store() {
        let dir = tempdir("cachedir");
        let alt = tempdir("cachedir-alt");
        std::fs::create_dir_all(&alt).unwrap();
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);
        let (out, ok) = run_in(&dir, &["collect", "--cache-dir", alt.to_str().unwrap()]);
        assert!(ok, "{out}");
        assert!(alt.join("scenario-cache.json").exists());
        assert!(!dir.join("cache/scenario-cache.json").exists());
        let (out, _) = run_in(
            &dir,
            &["cache", "stats", "--cache-dir", alt.to_str().unwrap()],
        );
        assert!(out.contains("cached results: 2"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&alt);
    }

    #[test]
    fn collect_resume_replays_the_run_journal() {
        let dir = tempdir("resume");
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);
        let (out, ok) = run_in(&dir, &["collect", "--no-cache"]);
        assert!(ok, "{out}");
        assert!(dir.join("run-journal.jsonl").exists());

        // Pretend the run was interrupted: statuses back to pending, then
        // resume — both scenarios replay from the journal for free.
        let scenarios_json = dir.join("scenarios.json");
        let text = std::fs::read_to_string(&scenarios_json).unwrap();
        std::fs::write(&scenarios_json, text.replace("completed", "pending")).unwrap();
        let (out, ok) = run_in(&dir, &["collect", "--resume", "--no-cache"]);
        assert!(ok, "{out}");
        assert!(
            out.contains("journal: replayed 2 finished scenarios"),
            "{out}"
        );
        assert!(out.contains("cloud spend this collection: $0.00"), "{out}");

        // A plain collect starts a fresh journal and re-executes.
        let text = std::fs::read_to_string(&scenarios_json).unwrap();
        std::fs::write(&scenarios_json, text.replace("completed", "pending")).unwrap();
        let (out, ok) = run_in(&dir, &["collect", "--no-cache"]);
        assert!(ok, "{out}");
        assert!(!out.contains("journal: replayed"), "{out}");
        assert!(!out.contains("$0.00"), "fresh run costs money: {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collect_retry_flags() {
        let dir = tempdir("retryflags");
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);
        let (out, ok) = run_in(&dir, &["collect", "--no-retry"]);
        assert!(ok, "{out}");
        let (out, ok) = run_in(&dir, &["collect", "--max-attempts", "5", "--no-cache"]);
        assert!(ok, "{out}");
        let (_, ok) = run_in(&dir, &["collect", "--max-attempts", "lots"]);
        assert!(!ok, "non-numeric --max-attempts must error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collect_capacity_flags() {
        let dir = tempdir("capacityflags");
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);
        // A spot sweep (no injected pressure here) completes and bills at
        // the discounted rate; budget and deadline parse alongside it.
        let (out, ok) = run_in(
            &dir,
            &[
                "collect",
                "--capacity",
                "spot",
                "--deadline",
                "86400",
                "--budget",
                "100",
                "--no-cache",
            ],
        );
        assert!(ok, "{out}");
        assert!(out.contains("collected 2 completed, 0 failed"), "{out}");
        // Bad values error before anything runs.
        let (_, ok) = run_in(&dir, &["collect", "--capacity", "preemptible"]);
        assert!(!ok, "unknown capacity class must error");
        let (_, ok) = run_in(&dir, &["collect", "--budget", "lots"]);
        assert!(!ok, "non-numeric --budget must error");
        let (_, ok) = run_in(&dir, &["collect", "--deadline", "soon"]);
        assert!(!ok, "non-numeric --deadline must error");
        // A zero budget skips everything (journaled) instead of spending.
        let scenarios_json = dir.join("scenarios.json");
        let text = std::fs::read_to_string(&scenarios_json).unwrap();
        std::fs::write(&scenarios_json, text.replace("completed", "pending")).unwrap();
        let (out, ok) = run_in(&dir, &["collect", "--budget", "0", "--no-cache"]);
        assert!(ok, "{out}");
        assert!(out.contains("2 skipped"), "{out}");
        assert!(out.contains("cloud spend this collection: $0.00"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collect_rejects_negative_deadline_and_budget() {
        let dir = tempdir("negflags");
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);
        let (_, ok) = run_in(&dir, &["collect", "--deadline", "-10"]);
        assert!(!ok, "negative --deadline must error");
        let (_, ok) = run_in(&dir, &["collect", "--budget", "-1"]);
        assert!(!ok, "negative --budget must error");
        let (_, ok) = run_in(&dir, &["collect", "--deadline", "inf"]);
        assert!(!ok, "non-finite --deadline must error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collect_trace_writes_jsonl_and_trace_subcommands_read_it() {
        let dir = tempdir("trace");
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);

        // Without --trace, nothing is written and the subcommands error.
        let (_, ok) = run_in(&dir, &["trace", "summary"]);
        assert!(!ok, "no trace yet");
        let (out, ok) = run_in(&dir, &["collect", "--no-cache"]);
        assert!(ok, "{out}");
        assert!(!dir.join("trace/run-trace.jsonl").exists());

        // A traced collect writes the JSONL file.
        let scenarios_json = dir.join("scenarios.json");
        let text = std::fs::read_to_string(&scenarios_json).unwrap();
        std::fs::write(&scenarios_json, text.replace("completed", "pending")).unwrap();
        let (out, ok) = run_in(&dir, &["collect", "--trace", "--no-cache"]);
        assert!(ok, "{out}");
        assert!(out.contains("trace: wrote"), "{out}");
        let trace_path = dir.join("trace/run-trace.jsonl");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(text.starts_with("{\"version\": 1}\n"), "{text}");
        assert!(text.contains("\"kind\":\"run_start\""), "{text}");
        assert!(text.contains("\"kind\":\"provision\""));
        assert!(text.contains("\"kind\":\"scenario_end\""));

        let (out, ok) = run_in(&dir, &["trace", "summary"]);
        assert!(ok, "{out}");
        assert!(out.contains("events"), "{out}");
        assert!(out.contains("completed"), "{out}");

        let (out, ok) = run_in(&dir, &["trace", "timeline"]);
        assert!(ok, "{out}");
        let svg_path = dir.join("trace/timeline.svg");
        assert!(svg_path.exists());
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("shard0/"), "{out}");

        // A sampled collect traces too.
        std::fs::remove_file(&trace_path).unwrap();
        let (out, ok) = run_in(&dir, &["collect", "--trace", "--sampler", "aggressive"]);
        assert!(ok, "{out}");
        assert!(out.contains("trace: wrote"), "{out}");
        assert!(trace_path.exists());
        // Unknown subcommand errors.
        let (_, ok) = run_in(&dir, &["trace", "bogus"]);
        assert!(!ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two SKUs × three node counts: `aggressive` probes both SKUs at 1
    /// and 4 nodes, then runs the 2-node scenario of the SKU it keeps.
    fn write_sampling_config(dir: &Path) -> PathBuf {
        let path = write_config(dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let text = text
            .replace(
                "- Standard_HB120rs_v3\n",
                "- Standard_HB120rs_v3\n- Standard_HC44rs\n",
            )
            .replace("nnodes: [1, 2]", "nnodes: [1, 2, 4]");
        std::fs::write(&path, text).unwrap();
        path
    }

    /// A fresh work directory deployed from `config`.
    fn deployed(tag: &str, config: fn(&Path) -> PathBuf) -> PathBuf {
        let dir = tempdir(tag);
        let config = config(&dir);
        let (out, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok, "{out}");
        dir
    }

    fn spend(out: &str) -> f64 {
        out.split("cloud spend this collection: $")
            .nth(1)
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or_else(|| panic!("no spend line: {out}"))
    }

    fn read(dir: &Path, file: &str) -> String {
        std::fs::read_to_string(dir.join(file)).unwrap()
    }

    fn reset_statuses(dir: &Path) {
        let text = read(dir, "scenarios.json").replace("completed", "pending");
        std::fs::write(dir.join("scenarios.json"), text).unwrap();
    }

    #[test]
    fn sampler_collect_applies_every_run_flag() {
        let sampled = ["collect", "--sampler", "aggressive", "--no-cache"];
        let with = |extra: &[&'static str]| [&sampled[..], extra].concat();

        // --budget 0 skips the whole first batch at $0.00 and ends the run.
        let dir = deployed("flag-budget", write_sampling_config);
        let (out, ok) = run_in(&dir, &with(&["--budget", "0"]));
        assert!(ok, "{out}");
        assert!(out.contains("executed 4/6 scenarios (1 batches"), "{out}");
        assert!(
            out.contains("collected 0 completed, 0 failed, 4 skipped; dataset now has 4 rows"),
            "{out}"
        );
        assert!(out.contains("cloud spend this collection: $0.00"), "{out}");

        // --capacity spot provisions spot pools.
        let dir = deployed("flag-capacity", write_sampling_config);
        let (out, ok) = run_in(&dir, &with(&["--capacity", "spot"]));
        assert!(ok, "{out}");
        assert_eq!(read(&dir, "dataset.json").matches("\"spot\"").count(), 5);

        // --deadline 0 turns every failing scenario into a timed-out one.
        let wrf = |dir: &Path| {
            let path = write_config(dir);
            let text = std::fs::read_to_string(&path).unwrap();
            let text = text
                .replace(
                    "- Standard_HB120rs_v3\n",
                    "- Standard_HC44rs\n- Standard_HB120rs_v3\n",
                )
                .replace("lammps", "wrf")
                .replace("BOXFACTOR: \"8\"", "resolution_km: \"1\"\n  hours: \"3\"");
            std::fs::write(&path, text).unwrap();
            path
        };
        let dir = deployed("flag-deadline", wrf);
        let (out, ok) = run_in(&dir, &sampled);
        assert!(ok, "{out}");
        assert!(out.contains("collected 1 completed, 3 failed;"), "{out}");
        let dir = deployed("flag-deadline-0", wrf);
        let (out, ok) = run_in(&dir, &with(&["--deadline", "0"]));
        assert!(ok, "{out}");
        assert!(
            out.contains("collected 1 completed, 0 failed, 3 timed out;"),
            "{out}"
        );

        // --workers 4 writes the bytes --workers 1 writes; --trace writes
        // the run trace.
        let dirs: Vec<PathBuf> = ["1", "4"]
            .into_iter()
            .map(|w| {
                let dir = deployed(&format!("flag-workers-{w}"), write_sampling_config);
                let (out, ok) = run_in(&dir, &with(&["--workers", w, "--trace"]));
                assert!(ok, "{out}");
                assert!(out.contains("trace: wrote"), "{out}");
                dir
            })
            .collect();
        for file in ["dataset.json", "scenarios.json", "trace/run-trace.jsonl"] {
            assert_eq!(read(&dirs[0], file), read(&dirs[1], file), "{file}");
        }

        // --resume replays the run journal.
        let dir = &dirs[0];
        reset_statuses(dir);
        let (out, ok) = run_in(dir, &with(&["--resume"]));
        assert!(ok, "{out}");
        assert!(
            out.contains("journal: replayed 5 finished scenarios"),
            "{out}"
        );
        assert!(out.contains("cloud spend this collection: $0.00"), "{out}");

        // --no-retry and --max-attempts set the retry policy of the one
        // plan every sampler runs; no fault fires here, so the sampled
        // collect just completes under it.
        let plan = |words: &[&str]| {
            let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
            format!(
                "{:?}",
                super::collect_plan(&Args::parse(&argv).unwrap()).unwrap()
            )
        };
        assert_eq!(
            plan(&["collect", "--no-retry"]),
            format!("{:?}", CollectPlan::new().retry(RetryPolicy::none()))
        );
        assert_eq!(
            plan(&["collect", "--max-attempts", "5"]),
            format!(
                "{:?}",
                CollectPlan::new().retry(RetryPolicy::with_max_attempts(5))
            )
        );
        for extra in [&["--no-retry"][..], &["--max-attempts", "5"]] {
            reset_statuses(dir);
            let (out, ok) = run_in(dir, &with(extra));
            assert!(ok, "{out}");
            assert!(out.contains("collected 5 completed"), "{out}");
        }
        let (_, ok) = run_in(dir, &with(&["--max-attempts", "lots"]));
        assert!(!ok, "non-numeric --max-attempts must error");
    }

    #[test]
    fn sampled_collect_after_a_full_collect_runs_nothing() {
        let dir = deployed("sampled-after-full", write_sampling_config);
        let (out, ok) = run_in(&dir, &["collect"]);
        assert!(ok, "{out}");
        assert!(spend(&out) > 0.0, "{out}");
        let (out, ok) = run_in(&dir, &["collect", "--sampler", "aggressive", "--no-cache"]);
        assert!(ok, "{out}");
        assert!(out.contains("executed 0/0 scenarios"), "{out}");
        assert!(
            out.contains("collected 0 completed, 0 failed; dataset now has 6 rows"),
            "{out}"
        );
        assert!(out.contains("cloud spend this collection: $0.00"), "{out}");
    }

    #[test]
    fn partial_collect_uses_the_scenario_cache() {
        let dir = deployed("partial-cache", write_config);
        let partial = ["collect", "--sampler", "partial"];
        let (out, ok) = run_in(&dir, &partial);
        assert!(ok, "{out}");
        assert!(out.contains("partial execution: 4 probes"), "{out}");
        assert!(spend(&out) > 0.0, "{out}");
        let (out, ok) = run_in(&dir, &partial);
        assert!(ok, "{out}");
        assert!(out.contains("cache: reused 4 of 4 scenarios"), "{out}");
        assert!(out.contains("cloud spend this collection: $0.00"), "{out}");
        let (out, ok) = run_in(&dir, &[&partial[..], &["--no-cache"]].concat());
        assert!(ok, "{out}");
        assert!(!out.contains("cache: reused"), "{out}");
        assert!(spend(&out) > 0.0, "--no-cache probes run cold: {out}");
        // The plan's budget caps the probes too.
        let (out, ok) = run_in(&dir, &[&partial[..], &["--budget", "0"]].concat());
        assert!(ok, "{out}");
        assert!(out.contains("cloud spend this collection: $0.00"), "{out}");
    }

    /// A sampled collect killed after any journal line and resumed writes
    /// what the uninterrupted run writes.
    #[test]
    fn sampled_collect_resumes_from_every_journal_prefix() {
        let collect = ["collect", "--sampler", "aggressive", "--no-cache"];
        let full = deployed("sampled-resume", write_sampling_config);
        let (out, ok) = run_in(&full, &collect);
        assert!(ok, "{out}");
        let journal = read(&full, "run-journal.jsonl");
        let lines: Vec<&str> = journal.split_inclusive('\n').collect();
        assert_eq!(lines.len(), 6, "a header and five outcomes: {journal}");
        for k in 0..=lines.len() {
            let dir = deployed(&format!("sampled-resume-{k}"), write_sampling_config);
            std::fs::write(dir.join("run-journal.jsonl"), lines[..k].concat()).unwrap();
            let (out, ok) = run_in(&dir, &[&collect[..], &["--resume"]].concat());
            assert!(ok, "{out}");
            for file in ["dataset.json", "scenarios.json", "run-journal.jsonl"] {
                assert_eq!(read(&dir, file), read(&full, file), "prefix {k}: {file}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&full);
    }

    #[test]
    fn collect_with_sampler() {
        let dir = tempdir("sampler");
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);
        // A sampled collect owns the run journal: without --resume it
        // starts it fresh, as a full collect does.
        let journal = dir.join("run-journal.jsonl");
        std::fs::write(&journal, "interrupted\n").unwrap();
        let (out, ok) = run_in(&dir, &["collect", "--sampler", "aggressive"]);
        assert!(ok, "{out}");
        assert!(out.contains("sampler 'aggressive-discard'"), "{out}");
        assert!(!out.contains("executed 0/"), "{out}");
        assert!(spend(&out) > 0.0, "the sampled scenarios ran: {out}");
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.starts_with("{\"version\": 1}\n"), "{text}");
        assert_eq!(text.lines().count(), 3, "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn region_flags_validate_against_the_catalog() {
        let dir = tempdir("region-flags");
        let config = write_config(&dir);
        let cfg = config.to_str().unwrap();

        // A typo'd region fails fast with the full catalog in the message.
        let argv: Vec<String> = ["deploy", "create", "-c", cfg, "--region", "mars"]
            .iter()
            .map(|s| s.to_string())
            .chain(["--workdir".to_string(), dir.to_string_lossy().into_owned()])
            .collect();
        let err = super::dispatch(&argv, &mut Vec::new()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown region 'mars'"), "{msg}");
        assert!(
            msg.contains("southcentralus") && msg.contains("japaneast"),
            "{msg}"
        );

        // Same for the multi-region list.
        let argv: Vec<String> = [
            "deploy",
            "create",
            "-c",
            cfg,
            "--regions",
            "westeurope,atlantis",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain(["--workdir".to_string(), dir.to_string_lossy().into_owned()])
        .collect();
        let err = super::dispatch(&argv, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("unknown region 'atlantis'"));

        // Valid flags canonicalize case and multiply the grid region-major.
        let (out, ok) = run_in(
            &dir,
            &[
                "deploy",
                "create",
                "-c",
                cfg,
                "--regions",
                "SouthCentralUS, westeurope",
            ],
        );
        assert!(ok, "{out}");
        assert!(out.contains("4 scenarios pending"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_paths() {
        let dir = tempdir("errors");
        std::fs::create_dir_all(&dir).unwrap();
        let (out, ok) = run_in(&dir, &["collect"]);
        assert!(!ok);
        assert!(out.is_empty(), "error is returned, not printed by dispatch");
        let (_, ok) = run_in(&dir, &["advice"]);
        assert!(!ok);
        let (_, ok) = run_in(&dir, &["plot"]);
        assert!(!ok);
        let (_, ok) = run_in(&dir, &["deploy", "shutdown", "nope"]);
        assert!(!ok);
        let (_, ok) = run_in(&dir, &["deploy"]);
        assert!(!ok);
        let (_, ok) = run_in(&dir, &["collect", "--sampler", "bogus"]);
        assert!(!ok);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod export_tests {
    use super::tests_support::*;

    #[test]
    fn export_writes_csv() {
        let dir = tempdir("export");
        let config = write_config(&dir);
        let (_, ok) = run_in(&dir, &["deploy", "create", "-c", config.to_str().unwrap()]);
        assert!(ok);
        let (_, ok) = run_in(&dir, &["collect"]);
        assert!(ok);
        let (out, ok) = run_in(&dir, &["export"]);
        assert!(ok, "{out}");
        let csv = std::fs::read_to_string(dir.join("dataset.csv")).unwrap();
        assert!(csv.starts_with("scenario_id,"));
        assert_eq!(csv.lines().count(), 3, "header + 2 rows");
        // Filtered export to a chosen path.
        let target = dir.join("v3only.csv");
        let (_, ok) = run_in(
            &dir,
            &[
                "export",
                "-f",
                "sku=hb120rs_v3",
                "-o",
                target.to_str().unwrap(),
            ],
        );
        assert!(ok);
        assert!(target.exists());
        // Empty workdir errors.
        let empty = tempdir("export-empty");
        std::fs::create_dir_all(&empty).unwrap();
        let (_, ok) = run_in(&empty, &["export"]);
        assert!(!ok);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }
}
