//! Smart sampling — the paper's Section III-F optimizations for "scenario
//! generation and executions".
//!
//! The goal is not exact times for every scenario but a good Pareto front
//! with far fewer cloud executions. Three strategies from the paper are
//! implemented, all behind one iterative [`Sampler`] protocol (pick a batch
//! → run it → pick the next batch based on what was observed):
//!
//! * [`FullGrid`] — the baseline: run everything.
//! * [`AggressiveDiscard`] — probe each VM type cheaply, then *discard every
//!   scenario of VM types that show no evidence of reaching the front*.
//! * [`FixedPerfFactor`] — exploit input-parameter structure: measure one
//!   reference input's full scaling curve per VM type, measure other inputs
//!   at a single node count, extrapolate the rest by Amdahl-fit scaling,
//!   and execute only scenarios predicted near the front.
//! * [`BottleneckAware`] — walk node counts upward and stop scaling a VM
//!   type out once the infrastructure metrics say it is network-bound and
//!   no longer improving.
//!
//! [`run_sampled`] runs any of them on a session under one
//! [`CollectPlan`], so a sampled sweep takes every run option a full one
//! does.

mod aggressive;
mod bottleneck;
pub mod partial;
mod perf_factor;

pub use aggressive::AggressiveDiscard;
pub use bottleneck::BottleneckAware;
pub use partial::{run_partial_execution, PartialExecutionReport};
pub use perf_factor::FixedPerfFactor;

use crate::advice::Advice;
use crate::collect::{CollectPlan, CollectReport};
use crate::dataset::Dataset;
use crate::error::ToolError;
use crate::scenario::Scenario;
use crate::session::Session;
use std::collections::HashMap;
use telemetry::Trace;

/// An iterative scenario-selection strategy.
pub trait Sampler {
    /// Strategy name (for reports).
    fn name(&self) -> &str;
    /// Returns the scenario ids to execute next, given everything observed
    /// so far. An empty batch ends the sampling loop.
    fn next_batch(&mut self, candidates: &[Scenario], observed: &Dataset) -> Vec<u32>;
    /// Model-predicted data points for scenarios the strategy decided *not*
    /// to run (empty for strategies that don't predict).
    fn predicted(&self) -> Dataset {
        Dataset::new()
    }
}

/// The baseline: one batch containing every candidate, in grid order.
#[derive(Debug, Default)]
pub struct FullGrid {
    issued: bool,
}

impl FullGrid {
    /// Creates the baseline sampler.
    pub fn new() -> Self {
        FullGrid::default()
    }
}

impl Sampler for FullGrid {
    fn name(&self) -> &str {
        "full-grid"
    }

    fn next_batch(&mut self, candidates: &[Scenario], _observed: &Dataset) -> Vec<u32> {
        if self.issued {
            return Vec::new();
        }
        self.issued = true;
        candidates.iter().map(|s| s.id).collect()
    }
}

/// Outcome of a sampling-driven collection.
#[derive(Debug, Clone)]
pub struct SamplingReport {
    /// Strategy name.
    pub strategy: String,
    /// Total candidate scenarios.
    pub total: usize,
    /// Scenarios actually executed.
    pub executed: usize,
    /// Scenarios skipped (total − executed).
    pub skipped: usize,
    /// Batches issued.
    pub batches: usize,
}

impl SamplingReport {
    /// Fraction of scenario executions saved.
    pub fn savings(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.skipped as f64 / self.total as f64
        }
    }
}

/// Drives a sampler against a live session under `plan`: repeatedly asks
/// for a batch, runs it as `plan` restricted to that batch (Algorithm 1
/// pool reuse, the run journal, the cache and every run policy included),
/// and feeds the observations back. The candidates are the scenarios the
/// plan would run, so settled ones stay settled.
///
/// Returns one report for the whole run: points and outcomes in batch
/// order, the batches' traces one after another, and summed stats. Once
/// the budget breaker has skipped a whole batch the loop ends, since no
/// later batch could run either.
pub fn run_sampled(
    session: &mut Session,
    plan: &CollectPlan,
    sampler: &mut dyn Sampler,
) -> Result<(CollectReport, SamplingReport), ToolError> {
    let candidates: Vec<Scenario> = session
        .scenarios()
        .iter()
        .filter(|s| plan.should_run(s))
        .cloned()
        .collect();
    let total = candidates.len();
    let mut report = CollectReport {
        trace: plan.trace.then(Trace::default),
        ..CollectReport::default()
    };
    let mut executed = 0usize;
    let mut batches = 0usize;
    loop {
        let batch = sampler.next_batch(&candidates, &report.dataset);
        if batch.is_empty() {
            break;
        }
        batches += 1;
        executed += batch.len();
        let budget_spent = plan
            .budget_dollars
            .is_some_and(|budget| session.total_cloud_cost() >= budget);
        report.append(run_batch(session, plan, &batch)?);
        if budget_spent {
            break;
        }
        // Seatbelt: a sampler that keeps issuing batches cannot loop
        // forever past the candidate count.
        if executed > total * 2 {
            return Err(ToolError::NoData(format!(
                "sampler '{}' issued more executions than scenarios exist",
                sampler.name()
            )));
        }
    }
    let sampling = SamplingReport {
        strategy: sampler.name().to_string(),
        total,
        executed,
        skipped: total.saturating_sub(executed),
        batches,
    };
    Ok((report, sampling))
}

/// Runs `plan` restricted to `ids` and returns its points and outcomes in
/// the requested order, since samplers issue batches that are not sorted
/// by id. A repeated id runs once, at its first occurrence.
pub(crate) fn run_batch(
    session: &mut Session,
    plan: &CollectPlan,
    ids: &[u32],
) -> Result<CollectReport, ToolError> {
    let mut report = session.collect_with(&plan.clone().subset(ids))?;
    let mut pos: HashMap<u32, usize> = HashMap::with_capacity(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        pos.entry(id).or_insert(i);
    }
    report.dataset.points.sort_by_key(|p| pos[&p.scenario_id]);
    report.outcomes.sort_by_key(|o| pos[&o.scenario_id]);
    Ok(report)
}

/// Similarity between two advice tables: Jaccard index over their
/// `(sku, nodes)` configuration sets. 1.0 = identical fronts.
pub fn front_similarity(a: &Advice, b: &Advice) -> f64 {
    let set = |adv: &Advice| -> Vec<(String, u32)> {
        adv.rows.iter().map(|r| (r.sku.clone(), r.nodes)).collect()
    };
    let sa = set(a);
    let sb = set(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let intersection = sa.iter().filter(|x| sb.contains(x)).count();
    let union = sa.len() + sb.len() - intersection;
    intersection as f64 / union as f64
}

/// How far the best configurations of a sampled front are from a reference
/// front, measured as the relative regret on both objectives: 0 = the
/// sampled front contains configurations as fast and as cheap as the
/// reference's extremes.
pub fn front_regret(reference: &Advice, sampled: &Advice) -> f64 {
    let best = |adv: &Advice| -> Option<(f64, f64)> {
        let t = adv
            .rows
            .iter()
            .map(|r| r.exec_time_secs)
            .fold(f64::INFINITY, f64::min);
        let c = adv
            .rows
            .iter()
            .map(|r| r.cost_dollars)
            .fold(f64::INFINITY, f64::min);
        (t.is_finite() && c.is_finite()).then_some((t, c))
    };
    match (best(reference), best(sampled)) {
        (Some((rt, rc)), Some((st, sc))) => {
            let time_regret = ((st - rt) / rt).max(0.0);
            let cost_regret = ((sc - rc) / rc).max(0.0);
            time_regret.max(cost_regret)
        }
        _ => f64::INFINITY,
    }
}

/// Groups candidate scenarios by `(sku, input-combination)` — the unit all
/// samplers reason over. Returns keys in first-seen order.
pub(crate) fn scaling_groups(candidates: &[Scenario]) -> Vec<(String, String, Vec<&Scenario>)> {
    let mut out: Vec<(String, String, Vec<&Scenario>)> = Vec::new();
    for s in candidates {
        let input_key = s
            .appinputs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        match out
            .iter_mut()
            .find(|(sku, ik, _)| *sku == s.sku && *ik == input_key)
        {
            Some((_, _, group)) => group.push(s),
            None => out.push((s.sku.clone(), input_key, vec![s])),
        }
    }
    for (_, _, group) in &mut out {
        group.sort_by_key(|s| s.nnodes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::AdviceRow;
    use crate::config::UserConfig;
    use crate::scenario::{generate_scenarios, ScenarioStatus};
    use cloudsim::SkuCatalog;

    fn advice_of(rows: &[(&str, u32, f64, f64)]) -> Advice {
        Advice {
            rows: rows
                .iter()
                .map(|(sku, n, t, c)| AdviceRow {
                    exec_time_secs: *t,
                    cost_dollars: *c,
                    nodes: *n,
                    ppn: 120,
                    sku: sku.to_string(),
                    appinputs: Default::default(),
                    region: None,
                })
                .collect(),
            sort: Default::default(),
            skipped_scenarios: 0,
            capacity_comparison: None,
            placement_comparison: None,
        }
    }

    #[test]
    fn full_grid_issues_everything_once() {
        let config = UserConfig::example_openfoam();
        let scenarios = generate_scenarios(&config, &SkuCatalog::azure_hpc()).unwrap();
        let mut s = FullGrid::new();
        let batch = s.next_batch(&scenarios, &Dataset::new());
        assert_eq!(batch.len(), 36);
        assert!(s.next_batch(&scenarios, &Dataset::new()).is_empty());
    }

    #[test]
    fn run_sampled_full_grid_equals_collect() {
        let config = UserConfig::example_openfoam();
        for workers in [1, 4] {
            let plan = CollectPlan::new().workers(workers).trace(true);
            let mut session = Session::create(config.clone(), 42).unwrap();
            let (report, sampling) =
                run_sampled(&mut session, &plan, &mut FullGrid::new()).unwrap();
            assert_eq!(sampling.executed, 36);
            assert_eq!(sampling.skipped, 0);
            assert_eq!(sampling.batches, 1);
            assert_eq!(sampling.savings(), 0.0);
            let mut reference = Session::create(config.clone(), 42).unwrap();
            let expected = reference.collect_with(&plan).unwrap();
            assert_eq!(report.dataset.to_json(), expected.dataset.to_json());
            assert_eq!(
                report.trace.unwrap().to_jsonl(),
                expected.trace.unwrap().to_jsonl(),
                "{workers} workers"
            );
            assert_eq!(report.stats.cloud_cost, session.total_cloud_cost());
        }
    }

    #[test]
    fn run_batch_keeps_requested_order_and_runs_repeats_once() {
        let mut s = Session::create(UserConfig::example_openfoam(), 42).unwrap();
        let report = run_batch(&mut s, &CollectPlan::new(), &[14, 2, 14, 1]).unwrap();
        let ids: Vec<u32> = report
            .dataset
            .points
            .iter()
            .map(|p| p.scenario_id)
            .collect();
        assert_eq!(ids, vec![14, 2, 1]);
        let outcome_ids: Vec<u32> = report.outcomes.iter().map(|o| o.scenario_id).collect();
        assert_eq!(outcome_ids, ids);
        let completed: Vec<u32> = s
            .scenarios()
            .iter()
            .filter(|s| s.status == ScenarioStatus::Completed)
            .map(|s| s.id)
            .collect();
        assert_eq!(completed, vec![1, 2, 14]);
    }

    #[test]
    fn sampled_collect_leaves_settled_scenarios_alone() {
        let mut session = Session::create(UserConfig::example_openfoam(), 42).unwrap();
        session.collect().unwrap();
        let spent = session.total_cloud_cost();
        let (report, sampling) = run_sampled(
            &mut session,
            &CollectPlan::new(),
            &mut AggressiveDiscard::new(0.15),
        )
        .unwrap();
        assert_eq!((sampling.total, sampling.executed), (0, 0));
        assert!(report.dataset.is_empty());
        assert_eq!(report.stats.cloud_cost, 0.0);
        assert_eq!(session.total_cloud_cost(), spent);
    }

    #[test]
    fn a_spent_budget_skips_one_batch_and_ends_the_run() {
        let mut session = Session::create(UserConfig::example_openfoam(), 42).unwrap();
        let plan = CollectPlan::new().budget_dollars(0.0);
        let (report, sampling) =
            run_sampled(&mut session, &plan, &mut AggressiveDiscard::new(0.15)).unwrap();
        assert_eq!(sampling.batches, 1);
        assert_eq!(report.stats.skipped, sampling.executed);
        assert!(report
            .dataset
            .points
            .iter()
            .all(|p| p.status == ScenarioStatus::Skipped));
        assert_eq!(report.stats.cloud_cost, 0.0);
    }

    #[test]
    fn similarity_metric() {
        let a = advice_of(&[("v3", 16, 36.0, 0.58), ("v3", 8, 69.0, 0.55)]);
        let b = advice_of(&[("v3", 16, 37.0, 0.59)]);
        assert!((front_similarity(&a, &b) - 0.5).abs() < 1e-9);
        assert_eq!(front_similarity(&a, &a), 1.0);
        let empty = advice_of(&[]);
        assert_eq!(front_similarity(&empty, &empty), 1.0);
        assert_eq!(front_similarity(&a, &empty), 0.0);
    }

    #[test]
    fn regret_metric() {
        let reference = advice_of(&[("v3", 16, 36.0, 0.576), ("v3", 3, 173.0, 0.519)]);
        // Sampled found something slightly slower but equally cheap.
        let sampled = advice_of(&[("v3", 8, 40.0, 0.519)]);
        let regret = front_regret(&reference, &sampled);
        assert!((regret - (40.0 - 36.0) / 36.0).abs() < 1e-9);
        assert_eq!(front_regret(&reference, &advice_of(&[])), f64::INFINITY);
    }

    #[test]
    fn scaling_groups_structure() {
        let config = UserConfig::example_openfoam();
        let scenarios = generate_scenarios(&config, &SkuCatalog::azure_hpc()).unwrap();
        let groups = scaling_groups(&scenarios);
        // 3 SKUs × 2 meshes.
        assert_eq!(groups.len(), 6);
        for (_, _, g) in &groups {
            assert_eq!(g.len(), 6, "six node counts per group");
            assert!(g.windows(2).all(|w| w[0].nnodes <= w[1].nnodes));
        }
    }
}
