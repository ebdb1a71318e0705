//! Partial-execution prediction — the technique the paper cites from
//! Yang et al. \[6] and Brunetta & Borin \[13]: "several HPC workloads have
//! a steady execution time per step (after warm-up). So one could get some
//! approximation of execution times and costs."
//!
//! The driver runs every scenario with its step/iteration count scaled
//! down by a probe fraction, extrapolates the full-length time from the
//! steady per-step rate, builds a *predicted* Pareto front, and verifies
//! only the front candidates at full length. Unlike the [`super::Sampler`]
//! strategies this needs to *change the workload* (the step count), so its
//! probes run on two sibling sessions of the probe configs. They share the
//! session's seed, cache handle and cache policy; the verification runs on
//! the session itself, under its run journal. All three run the one plan.

use crate::advice::Advice;
use crate::collect::{CollectPlan, CollectReport};
use crate::config::UserConfig;
use crate::dataset::{DataFilter, Dataset};
use crate::error::ToolError;
use crate::pareto::pareto_front;
use crate::sampling::run_batch;
use crate::session::Session;

/// Result of a partial-execution prediction run.
#[derive(Debug)]
pub struct PartialExecutionReport {
    /// Scenario count of the full grid.
    pub total: usize,
    /// Front candidates the verification ran at full length (those the
    /// plan would run; settled ones are left alone).
    pub full_runs: usize,
    /// Probe (short) executions performed.
    pub probe_runs: usize,
    /// Predicted full-length dataset (every scenario).
    pub predicted: Dataset,
    /// The verification run: its dataset holds the measured full-length
    /// points (front candidates only), and its stats and trace also cover
    /// both probe runs, so `stats.cloud_cost` is the spend of all three.
    pub verified: CollectReport,
    /// Mean absolute relative error of predictions vs. verification.
    pub mean_relative_error: f64,
}

/// Which input key carries the step count for an application.
fn steps_key(appname: &str) -> Option<(&'static str, u64)> {
    match appname.to_ascii_lowercase().as_str() {
        "lammps" => Some(("steps", 100)),
        "openfoam" => Some(("iterations", 250)),
        "gromacs" => Some(("steps", 10_000)),
        "namd" => Some(("steps", 500)),
        _ => None,
    }
}

/// Reads the configured step count (or the app default).
fn configured_steps(config: &UserConfig, key: &str, default: u64) -> u64 {
    config
        .appinputs
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(key))
        .and_then(|(_, vs)| vs.first())
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs the partial-execution strategy on `session` under `plan`.
///
/// `probe_fraction` scales the step count of the probe runs (e.g. 0.1 runs
/// 10% of the steps); `margin` widens the predicted front before
/// verification, like the other samplers. The plan's budget caps the
/// spend of all three runs together.
pub fn run_partial_execution(
    session: &mut Session,
    plan: &CollectPlan,
    probe_fraction: f64,
    margin: f64,
) -> Result<PartialExecutionReport, ToolError> {
    let config = session.config().clone();
    let (key, default_steps) = steps_key(&config.appname).ok_or_else(|| {
        ToolError::Config(format!(
            "application '{}' has no step-count input for partial execution",
            config.appname
        ))
    })?;
    if !(0.01..=0.9).contains(&probe_fraction) {
        return Err(ToolError::Config(format!(
            "probe_fraction {probe_fraction} must be in 0.01..=0.9"
        )));
    }
    let full_steps = configured_steps(&config, key, default_steps);
    let probe_steps = ((full_steps as f64 * probe_fraction).round() as u64).max(1);
    if probe_steps >= full_steps {
        return Err(ToolError::Config(format!(
            "probe of {probe_steps} steps is not shorter than the full {full_steps}"
        )));
    }

    // --- Probes: every scenario at two reduced step counts ----------------
    // Two probe lengths let us fit T(p) = s + r·p per scenario and separate
    // the fixed startup s from the steady per-step rate r — the actual
    // technique of the cited partial-execution predictors.
    let probe_steps_2 = (probe_steps * 2).min(full_steps - 1).max(probe_steps + 1);
    // What is left of the plan's budget once `report` has been spent.
    let remaining = |report: &CollectReport| {
        let mut rest = plan.clone();
        rest.budget_dollars = plan
            .budget_dollars
            .map(|budget| (budget - report.stats.cloud_cost).max(0.0));
        rest
    };
    let mut report = CollectReport::default();
    let mut run_probe = |steps: u64| -> Result<Dataset, ToolError> {
        let mut probe_config = config.clone();
        probe_config
            .appinputs
            .retain(|(k, _)| !k.eq_ignore_ascii_case(key));
        probe_config
            .appinputs
            .push((key.to_string(), vec![steps.to_string()]));
        let mut probe_session = session.sibling(probe_config).build()?;
        let mut probe = probe_session.collect_with(&remaining(&report))?;
        let dataset = std::mem::take(&mut probe.dataset);
        probe.outcomes.clear();
        report.append(probe);
        Ok(dataset)
    };
    let probe_a = run_probe(probe_steps)?;
    let probe_b = run_probe(probe_steps_2)?;

    // --- Extrapolate ------------------------------------------------------
    let price_of = |p: &crate::dataset::DataPoint| {
        if p.exec_time_secs > 0.0 {
            p.cost_dollars / p.exec_time_secs
        } else {
            0.0
        }
    };
    let mut predicted = Dataset::new();
    for pa in probe_a.completed() {
        let Some(pb) = probe_b
            .completed()
            .into_iter()
            .find(|q| q.scenario_id == pa.scenario_id)
        else {
            continue;
        };
        let rate =
            (pb.exec_time_secs - pa.exec_time_secs) / (probe_steps_2 as f64 - probe_steps as f64);
        let startup = (pa.exec_time_secs - rate * probe_steps as f64).max(0.0);
        let t_full = startup + rate * full_steps as f64;
        let mut q = pa.clone();
        q.cost_dollars = price_of(pa) * t_full;
        q.exec_time_secs = t_full;
        q.metrics.set(
            "PREDICTED_FROM_STEPS",
            &format!("{probe_steps}+{probe_steps_2}"),
        );
        predicted.push(q);
    }

    // --- Predicted front → verify at full length --------------------------
    let objectives: Vec<(f64, f64)> = predicted
        .points
        .iter()
        .map(|p| (p.cost_dollars, p.exec_time_secs))
        .collect();
    let front = pareto_front(&objectives);
    let m = 1.0 + margin.max(0.0);
    let mut to_verify: Vec<u32> = Vec::new();
    for (i, p) in predicted.points.iter().enumerate() {
        let near = front.contains(&i)
            || front.iter().any(|&f| {
                let (fc, ft) = objectives[f];
                p.cost_dollars <= fc * m && p.exec_time_secs <= ft * m
            });
        if near {
            to_verify.push(p.scenario_id);
        }
    }
    let verification = run_batch(session, &remaining(&report), &to_verify)?;
    report.append(verification);

    // --- Prediction quality -------------------------------------------------
    let mut err_sum = 0.0;
    let mut err_n = 0usize;
    for v in report.dataset.completed() {
        if let Some(p) = predicted
            .points
            .iter()
            .find(|p| p.scenario_id == v.scenario_id)
        {
            err_sum += (p.exec_time_secs - v.exec_time_secs).abs() / v.exec_time_secs;
            err_n += 1;
        }
    }
    Ok(PartialExecutionReport {
        total: probe_a.len(),
        full_runs: report.outcomes.len(),
        probe_runs: probe_a.len() + probe_b.len(),
        predicted,
        verified: report,
        mean_relative_error: if err_n > 0 {
            err_sum / err_n as f64
        } else {
            f64::NAN
        },
    })
}

impl PartialExecutionReport {
    /// The verified advice (Pareto front of the full-length measurements).
    pub fn advice(&self) -> Advice {
        Advice::from_dataset(&self.verified.dataset, &DataFilter::all())
    }

    /// Fraction of full-length executions saved vs. running the whole grid
    /// at full length (probes cost `probe_fraction` each, already spent).
    pub fn full_runs_saved(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            1.0 - self.full_runs as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CachePolicy, SharedScenarioCache};
    use crate::sampling::front_regret;

    fn config() -> UserConfig {
        let mut c = UserConfig::example_lammps();
        c.skus = vec!["Standard_HB120rs_v3".into(), "Standard_HC44rs".into()];
        c.nnodes = vec![2, 4, 8, 16];
        c.appinputs = vec![("BOXFACTOR".into(), vec!["20".into()])];
        c
    }

    fn partial(
        config: &UserConfig,
        seed: u64,
        probe_fraction: f64,
        margin: f64,
    ) -> Result<PartialExecutionReport, ToolError> {
        let mut session = Session::create(config.clone(), seed)?;
        run_partial_execution(&mut session, &CollectPlan::new(), probe_fraction, margin)
    }

    #[test]
    fn probes_and_verification_share_the_session_cache() {
        let cache = SharedScenarioCache::in_memory();
        let run = |policy: CachePolicy| {
            let mut session = Session::builder(config())
                .seed(7)
                .shared_cache(cache.clone())
                .cache_policy(policy)
                .build()
                .unwrap();
            run_partial_execution(&mut session, &CollectPlan::new(), 0.1, 0.05).unwrap()
        };
        let cold = run(CachePolicy::ReadWrite);
        assert!(cold.verified.stats.cloud_cost > 0.0, "{cold:?}");
        let warm = run(CachePolicy::ReadWrite);
        assert_eq!(warm.verified.stats.cloud_cost, 0.0, "{warm:?}");
        assert_eq!(
            warm.verified.stats.cache_hits,
            cold.probe_runs + cold.full_runs
        );
        assert_eq!(
            warm.verified.dataset.to_json(),
            cold.verified.dataset.to_json()
        );
        let off = run(CachePolicy::Off);
        assert_eq!(
            off.verified.stats.cloud_cost,
            cold.verified.stats.cloud_cost
        );
    }

    #[test]
    fn budget_caps_all_three_runs() {
        let mut session = Session::create(config(), 7).unwrap();
        let plan = CollectPlan::new().budget_dollars(0.0);
        let report = run_partial_execution(&mut session, &plan, 0.1, 0.05).unwrap();
        assert_eq!(report.verified.stats.cloud_cost, 0.0);
        assert_eq!(report.verified.stats.skipped, report.probe_runs);
        assert_eq!(report.full_runs, 0);
        assert!(report.verified.dataset.is_empty());
    }

    #[test]
    fn predicts_accurately_and_saves_full_runs() {
        let report = partial(&config(), 7, 0.1, 0.05).unwrap();
        assert_eq!(report.total, 8);
        assert!(report.full_runs < report.total, "{report:?}");
        assert!(
            report.mean_relative_error < 0.10,
            "mean relative error {:.1}% too high",
            report.mean_relative_error * 100.0
        );
        // The verified front is close to ground truth.
        let mut full = Session::create(config(), 7).unwrap();
        let full_ds = full.collect().unwrap();
        let reference = Advice::from_dataset(&full_ds, &DataFilter::all());
        assert!(front_regret(&reference, &report.advice()) < 0.1);
    }

    #[test]
    fn predictions_carry_probe_provenance() {
        let report = partial(&config(), 7, 0.1, 0.05).unwrap();
        for p in &report.predicted.points {
            assert!(
                p.metric("PREDICTED_FROM_STEPS").is_some(),
                "prediction must record its probe lengths: {p:?}"
            );
        }
        assert_eq!(
            report.probe_runs,
            2 * report.total,
            "two probes per scenario"
        );
    }

    #[test]
    fn rejects_unsupported_apps_and_bad_fractions() {
        let mut c = config();
        c.appname = "wrf".into();
        assert!(partial(&c, 7, 0.1, 0.05).is_err());
        assert!(partial(&config(), 7, 0.0, 0.05).is_err());
        assert!(partial(&config(), 7, 0.95, 0.05).is_err());
    }

    #[test]
    fn works_for_openfoam_iterations() {
        let mut c = UserConfig::example_openfoam_motorbike();
        c.skus = vec!["Standard_HB120rs_v3".into()];
        c.nnodes = vec![2, 4, 8];
        let report = partial(&c, 7, 0.2, 0.05).unwrap();
        assert_eq!(report.total, 3);
        // The two-point fit separates OpenFOAM's fixed startup (8 s inside
        // ExecutionTime) from the per-iteration rate.
        assert!(report.mean_relative_error < 0.15, "{report:?}");
    }
}
