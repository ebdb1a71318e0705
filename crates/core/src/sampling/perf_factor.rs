//! Fixed-performance-factor extrapolation (paper §III-F, second strategy):
//! "by using the same VM type but different application input parameters
//! and their influence on execution time, or by using the same application
//! input parameters but analyzing a different VM type, we can identify
//! scenarios that should or should not be in the Pareto front."

use super::{scaling_groups, Sampler};
use crate::dataset::{DataFilter, Dataset};
use crate::pairs::Pairs;
use crate::pareto::pareto_front;
use crate::regress::{amdahl_eval, amdahl_fit};
use crate::scenario::Scenario;

/// Three-phase sampler:
///
/// 1. For each VM type, run the *reference* input (the first combination)
///    at every node count, plus every other input at the smallest node
///    count only.
/// 2. Fit Amdahl's law to each reference curve; scale it by the measured
///    single-point ratio to predict every unmeasured (input, nodes) time;
///    predict costs from SKU prices; compute the predicted Pareto front.
/// 3. Execute only the scenarios predicted on (or within `margin` of) the
///    front; everything else stays predicted-only.
#[derive(Debug)]
pub struct FixedPerfFactor {
    /// Relative margin around the predicted front that still gets executed.
    pub margin: f64,
    phase: u8,
    predicted: Dataset,
}

impl FixedPerfFactor {
    /// Creates the sampler; `margin` of 0.10 verifies everything within
    /// 10 % of the predicted front.
    pub fn new(margin: f64) -> Self {
        FixedPerfFactor {
            margin: margin.max(0.0),
            phase: 0,
            predicted: Dataset::new(),
        }
    }

    /// Hourly price per node for a SKU (from the shared catalog — the
    /// sampler runs before cost rows exist for unmeasured scenarios).
    fn price(sku: &str) -> f64 {
        cloudsim::SkuCatalog::azure_hpc()
            .get(sku)
            .map(|s| s.price_per_hour)
            .unwrap_or(f64::NAN)
    }
}

impl Sampler for FixedPerfFactor {
    fn name(&self) -> &str {
        "fixed-perf-factor"
    }

    fn predicted(&self) -> Dataset {
        self.predicted.clone()
    }

    fn next_batch(&mut self, candidates: &[Scenario], observed: &Dataset) -> Vec<u32> {
        match self.phase {
            0 => {
                self.phase = 1;
                let mut batch = Vec::new();
                // Reference input = first input combination seen per SKU.
                let mut reference_of_sku: Vec<(String, String)> = Vec::new();
                for (sku, input_key, group) in scaling_groups(candidates) {
                    let is_reference = match reference_of_sku.iter().find(|(s, _)| *s == sku) {
                        Some((_, r)) => *r == input_key,
                        None => {
                            reference_of_sku.push((sku.clone(), input_key.clone()));
                            true
                        }
                    };
                    if is_reference {
                        batch.extend(group.iter().map(|s| s.id));
                    } else if let Some(first) = group.first() {
                        batch.push(first.id);
                    }
                }
                batch
            }
            1 => {
                self.phase = 2;
                let ran: Vec<u32> = observed.points.iter().map(|p| p.scenario_id).collect();
                let completed = observed.filter(&DataFilter::all());
                let measured_time = |id: u32| -> Option<f64> {
                    completed
                        .iter()
                        .find(|p| p.scenario_id == id)
                        .map(|p| p.exec_time_secs)
                };

                // Predict unmeasured scenarios group by group.
                let groups = scaling_groups(candidates);
                let mut predictions: Vec<(u32, f64, f64)> = Vec::new(); // (id, time, cost)
                let mut reference_fit: Vec<(String, crate::regress::Fit, f64)> = Vec::new();
                for (sku, _, group) in &groups {
                    // The reference group is the one whose every member ran.
                    let all_ran = group.iter().all(|s| ran.contains(&s.id));
                    if all_ran && !reference_fit.iter().any(|(s, _, _)| s == sku) {
                        let curve: Vec<(f64, f64)> = group
                            .iter()
                            .filter_map(|s| Some((s.nnodes as f64, measured_time(s.id)?)))
                            .collect();
                        if let Some(fit) = amdahl_fit(&curve) {
                            let base_nodes = group.first().expect("non-empty").nnodes as f64;
                            reference_fit.push((sku.clone(), fit, base_nodes));
                        }
                    }
                }
                for (sku, _, group) in &groups {
                    let Some((_, fit, base_nodes)) =
                        reference_fit.iter().find(|(s, _, _)| s == sku)
                    else {
                        continue;
                    };
                    // Ratio between this input and the reference at the
                    // smallest node count.
                    let Some(anchor) = group.first() else {
                        continue;
                    };
                    let Some(anchor_time) = measured_time(anchor.id) else {
                        continue;
                    };
                    let ref_at_anchor = amdahl_eval(fit, anchor.nnodes as f64);
                    if ref_at_anchor <= 0.0 {
                        continue;
                    }
                    let ratio = anchor_time / ref_at_anchor;
                    let _ = base_nodes;
                    for s in group.iter().filter(|s| !ran.contains(&s.id)) {
                        let t = amdahl_eval(fit, s.nnodes as f64) * ratio;
                        let cost = Self::price(&s.sku) * s.nnodes as f64 * t / 3600.0;
                        predictions.push((s.id, t, cost));
                        let mut point = crate::dataset::point(
                            s.id,
                            "predicted",
                            &s.sku,
                            s.nnodes,
                            s.ppn,
                            t,
                            cost,
                        );
                        point.appinputs = Pairs::from(s.appinputs.as_slice());
                        point.metrics = Pairs::from([("PREDICTED", "1")]);
                        self.predicted.push(point);
                    }
                }

                // Predicted front over measured ∪ predicted.
                let mut all: Vec<(u32, f64, f64, bool)> = completed
                    .iter()
                    .map(|p| (p.scenario_id, p.cost_dollars, p.exec_time_secs, true))
                    .collect();
                all.extend(predictions.iter().map(|(id, t, c)| (*id, *c, *t, false)));
                let objectives: Vec<(f64, f64)> = all.iter().map(|(_, c, t, _)| (*c, *t)).collect();
                let front = pareto_front(&objectives);
                let margin = 1.0 + self.margin;
                // Execute predicted scenarios on or near the front.
                let mut batch = Vec::new();
                for (i, (id, c, t, measured)) in all.iter().enumerate() {
                    if *measured {
                        continue;
                    }
                    let near_front = front.contains(&i)
                        || front.iter().any(|&f| {
                            let (fc, ft) = objectives[f];
                            *c <= fc * margin && *t <= ft * margin
                        });
                    if near_front {
                        batch.push(*id);
                    }
                }
                batch.sort_unstable();
                batch.dedup();
                batch
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::Advice;
    use crate::collect::CollectPlan;
    use crate::config::UserConfig;
    use crate::dataset::DataFilter;
    use crate::sampling::{front_regret, run_sampled, FullGrid};
    use crate::scenario::ScenarioStatus;
    use crate::session::Session;

    /// One SKU, two LAMMPS box factors, four node counts: the second box
    /// factor's curve is predictable from the first by a fixed factor.
    fn config() -> UserConfig {
        let mut c = UserConfig::example_lammps();
        c.skus = vec!["Standard_HB120rs_v3".into()];
        c.nnodes = vec![2, 4, 8, 16];
        c.appinputs = vec![("BOXFACTOR".into(), vec!["16".into(), "20".into()])];
        c
    }

    #[test]
    fn saves_executions_with_low_regret() {
        let mut full_session = Session::create(config(), 42).unwrap();
        let (full_ds, _) =
            run_sampled(&mut full_session, &CollectPlan::new(), &mut FullGrid::new()).unwrap();
        let reference = Advice::from_dataset(&full_ds.dataset, &DataFilter::all());

        let mut session = Session::create(config(), 42).unwrap();
        let mut sampler = FixedPerfFactor::new(0.10);
        let (ds, report) = run_sampled(&mut session, &CollectPlan::new(), &mut sampler).unwrap();
        assert!(report.executed < report.total, "{report:?}");
        // Phase 1 runs 4 (reference curve) + 1 (anchor) = 5 of 8.
        assert!(report.executed >= 5);

        let sampled = Advice::from_dataset(&ds.dataset, &DataFilter::all());
        assert!(front_regret(&reference, &sampled) < 0.10, "regret too high");
        // Predictions exist for skipped scenarios.
        let predicted = sampler.predicted();
        assert_eq!(
            predicted.len() + report.executed,
            report.total + {
                // scenarios both predicted and then executed appear in both
                // sets; count the overlap.
                let exec_ids: Vec<u32> = ds.dataset.points.iter().map(|p| p.scenario_id).collect();
                predicted
                    .points
                    .iter()
                    .filter(|p| exec_ids.contains(&p.scenario_id))
                    .count()
            }
        );
    }

    #[test]
    fn predictions_are_close_to_measurements() {
        // Run the sampler, then compare its predictions for skipped
        // scenarios against a full-grid ground truth at the same seed.
        let mut full_session = Session::create(config(), 42).unwrap();
        let (full_ds, _) =
            run_sampled(&mut full_session, &CollectPlan::new(), &mut FullGrid::new()).unwrap();

        let mut session = Session::create(config(), 42).unwrap();
        let mut sampler = FixedPerfFactor::new(0.0);
        let _ = run_sampled(&mut session, &CollectPlan::new(), &mut sampler).unwrap();
        let predicted = sampler.predicted();
        assert!(!predicted.is_empty());
        for p in &predicted.points {
            let truth = full_ds
                .dataset
                .points
                .iter()
                .find(|q| q.scenario_id == p.scenario_id)
                .expect("ground truth exists");
            let rel = (p.exec_time_secs - truth.exec_time_secs).abs() / truth.exec_time_secs;
            assert!(
                rel < 0.15,
                "prediction for scenario {} off by {:.0}% ({} vs {})",
                p.scenario_id,
                rel * 100.0,
                p.exec_time_secs,
                truth.exec_time_secs
            );
        }
    }

    #[test]
    fn phase_one_shape() {
        let candidates =
            crate::scenario::generate_scenarios(&config(), &cloudsim::SkuCatalog::azure_hpc())
                .unwrap();
        let mut s = FixedPerfFactor::new(0.1);
        let batch = s.next_batch(&candidates, &Dataset::new());
        // 4 reference-curve points + 1 anchor for the second input.
        assert_eq!(batch.len(), 5);
    }

    #[test]
    fn handles_all_failed_observations() {
        let candidates =
            crate::scenario::generate_scenarios(&config(), &cloudsim::SkuCatalog::azure_hpc())
                .unwrap();
        let mut s = FixedPerfFactor::new(0.1);
        let _ = s.next_batch(&candidates, &Dataset::new());
        // Observed dataset with only failed rows: no fit possible, no batch.
        let mut observed = Dataset::new();
        let mut p = crate::dataset::point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 0.0, 0.0);
        p.status = ScenarioStatus::Failed;
        observed.push(p);
        let batch = s.next_batch(&candidates, &observed);
        assert!(batch.is_empty());
        assert!(s.next_batch(&candidates, &observed).is_empty());
    }
}
