//! Aggressive scenario discarding (paper §III-F, first strategy):
//! "Whenever there is evidence, at a given threshold, that a VM type will
//! probably not be part of the Pareto front, we ignore all scenarios with
//! that VM type."

use super::{scaling_groups, Sampler};
use crate::dataset::{DataFilter, Dataset};
use crate::pareto::dominates;
use crate::scenario::Scenario;

/// Two-phase sampler: probe every `(sku, input)` group at its smallest and
/// largest node counts, then run the remaining scenarios only for VM types
/// whose probes sit within `threshold` of the probe-set Pareto front.
#[derive(Debug)]
pub struct AggressiveDiscard {
    /// Relative margin: a probe survives if no other probe beats it by more
    /// than this factor in *both* objectives (e.g. 0.15 ⇒ discard only when
    /// some VM type is >15 % better in time and cost simultaneously).
    pub threshold: f64,
    phase: u8,
    /// SKUs discarded in phase 2 (exposed for reporting/tests).
    pub discarded_skus: Vec<String>,
}

impl AggressiveDiscard {
    /// Creates the sampler with a discard margin (0.15 is a sane default).
    pub fn new(threshold: f64) -> Self {
        AggressiveDiscard {
            threshold: threshold.max(0.0),
            phase: 0,
            discarded_skus: Vec::new(),
        }
    }
}

impl Sampler for AggressiveDiscard {
    fn name(&self) -> &str {
        "aggressive-discard"
    }

    fn next_batch(&mut self, candidates: &[Scenario], observed: &Dataset) -> Vec<u32> {
        match self.phase {
            0 => {
                self.phase = 1;
                // Probe: min and max node count per (sku, input) group.
                let mut batch = Vec::new();
                for (_, _, group) in scaling_groups(candidates) {
                    if let Some(first) = group.first() {
                        batch.push(first.id);
                    }
                    if group.len() > 1 {
                        batch.push(group.last().expect("non-empty").id);
                    }
                }
                batch
            }
            1 => {
                self.phase = 2;
                // Decide survivors from the observed probes.
                let completed = observed.filter(&DataFilter::all());
                let margin = 1.0 + self.threshold;
                let mut keep: Vec<String> = Vec::new();
                for p in &completed {
                    // p survives if no other completed probe dominates it
                    // even after inflating p's objectives by the margin
                    // (i.e. the other point is better by > threshold in
                    // both time and cost).
                    let beaten = completed.iter().any(|q| {
                        dominates(
                            (q.cost_dollars * margin, q.exec_time_secs * margin),
                            (p.cost_dollars, p.exec_time_secs),
                        )
                    });
                    if !beaten && !keep.contains(&p.sku) {
                        keep.push(p.sku.clone());
                    }
                }
                let ran: Vec<u32> = observed.points.iter().map(|p| p.scenario_id).collect();
                self.discarded_skus = candidates
                    .iter()
                    .map(|s| s.sku.clone())
                    .filter(|sku| !keep.contains(sku))
                    .fold(Vec::new(), |mut acc, sku| {
                        if !acc.contains(&sku) {
                            acc.push(sku);
                        }
                        acc
                    });
                candidates
                    .iter()
                    .filter(|s| keep.contains(&s.sku) && !ran.contains(&s.id))
                    .map(|s| s.id)
                    .collect()
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
    use crate::sampling::{front_regret, run_sampled, FullGrid};
    use crate::session::Session;

    /// LAMMPS on HBv3 (cheap+fast) vs HC44rs (dominated): the discarder
    /// should skip most HC44rs scenarios.
    fn config() -> UserConfig {
        let mut c = UserConfig::example_lammps();
        c.skus = vec!["Standard_HB120rs_v3".into(), "Standard_HC44rs".into()];
        c.nnodes = vec![2, 4, 8, 16];
        c.appinputs = vec![("BOXFACTOR".into(), vec!["20".into()])];
        c
    }

    #[test]
    fn discards_dominated_sku_and_keeps_front_quality() {
        // Reference front from the full grid.
        let mut full_session = Session::create(config(), 42).unwrap();
        let mut full = FullGrid::new();
        let (full_ds, full_report) =
            run_sampled(&mut full_session, &CollectPlan::new(), &mut full).unwrap();
        let reference = Advice::from_dataset(&full_ds.dataset, &DataFilter::all());

        // Sampled front.
        let mut session = Session::create(config(), 42).unwrap();
        let mut sampler = AggressiveDiscard::new(0.15);
        let (ds, report) = run_sampled(&mut session, &CollectPlan::new(), &mut sampler).unwrap();
        let sampled = Advice::from_dataset(&ds.dataset, &DataFilter::all());

        assert_eq!(full_report.executed, 8);
        assert!(
            report.executed < full_report.executed,
            "sampling must save executions: {report:?}"
        );
        assert!(
            sampler.discarded_skus.iter().any(|s| s.contains("HC44rs")),
            "HC44rs is dominated for LAMMPS and should be discarded: {:?}",
            sampler.discarded_skus
        );
        // The front extremes survive sampling exactly (probes include the
        // min/max node counts of the winning SKU).
        assert!(front_regret(&reference, &sampled) < 0.05);
    }

    #[test]
    fn zero_threshold_is_most_aggressive() {
        let candidates = {
            let c = config();
            crate::scenario::generate_scenarios(&c, &cloudsim::SkuCatalog::azure_hpc()).unwrap()
        };
        let mut s = AggressiveDiscard::new(0.0);
        let probes = s.next_batch(&candidates, &Dataset::new());
        // 2 skus × 1 input × (min + max) = 4 probes.
        assert_eq!(probes.len(), 4);
    }

    #[test]
    fn terminates_after_phase_two() {
        let candidates = {
            let c = config();
            crate::scenario::generate_scenarios(&c, &cloudsim::SkuCatalog::azure_hpc()).unwrap()
        };
        let mut s = AggressiveDiscard::new(0.1);
        let _ = s.next_batch(&candidates, &Dataset::new());
        let _ = s.next_batch(&candidates, &Dataset::new());
        assert!(s.next_batch(&candidates, &Dataset::new()).is_empty());
    }
}
