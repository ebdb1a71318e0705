//! Infrastructure-bottleneck-aware sampling (paper §III-F, third strategy):
//! "with proper monitoring, it is also possible to identify possible
//! bottlenecks while executing the scenario via infrastructure related
//! metrics such as CPU, memory, network utilization. This can also serve as
//! a hint to identify and prioritize the next scenarios to be executed, or
//! even discarding ones that will not be part of the Pareto front."

use super::{scaling_groups, Sampler};
use crate::dataset::{DataFilter, Dataset};
use crate::scenario::Scenario;

/// Walks node counts upward one at a time per `(sku, input)` group and
/// stops scaling a group out once the latest run is network-bound (network
/// utilization above `net_threshold`) *and* the time improvement over the
/// previous node count fell below `min_improvement`.
#[derive(Debug)]
pub struct BottleneckAware {
    /// Network-utilization fraction above which a run counts as
    /// network-bound.
    pub net_threshold: f64,
    /// Minimum relative improvement to keep scaling out (e.g. 0.10 = 10 %).
    pub min_improvement: f64,
    /// `(sku, input_key)` groups that have been stopped, with the reason.
    pub stopped: Vec<(String, String, String)>,
    done: bool,
}

impl BottleneckAware {
    /// Creates the sampler with the given thresholds.
    pub fn new(net_threshold: f64, min_improvement: f64) -> Self {
        BottleneckAware {
            net_threshold,
            min_improvement,
            stopped: Vec::new(),
            done: false,
        }
    }

    fn is_stopped(&self, sku: &str, input_key: &str) -> bool {
        self.stopped
            .iter()
            .any(|(s, i, _)| s == sku && i == input_key)
    }
}

impl Sampler for BottleneckAware {
    fn name(&self) -> &str {
        "bottleneck-aware"
    }

    fn next_batch(&mut self, candidates: &[Scenario], observed: &Dataset) -> Vec<u32> {
        if self.done {
            return Vec::new();
        }
        let ran: Vec<u32> = observed.points.iter().map(|p| p.scenario_id).collect();
        let completed = observed.filter(&DataFilter::all());
        let mut batch = Vec::new();
        for (sku, input_key, group) in scaling_groups(candidates) {
            if self.is_stopped(&sku, &input_key) {
                continue;
            }
            // Observed runs of this group, ascending by node count.
            let mut seen: Vec<(u32, f64, f64)> = group
                .iter()
                .filter_map(|s| {
                    completed.iter().find(|p| p.scenario_id == s.id).map(|p| {
                        let net = p
                            .infra_metric("net")
                            .and_then(|v| v.parse::<f64>().ok())
                            .unwrap_or(0.0);
                        (s.nnodes, p.exec_time_secs, net)
                    })
                })
                .collect();
            seen.sort_by_key(|(n, _, _)| *n);
            // Stop criterion on the last two runs.
            if seen.len() >= 2 {
                let (_, t_prev, _) = seen[seen.len() - 2];
                let (n_last, t_last, net_last) = seen[seen.len() - 1];
                let improvement = (t_prev - t_last) / t_prev;
                if net_last >= self.net_threshold && improvement < self.min_improvement {
                    self.stopped.push((
                        sku.clone(),
                        input_key.clone(),
                        format!(
                            "network-bound at {n_last} nodes (net={net_last:.2}, improvement={:.1}%)",
                            improvement * 100.0
                        ),
                    ));
                    continue;
                }
            }
            // Next unexecuted node count in this group.
            if let Some(next) = group.iter().find(|s| !ran.contains(&s.id)) {
                batch.push(next.id);
            }
        }
        if batch.is_empty() {
            self.done = true;
        }
        batch
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

    /// GROMACS at 1 M atoms saturates early: scaling past a few nodes is
    /// network-dominated, which the infra metrics expose.
    fn config() -> UserConfig {
        UserConfig::from_yaml(
            r#"
subscription: mysubscription
skus:
- Standard_HB120rs_v3
rgprefix: btest
appsetupurl: https://example.com/scripts/gromacs.sh
nnodes: [1, 2, 4, 8, 12, 16]
appname: gromacs
region: southcentralus
ppr: 100
appinputs:
  atoms: "100000"
  steps: "20000"
"#,
        )
        .unwrap()
    }

    #[test]
    fn stops_scaling_when_network_bound() {
        let mut session = Session::create(config(), 42).unwrap();
        let mut sampler = BottleneckAware::new(0.55, 0.35);
        let (ds, report) = run_sampled(&mut session, &CollectPlan::new(), &mut sampler).unwrap();
        assert!(
            report.executed < report.total,
            "should stop before 16 nodes: {report:?}"
        );
        assert!(!sampler.stopped.is_empty(), "a stop must be recorded");
        assert!(sampler.stopped[0].2.contains("network-bound"));
        // The observed data still yields a usable front.
        assert!(!Advice::from_dataset(&ds.dataset, &DataFilter::all())
            .rows
            .is_empty());
    }

    #[test]
    fn low_thresholds_keep_everything_for_compute_bound_app() {
        // LAMMPS at a large box stays compute-bound: nothing gets stopped.
        let mut c = UserConfig::example_lammps_small();
        c.nnodes = vec![1, 2, 4];
        let mut session = Session::create(c, 42).unwrap();
        let mut sampler = BottleneckAware::new(0.5, 0.10);
        let (_, report) = run_sampled(&mut session, &CollectPlan::new(), &mut sampler).unwrap();
        assert_eq!(report.executed, report.total);
        assert!(sampler.stopped.is_empty());
    }

    #[test]
    fn front_quality_close_to_full_grid() {
        let mut full_session = Session::create(config(), 42).unwrap();
        let (full_ds, _) =
            run_sampled(&mut full_session, &CollectPlan::new(), &mut FullGrid::new()).unwrap();
        let reference = Advice::from_dataset(&full_ds.dataset, &DataFilter::all());

        let mut session = Session::create(config(), 42).unwrap();
        let mut sampler = BottleneckAware::new(0.55, 0.35);
        let (ds, _) = run_sampled(&mut session, &CollectPlan::new(), &mut sampler).unwrap();
        let sampled = Advice::from_dataset(&ds.dataset, &DataFilter::all());
        // The cheap end of the front is found exactly; the fast end may be
        // curtailed if scaling stops early — that is the strategy's
        // deliberate trade-off, so only require bounded regret.
        assert!(front_regret(&reference, &sampled) < 0.6);
    }

    #[test]
    fn batches_are_one_per_group_walk() {
        let candidates =
            crate::scenario::generate_scenarios(&config(), &cloudsim::SkuCatalog::azure_hpc())
                .unwrap();
        let mut s = BottleneckAware::new(0.5, 0.1);
        let b1 = s.next_batch(&candidates, &Dataset::new());
        assert_eq!(b1.len(), 1, "one group ⇒ one scenario per batch");
    }
}
