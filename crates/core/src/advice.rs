//! Advice generation (paper Section III-E, Listings 3–4) plus the
//! "comprehensive advice" extension (Slurm-recipe generation) from the
//! paper's future-work list.

use crate::dataset::{DataFilter, DataPoint, Dataset};
use crate::pairs::Pairs;
use crate::pareto::pareto_front;
use crate::scenario::ScenarioStatus;
use cloudsim::Capacity;
use std::collections::{BTreeMap, HashMap};

/// How the advice table is sorted. "The advice data presented here is
/// sorted by the least execution time first, but the tool has the option to
/// have the data sorted by cost as well."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdviceSort {
    /// Fastest first (the paper's listings).
    #[default]
    ByTime,
    /// Cheapest first.
    ByCost,
}

/// One Pareto-efficient configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceRow {
    /// Execution time in seconds.
    pub exec_time_secs: f64,
    /// Cost in USD.
    pub cost_dollars: f64,
    /// Node count.
    pub nodes: u32,
    /// Processes per node.
    pub(crate) ppn: u32,
    /// Short SKU name (as the paper prints it).
    pub sku: String,
    /// Appinput combination the row was measured at.
    pub(crate) appinputs: Pairs,
    /// Region the row's measurement actually ran in (after any failover).
    /// `None` for single-region sweeps, where every row ran in the
    /// deployment's home region.
    pub(crate) region: Option<String>,
}

/// Aggregate spot-vs-dedicated comparison, available when the dataset
/// carries completed points in both capacity classes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CapacityComparison {
    /// Completed spot rows.
    pub(crate) spot_completed: usize,
    /// Spot rows that did not complete (failed or timed out).
    pub(crate) spot_unfinished: usize,
    /// Total spot evictions recorded in the spot rows' `EVICTIONS` metric.
    pub(crate) evictions: u64,
    /// Scenario ids completed in both classes, feeding the cost delta.
    pub(crate) pairs: usize,
    /// Mean fractional cost delta of spot vs dedicated over the paired
    /// scenarios (negative ⇒ spot cheaper, e.g. -0.35 = 35% cheaper even
    /// after paying for evicted attempts).
    pub(crate) mean_cost_delta: f64,
}

/// One region's outcome tally in a multi-region sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegionReport {
    /// Region name (catalog-canonical).
    pub(crate) region: String,
    /// Rows that completed in this region.
    pub(crate) completed: usize,
    /// Rows that failed or timed out in this region.
    pub(crate) unfinished: usize,
    /// Rows degraded to SLA skips while targeting this region.
    pub(crate) sla_skipped: usize,
    /// Mean fractional cost premium of this region's completed rows over
    /// the cheapest completed row of the same configuration (SKU, nodes,
    /// ppn, appinputs) in any region. 0.0 means this region was the
    /// cheapest for every configuration it completed.
    pub(crate) mean_cost_premium: f64,
}

/// Per-region completion/cost/SLA deltas, present when the dataset carries
/// placed rows (a multi-region sweep).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlacementComparison {
    /// One report per region, sorted by region name.
    pub(crate) regions: Vec<RegionReport>,
}

impl CapacityComparison {
    /// Spot completion rate over the rows that ran on spot capacity.
    pub(crate) fn spot_completion_rate(&self) -> f64 {
        let total = self.spot_completed + self.spot_unfinished;
        if total == 0 {
            return 0.0;
        }
        self.spot_completed as f64 / total as f64
    }
}

/// The advice: the Pareto front of the filtered dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// Pareto-efficient rows in the requested order.
    pub rows: Vec<AdviceRow>,
    /// How `rows` is sorted.
    pub(crate) sort: AdviceSort,
    /// Scenarios the collection deliberately dropped — skipped (quota or
    /// budget degradation) or killed by the deadline watchdog. When nonzero
    /// the advice was computed from a partial grid and
    /// [`Advice::render_text`] says so.
    pub skipped_scenarios: usize,
    /// Spot-vs-dedicated comparison, present when the dataset holds
    /// completed points in both capacity classes.
    pub(crate) capacity_comparison: Option<CapacityComparison>,
    /// Per-region placement deltas, present when the dataset holds placed
    /// rows (a multi-region sweep).
    pub(crate) placement_comparison: Option<PlacementComparison>,
}

impl Advice {
    /// Computes the Pareto front of the filtered dataset, fastest first.
    pub fn from_dataset(ds: &Dataset, filter: &DataFilter) -> Advice {
        Advice::from_dataset_sorted(ds, filter, AdviceSort::ByTime)
    }

    /// Computes the Pareto front with an explicit sort order.
    pub fn from_dataset_sorted(ds: &Dataset, filter: &DataFilter, sort: AdviceSort) -> Advice {
        let points = ds.filter(filter);
        let objectives: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.cost_dollars, p.exec_time_secs))
            .collect();
        let front = pareto_front(&objectives);
        let mut rows: Vec<AdviceRow> = front
            .into_iter()
            .map(|i| {
                let p = points[i];
                AdviceRow {
                    exec_time_secs: p.exec_time_secs,
                    cost_dollars: p.cost_dollars,
                    nodes: p.nnodes,
                    ppn: p.ppn,
                    sku: p.sku_short(),
                    appinputs: p.appinputs.clone(),
                    region: p.region.clone(),
                }
            })
            .collect();
        match sort {
            AdviceSort::ByTime => {
                rows.sort_by(|a, b| a.exec_time_secs.total_cmp(&b.exec_time_secs))
            }
            AdviceSort::ByCost => rows.sort_by(|a, b| a.cost_dollars.total_cmp(&b.cost_dollars)),
        }
        let skipped_scenarios = ds
            .points
            .iter()
            .filter(|p| p.status == ScenarioStatus::Skipped || p.status == ScenarioStatus::TimedOut)
            .count();
        Advice {
            rows,
            sort,
            skipped_scenarios,
            capacity_comparison: compare_capacity(ds),
            placement_comparison: compare_placement(ds),
        }
    }

    /// Renders the advice table in the paper's Listing 3/4 format:
    ///
    /// ```text
    /// Exectime(s)  Cost($)  Nodes  SKU
    /// 34           0.5440   16     hb120rs_v3
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::from("Exectime(s)  Cost($)  Nodes  SKU\n");
        for r in &self.rows {
            // Placed rows carry their region on the SKU axis, so a front
            // mixing regions stays unambiguous (hb120rs_v3@westeurope).
            let sku = match &r.region {
                Some(region) => format!("{}@{}", r.sku, region),
                None => r.sku.clone(),
            };
            out.push_str(&format!(
                "{:<12} {:<8.4} {:<6} {}\n",
                r.exec_time_secs.round() as i64,
                r.cost_dollars,
                r.nodes,
                sku
            ));
        }
        if self.skipped_scenarios > 0 {
            out.push_str(&format!(
                "note: partial grid — {} scenario{} skipped (e.g. quota) or timed out; rerun collect to fill in\n",
                self.skipped_scenarios,
                if self.skipped_scenarios == 1 { "" } else { "s" },
            ));
        }
        if let Some(c) = &self.capacity_comparison {
            out.push_str(&format!(
                "capacity: spot completed {}/{} ({:.0}%, {} eviction{}); \
                 spot vs dedicated cost over {} paired scenario{}: {:+.1}%\n",
                c.spot_completed,
                c.spot_completed + c.spot_unfinished,
                c.spot_completion_rate() * 100.0,
                c.evictions,
                if c.evictions == 1 { "" } else { "s" },
                c.pairs,
                if c.pairs == 1 { "" } else { "s" },
                c.mean_cost_delta * 100.0,
            ));
        }
        if let Some(p) = &self.placement_comparison {
            for r in &p.regions {
                let total = r.completed + r.unfinished + r.sla_skipped;
                out.push_str(&format!(
                    "placement {}: {}/{} completed",
                    r.region, r.completed, total
                ));
                if r.sla_skipped > 0 {
                    out.push_str(&format!(
                        ", {} SLA skip{}",
                        r.sla_skipped,
                        if r.sla_skipped == 1 { "" } else { "s" },
                    ));
                }
                if r.completed > 0 {
                    out.push_str(&format!(
                        ", cost {:+.1}% vs cheapest region",
                        r.mean_cost_premium * 100.0
                    ));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Generates a ready-to-submit Slurm batch script for one advice row —
    /// the paper's envisioned "recipes to run jobs (e.g., Slurm scripts)".
    pub fn slurm_recipe(&self, row: &AdviceRow, appname: &str) -> String {
        let mut inputs = String::new();
        for (k, v) in &row.appinputs {
            inputs.push_str(&format!("export {k}=\"{v}\"\n"));
        }
        format!(
            "#!/bin/bash\n\
             #SBATCH --job-name={appname}\n\
             #SBATCH --nodes={nodes}\n\
             #SBATCH --ntasks-per-node={ppn}\n\
             #SBATCH --exclusive\n\
             #SBATCH --partition={sku}\n\
             # Estimated execution time: {time:.0} s; estimated VM cost: ${cost:.4}\n\
             # Generated by hpcadvisor (Pareto-efficient configuration)\n\
             {inputs}\
             srun --mpi=pmix {appname}\n",
            appname = appname,
            nodes = row.nodes,
            ppn = row.ppn,
            sku = row.sku,
            time = row.exec_time_secs,
            cost = row.cost_dollars,
            inputs = inputs,
        )
    }
}

impl Advice {
    /// Generates a cluster-creation recipe for one advice row — the other
    /// half of the paper's "comprehensive advice" future work ("computing
    /// environment creation/modification, e.g., cluster creation or
    /// scheduling queue creation/modification"). The output mirrors the
    /// tool's own deployment sequence as a reusable shell script.
    pub fn cluster_recipe(&self, row: &AdviceRow, appname: &str, region: &str) -> String {
        let sku_full = format!("Standard_{}", row.sku.to_uppercase());
        // A placed row was measured in a specific region; the recipe
        // deploys there rather than in the session's home region.
        let region = row.region.as_deref().unwrap_or(region);
        format!(
            "#!/bin/bash\n\
             # Cluster recipe generated by hpcadvisor for '{appname}'\n\
             # Pareto-efficient configuration: {nodes} x {sku} ({ppn} procs/node)\n\
             # Estimated run: {time:.0} s, ~${cost:.4} in VM cost per execution\n\
             set -euo pipefail\n\
             RG=hpcadvisor-{appname}\n\
             az group create --name \"$RG\" --location {region}\n\
             az network vnet create --resource-group \"$RG\" --name \"$RG-vnet\" \\\n\
                 --subnet-name default\n\
             az storage account create --resource-group \"$RG\" --name \"{appname}stor\"\n\
             az batch account create --resource-group \"$RG\" --name \"{appname}batch\"\n\
             az batch pool create --id \"pool-{sku}\" \\\n\
                 --vm-size {sku_full} \\\n\
                 --target-dedicated-nodes {nodes} \\\n\
                 --enable-inter-node-communication\n",
            appname = appname,
            nodes = row.nodes,
            sku = row.sku,
            ppn = row.ppn,
            time = row.exec_time_secs,
            cost = row.cost_dollars,
            region = region,
            sku_full = sku_full,
        )
    }
}

/// Builds the spot-vs-dedicated comparison from a dataset that holds rows
/// in both capacity classes (e.g. after a dedicated sweep and a spot sweep
/// into the same dataset). Returns `None` when either class has no
/// completed rows — a single-class dataset has nothing to compare.
fn compare_capacity(ds: &Dataset) -> Option<CapacityComparison> {
    let mut spot_completed = 0usize;
    let mut spot_unfinished = 0usize;
    let mut evictions = 0u64;
    let mut dedicated_completed = 0usize;
    for p in &ds.points {
        match p.capacity {
            Capacity::Spot => match p.status {
                ScenarioStatus::Completed => {
                    spot_completed += 1;
                    evictions += p
                        .metric("EVICTIONS")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                }
                ScenarioStatus::Failed | ScenarioStatus::TimedOut => spot_unfinished += 1,
                _ => {}
            },
            Capacity::Dedicated => {
                if p.status == ScenarioStatus::Completed {
                    dedicated_completed += 1;
                }
            }
        }
    }
    if spot_completed + spot_unfinished == 0 || dedicated_completed == 0 {
        return None;
    }
    // Pair scenarios completed in both classes and average the fractional
    // cost delta. Each scenario pairs with its first priced dedicated row.
    let mut dedicated: HashMap<u32, f64> = HashMap::new();
    for dp in &ds.points {
        if dp.capacity == Capacity::Dedicated
            && dp.status == ScenarioStatus::Completed
            && dp.cost_dollars > 0.0
        {
            dedicated.entry(dp.scenario_id).or_insert(dp.cost_dollars);
        }
    }
    let mut pairs = 0usize;
    let mut delta_sum = 0.0f64;
    for sp in &ds.points {
        if sp.capacity != Capacity::Spot || sp.status != ScenarioStatus::Completed {
            continue;
        }
        if let Some(&dedicated_cost) = dedicated.get(&sp.scenario_id) {
            pairs += 1;
            delta_sum += (sp.cost_dollars - dedicated_cost) / dedicated_cost;
        }
    }
    Some(CapacityComparison {
        spot_completed,
        spot_unfinished,
        evictions,
        pairs,
        mean_cost_delta: if pairs > 0 {
            delta_sum / pairs as f64
        } else {
            0.0
        },
    })
}

/// Builds the per-region placement comparison from a dataset holding
/// placed rows. Returns `None` for single-region datasets (no row carries
/// a region). Cost premiums pair configurations — (SKU, nodes, ppn,
/// appinputs) — across regions and measure each completed row against the
/// cheapest completed sibling anywhere.
fn compare_placement(ds: &Dataset) -> Option<PlacementComparison> {
    if !ds.points.iter().any(|p| p.region.is_some()) {
        return None;
    }
    /// A configuration: SKU, nodes, ppn and the appinputs in key order, so
    /// rows that list the same inputs in another order still pair.
    fn config_key(p: &DataPoint) -> (&str, u32, u32, Vec<(&str, &str)>) {
        let mut inputs: Vec<(&str, &str)> = p.appinputs.iter().collect();
        inputs.sort_unstable();
        (&p.sku, p.nnodes, p.ppn, inputs)
    }
    // Each completed placed row's configuration, built once, and the
    // cheapest completed cost per configuration across all regions.
    let keys: Vec<_> = ds
        .points
        .iter()
        .map(|p| {
            let priced = p.status == ScenarioStatus::Completed && p.cost_dollars > 0.0;
            (p.region.is_some() && priced).then(|| config_key(p))
        })
        .collect();
    let mut floor = HashMap::new();
    for (p, key) in ds.points.iter().zip(&keys) {
        if let Some(key) = key {
            let entry = floor.entry(key).or_insert(f64::INFINITY);
            *entry = entry.min(p.cost_dollars);
        }
    }
    // Region name -> (completed, unfinished, sla_skipped, premium sum, premium count).
    let mut tallies: BTreeMap<&str, (usize, usize, usize, f64, usize)> = BTreeMap::new();
    for (p, key) in ds.points.iter().zip(&keys) {
        let Some(region) = &p.region else { continue };
        let t = tallies.entry(region).or_default();
        match p.status {
            ScenarioStatus::Completed => {
                t.0 += 1;
                if let Some(key) = key {
                    // The row itself is in its configuration's floor, so
                    // the floor is finite and positive.
                    let min = floor[&key];
                    t.3 += (p.cost_dollars - min) / min;
                    t.4 += 1;
                }
            }
            ScenarioStatus::Failed | ScenarioStatus::TimedOut => t.1 += 1,
            ScenarioStatus::Skipped => t.2 += 1,
            ScenarioStatus::Pending => {}
        }
    }
    Some(PlacementComparison {
        regions: tallies
            .into_iter()
            .map(
                |(region, (completed, unfinished, sla_skipped, sum, n))| RegionReport {
                    region: region.to_string(),
                    completed,
                    unfinished,
                    sla_skipped,
                    mean_cost_premium: if n > 0 { sum / n as f64 } else { 0.0 },
                },
            )
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::point;

    /// A dataset whose Pareto front reproduces the paper's Listing 4.
    fn listing4_like() -> Dataset {
        let mut ds = Dataset::new();
        // The front (HB120rs_v3).
        for (id, n, t, c) in [
            (1u32, 3u32, 173.0, 0.519),
            (2, 4, 132.0, 0.528),
            (3, 8, 69.0, 0.552),
            (4, 16, 36.0, 0.576),
        ] {
            ds.push(point(id, "lammps", "Standard_HB120rs_v3", n, 120, t, c));
        }
        // Dominated rows (HC44rs: slower and costlier everywhere).
        for (id, n, t, c) in [(11u32, 8u32, 120.0, 0.95), (12, 16, 62.0, 0.87)] {
            ds.push(point(id, "lammps", "Standard_HC44rs", n, 44, t, c));
        }
        ds
    }

    #[test]
    fn front_matches_listing4_shape() {
        let ds = listing4_like();
        let advice = Advice::from_dataset(&ds, &DataFilter::all());
        assert_eq!(advice.rows.len(), 4);
        assert!(advice.rows.iter().all(|r| r.sku == "hb120rs_v3"));
        // Fastest first.
        assert_eq!(advice.rows[0].nodes, 16);
        assert!((advice.rows[0].exec_time_secs - 36.0).abs() < 1e-9);
        assert_eq!(advice.rows[3].nodes, 3);
    }

    #[test]
    fn sort_by_cost_flips_order() {
        let ds = listing4_like();
        let advice = Advice::from_dataset_sorted(&ds, &DataFilter::all(), AdviceSort::ByCost);
        assert_eq!(advice.rows[0].nodes, 3, "cheapest first");
        assert_eq!(advice.rows[3].nodes, 16);
    }

    #[test]
    fn render_matches_listing_format() {
        let ds = listing4_like();
        let text = Advice::from_dataset(&ds, &DataFilter::all()).render_text();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), "Exectime(s)  Cost($)  Nodes  SKU");
        let first = lines.next().unwrap();
        assert!(first.starts_with("36"), "{first}");
        assert!(first.contains("0.5760"));
        assert!(first.contains("16"));
        assert!(first.ends_with("hb120rs_v3"));
    }

    #[test]
    fn slurm_recipe_generation() {
        let ds = listing4_like();
        let advice = Advice::from_dataset(&ds, &DataFilter::all());
        let recipe = advice.slurm_recipe(&advice.rows[0], "lammps");
        assert!(recipe.contains("#SBATCH --nodes=16"));
        assert!(recipe.contains("#SBATCH --ntasks-per-node=120"));
        assert!(recipe.contains("--partition=hb120rs_v3"));
        assert!(recipe.contains("srun --mpi=pmix lammps"));
    }

    #[test]
    fn cluster_recipe_generation() {
        let ds = listing4_like();
        let advice = Advice::from_dataset(&ds, &DataFilter::all());
        let recipe = advice.cluster_recipe(&advice.rows[0], "lammps", "southcentralus");
        assert!(recipe.contains("az group create"));
        assert!(recipe.contains("--target-dedicated-nodes 16"));
        assert!(recipe.contains("--vm-size Standard_HB120RS_V3"));
        assert!(recipe.contains("--enable-inter-node-communication"));
    }

    #[test]
    fn empty_dataset_gives_empty_advice() {
        let advice = Advice::from_dataset(&Dataset::new(), &DataFilter::all());
        assert!(advice.rows.is_empty());
        assert_eq!(advice.render_text().lines().count(), 1, "header only");
    }

    #[test]
    fn spot_vs_dedicated_comparison_pairs_scenarios() {
        // No spot rows ⇒ no comparison.
        let ds = listing4_like();
        assert!(Advice::from_dataset(&ds, &DataFilter::all())
            .capacity_comparison
            .is_none());

        // Spot re-measurements of two scenarios, one cheaper, plus one
        // timed-out spot row.
        let mut ds = listing4_like();
        let mut sp = point(
            1,
            "lammps",
            "Standard_HB120rs_v3",
            3,
            120,
            173.0,
            0.519 * 0.4,
        );
        sp.capacity = Capacity::Spot;
        sp.metrics.set("EVICTIONS", "2");
        ds.push(sp);
        let mut sp = point(
            2,
            "lammps",
            "Standard_HB120rs_v3",
            4,
            120,
            132.0,
            0.528 * 0.6,
        );
        sp.capacity = Capacity::Spot;
        ds.push(sp);
        let mut to = point(3, "lammps", "Standard_HB120rs_v3", 8, 120, 0.0, 0.0);
        to.capacity = Capacity::Spot;
        to.status = ScenarioStatus::TimedOut;
        ds.push(to);

        let advice = Advice::from_dataset(&ds, &DataFilter::all());
        let c = advice
            .capacity_comparison
            .clone()
            .expect("both classes present");
        assert_eq!(c.spot_completed, 2);
        assert_eq!(c.spot_unfinished, 1);
        assert_eq!(c.evictions, 2);
        assert_eq!(c.pairs, 2);
        assert!((c.spot_completion_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert!((c.mean_cost_delta - (-0.5)).abs() < 1e-9, "{c:?}");
        let text = advice.render_text();
        assert!(text.contains("spot completed 2/3"), "{text}");
        assert!(text.contains("-50.0%"), "{text}");
        // The timed-out row also counts into the partial-grid note.
        assert_eq!(advice.skipped_scenarios, 1);
    }

    #[test]
    fn placement_comparison_reports_per_region_deltas() {
        // Single-region dataset: no placement section.
        let ds = listing4_like();
        let advice = Advice::from_dataset(&ds, &DataFilter::all());
        assert!(advice.placement_comparison.is_none());
        assert!(!advice.render_text().contains("placement"));

        // Two regions measuring the same configurations: westeurope runs
        // 8% dearer; japaneast lost one row to an SLA skip.
        let mut ds = Dataset::new();
        for (id, region, cost, status) in [
            (1u32, "southcentralus", 0.50, ScenarioStatus::Completed),
            (2, "westeurope", 0.54, ScenarioStatus::Completed),
            (3, "japaneast", 0.0, ScenarioStatus::Skipped),
        ] {
            let mut p = point(id, "lammps", "Standard_HB120rs_v3", 4, 120, 100.0, cost);
            p.region = Some(region.into());
            p.status = status;
            if status == ScenarioStatus::Skipped {
                p.metrics
                    .set("SKIPREASON", "no region satisfies placement SLA");
            }
            ds.push(p);
        }
        let advice = Advice::from_dataset(&ds, &DataFilter::all());
        let pc = advice.placement_comparison.clone().expect("placed rows");
        assert_eq!(pc.regions.len(), 3);
        let by_name = |n: &str| pc.regions.iter().find(|r| r.region == n).unwrap().clone();
        let home = by_name("southcentralus");
        assert_eq!((home.completed, home.sla_skipped), (1, 0));
        assert!(home.mean_cost_premium.abs() < 1e-9, "{home:?}");
        let we = by_name("westeurope");
        assert!((we.mean_cost_premium - 0.08).abs() < 1e-9, "{we:?}");
        let jp = by_name("japaneast");
        assert_eq!((jp.completed, jp.sla_skipped), (0, 1));
        // The render carries one line per region and region-tagged SKUs.
        let text = advice.render_text();
        assert!(
            text.contains("placement westeurope: 1/1 completed, cost +8.0% vs cheapest region"),
            "{text}"
        );
        assert!(
            text.contains("placement japaneast: 0/1 completed, 1 SLA skip"),
            "{text}"
        );
        assert!(text.contains("hb120rs_v3@southcentralus"), "{text}");
        // Pareto keeps the placed axis: the same config in a dearer region
        // is dominated, so only the cheapest region's row survives.
        assert_eq!(advice.rows.len(), 1, "{:?}", advice.rows);
        assert_eq!(advice.rows[0].region.as_deref(), Some("southcentralus"));
        // Cluster recipes deploy into the row's placed region.
        let recipe = advice.cluster_recipe(&advice.rows[0], "lammps", "eastus");
        assert!(recipe.contains("--location southcentralus"), "{recipe}");
    }

    #[test]
    fn skipped_scenarios_annotate_partial_grid() {
        let mut ds = listing4_like();
        let mut sk = point(99, "lammps", "Standard_HC44rs", 2, 44, 0.0, 0.0);
        sk.status = ScenarioStatus::Skipped;
        ds.push(sk);
        let advice = Advice::from_dataset(&ds, &DataFilter::all());
        assert_eq!(advice.skipped_scenarios, 1);
        assert_eq!(advice.rows.len(), 4, "skipped points never become rows");
        assert!(advice.render_text().contains("partial grid"));
        // A complete grid carries no note.
        let full = Advice::from_dataset(&listing4_like(), &DataFilter::all());
        assert_eq!(full.skipped_scenarios, 0);
        assert!(!full.render_text().contains("partial grid"));
    }
}
