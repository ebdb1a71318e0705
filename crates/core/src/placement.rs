//! Region placement and failover for the collection loop.
//!
//! A multi-region sweep treats each region as a fault domain: a scenario
//! asks for its grid region first, and when that region faults out
//! (outage, capacity crunch, exhausted quota pool) the collector fails
//! over to the next candidate instead of burning the scenario. The policy
//! is deliberately small and deterministic — no clocks, no randomness —
//! so serial and sharded collects (and a `--resume` after a crash) make
//! byte-identical placement decisions.
//!
//! All state is keyed by `(SKU, region)`, never by region alone. Shards
//! are per-SKU, so a single-shard run and an 8-worker run observe the
//! same fault sequence per key regardless of how the other SKUs
//! interleave.

use cloudsim::RegionCatalog;
use std::collections::{HashMap, HashSet};

/// Deterministic failover policy for one shard run.
///
/// Tracks provisioning faults per `(SKU, region)` and marks a region down
/// for a SKU after a configured number of transient faults
/// (immediately for permanent ones, e.g. an exhausted quota pool).
/// Marked-down regions drop out of every later candidate list, so
/// subsequent scenarios fail over without touching the cloud.
#[derive(Debug, Clone)]
pub(crate) struct PlacementPolicy {
    /// Candidate regions in failover order (the run config's `regions`
    /// list, canonicalized against the catalog).
    regions: Vec<String>,
    /// Transient faults a `(SKU, region)` tolerates before markdown.
    markdown_after: u32,
    /// Fault tallies per `"{sku}@{region}"` key.
    faults: HashMap<String, u32>,
    /// Keys marked down for the remainder of the run.
    down: HashSet<String>,
}

impl PlacementPolicy {
    /// Builds a policy over the config's region list. Unknown names are
    /// dropped (scenario generation already rejected them loudly); known
    /// ones are canonicalized so keys match regardless of input casing.
    pub(crate) fn new(regions: &[String], markdown_after: u32) -> Self {
        let catalog = RegionCatalog::azure();
        PlacementPolicy {
            regions: regions
                .iter()
                .filter_map(|r| catalog.get(r).map(|region| region.name.clone()))
                .collect(),
            markdown_after: markdown_after.max(1),
            faults: HashMap::new(),
            down: HashSet::new(),
        }
    }

    fn key(sku: &str, region: &str) -> String {
        format!("{sku}@{region}")
    }

    /// Candidate regions for one scenario in failover order: the
    /// scenario's requested region first, then the remaining configured
    /// regions. Regions that do not offer the SKU's family or are marked
    /// down for this SKU are dropped; an empty answer means no region can
    /// satisfy the placement and the scenario should degrade to a
    /// journaled skip.
    pub(crate) fn candidates(&self, sku: &str, family: &str, requested: &str) -> Vec<String> {
        let catalog = RegionCatalog::azure();
        let mut out: Vec<String> = Vec::new();
        for name in std::iter::once(requested).chain(self.regions.iter().map(String::as_str)) {
            let Some(region) = catalog.get(name) else {
                continue;
            };
            if out.iter().any(|r| r == &region.name) {
                continue;
            }
            if !region.offers_family(family) {
                continue;
            }
            if self.is_down(sku, &region.name) {
                continue;
            }
            out.push(region.name.clone());
        }
        out
    }

    /// Records a provisioning fault against `(sku, region)`. Permanent
    /// faults (quota exhaustion) mark the key down immediately; transient
    /// ones mark it down once the tally reaches the markdown threshold.
    /// Returns whether the key is now down.
    pub(crate) fn record_fault(&mut self, sku: &str, region: &str, permanent: bool) -> bool {
        let key = Self::key(sku, region);
        let tally = self.faults.entry(key.clone()).or_insert(0);
        *tally += 1;
        if permanent || *tally >= self.markdown_after {
            self.down.insert(key);
            return true;
        }
        false
    }

    /// Whether `(sku, region)` is marked down.
    pub(crate) fn is_down(&self, sku: &str, region: &str) -> bool {
        self.down.contains(&Self::key(sku, region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SKU: &str = "Standard_HB120rs_v3";

    #[test]
    fn candidates_put_requested_region_first_then_config_order() {
        let policy = PlacementPolicy::new(
            &[
                "southcentralus".into(),
                "westeurope".into(),
                "japaneast".into(),
            ],
            2,
        );
        let c = policy.candidates(SKU, "HBv3", "westeurope");
        assert_eq!(c, vec!["westeurope", "southcentralus", "japaneast"]);
        // The requested region is not duplicated when it is also configured.
        let c = policy.candidates(SKU, "HBv3", "southcentralus");
        assert_eq!(c, vec!["southcentralus", "westeurope", "japaneast"]);
    }

    #[test]
    fn candidates_filter_family_availability() {
        // japaneast does not offer the HB family (HB60rs).
        let policy = PlacementPolicy::new(&["southcentralus".into(), "japaneast".into()], 2);
        let c = policy.candidates("Standard_HB60rs", "HB", "southcentralus");
        assert_eq!(c, vec!["southcentralus"]);
    }

    #[test]
    fn transient_faults_mark_down_after_threshold() {
        let mut policy = PlacementPolicy::new(&["southcentralus".into(), "westeurope".into()], 2);
        assert!(!policy.record_fault(SKU, "westeurope", false));
        assert!(!policy.is_down(SKU, "westeurope"));
        assert!(policy.record_fault(SKU, "westeurope", false));
        assert!(policy.is_down(SKU, "westeurope"));
        // The markdown is scoped to the SKU, not the region.
        assert!(!policy.is_down("Standard_HC44rs", "westeurope"));
        // Down regions drop out of the candidate list.
        let c = policy.candidates(SKU, "HBv3", "westeurope");
        assert_eq!(c, vec!["southcentralus"]);
    }

    #[test]
    fn permanent_faults_mark_down_immediately() {
        let mut policy = PlacementPolicy::new(&["southcentralus".into(), "westeurope".into()], 99);
        assert!(policy.record_fault(SKU, "southcentralus", true));
        assert!(policy.is_down(SKU, "southcentralus"));
    }

    #[test]
    fn empty_candidates_when_everything_is_down() {
        let mut policy = PlacementPolicy::new(&["westeurope".into()], 1);
        policy.record_fault(SKU, "westeurope", false);
        assert!(policy.candidates(SKU, "HBv3", "westeurope").is_empty());
    }
}
