//! Per-second VM metering.
//!
//! Azure bills VMs by the second at an hourly rate. The paper's cost column
//! is "VMs only, without considering other costs such as software license,
//! storage, or any additional services" — the meter reproduces exactly that.

use crate::sku::VmSku;
use simtime::{SimDuration, SimInstant};

/// One metered span of VM usage.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageRecord {
    /// SKU name of the metered VMs.
    pub sku: String,
    /// Number of VMs metered.
    pub nodes: u32,
    /// Start of the span.
    pub start: SimInstant,
    /// End of the span.
    pub end: SimInstant,
    /// Cost in USD for the span.
    pub cost: f64,
    /// Resource group the usage was billed to.
    pub(crate) resource_group: String,
    /// Region the VMs ran in (and whose price multiplier the cost used).
    pub region: String,
}

impl UsageRecord {
    /// Duration of the span.
    pub(crate) fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Computes the cost of running `nodes` VMs of `sku` for `duration` at a
/// regional price multiplier.
pub(crate) fn cost_for(
    sku: &VmSku,
    price_multiplier: f64,
    nodes: u32,
    duration: SimDuration,
) -> f64 {
    sku.price_per_hour * price_multiplier * nodes as f64 * duration.as_hours_f64()
}

/// Accumulates usage records for a provider.
#[derive(Debug, Clone, Default)]
pub struct BillingMeter {
    records: Vec<UsageRecord>,
}

impl BillingMeter {
    /// Creates an empty meter.
    pub(crate) fn new() -> Self {
        BillingMeter::default()
    }

    /// Records one usage span.
    pub(crate) fn record(&mut self, record: UsageRecord) {
        self.records.push(record);
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[UsageRecord] {
        &self.records
    }

    /// Total cost across all records.
    pub fn total_cost(&self) -> f64 {
        self.records.iter().map(|r| r.cost).sum()
    }

    /// Total cost metered in one region.
    pub fn cost_for_region(&self, region: &str) -> f64 {
        self.records
            .iter()
            .filter(|r| r.region.eq_ignore_ascii_case(region))
            .map(|r| r.cost)
            .sum()
    }

    /// Aggregates usage per SKU, optionally restricted to one resource
    /// group. Summaries come back sorted by SKU name, so output built from
    /// them is deterministic regardless of metering order — which matters
    /// when parallel collection interleaves spans from several pools.
    pub fn summarize_by_sku(&self, resource_group: Option<&str>) -> Vec<BillingSummary> {
        let mut by_sku: std::collections::BTreeMap<String, BillingSummary> =
            std::collections::BTreeMap::new();
        for r in &self.records {
            if resource_group.is_some_and(|g| r.resource_group != g) {
                continue;
            }
            let key = r.sku.to_ascii_lowercase();
            let entry = by_sku.entry(key).or_insert_with(|| BillingSummary {
                sku: r.sku.clone(),
                spans: 0,
                peak_nodes: 0,
                node_hours: 0.0,
                cost: 0.0,
            });
            entry.spans += 1;
            entry.peak_nodes = entry.peak_nodes.max(r.nodes);
            entry.node_hours += r.nodes as f64 * r.duration().as_hours_f64();
            entry.cost += r.cost;
        }
        by_sku.into_values().collect()
    }
}

/// Aggregate usage for one SKU (≈ one pool in Algorithm 1, which keeps a
/// single pool per VM type).
#[derive(Debug, Clone, PartialEq)]
pub struct BillingSummary {
    /// SKU name as metered.
    pub sku: String,
    /// Number of usage spans (pool resizes).
    pub spans: usize,
    /// Largest node count across spans.
    pub peak_nodes: u32,
    /// Total metered node-hours.
    pub node_hours: f64,
    /// Total cost in USD.
    pub cost: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sku::SkuCatalog;

    #[test]
    fn paper_cost_example() {
        // Listing 4 top row: 16 × HB120rs_v3 for 36 s ⇒ $0.576.
        let catalog = SkuCatalog::azure_hpc();
        let sku = catalog.get("HB120rs_v3").unwrap();
        let cost = cost_for(sku, 1.0, 16, SimDuration::from_secs(36));
        assert!((cost - 0.576).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn meter_aggregations() {
        let catalog = SkuCatalog::azure_hpc();
        let v3 = catalog.get("HB120rs_v3").unwrap();
        let hc = catalog.get("HC44rs").unwrap();
        let mut meter = BillingMeter::new();
        let t0 = SimInstant::EPOCH;
        let one_hour = SimDuration::from_hours(1);
        meter.record(UsageRecord {
            sku: v3.name.clone(),
            nodes: 2,
            start: t0,
            end: t0 + one_hour,
            cost: cost_for(v3, 1.0, 2, one_hour),
            resource_group: "rg1".into(),
            region: "southcentralus".into(),
        });
        meter.record(UsageRecord {
            sku: hc.name.clone(),
            nodes: 1,
            start: t0,
            end: t0 + one_hour,
            cost: cost_for(hc, 1.0, 1, one_hour),
            resource_group: "rg2".into(),
            region: "southcentralus".into(),
        });
        assert!((meter.total_cost() - (7.2 + 3.168)).abs() < 1e-9);
        let by_sku = meter.summarize_by_sku(None);
        assert!(
            (by_sku[0].cost - 7.2).abs() < 1e-9,
            "HB120rs_v3 sorts first"
        );
        let node_hours: f64 = by_sku.iter().map(|s| s.node_hours).sum();
        assert!((node_hours - 3.0).abs() < 1e-9);
        assert!((meter.summarize_by_sku(Some("rg2"))[0].cost - 3.168).abs() < 1e-9);
    }

    #[test]
    fn summary_groups_by_sku_and_filters_group() {
        let catalog = SkuCatalog::azure_hpc();
        let v3 = catalog.get("HB120rs_v3").unwrap();
        let mut meter = BillingMeter::new();
        let t0 = SimInstant::EPOCH;
        let one_hour = SimDuration::from_hours(1);
        for (nodes, group) in [(2u32, "rg1"), (4, "rg1"), (8, "rg2")] {
            meter.record(UsageRecord {
                sku: v3.name.clone(),
                nodes,
                start: t0,
                end: t0 + one_hour,
                cost: cost_for(v3, 1.0, nodes, one_hour),
                resource_group: group.into(),
                region: "southcentralus".into(),
            });
        }
        let all = meter.summarize_by_sku(None);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].spans, 3);
        assert_eq!(all[0].peak_nodes, 8);
        assert!((all[0].node_hours - 14.0).abs() < 1e-9);
        assert!((all[0].cost - meter.total_cost()).abs() < 1e-9);
        let rg1 = meter.summarize_by_sku(Some("rg1"));
        assert_eq!(rg1[0].spans, 2);
        assert_eq!(rg1[0].peak_nodes, 4);
    }

    #[test]
    fn regional_multiplier_scales_cost() {
        let catalog = SkuCatalog::azure_hpc();
        let sku = catalog.get("HB120rs_v3").unwrap();
        let base = cost_for(sku, 1.0, 4, SimDuration::from_hours(2));
        let eu = cost_for(sku, 1.08, 4, SimDuration::from_hours(2));
        assert!((eu / base - 1.08).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_is_free() {
        let catalog = SkuCatalog::azure_hpc();
        let sku = catalog.get("HC44rs").unwrap();
        assert_eq!(cost_for(sku, 1.0, 100, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn evict_at_boot_span_is_free_and_non_negative() {
        // A spot node reclaimed the instant it boots produces a zero-length
        // span; the meter must record exactly $0, never a negative refund.
        let catalog = SkuCatalog::azure_hpc();
        let sku = catalog.get("HB120rs_v3").unwrap();
        let mut meter = BillingMeter::new();
        let t0 = SimInstant::EPOCH;
        let cost = cost_for(sku, 1.0 - sku.spot_discount, 8, SimDuration::ZERO);
        assert_eq!(cost, 0.0);
        meter.record(UsageRecord {
            sku: sku.name.clone(),
            nodes: 8,
            start: t0,
            end: t0,
            cost,
            resource_group: "rg1".into(),
            region: "southcentralus".into(),
        });
        assert_eq!(meter.total_cost(), 0.0);
        assert_eq!(meter.summarize_by_sku(None)[0].node_hours, 0.0);
    }

    #[test]
    fn evict_mid_task_bills_fractional_seconds_without_rounding() {
        // Eviction lands mid-second (1 337.25 s into the span). Azure meters
        // by the second; the simulator is finer still — the fractional tail
        // is billed pro rata, never rounded up to a whole second and never
        // truncated to a negative duration.
        let catalog = SkuCatalog::azure_hpc();
        let sku = catalog.get("HB120rs_v3").unwrap();
        let span = SimDuration::from_secs_f64(1337.25);
        let spot_rate = 1.0 - sku.spot_discount;
        let cost = cost_for(sku, spot_rate, 4, span);
        let expected = sku.price_per_hour * spot_rate * 4.0 * (1337.25 / 3600.0);
        assert!((cost - expected).abs() < 1e-9, "{cost} vs {expected}");
        assert!(cost > 0.0, "partial billing must never go negative");
        // Pro-rata monotonicity: a shorter partial span is strictly cheaper.
        let shorter = cost_for(sku, spot_rate, 4, SimDuration::from_secs_f64(1337.0));
        assert!(shorter < cost);
    }
}
