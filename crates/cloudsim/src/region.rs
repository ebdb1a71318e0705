//! Geographical regions with price multipliers and SKU availability.

/// A cloud region.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name, e.g. `southcentralus`.
    pub name: String,
    /// Multiplier applied to base SKU prices in this region.
    pub price_multiplier: f64,
    /// SKU families *not* offered in this region (empty ⇒ everything).
    pub(crate) unavailable_families: Vec<String>,
    /// Multiplier applied to node boot latency in this region — congested
    /// regions provision slower.
    pub(crate) provision_multiplier: f64,
    /// Per-family core quota pool for this region; `None` inherits the
    /// provider's default quota.
    pub(crate) quota_cores: Option<u32>,
    /// Multiplier on spot-eviction probabilities for pools placed here —
    /// capacity-constrained regions reclaim spot VMs more aggressively.
    pub spot_pressure: f64,
}

impl Region {
    /// True if the family is offered here.
    pub fn offers_family(&self, family: &str) -> bool {
        !self
            .unavailable_families
            .iter()
            .any(|f| f.eq_ignore_ascii_case(family))
    }
}

/// The set of known regions.
#[derive(Debug, Clone)]
pub struct RegionCatalog {
    regions: Vec<Region>,
}

impl RegionCatalog {
    /// Default region set. `southcentralus` (the paper's example region) is
    /// the price baseline and offers every HPC family.
    pub fn azure() -> Self {
        // name, price mult, missing families, provision mult, quota cores,
        // spot pressure. The baseline region is neutral on every axis so
        // single-region runs behave exactly as they did before regions were
        // fault domains.
        let r = |name: &str,
                 mult: f64,
                 missing: &[&str],
                 provision: f64,
                 quota: Option<u32>,
                 pressure: f64| Region {
            name: name.into(),
            price_multiplier: mult,
            unavailable_families: missing.iter().map(|s| s.to_string()).collect(),
            provision_multiplier: provision,
            quota_cores: quota,
            spot_pressure: pressure,
        };
        RegionCatalog {
            regions: vec![
                r("southcentralus", 1.00, &[], 1.00, None, 1.0),
                r("eastus", 1.00, &["HBv4", "HX"], 1.05, None, 1.4),
                r("westus2", 1.02, &["HC"], 1.10, Some(12_000), 1.2),
                r("westeurope", 1.08, &[], 1.15, Some(16_000), 1.1),
                r("northeurope", 1.06, &["HBv4"], 1.10, Some(12_000), 1.3),
                r(
                    "japaneast",
                    1.12,
                    &["HB", "HBv4", "HX"],
                    1.25,
                    Some(8_000),
                    1.5,
                ),
                r(
                    "australiaeast",
                    1.10,
                    &["HBv4", "HX"],
                    1.20,
                    Some(8_000),
                    1.3,
                ),
                r(
                    "southeastasia",
                    1.09,
                    &["HC", "HBv4"],
                    1.15,
                    Some(10_000),
                    1.6,
                ),
            ],
        }
    }

    /// Looks up a region by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<&Region> {
        self.regions
            .iter()
            .find(|r| r.name.eq_ignore_ascii_case(name))
    }

    /// All regions.
    pub(crate) fn all(&self) -> &[Region] {
        &self.regions
    }

    /// All region names in catalog order (error messages, CLI listings).
    pub fn names(&self) -> Vec<&str> {
        self.regions.iter().map(|r| r.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sku::SkuCatalog;

    #[test]
    fn baseline_region_offers_everything() {
        let rc = RegionCatalog::azure();
        let region = rc.get("southcentralus").unwrap();
        assert_eq!(region.price_multiplier, 1.0);
        // The baseline region is neutral on every fault-domain axis, so
        // single-region runs see no behavior change from region modeling.
        assert_eq!(region.provision_multiplier, 1.0);
        assert_eq!(region.quota_cores, None);
        assert_eq!(region.spot_pressure, 1.0);
        let catalog = SkuCatalog::azure_hpc();
        assert!(catalog
            .all()
            .iter()
            .all(|s| region.offers_family(&s.family)));
    }

    #[test]
    fn availability_filtering() {
        let rc = RegionCatalog::azure();
        let japan = rc.get("japaneast").unwrap();
        assert!(!japan.offers_family("HB"));
        assert!(japan.offers_family("HBv3"));
    }

    #[test]
    fn lookup_case_insensitive() {
        let rc = RegionCatalog::azure();
        assert!(rc.get("SouthCentralUS").is_some());
        assert!(rc.get("atlantis").is_none());
    }

    #[test]
    fn fault_domain_profiles_are_plausible() {
        let rc = RegionCatalog::azure();
        assert_eq!(rc.names().len(), rc.all().len());
        for region in rc.all() {
            assert!(region.provision_multiplier >= 1.0, "{}", region.name);
            assert!(region.spot_pressure >= 1.0, "{}", region.name);
            if let Some(q) = region.quota_cores {
                assert!(q > 0, "{}", region.name);
            }
        }
        // Constrained regions both provision slower and evict harder.
        let japan = rc.get("japaneast").unwrap();
        assert!(japan.provision_multiplier > 1.0);
        assert!(japan.spot_pressure > 1.0);
        assert!(japan.quota_cores.is_some());
    }
}
