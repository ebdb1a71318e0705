//! A deterministic cloud-provider simulator — the Azure substitute for the
//! HPCAdvisor reproduction.
//!
//! The paper's tool drives a real cloud through a narrow surface: create a
//! resource group, a virtual network, a storage account and a batch account;
//! optionally a jumpbox and VNet peering; allocate/release VM nodes of a
//! given SKU; observe prices and accumulate cost. This crate implements that
//! surface over virtual time ([`simtime`]):
//!
//! * [`SkuCatalog`] — a catalog of HPC VM types modelled on Azure's H-series
//!   (HC44rs, HB120rs_v2, HB120rs_v3, …) with core counts, memory, memory
//!   bandwidth, L3 cache, interconnect and pay-as-you-go prices.
//! * [`Region`] — geographical regions with price multipliers and SKU
//!   availability.
//! * [`CloudProvider`] — the control plane: resource-group lifecycle
//!   (Section III-B of the paper), quota enforcement, node allocation with
//!   boot latencies, and failure injection.
//! * [`BillingMeter`] — per-second VM metering; the `Cost($)` column of the
//!   paper's advice tables comes from here.
//! * [`FaultPlan`] — deterministic failure injection so the tool's
//!   `pending / failed / completed` task states are exercised.
//!
//! Everything is deterministic given a seed; no wall-clock time or network
//! access is involved.

pub mod billing;
pub mod error;
pub mod fault;
pub mod fnv;
pub mod provider;
pub mod quota;
pub mod region;
pub mod resources;
pub mod sku;

pub use billing::{BillingMeter, BillingSummary, UsageRecord};
pub use error::CloudError;
pub use fault::{Fault, FaultKind, FaultMode, FaultPlan, FaultTracker, Operation, RegionFault};
pub use fnv::Fnv64;
pub use provider::{AllocationId, Capacity, CloudProvider, ProviderConfig};
pub use quota::QuotaTracker;
pub use region::{Region, RegionCatalog};
pub use resources::{ResourceGroup, ResourceKind, ResourceState};
pub use sku::{CpuArch, Interconnect, SkuCatalog, VmSku};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Billing is additive: metering N nodes for T seconds costs the same
        /// as metering 1 node for N*T seconds (same SKU, same region).
        #[test]
        fn billing_additivity(nodes in 1u32..64, secs in 1u64..100_000) {
            let catalog = SkuCatalog::azure_hpc();
            let sku = catalog.get("Standard_HB120rs_v3").unwrap();
            let rate = 1.0;
            let many = billing::cost_for(sku, rate, nodes, simtime::SimDuration::from_secs(secs));
            let single = billing::cost_for(sku, rate, 1, simtime::SimDuration::from_secs(secs * nodes as u64));
            prop_assert!((many - single).abs() < 1e-9, "{many} vs {single}");
        }

        /// Quota never goes negative and release restores exactly what was taken.
        #[test]
        fn quota_conservation(ops in proptest::collection::vec((1u32..32, any::<bool>()), 1..64)) {
            let mut q = QuotaTracker::with_default_limit(1000);
            let mut held: Vec<(String, u32)> = Vec::new();
            for (cores, release) in ops {
                if release && !held.is_empty() {
                    let (fam, c) = held.pop().unwrap();
                    q.release(&fam, c);
                } else if q.try_acquire("HBv3", cores).is_ok() {
                    held.push(("HBv3".into(), cores));
                }
                let used: u32 = held.iter().map(|(_, c)| *c).sum();
                prop_assert_eq!(q.used("HBv3"), used);
                prop_assert!(used <= 1000);
            }
        }
    }
}
