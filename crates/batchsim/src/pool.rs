//! Pools: groups of identical nodes backing task execution.

use cloudsim::{AllocationId, Capacity, VmSku};
use std::sync::Arc;

/// Lifecycle state of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolState {
    /// Exists (possibly with zero nodes).
    Active,
    /// Deleted; kept for audit.
    Deleted,
}

/// A pool of identical VMs.
///
/// What every task on the pool sees the same way is resolved once with the
/// pool and shared with each task: the catalog entry of its SKU, its name
/// and the hostnames of its nodes.
#[derive(Debug, Clone)]
pub struct Pool {
    /// Pool name (unique within the service).
    pub name: Arc<str>,
    /// SKU of every node in the pool, as the pool was created with it.
    pub sku: String,
    /// The SKU's catalog entry, looked up when the pool was created.
    pub vm: Arc<VmSku>,
    /// Current node count.
    pub nodes: u32,
    /// Hostname of each node, formatted when the pool resizes.
    pub hosts: Arc<[String]>,
    /// Backing allocation in the cloud provider, if nodes > 0.
    pub allocation: Option<AllocationId>,
    /// Lifecycle state.
    pub state: PoolState,
    /// True once the pool's setup task completed successfully.
    pub setup_done: bool,
    /// Pricing/eviction class of the pool's nodes. Dedicated by default;
    /// spot pools bill at a discount but can lose all nodes to eviction.
    pub capacity: Capacity,
    /// Placement region for the pool's nodes; `None` keeps the provider's
    /// home region and the pre-placement behavior (no regional quota pool,
    /// provisioning profile, or spot-pressure scaling beyond the home
    /// region's own neutral profile).
    pub region: Option<String>,
}

impl Pool {
    /// Creates an empty, active pool.
    pub fn new(name: &str, sku: &str, vm: Arc<VmSku>) -> Self {
        Pool {
            name: name.into(),
            sku: sku.to_string(),
            vm,
            nodes: 0,
            hosts: Arc::new([]),
            allocation: None,
            state: PoolState::Active,
            setup_done: false,
            capacity: Capacity::Dedicated,
            region: None,
        }
    }

    /// Hostname of node `i` in this pool.
    pub fn hostname(&self, i: u32) -> String {
        format!("{}-{:04}", self.name, i)
    }

    /// Sets the node count and names the nodes.
    pub(crate) fn set_nodes(&mut self, nodes: u32) {
        self.nodes = nodes;
        self.hosts = (0..nodes).map(|i| self.hostname(i)).collect();
    }

    /// The hostnames of the pool's first `n` nodes, which a task of `n`
    /// nodes runs on: the pool's own list when `n` is every node, which is
    /// how Algorithm 1 runs a scenario on a pool sized for it.
    pub(crate) fn first_hosts(&self, n: u32) -> Arc<[String]> {
        if n == self.nodes {
            return Arc::clone(&self.hosts);
        }
        self.hosts[..n as usize].into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_nodes(n: u32) -> Pool {
        let sku = cloudsim::SkuCatalog::azure_hpc()
            .get("Standard_HB120rs_v3")
            .cloned()
            .unwrap();
        let mut p = Pool::new("pool-hb", &sku.name.clone(), Arc::new(sku));
        p.set_nodes(n);
        p
    }

    #[test]
    fn hostnames_are_stable() {
        let p = pool_with_nodes(2);
        assert_eq!(p.hostname(0), "pool-hb-0000");
        assert_eq!(p.hostname(1), "pool-hb-0001");
        assert_eq!(&*p.hosts, ["pool-hb-0000", "pool-hb-0001"]);
    }
}
