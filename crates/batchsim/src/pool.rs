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
    /// Busy flag per node index (`true` = running a task).
    pub busy: Vec<bool>,
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
            busy: Vec::new(),
            allocation: None,
            state: PoolState::Active,
            setup_done: false,
            capacity: Capacity::Dedicated,
            region: None,
        }
    }

    /// Number of idle nodes.
    pub fn idle_nodes(&self) -> u32 {
        self.busy.iter().filter(|b| !**b).count() as u32
    }

    /// Whether no task occupies any node (a zero-node pool is idle).
    pub fn is_idle(&self) -> bool {
        self.idle_nodes() == self.nodes
    }

    /// Claims `count` idle nodes, returning their indices, or `None` if not
    /// enough are idle.
    pub fn claim(&mut self, count: u32) -> Option<Vec<u32>> {
        if self.idle_nodes() < count {
            return None;
        }
        let mut taken = Vec::with_capacity(count as usize);
        for (i, b) in self.busy.iter_mut().enumerate() {
            if taken.len() == count as usize {
                break;
            }
            if !*b {
                *b = true;
                taken.push(i as u32);
            }
        }
        Some(taken)
    }

    /// Releases previously claimed node indices.
    pub fn release(&mut self, indices: &[u32]) {
        for &i in indices {
            if let Some(b) = self.busy.get_mut(i as usize) {
                *b = false;
            }
        }
    }

    /// Hostname of node `i` in this pool.
    pub fn hostname(&self, i: u32) -> String {
        format!("{}-{:04}", self.name, i)
    }

    /// Sets the node count, every node idle, and names the nodes.
    pub(crate) fn set_nodes(&mut self, nodes: u32) {
        self.nodes = nodes;
        self.busy = vec![false; nodes as usize];
        self.hosts = (0..nodes).map(|i| self.hostname(i)).collect();
    }

    /// The hostnames of the claimed node `indices`: the pool's own list
    /// when the claim holds every node, which is how Algorithm 1 runs a
    /// scenario on a pool sized for it.
    pub(crate) fn hosts_of(&self, indices: &[u32]) -> Arc<[String]> {
        if indices.len() == self.hosts.len() {
            // `claim` hands out the lowest idle indices in order, so a
            // claim of every node is `0..nodes`.
            return Arc::clone(&self.hosts);
        }
        indices
            .iter()
            .map(|&i| self.hosts[i as usize].clone())
            .collect()
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
    fn claim_and_release() {
        let mut p = pool_with_nodes(4);
        assert_eq!(p.idle_nodes(), 4);
        let a = p.claim(3).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(p.idle_nodes(), 1);
        assert!(p.claim(2).is_none(), "only one node idle");
        let b = p.claim(1).unwrap();
        assert_eq!(p.idle_nodes(), 0);
        p.release(&a);
        p.release(&b);
        assert_eq!(p.idle_nodes(), 4);
    }

    #[test]
    fn claim_zero_nodes_is_trivially_ok() {
        let mut p = pool_with_nodes(0);
        assert_eq!(p.claim(0), Some(vec![]));
        assert!(p.claim(1).is_none());
    }

    #[test]
    fn hostnames_are_stable() {
        let p = pool_with_nodes(2);
        assert_eq!(p.hostname(0), "pool-hb-0000");
        assert_eq!(p.hostname(1), "pool-hb-0001");
        assert_eq!(&*p.hosts, ["pool-hb-0000", "pool-hb-0001"]);
    }

    #[test]
    fn a_claim_of_every_node_shares_the_pool_hostnames() {
        let mut p = pool_with_nodes(3);
        let all = p.claim(3).unwrap();
        assert!(Arc::ptr_eq(&p.hosts_of(&all), &p.hosts));
        p.release(&all);
        let _first = p.claim(1).unwrap();
        let rest = p.claim(2).unwrap();
        assert_eq!(&*p.hosts_of(&rest), ["pool-hb-0001", "pool-hb-0002"]);
    }

    #[test]
    fn release_out_of_range_is_ignored() {
        let mut p = pool_with_nodes(2);
        p.release(&[5]);
        assert_eq!(p.idle_nodes(), 2);
    }
}
