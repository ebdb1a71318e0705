//! Pools: groups of identical nodes backing task execution.

use crate::task::TaskContext;
use cloudsim::{AllocationId, Capacity, VmSku};
use std::fmt::Write;
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
/// and the hostnames of its nodes. What every task of one layout (node
/// count and processes per node) sees the same way, its hosts and the
/// `HOSTLIST_PPN` and hostfile texts, is resolved once per layout.
#[derive(Debug, Clone)]
pub struct Pool {
    /// Pool name (unique within the service).
    pub(crate) name: Arc<str>,
    /// SKU of every node in the pool, as the pool was created with it.
    pub(crate) sku: String,
    /// The SKU's catalog entry, looked up when the pool was created.
    pub vm: Arc<VmSku>,
    /// Current node count.
    pub nodes: u32,
    /// Hostname of each node, formatted when the pool resizes.
    pub(crate) hosts: Arc<[String]>,
    /// Backing allocation in the cloud provider, if nodes > 0.
    pub(crate) allocation: Option<AllocationId>,
    /// Lifecycle state.
    pub state: PoolState,
    /// True once the pool's setup task completed successfully.
    pub(crate) setup_done: bool,
    /// Pricing/eviction class of the pool's nodes. Dedicated by default;
    /// spot pools bill at a discount but can lose all nodes to eviction.
    pub capacity: Capacity,
    /// Placement region for the pool's nodes; `None` keeps the provider's
    /// home region and the pre-placement behavior (no regional quota pool,
    /// provisioning profile, or spot-pressure scaling beyond the home
    /// region's own neutral profile).
    pub(crate) region: Option<String>,
    /// The task context of each layout `(nodes, ppn)` run since the pool
    /// last resized, built by the first task of the layout.
    contexts: Vec<TaskContext>,
}

impl Pool {
    /// Creates an empty, active pool.
    pub(crate) fn new(name: &str, sku: &str, vm: Arc<VmSku>) -> Self {
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
            contexts: Vec::new(),
        }
    }

    /// Hostname of node `i` in this pool.
    pub(crate) fn hostname(&self, i: u32) -> String {
        format!("{}-{:04}", self.name, i)
    }

    /// Sets the node count and names the nodes. The task contexts of the
    /// old node count go.
    pub(crate) fn set_nodes(&mut self, nodes: u32) {
        self.nodes = nodes;
        self.hosts = (0..nodes).map(|i| self.hostname(i)).collect();
        self.contexts.clear();
    }

    /// The context of a task on the pool's first `nodes` nodes with `ppn`
    /// processes per node. The first task of a layout builds it; every
    /// later one shares it. The caller checks that the pool has `nodes`
    /// nodes.
    pub(crate) fn task_context(&mut self, nodes: u32, ppn: u32) -> &TaskContext {
        if let Some(i) = self
            .contexts
            .iter()
            .position(|ctx| ctx.nnodes() == nodes && ctx.ppn == ppn)
        {
            return &self.contexts[i];
        }
        let hosts = if nodes == self.nodes {
            Arc::clone(&self.hosts)
        } else {
            self.hosts[..nodes as usize].into()
        };
        let (hostlist_ppn, hostfile) = host_lists(&hosts, ppn);
        self.contexts.push(TaskContext {
            hosts,
            ppn,
            hostlist_ppn_text: hostlist_ppn.into(),
            hostfile_text: hostfile.into(),
        });
        self.contexts.last().expect("pushed above")
    }
}

/// The `host:ppn,host:ppn,...` list the paper passes to `mpirun` (Table I:
/// `HOSTLIST_PPN`) and a plain MPI hostfile (one `host slots=ppn` line per
/// host), built in one pass over the hosts.
fn host_lists(hosts: &[String], ppn: u32) -> (String, String) {
    let digits = ppn.checked_ilog10().map_or(1, |d| d as usize + 1);
    let names: usize = hosts.iter().map(String::len).sum();
    let n = hosts.len();
    let mut hostlist = String::with_capacity(names + n * (digits + 2));
    let mut hostfile = String::with_capacity(names + n * (digits + 8));
    for (i, host) in hosts.iter().enumerate() {
        if i > 0 {
            hostlist.push(',');
        }
        let _ = write!(hostlist, "{host}:{ppn}");
        let _ = writeln!(hostfile, "{host} slots={ppn}");
    }
    (hostlist, hostfile)
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

    /// `HOSTLIST_PPN` and the hostfile formatted host by host.
    fn per_host_formats(hosts: &[String], ppn: u32) -> (String, String) {
        let list: Vec<String> = hosts.iter().map(|h| format!("{h}:{ppn}")).collect();
        let file: String = hosts.iter().map(|h| format!("{h} slots={ppn}\n")).collect();
        (list.join(","), file)
    }

    /// Every layout of the pool's node count, at two ppn values, reads the
    /// pool's first hosts and their per-host formats.
    fn assert_layouts_match(p: &mut Pool) {
        for nodes in 1..=p.nodes {
            for ppn in [8, 120] {
                let ctx = p.task_context(nodes, ppn).clone();
                let hosts: Vec<String> = (0..nodes).map(|i| p.hostname(i)).collect();
                assert_eq!(*ctx.hosts, *hosts, "{nodes} nodes of {}", p.nodes);
                assert_eq!((ctx.nnodes(), ctx.ppn), (nodes, ppn));
                assert_eq!(
                    (ctx.hostlist_ppn(), ctx.hostfile()),
                    per_host_formats(&hosts, ppn),
                    "{nodes} nodes of {} at ppn {ppn}",
                    p.nodes
                );
            }
        }
    }

    #[test]
    fn layout_texts_match_the_per_host_formats() {
        for nodes in 1..=4 {
            assert_layouts_match(&mut pool_with_nodes(nodes));
        }
    }

    #[test]
    fn layout_texts_follow_every_resize() {
        let mut p = pool_with_nodes(2);
        assert_layouts_match(&mut p);
        p.set_nodes(4);
        assert_layouts_match(&mut p);
        p.set_nodes(0);
        assert!(p.contexts.is_empty(), "an empty pool keeps no layout");
        p.set_nodes(3);
        assert_layouts_match(&mut p);
        p.set_nodes(1);
        assert_layouts_match(&mut p);
    }

    #[test]
    fn tasks_of_one_layout_share_their_hosts_and_texts() {
        let mut p = pool_with_nodes(4);
        let a = p.task_context(2, 120).clone();
        let b = p.task_context(2, 120).clone();
        assert!(Arc::ptr_eq(&a.hosts, &b.hosts));
        assert!(Arc::ptr_eq(&a.hostlist_ppn_text, &b.hostlist_ppn_text));
        assert!(Arc::ptr_eq(&a.hostfile_text, &b.hostfile_text));
        // Another ppn on the same nodes is another layout.
        let c = p.task_context(2, 60).clone();
        assert!(!Arc::ptr_eq(&a.hostfile_text, &c.hostfile_text));
        // A task on every node runs on the pool's own list.
        let all = p.task_context(4, 1).hosts.clone();
        assert!(Arc::ptr_eq(&all, &p.hosts));
        assert_eq!(p.contexts.len(), 3);
    }
}
