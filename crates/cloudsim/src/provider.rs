//! The simulated cloud control plane.
//!
//! [`CloudProvider`] exposes the operations HPCAdvisor's deployment phase
//! performs (paper Section III-B), in the same order the paper lists them:
//! landing zone, storage account, batch service, then optional jumpbox and
//! peering. Every operation consumes virtual time (a deterministic base
//! latency plus seeded jitter), can fail via the [`FaultPlan`], and is billed
//! where applicable.

use crate::billing::{cost_for, BillingMeter, UsageRecord};
use crate::error::CloudError;
use crate::fault::{Fault, FaultKind, FaultPlan, FaultTracker, Operation};
use crate::quota::QuotaTracker;
use crate::region::{Region, RegionCatalog};
use crate::resources::{Resource, ResourceGroup, ResourceKind, ResourceState};
use crate::sku::{SkuCatalog, VmSku};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtime::{SharedClock, SimDuration, SimInstant};
use std::collections::HashMap;
use telemetry::{OrderedMap, TraceEvent, Value};

/// Configuration for a [`CloudProvider`].
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// Subscription name; requests carrying a different one are rejected.
    pub subscription: String,
    /// Region where all resources are provisioned.
    pub region: String,
    /// RNG seed for latency jitter.
    pub seed: u64,
    /// Default per-family core quota.
    pub default_quota_cores: u32,
}

impl Default for ProviderConfig {
    fn default() -> Self {
        ProviderConfig {
            subscription: "mysubscription".into(),
            region: "southcentralus".into(),
            seed: 42,
            default_quota_cores: 20_000,
        }
    }
}

/// Handle to a live node allocation (a batch pool's backing VMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationId(pub u64);

/// Pricing/eviction class of a node allocation.
///
/// `Dedicated` nodes are pay-as-you-go: full price, never evicted. `Spot`
/// (Azure "low-priority") nodes are billed at the SKU's discounted rate but
/// can be reclaimed at any moment via [`Operation::Eviction`] faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Capacity {
    /// Pay-as-you-go nodes at full price; immune to eviction.
    #[default]
    Dedicated,
    /// Low-priority nodes at `price × (1 - spot_discount)`; evictable.
    Spot,
}

impl Capacity {
    /// Stable lowercase name, used in datasets, cache keys, and the CLI.
    pub fn as_str(&self) -> &'static str {
        match self {
            Capacity::Dedicated => "dedicated",
            Capacity::Spot => "spot",
        }
    }

    /// Parses the lowercase name produced by [`Capacity::as_str`].
    pub fn parse(s: &str) -> Option<Capacity> {
        match s {
            "dedicated" => Some(Capacity::Dedicated),
            "spot" => Some(Capacity::Spot),
            _ => None,
        }
    }
}

impl std::fmt::Display for Capacity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Clone)]
struct Allocation {
    sku: String,
    family: String,
    nodes: u32,
    start: SimInstant,
    resource_group: String,
    capacity: Capacity,
    region: String,
}

/// The simulated cloud provider.
#[derive(Debug)]
pub struct CloudProvider {
    config: ProviderConfig,
    clock: SharedClock,
    catalog: SkuCatalog,
    regions: RegionCatalog,
    /// Per-region quota pools, keyed by canonical (catalog) region name.
    /// Each region is its own fault domain: exhausting one pool leaves the
    /// others untouched.
    quotas: HashMap<String, QuotaTracker>,
    billing: BillingMeter,
    fault: FaultPlan,
    tracker: FaultTracker,
    groups: HashMap<String, ResourceGroup>,
    allocations: HashMap<u64, Allocation>,
    next_allocation: u64,
    rng: StdRng,
    trace_on: bool,
    trace_buf: Vec<TraceEvent>,
    /// Buffer for qualified counter keys (`scope#qualifier`), reused by
    /// every roll.
    counter_key: String,
}

impl CloudProvider {
    /// Creates a provider with the default SKU and region catalogs.
    pub fn new(config: ProviderConfig) -> Result<Self, CloudError> {
        Self::with_catalogs(config, SkuCatalog::azure_hpc(), RegionCatalog::azure())
    }

    /// Creates a provider with custom catalogs.
    pub(crate) fn with_catalogs(
        config: ProviderConfig,
        catalog: SkuCatalog,
        regions: RegionCatalog,
    ) -> Result<Self, CloudError> {
        if regions.get(&config.region).is_none() {
            return Err(CloudError::UnknownRegion(config.region.clone()));
        }
        // One quota pool per region: a region's `quota_cores` caps its pool,
        // regions without a profile inherit the provider default.
        let quotas = regions
            .all()
            .iter()
            .map(|r| {
                let limit = r.quota_cores.unwrap_or(config.default_quota_cores);
                (r.name.clone(), QuotaTracker::with_default_limit(limit))
            })
            .collect();
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(CloudProvider {
            clock: SharedClock::new(),
            catalog,
            regions,
            quotas,
            billing: BillingMeter::new(),
            fault: FaultPlan::none(),
            tracker: FaultTracker::new(),
            groups: HashMap::new(),
            allocations: HashMap::new(),
            next_allocation: 1,
            rng,
            trace_on: false,
            trace_buf: Vec::new(),
            counter_key: String::new(),
            config,
        })
    }

    /// Installs a failure-injection plan, resetting invocation history.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
        self.tracker.reset();
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> SharedClock {
        self.clock.clone()
    }

    /// The SKU catalog.
    pub fn catalog(&self) -> &SkuCatalog {
        &self.catalog
    }

    /// The provider's home region.
    pub fn region(&self) -> &Region {
        self.regions
            .get(&self.config.region)
            .expect("validated at construction")
    }

    /// The region catalog.
    pub fn regions(&self) -> &RegionCatalog {
        &self.regions
    }

    /// Looks a region up, erroring on names absent from the catalog.
    pub fn region_named(&self, name: &str) -> Result<&Region, CloudError> {
        self.regions
            .get(name)
            .ok_or_else(|| CloudError::UnknownRegion(name.to_string()))
    }

    /// The billing meter.
    pub fn billing(&self) -> &BillingMeter {
        &self.billing
    }

    /// Quota tracker of the home region (mutable, e.g. for tests lowering
    /// limits).
    pub fn quota_mut(&mut self) -> &mut QuotaTracker {
        let name = self.region().name.clone();
        self.quotas.get_mut(&name).expect("every region has a pool")
    }

    /// Quota tracker of a specific region's pool.
    pub fn quota_mut_in(&mut self, region: &str) -> Result<&mut QuotaTracker, CloudError> {
        let name = self.region_named(region)?.name.clone();
        Ok(self.quotas.get_mut(&name).expect("every region has a pool"))
    }

    /// Validates the caller's subscription.
    pub fn check_subscription(&self, subscription: &str) -> Result<(), CloudError> {
        if subscription == self.config.subscription {
            Ok(())
        } else {
            Err(CloudError::WrongSubscription {
                expected: self.config.subscription.clone(),
                got: subscription.to_string(),
            })
        }
    }

    /// Effective hourly price for a SKU in this provider's home region.
    pub fn price_per_hour(&self, sku: &str) -> Result<f64, CloudError> {
        let s = self.sku(sku)?;
        Ok(s.price_per_hour * self.region().price_multiplier)
    }

    /// Effective hourly price for a SKU in a specific region.
    pub fn price_per_hour_in(&self, sku: &str, region: &str) -> Result<f64, CloudError> {
        let mult = self.region_named(region)?.price_multiplier;
        let s = self.sku(sku)?;
        Ok(s.price_per_hour * mult)
    }

    fn sku(&self, name: &str) -> Result<&VmSku, CloudError> {
        self.catalog
            .get(name)
            .ok_or_else(|| CloudError::UnknownSku(name.to_string()))
    }

    /// Advances the clock by `base` seconds ± seeded jitter.
    fn spend(&mut self, base_secs: f64) {
        let jitter: f64 = self.rng.gen_range(0.85..1.30);
        self.clock
            .advance_by(SimDuration::from_secs_f64(base_secs * jitter));
    }

    /// Enables or disables trace-event buffering, clearing the buffer.
    ///
    /// The provider has no timeline of its own (the shared clock carries
    /// seeded jitter and cross-shard ordering, so its readings must never
    /// reach a trace): events are buffered unstamped and the caller holding
    /// the provider lock drains them with [`CloudProvider::drain_trace`]
    /// onto its shard-local sink before releasing the lock.
    pub fn set_trace_enabled(&mut self, on: bool) {
        self.trace_on = on;
        self.trace_buf.clear();
    }

    /// Drains buffered (unstamped) trace events in emission order.
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace_buf)
    }

    fn trace(&mut self, kind: &str, scope: &str, fill: impl FnOnce(&mut OrderedMap)) {
        if self.trace_on {
            self.trace_buf.push(TraceEvent::pending(kind, scope, fill));
        }
    }

    /// The one fault roll. The invocation counter is keyed `counter_scope`
    /// while the plan's decision and the `fault_roll` trace event use
    /// `roll_scope`, so a decision at a given attempt index is shared by
    /// every counter rolling under the same scope and replays under any
    /// worker count.
    fn roll(
        &mut self,
        op: Operation,
        counter_scope: &str,
        roll_scope: &str,
        pressure: f64,
    ) -> Result<(), Fault> {
        let rolled = self
            .tracker
            .check(&self.fault, op, counter_scope, roll_scope, pressure);
        if self.trace_on {
            let attempt = self.tracker.attempts(op, counter_scope).saturating_sub(1);
            let fired = rolled.is_err();
            self.trace_buf
                .push(TraceEvent::pending("fault_roll", roll_scope, |m| {
                    m.insert("op", Value::str(format!("{op:?}")));
                    m.insert("attempt", Value::Int(attempt as i64));
                    m.insert("fired", Value::Bool(fired));
                }));
        }
        rolled
    }

    /// Records one invocation of `op` in `scope` against the fault plan,
    /// returning the structured fault if the plan says so. Probabilistic
    /// rates are multiplied by `pressure` (exact schedules never scale).
    /// With a `qualifier` the invocation counter is privately keyed
    /// `scope#qualifier` — the chunked scheduler qualifies by chunk so two
    /// chunks of one pool never interleave their counters — while the
    /// decision and the trace stay keyed by the bare `scope`. The batch
    /// layer injects task, node-death and eviction faults through this.
    pub fn inject_fault(
        &mut self,
        op: Operation,
        scope: &str,
        pressure: f64,
        qualifier: Option<&str>,
    ) -> Result<(), Fault> {
        let Some(q) = qualifier else {
            return self.roll(op, scope, scope, pressure);
        };
        let mut key = std::mem::take(&mut self.counter_key);
        key.clear();
        key.push_str(scope);
        key.push('#');
        key.push_str(q);
        let rolled = self.roll(op, &key, scope, pressure);
        self.counter_key = key;
        rolled
    }

    /// [`CloudProvider::inject_fault`] for a control-plane operation, as
    /// the error that operation returns.
    fn check_fault(
        &mut self,
        op: Operation,
        scope: &str,
        label: &str,
        qualifier: Option<&str>,
    ) -> Result<(), CloudError> {
        self.inject_fault(op, scope, 1.0, qualifier)
            .map_err(|fault| provisioning_failed(label, fault.to_string(), &fault))
    }

    /// Per-scope invocation counts recorded so far (for tests/diagnostics).
    pub fn fault_attempts(&self, op: Operation, scope: &str) -> u64 {
        self.tracker.attempts(op, scope)
    }

    fn group_mut(&mut self, name: &str) -> Result<&mut ResourceGroup, CloudError> {
        match self.groups.get_mut(name) {
            Some(g) if g.state == ResourceState::Ready => Ok(g),
            _ => Err(CloudError::UnknownResourceGroup(name.to_string())),
        }
    }

    /// Creates an empty resource group (~5 s).
    pub fn create_resource_group(&mut self, name: &str) -> Result<(), CloudError> {
        if self
            .groups
            .get(name)
            .is_some_and(|g| g.state == ResourceState::Ready)
        {
            return Err(CloudError::ResourceGroupExists(name.to_string()));
        }
        self.check_fault(
            Operation::CreateResourceGroup,
            name,
            "create resource group",
            None,
        )?;
        self.spend(5.0);
        let group = ResourceGroup {
            state: ResourceState::Ready,
            resources: Vec::new(),
        };
        self.groups.insert(name.to_string(), group);
        Ok(())
    }

    fn add_resource(
        &mut self,
        group: &str,
        name: &str,
        kind: ResourceKind,
        base_secs: f64,
        op: Operation,
        label: &str,
    ) -> Result<(), CloudError> {
        // Validate before spending time or counting a fault invocation.
        let g = self.group_mut(group)?;
        if g.resource(name).is_some() {
            return Err(CloudError::ResourceExists {
                group: group.to_string(),
                name: name.to_string(),
            });
        }
        self.check_fault(op, group, label, None)?;
        self.spend(base_secs);
        let g = self.group_mut(group)?;
        g.resources.push(Resource {
            name: name.to_string(),
            kind,
            state: ResourceState::Ready,
        });
        Ok(())
    }

    /// Creates a VNet with one subnet (~12 s) — the "basic landing zone".
    pub fn create_vnet(&mut self, group: &str, name: &str, subnet: &str) -> Result<(), CloudError> {
        self.add_resource(
            group,
            name,
            ResourceKind::VirtualNetwork {
                subnets: vec![subnet.to_string()],
            },
            12.0,
            Operation::CreateNetwork,
            "create vnet",
        )
    }

    /// Creates a storage account (~25 s).
    pub fn create_storage_account(&mut self, group: &str, name: &str) -> Result<(), CloudError> {
        self.add_resource(
            group,
            name,
            ResourceKind::StorageAccount,
            25.0,
            Operation::CreateStorage,
            "create storage account",
        )
    }

    /// Creates the batch service account with no resources (~35 s). Requires
    /// the VNet and storage account to exist, mirroring the paper's order.
    pub fn create_batch_account(&mut self, group: &str, name: &str) -> Result<(), CloudError> {
        let g = self.group_mut(group)?;
        if !g.has_ready("vnet") {
            return Err(CloudError::MissingDependency {
                group: group.to_string(),
                needs: "vnet".into(),
            });
        }
        if !g.has_ready("storage") {
            return Err(CloudError::MissingDependency {
                group: group.to_string(),
                needs: "storage".into(),
            });
        }
        self.add_resource(
            group,
            name,
            ResourceKind::BatchAccount,
            35.0,
            Operation::CreateBatch,
            "create batch account",
        )
    }

    /// Creates a jumpbox VM (~90 s). Requires the VNet.
    pub fn create_jumpbox(&mut self, group: &str, name: &str) -> Result<(), CloudError> {
        let g = self.group_mut(group)?;
        if !g.has_ready("vnet") {
            return Err(CloudError::MissingDependency {
                group: group.to_string(),
                needs: "vnet".into(),
            });
        }
        self.add_resource(
            group,
            name,
            ResourceKind::Jumpbox,
            90.0,
            Operation::CreateJumpbox,
            "create jumpbox",
        )
    }

    /// Peers this group's VNet with another VNet (~15 s).
    pub fn peer_vnets(
        &mut self,
        group: &str,
        remote_group: &str,
        remote_vnet: &str,
    ) -> Result<(), CloudError> {
        let g = self.group_mut(group)?;
        if !g.has_ready("vnet") {
            return Err(CloudError::MissingDependency {
                group: group.to_string(),
                needs: "vnet".into(),
            });
        }
        let name = format!("peer-{remote_group}-{remote_vnet}");
        self.add_resource(
            group,
            &name,
            ResourceKind::VnetPeering {
                remote_group: remote_group.to_string(),
                remote_vnet: remote_vnet.to_string(),
            },
            15.0,
            Operation::PeerVnets,
            "peer vnets",
        )
    }

    /// Deletes a resource group and everything in it (~30 s), releasing any
    /// allocations billed to it.
    pub fn delete_resource_group(&mut self, name: &str) -> Result<(), CloudError> {
        if self
            .groups
            .get(name)
            .map(|g| g.state != ResourceState::Ready)
            .unwrap_or(true)
        {
            return Err(CloudError::UnknownResourceGroup(name.to_string()));
        }
        // Release outstanding allocations first so billing closes out.
        let ids: Vec<u64> = self
            .allocations
            .iter()
            .filter(|(_, a)| a.resource_group == name)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let _ = self.release_nodes(AllocationId(id));
        }
        self.spend(30.0);
        let g = self.groups.get_mut(name).expect("checked above");
        g.state = ResourceState::Deleted;
        for r in &mut g.resources {
            r.state = ResourceState::Deleted;
        }
        Ok(())
    }

    /// Looks up one resource group.
    pub fn resource_group(&self, name: &str) -> Option<&ResourceGroup> {
        self.groups.get(name)
    }

    /// Allocates `nodes` VMs of `sku` for a pool in `group`, in `region_name`.
    /// The allocation draws on that region's quota pool, pays its
    /// provisioning-latency profile (~150 s base, parallel boot), honors
    /// its SKU-family availability and is exposed to its injected region
    /// faults ([`crate::RegionFault`]). Spot capacity boots alike but bills
    /// at the SKU's discounted rate. Billing starts now and is settled, at
    /// the region's price multiplier, by [`CloudProvider::release_nodes`].
    pub fn allocate_nodes_in(
        &mut self,
        group: &str,
        sku_name: &str,
        nodes: u32,
        capacity: Capacity,
        region_name: &str,
    ) -> Result<AllocationId, CloudError> {
        self.allocate_nodes_keyed(group, sku_name, nodes, capacity, region_name, None)
    }

    /// [`CloudProvider::allocate_nodes_in`] with a private fault-counter
    /// qualifier for its `AllocateNodes`, `BootNode` and region rolls (see
    /// [`CloudProvider::inject_fault`]).
    ///
    /// Region rolls count under `sku@region` — a shard-owned key, since
    /// shards own SKUs — and decide under the region name, so an outage at
    /// a given attempt index is region-wide. They are skipped entirely (no
    /// counter, no trace) when the plan has no rule for their operation,
    /// keeping fault-free runs byte-identical.
    pub fn allocate_nodes_keyed(
        &mut self,
        group: &str,
        sku_name: &str,
        nodes: u32,
        capacity: Capacity,
        region_name: &str,
        qualifier: Option<&str>,
    ) -> Result<AllocationId, CloudError> {
        self.group_mut(group)?;
        let region = self.region_named(region_name)?.clone();
        let sku = self.sku(sku_name)?.clone();
        if !region.offers_family(&sku.family) {
            return Err(CloudError::SkuNotInRegion {
                sku: sku.name.clone(),
                region: region.name.clone(),
            });
        }
        // Region fault domain: an outage rejects everything, a capacity
        // crunch fails allocations even with quota to spare, a provision
        // delay lets the allocation through but slows the boot below.
        let region_scope = match qualifier {
            Some(q) => format!("{}@{}#{q}", sku.name, region.name),
            None => format!("{}@{}", sku.name, region.name),
        };
        let region_roll = |p: &mut Self, op: Operation| {
            if p.fault.targets(op) {
                p.roll(op, &region_scope, &region.name, 1.0)
            } else {
                Ok(())
            }
        };
        for (op, label) in [
            (Operation::RegionOutage, "region outage"),
            (Operation::RegionCapacityCrunch, "region capacity crunch"),
        ] {
            region_roll(self, op).map_err(|fault| {
                provisioning_failed(label, format!("region {}: {fault}", region.name), &fault)
            })?;
        }
        let delayed = region_roll(self, Operation::RegionProvisionDelay).is_err();
        self.check_fault(
            Operation::AllocateNodes,
            &sku.name,
            "allocate nodes",
            qualifier,
        )?;
        let quota_available = self.quota_in(&region.name).available(&sku.family);
        let cores = sku
            .cores
            .checked_mul(nodes)
            .ok_or_else(|| CloudError::QuotaExceeded {
                family: sku.family.clone(),
                requested: u32::MAX,
                available: quota_available,
            })?;
        if let Err(e) = self
            .quotas
            .get_mut(&region.name)
            .expect("every region has a pool")
            .try_acquire(&sku.family, cores)
        {
            let available = self.quota_in(&region.name).available(&sku.family);
            self.trace("quota", &sku.family, |m| {
                m.insert("granted", Value::Bool(false));
                m.insert("cores", Value::Int(i64::from(cores)));
                m.insert("available", Value::Int(i64::from(available)));
            });
            return Err(e);
        }
        self.trace("quota", &sku.family, |m| {
            m.insert("granted", Value::Bool(true));
            m.insert("cores", Value::Int(i64::from(cores)));
        });
        // A node can come up unhealthy after capacity was granted; the
        // failed allocation hands its quota straight back.
        if let Err(e) = self.check_fault(Operation::BootNode, &sku.name, "boot nodes", qualifier) {
            self.quotas
                .get_mut(&region.name)
                .expect("every region has a pool")
                .release(&sku.family, cores);
            return Err(e);
        }
        // Nodes boot in parallel: total latency is the max of per-node boots,
        // which grows slowly with pool size. Congested regions pay their
        // provisioning profile; an injected delay fault triples the latency.
        let mut boot = (150.0 + 10.0 * (nodes as f64).ln_1p()) * region.provision_multiplier;
        if delayed {
            boot *= 3.0;
        }
        // The trace records the un-jittered base latency: jitter comes from
        // the shared RNG whose draw order depends on worker interleaving.
        let home = self.region().name.clone();
        self.trace("provision", &sku.name, |m| {
            m.insert("nodes", Value::Int(i64::from(nodes)));
            m.insert("cores", Value::Int(i64::from(cores)));
            m.insert("boot_secs", Value::Float(boot));
            m.insert("capacity", Value::str(capacity.as_str()));
            if region.name != home {
                m.insert("region", Value::str(&region.name));
            }
        });
        self.spend(boot);
        let id = self.next_allocation;
        self.next_allocation += 1;
        self.allocations.insert(
            id,
            Allocation {
                sku: sku.name.clone(),
                family: sku.family.clone(),
                nodes,
                start: self.clock.now(),
                resource_group: group.to_string(),
                capacity,
                region: region.name.clone(),
            },
        );
        Ok(AllocationId(id))
    }

    /// Read-only view of a region's quota pool.
    fn quota_in(&self, region: &str) -> &QuotaTracker {
        self.quotas.get(region).expect("every region has a pool")
    }

    /// Core quota limit for `family` in `region`. Unknown regions report
    /// `u32::MAX` (no cap) so callers sizing admission decisions never
    /// under-gate on a name the runtime would reject anyway.
    pub fn quota_limit(&self, region: &str, family: &str) -> u32 {
        self.quotas
            .get(region)
            .map(|q| q.limit(family))
            .unwrap_or(u32::MAX)
    }

    /// Releases an allocation, returning the billed cost of its whole span.
    pub fn release_nodes(&mut self, id: AllocationId) -> Result<f64, CloudError> {
        let alloc = self
            .allocations
            .remove(&id.0)
            .ok_or(CloudError::UnknownAllocation(id.0))?;
        let sku = self.sku(&alloc.sku)?.clone();
        // Quota goes back to the pool of the region that granted it — a
        // failover must never refund (or re-bill) the abandoned region.
        self.quotas
            .get_mut(&alloc.region)
            .expect("every region has a pool")
            .release(&alloc.family, sku.cores * alloc.nodes);
        let end = self.clock.now();
        // Spot nodes bill the same span at the discounted rate; an eviction
        // closes the span early, so only the consumed node-hours are charged.
        let region_multiplier = self
            .regions
            .get(&alloc.region)
            .expect("allocation region validated at allocate")
            .price_multiplier;
        let multiplier = match alloc.capacity {
            Capacity::Dedicated => region_multiplier,
            Capacity::Spot => region_multiplier * (1.0 - sku.spot_discount),
        };
        let cost = cost_for(&sku, multiplier, alloc.nodes, end - alloc.start);
        // No cost/duration in the trace: the billed span runs on the
        // jittered shared clock.
        let nodes = alloc.nodes;
        let capacity = alloc.capacity;
        self.trace("release", &alloc.sku, |m| {
            m.insert("nodes", Value::Int(i64::from(nodes)));
            m.insert("capacity", Value::str(capacity.as_str()));
        });
        self.billing.record(UsageRecord {
            sku: alloc.sku,
            nodes: alloc.nodes,
            start: alloc.start,
            end,
            cost,
            resource_group: alloc.resource_group,
            region: alloc.region,
        });
        Ok(cost)
    }
}

/// The error a control-plane operation returns for an injected fault.
fn provisioning_failed(operation: &str, reason: String, fault: &Fault) -> CloudError {
    CloudError::ProvisioningFailed {
        operation: operation.to_string(),
        reason,
        transient: fault.kind == FaultKind::Transient,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMode;

    fn provider() -> CloudProvider {
        CloudProvider::new(ProviderConfig::default()).unwrap()
    }

    /// Allocates into group `rg1` in the provider's home region.
    fn allocate_home(
        p: &mut CloudProvider,
        sku: &str,
        nodes: u32,
        capacity: Capacity,
    ) -> Result<AllocationId, CloudError> {
        let home = p.region().name.clone();
        p.allocate_nodes_in("rg1", sku, nodes, capacity, &home)
    }

    /// Replays the paper's Section III-B provisioning sequence.
    fn deploy_landing_zone(p: &mut CloudProvider, rg: &str) {
        p.create_resource_group(rg).unwrap();
        p.create_vnet(rg, "vnet", "default").unwrap();
        p.create_storage_account(rg, "storage").unwrap();
        p.create_batch_account(rg, "batch").unwrap();
    }

    #[test]
    fn full_deployment_sequence() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        p.create_jumpbox("rg1", "jumpbox").unwrap();
        p.peer_vnets("rg1", "vpnrg", "vpnvnet").unwrap();
        let g = p.resource_group("rg1").unwrap();
        assert!(g.has_ready("vnet"));
        assert!(g.has_ready("storage"));
        assert!(g.has_ready("batch"));
        assert!(g.has_ready("jumpbox"));
        assert!(g.has_ready("peering"));
        // Provisioning consumed virtual time.
        assert!(p.clock().now().as_secs_f64() > 100.0);
    }

    #[test]
    fn batch_requires_landing_zone() {
        let mut p = provider();
        p.create_resource_group("rg1").unwrap();
        let err = p.create_batch_account("rg1", "batch").unwrap_err();
        assert!(matches!(err, CloudError::MissingDependency { .. }));
    }

    #[test]
    fn duplicate_group_rejected() {
        let mut p = provider();
        p.create_resource_group("rg1").unwrap();
        assert!(matches!(
            p.create_resource_group("rg1"),
            Err(CloudError::ResourceGroupExists(_))
        ));
    }

    #[test]
    fn allocation_bills_on_release() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        let id = allocate_home(&mut p, "HB120rs_v3", 4, Capacity::Dedicated).unwrap();
        assert_eq!(p.quota_mut().used("HBv3"), 4 * 120);
        p.clock().advance_by(SimDuration::from_hours(1));
        let cost = p.release_nodes(id).unwrap();
        assert!(cost >= 4.0 * 3.60, "cost {cost} must cover 4 node-hours");
        assert!((p.billing().total_cost() - cost).abs() < 1e-12);
        // Quota fully restored.
        assert_eq!(p.quota_mut().used("HBv3"), 0);
    }

    #[test]
    fn spot_allocation_bills_at_discounted_rate() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        let id = allocate_home(&mut p, "HB120rs_v3", 4, Capacity::Spot).unwrap();
        p.clock().advance_by(SimDuration::from_hours(1));
        let cost = p.release_nodes(id).unwrap();
        let discount = p.catalog().get("HB120rs_v3").unwrap().spot_discount;
        let dedicated = 4.0 * 3.60;
        assert!(
            (cost - dedicated * (1.0 - discount)).abs() / dedicated < 0.05,
            "spot cost {cost} should be {:.0}% of dedicated {dedicated}",
            (1.0 - discount) * 100.0
        );
        // Quota is the same resource either way, and it came back.
        assert_eq!(p.quota_mut().used("HBv3"), 0);
    }

    #[test]
    fn eviction_at_boot_bills_nothing_and_never_negative() {
        // A spot allocation reclaimed the instant it boots has a zero-length
        // billing span: $0.00, never negative, and quota is handed back.
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        let id = allocate_home(&mut p, "HC44rs", 2, Capacity::Spot).unwrap();
        let cost = p.release_nodes(id).unwrap();
        assert_eq!(cost, 0.0, "evict-at-boot must bill a zero-length span");
        assert!(cost >= 0.0, "partial billing must never go negative");
        assert_eq!(p.quota_mut().used("HC"), 0);
    }

    #[test]
    fn eviction_mid_task_bills_partial_span_once() {
        // Reclaimed 17.3 minutes in: only the consumed node-hours are
        // charged, at the spot rate, and a second release (a double refund
        // or double charge) is structurally impossible.
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        let id = allocate_home(&mut p, "HB120rs_v3", 2, Capacity::Spot).unwrap();
        p.clock()
            .advance_by(SimDuration::from_secs_f64(17.3 * 60.0));
        let cost = p.release_nodes(id).unwrap();
        let discount = p.catalog().get("HB120rs_v3").unwrap().spot_discount;
        let expected = 3.60 * (1.0 - discount) * 2.0 * (17.3 / 60.0);
        assert!(
            (cost - expected).abs() < 1e-9,
            "partial span billed exactly: {cost} vs {expected}"
        );
        assert!((p.billing().total_cost() - cost).abs() < 1e-12);
        // Double release is rejected, so the span cannot be re-billed.
        assert!(matches!(
            p.release_nodes(id),
            Err(CloudError::UnknownAllocation(_))
        ));
        assert!((p.billing().total_cost() - cost).abs() < 1e-12);
    }

    #[test]
    fn quota_enforced_on_allocation() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        p.quota_mut().set_limit("HBv3", 240);
        assert!(allocate_home(&mut p, "HB120rs_v3", 2, Capacity::Dedicated).is_ok());
        let err = allocate_home(&mut p, "HB120rs_v3", 1, Capacity::Dedicated).unwrap_err();
        assert!(matches!(err, CloudError::QuotaExceeded { .. }));
    }

    #[test]
    fn delete_group_releases_allocations() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        let _id = allocate_home(&mut p, "HC44rs", 2, Capacity::Dedicated).unwrap();
        p.clock().advance_by(SimDuration::from_mins(30));
        p.delete_resource_group("rg1").unwrap();
        assert!(p.billing().total_cost() > 0.0);
        assert_eq!(p.quota_mut().used("HC"), 0);
        // Group is gone for control-plane purposes.
        assert!(matches!(
            p.create_vnet("rg1", "v", "s"),
            Err(CloudError::UnknownResourceGroup(_))
        ));
    }

    #[test]
    fn fault_injection_fails_operation() {
        let mut p = provider();
        p.set_fault_plan(FaultPlan::none().fail_nth(Operation::AllocateNodes, 0));
        deploy_landing_zone(&mut p, "rg1");
        let err = allocate_home(&mut p, "HB120rs_v3", 1, Capacity::Dedicated).unwrap_err();
        assert!(matches!(err, CloudError::ProvisioningFailed { .. }));
        // Failed allocation takes no quota.
        assert_eq!(p.quota_mut().used("HBv3"), 0);
        // Retry succeeds.
        assert!(allocate_home(&mut p, "HB120rs_v3", 1, Capacity::Dedicated).is_ok());
    }

    #[test]
    fn boot_fault_releases_quota() {
        let mut p = provider();
        p.set_fault_plan(FaultPlan::none().fail_nth(Operation::BootNode, 0));
        deploy_landing_zone(&mut p, "rg1");
        let err = allocate_home(&mut p, "HB120rs_v3", 2, Capacity::Dedicated).unwrap_err();
        assert!(
            matches!(
                err,
                CloudError::ProvisioningFailed {
                    transient: true,
                    ..
                }
            ),
            "{err:?}"
        );
        // Quota granted before the boot fault is handed back.
        assert_eq!(p.quota_mut().used("HBv3"), 0);
        assert!(allocate_home(&mut p, "HB120rs_v3", 2, Capacity::Dedicated).is_ok());
    }

    #[test]
    fn unknown_sku_and_region_errors() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        assert!(matches!(
            allocate_home(&mut p, "Standard_Bogus", 1, Capacity::Dedicated),
            Err(CloudError::UnknownSku(_))
        ));
        let bad = ProviderConfig {
            region: "atlantis".into(),
            ..ProviderConfig::default()
        };
        assert!(matches!(
            CloudProvider::new(bad),
            Err(CloudError::UnknownRegion(_))
        ));
    }

    #[test]
    fn regional_sku_availability_enforced() {
        let config = ProviderConfig {
            region: "japaneast".into(),
            ..ProviderConfig::default()
        };
        let mut p = CloudProvider::new(config).unwrap();
        deploy_landing_zone(&mut p, "rg1");
        // japaneast lacks the HB (Naples) family.
        assert!(matches!(
            allocate_home(&mut p, "HB60rs", 1, Capacity::Dedicated),
            Err(CloudError::SkuNotInRegion { .. })
        ));
    }

    #[test]
    fn regional_price_multiplier_applied() {
        let config = ProviderConfig {
            region: "westeurope".into(),
            ..ProviderConfig::default()
        };
        let p = CloudProvider::new(config).unwrap();
        let price = p.price_per_hour("HB120rs_v3").unwrap();
        assert!((price - 3.60 * 1.08).abs() < 1e-9);
    }

    #[test]
    fn foreign_region_allocation_uses_its_pool_and_price() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        let id = p
            .allocate_nodes_in("rg1", "HB120rs_v3", 2, Capacity::Dedicated, "westeurope")
            .unwrap();
        // Quota came out of westeurope's pool, not the home region's.
        assert_eq!(p.quota_mut().used("HBv3"), 0);
        assert_eq!(p.quota_mut_in("westeurope").unwrap().used("HBv3"), 240);
        p.clock().advance_by(SimDuration::from_hours(1));
        let cost = p.release_nodes(id).unwrap();
        // Billed at westeurope's price multiplier and stamped with its name.
        assert!((cost - 3.60 * 1.08 * 2.0).abs() < 1e-9, "cost {cost}");
        let rec = &p.billing().records()[0];
        assert_eq!(rec.region, "westeurope");
        assert!((p.billing().cost_for_region("westeurope") - cost).abs() < 1e-12);
        assert_eq!(p.billing().cost_for_region("southcentralus"), 0.0);
        // Quota returned to the pool that granted it.
        assert_eq!(p.quota_mut_in("westeurope").unwrap().used("HBv3"), 0);
        // Availability is checked against the target region, not home.
        assert!(matches!(
            p.allocate_nodes_in("rg1", "HB60rs", 1, Capacity::Dedicated, "japaneast"),
            Err(CloudError::SkuNotInRegion { .. })
        ));
    }

    #[test]
    fn region_quota_pools_are_isolated_fault_domains() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        // japaneast's profile caps its pool at 8 000 cores; exhaust it.
        let id = p
            .allocate_nodes_in("rg1", "HB120rs_v3", 66, Capacity::Dedicated, "japaneast")
            .unwrap();
        assert!(matches!(
            p.allocate_nodes_in("rg1", "HB120rs_v3", 1, Capacity::Dedicated, "japaneast"),
            Err(CloudError::QuotaExceeded { .. })
        ));
        // The home region's (default 20 000-core) pool is untouched.
        assert!(allocate_home(&mut p, "HB120rs_v3", 1, Capacity::Dedicated).is_ok());
        p.release_nodes(id).unwrap();
        assert_eq!(p.quota_mut_in("japaneast").unwrap().used("HBv3"), 0);
    }

    #[test]
    fn region_outage_fails_allocation_without_consuming_quota() {
        use crate::fault::{FaultMode, RegionFault};
        let mut p = provider();
        p.set_fault_plan(FaultPlan::none().fail_region(RegionFault::Outage, FaultMode::Nth(0)));
        deploy_landing_zone(&mut p, "rg1");
        let err = p
            .allocate_nodes_in("rg1", "HB120rs_v3", 2, Capacity::Dedicated, "eastus")
            .unwrap_err();
        match err {
            CloudError::ProvisioningFailed {
                operation,
                reason,
                transient,
            } => {
                assert_eq!(operation, "region outage");
                assert!(reason.contains("eastus"), "{reason}");
                assert!(transient);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(p.quota_mut_in("eastus").unwrap().used("HBv3"), 0);
        // The Nth(0) rule fired once; the retry (attempt 1) goes through.
        assert!(p
            .allocate_nodes_in("rg1", "HB120rs_v3", 2, Capacity::Dedicated, "eastus")
            .is_ok());
    }

    #[test]
    fn region_capacity_crunch_fails_even_with_quota_to_spare() {
        use crate::fault::{FaultMode, RegionFault};
        let mut p = provider();
        p.set_fault_plan(
            FaultPlan::none().fail_region(RegionFault::CapacityCrunch, FaultMode::Nth(0)),
        );
        deploy_landing_zone(&mut p, "rg1");
        let err = p
            .allocate_nodes_in("rg1", "HB120rs_v3", 1, Capacity::Dedicated, "westus2")
            .unwrap_err();
        assert!(
            matches!(
                &err,
                CloudError::ProvisioningFailed { operation, transient: true, .. }
                    if operation == "region capacity crunch"
            ),
            "{err:?}"
        );
        assert_eq!(p.quota_mut_in("westus2").unwrap().used("HBv3"), 0);
    }

    #[test]
    fn region_provision_delay_triples_boot_latency() {
        use crate::fault::{FaultMode, RegionFault};
        let mut p = provider();
        p.set_fault_plan(
            FaultPlan::none().fail_region(RegionFault::ProvisionDelay, FaultMode::Nth(0)),
        );
        deploy_landing_zone(&mut p, "rg1");
        p.set_trace_enabled(true);
        let id = p
            .allocate_nodes_in("rg1", "HB120rs_v3", 2, Capacity::Dedicated, "westeurope")
            .unwrap();
        let events = p.drain_trace();
        let prov = events.iter().find(|e| e.kind == "provision").unwrap();
        // Base boot × westeurope's provisioning profile × 3 for the delay.
        let expected = (150.0 + 10.0 * 2f64.ln_1p()) * 1.15 * 3.0;
        assert!(
            (prov.f64_field("boot_secs").unwrap() - expected).abs() < 1e-9,
            "boot {:?} vs {expected}",
            prov.f64_field("boot_secs")
        );
        // Foreign placements stamp the region into the provision trace.
        assert_eq!(prov.str_field("region"), Some("westeurope"));
        p.release_nodes(id).unwrap();
        // The next boot (attempt 1) pays only the region profile.
        p.set_trace_enabled(true);
        let id = p
            .allocate_nodes_in("rg1", "HB120rs_v3", 2, Capacity::Dedicated, "westeurope")
            .unwrap();
        let events = p.drain_trace();
        let prov = events.iter().find(|e| e.kind == "provision").unwrap();
        let expected = (150.0 + 10.0 * 2f64.ln_1p()) * 1.15;
        assert!((prov.f64_field("boot_secs").unwrap() - expected).abs() < 1e-9);
        p.release_nodes(id).unwrap();
    }

    #[test]
    fn region_fault_counters_are_keyed_per_sku_and_region() {
        use crate::fault::{FaultMode, RegionFault};
        let mut p = provider();
        p.set_fault_plan(FaultPlan::none().fail_region(RegionFault::Outage, FaultMode::Nth(0)));
        deploy_landing_zone(&mut p, "rg1");
        // Each (sku, region) pair owns its attempt counter, so the first
        // attempt of every pair fails regardless of the order the shared
        // provider is hit in — this is what makes outage grids replay
        // byte-identically under any worker count.
        for (sku, region) in [
            ("HB120rs_v3", "eastus"),
            ("HC44rs", "eastus"),
            ("HB120rs_v3", "westeurope"),
        ] {
            assert!(
                p.allocate_nodes_in("rg1", sku, 1, Capacity::Dedicated, region)
                    .is_err(),
                "{sku}@{region} first attempt must hit the outage"
            );
            assert!(
                p.allocate_nodes_in("rg1", sku, 1, Capacity::Dedicated, region)
                    .is_ok(),
                "{sku}@{region} retry must succeed"
            );
        }
    }

    #[test]
    fn fault_free_foreign_allocation_traces_no_region_rolls() {
        // With no region rules installed, the fast path skips region fault
        // rolls entirely — same trace shape as before regions became fault
        // domains.
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        p.set_trace_enabled(true);
        let id = p
            .allocate_nodes_in("rg1", "HB120rs_v3", 2, Capacity::Dedicated, "westeurope")
            .unwrap();
        p.release_nodes(id).unwrap();
        let events = p.drain_trace();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        // Only the pre-existing AllocateNodes/BootNode rolls appear — no
        // RegionOutage/CapacityCrunch/ProvisionDelay events were added.
        assert_eq!(
            kinds,
            ["fault_roll", "quota", "fault_roll", "provision", "release"]
        );
    }

    #[test]
    fn qualified_rolls_count_privately_but_decide_and_trace_under_the_bare_scope() {
        let plan = FaultPlan::none()
            .seed(11)
            .fail_probabilistic(Operation::RunTask, 0.5);
        let mut p = provider();
        p.set_fault_plan(plan.clone());
        p.set_trace_enabled(true);
        // Two rolls on the shared counter, then sixteen on a private one.
        for _ in 0..2 {
            let _ = p.inject_fault(Operation::RunTask, "pool", 1.0, None);
        }
        let fired: Vec<bool> = (0..16)
            .map(|_| {
                p.inject_fault(Operation::RunTask, "pool", 1.0, Some("c1"))
                    .is_err()
            })
            .collect();
        assert_eq!(p.fault_attempts(Operation::RunTask, "pool"), 2);
        assert_eq!(p.fault_attempts(Operation::RunTask, "pool#c1"), 16);
        // Decided under the bare scope at the private counter's index.
        let bare: Vec<bool> = (0..16)
            .map(|i| plan.decide(Operation::RunTask, "pool", i).is_some())
            .collect();
        let keyed: Vec<bool> = (0..16)
            .map(|i| plan.decide(Operation::RunTask, "pool#c1", i).is_some())
            .collect();
        assert_eq!(fired, bare);
        assert_ne!(fired, keyed, "the qualifier never reaches the roll");
        let events = p.drain_trace();
        assert_eq!(events.len(), 18);
        for (i, e) in events[2..].iter().enumerate() {
            assert_eq!((e.kind.as_str(), e.scope.as_str()), ("fault_roll", "pool"));
            assert_eq!(e.fields.get("attempt"), Some(&Value::Int(i as i64)));
            assert_eq!(e.fields.get("fired"), Some(&Value::Bool(bare[i])));
        }
    }

    #[test]
    fn rule_less_scope_rolls_count_and_trace_but_region_rolls_do_not() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        // A rule for another operation: nothing here targets a region op.
        p.set_fault_plan(FaultPlan::none().fail_with(
            Operation::RunTask,
            FaultMode::Always,
            FaultKind::Transient,
        ));
        p.set_trace_enabled(true);
        assert!(p
            .inject_fault(Operation::NodeDeath, "pool", 1.0, None)
            .is_ok());
        assert_eq!(p.fault_attempts(Operation::NodeDeath, "pool"), 1);
        let events = p.drain_trace();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "fault_roll");
        assert_eq!(events[0].str_field("op"), Some("NodeDeath"));
        assert_eq!(events[0].fields.get("fired"), Some(&Value::Bool(false)));

        let id = p
            .allocate_nodes_in("rg1", "HB120rs_v3", 2, Capacity::Dedicated, "westeurope")
            .unwrap();
        let sku = p.catalog().get("HB120rs_v3").unwrap().name.clone();
        for op in [
            Operation::RegionOutage,
            Operation::RegionCapacityCrunch,
            Operation::RegionProvisionDelay,
        ] {
            assert_eq!(p.fault_attempts(op, &format!("{sku}@westeurope")), 0);
        }
        assert_eq!(p.fault_attempts(Operation::AllocateNodes, &sku), 1);
        assert_eq!(p.fault_attempts(Operation::BootNode, &sku), 1);
        let events = p.drain_trace();
        let ops: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == "fault_roll")
            .filter_map(|e| e.str_field("op"))
            .collect();
        assert_eq!(ops, ["AllocateNodes", "BootNode"]);
        p.release_nodes(id).unwrap();
    }

    #[test]
    fn subscription_check() {
        let p = provider();
        assert!(p.check_subscription("mysubscription").is_ok());
        assert!(p.check_subscription("other").is_err());
    }

    #[test]
    fn trace_buffer_gates_and_drains() {
        let mut p = provider();
        deploy_landing_zone(&mut p, "rg1");
        let id = allocate_home(&mut p, "HB120rs_v3", 2, Capacity::Dedicated).unwrap();
        p.release_nodes(id).unwrap();
        assert!(
            p.drain_trace().is_empty(),
            "disabled provider buffers nothing"
        );
        p.set_trace_enabled(true);
        let id = allocate_home(&mut p, "HB120rs_v3", 2, Capacity::Spot).unwrap();
        p.release_nodes(id).unwrap();
        let events = p.drain_trace();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            ["fault_roll", "quota", "fault_roll", "provision", "release"]
        );
        let prov = &events[3];
        // Un-jittered base boot latency, never the shared clock's reading.
        assert_eq!(
            prov.f64_field("boot_secs"),
            Some(150.0 + 10.0 * 2f64.ln_1p())
        );
        assert_eq!(prov.str_field("capacity"), Some("spot"));
        assert!(p.drain_trace().is_empty(), "drain empties the buffer");
        // Denied quota is traced too.
        p.quota_mut().set_limit("HBv3", 100);
        assert!(allocate_home(&mut p, "HB120rs_v3", 4, Capacity::Dedicated).is_err());
        let events = p.drain_trace();
        let quota = events.iter().find(|e| e.kind == "quota").unwrap();
        assert_eq!(quota.fields.get("granted"), Some(&Value::Bool(false)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut p = provider();
            deploy_landing_zone(&mut p, "rg1");
            let id = allocate_home(&mut p, "HB120rs_v3", 8, Capacity::Dedicated).unwrap();
            p.clock().advance_by(SimDuration::from_secs(120));
            p.release_nodes(id).unwrap();
            (p.clock().now(), p.billing().total_cost())
        };
        assert_eq!(run(), run());
    }
}
