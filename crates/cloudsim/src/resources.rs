//! Resource-group contents and lifecycle states.
//!
//! Section III-B of the paper deploys, in order: variables → basic landing
//! zone (resource group + VNet + subnet) → storage account → batch service →
//! optional jumpbox and VNet peering. These types record what exists inside
//! each simulated resource group so deployment and teardown logic have
//! something real to inspect.

/// Lifecycle state of a resource or group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResourceState {
    /// Ready for use.
    Ready,
    /// Gone (kept for audit).
    Deleted,
}

/// Kind of resource living inside a resource group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ResourceKind {
    /// Virtual network with a list of subnet names.
    VirtualNetwork { subnets: Vec<String> },
    /// Storage account (batch files + NFS share in the paper).
    StorageAccount,
    /// Batch service account with no pools initially.
    BatchAccount,
    /// Jumpbox VM for user inspection of the shared filesystem.
    Jumpbox,
    /// Peering from a local VNet to another group's VNet.
    VnetPeering {
        remote_group: String,
        remote_vnet: String,
    },
}

impl ResourceKind {
    /// Short type label used in listings.
    pub(crate) fn type_label(&self) -> &'static str {
        match self {
            ResourceKind::VirtualNetwork { .. } => "vnet",
            ResourceKind::StorageAccount => "storage",
            ResourceKind::BatchAccount => "batch",
            ResourceKind::Jumpbox => "jumpbox",
            ResourceKind::VnetPeering { .. } => "peering",
        }
    }
}

/// A named resource inside a group.
#[derive(Debug, Clone)]
pub(crate) struct Resource {
    /// Resource name (unique within the group).
    pub(crate) name: String,
    /// What the resource is.
    pub(crate) kind: ResourceKind,
    /// Lifecycle state.
    pub(crate) state: ResourceState,
}

/// A resource group: the unit of deployment and teardown.
#[derive(Debug, Clone)]
pub struct ResourceGroup {
    /// Lifecycle state.
    pub(crate) state: ResourceState,
    /// Contained resources in creation order.
    pub(crate) resources: Vec<Resource>,
}

impl ResourceGroup {
    /// Finds a contained resource by name.
    pub(crate) fn resource(&self, name: &str) -> Option<&Resource> {
        self.resources.iter().find(|r| r.name == name)
    }

    /// True if the group contains a ready resource of the given type label.
    pub fn has_ready(&self, type_label: &str) -> bool {
        self.resources
            .iter()
            .any(|r| r.kind.type_label() == type_label && r.state == ResourceState::Ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group_with(kinds: Vec<(&str, ResourceKind)>) -> ResourceGroup {
        ResourceGroup {
            state: ResourceState::Ready,
            resources: kinds
                .into_iter()
                .map(|(name, kind)| Resource {
                    name: name.into(),
                    kind,
                    state: ResourceState::Ready,
                })
                .collect(),
        }
    }

    #[test]
    fn has_ready_by_type() {
        let g = group_with(vec![
            (
                "vnet1",
                ResourceKind::VirtualNetwork {
                    subnets: vec!["default".into()],
                },
            ),
            ("stor1", ResourceKind::StorageAccount),
        ]);
        assert!(g.has_ready("vnet"));
        assert!(g.has_ready("storage"));
        assert!(!g.has_ready("batch"));
    }

    #[test]
    fn resource_lookup() {
        let g = group_with(vec![("jb", ResourceKind::Jumpbox)]);
        assert!(g.resource("jb").is_some());
        assert!(g.resource("nope").is_none());
    }

    #[test]
    fn type_labels() {
        assert_eq!(ResourceKind::StorageAccount.type_label(), "storage");
        assert_eq!(
            ResourceKind::VnetPeering {
                remote_group: "x".into(),
                remote_vnet: "y".into()
            }
            .type_label(),
            "peering"
        );
    }
}
