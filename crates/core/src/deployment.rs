//! Environment deployment (paper Section III-B): the resource group, its
//! landing zone and services that the CLI's `deploy create` (Table II) and
//! every session provision.

use crate::config::UserConfig;
use crate::error::ToolError;
use batchsim::SharedProvider;
use cloudsim::{CloudProvider, ProviderConfig};

/// Registry of deployments over one cloud provider.
pub struct DeploymentManager {
    provider: SharedProvider,
    /// Resource-group names of the deployments not yet shut down.
    active: Vec<String>,
    counter: u32,
}

impl DeploymentManager {
    /// Creates a manager with a fresh simulated provider for the given
    /// subscription/region.
    pub fn new(subscription: &str, region: &str, seed: u64) -> Result<Self, ToolError> {
        let provider = CloudProvider::new(ProviderConfig {
            subscription: subscription.to_string(),
            region: region.to_string(),
            seed,
            ..ProviderConfig::default()
        })?;
        Ok(Self::with_provider(batchsim::share(provider)))
    }

    /// Wraps an existing shared provider.
    pub(crate) fn with_provider(provider: SharedProvider) -> Self {
        DeploymentManager {
            provider,
            active: Vec::new(),
            counter: 0,
        }
    }

    /// The shared provider handle.
    pub(crate) fn provider(&self) -> SharedProvider {
        self.provider.clone()
    }

    /// Creates a deployment for `config`, following the paper's sequence:
    /// variables → landing zone (RG + VNet + subnet) → storage account →
    /// batch service → optional jumpbox and network peering. Returns the
    /// resource-group name.
    pub fn create(&mut self, config: &UserConfig) -> Result<String, ToolError> {
        // 1. Variables.
        self.counter += 1;
        let rg = format!("{}{:03}", config.rgprefix, self.counter);
        let vnet = format!("{rg}-vnet");
        let storage = format!("{rg}stor");
        let batch = format!("{rg}batch");
        let mut provider = self.provider.lock();
        provider.check_subscription(&config.subscription)?;
        // 2. Basic landing zone.
        provider.create_resource_group(&rg)?;
        provider.create_vnet(&rg, &vnet, "default")?;
        // 3. Storage account.
        provider.create_storage_account(&rg, &storage)?;
        // 4. Batch service with no resources.
        provider.create_batch_account(&rg, &batch)?;
        // 5. Optional jumpbox and peering.
        if config.createjumpbox {
            provider.create_jumpbox(&rg, &format!("{rg}-jumpbox"))?;
        }
        if config.peervpn {
            match (&config.vpnrg, &config.vpnvnet) {
                (Some(vpnrg), Some(vpnvnet)) => provider.peer_vnets(&rg, vpnrg, vpnvnet)?,
                _ => {
                    return Err(ToolError::Config(
                        "peervpn requires vpnrg and vpnvnet".into(),
                    ))
                }
            }
        }
        drop(provider);
        self.active.push(rg.clone());
        Ok(rg)
    }

    /// Shuts a deployment down, deleting all its resources (Table II:
    /// `deploy shutdown`).
    pub(crate) fn shutdown(&mut self, name: &str) -> Result<(), ToolError> {
        let at = self
            .active
            .iter()
            .position(|d| d == name)
            .ok_or_else(|| ToolError::UnknownDeployment(name.to_string()))?;
        self.provider.lock().delete_resource_group(name)?;
        self.active.remove(at);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> DeploymentManager {
        DeploymentManager::new("mysubscription", "southcentralus", 7).unwrap()
    }

    #[test]
    fn create_provisions_landing_zone() {
        let mut m = manager();
        let config = UserConfig::example_openfoam();
        let rg = m.create(&config).unwrap();
        assert_eq!(rg, "hpcadvisortest1001");
        let provider = m.provider();
        let p = provider.lock();
        let group = p.resource_group(&rg).unwrap();
        assert!(group.has_ready("vnet"));
        assert!(group.has_ready("storage"));
        assert!(group.has_ready("batch"));
        assert!(group.has_ready("jumpbox"), "config requests a jumpbox");
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut m = manager();
        let config = UserConfig::example_openfoam();
        let a = m.create(&config).unwrap();
        let b = m.create(&config).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn wrong_subscription_rejected() {
        let mut m = DeploymentManager::new("other-sub", "southcentralus", 7).unwrap();
        let config = UserConfig::example_openfoam();
        assert!(matches!(
            m.create(&config),
            Err(ToolError::Cloud(
                cloudsim::CloudError::WrongSubscription { .. }
            ))
        ));
    }

    #[test]
    fn shutdown_deletes_resources() {
        let mut m = manager();
        let config = UserConfig::example_openfoam();
        let rg = m.create(&config).unwrap();
        m.shutdown(&rg).unwrap();
        assert!(!m
            .provider()
            .lock()
            .resource_group(&rg)
            .unwrap()
            .has_ready("vnet"));
        assert!(matches!(
            m.shutdown(&rg),
            Err(ToolError::UnknownDeployment(_))
        ));
    }

    #[test]
    fn peering_requires_vpn_fields() {
        let mut m = manager();
        let mut config = UserConfig::example_openfoam();
        config.peervpn = true;
        assert!(m.create(&config).is_err());
        config.vpnrg = Some("corp-vpn".into());
        config.vpnvnet = Some("corp-vnet".into());
        let rg = m.create(&config).unwrap();
        assert!(m
            .provider()
            .lock()
            .resource_group(&rg)
            .unwrap()
            .has_ready("peering"));
    }
}
