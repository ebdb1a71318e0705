//! Machine profiles: the hardware view the execution engine consumes.

use cloudsim::{CpuArch, Interconnect, VmSku};

/// Hardware characteristics of one node type, derived from a [`VmSku`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// SKU name (kept for logs/metrics).
    pub(crate) sku_name: String,
    /// Physical cores per node.
    pub(crate) cores: u32,
    /// Memory per node in GiB.
    pub(crate) memory_gib: f64,
    /// Streaming memory bandwidth per node in bytes/s.
    pub(crate) mem_bw_bytes: f64,
    /// Total L3 cache per node in bytes.
    pub(crate) l3_bytes: f64,
    /// Sustained double-precision throughput per core in FLOP/s.
    ///
    /// Derived from the SKU's nominal per-core GFLOP/s derated to a
    /// sustained fraction; per-app efficiency factors then scale this.
    pub(crate) flops_per_core: f64,
    /// CPU microarchitecture.
    pub(crate) arch: CpuArch,
    /// Interconnect between nodes.
    pub(crate) interconnect: Interconnect,
}

impl MachineProfile {
    /// Sustained fraction of nominal peak the engine assumes.
    const SUSTAINED_FRACTION: f64 = 0.55;

    /// Builds a profile from a catalog SKU.
    pub fn from_sku(sku: &VmSku) -> Self {
        MachineProfile {
            sku_name: sku.name.clone(),
            cores: sku.cores,
            memory_gib: sku.memory_gib,
            mem_bw_bytes: sku.mem_bw_gbs * 1e9,
            l3_bytes: sku.l3_cache_mib * 1024.0 * 1024.0,
            flops_per_core: sku.gflops_per_core * 1e9 * Self::SUSTAINED_FRACTION,
            arch: sku.arch,
            interconnect: sku.interconnect,
        }
    }

    /// Per-core clock-speed flavour: cache-stacked parts run slightly lower
    /// clocks, which matters in regimes where their cache doesn't help.
    pub(crate) fn clock_factor(&self) -> f64 {
        match self.arch {
            CpuArch::MilanX => 0.96,
            CpuArch::GenoaX => 0.97,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::SkuCatalog;

    #[test]
    fn derives_from_sku() {
        let catalog = SkuCatalog::azure_hpc();
        let sku = catalog.get("HB120rs_v3").unwrap();
        let m = MachineProfile::from_sku(sku);
        assert_eq!(m.cores, 120);
        assert!((m.l3_bytes - 1536.0 * 1024.0 * 1024.0).abs() < 1.0);
        assert!(m.flops_per_core < sku.gflops_per_core * 1e9);
        assert!(m.interconnect.is_infiniband());
    }

    #[test]
    fn vcache_parts_have_clock_penalty() {
        let catalog = SkuCatalog::azure_hpc();
        let v3 = MachineProfile::from_sku(catalog.get("HB120rs_v3").unwrap());
        let v2 = MachineProfile::from_sku(catalog.get("HB120rs_v2").unwrap());
        assert!(v3.clock_factor() < v2.clock_factor());
    }
}
