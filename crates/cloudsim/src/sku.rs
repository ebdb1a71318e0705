//! The VM-type (SKU) catalog.
//!
//! Entries are modelled on Azure's HPC and general-purpose families at the
//! time of the paper. Hardware characteristics (cores, memory bandwidth, L3
//! cache, interconnect) feed the application performance models in
//! `appmodel`; prices feed the billing meter. Absolute values are public
//! list prices / spec-sheet numbers — the reproduction only needs them to be
//! mutually consistent, not authoritative.

use crate::fnv::Fnv64;
use std::fmt;

/// CPU microarchitecture, used by the performance models to pick per-core
/// throughput characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuArch {
    /// Intel Skylake-SP (e.g. Xeon Platinum 8168 in HC44rs).
    SkylakeSp,
    /// AMD EPYC Naples (HB60rs).
    Naples,
    /// AMD EPYC Rome (HB120rs_v2).
    Rome,
    /// AMD EPYC Milan-X with 3D V-Cache (HB120rs_v3).
    MilanX,
    /// AMD EPYC Genoa-X (HB176rs_v4 / HX176rs).
    GenoaX,
    /// Intel Cascade Lake (general-purpose F/D/E series).
    CascadeLake,
}

/// Cluster interconnect attached to a SKU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interconnect {
    /// InfiniBand with the given signalling rate and MPI latency.
    InfiniBand {
        /// Link bandwidth in gigabits per second (e.g. 100 for EDR, 200 HDR).
        gbps: f64,
        /// Small-message MPI latency in microseconds.
        latency_us: f64,
    },
    /// Ethernet (accelerated networking at best).
    Ethernet {
        /// Link bandwidth in gigabits per second.
        gbps: f64,
        /// Small-message latency in microseconds.
        latency_us: f64,
    },
}

impl Interconnect {
    /// Link bandwidth in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        let gbps = match self {
            Interconnect::InfiniBand { gbps, .. } | Interconnect::Ethernet { gbps, .. } => *gbps,
        };
        gbps * 1e9 / 8.0
    }

    /// Small-message latency in seconds.
    pub fn latency_secs(&self) -> f64 {
        let us = match self {
            Interconnect::InfiniBand { latency_us, .. }
            | Interconnect::Ethernet { latency_us, .. } => *latency_us,
        };
        us * 1e-6
    }

    /// True for RDMA-capable InfiniBand fabrics.
    pub fn is_infiniband(&self) -> bool {
        matches!(self, Interconnect::InfiniBand { .. })
    }
}

/// A virtual machine type.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSku {
    /// Full Azure-style name, e.g. `Standard_HB120rs_v3`.
    pub name: String,
    /// Quota family, e.g. `HBv3`.
    pub family: String,
    /// Physical cores exposed to MPI (H-series disables SMT).
    pub cores: u32,
    /// Memory in GiB.
    pub memory_gib: f64,
    /// Aggregate memory bandwidth in GB/s (STREAM-like).
    pub mem_bw_gbs: f64,
    /// Total L3 cache per node in MiB. HBv3's 3D V-Cache (1536 MiB) is what
    /// produces the paper's superlinear-efficiency region (Fig. 5).
    pub l3_cache_mib: f64,
    /// Nominal double-precision throughput per core in GFLOP/s.
    pub gflops_per_core: f64,
    /// CPU microarchitecture.
    pub arch: CpuArch,
    /// Cluster interconnect.
    pub interconnect: Interconnect,
    /// Pay-as-you-go price in USD per VM-hour (base region).
    pub price_per_hour: f64,
    /// Spot/low-priority discount as a fraction of the pay-as-you-go price:
    /// a spot node of this SKU costs `price_per_hour × (1 - spot_discount)`.
    /// Deeper discounts come with higher eviction pressure in practice;
    /// scarce top-end HPC parts discount less than commodity sizes.
    pub spot_discount: f64,
    /// True if the SKU supports RDMA placement for tightly-coupled MPI.
    pub(crate) rdma_capable: bool,
}

impl fmt::Display for VmSku {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores, {:.0} GiB, ${:.3}/h)",
            self.name, self.cores, self.memory_gib, self.price_per_hour
        )
    }
}

/// `name` without a leading `standard_` in any case.
fn strip_standard(name: &str) -> &str {
    const PREFIX: &[u8] = b"standard_";
    match name.as_bytes().get(..PREFIX.len()) {
        // An ASCII match ends on a char boundary.
        Some(head) if head.eq_ignore_ascii_case(PREFIX) => &name[PREFIX.len()..],
        _ => name,
    }
}

/// True when `a` and `b` name the same SKU, ignoring case and a leading
/// `standard_`; compared in place.
fn same_sku(a: &str, b: &str) -> bool {
    strip_standard(a).eq_ignore_ascii_case(strip_standard(b))
}

/// An immutable catalog of SKUs with tolerant lookup.
#[derive(Debug, Clone)]
pub struct SkuCatalog {
    skus: Vec<VmSku>,
}

impl SkuCatalog {
    /// Builds the default catalog modelled on Azure HPC offerings.
    pub fn azure_hpc() -> Self {
        let ib = |gbps: f64, lat: f64| Interconnect::InfiniBand {
            gbps,
            latency_us: lat,
        };
        let eth = |gbps: f64, lat: f64| Interconnect::Ethernet {
            gbps,
            latency_us: lat,
        };
        let skus = vec![
            VmSku {
                name: "Standard_HC44rs".into(),
                family: "HC".into(),
                cores: 44,
                memory_gib: 352.0,
                mem_bw_gbs: 190.0,
                l3_cache_mib: 66.0,
                gflops_per_core: 60.0,
                arch: CpuArch::SkylakeSp,
                interconnect: ib(100.0, 1.7),
                price_per_hour: 3.168,
                spot_discount: 0.62,
                rdma_capable: true,
            },
            VmSku {
                name: "Standard_HB60rs".into(),
                family: "HB".into(),
                cores: 60,
                memory_gib: 228.0,
                mem_bw_gbs: 263.0,
                l3_cache_mib: 256.0,
                gflops_per_core: 30.0,
                arch: CpuArch::Naples,
                interconnect: ib(100.0, 1.8),
                price_per_hour: 2.28,
                spot_discount: 0.70,
                rdma_capable: true,
            },
            VmSku {
                name: "Standard_HB120rs_v2".into(),
                family: "HBv2".into(),
                cores: 120,
                memory_gib: 456.0,
                mem_bw_gbs: 340.0,
                l3_cache_mib: 480.0,
                gflops_per_core: 36.0,
                arch: CpuArch::Rome,
                interconnect: ib(200.0, 1.6),
                price_per_hour: 3.60,
                spot_discount: 0.68,
                rdma_capable: true,
            },
            VmSku {
                name: "Standard_HB120rs_v3".into(),
                family: "HBv3".into(),
                cores: 120,
                memory_gib: 448.0,
                mem_bw_gbs: 350.0,
                // 3D V-Cache: 32 MiB × 48 CCDs... effectively 1.5 GiB/node.
                l3_cache_mib: 1536.0,
                gflops_per_core: 39.0,
                arch: CpuArch::MilanX,
                interconnect: ib(200.0, 1.5),
                price_per_hour: 3.60,
                spot_discount: 0.64,
                rdma_capable: true,
            },
            VmSku {
                name: "Standard_HB176rs_v4".into(),
                family: "HBv4".into(),
                cores: 176,
                memory_gib: 768.0,
                mem_bw_gbs: 780.0,
                l3_cache_mib: 2304.0,
                gflops_per_core: 55.0,
                arch: CpuArch::GenoaX,
                interconnect: ib(400.0, 1.3),
                price_per_hour: 7.20,
                spot_discount: 0.52,
                rdma_capable: true,
            },
            VmSku {
                name: "Standard_HX176rs".into(),
                family: "HX".into(),
                cores: 176,
                memory_gib: 1408.0,
                mem_bw_gbs: 780.0,
                l3_cache_mib: 2304.0,
                gflops_per_core: 55.0,
                arch: CpuArch::GenoaX,
                interconnect: ib(400.0, 1.3),
                price_per_hour: 8.64,
                spot_discount: 0.48,
                rdma_capable: true,
            },
            VmSku {
                name: "Standard_F72s_v2".into(),
                family: "FSv2".into(),
                cores: 36,
                memory_gib: 144.0,
                mem_bw_gbs: 120.0,
                l3_cache_mib: 50.0,
                gflops_per_core: 48.0,
                arch: CpuArch::CascadeLake,
                interconnect: eth(30.0, 30.0),
                price_per_hour: 3.045,
                spot_discount: 0.80,
                rdma_capable: false,
            },
            VmSku {
                name: "Standard_D64s_v5".into(),
                family: "Dsv5".into(),
                cores: 32,
                memory_gib: 256.0,
                mem_bw_gbs: 115.0,
                l3_cache_mib: 60.0,
                gflops_per_core: 44.0,
                arch: CpuArch::CascadeLake,
                interconnect: eth(30.0, 35.0),
                price_per_hour: 3.072,
                spot_discount: 0.78,
                rdma_capable: false,
            },
            VmSku {
                name: "Standard_E96s_v5".into(),
                family: "Esv5".into(),
                cores: 48,
                memory_gib: 672.0,
                mem_bw_gbs: 130.0,
                l3_cache_mib: 90.0,
                gflops_per_core: 44.0,
                arch: CpuArch::CascadeLake,
                interconnect: eth(35.0, 35.0),
                price_per_hour: 6.048,
                spot_discount: 0.74,
                rdma_capable: false,
            },
        ];
        SkuCatalog { skus }
    }

    /// Looks up a SKU by name; accepts `Standard_HB120rs_v3`, `HB120rs_v3`
    /// or `hb120rs_v3`.
    pub fn get(&self, name: &str) -> Option<&VmSku> {
        self.skus.iter().find(|s| same_sku(&s.name, name))
    }

    /// All SKUs in catalog order.
    #[cfg(test)]
    pub(crate) fn all(&self) -> &[VmSku] {
        &self.skus
    }

    /// A content-derived revision of the catalog: a stable 64-bit FNV-1a
    /// hash over every SKU's hardware characteristics and price, in catalog
    /// order. Any change to an entry (a price update, a new SKU, an edited
    /// interconnect) yields a different revision, which downstream caches
    /// use to invalidate results computed against older catalogs.
    pub fn revision(&self) -> u64 {
        // Debug formatting covers every field (including float values
        // exactly, via their shortest round-trippable representation) and
        // is stable for a given catalog content.
        self.skus
            .iter()
            .fold(Fnv64::new(), |h, sku| {
                h.field(format!("{sku:?}").as_bytes())
            })
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revision_is_stable_and_content_sensitive() {
        let a = SkuCatalog::azure_hpc();
        let b = SkuCatalog::azure_hpc();
        assert_eq!(a.revision(), b.revision(), "same content, same revision");
        let mut c = SkuCatalog::azure_hpc();
        let at = c.skus.iter().position(|s| s.name == "Standard_HB120rs_v3");
        c.skus[at.unwrap()].price_per_hour += 0.01;
        assert_ne!(a.revision(), c.revision(), "price change moves revision");
    }

    #[test]
    fn lookup_is_prefix_and_case_insensitive() {
        let c = SkuCatalog::azure_hpc();
        for name in [
            "Standard_HB120rs_v3",
            "HB120rs_v3",
            "hb120rs_v3",
            "STANDARD_hb120rs_V3",
        ] {
            let sku = c
                .get(name)
                .unwrap_or_else(|| panic!("lookup failed: {name}"));
            assert_eq!(sku.cores, 120);
        }
        assert!(c.get("Standard_Nonexistent").is_none());
    }

    #[test]
    fn paper_skus_present_with_expected_cores() {
        let c = SkuCatalog::azure_hpc();
        // The paper's LAMMPS example: 44-, 120- and 120-core SKUs.
        assert_eq!(c.get("Standard_HC44rs").unwrap().cores, 44);
        assert_eq!(c.get("Standard_HB120rs_v2").unwrap().cores, 120);
        assert_eq!(c.get("Standard_HB120rs_v3").unwrap().cores, 120);
    }

    #[test]
    fn spot_discounts_form_a_sane_curve() {
        // Every SKU offers a spot rate strictly below pay-as-you-go, and the
        // newest/scarcest HPC parts (HB176rs_v4, HX176rs) carry the smallest
        // discounts — scarce capacity evicts more and discounts less.
        let c = SkuCatalog::azure_hpc();
        for sku in c.all() {
            assert!(
                sku.spot_discount > 0.0 && sku.spot_discount < 1.0,
                "{}: discount {} out of range",
                sku.name,
                sku.spot_discount
            );
        }
        let commodity = c.get("F72s_v2").unwrap().spot_discount;
        let scarce = c.get("HX176rs").unwrap().spot_discount;
        assert!(scarce < commodity, "scarce SKUs discount less");
    }

    #[test]
    fn hbv3_has_vcache_advantage() {
        let c = SkuCatalog::azure_hpc();
        let v2 = c.get("HB120rs_v2").unwrap();
        let v3 = c.get("HB120rs_v3").unwrap();
        assert!(v3.l3_cache_mib > 3.0 * v2.l3_cache_mib);
        assert_eq!(v2.price_per_hour, v3.price_per_hour);
    }

    #[test]
    fn interconnect_conversions() {
        let ib = Interconnect::InfiniBand {
            gbps: 200.0,
            latency_us: 1.5,
        };
        assert!((ib.bandwidth_bytes_per_sec() - 25e9).abs() < 1.0);
        assert!((ib.latency_secs() - 1.5e-6).abs() < 1e-12);
        assert!(ib.is_infiniband());
        let eth = Interconnect::Ethernet {
            gbps: 30.0,
            latency_us: 30.0,
        };
        assert!(!eth.is_infiniband());
    }

    #[test]
    fn display_is_compact() {
        let c = SkuCatalog::azure_hpc();
        let s = c.get("HB120rs_v3").unwrap().to_string();
        assert!(s.contains("120 cores") && s.contains("$3.600/h"));
    }
}
