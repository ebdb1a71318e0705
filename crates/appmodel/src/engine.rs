//! The shared execution engine: prices a [`WorkProfile`] on a machine.
//!
//! Model structure (per step, then summed over steps plus serial time):
//!
//! ```text
//! comp  = max( flop_time · stall_blend , mem_time ) · imbalance
//! comm  = halo(nodes, ppn) + collectives(nodes)
//! wall  = serial_secs + steps · (comp + comm)      [× log-normal noise]
//! ```
//!
//! * `flop_time` follows Amdahl: a `serial_fraction` of each step runs on
//!   one core, the rest on all ranks.
//! * `mem_time` is streamed bytes over aggregate node memory bandwidth,
//!   *boosted* when the per-node working set fits in L3 (the HBv3 3D
//!   V-Cache effect that makes efficiency exceed 1 in the paper's Fig. 5).
//! * `stall_blend` applies the same cache boost to the compute rate of
//!   bandwidth-sensitive codes: `(1-b) + b/boost` for sensitivity `b`.
//! * Communication uses the Hockney model `α + m/β` with tree collectives
//!   (`2⌈log₂ nodes⌉` stages) and surface-to-volume halo scaling.

use crate::machine::MachineProfile;
use crate::work::WorkProfile;

/// Which resource dominated the run — exposed to the smart-sampling
/// "infrastructure bottleneck" optimizer (paper §III-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Floating-point throughput bound.
    Compute,
    /// Memory-bandwidth bound.
    MemoryBandwidth,
    /// Interconnect bound.
    Network,
    /// Dominated by non-parallel work.
    Serial,
}

impl Bottleneck {
    /// Short label used in metrics/logs.
    pub fn label(&self) -> &'static str {
        match self {
            Bottleneck::Compute => "compute",
            Bottleneck::MemoryBandwidth => "membw",
            Bottleneck::Network => "network",
            Bottleneck::Serial => "serial",
        }
    }
}

/// Detailed engine result (noise-free; the caller applies noise).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutput {
    /// Total wall-clock seconds (noise-free).
    pub(crate) wall_secs: f64,
    /// Seconds per step after warm-up — the quantity partial-execution
    /// predictors (Yang et al. \[6]; Brunetta & Borin \[13]) extrapolate.
    pub(crate) per_step_secs: f64,
    /// Compute portion of one step.
    pub(crate) comp_secs: f64,
    /// Communication portion of one step.
    pub(crate) comm_secs: f64,
    /// Serial (non-step) seconds.
    pub(crate) serial_secs: f64,
    /// Cache bandwidth boost factor applied (1 = none).
    pub(crate) cache_boost: f64,
    /// Dominant resource.
    pub bottleneck: Bottleneck,
    /// Approximate utilizations in [0, 1] — the "infrastructure metrics"
    /// the paper's monitoring hint would collect.
    pub cpu_utilization: f64,
    /// Memory-bandwidth utilization estimate.
    pub membw_utilization: f64,
    /// Network utilization estimate.
    pub network_utilization: f64,
}

/// Maximum bandwidth boost when the working set fully fits in L3.
const CACHE_BOOST_MAX: f64 = 2.8;
/// Load-imbalance growth per log₂(ranks).
const IMBALANCE_PER_LOG2: f64 = 0.012;
/// Maximum slowdown from memory pressure (resident set near RAM capacity).
const MEM_PRESSURE_MAX: f64 = 0.32;

/// Memory-pressure slowdown: ≥1, rising steeply once the per-node resident
/// set (with allocator overhead) exceeds ~60% of node RAM. This is the
/// paging/fragmentation/NUMA-imbalance tax that makes barely-fitting runs
/// disproportionately slow — and is why the paper's 864M-atom LAMMPS front
/// starts at 3 nodes even though 2 nodes technically fit.
pub(crate) fn memory_pressure(working_set_per_node: f64, memory_bytes: f64) -> f64 {
    if working_set_per_node <= 0.0 || memory_bytes <= 0.0 {
        return 1.0;
    }
    let utilization = working_set_per_node * 1.2 / memory_bytes;
    let x = (utilization - 0.60) * 25.0;
    let sigmoid = 1.0 / (1.0 + (-x).exp());
    1.0 + MEM_PRESSURE_MAX * sigmoid
}

/// Smooth cache boost: ≥1, approaching `CACHE_BOOST_MAX` as the per-node
/// working set drops below the L3 capacity.
pub(crate) fn cache_boost(working_set_per_node: f64, l3_bytes: f64) -> f64 {
    if working_set_per_node <= 0.0 || l3_bytes <= 0.0 {
        return 1.0;
    }
    // Capacity ratio > 1 means the working set fits with room to spare.
    let ratio = l3_bytes / working_set_per_node;
    // Logistic transition centred where L3 ≈ 80% of the working set.
    // The slope is steep: a working set 2–3× larger than L3 sees almost no
    // boost (calibrated against the paper's LAMMPS cost column, which rises
    // monotonically with node count).
    let x = (ratio - 0.8) * 10.0;
    let sigmoid = 1.0 / (1.0 + (-x).exp());
    1.0 + (CACHE_BOOST_MAX - 1.0) * sigmoid
}

/// Executes a work profile on `nodes` × `ppn` ranks of `machine`.
///
/// The caller is responsible for validating layout and memory (see
/// [`crate::apps::AppRegistry::run`]); this function assumes a sane layout.
pub(crate) fn execute_profile(
    work: &WorkProfile,
    machine: &MachineProfile,
    nodes: u32,
    ppn: u32,
) -> EngineOutput {
    let ranks = (nodes as u64) * (ppn as u64);
    let eff = (work.arch_efficiency)(machine.arch) * machine.clock_factor();
    let core_rate = machine.flops_per_core * eff;

    // -- Cache model ------------------------------------------------------
    let ws_per_node = work.working_set_bytes / nodes as f64;
    let boost = cache_boost(ws_per_node, machine.l3_bytes);
    let b = work.bandwidth_sensitivity.clamp(0.0, 1.0);
    // Bandwidth-sensitive compute stalls less when in cache.
    let stall_blend = (1.0 - b) + b / boost;

    // -- Compute (Amdahl + roofline) ---------------------------------------
    let sf = work.serial_fraction.clamp(0.0, 1.0);
    let flop_time = if work.flops_per_step > 0.0 {
        let serial = work.flops_per_step * sf / core_rate;
        let parallel = work.flops_per_step * (1.0 - sf) / (core_rate * ranks as f64);
        (serial + parallel) * stall_blend
    } else {
        0.0
    };
    let agg_bw = machine.mem_bw_bytes * nodes as f64 * boost;
    let mem_time = if work.bytes_per_step > 0.0 {
        work.bytes_per_step * b / agg_bw
    } else {
        0.0
    };
    let imbalance = 1.0 + IMBALANCE_PER_LOG2 * (ranks as f64).log2().max(0.0);
    let pressure = memory_pressure(ws_per_node, machine.memory_gib * 1024.0 * 1024.0 * 1024.0);
    let comp = flop_time.max(mem_time) * imbalance * pressure;

    // -- Communication (inter-node only) -----------------------------------
    let alpha = machine.interconnect.latency_secs();
    let beta = machine.interconnect.bandwidth_bytes_per_sec();
    let mut halo_time = 0.0;
    let mut coll_time = 0.0;
    if nodes > 1 {
        if let Some(h) = &work.halo {
            // Surface-to-volume: per-rank halo shrinks as ranks^((d-1)/d).
            let d = h.decomp_dims.max(1) as f64;
            let shrink = (ranks as f64).powf((d - 1.0) / d);
            let bytes_per_rank = h.bytes_per_rank / shrink.max(1.0);
            // Ranks on one node share the NIC; only off-node traffic counts.
            // With ppn ranks per node, roughly all halo surface crosses the
            // NIC once domains are node-sized or smaller.
            let bytes_per_node = bytes_per_rank * ppn as f64;
            halo_time = h.messages_per_rank as f64 * alpha + bytes_per_node / beta;
        }
        if let Some(c) = &work.collective {
            let stages = 2.0 * (nodes as f64).log2().ceil().max(1.0);
            coll_time = c.count_per_step * stages * (alpha + c.bytes / beta);
        }
    }
    let comm = halo_time + coll_time;

    // -- Totals -------------------------------------------------------------
    let per_step = comp + comm;
    let wall = work.serial_secs + work.steps as f64 * per_step;

    // -- Bottleneck & utilizations -------------------------------------------
    let serial_step_equiv = work.serial_secs / work.steps.max(1) as f64;
    let contributions = [
        (Bottleneck::Compute, flop_time * imbalance * pressure),
        (Bottleneck::MemoryBandwidth, mem_time * imbalance * pressure),
        (Bottleneck::Network, comm),
        (Bottleneck::Serial, serial_step_equiv),
    ];
    let bottleneck = contributions
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty")
        .0;

    let cpu_utilization = if per_step > 0.0 {
        (flop_time * imbalance * pressure / per_step).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let membw_utilization = if per_step > 0.0 && agg_bw > 0.0 {
        (work.bytes_per_step / per_step / agg_bw).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let network_utilization = if per_step > 0.0 {
        (comm / per_step).clamp(0.0, 1.0)
    } else {
        0.0
    };

    EngineOutput {
        wall_secs: wall,
        per_step_secs: per_step,
        comp_secs: comp,
        comm_secs: comm,
        serial_secs: work.serial_secs,
        cache_boost: boost,
        bottleneck,
        cpu_utilization,
        membw_utilization,
        network_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{CollectiveSpec, HaloSpec};
    use cloudsim::SkuCatalog;

    fn machine(name: &str) -> MachineProfile {
        MachineProfile::from_sku(SkuCatalog::azure_hpc().get(name).unwrap())
    }

    fn flop_profile() -> WorkProfile {
        WorkProfile::compute_only(100, 1e12)
    }

    #[test]
    fn pure_compute_scales_linearly() {
        let m = machine("HB120rs_v3");
        let w = flop_profile();
        let t1 = execute_profile(&w, &m, 1, 120).wall_secs;
        let t4 = execute_profile(&w, &m, 4, 120).wall_secs;
        // Within the imbalance factor, 4 nodes ≈ 4× faster.
        let speedup = t1 / t4;
        assert!(speedup > 3.6 && speedup < 4.2, "speedup {speedup}");
    }

    #[test]
    fn amdahl_limits_scaling() {
        let m = machine("HB120rs_v3");
        let mut w = flop_profile();
        w.serial_fraction = 0.01;
        let t1 = execute_profile(&w, &m, 1, 120).wall_secs;
        let t16 = execute_profile(&w, &m, 16, 120).wall_secs;
        let speedup = t1 / t16;
        // 1% serial work: the 120-rank baseline already spends ~55% of each
        // step in the serial part, so 16× more nodes yield well under 2.5×.
        assert!(speedup < 2.5, "speedup {speedup}");
        assert!(speedup > 1.3, "speedup {speedup}");
    }

    #[test]
    fn cache_boost_shape() {
        let l3 = 1.5e9;
        assert!(
            (cache_boost(100.0e9, l3) - 1.0).abs() < 0.05,
            "far out of cache"
        );
        assert!(cache_boost(0.1e9, l3) > 2.5, "deep in cache");
        let mid = cache_boost(1.8e9, l3);
        assert!(mid > 1.0 && mid < 2.8, "transition {mid}");
        assert_eq!(cache_boost(0.0, l3), 1.0);
    }

    #[test]
    fn superlinear_speedup_when_ws_drops_into_cache() {
        let m = machine("HB120rs_v3");
        let mut w = flop_profile();
        // 6 GiB working set: 1 node → far over L3; 8 nodes → 0.75 GiB/node,
        // comfortably inside the 1.5 GiB V-Cache.
        w.working_set_bytes = 6.0e9;
        w.bandwidth_sensitivity = 0.5;
        let t1 = execute_profile(&w, &m, 1, 120).wall_secs;
        let t8 = execute_profile(&w, &m, 8, 120).wall_secs;
        let speedup = t1 / t8;
        let efficiency = speedup / 8.0;
        assert!(
            efficiency > 1.0,
            "efficiency {efficiency} must be superlinear"
        );
    }

    #[test]
    fn no_superlinear_without_vcache() {
        // HC44rs has only 66 MiB L3 — the same profile stays out of cache.
        let m = machine("HC44rs");
        let mut w = flop_profile();
        w.working_set_bytes = 6.0e9;
        w.bandwidth_sensitivity = 0.5;
        let t1 = execute_profile(&w, &m, 1, 44).wall_secs;
        let t8 = execute_profile(&w, &m, 8, 44).wall_secs;
        let efficiency = t1 / t8 / 8.0;
        assert!(efficiency <= 1.0, "efficiency {efficiency}");
    }

    #[test]
    fn collectives_penalize_ethernet() {
        let mut w = flop_profile();
        w.collective = Some(CollectiveSpec {
            bytes: 8.0,
            count_per_step: 300.0,
        });
        let ib = machine("HB120rs_v2");
        let eth = machine("F72s_v2");
        let t_ib = execute_profile(&w, &ib, 8, 1);
        let t_eth = execute_profile(&w, &eth, 8, 1);
        assert!(t_eth.comm_secs > 10.0 * t_ib.comm_secs);
    }

    #[test]
    fn single_node_has_no_comm() {
        let mut w = flop_profile();
        w.halo = Some(HaloSpec {
            bytes_per_rank: 1e6,
            messages_per_rank: 6,
            decomp_dims: 3,
        });
        w.collective = Some(CollectiveSpec {
            bytes: 64.0,
            count_per_step: 10.0,
        });
        let m = machine("HB120rs_v3");
        let out = execute_profile(&w, &m, 1, 120);
        assert_eq!(out.comm_secs, 0.0);
        assert_eq!(out.network_utilization, 0.0);
    }

    #[test]
    fn halo_shrinks_with_surface_to_volume() {
        let mut w = flop_profile();
        w.halo = Some(HaloSpec {
            bytes_per_rank: 1e9,
            messages_per_rank: 6,
            decomp_dims: 3,
        });
        let m = machine("HB120rs_v3");
        let c2 = execute_profile(&w, &m, 2, 120).comm_secs;
        let c16 = execute_profile(&w, &m, 16, 120).comm_secs;
        assert!(c16 < c2, "halo per node must shrink as ranks grow");
    }

    #[test]
    fn bottleneck_classification() {
        let m = machine("HB120rs_v3");
        // Pure flops ⇒ compute-bound.
        assert_eq!(
            execute_profile(&flop_profile(), &m, 1, 120).bottleneck,
            Bottleneck::Compute
        );
        // Huge streamed bytes ⇒ memory-bound.
        let mut w = flop_profile();
        w.flops_per_step = 1e9;
        w.bytes_per_step = 1e12;
        w.working_set_bytes = 400e9;
        w.bandwidth_sensitivity = 1.0;
        assert_eq!(
            execute_profile(&w, &m, 1, 120).bottleneck,
            Bottleneck::MemoryBandwidth
        );
        // Latency-dominated collectives on Ethernet ⇒ network-bound.
        let mut w = WorkProfile::compute_only(100, 1e6);
        w.collective = Some(CollectiveSpec {
            bytes: 8.0,
            count_per_step: 1000.0,
        });
        let eth = machine("F72s_v2");
        assert_eq!(
            execute_profile(&w, &eth, 8, 36).bottleneck,
            Bottleneck::Network
        );
        // Serial-dominated.
        let mut w = WorkProfile::compute_only(1, 1e6);
        w.serial_secs = 100.0;
        assert_eq!(
            execute_profile(&w, &m, 4, 120).bottleneck,
            Bottleneck::Serial
        );
    }

    #[test]
    fn utilizations_in_unit_range() {
        let m = machine("HB60rs");
        let mut w = flop_profile();
        w.bytes_per_step = 1e10;
        w.working_set_bytes = 1e10;
        w.bandwidth_sensitivity = 0.7;
        w.collective = Some(CollectiveSpec {
            bytes: 1024.0,
            count_per_step: 50.0,
        });
        for nodes in [1, 2, 8] {
            let out = execute_profile(&w, &m, nodes, 60);
            for u in [
                out.cpu_utilization,
                out.membw_utilization,
                out.network_utilization,
            ] {
                assert!((0.0..=1.0).contains(&u), "utilization {u}");
            }
        }
    }

    #[test]
    fn per_step_consistent_with_wall() {
        let m = machine("HB120rs_v3");
        let mut w = flop_profile();
        w.serial_secs = 7.0;
        let out = execute_profile(&w, &m, 2, 120);
        let expected = 7.0 + 100.0 * out.per_step_secs;
        assert!((out.wall_secs - expected).abs() < 1e-9);
    }
}
