//! Work profiles: what an application run *is*, independent of hardware.
//!
//! Each per-app model reduces its input parameters to one of these; the
//! execution engine then prices the profile on a concrete machine/layout.

/// A nearest-neighbour (halo) exchange per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HaloSpec {
    /// Bytes exchanged per rank per step at a *reference* decomposition of
    /// one rank owning the whole domain; the engine shrinks this with
    /// surface-to-volume scaling as ranks grow.
    pub(crate) bytes_per_rank: f64,
    /// Messages per rank per step (e.g. 6 for a 3-D stencil).
    pub(crate) messages_per_rank: u32,
    /// Dimensionality of the domain decomposition (1, 2 or 3) — controls
    /// the surface-to-volume exponent `(d-1)/d`.
    pub(crate) decomp_dims: u32,
}

/// A collective (modelled as tree all-reduce) per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CollectiveSpec {
    /// Payload bytes per collective.
    pub(crate) bytes: f64,
    /// Collectives per step (e.g. inner CG iterations × reductions).
    pub(crate) count_per_step: f64,
}

/// Hardware-independent description of an application run.
#[derive(Debug, Clone)]
pub struct WorkProfile {
    /// Number of time steps / iterations after warm-up.
    pub(crate) steps: u64,
    /// Floating-point work per step, FLOPs (total across the problem).
    pub(crate) flops_per_step: f64,
    /// Memory traffic per step, bytes (total streamed).
    pub(crate) bytes_per_step: f64,
    /// Resident working set, bytes (total). Drives the cache model and the
    /// out-of-memory check.
    pub(crate) working_set_bytes: f64,
    /// Non-parallelizable time per run, seconds (startup, I/O, warm-up).
    pub(crate) serial_secs: f64,
    /// Fraction of per-step work that does not parallelize (Amdahl).
    pub(crate) serial_fraction: f64,
    /// Optional halo exchange.
    pub(crate) halo: Option<HaloSpec>,
    /// Optional collective.
    pub(crate) collective: Option<CollectiveSpec>,
    /// Per-app efficiency on each arch relative to nominal (1.0 = nominal);
    /// multiplies sustained FLOP rate. Lets e.g. AVX-512-friendly codes
    /// favour Intel parts.
    pub(crate) arch_efficiency: fn(cloudsim::CpuArch) -> f64,
    /// Sensitivity of this app to memory bandwidth vs. pure FLOPs: 0 ⇒
    /// compute-bound, 1 ⇒ the roofline max applies fully.
    pub(crate) bandwidth_sensitivity: f64,
}

/// Default arch efficiency: nominal on everything.
pub(crate) fn flat_arch(_: cloudsim::CpuArch) -> f64 {
    1.0
}

impl WorkProfile {
    /// A minimal compute-only profile, useful in tests.
    #[cfg(test)]
    pub(crate) fn compute_only(steps: u64, flops_per_step: f64) -> Self {
        WorkProfile {
            steps,
            flops_per_step,
            bytes_per_step: 0.0,
            working_set_bytes: 0.0,
            serial_secs: 0.0,
            serial_fraction: 0.0,
            halo: None,
            collective: None,
            arch_efficiency: flat_arch,
            bandwidth_sensitivity: 0.0,
        }
    }

    /// Required memory in GiB (working set plus 20% overhead).
    pub(crate) fn required_memory_gib(&self) -> f64 {
        self.working_set_bytes * 1.2 / (1024.0 * 1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_only_profile() {
        let w = WorkProfile::compute_only(10, 1e12);
        assert_eq!((w.steps, w.flops_per_step), (10, 1e12));
        assert_eq!(w.required_memory_gib(), 0.0);
        assert!(w.halo.is_none() && w.collective.is_none());
    }

    #[test]
    fn memory_requirement_includes_overhead() {
        let mut w = WorkProfile::compute_only(1, 1.0);
        w.working_set_bytes = 10.0 * 1024.0 * 1024.0 * 1024.0;
        assert!((w.required_memory_gib() - 12.0).abs() < 1e-9);
    }
}
