//! Shared helpers for the `experiments` and `bench_large` binaries: the
//! canonical seed and experiment configurations (the paper's workloads).
//!
//! Every table and figure of the paper maps to a section of the
//! `experiments` binary's output — see DESIGN.md's per-experiment index
//! and EXPERIMENTS.md for the recorded comparison.

use hpcadvisor_core::prelude::*;

/// Canonical experiment seed for all paper artifacts in this repo.
pub const SEED: u64 = 7;

/// E4–E8, E10: the paper's LAMMPS workload (LJ ×30, three IB SKUs,
/// 1…16 nodes — Figures 2–6 and Listing 4).
pub fn lammps_config() -> UserConfig {
    UserConfig::example_lammps()
}

/// E9: the paper's OpenFOAM workload (motorBike @ 8M cells — Listing 3).
pub fn openfoam_config() -> UserConfig {
    UserConfig::example_openfoam_motorbike()
}

/// E12: a larger sweep for the sampling ablation (2 inputs ⇒ 36 scenarios).
pub fn ablation_config() -> UserConfig {
    let mut c = UserConfig::example_lammps();
    c.appinputs = vec![("BOXFACTOR".into(), vec!["16".into(), "24".into()])];
    c
}

/// Formats a `(sku, points)` series table like the paper's figures report.
pub fn render_series(title: &str, series: &[hpcadvisor_core::metrics::SkuSeries]) -> String {
    let mut out = format!("{title}\n");
    for s in series {
        let pts: Vec<String> = s
            .points
            .iter()
            .map(|(x, y)| format!("({x:.3}, {y:.3})"))
            .collect();
        out.push_str(&format!("  {:<12} {}\n", s.sku, pts.join(" ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_configs_expand_as_expected() {
        assert_eq!(lammps_config().scenario_count(), 18);
        assert_eq!(openfoam_config().scenario_count(), 18);
        assert_eq!(ablation_config().scenario_count(), 36);
    }
}
