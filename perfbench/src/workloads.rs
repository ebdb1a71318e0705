//! Seeded workload generator.
//!
//! Every input the program receives — the `UserConfig` grids, the daemon's
//! request sequence and the fault plan — is derived here from the
//! benchmark's `--seed`, so the same seed always yields the same inputs.
//! Meshes are drawn from the range the bundled OpenFOAM examples span
//! (`40 12 16` up to `80 24 24`), so no scenario runs out of memory and
//! every scenario of a fault-free grid completes.

use cloudsim::{FaultMode, FaultPlan, Operation, RegionFault};
use hpcadvisor_core::UserConfig;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSweep,
    WarmRerun,
    ChaosSweep,
    ServeTenants,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdSweep,
        Workload::WarmRerun,
        Workload::ChaosSweep,
        Workload::ServeTenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::WarmRerun => "warm_rerun",
            Workload::ChaosSweep => "chaos_sweep",
            Workload::ServeTenants => "serve_tenants",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Inputs are either full size or about 1% of it (`--smoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Mesh dimension ranges, inclusive: the bundled examples' span.
pub const MESH_X: (u32, u32) = (40, 80);
pub const MESH_Y: (u32, u32) = (12, 24);
pub const MESH_Z: (u32, u32) = (16, 24);

/// Node counts every sweep and request covers.
pub const NNODES: [u32; 4] = [1, 2, 3, 4];

/// Home region of every grid, and the region an outage takes down in the
/// chaos sweep.
pub const PRIMARY_REGION: &str = "southcentralus";
/// Where the chaos sweep's placement fails over to.
pub const FALLBACK_REGION: &str = "westeurope";

/// The VM type every daemon request targets.
pub const SERVE_SKU: &str = "Standard_HB120rs_v3";
/// Meshes per daemon request: 6 meshes × 4 node counts = 24 scenarios.
/// An assumption, between the 18- and 36-scenario requests of the
/// repository's daemon drill (BENCHMARK.md, "Where the traffic comes
/// from").
pub const SERVE_WINDOW: usize = 6;
/// Share of a request's meshes that no earlier request used. The rest
/// repeat earlier meshes, so about 70% of scenarios hit the shared cache.
/// An assumption: the repository's daemon drill sees 60% sequential hits,
/// and no record of real daemon traffic exists.
pub const SERVE_NEW_SHARE: f64 = 0.3;

/// A splitmix64 stream: small, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent streams per purpose, so adding draws to one workload
    /// never shifts another's inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

const STREAM_SWEEP: u64 = 1;
const STREAM_CHAOS: u64 = 2;
const STREAM_SERVE: u64 = 3;

fn span((lo, hi): (u32, u32)) -> usize {
    (hi - lo + 1) as usize
}

/// Number of distinct meshes in the bundled range.
pub fn mesh_space() -> usize {
    span(MESH_X) * span(MESH_Y) * span(MESH_Z)
}

/// The `i`-th mesh of the range, as the "X Y Z" input OpenFOAM takes.
pub fn mesh(i: usize) -> String {
    let z = i % span(MESH_Z);
    let y = (i / span(MESH_Z)) % span(MESH_Y);
    let x = i / (span(MESH_Z) * span(MESH_Y));
    format!(
        "{} {} {}",
        MESH_X.0 as usize + x,
        MESH_Y.0 as usize + y,
        MESH_Z.0 as usize + z
    )
}

/// Draws meshes without repetition: a lazily evaluated Fisher–Yates
/// shuffle of the whole range.
struct MeshDraw {
    rng: Rng,
    perm: Vec<usize>,
    next: usize,
}

impl MeshDraw {
    /// Draws from the whole mesh range.
    fn new(rng: Rng) -> MeshDraw {
        MeshDraw::over(rng, (0..mesh_space()).collect())
    }

    /// Draws from the given mesh indices only.
    fn over(rng: Rng, perm: Vec<usize>) -> MeshDraw {
        MeshDraw { rng, perm, next: 0 }
    }

    /// The next unused mesh index, or `None` once the range is exhausted.
    fn fresh(&mut self) -> Option<usize> {
        if self.next == self.perm.len() {
            return None;
        }
        let pick = self.next + self.rng.below(self.perm.len() - self.next);
        self.perm.swap(self.next, pick);
        self.next += 1;
        Some(self.perm[self.next - 1])
    }
}

fn distinct_meshes(seed: u64, stream: u64, n: usize) -> Vec<String> {
    let mut draw = MeshDraw::new(Rng::new(seed, stream));
    (0..n)
        .map(|_| mesh(draw.fresh().expect("mesh range holds the grid")))
        .collect()
}

fn openfoam_grid(skus: &[&str], meshes: Vec<String>) -> UserConfig {
    let mut config = UserConfig::example_openfoam();
    config.skus = skus.iter().map(|s| s.to_string()).collect();
    config.nnodes = NNODES.to_vec();
    config.region = PRIMARY_REGION.to_string();
    config.appinputs = vec![("mesh".into(), meshes)];
    config
}

const SWEEP_SKUS: [&str; 3] = [
    "Standard_HC44rs",
    "Standard_HB120rs_v2",
    "Standard_HB120rs_v3",
];

/// The cold and warm sweeps' grid: 3 SKUs × 4 node counts × 840 meshes =
/// 10,080 scenarios (smoke: 8 meshes, 96 scenarios).
pub fn sweep_config(seed: u64, size: Size) -> UserConfig {
    let meshes = match size {
        Size::Full => 840,
        Size::Smoke => 8,
    };
    openfoam_grid(&SWEEP_SKUS, distinct_meshes(seed, STREAM_SWEEP, meshes))
}

/// The chaos sweep's grid: 3 SKUs × 4 node counts × 240 meshes × 2
/// regions = 5,760 scenarios (smoke: 2 meshes, 48 scenarios).
pub fn chaos_config(seed: u64, size: Size) -> UserConfig {
    let meshes = match size {
        Size::Full => 240,
        Size::Smoke => 2,
    };
    let mut config = openfoam_grid(&SWEEP_SKUS, distinct_meshes(seed, STREAM_CHAOS, meshes));
    config.regions = vec![PRIMARY_REGION.to_string(), FALLBACK_REGION.to_string()];
    config
}

/// The chaos sweep's faults: steady spot-eviction pressure, transient
/// allocation failures, and an outage of the primary region that lasts
/// the whole run. Probabilistic rolls are seeded by the benchmark seed.
/// The pressure and allocation rates are those of
/// `tests/work_stealing.rs`'s pressure plan; the outage is the one
/// EXPERIMENTS.md's multi-region entry and `tests/region_placement.rs`
/// inject.
pub fn chaos_faults(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .seed(seed)
        .evict_pressure(0.25)
        .fail_probabilistic(Operation::AllocateNodes, 0.2)
        .fail_region_named(PRIMARY_REGION, RegionFault::Outage, FaultMode::Always)
}

/// One daemon request: the tenant it is accounted against and its grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    pub tenant: String,
    pub meshes: Vec<String>,
}

impl ServeRequest {
    /// The request's configuration: one SKU × 4 node counts × its meshes.
    pub fn config(&self) -> UserConfig {
        openfoam_grid(&[SERVE_SKU], self.meshes.clone())
    }

    /// Scenarios the request's grid expands to.
    pub fn scenarios(&self) -> usize {
        self.meshes.len() * NNODES.len()
    }
}

/// Requests per daemon round, split evenly over the two clients
/// (smoke: 5 each).
pub fn serve_round_len(size: Size) -> usize {
    match size {
        Size::Full => 2 * 150,
        Size::Smoke => 2 * 5,
    }
}

/// The request sequence of one daemon round. Request `i` belongs to
/// client `i % 2`, which is also its tenant. Each of a request's mesh
/// slots is either a mesh no earlier request used (probability
/// [`SERVE_NEW_SHARE`]) or a repeat of one an earlier request used in the
/// same slot.
///
/// Slots own disjoint parts of the mesh range, so a mesh always lands at
/// the same position of its grid and its scenarios always get the same
/// ids. The program's result for a scenario depends on its id (the task
/// directory is among the inputs the app model seeds its noise with), but
/// the cache key does not; a mesh that moved between positions would be
/// served from the cache with another position's numbers.
pub fn serve_requests(seed: u64, count: usize) -> Vec<ServeRequest> {
    let mut rng = Rng::new(seed, STREAM_SERVE);
    let mut slots: Vec<(MeshDraw, Vec<usize>)> = (0..SERVE_WINDOW)
        .map(|s| {
            let own = (s..mesh_space()).step_by(SERVE_WINDOW).collect();
            let draw = MeshDraw::over(Rng::new(seed, STREAM_SERVE + 1 + s as u64), own);
            (draw, Vec::new())
        })
        .collect();
    (0..count)
        .map(|i| {
            let meshes = slots
                .iter_mut()
                .map(|(draw, used)| {
                    let pick = if used.is_empty() || rng.chance(SERVE_NEW_SHARE) {
                        draw.fresh()
                    } else {
                        None
                    };
                    match pick {
                        Some(m) => {
                            used.push(m);
                            mesh(m)
                        }
                        None => mesh(used[rng.below(used.len())]),
                    }
                })
                .collect();
            ServeRequest {
                tenant: format!("tenant-{}", i % 2),
                meshes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Share of scenarios in `requests` that a shared cache already holds when
    /// the requests run one after another.
    fn sequential_hit_ratio(requests: &[ServeRequest]) -> f64 {
        let mut seen: HashSet<&str> = HashSet::new();
        let (mut hits, mut total) = (0usize, 0usize);
        for r in requests {
            for m in &r.meshes {
                total += 1;
                if !seen.insert(m) {
                    hits += 1;
                }
            }
        }
        hits as f64 / total.max(1) as f64
    }

    fn dims(mesh: &str) -> Vec<u32> {
        mesh.split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect()
    }

    fn within(v: u32, (lo, hi): (u32, u32)) -> bool {
        (lo..=hi).contains(&v)
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            sweep_config(7, Size::Full).to_yaml(),
            sweep_config(7, Size::Full).to_yaml()
        );
        assert_eq!(
            chaos_config(7, Size::Full).to_yaml(),
            chaos_config(7, Size::Full).to_yaml()
        );
        assert_eq!(serve_requests(7, 300), serve_requests(7, 300));
        assert_eq!(fault_rolls(7), fault_rolls(7));
    }

    /// The chaos plan's decisions for the first invocations of each
    /// faulted operation.
    fn fault_rolls(seed: u64) -> Vec<bool> {
        let plan = chaos_faults(seed);
        let mut rolls = Vec::new();
        for attempt in 0..200 {
            for (op, scope) in [
                (Operation::Eviction, "pool-Standard_HB120rs_v3"),
                (Operation::AllocateNodes, "Standard_HC44rs"),
                (Operation::RegionOutage, PRIMARY_REGION),
                (Operation::RegionOutage, FALLBACK_REGION),
            ] {
                rolls.push(plan.decide(op, scope, attempt).is_some());
            }
        }
        rolls
    }

    #[test]
    fn chaos_faults_follow_the_seed() {
        let rolls = fault_rolls(7);
        assert_ne!(rolls, fault_rolls(11));
        // The primary region is always down, the fallback never.
        assert!(rolls.iter().skip(2).step_by(4).all(|&r| r));
        assert!(rolls.iter().skip(3).step_by(4).all(|&r| !r));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(
            sweep_config(7, Size::Full).appinputs,
            sweep_config(11, Size::Full).appinputs
        );
        assert_ne!(
            chaos_config(7, Size::Full).appinputs,
            chaos_config(11, Size::Full).appinputs
        );
        assert_ne!(serve_requests(7, 300), serve_requests(11, 300));
    }

    #[test]
    fn grids_have_the_stated_sizes() {
        let count = |c: &UserConfig| {
            c.skus.len() * c.nnodes.len() * c.appinputs[0].1.len() * c.regions.len().max(1)
        };
        assert_eq!(count(&sweep_config(7, Size::Full)), 10_080);
        assert_eq!(count(&chaos_config(7, Size::Full)), 5_760);
        assert_eq!(count(&sweep_config(7, Size::Smoke)), 96);
        assert_eq!(count(&chaos_config(7, Size::Smoke)), 48);
        for r in serve_requests(7, 50) {
            assert_eq!(count(&r.config()), 24);
            assert_eq!(r.scenarios(), 24);
        }
    }

    #[test]
    fn every_mesh_stays_in_the_bundled_range() {
        let mut meshes: Vec<String> = (0..mesh_space()).map(mesh).collect();
        meshes.extend(sweep_config(3, Size::Full).appinputs[0].1.clone());
        meshes.extend(chaos_config(3, Size::Full).appinputs[0].1.clone());
        for r in serve_requests(3, 300) {
            meshes.extend(r.meshes);
        }
        for m in &meshes {
            let d = dims(m);
            assert_eq!(d.len(), 3, "{m}");
            assert!(within(d[0], MESH_X), "{m}");
            assert!(within(d[1], MESH_Y), "{m}");
            assert!(within(d[2], MESH_Z), "{m}");
        }
        // Distinct within a grid, so no scenario is generated twice.
        for config in [sweep_config(3, Size::Full), chaos_config(3, Size::Full)] {
            let list = &config.appinputs[0].1;
            let set: HashSet<&String> = list.iter().collect();
            assert_eq!(set.len(), list.len());
        }
        for r in serve_requests(3, 300) {
            let set: HashSet<&String> = r.meshes.iter().collect();
            assert_eq!(set.len(), SERVE_WINDOW);
        }
    }

    #[test]
    fn serve_hit_ratio_is_about_seventy_percent() {
        for seed in [1, 7, 11, 12345] {
            for n in [serve_round_len(Size::Full), 1000] {
                let ratio = sequential_hit_ratio(&serve_requests(seed, n));
                assert!((0.6..=0.8).contains(&ratio), "seed {seed} n {n}: {ratio}");
            }
        }
    }

    #[test]
    fn serve_meshes_keep_their_position() {
        let mut slot_of: std::collections::HashMap<String, usize> = Default::default();
        for r in serve_requests(7, 1000) {
            for (slot, m) in r.meshes.iter().enumerate() {
                assert_eq!(*slot_of.entry(m.clone()).or_insert(slot), slot, "{m}");
            }
        }
    }

    #[test]
    fn requests_alternate_between_two_tenants() {
        let reqs = serve_requests(7, 4);
        let tenants: Vec<&str> = reqs.iter().map(|r| r.tenant.as_str()).collect();
        assert_eq!(tenants, ["tenant-0", "tenant-1", "tenant-0", "tenant-1"]);
    }
}
