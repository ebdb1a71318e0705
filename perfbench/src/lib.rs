//! The HPCAdvisor benchmark: four workloads that time the advisor as its
//! users see it (set-up, time to advice, scenario throughput, daemon
//! latency, memory) and, in a separate traced run, estimate where the
//! collect time goes layer by layer. The program is used as a library:
//! every timing is a span around a call into one of its public functions.
//! See `BENCHMARK.md` beside this crate for the metric and workload tables.

pub mod breakdown;
pub mod probes;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod workloads;

use report::Outcome;
use spans::Recorder;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Size, Workload};

/// Timed reps every run makes at least, however long they take.
pub const MIN_REPS: usize = 3;

/// The seed whose full-size outputs are pinned.
pub const PINNED_SEED: u64 = 7;

/// FNV-1a digests of the full-size outputs at [`PINNED_SEED`]: each sweep's
/// `Dataset::to_json()`, and for the daemon the standalone datasets of its
/// checked requests, concatenated in request order. The warm rerun pins
/// the cold sweep's digest: both collect the same grid.
const PINNED: [(Workload, u64); 4] = [
    (Workload::ColdSweep, 0xd241_d7db_9697_92ff),
    (Workload::WarmRerun, 0xd241_d7db_9697_92ff),
    (Workload::ChaosSweep, 0x439d_79ab_db0f_f32c),
    (Workload::ServeTenants, 0xa724_4547_2d53_3d0a),
];

/// Checks `digest` against the pinned value when the run is full size at
/// [`PINNED_SEED`].
pub fn check_pinned_digest(run: &Run, digest: u64, out: &mut Outcome) {
    if run.size != Size::Full || run.seed != PINNED_SEED {
        return;
    }
    if let Some((_, pinned)) = PINNED.iter().find(|(w, _)| *w == run.workload) {
        out.check(digest == *pinned, || {
            format!("output digest {digest:016x} differs from the pinned {pinned:016x}")
        });
    }
}

/// One benchmark run's settings.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed reps run, in seconds.
    pub seconds: f64,
    pub size: Size,
    /// Records spans and per-layer counts (the traced run).
    pub rec: Recorder,
    /// Scratch directory for stores, journals and daemon state.
    pub dir: PathBuf,
}

impl Run {
    pub fn trace(&self) -> bool {
        self.rec.enabled()
    }

    /// Runs `rep(index, timed)` once untimed as a warm-up, then as timed
    /// reps until `seconds` have passed and at least [`MIN_REPS`] ran.
    /// Returns the number of timed reps.
    pub fn reps(
        &self,
        mut rep: impl FnMut(u64, bool) -> Result<(), String>,
    ) -> Result<usize, String> {
        rep(0, false)?;
        let start = Instant::now();
        let mut n = 0;
        while n < MIN_REPS || start.elapsed().as_secs_f64() < self.seconds {
            n += 1;
            rep(n as u64, true)?;
        }
        Ok(n)
    }

    /// Runs the workload. An `Err` is a failure to run at all; failed
    /// checks land in the outcome's mismatches.
    pub fn execute(&self) -> Result<Outcome, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        match self.workload {
            Workload::ServeTenants => serve::run(self),
            _ => sweep::run(self),
        }
    }
}
