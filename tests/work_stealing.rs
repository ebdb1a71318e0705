//! The chunked work-stealing scheduler at scale: a hot-SKU-skew grid whose
//! hot SKU splits into multiple chunks must produce byte-identical
//! datasets, traces, and journals across 1/4/8 workers — including under
//! spot-eviction and fault pressure — and a run killed mid-steal must
//! resume from the journal to the uninterrupted result.

use cloudsim::{Capacity, FaultPlan, Operation};
use hpcadvisor_core::collect::CHUNK_SIZE;
use hpcadvisor_core::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 42;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcadvisor-steal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A grid big enough to chunk: 3 SKUs × 4 node counts × 12 mesh sizes =
/// 48 scenarios per SKU, above the 32-scenario chunk size. Mesh
/// dimensions stay in the bundled examples' range so scenarios complete.
fn wide_config() -> UserConfig {
    let mut config = UserConfig::example_openfoam();
    config.nnodes = vec![1, 2, 3, 4];
    config.appinputs = vec![(
        "mesh".into(),
        (52..=63).map(|x| format!("{x} 16 16")).collect(),
    )];
    config
}

/// A hot-SKU-skew subset: every scenario of the first SKU (48 — two
/// chunks) plus a 4-scenario tail of each remaining SKU. One SKU carries
/// ~86% of the work, the regime where per-SKU shards serialize.
fn hot_subset(session: &Session) -> Vec<u32> {
    let scenarios = session.scenarios();
    let hot = scenarios[0].sku.clone();
    assert!(
        scenarios.iter().filter(|s| s.sku == hot).count() > CHUNK_SIZE,
        "the hot SKU must not fit in one chunk"
    );
    let mut ids: Vec<u32> = scenarios
        .iter()
        .filter(|s| s.sku == hot)
        .map(|s| s.id)
        .collect();
    let mut cold: Vec<String> = scenarios
        .iter()
        .filter(|s| s.sku != hot)
        .map(|s| s.sku.clone())
        .collect();
    cold.dedup();
    for sku in cold {
        ids.extend(
            scenarios
                .iter()
                .filter(|s| s.sku == sku)
                .take(4)
                .map(|s| s.id),
        );
    }
    ids
}

#[test]
fn hot_sku_skew_is_byte_identical_across_worker_counts() {
    let dir = tempdir("skew");
    let run = |workers: usize| {
        let journal_path = dir.join(format!("journal-{workers}.jsonl"));
        let mut session = Session::builder(wide_config())
            .seed(SEED)
            .journal(RunJournal::open_fresh(&journal_path))
            .build()
            .unwrap();
        session.provider().lock().set_fault_plan(
            FaultPlan::none()
                .seed(13)
                .evict_pressure(0.25)
                .fail_probabilistic(Operation::AllocateNodes, 0.2),
        );
        let ids = hot_subset(&session);
        let total = ids.len();
        let report = session
            .collect_with(
                &CollectPlan::new()
                    .workers(workers)
                    .subset(ids)
                    .capacity(Capacity::Spot)
                    .trace(true),
            )
            .unwrap();
        assert_eq!(report.stats.executed, total, "{workers} workers");
        assert!(
            report.stats.completed > total / 2,
            "most of the grid completes under pressure: {:?}",
            report.stats
        );
        let trace = report.trace.as_ref().unwrap().to_jsonl();
        // The journal appends in completion order, which legitimately
        // varies with scheduling; its *contents* must not.
        let mut journal: Vec<String> = std::fs::read_to_string(&journal_path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        journal.sort();
        let outcomes: Vec<(u32, u32, u32)> = report
            .outcomes
            .iter()
            .map(|o| (o.scenario_id, o.attempts, o.evictions))
            .collect();
        let chunks_traced = report.trace_summary().unwrap().chunks;
        (
            report.dataset.to_json(),
            trace,
            journal,
            outcomes,
            report.stats.clone(),
            chunks_traced,
        )
    };

    let (dataset, trace, journal, outcomes, stats, chunks_traced) = run(1);
    assert!(
        stats.shards > 3,
        "the hot SKU split into multiple chunks: {stats:?}"
    );
    assert_eq!(
        chunks_traced, stats.shards,
        "trace summary reports the worker-invariant chunk count"
    );
    assert!(
        stats.evictions > 0,
        "spot pressure actually fired: {stats:?}"
    );
    for workers in [4usize, 8] {
        let (d, t, j, o, s, c) = run(workers);
        assert_eq!(d, dataset, "dataset differs with {workers} workers");
        assert_eq!(t, trace, "trace differs with {workers} workers");
        assert_eq!(j, journal, "journal differs with {workers} workers");
        assert_eq!(o, outcomes, "outcomes differ with {workers} workers");
        assert_eq!(s.shards, stats.shards, "chunk count is worker-invariant");
        assert_eq!(c, chunks_traced);
        assert_eq!(
            s.worker_loads.iter().map(|w| w.scenarios).sum::<usize>(),
            s.executed,
            "per-worker loads account for every scenario"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_mid_steal_matches_the_uninterrupted_run() {
    let dir = tempdir("resume");
    let journal_path = dir.join("run-journal.jsonl");
    let config = wide_config();
    // Total spot pressure with default escalation: every scenario is
    // evicted a fixed number of times then escalates to dedicated —
    // deterministic regardless of which chunk executes it.
    let pressure = || FaultPlan::none().seed(5).evict_pressure(1.0);

    // Uninterrupted reference run over the skewed subset.
    let (baseline, full_ids) = {
        let mut session = Session::create(config.clone(), SEED).unwrap();
        session.provider().lock().set_fault_plan(pressure());
        let ids = hot_subset(&session);
        let report = session
            .collect_with(
                &CollectPlan::new()
                    .workers(4)
                    .subset(ids.clone())
                    .capacity(Capacity::Spot),
            )
            .unwrap();
        assert_eq!(report.stats.executed, ids.len());
        assert_eq!(
            report.stats.completed,
            ids.len(),
            "escalation completes the grid: {:?}",
            report.stats
        );
        (report.dataset.to_json(), ids)
    };

    // "Crashed" run: the journal absorbs a prefix that ends mid-chunk of
    // the hot SKU (40 of 56 — past the 32-scenario chunk boundary), then
    // the process dies while the remainder is still being stolen.
    let mut session = Session::builder(config.clone())
        .seed(SEED)
        .journal(RunJournal::open_fresh(&journal_path))
        .build()
        .unwrap();
    session.provider().lock().set_fault_plan(pressure());
    let prefix: Vec<u32> = full_ids[..40].to_vec();
    let report = session
        .collect_with(
            &CollectPlan::new()
                .workers(4)
                .subset(prefix)
                .capacity(Capacity::Spot),
        )
        .unwrap();
    assert_eq!(report.stats.executed, 40);
    drop(session); // the crash

    // Resume: the journaled 40 replay without touching the cloud, the
    // remaining 16 execute, and the merged dataset is byte-identical.
    let mut resumed = Session::resume(config, SEED, RunJournal::open(&journal_path)).unwrap();
    resumed.provider().lock().set_fault_plan(pressure());
    let report = resumed
        .collect_with(
            &CollectPlan::new()
                .workers(8)
                .subset(full_ids)
                .capacity(Capacity::Spot),
        )
        .unwrap();
    assert_eq!(report.stats.journal_replayed, 40);
    assert_eq!(report.stats.executed, 16, "only the remainder executed");
    assert_eq!(report.dataset.to_json(), baseline);
    for outcome in &report.outcomes {
        if outcome.replayed {
            assert_eq!(outcome.attempts, 0, "replays never touch the cloud");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
