//! The parallel scenario executor: determinism and failure isolation.
//!
//! The paper's Algorithm 1 keeps one pool per VM type, so the per-SKU
//! slices of the Listing-1 grid are independent. `CollectPlan` shards the
//! grid by VM type and runs shards on worker threads; the merged dataset
//! must be byte-identical to the serial `Session::collect()` result, and a
//! quota failure in one shard must not abort sibling shards.

use hpcadvisor::prelude::*;

const SEED: u64 = 42;

/// Serial baseline: the legacy API on the full Listing-1 grid (3 SKUs ×
/// 6 node counts × 2 inputs = 36 scenarios).
fn serial_json() -> String {
    let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
    session.collect().unwrap().to_json()
}

#[test]
fn parallel_collect_is_byte_identical_to_serial() {
    let serial = serial_json();
    for workers in [1usize, 2, 8] {
        let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
        let report = session
            .collect_with(&CollectPlan::new().workers(workers))
            .unwrap();
        assert_eq!(report.stats.executed, 36);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(
            report.dataset.to_json(),
            serial,
            "dataset with {workers} workers differs from serial"
        );
        assert!(
            session
                .scenarios()
                .iter()
                .all(|s| s.status == ScenarioStatus::Completed),
            "statuses written back ({workers} workers)"
        );
    }
}

#[test]
fn parallel_collect_merges_shard_filesystems() {
    let files_after = |workers: usize| -> Vec<String> {
        let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
        if workers <= 1 {
            session.collect().unwrap();
        } else {
            session
                .collect_with(&CollectPlan::new().workers(workers))
                .unwrap();
        }
        let vfs = session.shared_vfs();
        let vfs = vfs.lock();
        vfs.list("/").iter().map(|p| p.to_string()).collect()
    };
    let serial = files_after(1);
    assert!(!serial.is_empty(), "serial run left artifacts");
    // Every shard's task directories landed back on the shared filesystem.
    assert_eq!(files_after(4), serial);
}

#[test]
fn quota_failure_in_one_shard_leaves_siblings_untouched() {
    // Unrestricted run for comparison of the surviving SKUs' rows.
    let unrestricted = {
        let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
        session.collect().unwrap()
    };

    let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
    // Cap the HC family below 2 nodes (2 × 44 = 88 cores): the HC shard's
    // 1-node scenarios fit, everything larger fails on quota.
    session.provider().lock().quota_mut().set_limit("HC", 50);
    let report = session
        .collect_with(&CollectPlan::new().workers(4))
        .unwrap();

    assert_eq!(report.stats.executed, 36, "every scenario was visited");
    assert_eq!(
        report.stats.failed, 0,
        "quota exhaustion degrades, not fails"
    );
    assert!(report.stats.skipped > 0, "quota skips surfaced");
    for outcome in &report.outcomes {
        if outcome.sku.contains("HC44rs") && outcome.nnodes > 1 {
            assert_eq!(outcome.status, ScenarioStatus::Skipped, "{outcome:?}");
            let reason = outcome.fail_reason.as_deref().unwrap_or("");
            assert!(reason.contains("quota"), "reason: {reason}");
        } else {
            assert_eq!(
                outcome.status,
                ScenarioStatus::Completed,
                "sibling shard affected: {outcome:?}"
            );
        }
    }
    // The surviving SKUs' rows match the unrestricted run exactly.
    for point in &report.dataset.points {
        if point.sku.contains("HC44rs") {
            continue;
        }
        let baseline = unrestricted
            .points
            .iter()
            .find(|p| p.scenario_id == point.scenario_id)
            .unwrap();
        assert_eq!(
            format!("{point:?}"),
            format!("{baseline:?}"),
            "row {} changed under sibling quota pressure",
            point.scenario_id
        );
    }
}

#[test]
fn spot_evictions_replay_identically_across_worker_counts() {
    // A seeded spot sweep under real eviction pressure: every worker count
    // must see the same evictions (the roll is keyed by pool name, not by
    // scheduling order) and requeue/escalate its way to a 100% complete,
    // byte-identical dataset.
    let run = |workers: usize| {
        let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
        session
            .provider()
            .lock()
            .set_fault_plan(cloudsim::FaultPlan::none().seed(13).evict_pressure(0.35));
        let report = session
            .collect_with(&CollectPlan::new().workers(workers).capacity(Capacity::Spot))
            .unwrap();
        let per_scenario: Vec<(u32, u32, u32)> = report
            .outcomes
            .iter()
            .map(|o| (o.scenario_id, o.attempts, o.evictions))
            .collect();
        (report, per_scenario)
    };
    let (serial, serial_outcomes) = run(1);
    assert_eq!(
        serial.stats.completed, 36,
        "the sweep completes under pressure: {:?}",
        serial.stats
    );
    assert_eq!(serial.stats.failed, 0);
    assert!(
        serial.stats.evictions > 0,
        "a 35% eviction rate actually fired: {:?}",
        serial.stats
    );
    for workers in [4usize, 8] {
        let (parallel, parallel_outcomes) = run(workers);
        assert_eq!(
            parallel.dataset.to_json(),
            serial.dataset.to_json(),
            "spot dataset with {workers} workers differs from serial"
        );
        assert_eq!(
            parallel_outcomes, serial_outcomes,
            "per-scenario attempts/evictions differ under {workers} workers"
        );
        assert_eq!(parallel.stats.evictions, serial.stats.evictions);
    }
    // Spot rows carry the capacity dimension and their eviction counts.
    assert!(serial
        .dataset
        .points
        .iter()
        .all(|p| p.capacity == Capacity::Spot));
    assert!(serial
        .dataset
        .points
        .iter()
        .any(|p| p.metrics.iter().any(|(k, _)| k == "EVICTIONS")));
}

#[test]
fn report_carries_billing_and_stats() {
    let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
    let report = session
        .collect_with(&CollectPlan::new().workers(4))
        .unwrap();
    assert_eq!(report.stats.shards, 3, "one shard per SKU");
    assert!(report.stats.workers >= 2 && report.stats.workers <= 4);
    assert!(report.stats.wall_secs >= 0.0);
    // One billing summary per SKU pool, totalling the session's spend.
    assert_eq!(report.billing.len(), 3);
    let billed: f64 = report.billing.iter().map(|b| b.cost).sum();
    assert!((billed - session.total_cloud_cost()).abs() < 1e-9);
    let text = report.render_text();
    assert!(text.contains("collected 36 scenarios: 36 completed, 0 failed"));
    assert!(text.contains("pool "));
}
