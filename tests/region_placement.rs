//! Multi-region placement end to end: a region outage mid-grid fails over
//! deterministically (byte-identical under any worker count), a killed run
//! resumes to the same placements, an abandoned region is never billed,
//! and when every candidate region is down the grid degrades to journaled
//! SLA skips instead of failures.

use cloudsim::{FaultMode, FaultPlan, RegionFault};
use hpcadvisor::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 42;
const PRIMARY: &str = "southcentralus";
const FALLBACK: &str = "westeurope";

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcadvisor-region-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A two-region grid: every `(SKU, nnodes)` point is pinned once to the
/// primary region and once to the fallback, in failover order.
fn multi_region_config() -> UserConfig {
    UserConfig::from_yaml(&format!(
        r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v3
rgprefix: regiontest
appsetupurl: https://example.com/scripts/lammps.sh
nnodes: [1, 2, 4]
appname: lammps
region: {PRIMARY}
regions:
- {PRIMARY}
- {FALLBACK}
ppr: 100
appinputs:
  BOXFACTOR: "8"
"#
    ))
    .unwrap()
}

/// The chaos plan: the primary region's control plane rejects every
/// allocation; every other region stays healthy.
fn primary_outage() -> FaultPlan {
    FaultPlan::none().fail_region_named(PRIMARY, RegionFault::Outage, FaultMode::Always)
}

#[test]
fn primary_outage_fails_over_byte_identically_across_worker_counts() {
    let run = |workers: usize| {
        let mut session = Session::create(multi_region_config(), SEED).unwrap();
        session.provider().lock().set_fault_plan(primary_outage());
        let report = session
            .collect_with(&CollectPlan::new().workers(workers))
            .unwrap();
        let outcomes: Vec<(u32, u32, u32)> = report
            .outcomes
            .iter()
            .map(|o| (o.scenario_id, o.attempts, o.failovers))
            .collect();
        (report.dataset.to_json(), outcomes, report.stats.clone())
    };
    let (serial, serial_outcomes, stats) = run(1);
    let (four, four_outcomes, _) = run(4);
    let (eight, eight_outcomes, _) = run(8);
    assert_eq!(serial, four, "dataset identical under 4-way sharding");
    assert_eq!(serial, eight, "dataset identical under 8-way sharding");
    assert_eq!(serial_outcomes, four_outcomes);
    assert_eq!(serial_outcomes, eight_outcomes);

    // 100% completion through failover: the 6 primary-pinned scenarios
    // rerouted, the 6 fallback-pinned ones never noticed.
    assert_eq!(stats.completed, 12, "{stats:?}");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.skipped, 0);
    // Escalation: after 2 faults a `(SKU, region)` is marked down, so only
    // the first two primary-pinned scenarios per SKU pay a live failover —
    // the rest route straight to the fallback without touching the outage.
    assert_eq!(stats.failovers, 4, "{stats:?}");
    // Every row the advisor reasons over actually ran in the fallback.
    let dataset: Vec<&str> = serial.lines().collect();
    assert!(!dataset.is_empty());
    assert!(
        serial
            .matches(&format!("\"region\": \"{FALLBACK}\""))
            .count()
            == 12,
        "all 12 rows placed in {FALLBACK}:\n{serial}"
    );
    assert!(!serial.contains(&format!("\"region\": \"{PRIMARY}\"")));
}

#[test]
fn kill_and_resume_replays_the_same_placements() {
    let dir = tempdir("resume");
    let journal_path = dir.join("run-journal.jsonl");
    let config = multi_region_config();

    // Uninterrupted reference run under the same outage.
    let baseline = {
        let mut session = Session::create(config.clone(), SEED).unwrap();
        session.provider().lock().set_fault_plan(primary_outage());
        session
            .collect_with(&CollectPlan::new())
            .unwrap()
            .dataset
            .to_json()
    };

    // "Crashed" run: half the grid lands in the journal, then the process
    // dies.
    let mut session = Session::builder(config.clone())
        .seed(SEED)
        .journal(RunJournal::open_fresh(&journal_path))
        .build()
        .unwrap();
    session.provider().lock().set_fault_plan(primary_outage());
    let half: Vec<u32> = session.scenarios().iter().take(6).map(|s| s.id).collect();
    let report = session
        .collect_with(&CollectPlan::new().subset(half))
        .unwrap();
    assert_eq!(report.stats.executed, 6);
    drop(session);

    // Resume under the same outage: journaled scenarios replay their
    // placement without touching the cloud, the remainder fails over
    // exactly as the uninterrupted run did.
    let mut resumed = Session::resume(config, SEED, RunJournal::open(&journal_path)).unwrap();
    resumed.provider().lock().set_fault_plan(primary_outage());
    let report = resumed.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.journal_replayed, 6);
    assert_eq!(report.stats.executed, 6, "only the remainder executed");
    assert_eq!(report.dataset.to_json(), baseline, "placements replayed");
    for outcome in &report.outcomes {
        if outcome.replayed {
            assert_eq!(outcome.attempts, 0, "replays never touch the cloud");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failover_never_bills_the_abandoned_region() {
    let mut session = Session::create(multi_region_config(), SEED).unwrap();
    session.provider().lock().set_fault_plan(primary_outage());
    // The landing zone may have billed home-region spend during deployment;
    // failover must not add to it.
    let primary_before = session.provider().lock().billing().cost_for_region(PRIMARY);
    let report = session.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.completed, 12);

    let provider = session.provider();
    let mut provider = provider.lock();
    let primary_after = provider.billing().cost_for_region(PRIMARY);
    assert_eq!(
        primary_after, primary_before,
        "the abandoned region billed nothing during collection"
    );
    assert!(
        provider.billing().cost_for_region(FALLBACK) > 0.0,
        "the fallback region carried the whole grid"
    );
    // The outage rejected allocations before quota was granted, so the
    // abandoned region's pool holds no leaked cores either.
    for family in ["HC", "HBv3"] {
        assert_eq!(
            provider.quota_mut_in(PRIMARY).unwrap().used(family),
            0,
            "no quota leaked in {PRIMARY} for {family}"
        );
    }
}

#[test]
fn forced_outage_chaos_run_reports_placement_in_advice() {
    let mut session = Session::create(multi_region_config(), SEED).unwrap();
    session.provider().lock().set_fault_plan(primary_outage());
    let report = session.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.completed, 12, "{:?}", report.stats);

    let advice = Advice::from_dataset(&report.dataset, &DataFilter::all());
    let text = advice.render_text();
    // Rows carry their placed region, and the placement summary reports the
    // per-region completion picture.
    assert!(text.contains(&format!("@{FALLBACK}")), "{text}");
    assert!(text.contains(&format!("placement {FALLBACK}:")), "{text}");
    assert!(text.contains("12/12 completed"), "{text}");
}

#[test]
fn all_regions_down_degrades_to_journaled_sla_skips() {
    let dir = tempdir("sla");
    let journal_path = dir.join("run-journal.jsonl");
    let config = multi_region_config();
    let outage_everywhere =
        || FaultPlan::none().fail_region(RegionFault::Outage, FaultMode::Always);

    let mut session = Session::builder(config.clone())
        .seed(SEED)
        .journal(RunJournal::open_fresh(&journal_path))
        .build()
        .unwrap();
    session
        .provider()
        .lock()
        .set_fault_plan(outage_everywhere());
    let report = session.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.completed, 0);
    assert_eq!(report.stats.failed, 0, "degradation, not failure");
    assert_eq!(report.stats.skipped, 12, "{:?}", report.stats);
    for outcome in &report.outcomes {
        assert_eq!(outcome.status, ScenarioStatus::Skipped, "{outcome:?}");
        let reason = outcome.fail_reason.as_deref().unwrap_or("");
        assert!(
            reason.contains("no region satisfies placement SLA"),
            "typed skip reason: {reason}"
        );
    }
    // Placement exhaustion is a deliberate verdict: every skip is journaled.
    let journal = RunJournal::open(&journal_path);
    assert_eq!(journal.len(), 12);
    drop(session);

    // Resume honors the verdicts even with the fault plan lifted: nothing
    // re-runs until the operator asks for it with `rerun_failed`.
    let mut resumed = Session::resume(config, SEED, RunJournal::open(&journal_path)).unwrap();
    let report = resumed.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.journal_replayed, 12);
    assert_eq!(report.stats.executed, 0);
    assert_eq!(report.stats.skipped, 12);
    drop(resumed);

    let mut rerun =
        Session::resume(multi_region_config(), SEED, RunJournal::open(&journal_path)).unwrap();
    let report = rerun
        .collect_with(&CollectPlan::new().rerun_failed(true))
        .unwrap();
    assert_eq!(
        report.stats.completed, 12,
        "healthy regions: grid completes"
    );
    assert_eq!(report.stats.skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
