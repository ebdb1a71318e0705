//! Fault-tolerant collection end to end: injected control-plane faults are
//! retried to a byte-identical dataset, probabilistic fault plans replay
//! identically under any worker count, and an interrupted run resumes from
//! the crash-safe journal without re-executing finished scenarios.

use cloudsim::{FaultPlan, Operation};
use hpcadvisor::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 42;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcadvisor-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fault-free reference dataset for the full Listing-1 grid.
fn fault_free_json() -> String {
    let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
    session
        .collect_with(&CollectPlan::new())
        .unwrap()
        .dataset
        .to_json()
}

#[test]
fn allocation_faults_are_retried_to_a_byte_identical_dataset() {
    let baseline = fault_free_json();
    let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
    // The first AllocateNodes attempt of every SKU pool fails transiently.
    session
        .provider()
        .lock()
        .set_fault_plan(FaultPlan::none().fail_nth(Operation::AllocateNodes, 0));
    let report = session.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.failed, 0, "retries absorbed every fault");
    assert_eq!(report.stats.skipped, 0);
    assert!(
        report.stats.retried >= 3,
        "the first resize of each SKU pool needed a second attempt: {:?}",
        report.stats
    );
    assert!(
        report.stats.backoff_secs > 0.0,
        "backoff was waited through"
    );
    // Retries and backoff only advance the billing clock; the dataset the
    // advisor reasons over is identical to the fault-free run.
    assert_eq!(report.dataset.to_json(), baseline);
}

#[test]
fn probabilistic_faults_replay_identically_across_worker_counts() {
    let run = |workers: usize| {
        let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
        session.provider().lock().set_fault_plan(
            FaultPlan::none()
                .seed(7)
                .fail_probabilistic(Operation::RunTask, 0.2)
                .fail_probabilistic(Operation::AllocateNodes, 0.2),
        );
        let report = session
            .collect_with(&CollectPlan::new().workers(workers))
            .unwrap();
        let attempts: Vec<(u32, u32)> = report
            .outcomes
            .iter()
            .map(|o| (o.scenario_id, o.attempts))
            .collect();
        (report.dataset.to_json(), attempts)
    };
    let (serial, serial_attempts) = run(1);
    let (parallel, parallel_attempts) = run(4);
    assert_eq!(serial, parallel, "dataset identical under sharding");
    assert_eq!(
        serial_attempts, parallel_attempts,
        "per-scenario attempt counts identical under sharding"
    );
    assert!(
        serial_attempts.iter().any(|(_, a)| *a > 1),
        "a 20% fault rate actually fired somewhere: {serial_attempts:?}"
    );
}

#[test]
fn resume_replays_the_journal_and_matches_the_uninterrupted_run() {
    let dir = tempdir("resume");
    let journal_path = dir.join("run-journal.jsonl");
    let baseline = fault_free_json();

    // "Interrupted" run: only the first half of the grid lands in the
    // journal before the process dies.
    let config = UserConfig::example_openfoam();
    let mut session = Session::builder(config.clone())
        .seed(SEED)
        .journal(RunJournal::open_fresh(&journal_path))
        .build()
        .unwrap();
    let half: Vec<u32> = session.scenarios().iter().take(18).map(|s| s.id).collect();
    let report = session
        .collect_with(&CollectPlan::new().subset(half))
        .unwrap();
    assert_eq!(report.stats.executed, 18);
    drop(session); // the crash

    // Resume: finished scenarios replay from the journal, only the
    // remainder executes, and the merged dataset is byte-identical.
    let mut resumed = Session::resume(config, SEED, RunJournal::open(&journal_path)).unwrap();
    let report = resumed.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.journal_replayed, 18);
    assert_eq!(report.stats.executed, 18, "only the remainder executed");
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.dataset.to_json(), baseline);
    for outcome in &report.outcomes {
        if outcome.replayed {
            assert_eq!(outcome.attempts, 0, "replays never touch the cloud");
        }
    }
    // The journal now holds the whole grid and reads back clean.
    let reopened = RunJournal::open(&journal_path);
    assert_eq!(reopened.len(), 36);
    assert!(!reopened.recovered());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_journal_tail_is_salvaged_on_resume() {
    let dir = tempdir("torn");
    let journal_path = dir.join("run-journal.jsonl");
    let config = UserConfig::example_lammps_small(); // 3 scenarios
    let baseline = {
        let mut session = Session::create(config.clone(), SEED).unwrap();
        session
            .collect_with(&CollectPlan::new())
            .unwrap()
            .dataset
            .to_json()
    };

    let mut session = Session::builder(config.clone())
        .seed(SEED)
        .journal(RunJournal::open_fresh(&journal_path))
        .build()
        .unwrap();
    session.collect_with(&CollectPlan::new()).unwrap();
    drop(session);

    // Tear the tail, as a crash mid-append would: the last line is cut
    // short and must be dropped, not trusted.
    let bytes = std::fs::read(&journal_path).unwrap();
    std::fs::write(&journal_path, &bytes[..bytes.len() - 10]).unwrap();
    let journal = RunJournal::open(&journal_path);
    assert!(journal.recovered(), "the torn tail was detected");
    assert_eq!(journal.len(), 2, "the damaged last entry was dropped");

    let mut resumed = Session::resume(config, SEED, journal).unwrap();
    let report = resumed.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.journal_replayed, 2);
    assert_eq!(report.stats.executed, 1, "only the lost scenario re-ran");
    assert_eq!(report.dataset.to_json(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_task_node_death_is_retried_to_a_byte_identical_dataset() {
    let baseline = fault_free_json();
    let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
    // Nodes die *while tasks run* — a different failure window than the
    // allocation faults above: the doomed attempt consumes its runtime and
    // bills its node-hours before the retry fires.
    session.provider().lock().set_fault_plan(
        FaultPlan::none()
            .seed(7)
            .fail_probabilistic(Operation::NodeDeath, 0.1),
    );
    let report = session.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(
        report.stats.failed, 0,
        "mid-task deaths absorbed: {:?}",
        report.stats
    );
    assert_eq!(report.stats.skipped, 0);
    assert!(
        report.stats.retried > 0,
        "a 10% death rate actually fired somewhere: {:?}",
        report.stats
    );
    // Lost attempts only burn simulated money and time; the dataset the
    // advisor reasons over is identical to the fault-free run.
    assert_eq!(report.dataset.to_json(), baseline);
}

#[test]
fn budget_breaker_skips_are_journaled_and_survive_resume() {
    let dir = tempdir("budget");
    let journal_path = dir.join("run-journal.jsonl");
    let config = UserConfig::example_openfoam();

    // A budget that covers roughly the first SKU pool: billed spend crosses
    // the line when that pool is released, and the breaker drops the rest.
    let mut session = Session::builder(config.clone())
        .seed(SEED)
        .journal(RunJournal::open_fresh(&journal_path))
        .build()
        .unwrap();
    let report = session
        .collect_with(&CollectPlan::new().budget_dollars(0.05))
        .unwrap();
    assert!(report.stats.completed > 0, "work ran before the breaker");
    assert!(
        report.stats.skipped > 0,
        "the breaker fired: {:?}",
        report.stats
    );
    let completed = report.stats.completed;
    let skipped = report.stats.skipped;
    for outcome in &report.outcomes {
        if outcome.status == ScenarioStatus::Skipped {
            let reason = outcome.fail_reason.as_deref().unwrap_or("");
            assert!(reason.contains("budget exceeded"), "reason: {reason}");
        }
    }
    // Budget skips are journaled (unlike quota skips): the whole grid has a
    // verdict on disk.
    let journal = RunJournal::open(&journal_path);
    assert_eq!(journal.len(), 36);
    drop(session);

    // Resume honors the stop: every verdict replays, nothing re-runs and
    // nothing is re-billed — even without the budget flag.
    let mut resumed =
        Session::resume(config.clone(), SEED, RunJournal::open(&journal_path)).unwrap();
    let report = resumed.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.journal_replayed, 36);
    assert_eq!(report.stats.executed, 0, "resume honors the budget stop");
    assert_eq!(report.stats.completed, completed);
    assert_eq!(report.stats.skipped, skipped);
    assert_eq!(
        resumed.total_cloud_cost(),
        0.0,
        "replays never touch the cloud"
    );
    drop(resumed);

    // `rerun_failed` is the explicit escape hatch: the journaled skips are
    // re-executed, and with the budget lifted the grid completes.
    let mut rerun = Session::resume(config, SEED, RunJournal::open(&journal_path)).unwrap();
    let report = rerun
        .collect_with(&CollectPlan::new().rerun_failed(true))
        .unwrap();
    assert_eq!(report.stats.journal_replayed, completed);
    assert_eq!(
        report.stats.executed, skipped,
        "the skipped remainder re-ran"
    );
    assert_eq!(report.stats.completed, 36);
    assert_eq!(report.stats.skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_times_out_thrashing_scenarios_and_resume_honors_it() {
    let dir = tempdir("deadline");
    let journal_path = dir.join("run-journal.jsonl");
    let config = UserConfig::example_lammps_small(); // 3 scenarios

    // Total spot pressure with escalation disabled: every compute attempt
    // is evicted, so without a deadline the scenarios would thrash forever.
    let mut session = Session::builder(config.clone())
        .seed(SEED)
        .journal(RunJournal::open_fresh(&journal_path))
        .build()
        .unwrap();
    session
        .provider()
        .lock()
        .set_fault_plan(FaultPlan::none().seed(5).evict_pressure(1.0));
    let report = session
        .collect_with(
            &CollectPlan::new()
                .capacity(Capacity::Spot)
                .escalate_after(u32::MAX)
                .deadline_secs(1.0),
        )
        .unwrap();
    assert_eq!(report.stats.timed_out, 3, "{:?}", report.stats);
    assert_eq!(report.stats.completed, 0);
    assert!(report.stats.evictions >= 3, "{:?}", report.stats);
    for outcome in &report.outcomes {
        assert_eq!(outcome.status, ScenarioStatus::TimedOut, "{outcome:?}");
        let reason = outcome.fail_reason.as_deref().unwrap_or("");
        assert!(reason.contains("deadline exceeded"), "reason: {reason}");
    }
    // Timed-out scenarios count against the advice's partial-grid note.
    let advice = Advice::from_dataset(&report.dataset, &DataFilter::all());
    assert_eq!(advice.skipped_scenarios, 3);
    drop(session);

    // The TimedOut verdicts replay from the journal: resuming in the same
    // capacity mode does not burn another deadline's worth of evicted
    // attempts. (The fingerprint folds the capacity class, so a spot-run
    // journal only matches a spot-mode resume.)
    let mut resumed = Session::resume(config, SEED, RunJournal::open(&journal_path)).unwrap();
    let report = resumed
        .collect_with(&CollectPlan::new().capacity(Capacity::Spot))
        .unwrap();
    assert_eq!(report.stats.journal_replayed, 3);
    assert_eq!(report.stats.executed, 0);
    assert_eq!(report.stats.timed_out, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quota_exhaustion_skips_gracefully_and_annotates_advice() {
    let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
    // Cap the HC family below 2 nodes (2 × 44 = 88 cores).
    session.provider().lock().quota_mut().set_limit("HC", 50);
    let report = session.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.failed, 0, "quota is degradation, not failure");
    assert!(report.stats.skipped > 0);
    let advice = Advice::from_dataset(&report.dataset, &DataFilter::all());
    assert_eq!(advice.skipped_scenarios, report.stats.skipped);
    assert!(
        advice.render_text().contains("partial grid"),
        "advice flags the partial grid:\n{}",
        advice.render_text()
    );
}
