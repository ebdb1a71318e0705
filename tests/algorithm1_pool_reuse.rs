//! E3: Algorithm 1's pool management — one pool per VM type, reused and
//! grown across that type's scenarios, torn down when the type changes.

use hpcadvisor::prelude::*;

fn two_sku_config() -> UserConfig {
    UserConfig::from_yaml(
        r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v3
rgprefix: alg1
appsetupurl: https://example.com/scripts/lammps.sh
nnodes: [1, 2, 4]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "8"
"#,
    )
    .unwrap()
}

#[test]
fn one_pool_per_vm_type_grown_not_recreated() {
    let mut session = Session::create(two_sku_config(), 7).unwrap();
    let ds = session.collect().unwrap();
    assert_eq!(ds.len(), 6);
    assert!(ds
        .points
        .iter()
        .all(|p| p.status == ScenarioStatus::Completed));

    let provider = session.provider();
    let provider = provider.lock();
    let spans = provider.billing().records();
    // Per SKU: resizes 1→2→4 close three spans (the final teardown closes
    // the last). Two SKUs ⇒ exactly six usage spans, in SKU-major order.
    assert_eq!(spans.len(), 6, "{spans:#?}");
    let skus: Vec<&str> = spans.iter().map(|r| r.sku.as_str()).collect();
    assert_eq!(
        skus,
        vec![
            "Standard_HC44rs",
            "Standard_HC44rs",
            "Standard_HC44rs",
            "Standard_HB120rs_v3",
            "Standard_HB120rs_v3",
            "Standard_HB120rs_v3"
        ]
    );
    let nodes: Vec<u32> = spans.iter().map(|r| r.nodes).collect();
    assert_eq!(nodes, vec![1, 2, 4, 1, 2, 4], "pool grows within a SKU");

    // Spans never overlap in time and never run backwards (Algorithm 1 is
    // sequential).
    for w in spans.windows(2) {
        assert!(w[1].start >= w[0].end, "overlapping pools: {w:#?}");
    }
}

#[test]
fn setup_task_runs_once_per_pool() {
    let mut session = Session::create(two_sku_config(), 7).unwrap();
    session.collect().unwrap();
    // The shared FS holds exactly one downloaded input per app dir, created
    // by the first setup; later scenarios of the same SKU reused it.
    let vfs = session.shared_vfs();
    let vfs = vfs.lock();
    assert!(vfs.exists("/share/alg1001/apps/lammps/in.lj.txt"));
    // Six task dirs (one per scenario), each with its own patched input.
    let tasks: Vec<&str> = vfs
        .list("/share/alg1001/apps/lammps")
        .into_iter()
        .filter(|p| p.ends_with("/in.lj.txt") && p.contains("/task-"))
        .collect();
    assert_eq!(tasks.len(), 6, "{tasks:?}");
}

#[test]
fn quota_failure_fails_scenarios_but_not_the_sweep() {
    let mut session = Session::builder(two_sku_config()).seed(42).build().unwrap();
    // Cap HC quota below 2 nodes (88 cores): 1-node runs fit, 2+ fail.
    session.provider().lock().quota_mut().set_limit("HC", 50);
    let ds = session.collect().unwrap();
    // HC44rs: 1 node ok; 2 and 4 nodes degrade to Skipped on quota
    // exhaustion (not Failed — nothing executed); HBv3 unaffected.
    let hc_skipped: Vec<&DataPoint> = ds
        .points
        .iter()
        .filter(|p| p.sku.contains("HC44rs") && p.status == ScenarioStatus::Skipped)
        .collect();
    assert_eq!(hc_skipped.len(), 2, "{ds:#?}");
    for p in &hc_skipped {
        assert!(p.metric("SKIPREASON").unwrap().contains("quota"), "{p:#?}");
    }
    assert!(
        ds.points.iter().all(|p| p.status != ScenarioStatus::Failed),
        "quota exhaustion is a skip, not a failure"
    );
    let v3_ok = ds
        .points
        .iter()
        .filter(|p| p.sku.contains("HB120rs_v3") && p.status == ScenarioStatus::Completed)
        .count();
    assert_eq!(v3_ok, 3);
    // Skipped scenarios re-run on a later collect; with quota restored they
    // complete.
    assert_eq!(
        session
            .scenarios()
            .iter()
            .filter(|s| s.status == ScenarioStatus::Skipped)
            .count(),
        2
    );
}

#[test]
fn injected_task_failure_marks_nth_scenario_per_pool() {
    use hpcadvisor::cloudsim::{FaultPlan, Operation};
    let mut session = Session::builder(two_sku_config()).seed(42).build().unwrap();
    session
        .provider()
        .lock()
        .set_fault_plan(FaultPlan::none().fail_nth(Operation::RunTask, 3));
    // Retries disabled: a one-shot injected fault must surface as a
    // failure (the default policy would absorb it — see below).
    let ds = session
        .collect_with(&CollectPlan::new().retry(RetryPolicy::none()))
        .unwrap()
        .into_dataset();
    let failed: Vec<u32> = ds
        .points
        .iter()
        .filter(|p| p.status == ScenarioStatus::Failed)
        .map(|p| p.scenario_id)
        .collect();
    // Fault counters are scoped per pool (so serial and sharded runs see
    // identical sequences): invocation #3 — the third compute task after
    // the setup task — fails once in each SKU's pool.
    assert_eq!(failed, vec![3, 6], "third compute task of each pool");
    assert_eq!(ds.points.len(), 6, "all scenarios still attempted");
}

#[test]
fn default_retry_absorbs_one_shot_task_fault() {
    use hpcadvisor::cloudsim::{FaultPlan, Operation};
    let mut session = Session::builder(two_sku_config()).seed(42).build().unwrap();
    session
        .provider()
        .lock()
        .set_fault_plan(FaultPlan::none().fail_nth(Operation::RunTask, 3));
    let ds = session.collect().unwrap();
    assert!(
        ds.points
            .iter()
            .all(|p| p.status == ScenarioStatus::Completed),
        "the transient fault was retried away: {ds:#?}"
    );
    assert_eq!(ds.points.len(), 6);
}
