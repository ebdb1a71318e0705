//! Golden outputs: canonical runs compared byte-for-byte against files
//! checked in under `tests/golden/`. A change that moves one byte of a
//! dataset or a run trace fails here with the first differing line.
//!
//! Each case pins two entry points to the same dataset file: the plain
//! `Session::collect()` and a traced one-worker `collect_with` run, whose
//! trace is pinned as well. Each dataset's CSV export is pinned beside it.

use cloudsim::{FaultMode, FaultPlan, Operation, RegionFault};
use hpcadvisor_core::prelude::*;
use hpcadvisor_core::sampling::{run_sampled, AggressiveDiscard};
use std::path::Path;

const SEED: u64 = 42;

/// Compares `actual` with the golden file `name`, reporting the first
/// differing line on a mismatch.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if actual == expected {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{name} differs from its golden file at line {}:\n  golden: {:?}\n  actual: {:?}\n\
         ({} golden bytes, {} actual bytes)",
        mismatch + 1,
        expected.lines().nth(mismatch).unwrap_or("<end of file>"),
        actual.lines().nth(mismatch).unwrap_or("<end of file>"),
        expected.len(),
        actual.len(),
    );
}

/// Runs `config` twice under `faults`: once through `Session::collect()`
/// and once through a traced one-worker plan. Both datasets must match
/// `<case>.dataset.json`, the first one's CSV export `<case>.dataset.csv`,
/// and the trace `<case>.trace.jsonl`.
fn check_case(case: &str, config: UserConfig, faults: FaultPlan) {
    let mut session = Session::create(config.clone(), SEED).unwrap();
    session.provider().lock().set_fault_plan(faults.clone());
    let dataset = session.collect().unwrap();
    assert_golden(&format!("{case}.dataset.json"), &dataset.to_json());
    assert_golden(&format!("{case}.dataset.csv"), &dataset.to_csv());

    let mut session = Session::create(config, SEED).unwrap();
    session.provider().lock().set_fault_plan(faults);
    let report = session
        .collect_with(&CollectPlan::new().trace(true))
        .unwrap();
    assert_golden(&format!("{case}.dataset.json"), &report.dataset.to_json());
    let trace = report.trace.expect("traced run").to_jsonl();
    assert_golden(&format!("{case}.trace.jsonl"), &trace);
}

#[test]
fn listing1_openfoam() {
    check_case(
        "openfoam",
        UserConfig::example_openfoam(),
        FaultPlan::none(),
    );
}

#[test]
fn listing1_openfoam_under_p03_faults() {
    check_case(
        "openfoam_faults",
        UserConfig::example_openfoam(),
        FaultPlan::none()
            .seed(7)
            .fail_probabilistic(Operation::RunTask, 0.3)
            .fail_probabilistic(Operation::AllocateNodes, 0.3),
    );
}

#[test]
fn primary_region_outage() {
    let config = UserConfig::from_yaml(
        r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v3
rgprefix: regiontest
appsetupurl: https://example.com/scripts/lammps.sh
nnodes: [1, 2, 4]
appname: lammps
region: southcentralus
regions:
- southcentralus
- westeurope
ppr: 100
appinputs:
  BOXFACTOR: "8"
"#,
    )
    .unwrap();
    check_case(
        "region_outage",
        config,
        FaultPlan::none().fail_region_named(
            "southcentralus",
            RegionFault::Outage,
            FaultMode::Always,
        ),
    );
}

/// A small sweep of one bundled app script: two SKUs × two node counts ×
/// the given input values.
fn small_app_config(app: &str, inputs: &[(&str, &[&str])]) -> UserConfig {
    let mut config = UserConfig::from_yaml(&format!(
        r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v3
rgprefix: golden{app}
appsetupurl: https://example.com/scripts/{app}.sh
nnodes: [1, 2]
appname: {app}
region: southcentralus
ppr: 100
"#
    ))
    .unwrap();
    config.appinputs = inputs
        .iter()
        .map(|(k, vs)| (k.to_string(), vs.iter().map(|v| v.to_string()).collect()))
        .collect();
    config
}

/// The paper's Listing 2: `cp ../in.lj.txt .`, three `sed -i` rewrites,
/// `which lmp` and `grep -q` on the log file.
#[test]
fn listing2_lammps() {
    check_case(
        "lammps",
        small_app_config("lammps", &[("BOXFACTOR", &["4", "8"])]),
        FaultPlan::none(),
    );
}

/// WRF at 1 km does not fit on one or two nodes: the model fails, no log
/// is written, and the script's `grep -q` on the missing file takes the
/// failure branch.
#[test]
fn wrf_with_out_of_memory_scenarios() {
    check_case(
        "wrf",
        small_app_config("wrf", &[("resolution_km", &["12", "1"]), ("hours", &["3"])]),
        FaultPlan::none(),
    );
}

#[test]
fn gromacs() {
    check_case(
        "gromacs",
        small_app_config("gromacs", &[("atoms", &["1000000"]), ("steps", &["5000"])]),
        FaultPlan::none(),
    );
}

#[test]
fn namd() {
    check_case(
        "namd",
        small_app_config("namd", &[("atoms", &["1066628"]), ("steps", &["500"])]),
        FaultPlan::none(),
    );
}

#[test]
fn matmul() {
    check_case(
        "matmul",
        small_app_config("matmul", &[("n", &["20000", "40000"])]),
        FaultPlan::none(),
    );
}

/// The sampler's probe batch is not sorted by scenario id, so this pins
/// that sampled batches come back in requested order.
#[test]
fn aggressive_discard_sampling() {
    let mut session = Session::create(UserConfig::example_openfoam(), SEED).unwrap();
    let plan = CollectPlan::new();
    let (run, _) = run_sampled(&mut session, &plan, &mut AggressiveDiscard::new(0.15)).unwrap();
    assert_golden("aggressive_discard.dataset.json", &run.dataset.to_json());
    assert_golden("aggressive_discard.dataset.csv", &run.dataset.to_csv());
}
