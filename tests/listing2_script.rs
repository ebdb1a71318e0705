//! E2: the paper's Listing 2 — the LAMMPS setup/run bash script — executed
//! essentially verbatim by the `taskshell` interpreter against the
//! simulated environment, with Table I's environment variables injected.

use hpcadvisor::core::appscript::LAMMPS_SCRIPT;
use hpcadvisor::taskshell::{ExecutionEnv, Interpreter, UrlStore, Vfs};
use std::sync::Arc;

fn interpreter() -> Interpreter {
    let sku = hpcadvisor::cloudsim::SkuCatalog::azure_hpc()
        .get("Standard_HB120rs_v3")
        .unwrap()
        .clone();
    Interpreter::new(
        ExecutionEnv {
            sku,
            registry: Arc::new(hpcadvisor::appmodel::AppRegistry::standard()),
            experiment_seed: 7,
        },
        Vfs::new(),
        UrlStore::with_known_inputs(),
    )
}

/// Injects the paper's Table I environment for a 16 × 120 run.
fn set_table1_env(interp: &mut Interpreter, nnodes: u32, ppn: u32) {
    interp.set_var("NNODES", nnodes.to_string());
    interp.set_var("PPN", ppn.to_string());
    interp.set_var("SKU", "Standard_HB120rs_v3");
    interp.set_var("VMTYPE", "Standard_HB120rs_v3");
    let hosts: Vec<String> = (0..nnodes).map(|i| format!("node-{i:04}:{ppn}")).collect();
    interp.set_var("HOSTLIST_PPN", hosts.join(","));
    interp.set_var("TASKRUN_DIR", interp.cwd().to_string().as_str());
}

#[test]
fn setup_downloads_then_caches() {
    let mut interp = interpreter();
    interp.set_cwd("/apps/lammps");
    interp.load_script(LAMMPS_SCRIPT).unwrap();

    let out = interp.call_function("hpcadvisor_setup").unwrap();
    assert_eq!(out.exit_code, 0, "{}", out.stdout);
    assert!(interp.vfs().exists("/apps/lammps/in.lj.txt"));
    // Second call takes the `if [[ -f in.lj.txt ]]` early-exit path.
    let out = interp.call_function("hpcadvisor_setup").unwrap();
    assert!(out.stdout.contains("Data already exists"));
}

#[test]
fn run_patches_input_executes_and_exports_metrics() {
    let mut interp = interpreter();
    // Setup in the app dir, run in a task dir beneath it (the `cp ../…`).
    interp.set_cwd("/apps/lammps");
    interp.load_script(LAMMPS_SCRIPT).unwrap();
    interp.call_function("hpcadvisor_setup").unwrap();

    interp.set_cwd("/apps/lammps/task-1");
    interp.set_var("BOXFACTOR", "30");
    set_table1_env(&mut interp, 16, 120);
    let out = interp.call_function("hpcadvisor_run").unwrap();
    assert_eq!(out.exit_code, 0, "{}", out.stdout);

    // The sed commands rewrote all three box indices in the local copy.
    let patched = interp.vfs().read("/apps/lammps/task-1/in.lj.txt").unwrap();
    assert!(patched.contains("variable x index 30"));
    assert!(patched.contains("variable y index 30"));
    assert!(patched.contains("variable z index 30"));
    // The pristine master copy is untouched.
    let master = interp.vfs().read("/apps/lammps/in.lj.txt").unwrap();
    assert!(master.contains("variable\tx index 1"));

    // The HPCADVISORVAR lines came out of the log-scrape pipeline
    // (cat | grep Loop | awk '{print $N}').
    assert!(out.stdout.contains("Simulation completed successfully."));
    let exectime_line = out
        .stdout
        .lines()
        .find(|l| l.starts_with("HPCADVISORVAR APPEXECTIME="))
        .expect("APPEXECTIME exported");
    let secs: f64 = exectime_line
        .split('=')
        .nth(1)
        .unwrap()
        .parse()
        .expect("numeric exec time");
    // 16 × HB120rs_v3 at box ×30 lands near the paper's 36 s.
    assert!((25.0..60.0).contains(&secs), "exec time {secs}");
    assert!(out.stdout.contains("HPCADVISORVAR LAMMPSATOMS=864000000"));
    assert!(out.stdout.contains("HPCADVISORVAR LAMMPSSTEPS=100"));

    // Virtual time: EESSI init + module load + wget + run ≈ the app time
    // plus tens of seconds of setup.
    assert!(out.elapsed.as_secs_f64() > secs);
}

#[test]
fn failed_simulation_takes_error_branch() {
    let mut interp = interpreter();
    interp.set_cwd("/apps/lammps");
    interp.load_script(LAMMPS_SCRIPT).unwrap();
    interp.call_function("hpcadvisor_setup").unwrap();
    interp.set_cwd("/apps/lammps/task-oom");
    // Box ×50 = 4 billion atoms: OOM on one node.
    interp.set_var("BOXFACTOR", "50");
    set_table1_env(&mut interp, 1, 120);
    interp.set_var("HOSTLIST_PPN", "node-0000:120");
    let out = interp.call_function("hpcadvisor_run").unwrap();
    assert_eq!(out.exit_code, 1, "{}", out.stdout);
    assert!(out
        .stdout
        .contains("Simulation did not complete successfully."));
    assert!(!out.stdout.contains("HPCADVISORVAR"));
}
