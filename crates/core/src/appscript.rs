//! Application setup/run scripts.
//!
//! The paper's second user input is a bash script with `hpcadvisor_setup`
//! and `hpcadvisor_run` functions, referenced by URL from the main config.
//! This module bundles such scripts for every modelled application — the
//! LAMMPS one is the paper's Listing 2 essentially verbatim — and registers
//! them in the simulated URL store so `appsetupurl` resolution works
//! offline. Users can register their own script content under any URL.

use crate::error::ToolError;
use taskshell::UrlStore;

/// The paper's Listing 2: LAMMPS via EESSI, box-factor sweep, log scraping.
pub const LAMMPS_SCRIPT: &str = r#"#!/usr/bin/env bash

hpcadvisor_setup() {
  if [[ -f in.lj.txt ]]; then
    echo "Data already exists"
    return 0
  fi
  wget https://www.lammps.org/inputs/in.lj.txt
}

hpcadvisor_run() {
  source /cvmfs/software.eessi.io/versions/2023.06/init/bash
  module load LAMMPS

  inputfile="in.lj.txt"
  cp ../$inputfile .

  sed -i "s/variable\s\+x\s\+index\s\+[0-9]\+/variable x index $BOXFACTOR/" $inputfile
  sed -i "s/variable\s\+y\s\+index\s\+[0-9]\+/variable y index $BOXFACTOR/" $inputfile
  sed -i "s/variable\s\+z\s\+index\s\+[0-9]\+/variable z index $BOXFACTOR/" $inputfile
  NP=$(($NNODES * $PPN))
  export UCX_NET_DEVICES=mlx5_ib0:1
  APP=$(which lmp)
  mpirun -np $NP --host "$HOSTLIST_PPN" "$APP" -i $inputfile

  log_file="log.lammps"
  if grep -q "Total wall time: " "$log_file"; then
    echo "Simulation completed successfully."
    APPEXECTIME=$(cat log.lammps | grep Loop | awk '{print $4}')
    LAMMPSATOMS=$(cat log.lammps | grep Loop | awk '{print $12}')
    LAMMPSSTEPS=$(cat log.lammps | grep Loop | awk '{print $9}')
    echo "HPCADVISORVAR APPEXECTIME=$APPEXECTIME"
    echo "HPCADVISORVAR LAMMPSATOMS=$LAMMPSATOMS"
    echo "HPCADVISORVAR LAMMPSSTEPS=$LAMMPSSTEPS"
    return 0
  else
    echo "Simulation did not complete successfully."
    return 1
  fi
}
"#;

/// OpenFOAM motorBike: mesh-dimension sweep, `ExecutionTime` scraping.
pub const OPENFOAM_SCRIPT: &str = r#"#!/usr/bin/env bash

hpcadvisor_setup() {
  if [[ -f motorBike.tgz ]]; then
    echo "Case already present"
    return 0
  fi
  wget https://example.com/motorBike.tgz
}

hpcadvisor_run() {
  source /cvmfs/software.eessi.io/versions/2023.06/init/bash
  module load OpenFOAM
  NP=$(($NNODES * $PPN))
  mpirun -np $NP --host "$HOSTLIST_PPN" simpleFoam -parallel

  log_file="log.simpleFoam"
  if grep -q "Finalising parallel run" "$log_file"; then
    echo "Simulation completed successfully."
    APPEXECTIME=$(cat $log_file | grep ExecutionTime | awk '{print $3}')
    OFCELLS=$(cat $log_file | grep "Mesh size" | awk '{print $3}')
    echo "HPCADVISORVAR APPEXECTIME=$APPEXECTIME"
    echo "HPCADVISORVAR OFCELLS=$OFCELLS"
    return 0
  else
    echo "Simulation did not complete successfully."
    return 1
  fi
}
"#;

/// WRF: resolution/forecast-hours sweep.
pub(crate) const WRF_SCRIPT: &str = r#"#!/usr/bin/env bash

hpcadvisor_setup() {
  if [[ -f conus12km.tar.gz ]]; then
    echo "Input deck already present"
    return 0
  fi
  wget https://example.com/conus12km.tar.gz
}

hpcadvisor_run() {
  source /cvmfs/software.eessi.io/versions/2023.06/init/bash
  module load WRF
  NP=$(($NNODES * $PPN))
  mpirun -np $NP --host "$HOSTLIST_PPN" wrf.exe

  log_file="rsl.out.0000"
  if grep -q "SUCCESS COMPLETE WRF" "$log_file"; then
    echo "Simulation completed successfully."
    APPEXECTIME=$(cat $log_file | grep "Total elapsed seconds" | awk '{print $4}')
    WRFSTEPS=$(cat $log_file | grep "wrf: completed" | awk '{print $3}')
    echo "HPCADVISORVAR APPEXECTIME=$APPEXECTIME"
    echo "HPCADVISORVAR WRFSTEPS=$WRFSTEPS"
    return 0
  else
    echo "Simulation did not complete successfully."
    return 1
  fi
}
"#;

/// GROMACS: atom-count/steps sweep.
pub(crate) const GROMACS_SCRIPT: &str = r#"#!/usr/bin/env bash

hpcadvisor_setup() {
  echo "GROMACS provided by EESSI; nothing to download"
  return 0
}

hpcadvisor_run() {
  source /cvmfs/software.eessi.io/versions/2023.06/init/bash
  module load GROMACS
  NP=$(($NNODES * $PPN))
  mpirun -np $NP --host "$HOSTLIST_PPN" gmx_mpi mdrun

  log_file="md.log"
  if grep -q "Finished mdrun" "$log_file"; then
    echo "Simulation completed successfully."
    APPEXECTIME=$(cat $log_file | grep "Time:" | awk '{print $3}')
    GMXNSPERDAY=$(cat $log_file | grep "Performance:" | awk '{print $2}')
    echo "HPCADVISORVAR APPEXECTIME=$APPEXECTIME"
    echo "HPCADVISORVAR GMXNSPERDAY=$GMXNSPERDAY"
    return 0
  else
    echo "Simulation did not complete successfully."
    return 1
  fi
}
"#;

/// NAMD: STMV-style benchmark.
pub(crate) const NAMD_SCRIPT: &str = r#"#!/usr/bin/env bash

hpcadvisor_setup() {
  if [[ -f stmv.tar.gz ]]; then
    echo "Benchmark already present"
    return 0
  fi
  wget https://example.com/stmv.tar.gz
}

hpcadvisor_run() {
  source /cvmfs/software.eessi.io/versions/2023.06/init/bash
  module load NAMD
  NP=$(($NNODES * $PPN))
  mpirun -np $NP --host "$HOSTLIST_PPN" namd2

  log_file="namd.log"
  if grep -q "End of program" "$log_file"; then
    echo "Simulation completed successfully."
    APPEXECTIME=$(cat $log_file | grep "WallClock:" | awk '{print $2}')
    echo "HPCADVISORVAR APPEXECTIME=$APPEXECTIME"
    return 0
  else
    echo "Simulation did not complete successfully."
    return 1
  fi
}
"#;

/// The matrix-multiplication toy example from the paper's introduction.
pub(crate) const MATMUL_SCRIPT: &str = r#"#!/usr/bin/env bash

hpcadvisor_setup() {
  echo "matmul needs no input data"
  return 0
}

hpcadvisor_run() {
  NP=$(($NNODES * $PPN))
  mpirun -np $NP --host "$HOSTLIST_PPN" matmul

  log_file="matmul.log"
  if grep -q "RESULT OK" "$log_file"; then
    APPEXECTIME=$(cat $log_file | grep "multiply done" | awk '{print $4}')
    GFLOPS=$(cat $log_file | grep "multiply done" | awk '{print $6}')
    echo "HPCADVISORVAR APPEXECTIME=$APPEXECTIME"
    echo "HPCADVISORVAR GFLOPS=$GFLOPS"
    return 0
  else
    echo "matmul failed"
    return 1
  fi
}
"#;

/// Returns the bundled script for an application name, if any.
pub fn bundled_script(appname: &str) -> Option<&'static str> {
    match appname.to_ascii_lowercase().as_str() {
        "lammps" => Some(LAMMPS_SCRIPT),
        "openfoam" => Some(OPENFOAM_SCRIPT),
        "wrf" => Some(WRF_SCRIPT),
        "gromacs" => Some(GROMACS_SCRIPT),
        "namd" => Some(NAMD_SCRIPT),
        "matmul" => Some(MATMUL_SCRIPT),
        _ => None,
    }
}

/// Builds the URL store for a run: known benchmark inputs plus the config's
/// `appsetupurl` mapped to the bundled script for its app (unless already
/// registered, e.g. by a user-provided script).
pub fn seed_urlstore(store: &mut UrlStore, appsetupurl: &str, appname: &str) {
    if store.get(appsetupurl).is_none() {
        if let Some(script) = bundled_script(appname) {
            store.put(appsetupurl, script);
        }
    }
}

/// Fetches the application script from the store.
pub(crate) fn fetch_script(store: &UrlStore, url: &str) -> Result<String, ToolError> {
    store
        .get(url)
        .map(|s| s.to_string())
        .ok_or_else(|| ToolError::Config(format!("appsetupurl '{url}' cannot be resolved")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskshell::Interpreter;

    #[test]
    fn every_bundled_script_parses_and_defines_both_functions() {
        for app in ["lammps", "openfoam", "wrf", "gromacs", "namd", "matmul"] {
            let script = bundled_script(app).unwrap();
            let mut i = Interpreter::for_tests();
            i.load_script(script)
                .unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(i.has_function("hpcadvisor_setup"), "{app} missing setup");
            assert!(i.has_function("hpcadvisor_run"), "{app} missing run");
        }
        assert!(bundled_script("unknownapp").is_none());
    }

    #[test]
    fn urlstore_seeding_respects_existing_content() {
        let mut store = UrlStore::with_known_inputs();
        seed_urlstore(&mut store, "https://x/lammps.sh", "lammps");
        assert!(fetch_script(&store, "https://x/lammps.sh")
            .unwrap()
            .contains("hpcadvisor_run"));
        // A pre-registered custom script is not overwritten.
        store.put("https://x/custom.sh", "custom-content");
        seed_urlstore(&mut store, "https://x/custom.sh", "lammps");
        assert_eq!(store.get("https://x/custom.sh"), Some("custom-content"));
        // Unknown URL errors.
        assert!(fetch_script(&store, "https://nope/none.sh").is_err());
    }

    #[test]
    fn lammps_script_is_listing2() {
        assert!(LAMMPS_SCRIPT.contains("hpcadvisor_setup"));
        assert!(LAMMPS_SCRIPT.contains(r"s/variable\s\+x\s\+index\s\+[0-9]\+/"));
        assert!(LAMMPS_SCRIPT.contains("HPCADVISORVAR LAMMPSATOMS=$LAMMPSATOMS"));
        assert!(LAMMPS_SCRIPT.contains("mpirun -np $NP --host \"$HOSTLIST_PPN\""));
    }
}
