//! Runs every workload of `BENCHMARK.json` at smoke size, untraced and
//! traced, and checks that each run passes its output checks and prints
//! every declared metric with its declared unit. A metric renamed in the
//! benchmark but not in `BENCHMARK.json` (or the reverse) fails here.

use hpcadvisor_formats::{json, Value};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Each smoke run must stay well inside this.
const SMOKE_LIMIT: Duration = Duration::from_secs(10);

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn strings(v: &Value, list: &str, key: &str) -> Vec<String> {
    v.get(list)
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}' list"))
        .iter()
        .map(|e| e.get(key).and_then(Value::as_str).expect(key).to_string())
        .collect()
}

fn metrics(v: &Value, list: &str) -> Vec<(String, String)> {
    strings(v, list, "name")
        .into_iter()
        .zip(strings(v, list, "unit"))
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec = benchmark_json();
    let workloads = strings(&spec, "workloads", "name");
    assert_eq!(
        workloads,
        ["cold_sweep", "warm_rerun", "chaos_sweep", "serve_tenants"]
    );
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let start = Instant::now();
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "11", "--trace", trace])
                .arg("--smoke")
                .current_dir(&dir)
                .output()
                .expect("benchmark runs");
            let took = start.elapsed();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(took < SMOKE_LIMIT, "{workload} trace {trace} took {took:?}");
            let last = json::parse(stdout.lines().last().expect("result line")).unwrap();
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{stdout}");
            assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let reported = last.get("metrics").and_then(Value::as_map).unwrap();
            let declared = metrics(&spec, list);
            assert_eq!(reported.len(), declared.len(), "{stdout}");
            for (name, unit) in declared {
                let m = reported
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing:\n{stdout}"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{workload} {name} "))
                            && l.contains(&format!(" {unit} (n="))),
                    "{workload}: no '{name} … {unit}' line:\n{stdout}"
                );
            }
            if trace == "1" {
                assert!(
                    stdout.contains(&format!("breakdown {workload}")),
                    "{stdout}"
                );
            }
        }
    }
}
