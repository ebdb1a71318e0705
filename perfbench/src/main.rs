//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Runs one workload, checks its outputs, prints one line per metric and,
//! as the last line, a JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` is a separate run that reports the per-layer metrics, prints
//! the breakdown table and writes its spans to
//! `.perfbench/spans-<workload>.jsonl`. `--smoke` shrinks every input to
//! about 1% and makes the minimum number of reps.
//!
//! Exit codes: 0 when every check held, 1 when a check failed (the result
//! line is still printed), 2 when the workload could not run.
//!
//! `perfbench --daemon <dir>` is the daemon process `serve_tenants` starts
//! for each of its rounds.

use hpcadvisor_perfbench::report::{fix_mmap_threshold, render};
use hpcadvisor_perfbench::serve;
use hpcadvisor_perfbench::spans::{to_jsonl, Recorder};
use hpcadvisor_perfbench::workloads::{Size, Workload};
use hpcadvisor_perfbench::Run;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where scratch state and span files go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench";

const USAGE: &str =
    "usage: perfbench --workload <cold_sweep|warm_rerun|chaos_sweep|serve_tenants> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut size) = (7u64, 20.0f64, false, Size::Full);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be a number")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got '{v}'")),
                }
            }
            "--smoke" => size = Size::Smoke,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    if let Err(e) = fix_mmap_threshold() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = argv.as_slice() {
        if flag == "--daemon" {
            return match serve::daemon_main(Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: daemon: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("{name}-{}", std::process::id())));
    let run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: if args.size == Size::Smoke {
            0.0
        } else {
            args.seconds
        },
        size: args.size,
        rec: Recorder::new(args.trace),
        dir: scratch.0.clone(),
    };
    let mut outcome = match run.execute() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("spans-{name}.jsonl"));
        if let Err(e) = std::fs::write(&path, to_jsonl(&run.rec.snapshot())) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        outcome
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    drop(scratch);
    // Leaves the output directory only when it holds span files.
    let _ = std::fs::remove_dir(OUT_DIR);
    print!("{}", render(name, args.trace, &mut outcome));
    if outcome.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
