//! The `hpcadvisor` command-line interface (paper Section IV, Table II).
//!
//! | Command | Subcommand | Description |
//! |---------|-----------|-------------|
//! | `deploy` | `create` | Creates a cloud deployment |
//! | `deploy` | `list` | Lists all previous and current cloud deployments |
//! | `deploy` | `shutdown` | Shuts down a deployment, deleting its resources |
//! | `collect` | — | Runs all scenarios on a given deployment |
//! | `cache` | `stats` | Shows the scenario-result cache (entries, location) |
//! | `cache` | `clear` | Drops all cached scenario results |
//! | `plot` | — | Generates plots using a given data filter |
//! | `advice` | — | Generates advice (Pareto front) using a data filter |
//! | `trace` | `summary` | Aggregates the run trace written by `collect --trace` |
//! | `trace` | `timeline` | Renders the run trace as a per-pool Gantt SVG |
//! | `gui` | — | Starts the GUI mode |
//!
//! State lives in a work directory (default `./hpcadvisor-data`):
//! `config.yaml`, `deployments.json`, `scenarios.json`, `dataset.json`,
//! and generated plots under `plots/`. The cloud is simulated in-process,
//! so `collect` deterministically re-provisions the recorded deployment
//! (same seed ⇒ same timeline) before running scenarios — the recorded
//! state is the source of truth, exactly like the Python tool's JSON files.
//!
//! The browser GUI of the paper is substituted by a terminal dashboard
//! (`gui` renders deployments, dataset summary and the Pareto plot as
//! text).

pub mod args;
mod commands;
pub mod serve;
pub mod state;

use std::io::Write;

/// Runs the CLI with the given arguments (excluding `argv[0]`), writing to
/// `out`. Returns the process exit code.
pub fn run(argv: &[String], out: &mut dyn Write) -> i32 {
    match commands::dispatch(argv, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

/// The `--help` text.
pub(crate) const USAGE: &str = "\
hpcadvisor — HPC resource-selection advisor for the (simulated) cloud

USAGE:
    hpcadvisor <command> [options]

COMMANDS:
    deploy create -c <config.yaml>   create a cloud deployment
    deploy list                      list all deployments
    deploy shutdown <name>           delete a deployment's resources
    collect                          run all pending scenarios (warm ones
                                     are served from the scenario cache)
    cache stats                      show the scenario-result cache
    cache clear                      drop all cached scenario results
    plot [-f <filter>] [--ascii]     generate the four plots (+ Pareto)
    advice [-f <filter>] [--sort time|cost] [--slurm]
                                     print the Pareto-front advice table
    export [-f <filter>] [-o <file>] write the dataset as CSV
    trace summary [--in <file>]      aggregate the run trace written by
                                     'collect --trace' (counters, histograms)
    trace timeline [--in <file>] [-o <svg>]
                                     render the run trace as a per-pool Gantt
    serve [--listen <addr>]          run the advisor as a daemon: NDJSON
                                     frames over TCP, many tenants, one
                                     shared scenario cache (identical
                                     scenarios are simulated once)
    request --connect <addr> [-c <config.yaml>] [--tenant <name>]
                                     submit one advisory run to a daemon,
                                     stream its progress, print the advice
    gui                              textual dashboard

OPTIONS:
    -w, --workdir <dir>    state directory (default ./hpcadvisor-data)
    -c, --config <file>    main YAML configuration file
    -f, --filter <spec>    data filter, e.g. 'appname=lammps,BOXFACTOR=30'
    --seed <n>             experiment seed (default 42)
    --sampler <name>       full | aggressive | perf-factor | bottleneck | partial
    --workers <n>          run the collect on n parallel workers
    --no-cache             collect cold: skip the scenario-result cache
    --cache-dir <dir>      cache directory (default <workdir>/cache)
    --resume               replay the run journal of an interrupted collect
                           and execute only the remainder
    --max-attempts <n>     attempts per operation for transient faults
                           (default 3)
    --no-retry             fail fast: a single attempt per operation
    --capacity <class>     pool capacity class: dedicated (default), spot
                           (discounted, evictable; evicted scenarios requeue
                           and escalate to dedicated), or auto (spot with
                           escalation after the first eviction)
    --deadline <secs>      per-scenario wall-clock deadline, in SIMULATED
                           seconds (not wall time); must be >= 0; scenarios
                           that exceed it are marked timed out
    --budget <dollars>     sweep-level cost budget, in US dollars of
                           simulated billing; must be >= 0; once spend
                           reaches it, remaining scenarios are skipped
                           (journaled); with --workers above 1 where it
                           stops can vary between runs (known fault)
    --trace                capture a deterministic run trace to
                           <workdir>/trace/run-trace.jsonl; bytes are
                           identical for any --workers value
    --ascii                print plots to the terminal instead of SVG files
    --sort <key>           advice sort order: time (default) or cost
    --slurm                also print a Slurm recipe for the fastest row

SERVE OPTIONS:
    --listen <addr>        daemon bind address (default 127.0.0.1:0; the
                           chosen port is announced on startup)
    --service-workers <n>  worker threads draining the job queue (default 2)
    --queue <n>            job-queue bound across all tenants (default 16)
    --tenant-jobs <n>      per-tenant in-flight job quota (default 4)
    --tenant-budget <usd>  per-tenant cumulative budget for newly
                           provisioned pool time (cache hits are free)
    --tenant-grid <n>      largest scenario grid one request may expand to
    --max-requests <n>     exit after serving n collect requests
    --connect <addr>       (request) daemon address to connect to
    --tenant <name>        (request) tenant to account the run against
";

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> (String, i32) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&argv, &mut out);
        (String::from_utf8(out).unwrap(), code)
    }

    #[test]
    fn help_and_unknown_command() {
        let (out, code) = run_to_string(&["--help"]);
        assert_eq!(code, 0);
        assert!(out.contains("deploy create"));
        let (out, code) = run_to_string(&["frobnicate"]);
        assert_eq!(code, 1);
        assert!(out.contains("error"));
        let (_, code) = run_to_string(&[]);
        assert_eq!(code, 1);
    }
}
