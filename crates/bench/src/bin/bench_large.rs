//! Large-grid wall-clock tier for CI (the `bench-large` job), the one
//! multi-worker timing gate; single-worker timings come from perfbench.
//!
//! The paper's value proposition is sweeping thousands of scenarios, so
//! this tier times the hot paths at ~10k scenarios:
//!
//! * `cold_10k_8w` — the full 10,080-scenario grid, cold, on 8 workers
//!   under the chunked work-stealing scheduler;
//! * `warm_10k` — the same grid served entirely from a warm cache;
//! * `hot_skew_stealing` — a hot-SKU-skew subset (one SKU carries ~91% of
//!   the work) under the default chunked scheduler, as an absolute timing.
//!   There is no relative gate against per-SKU shards: with tasks no longer
//!   copying their shard's filesystem, the two schedulers differ by about
//!   1.3x on 2 cores, too close for a machine-independent floor;
//! * `cache_save_binary_10k` — appending 1,000 entries to a 10k-entry
//!   binary cache store and saving.
//!
//! Every bench is an absolute timing, checked against the baseline with
//! `--tolerance`; there is no relative gate.
//!
//! ```text
//! bench_large --write --out BENCH_large.json   # refresh baseline
//! bench_large --check BENCH_large.json --out BENCH_large_ci.json
//! ```

use hpcadvisor_core::cache::{Fingerprint, ScenarioCache};
use hpcadvisor_core::dataset::point;
use hpcadvisor_core::prelude::*;
use hpcadvisor_formats::{json, OrderedMap, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Samples per bench. Each sample is a full multi-thousand-scenario run,
/// long enough to stand on its own — no iteration batching needed.
const SAMPLES: usize = 3;

/// Entries pre-loaded into the cache-save stores.
const STORE_ENTRIES: usize = 10_080;

/// Entries appended inside the timed region of the cache-save bench,
/// enough to keep the append path well clear of timer granularity.
const STORE_APPENDS: usize = 1000;

const USAGE: &str = "\
bench_large — 10k-scenario timing tier for the CI bench-large job

USAGE:
    bench_large [--write] [--check <baseline.json>] [--out <file>]
                [--tolerance <frac>]

MODES:
    --write              measure and write results to --out (default
                         BENCH_large.json)
    --check <baseline>   measure, write results to --out (default
                         BENCH_large_ci.json), and exit non-zero if any
                         bench regressed more than the tolerance vs the
                         baseline

OPTIONS:
    --out <file>         where to write this run's results
    --tolerance <frac>   allowed fractional regression (default 0.5)
";

/// The 10k grid: 3 SKUs x 4 node counts x 840 mesh sizes = 10,080
/// scenarios. Mesh dimensions stay in the bundled examples' range so
/// every scenario completes (no OOM skews the timing).
fn grid_config() -> UserConfig {
    let mut config = UserConfig::example_openfoam();
    config.nnodes = vec![1, 2, 3, 4];
    config.appinputs = vec![(
        "mesh".into(),
        (0..840)
            .map(|i| format!("{} {} 16", 40 + i / 30, 12 + i % 30))
            .collect(),
    )];
    config
}

/// Hot-SKU-skew subset: every scenario of the first SKU (3,360) plus a
/// 160-scenario tail of each remaining SKU. Under per-SKU shards the hot
/// SKU serializes on one worker; under work stealing its chunks spread
/// across all eight.
fn hot_subset(session: &Session) -> Vec<u32> {
    let scenarios = session.scenarios();
    let hot = scenarios[0].sku.clone();
    let mut ids: Vec<u32> = scenarios
        .iter()
        .filter(|s| s.sku == hot)
        .map(|s| s.id)
        .collect();
    let mut cold: Vec<String> = scenarios
        .iter()
        .filter(|s| s.sku != hot)
        .map(|s| s.sku.clone())
        .collect();
    cold.dedup();
    for sku in cold {
        ids.extend(
            scenarios
                .iter()
                .filter(|s| s.sku == sku)
                .take(160)
                .map(|s| s.id),
        );
    }
    ids
}

/// Times one cold full-grid collect on 8 workers.
fn cold_10k() -> f64 {
    let mut session = Session::create(grid_config(), hpcadvisor_bench::SEED).expect("session");
    let start = Instant::now();
    let report = session
        .collect_with(&CollectPlan::new().workers(8))
        .expect("collect");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.stats.failed, 0, "bench grid must collect cleanly");
    elapsed
}

/// Times one full-grid collect served entirely from a warm cache.
fn warm_10k(cache_path: &PathBuf) -> f64 {
    let mut session = Session::builder(grid_config())
        .seed(hpcadvisor_bench::SEED)
        .cache(ScenarioCache::open(cache_path))
        .build()
        .expect("session");
    let start = Instant::now();
    let report = session.collect_with(&CollectPlan::new()).expect("collect");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.stats.cache_hits, STORE_ENTRIES, "cache must be warm");
    elapsed
}

/// Times one hot-SKU-skew collect on 8 workers under the default chunked
/// work stealing.
fn hot_skew() -> f64 {
    let mut session = Session::create(grid_config(), hpcadvisor_bench::SEED).expect("session");
    let ids = hot_subset(&session);
    let total = ids.len();
    let plan = CollectPlan::new().workers(8).subset(ids);
    let start = Instant::now();
    let report = session.collect_with(&plan).expect("collect");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.stats.executed, total);
    assert_eq!(report.stats.failed, 0);
    elapsed
}

/// Synthesizes the `i`-th store entry (fingerprint + completed point).
fn store_entry(i: usize) -> (Fingerprint, hpcadvisor_core::dataset::DataPoint) {
    let fp = Fingerprint::from_hex(&format!("{i:032x}")).expect("fingerprint");
    let p = point(
        i as u32,
        "openfoam",
        "Standard_HB120rs_v3",
        (i % 4 + 1) as u32,
        120,
        10.0 + (i % 97) as f64,
        0.05,
    );
    (fp, p)
}

/// Times appending `STORE_APPENDS` entries to a 10k-entry store and
/// saving. The store at `path` must already hold the first
/// `STORE_ENTRIES` synthetic entries.
fn cache_save(path: &PathBuf) -> f64 {
    let mut cache = ScenarioCache::open(path);
    assert_eq!(cache.len(), STORE_ENTRIES, "store must be pre-loaded");
    let start = Instant::now();
    for i in 0..STORE_APPENDS {
        let (fp, p) = store_entry(STORE_ENTRIES + i);
        cache.insert(fp, &p);
    }
    cache.save().expect("save");
    start.elapsed().as_secs_f64()
}

/// Builds a `STORE_ENTRIES`-entry store at `path`.
fn build_store(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut cache = ScenarioCache::open(path);
    for i in 0..STORE_ENTRIES {
        let (fp, p) = store_entry(i);
        cache.insert(fp, &p);
    }
    cache.save().expect("build store");
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

struct BenchResult {
    name: &'static str,
    median_secs: f64,
    samples: Vec<f64>,
}

fn sample(name: &'static str, mut one: impl FnMut() -> f64) -> BenchResult {
    let mut samples: Vec<f64> = (0..SAMPLES).map(|_| one()).collect();
    BenchResult {
        name,
        median_secs: median(&mut samples),
        samples,
    }
}

fn run_benches() -> Vec<BenchResult> {
    // Warm the scenario cache once, outside any timed region, and use the
    // same run to ramp the CPU before the first sample.
    let tmp = std::env::temp_dir();
    let cache_path = tmp.join(format!("hpcadvisor-bench-large-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&cache_path);
    {
        let mut session = Session::builder(grid_config())
            .seed(hpcadvisor_bench::SEED)
            .cache(ScenarioCache::open(&cache_path))
            .build()
            .expect("session");
        let report = session
            .collect_with(&CollectPlan::new().workers(8))
            .expect("cache fill");
        assert_eq!(report.stats.failed, 0);
    }

    let mut results = vec![
        sample("cold_10k_8w", cold_10k),
        sample("warm_10k", || warm_10k(&cache_path)),
        sample("hot_skew_stealing", hot_skew),
    ];

    let bin_store = tmp.join(format!(
        "hpcadvisor-bench-large-{}-store.bin",
        std::process::id()
    ));
    results.push(sample("cache_save_binary_10k", || {
        build_store(&bin_store);
        cache_save(&bin_store)
    }));

    for path in [&cache_path, &bin_store] {
        let _ = std::fs::remove_file(path);
    }
    results
}

fn to_json(results: &[BenchResult]) -> String {
    let mut benches = OrderedMap::new();
    for r in results {
        let mut m = OrderedMap::new();
        m.insert("median_secs", Value::Float(r.median_secs));
        m.insert(
            "samples",
            Value::Seq(r.samples.iter().map(|s| Value::Float(*s)).collect()),
        );
        benches.insert(r.name, Value::Map(m));
    }
    let mut doc = OrderedMap::new();
    doc.insert("version", Value::Int(1));
    doc.insert("benches", Value::Map(benches));
    let mut text = json::to_string_pretty(&Value::Map(doc));
    text.push('\n');
    text
}

/// Reads `{bench name -> median_secs}` out of a baseline file.
fn load_baseline(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("bad baseline {path}: {e}"))?;
    let benches = doc
        .get("benches")
        .and_then(|v| v.as_map())
        .ok_or_else(|| format!("baseline {path} has no 'benches' map"))?;
    let mut out = Vec::new();
    for (name, entry) in benches.iter() {
        let median = entry
            .get("median_secs")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline bench '{name}' has no median_secs"))?;
        out.push((name.to_string(), median));
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write = false;
    let mut check: Option<String> = None;
    let mut out: Option<String> = None;
    // A wide default: these grid-scale runs' medians swing ~30% from run
    // to run on shared or single-core machines.
    let mut tolerance = 0.5;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--write" => {
                write = true;
                i += 1;
            }
            "--check" => {
                check = args.get(i + 1).cloned();
                if check.is_none() {
                    eprintln!("--check needs a baseline file\n{USAGE}");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned();
                if out.is_none() {
                    eprintln!("--out needs a file\n{USAGE}");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--tolerance" => {
                match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
                    Some(t) if t >= 0.0 => tolerance = t,
                    _ => {
                        eprintln!("--tolerance needs a non-negative fraction\n{USAGE}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            a => {
                eprintln!("unknown argument '{a}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if write == check.is_some() {
        eprintln!("pick exactly one of --write / --check\n{USAGE}");
        std::process::exit(2);
    }

    let results = run_benches();
    for r in &results {
        println!(
            "{:<24} median {:.3}s over {} samples",
            r.name,
            r.median_secs,
            r.samples.len()
        );
    }

    let out_path = out.unwrap_or_else(|| {
        if write {
            "BENCH_large.json"
        } else {
            "BENCH_large_ci.json"
        }
        .to_string()
    });
    std::fs::write(&out_path, to_json(&results)).expect("write results");
    println!("wrote {out_path}");

    let mut failed = false;
    if let Some(baseline_path) = check {
        let baseline = match load_baseline(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        for (name, base_median) in baseline {
            let Some(r) = results.iter().find(|r| r.name == name) else {
                eprintln!("error: baseline bench '{name}' was not measured");
                failed = true;
                continue;
            };
            // Millisecond-scale medians (the binary-store save, the warm
            // run) sit inside scheduler-noise territory where a purely
            // fractional tolerance is meaningless, so the limit also gets
            // an absolute floor. A real regression on those benches is a
            // return to whole-store behavior — tens to hundreds of ms —
            // which the floor cannot mask.
            const NOISE_FLOOR_SECS: f64 = 0.025;
            let limit = base_median * (1.0 + tolerance) + NOISE_FLOOR_SECS;
            let verdict = if r.median_secs > limit {
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{name:<24} {:.3}s vs baseline {:.3}s (limit {:.3}s): {verdict}",
                r.median_secs, base_median, limit
            );
            if r.median_secs > limit {
                failed = true;
            }
        }
    }
    if failed {
        eprintln!(
            "bench-large check failed (tolerance {:.0}%)",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "bench-large check passed (tolerance {:.0}%)",
        tolerance * 100.0
    );
}
