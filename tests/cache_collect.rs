//! Incremental collection through the content-addressed scenario cache:
//! a warm run must be byte-identical to a cold run, provision nothing,
//! and survive cache-file damage by degrading to a cold run.

use hpcadvisor::core::cache::{CachePolicy, Fingerprint, ScenarioCache};
use hpcadvisor::core::JournalEntry;
use hpcadvisor::prelude::*;
use std::path::PathBuf;

fn config() -> UserConfig {
    UserConfig::from_yaml(
        r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v3
rgprefix: cachetest
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

fn cache_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "hpcadvisor-itest-{tag}-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn session_with_cache(config: UserConfig, path: &PathBuf) -> Session {
    session_with(config, path, 42, CachePolicy::ReadWrite)
}

fn session_with(config: UserConfig, path: &PathBuf, seed: u64, policy: CachePolicy) -> Session {
    Session::builder(config)
        .seed(seed)
        .cache(ScenarioCache::open(path))
        .cache_policy(policy)
        .build()
        .unwrap()
}

#[test]
fn warm_rerun_is_byte_identical_and_provisions_nothing() {
    let path = cache_path("warm");

    // Cold run: populates the cache file.
    let mut cold = session_with_cache(config(), &path);
    let cold_report = cold.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(cold_report.stats.executed, 6);
    assert_eq!(cold_report.stats.cache_hits, 0);
    assert_eq!(cold_report.stats.cache_misses, 6);
    assert!(cold.total_cloud_cost() > 0.0, "cold run provisions pools");
    let cold_json = cold_report.dataset.to_json();
    assert!(path.exists(), "cache persisted");

    // Warm run in a brand new session/deployment over the same cache file.
    let mut warm = session_with_cache(config(), &path);
    let warm_report = warm.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(warm_report.stats.cache_hits, 6);
    assert_eq!(warm_report.stats.cache_misses, 0);
    assert_eq!(warm_report.stats.executed, 0);
    assert_eq!(warm_report.stats.completed, 6);
    assert!(warm_report.outcomes.iter().all(|o| o.cached));
    assert!(warm_report.outcomes.iter().all(|o| o.shard.is_none()));

    // Zero provisioning: no pool was ever created, so nothing was billed.
    assert!(warm_report.billing.is_empty(), "no pools on a warm run");
    assert_eq!(warm.total_cloud_cost(), 0.0, "warm run costs nothing");

    // Byte-identical dataset, and statuses written back.
    assert_eq!(warm_report.dataset.to_json(), cold_json);
    assert!(warm
        .scenarios()
        .iter()
        .all(|s| s.status == ScenarioStatus::Completed));
    assert!(warm_report.render_text().contains("6 hits"));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn parallel_warm_run_matches_serial_cold_run() {
    let path = cache_path("parallel");
    let serial_cold = {
        let mut s = Session::create(config(), 42).unwrap();
        s.collect().unwrap().to_json()
    };
    // Populate the cache with a parallel cold run...
    let mut s = session_with_cache(config(), &path);
    let report = s.collect_with(&CollectPlan::new().workers(4)).unwrap();
    assert_eq!(report.dataset.to_json(), serial_cold);
    // ...then a parallel warm run serves everything id-ordered from cache.
    let mut warm = session_with_cache(config(), &path);
    let report = warm.collect_with(&CollectPlan::new().workers(4)).unwrap();
    assert_eq!(report.stats.cache_hits, 6);
    assert_eq!(report.dataset.to_json(), serial_cold);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_cache_file_degrades_to_a_cold_run() {
    let path = cache_path("corrupt");
    std::fs::write(&path, "{\"version\": 1, \"entries\": {\"tru").unwrap();
    let cold_json = {
        let mut s = Session::create(config(), 42).unwrap();
        s.collect().unwrap().to_json()
    };
    let mut s = session_with_cache(config(), &path);
    assert!(s.cache().recovered(), "damage detected, not fatal");
    let report = s.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 0);
    assert_eq!(report.stats.executed, 6);
    assert_eq!(report.dataset.to_json(), cold_json);
    // The rewritten cache file is healthy again and serves a warm run.
    let mut warm = session_with_cache(config(), &path);
    assert!(!warm.cache().recovered());
    let report = warm.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 6);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn changed_fingerprint_inputs_invalidate_automatically() {
    let path = cache_path("invalidate");
    let mut s = session_with_cache(config(), &path);
    s.collect_with(&CollectPlan::new()).unwrap();

    // Same config, different experiment seed: every fingerprint moves.
    let mut other_seed = session_with(config(), &path, 43, CachePolicy::ReadWrite);
    let report = other_seed.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 0, "seed is fingerprinted");
    assert_eq!(report.stats.executed, 6);

    // A widened node grid keeps the overlapping points warm even though
    // scenario ids shift: only the new node counts run.
    let mut wide_config = config();
    wide_config.nnodes = vec![1, 2, 4, 8];
    let mut widened = session_with_cache(wide_config, &path);
    let report = widened.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 6, "old grid points reused");
    assert_eq!(report.stats.executed, 2, "only the two new 8-node points");
    let ids: Vec<u32> = report
        .dataset
        .points
        .iter()
        .map(|p| p.scenario_id)
        .collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "merged id-ordered");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn read_only_and_off_policies() {
    let path = cache_path("policies");

    // ReadOnly on an empty cache: runs cold, writes nothing.
    let mut s = session_with(config(), &path, 42, CachePolicy::ReadOnly);
    let report = s.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.executed, 6);
    assert!(!path.exists(), "read-only never persists");

    // Populate, then Off: the warm file is ignored entirely.
    let mut s = session_with_cache(config(), &path);
    s.collect_with(&CollectPlan::new()).unwrap();
    assert!(path.exists());
    let mut off = session_with(config(), &path, 42, CachePolicy::Off);
    let report = off.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 0);
    assert_eq!(report.stats.cache_misses, 0);
    assert_eq!(report.stats.executed, 6);

    // ReadOnly on the warm file: full hits, and the file is untouched
    // (compared as raw bytes — the store is a binary record log).
    let before = std::fs::read(&path).unwrap();
    let mut ro = session_with(config(), &path, 42, CachePolicy::ReadOnly);
    let report = ro.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 6);
    assert_eq!(std::fs::read(&path).unwrap(), before);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serial_collect_consults_the_cache_too() {
    let path = cache_path("serial");
    let mut s = session_with_cache(config(), &path);
    let cold = s.collect().unwrap();
    assert_eq!(cold.len(), 6);

    let mut warm = session_with_cache(config(), &path);
    let ds = warm.collect().unwrap();
    assert_eq!(ds.to_json(), cold.to_json());
    assert_eq!(warm.total_cloud_cost(), 0.0, "legacy path also warm");
    let _ = std::fs::remove_file(&path);
}

/// A script that reports a non-finite `APPEXECTIME` gets the task duration
/// instead, as for an unparsable one: `NaN` and `inf` are not JSON, so they
/// would otherwise end up in the dataset file and the cache store.
#[test]
fn non_finite_app_exec_time_falls_back_to_the_task_duration() {
    const SCRIPT: &str = "\
hpcadvisor_setup() {
  return 0
}

hpcadvisor_run() {
  T=12.5
  if [[ $NNODES == 1 ]]; then
    T=nan
  fi
  if [[ $NNODES == 2 ]]; then
    T=-inf
  fi
  echo \"HPCADVISORVAR APPEXECTIME=$T\"
}
";
    let path = cache_path("non-finite");
    let config = config();
    let session = || {
        Session::builder(config.clone())
            .seed(42)
            .cache(ScenarioCache::open(&path))
            .script(config.appsetupurl.clone(), SCRIPT)
            .build()
            .unwrap()
    };
    let report = session().collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.completed, 6);
    for p in &report.dataset.points {
        assert!(p.task_secs > 0.0);
        let want = if p.nnodes <= 2 { p.task_secs } else { 12.5 };
        assert_eq!(p.exec_time_secs, want, "{} nodes", p.nnodes);
        assert!(p.cost_dollars.is_finite());
    }
    let text = report.dataset.to_json();
    assert_eq!(Dataset::from_json(&text).unwrap(), report.dataset);

    // Every point reached the store, and the store reopens whole.
    let reopened = ScenarioCache::open(&path);
    assert_eq!(reopened.len(), 6);
    assert!(!reopened.recovered());
    let warm = session().collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(warm.stats.cache_hits, 6);
    assert_eq!(warm.dataset.to_json(), text);
    let _ = std::fs::remove_file(&path);
}

/// FNV-1a-64, the store's per-record checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// A store record whose checksum holds but whose payload is not a point
/// (a record written by a future schema, or damage the checksum missed)
/// costs one re-run of its scenario, not the records after it.
#[test]
fn an_undecodable_record_reruns_only_its_scenario() {
    let path = cache_path("undecodable");
    let mut cold = session_with_cache(config(), &path);
    cold.collect_with(&CollectPlan::new()).unwrap();

    // Walk the documented framing after the 20-byte header, [u32 LE
    // len][16-byte BE fingerprint + encoded point][u64 LE FNV-1a of
    // fingerprint + point], and swap the middle record's point for
    // checksummed bytes that do not decode as one (read as a point, they
    // give an appname longer than the record).
    let log = std::fs::read(&path).unwrap();
    let mut records = Vec::new();
    let mut pos = 20;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        let fp = u128::from_be_bytes(log[pos + 4..pos + 20].try_into().unwrap());
        records.push((pos, pos + 12 + len, fp));
        pos += 12 + len;
    }
    assert_eq!(records.len(), 6);
    let fp = |n: u128| Fingerprint::from_hex(&format!("{n:032x}")).unwrap();
    let (start, end, bad) = records[2];
    let mut payload = bad.to_be_bytes().to_vec();
    payload.extend_from_slice(b"{\"not\": \"a point\"}");
    let mut damaged = log[..start].to_vec();
    damaged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    damaged.extend_from_slice(&payload);
    damaged.extend_from_slice(&fnv64(&payload).to_le_bytes());
    damaged.extend_from_slice(&log[end..]);
    std::fs::write(&path, &damaged).unwrap();

    // Both neighbours, and every other record, are still served.
    let cache = ScenarioCache::open(&path);
    assert!(!cache.recovered());
    for &(_, _, n) in &records {
        let served = cache.lookup(fp(n));
        assert_eq!(served.is_none(), n == bad, "record {n:032x}");
    }
    drop(cache);

    // A collect re-runs that one scenario and its insert supersedes the
    // bad record.
    let mut warm = session_with_cache(config(), &path);
    let report = warm.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 5);
    assert_eq!(report.stats.cache_misses, 1);
    assert_eq!(report.stats.executed, 1);
    assert_eq!(report.stats.completed, 6);
    let warm_json = report.dataset.to_json();

    // The reopened store serves it, and the next collect is all hits.
    let reopened = ScenarioCache::open(&path);
    assert!(reopened.lookup(fp(bad)).is_some());
    drop(reopened);
    let mut again = session_with_cache(config(), &path);
    let report = again.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.cache_hits, 6);
    assert_eq!(report.dataset.to_json(), warm_json);
    let _ = std::fs::remove_file(&path);
}

/// A script that prints a variable twice: the point keeps the key's first
/// position and its last value, as the dataset file writes it, so the cold
/// run, a warm run from the cache and the dataset file read back all
/// agree.
#[test]
fn a_metric_printed_twice_reads_the_same_cold_and_warm() {
    let script = hpcadvisor::core::appscript::OPENFOAM_SCRIPT.replace(
        "    echo \"HPCADVISORVAR OFCELLS=$OFCELLS\"\n",
        "    echo \"HPCADVISORVAR OFCELLS=$OFCELLS\"\n    echo \"HPCADVISORVAR OFCELLS=second\"\n",
    );
    assert!(script.contains("OFCELLS=second"));
    let config = UserConfig::from_yaml(
        r#"
subscription: mysubscription
skus:
- Standard_HB120rs_v3
rgprefix: twicetest
appsetupurl: https://example.com/scripts/openfoam.sh
nnodes: [1, 2]
appname: openfoam
region: southcentralus
ppr: 100
appinputs:
  mesh: "40 16 16"
"#,
    )
    .unwrap();
    let path = cache_path("printed-twice");
    let collect = || {
        Session::builder(config.clone())
            .seed(42)
            .cache(ScenarioCache::open(&path))
            .script(config.appsetupurl.clone(), &script)
            .build()
            .unwrap()
            .collect_with(&CollectPlan::new())
            .unwrap()
    };
    let cold = collect();
    assert_eq!(cold.stats.executed, 2);
    let warm = collect();
    assert_eq!(warm.stats.cache_hits, 2);
    let read_back = Dataset::from_json(&cold.dataset.to_json()).unwrap();
    for ds in [&cold.dataset, &warm.dataset, &read_back] {
        for p in &ds.points {
            assert_eq!(p.metric("OFCELLS"), Some("second"));
            let keys: Vec<&str> = p.metrics.iter().map(|(k, _)| k).collect();
            assert_eq!(keys, ["APPEXECTIME", "OFCELLS"]);
        }
    }
    assert_eq!(warm.dataset.to_json(), cold.dataset.to_json());
    assert_eq!(warm.dataset.to_csv(), cold.dataset.to_csv());
    assert_eq!(read_back.to_csv(), cold.dataset.to_csv());
    let _ = std::fs::remove_file(&path);
}

/// One collect that draws on all three sources: the run journal replays
/// some scenarios, the cache answers others, and the rest execute. The
/// dataset matches an uninterrupted cold run, each cache hit is journaled
/// once as finished without an attempt, and the store gains the replayed
/// points an interrupted run never got to save.
#[test]
fn a_resumed_collect_replays_the_journal_serves_the_cache_and_runs_the_rest() {
    let path = cache_path("three-way");
    let journal_path = cache_path("three-way-journal");
    let cold_json = {
        let mut s = Session::create(config(), 42).unwrap();
        s.collect().unwrap().to_json()
    };
    let ids: Vec<u32> = Session::create(config(), 42)
        .unwrap()
        .scenarios()
        .iter()
        .map(|s| s.id)
        .collect();
    assert_eq!(ids.len(), 6);
    let (journaled, rest) = ids.split_at(2);
    let cached = &rest[..2];

    // An interrupted run journaled its first two scenarios and saved
    // nothing to the store; another run stored the next two.
    let mut interrupted = Session::builder(config())
        .seed(42)
        .journal(RunJournal::open_fresh(&journal_path))
        .build()
        .unwrap();
    interrupted
        .collect_with(&CollectPlan::new().subset(journaled))
        .unwrap();
    drop(interrupted);
    session_with_cache(config(), &path)
        .collect_with(&CollectPlan::new().subset(cached))
        .unwrap();
    assert_eq!(ScenarioCache::open(&path).len(), 2);

    let mut resumed = Session::builder(config())
        .seed(42)
        .cache(ScenarioCache::open(&path))
        .journal(RunJournal::open(&journal_path))
        .build()
        .unwrap();
    let report = resumed.collect_with(&CollectPlan::new()).unwrap();
    assert_eq!(report.stats.journal_replayed, 2);
    assert_eq!(report.stats.cache_hits, 2);
    assert_eq!(report.stats.cache_misses, 2);
    assert_eq!(report.stats.executed, 2);
    assert_eq!(report.dataset.to_json(), cold_json);
    drop(resumed);

    // One line per scenario: the replays' from the interrupted run, one
    // attempt-free line per cache hit, and the executed scenarios' own.
    let journal = RunJournal::open(&journal_path);
    assert_eq!(journal.len(), 6);
    for &id in &ids {
        let lines: Vec<&JournalEntry> = journal
            .entries()
            .iter()
            .filter(|e| e.scenario_id == id)
            .collect();
        assert_eq!(lines.len(), 1, "scenario {id}: {lines:?}");
        assert_eq!(lines[0].status, ScenarioStatus::Completed);
        assert_eq!(lines[0].attempts == 0, cached.contains(&id), "{id}");
    }

    // The store now holds every point, the replayed ones included, and
    // serves the whole grid.
    assert_eq!(ScenarioCache::open(&path).len(), 6);
    let report = session_with_cache(config(), &path)
        .collect_with(&CollectPlan::new())
        .unwrap();
    assert_eq!(report.stats.cache_hits, 6);
    assert_eq!(report.dataset.to_json(), cold_json);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&journal_path);
}
