//! Crash safety of the on-disk stores, checked by enumeration rather than
//! by example: every truncation offset and every single-bit flip of a small
//! binary scenario-cache store, and every truncation offset of a run
//! journal. Each damaged file must open without panicking, give back
//! exactly the records that precede the damage, and heal on the next write.

use hpcadvisor::core::cache::{Fingerprint, ScenarioCache, StoreFormat};
use hpcadvisor::core::dataset::point;
use hpcadvisor::core::Capacity;
use hpcadvisor::core::{DataPoint, JournalEntry, RunJournal, ScenarioStatus};
use std::path::{Path, PathBuf};

/// Length of the binary log's magic prefix (`HPCAV001`).
const LOG_MAGIC_LEN: usize = 8;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcadvisor-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fingerprint(n: u32) -> Fingerprint {
    Fingerprint::from_hex(&format!("{:032x}", 0x5eed_0000_u128 + u128::from(n))).unwrap()
}

/// Four points that exercise every optional field, escaped strings and a
/// multi-byte character.
fn points() -> Vec<(Fingerprint, DataPoint)> {
    (1..=4u32)
        .map(|id| {
            let mut p = point(
                id,
                "lammps",
                "Standard_HB120rs_v3",
                id,
                120,
                10.0 + f64::from(id) / 3.0,
                0.05 * f64::from(id),
            );
            p.appinputs = vec![("BOXFACTOR".into(), format!("{}", 8 * id))];
            p.metrics = vec![("NOTE".into(), format!("run \"{id}\"\t\\ok in {id} µs"))];
            if id % 2 == 0 {
                p.capacity = Capacity::Spot;
                p.region = Some("westeurope".into());
            }
            (fingerprint(id), p)
        })
        .collect()
}

fn index_path(store: &Path) -> PathBuf {
    let mut os = store.as_os_str().to_os_string();
    os.push(".idx");
    PathBuf::from(os)
}

/// Writes the reference store and returns its log and index bytes plus the
/// end offset of every record, in log order.
fn reference_store(dir: &Path) -> (Vec<u8>, Vec<u8>, Vec<(usize, Fingerprint)>) {
    let path = dir.join("reference.bin");
    let mut cache = ScenarioCache::open(&path);
    for (fp, p) in points() {
        assert!(cache.insert(fp, &p));
    }
    cache.save().unwrap();
    let log = std::fs::read(&path).unwrap();
    let idx = std::fs::read(index_path(&path)).unwrap();
    // Walk the documented record framing:
    // [u32 LE len][16-byte BE fingerprint + JSON][u64 LE checksum].
    let mut ends = Vec::new();
    let mut pos = LOG_MAGIC_LEN;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        let fp = u128::from_be_bytes(log[pos + 4..pos + 20].try_into().unwrap());
        pos += 12 + len;
        ends.push((pos, Fingerprint::from_hex(&format!("{fp:032x}")).unwrap()));
    }
    assert_eq!(pos, log.len(), "the reference log frames cleanly");
    assert_eq!(ends.len(), 4);
    (log, idx, ends)
}

/// Opens a damaged store, checks it salvaged exactly `survivors`, then
/// checks that one save heals it and that re-inserting the lost records
/// restores the full store.
fn check_damaged_store(
    path: &Path,
    what: &str,
    survivors: &[Fingerprint],
    expect_recovered: bool,
    binary: bool,
) {
    let all = points();
    let mut cache = ScenarioCache::open(path);
    assert_eq!(
        cache.len(),
        survivors.len(),
        "{what}: salvaged record count"
    );
    for (fp, p) in &all {
        let want = survivors.contains(fp).then(|| p.clone());
        assert_eq!(cache.lookup(*fp), want, "{what}: record {fp}");
    }
    assert_eq!(
        cache.recovered(),
        expect_recovered,
        "{what}: recovered flag"
    );

    // The next save heals the file: a reopen is clean and loses nothing
    // that was salvaged.
    cache.save().unwrap();
    let reopened = ScenarioCache::open(path);
    assert_eq!(reopened.len(), survivors.len(), "{what}: after heal");
    assert!(
        !reopened.recovered(),
        "{what}: healed store is not recovered"
    );
    assert!(!reopened.is_dirty(), "{what}: healed store is clean");

    // Re-running the lost scenarios and saving again restores every record.
    let mut cache = reopened;
    for (fp, p) in &all {
        cache.insert(*fp, p);
    }
    cache.save().unwrap();
    let full = ScenarioCache::open(path);
    assert_eq!(full.len(), all.len(), "{what}: refilled store");
    for (fp, p) in &all {
        assert_eq!(full.lookup(*fp).as_ref(), Some(p), "{what}: record {fp}");
    }
    assert!(!full.recovered() && !full.is_dirty(), "{what}: refilled");
    if binary {
        assert_eq!(full.format(), StoreFormat::Binary, "{what}: format");
    }
}

fn survivors_before(ends: &[(usize, Fingerprint)], offset: usize) -> Vec<Fingerprint> {
    ends.iter()
        .filter(|(end, _)| *end <= offset)
        .map(|(_, fp)| *fp)
        .collect()
}

#[test]
fn cache_store_survives_truncation_at_every_offset() {
    let dir = scratch_dir("store-truncate");
    let (log, idx, ends) = reference_store(&dir);
    let path = dir.join("damaged.bin");
    for cut in 0..log.len() {
        std::fs::write(&path, &log[..cut]).unwrap();
        std::fs::write(index_path(&path), &idx).unwrap();
        // A cut on a record boundary leaves a valid (shorter) log whose
        // index is merely stale; any other cut tears a record.
        let on_boundary = cut == LOG_MAGIC_LEN || ends.iter().any(|(end, _)| *end == cut);
        check_damaged_store(
            &path,
            &format!("truncated at {cut}"),
            &survivors_before(&ends, cut),
            !on_boundary,
            cut >= LOG_MAGIC_LEN,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_store_survives_a_bit_flip_at_every_offset() {
    let dir = scratch_dir("store-flip");
    let (log, idx, ends) = reference_store(&dir);
    let path = dir.join("damaged.bin");
    for at in 0..log.len() {
        let mut damaged = log.clone();
        damaged[at] ^= 1 << (at % 8);
        std::fs::write(&path, &damaged).unwrap();
        std::fs::write(index_path(&path), &idx).unwrap();
        check_damaged_store(
            &path,
            &format!("bit flipped at {at}"),
            &survivors_before(&ends, at),
            true,
            at >= LOG_MAGIC_LEN,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_store_survives_a_bit_flip_anywhere_in_its_index() {
    let dir = scratch_dir("store-index-flip");
    let (log, idx, ends) = reference_store(&dir);
    let all: Vec<Fingerprint> = ends.iter().map(|(_, fp)| *fp).collect();
    let path = dir.join("damaged.bin");
    for at in 0..idx.len() {
        let mut damaged = idx.clone();
        damaged[at] ^= 1 << (at % 8);
        std::fs::write(&path, &log).unwrap();
        std::fs::write(index_path(&path), &damaged).unwrap();
        // The log is the source of truth: nothing is lost or flagged, and
        // the index is rebuilt on the next save.
        let what = format!("index bit flipped at {at}");
        assert!(ScenarioCache::open(&path).is_dirty(), "{what}: rebuild due");
        check_damaged_store(&path, &what, &all, false, true);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn journal_entries() -> Vec<JournalEntry> {
    let mut entries: Vec<JournalEntry> = points()
        .into_iter()
        .map(|(fp, p)| JournalEntry {
            fingerprint: fp,
            scenario_id: p.scenario_id,
            status: p.status,
            attempts: p.scenario_id,
            backoff_secs: 1.5 * f64::from(p.scenario_id - 1),
            fail_reason: None,
            point: Some(p),
        })
        .collect();
    // A failed outcome carries a reason and no point.
    entries[2].status = ScenarioStatus::Failed;
    entries[2].fail_reason = Some("quota \"exceeded\"".into());
    entries[2].point = None;
    entries.push(JournalEntry {
        fingerprint: fingerprint(5),
        scenario_id: 5,
        status: ScenarioStatus::Completed,
        attempts: 1,
        backoff_secs: 0.0,
        fail_reason: None,
        point: Some(point(5, "lammps", "Standard_HC44rs", 2, 44, 9.25, 0.02)),
    });
    entries
}

#[test]
fn run_journal_survives_truncation_at_every_offset() {
    let dir = scratch_dir("journal-truncate");
    let entries = journal_entries();
    let (written, last) = entries.split_at(entries.len() - 1);
    // The reference files: the journal after the first four appends, and
    // after all five.
    let path = dir.join("reference.jsonl");
    let mut journal = RunJournal::open_fresh(&path);
    for e in written {
        journal.append(e.clone());
    }
    let four = std::fs::read(&path).unwrap();
    journal.append(last[0].clone());
    drop(journal);
    let five = std::fs::read(&path).unwrap();
    assert!(five.starts_with(&four));

    // Where each line's text ends (before its newline); line 0 is the
    // header.
    let text_ends: Vec<usize> = four
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == b'\n')
        .map(|(i, _)| i)
        .collect();
    assert_eq!(text_ends.len(), written.len() + 1);

    let path = dir.join("damaged.jsonl");
    for cut in 0..four.len() {
        let what = format!("truncated at {cut}");
        std::fs::write(&path, &four[..cut]).unwrap();
        let mut journal = RunJournal::open(&path);
        // Every line whose text survived whole replays, in order.
        let intact = if text_ends[0] <= cut {
            text_ends[1..].iter().filter(|end| **end <= cut).count()
        } else {
            0
        };
        assert_eq!(journal.entries(), &written[..intact], "{what}: replay");
        // The collector re-runs what was lost, then carries on: the healed
        // file is byte-identical to the uninterrupted journal.
        for e in &entries[intact..] {
            journal.append(e.clone());
        }
        drop(journal);
        assert!(
            std::fs::read(&path).unwrap() == five,
            "{what}: healed file differs from the uninterrupted journal"
        );
        let reopened = RunJournal::open(&path);
        assert!(!reopened.recovered(), "{what}: healed journal is clean");
        assert_eq!(reopened.entries(), &entries[..], "{what}: nothing lost");
        for e in &entries {
            assert_eq!(reopened.lookup(e.fingerprint), Some(e), "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
