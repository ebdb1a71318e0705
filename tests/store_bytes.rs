//! Scenario-cache store files pinned byte for byte: the same sequence of
//! inserts and saves must keep producing the `.bin` record logs checked in
//! under `tests/golden/`. The sequence covers a fresh store's first save (a
//! segment rotation), an append save after a reopen, a superseding insert,
//! a compaction once dead records outnumber live ones, and `clear`
//! followed by a save. Only the record log is pinned.
//!
//! The same sequence's files as the previous log version wrote them
//! (`HPCAV001`, records of compact JSON) are kept under `tests/golden/v1/`:
//! each must open to the points the sequence left live and save as the
//! current layout's bytes.

use hpcadvisor::core::cache::{Fingerprint, ScenarioCache, StoreFormat};
use hpcadvisor::core::dataset::{point, DataPoint};
use hpcadvisor::core::Capacity;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcadvisor-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares a store file with its golden; on a mismatch the actual bytes
/// are left next to the store as `<name>.actual` for inspection.
fn assert_golden(name: &str, store: &Path) {
    let expected = std::fs::read(golden_path(name)).unwrap_or_default();
    assert_bytes(name, store, &expected);
}

fn assert_bytes(name: &str, store: &Path, expected: &[u8]) {
    let actual = std::fs::read(store).unwrap();
    if actual != expected {
        let dump = store.with_file_name(format!("{name}.actual"));
        std::fs::write(&dump, &actual).unwrap();
        panic!(
            "{name} differs from its golden file ({} vs {} bytes); actual bytes in {}",
            actual.len(),
            expected.len(),
            dump.display()
        );
    }
}

fn fp(n: u128) -> Fingerprint {
    Fingerprint::from_hex(&format!("{:032x}", 0x5707_e000_u128 + n)).unwrap()
}

fn sample(id: u32) -> DataPoint {
    let mut p = point(
        id,
        "lammps",
        "Standard_HB120rs_v3",
        id,
        120,
        7.25 + f64::from(id),
        0.02 * f64::from(id),
    );
    p.appinputs = vec![("BOXFACTOR".into(), format!("{}", 10 + id))];
    p.metrics = vec![("NOTE".into(), format!("µ-run \"{id}\""))];
    p.infra = vec![("cpu".into(), "93.5".into())];
    if id.is_multiple_of(3) {
        p.capacity = Capacity::Spot;
        p.region = Some("westeurope".into());
    }
    p
}

#[test]
fn cache_store_bytes_are_pinned() {
    let dir = scratch_dir("seq");
    let path = dir.join("scenario-cache.bin");

    // A fresh store's first save rotates a whole segment in fingerprint
    // order, whatever the insert order was.
    let mut cache = ScenarioCache::open(&path);
    for n in [4u32, 1, 3, 2] {
        assert!(cache.insert(fp(n.into()), &sample(n)));
    }
    cache.save().unwrap();
    drop(cache);
    assert_golden("store.fresh.bin", &path);

    // After a reopen, a save appends the new records in fingerprint order.
    let mut cache = ScenarioCache::open(&path);
    assert_eq!(cache.len(), 4);
    for n in [7u32, 5, 6] {
        assert!(cache.insert(fp(n.into()), &sample(n)));
    }
    assert!(
        !cache.insert(fp(1), &sample(1)),
        "identical insert is a no-op"
    );
    cache.save().unwrap();
    assert_golden("store.append.bin", &path);

    // A superseding insert appends its replacement; the old record stays
    // in the log as a dead record.
    let mut newer = sample(2);
    newer.exec_time_secs += 0.5;
    assert!(cache.insert(fp(2), &newer));
    assert!(cache.insert(fp(8), &sample(8)));
    cache.save().unwrap();
    drop(cache);
    assert_golden("store.supersede.bin", &path);

    // Once dead records outnumber live ones, the save compacts: 1 dead on
    // disk and 8 more superseded here, against 8 live.
    let mut cache = ScenarioCache::open(&path);
    for n in 1..=8u32 {
        let mut p = sample(n);
        p.deployment = "rg-next".into();
        assert!(cache.insert(fp(n.into()), &p));
    }
    assert_eq!(cache.len(), 8);
    cache.save().unwrap();
    drop(cache);
    assert_golden("store.compact.bin", &path);
    let reopened = ScenarioCache::open(&path);
    assert_eq!(reopened.len(), 8);
    assert!(!reopened.is_dirty(), "a compacted store opens clean");
    drop(reopened);

    // clear drops every entry; the next save rewrites the store with only
    // what was inserted after it.
    let mut cache = ScenarioCache::open(&path);
    cache.clear();
    assert!(cache.insert(fp(9), &sample(9)));
    cache.save().unwrap();
    drop(cache);
    assert_golden("store.clear.bin", &path);
    assert_eq!(ScenarioCache::open(&path).len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The points each golden's store holds live, by golden name.
fn live_after_each_step() -> Vec<(&'static str, Vec<(Fingerprint, DataPoint)>)> {
    let sampled = |ns: &[u32]| -> Vec<(Fingerprint, DataPoint)> {
        ns.iter().map(|&n| (fp(n.into()), sample(n))).collect()
    };
    let mut supersede = sampled(&[1, 2, 3, 4, 5, 6, 7, 8]);
    supersede[1].1.exec_time_secs += 0.5;
    let mut compact = sampled(&[1, 2, 3, 4, 5, 6, 7, 8]);
    for (_, p) in &mut compact {
        p.deployment = "rg-next".into();
    }
    vec![
        ("store.fresh.bin", sampled(&[1, 2, 3, 4])),
        ("store.append.bin", sampled(&[1, 2, 3, 4, 5, 6, 7])),
        ("store.supersede.bin", supersede),
        ("store.compact.bin", compact),
        ("store.clear.bin", sampled(&[9])),
    ]
}

/// A log's live records (the last one per fingerprint) in fingerprint
/// order behind its magic: what a rotation of that log writes. Walks the
/// documented framing, `[u32 LE len][16-byte BE fingerprint + point][u64
/// LE checksum]`.
fn rotated(log: &[u8]) -> Vec<u8> {
    let mut latest = std::collections::BTreeMap::new();
    let mut pos = 8;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        let fp = u128::from_be_bytes(log[pos + 4..pos + 20].try_into().unwrap());
        latest.insert(fp, &log[pos..pos + 12 + len]);
        pos += 12 + len;
    }
    let mut out = log[..8].to_vec();
    for record in latest.values() {
        out.extend_from_slice(record);
    }
    out
}

#[test]
fn v1_store_files_upgrade_to_the_current_layout() {
    let dir = scratch_dir("v1");
    for (name, live) in live_after_each_step() {
        let path = dir.join(name);
        std::fs::copy(golden_path(&format!("v1/{name}")), &path).unwrap();
        let mut cache = ScenarioCache::open(&path);
        assert_eq!(cache.format(), StoreFormat::BinaryV1, "{name}");
        assert!(cache.is_dirty(), "{name}: the rewrite is due on open");
        assert!(!cache.recovered(), "{name}");
        assert_eq!(cache.len(), live.len(), "{name}");
        for (fp, p) in &live {
            assert_eq!(cache.lookup(*fp).as_ref(), Some(p), "{name}: {fp}");
        }

        // The upgrade is a rotation: the current golden's live records in
        // fingerprint order. Only the supersede golden keeps a dead record
        // that a rotation drops.
        cache.save().unwrap();
        let golden = std::fs::read(golden_path(name)).unwrap();
        let expected = rotated(&golden);
        assert_eq!(expected == golden, name != "store.supersede.bin", "{name}");
        assert_bytes(name, &path, &expected);
        assert_eq!(ScenarioCache::open(&path).format(), StoreFormat::Binary);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
