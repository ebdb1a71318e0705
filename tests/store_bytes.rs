//! Scenario-cache store files pinned byte for byte: the same sequence of
//! inserts and saves must keep producing the `.bin` record logs checked in
//! under `tests/golden/`. The sequence covers a fresh store's first save (a
//! segment rotation), an append save after a reopen, a superseding insert,
//! a compaction once dead records outnumber live ones, and `clear`
//! followed by a save. Only the record log is pinned, its 20-byte header
//! (magic, model version, catalog revision) included.

use hpcadvisor::core::cache::{Fingerprint, ScenarioCache};
use hpcadvisor::core::dataset::{point, DataPoint};
use hpcadvisor::core::{Capacity, Pairs};
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
    p.appinputs = Pairs::from([("BOXFACTOR", format!("{}", 10 + id))]);
    p.metrics = Pairs::from([("NOTE", format!("µ-run \"{id}\""))]);
    p.infra = Pairs::from([("cpu", "93.5")]);
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
