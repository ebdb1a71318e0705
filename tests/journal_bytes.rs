//! Journal files pinned byte for byte: the same sequence of appends must
//! keep producing the run and service journals checked in under
//! `tests/golden/`. The sequences cover a first append that creates the
//! file, appends after a clean reopen, failed and spot outcomes, a
//! non-ASCII tenant, placed admissions and a service-journal compaction.

use hpcadvisor::core::cache::{CachePolicy, Fingerprint};
use hpcadvisor::core::dataset::point;
use hpcadvisor::core::service_state::{PendingJob, ServiceJournal, ServiceRecord};
use hpcadvisor::core::{Capacity, JournalEntry, Pairs, RunJournal, ScenarioStatus};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcadvisor-bytes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_golden(name: &str, actual: &[u8]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected =
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        actual == expected,
        "{name} differs from its golden file:\n{}",
        String::from_utf8_lossy(actual)
    );
}

fn entry(id: u32) -> JournalEntry {
    let mut p = point(
        id,
        "lammps",
        "Standard_HB120rs_v3",
        id,
        120,
        9.5 + f64::from(id),
        0.03,
    );
    p.metrics = Pairs::from([("NOTE", format!("µ-run \"{id}\""))]);
    if id.is_multiple_of(2) {
        p.capacity = Capacity::Spot;
        p.region = Some("westeurope".into());
    }
    JournalEntry {
        fingerprint: Fingerprint::from_hex(&format!("{:032x}", 0xb17e_0000_u128 + u128::from(id)))
            .unwrap(),
        scenario_id: id,
        status: p.status,
        attempts: id,
        backoff_secs: 0.5 * f64::from(id),
        fail_reason: None,
        point: Some(p),
    }
}

#[test]
fn run_journal_bytes_are_pinned() {
    let dir = scratch_dir("run");
    let path = dir.join("run.jsonl");
    let mut journal = RunJournal::open_fresh(&path);
    journal.append(entry(1));
    journal.append(JournalEntry {
        status: ScenarioStatus::Failed,
        fail_reason: Some("quota \"exceeded\"".into()),
        point: None,
        ..entry(2)
    });
    drop(journal);
    let mut journal = RunJournal::open(&path);
    journal.append(entry(3));
    journal.append(entry(4));
    drop(journal);
    assert_golden("run.journal.jsonl", &std::fs::read(&path).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

fn admitted(key: &str, tenant: &str, regions: &[&str]) -> ServiceRecord {
    ServiceRecord::Admitted(PendingJob {
        key: key.into(),
        tenant: tenant.into(),
        seed: 7,
        workers: 2,
        config_yaml: "appname: lammps\nskus:\n- Standard_HC44rs\n".into(),
        regions: regions.iter().map(|r| r.to_string()).collect(),
        cache_policy: (!regions.is_empty()).then_some(CachePolicy::ReadOnly),
    })
}

fn spend(tenant: &str, dollars: f64) -> ServiceRecord {
    ServiceRecord::Spend {
        tenant: tenant.into(),
        dollars,
    }
}

#[test]
fn service_journal_bytes_are_pinned() {
    let dir = scratch_dir("service");
    let path = dir.join("service-journal.jsonl");
    let mut journal = ServiceJournal::open(&path);
    journal.append(admitted("held", "µ-lab", &["southcentralus", "westeurope"]));
    journal.append(spend("µ-lab", 0.125));
    drop(journal);
    let mut journal = ServiceJournal::open(&path);
    // Enough churn for the history to outgrow the live state and compact.
    for i in 0..12 {
        let tenant = ["acme", "µ-lab"][i % 2];
        journal.append(admitted(&format!("k{i}"), tenant, &[]));
        journal.append(spend(tenant, 1.5 + i as f64 / 8.0));
        journal.append(ServiceRecord::Done {
            key: format!("k{i}"),
        });
    }
    journal.append(admitted("tail", "acme", &["eastus"]));
    drop(journal);
    assert_golden("service.journal.jsonl", &std::fs::read(&path).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
