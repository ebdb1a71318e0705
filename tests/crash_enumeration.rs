//! Crash safety of the on-disk stores, checked by enumeration rather than
//! by example: every truncation offset and a bit flip at every byte (every
//! bit of the header: magic, model version and catalog revision) of a small
//! binary scenario-cache store, and every truncation offset and every bit
//! of every byte of a run journal and of a service journal. Each damaged
//! file must open without panicking, give back exactly the records that
//! precede the damage, and heal on the next write; a damaged cache store
//! always heals into one with today's header.
//!
//! Journal lines carry no checksum, so a flipped bit can turn one valid
//! record into another (`1.0` into `9.0`). For bit flips the journals are
//! held to locality instead: the damaged file opens to what its lines give
//! when each is decoded alone, through a journal of that one line.

use hpcadvisor::core::cache::{CachePolicy, Fingerprint, ScenarioCache};
use hpcadvisor::core::dataset::point;
use hpcadvisor::core::{Capacity, PendingJob, ServiceJournal, ServiceRecord, ServiceState};
use hpcadvisor::core::{DataPoint, JournalEntry, Pairs, RunJournal, ScenarioStatus};
use std::path::{Path, PathBuf};

/// Length of the store header: the magic `HPCAV003`, the model version
/// (`u32` LE) and the catalog revision (`u64` LE).
const HEADER_LEN: usize = 20;

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
            p.appinputs = Pairs::from([("BOXFACTOR", format!("{}", 8 * id))]);
            p.metrics = Pairs::from([("NOTE", format!("run \"{id}\"\t\\ok in {id} µs"))]);
            if id % 2 == 0 {
                p.capacity = Capacity::Spot;
                p.region = Some("westeurope".into());
            }
            (fingerprint(id), p)
        })
        .collect()
}

/// Writes the reference store and returns its log bytes plus the end
/// offset of every record, in log order.
fn reference_store(dir: &Path) -> (Vec<u8>, Vec<(usize, Fingerprint)>) {
    let path = dir.join("reference.bin");
    let mut cache = ScenarioCache::open(&path);
    for (fp, p) in points() {
        assert!(cache.insert(fp, &p));
    }
    cache.save().unwrap();
    let log = std::fs::read(&path).unwrap();
    // Walk the documented record framing:
    // [u32 LE len][16-byte BE fingerprint + encoded point][u64 LE checksum].
    let mut ends = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        let fp = u128::from_be_bytes(log[pos + 4..pos + 20].try_into().unwrap());
        pos += 12 + len;
        ends.push((pos, Fingerprint::from_hex(&format!("{fp:032x}")).unwrap()));
    }
    assert_eq!(pos, log.len(), "the reference log frames cleanly");
    assert_eq!(ends.len(), 4);
    (log, ends)
}

/// Opens a damaged store, checks it salvaged exactly `survivors`, then
/// checks that one save heals it into a binary store and that re-inserting
/// the lost records restores the full store.
fn check_damaged_store(path: &Path, what: &str, survivors: &[Fingerprint], expect_recovered: bool) {
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
    let (log, ends) = reference_store(&dir);
    let path = dir.join("damaged.bin");
    for cut in 0..log.len() {
        std::fs::write(&path, &log[..cut]).unwrap();
        // A cut on a record boundary leaves a valid (shorter) log; any
        // other cut tears a record.
        let on_boundary = cut == HEADER_LEN || ends.iter().any(|(end, _)| *end == cut);
        check_damaged_store(
            &path,
            &format!("truncated at {cut}"),
            &survivors_before(&ends, cut),
            !on_boundary,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_store_survives_a_bit_flip_at_every_offset() {
    let dir = scratch_dir("store-flip");
    let (log, ends) = reference_store(&dir);
    let path = dir.join("damaged.bin");
    // Every bit of the header, one bit of every other byte.
    let flips = (0..HEADER_LEN * 8).chain((HEADER_LEN..log.len()).map(|at| at * 8 + at % 8));
    for bit in flips {
        let at = bit / 8;
        let mut damaged = log.clone();
        damaged[at] ^= 1 << (bit % 8);
        std::fs::write(&path, &damaged).unwrap();
        check_damaged_store(
            &path,
            &format!("bit {} flipped at {at}", bit % 8),
            &survivors_before(&ends, at),
            true,
        );
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

/// Flips every bit of every byte of `reference`, one at a time, and hands
/// each damaged copy to `check` with a label.
fn for_every_bit_flip(reference: &[u8], mut check: impl FnMut(&[u8], &str)) {
    for at in 0..reference.len() {
        for bit in 0..8 {
            let mut damaged = reference.to_vec();
            damaged[at] ^= 1 << bit;
            check(&damaged, &format!("bit {bit} flipped at {at}"));
        }
    }
}

/// Writes `parts` to `dir/name` and returns the path.
fn write_file(dir: &Path, name: &str, parts: &[&[u8]]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, parts.concat()).unwrap();
    path
}

/// Splits a damaged journal into its first line and the rest.
fn header_and_lines(damaged: &[u8]) -> (&[u8], std::slice::Split<'_, u8, impl FnMut(&u8) -> bool>) {
    let mut lines = damaged.split(|b| *b == b'\n');
    (lines.next().unwrap(), lines)
}

/// The run-journal locality oracle: the entries and `recovered` flag of
/// `damaged`, from its header and each later line opened alone.
fn run_journal_oracle(dir: &Path, header: &[u8], damaged: &[u8]) -> (Vec<JournalEntry>, bool) {
    let (head, lines) = header_and_lines(damaged);
    if RunJournal::open(write_file(dir, "head.jsonl", &[head, b"\n"])).recovered() {
        return (Vec::new(), true);
    }
    let (mut entries, mut recovered) = (Vec::new(), false);
    for line in lines {
        let alone = RunJournal::open(write_file(dir, "alone.jsonl", &[header, line, b"\n"]));
        recovered |= alone.recovered();
        entries.extend_from_slice(alone.entries());
    }
    (entries, recovered)
}

#[test]
fn run_journal_survives_a_flip_of_every_bit() {
    let dir = scratch_dir("journal-flip");
    let entries = journal_entries();
    let path = dir.join("reference.jsonl");
    let mut journal = RunJournal::open_fresh(&path);
    for e in &entries[..4] {
        journal.append(e.clone());
    }
    drop(journal);
    let reference = std::fs::read(&path).unwrap();
    let header = &reference[..=reference.iter().position(|b| *b == b'\n').unwrap()];

    let path = dir.join("damaged.jsonl");
    for_every_bit_flip(&reference, |damaged, what| {
        std::fs::write(&path, damaged).unwrap();
        let mut journal = RunJournal::open(&path);
        let (want, recovered) = run_journal_oracle(&dir, header, damaged);
        assert_eq!(journal.entries(), &want[..], "{what}: replay");
        assert_eq!(journal.recovered(), recovered, "{what}: recovered flag");
        // One append heals the file.
        journal.append(entries[4].clone());
        let reopened = RunJournal::open(&path);
        assert!(!reopened.recovered(), "{what}: healed journal is clean");
        assert_eq!(reopened.entries(), journal.entries(), "{what}: healed");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn spend(tenant: &str, dollars: f64) -> ServiceRecord {
    ServiceRecord::Spend {
        tenant: tenant.into(),
        dollars,
    }
}

fn admission(
    key: &str,
    tenant: &str,
    regions: &[&str],
    policy: Option<CachePolicy>,
) -> ServiceRecord {
    ServiceRecord::Admitted(PendingJob {
        key: key.into(),
        tenant: tenant.into(),
        seed: 11,
        workers: 3,
        config_yaml: "appname: \"lammps\"\nskus:\n- Standard_HB120rs_v3\n".into(),
        regions: regions.iter().map(|r| r.to_string()).collect(),
        cache_policy: policy,
    })
}

/// Spend for two tenants (one non-ASCII), a placed admission with a cache
/// policy that finishes, and an admission still pending at the end.
fn service_records() -> Vec<ServiceRecord> {
    vec![
        spend("acme", 1.25),
        admission(
            "placed",
            "µ-lab",
            &["southcentralus", "westeurope"],
            Some(CachePolicy::ReadOnly),
        ),
        spend("µ-lab", 2.5),
        admission("held", "acme", &[], None),
        ServiceRecord::Done {
            key: "placed".into(),
        },
        spend("acme", 0.375),
    ]
}

/// The state a daemon replays from `records`: spend summed per tenant in
/// order, and the admissions with no later done.
fn fold(records: &[ServiceRecord]) -> ServiceState {
    let mut state = ServiceState::default();
    for record in records {
        match record.clone() {
            ServiceRecord::Spend { tenant, dollars } => {
                *state.spent.entry(tenant).or_insert(0.0) += dollars;
            }
            ServiceRecord::Admitted(job) => {
                state.pending.retain(|p| p.key != job.key);
                state.pending.push(job);
            }
            ServiceRecord::Done { key } => state.pending.retain(|p| p.key != key),
        }
    }
    state
}

/// Writes the reference service journal and returns its bytes and where
/// each line's text ends (before its newline); line 0 is the header.
fn reference_service_journal(dir: &Path) -> (Vec<u8>, Vec<usize>) {
    let path = dir.join("reference.jsonl");
    let mut journal = ServiceJournal::open(&path);
    for record in service_records() {
        journal.append(record);
    }
    assert_eq!(journal.state(), &fold(&service_records()));
    assert_eq!(journal.state().pending.len(), 1, "one admission pending");
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    let text_ends: Vec<usize> = (0..bytes.len()).filter(|i| bytes[*i] == b'\n').collect();
    assert_eq!(text_ends.len(), service_records().len() + 1);
    (bytes, text_ends)
}

/// Appends one more record, then checks that the file reopens clean to
/// the journal's in-memory state.
fn check_service_heal(mut journal: ServiceJournal, path: &Path, what: &str) {
    journal.append(spend("µ-lab", 8.0));
    let reopened = ServiceJournal::open(path);
    assert!(!reopened.recovered(), "{what}: healed journal is clean");
    assert_eq!(reopened.state(), journal.state(), "{what}: healed");
}

#[test]
fn service_journal_survives_truncation_at_every_offset() {
    let dir = scratch_dir("service-truncate");
    let (reference, text_ends) = reference_service_journal(&dir);
    let records = service_records();
    let path = dir.join("damaged.jsonl");
    for cut in 0..reference.len() {
        let what = format!("truncated at {cut}");
        std::fs::write(&path, &reference[..cut]).unwrap();
        let journal = ServiceJournal::open(&path);
        // Every record whose line text survived whole replays, so no spend
        // is lost or counted twice and every open admission stays pending.
        let whole = if text_ends[0] <= cut {
            text_ends[1..].iter().filter(|end| **end <= cut).count()
        } else {
            0
        };
        assert_eq!(journal.state(), &fold(&records[..whole]), "{what}: replay");
        // Damage is reported when the header or a partial line is cut.
        let line_start = text_ends.iter().rev().find(|end| **end < cut);
        let line_start = line_start.map_or(0, |end| end + 1);
        let partial = cut > line_start && !text_ends.contains(&cut);
        assert_eq!(
            journal.recovered(),
            cut < text_ends[0] || partial,
            "{what}: recovered flag"
        );
        check_service_heal(journal, &path, &what);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The service-journal locality oracle: the state and `recovered` flag of
/// `damaged`, from its header and each later line opened alone. A line
/// that opens alone to no state is a `done` (or blank): the admissions it
/// closes are those it closes in a two-line journal after their own line.
fn service_journal_oracle(dir: &Path, header: &[u8], damaged: &[u8]) -> (ServiceState, bool) {
    let (head, lines) = header_and_lines(damaged);
    if ServiceJournal::open(write_file(dir, "head.jsonl", &[head, b"\n"])).recovered() {
        return (ServiceState::default(), true);
    }
    let (mut state, mut recovered) = (ServiceState::default(), false);
    let mut sources: Vec<&[u8]> = Vec::new();
    for line in lines {
        let alone = ServiceJournal::open(write_file(dir, "alone.jsonl", &[header, line, b"\n"]));
        let decoded = alone.state();
        if alone.recovered() {
            recovered = true;
        } else if let Some((tenant, dollars)) = decoded.spent.iter().next() {
            *state.spent.entry(tenant.clone()).or_insert(0.0) += dollars;
        } else if let Some(job) = decoded.pending.first() {
            if let Some(at) = state.pending.iter().position(|p| p.key == job.key) {
                state.pending.remove(at);
                sources.remove(at);
            }
            state.pending.push(job.clone());
            sources.push(line);
        } else {
            let mut at = 0;
            while at < sources.len() {
                let pair = [header, sources[at], b"\n", line, b"\n"];
                if ServiceJournal::open(write_file(dir, "pair.jsonl", &pair))
                    .state()
                    .pending
                    .is_empty()
                {
                    state.pending.remove(at);
                    sources.remove(at);
                } else {
                    at += 1;
                }
            }
        }
    }
    (state, recovered)
}

#[test]
fn service_journal_survives_a_flip_of_every_bit() {
    let dir = scratch_dir("service-flip");
    let (reference, text_ends) = reference_service_journal(&dir);
    let header = &reference[..=text_ends[0]];
    let path = dir.join("damaged.jsonl");
    for_every_bit_flip(&reference, |damaged, what| {
        std::fs::write(&path, damaged).unwrap();
        let journal = ServiceJournal::open(&path);
        let (want, recovered) = service_journal_oracle(&dir, header, damaged);
        assert_eq!(journal.state(), &want, "{what}: replay");
        assert_eq!(journal.recovered(), recovered, "{what}: recovered flag");
        check_service_heal(journal, &path, what);
    });
    let _ = std::fs::remove_dir_all(&dir);
}
