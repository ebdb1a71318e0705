//! Crash-safe run journal: append-only JSONL of per-scenario outcomes.
//!
//! A multi-hour sweep interrupted at scenario 30 of 36 should not re-spend
//! cloud time on the first 30. The journal records each scenario's outcome
//! *as it finishes* — one compact JSON object per line, written with one
//! write — so a killed run leaves a readable prefix. `collect --resume`
//! replays the journal and collects only the remainder; the resumed
//! dataset is byte-identical to an uninterrupted run because entries carry
//! the full [`DataPoint`] and are keyed by the same content fingerprint the
//! scenario cache uses.
//!
//! The file and its crash handling are the crate's `AppendLog`, shared
//! with the service journal: a damaged header discards the whole file
//! (cold start, `recovered` flag set), a torn tail line — the normal shape
//! of a crash mid-append — drops only that line, and the next append
//! rewrites a damaged file from the surviving entries.

use crate::append_log::AppendLog;
use crate::cache::Fingerprint;
use crate::dataset::{DataPoint, PointFields};
use crate::scenario::ScenarioStatus;
use hpcadvisor_formats::{json, FormatError};
use std::collections::HashMap;
use std::path::Path;

/// One journaled scenario outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Content fingerprint of the scenario execution (the cache key).
    pub fingerprint: Fingerprint,
    /// Scenario id at the time of the run (diagnostic only — resume matches
    /// by fingerprint, so renumbered grids still replay).
    pub scenario_id: u32,
    /// Terminal status the scenario reached.
    pub status: ScenarioStatus,
    /// Attempts spent on the scenario (1 = no retries; 0 = replayed).
    pub attempts: u32,
    /// Total simulated backoff seconds spent on the scenario.
    pub backoff_secs: f64,
    /// Failure reason, for failed scenarios.
    pub fail_reason: Option<String>,
    /// The finished data point, for completed scenarios.
    pub point: Option<DataPoint>,
}

/// Appends one entry as a line of compact JSON, newline included.
fn write_line(out: &mut String, e: &JournalEntry) {
    let mut m = json::Slot::compact(out).object();
    m.key("fp").str(&e.fingerprint.to_hex());
    m.key("id").int(i64::from(e.scenario_id));
    m.key("status").str(e.status.as_str());
    m.key("attempts").int(i64::from(e.attempts));
    m.key("backoff_secs").f64(e.backoff_secs);
    if let Some(reason) = &e.fail_reason {
        m.key("fail_reason").str(reason);
    }
    if let Some(point) = &e.point {
        point.write_json(m.key("point"));
    }
    m.end();
    out.push('\n');
}

/// Reads one journal line; `None` for anything but a whole, valid entry.
/// As in any JSON object, a repeated key takes its last value.
fn line_to_entry(line: &str) -> Option<JournalEntry> {
    let mut r = json::Reader::new(line);
    let (mut fp, mut id, mut status, mut attempts, mut backoff, mut reason) =
        (None, None, None, None, None, None);
    let mut point = None;
    r.object(|r, key| {
        let slot = match key {
            "fp" => &mut fp,
            "id" => &mut id,
            "status" => &mut status,
            "attempts" => &mut attempts,
            "backoff_secs" => &mut backoff,
            "fail_reason" => &mut reason,
            "point" => return PointFields::read(r).map(|f| point = Some(f)),
            _ => return r.value().map(drop),
        };
        *slot = Some(r.value()?);
        Ok::<_, FormatError>(())
    })
    .ok()?;
    r.finish().ok()?;
    Some(JournalEntry {
        fingerprint: Fingerprint::from_hex(fp?.as_str()?)?,
        scenario_id: id?.as_int()? as u32,
        status: ScenarioStatus::parse(status?.as_str()?)?,
        attempts: attempts?.as_int()? as u32,
        backoff_secs: backoff?.as_f64()?,
        fail_reason: reason.and_then(|r| r.as_str().map(str::to_string)),
        point: match point {
            Some(fields) => Some(fields.check().ok()?),
            None => None,
        },
    })
}

/// The append-only run journal.
#[derive(Debug, Default)]
pub struct RunJournal {
    log: AppendLog,
    /// Insertion-ordered entries as read/written; later entries for the
    /// same fingerprint win in [`RunJournal::lookup`].
    entries: Vec<JournalEntry>,
    by_fp: HashMap<Fingerprint, usize>,
}

impl RunJournal {
    /// Opens a file-backed journal, replaying whatever prefix survives.
    /// A missing file starts empty; a damaged header starts empty with
    /// `recovered` set (the file is rewritten on the first append); a torn
    /// tail line is dropped alone.
    pub fn open(path: impl AsRef<Path>) -> Self {
        let mut journal = RunJournal::default();
        journal.log = AppendLog::open(path.as_ref(), |line| {
            line_to_entry(line).map(|e| journal.push(e)).is_some()
        });
        journal
    }

    /// Opens a file-backed journal after deleting any existing file — the
    /// non-resume collect path, which must not replay a previous run.
    pub fn open_fresh(path: impl AsRef<Path>) -> Self {
        let _ = std::fs::remove_file(path.as_ref());
        RunJournal::open(path)
    }

    fn push(&mut self, entry: JournalEntry) {
        self.by_fp.insert(entry.fingerprint, self.entries.len());
        self.entries.push(entry);
    }

    /// Appends one outcome, writing the line to the file before returning
    /// (there is no fsync). The file stays open between appends. IO errors
    /// are swallowed: journalling is best-effort and must never fail the
    /// collection it protects. A failed write may leave a partial line, so
    /// the next append rewrites the file from the entries in memory.
    pub fn append(&mut self, entry: JournalEntry) {
        self.push(entry);
        let entries = &self.entries;
        self.log.append(
            |out| write_line(out, &entries[entries.len() - 1]),
            false,
            |out| entries.iter().for_each(|e| write_line(out, e)),
        );
    }

    /// Latest entry for a fingerprint, if any.
    pub fn lookup(&self, fp: Fingerprint) -> Option<&JournalEntry> {
        self.by_fp.get(&fp).map(|&i| &self.entries[i])
    }

    /// All entries in append order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of journaled outcomes (duplicates counted once each).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if damage was detected (and skipped) while opening.
    pub fn recovered(&self) -> bool {
        self.log.recovered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::oracle::{generated_points, point_to_value, value_to_point};
    use crate::dataset::point;
    use hpcadvisor_formats::{OrderedMap, Value};
    use std::path::PathBuf;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint::from_hex(&format!("{n:032x}")).unwrap()
    }

    fn completed(id: u32, raw: u128) -> JournalEntry {
        JournalEntry {
            fingerprint: fp(raw),
            scenario_id: id,
            status: ScenarioStatus::Completed,
            attempts: 1,
            backoff_secs: 0.0,
            fail_reason: None,
            point: Some(point(id, "lammps", "Standard_HC44rs", 2, 88, 10.0, 0.5)),
        }
    }

    fn entry_to_line(e: &JournalEntry) -> String {
        let mut line = String::new();
        write_line(&mut line, e);
        line
    }

    fn tempfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hpcadvisor-journal-test-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn entries_roundtrip_through_lines() {
        let entry = JournalEntry {
            attempts: 3,
            backoff_secs: 87.5,
            ..completed(7, 0xabc)
        };
        assert_eq!(line_to_entry(&entry_to_line(&entry)), Some(entry.clone()));
        let failed = JournalEntry {
            status: ScenarioStatus::Failed,
            fail_reason: Some("quota exceeded".into()),
            point: None,
            ..entry
        };
        assert_eq!(line_to_entry(&entry_to_line(&failed)), Some(failed));
        assert!(line_to_entry("not json").is_none());
        assert!(line_to_entry("{\"fp\": \"zz\"}").is_none());
    }

    /// The tree encoding the direct codec replaced: the oracle.
    fn oracle_line(e: &JournalEntry) -> String {
        let mut m = OrderedMap::new();
        m.insert("fp", Value::str(e.fingerprint.to_hex()));
        m.insert("id", Value::Int(i64::from(e.scenario_id)));
        m.insert("status", Value::str(e.status.as_str()));
        m.insert("attempts", Value::Int(i64::from(e.attempts)));
        m.insert("backoff_secs", Value::Float(e.backoff_secs));
        if let Some(reason) = &e.fail_reason {
            m.insert("fail_reason", Value::str(reason));
        }
        if let Some(point) = &e.point {
            m.insert("point", point_to_value(point));
        }
        json::to_string(&Value::Map(m)) + "\n"
    }

    /// The tree decoding the direct codec replaced: the oracle.
    fn oracle_entry(line: &str) -> Option<JournalEntry> {
        let v = json::parse(line).ok()?;
        let fingerprint = Fingerprint::from_hex(v.get("fp")?.as_str()?)?;
        let status = ScenarioStatus::parse(v.get("status")?.as_str()?)?;
        let point = match v.get("point") {
            Some(pv) => Some(value_to_point(pv).ok()?),
            None => None,
        };
        Some(JournalEntry {
            fingerprint,
            scenario_id: v.get("id")?.as_int()? as u32,
            status,
            attempts: v.get("attempts")?.as_int()? as u32,
            backoff_secs: v.get("backoff_secs")?.as_f64()?,
            fail_reason: v
                .get("fail_reason")
                .and_then(|r| r.as_str())
                .map(str::to_string),
            point,
        })
    }

    fn generated_entries() -> Vec<JournalEntry> {
        generated_points()
            .into_iter()
            .enumerate()
            .map(|(i, p)| JournalEntry {
                fingerprint: fp(i as u128 * 0x1_0000_0001),
                scenario_id: p.scenario_id,
                status: p.status,
                attempts: i as u32 % 4,
                backoff_secs: [0.0, 87.5, 1e-7, 30.0][i % 4],
                fail_reason: (i % 3 == 0).then(|| p.sku.clone()),
                point: (i % 5 != 0).then_some(p),
            })
            .collect()
    }

    #[test]
    fn lines_match_the_tree_oracle() {
        for e in generated_entries() {
            let line = entry_to_line(&e);
            assert_eq!(line, oracle_line(&e));
            assert_eq!(line_to_entry(&line), oracle_entry(&line), "{line}");
            assert!(line_to_entry(&line).is_some(), "{line}");
        }
        let base = entry_to_line(&completed(7, 0xabc));
        let body = base.trim_end();
        let open = &body[..body.len() - 1];
        let variants = [
            format!("{open},\"id\":9}}"),
            format!("{open},\"id\":\"x\"}}"),
            format!("{open},\"point\":null}}"),
            format!("{{\"point\":null,{}", &body[1..]),
            format!("{open},\"point\":{{\"nope\":1}}}}"),
            format!("{open},\"fail_reason\":5}}"),
            format!("{open},\"backoff_secs\":3}}"),
            format!("{open},\"extra\":[1,{{\"a\":null}}]}}"),
            format!("{open},\"fp\":\"zz\"}}"),
            body.replace("\"attempts\":1,", ""),
            body.replace("\"status\":\"completed\"", "\"status\":\"done\""),
            format!("{body} trailing"),
            body[..body.len() - 4].to_string(),
            "[]".to_string(),
            "not json".to_string(),
            String::new(),
        ];
        for line in variants {
            assert_eq!(line_to_entry(&line), oracle_entry(&line), "{line}");
        }
    }

    #[test]
    fn append_then_reopen_replays() {
        let path = tempfile("replay");
        let _ = std::fs::remove_file(&path);
        let mut journal = RunJournal::open(&path);
        assert!(journal.is_empty() && !journal.recovered());
        journal.append(completed(1, 1));
        journal.append(completed(2, 2));

        let back = RunJournal::open(&path);
        assert_eq!(back.len(), 2);
        assert!(!back.recovered());
        assert_eq!(back.lookup(fp(1)), Some(&completed(1, 1)));
        assert_eq!(back.lookup(fp(3)), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_line_drops_alone() {
        let path = tempfile("torn");
        let _ = std::fs::remove_file(&path);
        let mut journal = RunJournal::open(&path);
        journal.append(completed(1, 1));
        journal.append(completed(2, 2));
        // Simulate a crash mid-append: truncate the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();

        let back = RunJournal::open(&path);
        assert_eq!(back.len(), 1, "only the torn line is lost");
        assert!(back.recovered());
        assert!(back.lookup(fp(1)).is_some());
        // Appending after recovery keeps the surviving prefix.
        let mut back = back;
        back.append(completed(3, 3));
        let again = RunJournal::open(&path);
        assert_eq!(again.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_header_starts_cold_and_heals_on_append() {
        let path = tempfile("header");
        std::fs::write(&path, "garbage header\nmore garbage\n").unwrap();
        let mut journal = RunJournal::open(&path);
        assert!(journal.is_empty());
        assert!(journal.recovered());
        journal.append(completed(1, 1));
        let back = RunJournal::open(&path);
        assert!(!back.recovered(), "first append rewrote the file");
        assert_eq!(back.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_fresh_discards_previous_run() {
        let path = tempfile("fresh");
        let mut journal = RunJournal::open(&path);
        journal.append(completed(1, 1));
        let fresh = RunJournal::open_fresh(&path);
        assert!(fresh.is_empty());
        assert!(RunJournal::open(&path).lookup(fp(1)).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_fingerprints_last_wins() {
        let mut journal = RunJournal::default();
        journal.append(JournalEntry {
            status: ScenarioStatus::Failed,
            fail_reason: Some("first try".into()),
            point: None,
            ..completed(1, 9)
        });
        journal.append(completed(1, 9));
        assert_eq!(journal.len(), 2);
        assert_eq!(
            journal.lookup(fp(9)).unwrap().status,
            ScenarioStatus::Completed
        );
    }
}
