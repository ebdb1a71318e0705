//! The append-only JSONL file under both journals ([`crate::journal`] and
//! [`crate::service_state`]): the file format and its crash handling. The
//! record codec and the replay fold belong to the journal on top.
//!
//! The file is a `{"version": N}` header line, then one record per line.
//! Each line, newline included, goes out in one `write_all` on a handle
//! kept open for appending. There is no fsync, so a killed process leaves
//! at most a torn last line. Opening replays every line that decodes and
//! drops the rest; lines are split as bytes, so a multi-byte character
//! torn by a crash spoils only its own line. A damaged header discards the
//! whole file. Either kind of damage sets `recovered`.
//!
//! A damaged file, one whose last line lost its newline (an append would
//! glue onto it) and one that just failed a write are not appended to:
//! the next append rewrites the file from the journal's state instead, as
//! a journal's compaction does. A rewrite goes to the sibling `<file>.tmp`
//! and is renamed into place, so a crash in the middle of it leaves the
//! old file whole. That write, [`replace`], is public: the scenario-cache
//! store's segment rotations and the CLI's work-directory files use it too.

use hpcadvisor_formats::json;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version of the journal file format, both journals' record codecs
/// included. A header with a different version discards the file
/// wholesale; bump it when either journal's line format changes.
const VERSION: i64 = 1;

/// One journal file (see the module docs); without a path, nothing
/// persists.
#[derive(Debug, Default)]
pub(crate) struct AppendLog {
    path: Option<PathBuf>,
    recovered: bool,
    /// The file opened for appending, once it is known to start with a
    /// valid header and to end with a whole line; `None` while the next
    /// append must rewrite it.
    file: Option<File>,
}

impl AppendLog {
    /// Opens the log at `path`, handing each non-blank line after a valid
    /// header to `replay`, which returns false for a line it cannot decode.
    /// A missing file opens empty.
    pub(crate) fn open(path: &Path, mut replay: impl FnMut(&str) -> bool) -> Self {
        let mut log = AppendLog {
            path: Some(path.to_path_buf()),
            ..AppendLog::default()
        };
        let Ok(bytes) = std::fs::read(path) else {
            return log;
        };
        let mut lines = bytes
            .split(|b| *b == b'\n')
            .map(|line| std::str::from_utf8(line).ok());
        let header_ok = lines.next().flatten().is_some_and(|h| {
            json::parse(h).ok().and_then(|v| v.get("version")?.as_int()) == Some(VERSION)
        });
        if !header_ok {
            log.recovered = true;
            return log;
        }
        for line in lines {
            if !line.is_some_and(|l| l.trim().is_empty() || replay(l)) {
                log.recovered = true;
            }
        }
        if !log.recovered && bytes.ends_with(b"\n") {
            log.file = OpenOptions::new().append(true).open(path).ok();
        }
        log
    }

    /// Adds one record to the file: `record` writes its line, newline
    /// included, which goes to the end of the file. When the file cannot
    /// take an append, or `compact` asks for it, the file is rewritten
    /// instead: the header, then what `snapshot` writes, which must
    /// already hold the record. Returns true after a rewrite. IO errors
    /// are swallowed (journalling must never fail the work it protects);
    /// the next append then rewrites.
    pub(crate) fn append(
        &mut self,
        record: impl FnOnce(&mut String),
        compact: bool,
        snapshot: impl FnOnce(&mut String),
    ) -> bool {
        let Some(path) = &self.path else {
            return false;
        };
        let mut text = String::new();
        let (rewrite, written) = match self.file.as_mut().filter(|_| !compact) {
            Some(file) => {
                record(&mut text);
                (false, file.write_all(text.as_bytes()))
            }
            None => {
                text = format!("{{\"version\": {VERSION}}}\n");
                snapshot(&mut text);
                (true, replace(path, text.as_bytes()))
            }
        };
        if written.is_err() {
            self.file = None;
        } else if rewrite {
            self.file = OpenOptions::new().append(true).open(path).ok();
        }
        rewrite && written.is_ok()
    }

    /// True if damage was detected (and skipped) while opening.
    pub(crate) fn recovered(&self) -> bool {
        self.recovered
    }
}

/// Writes `bytes` to `<path>.tmp` and renames it over `path`, creating
/// the parent directory if needed. A crash mid-write leaves the old file
/// whole, never a torn one.
pub fn replace(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use crate::cache::Fingerprint;
    use crate::dataset::point;
    use crate::journal::{JournalEntry, RunJournal};
    use crate::scenario::ScenarioStatus;
    use crate::service_state::{ServiceJournal, ServiceRecord};
    use std::path::{Path, PathBuf};

    /// What a crashed rewrite can leave beside the journal: a whole file
    /// of other state, or a torn one.
    const LEFTOVERS: [&str; 2] = [
        "{\"version\": 1}\n{\"rec\":\"spend\",\"tenant\":\"ghost\",\"dollars\":99.0}\n",
        "{\"version\": 1}\n{\"fp\":\"000",
    ];

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hpcadvisor-append-log-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tmp_of(path: &Path) -> PathBuf {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        PathBuf::from(tmp)
    }

    /// Cuts the last 5 bytes off `path` (so its next append rewrites) and
    /// puts `leftover` in its temp file.
    fn crash(path: &Path, leftover: &str) {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..bytes.len() - 5]).unwrap();
        std::fs::write(tmp_of(path), leftover).unwrap();
    }

    fn entry(id: u32) -> JournalEntry {
        JournalEntry {
            fingerprint: Fingerprint::from_hex(&format!("{id:032x}")).unwrap(),
            scenario_id: id,
            status: ScenarioStatus::Completed,
            attempts: 1,
            backoff_secs: 0.0,
            fail_reason: None,
            point: Some(point(id, "lammps", "Standard_HC44rs", 2, 88, 10.0, 0.5)),
        }
    }

    #[test]
    fn a_stale_or_torn_temp_file_is_ignored_and_replaced() {
        let dir = scratch("tmp");
        for (i, leftover) in LEFTOVERS.into_iter().enumerate() {
            let path = dir.join(format!("run-{i}.jsonl"));
            let mut journal = RunJournal::open(&path);
            journal.append(entry(1));
            journal.append(entry(2));
            crash(&path, leftover);
            let mut journal = RunJournal::open(&path);
            assert_eq!(journal.entries(), &[entry(1)], "run {i}: tmp ignored");
            journal.append(entry(3));
            assert!(!tmp_of(&path).exists(), "run {i}: tmp renamed away");
            let back = RunJournal::open(&path);
            assert!(!back.recovered(), "run {i}");
            assert_eq!(back.entries(), &[entry(1), entry(3)], "run {i}");

            let path = dir.join(format!("service-{i}.jsonl"));
            let spend = |dollars| ServiceRecord::Spend {
                tenant: "acme".into(),
                dollars,
            };
            let mut journal = ServiceJournal::open(&path);
            journal.append(spend(1.0));
            journal.append(spend(2.0));
            crash(&path, leftover);
            let mut journal = ServiceJournal::open(&path);
            assert_eq!(journal.state().spent.len(), 1, "service {i}: tmp ignored");
            journal.append(spend(4.0));
            assert!(!tmp_of(&path).exists(), "service {i}: tmp renamed away");
            let back = ServiceJournal::open(&path);
            assert!(!back.recovered(), "service {i}");
            assert_eq!(back.state(), journal.state(), "service {i}");
            assert_eq!(back.state().spent.get("acme"), Some(&5.0), "service {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
