//! Durable daemon state: an append-only JSONL service journal.
//!
//! The PR 6 daemon kept tenant spend and the in-flight job manifest only
//! in memory, so a crash forgot who had spent what and silently dropped
//! every admitted job. This module gives [`crate::service::AdvisorService`]
//! the same crash-safety discipline the collection layer already has in
//! its [`crate::RunJournal`]: one compact JSON record per line, written to the
//! file (one write per line, no fsync) before `append` returns, so a
//! killed daemon leaves a readable prefix, and the next start replays it.
//!
//! Three record kinds cover the whole admission lifecycle:
//!
//! * `spend` — a tenant was charged some newly-provisioned dollars when a
//!   job finished. Replay sums these per tenant, so budgets survive
//!   restarts and a resubmitted all-hits run cannot be double-billed.
//! * `admitted` — a request passed admission: its idempotency key, tenant,
//!   seed, worker count and the full config (as the canonical YAML from
//!   [`crate::config::UserConfig::to_yaml`]).
//! * `done` — the job reached a terminal state (finished, failed, or was
//!   deliberately abandoned). An `admitted` with no matching `done` is an
//!   interrupted job the restarted daemon must re-serve.
//!
//! The file and its crash handling are the crate's `AppendLog`, as for
//! the run journal. Compaction is this journal's policy: once the
//! done/spend history has grown well past the live state, an append asks
//! the log for a rewrite from the replayed state (one cumulative `spend`
//! per tenant plus the still-pending `admitted` records), so the journal
//! stays bounded by live state, not daemon uptime.

use crate::append_log::AppendLog;
use crate::cache::CachePolicy;
use hpcadvisor_formats::{json, Value};
use std::collections::HashMap;
use std::path::Path;

/// An admitted-but-unfinished request, exactly as needed to re-admit it.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// Idempotency key the client (or the service) assigned the request.
    pub key: String,
    /// Tenant the request is accounted against.
    pub tenant: String,
    /// Experiment seed.
    pub seed: u64,
    /// Worker threads for the job's own collection.
    pub workers: usize,
    /// The full configuration, serialized with `UserConfig::to_yaml`.
    pub config_yaml: String,
    /// Placement regions of the job's grid, denormalized from the config
    /// so an operator reading the journal (or a restarted daemon deciding
    /// re-admission order) sees the placement dimension without parsing
    /// YAML. Empty for single-region jobs, and then omitted from the
    /// journal line so pre-placement journals replay byte-identically.
    pub regions: Vec<String>,
    /// Cache-policy override, if the request carried one.
    pub cache_policy: Option<CachePolicy>,
}

/// One journaled state change.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRecord {
    /// `tenant` was charged `dollars` of newly-provisioned pool time.
    Spend {
        /// Tenant charged.
        tenant: String,
        /// Newly provisioned dollars (never negative).
        dollars: f64,
    },
    /// A request passed admission and entered the queue.
    Admitted(PendingJob),
    /// The job with this key reached a terminal state.
    Done {
        /// Idempotency key of the finished job.
        key: String,
    },
}

/// Appends one record as a line of compact JSON, newline included.
fn write_record(out: &mut String, r: &ServiceRecord) {
    let mut m = json::Slot::compact(out).object();
    match r {
        ServiceRecord::Spend { tenant, dollars } => {
            m.key("rec").str("spend");
            m.key("tenant").str(tenant);
            m.key("dollars").f64(*dollars);
        }
        ServiceRecord::Admitted(job) => {
            m.key("rec").str("admitted");
            m.key("key").str(&job.key);
            m.key("tenant").str(&job.tenant);
            m.key("seed").int(job.seed as i64);
            m.key("workers").int(job.workers as i64);
            m.key("config_yaml").str(&job.config_yaml);
            if !job.regions.is_empty() {
                let mut regions = m.key("regions").array();
                for region in &job.regions {
                    regions.item().str(region);
                }
                regions.end();
            }
            if let Some(policy) = job.cache_policy {
                m.key("cache_policy").str(policy.as_str());
            }
        }
        ServiceRecord::Done { key } => {
            m.key("rec").str("done");
            m.key("key").str(key);
        }
    }
    m.end();
    out.push('\n');
}

fn line_to_record(line: &str) -> Option<ServiceRecord> {
    let v = json::parse(line).ok()?;
    match v.get("rec")?.as_str()? {
        "spend" => Some(ServiceRecord::Spend {
            tenant: v.get("tenant")?.as_str()?.to_string(),
            dollars: v.get("dollars")?.as_f64()?,
        }),
        "admitted" => Some(ServiceRecord::Admitted(PendingJob {
            key: v.get("key")?.as_str()?.to_string(),
            tenant: v.get("tenant")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_int()? as u64,
            workers: v.get("workers")?.as_int()?.max(1) as usize,
            config_yaml: v.get("config_yaml")?.as_str()?.to_string(),
            regions: match v.get("regions") {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|r| Some(r.as_str()?.to_string()))
                    .collect::<Option<Vec<_>>>()?,
                _ => Vec::new(),
            },
            cache_policy: match v.get("cache_policy") {
                Some(p) => Some(
                    [
                        CachePolicy::ReadWrite,
                        CachePolicy::ReadOnly,
                        CachePolicy::Off,
                    ]
                    .into_iter()
                    .find(|c| Some(c.as_str()) == p.as_str())?,
                ),
                None => None,
            },
        })),
        "done" => Some(ServiceRecord::Done {
            key: v.get("key")?.as_str()?.to_string(),
        }),
        _ => None,
    }
}

/// The replayed view of the journal: what a restarted daemon needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceState {
    /// tenant → cumulative newly-provisioned dollars across all restarts.
    pub spent: HashMap<String, f64>,
    /// Admitted jobs with no terminal record, in admission order (one per
    /// key — a re-admission of the same key replaces the earlier entry).
    pub pending: Vec<PendingJob>,
}

impl ServiceState {
    fn apply(&mut self, record: ServiceRecord) {
        match record {
            ServiceRecord::Spend { tenant, dollars } => {
                *self.spent.entry(tenant).or_insert(0.0) += dollars;
            }
            ServiceRecord::Admitted(job) => {
                self.pending.retain(|p| p.key != job.key);
                self.pending.push(job);
            }
            ServiceRecord::Done { key } => {
                self.pending.retain(|p| p.key != key);
            }
        }
    }

    /// Writes the records a compacted rewrite keeps: cumulative spend per
    /// tenant (sorted for deterministic files) plus pending admissions.
    fn write_live(&self, out: &mut String) {
        let mut tenants: Vec<(&String, &f64)> = self.spent.iter().collect();
        tenants.sort_by(|a, b| a.0.cmp(b.0));
        for (tenant, dollars) in tenants {
            let (tenant, dollars) = (tenant.clone(), *dollars);
            write_record(out, &ServiceRecord::Spend { tenant, dollars });
        }
        for job in &self.pending {
            write_record(out, &ServiceRecord::Admitted(job.clone()));
        }
    }
}

/// The append-only service journal (see the module docs).
#[derive(Debug, Default)]
pub struct ServiceJournal {
    log: AppendLog,
    state: ServiceState,
    /// Raw record count since the last rewrite — the compaction trigger.
    raw_records: usize,
}

impl ServiceJournal {
    /// Opens a file-backed journal, replaying whatever prefix survives. A
    /// missing file starts empty; a damaged header starts empty with
    /// `recovered` set; a torn tail line — the normal shape of a crash
    /// mid-append — is dropped alone and the next append rewrites.
    pub fn open(path: impl AsRef<Path>) -> Self {
        let mut journal = ServiceJournal::default();
        journal.log = AppendLog::open(path.as_ref(), |line| {
            let record = line_to_record(line);
            journal.raw_records += usize::from(record.is_some());
            record.map(|r| journal.state.apply(r)).is_some()
        });
        journal
    }

    /// Appends one record, writing its line to the file before returning
    /// (there is no fsync). When the done/spend history has outgrown the
    /// live state enough that a rewrite pays for itself, the file is
    /// compacted instead. IO errors are swallowed: journalling is
    /// best-effort and must never fail the service it protects.
    pub fn append(&mut self, record: ServiceRecord) {
        self.state.apply(record.clone());
        self.raw_records += 1;
        let live = self.state.spent.len() + self.state.pending.len();
        let compact = self.raw_records > 2 * live + 16;
        let state = &self.state;
        let line = |out: &mut String| write_record(out, &record);
        if self.log.append(line, compact, |out| state.write_live(out)) {
            self.raw_records = live;
        }
    }

    /// The replayed state: cumulative spend and interrupted jobs.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// True if damage was detected (and skipped) while opening.
    pub fn recovered(&self) -> bool {
        self.log.recovered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UserConfig;
    use hpcadvisor_formats::OrderedMap;
    use std::path::PathBuf;

    fn record_to_line(r: &ServiceRecord) -> String {
        let mut line = String::new();
        write_record(&mut line, r);
        line
    }

    fn spend(tenant: &str, dollars: f64) -> ServiceRecord {
        ServiceRecord::Spend {
            tenant: tenant.into(),
            dollars,
        }
    }

    fn tempfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hpcadvisor-service-journal-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    fn admitted(key: &str, tenant: &str) -> ServiceRecord {
        ServiceRecord::Admitted(PendingJob {
            key: key.into(),
            tenant: tenant.into(),
            seed: 42,
            workers: 2,
            config_yaml: UserConfig::example_lammps_small().to_yaml(),
            regions: Vec::new(),
            cache_policy: Some(CachePolicy::ReadWrite),
        })
    }

    #[test]
    fn placed_jobs_journal_their_regions() {
        let job = PendingJob {
            key: "k".into(),
            tenant: "acme".into(),
            seed: 7,
            workers: 4,
            config_yaml: UserConfig::example_lammps_small().to_yaml(),
            regions: vec!["southcentralus".into(), "westeurope".into()],
            cache_policy: None,
        };
        let line = record_to_line(&ServiceRecord::Admitted(job.clone()));
        assert!(line.contains("\"regions\""), "{line}");
        assert_eq!(line_to_record(&line), Some(ServiceRecord::Admitted(job)));
        // Single-region jobs keep the pre-placement line shape.
        let legacy = record_to_line(&admitted("k2", "acme"));
        assert!(!legacy.contains("regions"), "{legacy}");
    }

    #[test]
    fn records_roundtrip_through_lines() {
        for record in [
            ServiceRecord::Spend {
                tenant: "acme".into(),
                dollars: 12.5,
            },
            admitted("k1", "acme"),
            ServiceRecord::Done { key: "k1".into() },
        ] {
            assert_eq!(line_to_record(&record_to_line(&record)), Some(record));
        }
        assert!(line_to_record("not json").is_none());
        assert!(line_to_record("{\"rec\": \"mystery\"}").is_none());
    }

    /// The tree encoding the direct writer replaced: the oracle.
    fn oracle_line(r: &ServiceRecord) -> String {
        let mut m = OrderedMap::new();
        match r {
            ServiceRecord::Spend { tenant, dollars } => {
                m.insert("rec", Value::str("spend"));
                m.insert("tenant", Value::str(tenant));
                m.insert("dollars", Value::Float(*dollars));
            }
            ServiceRecord::Admitted(job) => {
                m.insert("rec", Value::str("admitted"));
                m.insert("key", Value::str(&job.key));
                m.insert("tenant", Value::str(&job.tenant));
                m.insert("seed", Value::Int(job.seed as i64));
                m.insert("workers", Value::Int(job.workers as i64));
                m.insert("config_yaml", Value::str(&job.config_yaml));
                if !job.regions.is_empty() {
                    let regions = job.regions.iter().map(Value::str).collect();
                    m.insert("regions", Value::Seq(regions));
                }
                if let Some(policy) = job.cache_policy {
                    m.insert("cache_policy", Value::str(policy.as_str()));
                }
            }
            ServiceRecord::Done { key } => {
                m.insert("rec", Value::str("done"));
                m.insert("key", Value::str(key));
            }
        }
        json::to_string(&Value::Map(m)) + "\n"
    }

    #[test]
    fn lines_match_the_tree_oracle() {
        let mut records = Vec::new();
        for (i, dollars) in [0.0, -0.0, 12.5, 0.1 + 0.2, 1e-7, 1e15, f64::MAX]
            .into_iter()
            .enumerate()
        {
            let tenant = ["acme", "µ-lab", "q\"uote\\d", "tab\tnl\n", ""][i % 5];
            records.push(spend(tenant, dollars));
            records.push(ServiceRecord::Done {
                key: format!("{tenant}-{i}"),
            });
            records.push(ServiceRecord::Admitted(PendingJob {
                key: format!("k{i}"),
                tenant: tenant.into(),
                seed: [0, 42, u64::MAX][i % 3],
                workers: i,
                config_yaml: format!("appname: \"lammps\"\nnote: {tenant}\n"),
                regions: ["eastus", "µ-region", "westeurope"][..i % 4]
                    .iter()
                    .map(|r| r.to_string())
                    .collect(),
                cache_policy: [
                    None,
                    Some(CachePolicy::ReadWrite),
                    Some(CachePolicy::ReadOnly),
                    Some(CachePolicy::Off),
                ][i % 4],
            }));
        }
        for record in records {
            let line = record_to_line(&record);
            assert_eq!(line, oracle_line(&record));
            let back = line_to_record(&line).unwrap();
            let mut again = record.clone();
            if let ServiceRecord::Admitted(job) = &mut again {
                job.workers = job.workers.max(1);
            }
            assert_eq!(back, again, "{line}");
        }
    }

    /// A crash between a line and its newline leaves a file whose last
    /// line is whole: the next append must not glue its line onto it.
    #[test]
    fn a_line_that_lost_its_newline_is_not_appended_to() {
        let path = tempfile("newline");
        let _ = std::fs::remove_file(&path);
        let mut journal = ServiceJournal::open(&path);
        journal.append(spend("acme", 1.0));
        journal.append(spend("acme", 2.0));
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.last(), Some(&b'\n'));
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();

        let mut back = ServiceJournal::open(&path);
        assert_eq!(back.state().spent.get("acme"), Some(&3.0));
        back.append(spend("acme", 4.0));
        let again = ServiceJournal::open(&path);
        assert_eq!(again.state().spent.get("acme"), Some(&7.0));
        assert!(!again.recovered());
        let _ = std::fs::remove_file(&path);
    }

    /// A crash that tears a multi-byte character spoils only its line: the
    /// records before it replay, and the next append keeps them.
    #[test]
    fn a_torn_multi_byte_character_spoils_only_its_line() {
        let path = tempfile("utf8");
        let _ = std::fs::remove_file(&path);
        let mut journal = ServiceJournal::open(&path);
        journal.append(admitted("k1", "acme"));
        journal.append(spend("acme", 1.5));
        journal.append(spend("µ-lab", 2.5));
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        let mu = bytes.windows(2).rposition(|w| w == "µ".as_bytes()).unwrap();
        std::fs::write(&path, &bytes[..mu + 1]).unwrap();

        let mut back = ServiceJournal::open(&path);
        assert!(back.recovered(), "the torn line is reported");
        assert_eq!(back.state().spent.get("acme"), Some(&1.5));
        assert_eq!(back.state().spent.get("µ-lab"), None);
        assert_eq!(back.state().pending.len(), 1);
        back.append(spend("µ-lab", 4.0));
        let again = ServiceJournal::open(&path);
        assert!(!again.recovered(), "the append rewrote a clean file");
        assert_eq!(again.state(), back.state());
        assert_eq!(again.state().spent.get("acme"), Some(&1.5));
        assert_eq!(again.state().spent.get("µ-lab"), Some(&4.0));
        assert_eq!(again.state().pending[0].key, "k1");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_restores_spend_and_pending_jobs() {
        let path = tempfile("replay");
        let _ = std::fs::remove_file(&path);
        let mut journal = ServiceJournal::open(&path);
        journal.append(admitted("k1", "acme"));
        journal.append(admitted("k2", "acme"));
        journal.append(ServiceRecord::Spend {
            tenant: "acme".into(),
            dollars: 3.0,
        });
        journal.append(ServiceRecord::Done { key: "k1".into() });
        journal.append(ServiceRecord::Spend {
            tenant: "acme".into(),
            dollars: 2.0,
        });

        let back = ServiceJournal::open(&path);
        assert!(!back.recovered());
        let state = back.state();
        assert_eq!(state.spent.get("acme"), Some(&5.0));
        assert_eq!(state.pending.len(), 1, "k1 done, k2 interrupted");
        assert_eq!(state.pending[0].key, "k2");
        let config = UserConfig::from_yaml(&state.pending[0].config_yaml).unwrap();
        assert_eq!(config, UserConfig::example_lammps_small());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_line_drops_alone_and_heals() {
        let path = tempfile("torn");
        let _ = std::fs::remove_file(&path);
        let mut journal = ServiceJournal::open(&path);
        journal.append(admitted("k1", "acme"));
        journal.append(admitted("k2", "bob"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 15]).unwrap();

        let mut back = ServiceJournal::open(&path);
        assert!(back.recovered(), "damage detected");
        assert_eq!(back.state().pending.len(), 1, "only the torn line lost");
        back.append(ServiceRecord::Done { key: "k1".into() });
        let healed = ServiceJournal::open(&path);
        assert!(!healed.recovered(), "append rewrote a clean file");
        assert!(healed.state().pending.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_header_starts_cold() {
        let path = tempfile("header");
        std::fs::write(&path, "garbage\n").unwrap();
        let journal = ServiceJournal::open(&path);
        assert!(journal.recovered());
        assert_eq!(journal.state(), &ServiceState::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_bounds_the_file_by_live_state() {
        let path = tempfile("compact");
        let _ = std::fs::remove_file(&path);
        let mut journal = ServiceJournal::open(&path);
        // Churn many short-lived jobs for one tenant.
        for i in 0..60 {
            journal.append(admitted(&format!("k{i}"), "acme"));
            journal.append(ServiceRecord::Spend {
                tenant: "acme".into(),
                dollars: 1.0,
            });
            journal.append(ServiceRecord::Done {
                key: format!("k{i}"),
            });
        }
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(lines < 40, "history compacted away, got {lines} lines");
        let back = ServiceJournal::open(&path);
        assert_eq!(back.state().spent.get("acme"), Some(&60.0));
        assert!(back.state().pending.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_journal_tracks_state_without_files() {
        let mut journal = ServiceJournal::default();
        journal.append(admitted("k", "t"));
        assert_eq!(journal.state().pending.len(), 1);
    }
}
