//! Aggregation of a trace into counters and histograms.

use crate::TraceEvent;

/// Upper bucket bounds (simulated seconds) shared by all duration
/// histograms; the last bucket is unbounded.
const BOUNDS: [f64; 6] = [1.0, 10.0, 60.0, 180.0, 600.0, 3600.0];

/// A fixed-bucket duration histogram over simulated seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub(crate) sum: f64,
    /// Smallest sample (0 when empty).
    pub(crate) min: f64,
    /// Largest sample (0 when empty).
    pub(crate) max: f64,
    /// Counts per bucket: `BOUNDS` upper bounds plus an overflow bucket.
    pub(crate) buckets: [u64; BOUNDS.len() + 1],
}

impl Histogram {
    /// Records one sample.
    pub(crate) fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = BOUNDS.iter().position(|&b| v <= b).unwrap_or(BOUNDS.len());
        self.buckets[idx] += 1;
    }

    /// Mean sample (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// One-line rendering: `n=…  mean=…s  min=…s  max=…s`.
    pub(crate) fn render_compact(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={}  mean={:.1}s  min={:.1}s  max={:.1}s",
            self.count,
            self.mean(),
            self.min,
            self.max
        )
    }
}

/// Counters and histograms aggregated from a merged trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events in the trace.
    pub events: usize,
    /// Distinct execution chunks that emitted events (coordinator events
    /// excluded). Chunk splitting depends only on the scenario list, never
    /// on the worker count, so this is identical across 1/4/8-worker runs
    /// of the same grid — unlike per-worker utilization, which lives in
    /// `CollectStats`, not the trace.
    pub chunks: usize,
    /// Provider allocations (`provision` events).
    pub provisions: u64,
    /// Provider releases.
    pub releases: u64,
    /// Quota checks that were denied.
    pub quota_denials: u64,
    /// Fault-plan rolls performed.
    pub fault_rolls: u64,
    /// Rolls that fired a fault.
    pub faults_fired: u64,
    /// Pool resizes.
    pub pool_resizes: u64,
    /// Provision latency (allocation grant to usable), simulated seconds.
    pub provision_secs: Histogram,
    /// Node boot time per resize, simulated seconds.
    pub boot_secs: Histogram,
    /// Task execution durations, simulated seconds.
    pub task_secs: Histogram,
    /// Tasks run (`task_end` events).
    pub tasks: u64,
    /// Collector retries after transient faults.
    pub retries: u64,
    /// Backoff waits, simulated seconds.
    pub backoff_secs: Histogram,
    /// Spot evictions.
    pub evictions: u64,
    /// Scenarios that completed.
    pub completed: u64,
    /// Scenarios that failed.
    pub failed: u64,
    /// Scenarios skipped (quota/budget).
    pub skipped: u64,
    /// Scenarios that exceeded the deadline.
    pub timed_out: u64,
    /// Scenarios served from the result cache.
    pub cache_hits: u64,
    /// Scenarios replayed from the run journal.
    pub journal_replays: u64,
    /// Dollars billed for executed scenarios.
    pub cost_dollars: f64,
}

impl TraceSummary {
    /// Folds an event stream into a summary.
    pub(crate) fn from_events(events: &[TraceEvent]) -> TraceSummary {
        let mut s = TraceSummary {
            events: events.len(),
            ..TraceSummary::default()
        };
        let mut chunks = std::collections::BTreeSet::new();
        for ev in events {
            if ev.shard >= 0 {
                chunks.insert(ev.shard);
            }
            match ev.kind.as_str() {
                "provision" => {
                    s.provisions += 1;
                    if let Some(secs) = ev.f64_field("boot_secs") {
                        s.provision_secs.record(secs);
                    }
                }
                "release" => s.releases += 1,
                "quota" if ev.fields.get("granted").and_then(|v| v.as_bool()) == Some(false) => {
                    s.quota_denials += 1;
                }
                "fault_roll" => {
                    s.fault_rolls += 1;
                    if ev.fields.get("fired").and_then(|v| v.as_bool()) == Some(true) {
                        s.faults_fired += 1;
                    }
                }
                "pool_resize" => s.pool_resizes += 1,
                "node_boot" => {
                    if let Some(secs) = ev.f64_field("boot_secs") {
                        s.boot_secs.record(secs);
                    }
                }
                "task_end" => {
                    s.tasks += 1;
                    if let Some(secs) = ev.f64_field("secs") {
                        s.task_secs.record(secs);
                    }
                }
                "retry" => {
                    s.retries += 1;
                    if let Some(secs) = ev.f64_field("backoff_secs") {
                        s.backoff_secs.record(secs);
                    }
                }
                "eviction" => s.evictions += 1,
                "cache_hit" => s.cache_hits += 1,
                "journal_replay" => s.journal_replays += 1,
                "scenario_end" => {
                    match ev.str_field("status").unwrap_or("") {
                        "completed" => s.completed += 1,
                        "failed" => s.failed += 1,
                        "skipped" => s.skipped += 1,
                        "timed_out" => s.timed_out += 1,
                        _ => {}
                    }
                    if let Some(cost) = ev.f64_field("cost") {
                        s.cost_dollars += cost;
                    }
                }
                _ => {}
            }
        }
        s.chunks = chunks.len();
        s
    }

    /// Cache hit ratio over consulted scenarios (hits + executed), in
    /// `[0, 1]`; 0 when nothing was consulted.
    pub(crate) fn cache_hit_ratio(&self) -> f64 {
        let executed = self.completed + self.failed + self.skipped + self.timed_out;
        let total = self.cache_hits + executed;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Dollars billed per completed scenario (0 when none completed).
    pub(crate) fn dollars_per_completed(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.cost_dollars / self.completed as f64
        }
    }

    /// Multi-line human-readable rendering for the CLI.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} events across {} execution chunk{}\n",
            self.events,
            self.chunks,
            if self.chunks == 1 { "" } else { "s" }
        ));
        out.push_str(&format!(
            "scenarios: {} completed, {} failed, {} skipped, {} timed out, {} cached, {} replayed\n",
            self.completed,
            self.failed,
            self.skipped,
            self.timed_out,
            self.cache_hits,
            self.journal_replays
        ));
        out.push_str(&format!(
            "cache hit ratio: {:.1}%\n",
            100.0 * self.cache_hit_ratio()
        ));
        out.push_str(&format!(
            "cloud: {} provisions, {} releases, {} pool resizes, {} quota denials\n",
            self.provisions, self.releases, self.pool_resizes, self.quota_denials
        ));
        out.push_str(&format!(
            "faults: {} rolls, {} fired, {} retries, {} evictions\n",
            self.fault_rolls, self.faults_fired, self.retries, self.evictions
        ));
        out.push_str(&format!(
            "provision latency: {}\n",
            self.provision_secs.render_compact()
        ));
        out.push_str(&format!(
            "node boot:         {}\n",
            self.boot_secs.render_compact()
        ));
        out.push_str(&format!(
            "task duration:     {}\n",
            self.task_secs.render_compact()
        ));
        out.push_str(&format!(
            "retry backoff:     {}\n",
            self.backoff_secs.render_compact()
        ));
        out.push_str(&format!(
            "billed: ${:.4} total, ${:.4} per completed scenario\n",
            self.cost_dollars,
            self.dollars_per_completed()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcadvisor_formats::Value;

    fn ev(kind: &str, fill: impl FnOnce(&mut hpcadvisor_formats::OrderedMap)) -> TraceEvent {
        TraceEvent::pending(kind, "scope", fill)
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        assert_eq!(h.render_compact(), "n=0");
        for v in [0.5, 5.0, 150.0, 7200.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 7200.0);
        assert_eq!(h.buckets[0], 1, "≤1s");
        assert_eq!(h.buckets[1], 1, "≤10s");
        assert_eq!(h.buckets[3], 1, "≤180s");
        assert_eq!(h.buckets[BOUNDS.len()], 1, "overflow");
        assert!((h.mean() - 1838.875).abs() < 1e-9);
        assert!(h.render_compact().starts_with("n=4"));
    }

    #[test]
    fn summary_folds_the_event_vocabulary() {
        let events = vec![
            ev("provision", |m| {
                m.insert("boot_secs", Value::Float(160.0));
            }),
            ev("quota", |m| {
                m.insert("granted", Value::Bool(false));
            }),
            ev("fault_roll", |m| {
                m.insert("fired", Value::Bool(true));
            }),
            ev("fault_roll", |m| {
                m.insert("fired", Value::Bool(false));
            }),
            ev("pool_resize", |_| {}),
            ev("node_boot", |m| {
                m.insert("boot_secs", Value::Float(160.0));
            }),
            ev("task_end", |m| {
                m.insert("secs", Value::Float(42.0));
            }),
            ev("retry", |m| {
                m.insert("backoff_secs", Value::Float(30.0));
            }),
            ev("eviction", |_| {}),
            ev("cache_hit", |_| {}),
            ev("journal_replay", |_| {}),
            ev("scenario_end", |m| {
                m.insert("status", Value::str("completed"));
                m.insert("cost", Value::Float(1.5));
            }),
            ev("scenario_end", |m| {
                m.insert("status", Value::str("skipped"));
            }),
            ev("release", |_| {}),
            ev("unknown_kind", |_| {}),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.events, events.len());
        assert_eq!(s.chunks, 1, "all events carry shard 0");
        assert_eq!(s.provisions, 1);
        assert_eq!(s.releases, 1);
        assert_eq!(s.quota_denials, 1);
        assert_eq!((s.fault_rolls, s.faults_fired), (2, 1));
        assert_eq!(s.pool_resizes, 1);
        assert_eq!(s.tasks, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.journal_replays, 1);
        assert_eq!((s.completed, s.skipped), (1, 1));
        assert!((s.cost_dollars - 1.5).abs() < 1e-12);
        assert!((s.dollars_per_completed() - 1.5).abs() < 1e-12);
        // 1 hit over (1 hit + 2 executed scenarios).
        assert!((s.cache_hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        let text = s.render_text();
        assert!(text.contains("1 completed"));
        assert!(text.contains("cache hit ratio: 33.3%"));
    }
}
