//! Folding a trace into per-pool lanes for Gantt rendering.

use crate::TraceEvent;

/// What a span on a pool lane represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Nodes booting after an allocation (`node_boot`).
    Boot,
    /// A setup task executing.
    Setup,
    /// A compute task executing.
    Compute,
    /// A retry backoff wait (`retry`).
    Backoff,
    /// A spot eviction (zero-width marker).
    Eviction,
}

impl SpanKind {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Boot => "boot",
            SpanKind::Setup => "setup",
            SpanKind::Compute => "compute",
            SpanKind::Backoff => "backoff",
            SpanKind::Eviction => "eviction",
        }
    }
}

/// A `[start, end]` interval on a pool lane, in shard-local simulated
/// seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSpan {
    /// Span start, seconds.
    pub start: f64,
    /// Span end, seconds (equal to `start` for markers).
    pub end: f64,
    /// What the interval represents.
    pub kind: SpanKind,
    /// Short annotation (task id, scenario id, …).
    pub label: String,
}

/// One Gantt lane: a pool on a shard and its activity spans.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineLane {
    /// Shard index the pool ran on.
    pub shard: i64,
    /// Pool name.
    pub pool: String,
    /// Spans in event order.
    pub spans: Vec<TimelineSpan>,
}

/// Folds pool-scoped events into lanes, one per `(shard, pool)`, ordered
/// by shard then first appearance — deterministic because the merged
/// event order is.
pub fn build_timeline(events: &[TraceEvent]) -> Vec<TimelineLane> {
    let mut lanes: Vec<TimelineLane> = Vec::new();
    for ev in events {
        let span = match ev.kind.as_str() {
            "node_boot" => {
                let boot = ev.f64_field("boot_secs").unwrap_or(0.0);
                TimelineSpan {
                    start: ev.t,
                    end: ev.t + boot,
                    kind: SpanKind::Boot,
                    label: format!("+{} nodes", ev.f64_field("nodes").unwrap_or(0.0) as i64),
                }
            }
            "task_end" => {
                let secs = ev.f64_field("secs").unwrap_or(0.0);
                let kind = match ev.str_field("task_kind") {
                    Some("setup") => SpanKind::Setup,
                    _ => SpanKind::Compute,
                };
                TimelineSpan {
                    start: (ev.t - secs).max(0.0),
                    end: ev.t,
                    kind,
                    label: ev.str_field("task").unwrap_or("task").to_string(),
                }
            }
            "retry" => {
                let secs = ev.f64_field("backoff_secs").unwrap_or(0.0);
                TimelineSpan {
                    start: ev.t,
                    end: ev.t + secs,
                    kind: SpanKind::Backoff,
                    label: format!("retry {}", ev.f64_field("attempt").unwrap_or(0.0) as i64),
                }
            }
            "eviction" => TimelineSpan {
                start: ev.t,
                end: ev.t,
                kind: SpanKind::Eviction,
                label: ev.str_field("task").unwrap_or("evicted").to_string(),
            },
            _ => continue,
        };
        match lanes
            .iter_mut()
            .find(|l| l.shard == ev.shard && l.pool == ev.scope)
        {
            Some(lane) => lane.spans.push(span),
            None => lanes.push(TimelineLane {
                shard: ev.shard,
                pool: ev.scope.clone(),
                spans: vec![span],
            }),
        }
    }
    lanes.sort_by_key(|a| a.shard);
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcadvisor_formats::Value;

    fn at(t: f64, shard: i64, kind: &str, scope: &str, pairs: &[(&str, Value)]) -> TraceEvent {
        let mut ev = TraceEvent::pending(kind, scope, |m| {
            for (k, v) in pairs {
                m.insert(*k, v.clone());
            }
        });
        ev.t = t;
        ev.shard = shard;
        ev
    }

    #[test]
    fn lanes_group_by_shard_and_pool() {
        let events = vec![
            at(
                0.0,
                1,
                "node_boot",
                "pool-a",
                &[("nodes", Value::Int(2)), ("boot_secs", Value::Float(160.0))],
            ),
            at(
                260.0,
                1,
                "task_end",
                "pool-a",
                &[
                    ("task", Value::str("task-2")),
                    ("task_kind", Value::str("compute")),
                    ("secs", Value::Float(100.0)),
                ],
            ),
            at(
                260.0,
                1,
                "eviction",
                "pool-a",
                &[("task", Value::str("task-2"))],
            ),
            at(
                260.0,
                1,
                "retry",
                "pool-a",
                &[
                    ("attempt", Value::Int(1)),
                    ("backoff_secs", Value::Float(30.0)),
                ],
            ),
            at(
                10.0,
                0,
                "task_end",
                "pool-b",
                &[
                    ("task", Value::str("task-1")),
                    ("task_kind", Value::str("setup")),
                    ("secs", Value::Float(10.0)),
                ],
            ),
            at(0.0, 0, "scenario_start", "3", &[]),
        ];
        let lanes = build_timeline(&events);
        assert_eq!(lanes.len(), 2);
        // Sorted by shard.
        assert_eq!((lanes[0].shard, lanes[0].pool.as_str()), (0, "pool-b"));
        assert_eq!(lanes[0].spans.len(), 1);
        assert_eq!(lanes[0].spans[0].kind, SpanKind::Setup);
        assert_eq!(lanes[0].spans[0].start, 0.0);
        let a = &lanes[1];
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[0].kind, SpanKind::Boot);
        assert_eq!(a.spans[0].end, 160.0);
        assert_eq!(a.spans[1].kind, SpanKind::Compute);
        assert_eq!((a.spans[1].start, a.spans[1].end), (160.0, 260.0));
        assert_eq!(a.spans[2].kind, SpanKind::Eviction);
        assert_eq!(a.spans[2].start, a.spans[2].end);
        assert_eq!(a.spans[3].kind, SpanKind::Backoff);
        assert_eq!(a.spans[3].end, 290.0);
    }
}
