//! The trace event and its canonical JSONL form.

use hpcadvisor_formats::{json, OrderedMap, Value};
use std::fmt;

/// Version stamp of the JSONL trace format (the file's header line).
pub(crate) const TRACE_VERSION: i64 = 1;

/// Keys owned by the envelope; event fields may not reuse them.
const RESERVED_KEYS: [&str; 4] = ["t", "shard", "kind", "scope"];

/// One structured trace event.
///
/// `t` is the emitting shard's local simulated time in seconds (each shard
/// timeline starts at zero), `shard` the shard index in deterministic
/// shard order ([`crate::COORDINATOR_SHARD`] for coordinator events),
/// `kind` the event type (`provision`, `task_end`, `scenario_end`, …),
/// `scope` the entity it concerns (SKU, pool, scenario id), and `fields`
/// kind-specific attributes in a fixed insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Shard-local simulated timestamp, seconds.
    pub t: f64,
    /// Shard index, or [`crate::COORDINATOR_SHARD`] for coordinator events.
    pub shard: i64,
    /// Event kind.
    pub kind: String,
    /// Entity the event concerns.
    pub scope: String,
    /// Kind-specific attributes, serialized after the envelope keys.
    pub fields: OrderedMap,
}

impl TraceEvent {
    /// Builds an event awaiting a timestamp/shard stamp (used by layers
    /// that buffer events for the owner of the shard timeline to absorb).
    pub fn pending(kind: &str, scope: &str, fill: impl FnOnce(&mut OrderedMap)) -> TraceEvent {
        let mut fields = OrderedMap::new();
        fill(&mut fields);
        debug_assert!(
            RESERVED_KEYS.iter().all(|k| !fields.contains_key(k)),
            "event fields reuse an envelope key"
        );
        TraceEvent {
            t: 0.0,
            shard: 0,
            kind: kind.to_string(),
            scope: scope.to_string(),
            fields,
        }
    }

    /// Serializes the event as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut m = OrderedMap::new();
        m.insert("t", Value::Float(self.t));
        m.insert("shard", Value::Int(self.shard));
        m.insert("kind", Value::str(&self.kind));
        m.insert("scope", Value::str(&self.scope));
        for (k, v) in self.fields.iter() {
            m.insert(k, v.clone());
        }
        json::to_string(&Value::Map(m))
    }

    /// Parses one JSON line back into an event.
    pub(crate) fn from_line(line: &str) -> Result<TraceEvent, TraceError> {
        let doc = json::parse(line).map_err(|e| TraceError(format!("bad trace line: {e}")))?;
        let map = doc
            .as_map()
            .ok_or_else(|| TraceError("trace line is not an object".into()))?;
        let t = map
            .get("t")
            .and_then(Value::as_f64)
            .ok_or_else(|| TraceError("trace line missing numeric 't'".into()))?;
        let shard = map
            .get("shard")
            .and_then(Value::as_int)
            .ok_or_else(|| TraceError("trace line missing integer 'shard'".into()))?;
        let kind = map
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| TraceError("trace line missing string 'kind'".into()))?
            .to_string();
        let scope = map
            .get("scope")
            .and_then(Value::as_str)
            .ok_or_else(|| TraceError("trace line missing string 'scope'".into()))?
            .to_string();
        let mut fields = OrderedMap::new();
        for (k, v) in map.iter() {
            if !RESERVED_KEYS.contains(&k) {
                fields.insert(k, v.clone());
            }
        }
        Ok(TraceEvent {
            t,
            shard,
            kind,
            scope,
            fields,
        })
    }

    /// Shorthand for a numeric field.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Value::as_f64)
    }

    /// Shorthand for a string field.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Value::as_str)
    }
}

/// A merged run trace: coordinator framing plus shard sections in shard
/// order, ready for JSONL export or aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events in canonical merged order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Wraps an already-ordered event list.
    pub fn new(events: Vec<TraceEvent>) -> Trace {
        Trace { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as JSONL: a `{"version": 1}` header followed
    /// by one event per line. The bytes are canonical — re-emitting a
    /// parsed trace reproduces them exactly.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!("{{\"version\": {TRACE_VERSION}}}\n");
        for ev in &self.events {
            out.push_str(&ev.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL trace. Unlike the run journal (which tolerates torn
    /// tails because it must survive crashes), a trace is a completed
    /// export: any malformed line is an error.
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| TraceError("empty trace file".into()))?;
        let version = json::parse(header)
            .ok()
            .as_ref()
            .and_then(|v| v.get("version"))
            .and_then(Value::as_int);
        if version != Some(TRACE_VERSION) {
            return Err(TraceError(format!(
                "unsupported trace header: {header:?} (want version {TRACE_VERSION})"
            )));
        }
        let mut events = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            events.push(
                TraceEvent::from_line(line)
                    .map_err(|e| TraceError(format!("line {}: {e}", i + 2)))?,
            );
        }
        Ok(Trace { events })
    }

    /// Aggregates the trace into counters and histograms.
    pub fn summarize(&self) -> crate::TraceSummary {
        crate::TraceSummary::from_events(&self.events)
    }
}

/// A trace parse/format error.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        let mut ev = TraceEvent::pending("provision", "Standard_HB120rs_v3", |m| {
            m.insert("nodes", Value::Int(4));
            m.insert("boot_secs", Value::Float(166.09437912434102));
            m.insert("capacity", Value::str("spot"));
        });
        ev.t = 12.5;
        ev.shard = 2;
        ev
    }

    #[test]
    fn line_round_trips_byte_identically() {
        let ev = sample();
        let line = ev.to_line();
        let back = TraceEvent::from_line(&line).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn line_escapes_awkward_strings() {
        let ev = TraceEvent::pending("fault_roll", "pool \"q\"\n\\x", |m| {
            m.insert("op", Value::str("Run\tTask"));
        });
        let line = ev.to_line();
        let back = TraceEvent::from_line(&line).unwrap();
        assert_eq!(back.scope, "pool \"q\"\n\\x");
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn trace_jsonl_round_trips_byte_identically() {
        let trace = Trace::new(vec![sample(), {
            let mut e = sample();
            e.t = 200.0;
            e.kind = "release".into();
            e
        }]);
        let text = trace.to_jsonl();
        assert!(text.starts_with("{\"version\": 1}\n"));
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("{\"version\": 9}\n").is_err());
        let torn = format!(
            "{}{}",
            Trace::default().to_jsonl(),
            "{\"t\": 1.0, \"shard\""
        );
        let err = Trace::from_jsonl(&torn).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(TraceEvent::from_line("[1,2]").is_err());
        assert!(TraceEvent::from_line("{\"t\": 0.0}").is_err());
    }

    #[test]
    fn field_accessors() {
        let ev = sample();
        assert_eq!(ev.f64_field("nodes"), Some(4.0));
        assert_eq!(ev.str_field("capacity"), Some("spot"));
        assert_eq!(ev.f64_field("missing"), None);
    }
}
