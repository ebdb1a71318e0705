//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into the program's
//! layers: name, start, end, the span that caused it, and the rep or
//! request the span belongs to. Nothing is written until the run ends. A
//! disabled recorder (the untraced run that yields the end-to-end numbers)
//! records nothing and takes no lock.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One finished or open span. Times are nanoseconds since the recorder
/// was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    /// Rep or request the span belongs to.
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans when `enabled`, and otherwise ignores
    /// every call.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns `None` when the recorder is disabled.
    pub fn enter(&self, name: &str, parent: Option<SpanId>, group: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name: name.to_string(),
            parent,
            group,
            start_ns,
            end_ns: None,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Recorder::enter`].
    pub fn exit(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans[id].end_ns = Some(end);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.enter(name, parent, group);
        let out = f(id);
        self.exit(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Self time of span `id` in nanoseconds: its duration minus the part of
/// its interval covered by its direct children. Overlapping children (from
/// different threads) are counted once.
pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let span = &spans[id];
    let Some(end) = span.end_ns else {
        return 0;
    };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .filter_map(|s| {
            let e = s.end_ns?.min(end);
            let b = s.start_ns.max(span.start_ns);
            (e > b).then_some((b, e))
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for (b, e) in children {
        let b = b.max(cursor);
        if e > b {
            covered += e - b;
            cursor = e;
        }
    }
    span.duration_ns() - covered
}

/// Totals per span name: `(name, count, total ns, self ns)`, in order of
/// first appearance.
pub fn totals(spans: &[Span]) -> Vec<(String, usize, u64, u64)> {
    let mut out: Vec<(String, usize, u64, u64)> = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        let own = self_ns(spans, id);
        match out.iter_mut().find(|t| t.0 == s.name) {
            Some(t) => {
                t.1 += 1;
                t.2 += s.duration_ns();
                t.3 += own;
            }
            None => out.push((s.name.clone(), 1, s.duration_ns(), own)),
        }
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let end = s.end_ns.map_or("null".to_string(), |e| e.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"group\": {}, \"start_ns\": {}, \"end_ns\": {end}}}\n",
            s.name, s.group, s.start_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            group: 0,
            start_ns: start,
            end_ns: Some(end),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("collect", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 60),
            span("grandchild", Some(1), 12, 20),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 10);
        assert_eq!(self_ns(&spans, 1), 20 - 8);
        assert_eq!(self_ns(&spans, 3), 8);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("serve", None, 0, 100),
            span("req", Some(0), 10, 50),
            span("req", Some(0), 30, 70),
            // Clipped to the parent interval.
            span("late", Some(0), 90, 130),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("rep", None, 0, 10),
            span("rep", None, 10, 30),
            span("advice", Some(1), 12, 15),
        ];
        let t = totals(&spans);
        assert_eq!(t[0], ("rep".to_string(), 2, 30, 27));
        assert_eq!(t[1], ("advice".to_string(), 1, 3, 3));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        let id = r.enter("x", None, 0);
        r.exit(id);
        assert!(id.is_none());
        assert!(r.snapshot().is_empty());
        let on = Recorder::new(true);
        let v = on.span("outer", None, 3, |p| on.span("inner", p, 3, |_| 7));
        assert_eq!(v, 7);
        let spans = on.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
