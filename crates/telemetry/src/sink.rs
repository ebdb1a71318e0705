//! The per-shard event sink and its local simulated timeline.

use crate::bus::EventTap;
use crate::TraceEvent;
use hpcadvisor_formats::OrderedMap;
use std::sync::Arc;

/// Shard index stamped on coordinator-level events (run framing, cache
/// hits, journal replays) that belong to no shard.
pub const COORDINATOR_SHARD: i64 = -1;

/// A single-owner event buffer with a shard-local simulated clock.
///
/// A disabled sink (the default) is an empty `Option`: [`EventSink::emit`]
/// returns before invoking the field-building closure, so call sites pay
/// one branch and allocate nothing — telemetry off is free. An enabled
/// sink is owned outright by its shard worker (no locks); shards are
/// merged once, at the barrier, in shard-index order.
///
/// The timeline starts at zero and is advanced explicitly by the owner
/// with deterministic durations only. Never feed it wall-clock or
/// shared-RNG-jittered quantities: trace bytes must not depend on worker
/// count or host speed.
#[derive(Debug, Default)]
pub struct EventSink {
    inner: Option<Sink>,
}

struct Sink {
    shard: i64,
    now: f64,
    events: Vec<TraceEvent>,
    /// Live observer notified of every event as it is recorded, in
    /// addition to buffering (see [`crate::bus`]). Taps cannot alter the
    /// buffered stream.
    tap: Option<Arc<dyn EventTap>>,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink")
            .field("shard", &self.shard)
            .field("now", &self.now)
            .field("events", &self.events)
            .field("tap", &self.tap.as_ref().map(|_| "..."))
            .finish()
    }
}

impl EventSink {
    /// A sink that drops everything (the zero-cost default).
    pub fn disabled() -> EventSink {
        EventSink { inner: None }
    }

    /// An enabled sink for shard `shard`, its timeline at zero.
    pub fn for_shard(shard: i64) -> EventSink {
        EventSink {
            inner: Some(Sink {
                shard,
                now: 0.0,
                events: Vec::new(),
                tap: None,
            }),
        }
    }

    /// Attaches a live tap: every event recorded from now on is also
    /// handed to `tap` on the emitting thread. No-op on a disabled sink —
    /// taps only observe streams that are being recorded.
    pub fn with_tap(mut self, tap: Arc<dyn EventTap>) -> EventSink {
        if let Some(sink) = &mut self.inner {
            sink.tap = Some(tap);
        }
        self
    }

    /// An enabled sink for coordinator-level events.
    pub fn coordinator() -> EventSink {
        EventSink::for_shard(COORDINATOR_SHARD)
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current shard-local simulated time (zero when disabled).
    pub fn now(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |s| s.now)
    }

    /// Advances the shard-local timeline by a deterministic duration.
    pub fn advance(&mut self, secs: f64) {
        if let Some(sink) = &mut self.inner {
            sink.now += secs.max(0.0);
        }
    }

    /// Records an event at the current local time. `fill` populates the
    /// kind-specific fields and runs only when the sink is enabled.
    pub fn emit(&mut self, kind: &str, scope: &str, fill: impl FnOnce(&mut OrderedMap)) {
        if let Some(sink) = &mut self.inner {
            let mut ev = TraceEvent::pending(kind, scope, fill);
            ev.t = sink.now;
            ev.shard = sink.shard;
            if let Some(tap) = &sink.tap {
                tap.on_event(&ev);
            }
            sink.events.push(ev);
        }
    }

    /// Stamps buffered pending events (from a layer without timeline
    /// access, e.g. the cloud provider) with the current local time and
    /// this sink's shard, preserving their order.
    pub fn absorb(&mut self, pending: Vec<TraceEvent>) {
        if let Some(sink) = &mut self.inner {
            for mut ev in pending {
                ev.t = sink.now;
                ev.shard = sink.shard;
                if let Some(tap) = &sink.tap {
                    tap.on_event(&ev);
                }
                sink.events.push(ev);
            }
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |s| s.events.len())
    }

    /// True when no events are buffered (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the buffered events, leaving the sink enabled with its
    /// timeline intact.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.inner
            .as_mut()
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcadvisor_formats::Value;

    #[test]
    fn disabled_sink_is_inert_and_never_builds_fields() {
        let mut sink = EventSink::disabled();
        assert!(!sink.is_enabled());
        let mut built = false;
        sink.emit("kind", "scope", |_| built = true);
        sink.advance(10.0);
        sink.absorb(vec![TraceEvent::pending("x", "y", |_| {})]);
        assert!(!built, "field closure ran on a disabled sink");
        assert_eq!(sink.now(), 0.0);
        assert!(sink.is_empty());
        assert!(sink.take().is_empty());
    }

    #[test]
    fn enabled_sink_stamps_local_time_and_shard() {
        let mut sink = EventSink::for_shard(3);
        sink.emit("a", "s", |m| {
            m.insert("n", Value::Int(1));
        });
        sink.advance(5.5);
        sink.emit("b", "s", |_| {});
        sink.advance(-1.0); // negative advances are clamped
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].t, events[0].shard), (0.0, 3));
        assert_eq!((events[1].t, events[1].shard), (5.5, 3));
        assert_eq!(sink.now(), 5.5);
        assert!(sink.is_empty(), "take drained the buffer");
        assert!(sink.is_enabled(), "take keeps the sink enabled");
    }

    /// A tap that keeps every event it sees.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<TraceEvent>>);

    impl EventTap for Recorder {
        fn on_event(&self, event: &TraceEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn tap_sees_every_event_without_disturbing_the_buffer() {
        let tap = Arc::new(Recorder::default());
        let mut sink = EventSink::for_shard(2).with_tap(tap.clone());
        sink.emit("direct", "s", |_| {});
        sink.advance(3.0);
        sink.absorb(vec![TraceEvent::pending("absorbed", "s", |_| {})]);
        let live = tap.0.lock().unwrap().clone();
        assert_eq!(live.len(), 2, "tap saw both events live");
        assert_eq!(live[0].kind, "direct");
        assert_eq!(
            (live[1].kind.as_str(), live[1].t, live[1].shard),
            ("absorbed", 3.0, 2)
        );
        assert_eq!(sink.take(), live, "buffered stream is identical");
        // Tapping a disabled sink stays inert.
        let tap = Arc::new(Recorder::default());
        let mut off = EventSink::disabled().with_tap(tap.clone());
        off.emit("x", "y", |_| {});
        assert!(off.take().is_empty());
        assert!(tap.0.lock().unwrap().is_empty());
    }

    #[test]
    fn absorb_restamps_pending_events_in_order() {
        let mut sink = EventSink::coordinator();
        sink.advance(7.0);
        sink.absorb(vec![
            TraceEvent::pending("p1", "s", |_| {}),
            TraceEvent::pending("p2", "s", |_| {}),
        ]);
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.t == 7.0 && e.shard == COORDINATOR_SHARD));
        assert_eq!(events[0].kind, "p1");
        assert_eq!(events[1].kind, "p2");
    }
}
