//! # telemetry — deterministic run tracing for the collection pipeline
//!
//! The collector's internals — pool resizes, node boots, retries,
//! evictions, cache hits — are invisible except as scattered counters.
//! This crate gives every layer a structured event stream that is
//!
//! * **zero-cost when off**: an [`EventSink`] is an `Option`-gated buffer;
//!   a disabled sink never invokes the field-building closure, so the hot
//!   path pays one branch and constructs nothing;
//! * **deterministic**: events are stamped on a *shard-local* simulated
//!   timeline that starts at zero and advances only by deterministic
//!   quantities (un-jittered boot latency, runner-reported task durations,
//!   the stateless retry backoff schedule). No wall-clock, no worker
//!   count, no shared-RNG jitter ever reaches the trace bytes, so the
//!   merged trace is byte-identical for any worker count — the same
//!   ordering contract datasets already obey;
//! * **lock-free per shard**: each shard worker owns its sink outright
//!   (it lives inside the shard's `BatchService`); merging happens once,
//!   at the barrier, in shard-index order.
//!
//! The merged stream serializes to JSONL ([`Trace::to_jsonl`], one compact
//! object per line under a `{"version": 1}` header) and aggregates into a
//! [`TraceSummary`] (provision-latency/boot/task/backoff histograms, retry
//! and eviction counts, cache hit ratio, dollars per completed scenario).
//! [`timeline::build_timeline`] folds the stream into per-pool lanes for
//! Gantt rendering.

pub mod bus;
mod event;
mod sink;
pub mod summary;
pub mod timeline;

pub use bus::EventTap;
pub use event::{Trace, TraceError, TraceEvent, TRACE_VERSION};
pub use sink::{EventSink, COORDINATOR_SHARD};
pub use summary::{Histogram, TraceSummary};
pub use timeline::{build_timeline, SpanKind, TimelineLane, TimelineSpan};

// Re-exported so emitting layers can build event fields without a direct
// formats dependency.
pub use hpcadvisor_formats::{OrderedMap, Value};
