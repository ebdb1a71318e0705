//! Live observation of trace events.
//!
//! The sink layer buffers events per shard and merges them once, after the
//! run — perfect for deterministic trace files, useless for a client that
//! wants to watch a run in flight. An [`EventTap`] is the push-side
//! counterpart: a sink with a tap attached hands every event to the tap
//! *as it is recorded*, in addition to buffering it. Taps observe the
//! stream; they can never change what lands in the trace, so a tapped run
//! stays byte-identical to an untapped one. The advisor daemon's tap
//! forwards each job's run and scenario lifecycle events to the clients
//! waiting on that job.
//!
//! Ordering: a tap sees events in the order each shard emits them, which
//! on a parallel run interleaves arbitrarily across shards — live
//! progress is a feed, not a trace. The merged post-run trace remains the
//! only ordering-stable artifact.

use crate::TraceEvent;

/// An observer of trace events at emit time.
///
/// Implementations must be cheap and non-blocking: taps run inline on the
/// emitting worker. A tap must never panic — a slow or dead consumer is
/// the consumer's problem, not the run's.
pub trait EventTap: Send + Sync {
    /// Called once per recorded event, on the emitting thread.
    fn on_event(&self, event: &TraceEvent);
}
