//! Versioned newline-delimited JSON envelope for the advisor daemon.
//!
//! `hpcadvisor serve` speaks a line protocol: each direction is a stream
//! of frames, one compact JSON object per line. A frame is an envelope —
//! version, correlation id, kind — around an opaque [`Value`] body; the
//! service layer defines what bodies mean for each kind, this module only
//! guarantees the envelope shape:
//!
//! ```json
//! {"v": 1, "id": 3, "kind": "collect", "body": {"tenant": "acme"}}
//! ```
//!
//! * `v` — protocol version ([`WIRE_VERSION`]). A peer speaking a
//!   different version is rejected up front with a clear error instead of
//!   a confusing body-level failure.
//! * `id` — client-chosen correlation id; every response frame for a
//!   request echoes it, so one connection can multiplex requests. Clients
//!   draw ids from a [`MonotonicId`] so a resubmitted request is
//!   distinguishable from its original on the wire, while the body-level
//!   `request_key` stays the same for idempotent resubmission.
//! * `kind` — frame discriminator (`collect`, `progress`, `result`,
//!   `error`, [`KIND_HEARTBEAT`], ...).
//! * `body` — kind-specific payload, `null` when absent.
//!
//! Frames encode compactly (never pretty) so one frame is always exactly
//! one line; [`Frame::decode`] rejects embedded newlines for the same
//! reason, rejects lines over [`MAX_FRAME_BYTES`], and returns a typed
//! [`WireError`] — never a panic — for any adversarial input.
//!
//! Error frames are themselves typed: the body carries a machine-readable
//! [`ErrorCode`] alongside the human-readable message, plus an optional
//! `retry_after_ms` hint so clients can back off intelligently instead of
//! pattern-matching on prose.

use crate::error::FormatError;
use crate::json;
use crate::value::{OrderedMap, Value};
use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};

/// Version of the wire envelope. Bump on any incompatible change to the
/// envelope shape or to the meaning of a standard frame kind.
pub const WIRE_VERSION: i64 = 1;

/// Hard ceiling on one encoded frame line (bytes, without the trailing
/// newline). Readers must stop buffering past this and fail the frame;
/// writers must refuse to emit bigger frames. Large enough for a
/// several-thousand-scenario dataset embedded as a JSON string, small
/// enough that a hostile peer cannot balloon the daemon's memory with one
/// endless line.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Frame kind of the keep-alive heartbeat the daemon emits while a
/// long-running job produces no other traffic. Carries no body; clients
/// reset their read deadline and otherwise ignore it.
pub const KIND_HEARTBEAT: &str = "hb";

/// One frame's compact line: the envelope members, then the body written
/// by `body` into its slot.
fn envelope(id: i64, kind: &str, body: impl FnOnce(json::Slot<'_>)) -> String {
    let mut out = String::new();
    let mut frame = json::Slot::compact(&mut out).object();
    frame.key("v").int(WIRE_VERSION);
    frame.key("id").int(id);
    frame.key("kind").str(kind);
    body(frame.key("body"));
    frame.end();
    out
}

/// `line`, unless it is longer than [`MAX_FRAME_BYTES`].
fn within_limit(line: String) -> Result<String, WireError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge {
            len: line.len(),
            max: MAX_FRAME_BYTES,
        });
    }
    Ok(line)
}

/// Typed decode failure. Every adversarial input maps to one of these —
/// truncated JSON, oversized lines, version skew, random bytes — so the
/// daemon can answer with a precise [`ErrorCode`] instead of crashing or
/// guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The line exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Observed length in bytes.
        len: usize,
        /// The enforced ceiling.
        max: usize,
    },
    /// The input contains an embedded newline (frames are one line each).
    MultiLine,
    /// The line is not valid JSON, not an object, or missing/mistyping an
    /// envelope field. The reason says which.
    Malformed(String),
    /// The envelope is well-formed but speaks a different protocol
    /// version.
    VersionSkew {
        /// The version the peer sent.
        got: i64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::MultiLine => write!(f, "frame must be a single line"),
            WireError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
            WireError::VersionSkew { got } => {
                write!(f, "wire version {got} != {WIRE_VERSION}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for FormatError {
    fn from(e: WireError) -> FormatError {
        FormatError::on_line(1, e.to_string())
    }
}

/// Machine-readable reason on an `error` frame. The daemon maps every
/// service refusal (`ServiceError` in `hpcadvisor-core`) onto one of
/// these through an exhaustive match, plus the connection-level codes that
/// never reach the service (framing, shedding, reaping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The peer's bytes did not decode into a frame.
    BadFrame,
    /// The frame decoded but its body is invalid for its kind.
    BadRequest,
    /// The frame kind is not one the daemon serves.
    UnknownKind,
    /// The daemon's bounded job queue is full; retry after the hint.
    QueueFull,
    /// The tenant is at its in-flight job ceiling.
    OverQuota,
    /// The tenant's cumulative budget is exhausted.
    BudgetExhausted,
    /// The request's scenario grid exceeds the per-request ceiling.
    GridTooLarge,
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
    /// The job was admitted but failed while running.
    JobFailed,
    /// The daemon is shedding load at the connection level; retry after
    /// the hint.
    Overloaded,
    /// The connection sat idle past the daemon's deadline and was reaped.
    IdleTimeout,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownKind => "unknown_kind",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::OverQuota => "over_quota",
            ErrorCode::BudgetExhausted => "budget_exhausted",
            ErrorCode::GridTooLarge => "grid_too_large",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::JobFailed => "job_failed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::IdleTimeout => "idle_timeout",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling back.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_frame" => ErrorCode::BadFrame,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_kind" => ErrorCode::UnknownKind,
            "queue_full" => ErrorCode::QueueFull,
            "over_quota" => ErrorCode::OverQuota,
            "budget_exhausted" => ErrorCode::BudgetExhausted,
            "grid_too_large" => ErrorCode::GridTooLarge,
            "shutting_down" => ErrorCode::ShuttingDown,
            "job_failed" => ErrorCode::JobFailed,
            "overloaded" => ErrorCode::Overloaded,
            "idle_timeout" => ErrorCode::IdleTimeout,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Whether a client resubmitting the identical request (same
    /// `request_key`) can reasonably expect a different answer later.
    /// Admission pressure clears as jobs finish; malformed input never
    /// does.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::QueueFull
                | ErrorCode::OverQuota
                | ErrorCode::ShuttingDown
                | ErrorCode::Overloaded
                | ErrorCode::IdleTimeout
        )
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Monotonic correlation-id source for clients: every attempt — including
/// an idempotent resubmission of the same request after a dropped
/// connection — gets a strictly increasing id, so daemon logs can order
/// attempts while the body-level `request_key` ties them together.
#[derive(Debug, Default)]
pub struct MonotonicId(AtomicI64);

impl MonotonicId {
    /// Starts counting from 1.
    pub fn new() -> MonotonicId {
        MonotonicId(AtomicI64::new(1))
    }

    /// The next id (strictly greater than every id handed out before).
    pub fn next(&self) -> i64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }
}

/// One protocol frame: a versioned, correlated, typed envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Correlation id echoed on every response to this request.
    pub id: i64,
    /// Frame discriminator.
    pub kind: String,
    /// Kind-specific payload (`Value::Null` when absent).
    pub body: Value,
}

impl Frame {
    /// Builds a frame with the current [`WIRE_VERSION`].
    pub fn new(id: i64, kind: impl Into<String>, body: Value) -> Frame {
        Frame {
            id,
            kind: kind.into(),
            body,
        }
    }

    /// A keep-alive heartbeat for the given request.
    pub fn heartbeat(id: i64) -> Frame {
        Frame::new(id, KIND_HEARTBEAT, Value::Null)
    }

    /// A typed error frame: machine-readable `code`, human-readable
    /// `message`, and an optional `retry_after_ms` backoff hint.
    pub fn error(id: i64, code: ErrorCode, message: &str, retry_after_ms: Option<u64>) -> Frame {
        let mut body = OrderedMap::new();
        body.insert("code", Value::str(code.as_str()));
        body.insert("message", Value::str(message));
        if let Some(ms) = retry_after_ms {
            body.insert("retry_after_ms", Value::Int(ms as i64));
        }
        Frame::new(id, "error", Value::Map(body))
    }

    /// The typed code of an `error` frame. `None` for other kinds, or for
    /// error frames from peers speaking an unknown code (treated by
    /// callers as [`ErrorCode::Internal`]-like: not retryable).
    pub fn error_code(&self) -> Option<ErrorCode> {
        if self.kind != "error" {
            return None;
        }
        self.body
            .as_map()
            .and_then(|m| m.get("code"))
            .and_then(Value::as_str)
            .and_then(ErrorCode::parse)
    }

    /// The human-readable message of an `error` frame.
    pub fn error_message(&self) -> Option<&str> {
        if self.kind != "error" {
            return None;
        }
        self.body
            .as_map()
            .and_then(|m| m.get("message"))
            .and_then(Value::as_str)
    }

    /// The `retry_after_ms` backoff hint of an `error` frame.
    pub fn retry_after_ms(&self) -> Option<u64> {
        if self.kind != "error" {
            return None;
        }
        self.body
            .as_map()
            .and_then(|m| m.get("retry_after_ms"))
            .and_then(Value::as_int)
            .and_then(|ms| u64::try_from(ms).ok())
    }

    /// Serializes to one compact JSON line (no trailing newline). The body
    /// is written where it is, not copied into an envelope value.
    pub fn encode(&self) -> String {
        envelope(self.id, &self.kind, |slot| slot.value(&self.body))
    }

    /// Serializes, refusing frames whose encoding exceeds
    /// [`MAX_FRAME_BYTES`] — the writer-side twin of the decode limit, so
    /// a daemon never emits a line its own readers would reject.
    pub fn encode_checked(&self) -> Result<String, WireError> {
        within_limit(self.encode())
    }

    /// Serializes a frame whose body is already compact JSON text, spliced
    /// in as it is, under the same size limit as
    /// [`Frame::encode_checked`]. When `body_json` is the text
    /// [`json::to_string`] writes for a value (a trace event's line is),
    /// the bytes are those of the frame with the parsed value as its body.
    pub fn encode_with_body(id: i64, kind: &str, body_json: &str) -> Result<String, WireError> {
        within_limit(envelope(id, kind, |slot| {
            slot.into_parts().0.push_str(body_json)
        }))
    }

    /// Parses one line back into a frame, enforcing the size limit, the
    /// envelope shape and the protocol version. Every failure is a typed
    /// [`WireError`]; no input panics.
    pub fn decode(line: &str) -> Result<Frame, WireError> {
        if line.len() > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge {
                len: line.len(),
                max: MAX_FRAME_BYTES,
            });
        }
        if line.contains('\n') {
            return Err(WireError::MultiLine);
        }
        let doc = json::parse(line).map_err(|e| WireError::Malformed(e.to_string()))?;
        let map = doc
            .as_map()
            .ok_or_else(|| WireError::Malformed("frame must be a JSON object".into()))?;
        let version = map
            .get("v")
            .and_then(|v| v.as_int())
            .ok_or_else(|| WireError::Malformed("frame missing version field 'v'".into()))?;
        if version != WIRE_VERSION {
            return Err(WireError::VersionSkew { got: version });
        }
        let id = map
            .get("id")
            .and_then(|v| v.as_int())
            .ok_or_else(|| WireError::Malformed("frame missing integer 'id'".into()))?;
        let kind = map
            .get("kind")
            .and_then(|v| v.as_str())
            .ok_or_else(|| WireError::Malformed("frame missing string 'kind'".into()))?;
        if kind.is_empty() {
            return Err(WireError::Malformed(
                "frame 'kind' must be non-empty".into(),
            ));
        }
        let body = map.get("body").cloned().unwrap_or(Value::Null);
        Ok(Frame {
            id,
            kind: kind.to_string(),
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_single_line() {
        let mut body = OrderedMap::new();
        body.insert("tenant", Value::str("acme"));
        body.insert("seed", Value::Int(42));
        let frame = Frame::new(7, "collect", Value::Map(body));
        let line = frame.encode();
        assert!(!line.contains('\n'), "compact encoding is one line");
        assert_eq!(Frame::decode(&line).unwrap(), frame);
    }

    #[test]
    fn null_body_is_implicit() {
        let frame = Frame::decode(r#"{"v": 1, "id": 0, "kind": "ping"}"#).unwrap();
        assert_eq!(frame.kind, "ping");
        assert_eq!(frame.body, Value::Null);
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let err = Frame::decode(r#"{"v": 2, "id": 0, "kind": "ping"}"#).unwrap_err();
        assert_eq!(err, WireError::VersionSkew { got: 2 });
        assert!(err.to_string().contains("wire version 2"), "{err}");
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        for (line, what) in [
            ("[]", "must be a JSON object"),
            (r#"{"id": 0, "kind": "x"}"#, "missing version"),
            (r#"{"v": 1, "kind": "x"}"#, "missing integer 'id'"),
            (r#"{"v": 1, "id": 0}"#, "missing string 'kind'"),
            (r#"{"v": 1, "id": 0, "kind": ""}"#, "non-empty"),
            ("not json", ""),
        ] {
            let err = Frame::decode(line).unwrap_err();
            assert!(matches!(err, WireError::Malformed(_)), "{line}: {err:?}");
            assert!(err.to_string().contains(what), "{line}: {err}");
        }
        assert_eq!(Frame::decode("{}\n{}"), Err(WireError::MultiLine));
    }

    #[test]
    fn oversized_lines_are_rejected_both_ways() {
        let huge = "x".repeat(MAX_FRAME_BYTES + 1);
        match Frame::decode(&huge).unwrap_err() {
            WireError::TooLarge { len, max } => {
                assert_eq!(len, MAX_FRAME_BYTES + 1);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let frame = Frame::new(1, "result", Value::str("y".repeat(MAX_FRAME_BYTES)));
        assert!(matches!(
            frame.encode_checked(),
            Err(WireError::TooLarge { .. })
        ));
        // Normal frames pass the checked encoder.
        assert!(Frame::new(1, "ping", Value::Null).encode_checked().is_ok());
    }

    #[test]
    fn typed_error_frames_roundtrip_code_message_and_hint() {
        let frame = Frame::error(9, ErrorCode::QueueFull, "job queue full", Some(250));
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back.error_code(), Some(ErrorCode::QueueFull));
        assert_eq!(back.error_message(), Some("job queue full"));
        assert_eq!(back.retry_after_ms(), Some(250));
        // Non-error frames expose none of the error accessors.
        let pong = Frame::new(9, "pong", Value::Null);
        assert_eq!(pong.error_code(), None);
        assert_eq!(pong.error_message(), None);
        assert_eq!(pong.retry_after_ms(), None);
        // Unknown codes parse as None (callers treat as not retryable).
        let odd = Frame::decode(
            r#"{"v":1,"id":1,"kind":"error","body":{"code":"whatever","message":"m"}}"#,
        )
        .unwrap();
        assert_eq!(odd.error_code(), None);
        assert_eq!(odd.error_message(), Some("m"));
    }

    #[test]
    fn error_codes_roundtrip_and_classify() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::BadRequest,
            ErrorCode::UnknownKind,
            ErrorCode::QueueFull,
            ErrorCode::OverQuota,
            ErrorCode::BudgetExhausted,
            ErrorCode::GridTooLarge,
            ErrorCode::ShuttingDown,
            ErrorCode::JobFailed,
            ErrorCode::Overloaded,
            ErrorCode::IdleTimeout,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
        assert!(ErrorCode::QueueFull.retryable());
        assert!(ErrorCode::Overloaded.retryable());
        assert!(!ErrorCode::BadFrame.retryable());
        assert!(!ErrorCode::GridTooLarge.retryable());
    }

    #[test]
    fn monotonic_ids_strictly_increase() {
        let ids = MonotonicId::new();
        let a = ids.next();
        let b = ids.next();
        let c = ids.next();
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn heartbeat_frames_are_tiny_and_typed() {
        let hb = Frame::heartbeat(3);
        assert_eq!(hb.kind, KIND_HEARTBEAT);
        let back = Frame::decode(&hb.encode()).unwrap();
        assert_eq!(back.id, 3);
        assert_eq!(back.body, Value::Null);
    }
}
