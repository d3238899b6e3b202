//! The firehose protocol: request/response message vocabulary.
//!
//! Requests travel client→server as length-prefixed JSON frames
//! ([`kard_trace::wire`]); responses travel server→client as JSON-Lines
//! (one [`Response`] object per line). Events reuse the
//! [`kard_trace::Event`] vocabulary verbatim, so anything that can build
//! a trace can feed the server.
//!
//! Race reports cross the wire in **client vocabulary** ([`WireRace`]):
//! object *tags*, client-local thread indices, and the client's own code
//! sites — never the server's internal object ids, `ThreadId`s, or
//! namespaced section sites. Two runs of the same session therefore
//! produce byte-identical report lines regardless of what other sessions
//! shared the server, which is what the isolation tests assert.

use kard_core::KardSnapshot;
use kard_sim::AccessKind;
use kard_telemetry::HistogramSummary;
use kard_trace::Event;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A client→server message (one per request frame).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open a session. Must be the first frame on a connection; the
    /// server routes the session to shard `hash(client) % shards`.
    Hello {
        /// Client-chosen session name (the shard-routing key).
        client: String,
    },
    /// One event.
    Event(Event),
    /// A batch of events, the efficient form. The connection's reader
    /// thread decodes it with [`kard_trace::wire::decode_batch`]: one
    /// strict pass over the bytes [`request_payload`] writes, with serde
    /// behind it for any other spelling.
    Batch(Vec<Event>),
    /// Apply everything accepted so far, then deliver pending race
    /// reports followed by a [`Response::Flushed`] summary.
    Flush,
    /// Return a [`Response::Stats`] snapshot (`/statsz`).
    Stats,
    /// End the session gracefully: drain, deliver pending reports, and
    /// answer with [`Response::Bye`].
    Bye,
    /// Ask the whole server to drain and exit (the SIGTERM-equivalent
    /// control command): accepting stops, every shard applies its queued
    /// events, and every open session receives its pending reports and a
    /// [`Response::Bye`].
    Shutdown,
}

/// A server→client message (one per response line). A session's lines
/// end with its [`Response::Bye`]: a response produced after the session
/// ended (a `Stats` answer racing an eviction, say) is discarded, never
/// written after it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Session accepted.
    Hello {
        /// Server-assigned session serial.
        session: u64,
        /// Shard the session was routed to.
        shard: usize,
    },
    /// One race report, in client vocabulary.
    Race(WireRace),
    /// A report this session already received was withdrawn: §5.5
    /// interleaving showed its two accesses touch different offsets. The
    /// payload repeats the report as it was delivered.
    Retracted(WireRace),
    /// Answer to [`Request::Flush`].
    Flushed(SessionSummary),
    /// Answer to [`Request::Stats`].
    Stats(Statsz),
    /// Session ended (answer to [`Request::Bye`], idle eviction, or
    /// server shutdown) — always the last line of a session.
    Bye(SessionSummary),
    /// Protocol failure; the server closes the connection after this.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// One side of a [`WireRace`], in client vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WireSide {
    /// Client-local logical thread index.
    pub thread: usize,
    /// The client's code site of the critical-section entry, or `None`
    /// for an unlocked access.
    pub section: Option<u64>,
    /// The client's code site of the access.
    pub ip: u64,
    /// Byte offset within the object, where known.
    pub offset: Option<u64>,
}

/// A race report in client vocabulary. Deliberately excludes the
/// detector's virtual timestamp and internal ids so that identical
/// session traffic yields byte-identical reports across runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireRace {
    /// The client's tag for the raced object.
    pub object: u64,
    /// Access kind of the faulting side.
    pub access: AccessKind,
    /// The side whose access faulted.
    pub faulting: WireSide,
    /// The side holding the object's protection key.
    pub holding: WireSide,
}

impl WireRace {
    /// Canonical sort key: report batches are sorted by this before
    /// delivery so report order never leaks scheduling noise.
    #[must_use]
    pub fn sort_key(&self) -> (u64, usize, u64, Option<u64>, u8, WireSide) {
        (
            self.object,
            self.faulting.thread,
            self.faulting.ip,
            self.faulting.offset,
            matches!(self.access, AccessKind::Write).into(),
            self.holding,
        )
    }
}

/// Per-session accounting, reported with [`Response::Flushed`] and
/// [`Response::Bye`]. `applied + dropped + rejected` equals the number of
/// events the client sent (once the session is drained), which is how
/// tests prove the drop counters are accurate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Server-assigned session serial.
    pub session: u64,
    /// Events applied to the detector.
    pub applied: u64,
    /// Events dropped fail-open by the bounded ingest queue.
    pub dropped: u64,
    /// Events rejected as invalid (unknown tags, cap overflows,
    /// unbalanced locks) — skipped, never fatal.
    pub rejected: u64,
    /// Race reports delivered to this session so far and not since
    /// withdrawn ([`Response::Retracted`]).
    pub races: u64,
    /// True when the server ended the session (idle eviction or
    /// shutdown) rather than the client.
    pub evicted: bool,
}

/// One shard's `/statsz` block.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStatsz {
    /// Shard index.
    pub shard: usize,
    /// Sessions currently attached.
    pub active_sessions: u64,
    /// Threads of the shard's machine not yet retired: those of its
    /// attached sessions (a session's threads retire when it ends).
    pub threads_live: usize,
    /// Threads the shard's machine ever registered, retired ones
    /// included: thread ids are never reused, so this is what
    /// `kard_sim::THREAD_CAPACITY` bounds.
    pub threads_registered: usize,
    /// Events currently queued (ingest backlog).
    pub queue_depth: u64,
    /// Events applied to the detector.
    pub applied: u64,
    /// Events dropped fail-open at the queue bound.
    pub dropped: u64,
    /// Events rejected as invalid.
    pub rejected: u64,
    /// `rejected` by [`kard_rt::Rejection::name`], nonzero counts only.
    pub rejected_by_reason: BTreeMap<String, u64>,
    /// Race reports delivered and not since withdrawn.
    pub races: u64,
    /// Sessions evicted for idleness.
    pub evictions: u64,
    /// Queue→apply latency distribution, nanoseconds.
    pub ingest_latency_ns: HistogramSummary,
    /// Detector fault-handling latency distribution, virtual cycles
    /// (all-zero unless the server runs with telemetry enabled).
    pub fault_delay_cycles: HistogramSummary,
    /// Critical-section hold-time distribution, virtual cycles
    /// (all-zero unless the server runs with telemetry enabled).
    pub section_hold_cycles: HistogramSummary,
    /// The shard detector's full snapshot — the same
    /// [`KardSnapshot`] the embedded runtime and `kard-tables
    /// --stats-json` emit, so every stats surface serializes one shape.
    /// Carries the production-mode controller block (all-default unless
    /// [`ServerConfig::detector`](crate::ServerConfig::detector) runs in
    /// production mode).
    pub detector: KardSnapshot,
}

/// The `/statsz` snapshot: per-shard blocks plus server totals.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Statsz {
    /// Per-shard blocks, indexed by shard.
    pub shards: Vec<ShardStatsz>,
    /// Queue→apply latency across *all* shards, computed by merging the
    /// per-shard histograms and then taking quantiles. Never an average
    /// of per-shard percentiles — the mean of two shard p99s is not the
    /// p99 of anything.
    pub ingest_latency_ns: HistogramSummary,
    /// Sessions ever accepted.
    pub sessions_total: u64,
    /// Sessions currently attached, across shards.
    pub active_sessions: u64,
    /// Events applied, across shards.
    pub applied: u64,
    /// Events dropped fail-open, across shards.
    pub dropped: u64,
    /// Events rejected as invalid, across shards.
    pub rejected: u64,
    /// `rejected` by [`kard_rt::Rejection::name`], across shards.
    pub rejected_by_reason: BTreeMap<String, u64>,
    /// Race reports delivered and not since withdrawn, across shards.
    pub races: u64,
    /// Connections terminated for protocol violations (malformed frames,
    /// missing Hello).
    pub protocol_errors: u64,
}

/// Serialize a response as one JSON line (no trailing newline).
#[must_use]
pub fn response_line(response: &Response) -> String {
    // Derived `Serialize` only, every map keyed by `String`: nothing can fail.
    serde_json::to_string(response).expect("responses always serialize")
}

/// Parse one response line.
///
/// # Errors
///
/// Returns the serde error text when the line is not a valid response.
pub fn parse_response(line: &str) -> Result<Response, String> {
    serde_json::from_str(line.trim_end()).map_err(|e| e.to_string())
}

/// Serialize a request frame payload. Batches take the fast-codec path.
#[must_use]
pub fn request_payload(request: &Request) -> String {
    match request {
        Request::Batch(events) => {
            format!("{{\"Batch\":{}}}", kard_trace::wire::encode_batch(events))
        }
        // Derived `Serialize` over plain fields and event lists: nothing can fail.
        other => serde_json::to_string(other).expect("requests always serialize"),
    }
}

/// Parse a request frame payload. In a payload of the form
/// `{"Batch":[...]}` the array goes to [`kard_trace::wire::decode_batch`]
/// (the strict pass, then serde); every other payload, and a batch that
/// does not decode, is decided by serde over the whole payload.
///
/// # Errors
///
/// Returns a description when the payload is not a valid request.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let trimmed = text.trim();
    if let Some(rest) = trimmed.strip_prefix("{\"Batch\":") {
        if let Some(array) = rest.strip_suffix('}') {
            if let Ok(events) = kard_trace::wire::decode_batch(array) {
                return Ok(Request::Batch(events));
            }
        }
    }
    serde_json::from_str(trimmed).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_trace::{ObjectTag, Op};

    fn batch() -> Vec<Event> {
        vec![
            Event { thread: 0, op: Op::Alloc { tag: ObjectTag(1), size: 64 } },
            Event { thread: 1, op: Op::Compute { cycles: 9 } },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for r in [
            Request::Hello { client: "s-1".into() },
            Request::Event(batch()[0]),
            Request::Batch(batch()),
            Request::Flush,
            Request::Stats,
            Request::Bye,
            Request::Shutdown,
        ] {
            let payload = request_payload(&r);
            assert_eq!(parse_request(payload.as_bytes()).unwrap(), r);
            // The fast batch path emits exactly what serde would.
            assert_eq!(payload, serde_json::to_string(&r).unwrap());
        }
    }

    #[test]
    fn responses_round_trip() {
        let race = WireRace {
            object: 7,
            access: AccessKind::Write,
            faulting: WireSide { thread: 1, section: Some(0xa), ip: 0xa1, offset: Some(8) },
            holding: WireSide { thread: 0, section: Some(0xb), ip: 0xb1, offset: None },
        };
        let shard = ShardStatsz { threads_live: 2, threads_registered: 6, ..Default::default() };
        for r in [
            Response::Hello { session: 3, shard: 1 },
            Response::Race(race.clone()),
            Response::Retracted(race),
            Response::Flushed(SessionSummary { session: 3, applied: 10, ..Default::default() }),
            Response::Stats(Statsz { shards: vec![shard], ..Default::default() }),
            Response::Bye(SessionSummary { session: 3, evicted: true, ..Default::default() }),
            Response::Error { message: "nope".into() },
        ] {
            assert_eq!(parse_response(&response_line(&r)).unwrap(), r);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [&b""[..], b"[]", b"\"Dance\"", b"{\"Batch\":3}", b"{\"Batch\":[{]}"] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_response("{\"Nope\":1}").is_err());
    }

    #[test]
    fn sort_key_orders_by_object_then_thread() {
        let side = WireSide { thread: 0, section: None, ip: 0, offset: None };
        let a = WireRace { object: 1, access: AccessKind::Read, faulting: side, holding: side };
        let mut b = a.clone();
        b.object = 2;
        assert!(a.sort_key() < b.sort_key());
    }
}
