//! Trace exporters: JSON-Lines and Chrome `trace_event` format.
//!
//! Both exporters are pure functions over a drained event batch; they run
//! outside the detector entirely (the collector's side of the protocol)
//! and are free to allocate. The Chrome exporter emits the subset of the
//! [Trace Event Format] that `chrome://tracing` and Perfetto accept:
//! duration events (`ph: "B"`/`"E"`) for critical sections and fault
//! handling, thread-scoped instant events (`ph: "i"`, `s: "t"`) for
//! everything else.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! All strings in the output come from fixed vocabularies (event-kind
//! names, hex-formatted integers), so the emitted text is valid JSON by
//! construction; `tests` parse it back with `serde_json` to keep that
//! claim checked.

use crate::event::{Event, EventKind};
use std::fmt::Write as _;

/// Virtual-clock cycles per microsecond on the paper's 2.1 GHz evaluation
/// machine (§7.1) — mirrors `kard_sim::PAPER_CPU_HZ` without the
/// dependency. The Chrome format wants microsecond timestamps.
pub const CYCLES_PER_US: f64 = 2_100.0;

/// Serialize events as JSON-Lines: one self-describing object per line.
#[must_use]
pub fn json_lines(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        let _ = writeln!(
            out,
            "{{\"tsc\":{},\"thread\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
            e.tsc,
            e.thread,
            e.kind.name(),
            e.a,
            e.b
        );
    }
    out
}

/// Which Chrome phase an event maps to.
enum Phase {
    Begin(String),
    End,
    Instant,
}

fn phase_of(e: &Event) -> (Phase, &'static str) {
    match e.kind {
        EventKind::SectionEnter => (Phase::Begin(format!("section {:#x}", e.a)), "section"),
        EventKind::SectionExit => (Phase::End, "section"),
        EventKind::FaultEnter => (Phase::Begin(format!("fault key {}", e.b)), "fault"),
        EventKind::FaultResolve => (Phase::End, "fault"),
        _ => (Phase::Instant, "detector"),
    }
}

/// Serialize events in Chrome `trace_event` JSON (the "JSON object
/// format": `{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto. Events must be in per-thread recording order for the
/// begin/end pairs to nest (the order a drain yields).
#[must_use]
pub fn chrome_trace(events: &[Event]) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(events.len());
    for e in events {
        let ts = e.tsc as f64 / CYCLES_PER_US;
        let (phase, cat) = phase_of(e);
        let entry = match phase {
            Phase::Begin(name) => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}",
                e.thread
            ),
            Phase::End => format!(
                "{{\"ph\":\"E\",\"cat\":\"{cat}\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}",
                e.thread
            ),
            Phase::Instant => format!(
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
                e.kind.name(),
                e.thread,
                e.a,
                e.b
            ),
        };
        entries.push(entry);
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
        entries.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event { tsc: 100, thread: 0, kind: EventKind::SectionEnter, a: 0x1a, b: 1 },
            Event { tsc: 150, thread: 0, kind: EventKind::KeyGrant, a: 3, b: 0 },
            Event { tsc: 220, thread: 1, kind: EventKind::FaultEnter, a: 0x4000, b: 5 },
            Event { tsc: 24_420, thread: 1, kind: EventKind::FaultResolve, a: 24_200, b: 0 },
            Event { tsc: 400, thread: 0, kind: EventKind::SectionExit, a: 0x1a, b: 300 },
        ]
    }

    #[test]
    fn json_lines_parse_individually() {
        let text = json_lines(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            let serde_json::Value::Object(obj) = v else {
                panic!("each line is an object")
            };
            let mut keys: Vec<&str> = obj.keys().map(String::as_str).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["a", "b", "kind", "thread", "tsc"]);
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_paired_durations() {
        let text = chrome_trace(&sample());
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid trace JSON");
        let serde_json::Value::Object(top) = v else {
            panic!("top level is an object")
        };
        let events = top
            .iter()
            .find(|(k, _)| k.as_str() == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents present");
        let serde_json::Value::Array(items) = events else {
            panic!("traceEvents is an array")
        };
        assert_eq!(items.len(), 5);
        let phases: Vec<String> = items
            .iter()
            .map(|item| {
                let serde_json::Value::Object(o) = item else { panic!() };
                o.iter()
                    .find(|(k, _)| k.as_str() == "ph")
                    .map(|(_, v)| format!("{v:?}"))
                    .expect("every entry has a phase")
            })
            .collect();
        assert_eq!(phases.iter().filter(|p| p.contains('B')).count(), 2);
        assert_eq!(phases.iter().filter(|p| p.contains('E')).count(), 2);
    }

    #[test]
    fn timestamps_convert_to_microseconds() {
        let text = chrome_trace(&sample()[..1]);
        // 100 cycles at 2.1 GHz ≈ 0.048 µs.
        assert!(text.contains("\"ts\":0.048"), "{text}");
    }
}
