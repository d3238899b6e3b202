//! The unified drain-side observer API.
//!
//! Everything that runs at drain time — trace exporters and the
//! overhead-budget tick — implements one trait: [`TelemetryConsumer`].
//! A session drains its rings once and fans the single [`Drained`] batch
//! out to every registered consumer.
//!
//! Consumers run on the collector's side of the telemetry protocol:
//! they are free to allocate, take their own locks, and do I/O. The one
//! contract is that they never touch the recording path — a consumer
//! receives a borrowed batch, nothing that can write back into the rings.

use crate::Drained;
use std::io::Write;

/// Context handed to every consumer alongside the drained batch.
#[derive(Debug)]
pub struct DrainContext {
    /// Virtual-clock timestamp at drain time.
    pub now: u64,
}

/// A drain-time observer: receives every drained batch, in registration
/// order, from a single ring drain.
pub trait TelemetryConsumer: Send {
    /// Observe one drained batch. `batch.events` is timestamp-sorted;
    /// `batch.dropped` counts ring overflow since the previous drain.
    fn on_drain(&mut self, batch: &Drained, ctx: &DrainContext);
}

/// Blanket impl so plain closures register as consumers:
/// `builder.observe(|batch, ctx| ...)`.
impl<F> TelemetryConsumer for F
where
    F: FnMut(&Drained, &DrainContext) + Send,
{
    fn on_drain(&mut self, batch: &Drained, ctx: &DrainContext) {
        self(batch, ctx);
    }
}

/// A consumer that appends each batch to a writer as JSON-Lines (one
/// event object per line, the [`crate::export::json_lines`] format).
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    writer: W,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap a writer. Each drained batch is appended and flushed.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink { writer }
    }

    /// Recover the writer (e.g. to inspect an in-memory buffer).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write + Send> TelemetryConsumer for JsonLinesSink<W> {
    fn on_drain(&mut self, batch: &Drained, _ctx: &DrainContext) {
        let text = crate::export::json_lines(&batch.events);
        let _ = self.writer.write_all(text.as_bytes());
        let _ = self.writer.flush();
    }
}

/// A consumer that accumulates every batch and renders one Chrome
/// `trace_event` document ([`crate::export::chrome_trace`]) on demand.
/// Chrome traces are whole documents, not streams, so this sink buffers
/// events and the owner calls [`ChromeTraceSink::render`] at the end of
/// the run.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Vec<crate::Event>,
}

impl ChromeTraceSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::default()
    }

    /// Render everything observed so far as one Chrome trace document.
    #[must_use]
    pub fn render(&self) -> String {
        crate::export::chrome_trace(&self.events)
    }
}

impl TelemetryConsumer for ChromeTraceSink {
    fn on_drain(&mut self, batch: &Drained, _ctx: &DrainContext) {
        self.events.extend_from_slice(&batch.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, EventKind};

    fn batch() -> Drained {
        Drained {
            events: vec![
                Event { tsc: 10, thread: 0, kind: EventKind::SectionEnter, a: 1, b: 1 },
                Event { tsc: 20, thread: 0, kind: EventKind::SectionExit, a: 1, b: 10 },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn closures_are_consumers() {
        let mut seen = 0usize;
        let ctx = DrainContext { now: 42 };
        let mut consumer = |b: &Drained, c: &DrainContext| {
            seen += b.events.len();
            assert_eq!(c.now, 42);
        };
        consumer.on_drain(&batch(), &ctx);
        assert_eq!(seen, 2);
    }

    #[test]
    fn json_lines_sink_appends_batches() {
        let ctx = DrainContext { now: 0 };
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.on_drain(&batch(), &ctx);
        sink.on_drain(&batch(), &ctx);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            serde_json::from_str::<serde_json::Value>(line).expect("valid JSON line");
        }
    }

    #[test]
    fn chrome_sink_renders_accumulated_trace() {
        let ctx = DrainContext { now: 0 };
        let mut sink = ChromeTraceSink::new();
        sink.on_drain(&batch(), &ctx);
        let text = sink.render();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid trace JSON");
        assert!(v.get("traceEvents").is_some());
    }
}
