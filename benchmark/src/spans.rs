//! Benchmark-side spans: recorded around calls into each crate's public
//! functions, kept in memory, written out when the run ends.
//!
//! Every span's duration goes into a per-kind [`Hist`]; the spans
//! themselves (name, start, end, parent, operation id) are kept only up to
//! [`SPAN_CAP`] so a run that traces tens of millions of events still
//! writes a trace file of a few megabytes.

use crate::stats::Hist;
use serde_json::{Map, Value};
use std::time::Instant;

/// Spans kept verbatim for the trace file; later ones only feed the
/// histograms.
pub const SPAN_CAP: usize = 40_000;

/// What a span measures. The prefix of [`Kind::name`] is the layer (crate)
/// the spanned call lands in; `bench.*` spans are the benchmark's own
/// operations and parent the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One replay of an event stream into a fresh session.
    Replay,
    /// One 64-entry round of an `embed_threads` generator thread.
    Round,
    /// One `fire_stream` window: 16 frames and a flush.
    Window,
    /// One `fire_storm` session: connect, bursts, bye.
    StormSession,
    LockEnter,
    LockExit,
    /// A read or write that raised no simulated fault.
    Access,
    /// A read or write whose caller paid at least one fault's cycles.
    Fault,
    Alloc,
    Free,
    /// `Machine::charge` for a `Compute` op.
    Charge,
    SessionBuild,
    Drain,
    Connect,
    Send,
    FlushWait,
    EmptyFlush,
    Bye,
}

impl Kind {
    pub const COUNT: usize = Kind::Bye as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Kind::Replay => "bench.replay",
            Kind::Round => "bench.round",
            Kind::Window => "bench.window",
            Kind::StormSession => "bench.session",
            Kind::LockEnter => "core.lock_enter",
            Kind::LockExit => "core.lock_exit",
            Kind::Access => "core.access",
            Kind::Fault => "core.fault",
            Kind::Alloc => "alloc.alloc",
            Kind::Free => "alloc.free",
            Kind::Charge => "sim.charge",
            Kind::SessionBuild => "rt.session_build",
            Kind::Drain => "rt.drain",
            Kind::Connect => "server.connect",
            Kind::Send => "server.send",
            Kind::FlushWait => "server.flush_wait",
            Kind::EmptyFlush => "server.empty_flush",
            Kind::Bye => "server.bye",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// Replay, round, window or session number the span belongs to.
    pub op: u64,
}

/// An open root span, closed with [`Tracer::close`].
#[derive(Clone, Copy)]
pub struct Root {
    id: u64,
    kind: Kind,
    start_ns: u64,
    op: u64,
}

/// An operation that is spanned when the run is traced and merely run when
/// it is not: the workloads' loops are written once for both.
pub struct Scope<'a>(Option<(&'a mut Tracer, Root)>);

impl<'a> Scope<'a> {
    /// Open the operation's root span in `tracer`, if there is one.
    pub fn open(tracer: Option<&'a mut Tracer>, kind: Kind, op: u64) -> Scope<'a> {
        Scope(tracer.map(|t| {
            let root = t.open(kind, op);
            (t, root)
        }))
    }

    /// Run `f`, as a child span of the operation when traced.
    #[inline(always)]
    pub fn timed<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        match &mut self.0 {
            Some((tracer, root)) => tracer.timed(kind, root, f),
            None => f(),
        }
    }

    /// The operation is over.
    pub fn close(self) {
        if let Some((tracer, root)) = self.0 {
            let end = tracer.now();
            tracer.close(root, end);
        }
    }
}

/// Collects the spans of one thread.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    hists: Vec<Hist>,
    spans: Vec<Span>,
    dropped: u64,
    /// Σ duration of root spans: the traced wall time.
    root_ns: u64,
    /// Σ duration of child spans. Children never nest here, so this is
    /// also Σ of their self time; a root's self time is the rest.
    child_ns: u64,
}

impl Tracer {
    /// A tracer whose span ids start at `lane << 40`, so the spans of
    /// several threads sharing one `epoch` can be concatenated.
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: lane << 40,
            hists: vec![Hist::default(); Kind::COUNT],
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
            root_ns: 0,
            child_ns: 0,
        }
    }

    /// A tracer on the same clock whose spans can later be [`merge`]d
    /// into this one.
    ///
    /// [`merge`]: Tracer::merge
    pub fn lane(&self, lane: u64) -> Tracer {
        Tracer::new(self.epoch, lane)
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn push(&mut self, span: Span, keep: bool) {
        if keep && self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Open a root span starting now.
    pub fn open(&mut self, kind: Kind, op: u64) -> Root {
        let id = self.next_id;
        self.next_id += 1;
        Root {
            id,
            kind,
            start_ns: self.now(),
            op,
        }
    }

    /// Close `root` at `end_ns`.
    pub fn close(&mut self, root: Root, end_ns: u64) -> u64 {
        let duration = end_ns - root.start_ns;
        self.hists[root.kind as usize].record(duration);
        self.root_ns += duration;
        self.push(
            Span {
                id: root.id,
                kind: root.kind,
                start_ns: root.start_ns,
                end_ns,
                parent: None,
                op: root.op,
            },
            true,
        );
        duration
    }

    /// Record a child of `root` over `start_ns..end_ns`. `keep` selects
    /// whether the span itself is wanted in the trace file; its duration
    /// always reaches the histogram.
    pub fn child(&mut self, kind: Kind, start_ns: u64, end_ns: u64, root: &Root, keep: bool) {
        let duration = end_ns - start_ns;
        self.hists[kind as usize].record(duration);
        self.child_ns += duration;
        let id = self.next_id;
        self.next_id += 1;
        self.push(
            Span {
                id,
                kind,
                start_ns,
                end_ns,
                parent: Some(root.id),
                op: root.op,
            },
            keep,
        );
    }

    /// Time `f` as a layer span with no parent and no children (a session
    /// build, a drain, an empty flush): all of it is that layer's self
    /// time, so it counts on both sides of the coverage ratio.
    pub fn lone<T>(&mut self, kind: Kind, op: u64, f: impl FnOnce() -> T) -> T {
        let root = self.open(kind, op);
        let out = f();
        let end = self.now();
        self.child_ns += self.close(root, end);
        out
    }

    /// Time `f` as a child of `root`.
    pub fn timed<T>(&mut self, kind: Kind, root: &Root, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.child(kind, start, end, root, true);
        out
    }

    /// Fold another thread's tracer into this one (each lane keeps its own
    /// [`SPAN_CAP`] spans).
    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        self.spans.extend_from_slice(&other.spans);
        self.dropped += other.dropped;
        self.root_ns += other.root_ns;
        self.child_ns += other.child_ns;
    }

    pub fn hist(&self, kind: Kind) -> &Hist {
        &self.hists[kind as usize]
    }

    /// Share of the traced wall time spent in spans of `kind`.
    pub fn share(&self, kind: Kind) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.hist(kind).sum() as f64 / self.root_ns as f64
        }
    }

    /// Σ span self time of the layer spans ÷ traced wall, in percent: how
    /// much of the traced time is attributed to a layer and not to the
    /// benchmark's own glue between calls.
    pub fn coverage_pct(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            100.0 * self.child_ns as f64 / self.root_ns as f64
        }
    }

    /// The trace file's body: every kept span, plus how many were only
    /// counted.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut m = Map::new();
                m.insert("id".into(), Value::U64(s.id));
                m.insert("name".into(), Value::String(s.kind.name().into()));
                m.insert("start_ns".into(), Value::U64(s.start_ns));
                m.insert("end_ns".into(), Value::U64(s.end_ns));
                m.insert("parent".into(), s.parent.map_or(Value::Null, Value::U64));
                m.insert("op".into(), Value::U64(s.op));
                Value::Object(m)
            })
            .collect();
        let mut out = Map::new();
        out.insert("spans_kept".into(), Value::U64(self.spans.len() as u64));
        out.insert("spans_counted_only".into(), Value::U64(self.dropped));
        out.insert("traced_wall_ns".into(), Value::U64(self.root_ns));
        out.insert("spans".into(), Value::Array(spans));
        Value::Object(out)
    }
}
