//! An event stream replayed in-process through `kard_rt::KardExecutor`:
//! the embed workloads' whole job, and for the other workloads the way
//! their own events reach the layers a live run cannot span from outside.

use crate::report::{Checks, Metrics};
use crate::spans::{Kind, Tracer};
use crate::stats::median;
use kard_core::KardConfig;
use kard_rt::{KardExecutor, Session};
use kard_server::proto::{parse_request, request_payload, Request};
use kard_sim::{MachineCounters, ThreadId};
use kard_trace::replay::replay;
use kard_trace::wire::{decode_batch, encode_batch, read_frame, write_frame};
use kard_trace::{Event, Executor, Op, Trace};
use kard_workloads::native::{metrics_of, NativeExecutor, VariantMetrics};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// Events and the detector configuration they are replayed under.
pub struct Stream {
    pub trace: Trace,
    pub config: KardConfig,
}

impl Stream {
    pub fn session(&self) -> Session {
        Session::builder().config(self.config).build()
    }

    pub fn len(&self) -> usize {
        self.trace.events().len()
    }
}

/// The virtual-clock outcome of one replay. The simulator is
/// deterministic, so every replay of one stream must produce the same one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub cycles: u64,
    pub faults: u64,
    pub pkey_mprotect: u64,
    pub wrpkru: u64,
    pub reports: usize,
}

impl Fingerprint {
    pub fn of(session: &Session) -> Fingerprint {
        let counters = session.machine().counters();
        Fingerprint {
            cycles: session.machine().now(),
            faults: counters.faults,
            pkey_mprotect: counters.pkey_mprotect,
            wrpkru: counters.wrpkru,
            reports: session.kard().reports().len(),
        }
    }
}

/// One untraced replay into a fresh session; the session build is outside
/// the timer. Returns the replay's wall seconds and the session.
pub fn replay_untraced(stream: &Stream) -> (f64, Session) {
    let session = stream.session();
    let mut exec = KardExecutor::new(Arc::clone(session.kard()));
    let start = Instant::now();
    replay(&stream.trace, &mut exec);
    (start.elapsed().as_secs_f64(), session)
}

/// Replay `stream` untraced until `seconds` have passed (at least once).
/// Each replay is one operation, failing unless its fingerprint is
/// `reference`. Returns each replay's wall seconds.
pub fn untraced_replays(
    stream: &Stream,
    seconds: f64,
    reference: &Fingerprint,
    checks: &mut Checks,
) -> Vec<f64> {
    let region = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || region.elapsed().as_secs_f64() < seconds {
        let (wall, session) = replay_untraced(stream);
        let got = Fingerprint::of(&session);
        checks.op(got == *reference, || {
            format!("replay {} diverged: {got:?} != {reference:?}", walls.len())
        });
        walls.push(wall);
    }
    walls
}

/// The stream's modelled cost under Kard against the uninstrumented
/// `NativeExecutor` baseline, both on the simulator's virtual clock.
pub struct Virt {
    pub native: VariantMetrics,
    pub kard: VariantMetrics,
    pub counters: MachineCounters,
    pub events: usize,
}

impl Virt {
    pub fn measure(stream: &Stream) -> Virt {
        let mut native = NativeExecutor::new();
        replay(&stream.trace, &mut native);
        let (_, session) = replay_untraced(stream);
        Virt {
            native: native.metrics(),
            kard: metrics_of(session.machine()),
            counters: session.machine().counters(),
            events: stream.len(),
        }
    }

    pub fn overhead_pct(&self) -> f64 {
        pct_over(self.native.cycles, self.kard.cycles)
    }

    pub fn rss_overhead_pct(&self) -> f64 {
        pct_over(self.native.peak_rss_bytes, self.kard.peak_rss_bytes)
    }

    /// The `sim.*` counts: exact, and the same for every seed because the
    /// stream they come from is the canonical one.
    pub fn put_sim(&self, m: &mut Metrics) {
        m.put(
            "sim.cycles_per_event",
            self.kard.cycles as f64 / self.events as f64,
        );
        m.put("sim.wrpkru", self.counters.wrpkru as f64);
        m.put("sim.pkey_mprotect", self.counters.pkey_mprotect as f64);
        m.put("sim.faults", self.counters.faults as f64);
        m.put("sim.mmap", self.counters.mmap as f64);
        m.put("sim.dtlb_miss_rate", self.kard.dtlb_miss_rate);
    }
}

fn pct_over(base: u64, variant: u64) -> f64 {
    100.0 * (variant as f64 - base as f64) / base as f64
}

/// Spans of the first replay kept for the trace file: the head of the
/// stream (set-up allocations) and a stretch from its middle (steady state).
const KEEP_HEAD: usize = 4_000;
const KEEP_BODY: usize = 30_000;

/// One replay with a span per event, classed by operation. Spans are
/// contiguous — one clock read ends a span and starts the next — so the
/// loop's own cost is inside them and the replay's time is fully covered.
fn replay_traced(stream: &Stream, session: &Session, tracer: &mut Tracer, op: u64) -> f64 {
    let machine = session.machine();
    let fault_cycles = machine.cost_model().fault_handling;
    let mut exec = KardExecutor::new(Arc::clone(session.kard()));
    let events = stream.trace.events();
    let body = events.len() / 2..events.len() / 2 + KEEP_BODY;
    let root = tracer.open(Kind::Replay, op);
    exec.start(stream.trace.thread_count());
    let mut t0 = tracer.now();
    let start = t0;
    for (i, event) in events.iter().enumerate() {
        // A fresh session numbers its threads from zero, as the stream does.
        let thread = ThreadId(event.thread);
        let access = event.op.is_access();
        let before = if access {
            machine.thread_cycles(thread)
        } else {
            0
        };
        exec.on_event(event.thread, &event.op);
        let kind = match event.op {
            Op::Lock { .. } => Kind::LockEnter,
            Op::Unlock { .. } => Kind::LockExit,
            Op::Alloc { .. } | Op::Global { .. } => Kind::Alloc,
            Op::Free { .. } => Kind::Free,
            Op::Compute { .. } => Kind::Charge,
            Op::Read { .. } | Op::Write { .. } => {
                if machine.thread_cycles(thread) - before >= fault_cycles {
                    Kind::Fault
                } else {
                    Kind::Access
                }
            }
        };
        let t1 = tracer.now();
        let keep = op == 0 && (i < KEEP_HEAD || body.contains(&i));
        tracer.child(kind, t0, t1, &root, keep);
        t0 = t1;
    }
    exec.finish();
    tracer.close(root, t0);
    (t0 - start) as f64 / 1e9
}

/// Replay `stream` traced until `seconds` have passed (at least once),
/// checking each replay like [`untraced_replays`]. Returns each replay's
/// wall seconds and the last session, whose counters are the replay's.
pub fn traced_replays(
    stream: &Stream,
    seconds: f64,
    reference: &Fingerprint,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Vec<f64>, Session) {
    let region = Instant::now();
    let mut walls = Vec::new();
    loop {
        let op = walls.len() as u64;
        let session = tracer.lone(Kind::SessionBuild, op, || stream.session());
        walls.push(replay_traced(stream, &session, tracer, op));
        let got = Fingerprint::of(&session);
        checks.op(got == *reference, || {
            format!("traced replay {op} diverged: {got:?} != {reference:?}")
        });
        if region.elapsed().as_secs_f64() >= seconds {
            return (walls, session);
        }
    }
}

/// Events per second from per-replay wall times, as a median.
pub fn events_per_s(stream: &Stream, walls: &[f64]) -> Vec<f64> {
    walls.iter().map(|w| stream.len() as f64 / w).collect()
}

/// `kard-telemetry`: replay with recording on, drain once per replay.
pub fn telemetry_probe(
    stream: &Stream,
    seconds: f64,
    untraced_events_per_s: f64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) {
    let region = Instant::now();
    let mut rates = Vec::new();
    let (mut recorded, mut lost) = (0, 0);
    while rates.is_empty() || region.elapsed().as_secs_f64() < seconds {
        let session = Session::builder()
            .config(stream.config)
            .telemetry(true)
            .build();
        let mut exec = KardExecutor::new(Arc::clone(session.kard()));
        let start = Instant::now();
        replay(&stream.trace, &mut exec);
        rates.push(stream.len() as f64 / start.elapsed().as_secs_f64());
        let drained = tracer.lone(Kind::Drain, rates.len() as u64, || session.drain());
        recorded = session.telemetry().events_recorded();
        lost = drained.dropped;
    }
    m.put(
        "telemetry.record_overhead_pct",
        100.0 * (untraced_events_per_s / median(&rates) - 1.0),
    );
    m.put("telemetry.events_recorded", recorded as f64);
    m.put("telemetry.events_lost", lost as f64);
}

/// Session builds beyond the one per traced replay, so the median has a
/// sample count worth stating.
pub fn session_build_probe(stream: &Stream, tracer: &mut Tracer) {
    for i in 0..100 {
        drop(tracer.lone(Kind::SessionBuild, 1_000 + i, || stream.session()));
    }
}

/// Events per `Batch` frame in the codec probe: the firehose workloads'
/// burst size.
const PROBE_BATCH: usize = 512;
const PROBE_BATCHES: usize = 48;

/// `kard-trace` and the reader half of `kard-server`, called directly on
/// batches cut from `events` at evenly spaced offsets.
pub fn codec_probe(events: &[Event], seconds: f64, m: &mut Metrics) {
    let batch = PROBE_BATCH.min(events.len());
    let count = PROBE_BATCHES.min(events.len() / batch);
    let stride = if count > 1 {
        (events.len() - batch) / (count - 1)
    } else {
        0
    };
    let batches: Vec<&[Event]> = (0..count)
        .map(|i| &events[i * stride..i * stride + batch])
        .collect();
    let total = (batch * count) as f64;
    let arrays: Vec<String> = batches.iter().map(|b| encode_batch(b)).collect();
    let payloads: Vec<String> = batches
        .iter()
        .map(|b| request_payload(&Request::Batch(b.to_vec())))
        .collect();
    let mut framed = Vec::new();
    for payload in &payloads {
        write_frame(&mut framed, payload.as_bytes()).expect("probe frame within the limit");
    }

    let (mut encode, mut decode, mut parse, mut frame) = (vec![], vec![], vec![], vec![]);
    let region = Instant::now();
    while encode.is_empty() || region.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        for b in &batches {
            black_box(encode_batch(black_box(b)));
        }
        encode.push(t.elapsed().as_nanos() as f64 / total);

        let t = Instant::now();
        for a in &arrays {
            black_box(decode_batch(black_box(a)).expect("probe batch decodes"));
        }
        decode.push(t.elapsed().as_nanos() as f64 / total);

        let t = Instant::now();
        for p in &payloads {
            black_box(parse_request(black_box(p.as_bytes())).expect("probe payload parses"));
        }
        parse.push(t.elapsed().as_nanos() as f64 / total);

        let mut cursor = Cursor::new(framed.as_slice());
        let t = Instant::now();
        let mut frames = 0;
        while let Some(payload) = read_frame(&mut cursor).expect("probe frame reads") {
            black_box(payload);
            frames += 1;
        }
        frame.push(t.elapsed().as_nanos() as f64 / frames as f64);
        assert_eq!(frames, count, "every probe frame read back");
    }
    m.put_median("trace.encode_ns_per_event", &encode);
    m.put_median("trace.decode_ns_per_event", &decode);
    m.put_median("trace.frame_read_ns_per_frame", &frame);
    m.put(
        "trace.bytes_per_event",
        payloads.iter().map(String::len).sum::<usize>() as f64 / total,
    );
    m.put_median("server.parse_request_ns_per_event", &parse);
}

/// The seed of every workload's canonical stream — the schedule its
/// virtual-clock numbers are measured on, whatever `--seed` says, so they
/// repeat exactly across runs and compare exactly across commits. It is the
/// seed `kard-tables` generates Table 3 with: an embed workload's
/// `virt_overhead_pct` is that table's Kard column at the workload's scale.
pub const CANONICAL_SEED: u64 = 7;

/// What every workload prepares besides its live inputs: its own events as
/// a stream seeded by `--seed`, the fingerprint every replay of that stream
/// must reproduce, and the virtual-clock baseline of the stream's canonical
/// (seed-independent) schedule.
pub struct Replayable {
    pub stream: Stream,
    pub reference: Fingerprint,
    pub virt: Virt,
}

impl Replayable {
    pub fn new(seeded: Trace, canonical: Trace, config: KardConfig) -> Replayable {
        let virt = Virt::measure(&Stream {
            trace: canonical,
            config,
        });
        let stream = Stream {
            trace: seeded,
            config,
        };
        // Doubles as the warm-up replay: allocator and page-cache state of
        // the process are as every later replay will find them.
        let reference = Fingerprint::of(&replay_untraced(&stream).1);
        Replayable {
            stream,
            reference,
            virt,
        }
    }
}
