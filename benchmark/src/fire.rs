//! `fire_stream` and `fire_storm`: the `kard-server` firehose over loopback
//! TCP, in-process, driven by one closed-loop client thread — callers of
//! `FirehoseClient` block on their socket, so a closed loop is what they are.

use crate::ledger::{
    put_apply_cost, put_handle_counts, put_op_tail, put_server_metrics, put_span_metrics,
    put_trace_overhead, Counts,
};
use crate::report::Checks;
use crate::spans::{Kind, Scope, Tracer};
use crate::stats::{median, WindowRate};
use crate::stream::{traced_replays, untraced_replays, Replayable, CANONICAL_SEED};
use crate::workload::{Out, Workload};
use kard_server::proto::{request_payload, Request, SessionSummary, Statsz};
use kard_server::{shard_for, FirehoseClient, Server, ServerConfig};
use kard_trace::{Event, Trace};
use kard_workloads::storm::{self, StormConfig, StormSession};
use std::net::SocketAddr;
use std::time::Instant;

pub struct LongStream;
pub struct SessionStorm;

const SHARDS: usize = 2;

/// Frames per `fire_stream` window, each one steady burst.
const WINDOW_FRAMES: usize = 16;
/// Times the 16 steady bursts repeat in `fire_stream`'s replayable stream,
/// so the replay is steady state and not its first burst.
const STREAM_REPEATS: usize = 16;
/// Distinct sessions `fire_storm` cycles through.
const STORM_SESSIONS: usize = 64;

/// Shares of a traced run's workload time: live with spans, live without
/// (prices the spans), own events replayed in-process with spans (the
/// detector's layers, which a socket hides), and without (the floor).
const LIVE_TRACED: f64 = 0.35;
const LIVE_UNTRACED: f64 = 0.25;
const REPLAY_TRACED: f64 = 0.2;
const REPLAY_UNTRACED: f64 = 0.2;
/// The live shares alternate in this many traced/untraced pairs, so drift
/// in the host or the server lands on both sides of the trace overhead.
const LIVE_PAIRS: usize = 4;

/// A running in-process server, drained and joined when dropped.
struct Firehose {
    server: Option<Server>,
    addr: SocketAddr,
}

impl Firehose {
    fn start(queue_bound: usize) -> Firehose {
        let server = Server::start(ServerConfig {
            shards: SHARDS,
            queue_bound,
            idle_timeout: None,
            ..ServerConfig::default()
        })
        .expect("loopback listener binds");
        let addr = server.tcp_addr().expect("tcp is on by default");
        Firehose {
            server: Some(server),
            addr,
        }
    }

    fn statsz(&self) -> Statsz {
        self.server
            .as_ref()
            .expect("running until stopped")
            .statsz()
    }

    /// Drain the server and join its threads.
    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

impl Drop for Firehose {
    fn drop(&mut self) {
        self.stop();
    }
}

fn payload(burst: &[Event]) -> String {
    request_payload(&Request::Batch(burst.to_vec()))
}

fn thread_count(events: &[Event]) -> usize {
    events.iter().map(|e| e.thread + 1).max().unwrap_or(1)
}

fn replayable(seeded: Vec<Event>, canonical: Vec<Event>) -> Replayable {
    let threads = thread_count(&seeded);
    Replayable::new(
        Trace::from_events(threads, seeded),
        Trace::from_events(threads, canonical),
        // What every shard's detector runs under.
        ServerConfig::default().detector,
    )
}

/// A session name that routes to `shard`.
fn name_on_shard(prefix: &str, shard: usize) -> String {
    (0u32..)
        .map(|salt| format!("{prefix}-{salt}"))
        .find(|name| shard_for(name, SHARDS) == shard)
        .expect("some salt lands on every shard")
}

/// Every event sent is an operation: it fails if the server dropped or
/// rejected it, or lost count of it.
fn check_events(sent: u64, summary: &SessionSummary, checks: &mut Checks) {
    let unaccounted = sent.abs_diff(summary.applied + summary.dropped + summary.rejected);
    checks.ops(
        sent,
        summary.dropped + summary.rejected + unaccounted,
        || format!("sent {sent} events, server says {summary:?}"),
    );
}

/// A firehose workload's own loop, as the traced run drives it.
trait Live {
    /// Run the loop for `seconds`, spanned if there is a tracer. Returns
    /// events per second over each rate window and pushes each operation's
    /// milliseconds to `op_ms`.
    fn live(
        &mut self,
        seconds: f64,
        tracer: Option<&mut Tracer>,
        op_ms: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> Vec<f64>;

    /// `/statsz` of the server the loop last ran against.
    fn statsz(&self) -> Statsz;

    fn replayable(&self) -> &Replayable;
}

/// The traced run both firehose workloads share: the live loop with spans
/// and without in alternation, then the workload's own events in-process.
fn traced_run(input: &mut impl Live, seconds: f64, tracer: &mut Tracer, out: &mut Out) {
    let pairs = LIVE_PAIRS as f64;
    let (mut traced_rates, mut untraced_rates) = (Vec::new(), Vec::new());
    let mut op_ms = Vec::new();
    for _ in 0..LIVE_PAIRS {
        traced_rates.extend(input.live(
            seconds * LIVE_TRACED / pairs,
            Some(&mut *tracer),
            &mut Vec::new(),
            &mut out.checks,
        ));
        untraced_rates.extend(input.live(
            seconds * LIVE_UNTRACED / pairs,
            None,
            &mut op_ms,
            &mut out.checks,
        ));
    }
    put_op_tail(&op_ms, &mut out.m);
    put_trace_overhead(median(&untraced_rates), median(&traced_rates), &mut out.m);
    out.live_events_per_s = Some(median(&untraced_rates));

    let stats = input.statsz();
    put_server_metrics(tracer, &stats, &mut out.m);
    let mut counts = Counts::default();
    for shard in &stats.shards {
        counts.add(&shard.detector);
    }
    counts.put(&mut out.m);

    // The detector's own layers sit behind the socket: span them by
    // replaying the workload's events in-process, as a shard applies them.
    // A lane of their own keeps their shares relative to the replays' wall.
    let r = input.replayable();
    let mut lane = tracer.lane(1);
    let (_, session) = traced_replays(
        &r.stream,
        seconds * REPLAY_TRACED,
        &r.reference,
        &mut lane,
        &mut out.checks,
    );
    put_span_metrics(&lane, &mut out.m);
    tracer.merge(lane);
    // `/statsz` carries neither of these; the replay's detector does.
    put_handle_counts(session.kard(), &mut out.m);
    let walls = untraced_replays(
        &r.stream,
        seconds * REPLAY_UNTRACED,
        &r.reference,
        &mut out.checks,
    );
    put_apply_cost(&r.stream, &walls, &mut out.m);
}

// ---------------------------------------------------------------- fire_stream

/// One long-lived connection and the frames it sends over and over.
struct Connection {
    client: FirehoseClient,
    frames: Vec<String>,
    window_events: u64,
    /// Events sent on the connection so far.
    sent: u64,
}

pub struct StreamInput {
    // Dropped before the server, so the shard sees a clean disconnect.
    connection: Connection,
    hose: Firehose,
    replayable: Replayable,
}

fn stream_session(seed: u64) -> StormSession {
    storm::session(
        &StormConfig {
            sessions: 1,
            threads: 4,
            objects_per_thread: 4,
            bursts: 1 + WINDOW_FRAMES,
            entries_per_burst: 32,
            racy_sessions: 1,
            seed,
            ..StormConfig::default()
        },
        0,
    )
}

/// Burst 0, then the steady bursts over and over.
fn stream_events(session: &StormSession) -> Vec<Event> {
    let mut events = session.bursts[0].clone();
    for _ in 0..STREAM_REPEATS {
        events.extend(session.bursts[1..].iter().flatten());
    }
    events
}

impl Connection {
    /// Send windows for `seconds`. Returns events per second over each
    /// rate window and pushes each window's milliseconds to `window_ms`.
    fn run(
        &mut self,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
        window_ms: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let sent_before = self.sent;
        let mut summary = SessionSummary::default();
        let mut rate = WindowRate::new(seconds);
        while rate.elapsed() < seconds {
            // The window's number on this connection, whichever call sends it.
            let id = self.sent / self.window_events;
            let start = Instant::now();
            let mut spans = Scope::open(tracer.as_deref_mut(), Kind::Window, id);
            for frame in &self.frames {
                spans
                    .timed(Kind::Send, || self.client.send_payload(frame))
                    .expect("frame sends");
            }
            summary = spans
                .timed(Kind::FlushWait, || self.client.flush())
                .expect("flush answers");
            window_ms.push(start.elapsed().as_secs_f64() * 1e3);
            spans.close();
            if let Some(t) = tracer.as_deref_mut() {
                // Nothing queued: the reader → shard → outbox → writer
                // hand-off and nothing else.
                t.lone(Kind::EmptyFlush, id, || self.client.flush())
                    .expect("empty flush answers");
            }
            self.sent += self.window_events;
            rate.mark(self.sent - sent_before);
        }
        // `summary` counts the whole connection; so does `sent`.
        let unaccounted = self
            .sent
            .abs_diff(summary.applied + summary.dropped + summary.rejected);
        checks.ops(
            self.sent - sent_before,
            summary.dropped + summary.rejected + unaccounted,
            || format!("sent {} events in all, server says {summary:?}", self.sent),
        );
        // Burst 0 carries the one injected race; nothing after it races.
        let reports = self.client.race_lines().len();
        checks.op(reports == 1, || {
            format!("{reports} race reports, expected exactly 1")
        });
        rate.rates
    }
}

impl Workload for LongStream {
    type Input = StreamInput;

    fn generator_threads(&self) -> usize {
        1
    }

    fn prepare(&self, seed: u64) -> StreamInput {
        let session = stream_session(seed);
        let replayable = replayable(
            stream_events(&session),
            stream_events(&stream_session(CANONICAL_SEED)),
        );
        // Budget far above a window: this workload measures ingest, not shedding.
        let hose = Firehose::start(1 << 20);
        let mut client = FirehoseClient::connect(hose.addr, "stream").expect("client connects");
        client
            .send_payload(&payload(&session.bursts[0]))
            .expect("burst 0 sends");
        client.flush().expect("burst 0 applies");
        let mut connection = Connection {
            client,
            frames: session.bursts[1..].iter().map(|b| payload(b)).collect(),
            window_events: session.bursts[1..].iter().map(Vec::len).sum::<usize>() as u64,
            sent: session.bursts[0].len() as u64,
        };
        // Warm-up: key every object, fill the plan caches, grow the queues.
        connection.run(0.05, None, &mut Vec::new(), &mut Checks::default());
        StreamInput {
            connection,
            hose,
            replayable,
        }
    }

    fn replayable<'a>(&self, input: &'a StreamInput) -> &'a Replayable {
        &input.replayable
    }

    fn untraced(&self, input: &mut StreamInput, seconds: f64, out: &mut Out) {
        let mut window_ms = Vec::new();
        let rates = input
            .connection
            .run(seconds, None, &mut window_ms, &mut out.checks);
        out.m.put_median("events_per_s", &rates);
        out.m.put_median("op_ms_p50", &window_ms);
    }

    fn traced(&self, input: &mut StreamInput, seconds: f64, tracer: &mut Tracer, out: &mut Out) {
        traced_run(input, seconds, tracer, out);
    }
}

impl Live for StreamInput {
    fn live(
        &mut self,
        seconds: f64,
        tracer: Option<&mut Tracer>,
        window_ms: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> Vec<f64> {
        self.connection.run(seconds, tracer, window_ms, checks)
    }

    fn statsz(&self) -> Statsz {
        self.hose.statsz()
    }

    fn replayable(&self) -> &Replayable {
        &self.replayable
    }
}

// ----------------------------------------------------------------- fire_storm

/// One short session, pre-encoded.
struct Blast {
    name: String,
    frames: Vec<String>,
    events: u64,
    /// The session's race report line as first received; every later run
    /// of the session must produce it byte for byte.
    report: Option<String>,
}

/// The sessions `fire_storm` cycles through, and where it is in the cycle.
struct Cycle {
    addr: SocketAddr,
    blasts: Vec<Blast>,
    next: usize,
    /// Events sent to the server at `addr` so far, over every session.
    sent: u64,
}

pub struct StormInput {
    cycle: Cycle,
    hose: Firehose,
    /// `cycle.sent` when the server's warm-up ended.
    warmed_at: u64,
    replayable: Replayable,
}

/// A server's working life. A shard's per-session cost grows with the
/// sessions it has seen (≈ 0.9 µs a session when sized: `deliver_races`
/// clones every report the shard ever made), and the session period is
/// quantised by the acceptor's 2 ms poll: one quantum while a session's
/// work fits in it, two once it does not — past ≈ 1,000 sessions when
/// sized. A life this short ends near 250, clear of that step on a host
/// several times slower; what lies beyond it is a soak test's business.
const LIFE_SECONDS: f64 = 0.5;
/// A few sessions per shard grow its tables and the process's thread and
/// socket caches.
const WARM_UP_SECONDS: f64 = 0.05;

fn storm_sessions(seed: u64) -> Vec<StormSession> {
    storm::sessions(&StormConfig {
        sessions: STORM_SESSIONS,
        threads: 2,
        bursts: 4,
        entries_per_burst: 32,
        // Every session races once: the report path is exercised per session.
        racy_sessions: STORM_SESSIONS,
        seed,
        ..StormConfig::default()
    })
}

fn session_events(session: &StormSession) -> Vec<Event> {
    session.bursts.iter().flatten().copied().collect()
}

impl Cycle {
    /// Run sessions back to back for `seconds`. Returns events per second
    /// over each rate window and pushes each session's milliseconds to
    /// `session_ms`.
    fn run(
        &mut self,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
        session_ms: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let sent_before = self.sent;
        let mut rate = WindowRate::new(seconds);
        while rate.elapsed() < seconds {
            let index = self.next % self.blasts.len();
            let blast = &mut self.blasts[index];
            let start = Instant::now();
            let mut spans =
                Scope::open(tracer.as_deref_mut(), Kind::StormSession, self.next as u64);
            let mut client = spans
                .timed(Kind::Connect, || {
                    FirehoseClient::connect(self.addr, &blast.name)
                })
                .expect("client connects");
            for frame in &blast.frames {
                spans
                    .timed(Kind::Send, || client.send_payload(frame))
                    .expect("frame sends");
            }
            let summary = spans
                .timed(Kind::Bye, || client.bye())
                .expect("bye answers");
            session_ms.push(start.elapsed().as_secs_f64() * 1e3);
            spans.close();

            check_events(blast.events, &summary, checks);
            let lines = client.race_lines();
            let first = blast
                .report
                .get_or_insert_with(|| lines.first().cloned().unwrap_or_default());
            checks.op(lines.len() == 1 && lines[0] == *first, || {
                format!("session {index}: report lines {lines:?}, first run gave {first:?}")
            });
            self.sent += blast.events;
            self.next += 1;
            rate.mark(self.sent - sent_before);
        }
        rate.rates
    }
}

impl Workload for SessionStorm {
    type Input = StormInput;

    fn generator_threads(&self) -> usize {
        1
    }

    fn prepare(&self, seed: u64) -> StormInput {
        let sessions = storm_sessions(seed);
        let replayable = replayable(
            session_events(&sessions[0]),
            session_events(&storm_sessions(CANONICAL_SEED)[0]),
        );
        let blasts = sessions
            .iter()
            .enumerate()
            .map(|(i, session)| Blast {
                // Consecutive sessions land on alternating shards.
                name: name_on_shard(&format!("storm-{i}"), i % SHARDS),
                frames: session.bursts.iter().map(|b| payload(b)).collect(),
                events: session.total_events() as u64,
                report: None,
            })
            .collect();
        let hose = Firehose::start(ServerConfig::default().queue_bound);
        let mut input = StormInput {
            cycle: Cycle {
                addr: hose.addr,
                blasts,
                next: 0,
                sent: 0,
            },
            hose,
            warmed_at: 0,
            replayable,
        };
        input.warm_up();
        input
    }

    fn replayable<'a>(&self, input: &'a StormInput) -> &'a Replayable {
        &input.replayable
    }

    fn untraced(&self, input: &mut StormInput, seconds: f64, out: &mut Out) {
        let lives = (seconds / LIFE_SECONDS).ceil().max(1.0);
        let (mut rates, mut session_ms) = (Vec::new(), Vec::new());
        for _ in 0..lives as usize {
            rates.extend(input.live(seconds / lives, None, &mut session_ms, &mut out.checks));
        }
        out.m.put_median("events_per_s", &rates);
        out.m.put_median("op_ms_p50", &session_ms);
    }

    fn traced(&self, input: &mut StormInput, seconds: f64, tracer: &mut Tracer, out: &mut Out) {
        traced_run(input, seconds, tracer, out);
    }
}

impl StormInput {
    fn warm_up(&mut self) {
        self.cycle.run(
            WARM_UP_SECONDS,
            None,
            &mut Vec::new(),
            &mut Checks::default(),
        );
        self.warmed_at = self.cycle.sent;
    }
}

impl Live for StormInput {
    /// One server life: sessions back to back against a server that has
    /// seen nothing but its warm-up.
    fn live(
        &mut self,
        seconds: f64,
        tracer: Option<&mut Tracer>,
        session_ms: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> Vec<f64> {
        if self.cycle.sent != self.warmed_at {
            // One server's memory at a time: `peak_rss_mb` is of a server,
            // not of how two of them happened to overlap.
            self.hose.stop();
            self.hose = Firehose::start(ServerConfig::default().queue_bound);
            self.cycle.addr = self.hose.addr;
            self.cycle.sent = 0;
            self.warm_up();
        }
        let rates = self.cycle.run(seconds, tracer, session_ms, checks);
        // The server's own books must agree with the client's.
        let stats = self.hose.statsz();
        let sent = self.cycle.sent;
        checks.op(
            stats.applied == sent && stats.dropped + stats.rejected + stats.protocol_errors == 0,
            || {
                format!(
                    "sent {sent}; /statsz: applied {} dropped {} rejected {} protocol errors {}",
                    stats.applied, stats.dropped, stats.rejected, stats.protocol_errors
                )
            },
        );
        rates
    }

    fn statsz(&self) -> Statsz {
        self.hose.statsz()
    }

    fn replayable(&self) -> &Replayable {
        &self.replayable
    }
}
