//! The shard engine: one OS thread owning one single-threaded detector.
//!
//! Every session hashes to exactly one shard and every shard owns its
//! detector, simulated machine, and allocator outright — shards share
//! *nothing*, so there is no cross-shard lock ordering to reason about
//! and a stalled shard can never wedge its siblings. Connection readers
//! communicate with a shard only through its bounded [`ShardQueue`]
//! (fail-open: a full per-session budget drops the batch and counts it,
//! it never blocks the socket loop), and the shard communicates back
//! only through per-session [`Outbox`]es.
//!
//! Inside a shard, each client session applies its events through its
//! own capped [`Applier`], which validates them, maps its threads and
//! tags, and unwinds what the session still holds when it ends. The
//! shard adds only what is multi-tenant: client lock ids and lock sites
//! are remapped to shard-unique values (section identity is the lock
//! site, and two sessions reusing `0x1000` must not alias), and race
//! reports are translated back to the client's threads, sites and tags
//! before delivery, so clients only ever see their own vocabulary.

use crate::proto::{Response, SessionSummary, WireRace, WireSide};
use crate::ServerConfig;
use kard_core::{LockId, RaceRecord, RaceSide};
use kard_rt::{Applier, Caps, Rejection};
use kard_sim::{CodeSite, ThreadId};
use kard_telemetry::{AnomalySignal, LatencyHistogram};
use kard_trace::{Event, Op};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often an idle shard wakes to scan for evictable sessions. Also
/// the telemetry drain cadence: the shard fans one drained batch through
/// the runtime's consumer pipeline (analyzer, production tick) at most
/// once per tick, so anomaly windows stay coarse enough to be meaningful
/// under a busy queue.
const EVICT_TICK: Duration = Duration::from_millis(25);

/// How many session-attributed anomaly signals a shard keeps for
/// `/statsz` before the oldest age out.
const ANOMALY_KEEP: usize = 32;

/// Upper bound on a single `Compute` charge, protecting the shard's
/// shared virtual clock from one absurd event freezing the timestamp
/// filter for everyone else on the shard.
const MAX_COMPUTE_CYCLES: u64 = 1 << 20;

/// Namespaced lock sites are allocated from this base upward. Race
/// records carry them both as section ids and — until protection
/// interleaving learns the holder's true access ip — as the holding
/// side's `ip`, so translation must be able to tell a namespaced site
/// from a client-supplied ip by range alone.
const SITE_NAMESPACE_BASE: u64 = 1 << 48;

/// One unit of work handed from a connection reader to a shard.
pub(crate) enum Work {
    /// A new session joined the shard.
    Attach(Arc<SessionHandle>),
    /// A batch of events for an attached session.
    Events {
        /// Session serial.
        session: u64,
        /// The decoded events.
        events: Vec<Event>,
        /// When the reader enqueued the batch (ingest-latency clock).
        enqueued: Instant,
    },
    /// Deliver pending races and a `Flushed` summary.
    Flush {
        /// Session serial.
        session: u64,
    },
    /// The client ended the session (`Bye`).
    Detach {
        /// Session serial.
        session: u64,
    },
}

/// The half of a session shared between its connection threads and its
/// shard: the counters readers write and the response outbox.
pub(crate) struct SessionHandle {
    /// Server-assigned serial (the key shards use to find the session).
    pub serial: u64,
    /// Events currently sitting in the shard queue for this session.
    /// Incremented by the reader at enqueue, decremented by the shard at
    /// apply; the reader's bound check reads it without locking.
    pub queued: AtomicU64,
    /// Events dropped fail-open at the queue bound.
    pub dropped: AtomicU64,
    /// Set once the session has ended (Bye pushed); readers stop
    /// accepting frames for it.
    pub done: AtomicBool,
    /// Response lines awaiting the connection writer.
    pub outbox: Outbox,
}

impl SessionHandle {
    pub(crate) fn new(serial: u64) -> SessionHandle {
        SessionHandle {
            serial,
            queued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            done: AtomicBool::new(false),
            outbox: Outbox::default(),
        }
    }
}

/// A closable line queue between a shard and one connection writer.
#[derive(Default)]
pub(crate) struct Outbox {
    inner: Mutex<OutboxInner>,
    cond: Condvar,
}

#[derive(Default)]
struct OutboxInner {
    lines: VecDeque<String>,
    closed: bool,
}

impl Outbox {
    /// Queue one response line. Lines pushed after close are discarded.
    pub(crate) fn push(&self, line: String) {
        let mut inner = self.inner.lock().expect("outbox poisoned");
        if !inner.closed {
            inner.lines.push_back(line);
            self.cond.notify_one();
        }
    }

    /// Close the outbox: the writer drains what is queued, then stops.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("outbox poisoned").closed = true;
        self.cond.notify_all();
    }

    /// Blocking pop; `None` once closed and empty.
    pub(crate) fn pop(&self) -> Option<String> {
        let mut inner = self.inner.lock().expect("outbox poisoned");
        loop {
            if let Some(line) = inner.lines.pop_front() {
                return Some(line);
            }
            if inner.closed {
                return None;
            }
            inner = self.cond.wait(inner).expect("outbox poisoned");
        }
    }
}

/// The shard's work queue (multi-producer readers, one consumer).
#[derive(Default)]
pub(crate) struct ShardQueue {
    inner: Mutex<QueueInner>,
    cond: Condvar,
}

#[derive(Default)]
struct QueueInner {
    items: VecDeque<Work>,
    closed: bool,
}

/// Outcome of a timed queue pop.
pub(crate) enum Poll {
    /// A work item.
    Item(Work),
    /// Nothing arrived within the tick; run maintenance.
    Timeout,
    /// Queue closed *and* fully drained: the shard may exit.
    Drained,
}

impl ShardQueue {
    /// Enqueue one work item (accepted even after close, so in-flight
    /// readers never panic; the shard drains whatever made it in before
    /// it observes the closed+empty state).
    pub(crate) fn push(&self, work: Work) {
        let mut inner = self.inner.lock().expect("shard queue poisoned");
        inner.items.push_back(work);
        self.cond.notify_one();
    }

    /// Stop the shard once the queue empties.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("shard queue poisoned").closed = true;
        self.cond.notify_all();
    }

    fn pop(&self, tick: Duration) -> Poll {
        let mut inner = self.inner.lock().expect("shard queue poisoned");
        loop {
            if let Some(work) = inner.items.pop_front() {
                return Poll::Item(work);
            }
            if inner.closed {
                return Poll::Drained;
            }
            let (guard, timeout) = self
                .cond
                .wait_timeout(inner, tick)
                .expect("shard queue poisoned");
            inner = guard;
            if timeout.timed_out() && inner.items.is_empty() && !inner.closed {
                return Poll::Timeout;
            }
        }
    }
}

/// Per-shard state shared with the server front end: the queue plus the
/// counters `/statsz` reads without disturbing the shard.
pub(crate) struct ShardShared {
    /// The work queue.
    pub queue: ShardQueue,
    /// Events queued across all of the shard's sessions.
    pub queue_depth: AtomicU64,
    /// Sessions currently attached.
    pub active_sessions: AtomicU64,
    /// Events applied to the detector.
    pub applied: AtomicU64,
    /// Events dropped fail-open.
    pub dropped: AtomicU64,
    /// Events rejected as invalid, by [`Rejection`] (indexed by
    /// `reason as usize`).
    pub rejected: [AtomicU64; Rejection::ALL.len()],
    /// Race reports delivered.
    pub races: AtomicU64,
    /// Sessions evicted for idleness.
    pub evictions: AtomicU64,
    /// Queue→apply latency, nanoseconds.
    pub ingest_latency: LatencyHistogram,
    /// Recent anomaly signals, session-enriched by the shard (newest
    /// last, capped at [`ANOMALY_KEEP`]). `/statsz` clones this without
    /// disturbing the shard thread.
    pub anomalies: Mutex<Vec<AnomalySignal>>,
}

impl Default for ShardShared {
    fn default() -> ShardShared {
        ShardShared {
            queue: ShardQueue::default(),
            queue_depth: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            rejected: Default::default(),
            races: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            ingest_latency: LatencyHistogram::new(),
            anomalies: Mutex::new(Vec::new()),
        }
    }
}

/// One client session's private namespace inside a shard. Every map here,
/// and the applier's, is keyed by ids the client sent, so they keep
/// SipHash: the trace executor's `FastHasher` has no protection against
/// keys crafted to collide.
struct ClientState {
    handle: Arc<SessionHandle>,
    /// The session's threads, objects, held locks and caps.
    applier: Applier<RandomState>,
    /// Client lock id → shard-unique lock id.
    locks: HashMap<u64, LockId>,
    /// Client lock site → shard-unique lock site.
    sites: HashMap<u64, CodeSite>,
    /// Shard lock site → client lock site (report translation).
    site_names: HashMap<u64, u64>,
    /// Detector object id → client tag; survives frees so races on
    /// freed objects still translate.
    object_names: HashMap<u64, u64>,
    /// Events applied to the detector.
    applied: u64,
    /// Race reports delivered.
    races: u64,
    /// Raw index into the shard detector's record store up to which this
    /// session's reports were delivered ([`Kard::reports_from`]). Raw
    /// indices never shift when §5.5 pruning retracts a record, so a
    /// later report can neither be skipped nor sent twice.
    delivered: usize,
    /// Anomaly signals attributed to this session so far (the
    /// pathological-client eviction policy's meter).
    anomaly_signals: u64,
    /// Last time the shard applied work for this session.
    last_activity: Instant,
}

impl ClientState {
    /// A session attaching when the shard's record store holds `delivered`
    /// records; everything before that is other sessions' history.
    fn new(
        handle: Arc<SessionHandle>,
        applier: Applier<RandomState>,
        delivered: usize,
    ) -> ClientState {
        ClientState {
            handle,
            applier,
            locks: HashMap::new(),
            sites: HashMap::new(),
            site_names: HashMap::new(),
            object_names: HashMap::new(),
            applied: 0,
            races: 0,
            delivered,
            anomaly_signals: 0,
            last_activity: Instant::now(),
        }
    }

    fn summary(&self, evicted: bool) -> SessionSummary {
        let rejected = Rejection::ALL.iter().map(|&why| self.applier.rejected(why));
        SessionSummary {
            session: self.handle.serial,
            applied: self.applied,
            dropped: self.handle.dropped.load(Ordering::Relaxed),
            rejected: rejected.sum(),
            races: self.races,
            evicted,
        }
    }

    /// `op` with its client lock id and lock site replaced by the shard's.
    /// One the session has not used yet gets its well's next value, which
    /// [`ClientState::record`] claims only if the applier accepts `op`.
    fn namespace(&self, op: Op, next_lock: u64, next_site: u64) -> Op {
        match op {
            Op::Lock { lock, site } => Op::Lock {
                lock: self.locks.get(&lock.0).copied().unwrap_or(LockId(next_lock + 1)),
                site: self.sites.get(&site.0).copied().unwrap_or(CodeSite(next_site + 1)),
            },
            // A lock the session never took maps to `LockId(0)`, below the
            // well, which no thread holds: the applier rejects the unlock.
            Op::Unlock { lock } => Op::Unlock {
                lock: self.locks.get(&lock.0).copied().unwrap_or(LockId(0)),
            },
            other => other,
        }
    }

    /// Record the names an accepted event introduced: `sent` is the event
    /// as the client sent it, `op` as the applier took it.
    fn record(&mut self, sent: Op, op: Op, next_lock: &mut u64, next_site: &mut u64) {
        match (sent, op) {
            (Op::Lock { lock, site }, Op::Lock { lock: to, site: at }) => {
                if self.locks.insert(lock.0, to).is_none() {
                    *next_lock = to.0;
                }
                if self.sites.insert(site.0, at).is_none() {
                    *next_site = at.0;
                    self.site_names.insert(at.0, site.0);
                }
            }
            (_, Op::Alloc { tag, .. } | Op::Global { tag, .. }) => {
                if let Some(info) = self.applier.object(tag) {
                    self.object_names.insert(info.id.0, tag.0);
                }
            }
            _ => {}
        }
    }
}

/// Everything a shard thread owns.
pub(crate) struct ShardEngine {
    rt: kard_rt::Session,
    shared: Arc<ShardShared>,
    config: ServerConfig,
    sessions: HashMap<u64, ClientState>,
    /// Shard-wide id wells for the per-session lock/site namespaces.
    next_lock: u64,
    next_site: u64,
    /// Last telemetry drain (throttles the consumer pipeline to one
    /// window per [`EVICT_TICK`] even when the queue is busy).
    last_drain: Instant,
}

impl ShardEngine {
    pub(crate) fn new(
        rt: kard_rt::Session,
        shared: Arc<ShardShared>,
        config: ServerConfig,
    ) -> ShardEngine {
        ShardEngine {
            rt,
            shared,
            config,
            sessions: HashMap::new(),
            next_lock: 1,
            next_site: SITE_NAMESPACE_BASE,
            last_drain: Instant::now(),
        }
    }

    /// The shard main loop: apply work until the queue closes and
    /// drains, then end every remaining session (drained + flushed, as
    /// graceful shutdown promises).
    pub(crate) fn run(mut self) {
        loop {
            match self.shared.queue.pop(EVICT_TICK) {
                Poll::Item(work) => self.handle(work),
                Poll::Timeout => {}
                Poll::Drained => break,
            }
            self.evict_idle();
            // In production mode this doubles as the overhead-budget
            // controller's heartbeat: one tick per work item or idle
            // wake, so the sampling width tracks the shard's actual
            // apply-side overhead. A no-op when production mode is off.
            self.rt.kard().production_tick();
            if self.last_drain.elapsed() >= EVICT_TICK {
                self.last_drain = Instant::now();
                self.observe_telemetry();
            }
        }
        // One final drain so last-window signals are attributed while
        // their sessions are still alive.
        self.observe_telemetry();
        let serials: Vec<u64> = self.sessions.keys().copied().collect();
        for serial in serials {
            self.end_session(serial, true, false);
        }
    }

    fn handle(&mut self, work: Work) {
        match work {
            Work::Attach(handle) => {
                self.shared.active_sessions.fetch_add(1, Ordering::Relaxed);
                let caps = Caps {
                    threads: self.config.max_session_threads,
                    objects: self.config.max_session_objects,
                    bytes: self.config.max_session_bytes,
                    compute_cycles: MAX_COMPUTE_CYCLES,
                };
                let applier = Applier::with_caps(Arc::clone(self.rt.kard()), caps);
                let (_, reports) = self.rt.kard().reports_from(usize::MAX);
                self.sessions
                    .insert(handle.serial, ClientState::new(handle, applier, reports));
            }
            Work::Events {
                session,
                events,
                enqueued,
            } => self.apply_batch(session, events, enqueued),
            Work::Flush { session } => {
                if let Some(state) = self.sessions.get_mut(&session) {
                    state.last_activity = Instant::now();
                }
                self.deliver_races(session);
                if let Some(state) = self.sessions.get(&session) {
                    let line =
                        crate::proto::response_line(&Response::Flushed(state.summary(false)));
                    state.handle.outbox.push(line);
                }
            }
            Work::Detach { session } => self.end_session(session, false, false),
        }
    }

    fn apply_batch(&mut self, session: u64, events: Vec<Event>, enqueued: Instant) {
        let n = events.len() as u64;
        self.shared.queue_depth.fetch_sub(n, Ordering::Relaxed);
        let Some(state) = self.sessions.get_mut(&session) else {
            // The session was evicted while the batch sat in the queue;
            // fail open, exactly like a queue-bound drop.
            self.shared.dropped.fetch_add(n, Ordering::Relaxed);
            return;
        };
        state.handle.queued.fetch_sub(n, Ordering::Relaxed);
        state.last_activity = Instant::now();
        let latency = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.shared.ingest_latency.record(latency);
        let throttle = self.config.apply_throttle;
        let applied = state.applied;
        for event in events {
            let op = state.namespace(event.op, self.next_lock, self.next_site);
            match state.applier.apply(event.thread, &op) {
                Ok(()) => {
                    state.applied += 1;
                    state.record(event.op, op, &mut self.next_lock, &mut self.next_site);
                }
                Err(why) => {
                    self.shared.rejected[why as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
            if !throttle.is_zero() {
                std::thread::sleep(throttle);
            }
        }
        self.shared
            .applied
            .fetch_add(state.applied - applied, Ordering::Relaxed);
    }

    /// Push this session's not-yet-delivered race reports, translated to
    /// client vocabulary and canonically sorted.
    ///
    /// Ownership is attributed through the faulting thread: a session's
    /// records are a function of its own applied events (sessions share
    /// no objects or locks), so filtering the shard's reports per session
    /// is deterministic regardless of how sessions interleaved on the
    /// shard. A report retracted (§5.5 offset pruning) after delivery is
    /// not recalled from the client.
    fn deliver_races(&mut self, session: u64) {
        let Some(state) = self.sessions.get_mut(&session) else {
            return;
        };
        let (reports, end) = self.rt.kard().reports_from(state.delivered);
        state.delivered = end;
        let mut fresh: Vec<WireRace> = reports
            .iter()
            .filter(|r| state.applier.client_thread(r.faulting.thread).is_some())
            .map(|r| Self::translate(state, r))
            .collect();
        if fresh.is_empty() {
            return;
        }
        fresh.sort_by_key(WireRace::sort_key);
        let n = fresh.len() as u64;
        for race in fresh {
            state
                .handle
                .outbox
                .push(crate::proto::response_line(&Response::Race(race)));
        }
        state.races += n;
        self.shared.races.fetch_add(n, Ordering::Relaxed);
    }

    fn translate(state: &ClientState, record: &RaceRecord) -> WireRace {
        // Sites in the namespaced range map back to the client's values;
        // anything below the base is already a client-supplied ip.
        let unsite = |site: u64| {
            if site >= SITE_NAMESPACE_BASE {
                state.site_names.get(&site).copied().unwrap_or(site)
            } else {
                site
            }
        };
        let side = |s: &RaceSide| WireSide {
            thread: state.applier.client_thread(s.thread).unwrap_or(usize::MAX),
            section: s.section.map(|sec| unsite(sec.0 .0)),
            ip: unsite(s.ip.0),
            offset: s.offset,
        };
        WireRace {
            object: state
                .object_names
                .get(&record.object.0)
                .copied()
                .unwrap_or(u64::MAX),
            access: record.access,
            faulting: side(&record.faulting),
            holding: side(&record.holding),
        }
    }

    /// End a session: deliver pending races, release everything it still
    /// holds (locks, objects, threads), push `Bye`, close the outbox.
    fn end_session(&mut self, session: u64, evicted: bool, idle: bool) {
        self.deliver_races(session);
        let Some(mut state) = self.sessions.remove(&session) else {
            return;
        };
        state.applier.release_all();
        state.handle.done.store(true, Ordering::Release);
        // Update the shared counters *before* the Bye frame becomes
        // sendable: a client that reacts to its eviction by querying
        // /statsz must see the eviction already counted.
        self.shared.active_sessions.fetch_sub(1, Ordering::Relaxed);
        if idle {
            self.shared.evictions.fetch_add(1, Ordering::Relaxed);
        }
        state
            .handle
            .outbox
            .push(crate::proto::response_line(&Response::Bye(
                state.summary(evicted),
            )));
        state.handle.outbox.close();
    }

    /// Drain the telemetry rings through the runtime's consumer pipeline
    /// (analyzer, production tick, any registered exporters), then take
    /// the anomaly signals that fired, attribute each to the session
    /// owning its suspected detector thread, and apply the
    /// pathological-client eviction policy.
    ///
    /// Attribution is best-effort evidence ("signals, not truth"): a
    /// suspect thread that no live session owns — or no suspect at all —
    /// leaves `suspected_session` as `None`, and the signal still lands
    /// in the `/statsz` buffer.
    fn observe_telemetry(&mut self) {
        let _ = self.rt.drain();
        let signals = self.rt.kard().take_anomaly_signals();
        if signals.is_empty() {
            return;
        }
        let mut evict: Vec<u64> = Vec::new();
        for mut signal in signals {
            signal.suspected_session = signal.suspected_thread.and_then(|t| {
                self.sessions
                    .iter()
                    .find(|(_, s)| s.applier.client_thread(ThreadId(t as usize)).is_some())
                    .map(|(&serial, _)| serial)
            });
            if let Some(serial) = signal.suspected_session {
                if let Some(state) = self.sessions.get_mut(&serial) {
                    state.anomaly_signals += 1;
                    let over = self
                        .config
                        .anomaly_evict_after
                        .is_some_and(|cap| state.anomaly_signals >= cap);
                    if over && !evict.contains(&serial) {
                        evict.push(serial);
                    }
                }
            }
            let mut buf = self.shared.anomalies.lock().expect("anomaly buffer poisoned");
            if buf.len() >= ANOMALY_KEEP {
                buf.remove(0);
            }
            buf.push(signal);
        }
        for serial in evict {
            self.end_session(serial, true, true);
        }
    }

    /// Evict sessions idle past the configured timeout. Only sessions
    /// with an empty queue budget are eligible — queued work always
    /// lands first.
    fn evict_idle(&mut self) {
        let Some(timeout) = self.config.idle_timeout else {
            return;
        };
        let idle: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| {
                s.handle.queued.load(Ordering::Relaxed) == 0
                    && s.last_activity.elapsed() >= timeout
            })
            .map(|(&serial, _)| serial)
            .collect();
        for serial in idle {
            self.end_session(serial, true, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock(thread: usize, lock: u64, site: u64) -> Event {
        Event {
            thread,
            op: Op::Lock {
                lock: LockId(lock),
                site: CodeSite(site),
            },
        }
    }

    #[test]
    fn a_rejected_lock_claims_no_namespace_ids() {
        let config = ServerConfig {
            max_session_threads: 1,
            ..ServerConfig::default()
        };
        let shared = Arc::new(ShardShared::default());
        let mut engine = ShardEngine::new(kard_rt::Session::new(), Arc::clone(&shared), config);
        engine.handle(Work::Attach(Arc::new(SessionHandle::new(1))));
        let apply = |engine: &mut ShardEngine, events: Vec<Event>| {
            shared
                .queue_depth
                .fetch_add(events.len() as u64, Ordering::Relaxed);
            engine.sessions[&1]
                .handle
                .queued
                .fetch_add(events.len() as u64, Ordering::Relaxed);
            engine.apply_batch(1, events, Instant::now());
        };
        let compute = Event {
            thread: 0,
            op: Op::Compute { cycles: 1 },
        };
        // Thread 1 is past the cap; thread 0 already holds lock 4, so
        // taking it again is recursive.
        apply(
            &mut engine,
            vec![compute, lock(0, 4, 0xd), lock(1, 3, 0xc), lock(0, 4, 0xe)],
        );
        let names = |engine: &ShardEngine| {
            let state = &engine.sessions[&1];
            (
                engine.next_lock,
                engine.next_site,
                state.locks.len(),
                state.sites.len(),
                state.site_names.len(),
            )
        };
        assert_eq!(names(&engine), (2, SITE_NAMESPACE_BASE + 1, 1, 1, 1));
        assert_eq!(
            shared.rejected[Rejection::ThreadCap as usize].load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            shared.rejected[Rejection::RecursiveLock as usize].load(Ordering::Relaxed),
            1
        );

        // The next name the session introduces takes the next id.
        apply(&mut engine, vec![lock(0, 3, 0xc)]);
        assert_eq!(names(&engine), (3, SITE_NAMESPACE_BASE + 2, 2, 2, 2));
        assert_eq!(engine.sessions[&1].locks[&3], LockId(3));
        assert_eq!(
            engine.sessions[&1].site_names[&(SITE_NAMESPACE_BASE + 2)],
            0xc
        );
    }
}
