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
//! Inside a shard, each client session gets a private namespace: client
//! lock ids and lock sites are remapped to shard-unique values (section
//! identity is the lock site, and two sessions reusing `0x1000` must not
//! alias), object tags map to detector objects, and client thread
//! indices map to detector threads. Race reports are translated back
//! through the same maps before delivery, so clients only ever see their
//! own vocabulary.

use crate::proto::{Response, SessionSummary, WireRace, WireSide};
use crate::ServerConfig;
use kard_alloc::ObjectKind;
use kard_core::{Kard, LockId, RaceRecord, RaceSide};
use kard_sim::CodeSite;
use kard_telemetry::{AnomalySignal, LatencyHistogram};
use kard_trace::{Event, Op};
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
/// shard: counters and the response outbox.
pub(crate) struct SessionHandle {
    /// Server-assigned serial (the key shards use to find the session).
    pub serial: u64,
    /// Events currently sitting in the shard queue for this session.
    /// Incremented by the reader at enqueue, decremented by the shard at
    /// apply; the reader's bound check reads it without locking.
    pub queued: AtomicU64,
    /// Events dropped fail-open at the queue bound.
    pub dropped: AtomicU64,
    /// Events applied to the detector.
    pub applied: AtomicU64,
    /// Events rejected as invalid.
    pub rejected: AtomicU64,
    /// Race reports delivered.
    pub races: AtomicU64,
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
            applied: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            races: AtomicU64::new(0),
            done: AtomicBool::new(false),
            outbox: Outbox::default(),
        }
    }

    pub(crate) fn summary(&self, evicted: bool) -> SessionSummary {
        SessionSummary {
            session: self.serial,
            applied: self.applied.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            races: self.races.load(Ordering::Relaxed),
            evicted,
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
    /// Events rejected as invalid.
    pub rejected: AtomicU64,
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
            rejected: AtomicU64::new(0),
            races: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            ingest_latency: LatencyHistogram::new(),
            anomalies: Mutex::new(Vec::new()),
        }
    }
}

/// One client session's private namespace inside a shard.
///
/// Every map here is keyed by an id the client chose and sent over the
/// socket, so they keep the default SipHash: `kard_core`'s `FastHasher`
/// (which the in-process trace executor uses for the same lookups) has
/// no protection against keys crafted to collide.
struct ClientState {
    handle: Arc<SessionHandle>,
    /// Client thread index → detector thread.
    threads: HashMap<usize, kard_sim::ThreadId>,
    /// Detector thread → client thread index (report translation).
    thread_names: HashMap<usize, usize>,
    /// Client lock id → shard-unique lock id.
    locks: HashMap<u64, LockId>,
    /// Client lock site → shard-unique lock site.
    sites: HashMap<u64, CodeSite>,
    /// Shard lock site → client lock site (report translation).
    site_names: HashMap<u64, u64>,
    /// Client tag → live object.
    objects: HashMap<u64, kard_alloc::ObjectInfo>,
    /// Detector object id → client tag; survives frees so races on
    /// freed objects still translate.
    object_names: HashMap<u64, u64>,
    /// Locks currently held, per client thread, in acquisition order.
    held: HashMap<usize, Vec<u64>>,
    /// Bytes currently allocated (the per-session memory cap's meter).
    live_bytes: u64,
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
    fn new(handle: Arc<SessionHandle>, delivered: usize) -> ClientState {
        ClientState {
            handle,
            threads: HashMap::new(),
            thread_names: HashMap::new(),
            locks: HashMap::new(),
            sites: HashMap::new(),
            site_names: HashMap::new(),
            objects: HashMap::new(),
            object_names: HashMap::new(),
            held: HashMap::new(),
            live_bytes: 0,
            delivered,
            anomaly_signals: 0,
            last_activity: Instant::now(),
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
                let (_, reports) = self.rt.kard().reports_from(usize::MAX);
                self.sessions
                    .insert(handle.serial, ClientState::new(handle, reports));
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
                        crate::proto::response_line(&Response::Flushed(state.handle.summary(false)));
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
        let mut applied = 0u64;
        let mut rejected = 0u64;
        let kard = Arc::clone(self.rt.kard());
        for event in events {
            match Self::apply_event(
                &kard,
                state,
                &mut self.next_lock,
                &mut self.next_site,
                &self.config,
                &event,
            ) {
                Ok(()) => applied += 1,
                Err(_why) => rejected += 1,
            }
            if !throttle.is_zero() {
                std::thread::sleep(throttle);
            }
        }
        state.handle.applied.fetch_add(applied, Ordering::Relaxed);
        state.handle.rejected.fetch_add(rejected, Ordering::Relaxed);
        self.shared.applied.fetch_add(applied, Ordering::Relaxed);
        self.shared.rejected.fetch_add(rejected, Ordering::Relaxed);
    }

    /// Apply one event inside a session's namespace. Invalid events are
    /// rejected (skipped and counted) — a hostile or buggy client must
    /// never panic a shard.
    fn apply_event(
        kard: &Arc<Kard>,
        state: &mut ClientState,
        next_lock: &mut u64,
        next_site: &mut u64,
        config: &ServerConfig,
        event: &Event,
    ) -> Result<(), &'static str> {
        // Resolve (or lazily register) the client thread.
        let t = match state.threads.get(&event.thread) {
            Some(&t) => t,
            None => {
                if state.threads.len() >= config.max_session_threads {
                    return Err("session thread cap exceeded");
                }
                // Thread ids are never reused, so the shard's one
                // long-lived detector eventually runs out of them.
                if kard.machine().thread_count() >= kard_sim::THREAD_CAPACITY {
                    return Err("shard thread capacity exhausted");
                }
                let t = kard.register_thread();
                state.threads.insert(event.thread, t);
                state.thread_names.insert(t.0, event.thread);
                t
            }
        };
        match &event.op {
            Op::Alloc { tag, size } | Op::Global { tag, size } => {
                if *size == 0 {
                    return Err("zero-size allocation");
                }
                if state.objects.contains_key(&tag.0) {
                    return Err("tag already live");
                }
                if state.objects.len() >= config.max_session_objects {
                    return Err("session object cap exceeded");
                }
                if state.live_bytes.saturating_add(*size) > config.max_session_bytes {
                    return Err("session memory cap exceeded");
                }
                let info = if matches!(event.op, Op::Alloc { .. }) {
                    kard.on_alloc(t, *size)
                } else {
                    kard.on_global(t, *size)
                };
                state.live_bytes += *size;
                state.object_names.insert(info.id.0, tag.0);
                state.objects.insert(tag.0, info);
                Ok(())
            }
            Op::Free { tag } => {
                let Some(&info) = state.objects.get(&tag.0) else {
                    return Err("free of unknown tag");
                };
                // Globals are never freed (§6): the allocator would panic.
                if info.kind == ObjectKind::Global {
                    return Err("free of a global");
                }
                state.objects.remove(&tag.0);
                state.live_bytes = state.live_bytes.saturating_sub(info.size);
                kard.on_free(t, info.id);
                Ok(())
            }
            Op::Lock { lock, site } => {
                let held = state.held.entry(event.thread).or_default();
                if held.contains(&lock.0) {
                    return Err("recursive lock");
                }
                let server_lock = *state.locks.entry(lock.0).or_insert_with(|| {
                    *next_lock += 1;
                    LockId(*next_lock)
                });
                let server_site = *state.sites.entry(site.0).or_insert_with(|| {
                    *next_site += 1;
                    let s = CodeSite(*next_site);
                    state.site_names.insert(s.0, site.0);
                    s
                });
                held.push(lock.0);
                kard.lock_enter(t, server_lock, server_site);
                Ok(())
            }
            Op::Unlock { lock } => {
                // The detector's sections nest: only the innermost lock
                // may be released.
                let held = state.held.entry(event.thread).or_default();
                if held.last() != Some(&lock.0) {
                    return Err(if held.contains(&lock.0) {
                        "unlock out of order"
                    } else {
                        "unlock of lock not held"
                    });
                }
                held.pop();
                let server_lock = state.locks[&lock.0];
                kard.lock_exit(t, server_lock);
                Ok(())
            }
            Op::Read { tag, offset, ip } | Op::Write { tag, offset, ip } => {
                let Some(info) = state.objects.get(&tag.0) else {
                    return Err("access to unknown tag");
                };
                if *offset >= info.rounded_size {
                    return Err("access beyond object bounds");
                }
                let addr = info.base.offset(*offset);
                if matches!(event.op, Op::Read { .. }) {
                    kard.read(t, addr, *ip);
                } else {
                    kard.write(t, addr, *ip);
                }
                Ok(())
            }
            Op::Compute { cycles } => {
                kard.machine().charge(t, (*cycles).min(MAX_COMPUTE_CYCLES));
                Ok(())
            }
        }
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
            .filter(|r| state.thread_names.contains_key(&r.faulting.thread.0))
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
        state.handle.races.fetch_add(n, Ordering::Relaxed);
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
            thread: state
                .thread_names
                .get(&s.thread.0)
                .copied()
                .unwrap_or(usize::MAX),
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
        let kard = self.rt.kard();
        // Release locks in reverse acquisition order per thread, so the
        // detector's section state unwinds cleanly.
        for (client_thread, held) in std::mem::take(&mut state.held) {
            let Some(&t) = state.threads.get(&client_thread) else {
                continue;
            };
            for client_lock in held.into_iter().rev() {
                kard.lock_exit(t, state.locks[&client_lock]);
            }
        }
        if let Some(&t) = state.threads.values().next() {
            // Globals are never freed; they stay with the shard.
            for (_, info) in state.objects.drain() {
                if info.kind == ObjectKind::Heap {
                    kard.on_free(t, info.id);
                }
            }
        }
        for (_, t) in state.threads.drain() {
            kard.on_thread_exit(t);
        }
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
                state.handle.summary(evicted),
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
                    .find(|(_, s)| s.thread_names.contains_key(&(t as usize)))
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
