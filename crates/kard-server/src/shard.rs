//! The shard engine: one OS thread owning one single-threaded detector.
//!
//! Every session hashes to exactly one shard and every shard owns its
//! detector, simulated machine, and allocator outright — shards share
//! *nothing*, so there is no cross-shard lock ordering to reason about
//! and a stalled shard can never wedge its siblings. Connection readers
//! reach a shard only through its `mpsc` work channel, within a
//! per-session event budget (fail-open: a batch over the budget is
//! dropped and counted, it never blocks the socket loop), and the shard
//! answers only through each session's `mpsc` response channel, which
//! the session's writer thread drains up to `Bye`.
//!
//! Inside a shard, each client session applies its events through its
//! own capped [`Applier`], which validates them, maps its threads and
//! tags, and unwinds what the session still holds when it ends. The
//! shard adds only what is multi-tenant: client lock sites are remapped
//! to shard-unique values (section identity is the lock site, and two
//! sessions reusing `0x1000` must not alias; a lock id means nothing
//! outside its thread's own held stack, so it passes through), and race
//! reports, and withdrawals of delivered ones, are translated back to
//! the client's threads, sites and tags, so clients only ever see their
//! own vocabulary.

use crate::proto::{Response, SessionSummary, WireRace, WireSide};
use crate::ServerConfig;
use kard_core::{RaceRecord, RaceSide};
use kard_rt::{Applier, Caps, Rejection};
use kard_sim::CodeSite;
use kard_telemetry::LatencyHistogram;
use kard_trace::{Event, Op};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often an idle shard wakes to scan for evictable sessions.
const EVICT_TICK: Duration = Duration::from_millis(25);

/// Per-session cap on live allocated bytes.
const MAX_SESSION_BYTES: u64 = 64 << 20;

/// Per-session cap on live objects.
const MAX_SESSION_OBJECTS: usize = 65_536;

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
    /// The server is draining: apply what is already queued, end every
    /// session, and exit.
    Close,
}

/// The half of a session shared between its connection threads and its
/// shard: the counters readers write and the response channel.
pub(crate) struct SessionHandle {
    /// Server-assigned serial (the key shards use to find the session).
    pub serial: u64,
    /// Events currently sitting in the shard queue for this session.
    /// Incremented by the reader at enqueue, decremented by the shard at
    /// apply; the reader's bound check reads it without locking.
    pub queued: AtomicU64,
    /// Events dropped fail-open at the queue bound.
    pub dropped: AtomicU64,
    /// Set once the session has ended (Bye sent); readers stop
    /// accepting frames for it.
    pub done: AtomicBool,
    /// Responses for the connection writer, which stops after `Bye`.
    outbox: Sender<Response>,
}

impl SessionHandle {
    /// A session's handle and the receiving end of its response channel.
    pub(crate) fn new(serial: u64) -> (SessionHandle, Receiver<Response>) {
        let (outbox, responses) = mpsc::channel();
        let handle = SessionHandle {
            serial,
            queued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            done: AtomicBool::new(false),
            outbox,
        };
        (handle, responses)
    }

    /// Queue one response for the writer. One sent after the writer has
    /// written `Bye` is discarded.
    pub(crate) fn send(&self, response: Response) {
        let _ = self.outbox.send(response);
    }
}

/// Per-shard state shared with the server front end: the work channel and the
/// counters `/statsz` reads without disturbing the shard.
pub(crate) struct ShardShared {
    /// The sending end of the shard's work channel.
    queue: Sender<Work>,
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
    /// Race reports delivered and not since withdrawn.
    pub races: AtomicU64,
    /// Sessions evicted for idleness.
    pub evictions: AtomicU64,
    /// Queue→apply latency, nanoseconds.
    pub ingest_latency: LatencyHistogram,
}

impl ShardShared {
    pub(crate) fn new(queue: Sender<Work>) -> ShardShared {
        ShardShared {
            queue,
            queue_depth: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            rejected: Default::default(),
            races: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            ingest_latency: LatencyHistogram::new(),
        }
    }

    /// Hand `work` to the shard; `false` once the shard has exited.
    pub(crate) fn send(&self, work: Work) -> bool {
        self.queue.send(work).is_ok()
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
    /// Client lock site → shard-unique lock site.
    sites: HashMap<u64, CodeSite>,
    /// Shard lock site → client lock site (report translation).
    site_names: HashMap<u64, u64>,
    /// Detector object id → client tag; survives frees so races on
    /// freed objects still translate.
    object_names: HashMap<u64, u64>,
    /// Events applied to the detector.
    applied: u64,
    /// Race reports delivered and not since withdrawn.
    races: u64,
    /// Raw index into the shard detector's record store up to which this
    /// session's reports were delivered ([`Kard::reports_from`]). Raw
    /// indices never shift when §5.5 pruning retracts a record, so a
    /// later report can neither be skipped nor sent twice.
    delivered: usize,
    /// Withdrawals of the shard's records seen so far
    /// ([`Kard::withdrawn_from`]); those of this session's records below
    /// `delivered` are recalled from the client.
    withdrawn: usize,
    /// Last time the shard applied work for this session.
    last_activity: Instant,
}

impl ClientState {
    /// A session attaching when the shard's record store holds `delivered`
    /// records and has logged `withdrawn` withdrawals; everything before
    /// that is other sessions' history.
    fn new(
        handle: Arc<SessionHandle>,
        applier: Applier<RandomState>,
        (delivered, withdrawn): (usize, usize),
    ) -> ClientState {
        ClientState {
            handle,
            applier,
            sites: HashMap::new(),
            site_names: HashMap::new(),
            object_names: HashMap::new(),
            applied: 0,
            races: 0,
            delivered,
            withdrawn,
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

    /// `op` with its client lock site replaced by the shard's, and that
    /// client site if the session has not used it yet: it then gets the
    /// well's next value, which [`ClientState::record`] claims only if the
    /// applier accepts `op`.
    fn namespace(&self, op: Op, next_site: u64) -> (Op, Option<u64>) {
        match op {
            Op::Lock { lock, site } => match self.sites.get(&site.0) {
                Some(&at) => (Op::Lock { lock, site: at }, None),
                None => (Op::Lock { lock, site: CodeSite(next_site + 1) }, Some(site.0)),
            },
            other => (other, None),
        }
    }

    /// Record the names an accepted event introduced: `op` as the applier
    /// took it, and `new_site` as [`ClientState::namespace`] found it.
    fn record(&mut self, op: Op, new_site: Option<u64>, next_site: &mut u64) {
        match (op, new_site) {
            (Op::Lock { site: at, .. }, Some(site)) => {
                self.sites.insert(site, at);
                self.site_names.insert(at.0, site);
                *next_site = at.0;
            }
            (Op::Alloc { tag, .. } | Op::Global { tag, .. }, _) => {
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
    pub(crate) shared: Arc<ShardShared>,
    queue: Receiver<Work>,
    config: ServerConfig,
    sessions: HashMap<u64, ClientState>,
    /// Shard-wide well for the per-session lock-site namespaces.
    next_site: u64,
}

impl ShardEngine {
    /// A shard over `rt` with a fresh work channel; the front end sends
    /// through [`ShardEngine::shared`].
    pub(crate) fn new(rt: kard_rt::Session, config: ServerConfig) -> ShardEngine {
        let (sender, queue) = mpsc::channel();
        ShardEngine {
            rt,
            shared: Arc::new(ShardShared::new(sender)),
            queue,
            config,
            sessions: HashMap::new(),
            next_site: SITE_NAMESPACE_BASE,
        }
    }

    /// The shard main loop: apply work until [`Work::Close`], apply what
    /// was queued behind it, then end every remaining session (drained +
    /// flushed, as graceful shutdown promises). Returning drops the
    /// receiver, so a later send fails and its sender counts the loss.
    pub(crate) fn run(mut self) {
        loop {
            match self.queue.recv_timeout(EVICT_TICK) {
                Ok(Work::Close) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(work) => self.handle(work),
                Err(RecvTimeoutError::Timeout) => {}
            }
            self.evict_idle();
            // In production mode this doubles as the overhead-budget
            // controller's heartbeat: one tick per work item or idle
            // wake, so the sampling width tracks the shard's actual
            // apply-side overhead. A no-op when production mode is off.
            self.rt.kard().production_tick();
        }
        while let Ok(work) = self.queue.try_recv() {
            self.handle(work);
        }
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
                    objects: MAX_SESSION_OBJECTS,
                    bytes: MAX_SESSION_BYTES,
                    compute_cycles: MAX_COMPUTE_CYCLES,
                };
                let kard = self.rt.kard();
                let applier = Applier::with_caps(Arc::clone(kard), caps);
                let cursors = (
                    kard.reports_from(usize::MAX).1,
                    kard.withdrawn_from(usize::MAX).1,
                );
                self.sessions
                    .insert(handle.serial, ClientState::new(handle, applier, cursors));
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
                    state.handle.send(Response::Flushed(state.summary(false)));
                }
            }
            Work::Detach { session } => self.end_session(session, false, false),
            Work::Close => {}
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
            let (op, new_site) = state.namespace(event.op, self.next_site);
            match state.applier.apply(event.thread, &op) {
                Ok(()) => {
                    state.applied += 1;
                    state.record(op, new_site, &mut self.next_site);
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

    /// Send this session's withdrawals of reports it already holds, then
    /// its not-yet-delivered race reports, each batch translated to client
    /// vocabulary and canonically sorted.
    ///
    /// Ownership is attributed through the faulting thread: a session's
    /// records are a function of its own applied events (sessions share
    /// no objects or locks), so filtering the shard's reports per session
    /// is deterministic regardless of how sessions interleaved on the
    /// shard. A report §5.5 offset pruning withdrew before delivery is
    /// never sent; one withdrawn after is recalled with
    /// [`Response::Retracted`].
    fn deliver_races(&mut self, session: u64) {
        let Some(state) = self.sessions.get_mut(&session) else {
            return;
        };
        let kard = self.rt.kard();
        let (withdrawn, seen) = kard.withdrawn_from(state.withdrawn);
        state.withdrawn = seen;
        let recalled = Self::translated(
            state,
            withdrawn
                .iter()
                .filter(|(index, _)| *index < state.delivered)
                .map(|(_, record)| record),
        );
        let (reports, end) = kard.reports_from(state.delivered);
        state.delivered = end;
        let fresh = Self::translated(state, reports.iter());
        let (gone, new) = (recalled.len() as u64, fresh.len() as u64);
        for race in recalled {
            state.handle.send(Response::Retracted(race));
        }
        for race in fresh {
            state.handle.send(Response::Race(race));
        }
        state.races = state.races + new - gone;
        if new != gone {
            // Wrapping: a net withdrawal subtracts.
            self.shared.races.fetch_add(new.wrapping_sub(gone), Ordering::Relaxed);
        }
    }

    /// The records among `records` this session's threads faulted on, in
    /// client vocabulary and canonical order.
    fn translated<'a>(
        state: &ClientState,
        records: impl Iterator<Item = &'a RaceRecord>,
    ) -> Vec<WireRace> {
        let mut races: Vec<WireRace> = records
            .filter(|r| state.applier.client_thread(r.faulting.thread).is_some())
            .map(|r| Self::translate(state, r))
            .collect();
        races.sort_by_key(WireRace::sort_key);
        races
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
    /// holds (locks, objects, threads), and send `Bye`, the last response
    /// the writer writes.
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
        state.handle.send(Response::Bye(state.summary(evicted)));
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
    use kard_core::LockId;

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
        let mut engine = ShardEngine::new(kard_rt::Session::new(), config);
        let shared = Arc::clone(&engine.shared);
        engine.handle(Work::Attach(Arc::new(SessionHandle::new(1).0)));
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
            (engine.next_site, state.sites.len(), state.site_names.len())
        };
        assert_eq!(names(&engine), (SITE_NAMESPACE_BASE + 1, 1, 1));
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
        assert_eq!(names(&engine), (SITE_NAMESPACE_BASE + 2, 2, 2));
        assert_eq!(
            engine.sessions[&1].site_names[&(SITE_NAMESPACE_BASE + 2)],
            0xc
        );
    }
}
