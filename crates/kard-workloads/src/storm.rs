//! Storm traffic: short-lived sessions that connect, blast bursts of
//! events, and disconnect.
//!
//! The firehose service (`kard-server`) is sized by its behavior under
//! exactly this shape — many independent sessions arriving at once, each
//! sending a tight burst of section-heavy traffic and then going away.
//! This module generates that traffic as plain [`kard_trace::Event`]
//! batches so every harness (the overload integration test, `benchmark/`'s
//! `fire_storm` workload, the `firehose_client` example) drives the
//! server with the same generator instead of inventing its own.
//!
//! Each session is a self-contained multi-threaded logical program,
//! pre-interleaved into bursts: burst 0 allocates the session's objects
//! (and, for racy sessions, performs the paper's Figure 1a-style
//! inconsistent-lock pair), later bursts are steady-state critical
//! sections under consistent per-thread locks — race-free by
//! construction. A racy session produces exactly
//! [`StormSession::expected_races`] reports when replayed in order.

use kard_core::LockId;
use kard_sim::CodeSite;
use kard_trace::schedule::{interleave_round_robin, interleave_seeded};
use kard_trace::{Event, ObjectTag, ThreadProgram};

/// Shape of one storm run.
#[derive(Clone, Copy, Debug)]
pub struct StormConfig {
    /// Number of client sessions.
    pub sessions: usize,
    /// Logical threads per session.
    pub threads: usize,
    /// Objects each logical thread allocates and works over.
    pub objects_per_thread: usize,
    /// Bursts each session sends (burst 0 carries the allocations).
    pub bursts: usize,
    /// Critical-section entries per thread per burst.
    pub entries_per_burst: usize,
    /// Writes inside each critical section.
    pub writes_per_entry: usize,
    /// How many of the sessions embed one ILU race (an inconsistent-lock
    /// write/read pair on a shared object) in their first burst.
    pub racy_sessions: usize,
    /// Seed for the steady-state interleavings.
    pub seed: u64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            sessions: 4,
            threads: 2,
            objects_per_thread: 4,
            bursts: 3,
            entries_per_burst: 16,
            writes_per_entry: 2,
            racy_sessions: 0,
            seed: 1,
        }
    }
}

/// One generated session: a name (the server shards by its hash) and the
/// pre-interleaved event bursts to blast at the server.
#[derive(Clone, Debug)]
pub struct StormSession {
    /// Session name, `storm-<index>` by default.
    pub name: String,
    /// Event batches, sent burst by burst.
    pub bursts: Vec<Vec<Event>>,
    /// Race reports this session's traffic must produce when replayed in
    /// order (0 for consistent sessions, 1 for racy ones).
    pub expected_races: usize,
}

impl StormSession {
    /// Total events across all bursts.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.bursts.iter().map(Vec::len).sum()
    }
}

/// Generate session `index` of a storm.
///
/// # Panics
///
/// Panics if `threads`, `bursts`, or `objects_per_thread` is zero.
#[must_use]
pub fn session(cfg: &StormConfig, index: usize) -> StormSession {
    assert!(cfg.threads > 0, "at least one thread per session");
    assert!(cfg.bursts > 0, "at least one burst per session");
    assert!(cfg.objects_per_thread > 0, "objects_per_thread must be > 0");
    let racy = index < cfg.racy_sessions && cfg.threads >= 2;
    let own_tag = |t: usize, o: usize| ObjectTag((t * cfg.objects_per_thread + o) as u64);
    let shared_tag = ObjectTag((cfg.threads * cfg.objects_per_thread) as u64);
    let own_lock = |t: usize| LockId(1 + t as u64);
    let own_site = |t: usize| CodeSite(0x1000 + t as u64);

    let mut bursts = Vec::with_capacity(cfg.bursts);
    for burst in 0..cfg.bursts {
        let mut programs: Vec<ThreadProgram> = vec![ThreadProgram::new(); cfg.threads];
        if burst == 0 {
            // Connect phase: every thread allocates its working set; the
            // racy pair mirrors Figure 1a — thread 0 writes the shared
            // object under lock A while thread 1 reads it twice under
            // lock B, and the round-robin interleave below overlaps the
            // two sections.
            for (t, p) in programs.iter_mut().enumerate() {
                for o in 0..cfg.objects_per_thread {
                    p.alloc(own_tag(t, o), 64);
                }
            }
            if racy {
                programs[0].alloc(shared_tag, 64);
                programs[0].critical_section(
                    LockId(1000),
                    CodeSite(0xaaa0),
                    |p| {
                        p.write(shared_tag, 0, CodeSite(0xaaa1));
                    },
                );
                programs[1].critical_section(
                    LockId(1001),
                    CodeSite(0xbbb0),
                    |p| {
                        p.read(shared_tag, 0, CodeSite(0xbbb1));
                        p.read(shared_tag, 0, CodeSite(0xbbb2));
                    },
                );
            }
        }
        for (t, p) in programs.iter_mut().enumerate() {
            for e in 0..cfg.entries_per_burst {
                p.lock(own_lock(t), own_site(t));
                for w in 0..cfg.writes_per_entry {
                    let o = (e + w) % cfg.objects_per_thread;
                    p.write(own_tag(t, o), ((e + w) as u64 % 8) * 8, CodeSite(0x2000 + t as u64));
                }
                p.unlock(own_lock(t));
            }
        }
        // Burst 0 interleaves round-robin so an injected race reliably
        // overlaps; steady-state bursts vary by seed, session, and burst.
        let trace = if burst == 0 {
            interleave_round_robin(&programs)
        } else {
            interleave_seeded(
                &programs,
                cfg.seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((index * 1024 + burst) as u64),
            )
        };
        bursts.push(trace.events().to_vec());
    }

    StormSession {
        name: format!("storm-{index}"),
        bursts,
        expected_races: usize::from(racy),
    }
}

/// Generate every session of a storm.
#[must_use]
pub fn sessions(cfg: &StormConfig) -> Vec<StormSession> {
    (0..cfg.sessions).map(|i| session(cfg, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_rt::{KardExecutor, Session};
    use kard_trace::Op;

    fn replay_session(s: &StormSession) -> usize {
        let session = Session::new();
        let mut exec = KardExecutor::new(session.kard().clone());
        use kard_trace::replay::Executor as _;
        exec.start(
            s.bursts
                .iter()
                .flatten()
                .map(|e| e.thread + 1)
                .max()
                .unwrap_or(1),
        );
        for burst in &s.bursts {
            for e in burst {
                exec.on_event(e.thread, &e.op);
            }
        }
        exec.reports().len()
    }

    #[test]
    fn consistent_sessions_are_race_free() {
        let cfg = StormConfig { racy_sessions: 0, ..StormConfig::default() };
        for s in sessions(&cfg) {
            assert_eq!(s.expected_races, 0);
            assert_eq!(replay_session(&s), 0, "{} reported a race", s.name);
        }
    }

    #[test]
    fn racy_sessions_report_exactly_one_race() {
        let cfg = StormConfig { racy_sessions: 2, ..StormConfig::default() };
        let all = sessions(&cfg);
        for s in &all[..2] {
            assert_eq!(s.expected_races, 1);
            assert_eq!(replay_session(s), 1, "{} missed its race", s.name);
        }
        for s in &all[2..] {
            assert_eq!(s.expected_races, 0);
            assert_eq!(replay_session(s), 0);
        }
    }

    #[test]
    fn bursts_have_the_configured_shape() {
        let cfg = StormConfig {
            sessions: 1,
            threads: 3,
            objects_per_thread: 2,
            bursts: 4,
            entries_per_burst: 5,
            writes_per_entry: 2,
            racy_sessions: 0,
            seed: 9,
        };
        let s = session(&cfg, 0);
        assert_eq!(s.bursts.len(), 4);
        // Burst 0 = allocations + sections; later bursts = sections only.
        let allocs = |b: &[Event]| b.iter().filter(|e| matches!(e.op, Op::Alloc { .. })).count();
        assert_eq!(allocs(&s.bursts[0]), 6);
        assert_eq!(allocs(&s.bursts[1]), 0);
        let entries = |b: &[Event]| b.iter().filter(|e| matches!(e.op, Op::Lock { .. })).count();
        for b in &s.bursts {
            assert_eq!(entries(b), 15, "3 threads x 5 entries");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = StormConfig { racy_sessions: 1, ..StormConfig::default() };
        let a = sessions(&cfg);
        let b = sessions(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.bursts, y.bursts);
        }
    }

    #[test]
    fn steady_state_bursts_differ_across_sessions() {
        let cfg = StormConfig { sessions: 2, ..StormConfig::default() };
        let all = sessions(&cfg);
        assert_ne!(
            all[0].bursts[1], all[1].bursts[1],
            "seeded interleavings should vary by session"
        );
    }
}
