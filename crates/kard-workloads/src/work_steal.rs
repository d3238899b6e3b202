//! Work-stealing deque and async task-pool traffic shapes.
//!
//! The storm generator ([`crate::storm`]) models connect/blast/disconnect
//! session traffic; this module adds the two scheduler-shaped traffics the
//! production-mode Pareto sweep needs so its curves are not just PARSEC
//! models:
//!
//! * **Work-stealing deques** ([`WorkStealConfig`]): every worker owns a
//!   deque of task objects protected by the deque's lock; owners pop
//!   locally while thieves steal from a victim's deque *under the victim's
//!   lock* — the Chase–Lev discipline flattened onto lock identities.
//!   Every task is only ever touched under its home deque's lock, so the
//!   shape is race-free by construction; steals make a worker's objects a
//!   cross-thread shared group, which is exactly the access pattern that
//!   churns key holders and the §5.4 assignment rules.
//! * **Async task pool** ([`TaskPoolConfig`]): tasks are spawned once by an
//!   injector thread, then each round a seeded hash migrates every task to
//!   some worker, which runs it under the *task's own* lock. Lock identity
//!   follows the task, not the thread (the async executor discipline), so
//!   the shape is race-free while keeping many object groups concurrently
//!   live across changing threads — key-pressure traffic, not fault-storm
//!   traffic.
//!
//! Both generators emit [`StormSession`]s, so everything that consumes
//! storms — the firehose tests, `kard-tables production` — drives these
//! shapes through the same replay path, and racy variants plant exactly
//! [`StormSession::expected_races`] Figure 1a-style inconsistent-lock
//! pairs. [`TrafficShape`] is the registry harnesses
//! iterate to sweep every shape uniformly.

use crate::storm::{self, StormConfig, StormSession};
use kard_core::LockId;
use kard_sim::CodeSite;
use kard_trace::schedule::{interleave_round_robin, interleave_seeded};
use kard_trace::{ObjectTag, ThreadProgram};

/// SplitMix64 finalizer: the crate's standard deterministic hash (see
/// [`crate::synth`]) — scheduling decisions must be a pure function of the
/// config so generated traffic is reproducible.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Shape of a work-stealing deque run.
#[derive(Clone, Copy, Debug)]
pub struct WorkStealConfig {
    /// Number of generated sessions.
    pub sessions: usize,
    /// Workers (logical threads) per session; stealing needs ≥ 2.
    pub workers: usize,
    /// Task objects on each worker's deque.
    pub tasks_per_worker: usize,
    /// Execution rounds after the spawn burst (total bursts = rounds + 1).
    pub rounds: usize,
    /// Permille of task executions that are steals by the next worker
    /// (running under the victim's deque lock).
    pub steal_permille: u32,
    /// How many sessions plant one inconsistent-lock race in their spawn
    /// burst (a result cell written under the owner's deque lock and read
    /// under the thief's — Figure 1a with scheduler roles).
    pub racy_sessions: usize,
    /// Seed for scheduling decisions and steady-state interleavings.
    pub seed: u64,
}

impl Default for WorkStealConfig {
    fn default() -> Self {
        WorkStealConfig {
            sessions: 4,
            workers: 3,
            tasks_per_worker: 4,
            rounds: 3,
            steal_permille: 300,
            racy_sessions: 0,
            seed: 1,
        }
    }
}

/// Generate work-stealing session `index`.
///
/// # Panics
///
/// Panics if `workers < 2` or `tasks_per_worker`/`rounds` is zero.
#[must_use]
pub fn steal_session(cfg: &WorkStealConfig, index: usize) -> StormSession {
    assert!(cfg.workers >= 2, "stealing needs at least two workers");
    assert!(cfg.tasks_per_worker > 0, "tasks_per_worker must be > 0");
    assert!(cfg.rounds > 0, "at least one execution round");
    let racy = index < cfg.racy_sessions;
    let task_tag = |w: usize, i: usize| ObjectTag((w * cfg.tasks_per_worker + i) as u64);
    let result_tag = ObjectTag((cfg.workers * cfg.tasks_per_worker) as u64);
    let deque_lock = |w: usize| LockId(1 + w as u64);

    let mut bursts = Vec::with_capacity(cfg.rounds + 1);
    // Spawn burst: every worker fills its own deque (task initialization
    // under the deque lock), plus the planted inconsistent-lock pair.
    let mut programs: Vec<ThreadProgram> = vec![ThreadProgram::new(); cfg.workers];
    for (w, p) in programs.iter_mut().enumerate() {
        for i in 0..cfg.tasks_per_worker {
            p.alloc(task_tag(w, i), 64);
        }
        p.critical_section(deque_lock(w), CodeSite(0x3000 + w as u64), |p| {
            for i in 0..cfg.tasks_per_worker {
                p.write(task_tag(w, i), 0, CodeSite(0x3100 + w as u64));
            }
        });
    }
    if racy {
        programs[0].alloc(result_tag, 64);
        programs[0].critical_section(deque_lock(0), CodeSite(0xaaa0), |p| {
            p.write(result_tag, 0, CodeSite(0xaaa1));
        });
        programs[1].critical_section(deque_lock(1), CodeSite(0xbbb0), |p| {
            p.read(result_tag, 0, CodeSite(0xbbb1));
            p.read(result_tag, 0, CodeSite(0xbbb2));
        });
    }
    bursts.push(interleave_round_robin(&programs).events().to_vec());

    for round in 1..=cfg.rounds {
        let mut programs: Vec<ThreadProgram> = vec![ThreadProgram::new(); cfg.workers];
        for w in 0..cfg.workers {
            for i in 0..cfg.tasks_per_worker {
                let h = mix(
                    cfg.seed ^ mix((index as u64) << 40 | (round as u64) << 20 | (w * cfg.tasks_per_worker + i) as u64),
                );
                let stolen = h % 1000 < u64::from(cfg.steal_permille);
                // A steal runs on the next worker but still under the
                // *victim's* deque lock — lock usage stays consistent per
                // task, which is what keeps the shape race-free.
                let runner = if stolen { (w + 1) % cfg.workers } else { w };
                programs[runner].critical_section(
                    deque_lock(w),
                    CodeSite(0x3000 + w as u64),
                    |p| {
                        p.read(task_tag(w, i), 0, CodeSite(0x3200 + runner as u64));
                        p.write(task_tag(w, i), 8, CodeSite(0x3300 + runner as u64));
                    },
                );
            }
        }
        bursts.push(
            interleave_seeded(
                &programs,
                cfg.seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((index * 4096 + round) as u64),
            )
            .events()
            .to_vec(),
        );
    }

    StormSession {
        name: format!("steal-{index}"),
        bursts,
        expected_races: usize::from(racy),
    }
}

/// Generate every session of a work-stealing run.
#[must_use]
pub fn steal_sessions(cfg: &WorkStealConfig) -> Vec<StormSession> {
    (0..cfg.sessions).map(|i| steal_session(cfg, i)).collect()
}

/// Shape of an async task-pool run.
#[derive(Clone, Copy, Debug)]
pub struct TaskPoolConfig {
    /// Number of generated sessions.
    pub sessions: usize,
    /// Workers (logical threads) per session, excluding none — thread 0
    /// doubles as the injector.
    pub workers: usize,
    /// Tasks in the pool.
    pub tasks: usize,
    /// Execution rounds after the spawn burst; each round every task runs
    /// on a seeded-hash-chosen worker.
    pub rounds: usize,
    /// How many sessions plant one inconsistent-lock race (a completion
    /// counter bumped under two different workers' local locks).
    pub racy_sessions: usize,
    /// Seed for task placement and steady-state interleavings.
    pub seed: u64,
}

impl Default for TaskPoolConfig {
    fn default() -> Self {
        TaskPoolConfig {
            sessions: 4,
            workers: 3,
            tasks: 8,
            rounds: 3,
            racy_sessions: 0,
            seed: 1,
        }
    }
}

/// Generate async task-pool session `index`.
///
/// # Panics
///
/// Panics if `workers < 2` or `tasks`/`rounds` is zero.
#[must_use]
pub fn pool_session(cfg: &TaskPoolConfig, index: usize) -> StormSession {
    assert!(cfg.workers >= 2, "a pool needs at least two workers");
    assert!(cfg.tasks > 0, "tasks must be > 0");
    assert!(cfg.rounds > 0, "at least one execution round");
    let racy = index < cfg.racy_sessions;
    let task_tag = |i: usize| ObjectTag(i as u64);
    let counter_tag = ObjectTag(cfg.tasks as u64);
    let injector_lock = LockId(1);
    let task_lock = |i: usize| LockId(100 + i as u64);
    let worker_lock = |w: usize| LockId(1000 + w as u64);

    let mut bursts = Vec::with_capacity(cfg.rounds + 1);
    // Spawn burst: the injector (thread 0) allocates every task, touches
    // its queue bookkeeping under the injector lock, and initializes each
    // task under the *task's* lock — the lock that will follow the task
    // across workers. Initializing under the injector lock instead would
    // be inconsistent lock usage, which Kard rightly reports.
    let mut programs: Vec<ThreadProgram> = vec![ThreadProgram::new(); cfg.workers];
    // The planted pair leads both programs so the round-robin interleave
    // puts the counter allocation before worker 1's first read and
    // overlaps the two inconsistent sections.
    if racy {
        programs[0].alloc(counter_tag, 64);
        programs[0].critical_section(worker_lock(0), CodeSite(0xcaa0), |p| {
            p.write(counter_tag, 0, CodeSite(0xcaa1));
        });
        programs[1].critical_section(worker_lock(1), CodeSite(0xcbb0), |p| {
            p.read(counter_tag, 0, CodeSite(0xcbb1));
            p.read(counter_tag, 0, CodeSite(0xcbb2));
        });
    }
    let queue_tag = ObjectTag((cfg.tasks + 1) as u64);
    programs[0].alloc(queue_tag, 64);
    for i in 0..cfg.tasks {
        programs[0].alloc(task_tag(i), 64);
    }
    programs[0].critical_section(injector_lock, CodeSite(0x4000), |p| {
        p.write(queue_tag, 0, CodeSite(0x4001));
    });
    for i in 0..cfg.tasks {
        programs[0].critical_section(task_lock(i), CodeSite(0x4100 + i as u64), |p| {
            p.write(task_tag(i), 0, CodeSite(0x4002));
        });
    }
    bursts.push(interleave_round_robin(&programs).events().to_vec());

    // Execution rounds: each task migrates to a hash-chosen worker and
    // runs under its *own* lock — the async-executor discipline where
    // lock identity follows the future, not the thread.
    for round in 1..=cfg.rounds {
        let mut programs: Vec<ThreadProgram> = vec![ThreadProgram::new(); cfg.workers];
        for i in 0..cfg.tasks {
            let runner = (mix(cfg.seed ^ mix((index as u64) << 40 | (round as u64) << 20 | i as u64))
                % cfg.workers as u64) as usize;
            programs[runner].critical_section(
                task_lock(i),
                CodeSite(0x4100 + i as u64),
                |p| {
                    p.read(task_tag(i), 0, CodeSite(0x4200 + runner as u64));
                    p.write(task_tag(i), 8, CodeSite(0x4300 + runner as u64));
                },
            );
        }
        bursts.push(
            interleave_seeded(
                &programs,
                cfg.seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((index * 8192 + round) as u64),
            )
            .events()
            .to_vec(),
        );
    }

    StormSession {
        name: format!("pool-{index}"),
        bursts,
        expected_races: usize::from(racy),
    }
}

/// Generate every session of an async task-pool run.
#[must_use]
pub fn pool_sessions(cfg: &TaskPoolConfig) -> Vec<StormSession> {
    (0..cfg.sessions).map(|i| pool_session(cfg, i)).collect()
}

/// Registry of the burst-traffic generators, so sweeps (the
/// production-mode Pareto experiment) can iterate every shape through one
/// interface instead of hard-coding the storm generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficShape {
    /// Connect/blast/disconnect storms ([`crate::storm`]).
    Storm,
    /// Work-stealing deques ([`WorkStealConfig`]).
    WorkSteal,
    /// Async task pool ([`TaskPoolConfig`]).
    TaskPool,
}

impl TrafficShape {
    /// Every registered shape.
    pub const ALL: [TrafficShape; 3] =
        [TrafficShape::Storm, TrafficShape::WorkSteal, TrafficShape::TaskPool];

    /// Stable name, used in experiment rows and session prefixes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrafficShape::Storm => "storm",
            TrafficShape::WorkSteal => "work_steal",
            TrafficShape::TaskPool => "task_pool",
        }
    }

    /// Generate `sessions` sessions of this shape at its default scale,
    /// the first `racy` of them carrying one planted race each.
    #[must_use]
    pub fn sessions(self, sessions: usize, racy: usize, seed: u64) -> Vec<StormSession> {
        match self {
            TrafficShape::Storm => storm::sessions(&StormConfig {
                sessions,
                racy_sessions: racy,
                seed,
                ..StormConfig::default()
            }),
            TrafficShape::WorkSteal => steal_sessions(&WorkStealConfig {
                sessions,
                racy_sessions: racy,
                seed,
                ..WorkStealConfig::default()
            }),
            TrafficShape::TaskPool => pool_sessions(&TaskPoolConfig {
                sessions,
                racy_sessions: racy,
                seed,
                ..TaskPoolConfig::default()
            }),
        }
    }
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
    fn consistent_steal_sessions_are_race_free() {
        for s in steal_sessions(&WorkStealConfig::default()) {
            assert_eq!(s.expected_races, 0);
            assert_eq!(replay_session(&s), 0, "{} reported a race", s.name);
        }
    }

    #[test]
    fn racy_steal_sessions_report_exactly_one_race() {
        let cfg = WorkStealConfig { racy_sessions: 2, ..WorkStealConfig::default() };
        let all = steal_sessions(&cfg);
        for s in &all[..2] {
            assert_eq!(s.expected_races, 1);
            assert_eq!(replay_session(s), 1, "{} missed its race", s.name);
        }
        for s in &all[2..] {
            assert_eq!(replay_session(s), 0);
        }
    }

    #[test]
    fn steals_cross_threads() {
        let cfg = WorkStealConfig { steal_permille: 500, ..WorkStealConfig::default() };
        let s = steal_session(&cfg, 0);
        let tasks_per = cfg.tasks_per_worker;
        let mut steals = 0usize;
        for burst in &s.bursts[1..] {
            for e in burst {
                if let Op::Write { tag, .. } = e.op {
                    let home = tag.0 as usize / tasks_per;
                    if home < cfg.workers && home != e.thread {
                        steals += 1;
                    }
                }
            }
        }
        assert!(steals > 0, "a 500-permille steal ratio must steal sometimes");
    }

    #[test]
    fn consistent_pool_sessions_are_race_free() {
        for s in pool_sessions(&TaskPoolConfig::default()) {
            assert_eq!(s.expected_races, 0);
            assert_eq!(replay_session(&s), 0, "{} reported a race", s.name);
        }
    }

    #[test]
    fn racy_pool_sessions_report_exactly_one_race() {
        let cfg = TaskPoolConfig { racy_sessions: 1, ..TaskPoolConfig::default() };
        let all = pool_sessions(&cfg);
        assert_eq!(all[0].expected_races, 1);
        assert_eq!(replay_session(&all[0]), 1, "{} missed its race", all[0].name);
        assert_eq!(replay_session(&all[1]), 0);
    }

    #[test]
    fn pool_tasks_migrate_across_workers() {
        let cfg = TaskPoolConfig { rounds: 6, ..TaskPoolConfig::default() };
        let s = pool_session(&cfg, 0);
        let mut migrated = false;
        for task in 0..cfg.tasks {
            let mut runners: Vec<usize> = Vec::new();
            for burst in &s.bursts[1..] {
                for e in burst {
                    if let Op::Write { tag, .. } = e.op {
                        if tag.0 as usize == task {
                            runners.push(e.thread);
                        }
                    }
                }
            }
            runners.dedup();
            if runners.len() > 1 {
                migrated = true;
            }
        }
        assert!(migrated, "tasks should run on more than one worker over rounds");
    }

    #[test]
    fn generation_is_deterministic() {
        for shape in TrafficShape::ALL {
            let a = shape.sessions(3, 1, 7);
            let b = shape.sessions(3, 1, 7);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.bursts, y.bursts);
                assert_eq!(x.expected_races, y.expected_races);
            }
        }
    }

    #[test]
    fn registry_names_and_prefixes_line_up() {
        for shape in TrafficShape::ALL {
            let sessions = shape.sessions(2, 1, 3);
            assert_eq!(sessions.len(), 2);
            assert_eq!(sessions[0].expected_races, 1);
            for s in &sessions {
                assert!(s.total_events() > 0);
            }
        }
        assert_eq!(TrafficShape::WorkSteal.name(), "work_steal");
    }
}
