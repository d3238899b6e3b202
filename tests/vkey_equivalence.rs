//! Properties of the key-virtualization layer (`kard::core::vkey`).
//!
//! The load-bearing claims tested here:
//!
//! 1. **Equivalence below the ceiling.** With at most 13 live shared-object
//!    groups the virtualized detector is *byte-identical* to the direct
//!    one: same race reports, same statistics (including cycle-derived
//!    counters), zero evictions and zero shares. Virtualization must be a
//!    strict superset of the paper's §5.4 policy, not a reinterpretation.
//! 2. **No sharing above the ceiling.** Where the direct detector's rule 3
//!    degrades to key sharing (the §7.3 false-negative exposure), the
//!    virtualized detector evicts instead — `shares` stays zero while the
//!    cache can still turn over.
//! 3. **The detection edge.** A race hidden from the direct detector by key
//!    sharing (the aliased key suppresses the fault) is caught by the
//!    virtualized detector through the revival logical-holder check.
//!
//! Programs are replayed deterministically with the round-robin scheduler;
//! thread 0 performs every allocation up front while other threads pad, so
//! no access can precede its allocation in the interleaving.

use kard::core::{DetectorStats, KeyCachePolicy, KeyMode, VKeyStats};
use kard::trace::replay::replay;
use kard::trace::schedule::interleave_round_robin;
use kard::trace::{ObjectTag, ThreadProgram, Trace};
use kard::{CodeSite, KardConfig, KardExecutor, LockId, RaceRecord, Session, ThreadId};
use proptest::prelude::*;

fn direct(interleaving: bool) -> KardConfig {
    let mut c = KardConfig::paper();
    c.protection_interleaving = interleaving;
    c
}

fn virtualized(interleaving: bool) -> KardConfig {
    let mut c = direct(interleaving);
    c.keys = KeyMode::Virtual(KeyCachePolicy::Lru);
    c
}

fn run(trace: &Trace, config: KardConfig) -> (Vec<RaceRecord>, DetectorStats, VKeyStats) {
    let session = Session::builder().config(config).build();
    let mut exec = KardExecutor::new(session.kard().clone());
    replay(trace, &mut exec);
    (exec.reports(), exec.stats(), session.kard().vkey_stats())
}

// --- Property: ≤13-group byte-identical equivalence -------------------------

/// Objects in the generated workloads — few enough that the group count can
/// never approach the 13-key pool, so the virtualized run must stay on the
/// hit/fill fast path.
const OBJECTS: u64 = 6;

#[derive(Clone, Debug)]
enum Step {
    Locked { o: u64, lock: u64, write: bool },
    UnlockedRead(u64),
    Pad,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..OBJECTS, 0..3u64, any::<bool>())
            .prop_map(|(o, lock, write)| Step::Locked { o, lock, write }),
        (0..OBJECTS).prop_map(Step::UnlockedRead),
        Just(Step::Pad),
    ]
}

fn build(per_thread: &[Vec<Step>]) -> Vec<ThreadProgram> {
    per_thread
        .iter()
        .enumerate()
        .map(|(t, steps)| {
            let mut p = ThreadProgram::new();
            // Thread 0 allocates everything; the others pad one op per
            // allocation so that under round-robin scheduling no access
            // can be delivered before its allocation.
            if t == 0 {
                for o in 0..OBJECTS {
                    p.alloc(ObjectTag(o), 32);
                }
            } else {
                for _ in 0..OBJECTS {
                    p.compute(1);
                }
            }
            for (i, step) in steps.iter().enumerate() {
                let ip = CodeSite(0x1000 * (t as u64 + 1) + i as u64);
                match *step {
                    Step::Locked { o, lock, write } => {
                        p.lock(LockId(lock + 1), CodeSite(0x100 + lock));
                        if write {
                            p.write(ObjectTag(o), 0, ip);
                        } else {
                            p.read(ObjectTag(o), 0, ip);
                        }
                        p.unlock(LockId(lock + 1));
                    }
                    Step::UnlockedRead(o) => {
                        p.read(ObjectTag(o), 0, ip);
                    }
                    Step::Pad => {
                        p.compute(3);
                    }
                }
            }
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With fewer live groups than pool keys, the virtualized detector
    /// reports byte-identical races and statistics to the direct one, and
    /// its cache never evicts or shares. (Interleaving is disabled here:
    /// its suspend/restore path is the one place the two modes are
    /// *intentionally* allowed to diverge — see the directed tests.)
    #[test]
    fn below_ceiling_virtualized_is_byte_identical(
        a in prop::collection::vec(step_strategy(), 1..20),
        b in prop::collection::vec(step_strategy(), 1..20),
        c in prop::collection::vec(step_strategy(), 1..20),
    ) {
        let trace = interleave_round_robin(&build(&[a, b, c]));
        let (dr, ds, _) = run(&trace, direct(false));
        let (vr, vs, vstats) = run(&trace, virtualized(false));
        prop_assert_eq!(dr, vr, "race reports diverged");
        prop_assert_eq!(ds, vs, "detector statistics diverged");
        prop_assert_eq!(vstats.evictions, 0, "no eviction below the ceiling");
        prop_assert_eq!(vstats.shares, 0, "no sharing below the ceiling");
        prop_assert!(vstats.peak_pressure <= OBJECTS);
    }
}

// --- Directed: above the ceiling -------------------------------------------

/// `groups` threads that each allocate one object and write it inside a
/// private critical section, all sections overlapping under round-robin
/// scheduling: `groups` simultaneously live, held, shared-object groups.
fn saturating_programs(groups: usize, pads: usize) -> Vec<ThreadProgram> {
    (0..groups)
        .map(|t| {
            let t = t as u64;
            let mut p = ThreadProgram::new();
            p.alloc(ObjectTag(t), 32);
            p.lock(LockId(t + 1), CodeSite(0x100 + t));
            p.write(ObjectTag(t), 0, CodeSite(0x1000 + t));
            for _ in 0..pads {
                p.compute(1);
            }
            p.unlock(LockId(t + 1));
            p
        })
        .collect()
}

#[test]
fn above_ceiling_virtualized_evicts_and_never_shares() {
    let trace = interleave_round_robin(&saturating_programs(20, 4));

    let (_, ds, _) = run(&trace, direct(true));
    assert!(
        ds.key_shares > 0,
        "the direct detector must be forced into rule-3 sharing here"
    );

    let (vr, vs, vstats) = run(&trace, virtualized(true));
    assert_eq!(vstats.shares, 0, "virtualized mode must evict, not share");
    assert!(
        vstats.evictions >= 20 - 13,
        "filling 20 groups through 13 keys takes at least 7 evictions, got {}",
        vstats.evictions
    );
    assert!(
        vstats.synced_evictions > 0,
        "every group is held, so evictions must strip live holders"
    );
    assert_eq!(vstats.peak_pressure, 20);
    assert_eq!(vs.key_shares, 0);
    assert!(vr.is_empty(), "each thread touches only its own object");
}

// --- Directed: the revival detection edge ----------------------------------

/// The §7.3 sharing false negative, reconstructed:
///
/// * thread 0 writes object A under lock L0 and stays in its section;
/// * threads 1..=12 fill the remaining twelve pool keys, all held;
/// * thread 13, in its own section, writes a fresh object B — the direct
///   detector must *share* a key (every key is held, recycling is
///   impossible), and the fewest-holder tie-break hands it A's key — then
///   writes A itself: no fault (thread 13 holds A's key), race missed.
///
/// The virtualized detector instead evicts A's group (the LRU victim) to
/// make room for B, demoting A; thread 13's write of A then faults, revives
/// the group, and the logical-holder check sees thread 0 still inside its
/// section: the race is reported.
fn shared_key_race_programs() -> Vec<ThreadProgram> {
    let mut programs: Vec<ThreadProgram> = (0..13u64)
        .map(|t| {
            let mut p = ThreadProgram::new();
            p.alloc(ObjectTag(t), 32);
            p.lock(LockId(t + 1), CodeSite(0x100 + t));
            p.write(ObjectTag(t), 0, CodeSite(0x1000 + t));
            for _ in 0..6 {
                p.compute(1);
            }
            p.unlock(LockId(t + 1));
            p
        })
        .collect();

    let mut p = ThreadProgram::new();
    p.alloc(ObjectTag(100), 32); // B
    p.compute(1); // keep step-parity: A is allocated in round one
    p.lock(LockId(100), CodeSite(0x200));
    p.write(ObjectTag(100), 0, CodeSite(0x2000)); // forces share / eviction
    p.write(ObjectTag(0), 0, CodeSite(0x2001)); // the racy write of A
    p.unlock(LockId(100));
    programs.push(p);
    programs
}

#[test]
fn revival_check_catches_race_that_sharing_misses() {
    let trace = interleave_round_robin(&shared_key_race_programs());

    let (dr, ds, _) = run(&trace, direct(true));
    assert!(ds.key_shares > 0, "setup must actually force sharing");
    assert!(
        dr.is_empty(),
        "the aliased key hides the race from the direct detector: {dr:?}"
    );

    let (vr, _, vstats) = run(&trace, virtualized(true));
    assert!(vstats.revivals > 0, "A's group must be evicted and revived");
    assert_eq!(
        vr.len(),
        1,
        "the revival logical-holder check must report the race: {vr:?}"
    );
    // Thread 13 (the sharer) faults; thread 0 (the evicted holder) is the
    // other side, each inside its own section.
    assert_eq!(vr[0].faulting.thread, ThreadId(13));
    assert_eq!(vr[0].holding.thread, ThreadId(0));
    assert_ne!(vr[0].faulting.section, vr[0].holding.section);
}

// --- Directed: interleaving stays sound under virtualization ---------------

#[test]
fn interleaving_filter_still_works_with_virtual_keys() {
    // The standard two-thread ILU race from the executor docs must be
    // reported identically with virtualization on, full paper config.
    let mut p0 = ThreadProgram::new();
    p0.alloc(ObjectTag(0), 32);
    p0.critical_section(LockId(1), CodeSite(0xa), |p| {
        p.write(ObjectTag(0), 0, CodeSite(0xa1));
    });
    let mut p1 = ThreadProgram::new();
    p1.critical_section(LockId(2), CodeSite(0xb), |p| {
        p.read(ObjectTag(0), 0, CodeSite(0xb1));
        p.read(ObjectTag(0), 0, CodeSite(0xb2));
    });
    let trace = interleave_round_robin(&[p0, p1]);

    let (dr, _, _) = run(&trace, direct(true));
    let (vr, _, _) = run(&trace, virtualized(true));
    assert_eq!(dr.len(), 1);
    assert_eq!(dr, vr, "virtualization must not change the verdict");
}
