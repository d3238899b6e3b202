//! Soundness against an independent referee (property). Random
//! locked/unlocked/padded programs are replayed into Kard and into the
//! Eraser lockset detector of `kard::baselines`; every object Kard
//! reports — under the direct §5.4 policy and under the hotness-policy
//! virtualized cache — must also be a lockset violation on that trace.
//! (Concurrent-vs-sequential report equality on real OS threads is
//! `tests/shard_contention.rs`; the lock bill of entries, plan rebuilds
//! and allocations is `tests/no_lock_overhead.rs`.)

use std::collections::BTreeSet;

use kard::baselines::Lockset;
use kard::core::{KeyCachePolicy, KeyMode};
use kard::sim::CodeSite;
use kard::trace::replay::replay;
use kard::trace::schedule::{interleave_round_robin, sequential};
use kard::trace::{ObjectTag, ThreadProgram, Trace};
use kard::{KardConfig, KardExecutor, LockId, Session};
use proptest::prelude::*;

/// More objects than the 13 pool keys, so the direct policy recycles keys
/// and the virtualized cache evicts groups while the property runs.
const OBJECTS: u64 = 18;
const WORKERS: usize = 3;

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

/// Two choices make "Kard reported it ⇒ lockset flags it" hold per object,
/// not just per trace:
///
/// * every `(lock, object)` pair is its own section, so §5.4 rule-1
///   held-key reuse never groups two objects under one key and a report
///   names the object the holder's section really accesses (with one call
///   site per lock, key grouping yields the paper's pigz-class reports on
///   objects the holder never touched — not lockset violations);
/// * an owner thread allocates every object and reads it once, unlocked,
///   before any worker runs. Kard never sees those reads (a Not-accessed
///   object outside a critical section is freely accessible); Eraser
///   spends its first-owner forgiveness on them, so every worker access
///   refines the candidate set.
fn build(per_thread: &[Vec<Step>]) -> Trace {
    let mut owner = ThreadProgram::new();
    for o in 0..OBJECTS {
        owner.alloc(ObjectTag(o), 32);
        owner.read(ObjectTag(o), 0, CodeSite(0xf000 + o));
    }
    let mut prologue = vec![ThreadProgram::new(); WORKERS];
    prologue.push(owner);

    let workers: Vec<ThreadProgram> = per_thread
        .iter()
        .enumerate()
        .map(|(t, steps)| {
            let mut p = ThreadProgram::new();
            for (i, step) in steps.iter().enumerate() {
                let ip = CodeSite(0x1000 * (t as u64 + 1) + i as u64);
                match *step {
                    Step::Locked { o, lock, write } => {
                        p.lock(LockId(lock + 1), CodeSite(0x100 + lock * OBJECTS + o));
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
        .collect();
    sequential(&prologue).then(interleave_round_robin(&workers))
}

/// Tags of the objects Kard reports on `trace`. The owner allocates tags
/// `0..OBJECTS` in order before anything else runs, so object id == tag.
fn kard_raced_tags(trace: &Trace, config: KardConfig) -> BTreeSet<u64> {
    let session = Session::builder().config(config).build();
    let mut exec = KardExecutor::new(session.kard().clone());
    replay(trace, &mut exec);
    let raced: BTreeSet<u64> = exec.reports().iter().map(|r| r.object.0).collect();
    assert!(raced.iter().all(|&o| o < OBJECTS), "ids are tags: {raced:?}");
    raced
}

fn hotness_virtualized() -> KardConfig {
    KardConfig {
        keys: KeyMode::Virtual(KeyCachePolicy::Hotness),
        ..KardConfig::paper()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The referee is an independent detector on the same trace, not an
    /// older mode of this one: ILU races are inconsistent lock usage
    /// caught in the act, so every object Kard reports must also have an
    /// empty Eraser candidate lockset — under the direct policy and under
    /// the hotness-policy virtualized cache.
    #[test]
    fn kard_reports_are_lockset_violations(
        a in prop::collection::vec(step_strategy(), 1..40),
        b in prop::collection::vec(step_strategy(), 1..40),
        c in prop::collection::vec(step_strategy(), 1..40),
    ) {
        let trace = build(&[a, b, c]);

        let mut lockset = Lockset::new();
        replay(&trace, &mut lockset);
        let violations: BTreeSet<u64> = lockset.races().iter().map(|r| r.tag.0).collect();

        for (mode, config) in [
            ("direct", KardConfig::paper()),
            ("hotness-virtualized", hotness_virtualized()),
        ] {
            let raced = kard_raced_tags(&trace, config);
            prop_assert!(
                raced.is_subset(&violations),
                "{} kard reported {:?}, lockset only {:?}",
                mode, raced, violations
            );
        }
    }
}
