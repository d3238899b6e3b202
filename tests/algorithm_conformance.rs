//! Conformance of the full MPK detector against the pure Algorithm 1.
//!
//! With the [`KardConfig::algorithm_fidelity`] configuration — a large key
//! layout, one key per object, reactive acquisition, no filtering — the
//! hardware realization should agree with the paper's abstract algorithm.
//! On *write-only* traces (where the Read-only domain, whose readers hold
//! no keys in the realization, never arises) the agreement is exact: the
//! set of objects flagged by the detector equals the set flagged by the
//! pure algorithm on the same schedule.

use kard::core::algorithm::KeyEnforced;
use kard::core::{KardConfig, LockId, SectionId};
use kard::rt::KardExecutor;
use kard::sim::KeyLayout;
use kard::{CodeSite, MachineConfig, Session};
use kard_trace::replay::replay;
use kard_trace::{ObjectTag, Op, PhasedProgram, ThreadProgram};
use proptest::prelude::*;
use std::collections::BTreeSet;

const OBJECTS: u64 = 4;
const LOCKS: u64 = 3;

#[derive(Clone, Debug)]
enum Step {
    Section { lock: u64, writes: Vec<u64> },
    UnlockedWrite(u64),
    Pad,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0..LOCKS, prop::collection::vec(0..OBJECTS, 0..4))
            .prop_map(|(lock, writes)| Step::Section { lock, writes }),
        2 => (0..OBJECTS).prop_map(Step::UnlockedWrite),
        1 => Just(Step::Pad),
    ]
}

fn build(per_thread: &[Vec<Step>]) -> PhasedProgram {
    let mut init = ThreadProgram::new();
    for o in 0..OBJECTS {
        init.alloc(ObjectTag(o), 32);
    }
    let threads = per_thread
        .iter()
        .enumerate()
        .map(|(t, steps)| {
            let mut p = ThreadProgram::new();
            for (i, step) in steps.iter().enumerate() {
                let ip = CodeSite((t as u64) * 100_000 + i as u64);
                match step {
                    Step::Section { lock, writes } => {
                        p.lock(LockId(lock + 1), CodeSite(0x1000 + lock));
                        for &o in writes {
                            p.write(ObjectTag(o), 0, ip);
                        }
                        p.unlock(LockId(lock + 1));
                    }
                    Step::UnlockedWrite(o) => {
                        p.write(ObjectTag(*o), 0, ip);
                    }
                    Step::Pad => {
                        p.compute(10);
                    }
                }
            }
            p
        })
        .collect();
    PhasedProgram { init, threads }
}

/// Exit handling needs the section id; wrap events to track lock→site.
fn run_algorithm(trace: &kard_trace::Trace) -> BTreeSet<u64> {
    let mut alg = KeyEnforced::new();
    let mut raced = BTreeSet::new();
    let threads: Vec<kard::ThreadId> = (0..trace.thread_count()).map(kard::ThreadId).collect();
    let mut lock_site = std::collections::HashMap::new();
    for event in trace.events() {
        let t = threads[event.thread];
        match event.op {
            Op::Lock { lock, site } => {
                lock_site.insert(lock, site);
                alg.enter(t, SectionId(site));
            }
            Op::Unlock { lock } => {
                let site = lock_site[&lock];
                alg.exit(t, SectionId(site));
            }
            Op::Write { tag, .. } => {
                if let Some(race) = alg.write(t, kard::ObjectId(tag.0)) {
                    raced.insert(race.object.0);
                }
            }
            Op::Read { tag, .. } => {
                if let Some(race) = alg.read(t, kard::ObjectId(tag.0)) {
                    raced.insert(race.object.0);
                }
            }
            _ => {}
        }
    }
    raced
}

fn run_detector(trace: &kard_trace::Trace) -> BTreeSet<u64> {
    let mc = MachineConfig {
        // Far more keys than objects: the pool never exhausts, so with
        // `fresh_key_per_object` each object keeps a private key.
        key_layout: KeyLayout::with_total_keys(64),
        ..MachineConfig::default()
    };
    let session = Session::builder().machine(mc).config(KardConfig::algorithm_fidelity()).build();
    let mut exec = KardExecutor::new(session.kard().clone());
    replay(trace, &mut exec);
    exec.reports().iter().map(|r| r.object.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn detector_matches_pure_algorithm_on_write_only_traces(
        threads in prop::collection::vec(
            prop::collection::vec(step_strategy(), 1..10),
            2..4
        ),
        seed in 0u64..2_000,
    ) {
        let program = build(&threads);
        let trace = program.trace_seeded(seed);
        let from_detector = run_detector(&trace);
        let from_algorithm = run_algorithm(&trace);
        prop_assert_eq!(
            &from_detector,
            &from_algorithm,
            "detector and Algorithm 1 must agree on raced objects"
        );
    }
}

#[test]
fn conformance_on_the_figure1a_schedule() {
    // Deterministic spot check of the same equivalence.
    let mut t0 = ThreadProgram::new();
    t0.lock(LockId(1), CodeSite(0x1000));
    t0.write(ObjectTag(0), 0, CodeSite(1));
    t0.compute(10);
    t0.unlock(LockId(1));
    let mut t1 = ThreadProgram::new();
    t1.compute(10);
    t1.lock(LockId(2), CodeSite(0x2000));
    t1.write(ObjectTag(0), 0, CodeSite(2));
    t1.unlock(LockId(2));
    let mut init = ThreadProgram::new();
    init.alloc(ObjectTag(0), 32);
    for o in 1..OBJECTS {
        init.alloc(ObjectTag(o), 32);
    }
    let program = PhasedProgram {
        init,
        threads: vec![t0, t1],
    };
    let trace = program.trace_round_robin();
    assert_eq!(run_detector(&trace), run_algorithm(&trace));
    assert_eq!(run_detector(&trace), BTreeSet::from([0]));
}
