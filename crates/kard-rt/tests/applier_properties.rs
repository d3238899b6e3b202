//! Property tests of the capped applier a firehose shard runs per session:
//! arbitrary events never panic it, each rejection is counted under its
//! reason and leaves the detector as it was, and `release_all` leaves
//! only the session's globals behind.

use kard_alloc::{AllocStats, ObjectId};
use kard_core::{DetectorStats, LockId};
use kard_rt::{Applier, Caps, Rejection, Session};
use kard_sim::CodeSite;
use kard_trace::{ObjectTag, Op};
use proptest::prelude::*;
use std::collections::hash_map::RandomState;

const CAPS: Caps = Caps {
    threads: 3,
    objects: 4,
    bytes: 1 << 12,
    compute_cycles: 1 << 20,
};

/// Every lock an event below can name.
const LOCKS: [LockId; 4] = [LockId(1), LockId(2), LockId(3), LockId(5)];

/// The inputs `kard-server`'s invalid-events firehose test sends, each
/// with the reason it is rejected for on a fresh session (`None`: the
/// event is accepted).
fn firehose_inputs() -> Vec<(Op, Option<Rejection>)> {
    let (global, outer, inner) = (ObjectTag(7), LockId(1), LockId(2));
    vec![
        (
            Op::Write {
                tag: ObjectTag(9),
                offset: 0,
                ip: CodeSite(1),
            },
            Some(Rejection::AccessUnknown),
        ),
        (
            Op::Unlock { lock: LockId(5) },
            Some(Rejection::UnlockNotHeld),
        ),
        (
            Op::Alloc {
                tag: ObjectTag(1),
                size: u64::MAX / 2,
            },
            Some(Rejection::MemoryCap),
        ),
        (
            Op::Alloc {
                tag: ObjectTag(2),
                size: 0,
            },
            Some(Rejection::ZeroSize),
        ),
        (Op::Free { tag: ObjectTag(3) }, Some(Rejection::FreeUnknown)),
        (
            Op::Global {
                tag: global,
                size: 8,
            },
            None,
        ),
        (Op::Free { tag: global }, Some(Rejection::FreeGlobal)),
        (
            Op::Lock {
                lock: outer,
                site: CodeSite(0xa),
            },
            None,
        ),
        (
            Op::Lock {
                lock: inner,
                site: CodeSite(0xb),
            },
            None,
        ),
        (
            Op::Unlock { lock: outer },
            Some(Rejection::UnlockOutOfOrder),
        ),
    ]
}

fn tag() -> impl Strategy<Value = ObjectTag> {
    (0..8u64).prop_map(ObjectTag)
}

fn lock() -> impl Strategy<Value = LockId> {
    (0..LOCKS.len()).prop_map(|i| LOCKS[i])
}

fn size() -> impl Strategy<Value = u64> {
    prop_oneof![6 => 1..600u64, 1 => Just(0), 1 => Just(u64::MAX / 2)]
}

fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![6 => 0..700u64, 1 => Just(1 << 40)]
}

fn op() -> impl Strategy<Value = Op> {
    let firehose = firehose_inputs();
    prop_oneof![
        3 => (tag(), size()).prop_map(|(tag, size)| Op::Alloc { tag, size }),
        1 => (tag(), size()).prop_map(|(tag, size)| Op::Global { tag, size }),
        2 => tag().prop_map(|tag| Op::Free { tag }),
        3 => (lock(), 0..3u64).prop_map(|(lock, site)| Op::Lock { lock, site: CodeSite(0xa0 + site) }),
        3 => lock().prop_map(|lock| Op::Unlock { lock }),
        4 => (tag(), offset()).prop_map(|(tag, offset)| Op::Read { tag, offset, ip: CodeSite(0x10) }),
        4 => (tag(), offset()).prop_map(|(tag, offset)| Op::Write { tag, offset, ip: CodeSite(0x20) }),
        1 => prop_oneof![0..100u64, Just(u64::MAX)].prop_map(|cycles| Op::Compute { cycles }),
        3 => (0..firehose.len()).prop_map(move |i| firehose[i].0),
    ]
}

/// Everything a rejected event must leave as it was.
#[derive(Debug, PartialEq)]
struct DetectorState {
    threads: usize,
    now: u64,
    alloc: AllocStats,
    stats: DetectorStats,
}

impl DetectorState {
    fn of(session: &Session) -> DetectorState {
        DetectorState {
            threads: session.machine().thread_count(),
            now: session.machine().now(),
            alloc: session.alloc().stats(),
            stats: session.kard().stats(),
        }
    }
}

fn counts<S: std::hash::BuildHasher>(applier: &Applier<S>) -> Vec<u64> {
    Rejection::ALL
        .iter()
        .map(|&why| applier.rejected(why))
        .collect()
}

#[test]
fn firehose_inputs_are_rejected_for_their_reasons() {
    let session = Session::new();
    let mut applier: Applier<RandomState> = Applier::with_caps(session.kard().clone(), CAPS);
    for (op, expected) in firehose_inputs() {
        assert_eq!(applier.apply(0, &op).err(), expected, "{op:?}");
    }
    assert_eq!(counts(&applier).iter().sum::<u64>(), 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_events_never_corrupt_the_detector(
        events in prop::collection::vec((0..4usize, op()), 1..150),
    ) {
        let session = Session::new();
        let kard = session.kard().clone();
        let mut applier: Applier<RandomState> = Applier::with_caps(kard.clone(), CAPS);
        let mut globals: Vec<ObjectId> = Vec::new();
        for (thread, op) in &events {
            let before = DetectorState::of(&session);
            let mut expected = counts(&applier);
            match applier.apply(*thread, op) {
                Ok(()) => {
                    if let Op::Global { tag, .. } = op {
                        globals.push(applier.object(*tag).expect("a global stays live").id);
                    }
                }
                Err(why) => {
                    expected[why as usize] += 1;
                    prop_assert_eq!(DetectorState::of(&session), before, "{} left state behind", why.name());
                }
            }
            prop_assert_eq!(counts(&applier), expected);
        }

        applier.release_all();
        let mut live: Vec<ObjectId> =
            session.alloc().live_objects().iter().map(|info| info.id).collect();
        live.sort_unstable();
        globals.sort_unstable();
        prop_assert_eq!(live, globals, "only the session's globals outlive it");
        // Every section the session held was exited: a fresh thread takes
        // every lock, nested, plus enough fresh ones to pass the session's
        // peak of concurrent sections, and is then the only thread inside
        // one — a section left open would raise the new peak past its depth.
        let peak = kard.stats().max_concurrent_sections;
        let depth = peak + LOCKS.len() as u64;
        let nested: Vec<LockId> =
            LOCKS.iter().copied().chain((100..).map(LockId)).take(depth as usize).collect();
        let t = kard.register_thread();
        for (i, &lock) in nested.iter().enumerate() {
            kard.lock_enter(t, lock, CodeSite(0xf0 + i as u64));
        }
        prop_assert_eq!(kard.stats().max_concurrent_sections, depth, "a section outlived the session");
        for &lock in nested.iter().rev() {
            kard.lock_exit(t, lock);
        }
    }
}
