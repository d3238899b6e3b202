//! Stress tests on real OS threads: the detector's own thread safety.
//!
//! Determinism tests drive everything from one thread; these tests instead
//! hammer one `Session` from several OS threads to check that the runtime
//! (machine + allocator + detector) is sound under real concurrency — no
//! deadlocks, no panics, no reports for disciplined programs, and at least
//! one report when a genuine ILU overlap is forced. One deterministic case
//! rides along: what the last real-thread test would report if its four
//! locks shared a call site, which real threads show only now and then.

use kard::core::report::{RaceFingerprint, RaceRecord};
use kard::core::SectionId;
use kard::sim::AccessKind;
use kard::{CodeSite, KardExecutor, LockId, ObjectId, Session};
use kard_trace::replay::replay;
use kard_trace::{ObjectTag, PhasedProgram, ThreadProgram, Trace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn disciplined_program_on_real_threads_is_silent() {
    let session = Arc::new(Session::new());
    let mutex = Arc::new(session.new_mutex());
    let setup = session.spawn_thread();
    let objects: Vec<_> = (0..8).map(|_| setup.alloc(64)).collect();
    let objects = Arc::new(objects);

    let mut handles = Vec::new();
    for worker in 0..4 {
        let session = Arc::clone(&session);
        let mutex = Arc::clone(&mutex);
        let objects = Arc::clone(&objects);
        handles.push(std::thread::spawn(move || {
            let t = session.spawn_thread();
            for round in 0..100u64 {
                let _guard = t.enter(&mutex, CodeSite(0x100));
                let o = &objects[(round as usize + worker) % objects.len()];
                t.write(o, 0, CodeSite(0x200 + worker as u64));
                t.read(o, 8, CodeSite(0x300 + worker as u64));
            }
        }));
    }
    for h in handles {
        h.join().expect("no panics under concurrency");
    }
    assert!(
        session.kard().reports().is_empty(),
        "single-lock discipline must be silent: {:?}",
        session.kard().reports()
    );
    assert_eq!(session.kard().stats().cs_entries, 400);
}

#[test]
fn forced_overlap_on_real_threads_detects_race() {
    let session = Arc::new(Session::new());
    let lock_a = Arc::new(session.new_mutex());
    let lock_b = Arc::new(session.new_mutex());
    let setup = session.spawn_thread();
    let target = setup.alloc(32);
    let t1_in_section = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));

    let s1 = Arc::clone(&session);
    let la = Arc::clone(&lock_a);
    let flag = Arc::clone(&t1_in_section);
    let done1 = Arc::clone(&done);
    let h1 = std::thread::spawn(move || {
        let t = s1.spawn_thread();
        let guard = t.enter(&la, CodeSite(0xa));
        t.write(&target, 0, CodeSite(0xa1));
        flag.store(true, Ordering::Release);
        // Hold the section (and the key) until the reader has raced.
        while !done1.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        drop(guard);
    });

    let s2 = Arc::clone(&session);
    let lb = Arc::clone(&lock_b);
    let h2 = std::thread::spawn(move || {
        let t = s2.spawn_thread();
        while !t1_in_section.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let guard = t.enter(&lb, CodeSite(0xb));
        t.read(&target, 0, CodeSite(0xb1));
        drop(guard);
        done.store(true, Ordering::Release);
    });

    h2.join().unwrap();
    h1.join().unwrap();
    assert_eq!(
        session.kard().reports().len(),
        1,
        "the overlapping ILU access must be reported"
    );
}

#[test]
fn concurrent_allocation_churn_is_safe() {
    let session = Arc::new(Session::new());
    let mut handles = Vec::new();
    for _ in 0..4 {
        let session = Arc::clone(&session);
        handles.push(std::thread::spawn(move || {
            let t = session.spawn_thread();
            for i in 0..200u64 {
                let o = t.alloc(16 + (i % 5) * 32);
                t.write(&o, 0, CodeSite(0x1));
                t.free(o.id);
            }
        }));
    }
    for h in handles {
        h.join().expect("allocator is thread-safe");
    }
    assert_eq!(session.alloc().stats().live_objects, 0);
    assert_eq!(session.alloc().stats().allocations, 800);
}

#[test]
fn crossbeam_scoped_workers_with_distinct_locks() {
    // Distinct locks, each at its own call site, guarding distinct
    // objects: correct and silent however the OS overlaps the workers.
    let session = Session::new();
    let mutexes: Vec<_> = (0..4).map(|_| session.new_mutex()).collect();
    let setup = session.spawn_thread();
    let objects: Vec<_> = (0..4).map(|_| setup.alloc(32)).collect();

    std::thread::scope(|scope| {
        for (k, (mutex, object)) in mutexes.iter().zip(&objects).enumerate() {
            let t = session.spawn_thread();
            scope.spawn(move || {
                for _ in 0..50 {
                    let _g = t.enter(mutex, CodeSite(0x10 + k as u64));
                    t.write(object, 0, CodeSite(0x20));
                }
            });
        }
    });
    assert!(session.kard().reports().is_empty());
}

/// The four workers above as thread programs: worker `k` runs 50
/// one-write sections on object `k` under lock `k`, entered at
/// `site_of(k)`.
fn four_locked_writers(site_of: impl Fn(u64) -> CodeSite) -> PhasedProgram {
    let mut init = ThreadProgram::new();
    for k in 0..4 {
        init.alloc(ObjectTag(k), 32);
    }
    let threads = (0..4)
        .map(|k| {
            let mut worker = ThreadProgram::new();
            for _ in 0..50 {
                worker.lock(LockId(k + 1), site_of(k));
                worker.write(ObjectTag(k), 0, CodeSite(0x20));
                worker.unlock(LockId(k + 1));
            }
            worker
        })
        .collect();
    PhasedProgram { init, threads }
}

fn replayed_fingerprints(trace: &Trace) -> Vec<RaceFingerprint> {
    let session = Session::new();
    let mut exec = KardExecutor::new(session.kard().clone());
    replay(trace, &mut exec);
    exec.reports().iter().map(RaceRecord::fingerprint).collect()
}

/// What the same four workers cost when all four locks are taken at
/// **one** call site, pinned on deterministic schedules because on real
/// threads it shows only when the OS happens to overlap the workers.
///
/// This is the paper's pigz false-positive class, not a detector bug:
/// by §5.4 rule 1 one call site is one critical section and a section's
/// objects share one key, so whichever worker is inside `s@0x10` holds
/// the key of all four objects, and another worker writing *its own*
/// object under *its own* lock faults against that holder.
#[test]
fn four_locks_at_one_call_site_share_a_key_and_report() {
    let shared = four_locked_writers(|_| CodeSite(0x10));
    let section = Some(SectionId(CodeSite(0x10)));
    let expected: Vec<_> = (1..4)
        .map(|k| RaceFingerprint {
            object: ObjectId(k),
            faulting_section: section,
            holding_section: section,
            offset: Some(0),
            access: AccessKind::Write,
        })
        .collect();
    // Round-robin: worker 0 enters first and takes the section's key;
    // workers 1, 2 and 3 each fault once on their own object.
    assert_eq!(replayed_fingerprints(&shared.trace_round_robin()), expected);
    for seed in 0..32 {
        assert!(
            !replayed_fingerprints(&shared.trace_seeded(seed)).is_empty(),
            "seed {seed}: overlapping entries of one section must conflict"
        );
    }

    // Control: the only change is one site per lock, and every schedule
    // is silent — the real-thread test above in deterministic form.
    let distinct = four_locked_writers(|k| CodeSite(0x10 + k));
    assert!(replayed_fingerprints(&distinct.trace_round_robin()).is_empty());
    for seed in 0..32 {
        assert!(replayed_fingerprints(&distinct.trace_seeded(seed)).is_empty(), "seed {seed}");
    }
}
