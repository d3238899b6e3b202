//! A section's plan under fire from another OS thread.
//!
//! A section's entry plan lives with the section, in one word that the
//! mutations reaching the section patch or mark stale (`detector/plan.rs`
//! in kard-core). Here one thread enters section *s* in a loop while a
//! second identifies objects into *s* by read (patches racing the first
//! thread's plan loads), migrates one of them to Read-write (a stale mark;
//! the first thread's next entry rebuilds and from then on acquires that
//! object's key with one CAS), waits for two such entries, and frees them
//! all (a stale mark racing that CAS and its re-validation, then patches). The program is race-free — the two
//! threads share *s*'s real mutex whenever the second writes — so the
//! detector must report nothing, every eligible entry must be counted
//! exactly once as a hit or a miss, and no pool key's holder word may be
//! left behind.

use kard::core::Domain;
use kard::sim::CodeSite;
use kard::{LockId, Session};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

const ROUNDS: u64 = 300;
const S: CodeSite = CodeSite(0x5EC);

#[test]
fn entries_race_identification_migration_and_frees() {
    let session = Session::new();
    let kard = session.kard();
    let (a, b) = (kard.register_thread(), kard.register_thread());
    let stable: Vec<_> = (0..4).map(|_| kard.on_alloc(a, 64)).collect();
    // `s`'s own lock, and a second one the identifying reads hold: reads
    // under different locks are no race, so those entries truly overlap.
    let (lock, reader_lock) = (LockId(1), LockId(2));
    let mutex = Mutex::new(());
    let (start, done) = (Barrier::new(2), AtomicBool::new(false));
    // Entries the first thread has completed, so the second can wait for
    // it to re-plan and hold the migrated object's key before freeing.
    let entered = AtomicU64::new(0);

    let (entries_a, entries_b) = std::thread::scope(|scope| {
        let enterer = scope.spawn(|| {
            start.wait();
            let mut entries = 0u64;
            while !done.load(Ordering::Acquire) || entries < ROUNDS {
                let _held = mutex.lock().expect("no thread panics holding it");
                kard.lock_enter(a, lock, S);
                kard.read(a, stable[entries as usize % 4].base, S);
                kard.lock_exit(a, lock);
                entries += 1;
                entered.store(entries, Ordering::Release);
            }
            entries
        });
        let mutator = scope.spawn(|| {
            start.wait();
            for _ in 0..ROUNDS {
                let objs: Vec<_> = (0..6).map(|_| kard.on_alloc(b, 64)).collect();
                kard.lock_enter(b, reader_lock, S);
                for o in &objs[..5] {
                    kard.read(b, o.base, S);
                }
                kard.lock_exit(b, reader_lock);
                {
                    let _held = mutex.lock().expect("no thread panics holding it");
                    kard.lock_enter(b, lock, S);
                    kard.write(b, objs[5].base, S);
                    kard.lock_exit(b, lock);
                }
                let seen = entered.load(Ordering::Acquire);
                while entered.load(Ordering::Acquire) < seen + 2 {
                    std::thread::yield_now();
                }
                for o in &objs {
                    kard.on_free(b, o.id);
                }
            }
            done.store(true, Ordering::Release);
            2 * ROUNDS
        });
        (
            enterer.join().expect("the entering thread panicked"),
            mutator.join().expect("the mutating thread panicked"),
        )
    });

    assert_eq!(kard.reports(), vec![], "a race-free program");
    let (hits, misses) = kard.section_cache_stats();
    assert_eq!(
        hits + misses,
        entries_a + entries_b,
        "every entry was eligible, and is a hit or a miss exactly once"
    );
    assert!(hits > 0, "patched plans stay valid: {hits} hits, {misses} misses");
    let left: Vec<_> = kard.section_objects(kard::SectionId(S));
    assert_eq!(left.len(), stable.len(), "only the stable objects remain in s");

    // Every holder word is EMPTY: a hit on a plan with a target is one
    // successful EMPTY → held CAS, so a fresh thread that warms one
    // section per pool key must then hit on every one of them.
    let c = kard.register_thread();
    let pool = session.machine().key_layout().read_write_pool_len();
    let probes: Vec<_> = (0..pool as u64)
        .map(|k| (kard.on_alloc(c, 64), LockId(100 + k), CodeSite(0x7000 + k)))
        .collect();
    let round = |(obj, lock, site): &(kard::ObjectInfo, LockId, CodeSite)| {
        kard.lock_enter(c, *lock, *site);
        kard.write(c, obj.base, *site);
        kard.lock_exit(c, *lock);
    };
    for _ in 0..2 {
        probes.iter().for_each(round); // identify, then re-plan
    }
    let keys: HashSet<_> = probes
        .iter()
        .map(|(obj, ..)| match kard.domain_of(obj.id) {
            Some(Domain::ReadWrite(key)) => key,
            other => panic!("a written object is Read-write, not {other:?}"),
        })
        .collect();
    assert_eq!(keys.len(), pool, "one probe per pool key");
    let (hits_before, misses_before) = kard.section_cache_stats();
    probes.iter().for_each(round);
    assert_eq!(
        kard.section_cache_stats(),
        (hits_before + pool as u64, misses_before),
        "a key whose holder word was left held could not be fast-acquired"
    );
}
