//! Stress tests on real OS threads: the detector's own thread safety.
//!
//! Determinism tests drive everything from one thread; these tests instead
//! hammer one `Session` from several OS threads to check that the runtime
//! (machine + allocator + detector) is sound under real concurrency — no
//! deadlocks, no panics, no reports for disciplined programs, and at least
//! one report when a genuine ILU overlap is forced.

use kard::{CodeSite, Session};
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
    // Distinct locks guarding distinct objects: correct and silent.
    let session = Session::new();
    let mutexes: Vec<_> = (0..4).map(|_| session.new_mutex()).collect();
    let setup = session.spawn_thread();
    let objects: Vec<_> = (0..4).map(|_| setup.alloc(32)).collect();

    crossbeam::scope(|scope| {
        for (mutex, object) in mutexes.iter().zip(&objects) {
            let t = session.spawn_thread();
            scope.spawn(move |_| {
                for _ in 0..50 {
                    let _g = t.enter(mutex, CodeSite(0x10));
                    t.write(object, 0, CodeSite(0x11));
                }
            });
        }
    })
    .expect("scoped threads join cleanly");
    assert!(session.kard().reports().is_empty());
}
