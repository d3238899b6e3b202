//! Long mixed-behaviour stress run: many threads, objects, locks, rwlocks,
//! churn, nesting, and deliberate races, all on real OS threads. The
//! assertions are about soundness of the runtime itself — no panics or
//! deadlocks, coherent statistics, and detection of the seeded race — not
//! about exact report counts, which are schedule-dependent here.

use kard::rt::{KardRwLock, SharedArray};
use kard::{CodeSite, Session};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn chaos_run_is_sound() {
    let session = Arc::new(Session::new());
    let mutexes: Vec<_> = (0..6).map(|_| Arc::new(session.new_mutex())).collect();
    let rwlock = Arc::new(KardRwLock::new(kard::LockId(500)));

    let setup = session.spawn_thread();
    let shared: Vec<_> = (0..12).map(|_| setup.alloc(128)).collect();
    let stats: SharedArray<u64> = SharedArray::global(&setup, 8);
    let races_seen = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for worker in 0..6usize {
        let session = Arc::clone(&session);
        let mutexes: Vec<_> = mutexes.iter().map(Arc::clone).collect();
        let rwlock = Arc::clone(&rwlock);
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            let t = session.spawn_thread();
            let mut privates = Vec::new();
            for round in 0..120u64 {
                let pick = (round as usize + worker) % mutexes.len();
                match round % 5 {
                    // Nested mutex sections over consistent objects. The
                    // pair is taken in index order: all six workers reach
                    // this arm on the same rounds with six distinct picks,
                    // and pick-then-next would be a cycle that deadlocks
                    // the program itself.
                    0 => {
                        let next = (pick + 1) % mutexes.len();
                        let (outer, inner) = (pick.min(next), pick.max(next));
                        let g1 = t.enter(&mutexes[outer], CodeSite(0x1000 + outer as u64));
                        t.write(&shared[outer], 0, CodeSite(0x2000));
                        let g2 = t.enter(&mutexes[inner], CodeSite(0x1000 + inner as u64));
                        t.write(&shared[inner], 0, CodeSite(0x2001));
                        drop(g2);
                        drop(g1);
                    }
                    // Read-locked sections.
                    1 => {
                        let g = t.enter_read(&rwlock, CodeSite(0x3000));
                        t.read(&shared[6 + worker % 6], 0, CodeSite(0x3001));
                        drop(g);
                    }
                    // Write-locked sections on the same rwlock.
                    2 => {
                        let g = t.enter_write(&rwlock, CodeSite(0x3100));
                        t.write(&shared[6 + worker % 6], 0, CodeSite(0x3101));
                        drop(g);
                    }
                    // Allocation churn.
                    3 => {
                        let o = t.alloc(32 + (round % 7) * 16);
                        t.write(&o, 0, CodeSite(0x4000));
                        privates.push(o);
                        if privates.len() > 4 {
                            let victim = privates.remove(0);
                            t.free(victim.id);
                        }
                    }
                    // The seeded ILU race: everyone hammers stats[0] under
                    // different locks.
                    _ => {
                        let lock = &mutexes[worker % mutexes.len()];
                        let g = t.enter(lock, CodeSite(0x5000 + (worker % 6) as u64));
                        // Typed element write at a stable offset.
                        t.write(stats.info(), 0, CodeSite(0x5001));
                        // Hold the section across a reschedule so another
                        // worker's conflicting write overlaps even on a
                        // single-CPU host.
                        std::thread::yield_now();
                        t.write(stats.info(), 0, CodeSite(0x5002));
                        drop(g);
                    }
                }
            }
            for o in privates {
                t.free(o.id);
            }
        }));
    }
    for h in handles {
        h.join().expect("no worker may panic or deadlock");
    }

    let stats_snapshot = session.kard().stats();
    let reports = session.kard().reports();
    races_seen.store(reports.len() as u64, Ordering::Relaxed);

    // Soundness checks.
    // Per worker: 24 nested rounds (2 entries), 24 read-locked, 24
    // write-locked, 24 lock-free churn rounds (0), 24 race rounds (1).
    assert_eq!(
        stats_snapshot.cs_entries,
        6 * (24 * 2 + 24 + 24 + 24),
        "entry accounting"
    );
    assert!(
        stats_snapshot.objects_identified > 0,
        "plenty of shared objects identified"
    );
    assert!(
        reports
            .iter()
            .all(|r| r.faulting.thread != r.holding.thread),
        "no self-races: {reports:#?}"
    );
    // The seeded stats[0] race uses six different locks; with 6 real
    // threads overlapping 24 times each, at least one overlap must
    // manifest.
    assert!(
        reports.iter().any(|r| r.object == stats.info().id),
        "the seeded ILU race on stats[0] must surface: {reports:#?}"
    );
    // Machine counters stay internally consistent.
    let counters = session.machine().counters();
    assert!(counters.faults >= stats_snapshot.identification_faults);
    assert_eq!(
        session.alloc().stats().live_objects,
        12 + 1,
        "12 shared objects + the stats global remain live (churn freed)"
    );
}
