//! Stress the sharded detector from real OS threads: concurrent section
//! entry/exit, allocation/free churn, and deterministic cross-lock
//! conflicts must (a) never deadlock and (b) produce exactly the race
//! reports a single-threaded execution of the same logical program
//! produces.
//!
//! The determinism argument: each conflicting pair uses its own object and
//! its own two locks, pair members are sequenced by barriers so the
//! faulting write always happens while the holder is inside its section,
//! and pair objects are allocated up front on the main thread so their
//! [`ObjectId`]s — which participate in race fingerprints — are identical
//! across runs. The surrounding churn (private allocations, empty
//! sections, unlocked accesses) consumes no keys and reports nothing.

use std::sync::{Arc, Barrier};

use kard::core::report::RaceFingerprint;
use kard::{Kard, KardConfig, LockId};
use kard::alloc::KardAlloc;
use kard::sim::{CodeSite, Machine, MachineConfig};

const PAIRS: usize = 4;

fn fresh_kard() -> Arc<Kard> {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
    Arc::new(Kard::new(machine, alloc, KardConfig::default()))
}

fn holder_site(pair: usize) -> CodeSite {
    CodeSite(0x1000 + pair as u64)
}

fn faulter_site(pair: usize) -> CodeSite {
    CodeSite(0x2000 + pair as u64)
}

fn fingerprints(kard: &Kard) -> Vec<RaceFingerprint> {
    let mut fps: Vec<_> = kard.reports().iter().map(|r| r.fingerprint()).collect();
    fps.sort_by_key(|fp| format!("{fp:?}"));
    fps
}

/// The single-threaded reference: the same logical program, executed
/// sequentially in pair order.
fn reference_fingerprints() -> Vec<RaceFingerprint> {
    let kard = fresh_kard();
    let threads: Vec<_> = (0..2 * PAIRS).map(|_| kard.register_thread()).collect();
    let objects: Vec<_> = (0..PAIRS).map(|_| kard.on_alloc(threads[0], 64)).collect();
    for pair in 0..PAIRS {
        let (holder, faulter) = (threads[2 * pair], threads[2 * pair + 1]);
        let obj = &objects[pair];
        kard.lock_enter(holder, LockId(2 * pair as u64), holder_site(pair));
        kard.write(holder, obj.base, holder_site(pair));
        kard.lock_enter(faulter, LockId(2 * pair as u64 + 1), faulter_site(pair));
        kard.write(faulter, obj.base, faulter_site(pair));
        kard.lock_exit(faulter, LockId(2 * pair as u64 + 1));
        kard.lock_exit(holder, LockId(2 * pair as u64));
    }
    fingerprints(&kard)
}

const STORM_THREADS: usize = 8;
const STORM_ITERS: u64 = 64;

/// One storm round: a fresh private object written inside a critical
/// section on a private lock, then freed. The first write is always an
/// identification fault (the object is new), and no thread ever touches
/// another thread's object or lock, so the program is race-free while
/// every round exercises the full fault path.
fn storm_round(kard: &Kard, t: kard::ThreadId, lock: LockId, site: CodeSite) {
    let obj = kard.on_alloc(t, 64);
    kard.lock_enter(t, lock, site);
    kard.write(t, obj.base, site);
    kard.read(t, obj.base.offset(8), site);
    kard.lock_exit(t, lock);
    kard.on_free(t, obj.id);
}

fn storm_fingerprints(kard: &Arc<Kard>, concurrent: bool) -> (Vec<RaceFingerprint>, u64) {
    let threads: Vec<_> = (0..STORM_THREADS).map(|_| kard.register_thread()).collect();
    let run = |k: usize| {
        let t = threads[k];
        let (lock, site) = (LockId(100 + k as u64), CodeSite(0x3000 + k as u64));
        for _ in 0..STORM_ITERS {
            storm_round(kard, t, lock, site);
        }
    };
    if concurrent {
        std::thread::scope(|s| {
            for k in 0..STORM_THREADS {
                let run = &run;
                s.spawn(move || run(k));
            }
        });
    } else {
        (0..STORM_THREADS).for_each(run);
    }
    (fingerprints(kard), kard.stats().identification_faults)
}

/// The sharded fault path's equivalence proof: a fault storm from eight
/// real OS threads on eight independent objects — every section entry
/// faults, and with distinct object ids the handlers run on distinct
/// shards in parallel — must report exactly what the same logical program
/// reports when executed single-threaded: nothing, after the same number
/// of identification faults.
#[test]
fn independent_object_fault_storm_matches_single_threaded_run() {
    let concurrent = fresh_kard();
    let (got_fps, got_faults) = storm_fingerprints(&concurrent, true);

    let reference = fresh_kard();
    let (ref_fps, ref_faults) = storm_fingerprints(&reference, false);

    assert_eq!(got_fps, ref_fps, "sharded concurrent == single-threaded");
    assert!(got_fps.is_empty(), "the storm program is race-free");
    assert_eq!(got_faults, ref_faults, "every section entry faults identically");
    assert!(
        got_faults >= (STORM_THREADS as u64) * STORM_ITERS,
        "at least one identification fault per section entry"
    );
    // The sharded run really used more than one shard.
    let per = concurrent.fault_shard_acquisitions();
    assert!(per.iter().filter(|&&c| c > 0).count() >= STORM_THREADS.min(16) / 2);
}

#[test]
fn concurrent_hammering_matches_single_threaded_reports() {
    let kard = fresh_kard();
    // Register threads and allocate the conflict objects on the main
    // thread, in a fixed order, so ids match the reference run.
    let threads: Vec<_> = (0..2 * PAIRS).map(|_| kard.register_thread()).collect();
    let objects: Vec<_> = (0..PAIRS).map(|_| kard.on_alloc(threads[0], 64)).collect();

    // Two barriers per pair: [0] holder-wrote → faulter may run;
    // [1] faulter exited → holder may exit.
    let barriers: Vec<_> = (0..PAIRS)
        .map(|_| (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2))))
        .collect();

    std::thread::scope(|s| {
        for pair in 0..PAIRS {
            for role in 0..2 {
                let kard = Arc::clone(&kard);
                let t = threads[2 * pair + role];
                let obj = objects[pair];
                let (wrote, done) = (
                    Arc::clone(&barriers[pair].0),
                    Arc::clone(&barriers[pair].1),
                );
                s.spawn(move || {
                    // Churn: private allocations, unlocked accesses, and
                    // empty critical sections on a thread-private lock.
                    // None of this consumes pool keys or produces reports,
                    // but it exercises every shard class concurrently.
                    let churn_lock = LockId(1000 + t.0 as u64);
                    let churn_site = CodeSite(0x9000 + t.0 as u64);
                    let churn = || {
                        for i in 0..8u64 {
                            let o = kard.on_alloc(t, 24 + (i % 3) * 32);
                            kard.write(t, o.base, churn_site);
                            kard.read(t, o.base.offset(8), churn_site);
                            kard.lock_enter(t, churn_lock, churn_site);
                            kard.lock_exit(t, churn_lock);
                            kard.on_free(t, o.id);
                        }
                    };
                    churn();
                    if role == 0 {
                        // Holder: write the pair object under lock 2p and
                        // stay in the section until the faulter is done.
                        kard.lock_enter(t, LockId(2 * pair as u64), holder_site(pair));
                        kard.write(t, obj.base, holder_site(pair));
                        wrote.wait();
                        done.wait();
                        kard.lock_exit(t, LockId(2 * pair as u64));
                    } else {
                        // Faulter: write the same object under a different
                        // lock while the holder still holds its key — a
                        // deterministic inconsistent-lock-usage conflict.
                        wrote.wait();
                        kard.lock_enter(t, LockId(2 * pair as u64 + 1), faulter_site(pair));
                        kard.write(t, obj.base, faulter_site(pair));
                        kard.lock_exit(t, LockId(2 * pair as u64 + 1));
                        done.wait();
                    }
                    churn();
                });
            }
        }
    });

    let got = fingerprints(&kard);
    assert_eq!(got.len(), PAIRS, "exactly one report per conflicting pair");
    assert_eq!(
        got,
        reference_fingerprints(),
        "concurrent execution must report exactly the single-threaded races"
    );
    // The churn left nothing behind: every churn object was freed.
    assert_eq!(kard.alloc().stats().live_objects as usize, PAIRS);
}

/// One thread's private half of the mixed storm: section rounds on a
/// thread-private lock and object. Race-free, but every round exercises
/// allocation, identification faults, and plan (in)validation.
fn private_churn(kard: &Kard, t: kard::ThreadId) {
    let lock = LockId(500 + t.0 as u64);
    let site = CodeSite(0x5000 + t.0 as u64);
    for _ in 0..16 {
        storm_round(kard, t, lock, site);
    }
}

/// The deterministic shared half: pair `p`'s holder writes the pair
/// object under lock `2p`, the faulter writes it under lock `2p + 1`
/// while the holder is still inside — an inconsistent-lock-usage race.
/// `sync` sequences the two threads when they really run concurrently.
fn pair_conflict(
    kard: &Kard,
    t: kard::ThreadId,
    pair: usize,
    role: usize,
    obj: &kard::alloc::ObjectInfo,
    sync: Option<&(Arc<Barrier>, Arc<Barrier>)>,
) {
    if role == 0 {
        kard.lock_enter(t, LockId(2 * pair as u64), holder_site(pair));
        kard.write(t, obj.base, holder_site(pair));
        if let Some((wrote, done)) = sync {
            wrote.wait();
            done.wait();
        }
        kard.lock_exit(t, LockId(2 * pair as u64));
    } else {
        if let Some((wrote, _)) = sync {
            wrote.wait();
        }
        kard.lock_enter(t, LockId(2 * pair as u64 + 1), faulter_site(pair));
        kard.write(t, obj.base, faulter_site(pair));
        kard.lock_exit(t, LockId(2 * pair as u64 + 1));
        if let Some((_, done)) = sync {
            done.wait();
        }
    }
}

/// Run the mixed private/shared storm on `kard`; returns the sorted race
/// fingerprints and the detector stats with the only legitimately
/// schedule-dependent counter (`max_concurrent_sections`) scrubbed.
fn mixed_storm(
    kard: &Arc<Kard>,
    concurrent: bool,
) -> (Vec<RaceFingerprint>, kard::core::DetectorStats) {
    let threads: Vec<_> = (0..STORM_THREADS).map(|_| kard.register_thread()).collect();
    // Conflict objects come from the main thread, in a fixed order, so
    // their ids — which feed the fingerprints — match across modes.
    let objects: Vec<_> = (0..PAIRS).map(|_| kard.on_alloc(threads[0], 64)).collect();

    if concurrent {
        let barriers: Vec<_> = (0..PAIRS)
            .map(|_| (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2))))
            .collect();
        std::thread::scope(|s| {
            for (k, &t) in threads.iter().enumerate() {
                let kard = Arc::clone(kard);
                let (pair, role) = (k / 2, k % 2);
                let obj = objects.get(pair).copied();
                let sync = (pair < PAIRS).then(|| {
                    (Arc::clone(&barriers[pair].0), Arc::clone(&barriers[pair].1))
                });
                s.spawn(move || {
                    private_churn(&kard, t);
                    if let Some(obj) = obj.filter(|_| k < 2 * PAIRS) {
                        pair_conflict(&kard, t, pair, role, &obj, sync.as_ref());
                    }
                    private_churn(&kard, t);
                });
            }
        });
    } else {
        // The same logical program, hand-scheduled on one OS thread: all
        // leading churn, the pair conflicts in the order the barriers
        // force, then all trailing churn.
        for &t in &threads {
            private_churn(kard, t);
        }
        for pair in 0..PAIRS {
            let (holder, faulter) = (threads[2 * pair], threads[2 * pair + 1]);
            let obj = &objects[pair];
            kard.lock_enter(holder, LockId(2 * pair as u64), holder_site(pair));
            kard.write(holder, obj.base, holder_site(pair));
            pair_conflict(kard, faulter, pair, 1, obj, None);
            kard.lock_exit(holder, LockId(2 * pair as u64));
        }
        for &t in &threads {
            private_churn(kard, t);
        }
    }

    let mut stats = kard.stats();
    stats.max_concurrent_sections = 0;
    (fingerprints(kard), stats)
}

/// Real concurrency changes no report: the same mixed private/shared
/// storm must produce byte-identical race fingerprints and detector stats
/// whether its sections race through the epoch-validated fast path and
/// its locked fallback from eight OS threads, or run single-threaded in a
/// hand-scheduled order.
#[test]
fn storm_on_eight_os_threads_matches_hand_scheduled_sequential_run() {
    let concurrent = fresh_kard();
    let (conc_fps, conc_stats) = mixed_storm(&concurrent, true);

    let sequential = fresh_kard();
    let (seq_fps, seq_stats) = mixed_storm(&sequential, false);

    assert_eq!(conc_fps.len(), PAIRS, "one report per conflicting pair");
    assert_eq!(conc_fps, seq_fps, "eight OS threads == sequential reference");
    assert_eq!(conc_stats, seq_stats, "stats: eight OS threads == sequential");
    assert!(
        conc_stats.identification_faults >= (STORM_THREADS as u64) * 32 + PAIRS as u64,
        "every churn round and every holder write must have identified an object"
    );
}
