//! §7.2 claim check: "We decided to omit benchmarks that do not use locks
//! because they have no overhead under Kard." A lock-free workload driven
//! through the full detector must add essentially nothing over the Alloc
//! configuration: no faults, no key traffic, no WRPKRU beyond thread
//! registration.

use kard::rt::KardExecutor;
use kard::workloads::native::AllocOnlyExecutor;
use kard::{CodeSite, Session};
use kard_trace::replay::replay;
use kard_trace::{ObjectTag, PhasedProgram, ThreadProgram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations made while the current thread has opted in.
/// Used to prove the disabled-telemetry access path never allocates.
struct CountingAlloc;

static SCOPED_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNT_ALLOCS: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.with(Cell::get) {
            SCOPED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn lock_free_program(threads: usize, iters: u64) -> PhasedProgram {
    let mut init = ThreadProgram::new();
    for o in 0..16 {
        init.alloc(ObjectTag(o), 256);
    }
    let thread_programs = (0..threads)
        .map(|k| {
            let mut p = ThreadProgram::new();
            for i in 0..iters {
                // Each thread works on its own objects, no locks anywhere.
                let o = ObjectTag((k as u64 * 4 + i % 4) % 16);
                p.write(o, (i % 8) * 8, CodeSite(0x100 + k as u64));
                p.read(o, (i % 8) * 8, CodeSite(0x200 + k as u64));
                p.compute(500);
            }
            p
        })
        .collect();
    PhasedProgram {
        init,
        threads: thread_programs,
    }
}

#[test]
fn lock_free_workload_has_no_detection_overhead() {
    let program = lock_free_program(4, 200);
    let trace = program.trace_seeded(3);

    let session = Session::new();
    let mut kard = KardExecutor::new(session.kard().clone());
    replay(&trace, &mut kard);

    let mut alloc_only = AllocOnlyExecutor::new();
    replay(&trace, &mut alloc_only);

    let kard_counters = session.machine().counters();
    assert_eq!(kard_counters.faults, 0, "k_na is held outside sections");
    assert_eq!(session.kard().stats().cs_entries, 0);
    assert!(kard.reports().is_empty());

    // Kard's only additions over Alloc: one WRPKRU per registered thread
    // (the baseline PKRU policy) and the k_na tagging, which the magazine
    // allocator folds into one batched pkey_mprotect per slab refill —
    // strictly fewer syscalls than one per allocation, and still fixed,
    // not per-operation.
    assert_eq!(kard_counters.wrpkru as usize, trace.thread_count());
    assert_eq!(
        kard_counters.pkey_mprotect,
        session.alloc().stats().slab_refills,
        "k_na tagging is one batched mprotect per slab refill"
    );
    assert!(
        kard_counters.pkey_mprotect < 16,
        "batched provisioning must tag 16 objects in fewer than 16 syscalls"
    );

    let kard_cycles = session.machine().now();
    let alloc_cycles = alloc_only.machine().now();
    let overhead = (kard_cycles as f64 - alloc_cycles as f64) / alloc_cycles as f64;
    assert!(
        overhead.abs() < 0.05,
        "no per-operation cost without locks: {:.2}% over Alloc",
        overhead * 100.0
    );
}

/// The sharded detector's structural guarantee, checked directly: a
/// fault-free access takes **zero** detector-internal locks. Every lock
/// inside [`kard_core::Kard`] counts its acquisitions; the counter must
/// not move across a batch of plain reads and writes.
#[test]
fn fault_free_accesses_take_no_detector_locks() {
    let program = lock_free_program(4, 50);
    let trace = program.trace_seeded(7);
    let session = Session::new();
    let mut kard = KardExecutor::new(session.kard().clone());
    replay(&trace, &mut kard);

    // Setup (registration, allocation, domain tagging) may lock; steady
    // state must not. Re-drive the per-thread access pattern directly.
    let objects = session.alloc().live_objects();
    let t = session.kard().register_thread();
    let before = session.kard().detector_lock_acquisitions();
    for i in 0..1000u64 {
        let o = &objects[(i % 16) as usize];
        session.kard().write(t, o.base.offset((i % 8) * 8), CodeSite(0x900));
        session.kard().read(t, o.base.offset((i % 8) * 8), CodeSite(0x901));
    }
    let after = session.kard().detector_lock_acquisitions();
    assert_eq!(session.machine().counters().faults, 0, "accesses stay fault-free");
    assert_eq!(
        after - before,
        0,
        "a fault-free access must acquire zero detector locks"
    );
}

/// The telemetry subsystem's "disabled = one relaxed load" contract: with
/// tracing off, a batch of fault-free accesses writes nothing into any
/// event ring and performs **zero** heap allocations.
#[test]
fn disabled_telemetry_adds_no_ring_writes_or_allocations() {
    let program = lock_free_program(4, 50);
    let trace = program.trace_seeded(11);
    let session = Session::new();
    let mut kard = KardExecutor::new(session.kard().clone());
    replay(&trace, &mut kard);
    assert!(!session.telemetry().enabled(), "tracing is off by default");

    let objects = session.alloc().live_objects();
    let t = session.kard().register_thread();
    // One warm-up pass so any lazy per-thread state exists before counting.
    for (i, o) in objects.iter().enumerate() {
        session.kard().write(t, o.base, CodeSite(0x900 + i as u64 % 2));
    }

    let allocs_before = SCOPED_ALLOCS.load(Ordering::Relaxed);
    COUNT_ALLOCS.with(|f| f.set(true));
    for i in 0..1000u64 {
        let o = &objects[(i % 16) as usize];
        session.kard().write(t, o.base.offset((i % 8) * 8), CodeSite(0x900));
        session.kard().read(t, o.base.offset((i % 8) * 8), CodeSite(0x901));
    }
    COUNT_ALLOCS.with(|f| f.set(false));
    let allocs = SCOPED_ALLOCS.load(Ordering::Relaxed) - allocs_before;

    assert_eq!(allocs, 0, "fault-free accesses must not allocate");
    assert_eq!(
        session.telemetry().events_recorded(),
        0,
        "no ring writes while telemetry is disabled"
    );
}

/// Telemetry enabled must not reintroduce detector locks: recording is
/// per-thread relaxed atomics only, and draining takes telemetry locks,
/// never detector locks.
#[test]
fn enabled_telemetry_keeps_fault_free_path_lock_free() {
    let program = lock_free_program(4, 50);
    let trace = program.trace_seeded(13);
    let session = Session::new();
    session.enable_telemetry(true);
    let mut kard = KardExecutor::new(session.kard().clone());
    replay(&trace, &mut kard);

    let objects = session.alloc().live_objects();
    let t = session.kard().register_thread();
    let before = session.kard().detector_lock_acquisitions();
    for i in 0..1000u64 {
        let o = &objects[(i % 16) as usize];
        session.kard().write(t, o.base.offset((i % 8) * 8), CodeSite(0x900));
        session.kard().read(t, o.base.offset((i % 8) * 8), CodeSite(0x901));
    }
    let after = session.kard().detector_lock_acquisitions();
    assert_eq!(after - before, 0, "recording must not take detector locks");

    let drained = session.drain();
    assert_eq!(drained.dropped, 0);
    assert_eq!(
        session.kard().detector_lock_acquisitions(),
        after,
        "the collector may take only telemetry locks"
    );
}

/// The allocator's structural guarantee, checked through the full
/// detector API: steady-state owning-thread allocation and free run
/// entirely inside the thread's magazine — **zero** acquisitions of any
/// allocator `TrackedMutex`/`TrackedRwLock`. (Warm-up may lock: the
/// magazine grows its adaptive batch and raw cache first.)
#[test]
fn owning_thread_alloc_free_takes_no_allocator_locks() {
    let session = Session::new();
    let kard = session.kard().clone();
    let t = kard.register_thread();

    // Warm up to steady state: grow the refill batch to its maximum and
    // fill the raw slot cache, then churn a resident working set.
    let mut live: Vec<_> = (0..256).map(|_| kard.on_alloc(t, 64).id).collect();
    for _ in 0..256 {
        kard.on_free(t, live.pop().unwrap());
        live.push(kard.on_alloc(t, 64).id);
    }

    let before = session.alloc().alloc_lock_acquisitions();
    for _ in 0..1000 {
        kard.on_free(t, live.pop().unwrap());
        live.push(kard.on_alloc(t, 64).id);
    }
    assert_eq!(
        session.alloc().alloc_lock_acquisitions() - before,
        0,
        "steady-state owning-thread alloc/free must take zero shared allocator locks"
    );
}

/// The same guarantee for *every* thread a detector can register, not
/// only its first: each of 600 threads on one telemetry-on detector runs
/// an identical short life (8 allocations, one section writing them, 8
/// frees, exit), and a late thread's bill — magazine refills, allocator
/// locks, `mmap`s, events recorded — must equal thread 1's, with nothing
/// dropped. Per-thread tables narrower than the thread registry used to
/// push thread 512 onwards onto the sharded path (64 locks and 8 `mmap`s
/// a round) and out of telemetry (every event dropped) without a word.
#[test]
fn a_late_threads_round_costs_what_an_early_threads_does() {
    let session = Session::builder().telemetry(true).build();
    let kard = session.kard();
    let (lock, site) = (kard::LockId(3), CodeSite(0xB00));

    // (slab refills, allocator locks, mmaps, events drained) of one round.
    let round = || {
        let t = kard.register_thread();
        let before = (
            session.alloc().stats().slab_refills,
            session.alloc().alloc_lock_acquisitions(),
            session.machine().counters().mmap,
        );
        let objs: Vec<_> = (0..8).map(|_| kard.on_alloc(t, 64)).collect();
        kard.lock_enter(t, lock, site);
        for o in &objs {
            kard.write(t, o.base, site);
        }
        kard.lock_exit(t, lock);
        for o in &objs {
            kard.on_free(t, o.id);
        }
        kard.on_thread_exit(t);
        let drained = session.drain();
        assert_eq!(drained.dropped, 0, "thread {t} lost events");
        (
            session.alloc().stats().slab_refills - before.0,
            session.alloc().alloc_lock_acquisitions() - before.1,
            session.machine().counters().mmap - before.2,
            drained.events.len(),
        )
    };

    let bills: Vec<_> = (0..600).map(|_| round()).collect();
    assert_eq!(bills[1].0, 2, "a round refills the 64 B class twice: {:?}", bills[1]);
    // Thread 0 also pays for the allocator's first frame; every later
    // thread — 511, 512 and 599 among them — pays exactly thread 1's bill.
    for (late, bill) in bills.iter().enumerate().skip(2) {
        assert_eq!(*bill, bills[1], "thread {late} against thread 1");
    }
}

/// Shard isolation: a fault on object A serializes on A's shard only.
/// Object B's shard — and every other shard — must stay untouched, which
/// is the structural fact that lets unrelated faults run in parallel.
#[test]
fn fault_on_one_object_never_touches_another_objects_shard() {
    use kard::core::faultshard::shard_of;
    use kard::LockId;

    let session = Session::new();
    let kard = session.kard();
    let t = kard.register_thread();
    let a = kard.on_alloc(t, 64);
    let b = kard.on_alloc(t, 64);
    let (sa, sb) = (shard_of(a.id), shard_of(b.id));
    assert_ne!(sa, sb, "consecutive ids land in different shards");

    let before = kard.fault_shard_acquisitions();
    kard.lock_enter(t, LockId(1), CodeSite(0x50));
    kard.write(t, a.base, CodeSite(0x51)); // identification fault on A
    kard.lock_exit(t, LockId(1));
    let after = kard.fault_shard_acquisitions();

    assert!(after[sa] > before[sa], "the fault took A's shard");
    for idx in 0..after.len() {
        if idx != sa {
            assert_eq!(
                after[idx], before[idx],
                "shard {idx} (incl. B's shard {sb}) must stay cold for a fault on A"
            );
        }
    }
}

/// The tentpole's structural guarantee, measured at its narrowest point:
/// once a thread has warmed a section's cached entry plan, a full
/// enter → write → exit round on an uncontended private lock acquires
/// **zero** shared detector locks. Entry replays the memoized plan and
/// CASes the key's holder word; exit releases through the same words.
///
/// Checked exactly on one thread, then on 8 real OS threads hammering
/// one detector, each on its own lock, section and objects: whatever the
/// interleaving, at most one detector lock per two entries.
#[test]
fn no_conflict_section_entry_takes_zero_shared_locks() {
    const ENTRIES: u64 = 10_000;
    for threads in [1usize, 8] {
        let session = Session::new();
        let kard = session.kard();
        let workers: Vec<_> = (0..threads as u64)
            .map(|k| {
                let t = kard.register_thread();
                let objs: Vec<_> = (0..4).map(|_| kard.on_alloc(t, 64)).collect();
                (t, kard::LockId(7 + k), CodeSite(0xA00 + k), objs)
            })
            .collect();
        assert_eq!(kard.detector_lock_acquisitions(), 0, "an alloc is one word store");

        // Warm-up round 1: cold cache, and the writes' identification
        // faults mutate the section-object map (invalidating the fresh
        // plan). Warm-up round 2: re-plans against the now-stable maps and
        // acquires the objects' key proactively. From round 3 on the plan
        // replays.
        for _ in 0..2 {
            for (t, lock, site, objs) in &workers {
                kard.lock_enter(*t, *lock, *site);
                for o in objs {
                    kard.write(*t, o.base, *site);
                }
                kard.lock_exit(*t, *lock);
            }
        }

        let (hits_before, _) = kard.section_cache_stats();
        let before = kard.detector_lock_acquisitions();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for (t, lock, site, objs) in &workers {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..ENTRIES {
                        kard.lock_enter(*t, *lock, *site);
                        kard.write(*t, objs[i as usize % 4].base.offset((i % 8) * 8), *site);
                        kard.lock_exit(*t, *lock);
                    }
                });
            }
        });
        let locks = kard.detector_lock_acquisitions() - before;
        let hits = kard.section_cache_stats().0 - hits_before;

        if threads == 1 {
            assert_eq!(
                locks, 0,
                "a warmed no-conflict section round must acquire zero shared detector locks"
            );
            assert_eq!(hits, ENTRIES, "every warmed entry must replay the cached plan");
        } else {
            assert!(
                locks * 2 <= ENTRIES * threads as u64,
                "{locks} detector locks over {ENTRIES} warmed private entries on each of \
                 {threads} OS threads: the zero-lock section path has regressed"
            );
        }
    }
}

/// The identification faults of a first visit invalidate the section's
/// cached plan, so the next entry rebuilds it by reading each wanted
/// object's domain. Those reads are side-metadata loads: the rebuild's
/// whole lock bill is the section-object map read plus the key-table
/// guard at entry and the key-table guard releasing the (slow-acquired)
/// key at exit — independent of how many objects the plan spans.
#[test]
fn plan_rebuild_takes_no_domain_shard_locks() {
    let rebuild_locks = |objs: usize| {
        let session = Session::new();
        let kard = session.kard();
        let t = kard.register_thread();
        let (lock, site) = (kard::LockId(1), CodeSite(0x10));
        let objs: Vec<_> = (0..objs).map(|_| kard.on_alloc(t, 64)).collect();
        kard.lock_enter(t, lock, site);
        for o in &objs {
            kard.write(t, o.base, site);
        }
        kard.lock_exit(t, lock);
        // Re-entry: the section-object map lists every object, so the
        // plan rebuild reads that many domains.
        let before = kard.detector_lock_acquisitions();
        kard.lock_enter(t, lock, site);
        kard.lock_exit(t, lock);
        kard.detector_lock_acquisitions() - before
    };
    assert_eq!(rebuild_locks(8), 3, "sections + keys at entry, keys at exit");
    assert_eq!(rebuild_locks(1), 3, "no per-object lock in a rebuild");
}

/// Warm one section's plan with rounds that write one object, apply
/// `mutation`, and return the `(hits, misses)` of ten more such rounds.
fn ten_entries_after(
    mutation: impl FnOnce(&kard::Kard, kard::ThreadId, kard::LockId, CodeSite),
) -> (u64, u64) {
    let session = Session::new();
    let kard = session.kard();
    let t = kard.register_thread();
    let obj = kard.on_alloc(t, 64);
    let (lock, site) = (kard::LockId(8), CodeSite(0xA10));

    let round = |i: u64| {
        kard.lock_enter(t, lock, site);
        kard.write(t, obj.base.offset((i % 8) * 8), site);
        kard.lock_exit(t, lock);
    };
    for i in 0..4 {
        round(i); // Warm until the plan replays (see the tests above).
    }
    let (h0, m0) = kard.section_cache_stats();
    round(4);
    let (h1, m1) = kard.section_cache_stats();
    assert_eq!((h1 - h0, m1 - m0), (1, 0), "warmed entries hit the plan");

    mutation(kard, t, lock, site);

    let (h2, m2) = kard.section_cache_stats();
    for i in 0..10 {
        round(5 + i);
    }
    let (h3, m3) = kard.section_cache_stats();
    (h3 - h2, m3 - m2)
}

/// The coherence half of the tentpole: a mutation that really changes
/// what the section acquires at entry (here, a second object written
/// inside the section — it joins the section's Read-write fold — and
/// then freed) marks that section's plan stale, so the next entry misses
/// *exactly once* — falling back to the locked path to re-plan, for every
/// thread — and every subsequent entry hits again.
#[test]
fn plan_cache_misses_exactly_once_after_invalidation() {
    let (hits, misses) = ten_entries_after(|kard, t, lock, site| {
        let second = kard.on_alloc(t, 64);
        kard.lock_enter(t, lock, site);
        kard.write(t, second.base, site);
        kard.lock_exit(t, lock);
        kard.on_free(t, second.id);
    });
    assert_eq!(
        misses, 1,
        "an invalidating mutation must cost exactly one re-planning miss"
    );
    assert_eq!(
        hits, 9,
        "after the one re-plan, every entry replays the refreshed plan"
    );
}

/// Invalidation is as narrow as the mutation: freeing an object the
/// section never touched reaches no plan, so every entry keeps hitting.
#[test]
fn unrelated_free_costs_no_miss() {
    let (hits, misses) = ten_entries_after(|kard, t, _, _| {
        let unrelated = kard.on_alloc(t, 64);
        kard.on_free(t, unrelated.id);
    });
    assert_eq!((hits, misses), (10, 0));
}

/// A free's lock bill follows what the detector knows of the object. One
/// still in the Not-accessed domain is in no section, key or interleaving:
/// its free takes the object's fault shard and nothing else. A shared
/// object's free also edits the section-object map and asks the
/// interleaver, and a Read-write one's releases its key assignment first.
#[test]
fn free_of_a_never_shared_object_takes_only_its_fault_shard() {
    let session = Session::new();
    let kard = session.kard();
    let t = kard.register_thread();
    let (lock, site) = (kard::LockId(9), CodeSite(0xA20));
    let free_locks = |id| {
        let before = kard.detector_lock_acquisitions();
        kard.on_free(t, id);
        kard.detector_lock_acquisitions() - before
    };

    let never_shared = kard.on_alloc(t, 64);
    let (read, written) = (kard.on_alloc(t, 64), kard.on_alloc(t, 64));
    kard.lock_enter(t, lock, site);
    kard.read(t, read.base, site);
    kard.write(t, written.base, site);
    kard.lock_exit(t, lock);

    assert_eq!(free_locks(never_shared.id), 1, "the fault shard");
    assert_eq!(free_locks(read.id), 3, "shard, sections, interleaver");
    assert_eq!(free_locks(written.id), 4, "shard, keys, sections, interleaver");
    assert!(kard.section_objects(kard::SectionId(site)).is_empty());
}

/// The overhead-budget controller's zero-cost contract: with production
/// mode on (controller live, telemetry turned on by the builder), the
/// fault-free access path still takes zero detector locks and performs
/// zero heap allocations — `decide` runs only at identification faults,
/// and `tick` runs only on the drain side.
#[test]
fn production_controller_keeps_fault_free_path_lock_and_alloc_free() {
    let program = lock_free_program(4, 50);
    let trace = program.trace_seeded(17);
    let session = kard::rt::Session::builder()
        .config(kard::KardConfig {
            production: Some(kard::core::ProductionConfig {
                overhead_budget: Some(100),
                sample_permille: 700,
                sample_seed: 9,
            }),
            ..kard::KardConfig::paper()
        })
        .build();
    assert!(session.telemetry().enabled(), "production forces telemetry");
    let mut kard = KardExecutor::new(session.kard().clone());
    replay(&trace, &mut kard);

    let objects = session.alloc().live_objects();
    let t = session.kard().register_thread();
    // Warm-up pass so lazy per-thread state exists before counting.
    for (i, o) in objects.iter().enumerate() {
        session.kard().write(t, o.base, CodeSite(0x900 + i as u64 % 2));
    }

    let before = session.kard().detector_lock_acquisitions();
    let allocs_before = SCOPED_ALLOCS.load(Ordering::Relaxed);
    COUNT_ALLOCS.with(|f| f.set(true));
    for i in 0..1000u64 {
        let o = &objects[(i % 16) as usize];
        session.kard().write(t, o.base.offset((i % 8) * 8), CodeSite(0x900));
        session.kard().read(t, o.base.offset((i % 8) * 8), CodeSite(0x901));
    }
    COUNT_ALLOCS.with(|f| f.set(false));
    let allocs = SCOPED_ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let after = session.kard().detector_lock_acquisitions();

    assert_eq!(after - before, 0, "the controller must not add detector locks");
    assert_eq!(allocs, 0, "the controller must not allocate on the access path");

    // The drain-side heartbeat is equally lock-free on the detector side
    // (it reads histograms and swaps controller atomics only).
    let _ = session.kard().production_tick();
    assert_eq!(
        session.kard().detector_lock_acquisitions(),
        after,
        "a controller tick must take no detector locks"
    );
}

#[test]
fn lock_free_objects_stay_not_accessed() {
    let program = lock_free_program(2, 50);
    let trace = program.trace_seeded(1);
    let session = Session::new();
    let mut kard = KardExecutor::new(session.kard().clone());
    replay(&trace, &mut kard);
    assert_eq!(
        session.kard().stats().objects_identified,
        0,
        "identification only happens inside critical sections"
    );
}
