//! Detector hot-path scalability: real OS threads hammering one shared
//! [`Kard`] instance with a section-heavy workload.
//!
//! The original Figure 5 experiments measure *simulated* overhead versus
//! thread count; this bench instead measures the detector's own
//! synchronization, in two modes:
//!
//! * `private_lock_free` — each program thread owns a private lock and
//!   private objects. The workload is embarrassingly parallel at the
//!   program level, so any slowdown versus one thread is contention
//!   inside the detector. After two warm entries per thread (cold cache,
//!   then plan rebuild), the steady state is a generation-validated cache
//!   hit plus one CAS — zero shared lock acquisitions.
//! * `shared_contending` — all threads serialize on one real
//!   `std::sync::Mutex` and enter the *same* section over shared objects.
//!   Program-level contention dominates; the detector's job is just not to
//!   add lock traffic on top (the section key hands off holder-to-holder
//!   by CAS).
//!
//! The always-locked entry path this sweep used to compare against
//! (`private_locked`: 8.00 locks/entry, 3.54× slower at 8 threads in the
//! `BENCH_scalability.json` committed at `562b48e`) is retired; see
//! EXPERIMENTS.md.
//!
//! Run with `cargo bench -p kard-bench --bench bench_scalability`; emits
//! `BENCH_scalability.json` at the repository root. Exits nonzero if the
//! `private_lock_free` sweep takes more than 0.5 detector lock
//! acquisitions per section entry — the CI regression gate for the
//! zero-lock common path.

use kard_alloc::KardAlloc;
use kard_core::{Kard, KardConfig, LockId};
use kard_sim::{CodeSite, Machine, MachineConfig, ThreadId};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Critical-section entries per thread per measured run.
/// `KARD_BENCH_SMOKE` selects a short run with the same JSON shape.
fn entries() -> u64 {
    if std::env::var_os("KARD_BENCH_SMOKE").is_some() {
        500
    } else {
        10_000
    }
}
/// Objects written inside each critical section.
const OBJECTS_PER_THREAD: usize = 4;
/// Unmeasured section entries per thread before the clock starts: entry
/// one runs cold, entry two rebuilds the per-thread plan, entry three
/// onward is the steady state the bench is after.
const WARM_ENTRIES: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    PrivateLockFree,
    SharedContending,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::PrivateLockFree => "private_lock_free",
            Mode::SharedContending => "shared_contending",
        }
    }
}

struct Sample {
    threads: usize,
    total_entries: u64,
    wall_seconds: f64,
    entries_per_sec: f64,
    detector_lock_acquisitions: u64,
    locks_per_entry: f64,
}

fn run(mode: Mode, threads: usize) -> Sample {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
    let kard = Arc::new(Kard::new(machine, alloc, KardConfig::default()));

    let tids: Vec<_> = (0..threads).map(|_| kard.register_thread()).collect();
    let shared = mode == Mode::SharedContending;
    // In the contending mode every thread uses one lock, one code site
    // (hence one section), and one shared object set; the real mutex
    // below keeps the section occupied by one thread at a time, as a
    // correctly locked program would.
    let lock_of = |t: ThreadId| {
        if shared { LockId(999) } else { LockId(t.0 as u64) }
    };
    let site_of = |t: ThreadId| {
        if shared { CodeSite(0x500) } else { CodeSite(0x100 + t.0 as u64) }
    };
    let objects: Vec<Vec<_>> = if shared {
        let owner = tids[0];
        let objs: Vec<_> = (0..OBJECTS_PER_THREAD)
            .map(|_| kard.on_alloc(owner, 64))
            .collect();
        tids.iter().map(|_| objs.clone()).collect()
    } else {
        tids.iter()
            .map(|&t| (0..OBJECTS_PER_THREAD).map(|_| kard.on_alloc(t, 64)).collect())
            .collect()
    };

    // Warm-up: identify (and key) every object and let each thread's
    // section cache reach the steady state before the clock starts.
    for round in 0..WARM_ENTRIES {
        for (i, &t) in tids.iter().enumerate() {
            kard.lock_enter(t, lock_of(t), site_of(t));
            for o in &objects[i] {
                kard.write(t, o.base.offset(round * 8), site_of(t));
            }
            kard.lock_exit(t, lock_of(t));
        }
    }

    let entries = entries();
    let section_mutex = Mutex::new(());
    let locks_before = kard.detector_lock_acquisitions();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (i, &t) in tids.iter().enumerate() {
            let kard = Arc::clone(&kard);
            let objs = objects[i].clone();
            let section_mutex = &section_mutex;
            s.spawn(move || {
                let (lock, site) = (lock_of(t), site_of(t));
                for n in 0..entries {
                    let guard = shared.then(|| section_mutex.lock().unwrap());
                    kard.lock_enter(t, lock, site);
                    let o = &objs[n as usize % OBJECTS_PER_THREAD];
                    kard.write(t, o.base.offset((n % 8) * 8), site);
                    kard.lock_exit(t, lock);
                    drop(guard);
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let locks = kard.detector_lock_acquisitions() - locks_before;

    let total = entries * threads as u64;
    Sample {
        threads,
        total_entries: total,
        wall_seconds: wall,
        entries_per_sec: total as f64 / wall,
        detector_lock_acquisitions: locks,
        locks_per_entry: locks as f64 / total as f64,
    }
}

fn sample_row(s: &Sample) -> String {
    format!(
        "        {{\"threads\": {}, \"total_entries\": {}, \"wall_seconds\": {:.6}, \"entries_per_sec\": {:.1}, \"detector_lock_acquisitions\": {}, \"locks_per_entry\": {:.3}}}",
        s.threads,
        s.total_entries,
        s.wall_seconds,
        s.entries_per_sec,
        s.detector_lock_acquisitions,
        s.locks_per_entry
    )
}

fn main() {
    const MODES: [Mode; 2] = [Mode::PrivateLockFree, Mode::SharedContending];
    let mut mode_blocks = Vec::new();
    let mut speedups = Vec::new();
    let mut gate_failed = false;

    for mode in MODES {
        println!("--- {} ---", mode.label());
        let mut samples = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let s = run(mode, threads);
            println!(
                "{:>2} threads: {:>8} entries in {:.3}s = {:>10.0} entries/s, {:.2} detector lock acquisitions/entry",
                s.threads, s.total_entries, s.wall_seconds, s.entries_per_sec, s.locks_per_entry
            );
            samples.push(s);
        }
        let speedup = samples.last().unwrap().entries_per_sec / samples[0].entries_per_sec;
        println!("    speedup 8t vs 1t: {speedup:.2}x");
        if mode == Mode::PrivateLockFree {
            if let Some(bad) = samples.iter().find(|s| s.locks_per_entry > 0.5) {
                eprintln!(
                    "GATE FAILED: {} at {} threads takes {:.3} detector lock \
                     acquisitions per entry (limit 0.5) — the zero-lock section \
                     path has regressed",
                    mode.label(),
                    bad.threads,
                    bad.locks_per_entry
                );
                gate_failed = true;
            }
        }
        let rows: Vec<String> = samples.iter().map(sample_row).collect();
        mode_blocks.push(format!(
            "    {{\n      \"mode\": \"{}\",\n      \"samples\": [\n{}\n      ]\n    }}",
            mode.label(),
            rows.join(",\n")
        ));
        speedups.push(format!("    \"{}\": {:.2}", mode.label(), speedup));
    }

    let json = format!(
        "{{\n  \"bench\": \"scalability\",\n  \"workload\": \"section-heavy, {} entries/thread after {WARM_ENTRIES} warm entries, {OBJECTS_PER_THREAD} objects/section; private modes use per-thread locks and objects, shared_contending serializes all threads on one real mutex and one section\",\n  \"modes\": [\n{}\n  ],\n  \"speedup_8t_vs_1t\": {{\n{}\n  }}\n}}\n",
        entries(),
        mode_blocks.join(",\n"),
        speedups.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scalability.json");
    std::fs::write(path, json).expect("write BENCH_scalability.json");
    println!("wrote {path}");

    if gate_failed {
        std::process::exit(1);
    }
}
