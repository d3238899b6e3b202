//! Fault-path latency distribution, measured through the telemetry
//! subsystem rather than ad-hoc instrumentation.
//!
//! A shared working set is handed around `threads` logical threads under
//! one lock, so almost every write lands on an object keyed to the
//! previous owner and takes the slow path: identification faults first,
//! then ownership-change (pool) faults with reactive key grants on every
//! handoff. With telemetry enabled the detector records the virtual-clock
//! delay of each fault resolution into the `fault_delay` histogram; this
//! bench drains the log-bucketed summaries and emits
//! `BENCH_fault_latency.json` at the repository root.
//!
//! The headline number is `suggested_measured_fault_delay`: the p50
//! fault-handling delay in cycles, suitable for
//! `KardConfig::measured_fault_delay` so the §5.5 timestamp filter uses a
//! measured threshold instead of the cost-model constant.
//!
//! A second section measures the **disjoint fault storm**: logical
//! threads faulting on unrelated objects at 1/2/4/8 threads. The
//! p50/p95/p99 of the faulting write on the thread's own virtual clock —
//! including the §5.5 shard-queueing charge — is the latency a thread
//! observes; it must stay flat in the thread count with zero queued
//! cycles. (Against the global fault mutex this replaced, the p95 at 8
//! threads was 7.92× lower — 191,777 → 24,219 cycles in the
//! `BENCH_fault_latency.json` committed at `19f2237`; see
//! EXPERIMENTS.md.)
//!
//! Run with `cargo bench -p kard-bench --bench bench_fault_latency`.

use kard_alloc::KardAlloc;
use kard_core::{Kard, KardConfig, LockId};
use kard_sim::{CodeSite, Machine, MachineConfig};
use kard_telemetry::HistogramSummary;
use std::sync::Arc;

/// Rounds of lock-handoff per measured run.
/// `KARD_BENCH_SMOKE` selects a short run with the same JSON shape.
fn rounds() -> u64 {
    if std::env::var_os("KARD_BENCH_SMOKE").is_some() {
        200
    } else {
        2_000
    }
}
/// Shared objects written inside every critical section.
const SHARED_OBJECTS: usize = 8;

struct Sample {
    threads: usize,
    faults: u64,
    fault_delay: HistogramSummary,
    mprotect: HistogramSummary,
}

fn run(threads: usize) -> Sample {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
    let kard = Arc::new(Kard::new(machine, alloc, KardConfig::default()));
    kard.telemetry().set_enabled(true);

    let tids: Vec<_> = (0..threads).map(|_| kard.register_thread()).collect();

    // Each round, the producer thread allocates and initializes a fresh
    // working set (identification faults), then the next thread in the
    // rotation writes it under the lock (ownership-change faults with
    // reactive key grants) before the set is freed. Every object therefore
    // traverses the full fault path instead of settling into a shared key.
    let lock = LockId(1);
    for round in 0..rounds() {
        let producer = tids[round as usize % threads];
        let consumer = tids[(round as usize + 1) % threads];
        let site = CodeSite(0x200 + (round % 4));

        let objects: Vec<_> = (0..SHARED_OBJECTS)
            .map(|_| kard.on_alloc(producer, 64))
            .collect();
        kard.lock_enter(producer, lock, site);
        for o in &objects {
            kard.write(producer, o.base, site);
        }
        kard.lock_exit(producer, lock);

        kard.lock_enter(consumer, lock, site);
        for o in &objects {
            kard.write(consumer, o.base.offset((round % 8) * 8), site);
        }
        kard.lock_exit(consumer, lock);

        for o in &objects {
            kard.on_free(consumer, o.id);
        }
    }

    let stats = kard.stats();
    Sample {
        threads,
        faults: stats.identification_faults
            + stats.migration_faults
            + stats.race_check_faults
            + stats.interleave_faults,
        fault_delay: kard.telemetry().histograms().fault_delay.summary(),
        mprotect: kard.telemetry().histograms().mprotect.summary(),
    }
}

fn summary_json(s: &HistogramSummary) -> String {
    serde_json::to_string(s).expect("serialize histogram summary")
}

/// One disjoint-fault-storm measurement: `threads` logical threads, each
/// faulting every round on its *own* object inside its *own* critical
/// section (proactive acquisition off, so every section entry reacquires
/// the key through a reactive-acquisition fault). Threads are driven
/// round-robin, so their per-thread virtual clocks advance in lockstep —
/// every round, `threads` handler intervals overlap in virtual time, the
/// overlap a real multicore would produce. A handler queues behind every
/// overlapping handler of its shard (§5.5 virtual-clock serialization
/// charge); the objects live in distinct shards, so nothing queues.
/// Latency is the faulting write's cost on the thread's own clock,
/// including that queueing.
struct StormSample {
    threads: usize,
    p50: u64,
    p95: u64,
    p99: u64,
    faults: u64,
    queued_cycles: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

fn storm(threads: usize) -> StormSample {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
    let kard = Arc::new(Kard::new(
        machine,
        alloc,
        KardConfig::default().proactive_acquisition(false),
    ));
    let tids: Vec<_> = (0..threads).map(|_| kard.register_thread()).collect();
    // One private object and lock per thread; consecutive object ids land
    // in distinct fault shards for any thread count up to the shard count.
    let objects: Vec<_> = (0..threads).map(|k| kard.on_alloc(tids[k], 64)).collect();

    let round = |k: usize| {
        let t = tids[k];
        let site = CodeSite(0x4000 + k as u64);
        kard.lock_enter(t, LockId(500 + k as u64), site);
        let before = kard.machine().thread_cycles(t);
        kard.write(t, objects[k].base, site); // reacquisition fault
        let latency = kard.machine().thread_cycles(t) - before;
        kard.lock_exit(t, LockId(500 + k as u64));
        latency
    };

    // Warm-up round: identification faults. Steady-state rounds then all
    // take the same reactive-reacquisition fault on the same shard.
    for k in 0..threads {
        round(k);
    }
    let mut latencies = Vec::with_capacity(threads * rounds() as usize);
    for _ in 0..rounds() {
        for k in 0..threads {
            latencies.push(round(k));
        }
    }
    latencies.sort_unstable();

    StormSample {
        threads,
        p50: percentile(&latencies, 50.0),
        p95: percentile(&latencies, 95.0),
        p99: percentile(&latencies, 99.0),
        faults: kard.stats().reactive_acquisitions,
        queued_cycles: kard.fault_shard_stats().queued_cycles,
    }
}

fn main() {
    let mut samples = Vec::new();
    for threads in [2usize, 4, 8] {
        let s = run(threads);
        println!(
            "{:>2} threads: {:>7} faults, delay p50={} p95={} p99={} cycles",
            s.threads, s.faults, s.fault_delay.p50, s.fault_delay.p95, s.fault_delay.p99
        );
        samples.push(s);
    }

    // Calibrate the timestamp filter from the most contended run: the p50
    // handling delay is the paper's "measured fault-handling delay".
    let suggested = samples.last().map_or(0, |s| s.fault_delay.p50);

    // Disjoint fault storm, 1..8 logical threads.
    let mut storms = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let s = storm(threads);
        println!(
            "storm {:>2} threads: {:>7} faults, p50={} p95={} p99={} cycles (queued {} cycles total)",
            s.threads, s.faults, s.p50, s.p95, s.p99, s.queued_cycles
        );
        storms.push(s);
    }

    let storm_rows: Vec<String> = storms
        .iter()
        .map(|s| {
            format!(
                "    {{\"threads\": {}, \"faults\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"queued_cycles\": {}}}",
                s.threads, s.faults, s.p50, s.p95, s.p99, s.queued_cycles
            )
        })
        .collect();

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"threads\": {}, \"faults\": {}, \"fault_delay\": {}, \"pkey_mprotect\": {}}}",
                s.threads,
                s.faults,
                summary_json(&s.fault_delay),
                summary_json(&s.mprotect)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fault_latency\",\n  \"workload\": \"producer/consumer handoff of fresh objects under one lock, {} rounds, {SHARED_OBJECTS} objects/round\",\n  \"unit\": \"virtual cycles\",\n  \"suggested_measured_fault_delay\": {suggested},\n  \"samples\": [\n{}\n  ],\n  \"storm_workload\": \"disjoint fault storm: per-thread private objects and locks, one reactive-reacquisition fault per round, {} rounds/thread, per-thread virtual cycles incl. shard queueing\",\n  \"storm\": [\n{}\n  ]\n}}\n",
        rounds(),
        rows.join(",\n"),
        rounds(),
        storm_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault_latency.json");
    std::fs::write(path, json).expect("write BENCH_fault_latency.json");
    println!("wrote {path}");
}
