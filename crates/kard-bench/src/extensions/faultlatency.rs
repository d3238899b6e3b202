//! Fault-path latency distribution on the virtual clock, read through the
//! telemetry histograms rather than ad-hoc instrumentation.
//!
//! **Handoff.** A working set is handed around `threads` logical threads
//! under one lock, so almost every write lands on an object keyed to the
//! previous owner and takes the slow path: identification faults first,
//! then ownership-change faults with reactive key grants on every
//! handoff. The detector records each fault resolution's delay into the
//! `fault_delay` histogram, the measured counterpart of the cost model's
//! assumed delay.
//!
//! **Disjoint fault storm.** Logical threads fault on unrelated objects
//! at 1/2/4/8 threads. The p50/p95/p99 of the faulting write on the
//! thread's own virtual clock — including the §5.5 shard-queueing
//! charge — is the latency a thread observes; it stays flat in the
//! thread count with zero queued cycles.

use super::total_faults;
use kard_core::{KardConfig, LockId};
use kard_rt::Session;
use kard_sim::CodeSite;
use kard_telemetry::HistogramSummary;
use serde::Serialize;

/// Rounds per measurement `kard-tables faultlatency` runs.
pub const ROUNDS: u64 = 2_000;

/// Objects handed off inside every critical section.
const SHARED_OBJECTS: usize = 8;

/// One handoff measurement.
#[derive(Clone, Debug, Serialize)]
pub struct HandoffRow {
    /// Logical threads in the rotation.
    pub threads: usize,
    /// Faults of every class.
    pub faults: u64,
    /// Fault-resolution delay, virtual cycles.
    pub fault_delay: HistogramSummary,
    /// `pkey_mprotect` cost, virtual cycles.
    pub pkey_mprotect: HistogramSummary,
}

/// One disjoint-storm measurement.
#[derive(Clone, Debug, Serialize)]
pub struct StormRow {
    /// Logical threads, each faulting on its own object.
    pub threads: usize,
    /// Reactive-reacquisition faults taken.
    pub faults: u64,
    /// Median faulting-write latency, virtual cycles.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Cycles spent queued behind another handler of the same shard.
    pub queued_cycles: u64,
}

/// Both measurements.
#[derive(Clone, Debug, Serialize)]
pub struct FaultLatency {
    /// Handoff at 2/4/8 threads.
    pub samples: Vec<HandoffRow>,
    /// Disjoint storm at 1/2/4/8 threads.
    pub storm: Vec<StormRow>,
}

fn handoff(threads: usize, rounds: u64) -> HandoffRow {
    let session = Session::builder().telemetry(true).build();
    let kard = session.kard();
    let tids: Vec<_> = (0..threads).map(|_| kard.register_thread()).collect();

    // Each round, the producer thread allocates and initializes a fresh
    // working set (identification faults), then the next thread in the
    // rotation writes it under the lock (ownership-change faults with
    // reactive key grants) before the set is freed. Every object therefore
    // traverses the full fault path instead of settling into a shared key.
    let lock = LockId(1);
    for round in 0..rounds {
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

    let hists = kard.telemetry().histograms();
    HandoffRow {
        threads,
        faults: total_faults(&kard.stats()),
        fault_delay: hists.fault_delay.summary(),
        pkey_mprotect: hists.mprotect.summary(),
    }
}

/// `threads` logical threads, each faulting every round on its *own*
/// object inside its *own* critical section (proactive acquisition off,
/// so every section entry reacquires the key through a
/// reactive-acquisition fault). Threads are driven round-robin, so their
/// per-thread virtual clocks advance in lockstep — every round, `threads`
/// handler intervals overlap in virtual time, the overlap a real
/// multicore would produce. A handler queues behind every overlapping
/// handler of its shard (§5.5 virtual-clock serialization charge); the
/// objects live in distinct shards, so nothing queues.
fn storm(threads: usize, rounds: u64) -> StormRow {
    let config = KardConfig {
        proactive_acquisition: false,
        ..KardConfig::default()
    };
    let session = Session::builder().config(config).build();
    let kard = session.kard();
    let tids: Vec<_> = (0..threads).map(|_| kard.register_thread()).collect();
    // One private object and lock per thread; consecutive object ids land
    // in distinct fault shards for any thread count up to the shard count.
    let objects: Vec<_> = tids.iter().map(|&t| kard.on_alloc(t, 64)).collect();

    let round = |k: usize| {
        let (t, lock, site) = (tids[k], LockId(500 + k as u64), CodeSite(0x4000 + k as u64));
        kard.lock_enter(t, lock, site);
        let before = kard.machine().thread_cycles(t);
        kard.write(t, objects[k].base, site); // reacquisition fault
        let latency = kard.machine().thread_cycles(t) - before;
        kard.lock_exit(t, lock);
        latency
    };

    // Warm-up round: identification faults. Steady-state rounds then all
    // take the same reactive-reacquisition fault on the same shard.
    for k in 0..threads {
        round(k);
    }
    let mut latencies: Vec<u64> = (0..rounds).flat_map(|_| (0..threads).map(&round)).collect();
    latencies.sort_unstable();
    let percentile = |p: usize| latencies[((latencies.len() - 1) * p + 50) / 100];

    StormRow {
        threads,
        faults: kard.stats().reactive_acquisitions,
        p50: percentile(50),
        p95: percentile(95),
        p99: percentile(99),
        queued_cycles: kard.fault_shard_stats().queued_cycles,
    }
}

/// Run both measurements at `rounds` (> 0) rounds each.
#[must_use]
pub fn sweep(rounds: u64) -> FaultLatency {
    FaultLatency {
        samples: [2, 4, 8].map(|t| handoff(t, rounds)).into(),
        storm: [1, 2, 4, 8].map(|t| storm(t, rounds)).into(),
    }
}

/// Render both measurements.
#[must_use]
pub fn text(rounds: u64) -> String {
    let r = sweep(rounds);
    let mut out = format!(
        "Fault latency, virtual cycles ({rounds} rounds)\n\
         handoff of {SHARED_OBJECTS} fresh objects per round under one lock:\n"
    );
    for s in &r.samples {
        out.push_str(&format!(
            "{:>2} threads: {:>7} faults, delay p50={} p95={} p99={} max={}, \
             pkey_mprotect p50={} p99={}\n",
            s.threads,
            s.faults,
            s.fault_delay.p50,
            s.fault_delay.p95,
            s.fault_delay.p99,
            s.fault_delay.max,
            s.pkey_mprotect.p50,
            s.pkey_mprotect.p99,
        ));
    }
    out.push_str(
        "disjoint fault storm (private objects and locks, one reacquisition fault per round):\n",
    );
    for s in &r.storm {
        out.push_str(&format!(
            "{:>2} threads: {:>7} faults, p50={} p95={} p99={} (queued {} cycles total)\n",
            s.threads, s.faults, s.p50, s.p95, s.p99, s.queued_cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_storm_latency_is_flat_in_thread_count_with_nothing_queued() {
        let storms: Vec<StormRow> = [1, 2, 4, 8].map(|t| storm(t, ROUNDS)).into();
        let one = &storms[0];
        assert_eq!(
            (one.p50, one.p95),
            (one.p99, one.p99),
            "one fault class, one latency"
        );
        for s in &storms {
            assert_eq!(
                (s.p50, s.p95, s.p99),
                (one.p50, one.p95, one.p99),
                "unrelated faults must not slow each other at {} threads",
                s.threads
            );
            assert_eq!(s.queued_cycles, 0, "distinct shards never queue");
            assert_eq!(s.faults, (ROUNDS + 1) * s.threads as u64);
        }
    }
}
