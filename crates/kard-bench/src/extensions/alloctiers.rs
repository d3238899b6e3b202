//! Allocator tiers: a logical-thread sweep over allocation mixes, the
//! three-tier magazine allocator versus the paper's literal §5.3 sharded
//! model ([`KardAlloc::sharded`]).
//!
//! Three mixes exercise the three tiers:
//!
//! * `private` — every thread churns a resident set of its own objects
//!   (owning-thread alloc and free: the magazine fast path);
//! * `producer_consumer` — even threads allocate, their odd neighbours
//!   free at once (every free is a remote free onto the producer's queue,
//!   drained by the producer's refills);
//! * `all_remote` — threads form a ring; each frees only objects its
//!   successor allocated (worst case: no free is owner-local).
//!
//! Costs are virtual cycles from the simulated cost model (syscalls
//! dominate: `mmap`, `munmap`, `pkey_mprotect`, batched variants). One OS
//! thread drives the logical threads in a fixed round-robin order, so
//! every count is exact. A warm-up phase runs before each measurement so
//! steady-state magazine churn is measured, not cold batch growth.

use kard_alloc::{KardAlloc, ObjectId};
use kard_sim::{Machine, MachineConfig, ThreadId};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;

/// Measured operations per producing thread `kard-tables alloctiers` runs.
pub const OPS_PER_THREAD: u64 = 50_000;

/// Objects kept live per thread during churn.
const RESIDENT: usize = 256;

/// Allocation size (bytes) used by every mix: one consolidated class.
const SIZE: u64 = 64;

/// Allocator under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Mode {
    /// [`KardAlloc::sharded`]: every allocation pays its own `mmap`.
    Sharded,
    /// [`KardAlloc::new`]: per-thread magazines over the global pool.
    Magazine,
}

/// Who frees what.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Mix {
    /// Every thread frees its own objects.
    Private,
    /// Even threads allocate, their predecessors free.
    ProducerConsumer,
    /// Every thread allocates, its predecessor frees.
    AllRemote,
}

/// One (mode, mix, thread count) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct AllocTierRow {
    /// Allocation mix.
    pub mix: Mix,
    /// Allocator mode.
    pub mode: Mode,
    /// Logical threads.
    pub threads: usize,
    /// Measured allocations plus frees.
    pub total_ops: u64,
    /// Virtual cycles over the measured phase.
    pub virtual_cycles: u64,
    /// `virtual_cycles / total_ops`.
    pub cycles_per_op: f64,
    /// Share of allocations served from a non-empty magazine.
    pub fast_path_hit_rate: f64,
    /// Shared allocator lock acquisitions over the measured phase.
    pub alloc_lock_acquisitions: u64,
    /// `alloc_lock_acquisitions / total_ops`.
    pub locks_per_op: f64,
    /// Magazine refills.
    pub slab_refills: u64,
    /// Frees pushed onto another thread's remote-free queue.
    pub remote_free_pushes: u64,
    /// Slots drained from remote-free queues by their owners.
    pub remote_free_drained: u64,
}

/// The whole sweep.
#[derive(Clone, Debug, Serialize)]
pub struct AllocTiers {
    /// Sharded over magazine cycles per op, private mix, 8 threads.
    pub private_8t_speedup: f64,
    /// One row per (mode, mix, thread count).
    pub samples: Vec<AllocTierRow>,
}

/// One step of owner-local churn: keep `RESIDENT` objects live,
/// free-then-alloc.
fn churn(alloc: &KardAlloc, t: ThreadId, live: &mut VecDeque<ObjectId>) {
    if live.len() >= RESIDENT {
        alloc.free(t, live.pop_front().expect("resident set non-empty"));
    }
    live.push_back(alloc.alloc(t, SIZE).id);
}

fn run(mode: Mode, mix: Mix, threads: usize, ops: u64) -> AllocTierRow {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let alloc = match mode {
        Mode::Sharded => KardAlloc::sharded(Arc::clone(&machine)),
        Mode::Magazine => KardAlloc::new(Arc::clone(&machine)),
    };
    let tids: Vec<ThreadId> = (0..threads).map(|_| machine.register_thread()).collect();
    let mut live = vec![VecDeque::new(); threads];

    // Long enough that the adaptive refill batch reaches its maximum and
    // the raw slot cache settles into its steady oscillation.
    for _ in 0..RESIDENT as u64 * 8 + ops / 4 {
        for (&t, live) in tids.iter().zip(&mut live) {
            churn(&alloc, t, live);
        }
    }
    if mix != Mix::Private {
        // Drop the warm-up residue first so measured frees are exactly
        // the cross-thread ones.
        for (&t, live) in tids.iter().zip(&mut live) {
            live.drain(..).for_each(|id| alloc.free(t, id));
        }
    }

    let (cycles0, locks0, s0) = (
        machine.now(),
        alloc.alloc_lock_acquisitions(),
        alloc.stats(),
    );
    for _ in 0..ops {
        for (i, &t) in tids.iter().enumerate() {
            match mix {
                Mix::Private => churn(&alloc, t, &mut live[i]),
                // Odd threads only consume (unless alone).
                Mix::ProducerConsumer if threads > 1 && i % 2 == 1 => {}
                // Whatever thread i allocates, its predecessor in the
                // ring frees (thread i itself when alone).
                Mix::ProducerConsumer | Mix::AllRemote => {
                    let id = alloc.alloc(t, SIZE).id;
                    alloc.free(tids[(i + threads - 1) % threads], id);
                }
            }
        }
    }
    let stats = alloc.stats();
    let virtual_cycles = machine.now() - cycles0;
    let locks = alloc.alloc_lock_acquisitions() - locks0;

    let allocs = stats.allocations - s0.allocations;
    let total_ops = allocs + stats.frees - s0.frees;
    AllocTierRow {
        mix,
        mode,
        threads,
        total_ops,
        virtual_cycles,
        cycles_per_op: virtual_cycles as f64 / total_ops as f64,
        fast_path_hit_rate: (stats.fast_path_hits - s0.fast_path_hits) as f64 / allocs as f64,
        alloc_lock_acquisitions: locks,
        locks_per_op: locks as f64 / total_ops as f64,
        slab_refills: stats.slab_refills - s0.slab_refills,
        remote_free_pushes: stats.remote_free_pushes - s0.remote_free_pushes,
        remote_free_drained: stats.remote_free_drained - s0.remote_free_drained,
    }
}

/// Run every mode, mix and thread count at `ops_per_thread` (> 0).
#[must_use]
pub fn sweep(ops_per_thread: u64) -> AllocTiers {
    let mut samples = Vec::new();
    for mode in [Mode::Sharded, Mode::Magazine] {
        for mix in [Mix::Private, Mix::ProducerConsumer, Mix::AllRemote] {
            for threads in [1, 2, 4, 8] {
                samples.push(run(mode, mix, threads, ops_per_thread));
            }
        }
    }
    let private_8t = |mode: Mode| {
        samples
            .iter()
            .find(|s| s.mode == mode && s.mix == Mix::Private && s.threads == 8)
            .expect("sample present")
            .cycles_per_op
    };
    AllocTiers {
        private_8t_speedup: private_8t(Mode::Sharded) / private_8t(Mode::Magazine),
        samples,
    }
}

/// Render the sweep.
#[must_use]
pub fn text(ops_per_thread: u64) -> String {
    let sweep = sweep(ops_per_thread);
    let mut out = format!(
        "Allocator tiers: sharded (§5.3 literal) vs magazine \
         ({ops_per_thread} ops/thread churn of {SIZE} B objects, resident set {RESIDENT})\n"
    );
    for s in &sweep.samples {
        out.push_str(&format!(
            "{:<8} {:<17} {} threads: {:>7} ops, {:>7.1} cycles/op, \
             fast-path {:>5.1}%, {:.4} locks/op, {:>6} remote frees\n",
            format!("{:?}", s.mode),
            format!("{:?}", s.mix),
            s.threads,
            s.total_ops,
            s.cycles_per_op,
            s.fast_path_hit_rate * 100.0,
            s.locks_per_op,
            s.remote_free_pushes
        ));
    }
    out.push_str(&format!(
        "private 8-thread speedup (sharded / magazine cycles per op): {:.2}x\n",
        sweep.private_8t_speedup
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_magazine_takes_no_locks_and_halves_sharded_cost_at_8_threads() {
        let sharded = run(Mode::Sharded, Mix::Private, 8, OPS_PER_THREAD);
        let magazine = run(Mode::Magazine, Mix::Private, 8, OPS_PER_THREAD);
        assert_eq!(
            magazine.alloc_lock_acquisitions, 0,
            "steady-state owner-local churn stays inside the magazine"
        );
        assert!(
            sharded.cycles_per_op >= 2.0 * magazine.cycles_per_op,
            "magazine {:.1} vs sharded {:.1} cycles/op",
            magazine.cycles_per_op,
            sharded.cycles_per_op
        );
    }
}
