//! The cycle-cost model.
//!
//! The simulator cannot measure wall-clock slowdown on real MPK hardware, so
//! every modelled operation charges a cycle cost to a virtual clock. The
//! constants come from the paper and the work it cites:
//!
//! * `WRPKRU` ≈ 20 cycles, `RDPKRU` < 1 cycle — §2.2, citing libmpk;
//! * fault handling ≈ 24,000 cycles — §5.5 ("the average fault handling
//!   delay (e.g., 24,000 cycles on our machine)");
//! * `pkey_mprotect`, `mmap`, `ftruncate` syscall costs — order-of-magnitude
//!   numbers for a Linux 4.15 kernel on the paper's Xeon Silver 4110;
//! * the 2.1 GHz clock frequency of the evaluation machine (§7.1), used to
//!   convert the paper's baseline seconds into baseline cycles.
//!
//! Overheads reported by the benchmark harness are ratios of *added* cycles
//! over baseline cycles, so only relative magnitudes matter; the model is
//! deliberately simple and fully documented so that every number in
//! EXPERIMENTS.md can be traced to a constant here.

use serde::{Deserialize, Serialize};

/// A number of simulated CPU cycles.
pub type CycleCount = u64;

/// Clock frequency of the paper's evaluation machine (§7.1): 2.1 GHz.
pub const PAPER_CPU_HZ: f64 = 2.1e9;

/// Cycle costs for every operation the simulator models.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Writing PKRU with `WRPKRU` (§2.2: "around 20 cycles").
    pub wrpkru: CycleCount,
    /// Reading PKRU with `RDPKRU` (§2.2: "less than 1 cycle"; we charge 1).
    pub rdpkru: CycleCount,
    /// Reading the timestamp counter with `RDTSCP`.
    pub rdtscp: CycleCount,
    /// A `pkey_mprotect()` system call (page-table walk + key update).
    pub pkey_mprotect: CycleCount,
    /// Marginal cost of each additional page range folded into one
    /// `pkey_mprotect` call (the libmpk-style grouped update of key-cache
    /// evictions and slab provisioning): each extra range pays only its
    /// page-table walk. See [`CostModel::pkey_mprotect_call`].
    pub pkey_mprotect_batch_extra: CycleCount,
    /// Revoking a hardware key from one *other* thread when the key cache
    /// evicts a key that is still held (libmpk-style key synchronization:
    /// an IPI plus the remote PKRU fix-up).
    pub pkey_sync: CycleCount,
    /// An `mmap()` system call creating one shared mapping.
    pub mmap: CycleCount,
    /// Marginal cost of each additional page folded into one `mmap` call
    /// (magazine refills provision a whole batch of slab pages at once):
    /// each extra page pays only its PTE install. See
    /// [`CostModel::mmap_call`].
    pub mmap_batch_extra: CycleCount,
    /// An `munmap()` system call.
    pub munmap: CycleCount,
    /// Marginal cost of each additional page folded into one `munmap`
    /// call (magazine retirement unmaps dead slab pages in batches). See
    /// [`CostModel::munmap_call`].
    pub munmap_batch_extra: CycleCount,
    /// An `ftruncate()` call growing or shrinking the in-memory file.
    pub ftruncate: CycleCount,
    /// End-to-end #GP delivery + handler entry/exit (§5.5: 24,000 cycles).
    pub fault_handling: CycleCount,
    /// An ordinary data access that hits the dTLB and cache.
    pub mem_access: CycleCount,
    /// Extra penalty for a dTLB miss (hardware page walk).
    pub dtlb_miss: CycleCount,
    /// Uncontended lock or unlock operation (pthread fast path).
    pub lock_op: CycleCount,
    /// One hash/tree map operation inside Kard's runtime (section-object
    /// and key-section map lookups and updates, §5.4).
    pub map_op: CycleCount,
    /// Atomic read-modify-write used by Kard's internal synchronization.
    pub atomic_op: CycleCount,
    /// Per-contender cost of a contended lock hand-off on Kard's internal
    /// runtime lock (cache-line transfer + wakeup). Contention grows
    /// superlinearly with threads; the detector charges
    /// `contended_handoff x (t-1) x sqrt(t-1)` per section entry, which
    /// reproduces the paper's §7.4 scaling curve.
    pub contended_handoff: CycleCount,
    /// Baseline heap allocation (glibc malloc fast path), used to compare
    /// against Kard's mmap-per-allocation allocator (§6).
    pub malloc_baseline: CycleCount,
    /// Per-access cost of TSan-style compiler instrumentation (shadow-memory
    /// lookup + vector-clock work). Chosen so that access-dominated
    /// workloads slow down by roughly 7x under the TSan model (§1).
    pub tsan_per_access: CycleCount,
}

impl CostModel {
    /// The default model documented in DESIGN.md.
    #[must_use]
    pub fn paper() -> CostModel {
        CostModel {
            wrpkru: 20,
            rdpkru: 1,
            rdtscp: 30,
            pkey_mprotect: 1_200,
            pkey_mprotect_batch_extra: 300,
            pkey_sync: 3_000,
            mmap: 2_500,
            mmap_batch_extra: 400,
            munmap: 1_800,
            munmap_batch_extra: 250,
            ftruncate: 1_500,
            fault_handling: 24_000,
            mem_access: 4,
            dtlb_miss: 36,
            lock_op: 50,
            map_op: 70,
            atomic_op: 30,
            contended_handoff: 100,
            malloc_baseline: 120,
            tsan_per_access: 110,
        }
    }

    /// The charge of one `mmap()` call mapping `pages` pages.
    #[must_use]
    pub fn mmap_call(&self, pages: usize) -> CycleCount {
        grouped(self.mmap, self.mmap_batch_extra, pages)
    }

    /// The charge of one `munmap()` call unmapping `pages` pages.
    #[must_use]
    pub fn munmap_call(&self, pages: usize) -> CycleCount {
        grouped(self.munmap, self.munmap_batch_extra, pages)
    }

    /// The charge of one `pkey_mprotect()` call retagging `ranges` page
    /// ranges.
    #[must_use]
    pub fn pkey_mprotect_call(&self, ranges: usize) -> CycleCount {
        grouped(self.pkey_mprotect, self.pkey_mprotect_batch_extra, ranges)
    }

    /// Convert seconds on the paper's 2.1 GHz machine to cycles.
    #[must_use]
    pub fn seconds_to_cycles(seconds: f64) -> CycleCount {
        (seconds * PAPER_CPU_HZ) as CycleCount
    }

    /// Convert simulated cycles back to seconds on the paper's machine.
    #[must_use]
    pub fn cycles_to_seconds(cycles: CycleCount) -> f64 {
        cycles as f64 / PAPER_CPU_HZ
    }
}

/// The one charge rule of a simulated system call over `n ≥ 1` items:
/// syscall entry, VMA bookkeeping and the TLB shootdown IPI are paid once
/// (`base`), and each item past the first pays only its own page-table
/// work (`extra`). A call of one item costs exactly `base`.
fn grouped(base: CycleCount, extra: CycleCount, n: usize) -> CycleCount {
    base + extra * (n as u64).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_cited_values() {
        let m = CostModel::paper();
        assert_eq!(m.wrpkru, 20, "§2.2: WRPKRU takes around 20 cycles");
        assert_eq!(m.rdpkru, 1, "§2.2: RDPKRU takes less than 1 cycle");
        assert_eq!(m.fault_handling, 24_000, "§5.5: average fault delay");
    }

    #[test]
    fn seconds_cycles_round_trip() {
        let cycles = CostModel::seconds_to_cycles(4.96);
        let secs = CostModel::cycles_to_seconds(cycles);
        assert!((secs - 4.96).abs() < 1e-6);
    }

    #[test]
    fn fault_dwarfs_wrpkru() {
        // The design rationale for proactive key acquisition: faults are
        // three orders of magnitude more expensive than WRPKRU.
        let m = CostModel::paper();
        assert!(m.fault_handling > 1000 * m.wrpkru);
    }

    #[test]
    fn serializes_for_experiment_reports() {
        let m = CostModel::paper();
        let json = serde_json::to_string(&m).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
