//! Baseline executors: the *Baseline* and *Alloc* configurations of
//! Table 3, run over the same simulated machine as Kard so that cycle and
//! dTLB comparisons are apples-to-apples.
//!
//! * [`NativeExecutor`] models an uninstrumented run with a glibc-style
//!   allocator: objects are packed consecutively into pages, allocation
//!   costs the malloc fast path, accesses are plain (default protection
//!   key, no faults possible).
//! * [`AllocOnlyExecutor`] swaps in Kard's consolidated unique-page
//!   allocator but performs **no detection** — the paper's "Alloc"
//!   configuration, isolating the allocator's contribution (mmap per
//!   allocation + dTLB pressure from unique virtual pages).

use kard_alloc::{KardAlloc, ObjectId, ObjectInfo};
use kard_sim::{
    AccessKind, Machine, MachineConfig, ThreadId, VirtAddr, PAGE_SIZE,
};
use kard_trace::{Executor, ObjectTag, Op};
use std::collections::HashMap;
use std::sync::Arc;

/// Metrics of one executed variant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VariantMetrics {
    /// Total cycles charged across all threads.
    pub cycles: u64,
    /// Aggregate dTLB miss rate.
    pub dtlb_miss_rate: f64,
    /// Peak Linux-style RSS (populated PTEs × page size).
    pub peak_rss_bytes: u64,
    /// Peak physically resident bytes (shared frames counted once).
    pub peak_phys_bytes: u64,
    /// `mmap` system calls issued.
    pub mmaps: u64,
    /// `pkey_mprotect` system calls issued.
    pub pkey_mprotects: u64,
    /// Simulated #GP faults taken.
    pub faults: u64,
    /// Memory accesses performed.
    pub accesses: u64,
}

/// Collect metrics from a machine after a run.
#[must_use]
pub fn metrics_of(machine: &Machine) -> VariantMetrics {
    let counters = machine.counters();
    VariantMetrics {
        cycles: machine.now(),
        dtlb_miss_rate: machine.tlb_stats().miss_rate(),
        peak_rss_bytes: machine.peak_linux_rss_bytes(),
        peak_phys_bytes: machine.mem_stats().peak_resident_bytes,
        mmaps: counters.mmap,
        pkey_mprotects: counters.pkey_mprotect,
        faults: counters.faults,
        accesses: counters.accesses,
    }
}

/// Glibc-granule rounding for the packed allocator (16-byte bins).
const NATIVE_GRANULE: u64 = 16;

/// The uninstrumented baseline: packed allocation, no protection.
pub struct NativeExecutor {
    machine: Arc<Machine>,
    threads: Vec<ThreadId>,
    objects: HashMap<ObjectTag, VirtAddr>,
    open_page: Option<(VirtAddr, u64)>,
    free_slots: HashMap<u64, Vec<VirtAddr>>,
    sizes: HashMap<ObjectTag, u64>,
}

impl NativeExecutor {
    /// A fresh baseline machine.
    #[must_use]
    pub fn new() -> NativeExecutor {
        NativeExecutor {
            machine: Arc::new(Machine::new(MachineConfig::default())),
            threads: Vec::new(),
            objects: HashMap::new(),
            open_page: None,
            free_slots: HashMap::new(),
            sizes: HashMap::new(),
        }
    }

    /// The machine, for metric collection.
    #[must_use]
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> VariantMetrics {
        metrics_of(&self.machine)
    }

    fn packed_alloc(&mut self, t: ThreadId, size: u64) -> VirtAddr {
        let rounded = size.max(1).div_ceil(NATIVE_GRANULE) * NATIVE_GRANULE;
        if rounded < PAGE_SIZE {
            // Small allocation: the glibc fast path cost. Large
            // allocations pay the mmap charged by `map_pages` instead —
            // that *is* glibc's large-allocation path.
            let cost = self.machine.cost_model().malloc_baseline;
            self.machine.charge(t, cost);
        }
        if let Some(addr) = self.free_slots.get_mut(&rounded).and_then(Vec::pop) {
            return addr;
        }
        if rounded >= PAGE_SIZE {
            // Large allocation: contiguous fresh pages (glibc mmap path).
            let pages = rounded.div_ceil(PAGE_SIZE);
            let first = self.machine.reserve_pages(pages);
            for i in 0..pages {
                let frame = self.machine.alloc_frame(t);
                self.machine
                    .map_pages(t, &[(first.add(i), frame)])
                    .expect("fresh page");
            }
            return first.base_addr();
        }
        // Small allocation: bump within the open page (packing many
        // objects per page — the behaviour Kard's allocator replaces).
        match self.open_page {
            Some((base, fill)) if fill + rounded <= PAGE_SIZE => {
                self.open_page = Some((base, fill + rounded));
                base.offset(fill)
            }
            _ => {
                let page = self.machine.reserve_pages(1);
                let frame = self.machine.alloc_frame(t);
                self.machine.map_pages(t, &[(page, frame)]).expect("fresh page");
                self.open_page = Some((page.base_addr(), rounded));
                page.base_addr()
            }
        }
    }

    fn thread(&self, index: usize) -> ThreadId {
        self.threads[index]
    }
}

impl Default for NativeExecutor {
    fn default() -> Self {
        NativeExecutor::new()
    }
}

impl Executor for NativeExecutor {
    fn start(&mut self, threads: usize) {
        while self.threads.len() < threads {
            self.threads.push(self.machine.register_thread());
        }
    }

    fn on_event(&mut self, thread: usize, op: &Op) {
        let t = self.thread(thread);
        let cost = *self.machine.cost_model();
        match *op {
            Op::Alloc { tag, size } | Op::Global { tag, size } => {
                let addr = self.packed_alloc(t, size);
                self.objects.insert(tag, addr);
                self.sizes.insert(tag, size);
            }
            Op::Free { tag } => {
                let addr = self.objects.remove(&tag).expect("free of unknown tag");
                let size = self.sizes.remove(&tag).expect("sized");
                let rounded = size.max(1).div_ceil(NATIVE_GRANULE) * NATIVE_GRANULE;
                if rounded < PAGE_SIZE {
                    self.free_slots.entry(rounded).or_default().push(addr);
                }
                self.machine.charge(t, cost.malloc_baseline / 2);
            }
            Op::Lock { .. } | Op::Unlock { .. } => {
                self.machine.charge(t, cost.lock_op);
            }
            Op::Read { tag, offset, ip } => {
                let addr = self.objects[&tag].offset(offset);
                self.machine
                    .access(t, addr, AccessKind::Read, ip)
                    .expect("baseline never faults");
            }
            Op::Write { tag, offset, ip } => {
                let addr = self.objects[&tag].offset(offset);
                self.machine
                    .access(t, addr, AccessKind::Write, ip)
                    .expect("baseline never faults");
            }
            Op::Compute { cycles } => self.machine.charge(t, cycles),
        }
    }
}

/// The "Alloc" configuration: Kard's allocator, no detection.
pub struct AllocOnlyExecutor {
    machine: Arc<Machine>,
    alloc: Arc<KardAlloc>,
    threads: Vec<ThreadId>,
    objects: HashMap<ObjectTag, ObjectInfo>,
}

impl AllocOnlyExecutor {
    /// A fresh machine with Kard's allocator mounted. Pins the sharded
    /// (demand-exact) path: the paper's "Alloc" configuration charges one
    /// `mmap` per allocation, which the magazine path batches away.
    #[must_use]
    pub fn new() -> AllocOnlyExecutor {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let alloc = Arc::new(KardAlloc::sharded(Arc::clone(&machine)));
        AllocOnlyExecutor {
            machine,
            alloc,
            threads: Vec::new(),
            objects: HashMap::new(),
        }
    }

    /// The machine, for metric collection.
    #[must_use]
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> VariantMetrics {
        metrics_of(&self.machine)
    }

    fn thread(&self, index: usize) -> ThreadId {
        self.threads[index]
    }

    fn object(&self, tag: ObjectTag) -> ObjectId {
        self.objects[&tag].id
    }
}

impl Default for AllocOnlyExecutor {
    fn default() -> Self {
        AllocOnlyExecutor::new()
    }
}

impl Executor for AllocOnlyExecutor {
    fn start(&mut self, threads: usize) {
        while self.threads.len() < threads {
            self.threads.push(self.machine.register_thread());
        }
    }

    fn on_event(&mut self, thread: usize, op: &Op) {
        let t = self.thread(thread);
        let cost = *self.machine.cost_model();
        match *op {
            Op::Alloc { tag, size } => {
                let info = self.alloc.alloc(t, size);
                self.objects.insert(tag, info);
            }
            Op::Global { tag, size } => {
                let info = self.alloc.register_global(t, size);
                self.objects.insert(tag, info);
            }
            Op::Free { tag } => {
                let id = self.object(tag);
                self.objects.remove(&tag);
                self.alloc.free(t, id);
            }
            Op::Lock { .. } | Op::Unlock { .. } => {
                self.machine.charge(t, cost.lock_op);
            }
            Op::Read { tag, offset, ip } => {
                let addr = self.objects[&tag].base.offset(offset);
                self.machine
                    .access(t, addr, AccessKind::Read, ip)
                    .expect("alloc-only never protects, never faults");
            }
            Op::Write { tag, offset, ip } => {
                let addr = self.objects[&tag].base.offset(offset);
                self.machine
                    .access(t, addr, AccessKind::Write, ip)
                    .expect("alloc-only never protects, never faults");
            }
            Op::Compute { cycles } => self.machine.charge(t, cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_core::LockId;
    use kard_sim::CodeSite;
    use kard_trace::replay::replay;
    use kard_trace::schedule::sequential;
    use kard_trace::ThreadProgram;

    fn object_heavy_program(n: u64) -> ThreadProgram {
        let mut p = ThreadProgram::new();
        for i in 0..n {
            p.alloc(ObjectTag(i), 32);
        }
        // Sweep all objects repeatedly: dTLB working set = distinct pages.
        for round in 0..20 {
            for i in 0..n {
                p.read(ObjectTag(i), 0, CodeSite(round));
            }
        }
        p
    }

    #[test]
    fn packed_allocation_keeps_rss_small() {
        let mut native = NativeExecutor::new();
        replay(&sequential(&[object_heavy_program(256)]), &mut native);
        // 256 x 32 B objects pack into two pages.
        assert_eq!(native.metrics().peak_rss_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn unique_pages_inflate_rss_but_not_phys() {
        let mut ao = AllocOnlyExecutor::new();
        replay(&sequential(&[object_heavy_program(256)]), &mut ao);
        let m = ao.metrics();
        assert_eq!(m.peak_rss_bytes, 256 * PAGE_SIZE, "one PTE per object");
        assert_eq!(m.peak_phys_bytes, 2 * PAGE_SIZE, "consolidated frames");
    }

    #[test]
    fn unique_pages_raise_dtlb_misses() {
        let mut native = NativeExecutor::new();
        let mut ao = AllocOnlyExecutor::new();
        // 256 objects sweep: 2 pages packed vs 256 pages unique (≫ 64-entry TLB).
        replay(&sequential(&[object_heavy_program(256)]), &mut native);
        replay(&sequential(&[object_heavy_program(256)]), &mut ao);
        let nm = native.metrics();
        let am = ao.metrics();
        assert!(nm.dtlb_miss_rate < 0.01, "packed sweep fits the TLB");
        assert!(am.dtlb_miss_rate > 0.5, "unique pages thrash the TLB");
        assert!(am.cycles > nm.cycles, "dTLB penalty shows up in cycles");
    }

    #[test]
    fn alloc_only_charges_mmap_per_allocation() {
        let mut ao = AllocOnlyExecutor::new();
        replay(&sequential(&[object_heavy_program(10)]), &mut ao);
        assert_eq!(ao.metrics().mmaps, 10);
        let mut native = NativeExecutor::new();
        replay(&sequential(&[object_heavy_program(10)]), &mut native);
        assert_eq!(native.metrics().mmaps, 1, "one packed page");
    }

    #[test]
    fn baseline_free_reuses_slots() {
        let mut p = ThreadProgram::new();
        for i in 0..100 {
            p.alloc(ObjectTag(i), 32);
            p.write(ObjectTag(i), 0, CodeSite(0));
            p.free(ObjectTag(i));
        }
        let mut native = NativeExecutor::new();
        replay(&sequential(&[p]), &mut native);
        assert_eq!(
            native.metrics().peak_rss_bytes,
            PAGE_SIZE,
            "churn reuses one slot"
        );
    }

    #[test]
    fn locks_and_compute_charge_cycles_without_faults() {
        let mut p = ThreadProgram::new();
        p.lock(LockId(1), CodeSite(1));
        p.compute(10_000);
        p.unlock(LockId(1));
        let mut native = NativeExecutor::new();
        replay(&sequential(&[p]), &mut native);
        let m = native.metrics();
        assert!(m.cycles >= 10_000 + 80);
        assert_eq!(m.faults, 0);
    }
}
