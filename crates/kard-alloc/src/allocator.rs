//! The consolidated unique-page allocator itself.
//!
//! # Concurrency: the three-tier hot path
//!
//! The allocator sits on every managed allocation and free, so its hot
//! path takes **zero shared locks** on the owning thread:
//!
//! 1. **Per-thread magazines** ([`crate::magazine`]): each thread keeps a
//!    per-size-class stock of prepared slots (page reserved + mapped +
//!    pre-tagged with the provision key). Owning-thread alloc pops a
//!    slot and publishes metadata into lock-free tables; owning-thread
//!    free pushes the slot onto the thread's dirty list. Neither touches
//!    shared state beyond a handful of atomics.
//! 2. **Size-class slab refills**: when a class runs dry the owner
//!    drains its remote-free queue, retires dirty pages with one batched
//!    `munmap`, and provisions a whole batch of fresh slots with one
//!    batched `mmap` + one batched `pkey_mprotect` — the per-slot
//!    syscall cost is amortized B-fold (B adapts from
//!    [`INITIAL_BATCH`] up to [`MAX_BATCH`]).
//!    Only here may the sharded global pool and the open bump frame
//!    (both behind acquisition-counted locks) be consulted.
//! 3. **Lock-free remote free** ([`crate::remote_free`]): a free on a
//!    non-owning thread claims the object from the lock-free table and
//!    pushes the slot onto the owner's Treiber queue. The owner drains
//!    it at refill; thread exit closes the queue and flushes everything
//!    to the global pool, so no slot is stranded.
//!
//! Every object's metadata — magazine and sharded-mode slots, objects
//! of a page or more, globals — lives in the one publish-once lock-free
//! table ([`crate::table`]) indexed by the dense, never-reused object
//! ids, beside a page index over the never-reused virtual pages, so the
//! fault handler resolves any object without locks. Physical extents
//! (the `(frame, offset)` byte ranges small objects occupy inside shared
//! frames) leave the global pool and the open frame through one take
//! helper and return to the pool through one return helper. Built with
//! [`KardAlloc::sharded`] instead of [`KardAlloc::new`], every
//! allocation takes the sharded path — the paper's per-allocation
//! `mmap` model — which the benchmarks use as the baseline and the
//! paper-semantics tests use for exact-count assertions.
//!
//! # Lock ordering
//!
//! Fault shards (detector, the faulted object's shard — all shards for
//! thread exit) → magazine engage → allocator shard locks (free-slot
//! pool, open frame) → machine internals. Every allocator lock is a
//! leaf with respect to the others; the magazine engage flag is not a
//! lock (concurrent entry panics rather than blocks) but sits above the
//! shard locks because refills run engaged.

use crate::magazine::{class_of, class_size, MagInner, Magazine, PreparedSlot};
use crate::metadata::{ObjectId, ObjectInfo, ObjectKind};
use crate::remote_free::RetiredSlot;
use crate::table::{ObjectTable, PageIndex, Record};
use kard_sim::{
    Machine, PhysFrame, ProtectError, ProtectionKey, ThreadId, ThreadSpine, VirtAddr, VirtPage,
    PAGE_SIZE, THREAD_CAPACITY,
};
use kard_telemetry::{EventKind, Telemetry, TrackedMutex};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Allocation granule: Kard's allocator "returns a multiple of 32 B to each
/// memory allocation request" (§6).
pub const ALLOC_GRANULE: u64 = 32;

/// Number of independently locked shards for each allocator index.
pub const ALLOC_SHARDS: usize = 16;

/// First magazine refill batch per size class (slots).
pub const INITIAL_BATCH: usize = 4;

/// Ceiling the adaptive refill batch doubles up to (slots).
pub const MAX_BATCH: usize = 32;

/// Dirty-list length that triggers a batched page retirement outside
/// refills.
pub const RETIRE_BATCH: usize = 32;

/// Allocator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AllocStats {
    /// Total allocations performed (heap only).
    pub allocations: u64,
    /// Total frees performed.
    pub frees: u64,
    /// Objects currently live (heap + globals).
    pub live_objects: u64,
    /// Globals registered.
    pub globals: u64,
    /// Bytes wasted to granule rounding across live objects.
    pub rounding_waste_bytes: u64,
    /// Consolidation slot reuses (a freed slot's physical extent served
    /// a new allocation — directly in sharded mode, via a refill in
    /// magazine mode).
    pub slot_reuses: u64,
    /// Allocations served from a non-empty magazine (no refill needed).
    pub fast_path_hits: u64,
    /// Magazine refills (each one batched provisioning).
    pub slab_refills: u64,
    /// Frees pushed onto another thread's remote-free queue.
    pub remote_free_pushes: u64,
    /// Slots drained from remote-free queues by their owners.
    pub remote_free_drained: u64,
    /// Dead virtual pages unmapped (batched retirement + immediate
    /// frees).
    pub pages_retired: u64,
}

/// Lock-free accumulator behind [`AllocStats`].
#[derive(Default)]
struct AtomicAllocStats {
    allocations: AtomicU64,
    frees: AtomicU64,
    live_objects: AtomicU64,
    globals: AtomicU64,
    rounding_waste_bytes: AtomicU64,
    slot_reuses: AtomicU64,
    fast_path_hits: AtomicU64,
    slab_refills: AtomicU64,
    remote_free_pushes: AtomicU64,
    remote_free_drained: AtomicU64,
    pages_retired: AtomicU64,
}

impl AtomicAllocStats {
    fn snapshot(&self) -> AllocStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        AllocStats {
            allocations: get(&self.allocations),
            frees: get(&self.frees),
            live_objects: get(&self.live_objects),
            globals: get(&self.globals),
            rounding_waste_bytes: get(&self.rounding_waste_bytes),
            slot_reuses: get(&self.slot_reuses),
            fast_path_hits: get(&self.fast_path_hits),
            slab_refills: get(&self.slab_refills),
            remote_free_pushes: get(&self.remote_free_pushes),
            remote_free_drained: get(&self.remote_free_drained),
            pages_retired: get(&self.pages_retired),
        }
    }
}

/// Free consolidation slots of one shard, keyed by rounded size.
type SlotMap = HashMap<u64, Vec<(PhysFrame, u64)>>;

/// The consolidated unique-page allocator (see [crate docs](crate)).
pub struct KardAlloc {
    machine: Arc<Machine>,
    /// Per-thread magazines (tier 1) in use: [`KardAlloc::new`]. Off =
    /// [`KardAlloc::sharded`], where every allocation pays its own `mmap`
    /// and shard lock.
    magazine_mode: bool,
    /// Every object's record, resolvable from the fault handler without
    /// locks.
    objects: ObjectTable,
    /// Lock-free page→object index over the dense reservation sequence.
    page_index: PageIndex,
    /// Per-thread magazines, materialized on first use: a cell for every
    /// thread the machine can register.
    magazines: ThreadSpine<Magazine>,
    /// Free consolidation slots, sharded by size class (rounded size) —
    /// the tier-2 global pool magazines refill from.
    free_slots: Vec<TrackedMutex<SlotMap>>,
    /// Currently open frame for bump allocation and its fill level —
    /// global by design: consolidation packs all small objects into one
    /// open frame at a time (Figure 2).
    open_frame: TrackedMutex<Option<(PhysFrame, u64)>>,
    /// Key every provisioned slot is pre-tagged with at refill (the
    /// detector's Not-accessed key); see [`KardAlloc::set_provision_key`].
    provision_key: OnceLock<ProtectionKey>,
    /// Shared acquisition counter behind every allocator lock.
    lock_acquisitions: Arc<AtomicU64>,
    next_id: AtomicU64,
    stats: AtomicAllocStats,
    /// Shared telemetry hub. Created here (the allocator is the first
    /// component a session builds) and adopted by the detector and the
    /// runtime via [`KardAlloc::telemetry`].
    telemetry: Arc<Telemetry>,
}

impl KardAlloc {
    /// A fresh three-tier allocator over `machine` (conceptually:
    /// `memfd_create`), per-thread magazines on.
    #[must_use]
    pub fn new(machine: Arc<Machine>) -> KardAlloc {
        KardAlloc::build(machine, true)
    }

    /// The PR 1 sharded baseline: no magazines, every allocation pays
    /// its own `mmap` and shard lock. This is the paper's literal §5.3
    /// model — the exact-count paper-semantics tests and the benchmark
    /// baseline run here.
    #[must_use]
    pub fn sharded(machine: Arc<Machine>) -> KardAlloc {
        KardAlloc::build(machine, false)
    }

    fn build(machine: Arc<Machine>, magazine_mode: bool) -> KardAlloc {
        let lock_acquisitions = Arc::new(AtomicU64::new(0));
        KardAlloc {
            magazine_mode,
            objects: ObjectTable::default(),
            page_index: PageIndex::default(),
            magazines: ThreadSpine::new(),
            free_slots: (0..ALLOC_SHARDS)
                .map(|_| TrackedMutex::new(HashMap::new(), Arc::clone(&lock_acquisitions)))
                .collect(),
            open_frame: TrackedMutex::new(None, Arc::clone(&lock_acquisitions)),
            provision_key: OnceLock::new(),
            lock_acquisitions,
            next_id: AtomicU64::new(0),
            stats: AtomicAllocStats::default(),
            telemetry: Arc::new(Telemetry::new(THREAD_CAPACITY)),
            machine,
        }
    }

    /// The machine this allocator serves.
    #[must_use]
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The telemetry hub shared by every component built on this
    /// allocator (the detector adopts it in `Kard::new`).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Total acquisitions of every shared allocator lock (free-slot pool,
    /// open frame). The owning-thread magazine path must
    /// not move this counter in steady state — `tests/no_lock_overhead.rs`
    /// asserts exactly that.
    #[must_use]
    pub fn alloc_lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Declare that every slot the allocator hands out must already be
    /// tagged with `key` (the detector's Not-accessed key). Magazine
    /// refills then fold the tagging into their batched `pkey_mprotect`;
    /// the sharded path tags per object at allocation, so the detector
    /// never retags a newborn object itself.
    ///
    /// # Panics
    ///
    /// Panics if any object has already been allocated (already-prepared
    /// slots would carry the wrong key), or if a *different* key was
    /// already declared.
    pub fn set_provision_key(&self, key: ProtectionKey) {
        let stats = self.stats();
        assert_eq!(
            stats.allocations + stats.globals,
            0,
            "provision key must be declared before any allocation"
        );
        let set = self.provision_key.get_or_init(|| key);
        assert_eq!(*set, key, "conflicting provision keys declared");
    }

    /// The declared provision key, if any.
    #[must_use]
    pub fn provision_key(&self) -> Option<ProtectionKey> {
        self.provision_key.get().copied()
    }

    /// Record an object-lifecycle event if telemetry is on.
    #[inline]
    fn emit(&self, thread: ThreadId, kind: EventKind, a: u64, b: u64) {
        if self.telemetry.enabled() {
            self.telemetry.ensure_thread(thread.0);
            self.telemetry.record(thread.0, kind, self.machine.now(), a, b);
        }
    }

    fn round_up(size: u64) -> u64 {
        let size = size.max(1);
        size.div_ceil(ALLOC_GRANULE) * ALLOC_GRANULE
    }

    fn slot_shard(&self, rounded: u64) -> &TrackedMutex<SlotMap> {
        &self.free_slots[(rounded / ALLOC_GRANULE) as usize % ALLOC_SHARDS]
    }

    /// This thread's magazine, materialized on first use.
    fn magazine(&self, thread: ThreadId) -> &Magazine {
        self.magazines
            .get_or_publish(thread.0)
            .unwrap_or_else(|| panic!("unregistered thread {thread}"))
            .get_or_init(Magazine::new)
    }

    /// Allocate a heap object of `size` bytes on behalf of `thread`.
    ///
    /// Small objects (< one page) are consolidated into shared physical
    /// frames; objects of a page or more get dedicated frames. Either way
    /// the object is the sole owner of its virtual page(s). With a
    /// provision key declared the pages come back already tagged with it;
    /// otherwise they carry the default key (and the caller — Kard's
    /// runtime — immediately retags heap objects itself).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn alloc(&self, thread: ThreadId, size: u64) -> ObjectInfo {
        assert!(size > 0, "zero-sized allocation");
        let rounded = Self::round_up(size);
        let id = ObjectId(self.next_id.fetch_add(1, Ordering::Relaxed));

        if self.magazine_mode && rounded < PAGE_SIZE {
            return self.alloc_magazine(thread, id, size, rounded);
        }

        let rec = if rounded < PAGE_SIZE {
            self.alloc_consolidated(thread, id, size, rounded)
        } else {
            self.alloc_dedicated(thread, id, size, rounded, ObjectKind::Heap)
        };
        let info = self.index(&rec);
        self.pretag(thread, info);
        self.stats.allocations.fetch_add(1, Ordering::Relaxed);
        self.stats.live_objects.fetch_add(1, Ordering::Relaxed);
        self.stats
            .rounding_waste_bytes
            .fetch_add(info.rounded_size - info.size, Ordering::Relaxed);
        self.emit(thread, EventKind::ObjectAlloc, info.id.0, info.size);
        info
    }

    /// Tier-1 fast path: pop a prepared slot from the owning thread's
    /// magazine and publish the object's metadata lock-free.
    fn alloc_magazine(
        &self,
        thread: ThreadId,
        id: ObjectId,
        size: u64,
        rounded: u64,
    ) -> ObjectInfo {
        let mag = self.magazine(thread);
        let mut guard = mag.engage();
        let inner = guard.inner();
        let class = class_of(rounded);
        let fast = !inner.class(class).prepared.is_empty();
        if !fast {
            self.refill(thread, inner, mag, class, rounded);
        }
        let slot = inner
            .class(class)
            .prepared
            .pop()
            .expect("refill provisions at least one slot");
        drop(guard);

        let info = self.index(&Record {
            id,
            base: slot.page.base_addr().offset(slot.offset),
            size,
            rounded,
            frame: slot.frame,
            offset: slot.offset,
            owner: Some(thread),
            kind: ObjectKind::Heap,
        });

        self.stats.allocations.fetch_add(1, Ordering::Relaxed);
        self.stats.live_objects.fetch_add(1, Ordering::Relaxed);
        self.stats
            .rounding_waste_bytes
            .fetch_add(rounded - size, Ordering::Relaxed);
        if fast {
            self.stats.fast_path_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.emit(thread, EventKind::ObjectAlloc, id.0, size);
        info
    }

    /// Tier-2 slow path: drain remote frees, retire dirty pages, and
    /// provision a fresh batch of prepared slots for `class` with one
    /// batched `mmap` (+ one batched `pkey_mprotect` when a provision
    /// key is declared).
    fn refill(
        &self,
        thread: ThreadId,
        inner: &mut MagInner,
        mag: &Magazine,
        class: usize,
        rounded: u64,
    ) {
        let drained = mag.remote.drain();
        if !drained.is_empty() {
            self.stats
                .remote_free_drained
                .fetch_add(drained.len() as u64, Ordering::Relaxed);
            let pages = drained.len() as u64 + inner.dirty.len() as u64;
            self.emit(thread, EventKind::RemoteFreeDrain, drained.len() as u64, pages);
            inner.dirty.extend(drained);
        }
        self.flush_dirty(thread, inner);

        let cache = inner.class(class);
        let batch = cache.next_batch.max(INITIAL_BATCH);
        let first = self.machine.reserve_pages(batch as u64);
        cache.next_batch = (batch * 2).min(MAX_BATCH);

        // Source physical extents: the class-local raw cache first.
        let mut raws: Vec<(PhysFrame, u64)> = Vec::with_capacity(batch);
        let reused_local = cache.raw.len().min(batch);
        raws.extend(cache.raw.drain(cache.raw.len() - reused_local..));
        self.take_extents(thread, rounded, batch, &mut raws);

        // Provision: fresh pages (never reused), one batched mmap, one
        // batched pkey_mprotect.
        let pairs: Vec<(VirtPage, PhysFrame)> = raws
            .iter()
            .enumerate()
            .map(|(i, &(frame, _))| (first.add(i as u64), frame))
            .collect();
        self.machine
            .map_pages(thread, &pairs)
            .expect("fresh pages cannot be mapped already");
        if let Some(key) = self.provision_key() {
            let ranges: Vec<(VirtPage, u64)> = pairs.iter().map(|&(p, _)| (p, 1)).collect();
            self.retag(thread, &ranges, key)
                .expect("provision key must be valid for the machine");
        }
        let cache = inner.class(class);
        cache.prepared.extend(
            raws.into_iter()
                .enumerate()
                .map(|(i, (frame, offset))| PreparedSlot {
                    page: first.add(i as u64),
                    frame,
                    offset,
                }),
        );
        self.stats.slab_refills.fetch_add(1, Ordering::Relaxed);
        self.emit(
            thread,
            EventKind::AllocSlabRefill,
            rounded,
            cache.prepared.len() as u64,
        );
    }

    /// Batch-unmap every dirty page and recycle the physical extents
    /// into the per-class raw caches (overflow goes to the global pool).
    fn flush_dirty(&self, thread: ThreadId, inner: &mut MagInner) {
        if inner.dirty.is_empty() {
            return;
        }
        let pages: Vec<VirtPage> = inner.dirty.iter().map(|s| s.page).collect();
        self.machine
            .unmap_pages(thread, &pages)
            .expect("retired pages must be mapped");
        self.stats
            .pages_retired
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
        let raw_cap = MAX_BATCH * 2;
        // Taken out and put back, so the buffer keeps its capacity.
        let mut dirty = std::mem::take(&mut inner.dirty);
        for slot in dirty.drain(..) {
            let cache = inner.class(class_of(slot.rounded));
            if cache.raw.len() < raw_cap {
                cache.raw.push((slot.frame, slot.offset));
            } else {
                self.return_extents(slot.rounded, [(slot.frame, slot.offset)]);
            }
        }
        inner.dirty = dirty;
    }

    /// Retire one slot immediately (a sharded-mode free, or the owner has
    /// exited and closed its queue): unmap its page and return the extent
    /// to the global pool.
    fn retire_now(&self, thread: ThreadId, slot: RetiredSlot) {
        self.machine
            .unmap_pages(thread, &[slot.page])
            .expect("retired page must be mapped");
        self.stats.pages_retired.fetch_add(1, Ordering::Relaxed);
        self.return_extents(slot.rounded, [(slot.frame, slot.offset)]);
    }

    /// Fill `extents` up to `n` physical extents of `rounded` bytes:
    /// exact-size freed extents from the global pool first, then bump
    /// space in the open frame, opening a fresh frame whenever it is
    /// full. Every extent not bumped — those the caller brought from its
    /// own cache and those from the pool — counts as a slot reuse.
    fn take_extents(
        &self,
        thread: ThreadId,
        rounded: u64,
        n: usize,
        extents: &mut Vec<(PhysFrame, u64)>,
    ) {
        if extents.len() < n {
            if let Some(free) = self.slot_shard(rounded).lock().get_mut(&rounded) {
                let take = free.len().min(n - extents.len());
                extents.extend(free.drain(free.len() - take..).rev());
            }
        }
        self.stats
            .slot_reuses
            .fetch_add(extents.len() as u64, Ordering::Relaxed);
        if extents.len() < n {
            let mut open = self.open_frame.lock();
            while extents.len() < n {
                match *open {
                    Some((frame, fill)) if fill + rounded <= PAGE_SIZE => {
                        *open = Some((frame, fill + rounded));
                        extents.push((frame, fill));
                    }
                    _ => *open = Some((self.machine.alloc_frame(thread), 0)),
                }
            }
        }
    }

    /// Return freed physical extents of `rounded` bytes to the global
    /// pool. Frames holding consolidated objects are never shrunk out of
    /// the file, matching the paper's simple allocator (§6 defers page
    /// recycling).
    fn return_extents(&self, rounded: u64, extents: impl IntoIterator<Item = (PhysFrame, u64)>) {
        self.slot_shard(rounded)
            .lock()
            .entry(rounded)
            .or_default()
            .extend(extents);
    }

    fn alloc_consolidated(
        &self,
        thread: ThreadId,
        id: ObjectId,
        size: u64,
        rounded: u64,
    ) -> Record {
        let mut extent = Vec::with_capacity(1);
        self.take_extents(thread, rounded, 1, &mut extent);
        let (frame, offset) = extent[0];
        let page = self.machine.reserve_pages(1);
        self.machine
            .map_pages(thread, &[(page, frame)])
            .expect("fresh page cannot be mapped already");
        Record {
            id,
            base: page.base_addr().offset(offset),
            size,
            rounded,
            frame,
            offset,
            owner: None,
            kind: ObjectKind::Heap,
        }
    }

    /// An object of a page or more, or a global: dedicated frames, one
    /// per page, each mapped by its own call.
    fn alloc_dedicated(
        &self,
        thread: ThreadId,
        id: ObjectId,
        size: u64,
        rounded: u64,
        kind: ObjectKind,
    ) -> Record {
        let page_count = rounded.div_ceil(PAGE_SIZE);
        let first_page = self.machine.reserve_pages(page_count);
        for i in 0..page_count {
            let frame = self.machine.alloc_frame(thread);
            self.machine
                .map_pages(thread, &[(first_page.add(i), frame)])
                .expect("fresh page cannot be mapped already");
        }
        Record {
            id,
            base: first_page.base_addr(),
            size,
            rounded,
            frame: PhysFrame(0),
            offset: 0,
            owner: None,
            kind,
        }
    }

    /// Publish `rec`, then point each of its pages at it: publish order
    /// matters, so a concurrent fault-handler lookup that finds a page
    /// always finds a live record behind it.
    fn index(&self, rec: &Record) -> ObjectInfo {
        self.objects.publish(rec);
        let info = rec.info();
        for i in 0..info.page_count {
            self.page_index.insert(info.first_page.add(i), info.id);
        }
        info
    }

    /// Tag a freshly indexed object with the provision key, if declared
    /// (the sharded path's per-object equivalent of the refill batch).
    fn pretag(&self, thread: ThreadId, info: ObjectInfo) {
        if let Some(key) = self.provision_key() {
            self.protect(thread, &[info.id], key)
                .expect("provision key must be valid for the machine");
        }
    }

    /// Register a global variable of `size` bytes.
    ///
    /// Globals receive unique, page-aligned, *non-consolidated* storage; the
    /// paper's implementation aggregates global metadata at compile time and
    /// registers it at program start (§5.3, §6). Kard's runtime calls this
    /// during startup.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn register_global(&self, thread: ThreadId, size: u64) -> ObjectInfo {
        assert!(size > 0, "zero-sized global");
        let rounded = Self::round_up(size);
        let id = ObjectId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let rec = self.alloc_dedicated(thread, id, size, rounded, ObjectKind::Global);
        let info = self.index(&rec);
        self.pretag(thread, info);
        self.stats.globals.fetch_add(1, Ordering::Relaxed);
        self.stats.live_objects.fetch_add(1, Ordering::Relaxed);
        self.stats
            .rounding_waste_bytes
            .fetch_add(info.rounded_size - info.size, Ordering::Relaxed);
        self.emit(thread, EventKind::ObjectGlobal, info.id.0, info.size);
        info
    }

    /// Free a heap object.
    ///
    /// Every free is one claim on the lock-free table: exactly one free
    /// wins, and the object's page index entries are cleared. A small
    /// slot then either joins the freeing thread's own dirty list (owner
    /// free — zero shared locks), travels to its magazine owner's
    /// remote-free queue (cross-thread free — one lock-free push), or,
    /// in sharded mode, is unmapped at once and its extent recycled, as
    /// in the paper's model. An object of a page or more unmaps its pages
    /// and frees its frames.
    ///
    /// # Panics
    ///
    /// Panics on double free, unknown ids, or attempts to free globals —
    /// all of which are program errors Kard's wrapper would also reject.
    /// A global stays live and resolvable.
    pub fn free(&self, thread: ThreadId, id: ObjectId) {
        let rec = self.objects.claim_free(id);
        let info = rec.info();
        if rec.rounded < PAGE_SIZE {
            self.page_index.clear(info.first_page);
            self.free_slot(thread, &rec);
        } else {
            for i in 0..info.page_count {
                let page = info.first_page.add(i);
                self.page_index.clear(page);
                let frames = self
                    .machine
                    .unmap_pages(thread, &[page])
                    .expect("object pages must be mapped");
                frames.into_iter().for_each(|frame| self.machine.free_frame(frame));
            }
            self.stats
                .pages_retired
                .fetch_add(info.page_count, Ordering::Relaxed);
        }
        self.stats.frees.fetch_add(1, Ordering::Relaxed);
        self.stats.live_objects.fetch_sub(1, Ordering::Relaxed);
        self.stats
            .rounding_waste_bytes
            .fetch_sub(rec.rounded - rec.size, Ordering::Relaxed);
        self.emit(thread, EventKind::ObjectFree, id.0, 0);
    }

    /// Route a claimed small slot: to the freeing owner's dirty list, to
    /// the owner's remote-free queue, or — with no magazine owner, or an
    /// owner whose queue is closed — straight back to the global pool.
    fn free_slot(&self, thread: ThreadId, rec: &Record) {
        let slot = RetiredSlot {
            page: rec.base.page(),
            frame: rec.frame,
            offset: rec.offset,
            rounded: rec.rounded,
        };
        let Some(owner) = rec.owner else {
            return self.retire_now(thread, slot);
        };
        if owner == thread {
            let mut guard = self.magazine(thread).engage();
            let inner = guard.inner();
            inner.dirty.push(slot);
            if inner.dirty.len() >= RETIRE_BATCH {
                self.flush_dirty(thread, inner);
            }
        } else if self
            .magazines
            .get(owner.0)
            .and_then(OnceLock::get)
            .is_some_and(|m| m.remote.push(slot))
        {
            self.stats.remote_free_pushes.fetch_add(1, Ordering::Relaxed);
            self.emit(thread, EventKind::RemoteFreePush, rec.id.0, owner.0 as u64);
        } else {
            self.retire_now(thread, slot);
        }
    }

    /// Flush a departing thread's allocation state: drain **and close**
    /// its remote-free queue, retire every dirty and prepared page, hand
    /// all recycled extents to the global pool, and free the magazine's
    /// size-class caches and dirty buffer, so an exited thread keeps only
    /// its magazine's header. After this, remote frees targeting the
    /// thread fall back to the global pool directly, so no slot is ever
    /// stranded. Kard's runtime calls this from the thread-exit hook; it
    /// is idempotent and the thread may even allocate again afterwards
    /// (its next allocation rebuilds the caches; the remote queue stays
    /// closed).
    pub fn on_thread_exit(&self, thread: ThreadId) {
        // No magazine: sharded mode, or the thread never allocated.
        let Some(mag) = self.magazines.get(thread.0).and_then(OnceLock::get) else {
            return;
        };
        let mut guard = mag.engage();
        let inner = guard.inner();
        let drained = mag.remote.close();
        if !drained.is_empty() {
            self.stats
                .remote_free_drained
                .fetch_add(drained.len() as u64, Ordering::Relaxed);
            self.emit(
                thread,
                EventKind::RemoteFreeDrain,
                drained.len() as u64,
                (drained.len() + inner.dirty.len()) as u64,
            );
            inner.dirty.extend(drained);
        }
        self.flush_dirty(thread, inner);
        for (class, cache) in inner.classes.iter_mut().enumerate() {
            let rounded = class_size(class);
            if !cache.prepared.is_empty() {
                let pages: Vec<VirtPage> = cache.prepared.iter().map(|s| s.page).collect();
                self.machine
                    .unmap_pages(thread, &pages)
                    .expect("prepared pages must be mapped");
                self.stats
                    .pages_retired
                    .fetch_add(pages.len() as u64, Ordering::Relaxed);
                cache
                    .raw
                    .extend(cache.prepared.drain(..).map(|s| (s.frame, s.offset)));
            }
            if !cache.raw.is_empty() {
                self.return_extents(rounded, cache.raw.drain(..));
            }
        }
        *inner = MagInner::default();
    }

    /// Metadata of the live object containing `addr`, if any.
    ///
    /// Used by the fault handler to map a faulting address to an object.
    /// Every object exclusively owns its virtual page(s) and pages are
    /// never reused, so the page index resolves *any* address within an
    /// object's pages (even where the object's bytes do not cover them).
    /// The lookup is lock-free for every object, so the fault handler
    /// resolves slots owned by any thread's magazine without touching
    /// that magazine.
    #[must_use]
    pub fn object_at(&self, addr: VirtAddr) -> Option<ObjectInfo> {
        self.object(self.page_index.get(addr.page())?)
    }

    /// Metadata of a live object by id, from its lock-free cell.
    #[must_use]
    pub fn object(&self, id: ObjectId) -> Option<ObjectInfo> {
        self.objects.lookup(id).map(|rec| rec.info())
    }

    /// All live objects (snapshot), in allocation order.
    #[must_use]
    pub fn live_objects(&self) -> Vec<ObjectInfo> {
        self.objects.live_objects()
    }

    /// Retag all pages of every object in `ids` with `key` through one
    /// `pkey_mprotect` call, one page range per object: a domain
    /// transition retags one object, a key-cache eviction or revival a
    /// whole shared-object group at once. A no-op for an empty slice.
    ///
    /// # Errors
    ///
    /// Returns an error if the key is invalid for the machine.
    ///
    /// # Panics
    ///
    /// Panics if any id in `ids` is not live.
    pub fn protect(
        &self,
        thread: ThreadId,
        ids: &[ObjectId],
        key: ProtectionKey,
    ) -> Result<(), ProtectError> {
        let ranges: Vec<(VirtPage, u64)> = ids
            .iter()
            .map(|&id| {
                let info = self
                    .object(id)
                    .unwrap_or_else(|| panic!("protect of unknown object {id}"));
                (info.first_page, info.page_count)
            })
            .collect();
        self.retag(thread, &ranges, key)
    }

    /// One `pkey_mprotect` call over `ranges`, its charged cost recorded
    /// in the `mprotect` histogram (deterministic under the virtual clock,
    /// so the distribution matches what threads actually pay).
    fn retag(
        &self,
        thread: ThreadId,
        ranges: &[(VirtPage, u64)],
        key: ProtectionKey,
    ) -> Result<(), ProtectError> {
        let result = self.machine.pkey_mprotect(thread, ranges, key);
        if result.is_ok() && !ranges.is_empty() && self.telemetry.enabled() {
            let charged = self.machine.cost_model().pkey_mprotect_call(ranges.len());
            self.telemetry.histograms().mprotect.record(charged);
        }
        result
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> AllocStats {
        self.stats.snapshot()
    }
}

impl fmt::Debug for KardAlloc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KardAlloc")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_sim::{page_slot, AccessKind, CodeSite, MachineConfig, PageSpine};
    use crate::magazine::NUM_CLASSES;

    /// Paper-semantics fixture: the sharded baseline, whose per-object
    /// `mmap` and strict bump order are what Figure 2 describes.
    fn setup() -> (Arc<Machine>, ThreadId, KardAlloc) {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let thread = machine.register_thread();
        let alloc = KardAlloc::sharded(Arc::clone(&machine));
        (machine, thread, alloc)
    }

    /// Three-tier fixture: the production default.
    fn setup_magazine() -> (Arc<Machine>, ThreadId, KardAlloc) {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let thread = machine.register_thread();
        let alloc = KardAlloc::new(Arc::clone(&machine));
        (machine, thread, alloc)
    }

    #[test]
    fn figure2_128_small_objects_share_one_frame() {
        let (machine, t, alloc) = setup();
        let infos: Vec<_> = (0..128).map(|_| alloc.alloc(t, 32)).collect();
        // 128 * 32 B = 4096 B: exactly one physical frame.
        assert_eq!(machine.mem_stats().file_bytes, PAGE_SIZE);
        // ...but 128 distinct virtual pages.
        let mut pages: Vec<_> = infos.iter().map(|i| i.first_page).collect();
        pages.sort();
        pages.dedup();
        assert_eq!(pages.len(), 128);
        // Page-internal shifts make physical extents disjoint.
        let mut offsets: Vec<_> = infos.iter().map(|i| i.base.page_offset()).collect();
        offsets.sort_unstable();
        let expected: Vec<u64> = (0..128).map(|i| i * 32).collect();
        assert_eq!(offsets, expected);
        // The 129th allocation opens a second frame.
        let _ = alloc.alloc(t, 32);
        assert_eq!(machine.mem_stats().file_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn sizes_round_to_32_byte_granules() {
        let (_, t, alloc) = setup();
        assert_eq!(alloc.alloc(t, 1).rounded_size, 32);
        assert_eq!(alloc.alloc(t, 32).rounded_size, 32);
        assert_eq!(alloc.alloc(t, 33).rounded_size, 64);
        // water_nsquared's pattern (§7.5): 24 B objects waste 8 B each.
        let o = alloc.alloc(t, 24);
        assert_eq!(o.rounded_size - o.size, 8);
    }

    #[test]
    fn large_object_gets_dedicated_contiguous_pages() {
        let (machine, t, alloc) = setup();
        let o = alloc.alloc(t, 3 * PAGE_SIZE + 100);
        assert_eq!(o.page_count, 4);
        assert_eq!(o.base, o.first_page.base_addr(), "large objects are page-aligned");
        // All pages resolve back to the object.
        for i in 0..4 {
            let probe = o.first_page.add(i).base_addr().offset(5);
            assert_eq!(alloc.object_at(probe).unwrap().id, o.id);
        }
        assert_eq!(machine.mem_stats().file_bytes, 4 * PAGE_SIZE);
    }

    #[test]
    fn free_recycles_consolidation_slot() {
        let (machine, t, alloc) = setup();
        let a = alloc.alloc(t, 64);
        let slot = (a.first_page, a.base.page_offset());
        alloc.free(t, a.id);
        let b = alloc.alloc(t, 64);
        assert_eq!(b.base.page_offset(), slot.1, "slot offset must be reused");
        assert_ne!(b.first_page, slot.0, "virtual pages are never reused");
        assert_eq!(machine.mem_stats().file_bytes, PAGE_SIZE);
        assert_eq!(alloc.stats().slot_reuses, 1);
    }

    #[test]
    fn free_large_object_releases_frames() {
        let (machine, t, alloc) = setup();
        let o = alloc.alloc(t, 2 * PAGE_SIZE);
        assert_eq!(machine.mem_stats().file_bytes, 2 * PAGE_SIZE);
        alloc.free(t, o.id);
        // Frames are recycled by the next dedicated allocation.
        let _ = alloc.alloc(t, 2 * PAGE_SIZE);
        assert_eq!(machine.mem_stats().file_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn globals_are_not_consolidated() {
        let (machine, t, alloc) = setup();
        let g1 = alloc.register_global(t, 8);
        let g2 = alloc.register_global(t, 8);
        assert_eq!(g1.kind, ObjectKind::Global);
        assert_eq!(g1.base.page_offset(), 0);
        assert_ne!(g1.first_page, g2.first_page);
        // Two tiny globals still cost two whole frames (§6's overestimate).
        assert_eq!(machine.mem_stats().file_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn object_at_resolves_interior_and_page_addresses() {
        let (_, t, alloc) = setup();
        let o = alloc.alloc(t, 100); // rounded to 128
        assert_eq!(alloc.object_at(o.base).unwrap().id, o.id);
        assert_eq!(alloc.object_at(o.base.offset(127)).unwrap().id, o.id);
        // An address in the object's page but outside its bytes still
        // resolves via the page index (the page is exclusively owned).
        let page_addr = o.first_page.base_addr();
        assert_eq!(alloc.object_at(page_addr).unwrap().id, o.id);
    }

    #[test]
    fn object_at_unknown_address_is_none() {
        let (_, t, alloc) = setup();
        let o = alloc.alloc(t, 32);
        alloc.free(t, o.id);
        assert_eq!(alloc.object_at(o.base), None);
    }

    #[test]
    fn protect_retags_every_page() {
        let (machine, t, alloc) = setup();
        let o = alloc.alloc(t, 2 * PAGE_SIZE);
        alloc.protect(t, &[o.id], ProtectionKey(5)).unwrap();
        for i in 0..o.page_count {
            assert_eq!(machine.page_key(o.first_page.add(i)), Some(ProtectionKey(5)));
        }
    }

    #[test]
    fn allocated_memory_is_accessible_through_machine() {
        let (machine, t, alloc) = setup();
        let o = alloc.alloc(t, 48);
        machine
            .access(t, o.base.offset(40), AccessKind::Write, CodeSite(1))
            .expect("default-key access must succeed");
    }

    #[test]
    fn stats_track_live_objects_and_waste() {
        let (_, t, alloc) = setup();
        let a = alloc.alloc(t, 24); // waste 8
        let _b = alloc.alloc(t, 32); // waste 0
        assert_eq!(alloc.stats().live_objects, 2);
        assert_eq!(alloc.stats().rounding_waste_bytes, 8);
        alloc.free(t, a.id);
        let s = alloc.stats();
        assert_eq!(s.live_objects, 1);
        assert_eq!(s.rounding_waste_bytes, 0);
        assert_eq!(s.allocations, 2);
        assert_eq!(s.frees, 1);
    }

    #[test]
    fn live_objects_snapshot_in_allocation_order() {
        let (_, t, alloc) = setup();
        let a = alloc.alloc(t, 32);
        let b = alloc.alloc(t, 32);
        let ids: Vec<_> = alloc.live_objects().iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![a.id, b.id]);
    }

    #[test]
    fn concurrent_alloc_free_is_coherent() {
        let (_, _, alloc) = setup();
        let machine = Arc::clone(alloc.machine());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let alloc = &alloc;
                let machine = &machine;
                s.spawn(move || {
                    let t = machine.register_thread();
                    let mut live = Vec::new();
                    for i in 0..64u64 {
                        let o = alloc.alloc(t, 24 + (i % 4) * 32);
                        assert_eq!(alloc.object_at(o.base).unwrap().id, o.id);
                        live.push(o.id);
                        if i % 3 == 0 {
                            alloc.free(t, live.swap_remove(0));
                        }
                    }
                    for id in live {
                        alloc.free(t, id);
                    }
                });
            }
        });
        let s = alloc.stats();
        assert_eq!(s.allocations, 4 * 64);
        assert_eq!(s.frees, 4 * 64);
        assert_eq!(s.live_objects, 0);
        assert_eq!(s.rounding_waste_bytes, 0);
    }

    // ----- magazine-mode behaviour -----

    #[test]
    fn magazine_fast_path_hits_after_first_refill() {
        let (_, t, alloc) = setup_magazine();
        let infos: Vec<_> = (0..16).map(|_| alloc.alloc(t, 32)).collect();
        let s = alloc.stats();
        assert_eq!(s.allocations, 16);
        // Adaptive batches 4+8+16 cover 16 allocations in 3 refills;
        // only the refill-triggering allocation misses the fast path.
        assert_eq!(s.slab_refills, 3);
        assert_eq!(s.fast_path_hits, 13);
        // Every object resolves through the lock-free tables.
        for o in &infos {
            assert_eq!(alloc.object_at(o.base).unwrap().id, o.id);
        }
        // Distinct pages, consolidated offsets.
        let mut pages: Vec<_> = infos.iter().map(|i| i.first_page).collect();
        pages.sort();
        pages.dedup();
        assert_eq!(pages.len(), 16);
    }

    #[test]
    fn a_fast_path_allocation_records_one_event() {
        let (_, t, alloc) = setup_magazine();
        // The first allocation refills a batch of 4, leaving 3 prepared.
        let _ = alloc.alloc(t, 32);
        alloc.telemetry().set_enabled(true);
        let hits = alloc.stats().fast_path_hits;
        let infos: Vec<_> = (0..3).map(|_| alloc.alloc(t, 32)).collect();
        assert_eq!(alloc.stats().fast_path_hits - hits, 3, "all three rode the fast path");
        let drained = alloc.telemetry().drain();
        assert_eq!(drained.dropped, 0);
        let events: Vec<_> = drained.events.iter().map(|e| (e.kind, e.a)).collect();
        let expected: Vec<_> = infos.iter().map(|o| (EventKind::ObjectAlloc, o.id.0)).collect();
        assert_eq!(events, expected, "one ObjectAlloc per allocation and nothing else");
    }

    #[test]
    fn magazine_refill_batches_mmap_syscalls() {
        let (machine, t, alloc) = setup_magazine();
        let before = machine.counters().mmap;
        for _ in 0..28 {
            let _ = alloc.alloc(t, 32);
        }
        // 28 allocations ride 3 batched refills (4 + 8 + 16).
        assert_eq!(machine.counters().mmap - before, 3);
    }

    #[test]
    fn magazine_owner_free_recycles_through_refill() {
        let (_, t, alloc) = setup_magazine();
        let ids: Vec<_> = (0..64).map(|_| alloc.alloc(t, 64).id).collect();
        for id in ids {
            alloc.free(t, id);
        }
        let before = alloc.stats();
        // Churn past the leftover prepared stock: the next refill must
        // feed on the recycled raw extents.
        for _ in 0..64 {
            let o = alloc.alloc(t, 64);
            assert_eq!(alloc.object_at(o.base).unwrap().id, o.id);
        }
        let after = alloc.stats();
        assert!(after.slot_reuses > before.slot_reuses, "refill reused recycled extents");
    }

    #[test]
    fn magazine_pages_are_never_reused() {
        let (_, t, alloc) = setup_magazine();
        let a = alloc.alloc(t, 32);
        alloc.free(t, a.id);
        assert_eq!(alloc.object_at(a.base), None, "freed address resolves to nothing");
        for _ in 0..64 {
            let b = alloc.alloc(t, 32);
            assert_ne!(b.first_page, a.first_page, "virtual pages are never reused");
        }
        assert_eq!(alloc.object_at(a.base), None);
    }

    #[test]
    fn remote_free_travels_to_owner_queue_and_drains() {
        let (machine, t_owner, alloc) = setup_magazine();
        let t_free = machine.register_thread();
        let ids: Vec<_> = (0..8).map(|_| alloc.alloc(t_owner, 32).id).collect();
        for id in &ids {
            alloc.free(t_free, *id);
        }
        let s = alloc.stats();
        assert_eq!(s.remote_free_pushes, 8);
        assert_eq!(s.frees, 8);
        assert_eq!(s.remote_free_drained, 0, "not yet drained");
        // The owner's next refill drains the queue.
        for _ in 0..32 {
            let _ = alloc.alloc(t_owner, 32);
        }
        assert_eq!(alloc.stats().remote_free_drained, 8);
    }

    #[test]
    fn thread_exit_flushes_magazine_and_closes_queue() {
        let (machine, t_owner, alloc) = setup_magazine();
        let t_free = machine.register_thread();
        let keep: Vec<_> = (0..4).map(|_| alloc.alloc(t_owner, 32).id).collect();
        alloc.free(t_owner, keep[0]);
        alloc.on_thread_exit(t_owner);
        // Prepared + dirty pages are all retired; live objects remain live.
        for id in &keep[1..] {
            assert!(alloc.object(*id).is_some());
        }
        // A remote free after exit routes to the global pool immediately.
        let retired_before = alloc.stats().pages_retired;
        alloc.free(t_free, keep[1]);
        let s = alloc.stats();
        assert_eq!(s.remote_free_pushes, 0, "closed queue refuses the push");
        assert_eq!(s.pages_retired, retired_before + 1);
        // The extent is reusable from the global pool.
        let o = alloc.alloc(t_free, 32);
        assert_eq!(alloc.object_at(o.base).unwrap().id, o.id);
    }

    /// An exited thread's magazine gives its caches and dirty buffer
    /// back; its next allocation rebuilds them, and its remote queue
    /// stays closed.
    #[test]
    fn thread_exit_frees_the_magazine_caches_and_the_next_alloc_rebuilds_them() {
        let (machine, t, alloc) = setup_magazine();
        let other = machine.register_thread();
        let kept = alloc.alloc(t, 32);
        alloc.free(t, alloc.alloc(t, 64).id);
        let held = |alloc: &KardAlloc| {
            let mut guard = alloc.magazine(t).engage();
            let inner = guard.inner();
            (inner.classes.len(), inner.dirty.capacity())
        };
        assert_eq!(held(&alloc).0, NUM_CLASSES);
        alloc.on_thread_exit(t);
        assert_eq!(held(&alloc), (0, 0), "no class array, no dirty buffer");
        alloc.on_thread_exit(t);
        assert_eq!(held(&alloc), (0, 0), "a second exit builds nothing");

        let again = alloc.alloc(t, 32);
        assert_eq!(alloc.object_at(again.base).unwrap().id, again.id);
        assert_eq!(held(&alloc).0, NUM_CLASSES);
        // The queue closed at the first exit stays closed.
        alloc.free(other, kept.id);
        assert_eq!(alloc.stats().remote_free_pushes, 0);
        alloc.free(t, again.id);
        alloc.on_thread_exit(t);
        assert_eq!(machine.mapped_pages(), 0, "no page stranded");
    }

    #[test]
    fn magazine_free_before_refill_then_exit_strands_nothing() {
        let (machine, t, alloc) = setup_magazine();
        let a = alloc.alloc(t, 96);
        let mapped_live = machine.mapped_pages();
        alloc.free(t, a.id);
        alloc.on_thread_exit(t);
        // Every page the magazine ever mapped is unmapped again.
        assert_eq!(machine.mapped_pages(), 0, "was {mapped_live} while live");
        assert_eq!(alloc.stats().live_objects, 0);
    }

    /// Pages are never reused, so churn alone walks a long-lived allocator
    /// past the page table's first 16 Mi pages. Objects out there resolve
    /// and free exactly as near ones do: lock-free, and leaving nothing
    /// mapped behind.
    #[test]
    fn objects_past_the_first_16_mi_pages_resolve_with_zero_allocator_locks_and_strand_nothing() {
        let (machine, t, alloc) = setup_magazine();
        let first = alloc.alloc(t, 64); // leaves first-level prepared stock
        let _ = machine.reserve_pages(1 << 24);
        let mut objs: Vec<_> = (0..8).map(|_| alloc.alloc(t, 64)).collect();
        let far = |o: &ObjectInfo| page_slot(o.first_page).unwrap() >= PageSpine::<()>::FIRST_LEVEL;
        assert!(!far(&objs[0]), "the stock is used up first");
        assert!(far(&objs[7]), "then the far level is reached");
        objs.push(first);
        let locks = alloc.alloc_lock_acquisitions();
        for o in &objs {
            assert_eq!(alloc.object_at(o.base).unwrap().id, o.id);
        }
        for o in &objs {
            alloc.free(t, o.id);
            assert!(alloc.object_at(o.base).is_none());
        }
        assert_eq!(alloc.alloc_lock_acquisitions(), locks, "lookups and frees took a lock");
        alloc.on_thread_exit(t);
        assert_eq!(machine.mapped_pages(), 0, "no page stranded");
        assert_eq!(alloc.stats().live_objects, 0);
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .expect("a text panic")
    }

    /// Every kind of object — a magazine slot, a sharded slot, an object
    /// of a page or more, a global — lives in the one lock-free table, so
    /// the record side of a lookup, a snapshot or a free takes no
    /// allocator lock in either mode; and every refused free (a global,
    /// a double free, an unknown id) says why.
    #[test]
    fn every_object_kind_resolves_and_frees_with_zero_allocator_locks() {
        for sharded in [false, true] {
            let (_, t, alloc) = if sharded { setup() } else { setup_magazine() };
            let small = alloc.alloc(t, 48);
            let large = alloc.alloc(t, 2 * PAGE_SIZE + 8);
            let global = alloc.register_global(t, 16);
            assert_eq!(large.page_count, 3);
            let locks = alloc.alloc_lock_acquisitions();
            for o in [small, large, global] {
                assert_eq!(alloc.object(o.id), Some(o));
                let last_page = o.first_page.add(o.page_count - 1);
                for addr in [o.base.offset(8), last_page.base_addr().offset(8)] {
                    assert_eq!(alloc.object_at(addr), Some(o));
                }
            }
            assert_eq!(alloc.live_objects(), vec![small, large, global]);
            assert_eq!(alloc.alloc_lock_acquisitions(), locks, "a lookup took a lock");

            // A global cannot be freed, and the refusal leaves it live.
            let refused = panic_message(|| alloc.free(t, global.id));
            assert_eq!(refused, "globals cannot be freed");
            assert_eq!(alloc.object_at(global.base), Some(global));

            // A sharded slot is retired at once, its extent returned under
            // the pool's lock; a magazine slot waits on its owner's dirty
            // list. Large pages are retired either way, with no lock.
            let (retired, locks) = (alloc.stats().pages_retired, alloc.alloc_lock_acquisitions());
            alloc.free(t, small.id);
            alloc.free(t, large.id);
            let sharded_slot = u64::from(sharded);
            assert_eq!(alloc.stats().pages_retired, retired + sharded_slot + 3);
            assert_eq!(alloc.alloc_lock_acquisitions(), locks + sharded_slot);
            let locks = alloc.alloc_lock_acquisitions();
            for o in [small, large] {
                assert_eq!(alloc.object(o.id), None);
                assert_eq!(alloc.object_at(o.base), None);
            }
            assert_eq!(alloc.live_objects(), vec![global]);
            assert_eq!(alloc.alloc_lock_acquisitions(), locks, "a lookup took a lock");

            for id in [small.id, large.id, ObjectId(9_999)] {
                let message = panic_message(|| alloc.free(t, id));
                assert_eq!(message, format!("free of unknown or already-freed object {id}"));
            }
            assert_eq!(alloc.stats().live_objects, 1);
        }
    }

    #[test]
    fn provision_key_pretags_magazine_and_sharded_objects() {
        for sharded in [false, true] {
            let machine = Arc::new(Machine::new(MachineConfig::default()));
            let t = machine.register_thread();
            let alloc = if sharded {
                KardAlloc::sharded(Arc::clone(&machine))
            } else {
                KardAlloc::new(Arc::clone(&machine))
            };
            alloc.set_provision_key(ProtectionKey(15));
            let o = alloc.alloc(t, 32);
            assert_eq!(machine.page_key(o.first_page), Some(ProtectionKey(15)));
            let g = alloc.register_global(t, 8);
            assert_eq!(machine.page_key(g.first_page), Some(ProtectionKey(15)));
        }
    }

    #[test]
    #[should_panic(expected = "before any allocation")]
    fn provision_key_after_alloc_panics() {
        let (_, t, alloc) = setup_magazine();
        let _ = alloc.alloc(t, 32);
        alloc.set_provision_key(ProtectionKey(15));
    }

    #[test]
    fn owning_thread_churn_takes_no_shared_locks_in_steady_state() {
        let (_, t, alloc) = setup_magazine();
        // Warm up: grow the batch to its ceiling and prime raw caches.
        let mut live: Vec<ObjectId> = (0..256).map(|_| alloc.alloc(t, 32).id).collect();
        for _ in 0..256 {
            alloc.free(t, live.pop().unwrap());
            live.push(alloc.alloc(t, 32).id);
        }
        let before = alloc.alloc_lock_acquisitions();
        for _ in 0..1000 {
            alloc.free(t, live.pop().unwrap());
            live.push(alloc.alloc(t, 32).id);
        }
        assert_eq!(
            alloc.alloc_lock_acquisitions(),
            before,
            "steady-state owner churn crossed a shared allocator lock"
        );
    }

    #[test]
    fn concurrent_magazine_alloc_free_is_coherent() {
        let (_, _, alloc) = setup_magazine();
        let machine = Arc::clone(alloc.machine());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let alloc = &alloc;
                let machine = &machine;
                s.spawn(move || {
                    let t = machine.register_thread();
                    let mut live = Vec::new();
                    for i in 0..64u64 {
                        let o = alloc.alloc(t, 24 + (i % 4) * 32);
                        assert_eq!(alloc.object_at(o.base).unwrap().id, o.id);
                        live.push(o.id);
                        if i % 3 == 0 {
                            alloc.free(t, live.swap_remove(0));
                        }
                    }
                    for id in live {
                        alloc.free(t, id);
                    }
                    alloc.on_thread_exit(t);
                });
            }
        });
        let s = alloc.stats();
        assert_eq!(s.allocations, 4 * 64);
        assert_eq!(s.frees, 4 * 64);
        assert_eq!(s.live_objects, 0);
        assert_eq!(s.rounding_waste_bytes, 0);
    }
}
