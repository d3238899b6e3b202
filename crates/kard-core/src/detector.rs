//! The full Kard detector: Algorithm 1 realized over simulated MPK.
//!
//! One [`Kard`] instance monitors one program execution. Program events —
//! allocations, lock/unlock, memory accesses — are reported through its
//! methods; the detector maintains the protection domains (§5.2), handles
//! every simulated #GP (§5.3–§5.5), and accumulates race reports and
//! statistics.
//!
//! # Concurrency architecture
//!
//! The paper's runtime serializes its bookkeeping with "internal
//! synchronization (i.e., atomic operations)". Earlier versions of this
//! detector realized that with a single `Mutex<State>` around everything;
//! this version decomposes the state by concern so that independent
//! operations synchronize independently:
//!
//! * **per-thread state** (`ThreadSlot`): each thread's critical-section
//!   frames, held keys, unique-section set, and section-plan cache live in
//!   that thread's own slot — published once into a lock-free
//!   [`Registry`] and guarded by an [`OwnedCell`] engage CAS, so
//!   neither finding nor opening a thread's own state takes any shared
//!   lock;
//! * **lock-free domains**: an object's protection domain is one atomic
//!   word in the flat side metadata ([`crate::sidemeta`]), indexed by
//!   object id and reached through `set_domain` / `domain` /
//!   `take_domain` (store / load / swap). Ids beyond the table's
//!   capacity keep their domain in a small sharded overflow map that
//!   the side metadata owns, behind the same three calls;
//! * **per-concern locks**: the key-section map, the section-object map,
//!   the interleaver, and the race-record store each have their own
//!   narrow lock — but the *common* (no-conflict) section entry/exit
//!   never reaches any of them: proactive key acquisition rides a
//!   per-thread plan cache validated by a global generation counter plus
//!   one CAS on the key's holder word ([`KeyWords`]), and key release is
//!   one CAS the same way. Any mismatch — nested entry, stale generation,
//!   contended key, multi-key plan — falls back to the locked slow path,
//!   which accounts the same charges, events, and stats;
//! * **lock-free counters**: statistics and the active-section count are
//!   relaxed atomics ([`AtomicStats`]);
//! * **per-thread armed/participating flags**: delay injection (§5.5) and
//!   the exit-time interleaver check consult relaxed per-thread atomic
//!   counters mirroring the interleaver's participation, so a section
//!   exit takes the interleaver lock only when this thread is actually
//!   inside an interleaving.
//!
//! The lock-free read side is governed by two published words (the full
//! memory-ordering protocol is documented in DESIGN.md §5c):
//!
//! * `cache_gen`, a global generation counter bumped (SeqCst) *after*
//!   every mutation that can invalidate a cached section plan — domain
//!   migrations, section-map growth, key recycling and eviction, arming,
//!   suspension/restoration, and frees. A plan snapshots the counter
//!   *before* reading the maps and re-validates it after committing its
//!   key CAS, so a plan built from a torn read can never validate
//!   (seqlock-style: writers bump after, readers load before);
//! * per-key holder words ([`KeyWords`]): `EMPTY` means *no holder
//!   anywhere* — fast acquire/release is a CAS on the word. Every
//!   key-table guard first parks the words at `SLOW` and materializes
//!   fast holders into the table ([`KeyWords::sync`]), and republishes
//!   `EMPTY` for unheld keys on drop ([`KeyWords::republish`]), so the
//!   locked world always sees a complete table and the two faces never
//!   disagree.
//!
//! Locking discipline (see DESIGN.md for the full argument):
//!
//! 1. the **fault path** is serialized *per object* by the fault shards
//!    ([`crate::faultshard`]): the fault handler, `on_free`, and
//!    `lock_exit`'s restoration of a finished interleaving each lock the
//!    affected object's shard, so faults on unrelated objects run fully
//!    in parallel while every operation racing on the *same* object
//!    keeps mutual exclusion. `on_thread_exit` (whose page retirement
//!    can affect any object) locks all shards in ascending index order.
//!    The shards sit at the **top** of the lock order: a blocking shard
//!    acquisition is legal only while holding no other detector lock;
//! 2. with a fault shard held, the arming sequence in `handle_pool_fault`
//!    holds the key-table guard across the interleaver and thread-registry
//!    acquisitions (order: `keys` → `interleaver`/`threads`), so that a
//!    holder's key release — the event that precedes its departure from
//!    the interleaver — cannot interleave with `Interleaver::begin`;
//!    likewise the virtualized assignment path holds the key-table guard
//!    across the vkey-table acquisition (order: `keys` → `vkeys`, never
//!    the reverse) so a cache decision and the key-section map it was
//!    made against stay coherent;
//! 3. key recycling and vkey eviction demote *other* objects than the
//!    faulted one, so those paths extend their mutual exclusion to the
//!    victims with [`crate::faultshard::ShardClaims`] — secondary shard
//!    locks taken with `try_lock` only, while the inner guards of rule 2
//!    are held. A refused claim selects a different victim (falling
//!    through to §5.4 rule-3b sharing if none is claimable) instead of
//!    waiting, so no lock-order cycle can form;
//! 4. every other lock is a **leaf**: it is acquired, used, and released
//!    without taking any other detector lock while held. The per-thread
//!    [`OwnedCell`] contexts follow the same rule from the other side:
//!    a context is never engaged while `keys`, `vkeys`, or the
//!    interleaver is held, and an engaged closure never acquires any
//!    detector lock, so the engage spin is bounded and cycle-free;
//! 5. the allocator's own synchronization nests strictly *under* the
//!    detector's: `on_free` and `on_thread_exit` hold fault shards while
//!    calling into the allocator, whose order is magazine engage check →
//!    allocator shard locks → machine internals, and no allocator path
//!    ever calls back into a detector lock.
//!
//! No path acquires the key table while holding the interleaver or the
//! registry, blocking shard acquisitions happen only at fault-path entry
//! (rule 1), and the only other cross-lock holds are rule 2's guard
//! chains and rule 3's non-blocking claims, so the lock graph has no
//! cycle and the detector is deadlock-free by construction. Accesses
//! that do not fault never take *any* detector
//! lock — they only consult the simulated hardware, which is the whole
//! point of the design (no per-access instrumentation); every detector
//! lock counts its acquisitions so `tests/no_lock_overhead.rs` can assert
//! exactly that via [`Kard::detector_lock_acquisitions`].

use crate::assignment::{choose_key, choose_virtual, Assignment, Eviction, VAssignment};
use crate::budget::{BudgetController, BudgetDecision, BudgetTick, ProductionStats};
use crate::config::KardConfig;
use crate::domains::Domain;
use crate::error::KardError;
use crate::faultshard::{FaultPathGuard, FaultShardStats, FaultShards};
use crate::interleave::{Interleaver, Observation, Verdict};
use crate::keymap::{KeyTable, KeyWords};
use crate::registry::{FastBuildHasher, OwnedCell};
use crate::report::{RaceFingerprint, RaceRecord, RaceSide};
use crate::sections::SectionObjectMap;
use crate::sidemeta::SideMetadata;
use crate::stats::{AtomicStats, DetectorStats, KardSnapshot};
use crate::sync::{TrackedMutex, TrackedRwLock};
use crate::types::{LockId, Perm, SectionId, SectionMode};
use crate::vkey::{LogicalHolder, VKeyStats, VKeyTable};
use kard_alloc::{KardAlloc, ObjectId, ObjectInfo};
use kard_telemetry::event::{pack_domains, DomainCode, GRANT_PROACTIVE, GRANT_REACTIVE};
use kard_telemetry::{Analyzer, AnomalySignal, AnomalyStats, Drained, EventKind, Telemetry};
use kard_sim::{
    AccessKind, CodeSite, CostModel, GpFault, KeyLayout, Machine, Permission, Pkru, ProtectionKey,
    Registry, ThreadId, VirtAddr,
};
use parking_lot::MutexGuard;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// What the fault handler tells the access loop to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultAction {
    /// Protection changed; re-execute the access.
    Retry,
    /// The handler emulated the access (single-step analog); do not retry.
    Emulated,
}

/// A one-element-inline vector: the common section acquires zero or one
/// key, and the entry/exit fast path must not heap-allocate for it. Only
/// multi-key sections spill.
#[derive(Clone, Debug)]
struct TinyVec<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> TinyVec<T> {
    fn new() -> TinyVec<T> {
        TinyVec {
            first: None,
            rest: Vec::new(),
        }
    }

    fn push(&mut self, value: T) {
        if self.first.is_none() {
            self.first = Some(value);
        } else {
            self.rest.push(value);
        }
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.first.iter().chain(self.rest.iter())
    }

    fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
        self.rest.retain(&mut f);
        if self.first.as_ref().is_some_and(|v| !f(v)) {
            self.first = if self.rest.is_empty() {
                None
            } else {
                Some(self.rest.remove(0))
            };
        }
    }
}

#[derive(Clone, Debug)]
struct Frame {
    section: SectionId,
    lock: LockId,
    saved_pkru: Pkru,
    /// Virtual-clock time of section entry (for the hold-time histogram).
    entered: u64,
    /// Keys whose table state this frame changed: `(key, previous perm)` —
    /// `None` means newly acquired (release on exit), `Some(p)` means
    /// widened from `p` (downgrade on exit).
    acquired: TinyVec<(ProtectionKey, Option<Perm>)>,
}

/// A memoized proactive-acquisition plan for one `(section, mode)` pair:
/// what the locked entry path computed the last time it ran, replayable
/// without locks while `gen` still matches the global `cache_gen`.
#[derive(Clone, Copy, Debug)]
struct CachedEntry {
    /// `cache_gen` snapshot taken *before* the maps were read; a bump
    /// after any invalidating mutation makes the entry unreplayable.
    gen: u64,
    /// Length of the section's wanted list (for the map-lookup charge).
    wanted_len: u64,
    /// The single key+permission to acquire, when `fast`.
    target: Option<(ProtectionKey, Perm)>,
    /// Replayable with one CAS: at most one acquisition step. Multi-key
    /// and permission-widening plans always take the locked path.
    fast: bool,
}

/// What a fast section entry is about to replay (resolved from the cache
/// or trivially, under the thread's own context cell).
#[derive(Clone, Copy, Debug)]
struct FastPlan {
    /// Replay proactive-path charges (`false` when proactive acquisition
    /// is disabled — the slow path charges nothing for maps then either).
    proactive: bool,
    gen: u64,
    wanted_len: u64,
    target: Option<(ProtectionKey, Perm)>,
}

#[derive(Debug, Default)]
struct ThreadCtx {
    frames: Vec<Frame>,
    /// Read-write pool keys this thread holds, with permissions. Thread-
    /// private, so the cheap [`FastBuildHasher`] is safe here and in the
    /// two maps below.
    held: HashMap<ProtectionKey, Perm, FastBuildHasher>,
    /// Distinct sections this thread ever entered; [`Kard::stats`] takes
    /// the union across threads, so section entry never touches a shared
    /// set.
    unique_sections: HashSet<SectionId, FastBuildHasher>,
    /// Memoized entry plans, one per `(section, mode)` this thread has
    /// entered through the slow path.
    section_cache: HashMap<(SectionId, SectionMode), CachedEntry, FastBuildHasher>,
}

/// One registered thread's detector-private state. Slots sit side by
/// side in the registry's chunks, so each is aligned to its own cache
/// lines: the owning thread's entry/exit traffic (the engage CAS, the
/// per-thread counters) never false-shares with a neighbour's.
#[repr(align(128))]
struct ThreadSlot {
    /// Frames, held keys, and per-thread caches — engaged by the owning
    /// thread's entry/exit calls, the (serialized) fault path, and rare
    /// cross-thread visitors (eviction stripping, stats merging).
    ctx: OwnedCell<ThreadCtx>,
    /// Number of *armed* protection interleavings this thread participates
    /// in. Mirrors `Interleaver::has_armed_participant` so the delay
    /// check at section exit is a single relaxed load (§5.5).
    armed: AtomicUsize,
    /// Number of interleavings (armed or suspended) whose participant set
    /// contains this thread. Zero means
    /// `Interleaver::thread_left_critical_sections` would be a no-op, so
    /// the lock-free exit path skips the interleaver lock entirely.
    participating: AtomicUsize,
    /// Section entries by this thread. Written only by the owning thread
    /// and summed into [`DetectorStats::cs_entries`] at snapshot time, so
    /// the entry path never touches a shared stats cache line.
    cs_entries: AtomicU64,
    /// Proactive key grants performed by this thread's entries (summed
    /// into [`DetectorStats::proactive_acquisitions`]).
    proactive_acquisitions: AtomicU64,
    /// Section-plan cache hits (fast entries replayed from the cache).
    cache_hits: AtomicU64,
    /// Section-plan cache misses (eligible entries that fell back to the
    /// locked path: cold cache, stale generation, or contended key).
    cache_misses: AtomicU64,
}

impl ThreadSlot {
    fn new() -> ThreadSlot {
        ThreadSlot {
            ctx: OwnedCell::new(ThreadCtx::default()),
            armed: AtomicUsize::new(0),
            participating: AtomicUsize::new(0),
            cs_entries: AtomicU64::new(0),
            proactive_acquisitions: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }
}

/// Race records plus the dedup fingerprints guarding them — one concern,
/// one lock.
#[derive(Default)]
struct RecordStore {
    records: Vec<Option<RaceRecord>>,
    seen: HashSet<RaceFingerprint>,
}

/// The `keys` mutex guard with the lock-free holder words kept coherent:
/// created via [`Kard::lock_keys`] (which syncs fast holders into the
/// table), dereferences to the [`KeyTable`], and republishes the fast
/// path on drop — while the mutex is still held, so no fast CAS can slip
/// in between the republish and the release.
struct KeysGuard<'a> {
    table: MutexGuard<'a, KeyTable>,
    words: &'a KeyWords,
}

impl Deref for KeysGuard<'_> {
    type Target = KeyTable;
    fn deref(&self) -> &KeyTable {
        &self.table
    }
}

impl DerefMut for KeysGuard<'_> {
    fn deref_mut(&mut self) -> &mut KeyTable {
        &mut self.table
    }
}

impl Drop for KeysGuard<'_> {
    fn drop(&mut self) {
        self.words.republish(&self.table);
    }
}

/// The Kard dynamic data race detector. See the
/// [crate-level example](crate) for typical usage.
pub struct Kard {
    machine: Arc<Machine>,
    alloc: Arc<KardAlloc>,
    config: KardConfig,
    layout: KeyLayout,
    /// Copy of the machine's (immutable) cost model, so hot paths read
    /// the charge constants without re-copying the whole struct from the
    /// machine on every section entry and exit.
    cost: CostModel,
    /// Total lock acquisitions across every detector lock (see
    /// [`Kard::detector_lock_acquisitions`]).
    lock_acquisitions: Arc<AtomicU64>,
    /// Per-object fault serialization (see [`crate::faultshard`]). Only
    /// fault-shard guards (and the rule-2 guard chains under them) are
    /// ever held across other detector-lock acquisitions.
    fault_shards: FaultShards,
    /// Registered threads, indexed by dense `ThreadId`. Published once at
    /// registration; lookup and iteration are lock-free.
    threads: Registry<ThreadSlot>,
    /// The section-object map (§5.3, Figure 3a).
    sections: TrackedRwLock<SectionObjectMap>,
    /// The key-section map (§5.4, Figure 3b). Acquired only through
    /// [`Kard::lock_keys`], which keeps the lock-free holder words and
    /// the table coherent.
    keys: TrackedMutex<KeyTable>,
    /// The pool keys' lock-free face: CAS-published holder words that let
    /// an uncontended acquire/release skip the `keys` mutex entirely.
    words: KeyWords,
    /// Generation counter over everything a cached section plan depends
    /// on (section-object map, domains, key assignment). Bumped *after*
    /// each invalidating mutation; plans snapshot it *before* reading
    /// and re-validate after committing, so torn reads never validate.
    cache_gen: AtomicU64,
    /// The virtual→hardware key cache (see [`crate::vkey`]); consulted
    /// only when [`KardConfig::virtual_keys`] is on. When held together
    /// with `keys`, `keys` is always acquired first (order: `keys` →
    /// `vkeys`, never the reverse).
    vkeys: TrackedMutex<VKeyTable>,
    /// Flat id-indexed side metadata (see [`crate::sidemeta`]): every
    /// object's domain, the lock-free mirror of vkey membership, and the
    /// hotness counters that drive
    /// [`KeyCachePolicy::Hotness`](crate::vkey::KeyCachePolicy::Hotness)
    /// eviction. Every write lands *before* the `cache_gen` bump of the
    /// mutation it records, so the seqlock protocol that protects cached
    /// section plans also covers metadata staleness: a plan built from a
    /// stale word fails generation re-validation.
    sidemeta: SideMetadata,
    /// The protection-interleaving engine (§5.5, Figure 4).
    interleaver: TrackedMutex<Interleaver>,
    /// Race records and dedup fingerprints (§5.5).
    records: TrackedMutex<RecordStore>,
    /// Lock-free statistic counters.
    stats: AtomicStats,
    /// Critical sections currently in flight.
    active_sections: AtomicU64,
    /// Telemetry hub (shared with the allocator and the runtime). Every
    /// emission site gates on one relaxed enabled-load; recording itself
    /// is lock-free and allocation-free, so no detector path changes
    /// locking behaviour when tracing is on.
    telemetry: Arc<Telemetry>,
    /// Production-mode overhead-budget controller (see [`crate::budget`]).
    /// Inert (one plain bool test per gated site) unless
    /// [`KardConfig::production`] is on; its decisions are relaxed atomic
    /// loads, and its control loop runs only in [`Kard::production_tick`]
    /// on the drain side.
    budget: BudgetController,
    /// Drain-side anomaly analyzer ([`kard_telemetry::analyze`]); `None`
    /// when [`KardConfig::anomaly_detection`] is off. Pure telemetry
    /// consumer: it runs only in [`Kard::observe_drained`], holds an
    /// untracked drain-side mutex, and never touches the recording path.
    analyzer: Option<Analyzer>,
    /// Signals fired but not yet collected by
    /// [`Kard::take_anomaly_signals`] (the firehose server drains these
    /// to attribute suspects to sessions). Drain-side only.
    pending_anomalies: parking_lot::Mutex<Vec<AnomalySignal>>,
}

impl Kard {
    /// Create a detector over `machine` and `alloc`.
    #[must_use]
    pub fn new(machine: Arc<Machine>, alloc: Arc<KardAlloc>, config: KardConfig) -> Kard {
        let layout = machine.key_layout();
        // Declare `k_na` as the allocator's provision key: magazine refills
        // then fold the Not-accessed tagging of a whole slab batch into one
        // batched `pkey_mprotect`, and the sharded path pretags per object,
        // so `on_alloc`/`on_global` can skip the detector's own per-object
        // protect. Only possible while the allocator is fresh; over a
        // pre-used allocator the detector falls back to per-object tagging.
        let pre = alloc.stats();
        if pre.allocations + pre.globals == 0 {
            alloc.set_provision_key(layout.not_accessed);
        }
        let counter = Arc::new(AtomicU64::new(0));
        let tracked = |c: &Arc<AtomicU64>| Arc::clone(c);
        let telemetry = Arc::clone(alloc.telemetry());
        Kard {
            cost: *machine.cost_model(),
            machine,
            alloc,
            config,
            layout,
            fault_shards: FaultShards::new(),
            threads: Registry::new(),
            sections: TrackedRwLock::new(SectionObjectMap::new(), tracked(&counter)),
            keys: TrackedMutex::new(KeyTable::new(&layout), tracked(&counter)),
            words: KeyWords::new(&layout),
            cache_gen: AtomicU64::new(0),
            vkeys: TrackedMutex::new(
                VKeyTable::new(config.key_cache_policy),
                tracked(&counter),
            ),
            sidemeta: SideMetadata::new(&counter),
            interleaver: TrackedMutex::new(Interleaver::new(), tracked(&counter)),
            records: TrackedMutex::new(RecordStore::default(), tracked(&counter)),
            stats: AtomicStats::default(),
            active_sections: AtomicU64::new(0),
            lock_acquisitions: counter,
            telemetry,
            budget: BudgetController::new(&config),
            analyzer: config.anomaly_detection.then(|| Analyzer::new(config.anomaly)),
            pending_anomalies: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// The telemetry hub shared with the allocator and runtime.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Record a telemetry event on behalf of `t`, stamped with the global
    /// virtual clock. One relaxed load when telemetry is disabled.
    #[inline]
    fn emit(&self, t: ThreadId, kind: EventKind, a: u64, b: u64) {
        if self.telemetry.enabled() {
            self.telemetry.record(t.0, kind, self.machine.now(), a, b);
        }
    }

    /// Score a candidate victim group for [`KeyCachePolicy::Hotness`]:
    /// the heat of its hottest member (a group stays resident as long as
    /// *any* member is hot).
    fn group_heat(&self, members: &[ObjectId]) -> u64 {
        members
            .iter()
            .map(|&id| self.sidemeta.hot(id))
            .max()
            .unwrap_or(0)
    }

    /// The side metadata, for the unit tests that live next to it.
    #[cfg(test)]
    pub(crate) fn sidemeta(&self) -> &SideMetadata {
        &self.sidemeta
    }

    /// The simulated machine under this detector.
    #[must_use]
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The allocator under this detector.
    #[must_use]
    pub fn alloc(&self) -> &Arc<KardAlloc> {
        &self.alloc
    }

    /// The detector's configuration.
    #[must_use]
    pub fn config(&self) -> KardConfig {
        self.config
    }

    /// Total acquisitions of detector-internal locks so far, fault shards
    /// included. A fault-free access contributes zero — the property
    /// `tests/no_lock_overhead.rs` checks.
    #[must_use]
    pub fn detector_lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
            + self.fault_shards.stats().acquisitions
    }

    /// Fault-shard counters: total acquisitions, contended entries, and
    /// the peak number of fault-path operations in flight at once.
    #[must_use]
    pub fn fault_shard_stats(&self) -> FaultShardStats {
        self.fault_shards.stats()
    }

    /// Per-shard fault-lock acquisition counts, indexed by shard (see
    /// [`crate::faultshard::shard_of`]). Lets tests assert that a fault
    /// on one object never touches an unrelated object's shard.
    #[must_use]
    pub fn fault_shard_acquisitions(&self) -> Vec<u64> {
        self.fault_shards.per_shard_acquisitions()
    }

    /// Telemetry for a fault-path entry: feed the concurrency histogram,
    /// and emit a contention event when the entry had to wait for a shard
    /// — exactly the waits the old global fault mutex imposed on *every*
    /// concurrent fault.
    fn note_fault_entry(&self, t: ThreadId, guard: &FaultPathGuard<'_>) {
        if self.telemetry.enabled() {
            self.telemetry
                .histograms()
                .fault_concurrency
                .record(guard.concurrency());
        }
        if guard.contended() {
            self.emit(
                t,
                EventKind::FaultShardContended,
                guard.held_indices().first().copied().unwrap_or(0) as u64,
                guard.concurrency(),
            );
        }
    }

    /// The slot of a registered thread. Lock-free: two acquire loads.
    fn slot(&self, t: ThreadId) -> &ThreadSlot {
        self.threads.get(t.0).expect("unregistered thread")
    }

    /// The slot of a thread that may not be registered.
    fn try_slot(&self, t: ThreadId) -> Option<&ThreadSlot> {
        self.threads.get(t.0)
    }

    /// Acquire the key table with the lock-free holder words folded in.
    ///
    /// Every locked use of the key-section map goes through here: on
    /// acquisition [`KeyWords::sync`] parks the holder words and
    /// materializes fast holders into the table (making it authoritative
    /// for the duration), and on drop [`KeyWords::republish`] re-opens
    /// the fast path for keys the table shows as unheld.
    fn lock_keys(&self) -> KeysGuard<'_> {
        let mut table = self.keys.lock();
        self.words.sync(&mut table);
        KeysGuard {
            table,
            words: &self.words,
        }
    }

    /// Section-plan cache counters: `(hits, misses)`. Hits are entries
    /// replayed without any shared lock; misses are entries that were
    /// eligible but fell back to the locked path. Scheduling-dependent,
    /// so exposed separately from [`DetectorStats`].
    #[must_use]
    pub fn section_cache_stats(&self) -> (u64, u64) {
        let (mut hits, mut misses) = (0, 0);
        for slot in self.threads.iter() {
            hits += slot.cache_hits.load(Ordering::Relaxed);
            misses += slot.cache_misses.load(Ordering::Relaxed);
        }
        (hits, misses)
    }

    /// The PKRU policy for a thread outside any critical section: default
    /// key read-write, `k_ro` read-only (everyone can read the Read-only
    /// domain), `k_na` read-write (non-critical code touches Not-accessed
    /// objects freely), pool keys inaccessible (§5.2).
    fn base_pkru(&self) -> Pkru {
        let mut pkru = Pkru::deny_all_except_default(&self.layout);
        pkru.set_permission(self.layout.read_only, Permission::ReadOnly);
        pkru.set_permission(self.layout.not_accessed, Permission::ReadWrite);
        pkru
    }

    /// Register a program thread with the detector, installing the baseline
    /// PKRU policy.
    pub fn register_thread(&self) -> ThreadId {
        let t = self.machine.register_thread();
        self.machine.wrpkru(t, self.base_pkru());
        self.threads.publish(t.0, ThreadSlot::new());
        self.telemetry.ensure_thread(t.0);
        t
    }

    /// Intercepted heap allocation: the object starts in the Not-accessed
    /// domain, protected by `k_na`.
    pub fn on_alloc(&self, t: ThreadId, size: u64) -> ObjectInfo {
        let info = self.alloc.alloc(t, size);
        if self.alloc.provision_key() != Some(self.layout.not_accessed) {
            self.alloc
                .protect(t, info.id, self.layout.not_accessed)
                .expect("k_na is always valid");
        }
        self.sidemeta.set_domain(info.id, Domain::NotAccessed);
        info
    }

    /// Registered global variable: like a heap object, but never freed and
    /// not consolidated (§6).
    pub fn on_global(&self, t: ThreadId, size: u64) -> ObjectInfo {
        let info = self.alloc.register_global(t, size);
        if self.alloc.provision_key() != Some(self.layout.not_accessed) {
            self.alloc
                .protect(t, info.id, self.layout.not_accessed)
                .expect("k_na is always valid");
        }
        self.sidemeta.set_domain(info.id, Domain::NotAccessed);
        info
    }

    /// Intercepted `free`: all detector metadata for the object is dropped.
    ///
    /// Takes the object's fault shard so the free cannot interleave with
    /// a fault handler mid-flight on the same object (the handler
    /// re-protects objects through the allocator, which panics on unknown
    /// ids); frees of objects in other shards, and faults on them,
    /// proceed in parallel.
    pub fn on_free(&self, t: ThreadId, id: ObjectId) {
        let shard = self.fault_shards.enter_object(id);
        self.note_fault_entry(t, &shard);
        // Read the mirrored membership word *before* scrubbing the
        // metadata: a never-grouped object can skip the `vkeys` mutex
        // below. Safe because this object's membership only ever changes
        // under its fault shard, held here.
        let maybe_grouped = self.config.virtual_keys && self.sidemeta.maybe_grouped(id);
        let prev = self.sidemeta.take_domain(id);
        self.sidemeta.clear(id);
        if let Some(Domain::ReadWrite(key)) = prev {
            self.lock_keys().unassign_object(key, id);
        }
        if maybe_grouped {
            // Group membership outlives domain demotion (an evicted
            // object is Read-only but still grouped), so the free must
            // drop it explicitly.
            self.vkeys.lock().remove_member(id);
        }
        self.sections.write().remove_object(id);
        // Every map this free mutated is plan-relevant: invalidate cached
        // section plans *after* the mutations above are applied.
        self.cache_gen.fetch_add(1, Ordering::SeqCst);
        if let Some(gone) = self.interleaver.lock().forget(id) {
            if gone.was_armed && !gone.participants.is_empty() {
                self.emit(t, EventKind::InterleaveExpire, id.0, 0);
            }
            for &th in &gone.participants {
                let slot = self.slot(th);
                let prev = slot.participating.fetch_sub(1, Ordering::Relaxed);
                debug_assert!(prev > 0, "participating counter underflow");
                if gone.was_armed {
                    let prev = slot.armed.fetch_sub(1, Ordering::Relaxed);
                    debug_assert!(prev > 0, "armed counter underflow");
                }
            }
        }
        self.alloc.free(t, id);
    }

    /// Program-thread exit: flush the thread's allocation magazine —
    /// drain and close its remote-free queue (late cross-thread frees
    /// then route to the global pool instead of stranding slots), retire
    /// its dirty pages, and return its cached slots to the pool.
    ///
    /// Takes every fault shard (ascending, the multi-shard ordering
    /// rule): retirement unmaps pages, and a fault handler mid-resolution
    /// on *any* object must never observe a mapping disappear underneath
    /// it.
    pub fn on_thread_exit(&self, t: ThreadId) {
        let shard = self.fault_shards.enter_all();
        self.note_fault_entry(t, &shard);
        self.alloc.on_thread_exit(t);
    }

    /// Critical-section entry: called *after* the program's lock is
    /// acquired. `site` is the lock call site identifying the section.
    pub fn lock_enter(&self, t: ThreadId, lock: LockId, site: CodeSite) {
        self.lock_enter_mode(t, lock, site, SectionMode::Exclusive);
    }

    /// Critical-section entry with an explicit [`SectionMode`] — the
    /// shared mode models `pthread_rwlock_rdlock` sections, whose keys are
    /// capped at read-only permission so that concurrent readers of the
    /// same section can all hold them.
    pub fn lock_enter_mode(&self, t: ThreadId, lock: LockId, site: CodeSite, mode: SectionMode) {
        let cost = &self.cost;
        let section = SectionId(site);
        let slot = self.slot(t);

        slot.cs_entries.fetch_add(1, Ordering::Relaxed);
        let active = self.active_sections.fetch_add(1, Ordering::Relaxed) + 1;
        AtomicStats::raise_to(&self.stats.max_concurrent_sections, active);
        self.emit(t, EventKind::SectionEnter, section.0 .0, active);
        // One charge covers the entry bookkeeping plus internal-
        // synchronization contention (§5.4: key acquisition is protected
        // by atomic operations): every program thread contends on the
        // runtime's shared state at each section entry — cache-line
        // transfers and lock hand-offs grow with the thread count even
        // when lock diversity bounds how many sections overlap. This is
        // the dominant reason Kard's overhead rises with threads (§7.4).
        let contenders = (self.machine.thread_count() as u64)
            .saturating_sub(1)
            .min(64);
        self.machine.charge(
            t,
            cost.lock_op
                + cost.atomic_op
                + cost.atomic_op * contenders
                + cost.contended_handoff * contenders * contenders.isqrt(),
        );

        let saved_pkru = self.machine.rdpkru(t);
        let mut new_pkru = saved_pkru.clone();
        // Retract k_na: first accesses to Not-accessed objects must fault.
        new_pkru.set_permission(self.layout.not_accessed, Permission::NoAccess);
        let entered = self.machine.now();

        // Plan the entry under the thread's own cell. Eligible only at
        // nesting depth zero with nothing held, so the cached plan's
        // empty-context simulation matches reality. `None` = nested
        // (not the fast path's business); `Some(None)` = eligible but
        // no replayable plan.
        let plan: Option<Option<FastPlan>> = slot.ctx.with(|ctx| {
            if !ctx.frames.is_empty() || !ctx.held.is_empty() {
                return None;
            }
            if !self.config.proactive_acquisition {
                // Nothing to look up or acquire: the slow path would
                // charge and grant nothing either.
                return Some(Some(FastPlan {
                    proactive: false,
                    gen: 0,
                    wanted_len: 0,
                    target: None,
                }));
            }
            let gen = self.cache_gen.load(Ordering::SeqCst);
            Some(match ctx.section_cache.get(&(section, mode)) {
                Some(e) if e.fast && e.gen == gen => Some(FastPlan {
                    proactive: true,
                    gen,
                    wanted_len: e.wanted_len,
                    target: e.target,
                }),
                _ => None,
            })
        });
        if let Some(eligible) = plan {
            let committed = eligible.is_some_and(|plan| {
                self.commit_fast_enter(
                    t, slot, section, lock, &saved_pkru, &mut new_pkru, entered, plan,
                )
            });
            if committed {
                if self.config.proactive_acquisition {
                    slot.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            if self.config.proactive_acquisition {
                slot.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }

        let mut frame = Frame {
            section,
            lock,
            saved_pkru,
            entered,
            acquired: TinyVec::new(),
        };

        let mut held_updates: Vec<(ProtectionKey, Perm)> = Vec::new();
        let mut cache_update: Option<CachedEntry> = None;
        if self.config.proactive_acquisition {
            // Figure 3b: look up the section-object map, then try to
            // acquire each object's key from the key-section map. The
            // wanted list is read under its own (briefly held) lock and
            // each object's domain with one load; the acquisitions then
            // run under one key-table guard. The generation is
            // snapshotted *before* the map reads (seqlock read protocol):
            // if any invalidating mutation lands while we read, its bump
            // postdates `gen` and the cached plan below can never
            // validate.
            let gen = self.cache_gen.load(Ordering::SeqCst);
            let wanted = self.sections.read().objects_of(section);
            self.machine
                .charge(t, cost.map_op * (wanted.len() as u64 + 1));
            let wanted_len = wanted.len() as u64;
            let mut targets: Vec<(ProtectionKey, Perm)> = Vec::new();
            for (obj, perm) in wanted {
                let perm = mode.cap(perm);
                // This section is about to touch `obj`: feed the hotness
                // counter that keeps its group resident under the
                // `Hotness` eviction policy.
                self.sidemeta.bump_hot(obj);
                // Staleness of the domain read is covered by the `gen`
                // snapshot above.
                let Some(Domain::ReadWrite(key)) = self.domain_of(obj) else {
                    continue; // RO-domain objects need no key to read.
                };
                targets.push((key, perm));
            }
            cache_update = Some(Self::plan_from_targets(gen, wanted_len, &targets));
            let mut keys = self.lock_keys();
            for (key, perm) in targets {
                let prev = keys.holder_perm(key, t);
                if prev.is_some_and(|p| p >= perm) {
                    continue; // Already held strongly enough (outer frame).
                }
                self.machine.charge(t, cost.map_op);
                if keys.try_acquire(key, t, perm, section) {
                    slot.proactive_acquisitions.fetch_add(1, Ordering::Relaxed);
                    self.emit(t, EventKind::KeyGrant, u64::from(key.0), GRANT_PROACTIVE);
                    frame.acquired.push((key, prev));
                    let eff = keys.holder_perm(key, t).expect("just acquired");
                    new_pkru.set_permission(key, perm_to_permission(eff));
                    held_updates.push((key, eff));
                }
            }
        }

        slot.ctx.with(|ctx| {
            for (key, eff) in held_updates {
                ctx.held.insert(key, eff);
            }
            ctx.unique_sections.insert(section);
            if let Some(entry) = cache_update {
                ctx.section_cache.insert((section, mode), entry);
            }
            ctx.frames.push(frame);
        });
        // One WRPKRU installs k_na retraction plus all proactive grants.
        self.machine.wrpkru(t, new_pkru);
    }

    /// Simulate the locked entry path's acquisition fold from an empty
    /// context: per-key effective permission, counting strict-widening
    /// acquisition steps. The plan is replayable (`fast`) only when the
    /// whole fold is at most one step — one key, no widening — so the
    /// replay is exactly one CAS with exactly the slow path's charges,
    /// grant event, and stat bump.
    fn plan_from_targets(
        gen: u64,
        wanted_len: u64,
        targets: &[(ProtectionKey, Perm)],
    ) -> CachedEntry {
        let mut sim: HashMap<ProtectionKey, Perm> = HashMap::new();
        let mut grants = 0u64;
        for &(key, perm) in targets {
            let cur = sim.get(&key).copied();
            if cur.is_none_or(|p| p < perm) {
                grants += 1;
                sim.insert(key, cur.map_or(perm, |p| p.join(perm)));
            }
        }
        let fast = grants <= 1;
        CachedEntry {
            gen,
            wanted_len,
            target: if fast { sim.into_iter().next() } else { None },
            fast,
        }
    }

    /// Attempt the zero-shared-lock section entry: acquire the plan's key
    /// (if any) with one CAS on its holder word, re-validate the
    /// generation, replay the slow path's charges and events, and commit
    /// the frame under the thread's own cell. Returns `false` — having
    /// undone any partial effect — when the locked path must run instead.
    #[allow(clippy::too_many_arguments)]
    fn commit_fast_enter(
        &self,
        t: ThreadId,
        slot: &ThreadSlot,
        section: SectionId,
        lock: LockId,
        saved_pkru: &Pkru,
        new_pkru: &mut Pkru,
        entered: u64,
        plan: FastPlan,
    ) -> bool {
        if let Some((key, perm)) = plan.target {
            if !self.words.try_fast_acquire(key, t, perm, section) {
                return false; // Held, mid-publish, or parked: contended.
            }
            // The plan matched `cache_gen` before the CAS, but an
            // invalidating mutation (say, the key recycled to different
            // objects) may have landed in between. Re-check after the
            // acquire is visible; on mismatch retract it as if it never
            // happened.
            if self.cache_gen.load(Ordering::SeqCst) != plan.gen {
                if !self.words.undo_fast_acquire(key, t, perm) {
                    // A concurrent guard already materialized the hold
                    // into the table; strip it through the mutex.
                    self.lock_keys().strip_holder(key, t);
                }
                return false;
            }
        }
        let cost = &self.cost;
        if plan.proactive {
            // Replay exactly the locked path's map charges, grant event,
            // and stat bump for this plan (folded into one charge), so
            // both paths account the same machine work for the same
            // logical entry.
            let mut map_ops = plan.wanted_len + 1;
            if let Some((key, perm)) = plan.target {
                map_ops += 1;
                slot.proactive_acquisitions.fetch_add(1, Ordering::Relaxed);
                self.emit(t, EventKind::KeyGrant, u64::from(key.0), GRANT_PROACTIVE);
                new_pkru.set_permission(key, perm_to_permission(perm));
            }
            self.machine.charge(t, cost.map_op * map_ops);
        }
        slot.ctx.with(|ctx| {
            let mut acquired = TinyVec::new();
            if let Some((key, perm)) = plan.target {
                ctx.held.insert(key, perm);
                acquired.push((key, None));
            }
            ctx.unique_sections.insert(section);
            ctx.frames.push(Frame {
                section,
                lock,
                saved_pkru: saved_pkru.clone(),
                entered,
                acquired,
            });
        });
        self.machine.wrpkru(t, new_pkru.clone());
        true
    }

    /// Critical-section exit: called *before* the program's unlock.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced or mismatched lock/unlock pairs.
    pub fn lock_exit(&self, t: ThreadId, lock: LockId) {
        let slot = self.slot(t);
        // Delay injection (§5.5): stall the exit while an interleaving
        // this thread participates in is still waiting for the counterpart
        // fault, so small critical sections do not slip away before the
        // offset test can run. One relaxed load of the per-thread armed
        // counter — the non-faulting exit path takes no detector-wide
        // lock for this check.
        if self.config.interleave_exit_delay > 0 && slot.armed.load(Ordering::Relaxed) > 0 {
            self.machine.charge(t, self.config.interleave_exit_delay);
            // On real OS threads, actually give the counterpart a
            // chance to run; a no-op under single-threaded replay.
            std::thread::yield_now();
        }
        let cost = &self.cost;
        // One charge covers the exit bookkeeping plus the RDTSCP that
        // timestamps key releases (§5.4); the clock is read after the
        // fold, so the stamp matches what separate charges would yield.
        self.machine
            .charge(t, cost.lock_op + cost.atomic_op + cost.rdtscp);
        let now = self.machine.now();

        let (frame, releases, outside_now) = slot.ctx.with(|ctx| {
            let frame = ctx.frames.pop().expect("unlock without lock");
            assert_eq!(frame.lock, lock, "mismatched unlock");
            // Restore the held map, remembering each key's effective
            // permission during the section (`eff`) — a fast release must
            // CAS against exactly the permission the holder word carries.
            let mut releases: TinyVec<(ProtectionKey, Option<Perm>, Option<Perm>)> =
                TinyVec::new();
            for &(key, prev) in frame.acquired.iter().rev() {
                let eff = match prev {
                    None => ctx.held.remove(&key),
                    Some(perm) => ctx.held.insert(key, perm),
                };
                releases.push((key, prev, eff));
            }
            let outside_now = ctx.frames.is_empty();
            (frame, releases, outside_now)
        });

        // Undo the frame's key-table changes. A newly-acquired key whose
        // holder word is still fast-published releases with one CAS
        // (stamping the §5.4 release time into the word's side slots);
        // everything else — downgrades, materialized holds — batches
        // under one key-table guard.
        let mut slow_releases: Vec<(ProtectionKey, Option<Perm>)> = Vec::new();
        for &(key, prev, eff) in releases.iter() {
            self.machine.charge(t, cost.map_op);
            let fast_done = prev.is_none()
                && eff.is_some_and(|perm| self.words.try_fast_release(key, t, perm, now));
            if !fast_done {
                slow_releases.push((key, prev));
            }
        }
        if !slow_releases.is_empty() {
            let mut keys = self.lock_keys();
            for &(key, prev) in &slow_releases {
                match prev {
                    None => keys.release(key, t, now),
                    Some(perm) => keys.downgrade(key, t, perm),
                }
            }
        }
        self.active_sections.fetch_sub(1, Ordering::Relaxed);
        if self.telemetry.enabled() {
            let hold = self.machine.now().saturating_sub(frame.entered);
            self.telemetry.record(
                t.0,
                EventKind::SectionExit,
                self.machine.now(),
                frame.section.0 .0,
                hold,
            );
            self.telemetry.histograms().section_hold.record(hold);
        }

        // The interleaver cares about this exit only if this thread is a
        // recorded participant of some interleaving. The relaxed counter
        // mirrors exactly that membership (every bump happens under the
        // guards that publish the participation, every decrement under
        // the removal), so when it reads zero
        // `thread_left_critical_sections` would be a no-op and the exit
        // skips the interleaver lock entirely.
        if outside_now && slot.participating.load(Ordering::Relaxed) > 0 {
            let (finished, armed_removed, removed) =
                self.interleaver.lock().thread_left_critical_sections(t);
            if armed_removed > 0 {
                let prev = slot.armed.fetch_sub(armed_removed, Ordering::Relaxed);
                debug_assert!(prev >= armed_removed, "armed counter underflow");
            }
            if removed > 0 {
                let prev = slot.participating.fetch_sub(removed, Ordering::Relaxed);
                debug_assert!(prev >= removed, "participating counter underflow");
            }
            if !finished.is_empty() {
                // §5.5: restore each object's protection now that every
                // conflicting thread has left its critical section. Each
                // restoration runs under that object's fault shard:
                // `on_free` serializes on it, so the liveness check and
                // the re-protection below are atomic with respect to a
                // concurrent free — without it, a free sneaking in between
                // them would panic `alloc.protect` on an unknown object and
                // leave ghost domain/key-table entries for a dead id.
                // Restorations of objects in other shards, and unrelated
                // fault handlers, proceed in parallel.
                for fin in finished {
                    let shard = self.fault_shards.enter_object(fin.object);
                    self.note_fault_entry(t, &shard);
                    if self.alloc.object(fin.object).is_none() {
                        continue; // Freed while suspended.
                    }
                    // The interleaving left the engine before this guard was
                    // taken, so a fault handler that held the shard first may
                    // have armed a new one on the object; that one owns its
                    // protection now, and restoring the old key under it
                    // would hand a suspended object back to the race checker.
                    if self.interleaver.lock().is_active(fin.object) {
                        continue;
                    }
                    // Under virtualization the object's *group* owns the
                    // binding, and the cache may have moved on while the
                    // interleaving wound down: restore onto the group's
                    // current hardware key, or — if the group was evicted
                    // while suspended — demote to the Read-only domain and
                    // let the next write revive the group. The direct
                    // detector restores the remembered key unconditionally,
                    // which can alias a key that was since re-assigned.
                    let target = if self.config.virtual_keys {
                        let vkeys = self.vkeys.lock();
                        vkeys.vkey_of(fin.object).and_then(|v| vkeys.binding(v))
                    } else {
                        Some(fin.original_key)
                    };
                    if let Some(key) = target {
                        self.lock_keys().assign_object(key, fin.object);
                        self.sidemeta.set_domain(fin.object, Domain::ReadWrite(key));
                        self.alloc
                            .protect(t, fin.object, key)
                            .expect("pool key is valid");
                        self.emit(
                            t,
                            EventKind::InterleaveFinish,
                            fin.object.0,
                            u64::from(key.0),
                        );
                        self.emit(
                            t,
                            EventKind::DomainMigration,
                            fin.object.0,
                            pack_domains(DomainCode::Suspended, DomainCode::ReadWrite),
                        );
                    } else {
                        self.sidemeta.set_domain(fin.object, Domain::ReadOnly);
                        self.alloc
                            .protect(t, fin.object, self.layout.read_only)
                            .expect("k_ro is valid");
                        AtomicStats::bump(&self.stats.read_only_migrations);
                        self.emit(
                            t,
                            EventKind::InterleaveFinish,
                            fin.object.0,
                            u64::from(self.layout.read_only.0),
                        );
                        self.emit(
                            t,
                            EventKind::DomainMigration,
                            fin.object.0,
                            pack_domains(DomainCode::Suspended, DomainCode::ReadOnly),
                        );
                    }
                }
                // The restorations above rebound objects to keys and
                // migrated domains: invalidate cached section plans now
                // that every mutation is applied.
                self.cache_gen.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.machine.wrpkru(t, frame.saved_pkru);
    }

    /// A read by `t` at `addr` from program location `ip`.
    ///
    /// # Panics
    ///
    /// Panics on any error [`Kard::try_read`] reports.
    pub fn read(&self, t: ThreadId, addr: VirtAddr, ip: CodeSite) {
        self.try_read(t, addr, ip).unwrap_or_else(|e| panic!("{e}"));
    }

    /// A write by `t` at `addr` from program location `ip`.
    ///
    /// # Panics
    ///
    /// Panics on any error [`Kard::try_write`] reports.
    pub fn write(&self, t: ThreadId, addr: VirtAddr, ip: CodeSite) {
        self.try_write(t, addr, ip).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Kard::read`]: a monitored-program bug —
    /// touching unmanaged or freed memory, or an access that never
    /// converges — comes back as a [`KardError`] instead of a panic, for
    /// hosts embedding the detector.
    pub fn try_read(&self, t: ThreadId, addr: VirtAddr, ip: CodeSite) -> Result<(), KardError> {
        self.access(t, addr, AccessKind::Read, ip)
    }

    /// Fallible variant of [`Kard::write`]; see [`Kard::try_read`].
    pub fn try_write(&self, t: ThreadId, addr: VirtAddr, ip: CodeSite) -> Result<(), KardError> {
        self.access(t, addr, AccessKind::Write, ip)
    }

    fn access(
        &self,
        t: ThreadId,
        addr: VirtAddr,
        kind: AccessKind,
        ip: CodeSite,
    ) -> Result<(), KardError> {
        for _attempt in 0..8 {
            match self.machine.access(t, addr, kind, ip) {
                Ok(()) => return Ok(()),
                Err(fault) => match self.handle_fault(fault)? {
                    FaultAction::Retry => continue,
                    FaultAction::Emulated => return Ok(()),
                },
            }
        }
        Err(KardError::FaultLoop { addr })
    }

    /// The custom #GP handler (§5.5): classify the fault by domain key and
    /// dispatch to identification, migration, interleaving, or race check.
    /// The handler runs under the faulted *object's* fault shard — faults
    /// on unrelated objects proceed in parallel, while faults, frees, and
    /// restorations of the same object serialize.
    fn handle_fault(&self, fault: GpFault) -> Result<FaultAction, KardError> {
        // The thread's timeline position at #GP delivery: the handler's
        // virtual execution interval starts here (the delivery + execution
        // lump charged next covers work done while the shard is held), and
        // the §5.5 serialization charge below queues the whole interval
        // behind overlapping same-shard handlers. Timelines — not raw
        // per-thread cycle counters — because the previous holder may be a
        // thread born earlier; only birth-offset clocks are comparable.
        let entered = self.machine.thread_timeline(fault.thread);
        self.machine.charge_fault_handling(fault.thread);
        // Picking the shard needs the faulted object's id, but that
        // lookup necessarily runs before any shard is held, so a
        // concurrent free could retire the object — and a new object
        // could even reuse the address with a different id — between
        // lookup and lock. The loop re-validates under the guard: only
        // when the object at the address still carries the id whose
        // shard was locked does the handler proceed. Once the right
        // shard is held `on_free` serializes on it, so a lookup miss
        // genuinely means the program touched memory the detector never
        // managed (or freed before the access — a use-after-free).
        let (shard, info) = loop {
            let hint = self
                .alloc
                .object_at(fault.addr)
                .ok_or(KardError::UnmanagedAccess { addr: fault.addr })?;
            let guard = self.fault_shards.enter_object(hint.id);
            match self.alloc.object_at(fault.addr) {
                None => return Err(KardError::UnmanagedAccess { addr: fault.addr }),
                Some(info) if info.id == hint.id => break (guard, info),
                Some(_) => {} // Address reused mid-acquisition; re-resolve.
            }
        };
        self.note_fault_entry(fault.thread, &shard);
        // The fault names the key the page carried when the access was
        // checked, but a handler that held this shard first may have
        // re-protected the object since (identification, migration,
        // interleave suspension). A stale fault describes protection that
        // no longer exists — acting on it would, say, arm an interleaving
        // on a suspended object — so drop it and let the access re-execute
        // against the current key. Never taken in a single-threaded run.
        if self.machine.page_key(fault.page) != Some(fault.pkey) {
            return Ok(FaultAction::Retry);
        }
        // §5.5 serialization charge: queue (in virtual time) behind any
        // earlier handler of a held shard whose interval overlaps this
        // fault's delivery on the thread's own clock. Single-threaded
        // runs never pay this — one clock cannot overlap itself.
        let wait = shard.queue_wait(entered);
        if wait > 0 {
            self.machine.charge(fault.thread, wait);
        }
        let offset = fault.addr.0.saturating_sub(info.base.0);
        // Every fault is a demonstrated touch: feed the hotness counter
        // so the faulted object's group competes for hardware-key
        // residency under the `Hotness` eviction policy.
        self.sidemeta.bump_hot(info.id);
        self.emit(
            fault.thread,
            EventKind::FaultEnter,
            fault.addr.0,
            u64::from(fault.pkey.0),
        );

        let action = if fault.pkey == self.layout.not_accessed {
            self.identify(&fault, &info, &shard)
        } else if fault.pkey == self.layout.read_only {
            self.handle_read_only_write(&fault, &info, offset, &shard)
        } else if self.layout.is_read_write_key(fault.pkey) {
            self.handle_interleave_fault(&fault, &info, offset)
                .unwrap_or_else(|| self.handle_pool_fault(&fault, &info, offset))
        } else {
            panic!("#GP with unexpected key {}: {fault}", fault.pkey);
        };

        shard.release_at(self.machine.thread_timeline(fault.thread));
        if self.telemetry.enabled() {
            // Handling latency: fault raise to resolution on the virtual
            // clock (covers the #GP delivery charge plus everything the
            // handler itself charged). Its distribution feeds the §5.5
            // delay-filter threshold via `measured_fault_delay`.
            let latency = self.machine.now().saturating_sub(fault.tsc);
            self.telemetry.record(
                fault.thread.0,
                EventKind::FaultResolve,
                self.machine.now(),
                latency,
                matches!(action, FaultAction::Emulated) as u64,
            );
            self.telemetry.histograms().fault_delay.record(latency);
        }
        Ok(action)
    }

    /// §5.3 identification: first critical-section access to a
    /// Not-accessed object migrates it to a domain matching the access.
    fn identify(
        &self,
        fault: &GpFault,
        info: &ObjectInfo,
        shard: &FaultPathGuard<'_>,
    ) -> FaultAction {
        let t = fault.thread;
        let section = self.current_section(t).unwrap_or_else(|| {
            panic!("k_na fault outside a critical section: {fault}")
        });
        // Production mode (ROADMAP item 4): the §5.3 identification point
        // is where monitoring an object starts costing cycles, so it is
        // where the overhead-budget controller rules whether to monitor at
        // all. A skipped object is retagged to the always-readable default
        // key `k0`: it never faults again (the page dies with the object —
        // frees unmap, and reuse re-provisions with `k_na`), no domain or
        // section-map entry is created, and none of the §5.3 counters move
        // — the skip is accounted only by the controller and its event.
        if self.budget.active() {
            let heat = self.sidemeta.hot(info.id);
            if self.budget.decide(info.id.0, heat) == BudgetDecision::Skipped {
                self.emit(t, EventKind::BudgetSkip, info.id.0, heat);
                self.alloc
                    .protect(t, info.id, self.layout.default)
                    .expect("k0 is valid");
                return FaultAction::Retry;
            }
        }
        AtomicStats::bump(&self.stats.identification_faults);
        AtomicStats::bump(&self.stats.objects_identified);
        self.emit(
            t,
            EventKind::FaultIdentify,
            info.id.0,
            matches!(fault.access, AccessKind::Write) as u64,
        );

        match fault.access {
            AccessKind::Read => {
                AtomicStats::bump(&self.stats.read_only_migrations);
                self.emit(
                    t,
                    EventKind::DomainMigration,
                    info.id.0,
                    pack_domains(DomainCode::NotAccessed, DomainCode::ReadOnly),
                );
                self.sidemeta.set_domain(info.id, Domain::ReadOnly);
                self.sections.write().record(section, info.id, Perm::Read);
                self.alloc
                    .protect(t, info.id, self.layout.read_only)
                    .expect("k_ro is valid");
                // The section-object map grew: invalidate cached plans
                // after the mutation is applied.
                self.cache_gen.fetch_add(1, Ordering::SeqCst);
            }
            AccessKind::Write => {
                self.migrate_to_read_write(fault, section, info, DomainCode::NotAccessed, shard);
            }
        }
        FaultAction::Retry
    }

    /// §5.3: a critical-section write to a Read-only-domain object migrates
    /// it to the Read-write domain; an *unlocked* write to it is a
    /// potential race against the sections reading it.
    fn handle_read_only_write(
        &self,
        fault: &GpFault,
        info: &ObjectInfo,
        offset: u64,
        shard: &FaultPathGuard<'_>,
    ) -> FaultAction {
        debug_assert_eq!(fault.access, AccessKind::Write, "k_ro only blocks writes");
        let t = fault.thread;
        if let Some(section) = self.current_section(t) {
            // Production mode: the read-only → read-write migration is the
            // second (and costlier — it allocates a key) monitoring
            // escalation point, so the controller re-rules here with its
            // *current* policy. An object sampled in at identification can
            // be dropped here after the controller narrowed; its pages go
            // to `k0` and its Read-only domain entry stays behind as an
            // inert record (plans never acquire keys for Read-only
            // objects, so nothing downstream reads it again).
            if self.budget.active() {
                let heat = self.sidemeta.hot(info.id);
                if self.budget.decide(info.id.0, heat) == BudgetDecision::Skipped {
                    self.emit(t, EventKind::BudgetSkip, info.id.0, heat);
                    self.alloc
                        .protect(t, info.id, self.layout.default)
                        .expect("k0 is valid");
                    return FaultAction::Retry;
                }
            }
            AtomicStats::bump(&self.stats.migration_faults);
            self.emit(t, EventKind::FaultMigrate, info.id.0, 0);
            self.sections.write().record(section, info.id, Perm::Write);
            self.migrate_to_read_write(fault, section, info, DomainCode::ReadOnly, shard);
            return FaultAction::Retry;
        }

        // Unlocked write. The Read-only domain tracks no holders (every
        // thread has k_ro read-only), so the only available evidence is
        // the learned section-object map: the write is a *potential* race
        // iff another thread concurrently executes a section known to read
        // this object (Table 1 row 3; this is how the memcached clock race
        // surfaces). Like proactive key holds, this infers potential
        // conflicts from learned access patterns rather than demonstrated
        // accesses, so it is active only alongside proactive acquisition -
        // the reactive configuration reports only demonstrable holds.
        if !self.config.proactive_acquisition {
            return FaultAction::Emulated;
        }
        AtomicStats::bump(&self.stats.race_check_faults);
        self.emit(t, EventKind::FaultRaceCheck, info.id.0, 0);
        // Snapshot every other thread's frame sections (each under its own
        // context cell), then evaluate them against the section-object map.
        let frame_sections: Vec<(ThreadId, Vec<SectionId>)> = (0..self.threads.len())
            .map(ThreadId)
            .filter(|&other| other != t)
            .filter_map(|other| {
                let sections = self
                    .try_slot(other)?
                    .ctx
                    .with(|ctx| ctx.frames.iter().map(|f| f.section).collect());
                Some((other, sections))
            })
            .collect();
        let reader = {
            let map = self.sections.read();
            frame_sections.iter().find_map(|(other, sections)| {
                sections
                    .iter()
                    .find(|&&s| map.section_accesses(s, info.id))
                    .map(|&s| (*other, s))
            })
        };
        if let Some((holder_thread, holder_section)) = reader {
            let record = RaceRecord {
                object: info.id,
                faulting: RaceSide {
                    thread: t,
                    section: None,
                    ip: fault.ip,
                    offset: Some(offset),
                },
                holding: RaceSide {
                    thread: holder_thread,
                    section: Some(holder_section),
                    ip: holder_section.0,
                    offset: None,
                },
                access: AccessKind::Write,
                tsc: fault.tsc,
            };
            self.push_record(record);
        }
        // The write completes via emulation; the object stays read-only so
        // detection continues for later unlocked writers.
        FaultAction::Emulated
    }

    /// Counterpart fault during protection interleaving (§5.5, Figure 4).
    /// `None` when the object has no armed interleaving on the faulted key,
    /// so the fault belongs to [`Kard::handle_pool_fault`]. The armed check
    /// and the observation share one interleaver guard: the last
    /// participant's section exit retires an interleaving under that guard
    /// alone, without the object's fault shard.
    fn handle_interleave_fault(
        &self,
        fault: &GpFault,
        info: &ObjectInfo,
        offset: u64,
    ) -> Option<FaultAction> {
        let t = fault.thread;
        let section = self.current_section(t);
        let obs = Observation {
            thread: t,
            section,
            offset,
            kind: fault.access,
            ip: fault.ip,
        };
        let ikey = fault.pkey;
        let (idx, verdict, disarmed) = {
            let mut il = self.interleaver.lock();
            if !il.is_armed(info.id) || il.interleaved_key(info.id) != Some(ikey) {
                return None;
            }
            let idx = il.record_index(info.id).expect("armed");
            let (verdict, disarmed, joined) = il.observe(info.id, obs);
            if joined {
                // Published while the interleaver guard is still held, so
                // no exit or free can observe the membership before the
                // counter reflects it.
                self.slot(t).participating.fetch_add(1, Ordering::Relaxed);
            }
            (idx, verdict, disarmed)
        };
        AtomicStats::bump(&self.stats.interleave_faults);
        self.emit(t, EventKind::FaultInterleave, info.id.0, 0);
        for th in disarmed {
            let prev = self.slot(th).armed.fetch_sub(1, Ordering::Relaxed);
            debug_assert!(prev > 0, "armed counter underflow");
        }
        match verdict {
            Verdict::Confirmed(_) => {
                let mut store = self.records.lock();
                if let Some(record) = store.records[idx].as_mut() {
                    record.holding.offset = Some(obs.offset);
                    record.holding.ip = obs.ip;
                }
            }
            Verdict::PrunedDifferentOffset => {
                let mut store = self.records.lock();
                if let Some(record) = store.records[idx].take() {
                    store.seen.remove(&record.fingerprint());
                    AtomicStats::bump(&self.stats.races_pruned_offset);
                    self.emit(t, EventKind::RacePruneOffset, record.object.0, 0);
                }
            }
        }
        // Suspend protection until the conflicting threads exit (§5.5).
        self.emit(
            t,
            EventKind::DomainMigration,
            info.id.0,
            pack_domains(DomainCode::ReadWrite, DomainCode::Suspended),
        );
        self.lock_keys().unassign_object(ikey, info.id);
        self.sidemeta.set_domain(info.id, Domain::Suspended);
        self.alloc
            .protect(t, info.id, ProtectionKey::DEFAULT)
            .expect("default key is valid");
        // The object left the Read-write domain: invalidate cached plans
        // after the suspension is applied.
        self.cache_gen.fetch_add(1, Ordering::SeqCst);
        Some(FaultAction::Retry)
    }

    /// Faults on read-write pool keys: reactive acquisition or race
    /// detection (§5.4–§5.5, Figure 3c).
    fn handle_pool_fault(&self, fault: &GpFault, info: &ObjectInfo, offset: u64) -> FaultAction {
        let t = fault.thread;
        let key = fault.pkey;
        let section = self.current_section(t);
        let cost = &self.cost;
        self.machine.charge(t, cost.map_op); // key-section map lookup

        /// What the single key-table inspection decided.
        enum PoolOutcome {
            Conflict(ThreadId, SectionId),
            RecentRelease(ThreadId),
            AcquiredReactive,
            NoSection,
        }

        let outcome = {
            let mut keys = self.lock_keys();
            let key_state = keys.state(key);
            // Who conflicts? A read conflicts with a write holder; a write
            // conflicts with any holder.
            let conflicting_holder: Option<(ThreadId, SectionId)> = match fault.access {
                AccessKind::Read => key_state
                    .writer()
                    .filter(|&w| w != t)
                    .map(|w| (w, key_state.holders[&w].section)),
                AccessKind::Write => key_state
                    .holders
                    .iter()
                    .filter(|(&h, _)| h != t)
                    .map(|(&h, i)| (h, i.section))
                    .min_by_key(|&(h, _)| h),
            };

            // §5.5 timestamp check. The fault is raised at `fault.tsc` but
            // the handler runs roughly one fault-handling delay later, so a
            // holder may release the key in between. Kard compares the
            // release stamp against the handler invocation time: a release
            // within one average delay of handler entry means the key *was*
            // held when the fault occurred — i.e. the release postdates
            // `fault.tsc`.
            // The window width is the *measured* average delay when one
            // has been fed back (`kard-tables faultlatency`), else the
            // cost model's assumed constant.
            let fault_delay = self
                .config
                .measured_fault_delay
                .unwrap_or(cost.fault_handling);
            let recent_release = self.config.timestamp_filter
                && conflicting_holder.is_none()
                && key_state.last_writer_release.is_some_and(|rel| {
                    let handler_now = fault.tsc + fault_delay;
                    rel > fault.tsc && handler_now.saturating_sub(rel) < fault_delay
                });
            if conflicting_holder.is_none()
                && !recent_release
                && key_state.last_writer_release.is_some()
            {
                AtomicStats::bump(&self.stats.races_filtered_timestamp);
                self.emit(t, EventKind::TimestampFiltered, u64::from(key.0), 0);
            }

            if let Some((holder_thread, holder_section)) = conflicting_holder {
                PoolOutcome::Conflict(holder_thread, holder_section)
            } else if recent_release {
                let holder = key_state
                    .last_writer
                    .expect("recent release implies a recorded releaser");
                PoolOutcome::RecentRelease(holder)
            } else if let Some(sec) = section {
                // No conflict, inside a section: reactive acquisition
                // (Algorithm 1 lines 13–18 / 22–26), under the same guard
                // that just proved no conflicting holder exists.
                let perm = perm_for(fault.access);
                let ok = keys.try_acquire(key, t, perm, sec);
                debug_assert!(ok, "no conflicting holder, acquisition must succeed");
                PoolOutcome::AcquiredReactive
            } else {
                PoolOutcome::NoSection
            }
        };

        match outcome {
            PoolOutcome::Conflict(holder_thread, holder_section) => {
                AtomicStats::bump(&self.stats.race_check_faults);
                self.emit(t, EventKind::FaultRaceCheck, info.id.0, 1);
                let record = RaceRecord {
                    object: info.id,
                    faulting: RaceSide {
                        thread: t,
                        section,
                        ip: fault.ip,
                        offset: Some(offset),
                    },
                    holding: RaceSide {
                        thread: holder_thread,
                        section: Some(holder_section),
                        ip: holder_section.0,
                        offset: None,
                    },
                    access: fault.access,
                    tsc: fault.tsc,
                };
                let idx = self.push_record(record);

                // Protection interleaving (Figure 4): only meaningful for a
                // fresh record, when the faulter is inside a critical
                // section (only there can it hold a key) and a key can be
                // found.
                if self.config.protection_interleaving
                    // Production mode backs off arming first under a fault
                    // storm: interleavings are the most delay-expensive
                    // detection stage (§5.5 exit stalls), and suppressing
                    // them sheds load without touching what is monitored.
                    && !self.budget.suppress_arming()
                    && !self.interleaver.lock().is_active(info.id)
                {
                    if let (Some(idx), Some(sec)) = (idx, section) {
                        // A key to re-protect the object with: one already
                        // held by `t`, else a fresh pool key (Figure 4,
                        // line 7). The held-key lookup happens before the
                        // key-table guard below — `t` is mid-fault, so its
                        // held set cannot change in between.
                        let held_min = self
                            .slot(t)
                            .ctx
                            .with(|ctx| ctx.held.keys().min().copied());
                        let armed_key = {
                            let mut keys = self.lock_keys();
                            // Re-validate the conflict: it was decided under
                            // an earlier key-table guard, and `lock_exit`
                            // does not take the fault mutex, so the holder
                            // may have released the key — and even left all
                            // its critical sections — in the window. Arming
                            // against a departed holder would create an
                            // interleaving that can never finish (no
                            // `thread_left` event will ever remove it), so
                            // abort the arming instead; the race record
                            // already pushed above stands either way.
                            if !keys.state(key).holders.contains_key(&holder_thread) {
                                None
                            } else if let Some(ikey) =
                                held_min.or_else(|| keys.unassigned_key())
                            {
                                keys.unassign_object(key, info.id);
                                keys.assign_object(ikey, info.id);
                                keys.force_acquire(ikey, t, perm_for(fault.access), sec);
                                // Arm while still holding the key-table
                                // guard: the holder cannot complete a key
                                // release (and hence cannot reach
                                // `thread_left_critical_sections`) until the
                                // guard drops, so `begin` always records a
                                // holder that is still inside its sections.
                                // The armed counters are bumped inside the
                                // interleaver critical section that
                                // publishes the interleaving, so no exit or
                                // free path can observe it and decrement a
                                // counter before it was incremented.
                                let mut il = self.interleaver.lock();
                                il.begin(
                                    info.id,
                                    idx,
                                    key,
                                    ikey,
                                    Observation {
                                        thread: t,
                                        section,
                                        offset,
                                        kind: fault.access,
                                        ip: fault.ip,
                                    },
                                    holder_thread,
                                );
                                let faulter = self.slot(t);
                                faulter.armed.fetch_add(1, Ordering::Relaxed);
                                faulter.participating.fetch_add(1, Ordering::Relaxed);
                                let holder = self.slot(holder_thread);
                                holder.armed.fetch_add(1, Ordering::Relaxed);
                                holder.participating.fetch_add(1, Ordering::Relaxed);
                                self.emit(
                                    t,
                                    EventKind::InterleaveArm,
                                    info.id.0,
                                    u64::from(ikey.0),
                                );
                                Some(ikey)
                            } else {
                                None
                            }
                        };
                        if let Some(ikey) = armed_key {
                            self.note_held_and_record(t, ikey, perm_for(fault.access));
                            self.sidemeta.set_domain(info.id, Domain::ReadWrite(ikey));
                            self.alloc.protect(t, info.id, ikey).expect("valid key");
                            self.grant_in_context(t, ikey);
                            // Arming rebound the object to the interleaved
                            // key: invalidate cached plans now that the
                            // rebinding is applied.
                            self.cache_gen.fetch_add(1, Ordering::SeqCst);
                            return FaultAction::Retry;
                        }
                    }
                }
                FaultAction::Emulated
            }
            PoolOutcome::RecentRelease(holder) => {
                // The key holder released in the window between the fault
                // and the handler running (§5.5's timestamp check): treat
                // the key as held at fault time. The last write-releaser
                // identifies the holding side; there is no live holder to
                // interleave against, so report only.
                AtomicStats::bump(&self.stats.race_check_faults);
                self.emit(t, EventKind::FaultRaceCheck, info.id.0, 2);
                if holder != t {
                    let record = RaceRecord {
                        object: info.id,
                        faulting: RaceSide {
                            thread: t,
                            section,
                            ip: fault.ip,
                            offset: Some(offset),
                        },
                        holding: RaceSide {
                            thread: holder,
                            section: None, // Already exited its section.
                            ip: CodeSite(0),
                            offset: None,
                        },
                        access: fault.access,
                        tsc: fault.tsc,
                    };
                    self.push_record(record);
                }
                FaultAction::Emulated
            }
            PoolOutcome::AcquiredReactive => {
                let sec = section.expect("reactive acquisition implies a section");
                AtomicStats::bump(&self.stats.reactive_acquisitions);
                self.emit(t, EventKind::KeyGrant, u64::from(key.0), GRANT_REACTIVE);
                self.note_held_and_record(t, key, perm_for(fault.access));
                self.sections
                    .write()
                    .record(sec, info.id, perm_for(fault.access));
                // The section-object map grew: invalidate cached plans
                // after the record is applied.
                self.cache_gen.fetch_add(1, Ordering::SeqCst);
                self.machine.charge(t, cost.map_op * 2);
                self.grant_in_context(t, key);
                FaultAction::Retry
            }
            // Outside any section with a free key: the access is unordered
            // but not an ILU race; emulate and move on.
            PoolOutcome::NoSection => FaultAction::Emulated,
        }
    }

    /// §5.3 / §5.4: move an object into the Read-write domain, picking a
    /// key with the effective-assignment policy (direct or virtualized)
    /// and acquiring it reactively. `from` names the source domain, for
    /// the migration event.
    fn migrate_to_read_write(
        &self,
        fault: &GpFault,
        section: SectionId,
        info: &ObjectInfo,
        from: DomainCode,
        shard: &FaultPathGuard<'_>,
    ) {
        let t = fault.thread;
        let cost = &self.cost;
        AtomicStats::bump(&self.stats.read_write_migrations);
        self.emit(
            t,
            EventKind::DomainMigration,
            info.id.0,
            pack_domains(from, DomainCode::ReadWrite),
        );

        // Rule 1 candidates: keys the thread holds *for the current
        // section*. The paper says "one of the held protection keys"
        // without specifying which; restricting reuse to the innermost
        // section keeps one key's objects under one lock's discipline —
        // reusing an outer (different-lock) key would alias objects across
        // locks and manufacture spurious conflicts under nesting.
        let held_all: Vec<(ProtectionKey, Perm)> = self
            .slot(t)
            .ctx
            .with(|ctx| ctx.held.iter().map(|(&k, &p)| (k, p)).collect());
        let held: Vec<(ProtectionKey, Perm)> = {
            let keys = self.lock_keys();
            let mut held: Vec<(ProtectionKey, Perm)> = held_all
                .into_iter()
                .filter(|&(k, _)| {
                    keys.state(k).holders.get(&t).map(|h| h.section) == Some(section)
                })
                .collect();
            held.sort_by_key(|&(k, _)| k);
            held
        };

        let key = if self.config.virtual_keys {
            self.assign_virtual_key(fault, section, info, &held, shard)
        } else {
            self.assign_direct_key(t, section, info, &held, shard)
        };
        self.machine.charge(t, cost.map_op * 2);

        self.sidemeta.set_domain(info.id, Domain::ReadWrite(key));
        self.sections.write().record(section, info.id, Perm::Write);
        self.alloc.protect(t, info.id, key).expect("pool key valid");

        AtomicStats::bump(&self.stats.reactive_acquisitions);
        self.emit(t, EventKind::KeyGrant, u64::from(key.0), GRANT_REACTIVE);
        self.note_held_and_record(t, key, Perm::Write);
        self.grant_in_context(t, key);
        // The migration (and any recycling or eviction inside the
        // assignment) changed domains, the section-object map, and key
        // bindings: invalidate cached plans now that everything above is
        // applied.
        self.cache_gen.fetch_add(1, Ordering::SeqCst);
    }

    /// The paper's §5.4 effective-assignment policy on raw hardware keys.
    fn assign_direct_key(
        &self,
        t: ThreadId,
        section: SectionId,
        info: &ObjectInfo,
        held: &[(ProtectionKey, Perm)],
        shard: &FaultPathGuard<'_>,
    ) -> ProtectionKey {
        // Snapshot each pool key's holder sections, then evaluate the
        // sharing heuristic against the section-object map — the closure
        // passed to `choose_key` must not alias the mutable key table.
        let holder_sections: Vec<(ProtectionKey, Vec<SectionId>)> = {
            let keys = self.lock_keys();
            keys.pool()
                .iter()
                .map(|&k| {
                    (
                        k,
                        keys.state(k).holders.values().map(|h| h.section).collect(),
                    )
                })
                .collect()
        };
        let conflicts: HashMap<ProtectionKey, bool> = {
            let map = self.sections.read();
            holder_sections
                .into_iter()
                .map(|(k, sections)| {
                    (
                        k,
                        sections.iter().any(|&s| map.section_accesses(s, info.id)),
                    )
                })
                .collect()
        };

        // Rule 3a demotes the recycled key's objects, and a demotion must
        // not interleave with a fault in flight on one of them: a
        // candidate is committed only after a non-blocking claim of its
        // objects' fault shards (module-doc rule 3). The claims stay held
        // until the demotions below are applied.
        let mut claims = self.fault_shards.claims(shard);
        let (assignment, key) = {
            let mut keys = self.lock_keys();
            // `prefer_fresh_keys` (conformance mode): rule 1 is skipped
            // while fresh keys remain, yielding key-per-object granularity.
            let held_for_rule1: &[(ProtectionKey, Perm)] =
                if self.config.prefer_fresh_keys && keys.unassigned_key().is_some() {
                    &[]
                } else {
                    held
                };
            let assignment = choose_key(
                &mut keys,
                t,
                Perm::Write,
                self.config.exhaustion,
                held_for_rule1,
                |candidate| conflicts.get(&candidate).copied().unwrap_or(false),
                |members| claims.claim(members),
            );
            let key = assignment.key();
            keys.assign_object(key, info.id);
            // Reactive acquisition via the saved context (§5.4). A held key
            // that is itself shared (other holders present) rejects
            // exclusive acquisition; the object then simply joins the
            // shared key, which is the sharing semantics already accounted
            // for.
            match assignment {
                Assignment::Shared(_) => {
                    keys.force_acquire(key, t, Perm::Write, section);
                }
                _ => {
                    if !keys.try_acquire(key, t, Perm::Write, section) {
                        keys.force_acquire(key, t, Perm::Write, section);
                    }
                }
            }
            (assignment, key)
        };

        match &assignment {
            Assignment::HeldKey(_) | Assignment::FreshKey(_) => {}
            Assignment::Recycled { evicted, .. } => {
                AtomicStats::bump(&self.stats.key_recycles);
                self.emit(
                    t,
                    EventKind::KeyRecycle,
                    u64::from(key.0),
                    evicted.len() as u64,
                );
                // Demote the recycled key's objects to the Read-only
                // domain; their next write re-identifies them (§5.4).
                for &obj in evicted {
                    if self.alloc.object(obj).is_some() {
                        self.sidemeta.set_domain(obj, Domain::ReadOnly);
                        self.alloc
                            .protect(t, obj, self.layout.read_only)
                            .expect("k_ro is valid");
                        AtomicStats::bump(&self.stats.read_only_migrations);
                        self.emit(
                            t,
                            EventKind::DomainMigration,
                            obj.0,
                            pack_domains(DomainCode::ReadWrite, DomainCode::ReadOnly),
                        );
                    }
                }
            }
            Assignment::Shared(_) => {
                AtomicStats::bump(&self.stats.key_shares);
                self.emit(t, EventKind::KeyShare, u64::from(key.0), 0);
            }
        }
        key
    }

    /// The virtualized assignment path ([`crate::vkey`]): decide under the
    /// `keys` → `vkeys` guards, then apply eviction and revival side
    /// effects. On the hit/fill paths this charges exactly what the direct
    /// policy charges, which is what keeps the two modes byte-identical
    /// while at most 13 groups are live.
    fn assign_virtual_key(
        &self,
        fault: &GpFault,
        section: SectionId,
        info: &ObjectInfo,
        held: &[(ProtectionKey, Perm)],
        shard: &FaultPathGuard<'_>,
    ) -> ProtectionKey {
        let t = fault.thread;

        // An eviction demotes the victim group's members, so a victim is
        // committed only after a non-blocking claim of its members' fault
        // shards (module-doc rule 3) — a refused claim makes the cache
        // pick the next candidate. The claims stay held until
        // `apply_eviction` below has finished the demotions.
        let mut claims = self.fault_shards.claims(shard);
        let (va, pressure) = {
            let mut keys = self.lock_keys();
            let mut vkeys = self.vkeys.lock();
            let va = choose_virtual(
                &mut vkeys,
                &mut keys,
                t,
                info.id,
                Perm::Write,
                self.config.prefer_fresh_keys,
                held,
                |members| self.group_heat(members),
                |members| claims.claim(members),
            );
            let key = va.key();
            // Key synchronization, map half: a still-held victim key is
            // revoked from its holders *before* the new acquisition, so
            // the exclusivity check below sees a clean key. The context
            // half (PKRU and frame surgery) happens outside the guards.
            if let VAssignment::Fill { evicted: Some(ev), .. }
            | VAssignment::Revive { evicted: Some(ev), .. } = &va
            {
                for h in &ev.stripped {
                    keys.strip_holder(key, h.thread);
                }
            }
            keys.assign_object(key, info.id);
            match &va {
                VAssignment::Shared { .. } => {
                    keys.force_acquire(key, t, Perm::Write, section);
                }
                _ => {
                    if !keys.try_acquire(key, t, Perm::Write, section) {
                        keys.force_acquire(key, t, Perm::Write, section);
                    }
                }
            }
            let pressure = vkeys.note_pressure();
            let stats = vkeys.stats_mut();
            match &va {
                VAssignment::Hit { .. } | VAssignment::Join { .. } => stats.hits += 1,
                VAssignment::Fill { evicted, .. } => {
                    stats.fills += 1;
                    if let Some(ev) = evicted {
                        stats.evictions += 1;
                        if !ev.stripped.is_empty() {
                            stats.synced_evictions += 1;
                        }
                    }
                }
                VAssignment::Revive { evicted, .. } => {
                    stats.revivals += 1;
                    if let Some(ev) = evicted {
                        stats.evictions += 1;
                        if !ev.stripped.is_empty() {
                            stats.synced_evictions += 1;
                        }
                    }
                }
                VAssignment::Shared { .. } => stats.shares += 1,
            }
            // Mirror the (possibly new) group membership while the vkey
            // table is still locked: the membership word answers the
            // lock-free "was this object ever grouped?" question on the
            // free path. Idempotent on hits.
            self.sidemeta.set_vkey(info.id, va.vkey());
            (va, pressure)
        };
        if self.telemetry.enabled() {
            self.telemetry.histograms().key_pressure.record(pressure);
        }

        let key = va.key();
        let vkey = va.vkey();
        match &va {
            VAssignment::Hit { .. } | VAssignment::Join { .. } => {
                self.emit(t, EventKind::VKeyHit, vkey.0, u64::from(key.0));
            }
            VAssignment::Fill { evicted, .. } => {
                self.emit(t, EventKind::VKeyMiss, vkey.0, u64::from(key.0));
                if let Some(ev) = evicted {
                    self.apply_eviction(t, key, ev);
                }
            }
            VAssignment::Revive { evicted, logical, .. } => {
                self.emit(t, EventKind::VKeyMiss, vkey.0, u64::from(key.0));
                if let Some(ev) = evicted {
                    self.apply_eviction(t, key, ev);
                }
                self.check_logical_holders(fault, section, info, logical);
            }
            VAssignment::Shared { .. } => {
                AtomicStats::bump(&self.stats.key_shares);
                self.emit(t, EventKind::KeyShare, u64::from(key.0), 0);
            }
        }
        key
    }

    /// Apply an eviction's side effects: strip the freed hardware key from
    /// every context that still held it (the libmpk IPI, `pkey_sync` per
    /// holder, charged to the evictor) and demote the victim group's
    /// members to the Read-only domain with one grouped `pkey_mprotect`.
    fn apply_eviction(&self, t: ThreadId, key: ProtectionKey, ev: &Eviction) {
        let cost = &self.cost;
        self.emit(
            t,
            EventKind::VKeyEvict,
            ev.victim.0,
            ev.demoted.len() as u64,
        );
        for h in &ev.stripped {
            self.strip_holder_context(h.thread, key);
            self.machine.charge(t, cost.pkey_sync);
        }
        let live: Vec<ObjectId> = ev
            .demoted
            .iter()
            .copied()
            .filter(|&obj| self.alloc.object(obj).is_some())
            .collect();
        for &obj in &live {
            self.sidemeta.set_domain(obj, Domain::ReadOnly);
            AtomicStats::bump(&self.stats.read_only_migrations);
            self.emit(
                t,
                EventKind::DomainMigration,
                obj.0,
                pack_domains(DomainCode::ReadWrite, DomainCode::ReadOnly),
            );
        }
        self.emit(t, EventKind::VKeyDemoteBatch, ev.victim.0, live.len() as u64);
        self.alloc
            .protect_batch(t, &live, self.layout.read_only)
            .expect("k_ro is valid");
    }

    /// The context half of key synchronization: erase every trace of the
    /// revoked `key` from `h`'s detector context — the held map, each
    /// frame's acquisition journal (its keymap entries are already gone)
    /// and saved PKRU, and the live PKRU, so `h` faults on its next access
    /// to the rebound key instead of silently reaching the new group.
    fn strip_holder_context(&self, h: ThreadId, key: ProtectionKey) {
        if let Some(slot) = self.try_slot(h) {
            slot.ctx.with(|ctx| {
                ctx.held.remove(&key);
                for frame in &mut ctx.frames {
                    frame.acquired.retain(|&(k, _)| k != key);
                    frame.saved_pkru.set_permission(key, Permission::NoAccess);
                }
            });
        }
        let mut pkru = self.machine.rdpkru(h);
        pkru.set_permission(key, Permission::NoAccess);
        self.machine.set_pkru_in_saved_context(h, pkru);
    }

    /// The revival race re-check: an evicted group's stripped holders can
    /// no longer raise hardware conflicts, so when a fault brings the
    /// group back, test the faulting access against each logical holder
    /// still inside the section it held the key for. This restores exactly
    /// the detection that §5.4 key *sharing* silently drops (§7.3).
    fn check_logical_holders(
        &self,
        fault: &GpFault,
        section: SectionId,
        info: &ObjectInfo,
        logical: &[LogicalHolder],
    ) {
        let t = fault.thread;
        let Some(holder) = logical.iter().find(|h| {
            h.thread != t
                && self.try_slot(h.thread).is_some_and(|slot| {
                    slot.ctx
                        .with(|ctx| ctx.frames.iter().any(|f| f.section == h.section))
                })
                // A logical holder held the *group's* key, which covers
                // sibling objects the holder never touched. Only a holder
                // whose section is known to access the faulting object
                // (§5.3's section-object map) can actually conflict on
                // it; without this filter, reviving a group via a
                // private member would re-report against every sibling's
                // holder.
                && self.sections.read().section_accesses(h.section, info.id)
        }) else {
            return;
        };
        AtomicStats::bump(&self.stats.race_check_faults);
        self.emit(t, EventKind::FaultRaceCheck, info.id.0, 3);
        let offset = fault.addr.0.saturating_sub(info.base.0);
        let record = RaceRecord {
            object: info.id,
            faulting: RaceSide {
                thread: t,
                section: Some(section),
                ip: fault.ip,
                offset: Some(offset),
            },
            holding: RaceSide {
                thread: holder.thread,
                section: Some(holder.section),
                ip: holder.section.0,
                offset: None,
            },
            access: fault.access,
            tsc: fault.tsc,
        };
        self.push_record(record);
    }

    /// Record a race, respecting redundant-report pruning. Returns the
    /// record's index if it was (newly) stored.
    fn push_record(&self, record: RaceRecord) -> Option<usize> {
        let mut store = self.records.lock();
        if !store.seen.insert(record.fingerprint()) {
            AtomicStats::bump(&self.stats.races_pruned_redundant);
            self.emit(
                record.faulting.thread,
                EventKind::RacePruneRedundant,
                record.object.0,
                0,
            );
            return None;
        }
        self.emit(
            record.faulting.thread,
            EventKind::RaceReport,
            record.object.0,
            record.faulting.thread.0 as u64,
        );
        store.records.push(Some(record));
        Some(store.records.len() - 1)
    }

    fn current_section(&self, t: ThreadId) -> Option<SectionId> {
        self.try_slot(t)
            .and_then(|slot| slot.ctx.with(|ctx| ctx.frames.last().map(|f| f.section)))
    }

    /// Track `key` in the thread's held map (joining permissions) and
    /// remember the acquisition in the innermost frame so it is undone at
    /// section exit. Returns the previous perm.
    fn note_held_and_record(
        &self,
        t: ThreadId,
        key: ProtectionKey,
        perm: Perm,
    ) -> Option<Perm> {
        self.slot(t).ctx.with(|ctx| {
            let prev = ctx.held.get(&key).copied();
            let joined = prev.map_or(perm, |p| p.join(perm));
            ctx.held.insert(key, joined);
            if let Some(frame) = ctx.frames.last_mut() {
                if prev != Some(joined) {
                    frame.acquired.push((key, prev));
                }
            }
            prev
        })
    }

    /// Install the thread's current effective permission for `key` through
    /// its saved context (the fault-handler path, §5.4).
    fn grant_in_context(&self, t: ThreadId, key: ProtectionKey) {
        let perm = self.slot(t).ctx.with(|ctx| ctx.held.get(&key).copied());
        let mut pkru = self.machine.rdpkru(t);
        pkru.set_permission(
            key,
            perm.map_or(Permission::NoAccess, perm_to_permission),
        );
        self.machine.set_pkru_in_saved_context(t, pkru);
    }

    /// Filtered race reports.
    #[must_use]
    pub fn reports(&self) -> Vec<RaceRecord> {
        self.records.lock().records.iter().flatten().cloned().collect()
    }

    /// Statistics snapshot. The unique-section count is the union of the
    /// per-thread section sets, and the entry/grant totals are sums over
    /// the per-thread slots — entries never touch a shared stats line.
    #[must_use]
    pub fn stats(&self) -> DetectorStats {
        let mut stats = self.stats.snapshot();
        stats.races_reported = self.records.lock().records.iter().flatten().count() as u64;
        let mut unique: HashSet<SectionId> = HashSet::new();
        for slot in self.threads.iter() {
            slot.ctx
                .with(|ctx| unique.extend(ctx.unique_sections.iter().copied()));
            stats.cs_entries += slot.cs_entries.load(Ordering::Relaxed);
            stats.proactive_acquisitions += slot.proactive_acquisitions.load(Ordering::Relaxed);
        }
        stats.unique_sections = unique.len() as u64;
        stats
    }

    /// Key-virtualization statistics snapshot. All-zero unless
    /// [`KardConfig::virtual_keys`] is on.
    #[must_use]
    pub fn vkey_stats(&self) -> VKeyStats {
        self.vkeys.lock().stats()
    }

    /// One coherent picture of the run: detector, virtual-key, allocator,
    /// and fault-shard statistics plus the lock-acquisition total, in a
    /// single serializable value.
    #[must_use]
    pub fn snapshot(&self) -> KardSnapshot {
        KardSnapshot {
            detector: self.stats(),
            vkeys: self.vkey_stats(),
            alloc: self.alloc.stats(),
            fault_shards: self.fault_shards.stats(),
            lock_acquisitions: self.detector_lock_acquisitions(),
            production: self.production_stats(),
            anomaly: self.anomaly_stats(),
        }
    }

    /// Anomaly-analyzer state (baselines, CUSUM accumulations, fired
    /// signals). All defaults when [`KardConfig::anomaly_detection`] is
    /// off.
    #[must_use]
    pub fn anomaly_stats(&self) -> AnomalyStats {
        self.analyzer
            .as_ref()
            .map(Analyzer::stats)
            .unwrap_or_default()
    }

    /// Run the anomaly analyzer over one drained batch. The drain-side
    /// half of ROADMAP item 5: reduce the batch (plus histogram deltas)
    /// to a window sample, advance every CUSUM/EWMA detector, and feed
    /// whatever fires back into the budget controller
    /// ([`BudgetController::note_anomaly`]) so a thrashing workload
    /// narrows its own sample before the work integral blows the global
    /// budget. Fired signals are returned *and* queued for
    /// [`Kard::take_anomaly_signals`].
    ///
    /// No-op (empty vec) when [`KardConfig::anomaly_detection`] is off.
    /// Touches only drain-side state — no detector lock, no ring write,
    /// no allocation on any recording path.
    pub fn observe_drained(&self, batch: &Drained) -> Vec<AnomalySignal> {
        let Some(analyzer) = self.analyzer.as_ref() else {
            return Vec::new();
        };
        let now = self.machine.now();
        let signals = analyzer.observe(batch, self.telemetry.histograms(), now);
        if signals.is_empty() {
            return signals;
        }
        for signal in &signals {
            self.budget.note_anomaly(signal);
            if self.telemetry.enabled() {
                self.telemetry.record(
                    0,
                    EventKind::AnomalySignal,
                    now,
                    signal.metric as u64,
                    signal.score,
                );
            }
        }
        self.pending_anomalies.lock().extend_from_slice(&signals);
        signals
    }

    /// Collect (and clear) the signals fired since the last call. The
    /// firehose server uses this to enrich suspects with session identity
    /// and apply its eviction policy; embedded sessions can read the same
    /// state via [`Kard::anomaly_stats`].
    pub fn take_anomaly_signals(&self) -> Vec<AnomalySignal> {
        std::mem::take(&mut *self.pending_anomalies.lock())
    }

    /// Production-mode controller counters (see [`crate::budget`]).
    /// `enabled` is false (and every decision counter zero) unless
    /// [`KardConfig::production`] is on.
    #[must_use]
    pub fn production_stats(&self) -> ProductionStats {
        self.budget.stats()
    }

    /// Drain-side control step of production mode: integrate the
    /// fault-delay and `pkey_mprotect` cycle histograms into the observed
    /// overhead since the last tick and let the budget controller steer
    /// (narrow/widen the sample, move the hotness threshold, flip the
    /// arming backoff). Returns `None` when production mode is off or no
    /// virtual time has elapsed.
    ///
    /// Call it wherever telemetry is drained — `Session::drain` and the
    /// firehose shard loops do. The work integral only grows while
    /// telemetry is enabled (the cycle histograms gate on it), so a
    /// production run that wants *adaptive* budgeting must record
    /// telemetry; without it the controller still applies the static
    /// [`KardConfig::sample_permille`] but observes zero overhead.
    pub fn production_tick(&self) -> Option<BudgetTick> {
        if !self.budget.active() {
            return None;
        }
        let hists = self.telemetry.histograms();
        let work = hists.fault_delay.sum().saturating_add(hists.mprotect.sum());
        let tick = self.budget.tick(self.machine.now(), work)?;
        hists.overhead.record(tick.observed_permille);
        if self.telemetry.enabled() {
            if let Some((target, threshold)) = tick.adjusted {
                self.telemetry.record(
                    0,
                    EventKind::BudgetAdjust,
                    self.machine.now(),
                    u64::from(target),
                    threshold,
                );
            }
            if let Some(entering) = tick.backoff {
                self.telemetry.record(
                    0,
                    EventKind::BudgetBackoff,
                    self.machine.now(),
                    u64::from(entering),
                    tick.observed_permille,
                );
            }
        }
        Some(tick)
    }

    /// Human-readable description of the active key mode (direct vs.
    /// virtualized), for experiment-output headers.
    #[must_use]
    pub fn key_mode(&self) -> String {
        self.config
            .key_mode_description(self.layout.read_write_pool().count())
    }

    /// The current protection domain of an object, if tracked: one
    /// acquire load (a locked lookup for an overflow object).
    #[must_use]
    pub fn domain_of(&self, id: ObjectId) -> Option<Domain> {
        self.sidemeta.domain(id)
    }

    /// Objects recorded for a section in the section-object map.
    #[must_use]
    pub fn section_objects(&self, section: SectionId) -> Vec<(ObjectId, Perm)> {
        self.sections.read().objects_of(section)
    }
}

impl fmt::Debug for Kard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kard")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

fn perm_for(kind: AccessKind) -> Perm {
    match kind {
        AccessKind::Read => Perm::Read,
        AccessKind::Write => Perm::Write,
    }
}

fn perm_to_permission(perm: Perm) -> Permission {
    match perm {
        Perm::Read => Permission::ReadOnly,
        Perm::Write => Permission::ReadWrite,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use kard_sim::MachineConfig;

    fn setup() -> (Arc<Machine>, Kard) {
        setup_with(KardConfig::default(), 16)
    }

    fn setup_with(config: KardConfig, keys: u16) -> (Arc<Machine>, Kard) {
        let mc = MachineConfig {
            key_layout: KeyLayout::with_total_keys(keys),
            ..MachineConfig::default()
        };
        let machine = Arc::new(Machine::new(mc));
        let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
        let kard = Kard::new(Arc::clone(&machine), alloc, config);
        (machine, kard)
    }

    fn site(n: u64) -> CodeSite {
        CodeSite(n)
    }

    #[test]
    fn figure_1a_exclusive_write_detected() {
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 32);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1));
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.read(t2, o.base, site(0xb1));
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));

        let reports = kard.reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.object, o.id);
        assert_eq!(r.faulting.thread, t2);
        assert_eq!(r.holding.thread, t1);
        assert_eq!(r.access, AccessKind::Read);
    }

    #[test]
    fn figure_1b_shared_read_not_reported() {
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 32);

        // Teach both sections that they read o (first run, serial).
        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.read(t1, o.base, site(0xa1));
        kard.lock_exit(t1, LockId(1));

        // Concurrent shared read.
        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.read(t1, o.base, site(0xa1));
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.read(t2, o.base, site(0xb1));
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));

        assert!(kard.reports().is_empty());
        assert_eq!(kard.domain_of(o.id), Some(Domain::ReadOnly));
    }

    #[test]
    fn identification_migrates_domains() {
        let (_, kard) = setup();
        let t = kard.register_thread();
        let o = kard.on_alloc(t, 32);
        assert_eq!(kard.domain_of(o.id), Some(Domain::NotAccessed));

        kard.lock_enter(t, LockId(1), site(0x1));
        kard.read(t, o.base, site(0x2));
        assert_eq!(kard.domain_of(o.id), Some(Domain::ReadOnly));
        kard.write(t, o.base, site(0x3));
        assert!(matches!(kard.domain_of(o.id), Some(Domain::ReadWrite(_))));
        kard.lock_exit(t, LockId(1));

        let stats = kard.stats();
        assert_eq!(stats.identification_faults, 1);
        assert_eq!(stats.migration_faults, 1);
        assert_eq!(stats.objects_identified, 1);
        assert!(kard.reports().is_empty());
    }

    #[test]
    fn non_critical_access_never_faults_on_not_accessed() {
        let (machine, kard) = setup();
        let t = kard.register_thread();
        let o = kard.on_alloc(t, 32);
        kard.write(t, o.base, site(0x1));
        kard.read(t, o.base, site(0x2));
        assert_eq!(machine.counters().faults, 0);
        assert_eq!(kard.domain_of(o.id), Some(Domain::NotAccessed));
    }

    #[test]
    fn proactive_acquisition_on_reentry() {
        let (_, kard) = setup();
        let t = kard.register_thread();
        let o = kard.on_alloc(t, 32);

        kard.lock_enter(t, LockId(1), site(0x1));
        kard.write(t, o.base, site(0x2)); // Reactive: faults.
        kard.lock_exit(t, LockId(1));
        let faults_before = kard.stats().identification_faults;

        kard.lock_enter(t, LockId(1), site(0x1));
        kard.write(t, o.base, site(0x2)); // Proactive: no fault.
        kard.lock_exit(t, LockId(1));

        let stats = kard.stats();
        assert_eq!(stats.identification_faults, faults_before);
        assert!(stats.proactive_acquisitions >= 1);
    }

    #[test]
    fn unlocked_write_vs_locked_write_detected() {
        // Table 1 row 2/3: only one side holds a lock.
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 64);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1));
        // t2 writes with no lock while t1 holds the key.
        kard.write(t2, o.base, site(0xc1));
        kard.lock_exit(t1, LockId(1));

        let reports = kard.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].faulting.section, None);
        assert_eq!(reports[0].holding.section, Some(SectionId(site(0xa))));
    }

    #[test]
    fn consistent_locking_is_silent() {
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 32);

        // Same lock, same section, serial: never concurrent.
        for (t, ip) in [(t1, 0x10), (t2, 0x20), (t1, 0x30), (t2, 0x40)] {
            kard.lock_enter(t, LockId(7), site(0x100));
            kard.write(t, o.base, site(ip));
            kard.read(t, o.base, site(ip + 1));
            kard.lock_exit(t, LockId(7));
        }
        assert!(kard.reports().is_empty());
    }

    #[test]
    fn interleaving_prunes_different_offsets() {
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 128);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1)); // t1 writes offset 0.
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.write(t2, o.base.offset(64), site(0xb1)); // candidate: offset 64.
        // t1 touches offset 0 again -> interleave fault -> disjoint offsets.
        kard.write(t1, o.base, site(0xa2));
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));

        assert!(kard.reports().is_empty(), "different offsets pruned");
        assert_eq!(kard.stats().races_pruned_offset, 1);
        // Protection restored after both exits.
        assert!(matches!(kard.domain_of(o.id), Some(Domain::ReadWrite(_))));
    }

    #[test]
    fn interleaving_confirms_same_offset() {
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 128);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base.offset(8), site(0xa1));
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.write(t2, o.base.offset(8), site(0xb1)); // same offset
        kard.write(t1, o.base.offset(8), site(0xa2)); // counterpart fault
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));

        let reports = kard.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].holding.offset, Some(8), "filled by interleave");
        assert_eq!(kard.stats().races_pruned_offset, 0);
    }

    #[test]
    fn small_section_leaves_candidate_reported() {
        // The pigz false positive (§7.3): the key holder exits before the
        // interleaved protection can observe its offset.
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 128);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1));
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.write(t2, o.base.offset(64), site(0xb1));
        kard.lock_exit(t1, LockId(1)); // t1 exits without re-touching.
        kard.lock_exit(t2, LockId(2));

        assert_eq!(kard.reports().len(), 1, "unresolved candidate reported");
    }

    #[test]
    fn redundant_reports_are_pruned() {
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let t3 = kard.register_thread();
        let o = kard.on_alloc(t1, 32);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1));
        // Two different threads, same unlocked racy read site.
        kard.read(t2, o.base, site(0xc));
        kard.read(t3, o.base, site(0xc));
        kard.lock_exit(t1, LockId(1));

        assert_eq!(kard.reports().len(), 1);
        assert_eq!(kard.stats().races_pruned_redundant, 1);
    }

    #[test]
    fn key_exhaustion_recycles_before_sharing() {
        // 6 total keys -> 3 pool keys. Sections touch 4 distinct objects
        // serially, so the 4th assignment must recycle (keys unheld between
        // sections).
        let (_, kard) = setup_with(KardConfig::default(), 6);
        let t = kard.register_thread();
        let objs: Vec<_> = (0..4).map(|_| kard.on_alloc(t, 32)).collect();
        for (i, o) in objs.iter().enumerate() {
            kard.lock_enter(t, LockId(i as u64), site(0x100 + i as u64));
            kard.write(t, o.base, site(0x200 + i as u64));
            kard.lock_exit(t, LockId(i as u64));
        }
        let stats = kard.stats();
        assert_eq!(stats.key_recycles, 1);
        assert_eq!(stats.key_shares, 0);
        // The recycled key's object is now read-only domain.
        assert_eq!(kard.domain_of(objs[0].id), Some(Domain::ReadOnly));
        assert!(kard.reports().is_empty());
    }

    #[test]
    fn key_exhaustion_shares_when_all_keys_held() {
        // 4 total keys -> 1 pool key, held concurrently by t1.
        let (_, kard) = setup_with(KardConfig::default(), 4);
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o1 = kard.on_alloc(t1, 32);
        let o2 = kard.on_alloc(t1, 32);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o1.base, site(0xa1)); // takes the only pool key
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.write(t2, o2.base, site(0xb1)); // must share it
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));

        let stats = kard.stats();
        assert_eq!(stats.key_shares, 1);
        assert!(
            kard.reports().is_empty(),
            "disjoint-object sharing is not a race"
        );
    }

    #[test]
    fn sharing_causes_false_negative_on_same_object() {
        // Table 4: sharing is the one false-negative window. With a single
        // pool key and both sections touching the same object, the race is
        // missed.
        let (_, kard) = setup_with(KardConfig::default(), 4);
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let filler = kard.on_alloc(t1, 32);
        let x = kard.on_alloc(t1, 32);

        // t1's section takes the only pool key for `filler`...
        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, filler.base, site(0xa1));
        // ...so t2's new object `x` must *share* that key: both threads now
        // hold it with read-write permission.
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.write(t2, x.base, site(0xb1));
        // t1 writes x under a different lock — an ILU race — but t1 already
        // holds the shared key, so no fault is raised: a false negative.
        kard.write(t1, x.base, site(0xa2));
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));

        assert_eq!(kard.stats().key_shares, 1);
        assert!(kard.reports().is_empty(), "sharing hides this ILU race");
    }

    #[test]
    fn nested_sections_restore_keys() {
        let (_, kard) = setup();
        let t = kard.register_thread();
        let o1 = kard.on_alloc(t, 32);
        let o2 = kard.on_alloc(t, 32);

        kard.lock_enter(t, LockId(1), site(0xa));
        kard.write(t, o1.base, site(0xa1));
        kard.lock_enter(t, LockId(2), site(0xb));
        kard.write(t, o2.base, site(0xb1));
        kard.lock_exit(t, LockId(2));
        // o1's key still held: writing again must not fault.
        let faults = kard.stats();
        kard.write(t, o1.base, site(0xa2));
        assert_eq!(
            kard.stats().identification_faults,
            faults.identification_faults
        );
        kard.lock_exit(t, LockId(1));
        assert!(kard.reports().is_empty());
    }

    #[test]
    fn free_clears_metadata() {
        let (_, kard) = setup();
        let t = kard.register_thread();
        let o = kard.on_alloc(t, 32);
        kard.lock_enter(t, LockId(1), site(0xa));
        kard.write(t, o.base, site(0xa1));
        kard.lock_exit(t, LockId(1));
        kard.on_free(t, o.id);
        assert_eq!(kard.domain_of(o.id), None);
        assert!(kard.section_objects(SectionId(site(0xa))).is_empty());
    }

    #[test]
    fn stats_track_sections() {
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.lock_exit(t2, LockId(2));
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));
        let stats = kard.stats();
        assert_eq!(stats.cs_entries, 3);
        assert_eq!(stats.unique_sections, 2);
        assert_eq!(stats.max_concurrent_sections, 2);
    }

    #[test]
    fn global_objects_participate_in_detection() {
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let g = kard.on_global(t1, 8);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, g.base, site(0xa1));
        kard.read(t2, g.base, site(0xc)); // Aget-style unlocked read.
        kard.lock_exit(t1, LockId(1));
        assert_eq!(kard.reports().len(), 1);
    }

    #[test]
    #[should_panic(expected = "mismatched unlock")]
    fn mismatched_unlock_panics() {
        let (_, kard) = setup();
        let t = kard.register_thread();
        kard.lock_enter(t, LockId(1), site(0xa));
        kard.lock_exit(t, LockId(2));
    }

    #[test]
    fn delay_injection_stalls_armed_exits_only() {
        let config = KardConfig {
            interleave_exit_delay: 50_000,
            ..KardConfig::default()
        };
        let (machine, kard) = {
            let machine = Arc::new(Machine::new(MachineConfig::default()));
            let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
            let kard = Kard::new(Arc::clone(&machine), alloc, config);
            (machine, kard)
        };
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 128);

        // Un-conflicted exit: no stall.
        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1));
        let before = machine.thread_cycles(t1);
        kard.lock_exit(t1, LockId(1));
        assert!(machine.thread_cycles(t1) - before < 50_000);

        // Armed interleaving: t1's exit is stalled by the delay.
        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1));
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.write(t2, o.base.offset(64), site(0xb1)); // Arms.
        let before = machine.thread_cycles(t1);
        kard.lock_exit(t1, LockId(1));
        assert!(
            machine.thread_cycles(t1) - before >= 50_000,
            "armed participant must be delayed"
        );
        kard.lock_exit(t2, LockId(2));
    }

    #[test]
    fn timestamp_filter_counts_stale_candidates() {
        let (machine, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 32);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1));
        kard.lock_exit(t1, LockId(1));
        // Let far more than the fault delay pass on the virtual clock.
        machine.charge(t1, 1_000_000);
        // t2 writes unlocked: key unheld, release long ago -> no race.
        kard.write(t2, o.base, site(0xc));
        assert!(kard.reports().is_empty());
        assert_eq!(kard.stats().races_filtered_timestamp, 1);
    }

    #[test]
    fn stale_fault_is_dropped_not_replayed() {
        // A fault raised against `k_na` whose handler only gets the
        // object's fault shard after another handler identified the
        // object: the protection it describes is gone.
        let (machine, kard) = setup();
        let t = kard.register_thread();
        let o = kard.on_alloc(t, 32);
        kard.lock_enter(t, LockId(1), site(0xa));
        kard.read(t, o.base, site(0xa1)); // identifies: page now carries k_ro
        let stale = GpFault {
            thread: t,
            addr: o.base,
            page: o.base.page(),
            pkey: kard.layout.not_accessed,
            access: AccessKind::Read,
            ip: site(0xa2),
            tsc: machine.now(),
        };
        assert_eq!(kard.handle_fault(stale), Ok(FaultAction::Retry));
        assert_eq!(kard.stats().objects_identified, 1, "not identified twice");
        assert_eq!(kard.domain_of(o.id), Some(Domain::ReadOnly));
        kard.lock_exit(t, LockId(1));
    }

    #[test]
    fn interleave_fault_without_an_armed_interleaving_falls_through() {
        // The last participant's exit retires an interleaving under the
        // interleaver guard alone, so a counterpart fault can find it
        // gone: that is a pool fault, not a panic.
        let (machine, kard) = setup();
        let t = kard.register_thread();
        let o = kard.on_alloc(t, 32);
        kard.lock_enter(t, LockId(1), site(0xa));
        kard.write(t, o.base, site(0xa1));
        let Some(Domain::ReadWrite(key)) = kard.domain_of(o.id) else {
            panic!("a section write identifies into the Read-write domain");
        };
        let fault = GpFault {
            thread: t,
            addr: o.base,
            page: o.base.page(),
            pkey: key,
            access: AccessKind::Write,
            ip: site(0xa2),
            tsc: machine.now(),
        };
        assert_eq!(kard.handle_interleave_fault(&fault, &o, 0), None);
        assert_eq!(kard.stats().interleave_faults, 0);
        kard.lock_exit(t, LockId(1));
    }

    #[test]
    fn sequential_different_locks_not_reported() {
        // Two sections under different locks, executed strictly one after
        // the other: no concurrency, so no ILU race. The release-timestamp
        // logic must not resurrect the released key.
        let (_, kard) = setup();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 32);

        kard.lock_enter(t1, LockId(1), site(0xa));
        kard.write(t1, o.base, site(0xa1));
        kard.lock_exit(t1, LockId(1));
        kard.lock_enter(t2, LockId(2), site(0xb));
        kard.write(t2, o.base, site(0xb1));
        kard.lock_exit(t2, LockId(2));
        assert!(kard.reports().is_empty());
    }
}
