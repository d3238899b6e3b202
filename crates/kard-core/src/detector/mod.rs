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
//!   frames, held keys, and section-plan handles live in
//!   that thread's own slot — published once into a lock-free
//!   [`Registry`] and guarded by an
//!   [`OwnedCell`](crate::registry::OwnedCell) engage CAS, so neither
//!   finding nor opening a thread's own state takes any shared lock;
//! * **lock-free domains**: an object's protection domain is one atomic
//!   word in the flat side metadata ([`crate::sidemeta`]), indexed by
//!   object id and reached through `set_domain` / `domain` /
//!   `take_domain` (store / load / swap). The table spans every id the
//!   allocator can issue, so no object's domain lives anywhere else;
//! * **per-concern locks**: the key-section map, the section-object map,
//!   the interleaver, and the race-record store each have their own
//!   narrow lock — but the *common* (no-conflict) section entry/exit
//!   never reaches any of them: proactive key acquisition replays the
//!   section's published plan (one word per section, reached through a
//!   handle in the thread's own cache; see `plan`) plus one CAS on the
//!   key's holder word ([`KeyWords`]), and key release is one CAS the
//!   same way. Any mismatch — nested entry, stale plan, contended key,
//!   multi-key plan — falls back to the locked slow path, which accounts
//!   the same charges, events, and stats;
//! * **lock-free counters**: statistics and the active-section count are
//!   relaxed atomics ([`AtomicStats`]);
//! * **a per-thread participating counter**: the exit-time interleaver
//!   check (§5.5) consults a relaxed per-thread atomic counter mirroring
//!   the interleaver's participant sets, so a section exit takes the
//!   interleaver lock only when this thread is actually inside an
//!   interleaving.
//!
//! The lock-free read side is governed by two kinds of published word,
//! each protocol stated once, at its writer (the `plan` module and
//! [`KeyWords`]):
//!
//! * per-section plan words: a whole entry plan and its generation in one
//!   atomic word, patched or marked stale by exactly the mutations that
//!   reach that section, rebuilt by the next entry and published for all
//!   threads;
//! * per-key holder words ([`KeyWords`]): outside a guard, `EMPTY` means
//!   *no holder anywhere* — fast acquire/release is a CAS on the word.
//!   Every key-table guard first parks the whole pool with one word and
//!   moves only fast-held words to `SLOW`, materializing their holders
//!   into the table ([`KeyWords::sync`]); on drop it rewrites only the
//!   words that disagree with the table and unparks the pool
//!   ([`KeyWords::republish`]), so the locked world always sees a complete
//!   table and the two faces never disagree.
//!
//! Locking discipline:
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
//!    `OwnedCell` contexts follow the same rule from the other side:
//!    a context is never engaged while `keys`, `vkeys`, or the
//!    interleaver is held, and an engaged closure never acquires any
//!    detector lock, so the engage spin is bounded and cycle-free. The
//!    `sections` lock is such a leaf with the plan cells under it: a
//!    writer looks up the sections accessing an object and touches their
//!    cells (single atomic operations) while holding it, and a reader
//!    copies a section's objects out, both without reaching the key
//!    table;
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
//!
//! # Map of the module
//!
//! This file holds the [`Kard`] struct, constructor, accessors and the
//! key-table guard. `thread`: per-thread frames, held keys, plan handles.
//! `plan`: the per-section plan words, their writers and their protocol.
//! `section`: entry (plan replay, locked rebuild) and exit. `fault`: the
//! #GP handler and race records. `assign`: key assignment and eviction.
//! `transition`: the one primitive every domain change goes through.
//! `lifecycle`: alloc/free/thread exit, reports, stats, drain ticks.

mod assign;
mod fault;
mod lifecycle;
mod plan;
mod section;
#[cfg(test)]
mod tests;
mod thread;
mod transition;

use crate::budget::BudgetController;
use crate::config::{KardConfig, KeyMode};
use crate::faultshard::{FaultShardStats, FaultShards};
use crate::interleave::Interleaver;
use crate::keymap::{KeyTable, KeyWords};
use crate::report::{RaceFingerprint, RaceRecord};
use crate::sidemeta::SideMetadata;
use crate::stats::AtomicStats;
use crate::vkey::{KeyCachePolicy, VKeyTable};
use kard_alloc::KardAlloc;
use kard_sim::{CostModel, KeyLayout, Machine, Permission, Pkru, Registry, ThreadId};
use kard_telemetry::sync::{TrackedMutex, TrackedRwLock};
use kard_telemetry::{EventKind, Telemetry};
use parking_lot::MutexGuard;
use plan::SectionBook;
use std::collections::HashSet;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use thread::ThreadSlot;

/// The in-flight section count: the one word every entry and exit of
/// every thread writes, so it sits alone on its cache lines (which also
/// fixes the `Kard`'s own alignment). Packed among the read-mostly
/// fields, whichever of them the allocator's placement of the detector
/// put on its line missed on every section any other thread ran — 12%
/// of `embed_threads`' throughput.
#[repr(align(128))]
struct ActiveSections(AtomicU64);
const _: () = assert!(align_of::<ActiveSections>() >= 128);

/// Race records plus the dedup fingerprints guarding them — one concern,
/// one lock.
#[derive(Default)]
struct RecordStore {
    records: Vec<Option<RaceRecord>>,
    seen: HashSet<RaceFingerprint>,
    /// Every record §5.5 offset pruning took out of `records`, with its
    /// raw index, in the order it was withdrawn.
    withdrawn: Vec<(usize, RaceRecord)>,
}

/// The `keys` mutex guard with the lock-free holder words kept coherent:
/// created via [`Kard::lock_keys`] (which parks the pool and syncs fast
/// holders into the table), dereferences to the [`KeyTable`], and on drop
/// brings the holder words into line with the table and unparks the pool
/// — while the mutex is still held, so the next guard's `sync` starts
/// from words that agree with the table.
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
    /// The section-object map (§5.3, Figure 3a) and, beside it, the plan
    /// cells of the sections entered so far (see `plan`). A leaf lock.
    sections: TrackedRwLock<SectionBook>,
    /// Differential-test switch: mark every plan stale before each entry,
    /// so every eligible entry rebuilds on the locked path.
    #[cfg(test)]
    stale_every_entry: std::sync::atomic::AtomicBool,
    /// The key-section map (§5.4, Figure 3b). Acquired only through
    /// [`Kard::lock_keys`], which keeps the lock-free holder words and
    /// the table coherent.
    keys: TrackedMutex<KeyTable>,
    /// The pool keys' lock-free face: CAS-published holder words that let
    /// an uncontended acquire/release skip the `keys` mutex entirely.
    words: KeyWords,
    /// The virtual→hardware key cache (see [`crate::vkey`]); consulted
    /// only under [`KeyMode::Virtual`]. When held together
    /// with `keys`, `keys` is always acquired first (order: `keys` →
    /// `vkeys`, never the reverse).
    vkeys: TrackedMutex<VKeyTable>,
    /// Flat id-indexed side metadata (see [`crate::sidemeta`]): every
    /// object's domain, the lock-free mirror of vkey membership, and the
    /// hotness counters that drive
    /// [`KeyCachePolicy::Hotness`](crate::vkey::KeyCachePolicy::Hotness)
    /// eviction. A domain word moving into, out of or within the
    /// Read-write domain is written *before* the plans of the sections
    /// accessing the object are marked stale (the `plan` protocol), so a
    /// plan built from the old word is never published.
    sidemeta: SideMetadata,
    /// The protection-interleaving engine (§5.5, Figure 4).
    interleaver: TrackedMutex<Interleaver>,
    /// Race records and dedup fingerprints (§5.5).
    records: TrackedMutex<RecordStore>,
    /// Lock-free statistic counters.
    stats: AtomicStats,
    /// Critical sections currently in flight.
    active_sections: ActiveSections,
    /// Telemetry hub (shared with the allocator and the runtime). Every
    /// emission site gates on one relaxed enabled-load; recording itself
    /// is lock-free and allocation-free, so no detector path changes
    /// locking behaviour when tracing is on.
    telemetry: Arc<Telemetry>,
    /// Production-mode overhead-budget controller (see [`crate::budget`]).
    /// Inert (one plain bool test per gated site) unless
    /// [`KardConfig::production`] is set; its decisions are relaxed atomic
    /// loads, and its control loop runs only in [`Kard::production_tick`]
    /// on the drain side.
    budget: BudgetController,
}

impl Kard {
    /// Create a detector over `machine` and `alloc`.
    #[must_use]
    pub fn new(machine: Arc<Machine>, alloc: Arc<KardAlloc>, config: KardConfig) -> Kard {
        let layout = machine.key_layout();
        // Declare `k_na` as the allocator's provision key: magazine refills
        // then fold the Not-accessed tagging of a whole slab batch into one
        // batched `pkey_mprotect`, and the sharded path pretags per object,
        // so `on_alloc`/`on_global` never retag. The allocator must be
        // fresh — `set_provision_key` panics otherwise.
        alloc.set_provision_key(layout.not_accessed);
        let cache_policy = match config.keys {
            KeyMode::Virtual(policy) => policy,
            KeyMode::Direct { .. } => KeyCachePolicy::Lru, // never consulted
        };
        let counter = Arc::new(AtomicU64::new(0));
        let telemetry = Arc::clone(alloc.telemetry());
        Kard {
            cost: *machine.cost_model(),
            machine,
            alloc,
            config,
            layout,
            fault_shards: FaultShards::new(),
            threads: Registry::new(),
            sections: TrackedRwLock::new(SectionBook::default(), Arc::clone(&counter)),
            #[cfg(test)]
            stale_every_entry: std::sync::atomic::AtomicBool::new(false),
            keys: TrackedMutex::new(KeyTable::new(&layout), Arc::clone(&counter)),
            words: KeyWords::new(&layout),
            vkeys: TrackedMutex::new(VKeyTable::new(cache_policy), Arc::clone(&counter)),
            sidemeta: SideMetadata::default(),
            interleaver: TrackedMutex::new(Interleaver::new(), Arc::clone(&counter)),
            records: TrackedMutex::new(RecordStore::default(), Arc::clone(&counter)),
            stats: AtomicStats::default(),
            active_sections: ActiveSections(AtomicU64::new(0)),
            lock_acquisitions: counter,
            telemetry,
            budget: BudgetController::new(config.production),
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
    /// acquisition [`KeyWords::sync`] parks the pool and materializes
    /// fast holders into the table (making it authoritative for the
    /// duration), and on drop [`KeyWords::republish`] re-opens the fast
    /// path for keys the table shows as unheld.
    fn lock_keys(&self) -> KeysGuard<'_> {
        let mut table = self.keys.lock();
        self.words.sync(&mut table);
        KeysGuard {
            table,
            words: &self.words,
        }
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
}

impl fmt::Debug for Kard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kard")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}
