//! The simulated machine: threads, PKRU registers, page table, TLBs,
//! physical memory, a virtual timestamp counter, and cycle accounting.
//!
//! [`Machine`] is the single entry point the rest of the reproduction uses.
//! It is fully thread-safe so workloads can run on real OS threads, and
//! fully deterministic when driven from one thread by the trace replayer.
//!
//! One contract binds its callers: a [`ThreadId`] is driven by one OS
//! thread at a time, as a hardware thread runs one instruction stream.
//! Different simulated threads may run on as many OS threads as they like,
//! and one OS thread may drive many of them; what must not happen is two
//! OS threads calling into the machine for the same `ThreadId` at once,
//! because that thread's dTLB and its counters each have exactly one
//! writer (see [`crate::tlb`] and [`crate::counter`]). Debug builds check
//! it in every call that charges the thread and panic on a violation;
//! release builds pay nothing for the check. The one call that charges a
//! thread from another OS thread, [`Machine::rdpkru_of`], writes words the
//! owner never writes.

use crate::cost::{CostModel, CycleCount};
use crate::counter::bump_owned;
use crate::fault::{AccessKind, CodeSite, GpFault};
use crate::keys::{KeyLayout, ProtectionKey};
use crate::mem::{PhysFrame, VirtAddr, VirtPage};
use crate::page_table::{AddressSpace, MapError, ProtectError};
use crate::phys::{MemStats, PhysMemory};
use crate::pkru::Pkru;
use crate::spine::{Registry, THREAD_CAPACITY};
use crate::tlb::{Tlb, TlbConfig, TlbStats};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hint::spin_loop;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Identifier of a simulated thread, assigned by [`Machine::register_thread`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct ThreadId(pub usize);

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// How per-thread memory protection is realized (paper §8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProtectionMechanism {
    /// Intel MPK: `WRPKRU` changes a thread's permissions in ~20 cycles
    /// with no TLB impact.
    #[default]
    Mpk,
    /// Software fallback (ISOLATOR/iThreads-style): each per-key permission
    /// change costs an `mprotect`-class page-table update and flushes the
    /// thread's TLB. The paper cites up to ~100% overhead for such schemes;
    /// this mechanism exists so the ablation harness can measure the gap
    /// Kard's MPK usage buys.
    MprotectFallback,
}

/// Configuration of the simulated machine.
#[derive(Clone, Debug, Default)]
pub struct MachineConfig {
    /// Protection-key layout (16-key MPK by default).
    pub key_layout: KeyLayout,
    /// Per-thread dTLB geometry.
    pub tlb: TlbConfig,
    /// Per-thread protection mechanism (MPK by default).
    pub mechanism: ProtectionMechanism,
}

/// A thread's PKRU as the machine stores it. Layouts whose bits fit one
/// word — real 16-key MPK and everything up to 32 keys — live in an
/// atomic, so `RDPKRU`, `WRPKRU`, and the per-access permission check
/// are single loads and stores, exactly as cheap as the real register.
/// Only the §8 wide-register ablation pays for a mutex.
enum PkruCell {
    Narrow { bits: AtomicU64, num_keys: u16 },
    Wide(Mutex<Pkru>),
}

impl PkruCell {
    fn new(pkru: Pkru) -> PkruCell {
        match pkru.to_bits64() {
            Some(bits) => PkruCell::Narrow {
                bits: AtomicU64::new(bits),
                num_keys: pkru.num_keys(),
            },
            None => PkruCell::Wide(Mutex::new(pkru)),
        }
    }

    fn load(&self) -> Pkru {
        match self {
            PkruCell::Narrow { bits, num_keys } => {
                Pkru::from_bits64(bits.load(Ordering::Acquire), *num_keys)
            }
            PkruCell::Wide(pkru) => pkru.lock().clone(),
        }
    }

    fn store(&self, pkru: Pkru) {
        match self {
            PkruCell::Narrow { bits, .. } => bits.store(
                pkru.to_bits64().expect("narrow cell holds a narrow layout"),
                Ordering::Release,
            ),
            PkruCell::Wide(cell) => *cell.lock() = pkru,
        }
    }

    fn allows(&self, key: ProtectionKey, kind: AccessKind) -> bool {
        match self {
            PkruCell::Narrow { bits, .. } => {
                Pkru::bits64_allow(bits.load(Ordering::Acquire), key, kind)
            }
            PkruCell::Wide(pkru) => pkru.lock().allows(key, kind),
        }
    }
}

/// One registered thread: its dTLB, which only the thread itself writes
/// (other threads only post shootdowns to it), the PKRU in a
/// [`PkruCell`], and the cycle and operation counters as bare atomics, so
/// neither [`Machine::charge`] — executed for every simulated instruction
/// — nor a dTLB hit takes a lock. The per-thread cycle counters double as
/// the virtual clock: [`Machine::now`] sums the live threads' and adds
/// what the retired ones ran (`Liveness`), so no global clock word
/// exists to contend on; [`Machine::counters`] sums the operation counters
/// the same way (each only grows, and per-location coherence makes every
/// summed read monotonic for the reading thread). Memory accesses are not
/// counted here: each probes the dTLB exactly once, so its lookup count is
/// the access count. Nor are faults: the machine's raise count
/// ([`Machine::faults_raised`]) is their total. Aligned so no two threads'
/// counters share a cache line.
///
/// **Who writes which word.** The *owner words* — `cycles`, `wrpkru`,
/// `rdpkru` and the dTLB's counters — are written only by the OS thread
/// driving this thread, with [`bump_owned`]'s load and store. The
/// *visitor words*, `visited_cycles` and `visited_rdpkru`, are written
/// only from other OS threads' [`Machine::rdpkru_of`], with `fetch_add`;
/// every reader adds them to the owner words ([`ThreadEntry::charged`]).
/// The rare counters (`pkey_mprotect`, `mmap`, `munmap`, `ftruncate`) keep
/// `fetch_add`, and so does `context_pkru_updates`, which a key eviction
/// on another OS thread bumps ([`Machine::set_pkru_in_saved_context`]).
#[repr(align(128))]
struct ThreadEntry {
    tlb: Tlb,
    pkru: PkruCell,
    /// Owner word: cycles this thread's own OS thread charged it.
    cycles: AtomicU64,
    /// Virtual time at which the thread was registered: the maximum
    /// timeline (`birth + cycles`) over the threads alive at that moment.
    /// `cycles` alone counts work *executed by this thread* and is only
    /// comparable to another thread's counter when both threads were
    /// born together; `birth + cycles` is a TSC-like common timeline —
    /// a thread spawned later can never appear to run *before* work its
    /// parent had already completed.
    birth: u64,
    /// Owner word: `WRPKRU` executions.
    wrpkru: AtomicU64,
    /// Owner word: `RDPKRU` executions by this thread's own OS thread.
    rdpkru: AtomicU64,
    pkey_mprotect: AtomicU64,
    mmap: AtomicU64,
    munmap: AtomicU64,
    ftruncate: AtomicU64,
    context_pkru_updates: AtomicU64,
    /// Visitor word: cycles charged to this thread from other OS threads.
    visited_cycles: AtomicU64,
    /// Visitor word: `RDPKRU`s of this thread's register made from other
    /// OS threads.
    visited_rdpkru: AtomicU64,
    /// Raised while an OS thread is inside a call that bumps this thread's
    /// owner words: debug builds' check that one OS thread drives it at a
    /// time.
    #[cfg(debug_assertions)]
    driven: AtomicBool,
}
const _: () = assert!(align_of::<ThreadEntry>() >= 128);

impl ThreadEntry {
    /// Every cycle charged to the thread: its owner word plus its visitor
    /// word.
    fn charged(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed) + self.visited_cycles.load(Ordering::Relaxed)
    }
}

/// Held in debug builds by each call that bumps a thread's owner words,
/// once per public entry point: claims the thread's
/// [`ThreadEntry::driven`] flag, panicking if another OS thread holds it,
/// and lowers it on drop.
#[cfg(debug_assertions)]
struct Driving<'a>(&'a AtomicBool);

#[cfg(debug_assertions)]
impl<'a> Driving<'a> {
    fn claim(entry: &'a ThreadEntry, thread: ThreadId) -> Driving<'a> {
        assert!(
            !entry.driven.swap(true, Ordering::Acquire),
            "{thread} is driven by two OS threads at once"
        );
        Driving(&entry.driven)
    }
}

#[cfg(debug_assertions)]
impl Drop for Driving<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Operation counters, readable at any time via [`Machine::counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// `WRPKRU` executions.
    pub wrpkru: u64,
    /// `RDPKRU` executions.
    pub rdpkru: u64,
    /// `pkey_mprotect()` system calls.
    pub pkey_mprotect: u64,
    /// `mmap()` system calls.
    pub mmap: u64,
    /// `munmap()` system calls.
    pub munmap: u64,
    /// `ftruncate()` system calls (file growth events).
    pub ftruncate: u64,
    /// Memory accesses checked: every one probes its thread's dTLB once,
    /// so this is [`Machine::tlb_stats`]' lookups.
    pub accesses: u64,
    /// Simulated #GP faults raised ([`Machine::faults_raised`]).
    pub faults: u64,
    /// Saved-context PKRU updates performed by a fault handler.
    pub context_pkru_updates: u64,
}

/// Apply `op` to `items` in order until one fails: how many succeeded, and
/// the failure if any. A batched system call keeps the prefix it applied
/// (as a partially applied `mmap` does) and reports the error.
fn apply_prefix<T, E>(
    items: &[T],
    mut op: impl FnMut(&T) -> Result<(), E>,
) -> (usize, Result<(), E>) {
    for (done, item) in items.iter().enumerate() {
        if let Err(error) = op(item) {
            return (done, Err(error));
        }
    }
    (items.len(), Ok(()))
}

/// The count of #GP faults the machine has raised, alone on its cache
/// lines: only a fault writes it, and every section exit loads it (the
/// §5.4 release stamp), so no other word's writes may evict it.
#[repr(align(128))]
struct FaultsRaised(AtomicU64);
const _: () = assert!(align_of::<FaultsRaised>() >= 128);

/// Words of [`Liveness::leaves`]: one bit per thread id.
const LEAF_WORDS: usize = THREAD_CAPACITY / 64;
const _: () = assert!(LEAF_WORDS <= 64, "one summary word covers every leaf");

/// The set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
        word &= word - 1;
        Some(bit)
    })
}

/// Which registered threads are live, and what the retired ones left
/// behind: what lets [`Machine::now`], [`Machine::shoot_down`] and the
/// birth frontier walk live threads only. A two-level bitmap, so a walk
/// visits one summary word, one leaf word per 64-id block holding a live
/// thread, and the live entries — never a retired one.
///
/// It is built at a machine's first retirement, with every thread
/// registered so far live. Until then every registered thread is live and
/// the walks take the registry: a machine whose threads never exit —
/// every embedded run — holds no bitmap at all. (Allocating these 640
/// bytes eagerly in [`Machine::new`] was enough, through where later
/// allocations landed, to cost `embed_threads` 8–10% on a 2-vCPU host.)
/// Only registration and retirement write these words, under the
/// registration lock; they stay off [`ThreadEntry`] and off the lines of
/// `Machine` the section path reads.
///
/// **What a concurrent [`Machine::now`] reader may see.** A retirement
/// folds the thread's counter into `retired_cycles` and clears its bit
/// between two bumps of `retiring`, a seqlock: a reader that saw
/// `retiring` odd, or changed across its walk, walks again. So a reader
/// never counts the retiring thread twice (folded and still live) nor
/// not at all (cleared and not yet folded); it sees the sum either before
/// or after the fold, and the two are equal, because a retired thread is
/// never charged again. A reader that found no bitmap walks every
/// registered counter, which a retirement leaves as it is, so it too sees
/// that sum. A registration only sets bits: a reader racing it may miss
/// the newcomer, whose counter is zero until its registration returns.
#[repr(align(128))]
struct Liveness {
    /// Bit `w` is set while leaf word `w` has a bit set.
    summary: AtomicU64,
    /// Bit `i % 64` of word `i / 64` is set while thread `i` is live.
    leaves: [AtomicU64; LEAF_WORDS],
    /// Cycles charged to every retired thread: the base [`Machine::now`]
    /// adds the live counters to.
    retired_cycles: AtomicU64,
    /// The seqlock around a retirement: odd while one runs.
    retiring: AtomicU64,
    /// The largest timeline (`birth + cycles`) a retired thread reached,
    /// which a newcomer's birth still accounts for.
    retired_frontier: AtomicU64,
}
const _: () = assert!(align_of::<Liveness>() >= 128);

impl Liveness {
    /// Threads `0..registered` live, none retired.
    fn new(registered: usize) -> Liveness {
        let live = Liveness {
            summary: AtomicU64::new(0),
            leaves: std::array::from_fn(|_| AtomicU64::new(0)),
            retired_cycles: AtomicU64::new(0),
            retiring: AtomicU64::new(0),
            retired_frontier: AtomicU64::new(0),
        };
        (0..registered).for_each(|index| live.add(index));
        live
    }

    /// Mark thread `index` live (under the registration lock).
    fn add(&self, index: usize) {
        self.leaves[index / 64].fetch_or(1 << (index % 64), Ordering::Release);
        self.summary.fetch_or(1 << (index / 64), Ordering::Release);
    }

    /// The live thread ids, ascending.
    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        bits(self.summary.load(Ordering::Acquire)).flat_map(move |w| {
            bits(self.leaves[w].load(Ordering::Acquire)).map(move |b| w * 64 + b)
        })
    }

    fn is_live(&self, thread: ThreadId) -> bool {
        self.leaves[thread.0 / 64].load(Ordering::Acquire) & 1 << (thread.0 % 64) != 0
    }
}

/// The simulated machine. See the [crate-level documentation](crate) for an
/// end-to-end example.
pub struct Machine {
    config: MachineConfig,
    /// The cycle costs it charges: always [`CostModel::paper`]. A field,
    /// not a `const`: with these 160 bytes gone from `Machine`,
    /// `embed_threads` ran 6–10% slower (two OS threads on two cores).
    cost: CostModel,
    phys: Mutex<PhysMemory>,
    /// The page table: lock-free to read, self-serialising to write (see
    /// [`crate::page_table`]), so no lock of the machine's wraps it.
    aspace: AddressSpace,
    /// Registered threads on the shared [`Registry`] spine: reaching a
    /// thread's state is two lock-free loads, so neither the
    /// per-instruction cycle charge nor a dTLB hit touches a shared word
    /// or a lock.
    threads: Registry<ThreadEntry>,
    /// Serialises registration and retirement — the cold paths — so
    /// birth stamps and ids are assigned atomically.
    registration: Mutex<()>,
    /// Faults raised so far; each raise takes its [`GpFault::seq`] here.
    faults_raised: FaultsRaised,
    /// The live set and the retired threads' cycles, built at the first
    /// retirement.
    retired: OnceLock<Box<Liveness>>,
}

impl Machine {
    /// A fresh machine with no threads and an empty address space.
    #[must_use]
    pub fn new(config: MachineConfig) -> Machine {
        let total_keys = config.key_layout.total_keys;
        Machine {
            config,
            cost: CostModel::paper(),
            phys: Mutex::new(PhysMemory::new()),
            aspace: AddressSpace::new(total_keys),
            threads: Registry::new(),
            registration: Mutex::new(()),
            faults_raised: FaultsRaised(AtomicU64::new(0)),
            retired: OnceLock::new(),
        }
    }

    /// The machine's key layout.
    #[must_use]
    pub fn key_layout(&self) -> KeyLayout {
        self.config.key_layout
    }

    /// The machine's cost model: [`CostModel::paper`].
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Register a new thread. Its PKRU starts fully permissive, matching
    /// the architectural reset state (PKRU = 0). Its birth is the
    /// frontier of the common timeline: the largest `birth + cycles` over
    /// the live threads and the retired frontier.
    ///
    /// # Panics
    ///
    /// Panics once [`crate::THREAD_CAPACITY`] threads are registered
    /// (ids are never reused, retired ones included); a caller
    /// registering on behalf of an outside client checks
    /// [`Machine::thread_count`] first.
    pub fn register_thread(&self) -> ThreadId {
        let _registration = self.registration.lock();
        // Under the registration lock, so two concurrent registrations
        // cannot miss each other and no retirement moves a thread from
        // the walk to the frontier meanwhile.
        let retired_frontier = self
            .retired
            .get()
            .map_or(0, |live| live.retired_frontier.load(Ordering::Relaxed));
        let birth = self
            .live_entries()
            .map(|e| e.birth + e.charged())
            .fold(retired_frontier, u64::max);
        let index = self.threads.len();
        self.threads.publish(
            index,
            ThreadEntry {
                tlb: Tlb::new(self.config.tlb),
                pkru: PkruCell::new(Pkru::allow_all(&self.config.key_layout)),
                cycles: AtomicU64::new(0),
                birth,
                wrpkru: AtomicU64::new(0),
                rdpkru: AtomicU64::new(0),
                pkey_mprotect: AtomicU64::new(0),
                mmap: AtomicU64::new(0),
                munmap: AtomicU64::new(0),
                ftruncate: AtomicU64::new(0),
                context_pkru_updates: AtomicU64::new(0),
                visited_cycles: AtomicU64::new(0),
                visited_rdpkru: AtomicU64::new(0),
                #[cfg(debug_assertions)]
                driven: AtomicBool::new(false),
            },
        );
        if let Some(live) = self.retired.get() {
            live.add(index);
        }
        ThreadId(index)
    }

    /// Retire `thread`: it has exited and is never driven again. Its
    /// cycles fold into the base [`Machine::now`] adds to, its timeline
    /// into the retired frontier, and it leaves the live set, so neither
    /// the clock, nor a shootdown, nor a newcomer's birth walks it again.
    /// [`Machine::counters`] and [`Machine::tlb_stats`] still count it,
    /// and its id is not reused. Retiring a retired thread does nothing.
    /// Debug builds panic when a retired thread is driven.
    pub fn retire_thread(&self, thread: ThreadId) {
        let _registration = self.registration.lock();
        let live = self
            .retired
            .get_or_init(|| Box::new(Liveness::new(self.threads.len())));
        if !live.is_live(thread) {
            return;
        }
        let entry = self.entry(thread);
        let cycles = entry.charged();
        live.retired_frontier
            .fetch_max(entry.birth + cycles, Ordering::Relaxed);
        // The seqlock's write side (see `Liveness`): odd, fold and clear,
        // even. Only this lock's holder writes these words.
        let seq = live.retiring.load(Ordering::Relaxed);
        live.retiring.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        live.retired_cycles.fetch_add(cycles, Ordering::Relaxed);
        let (word, bit) = (thread.0 / 64, 1u64 << (thread.0 % 64));
        if live.leaves[word].fetch_and(!bit, Ordering::Relaxed) == bit {
            live.summary.fetch_and(!(1 << word), Ordering::Relaxed);
        }
        live.retiring.store(seq + 2, Ordering::Release);
    }

    /// Number of threads ever registered, retired ones included: ids are
    /// never reused, so this is also the next id and what
    /// [`crate::THREAD_CAPACITY`] bounds.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Number of registered threads not yet retired.
    #[must_use]
    pub fn live_threads(&self) -> usize {
        self.retired.get().map_or_else(
            || self.threads.len(),
            |live| {
                live.leaves
                    .iter()
                    .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
                    .sum()
            },
        )
    }

    /// The entries of the live threads, in id order: the whole registry
    /// until a thread has retired.
    fn live_entries(&self) -> impl Iterator<Item = &ThreadEntry> {
        let (all, live) = match self.retired.get() {
            None => (Some(self.threads.iter()), None),
            Some(live) => (None, Some(live.ids().filter_map(|i| self.threads.get(i)))),
        };
        all.into_iter().flatten().chain(live.into_iter().flatten())
    }

    fn entry(&self, thread: ThreadId) -> &ThreadEntry {
        self.threads
            .get(thread.0)
            .unwrap_or_else(|| panic!("unregistered thread {thread}"))
    }

    /// [`Machine::entry`] of a thread about to be driven or charged.
    /// Debug builds check that it has not retired: its work would be
    /// charged to a counter [`Machine::now`] no longer reads.
    #[inline]
    fn driven(&self, thread: ThreadId) -> &ThreadEntry {
        #[cfg(debug_assertions)]
        assert!(
            self.retired.get().is_none_or(|live| live.is_live(thread)),
            "{thread} is driven after it retired"
        );
        self.entry(thread)
    }

    /// Charge `cycles` to `thread` and advance the global clock: a relaxed
    /// load and store ([`bump_owned`]) of a counter only the OS thread
    /// driving `thread` writes — no lock, no read-modify-write and no
    /// shared clock word, which matters because every simulated
    /// instruction lands here. Must run on that OS thread; debug builds
    /// panic when another OS thread is inside a call for `thread` at once.
    pub fn charge(&self, thread: ThreadId, cycles: CycleCount) {
        let entry = self.driven(thread);
        #[cfg(debug_assertions)]
        let _driving = Driving::claim(entry, thread);
        bump_owned(&entry.cycles, cycles);
    }

    /// Current value of the global virtual clock (no cost charged): the
    /// cycles every thread ever registered has been charged — the retired
    /// threads' folded into one base word, plus each live thread's
    /// counter. Monotonic for any observer — the counters only grow,
    /// coherence keeps repeated reads of each one non-decreasing, and a
    /// retirement moves cycles from a counter to the base without
    /// changing the sum (`Liveness` says what a reader racing it sees).
    ///
    /// It loads every live thread's counter, lines other cores are
    /// writing, so no per-section path reads it; retired threads cost it
    /// nothing. Its callers: the fault raise ([`GpFault::tsc`]),
    /// telemetry's event stamps and latencies, the production-mode budget
    /// tick, and the telemetry drain. Key releases are stamped with
    /// [`Machine::faults_raised`] instead.
    #[must_use]
    pub fn now(&self) -> u64 {
        let Some(live) = self.retired.get() else {
            return self.threads.iter().map(ThreadEntry::charged).sum();
        };
        loop {
            let seq = live.retiring.load(Ordering::Acquire);
            let sum = live.retired_cycles.load(Ordering::Relaxed)
                + self.live_entries().map(ThreadEntry::charged).sum::<u64>();
            fence(Ordering::Acquire);
            if seq.is_multiple_of(2) && live.retiring.load(Ordering::Relaxed) == seq {
                return sum;
            }
            spin_loop();
        }
    }

    /// Number of #GP faults raised so far (no cost charged): one load of
    /// a word only a fault writes. A fault whose [`GpFault::seq`] is `s`
    /// raised before this read exactly when it returns more than `s`, in
    /// the `SeqCst` order of the raise and the read — the question §5.5's
    /// timestamp check asks of a key release, so releases are stamped
    /// with this count.
    #[must_use]
    pub fn faults_raised(&self) -> u64 {
        self.faults_raised.0.load(Ordering::SeqCst)
    }

    /// `RDPKRU`: read `thread`'s protection-key rights register, on the
    /// OS thread driving `thread`.
    pub fn rdpkru(&self, thread: ThreadId) -> Pkru {
        let entry = self.driven(thread);
        #[cfg(debug_assertions)]
        let _driving = Driving::claim(entry, thread);
        bump_owned(&entry.rdpkru, 1);
        bump_owned(&entry.cycles, self.cost.rdpkru);
        entry.pkru.load()
    }

    /// `RDPKRU` of `thread`'s register from any OS thread, charged to
    /// `thread` exactly as [`Machine::rdpkru`] charges it: one `RDPKRU`
    /// and its cycles. They go to `thread`'s visitor words, with
    /// `fetch_add`, which the owner never writes, so a visit racing the
    /// owner's own load-and-store bumps loses neither side's count (see
    /// [`crate::counter`]). Every reader of the clock and the counters
    /// adds them in. For the rare cross-thread read: a key eviction
    /// stripping a holder's context.
    pub fn rdpkru_of(&self, thread: ThreadId) -> Pkru {
        let entry = self.driven(thread);
        entry.visited_rdpkru.fetch_add(1, Ordering::Relaxed);
        entry.visited_cycles.fetch_add(self.cost.rdpkru, Ordering::Relaxed);
        entry.pkru.load()
    }

    /// `WRPKRU`: install a new PKRU for `thread`.
    ///
    /// Under MPK this does *not* touch the TLB — the property that makes
    /// the mechanism cheap (§2.2). Under the software fallback
    /// ([`ProtectionMechanism::MprotectFallback`]) every key whose
    /// permission changed costs a page-table update and the thread's TLB
    /// is flushed, modelling the §8 software schemes.
    pub fn wrpkru(&self, thread: ThreadId, pkru: Pkru) {
        let entry = self.driven(thread);
        #[cfg(debug_assertions)]
        let _driving = Driving::claim(entry, thread);
        bump_owned(&entry.wrpkru, 1);
        match self.config.mechanism {
            ProtectionMechanism::Mpk => {
                bump_owned(&entry.cycles, self.cost.wrpkru);
                entry.pkru.store(pkru);
            }
            ProtectionMechanism::MprotectFallback => {
                let old = entry.pkru.load();
                let mut changed = 0u64;
                for raw in 0..self.config.key_layout.total_keys {
                    let key = ProtectionKey(raw);
                    if old.permission(key) != pkru.permission(key) {
                        changed += 1;
                    }
                }
                entry.pkru.store(pkru);
                if changed > 0 {
                    entry.tlb.flush();
                }
                bump_owned(
                    &entry.cycles,
                    self.cost.wrpkru + changed * self.cost.pkey_mprotect,
                );
            }
        }
    }

    /// Update `thread`'s PKRU through its *saved process context*, the way
    /// Kard's fault handler installs reactive key grants (§5.4: the handler
    /// cannot execute `WRPKRU` on behalf of the interrupted thread). The
    /// cost is folded into the fault-handling charge, so none is added here.
    pub fn set_pkru_in_saved_context(&self, thread: ThreadId, pkru: Pkru) {
        let entry = self.entry(thread);
        entry.context_pkru_updates.fetch_add(1, Ordering::Relaxed);
        entry.pkru.store(pkru);
    }

    /// Charge the end-to-end cost of one #GP delivery + handler execution.
    pub fn charge_fault_handling(&self, thread: ThreadId) {
        self.charge(thread, self.cost.fault_handling);
    }

    /// Allocate one physical frame of the in-memory file, charging
    /// `ftruncate` when the file must grow.
    pub fn alloc_frame(&self, thread: ThreadId) -> PhysFrame {
        let (frame, grew) = self.phys.lock().alloc_frame();
        if grew {
            self.entry(thread).ftruncate.fetch_add(1, Ordering::Relaxed);
            self.charge(thread, self.cost.ftruncate);
        }
        frame
    }

    /// Return a frame to the allocator (no mappings may reference it).
    pub fn free_frame(&self, frame: PhysFrame) {
        self.phys.lock().free_frame(frame);
    }

    /// Reserve `count` fresh contiguous virtual pages.
    ///
    /// # Panics
    ///
    /// Panics when the pages would run past [`crate::USER_PAGE_END`].
    pub fn reserve_pages(&self, count: u64) -> VirtPage {
        self.aspace.reserve_pages(count)
    }

    /// `mmap(MAP_SHARED)`: map each `(page, frame)` pair through one
    /// kernel call — one pair for an ordinary mapping, a whole magazine
    /// batch for a slab refill. Counts one `mmap` and charges
    /// [`CostModel::mmap_call`] for the batch. A no-op for an empty batch.
    ///
    /// # Errors
    ///
    /// Returns an error if any page is already mapped; earlier pages of a
    /// failing batch stay mapped (as with a partially applied `mmap`).
    pub fn map_pages(
        &self,
        thread: ThreadId,
        pairs: &[(VirtPage, PhysFrame)],
    ) -> Result<(), MapError> {
        if pairs.is_empty() {
            return Ok(());
        }
        self.entry(thread).mmap.fetch_add(1, Ordering::Relaxed);
        self.charge(thread, self.cost.mmap_call(pairs.len()));
        // One hold of the writer mutex for the whole call, then one of the
        // physical-memory lock for the pages that made it in.
        let (mapped, result) = {
            let writer = self.aspace.writer();
            apply_prefix(pairs, |&(page, frame)| writer.map(page, frame))
        };
        let mut phys = self.phys.lock();
        for &(_, frame) in &pairs[..mapped] {
            phys.add_mapping(frame);
        }
        result
    }

    /// `munmap`: unmap `pages` through one kernel call, returning the
    /// frames they referenced, in order. Counts one `munmap` and charges
    /// [`CostModel::munmap_call`] for the batch. A no-op for an empty
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns an error if any page is not mapped; earlier pages of a
    /// failing batch stay unmapped.
    pub fn unmap_pages(
        &self,
        thread: ThreadId,
        pages: &[VirtPage],
    ) -> Result<Vec<PhysFrame>, MapError> {
        if pages.is_empty() {
            return Ok(Vec::new());
        }
        self.entry(thread).munmap.fetch_add(1, Ordering::Relaxed);
        self.charge(thread, self.cost.munmap_call(pages.len()));
        let mut frames = Vec::with_capacity(pages.len());
        let (unmapped, result) = {
            let writer = self.aspace.writer();
            apply_prefix(pages, |&page| {
                writer.unmap(page).map(|mapping| frames.push(mapping.frame))
            })
        };
        {
            let mut phys = self.phys.lock();
            for &frame in &frames {
                phys.remove_mapping(frame);
            }
        }
        self.shoot_down(pages[..unmapped].iter().copied());
        result.map(|()| frames)
    }

    /// Convenience for tests and examples: allocate a frame and map a fresh
    /// page onto it using an implicitly registered thread-0-style charge.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (which indicate simulator bugs here).
    pub fn mmap_one_page(&self) -> Result<VirtPage, MapError> {
        let thread = ThreadId(0);
        if self.threads.is_empty() {
            let _ = self.register_thread();
        }
        let frame = self.alloc_frame(thread);
        let page = self.reserve_pages(1);
        self.map_pages(thread, &[(page, frame)])?;
        Ok(page)
    }

    /// `pkey_mprotect()`: retag each `(first, count)` page range with `key`
    /// through one kernel call — one range for an object's pages, several
    /// for the libmpk-style grouped update of a key eviction — and shoot
    /// the retagged pages down in every thread's TLB that caches them (the
    /// kernel updates PTEs, so cached translations die). Counts one
    /// `pkey_mprotect` and charges [`CostModel::pkey_mprotect_call`] for
    /// the batch. A no-op for an empty batch.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid keys or unmapped pages; earlier ranges
    /// of a failing batch stay retagged (as with a partially applied
    /// `mprotect`), the failing range is left as it was.
    pub fn pkey_mprotect(
        &self,
        thread: ThreadId,
        ranges: &[(VirtPage, u64)],
        key: ProtectionKey,
    ) -> Result<(), ProtectError> {
        if ranges.is_empty() {
            return Ok(());
        }
        self.entry(thread).pkey_mprotect.fetch_add(1, Ordering::Relaxed);
        self.charge(thread, self.cost.pkey_mprotect_call(ranges.len()));
        let (retagged, result) = {
            let writer = self.aspace.writer();
            apply_prefix(ranges, |&(first, count)| {
                writer.pkey_mprotect(first, count, key)
            })
        };
        self.shoot_down(
            ranges[..retagged]
                .iter()
                .flat_map(|&(first, count)| (0..count).map(move |i| first.add(i))),
        );
        result
    }

    /// TLB shootdown of `pages`, run after their new PTEs are stored and
    /// the writer mutex released: each live thread whose dTLB holds some
    /// of them gets those entries posted, in one `fetch_or`, to drop
    /// before its next probe. A thread that caches none of them is read,
    /// never written, and no lock is taken. A retired thread is not
    /// visited at all, as a kernel sends no IPI to a CPU the address space
    /// no longer runs on: it never probes again, so its stale entries
    /// are never read. Why this leaves no stale entry behind is
    /// [`crate::page_table`]'s argument.
    fn shoot_down(&self, pages: impl Iterator<Item = VirtPage> + Clone) {
        // Orders the PTE stores before the reads of every set below; pairs
        // with the fence after an install in `access`.
        fence(Ordering::SeqCst);
        for entry in self.live_entries() {
            entry.tlb.post_held(pages.clone());
        }
    }

    /// The protection key currently tagged on `page`, if mapped.
    #[must_use]
    pub fn page_key(&self, page: VirtPage) -> Option<ProtectionKey> {
        self.aspace.entry(page).map(|m| m.pkey)
    }

    /// Perform (and check) a memory access.
    ///
    /// Charges the base access cost, models the dTLB, marks the backing
    /// frame resident, and checks the thread's PKRU against the page's key.
    ///
    /// # Errors
    ///
    /// Returns a [`GpFault`] when the thread's PKRU forbids the access. The
    /// access itself does not architecturally complete in that case.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is unmapped — the reproduction never touches
    /// unmapped memory, so this indicates a bug in the caller.
    pub fn access(
        &self,
        thread: ThreadId,
        addr: VirtAddr,
        kind: AccessKind,
        ip: CodeSite,
    ) -> Result<(), GpFault> {
        let entry = self.driven(thread);
        #[cfg(debug_assertions)]
        let _driving = Driving::claim(entry, thread);
        let page = addr.page();
        let mut cost = self.cost.mem_access;

        // Fast path: a dTLB hit yields the page's protection key from the
        // thread's own TLB, so the PKU check completes without a lock and
        // without touching the shared address space — the same reason
        // hardware PKU is cheap. The probe first drops whatever shootdowns
        // posted to this thread (one acquire load when there are none).
        // The walk on a miss performs the sticky first-touch bookkeeping,
        // which a hit can safely skip because an entry is only installed
        // by an *allowed* walk, which already marked the page accessed.
        let (pkey, allowed) = match entry.tlb.probe(page) {
            Some(pkey) => (pkey, entry.pkru.allows(pkey, kind)),
            None => {
                cost += self.cost.dtlb_miss;
                let mapping = self
                    .aspace
                    .entry(page)
                    .unwrap_or_else(|| panic!("access to unmapped address {addr} by {thread}"));
                let allowed = entry.pkru.allows(mapping.pkey, kind);
                if allowed {
                    // Install, fence, re-load: a retag whose shootdown did
                    // not see this install has stored a PTE the re-load
                    // sees, so an entry carrying a key it replaced goes at
                    // once (`crate::page_table` has the argument).
                    entry.tlb.install(page, mapping.pkey);
                    fence(Ordering::SeqCst);
                    if self.page_key(page) != Some(mapping.pkey) {
                        entry.tlb.invalidate(page);
                    }
                    // Residency and the PTE accessed bit are sticky until
                    // the page is unmapped, so only the *first* allowed
                    // touch of a page needs the physical-memory lock and
                    // the page table's writer mutex.
                    if !mapping.accessed {
                        self.phys.lock().touch(mapping.frame);
                        self.aspace.writer().mark_accessed(page);
                    }
                }
                (mapping.pkey, allowed)
            }
        };
        bump_owned(&entry.cycles, cost);

        if allowed {
            Ok(())
        } else {
            let seq = self.faults_raised.0.fetch_add(1, Ordering::SeqCst);
            Err(GpFault {
                thread,
                addr,
                page,
                pkey,
                access: kind,
                ip,
                tsc: self.now(),
                seq,
            })
        }
    }

    /// Snapshot of the operation counters (summed over every thread ever
    /// registered, retired ones included).
    #[must_use]
    pub fn counters(&self) -> MachineCounters {
        let mut total = MachineCounters {
            faults: self.faults_raised(),
            ..MachineCounters::default()
        };
        for s in self.threads.iter() {
            total.wrpkru += s.wrpkru.load(Ordering::Relaxed);
            total.rdpkru +=
                s.rdpkru.load(Ordering::Relaxed) + s.visited_rdpkru.load(Ordering::Relaxed);
            total.pkey_mprotect += s.pkey_mprotect.load(Ordering::Relaxed);
            total.mmap += s.mmap.load(Ordering::Relaxed);
            total.munmap += s.munmap.load(Ordering::Relaxed);
            total.ftruncate += s.ftruncate.load(Ordering::Relaxed);
            total.accesses += s.tlb.stats().lookups();
            total.context_pkru_updates += s.context_pkru_updates.load(Ordering::Relaxed);
        }
        total
    }

    /// Cycles charged to one thread so far.
    #[must_use]
    pub fn thread_cycles(&self, thread: ThreadId) -> CycleCount {
        self.entry(thread).charged()
    }

    /// `thread`'s position on the common virtual timeline: its birth
    /// time (the timeline frontier when it registered) plus the cycles
    /// it has executed since. Unlike [`Self::thread_cycles`] — which
    /// starts at zero for every thread — timelines of *different*
    /// threads are comparable, which is what the fault-path §5.5
    /// serialization bookkeeping needs: a thread registered after a
    /// fault handler released cannot be charged a spurious queue wait
    /// against work that finished before it existed.
    #[must_use]
    pub fn thread_timeline(&self, thread: ThreadId) -> u64 {
        let entry = self.entry(thread);
        entry.birth + entry.charged()
    }

    /// Sum of the dTLB statistics of every thread ever registered,
    /// retired ones included.
    #[must_use]
    pub fn tlb_stats(&self) -> TlbStats {
        let mut total = TlbStats::default();
        for entry in self.threads.iter() {
            total.merge(entry.tlb.stats());
        }
        total
    }

    /// Memory-consumption statistics of the simulated physical memory.
    #[must_use]
    pub fn mem_stats(&self) -> MemStats {
        self.phys.lock().stats()
    }

    /// Current Linux-style RSS: populated PTEs x page size.
    #[must_use]
    pub fn linux_rss_bytes(&self) -> u64 {
        self.aspace.linux_rss_bytes()
    }

    /// Peak Linux-style RSS over the run (what Table 3 reports).
    #[must_use]
    pub fn peak_linux_rss_bytes(&self) -> u64 {
        self.aspace.peak_linux_rss_bytes()
    }

    /// Number of mapped virtual pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.aspace.mapped_pages()
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("threads", &self.thread_count())
            .field("clock", &self.now())
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkru::Permission;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn threads_get_sequential_ids_and_reset_pkru() {
        let m = machine();
        let t0 = m.register_thread();
        let t1 = m.register_thread();
        assert_eq!(t0, ThreadId(0));
        assert_eq!(t1, ThreadId(1));
        assert_eq!(m.rdpkru(t0).to_raw_u32(), 0);
    }

    #[test]
    fn late_registered_thread_is_born_at_the_timeline_frontier() {
        let m = machine();
        let t0 = m.register_thread();
        m.charge(t0, 1_000_000);
        let t1 = m.register_thread();
        // t1 has executed nothing, but on the common timeline it starts
        // *after* the million cycles t0 already ran — it cannot race work
        // that finished before it existed.
        assert_eq!(m.thread_cycles(t1), 0);
        assert!(m.thread_timeline(t1) >= m.thread_timeline(t0));
        assert!(m.thread_timeline(t1) >= 1_000_000);
        // Executing work advances the timeline at the same rate as the
        // per-thread counter.
        m.charge(t1, 500);
        assert_eq!(m.thread_timeline(t1) - m.thread_cycles(t1), m.thread_timeline(t1) - 500);
        // The global clock still counts executed work only: birth offsets
        // do not inflate it.
        assert_eq!(m.now(), 1_000_500);
    }

    #[test]
    fn wrpkru_changes_only_target_thread() {
        let m = machine();
        let t0 = m.register_thread();
        let t1 = m.register_thread();
        let mut pkru = m.rdpkru(t0);
        pkru.set_permission(ProtectionKey(5), Permission::NoAccess);
        m.wrpkru(t0, pkru);
        assert_eq!(
            m.rdpkru(t0).permission(ProtectionKey(5)),
            Permission::NoAccess
        );
        assert_eq!(
            m.rdpkru(t1).permission(ProtectionKey(5)),
            Permission::ReadWrite
        );
    }

    #[test]
    fn access_allowed_then_denied_after_key_retraction() {
        let m = machine();
        let t = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        let key = ProtectionKey(3);
        m.pkey_mprotect(t, &[(page, 1)], key).unwrap();

        let addr = page.base_addr().offset(8);
        assert!(m.access(t, addr, AccessKind::Write, CodeSite(1)).is_ok());

        let mut pkru = m.rdpkru(t);
        pkru.set_permission(key, Permission::ReadOnly);
        m.wrpkru(t, pkru);
        assert!(m.access(t, addr, AccessKind::Read, CodeSite(2)).is_ok());
        let fault = m
            .access(t, addr, AccessKind::Write, CodeSite(3))
            .unwrap_err();
        assert_eq!(fault.pkey, key);
        assert_eq!(fault.access, AccessKind::Write);
        assert_eq!(fault.addr, addr);
        assert_eq!(fault.thread, t);
    }

    #[test]
    fn faults_are_numbered_in_raise_order_across_threads() {
        let m = machine();
        let t0 = m.register_thread();
        let t1 = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        let key = ProtectionKey(4);
        m.pkey_mprotect(t0, &[(page, 1)], key).unwrap();
        for t in [t0, t1] {
            let mut pkru = m.rdpkru(t);
            pkru.set_permission(key, Permission::NoAccess);
            m.wrpkru(t, pkru);
        }
        assert_eq!(m.faults_raised(), 0);
        let addr = page.base_addr();
        let mut seqs = Vec::new();
        for t in [t0, t1, t0] {
            // Charged cycles move the clock, never the raise count.
            m.charge(t, 1_000_000);
            assert_eq!(m.faults_raised(), seqs.len() as u64);
            let fault = m.access(t, addr, AccessKind::Read, CodeSite(0)).unwrap_err();
            assert_eq!(fault.thread, t);
            seqs.push(fault.seq);
        }
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(m.faults_raised(), 3);
        assert!(m.access(t1, addr, AccessKind::Read, CodeSite(0)).is_err());
        m.charge(t1, 5);
        assert_eq!(m.faults_raised(), 4);
    }

    #[test]
    fn fault_does_not_mark_frame_resident() {
        let m = machine();
        let t = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        m.pkey_mprotect(t, &[(page, 1)], ProtectionKey(1)).unwrap();
        let mut pkru = m.rdpkru(t);
        pkru.set_permission(ProtectionKey(1), Permission::NoAccess);
        m.wrpkru(t, pkru);
        let _ = m
            .access(t, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap_err();
        assert_eq!(m.mem_stats().resident_bytes, 0);
    }

    #[test]
    fn cycle_accounting_accumulates() {
        let m = machine();
        let t = m.register_thread();
        let before = m.thread_cycles(t);
        m.charge(t, 100);
        let pkru = m.rdpkru(t);
        m.wrpkru(t, pkru);
        let after = m.thread_cycles(t);
        let cost = m.cost_model();
        assert_eq!(after - before, 100 + cost.rdpkru + cost.wrpkru);
        assert_eq!(m.now(), after);
    }

    #[test]
    fn counters_reflect_operations() {
        let m = machine();
        let t = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        m.pkey_mprotect(t, &[(page, 1)], ProtectionKey(2)).unwrap();
        let _ = m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0));
        let c = m.counters();
        assert_eq!(c.mmap, 1);
        assert_eq!(c.pkey_mprotect, 1);
        assert_eq!(c.accesses, 1);
        assert_eq!(c.faults, 0);
        assert_eq!(c.ftruncate, 1);
    }

    #[test]
    fn pkey_mprotect_invalidates_tlbs() {
        let m = machine();
        let t = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        // Warm the TLB.
        m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap();
        m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap();
        let warm = m.tlb_stats();
        assert_eq!(warm.hits, 1);
        m.pkey_mprotect(t, &[(page, 1)], ProtectionKey(4)).unwrap();
        m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap();
        let cold = m.tlb_stats();
        assert_eq!(cold.misses, warm.misses + 1, "mprotect must invalidate");
    }

    /// `accesses` is the dTLB's lookup count, through hits, misses, a
    /// denied access and a fallback flush alike.
    #[test]
    fn every_access_is_one_dtlb_lookup() {
        let m = Machine::new(MachineConfig {
            mechanism: ProtectionMechanism::MprotectFallback,
            ..MachineConfig::default()
        });
        let t = m.register_thread();
        let (page, key) = (m.mmap_one_page().unwrap(), ProtectionKey(3));
        m.pkey_mprotect(t, &[(page, 1)], key).unwrap();
        let access = |kind| m.access(t, page.base_addr(), kind, CodeSite(0));
        access(AccessKind::Read).unwrap(); // Miss.
        access(AccessKind::Write).unwrap(); // Hit.
        let mut pkru = m.rdpkru(t);
        pkru.set_permission(key, Permission::ReadOnly);
        m.wrpkru(t, pkru); // Flushes.
        access(AccessKind::Write).unwrap_err(); // Miss, denied.
        access(AccessKind::Read).unwrap(); // Miss: the denied walk installed nothing.
        assert_eq!(m.tlb_stats(), TlbStats { hits: 1, misses: 3 });
        assert_eq!(m.counters().accesses, m.tlb_stats().lookups());
    }

    /// A shootdown posts only to the threads that cache the page, and a
    /// page retagged again before the owner drains is posted once: a
    /// thousand idle threads cost a retag a read of one set each and are
    /// left with nothing posted, and an idle thread that caches the page
    /// holds one posted entry after ten thousand retags.
    #[test]
    fn a_retag_posts_only_where_the_page_is_cached_and_each_page_once() {
        let m = machine();
        let (writer, holder) = (m.register_thread(), m.register_thread());
        let idle: Vec<ThreadId> = (0..1_000).map(|_| m.register_thread()).collect();
        let (page, cold) = (m.mmap_one_page().unwrap(), m.mmap_one_page().unwrap());
        m.access(holder, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap();
        let posted = |t| m.entry(t).tlb.posted();

        m.pkey_mprotect(writer, &[(cold, 1)], ProtectionKey(4)).unwrap();
        assert!(idle.iter().chain([&holder]).all(|&t| posted(t) == 0));

        for round in 0..10_000u16 {
            let key = ProtectionKey(1 + round % 2);
            m.pkey_mprotect(writer, &[(page, 1)], key).unwrap();
        }
        assert_eq!(posted(holder), 1);
        assert!(idle.iter().all(|&t| posted(t) == 0));

        // The holder's next access drops the page and walks.
        let before = m.tlb_stats();
        m.access(holder, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap();
        assert_eq!(m.tlb_stats().misses, before.misses + 1);
        assert_eq!(posted(holder), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "t0 is driven by two OS threads at once")]
    fn a_thread_driven_twice_at_once_panics_in_debug_builds() {
        let m = machine();
        let t = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        let _elsewhere = Driving::claim(m.entry(t), t);
        let _ = m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0));
    }

    /// Retiring threads moves their cycles into the base word: the clock
    /// still sums every cycle ever charged, and the counters still total
    /// every thread ever registered.
    #[test]
    fn now_after_retirement_sums_every_cycle_ever_charged() {
        let m = machine();
        let threads: Vec<ThreadId> = (0..200).map(|_| m.register_thread()).collect();
        let mut charged = 0;
        for (i, &t) in threads.iter().enumerate() {
            m.charge(t, 1_000 + i as u64);
            charged += 1_000 + i as u64;
            let _ = m.rdpkru(t);
            charged += m.cost_model().rdpkru;
        }
        assert!(m.retired.get().is_none(), "no live set before a retirement");
        assert_eq!(m.live_threads(), 200);
        for &t in threads.iter().step_by(3) {
            m.retire_thread(t);
            m.retire_thread(t); // A second retirement does nothing.
            assert_eq!(m.now(), charged);
        }
        assert_eq!(m.live_threads(), 200 - threads.iter().step_by(3).count());
        assert_eq!(m.thread_count(), 200);
        m.charge(threads[1], 7);
        assert_eq!(m.now(), charged + 7);
        threads.iter().for_each(|&t| m.retire_thread(t));
        assert_eq!((m.now(), m.live_threads()), (charged + 7, 0));
        assert_eq!(m.counters().rdpkru, 200);
        let t = m.register_thread();
        assert_eq!(t, ThreadId(200), "ids are not reused");
        m.charge(t, 3);
        assert_eq!(m.now(), charged + 10);
    }

    #[test]
    fn a_thread_registered_after_the_frontier_retired_is_born_past_it() {
        let m = machine();
        let (ahead, behind) = (m.register_thread(), m.register_thread());
        m.charge(ahead, 5_000_000);
        m.charge(behind, 10);
        let frontier = m.thread_timeline(ahead);
        m.retire_thread(ahead);
        let late = m.register_thread();
        assert!(m.thread_timeline(late) >= frontier);
        // And once every thread has retired.
        m.retire_thread(behind);
        m.retire_thread(late);
        assert!(m.thread_timeline(m.register_thread()) >= frontier);
    }

    /// A shootdown walks live threads only: a thousand retired threads
    /// that each cached the page are posted nothing, and the walk's
    /// entries are the live ones, whatever the history.
    #[test]
    fn a_shootdown_posts_nothing_to_a_retired_thread() {
        let m = machine();
        let writer = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        let cache = |t| {
            m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0))
                .unwrap();
        };
        let retired: Vec<ThreadId> = (0..1_000).map(|_| m.register_thread()).collect();
        retired.iter().for_each(|&t| cache(t));
        let holder = m.register_thread();
        cache(holder);
        retired.iter().for_each(|&t| m.retire_thread(t));
        assert_eq!(m.live_entries().count(), 2);

        m.pkey_mprotect(writer, &[(page, 1)], ProtectionKey(4)).unwrap();
        let posted = |t| m.entry(t).tlb.posted();
        assert_eq!(posted(holder), 1);
        assert!(retired.iter().all(|&t| posted(t) == 0));
        m.unmap_pages(writer, &[page]).unwrap();
        assert!(retired.iter().all(|&t| posted(t) == 0));
        // Every thread's probes still count.
        assert_eq!(m.tlb_stats().lookups(), 1_001);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "t1 is driven after it retired")]
    fn driving_a_retired_thread_panics_in_debug_builds() {
        let m = machine();
        let _t0 = m.register_thread();
        let t = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        m.retire_thread(t);
        let _ = m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0));
    }

    #[test]
    fn saved_context_update_skips_wrpkru_cost() {
        let m = machine();
        let t = m.register_thread();
        let cycles_before = m.thread_cycles(t);
        let mut pkru = Pkru::allow_all(&m.key_layout());
        pkru.set_permission(ProtectionKey(9), Permission::ReadOnly);
        m.set_pkru_in_saved_context(t, pkru);
        // RDPKRU below is the only charge.
        assert_eq!(m.thread_cycles(t), cycles_before);
        assert_eq!(
            m.rdpkru(t).permission(ProtectionKey(9)),
            Permission::ReadOnly
        );
        assert_eq!(m.counters().context_pkru_updates, 1);
        assert_eq!(m.counters().wrpkru, 0);
    }

    #[test]
    #[should_panic(expected = "unmapped address")]
    fn unmapped_access_panics() {
        let m = machine();
        let t = m.register_thread();
        let _ = m.access(t, VirtAddr(0xdead_0000), AccessKind::Read, CodeSite(0));
    }

    #[test]
    fn mprotect_fallback_charges_per_key_and_flushes_tlb() {
        let config = MachineConfig {
            mechanism: ProtectionMechanism::MprotectFallback,
            ..MachineConfig::default()
        };
        let m = Machine::new(config);
        let t = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        // Warm the TLB.
        m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap();
        m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap();
        assert_eq!(m.tlb_stats().hits, 1);

        let before = m.thread_cycles(t);
        let mut pkru = m.rdpkru(t);
        pkru.set_permission(ProtectionKey(3), Permission::NoAccess);
        pkru.set_permission(ProtectionKey(5), Permission::ReadOnly);
        m.wrpkru(t, pkru);
        let cost = m.cost_model();
        assert!(
            m.thread_cycles(t) - before >= 2 * cost.pkey_mprotect,
            "two key changes cost two mprotect-class updates"
        );
        // The flush makes the next access miss again.
        m.access(t, page.base_addr(), AccessKind::Read, CodeSite(0))
            .unwrap();
        assert_eq!(m.tlb_stats().misses, 2, "fallback flushed the TLB");
    }

    #[test]
    fn mprotect_fallback_noop_wrpkru_is_cheap() {
        let config = MachineConfig {
            mechanism: ProtectionMechanism::MprotectFallback,
            ..MachineConfig::default()
        };
        let m = Machine::new(config);
        let t = m.register_thread();
        let before = m.thread_cycles(t);
        let pkru = m.rdpkru(t);
        m.wrpkru(t, pkru); // No permission actually changes.
        let cost = m.cost_model();
        assert_eq!(
            m.thread_cycles(t) - before,
            cost.rdpkru + cost.wrpkru,
            "no key changed: no mprotect charge"
        );
    }

    #[test]
    fn a_failing_batch_keeps_the_prefix_it_applied() {
        let m = machine();
        let t = m.register_thread();
        let first = m.reserve_pages(3);
        let frames: Vec<PhysFrame> = (0..3).map(|_| m.alloc_frame(t)).collect();
        // Page 1 is mapped already: the batch maps page 0, fails on page 1
        // and never reaches page 2.
        m.map_pages(t, &[(first.add(1), frames[1])]).unwrap();
        let pairs: Vec<_> = (0..3).map(|i| (first.add(i as u64), frames[i])).collect();
        assert_eq!(
            m.map_pages(t, &pairs),
            Err(MapError::AlreadyMapped(first.add(1)))
        );
        assert_eq!(m.mapped_pages(), 2);
        assert_eq!(m.mem_stats().mapped_virtual_bytes, 2 * crate::PAGE_SIZE);
        // The first range is retagged; the second stops at unmapped page 2
        // without retagging page 1.
        assert_eq!(
            m.pkey_mprotect(t, &[(first, 1), (first.add(1), 2)], ProtectionKey(5)),
            Err(ProtectError::NotMapped(first.add(2)))
        );
        assert_eq!(m.page_key(first), Some(ProtectionKey(5)));
        assert_eq!(m.page_key(first.add(1)), Some(ProtectionKey::DEFAULT));
        // Pages 0 and 1 go; page 2 was never mapped.
        assert_eq!(
            m.unmap_pages(t, &[first, first.add(1), first.add(2)]),
            Err(MapError::NotMapped(first.add(2)))
        );
        assert_eq!(m.mapped_pages(), 0);
        assert_eq!(m.mem_stats().mapped_virtual_bytes, 0);
    }

    /// Each system call over one item and over three: it charges exactly
    /// its `CostModel` rule, moves its own counter by one and nothing
    /// else, and leaves no other thread a cached translation of a page it
    /// retagged or unmapped.
    #[test]
    fn each_call_charges_its_rule_once_and_shoots_down_what_it_changed() {
        for n in [1, 3] {
            let m = machine();
            let (t, other) = (m.register_thread(), m.register_thread());
            let cost = *m.cost_model();
            let first = m.reserve_pages(n as u64);
            let pages: Vec<VirtPage> = (0..n as u64).map(|i| first.add(i)).collect();
            let pairs: Vec<_> = pages.iter().map(|&p| (p, m.alloc_frame(t))).collect();
            let cached = |page| {
                let tlb = &m.entry(other).tlb;
                tlb.drain();
                tlb.holds(page)
            };
            let warm = || {
                for &page in &pages {
                    m.access(other, page.base_addr(), AccessKind::Read, CodeSite(0))
                        .unwrap();
                    assert!(cached(page));
                }
            };
            let (cycles, counted) = (m.thread_cycles(t), m.counters());
            m.map_pages(t, &pairs).unwrap();
            assert_eq!(m.thread_cycles(t) - cycles, cost.mmap_call(n));
            assert_eq!(m.counters(), MachineCounters { mmap: counted.mmap + 1, ..counted });

            warm();
            let ranges: Vec<_> = pages.iter().map(|&p| (p, 1)).collect();
            let (cycles, counted) = (m.thread_cycles(t), m.counters());
            m.pkey_mprotect(t, &ranges, ProtectionKey(5)).unwrap();
            assert_eq!(m.thread_cycles(t) - cycles, cost.pkey_mprotect_call(n));
            let retags = counted.pkey_mprotect + 1;
            assert_eq!(m.counters(), MachineCounters { pkey_mprotect: retags, ..counted });
            assert!(pages.iter().all(|&p| !cached(p)), "retag shoots down, n = {n}");

            warm();
            let (cycles, counted) = (m.thread_cycles(t), m.counters());
            let frames = m.unmap_pages(t, &pages).unwrap();
            assert!(frames.iter().eq(pairs.iter().map(|(_, frame)| frame)));
            assert_eq!(m.thread_cycles(t) - cycles, cost.munmap_call(n));
            assert_eq!(m.counters(), MachineCounters { munmap: counted.munmap + 1, ..counted });
            assert!(pages.iter().all(|&p| !cached(p)), "unmap shoots down, n = {n}");
        }
    }

    #[test]
    fn unmap_returns_frame_and_releases_mapping() {
        let m = machine();
        let t = m.register_thread();
        let page = m.mmap_one_page().unwrap();
        let frames = m.unmap_pages(t, &[page]).unwrap();
        assert_eq!(frames.len(), 1);
        m.free_frame(frames[0]); // Must not panic: mapping count is back to 0.
        assert_eq!(m.mapped_pages(), 0);
    }
}
