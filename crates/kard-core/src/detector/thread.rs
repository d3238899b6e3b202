//! Per-thread detector state: the critical-section frames, held keys and
//! section-plan handles each thread owns, and the slot that publishes them.

use super::plan::SectionPlans;
use crate::registry::{FastBuildHasher, OwnedCell};
use crate::types::{LockId, Perm, SectionId};
use kard_sim::{Pkru, ProtectionKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;

/// A one-element-inline vector: the common section acquires zero or one
/// key, and the entry/exit fast path must not heap-allocate for it. Only
/// multi-key sections spill.
#[derive(Clone, Debug)]
pub(super) struct TinyVec<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> TinyVec<T> {
    pub(super) fn new() -> TinyVec<T> {
        TinyVec {
            first: None,
            rest: Vec::new(),
        }
    }

    pub(super) fn push(&mut self, value: T) {
        if self.first.is_none() {
            self.first = Some(value);
        } else {
            self.rest.push(value);
        }
    }

    pub(super) fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.first.iter().chain(self.rest.iter())
    }

    pub(super) fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
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
pub(super) struct Frame {
    pub(super) section: SectionId,
    pub(super) lock: LockId,
    pub(super) saved_pkru: Pkru,
    /// Virtual-clock time of section entry, read only while telemetry
    /// records (it feeds only the hold-time histogram); `None` for a frame
    /// entered with telemetry off, whose exit samples no hold.
    pub(super) entered: Option<u64>,
    /// Keys whose table state this frame changed: `(key, previous perm)` —
    /// `None` means newly acquired (release on exit), `Some(p)` means
    /// widened from `p` (downgrade on exit).
    pub(super) acquired: TinyVec<(ProtectionKey, Option<Perm>)>,
}

#[derive(Debug, Default)]
pub(super) struct ThreadCtx {
    pub(super) frames: Vec<Frame>,
    /// Read-write pool keys this thread holds, with permissions. Thread-
    /// private, so the cheap [`FastBuildHasher`] is safe here and in the
    /// map below.
    pub(super) held: HashMap<ProtectionKey, Perm, FastBuildHasher>,
    /// A handle to the plan cells of each section this thread has entered
    /// (through the locked path, the first time): the plans themselves
    /// live with the section, so a mutation reaches every thread at once.
    pub(super) section_cache: HashMap<SectionId, Arc<SectionPlans>, FastBuildHasher>,
}

/// One registered thread's detector-private state. Slots sit side by
/// side in the registry's chunks, so each is aligned to its own cache
/// lines: the owning thread's entry/exit traffic (the engage CAS, the
/// per-thread counters) never false-shares with a neighbour's.
#[repr(align(128))]
pub(super) struct ThreadSlot {
    /// Frames, held keys, and per-thread caches — engaged by the owning
    /// thread's entry/exit calls, the (serialized) fault path, and rare
    /// cross-thread visitors (eviction stripping).
    pub(super) ctx: OwnedCell<ThreadCtx>,
    /// Number of *armed* protection interleavings this thread participates
    /// in. Mirrors `Interleaver::has_armed_participant` so the delay
    /// check at section exit is a single relaxed load (§5.5): raised once
    /// per participant inside the interleaver critical section that
    /// publishes the interleaving, lowered once per participant reported
    /// by its three removal paths (`observe`,
    /// `thread_left_critical_sections`, `forget`).
    pub(super) armed: AtomicUsize,
    /// Number of interleavings (armed or suspended) whose participant set
    /// contains this thread. Zero means
    /// `Interleaver::thread_left_critical_sections` would be a no-op, so
    /// the lock-free exit path skips the interleaver lock entirely.
    pub(super) participating: AtomicUsize,
    /// Section entries by this thread. Written only by the owning thread
    /// and summed into [`crate::DetectorStats::cs_entries`] at snapshot time, so
    /// the entry path never touches a shared stats cache line.
    pub(super) cs_entries: AtomicU64,
    /// Proactive key grants performed by this thread's entries (summed
    /// into [`crate::DetectorStats::proactive_acquisitions`]).
    pub(super) proactive_acquisitions: AtomicU64,
    /// Section-plan hits (entries replayed from the section's plan).
    pub(super) cache_hits: AtomicU64,
    /// Section-plan misses (eligible entries that fell back to the locked
    /// path: first entry, stale or multi-key plan, or contended key).
    pub(super) cache_misses: AtomicU64,
}

impl ThreadSlot {
    pub(super) fn new() -> ThreadSlot {
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
