//! Per-thread magazine caches: the allocator's tier-1 fast path.
//!
//! A magazine holds, for its owning thread, a per-size-class stock of
//! **prepared slots** (virtual page already reserved, mapped onto its
//! shared frame, and pre-tagged with the provision key), plus the
//! thread's **dirty list** of freed slots awaiting batched page
//! retirement and a per-class cache of **raw slots** (physical
//! `(frame, offset)` extents ready to be re-provisioned). Owning-thread
//! alloc pops a prepared slot; owning-thread free pushes a dirty slot —
//! neither touches any shared lock.
//!
//! # Ownership discipline
//!
//! A magazine is single-owner by contract: only the thread registered
//! with its index may operate on `MagInner` (cross-thread frees go
//! through the magazine's [`RemoteFreeQueue`] instead). The contract is
//! *checked*, not assumed: every entry goes through [`Magazine::engage`],
//! a compare-and-swap on an `engaged` flag that panics on concurrent
//! entry. This is misuse detection — it never blocks, so it is not a
//! lock, and a correct program pays one uncontended CAS per operation.

use crate::remote_free::{RemoteFreeQueue, RetiredSlot};
use kard_sim::{PhysFrame, VirtPage, PAGE_SIZE};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Number of consolidated size classes: rounded sizes `32, 64, …` up to
/// (but excluding) one page.
pub const NUM_CLASSES: usize = (PAGE_SIZE / crate::allocator::ALLOC_GRANULE) as usize - 1;

/// The size class of a rounded size (`32 → 0`, `64 → 1`, …).
#[must_use]
pub fn class_of(rounded: u64) -> usize {
    (rounded / crate::allocator::ALLOC_GRANULE) as usize - 1
}

/// The rounded size of a class index (inverse of [`class_of`]).
#[must_use]
pub fn class_size(class: usize) -> u64 {
    (class as u64 + 1) * crate::allocator::ALLOC_GRANULE
}

/// A slot ready to be handed out: page reserved, mapped, pre-tagged.
#[derive(Clone, Copy, Debug)]
pub struct PreparedSlot {
    /// The fresh virtual page (exclusively this slot's).
    pub page: VirtPage,
    /// Shared physical frame the page maps onto.
    pub frame: PhysFrame,
    /// Byte offset of the slot within the frame.
    pub offset: u64,
}

/// One size class's private stock.
#[derive(Debug, Default)]
pub struct ClassCache {
    /// Provisioned slots, popped by the fast path.
    pub prepared: Vec<PreparedSlot>,
    /// Recycled physical extents awaiting re-provisioning.
    pub raw: Vec<(PhysFrame, u64)>,
    /// Adaptive refill size (doubles up to [`crate::MAX_BATCH`]).
    pub next_batch: usize,
}

/// The owner-only interior of a magazine.
#[derive(Debug, Default)]
pub struct MagInner {
    /// Per-size-class stock: [`NUM_CLASSES`] caches once the magazine has
    /// stocked a class, none before and none after its thread exits
    /// (reach a class through [`MagInner::class`], which builds them).
    pub classes: Box<[ClassCache]>,
    /// Freed slots whose pages await batched unmapping.
    pub dirty: Vec<RetiredSlot>,
}

impl MagInner {
    /// The stock of size class `class`, building every class's cache
    /// first if the magazine holds none.
    pub fn class(&mut self, class: usize) -> &mut ClassCache {
        if self.classes.is_empty() {
            self.classes = (0..NUM_CLASSES).map(|_| ClassCache::default()).collect();
        }
        &mut self.classes[class]
    }
}

/// One thread's allocation cache (see module docs).
pub struct Magazine {
    engaged: AtomicBool,
    /// Cross-thread frees targeting this magazine's owner.
    pub remote: RemoteFreeQueue,
    inner: UnsafeCell<MagInner>,
}

// SAFETY: `inner` is only reachable through `engage`, whose CAS
// guarantees at most one guard exists at a time (concurrent entry
// panics); `remote` and `engaged` are atomics.
unsafe impl Send for Magazine {}
unsafe impl Sync for Magazine {}

impl Magazine {
    /// A fresh, empty magazine.
    #[must_use]
    pub fn new() -> Magazine {
        Magazine {
            engaged: AtomicBool::new(false),
            remote: RemoteFreeQueue::new(),
            inner: UnsafeCell::new(MagInner::default()),
        }
    }

    /// Enter the magazine as its owner.
    ///
    /// # Panics
    ///
    /// Panics if the magazine is already engaged — two OS threads are
    /// driving the same allocator thread id concurrently, which the
    /// ownership contract forbids.
    pub fn engage(&self) -> Engaged<'_> {
        assert!(
            self.engaged
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            "magazine engaged concurrently: one allocator thread id must \
             not be driven by two OS threads at once"
        );
        Engaged { mag: self }
    }
}

impl Default for Magazine {
    fn default() -> Self {
        Magazine::new()
    }
}

impl std::fmt::Debug for Magazine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Magazine")
            .field("engaged", &self.engaged.load(Ordering::Relaxed))
            .field("remote_len", &self.remote.len())
            .finish()
    }
}

/// Exclusive entry into a magazine; releases the flag on drop (also on
/// panic, so a failed refill does not wedge the magazine).
pub struct Engaged<'a> {
    mag: &'a Magazine,
}

impl Engaged<'_> {
    /// The owner-only interior.
    #[must_use]
    pub fn inner(&mut self) -> &mut MagInner {
        // SAFETY: the engage CAS guarantees this guard is the only live
        // entry, and `&mut self` that no reference handed out by an
        // earlier call on it is still alive, so this `&mut` cannot alias.
        unsafe { &mut *self.mag.inner.get() }
    }
}

impl Drop for Engaged<'_> {
    fn drop(&mut self) {
        self.mag.engaged.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_trip() {
        assert_eq!(class_of(32), 0);
        assert_eq!(class_of(PAGE_SIZE - 32), NUM_CLASSES - 1);
        for c in 0..NUM_CLASSES {
            assert_eq!(class_of(class_size(c)), c);
        }
    }

    #[test]
    fn engage_is_exclusive_and_reentrant_after_drop() {
        let m = Magazine::new();
        {
            let mut g = m.engage();
            g.inner().class(3).next_batch = 8;
        }
        let mut g2 = m.engage();
        assert_eq!(g2.inner().classes.len(), NUM_CLASSES);
        assert_eq!(g2.inner().class(3).next_batch, 8);
    }

    #[test]
    #[should_panic(expected = "engaged concurrently")]
    fn concurrent_engage_panics() {
        let m = Magazine::new();
        let _g = m.engage();
        let _g2 = m.engage();
    }
}
