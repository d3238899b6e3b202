//! Lock-free per-thread state: a spin-owned context cell (and the fast
//! hasher of the thread-private maps inside it).
//!
//! PR 6's zero-lock section path removes the two shared locks that every
//! `lock_enter`/`lock_exit` pair used to take just to *find and open* the
//! calling thread's own state: the `threads` [`TrackedRwLock`] around the
//! slot vector and the per-slot `TrackedMutex` around the context:
//!
//! * each thread's slot is published exactly once into a
//!   [`kard_sim::Registry`] — the shared publish-once spine, the same
//!   type the machine keeps its own thread table on. Lookup is two
//!   lock-free acquire loads; iteration (stats, snapshots, the
//!   read-only-write scan) walks the published prefix without excluding
//!   concurrent registration.
//! * [`OwnedCell`] guards a thread's mutable context with a single
//!   engage/disengage CAS on an [`AtomicBool`], mirroring the magazine
//!   engage protocol in kard-alloc. The common case is the owning thread
//!   engaging its own cell (an uncontended CAS on a thread-local cache
//!   line); rare cross-thread visitors (eviction stripping a holder's
//!   PKRU) spin briefly —
//!   holders never block while engaged, so the wait is bounded by a few
//!   dozen instructions.
//!
//! Neither counts toward [`crate::Kard::detector_lock_acquisitions`]:
//! that counter measures *shared lock* traffic, and these are the
//! structures that remove it.
//!
//! [`TrackedRwLock`]: kard_telemetry::sync::TrackedRwLock

use std::cell::UnsafeCell;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};

/// A non-cryptographic multiply-rotate hasher (the rustc `FxHash`
/// construction) for the detector's *thread-private* maps, where keys are
/// small ids (sections, protection keys) and the DoS resistance SipHash
/// buys is irrelevant — no adversary chooses another thread's section
/// ids. The section entry fast path performs several map operations per
/// entry; this keeps each one to a couple of arithmetic instructions.
/// Public for the same kind of map above the detector (the trace
/// executor's tag table); a map keyed by ids an outside client chooses
/// keeps the default hasher.
#[derive(Default)]
pub struct FastHasher(u64);

/// `HashMap`/`HashSet` state plugging [`FastHasher`] in.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

impl FastHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_ne_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Exclusive-access cell engaged by a compare-and-swap, not a lock.
///
/// `with` spins until it wins the `engaged` flag, runs the closure with
/// `&mut T`, and releases. Closures must be short and must never acquire
/// any detector lock (rule 5 of the locking discipline in
/// [`crate::detector`]): the spin is only acceptable because every holder
/// is wait-free while engaged.
pub struct OwnedCell<T> {
    engaged: AtomicBool,
    value: UnsafeCell<T>,
}

// Safety: `engaged` serializes all access to `value`, so the cell is as
// shareable as a mutex over `T`.
unsafe impl<T: Send> Sync for OwnedCell<T> {}

impl<T> OwnedCell<T> {
    /// A disengaged cell holding `value`.
    pub fn new(value: T) -> OwnedCell<T> {
        OwnedCell {
            engaged: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Run `f` with exclusive access to the value, spinning until the
    /// cell is free. Disengages even if `f` panics (a poisoned section
    /// would otherwise wedge every later visitor).
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        while self
            .engaged
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        struct Disengage<'a>(&'a AtomicBool);
        impl Drop for Disengage<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _release = Disengage(&self.engaged);
        // Safety: winning the engage CAS grants exclusive access until
        // the release store in `Disengage::drop`.
        f(unsafe { &mut *self.value.get() })
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OwnedCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnedCell")
            .field("engaged", &self.engaged.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fast_hasher_is_deterministic_and_spreads_small_ids() {
        let hash = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(7), hash(7));
        // Dense small ids (the detector's section/key ids) must not
        // collapse onto the same buckets.
        let mut low_bits: Vec<u64> = (0..64).map(|n| hash(n) % 64).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(low_bits.len() > 32, "only {} distinct buckets", low_bits.len());
    }

    #[test]
    fn fast_hasher_byte_stream_matches_word_writes() {
        // A `(u64, u32)` key hashed via derive uses the typed writes; the
        // byte path must stay consistent with itself across chunking.
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn owned_cell_round_trips() {
        let cell = OwnedCell::new(1u32);
        cell.with(|v| *v += 41);
        assert_eq!(cell.with(|v| *v), 42);
    }

    #[test]
    fn owned_cell_serializes_across_threads() {
        let cell = Arc::new(OwnedCell::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        cell.with(|v| *v += 1);
                    }
                });
            }
        });
        assert_eq!(cell.with(|v| *v), 40_000);
    }

    #[test]
    fn owned_cell_disengages_after_panic() {
        let cell = Arc::new(OwnedCell::new(0u32));
        let inner = Arc::clone(&cell);
        let panicked = std::thread::spawn(move || inner.with(|_| panic!("boom"))).join();
        assert!(panicked.is_err());
        assert_eq!(cell.with(|v| *v), 0, "cell usable after a panicking visitor");
    }
}
