//! A set-associative data-TLB model, written only by its own thread.
//!
//! Kard's unique-page allocator spreads objects over many more virtual pages
//! than a native allocator would, which raises dTLB pressure — the paper
//! calls this out as one of the three performance factors (§7.2) and reports
//! per-benchmark dTLB miss rates in Table 3. The simulator attaches one TLB
//! to each thread (private L1 dTLB, as on the Xeon Silver 4110), shaped by
//! [`TlbConfig`], and records hit/miss statistics ([`TlbStats`]).
//!
//! # One writer, and an inbox for everyone else
//!
//! A TLB is one flat array of entries, a set's ways side by side. Each
//! entry is a slot word (`page | key | valid`), which caches the page's
//! protection key the way real PTEs carry the pkey bits into the TLB, and
//! beside it an LRU stamp. Only the owning thread writes either — probe,
//! install, invalidation, flush — with relaxed loads and stores: no lock
//! and no read-modify-write, and a hit writes only its stamp. The entries
//! fill whole 128-byte lines, so no other thread's data shares a line with
//! them.
//!
//! Another thread never writes an entry. A shootdown reads the page's set
//! and, only if the page is there, posts that entry to the owner: it sets
//! the entry's bit in the owner's `posted` word — the inbox and its
//! pending flag in one, raised by one `fetch_or` and no lock. The owner's
//! next probe loads `posted` (acquire) and, if a bit is set, takes the word
//! and drops those entries first, so a probe costs one load more than the
//! set scan. A page posted again before the drain sets the same bit, so an
//! idle thread's inbox never holds more than its TLB's entries and costs
//! no memory beyond the word. Why a completed shootdown still leaves no
//! stale entry is argued once, in [`crate::page_table`].
//!
//! # Replacement
//!
//! LRU within each set, which is close enough to the pseudo-LRU used by
//! real cores for miss-*rate* reproduction. A stamp is the owner's lookup
//! count at the entry's last use; a miss fills the first empty way, or else
//! evicts the oldest stamp. The valid entries in stamp order are exactly a
//! most-recent-last list per set, which is the reference model
//! `tests/simulator_properties.rs` holds this table to.

use crate::counter::bump_owned;
use crate::keys::ProtectionKey;
use crate::mem::VirtPage;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Geometry of the TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Total number of entries: at most 64, the size of an L1 dTLB.
    pub entries: usize,
    /// Associativity (entries per set). `entries / ways`, the number of
    /// sets, must be a power of two: as in hardware, a page's set is
    /// picked by the low bits of its page number.
    pub ways: usize,
}

impl TlbConfig {
    /// 64-entry 4-way L1 dTLB, matching Skylake-SP 4 KiB-page dTLB geometry.
    #[must_use]
    pub fn skylake_l1d() -> TlbConfig {
        TlbConfig {
            entries: 64,
            ways: 4,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::skylake_l1d()
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page walk required).
    pub misses: u64,
}

impl TlbStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; zero when no lookups happened.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }

    /// Accumulate another thread's counters (for whole-machine rates).
    pub fn merge(&mut self, other: TlbStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

const VALID: u64 = 1;
const KEY_SHIFT: u32 = 1;
const KEY_MASK: u64 = (u16::MAX as u64) << KEY_SHIFT;
const PAGE_SHIFT: u32 = KEY_SHIFT + u16::BITS;

/// A valid slot word for `page`, key bits clear: what a probe compares a
/// slot against once the key is masked off.
fn tag(page: VirtPage) -> u64 {
    debug_assert!(
        page.0 >> (u64::BITS - PAGE_SHIFT) == 0,
        "{page:?} does not fit a slot word"
    );
    page.0 << PAGE_SHIFT | VALID
}

/// One entry: the slot word, and the LRU stamp beside it.
#[derive(Default)]
struct Entry {
    slot: AtomicU64,
    stamp: AtomicU64,
}

const ENTRIES_PER_LINE: usize = 8;

/// Entries allocated in whole 128-byte lines.
#[derive(Default)]
#[repr(align(128))]
struct Line([Entry; ENTRIES_PER_LINE]);
const _: () = assert!(align_of::<Line>() >= 128);

/// The most entries a TLB may have: one bit each in the posted mask.
const MAX_ENTRIES: usize = u64::BITS as usize;

/// One thread's set-associative TLB with per-set LRU replacement (see the
/// [module documentation](self)). Methods marked *owner* may only run on
/// the thread that drives the TLB's simulated thread; [`Tlb::post_held`]
/// and [`Tlb::stats`] run anywhere.
pub(crate) struct Tlb {
    ways: usize,
    /// Sets minus one: a page's set is its number's low bits.
    set_mask: u64,
    lines: Box<[Line]>,
    /// Probes so far; also the LRU clock.
    lookups: AtomicU64,
    misses: AtomicU64,
    /// The inbox and its pending word in one: bit `e` asks the owner to
    /// drop entry `e`. Set by [`Tlb::post_held`], taken by the owner's
    /// drain; both are read-modify-writes, so no post is lost.
    posted: AtomicU64,
}

impl Tlb {
    /// An empty TLB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, exceeds
    /// 64, or leaves a number of sets that is not a power of two.
    pub(crate) fn new(config: TlbConfig) -> Tlb {
        assert!(config.ways > 0, "TLB needs at least one way");
        assert!(
            config.entries > 0 && config.entries.is_multiple_of(config.ways),
            "TLB entries must be a positive multiple of ways"
        );
        assert!(config.entries <= MAX_ENTRIES, "a TLB has at most {MAX_ENTRIES} entries");
        let sets = config.entries / config.ways;
        assert!(sets.is_power_of_two(), "TLB sets must be a power of two");
        Tlb {
            ways: config.ways,
            set_mask: sets as u64 - 1,
            lines: (0..config.entries.div_ceil(ENTRIES_PER_LINE))
                .map(|_| Line::default())
                .collect(),
            lookups: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            posted: AtomicU64::new(0),
        }
    }

    fn entry(&self, e: usize) -> &Entry {
        &self.lines[e / ENTRIES_PER_LINE].0[e % ENTRIES_PER_LINE]
    }

    /// The numbers of the entries of `page`'s set.
    fn set(&self, page: VirtPage) -> Range<usize> {
        let first = (page.0 & self.set_mask) as usize * self.ways;
        first..first + self.ways
    }

    /// The number of the entry holding `page`, and its slot word.
    fn lookup(&self, page: VirtPage) -> Option<(usize, u64)> {
        let tag = tag(page);
        self.set(page).find_map(|e| {
            let word = self.entry(e).slot.load(Ordering::Relaxed);
            (word & !KEY_MASK == tag).then_some((e, word))
        })
    }

    /// Owner: probe for `page`, first dropping whatever was posted. A hit
    /// refreshes the entry's stamp and returns the cached protection key;
    /// a miss only records the miss — the caller walks the page table and
    /// [`Tlb::install`]s the result.
    #[inline]
    pub(crate) fn probe(&self, page: VirtPage) -> Option<ProtectionKey> {
        self.drain();
        let clock = bump_owned(&self.lookups, 1);
        match self.lookup(page) {
            Some((e, word)) => {
                self.entry(e).stamp.store(clock, Ordering::Relaxed);
                Some(ProtectionKey((word >> KEY_SHIFT) as u16))
            }
            None => {
                bump_owned(&self.misses, 1);
                None
            }
        }
    }

    /// Owner: install a walked translation into the first empty way of its
    /// set, or else over the least recently used entry. No statistics
    /// change — the miss was counted by the [`Tlb::probe`] that preceded
    /// the walk, whose lookup count is the new entry's stamp.
    pub(crate) fn install(&self, page: VirtPage, pkey: ProtectionKey) {
        let empty = |&e: &usize| self.entry(e).slot.load(Ordering::Relaxed) & VALID == 0;
        let way = match self.set(page).find(empty) {
            Some(e) => self.entry(e),
            None => self
                .set(page)
                .map(|e| self.entry(e))
                .min_by_key(|way| way.stamp.load(Ordering::Relaxed))
                .expect("a set has at least one way"),
        };
        way.stamp.store(self.lookups.load(Ordering::Relaxed), Ordering::Relaxed);
        way.slot.store(tag(page) | u64::from(pkey.0) << KEY_SHIFT, Ordering::Relaxed);
    }

    /// Owner: drop `page`'s entry, if cached.
    pub(crate) fn invalidate(&self, page: VirtPage) {
        if let Some((e, _)) = self.lookup(page) {
            self.entry(e).slot.store(0, Ordering::Relaxed);
        }
    }

    /// Owner: invalidate everything (full TLB flush, as plain `mprotect`
    /// causes — the cost MPK's `WRPKRU` avoids).
    pub(crate) fn flush(&self) {
        for entry in self.lines.iter().flat_map(|line| &line.0) {
            entry.slot.store(0, Ordering::Relaxed);
        }
    }

    /// Owner: drop every entry posted since the last drain. One acquire
    /// load when nothing was posted.
    #[inline]
    pub(crate) fn drain(&self) {
        if self.posted.load(Ordering::Acquire) != 0 {
            self.drain_posted();
        }
    }

    #[cold]
    #[inline(never)]
    fn drain_posted(&self) {
        let mut posted = self.posted.swap(0, Ordering::Acquire);
        while posted != 0 {
            let e = posted.trailing_zeros() as usize;
            self.entry(e).slot.store(0, Ordering::Relaxed);
            posted &= posted - 1;
        }
    }

    /// Any thread: whether `page`'s set holds it right now.
    #[cfg(test)]
    pub(crate) fn holds(&self, page: VirtPage) -> bool {
        self.lookup(page).is_some()
    }

    /// Any thread: post the entries holding any of `pages` for the owner
    /// to drop before its next probe — one read-modify-write, and none if
    /// no page is held. A page posted again before a drain sets the same
    /// bit.
    pub(crate) fn post_held(&self, pages: impl Iterator<Item = VirtPage>) {
        let held = pages
            .filter_map(|page| self.lookup(page))
            .fold(0, |held, (e, _)| held | 1 << e);
        if held != 0 {
            self.posted.fetch_or(held, Ordering::Release);
        }
    }

    /// Any thread: statistics so far. A reader racing the owner may see a
    /// miss before the lookup that counted it, so hits saturate at zero.
    pub(crate) fn stats(&self) -> TlbStats {
        let misses = self.misses.load(Ordering::Relaxed);
        TlbStats {
            hits: self.lookups.load(Ordering::Relaxed).saturating_sub(misses),
            misses,
        }
    }

    /// The entries posted and not yet drained.
    #[cfg(test)]
    pub(crate) fn posted(&self) -> u32 {
        self.posted.load(Ordering::Relaxed).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge() {
        let mut a = TlbStats { hits: 3, misses: 1 };
        a.merge(TlbStats { hits: 1, misses: 3 });
        assert_eq!(a, TlbStats { hits: 4, misses: 4 });
        assert!((a.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_miss_rate_is_zero() {
        assert_eq!(TlbStats::default().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(TlbConfig { entries: 5, ways: 2 });
    }

    #[test]
    #[should_panic(expected = "sets must be a power of two")]
    fn a_set_count_off_a_power_of_two_is_rejected() {
        let _ = Tlb::new(TlbConfig { entries: 12, ways: 2 });
    }

    #[test]
    #[should_panic(expected = "at most 64 entries")]
    fn more_entries_than_posted_bits_are_rejected() {
        let _ = Tlb::new(TlbConfig { entries: 128, ways: 2 });
    }
}
