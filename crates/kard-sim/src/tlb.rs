//! A set-associative data-TLB model.
//!
//! Kard's unique-page allocator spreads objects over many more virtual pages
//! than a native allocator would, which raises dTLB pressure — the paper
//! calls this out as one of the three performance factors (§7.2) and reports
//! per-benchmark dTLB miss rates in Table 3. The simulator attaches one
//! [`Tlb`] to each thread (private L1 dTLB, as on the Xeon Silver 4110) and
//! records hit/miss statistics.
//!
//! The replacement policy is LRU within each set, which is close enough to
//! the pseudo-LRU used by real cores for miss-*rate* reproduction.

use crate::keys::ProtectionKey;
use crate::mem::VirtPage;
use serde::{Deserialize, Serialize};

/// Geometry of the TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: usize,
    /// Associativity (entries per set).
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

/// A set-associative TLB with per-set LRU replacement.
///
/// Each entry caches the page's protection key alongside the
/// translation, the way real PTEs carry the pkey bits into the TLB: a
/// hit lets [`crate::Machine::access`] check PKU rights without walking
/// the shared page table at all. Key retags and unmaps invalidate the
/// affected entries after storing the new PTE, and a miss walks and
/// installs under the same lock the invalidation takes, so a cached key
/// never outlives the retag that replaced it (see [`crate::page_table`]).
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// `sets[s]` holds up to `ways` entries, most recently used last.
    sets: Vec<Vec<(VirtPage, ProtectionKey)>>,
    stats: TlbStats,
}

impl Tlb {
    /// An empty TLB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    #[must_use]
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.ways > 0, "TLB needs at least one way");
        assert!(
            config.entries > 0 && config.entries.is_multiple_of(config.ways),
            "TLB entries must be a positive multiple of ways"
        );
        let num_sets = config.entries / config.ways;
        Tlb {
            config,
            sets: vec![Vec::with_capacity(config.ways); num_sets],
            stats: TlbStats::default(),
        }
    }

    fn set_index(&self, page: VirtPage) -> usize {
        (page.0 as usize) % self.sets.len()
    }

    /// Probe for `page`: on a hit, refresh its LRU position and return
    /// the cached protection key; a miss only records the miss — the
    /// caller walks the page table and [`Tlb::install`]s the result.
    pub fn probe(&mut self, page: VirtPage) -> Option<ProtectionKey> {
        let idx = self.set_index(page);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&(p, _)| p == page) {
            self.stats.hits += 1;
            // Refresh LRU position (already freshest on a repeat hit).
            if pos + 1 != set.len() {
                let entry = set.remove(pos);
                set.push(entry);
            }
            Some(set[set.len() - 1].1)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Install a walked translation, evicting the least recently used
    /// entry of its set if needed. No statistics change — the miss was
    /// counted by the [`Tlb::probe`] that preceded the walk.
    pub fn install(&mut self, page: VirtPage, pkey: ProtectionKey) {
        let idx = self.set_index(page);
        let set = &mut self.sets[idx];
        if set.len() == self.config.ways {
            set.remove(0);
        }
        set.push((page, pkey));
    }

    /// Look up `page`; returns `true` on hit. A miss installs the page
    /// (with a placeholder key — use [`Tlb::probe`]/[`Tlb::install`] when
    /// the cached key matters), evicting the least recently used entry of
    /// its set if needed.
    pub fn lookup(&mut self, page: VirtPage) -> bool {
        match self.probe(page) {
            Some(_) => true,
            None => {
                self.install(page, ProtectionKey(0));
                false
            }
        }
    }

    /// Invalidate one page (on `pkey_mprotect`/`munmap` of that page).
    pub fn invalidate(&mut self, page: VirtPage) {
        let idx = self.set_index(page);
        self.sets[idx].retain(|&(p, _)| p != page);
    }

    /// Invalidate everything (full TLB flush, as plain `mprotect` causes —
    /// the cost MPK's `WRPKRU` avoids).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Geometry.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.config
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(TlbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig { entries: 4, ways: 2 })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut tlb = tiny();
        assert!(!tlb.lookup(VirtPage(1)));
        assert!(tlb.lookup(VirtPage(1)));
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1 });
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut tlb = tiny(); // 2 sets of 2 ways; even pages -> set 0.
        assert!(!tlb.lookup(VirtPage(0)));
        assert!(!tlb.lookup(VirtPage(2)));
        assert!(tlb.lookup(VirtPage(0))); // Refresh page 0; page 2 is now LRU.
        assert!(!tlb.lookup(VirtPage(4))); // Evicts page 2.
        assert!(tlb.lookup(VirtPage(0)), "page 0 must have survived");
        assert!(!tlb.lookup(VirtPage(2)), "page 2 must have been evicted");
    }

    #[test]
    fn invalidate_removes_single_page() {
        let mut tlb = tiny();
        tlb.lookup(VirtPage(0));
        tlb.lookup(VirtPage(1));
        tlb.invalidate(VirtPage(0));
        assert!(!tlb.lookup(VirtPage(0)), "invalidated page must miss");
        assert!(tlb.lookup(VirtPage(1)), "other pages must survive");
    }

    #[test]
    fn flush_clears_everything() {
        let mut tlb = tiny();
        tlb.lookup(VirtPage(0));
        tlb.lookup(VirtPage(1));
        tlb.flush();
        assert!(!tlb.lookup(VirtPage(0)));
        assert!(!tlb.lookup(VirtPage(1)));
    }

    #[test]
    fn miss_rate_reflects_working_set_vs_capacity() {
        // Working set within capacity: near-zero steady-state misses.
        let mut small = Tlb::new(TlbConfig { entries: 64, ways: 4 });
        for _ in 0..100 {
            for p in 0..32 {
                small.lookup(VirtPage(p));
            }
        }
        assert!(small.stats().miss_rate() < 0.02);

        // Working set far beyond capacity: thrashes.
        let mut big = Tlb::new(TlbConfig { entries: 64, ways: 4 });
        for _ in 0..10 {
            for p in 0..4096 {
                big.lookup(VirtPage(p));
            }
        }
        assert!(big.stats().miss_rate() > 0.9);
    }

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
}
