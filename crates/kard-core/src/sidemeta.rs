//! Flat side-metadata tables: object→domain/key/hotness in O(1), no locks.
//!
//! The detector's per-object metadata — protection domain, virtual-key
//! membership, hotness — lives here in the mmtk-style side-metadata idiom:
//! a flat array indexed by page-granular address, where every entry is a
//! few atomic words written with one store and read with one acquire
//! load. The domain word is the *only* record of an in-capacity object's
//! domain; the membership word mirrors the mutexed [`crate::vkey`] table.
//! (The hash-and-lock tables this replaced — a 16-way sharded
//! `HashMap<ObjectId, Domain>` answering every read — last existed at
//! commit `5e877f8`.)
//!
//! Two structural facts make a page-indexed table exactly object-granular:
//!
//! * **One object per virtual page** (§5.3): consolidation shares physical
//!   frames, never virtual pages, so `page → metadata` *is*
//!   `object → metadata`. A multi-page object's domain word lives at its
//!   first page.
//! * **Virtual pages are a dense bump sequence** from
//!   [`kard_sim::MMAP_BASE_PAGE`] and are never reused, so
//!   [`kard_sim::dense_page_index`] keys a chunked array with no hashing
//!   and no ABA.
//!
//! Each page slot holds three independent atomic words:
//!
//! ```text
//!   address ──▶ page = addr >> 12 ──▶ dense = page - MMAP_BASE_PAGE
//!     dense ──▶ chunk[dense / 4096].cell[dense % 4096]:
//!        domain word   0 = absent | code(1..=4) | (hw key + 1) << 8
//!        vkey word     0 = none   | virtual key + 1
//!        hot word      saturating hotness counter (relaxed)
//! ```
//!
//! **Publish-once chunks.** The chunk spine is a fixed array of
//! `OnceLock`s; a chunk materializes zeroed on first write and is then
//! immutable as a container — only its atomic words change. An idle table
//! costs one pointer per chunk.
//!
//! **Who writes, who reads.** The domain word is written by the
//! detector's three domain helpers (`set_domain` / `domain_of` /
//! `take_domain`: store / load / swap) with no lock of its own — every
//! writer after allocation already runs under the object's fault shard or
//! a `ShardClaims` claim, and the word is last-writer-wins exactly as a
//! locked map insert would be. The vkey word is written under the
//! `keys → vkeys` lock order next to the membership-map mutation. Both
//! land *before* the detector's `cache_gen` bump. Readers take no locks
//! at all: the section-entry planner and the free-path membership probe
//! do one acquire load per object, and the generational plan validation
//! that already guards the lock-free entry path covers side-metadata
//! staleness for free — a plan built from a stale word fails its
//! `cache_gen` re-validation. Pages beyond the table's fixed capacity
//! ([`SideMetadata::fits`]) are not recorded here; the detector keeps
//! those objects' domains in a small mutexed overflow map.
//!
//! **Hotness.** The `hot` word is a saturating per-page counter bumped
//! (relaxed `fetch_add`) on section entry and fault handling. It drives
//! [`crate::vkey::KeyCachePolicy::Hotness`]: eviction prefers the
//! *coldest* resident group, so hot groups keep their hardware key and
//! cold groups are demoted lazily in batches via the existing
//! `pkey_mprotect_batch` — the card-table `inc_hotness` idea applied to
//! key-cache replacement. Accumulation without decay is deliberate: a
//! group that faults or is planned every round keeps pulling ahead of
//! one touched once per scan, which is exactly the separation the victim
//! sort needs (decaying on demotion was tried and collapses both to the
//! same fixpoint).
//!
//! **Holder words.** The third piece of per-object metadata — who holds
//! the protecting key — is already a flat atomic structure: the per-key
//! holder words of PR 6 (`keymap::KeyWords`). The domain word stores the
//! hardware key precisely so the composition stays lock-free: one acquire
//! load here yields the key, one relaxed load of that key's holder word
//! yields the holder, with no per-page duplication to keep coherent.

use crate::domains::Domain;
use crate::vkey::VirtualKey;
use kard_sim::{dense_page_index, ProtectionKey, VirtPage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const PAGE_CHUNK: usize = 1 << 12;
const PAGE_CHUNKS: usize = 1 << 12; // capacity: 16Mi pages (64 GiB of VA)

/// Saturation ceiling of the hotness counter. High enough that ordering
/// among live groups is preserved for any realistic run.
pub const HOT_MAX: u64 = u32::MAX as u64;

const DOMAIN_NOT_ACCESSED: u64 = 1;
const DOMAIN_READ_ONLY: u64 = 2;
const DOMAIN_READ_WRITE: u64 = 3;
const DOMAIN_SUSPENDED: u64 = 4;

fn encode_domain(domain: Domain) -> u64 {
    match domain {
        Domain::NotAccessed => DOMAIN_NOT_ACCESSED,
        Domain::ReadOnly => DOMAIN_READ_ONLY,
        Domain::ReadWrite(key) => DOMAIN_READ_WRITE | (u64::from(key.0) + 1) << 8,
        Domain::Suspended => DOMAIN_SUSPENDED,
    }
}

fn decode_domain(word: u64) -> Option<Domain> {
    match word & 0xff {
        DOMAIN_NOT_ACCESSED => Some(Domain::NotAccessed),
        DOMAIN_READ_ONLY => Some(Domain::ReadOnly),
        DOMAIN_READ_WRITE => Some(Domain::ReadWrite(ProtectionKey((word >> 8) as u16 - 1))),
        DOMAIN_SUSPENDED => Some(Domain::Suspended),
        _ => None,
    }
}

struct MetaCell {
    domain: AtomicU64,
    vkey: AtomicU64,
    hot: AtomicU64,
}

impl MetaCell {
    fn zeroed() -> MetaCell {
        MetaCell {
            domain: AtomicU64::new(0),
            vkey: AtomicU64::new(0),
            hot: AtomicU64::new(0),
        }
    }
}

/// The flat page-indexed metadata space (see [module docs](self)).
pub struct SideMetadata {
    chunks: Box<[OnceLock<Box<[MetaCell]>>]>,
}

impl SideMetadata {
    /// An empty table (allocates only the chunk spine).
    #[must_use]
    pub fn new() -> SideMetadata {
        SideMetadata {
            chunks: (0..PAGE_CHUNKS).map(|_| OnceLock::new()).collect(),
        }
    }

    fn slot_index(page: VirtPage) -> Option<usize> {
        let dense = dense_page_index(page)? as usize;
        (dense < PAGE_CHUNK * PAGE_CHUNKS).then_some(dense)
    }

    /// Whether `page` is within the table's fixed capacity. The detector
    /// keeps out-of-range objects' domains in its overflow map instead.
    #[must_use]
    pub fn fits(page: VirtPage) -> bool {
        Self::slot_index(page).is_some()
    }

    /// The cell for `page`, materializing its chunk (write paths).
    fn cell(&self, page: VirtPage) -> Option<&MetaCell> {
        let idx = Self::slot_index(page)?;
        let chunk = self.chunks[idx / PAGE_CHUNK]
            .get_or_init(|| (0..PAGE_CHUNK).map(|_| MetaCell::zeroed()).collect());
        Some(&chunk[idx % PAGE_CHUNK])
    }

    /// The cell for `page` if its chunk exists (read paths — never
    /// materializes, so cold reads stay allocation-free).
    fn peek(&self, page: VirtPage) -> Option<&MetaCell> {
        let idx = Self::slot_index(page)?;
        let chunk = self.chunks[idx / PAGE_CHUNK].get()?;
        Some(&chunk[idx % PAGE_CHUNK])
    }

    /// Publish `page`'s protection domain: one release store, before the
    /// writer's `cache_gen` bump. A no-op for pages that do not
    /// [`fit`](SideMetadata::fits).
    pub fn set_domain(&self, page: VirtPage, domain: Domain) {
        if let Some(cell) = self.cell(page) {
            cell.domain.store(encode_domain(domain), Ordering::Release);
        }
    }

    /// Remove and return `page`'s domain (object freed): one swap.
    pub fn take_domain(&self, page: VirtPage) -> Option<Domain> {
        decode_domain(self.peek(page)?.domain.swap(0, Ordering::AcqRel))
    }

    /// `page`'s protection domain: one acquire load, no locks. `None`
    /// means no domain is recorded — never set, or taken by a free.
    #[must_use]
    pub fn domain(&self, page: VirtPage) -> Option<Domain> {
        decode_domain(self.peek(page)?.domain.load(Ordering::Acquire))
    }

    /// Publish `page`'s virtual-key membership (or `None` on removal).
    /// Called under the `keys → vkeys` lock order, adjacent to the
    /// membership-map mutation.
    pub fn set_vkey(&self, page: VirtPage, vkey: Option<VirtualKey>) {
        let word = vkey.map_or(0, |v| v.0 + 1);
        if word == 0 {
            // Removal must not materialize a chunk for a page that never
            // had metadata.
            if let Some(cell) = self.peek(page) {
                cell.vkey.store(0, Ordering::Release);
            }
        } else if let Some(cell) = self.cell(page) {
            cell.vkey.store(word, Ordering::Release);
        }
    }

    /// `page`'s group, if it belongs to one: one acquire load, no locks.
    #[must_use]
    pub fn vkey(&self, page: VirtPage) -> Option<VirtualKey> {
        match self.peek(page)?.vkey.load(Ordering::Acquire) {
            0 => None,
            raw => Some(VirtualKey(raw - 1)),
        }
    }

    /// Bump `page`'s hotness counter (relaxed, saturating at [`HOT_MAX`]).
    /// Fired on section entry for each planned object and on every fault
    /// the page takes. The saturation check is load-then-add, so a burst
    /// of concurrent bumps can overshoot the ceiling by the burst width —
    /// harmless for a replacement heuristic, and what keeps the hot path
    /// a single `fetch_add`.
    pub fn bump_hot(&self, page: VirtPage) {
        if let Some(cell) = self.cell(page) {
            if cell.hot.load(Ordering::Relaxed) < HOT_MAX {
                cell.hot.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `page`'s current hotness (relaxed).
    #[must_use]
    pub fn hot(&self, page: VirtPage) -> u64 {
        self.peek(page).map_or(0, |cell| cell.hot.load(Ordering::Relaxed))
    }

    /// Reset `page`'s hotness to zero (object freed; virtual pages are
    /// never reused, so this is bookkeeping hygiene, not correctness).
    pub fn reset_hot(&self, page: VirtPage) {
        if let Some(cell) = self.peek(page) {
            cell.hot.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for SideMetadata {
    fn default() -> Self {
        SideMetadata::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_sim::MMAP_BASE_PAGE;

    fn page(n: u64) -> VirtPage {
        VirtPage(MMAP_BASE_PAGE.0 + n)
    }

    #[test]
    fn domain_words_round_trip_every_variant() {
        let m = SideMetadata::new();
        for domain in [
            Domain::NotAccessed,
            Domain::ReadOnly,
            Domain::ReadWrite(ProtectionKey(0)),
            Domain::ReadWrite(ProtectionKey(13)),
            Domain::Suspended,
        ] {
            m.set_domain(page(3), domain);
            assert_eq!(m.domain(page(3)), Some(domain));
        }
        assert_eq!(m.take_domain(page(3)), Some(Domain::Suspended));
        assert_eq!(m.domain(page(3)), None);
        assert_eq!(m.take_domain(page(3)), None, "taken once");
    }

    #[test]
    fn absent_pages_read_as_none_without_materializing() {
        let m = SideMetadata::new();
        assert_eq!(m.domain(page(100)), None);
        assert_eq!(m.vkey(page(100)), None);
        assert_eq!(m.hot(page(100)), 0);
        assert_eq!(m.domain(VirtPage(0)), None, "below the dense region");
    }

    #[test]
    fn vkey_membership_round_trips() {
        let m = SideMetadata::new();
        assert_eq!(m.vkey(page(7)), None);
        m.set_vkey(page(7), Some(VirtualKey(0)));
        assert_eq!(m.vkey(page(7)), Some(VirtualKey(0)));
        m.set_vkey(page(7), Some(VirtualKey(41)));
        assert_eq!(m.vkey(page(7)), Some(VirtualKey(41)));
        m.set_vkey(page(7), None);
        assert_eq!(m.vkey(page(7)), None);
    }

    #[test]
    fn hotness_bumps_resets_and_saturates() {
        let m = SideMetadata::new();
        for _ in 0..10 {
            m.bump_hot(page(1));
        }
        assert_eq!(m.hot(page(1)), 10);
        m.reset_hot(page(1));
        assert_eq!(m.hot(page(1)), 0);
        // Saturation: a counter at the ceiling stays there.
        let cell = m.cell(page(2)).unwrap();
        cell.hot.store(HOT_MAX, Ordering::Relaxed);
        m.bump_hot(page(2));
        assert_eq!(m.hot(page(2)), HOT_MAX);
    }

    #[test]
    fn out_of_capacity_pages_are_ignored_not_panicked() {
        let m = SideMetadata::new();
        let far = VirtPage(MMAP_BASE_PAGE.0 + (1 << 30));
        assert!(!SideMetadata::fits(far));
        m.set_domain(far, Domain::ReadOnly);
        m.bump_hot(far);
        assert_eq!(m.domain(far), None);
        assert_eq!(m.hot(far), 0);
    }
}
