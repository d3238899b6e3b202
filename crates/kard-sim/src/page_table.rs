//! The simulated page table: virtual page → (physical frame, protection key).
//!
//! Real MPK stores the 4-bit protection key in each page-table entry and
//! changes it with the `pkey_mprotect()` system call; the key rides from
//! the PTE into the TLB and the MMU checks it with no software and no
//! lock on the path. [`AddressSpace`] models exactly that: one atomic
//! PTE word per [`VirtPage`], a bump allocator of fresh virtual pages
//! (the simulated `mmap` picks addresses), and a [`PteWriter`] — the one
//! write API — to map, unmap and retag pages.
//!
//! # The PTE word
//!
//! Reserved pages are a dense, never-reused bump sequence from
//! [`MMAP_BASE_PAGE`] to [`USER_PAGE_END`], the end of x86-64's 47-bit user
//! space, so the table is a flat side table in the card-table idiom that
//! spans the whole region: a [`PageSpine`] of `AtomicU64` indexed by
//! [`page_slot`]. Its first 16 Mi pages are two loads away; the rest sit
//! one level further, built only where a page is mapped. Each word packs
//! one [`Mapping`]:
//!
//! ```text
//!  63                    18 17            2      1        0
//! ┌────────────────────────┬───────────────┬──────────┬─────────┐
//! │ frame (46 bits)        │ pkey (16 bits)│ accessed │ present │
//! └────────────────────────┴───────────────┴──────────┴─────────┘
//! ```
//!
//! An all-zero word (the spine's default, and what [`PteWriter::unmap`]
//! stores) is "not mapped". The key field holds every `u16`
//! [`ProtectionKey`]; [`PteWriter::map`] panics on a frame number that
//! does not fit its field rather than truncate it, and on a page outside
//! the region rather than store it anywhere else.
//!
//! # Readers load, writers serialise
//!
//! [`AddressSpace::translate`] and [`AddressSpace::entry`] are one acquire
//! load: no lock, whoever else is reading or writing. A word is decoded
//! from a single load, so a reader sees a mapping some writer stored for
//! that page in full — never a torn one, never a neighbour's.
//!
//! Only writers serialise — `map`, `unmap`, `pkey_mprotect`,
//! `mark_accessed` and the `mapped_pages`/RSS counters they move — on one
//! writer-only mutex, held through a [`PteWriter`]: every read-modify-write
//! of a word happens under it, so a plain load and a release store suffice.
//! A system call takes it once, through [`AddressSpace::writer`], for all
//! the pages it touches. The counters are atomics written under the mutex
//! and read by anyone.
//!
//! # Store, fence, read the sets; install, fence, re-load
//!
//! A cached translation must never outlive the `pkey_mprotect` or `munmap`
//! that changed its page. Each dTLB has one writer, its own thread
//! ([`crate::tlb`]), and no lock is shared between an access and a writer.
//! Two rules in [`crate::Machine`] keep cached keys fresh:
//!
//! 1. a writer **stores the PTEs**, releases the writer mutex, issues a
//!    `SeqCst` fence, and then reads, in every live thread's dTLB, the
//!    set of each page it changed (a retired thread never probes again,
//!    so its dTLB is left as it is). Where the page is cached it posts
//!    that entry to the thread (one `fetch_or` on the thread's `posted`
//!    word), which the thread's next probe loads (acquire) and drops first;
//! 2. an access that misses walks, **installs, issues a `SeqCst` fence,
//!    and re-loads the PTE**, dropping the new entry if the key changed.
//!
//! The two fences make a Dekker pair. For a write W and an install I of
//! the same page, one fence precedes the other in the single `SeqCst`
//! order. If W's comes first, I's re-load sees W's PTE (or a later one),
//! so a key W replaced is dropped at once. If I's comes first, W's read of
//! the set sees I's entry (or the owner's later eviction of it), so W
//! posts that entry and the owner drops it before its next probe; if the
//! owner has meanwhile reused the entry for another page, that one goes
//! instead, which costs a miss and never a stale key. Either way, once W
//! completes, no access that happens after it can hit an entry carrying a
//! key W replaced; an access racing W may use either key. The re-check
//! also covers a thread that registers while W walks the registry: a
//! newcomer's dTLB starts empty, and its first install re-loads after its
//! own fence, so no fence at registration is needed. (Without the re-load,
//! a walk could load the old key, miss W's read of the set, and install a
//! stale entry that answers hits until it happens to be evicted.) An entry
//! is posted only to the thread that caches it, by setting one bit however
//! often its page is retagged before the owner drains, so a retag costs an
//! idle thread one read of a set and nothing else, and takes no lock.

use crate::keys::ProtectionKey;
use crate::mem::{PhysFrame, VirtAddr, VirtPage};
use crate::spine::Spine;
use parking_lot::{Mutex, MutexGuard};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mapping {
    /// Physical frame of the in-memory file backing this page.
    pub frame: PhysFrame,
    /// Protection key tagged on this page.
    pub pkey: ProtectionKey,
    /// PTE accessed bit: set on first touch. Linux counts every populated
    /// PTE toward a process's RSS — *per virtual page*, even when several
    /// shared mappings alias one physical frame. This is exactly why the
    /// paper's RSS overheads over-estimate Kard's physical footprint (§6).
    pub accessed: bool,
}

/// Error returned when a mapping operation fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The page is already mapped.
    AlreadyMapped(VirtPage),
    /// The page is not mapped.
    NotMapped(VirtPage),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::AlreadyMapped(p) => write!(f, "page {p:?} is already mapped"),
            MapError::NotMapped(p) => write!(f, "page {p:?} is not mapped"),
        }
    }
}

impl std::error::Error for MapError {}

/// Error returned by [`PteWriter::pkey_mprotect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtectError {
    /// A page in the requested range is not mapped (`ENOMEM` analog).
    NotMapped(VirtPage),
    /// The key is outside the hardware's key range (`EINVAL` analog).
    InvalidKey(ProtectionKey),
}

impl fmt::Display for ProtectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectError::NotMapped(p) => write!(f, "page {p:?} is not mapped"),
            ProtectError::InvalidKey(k) => write!(f, "protection key {k} is invalid"),
        }
    }
}

impl std::error::Error for ProtectError {}

/// Base of the simulated mmap region (arbitrary, heap-like). Public so
/// that allocator-side indexes can key pages densely from this origin
/// (reservations are a bump allocation starting here).
pub const MMAP_BASE_PAGE: VirtPage = VirtPage(0x0007_f000_0000 >> 2);

/// One past the last page of x86-64's 47-bit user address space, where
/// the simulated mmap region ends: [`AddressSpace::reserve_pages`] never
/// hands out this page or any later one.
pub const USER_PAGE_END: VirtPage = VirtPage(1 << 35);

/// Nodes of 16 Mi pages past a [`PageSpine`]'s first level, enough to
/// reach [`USER_PAGE_END`].
const FAR_PAGE_NODES: usize = ((USER_PAGE_END.0 - MMAP_BASE_PAGE.0) as usize).div_ceil(1 << 24) - 1;

/// The geometry of every table indexed by [`page_slot`] — the PTE words
/// here, the allocator's page→object index — and, since every object
/// owns at least one fresh page, of every table indexed by object id. It
/// covers the whole mmap region: the first 16 Mi pages (64 GiB of VA) in
/// 4 Ki chunks of 4 Ki cells, two loads away, and the rest through a far
/// level built only where touched.
pub type PageSpine<T> = Spine<T, 12, { 1 << 12 }, FAR_PAGE_NODES>;

/// `page`'s cell number in a [`PageSpine`]: pages are a bump sequence
/// from [`MMAP_BASE_PAGE`], so `page - MMAP_BASE_PAGE` keys flat side
/// tables (the page table itself, the allocator's page→object index) with
/// no hashing. `None` means the page is below the region base and cannot
/// be a reservation.
#[inline]
#[must_use]
pub fn page_slot(page: VirtPage) -> Option<usize> {
    usize::try_from(page.0.checked_sub(MMAP_BASE_PAGE.0)?).ok()
}

const PRESENT: u64 = 1;
const ACCESSED: u64 = 1 << 1;
const PKEY_SHIFT: u32 = 2;
const FRAME_SHIFT: u32 = PKEY_SHIFT + u16::BITS;
const FRAME_BITS: u32 = u64::BITS - FRAME_SHIFT;

/// Pack a mapping into its PTE word; `None` is the all-zero word.
/// [`PteWriter::map`] has checked that the frame fits its field.
fn encode(entry: Option<Mapping>) -> u64 {
    entry.map_or(0, |m| {
        m.frame.0 << FRAME_SHIFT
            | u64::from(m.pkey.0) << PKEY_SHIFT
            | if m.accessed { ACCESSED } else { 0 }
            | PRESENT
    })
}

/// Unpack a PTE word.
#[inline]
fn decode(word: u64) -> Option<Mapping> {
    (word & PRESENT != 0).then_some(Mapping {
        frame: PhysFrame(word >> FRAME_SHIFT),
        pkey: ProtectionKey((word >> PKEY_SHIFT) as u16),
        accessed: word & ACCESSED != 0,
    })
}

/// The simulated process address space.
///
/// Virtual pages are handed out by a bump allocator starting at a
/// conventionally heap-like base address. Pages are never reused once
/// unmapped (matching the paper's current implementation, which defers
/// virtual-page recycling to future work, §6).
///
/// Every method takes `&self`: reads are lock-free loads and writes
/// serialise on an internal writer-only mutex (see the
/// [module documentation](self)).
pub struct AddressSpace {
    /// One PTE word per page of the mmap region.
    ptes: PageSpine<AtomicU64>,
    /// Serialises writers; readers never take it.
    writer: Mutex<()>,
    next_page: AtomicU64,
    total_keys: u16,
    // Written under `writer`, read by anyone.
    mapped_pages: AtomicUsize,
    accessed_pages: AtomicU64,
    peak_accessed_pages: AtomicU64,
}

impl AddressSpace {
    /// An empty address space for hardware with `total_keys` keys.
    #[must_use]
    pub fn new(total_keys: u16) -> AddressSpace {
        AddressSpace {
            ptes: Spine::new(),
            writer: Mutex::new(()),
            next_page: AtomicU64::new(MMAP_BASE_PAGE.0),
            total_keys,
            mapped_pages: AtomicUsize::new(0),
            accessed_pages: AtomicU64::new(0),
            peak_accessed_pages: AtomicU64::new(0),
        }
    }

    /// Reserve `count` fresh, contiguous virtual pages without mapping them.
    ///
    /// # Panics
    ///
    /// Panics with "simulated address space exhausted" when the pages
    /// would run past [`USER_PAGE_END`].
    pub fn reserve_pages(&self, count: u64) -> VirtPage {
        let first = self.next_page.fetch_add(count, Ordering::Relaxed);
        assert!(
            first
                .checked_add(count)
                .is_some_and(|end| end <= USER_PAGE_END.0),
            "simulated address space exhausted"
        );
        VirtPage(first)
    }

    /// Take the writer mutex for one system call's updates, however many
    /// pages it touches; it is released when the [`PteWriter`] drops.
    pub fn writer(&self) -> PteWriter<'_> {
        PteWriter {
            aspace: self,
            _exclusive: self.writer.lock(),
        }
    }

    /// Bytes Linux would report as RSS: populated PTEs x page size. Shared
    /// mappings of one frame each count once per *virtual* page.
    #[must_use]
    pub fn linux_rss_bytes(&self) -> u64 {
        self.accessed_pages.load(Ordering::Relaxed) * crate::mem::PAGE_SIZE
    }

    /// Peak of [`AddressSpace::linux_rss_bytes`] over the run.
    #[must_use]
    pub fn peak_linux_rss_bytes(&self) -> u64 {
        self.peak_accessed_pages.load(Ordering::Relaxed) * crate::mem::PAGE_SIZE
    }

    /// Translate an address to its page-table entry.
    #[must_use]
    pub fn translate(&self, addr: VirtAddr) -> Option<Mapping> {
        self.entry(addr.page())
    }

    /// Look up the entry for a page: one acquire load.
    #[inline]
    #[must_use]
    pub fn entry(&self, page: VirtPage) -> Option<Mapping> {
        decode(self.ptes.get(page_slot(page)?)?.load(Ordering::Acquire))
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages.load(Ordering::Relaxed)
    }

    /// Replace `page`'s entry. Writer mutex held (only [`PteWriter`] calls
    /// this), so the word cannot change between the caller's read and this
    /// store.
    fn store(&self, page: VirtPage, entry: Option<Mapping>) {
        page_slot(page)
            .and_then(|slot| self.ptes.get_or_publish(slot))
            .expect("only pages of the mmap region are mapped")
            .store(encode(entry), Ordering::Release);
    }
}

/// Exclusive write access to an [`AddressSpace`]: the writer mutex, held,
/// and the only way to change a PTE. Obtained from
/// [`AddressSpace::writer`]; readers are never blocked by it.
pub struct PteWriter<'a> {
    aspace: &'a AddressSpace,
    _exclusive: MutexGuard<'a, ()>,
}

impl PteWriter<'_> {
    /// Map `page` to `frame` with the default protection key
    /// (`mmap(MAP_SHARED | MAP_FIXED)` onto the in-memory file).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::AlreadyMapped`] if the page is mapped.
    ///
    /// # Panics
    ///
    /// Panics if `page` lies outside the mmap region
    /// ([`MMAP_BASE_PAGE`]..[`USER_PAGE_END`], where
    /// [`AddressSpace::reserve_pages`] draws every page), or if `frame`
    /// does not fit the PTE word's 46-bit frame field.
    pub fn map(&self, page: VirtPage, frame: PhysFrame) -> Result<(), MapError> {
        assert!(
            (MMAP_BASE_PAGE..USER_PAGE_END).contains(&page),
            "{page:?} lies outside the simulated mmap region"
        );
        assert!(
            frame.0 >> FRAME_BITS == 0,
            "{frame:?} does not fit the PTE word's {FRAME_BITS}-bit frame field"
        );
        if self.aspace.entry(page).is_some() {
            return Err(MapError::AlreadyMapped(page));
        }
        self.aspace.store(
            page,
            Some(Mapping {
                frame,
                pkey: ProtectionKey::DEFAULT,
                accessed: false,
            }),
        );
        self.aspace.mapped_pages.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Remove the mapping for `page`, returning it (`munmap`).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::NotMapped`] if the page is not mapped.
    pub fn unmap(&self, page: VirtPage) -> Result<Mapping, MapError> {
        let mapping = self.aspace.entry(page).ok_or(MapError::NotMapped(page))?;
        self.aspace.store(page, None);
        self.aspace.mapped_pages.fetch_sub(1, Ordering::Relaxed);
        if mapping.accessed {
            self.aspace.accessed_pages.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(mapping)
    }

    /// Set the PTE accessed bit for `page` (first touch populates the PTE).
    pub fn mark_accessed(&self, page: VirtPage) {
        if let Some(m) = self.aspace.entry(page).filter(|m| !m.accessed) {
            let touched = Mapping {
                accessed: true,
                ..m
            };
            self.aspace.store(page, Some(touched));
            let now = self.aspace.accessed_pages.fetch_add(1, Ordering::Relaxed) + 1;
            self.aspace
                .peak_accessed_pages
                .fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Retag `count` pages starting at `first` with `key`
    /// (the `pkey_mprotect()` system call).
    ///
    /// # Errors
    ///
    /// Returns an error if the key is invalid or a page is unmapped; no
    /// partial update is applied in the error case.
    pub fn pkey_mprotect(
        &self,
        first: VirtPage,
        count: u64,
        key: ProtectionKey,
    ) -> Result<(), ProtectError> {
        if key.0 >= self.aspace.total_keys {
            return Err(ProtectError::InvalidKey(key));
        }
        for i in 0..count {
            if self.aspace.entry(first.add(i)).is_none() {
                return Err(ProtectError::NotMapped(first.add(i)));
            }
        }
        for i in 0..count {
            let page = first.add(i);
            let m = self.aspace.entry(page).expect("checked above");
            self.aspace.store(page, Some(Mapping { pkey: key, ..m }));
        }
        Ok(())
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("mapped_pages", &self.mapped_pages())
            .field(
                "next_page",
                &VirtPage(self.next_page.load(Ordering::Relaxed)),
            )
            .field("total_keys", &self.total_keys)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_slot_offsets_from_the_region_base() {
        assert_eq!(page_slot(MMAP_BASE_PAGE), Some(0));
        assert_eq!(page_slot(MMAP_BASE_PAGE.add(17)), Some(17));
        assert_eq!(page_slot(VirtPage(MMAP_BASE_PAGE.0 - 1)), None, "below the region");
    }

    /// The last page `reserve_pages` can hand out maps, translates and
    /// unmaps like the first: the table spans the whole region.
    #[test]
    fn the_last_user_page_has_a_word() {
        let aspace = AddressSpace::new(16);
        let _ = aspace.reserve_pages(USER_PAGE_END.0 - MMAP_BASE_PAGE.0 - 1);
        let last = aspace.reserve_pages(1);
        assert_eq!(last, VirtPage(USER_PAGE_END.0 - 1));
        aspace.writer().map(last, PhysFrame(5)).unwrap();
        aspace.writer().pkey_mprotect(last, 1, ProtectionKey(9)).unwrap();
        let entry = aspace.entry(last).unwrap();
        assert_eq!((entry.frame, entry.pkey), (PhysFrame(5), ProtectionKey(9)));
        assert_eq!(aspace.entry(USER_PAGE_END), None);
        aspace.writer().unmap(last).unwrap();
        assert_eq!(aspace.mapped_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "simulated address space exhausted")]
    fn reserving_past_the_last_user_page_panics() {
        let aspace = AddressSpace::new(16);
        let _ = aspace.reserve_pages(USER_PAGE_END.0 - MMAP_BASE_PAGE.0);
        let _ = aspace.reserve_pages(1);
    }

    #[test]
    #[should_panic(expected = "lies outside the simulated mmap region")]
    fn a_page_below_the_region_is_rejected_not_stored() {
        let _ = AddressSpace::new(16).writer().map(VirtPage(0), PhysFrame(0));
    }

    #[test]
    #[should_panic(expected = "lies outside the simulated mmap region")]
    fn a_page_past_user_space_is_rejected_not_stored() {
        let _ = AddressSpace::new(16).writer().map(USER_PAGE_END, PhysFrame(0));
    }

    #[test]
    fn pte_word_round_trips_the_extremes_of_every_field() {
        let aspace = AddressSpace::new(u16::MAX);
        let page = aspace.reserve_pages(1);
        let (frame, pkey) = (
            PhysFrame((1 << FRAME_BITS) - 1),
            ProtectionKey(u16::MAX - 1),
        );
        aspace.writer().map(page, frame).unwrap();
        aspace.writer().pkey_mprotect(page, 1, pkey).unwrap();
        aspace.writer().mark_accessed(page);
        let full = Mapping {
            frame,
            pkey,
            accessed: true,
        };
        assert_eq!(aspace.entry(page), Some(full));
        assert_eq!(aspace.writer().unmap(page), Ok(full));
        assert_eq!(aspace.entry(page), None);
    }

    #[test]
    #[should_panic(expected = "does not fit the PTE word's 46-bit frame field")]
    fn oversize_frame_number_is_rejected_not_truncated() {
        let aspace = AddressSpace::new(16);
        let page = aspace.reserve_pages(1);
        let _ = aspace.writer().map(page, PhysFrame(1 << FRAME_BITS));
    }

    #[test]
    fn map_translate_unmap() {
        let aspace = AddressSpace::new(16);
        let page = aspace.reserve_pages(1);
        aspace.writer().map(page, PhysFrame(3)).unwrap();
        let m = aspace.translate(page.base_addr().offset(100)).unwrap();
        assert_eq!(m.frame, PhysFrame(3));
        assert_eq!(m.pkey, ProtectionKey::DEFAULT);
        aspace.writer().unmap(page).unwrap();
        assert!(aspace.translate(page.base_addr()).is_none());
    }

    #[test]
    fn double_map_rejected() {
        let aspace = AddressSpace::new(16);
        let page = aspace.reserve_pages(1);
        aspace.writer().map(page, PhysFrame(0)).unwrap();
        assert_eq!(
            aspace.writer().map(page, PhysFrame(1)),
            Err(MapError::AlreadyMapped(page))
        );
    }

    #[test]
    fn unmap_unmapped_rejected() {
        let aspace = AddressSpace::new(16);
        let page = aspace.reserve_pages(1);
        assert_eq!(aspace.writer().unmap(page), Err(MapError::NotMapped(page)));
    }

    #[test]
    fn reserved_pages_are_contiguous_and_unique() {
        let aspace = AddressSpace::new(16);
        let a = aspace.reserve_pages(4);
        let b = aspace.reserve_pages(2);
        assert_eq!(b, a.add(4));
        let c = aspace.reserve_pages(1);
        assert_eq!(c, b.add(2));
    }

    #[test]
    fn pkey_mprotect_retags_range() {
        let aspace = AddressSpace::new(16);
        let first = aspace.reserve_pages(3);
        for i in 0..3 {
            aspace.writer().map(first.add(i), PhysFrame(i)).unwrap();
        }
        aspace.writer().pkey_mprotect(first, 3, ProtectionKey(7)).unwrap();
        for i in 0..3 {
            assert_eq!(aspace.entry(first.add(i)).unwrap().pkey, ProtectionKey(7));
        }
    }

    #[test]
    fn pkey_mprotect_invalid_key() {
        let aspace = AddressSpace::new(16);
        let page = aspace.reserve_pages(1);
        aspace.writer().map(page, PhysFrame(0)).unwrap();
        assert_eq!(
            aspace.writer().pkey_mprotect(page, 1, ProtectionKey(16)),
            Err(ProtectError::InvalidKey(ProtectionKey(16)))
        );
    }

    #[test]
    fn pkey_mprotect_unmapped_page_is_atomic() {
        let aspace = AddressSpace::new(16);
        let first = aspace.reserve_pages(2);
        aspace.writer().map(first, PhysFrame(0)).unwrap();
        // Second page unmapped: the call must fail without retagging page 1.
        assert_eq!(
            aspace.writer().pkey_mprotect(first, 2, ProtectionKey(5)),
            Err(ProtectError::NotMapped(first.add(1)))
        );
        assert_eq!(
            aspace.entry(first).unwrap().pkey,
            ProtectionKey::DEFAULT,
            "failed mprotect must not partially apply"
        );
    }
}
