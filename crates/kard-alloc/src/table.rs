//! Lock-free metadata tables for consolidated objects.
//!
//! The magazine fast path must publish object metadata without taking a
//! shared lock, and the fault handler must resolve a faulting address to
//! that metadata no matter which thread's magazine produced the object.
//! Two structural facts of the allocator make a lock-free design simple:
//!
//! * **Object ids are dense and never reused** (`next_id` is a bump
//!   counter), so a chunked array indexed by id can hold one write-once
//!   cell per consolidated object — no hashing, no ABA.
//! * **Virtual pages are never reused** and are themselves a dense bump
//!   sequence from [`kard_sim::MMAP_BASE_PAGE`], so a chunked array of
//!   atomic words indexed by `page - base` is a complete page→object
//!   index.
//!
//! A cell's payload fields are written exactly once, *before* the cell is
//! published by storing [`STATE_LIVE`] with release ordering; readers
//! acquire-load the state first, so a `LIVE` observation orders all
//! payload reads after the writes. After publication only the state word
//! ever changes (`LIVE → DEAD`, claimed by compare-and-swap so exactly
//! one `free` wins and a second free is detected), and the payload stays
//! intact forever — a racing reader that loads fields while the state
//! flips still reads consistent values.
//!
//! Both tables are clients of the one publish-once chunked table,
//! [`kard_sim::Spine`], in the page table's geometry: chunks materialize
//! on first write, so an idle table costs only the spine, and the spine
//! reaches the end of the simulated address space. Every page the
//! machine can reserve has a slot, and every object owns at least one
//! fresh page, so every id has a cell: no object ever needs another home.

use crate::metadata::{ObjectId, ObjectInfo, ObjectKind};
use kard_sim::{page_slot, PageSpine, PhysFrame, ThreadId, VirtAddr, VirtPage};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cell is unpublished (or the id was never a consolidated object).
pub const STATE_EMPTY: u64 = 0;
/// Cell is published and the object is live.
pub const STATE_LIVE: u64 = 1;
/// The object has been freed (payload remains readable but stale).
pub const STATE_DEAD: u64 = 2;

/// The geometry of every table indexed by [`ObjectId`] — this crate's
/// [`ConsTable`], the detector's side metadata. Every id is issued with at
/// least one fresh page, so ids never outnumber pages and the page
/// table's geometry covers them too.
pub type IdSpine<T> = PageSpine<T>;

/// Immutable snapshot of one consolidated object's metadata.
#[derive(Clone, Copy, Debug)]
pub struct ConsRecord {
    /// The object.
    pub id: ObjectId,
    /// Base address (page base shifted by the consolidation offset).
    pub base: VirtAddr,
    /// Requested size in bytes.
    pub size: u64,
    /// Size rounded to the 32 B granule.
    pub rounded: u64,
    /// Shared physical frame backing the slot.
    pub frame: PhysFrame,
    /// Byte offset of the slot within the frame.
    pub offset: u64,
    /// Thread whose magazine produced the object (remote frees push to
    /// this thread's queue).
    pub owner: ThreadId,
}

impl ConsRecord {
    /// The public metadata view of this record.
    #[must_use]
    pub fn info(&self) -> ObjectInfo {
        ObjectInfo {
            id: self.id,
            base: self.base,
            size: self.size,
            rounded_size: self.rounded,
            first_page: self.base.page(),
            page_count: 1,
            kind: ObjectKind::Heap,
        }
    }
}

/// All-zero by default: `state` starts at [`STATE_EMPTY`].
#[derive(Default)]
struct ConsCell {
    state: AtomicU64,
    base: AtomicU64,
    size: AtomicU64,
    rounded: AtomicU64,
    frame: AtomicU64,
    offset: AtomicU64,
    owner: AtomicU64,
}

impl ConsCell {
    fn record(&self, id: ObjectId) -> ConsRecord {
        ConsRecord {
            id,
            base: VirtAddr(self.base.load(Ordering::Relaxed)),
            size: self.size.load(Ordering::Relaxed),
            rounded: self.rounded.load(Ordering::Relaxed),
            frame: PhysFrame(self.frame.load(Ordering::Relaxed)),
            offset: self.offset.load(Ordering::Relaxed),
            owner: ThreadId(self.owner.load(Ordering::Relaxed) as usize),
        }
    }
}

/// Publish-once table of consolidated objects, indexed by dense id.
/// Empty by [`Default`] (which allocates only the chunk spine).
#[derive(Default)]
pub struct ConsTable {
    cells: IdSpine<ConsCell>,
}

impl ConsTable {
    /// Publish a freshly allocated object. The release store of
    /// [`STATE_LIVE`] is the linearization point; callers must index the
    /// page *after* this returns so a page-index hit always finds a live
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if `rec.id` is past the table's capacity, which no id
    /// reaches: ids never outnumber pages, and the geometry covers every
    /// page the machine can reserve.
    pub fn publish(&self, rec: &ConsRecord) {
        let cell = self
            .cells
            .get_or_publish(rec.id.0 as usize)
            .expect("id outside table capacity");
        debug_assert_eq!(cell.state.load(Ordering::Relaxed), STATE_EMPTY);
        cell.base.store(rec.base.0, Ordering::Relaxed);
        cell.size.store(rec.size, Ordering::Relaxed);
        cell.rounded.store(rec.rounded, Ordering::Relaxed);
        cell.frame.store(rec.frame.0, Ordering::Relaxed);
        cell.offset.store(rec.offset, Ordering::Relaxed);
        cell.owner.store(rec.owner.0 as u64, Ordering::Relaxed);
        cell.state.store(STATE_LIVE, Ordering::Release);
    }

    /// What the table knows of `id`: `None` if `id` was never published
    /// here (it is no magazine object, so the allocator's maps answer),
    /// else `Some` of its record while the object lives and `Some(None)`
    /// once it is freed — a freed magazine object is in no map either.
    #[must_use]
    pub fn lookup(&self, id: ObjectId) -> Option<Option<ConsRecord>> {
        let cell = self.cells.get(id.0 as usize)?;
        match cell.state.load(Ordering::Acquire) {
            STATE_EMPTY => None,
            STATE_LIVE => Some(Some(cell.record(id))),
            _ => Some(None),
        }
    }

    /// Claim `id` for freeing: exactly one caller wins the `LIVE → DEAD`
    /// transition and receives the record. Returns `None` when the id
    /// was never published here (the caller falls back to the sharded
    /// maps, which also own the unknown-id diagnostic).
    ///
    /// # Panics
    ///
    /// Panics on double free of a consolidated object.
    pub fn claim_free(&self, id: ObjectId) -> Option<ConsRecord> {
        let cell = self.cells.get(id.0 as usize)?;
        match cell.state.compare_exchange(
            STATE_LIVE,
            STATE_DEAD,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Some(cell.record(id)),
            Err(STATE_EMPTY) => None,
            Err(_) => panic!("free of unknown or already-freed object {id}"),
        }
    }

    /// Metadata of every live object in the table, in id order (the ids
    /// are the index, so no sort is needed).
    #[must_use]
    pub fn live_objects(&self) -> Vec<ObjectInfo> {
        self.cells
            .iter()
            .filter(|(_, cell)| cell.state.load(Ordering::Acquire) == STATE_LIVE)
            .map(|(id, cell)| cell.record(ObjectId(id as u64)).info())
            .collect()
    }
}

/// Lock-free page→object index over the dense reservation sequence.
///
/// Each slot holds `object id + 1` (`0` = no owner). Pages are never
/// reused, so a slot goes `0 → id+1 → 0` at most once and a stale read
/// can only misreport during the instants around publication/teardown —
/// both of which are ordered against the [`ConsTable`] state transitions
/// by the insert-after-publish / clear-before-claim protocol documented
/// on the allocator.
#[derive(Default)]
pub struct PageIndex {
    /// The simulated page table's geometry, slot for slot.
    slots: PageSpine<AtomicU64>,
}

impl PageIndex {
    /// Record `page → id`. The caller must have mapped the page and
    /// published the object's metadata first.
    ///
    /// # Panics
    ///
    /// Panics if `page` lies outside the mmap region, where no page is
    /// ever mapped.
    pub fn insert(&self, page: VirtPage, id: ObjectId) {
        page_slot(page)
            .and_then(|idx| self.slots.get_or_publish(idx))
            .expect("only pages of the mmap region are mapped")
            .store(id.0 + 1, Ordering::Release);
    }

    /// Remove the owner of `page` (on free).
    pub fn clear(&self, page: VirtPage) {
        if let Some(slot) = page_slot(page).and_then(|idx| self.slots.get(idx)) {
            slot.store(0, Ordering::Release);
        }
    }

    /// The object owning `page`, if one is recorded.
    #[must_use]
    pub fn get(&self, page: VirtPage) -> Option<ObjectId> {
        match self.slots.get(page_slot(page)?)?.load(Ordering::Acquire) {
            0 => None,
            raw => Some(ObjectId(raw - 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_sim::MMAP_BASE_PAGE;

    fn rec(id: u64, page: u64) -> ConsRecord {
        ConsRecord {
            id: ObjectId(id),
            base: VirtPage(MMAP_BASE_PAGE.0 + page).base_addr().offset(64),
            size: 24,
            rounded: 32,
            frame: PhysFrame(7),
            offset: 64,
            owner: ThreadId(3),
        }
    }

    #[test]
    fn publish_then_live_round_trips() {
        let t = ConsTable::default();
        let r = rec(5, 0);
        t.publish(&r);
        let got = t.lookup(ObjectId(5)).flatten().unwrap();
        assert_eq!(got.base, r.base);
        assert_eq!(got.owner, ThreadId(3));
        assert_eq!(got.info().first_page, r.base.page());
        assert!(t.lookup(ObjectId(4)).is_none(), "unpublished id");
    }

    #[test]
    fn claim_free_is_exclusive_and_final() {
        let t = ConsTable::default();
        t.publish(&rec(9, 0));
        assert!(t.claim_free(ObjectId(9)).is_some());
        assert!(matches!(t.lookup(ObjectId(9)), Some(None)), "dead after claim");
        assert!(t.claim_free(ObjectId(1234)).is_none(), "empty cell defers");
    }

    #[test]
    #[should_panic(expected = "already-freed")]
    fn double_claim_panics() {
        let t = ConsTable::default();
        t.publish(&rec(2, 0));
        let _ = t.claim_free(ObjectId(2));
        let _ = t.claim_free(ObjectId(2));
    }

    #[test]
    fn live_objects_in_id_order() {
        let t = ConsTable::default();
        for id in [7u64, 3, 5] {
            t.publish(&rec(id, id));
        }
        let ids: Vec<u64> = t.live_objects().iter().map(|o| o.id.0).collect();
        assert_eq!(ids, vec![3, 5, 7]);
    }

    #[test]
    fn page_index_insert_get_clear() {
        let idx = PageIndex::default();
        // A first-level page and one past the first 16 Mi pages.
        for page in [MMAP_BASE_PAGE.add(17), MMAP_BASE_PAGE.add((1 << 24) + 17)] {
            assert_eq!(idx.get(page), None);
            idx.insert(page, ObjectId(3));
            assert_eq!(idx.get(page), Some(ObjectId(3)));
            idx.clear(page);
            assert_eq!(idx.get(page), None);
        }
        assert_eq!(idx.get(VirtPage(0)), None, "below the region");
    }
}
