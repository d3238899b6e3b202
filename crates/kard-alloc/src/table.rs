//! Lock-free object metadata: one record table and one page index.
//!
//! Every object — a magazine slot, a sharded-mode slot, an object of a
//! page or more, a global — has its record in the one [`ObjectTable`],
//! and every page it owns points at it through the [`PageIndex`]. The
//! fault handler, the detector's retags and `free` resolve any object
//! with two acquire loads and no lock, whichever thread made it. Two
//! structural facts of the allocator make a lock-free design simple:
//!
//! * **Object ids are dense and never reused** (`next_id` is a bump
//!   counter), so a chunked array indexed by id can hold one write-once
//!   cell per object — no hashing, no ABA.
//! * **Virtual pages are never reused** and are themselves a dense bump
//!   sequence from [`kard_sim::MMAP_BASE_PAGE`], so a chunked array of
//!   atomic words indexed by `page - base` is a complete page→object
//!   index.
//!
//! A cell's payload fields are written exactly once, *before* the cell is
//! published by storing its live state ([`STATE_HEAP`] or
//! [`STATE_GLOBAL`], which is also the object's kind) with release
//! ordering; readers acquire-load the state first, so a live observation
//! orders all payload reads after the writes. After publication only the
//! state word ever changes (`HEAP → DEAD`, claimed by compare-and-swap so
//! exactly one `free` wins and a second free is detected; a global never
//! dies), and the payload stays intact forever — a racing reader that
//! loads fields while the state flips still reads consistent values.
//!
//! Both tables are clients of the one publish-once chunked table,
//! [`kard_sim::Spine`], in the page table's geometry: chunks materialize
//! on first write, so an idle table costs only the spine, and the spine
//! reaches the end of the simulated address space. Every page the
//! machine can reserve has a slot, and every object owns at least one
//! fresh page, so every id has a cell: no object ever needs another home.

use crate::metadata::{ObjectId, ObjectInfo, ObjectKind};
use kard_sim::{page_slot, PageSpine, PhysFrame, ThreadId, VirtAddr, VirtPage, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cell is unpublished.
pub const STATE_EMPTY: u64 = 0;
/// Cell is published and the object is a live heap object.
pub const STATE_HEAP: u64 = 1;
/// Cell is published and the object is a global (live forever).
pub const STATE_GLOBAL: u64 = 2;
/// The heap object has been freed (payload remains readable but stale).
pub const STATE_DEAD: u64 = 3;

/// The geometry of every table indexed by [`ObjectId`] — this crate's
/// [`ObjectTable`], the detector's side metadata. Every id is issued with
/// at least one fresh page, so ids never outnumber pages and the page
/// table's geometry covers them too.
pub type IdSpine<T> = PageSpine<T>;

/// Immutable snapshot of one object's metadata.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// The object.
    pub id: ObjectId,
    /// Base address (page base shifted by the consolidation offset).
    pub base: VirtAddr,
    /// Requested size in bytes.
    pub size: u64,
    /// Size rounded to the 32 B granule; it also fixes the page count.
    pub rounded: u64,
    /// Shared physical frame backing a small heap slot (unused for an
    /// object with dedicated frames).
    pub frame: PhysFrame,
    /// Byte offset of the small heap slot within `frame`.
    pub offset: u64,
    /// Thread whose magazine produced the object (remote frees push to
    /// this thread's queue); `None` for every other object.
    pub owner: Option<ThreadId>,
    /// Heap or global.
    pub kind: ObjectKind,
}

impl Record {
    /// The public metadata view of this record.
    #[must_use]
    pub fn info(&self) -> ObjectInfo {
        ObjectInfo {
            id: self.id,
            base: self.base,
            size: self.size,
            rounded_size: self.rounded,
            first_page: self.base.page(),
            page_count: self.rounded.div_ceil(PAGE_SIZE),
            kind: self.kind,
        }
    }
}

/// Seven words, all zero by default: `state` starts at [`STATE_EMPTY`].
#[derive(Default)]
struct Cell {
    state: AtomicU64,
    base: AtomicU64,
    size: AtomicU64,
    rounded: AtomicU64,
    frame: AtomicU64,
    offset: AtomicU64,
    /// Magazine owner's thread id + 1; `0` = no magazine owner.
    owner: AtomicU64,
}

impl Cell {
    fn record(&self, id: ObjectId, state: u64) -> Record {
        Record {
            id,
            base: VirtAddr(self.base.load(Ordering::Relaxed)),
            size: self.size.load(Ordering::Relaxed),
            rounded: self.rounded.load(Ordering::Relaxed),
            frame: PhysFrame(self.frame.load(Ordering::Relaxed)),
            offset: self.offset.load(Ordering::Relaxed),
            owner: match self.owner.load(Ordering::Relaxed) {
                0 => None,
                raw => Some(ThreadId(raw as usize - 1)),
            },
            kind: if state == STATE_GLOBAL {
                ObjectKind::Global
            } else {
                ObjectKind::Heap
            },
        }
    }
}

/// Publish-once table of every object, indexed by dense id. Empty by
/// [`Default`] (which allocates only the chunk spine).
#[derive(Default)]
pub struct ObjectTable {
    cells: IdSpine<Cell>,
}

impl ObjectTable {
    /// Publish a freshly allocated object. The release store of its live
    /// state is the linearization point; callers must index the object's
    /// pages *after* this returns so a page-index hit always finds a live
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if `rec.id` is past the table's capacity, which no id
    /// reaches: ids never outnumber pages, and the geometry covers every
    /// page the machine can reserve.
    pub fn publish(&self, rec: &Record) {
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
        cell.owner
            .store(rec.owner.map_or(0, |t| t.0 as u64 + 1), Ordering::Relaxed);
        let state = match rec.kind {
            ObjectKind::Heap => STATE_HEAP,
            ObjectKind::Global => STATE_GLOBAL,
        };
        cell.state.store(state, Ordering::Release);
    }

    /// The record of `id` while the object lives; `None` once it is freed
    /// or if it was never published.
    #[must_use]
    pub fn lookup(&self, id: ObjectId) -> Option<Record> {
        let cell = self.cells.get(id.0 as usize)?;
        match cell.state.load(Ordering::Acquire) {
            state @ (STATE_HEAP | STATE_GLOBAL) => Some(cell.record(id, state)),
            _ => None,
        }
    }

    /// Claim `id` for freeing: exactly one caller wins the `HEAP → DEAD`
    /// transition and receives the record.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id, a double free, or a global — a global's
    /// state is left untouched, so it stays live and resolvable.
    pub fn claim_free(&self, id: ObjectId) -> Record {
        let claimed = self.cells.get(id.0 as usize).map(|cell| {
            cell.state
                .compare_exchange(STATE_HEAP, STATE_DEAD, Ordering::AcqRel, Ordering::Acquire)
                .map(|state| cell.record(id, state))
        });
        match claimed {
            Some(Ok(rec)) => rec,
            Some(Err(STATE_GLOBAL)) => panic!("globals cannot be freed"),
            _ => panic!("free of unknown or already-freed object {id}"),
        }
    }

    /// Metadata of every live object, in id order (the ids are the index,
    /// so no sort is needed).
    #[must_use]
    pub fn live_objects(&self) -> Vec<ObjectInfo> {
        self.cells
            .iter()
            .filter_map(|(id, cell)| match cell.state.load(Ordering::Acquire) {
                state @ (STATE_HEAP | STATE_GLOBAL) => {
                    Some(cell.record(ObjectId(id as u64), state).info())
                }
                _ => None,
            })
            .collect()
    }
}

/// Lock-free page→object index over the dense reservation sequence.
///
/// Each slot holds `object id + 1` (`0` = no owner). Pages are never
/// reused, so a slot goes `0 → id+1 → 0` at most once and a stale read
/// can only misreport during the instants around publication/teardown —
/// both of which are ordered against the [`ObjectTable`] state
/// transitions: an object is published before its pages are inserted,
/// and claimed before they are cleared, so a page that still names a
/// freed object resolves to the dead cell, which answers `None`.
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

    fn rec(id: u64, page: u64) -> Record {
        Record {
            id: ObjectId(id),
            base: VirtPage(MMAP_BASE_PAGE.0 + page).base_addr().offset(64),
            size: 24,
            rounded: 32,
            frame: PhysFrame(7),
            offset: 64,
            owner: Some(ThreadId(3)),
            kind: ObjectKind::Heap,
        }
    }

    #[test]
    fn publish_then_live_round_trips() {
        let t = ObjectTable::default();
        let r = rec(5, 0);
        t.publish(&r);
        let got = t.lookup(ObjectId(5)).unwrap();
        assert_eq!(got.base, r.base);
        assert_eq!(got.owner, Some(ThreadId(3)));
        assert_eq!(got.info().first_page, r.base.page());
        assert!(t.lookup(ObjectId(4)).is_none(), "unpublished id");
    }

    #[test]
    fn owner_kind_and_page_count_round_trip() {
        let t = ObjectTable::default();
        let owners = [Some(ThreadId(0)), None];
        let kinds = [ObjectKind::Heap, ObjectKind::Global];
        for (i, (owner, kind)) in owners.into_iter().zip(kinds).enumerate() {
            let r = Record {
                owner,
                kind,
                rounded: 3 * PAGE_SIZE + 32,
                ..rec(i as u64, 4 * i as u64)
            };
            t.publish(&r);
            let got = t.lookup(r.id).unwrap();
            assert_eq!((got.owner, got.kind), (owner, kind));
            assert_eq!(got.info().page_count, 4);
        }
    }

    #[test]
    fn claim_free_is_exclusive_and_final() {
        let t = ObjectTable::default();
        t.publish(&rec(9, 0));
        assert_eq!(t.claim_free(ObjectId(9)).id, ObjectId(9));
        assert!(t.lookup(ObjectId(9)).is_none(), "dead after claim");
    }

    #[test]
    #[should_panic(expected = "already-freed")]
    fn double_claim_panics() {
        let t = ObjectTable::default();
        t.publish(&rec(2, 0));
        let _ = t.claim_free(ObjectId(2));
        let _ = t.claim_free(ObjectId(2));
    }

    #[test]
    #[should_panic(expected = "free of unknown or already-freed object o1234")]
    fn claim_of_an_unpublished_id_panics() {
        let _ = ObjectTable::default().claim_free(ObjectId(1234));
    }

    #[test]
    fn live_objects_in_id_order() {
        let t = ObjectTable::default();
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
