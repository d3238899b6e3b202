//! The one publish-once chunked table under every dense-index structure.
//!
//! Object ids, virtual pages and thread ids are all dense bump sequences
//! that are never reused, so every table keyed by one of them has the
//! same shape: a fixed array of [`OnceLock`] chunk pointers (the spine),
//! each chunk a boxed slice of default-initialised cells that
//! materialises on first write and never moves or disappears afterwards.
//! Readers need no lock — two acquire loads reach a cell — and an idle
//! table costs only the spine. [`Spine`] is that shape, written once; the
//! page table's PTE words ([`crate::page_table`]), the allocator's cons
//! table and page index, the detector's side metadata, both thread
//! tables ([`Registry`]) and the allocator's per-thread magazines
//! ([`ThreadSpine`]) are thin clients that only decide what a cell holds.
//!
//! A table may also have a **far level**: `FAR` more nodes shaped like
//! the first level, each covering the next [`Spine::FIRST_LEVEL`]
//! indices, so a page table can span a whole address space. The first
//! level stays two loads away — an index past it is the first level's
//! out-of-range case, and only then does a read take the cold path
//! through the far directory — and nothing of the far level exists until
//! a far index is first written: the directory, then one node, then one
//! chunk.
//!
//! Chunk geometry is a pair of const parameters so index math compiles
//! to a shift and a mask: [`Registry::get`] sits under
//! [`crate::Machine::charge`], the hottest call in the simulator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One level: `CHUNKS` lazily published chunk slots.
type Node<T> = Box<[OnceLock<Box<[T]>>]>;

/// A grow-only table of lazily published chunks of `1 << CHUNK_BITS`
/// cells each, indexed by a dense `usize`: `CHUNKS` chunks in the first
/// level and `CHUNKS` in each of the `FAR` nodes of the far level.
///
/// Cells start as `T::default()` and are only ever mutated through their
/// own interior mutability (atomics, `OnceLock`s); the table itself hands
/// out `&T`.
pub struct Spine<T, const CHUNK_BITS: u32, const CHUNKS: usize, const FAR: usize = 0> {
    /// The first level: indices below [`Spine::FIRST_LEVEL`].
    chunks: Node<T>,
    /// The far level's directory of nodes, built on the first far write.
    far: OnceLock<Box<[OnceLock<Node<T>>]>>,
}

impl<T, const CHUNK_BITS: u32, const CHUNKS: usize, const FAR: usize>
    Spine<T, CHUNK_BITS, CHUNKS, FAR>
{
    /// Number of indices the first level covers, and each far node.
    pub const FIRST_LEVEL: usize = CHUNKS << CHUNK_BITS;

    /// Number of indices the table covers. An index at or past it has no
    /// cell: both accessors return `None`.
    pub const CAPACITY: usize = (FAR + 1) * Self::FIRST_LEVEL;

    const MASK: usize = (1 << CHUNK_BITS) - 1;

    /// An empty table (allocates only the first level's chunk spine).
    #[must_use]
    pub fn new() -> Self {
        Spine {
            chunks: Self::node(),
            far: OnceLock::new(),
        }
    }

    fn node() -> Node<T> {
        (0..CHUNKS).map(|_| OnceLock::new()).collect()
    }

    /// The cell at `index` if its chunk has been published. Never
    /// materialises, so cold reads stay allocation-free. `None` past
    /// [`Spine::CAPACITY`] too.
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        match self.chunks.get(index >> CHUNK_BITS) {
            Some(chunk) => chunk.get()?.get(index & Self::MASK),
            None => self.far_get(index),
        }
    }

    #[cold]
    #[inline(never)]
    fn far_get(&self, index: usize) -> Option<&T> {
        let far = index - Self::FIRST_LEVEL;
        let node = self.far.get()?.get(far / Self::FIRST_LEVEL)?.get()?;
        node[(far % Self::FIRST_LEVEL) >> CHUNK_BITS]
            .get()?
            .get(index & Self::MASK)
    }

    /// The chunk slot of a far `index`, publishing the directory and the
    /// node on the way. `None` past [`Spine::CAPACITY`].
    #[cold]
    #[inline(never)]
    fn far_chunk(&self, index: usize) -> Option<&OnceLock<Box<[T]>>> {
        if index >= Self::CAPACITY {
            return None;
        }
        let far = index - Self::FIRST_LEVEL;
        let nodes = self
            .far
            .get_or_init(|| (0..FAR).map(|_| OnceLock::new()).collect());
        let node = nodes[far / Self::FIRST_LEVEL].get_or_init(Self::node);
        Some(&node[(far % Self::FIRST_LEVEL) >> CHUNK_BITS])
    }

    /// Every cell of every published chunk with its index, in index
    /// order, across both levels. Chunks published while the walk runs
    /// may or may not be seen.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let far = self.far.get().into_iter().flat_map(|nodes| {
            nodes
                .iter()
                .enumerate()
                .filter_map(|(n, node)| Some((n + 1, node.get()?)))
        });
        std::iter::once((0, &self.chunks))
            .chain(far)
            .flat_map(|(n, node)| {
                node.iter()
                    .enumerate()
                    .filter_map(move |(c, chunk)| Some((n * CHUNKS + c, chunk.get()?)))
            })
            .flat_map(|(c, cells)| {
                cells
                    .iter()
                    .enumerate()
                    .map(move |(i, cell)| ((c << CHUNK_BITS) | i, cell))
            })
    }
}

impl<T: Default, const CHUNK_BITS: u32, const CHUNKS: usize, const FAR: usize>
    Spine<T, CHUNK_BITS, CHUNKS, FAR>
{
    /// The cell at `index`, publishing its chunk (all cells
    /// `T::default()`) if this is the chunk's first touch; exactly one of
    /// any racing first touches publishes. `None` past
    /// [`Spine::CAPACITY`].
    #[must_use]
    pub fn get_or_publish(&self, index: usize) -> Option<&T> {
        let chunk = match self.chunks.get(index >> CHUNK_BITS) {
            Some(chunk) => chunk,
            None => self.far_chunk(index)?,
        };
        chunk
            .get_or_init(|| (0..=Self::MASK).map(|_| T::default()).collect())
            .get(index & Self::MASK)
    }
}

impl<T, const CHUNK_BITS: u32, const CHUNKS: usize, const FAR: usize> Default
    for Spine<T, CHUNK_BITS, CHUNKS, FAR>
{
    fn default() -> Self {
        Spine::new()
    }
}

/// The one geometry for tables indexed by dense thread id: a cell per
/// thread, set once. [`Registry`] publishes its cells at registration; a
/// client whose per-thread state appears on first use instead (the
/// allocator's magazines) holds this table directly.
pub type ThreadSpine<T> = Spine<OnceLock<T>, 6, 64>;

/// Threads a [`Registry`] — and so a [`crate::Machine`] and any detector
/// over it — can register: the only bound on threads anywhere, since
/// every per-thread table is a [`ThreadSpine`] or is sized from this.
/// Thread ids are never reused, so a long-lived machine must check
/// [`crate::Machine::thread_count`] against this before registering on
/// behalf of an outside client.
pub const THREAD_CAPACITY: usize = ThreadSpine::<()>::CAPACITY;

/// A grow-only, publish-once table of `T` indexed by dense thread id:
/// a [`ThreadSpine`] plus the published length.
///
/// Values are published at registration and never move or disappear, so
/// [`Registry::get`] is lock-free and [`Registry::iter`] walks the
/// published prefix without excluding concurrent registration.
pub struct Registry<T> {
    slots: ThreadSpine<T>,
    len: AtomicUsize,
}

impl<T> Registry<T> {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry<T> {
        Registry {
            slots: Spine::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Publish `value` at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is at or past [`THREAD_CAPACITY`] or already
    /// published — indices come from a monotone registration counter the
    /// caller checks against the capacity, so either is a caller bug.
    pub fn publish(&self, index: usize, value: T) {
        let slot = self
            .slots
            .get_or_publish(index)
            .unwrap_or_else(|| panic!("thread capacity ({THREAD_CAPACITY}) exceeded"));
        assert!(slot.set(value).is_ok(), "slot {index} published twice");
        // Raised after the value is set, so an index below `len` whose
        // registration has returned always resolves.
        self.len.fetch_max(index + 1, Ordering::Release);
    }

    /// The value published at `index`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.slots.get(index)?.get()
    }

    /// One past the highest index published so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing has been published yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every published value in index order, bounded to what was
    /// published before the call. Walks the chunk slices directly and
    /// carries no indices.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots
            .chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|cells| cells.iter())
            .filter_map(OnceLock::get)
            .take(self.len())
    }
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    /// 4 chunks of 4 cells and no far level: every boundary is a handful
    /// of indices away.
    type Tiny<T> = Spine<T, 2, 4>;

    #[test]
    fn get_on_an_untouched_chunk_is_none_and_allocates_nothing() {
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Default for Counted {
            fn default() -> Counted {
                BUILT.fetch_add(1, Ordering::Relaxed);
                Counted
            }
        }
        let spine = Tiny::<Counted>::new();
        assert!(spine.get(5).is_none());
        assert_eq!(BUILT.load(Ordering::Relaxed), 0, "a read built cells");
        assert_eq!(spine.iter().count(), 0);
        // First touch builds exactly that chunk; its neighbours stay cold.
        assert!(spine.get_or_publish(5).is_some());
        assert_eq!(BUILT.load(Ordering::Relaxed), 4);
        assert!(spine.get(4).is_some(), "same chunk");
        assert!(spine.get(3).is_none() && spine.get(8).is_none());
    }

    #[test]
    fn capacity_is_the_first_index_without_a_cell() {
        let spine = Tiny::<AtomicU64>::new();
        assert_eq!(Tiny::<AtomicU64>::CAPACITY, 16);
        spine.get_or_publish(15).unwrap().store(7, Ordering::Relaxed);
        assert_eq!(spine.get(15).unwrap().load(Ordering::Relaxed), 7);
        assert!(spine.get_or_publish(16).is_none());
        assert!(spine.get(16).is_none());
        assert!(spine.get(usize::MAX).is_none());
    }

    #[test]
    fn racing_first_touches_publish_exactly_one_chunk() {
        let spine = Tiny::<AtomicU64>::new();
        let barrier = Barrier::new(8);
        let cells: Vec<usize> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        std::ptr::from_ref(spine.get_or_publish(9).unwrap()) as usize
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(cells.iter().all(|&c| c == cells[0]), "one cell for everyone");
        assert_eq!(spine.iter().count(), 4, "one chunk's worth of cells");
    }

    #[test]
    fn iteration_yields_only_published_cells() {
        let spine = Tiny::<AtomicU64>::new();
        let _ = spine.get_or_publish(13);
        let _ = spine.get_or_publish(6);
        let indices: Vec<usize> = spine.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![4, 5, 6, 7, 12, 13, 14, 15]);
    }

    /// [`Tiny`]'s first level plus two far nodes of 16 cells each.
    type TinyFar<T> = Spine<T, 2, 4, 2>;

    /// Far nodes published, and chunks published across them.
    fn far_published<T>(spine: &TinyFar<T>) -> (usize, usize) {
        let nodes: Vec<&Node<T>> = spine
            .far
            .get()
            .into_iter()
            .flat_map(|dir| dir.iter())
            .filter_map(OnceLock::get)
            .collect();
        let chunks = nodes.iter().flat_map(|n| n.iter()).filter(|c| c.get().is_some());
        (nodes.len(), chunks.count())
    }

    #[test]
    fn cold_far_reads_allocate_nothing_and_a_far_touch_publishes_one_node_and_one_chunk() {
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Default for Counted {
            fn default() -> Counted {
                BUILT.fetch_add(1, Ordering::Relaxed);
                Counted
            }
        }
        let spine = TinyFar::<Counted>::new();
        assert_eq!(TinyFar::<Counted>::CAPACITY, 48);
        for index in [16, 37, 47, 48, usize::MAX] {
            assert!(spine.get(index).is_none());
        }
        assert!(spine.get_or_publish(48).is_none(), "past capacity");
        assert!(spine.far.get().is_none(), "no far directory before a far write");
        assert_eq!(BUILT.load(Ordering::Relaxed), 0);

        // 37 is far node 1, chunk 1: cells 36..40.
        assert!(spine.get_or_publish(37).is_some());
        assert_eq!(far_published(&spine), (1, 1));
        assert_eq!(BUILT.load(Ordering::Relaxed), 4);
        assert!((36..40).all(|i| spine.get(i).is_some()), "same chunk");
        assert!(spine.get(35).is_none() && spine.get(40).is_none());
        assert!(spine.get(5).is_none(), "the first level stays cold");
    }

    #[test]
    fn iteration_stays_in_index_order_across_the_level_boundary() {
        let spine = TinyFar::<AtomicU64>::new();
        for index in [45, 17, 13, 6] {
            let _ = spine.get_or_publish(index);
        }
        let indices: Vec<usize> = spine.iter().map(|(i, _)| i).collect();
        let expected: Vec<usize> = [4..8, 12..16, 16..20, 44..48].into_iter().flatten().collect();
        assert_eq!(indices, expected);
    }

    #[test]
    fn racing_far_touches_publish_exactly_one_node_and_chunk() {
        let spine = TinyFar::<AtomicU64>::new();
        let barrier = Barrier::new(8);
        let cells: Vec<usize> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        std::ptr::from_ref(spine.get_or_publish(41).unwrap()) as usize
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(cells.iter().all(|&c| c == cells[0]), "one cell for everyone");
        assert_eq!(far_published(&spine), (1, 1));
    }

    #[test]
    fn registry_publishes_and_resolves_dense_ids() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        for i in 0..200 {
            reg.publish(i, i);
        }
        assert_eq!(reg.len(), 200);
        assert_eq!(reg.get(137), Some(&137));
        assert!(reg.get(200).is_none());
        assert!(reg.get(THREAD_CAPACITY).is_none());
        assert!(reg.iter().copied().eq(0..200));
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn registry_rejects_double_publish() {
        let reg = Registry::new();
        reg.publish(0, 0);
        reg.publish(0, 0);
    }

    #[test]
    #[should_panic(expected = "thread capacity (4096) exceeded")]
    fn registry_rejects_an_index_past_capacity() {
        Registry::new().publish(THREAD_CAPACITY, 0);
    }

    #[test]
    fn registry_readers_see_concurrent_publishes() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..500 {
                    reg.publish(i, i);
                }
            });
            s.spawn(|| loop {
                let n = reg.len();
                // Every index below the published length must resolve.
                for i in 0..n {
                    assert_eq!(reg.get(i), Some(&i));
                }
                if n == 500 {
                    break;
                }
                std::hint::spin_loop();
            });
        });
    }
}
