//! Consolidated unique-page memory allocation (Kard §5.3, Figure 2).
//!
//! MPK protects memory at page granularity, but Kard must protect individual
//! objects. Native allocators pack many objects into one page, so protecting
//! one object would spuriously protect its page neighbours. Kard therefore
//! replaces the program's allocator with one that gives **every object its
//! own virtual page(s)** while keeping physical memory bounded by
//! **consolidating small objects into shared physical frames**:
//!
//! * the allocator creates an in-memory file (`memfd_create`), modelled by
//!   [`kard_sim::PhysMemory`];
//! * each allocation gets a fresh virtual page mapped `MAP_SHARED` onto the
//!   file, and the returned base address is *shifted* inside the page so
//!   that different objects occupy disjoint byte ranges of the shared
//!   physical frame (Figure 2: 128 objects of 32 B in one frame);
//! * allocation sizes are rounded up to multiples of 32 B (§6);
//! * large objects (≥ one page) get dedicated frames;
//! * global variables get unique pages but are *not* consolidated (§6),
//!   which the paper notes over-estimates Kard's memory overhead.
//!
//! The allocator also maintains the object metadata (base address and size)
//! that Kard's fault handler uses to map a faulting address back to an
//! object — one lock-free record per object of every kind, in one table
//! indexed by object id, beside a page→object index ([`table`]) — and
//! exposes [`KardAlloc::protect`] to retag all pages of one or more
//! objects with one protection key in one `pkey_mprotect` call.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use kard_sim::{Machine, MachineConfig, PAGE_SIZE};
//! use kard_alloc::KardAlloc;
//!
//! let machine = Arc::new(Machine::new(MachineConfig::default()));
//! let thread = machine.register_thread();
//! let alloc = KardAlloc::new(Arc::clone(&machine));
//!
//! // Two small objects: unique virtual pages, one shared physical frame.
//! let a = alloc.alloc(thread, 32);
//! let b = alloc.alloc(thread, 32);
//! assert_ne!(a.base.page(), b.base.page());
//! assert_eq!(machine.mem_stats().file_bytes, PAGE_SIZE);
//!
//! // The fault handler can map any in-object address back to the object.
//! let hit = alloc.object_at(b.base.offset(8)).expect("metadata lookup");
//! assert_eq!(hit.id, b.id);
//! ```

#![deny(missing_docs)]

pub mod allocator;
pub mod magazine;
pub mod metadata;
pub mod remote_free;
pub mod table;

pub use allocator::{
    AllocStats, KardAlloc, ALLOC_GRANULE, INITIAL_BATCH, MAX_BATCH, RETIRE_BATCH,
};
pub use metadata::{ObjectId, ObjectInfo, ObjectKind};
pub use table::IdSpine;
