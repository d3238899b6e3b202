//! Simulated Intel Memory Protection Keys (MPK) substrate.
//!
//! The Kard paper (ASPLOS 2021) detects data races by protecting shared
//! objects with MPK protection keys and trapping the resulting General
//! Protection Faults (#GP). This crate provides a software model of the
//! architectural surface Kard consumes:
//!
//! * a per-thread [`Pkru`] register with two permission bits per key
//!   (access-disable and write-disable), updated with [`Machine::wrpkru`]
//!   (≈ 20 cycles, no TLB flush) and read with [`Machine::rdpkru`]
//!   (≈ 1 cycle);
//! * a page table ([`AddressSpace`]) tagging each 4 KiB virtual page with a
//!   [`ProtectionKey`], updated with [`Machine::pkey_mprotect`]: one atomic
//!   PTE word per page on the shared [`Spine`], so a walk is a single load
//!   and only writers serialise ([`page_table`] has the word layout and the
//!   fence pairing that keeps cached keys fresh). Each simulated system
//!   call has one body, over a batch of pages or ranges, and one charge
//!   rule in [`cost`];
//! * simulated physical memory ([`PhysMemory`]) behaving like a
//!   `memfd_create` in-memory file: virtual pages may share physical frames
//!   (`MAP_SHARED`), the file is grown/shrunk with `ftruncate`, and resident
//!   set size is tracked for the paper's memory-overhead experiments;
//! * a per-thread set-associative data TLB ([`tlb`]), written only by its
//!   own thread, so unique-page allocation pressure (§7.2 of the paper) is
//!   measurable;
//! * a virtual time-stamp counter (`RDTSCP` analog) and a cycle-cost module
//!   ([`cost`]) whose constants come from the paper and from the libmpk /
//!   ERIM measurements the paper cites.
//!
//! Every memory access is checked against the accessing thread's PKRU; a
//! violation produces a [`GpFault`] describing the faulting address, access
//! kind, protection key, and code site — exactly the information Kard's
//! fault handler receives from the kernel on real hardware.
//!
//! # Why a simulator
//!
//! The reproduction machine exposes no `pku` CPUID flag, so native MPK is
//! unavailable. The detector in `kard-core` only depends on the architectural
//! contract modelled here, which keeps the reproduction faithful while making
//! every experiment deterministic.
//!
//! # Example
//!
//! ```
//! use kard_sim::{Machine, MachineConfig, AccessKind, Permission, CodeSite};
//!
//! let machine = Machine::new(MachineConfig::default());
//! let t0 = machine.register_thread();
//! let layout = machine.key_layout();
//!
//! // Map one page and protect it with the "not accessed" key.
//! let page = machine.mmap_one_page().expect("address space exhausted");
//! machine.pkey_mprotect(t0, &[(page, 1)], layout.not_accessed).unwrap();
//!
//! // The thread starts with access to every key, so the read succeeds.
//! let addr = page.base_addr();
//! assert!(machine.access(t0, addr, AccessKind::Read, CodeSite(1)).is_ok());
//!
//! // Revoke the key and the same read raises a simulated #GP.
//! let mut pkru = machine.rdpkru(t0);
//! pkru.set_permission(layout.not_accessed, Permission::NoAccess);
//! machine.wrpkru(t0, pkru);
//! let fault = machine
//!     .access(t0, addr, AccessKind::Read, CodeSite(2))
//!     .unwrap_err();
//! assert_eq!(fault.pkey, layout.not_accessed);
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod counter;
pub mod cpu;
pub mod fault;
pub mod keys;
pub mod mem;
pub mod page_table;
pub mod phys;
pub mod pkru;
pub mod spine;
pub mod tlb;

pub use cost::{CostModel, CycleCount};
pub use counter::bump_owned;
pub use cpu::{Machine, MachineConfig, MachineCounters, ProtectionMechanism, ThreadId};
pub use fault::{AccessKind, CodeSite, GpFault};
pub use keys::{KeyLayout, ProtectionKey};
pub use mem::{PhysFrame, VirtAddr, VirtPage, PAGE_SIZE};
pub use page_table::{
    page_slot, AddressSpace, MapError, Mapping, PageSpine, ProtectError, PteWriter,
    MMAP_BASE_PAGE, USER_PAGE_END,
};
pub use phys::{MemStats, PhysMemory};
pub use pkru::{Permission, Pkru};
pub use spine::{Registry, Spine, ThreadSpine, THREAD_CAPACITY};
pub use tlb::{TlbConfig, TlbStats};
