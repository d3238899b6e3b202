//! The Kard data race detector (paper §4–§5).
//!
//! This crate implements Kard's contribution: **key-enforced race
//! detection** for inconsistent-lock-usage (ILU) data races, realized with
//! per-thread memory protection.
//!
//! Two layers are provided:
//!
//! * [`algorithm`] — a *pure* implementation of the paper's Algorithm 1,
//!   with unlimited abstract keys and no hardware. It serves as the
//!   executable specification; property tests check the full detector
//!   against it.
//! * [`detector`] — the full [`Kard`] runtime that realizes the algorithm
//!   with (simulated) Intel MPK: protection domains (§5.2), sharable-object
//!   tracking over the consolidated unique-page allocator (§5.3), domain
//!   enforcement with proactive/reactive key acquisition and effective key
//!   assignment (§5.4), and race detection with fault filtration —
//!   timestamp checks, protection interleaving, and automated pruning
//!   (§5.5).
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use kard_core::{Kard, KardConfig, LockId};
//! use kard_sim::{CodeSite, Machine, MachineConfig};
//! use kard_alloc::KardAlloc;
//!
//! let machine = Arc::new(Machine::new(MachineConfig::default()));
//! let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
//! let kard = Kard::new(Arc::clone(&machine), Arc::clone(&alloc), KardConfig::default());
//!
//! let t1 = kard.register_thread();
//! let t2 = kard.register_thread();
//! let obj = kard.on_alloc(t1, 32);
//!
//! // t1 writes obj under lock A; t2 writes it under lock B: an ILU race.
//! kard.lock_enter(t1, LockId(1), CodeSite(0x100));
//! kard.write(t1, obj.base, CodeSite(0x101));
//!
//! kard.lock_enter(t2, LockId(2), CodeSite(0x200));
//! kard.write(t2, obj.base, CodeSite(0x201));
//!
//! kard.lock_exit(t2, LockId(2));
//! kard.lock_exit(t1, LockId(1));
//!
//! assert_eq!(kard.reports().len(), 1);
//! ```

#![deny(missing_docs)]

pub mod algorithm;
pub mod assignment;
pub mod budget;
pub mod config;
pub mod detector;
pub mod domains;
pub mod error;
pub mod faultshard;
pub mod interleave;
pub mod keymap;
pub mod registry;
pub mod report;
pub mod sections;
pub mod sidemeta;
pub mod stats;
pub mod types;
pub mod vkey;

pub use budget::{BudgetController, BudgetDecision, ProductionStats};
pub use config::{ExhaustionPolicy, KardConfig, KeyMode, ProductionConfig};
pub use detector::Kard;
pub use domains::Domain;
pub use error::KardError;
pub use faultshard::{FaultShardStats, FAULT_SHARDS};
pub use report::{render_report, RaceRecord, RaceSide};
pub use sidemeta::SideMetadata;
pub use stats::{DetectorStats, KardSnapshot};
pub use types::{LockId, Perm, SectionId, SectionMode};
pub use vkey::{KeyCachePolicy, VKeyStats, VirtualKey};
