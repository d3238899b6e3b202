//! The Kard runtime library: the API a monitored program links against.
//!
//! The paper's implementation consists of an LLVM pass plus a runtime
//! library whose wrappers intercept heap allocation and synchronization
//! calls (§6). In this Rust reproduction the interception happens by
//! construction: programs use [`Session`], [`SimThread`], and [`KardMutex`]
//! instead of raw `malloc`/`pthread_mutex_*`, and every access goes through
//! the simulated MPK check (which real hardware would do for free).
//!
//! Two ways to drive a program:
//!
//! * **Direct**: spawn [`SimThread`]s (optionally on real OS threads — all
//!   types are `Send`/`Sync`-safe) and call `alloc`/`lock_at`/`read`/
//!   `write` as the program logic dictates.
//! * **Replay**: build a [`kard_trace::Trace`] and run it through
//!   [`KardExecutor`] for fully deterministic schedules. It is the uncapped
//!   [`Applier`]: each firehose session runs a capped one, which names a
//!   [`Rejection`] for an event the detector could not take.
//!
//! # Example
//!
//! ```
//! use kard_rt::Session;
//! use kard_sim::CodeSite;
//!
//! let session = Session::new();
//! let t1 = session.spawn_thread();
//! let t2 = session.spawn_thread();
//! let counter = t1.alloc(8);
//!
//! let lock_a = session.new_mutex();
//! let lock_b = session.new_mutex();
//!
//! // Thread 1 increments the counter under lock A...
//! {
//!     let _guard = t1.enter(&lock_a, CodeSite(0x100));
//!     t1.write(&counter, 0, CodeSite(0x101));
//! }
//! // ...thread 2 under lock B, concurrently in the schedule-sensitive
//! // sense captured by key holding. Here sections do not overlap, so no
//! // race is reported.
//! {
//!     let _guard = t2.enter(&lock_b, CodeSite(0x200));
//!     t2.write(&counter, 0, CodeSite(0x201));
//! }
//! assert!(session.kard().reports().is_empty());
//! ```

#![deny(missing_docs)]

pub mod applier;
pub mod mutex;
pub mod rwlock;
pub mod session;
pub mod shared;
pub mod thread;

pub use applier::{Applier, Caps, KardExecutor, Rejection};
pub use mutex::{KardMutex, SectionGuard};
pub use rwlock::{KardRwLock, ReadSectionGuard, WriteSectionGuard};
pub use session::{Session, SessionBuilder};
pub use shared::{Element, SharedArray};
pub use thread::SimThread;
