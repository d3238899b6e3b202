//! # Kard — lightweight data race detection with per-thread memory protection
//!
//! A from-scratch Rust reproduction of *"Kard: Lightweight Data Race
//! Detection with Per-Thread Memory Protection"* (Ahmad, Lee, Fonseca, Lee —
//! ASPLOS 2021), including every substrate the paper depends on:
//!
//! * [`sim`] — a software model of Intel MPK (per-thread PKRU, 16
//!   protection keys, `pkey_mprotect`, simulated #GP faults), virtual
//!   memory with Linux-style RSS accounting, a set-associative dTLB, and a
//!   documented cycle-cost model;
//! * [`alloc`] — the consolidated unique-page allocator (§5.3, Figure 2):
//!   one virtual page per object, shared physical frames, 32 B granules;
//! * [`core`] — the detector: the pure Algorithm 1 plus the full MPK
//!   realization (protection domains, section-object and key-section maps,
//!   effective key assignment, proactive/reactive acquisition, the fault
//!   handler with timestamp filtering, protection interleaving, and
//!   automated pruning);
//! * [`rt`] — the runtime API a monitored program uses ([`Session`],
//!   [`SimThread`], [`KardMutex`]) and the trace-executor adapter;
//! * [`telemetry`] — lock-free event tracing of the fault path:
//!   per-thread bounded rings, log₂ latency histograms, and JSON-Lines /
//!   Chrome `trace_event` exporters (see the [`telemetry`] crate docs);
//! * [`trace`] — deterministic program traces and interleaving schedules;
//! * [`baselines`] — FastTrack (the TSan model) and Eraser lockset;
//! * [`server`] — the `kard-server` firehose daemon: sharded concurrent
//!   sessions streaming trace events over TCP/Unix sockets, with race
//!   reports and `/statsz` telemetry streamed back as JSON-Lines;
//! * [`workloads`] — models of the paper's 19 evaluation programs
//!   (Table 3) and the four real applications with their documented races
//!   (Table 6).
//!
//! The `kard-bench` crate regenerates every table and figure of the
//! paper's evaluation; see EXPERIMENTS.md for paper-vs-measured results.
//!
//! ## Quick start
//!
//! ```
//! use kard::{Session, CodeSite};
//!
//! let session = Session::new();
//! let t1 = session.spawn_thread();
//! let t2 = session.spawn_thread();
//! let lock_a = session.new_mutex();
//! let lock_b = session.new_mutex();
//! let counter = t1.alloc(8);
//!
//! // Two threads update one counter under *different* locks, with the
//! // critical sections overlapping: inconsistent lock usage.
//! let guard_a = t1.enter(&lock_a, CodeSite(0x100));
//! t1.write(&counter, 0, CodeSite(0x101));
//! let guard_b = t2.enter(&lock_b, CodeSite(0x200));
//! t2.write(&counter, 0, CodeSite(0x201));
//! drop(guard_b);
//! drop(guard_a);
//!
//! let reports = session.kard().reports();
//! assert_eq!(reports.len(), 1);
//! println!("{}", reports[0]);
//! ```

#![warn(missing_docs)]

pub use kard_alloc as alloc;
pub use kard_baselines as baselines;
pub use kard_core as core;
pub use kard_rt as rt;
pub use kard_server as server;
pub use kard_sim as sim;
pub use kard_telemetry as telemetry;
pub use kard_trace as trace;
pub use kard_workloads as workloads;

pub use kard_alloc::{ObjectId, ObjectInfo};
pub use kard_core::{
    FaultShardStats, Kard, KardConfig, KardError, KardSnapshot, LockId, RaceRecord, SectionId,
};
pub use kard_rt::{KardExecutor, KardMutex, Session, SessionBuilder, SimThread};
pub use kard_sim::{CodeSite, Machine, MachineConfig, ProtectionKey, ThreadId};

/// The names most programs need, importable in one line:
/// `use kard::prelude::*;`.
///
/// Covers session assembly ([`Session`], [`SessionBuilder`],
/// [`KardConfig`], [`MachineConfig`]), the thread-side API
/// ([`SimThread`], [`KardMutex`], [`CodeSite`]), and the result surface
/// ([`KardSnapshot`], [`KardError`], [`RaceRecord`]).
pub mod prelude {
    pub use kard_core::{KardConfig, KardError, KardSnapshot, RaceRecord};
    pub use kard_rt::{KardMutex, Session, SessionBuilder, SimThread};
    pub use kard_sim::{CodeSite, MachineConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_compile_together() {
        let session = crate::Session::new();
        let t = session.spawn_thread();
        let o = t.alloc(32);
        assert!(session.alloc().object(o.id).is_some());
    }
}
