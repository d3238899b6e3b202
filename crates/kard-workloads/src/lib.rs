//! Workload models reproducing the paper's evaluation programs.
//!
//! The paper evaluates Kard on 15 PARSEC/SPLASH-2x benchmarks and four
//! real-world applications (Table 3). Running those exact binaries is
//! neither possible nor meaningful on the simulated substrate, so this
//! crate models each program by the three factors the paper identifies as
//! driving Kard's overhead (§7.2):
//!
//! 1. the number of protected sharable objects (→ `pkey_mprotect` calls
//!    and dTLB pressure from unique pages),
//! 2. the number of critical-section entries (→ map traversals + WRPKRU),
//! 3. the baseline work those costs amortize against.
//!
//! [`spec::WorkloadSpec`] captures each benchmark's execution statistics
//! *as measured by the paper* (Table 3's left columns are inputs, its
//! right columns are the outputs we try to reproduce); [`synth`] expands a
//! spec into per-thread programs; [`runner`] executes a workload under
//! Baseline / Alloc / Kard / TSan-model configurations and reports
//! overheads; [`apps`] models NGINX, memcached, pigz, and Aget including
//! their documented real races (Table 6); [`racegen`] generates the random
//! race corpus behind the §3.1 ILU-share analysis; [`storm`] generates
//! the connect/blast/disconnect session traffic that drives the
//! `kard-server` firehose benchmarks and overload tests; [`work_steal`]
//! adds work-stealing deque and async task-pool shapes (plus the
//! [`work_steal::TrafficShape`] registry) so scheduler-style traffic rides
//! the same storm-session harnesses.

#![deny(missing_docs)]

pub mod apps;
pub mod native;
pub mod racegen;
pub mod runner;
pub mod spec;
pub mod storm;
pub mod synth;
pub mod table3;
pub mod work_steal;

pub use runner::{ComparisonResult, VariantResult};
pub use spec::{Suite, WorkloadSpec};
pub use work_steal::TrafficShape;
