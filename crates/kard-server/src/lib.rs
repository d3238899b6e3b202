//! `kard-server`: a long-running race-detection firehose over the Kard
//! detector.
//!
//! Many client sessions stream [`kard_trace`] event batches at the
//! server as length-prefixed JSON frames (TCP or Unix socket); the
//! server routes each session to a shard by `hash(session) % shards`,
//! applies its events on the shard's own single-threaded detector
//! ([`kard_rt::Session`] + [`kard_core::Kard`]), and streams race
//! reports and telemetry back as JSON-Lines.
//!
//! Design rules, in priority order:
//!
//! 1. **Never wedge the intake.** Per-session ingest budgets are
//!    enforced fail-open: a batch that does not fit is dropped whole and
//!    counted, and the accept/reader loops never wait on a shard.
//! 2. **Shards share nothing.** Each shard owns its detector, machine,
//!    and allocator; there is no cross-shard locking, and a session's
//!    reports depend only on its own traffic.
//! 3. **A client can be wrong, never fatal.** Malformed frames end that
//!    connection; invalid events (unknown tags, cap overflows,
//!    unbalanced locks) are rejected and counted, never panicking a
//!    shard.
//! 4. **Shutdown drains.** The `Shutdown` control request (or
//!    [`Server::shutdown`]) stops intake, applies everything queued, and
//!    delivers every session's pending reports before exit.
//!
//! ```
//! use kard_server::{FirehoseClient, Server, ServerConfig};
//! use kard_trace::{Event, ObjectTag, Op};
//! use kard_sim::CodeSite;
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let addr = server.tcp_addr().unwrap();
//! let mut client = FirehoseClient::connect(addr, "doc-session").unwrap();
//! client.send_batch(&[
//!     Event { thread: 0, op: Op::Alloc { tag: ObjectTag(1), size: 64 } },
//!     Event { thread: 0, op: Op::Write { tag: ObjectTag(1), offset: 0, ip: CodeSite(0x10) } },
//! ]).unwrap();
//! let summary = client.bye().unwrap();
//! assert_eq!(summary.applied, 2);
//! server.shutdown();
//! server.join();
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod proto;
mod server;
mod shard;
mod sock;

pub use client::FirehoseClient;
pub use proto::{
    Request, Response, SessionSummary, ShardStatsz, Statsz, WireRace, WireSide,
};
pub use server::{shard_for, Server, ServerConfig, StatsHandle};
