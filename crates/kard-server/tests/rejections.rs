//! `/statsz` names why events were rejected: each shard block splits its
//! `rejected` count by reason, and the server totals merge the shards'.

use kard_core::LockId;
use kard_rt::Rejection;
use kard_server::{shard_for, FirehoseClient, Server, ServerConfig, Statsz};
use kard_sim::CodeSite;
use kard_trace::{Event, ObjectTag, Op};
use std::collections::BTreeMap;

fn at(thread: usize, op: Op) -> Event {
    Event { thread, op }
}

fn by_reason(counts: &[(Rejection, u64)]) -> BTreeMap<String, u64> {
    counts
        .iter()
        .map(|&(why, n)| (why.name().to_string(), n))
        .collect()
}

/// A client name routed to `shard` of `shards`.
fn name_on(shard: usize, shards: usize) -> String {
    (0..)
        .map(|i| format!("hostile-{i}"))
        .find(|name| shard_for(name, shards) == shard)
        .expect("some name routes to every shard")
}

fn sums_hold(stats: &Statsz) {
    for shard in &stats.shards {
        let sum: u64 = shard.rejected_by_reason.values().sum();
        assert_eq!(sum, shard.rejected, "shard {}", shard.shard);
    }
    assert_eq!(
        stats.rejected_by_reason.values().sum::<u64>(),
        stats.rejected
    );
}

#[test]
fn rejections_are_counted_by_reason_and_merged_across_shards() {
    let server = Server::start(ServerConfig {
        shards: 2,
        max_session_threads: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().unwrap();
    let mut first = FirehoseClient::connect(addr, &name_on(0, 2)).unwrap();
    let mut second = FirehoseClient::connect(addr, &name_on(1, 2)).unwrap();

    // The invalid inputs `firehose.rs` sends, then a second thread past
    // the one-thread cap, once with a compute charge and once with a lock
    // the session has not named yet.
    let (global, outer, inner) = (ObjectTag(7), LockId(1), LockId(2));
    first
        .send_batch(&[
            at(
                0,
                Op::Write {
                    tag: ObjectTag(9),
                    offset: 0,
                    ip: CodeSite(1),
                },
            ),
            at(0, Op::Unlock { lock: LockId(5) }),
            at(
                0,
                Op::Alloc {
                    tag: ObjectTag(1),
                    size: u64::MAX / 2,
                },
            ),
            at(
                0,
                Op::Alloc {
                    tag: ObjectTag(2),
                    size: 0,
                },
            ),
            at(0, Op::Free { tag: ObjectTag(3) }),
            at(
                0,
                Op::Global {
                    tag: global,
                    size: 8,
                },
            ),
            at(0, Op::Free { tag: global }),
            at(
                0,
                Op::Lock {
                    lock: outer,
                    site: CodeSite(0xa),
                },
            ),
            at(
                0,
                Op::Lock {
                    lock: inner,
                    site: CodeSite(0xb),
                },
            ),
            at(0, Op::Unlock { lock: outer }),
            at(1, Op::Compute { cycles: 1 }),
            at(
                1,
                Op::Lock {
                    lock: LockId(3),
                    site: CodeSite(0xc),
                },
            ),
        ])
        .unwrap();
    let summary = first.flush().unwrap();
    assert_eq!((summary.applied, summary.rejected), (3, 9));

    second
        .send_batch(&[
            at(
                0,
                Op::Write {
                    tag: ObjectTag(4),
                    offset: 0,
                    ip: CodeSite(2),
                },
            ),
            at(
                0,
                Op::Alloc {
                    tag: ObjectTag(4),
                    size: 64,
                },
            ),
            at(
                0,
                Op::Read {
                    tag: ObjectTag(4),
                    offset: 1 << 40,
                    ip: CodeSite(3),
                },
            ),
            at(
                0,
                Op::Lock {
                    lock: outer,
                    site: CodeSite(0xa),
                },
            ),
            at(
                0,
                Op::Lock {
                    lock: outer,
                    site: CodeSite(0xa),
                },
            ),
        ])
        .unwrap();
    let summary = second.flush().unwrap();
    assert_eq!((summary.applied, summary.rejected), (2, 3));

    let stats = second.stats().unwrap();
    sums_hold(&stats);
    assert_eq!(
        stats.shards[0].rejected_by_reason,
        by_reason(&[
            (Rejection::ThreadCap, 2),
            (Rejection::ZeroSize, 1),
            (Rejection::MemoryCap, 1),
            (Rejection::FreeUnknown, 1),
            (Rejection::FreeGlobal, 1),
            (Rejection::UnlockOutOfOrder, 1),
            (Rejection::UnlockNotHeld, 1),
            (Rejection::AccessUnknown, 1),
        ])
    );
    assert_eq!(
        stats.shards[1].rejected_by_reason,
        by_reason(&[
            (Rejection::RecursiveLock, 1),
            (Rejection::AccessUnknown, 1),
            (Rejection::OutOfBounds, 1),
        ])
    );
    assert_eq!(
        stats.rejected_by_reason,
        by_reason(&[
            (Rejection::ThreadCap, 2),
            (Rejection::ZeroSize, 1),
            (Rejection::MemoryCap, 1),
            (Rejection::FreeUnknown, 1),
            (Rejection::FreeGlobal, 1),
            (Rejection::RecursiveLock, 1),
            (Rejection::UnlockOutOfOrder, 1),
            (Rejection::UnlockNotHeld, 1),
            (Rejection::AccessUnknown, 2),
            (Rejection::OutOfBounds, 1),
        ])
    );

    first.bye().unwrap();
    second.bye().unwrap();
    server.shutdown();
    server.join();
}
