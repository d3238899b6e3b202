//! Session soak: short racy storm sessions back to back through one
//! in-process 2-shard server, printing resident memory and wall time per
//! session every 250 sessions — whether a session costs its own work, or
//! also what the server's earlier sessions left behind.
//!
//! ```text
//! cargo run --release -p kard-server --example session_soak [-- SESSIONS]
//! ```
//!
//! Each session is `fire_storm`'s: connect, `Hello`, four bursts of a
//! 2-thread racy storm session (1,040 events, one race), `Bye`. SESSIONS
//! defaults to 3,000; a shard registers two thread ids per session and
//! never reuses one, so past ≈ 4,000 sessions (`THREAD_CAPACITY` per
//! shard, two shards) sessions are refused. Linux only: the resident set
//! is read from `/proc/self/status`.

use kard_server::{shard_for, FirehoseClient, Server, ServerConfig};
use kard_workloads::storm::{self, StormConfig};
use std::time::Instant;

const SHARDS: usize = 2;
const WINDOW: usize = 250;
/// Distinct sessions cycled through, as `fire_storm` does.
const DISTINCT: usize = 64;

/// The process's resident set, in KiB.
fn rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .map_or(3_000, |n| n.parse().expect("SESSIONS is a count"));
    let sessions = storm::sessions(&StormConfig {
        sessions: DISTINCT,
        threads: 2,
        bursts: 4,
        entries_per_burst: 32,
        racy_sessions: DISTINCT,
        ..StormConfig::default()
    });
    // Consecutive sessions land on alternating shards.
    let names: Vec<String> = (0..DISTINCT)
        .map(|i| {
            (0u32..)
                .map(|salt| format!("soak-{i}-{salt}"))
                .find(|name| shard_for(name, SHARDS) == i % SHARDS)
                .expect("some salt lands on every shard")
        })
        .collect();
    let server = Server::start(ServerConfig {
        shards: SHARDS,
        idle_timeout: None,
        ..ServerConfig::default()
    })
    .expect("loopback listener binds");
    let addr = server.tcp_addr().expect("tcp is on by default");

    println!("{total} sessions, {SHARDS} shards; per window of {WINDOW}:");
    let mut windows = Vec::new();
    let (mut began, mut rss) = (Instant::now(), rss_kib());
    for n in 0..total {
        let session = &sessions[n % DISTINCT];
        let mut client =
            FirehoseClient::connect(addr, &names[n % DISTINCT]).expect("client connects");
        for burst in &session.bursts {
            client.send_batch(burst).expect("batch sends");
        }
        let summary = client.bye().expect("bye answers");
        assert_eq!(summary.races, 1, "session {n}: {summary:?}");
        if (n + 1) % WINDOW == 0 {
            let us = began.elapsed().as_secs_f64() * 1e6 / WINDOW as f64;
            let now_rss = rss_kib();
            let grew = (now_rss - rss) / WINDOW as f64;
            println!(
                "sessions {:>5}-{:<5} {us:>8.1} us/session   RSS {:>7.1} MiB ({grew:+.2} KiB/session)",
                n + 2 - WINDOW,
                n + 1,
                now_rss / 1024.0,
            );
            windows.push((us, now_rss));
            (began, rss) = (Instant::now(), now_rss);
        }
    }
    if let (Some(second), Some(last)) = (windows.get(1), windows.last()) {
        let spanned = (windows.len() - 2) * WINDOW;
        println!(
            "last window against sessions {}-{}: x{:.2} us/session; RSS {:+.2} KiB/session since",
            WINDOW + 1,
            2 * WINDOW,
            last.0 / second.0,
            (last.1 - second.1) / spanned.max(1) as f64,
        );
    }
    for shard in server.statsz().shards {
        println!(
            "shard {}: {} threads live, {} registered",
            shard.shard, shard.threads_live, shard.threads_registered
        );
    }
    server.shutdown();
    server.join();
}
