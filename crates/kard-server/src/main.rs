//! The `kard-server` binary: a race-detection firehose daemon.
//!
//! ```text
//! kard-server [--tcp ADDR] [--unix PATH] [--shards N] [--queue-bound N]
//!             [--idle-timeout-ms N] [--throttle-us N] [--telemetry]
//!             [--stats-every SECS]
//! ```
//!
//! The process runs until a client sends the `Shutdown` control request,
//! then drains every shard, flushes every session's pending reports, and
//! exits. (The container has no signal-handling dependency, so SIGTERM
//! handling is delegated to the protocol-level shutdown command; a
//! supervisor should send `{"Shutdown":null}`-framed shutdown before
//! killing the process.)

#![deny(missing_docs)]

use kard_server::{Server, ServerConfig};
use std::time::Duration;

const USAGE: &str = "kard-server: race-detection firehose daemon

USAGE:
    kard-server [OPTIONS]

OPTIONS:
    --tcp ADDR            TCP listen address (default 127.0.0.1:7433; 'off' disables)
    --unix PATH           also listen on a Unix socket at PATH
    --shards N            detector shards / OS threads (default 4)
    --queue-bound N       per-session ingest budget in events (default 16384)
    --idle-timeout-ms N   evict sessions idle for N ms (0 disables; default 60000)
    --throttle-us N       artificial per-event apply cost, microseconds (default 0)
    --telemetry           fill the /statsz cycle histograms; also records a
                          per-thread event ring that nothing reads or frees
    --stats-every SECS    print a /statsz JSON line every SECS seconds
    --help                print this help
";

fn fail(message: &str) -> ! {
    eprintln!("kard-server: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        fail(&format!("{flag} needs a value"));
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => fail(&format!("invalid value for {flag}: {value}")),
    }
}

fn main() {
    let mut config = ServerConfig {
        tcp: Some("127.0.0.1:7433".to_string()),
        ..ServerConfig::default()
    };
    let mut stats_every: u64 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => {
                let addr: String = parse_number("--tcp", args.next());
                config.tcp = if addr == "off" { None } else { Some(addr) };
            }
            "--unix" => config.unix = Some(parse_number::<String>("--unix", args.next()).into()),
            "--shards" => config.shards = parse_number("--shards", args.next()),
            "--queue-bound" => config.queue_bound = parse_number("--queue-bound", args.next()),
            "--idle-timeout-ms" => {
                let ms: u64 = parse_number("--idle-timeout-ms", args.next());
                config.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--throttle-us" => {
                let us: u64 = parse_number("--throttle-us", args.next());
                config.apply_throttle = Duration::from_micros(us);
            }
            "--telemetry" => config.telemetry = true,
            "--stats-every" => stats_every = parse_number("--stats-every", args.next()),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument: {other}")),
        }
    }
    if config.tcp.is_none() && config.unix.is_none() {
        fail("nothing to listen on: --tcp off without --unix");
    }

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => fail(&format!("failed to start: {e}")),
    };
    if let Some(addr) = server.tcp_addr() {
        println!("kard-server listening on tcp://{addr}");
    }
    if let Some(path) = server.unix_path() {
        println!("kard-server listening on unix:{}", path.display());
    }

    if stats_every > 0 {
        // Detached printer: it holds only a stats handle and stops once
        // the drain begins, so it never delays exit.
        let stats = server.stats_handle();
        let every = Duration::from_secs(stats_every);
        std::thread::spawn(move || {
            while !stats.is_shutting_down() {
                std::thread::sleep(every);
                if let Ok(line) = serde_json::to_string(&stats.statsz()) {
                    println!("{line}");
                }
            }
        });
    }

    println!("send the Shutdown control request to drain and exit");
    server.join();
    println!("kard-server drained cleanly");
}
