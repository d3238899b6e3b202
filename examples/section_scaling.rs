//! Section-path scaling probe: what a private critical-section round costs
//! each OS thread when others run beside it, and when idle threads sit
//! registered with the detector.
//!
//! Each of N OS threads registers its own `ThreadId`, allocates four 64-byte
//! objects and loops `lock_enter`, `try_write`, `try_read`, `lock_exit` under
//! its own lock and call site: the threads share nothing but the detector.
//! K more threads are registered and never run. A run is a 0.3 s warm-up,
//! then one 2 s window that counts events; the configurations alternate
//! within each of 4 rounds, and the last table gives each configuration's
//! median and range in ns per event per thread. On a perfectly scaling
//! detector that figure does not move with N or K.
//!
//! Run with: `cargo run --release --example section_scaling -- 1 2 1:1000 1:4000`
//! (each argument is a configuration `THREADS[:IDLE]`; these four are the
//! default).

use kard::{CodeSite, Kard, LockId, ObjectInfo, Session, ThreadId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const WARM_UP: Duration = Duration::from_millis(300);
const WINDOW: Duration = Duration::from_secs(2);
const ROUNDS: usize = 4;
const OBJECTS: usize = 4;
/// `lock_enter`, a write, a read, `lock_exit`.
const EVENTS_PER_ENTRY: u64 = 4;

#[derive(Clone, Copy)]
struct Config {
    threads: usize,
    idle: usize,
}

impl Config {
    fn parse(arg: &str) -> Config {
        let usage = || -> ! {
            eprintln!("usage: section_scaling [THREADS[:IDLE]]... (got {arg:?})");
            std::process::exit(2)
        };
        let (threads, idle) = arg.split_once(':').unwrap_or((arg, "0"));
        match (threads.parse(), idle.parse()) {
            (Ok(threads), Ok(idle)) if threads > 0 => Config { threads, idle },
            _ => usage(),
        }
    }

    fn label(self) -> String {
        format!("{} thread(s), {} idle", self.threads, self.idle)
    }
}

/// One worker's private section: its thread, lock, call site and objects.
struct Lane {
    thread: ThreadId,
    lock: LockId,
    site: CodeSite,
    objects: Vec<ObjectInfo>,
}

/// Enter, write one object, read the next, exit.
fn entry(kard: &Kard, lane: &Lane, n: usize) {
    let written = lane.objects[n % OBJECTS].base.offset((n % 8) as u64 * 8);
    let read = lane.objects[(n + 1) % OBJECTS].base;
    kard.lock_enter(lane.thread, lane.lock, lane.site);
    let w = kard.try_write(lane.thread, written, lane.site);
    let r = kard.try_read(lane.thread, read, lane.site);
    kard.lock_exit(lane.thread, lane.lock);
    assert!(w.is_ok() && r.is_ok(), "every access is to a live object");
}

/// One run of `config` on a fresh session: ns per event per thread over the
/// window.
fn run(config: Config) -> f64 {
    let session = Session::new();
    let kard = session.kard();
    let lanes: Vec<Lane> = (0..config.threads)
        .map(|i| {
            let thread = kard.register_thread();
            Lane {
                thread,
                lock: LockId(1 + i as u64),
                site: CodeSite(0x100 + i as u64),
                objects: (0..OBJECTS).map(|_| kard.on_alloc(thread, 64)).collect(),
            }
        })
        .collect();
    for _ in 0..config.idle {
        kard.register_thread();
    }

    let counting = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let events = AtomicU64::new(0);
    let start = Barrier::new(config.threads + 1);
    let elapsed = std::thread::scope(|scope| {
        for lane in &lanes {
            let (counting, stop, events, start) = (&counting, &stop, &events, &start);
            scope.spawn(move || {
                start.wait();
                let mut n = 0;
                while !counting.load(Ordering::Relaxed) {
                    entry(kard, lane, n);
                    n += 1;
                }
                let mut counted = 0;
                while !stop.load(Ordering::Relaxed) {
                    entry(kard, lane, n);
                    n += 1;
                    counted += EVENTS_PER_ENTRY;
                }
                events.fetch_add(counted, Ordering::Relaxed);
            });
        }
        start.wait();
        std::thread::sleep(WARM_UP);
        counting.store(true, Ordering::Relaxed);
        let window = Instant::now();
        std::thread::sleep(WINDOW);
        stop.store(true, Ordering::Relaxed);
        // A worker stops within one entry of `stop`: what it counts after
        // this read is noise beside a 2 s window.
        window.elapsed()
    });
    assert!(kard.reports().is_empty(), "private sections cannot race");
    let events = events.load(Ordering::Relaxed);
    elapsed.as_secs_f64() * 1e9 * config.threads as f64 / events as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let configs: Vec<Config> = if args.is_empty() {
        ["1", "2", "1:1000", "1:4000"].map(Config::parse).to_vec()
    } else {
        args.iter().map(|arg| Config::parse(arg)).collect()
    };
    println!(
        "private section rounds: {:.1} s warm-up, {:.1} s window, {ROUNDS} rounds, ns per event per thread",
        WARM_UP.as_secs_f64(),
        WINDOW.as_secs_f64()
    );
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for round in 1..=ROUNDS {
        for (config, got) in configs.iter().zip(&mut samples) {
            let ns = run(*config);
            println!("round {round}  {:<26} {ns:>9.1}", config.label());
            got.push(ns);
        }
    }
    println!("\n{:<26} {:>9} {:>9} {:>9}", "configuration", "median", "min", "max");
    for (config, got) in configs.iter().zip(&mut samples) {
        got.sort_by(f64::total_cmp);
        let median = (got[(got.len() - 1) / 2] + got[got.len() / 2]) / 2.0;
        println!(
            "{:<26} {median:>9.1} {:>9.1} {:>9.1}",
            config.label(),
            got[0],
            got[got.len() - 1]
        );
    }
}
