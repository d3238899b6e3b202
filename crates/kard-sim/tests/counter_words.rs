//! A thread's counters under real OS threads: each owner bumps its own
//! words with a plain load and store while a visitor charges both threads
//! through `Machine::rdpkru_of`, and no count is lost.

use kard_sim::{AccessKind, CodeSite, Machine, MachineConfig, ThreadId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Two OS threads each drive their own id through `charge`, `rdpkru`,
/// `wrpkru` and a dTLB-hitting `access`, a million rounds each, while a
/// third reads both registers with `rdpkru_of` until both are done. The
/// owners' bumps are a load and a store, so a visitor bumping the same
/// words would lose updates; the visitor's words are its own, so the
/// clock, each thread's cycles and the operation counts come out exact.
/// Needs two cores and a release build to race.
#[test]
fn owner_and_visitor_bumps_are_exact() {
    const ROUNDS: u64 = 1_000_000;
    const CHARGE: u64 = 3;

    let machine = Machine::new(MachineConfig::default());
    let owners: [ThreadId; 2] = [machine.register_thread(), machine.register_thread()];
    let page = machine.mmap_one_page().unwrap();
    let addr = page.base_addr();
    // Warm both dTLBs, so every access in the loops hits.
    for &t in &owners {
        machine.access(t, addr, AccessKind::Read, CodeSite(0)).unwrap();
    }
    let cost = *machine.cost_model();
    let (clock, counted) = (machine.now(), machine.counters());
    let cycles = owners.map(|t| machine.thread_cycles(t));

    let (start, finished) = (Barrier::new(3), AtomicUsize::new(0));
    let visits = std::thread::scope(|s| {
        for &t in &owners {
            let (machine, start, finished) = (&machine, &start, &finished);
            s.spawn(move || {
                start.wait();
                for _ in 0..ROUNDS {
                    machine.charge(t, CHARGE);
                    let pkru = machine.rdpkru(t);
                    machine.wrpkru(t, pkru);
                    machine.access(t, addr, AccessKind::Read, CodeSite(1)).unwrap();
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        start.wait();
        let mut visits = 0u64;
        while finished.load(Ordering::Acquire) < owners.len() {
            for &t in &owners {
                let _ = machine.rdpkru_of(t);
            }
            visits += 1;
        }
        visits
    });

    let round = CHARGE + cost.rdpkru + cost.wrpkru + cost.mem_access;
    let per_thread = ROUNDS * round + visits * cost.rdpkru;
    for (&t, before) in owners.iter().zip(cycles) {
        assert_eq!(machine.thread_cycles(t) - before, per_thread, "{t}'s cycles");
    }
    assert_eq!(machine.now() - clock, 2 * per_thread, "the clock");
    let now = machine.counters();
    assert_eq!(now.rdpkru - counted.rdpkru, 2 * (ROUNDS + visits), "RDPKRUs");
    assert_eq!(now.wrpkru - counted.wrpkru, 2 * ROUNDS, "WRPKRUs");
    assert_eq!(now.accesses - counted.accesses, 2 * ROUNDS, "accesses");
}
