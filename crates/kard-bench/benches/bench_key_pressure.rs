//! Detection rate and overhead under protection-key pressure: direct §5.4
//! key assignment versus the virtualized eviction cache (`kard_core::vkey`)
//! under its two replacement policies (LRU, hotness).
//!
//! The workload has three phases:
//!
//! 1. **Group build-up.** `G` threads each allocate two objects (`a_g`,
//!    `b_g`), enter a private critical section, and write both — `G`
//!    simultaneously live, *held* two-object groups. The second write joins
//!    the first write's group via a key the thread already holds, so every
//!    virtualized policy records `G` cache hits here (the `hits > 0` CI
//!    gate).
//! 2. **Planted races.** Every thread writes a pseudo-randomly chosen other
//!    thread's `a` object from inside its own section: `a_p` is written
//!    under two different locks — exactly one plantable ILU race per group.
//! 3. **Hot revisit under scan pressure.** With every section still open,
//!    a small fixed set of *hot* threads re-writes its own `b` object every
//!    round while a rotating window of *cold* threads does the same once
//!    per rotation. A resident group's re-write is free; an evicted group's
//!    re-write faults and revives, evicting a victim. LRU sees the
//!    recently-revived cold scanners as the working set and throws the hot
//!    groups out; the hotness policy keeps the hot groups resident on their
//!    fault-fed side-metadata counters ([`kard_core::sidemeta`]) and takes
//!    strictly fewer (synced) evictions.
//!
//! Below the 13-key ceiling every mode detects every race. Above it the
//! direct detector must fall back to rule-3 key *sharing* (recycling is
//! impossible — every key is held), and a cross-write whose faulting thread
//! already holds the victim object's aliased key never faults: the race is
//! silently missed (§7.3). The virtualized detector never shares — it
//! evicts, demotes, and revives groups, and the revival logical-holder
//! check reports the conflict the alias would have hidden; the bench
//! asserts a 100% detection rate for every virtualized policy.
//!
//! Run with `cargo bench -p kard-bench --bench bench_key_pressure`; emits
//! `BENCH_key_pressure.json` at the repository root. Set
//! `KARD_BENCH_SMOKE=1` for the CI smoke run (drops the 256-group scale).

use kard_alloc::KardAlloc;
use kard_core::{ExhaustionPolicy, Kard, KardConfig, KeyCachePolicy, LockId, VKeyStats};
use kard_sim::{CodeSite, Machine, MachineConfig};
use std::sync::Arc;

/// Concurrent shared-object group counts to sweep.
const SCALES: [usize; 4] = [8, 16, 64, 256];

/// Threads whose `b` object is re-written every phase-3 round.
const HOT_THREADS: usize = 8;

/// Cold threads swept per phase-3 round (the scan pressure).
const COLD_PER_ROUND: usize = 8;

/// Phase-3 rounds.
const ROUNDS: usize = 24;

fn scales() -> &'static [usize] {
    if std::env::var_os("KARD_BENCH_SMOKE").is_some() {
        &SCALES[..3] // 8, 16, 64: keep the over-ceiling scale, drop 256.
    } else {
        &SCALES
    }
}

/// The cross-write partner of group `g`: fixed pseudo-random stride, so the
/// direct detector's cyclic shared-key assignment aliases some — but not
/// all — (writer, victim) pairs. `7g + 3` is coprime-ish mixing; for the
/// even `G` values used here it never maps a group onto itself.
fn partner(g: usize, groups: usize) -> usize {
    (g * 7 + 3) % groups
}

struct Sample {
    groups: usize,
    mode: &'static str,
    key_mode: String,
    policy: Option<&'static str>,
    races_planted: u64,
    races_reported: u64,
    total_cycles: u64,
    faults: u64,
    wrpkru: u64,
    pkey_mprotect: u64,
    vkeys: Option<VKeyStats>,
}

fn run(groups: usize, mode: &'static str, policy: Option<&'static str>, config: KardConfig) -> Sample {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
    let kard = Arc::new(Kard::new(Arc::clone(&machine), alloc, config));

    let tids: Vec<_> = (0..groups).map(|_| kard.register_thread()).collect();
    let a: Vec<_> = tids.iter().map(|&t| kard.on_alloc(t, 64)).collect();
    let b: Vec<_> = tids.iter().map(|&t| kard.on_alloc(t, 64)).collect();

    // Phase 1: every thread enters its private section and writes both its
    // objects — `groups` live two-object groups, every pool key (or cache
    // slot) held, one cache hit per group from the `b` join.
    for (g, &t) in tids.iter().enumerate() {
        kard.lock_enter(t, LockId(g as u64 + 1), CodeSite(0x100 + g as u64));
    }
    for (g, &t) in tids.iter().enumerate() {
        kard.write(t, a[g].base, CodeSite(0x1000 + g as u64));
        kard.write(t, b[g].base, CodeSite(0x1800 + g as u64));
    }

    // Phase 2: the planted races — each thread writes its partner's `a`
    // object from inside its own (different) critical section.
    for (g, &t) in tids.iter().enumerate() {
        let p = partner(g, groups);
        kard.write(t, a[p].base, CodeSite(0x2000 + g as u64));
    }

    // Phase 3: hot revisit under scan pressure (sections stay open, so a
    // victim group's key is always still held — every eviction is synced).
    // Hot threads re-touch their own `b` every round; a rotating window of
    // cold threads re-touches theirs once per pass.
    let hot = HOT_THREADS.min(groups / 2);
    let cold = groups - hot;
    for round in 0..ROUNDS {
        for h in 0..hot {
            kard.write(tids[h], b[h].base, CodeSite(0x3000 + h as u64));
        }
        if cold > 0 {
            for j in 0..COLD_PER_ROUND.min(cold) {
                let c = hot + (round * COLD_PER_ROUND + j) % cold;
                kard.write(tids[c], b[c].base, CodeSite(0x4000 + c as u64));
            }
        }
    }

    for (g, &t) in tids.iter().enumerate() {
        kard.lock_exit(t, LockId(g as u64 + 1));
    }

    let stats = kard.stats();
    let counters = machine.counters();
    Sample {
        groups,
        mode,
        key_mode: kard.key_mode(),
        policy,
        races_planted: groups as u64,
        races_reported: stats.races_reported,
        total_cycles: tids.iter().map(|&t| machine.thread_cycles(t)).sum(),
        faults: stats.identification_faults
            + stats.migration_faults
            + stats.race_check_faults
            + stats.interleave_faults,
        wrpkru: counters.wrpkru,
        pkey_mprotect: counters.pkey_mprotect,
        vkeys: config.virtual_keys.then(|| kard.vkey_stats()),
    }
}

fn configs() -> Vec<(&'static str, Option<&'static str>, KardConfig)> {
    let direct = KardConfig::paper();
    let mut direct_share = KardConfig::paper();
    direct_share.exhaustion = ExhaustionPolicy::ShareOnly;
    let virt = |policy: KeyCachePolicy| {
        let mut c = KardConfig::paper();
        c.virtual_keys = true;
        c.key_cache_policy = policy;
        c
    };
    vec![
        ("direct", None, direct),
        ("direct_share", None, direct_share),
        ("virtualized", Some("lru"), virt(KeyCachePolicy::Lru)),
        ("virtualized_hotness", Some("hotness"), virt(KeyCachePolicy::Hotness)),
    ]
}

fn main() {
    let mut samples = Vec::new();
    for &groups in scales() {
        let mut lru_synced = None;
        for (mode, policy, config) in configs() {
            let s = run(groups, mode, policy, config);
            println!(
                "{:>3} groups, {:<20} {:>3}/{:<3} races, {:>9} cycles, {:>4} faults{}",
                s.groups,
                s.mode,
                s.races_reported,
                s.races_planted,
                s.total_cycles,
                s.faults,
                s.vkeys.map_or(String::new(), |v| format!(
                    ", {} hits, {} evictions ({} synced), {} revivals",
                    v.hits, v.evictions, v.synced_evictions, v.revivals
                )),
            );
            // CI gates, enforced in-process so a regression fails the bench
            // run itself (see EXPERIMENTS.md "Key pressure").
            if let Some(v) = &s.vkeys {
                assert_eq!(
                    s.races_reported, s.races_planted,
                    "virtualized {mode} must detect every planted race at {groups} groups"
                );
                assert_eq!(v.shares, 0, "eviction must keep rule-3b sharing unreachable");
                assert!(
                    v.hits > 0,
                    "the two-object groups must produce cache hits ({mode}, {groups} groups)"
                );
                if policy == Some("lru") {
                    lru_synced = Some(v.synced_evictions);
                }
                if policy == Some("hotness") && groups > 16 {
                    let lru = lru_synced.expect("lru runs before hotness");
                    assert!(
                        v.synced_evictions < lru,
                        "hotness must out-retain LRU under scan pressure at {groups} \
                         groups: {} synced evictions vs LRU's {lru}",
                        v.synced_evictions
                    );
                }
            }
            samples.push(s);
        }
    }

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            let vkeys = s.vkeys.map_or("null".to_string(), |v| {
                serde_json::to_string(&v).expect("serialize vkey stats")
            });
            let policy = s
                .policy
                .map_or("null".to_string(), |p| format!("\"{p}\""));
            format!(
                "    {{\"groups\": {}, \"mode\": \"{}\", \"key_mode\": \"{}\", \"policy\": {}, \"races_planted\": {}, \"races_reported\": {}, \"detection_rate\": {:.4}, \"total_cycles\": {}, \"faults\": {}, \"wrpkru\": {}, \"pkey_mprotect\": {}, \"vkeys\": {}}}",
                s.groups,
                s.mode,
                s.key_mode,
                policy,
                s.races_planted,
                s.races_reported,
                s.races_reported as f64 / s.races_planted as f64,
                s.total_cycles,
                s.faults,
                s.wrpkru,
                s.pkey_mprotect,
                vkeys
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"key_pressure\",\n  \"workload\": \"G held two-object groups, one cross-section write (planted race) per group with partner = (7g+3) mod G, then {ROUNDS} hot-revisit rounds ({HOT_THREADS} hot threads, {COLD_PER_ROUND} scanning cold threads per round)\",\n  \"scales\": {:?},\n  \"samples\": [\n{}\n  ]\n}}\n",
        scales(),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_key_pressure.json");
    std::fs::write(path, json).expect("write BENCH_key_pressure.json");
    println!("wrote {path}");
}
