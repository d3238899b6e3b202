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
//!    virtualized policy records `G` cache hits here.
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
//! check reports the conflict the alias would have hidden.

use super::total_faults;
use kard_core::{ExhaustionPolicy, KardConfig, KeyCachePolicy, KeyMode, LockId, VKeyStats};
use kard_rt::Session;
use kard_sim::CodeSite;
use serde::Serialize;

/// Concurrent shared-object group counts `kard-tables keypressure` sweeps.
pub const GROUPS: [usize; 4] = [8, 16, 64, 256];

/// Threads whose `b` object is re-written every phase-3 round.
const HOT_THREADS: usize = 8;

/// Cold threads swept per phase-3 round (the scan pressure).
const COLD_PER_ROUND: usize = 8;

/// Phase-3 rounds.
const ROUNDS: usize = 24;

/// One (group count, key mode) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct KeyPressureRow {
    /// Simultaneously held two-object groups.
    pub groups: usize,
    /// Key-assignment mode label.
    pub mode: &'static str,
    /// The detector's own description of that mode.
    pub key_mode: String,
    /// Replacement policy (virtualized modes only).
    pub policy: Option<&'static str>,
    /// Planted ILU races (one per group).
    pub races_planted: u64,
    /// Races the detector reported.
    pub races_reported: u64,
    /// `races_reported / races_planted`.
    pub detection_rate: f64,
    /// Virtual cycles summed over every thread.
    pub total_cycles: u64,
    /// Faults of every class.
    pub faults: u64,
    /// WRPKRU executions.
    pub wrpkru: u64,
    /// `pkey_mprotect` calls.
    pub pkey_mprotect: u64,
    /// Key-cache counters (virtualized modes only).
    pub vkeys: Option<VKeyStats>,
}

/// The cross-write partner of group `g`: fixed pseudo-random stride, so the
/// direct detector's cyclic shared-key assignment aliases some — but not
/// all — (writer, victim) pairs. For the even group counts used here
/// `7g + 3` never maps a group onto itself.
fn partner(g: usize, groups: usize) -> usize {
    (g * 7 + 3) % groups
}

fn run(
    groups: usize,
    mode: &'static str,
    policy: Option<&'static str>,
    config: KardConfig,
) -> KeyPressureRow {
    let session = Session::builder().config(config).build();
    let (kard, machine) = (session.kard(), session.machine());

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
    let hot = HOT_THREADS.min(groups / 2);
    let cold = groups - hot;
    for round in 0..ROUNDS {
        for h in 0..hot {
            kard.write(tids[h], b[h].base, CodeSite(0x3000 + h as u64));
        }
        for j in 0..COLD_PER_ROUND.min(cold) {
            let c = hot + (round * COLD_PER_ROUND + j) % cold;
            kard.write(tids[c], b[c].base, CodeSite(0x4000 + c as u64));
        }
    }

    for (g, &t) in tids.iter().enumerate() {
        kard.lock_exit(t, LockId(g as u64 + 1));
    }

    let stats = kard.stats();
    let counters = machine.counters();
    KeyPressureRow {
        groups,
        mode,
        key_mode: kard.key_mode(),
        policy,
        races_planted: groups as u64,
        races_reported: stats.races_reported,
        detection_rate: stats.races_reported as f64 / groups as f64,
        total_cycles: tids.iter().map(|&t| machine.thread_cycles(t)).sum(),
        faults: total_faults(&stats),
        wrpkru: counters.wrpkru,
        pkey_mprotect: counters.pkey_mprotect,
        vkeys: matches!(config.keys, KeyMode::Virtual(_)).then(|| kard.vkey_stats()),
    }
}

/// Run all four key modes at each of `groups` (even counts).
#[must_use]
pub fn sweep(groups: &[usize]) -> Vec<KeyPressureRow> {
    let direct = KardConfig::paper();
    let virt = |policy| KardConfig {
        keys: KeyMode::Virtual(policy),
        ..direct
    };
    let share_only = KeyMode::Direct {
        exhaustion: ExhaustionPolicy::ShareOnly,
        fresh_key_per_object: false,
    };
    let modes = [
        ("direct", None, direct),
        (
            "direct_share",
            None,
            KardConfig {
                keys: share_only,
                ..direct
            },
        ),
        ("virtualized", Some("lru"), virt(KeyCachePolicy::Lru)),
        (
            "virtualized_hotness",
            Some("hotness"),
            virt(KeyCachePolicy::Hotness),
        ),
    ];
    groups
        .iter()
        .flat_map(|&g| modes.map(|(mode, policy, config)| run(g, mode, policy, config)))
        .collect()
}

/// Render the sweep.
#[must_use]
pub fn text(groups: &[usize]) -> String {
    let mut out = format!(
        "Key pressure: direct §5.4 assignment vs the virtualized key cache\n\
         (G held two-object groups, one planted race each, then {ROUNDS} hot-revisit rounds of \
         {HOT_THREADS} hot + {COLD_PER_ROUND} scanning cold threads)\n"
    );
    for r in sweep(groups) {
        out.push_str(&format!(
            "{:>3} groups, {:<20} {:>3}/{:<3} races, {:>9} cycles, {:>4} faults{}\n",
            r.groups,
            r.mode,
            r.races_reported,
            r.races_planted,
            r.total_cycles,
            r.faults,
            r.vkeys.map_or(String::new(), |v| format!(
                ", {} hits, {} evictions ({} synced), {} revivals",
                v.hits, v.evictions, v.synced_evictions, v.revivals
            )),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_virtualized_policy_reports_all_planted_races_without_sharing() {
        for r in sweep(&GROUPS) {
            let Some(v) = r.vkeys else { continue };
            assert_eq!(
                r.races_reported, r.races_planted,
                "{} must detect every planted race at {} groups",
                r.mode, r.groups
            );
            assert_eq!(
                v.shares, 0,
                "eviction must keep rule-3b sharing unreachable"
            );
            assert!(
                v.hits > 0,
                "the two-object groups must produce cache hits ({}, {} groups)",
                r.mode,
                r.groups
            );
        }
    }

    #[test]
    fn hotness_takes_fewer_synced_evictions_than_lru_above_16_groups() {
        let rows = sweep(&GROUPS[2..]);
        let synced = |groups: usize, policy: &str| {
            rows.iter()
                .find(|r| r.groups == groups && r.policy == Some(policy))
                .and_then(|r| r.vkeys)
                .expect("virtualized row")
                .synced_evictions
        };
        for &groups in &GROUPS[2..] {
            let (hotness, lru) = (synced(groups, "hotness"), synced(groups, "lru"));
            assert!(
                hotness < lru,
                "hotness must out-retain LRU under scan pressure at {groups} groups: \
                 {hotness} synced evictions vs LRU's {lru}"
            );
        }
    }
}
