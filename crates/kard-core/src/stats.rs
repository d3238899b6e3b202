//! Runtime counters backing the paper's Tables 3 and 5.

use crate::faultshard::FaultShardStats;
use crate::vkey::VKeyStats;
use kard_alloc::AllocStats;
use kard_telemetry::event::{unpack_domains, DomainCode, GRANT_PROACTIVE, GRANT_REACTIVE};
use kard_telemetry::{Event, EventKind};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Execution statistics of one detection run.
///
/// These counters correspond directly to paper columns: `cs_entries` and
/// `unique_sections` feed Table 3's "Critical sections" columns,
/// `max_concurrent_sections`, `key_recycles`, and `key_shares` feed
/// Table 5, and the race/pruning counts feed Tables 4 and 6.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Total critical-section entries observed.
    pub cs_entries: u64,
    /// Distinct critical sections (lock sites) executed.
    pub unique_sections: u64,
    /// Maximum number of critical sections concurrently in flight.
    pub max_concurrent_sections: u64,
    /// Objects migrated out of the Not-accessed domain (identified shared).
    pub objects_identified: u64,
    /// Objects currently in (or ever migrated to) the Read-only domain.
    pub read_only_migrations: u64,
    /// Objects migrated to the Read-write domain.
    pub read_write_migrations: u64,
    /// Key recycling events (§5.4 rule 3a).
    pub key_recycles: u64,
    /// Key sharing events (§5.4 rule 3b) — the false-negative risk window.
    pub key_shares: u64,
    /// Faults handled for shared-object identification.
    pub identification_faults: u64,
    /// Faults handled for read-only → read-write migration.
    pub migration_faults: u64,
    /// Faults analyzed as potential races.
    pub race_check_faults: u64,
    /// Faults consumed by the protection-interleaving filter.
    pub interleave_faults: u64,
    /// Race records reported (post-filtering).
    pub races_reported: u64,
    /// Candidate races pruned because interleaving proved the two threads
    /// touched different byte offsets (§5.5).
    pub races_pruned_offset: u64,
    /// Duplicate reports suppressed by automated pruning (§5.5).
    pub races_pruned_redundant: u64,
    /// Candidate races dismissed by the release-timestamp check.
    pub races_filtered_timestamp: u64,
    /// Proactive key acquisitions performed at section entries.
    pub proactive_acquisitions: u64,
    /// Reactive key acquisitions performed by the fault handler.
    pub reactive_acquisitions: u64,
}

impl DetectorStats {
    /// Fraction of CS entries that needed key sharing — the paper reports
    /// 0.007%–0.07% for memcached (§7.3).
    #[must_use]
    pub fn share_rate(&self) -> f64 {
        if self.cs_entries == 0 {
            0.0
        } else {
            self.key_shares as f64 / self.cs_entries as f64
        }
    }

    /// Fraction of CS entries that triggered key recycling (§7.3 reports
    /// 0.44%–0.49% for memcached).
    #[must_use]
    pub fn recycle_rate(&self) -> f64 {
        if self.cs_entries == 0 {
            0.0
        } else {
            self.key_recycles as f64 / self.cs_entries as f64
        }
    }

    /// Rebuild the statistics by replaying a complete telemetry event
    /// stream — the proof that the event vocabulary captures everything
    /// the atomic counters do. Every counter has an exact event mapping:
    ///
    /// * one event kind per fault/prune/grant counter;
    /// * domain-migration events carry `(from, to)` codes, so
    ///   `read_only_migrations` counts migrations *into* Read-only and
    ///   `read_write_migrations` counts migrations into Read-write from
    ///   Not-accessed or Read-only (a §5.5 restoration from Suspended is
    ///   not a migration);
    /// * `races_reported` = reports minus offset-pruned retractions,
    ///   mirroring how the detector derives it from surviving records.
    ///
    /// The stream must be complete (no ring overflow — check
    /// [`kard_telemetry::Drained::dropped`]) or counts will fall short.
    #[must_use]
    pub fn from_events(events: &[Event]) -> DetectorStats {
        let mut s = DetectorStats::default();
        let mut sections: HashSet<u64> = HashSet::new();
        for e in events {
            match e.kind {
                EventKind::SectionEnter => {
                    s.cs_entries += 1;
                    sections.insert(e.a);
                    s.max_concurrent_sections = s.max_concurrent_sections.max(e.b);
                }
                EventKind::DomainMigration => match unpack_domains(e.b) {
                    Some((_, DomainCode::ReadOnly)) => s.read_only_migrations += 1,
                    Some((from, DomainCode::ReadWrite)) if from != DomainCode::Suspended => {
                        s.read_write_migrations += 1;
                    }
                    _ => {}
                },
                EventKind::KeyGrant if e.b == GRANT_PROACTIVE => s.proactive_acquisitions += 1,
                EventKind::KeyGrant if e.b == GRANT_REACTIVE => s.reactive_acquisitions += 1,
                EventKind::KeyRecycle => s.key_recycles += 1,
                EventKind::KeyShare => s.key_shares += 1,
                EventKind::FaultIdentify => {
                    s.identification_faults += 1;
                    s.objects_identified += 1;
                }
                EventKind::FaultMigrate => s.migration_faults += 1,
                EventKind::FaultRaceCheck => s.race_check_faults += 1,
                EventKind::FaultInterleave => s.interleave_faults += 1,
                EventKind::TimestampFiltered => s.races_filtered_timestamp += 1,
                EventKind::RaceReport => s.races_reported += 1,
                EventKind::RacePruneOffset => {
                    s.races_pruned_offset += 1;
                    s.races_reported = s.races_reported.saturating_sub(1);
                }
                EventKind::RacePruneRedundant => s.races_pruned_redundant += 1,
                _ => {}
            }
        }
        s.unique_sections = sections.len() as u64;
        s
    }
}

/// One coherent picture of a run: every statistics surface the stack
/// exposes, gathered by [`crate::Kard::snapshot`] in a single call.
///
/// Before this existed a caller assembling a run report had to query the
/// detector, the virtual-key cache, and the allocator separately (and had
/// no way at all to see the fault-shard counters). The snapshot is plain
/// data — `Serialize` so experiment harnesses can dump it straight into
/// their JSON result files.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KardSnapshot {
    /// Detection counters (Tables 3–6): sections, migrations, faults,
    /// races reported and pruned.
    pub detector: DetectorStats,
    /// Virtual-key cache counters; all zero under
    /// [`crate::KeyMode::Direct`].
    pub vkeys: VKeyStats,
    /// Allocator counters: allocations, frees, fast-path hits, remote
    /// frees, rounding waste.
    pub alloc: AllocStats,
    /// Fault-shard counters: acquisitions, contended entries, and the
    /// peak number of faults in flight at once.
    pub fault_shards: FaultShardStats,
    /// Total detector lock acquisitions (per-concern locks plus fault
    /// shards) — the §5-bookkeeping cost figure the no-lock-overhead
    /// tests bound.
    pub lock_acquisitions: u64,
    /// Production-mode controller counters: sampling decisions, throttle
    /// transitions, observed overhead, and the estimated detection-rate
    /// cost. All defaults (with `enabled = false`) when
    /// [`crate::KardConfig::production`] is `None`.
    pub production: crate::budget::ProductionStats,
    /// Drain-side anomaly-analyzer state: per-metric baselines, CUSUM
    /// accumulations, and fired signals ("signals, not truth"). All
    /// defaults until a drain has run.
    pub anomaly: kard_telemetry::AnomalyStats,
}

/// Lock-free accumulator behind [`DetectorStats`].
///
/// The detector's hot paths (section entry/exit, every fault) bump these
/// counters with relaxed atomic increments instead of taking any lock; a
/// [`AtomicStats::snapshot`] materializes a plain [`DetectorStats`] for
/// reporting. Two counters are not accumulated here: `races_reported` is
/// derived from the surviving race records at snapshot time (pruning can
/// retract a report after the fact), and `unique_sections` is the number
/// of sections the detector keeps plan cells for (one per section ever
/// entered, created at its first entry by any thread).
#[derive(Debug, Default)]
pub struct AtomicStats {
    /// See [`DetectorStats::cs_entries`].
    pub cs_entries: AtomicU64,
    /// See [`DetectorStats::max_concurrent_sections`].
    pub max_concurrent_sections: AtomicU64,
    /// See [`DetectorStats::objects_identified`].
    pub objects_identified: AtomicU64,
    /// See [`DetectorStats::read_only_migrations`].
    pub read_only_migrations: AtomicU64,
    /// See [`DetectorStats::read_write_migrations`].
    pub read_write_migrations: AtomicU64,
    /// See [`DetectorStats::key_recycles`].
    pub key_recycles: AtomicU64,
    /// See [`DetectorStats::key_shares`].
    pub key_shares: AtomicU64,
    /// See [`DetectorStats::identification_faults`].
    pub identification_faults: AtomicU64,
    /// See [`DetectorStats::migration_faults`].
    pub migration_faults: AtomicU64,
    /// See [`DetectorStats::race_check_faults`].
    pub race_check_faults: AtomicU64,
    /// See [`DetectorStats::interleave_faults`].
    pub interleave_faults: AtomicU64,
    /// See [`DetectorStats::races_pruned_offset`].
    pub races_pruned_offset: AtomicU64,
    /// See [`DetectorStats::races_pruned_redundant`].
    pub races_pruned_redundant: AtomicU64,
    /// See [`DetectorStats::races_filtered_timestamp`].
    pub races_filtered_timestamp: AtomicU64,
    /// See [`DetectorStats::proactive_acquisitions`].
    pub proactive_acquisitions: AtomicU64,
    /// See [`DetectorStats::reactive_acquisitions`].
    pub reactive_acquisitions: AtomicU64,
}

impl AtomicStats {
    /// Increment `counter` by one (relaxed; counters are monotone and
    /// independent, so no ordering is needed).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise `counter` to at least `value`: load, then compare-and-max
    /// only to raise (relaxed). The counter only grows, so a load at or
    /// above `value` already proves the result, and the common call — no
    /// new maximum — reads the line without taking it exclusive.
    pub fn raise_to(counter: &AtomicU64, value: u64) {
        if value > counter.load(Ordering::Relaxed) {
            counter.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A plain-value snapshot. `races_reported` and `unique_sections` are
    /// left at zero; the detector fills them in from its record store and
    /// its section book.
    #[must_use]
    pub fn snapshot(&self) -> DetectorStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DetectorStats {
            cs_entries: get(&self.cs_entries),
            unique_sections: 0,
            max_concurrent_sections: get(&self.max_concurrent_sections),
            objects_identified: get(&self.objects_identified),
            read_only_migrations: get(&self.read_only_migrations),
            read_write_migrations: get(&self.read_write_migrations),
            key_recycles: get(&self.key_recycles),
            key_shares: get(&self.key_shares),
            identification_faults: get(&self.identification_faults),
            migration_faults: get(&self.migration_faults),
            race_check_faults: get(&self.race_check_faults),
            interleave_faults: get(&self.interleave_faults),
            races_reported: 0,
            races_pruned_offset: get(&self.races_pruned_offset),
            races_pruned_redundant: get(&self.races_pruned_redundant),
            races_filtered_timestamp: get(&self.races_filtered_timestamp),
            proactive_acquisitions: get(&self.proactive_acquisitions),
            reactive_acquisitions: get(&self.reactive_acquisitions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_stats_snapshot_carries_counters() {
        let stats = AtomicStats::default();
        AtomicStats::bump(&stats.cs_entries);
        AtomicStats::bump(&stats.cs_entries);
        AtomicStats::bump(&stats.key_shares);
        AtomicStats::raise_to(&stats.max_concurrent_sections, 3);
        AtomicStats::raise_to(&stats.max_concurrent_sections, 2);
        let snap = stats.snapshot();
        assert_eq!(snap.cs_entries, 2);
        assert_eq!(snap.key_shares, 1);
        assert_eq!(snap.max_concurrent_sections, 3, "raise_to keeps the max");
        assert_eq!(snap.races_reported, 0, "derived by the detector");
    }

    #[test]
    fn raise_to_never_lowers() {
        let counter = AtomicU64::new(5);
        for value in [5, 0, 4] {
            AtomicStats::raise_to(&counter, value);
            assert_eq!(counter.load(Ordering::Relaxed), 5, "{value} is not above 5");
        }
        AtomicStats::raise_to(&counter, 6);
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }

    /// Four OS threads raise one counter through disjoint, interleaved
    /// ranges (thread `i` raises every value `≡ i (mod 4)`), so the
    /// load-first check races the other threads' compare-and-max on every
    /// call: the counter still ends at the global maximum.
    #[test]
    fn raise_to_from_four_threads_ends_at_the_global_max() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 50_000;
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for i in 0..THREADS {
                let counter = &counter;
                scope.spawn(move || {
                    for n in 0..PER_THREAD {
                        AtomicStats::raise_to(counter, n * THREADS + i);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * PER_THREAD - 1);
    }

    #[test]
    fn from_events_replays_counters() {
        use kard_telemetry::event::pack_domains;
        let ev = |kind, a, b| Event {
            tsc: 0,
            thread: 0,
            kind,
            a,
            b,
        };
        let events = vec![
            ev(EventKind::SectionEnter, 0x10, 1),
            ev(EventKind::SectionEnter, 0x20, 2),
            ev(EventKind::SectionEnter, 0x10, 1),
            ev(EventKind::FaultIdentify, 1, 0),
            ev(
                EventKind::DomainMigration,
                1,
                pack_domains(DomainCode::NotAccessed, DomainCode::ReadOnly),
            ),
            ev(EventKind::FaultMigrate, 1, 0),
            ev(
                EventKind::DomainMigration,
                1,
                pack_domains(DomainCode::ReadOnly, DomainCode::ReadWrite),
            ),
            ev(EventKind::KeyGrant, 3, GRANT_REACTIVE),
            ev(EventKind::KeyGrant, 3, GRANT_PROACTIVE),
            ev(EventKind::RaceReport, 1, 1),
            ev(EventKind::RaceReport, 2, 1),
            ev(EventKind::RacePruneOffset, 2, 0),
            // Restoration after an interleaving: not a migration.
            ev(
                EventKind::DomainMigration,
                1,
                pack_domains(DomainCode::Suspended, DomainCode::ReadWrite),
            ),
        ];
        let s = DetectorStats::from_events(&events);
        assert_eq!(s.cs_entries, 3);
        assert_eq!(s.unique_sections, 2);
        assert_eq!(s.max_concurrent_sections, 2);
        assert_eq!(s.identification_faults, 1);
        assert_eq!(s.objects_identified, 1);
        assert_eq!(s.read_only_migrations, 1);
        assert_eq!(s.read_write_migrations, 1, "restoration not counted");
        assert_eq!(s.migration_faults, 1);
        assert_eq!(s.proactive_acquisitions, 1);
        assert_eq!(s.reactive_acquisitions, 1);
        assert_eq!(s.races_reported, 1, "one report retracted by pruning");
        assert_eq!(s.races_pruned_offset, 1);
    }

    #[test]
    fn rates_are_zero_without_entries() {
        let s = DetectorStats::default();
        assert_eq!(s.share_rate(), 0.0);
        assert_eq!(s.recycle_rate(), 0.0);
    }

    #[test]
    fn rates_divide_by_entries() {
        let s = DetectorStats {
            cs_entries: 161_992,
            key_shares: 11,
            key_recycles: 724,
            ..DetectorStats::default()
        };
        // memcached at 4 threads (Table 5): sharing ≈ 0.007 %.
        assert!((s.share_rate() - 11.0 / 161_992.0).abs() < 1e-12);
        assert!(s.share_rate() < 0.0007);
        assert!((s.recycle_rate() - 724.0 / 161_992.0).abs() < 1e-12);
    }
}
