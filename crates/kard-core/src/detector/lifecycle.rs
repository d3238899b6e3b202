//! Lifecycle and observation: what enters and leaves the detector's books
//! (allocation, free, thread exit) and what it reports back out (race
//! records, statistics, snapshots, the drain-side production tick).

use super::thread::ThreadCtx;
use super::Kard;
use crate::budget::{BudgetTick, ProductionStats};
use crate::config::KeyMode;
use crate::domains::Domain;
use crate::report::RaceRecord;
use crate::stats::{DetectorStats, KardSnapshot};
use crate::types::{Perm, SectionId};
use crate::vkey::VKeyStats;
use kard_alloc::{ObjectId, ObjectInfo};
use kard_sim::ThreadId;
use kard_telemetry::EventKind;
use std::sync::atomic::Ordering;

impl Kard {
    /// Intercepted heap allocation: the object starts in the Not-accessed
    /// domain, protected by `k_na`.
    pub fn on_alloc(&self, t: ThreadId, size: u64) -> ObjectInfo {
        self.adopt(self.alloc.alloc(t, size))
    }

    /// Registered global variable: like a heap object, but never freed and
    /// not consolidated (§6).
    pub fn on_global(&self, t: ThreadId, size: u64) -> ObjectInfo {
        self.adopt(self.alloc.register_global(t, size))
    }

    /// Intercepted `free`: all detector metadata for the object is dropped.
    ///
    /// Takes the object's fault shard so the free cannot interleave with
    /// a fault handler mid-flight on the same object (the handler
    /// re-protects objects through the allocator, which panics on unknown
    /// ids); frees of objects in other shards, and faults on them,
    /// proceed in parallel.
    pub fn on_free(&self, t: ThreadId, id: ObjectId) {
        let shard = self.fault_shards.enter_object(id);
        self.note_fault_entry(t, &shard);
        // Read the mirrored membership word *before* scrubbing the
        // metadata: a never-grouped object can skip the `vkeys` mutex
        // below. Safe because this object's membership only ever changes
        // under its fault shard, held here.
        let grouped = matches!(self.config.keys, KeyMode::Virtual(_))
            && self.sidemeta.vkey(id).is_some();
        let prev = self.sidemeta.take_domain(id);
        self.sidemeta.clear(id);
        if prev == Some(Domain::NotAccessed) {
            // Never shared: only identification, inside a section, moves an
            // object out of Not-accessed, and only from there does it enter
            // a section's object list, a key, a group or an interleaving.
            // Nothing else knows this object.
            self.alloc.free(t, id);
            return;
        }
        let read_write = if let Some(Domain::ReadWrite(key)) = prev {
            self.lock_keys().unassign_object(key, id);
            true
        } else {
            false
        };
        if grouped {
            // Group membership outlives domain demotion (an evicted
            // object is Read-only but still grouped), so the free must
            // drop it explicitly.
            self.vkeys.lock().remove_member(id);
        }
        self.sections.write().forget(id, read_write);
        if let Some(gone) = self.interleaver.lock().forget(id) {
            if gone.was_armed && !gone.participants.is_empty() {
                self.emit(t, EventKind::InterleaveExpire, id.0, 0);
            }
            for &th in &gone.participants {
                let prev = self.slot(th).participating.fetch_sub(1, Ordering::Relaxed);
                debug_assert!(prev > 0, "participating counter underflow");
            }
        }
        self.alloc.free(t, id);
    }

    /// Program-thread exit: flush the thread's allocation magazine —
    /// drain and close its remote-free queue (late cross-thread frees
    /// then route to the global pool instead of stranding slots), retire
    /// its dirty pages, return its cached slots to the pool and free the
    /// magazine's buffers — then retire the thread from the machine
    /// ([`kard_sim::Machine::retire_thread`]), so no later clock read or shootdown
    /// walks it. A thread that exits outside every section also gives back
    /// its detector context (frames, held keys, section-plan handles); one
    /// still inside a section keeps it. `t` must not be driven afterwards;
    /// its id is not reused.
    ///
    /// Takes every fault shard (ascending, the multi-shard ordering
    /// rule): retirement unmaps pages, and a fault handler mid-resolution
    /// on *any* object must never observe a mapping disappear underneath
    /// it.
    pub fn on_thread_exit(&self, t: ThreadId) {
        let shard = self.fault_shards.enter_all();
        self.note_fault_entry(t, &shard);
        self.alloc.on_thread_exit(t);
        self.machine.retire_thread(t);
        self.slot(t).ctx.with(|ctx| {
            if ctx.frames.is_empty() {
                *ctx = ThreadCtx::default();
            }
        });
    }

    /// Filtered race reports.
    #[must_use]
    pub fn reports(&self) -> Vec<RaceRecord> {
        self.reports_from(0).0
    }

    /// The surviving reports at raw store index `start` or later, and the
    /// store's length — the `start` that resumes where this call stopped.
    /// Raw indices are stable: §5.5 pruning retracts a record in place, so
    /// a cursor over them never skips or repeats a later report.
    #[must_use]
    pub fn reports_from(&self, start: usize) -> (Vec<RaceRecord>, usize) {
        let store = self.records.lock();
        let fresh = store.records.iter().skip(start).flatten().cloned().collect();
        (fresh, store.records.len())
    }

    /// The reports §5.5 offset pruning withdrew, from the `start`-th
    /// withdrawal on, each with its raw store index (the index
    /// [`Kard::reports_from`] counts in), and the number of withdrawals so
    /// far — the `start` that resumes where this call stopped. A consumer
    /// that delivered reports up to raw index `n` recalls exactly the
    /// withdrawals below `n`.
    #[must_use]
    pub fn withdrawn_from(&self, start: usize) -> (Vec<(usize, RaceRecord)>, usize) {
        let store = self.records.lock();
        let fresh = store.withdrawn.iter().skip(start).cloned().collect();
        (fresh, store.withdrawn.len())
    }

    /// Statistics snapshot. The unique-section count is the number of
    /// sections the book holds plans for (one per section any thread has
    /// entered), and the entry/grant totals are sums over the per-thread
    /// slots — entries never touch a shared stats line.
    #[must_use]
    pub fn stats(&self) -> DetectorStats {
        let mut stats = self.stats.snapshot();
        stats.races_reported = self.records.lock().records.iter().flatten().count() as u64;
        stats.unique_sections = self.sections.read().entered() as u64;
        for slot in self.threads.iter() {
            stats.cs_entries += slot.cs_entries.load(Ordering::Relaxed);
            stats.proactive_acquisitions += slot.proactive_acquisitions.load(Ordering::Relaxed);
        }
        stats
    }

    /// Key-virtualization statistics snapshot. All-zero under
    /// [`KeyMode::Direct`].
    #[must_use]
    pub fn vkey_stats(&self) -> VKeyStats {
        self.vkeys.lock().stats()
    }

    /// One coherent picture of the run: detector, virtual-key, allocator,
    /// and fault-shard statistics plus the lock-acquisition total, in a
    /// single serializable value.
    #[must_use]
    pub fn snapshot(&self) -> KardSnapshot {
        KardSnapshot {
            detector: self.stats(),
            vkeys: self.vkey_stats(),
            alloc: self.alloc.stats(),
            fault_shards: self.fault_shards.stats(),
            lock_acquisitions: self.detector_lock_acquisitions(),
            production: self.production_stats(),
        }
    }

    /// Production-mode controller counters (see [`crate::budget`]).
    /// `enabled` is false (and every decision counter zero) unless
    /// [`KardConfig::production`](crate::KardConfig::production) is set.
    #[must_use]
    pub fn production_stats(&self) -> ProductionStats {
        self.budget.stats()
    }

    /// Drain-side control step of production mode: integrate the
    /// fault-delay and `pkey_mprotect` cycle histograms into the observed
    /// overhead since the last tick and let the budget controller steer
    /// (narrow/widen the sample, move the hotness threshold, flip the
    /// arming backoff). Returns `None` when production mode is off or no
    /// virtual time has elapsed.
    ///
    /// `Session::drain` calls it, and the firehose shard loop calls it on
    /// every work item or idle wake. The work integral only grows while
    /// telemetry is enabled (the cycle histograms gate on it), so a
    /// production run that wants *adaptive* budgeting must record
    /// telemetry — a `kard_rt` session built with production set does;
    /// without it the controller still applies the static
    /// [`ProductionConfig::sample_permille`](crate::ProductionConfig::sample_permille)
    /// but observes zero overhead.
    pub fn production_tick(&self) -> Option<BudgetTick> {
        if !self.budget.active() {
            return None;
        }
        let hists = self.telemetry.histograms();
        let work = hists.fault_delay.sum().saturating_add(hists.mprotect.sum());
        let tick = self.budget.tick(self.machine.now(), work)?;
        // Controller events ride thread 0's ring: ticks have no thread.
        if let Some((target, threshold)) = tick.adjusted {
            self.emit(ThreadId(0), EventKind::BudgetAdjust, u64::from(target), threshold);
        }
        if let Some(entering) = tick.backoff {
            let entering = u64::from(entering);
            self.emit(ThreadId(0), EventKind::BudgetBackoff, entering, tick.observed_permille);
        }
        Some(tick)
    }

    /// Human-readable description of the active key mode (direct vs.
    /// virtualized), for experiment-output headers.
    #[must_use]
    pub fn key_mode(&self) -> String {
        self.config
            .key_mode_description(self.layout.read_write_pool().count())
    }

    /// The current protection domain of an object, if tracked: one
    /// acquire load of its side-metadata word, at any id.
    #[must_use]
    pub fn domain_of(&self, id: ObjectId) -> Option<Domain> {
        self.sidemeta.domain(id)
    }

    /// Objects recorded for a section in the section-object map, in
    /// ascending id order: a copy, so the caller reads it with the
    /// `sections` lock already dropped.
    #[must_use]
    pub fn section_objects(&self, section: SectionId) -> Vec<(ObjectId, Perm)> {
        self.sections.read().objects_in(section).collect()
    }

    /// Section-plan counters: `(hits, misses)`. Hits are entries
    /// committed from the section's plan without any shared lock; misses
    /// are entries that were eligible but took the locked path.
    /// Scheduling-dependent, so exposed separately from [`DetectorStats`].
    #[must_use]
    pub fn section_cache_stats(&self) -> (u64, u64) {
        let (mut hits, mut misses) = (0, 0);
        for slot in self.threads.iter() {
            hits += slot.cache_hits.load(Ordering::Relaxed);
            misses += slot.cache_misses.load(Ordering::Relaxed);
        }
        (hits, misses)
    }
}
