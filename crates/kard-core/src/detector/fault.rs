//! Fault handling (§5.3–§5.5): the access loop and the #GP handler —
//! classify by the faulted key, identify Not-accessed objects, migrate or
//! race-check Read-only writes, consume interleave counterpart faults, and
//! resolve pool-key faults into reactive grants, race records and armed
//! interleavings. Every race record is built and stored here.

use super::Kard;
use crate::budget::BudgetDecision;
use crate::domains::Domain;
use crate::error::KardError;
use crate::faultshard::FaultPathGuard;
use crate::interleave::{Observation, Verdict};
use crate::report::{RaceRecord, RaceSide};
use crate::stats::AtomicStats;
use crate::types::{Perm, SectionId};
use kard_alloc::{ObjectId, ObjectInfo};
use kard_sim::{AccessKind, CodeSite, GpFault, ThreadId, VirtAddr};
use kard_telemetry::event::{DomainCode, GRANT_REACTIVE};
use kard_telemetry::EventKind;
use std::sync::atomic::Ordering;

/// What the fault handler tells the access loop to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum FaultAction {
    /// Protection changed; re-execute the access.
    Retry,
    /// The handler emulated the access (single-step analog); do not retry.
    Emulated,
}

impl Kard {
    /// Telemetry for a fault-path entry: a contention event when the
    /// entry had to wait for a shard — exactly the waits the old global
    /// fault mutex imposed on *every* concurrent fault.
    pub(super) fn note_fault_entry(&self, t: ThreadId, guard: &FaultPathGuard<'_>) {
        if guard.contended() {
            self.emit(
                t,
                EventKind::FaultShardContended,
                guard.held_indices().first().copied().unwrap_or(0) as u64,
                guard.concurrency(),
            );
        }
    }

    /// A read by `t` at `addr` from program location `ip`.
    ///
    /// # Panics
    ///
    /// Panics on any error [`Kard::try_read`] reports.
    pub fn read(&self, t: ThreadId, addr: VirtAddr, ip: CodeSite) {
        self.try_read(t, addr, ip).unwrap_or_else(|e| panic!("{e}"));
    }

    /// A write by `t` at `addr` from program location `ip`.
    ///
    /// # Panics
    ///
    /// Panics on any error [`Kard::try_write`] reports.
    pub fn write(&self, t: ThreadId, addr: VirtAddr, ip: CodeSite) {
        self.try_write(t, addr, ip).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Kard::read`]: a monitored-program bug —
    /// touching unmanaged or freed memory, or an access that never
    /// converges — comes back as a [`KardError`] instead of a panic, for
    /// hosts embedding the detector.
    pub fn try_read(&self, t: ThreadId, addr: VirtAddr, ip: CodeSite) -> Result<(), KardError> {
        self.access(t, addr, AccessKind::Read, ip)
    }

    /// Fallible variant of [`Kard::write`]; see [`Kard::try_read`].
    pub fn try_write(&self, t: ThreadId, addr: VirtAddr, ip: CodeSite) -> Result<(), KardError> {
        self.access(t, addr, AccessKind::Write, ip)
    }

    fn access(
        &self,
        t: ThreadId,
        addr: VirtAddr,
        kind: AccessKind,
        ip: CodeSite,
    ) -> Result<(), KardError> {
        for _attempt in 0..8 {
            match self.machine.access(t, addr, kind, ip) {
                Ok(()) => return Ok(()),
                Err(fault) => match self.handle_fault(fault)? {
                    FaultAction::Retry => continue,
                    FaultAction::Emulated => return Ok(()),
                },
            }
        }
        Err(KardError::FaultLoop { addr })
    }

    /// The custom #GP handler (§5.5): classify the fault by domain key and
    /// dispatch to identification, migration, interleaving, or race check.
    /// The handler runs under the faulted *object's* fault shard — faults
    /// on unrelated objects proceed in parallel, while faults, frees, and
    /// restorations of the same object serialize.
    pub(super) fn handle_fault(&self, fault: GpFault) -> Result<FaultAction, KardError> {
        // The thread's timeline position at #GP delivery: the handler's
        // virtual execution interval starts here (the delivery + execution
        // lump charged next covers work done while the shard is held), and
        // the §5.5 serialization charge below queues the whole interval
        // behind overlapping same-shard handlers. Timelines — not raw
        // per-thread cycle counters — because the previous holder may be a
        // thread born earlier; only birth-offset clocks are comparable.
        let entered = self.machine.thread_timeline(fault.thread);
        self.machine.charge_fault_handling(fault.thread);
        // Picking the shard needs the faulted object's id, but that
        // lookup necessarily runs before any shard is held, so a
        // concurrent free could retire the object — and a new object
        // could even reuse the address with a different id — between
        // lookup and lock. The loop re-validates under the guard: only
        // when the object at the address still carries the id whose
        // shard was locked does the handler proceed. Once the right
        // shard is held `on_free` serializes on it, so a lookup miss
        // genuinely means the program touched memory the detector never
        // managed (or freed before the access — a use-after-free).
        let (shard, info) = loop {
            let hint = self
                .alloc
                .object_at(fault.addr)
                .ok_or(KardError::UnmanagedAccess { addr: fault.addr })?;
            let guard = self.fault_shards.enter_object(hint.id);
            match self.alloc.object_at(fault.addr) {
                None => return Err(KardError::UnmanagedAccess { addr: fault.addr }),
                Some(info) if info.id == hint.id => break (guard, info),
                Some(_) => {} // Address reused mid-acquisition; re-resolve.
            }
        };
        self.note_fault_entry(fault.thread, &shard);
        // The fault names the key the page carried when the access was
        // checked, but a handler that held this shard first may have
        // re-protected the object since (identification, migration,
        // interleave suspension). A stale fault describes protection that
        // no longer exists — acting on it would, say, arm an interleaving
        // on a suspended object — so drop it and let the access re-execute
        // against the current key. Never taken in a single-threaded run.
        if self.machine.page_key(fault.page) != Some(fault.pkey) {
            return Ok(FaultAction::Retry);
        }
        // §5.5 serialization charge: queue (in virtual time) behind any
        // earlier handler of a held shard whose interval overlaps this
        // fault's delivery on the thread's own clock. Single-threaded
        // runs never pay this — one clock cannot overlap itself.
        let wait = shard.queue_wait(entered);
        if wait > 0 {
            self.machine.charge(fault.thread, wait);
        }
        let offset = fault.addr.0.saturating_sub(info.base.0);
        // Every fault is a demonstrated touch: feed the hotness counter
        // so the faulted object's group competes for hardware-key
        // residency under the `Hotness` eviction policy.
        self.sidemeta.bump_hot(info.id);
        self.emit(
            fault.thread,
            EventKind::FaultEnter,
            fault.addr.0,
            u64::from(fault.pkey.0),
        );

        let action = if fault.pkey == self.layout.not_accessed {
            self.identify(&fault, &info, &shard)
        } else if fault.pkey == self.layout.read_only {
            self.handle_read_only_write(&fault, &info, &shard)
        } else if self.layout.is_read_write_key(fault.pkey) {
            self.handle_interleave_fault(&fault, &info, offset)
                .unwrap_or_else(|| self.handle_pool_fault(&fault, &info, offset))
        } else {
            panic!("#GP with unexpected key {}: {fault}", fault.pkey);
        };

        shard.release_at(self.machine.thread_timeline(fault.thread));
        if self.telemetry.enabled() {
            // Handling latency: fault raise to resolution on the virtual
            // clock (covers the #GP delivery charge plus everything the
            // handler itself charged).
            let latency = self.machine.now().saturating_sub(fault.tsc);
            let emulated = matches!(action, FaultAction::Emulated) as u64;
            self.emit(fault.thread, EventKind::FaultResolve, latency, emulated);
            self.telemetry.histograms().fault_delay.record(latency);
        }
        Ok(action)
    }

    /// Production mode's one gate, consulted at the two points where
    /// monitoring an object starts costing more: §5.3 identification, and
    /// the Read-only → Read-write migration (the costlier one — it
    /// allocates a key — so the controller re-rules there with its
    /// *current* policy and can drop an object it sampled in earlier).
    /// `true` means skipped: the object is retagged to the always-readable
    /// `k0` and never faults again (the page dies with the object — frees
    /// unmap, and reuse re-provisions with `k_na`). No domain, section-map
    /// entry or §5.3 counter moves — a Read-only word left behind is an
    /// inert record, since plans never acquire keys for Read-only objects —
    /// and the skip is accounted only by the controller and its event.
    fn budget_skips(&self, t: ThreadId, id: ObjectId) -> bool {
        if !self.budget.active() {
            return false;
        }
        let heat = self.sidemeta.hot(id);
        if self.budget.decide(id.0, heat) != BudgetDecision::Skipped {
            return false;
        }
        self.emit(t, EventKind::BudgetSkip, id.0, heat);
        self.unmonitor(t, id);
        true
    }

    /// §5.3 identification: first critical-section access to a
    /// Not-accessed object migrates it to a domain matching the access.
    fn identify(
        &self,
        fault: &GpFault,
        info: &ObjectInfo,
        shard: &FaultPathGuard<'_>,
    ) -> FaultAction {
        let t = fault.thread;
        let section = self.current_section(t).unwrap_or_else(|| {
            panic!("k_na fault outside a critical section: {fault}")
        });
        if self.budget_skips(t, info.id) {
            return FaultAction::Retry;
        }
        AtomicStats::bump(&self.stats.identification_faults);
        AtomicStats::bump(&self.stats.objects_identified);
        self.emit(
            t,
            EventKind::FaultIdentify,
            info.id.0,
            matches!(fault.access, AccessKind::Write) as u64,
        );

        match fault.access {
            AccessKind::Read => {
                self.sections.write().record(section, info.id, Perm::Read, false);
                self.transition(t, info.id, DomainCode::NotAccessed, Domain::ReadOnly);
            }
            AccessKind::Write => {
                self.migrate_to_read_write(fault, section, info, DomainCode::NotAccessed, shard);
            }
        }
        FaultAction::Retry
    }

    /// §5.3: a critical-section write to a Read-only-domain object migrates
    /// it to the Read-write domain; an *unlocked* write to it is a
    /// potential race against the sections reading it.
    fn handle_read_only_write(
        &self,
        fault: &GpFault,
        info: &ObjectInfo,
        shard: &FaultPathGuard<'_>,
    ) -> FaultAction {
        debug_assert_eq!(fault.access, AccessKind::Write, "k_ro only blocks writes");
        let t = fault.thread;
        if let Some(section) = self.current_section(t) {
            if self.budget_skips(t, info.id) {
                return FaultAction::Retry;
            }
            AtomicStats::bump(&self.stats.migration_faults);
            self.emit(t, EventKind::FaultMigrate, info.id.0, 0);
            self.migrate_to_read_write(fault, section, info, DomainCode::ReadOnly, shard);
            return FaultAction::Retry;
        }

        // Unlocked write. The Read-only domain tracks no holders (every
        // thread has k_ro read-only), so the only available evidence is
        // the learned section-object map: the write is a *potential* race
        // iff another thread concurrently executes a section known to read
        // this object (Table 1 row 3; this is how the memcached clock race
        // surfaces). Like proactive key holds, this infers potential
        // conflicts from learned access patterns rather than demonstrated
        // accesses, so it is active only alongside proactive acquisition -
        // the reactive configuration reports only demonstrable holds.
        if !self.config.proactive_acquisition {
            return FaultAction::Emulated;
        }
        AtomicStats::bump(&self.stats.race_check_faults);
        self.emit(t, EventKind::FaultRaceCheck, info.id.0, 0);
        // Snapshot every other thread's frame sections (each under its own
        // context cell), then evaluate them against the section-object map.
        let frame_sections: Vec<(ThreadId, Vec<SectionId>)> = (0..self.threads.len())
            .map(ThreadId)
            .filter(|&other| other != t)
            .filter_map(|other| {
                let sections = self
                    .try_slot(other)?
                    .ctx
                    .with(|ctx| ctx.frames.iter().map(|f| f.section).collect());
                Some((other, sections))
            })
            .collect();
        let reader = {
            let map = self.sections.read();
            frame_sections.iter().find_map(|(other, sections)| {
                sections
                    .iter()
                    .find(|&&s| map.section_accesses(s, info.id))
                    .map(|&s| (*other, s))
            })
        };
        if let Some((holder, section)) = reader {
            self.report_race(fault, info, None, holder, Some(section));
        }
        // The write completes via emulation; the object stays read-only so
        // detection continues for later unlocked writers.
        FaultAction::Emulated
    }

    /// Counterpart fault during protection interleaving (§5.5, Figure 4).
    /// `None` when the object has no armed interleaving on the faulted key,
    /// so the fault belongs to [`Kard::handle_pool_fault`]. The armed check
    /// and the observation share one interleaver guard: the last
    /// participant's section exit retires an interleaving under that guard
    /// alone, without the object's fault shard.
    pub(super) fn handle_interleave_fault(
        &self,
        fault: &GpFault,
        info: &ObjectInfo,
        offset: u64,
    ) -> Option<FaultAction> {
        let t = fault.thread;
        let obs = observation(fault, self.current_section(t), offset);
        let ikey = fault.pkey;
        let (idx, verdict) = {
            let mut il = self.interleaver.lock();
            if !il.is_armed(info.id) || il.interleaved_key(info.id) != Some(ikey) {
                return None;
            }
            let idx = il.record_index(info.id).expect("armed");
            let (verdict, joined) = il.observe(info.id, obs);
            if joined {
                // Published while the interleaver guard is still held, so
                // no exit or free can observe the membership before the
                // counter reflects it.
                self.slot(t).participating.fetch_add(1, Ordering::Relaxed);
            }
            (idx, verdict)
        };
        AtomicStats::bump(&self.stats.interleave_faults);
        self.emit(t, EventKind::FaultInterleave, info.id.0, 0);
        match verdict {
            Verdict::Confirmed(_) => {
                let mut store = self.records.lock();
                if let Some(record) = store.records[idx].as_mut() {
                    record.holding.offset = Some(obs.offset);
                    record.holding.ip = obs.ip;
                }
            }
            Verdict::PrunedDifferentOffset => {
                let mut store = self.records.lock();
                if let Some(record) = store.records[idx].take() {
                    store.seen.remove(&record.fingerprint());
                    AtomicStats::bump(&self.stats.races_pruned_offset);
                    self.emit(t, EventKind::RacePruneOffset, record.object.0, 0);
                    store.withdrawn.push((idx, record));
                }
            }
        }
        // Suspend protection until the conflicting threads exit (§5.5).
        self.lock_keys().unassign_object(ikey, info.id);
        self.transition(t, info.id, DomainCode::ReadWrite, Domain::Suspended);
        Some(FaultAction::Retry)
    }

    /// Faults on read-write pool keys: reactive acquisition or race
    /// detection (§5.4–§5.5, Figure 3c).
    fn handle_pool_fault(&self, fault: &GpFault, info: &ObjectInfo, offset: u64) -> FaultAction {
        let t = fault.thread;
        let key = fault.pkey;
        let section = self.current_section(t);
        let cost = &self.cost;
        self.machine.charge(t, cost.map_op); // key-section map lookup

        /// What the single key-table inspection decided.
        enum PoolOutcome {
            Conflict(ThreadId, SectionId),
            RecentRelease(ThreadId),
            AcquiredReactive,
            NoSection,
        }

        let outcome = {
            let mut keys = self.lock_keys();
            let key_state = keys.state(key);
            // Who conflicts? A read conflicts with a write holder; a write
            // conflicts with any holder.
            let conflicting_holder: Option<(ThreadId, SectionId)> = match fault.access {
                AccessKind::Read => key_state
                    .writer()
                    .filter(|&w| w != t)
                    .map(|w| (w, key_state.holders[&w].section)),
                AccessKind::Write => key_state
                    .holders
                    .iter()
                    .filter(|(&h, _)| h != t)
                    .map(|(&h, i)| (h, i.section))
                    .min_by_key(|&(h, _)| h),
            };

            // §5.5 timestamp check. The fault is raised at `fault.seq` but
            // the handler runs roughly one fault-handling delay later, so a
            // holder may release the key in between. Kard compares the
            // release stamp against the handler invocation time: a release
            // within one average delay of handler entry means the key *was*
            // held when the fault occurred — i.e. the release postdates
            // the raise. Releases are stamped with the machine's
            // fault-raise count (`Machine::faults_raised`), so `rel >
            // fault.seq` holds exactly when the release read the count
            // after this fault was raised. Any window width of one or
            // more reduces to that comparison, so no width is configured.
            let recent_release = self.config.timestamp_filter
                && conflicting_holder.is_none()
                && key_state.last_writer_release.is_some_and(|rel| rel > fault.seq);
            if conflicting_holder.is_none()
                && !recent_release
                && key_state.last_writer_release.is_some()
            {
                AtomicStats::bump(&self.stats.races_filtered_timestamp);
                self.emit(t, EventKind::TimestampFiltered, u64::from(key.0), 0);
            }

            if let Some((holder_thread, holder_section)) = conflicting_holder {
                PoolOutcome::Conflict(holder_thread, holder_section)
            } else if recent_release {
                let holder = key_state
                    .last_writer
                    .expect("recent release implies a recorded releaser");
                PoolOutcome::RecentRelease(holder)
            } else if let Some(sec) = section {
                // No conflict, inside a section: reactive acquisition
                // (Algorithm 1 lines 13–18 / 22–26), under the same guard
                // that just proved no conflicting holder exists.
                let perm = perm_for(fault.access);
                let ok = keys.try_acquire(key, t, perm, sec);
                debug_assert!(ok, "no conflicting holder, acquisition must succeed");
                PoolOutcome::AcquiredReactive
            } else {
                PoolOutcome::NoSection
            }
        };

        match outcome {
            PoolOutcome::Conflict(holder_thread, holder_section) => {
                AtomicStats::bump(&self.stats.race_check_faults);
                self.emit(t, EventKind::FaultRaceCheck, info.id.0, 1);
                let idx =
                    self.report_race(fault, info, section, holder_thread, Some(holder_section));

                // Protection interleaving (Figure 4): only meaningful for a
                // fresh record, when the faulter is inside a critical
                // section (only there can it hold a key) and a key can be
                // found.
                if self.config.protection_interleaving
                    // Production mode backs off arming first under a fault
                    // storm: interleavings are the most delay-expensive
                    // detection stage (§5.5 exit stalls), and suppressing
                    // them sheds load without touching what is monitored.
                    && !self.budget.suppress_arming()
                    && !self.interleaver.lock().is_active(info.id)
                {
                    if let (Some(idx), Some(sec)) = (idx, section) {
                        // A key to re-protect the object with: one already
                        // held by `t`, else a fresh pool key (Figure 4,
                        // line 7). The held-key lookup happens before the
                        // key-table guard below — `t` is mid-fault, so its
                        // held set cannot change in between.
                        let held_min = self
                            .slot(t)
                            .ctx
                            .with(|ctx| ctx.held.keys().min().copied());
                        let armed_key = {
                            let mut keys = self.lock_keys();
                            // Re-validate the conflict: it was decided under
                            // an earlier key-table guard, and `lock_exit`
                            // does not take the fault mutex, so the holder
                            // may have released the key — and even left all
                            // its critical sections — in the window. Arming
                            // against a departed holder would create an
                            // interleaving that can never finish (no
                            // `thread_left` event will ever remove it), so
                            // abort the arming instead; the race record
                            // already pushed above stands either way.
                            if !keys.state(key).holders.contains_key(&holder_thread) {
                                None
                            } else if let Some(ikey) =
                                held_min.or_else(|| keys.unassigned_key())
                            {
                                keys.unassign_object(key, info.id);
                                keys.assign_object(ikey, info.id);
                                keys.force_acquire(ikey, t, perm_for(fault.access), sec);
                                // Arm while still holding the key-table
                                // guard: the holder cannot complete a key
                                // release (and hence cannot reach
                                // `thread_left_critical_sections`) until the
                                // guard drops, so `begin` always records a
                                // holder that is still inside its sections.
                                // The participating counters are bumped
                                // inside the interleaver critical section
                                // that publishes the interleaving, so no
                                // exit or free path can observe it and
                                // decrement a counter before it was
                                // incremented.
                                let mut il = self.interleaver.lock();
                                il.begin(
                                    info.id,
                                    idx,
                                    key,
                                    ikey,
                                    observation(fault, section, offset),
                                    holder_thread,
                                );
                                self.slot(t).participating.fetch_add(1, Ordering::Relaxed);
                                self.slot(holder_thread)
                                    .participating
                                    .fetch_add(1, Ordering::Relaxed);
                                self.emit(
                                    t,
                                    EventKind::InterleaveArm,
                                    info.id.0,
                                    u64::from(ikey.0),
                                );
                                Some(ikey)
                            } else {
                                None
                            }
                        };
                        if let Some(ikey) = armed_key {
                            self.note_held_and_record(t, ikey, perm_for(fault.access));
                            // A rebind to the interleaved key, not a migration.
                            self.transition(
                                t,
                                info.id,
                                DomainCode::ReadWrite,
                                Domain::ReadWrite(ikey),
                            );
                            self.grant_in_context(t, ikey);
                            return FaultAction::Retry;
                        }
                    }
                }
                FaultAction::Emulated
            }
            PoolOutcome::RecentRelease(holder) => {
                // The key holder released in the window between the fault
                // and the handler running (§5.5's timestamp check): treat
                // the key as held at fault time. The last write-releaser
                // identifies the holding side; there is no live holder to
                // interleave against, so report only.
                AtomicStats::bump(&self.stats.race_check_faults);
                self.emit(t, EventKind::FaultRaceCheck, info.id.0, 2);
                if holder != t {
                    // The holder already exited its section.
                    self.report_race(fault, info, section, holder, None);
                }
                FaultAction::Emulated
            }
            PoolOutcome::AcquiredReactive => {
                let sec = section.expect("reactive acquisition implies a section");
                AtomicStats::bump(&self.stats.reactive_acquisitions);
                self.emit(t, EventKind::KeyGrant, u64::from(key.0), GRANT_REACTIVE);
                self.note_held_and_record(t, key, perm_for(fault.access));
                self.sections
                    .write()
                    .record(sec, info.id, perm_for(fault.access), true);
                self.machine.charge(t, cost.map_op * 2);
                self.grant_in_context(t, key);
                FaultAction::Retry
            }
            // Outside any section with a free key: the access is unordered
            // but not an ILU race; emulate and move on.
            PoolOutcome::NoSection => FaultAction::Emulated,
        }
    }

    /// Build and store the race record for `fault` — the detector's one
    /// record shape. The faulting side is the fault itself (`section` is
    /// the faulter's, `None` when unlocked); the holding side is `holder`,
    /// in `holder_section` unless it already left it. The holder's access
    /// site and offset are unknown here — its `ip` stands in as its section
    /// site until protection interleaving observes the counterpart access.
    /// Respects redundant-report pruning: returns the record's index if it
    /// was (newly) stored.
    pub(super) fn report_race(
        &self,
        fault: &GpFault,
        info: &ObjectInfo,
        section: Option<SectionId>,
        holder: ThreadId,
        holder_section: Option<SectionId>,
    ) -> Option<usize> {
        let record = RaceRecord {
            object: info.id,
            faulting: RaceSide {
                thread: fault.thread,
                section,
                ip: fault.ip,
                offset: Some(fault.addr.0.saturating_sub(info.base.0)),
            },
            holding: RaceSide {
                thread: holder,
                section: holder_section,
                ip: holder_section.map_or(CodeSite(0), |s| s.0),
                offset: None,
            },
            access: fault.access,
            tsc: fault.tsc,
        };
        let mut store = self.records.lock();
        if !store.seen.insert(record.fingerprint()) {
            AtomicStats::bump(&self.stats.races_pruned_redundant);
            self.emit(
                record.faulting.thread,
                EventKind::RacePruneRedundant,
                record.object.0,
                0,
            );
            return None;
        }
        self.emit(
            record.faulting.thread,
            EventKind::RaceReport,
            record.object.0,
            record.faulting.thread.0 as u64,
        );
        store.records.push(Some(record));
        Some(store.records.len() - 1)
    }
}

/// What §5.5 interleaving records of the faulting access.
fn observation(fault: &GpFault, section: Option<SectionId>, offset: u64) -> Observation {
    Observation {
        thread: fault.thread,
        section,
        offset,
        kind: fault.access,
        ip: fault.ip,
    }
}

fn perm_for(kind: AccessKind) -> Perm {
    match kind {
        AccessKind::Read => Perm::Read,
        AccessKind::Write => Perm::Write,
    }
}
