//! Section entry and exit (§5.4): the zero-shared-lock entry that replays
//! the section's published plan, the locked entry that rebuilds and
//! publishes it, and the exit that releases keys and restores finished
//! interleavings. The plan words and their protocol are in
//! [`super::plan`].

use super::plan::{Plan, SectionBook, SectionPlans};
use super::thread::{Frame, ThreadCtx, TinyVec};
use super::Kard;
use crate::domains::Domain;
use crate::config::KeyMode;
use crate::stats::AtomicStats;
use crate::types::{LockId, Perm, SectionId, SectionMode};
use kard_sim::{CodeSite, Permission, Pkru, ProtectionKey, ThreadId};
use kard_telemetry::event::{DomainCode, GRANT_PROACTIVE};
use kard_telemetry::EventKind;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What the attempt under the thread's own cell decided.
enum FastEntry {
    /// Committed from the section's plan: the key (if any) is held and
    /// the frame pushed; the caller replays the locked path's charges.
    Hit(Plan),
    /// The locked path must run.
    Locked {
        /// At nesting depth zero with nothing held — the entries the
        /// hit/miss counters are about.
        eligible: bool,
        /// The thread's handle to the section's plans, if it has entered
        /// the section before.
        plans: Option<Arc<SectionPlans>>,
        /// A fast acquire that failed re-validation after a key-table
        /// guard had already materialized it: strip it through the table.
        strip: Option<ProtectionKey>,
    },
}

impl Kard {
    /// Critical-section entry: called *after* the program's lock is
    /// acquired. `site` is the lock call site identifying the section.
    pub fn lock_enter(&self, t: ThreadId, lock: LockId, site: CodeSite) {
        self.lock_enter_mode(t, lock, site, SectionMode::Exclusive);
    }

    /// Critical-section entry with an explicit [`SectionMode`] — the
    /// shared mode models `pthread_rwlock_rdlock` sections, whose keys are
    /// capped at read-only permission so that concurrent readers of the
    /// same section can all hold them.
    pub fn lock_enter_mode(&self, t: ThreadId, lock: LockId, site: CodeSite, mode: SectionMode) {
        let cost = &self.cost;
        let section = SectionId(site);
        let slot = self.slot(t);

        slot.cs_entries.fetch_add(1, Ordering::Relaxed);
        let active = self.active_sections.0.fetch_add(1, Ordering::Relaxed) + 1;
        AtomicStats::raise_to(&self.stats.max_concurrent_sections, active);
        self.emit(t, EventKind::SectionEnter, section.0 .0, active);
        // One charge covers the entry bookkeeping plus internal-
        // synchronization contention (§5.4: key acquisition is protected
        // by atomic operations): every program thread contends on the
        // runtime's shared state at each section entry — cache-line
        // transfers and lock hand-offs grow with the thread count even
        // when lock diversity bounds how many sections overlap. This is
        // the dominant reason Kard's overhead rises with threads (§7.4).
        let contenders = (self.machine.thread_count() as u64)
            .saturating_sub(1)
            .min(64);
        self.machine.charge(
            t,
            cost.lock_op
                + cost.atomic_op
                + cost.atomic_op * contenders
                + cost.contended_handoff * contenders * contenders.isqrt(),
        );

        let saved_pkru = self.machine.rdpkru(t);
        let mut new_pkru = saved_pkru.clone();
        // Retract k_na: first accesses to Not-accessed objects must fault.
        new_pkru.set_permission(self.layout.not_accessed, Permission::NoAccess);
        // The entry stamp feeds only the telemetry hold time, and
        // `Machine::now()` loads every registered thread's counter: read it
        // only while telemetry records. Kard's hardware stamps releases,
        // not entries (§5.4), so this is the simulator's cost, not Kard's.
        let entered = self.telemetry.enabled().then(|| self.machine.now());

        #[cfg(test)]
        if self.stale_every_entry.load(Ordering::Relaxed) {
            self.sections.read().stale_all_plans();
        }
        let proactive = self.config.proactive_acquisition;
        let fast = slot.ctx.with(|ctx| {
            self.commit_fast_enter(t, ctx, section, mode, lock, &saved_pkru, entered)
        });
        let known = match fast {
            FastEntry::Hit(plan) => {
                if proactive {
                    // Replay exactly the locked path's map charges, grant
                    // event, and stat bump for this plan (folded into one
                    // charge), so both paths account the same machine
                    // work for the same logical entry.
                    let mut map_ops = plan.wanted_len + 1;
                    if let Some((key, perm)) = plan.target {
                        map_ops += 1;
                        slot.proactive_acquisitions.fetch_add(1, Ordering::Relaxed);
                        self.emit(t, EventKind::KeyGrant, u64::from(key.0), GRANT_PROACTIVE);
                        new_pkru.set_permission(key, perm_to_permission(perm));
                    }
                    self.machine.charge(t, cost.map_op * map_ops);
                    slot.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                self.machine.wrpkru(t, new_pkru);
                return;
            }
            FastEntry::Locked { eligible, plans, strip } => {
                if let Some(key) = strip {
                    self.lock_keys().strip_holder(key, t);
                }
                if eligible && proactive {
                    slot.cache_misses.fetch_add(1, Ordering::Relaxed);
                }
                plans
            }
        };

        let mut frame = Frame {
            section,
            lock,
            saved_pkru,
            entered,
            acquired: TinyVec::new(),
        };

        let mut held_updates: Vec<(ProtectionKey, Perm)> = Vec::new();
        let mut first_entry: Option<Arc<SectionPlans>> = None;
        if proactive {
            // Figure 3b: look up the section-object map, then try to
            // acquire each object's key from the key-section map. The
            // wanted list is copied out, already in acquisition order,
            // under its own (briefly held) lock — a leaf, so the side
            // metadata below is reached only after it is dropped — and
            // each object's domain read with one load; the acquisitions
            // then run under one key-table guard. The plan word is
            // snapshotted under that lock, before the copy: the rebuilt
            // plan is published only if no writer touched it since.
            let open = |book: &SectionBook, plans: Arc<SectionPlans>| {
                let snap = plans.cell(mode).snapshot();
                (plans, snap, book.objects_in(section).collect::<Vec<_>>())
            };
            let (plans, snap, wanted) = match known {
                Some(plans) => open(&self.sections.read(), plans),
                // This thread's first entry: find the section's cells, or
                // create them if it is any thread's first.
                None => {
                    let mut book = self.sections.write();
                    let plans = book.plans_of(section);
                    first_entry = Some(Arc::clone(&plans));
                    open(&book, plans)
                }
            };
            self.machine
                .charge(t, cost.map_op * (wanted.len() as u64 + 1));
            let wanted_len = wanted.len() as u64;
            let mut targets: Vec<(ProtectionKey, Perm)> = Vec::new();
            for (obj, perm) in wanted {
                // Staleness of the domain read is covered by the snapshot
                // above.
                let Some(Domain::ReadWrite(key)) = self.domain_of(obj) else {
                    continue; // RO-domain objects need no key to read.
                };
                targets.push((key, mode.cap(perm)));
            }
            plans
                .cell(mode)
                .publish(snap, Plan::from_targets(wanted_len, &targets));
            let mut keys = self.lock_keys();
            for (key, perm) in targets {
                let prev = keys.holder_perm(key, t);
                if prev.is_some_and(|p| p >= perm) {
                    continue; // Already held strongly enough (outer frame).
                }
                self.machine.charge(t, cost.map_op);
                if keys.try_acquire(key, t, perm, section) {
                    slot.proactive_acquisitions.fetch_add(1, Ordering::Relaxed);
                    self.emit(t, EventKind::KeyGrant, u64::from(key.0), GRANT_PROACTIVE);
                    frame.acquired.push((key, prev));
                    let eff = keys.holder_perm(key, t).expect("just acquired");
                    new_pkru.set_permission(key, perm_to_permission(eff));
                    held_updates.push((key, eff));
                }
            }
        } else if known.is_none() {
            // This thread's first entry: register the section, so that
            // the book counts it and later entries take the plan-free hit.
            first_entry = Some(self.sections.write().plans_of(section));
        }

        slot.ctx.with(|ctx| {
            for (key, eff) in held_updates {
                ctx.held.insert(key, eff);
            }
            if let Some(plans) = first_entry {
                ctx.section_cache.insert(section, plans);
            }
            ctx.frames.push(frame);
        });
        // One WRPKRU installs k_na retraction plus all proactive grants.
        self.machine.wrpkru(t, new_pkru);
    }

    /// Attempt the zero-shared-lock section entry, under the thread's own
    /// cell: eligible only at nesting depth zero with nothing held, so the
    /// plan's empty-context simulation matches reality. Load the section's
    /// plan word through the thread's handle, acquire the plan's key (if
    /// any) with one CAS on its holder word, re-validate the plan word,
    /// and commit the frame. Anything else — having undone any partial
    /// effect — leaves the entry to the locked path.
    #[allow(clippy::too_many_arguments)]
    fn commit_fast_enter(
        &self,
        t: ThreadId,
        ctx: &mut ThreadCtx,
        section: SectionId,
        mode: SectionMode,
        lock: LockId,
        saved_pkru: &Pkru,
        entered: Option<u64>,
    ) -> FastEntry {
        let eligible = ctx.frames.is_empty() && ctx.held.is_empty();
        let plans = ctx.section_cache.get(&section);
        let mut strip = None;
        let plan = if !eligible {
            None
        } else if !self.config.proactive_acquisition {
            // Nothing to look up or acquire: the slow path would charge
            // and grant nothing either, once the section is registered.
            plans.map(|_| Plan::EMPTY)
        } else {
            plans.and_then(|plans| {
                let cell = plans.cell(mode);
                let snap = cell.snapshot();
                let plan = snap.replayable()?;
                if let Some((key, perm)) = plan.target {
                    if !self.words.try_fast_acquire(key, t, perm, section) {
                        return None; // Held, mid-publish, or parked: contended.
                    }
                    // The plan was current before the CAS, but a mutation
                    // that reaches this section (say, the key recycled to
                    // different objects) may have landed in between.
                    // Re-check after the acquire is visible; on mismatch
                    // retract it as if it never happened.
                    if cell.snapshot() != snap {
                        if !self.words.undo_fast_acquire(key, t, perm) {
                            // A concurrent guard already materialized the
                            // hold into the table; the caller strips it
                            // through the mutex, outside this cell.
                            strip = Some(key);
                        }
                        return None;
                    }
                }
                Some(plan)
            })
        };
        let Some(plan) = plan else {
            return FastEntry::Locked {
                eligible,
                plans: plans.cloned(),
                strip,
            };
        };
        let mut acquired = TinyVec::new();
        if let Some((key, perm)) = plan.target {
            ctx.held.insert(key, perm);
            acquired.push((key, None));
        }
        ctx.frames.push(Frame {
            section,
            lock,
            saved_pkru: saved_pkru.clone(),
            entered,
            acquired,
        });
        FastEntry::Hit(plan)
    }

    /// Critical-section exit: called *before* the program's unlock.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced or mismatched lock/unlock pairs.
    pub fn lock_exit(&self, t: ThreadId, lock: LockId) {
        let slot = self.slot(t);
        // Delay injection (§5.5): stall the exit while an interleaving
        // this thread participates in is still waiting for the counterpart
        // fault, so small critical sections do not slip away before the
        // offset test can run. One relaxed load of the per-thread armed
        // counter — the non-faulting exit path takes no detector-wide
        // lock for this check.
        if self.config.interleave_exit_delay > 0 && slot.armed.load(Ordering::Relaxed) > 0 {
            self.machine.charge(t, self.config.interleave_exit_delay);
            // On real OS threads, actually give the counterpart a
            // chance to run; a no-op under single-threaded replay.
            std::thread::yield_now();
        }
        let cost = &self.cost;
        // One charge covers the exit bookkeeping plus the RDTSCP that
        // timestamps key releases (§5.4); the clock is read after the
        // fold, so the stamp matches what separate charges would yield.
        self.machine
            .charge(t, cost.lock_op + cost.atomic_op + cost.rdtscp);
        let now = self.machine.now();

        let (frame, releases, outside_now) = slot.ctx.with(|ctx| {
            let frame = ctx.frames.pop().expect("unlock without lock");
            assert_eq!(frame.lock, lock, "mismatched unlock");
            // Restore the held map, remembering each key's effective
            // permission during the section (`eff`) — a fast release must
            // CAS against exactly the permission the holder word carries.
            let mut releases: TinyVec<(ProtectionKey, Option<Perm>, Option<Perm>)> =
                TinyVec::new();
            for &(key, prev) in frame.acquired.iter().rev() {
                let eff = match prev {
                    None => ctx.held.remove(&key),
                    Some(perm) => ctx.held.insert(key, perm),
                };
                releases.push((key, prev, eff));
            }
            let outside_now = ctx.frames.is_empty();
            (frame, releases, outside_now)
        });

        // Undo the frame's key-table changes. A newly-acquired key whose
        // holder word is still fast-published releases with one CAS
        // (stamping the §5.4 release time into the word's side slots);
        // everything else — downgrades, materialized holds — batches
        // under one key-table guard.
        let mut slow_releases: Vec<(ProtectionKey, Option<Perm>)> = Vec::new();
        for &(key, prev, eff) in releases.iter() {
            self.machine.charge(t, cost.map_op);
            let fast_done = prev.is_none()
                && eff.is_some_and(|perm| self.words.try_fast_release(key, t, perm, now));
            if !fast_done {
                slow_releases.push((key, prev));
            }
        }
        if !slow_releases.is_empty() {
            let mut keys = self.lock_keys();
            for &(key, prev) in &slow_releases {
                match prev {
                    None => keys.release(key, t, now),
                    Some(perm) => keys.downgrade(key, t, perm),
                }
            }
        }
        self.active_sections.0.fetch_sub(1, Ordering::Relaxed);
        if self.telemetry.enabled() {
            // A frame entered while telemetry was off carries no stamp:
            // its exit is still an event, but it has no hold to sample.
            let hold = frame
                .entered
                .map(|entered| self.machine.now().saturating_sub(entered));
            self.emit(t, EventKind::SectionExit, frame.section.0 .0, hold.unwrap_or(0));
            if let Some(hold) = hold {
                self.telemetry.histograms().section_hold.record(hold);
            }
        }

        // The interleaver cares about this exit only if this thread is a
        // recorded participant of some interleaving. The relaxed counter
        // mirrors exactly that membership (every bump happens under the
        // guards that publish the participation, every decrement under
        // the removal), so when it reads zero
        // `thread_left_critical_sections` would be a no-op and the exit
        // skips the interleaver lock entirely.
        if outside_now && slot.participating.load(Ordering::Relaxed) > 0 {
            let (finished, armed_removed, removed) =
                self.interleaver.lock().thread_left_critical_sections(t);
            if armed_removed > 0 {
                let prev = slot.armed.fetch_sub(armed_removed, Ordering::Relaxed);
                debug_assert!(prev >= armed_removed, "armed counter underflow");
            }
            if removed > 0 {
                let prev = slot.participating.fetch_sub(removed, Ordering::Relaxed);
                debug_assert!(prev >= removed, "participating counter underflow");
            }
            if !finished.is_empty() {
                // §5.5: restore each object's protection now that every
                // conflicting thread has left its critical section. Each
                // restoration runs under that object's fault shard:
                // `on_free` serializes on it, so the liveness check and
                // the re-protection below are atomic with respect to a
                // concurrent free — without it, a free sneaking in between
                // them would panic `alloc.protect` on an unknown object and
                // leave ghost domain/key-table entries for a dead id.
                // Restorations of objects in other shards, and unrelated
                // fault handlers, proceed in parallel.
                for fin in finished {
                    let shard = self.fault_shards.enter_object(fin.object);
                    self.note_fault_entry(t, &shard);
                    if self.alloc.object(fin.object).is_none() {
                        continue; // Freed while suspended.
                    }
                    // The interleaving left the engine before this guard was
                    // taken, so a fault handler that held the shard first may
                    // have armed a new one on the object; that one owns its
                    // protection now, and restoring the old key under it
                    // would hand a suspended object back to the race checker.
                    if self.interleaver.lock().is_active(fin.object) {
                        continue;
                    }
                    // Under virtualization the object's *group* owns the
                    // binding, and the cache may have moved on while the
                    // interleaving wound down: restore onto the group's
                    // current hardware key, or — if the group was evicted
                    // while suspended — demote to the Read-only domain and
                    // let the next write revive the group. The direct
                    // detector restores the remembered key unconditionally,
                    // which can alias a key that was since re-assigned.
                    let target = match self.config.keys {
                        KeyMode::Virtual(_) => {
                            let vkeys = self.vkeys.lock();
                            vkeys.vkey_of(fin.object).and_then(|v| vkeys.binding(v))
                        }
                        KeyMode::Direct { .. } => Some(fin.original_key),
                    };
                    let restored = match target {
                        Some(key) => {
                            self.lock_keys().assign_object(key, fin.object);
                            Domain::ReadWrite(key)
                        }
                        None => Domain::ReadOnly,
                    };
                    self.transition(t, fin.object, DomainCode::Suspended, restored);
                    self.emit(
                        t,
                        EventKind::InterleaveFinish,
                        fin.object.0,
                        u64::from(self.key_worn(restored).0),
                    );
                }
            }
        }
        self.machine.wrpkru(t, frame.saved_pkru);
    }

    pub(super) fn current_section(&self, t: ThreadId) -> Option<SectionId> {
        self.try_slot(t)
            .and_then(|slot| slot.ctx.with(|ctx| ctx.frames.last().map(|f| f.section)))
    }

    /// Track `key` in the thread's held map (joining permissions) and
    /// remember the acquisition in the innermost frame so it is undone at
    /// section exit. Returns the previous perm.
    pub(super) fn note_held_and_record(
        &self,
        t: ThreadId,
        key: ProtectionKey,
        perm: Perm,
    ) -> Option<Perm> {
        self.slot(t).ctx.with(|ctx| {
            let prev = ctx.held.get(&key).copied();
            let joined = prev.map_or(perm, |p| p.join(perm));
            ctx.held.insert(key, joined);
            if let Some(frame) = ctx.frames.last_mut() {
                if prev != Some(joined) {
                    frame.acquired.push((key, prev));
                }
            }
            prev
        })
    }

    /// Install the thread's current effective permission for `key` through
    /// its saved context (the fault-handler path, §5.4).
    pub(super) fn grant_in_context(&self, t: ThreadId, key: ProtectionKey) {
        let perm = self.slot(t).ctx.with(|ctx| ctx.held.get(&key).copied());
        let mut pkru = self.machine.rdpkru(t);
        pkru.set_permission(
            key,
            perm.map_or(Permission::NoAccess, perm_to_permission),
        );
        self.machine.set_pkru_in_saved_context(t, pkru);
    }
}

fn perm_to_permission(perm: Perm) -> Permission {
    match perm {
        Perm::Read => Permission::ReadOnly,
        Perm::Write => Permission::ReadWrite,
    }
}
