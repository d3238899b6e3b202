//! Key assignment and eviction (§5.4): moving an object into the
//! Read-write domain under a key picked by the direct policy or by the
//! virtual-key cache — two paths, because they differ in victim order,
//! held victims, group memory, demotion batching, counters and events —
//! plus the side effects of the choice: demoting a recycled or evicted
//! key's objects, stripping revoked holders, and re-checking a revived
//! group's logical holders.

use super::Kard;
use crate::assignment::{choose_key, choose_virtual, Assignment, Eviction, VAssignment};
use crate::config::{ExhaustionPolicy, KeyMode};
use crate::domains::Domain;
use crate::faultshard::FaultPathGuard;
use crate::stats::AtomicStats;
use crate::types::{Perm, SectionId};
use crate::vkey::LogicalHolder;
use kard_alloc::{ObjectId, ObjectInfo};
use kard_sim::{GpFault, Permission, ProtectionKey, ThreadId};
use kard_telemetry::event::{DomainCode, GRANT_REACTIVE};
use kard_telemetry::EventKind;
use std::collections::HashMap;

impl Kard {
    /// §5.3 / §5.4: move an object into the Read-write domain, picking a
    /// key with the effective-assignment policy (direct or virtualized)
    /// and acquiring it reactively. `from` names the source domain, for
    /// the migration event.
    pub(super) fn migrate_to_read_write(
        &self,
        fault: &GpFault,
        section: SectionId,
        info: &ObjectInfo,
        from: DomainCode,
        shard: &FaultPathGuard<'_>,
    ) {
        let t = fault.thread;

        // Rule 1 candidates: keys the thread holds *for the current
        // section*. The paper says "one of the held protection keys"
        // without specifying which; restricting reuse to the innermost
        // section keeps one key's objects under one lock's discipline —
        // reusing an outer (different-lock) key would alias objects across
        // locks and manufacture spurious conflicts under nesting.
        let held_all: Vec<(ProtectionKey, Perm)> = self
            .slot(t)
            .ctx
            .with(|ctx| ctx.held.iter().map(|(&k, &p)| (k, p)).collect());
        let held: Vec<(ProtectionKey, Perm)> = {
            let keys = self.lock_keys();
            let mut held: Vec<(ProtectionKey, Perm)> = held_all
                .into_iter()
                .filter(|&(k, _)| {
                    keys.state(k).holders.get(&t).map(|h| h.section) == Some(section)
                })
                .collect();
            held.sort_by_key(|&(k, _)| k);
            held
        };

        let key = match self.config.keys {
            KeyMode::Virtual(_) => self.assign_virtual_key(fault, section, info, &held, shard),
            KeyMode::Direct {
                exhaustion,
                fresh_key_per_object,
            } => self.assign_direct_key(
                t,
                section,
                info,
                &held,
                exhaustion,
                fresh_key_per_object,
                shard,
            ),
        };
        self.machine.charge(t, self.cost.map_op * 2);

        self.sections.write().record(section, info.id, Perm::Write, true);
        self.transition(t, info.id, from, Domain::ReadWrite(key));

        AtomicStats::bump(&self.stats.reactive_acquisitions);
        self.emit(t, EventKind::KeyGrant, u64::from(key.0), GRANT_REACTIVE);
        self.note_held_and_record(t, key, Perm::Write);
        self.grant_in_context(t, key);
    }

    /// The paper's §5.4 effective-assignment policy on raw hardware keys.
    #[allow(clippy::too_many_arguments)] // the fault context plus the mode's two settings
    fn assign_direct_key(
        &self,
        t: ThreadId,
        section: SectionId,
        info: &ObjectInfo,
        held: &[(ProtectionKey, Perm)],
        exhaustion: ExhaustionPolicy,
        fresh_key_per_object: bool,
        shard: &FaultPathGuard<'_>,
    ) -> ProtectionKey {
        // Snapshot each pool key's holder sections, then evaluate the
        // sharing heuristic against the section-object map — the closure
        // passed to `choose_key` must not alias the mutable key table.
        let holder_sections: Vec<(ProtectionKey, Vec<SectionId>)> = {
            let keys = self.lock_keys();
            keys.pool()
                .iter()
                .map(|&k| {
                    (
                        k,
                        keys.state(k).holders.values().map(|h| h.section).collect(),
                    )
                })
                .collect()
        };
        let conflicts: HashMap<ProtectionKey, bool> = {
            let map = self.sections.read();
            holder_sections
                .into_iter()
                .map(|(k, sections)| {
                    (
                        k,
                        sections.iter().any(|&s| map.section_accesses(s, info.id)),
                    )
                })
                .collect()
        };

        // Rule 3a demotes the recycled key's objects, and a demotion must
        // not interleave with a fault in flight on one of them: a
        // candidate is committed only after a non-blocking claim of its
        // objects' fault shards (module-doc rule 3). The claims stay held
        // until the demotions below are applied.
        let mut claims = self.fault_shards.claims(shard);
        let (assignment, key) = {
            let mut keys = self.lock_keys();
            // Conformance mode: rule 1 is skipped while fresh keys remain,
            // yielding key-per-object granularity.
            let held_for_rule1: &[(ProtectionKey, Perm)] =
                if fresh_key_per_object && keys.unassigned_key().is_some() {
                    &[]
                } else {
                    held
                };
            let assignment = choose_key(
                &mut keys,
                t,
                Perm::Write,
                exhaustion,
                held_for_rule1,
                |candidate| conflicts.get(&candidate).copied().unwrap_or(false),
                |members| claims.claim(members),
            );
            let key = assignment.key();
            keys.assign_object(key, info.id);
            // Reactive acquisition via the saved context (§5.4), forced: a
            // shared key — or a held key that is itself shared (other
            // holders present) — would reject exclusive acquisition; the
            // object then simply joins the shared key, which is the
            // sharing semantics already accounted for.
            keys.force_acquire(key, t, Perm::Write, section);
            (assignment, key)
        };

        match &assignment {
            Assignment::HeldKey(_) | Assignment::FreshKey(_) => {}
            Assignment::Recycled { evicted, .. } => {
                AtomicStats::bump(&self.stats.key_recycles);
                self.emit(
                    t,
                    EventKind::KeyRecycle,
                    u64::from(key.0),
                    evicted.len() as u64,
                );
                // Demote the recycled key's objects to the Read-only
                // domain; their next write re-identifies them (§5.4).
                for &obj in evicted {
                    if self.alloc.object(obj).is_some() {
                        self.transition(t, obj, DomainCode::ReadWrite, Domain::ReadOnly);
                    }
                }
            }
            Assignment::Shared(_) => {
                AtomicStats::bump(&self.stats.key_shares);
                self.emit(t, EventKind::KeyShare, u64::from(key.0), 0);
            }
        }
        key
    }

    /// The virtualized assignment path ([`crate::vkey`]): decide under the
    /// `keys` → `vkeys` guards, then apply eviction and revival side
    /// effects. On the hit/fill paths this charges exactly what the direct
    /// policy charges, which is what keeps the two modes byte-identical
    /// while at most 13 groups are live.
    fn assign_virtual_key(
        &self,
        fault: &GpFault,
        section: SectionId,
        info: &ObjectInfo,
        held: &[(ProtectionKey, Perm)],
        shard: &FaultPathGuard<'_>,
    ) -> ProtectionKey {
        let t = fault.thread;

        // An eviction demotes the victim group's members, so a victim is
        // committed only after a non-blocking claim of its members' fault
        // shards (module-doc rule 3) — a refused claim makes the cache
        // pick the next candidate. The claims stay held until
        // `apply_eviction` below has finished the demotions.
        let mut claims = self.fault_shards.claims(shard);
        let va = {
            let mut keys = self.lock_keys();
            let mut vkeys = self.vkeys.lock();
            let va = choose_virtual(
                &mut vkeys,
                &mut keys,
                t,
                info.id,
                Perm::Write,
                held,
                |members| self.group_heat(members),
                |members| claims.claim(members),
            );
            let key = va.key();
            // Key synchronization, map half: a still-held victim key is
            // revoked from its holders *before* the new acquisition, so
            // the faulter becomes the clean key's only holder. The context
            // half (PKRU and frame surgery) happens outside the guards.
            for h in va.eviction().iter().flat_map(|ev| &ev.stripped) {
                keys.strip_holder(key, h.thread);
            }
            keys.assign_object(key, info.id);
            // Forced, as on the direct path: joining a held group's key
            // must not be refused by its other holders.
            keys.force_acquire(key, t, Perm::Write, section);
            vkeys.note_pressure();
            let stats = vkeys.stats_mut();
            match &va {
                VAssignment::Hit { .. } | VAssignment::Join { .. } => stats.hits += 1,
                VAssignment::Fill { .. } => stats.fills += 1,
                VAssignment::Revive { .. } => stats.revivals += 1,
                VAssignment::Shared { .. } => stats.shares += 1,
            }
            if let Some(ev) = va.eviction() {
                stats.evictions += 1;
                if !ev.stripped.is_empty() {
                    stats.synced_evictions += 1;
                }
            }
            // Mirror the (possibly new) group membership while the vkey
            // table is still locked: the membership word answers the
            // lock-free "was this object ever grouped?" question on the
            // free path. Idempotent on hits.
            self.sidemeta.set_vkey(info.id, va.vkey());
            va
        };

        let key = va.key();
        let vkey = va.vkey();
        match &va {
            VAssignment::Hit { .. } | VAssignment::Join { .. } => {
                self.emit(t, EventKind::VKeyHit, vkey.0, u64::from(key.0));
            }
            VAssignment::Fill { .. } | VAssignment::Revive { .. } => {
                self.emit(t, EventKind::VKeyMiss, vkey.0, u64::from(key.0));
                if let Some(ev) = va.eviction() {
                    self.apply_eviction(t, key, ev);
                }
                if let VAssignment::Revive { logical, .. } = &va {
                    self.check_logical_holders(fault, section, info, logical);
                }
            }
            VAssignment::Shared { .. } => {
                AtomicStats::bump(&self.stats.key_shares);
                self.emit(t, EventKind::KeyShare, u64::from(key.0), 0);
            }
        }
        key
    }

    /// Apply an eviction's side effects: strip the freed hardware key from
    /// every context that still held it (the libmpk IPI, `pkey_sync` per
    /// holder, charged to the evictor) and demote the victim group's
    /// members to the Read-only domain with one grouped `pkey_mprotect`.
    fn apply_eviction(&self, t: ThreadId, key: ProtectionKey, ev: &Eviction) {
        let cost = &self.cost;
        self.emit(
            t,
            EventKind::VKeyEvict,
            ev.victim.0,
            ev.demoted.len() as u64,
        );
        for h in &ev.stripped {
            self.strip_holder_context(h.thread, key);
            self.machine.charge(t, cost.pkey_sync);
        }
        let live: Vec<ObjectId> = ev
            .demoted
            .iter()
            .copied()
            .filter(|&obj| self.alloc.object(obj).is_some())
            .collect();
        self.emit(t, EventKind::VKeyDemoteBatch, ev.victim.0, live.len() as u64);
        self.demote_batch(t, &live);
    }

    /// The context half of key synchronization: erase every trace of the
    /// revoked `key` from `h`'s detector context — the held map, each
    /// frame's acquisition journal (its keymap entries are already gone)
    /// and saved PKRU, and the live PKRU, so `h` faults on its next access
    /// to the rebound key instead of silently reaching the new group.
    /// `h` is in general driven by another OS thread, so its register is
    /// read with [`kard_sim::Machine::rdpkru_of`], which charges `h`
    /// through the words its own OS thread never writes.
    fn strip_holder_context(&self, h: ThreadId, key: ProtectionKey) {
        if let Some(slot) = self.try_slot(h) {
            slot.ctx.with(|ctx| {
                ctx.held.remove(&key);
                for frame in &mut ctx.frames {
                    frame.acquired.retain(|&(k, _)| k != key);
                    frame.saved_pkru.set_permission(key, Permission::NoAccess);
                }
            });
        }
        let mut pkru = self.machine.rdpkru_of(h);
        pkru.set_permission(key, Permission::NoAccess);
        self.machine.set_pkru_in_saved_context(h, pkru);
    }

    /// The revival race re-check: an evicted group's stripped holders can
    /// no longer raise hardware conflicts, so when a fault brings the
    /// group back, test the faulting access against each logical holder
    /// still inside the section it held the key for. This restores exactly
    /// the detection that §5.4 key *sharing* silently drops (§7.3).
    fn check_logical_holders(
        &self,
        fault: &GpFault,
        section: SectionId,
        info: &ObjectInfo,
        logical: &[LogicalHolder],
    ) {
        let t = fault.thread;
        let Some(holder) = logical.iter().find(|h| {
            h.thread != t
                && self.try_slot(h.thread).is_some_and(|slot| {
                    slot.ctx
                        .with(|ctx| ctx.frames.iter().any(|f| f.section == h.section))
                })
                // A logical holder held the *group's* key, which covers
                // sibling objects the holder never touched. Only a holder
                // whose section is known to access the faulting object
                // (§5.3's section-object map) can actually conflict on
                // it; without this filter, reviving a group via a
                // private member would re-report against every sibling's
                // holder.
                && self.sections.read().section_accesses(h.section, info.id)
        }) else {
            return;
        };
        AtomicStats::bump(&self.stats.race_check_faults);
        self.emit(t, EventKind::FaultRaceCheck, info.id.0, 3);
        self.report_race(fault, info, Some(section), holder.thread, Some(holder.section));
    }

    /// Score a candidate victim group for [`KeyCachePolicy::Hotness`]:
    /// the heat of its hottest member (a group stays resident as long as
    /// *any* member is hot).
    fn group_heat(&self, members: &[ObjectId]) -> u64 {
        members
            .iter()
            .map(|&id| self.sidemeta.hot(id))
            .max()
            .unwrap_or(0)
    }
}
