//! Section plans: what proactive key acquisition (§5.4, Figure 3b) does at
//! an entry to a section, computed once, kept with the section, and kept
//! current by the mutations that change it. This is the one place the
//! plan protocol is stated; everything else points here.
//!
//! A section's [`Plan`] is a function of exactly two things: the
//! section's entry in the section-object map (which objects, with which
//! permission) and the domain word of each of those objects — and of the
//! second only through the objects in the Read-write domain, since no
//! other domain contributes a key. Each section the detector has entered
//! owns one [`SectionPlans`] (a cell per [`SectionMode`]), created at the
//! first entry in either acquisition mode, never removed (so their number
//! is `DetectorStats::unique_sections`), and shared by handle: the
//! [`SectionBook`] keeps one `Arc` beside the map so that writers find
//! it under the `sections` lock, and every thread that entered the
//! section keeps another in its own `section_cache`, so that a warm entry
//! reaches the cell with one private hash lookup and no shared lock.
//!
//! **The word.** A cell is one atomic word holding a whole plan and a
//! generation, so no reader can pair one version's length with another's
//! target:
//!
//! ```text
//!   bit 0        VALID   a plan is published (clear: stale, rebuild)
//!   bit 1        FAST    the plan replays with at most one CAS
//!   bit 2        target permission (1 = write)
//!   bits 3..20   target key + 1 (0 = the plan acquires no key)
//!   bits 20..42  wanted_len, the section's object count
//!   bits 42..64  generation, bumped by every writer touch
//! ```
//!
//! **Writers** (all on the fault and free paths) are as narrow as the
//! mutation, and touch a cell only *after* the map entry or domain word
//! they changed is written:
//!
//! * [`SectionBook::record`] and [`SectionBook::forget`] edit the map and
//!   touch the affected sections' cells inside one `sections` write-lock
//!   hold. When the object is outside the Read-write domain before and
//!   after (identification by read; the free of a read-only object) the
//!   acquisition fold cannot change, so the writer **patches**
//!   `wanted_len` in place and the plan stays valid for every thread; a
//!   Read-write object marks the cell **stale**. A patch is relative, so
//!   it must be atomic with the map edit against a rebuilder's map read:
//!   that is why both happen under the write lock.
//! * The domain-transition funnel (`transition` / `demote_batch`) calls
//!   [`SectionBook::stale_plans_of`] under the read lock for every move
//!   into or out of the Read-write domain (or between two of its keys),
//!   reaching just the sections in `by_object[o]`. Moves among
//!   Not-accessed, Read-only and Suspended leave every fold as it was and
//!   touch nothing.
//!
//! Every touch — patch or stale, whatever the word held — bumps the
//! generation.
//!
//! **Readers.** A *hit* (`Kard::commit_fast_enter`) loads the word, and if
//! it is `VALID | FAST` with a target, CASes the key's holder word and
//! loads the cell again: equal words mean there was an instant at which
//! the thread held the key and the plan named it, which is all the locked
//! world needs (any later recycle or eviction of that key sees the holder
//! in the table). Unequal words retract the CAS (`undo_fast_acquire`, or
//! `strip_holder` through the key table when a guard already materialized
//! the hold) and the entry takes the locked path. A plan without a target
//! is one load. A *rebuild* (the locked path of `lock_enter_mode`)
//! snapshots the word under the `sections` lock no later than it copies
//! the section's objects, reads their domains with the lock dropped, and
//! publishes with one CAS from the snapshot ([`PlanCell::publish`]): any
//! writer touch in between moved the generation, so a plan built from a
//! torn read is never published, and one entry's rebuild serves every
//! thread. The generation is 22 bits: a publish can be fooled only if an
//! exact multiple of 4 Mi touches land on one section between a
//! rebuilder's snapshot and its CAS, microseconds apart. (A hit needs no
//! such bound: whatever happened in between, the word it re-loads is the
//! section's current plan.)

use crate::sections::{Recorded, SectionObjectMap};
use crate::types::{Perm, SectionId, SectionMode};
use kard_alloc::ObjectId;
use kard_sim::ProtectionKey;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a section entry from an empty context does: the locked path's
/// map lookups and, when `fast`, its one acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Plan {
    /// Length of the section's wanted list (for the map-lookup charge).
    pub(super) wanted_len: u64,
    /// The single key+permission to acquire, when `fast`.
    pub(super) target: Option<(ProtectionKey, Perm)>,
    /// Replayable with one CAS: at most one acquisition step. Multi-key
    /// and permission-widening plans always take the locked path.
    pub(super) fast: bool,
}

impl Plan {
    /// Nothing to look up or acquire: what an entry does with proactive
    /// acquisition off.
    pub(super) const EMPTY: Plan = Plan {
        wanted_len: 0,
        target: None,
        fast: true,
    };

    /// Simulate the locked entry path's acquisition fold from an empty
    /// context: per-key effective permission, counting strict-widening
    /// acquisition steps. The plan is replayable (`fast`) only when the
    /// whole fold is at most one step — one key, no widening — so the
    /// replay is exactly one CAS with exactly the slow path's charges,
    /// grant event, and stat bump.
    pub(super) fn from_targets(wanted_len: u64, targets: &[(ProtectionKey, Perm)]) -> Plan {
        let mut sim: HashMap<ProtectionKey, Perm> = HashMap::new();
        let mut grants = 0u64;
        for &(key, perm) in targets {
            let cur = sim.get(&key).copied();
            if cur.is_none_or(|p| p < perm) {
                grants += 1;
                sim.insert(key, cur.map_or(perm, |p| p.join(perm)));
            }
        }
        let fast = grants <= 1;
        Plan {
            wanted_len,
            target: if fast { sim.into_iter().next() } else { None },
            fast,
        }
    }
}

const VALID: u64 = 1;
const FAST: u64 = 1 << 1;
const WRITE: u64 = 1 << 2;
const TARGET_SHIFT: u32 = 3;
const TARGET_MASK: u64 = (1 << 17) - 1;
const LEN_SHIFT: u32 = 20;
const LEN_MASK: u64 = (1 << 22) - 1;
const GEN_ONE: u64 = 1 << 42;
const GEN_MASK: u64 = !(GEN_ONE - 1);

/// One value of a cell's word: a generation and, when valid, a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct PlanWord(u64);

impl PlanWord {
    /// The plan, if one is published and a hit may replay it.
    pub(super) fn replayable(self) -> Option<Plan> {
        if self.0 & (VALID | FAST) != VALID | FAST {
            return None;
        }
        let perm = if self.0 & WRITE != 0 { Perm::Write } else { Perm::Read };
        let target = (self.0 >> TARGET_SHIFT) & TARGET_MASK;
        Some(Plan {
            wanted_len: (self.0 >> LEN_SHIFT) & LEN_MASK,
            target: target.checked_sub(1).map(|key| (ProtectionKey(key as u16), perm)),
            fast: true,
        })
    }

    /// This generation carrying `plan`; `None` when the section is too
    /// large for the length field (its entries then always rebuild).
    fn with_plan(self, plan: Plan) -> Option<PlanWord> {
        if plan.wanted_len > LEN_MASK {
            return None;
        }
        let mut word = (self.0 & GEN_MASK) | VALID | (plan.wanted_len << LEN_SHIFT);
        if plan.fast {
            word |= FAST;
        }
        if let Some((key, perm)) = plan.target {
            word |= (u64::from(key.0) + 1) << TARGET_SHIFT;
            if perm == Perm::Write {
                word |= WRITE;
            }
        }
        Some(PlanWord(word))
    }

    /// The next generation, no plan.
    fn staled(self) -> PlanWord {
        PlanWord((self.0 & GEN_MASK).wrapping_add(GEN_ONE))
    }

    /// The next generation with `wanted_len` one longer (`grow`) or one
    /// shorter; a stale word, or a length leaving the field, stays or
    /// goes stale.
    fn patched(self, grow: bool) -> PlanWord {
        let len = (self.0 >> LEN_SHIFT) & LEN_MASK;
        let len = if grow { len + 1 } else { len.wrapping_sub(1) };
        if self.0 & VALID == 0 || len > LEN_MASK {
            return self.staled();
        }
        PlanWord(((self.0 & !(LEN_MASK << LEN_SHIFT)) | (len << LEN_SHIFT)).wrapping_add(GEN_ONE))
    }
}

/// A section's plan for one [`SectionMode`]: one published word (see the
/// [module docs](self) for its layout and protocol).
#[derive(Debug, Default)]
pub(super) struct PlanCell(AtomicU64);

impl PlanCell {
    /// The current word. A reader takes it before anything it reads to
    /// build or replay a plan, and compares against it afterwards.
    pub(super) fn snapshot(&self) -> PlanWord {
        PlanWord(self.0.load(Ordering::SeqCst))
    }

    /// Publish `plan`, rebuilt from reads that all came after `snap`, for
    /// every thread — unless a writer touched the cell since (the reads
    /// may be torn; the next entry rebuilds) or `snap` already says it.
    pub(super) fn publish(&self, snap: PlanWord, plan: Plan) {
        if let Some(word) = snap.with_plan(plan).filter(|&word| word != snap) {
            let _ = self
                .0
                .compare_exchange(snap.0, word.0, Ordering::SeqCst, Ordering::SeqCst);
        }
    }

    /// A writer touch: replace the word by `f` of it, atomically.
    fn touch(&self, f: impl Fn(PlanWord) -> PlanWord) {
        let _ = self
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |word| Some(f(PlanWord(word)).0));
    }
}

/// The plan cells of one section, one per [`SectionMode`]: two words,
/// because a long-lived detector keeps one of these for every section it
/// ever entered.
#[derive(Debug, Default)]
pub(super) struct SectionPlans([PlanCell; 2]);

impl SectionPlans {
    pub(super) fn cell(&self, mode: SectionMode) -> &PlanCell {
        &self.0[mode as usize]
    }

    fn touch(&self, f: impl Fn(PlanWord) -> PlanWord) {
        for cell in &self.0 {
            cell.touch(&f);
        }
    }
}

/// The section-object map (§5.3, Figure 3a) with the plan cells of the
/// sections entered so far: what the `sections` lock guards. Reads of the
/// map go through `Deref`; every mutation goes through a method here, so
/// none can skip the cells it affects.
#[derive(Default)]
pub(super) struct SectionBook {
    map: SectionObjectMap,
    plans: HashMap<SectionId, Arc<SectionPlans>>,
}

impl Deref for SectionBook {
    type Target = SectionObjectMap;
    fn deref(&self) -> &SectionObjectMap {
        &self.map
    }
}

impl SectionBook {
    /// `section`'s plan cells, created at its first entry.
    pub(super) fn plans_of(&mut self, section: SectionId) -> Arc<SectionPlans> {
        Arc::clone(self.plans.entry(section).or_default())
    }

    /// How many sections have been entered: each has its cells for good.
    pub(super) fn entered(&self) -> usize {
        self.plans.len()
    }

    /// Record that `section` accesses `o` with `perm`. `read_write`: `o`
    /// is in the Read-write domain, or on its way there in this mutation.
    pub(super) fn record(&mut self, section: SectionId, o: ObjectId, perm: Perm, read_write: bool) {
        let recorded = self.map.record(section, o, perm);
        let Some(plans) = self.plans.get(&section) else {
            return;
        };
        match (recorded, read_write) {
            (Recorded::Known, _) | (Recorded::Widened, false) => {}
            (Recorded::Added, false) => plans.touch(|word| word.patched(true)),
            (Recorded::Added | Recorded::Widened, true) => plans.touch(PlanWord::staled),
        }
    }

    /// Remove every trace of the freed object `o`. `read_write`: `o` was
    /// in the Read-write domain when its domain word was taken.
    pub(super) fn forget(&mut self, o: ObjectId, read_write: bool) {
        if read_write {
            self.touch_sections_of(o, PlanWord::staled);
        } else {
            self.touch_sections_of(o, |word| word.patched(false));
        }
        self.map.remove_object(o);
    }

    /// Mark stale the plans of every section accessing one of `objects`,
    /// whose domain words the caller has just moved into, out of or
    /// within the Read-write domain.
    pub(super) fn stale_plans_of(&self, objects: &[ObjectId]) {
        for &o in objects {
            self.touch_sections_of(o, PlanWord::staled);
        }
    }

    /// Touch the cells of exactly the sections accessing `o`.
    fn touch_sections_of(&self, o: ObjectId, f: impl Fn(PlanWord) -> PlanWord) {
        for section in self.map.sections_accessing(o) {
            if let Some(plans) = self.plans.get(section) {
                plans.touch(&f);
            }
        }
    }

    /// Mark every plan stale, for the differential tests that replay a
    /// trace with every entry forced to rebuild.
    #[cfg(test)]
    pub(super) fn stale_all_plans(&self) {
        for plans in self.plans.values() {
            plans.touch(PlanWord::staled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_word_carries_a_whole_plan_and_survives_its_round_trip() {
        let origin = PlanCell::default().snapshot();
        assert_eq!(origin.replayable(), None, "a fresh cell is stale");
        let plans = [
            Plan::EMPTY,
            Plan { wanted_len: LEN_MASK, target: None, fast: true },
            Plan { wanted_len: 9_601, target: Some((ProtectionKey(1), Perm::Read)), fast: true },
            Plan { wanted_len: 3, target: Some((ProtectionKey(u16::MAX), Perm::Write)), fast: true },
        ];
        for plan in plans {
            let word = origin.staled().with_plan(plan).expect("fits");
            assert_eq!(word.replayable(), Some(plan));
            assert_eq!(word.0 & GEN_MASK, GEN_ONE, "the plan leaves the generation alone");
        }
        let slow = Plan { wanted_len: 2, target: None, fast: false };
        assert_eq!(origin.with_plan(slow).expect("fits").replayable(), None);
        let huge = Plan { wanted_len: LEN_MASK + 1, ..Plan::EMPTY };
        assert_eq!(origin.with_plan(huge), None);
    }

    #[test]
    fn every_touch_moves_the_generation_and_only_a_valid_word_is_patched() {
        let plan = Plan { wanted_len: 7, target: Some((ProtectionKey(4), Perm::Write)), fast: true };
        let word = PlanWord(0).with_plan(plan).expect("fits");
        let grown = word.patched(true);
        assert_eq!(grown.replayable(), Some(Plan { wanted_len: 8, ..plan }));
        assert_eq!(grown.patched(false).replayable(), Some(plan));
        assert_eq!(grown.patched(false).0 & GEN_MASK, 2 * GEN_ONE);
        assert_eq!(word.staled().replayable(), None);
        assert_eq!(word.staled().patched(true), PlanWord(2 * GEN_ONE), "stale stays stale");
        let full = PlanWord(0).with_plan(Plan { wanted_len: LEN_MASK, ..plan }).expect("fits");
        assert_eq!(full.patched(true), PlanWord(GEN_ONE), "an overflowing length goes stale");
        assert_eq!(PlanWord(GEN_MASK).staled(), PlanWord(0), "the generation wraps");
    }

    #[test]
    fn publish_lands_only_on_the_snapshot_it_was_built_from() {
        let cell = PlanCell::default();
        let plan = Plan { wanted_len: 2, target: None, fast: true };
        let snap = cell.snapshot();
        cell.touch(PlanWord::staled);
        cell.publish(snap, plan);
        assert_eq!(cell.snapshot().replayable(), None, "a touch since the snapshot wins");
        cell.publish(cell.snapshot(), plan);
        assert_eq!(cell.snapshot().replayable(), Some(plan));
    }
}
