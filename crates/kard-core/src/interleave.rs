//! Protection interleaving (paper §5.5, Figure 4).
//!
//! Kard protects a whole object with one key and acquires keys proactively,
//! which can produce false positives when two threads touch *different byte
//! offsets* of the same object, or when a section holds a key for an object
//! it never actually touches. Protection interleaving tests a raised
//! violation by *alternating* the object's protection key between the
//! conflicting threads:
//!
//! 1. thread `t2` faults on object `o` protected by `k1` (held by `t1`);
//!    the handler records `t2`'s byte offset, re-protects `o` with a key
//!    held by `t2`, and lets `t2` proceed;
//! 2. if `t1` touches `o` again it now faults, revealing `t1`'s offset;
//! 3. same offset (with a write involved) ⇒ the race is confirmed;
//!    disjoint offsets ⇒ the candidate is pruned;
//! 4. interleaving then *suspends* protection of `o` (default key) until
//!    all conflicting threads exit their critical sections, after which the
//!    object's original protection is restored.
//!
//! If a critical section is too small and ends before step 2 happens, the
//! candidate stays in the report — the source of Kard's single false
//! positive on pigz (§7.3).
//!
//! This module is the pure state machine; the detector performs the actual
//! `pkey_mprotect` calls.

use crate::types::SectionId;
use kard_alloc::ObjectId;
use kard_sim::{AccessKind, CodeSite, ProtectionKey, ThreadId};
use std::collections::{HashMap, HashSet};

/// One observed access to an object under interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observation {
    /// Accessing thread.
    pub thread: ThreadId,
    /// Section the thread was executing (if any).
    pub section: Option<SectionId>,
    /// Byte offset within the object.
    pub offset: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Program location.
    pub ip: CodeSite,
}

/// Outcome of feeding a new observation to an active interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Two different threads touched the same offset with a write involved:
    /// the candidate race is real. Carries the counterpart's observation.
    Confirmed(Observation),
    /// The threads touched disjoint offsets only: prune the candidate.
    PrunedDifferentOffset,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting for the counterpart thread's access to fault.
    Armed,
    /// Verdict delivered; object unprotected until participants exit.
    Suspended,
}

#[derive(Clone, Debug)]
struct ObjectState {
    observations: Vec<Observation>,
    record_index: usize,
    original_key: ProtectionKey,
    interleaved_key: ProtectionKey,
    participants: HashSet<ThreadId>,
    phase: Phase,
}

/// An interleaving that ran to completion (all participants left their
/// critical sections); the detector restores the object's protection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finished {
    /// The object whose interleaving ended.
    pub object: ObjectId,
    /// The key that protected the object before interleaving began.
    pub original_key: ProtectionKey,
    /// Index of the candidate race record this interleaving was testing.
    pub record_index: usize,
    /// Whether a verdict was delivered. `false` means the counterpart never
    /// re-faulted (e.g. its critical section was too small), so the
    /// candidate remains reported — the paper's pigz false positive.
    pub resolved: bool,
}

/// State discarded by [`Interleaver::forget`] (the object was freed
/// mid-interleaving), returned so the detector can settle the per-thread
/// participating counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Forgotten {
    /// The participants of the discarded interleaving, in thread order.
    pub participants: Vec<ThreadId>,
    /// Whether it was still armed, i.e. no counterpart fault ever came
    /// (the detector then records the interleaving as expired).
    pub was_armed: bool,
}

/// The protection-interleaving engine: at most one active interleaving per
/// object.
#[derive(Clone, Debug, Default)]
pub struct Interleaver {
    active: HashMap<ObjectId, ObjectState>,
}

impl Interleaver {
    /// No active interleavings.
    #[must_use]
    pub fn new() -> Interleaver {
        Interleaver::default()
    }

    /// Begin interleaving `object` after a candidate race.
    ///
    /// `faulting` is the access that raised the candidate; `holder` is the
    /// thread currently holding `original_key`; `interleaved_key` is the
    /// key the detector just re-protected the object with.
    ///
    /// # Panics
    ///
    /// Panics if the object is already under interleaving (the detector
    /// must not start two).
    pub fn begin(
        &mut self,
        object: ObjectId,
        record_index: usize,
        original_key: ProtectionKey,
        interleaved_key: ProtectionKey,
        faulting: Observation,
        holder: ThreadId,
    ) {
        let prev = self.active.insert(
            object,
            ObjectState {
                observations: vec![faulting],
                record_index,
                original_key,
                interleaved_key,
                participants: HashSet::from([faulting.thread, holder]),
                phase: Phase::Armed,
            },
        );
        assert!(prev.is_none(), "object {object} already interleaving");
    }

    /// Whether `object` currently has an armed interleaving (so a fault on
    /// it belongs to this engine rather than the race checker).
    #[must_use]
    pub fn is_armed(&self, object: ObjectId) -> bool {
        self.active
            .get(&object)
            .is_some_and(|s| s.phase == Phase::Armed)
    }

    /// Whether `object` has an interleaving in either phase, armed or
    /// suspended — [`Interleaver::begin`] requires that it has none.
    #[must_use]
    pub fn is_active(&self, object: ObjectId) -> bool {
        self.active.contains_key(&object)
    }

    /// The key the object was re-protected with, if armed.
    #[must_use]
    pub fn interleaved_key(&self, object: ObjectId) -> Option<ProtectionKey> {
        self.active.get(&object).map(|s| s.interleaved_key)
    }

    /// The candidate record index being tested for `object`.
    #[must_use]
    pub fn record_index(&self, object: ObjectId) -> Option<usize> {
        self.active.get(&object).map(|s| s.record_index)
    }

    /// Feed the counterpart's fault. Returns the verdict and whether the
    /// observer *newly joined* the participant set, and transitions the
    /// object to the suspended phase (the detector unprotects it).
    ///
    /// Counter balance: the detector keeps, per thread, the number of
    /// participant sets that list it. A thread gains one count per set at
    /// [`Interleaver::begin`] or on joining here, and loses it exactly once
    /// — in [`Interleaver::thread_left_critical_sections`] or in
    /// [`Interleaver::forget`].
    ///
    /// # Panics
    ///
    /// Panics if the object is not armed.
    pub fn observe(&mut self, object: ObjectId, obs: Observation) -> (Verdict, bool) {
        let state = self
            .active
            .get_mut(&object)
            .filter(|s| s.phase == Phase::Armed)
            .unwrap_or_else(|| panic!("object {object} is not armed"));
        let joined = state.participants.insert(obs.thread);

        // Byte-level test: does any earlier observation from a different
        // thread overlap this one, with at least one write involved?
        let confirmed = state
            .observations
            .iter()
            .find(|prev| {
                prev.thread != obs.thread
                    && prev.offset == obs.offset
                    && (prev.kind == AccessKind::Write || obs.kind == AccessKind::Write)
            })
            .copied();
        state.observations.push(obs);
        state.phase = Phase::Suspended;
        let verdict = match confirmed {
            Some(prev) => Verdict::Confirmed(prev),
            None => Verdict::PrunedDifferentOffset,
        };
        (verdict, joined)
    }

    /// Notify that `thread` is no longer inside any critical section.
    /// Returns the interleavings that thereby finished (the detector
    /// restores each object's protection) and the number of participant
    /// sets `thread` was removed from (the participating-counter decrement
    /// — see [`Interleaver::observe`] for the balance).
    pub fn thread_left_critical_sections(&mut self, thread: ThreadId) -> (Vec<Finished>, usize) {
        let mut finished = Vec::new();
        let mut removed = 0;
        self.active.retain(|&object, state| {
            if state.participants.remove(&thread) {
                removed += 1;
            }
            if state.participants.is_empty() {
                finished.push(Finished {
                    object,
                    original_key: state.original_key,
                    record_index: state.record_index,
                    resolved: state.phase == Phase::Suspended,
                });
                false
            } else {
                true
            }
        });
        finished.sort_by_key(|f| f.object);
        (finished, removed)
    }

    /// Drop any interleaving state for `object` (the object was freed).
    /// Returns the discarded state's participants, each of which loses one
    /// participating count (see [`Interleaver::observe`] for the balance),
    /// and whether it was still armed.
    pub fn forget(&mut self, object: ObjectId) -> Option<Forgotten> {
        self.active.remove(&object).map(|state| {
            let mut participants: Vec<ThreadId> = state.participants.into_iter().collect();
            participants.sort();
            Forgotten {
                participants,
                was_armed: state.phase == Phase::Armed,
            }
        })
    }

    /// Number of objects currently under interleaving.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t: usize, offset: u64, kind: AccessKind) -> Observation {
        Observation {
            thread: ThreadId(t),
            section: None,
            offset,
            kind,
            ip: CodeSite(0),
        }
    }

    impl Interleaver {
        /// How many participant sets list `thread`: the reference
        /// definition the detector's per-thread participating counter is
        /// checked against.
        pub(crate) fn participations(&self, thread: ThreadId) -> usize {
            self.active
                .values()
                .filter(|s| s.participants.contains(&thread))
                .count()
        }
    }

    fn begin(il: &mut Interleaver) {
        il.begin(
            ObjectId(1),
            0,
            ProtectionKey(1),
            ProtectionKey(2),
            obs(2, 8, AccessKind::Read),
            ThreadId(1),
        );
    }

    #[test]
    fn same_offset_with_write_confirms() {
        let mut il = Interleaver::new();
        begin(&mut il);
        assert!(il.is_armed(ObjectId(1)));
        let (verdict, joined) = il.observe(ObjectId(1), obs(1, 8, AccessKind::Write));
        assert_eq!(verdict, Verdict::Confirmed(obs(2, 8, AccessKind::Read)));
        assert!(!il.is_armed(ObjectId(1)), "suspended after verdict");
        assert!(il.is_active(ObjectId(1)), "and may not be begun again");
        assert!(!joined, "the holder was already a participant");
    }

    #[test]
    fn different_offsets_prune() {
        let mut il = Interleaver::new();
        begin(&mut il);
        let (verdict, _) = il.observe(ObjectId(1), obs(1, 16, AccessKind::Write));
        assert_eq!(verdict, Verdict::PrunedDifferentOffset);
    }

    #[test]
    fn same_offset_both_reads_prunes() {
        let mut il = Interleaver::new();
        il.begin(
            ObjectId(1),
            0,
            ProtectionKey(1),
            ProtectionKey(2),
            obs(2, 8, AccessKind::Read),
            ThreadId(1),
        );
        let (verdict, _) = il.observe(ObjectId(1), obs(1, 8, AccessKind::Read));
        assert_eq!(
            verdict,
            Verdict::PrunedDifferentOffset,
            "read/read at the same offset is not a race"
        );
    }

    #[test]
    fn finishes_when_all_participants_exit() {
        let mut il = Interleaver::new();
        begin(&mut il);
        il.observe(ObjectId(1), obs(1, 8, AccessKind::Write));
        let (done, removed) = il.thread_left_critical_sections(ThreadId(1));
        assert!(done.is_empty());
        assert_eq!(removed, 1, "the participant set shrinks");
        let (done, removed) = il.thread_left_critical_sections(ThreadId(2));
        assert_eq!(
            done,
            vec![Finished {
                object: ObjectId(1),
                original_key: ProtectionKey(1),
                record_index: 0,
                resolved: true,
            }]
        );
        assert_eq!(removed, 1);
        assert_eq!(il.active_count(), 0);
    }

    #[test]
    fn unresolved_finish_keeps_candidate() {
        // The pigz case: the holder exits its (tiny) critical section
        // without re-touching the object, so no verdict is delivered.
        let mut il = Interleaver::new();
        begin(&mut il);
        let (done, removed) = il.thread_left_critical_sections(ThreadId(1));
        assert!(done.is_empty());
        assert_eq!(removed, 1);
        let (done, removed) = il.thread_left_critical_sections(ThreadId(2));
        assert_eq!(done.len(), 1);
        assert_eq!(removed, 1);
        assert!(!done[0].resolved, "no verdict: candidate stays reported");
    }

    #[test]
    fn third_thread_observation_compares_against_all() {
        let mut il = Interleaver::new();
        begin(&mut il); // t2 read at offset 8.
        let (verdict, joined) = il.observe(ObjectId(1), obs(3, 8, AccessKind::Write));
        assert!(matches!(verdict, Verdict::Confirmed(_)));
        assert!(joined, "the third thread newly joined the participant set");
    }

    #[test]
    fn forget_discards_state() {
        let mut il = Interleaver::new();
        begin(&mut il);
        let gone = il.forget(ObjectId(1)).expect("state existed");
        assert_eq!(il.active_count(), 0);
        assert!(!il.is_armed(ObjectId(1)));
        assert_eq!(
            gone.participants,
            vec![ThreadId(1), ThreadId(2)],
            "forgetting returns the participants for counter settlement"
        );
        assert!(gone.was_armed, "no counterpart fault came: expired");
        assert!(il.forget(ObjectId(1)).is_none(), "nothing left to forget");
    }

    #[test]
    fn forget_after_verdict_disarms_nobody() {
        let mut il = Interleaver::new();
        begin(&mut il);
        il.observe(ObjectId(1), obs(1, 8, AccessKind::Write));
        let gone = il.forget(ObjectId(1)).expect("state existed");
        assert!(!gone.was_armed, "the verdict ended the armed phase");
        assert_eq!(gone.participants, vec![ThreadId(1), ThreadId(2)]);
    }

    #[test]
    #[should_panic(expected = "already interleaving")]
    fn double_begin_panics() {
        let mut il = Interleaver::new();
        begin(&mut il);
        begin(&mut il);
    }

    #[test]
    fn queries_expose_keys_and_record() {
        let mut il = Interleaver::new();
        begin(&mut il);
        assert_eq!(il.interleaved_key(ObjectId(1)), Some(ProtectionKey(2)));
        assert_eq!(il.record_index(ObjectId(1)), Some(0));
        assert_eq!(il.interleaved_key(ObjectId(9)), None);
    }
}
