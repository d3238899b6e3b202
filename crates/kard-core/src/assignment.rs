//! Effective key assignment (paper §5.4).
//!
//! Kard has only 13 read-write pool keys on MPK hardware, so assigning a
//! key to a newly identified shared object follows three rules:
//!
//! 1. **Reuse a held key**: if the faulting thread already holds pool keys,
//!    protect the object with one of them — no new key is consumed and the
//!    thread can proceed immediately.
//! 2. **Take a fresh key**: otherwise use a key not yet protecting any
//!    object.
//! 3. **Recycle or share**: with all keys assigned, prefer *recycling* an
//!    assigned key that no thread currently holds (its objects are demoted
//!    to the Read-only domain, preserving detection at the cost of repeated
//!    migration), and only *share* a held key as a last resort (sharing can
//!    cause false negatives, §7.3). Sharing prefers keys whose holders'
//!    sections are not known to access the object.
//!
//! [`choose_key`] is a pure decision procedure over the
//! [`crate::keymap::KeyTable`]; the detector applies the side
//! effects (domain migrations, `pkey_mprotect`, PKRU updates).

use crate::config::ExhaustionPolicy;
use crate::keymap::KeyTable;
use crate::types::Perm;
use crate::vkey::{LogicalHolder, VKeyTable, VirtualKey};
use kard_alloc::ObjectId;
use kard_sim::{ProtectionKey, ThreadId};

/// The decision made for a new shared object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// Rule 1: a key the faulting thread already holds.
    HeldKey(ProtectionKey),
    /// Rule 2: a previously unassigned key.
    FreshKey(ProtectionKey),
    /// Rule 3a: a recycled key; `evicted` objects must migrate to the
    /// Read-only domain.
    Recycled {
        /// The recycled key.
        key: ProtectionKey,
        /// Objects the key used to protect, now demoted.
        evicted: Vec<ObjectId>,
    },
    /// Rule 3b: a key shared with other holders (false-negative risk).
    Shared(ProtectionKey),
}

impl Assignment {
    /// The chosen key, whatever the rule.
    #[must_use]
    pub fn key(&self) -> ProtectionKey {
        match self {
            Assignment::HeldKey(k)
            | Assignment::FreshKey(k)
            | Assignment::Shared(k) => *k,
            Assignment::Recycled { key, .. } => *key,
        }
    }
}

/// Pick a key for a newly identified shared object needing `perm`.
///
/// `section_accesses_object(k)` must report whether any *current holder* of
/// `k` is executing a section known to access the object — the §5.4 sharing
/// heuristic. The function mutates the table only for the recycling case
/// (draining the recycled key's objects).
///
/// `claim_objects` is the fault-shard claiming hook for rule 3a: a
/// recycling candidate is committed only once the shards of the objects
/// it would demote are claimed, so a demotion can never interleave with a
/// fault in flight on one of them. Refused candidates fall through to the
/// next; if none is claimable, rule 3b sharing takes over. An
/// always-accepting closure reproduces the serial detector exactly.
pub fn choose_key(
    table: &mut KeyTable,
    thread: ThreadId,
    perm: Perm,
    policy: ExhaustionPolicy,
    held_keys: &[(ProtectionKey, Perm)],
    holder_sections_access_object: impl Fn(ProtectionKey) -> bool,
    mut claim_objects: impl FnMut(&[ObjectId]) -> bool,
) -> Assignment {
    // Rule 1: reuse a key the faulting thread holds. For a write need the
    // key must be write-held (or upgradeable, i.e. no other holder) so the
    // thread does not immediately re-fault on its own object.
    let usable_held = held_keys.iter().find(|&&(k, p)| match perm {
        Perm::Read => p >= Perm::Read,
        Perm::Write => p == Perm::Write || !table.state(k).held_by_other(thread),
    });
    if let Some(&(key, _)) = usable_held {
        return Assignment::HeldKey(key);
    }

    // Rule 2: a fresh key.
    if let Some(key) = table.unassigned_key() {
        return Assignment::FreshKey(key);
    }

    // Rule 3a: recycle an assigned-but-unheld key — the first candidate
    // whose objects' fault shards can be claimed.
    if policy == ExhaustionPolicy::RecycleThenShare {
        for key in table.unheld_assigned_keys() {
            if claim_objects(&table.objects_of(key)) {
                let evicted = table.take_objects(key);
                return Assignment::Recycled { key, evicted };
            }
        }
    }

    // Rule 3b: share. Prefer a key whose holders' sections do not access
    // the object; fall back to the least-contended key.
    let candidates = table.keys_by_holder_count();
    let key = candidates
        .iter()
        .copied()
        .find(|&k| !holder_sections_access_object(k))
        .unwrap_or(candidates[0]);
    Assignment::Shared(key)
}

/// A victim group pushed out of the hardware-key cache to make room.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// The group that lost its hardware key.
    pub victim: VirtualKey,
    /// Its member objects, already drained from the key-section map; the
    /// detector demotes them to the Read-only domain with one grouped
    /// `pkey_mprotect`.
    pub demoted: Vec<ObjectId>,
    /// Threads that still held the hardware key, now recorded as the
    /// victim's logical holders. The detector must strip the key from each
    /// one's context (libmpk-style key synchronization, `pkey_sync` each).
    pub stripped: Vec<LogicalHolder>,
}

/// The decision made for an object under key virtualization
/// ([`crate::KeyMode::Virtual`]). Mirrors [`Assignment`], with the
/// §5.4 rules recast as cache operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VAssignment {
    /// The object already belongs to a resident group: pure translation.
    Hit {
        /// The object's group.
        vkey: VirtualKey,
        /// The hardware key backing it.
        key: ProtectionKey,
    },
    /// Rule 1 recast: the object joins the resident group backed by a key
    /// the faulting thread already holds (a cache hit — no hardware-key
    /// traffic).
    Join {
        /// The group joined.
        vkey: VirtualKey,
        /// The held hardware key backing it.
        key: ProtectionKey,
    },
    /// A new group bound to a hardware key (rules 2 and 3a recast: a free
    /// key when one exists, otherwise an eviction makes one).
    Fill {
        /// The freshly minted group.
        vkey: VirtualKey,
        /// The hardware key it was bound to.
        key: ProtectionKey,
        /// The eviction that freed `key`, when the cache was full.
        evicted: Option<Eviction>,
    },
    /// The object's group was evicted earlier and this fault brings it
    /// back. The detector re-checks the access against `logical` holders
    /// still inside their sections — the conflicts a shared or stripped
    /// key can no longer raise as hardware faults.
    Revive {
        /// The revived group.
        vkey: VirtualKey,
        /// The hardware key it was rebound to.
        key: ProtectionKey,
        /// The eviction that freed `key`, when the cache was full.
        evicted: Option<Eviction>,
        /// Holder snapshot taken when the group itself was evicted.
        logical: Vec<LogicalHolder>,
    },
    /// Safety net: every hardware key is held *and* backs no group, so
    /// nothing can be evicted; fall back to §5.4 rule 3b sharing. With
    /// assignments flowing through the cache this state is unreachable in
    /// practice, and the key-pressure benchmark asserts it stays so.
    Shared {
        /// The group (newly minted) the object joins.
        vkey: VirtualKey,
        /// The shared hardware key.
        key: ProtectionKey,
    },
}

impl VAssignment {
    /// The hardware key chosen, whatever the cache outcome.
    #[must_use]
    pub fn key(&self) -> ProtectionKey {
        match self {
            VAssignment::Hit { key, .. }
            | VAssignment::Join { key, .. }
            | VAssignment::Fill { key, .. }
            | VAssignment::Revive { key, .. }
            | VAssignment::Shared { key, .. } => *key,
        }
    }

    /// The eviction that freed the hardware key, when the cache was full.
    #[must_use]
    pub fn eviction(&self) -> Option<&Eviction> {
        match self {
            VAssignment::Fill { evicted, .. } | VAssignment::Revive { evicted, .. } => {
                evicted.as_ref()
            }
            _ => None,
        }
    }

    /// The virtual key chosen, whatever the cache outcome.
    #[must_use]
    pub fn vkey(&self) -> VirtualKey {
        match self {
            VAssignment::Hit { vkey, .. }
            | VAssignment::Join { vkey, .. }
            | VAssignment::Fill { vkey, .. }
            | VAssignment::Revive { vkey, .. }
            | VAssignment::Shared { vkey, .. } => *vkey,
        }
    }
}

/// Find a hardware key for a group that needs one: a free key if the pool
/// has one (evicting a stale empty resident binding for free), otherwise
/// evict the deterministic victim whose members' fault shards
/// `claim_objects` can claim. Returns `None` only in the unreachable
/// all-held-and-unbound state (or, transiently, when every candidate
/// victim has a fault in flight — the caller falls through to sharing).
fn claim_hardware_key(
    vkeys: &mut VKeyTable,
    table: &mut KeyTable,
    group_hotness: &impl Fn(&[ObjectId]) -> u64,
    claim_objects: &mut impl FnMut(&[ObjectId]) -> bool,
) -> Option<(ProtectionKey, Option<Eviction>)> {
    if let Some(key) = table.unassigned_key() {
        // An emptied group can linger bound to an object-free, holder-free
        // key; reclaim the binding silently — there is nothing to demote
        // or strip, so this is not an eviction in any observable sense.
        if let Some(stale) = vkeys.resident_vkey(key) {
            vkeys.evict(stale, Vec::new());
        }
        return Some((key, None));
    }
    let victim = vkeys.victim(
        |k| table.state(k).holders.len(),
        group_hotness,
        &mut *claim_objects,
    )?;
    let key = vkeys.binding(victim).expect("victims are resident");
    let mut stripped: Vec<LogicalHolder> = table
        .state(key)
        .holders
        .iter()
        .map(|(&thread, info)| LogicalHolder {
            thread,
            section: info.section,
            perm: info.perm,
        })
        .collect();
    stripped.sort_by_key(|h| h.thread.0);
    let demoted = table.take_objects(key);
    vkeys.evict(victim, stripped.clone());
    Some((
        key,
        Some(Eviction {
            victim,
            demoted,
            stripped,
        }),
    ))
}

/// Pick a key for `object` under virtualization. The counterpart of
/// [`choose_key`]: the same rule-1 held-key predicate keeps the two
/// policies byte-identical while at most 13 groups are live, and the
/// fill/evict/revive arms take over where the direct policy would recycle
/// or share. Updates both tables' bindings and membership; the detector
/// applies the side effects (migrations, grouped `pkey_mprotect`, holder
/// strips, PKRU updates) and bumps the telemetry counters.
///
/// `claim_objects` plays the same role as in [`choose_key`]: an eviction
/// victim is committed only once its members' fault shards are claimed.
/// `group_hotness` scores a candidate victim's member set for the
/// [`KeyCachePolicy::Hotness`](crate::vkey::KeyCachePolicy::Hotness)
/// policy (the detector reads [`crate::sidemeta`] counters); it is never
/// called under LRU, so `|_| 0` is the exact stub there.
#[allow(clippy::too_many_arguments)] // a policy decision needs the full fault context
pub fn choose_virtual(
    vkeys: &mut VKeyTable,
    table: &mut KeyTable,
    thread: ThreadId,
    object: ObjectId,
    perm: Perm,
    held_keys: &[(ProtectionKey, Perm)],
    group_hotness: impl Fn(&[ObjectId]) -> u64,
    mut claim_objects: impl FnMut(&[ObjectId]) -> bool,
) -> VAssignment {
    // The object may already belong to a group: resident means pure
    // translation, evicted means revival.
    if let Some(vkey) = vkeys.vkey_of(object) {
        if let Some(key) = vkeys.binding(vkey) {
            vkeys.touch(vkey);
            return VAssignment::Hit { vkey, key };
        }
        if let Some((key, evicted)) = claim_hardware_key(vkeys, table, &group_hotness, &mut claim_objects) {
            let logical = vkeys.drain_logical(vkey);
            vkeys.bind(vkey, key);
            return VAssignment::Revive {
                vkey,
                key,
                evicted,
                logical,
            };
        }
    } else {
        // Rule 1 recast: join the group backed by a key the thread already
        // holds. Same usability predicate as `choose_key`.
        let usable_held = held_keys.iter().find(|&&(k, p)| match perm {
            Perm::Read => p >= Perm::Read,
            Perm::Write => p == Perm::Write || !table.state(k).held_by_other(thread),
        });
        if let Some(&(key, _)) = usable_held {
            if let Some(vkey) = vkeys.resident_vkey(key) {
                vkeys.touch(vkey);
                vkeys.add_member(vkey, object);
                return VAssignment::Join { vkey, key };
            }
        }
        if let Some((key, evicted)) = claim_hardware_key(vkeys, table, &group_hotness, &mut claim_objects) {
            let vkey = vkeys.create();
            vkeys.bind(vkey, key);
            vkeys.add_member(vkey, object);
            return VAssignment::Fill { vkey, key, evicted };
        }
    }

    // Safety net: nothing evictable. Share the least-contended key, like
    // §5.4 rule 3b with no section heuristic (no group to consult).
    let key = table.keys_by_holder_count()[0];
    let vkey = vkeys.vkey_of(object).unwrap_or_else(|| {
        let v = vkeys.create();
        vkeys.add_member(v, object);
        v
    });
    VAssignment::Shared { vkey, key }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SectionId;
    use kard_sim::{CodeSite, KeyLayout};

    fn table() -> KeyTable {
        KeyTable::new(&KeyLayout::mpk())
    }

    fn s(n: u64) -> SectionId {
        SectionId(CodeSite(n))
    }

    const NO_CONFLICT: fn(ProtectionKey) -> bool = |_| false;

    #[test]
    fn rule1_prefers_held_key() {
        let mut t = table();
        t.try_acquire(ProtectionKey(4), ThreadId(0), Perm::Write, s(1));
        let a = choose_key(
            &mut t,
            ThreadId(0),
            Perm::Write,
            ExhaustionPolicy::RecycleThenShare,
            &[(ProtectionKey(4), Perm::Write)],
            NO_CONFLICT,
            |_| true,
        );
        assert_eq!(a, Assignment::HeldKey(ProtectionKey(4)));
    }

    #[test]
    fn rule1_skips_read_held_shared_key_for_write_need() {
        let mut t = table();
        // Thread 0 and 1 both read-hold k4: not upgradeable for a write.
        t.try_acquire(ProtectionKey(4), ThreadId(0), Perm::Read, s(1));
        t.try_acquire(ProtectionKey(4), ThreadId(1), Perm::Read, s(2));
        let a = choose_key(
            &mut t,
            ThreadId(0),
            Perm::Write,
            ExhaustionPolicy::RecycleThenShare,
            &[(ProtectionKey(4), Perm::Read)],
            NO_CONFLICT,
            |_| true,
        );
        assert_eq!(a, Assignment::FreshKey(ProtectionKey(1)));
    }

    #[test]
    fn rule1_accepts_sole_read_hold_for_write_need() {
        let mut t = table();
        t.try_acquire(ProtectionKey(4), ThreadId(0), Perm::Read, s(1));
        let a = choose_key(
            &mut t,
            ThreadId(0),
            Perm::Write,
            ExhaustionPolicy::RecycleThenShare,
            &[(ProtectionKey(4), Perm::Read)],
            NO_CONFLICT,
            |_| true,
        );
        assert_eq!(a, Assignment::HeldKey(ProtectionKey(4)), "upgradeable");
    }

    #[test]
    fn rule2_takes_lowest_fresh_key() {
        let mut t = table();
        t.assign_object(ProtectionKey(1), ObjectId(0));
        let a = choose_key(
            &mut t,
            ThreadId(0),
            Perm::Write,
            ExhaustionPolicy::RecycleThenShare,
            &[],
            NO_CONFLICT,
            |_| true,
        );
        assert_eq!(a, Assignment::FreshKey(ProtectionKey(2)));
    }

    fn exhaust(t: &mut KeyTable) {
        for (i, &k) in t.pool().to_vec().iter().enumerate() {
            t.assign_object(k, ObjectId(i as u64));
        }
    }

    #[test]
    fn rule3a_recycles_unheld_key_and_evicts_objects() {
        let mut t = table();
        exhaust(&mut t);
        // Hold every key except k7.
        for &k in t.pool().to_vec().iter() {
            if k != ProtectionKey(7) {
                t.try_acquire(k, ThreadId(9), Perm::Read, s(9));
            }
        }
        let a = choose_key(
            &mut t,
            ThreadId(0),
            Perm::Write,
            ExhaustionPolicy::RecycleThenShare,
            &[],
            NO_CONFLICT,
            |_| true,
        );
        assert_eq!(
            a,
            Assignment::Recycled {
                key: ProtectionKey(7),
                evicted: vec![ObjectId(6)],
            }
        );
        assert!(!t.state(ProtectionKey(7)).assigned(), "drained by recycle");
    }

    #[test]
    fn rule3b_shares_when_all_keys_held() {
        let mut t = table();
        exhaust(&mut t);
        for &k in t.pool().to_vec().iter() {
            t.try_acquire(k, ThreadId(9), Perm::Read, s(9));
        }
        // Holder sections of k1/k2 access the object; k3's do not.
        let conflict = |k: ProtectionKey| k.0 <= 2;
        let a = choose_key(
            &mut t,
            ThreadId(0),
            Perm::Write,
            ExhaustionPolicy::RecycleThenShare,
            &[],
            conflict,
            |_| true,
        );
        assert_eq!(a, Assignment::Shared(ProtectionKey(3)));
    }

    #[test]
    fn rule3b_falls_back_to_least_contended_when_all_conflict() {
        let mut t = table();
        exhaust(&mut t);
        for &k in t.pool().to_vec().iter() {
            t.try_acquire(k, ThreadId(9), Perm::Read, s(9));
        }
        t.try_acquire(ProtectionKey(1), ThreadId(8), Perm::Read, s(8));
        let a = choose_key(
            &mut t,
            ThreadId(0),
            Perm::Write,
            ExhaustionPolicy::RecycleThenShare,
            &[],
            |_| true,
            |_| true,
        );
        // Every key conflicts; pick the least-contended (k2, since k1 has
        // two holders and the rest tie at one, ordered by index).
        assert_eq!(a, Assignment::Shared(ProtectionKey(2)));
    }

    #[test]
    fn share_only_policy_never_recycles() {
        let mut t = table();
        exhaust(&mut t);
        // No key is held at all: recycling would be possible...
        let a = choose_key(
            &mut t,
            ThreadId(0),
            Perm::Write,
            ExhaustionPolicy::ShareOnly,
            &[],
            NO_CONFLICT,
            |_| true,
        );
        // ...but ShareOnly shares anyway (ablation mode).
        assert!(matches!(a, Assignment::Shared(_)));
    }

    #[test]
    fn virtual_rule1_joins_resident_group_of_held_key() {
        let mut t = table();
        let mut v = VKeyTable::new(crate::vkey::KeyCachePolicy::Lru);
        // Seed a resident group on k1 via a fill.
        let a = choose_virtual(&mut v, &mut t, ThreadId(0), ObjectId(0), Perm::Write, &[], |_| 0, |_| true);
        let (vkey, key) = match a {
            VAssignment::Fill { vkey, key, evicted: None } => (vkey, key),
            other => panic!("expected a fill, got {other:?}"),
        };
        assert_eq!(key, ProtectionKey(1), "same fresh key as the direct rule 2");
        t.assign_object(key, ObjectId(0));
        t.try_acquire(key, ThreadId(0), Perm::Write, s(1));
        // A second object faulted by the same thread joins the held group.
        let b = choose_virtual(
            &mut v,
            &mut t,
            ThreadId(0),
            ObjectId(1),
            Perm::Write,
            &[(key, Perm::Write)],
            |_| 0,
            |_| true,
        );
        assert_eq!(b, VAssignment::Join { vkey, key });
        assert_eq!(v.vkey_of(ObjectId(1)), Some(vkey));
    }

    #[test]
    fn virtual_refault_on_resident_group_is_a_pure_hit() {
        let mut t = table();
        let mut v = VKeyTable::new(crate::vkey::KeyCachePolicy::Lru);
        let a = choose_virtual(&mut v, &mut t, ThreadId(0), ObjectId(0), Perm::Write, &[], |_| 0, |_| true);
        let b = choose_virtual(&mut v, &mut t, ThreadId(1), ObjectId(0), Perm::Write, &[], |_| 0, |_| true);
        assert_eq!(
            b,
            VAssignment::Hit {
                vkey: a.vkey(),
                key: a.key()
            }
        );
    }

    #[test]
    fn virtual_full_cache_evicts_unheld_lru_victim_then_revives_it() {
        let mut t = table();
        let mut v = VKeyTable::new(crate::vkey::KeyCachePolicy::Lru);
        // Fill all 13 cache slots with one-object groups.
        let mut vkeys = Vec::new();
        for i in 0..13u64 {
            let a = choose_virtual(&mut v, &mut t, ThreadId(0), ObjectId(i), Perm::Write, &[], |_| 0, |_| true);
            t.assign_object(a.key(), ObjectId(i));
            vkeys.push(a.vkey());
        }
        // Group 14: no free key, no holders anywhere — evict the LRU
        // victim (the first-filled group) without synchronization.
        let a = choose_virtual(&mut v, &mut t, ThreadId(1), ObjectId(13), Perm::Write, &[], |_| 0, |_| true);
        match &a {
            VAssignment::Fill { key, evicted: Some(ev), .. } => {
                assert_eq!(*key, ProtectionKey(1));
                assert_eq!(ev.victim, vkeys[0]);
                assert_eq!(ev.demoted, vec![ObjectId(0)]);
                assert!(ev.stripped.is_empty());
            }
            other => panic!("expected an eviction fill, got {other:?}"),
        }
        t.assign_object(a.key(), ObjectId(13));
        // Object 0 faults again: its group revives, evicting the next LRU
        // victim (group 2 on k2).
        let r = choose_virtual(&mut v, &mut t, ThreadId(0), ObjectId(0), Perm::Write, &[], |_| 0, |_| true);
        match r {
            VAssignment::Revive { vkey, key, evicted: Some(ev), logical } => {
                assert_eq!(vkey, vkeys[0]);
                assert_eq!(key, ProtectionKey(2));
                assert_eq!(ev.victim, vkeys[1]);
                assert!(logical.is_empty(), "victim 1 had no holders to remember");
            }
            other => panic!("expected a revival, got {other:?}"),
        }
    }

    #[test]
    fn virtual_eviction_of_held_key_records_logical_holders() {
        let mut t = table();
        let mut v = VKeyTable::new(crate::vkey::KeyCachePolicy::Lru);
        for i in 0..13u64 {
            let a = choose_virtual(&mut v, &mut t, ThreadId(i as usize), ObjectId(i), Perm::Write, &[], |_| 0, |_| true);
            t.assign_object(a.key(), ObjectId(i));
            t.try_acquire(a.key(), ThreadId(i as usize), Perm::Write, s(i));
        }
        // Every key held: the victim is still the LRU group, and its
        // holder is snapshotted for the revival re-check.
        let a = choose_virtual(&mut v, &mut t, ThreadId(13), ObjectId(13), Perm::Write, &[], |_| 0, |_| true);
        match a {
            VAssignment::Fill { key, evicted: Some(ev), .. } => {
                assert_eq!(key, ProtectionKey(1));
                assert_eq!(
                    ev.stripped,
                    vec![LogicalHolder {
                        thread: ThreadId(0),
                        section: s(0),
                        perm: Perm::Write,
                    }]
                );
            }
            other => panic!("expected a synchronized eviction, got {other:?}"),
        }
    }

    #[test]
    fn assignment_key_accessor() {
        assert_eq!(Assignment::FreshKey(ProtectionKey(2)).key(), ProtectionKey(2));
        assert_eq!(
            Assignment::Recycled {
                key: ProtectionKey(9),
                evicted: vec![]
            }
            .key(),
            ProtectionKey(9)
        );
    }
}
