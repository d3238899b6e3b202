//! **Key virtualization**: break the 13-key ceiling with an eviction cache.
//!
//! MPK gives Kard 13 read-write pool keys (§5.2), so beyond 13 concurrent
//! shared-object groups the paper's §5.4 policy must *share* hardware keys,
//! which costs detection accuracy (§7.3). This module lifts the ceiling the
//! way libmpk lifts it for protection domains: every shared-object group
//! gets its own **virtual key** — an unbounded software identifier — and
//! the 13 hardware keys become an **eviction cache** over the virtual key
//! space:
//!
//! * **Hit** — the group's virtual key is resident (bound to a hardware
//!   key): translate and proceed; no new hardware key is consumed.
//! * **Fill** — a hardware key is free: bind the virtual key to it.
//! * **Evict** — the cache is full: a victim group loses its hardware key,
//!   its objects are demoted to the Read-only domain (one *grouped*
//!   `pkey_mprotect`), and any thread still holding the hardware key is
//!   stripped of it libmpk-style (an IPI plus a remote PKRU fix-up, charged
//!   as `pkey_sync` per holder). The §5.4 recycle rule survives as the
//!   eviction-priority heuristic — unheld victims first — and sharing
//!   becomes a near-unreachable safety net instead of the steady state.
//!
//! An evicted group is not forgotten: it keeps its member set and a
//! snapshot of the threads that held its key at eviction time (its
//! **logical holders**). When a later fault revives the group, the detector
//! re-checks the faulting access against logical holders still inside their
//! critical sections — restoring exactly the conflicts that key sharing
//! silently drops.
//!
//! The table is a passive data structure: [`crate::assignment::choose_virtual`]
//! decides, the detector applies side effects (migrations, `pkey_mprotect`
//! batches, PKRU strips). Everything here is deterministic — victim
//! selection orders by `(stamp, virtual key)` so identical runs pick
//! identical victims.

use crate::types::{Perm, SectionId};
use kard_alloc::ObjectId;
use kard_sim::{ProtectionKey, ThreadId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// An unbounded software protection key, 1:1 with a shared-object group.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VirtualKey(pub u64);

impl fmt::Debug for VirtualKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vk{}", self.0)
    }
}

impl fmt::Display for VirtualKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vk{}", self.0)
    }
}

/// Replacement policy of the hardware-key cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KeyCachePolicy {
    /// Evict the least-recently-*used* group (touched by a hit, fill, or
    /// revival). Default: key reuse is temporally clustered by critical
    /// sections, so LRU tracks the §5.4 working set well.
    #[default]
    Lru,
    /// Evict the *coldest* group: candidates are scored by the saturating
    /// side-metadata hotness counters of their member pages
    /// ([`crate::sidemeta`], bumped on section entry and fault handling),
    /// and the group whose hottest member is coldest loses its key. Hot
    /// groups therefore stay resident across repeated visits — where LRU
    /// thrashes under a scan of cold groups — and demotions land on pages
    /// unlikely to re-fault soon. Ties fall back to the LRU stamp, so
    /// with uniform hotness this degenerates to LRU exactly.
    Hotness,
}

/// A thread that held a group's hardware key at eviction time, remembered
/// so revival can re-check conflicts the stripped key can no longer raise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogicalHolder {
    /// The stripped holder.
    pub thread: ThreadId,
    /// Critical section it was executing when stripped.
    pub section: SectionId,
    /// Permission with which it held the hardware key.
    pub perm: Perm,
}

/// Counters of the virtualization layer, exported next to
/// [`crate::DetectorStats`] (kept separate so direct-mode statistics remain
/// byte-comparable between runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VKeyStats {
    /// Assignments satisfied by a resident virtual key (no hardware-key
    /// traffic beyond the translation).
    pub hits: u64,
    /// Assignments that bound a virtual key to a free hardware key.
    pub fills: u64,
    /// Victim groups that lost their hardware key.
    pub evictions: u64,
    /// Evictions whose victim key was still held, requiring libmpk-style
    /// key synchronization (one `pkey_sync` charge per stripped holder).
    pub synced_evictions: u64,
    /// Evicted groups brought back by a later fault.
    pub revivals: u64,
    /// Safety-net hardware-key shares (should stay zero: eviction makes
    /// §5.4 rule 3b unreachable unless every key is held *and* unbound).
    pub shares: u64,
    /// Maximum number of live (non-empty) groups observed at any
    /// assignment — the key-pressure high-water mark.
    pub peak_pressure: u64,
}

/// One shared-object group's state.
#[derive(Clone, Debug, Default)]
struct Group {
    /// The hardware key this group is bound to, when resident.
    binding: Option<ProtectionKey>,
    /// Objects belonging to the group.
    members: BTreeSet<ObjectId>,
    /// Cache clock at the last hit/fill/revival (LRU stamp).
    touched_at: u64,
    /// Holders stripped at eviction time; drained by revival. Empty while
    /// resident.
    logical: Vec<LogicalHolder>,
}

/// The virtual→hardware key cache: every shared-object group's virtual
/// key, which hardware key (if any) it is bound to, and the bookkeeping
/// needed for deterministic eviction.
#[derive(Clone, Debug)]
pub struct VKeyTable {
    groups: HashMap<VirtualKey, Group>,
    /// Reverse map: which virtual key each hardware key currently backs.
    resident: HashMap<ProtectionKey, VirtualKey>,
    /// Which group each live object belongs to.
    members: HashMap<ObjectId, VirtualKey>,
    next: u64,
    clock: u64,
    policy: KeyCachePolicy,
    stats: VKeyStats,
}

impl VKeyTable {
    /// An empty table with the given replacement policy.
    #[must_use]
    pub fn new(policy: KeyCachePolicy) -> VKeyTable {
        VKeyTable {
            groups: HashMap::new(),
            resident: HashMap::new(),
            members: HashMap::new(),
            next: 0,
            clock: 0,
            policy,
            stats: VKeyStats::default(),
        }
    }

    /// Mint a fresh virtual key with an empty, unbound group.
    pub fn create(&mut self) -> VirtualKey {
        let v = VirtualKey(self.next);
        self.next += 1;
        self.groups.insert(v, Group::default());
        v
    }

    fn group(&self, v: VirtualKey) -> &Group {
        self.groups
            .get(&v)
            .unwrap_or_else(|| panic!("{v} has no group"))
    }

    fn group_mut(&mut self, v: VirtualKey) -> &mut Group {
        self.groups
            .get_mut(&v)
            .unwrap_or_else(|| panic!("{v} has no group"))
    }

    /// Bind `v` to hardware key `key` (cache fill or revival).
    ///
    /// # Panics
    ///
    /// Panics if `v` is already bound or `key` already backs another
    /// virtual key — the caller must evict first.
    pub fn bind(&mut self, v: VirtualKey, key: ProtectionKey) {
        assert!(
            self.resident.insert(key, v).is_none(),
            "{key} already backs a virtual key"
        );
        self.clock += 1;
        let clock = self.clock;
        let group = self.group_mut(v);
        assert!(group.binding.is_none(), "{v} is already bound");
        group.binding = Some(key);
        group.touched_at = clock;
    }

    /// Refresh `v`'s LRU stamp (a cache hit).
    pub fn touch(&mut self, v: VirtualKey) {
        self.clock += 1;
        let clock = self.clock;
        self.group_mut(v).touched_at = clock;
    }

    /// The hardware key backing `v`, if resident.
    #[must_use]
    pub fn binding(&self, v: VirtualKey) -> Option<ProtectionKey> {
        self.group(v).binding
    }

    /// The virtual key hardware key `key` currently backs, if any.
    #[must_use]
    pub fn resident_vkey(&self, key: ProtectionKey) -> Option<VirtualKey> {
        self.resident.get(&key).copied()
    }

    /// The group `object` belongs to, if it has one.
    #[must_use]
    pub fn vkey_of(&self, object: ObjectId) -> Option<VirtualKey> {
        self.members.get(&object).copied()
    }

    /// Add `object` to `v`'s group.
    pub fn add_member(&mut self, v: VirtualKey, object: ObjectId) {
        self.group_mut(v).members.insert(object);
        self.members.insert(object, v);
    }

    /// `v`'s member objects, in ascending id order.
    #[must_use]
    pub fn members_of(&self, v: VirtualKey) -> Vec<ObjectId> {
        self.group(v).members.iter().copied().collect()
    }

    /// Drop `object` from its group (object freed). An emptied group that
    /// is not resident is removed outright; an emptied *resident* group
    /// lingers as a free-to-evict cache entry (its binding may still be
    /// held by threads winding down their sections). Returns the group the
    /// object belonged to.
    pub fn remove_member(&mut self, object: ObjectId) -> Option<VirtualKey> {
        let v = self.members.remove(&object)?;
        let group = self.group_mut(v);
        group.members.remove(&object);
        if group.members.is_empty() && group.binding.is_none() {
            self.groups.remove(&v);
        }
        Some(v)
    }

    /// Unbind `v` from its hardware key, remembering `stripped` as the
    /// group's logical holders. Returns the freed hardware key.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not resident.
    pub fn evict(&mut self, v: VirtualKey, stripped: Vec<LogicalHolder>) -> ProtectionKey {
        let group = self.group_mut(v);
        let key = group.binding.take().unwrap_or_else(|| panic!("{v} is not resident"));
        group.logical = stripped;
        let emptied = group.members.is_empty() && group.logical.is_empty();
        self.resident.remove(&key);
        if emptied {
            self.groups.remove(&v);
        }
        key
    }

    /// Drain `v`'s logical holders (revival performs its conflict re-check
    /// over the returned snapshot, then the group is live again).
    pub fn drain_logical(&mut self, v: VirtualKey) -> Vec<LogicalHolder> {
        std::mem::take(&mut self.group_mut(v).logical)
    }

    /// Pick the eviction victim among resident groups, or `None` when the
    /// cache holds no resident (and claimable) group. `holder_count`
    /// reports how many threads currently hold a hardware key; unheld
    /// victims are preferred (they evict without key synchronization —
    /// §5.4's recycle rule as an eviction priority), then empty groups
    /// (nothing to demote), then the policy score, with the virtual key id
    /// as the final tie-break so selection is deterministic.
    ///
    /// `group_hotness` scores a candidate's member set — under
    /// [`KeyCachePolicy::Hotness`] the detector supplies the maximum
    /// side-metadata hotness over the members' pages and the *coldest*
    /// group evicts first (LRU stamp breaking ties); LRU never calls it,
    /// so `|_| 0` reproduces it exactly.
    ///
    /// `claim_members` is the fault-shard claiming hook: candidates are
    /// offered in preference order, and the first whose member set the
    /// closure accepts wins. Refusing a candidate (its members have a
    /// fault in flight on another thread) moves selection to the next; a
    /// closure that always accepts reproduces the unclaimed behaviour
    /// exactly, which is what keeps single-threaded victim selection
    /// byte-identical to the serial detector.
    #[must_use]
    pub fn victim(
        &self,
        holder_count: impl Fn(ProtectionKey) -> usize,
        group_hotness: impl Fn(&[ObjectId]) -> u64,
        mut claim_members: impl FnMut(&[ObjectId]) -> bool,
    ) -> Option<VirtualKey> {
        let mut candidates: Vec<_> = self
            .resident
            .iter()
            .map(|(&key, &v)| {
                let group = &self.groups[&v];
                let heat = match self.policy {
                    KeyCachePolicy::Hotness => group_hotness(&self.members_of(v)),
                    KeyCachePolicy::Lru => 0,
                };
                (holder_count(key) > 0, !group.members.is_empty(), heat, group.touched_at, v.0, v)
            })
            .collect();
        candidates.sort();
        candidates
            .into_iter()
            .map(|(_, _, _, _, _, v)| v)
            .find(|&v| claim_members(&self.members_of(v)))
    }

    /// Number of live (non-empty) shared-object groups — the key pressure
    /// the cache is under.
    #[must_use]
    pub fn pressure(&self) -> usize {
        self.groups.values().filter(|g| !g.members.is_empty()).count()
    }

    /// Mutable access to the counters (the detector bumps them as it
    /// applies assignment side effects).
    pub fn stats_mut(&mut self) -> &mut VKeyStats {
        &mut self.stats
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> VKeyStats {
        self.stats
    }

    /// Record the current pressure into the peak-pressure high-water mark.
    pub fn note_pressure(&mut self) {
        let p = self.pressure() as u64;
        self.stats.peak_pressure = self.stats.peak_pressure.max(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_sim::CodeSite;

    fn holder_free(_: ProtectionKey) -> usize {
        0
    }

    #[test]
    fn create_bind_translate() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let v = t.create();
        assert_eq!(t.binding(v), None);
        t.bind(v, ProtectionKey(3));
        assert_eq!(t.binding(v), Some(ProtectionKey(3)));
        assert_eq!(t.resident_vkey(ProtectionKey(3)), Some(v));
    }

    #[test]
    fn membership_round_trips_and_pressure_counts_nonempty() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let a = t.create();
        let b = t.create();
        t.add_member(a, ObjectId(1));
        t.add_member(a, ObjectId(2));
        assert_eq!(t.vkey_of(ObjectId(2)), Some(a));
        assert_eq!(t.pressure(), 1, "{b} is empty");
        assert_eq!(t.members_of(a), vec![ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn remove_member_reaps_unbound_empty_groups() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let v = t.create();
        t.add_member(v, ObjectId(7));
        assert_eq!(t.remove_member(ObjectId(7)), Some(v));
        assert_eq!(t.vkey_of(ObjectId(7)), None);
        assert_eq!(t.pressure(), 0);
        // The group is gone entirely: creating again mints a new id.
        assert_ne!(t.create(), v);
    }

    #[test]
    fn resident_empty_group_lingers_until_evicted() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let v = t.create();
        t.add_member(v, ObjectId(7));
        t.bind(v, ProtectionKey(1));
        t.remove_member(ObjectId(7));
        // Still resident: the binding keeps the group alive...
        assert_eq!(t.resident_vkey(ProtectionKey(1)), Some(v));
        // ...and it is the preferred (free) victim.
        assert_eq!(t.victim(holder_free, |_| 0, |_| true), Some(v));
        let key = t.evict(v, Vec::new());
        assert_eq!(key, ProtectionKey(1));
        assert_eq!(t.resident_vkey(ProtectionKey(1)), None);
    }

    #[test]
    fn lru_victim_is_least_recently_touched() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let a = t.create();
        let b = t.create();
        t.add_member(a, ObjectId(1));
        t.add_member(b, ObjectId(2));
        t.bind(a, ProtectionKey(1));
        t.bind(b, ProtectionKey(2));
        t.touch(a); // b is now the LRU group.
        assert_eq!(t.victim(holder_free, |_| 0, |_| true), Some(b));
    }

    #[test]
    fn hotness_victim_is_the_coldest_group() {
        let mut t = VKeyTable::new(KeyCachePolicy::Hotness);
        let a = t.create();
        let b = t.create();
        t.add_member(a, ObjectId(1));
        t.add_member(b, ObjectId(2));
        t.bind(a, ProtectionKey(1));
        t.bind(b, ProtectionKey(2));
        // b was touched last (the LRU survivor), but a's member pages are
        // hot: hotness overrides recency and evicts the cold group b.
        t.touch(b);
        let heat = |members: &[ObjectId]| u64::from(members.contains(&ObjectId(1))) * 100;
        assert_eq!(t.victim(holder_free, heat, |_| true), Some(b));
        // With uniform hotness the tie falls back to the LRU stamp.
        assert_eq!(t.victim(holder_free, |_| 0, |_| true), Some(a));
    }

    #[test]
    fn unheld_victims_beat_held_ones() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let a = t.create();
        let b = t.create();
        t.add_member(a, ObjectId(1));
        t.add_member(b, ObjectId(2));
        t.bind(a, ProtectionKey(1));
        t.bind(b, ProtectionKey(2));
        // a is older (better LRU victim) but its key is held; b wins.
        let held = |k: ProtectionKey| usize::from(k == ProtectionKey(1));
        assert_eq!(t.victim(held, |_| 0, |_| true), Some(b));
    }

    #[test]
    fn refused_victims_fall_through_to_the_next_candidate() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let a = t.create();
        let b = t.create();
        t.add_member(a, ObjectId(1));
        t.add_member(b, ObjectId(2));
        t.bind(a, ProtectionKey(1));
        t.bind(b, ProtectionKey(2));
        // `a` is the preferred (older) victim, but its member's fault
        // shard cannot be claimed: selection moves on to `b`.
        let got = t.victim(holder_free, |_| 0, |members| !members.contains(&ObjectId(1)));
        assert_eq!(got, Some(b));
        // Nothing claimable at all: no victim, the caller falls back to
        // rule-3b sharing instead of blocking.
        assert_eq!(t.victim(holder_free, |_| 0, |_| false), None);
    }

    #[test]
    fn eviction_remembers_logical_holders_for_revival() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let v = t.create();
        t.add_member(v, ObjectId(1));
        t.bind(v, ProtectionKey(4));
        let holder = LogicalHolder {
            thread: ThreadId(2),
            section: SectionId(CodeSite(0x100)),
            perm: Perm::Write,
        };
        let key = t.evict(v, vec![holder]);
        assert_eq!(key, ProtectionKey(4));
        assert_eq!(t.binding(v), None);
        assert_eq!(t.vkey_of(ObjectId(1)), Some(v), "members survive eviction");
        t.bind(v, ProtectionKey(9));
        assert_eq!(t.drain_logical(v), vec![holder]);
        assert!(t.drain_logical(v).is_empty(), "drained once");
    }

    #[test]
    fn peak_pressure_tracks_high_water_mark() {
        let mut t = VKeyTable::new(KeyCachePolicy::Lru);
        let a = t.create();
        let b = t.create();
        t.add_member(a, ObjectId(1));
        t.note_pressure();
        assert_eq!(t.stats().peak_pressure, 1);
        t.add_member(b, ObjectId(2));
        t.note_pressure();
        assert_eq!(t.stats().peak_pressure, 2);
        t.remove_member(ObjectId(2));
        t.note_pressure();
        assert_eq!(t.pressure(), 1);
        assert_eq!(t.stats().peak_pressure, 2, "the high-water mark stays");
    }
}
