//! The **key-section map** (paper §5.4, Figure 3b): which sections and
//! threads currently hold each read-write pool key, which objects each key
//! protects, and when keys were last released (for the timestamp filter).
//!
//! Since PR 6 the table has two faces. The [`KeyTable`] under the detector's
//! `keys` mutex remains the authoritative map, but the *uncontended* hold
//! and release of a key — the entire life of a private-lock critical
//! section — goes through [`KeyWords`]: one CAS-published holder word per
//! pool key, living outside the mutex. Every acquisition of the `keys`
//! mutex synchronizes the two ([`KeyWords::sync`] parks the pool with one
//! word and materializes fast holders into the table) and, on release,
//! rewrites only the holder words that disagree with the table and unparks
//! the pool ([`KeyWords::republish`]), so slow-path code continues to see
//! exactly the single coherent table it always has. Both faces are dense
//! arrays indexed by key.

use crate::types::{Perm, SectionId};
use kard_alloc::ObjectId;
use kard_sim::{CodeSite, KeyLayout, ProtectionKey, ThreadId};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One holder's entry in the key-section map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HolderInfo {
    /// Permission with which the key is held.
    pub perm: Perm,
    /// Section the holder was executing when it acquired the key.
    pub section: SectionId,
}

/// Per-key state.
#[derive(Clone, Debug, Default)]
pub struct KeyState {
    /// Objects currently protected by this key.
    pub objects: BTreeSet<ObjectId>,
    /// Threads currently holding the key.
    pub holders: HashMap<ThreadId, HolderInfo>,
    /// Stamp of the last release by a write-permission holder: the
    /// machine's fault-raise count at that release
    /// (`Machine::faults_raised`), so §5.5 can ask whether it followed a
    /// fault's raise (`GpFault::seq`).
    pub last_writer_release: Option<u64>,
    /// The thread that performed that last write-permission release (for
    /// race records produced by the release-timestamp check, §5.5).
    pub last_writer: Option<ThreadId>,
}

impl KeyState {
    /// The holder with write permission, if any.
    #[must_use]
    pub fn writer(&self) -> Option<ThreadId> {
        self.holders
            .iter()
            .find(|(_, info)| info.perm == Perm::Write)
            .map(|(&t, _)| t)
    }

    /// Whether any thread other than `t` holds the key.
    #[must_use]
    pub fn held_by_other(&self, t: ThreadId) -> bool {
        self.holders.keys().any(|&h| h != t)
    }

    /// Whether the key currently protects at least one object.
    #[must_use]
    pub fn assigned(&self) -> bool {
        !self.objects.is_empty()
    }
}

/// Index of `key` in the pool's dense per-key arrays ([`KeyTable`]'s
/// states, [`KeyWords`]' words): the read-write pool is always `k1..`,
/// contiguous ([`KeyLayout::read_write_pool`]).
///
/// # Panics
///
/// Panics for keys outside a pool of `len` keys.
fn pool_index(key: ProtectionKey, len: usize) -> usize {
    match usize::from(key.0).checked_sub(1) {
        Some(i) if i < len => i,
        _ => panic!("{key} is not a read-write pool key"),
    }
}

/// The key-section map over the read-write pool.
#[derive(Clone, Debug)]
pub struct KeyTable {
    /// Per-key state, indexed by [`pool_index`].
    states: Vec<KeyState>,
    pool: Vec<ProtectionKey>,
}

impl KeyTable {
    /// A table covering `layout`'s read-write pool.
    #[must_use]
    pub fn new(layout: &KeyLayout) -> KeyTable {
        let pool: Vec<_> = layout.read_write_pool().collect();
        KeyTable {
            states: vec![KeyState::default(); pool.len()],
            pool,
        }
    }

    /// The pool keys, in ascending order.
    #[must_use]
    pub fn pool(&self) -> &[ProtectionKey] {
        &self.pool
    }

    /// State of one pool key.
    ///
    /// # Panics
    ///
    /// Panics for keys outside the read-write pool.
    #[must_use]
    pub fn state(&self, key: ProtectionKey) -> &KeyState {
        &self.states[pool_index(key, self.states.len())]
    }

    fn state_mut(&mut self, key: ProtectionKey) -> &mut KeyState {
        let i = pool_index(key, self.states.len());
        &mut self.states[i]
    }

    /// Every pool key with its state, in pool order.
    fn keyed(&self) -> impl Iterator<Item = (ProtectionKey, &KeyState)> {
        self.pool.iter().copied().zip(&self.states)
    }

    /// Try to let `t` (in `section`) hold `key` with `perm`.
    ///
    /// Mirrors key-enforced access (§4): read-write requires no other
    /// holder; read-only requires no write-permission holder. Re-acquiring
    /// an already-held key widens its permission when allowed. Returns
    /// whether the acquisition succeeded.
    pub fn try_acquire(
        &mut self,
        key: ProtectionKey,
        t: ThreadId,
        perm: Perm,
        section: SectionId,
    ) -> bool {
        let state = self.state_mut(key);
        let ok = match perm {
            Perm::Write => !state.held_by_other(t),
            Perm::Read => state.writer().is_none_or(|w| w == t),
        };
        if ok {
            let entry = state
                .holders
                .entry(t)
                .or_insert(HolderInfo { perm, section });
            entry.perm = entry.perm.join(perm);
            entry.section = section;
        }
        ok
    }

    /// Permission with which `t` currently holds `key`, if any.
    #[must_use]
    pub fn holder_perm(&self, key: ProtectionKey, t: ThreadId) -> Option<Perm> {
        self.state(key).holders.get(&t).map(|info| info.perm)
    }

    /// Forcibly record `t` as a holder of `key`, bypassing the exclusivity
    /// check — exactly [`KeyTable::try_acquire`] where that would succeed.
    /// Used for reactive key assignment (§5.4: an object joins a shared
    /// key, rule 3b, or a held key that is itself shared) and for
    /// protection interleaving's deliberate re-keying (§5.5), all of which
    /// intentionally weaken exclusivity.
    pub fn force_acquire(
        &mut self,
        key: ProtectionKey,
        t: ThreadId,
        perm: Perm,
        section: SectionId,
    ) {
        let state = self.state_mut(key);
        let entry = state
            .holders
            .entry(t)
            .or_insert(HolderInfo { perm, section });
        entry.perm = entry.perm.join(perm);
        entry.section = section;
    }

    /// Narrow `t`'s hold on `key` back to `perm` (restoring an outer
    /// critical-section frame's permission on nested-section exit). A no-op
    /// when `t` no longer holds `key` — key-cache eviction can revoke a
    /// key out from under its holder (see [`KeyTable::strip_holder`]), and
    /// the holder's later section exit must not trip over the revocation.
    pub fn downgrade(&mut self, key: ProtectionKey, t: ThreadId, perm: Perm) {
        if let Some(info) = self.state_mut(key).holders.get_mut(&t) {
            info.perm = perm;
        }
    }

    /// Remove `t`'s hold on `key` *without* a release stamp.
    /// Key-cache eviction revokes keys libmpk-style rather than observing
    /// a program release, and the §5.5 timestamp filter must not mistake a
    /// revocation for a recent release by the program.
    pub fn strip_holder(&mut self, key: ProtectionKey, t: ThreadId) {
        self.state_mut(key).holders.remove(&t);
    }

    /// Release `t`'s hold on `key`, stamping `stamp` — the machine's
    /// fault-raise count at release, where Kard's §5.4 "Key release" reads
    /// RDTSCP — so the timestamp filter can later decide whether the key
    /// was effectively held when a fault was raised.
    pub fn release(&mut self, key: ProtectionKey, t: ThreadId, stamp: u64) {
        let state = self.state_mut(key);
        if let Some(info) = state.holders.remove(&t) {
            if info.perm == Perm::Write {
                state.last_writer_release = Some(stamp);
                state.last_writer = Some(t);
            }
        }
    }

    /// Bind `object` to `key`.
    pub fn assign_object(&mut self, key: ProtectionKey, object: ObjectId) {
        self.state_mut(key).objects.insert(object);
    }

    /// Unbind `object` from `key`. Returns whether it was bound.
    pub fn unassign_object(&mut self, key: ProtectionKey, object: ObjectId) -> bool {
        self.state_mut(key).objects.remove(&object)
    }

    /// Drain every object bound to `key` (used when recycling it, §5.4).
    pub fn take_objects(&mut self, key: ProtectionKey) -> Vec<ObjectId> {
        let state = self.state_mut(key);
        let objects: Vec<_> = state.objects.iter().copied().collect();
        state.objects.clear();
        objects
    }

    /// A pool key not protecting any object *and* not held by any thread
    /// (§5.4 rule 2). Protection interleaving can transiently leave a key
    /// held after its last object moved away; handing such a key to a new
    /// object would immediately violate exclusive write.
    #[must_use]
    pub fn unassigned_key(&self) -> Option<ProtectionKey> {
        self.keyed()
            .find(|(_, s)| !s.assigned() && s.holders.is_empty())
            .map(|(k, _)| k)
    }

    /// Every recycling candidate (assigned, unheld), in pool order. §5.4
    /// rule 3a tries them in turn: a candidate whose objects' fault shards
    /// cannot all be claimed is skipped for the next.
    #[must_use]
    pub fn unheld_assigned_keys(&self) -> Vec<ProtectionKey> {
        self.keyed()
            .filter(|(_, s)| s.assigned() && s.holders.is_empty())
            .map(|(k, _)| k)
            .collect()
    }

    /// The objects bound to `key`, in ascending id order, without
    /// draining them — the recycle path peeks at a candidate's objects to
    /// claim their fault shards before committing via
    /// [`KeyTable::take_objects`].
    #[must_use]
    pub fn objects_of(&self, key: ProtectionKey) -> Vec<ObjectId> {
        self.state(key).objects.iter().copied().collect()
    }

    /// Keys ordered by current holder count (ascending) — used to pick the
    /// least-contended key when sharing is unavoidable.
    #[must_use]
    pub fn keys_by_holder_count(&self) -> Vec<ProtectionKey> {
        let mut keys = self.pool.clone();
        keys.sort_by_key(|&k| (self.state(k).holders.len(), k.0));
        keys
    }
}

/// Holder word states. Outside a key-table guard, `EMPTY` means the table
/// shows no holder for the key, so winning the `EMPTY → BUSY` CAS and then
/// finding the pool unparked establishes sole holdership without
/// consulting the table.
const WORD_EMPTY: u64 = 0;
/// Transient state while the winning acquirer checks `parked` and then
/// either publishes its section site or backs out to `EMPTY`;
/// [`KeyWords::sync`] and [`KeyWords::republish`] spin through it (the
/// owner is wait-free inside).
const WORD_BUSY: u64 = 1;
/// The key's state lives in the locked table; every fast CAS fails until
/// a guard's republish stores `EMPTY`.
const WORD_SLOW: u64 = u64::MAX;

fn pack_fast(t: ThreadId, perm: Perm) -> u64 {
    let perm_bits = match perm {
        Perm::Read => 1,
        Perm::Write => 2,
    };
    ((t.0 as u64 + 1) << 3) | perm_bits
}

fn unpack_fast(word: u64) -> (ThreadId, Perm) {
    let perm = match word & 0b111 {
        1 => Perm::Read,
        2 => Perm::Write,
        bits => unreachable!("corrupt holder word permission bits {bits}"),
    };
    (ThreadId(((word >> 3) - 1) as usize), perm)
}

/// One pool key's lock-free face: its holder word plus side slots for the
/// data the slow path would have written into the table. Each fast
/// section entry and exit writes its key's word, so every key's word sits
/// alone on its cache lines: packed two to a line, two threads running
/// private sections under neighbouring keys missed on every entry and
/// exit — whether they did followed the heap's placement of the array and
/// which keys the threads drew, and cost `embed_threads` up to 26%.
#[repr(align(128))]
struct KeyWord {
    /// `WORD_EMPTY`, `WORD_BUSY`, `WORD_SLOW`, or a packed `(thread, perm)`.
    state: AtomicU64,
    /// Section site of the current fast holder. Written only between the
    /// `EMPTY → BUSY` and `BUSY → FAST` transitions, so it is stable
    /// whenever the state reads as a fast holder.
    section: AtomicU64,
    /// Pending `last_writer_release` stamp (the fault-raise count at the
    /// release, +1; 0 = none), written by fast write-permission releases
    /// and folded into the table on `sync`.
    release_stamp: AtomicU64,
    /// Thread (+1) of the pending release stamp.
    release_writer: AtomicU64,
}
const _: () = assert!(align_of::<KeyWord>() >= 128);

/// The pool's park flag: set for the whole of every key-table guard. Every
/// guard writes it twice and every fast acquire reads it, so it sits alone
/// on its cache lines, away from the holder words and the detector's
/// read-mostly fields.
#[repr(align(128))]
struct Parked(AtomicBool);
const _: () = assert!(align_of::<Parked>() >= 128);

/// CAS-published holder words for the read-write pool (§5.4 key-section
/// map, lock-free face), and one `parked` word for the whole pool.
///
/// Protocol invariant: outside a key-table guard, a word reads
/// `WORD_EMPTY` **iff** the table has no holder for that key *and* no fast
/// holder exists, and `WORD_SLOW` iff the table has one, so:
///
/// * fast acquire = one `EMPTY → BUSY` CAS, a load of `parked` that reads
///   clear, and `BUSY → FAST(t, perm)`; fast release = stamp slots + one
///   `FAST(t, perm) → EMPTY` CAS — zero locks;
/// * any slow-path code that takes the `keys` mutex first calls [`sync`],
///   which stores `parked` (failing every fast acquire for the duration),
///   then loads every word: it CASes only a fast-held word to `SLOW`,
///   force-acquiring its holder into the table, and writes no `EMPTY`
///   word. On guard drop [`republish`] writes only the words that disagree
///   with the table — `EMPTY → SLOW` for a key the guard left held,
///   `SLOW → EMPTY` for one it left unheld — and then clears `parked`.
///
/// # Word CAS, flag load; flag store, word load
///
/// The acquirer CASes `EMPTY → BUSY` and then loads `parked`; `sync`
/// stores `parked` and then loads the word; all four are `SeqCst`, so they
/// make a Dekker pair. If the CAS precedes `sync`'s load in the single
/// `SeqCst` order, the load reads `BUSY` or what the acquirer published
/// after it: `sync` spins through `BUSY` and materializes a fast holder.
/// If the load comes first, the acquirer's load of `parked` follows the
/// store and reads it set, so the acquirer stores `EMPTY` back and fails.
/// Either way, while a guard is open no fast holder exists that the table
/// does not show. A backing-out acquirer owns its `BUSY` word until it
/// stores `EMPTY`, which is why `republish` moves a held key's word
/// `EMPTY → SLOW` by CAS, spinning through `BUSY`: a plain store could be
/// overwritten by the late back-out and reopen a key the table holds. That
/// spin also means `parked` is cleared only after every such acquirer has
/// read it set; one that reads it clear afterwards takes a key the guard
/// left unheld.
///
/// [`sync`]: KeyWords::sync
/// [`republish`]: KeyWords::republish
pub struct KeyWords {
    parked: Parked,
    /// Holder words, indexed by [`pool_index`].
    words: Vec<KeyWord>,
}

impl KeyWords {
    /// Words for `layout`'s read-write pool, all starting `EMPTY`.
    #[must_use]
    pub fn new(layout: &KeyLayout) -> KeyWords {
        KeyWords {
            parked: Parked(AtomicBool::new(false)),
            words: layout
                .read_write_pool()
                .map(|_| KeyWord {
                    state: AtomicU64::new(WORD_EMPTY),
                    section: AtomicU64::new(0),
                    release_stamp: AtomicU64::new(0),
                    release_writer: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn word(&self, key: ProtectionKey) -> &KeyWord {
        &self.words[pool_index(key, self.words.len())]
    }

    /// Try to make `t` the sole holder of `key` with `perm` without
    /// touching the table. Fails (returns `false`) when the key has any
    /// holder, is mid-transition, is at `WORD_SLOW`, or the pool is parked.
    pub fn try_fast_acquire(
        &self,
        key: ProtectionKey,
        t: ThreadId,
        perm: Perm,
        section: SectionId,
    ) -> bool {
        let word = self.word(key);
        if word
            .state
            .compare_exchange(WORD_EMPTY, WORD_BUSY, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        if self.parked.0.load(Ordering::SeqCst) {
            // A guard is open and may already have read this word as
            // `EMPTY`: back out, leaving the key to the locked path.
            word.state.store(WORD_EMPTY, Ordering::SeqCst);
            return false;
        }
        word.section.store(section.0 .0, Ordering::SeqCst);
        word.state.store(pack_fast(t, perm), Ordering::SeqCst);
        true
    }

    /// Release a fast hold, stamping the write release's `stamp` (the
    /// fault-raise count, as for [`KeyTable::release`]) into the side
    /// slots exactly as that would into the table. Fails when a concurrent
    /// `sync` materialized the hold into the table (release via the mutex
    /// instead).
    pub fn try_fast_release(&self, key: ProtectionKey, t: ThreadId, perm: Perm, stamp: u64) -> bool {
        let word = self.word(key);
        if perm == Perm::Write {
            word.release_writer.store(t.0 as u64 + 1, Ordering::SeqCst);
            word.release_stamp.store(stamp + 1, Ordering::SeqCst);
        }
        word.state
            .compare_exchange(pack_fast(t, perm), WORD_EMPTY, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Retract a fast acquire that must not become visible (the entry
    /// cache turned out to be stale), leaving no release stamp. Fails when
    /// a concurrent `sync` already materialized the hold.
    pub fn undo_fast_acquire(&self, key: ProtectionKey, t: ThreadId, perm: Perm) -> bool {
        self.word(key)
            .state
            .compare_exchange(pack_fast(t, perm), WORD_EMPTY, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Park the pool and make `table` authoritative: fast holders are
    /// force-acquired into it, pending release stamps are folded in (the
    /// fault-raise count is global and monotone, so the larger stamp
    /// wins). On a tie — two releases with no fault raised between them —
    /// the table keeps its releaser: the stamp §5.5 compares is the same
    /// either way, and only which releaser a recent-release report names
    /// can differ, which needs a release after an unhandled raise and so
    /// several OS threads. Must be called with the `keys` mutex held,
    /// before the table is read.
    pub fn sync(&self, table: &mut KeyTable) {
        self.parked.0.store(true, Ordering::SeqCst);
        for (i, word) in self.words.iter().enumerate() {
            let mut cur = word.state.load(Ordering::SeqCst);
            loop {
                match cur {
                    WORD_EMPTY | WORD_SLOW => break,
                    WORD_BUSY => {
                        std::hint::spin_loop();
                        cur = word.state.load(Ordering::SeqCst);
                    }
                    fast => match word.state.compare_exchange(
                        fast,
                        WORD_SLOW,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            let (holder, perm) = unpack_fast(fast);
                            let section = SectionId(CodeSite(word.section.load(Ordering::SeqCst)));
                            table.force_acquire(table.pool[i], holder, perm, section);
                            break;
                        }
                        Err(now) => cur = now,
                    },
                }
            }
            let stamp = word.release_stamp.load(Ordering::SeqCst);
            if stamp != 0 {
                let stamp = stamp - 1;
                let state = &mut table.states[i];
                if state.last_writer_release.is_none_or(|r| r < stamp) {
                    state.last_writer_release = Some(stamp);
                    state.last_writer = word
                        .release_writer
                        .load(Ordering::SeqCst)
                        .checked_sub(1)
                        .map(|raw| ThreadId(raw as usize));
                }
            }
        }
    }

    /// Bring every word into line with `table` and unpark the pool: the
    /// fast path re-opens for every key the table shows as unheld. Must be
    /// called as the `keys` mutex is released, after every table mutation
    /// of the critical section is complete.
    pub fn republish(&self, table: &KeyTable) {
        for (word, state) in self.words.iter().zip(&table.states) {
            let cur = word.state.load(Ordering::SeqCst);
            if state.holders.is_empty() {
                if cur == WORD_SLOW {
                    word.state.store(WORD_EMPTY, Ordering::SeqCst);
                }
                continue;
            }
            if cur == WORD_SLOW {
                continue;
            }
            // Held in the table, published `EMPTY` (or mid back-out).
            loop {
                match word.state.compare_exchange(
                    WORD_EMPTY,
                    WORD_SLOW,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => break,
                    Err(WORD_BUSY) => std::hint::spin_loop(),
                    Err(other) => unreachable!("holder word {other:#x} on a parked pool"),
                }
            }
        }
        self.parked.0.store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for KeyWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyWords")
            .field("keys", &self.words.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kard_sim::CodeSite;

    fn table() -> KeyTable {
        KeyTable::new(&KeyLayout::mpk())
    }

    fn s(n: u64) -> SectionId {
        SectionId(CodeSite(n))
    }

    #[test]
    fn pool_matches_layout() {
        let t = table();
        assert_eq!(t.pool().len(), 13);
        assert_eq!(t.pool()[0], ProtectionKey(1));
        assert_eq!(t.pool()[12], ProtectionKey(13));
    }

    #[test]
    fn exclusive_write_blocks_all_others() {
        let mut table = table();
        let k = ProtectionKey(1);
        assert!(table.try_acquire(k, ThreadId(0), Perm::Write, s(1)));
        assert!(!table.try_acquire(k, ThreadId(1), Perm::Write, s(2)));
        assert!(!table.try_acquire(k, ThreadId(1), Perm::Read, s(2)));
        assert_eq!(table.state(k).writer(), Some(ThreadId(0)));
    }

    #[test]
    fn shared_read_allows_many_readers_but_no_writer() {
        let mut table = table();
        let k = ProtectionKey(2);
        assert!(table.try_acquire(k, ThreadId(0), Perm::Read, s(1)));
        assert!(table.try_acquire(k, ThreadId(1), Perm::Read, s(2)));
        assert!(!table.try_acquire(k, ThreadId(2), Perm::Write, s(3)));
        assert_eq!(table.state(k).writer(), None);
        assert_eq!(table.state(k).holders.len(), 2);
    }

    #[test]
    fn sole_reader_upgrades_to_writer() {
        let mut table = table();
        let k = ProtectionKey(3);
        assert!(table.try_acquire(k, ThreadId(0), Perm::Read, s(1)));
        assert!(table.try_acquire(k, ThreadId(0), Perm::Write, s(1)));
        assert_eq!(table.state(k).writer(), Some(ThreadId(0)));
    }

    #[test]
    fn release_stamps_writer_release_time() {
        let mut table = table();
        let k = ProtectionKey(1);
        table.try_acquire(k, ThreadId(0), Perm::Write, s(1));
        table.release(k, ThreadId(0), 777);
        assert_eq!(table.state(k).last_writer_release, Some(777));
        assert_eq!(table.state(k).last_writer, Some(ThreadId(0)));
        assert!(table.state(k).holders.is_empty());
        // Reader release does not stamp the writer timestamp.
        table.try_acquire(k, ThreadId(1), Perm::Read, s(2));
        table.release(k, ThreadId(1), 999);
        assert_eq!(table.state(k).last_writer_release, Some(777));
    }

    #[test]
    fn unassigned_and_unheld_queries() {
        let mut table = table();
        assert_eq!(table.unassigned_key(), Some(ProtectionKey(1)));
        assert_eq!(table.unheld_assigned_keys(), []);

        table.assign_object(ProtectionKey(1), ObjectId(1));
        table.assign_object(ProtectionKey(3), ObjectId(2));
        assert_eq!(table.unassigned_key(), Some(ProtectionKey(2)));
        assert_eq!(
            table.unheld_assigned_keys(),
            [ProtectionKey(1), ProtectionKey(3)]
        );

        table.try_acquire(ProtectionKey(1), ThreadId(0), Perm::Write, s(1));
        assert_eq!(table.unheld_assigned_keys(), [ProtectionKey(3)]);
    }

    #[test]
    fn take_objects_drains_for_recycling() {
        let mut table = table();
        let k = ProtectionKey(5);
        table.assign_object(k, ObjectId(1));
        table.assign_object(k, ObjectId(2));
        let objs = table.take_objects(k);
        assert_eq!(objs, vec![ObjectId(1), ObjectId(2)]);
        assert!(!table.state(k).assigned());
        assert_eq!(table.unassigned_key(), Some(ProtectionKey(1)));
    }

    #[test]
    fn keys_by_holder_count_prefers_idle_keys() {
        let mut table = table();
        table.try_acquire(ProtectionKey(1), ThreadId(0), Perm::Write, s(1));
        table.try_acquire(ProtectionKey(2), ThreadId(1), Perm::Read, s(2));
        table.try_acquire(ProtectionKey(2), ThreadId(2), Perm::Read, s(3));
        let order = table.keys_by_holder_count();
        assert_eq!(order[0], ProtectionKey(3), "idle keys first");
        assert_eq!(*order.last().unwrap(), ProtectionKey(2), "busiest last");
    }

    #[test]
    #[should_panic(expected = "not a read-write pool key")]
    fn non_pool_key_rejected() {
        let table = table();
        let _ = table.state(ProtectionKey(14));
    }

    #[test]
    #[should_panic(expected = "not a read-write pool key")]
    fn default_key_is_not_a_pool_key() {
        let words = KeyWords::new(&KeyLayout::mpk());
        words.try_fast_acquire(ProtectionKey(0), ThreadId(0), Perm::Read, s(1));
    }

    #[test]
    fn fast_acquire_is_exclusive_and_release_reopens() {
        let words = KeyWords::new(&KeyLayout::mpk());
        let k = ProtectionKey(3);
        assert!(words.try_fast_acquire(k, ThreadId(0), Perm::Write, s(9)));
        assert!(
            !words.try_fast_acquire(k, ThreadId(1), Perm::Write, s(10)),
            "held word refuses a second holder"
        );
        assert!(words.try_fast_release(k, ThreadId(0), Perm::Write, 500));
        assert!(words.try_fast_acquire(k, ThreadId(1), Perm::Write, s(10)));
    }

    fn word_state(words: &KeyWords, key: ProtectionKey) -> u64 {
        words.word(key).state.load(Ordering::SeqCst)
    }

    #[test]
    fn fast_acquire_fails_while_parked_and_succeeds_after_republish() {
        let mut table = table();
        let words = KeyWords::new(&KeyLayout::mpk());
        let k = ProtectionKey(6);
        words.sync(&mut table);
        assert_eq!(word_state(&words, k), WORD_EMPTY, "sync writes no EMPTY word");
        assert!(!words.try_fast_acquire(k, ThreadId(0), Perm::Write, s(1)));
        assert_eq!(word_state(&words, k), WORD_EMPTY, "the acquirer backs out");
        words.republish(&table);
        assert!(words.try_fast_acquire(k, ThreadId(0), Perm::Write, s(1)));
    }

    #[test]
    fn table_hold_reads_slow_until_a_later_guard_releases_it() {
        let mut table = table();
        let words = KeyWords::new(&KeyLayout::mpk());
        let k = ProtectionKey(8);
        words.sync(&mut table);
        assert!(table.try_acquire(k, ThreadId(1), Perm::Write, s(4)));
        words.republish(&table);
        assert_eq!(word_state(&words, k), WORD_SLOW);
        assert!(!words.try_fast_acquire(k, ThreadId(2), Perm::Read, s(5)));
        assert_eq!(word_state(&words, ProtectionKey(9)), WORD_EMPTY);

        words.sync(&mut table);
        table.release(k, ThreadId(1), 50);
        words.republish(&table);
        assert_eq!(word_state(&words, k), WORD_EMPTY);
        assert!(words.try_fast_acquire(k, ThreadId(2), Perm::Read, s(5)));
    }

    #[test]
    fn sync_materializes_fast_holders_and_parks_words() {
        let mut table = table();
        let words = KeyWords::new(&KeyLayout::mpk());
        let k = ProtectionKey(2);
        assert!(words.try_fast_acquire(k, ThreadId(4), Perm::Write, s(77)));
        words.sync(&mut table);
        let info = table.state(k).holders[&ThreadId(4)];
        assert_eq!(info.perm, Perm::Write);
        assert_eq!(info.section, s(77));
        // Parked: the materialized holder must release via the table.
        assert!(!words.try_fast_release(k, ThreadId(4), Perm::Write, 100));
        assert!(!words.try_fast_acquire(ProtectionKey(5), ThreadId(0), Perm::Read, s(1)));
        // Republish after the table-side release re-opens the fast path.
        table.release(k, ThreadId(4), 200);
        words.republish(&table);
        assert!(words.try_fast_acquire(k, ThreadId(0), Perm::Read, s(1)));
    }

    #[test]
    fn sync_folds_fast_release_stamps_newest_wins() {
        let mut table = table();
        let words = KeyWords::new(&KeyLayout::mpk());
        let k = ProtectionKey(1);
        assert!(words.try_fast_acquire(k, ThreadId(2), Perm::Write, s(5)));
        assert!(words.try_fast_release(k, ThreadId(2), Perm::Write, 400));
        words.sync(&mut table);
        assert_eq!(table.state(k).last_writer_release, Some(400));
        assert_eq!(table.state(k).last_writer, Some(ThreadId(2)));
        // A newer table-side stamp is not clobbered by the stale slot.
        table.try_acquire(k, ThreadId(3), Perm::Write, s(6));
        table.release(k, ThreadId(3), 900);
        words.republish(&table);
        let mut table2 = table.clone();
        words.sync(&mut table2);
        assert_eq!(table2.state(k).last_writer_release, Some(900));
        assert_eq!(table2.state(k).last_writer, Some(ThreadId(3)));
    }

    #[test]
    fn undo_retracts_without_stamping() {
        let mut table = table();
        let words = KeyWords::new(&KeyLayout::mpk());
        let k = ProtectionKey(7);
        assert!(words.try_fast_acquire(k, ThreadId(1), Perm::Write, s(2)));
        assert!(words.undo_fast_acquire(k, ThreadId(1), Perm::Write));
        words.sync(&mut table);
        assert!(table.state(k).holders.is_empty());
        assert_eq!(table.state(k).last_writer_release, None);
    }

    #[test]
    fn read_holds_do_not_stamp_release_times() {
        let mut table = table();
        let words = KeyWords::new(&KeyLayout::mpk());
        let k = ProtectionKey(4);
        assert!(words.try_fast_acquire(k, ThreadId(0), Perm::Read, s(3)));
        assert!(words.try_fast_release(k, ThreadId(0), Perm::Read, 123));
        words.sync(&mut table);
        assert_eq!(table.state(k).last_writer_release, None);
    }
}
