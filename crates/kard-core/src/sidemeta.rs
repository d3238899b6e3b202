//! Flat side metadata: object id → domain/key/hotness in O(1), no locks.
//!
//! The detector's per-object metadata — protection domain, virtual-key
//! membership, hotness — lives here, one cell of three atomic words per
//! object, each written with one store and read with one acquire load.
//! The domain word is the *only* record of an in-capacity object's
//! domain; the membership word mirrors the mutexed [`crate::vkey`] table.
//!
//! ```text
//!   ObjectId ──▶ cells[id]:
//!      domain word   0 = absent | code(1..=4) | (hw key + 1) << 8
//!      vkey word     0 = none   | virtual key + 1
//!      hot word      saturating hotness counter (relaxed)
//! ```
//!
//! **Why ids.** The mmtk card table this idiom comes from is indexed by
//! address because a write barrier starts from an address. Every caller
//! here starts from an [`ObjectId`] — the fault handler has already
//! resolved its address through the allocator, section plans and group
//! member lists hold ids — and ids are exactly as dense and never-reused
//! as the unique pages of §5.3 (`next_id` is a bump counter), so the id
//! is the index: no id → page detour, no hashing, no ABA, and one cell
//! per object however many pages it spans.
//!
//! **One capacity, and who owns what lies past it.** The cells sit on
//! [`kard_alloc::IdSpine`], the geometry every id-indexed table shares
//! (16 Mi ids; chunks materialize zeroed on first write, an idle table
//! costs one pointer per chunk). An id past it has no cell. This module
//! owns that case too: the domain — the one word the detector cannot do
//! without — goes to a small sharded map whose mutexes count on the
//! detector's lock counter, so each domain operation on such an object
//! costs exactly one lock; membership and hotness are simply not
//! recorded ([`SideMetadata::maybe_grouped`] answers "ask the vkey
//! table", heat reads 0). No caller tests the capacity.
//!
//! **Who writes, who reads.** The domain word is written with no lock of
//! its own — every writer after allocation already runs under the
//! object's fault shard or a `ShardClaims` claim, and the word is
//! last-writer-wins exactly as a locked map insert would be. The vkey
//! word is written under the `keys → vkeys` lock order next to the
//! membership-map mutation. Readers take no locks at all: the
//! section-entry planner and the free-path membership probe do one
//! acquire load per object. A planner's stale read is covered by the
//! section-plan protocol (`detector/plan.rs`, its one home): a domain
//! word that matters to a plan is stored *before* its writer marks the
//! plans of the sections accessing the object stale, so a plan built
//! from the old word is never published.
//!
//! **Hotness.** The `hot` word is a saturating per-object counter bumped
//! (relaxed `fetch_add`) on fault handling — not on section entry, which
//! is a lookup and touches no object. It drives
//! [`crate::vkey::KeyCachePolicy::Hotness`]: eviction prefers the
//! *coldest* resident group, so hot groups keep their hardware key and
//! cold groups are demoted lazily, a whole group per `pkey_mprotect`
//! (one `KardAlloc::protect` over the group) — the card-table
//! `inc_hotness` idea applied to key-cache replacement. Accumulation
//! without decay is deliberate: a group that faults every round keeps
//! pulling ahead of one touched once per scan, which is exactly the
//! separation the victim sort needs (decaying on demotion was tried and
//! collapses both to the same fixpoint).
//!
//! **Holder words.** The third piece of per-object metadata — who holds
//! the protecting key — is already a flat atomic structure: the per-key
//! holder words of PR 6 (`keymap::KeyWords`). The domain word stores the
//! hardware key precisely so the composition stays lock-free: one acquire
//! load here yields the key, one relaxed load of that key's holder word
//! yields the holder, with no per-object duplication to keep coherent.

use crate::domains::Domain;
use crate::vkey::VirtualKey;
use kard_alloc::ObjectId;
use kard_sim::ProtectionKey;
use kard_telemetry::sync::TrackedMutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The cell table: the shared id geometry.
#[cfg(not(test))]
type Cells = kard_alloc::IdSpine<MetaCell>;
/// Unit tests shrink the table to two chunks so the overflow store is
/// reached by burning 8 Ki ids instead of 16 Mi.
#[cfg(test)]
type Cells = kard_sim::Spine<MetaCell, 12, 2>;

/// Number of independently locked shards of the overflow domain map.
/// Object ids are dense, so a simple modulo spreads neighboring objects
/// across different locks.
const OVERFLOW_SHARDS: usize = 16;

/// Saturation ceiling of the hotness counter. High enough that ordering
/// among live groups is preserved for any realistic run.
pub const HOT_MAX: u64 = u32::MAX as u64;

const DOMAIN_NOT_ACCESSED: u64 = 1;
const DOMAIN_READ_ONLY: u64 = 2;
const DOMAIN_READ_WRITE: u64 = 3;
const DOMAIN_SUSPENDED: u64 = 4;

fn encode_domain(domain: Domain) -> u64 {
    match domain {
        Domain::NotAccessed => DOMAIN_NOT_ACCESSED,
        Domain::ReadOnly => DOMAIN_READ_ONLY,
        Domain::ReadWrite(key) => DOMAIN_READ_WRITE | (u64::from(key.0) + 1) << 8,
        Domain::Suspended => DOMAIN_SUSPENDED,
    }
}

fn decode_domain(word: u64) -> Option<Domain> {
    match word & 0xff {
        DOMAIN_NOT_ACCESSED => Some(Domain::NotAccessed),
        DOMAIN_READ_ONLY => Some(Domain::ReadOnly),
        DOMAIN_READ_WRITE => Some(Domain::ReadWrite(ProtectionKey((word >> 8) as u16 - 1))),
        DOMAIN_SUSPENDED => Some(Domain::Suspended),
        _ => None,
    }
}

#[derive(Default)]
struct MetaCell {
    domain: AtomicU64,
    vkey: AtomicU64,
    hot: AtomicU64,
}

/// The flat id-indexed metadata space (see [module docs](self)).
pub struct SideMetadata {
    cells: Cells,
    /// Domains of objects whose id is past the cells' capacity.
    overflow: Box<[TrackedMutex<HashMap<ObjectId, Domain>>]>,
}

impl SideMetadata {
    /// An empty table (allocates only the chunk spine) whose overflow
    /// mutexes count their acquisitions on `lock_counter`.
    #[must_use]
    pub fn new(lock_counter: &Arc<AtomicU64>) -> SideMetadata {
        SideMetadata {
            cells: Cells::new(),
            overflow: (0..OVERFLOW_SHARDS)
                .map(|_| TrackedMutex::new(HashMap::new(), Arc::clone(lock_counter)))
                .collect(),
        }
    }

    /// "Id in capacity": whether `id` has a cell (else only its domain is
    /// kept, in the overflow map).
    fn fits(id: ObjectId) -> bool {
        (id.0 as usize) < Cells::CAPACITY
    }

    /// `id`'s cell, materializing its chunk (write paths). `None` past
    /// capacity.
    fn cell(&self, id: ObjectId) -> Option<&MetaCell> {
        self.cells.get_or_publish(id.0 as usize)
    }

    /// `id`'s cell if its chunk exists (read paths — never materializes,
    /// so cold reads stay allocation-free).
    fn peek(&self, id: ObjectId) -> Option<&MetaCell> {
        self.cells.get(id.0 as usize)
    }

    fn overflow(&self, id: ObjectId) -> &TrackedMutex<HashMap<ObjectId, Domain>> {
        &self.overflow[id.0 as usize % OVERFLOW_SHARDS]
    }

    /// Record `id`'s protection domain: one release store (a locked
    /// insert past capacity), before the writer marks any plan stale.
    /// Last-writer-wins; every caller after allocation holds the object's
    /// fault shard or a [`crate::faultshard::ShardClaims`] claim on it.
    pub fn set_domain(&self, id: ObjectId, domain: Domain) {
        match self.cell(id) {
            Some(cell) => cell.domain.store(encode_domain(domain), Ordering::Release),
            None => {
                self.overflow(id).lock().insert(id, domain);
            }
        }
    }

    /// Forget `id`'s domain and return it (object freed): one swap (a
    /// locked remove past capacity).
    pub fn take_domain(&self, id: ObjectId) -> Option<Domain> {
        if Self::fits(id) {
            decode_domain(self.peek(id)?.domain.swap(0, Ordering::AcqRel))
        } else {
            self.overflow(id).lock().remove(&id)
        }
    }

    /// `id`'s protection domain: one acquire load, no locks (a locked
    /// lookup past capacity). `None` means no domain is recorded — never
    /// set, or taken by a free.
    #[must_use]
    pub fn domain(&self, id: ObjectId) -> Option<Domain> {
        if Self::fits(id) {
            decode_domain(self.peek(id)?.domain.load(Ordering::Acquire))
        } else {
            self.overflow(id).lock().get(&id).copied()
        }
    }

    /// Publish `id`'s virtual-key membership. Called under the
    /// `keys → vkeys` lock order, adjacent to the membership-map
    /// mutation. Not recorded past capacity.
    pub fn set_vkey(&self, id: ObjectId, vkey: VirtualKey) {
        if let Some(cell) = self.cell(id) {
            cell.vkey.store(vkey.0 + 1, Ordering::Release);
        }
    }

    /// `id`'s group, if one is recorded: one acquire load, no locks.
    #[must_use]
    pub fn vkey(&self, id: ObjectId) -> Option<VirtualKey> {
        match self.peek(id)?.vkey.load(Ordering::Acquire) {
            0 => None,
            raw => Some(VirtualKey(raw - 1)),
        }
    }

    /// Whether `id` may belong to a group: its membership word is set,
    /// or it is past capacity and has no word, so only the vkey table
    /// knows. `false` lets a free skip the `vkeys` mutex.
    #[must_use]
    pub fn maybe_grouped(&self, id: ObjectId) -> bool {
        !Self::fits(id) || self.vkey(id).is_some()
    }

    /// Bump `id`'s hotness counter (relaxed, saturating at [`HOT_MAX`]).
    /// Fired on every fault the object takes, and nowhere else: a section
    /// entry replays its plan without visiting the objects, so entries do
    /// not feed the counter. The saturation check is load-then-add, so a
    /// burst of concurrent bumps can overshoot the ceiling by the burst
    /// width — harmless for a replacement heuristic, and what keeps the
    /// hot path a single `fetch_add`.
    pub fn bump_hot(&self, id: ObjectId) {
        if let Some(cell) = self.cell(id) {
            if cell.hot.load(Ordering::Relaxed) < HOT_MAX {
                cell.hot.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `id`'s current hotness (relaxed; 0 past capacity).
    #[must_use]
    pub fn hot(&self, id: ObjectId) -> u64 {
        self.peek(id).map_or(0, |cell| cell.hot.load(Ordering::Relaxed))
    }

    /// Drop `id`'s membership and hotness words (object freed; ids are
    /// never reused, so this is bookkeeping hygiene, not correctness).
    pub fn clear(&self, id: ObjectId) {
        if let Some(cell) = self.peek(id) {
            cell.vkey.store(0, Ordering::Release);
            cell.hot.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vkey::KeyCachePolicy;
    use crate::{Kard, KardConfig, KeyMode, LockId};
    use kard_alloc::KardAlloc;
    use kard_sim::{CodeSite, Machine, MachineConfig, PAGE_SIZE};

    fn table() -> (SideMetadata, Arc<AtomicU64>) {
        let locks = Arc::new(AtomicU64::new(0));
        (SideMetadata::new(&locks), locks)
    }

    /// The first id without a cell.
    const PAST: ObjectId = ObjectId(Cells::CAPACITY as u64);

    #[test]
    fn domain_words_round_trip_every_variant() {
        let (m, _) = table();
        let id = ObjectId(3);
        for domain in [
            Domain::NotAccessed,
            Domain::ReadOnly,
            Domain::ReadWrite(ProtectionKey(0)),
            Domain::ReadWrite(ProtectionKey(13)),
            Domain::Suspended,
        ] {
            m.set_domain(id, domain);
            assert_eq!(m.domain(id), Some(domain));
        }
        assert_eq!(m.take_domain(id), Some(Domain::Suspended));
        assert_eq!(m.domain(id), None);
        assert_eq!(m.take_domain(id), None, "taken once");
    }

    #[test]
    fn absent_ids_read_as_none_without_materializing() {
        let (m, locks) = table();
        let id = ObjectId(100);
        assert_eq!(m.domain(id), None);
        assert_eq!(m.take_domain(id), None);
        assert_eq!(m.vkey(id), None);
        assert!(!m.maybe_grouped(id));
        assert_eq!(m.hot(id), 0);
        m.clear(id);
        assert_eq!(m.cells.iter().count(), 0, "a read materialized a chunk");
        assert_eq!(locks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn vkey_membership_round_trips() {
        let (m, _) = table();
        let id = ObjectId(7);
        assert_eq!(m.vkey(id), None);
        m.set_vkey(id, VirtualKey(0));
        assert_eq!(m.vkey(id), Some(VirtualKey(0)));
        m.set_vkey(id, VirtualKey(41));
        assert_eq!(m.vkey(id), Some(VirtualKey(41)));
        assert!(m.maybe_grouped(id));
        m.clear(id);
        assert_eq!(m.vkey(id), None);
        assert!(!m.maybe_grouped(id));
    }

    #[test]
    fn hotness_bumps_resets_and_saturates() {
        let (m, _) = table();
        for _ in 0..10 {
            m.bump_hot(ObjectId(1));
        }
        assert_eq!(m.hot(ObjectId(1)), 10);
        m.clear(ObjectId(1));
        assert_eq!(m.hot(ObjectId(1)), 0);
        // Saturation: a counter at the ceiling stays there.
        let cell = m.cell(ObjectId(2)).unwrap();
        cell.hot.store(HOT_MAX, Ordering::Relaxed);
        m.bump_hot(ObjectId(2));
        assert_eq!(m.hot(ObjectId(2)), HOT_MAX);
    }

    #[test]
    fn ids_past_capacity_keep_only_a_locked_domain() {
        let (m, locks) = table();
        let last = ObjectId(PAST.0 - 1);
        m.set_domain(last, Domain::ReadOnly);
        assert_eq!(m.domain(last), Some(Domain::ReadOnly));
        assert_eq!(locks.load(Ordering::Relaxed), 0, "the last cell is a cell");

        m.set_domain(PAST, Domain::ReadOnly);
        assert_eq!(m.domain(PAST), Some(Domain::ReadOnly));
        assert_eq!(locks.load(Ordering::Relaxed), 2, "one lock per domain operation");
        // No membership or hotness word: the free path must ask the table.
        m.set_vkey(PAST, VirtualKey(5));
        m.bump_hot(PAST);
        m.clear(PAST);
        assert_eq!((m.vkey(PAST), m.hot(PAST)), (None, 0));
        assert!(m.maybe_grouped(PAST));
        assert_eq!(locks.load(Ordering::Relaxed), 2, "only domains are kept");
        assert_eq!(m.take_domain(PAST), Some(Domain::ReadOnly));
        assert_eq!(m.domain(PAST), None);
        assert!(m.overflow.iter().all(|shard| shard.lock().is_empty()));
    }

    fn kard(config: KardConfig) -> Kard {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
        Kard::new(machine, alloc, config)
    }

    fn hotness_virtualized() -> KardConfig {
        KardConfig {
            keys: KeyMode::Virtual(KeyCachePolicy::Hotness),
            ..KardConfig::paper()
        }
    }

    /// What the page-keyed table could not state: an object spanning
    /// several pages has one domain, one membership and one heat, in one
    /// cell, and a free leaves none of them behind.
    #[test]
    fn a_three_page_object_lives_in_one_cell_until_freed() {
        let kard = kard(hotness_virtualized());
        let t = kard.register_thread();
        let obj = kard.on_alloc(t, 3 * PAGE_SIZE);
        assert_eq!(obj.page_count, 3);
        let site = CodeSite(0x10);
        kard.lock_enter(t, LockId(1), site);
        // Touch every page: all three fault or hit under the one key.
        for page in 0..3 {
            kard.write(t, obj.base.offset(page * PAGE_SIZE), site);
        }
        kard.lock_exit(t, LockId(1));

        let m = kard.sidemeta();
        assert!(matches!(m.domain(obj.id), Some(Domain::ReadWrite(_))));
        assert!(m.vkey(obj.id).is_some());
        assert!(m.hot(obj.id) > 0);
        let used = |m: &SideMetadata| {
            let word = |w: &AtomicU64| w.load(Ordering::Relaxed) != 0;
            m.cells
                .iter()
                .filter(|(_, c)| word(&c.domain) || word(&c.vkey) || word(&c.hot))
                .map(|(id, _)| id as u64)
                .collect::<Vec<_>>()
        };
        assert_eq!(used(m), vec![obj.id.0], "one object, one cell");

        kard.on_free(t, obj.id);
        assert_eq!(used(m), Vec::<u64>::new(), "the free scrubs the cell");
        assert_eq!(kard.domain_of(obj.id), None);
    }

    /// Walk one small object through alloc → identify (Read-only) →
    /// migrate (Read-write) → free, asserting `domain_of` after each step;
    /// returns the detector-lock acquisitions of each step.
    fn domain_lifecycle(kard: &Kard) -> [u64; 4] {
        let t = kard.register_thread();
        let (lock, site) = (LockId(1), CodeSite(0x10));
        let locks = || kard.detector_lock_acquisitions();

        let at = locks();
        let obj = kard.on_alloc(t, 64);
        let alloc = locks() - at;
        assert_eq!(kard.domain_of(obj.id), Some(Domain::NotAccessed));

        kard.lock_enter(t, lock, site);
        let at = locks();
        kard.read(t, obj.base, site);
        let identify = locks() - at;
        assert_eq!(kard.domain_of(obj.id), Some(Domain::ReadOnly));
        let at = locks();
        kard.write(t, obj.base, site);
        let migrate = locks() - at;
        assert!(matches!(kard.domain_of(obj.id), Some(Domain::ReadWrite(_))));
        kard.lock_exit(t, lock);

        let at = locks();
        kard.on_free(t, obj.id);
        let free = locks() - at;
        assert_eq!(kard.domain_of(obj.id), None, "the free leaves no entry");
        [alloc, identify, migrate, free]
    }

    /// Each lifecycle step writes the object's domain exactly once. In
    /// capacity that write is a side-metadata word operation — an
    /// allocation takes no detector lock at all; past the table's
    /// capacity the same sequence runs through the overflow map, so every
    /// step costs exactly one more (overflow-shard) lock, `domain_of`
    /// still tracks each step, and the free removes the entry — and,
    /// under virtualization, the group membership the object joined.
    #[test]
    fn domain_store_is_lock_free_in_capacity_and_mapped_beyond_it() {
        for config in [KardConfig::paper(), hotness_virtualized()] {
            let near = domain_lifecycle(&kard(config));
            assert_eq!(near[0], 0, "an in-capacity alloc is one word store");

            // Burn every id that has a cell (straight through the
            // allocator: the detector never sees these objects).
            let kard = kard(config);
            let t = kard.register_thread();
            for _ in 0..Cells::CAPACITY {
                let burnt = kard.alloc().alloc(t, 64);
                kard.alloc().free(t, burnt.id);
            }
            let far = domain_lifecycle(&kard);
            assert_eq!(far, near.map(|n| n + 1), "one overflow-shard lock per step");
            assert!(kard.sidemeta().overflow.iter().all(|shard| shard.lock().is_empty()));

            if matches!(config.keys, KeyMode::Virtual(_)) {
                // A second group after the free: had the freed overflow
                // object stayed a member, two groups would be live.
                let t = kard.register_thread();
                let other = kard.on_alloc(t, 64);
                kard.lock_enter(t, LockId(2), CodeSite(0x20));
                kard.write(t, other.base, CodeSite(0x20));
                kard.lock_exit(t, LockId(2));
                assert_eq!(kard.vkey_stats().peak_pressure, 1, "membership freed too");
            }
        }
    }
}
