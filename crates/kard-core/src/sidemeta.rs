//! Flat side metadata: object id → domain/key/hotness in O(1), no locks.
//!
//! The detector's per-object metadata — protection domain, virtual-key
//! membership, hotness — lives here, one cell of three atomic words per
//! object, each written with one store and read with one acquire load.
//! The domain word is the *only* record of an object's domain; the
//! membership word mirrors the mutexed [`crate::vkey`] table.
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
//! **One geometry, every id.** The cells sit on
//! [`kard_alloc::IdSpine`], the geometry every id-indexed table shares:
//! the page table's, which spans the whole simulated address space, and
//! every object owns at least one fresh page, so every id the allocator
//! can issue has a cell. Chunks materialize zeroed on first write; an
//! idle table costs one pointer per first-level chunk, and ids past the
//! first 16 Mi reach their cell through one more level, built only where
//! touched. No operation here takes a lock, at any id.
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
use std::sync::atomic::{AtomicU64, Ordering};

/// The cell table: the shared id geometry.
#[cfg(not(test))]
type Cells = kard_alloc::IdSpine<MetaCell>;
/// Unit tests shrink the first level to two chunks, so the far level is
/// reached by burning 8 Ki ids instead of 16 Mi; its 2,047 nodes still
/// cover the 16 Mi ids of the real first level.
#[cfg(test)]
type Cells = kard_sim::Spine<MetaCell, 12, 2, 2047>;

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
#[derive(Default)]
pub struct SideMetadata {
    cells: Cells,
}

impl SideMetadata {
    /// `id`'s cell, materializing its chunk (write paths).
    fn cell(&self, id: ObjectId) -> Option<&MetaCell> {
        self.cells.get_or_publish(id.0 as usize)
    }

    /// `id`'s cell if its chunk exists (read paths — never materializes,
    /// so cold reads stay allocation-free).
    fn peek(&self, id: ObjectId) -> Option<&MetaCell> {
        self.cells.get(id.0 as usize)
    }

    /// Record `id`'s protection domain: one release store, before the
    /// writer marks any plan stale. Last-writer-wins; every caller after
    /// allocation holds the object's fault shard or a
    /// [`crate::faultshard::ShardClaims`] claim on it.
    pub fn set_domain(&self, id: ObjectId, domain: Domain) {
        if let Some(cell) = self.cell(id) {
            cell.domain.store(encode_domain(domain), Ordering::Release);
        }
    }

    /// Forget `id`'s domain and return it (object freed): one swap.
    pub fn take_domain(&self, id: ObjectId) -> Option<Domain> {
        decode_domain(self.peek(id)?.domain.swap(0, Ordering::AcqRel))
    }

    /// `id`'s protection domain: one acquire load, no locks. `None` means
    /// no domain is recorded — never set, or taken by a free.
    #[must_use]
    pub fn domain(&self, id: ObjectId) -> Option<Domain> {
        decode_domain(self.peek(id)?.domain.load(Ordering::Acquire))
    }

    /// Publish `id`'s virtual-key membership. Called under the
    /// `keys → vkeys` lock order, adjacent to the membership-map
    /// mutation.
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

    /// `id`'s current hotness (relaxed; 0 if never bumped).
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
    use std::sync::Arc;

    fn table() -> SideMetadata {
        SideMetadata::default()
    }

    /// The first id of the far level.
    const FAR: ObjectId = ObjectId(Cells::FIRST_LEVEL as u64);

    #[test]
    fn domain_words_round_trip_every_variant() {
        let m = table();
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
        let m = table();
        for id in [ObjectId(100), FAR] {
            assert_eq!(m.domain(id), None);
            assert_eq!(m.take_domain(id), None);
            assert_eq!(m.vkey(id), None);
            assert_eq!(m.hot(id), 0);
            m.clear(id);
        }
        assert_eq!(m.cells.iter().count(), 0, "a read materialized a chunk");
    }

    #[test]
    fn vkey_membership_round_trips() {
        let m = table();
        let id = ObjectId(7);
        assert_eq!(m.vkey(id), None);
        m.set_vkey(id, VirtualKey(0));
        assert_eq!(m.vkey(id), Some(VirtualKey(0)));
        m.set_vkey(id, VirtualKey(41));
        assert_eq!(m.vkey(id), Some(VirtualKey(41)));
        m.clear(id);
        assert_eq!(m.vkey(id), None);
    }

    #[test]
    fn hotness_bumps_resets_and_saturates() {
        let m = table();
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

    /// The far level keeps all three words, exactly as the first does.
    #[test]
    fn far_ids_keep_every_word() {
        let m = table();
        let last = ObjectId(Cells::CAPACITY as u64 - 1);
        for id in [FAR, last] {
            m.set_domain(id, Domain::ReadOnly);
            m.set_vkey(id, VirtualKey(5));
            m.bump_hot(id);
            assert_eq!(m.domain(id), Some(Domain::ReadOnly));
            assert_eq!((m.vkey(id), m.hot(id)), (Some(VirtualKey(5)), 1));
            assert_eq!(m.take_domain(id), Some(Domain::ReadOnly));
            m.clear(id);
            assert_eq!((m.domain(id), m.vkey(id), m.hot(id)), (None, None, 0));
        }
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
    /// returns the object and the detector-lock acquisitions of each step.
    fn domain_lifecycle(kard: &Kard) -> (ObjectId, [u64; 4]) {
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
        (obj.id, [alloc, identify, migrate, free])
    }

    /// Each lifecycle step writes the object's domain exactly once, as a
    /// side-metadata word operation — an allocation takes no detector
    /// lock at all — and an object past the first level's ids costs
    /// exactly what a near one does: `domain_of` tracks each step, and the
    /// free removes the entry and, under virtualization, the group
    /// membership the object joined.
    #[test]
    fn domain_store_is_lock_free_at_every_id() {
        for config in [KardConfig::paper(), hotness_virtualized()] {
            let (_, near) = domain_lifecycle(&kard(config));
            assert_eq!(near[0], 0, "an alloc is one word store");

            // Burn every id of the first level (straight through the
            // allocator: the detector never sees these objects).
            let kard = kard(config);
            let t = kard.register_thread();
            for _ in 0..Cells::FIRST_LEVEL {
                let burnt = kard.alloc().alloc(t, 64);
                kard.alloc().free(t, burnt.id);
            }
            let (id, far) = domain_lifecycle(&kard);
            assert!(id.0 >= FAR.0, "the object lives in the far level");
            assert_eq!(far, near, "a far object costs no lock a near one does not");

            if matches!(config.keys, KeyMode::Virtual(_)) {
                // A second group after the free: had the freed far object
                // stayed a member, two groups would be live.
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
