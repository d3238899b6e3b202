//! Property tests over the simulated hardware substrate.

use kard_sim::keys::KeyLayout;
use kard_sim::{
    AccessKind, AddressSpace, CodeSite, Machine, MachineConfig, MapError, Mapping, PageSpine,
    Permission, PhysFrame, Pkru, ProtectError, ProtectionKey, ProtectionMechanism, ThreadId,
    TlbConfig, VirtPage, MMAP_BASE_PAGE, PAGE_SIZE, USER_PAGE_END,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn perm_strategy() -> impl Strategy<Value = Permission> {
    prop_oneof![
        Just(Permission::NoAccess),
        Just(Permission::ReadOnly),
        Just(Permission::ReadWrite),
    ]
}

/// One page-table operation of the model test.
#[derive(Clone, Copy, Debug)]
enum PteOp {
    Map(VirtPage, PhysFrame),
    Unmap(VirtPage),
    Protect(VirtPage, u64, ProtectionKey),
    Touch(VirtPage),
}

/// The first pages of the mmap region, pages on both sides of the page
/// table's first-level boundary, and its last pages: ranges starting here
/// cross from the first level into the far one, and run off the region's
/// end over pages that can never be mapped.
fn pte_pages() -> Vec<VirtPage> {
    let base = MMAP_BASE_PAGE.0;
    let boundary = base + PageSpine::<()>::FIRST_LEVEL as u64;
    let end = USER_PAGE_END.0;
    (base..base + 3)
        .chain(boundary - 3..boundary + 3)
        .chain(end - 3..end)
        .map(VirtPage)
        .collect()
}

fn pte_op_strategy() -> impl Strategy<Value = PteOp> {
    let page = (0..pte_pages().len()).prop_map(|i| pte_pages()[i]).boxed();
    // 16 keys exist; 16..20 are invalid.
    let key = (0u16..20).prop_map(ProtectionKey);
    prop_oneof![
        (page.clone(), 0u64..1 << 46).prop_map(|(p, f)| PteOp::Map(p, PhysFrame(f))),
        page.clone().prop_map(PteOp::Unmap),
        (page.clone(), 0u64..4, key).prop_map(|(p, n, k)| PteOp::Protect(p, n, k)),
        page.prop_map(PteOp::Touch),
    ]
}

/// The page table as a plain ordered map: the reference the flat PTE
/// words, in both levels of their table, must match.
#[derive(Default)]
struct PteModel {
    table: BTreeMap<VirtPage, Mapping>,
    accessed: u64,
    peak_accessed: u64,
}

impl PteModel {
    fn map(&mut self, page: VirtPage, frame: PhysFrame) -> Result<(), MapError> {
        if self.table.contains_key(&page) {
            return Err(MapError::AlreadyMapped(page));
        }
        let fresh = Mapping {
            frame,
            pkey: ProtectionKey::DEFAULT,
            accessed: false,
        };
        self.table.insert(page, fresh);
        Ok(())
    }

    fn unmap(&mut self, page: VirtPage) -> Result<Mapping, MapError> {
        let mapping = self.table.remove(&page).ok_or(MapError::NotMapped(page))?;
        self.accessed -= u64::from(mapping.accessed);
        Ok(mapping)
    }

    fn protect(
        &mut self,
        first: VirtPage,
        count: u64,
        key: ProtectionKey,
    ) -> Result<(), ProtectError> {
        if key.0 >= 16 {
            return Err(ProtectError::InvalidKey(key));
        }
        if let Some(hole) = (0..count)
            .map(|i| first.add(i))
            .find(|p| !self.table.contains_key(p))
        {
            return Err(ProtectError::NotMapped(hole));
        }
        for i in 0..count {
            self.table.get_mut(&first.add(i)).unwrap().pkey = key;
        }
        Ok(())
    }

    fn touch(&mut self, page: VirtPage) {
        if let Some(m) = self.table.get_mut(&page).filter(|m| !m.accessed) {
            m.accessed = true;
            self.accessed += 1;
            self.peak_accessed = self.peak_accessed.max(self.accessed);
        }
    }
}

/// The reference dTLB: per set, a list of `(page, key)` entries with the
/// most recently used last. The machine's flat, stamped, thread-owned table
/// must answer every probe as this does.
struct TlbModel {
    ways: usize,
    sets: Vec<Vec<(VirtPage, ProtectionKey)>>,
}

impl TlbModel {
    fn new(config: TlbConfig) -> TlbModel {
        let sets = config.entries / config.ways;
        TlbModel { ways: config.ways, sets: vec![Vec::new(); sets] }
    }

    fn set(&mut self, page: VirtPage) -> &mut Vec<(VirtPage, ProtectionKey)> {
        let sets = self.sets.len() as u64;
        &mut self.sets[(page.0 % sets) as usize]
    }

    /// A hit moves the entry to the back of its set.
    fn probe(&mut self, page: VirtPage) -> Option<ProtectionKey> {
        let set = self.set(page);
        let hit = set.remove(set.iter().position(|&(p, _)| p == page)?);
        set.push(hit);
        Some(hit.1)
    }

    /// A full set evicts its front, the least recently used entry.
    fn install(&mut self, page: VirtPage, key: ProtectionKey) {
        let ways = self.ways;
        let set = self.set(page);
        if set.len() == ways {
            set.remove(0);
        }
        set.push((page, key));
    }

    fn invalidate(&mut self, page: VirtPage) {
        self.set(page).retain(|&(p, _)| p != page);
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// One step of the dTLB model test. Thread fields are taken modulo the
/// run's thread count.
#[derive(Clone, Copy, Debug)]
enum MachineOp {
    Access { thread: usize, page: usize, write: bool },
    Retag { thread: usize, page: usize, key: u16 },
    /// Unmap a mapped page, or map an unmapped one back onto a fresh frame.
    Remap { thread: usize, page: usize },
    Wrpkru { thread: usize, key: u16, perm: Permission },
}

/// Pages of the dTLB model test: three times its eight entries.
const MODEL_PAGES: usize = 24;

fn machine_op_strategy() -> impl Strategy<Value = MachineOp> {
    let (thread, page) = (0usize..3, 0..MODEL_PAGES);
    prop_oneof![
        6 => (thread.clone(), page.clone(), any::<bool>())
            .prop_map(|(thread, page, write)| MachineOp::Access { thread, page, write }),
        2 => (thread.clone(), page.clone(), 0u16..5)
            .prop_map(|(thread, page, key)| MachineOp::Retag { thread, page, key }),
        1 => (thread.clone(), page).prop_map(|(thread, page)| MachineOp::Remap { thread, page }),
        2 => (thread, 1u16..5, perm_strategy())
            .prop_map(|(thread, key, perm)| MachineOp::Wrpkru { thread, key, perm }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Driven from one OS thread, the machine's dTLBs behave exactly as
    /// one most-recent-last list per set per thread: every access agrees
    /// on hit or miss, on the key it checks, on whether it faults, and on
    /// the cycles it charges, through retags and unmaps (shot down in
    /// every thread), `WRPKRU` (no TLB effect under MPK, a flush under the
    /// fallback) and evictions.
    #[test]
    fn machine_dtlbs_match_a_most_recent_last_list_per_set(
        threads in 1usize..4,
        fallback in any::<bool>(),
        ops in prop::collection::vec(machine_op_strategy(), 1..200),
    ) {
        let config = TlbConfig { entries: 8, ways: 2 };
        let mechanism = if fallback {
            ProtectionMechanism::MprotectFallback
        } else {
            ProtectionMechanism::Mpk
        };
        let machine = Machine::new(MachineConfig { tlb: config, mechanism, ..MachineConfig::default() });
        let cost = *machine.cost_model();
        let ids: Vec<ThreadId> = (0..threads).map(|_| machine.register_thread()).collect();
        let first = machine.reserve_pages(MODEL_PAGES as u64);
        let pages: Vec<VirtPage> = (0..MODEL_PAGES as u64).map(|i| first.add(i)).collect();
        let pairs: Vec<_> = pages.iter().map(|&p| (p, machine.alloc_frame(ids[0]))).collect();
        machine.map_pages(ids[0], &pairs).unwrap();

        let mut keys = [Some(ProtectionKey::DEFAULT); MODEL_PAGES];
        let mut tlbs: Vec<TlbModel> = ids.iter().map(|_| TlbModel::new(config)).collect();
        let mut pkrus: Vec<Pkru> = ids.iter().map(|_| Pkru::allow_all(&machine.key_layout())).collect();
        for op in ops {
            match op {
                MachineOp::Access { thread, page, write } => {
                    let t = thread % threads;
                    // Unmapped memory is never touched (`access` panics).
                    let Some(walked) = keys[page] else { continue };
                    let page = pages[page];
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    let (stats, cycles) = (machine.tlb_stats(), machine.thread_cycles(ids[t]));
                    let result = machine.access(ids[t], page.base_addr(), kind, CodeSite(0));

                    let hit = tlbs[t].probe(page);
                    let key = hit.unwrap_or(walked);
                    let allowed = pkrus[t].allows(key, kind);
                    if hit.is_none() && allowed {
                        tlbs[t].install(page, key);
                    }
                    let after = machine.tlb_stats();
                    prop_assert_eq!(after.hits - stats.hits, u64::from(hit.is_some()), "{:?}", op);
                    prop_assert_eq!(after.misses - stats.misses, u64::from(hit.is_none()), "{:?}", op);
                    prop_assert_eq!(result.err().map(|fault| fault.pkey), (!allowed).then_some(key));
                    let charged = cost.mem_access + if hit.is_some() { 0 } else { cost.dtlb_miss };
                    prop_assert_eq!(machine.thread_cycles(ids[t]) - cycles, charged);
                }
                MachineOp::Retag { thread, page, key } => {
                    let key = ProtectionKey(key);
                    let result = machine.pkey_mprotect(ids[thread % threads], &[(pages[page], 1)], key);
                    prop_assert_eq!(result.is_ok(), keys[page].is_some());
                    if let Some(tagged) = &mut keys[page] {
                        *tagged = key;
                        tlbs.iter_mut().for_each(|tlb| tlb.invalidate(pages[page]));
                    }
                }
                MachineOp::Remap { thread, page } => {
                    let t = ids[thread % threads];
                    if keys[page].take().is_some() {
                        machine.unmap_pages(t, &[pages[page]]).unwrap();
                        tlbs.iter_mut().for_each(|tlb| tlb.invalidate(pages[page]));
                    } else {
                        let frame = machine.alloc_frame(t);
                        machine.map_pages(t, &[(pages[page], frame)]).unwrap();
                        keys[page] = Some(ProtectionKey::DEFAULT);
                    }
                }
                MachineOp::Wrpkru { thread, key, perm } => {
                    let t = thread % threads;
                    let key = ProtectionKey(key);
                    if fallback && pkrus[t].permission(key) != perm {
                        tlbs[t].flush();
                    }
                    pkrus[t].set_permission(key, perm);
                    machine.wrpkru(ids[t], pkrus[t].clone());
                }
            }
        }
        prop_assert_eq!(machine.counters().accesses, machine.tlb_stats().lookups());
    }

    /// The flat page table answers every map / unmap / retag / first-touch
    /// sequence exactly as an ordered map does: same results, same errors,
    /// same entries, same counters, after every step.
    #[test]
    fn page_table_matches_an_ordered_map_model(ops in prop::collection::vec(pte_op_strategy(), 1..80)) {
        let aspace = AddressSpace::new(16);
        let mut model = PteModel::default();
        for op in ops {
            match op {
                PteOp::Map(p, f) => prop_assert_eq!(aspace.writer().map(p, f), model.map(p, f)),
                PteOp::Unmap(p) => prop_assert_eq!(aspace.writer().unmap(p), model.unmap(p)),
                PteOp::Protect(p, n, k) => {
                    prop_assert_eq!(aspace.writer().pkey_mprotect(p, n, k), model.protect(p, n, k));
                }
                PteOp::Touch(p) => {
                    aspace.writer().mark_accessed(p);
                    model.touch(p);
                }
            }
            for page in pte_pages() {
                prop_assert_eq!(aspace.entry(page), model.table.get(&page).copied(), "{:?}", page);
                prop_assert_eq!(aspace.translate(page.base_addr().offset(9)), aspace.entry(page));
            }
            prop_assert_eq!(aspace.mapped_pages(), model.table.len());
            prop_assert_eq!(aspace.linux_rss_bytes(), model.accessed * PAGE_SIZE);
            prop_assert_eq!(aspace.peak_linux_rss_bytes(), model.peak_accessed * PAGE_SIZE);
        }
    }

    /// PKRU set/get round-trips for arbitrary assignments, and the raw
    /// 32-bit encoding decodes back to the same permissions.
    #[test]
    fn pkru_roundtrip_and_raw_encoding(perms in prop::collection::vec(perm_strategy(), 16)) {
        let layout = KeyLayout::mpk();
        let mut pkru = Pkru::allow_all(&layout);
        for (raw, &perm) in perms.iter().enumerate() {
            pkru.set_permission(ProtectionKey(raw as u16), perm);
        }
        for (raw, &perm) in perms.iter().enumerate() {
            prop_assert_eq!(pkru.permission(ProtectionKey(raw as u16)), perm);
        }
        // Decode the raw x86 encoding independently: AD = bit 2k,
        // WD = bit 2k+1.
        let raw_bits = pkru.to_raw_u32();
        for (k, &perm) in perms.iter().enumerate() {
            let ad = raw_bits >> (2 * k) & 1 == 1;
            let wd = raw_bits >> (2 * k + 1) & 1 == 1;
            let decoded = match (ad, wd) {
                (true, _) => Permission::NoAccess,
                (false, true) => Permission::ReadOnly,
                (false, false) => Permission::ReadWrite,
            };
            prop_assert_eq!(decoded, perm);
        }
    }

    /// Access legality is exactly determined by the page's key and the
    /// thread's PKRU permission for it, for arbitrary key/permission pairs.
    #[test]
    fn access_checks_match_pkru_semantics(
        key_raw in 0u16..16,
        perm in perm_strategy(),
        write in any::<bool>(),
    ) {
        let machine = Machine::new(MachineConfig::default());
        let t = machine.register_thread();
        let page = machine.mmap_one_page().unwrap();
        let key = ProtectionKey(key_raw);
        machine.pkey_mprotect(t, &[(page, 1)], key).unwrap();

        let mut pkru = Pkru::allow_all(&machine.key_layout());
        pkru.set_permission(key, perm);
        machine.wrpkru(t, pkru);

        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let result = machine.access(t, page.base_addr(), kind, CodeSite(0));
        let expected_ok = perm.allows(kind);
        prop_assert_eq!(result.is_ok(), expected_ok);
        if let Err(fault) = result {
            prop_assert_eq!(fault.pkey, key);
            prop_assert_eq!(fault.access, kind);
            prop_assert_eq!(fault.page, page);
        }
    }

    /// Cycle accounting is additive: charges accumulate exactly and the
    /// global clock equals the sum of per-thread cycles.
    #[test]
    fn cycle_accounting_is_additive(charges in prop::collection::vec((0usize..3, 1u64..10_000), 1..50)) {
        let machine = Machine::new(MachineConfig::default());
        let threads = [
            machine.register_thread(),
            machine.register_thread(),
            machine.register_thread(),
        ];
        let mut expected = [0u64; 3];
        for &(t, cycles) in &charges {
            machine.charge(threads[t], cycles);
            expected[t] += cycles;
        }
        for (i, &t) in threads.iter().enumerate() {
            prop_assert_eq!(machine.thread_cycles(t), expected[i]);
        }
        prop_assert_eq!(machine.now(), expected.iter().sum::<u64>());
    }

    /// Linux-style RSS counts each touched virtual page once, and frames
    /// (physical residency) never exceed the RSS.
    #[test]
    fn rss_counts_touched_pages_once(touch_pattern in prop::collection::vec(0usize..8, 1..64)) {
        let machine = Machine::new(MachineConfig::default());
        let t = machine.register_thread();
        let pages: Vec<VirtPage> = (0..8).map(|_| machine.mmap_one_page().unwrap()).collect();
        let mut touched = std::collections::BTreeSet::new();
        for &i in &touch_pattern {
            machine
                .access(t, pages[i].base_addr(), AccessKind::Write, CodeSite(0))
                .unwrap();
            touched.insert(i);
        }
        prop_assert_eq!(
            machine.linux_rss_bytes(),
            touched.len() as u64 * kard_sim::PAGE_SIZE
        );
        prop_assert!(machine.mem_stats().resident_bytes <= machine.linux_rss_bytes());
    }
}
