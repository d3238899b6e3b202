//! The page table under real OS threads: lock-free readers against the
//! one writer, and the ordering between a retag's TLB shootdown and a
//! concurrent access's walk.

use kard_sim::{AccessKind, CodeSite, Machine, MachineConfig, Permission, ProtectionKey, VirtPage};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// A dTLB entry must not outlive a completed `pkey_mprotect`.
///
/// Thread A may use key 3 and never key 4. Thread B retags the page to
/// key 4, raises `phase` to odd, lowers it to even, and retags back to
/// key 3 — so while `phase` is odd the page wears key 4 and every thread's
/// TLB has been shot down. An access by A that returned `Ok` with the same
/// odd `phase` read before and after it can only have hit a stale entry:
/// one A installed from a key-3 walk that B's shootdown did not see.
/// `Machine::access` installs, fences and re-loads the PTE, dropping the
/// entry if the key changed, while B stores the PTE, fences and then reads
/// A's set: one of the two sees the other, so A either drops the entry at
/// once or finds it posted and drops it before its next probe, and there
/// is no such entry.
#[test]
fn tlb_entry_does_not_survive_a_completed_pkey_mprotect() {
    const ROUNDS: u64 = 100_000;
    let (allowed, denied) = (ProtectionKey(3), ProtectionKey(4));

    let machine = Machine::new(MachineConfig::default());
    let a = machine.register_thread();
    let b = machine.register_thread();
    let page = machine.mmap_one_page().unwrap();
    machine.pkey_mprotect(b, &[(page, 1)], allowed).unwrap();
    let mut pkru = machine.rdpkru(a);
    pkru.set_permission(denied, Permission::NoAccess);
    machine.wrpkru(a, pkru);

    let phase = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let stale = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut stale = 0u64;
            start.wait();
            while !done.load(Ordering::SeqCst) {
                let before = phase.load(Ordering::SeqCst);
                let result = machine.access(a, page.base_addr(), AccessKind::Read, CodeSite(1));
                let after = phase.load(Ordering::SeqCst);
                if result.is_ok() && before == after && before % 2 == 1 {
                    stale += 1;
                }
            }
            stale
        });
        start.wait();
        for _ in 0..ROUNDS {
            machine.pkey_mprotect(b, &[(page, 1)], denied).unwrap();
            phase.fetch_add(1, Ordering::SeqCst);
            for _ in 0..64 {
                std::hint::spin_loop();
            }
            phase.fetch_add(1, Ordering::SeqCst);
            machine.pkey_mprotect(b, &[(page, 1)], allowed).unwrap();
        }
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap()
    });
    assert_eq!(
        stale, 0,
        "accesses allowed through a dTLB entry older than a completed pkey_mprotect"
    );
}

/// Readers of `Machine::page_key` take no lock, so they run against the
/// writer at full speed. The writer cycles each page through map → three
/// retags → unmap with keys that only that page ever wears; a reader may
/// see `None`, the default key a fresh mapping carries, or one of its own
/// page's keys — never a neighbour's entry or a half-written word.
#[test]
fn page_key_readers_only_see_what_the_writer_stored_for_that_page() {
    const PAGES: usize = 4;
    const READERS: usize = 3;
    const CYCLES: usize = 20_000;
    let keys_of = |i: usize| (1..=3).map(move |k| ProtectionKey((3 * i + k) as u16));

    let machine = Machine::new(MachineConfig::default());
    let writer = machine.register_thread();
    let first = machine.reserve_pages(PAGES as u64);
    let pages: Vec<VirtPage> = (0..PAGES as u64).map(|i| first.add(i)).collect();
    // Page `i` is only ever mapped onto frame `i`.
    let frames: Vec<_> = (0..PAGES).map(|_| machine.alloc_frame(writer)).collect();

    let done = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    for (i, &page) in pages.iter().enumerate() {
                        if let Some(key) = machine.page_key(page) {
                            assert!(
                                key == ProtectionKey::DEFAULT || keys_of(i).any(|k| k == key),
                                "page {i} read {key}, which was never stored for it"
                            );
                        }
                    }
                }
            });
        }
        start.wait();
        for cycle in 0..CYCLES {
            let i = cycle % PAGES;
            machine.map_pages(writer, &[(pages[i], frames[i])]).unwrap();
            for key in keys_of(i) {
                machine.pkey_mprotect(writer, &[(pages[i], 1)], key).unwrap();
                assert_eq!(machine.page_key(pages[i]), Some(key));
            }
            assert_eq!(machine.unmap_pages(writer, &[pages[i]]).unwrap(), [frames[i]]);
            assert_eq!(machine.page_key(pages[i]), None);
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(machine.mapped_pages(), 0);
}
