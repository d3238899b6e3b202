//! Property-based tests for the consolidated unique-page allocator
//! (Figure 2): arbitrary allocate/free sequences preserve the invariants
//! every other component relies on.
//!
//! Exact physical-usage counts (one mapping per allocation, file bytes
//! equal to demand) are properties of the *sharded* slow path, so those
//! tests pin [`KardAlloc::sharded`]. The magazine fast path provisions
//! slots in batches ahead of demand; its tests assert the batch-aware
//! bounds instead, plus the cross-thread ownership protocol (remote
//! frees, refill drains, flush-on-exit).

use kard::alloc::{KardAlloc, ObjectId, ALLOC_GRANULE, MAX_BATCH};
use kard::sim::{Machine, MachineConfig, ThreadId, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Action {
    Alloc(u64),
    Global(u64),
    /// Free the nth-oldest live heap object (modulo live count).
    Free(usize),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (1u64..300).prop_map(Action::Alloc),
        1 => (4096u64..20_000).prop_map(Action::Alloc),
        1 => (1u64..200).prop_map(Action::Global),
        3 => any::<usize>().prop_map(Action::Free),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocator_invariants_hold(actions in prop::collection::vec(action_strategy(), 1..80)) {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let t = machine.register_thread();
        let alloc = KardAlloc::sharded(Arc::clone(&machine));

        let mut live_heap: Vec<ObjectId> = Vec::new();
        // The in-memory file never shrinks (consolidation slots are reused,
        // not returned — §6 defers recycling), so the bound is against the
        // peak demand, plus one open bump frame.
        let mut peak_dedicated: u64 = 0;
        for action in actions {
            match action {
                Action::Alloc(size) => {
                    let info = alloc.alloc(t, size);
                    prop_assert!(info.rounded_size >= size);
                    prop_assert_eq!(info.rounded_size % ALLOC_GRANULE, 0);
                    live_heap.push(info.id);
                }
                Action::Global(size) => {
                    let info = alloc.register_global(t, size);
                    prop_assert_eq!(info.base.page_offset(), 0, "globals page-aligned");
                }
                Action::Free(n) => {
                    if !live_heap.is_empty() {
                        let id = live_heap.remove(n % live_heap.len());
                        alloc.free(t, id);
                    }
                }
            }

            // Invariant 1: live objects occupy pairwise-disjoint virtual
            // pages (per-object protection requires exclusive pages).
            let objects = alloc.live_objects();
            let mut page_owner = HashMap::new();
            for o in &objects {
                for i in 0..o.page_count {
                    let prev = page_owner.insert(o.first_page.add(i), o.id);
                    prop_assert_eq!(prev, None, "virtual page shared between objects");
                }
            }

            // Invariant 2: every in-extent address resolves to its object.
            for o in &objects {
                prop_assert_eq!(alloc.object_at(o.base).map(|i| i.id), Some(o.id));
                prop_assert_eq!(
                    alloc.object_at(o.base.offset(o.rounded_size - 1)).map(|i| i.id),
                    Some(o.id)
                );
            }

            // Invariant 3: consolidation bound — the physical file never
            // exceeds the *peak* of what dedicated frames would have used
            // (plus the open bump frame), since small objects consolidate.
            let dedicated_bytes: u64 = objects.iter().map(|o| o.page_count * PAGE_SIZE).sum();
            peak_dedicated = peak_dedicated.max(dedicated_bytes);
            let stats = machine.mem_stats();
            prop_assert!(
                stats.file_bytes <= peak_dedicated + PAGE_SIZE,
                "file {} > peak dedicated bound {}",
                stats.file_bytes,
                peak_dedicated
            );

            // Invariant 4: allocator stats agree with ground truth.
            prop_assert_eq!(alloc.stats().live_objects, objects.len() as u64);
        }
    }

    #[test]
    fn small_object_physical_usage_is_consolidated(count in 1u64..400) {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let t = machine.register_thread();
        let alloc = KardAlloc::sharded(Arc::clone(&machine));
        for _ in 0..count {
            let _ = alloc.alloc(t, 32);
        }
        let expected_frames = count.div_ceil(PAGE_SIZE / 32);
        prop_assert_eq!(machine.mem_stats().file_bytes, expected_frames * PAGE_SIZE);
        prop_assert_eq!(machine.mapped_pages() as u64, count);
    }

    #[test]
    fn magazine_overprovisioning_is_bounded(count in 1u64..400) {
        // The magazine path provisions slots in adaptive batches, so it may
        // run ahead of demand — but never by more than one maximum batch
        // per size class, and physical frames stay consolidated.
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let t = machine.register_thread();
        let alloc = KardAlloc::new(Arc::clone(&machine));
        let slack = MAX_BATCH as u64;
        for _ in 0..count {
            let _ = alloc.alloc(t, 32);
        }
        let mapped = machine.mapped_pages() as u64;
        prop_assert!(mapped >= count, "every live object has its own page");
        prop_assert!(
            mapped < count + slack,
            "provisioning overshoot {} exceeds one max batch",
            mapped - count
        );
        let frame_bound = (count + slack).div_ceil(PAGE_SIZE / 32) * PAGE_SIZE;
        prop_assert!(machine.mem_stats().file_bytes <= frame_bound);
    }

    #[test]
    fn churn_does_not_grow_physical_file(rounds in 1u64..60, size in 1u64..100) {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let t = machine.register_thread();
        let alloc = KardAlloc::sharded(Arc::clone(&machine));
        // One warm-up allocation fixes the file size for this class.
        let first = alloc.alloc(t, size);
        alloc.free(t, first.id);
        let baseline = machine.mem_stats().file_bytes;
        for _ in 0..rounds {
            let o = alloc.alloc(t, size);
            alloc.free(t, o.id);
        }
        prop_assert_eq!(
            machine.mem_stats().file_bytes,
            baseline,
            "slot reuse must keep the file size flat"
        );
    }
}

/// One step of a multi-thread magazine schedule. Frees name the freeing
/// thread independently of the object's owner, so arbitrary interleavings
/// of owner frees, remote frees, refill drains, and thread exits arise.
#[derive(Clone, Debug)]
enum MagAction {
    Alloc { thread: usize, size: u64 },
    Free { thread: usize, nth: usize },
    Exit { thread: usize },
}

fn mag_action_strategy(threads: usize) -> impl Strategy<Value = MagAction> {
    prop_oneof![
        5 => (0..threads, 1u64..300).prop_map(|(thread, size)| MagAction::Alloc { thread, size }),
        1 => (0..threads, 4096u64..12_000)
            .prop_map(|(thread, size)| MagAction::Alloc { thread, size }),
        4 => (0..threads, any::<usize>()).prop_map(|(thread, nth)| MagAction::Free { thread, nth }),
        1 => (0..threads).prop_map(|thread| MagAction::Exit { thread }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ownership protocol under arbitrary interleavings of
    /// owner-alloc, owner-free, remote-free, refill drains, and thread
    /// exit: the live set always matches a reference model exactly (no
    /// slot double-assignment, no lost object), every live object stays
    /// resolvable, and after freeing everything and exiting every thread
    /// nothing remains mapped — no slot is stranded on a dead thread's
    /// queue.
    #[test]
    fn magazine_ownership_protocol_holds(
        actions in prop::collection::vec(mag_action_strategy(4), 1..120)
    ) {
        const THREADS: usize = 4;
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let threads: Vec<ThreadId> = (0..THREADS).map(|_| machine.register_thread()).collect();
        let alloc = KardAlloc::new(Arc::clone(&machine));

        let mut model: HashMap<ObjectId, u64> = HashMap::new();
        let mut order: Vec<ObjectId> = Vec::new();
        let mut exited = [false; THREADS];

        for action in actions {
            match action {
                MagAction::Alloc { thread, size } => {
                    if exited[thread] {
                        continue; // an exited thread allocates nothing
                    }
                    let info = alloc.alloc(threads[thread], size);
                    prop_assert!(
                        model.insert(info.id, info.rounded_size).is_none(),
                        "object id handed out twice"
                    );
                    order.push(info.id);
                }
                MagAction::Free { thread, nth } => {
                    if order.is_empty() {
                        continue;
                    }
                    // Frees are legal from any thread, exited or not:
                    // remote frees to a closed queue fall back to the pool.
                    let id = order.remove(nth % order.len());
                    alloc.free(threads[thread], id);
                    model.remove(&id);
                }
                MagAction::Exit { thread } => {
                    alloc.on_thread_exit(threads[thread]);
                    exited[thread] = true;
                }
            }

            // The live set matches the model exactly: no leak, no loss.
            let live = alloc.live_objects();
            prop_assert_eq!(live.len(), model.len());
            let mut pages = HashMap::new();
            for o in &live {
                prop_assert_eq!(model.get(&o.id).copied(), Some(o.rounded_size));
                prop_assert_eq!(alloc.object_at(o.base).map(|i| i.id), Some(o.id));
                for i in 0..o.page_count {
                    prop_assert_eq!(
                        pages.insert(o.first_page.add(i), o.id),
                        None,
                        "virtual page shared between live objects"
                    );
                }
            }
        }

        // Drain: free every survivor from one thread (exercising remote
        // frees into possibly-closed queues), then exit everyone.
        for id in order {
            alloc.free(threads[0], id);
        }
        for t in &threads {
            alloc.on_thread_exit(*t);
        }
        prop_assert!(alloc.live_objects().is_empty());
        prop_assert_eq!(
            machine.mapped_pages(),
            0,
            "flush-on-exit must strand no slot or page"
        );
    }
}
