//! Unit tests of the detector as a whole, driven through [`Kard`]'s
//! public calls (plus two that hand the fault handler a crafted fault).
#![cfg(test)]

use super::fault::FaultAction;
use super::*;
use crate::domains::Domain;
use crate::types::{LockId, Perm, SectionId};
use kard_sim::{AccessKind, CodeSite, GpFault, MachineConfig};

fn setup() -> (Arc<Machine>, Kard) {
    setup_with(KardConfig::default(), 16)
}

fn setup_with(config: KardConfig, keys: u16) -> (Arc<Machine>, Kard) {
    let mc = MachineConfig {
        key_layout: KeyLayout::with_total_keys(keys),
        ..MachineConfig::default()
    };
    let machine = Arc::new(Machine::new(mc));
    let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
    let kard = Kard::new(Arc::clone(&machine), alloc, config);
    (machine, kard)
}

fn site(n: u64) -> CodeSite {
    CodeSite(n)
}

#[test]
fn figure_1a_exclusive_write_detected() {
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 32);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1));
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.read(t2, o.base, site(0xb1));
    kard.lock_exit(t2, LockId(2));
    kard.lock_exit(t1, LockId(1));

    let reports = kard.reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.object, o.id);
    assert_eq!(r.faulting.thread, t2);
    assert_eq!(r.holding.thread, t1);
    assert_eq!(r.access, AccessKind::Read);
}

#[test]
fn figure_1b_shared_read_not_reported() {
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 32);

    // Teach both sections that they read o (first run, serial).
    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.read(t1, o.base, site(0xa1));
    kard.lock_exit(t1, LockId(1));

    // Concurrent shared read.
    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.read(t1, o.base, site(0xa1));
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.read(t2, o.base, site(0xb1));
    kard.lock_exit(t2, LockId(2));
    kard.lock_exit(t1, LockId(1));

    assert!(kard.reports().is_empty());
    assert_eq!(kard.domain_of(o.id), Some(Domain::ReadOnly));
}

#[test]
fn identification_migrates_domains() {
    let (_, kard) = setup();
    let t = kard.register_thread();
    let o = kard.on_alloc(t, 32);
    assert_eq!(kard.domain_of(o.id), Some(Domain::NotAccessed));

    kard.lock_enter(t, LockId(1), site(0x1));
    kard.read(t, o.base, site(0x2));
    assert_eq!(kard.domain_of(o.id), Some(Domain::ReadOnly));
    kard.write(t, o.base, site(0x3));
    assert!(matches!(kard.domain_of(o.id), Some(Domain::ReadWrite(_))));
    kard.lock_exit(t, LockId(1));

    let stats = kard.stats();
    assert_eq!(stats.identification_faults, 1);
    assert_eq!(stats.migration_faults, 1);
    assert_eq!(stats.objects_identified, 1);
    assert!(kard.reports().is_empty());
}

#[test]
fn non_critical_access_never_faults_on_not_accessed() {
    let (machine, kard) = setup();
    let t = kard.register_thread();
    let o = kard.on_alloc(t, 32);
    kard.write(t, o.base, site(0x1));
    kard.read(t, o.base, site(0x2));
    assert_eq!(machine.counters().faults, 0);
    assert_eq!(kard.domain_of(o.id), Some(Domain::NotAccessed));
}

#[test]
fn proactive_acquisition_on_reentry() {
    let (_, kard) = setup();
    let t = kard.register_thread();
    let o = kard.on_alloc(t, 32);

    kard.lock_enter(t, LockId(1), site(0x1));
    kard.write(t, o.base, site(0x2)); // Reactive: faults.
    kard.lock_exit(t, LockId(1));
    let faults_before = kard.stats().identification_faults;

    kard.lock_enter(t, LockId(1), site(0x1));
    kard.write(t, o.base, site(0x2)); // Proactive: no fault.
    kard.lock_exit(t, LockId(1));

    let stats = kard.stats();
    assert_eq!(stats.identification_faults, faults_before);
    assert!(stats.proactive_acquisitions >= 1);
}

#[test]
fn unlocked_write_vs_locked_write_detected() {
    // Table 1 row 2/3: only one side holds a lock.
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 64);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1));
    // t2 writes with no lock while t1 holds the key.
    kard.write(t2, o.base, site(0xc1));
    kard.lock_exit(t1, LockId(1));

    let reports = kard.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].faulting.section, None);
    assert_eq!(reports[0].holding.section, Some(SectionId(site(0xa))));
}

#[test]
fn consistent_locking_is_silent() {
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 32);

    // Same lock, same section, serial: never concurrent.
    for (t, ip) in [(t1, 0x10), (t2, 0x20), (t1, 0x30), (t2, 0x40)] {
        kard.lock_enter(t, LockId(7), site(0x100));
        kard.write(t, o.base, site(ip));
        kard.read(t, o.base, site(ip + 1));
        kard.lock_exit(t, LockId(7));
    }
    assert!(kard.reports().is_empty());
}

#[test]
fn interleaving_prunes_different_offsets() {
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 128);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1)); // t1 writes offset 0.
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.write(t2, o.base.offset(64), site(0xb1)); // candidate: offset 64.
    // t1 touches offset 0 again -> interleave fault -> disjoint offsets.
    kard.write(t1, o.base, site(0xa2));
    kard.lock_exit(t2, LockId(2));
    kard.lock_exit(t1, LockId(1));

    assert!(kard.reports().is_empty(), "different offsets pruned");
    assert_eq!(kard.stats().races_pruned_offset, 1);
    // Protection restored after both exits.
    assert!(matches!(kard.domain_of(o.id), Some(Domain::ReadWrite(_))));
}

#[test]
fn interleaving_confirms_same_offset() {
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 128);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base.offset(8), site(0xa1));
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.write(t2, o.base.offset(8), site(0xb1)); // same offset
    kard.write(t1, o.base.offset(8), site(0xa2)); // counterpart fault
    kard.lock_exit(t2, LockId(2));
    kard.lock_exit(t1, LockId(1));

    let reports = kard.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].holding.offset, Some(8), "filled by interleave");
    assert_eq!(kard.stats().races_pruned_offset, 0);
}

#[test]
fn small_section_leaves_candidate_reported() {
    // The pigz false positive (§7.3): the key holder exits before the
    // interleaved protection can observe its offset.
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 128);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1));
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.write(t2, o.base.offset(64), site(0xb1));
    kard.lock_exit(t1, LockId(1)); // t1 exits without re-touching.
    kard.lock_exit(t2, LockId(2));

    assert_eq!(kard.reports().len(), 1, "unresolved candidate reported");
}

#[test]
fn redundant_reports_are_pruned() {
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let t3 = kard.register_thread();
    let o = kard.on_alloc(t1, 32);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1));
    // Two different threads, same unlocked racy read site.
    kard.read(t2, o.base, site(0xc));
    kard.read(t3, o.base, site(0xc));
    kard.lock_exit(t1, LockId(1));

    assert_eq!(kard.reports().len(), 1);
    assert_eq!(kard.stats().races_pruned_redundant, 1);
}

#[test]
fn key_exhaustion_recycles_before_sharing() {
    // 6 total keys -> 3 pool keys. Sections touch 4 distinct objects
    // serially, so the 4th assignment must recycle (keys unheld between
    // sections).
    let (_, kard) = setup_with(KardConfig::default(), 6);
    let t = kard.register_thread();
    let objs: Vec<_> = (0..4).map(|_| kard.on_alloc(t, 32)).collect();
    for (i, o) in objs.iter().enumerate() {
        kard.lock_enter(t, LockId(i as u64), site(0x100 + i as u64));
        kard.write(t, o.base, site(0x200 + i as u64));
        kard.lock_exit(t, LockId(i as u64));
    }
    let stats = kard.stats();
    assert_eq!(stats.key_recycles, 1);
    assert_eq!(stats.key_shares, 0);
    // The recycled key's object is now read-only domain.
    assert_eq!(kard.domain_of(objs[0].id), Some(Domain::ReadOnly));
    assert!(kard.reports().is_empty());
}

#[test]
fn key_exhaustion_shares_when_all_keys_held() {
    // 4 total keys -> 1 pool key, held concurrently by t1.
    let (_, kard) = setup_with(KardConfig::default(), 4);
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o1 = kard.on_alloc(t1, 32);
    let o2 = kard.on_alloc(t1, 32);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o1.base, site(0xa1)); // takes the only pool key
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.write(t2, o2.base, site(0xb1)); // must share it
    kard.lock_exit(t2, LockId(2));
    kard.lock_exit(t1, LockId(1));

    let stats = kard.stats();
    assert_eq!(stats.key_shares, 1);
    assert!(
        kard.reports().is_empty(),
        "disjoint-object sharing is not a race"
    );
}

#[test]
fn sharing_causes_false_negative_on_same_object() {
    // Table 4: sharing is the one false-negative window. With a single
    // pool key and both sections touching the same object, the race is
    // missed.
    let (_, kard) = setup_with(KardConfig::default(), 4);
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let filler = kard.on_alloc(t1, 32);
    let x = kard.on_alloc(t1, 32);

    // t1's section takes the only pool key for `filler`...
    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, filler.base, site(0xa1));
    // ...so t2's new object `x` must *share* that key: both threads now
    // hold it with read-write permission.
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.write(t2, x.base, site(0xb1));
    // t1 writes x under a different lock — an ILU race — but t1 already
    // holds the shared key, so no fault is raised: a false negative.
    kard.write(t1, x.base, site(0xa2));
    kard.lock_exit(t2, LockId(2));
    kard.lock_exit(t1, LockId(1));

    assert_eq!(kard.stats().key_shares, 1);
    assert!(kard.reports().is_empty(), "sharing hides this ILU race");
}

#[test]
fn nested_sections_restore_keys() {
    let (_, kard) = setup();
    let t = kard.register_thread();
    let o1 = kard.on_alloc(t, 32);
    let o2 = kard.on_alloc(t, 32);

    kard.lock_enter(t, LockId(1), site(0xa));
    kard.write(t, o1.base, site(0xa1));
    kard.lock_enter(t, LockId(2), site(0xb));
    kard.write(t, o2.base, site(0xb1));
    kard.lock_exit(t, LockId(2));
    // o1's key still held: writing again must not fault.
    let faults = kard.stats();
    kard.write(t, o1.base, site(0xa2));
    assert_eq!(
        kard.stats().identification_faults,
        faults.identification_faults
    );
    kard.lock_exit(t, LockId(1));
    assert!(kard.reports().is_empty());
}

#[test]
fn free_clears_metadata() {
    let (_, kard) = setup();
    let t = kard.register_thread();
    let o = kard.on_alloc(t, 32);
    kard.lock_enter(t, LockId(1), site(0xa));
    kard.write(t, o.base, site(0xa1));
    kard.lock_exit(t, LockId(1));
    kard.on_free(t, o.id);
    assert_eq!(kard.domain_of(o.id), None);
    assert!(kard.section_objects(SectionId(site(0xa))).is_empty());
}

#[test]
fn stats_track_sections() {
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.lock_exit(t2, LockId(2));
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.lock_exit(t2, LockId(2));
    kard.lock_exit(t1, LockId(1));
    let stats = kard.stats();
    assert_eq!(stats.cs_entries, 3);
    assert_eq!(stats.unique_sections, 2);
    assert_eq!(stats.max_concurrent_sections, 2);
}

/// The hold-time sample needs an entry stamp, and the entry is stamped
/// only while telemetry records: a section entered with telemetry off and
/// exited with it on still yields its `SectionExit`, but no hold sample
/// (never a bogus `now - 0`); a section stamped at entry samples exactly
/// exit clock − entry clock.
#[test]
fn hold_is_sampled_only_for_a_frame_stamped_at_entry() {
    let (_, kard) = setup();
    let t = kard.register_thread();
    let telemetry = kard.telemetry();
    let entry_stamp = || {
        kard.slot(t)
            .ctx
            .with(|ctx| ctx.frames.last().expect("in a section").entered)
    };
    let exits = || -> Vec<kard_telemetry::Event> {
        let drained = telemetry.drain();
        assert_eq!(drained.dropped, 0);
        drained
            .events
            .into_iter()
            .filter(|e| e.kind == EventKind::SectionExit)
            .collect()
    };
    let holds = &telemetry.histograms().section_hold;

    kard.lock_enter(t, LockId(1), site(0xa));
    assert_eq!(entry_stamp(), None, "telemetry off: no entry stamp");
    telemetry.set_enabled(true);
    kard.lock_exit(t, LockId(1));
    let unstamped = exits();
    assert_eq!(unstamped.len(), 1, "the exit is still recorded");
    assert_eq!(unstamped[0].a, site(0xa).0);
    assert_eq!(unstamped[0].b, 0, "no hold to report");
    assert_eq!(holds.count(), 0, "no hold sampled for an unstamped frame");

    kard.lock_enter(t, LockId(1), site(0xa));
    let entered = entry_stamp().expect("telemetry on: stamped at entry");
    kard.lock_exit(t, LockId(1));
    let stamped = exits();
    assert_eq!(stamped.len(), 1);
    // Nothing is charged between the hold's clock read and the event's.
    let hold = stamped[0].tsc - entered;
    assert!(hold > 0);
    assert_eq!(stamped[0].b, hold);
    assert_eq!((holds.count(), holds.sum()), (1, hold));
}

#[test]
fn global_objects_participate_in_detection() {
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let g = kard.on_global(t1, 8);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, g.base, site(0xa1));
    kard.read(t2, g.base, site(0xc)); // Aget-style unlocked read.
    kard.lock_exit(t1, LockId(1));
    assert_eq!(kard.reports().len(), 1);
}

#[test]
#[should_panic(expected = "mismatched unlock")]
fn mismatched_unlock_panics() {
    let (_, kard) = setup();
    let t = kard.register_thread();
    kard.lock_enter(t, LockId(1), site(0xa));
    kard.lock_exit(t, LockId(2));
}

#[test]
fn delay_injection_stalls_armed_exits_only() {
    let config = KardConfig {
        interleave_exit_delay: 50_000,
        ..KardConfig::default()
    };
    let (machine, kard) = {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
        let kard = Kard::new(Arc::clone(&machine), alloc, config);
        (machine, kard)
    };
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 128);

    // Un-conflicted exit: no stall.
    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1));
    let before = machine.thread_cycles(t1);
    kard.lock_exit(t1, LockId(1));
    assert!(machine.thread_cycles(t1) - before < 50_000);

    // Armed interleaving: t1's exit is stalled by the delay.
    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1));
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.write(t2, o.base.offset(64), site(0xb1)); // Arms.
    let before = machine.thread_cycles(t1);
    kard.lock_exit(t1, LockId(1));
    assert!(
        machine.thread_cycles(t1) - before >= 50_000,
        "armed participant must be delayed"
    );
    kard.lock_exit(t2, LockId(2));
}

#[test]
fn timestamp_filter_counts_stale_candidates() {
    let (machine, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 32);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1));
    kard.lock_exit(t1, LockId(1));
    // Let far more than the fault delay pass on the virtual clock.
    machine.charge(t1, 1_000_000);
    // t2 writes unlocked: key unheld, release long ago -> no race.
    kard.write(t2, o.base, site(0xc));
    assert!(kard.reports().is_empty());
    assert_eq!(kard.stats().races_filtered_timestamp, 1);
}

#[test]
fn stale_fault_is_dropped_not_replayed() {
    // A fault raised against `k_na` whose handler only gets the
    // object's fault shard after another handler identified the
    // object: the protection it describes is gone.
    let (machine, kard) = setup();
    let t = kard.register_thread();
    let o = kard.on_alloc(t, 32);
    kard.lock_enter(t, LockId(1), site(0xa));
    kard.read(t, o.base, site(0xa1)); // identifies: page now carries k_ro
    let stale = GpFault {
        thread: t,
        addr: o.base,
        page: o.base.page(),
        pkey: kard.layout.not_accessed,
        access: AccessKind::Read,
        ip: site(0xa2),
        tsc: machine.now(),
    };
    assert_eq!(kard.handle_fault(stale), Ok(FaultAction::Retry));
    assert_eq!(kard.stats().objects_identified, 1, "not identified twice");
    assert_eq!(kard.domain_of(o.id), Some(Domain::ReadOnly));
    kard.lock_exit(t, LockId(1));
}

#[test]
fn interleave_fault_without_an_armed_interleaving_falls_through() {
    // The last participant's exit retires an interleaving under the
    // interleaver guard alone, so a counterpart fault can find it
    // gone: that is a pool fault, not a panic.
    let (machine, kard) = setup();
    let t = kard.register_thread();
    let o = kard.on_alloc(t, 32);
    kard.lock_enter(t, LockId(1), site(0xa));
    kard.write(t, o.base, site(0xa1));
    let Some(Domain::ReadWrite(key)) = kard.domain_of(o.id) else {
        panic!("a section write identifies into the Read-write domain");
    };
    let fault = GpFault {
        thread: t,
        addr: o.base,
        page: o.base.page(),
        pkey: key,
        access: AccessKind::Write,
        ip: site(0xa2),
        tsc: machine.now(),
    };
    assert_eq!(kard.handle_interleave_fault(&fault, &o, 0), None);
    assert_eq!(kard.stats().interleave_faults, 0);
    kard.lock_exit(t, LockId(1));
}

#[test]
fn sequential_different_locks_not_reported() {
    // Two sections under different locks, executed strictly one after
    // the other: no concurrency, so no ILU race. The release-timestamp
    // logic must not resurrect the released key.
    let (_, kard) = setup();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let o = kard.on_alloc(t1, 32);

    kard.lock_enter(t1, LockId(1), site(0xa));
    kard.write(t1, o.base, site(0xa1));
    kard.lock_exit(t1, LockId(1));
    kard.lock_enter(t2, LockId(2), site(0xb));
    kard.write(t2, o.base, site(0xb1));
    kard.lock_exit(t2, LockId(2));
    assert!(kard.reports().is_empty());
}

#[test]
fn two_key_section_reacquires_in_object_id_order() {
    use kard_telemetry::event::GRANT_PROACTIVE;

    let (machine, kard) = setup();
    let t = kard.register_thread();
    kard.telemetry().set_enabled(true);
    let a = kard.on_alloc(t, 32);
    let b = kard.on_alloc(t, 32);
    assert!(a.id < b.id);
    // `b` takes the first fresh key and `a` the second, so object-id order
    // (a, b) differs from key order and from identification order below.
    for (o, s) in [(&b, 0xb), (&a, 0xa)] {
        kard.lock_enter(t, LockId(1), site(s));
        kard.write(t, o.base, site(s + 0x100));
        kard.lock_exit(t, LockId(1));
    }
    let key_of = |id| match kard.domain_of(id) {
        Some(Domain::ReadWrite(key)) => key,
        other => panic!("expected a read-write object, found {other:?}"),
    };
    let (ka, kb) = (key_of(a.id), key_of(b.id));
    assert!(kb < ka);

    // Section 0xc learns both objects, highest id first.
    kard.lock_enter(t, LockId(2), site(0xc));
    kard.write(t, b.base, site(0xc1));
    kard.write(t, a.base, site(0xc2));
    kard.lock_exit(t, LockId(2));
    assert_eq!(
        kard.section_objects(SectionId(site(0xc))),
        vec![(a.id, Perm::Write), (b.id, Perm::Write)]
    );

    let _ = kard.telemetry().drain();
    let acquisitions_before = kard.stats().proactive_acquisitions;
    let cycles_before = machine.thread_cycles(t);
    kard.lock_enter(t, LockId(2), site(0xc));
    let cycles = machine.thread_cycles(t) - cycles_before;
    let grants: Vec<u64> = kard
        .telemetry()
        .drain()
        .events
        .iter()
        .filter(|e| e.kind == EventKind::KeyGrant && e.b == GRANT_PROACTIVE)
        .map(|e| e.a)
        .collect();
    // Pinned at the parent of the ordered section-object map (365ffbb),
    // where the wanted list was collected from a `HashMap` and sorted.
    assert_eq!(grants, vec![u64::from(ka.0), u64::from(kb.0)]);
    assert_eq!((ka.0, kb.0), (2, 1));
    assert_eq!(kard.stats().proactive_acquisitions - acquisitions_before, 2);
    assert_eq!(cycles, 451);
    let pkru = machine.rdpkru(t);
    assert_eq!(pkru.permission(ka), Permission::ReadWrite);
    assert_eq!(pkru.permission(kb), Permission::ReadWrite);
    kard.lock_exit(t, LockId(2));
}

// --- Section plans: the patched plan charges exactly what a rebuild would ---

use crate::types::SectionMode;
use kard_sim::ThreadId;
use rand::{Rng, SeedableRng, StdRng};

/// One step of a hand-scheduled trace over logical threads (by index) and
/// object tags. kard-workloads sits above this crate, so the shapes below
/// are generated here, seeded the same way.
#[derive(Clone, Copy, Debug)]
enum Step {
    Alloc(usize, usize),
    Free(usize, usize),
    Enter(usize, u64, SectionMode),
    Exit(usize, u64),
    Read(usize, usize),
    Write(usize, usize),
}

/// Everything a replay leaves behind that the virtual clock, the paper
/// tables or a report consumer can see.
#[derive(Debug, PartialEq)]
struct Outcome {
    now: u64,
    counters: kard_sim::MachineCounters,
    stats: crate::DetectorStats,
    events: Vec<kard_telemetry::Event>,
    reports: Vec<crate::RaceRecord>,
}

/// Replay `steps` on `threads` logical threads; with `stale_every_entry`
/// every plan is marked stale before each entry, so every eligible entry
/// rebuilds on the locked path. Returns the outcome and the hit count.
fn replay(keys: u16, threads: usize, steps: &[Step], stale_every_entry: bool) -> (Outcome, u64) {
    let (machine, kard) = setup_with(KardConfig::default(), keys);
    kard.telemetry().set_enabled(true);
    kard.stale_every_entry.store(stale_every_entry, Ordering::Relaxed);
    let ts: Vec<ThreadId> = (0..threads).map(|_| kard.register_thread()).collect();
    let mut objects = std::collections::HashMap::new();
    for &step in steps {
        match step {
            Step::Alloc(t, tag) => {
                objects.insert(tag, kard.on_alloc(ts[t], 64));
            }
            Step::Free(t, tag) => kard.on_free(ts[t], objects.remove(&tag).expect("live").id),
            // One lock per site, as the workloads have it.
            Step::Enter(t, s, mode) => kard.lock_enter_mode(ts[t], LockId(s), site(s), mode),
            Step::Exit(t, s) => kard.lock_exit(ts[t], LockId(s)),
            Step::Read(t, tag) => kard.read(ts[t], objects[&tag].base, site(0x1000 + tag as u64)),
            Step::Write(t, tag) => kard.write(ts[t], objects[&tag].base, site(0x2000 + tag as u64)),
        }
    }
    let mut drained = kard.telemetry().drain();
    assert_eq!(drained.dropped, 0, "the trace fits the rings");
    // A proactive grant's stamp is the one thing the two entry paths have
    // always told apart: the locked path emits it after its map charges,
    // the replay before its folded one. Same event, same place in the
    // stream, same clock afterwards.
    for e in &mut drained.events {
        if e.kind == EventKind::KeyGrant && e.b == kard_telemetry::event::GRANT_PROACTIVE {
            e.tsc = 0;
        }
    }
    let outcome = Outcome {
        now: machine.now(),
        counters: machine.counters(),
        stats: kard.stats(),
        events: drained.events,
        reports: kard.reports(),
    };
    (outcome, kard.section_cache_stats().0)
}

/// `water_nsquared`'s shape: one lock, one section, four threads taking
/// turns to read a few molecules each — a read-only section that grows
/// by identification almost every entry.
fn water_shape(rng: &mut StdRng) -> (u16, usize, Vec<Step>) {
    let mut steps: Vec<Step> = (0..300).map(|tag| Step::Alloc(0, tag)).collect();
    for entry in 0..400 {
        let t = entry % 4;
        steps.push(Step::Enter(t, 0xa, SectionMode::Exclusive));
        for _ in 0..rng.gen_range(1..5) {
            steps.push(Step::Read(t, rng.gen_range(0..300)));
        }
        steps.push(Step::Exit(t, 0xa));
    }
    (16, 4, steps)
}

/// `nginx`'s shape: per request a short-lived object that is freed
/// unshared, and one of eight sections writing its own long-lived object
/// over three pool keys — so keys recycle and objects migrate back at
/// almost every entry — with now and then a long-lived object replaced.
fn nginx_shape(rng: &mut StdRng) -> (u16, usize, Vec<Step>) {
    let mut steps: Vec<Step> = (0..8).map(|tag| Step::Alloc(0, tag)).collect();
    for request in 0..400 {
        let (t, scratch, tag) = (request % 2, 100 + request, rng.gen_range(0..8));
        let s = 0xb0 + tag as u64;
        steps.push(Step::Alloc(t, scratch));
        steps.push(Step::Enter(t, s, SectionMode::Exclusive));
        steps.push(Step::Write(t, tag));
        if rng.gen_bool(0.3) {
            steps.push(Step::Read(t, rng.gen_range(0..8)));
        }
        if rng.gen_bool(0.1) {
            steps.push(Step::Write(t, scratch));
        }
        steps.push(Step::Exit(t, s));
        steps.push(Step::Free(t, scratch));
        if rng.gen_bool(0.05) {
            steps.extend([Step::Free(t, tag), Step::Alloc(t, tag)]);
        }
    }
    (6, 2, steps)
}

/// A section whose two objects wear different keys (each first written
/// under a section of its own): a multi-key plan, entered by two threads
/// in turn while a third section keeps identifying objects into it.
fn two_key_shape(rng: &mut StdRng) -> (u16, usize, Vec<Step>) {
    let mut steps: Vec<Step> = (0..40).map(|tag| Step::Alloc(0, tag)).collect();
    for (s, tag) in [(0xc1, 1), (0xc0, 0)] {
        steps.extend([Step::Enter(0, s, SectionMode::Exclusive), Step::Write(0, tag), Step::Exit(0, s)]);
    }
    for entry in 0..200 {
        let t = entry % 2;
        steps.push(Step::Enter(t, 0xc2, SectionMode::Exclusive));
        steps.extend([Step::Write(t, 0), Step::Write(t, 1)]);
        if rng.gen_bool(0.2) {
            steps.push(Step::Read(t, rng.gen_range(2..40)));
        }
        steps.push(Step::Exit(t, 0xc2));
    }
    (16, 2, steps)
}

/// A `pthread_rwlock_rdlock` section: two readers inside it together
/// over objects a writer section keeps moving into the Read-write domain
/// — every other time while the readers are still inside, which is a
/// race, an armed interleaving and a restoration at their exits.
fn shared_mode_shape(rng: &mut StdRng) -> (u16, usize, Vec<Step>) {
    let mut steps: Vec<Step> = (0..12).map(|tag| Step::Alloc(0, tag)).collect();
    for round in 0..150 {
        let tag = rng.gen_range(0..12);
        let writer = [Step::Enter(2, 0xd1, SectionMode::Exclusive), Step::Write(2, tag), Step::Exit(2, 0xd1)];
        for t in [0, 1] {
            steps.push(Step::Enter(t, 0xd0, SectionMode::Shared));
            steps.push(Step::Read(t, rng.gen_range(0..12)));
        }
        if round % 6 == 3 {
            steps.extend(writer);
        }
        for t in [1, 0] {
            steps.push(Step::Exit(t, 0xd0));
        }
        if round % 6 == 0 {
            steps.extend(writer);
        }
    }
    (16, 3, steps)
}

#[test]
fn a_patched_plan_charges_exactly_what_a_rebuild_would() {
    type Shape = fn(&mut StdRng) -> (u16, usize, Vec<Step>);
    let shapes: [(&str, Shape); 4] = [
        ("water_nsquared", water_shape),
        ("nginx", nginx_shape),
        ("two-key section", two_key_shape),
        ("shared mode", shared_mode_shape),
    ];
    for (name, shape) in shapes {
        for seed in [42, 7] {
            let (keys, threads, steps) = shape(&mut StdRng::seed_from_u64(seed));
            let (replayed, hits) = replay(keys, threads, &steps, false);
            let (rebuilt, no_hits) = replay(keys, threads, &steps, true);
            assert_eq!(no_hits, 0, "{name}: every entry of the stale run rebuilds");
            assert!(hits > 0 || name == "two-key section", "{name}: the normal run replays plans");
            assert_eq!(replayed, rebuilt, "{name}, seed {seed}");
        }
    }
}

#[test]
fn an_identification_by_read_patches_the_plan_for_every_thread() {
    let entry_cycles = |kard: &Kard, machine: &Machine, t, s| {
        let before = machine.thread_cycles(t);
        kard.lock_enter(t, LockId(s), site(s));
        let cycles = machine.thread_cycles(t) - before;
        kard.lock_exit(t, LockId(s));
        cycles
    };
    // The empty entry: with proactive acquisition off an entry looks
    // nothing up and acquires nothing.
    let empty = {
        let config = KardConfig { proactive_acquisition: false, ..KardConfig::default() };
        let (machine, kard) = setup_with(config, 16);
        let (a, _b) = (kard.register_thread(), kard.register_thread());
        entry_cycles(&kard, &machine, a, 0xa)
    };

    let (machine, kard) = setup();
    let (a, b) = (kard.register_thread(), kard.register_thread());
    let objs: Vec<_> = (0..4).map(|_| kard.on_alloc(a, 64)).collect();
    kard.lock_enter(a, LockId(0xa), site(0xa));
    for o in &objs[..3] {
        kard.read(a, o.base, site(0xa1));
    }
    kard.lock_exit(a, LockId(0xa));
    let map_op = kard.cost.map_op;
    // A's first entry created the plan cold; this one finds it patched to
    // three objects and valid, without ever having rebuilt it.
    let before = kard.section_cache_stats();
    assert_eq!(entry_cycles(&kard, &machine, a, 0xa), empty + map_op * 4);
    assert_eq!(kard.section_cache_stats(), (before.0 + 1, before.1), "A is warm in s");

    // B identifies a new read-only object in s.
    kard.lock_enter(b, LockId(0xa), site(0xa));
    kard.read(b, objs[3].base, site(0xa2));
    kard.lock_exit(b, LockId(0xa));
    assert_eq!(kard.domain_of(objs[3].id), Some(Domain::ReadOnly));

    let (hits, misses) = kard.section_cache_stats();
    assert_eq!(entry_cycles(&kard, &machine, a, 0xa), empty + map_op * 5);
    assert_eq!(kard.section_cache_stats(), (hits + 1, misses), "A's next entry is a hit");

    // The read-only object's free patches it back.
    kard.on_free(a, objs[3].id);
    assert_eq!(entry_cycles(&kard, &machine, a, 0xa), empty + map_op * 4);
    assert_eq!(kard.section_cache_stats(), (hits + 2, misses));
}
