//! The domain-transition primitive: the one place an object changes
//! protection domain (§5.2–§5.5).
//!
//! A transition is four steps, always in this order: emit
//! `DomainMigration(from, to)`, bump the migration counter, store the
//! domain word, retag the object's page(s) with the key the new domain
//! wears. The event is stamped *before* the retag's cycle charge at every
//! site. Counter and event follow one rule, the one
//! [`DetectorStats::from_events`](crate::DetectorStats::from_events)
//! replays: a move *into* Read-only counts a read-only migration, a move
//! into Read-write from Not-accessed or Read-only counts a read-write
//! migration, and a move within one domain (a rebind) is not a migration.
//!
//! | from → to              | key worn | counter     | event | caller                                   |
//! |------------------------|----------|-------------|-------|------------------------------------------|
//! | (birth) → Not-accessed | `k_na`   | –           | –     | `on_alloc`/`on_global` ([`Kard::adopt`]) |
//! | Not-accessed → RO      | `k_ro`   | read-only   | yes   | `identify`, section read                 |
//! | Not-accessed/RO → RW   | pool key | read-write  | yes   | `migrate_to_read_write`                  |
//! | RW → RO                | `k_ro`   | read-only   | yes   | key recycle; vkey eviction (batched)     |
//! | RW → Suspended         | k0       | –           | yes   | interleave counterpart fault             |
//! | RW → RW (rebind)       | pool key | –           | –     | interleave arming                        |
//! | Suspended → RW         | pool key | –           | yes   | `lock_exit` restoration                  |
//! | Suspended → RO         | `k_ro`   | read-only   | yes   | `lock_exit`, group evicted meanwhile     |
//! | any → (skipped)        | k0       | –           | –     | budget gate ([`Kard::unmonitor`])        |
//! | any → (freed)          | –        | –           | –     | `on_free` (`take_domain`; pages unmap)   |
//!
//! Callers hold the object's fault shard (or a claim on it). A move into,
//! out of or within the Read-write domain changes what the sections
//! accessing the object acquire at entry, so the primitive ends by
//! marking exactly their plans stale (the protocol is in [`super::plan`]);
//! the other moves change no plan and touch none.

use super::Kard;
use crate::domains::Domain;
use crate::stats::AtomicStats;
use kard_alloc::{ObjectId, ObjectInfo};
use kard_sim::{ProtectionKey, ThreadId};
use kard_telemetry::event::{pack_domains, DomainCode};
use kard_telemetry::EventKind;

impl Kard {
    /// The protection key an object in `domain` wears on its page(s).
    pub(super) fn key_worn(&self, domain: Domain) -> ProtectionKey {
        match domain {
            Domain::NotAccessed => self.layout.not_accessed,
            Domain::ReadOnly => self.layout.read_only,
            Domain::ReadWrite(key) => key,
            Domain::Suspended => self.layout.default,
        }
    }

    /// Move `id` from `from` into `to`.
    pub(super) fn transition(&self, t: ThreadId, id: ObjectId, from: DomainCode, to: Domain) {
        self.enter_domain(t, id, from, to);
        self.alloc
            .protect(t, &[id], self.key_worn(to))
            .expect("every domain wears a valid key");
        if from == DomainCode::ReadWrite || matches!(to, Domain::ReadWrite(_)) {
            self.sections.read().stale_plans_of(&[id]);
        }
    }

    /// Move every object of `ids` from Read-write into Read-only with one
    /// grouped `pkey_mprotect` (vkey eviction demotes a whole group at once).
    pub(super) fn demote_batch(&self, t: ThreadId, ids: &[ObjectId]) {
        for &id in ids {
            self.enter_domain(t, id, DomainCode::ReadWrite, Domain::ReadOnly);
        }
        self.alloc
            .protect(t, ids, self.key_worn(Domain::ReadOnly))
            .expect("k_ro is valid");
        self.sections.read().stale_plans_of(ids);
    }

    /// A fresh object (heap or global) enters Not-accessed. Only the word
    /// moves: the allocator provisions every page under `k_na` already
    /// (declared in [`Kard::new`]), and its own event records the birth.
    pub(super) fn adopt(&self, info: ObjectInfo) -> ObjectInfo {
        self.sidemeta.set_domain(info.id, Domain::NotAccessed);
        info
    }

    /// Production mode dropped `id` from monitoring: its page(s) go to the
    /// always-accessible k0 so it never faults again, and the domain word
    /// is deliberately left stale (nothing reads it again; see the budget
    /// gate).
    pub(super) fn unmonitor(&self, t: ThreadId, id: ObjectId) {
        self.alloc
            .protect(t, &[id], self.key_worn(Domain::Suspended))
            .expect("k0 is valid");
    }

    /// The bookkeeping half of a transition: event, counter, domain word.
    fn enter_domain(&self, t: ThreadId, id: ObjectId, from: DomainCode, to: Domain) {
        let code = match to {
            Domain::NotAccessed => DomainCode::NotAccessed,
            Domain::ReadOnly => DomainCode::ReadOnly,
            Domain::ReadWrite(_) => DomainCode::ReadWrite,
            Domain::Suspended => DomainCode::Suspended,
        };
        if from != code {
            self.emit(t, EventKind::DomainMigration, id.0, pack_domains(from, code));
            match (from, code) {
                (_, DomainCode::ReadOnly) => AtomicStats::bump(&self.stats.read_only_migrations),
                (from, DomainCode::ReadWrite) if from != DomainCode::Suspended => {
                    AtomicStats::bump(&self.stats.read_write_migrations);
                }
                _ => {}
            }
        }
        self.sidemeta.set_domain(id, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectorStats, KardConfig};
    use kard_alloc::KardAlloc;
    use kard_sim::{Machine, MachineConfig};
    use std::sync::Arc;

    /// Every (from, to) pair the detector performs, made directly through
    /// the primitive: after each, the page wears the key the domain word
    /// implies, and at the end the live migration counters equal what
    /// `DetectorStats::from_events` replays from the drained events.
    #[test]
    fn every_pair_keeps_word_page_counter_and_event_in_step() {
        use DomainCode::{NotAccessed, ReadOnly, ReadWrite, Suspended};
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
        let kard = Kard::new(Arc::clone(&machine), alloc, KardConfig::default());
        kard.telemetry().set_enabled(true);
        let t = kard.register_thread();
        let [a, c, d] = [32, 32, 32].map(|size| kard.on_alloc(t, size));
        let b = kard.on_global(t, 64);
        let (k1, k2) = (ProtectionKey(1), ProtectionKey(2));
        let in_step = |info: &ObjectInfo| {
            let domain = kard.domain_of(info.id).expect("live objects have a domain");
            assert_eq!(machine.page_key(info.first_page), Some(kard.key_worn(domain)), "{domain}");
            domain
        };
        for born in [&a, &b, &c, &d] {
            assert_eq!(in_step(born), Domain::NotAccessed);
        }

        let steps = [
            (&a, NotAccessed, Domain::ReadOnly),
            (&a, ReadOnly, Domain::ReadWrite(k1)),
            (&a, ReadWrite, Domain::ReadWrite(k2)), // rebind: no event, no count
            (&a, ReadWrite, Domain::Suspended),
            (&a, Suspended, Domain::ReadWrite(k2)), // restoration: event, no count
            (&a, ReadWrite, Domain::ReadOnly),
            (&b, NotAccessed, Domain::ReadWrite(k1)),
            (&b, ReadWrite, Domain::Suspended),
            (&b, Suspended, Domain::ReadOnly),
            (&c, NotAccessed, Domain::ReadWrite(k1)),
            (&d, NotAccessed, Domain::ReadWrite(k1)),
        ];
        for (info, from, to) in steps {
            kard.transition(t, info.id, from, to);
            assert_eq!(in_step(info), to);
        }
        kard.demote_batch(t, &[c.id, d.id]);
        assert_eq!((in_step(&c), in_step(&d)), (Domain::ReadOnly, Domain::ReadOnly));
        kard.unmonitor(t, c.id);
        assert_eq!(machine.page_key(c.first_page), Some(kard.layout.default));
        assert_eq!(kard.domain_of(c.id), Some(Domain::ReadOnly), "the word stays behind");

        let live = kard.stats();
        assert_eq!((live.read_only_migrations, live.read_write_migrations), (5, 4));
        let drained = kard.telemetry().drain();
        assert_eq!(drained.dropped, 0);
        let migrations = |e: &&kard_telemetry::Event| e.kind == EventKind::DomainMigration;
        assert_eq!(drained.events.iter().filter(migrations).count(), 12, "all but the rebind");
        let replayed = DetectorStats::from_events(&drained.events);
        assert_eq!(replayed.read_only_migrations, live.read_only_migrations);
        assert_eq!(replayed.read_write_migrations, live.read_write_migrations);
    }
}
