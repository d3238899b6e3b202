//! A detection session: machine + allocator + detector, wired together.

use crate::mutex::KardMutex;
use crate::thread::SimThread;
use kard_alloc::KardAlloc;
use kard_core::{Kard, KardConfig, KardSnapshot};
use kard_sim::{Machine, MachineConfig};
use kard_telemetry::{Drained, Telemetry};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Assembles a [`Session`] from named parts.
///
/// The builder replaces the old positional
/// `Session::with_config(MachineConfig, KardConfig)` constructor — two
/// config structs in a fixed order read poorly at call sites and left no
/// room for session-scoped switches like telemetry. Every part has a
/// default, so callers state only what they change:
///
/// ```
/// use kard_rt::Session;
/// use kard_core::{KardConfig, KeyCachePolicy, KeyMode};
///
/// let virtualized = KeyMode::Virtual(KeyCachePolicy::Lru);
/// let session = Session::builder()
///     .config(KardConfig { keys: virtualized, ..KardConfig::paper() })
///     .telemetry(true)
///     .build();
/// assert_eq!(session.kard().config().keys, virtualized);
/// ```
#[derive(Debug, Default)]
#[must_use = "a builder does nothing until `build` is called"]
pub struct SessionBuilder {
    machine: MachineConfig,
    config: KardConfig,
    telemetry: bool,
}

impl SessionBuilder {
    /// The simulated machine's configuration (key layout, cost model).
    pub fn machine(mut self, machine: MachineConfig) -> SessionBuilder {
        self.machine = machine;
        self
    }

    /// The detector's configuration.
    pub fn config(mut self, config: KardConfig) -> SessionBuilder {
        self.config = config;
        self
    }

    /// Start the session with fault-path event tracing already enabled
    /// (equivalent to calling [`Session::enable_telemetry`] right after
    /// construction, but declared with the rest of the setup). A config
    /// with [`KardConfig::production`] set turns it on regardless: the
    /// controller's overhead observations come from the cycle histograms,
    /// which record only while telemetry is on.
    pub fn telemetry(mut self, on: bool) -> SessionBuilder {
        self.telemetry = on;
        self
    }

    /// Wire machine, allocator, and detector together.
    #[must_use]
    pub fn build(self) -> Session {
        let machine = Arc::new(Machine::new(self.machine));
        let alloc = Arc::new(KardAlloc::new(Arc::clone(&machine)));
        let kard = Arc::new(Kard::new(
            Arc::clone(&machine),
            Arc::clone(&alloc),
            self.config,
        ));
        let session = Session {
            machine,
            alloc,
            kard,
            next_lock: AtomicU64::new(1),
        };
        if self.telemetry || self.config.production.is_some() {
            session.enable_telemetry(true);
        }
        session
    }
}

/// One monitored program execution.
///
/// A `Session` owns the simulated machine, Kard's allocator, and the
/// detector. Threads are spawned with [`Session::spawn_thread`]; locks are
/// created with [`Session::new_mutex`]. See the [crate docs](crate) for an
/// end-to-end example.
pub struct Session {
    machine: Arc<Machine>,
    alloc: Arc<KardAlloc>,
    kard: Arc<Kard>,
    next_lock: AtomicU64,
}

impl Session {
    /// A session with default machine (16-key MPK) and paper configuration.
    #[must_use]
    pub fn new() -> Session {
        Session::builder().build()
    }

    /// A [`SessionBuilder`] with default machine, paper configuration,
    /// and telemetry off.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The simulated machine.
    #[must_use]
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The consolidated unique-page allocator.
    #[must_use]
    pub fn alloc(&self) -> &Arc<KardAlloc> {
        &self.alloc
    }

    /// The detector.
    #[must_use]
    pub fn kard(&self) -> &Arc<Kard> {
        &self.kard
    }

    /// One coherent statistics picture of the run so far: detection
    /// counters, virtual-key cache counters, allocator counters,
    /// fault-shard counters, and the detector-lock total, as a single
    /// serializable [`KardSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> KardSnapshot {
        self.kard.snapshot()
    }

    /// Spawn a monitored thread. The handle is `Send`, so it can be moved
    /// onto a real OS thread.
    #[must_use]
    pub fn spawn_thread(&self) -> SimThread {
        SimThread::new(Arc::clone(&self.kard))
    }

    /// Create a mutex with a fresh lock identity.
    #[must_use]
    pub fn new_mutex(&self) -> KardMutex {
        KardMutex::new(kard_core::LockId(
            self.next_lock.fetch_add(1, Ordering::Relaxed),
        ))
    }

    /// Create a reader-writer lock with a fresh lock identity.
    #[must_use]
    pub fn new_rwlock(&self) -> crate::rwlock::KardRwLock {
        crate::rwlock::KardRwLock::new(kard_core::LockId(
            self.next_lock.fetch_add(1, Ordering::Relaxed),
        ))
    }

    /// The telemetry hub shared by the allocator and the detector.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.kard.telemetry()
    }

    /// Turn fault-path event tracing on or off for this session.
    pub fn enable_telemetry(&self, on: bool) {
        self.telemetry().set_enabled(on);
    }

    /// Drain all per-thread event rings into one timestamp-sorted batch,
    /// then run the production-mode controller's step
    /// ([`Kard::production_tick`]), so the overhead budget is steered at
    /// the cadence telemetry is collected. Takes only the telemetry
    /// cursor lock — never a detector lock. Export the batch with
    /// [`kard_telemetry::export`].
    #[must_use]
    pub fn drain(&self) -> Drained {
        let batch = self.telemetry().drain();
        self.kard.production_tick();
        batch
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("stats", &self.kard.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_ids_are_unique() {
        let session = Session::new();
        let a = session.new_mutex();
        let b = session.new_mutex();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn builder_composes_machine_config_and_telemetry() {
        use kard_core::{KeyCachePolicy, KeyMode};
        use kard_sim::KeyLayout;

        let virtualized = KeyMode::Virtual(KeyCachePolicy::Lru);
        let session = Session::builder()
            .machine(MachineConfig {
                key_layout: KeyLayout::with_total_keys(34),
                ..MachineConfig::default()
            })
            .config(KardConfig {
                keys: virtualized,
                ..KardConfig::paper()
            })
            .telemetry(true)
            .build();
        assert_eq!(session.machine().key_layout().total_keys, 34);
        assert_eq!(session.kard().config().keys, virtualized);
        assert!(session.telemetry().enabled(), "telemetry pre-enabled");
        let defaults = Session::builder().build();
        assert!(!defaults.telemetry().enabled(), "off unless requested");
    }

    #[test]
    fn production_config_enables_telemetry_and_drain_ticks_the_controller() {
        use kard_core::ProductionConfig;
        use kard_sim::CodeSite;

        let session = Session::builder()
            .config(KardConfig {
                production: Some(ProductionConfig {
                    overhead_budget: Some(50),
                    ..ProductionConfig::default()
                }),
                ..KardConfig::paper()
            })
            .build();
        assert!(session.telemetry().enabled(), "controller needs histograms");
        let snap = session.snapshot();
        assert!(snap.production.enabled);
        assert_eq!(snap.production.budget_permille, Some(50));
        assert_eq!(snap.production.sample_permille, 1000, "starts full-width");
        assert_eq!(snap.production.estimated_detection_permille, 1000);
        assert_eq!(snap.production.overhead_permille, 0, "no tick yet");
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(json.contains("\"production\""));

        let t = session.spawn_thread();
        let o = t.alloc(32);
        let m = session.new_mutex();
        {
            let _g = t.enter(&m, CodeSite(0x10));
            t.write(&o, 0, CodeSite(0x11));
        }
        let _ = session.drain();
        let observed = session.snapshot().production.overhead_permille;
        assert!(observed > 0, "the drain's tick observed the fault's cycles");
    }

    #[test]
    fn snapshot_bundles_every_statistics_surface() {
        use kard_sim::CodeSite;

        let session = Session::new();
        let t = session.spawn_thread();
        let o = t.alloc(32);
        let m = session.new_mutex();
        {
            let _g = t.enter(&m, CodeSite(0x10));
            t.write(&o, 0, CodeSite(0x11));
        }
        let snap = session.snapshot();
        assert_eq!(snap.detector.cs_entries, 1);
        assert_eq!(snap.detector.identification_faults, 1);
        assert_eq!(snap.alloc.allocations, 1);
        assert!(snap.fault_shards.acquisitions >= 1, "the fault took a shard");
        assert!(snap.lock_acquisitions >= snap.fault_shards.acquisitions);
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(json.contains("\"fault_shards\""));
    }

    #[test]
    fn session_components_are_shared() {
        let session = Session::new();
        let t = session.spawn_thread();
        let o = t.alloc(32);
        assert!(session.alloc().object(o.id).is_some());
        assert_eq!(session.machine().thread_count(), 1);
    }

    #[test]
    fn telemetry_round_trip_through_session() {
        use kard_sim::CodeSite;
        use kard_telemetry::EventKind;

        let session = Session::new();
        session.enable_telemetry(true);
        let t = session.spawn_thread();
        let o = t.alloc(32);
        let m = session.new_mutex();
        {
            let _g = t.enter(&m, CodeSite(0x10));
            t.write(&o, 0, CodeSite(0x11));
        }
        let drained = session.drain();
        assert_eq!(drained.dropped, 0);
        for kind in [
            EventKind::ObjectAlloc,
            EventKind::SectionEnter,
            EventKind::FaultIdentify,
            EventKind::SectionExit,
        ] {
            assert!(
                drained.events.iter().any(|e| e.kind == kind),
                "missing {kind:?} in {:?}",
                drained.events
            );
        }
        let tsc: Vec<u64> = drained.events.iter().map(|e| e.tsc).collect();
        assert!(tsc.windows(2).all(|w| w[0] <= w[1]), "sorted by timestamp");
    }
}
