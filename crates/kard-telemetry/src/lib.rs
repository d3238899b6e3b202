//! # kard-telemetry — lock-free observability for the Kard detector
//!
//! The detector's fault path is its product: races are found *inside*
//! page-fault handling, so understanding Kard means understanding what
//! its fault path did and how long it took. This crate gives the
//! detector a recording fabric whose cost model matches the thing it
//! observes:
//!
//! * **Recording** ([`Telemetry::record`], [`LatencyHistogram::record`])
//!   is lock-free, allocation-free, and uses only relaxed atomics. A
//!   disabled telemetry layer costs one relaxed load per call site.
//! * **Collection** ([`Telemetry::drain`]) may take *telemetry* locks
//!   (its own cursor mutex) but never detector locks — it only reads
//!   the per-thread rings and the atomic histograms.
//! * **Export** ([`export::json_lines`], [`export::chrome_trace`]) is
//!   plain post-processing over drained batches.
//!
//! The crate deliberately knows nothing about `kard-core`: events are
//! raw `(tsc, thread, kind, a, b)` tuples (see [`event::EventKind`] for
//! the payload vocabulary) so the dependency points from the detector to
//! its telemetry, never back.

#![deny(missing_docs)]

pub mod event;
pub mod export;
pub mod hist;
pub mod ring;
pub mod sync;

pub use event::{Event, EventKind};
pub use hist::{merged_summary, HistogramSummary, LatencyHistogram};
pub use ring::EventRing;
pub use sync::{TrackedMutex, TrackedRwLock};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 15;

/// The log-bucketed distributions recorded alongside the event stream.
/// Each has a reader: `Kard::production_tick` integrates `fault_delay`
/// and `mprotect`, the firehose's `/statsz` summarises `fault_delay` and
/// `section_hold`, and `kard-tables faultlatency` prints `fault_delay`
/// and `mprotect`.
#[derive(Debug, Default)]
pub struct Histograms {
    /// Fault-handling delay: virtual cycles from fault raise to resolve.
    pub fault_delay: LatencyHistogram,
    /// Per-call `pkey_mprotect` charge (cycles; one grouped call records
    /// its whole batched charge).
    pub mprotect: LatencyHistogram,
    /// Critical-section hold time (cycles between lock enter and exit).
    pub section_hold: LatencyHistogram,
}

/// A drained batch of events plus how many were lost to ring overflow.
#[derive(Debug, Default)]
pub struct Drained {
    /// Recovered events, sorted by timestamp (global virtual clock).
    pub events: Vec<Event>,
    /// Events overwritten (or torn) before they could be drained.
    pub dropped: u64,
}

/// Shared telemetry hub: per-thread event rings, latency histograms, and
/// the collector cursor state.
///
/// One `Telemetry` is shared (via `Arc`) by the allocator, the detector,
/// and the session. All recording methods honour the enabled flag
/// internally, but hot call sites should gate on [`Telemetry::enabled`]
/// first so a disabled layer costs exactly one relaxed load.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    capacity: usize,
    /// One cell per thread index below the constructor's `threads`, in a
    /// fixed array so registration never moves an existing ring. Rings
    /// materialize lazily: registration records the thread; its ring is
    /// allocated on the first enable (or registration-while-enabled), so
    /// a telemetry-off run never pays the ring memory.
    rings: Box<[OnceLock<Arc<EventRing>>]>,
    /// Dense upper bound on registered thread indices (exclusive).
    registered: AtomicUsize,
    /// Events dropped because the acting thread has no ring: never
    /// registered, or not below `threads` (diagnostic; should stay zero).
    dropped_unregistered: AtomicU64,
    hists: Histograms,
    /// Collector-side drain cursors, one per thread. A telemetry lock —
    /// taken only by [`Telemetry::drain`], never on the recording path.
    cursors: Mutex<Vec<u64>>,
}

impl Telemetry {
    /// A disabled hub for thread indices below `threads`, with the
    /// default ring capacity.
    #[must_use]
    pub fn new(threads: usize) -> Telemetry {
        Telemetry::with_capacity(threads, DEFAULT_RING_CAPACITY)
    }

    /// A disabled hub for thread indices below `threads` whose rings
    /// (once materialized) hold `capacity` events each.
    #[must_use]
    pub fn with_capacity(threads: usize, capacity: usize) -> Telemetry {
        Telemetry {
            enabled: AtomicBool::new(false),
            capacity,
            rings: (0..threads).map(|_| OnceLock::new()).collect(),
            registered: AtomicUsize::new(0),
            dropped_unregistered: AtomicU64::new(0),
            hists: Histograms::default(),
            cursors: Mutex::new(Vec::new()),
        }
    }

    /// Whether recording is on — a single relaxed load, the entire cost
    /// of a disabled telemetry layer at each call site.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Enabling materializes rings for every
    /// already-registered thread (an allocation, which is why it happens
    /// here and not on the recording path).
    pub fn set_enabled(&self, on: bool) {
        if on {
            let hi = self.registered.load(Ordering::Acquire);
            for slot in &self.rings[..hi] {
                slot.get_or_init(|| Arc::new(EventRing::new(self.capacity)));
            }
        }
        self.enabled.store(on, Ordering::Release);
    }

    /// Note that `thread` exists. Idempotent; allocates that thread's
    /// ring immediately when telemetry is enabled, otherwise defers to
    /// [`Telemetry::set_enabled`]. Called from thread registration, not
    /// from the access path.
    pub fn ensure_thread(&self, thread: usize) {
        let Some(slot) = self.rings.get(thread) else {
            return;
        };
        self.registered.fetch_max(thread + 1, Ordering::AcqRel);
        if self.enabled() {
            slot.get_or_init(|| Arc::new(EventRing::new(self.capacity)));
        }
    }

    /// Record one event on behalf of `thread`. Lock-free and
    /// allocation-free; no-op when disabled or the thread has no ring.
    #[inline]
    pub fn record(&self, thread: usize, kind: EventKind, tsc: u64, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        let Some(ring) = self.rings.get(thread).and_then(OnceLock::get) else {
            self.dropped_unregistered.fetch_add(1, Ordering::Relaxed);
            return;
        };
        ring.record(Event {
            tsc,
            thread: thread as u32,
            kind,
            a,
            b,
        });
    }

    /// The latency histograms (always recordable; histogram call sites
    /// gate on [`Telemetry::enabled`] themselves).
    #[must_use]
    pub fn histograms(&self) -> &Histograms {
        &self.hists
    }

    /// Total events ever recorded across all rings (including any since
    /// overwritten). Zero proves no ring was touched.
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        let hi = self.registered.load(Ordering::Acquire);
        self.rings[..hi]
            .iter()
            .filter_map(OnceLock::get)
            .map(|r| r.recorded())
            .sum::<u64>()
            + self.dropped_unregistered.load(Ordering::Relaxed)
    }

    /// Drain every ring past its cursor and merge the result into one
    /// timestamp-sorted batch. Takes only the telemetry cursor lock;
    /// exact at quiescence, best-effort while threads still record (see
    /// the [`ring`] module docs for the seqlock argument).
    pub fn drain(&self) -> Drained {
        let mut cursors = self.cursors.lock();
        let hi = self.registered.load(Ordering::Acquire);
        if cursors.len() < hi {
            cursors.resize(hi, 0);
        }
        let mut out = Drained::default();
        for (thread, cursor) in cursors.iter_mut().enumerate() {
            let Some(ring) = self.rings[thread].get() else {
                continue;
            };
            let (new_cursor, lost) = ring.drain_from(*cursor, &mut out.events);
            *cursor = new_cursor;
            out.dropped += lost;
        }
        out.dropped += self.dropped_unregistered.swap(0, Ordering::Relaxed);
        out.events.sort_by_key(|e| e.tsc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_touches_no_ring() {
        let t = Telemetry::new(4);
        t.ensure_thread(0);
        t.record(0, EventKind::SectionEnter, 1, 2, 3);
        assert_eq!(t.events_recorded(), 0);
        assert!(t.drain().events.is_empty());
    }

    #[test]
    fn enable_materializes_rings_for_registered_threads() {
        let t = Telemetry::with_capacity(4, 8);
        t.ensure_thread(0);
        t.ensure_thread(3);
        t.set_enabled(true);
        for thread in [0usize, 3] {
            t.record(thread, EventKind::KeyGrant, 10 + thread as u64, 1, 0);
        }
        assert_eq!(t.events_recorded(), 2);
        let drained = t.drain();
        assert_eq!(drained.dropped, 0);
        assert_eq!(
            drained.events.iter().map(|e| e.thread).collect::<Vec<_>>(),
            vec![0, 3]
        );
    }

    #[test]
    fn registration_while_enabled_gets_a_ring_immediately() {
        let t = Telemetry::with_capacity(4, 8);
        t.set_enabled(true);
        t.ensure_thread(1);
        t.record(1, EventKind::FaultEnter, 5, 0, 0);
        assert_eq!(t.events_recorded(), 1);
    }

    #[test]
    fn drain_merges_sorted_and_resumes() {
        let t = Telemetry::with_capacity(4, 8);
        t.ensure_thread(0);
        t.ensure_thread(1);
        t.set_enabled(true);
        t.record(1, EventKind::SectionEnter, 30, 0, 1);
        t.record(0, EventKind::SectionEnter, 10, 0, 1);
        t.record(0, EventKind::SectionExit, 20, 0, 10);
        let first = t.drain();
        assert_eq!(
            first.events.iter().map(|e| e.tsc).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        t.record(1, EventKind::SectionExit, 40, 0, 10);
        let second = t.drain();
        assert_eq!(second.events.len(), 1, "cursors advanced past the first batch");
        assert_eq!(second.events[0].tsc, 40);
    }

    #[test]
    fn overflow_is_reported_as_dropped() {
        let t = Telemetry::with_capacity(4, 4);
        t.ensure_thread(0);
        t.set_enabled(true);
        for n in 0..10 {
            t.record(0, EventKind::KeyGrant, n, n, 0);
        }
        let drained = t.drain();
        assert_eq!(drained.events.len(), 4);
        assert_eq!(drained.dropped, 6);
    }

    #[test]
    fn out_of_range_thread_counts_as_dropped() {
        let t = Telemetry::new(4);
        t.set_enabled(true);
        t.ensure_thread(4);
        t.record(4, EventKind::KeyGrant, 0, 0, 0);
        let drained = t.drain();
        assert!(drained.events.is_empty());
        assert_eq!(drained.dropped, 1);
    }
}
