//! Per-thread bounded event rings.
//!
//! One [`EventRing`] belongs to one logical detector thread; only that
//! thread records into it (the detector serializes everything it does on
//! behalf of a thread), while the collector may read concurrently. The
//! recording path is the part that must cost nothing:
//!
//! * **no locks** — a record is five relaxed atomic stores plus one
//!   relaxed head bump;
//! * **no allocation** — slots are preallocated at ring creation
//!   (thread-registration time, not recording time);
//! * **bounded** — the ring keeps the most recent `capacity` events and
//!   overwrites the oldest; the drain reports how many were lost.
//!
//! Each slot carries a sequence word so a concurrent drain can tell
//! whether the slot it just read was being overwritten mid-read: the
//! writer publishes `2·(index+1)` into the slot's `seq` after the payload
//! and an odd value before. Because the writer uses only relaxed stores
//! (that is the recording-path contract), a mid-flight drain is *best
//! effort* — a torn slot is detected by the seq check with high
//! probability, and skipped. At quiescence (no thread recording, the mode
//! every exporter runs in) the relaxed stores are all visible and the
//! drain is exact.

use crate::event::{Event, EventKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// One preallocated event slot (seq + packed payload words).
#[derive(Debug)]
struct Slot {
    /// `2·(index+1)` once the event at logical index `index` is complete;
    /// odd while a write is in flight.
    seq: AtomicU64,
    tsc: AtomicU64,
    /// Kind in bits 0–31, thread in bits 32–63.
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A bounded single-producer ring of [`Event`]s.
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Events ever recorded into this ring (monotone).
    head: AtomicU64,
}

impl EventRing {
    /// A ring holding the most recent `capacity` events. `capacity` is
    /// rounded up to a power of two (minimum 2).
    #[must_use]
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                tsc: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            mask: cap as u64 - 1,
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events ever recorded (including any that have been overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free and allocation-free; relaxed atomics
    /// only (the recording-path contract).
    pub fn record(&self, event: Event) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        slot.seq.store(2 * h + 1, Ordering::Relaxed);
        slot.tsc.store(event.tsc, Ordering::Relaxed);
        slot.meta.store(
            event.kind as u64 | u64::from(event.thread) << 32,
            Ordering::Relaxed,
        );
        slot.a.store(event.a, Ordering::Relaxed);
        slot.b.store(event.b, Ordering::Relaxed);
        slot.seq.store(2 * (h + 1), Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Relaxed);
    }

    /// Read every event with logical index in `[cursor, head)` that is
    /// still resident, appending to `out`. Returns `(new_cursor, lost)`
    /// where `lost` counts events overwritten before they could be read
    /// (plus any slot torn by a concurrent write).
    pub fn drain_from(&self, cursor: u64, out: &mut Vec<Event>) -> (u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        let oldest = head.saturating_sub(self.slots.len() as u64);
        let lo = cursor.max(oldest);
        let mut lost = lo - cursor;
        for i in lo..head {
            let slot = &self.slots[(i & self.mask) as usize];
            let seq_before = slot.seq.load(Ordering::Acquire);
            let tsc = slot.tsc.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let seq_after = slot.seq.load(Ordering::Acquire);
            let expected = 2 * (i + 1);
            let kind = EventKind::from_raw(meta & 0xffff_ffff);
            match kind {
                Some(kind) if seq_before == expected && seq_after == expected => {
                    out.push(Event {
                        tsc,
                        thread: (meta >> 32) as u32,
                        kind,
                        a,
                        b,
                    });
                }
                _ => lost += 1, // Torn by a concurrent overwrite; skip.
            }
        }
        (head, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> Event {
        Event {
            tsc: n,
            thread: 7,
            kind: EventKind::SectionEnter,
            a: n * 10,
            b: n * 100,
        }
    }

    #[test]
    fn records_and_drains_in_order() {
        let ring = EventRing::new(8);
        for n in 0..5 {
            ring.record(ev(n));
        }
        let mut out = Vec::new();
        let (cursor, lost) = ring.drain_from(0, &mut out);
        assert_eq!(cursor, 5);
        assert_eq!(lost, 0);
        assert_eq!(out.len(), 5);
        assert_eq!(out[3], ev(3));
    }

    #[test]
    fn overflow_drops_oldest_and_counts_them() {
        let ring = EventRing::new(4);
        for n in 0..11 {
            ring.record(ev(n));
        }
        let mut out = Vec::new();
        let (cursor, lost) = ring.drain_from(0, &mut out);
        assert_eq!(cursor, 11);
        assert_eq!(lost, 7, "capacity 4 keeps only the last 4 of 11");
        assert_eq!(
            out.iter().map(|e| e.tsc).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
    }

    #[test]
    fn incremental_drain_resumes_at_cursor() {
        let ring = EventRing::new(8);
        ring.record(ev(0));
        ring.record(ev(1));
        let mut out = Vec::new();
        let (cursor, _) = ring.drain_from(0, &mut out);
        ring.record(ev(2));
        let (cursor, lost) = ring.drain_from(cursor, &mut out);
        assert_eq!((cursor, lost), (3, 0));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::new(5).capacity(), 8);
        assert_eq!(EventRing::new(0).capacity(), 2);
    }
}
