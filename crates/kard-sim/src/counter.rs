//! Counters with one writer.
//!
//! Most of the machine's counters — a thread's cycles, its `RDPKRU` and
//! `WRPKRU` counts, its dTLB's lookups and misses — and the detector's
//! per-thread section statistics are written by exactly one OS thread: the
//! one driving their simulated thread. A `fetch_add` on such a word buys
//! nothing but its cost, a `lock`-prefixed read-modify-write and a full
//! barrier on x86, paid on every modelled instruction. [`bump_owned`] is
//! the one way these words are bumped instead: a relaxed load and a
//! relaxed store.

use std::sync::atomic::{AtomicU64, Ordering};

/// Add `n` to `counter`, which only the calling OS thread ever writes: a
/// relaxed load and a relaxed store, no read-modify-write. Returns the new
/// value.
///
/// **The single-writer contract.** Any thread may read `counter` at any
/// time; it sees a value the counter held, and per-location coherence
/// keeps one reader's repeated loads non-decreasing. But a second writer
/// loses updates: a store that follows a stale load overwrites the other
/// writer's addition. So a word some other OS thread must also add to
/// gets a word of its own that the owner never writes, bumped with
/// `fetch_add` and summed in by every reader — the machine's visitor words
/// ([`crate::Machine::rdpkru_of`]).
#[inline]
pub fn bump_owned(counter: &AtomicU64, n: u64) -> u64 {
    let value = counter.load(Ordering::Relaxed) + n;
    counter.store(value, Ordering::Relaxed);
    value
}
