//! The key table's two faces under real OS threads: a fast holder (one CAS
//! on the key's holder word) and a table holder (under a key-table guard)
//! never hold the same key at once.
//!
//! The guard here is the detector's: take the mutex, `KeyWords::sync`,
//! and `KeyWords::republish` on drop while the mutex is still held. The
//! race it checks — a fast acquire landing after `sync` has read the word
//! as `EMPTY`, which only the acquirer's re-check of the pool's `parked`
//! word refuses — needs two cores and a release build to bite; `make
//! test-races` runs it once and `make flake TEST=holder_words
//! PACKAGE=kard-core` sizes it.

use kard_core::keymap::{KeyTable, KeyWords};
use kard_core::{Perm, SectionId};
use kard_sim::{CodeSite, KeyLayout, ProtectionKey, ThreadId};
use parking_lot::{Mutex, MutexGuard};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const HOLDS: u64 = 20_000;
const DEADLINE: Duration = Duration::from_secs(5);

/// The key table behind its mutex with the holder words kept coherent.
struct Keys {
    table: Mutex<KeyTable>,
    words: KeyWords,
}

struct Guard<'a> {
    table: MutexGuard<'a, KeyTable>,
    words: &'a KeyWords,
}

impl Keys {
    fn lock(&self) -> Guard<'_> {
        let mut table = self.table.lock();
        self.words.sync(&mut table);
        Guard {
            table,
            words: &self.words,
        }
    }
}

impl Deref for Guard<'_> {
    type Target = KeyTable;
    fn deref(&self) -> &KeyTable {
        &self.table
    }
}

impl DerefMut for Guard<'_> {
    fn deref_mut(&mut self) -> &mut KeyTable {
        &mut self.table
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.words.republish(&self.table);
    }
}

/// Raises `stop` when its side returns or unwinds, so a failed assertion
/// on one side ends the other's loop instead of leaving it spinning.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Who holds the key right now: +1 on entry, −1 on exit, never above 1.
struct Exclusive(AtomicU32);

impl Exclusive {
    fn hold(&self, who: &str) {
        assert_eq!(
            self.0.fetch_add(1, Ordering::SeqCst),
            0,
            "{who} acquired the key while the other side held it"
        );
        for _ in 0..32 {
            std::hint::spin_loop();
        }
        assert_eq!(self.0.fetch_sub(1, Ordering::SeqCst), 1);
    }
}

/// One thread takes the key by fast CAS, the other in the table under
/// guards, every other table hold spanning two guards (acquired in one,
/// released in the next, so `republish` must leave the word `SLOW` in
/// between). The run ends when each side has won `HOLDS` holds, or at
/// `DEADLINE`.
#[test]
fn fast_and_table_holders_never_overlap() {
    let key = ProtectionKey(1);
    let (fast_t, table_t) = (ThreadId(0), ThreadId(1));
    let layout = KeyLayout::mpk();
    let keys = Keys {
        table: Mutex::new(KeyTable::new(&layout)),
        words: KeyWords::new(&layout),
    };
    let inside = Exclusive(AtomicU32::new(0));
    let (fast_wins, table_wins) = (AtomicU64::new(0), AtomicU64::new(0));
    let stop = AtomicBool::new(false);
    let start = Barrier::new(2);
    let clock = AtomicU64::new(0);
    let running = |deadline: Instant| {
        !stop.load(Ordering::SeqCst)
            && Instant::now() < deadline
            && (fast_wins.load(Ordering::SeqCst) < HOLDS
                || table_wins.load(Ordering::SeqCst) < HOLDS)
    };

    std::thread::scope(|s| {
        s.spawn(|| {
            let _stop = StopOnDrop(&stop);
            start.wait();
            let deadline = Instant::now() + DEADLINE;
            while running(deadline) {
                if !keys
                    .words
                    .try_fast_acquire(key, fast_t, Perm::Write, SectionId(CodeSite(1)))
                {
                    continue;
                }
                inside.hold("the fast holder");
                let now = clock.fetch_add(1, Ordering::SeqCst);
                if !keys.words.try_fast_release(key, fast_t, Perm::Write, now) {
                    // A guard materialized the hold: release it in the table.
                    keys.lock().release(key, fast_t, now);
                }
                fast_wins.fetch_add(1, Ordering::SeqCst);
            }
        });
        s.spawn(|| {
            let _stop = StopOnDrop(&stop);
            start.wait();
            let deadline = Instant::now() + DEADLINE;
            let mut span_two = false;
            while running(deadline) {
                let mut guard = keys.lock();
                if !guard.try_acquire(key, table_t, Perm::Write, SectionId(CodeSite(2))) {
                    continue;
                }
                if span_two {
                    drop(guard);
                    inside.hold("the table holder");
                    guard = keys.lock();
                } else {
                    inside.hold("the table holder");
                }
                guard.release(key, table_t, clock.fetch_add(1, Ordering::SeqCst));
                drop(guard);
                span_two = !span_two;
                table_wins.fetch_add(1, Ordering::SeqCst);
            }
        });
    });

    let (fast, table) = (fast_wins.into_inner(), table_wins.into_inner());
    assert!(fast > 0 && table > 0, "a side never won: fast {fast}, table {table}");
    let mut guard = keys.lock();
    assert!(guard.state(key).holders.is_empty(), "a hold outlived its release");
    assert!(guard.try_acquire(key, table_t, Perm::Write, SectionId(CodeSite(2))));
}
