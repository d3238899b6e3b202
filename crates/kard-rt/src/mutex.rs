//! Lock wrappers: the synchronization interception point (paper §5.3, §6).
//!
//! The paper's compiler pass replaces `pthread_mutex_lock`/`unlock` (and
//! the pigz/NGINX custom primitives) with wrappers that tell Kard's runtime
//! about critical-section boundaries, passing the call-site address to
//! distinguish sections. [`KardMutex`] plays the same role here: it provides
//! real mutual exclusion (so programs on OS threads behave like programs)
//! and reports entry/exit to the detector, keyed by the call site.

use crate::thread::SimThread;
use kard_core::LockId;
use std::fmt;

/// A mutex whose acquisitions are visible to Kard.
pub struct KardMutex {
    id: LockId,
    inner: parking_lot::Mutex<()>,
}

impl KardMutex {
    /// A mutex with the given identity.
    #[must_use]
    pub fn new(id: LockId) -> KardMutex {
        KardMutex {
            id,
            inner: parking_lot::Mutex::new(()),
        }
    }

    /// The lock's identity.
    #[must_use]
    pub fn id(&self) -> LockId {
        self.id
    }

    pub(crate) fn raw_lock(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.inner.lock()
    }
}

impl fmt::Debug for KardMutex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KardMutex").field("id", &self.id).finish()
    }
}

/// RAII guard for a critical section entered via [`SimThread::enter`].
///
/// Dropping the guard exits the critical section: Kard releases the keys
/// acquired inside it, then the underlying mutex unlocks.
pub struct SectionGuard<'a> {
    thread: &'a SimThread,
    mutex: &'a KardMutex,
    _raw: parking_lot::MutexGuard<'a, ()>,
}

impl<'a> SectionGuard<'a> {
    pub(crate) fn new(
        thread: &'a SimThread,
        mutex: &'a KardMutex,
        raw: parking_lot::MutexGuard<'a, ()>,
    ) -> SectionGuard<'a> {
        SectionGuard {
            thread,
            mutex,
            _raw: raw,
        }
    }
}

impl Drop for SectionGuard<'_> {
    fn drop(&mut self) {
        self.thread
            .kard()
            .lock_exit(self.thread.id(), self.mutex.id());
    }
}

impl fmt::Debug for SectionGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SectionGuard")
            .field("lock", &self.mutex.id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::session::Session;
    use kard_sim::CodeSite;

    #[test]
    fn guard_enters_and_exits_section() {
        let session = Session::new();
        let t = session.spawn_thread();
        let mutex = session.new_mutex();
        {
            let _g = t.enter(&mutex, CodeSite(0x10));
            assert_eq!(session.kard().stats().cs_entries, 1);
        }
        // After drop, a second entry still works (lock released).
        let _g2 = t.enter(&mutex, CodeSite(0x10));
        assert_eq!(session.kard().stats().cs_entries, 2);
    }
}
