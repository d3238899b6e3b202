//! [`Applier`]: the one path from a [`kard_trace::Op`] to [`Kard`] calls,
//! for in-process trace replay and for each firehose session alike.

use kard_alloc::{ObjectInfo, ObjectKind};
use kard_core::registry::FastBuildHasher;
use kard_core::{DetectorStats, Kard, LockId, RaceRecord};
use kard_sim::ThreadId;
use kard_trace::{Executor, ObjectTag, Op};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

macro_rules! rejections {
    ($($reason:ident => $name:literal,)+) => {
        /// Why an [`Applier`] refused an event. A rejected event changes
        /// no detector state.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Rejection {
            $(#[doc = $name] $reason,)+
        }

        impl Rejection {
            /// Every reason, in declaration order (`ALL[r as usize] == r`).
            pub const ALL: [Rejection; [$($name),+].len()] = [$(Rejection::$reason),+];

            /// The reason as stats surfaces print it.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(Rejection::$reason => $name,)+
                }
            }
        }
    };
}

rejections! {
    ThreadCap => "session thread cap exceeded",
    ThreadCapacity => "shard thread capacity exhausted",
    ZeroSize => "zero-size allocation",
    TagLive => "tag already live",
    ObjectCap => "session object cap exceeded",
    MemoryCap => "session memory cap exceeded",
    FreeUnknown => "free of unknown tag",
    FreeGlobal => "free of a global",
    RecursiveLock => "recursive lock",
    UnlockOutOfOrder => "unlock out of order",
    UnlockNotHeld => "unlock of lock not held",
    AccessUnknown => "access to unknown tag",
    OutOfBounds => "access beyond object bounds",
}

/// An applier's limits on its namespace. `Compute` charges above
/// `compute_cycles` are clamped; the others reject the event that would
/// pass them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Caps {
    /// Live client threads.
    pub threads: usize,
    /// Live objects, heap and globals.
    pub objects: usize,
    /// Live allocated bytes, heap and globals.
    pub bytes: u64,
    /// Largest single `Compute` charge.
    pub compute_cycles: u64,
}

/// A client thread: its index, detector thread and held locks, innermost
/// last.
#[derive(Debug)]
struct ClientThread {
    index: usize,
    id: ThreadId,
    held: Vec<LockId>,
}

/// Applies events to a [`Kard`] inside one namespace: maps its client
/// threads and object tags to detector threads and objects, keeps each
/// thread's held-lock stack and the namespace's [`Caps`], and refuses —
/// with a named [`Rejection`], before touching the detector — any event
/// the detector could not take.
///
/// `S` hashes the client-chosen object tags: a socket's need a keyed hasher
/// (`std`'s `RandomState`), a trace this process built or loaded can use
/// [`FastBuildHasher`].
#[derive(Debug)]
pub struct Applier<S> {
    kard: Arc<Kard>,
    caps: Caps,
    /// In registration order, so a trace's dense thread `i` sits at `i`;
    /// at most `caps.threads` long.
    threads: Vec<ClientThread>,
    objects: HashMap<ObjectTag, ObjectInfo, S>,
    /// Bytes live in `objects`; at most `caps.bytes`.
    live_bytes: u64,
    rejected: [u64; Rejection::ALL.len()],
}

/// Replays a [`kard_trace::Trace`] into a [`Kard`]: the uncapped
/// [`Applier`], whose [`Executor`] impl registers the trace's threads in
/// index order on `start` and panics on a rejection, because a trace is
/// trusted input.
///
/// ```
/// use kard_rt::{KardExecutor, Session};
/// use kard_trace::{replay::replay, schedule::interleave_round_robin, ObjectTag, ThreadProgram};
/// use kard_core::LockId;
/// use kard_sim::CodeSite;
///
/// let mut w1 = ThreadProgram::new();
/// w1.alloc(ObjectTag(0), 32);
/// w1.critical_section(LockId(1), CodeSite(0xa), |p| {
///     p.write(ObjectTag(0), 0, CodeSite(0xa1));
/// });
/// let mut w2 = ThreadProgram::new();
/// w2.critical_section(LockId(2), CodeSite(0xb), |p| {
///     p.write(ObjectTag(0), 0, CodeSite(0xb1));
/// });
///
/// let session = Session::new();
/// let mut exec = KardExecutor::new(session.kard().clone());
/// replay(&interleave_round_robin(&[w1, w2]), &mut exec);
/// assert_eq!(exec.reports().len(), 1);
/// ```
pub type KardExecutor = Applier<FastBuildHasher>;

impl<S: BuildHasher + Default> Applier<S> {
    /// An applier feeding `kard` with no caps and no clamp.
    #[must_use]
    pub fn new(kard: Arc<Kard>) -> Applier<S> {
        let none = Caps {
            threads: usize::MAX,
            objects: usize::MAX,
            bytes: u64::MAX,
            compute_cycles: u64::MAX,
        };
        Applier::with_caps(kard, none)
    }

    /// An applier feeding `kard` that rejects events passing `caps`.
    #[must_use]
    pub fn with_caps(kard: Arc<Kard>, caps: Caps) -> Applier<S> {
        Applier {
            kard,
            caps,
            threads: Vec::new(),
            objects: HashMap::default(),
            live_bytes: 0,
            rejected: [0; Rejection::ALL.len()],
        }
    }
}

impl<S: BuildHasher> Applier<S> {
    /// The detector's current race reports.
    #[must_use]
    pub fn reports(&self) -> Vec<RaceRecord> {
        self.kard.reports()
    }

    /// The detector's statistics.
    #[must_use]
    pub fn stats(&self) -> DetectorStats {
        self.kard.stats()
    }

    /// The underlying detector.
    #[must_use]
    pub fn kard(&self) -> &Arc<Kard> {
        &self.kard
    }

    /// The live object bound to `tag`.
    #[must_use]
    pub fn object(&self, tag: ObjectTag) -> Option<&ObjectInfo> {
        self.objects.get(&tag)
    }

    /// The client thread registered as detector thread `t`.
    #[must_use]
    pub fn client_thread(&self, t: ThreadId) -> Option<usize> {
        self.threads.iter().find(|c| c.id == t).map(|c| c.index)
    }

    /// Events rejected for `why` so far.
    #[must_use]
    pub fn rejected(&self, why: Rejection) -> u64 {
        self.rejected[why as usize]
    }

    /// Apply `op` as client thread `thread`, registering the thread with
    /// its first accepted event.
    ///
    /// # Errors
    ///
    /// The first check `op` fails, counted under [`Applier::rejected`].
    /// Every check runs before the detector is touched.
    pub fn apply(&mut self, thread: usize, op: &Op) -> Result<(), Rejection> {
        let outcome = self.try_apply(thread, op);
        if let Err(why) = outcome {
            self.rejected[why as usize] += 1;
        }
        outcome
    }

    fn try_apply(&mut self, thread: usize, op: &Op) -> Result<(), Rejection> {
        let slot = self.slot(thread);
        if slot.is_none() {
            self.check_new_thread()?;
        }
        match *op {
            Op::Alloc { tag, size } | Op::Global { tag, size } => {
                if size == 0 {
                    return Err(Rejection::ZeroSize);
                }
                if self.objects.contains_key(&tag) {
                    return Err(Rejection::TagLive);
                }
                if self.objects.len() >= self.caps.objects {
                    return Err(Rejection::ObjectCap);
                }
                if size > self.caps.bytes - self.live_bytes {
                    return Err(Rejection::MemoryCap);
                }
                let t = self.client(slot, thread).id;
                let info = if matches!(op, Op::Alloc { .. }) {
                    self.kard.on_alloc(t, size)
                } else {
                    self.kard.on_global(t, size)
                };
                self.live_bytes += size;
                self.objects.insert(tag, info);
            }
            Op::Free { tag } => {
                let info = *self.objects.get(&tag).ok_or(Rejection::FreeUnknown)?;
                // The allocator panics on freeing a global.
                if info.kind == ObjectKind::Global {
                    return Err(Rejection::FreeGlobal);
                }
                let t = self.client(slot, thread).id;
                self.objects.remove(&tag);
                self.live_bytes -= info.size;
                self.kard.on_free(t, info.id);
            }
            Op::Lock { lock, site } => {
                if self.held(slot).contains(&lock) {
                    return Err(Rejection::RecursiveLock);
                }
                let client = self.client(slot, thread);
                client.held.push(lock);
                let t = client.id;
                self.kard.lock_enter(t, lock, site);
            }
            Op::Unlock { lock } => {
                // The detector's sections nest: only the innermost lock
                // may be released.
                let held = self.held(slot);
                if held.last() != Some(&lock) {
                    return Err(if held.contains(&lock) {
                        Rejection::UnlockOutOfOrder
                    } else {
                        Rejection::UnlockNotHeld
                    });
                }
                let client = self.client(slot, thread);
                client.held.pop();
                let t = client.id;
                self.kard.lock_exit(t, lock);
            }
            Op::Read { tag, offset, ip } | Op::Write { tag, offset, ip } => {
                let info = self.objects.get(&tag).ok_or(Rejection::AccessUnknown)?;
                if offset >= info.rounded_size {
                    return Err(Rejection::OutOfBounds);
                }
                let addr = info.base.offset(offset);
                let t = self.client(slot, thread).id;
                if matches!(op, Op::Read { .. }) {
                    self.kard.read(t, addr, ip);
                } else {
                    self.kard.write(t, addr, ip);
                }
            }
            Op::Compute { cycles } => {
                let t = self.client(slot, thread).id;
                let cycles = cycles.min(self.caps.compute_cycles);
                self.kard.machine().charge(t, cycles);
            }
        }
        Ok(())
    }

    /// Where client thread `thread` sits in `threads`, if registered.
    fn slot(&self, thread: usize) -> Option<usize> {
        match self.threads.get(thread) {
            Some(client) if client.index == thread => Some(thread),
            _ => self.search(thread),
        }
    }

    /// `slot` for a thread not at its own index: a scan, which the thread
    /// cap (at most `THREAD_CAPACITY`) bounds. Cold, like `register`, so
    /// that a trace's dense threads pay only the index check.
    #[cold]
    fn search(&self, thread: usize) -> Option<usize> {
        self.threads.iter().position(|c| c.index == thread)
    }

    fn held(&self, slot: Option<usize>) -> &[LockId] {
        slot.map_or(&[], |i| &self.threads[i].held)
    }

    /// The checks a client thread's first event passes before the thread
    /// is registered.
    fn check_new_thread(&self) -> Result<(), Rejection> {
        if self.threads.len() >= self.caps.threads {
            return Err(Rejection::ThreadCap);
        }
        // Thread ids are never reused, so a long-lived detector
        // eventually runs out of them.
        if self.kard.machine().thread_count() >= kard_sim::THREAD_CAPACITY {
            return Err(Rejection::ThreadCapacity);
        }
        Ok(())
    }

    /// Client thread `thread`, at `slot` or registered now.
    fn client(&mut self, slot: Option<usize>, thread: usize) -> &mut ClientThread {
        let slot = match slot {
            Some(slot) => slot,
            None => self.register(thread),
        };
        &mut self.threads[slot]
    }

    /// Register client thread `thread` and return its slot.
    #[cold]
    fn register(&mut self, thread: usize) -> usize {
        self.threads.push(ClientThread {
            index: thread,
            id: self.kard.register_thread(),
            held: Vec::new(),
        });
        self.threads.len() - 1
    }

    /// End the namespace: each thread exits its held locks innermost
    /// first, heap objects are freed (globals stay with the detector,
    /// which never frees them) and every thread exits. The applier is
    /// then empty; its rejection counts remain.
    pub fn release_all(&mut self) {
        let kard = &self.kard;
        for client in &mut self.threads {
            for lock in client.held.drain(..).rev() {
                kard.lock_exit(client.id, lock);
            }
        }
        // An object exists only if some thread allocated it.
        if let Some(first) = self.threads.first() {
            for (_, info) in self.objects.drain() {
                if info.kind == ObjectKind::Heap {
                    kard.on_free(first.id, info.id);
                }
            }
        }
        for client in self.threads.drain(..) {
            kard.on_thread_exit(client.id);
        }
        self.live_bytes = 0;
    }
}

impl<S: BuildHasher> Executor for Applier<S> {
    fn start(&mut self, threads: usize) {
        for thread in 0..threads {
            if self.slot(thread).is_none() {
                if let Err(why) = self.check_new_thread() {
                    panic!("trace thread {thread} rejected: {}", why.name());
                }
                self.client(None, thread);
            }
        }
    }

    fn on_event(&mut self, thread: usize, op: &Op) {
        if let Err(why) = self.apply(thread, op) {
            let why = why.name();
            panic!("trace event rejected: {why} (thread {thread}, {op:?})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use kard_core::LockId;
    use kard_sim::CodeSite;
    use kard_trace::replay::replay;
    use kard_trace::schedule::{interleave_seeded, sequential};
    use kard_trace::ThreadProgram;

    fn racy_programs() -> Vec<ThreadProgram> {
        let mut p0 = ThreadProgram::new();
        p0.alloc(ObjectTag(0), 32);
        p0.critical_section(LockId(1), CodeSite(0xa), |p| {
            p.write(ObjectTag(0), 0, CodeSite(0xa1));
        });
        let mut p1 = ThreadProgram::new();
        p1.critical_section(LockId(2), CodeSite(0xb), |p| {
            // Two reads: the first identifies the object (Read-only domain);
            // after t0's interleaved write migrates it to the Read-write
            // domain, the second read faults against t0's held key. A single
            // read in a never-again-entered section would fall into the
            // progressive-identification window the paper accepts (§8).
            p.read(ObjectTag(0), 0, CodeSite(0xb1));
            p.read(ObjectTag(0), 0, CodeSite(0xb2));
        });
        vec![p0, p1]
    }

    #[test]
    fn sequential_schedule_hides_the_race() {
        // ILU is schedule-sensitive (§3.1): the same program pair executed
        // serially produces no report.
        let session = Session::new();
        let mut exec = KardExecutor::new(session.kard().clone());
        replay(&sequential(&racy_programs()), &mut exec);
        assert!(exec.reports().is_empty());
    }

    #[test]
    fn overlapping_schedule_exposes_the_race() {
        let session = Session::new();
        let mut exec = KardExecutor::new(session.kard().clone());
        replay(
            &kard_trace::schedule::interleave_round_robin(&racy_programs()),
            &mut exec,
        );
        assert_eq!(exec.reports().len(), 1);
    }

    #[test]
    fn alloc_free_lifecycle_through_traces() {
        let mut p = ThreadProgram::new();
        p.alloc(ObjectTag(0), 64)
            .write(ObjectTag(0), 0, CodeSite(1))
            .free(ObjectTag(0))
            .alloc(ObjectTag(1), 64)
            .read(ObjectTag(1), 8, CodeSite(2))
            .free(ObjectTag(1));
        let session = Session::new();
        let mut exec = KardExecutor::new(session.kard().clone());
        replay(&sequential(&[p]), &mut exec);
        assert_eq!(session.alloc().stats().live_objects, 0);
    }

    #[test]
    fn seeded_schedules_replay_deterministically() {
        let trace = interleave_seeded(&racy_programs(), 7);
        let runs: Vec<usize> = (0..2)
            .map(|_| {
                let session = Session::new();
                let mut exec = KardExecutor::new(session.kard().clone());
                replay(&trace, &mut exec);
                exec.reports().len()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn rejected_first_event_registers_no_thread() {
        let session = Session::new();
        let mut applier = KardExecutor::new(session.kard().clone());
        let kard = session.kard();
        let before = (
            kard.machine().thread_count(),
            session.alloc().stats(),
            applier.stats(),
        );
        let write = Op::Write {
            tag: ObjectTag(9),
            offset: 0,
            ip: CodeSite(1),
        };
        assert_eq!(applier.apply(0, &write), Err(Rejection::AccessUnknown));
        let after = (
            kard.machine().thread_count(),
            session.alloc().stats(),
            applier.stats(),
        );
        assert_eq!(before, after);
        assert_eq!(applier.rejected(Rejection::AccessUnknown), 1);
        assert_eq!(applier.client_thread(kard_sim::ThreadId(0)), None);
    }

    #[test]
    #[should_panic(expected = "access to unknown tag")]
    fn unallocated_tag_panics() {
        let mut p = ThreadProgram::new();
        p.read(ObjectTag(99), 0, CodeSite(0));
        let session = Session::new();
        let mut exec = KardExecutor::new(session.kard().clone());
        replay(&sequential(&[p]), &mut exec);
    }
}
