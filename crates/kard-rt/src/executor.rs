//! Adapter running a [`kard_trace::Trace`] through the Kard detector.

use kard_alloc::ObjectInfo;
use kard_core::registry::FastBuildHasher;
use kard_core::{DetectorStats, Kard, RaceRecord};
use kard_sim::ThreadId;
use kard_trace::{Executor, ObjectTag, Op};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Replays trace events into a [`Kard`] detector.
///
/// Logical thread indices are registered with the detector on
/// [`Executor::start`]; object tags map to real allocations as `Alloc` /
/// `Global` events arrive.
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
pub struct KardExecutor {
    kard: Arc<Kard>,
    threads: Vec<ThreadId>,
    /// Looked up once per `Read`/`Write` event. Tags come from a trace this
    /// process built or loaded, not from a peer, so the cheap hasher is
    /// safe (kard-server keeps SipHash for its socket-supplied ids).
    objects: HashMap<ObjectTag, ObjectInfo, FastBuildHasher>,
}

impl KardExecutor {
    /// An executor feeding `kard`.
    #[must_use]
    pub fn new(kard: Arc<Kard>) -> KardExecutor {
        KardExecutor {
            kard,
            threads: Vec::new(),
            objects: HashMap::default(),
        }
    }

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

    fn thread(&self, index: usize) -> ThreadId {
        self.threads[index]
    }

    fn object(&self, tag: ObjectTag) -> &ObjectInfo {
        self.objects
            .get(&tag)
            .unwrap_or_else(|| panic!("trace uses unallocated object {tag:?}"))
    }
}

impl Executor for KardExecutor {
    fn start(&mut self, threads: usize) {
        while self.threads.len() < threads {
            self.threads.push(self.kard.register_thread());
        }
    }

    fn on_event(&mut self, thread: usize, op: &Op) {
        let t = self.thread(thread);
        match *op {
            Op::Alloc { tag, size } => {
                let info = self.kard.on_alloc(t, size);
                self.objects.insert(tag, info);
            }
            Op::Global { tag, size } => {
                let info = self.kard.on_global(t, size);
                self.objects.insert(tag, info);
            }
            Op::Free { tag } => {
                let info = self
                    .objects
                    .remove(&tag)
                    .unwrap_or_else(|| panic!("free of unallocated object {tag:?}"));
                self.kard.on_free(t, info.id);
            }
            Op::Lock { lock, site } => self.kard.lock_enter(t, lock, site),
            Op::Unlock { lock } => self.kard.lock_exit(t, lock),
            Op::Read { tag, offset, ip } => {
                let addr = self.object(tag).base.offset(offset);
                self.kard.read(t, addr, ip);
            }
            Op::Write { tag, offset, ip } => {
                let addr = self.object(tag).base.offset(offset);
                self.kard.write(t, addr, ip);
            }
            Op::Compute { cycles } => self.kard.machine().charge(t, cycles),
        }
    }
}

impl fmt::Debug for KardExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KardExecutor")
            .field("threads", &self.threads.len())
            .field("objects", &self.objects.len())
            .finish()
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
    #[should_panic(expected = "unallocated object")]
    fn unallocated_tag_panics() {
        let mut p = ThreadProgram::new();
        p.read(ObjectTag(99), 0, CodeSite(0));
        let session = Session::new();
        let mut exec = KardExecutor::new(session.kard().clone());
        replay(&sequential(&[p]), &mut exec);
    }
}
