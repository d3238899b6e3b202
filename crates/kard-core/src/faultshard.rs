//! Per-group fault serialization: the sharded replacement for the old
//! global fault mutex.
//!
//! Earlier versions of the detector serialized the entire fault path —
//! `handle_fault`, `on_free`, `on_thread_exit`, and `lock_exit`'s
//! finished-interleaving restoration — behind one global mutex. Faults
//! are rare *per object*, but a monitored program with many threads
//! faults on many unrelated objects at once, and a single lock makes
//! §5.5 fault-handling latency grow with the thread count.
//!
//! [`FaultShards`] replaces the global lock with [`FAULT_SHARDS`]
//! independently locked shards keyed by **object id**. Every operation
//! that must be mutually exclusive with a concurrent fault on object `O`
//! (the fault handler itself, `O`'s free, the restoration of `O` after a
//! finished interleaving) locks `shard_of(O)`; operations touching every
//! object (`on_thread_exit`'s magazine retirement) lock all shards in
//! ascending index order. Faults on objects in different shards proceed
//! fully in parallel.
//!
//! # Why object id, not virtual key
//!
//! Under key virtualization a group (virtual key) would be the natural
//! serialization unit, but an object's group assignment is itself created
//! and torn down *by the fault path* — keying the lock on a value the
//! locked region mutates would let two handlers for the same object pick
//! different shards mid-flight. The object id is immutable for the
//! object's lifetime, so `shard_of` is stable, and *group*-level mutual
//! exclusion is recovered where it matters: an eviction claims the shard
//! of every member of the victim group (see [`ShardClaims`]) before
//! demoting it, so a group is never torn down while any of its members
//! has a fault in flight.
//!
//! # Ordering rule
//!
//! Fault shards sit at the **top** of the detector's lock order
//! (see the module doc of [`crate::detector`]): a blocking shard
//! acquisition is legal only while holding no other detector lock, and
//! the inner locks (`keys` → `vkeys`/`interleaver`/`threads`) nest under
//! it. Once any inner lock is held, additional shards may only be taken
//! with [`ShardClaims::claim`], which never blocks — a failed claim makes
//! the caller pick a different eviction victim instead of waiting, so the
//! lock graph stays acyclic by construction.

use kard_alloc::ObjectId;
use kard_telemetry::sync::TrackedMutex;
use parking_lot::MutexGuard;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked fault shards. Object ids are dense, so
/// a simple modulo spreads unrelated objects across different locks;
/// sixteen shards keep the worst-case `lock_all` short while making
/// same-shard collisions of *concurrently faulting* objects unlikely.
pub const FAULT_SHARDS: usize = 16;

/// The shard index serializing fault-path operations on `id`. Stable for
/// the object's whole lifetime.
#[must_use]
pub fn shard_of(id: ObjectId) -> usize {
    id.0 as usize % FAULT_SHARDS
}

/// Counters describing how hard the fault shards are working. All
/// maintained with relaxed atomics; snapshot via
/// [`FaultShards::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultShardStats {
    /// Total shard-lock acquisitions (all shards, including `lock_all`
    /// sweeps, which count one per shard).
    pub acquisitions: u64,
    /// Acquisitions that found their first shard already held and had to
    /// wait (the traffic a global fault mutex would have serialized).
    pub contended: u64,
    /// High-water mark of fault-path operations in flight at once. Values
    /// above 1 are parallelism the old global fault mutex forbade.
    pub max_in_flight: u64,
    /// Total virtual cycles fault handlers spent queued behind earlier
    /// handlers of the same shard — the §5.5 serialization cost on each
    /// thread's virtual clock.
    pub queued_cycles: u64,
}

/// The sharded fault-path lock array. See the module doc for the
/// protocol.
pub struct FaultShards {
    shards: Vec<TrackedMutex<()>>,
    /// Per-shard acquisition counters (each shard's `TrackedMutex` feeds
    /// its own counter so tests can assert *which* shards moved).
    per_shard: Vec<Arc<AtomicU64>>,
    /// Fault-path operations currently holding at least one shard.
    in_flight: AtomicU64,
    /// High-water mark of `in_flight`.
    max_in_flight: AtomicU64,
    /// Entries whose first lock attempt found the shard held.
    contended: AtomicU64,
    /// Per-shard release times on the common virtual timeline
    /// (birth-offset per-thread clocks): the §5.5 delay bookkeeping, one
    /// atomic per shard instead of a global point. A handler arriving
    /// (on its thread's timeline) before the previous same-shard handler
    /// released queues for the difference — the conservative-simulation
    /// model of fault serialization, which holds even when the host has
    /// too few cores to overlap handlers in real time. Raw per-thread
    /// cycle counters would not do here: a thread registered long after
    /// a release starts its counter at zero and would queue behind work
    /// that finished before it existed. See [`FaultPathGuard::queue_wait`].
    free_at: Vec<AtomicU64>,
    /// Total cycles charged through [`FaultPathGuard::queue_wait`].
    queued: AtomicU64,
}

impl FaultShards {
    /// A fresh shard array.
    #[must_use]
    pub fn new() -> FaultShards {
        let per_shard: Vec<Arc<AtomicU64>> =
            (0..FAULT_SHARDS).map(|_| Arc::new(AtomicU64::new(0))).collect();
        FaultShards {
            shards: per_shard
                .iter()
                .map(|c| TrackedMutex::new((), Arc::clone(c)))
                .collect(),
            per_shard,
            in_flight: AtomicU64::new(0),
            max_in_flight: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            free_at: (0..FAULT_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            queued: AtomicU64::new(0),
        }
    }

    /// Serialize a fault-path operation on `id`: lock its shard.
    /// Blocking — callers must hold no other detector lock.
    pub fn enter_object(&self, id: ObjectId) -> FaultPathGuard<'_> {
        let idx = shard_of(id);
        let (guard, contended) = match self.shards[idx].try_lock() {
            Some(g) => (g, false),
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                (self.shards[idx].lock(), true)
            }
        };
        self.finish_entry(vec![(idx, guard)], contended)
    }

    /// Serialize against the *whole* fault path: lock every shard in
    /// ascending index order. Used by `on_thread_exit` (magazine
    /// retirement unmaps pages any handler might touch).
    pub fn enter_all(&self) -> FaultPathGuard<'_> {
        let mut contended = false;
        let guards = self
            .shards
            .iter()
            .enumerate()
            .map(|(idx, shard)| {
                let g = match shard.try_lock() {
                    Some(g) => g,
                    None => {
                        if !contended {
                            self.contended.fetch_add(1, Ordering::Relaxed);
                            contended = true;
                        }
                        shard.lock()
                    }
                };
                (idx, g)
            })
            .collect();
        self.finish_entry(guards, contended)
    }

    fn finish_entry<'a>(
        &'a self,
        held: Vec<(usize, MutexGuard<'a, ()>)>,
        contended: bool,
    ) -> FaultPathGuard<'a> {
        let concurrency = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(concurrency, Ordering::Relaxed);
        FaultPathGuard {
            shards: self,
            held,
            contended,
            concurrency,
        }
    }

    /// Begin a non-blocking secondary-claim set for a fault-path
    /// operation already holding `primary`'s shards. Claims treat the
    /// primary's shards as pre-held (a victim member landing in the
    /// faulter's own shard is already serialized).
    #[must_use]
    pub fn claims<'a>(&'a self, primary: &FaultPathGuard<'_>) -> ShardClaims<'a> {
        ShardClaims {
            shards: self,
            preheld: primary.held.iter().map(|&(idx, _)| idx).collect(),
            claimed: Vec::new(),
        }
    }

    /// Per-shard acquisition counts, indexed by shard. Lets tests assert
    /// that a fault on one object never touches an unrelated object's
    /// shard.
    #[must_use]
    pub fn per_shard_acquisitions(&self) -> Vec<u64> {
        self.per_shard
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Snapshot of the shard counters.
    #[must_use]
    pub fn stats(&self) -> FaultShardStats {
        FaultShardStats {
            acquisitions: self
                .per_shard
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
            contended: self.contended.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
            queued_cycles: self.queued.load(Ordering::Relaxed),
        }
    }
}

impl Default for FaultShards {
    fn default() -> Self {
        FaultShards::new()
    }
}

impl std::fmt::Debug for FaultShards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultShards")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Exclusive hold of one fault shard (or all of them). Dropping it ends
/// the fault-path operation.
pub struct FaultPathGuard<'a> {
    shards: &'a FaultShards,
    held: Vec<(usize, MutexGuard<'a, ()>)>,
    /// Whether the first lock attempt found a shard already held — the
    /// contention a global fault mutex would have imposed on *every*
    /// entry.
    contended: bool,
    /// Fault-path operations in flight at entry, including this one.
    concurrency: u64,
}

impl FaultPathGuard<'_> {
    /// Whether entry had to wait for a shard.
    #[must_use]
    pub fn contended(&self) -> bool {
        self.contended
    }

    /// Fault-path operations in flight when this one entered (≥ 1).
    #[must_use]
    pub fn concurrency(&self) -> u64 {
        self.concurrency
    }

    /// The shard indices this guard holds.
    #[must_use]
    pub fn held_indices(&self) -> Vec<usize> {
        self.held.iter().map(|&(idx, _)| idx).collect()
    }

    /// §5.5 serialization on the virtual clock: given this handler's
    /// arrival time on its thread's clock, the cycles it must queue
    /// behind the latest earlier handler of any held shard. Threads run
    /// identical virtual work at identical rates, so two handlers whose
    /// virtual intervals overlap *would* have collided on real parallel
    /// hardware — charging the overlap makes same-shard handlers queue
    /// (and only those), independent of how many host cores exist to
    /// overlap them in real time. The wait is also added to
    /// [`FaultShardStats::queued_cycles`].
    #[must_use]
    pub fn queue_wait(&self, arrive: u64) -> u64 {
        let free_at = self
            .held
            .iter()
            .map(|&(idx, _)| self.shards.free_at[idx].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        let wait = free_at.saturating_sub(arrive);
        if wait > 0 {
            self.shards.queued.fetch_add(wait, Ordering::Relaxed);
        }
        wait
    }

    /// Record this handler's release time (on its thread's virtual
    /// clock) into every held shard, so the next same-shard handler
    /// queues behind it. Call with the thread's clock after the handler's
    /// work is charged, right before the guard drops.
    pub fn release_at(&self, end: u64) {
        for &(idx, _) in &self.held {
            self.shards.free_at[idx].fetch_max(end, Ordering::Relaxed);
        }
    }
}

impl Drop for FaultPathGuard<'_> {
    fn drop(&mut self) {
        self.shards.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A set of secondary shard locks claimed with `try_lock` only — the
/// eviction path's deadlock-free way of extending a fault-path
/// operation's mutual exclusion to a victim group's members while inner
/// detector locks are held.
///
/// [`ShardClaims::claim`] either claims the shard of *every* given object
/// (holding the locks until the claim set drops) or claims nothing and
/// returns `false`, in which case the caller picks a different victim.
/// Under zero contention every claim succeeds, so single-threaded
/// executions behave exactly as the serial detector did.
pub struct ShardClaims<'a> {
    shards: &'a FaultShards,
    preheld: Vec<usize>,
    claimed: Vec<(usize, MutexGuard<'a, ()>)>,
}

impl ShardClaims<'_> {
    /// Try to claim the shards of every object in `members`, atomically:
    /// on any refusal the shards claimed by *this call* are released
    /// again. Shards already covered (pre-held by the primary guard or
    /// claimed by an earlier successful call) are skipped.
    pub fn claim(&mut self, members: &[ObjectId]) -> bool {
        let start = self.claimed.len();
        for &obj in members {
            let idx = shard_of(obj);
            if self.covers(idx) {
                continue;
            }
            match self.shards.shards[idx].try_lock() {
                Some(g) => self.claimed.push((idx, g)),
                None => {
                    self.claimed.truncate(start);
                    return false;
                }
            }
        }
        true
    }

    fn covers(&self, idx: usize) -> bool {
        self.preheld.contains(&idx) || self.claimed.iter().any(|&(i, _)| i == idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_objects_lock_disjoint_shards() {
        let shards = FaultShards::new();
        let a = shards.enter_object(ObjectId(0));
        let b = shards.enter_object(ObjectId(1));
        assert_eq!(a.held_indices(), vec![0]);
        assert_eq!(b.held_indices(), vec![1]);
        assert_eq!(b.concurrency(), 2);
        assert!(!a.contended() && !b.contended());
        drop((a, b));
        let per = shards.per_shard_acquisitions();
        assert_eq!(per[0], 1);
        assert_eq!(per[1], 1);
        assert!(per[2..].iter().all(|&c| c == 0), "untouched shards stay cold");
        assert_eq!(shards.stats().max_in_flight, 2);
    }

    #[test]
    fn same_shard_objects_serialize() {
        let shards = FaultShards::new();
        let a = shards.enter_object(ObjectId(3));
        // Probe shard 3 from another operation with a non-blocking claim:
        // an object with the same index mod FAULT_SHARDS is refused while
        // `a` is alive, available once it drops.
        let b = shards.enter_object(ObjectId(4));
        let same_shard = ObjectId(3 + 2 * FAULT_SHARDS as u64);
        let mut claims = shards.claims(&b);
        assert!(!claims.claim(&[same_shard]), "shard 3 is held by `a`");
        drop(a);
        assert!(claims.claim(&[same_shard]), "free after `a` drops");
    }

    #[test]
    fn enter_all_locks_every_shard_once() {
        let shards = FaultShards::new();
        let g = shards.enter_all();
        assert_eq!(g.held_indices().len(), FAULT_SHARDS);
        drop(g);
        assert!(shards.per_shard_acquisitions().iter().all(|&c| c == 1));
    }

    #[test]
    fn claims_skip_preheld_and_roll_back_on_refusal() {
        let shards = FaultShards::new();
        let primary = shards.enter_object(ObjectId(0));
        let blocker = shards.enter_object(ObjectId(9));

        let mut claims = shards.claims(&primary);
        // Shard 0 is pre-held by the primary: claiming an object that maps
        // there succeeds without touching the lock.
        assert!(claims.claim(&[ObjectId(FAULT_SHARDS as u64)]));
        // A set containing shard 9 (held by `blocker`) is refused whole,
        // and the other member's shard is released again.
        assert!(!claims.claim(&[ObjectId(4), ObjectId(9)]));
        drop(blocker);
        // With the blocker gone both members claim fine.
        assert!(claims.claim(&[ObjectId(4), ObjectId(9)]));
        drop(claims);
        drop(primary);
    }

    #[test]
    fn claim_is_idempotent_per_shard() {
        let shards = FaultShards::new();
        let primary = shards.enter_object(ObjectId(1));
        let mut claims = shards.claims(&primary);
        // Two members in the same shard: one lock, one skip.
        assert!(claims.claim(&[ObjectId(2), ObjectId(2 + FAULT_SHARDS as u64)]));
        assert!(claims.claim(&[ObjectId(2)]), "already claimed counts as covered");
    }
}
