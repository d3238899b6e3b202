//! `embed_threads`: real OS threads sharing one `Kard` — the only workload
//! with real concurrency, so the only one that sees the lock-free section
//! path, the holder-word hand-off and plan-cache epoch traffic under it.

use crate::ledger::{
    put_apply_cost, put_handle_counts, put_op_tail, put_server_metrics, put_span_metrics,
    put_trace_overhead, Counts,
};
use crate::report::Checks;
use crate::spans::{Kind, Scope, Tracer};
use crate::stats::{median, WindowRate};
use crate::stream::{untraced_replays, Replayable, CANONICAL_SEED};
use crate::workload::{Out, Workload};
use kard_alloc::ObjectInfo;
use kard_core::{Kard, KardConfig, LockId};
use kard_rt::Session;
use kard_server::proto::Statsz;
use kard_sim::{CodeSite, ThreadId};
use kard_trace::{Event, ObjectTag, Op, Trace};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct SharedKard;

/// Generator threads.
const THREADS: usize = 2;
/// Objects per section, private and shared alike.
const OBJECTS: usize = 4;
/// Entries per round; the last one of each round takes the shared section.
const ROUND: u64 = 64;
/// `lock_enter`, a write, a read, `lock_exit`.
const EVENTS_PER_ENTRY: u64 = 4;
/// Rounds per thread in the replayable stream of the same programme.
const STREAM_ROUNDS: u64 = 256;

const SHARED_LOCK: LockId = LockId(999);
const SHARED_SITE: CodeSite = CodeSite(0x500);

fn private_lock(thread: usize) -> LockId {
    LockId(1 + thread as u64)
}

fn private_site(thread: usize) -> CodeSite {
    CodeSite(0x100 + thread as u64)
}

/// Byte offsets of entry `n`'s write and read.
fn offsets(n: u64, seed: u64) -> (u64, u64) {
    ((n.wrapping_add(seed) % 8) * 8, (n % 8) * 8)
}

/// A critical section: a lock, its call site, the objects touched inside.
struct Section {
    lock: LockId,
    site: CodeSite,
    objects: Vec<ObjectInfo>,
}

/// One generator thread and the section only it enters.
struct Lane {
    thread: ThreadId,
    private: Section,
}

pub struct Input {
    session: Session,
    lanes: Vec<Lane>,
    /// Entered by every lane, under a real mutex.
    shared: Section,
    seed: u64,
    replayable: Replayable,
}

/// What the generator threads did in one timed region.
struct Live {
    /// Events per second over each window.
    rates: Vec<f64>,
    /// Wall milliseconds of each round, both threads.
    round_ms: Vec<f64>,
}

/// One critical-section entry: enter, write one object, read the next,
/// exit. True unless the detector returned a `KardError`.
fn entry(
    kard: &Kard,
    t: ThreadId,
    section: &Section,
    (write_at, read_at): (u64, u64),
    n: u64,
    spans: &mut Scope<'_>,
) -> bool {
    let Section {
        lock,
        site,
        objects,
    } = section;
    let written = objects[n as usize % OBJECTS].base.offset(write_at);
    let read = objects[(n as usize + 1) % OBJECTS].base.offset(read_at);
    spans.timed(Kind::LockEnter, || kard.lock_enter(t, *lock, *site));
    let w = spans.timed(Kind::Access, || kard.try_write(t, written, *site));
    let r = spans.timed(Kind::Access, || kard.try_read(t, read, *site));
    spans.timed(Kind::LockExit, || kard.lock_exit(t, *lock));
    w.is_ok() && r.is_ok()
}

impl Input {
    /// Run the generator threads for `seconds`, each recording spans into
    /// its tracer if it has one. Each window is one operation, failing on
    /// any race report or `KardError` inside it.
    fn run(&self, seconds: f64, tracers: Vec<Option<&mut Tracer>>, checks: &mut Checks) -> Live {
        let kard = self.session.kard();
        let stop = AtomicBool::new(false);
        let errors = AtomicU64::new(0);
        let progress: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
        let mutex = Mutex::new(());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter()
                .zip(&progress)
                .zip(tracers)
                .map(|((lane, done), mut tracer)| {
                    let (stop, errors, mutex) = (&stop, &errors, &mutex);
                    scope.spawn(move || {
                        let mut round_ms: Vec<f64> = Vec::with_capacity(1 << 20);
                        let mut n = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let start = Instant::now();
                            let mut spans =
                                Scope::open(tracer.as_deref_mut(), Kind::Round, n / ROUND);
                            let mut ok = true;
                            for e in 0..ROUND {
                                let at = offsets(n, self.seed);
                                if e == ROUND - 1 {
                                    let _held = mutex.lock().expect("no generator panicked");
                                    ok &= entry(kard, lane.thread, &self.shared, at, n, &mut spans);
                                } else {
                                    ok &=
                                        entry(kard, lane.thread, &lane.private, at, n, &mut spans);
                                }
                                n += 1;
                            }
                            spans.close();
                            if !ok {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            round_ms.push(start.elapsed().as_secs_f64() * 1e3);
                            done.store(n * EVENTS_PER_ENTRY, Ordering::Relaxed);
                        }
                        round_ms
                    })
                })
                .collect();

            let mut windows = WindowRate::new(seconds);
            let (mut seen_errors, mut seen_reports) = (0, 0);
            while windows.elapsed() < seconds {
                // Sleep to the window's end: the generators own the cores.
                std::thread::sleep(Duration::from_secs_f64(windows.until_next()));
                let total = progress.iter().map(|p| p.load(Ordering::Relaxed)).sum();
                if windows.mark(total) {
                    let now_errors = errors.load(Ordering::Relaxed);
                    let now_reports = kard.reports().len();
                    checks.op(
                        now_errors == seen_errors && now_reports == seen_reports,
                        || {
                            format!(
                                "window {}: {} rounds with a KardError, {} race reports",
                                windows.rates.len(),
                                now_errors - seen_errors,
                                now_reports - seen_reports
                            )
                        },
                    );
                    (seen_errors, seen_reports) = (now_errors, now_reports);
                }
            }
            stop.store(true, Ordering::Relaxed);
            let round_ms = handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread panicked"))
                .collect();
            Live {
                rates: windows.rates,
                round_ms,
            }
        })
    }
}

fn untraced_lanes<'a>() -> Vec<Option<&'a mut Tracer>> {
    (0..THREADS).map(|_| None).collect()
}

/// The same programme as a replayable stream: entries are whole (sections
/// of one lock never overlap, as the real mutex guarantees), and which
/// thread's entry comes first is drawn per pair from `order`.
fn programme(mut order: impl FnMut() -> bool) -> Trace {
    let own_tag = |t: usize, o: usize| ObjectTag((t * OBJECTS + o) as u64);
    let shared_tag = |o: usize| ObjectTag((THREADS * OBJECTS + o) as u64);
    let mut events = Vec::new();
    for o in 0..OBJECTS {
        for t in 0..THREADS {
            events.push(Event {
                thread: t,
                op: Op::Alloc {
                    tag: own_tag(t, o),
                    size: 64,
                },
            });
        }
        events.push(Event {
            thread: 0,
            op: Op::Alloc {
                tag: shared_tag(o),
                size: 64,
            },
        });
    }
    for n in 0..STREAM_ROUNDS * ROUND {
        let shared = n % ROUND == ROUND - 1;
        let first = usize::from(order());
        for t in [first, 1 - first] {
            let (lock, site) = if shared {
                (SHARED_LOCK, SHARED_SITE)
            } else {
                (private_lock(t), private_site(t))
            };
            let tag = |o: usize| if shared { shared_tag(o) } else { own_tag(t, o) };
            let (write_at, read_at) = offsets(n, 0);
            for op in [
                Op::Lock { lock, site },
                Op::Write {
                    tag: tag(n as usize % OBJECTS),
                    offset: write_at,
                    ip: site,
                },
                Op::Read {
                    tag: tag((n as usize + 1) % OBJECTS),
                    offset: read_at,
                    ip: site,
                },
                Op::Unlock { lock },
            ] {
                events.push(Event { thread: t, op });
            }
        }
    }
    Trace::from_events(THREADS, events)
}

/// splitmix64: the benchmark's only need for randomness is a seeded coin.
fn coin(seed: u64) -> impl FnMut() -> bool {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & 1 == 1
    }
}

impl Workload for SharedKard {
    type Input = Input;

    fn generator_threads(&self) -> usize {
        THREADS
    }

    fn prepare(&self, seed: u64) -> Input {
        let session = Session::new();
        let kard = session.kard();
        let section = |thread: ThreadId, lock: LockId, site: CodeSite| Section {
            lock,
            site,
            objects: (0..OBJECTS).map(|_| kard.on_alloc(thread, 64)).collect(),
        };
        let lanes: Vec<Lane> = (0..THREADS)
            .map(|i| {
                let thread = kard.register_thread();
                Lane {
                    thread,
                    private: section(thread, private_lock(i), private_site(i)),
                }
            })
            .collect();
        let shared = section(lanes[0].thread, SHARED_LOCK, SHARED_SITE);
        let input = Input {
            session,
            lanes,
            shared,
            seed,
            replayable: Replayable::new(
                programme(coin(seed)),
                programme(coin(CANONICAL_SEED)),
                KardConfig::default(),
            ),
        };
        // Warm-up: identify and key every object, fill each thread's plan
        // cache, start the OS threads once.
        input.run(0.1, untraced_lanes(), &mut Checks::default());
        input
    }

    fn replayable<'a>(&self, input: &'a Input) -> &'a Replayable {
        &input.replayable
    }

    fn untraced(&self, input: &mut Input, seconds: f64, out: &mut Out) {
        let live = input.run(seconds, untraced_lanes(), &mut out.checks);
        out.m.put_median("events_per_s", &live.rates);
        out.m.put_median("op_ms_p50", &live.round_ms);
    }

    fn traced(&self, input: &mut Input, seconds: f64, tracer: &mut Tracer, out: &mut Out) {
        // Live, with a span per detector call on each generator thread.
        let mut lanes: Vec<Tracer> = (1..=THREADS as u64).map(|lane| tracer.lane(lane)).collect();
        let traced = input.run(
            seconds * 0.45,
            lanes.iter_mut().map(Some).collect(),
            &mut out.checks,
        );
        for lane in lanes {
            tracer.merge(lane);
        }
        let untraced = input.run(seconds * 0.3, untraced_lanes(), &mut out.checks);
        put_trace_overhead(median(&untraced.rates), median(&traced.rates), &mut out.m);
        put_op_tail(&untraced.round_ms, &mut out.m);
        put_span_metrics(tracer, &mut out.m);
        // Counted since the session was built: set-up's dozen
        // identification faults are in, and vanish among millions of entries.
        let kard = input.session.kard();
        Counts::of(&kard.snapshot()).put(&mut out.m);
        put_handle_counts(kard, &mut out.m);
        put_server_metrics(tracer, &Statsz::default(), &mut out.m);

        // The same programme replayed on one thread prices the detector
        // floor without contention.
        let r = &input.replayable;
        let walls = untraced_replays(&r.stream, seconds * 0.25, &r.reference, &mut out.checks);
        put_apply_cost(&r.stream, &walls, &mut out.m);
    }
}
