//! Overhead-vs-detection Pareto curve for production mode: the
//! overhead-budget controller ([`kard_core::budget`]) against full
//! detection and static hash-sampling, over the registered traffic
//! shapes (storm, work-stealing deques, async task pool).
//!
//! Every mode replays the same deterministic two-round workload — a
//! *warmup* round during which a budgeted controller adapts, then a
//! *measurement* round over which steady-state overhead is read — into
//! one detector, ticking the controller after every burst exactly as
//! `Session::drain` and the firehose shard loop do. Overhead is measured
//! the way the controller itself measures it: fault-delay plus
//! `pkey_mprotect` cycles as a permille of elapsed virtual cycles.
//!
//! Modes swept:
//!
//! - `full_default` — the default paper configuration, the reference
//!   every production mode is compared against.
//! - `production_inf` — production mode with an infinite budget: the
//!   controller observes but never narrows, so reports and detector
//!   statistics are bit-identical to `full_default`.
//! - `sampled_*` — static hash-sampling at 500/250/100 permille, no
//!   budget: the detection-rate cost of sampling with no feedback.
//! - `budgeted_*` — the adaptive controller under explicit overhead
//!   budgets; a point is inside its envelope at budget + 20%.
//!
//! The baseline columns come from `kard-baselines`: the native
//! (uninstrumented, packed-allocation) replay of the same traffic and
//! the modelled TSan per-access overhead, so every production point sits
//! between "no detection, no cost" and "per-access instrumentation".

use kard_baselines::cost::tsan_overhead_pct_with_compute;
use kard_core::{KardConfig, ProductionConfig, ProductionStats};
use kard_rt::{KardExecutor, Session};
use kard_sim::CostModel;
use kard_trace::replay::Executor as _;
use kard_trace::{Event, Op};
use kard_workloads::native::NativeExecutor;
use kard_workloads::storm::StormSession;
use kard_workloads::TrafficShape;
use serde::Serialize;

/// Sessions per traffic shape per round `kard-tables production` replays.
pub const SESSIONS: usize = 8;

/// Of which carry one planted ILU race each.
pub const RACY: usize = 6;

/// Static sampling widths swept without a budget, permille.
const STATIC_SAMPLES: [u32; 3] = [500, 250, 100];

/// Overhead budgets swept, permille of elapsed virtual cycles.
const BUDGETS: [u32; 5] = [25, 50, 100, 200, 400];

/// A budget point is inside its envelope when its steady-state observed
/// overhead lands within `budget * (100 + ENVELOPE_PCT) / 100`.
const ENVELOPE_PCT: u64 = 20;

/// Application work modelled between trace events, cycles. The traffic
/// shapes are deliberately section-dense (they size the firehose
/// server); a production Pareto curve needs the application work those
/// detection costs amortize against, so every event carries this much
/// compute padding — identically in the Kard replay and the native
/// baseline, and without reordering anything. 250k cycles between
/// synchronization events (~83µs at 3GHz) models a section-per-tens-of-µs
/// application; a simulated protection fault costs ~75k cycles, so even
/// an object that is identified and immediately skipped amortizes its
/// one fault over a fraction of a single event's application work —
/// that is what makes tight (≤ 100‰) budgets reachable at all.
const COMPUTE_PAD: u64 = 250_000;

/// The native and modelled-TSan reference points for the same traffic.
#[derive(Clone, Debug, Serialize)]
pub struct Baselines {
    /// Cycles of the uninstrumented replay.
    pub native_cycles: u64,
    /// Explicit read/write events.
    pub explicit_accesses: u64,
    /// Compute padding, cycles.
    pub compute_cycles: u64,
    /// Modelled TSan overhead over `native_cycles` (%).
    pub tsan_modeled_overhead_pct: f64,
}

/// One mode's point on the curve.
#[derive(Clone, Debug, Serialize)]
pub struct ProductionRow {
    /// Mode label.
    pub mode: String,
    /// Configured overhead budget, permille (`None` = unbounded).
    pub budget_permille: Option<u32>,
    /// Configured static sample width, permille.
    pub sample_permille: u32,
    /// Races planted across both rounds.
    pub races_planted: u64,
    /// Races reported.
    pub races_detected: u64,
    /// `races_detected / races_planted`.
    pub detection_rate: f64,
    /// Elapsed virtual cycles.
    pub total_cycles: u64,
    /// Overhead over the native replay (%).
    pub kard_overhead_pct: f64,
    /// Fault-delay plus `pkey_mprotect` cycles, the controller's input.
    pub detection_work_cycles: u64,
    /// Work / elapsed over the whole run, permille.
    pub overall_overhead_permille: u64,
    /// Work / elapsed over the measurement round only, permille — the
    /// steady-state figure the budget envelope is judged on.
    pub steady_overhead_permille: u64,
    /// Whether the steady figure is inside the envelope (budgeted modes).
    pub within_envelope: Option<bool>,
    /// Final controller counters.
    pub production: ProductionStats,
}

/// The whole sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ProductionSweep {
    /// Traffic shapes replayed each round.
    pub shapes: Vec<&'static str>,
    /// Events across both rounds, padding included.
    pub events_total: usize,
    /// Envelope width over the budget (%).
    pub envelope_pct: u64,
    /// Reference points.
    pub baselines: Baselines,
    /// One row per mode.
    pub samples: Vec<ProductionRow>,
}

/// One round of traffic: every registered shape, each event followed by
/// its compute padding. Rounds differ only by seed, so warmup and
/// measurement exercise the same shape mix on fresh objects.
fn round(sessions: usize, racy: usize, seed: u64) -> Vec<StormSession> {
    let mut out = Vec::new();
    for shape in TrafficShape::ALL {
        out.extend(shape.sessions(sessions, racy, seed));
    }
    for burst in out.iter_mut().flat_map(|s| &mut s.bursts) {
        *burst = burst
            .drain(..)
            .flat_map(|e| {
                let pad = Event {
                    thread: e.thread,
                    op: Op::Compute {
                        cycles: COMPUTE_PAD,
                    },
                };
                [e, pad]
            })
            .collect();
    }
    out
}

fn thread_count(s: &StormSession) -> usize {
    s.bursts
        .iter()
        .flatten()
        .map(|e| e.thread + 1)
        .max()
        .unwrap_or(1)
}

/// Warmup and measurement rounds plus their native replay.
struct Traffic {
    rounds: [Vec<StormSession>; 2],
    baselines: Baselines,
}

impl Traffic {
    fn new(sessions: usize, racy: usize) -> Traffic {
        let rounds = [round(sessions, racy, 11), round(sessions, racy, 12)];
        let (mut cycles, mut accesses, mut compute) = (0u64, 0u64, 0u64);
        for s in rounds.iter().flatten() {
            let mut exec = NativeExecutor::new();
            exec.start(thread_count(s));
            for e in s.bursts.iter().flatten() {
                match e.op {
                    Op::Read { .. } | Op::Write { .. } => accesses += 1,
                    Op::Compute { cycles } => compute += cycles,
                    _ => {}
                }
                exec.on_event(e.thread, &e.op);
            }
            cycles += exec.metrics().cycles;
        }
        Traffic {
            rounds,
            baselines: Baselines {
                native_cycles: cycles,
                explicit_accesses: accesses,
                compute_cycles: compute,
                tsan_modeled_overhead_pct: tsan_overhead_pct_with_compute(
                    &CostModel::paper(),
                    accesses,
                    compute,
                    cycles,
                ),
            },
        }
    }

    /// Replay both rounds under one mode; returns the row and the session
    /// it was read from.
    fn run(
        &self,
        mode: &str,
        budget: Option<u32>,
        sample_permille: u32,
        production: bool,
    ) -> (ProductionRow, Session) {
        let config = KardConfig {
            production: production.then_some(ProductionConfig {
                overhead_budget: budget,
                sample_permille,
                sample_seed: 0x5eed,
            }),
            ..KardConfig::paper()
        };
        // Telemetry on in every mode: the overhead measurement (and, in
        // budgeted modes, the controller's feedback) reads the cycle
        // histograms. Race reports do not depend on telemetry.
        let session = Session::builder().config(config).telemetry(true).build();
        let kard = session.kard();
        // (elapsed cycles, detection work) after each round.
        let marks = self.rounds.each_ref().map(|sessions| {
            for s in sessions {
                let mut exec = KardExecutor::new(kard.clone());
                exec.start(thread_count(s));
                for burst in &s.bursts {
                    for e in burst {
                        exec.on_event(e.thread, &e.op);
                    }
                    // The drain-side heartbeat.
                    let _ = kard.production_tick();
                }
            }
            let hists = session.telemetry().histograms();
            (
                session.machine().now(),
                hists.fault_delay.sum() + hists.mprotect.sum(),
            )
        });
        let [(mid_cycles, mid_work), (end_cycles, end_work)] = marks;

        let permille = |work: u64, cycles: u64| work.saturating_mul(1000) / cycles.max(1);
        let steady = permille(end_work - mid_work, end_cycles - mid_cycles);
        let planted = self
            .rounds
            .iter()
            .flatten()
            .map(|s| s.expected_races as u64)
            .sum();
        let detected = kard.reports().len();
        let native = self.baselines.native_cycles as f64;
        let row = ProductionRow {
            mode: mode.to_string(),
            budget_permille: budget,
            sample_permille,
            races_planted: planted,
            races_detected: detected as u64,
            detection_rate: detected as f64 / planted as f64,
            total_cycles: end_cycles,
            kard_overhead_pct: 100.0 * (end_cycles as f64 - native) / native,
            detection_work_cycles: end_work,
            overall_overhead_permille: permille(end_work, end_cycles),
            steady_overhead_permille: steady,
            within_envelope: budget.map(|b| steady <= envelope(b)),
            production: kard.production_stats(),
        };
        (row, session)
    }
}

fn envelope(budget: u32) -> u64 {
    u64::from(budget) * (100 + ENVELOPE_PCT) / 100
}

/// Run every mode over `sessions` sessions per shape per round, the
/// first `racy` of each shape carrying one planted race.
#[must_use]
pub fn sweep(sessions: usize, racy: usize) -> ProductionSweep {
    let traffic = Traffic::new(sessions, racy);
    let mut samples = vec![
        traffic.run("full_default", None, 1000, false).0,
        traffic.run("production_inf", None, 1000, true).0,
    ];
    for s in STATIC_SAMPLES {
        samples.push(traffic.run(&format!("sampled_{s}"), None, s, true).0);
    }
    for b in BUDGETS {
        samples.push(traffic.run(&format!("budgeted_{b}"), Some(b), 1000, true).0);
    }
    ProductionSweep {
        shapes: TrafficShape::ALL.iter().map(|s| s.name()).collect(),
        events_total: traffic
            .rounds
            .iter()
            .flatten()
            .map(StormSession::total_events)
            .sum(),
        envelope_pct: ENVELOPE_PCT,
        baselines: traffic.baselines,
        samples,
    }
}

/// Render the sweep.
#[must_use]
pub fn text(sessions: usize, racy: usize) -> String {
    let sweep = sweep(sessions, racy);
    let b = &sweep.baselines;
    let mut out = format!(
        "Production mode: overhead budget vs detection \
         ({} shapes x {sessions} sessions x 2 rounds, {racy} racy per shape; {} events)\n\
         baselines: native {} cycles, modelled TSan {:+.1}%\n",
        sweep.shapes.len(),
        sweep.events_total,
        b.native_cycles,
        b.tsan_modeled_overhead_pct,
    );
    for s in &sweep.samples {
        out.push_str(&format!(
            "{:<16} {:>2}/{:<2} races, {:>6.2}% over native, {:>4}‰ overall, {:>4}‰ steady{}\n",
            s.mode,
            s.races_detected,
            s.races_planted,
            s.kard_overhead_pct,
            s.overall_overhead_permille,
            s.steady_overhead_permille,
            match (s.budget_permille, s.within_envelope) {
                (Some(b), Some(true)) => format!(" (envelope {}‰) ok", envelope(b)),
                (Some(b), _) => format!(" (envelope {}‰)", envelope(b)),
                _ => String::new(),
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn full() -> &'static ProductionSweep {
        static SWEEP: OnceLock<ProductionSweep> = OnceLock::new();
        SWEEP.get_or_init(|| sweep(SESSIONS, RACY))
    }

    #[test]
    fn infinite_budget_is_bit_identical_to_the_default_config() {
        let traffic = Traffic::new(SESSIONS, RACY);
        let (full, full_session) = traffic.run("full_default", None, 1000, false);
        let (inf, inf_session) = traffic.run("production_inf", None, 1000, true);
        let serialized = |s: &Session| {
            let kard = s.kard();
            (
                serde_json::to_string(&kard.reports()).expect("reports serialize"),
                serde_json::to_string(&kard.stats()).expect("stats serialize"),
            )
        };
        assert_eq!(
            full.races_detected, full.races_planted,
            "the default configuration must detect every planted race"
        );
        assert_eq!(
            inf.races_detected, inf.races_planted,
            "an infinite budget must not cost any detection"
        );
        assert_eq!(
            serialized(&inf_session),
            serialized(&full_session),
            "infinite-budget reports and detector stats must serialize bit-identically"
        );
        assert_eq!(
            inf.production.skipped_objects, 0,
            "an infinite budget never skips"
        );
    }

    #[test]
    fn at_least_three_of_five_budgets_land_inside_their_envelope() {
        let inside = full()
            .samples
            .iter()
            .filter(|s| s.within_envelope == Some(true))
            .count();
        assert!(
            inside >= 3,
            "{inside} of {} budget points within budget + {ENVELOPE_PCT}%",
            BUDGETS.len()
        );
    }

    #[test]
    fn tightest_budget_narrows_or_skips() {
        let budgeted = |b: u32| {
            full()
                .samples
                .iter()
                .find(|s| s.budget_permille == Some(b))
                .expect("budgeted row")
                .production
        };
        let (tightest, loosest) = (budgeted(BUDGETS[0]), budgeted(BUDGETS[4]));
        assert!(
            tightest.sample_permille < loosest.sample_permille || tightest.skipped_objects > 0,
            "the tightest budget must actually narrow or skip"
        );
    }

    #[test]
    fn every_static_sample_below_full_skips_objects() {
        for s in full().samples.iter().filter(|s| s.sample_permille < 1000) {
            assert!(
                s.production.skipped_objects > 0,
                "static sampling at {}‰ must skip some objects",
                s.sample_permille
            );
        }
    }
}
