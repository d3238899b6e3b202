//! Overhead-vs-detection Pareto curves for production mode: the
//! overhead-budget controller ([`kard_core::budget`]) against full
//! detection and static hash-sampling, over the registered traffic
//! shapes (storm, work-stealing deques, async task pool).
//!
//! Every mode replays the same deterministic two-round workload — a
//! *warmup* round during which a budgeted controller adapts, then a
//! *measurement* round over which steady-state overhead is read — into
//! one detector, ticking the controller after every burst exactly as
//! `Session::drain` and the firehose shard loop do. Overhead
//! is measured the way the controller itself measures it: fault-delay
//! plus `pkey_mprotect` cycles as a permille of elapsed virtual cycles.
//!
//! Modes swept:
//!
//! - `full_default` — today's default paper configuration, the reference
//!   every production mode is compared against.
//! - `production_inf` — production mode with an infinite budget: the
//!   controller observes but never narrows. Its race reports and
//!   detector statistics must be **bit-identical** to `full_default`
//!   (asserted in-process, serialized-JSON equality).
//! - `sampled_*` — static hash-sampling at 500/250/100 permille, no
//!   budget: the detection-rate cost of sampling with no feedback.
//! - `budgeted_*` — the adaptive controller under explicit overhead
//!   budgets; the CI gate asserts at least three budget points land
//!   within their configured envelope (budget + 20%).
//!
//! The baseline columns come from `kard-baselines`: the native
//! (uninstrumented, packed-allocation) replay of the same traffic and
//! the modelled TSan per-access overhead, so the JSON shows where every
//! production point sits between "no detection, no cost" and
//! "per-access instrumentation".
//!
//! Run with `cargo bench -p kard-bench --bench bench_production_mode`;
//! emits `BENCH_production_mode.json` at the repository root. Set
//! `KARD_BENCH_SMOKE=1` for the CI smoke run (fewer sessions per shape,
//! same gates).

use kard_baselines::cost::tsan_overhead_pct_with_compute;
use kard_core::{KardConfig, ProductionStats};
use kard_rt::{KardExecutor, Session};
use kard_sim::CostModel;
use kard_trace::replay::Executor as _;
use kard_trace::{Event, Op};
use kard_workloads::native::NativeExecutor;
use kard_workloads::storm::StormSession;
use kard_workloads::TrafficShape;

/// Sessions per traffic shape per round (full / smoke).
const FULL_SESSIONS: usize = 8;
const SMOKE_SESSIONS: usize = 3;

/// Of which carry one planted ILU race each (full / smoke).
const FULL_RACY: usize = 6;
const SMOKE_RACY: usize = 2;

/// Static sampling widths swept without a budget, permille.
const STATIC_SAMPLES: [u32; 3] = [500, 250, 100];

/// Overhead budgets swept, permille of elapsed virtual cycles.
const BUDGETS: [u32; 5] = [25, 50, 100, 200, 400];

/// A budget point passes when its steady-state observed overhead lands
/// within `budget * (100 + ENVELOPE_PCT) / 100`.
const ENVELOPE_PCT: u64 = 20;

/// Budget points that must land inside their envelope for CI to pass.
const REQUIRED_IN_ENVELOPE: usize = 3;

fn scale() -> (usize, usize) {
    if std::env::var_os("KARD_BENCH_SMOKE").is_some() {
        (SMOKE_SESSIONS, SMOKE_RACY)
    } else {
        (FULL_SESSIONS, FULL_RACY)
    }
}

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

fn padded(sessions: Vec<StormSession>) -> Vec<StormSession> {
    sessions
        .into_iter()
        .map(|mut s| {
            for burst in &mut s.bursts {
                let mut out = Vec::with_capacity(burst.len() * 2);
                for e in burst.drain(..) {
                    let thread = e.thread;
                    out.push(e);
                    out.push(Event {
                        thread,
                        op: Op::Compute { cycles: COMPUTE_PAD },
                    });
                }
                *burst = out;
            }
            s
        })
        .collect()
}

/// One round of traffic: every registered shape at the chosen scale.
/// Rounds differ only by seed, so warmup and measurement exercise the
/// same shape mix on fresh objects.
fn round(seed: u64) -> Vec<StormSession> {
    let (sessions, racy) = scale();
    let mut out = Vec::new();
    for shape in TrafficShape::ALL {
        out.extend(padded(shape.sessions(sessions, racy, seed)));
    }
    out
}

fn planted(sessions: &[StormSession]) -> u64 {
    sessions.iter().map(|s| s.expected_races as u64).sum()
}

fn thread_count(s: &StormSession) -> usize {
    s.bursts
        .iter()
        .flatten()
        .map(|e| e.thread + 1)
        .max()
        .unwrap_or(1)
}

/// Replay one round into the detector, ticking the budget controller
/// after every burst (the drain-side heartbeat).
fn replay_round(session: &Session, sessions: &[StormSession]) {
    for s in sessions {
        let mut exec = KardExecutor::new(session.kard().clone());
        exec.start(thread_count(s));
        for burst in &s.bursts {
            for e in burst {
                exec.on_event(e.thread, &e.op);
            }
            let _ = session.kard().production_tick();
        }
    }
}

/// Detection work charged so far: the two cycle histograms the budget
/// controller integrates.
fn detection_work(session: &Session) -> u64 {
    let hists = session.telemetry().histograms();
    hists.fault_delay.sum() + hists.mprotect.sum()
}

struct Sample {
    mode: String,
    budget: Option<u32>,
    sample_permille: u32,
    planted: u64,
    detected: u64,
    total_cycles: u64,
    detection_work_cycles: u64,
    /// Work / elapsed over the whole run, permille.
    overall_overhead_permille: u64,
    /// Work / elapsed over the measurement round only, permille — the
    /// steady-state figure the budget envelope is judged on.
    steady_overhead_permille: u64,
    production: ProductionStats,
    /// Serialized race reports, for the bit-identity gate.
    report_json: String,
    /// Serialized detector statistics, for the bit-identity gate.
    stats_json: String,
}

fn run(
    mode: &str,
    budget: Option<u32>,
    sample_permille: u32,
    production: bool,
    warmup: &[StormSession],
    measure: &[StormSession],
) -> Sample {
    let mut config = KardConfig::paper()
        .sample_permille(sample_permille)
        .sample_seed(0x5eed);
    if production {
        config = config.production(true).overhead_budget(budget);
    }
    // Telemetry on in every mode: the overhead measurement (and, in
    // budgeted modes, the controller's feedback) reads the cycle
    // histograms. Race reports do not depend on telemetry.
    let session = Session::builder().config(config).telemetry(true).build();

    replay_round(&session, warmup);
    let mid_cycles = session.machine().now();
    let mid_work = detection_work(&session);
    replay_round(&session, measure);
    let end_cycles = session.machine().now();
    let end_work = detection_work(&session);

    let permille = |work: u64, cycles: u64| {
        if cycles == 0 { 0 } else { work.saturating_mul(1000) / cycles }
    };
    let reports = session.kard().reports();
    Sample {
        mode: mode.to_string(),
        budget,
        sample_permille,
        planted: planted(warmup) + planted(measure),
        detected: reports.len() as u64,
        total_cycles: end_cycles,
        detection_work_cycles: end_work,
        overall_overhead_permille: permille(end_work, end_cycles),
        steady_overhead_permille: permille(
            end_work - mid_work,
            end_cycles - mid_cycles,
        ),
        production: session.kard().production_stats(),
        report_json: serde_json::to_string(&reports).expect("reports serialize"),
        stats_json: serde_json::to_string(&session.kard().stats())
            .expect("stats serialize"),
    }
}

/// Native (uninstrumented) cycles plus the access/compute tallies the
/// TSan cost model needs, over the same traffic.
fn native_baseline(rounds: &[&[StormSession]]) -> (u64, u64, u64) {
    let mut cycles = 0u64;
    let mut accesses = 0u64;
    let mut compute = 0u64;
    for sessions in rounds {
        for s in *sessions {
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
    }
    (cycles, accesses, compute)
}

fn event_count(sessions: &[StormSession]) -> usize {
    sessions.iter().map(StormSession::total_events).sum()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let warmup = round(11);
    let measure = round(12);
    let (native_cycles, accesses, compute) =
        native_baseline(&[&warmup, &measure]);
    let tsan_pct = tsan_overhead_pct_with_compute(
        &CostModel::paper(),
        accesses,
        compute,
        native_cycles,
    );

    let mut samples = Vec::new();
    samples.push(run("full_default", None, 1000, false, &warmup, &measure));
    samples.push(run("production_inf", None, 1000, true, &warmup, &measure));
    for s in STATIC_SAMPLES {
        samples.push(run(&format!("sampled_{s}"), None, s, true, &warmup, &measure));
    }
    for b in BUDGETS {
        samples.push(run(
            &format!("budgeted_{b}"),
            Some(b),
            1000,
            true,
            &warmup,
            &measure,
        ));
    }

    let total_planted = samples[0].planted;
    let mut in_envelope = 0usize;
    for s in &samples {
        let envelope = s
            .budget
            .map(|b| u64::from(b) * (100 + ENVELOPE_PCT) / 100);
        let within = envelope.is_some_and(|e| s.steady_overhead_permille <= e);
        if within {
            in_envelope += 1;
        }
        println!(
            "{:<16} {:>2}/{:<2} races, {:>4}‰ overall, {:>4}‰ steady{}{}",
            s.mode,
            s.detected,
            s.planted,
            s.overall_overhead_permille,
            s.steady_overhead_permille,
            envelope.map_or(String::new(), |e| format!(" (envelope {e}‰)")),
            if within { " ok" } else { "" },
        );
    }

    // --- CI gates (see EXPERIMENTS.md "Production mode") --------------------
    let full = &samples[0];
    let inf = &samples[1];
    assert_eq!(
        full.detected, total_planted,
        "the default configuration must detect every planted race"
    );
    assert_eq!(
        inf.detected, total_planted,
        "an infinite budget must not cost any detection"
    );
    assert_eq!(
        inf.report_json, full.report_json,
        "infinite-budget race reports must be bit-identical to the default config"
    );
    assert_eq!(
        inf.stats_json, full.stats_json,
        "infinite-budget detector stats must be bit-identical to the default config"
    );
    assert_eq!(
        inf.production.skipped_objects, 0,
        "an infinite budget never skips"
    );
    assert!(
        in_envelope >= REQUIRED_IN_ENVELOPE,
        "at least {REQUIRED_IN_ENVELOPE} budget points must land within their \
         overhead envelope (+{ENVELOPE_PCT}%), got {in_envelope}"
    );
    let narrowest = samples.last().expect("budgeted samples exist");
    let tightest = &samples[2 + STATIC_SAMPLES.len()];
    assert_eq!(tightest.budget, Some(BUDGETS[0]), "sweep order");
    assert!(
        tightest.production.sample_permille < narrowest.production.sample_permille
            || tightest.production.skipped_objects > 0,
        "the tightest budget must actually narrow or skip"
    );
    for s in &samples {
        if s.sample_permille < 1000 {
            assert!(
                s.production.skipped_objects > 0,
                "static sampling at {}‰ must skip some objects",
                s.sample_permille
            );
        }
    }

    let (sessions_per_shape, racy_per_shape) = scale();
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            let budget = s.budget.map_or("null".into(), |b| b.to_string());
            let envelope = s
                .budget
                .map(|b| u64::from(b) * (100 + ENVELOPE_PCT) / 100);
            let kard_pct = if native_cycles == 0 {
                0.0
            } else {
                100.0 * (s.total_cycles as f64 - native_cycles as f64)
                    / native_cycles as f64
            };
            format!(
                "    {{\"mode\": \"{}\", \"budget_permille\": {}, \"sample_permille\": {}, \"races_planted\": {}, \"races_detected\": {}, \"detection_rate\": {:.4}, \"total_cycles\": {}, \"kard_overhead_pct\": {:.2}, \"detection_work_cycles\": {}, \"overall_overhead_permille\": {}, \"steady_overhead_permille\": {}, \"within_envelope\": {}, \"production\": {}}}",
                s.mode,
                budget,
                s.sample_permille,
                s.planted,
                s.detected,
                s.detected as f64 / s.planted as f64,
                s.total_cycles,
                kard_pct,
                s.detection_work_cycles,
                s.overall_overhead_permille,
                s.steady_overhead_permille,
                envelope.map_or("null".to_string(), |e| {
                    (s.steady_overhead_permille <= e).to_string()
                }),
                serde_json::to_string(&s.production).expect("production serializes"),
            )
        })
        .collect();
    let shapes: Vec<&str> = TrafficShape::ALL.iter().map(|s| s.name()).collect();
    let json = format!(
        "{{\n  \"bench\": \"production_mode\",\n  \"workload\": \"two rounds (warmup + measurement) of every traffic shape, {sessions_per_shape} sessions per shape per round, {racy_per_shape} racy; controller ticked after every burst; steady overhead = detection cycles / elapsed cycles over the measurement round\",\n  \"shapes\": {shapes:?},\n  \"events_total\": {},\n  \"envelope_pct\": {ENVELOPE_PCT},\n  \"baselines\": {{\"native_cycles\": {native_cycles}, \"explicit_accesses\": {accesses}, \"compute_cycles\": {compute}, \"tsan_modeled_overhead_pct\": {tsan_pct:.1}}},\n  \"samples\": [\n{}\n  ]\n}}\n",
        event_count(&warmup) + event_count(&measure),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_production_mode.json");
    std::fs::write(path, json).expect("write BENCH_production_mode.json");
    println!("wrote {path}");
}
