//! Production-mode contracts: the overhead-budget controller
//! (`kard::core::budget`) throttles by *deterministic sampling*, and the
//! throttle must be an honest, reproducible subset of full-mode
//! detection — never a new source of nondeterminism.
//!
//! Three claims are checked:
//!
//! 1. **Unbounded production == full mode, bit for bit.** Turning
//!    production mode on with no budget (the "observe only" deployment)
//!    must reproduce the default configuration's race reports and
//!    detector statistics byte-identically: the sample stays full-width,
//!    `decide` short-circuits before hashing, and nothing is skipped.
//! 2. **Sampling is a pure function of `(object, seed)`.** Two runs of
//!    one narrowed config make identical keep/skip choices and report
//!    identical races; a different seed is allowed to monitor a
//!    different subset.
//! 3. **The throttle endpoints behave.** A zero-width sample with the
//!    hotness override still disarmed skips every identified object and
//!    detects nothing — the floor of the Pareto curve the production
//!    bench plots.

use kard::core::{DetectorStats, ProductionConfig};
use kard::sim::CodeSite;
use kard::trace::replay::replay;
use kard::trace::schedule::interleave_round_robin;
use kard::trace::{ObjectTag, ThreadProgram, Trace};
use kard::{KardConfig, KardExecutor, LockId, RaceRecord, Session};
use proptest::prelude::*;

const OBJECTS: u64 = 6;

#[derive(Clone, Debug)]
enum Step {
    Locked { o: u64, lock: u64, write: bool },
    UnlockedRead(u64),
    Pad,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..OBJECTS, 0..3u64, any::<bool>())
            .prop_map(|(o, lock, write)| Step::Locked { o, lock, write }),
        (0..OBJECTS).prop_map(Step::UnlockedRead),
        Just(Step::Pad),
    ]
}

fn build(per_thread: &[Vec<Step>]) -> Vec<ThreadProgram> {
    per_thread
        .iter()
        .enumerate()
        .map(|(t, steps)| {
            let mut p = ThreadProgram::new();
            // Thread 0 allocates everything; the others pad one op per
            // allocation so no access precedes its allocation under
            // round-robin scheduling.
            if t == 0 {
                for o in 0..OBJECTS {
                    p.alloc(ObjectTag(o), 32);
                }
            } else {
                for _ in 0..OBJECTS {
                    p.compute(1);
                }
            }
            for (i, step) in steps.iter().enumerate() {
                let ip = CodeSite(0x1000 * (t as u64 + 1) + i as u64);
                match *step {
                    Step::Locked { o, lock, write } => {
                        p.lock(LockId(lock + 1), CodeSite(0x100 + lock));
                        if write {
                            p.write(ObjectTag(o), 0, ip);
                        } else {
                            p.read(ObjectTag(o), 0, ip);
                        }
                        p.unlock(LockId(lock + 1));
                    }
                    Step::UnlockedRead(o) => {
                        p.read(ObjectTag(o), 0, ip);
                    }
                    Step::Pad => {
                        p.compute(3);
                    }
                }
            }
            p
        })
        .collect()
}

/// Replay `trace` under `config`; the JSON strings make "bit-identical"
/// literal — the serialized artifacts a user would diff, not just
/// `PartialEq` on the in-memory values.
fn replay_with(trace: &Trace, config: KardConfig) -> Run {
    let session = Session::builder().config(config).build();
    let mut exec = KardExecutor::new(session.kard().clone());
    replay(trace, &mut exec);
    Run {
        report_json: serde_json::to_string(&exec.reports()).expect("reports serialize"),
        stats_json: serde_json::to_string(&exec.stats()).expect("stats serialize"),
        reports: exec.reports(),
        stats: exec.stats(),
        production: session.kard().production_stats(),
    }
}

struct Run {
    report_json: String,
    stats_json: String,
    reports: Vec<RaceRecord>,
    stats: DetectorStats,
    production: kard::core::ProductionStats,
}

fn narrowed(sample: u32, seed: u64) -> KardConfig {
    KardConfig {
        production: Some(ProductionConfig {
            overhead_budget: None,
            sample_permille: sample,
            sample_seed: seed,
        }),
        ..KardConfig::paper()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Production mode with an unbounded budget must be invisible: race
    /// reports and detector statistics serialize byte-identically to the
    /// default configuration, and the controller records zero skips.
    #[test]
    fn unbounded_production_reproduces_full_mode_bit_identically(
        a in prop::collection::vec(step_strategy(), 1..20),
        b in prop::collection::vec(step_strategy(), 1..20),
        c in prop::collection::vec(step_strategy(), 1..20),
    ) {
        let trace = interleave_round_robin(&build(&[a, b, c]));
        let full = replay_with(&trace, KardConfig::paper());
        let unbounded = KardConfig {
            production: Some(ProductionConfig::default()),
            ..KardConfig::paper()
        };
        let inf = replay_with(&trace, unbounded);
        prop_assert_eq!(full.report_json, inf.report_json, "reports diverged");
        prop_assert_eq!(full.stats_json, inf.stats_json, "stats diverged");
        prop_assert_eq!(inf.production.skipped_objects, 0);
        prop_assert_eq!(inf.production.hot_promotions, 0);
        prop_assert_eq!(inf.production.estimated_detection_permille, 1000);
    }

    /// A narrowed sample is deterministic per seed: identical runs make
    /// identical keep/skip decisions, report identical races, and agree
    /// on every controller counter.
    #[test]
    fn narrowed_sampling_is_deterministic_per_seed(
        a in prop::collection::vec(step_strategy(), 1..20),
        b in prop::collection::vec(step_strategy(), 1..20),
        sample in 0..1000u32,
        seed in any::<u64>(),
    ) {
        let trace = interleave_round_robin(&build(&[a, b]));
        let x = replay_with(&trace, narrowed(sample, seed));
        let y = replay_with(&trace, narrowed(sample, seed));
        prop_assert_eq!(x.report_json, y.report_json, "reports diverged");
        prop_assert_eq!(x.stats_json, y.stats_json, "stats diverged");
        prop_assert_eq!(x.production, y.production, "controller counters diverged");
        // The throttle only ever *removes* detection: every race a
        // narrowed run reports, the full-width run reports too.
        let full = replay_with(&trace, KardConfig::paper());
        for r in &x.reports {
            prop_assert!(
                full.reports.iter().any(|f| f.fingerprint() == r.fingerprint()),
                "sampled run reported a race full mode did not"
            );
        }
        prop_assert!(x.stats.objects_identified <= full.stats.objects_identified);
    }
}

/// The floor of the Pareto curve: a zero-width sample (hotness override
/// still at its disarmed default) skips every identified object, so no
/// races are reported and the estimated detection rate reads zero.
#[test]
fn zero_sample_skips_every_object_and_detects_nothing() {
    let mut racy = ThreadProgram::new();
    racy.alloc(ObjectTag(0), 64);
    racy.lock(LockId(1), CodeSite(0xaaa0));
    racy.write(ObjectTag(0), 0, CodeSite(0xaaa1));
    racy.unlock(LockId(1));
    let mut other = ThreadProgram::new();
    other.compute(1);
    other.lock(LockId(2), CodeSite(0xbbb0));
    other.write(ObjectTag(0), 0, CodeSite(0xbbb1));
    other.unlock(LockId(2));
    let trace = interleave_round_robin(&[racy, other]);

    let full = replay_with(&trace, KardConfig::paper());
    assert_eq!(full.reports.len(), 1, "the planted race is real");

    let floor = replay_with(&trace, narrowed(0, 42));
    assert!(floor.reports.is_empty(), "skipped objects cannot race");
    assert!(floor.production.skipped_objects > 0);
    assert_eq!(floor.production.sampled_objects, 0);
    assert_eq!(floor.production.estimated_detection_permille, 0);
}
