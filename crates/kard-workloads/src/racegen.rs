//! Random racy-program generation for the §3.1 ILU-share study.
//!
//! The paper manually classified 100 fixed TSan bug reports and found that
//! 69% involved inconsistent lock usage (at least one side held a lock).
//! This module generates a synthetic corpus with the same category mix and
//! verifies the classification *mechanically*: every scenario is run under
//! both FastTrack (detects all races — the TSan stand-in) and Kard
//! (detects the ILU subset), so the ILU share of the corpus can be
//! *measured* instead of assumed.

use kard_core::LockId;
use kard_sim::CodeSite;
use kard_trace::{ObjectTag, ThreadProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Lock usage category of a generated two-thread conflict (Table 1 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Both sides hold (different) locks.
    BothLockedDifferent,
    /// Only the first accessor holds a lock.
    FirstLockedOnly,
    /// Only the second accessor holds a lock.
    SecondLockedOnly,
    /// Neither side holds a lock (out of ILU scope).
    NoLocks,
}

impl Category {
    /// Whether the category is in ILU scope (Table 1).
    #[must_use]
    pub fn is_ilu(self) -> bool {
        !matches!(self, Category::NoLocks)
    }
}

/// A generated two-thread conflicting scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Category the generator drew.
    pub category: Category,
    /// The two thread programs (object tag 0 is the conflict target).
    pub programs: Vec<ThreadProgram>,
}

/// Corpus mix: fractions must sum to 1. The default reproduces the paper's
/// study: 69% of racy reports involve at least one lock.
#[derive(Clone, Copy, Debug)]
pub struct CorpusMix {
    /// Fraction of both-locked scenarios.
    pub both_locked: f64,
    /// Fraction with exactly one side locked.
    pub one_locked: f64,
    /// Fraction with no locks.
    pub no_locks: f64,
}

impl Default for CorpusMix {
    fn default() -> Self {
        // 30% + 39% = 69% ILU, 31% lock-free, matching §3.1.
        CorpusMix {
            both_locked: 0.30,
            one_locked: 0.39,
            no_locks: 0.31,
        }
    }
}

/// Generate a corpus of `n` conflicting scenarios with the given mix.
#[must_use]
pub fn generate_corpus(n: usize, mix: &CorpusMix, seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let draw: f64 = rng.gen();
            let category = if draw < mix.both_locked {
                Category::BothLockedDifferent
            } else if draw < mix.both_locked + mix.one_locked {
                if rng.gen() {
                    Category::FirstLockedOnly
                } else {
                    Category::SecondLockedOnly
                }
            } else {
                Category::NoLocks
            };
            scenario(category, i as u64, rng.gen_range(0..4))
        })
        .collect()
}

/// Build one scenario of the given category for the round-robin schedule.
///
/// The *locked* side always accesses first, so Kard's progressive
/// identification has assigned a key (held by that side) by the time the
/// conflicting access arrives — the schedule shape in which ILU races
/// manifest. `Op::Compute` no-ops pad the conflicting thread so that the
/// round-robin interleaver lands its access inside the holder's critical
/// section. The conflicting access is a write when `variant % 2 == 0`,
/// otherwise a read (conflicting with the holder's writes either way).
#[must_use]
pub fn scenario(category: Category, id: u64, variant: u64) -> Scenario {
    const TARGET: ObjectTag = ObjectTag(0);
    let base_site = 0x1_0000 + id * 0x100;
    let second_writes = variant.is_multiple_of(2);

    let mut first = ThreadProgram::new();
    let mut second = ThreadProgram::new();
    match category {
        Category::BothLockedDifferent | Category::FirstLockedOnly => {
            // Thread 0: allocate, then write under lock 1 (or unlocked it
            // would be another category). Thread 1 conflicts mid-section.
            first.alloc(TARGET, 64);
            first.lock(LockId(1), CodeSite(base_site));
            first.write(TARGET, 0, CodeSite(base_site + 1));
            first.write(TARGET, 0, CodeSite(base_site + 2));
            first.compute(50);
            first.unlock(LockId(1));

            second.compute(1); // Skip past the alloc...
            if category == Category::BothLockedDifferent {
                second.lock(LockId(2), CodeSite(base_site + 0x10));
            } else {
                second.compute(1); // ...and past the holder's lock.
            }
            second.compute(1); // ...and past the holder's first write.
            if second_writes {
                second.write(TARGET, 0, CodeSite(base_site + 0x11));
            } else {
                second.read(TARGET, 0, CodeSite(base_site + 0x11));
            }
            if category == Category::BothLockedDifferent {
                second.unlock(LockId(2));
            }
        }
        Category::SecondLockedOnly => {
            // Thread 1 holds the lock and writes; thread 0's unlocked
            // conflicting access lands inside that section.
            first.alloc(TARGET, 64);
            first.compute(1);
            first.compute(1);
            if second_writes {
                first.write(TARGET, 0, CodeSite(base_site + 0x11));
            } else {
                first.read(TARGET, 0, CodeSite(base_site + 0x11));
            }

            second.lock(LockId(2), CodeSite(base_site + 0x10));
            second.write(TARGET, 0, CodeSite(base_site + 1));
            second.write(TARGET, 0, CodeSite(base_site + 2));
            second.compute(50);
            second.unlock(LockId(2));
        }
        Category::NoLocks => {
            first.alloc(TARGET, 64);
            first.write(TARGET, 0, CodeSite(base_site + 1));
            first.write(TARGET, 0, CodeSite(base_site + 2));
            if second_writes {
                second.write(TARGET, 0, CodeSite(base_site + 0x11));
            } else {
                second.read(TARGET, 0, CodeSite(base_site + 0x11));
            }
        }
    }

    Scenario {
        category,
        programs: vec![first, second],
    }
}

/// Result of classifying a corpus with both detectors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusReport {
    /// Scenarios generated.
    pub total: usize,
    /// Scenarios in which FastTrack (the TSan stand-in) found the race.
    pub tsan_detected: usize,
    /// Scenarios in which Kard found the race.
    pub kard_detected: usize,
    /// Scenarios whose category is ILU by construction.
    pub ilu_by_construction: usize,
}

impl CorpusReport {
    /// Fraction of TSan-detected races that Kard (ILU) also detects — the
    /// measured counterpart of the paper's 69% figure.
    #[must_use]
    pub fn ilu_share(&self) -> f64 {
        if self.tsan_detected == 0 {
            0.0
        } else {
            self.kard_detected as f64 / self.tsan_detected as f64
        }
    }
}

/// Run every scenario under FastTrack and Kard (round-robin schedule) and
/// tally detections.
#[must_use]
pub fn classify_corpus(corpus: &[Scenario]) -> CorpusReport {
    use kard_baselines::FastTrack;
    use kard_rt::{KardExecutor, Session};
    use kard_trace::replay::replay;
    use kard_trace::schedule::interleave_round_robin;

    let mut report = CorpusReport {
        total: corpus.len(),
        ..CorpusReport::default()
    };
    for s in corpus {
        let trace = interleave_round_robin(&s.programs);
        let mut ft = FastTrack::new();
        replay(&trace, &mut ft);
        if !ft.races().is_empty() {
            report.tsan_detected += 1;
        }
        let session = Session::new();
        let mut kard = KardExecutor::new(session.kard().clone());
        replay(&trace, &mut kard);
        if !kard.reports().is_empty() {
            report.kard_detected += 1;
        }
        if s.category.is_ilu() {
            report.ilu_by_construction += 1;
        }
    }
    report
}

/// `scenario` with every allocation hoisted into a phased init, the form
/// [`detection_probability`] replays under seeded schedules.
#[must_use]
pub fn phased(scenario: &Scenario) -> kard_trace::PhasedProgram {
    // Random schedules may otherwise run an access before the owning
    // thread's allocation: hoist allocations into a phased init, which is
    // the spawn ordering every real program has.
    let mut init = ThreadProgram::new();
    let threads: Vec<ThreadProgram> = scenario
        .programs
        .iter()
        .map(|p| {
            let mut stripped = ThreadProgram::new();
            for &op in p.ops() {
                if matches!(op, kard_trace::Op::Alloc { .. } | kard_trace::Op::Global { .. }) {
                    init.push(op);
                } else {
                    stripped.push(op);
                }
            }
            stripped
        })
        .collect();
    kard_trace::PhasedProgram { init, threads }
}

/// Detection probability of one scenario across `seeds.len()` seeded
/// schedules — the multiple-runs methodology the paper invokes for
/// schedule-sensitive detection (§5.5, §7.3).
#[must_use]
pub fn detection_probability(scenario: &Scenario, seeds: &[u64]) -> f64 {
    use kard_rt::{KardExecutor, Session};
    use kard_trace::replay::replay;

    if seeds.is_empty() {
        return 0.0;
    }
    let program = phased(scenario);
    let detected = seeds
        .iter()
        .filter(|&&seed| {
            let trace = program.trace_seeded(seed);
            let session = Session::new();
            let mut exec = KardExecutor::new(session.kard().clone());
            replay(&trace, &mut exec);
            !exec.reports().is_empty()
        })
        .count();
    detected as f64 / seeds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_classify_ilu() {
        assert!(Category::BothLockedDifferent.is_ilu());
        assert!(Category::FirstLockedOnly.is_ilu());
        assert!(Category::SecondLockedOnly.is_ilu());
        assert!(!Category::NoLocks.is_ilu());
    }

    #[test]
    fn kard_detects_exactly_the_ilu_scenarios() {
        for (category, expect_kard) in [
            (Category::BothLockedDifferent, true),
            (Category::FirstLockedOnly, true),
            (Category::SecondLockedOnly, true),
            (Category::NoLocks, false),
        ] {
            for variant in 0..2 {
                let s = scenario(category, 7, variant);
                let report = classify_corpus(std::slice::from_ref(&s));
                assert_eq!(
                    report.kard_detected == 1,
                    expect_kard,
                    "{category:?} variant {variant}"
                );
                assert_eq!(report.tsan_detected, 1, "{category:?} is always a race");
            }
        }
    }

    #[test]
    fn default_mix_yields_roughly_69_percent() {
        let corpus = generate_corpus(300, &CorpusMix::default(), 11);
        let report = classify_corpus(&corpus);
        assert_eq!(report.total, 300);
        assert_eq!(report.tsan_detected, 300, "every scenario races");
        let share = report.ilu_share();
        assert!(
            (0.60..0.78).contains(&share),
            "ILU share {share:.2} should be near 0.69"
        );
        // Kard's detections coincide with the constructed ILU categories.
        assert_eq!(report.kard_detected, report.ilu_by_construction);
    }

    #[test]
    fn detection_probability_is_schedule_sensitive() {
        let seeds: Vec<u64> = (0..40).collect();
        // An ILU scenario is detected under many but not all schedules
        // (the overlap must manifest, §3.1).
        let ilu = scenario(Category::BothLockedDifferent, 3, 0);
        let p_ilu = detection_probability(&ilu, &seeds);
        assert!(p_ilu > 0.2, "ILU races detected under many schedules: {p_ilu}");
        // A no-lock scenario is never detected, under any schedule.
        let none = scenario(Category::NoLocks, 3, 0);
        assert_eq!(detection_probability(&none, &seeds), 0.0);
        // Empty seed list degenerates to zero.
        assert_eq!(detection_probability(&ilu, &[]), 0.0);
    }

    #[test]
    fn corpus_generation_is_deterministic() {
        let a = generate_corpus(50, &CorpusMix::default(), 3);
        let b = generate_corpus(50, &CorpusMix::default(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.category, y.category);
        }
    }
}
