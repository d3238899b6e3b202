//! Production-mode overhead budgeting (ROADMAP item 4, HardRace direction).
//!
//! The paper positions Kard as cheap enough for always-on use; this module
//! supplies the missing contract for that claim: an explicit **cycle
//! overhead budget**. A [`BudgetController`] lives beside the detector and
//! splits its work across the two sides of the telemetry fabric:
//!
//! * **Decisions** happen on the fault path but cost only relaxed atomic
//!   loads: when a never-accessed object first faults (the §5.3
//!   identification point) the detector asks [`BudgetController::decide`]
//!   whether to keep monitoring it. The answer combines *deterministic
//!   sampling* (a seeded hash of the object id against the current sample
//!   target, so identical runs make identical choices) with a *hotness
//!   override* (objects whose side-metadata heat exceeds the adaptive
//!   threshold are always kept — they are where the races are). Skipped
//!   objects are retagged to the always-readable default key `k0`, so they
//!   never fault again and cost literally nothing afterwards.
//! * **Control** happens on the drain side only: [`BudgetController::tick`]
//!   integrates the fault-delay and `pkey_mprotect` cycle histograms
//!   between calls, computes the observed overhead in permille of elapsed
//!   virtual cycles, and steers — narrowing the sample target and raising
//!   the hotness threshold when over budget, backing off interleaving
//!   arming when a fault storm blows through twice the budget, and
//!   widening back toward full coverage when comfortably under. Steering
//!   acts on an **exponentially weighted moving average** of the observed
//!   overhead, not the raw per-tick delta: real detection work is bursty
//!   (identification faults cluster at allocation waves), and steering on
//!   the instantaneous value would flap between full-width and floor on
//!   every quiet drain.
//!
//! The controller continuously estimates what its throttling costs in
//! detection ([`ProductionStats::estimated_detection_permille`]): the
//! fraction of identified sharable objects that remained monitored. That
//! number is the honest companion to the overhead number — production mode
//! is a knob on a Pareto curve, not a free lunch, and
//! `kard-tables production` plots exactly that curve.
//!
//! Nothing here takes a lock and nothing here writes an event ring; the
//! `no_lock_overhead` suite holds production mode to the same zero-cost
//! contract as the other fast paths.

use crate::config::ProductionConfig;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Sample targets are expressed in permille (0–1000) so
/// [`ProductionConfig`] stays `Eq`/`Hash`-friendly (no floats) and budgets
/// round-trip exactly through JSON.
pub const PERMILLE: u32 = 1000;

/// What [`BudgetController::decide`] ruled for a newly identified object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetDecision {
    /// The object fell inside the deterministic sample: monitor it.
    Sampled,
    /// The object fell outside the sample but its side-metadata heat
    /// cleared the adaptive hotness threshold: monitor it anyway.
    Promoted,
    /// Leave the object unmonitored; the detector retags it to the
    /// default key so it never faults again.
    Skipped,
}

/// The outcome of one controller tick, for the caller to report
/// (telemetry events + the overhead histogram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetTick {
    /// Observed overhead since the previous tick, in permille of elapsed
    /// virtual cycles.
    pub observed_permille: u64,
    /// New sample target if the tick changed it.
    pub adjusted: Option<(u32, u64)>,
    /// `Some(entering)` when the tick flipped the arming backoff.
    pub backoff: Option<bool>,
}

/// Production-mode counters, exposed as [`crate::KardSnapshot::production`]
/// and serialized into `/statsz` and the bench JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProductionStats {
    /// Whether production mode ([`crate::KardConfig::production`]) was on.
    pub enabled: bool,
    /// Configured overhead budget in permille of elapsed cycles; `None`
    /// means unbounded (the controller observes but never narrows).
    pub budget_permille: Option<u32>,
    /// Current sample target in permille of newly identified objects.
    pub sample_permille: u32,
    /// Current adaptive hotness threshold (`u64::MAX` = promotions off,
    /// i.e. the controller has never needed to narrow).
    pub hot_threshold: u64,
    /// Whether interleaving arming is currently backed off.
    pub backoff: bool,
    /// Objects kept because the deterministic sample selected them.
    pub sampled_objects: u64,
    /// Objects kept because their heat cleared the hotness threshold.
    pub hot_promotions: u64,
    /// Objects left unmonitored (retagged to the default key).
    pub skipped_objects: u64,
    /// Times a tick changed the sample target or flipped the backoff.
    pub throttle_transitions: u64,
    /// Interleaving armings suppressed while backed off.
    pub armings_suppressed: u64,
    /// Smoothed (EWMA) observed overhead, permille of elapsed cycles —
    /// the value the controller steers on.
    pub overhead_permille: u64,
    /// Estimated retained detection rate in permille: the share of
    /// identified sharable objects still monitored (1000 = nothing was
    /// skipped, so detection matches full mode).
    pub estimated_detection_permille: u64,
}

/// SplitMix64 finalizer — the same deterministic mixer the synthetic
/// workload generators use. Sampling must be a pure function of
/// `(object id, seed)` so two runs of one config monitor the same objects.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The overhead-budget controller. All state is relaxed atomics: decisions
/// read two words, ticks swap a handful — no locks, no ring writes.
#[derive(Debug)]
pub struct BudgetController {
    enabled: bool,
    budget: Option<u32>,
    seed: u64,
    /// Current sample target, permille. Written only by [`Self::tick`].
    sample_target: AtomicU32,
    /// Adaptive hotness threshold; `u64::MAX` disables promotions (they
    /// are pointless while the sample is still full-width).
    hot_threshold: AtomicU64,
    /// Interleaving-arming backoff flag, read (relaxed) at arming points.
    backoff: AtomicBool,
    sampled: AtomicU64,
    promoted: AtomicU64,
    skipped: AtomicU64,
    transitions: AtomicU64,
    suppressed: AtomicU64,
    /// Sum of the heats seen at decision time, for the adaptive threshold.
    heat_sum: AtomicU64,
    last_now: AtomicU64,
    last_work: AtomicU64,
    /// EWMA of the observed overhead (permille). `u64::MAX` = no tick yet;
    /// the first tick seeds it with the raw observation.
    ewma: AtomicU64,
}

impl BudgetController {
    /// A controller for `production`. Inactive (every decision `Sampled`,
    /// every tick `None`) when it is `None`.
    #[must_use]
    pub fn new(production: Option<ProductionConfig>) -> BudgetController {
        let config = production.unwrap_or_default();
        BudgetController {
            enabled: production.is_some(),
            budget: config.overhead_budget,
            seed: config.sample_seed,
            sample_target: AtomicU32::new(config.sample_permille.min(PERMILLE)),
            hot_threshold: AtomicU64::new(u64::MAX),
            backoff: AtomicBool::new(false),
            sampled: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            heat_sum: AtomicU64::new(0),
            last_now: AtomicU64::new(0),
            last_work: AtomicU64::new(0),
            ewma: AtomicU64::new(u64::MAX),
        }
    }

    /// Whether production mode is active at all (one plain bool — the
    /// entire hot-path cost when the mode is off).
    #[inline]
    #[must_use]
    pub fn active(&self) -> bool {
        self.enabled
    }

    /// Rule on a newly identified sharable object. `heat` is the object's
    /// side-metadata hotness at decision time. Relaxed loads and counter
    /// bumps only.
    pub fn decide(&self, object: u64, heat: u64) -> BudgetDecision {
        if !self.enabled {
            return BudgetDecision::Sampled;
        }
        self.heat_sum.fetch_add(heat, Ordering::Relaxed);
        let target = self.sample_target.load(Ordering::Relaxed);
        // Full-width target short-circuits before hashing: an unbounded
        // budget must reproduce full mode decision-for-decision.
        if target >= PERMILLE || (mix(object ^ mix(self.seed)) % u64::from(PERMILLE)) < u64::from(target)
        {
            self.sampled.fetch_add(1, Ordering::Relaxed);
            return BudgetDecision::Sampled;
        }
        if heat >= self.hot_threshold.load(Ordering::Relaxed) {
            self.promoted.fetch_add(1, Ordering::Relaxed);
            return BudgetDecision::Promoted;
        }
        self.skipped.fetch_add(1, Ordering::Relaxed);
        BudgetDecision::Skipped
    }

    /// Whether interleaving arming should be suppressed right now. Counts
    /// the suppression when it says yes.
    #[inline]
    pub fn suppress_arming(&self) -> bool {
        if !self.enabled || !self.backoff.load(Ordering::Relaxed) {
            return false;
        }
        self.suppressed.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drain-side control step. `now` is the current virtual clock and
    /// `work` the cumulative detection work integral (the sums of the
    /// fault-delay and `pkey_mprotect` histograms, in cycles). Returns
    /// `None` when production mode is off or no time has elapsed.
    pub fn tick(&self, now: u64, work: u64) -> Option<BudgetTick> {
        if !self.enabled {
            return None;
        }
        let prev_now = self.last_now.swap(now, Ordering::Relaxed);
        let prev_work = self.last_work.swap(work, Ordering::Relaxed);
        let dt = now.saturating_sub(prev_now);
        if dt == 0 {
            return None;
        }
        let observed = work
            .saturating_sub(prev_work)
            .saturating_mul(u64::from(PERMILLE))
            / dt;
        // Steer on a 4:1 EWMA, not the raw delta: fault storms arrive in
        // bursts, and a single quiet drain between bursts must not undo
        // the narrowing the previous burst earned.
        let prev_ewma = self.ewma.load(Ordering::Relaxed);
        let smoothed = if prev_ewma == u64::MAX {
            observed
        } else {
            (prev_ewma.saturating_mul(3).saturating_add(observed)) / 4
        };
        self.ewma.store(smoothed, Ordering::Relaxed);
        let mut out = BudgetTick {
            observed_permille: observed,
            adjusted: None,
            backoff: None,
        };
        let Some(budget) = self.budget else {
            return Some(out); // Unbounded: observe and report, never narrow.
        };
        let budget = u64::from(budget);
        let target = self.sample_target.load(Ordering::Relaxed);
        if smoothed > budget {
            // Over budget: narrow the sample multiplicatively (floor 1 so
            // some detection always survives) and raise the hotness bar to
            // twice the average heat seen so far — only clearly hot
            // objects ride the promotion override.
            let narrowed = (target.saturating_mul(3) / 4).max(1);
            let threshold = 2u64.max(2 * self.average_heat());
            if narrowed != target || self.hot_threshold.load(Ordering::Relaxed) != threshold {
                self.sample_target.store(narrowed, Ordering::Relaxed);
                self.hot_threshold.store(threshold, Ordering::Relaxed);
                self.transitions.fetch_add(1, Ordering::Relaxed);
                out.adjusted = Some((narrowed, threshold));
            }
            if smoothed > budget.saturating_mul(2) && !self.backoff.swap(true, Ordering::Relaxed) {
                self.transitions.fetch_add(1, Ordering::Relaxed);
                out.backoff = Some(true);
            }
        } else if smoothed <= budget / 2 {
            // Comfortably under: widen back toward full coverage and lift
            // the backoff.
            let widened = (target.saturating_mul(5) / 4).saturating_add(8).min(PERMILLE);
            if widened != target {
                self.sample_target.store(widened, Ordering::Relaxed);
                self.transitions.fetch_add(1, Ordering::Relaxed);
                out.adjusted = Some((widened, self.hot_threshold.load(Ordering::Relaxed)));
            }
            if self.backoff.swap(false, Ordering::Relaxed) {
                self.transitions.fetch_add(1, Ordering::Relaxed);
                out.backoff = Some(false);
            }
        }
        Some(out)
    }

    /// Mean side-metadata heat over every decision so far (0 before the
    /// first decision).
    fn average_heat(&self) -> u64 {
        let decisions = self.sampled.load(Ordering::Relaxed)
            + self.promoted.load(Ordering::Relaxed)
            + self.skipped.load(Ordering::Relaxed);
        self.heat_sum
            .load(Ordering::Relaxed)
            .checked_div(decisions)
            .unwrap_or(0)
    }

    /// Plain-value snapshot of the controller.
    #[must_use]
    pub fn stats(&self) -> ProductionStats {
        let sampled = self.sampled.load(Ordering::Relaxed);
        let promoted = self.promoted.load(Ordering::Relaxed);
        let skipped = self.skipped.load(Ordering::Relaxed);
        let decisions = sampled + promoted + skipped;
        ProductionStats {
            enabled: self.enabled,
            budget_permille: self.budget,
            sample_permille: self.sample_target.load(Ordering::Relaxed),
            hot_threshold: self.hot_threshold.load(Ordering::Relaxed),
            backoff: self.backoff.load(Ordering::Relaxed),
            sampled_objects: sampled,
            hot_promotions: promoted,
            skipped_objects: skipped,
            throttle_transitions: self.transitions.load(Ordering::Relaxed),
            armings_suppressed: self.suppressed.load(Ordering::Relaxed),
            overhead_permille: match self.ewma.load(Ordering::Relaxed) {
                u64::MAX => 0, // No tick yet.
                e => e,
            },
            estimated_detection_permille: ((sampled + promoted) * u64::from(PERMILLE))
                .checked_div(decisions)
                .unwrap_or(u64::from(PERMILLE)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn production(budget: Option<u32>, sample: u32, seed: u64) -> BudgetController {
        BudgetController::new(Some(ProductionConfig {
            overhead_budget: budget,
            sample_permille: sample,
            sample_seed: seed,
        }))
    }

    #[test]
    fn inactive_controller_samples_everything_and_never_ticks() {
        let c = BudgetController::new(None);
        assert!(!c.active());
        for id in 0..100 {
            assert_eq!(c.decide(id, 0), BudgetDecision::Sampled);
        }
        assert_eq!(c.tick(1_000_000, 500_000), None);
        assert!(!c.suppress_arming());
        let s = c.stats();
        assert!(!s.enabled);
        assert_eq!(s.sampled_objects, 0, "inactive decisions are uncounted");
        assert_eq!(s.estimated_detection_permille, 1000);
    }

    #[test]
    fn full_width_sample_never_hashes_an_object_out() {
        let c = production(None, 1000, 7);
        for id in 0..10_000u64 {
            assert_eq!(c.decide(id * 64, id), BudgetDecision::Sampled);
        }
        let s = c.stats();
        assert_eq!(s.skipped_objects, 0);
        assert_eq!(s.estimated_detection_permille, 1000);
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_roughly_proportional() {
        let a = production(None, 250, 42);
        let b = production(None, 250, 42);
        let other = production(None, 250, 43);
        let mut kept = 0u64;
        let mut seed_diverged = false;
        for id in 0..4_000u64 {
            let da = a.decide(id * 4096, 0);
            assert_eq!(da, b.decide(id * 4096, 0), "same seed, same decision");
            if da == BudgetDecision::Sampled {
                kept += 1;
            }
            if da != other.decide(id * 4096, 0) {
                seed_diverged = true;
            }
        }
        let rate = kept as f64 / 4_000.0;
        assert!((0.2..0.3).contains(&rate), "250‰ target kept {rate}");
        assert!(seed_diverged, "a different seed samples a different set");
    }

    #[test]
    fn hot_objects_are_promoted_past_the_sample() {
        let c = production(Some(10), 0, 1);
        c.hot_threshold.store(4, Ordering::Relaxed);
        assert_eq!(c.decide(64, 9), BudgetDecision::Promoted);
        assert_eq!(c.decide(128, 1), BudgetDecision::Skipped);
        let s = c.stats();
        assert_eq!((s.hot_promotions, s.skipped_objects), (1, 1));
        assert_eq!(s.estimated_detection_permille, 500);
    }

    #[test]
    fn over_budget_narrows_and_storm_backs_off() {
        let c = production(Some(100), 1000, 0);
        // Warm the deltas: no work over 1,000 cycles seeds the EWMA at 0,
        // under budget at a target that is already full width.
        let warm = c.tick(1_000, 0).expect("time elapsed");
        assert_eq!((warm.observed_permille, warm.adjusted, warm.backoff), (0, None, None));
        // 90% observed overhead against a 10% budget: the EWMA lands at
        // 225‰ — over budget (narrow) and over twice it (backoff).
        let t = c.tick(101_000, 90_000).expect("time elapsed");
        assert!(t.observed_permille >= 900);
        let (narrowed, _) = t.adjusted.expect("narrowed");
        assert!(narrowed < 1000);
        assert_eq!(t.backoff, Some(true));
        assert!(c.suppress_arming());
        // A sustained quiet period decays the EWMA below budget/2, which
        // widens again and releases the backoff — but it takes several
        // quiet ticks, not one (that hysteresis is the point).
        let mut now = 101_000;
        let mut released = None;
        let mut quiet_ticks = 0;
        while released.is_none() && quiet_ticks < 16 {
            now += 100_000;
            quiet_ticks += 1;
            released = c.tick(now, 90_100).expect("time elapsed").backoff;
        }
        assert_eq!(released, Some(false), "quiet period lifts the backoff");
        assert!(quiet_ticks > 1, "one quiet tick must not undo a storm");
        assert!(!c.suppress_arming());
        let s = c.stats();
        assert!(s.throttle_transitions >= 3, "narrow, backoff on, backoff off");
        assert_eq!(s.armings_suppressed, 1);
    }

    #[test]
    fn single_quiet_tick_does_not_rewiden_after_a_burst() {
        let c = production(Some(50), 1000, 0);
        c.tick(1_000, 0);
        // Burst: 800‰ observed, EWMA 200‰ — narrow.
        let t = c.tick(101_000, 80_000).expect("time elapsed");
        let (narrowed, _) = t.adjusted.expect("burst narrows");
        // One quiet tick: EWMA decays to 150‰, still over the 50‰ budget,
        // so the controller keeps narrowing rather than flapping wide.
        let t = c.tick(201_000, 80_000).expect("time elapsed");
        assert_eq!(t.observed_permille, 0, "the tick itself was quiet");
        if let Some((target, _)) = t.adjusted {
            assert!(target <= narrowed, "no widening while the EWMA is hot");
        }
        assert!(c.stats().sample_permille <= narrowed);
    }

    #[test]
    fn unbounded_budget_observes_but_never_narrows() {
        let c = production(None, 1000, 0);
        c.tick(1_000, 0);
        let t = c.tick(2_000, 900).expect("time elapsed");
        assert_eq!(t.observed_permille, 900);
        assert_eq!(t.adjusted, None);
        assert_eq!(t.backoff, None);
        assert_eq!(c.stats().sample_permille, 1000);
        // Stats report the smoothed overhead: (0 * 3 + 900) / 4.
        assert_eq!(c.stats().overhead_permille, 225);
    }

    #[test]
    fn narrowing_floors_at_one_permille() {
        let c = production(Some(1), 2, 0);
        let mut now = 0u64;
        for round in 0..20 {
            now += 1_000;
            c.tick(now, round * 10_000);
        }
        assert_eq!(c.stats().sample_permille, 1, "never throttles to zero");
    }
}
