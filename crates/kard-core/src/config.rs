//! Detector configuration, including the ablation switches DESIGN.md lists.
//!
//! `docs/TUNING.md` in the repository root is the one-page operator guide:
//! per knob, what it changes, which benchmark validates it, and how to
//! pick a value.

use crate::vkey::KeyCachePolicy;
use kard_telemetry::AnalyzerConfig;

/// Behaviour of the key-assignment policy when every read-write pool key is
/// already assigned (§5.4, rule three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustionPolicy {
    /// Prefer recycling an assigned-but-unheld key, falling back to sharing
    /// only when every key is currently held. This is Kard's default;
    /// recycling preserves accuracy while sharing can cause false negatives
    /// (§5.4, §7.3).
    RecycleThenShare,
    /// Always share immediately (ablation: quantifies the false-negative
    /// exposure the recycling preference avoids).
    ShareOnly,
}

/// Configuration of the [`crate::Kard`] detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KardConfig {
    /// Acquire the keys of a section's known objects at entry (§5.4,
    /// "proactive key acquisition"). Disabling it forces a fault per first
    /// access in every section execution (ablation).
    pub proactive_acquisition: bool,
    /// Run the protection-interleaving false-positive filter (§5.5).
    pub protection_interleaving: bool,
    /// Apply the release-timestamp filter: treat a key released less than
    /// one fault-handling delay before the fault as still held (§5.5).
    pub timestamp_filter: bool,
    /// Key-pool exhaustion policy (§5.4).
    pub exhaustion: ExhaustionPolicy,
    /// Delay injection (§5.5): when a thread with an *armed* protection
    /// interleaving exits its critical section, stall the exit by this
    /// many cycles (and yield the CPU on real threads) so the conflicting
    /// thread gets a chance to fault and the offset test can run. Zero
    /// disables the mitigation; the paper lists it as optional, which is
    /// why pigz's tiny sections still produce one false positive.
    pub interleave_exit_delay: u64,
    /// Skip assignment rule 1 (held-key reuse) while fresh keys remain,
    /// giving each object its own key. Pointless on 16-key MPK (it just
    /// exhausts the pool faster) but, combined with a large key layout,
    /// it makes the detector key-per-object — the granularity of the pure
    /// Algorithm 1 — which the conformance property tests rely on.
    pub prefer_fresh_keys: bool,
    /// Measured average fault-handling delay in cycles, used by the
    /// release-timestamp filter (§5.5) in place of the cost model's
    /// *assumed* delay. The paper derives its 24,000-cycle threshold from
    /// measurement on the evaluation machine; `kard-tables faultlatency`
    /// prints the equivalent number for this reproduction to feed back
    /// here. `None` falls back to `CostModel::fault_handling`.
    pub measured_fault_delay: Option<u64>,
    /// Virtualize protection keys (see [`crate::vkey`]): give every
    /// shared-object group its own unbounded virtual key and run the 13
    /// hardware pool keys as an eviction cache over them. Off by default —
    /// the paper's §5.4 policy works directly on hardware keys; turning
    /// this on removes the 13-group ceiling (and the §7.3 sharing
    /// false-negative exposure) at the cost of eviction traffic under key
    /// pressure. With at most 13 live groups the virtualized detector is
    /// behaviourally identical to the direct one.
    pub virtual_keys: bool,
    /// Replacement policy of the hardware-key cache; only consulted when
    /// [`KardConfig::virtual_keys`] is on.
    pub key_cache_policy: KeyCachePolicy,
    /// Production mode ([`crate::budget`]): run the overhead-budget
    /// controller. When on, newly identified sharable objects are
    /// sampled/skipped per the controller's current policy and
    /// [`crate::KardSnapshot::production`] reports the estimated
    /// detection-rate cost. Off by default — the paper's detector
    /// monitors everything.
    pub production: bool,
    /// Cycle-overhead budget for production mode, in permille of elapsed
    /// virtual cycles (e.g. `Some(50)` = stay under 5% overhead). `None`
    /// leaves the budget unbounded: the controller observes and reports
    /// overhead but never narrows protection, so detection is identical
    /// to full mode. Ignored unless [`KardConfig::production`] is on.
    pub overhead_budget: Option<u32>,
    /// Initial sample target for production mode: the permille of newly
    /// identified sharable objects to keep monitoring (1000 = all). The
    /// controller adjusts it at runtime when a budget is set; with no
    /// budget it stays fixed, giving a plain static-sampling mode.
    pub sample_permille: u32,
    /// Seed of the deterministic sampling hash. Two runs with the same
    /// seed (and config) monitor the same objects; vary it across
    /// production deployments so different hosts cover different samples.
    pub sample_seed: u64,
    /// Run the drain-side anomaly analyzer ([`kard_telemetry::analyze`]):
    /// CUSUM + EWMA detectors over per-drain aggregates that learn the
    /// workload's baselines and emit [`kard_telemetry::AnomalySignal`]s
    /// into [`crate::KardSnapshot::anomaly`]. On by default — the
    /// analyzer is a pure telemetry consumer with zero recording-path
    /// cost (`tests/no_lock_overhead.rs`), so it is cheap enough to
    /// leave on; it only does work when drains happen.
    pub anomaly_detection: bool,
    /// Sensitivity knobs of the anomaly analyzer (warmup, EWMA weight,
    /// CUSUM slack/threshold). See docs/TUNING.md.
    pub anomaly: AnalyzerConfig,
}

impl KardConfig {
    /// The paper's configuration: everything on.
    #[must_use]
    pub fn paper() -> KardConfig {
        KardConfig {
            proactive_acquisition: true,
            protection_interleaving: true,
            timestamp_filter: true,
            exhaustion: ExhaustionPolicy::RecycleThenShare,
            interleave_exit_delay: 0,
            prefer_fresh_keys: false,
            measured_fault_delay: None,
            virtual_keys: false,
            key_cache_policy: KeyCachePolicy::Lru,
            production: false,
            overhead_budget: None,
            sample_permille: 1000,
            sample_seed: 0,
            anomaly_detection: true,
            anomaly: AnalyzerConfig::default(),
        }
    }

    /// A configuration that makes the detector behave as closely as the
    /// hardware realization allows to the pure Algorithm 1: one key per
    /// object (requires a large key layout), proactive acquisition (the
    /// algorithm's line 4 is proactive), and no fault filtering beyond
    /// redundancy pruning.
    #[must_use]
    pub fn algorithm_fidelity() -> KardConfig {
        KardConfig {
            proactive_acquisition: true,
            protection_interleaving: false,
            timestamp_filter: false,
            exhaustion: ExhaustionPolicy::RecycleThenShare,
            interleave_exit_delay: 0,
            prefer_fresh_keys: true,
            measured_fault_delay: None,
            virtual_keys: false,
            key_cache_policy: KeyCachePolicy::Lru,
            production: false,
            overhead_budget: None,
            sample_permille: 1000,
            sample_seed: 0,
            anomaly_detection: true,
            anomaly: AnalyzerConfig::default(),
        }
    }

    /// Builder-style setter for [`KardConfig::proactive_acquisition`].
    #[must_use]
    pub fn proactive_acquisition(mut self, on: bool) -> KardConfig {
        self.proactive_acquisition = on;
        self
    }

    /// Builder-style setter for [`KardConfig::protection_interleaving`].
    #[must_use]
    pub fn protection_interleaving(mut self, on: bool) -> KardConfig {
        self.protection_interleaving = on;
        self
    }

    /// Builder-style setter for [`KardConfig::timestamp_filter`].
    #[must_use]
    pub fn timestamp_filter(mut self, on: bool) -> KardConfig {
        self.timestamp_filter = on;
        self
    }

    /// Builder-style setter for [`KardConfig::exhaustion`].
    #[must_use]
    pub fn exhaustion(mut self, policy: ExhaustionPolicy) -> KardConfig {
        self.exhaustion = policy;
        self
    }

    /// Builder-style setter for [`KardConfig::interleave_exit_delay`].
    #[must_use]
    pub fn interleave_exit_delay(mut self, cycles: u64) -> KardConfig {
        self.interleave_exit_delay = cycles;
        self
    }

    /// Builder-style setter for [`KardConfig::prefer_fresh_keys`].
    #[must_use]
    pub fn prefer_fresh_keys(mut self, on: bool) -> KardConfig {
        self.prefer_fresh_keys = on;
        self
    }

    /// Builder-style setter for [`KardConfig::measured_fault_delay`].
    #[must_use]
    pub fn measured_fault_delay(mut self, cycles: Option<u64>) -> KardConfig {
        self.measured_fault_delay = cycles;
        self
    }

    /// Builder-style setter for [`KardConfig::virtual_keys`].
    #[must_use]
    pub fn virtual_keys(mut self, on: bool) -> KardConfig {
        self.virtual_keys = on;
        self
    }

    /// Builder-style setter for [`KardConfig::key_cache_policy`].
    #[must_use]
    pub fn key_cache_policy(mut self, policy: KeyCachePolicy) -> KardConfig {
        self.key_cache_policy = policy;
        self
    }

    /// Builder-style setter for [`KardConfig::production`].
    #[must_use]
    pub fn production(mut self, on: bool) -> KardConfig {
        self.production = on;
        self
    }

    /// Builder-style setter for [`KardConfig::overhead_budget`].
    #[must_use]
    pub fn overhead_budget(mut self, permille: Option<u32>) -> KardConfig {
        self.overhead_budget = permille;
        self
    }

    /// Builder-style setter for [`KardConfig::sample_permille`].
    #[must_use]
    pub fn sample_permille(mut self, permille: u32) -> KardConfig {
        self.sample_permille = permille;
        self
    }

    /// Builder-style setter for [`KardConfig::sample_seed`].
    #[must_use]
    pub fn sample_seed(mut self, seed: u64) -> KardConfig {
        self.sample_seed = seed;
        self
    }

    /// Builder-style setter for [`KardConfig::anomaly_detection`].
    #[must_use]
    pub fn anomaly_detection(mut self, on: bool) -> KardConfig {
        self.anomaly_detection = on;
        self
    }

    /// Builder-style setter for [`KardConfig::anomaly`].
    #[must_use]
    pub fn anomaly(mut self, knobs: AnalyzerConfig) -> KardConfig {
        self.anomaly = knobs;
        self
    }

    /// A human-readable description of the active key mode, printed by the
    /// report tables and examples so experiment output states which policy
    /// produced it. `pool` is the hardware read-write pool size.
    #[must_use]
    pub fn key_mode_description(&self, pool: usize) -> String {
        if self.virtual_keys {
            format!(
                "virtualized ({pool}-key {policy} cache over unbounded virtual keys)",
                policy = match self.key_cache_policy {
                    KeyCachePolicy::Lru => "LRU",
                    KeyCachePolicy::Hotness => "hotness",
                }
            )
        } else {
            let exhaustion = match self.exhaustion {
                ExhaustionPolicy::RecycleThenShare => "recycle-then-share",
                ExhaustionPolicy::ShareOnly => "share-only",
            };
            format!("direct ({pool} hardware keys, {exhaustion})")
        }
    }
}

impl Default for KardConfig {
    fn default() -> Self {
        KardConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_config() {
        let c = KardConfig::default();
        assert!(c.proactive_acquisition);
        assert!(c.protection_interleaving);
        assert!(c.timestamp_filter);
        assert_eq!(c.exhaustion, ExhaustionPolicy::RecycleThenShare);
        assert!(!c.prefer_fresh_keys);
        assert_eq!(c.interleave_exit_delay, 0, "delay injection is opt-in");
        assert_eq!(c.measured_fault_delay, None, "cost-model delay by default");
        assert!(!c.virtual_keys, "the paper's detector works on raw keys");
        assert_eq!(c.key_cache_policy, KeyCachePolicy::Lru);
        assert!(!c.production, "the paper's detector monitors everything");
        assert_eq!(c.overhead_budget, None, "no budget until asked for one");
        assert_eq!(c.sample_permille, 1000, "full-width sample by default");
        assert_eq!(c.sample_seed, 0);
        assert!(c.anomaly_detection, "the analyzer is cheap enough to leave on");
        assert_eq!(c.anomaly, AnalyzerConfig::default());
    }

    #[test]
    fn builder_setters_compose_over_presets() {
        let c = KardConfig::paper()
            .virtual_keys(true)
            .key_cache_policy(KeyCachePolicy::Hotness)
            .interleave_exit_delay(500)
            .measured_fault_delay(Some(24_000))
            .exhaustion(ExhaustionPolicy::ShareOnly)
            .timestamp_filter(false)
            .production(true)
            .overhead_budget(Some(50))
            .sample_permille(250)
            .sample_seed(0xfeed);
        assert!(c.virtual_keys);
        assert!(c.production);
        assert_eq!(c.overhead_budget, Some(50));
        assert_eq!(c.sample_permille, 250);
        assert_eq!(c.sample_seed, 0xfeed);
        assert_eq!(c.key_cache_policy, KeyCachePolicy::Hotness);
        assert_eq!(c.interleave_exit_delay, 500);
        assert_eq!(c.measured_fault_delay, Some(24_000));
        assert_eq!(c.exhaustion, ExhaustionPolicy::ShareOnly);
        assert!(!c.timestamp_filter);
        assert!(c.proactive_acquisition, "untouched fields keep the preset");
    }

    #[test]
    fn key_mode_descriptions_name_the_policy() {
        let mut c = KardConfig::paper();
        assert_eq!(c.key_mode_description(13), "direct (13 hardware keys, recycle-then-share)");
        c.exhaustion = ExhaustionPolicy::ShareOnly;
        assert_eq!(c.key_mode_description(13), "direct (13 hardware keys, share-only)");
        c.virtual_keys = true;
        assert_eq!(
            c.key_mode_description(13),
            "virtualized (13-key LRU cache over unbounded virtual keys)"
        );
        c.key_cache_policy = KeyCachePolicy::Hotness;
        assert!(c.key_mode_description(13).contains("hotness"));
    }

    #[test]
    fn fidelity_config_matches_algorithm_one() {
        let c = KardConfig::algorithm_fidelity();
        assert!(c.proactive_acquisition, "Algorithm 1 line 4 is proactive");
        assert!(!c.protection_interleaving);
        assert!(!c.timestamp_filter);
        assert!(c.prefer_fresh_keys);
    }
}
