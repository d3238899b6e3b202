//! Detector configuration, including the ablation switches DESIGN.md lists.
//!
//! `docs/TUNING.md` in the repository root is the one-page operator guide:
//! per knob, what it changes, which benchmark validates it, and how to
//! pick a value.

use crate::vkey::KeyCachePolicy;

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

/// Where the keys of Read-write objects come from (§5.4). The two modes
/// carry disjoint settings, so a cache policy without virtualization, or
/// an exhaustion policy with it, cannot be written down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyMode {
    /// The paper's policy, directly on the hardware pool keys.
    Direct {
        /// What happens when every pool key is assigned.
        exhaustion: ExhaustionPolicy,
        /// Skip assignment rule 1 (held-key reuse) while fresh keys
        /// remain, giving each object its own key. Pointless on 16-key
        /// MPK (it just exhausts the pool faster) but, combined with a
        /// large key layout, it makes the detector key-per-object — the
        /// granularity of the pure Algorithm 1 — which the conformance
        /// property tests rely on.
        fresh_key_per_object: bool,
    },
    /// Virtualized keys (see [`crate::vkey`]): every shared-object group
    /// gets its own unbounded virtual key and the 13 hardware pool keys
    /// run as an eviction cache over them under the given replacement
    /// policy. Removes the 13-group ceiling (and the §7.3 sharing
    /// false-negative exposure) at the cost of eviction traffic under key
    /// pressure; with at most 13 live groups it is behaviourally
    /// identical to [`KeyMode::Direct`].
    Virtual(KeyCachePolicy),
}

/// Production-mode settings ([`crate::budget`]); present only when the
/// mode is on ([`KardConfig::production`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProductionConfig {
    /// Cycle-overhead budget in permille of elapsed virtual cycles (e.g.
    /// `Some(50)` = stay under 5% overhead). `None` leaves the budget
    /// unbounded: the controller observes and reports overhead but never
    /// narrows protection, so detection is identical to full mode.
    pub overhead_budget: Option<u32>,
    /// Initial sample target: the permille of newly identified sharable
    /// objects to keep monitoring (1000 = all). The controller adjusts it
    /// at runtime when a budget is set; with no budget it stays fixed,
    /// giving a plain static-sampling mode.
    pub sample_permille: u32,
    /// Seed of the deterministic sampling hash. Two runs with the same
    /// seed (and config) monitor the same objects; vary it across
    /// production deployments so different hosts cover different samples.
    pub sample_seed: u64,
}

impl Default for ProductionConfig {
    /// Observe only: no budget, full-width sample, seed 0.
    fn default() -> Self {
        ProductionConfig {
            overhead_budget: None,
            sample_permille: 1000,
            sample_seed: 0,
        }
    }
}

/// Configuration of the [`crate::Kard`] detector. Start from a preset and
/// name what differs with struct-update syntax
/// (`KardConfig { keys: .., ..KardConfig::paper() }`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KardConfig {
    /// Acquire the keys of a section's known objects at entry (§5.4,
    /// "proactive key acquisition"). Disabling it forces a fault per first
    /// access in every section execution (ablation).
    pub proactive_acquisition: bool,
    /// Run the protection-interleaving false-positive filter (§5.5).
    pub protection_interleaving: bool,
    /// Apply the release-timestamp filter: treat a key released after the
    /// fault was raised, inside the handler's delay, as still held (§5.5).
    pub timestamp_filter: bool,
    /// Key assignment: direct (the paper) or virtualized.
    pub keys: KeyMode,
    /// Production mode ([`crate::budget`]): `Some` runs the
    /// overhead-budget controller — newly identified sharable objects are
    /// sampled/skipped per its current policy and
    /// [`crate::KardSnapshot::production`] reports the estimated
    /// detection-rate cost. `None` — the paper's detector monitors
    /// everything.
    pub production: Option<ProductionConfig>,
}

impl KardConfig {
    /// The paper's configuration: everything on.
    #[must_use]
    pub fn paper() -> KardConfig {
        KardConfig {
            proactive_acquisition: true,
            protection_interleaving: true,
            timestamp_filter: true,
            keys: KeyMode::Direct {
                exhaustion: ExhaustionPolicy::RecycleThenShare,
                fresh_key_per_object: false,
            },
            production: None,
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
            protection_interleaving: false,
            timestamp_filter: false,
            keys: KeyMode::Direct {
                exhaustion: ExhaustionPolicy::RecycleThenShare,
                fresh_key_per_object: true,
            },
            ..KardConfig::paper()
        }
    }

    /// A human-readable description of the active key mode, printed by the
    /// report tables and examples so experiment output states which policy
    /// produced it. `pool` is the hardware read-write pool size.
    #[must_use]
    pub fn key_mode_description(&self, pool: usize) -> String {
        match self.keys {
            KeyMode::Virtual(policy) => format!(
                "virtualized ({pool}-key {policy} cache over unbounded virtual keys)",
                policy = match policy {
                    KeyCachePolicy::Lru => "LRU",
                    KeyCachePolicy::Hotness => "hotness",
                }
            ),
            KeyMode::Direct { exhaustion, .. } => {
                let exhaustion = match exhaustion {
                    ExhaustionPolicy::RecycleThenShare => "recycle-then-share",
                    ExhaustionPolicy::ShareOnly => "share-only",
                };
                format!("direct ({pool} hardware keys, {exhaustion})")
            }
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

    const PAPER_KEYS: KeyMode = KeyMode::Direct {
        exhaustion: ExhaustionPolicy::RecycleThenShare,
        fresh_key_per_object: false,
    };

    #[test]
    fn default_is_paper_config() {
        let c = KardConfig::default();
        assert_eq!(c, KardConfig::paper());
        assert!(c.proactive_acquisition);
        assert!(c.protection_interleaving);
        assert!(c.timestamp_filter);
        assert_eq!(c.keys, PAPER_KEYS, "the paper's detector works on raw keys");
        assert_eq!(c.production, None, "the paper's detector monitors everything");
        let p = ProductionConfig::default();
        assert_eq!(p.overhead_budget, None, "no budget until asked for one");
        assert_eq!(p.sample_permille, 1000, "full-width sample by default");
        assert_eq!(p.sample_seed, 0);
    }

    #[test]
    fn struct_update_composes_over_presets() {
        let c = KardConfig {
            keys: KeyMode::Virtual(KeyCachePolicy::Hotness),
            timestamp_filter: false,
            production: Some(ProductionConfig {
                overhead_budget: Some(50),
                sample_permille: 250,
                ..ProductionConfig::default()
            }),
            ..KardConfig::paper()
        };
        assert_eq!(c.keys, KeyMode::Virtual(KeyCachePolicy::Hotness));
        let p = c.production.expect("production mode is on");
        assert_eq!((p.overhead_budget, p.sample_permille, p.sample_seed), (Some(50), 250, 0));
        assert!(!c.timestamp_filter);
        assert!(c.proactive_acquisition, "untouched fields keep the preset");
    }

    #[test]
    fn key_mode_descriptions_name_the_policy() {
        let mut c = KardConfig::paper();
        assert_eq!(c.key_mode_description(13), "direct (13 hardware keys, recycle-then-share)");
        c.keys = KeyMode::Direct {
            exhaustion: ExhaustionPolicy::ShareOnly,
            fresh_key_per_object: false,
        };
        assert_eq!(c.key_mode_description(13), "direct (13 hardware keys, share-only)");
        c.keys = KeyMode::Virtual(KeyCachePolicy::Lru);
        assert_eq!(
            c.key_mode_description(13),
            "virtualized (13-key LRU cache over unbounded virtual keys)"
        );
        c.keys = KeyMode::Virtual(KeyCachePolicy::Hotness);
        assert!(c.key_mode_description(13).contains("hotness"));
    }

    #[test]
    fn fidelity_config_matches_algorithm_one() {
        let c = KardConfig::algorithm_fidelity();
        assert!(c.proactive_acquisition, "Algorithm 1 line 4 is proactive");
        assert!(!c.protection_interleaving);
        assert!(!c.timestamp_filter);
        assert_eq!(
            c.keys,
            KeyMode::Direct {
                exhaustion: ExhaustionPolicy::RecycleThenShare,
                fresh_key_per_object: true,
            }
        );
    }
}
