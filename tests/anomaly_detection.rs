//! Property-based tests for the drain-side anomaly analyzer
//! (`kard_telemetry::analyze`), driving [`Analyzer::ingest`] with
//! synthetic window streams:
//!
//! 1. **Quiet streams are silent**: any stream whose per-window values
//!    stay within the CUSUM slack of a stable level never raises a
//!    signal, for any level and any bounded noise shape.
//! 2. **A step change fires exactly once per metric**: a stable stream
//!    followed by a large sustained level shift raises exactly one
//!    signal on every metric — the fire adopts the new level, so a
//!    persistent regression alarms once, not forever.
//! 3. **Signals carry the evidence**: value, judged baseline, and an
//!    at-threshold score, with the window index pointing into the run.
//!
//! The end-to-end versions of these properties (real workloads through
//! a real session) live in `kard-bench`'s `extensions::anomaly` tests and
//! the firehose integration tests; these stay at the reduced
//! [`WindowSample`] level so proptest can sweep levels and noise shapes
//! cheaply.

use kard::telemetry::{Analyzer, AnalyzerConfig, MetricKind, WindowSample};
use proptest::prelude::*;

/// A flat sample: every metric carries `value` this window.
fn flat(value: u64, window: u64) -> WindowSample {
    WindowSample {
        now: window * 1_000_000,
        values: [value; MetricKind::COUNT],
        suspects: [None; MetricKind::COUNT],
    }
}

proptest! {
    /// Noise within ±15% of a stable level never signals: the worst-case
    /// relative excess against the EWMA-tracked baseline stays below the
    /// default 500‰ slack, so the CUSUM never accumulates at all.
    #[test]
    fn quiet_stream_raises_no_signals(
        level in 100u64..100_000,
        noise in prop::collection::vec(0u64..301, 20..60),
    ) {
        let analyzer = Analyzer::default();
        for (w, n) in noise.iter().enumerate() {
            // value ∈ [0.85 × level, 1.15 × level]
            let value = level * (850 + n) / 1000;
            let fired = analyzer.ingest(flat(value, w as u64 + 1));
            prop_assert!(
                fired.is_empty(),
                "window {w} (value {value}, level {level}) fired: {fired:?}"
            );
        }
        let stats = analyzer.stats();
        prop_assert_eq!(stats.signals, 0);
        prop_assert_eq!(stats.windows, noise.len() as u64);
    }

    /// A sustained ≥6× step fires exactly one signal per metric — on the
    /// first regressed window (excess ≥ 5000‰ clears the 4000‰ threshold
    /// in one step) — and the adopted baseline keeps the alarm from
    /// repeating for as long as the new level persists.
    #[test]
    fn step_change_fires_exactly_once_per_metric(
        level in 100u64..10_000,
        factor in 6u64..20,
        pre in 5usize..12,
        post in 5usize..20,
    ) {
        let analyzer = Analyzer::default();
        let warmup = AnalyzerConfig::default().warmup_windows as usize;
        for w in 0..warmup + pre {
            let fired = analyzer.ingest(flat(level, w as u64 + 1));
            prop_assert!(fired.is_empty(), "pre-step window {w} fired");
        }
        let stepped = level * factor;
        let mut per_metric = [0usize; MetricKind::COUNT];
        for w in 0..post {
            let window = (warmup + pre + w) as u64 + 1;
            for signal in analyzer.ingest(flat(stepped, window)) {
                per_metric[signal.metric as usize] += 1;
                prop_assert_eq!(signal.value, stepped);
                prop_assert_eq!(signal.baseline, level.max(8), "judged against the pre-step level");
                prop_assert!(signal.score >= 4_000, "fired at threshold");
                prop_assert_eq!(signal.window, window);
                prop_assert!(signal.suspected_session.is_none());
            }
        }
        for kind in MetricKind::ALL {
            prop_assert_eq!(
                per_metric[kind as usize],
                1,
                "{} must fire exactly once across the step",
                kind.name()
            );
        }
        let stats = analyzer.stats();
        prop_assert_eq!(stats.signals, MetricKind::COUNT as u64);
        for m in stats.metrics {
            prop_assert_eq!(m.baseline, stepped, "the new level was adopted");
            prop_assert_eq!(m.cusum_permille, 0, "the accumulator reset on fire");
        }
    }

    /// Dropping *back* to the old level after a step never signals: the
    /// detectors are one-sided (regressions are things going up — rates,
    /// latencies, pressure), so recovery is silent.
    #[test]
    fn recovery_after_a_step_is_silent(
        level in 100u64..10_000,
        factor in 6u64..20,
    ) {
        let analyzer = Analyzer::default();
        let mut window = 0u64;
        let mut feed = |value: u64, n: usize, analyzer: &Analyzer| {
            let mut fired = 0;
            for _ in 0..n {
                window += 1;
                fired += analyzer.ingest(flat(value, window)).len();
            }
            fired
        };
        feed(level, 10, &analyzer);
        let on_step = feed(level * factor, 5, &analyzer);
        prop_assert_eq!(on_step, MetricKind::COUNT, "the step fires once per metric");
        let on_recovery = feed(level, 10, &analyzer);
        prop_assert_eq!(on_recovery, 0, "recovery must not alarm");
    }
}
