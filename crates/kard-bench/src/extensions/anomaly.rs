//! Detection quality of the drain-side anomaly analyzer
//! ([`kard_telemetry::analyze`]): injected regressions over the
//! [`kard_workloads::regress`] shapes, judged like a change-point
//! detection benchmark — did each injected regression get flagged on
//! its expected metric after the injection point, and how many false
//! positives did the clean control raise?
//!
//! Every scenario replays the same windowed protocol: one
//! [`kard_rt::Session`] per scenario, one [`Session::drain`] after each
//! window (exactly the firehose shard cadence), signals collected via
//! [`kard_core::Kard::take_anomaly_signals`]. The analyzer runs its
//! default sensitivity knobs — the results hold with the shipping
//! configuration, not a tuned one.

use kard_core::{AnalyzerConfig, KardConfig, KeyCachePolicy, KeyMode};
use kard_rt::{KardExecutor, Session};
use kard_trace::replay::replay;
use kard_workloads::regress::{self, RegressConfig, RegressWorkload, Regression};
use serde::Serialize;

/// One anomaly signal, tagged with the window it fired in.
#[derive(Clone, Debug, Serialize)]
pub struct Fired {
    /// 0-based replay window.
    pub window: usize,
    /// Metric name.
    pub metric: &'static str,
    /// The window's observed value.
    pub value: u64,
    /// The learned baseline it was judged against.
    pub baseline: u64,
    /// Accumulated CUSUM score at fire time, permille of baseline.
    pub score_permille: u64,
    /// Thread whose events dominated the metric, if any.
    pub suspected_thread: Option<u32>,
}

/// One scenario's verdict.
#[derive(Clone, Debug, Serialize)]
pub struct Scenario {
    /// `clean` or the injected regression's name.
    pub scenario: &'static str,
    /// The metric the regression is designed to trip (`None`: control).
    pub expected_metric: Option<&'static str>,
    /// First regressed window (`None`: control).
    pub inject_at_window: Option<usize>,
    /// Windows replayed.
    pub windows: usize,
    /// Window where the expected metric first fired at/after injection.
    pub flagged_at_window: Option<usize>,
    /// `flagged_at_window - inject_at_window`.
    pub detection_latency_windows: Option<usize>,
    /// Expected-metric signals before the injection window.
    pub premature_expected_signals: usize,
    /// Every signal raised, any metric.
    pub signals: Vec<Fired>,
}

/// The clean control followed by every injected regression.
#[derive(Clone, Debug, Serialize)]
pub struct AnomalySweep {
    /// Logical threads per scenario.
    pub threads: usize,
    /// Analyzer knobs in force (the defaults).
    pub analyzer: AnalyzerConfig,
    /// One verdict per scenario, control first.
    pub scenarios: Vec<Scenario>,
}

/// Replay one workload window by window, draining after each window so
/// the analyzer sees one sample per window.
fn run(workload: &RegressWorkload) -> Scenario {
    let session = Session::builder()
        .config(KardConfig {
            keys: KeyMode::Virtual(KeyCachePolicy::Lru),
            ..KardConfig::paper()
        })
        .telemetry(true)
        .build();
    let mut exec = KardExecutor::new(session.kard().clone());
    let mut signals = Vec::new();
    for (window, trace) in workload.windows.iter().enumerate() {
        replay(trace, &mut exec);
        let _ = session.drain();
        signals.extend(
            session
                .kard()
                .take_anomaly_signals()
                .into_iter()
                .map(|s| Fired {
                    window,
                    metric: s.metric.name(),
                    value: s.value,
                    baseline: s.baseline,
                    score_permille: s.score,
                    suspected_thread: s.suspected_thread,
                }),
        );
    }
    let expected = workload.regression.map(|r| r.expected_metric().name());
    let inject_at = workload.regression.map(|_| workload.inject_at);
    // Windows in which the expected metric fired, in order.
    let expected_at: Vec<usize> = signals
        .iter()
        .filter(|f| Some(f.metric) == expected)
        .map(|f| f.window)
        .collect();
    let flagged_at = expected_at.iter().copied().find(|&w| Some(w) >= inject_at);
    Scenario {
        scenario: workload.name,
        expected_metric: expected,
        inject_at_window: inject_at,
        windows: workload.windows.len(),
        flagged_at_window: flagged_at,
        detection_latency_windows: flagged_at.zip(inject_at).map(|(w, i)| w - i),
        premature_expected_signals: expected_at.iter().filter(|&&w| Some(w) < inject_at).count(),
        signals,
    }
}

/// Run the clean control and every [`Regression`] shape under `cfg`.
#[must_use]
pub fn sweep(cfg: &RegressConfig) -> AnomalySweep {
    let mut scenarios = vec![run(&regress::clean(cfg))];
    scenarios.extend(Regression::ALL.map(|shape| run(&regress::injected(cfg, shape))));
    AnomalySweep {
        threads: cfg.threads,
        analyzer: AnalyzerConfig::default(),
        scenarios,
    }
}

/// Render the sweep.
#[must_use]
pub fn text(cfg: &RegressConfig) -> String {
    let sweep = sweep(cfg);
    let mut out = format!(
        "Anomaly detection: injected regressions vs the clean control \
         ({} threads, {} windows, one drain per window, default analyzer)\n",
        sweep.threads, cfg.windows
    );
    for s in &sweep.scenarios {
        let verdict = match (s.expected_metric, s.inject_at_window, s.flagged_at_window) {
            (Some(m), Some(i), Some(w)) => {
                format!(
                    "{m} flagged at window {w} (injected at {i}, latency {} windows)",
                    w - i
                )
            }
            (Some(m), ..) => format!("{m} NOT flagged"),
            (None, ..) => format!("{} signals (control)", s.signals.len()),
        };
        out.push_str(&format!("{:<14} {verdict}\n", s.scenario));
        for f in &s.signals {
            out.push_str(&format!(
                "    window {:>2}: {:<16} value {:>8} vs baseline {:>6}, score {}‰\n",
                f.window, f.metric, f.value, f.baseline, f.score_permille
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_injected_regression_fires_its_metric_and_the_control_stays_quiet() {
        let sweep = sweep(&RegressConfig::default());
        let (clean, injected) = sweep.scenarios.split_first().expect("control first");
        assert!(
            clean.signals.len() <= 1,
            "clean control raised more than one signal: {:?}",
            clean.signals
        );
        assert_eq!(injected.len(), Regression::ALL.len());
        for s in injected {
            assert!(
                s.flagged_at_window.is_some(),
                "{}: {:?} never fired at or after injection",
                s.scenario,
                s.expected_metric
            );
            assert_eq!(
                s.premature_expected_signals, 0,
                "{}: expected metric fired before injection",
                s.scenario
            );
        }
    }
}
