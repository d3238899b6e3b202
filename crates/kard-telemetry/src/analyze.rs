//! Online anomaly detection over the drained telemetry stream.
//!
//! The analyzer is a pure *drain-side consumer*: it reads each
//! [`Drained`] batch plus relaxed snapshots of the
//! [`Histograms`], reduces them to one
//! [`WindowSample`] of per-window aggregates, and runs two classical
//! streaming techniques over every tracked metric:
//!
//! * an **EWMA baseline** (integer, shift-based) that learns the
//!   workload's normal level while the metric is in control, and
//! * a one-sided **CUSUM change-point detector** that accumulates the
//!   excess of each window over `baseline + slack` (in permille of the
//!   baseline, so one threshold fits metrics of wildly different
//!   magnitudes) and fires when the accumulated drift crosses a
//!   threshold.
//!
//! On a fire the detector *adopts* the new level (`baseline := value`,
//! `cusum := 0`), so a step change raises **exactly one** signal per
//! metric rather than alarming forever; during an excursion the baseline
//! is frozen, so a slow creep still accumulates against the pre-creep
//! level and fires. Both properties are proptested in
//! `tests/anomaly_detection.rs`.
//!
//! Signals are *signals, not truth* (ROADMAP item 5): a
//! [`AnomalySignal`] carries a score, the metric, the window, the
//! suspected thread — evidence for the overhead-budget controller and
//! for the firehose server's per-session attribution, never a verdict.
//! Nothing in this module runs on the recording path: the analyzer owns
//! a plain (untracked) mutex taken only at drain time, and
//! `tests/no_lock_overhead.rs` proves an analyzer-enabled run adds zero
//! detector-lock acquisitions, zero ring writes, and zero allocations to
//! the warmed recording path.

use crate::event::EventKind;
use crate::hist::{quantile_from_buckets, BUCKETS};
use crate::{Drained, Histograms};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Cycles per rate unit: event rates are reported per million
/// virtual-clock cycles so typical workloads land in a human-readable
/// integer range.
pub const RATE_UNIT_CYCLES: u64 = 1_000_000;

/// Which per-window aggregate a detector tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum MetricKind {
    /// Faults handled per million cycles (fault-delay histogram count
    /// delta over elapsed virtual time).
    FaultRate = 0,
    /// Per-window p95 of fault-handling delay (cycles, log₂ resolution).
    FaultDelayP95 = 1,
    /// Virtual-key evictions + grouped demotions per million cycles —
    /// the key-cache thrash signature (a working set blowing past the 13
    /// hardware pool keys).
    KeyPressure = 2,
    /// Per-window p95 of critical-section hold time (cycles).
    SectionHoldP95 = 3,
    /// Remote-free pushes per million cycles (cross-thread free traffic).
    RemoteFreeRate = 4,
}

impl MetricKind {
    /// Number of tracked metrics.
    pub const COUNT: usize = 5;

    /// Every metric, in discriminant order.
    pub const ALL: [MetricKind; MetricKind::COUNT] = [
        MetricKind::FaultRate,
        MetricKind::FaultDelayP95,
        MetricKind::KeyPressure,
        MetricKind::SectionHoldP95,
        MetricKind::RemoteFreeRate,
    ];

    /// Decode a raw discriminant, if valid.
    #[must_use]
    pub fn from_raw(raw: u64) -> Option<MetricKind> {
        MetricKind::ALL.get(raw as usize).copied()
    }

    /// Stable snake_case name (used in `/statsz`, `kard-tables anomaly`,
    /// and the JSON-Lines exporter).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::FaultRate => "fault_rate",
            MetricKind::FaultDelayP95 => "fault_delay_p95",
            MetricKind::KeyPressure => "key_pressure",
            MetricKind::SectionHoldP95 => "section_hold_p95",
            MetricKind::RemoteFreeRate => "remote_free_rate",
        }
    }
}

/// Sensitivity knobs for every per-metric detector. All integers so the
/// config can ride inside the `Copy + Eq` [`KardConfig`] — see
/// docs/TUNING.md for how each knob trades detection latency against
/// false positives.
///
/// [`KardConfig`]: https://docs.rs/kard-core
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalyzerConfig {
    /// Windows to observe before arming detection. During warmup the
    /// baseline learns and no signal can fire.
    pub warmup_windows: u32,
    /// EWMA weight as a right-shift: the baseline moves toward each
    /// in-control sample by `delta >> ewma_shift` (3 ⇒ weight 1/8).
    pub ewma_shift: u32,
    /// CUSUM fire threshold, in accumulated permille-of-baseline excess.
    pub cusum_threshold_permille: u64,
    /// Per-window slack (the CUSUM `k`): excess below this permille of
    /// the baseline is treated as noise and never accumulates.
    pub cusum_slack_permille: u64,
    /// Floor applied to the baseline before computing relative excess, so
    /// a near-zero quiet baseline does not make the first real activity
    /// an infinite-score anomaly.
    pub min_baseline: u64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            warmup_windows: 4,
            ewma_shift: 3,
            cusum_threshold_permille: 4_000,
            cusum_slack_permille: 500,
            // Rate metrics saturate near 1e6/fault-cost (~41 per Mcycle
            // with the simulator's 24k-cycle faults) because the events
            // being counted inflate the elapsed-cycle denominator; the
            // floor must sit well below that ceiling or a saturated storm
            // reads as small relative excess.
            min_baseline: 8,
        }
    }
}

/// One window's reduced aggregates: the value of every tracked metric
/// plus (optionally) the thread that contributed most to each. Produced
/// by [`Analyzer::observe`]; proptests construct these directly and feed
/// [`Analyzer::ingest`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Virtual-clock timestamp at the window's drain.
    pub now: u64,
    /// Metric values, indexed by [`MetricKind`] discriminant.
    pub values: [u64; MetricKind::COUNT],
    /// Per-metric suspected thread (dense detector index), when the
    /// window's events attribute the metric's mass to one thread.
    pub suspects: [Option<u32>; MetricKind::COUNT],
}

/// A typed anomaly signal: evidence, not a verdict. Plain `Copy` integer
/// data so it can live inside the `Copy + Eq` detector snapshot and
/// cross the firehose wire as JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalySignal {
    /// Which metric fired.
    pub metric: MetricKind,
    /// 1-based index of the window that fired (post-warmup windows count
    /// from `warmup_windows + 1`).
    pub window: u64,
    /// Virtual-clock timestamp of that window's drain.
    pub now: u64,
    /// The window's observed metric value.
    pub value: u64,
    /// The learned baseline the value was judged against.
    pub baseline: u64,
    /// Accumulated CUSUM score at fire time (permille-of-baseline).
    pub score: u64,
    /// Thread whose events dominated the metric this window, if any.
    pub suspected_thread: Option<u32>,
    /// Session the suspected thread belongs to — filled in by the
    /// firehose server (which owns the thread→session map); `None` in
    /// single-session embedding.
    pub suspected_session: Option<u64>,
}

/// Per-metric detector state exposed in snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricStats {
    /// Current learned baseline.
    pub baseline: u64,
    /// Most recent window's value.
    pub last_value: u64,
    /// Current CUSUM accumulation (permille-of-baseline).
    pub cusum_permille: u64,
    /// Signals fired on this metric so far.
    pub signals: u64,
}

/// Analyzer summary carried in `KardSnapshot::anomaly` and `/statsz`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyStats {
    /// Windows ingested (including warmup).
    pub windows: u64,
    /// Total signals fired across all metrics.
    pub signals: u64,
    /// Per-metric state, indexed by [`MetricKind`] discriminant.
    pub metrics: [MetricStats; MetricKind::COUNT],
    /// The most recent signal, if any has fired.
    pub last_signal: Option<AnomalySignal>,
}

/// One metric's full detector state (internal superset of [`MetricStats`]).
#[derive(Clone, Copy, Debug, Default)]
struct MetricState {
    baseline: u64,
    cusum: u64,
    last_value: u64,
    signals: u64,
}

/// Drain-side reduction state: previous histogram bucket snapshots (so
/// each window sees only its own delta) and the previous drain's clock.
#[derive(Debug)]
struct AnalyzerState {
    metrics: [MetricState; MetricKind::COUNT],
    windows: u64,
    last_now: u64,
    last_signal: Option<AnomalySignal>,
    fault_delay_buckets: [u64; BUCKETS],
    fault_delay_count: u64,
    section_hold_buckets: [u64; BUCKETS],
}

impl Default for AnalyzerState {
    fn default() -> Self {
        AnalyzerState {
            metrics: Default::default(),
            windows: 0,
            last_now: 0,
            last_signal: None,
            fault_delay_buckets: [0; BUCKETS],
            fault_delay_count: 0,
            section_hold_buckets: [0; BUCKETS],
        }
    }
}

/// The streaming anomaly detector. Owns one CUSUM + EWMA pair per
/// [`MetricKind`]; state sits behind a plain (untracked) mutex taken
/// only at drain time — never on the recording path.
#[derive(Debug)]
pub struct Analyzer {
    config: AnalyzerConfig,
    state: Mutex<AnalyzerState>,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new(AnalyzerConfig::default())
    }
}

impl Analyzer {
    /// A fresh analyzer with the given sensitivity knobs.
    #[must_use]
    pub fn new(config: AnalyzerConfig) -> Analyzer {
        Analyzer {
            config,
            state: Mutex::new(AnalyzerState::default()),
        }
    }

    /// The knobs this analyzer was built with.
    #[must_use]
    pub fn config(&self) -> AnalyzerConfig {
        self.config
    }

    /// Reduce one drained batch (plus histogram deltas) to a
    /// [`WindowSample`] and run the detectors. Returns the signals that
    /// fired this window (usually empty).
    pub fn observe(&self, batch: &Drained, hists: &Histograms, now: u64) -> Vec<AnomalySignal> {
        let mut state = self.state.lock();
        let elapsed = now.saturating_sub(state.last_now).max(1);

        // Histogram deltas: per-window distributions from cumulative
        // bucket snapshots.
        let fault_delay = hists.fault_delay.bucket_counts();
        let section_hold = hists.section_hold.bucket_counts();
        let fault_delay_delta = bucket_delta(&fault_delay, &state.fault_delay_buckets);
        let section_hold_delta = bucket_delta(&section_hold, &state.section_hold_buckets);
        let fault_count_now = hists.fault_delay.count();
        let faults = fault_count_now.saturating_sub(state.fault_delay_count);
        state.fault_delay_buckets = fault_delay;
        state.section_hold_buckets = section_hold;
        state.fault_delay_count = fault_count_now;

        // Event-derived rates and per-thread attribution. Event counts
        // can undercount under ring overflow — acceptable for a signal.
        let mut key_pressure_events = 0u64;
        let mut remote_free_events = 0u64;
        let mut fault_by_thread = ThreadTally::default();
        let mut key_by_thread = ThreadTally::default();
        let mut free_by_thread = ThreadTally::default();
        let mut slowest_section: Option<(u64, u32)> = None;
        let mut slowest_fault: Option<(u64, u32)> = None;
        for e in &batch.events {
            match e.kind {
                EventKind::FaultEnter => fault_by_thread.add(e.thread),
                EventKind::FaultResolve if slowest_fault.is_none_or(|(lat, _)| e.a > lat) => {
                    slowest_fault = Some((e.a, e.thread));
                }
                EventKind::VKeyEvict | EventKind::VKeyDemoteBatch => {
                    key_pressure_events += 1;
                    key_by_thread.add(e.thread);
                }
                EventKind::RemoteFreePush => {
                    remote_free_events += 1;
                    free_by_thread.add(e.thread);
                }
                EventKind::SectionExit if slowest_section.is_none_or(|(hold, _)| e.b > hold) => {
                    slowest_section = Some((e.b, e.thread));
                }
                _ => {}
            }
        }

        let rate = |count: u64| count.saturating_mul(RATE_UNIT_CYCLES) / elapsed;
        let mut sample = WindowSample {
            now,
            values: [0; MetricKind::COUNT],
            suspects: [None; MetricKind::COUNT],
        };
        sample.values[MetricKind::FaultRate as usize] = rate(faults);
        sample.suspects[MetricKind::FaultRate as usize] = fault_by_thread.leader();
        sample.values[MetricKind::FaultDelayP95 as usize] =
            quantile_from_buckets(&fault_delay_delta, 0.95);
        sample.suspects[MetricKind::FaultDelayP95 as usize] = slowest_fault.map(|(_, t)| t);
        sample.values[MetricKind::KeyPressure as usize] = rate(key_pressure_events);
        sample.suspects[MetricKind::KeyPressure as usize] = key_by_thread.leader();
        sample.values[MetricKind::SectionHoldP95 as usize] =
            quantile_from_buckets(&section_hold_delta, 0.95);
        sample.suspects[MetricKind::SectionHoldP95 as usize] = slowest_section.map(|(_, t)| t);
        sample.values[MetricKind::RemoteFreeRate as usize] = rate(remote_free_events);
        sample.suspects[MetricKind::RemoteFreeRate as usize] = free_by_thread.leader();

        self.ingest_locked(&mut state, sample)
    }

    /// Feed one pre-reduced window straight into the detectors — the
    /// low-level API the proptests drive with synthetic streams.
    pub fn ingest(&self, sample: WindowSample) -> Vec<AnomalySignal> {
        let mut state = self.state.lock();
        self.ingest_locked(&mut state, sample)
    }

    fn ingest_locked(
        &self,
        state: &mut AnalyzerState,
        sample: WindowSample,
    ) -> Vec<AnomalySignal> {
        state.windows += 1;
        state.last_now = sample.now;
        let window = state.windows;
        let cfg = &self.config;
        let mut fired = Vec::new();
        for kind in MetricKind::ALL {
            let i = kind as usize;
            let x = sample.values[i];
            let m = &mut state.metrics[i];
            m.last_value = x;
            if window <= u64::from(cfg.warmup_windows) {
                // Learning only: adopt each warmup window outright, so the
                // baseline entering monitoring is the *last* warmup window —
                // startup transients (allocation bursts, first-touch
                // identification faults) age out with warmup instead of
                // echoing through the EWMA for the rest of the run.
                m.baseline = x;
                m.cusum = 0;
                continue;
            }
            let b = m.baseline.max(cfg.min_baseline);
            let excess_permille = if x > b {
                (x - b).saturating_mul(1000) / b
            } else {
                0
            };
            // One-sided CUSUM: S ← max(0, S + (excess − k)).
            let s = (m.cusum + excess_permille).saturating_sub(cfg.cusum_slack_permille);
            if s >= cfg.cusum_threshold_permille {
                // Fire, then adopt the new level so a step change raises
                // exactly one signal instead of alarming forever.
                m.signals += 1;
                m.baseline = x;
                m.cusum = 0;
                let signal = AnomalySignal {
                    metric: kind,
                    window,
                    now: sample.now,
                    value: x,
                    baseline: b,
                    score: s,
                    suspected_thread: sample.suspects[i],
                    suspected_session: None,
                };
                state.last_signal = Some(signal);
                fired.push(signal);
            } else {
                m.cusum = s;
                if s == 0 {
                    // In control: let the baseline track slow drift. The
                    // baseline is frozen mid-excursion so a creep keeps
                    // accumulating against the pre-creep level.
                    m.baseline = ewma(m.baseline, x, cfg.ewma_shift);
                }
            }
        }
        fired
    }

    /// Snapshot of every detector's state for `KardSnapshot::anomaly`
    /// and `/statsz`.
    #[must_use]
    pub fn stats(&self) -> AnomalyStats {
        let state = self.state.lock();
        let mut out = AnomalyStats {
            windows: state.windows,
            signals: state.metrics.iter().map(|m| m.signals).sum(),
            metrics: [MetricStats::default(); MetricKind::COUNT],
            last_signal: state.last_signal,
        };
        for (i, m) in state.metrics.iter().enumerate() {
            out.metrics[i] = MetricStats {
                baseline: m.baseline,
                last_value: m.last_value,
                cusum_permille: m.cusum,
                signals: m.signals,
            };
        }
        out
    }
}

/// Per-window delta of two cumulative bucket snapshots.
fn bucket_delta(now: &[u64; BUCKETS], prev: &[u64; BUCKETS]) -> [u64; BUCKETS] {
    std::array::from_fn(|i| now[i].saturating_sub(prev[i]))
}

/// Integer EWMA: move `old` toward `x` by `1/2^shift` of the gap.
fn ewma(old: u64, x: u64, shift: u32) -> u64 {
    if x >= old {
        old + ((x - old) >> shift)
    } else {
        old - ((old - x) >> shift)
    }
}

/// Small fixed tally of events per thread, tracking the leader without
/// allocating. Capacity bounds the distinct threads credited per window;
/// overflow threads simply go unattributed (signals, not truth).
#[derive(Debug)]
struct ThreadTally {
    threads: [u32; ThreadTally::CAP],
    counts: [u64; ThreadTally::CAP],
    len: usize,
}

impl Default for ThreadTally {
    fn default() -> Self {
        ThreadTally {
            threads: [0; ThreadTally::CAP],
            counts: [0; ThreadTally::CAP],
            len: 0,
        }
    }
}

impl ThreadTally {
    const CAP: usize = 64;

    fn add(&mut self, thread: u32) {
        for i in 0..self.len {
            if self.threads[i] == thread {
                self.counts[i] += 1;
                return;
            }
        }
        if self.len < ThreadTally::CAP {
            self.threads[self.len] = thread;
            self.counts[self.len] = 1;
            self.len += 1;
        }
    }

    fn leader(&self) -> Option<u32> {
        (0..self.len)
            .max_by_key(|&i| self.counts[i])
            .map(|i| self.threads[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: [u64; MetricKind::COUNT], now: u64) -> WindowSample {
        WindowSample {
            now,
            values,
            suspects: [None; MetricKind::COUNT],
        }
    }

    fn flat(v: u64, now: u64) -> WindowSample {
        sample([v; MetricKind::COUNT], now)
    }

    #[test]
    fn quiet_stream_raises_no_signals() {
        let a = Analyzer::default();
        for w in 0..100u64 {
            let fired = a.ingest(flat(1000, (w + 1) * 1_000_000));
            assert!(fired.is_empty(), "window {w} fired: {fired:?}");
        }
        let stats = a.stats();
        assert_eq!(stats.signals, 0);
        assert_eq!(stats.windows, 100);
        for m in stats.metrics {
            assert_eq!(m.baseline, 1000);
            assert_eq!(m.cusum_permille, 0);
        }
    }

    #[test]
    fn step_change_fires_exactly_once_per_metric_then_adapts() {
        let a = Analyzer::default();
        for w in 0..10u64 {
            assert!(a.ingest(flat(1000, (w + 1) * 1_000_000)).is_empty());
        }
        let mut total = 0usize;
        for w in 10..30u64 {
            total += a.ingest(flat(10_000, (w + 1) * 1_000_000)).len();
        }
        assert_eq!(
            total,
            MetricKind::COUNT,
            "a 10× step fires exactly one signal per metric"
        );
        let stats = a.stats();
        for m in stats.metrics {
            assert_eq!(m.signals, 1);
            assert_eq!(m.baseline, 10_000, "the new level was adopted");
        }
        let last = stats.last_signal.expect("a signal was recorded");
        assert_eq!(last.value, 10_000);
        assert_eq!(last.baseline, 1000);
        assert!(last.score >= AnalyzerConfig::default().cusum_threshold_permille);
    }

    #[test]
    fn warmup_suppresses_signals() {
        let a = Analyzer::new(AnalyzerConfig {
            warmup_windows: 3,
            ..AnalyzerConfig::default()
        });
        // Wild swings entirely inside warmup: nothing may fire.
        for (w, v) in [5u64, 50_000, 3, 80_000].into_iter().enumerate() {
            let fired = a.ingest(flat(v, (w as u64 + 1) * 1_000_000));
            if w < 3 {
                assert!(fired.is_empty(), "warmup window {w} fired");
            }
        }
    }

    #[test]
    fn slow_creep_accumulates_and_fires() {
        // Each window only 80% above baseline (excess 800‰, slack 500‰ ⇒
        // 300‰ accrued per window): no single window is alarming, but the
        // frozen-baseline CUSUM accumulates to the 4000‰ threshold.
        let a = Analyzer::default();
        for w in 0..10u64 {
            assert!(a.ingest(flat(1000, (w + 1) * 1_000_000)).is_empty());
        }
        let mut fired_at = None;
        for w in 10..40u64 {
            let fired = a.ingest(flat(1800, (w + 1) * 1_000_000));
            if !fired.is_empty() {
                fired_at = Some(w);
                break;
            }
        }
        let w = fired_at.expect("creep eventually fires");
        assert!(w >= 10 + 5, "not instantly: accrued over windows (fired at {w})");
    }

    #[test]
    fn observe_reduces_events_and_histograms() {
        let hists = Histograms::default();
        let a = Analyzer::default();
        let mut batch = Drained::default();
        for n in 0..10 {
            batch.events.push(crate::Event {
                tsc: n,
                thread: 7,
                kind: EventKind::RemoteFreePush,
                a: n,
                b: 0,
            });
        }
        hists.fault_delay.record(500);
        hists.section_hold.record(2_000);
        let fired = a.observe(&batch, &hists, 2 * RATE_UNIT_CYCLES);
        assert!(fired.is_empty(), "warmup window cannot fire");
        let stats = a.stats();
        // 10 remote frees over 2 Mcycles = 5 per Mcycle.
        assert_eq!(stats.metrics[MetricKind::RemoteFreeRate as usize].last_value, 5);
        assert_eq!(stats.metrics[MetricKind::FaultRate as usize].last_value, 0);
        assert!(stats.metrics[MetricKind::FaultDelayP95 as usize].last_value >= 500);
        assert!(stats.metrics[MetricKind::SectionHoldP95 as usize].last_value >= 2_000);
    }

    #[test]
    fn observe_attributes_suspect_thread() {
        let hists = Histograms::default();
        let a = Analyzer::new(AnalyzerConfig {
            warmup_windows: 1,
            cusum_threshold_permille: 100,
            cusum_slack_permille: 0,
            ..AnalyzerConfig::default()
        });
        // Quiet first window to seed the baselines.
        a.observe(&Drained::default(), &hists, RATE_UNIT_CYCLES);
        let mut batch = Drained::default();
        for n in 0..100 {
            batch.events.push(crate::Event {
                tsc: n,
                thread: if n % 10 == 0 { 1 } else { 3 },
                kind: EventKind::VKeyEvict,
                a: n,
                b: 1,
            });
        }
        let fired = a.observe(&batch, &hists, 2 * RATE_UNIT_CYCLES);
        let key = fired
            .iter()
            .find(|s| s.metric == MetricKind::KeyPressure)
            .expect("eviction storm fires key pressure");
        assert_eq!(key.suspected_thread, Some(3), "the dominant thread is suspected");
        assert_eq!(key.suspected_session, None);
    }

    #[test]
    fn metric_kind_round_trips() {
        for kind in MetricKind::ALL {
            assert_eq!(MetricKind::from_raw(kind as u64), Some(kind));
        }
        assert_eq!(MetricKind::from_raw(MetricKind::COUNT as u64), None);
    }
}
