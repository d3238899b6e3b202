//! Regression-injection shapes for the drain-side anomaly detector.
//!
//! Each workload is a sequence of *windows* — per-window [`Trace`]s the
//! harness replays one at a time, draining telemetry between windows so
//! the analyzer sees one [`kard_core::MetricKind`] sample per window.
//! The first windows are always clean steady state (identical
//! consistent-lock traffic, so the analyzer's baselines settle); from
//! [`RegressConfig::inject_at`] on, a chosen [`Regression`] is layered
//! on top:
//!
//! * [`Regression::FaultStorm`] — threads start writing each other's
//!   objects under their own locks, so every cross-domain access faults
//!   (and reports ILU races): a step change in fault rate.
//! * [`Regression::KeyThrash`] — one thread starts cycling through far
//!   more distinct critical sections than the hardware key pool holds,
//!   the key-cache thrash signature: a step change in
//!   eviction/demotion pressure. Needs
//!   [`kard_core::KeyMode::Virtual`].
//! * [`Regression::LatencyCreep`] — in-section compute grows a little
//!   every window, the slow-leak shape: no single window is alarming,
//!   but section-hold p95 drifts up until the CUSUM accumulates enough
//!   to fire.
//!
//! `kard-tables anomaly` (`kard-bench`'s `extensions::anomaly`) gates on
//! these shapes: every injected regression must be flagged on its
//! expected metric within the run, with at most one false positive on
//! [`clean`].

use kard_core::{LockId, MetricKind};
use kard_sim::CodeSite;
use kard_trace::schedule::interleave_seeded;
use kard_trace::{ObjectTag, ThreadProgram, Trace};

/// Lock/site/tag wells, spaced so the steady-state, storm, and thrash
/// namespaces can never collide.
const THRASH_LOCK_BASE: u64 = 10_000;
const THRASH_SITE_BASE: u64 = 0x7000;
const THRASH_TAG_BASE: u64 = 100_000;

/// Which regression a workload injects after the clean lead-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regression {
    /// Cross-thread writes under inconsistent locks: a fault-rate step.
    FaultStorm,
    /// A working set of sections far beyond the hardware key pool: a
    /// key-pressure step.
    KeyThrash,
    /// Slowly growing in-section compute: a section-hold-p95 creep.
    LatencyCreep,
}

impl Regression {
    /// Every shape, for sweeping harnesses.
    pub const ALL: [Regression; 3] = [
        Regression::FaultStorm,
        Regression::KeyThrash,
        Regression::LatencyCreep,
    ];

    /// Stable snake_case name (the `kard-tables anomaly` scenario label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Regression::FaultStorm => "fault_storm",
            Regression::KeyThrash => "key_thrash",
            Regression::LatencyCreep => "latency_creep",
        }
    }

    /// The metric this regression is designed to trip. A shape may also
    /// disturb neighboring metrics (a fault storm moves fault-delay p95
    /// too); the harness gate only requires *this* one.
    #[must_use]
    pub fn expected_metric(self) -> MetricKind {
        match self {
            Regression::FaultStorm => MetricKind::FaultRate,
            Regression::KeyThrash => MetricKind::KeyPressure,
            Regression::LatencyCreep => MetricKind::SectionHoldP95,
        }
    }
}

/// Shape of a regression run.
#[derive(Clone, Copy, Debug)]
pub struct RegressConfig {
    /// Logical threads (≥ 2 so a fault storm has a victim domain).
    pub threads: usize,
    /// Total windows, clean lead-in included.
    pub windows: usize,
    /// First window (0-based) that carries the regression.
    pub inject_at: usize,
    /// Objects each thread owns and works over.
    pub objects_per_thread: usize,
    /// Steady-state critical-section entries per thread per window.
    pub sections_per_window: usize,
    /// Writes inside each steady-state section.
    pub writes_per_section: usize,
    /// Distinct sections a [`Regression::KeyThrash`] window cycles
    /// through (should comfortably exceed the 13-key hardware pool).
    pub thrash_sections: usize,
    /// Cross-thread writes per thread per [`Regression::FaultStorm`]
    /// window.
    pub storm_accesses: usize,
    /// Extra in-section compute added per [`Regression::LatencyCreep`]
    /// window (cycles; the creep is `step × windows-since-injection`).
    pub creep_step_cycles: u64,
    /// Seed for the per-window interleavings.
    pub seed: u64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        RegressConfig {
            threads: 4,
            windows: 24,
            inject_at: 12,
            objects_per_thread: 8,
            sections_per_window: 16,
            writes_per_section: 2,
            thrash_sections: 64,
            storm_accesses: 32,
            creep_step_cycles: 400,
            seed: 7,
        }
    }
}

/// One generated run: per-window traces plus the ground truth the
/// harness gates against.
#[derive(Clone, Debug)]
pub struct RegressWorkload {
    /// Shape name (`clean` or the injected [`Regression::name`]).
    pub name: &'static str,
    /// The injected regression, `None` for the clean control.
    pub regression: Option<Regression>,
    /// First regressed window (== `windows.len()` for the control).
    pub inject_at: usize,
    /// Per-window traces, replayed in order with a drain after each.
    pub windows: Vec<Trace>,
}

/// The clean control: every window is identical steady state. The
/// false-positive gate runs over this.
#[must_use]
pub fn clean(cfg: &RegressConfig) -> RegressWorkload {
    build(cfg, None)
}

/// A run that injects `regression` from [`RegressConfig::inject_at`] on.
#[must_use]
pub fn injected(cfg: &RegressConfig, regression: Regression) -> RegressWorkload {
    build(cfg, Some(regression))
}

fn build(cfg: &RegressConfig, regression: Option<Regression>) -> RegressWorkload {
    assert!(cfg.threads >= 2, "a fault storm needs a victim domain");
    assert!(cfg.windows > 0 && cfg.inject_at <= cfg.windows);
    let own_tag = |t: usize, o: usize| ObjectTag((t * cfg.objects_per_thread + o) as u64);
    let own_lock = |t: usize| LockId(1 + t as u64);
    let own_site = |t: usize| CodeSite(0x1000 + t as u64);

    let mut windows = Vec::with_capacity(cfg.windows);
    for window in 0..cfg.windows {
        let injected = regression.filter(|_| window >= cfg.inject_at);
        let mut programs: Vec<ThreadProgram> = vec![ThreadProgram::new(); cfg.threads];
        if window == 0 {
            for (t, p) in programs.iter_mut().enumerate() {
                for o in 0..cfg.objects_per_thread {
                    p.alloc(own_tag(t, o), 64);
                }
            }
        }
        // Steady state, identical every window: each thread works its
        // own objects under its own lock — race- and fault-free.
        let creep = match injected {
            Some(Regression::LatencyCreep) => {
                cfg.creep_step_cycles * (window - cfg.inject_at + 1) as u64
            }
            _ => 0,
        };
        for (t, p) in programs.iter_mut().enumerate() {
            for s in 0..cfg.sections_per_window {
                p.critical_section(own_lock(t), own_site(t), |p| {
                    for w in 0..cfg.writes_per_section {
                        let o = (s + w) % cfg.objects_per_thread;
                        p.write(own_tag(t, o), 0, CodeSite(0x2000 + t as u64));
                    }
                    p.compute(100 + creep);
                });
                p.compute(200);
            }
        }
        match injected {
            Some(Regression::FaultStorm) => {
                // Every thread blasts its right neighbor's objects under
                // its own lock: inconsistent locking, so each
                // cross-domain access faults.
                for (t, p) in programs.iter_mut().enumerate() {
                    let victim = (t + 1) % cfg.threads;
                    p.critical_section(own_lock(t), own_site(t), |p| {
                        for a in 0..cfg.storm_accesses {
                            let o = a % cfg.objects_per_thread;
                            p.write(own_tag(victim, o), 0, CodeSite(0x3000 + t as u64));
                        }
                    });
                }
            }
            Some(Regression::KeyThrash) => {
                // Thread 0 cycles a section working set far beyond the
                // hardware pool; each section touches its own object so
                // every entry needs that section's key resident.
                let p = &mut programs[0];
                if window == cfg.inject_at {
                    for s in 0..cfg.thrash_sections {
                        p.alloc(ObjectTag(THRASH_TAG_BASE + s as u64), 64);
                    }
                }
                for s in 0..cfg.thrash_sections {
                    let s64 = s as u64;
                    p.critical_section(
                        LockId(THRASH_LOCK_BASE + s64),
                        CodeSite(THRASH_SITE_BASE + s64),
                        |p| {
                            p.write(ObjectTag(THRASH_TAG_BASE + s64), 0, CodeSite(0x4000 + s64));
                        },
                    );
                }
            }
            Some(Regression::LatencyCreep) | None => {}
        }
        windows.push(interleave_seeded(&programs, cfg.seed ^ window as u64));
    }
    RegressWorkload {
        name: regression.map_or("clean", Regression::name),
        regression,
        inject_at: regression.map_or(cfg.windows, |_| cfg.inject_at),
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_windows_are_shape_identical_after_the_first() {
        let w = clean(&RegressConfig::default());
        assert_eq!(w.windows.len(), 24);
        assert!(w.regression.is_none());
        let counts: Vec<usize> = w.windows.iter().map(|t| t.events().len()).collect();
        assert!(
            counts[1..].iter().all(|&c| c == counts[1]),
            "steady windows carry identical event counts: {counts:?}"
        );
        assert!(counts[0] > counts[1], "window 0 adds the allocations");
    }

    #[test]
    fn injection_changes_only_the_tail_windows() {
        let cfg = RegressConfig::default();
        let control = clean(&cfg);
        for shape in Regression::ALL {
            let run = injected(&cfg, shape);
            assert_eq!(run.name, shape.name());
            assert_eq!(run.inject_at, cfg.inject_at);
            for w in 1..cfg.inject_at {
                assert_eq!(
                    run.windows[w].events(),
                    control.windows[w].events(),
                    "{}: lead-in window {w} must be clean",
                    shape.name()
                );
            }
            let grows = matches!(shape, Regression::FaultStorm | Regression::KeyThrash);
            if grows {
                assert!(
                    run.windows[cfg.inject_at].events().len()
                        > control.windows[cfg.inject_at].events().len(),
                    "{}: injection adds events",
                    shape.name()
                );
            }
        }
    }

    #[test]
    fn latency_creep_grows_compute_monotonically() {
        let cfg = RegressConfig::default();
        let run = injected(&cfg, Regression::LatencyCreep);
        let cycles: Vec<u64> = run.windows.iter().map(Trace::compute_cycles).collect();
        for w in cfg.inject_at..cfg.windows - 1 {
            assert!(cycles[w + 1] > cycles[w], "creep grows every window");
        }
        assert_eq!(cycles[1], cycles[cfg.inject_at - 1], "lead-in is flat");
    }
}
