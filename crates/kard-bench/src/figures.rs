//! Regeneration of the paper's Figures 1–5.

use crate::pct;
use kard_alloc::KardAlloc;
use kard_core::algorithm::KeyEnforced;
use kard_core::{LockId, SectionId};
use kard_rt::Session;
use kard_sim::{CodeSite, Machine, MachineConfig, PAGE_SIZE};
use kard_workloads::runner::run_workload;
use kard_workloads::spec::geomean_pct;
use kard_workloads::synth::SynthConfig;
use kard_workloads::table3 as specs;
use serde::Serialize;
use std::sync::Arc;

/// Outcome of one Figure 1 walkthrough.
#[derive(Clone, Debug, Serialize)]
pub struct Fig1Outcome {
    /// Scenario name (`exclusive write` / `shared read`).
    pub scenario: &'static str,
    /// Step-by-step narration.
    pub steps: Vec<String>,
    /// Whether an access violation was raised, as the figure shows.
    pub violation: bool,
}

/// Figure 1: key-enforced access under ILU — (a) exclusive write raises a
/// violation, (b) shared read does not. Driven through the pure
/// Algorithm 1 implementation, which is what the figure illustrates.
#[must_use]
pub fn fig1() -> Vec<Fig1Outcome> {
    use kard_alloc::ObjectId;
    use kard_sim::ThreadId;

    let (t1, t2) = (ThreadId(1), ThreadId(2));
    let (sa, sb) = (SectionId(CodeSite(0xa)), SectionId(CodeSite(0xb)));
    let o = ObjectId(0);

    // (a) exclusive write.
    let mut alg = KeyEnforced::new();
    let mut steps_a = Vec::new();
    alg.enter(t1, sa);
    steps_a.push("t1: lock(l_a); enter s_a".into());
    assert!(alg.write(t1, o).is_none());
    steps_a.push("t1: wk_o <- get(o, 'w'); write(o)".into());
    alg.enter(t2, sb);
    steps_a.push("t2: lock(l_b); enter s_b".into());
    let race_a = alg.read(t2, o);
    steps_a.push(format!(
        "t2: read(o) -> {}",
        if race_a.is_some() {
            "ACCESS VIOLATION (t1 holds wk_o)"
        } else {
            "ok"
        }
    ));
    alg.exit(t1, sa);
    alg.exit(t2, sb);

    // (b) shared read.
    let mut alg = KeyEnforced::new();
    let mut steps_b = Vec::new();
    alg.enter(t1, sa);
    steps_b.push("t1: lock(l_a); enter s_a".into());
    assert!(alg.read(t1, o).is_none());
    steps_b.push("t1: rk_o <- get(o, 'r'); read(o)".into());
    alg.enter(t2, sb);
    steps_b.push("t2: lock(l_b); enter s_b".into());
    let race_b = alg.read(t2, o);
    steps_b.push(format!(
        "t2: rk_o <- get(o, 'r'); read(o) -> {}",
        if race_b.is_some() { "violation" } else { "ok (shared read)" }
    ));
    alg.exit(t1, sa);
    alg.exit(t2, sb);

    vec![
        Fig1Outcome {
            scenario: "exclusive write",
            steps: steps_a,
            violation: race_a.is_some(),
        },
        Fig1Outcome {
            scenario: "shared read",
            steps: steps_b,
            violation: race_b.is_some(),
        },
    ]
}

/// Render Figure 1.
#[must_use]
pub fn fig1_text() -> String {
    let mut out = String::from("Figure 1: key-enforced access during inconsistent lock usage\n");
    for outcome in fig1() {
        out.push_str(&format!(
            "\n({})\n",
            outcome.scenario
        ));
        for s in &outcome.steps {
            out.push_str(&format!("  {s}\n"));
        }
        out.push_str(&format!(
            "  => violation: {}\n",
            if outcome.violation { "yes" } else { "no" }
        ));
    }
    out
}

/// Measurements for Figure 2.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Measurement {
    /// Objects allocated (32 B each).
    pub objects: u64,
    /// Distinct virtual pages used.
    pub virtual_pages: u64,
    /// Physical file bytes consumed.
    pub physical_bytes: u64,
}

/// Figure 2: consolidated unique page allocation — up to 128 objects of
/// 32 B share one physical page while owning 128 distinct virtual pages.
/// Uses the sharded (demand-exact) path: the figure counts physical bytes
/// per *allocated* object, which magazine batch provisioning runs ahead of.
#[must_use]
pub fn fig2() -> Vec<Fig2Measurement> {
    [1u64, 32, 64, 128, 129, 256]
        .iter()
        .map(|&n| {
            let machine = Arc::new(Machine::new(MachineConfig::default()));
            let t = machine.register_thread();
            let alloc = KardAlloc::sharded(Arc::clone(&machine));
            let mut pages = std::collections::BTreeSet::new();
            for _ in 0..n {
                let info = alloc.alloc(t, 32);
                pages.insert(info.first_page);
            }
            Fig2Measurement {
                objects: n,
                virtual_pages: pages.len() as u64,
                physical_bytes: machine.mem_stats().file_bytes,
            }
        })
        .collect()
}

/// Render Figure 2.
#[must_use]
pub fn fig2_text() -> String {
    let mut out = String::from(
        "Figure 2: consolidated unique page allocation (32 B objects)\n\
         objects  virtual pages  physical bytes  pages/frame\n",
    );
    for m in fig2() {
        out.push_str(&format!(
            "{:>7} {:>14} {:>15} {:>12.1}\n",
            m.objects,
            m.virtual_pages,
            m.physical_bytes,
            m.virtual_pages as f64 / (m.physical_bytes as f64 / PAGE_SIZE as f64),
        ));
    }
    out
}

/// Trace of the Figure 3 stages for one object.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Outcome {
    /// Stage narration lines.
    pub stages: Vec<String>,
    /// Final race-report count (1: the Figure 3c race is caught).
    pub reports: usize,
}

/// Figure 3: the three continuous stages — (a) object tracking,
/// (b) domain enforcement, (c) race detection — exercised on one object.
#[must_use]
pub fn fig3() -> Fig3Outcome {
    let session = Session::new();
    let kard = session.kard().clone();
    let t1 = kard.register_thread();
    let t2 = kard.register_thread();
    let mut stages = Vec::new();

    // (a) Object tracking: first in-section access faults and migrates
    // the object out of the Not-accessed domain.
    let oa = kard.on_alloc(t1, 32);
    stages.push(format!("alloc o_a -> domain {:?}", kard.domain_of(oa.id).unwrap()));
    kard.lock_enter(t1, LockId(0xa), CodeSite(0xa));
    kard.write(t1, oa.base, CodeSite(0xa1));
    stages.push(format!(
        "t1 in s_a writes o_a: #GP(k_na) -> identify -> domain {:?}",
        kard.domain_of(oa.id).unwrap()
    ));
    kard.lock_exit(t1, LockId(0xa));

    // (b) Domain enforcement: re-entry proactively acquires the key, so
    // the same write no longer faults.
    let faults_before = session.machine().counters().faults;
    kard.lock_enter(t1, LockId(0xa), CodeSite(0xa));
    kard.write(t1, oa.base, CodeSite(0xa1));
    let faults_after = session.machine().counters().faults;
    stages.push(format!(
        "t1 re-enters s_a: proactive key acquisition, faults {}",
        if faults_after == faults_before { "0 (key held)" } else { "raised" }
    ));

    // (c) Race detection: t2 writes o_a from a different section while t1
    // holds the key.
    kard.lock_enter(t2, LockId(0xb), CodeSite(0xb));
    kard.write(t2, oa.base, CodeSite(0xb1));
    stages.push("t2 in s_b writes o_a: #GP -> key held by t1 -> potential race".into());
    kard.lock_exit(t2, LockId(0xb));
    kard.lock_exit(t1, LockId(0xa));

    Fig3Outcome {
        stages,
        reports: kard.reports().len(),
    }
}

/// Render Figure 3.
#[must_use]
pub fn fig3_text() -> String {
    let outcome = fig3();
    let mut out = String::from("Figure 3: object tracking / domain enforcement / race detection\n");
    for s in &outcome.stages {
        out.push_str(&format!("  {s}\n"));
    }
    out.push_str(&format!("  => potential races recorded: {}\n", outcome.reports));
    out
}

/// Outcome of a Figure 4 walkthrough.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4Outcome {
    /// Scenario (`same offset` / `different offsets`).
    pub scenario: &'static str,
    /// Interleave faults taken.
    pub interleave_faults: u64,
    /// Final reports.
    pub reports: usize,
    /// Candidates pruned by the offset test.
    pub pruned: u64,
}

/// Figure 4: protection interleaving. Same-offset conflicts survive the
/// filter; different-offset conflicts are pruned.
#[must_use]
pub fn fig4() -> Vec<Fig4Outcome> {
    let run = |same_offset: bool| -> Fig4Outcome {
        let session = Session::new();
        let kard = session.kard().clone();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 128);
        let off2 = if same_offset { 0 } else { 64 };

        kard.lock_enter(t1, LockId(1), CodeSite(0xa));
        kard.write(t1, o.base, CodeSite(0xa1)); // protect(o, k1); write
        kard.lock_enter(t2, LockId(2), CodeSite(0xb));
        kard.write(t2, o.base.offset(off2), CodeSite(0xb1)); // violation -> protect(o, k2)
        kard.write(t1, o.base, CodeSite(0xa2)); // violation -> offsets compared
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));

        let stats = kard.stats();
        Fig4Outcome {
            scenario: if same_offset { "same offset" } else { "different offsets" },
            interleave_faults: stats.interleave_faults,
            reports: kard.reports().len(),
            pruned: stats.races_pruned_offset,
        }
    };
    vec![run(true), run(false)]
}

/// Render Figure 4.
#[must_use]
pub fn fig4_text() -> String {
    let mut out = String::from(
        "Figure 4: protection interleaving\n\
         scenario             interleave-faults  reports  pruned\n",
    );
    for o in fig4() {
        out.push_str(&format!(
            "{:<20} {:>17} {:>8} {:>7}\n",
            o.scenario, o.interleave_faults, o.reports, o.pruned
        ));
    }
    out
}

/// One point of the Figure 5 series.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Point {
    /// Benchmark name.
    pub name: String,
    /// Thread count.
    pub threads: usize,
    /// Measured Kard overhead (%).
    pub kard_pct: f64,
}

/// Figure 5 result: per-benchmark overhead series at 8/16/32 threads plus
/// the paper's two geomeans per thread count.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Result {
    /// All measured points.
    pub points: Vec<Fig5Point>,
    /// Geomean overhead per thread count (paper: 24.4 / 63.1 / 107.2 %).
    pub geomeans: Vec<(usize, f64)>,
    /// Geomean excluding fluidanimate, water_nsquared, barnes
    /// (paper: 5.8 / 12.4 / 19.0 %).
    pub geomeans_excl_worst: Vec<(usize, f64)>,
}

/// The three workloads the paper singles out as worst cases in §7.4.
pub const FIG5_WORST: [&str; 3] = ["fluidanimate", "water_nsquared", "barnes"];

/// Figure 5: scalability at 8, 16, and 32 threads.
#[must_use]
pub fn fig5(scale: f64) -> Fig5Result {
    let mut points = Vec::new();
    let mut geomeans = Vec::new();
    let mut geomeans_excl = Vec::new();
    for &threads in &[8usize, 16, 32] {
        let mut all = Vec::new();
        let mut excl = Vec::new();
        for spec in specs::benchmarks() {
            let r = run_workload(&spec, &SynthConfig { threads, scale }, 9);
            let kard_pct = r.kard_pct();
            points.push(Fig5Point {
                name: spec.name.to_string(),
                threads,
                kard_pct,
            });
            all.push(kard_pct);
            if !FIG5_WORST.contains(&spec.name) {
                excl.push(kard_pct);
            }
        }
        geomeans.push((threads, geomean_pct(&all)));
        geomeans_excl.push((threads, geomean_pct(&excl)));
    }
    Fig5Result {
        points,
        geomeans,
        geomeans_excl_worst: geomeans_excl,
    }
}

/// Render Figure 5.
#[must_use]
pub fn fig5_text(scale: f64) -> String {
    let result = fig5(scale);
    let mut out = format!(
        "Figure 5: scalability (scale {scale})\n{:<16} {:>9} {:>9} {:>9}\n",
        "benchmark", "t=8", "t=16", "t=32"
    );
    for spec in specs::benchmarks() {
        let series: Vec<f64> = [8usize, 16, 32]
            .iter()
            .map(|&t| {
                result
                    .points
                    .iter()
                    .find(|p| p.name == spec.name && p.threads == t)
                    .map_or(0.0, |p| p.kard_pct)
            })
            .collect();
        out.push_str(&format!(
            "{:<16} {:>9.1} {:>9.1} {:>9.1}\n",
            spec.name, series[0], series[1], series[2]
        ));
    }
    out.push_str("\nGEOMEAN          ");
    for (t, g) in &result.geomeans {
        out.push_str(&format!("t={t}: {}  ", pct(*g)));
    }
    out.push_str("(paper: 24.4 / 63.1 / 107.2%)\n");
    out.push_str("GEOMEAN excl. worst 3  ");
    for (t, g) in &result.geomeans_excl_worst {
        out.push_str(&format!("t={t}: {}  ", pct(*g)));
    }
    out.push_str("(paper: 5.8 / 12.4 / 19.0%)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_paper() {
        let outcomes = fig1();
        assert!(outcomes[0].violation, "exclusive write violates");
        assert!(!outcomes[1].violation, "shared read does not");
    }

    #[test]
    fn fig2_consolidation_ratio() {
        let series = fig2();
        let at_128 = series.iter().find(|m| m.objects == 128).unwrap();
        assert_eq!(at_128.virtual_pages, 128);
        assert_eq!(at_128.physical_bytes, PAGE_SIZE);
        let at_129 = series.iter().find(|m| m.objects == 129).unwrap();
        assert_eq!(at_129.physical_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn fig3_ends_with_one_report() {
        let outcome = fig3();
        assert_eq!(outcome.reports, 1);
        assert_eq!(outcome.stages.len(), 4);
    }

    #[test]
    fn fig4_prunes_only_different_offsets() {
        let outcomes = fig4();
        assert_eq!(outcomes[0].reports, 1, "same offset stays");
        assert_eq!(outcomes[0].pruned, 0);
        assert_eq!(outcomes[1].reports, 0, "different offsets pruned");
        assert_eq!(outcomes[1].pruned, 1);
        assert!(outcomes.iter().all(|o| o.interleave_faults >= 1));
    }

    #[test]
    fn fig5_overhead_grows_with_threads() {
        let result = fig5(5e-4);
        let g: Vec<f64> = result.geomeans.iter().map(|&(_, g)| g).collect();
        assert!(g[0] <= g[2] + 1e-9, "t=8 {} vs t=32 {}", g[0], g[2]);
        // Excluding the worst three must not raise the geomean.
        for ((_, all), (_, excl)) in result.geomeans.iter().zip(&result.geomeans_excl_worst) {
            assert!(excl <= all, "excl {excl} all {all}");
        }
    }
}
