//! Regeneration of the paper's Tables 1–6.

use crate::{pct, thousands};
use kard_core::KardConfig;
use kard_rt::{KardExecutor, Session};
use kard_sim::{CodeSite, KeyLayout, MachineConfig};
use kard_trace::replay::replay;
use kard_workloads::apps::{self, distinct_kard_objects, distinct_raced_objects};
use kard_workloads::racegen::{scenario, Category};
use kard_workloads::runner::{run_workload, ComparisonResult};
use kard_workloads::spec::geomean_pct;
use kard_workloads::synth::SynthConfig;
use kard_workloads::table3 as specs;
use serde::Serialize;

fn run_scenario_kard(category: Category, variant: u64) -> usize {
    let s = scenario(category, 1, variant);
    let session = Session::new();
    let mut exec = KardExecutor::new(session.kard().clone());
    replay(
        &kard_trace::schedule::interleave_round_robin(&s.programs),
        &mut exec,
    );
    exec.reports().len()
}

/// One row of Table 1.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Row {
    /// Thread 1's lock usage.
    pub t1: &'static str,
    /// Thread 2's lock usage.
    pub t2: &'static str,
    /// In ILU scope per the paper.
    pub ilu_paper: bool,
    /// Whether Kard reported the conflict (write variant).
    pub kard_detects: bool,
}

/// Table 1: the ILU scope, validated by running each row through Kard.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            t1: "With lock l_a",
            t2: "With lock l_b",
            ilu_paper: true,
            kard_detects: run_scenario_kard(Category::BothLockedDifferent, 0) > 0,
        },
        Table1Row {
            t1: "With lock l_a",
            t2: "No lock",
            ilu_paper: true,
            kard_detects: run_scenario_kard(Category::FirstLockedOnly, 0) > 0,
        },
        Table1Row {
            t1: "No lock",
            t2: "With lock l_b",
            ilu_paper: true,
            kard_detects: run_scenario_kard(Category::SecondLockedOnly, 0) > 0,
        },
        Table1Row {
            t1: "No lock",
            t2: "No lock",
            ilu_paper: false,
            kard_detects: run_scenario_kard(Category::NoLocks, 0) > 0,
        },
    ]
}

/// Render Table 1.
#[must_use]
pub fn table1_text() -> String {
    let mut out = String::from(
        "Table 1: inconsistent lock usage between concurrent accesses\n\
         t1              t2              ILU   Kard detects\n",
    );
    for row in table1() {
        out.push_str(&format!(
            "{:<15} {:<15} {:<5} {}\n",
            row.t1,
            row.t2,
            if row.ilu_paper { "yes" } else { "no" },
            if row.kard_detects { "yes" } else { "no" }
        ));
    }
    out
}

/// One row of Table 2.
#[derive(Clone, Debug, Serialize)]
pub struct Table2Row {
    /// System name.
    pub system: &'static str,
    /// Requires expensive memory instrumentation.
    pub mem_instrumentation: bool,
    /// Requires system (software or hardware) changes.
    pub system_change: bool,
    /// Requires developer effort.
    pub developer_effort: bool,
    /// Detection scope.
    pub scope: &'static str,
    /// Qualitative overhead, as the paper reports it.
    pub overhead: &'static str,
    /// Overhead measured in this reproduction, when the system is
    /// implemented here (`None` for paper-only rows).
    pub measured_pct: Option<f64>,
}

/// Table 2: the comparison table, with measured overheads attached for the
/// three systems this repository implements (Kard, a TSan/FastTrack model,
/// an Eraser lockset model).
#[must_use]
pub fn table2(scale: f64) -> Vec<Table2Row> {
    // Measure Kard and the TSan model on a representative workload mix.
    let cfg = SynthConfig { threads: 4, scale };
    let mut kard = Vec::new();
    let mut tsan = Vec::new();
    for name in ["streamcluster", "raytrace", "memcached", "pigz"] {
        let r = run_workload(&specs::by_name(name).expect("known"), &cfg, 1);
        kard.push(r.kard_pct());
        tsan.push(r.tsan_pct);
    }
    vec![
        Table2Row {
            system: "Eraser (lockset)",
            mem_instrumentation: true,
            system_change: false,
            developer_effort: false,
            scope: "ILU",
            overhead: "Very high",
            measured_pct: Some(geomean_pct(&tsan)), // Per-access cost model, like TSan's.
        },
        Table2Row {
            system: "TSan (FastTrack)",
            mem_instrumentation: true,
            system_change: false,
            developer_effort: false,
            scope: "ILU+",
            overhead: "Very high",
            measured_pct: Some(geomean_pct(&tsan)),
        },
        Table2Row {
            system: "HARD",
            mem_instrumentation: false,
            system_change: true,
            developer_effort: false,
            scope: "ILU",
            overhead: "Low",
            measured_pct: None,
        },
        Table2Row {
            system: "Conflict Exception",
            mem_instrumentation: false,
            system_change: true,
            developer_effort: false,
            scope: "ILU+",
            overhead: "Low",
            measured_pct: None,
        },
        Table2Row {
            system: "DataCollider (sampling)",
            mem_instrumentation: false,
            system_change: false,
            developer_effort: false,
            scope: "Sampled (ILU+)",
            overhead: "Low/moderate",
            measured_pct: None,
        },
        Table2Row {
            system: "PUSh",
            mem_instrumentation: false,
            system_change: true,
            developer_effort: true,
            scope: "ILU",
            overhead: "Low",
            measured_pct: None,
        },
        Table2Row {
            system: "Kard (this work)",
            mem_instrumentation: false,
            system_change: false,
            developer_effort: false,
            scope: "ILU",
            overhead: "Low",
            measured_pct: Some(geomean_pct(&kard)),
        },
    ]
}

/// Render Table 2.
#[must_use]
pub fn table2_text(scale: f64) -> String {
    let mut out = String::from(
        "Table 2: comparison between Kard and existing approaches\n\
         System                    MI  SC  DE  Scope           Overhead      Measured here\n",
    );
    for row in table2(scale) {
        let flag = |b: bool| if b { "x" } else { "-" };
        out.push_str(&format!(
            "{:<25} {:<3} {:<3} {:<3} {:<15} {:<13} {}\n",
            row.system,
            flag(row.mem_instrumentation),
            flag(row.system_change),
            flag(row.developer_effort),
            row.scope,
            row.overhead,
            row.measured_pct.map_or_else(|| "n/a (not built)".into(), pct),
        ));
    }
    out
}

/// One measured row of Table 3.
#[derive(Clone, Debug, Serialize)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Real-world app (vs benchmark suite).
    pub real_world: bool,
    /// Critical-section entries executed (scaled).
    pub cs_entries: u64,
    /// Objects the detector identified as shared.
    pub objects_identified: u64,
    /// Measured Alloc overhead (%).
    pub alloc_pct: f64,
    /// Paper's Alloc overhead (%).
    pub paper_alloc_pct: f64,
    /// Measured Kard overhead (%).
    pub kard_pct: f64,
    /// Paper's Kard overhead (%).
    pub paper_kard_pct: f64,
    /// Modelled TSan overhead (%).
    pub tsan_pct: f64,
    /// Paper's TSan overhead (%).
    pub paper_tsan_pct: f64,
    /// Measured memory overhead (%), extrapolated to full scale.
    pub mem_pct: f64,
    /// Paper's memory overhead (%).
    pub paper_mem_pct: f64,
    /// Measured baseline dTLB miss rate.
    pub dtlb_baseline: f64,
    /// Measured Kard dTLB miss-rate increase (%).
    pub dtlb_kard_pct: f64,
    /// Races reported (expected 0 on benchmarks).
    pub races: usize,
}

impl From<&ComparisonResult> for Table3Row {
    fn from(r: &ComparisonResult) -> Table3Row {
        Table3Row {
            name: r.spec.name.to_string(),
            real_world: r.spec.suite == kard_workloads::Suite::RealWorld,
            cs_entries: r.kard_stats.cs_entries,
            objects_identified: r.kard_stats.objects_identified,
            alloc_pct: r.alloc_pct(),
            paper_alloc_pct: r.spec.paper.alloc_pct,
            kard_pct: r.kard_pct(),
            paper_kard_pct: r.spec.paper.kard_pct,
            tsan_pct: r.tsan_pct,
            paper_tsan_pct: r.spec.paper.tsan_pct,
            mem_pct: r.kard_mem_pct(),
            paper_mem_pct: r.spec.paper.kard_mem_pct,
            dtlb_baseline: r.baseline.dtlb_miss_rate,
            dtlb_kard_pct: r.dtlb_kard_pct(),
            races: r.kard_races,
        }
    }
}

/// Summary of Table 3 (the paper's headline geomeans).
#[derive(Clone, Debug, Serialize)]
pub struct Table3Summary {
    /// Per-workload rows.
    pub rows: Vec<Table3Row>,
    /// Geomean Kard overhead across benchmarks (paper: 7.0%).
    pub bench_kard_geomean: f64,
    /// Geomean Kard overhead across real-world apps (paper: 5.3%).
    pub real_kard_geomean: f64,
    /// Geomean Alloc overhead across benchmarks (paper: 1.0%).
    pub bench_alloc_geomean: f64,
    /// Geomean TSan overhead across benchmarks (paper: 690.9%).
    pub bench_tsan_geomean: f64,
    /// Geomean memory overhead across benchmarks (paper: 68.0%).
    pub bench_mem_geomean: f64,
}

/// Table 3: run every workload at `scale` with 4 threads.
#[must_use]
pub fn table3(scale: f64) -> Table3Summary {
    let cfg = SynthConfig { threads: 4, scale };
    let rows: Vec<Table3Row> = specs::all()
        .iter()
        .map(|spec| Table3Row::from(&run_workload(spec, &cfg, 7)))
        .collect();
    let bench: Vec<&Table3Row> = rows.iter().filter(|r| !r.real_world).collect();
    let real: Vec<&Table3Row> = rows.iter().filter(|r| r.real_world).collect();
    let collect = |rows: &[&Table3Row], f: fn(&Table3Row) -> f64| -> Vec<f64> {
        rows.iter().map(|r| f(r)).collect()
    };
    Table3Summary {
        bench_kard_geomean: geomean_pct(&collect(&bench, |r| r.kard_pct)),
        real_kard_geomean: geomean_pct(&collect(&real, |r| r.kard_pct)),
        bench_alloc_geomean: geomean_pct(&collect(&bench, |r| r.alloc_pct)),
        bench_tsan_geomean: geomean_pct(&collect(&bench, |r| r.tsan_pct)),
        bench_mem_geomean: geomean_pct(&collect(&bench, |r| r.mem_pct)),
        rows,
    }
}

/// Render Table 3 with measured-vs-paper columns.
#[must_use]
pub fn table3_text(scale: f64) -> String {
    let summary = table3(scale);
    let mut out = format!(
        "Table 3: execution statistics and overheads (4 threads, scale {scale})\n\
         {:<16} {:>10} {:>7} | {:>8} {:>8} | {:>8} {:>8} | {:>9} {:>9} | {:>10} {:>10} | {:>6}\n",
        "benchmark", "entries", "shared",
        "alloc%", "(paper)", "kard%", "(paper)", "tsan%", "(paper)", "mem%", "(paper)", "races"
    );
    for r in &summary.rows {
        out.push_str(&format!(
            "{:<16} {:>10} {:>7} | {:>8.1} {:>8.1} | {:>8.1} {:>8.1} | {:>9.0} {:>9.1} | {:>10.0} {:>10.1} | {:>6}\n",
            r.name,
            thousands(r.cs_entries),
            r.objects_identified,
            r.alloc_pct, r.paper_alloc_pct,
            r.kard_pct, r.paper_kard_pct,
            r.tsan_pct, r.paper_tsan_pct,
            r.mem_pct, r.paper_mem_pct,
            r.races
        ));
    }
    out.push_str(&format!(
        "\nGEOMEAN (benchmarks)  alloc {} (paper +1.0%)  kard {} (paper +7.0%)  tsan {} (paper +690.9%)  mem {} (paper +68.0%)\n",
        pct(summary.bench_alloc_geomean),
        pct(summary.bench_kard_geomean),
        pct(summary.bench_tsan_geomean),
        pct(summary.bench_mem_geomean),
    ));
    out.push_str(&format!(
        "GEOMEAN (real-world)  kard {} (paper +5.3%)\n",
        pct(summary.real_kard_geomean)
    ));
    out
}

/// One row of Table 4. "Bad outcomes" are missed races for the
/// false-negative row and spurious reports for the false-positive rows.
#[derive(Clone, Debug, Serialize)]
pub struct Table4Row {
    /// Issue class.
    pub issue: &'static str,
    /// Mitigation per the paper.
    pub mitigation: &'static str,
    /// Bad outcomes without the mitigation.
    pub bad_without: usize,
    /// Bad outcomes with the mitigation.
    pub bad_with: usize,
}

/// Table 4: demonstrate each FP/FN class and its mitigation by running the
/// triggering scenario with the mitigation disabled and enabled.
#[must_use]
pub fn table4() -> Vec<Table4Row> {
    use kard_core::LockId;

    // Different-offset FP: two threads write disjoint offsets of one
    // object under different locks, in sections long enough for
    // interleaving to act.
    let run_offsets = |interleaving: bool| -> usize {
        let config = KardConfig {
            protection_interleaving: interleaving,
            ..KardConfig::default()
        };
        let session = Session::builder().config(config).build();
        let kard = session.kard().clone();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 256);
        kard.lock_enter(t1, LockId(1), CodeSite(0xa));
        kard.write(t1, o.base, CodeSite(0xa1));
        kard.lock_enter(t2, LockId(2), CodeSite(0xb));
        kard.write(t2, o.base.offset(128), CodeSite(0xb1));
        kard.write(t1, o.base, CodeSite(0xa2)); // Interleave counterpart.
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));
        kard.reports().len()
    };

    // Non-access FP: section A proactively holds the key although this
    // execution's branch touches a *different* part of the object than
    // section B does (the paper's "conditional branches in critical
    // sections" case). The conflicting access faults against the
    // proactively held key; interleaving then observes each section's
    // actual bytes and prunes the warning.
    let run_non_access = |interleaving: bool| -> usize {
        let config = KardConfig {
            protection_interleaving: interleaving,
            ..KardConfig::default()
        };
        let session = Session::builder().config(config).build();
        let kard = session.kard().clone();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let o = kard.on_alloc(t1, 64);
        // Teach section A that it writes o (offset 0 path).
        kard.lock_enter(t1, LockId(1), CodeSite(0xa));
        kard.write(t1, o.base, CodeSite(0xa1));
        kard.lock_exit(t1, LockId(1));
        // Re-enter section A: the key is proactively held before any
        // access. Section B writes offset 32 and faults; section A's
        // actual access this round is offset 0 again.
        kard.lock_enter(t1, LockId(1), CodeSite(0xa));
        kard.lock_enter(t2, LockId(2), CodeSite(0xb));
        kard.write(t2, o.base.offset(32), CodeSite(0xb1));
        kard.write(t1, o.base, CodeSite(0xa2));
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));
        kard.reports().len()
    };

    // Key-sharing FN: with a single pool key, two sections share it and a
    // real ILU race on a common object goes unreported. The mitigation —
    // sharing keys only between sections with disjoint object sets — is
    // exercised by giving the detector enough keys (the default layout) so
    // sharing never happens and the race is caught.
    let run_sharing = |total_keys: u16| -> usize {
        let mc = MachineConfig {
            key_layout: KeyLayout::with_total_keys(total_keys),
            ..MachineConfig::default()
        };
        let session = Session::builder().machine(mc).build();
        let kard = session.kard().clone();
        let t1 = kard.register_thread();
        let t2 = kard.register_thread();
        let filler = kard.on_alloc(t1, 32);
        let x = kard.on_alloc(t1, 32);
        kard.lock_enter(t1, LockId(1), CodeSite(0xa));
        kard.write(t1, filler.base, CodeSite(0xa1));
        kard.lock_enter(t2, LockId(2), CodeSite(0xb));
        kard.write(t2, x.base, CodeSite(0xb1));
        kard.write(t1, x.base, CodeSite(0xa2)); // The racy access.
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));
        kard.reports().len()
    };

    vec![
        Table4Row {
            issue: "FN: sharing protection keys",
            mitigation: "share only among disjoint sections / enough keys",
            // 1 pool key forces sharing -> the race is missed (0 reports).
            bad_without: 1 - run_sharing(4),
            // 13 pool keys: no sharing, the race is reported.
            bad_with: 1 - run_sharing(16),
        },
        Table4Row {
            issue: "FP: different offset in an object",
            mitigation: "protection interleaving",
            bad_without: run_offsets(false),
            bad_with: run_offsets(true),
        },
        Table4Row {
            issue: "FP: non-access in critical section",
            mitigation: "protection interleaving",
            bad_without: run_non_access(false),
            bad_with: run_non_access(true),
        },
    ]
}

/// Render Table 4.
#[must_use]
pub fn table4_text() -> String {
    let mut out = String::from(
        "Table 4: potential false negatives/positives and mitigations\n\
         issue                                   mitigation                                        without  with\n",
    );
    for r in table4() {
        out.push_str(&format!(
            "{:<39} {:<49} {:>7} {:>5}\n",
            r.issue, r.mitigation, r.bad_without, r.bad_with
        ));
    }
    out
}

/// One column of Table 5 (a thread count).
#[derive(Clone, Debug, Serialize)]
pub struct Table5Col {
    /// Worker threads used.
    pub threads: usize,
    /// Total executed critical sections.
    pub total_cs: u64,
    /// Unique sections executed.
    pub unique_cs: u64,
    /// Maximum concurrently executing sections.
    pub max_concurrent_cs: u64,
    /// Key recycling events.
    pub recycles: u64,
    /// Key sharing events.
    pub shares: u64,
}

/// Table 5: memcached under increasing thread counts.
#[must_use]
pub fn table5(requests: u64) -> Vec<Table5Col> {
    [4usize, 8, 16, 32]
        .iter()
        .map(|&threads| {
            let model = apps::memcached(threads, requests);
            let session = Session::new();
            let mut exec = KardExecutor::new(session.kard().clone());
            replay(&model.program.trace_seeded(5), &mut exec);
            let stats = exec.stats();
            Table5Col {
                threads,
                total_cs: stats.cs_entries,
                unique_cs: stats.unique_sections,
                max_concurrent_cs: stats.max_concurrent_sections,
                recycles: stats.key_recycles,
                shares: stats.key_shares,
            }
        })
        .collect()
}

/// The `kard-tables --stats-json` payload: one full
/// [`KardSnapshot`](kard_core::KardSnapshot), serialized exactly as the
/// embedded runtime's `Session::snapshot` and the firehose `/statsz`
/// per-shard `detector` block serialize it. All three stats surfaces
/// emit one shape instead of each hand-assembling overlapping JSON; the
/// field-for-field agreement is round-trip tested in
/// `tests/stats_surfaces.rs`.
#[derive(Clone, Copy, Debug)]
pub struct FinalStats {
    /// The run's full detector snapshot: detection counters, virtual-key
    /// cache, allocator, fault shards, and the production-mode controller.
    pub snapshot: kard_core::KardSnapshot,
}

impl FinalStats {
    /// The JSON shape written by `--stats-json`.
    ///
    /// # Panics
    ///
    /// Never in practice — the snapshot always serializes.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self.snapshot).expect("snapshot serializes")
    }
}

/// Final detector statistics for one memcached run — the machine-readable
/// counterpart to Table 5's derived columns, exposed for
/// `kard-tables --stats-json`.
#[must_use]
pub fn final_stats(threads: usize, requests: u64) -> FinalStats {
    let model = apps::memcached(threads, requests);
    let session = Session::new();
    let mut exec = KardExecutor::new(session.kard().clone());
    replay(&model.program.trace_seeded(5), &mut exec);
    FinalStats {
        snapshot: session.snapshot(),
    }
}

/// Render Table 5.
#[must_use]
pub fn table5_text(requests: u64) -> String {
    let cols = table5(requests);
    let mut out = String::from("Table 5: memcached threads vs critical sections and key events\n");
    let row = |label: &str, f: &dyn Fn(&Table5Col) -> String| {
        let mut line = format!("{label:<28}");
        for c in &cols {
            line.push_str(&format!("{:>10}", f(c)));
        }
        line.push('\n');
        line
    };
    out.push_str(&row("Number of threads", &|c| c.threads.to_string()));
    out.push_str(&row("Total executed CS", &|c| thousands(c.total_cs)));
    out.push_str(&row("Uniquely executed CS", &|c| c.unique_cs.to_string()));
    out.push_str(&row("Max concurrent CS", &|c| c.max_concurrent_cs.to_string()));
    out.push_str(&row("Key recycling events", &|c| c.recycles.to_string()));
    out.push_str(&row("Key sharing events", &|c| c.shares.to_string()));
    out
}

/// One row of Table 6.
#[derive(Clone, Debug, Serialize)]
pub struct Table6Row {
    /// Application.
    pub app: &'static str,
    /// Races Kard reported (distinct objects).
    pub kard: usize,
    /// Expected Kard count from the paper.
    pub kard_paper: usize,
    /// Of which false positives.
    pub kard_fp: usize,
    /// TSan ILU races (distinct objects, FastTrack model).
    pub tsan_ilu: usize,
    /// Paper's TSan ILU count.
    pub tsan_ilu_paper: usize,
    /// TSan non-ILU races.
    pub tsan_non_ilu: usize,
}

/// Table 6: real-world races reported by Kard and the TSan model.
#[must_use]
pub fn table6(workers: usize, iterations: u64) -> Vec<Table6Row> {
    apps::all_apps(workers, iterations)
        .into_iter()
        .map(|model| {
            let trace = model.program.trace_round_robin();
            let session = Session::new();
            let mut kard = KardExecutor::new(session.kard().clone());
            replay(&trace, &mut kard);
            let mut ft = kard_baselines::FastTrack::new();
            replay(&trace, &mut ft);
            Table6Row {
                app: model.name,
                kard: distinct_kard_objects(&kard.reports()),
                kard_paper: model.expected.kard,
                kard_fp: model.expected.kard_false_positives,
                tsan_ilu: distinct_raced_objects(ft.races()),
                tsan_ilu_paper: model.expected.tsan_ilu,
                tsan_non_ilu: model.expected.tsan_non_ilu,
            }
        })
        .collect()
}

/// Render Table 6.
#[must_use]
pub fn table6_text(workers: usize, iterations: u64) -> String {
    let mut out = String::from(
        "Table 6: real-world data races reported\n\
         application   Kard  (paper)  FP   TSan-ILU  (paper)  TSan-non-ILU\n",
    );
    for r in table6(workers, iterations) {
        out.push_str(&format!(
            "{:<13} {:>4} {:>8} {:>3} {:>9} {:>8} {:>13}\n",
            r.app, r.kard, r.kard_paper, r.kard_fp, r.tsan_ilu, r.tsan_ilu_paper, r.tsan_non_ilu
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_ilu_scope() {
        let rows = table1();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(
                row.kard_detects, row.ilu_paper,
                "Kard must detect exactly the ILU rows: {row:?}"
            );
        }
    }

    #[test]
    fn table4_mitigations_work() {
        for row in table4() {
            assert!(
                row.bad_without > row.bad_with,
                "mitigation must reduce bad outcomes: {row:?}"
            );
            assert_eq!(row.bad_with, 0, "mitigated scenario is clean: {row:?}");
        }
    }

    #[test]
    fn table5_trends_with_threads() {
        let cols = table5(30);
        assert_eq!(cols.len(), 4);
        assert!(cols[0].total_cs < cols[3].total_cs);
        assert!(
            cols[3].max_concurrent_cs >= cols[0].max_concurrent_cs,
            "more threads, more concurrency"
        );
        assert!(cols[0].recycles > 0, "4-thread run must recycle");
        assert!(
            cols.iter().all(|c| c.recycles + c.shares > 0),
            "key pressure must show at every thread count: {cols:?}"
        );
    }

    #[test]
    fn table6_matches_paper() {
        for row in table6(3, 40) {
            assert_eq!(row.kard, row.kard_paper, "{row:?}");
            assert_eq!(row.tsan_ilu, row.tsan_ilu_paper, "{row:?}");
            assert_eq!(row.tsan_non_ilu, 0, "{row:?}");
        }
    }

    #[test]
    fn table3_small_scale_shape() {
        let summary = table3(1e-3);
        assert_eq!(summary.rows.len(), 19);
        assert!(summary.rows.iter().all(|r| r.races == 0), "no benchmark races");
        // Shape assertions: TSan way above Kard; Kard small on average.
        assert!(summary.bench_tsan_geomean > 10.0 * summary.bench_kard_geomean.max(1.0));
        let fluid = summary.rows.iter().find(|r| r.name == "fluidanimate").unwrap();
        let stream = summary.rows.iter().find(|r| r.name == "streamcluster").unwrap();
        assert!(fluid.kard_pct > stream.kard_pct);
        let water = summary.rows.iter().find(|r| r.name == "water_nsquared").unwrap();
        assert!(water.mem_pct > 500.0, "water_nsquared mem {:.0}%", water.mem_pct);
    }
}
