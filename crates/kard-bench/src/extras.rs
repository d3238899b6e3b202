//! Experiments beyond the numbered tables/figures: the §7.2 NGINX
//! file-size sweep, the §3.1 ILU-share study, and the DESIGN.md ablations.

use crate::pct;
use kard_core::{ExhaustionPolicy, KardConfig, KeyMode};
use kard_rt::{KardExecutor, Session};
use kard_sim::{KeyLayout, MachineConfig, ProtectionMechanism};
use kard_trace::replay::replay;
use kard_workloads::apps;
use kard_workloads::racegen::{classify_corpus, generate_corpus, CorpusMix, CorpusReport};
use kard_workloads::runner::{run_workload, run_workload_configured};
use kard_workloads::synth::SynthConfig;
use kard_workloads::table3 as specs;
use serde::Serialize;

/// One point of the NGINX file-size sweep.
#[derive(Clone, Debug, Serialize)]
pub struct NginxSweepPoint {
    /// Served file size in bytes.
    pub file_size: u64,
    /// Modelled request latency overhead (%).
    pub overhead_pct: f64,
}

/// §7.2: Kard's overhead on NGINX shrinks as the served file grows,
/// because per-request I/O amortizes the fixed per-request detection cost
/// (paper: 58.7% at 128 kB down to 8.8% at 1 MB).
///
/// The per-request *added* cycles are measured from the NGINX workload
/// model; the per-request baseline combines a fixed CPU cost with a
/// byte-proportional transfer cost.
#[must_use]
pub fn nginx_sweep(scale: f64) -> Vec<NginxSweepPoint> {
    let spec = specs::by_name("nginx").expect("table row");
    let r = run_workload(&spec, &SynthConfig { threads: 4, scale }, 3);
    let entries = r.kard_stats.cs_entries.max(1);
    // NGINX's accept/release pattern: ~2 section entries per request.
    let added_per_request = 2 * (r.kard.cycles.saturating_sub(r.baseline.cycles)) / entries;

    /// Fixed CPU work per request (parsing, headers, syscalls).
    const CPU_PER_REQUEST: f64 = 40_000.0;
    /// Serving cost per byte (copy + socket push at memory bandwidth).
    const CYCLES_PER_BYTE: f64 = 0.35;

    [128 * 1024u64, 256 * 1024, 512 * 1024, 1024 * 1024]
        .iter()
        .map(|&size| {
            let baseline = CPU_PER_REQUEST + CYCLES_PER_BYTE * size as f64;
            NginxSweepPoint {
                file_size: size,
                overhead_pct: 100.0 * added_per_request as f64 / baseline,
            }
        })
        .collect()
}

/// Render the NGINX sweep.
#[must_use]
pub fn nginx_sweep_text(scale: f64) -> String {
    let mut out = String::from(
        "NGINX file-size sweep (§7.2; paper: 58.7% at 128kB ... 8.8% at 1MB)\n\
         file size   overhead\n",
    );
    for p in nginx_sweep(scale) {
        out.push_str(&format!(
            "{:>7} kB   {}\n",
            p.file_size / 1024,
            pct(p.overhead_pct)
        ));
    }
    out
}

/// §3.1: measure the ILU share of a randomly generated race corpus with
/// the paper's category mix (expected ≈ 69%).
#[must_use]
pub fn ilu_share(n: usize, seed: u64) -> CorpusReport {
    classify_corpus(&generate_corpus(n, &CorpusMix::default(), seed))
}

/// Render the ILU-share study.
#[must_use]
pub fn ilu_share_text(n: usize, seed: u64) -> String {
    let report = ilu_share(n, seed);
    format!(
        "ILU share of racy corpus (§3.1; paper: 69% of 100 fixed TSan bugs)\n\
         scenarios: {}\n\
         TSan-model detections: {}\n\
         Kard detections (ILU): {}\n\
         measured ILU share: {:.1}%\n",
        report.total,
        report.tsan_detected,
        report.kard_detected,
        100.0 * report.ilu_share()
    )
}

/// Detection probability per Table 1 category across seeded schedules.
#[derive(Clone, Debug, Serialize)]
pub struct SensitivityRow {
    /// Category label.
    pub category: String,
    /// Fraction of seeds under which Kard reported the race.
    pub detection_probability: f64,
}

/// §7.3: schedule sensitivity. Kard (like TSan) is schedule-sensitive, so
/// detection is probabilistic across runs; the paper's mitigation is
/// multiple runs (§5.5). This measures per-category detection probability
/// over `seeds` random schedules.
#[must_use]
pub fn sensitivity(seeds: u64) -> Vec<SensitivityRow> {
    use kard_workloads::racegen::{detection_probability, scenario, Category};
    let seed_list: Vec<u64> = (0..seeds).collect();
    [
        Category::BothLockedDifferent,
        Category::FirstLockedOnly,
        Category::SecondLockedOnly,
        Category::NoLocks,
    ]
    .iter()
    .map(|&category| SensitivityRow {
        category: format!("{category:?}"),
        detection_probability: detection_probability(&scenario(category, 1, 0), &seed_list),
    })
    .collect()
}

/// Render the schedule-sensitivity study.
#[must_use]
pub fn sensitivity_text(seeds: u64) -> String {
    let mut out = format!(
        "Schedule sensitivity (§7.3): detection probability over {seeds} seeded schedules
         category                 P(detected)
"
    );
    for row in sensitivity(seeds) {
        out.push_str(&format!(
            "{:<24} {:>10.2}
",
            row.category, row.detection_probability
        ));
    }
    out.push_str(
        "ILU categories detect under many (not all) schedules; NoLocks never
         does — multiple runs raise coverage, as §5.5 prescribes.
",
    );
    out
}

/// One ablation row.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Which design choice is ablated.
    pub what: String,
    /// Configuration label.
    pub config: String,
    /// Measured headline metric.
    pub metric: String,
}

/// DESIGN.md ablations: proactive acquisition, key-pool size, exhaustion
/// policy, and protection interleaving.
#[must_use]
pub fn ablation(scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();

    // (1) Proactive vs purely reactive key acquisition on the CS-entry
    // heavy fluidanimate: reactive-only pays a 24k-cycle fault per first
    // access in every section execution.
    let fluid = specs::by_name("fluidanimate").expect("row");
    for proactive in [true, false] {
        let config = KardConfig {
            proactive_acquisition: proactive,
            ..KardConfig::default()
        };
        let r = run_workload_configured(
            &fluid,
            &SynthConfig { threads: 4, scale },
            5,
            MachineConfig::default(),
            config,
        );
        rows.push(AblationRow {
            what: "proactive key acquisition".into(),
            config: if proactive { "on (paper)" } else { "off" }.into(),
            metric: format!(
                "kard overhead {} / {} faults",
                pct(r.kard_pct()),
                r.kard.faults
            ),
        });
    }

    // (2) Number of hardware keys (§8: Donky-style hardware with ~1024
    // keys removes sharing) on memcached at 32 threads.
    for total_keys in [16u16, 64, 1024] {
        let model = apps::memcached(32, 60);
        let mc = MachineConfig {
            key_layout: KeyLayout::with_total_keys(total_keys),
            ..MachineConfig::default()
        };
        let session = Session::builder().machine(mc).build();
        let mut exec = KardExecutor::new(session.kard().clone());
        replay(&model.program.trace_seeded(5), &mut exec);
        let stats = exec.stats();
        rows.push(AblationRow {
            what: "hardware key count".into(),
            config: format!("{total_keys} keys"),
            metric: format!(
                "{} recycles / {} shares over {} entries",
                stats.key_recycles, stats.key_shares, stats.cs_entries
            ),
        });
    }

    // (3) Exhaustion policy: recycling preference vs immediate sharing.
    for policy in [ExhaustionPolicy::RecycleThenShare, ExhaustionPolicy::ShareOnly] {
        let model = apps::memcached(8, 60);
        let config = KardConfig {
            keys: KeyMode::Direct {
                exhaustion: policy,
                fresh_key_per_object: false,
            },
            ..KardConfig::default()
        };
        let session = Session::builder().config(config).build();
        let mut exec = KardExecutor::new(session.kard().clone());
        replay(&model.program.trace_seeded(5), &mut exec);
        let stats = exec.stats();
        rows.push(AblationRow {
            what: "key-exhaustion policy".into(),
            config: format!("{policy:?}"),
            metric: format!(
                "{} recycles / {} shares (sharing risks FNs, §7.3)",
                stats.key_recycles, stats.key_shares
            ),
        });
    }

    // (4) MPK vs the §8 software fallback: the same detection algorithm
    // over mprotect-class permission changes with TLB flushes. The gap is
    // the entire value proposition of using MPK.
    for mechanism in [ProtectionMechanism::Mpk, ProtectionMechanism::MprotectFallback] {
        let mc = MachineConfig {
            mechanism,
            ..MachineConfig::default()
        };
        let r = run_workload_configured(
            &fluid,
            &SynthConfig { threads: 4, scale },
            5,
            mc,
            KardConfig::default(),
        );
        rows.push(AblationRow {
            what: "protection mechanism (§8)".into(),
            config: format!("{mechanism:?}"),
            metric: format!("fluidanimate kard overhead {}", pct(r.kard_pct())),
        });
    }

    // (5) Protection interleaving on/off on a prunable disjoint-offset
    // conflict (long-enough sections; pigz's tiny sections are the case
    // interleaving cannot help, §7.3).
    for interleaving in [true, false] {
        use kard_core::LockId;
        use kard_sim::CodeSite;
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
        kard.write(t1, o.base, CodeSite(0xa2));
        kard.lock_exit(t2, LockId(2));
        kard.lock_exit(t1, LockId(1));
        rows.push(AblationRow {
            what: "protection interleaving".into(),
            config: if interleaving { "on (paper)" } else { "off" }.into(),
            metric: format!(
                "{} disjoint-offset false positives ({} pruned)",
                kard.reports().len(),
                kard.stats().races_pruned_offset
            ),
        });
    }

    rows
}

/// Render the ablations.
#[must_use]
pub fn ablation_text(scale: f64) -> String {
    let mut out = String::from("Ablations (DESIGN.md §5)\n");
    let mut last = String::new();
    for row in ablation(scale) {
        if row.what != last {
            out.push_str(&format!("\n{}\n", row.what));
            last.clone_from(&row.what);
        }
        out.push_str(&format!("  {:<22} {}\n", row.config, row.metric));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nginx_overhead_decreases_with_file_size() {
        let sweep = nginx_sweep(2e-3);
        assert_eq!(sweep.len(), 4);
        for pair in sweep.windows(2) {
            assert!(
                pair[0].overhead_pct > pair[1].overhead_pct,
                "larger files must amortize the overhead: {pair:?}"
            );
        }
        assert!(sweep[0].overhead_pct > sweep[3].overhead_pct * 2.0);
    }

    #[test]
    fn ilu_share_near_69_pct() {
        let report = ilu_share(200, 17);
        let share = report.ilu_share();
        assert!((0.60..0.78).contains(&share), "share {share}");
    }

    #[test]
    fn sensitivity_shape() {
        let rows = sensitivity(30);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            if row.category == "NoLocks" {
                assert_eq!(row.detection_probability, 0.0);
            } else {
                assert!(
                    row.detection_probability > 0.15,
                    "{row:?} should detect under a fair share of schedules"
                );
            }
        }
    }

    #[test]
    fn ablation_rows_cover_five_axes() {
        let rows = ablation(1e-3);
        let axes: std::collections::BTreeSet<_> =
            rows.iter().map(|r| r.what.clone()).collect();
        assert_eq!(axes.len(), 5);
    }

    #[test]
    fn mprotect_fallback_costs_more_than_mpk() {
        let rows = ablation(1e-3);
        let mech: Vec<&AblationRow> = rows
            .iter()
            .filter(|r| r.what == "protection mechanism (§8)")
            .collect();
        assert_eq!(mech.len(), 2);
        let parse = |r: &AblationRow| -> f64 {
            r.metric
                .split('+')
                .nth(1)
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        let mpk = parse(mech[0]);
        let fallback = parse(mech[1]);
        assert!(
            fallback > 1.5 * mpk,
            "software fallback must cost well beyond MPK: {mpk}% vs {fallback}%"
        );
    }

    #[test]
    fn reactive_only_takes_more_faults() {
        let fluid = specs::by_name("fluidanimate").unwrap();
        let run = |proactive: bool| {
            let config = KardConfig {
                proactive_acquisition: proactive,
                ..KardConfig::default()
            };
            run_workload_configured(
                &fluid,
                &SynthConfig { threads: 4, scale: 1e-3 },
                5,
                MachineConfig::default(),
                config,
            )
        };
        let on = run(true);
        let off = run(false);
        assert!(
            off.kard.faults > 2 * on.kard.faults.max(1),
            "reactive-only must fault per section execution: on={} off={}",
            on.kard.faults,
            off.kard.faults
        );
        assert!(off.kard_pct() > on.kard_pct());
    }

    #[test]
    fn more_keys_means_less_sharing() {
        let rows = ablation(1e-3);
        let shares: Vec<u64> = rows
            .iter()
            .filter(|r| r.what == "hardware key count")
            .map(|r| {
                r.metric
                    .split(" shares")
                    .next()
                    .unwrap()
                    .split_whitespace()
                    .last()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(shares.len(), 3);
        assert!(shares[2] <= shares[0], "1024 keys cannot share more than 16");
    }
}
