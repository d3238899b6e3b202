//! Workload specifications: the paper's measured execution statistics.

use serde::{Deserialize, Serialize};

/// Which benchmark suite a workload belongs to (Table 3 groups).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// PARSEC 3.0.
    Parsec,
    /// SPLASH-2x.
    Splash2x,
    /// Real-world application (NGINX, memcached, pigz, Aget).
    RealWorld,
}

/// Paper-reported results for one workload (Table 3's output columns),
/// kept for EXPERIMENTS.md's paper-vs-measured comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PaperResults {
    /// "Alloc" execution-time overhead (%).
    pub alloc_pct: f64,
    /// Kard execution-time overhead (%).
    pub kard_pct: f64,
    /// TSan execution-time overhead (%).
    pub tsan_pct: f64,
    /// Kard peak-memory overhead (%).
    pub kard_mem_pct: f64,
    /// Alloc dTLB miss-rate increase (%).
    pub dtlb_alloc_pct: f64,
    /// Kard dTLB miss-rate increase (%).
    pub dtlb_kard_pct: f64,
}

/// One workload's model parameters.
///
/// The *input* fields (objects, sections, entries, baseline time/memory)
/// come straight from Table 3; the synthetic generator reproduces them at
/// a configurable scale. The *model* fields control access patterns that
/// Table 3 does not pin down (touches per entry); defaults are uniform and
/// per-workload overrides are documented where the paper motivates them.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Benchmark name as printed in Table 3.
    pub name: &'static str,
    /// Which suite it belongs to.
    pub suite: Suite,
    /// Sharable heap objects allocated.
    pub heap_objects: u64,
    /// Sharable global objects.
    pub global_objects: u64,
    /// Shared objects that end in the Read-only domain.
    pub shared_ro: u64,
    /// Shared objects that end in the Read-write domain.
    pub shared_rw: u64,
    /// Distinct critical sections in the program.
    pub total_sections: u64,
    /// Maximum concurrently active critical sections.
    pub active_sections: u64,
    /// Total critical-section entries (4-thread run).
    pub cs_entries: u64,
    /// Baseline execution time in seconds (4 threads, paper's machine).
    pub baseline_secs: f64,
    /// Baseline peak RSS in bytes (Table 3 column, reported in KiB there).
    pub baseline_rss_bytes: u64,
    /// Baseline dTLB miss rate.
    pub baseline_dtlb_miss: f64,
    /// Average heap-object size in bytes (paper gives it for some
    /// workloads, e.g. 24 B for water_nsquared; others default to 32 B).
    pub avg_object_size: u64,
    /// Shared read-only objects touched per critical-section entry.
    pub ro_touches_per_entry: u64,
    /// Shared read-write objects touched per critical-section entry.
    pub rw_touches_per_entry: u64,
    /// Private (non-shared) objects touched outside critical sections per
    /// entry — drives baseline memory traffic and dTLB pressure.
    pub private_touches_per_entry: u64,
    /// Fraction of the persistent heap population resident (first-touched)
    /// at peak. Most workloads touch everything they allocate (1.0); NGINX
    /// keeps only its active connection state resident while the remaining
    /// allocations are transient.
    pub resident_fraction: f64,
    /// Short-lived heap objects allocated, touched, and freed per entry
    /// (request/connection churn). `heap_objects` counts *total*
    /// allocations, so churned allocations are subtracted from the
    /// persistent population. NGINX is the churn-dominated workload.
    pub churn_per_entry: u64,
    /// Paper-reported results for comparison.
    pub paper: PaperResults,
}

impl WorkloadSpec {
    /// Baseline execution time converted to cycles on the paper's 2.1 GHz
    /// machine.
    #[must_use]
    pub fn baseline_cycles(&self) -> u64 {
        kard_sim::CostModel::seconds_to_cycles(self.baseline_secs)
    }
}

/// Geometric mean of a set of percentage overheads, computed the way the
/// paper does (over ratios `1 + pct/100`, tolerating small negatives).
#[must_use]
pub fn geomean_pct(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|pct| (1.0 + pct / 100.0).max(1e-9).ln())
        .sum();
    ((log_sum / values.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table3;

    #[test]
    fn geomean_matches_paper_for_kard_column() {
        // Sanity-check the geomean definition against the paper's own
        // numbers: the 15 benchmark Kard overheads must combine to ~7.0%.
        let kard: Vec<f64> = table3::benchmarks()
            .iter()
            .map(|s| s.paper.kard_pct)
            .collect();
        let g = geomean_pct(&kard);
        assert!(
            (g - 7.0).abs() < 0.5,
            "paper reports 7.0% geomean, definition gives {g:.2}%"
        );
    }

    #[test]
    fn geomean_of_real_world_kard_column() {
        let kard: Vec<f64> = table3::real_world()
            .iter()
            .map(|s| s.paper.kard_pct)
            .collect();
        let g = geomean_pct(&kard);
        assert!((g - 5.3).abs() < 0.5, "paper reports 5.3%, got {g:.2}%");
    }

    #[test]
    fn geomean_handles_empty_and_identity() {
        assert_eq!(geomean_pct(&[]), 0.0);
        assert!((geomean_pct(&[10.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn derived_quantities() {
        let s = table3::by_name("streamcluster").unwrap();
        assert_eq!(s.baseline_cycles(), (4.96 * 2.1e9) as u64);
    }
}
