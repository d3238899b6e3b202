//! Experiments on the subsystems grown around the paper's detector: the
//! virtualized key cache, production-mode budgets, the sharded fault
//! path, and the three-tier allocator.
//!
//! Like every experiment in this crate they read only the simulator's
//! virtual clock, so each is a pure function of its size arguments and
//! `kard-tables extensions` prints the same bytes on every run, host and
//! build profile (`extension_tables_output.txt` pins them). Each module
//! exports the full size `kard-tables` runs as constants; the gates in the
//! module's tests run at that size. Wall-clock questions — throughput,
//! latency under real threads — belong to `benchmark/` instead.

use kard_core::DetectorStats;

pub mod alloctiers;
pub mod faultlatency;
pub mod keypressure;
pub mod production;

/// Faults of every class the detector resolved.
fn total_faults(stats: &DetectorStats) -> u64 {
    stats.identification_faults
        + stats.migration_faults
        + stats.race_check_faults
        + stats.interleave_faults
}
