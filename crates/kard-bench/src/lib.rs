//! The experiment harness: one function per table and figure of the paper,
//! and one per extension experiment.
//!
//! Every number here is read off the simulator's virtual clock, so every
//! function is pure with respect to its inputs (scale, threads, seed): it
//! returns a structured, serializable result, and a `*_text` / `text`
//! sibling renders the rows the `kard-tables` binary prints. Two golden
//! files at the repository root pin that output (`tests/golden.rs`);
//! EXPERIMENTS.md is regenerated from it. Wall-clock measurements live in
//! `benchmark/`, not here.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 (ILU scope) | [`tables::table1`] |
//! | Table 2 (system comparison) | [`tables::table2`] |
//! | Table 3 (overheads, 4 threads) | [`tables::table3`] |
//! | Table 4 (FP/FN scenarios) | [`tables::table4`] |
//! | Table 5 (memcached key pressure) | [`tables::table5`] |
//! | Table 6 (real-world races) | [`tables::table6`] |
//! | Figure 1 (key-enforced access) | [`figures::fig1`] |
//! | Figure 2 (consolidated allocation) | [`figures::fig2`] |
//! | Figure 3 (detection stages) | [`figures::fig3`] |
//! | Figure 4 (protection interleaving) | [`figures::fig4`] |
//! | Figure 5 (scalability) | [`figures::fig5`] |
//! | §7.2 NGINX file-size sweep | [`extras::nginx_sweep`] |
//! | §3.1 ILU share of real races | [`extras::ilu_share`] |
//! | §7.3 schedule sensitivity | [`extras::sensitivity`] |
//! | DESIGN.md ablations | [`extras::ablation`] |
//! | Key pressure: direct vs virtualized keys | [`extensions::keypressure::sweep`] |
//! | Production-mode budget Pareto curve | [`extensions::production::sweep`] |
//! | Fault-path latency and the disjoint storm | [`extensions::faultlatency::sweep`] |
//! | Allocator tiers: sharded vs magazine | [`extensions::alloctiers::sweep`] |

#![warn(missing_docs)]

pub mod extensions;
pub mod extras;
pub mod figures;
pub mod registry;
pub mod tables;

/// What `kard-tables` prints for `sections`: the key-assignment mode the
/// default configuration runs under, then each experiment's text —
/// followed by a rule when `ruled` (the `all` and `extensions` groups).
#[must_use]
pub fn render(sections: impl IntoIterator<Item = String>, ruled: bool) -> String {
    let pool = kard_sim::MachineConfig::default()
        .key_layout
        .read_write_pool()
        .count();
    let key_mode = kard_core::KardConfig::default().key_mode_description(pool);
    let mut out = format!("key mode: {key_mode}\n\n");
    for section in sections {
        out.push_str(&section);
        out.push('\n');
        if ruled {
            out.push_str(&"=".repeat(100));
            out.push('\n');
        }
    }
    out
}

/// Format a percentage with sign and one decimal.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Format a large count with thousands separators.
#[must_use]
pub fn thousands(mut n: u64) -> String {
    let mut parts = Vec::new();
    while n >= 1000 {
        parts.push(format!("{:03}", n % 1000));
        n /= 1000;
    }
    parts.push(n.to_string());
    parts.reverse();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(4_402_000), "4,402,000");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(7.04), "+7.0%");
        assert_eq!(pct(-5.9), "-5.9%");
    }
}
