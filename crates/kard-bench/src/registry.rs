//! The named experiments `kard-tables` runs, and the group each belongs
//! to: `all` (the paper set, pinned by `paper_tables_output.txt`) or
//! `extensions` (pinned by `extension_tables_output.txt`).

use crate::extensions::{alloctiers, faultlatency, keypressure, production};
use crate::{extras, figures, tables};
use serde_json::Value;

/// The sizes the command line can set.
#[derive(Debug)]
pub struct Sizes {
    /// Fraction of each workload's full event counts (Table 3, Figure 5).
    pub scale: f64,
    /// memcached requests per thread (Tables 5 and 6).
    pub requests: u64,
}

/// One named experiment: how to render it and how to serialize it.
#[derive(Debug)]
pub struct Experiment {
    /// The name `kard-tables` selects it by.
    pub name: &'static str,
    /// The group that prints it: `all` or `extensions`.
    pub group: &'static str,
    /// The rows it prints.
    pub text: fn(&Sizes) -> String,
    /// The rows `--json` prints.
    pub json: fn(&Sizes) -> Value,
}

fn json<T: serde::Serialize>(result: T) -> Value {
    serde_json::to_value(result).expect("serializable")
}

/// Every experiment, in the order its group prints it.
#[rustfmt::skip]
pub const REGISTRY: &[Experiment] = &[
    Experiment { name: "table1", group: "all", text: |_| tables::table1_text(), json: |_| json(tables::table1()) },
    Experiment { name: "table2", group: "all", text: |s| tables::table2_text(s.scale), json: |s| json(tables::table2(s.scale)) },
    Experiment { name: "table3", group: "all", text: |s| tables::table3_text(s.scale), json: |s| json(tables::table3(s.scale)) },
    Experiment { name: "table4", group: "all", text: |_| tables::table4_text(), json: |_| json(tables::table4()) },
    Experiment { name: "table5", group: "all", text: |s| tables::table5_text(s.requests), json: |s| json(tables::table5(s.requests)) },
    Experiment { name: "table6", group: "all", text: |s| tables::table6_text(4, s.requests), json: |s| json(tables::table6(4, s.requests)) },
    Experiment { name: "fig1", group: "all", text: |_| figures::fig1_text(), json: |_| json(figures::fig1()) },
    Experiment { name: "fig2", group: "all", text: |_| figures::fig2_text(), json: |_| json(figures::fig2()) },
    Experiment { name: "fig3", group: "all", text: |_| figures::fig3_text(), json: |_| json(figures::fig3()) },
    Experiment { name: "fig4", group: "all", text: |_| figures::fig4_text(), json: |_| json(figures::fig4()) },
    Experiment { name: "fig5", group: "all", text: |s| figures::fig5_text(s.scale), json: |s| json(figures::fig5(s.scale)) },
    Experiment { name: "nginx", group: "all", text: |s| extras::nginx_sweep_text(s.scale), json: |s| json(extras::nginx_sweep(s.scale)) },
    Experiment { name: "ilu", group: "all", text: |_| extras::ilu_share_text(300, 11), json: |_| json(extras::ilu_share(300, 11)) },
    Experiment { name: "sensitivity", group: "all", text: |_| extras::sensitivity_text(60), json: |_| json(extras::sensitivity(60)) },
    Experiment { name: "ablation", group: "all", text: |s| extras::ablation_text(s.scale), json: |s| json(extras::ablation(s.scale)) },
    Experiment { name: "keypressure", group: "extensions", text: |_| keypressure::text(&keypressure::GROUPS), json: |_| json(keypressure::sweep(&keypressure::GROUPS)) },
    Experiment { name: "production", group: "extensions", text: |_| production::text(production::SESSIONS, production::RACY), json: |_| json(production::sweep(production::SESSIONS, production::RACY)) },
    Experiment { name: "faultlatency", group: "extensions", text: |_| faultlatency::text(faultlatency::ROUNDS), json: |_| json(faultlatency::sweep(faultlatency::ROUNDS)) },
    Experiment { name: "alloctiers", group: "extensions", text: |_| alloctiers::text(alloctiers::OPS_PER_THREAD), json: |_| json(alloctiers::sweep(alloctiers::OPS_PER_THREAD)) },
];
