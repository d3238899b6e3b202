//! Regenerate the paper's tables and figures, and the extension
//! experiments, from the command line.
//!
//! ```text
//! kard-tables [NAME] [--scale 0.01] [--requests 60] [--json] [--stats-json PATH]
//! ```
//!
//! `NAME` is one experiment of [`REGISTRY`] or one of its two groups:
//! `all` (the default: the paper set, pinned by `paper_tables_output.txt`)
//! and `extensions` (pinned by `extension_tables_output.txt`). An unknown
//! name prints the known ones.
//!
//! `--scale` controls the fraction of each workload's full event counts
//! (Table 3 / Figure 5); memory overheads are extrapolated back to full
//! scale. The default (0.01) finishes in well under a minute; 1.0 replays
//! the paper's full counts. `--json` emits machine-readable results
//! instead of formatted tables. `--stats-json PATH` additionally writes
//! the full final `KardSnapshot` of an 8-thread memcached run to `PATH`
//! as JSON (scaled by `--requests`) — the same shape the embedded
//! runtime and the firehose `/statsz` detector blocks serialize.

use kard_bench::extensions::{alloctiers, anomaly, faultlatency, keypressure, production};
use kard_bench::{extras, figures, tables};
use kard_workloads::regress::RegressConfig;
use serde_json::Value;
use std::env;
use std::process::ExitCode;

/// The sizes the command line can set.
struct Sizes {
    scale: f64,
    requests: u64,
}

/// One named experiment: how to render it and how to serialize it.
struct Experiment {
    name: &'static str,
    /// The group that prints it: `all` or `extensions`.
    group: &'static str,
    text: fn(&Sizes) -> String,
    json: fn(&Sizes) -> Value,
}

fn json<T: serde::Serialize>(result: T) -> Value {
    serde_json::to_value(result).expect("serializable")
}

/// Every experiment, in the order its group prints it.
#[rustfmt::skip]
const REGISTRY: &[Experiment] = &[
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
    Experiment { name: "anomaly", group: "extensions", text: |_| anomaly::text(&RegressConfig::default()), json: |_| json(anomaly::sweep(&RegressConfig::default())) },
    Experiment { name: "faultlatency", group: "extensions", text: |_| faultlatency::text(faultlatency::ROUNDS), json: |_| json(faultlatency::sweep(faultlatency::ROUNDS)) },
    Experiment { name: "alloctiers", group: "extensions", text: |_| alloctiers::text(alloctiers::OPS_PER_THREAD), json: |_| json(alloctiers::sweep(alloctiers::OPS_PER_THREAD)) },
];

fn usage() -> String {
    let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.group).collect();
    names.dedup();
    names.extend(REGISTRY.iter().map(|e| e.name));
    format!(
        "usage: kard-tables [{}] [--scale F] [--requests N] [--json] [--stats-json PATH]",
        names.join("|")
    )
}

struct Options {
    command: String,
    sizes: Sizes,
    json: bool,
    stats_json: Option<String>,
}

fn parse() -> Result<Options, String> {
    let mut args = env::args().skip(1);
    let mut command = None;
    let mut sizes = Sizes {
        scale: 0.01,
        requests: 60,
    };
    let mut json = false;
    let mut stats_json = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                sizes.scale = v.parse().map_err(|e| format!("bad --scale: {e}"))?;
                if !(sizes.scale > 0.0 && sizes.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--requests" => {
                let v = args.next().ok_or("--requests needs a value")?;
                sizes.requests = v.parse().map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--json" => json = true,
            "--stats-json" => {
                stats_json = Some(args.next().ok_or("--stats-json needs a path")?);
            }
            other if command.is_none() => command = Some(other.to_string()),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    Ok(Options {
        command: command.unwrap_or_else(|| "all".into()),
        sizes,
        json,
        stats_json,
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let command = opts.command.as_str();
    let selected: Vec<&Experiment> = REGISTRY
        .iter()
        .filter(|e| e.name == command || e.group == command)
        .collect();
    let Some(first) = selected.first() else {
        eprintln!("unknown command: {command}\n{}", usage());
        return ExitCode::FAILURE;
    };
    if let Some(path) = &opts.stats_json {
        let stats = tables::final_stats(8, opts.sizes.requests);
        let body = serde_json::to_string_pretty(&stats.to_json()).expect("serializable stats");
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote final detector stats to {path}");
    }
    if opts.json {
        let out: serde_json::Map = selected
            .iter()
            .map(|e| (e.name.to_string(), (e.json)(&opts.sizes)))
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&Value::Object(out)).expect("valid json")
        );
    } else {
        let texts = selected.iter().map(|e| (e.text)(&opts.sizes));
        print!("{}", kard_bench::render(texts, first.group == command));
    }
    ExitCode::SUCCESS
}
