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

use kard_bench::registry::{Experiment, Sizes, REGISTRY};
use kard_bench::tables;
use serde_json::Value;
use std::env;
use std::process::ExitCode;

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
