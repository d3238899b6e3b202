//! `compare A B`: do two sets of runs agree within the benchmark's bounds?
//!
//! A set is a JSON-lines file as `--out` appends it: one record per run,
//! any number of runs per workload. One row per (workload, end-to-end
//! metric): both medians and quartiles over the set's runs, the metric's
//! bound, and a verdict.

use crate::decl::{Decl, MetricDecl};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Runs per side below which the run-to-run spread is not known.
const MIN_RUNS_FOR_SPREAD: usize = 3;

/// (workload, metric) → one value per run, and whether all were comparable.
type Set = BTreeMap<(String, String), (Vec<f64>, bool)>;

fn load(path: &Path) -> Set {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut set = Set::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("{}: not a run record: {e}", path.display()));
        let flag = |key: &str| matches!(record.get(key), Some(Value::Bool(true)));
        if flag("trace") {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .expect("record names its workload");
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .expect("record carries metrics");
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("metric has a value");
            let comparable = matches!(m.get("comparable"), Some(Value::Bool(true)));
            let entry = set
                .entry((workload.to_string(), name.clone()))
                .or_insert((Vec::new(), true));
            entry.0.push(value);
            entry.1 &= comparable;
        }
    }
    set
}

/// By how much of `base` did `new` get worse (negative: better).
fn worsening(d: &MetricDecl, base: f64, new: f64) -> f64 {
    if d.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    }
}

fn verdict(d: &MetricDecl, a: &[f64], b: &[f64], comparable: bool) -> &'static str {
    let bound = d.bound.expect("end-to-end metrics carry a bound");
    let (med_a, med_b) = (median(a), median(b));
    if !comparable {
        return "not-comparable";
    }
    if d.on_virtual_clock() {
        // The virtual clock is deterministic: anything but equality is a change.
        let equal = a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits());
        return match (equal, worsening(d, med_a, med_b) > 0.0) {
            (true, _) => "ok",
            (false, true) => "regressed",
            (false, false) => "changed",
        };
    }
    if a.len() >= MIN_RUNS_FOR_SPREAD && b.len() >= MIN_RUNS_FOR_SPREAD {
        let spread = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            (q3 - q1) / median(v)
        };
        if spread(a).max(spread(b)) > bound {
            let every_b_better = b
                .iter()
                .all(|&vb| a.iter().all(|&va| worsening(d, va, vb) < 0.0));
            return if every_b_better { "ok" } else { "unresolved" };
        }
    }
    if worsening(d, med_a, med_b) > bound {
        "regressed"
    } else {
        "ok"
    }
}

pub fn compare(a: &Path, b: &Path, decl: &Decl) -> ExitCode {
    let (set_a, set_b) = (load(a), load(b));
    println!(
        "{:<15} {:<22} {:<9} {:>3} {:>14} {:>14} {:>14} {:>3} {:>14} {:>14} {:>14} {:>6} {:>8}  verdict",
        "workload", "metric", "unit", "nA", "medianA", "q1A", "q3A", "nB", "medianB", "q1B", "q3B", "bound", "worse%"
    );
    let mut all_ok = true;
    for workload in &decl.workloads {
        for d in &decl.end_to_end {
            let key = (workload.clone(), d.name.clone());
            let (Some((va, ca)), Some((vb, cb))) = (set_a.get(&key), set_b.get(&key)) else {
                println!("{workload:<15} {:<22} missing from one set", d.name);
                all_ok = false;
                continue;
            };
            let verdict = verdict(d, va, vb, *ca && *cb);
            all_ok &= matches!(verdict, "ok");
            let ((q1a, q3a), (q1b, q3b)) = (quartiles(va), quartiles(vb));
            let (med_a, med_b) = (median(va), median(vb));
            println!(
                "{workload:<15} {:<22} {:<9} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>6} {:>8.2}  {verdict}",
                d.name,
                d.unit,
                va.len(),
                med_a,
                q1a,
                q3a,
                vb.len(),
                med_b,
                q1b,
                q3b,
                d.bound.expect("end-to-end metrics carry a bound"),
                100.0 * worsening(d, med_a, med_b),
            );
        }
    }
    if any_short(&set_a) || any_short(&set_b) {
        println!(
            "# a set with fewer than {MIN_RUNS_FOR_SPREAD} runs of a workload has no known spread: \
             its rows are judged on the medians alone and can never read `unresolved`"
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn any_short(set: &Set) -> bool {
    set.values().any(|(v, _)| v.len() < MIN_RUNS_FOR_SPREAD)
}
