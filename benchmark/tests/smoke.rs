//! Runs every workload, traced and untraced, with a 0.3 s timed region and
//! holds what it prints against `BENCHMARK.json`: the same workload and
//! metric names on both sides, within the contract's name and count rules.
//! The numbers of such a run are labelled `smoke=true` and mean nothing.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn load(file: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

fn set(names: &[String]) -> BTreeSet<&str> {
    names.iter().map(String::as_str).collect()
}

fn strings<'a>(v: &'a Value, key: &str) -> Vec<&'a str> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
        .iter()
        .map(|s| s.as_str().expect("a string"))
        .collect()
}

#[test]
fn declared_names_follow_the_contract() {
    let decl = load("../BENCHMARK.json");
    let (workloads, end_to_end, per_layer) = (
        names(&decl, "workloads"),
        names(&decl, "end_to_end"),
        names(&decl, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.iter().any(|n| n == "setup_s"));

    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for name in &all {
        assert!(
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }
    let unique: BTreeSet<&&String> = all.iter().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
}

#[test]
fn every_layer_metric_says_what_it_should_move() {
    let decl = load("../BENCHMARK.json");
    let (workloads, end_to_end, per_layer) = (
        names(&decl, "workloads"),
        names(&decl, "end_to_end"),
        names(&decl, "per_layer"),
    );
    let interactions = load("interactions.json");
    let layers = interactions
        .get("layers")
        .and_then(Value::as_object)
        .expect("`layers` maps a metric prefix to its crate");
    let groups = interactions
        .get("groups")
        .and_then(Value::as_array)
        .expect("`groups` is a list");
    let mut covered = Vec::new();
    for group in groups {
        let metrics = strings(group, "metrics");
        for metric in &metrics {
            let prefix = metric.split('.').next().expect("a prefix");
            assert!(layers.contains_key(prefix), "{metric}: no layer");
        }
        assert!(
            group.get("why").and_then(Value::as_str).is_some(),
            "{metrics:?}: no reason"
        );
        for moved in strings(group, "moves") {
            assert!(
                set(&end_to_end).contains(moved),
                "{metrics:?}: unknown metric {moved}"
            );
        }
        for workload in strings(group, "on")
            .into_iter()
            .chain(strings(group, "not_on"))
        {
            assert!(
                set(&workloads).contains(workload),
                "{metrics:?}: unknown workload {workload}"
            );
        }
        covered.extend(metrics);
    }
    covered.sort_unstable();
    let mut declared: Vec<&str> = per_layer.iter().map(String::as_str).collect();
    declared.sort_unstable();
    assert_eq!(
        covered, declared,
        "interactions.json must cover every per_layer metric exactly once"
    );
}

/// Run all workloads once; return (workload, first line, last line) per block.
fn run_all(trace: &str) -> Vec<(String, String, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_kard-benchmark"))
        .args(["--seconds", "0.3", "--seed", "7", "--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut blocks: Vec<(String, String, String)> = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# kard-benchmark workload=") {
            let workload = rest.split(' ').next().expect("a name").to_string();
            blocks.push((workload, line.to_string(), String::new()));
        } else if let Some(block) = blocks.last_mut() {
            block.2 = line.to_string();
        }
    }
    blocks
}

#[test]
fn every_workload_prints_exactly_what_is_declared() {
    let decl = load("../BENCHMARK.json");
    let workloads = names(&decl, "workloads");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = decl.get(key).and_then(Value::as_array).expect("a list");
        let blocks = run_all(trace);
        let ran: Vec<&str> = blocks.iter().map(|b| b.0.as_str()).collect();
        assert_eq!(
            ran,
            workloads.iter().map(String::as_str).collect::<Vec<_>>(),
            "workloads run and workloads declared differ"
        );
        for (workload, header, last) in &blocks {
            assert!(
                header.ends_with("smoke=true"),
                "{workload}: not labelled a smoke run"
            );
            let result: Value = serde_json::from_str(last)
                .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));

            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            assert_eq!(
                metrics.keys().map(String::as_str).collect::<BTreeSet<_>>(),
                set(&names(&decl, key)),
                "{workload} trace={trace}: metrics printed and declared differ"
            );
            for d in declared {
                let name = d.get("name").and_then(Value::as_str).expect("a name");
                let printed = &metrics[name];
                assert_eq!(
                    printed.get("unit"),
                    d.get("unit"),
                    "{workload}: unit of {name}"
                );
                let value = printed.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                if key == "end_to_end" {
                    assert!(value != Some(0.0), "{workload}: end-to-end {name} is zero");
                }
            }
        }
    }
}
