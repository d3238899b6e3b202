//! What `BENCHMARK.json` declares, read from the file itself so the
//! program and the contract cannot drift apart.

use serde_json::Value;

pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

impl MetricDecl {
    /// The virtual-clock metrics repeat exactly whatever the host does; all
    /// others are host wall clock or host memory.
    pub fn on_virtual_clock(&self) -> bool {
        self.name.starts_with("virt_")
            || (self.name.starts_with("sim.") && self.name != "sim.charge_ns_p50")
    }
}

pub struct Decl {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
    pub run_seconds: f64,
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a string"))
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a list"))
}

fn metrics(doc: &Value, key: &str) -> Vec<MetricDecl> {
    list(doc, key)
        .iter()
        .map(|m| MetricDecl {
            name: text(m, "name").to_string(),
            unit: text(m, "unit").to_string(),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Decl {
    pub fn load() -> Decl {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        Decl {
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name").to_string())
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: `run_seconds` is a number"),
        }
    }
}
