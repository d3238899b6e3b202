//! Observability walkthrough: trace a web-server run and export it.
//!
//! Runs the NGINX model (§7.2, Table 6) with fault-path event tracing
//! enabled, writes `target/trace-demo/events.jsonl` and
//! `target/trace-demo/trace.json` (open the latter in Perfetto or
//! `chrome://tracing`), both exported from the one batch
//! [`kard::Session::drain`] returns, and prints the latency histograms the
//! detector recorded along the way.
//!
//! Run with: `cargo run --example telemetry` (or `make trace-demo`).

use kard::rt::KardExecutor;
use kard::telemetry::{export, HistogramSummary};
use kard::workloads::apps;
use kard::Session;
use kard_trace::replay::replay;
use std::fs;
use std::path::Path;

fn print_summary(name: &str, s: &HistogramSummary) {
    if s.count == 0 {
        println!("  {name:<22} (no samples)");
        return;
    }
    println!(
        "  {name:<22} n={:<6} min={:<7} mean={:<9.0} p50={:<7} p95={:<7} p99={:<7} max={}",
        s.count, s.min, s.mean, s.p50, s.p95, s.p99, s.max
    );
}

fn main() {
    let workers = 4;
    let requests = 200;
    let model = apps::nginx(workers, requests);
    println!("Tracing the NGINX model: 1 master + {workers} workers, {requests} requests each\n");

    let session = Session::builder().telemetry(true).build();
    let mut exec = KardExecutor::new(session.kard().clone());
    replay(&model.program.trace_round_robin(), &mut exec);

    let drained = session.drain();
    let dir = Path::new("target/trace-demo");
    fs::create_dir_all(dir).expect("create trace dir");
    fs::write(dir.join("events.jsonl"), export::json_lines(&drained.events))
        .expect("write events.jsonl");
    fs::write(dir.join("trace.json"), export::chrome_trace(&drained.events))
        .expect("write trace.json");
    println!(
        "Captured {} events ({} dropped) into {}/",
        drained.events.len(),
        drained.dropped,
        dir.display()
    );
    println!("  events.jsonl  one JSON object per event");
    println!("  trace.json    Chrome trace_event format (Perfetto / chrome://tracing)\n");

    let hists = session.telemetry().histograms();
    println!("Latency histograms (virtual cycles):");
    print_summary("fault handling delay", &hists.fault_delay.summary());
    print_summary("pkey_mprotect charge", &hists.mprotect.summary());
    print_summary("section hold time", &hists.section_hold.summary());
    println!(
        "\nRaces reported: {} (the paper's initialization race)",
        exec.stats().races_reported
    );
}
