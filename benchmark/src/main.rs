//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! kard-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! kard-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! With a workload named, the last line of standard output is the run's
//! result as one JSON object. Without one, every workload runs in turn.
//! An untraced run times its workload in several short-lived processes of
//! its own and reports medians over them (so `peak_rss_mb`, too, is per
//! workload).

mod compare;
mod decl;
mod embed;
mod fire;
mod host;
mod ledger;
mod report;
mod spans;
mod stats;
mod stream;
mod threads;
mod workload;

use decl::{Decl, MetricDecl};
use host::Host;
use report::Sample;
use serde_json::{Map, Value};
use spans::Tracer;
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Out, Workload};

/// Instance processes per untraced run; every end-to-end metric is the
/// median over them.
const INSTANCES: usize = 6;
/// A run shorter than this is a smoke run: labelled, never comparable.
const SMOKE_BELOW_SECONDS: f64 = 1.0;

/// Shares of a traced run's `--seconds`: the workload's own traced and
/// untraced loops, then the telemetry and codec probes on its events.
const WORKLOAD_SHARE: f64 = 0.75;
const TELEMETRY_SHARE: f64 = 0.15;
const CODEC_SHARE: f64 = 0.10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    /// Set by a full run on the processes it starts: be one instance, and
    /// print one line for the parent.
    instance: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: kard-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      kard-benchmark compare A.jsonl B.jsonl\n\
         workloads: {}",
        workload::NAMES.join(", ")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String], decl: &Decl) -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: decl.run_seconds,
        trace: false,
        out: None,
        instance: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--instance" => args.instance = value == "1",
            _ => usage(),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// A finished run, ready to print.
struct Run {
    out: Out,
    generator_threads: usize,
    tracer: Option<Tracer>,
}

fn drive<W: Workload>(w: &W, args: &Args) -> Run {
    let generator_threads = w.generator_threads();
    let mut out = Out::default();
    if !args.trace {
        // One instance of an untraced run: set the workload up, time it.
        let start = Instant::now();
        let mut input = w.prepare(args.seed);
        out.m.put("setup_s", start.elapsed().as_secs_f64());
        w.untraced(&mut input, args.seconds, &mut out);
        let virt = &w.replayable(&input).virt;
        out.m.put("virt_overhead_pct", virt.overhead_pct());
        out.m.put("virt_rss_overhead_pct", virt.rss_overhead_pct());
        drop(input);
        out.m.put("peak_rss_mb", host::peak_rss_mb());
        return Run {
            out,
            generator_threads,
            tracer: None,
        };
    }

    let mut input = w.prepare(args.seed);
    let mut tracer = Tracer::new(Instant::now(), 0);
    w.traced(
        &mut input,
        args.seconds * WORKLOAD_SHARE,
        &mut tracer,
        &mut out,
    );
    let r = w.replayable(&input);
    r.virt.put_sim(&mut out.m);
    let untraced_events_per_s = 1e9 / out.m.get("rt.apply_ns_per_event");
    stream::telemetry_probe(
        &r.stream,
        args.seconds * TELEMETRY_SHARE,
        untraced_events_per_s,
        &mut tracer,
        &mut out.m,
    );
    stream::session_build_probe(&r.stream, &mut tracer);
    ledger::put_rt_metrics(&tracer, &mut out.m);
    stream::codec_probe(
        r.stream.trace.events(),
        args.seconds * CODEC_SHARE,
        &mut out.m,
    );
    // What is left of a live event's time once the reader's parse and the
    // shard's apply are taken out: sockets, queue, hand-offs. Reader and
    // shard overlap on two cores, so it can be negative; it is printed as is.
    let (parse, apply) = (
        out.m.get("server.parse_request_ns_per_event"),
        out.m.get("rt.apply_ns_per_event"),
    );
    let transport = out
        .live_events_per_s
        .map_or(0.0, |live| 1e9 / live - parse - apply);
    out.m.put("server.transport_ns_per_event", transport);
    if let Some(live) = out.live_events_per_s {
        out.notes.push(format!(
            "per event, live and untraced: {:.1} ns = parse {parse:.1} + apply {apply:.1} + transport {transport:.1}",
            1e9 / live
        ));
    }
    out.m.put("bench.trace_coverage_pct", tracer.coverage_pct());
    Run {
        out,
        generator_threads,
        tracer: Some(tracer),
    }
}

fn run_named(name: &str, args: &Args) -> Run {
    use embed::TableModel;
    match name {
        "embed_sections" => drive(
            &TableModel {
                row: "fluidanimate",
                scale: 0.05,
            },
            args,
        ),
        "embed_faults" => drive(
            &TableModel {
                row: "water_nsquared",
                scale: 0.1,
            },
            args,
        ),
        "embed_churn" => drive(
            &TableModel {
                row: "nginx",
                scale: 0.1,
            },
            args,
        ),
        "embed_threads" => drive(&threads::SharedKard, args),
        "fire_stream" => drive(&fire::LongStream, args),
        "fire_storm" => drive(&fire::SessionStorm, args),
        _ => usage(),
    }
}

/// What an instance process prints for the process that started it.
fn instance_line(run: &Run) -> String {
    let mut metrics = Map::new();
    for (name, sample) in &run.out.m.0 {
        let mut m = Map::new();
        m.insert("value".into(), Value::F64(sample.value));
        m.insert("n".into(), Value::U64(sample.n as u64));
        metrics.insert(name.clone(), Value::Object(m));
    }
    let checks = &run.out.checks;
    let mut line = Map::new();
    line.insert("attempted".into(), Value::U64(checks.attempted));
    line.insert("failed".into(), Value::U64(checks.failed));
    line.insert(
        "reasons".into(),
        Value::Array(checks.reasons.iter().cloned().map(Value::String).collect()),
    );
    line.insert(
        "generator_threads".into(),
        Value::U64(run.generator_threads as u64),
    );
    line.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(line)).expect("instance line serializes")
}

/// A full untraced run: [`INSTANCES`] times over, a fresh process sets the
/// workload up (from a seed derived from `--seed`) and times a share of
/// `--seconds` on it. Every metric is the median over the instances, so
/// what differs from one process to the next — address-space and heap
/// layout, hash seeds, where the scheduler first puts the threads — is
/// averaged inside a run and not left to show up between runs.
fn run_instances(name: &str, args: &Args) -> Run {
    let exe = std::env::current_exe().expect("own path is known");
    // Per metric: each instance's value, and the samples behind them all.
    let mut per_metric: BTreeMap<String, (Vec<f64>, usize)> = BTreeMap::new();
    let mut run = Run {
        out: Out::default(),
        generator_threads: 0,
        tracer: None,
    };
    for rep in 0..INSTANCES {
        let seed = args
            .seed
            .wrapping_mul(INSTANCES as u64)
            .wrapping_add(rep as u64);
        let output = Command::new(&exe)
            .args(["--workload", name, "--trace", "0", "--instance", "1"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &(args.seconds / INSTANCES as f64).to_string()])
            .output()
            .expect("instance process starts");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line: Value = stdout
            .lines()
            .last()
            .and_then(|last| serde_json::from_str(last).ok())
            .unwrap_or_else(|| {
                panic!(
                    "instance {rep} of {name} printed no result ({}):\n{stdout}\n{}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                )
            });
        let count = |key: &str| line.get(key).and_then(Value::as_u64).expect("a count");
        run.generator_threads = count("generator_threads") as usize;
        run.out.checks.absorb(report::Checks {
            attempted: count("attempted"),
            failed: count("failed"),
            reasons: line
                .get("reasons")
                .and_then(Value::as_array)
                .expect("a list")
                .iter()
                .filter_map(|r| r.as_str().map(str::to_string))
                .collect(),
        });
        for (metric, m) in line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics")
        {
            let entry = per_metric.entry(metric.clone()).or_default();
            entry
                .0
                .push(m.get("value").and_then(Value::as_f64).expect("a value"));
            entry.1 += m.get("n").and_then(Value::as_u64).expect("a sample count") as usize;
        }
    }
    for (metric, (values, n)) in per_metric {
        let (q1, q3) = quartiles(&values);
        run.out.m.put_sample(
            &metric,
            Sample {
                value: median(&values),
                n,
                q1,
                q3,
            },
        );
    }
    run
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(name: &str, args: &Args, decl: &Decl) -> ExitCode {
    if args.instance {
        println!("{}", instance_line(&run_named(name, args)));
        return ExitCode::SUCCESS;
    }
    let host = Host::probe();
    let smoke = args.seconds < SMOKE_BELOW_SECONDS;
    println!(
        "# kard-benchmark workload={name} seed={} seconds={} trace={} smoke={smoke}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: available_parallelism={} profile={} commit={} rustc=\"{}\"",
        host.available_parallelism, host.profile, host.commit, host.rustc
    );
    // A smoke run and a traced run are one instance, in this process.
    let run = if args.trace || smoke {
        run_named(name, args)
    } else {
        run_instances(name, args)
    };
    let oversubscribed = run.generator_threads > host.available_parallelism;
    println!(
        "# load: generator_threads={}{}",
        run.generator_threads,
        if oversubscribed {
            " oversubscribed: wall-clock metrics are not comparable"
        } else {
            ""
        }
    );

    let declared: &[MetricDecl] = if args.trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    let reported: Vec<&String> = run.out.m.0.keys().collect();
    let mut expected: Vec<&String> = declared.iter().map(|d| &d.name).collect();
    expected.sort();
    assert_eq!(
        reported, expected,
        "metrics reported and metrics BENCHMARK.json declares differ"
    );

    println!(
        "# {:<36} {:>16} {:<9} {:>7} {:>16} {:>16}",
        "metric", "value", "unit", "n", "q1", "q3"
    );
    let mut last = Map::new();
    let mut full = Map::new();
    for d in declared {
        let Sample { value, n, q1, q3 } = run.out.m.0[&d.name];
        println!(
            "  {:<36} {:>16.4} {:<9} {:>7} {:>16.4} {:>16.4}",
            d.name, value, d.unit, n, q1, q3
        );
        let mut m = Map::new();
        m.insert("value".into(), Value::F64(value));
        m.insert("unit".into(), Value::String(d.unit.clone()));
        last.insert(d.name.clone(), Value::Object(m.clone()));
        m.insert("n".into(), Value::U64(n as u64));
        m.insert("q1".into(), Value::F64(q1));
        m.insert("q3".into(), Value::F64(q3));
        m.insert(
            "comparable".into(),
            Value::Bool(d.on_virtual_clock() || !(smoke || oversubscribed)),
        );
        full.insert(d.name.clone(), Value::Object(m));
    }
    for note in &run.out.notes {
        println!("# {note}");
    }
    let checks = &run.out.checks;
    for reason in &checks.reasons {
        println!("# FAILED: {reason}");
    }

    let mut record = Map::new();
    record.insert("workload".into(), Value::String(name.into()));
    record.insert("seed".into(), Value::U64(args.seed));
    record.insert("timed_seconds".into(), Value::F64(args.seconds));
    record.insert("trace".into(), Value::Bool(args.trace));
    record.insert("smoke".into(), Value::Bool(smoke));
    record.insert("host".into(), host.to_json());
    record.insert(
        "generator_threads".into(),
        Value::U64(run.generator_threads as u64),
    );
    record.insert("oversubscribed".into(), Value::Bool(oversubscribed));
    record.insert("attempted".into(), Value::U64(checks.attempted));
    record.insert("failed".into(), Value::U64(checks.failed));

    if let Some(tracer) = &run.tracer {
        let mut file = record.clone();
        if let Value::Object(spans) = tracer.to_json() {
            file.extend(spans);
        }
        let dir = out_dir();
        std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(
            &path,
            serde_json::to_string(&Value::Object(file)).expect("trace serializes"),
        )
        .expect("trace file writes");
        println!("# trace: {}", path.display());
    }
    if let Some(path) = &args.out {
        record.insert("metrics".into(), Value::Object(full));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("--out file opens");
        writeln!(
            file,
            "{}",
            serde_json::to_string(&Value::Object(record)).expect("record serializes")
        )
        .expect("--out file writes");
    }

    let mut result = Map::new();
    result.insert("correct".into(), Value::Bool(checks.failed == 0));
    result.insert("attempted".into(), Value::U64(checks.attempted));
    result.insert("failed".into(), Value::U64(checks.failed));
    result.insert("metrics".into(), Value::Object(last));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("result serializes")
    );
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a process of its own.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path is known");
    let mut code = ExitCode::SUCCESS;
    for name in workload::NAMES {
        let status = Command::new(&exe)
            .args(argv)
            .args(["--workload", name])
            .status()
            .expect("child benchmark process starts");
        if !status.success() {
            eprintln!("workload {name} failed: {status}");
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let decl = Decl::load();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else { usage() };
        return compare::compare(Path::new(a), Path::new(b), &decl);
    }
    let args = parse_args(&argv, &decl);
    match &args.workload {
        Some(name) => run_one(name, &args, &decl),
        None => run_all(&argv),
    }
}
