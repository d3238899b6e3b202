//! The traces this repository generates obey the firehose's rules: each
//! one, replayed through an uncapped `Applier`, has no event rejected. So
//! the in-process executor and a shard give every generated event the
//! same meaning, and any of these traces can be streamed to kard-server.

use kard_rt::{KardExecutor, Session};
use kard_trace::{Event, Executor, Trace};
use kard_workloads::racegen::{self, CorpusMix};
use kard_workloads::synth::{build_programs, SynthConfig};
use kard_workloads::work_steal::TrafficShape;
use kard_workloads::{apps, table3};

/// Replay `events` into a fresh session, failing on the first rejection.
fn assert_conforms(name: &str, threads: usize, events: &[Event]) {
    let session = Session::new();
    let mut applier = KardExecutor::new(session.kard().clone());
    applier.start(threads);
    for (i, event) in events.iter().enumerate() {
        if let Err(why) = applier.apply(event.thread, &event.op) {
            panic!("{name}: event {i} ({event:?}) rejected: {}", why.name());
        }
    }
}

fn assert_trace_conforms(name: &str, trace: &Trace) {
    assert_conforms(name, trace.thread_count(), trace.events());
}

#[test]
fn table3_models_conform() {
    let cfg = SynthConfig {
        threads: 4,
        scale: 0.02,
    };
    for spec in table3::all() {
        let trace = build_programs(&spec, &cfg).trace_seeded(7);
        assert_trace_conforms(spec.name, &trace);
    }
}

#[test]
fn application_models_conform() {
    for app in apps::all_apps(3, 40) {
        assert_trace_conforms(app.name, &app.program.trace_round_robin());
    }
}

#[test]
fn phased_racegen_scenarios_conform() {
    for (i, scenario) in racegen::generate_corpus(300, &CorpusMix::default(), 11)
        .iter()
        .enumerate()
    {
        let trace = racegen::phased(scenario).trace_seeded(i as u64);
        assert_trace_conforms(&format!("racegen scenario {i}"), &trace);
    }
}

#[test]
fn traffic_shape_sessions_conform() {
    for shape in TrafficShape::ALL {
        for session in shape.sessions(4, 2, 5) {
            let events: Vec<Event> = session.bursts.concat();
            let threads = events.iter().map(|e| e.thread + 1).max().unwrap_or(1);
            assert_conforms(&session.name, threads, &events);
        }
    }
}
