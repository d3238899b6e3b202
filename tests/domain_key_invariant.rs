//! The domain word and the page tag never disagree.
//!
//! The detector keeps an object's protection domain in one place (the
//! side-metadata word behind [`Kard::domain_of`]) and enforces it in
//! another (the protection key on the object's pages). Every domain
//! transition must move both, so at any quiescent point each live object's
//! pages carry exactly the key its domain implies:
//!
//! | domain        | key worn            |
//! |---------------|---------------------|
//! | Not-accessed  | `k_na`              |
//! | Read-only     | `k_ro`              |
//! | Read-write(k) | pool key `k`        |
//! | Suspended     | the default key k0  |
//!
//! Checked while and after replaying five Table 3 models, the four
//! application models and four racy storm sessions, under the paper
//! configuration and under virtualized keys. Production mode is exempt by
//! design: a sample-skipped object wears k0 under a stale domain word.

use kard::core::{Domain, KeyCachePolicy, KeyMode};
use kard::sim::VirtPage;
use kard::trace::replay::Executor;
use kard::trace::{Op, Trace};
use kard::workloads::storm::{self, StormConfig};
use kard::workloads::synth::{build_programs, SynthConfig};
use kard::workloads::{apps, table3};
use kard::{KardConfig, KardExecutor, Session};

/// Assert the invariant for every live object; returns how many were live.
fn check(session: &Session, what: &str) -> usize {
    let layout = session.machine().key_layout();
    let live = session.alloc().live_objects();
    for obj in &live {
        let domain = session
            .kard()
            .domain_of(obj.id)
            .unwrap_or_else(|| panic!("{what}: live {} has no domain", obj.id));
        let worn = match domain {
            Domain::NotAccessed => layout.not_accessed,
            Domain::ReadOnly => layout.read_only,
            Domain::ReadWrite(key) => key,
            Domain::Suspended => layout.default,
        };
        for page in 0..obj.page_count {
            assert_eq!(
                session.machine().page_key(VirtPage(obj.first_page.0 + page)),
                Some(worn),
                "{what}: {} is {domain} but page {page} wears another key",
                obj.id
            );
        }
    }
    live.len()
}

/// Replay `trace` into a fresh session, checking at 256 evenly spaced
/// points (interleavings are armed and suspended mid-run, frees empty the
/// live set by the end) and once more after the last event.
fn replay_checked(what: &str, trace: &Trace, config: KardConfig) {
    let session = Session::builder().config(config).build();
    let mut exec = KardExecutor::new(session.kard().clone());
    exec.start(trace.thread_count());
    let stride = (trace.events().len() / 256).max(1);
    let mut checked = 0;
    for (i, event) in trace.events().iter().enumerate() {
        exec.on_event(event.thread, &event.op);
        if i % stride == stride - 1 {
            checked += check(&session, what);
        }
    }
    checked += check(&session, what);
    let allocates = |op: &Op| matches!(op, Op::Alloc { .. } | Op::Global { .. });
    assert!(
        checked > 0 || !trace.events().iter().any(|e| allocates(&e.op)),
        "{what}: no live object was ever checked"
    );
}

fn traces() -> Vec<(String, Trace)> {
    let mut out = Vec::new();
    for row in ["nginx", "memcached", "fluidanimate", "water_nsquared", "barnes"] {
        let spec = table3::by_name(row).expect("a Table 3 row");
        let programs = build_programs(&spec, &SynthConfig { threads: 4, scale: 0.01 });
        out.push((row.to_string(), programs.trace_seeded(7)));
    }
    for app in apps::all_apps(3, 40) {
        out.push((format!("app {}", app.name), app.program.trace_round_robin()));
    }
    let storm = StormConfig {
        racy_sessions: 4,
        ..StormConfig::default()
    };
    for index in 0..4 {
        let session = storm::session(&storm, index);
        let events = session.bursts.into_iter().flatten().collect();
        out.push((session.name, Trace::from_events(storm.threads, events)));
    }
    out
}

#[test]
fn every_live_object_wears_the_key_its_domain_implies() {
    for (name, trace) in traces() {
        replay_checked(&format!("{name}/paper"), &trace, KardConfig::paper());
        replay_checked(
            &format!("{name}/virtualized"),
            &trace,
            KardConfig {
                keys: KeyMode::Virtual(KeyCachePolicy::Lru),
                ..KardConfig::paper()
            },
        );
    }
}
