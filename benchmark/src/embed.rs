//! `embed_sections`, `embed_faults`, `embed_churn`: one host thread
//! replaying a Table 3 model through `kard_rt::KardExecutor` into a fresh
//! `Session` per replay.

use crate::ledger::{
    put_apply_cost, put_handle_counts, put_op_tail, put_server_metrics, put_span_metrics,
    put_trace_overhead, Counts,
};
use crate::report::Checks;
use crate::spans::Tracer;
use crate::stats::median;
use crate::stream::{events_per_s, traced_replays, untraced_replays, Replayable, CANONICAL_SEED};
use crate::workload::{Out, Workload};
use kard_core::KardConfig;
use kard_rt::{KardExecutor, Session};
use kard_server::proto::Statsz;
use kard_trace::replay::replay;
use kard_workloads::synth::{build_programs, SynthConfig};
use kard_workloads::{apps, table3};
use std::sync::Arc;

/// A Table 3 row at a fixed scale. The scale is part of the workload: it
/// sets the working set (objects per section plan, pages per dTLB reach),
/// and per-event cost moves with it.
pub struct TableModel {
    pub row: &'static str,
    pub scale: f64,
}

/// Logical threads in the generated program (the paper's default).
const LOGICAL_THREADS: usize = 4;

/// Share of a traced run's workload time spent replaying with spans on;
/// the rest replays untraced to price the tracing.
const TRACED_SHARE: f64 = 0.7;

/// The detection probe: the four Table 6 application models, each replayed
/// round-robin into a fresh session, each an operation that fails unless
/// Kard's reports name exactly as many racy objects as the table lists.
fn detection_probe(checks: &mut Checks) {
    for app in apps::all_apps(3, 40) {
        let session = Session::new();
        let mut exec = KardExecutor::new(Arc::clone(session.kard()));
        replay(&app.program.trace_round_robin(), &mut exec);
        let got = apps::distinct_kard_objects(&exec.reports());
        checks.op(got == app.expected.kard, || {
            format!(
                "{}: {got} racy objects reported, Table 6 expects {}",
                app.name, app.expected.kard
            )
        });
    }
}

impl Workload for TableModel {
    type Input = Replayable;

    fn generator_threads(&self) -> usize {
        1
    }

    fn prepare(&self, seed: u64) -> Replayable {
        let spec = table3::by_name(self.row).expect("a Table 3 row");
        let programs = build_programs(
            &spec,
            &SynthConfig {
                threads: LOGICAL_THREADS,
                scale: self.scale,
            },
        );
        Replayable::new(
            programs.trace_seeded(seed),
            programs.trace_seeded(CANONICAL_SEED),
            KardConfig::default(),
        )
    }

    fn replayable<'a>(&self, input: &'a Replayable) -> &'a Replayable {
        input
    }

    fn untraced(&self, input: &mut Replayable, seconds: f64, out: &mut Out) {
        // Table 3 models lock consistently: no report is the expected set.
        out.checks.op(input.reference.reports == 0, || {
            format!("{} reported {} races", self.row, input.reference.reports)
        });
        let walls = untraced_replays(&input.stream, seconds, &input.reference, &mut out.checks);
        out.m
            .put_median("events_per_s", &events_per_s(&input.stream, &walls));
        let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        out.m.put_median("op_ms_p50", &ms);
        detection_probe(&mut out.checks);
    }

    fn traced(&self, input: &mut Replayable, seconds: f64, tracer: &mut Tracer, out: &mut Out) {
        let (traced_walls, session) = traced_replays(
            &input.stream,
            seconds * TRACED_SHARE,
            &input.reference,
            tracer,
            &mut out.checks,
        );
        let untraced_walls = untraced_replays(
            &input.stream,
            seconds * (1.0 - TRACED_SHARE),
            &input.reference,
            &mut out.checks,
        );
        put_op_tail(
            &untraced_walls.iter().map(|w| w * 1e3).collect::<Vec<_>>(),
            &mut out.m,
        );
        put_apply_cost(&input.stream, &untraced_walls, &mut out.m);
        put_trace_overhead(
            median(&events_per_s(&input.stream, &untraced_walls)),
            median(&events_per_s(&input.stream, &traced_walls)),
            &mut out.m,
        );
        put_span_metrics(tracer, &mut out.m);
        Counts::of(&session.snapshot()).put(&mut out.m);
        put_handle_counts(session.kard(), &mut out.m);
        put_server_metrics(tracer, &Statsz::default(), &mut out.m);
    }
}
