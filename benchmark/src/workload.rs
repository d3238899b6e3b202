//! The shape every workload has, and the six of them by name.

use crate::report::{Checks, Metrics};
use crate::spans::Tracer;
use crate::stream::Replayable;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 6] = [
    "embed_sections",
    "embed_faults",
    "embed_churn",
    "embed_threads",
    "fire_stream",
    "fire_storm",
];

/// What a run accumulates.
#[derive(Default)]
pub struct Out {
    pub m: Metrics,
    pub checks: Checks,
    /// Events per second of the live, untraced part of a traced firehose
    /// run: what `server.transport_ns_per_event` is the residual of.
    pub live_events_per_s: Option<f64>,
    /// Lines printed under the metrics, for a reader and no parser.
    pub notes: Vec<String>,
}

pub trait Workload {
    /// Everything built before the timed region.
    type Input;

    /// OS threads that generate load. More than the host's cores makes the
    /// run oversubscribed and its wall-clock numbers not comparable.
    fn generator_threads(&self) -> usize;

    /// Build the inputs from `seed`, start what has to run, warm it up.
    fn prepare(&self, seed: u64) -> Self::Input;

    fn replayable<'a>(&self, input: &'a Self::Input) -> &'a Replayable;

    /// The timed region with tracing off. Reports `events_per_s` and
    /// `op_ms_p50`.
    fn untraced(&self, input: &mut Self::Input, seconds: f64, out: &mut Out);

    /// The workload's share of a traced run. Reports the span and count
    /// metrics of `core.*` and `alloc.*`, every `server.*` metric but
    /// `server.parse_request_ns_per_event` and the transport residual,
    /// `rt.apply_ns_per_event`, `bench.trace_overhead_pct` and
    /// `bench.op_ms_p99`.
    fn traced(&self, input: &mut Self::Input, seconds: f64, tracer: &mut Tracer, out: &mut Out);
}
