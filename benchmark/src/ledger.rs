//! The per-layer ledger: measurements and the crates' own counters turned
//! into the named metrics `BENCHMARK.json` declares.

use crate::report::{Metrics, Sample};
use crate::spans::{Kind, Tracer};
use crate::stats::{median, percentile};
use crate::stream::{events_per_s, Stream};
use kard_core::{Kard, KardSnapshot};
use kard_server::proto::Statsz;

/// Per-kind latency and share metrics of the detector, allocator and
/// simulator spans in `tracer`.
pub fn put_span_metrics(tracer: &Tracer, m: &mut Metrics) {
    let mut ns = |name: &str, kind: Kind, q: f64| m.put_quantile(name, tracer.hist(kind), q, 1.0);
    ns("core.lock_enter_ns_p50", Kind::LockEnter, 0.5);
    ns("core.lock_enter_ns_p99", Kind::LockEnter, 0.99);
    ns("core.lock_exit_ns_p50", Kind::LockExit, 0.5);
    ns("core.access_ns_p50", Kind::Access, 0.5);
    ns("core.fault_ns_p50", Kind::Fault, 0.5);
    ns("core.fault_ns_p99", Kind::Fault, 0.99);
    ns("alloc.alloc_ns_p50", Kind::Alloc, 0.5);
    ns("alloc.free_ns_p50", Kind::Free, 0.5);
    ns("sim.charge_ns_p50", Kind::Charge, 0.5);
    m.put("core.lock_enter_share", tracer.share(Kind::LockEnter));
    m.put("core.lock_exit_share", tracer.share(Kind::LockExit));
    m.put("core.access_share", tracer.share(Kind::Access));
    m.put("core.fault_share", tracer.share(Kind::Fault));
    m.put("alloc.alloc_share", tracer.share(Kind::Alloc));
    m.put("alloc.free_share", tracer.share(Kind::Free));
}

/// `rt.*` span metrics: recorded in every traced run, whatever the workload.
pub fn put_rt_metrics(tracer: &Tracer, m: &mut Metrics) {
    m.put_quantile(
        "rt.session_build_us_p50",
        tracer.hist(Kind::SessionBuild),
        0.5,
        1e3,
    );
    m.put_quantile("rt.drain_us_p50", tracer.hist(Kind::Drain), 0.5, 1e3);
}

/// Latencies and counters of the server layer: client-side spans and
/// `/statsz`. A workload that never starts a server passes the empty
/// `Statsz`: the layer is bypassed, and every one of these reads zero.
/// (`server.parse_request_ns_per_event` and `server.transport_ns_per_event`
/// are reported for every workload alike.)
pub fn put_server_metrics(tracer: &Tracer, stats: &Statsz, m: &mut Metrics) {
    let mut us = |name: &str, kind: Kind, q: f64| m.put_quantile(name, tracer.hist(kind), q, 1e3);
    us("server.connect_us_p50", Kind::Connect, 0.5);
    us("server.send_us_p50", Kind::Send, 0.5);
    us("server.flush_wait_us_p50", Kind::FlushWait, 0.5);
    us("server.flush_wait_us_p99", Kind::FlushWait, 0.99);
    us("server.empty_flush_us_p50", Kind::EmptyFlush, 0.5);
    us("server.bye_us_p50", Kind::Bye, 0.5);
    m.put(
        "server.queue_wait_ns_p50",
        stats.ingest_latency_ns.p50 as f64,
    );
    m.put(
        "server.queue_wait_ns_p99",
        stats.ingest_latency_ns.p99 as f64,
    );
    m.put("server.applied", stats.applied as f64);
    m.put("server.dropped", stats.dropped as f64);
    m.put("server.rejected", stats.rejected as f64);
    m.put("server.protocol_errors", stats.protocol_errors as f64);
    m.put("server.races_delivered", stats.races as f64);
    m.put("server.sessions_total", stats.sessions_total as f64);
}

/// `rt.apply_ns_per_event`: the stream's events through `KardExecutor`
/// with no spans — the detector floor under whatever carries the events.
pub fn put_apply_cost(stream: &Stream, untraced_walls: &[f64], m: &mut Metrics) {
    m.put(
        "rt.apply_ns_per_event",
        1e9 / median(&events_per_s(stream, untraced_walls)),
    );
}

/// `bench.op_ms_p99`: the tail of the workload's operation, from the part of
/// a traced run that runs with spans off. It is not an end-to-end metric
/// because no bound on it would hold: on a shared two-core host its
/// run-to-run spread is 20% and more.
pub fn put_op_tail(untraced_op_ms: &[f64], m: &mut Metrics) {
    m.put_sample(
        "bench.op_ms_p99",
        Sample {
            value: percentile(untraced_op_ms, 99.0),
            n: untraced_op_ms.len(),
            q1: percentile(untraced_op_ms, 25.0),
            q3: percentile(untraced_op_ms, 75.0),
        },
    );
}

/// `bench.trace_overhead_pct`: how much faster the same work runs with
/// tracing off — why end-to-end numbers never come from a traced run.
pub fn put_trace_overhead(untraced_rate: f64, traced_rate: f64, m: &mut Metrics) {
    m.put(
        "bench.trace_overhead_pct",
        100.0 * (untraced_rate / traced_rate - 1.0),
    );
}

/// The detector and allocator counts a [`KardSnapshot`] carries, summable
/// over the shards of a server.
#[derive(Default)]
pub struct Counts {
    cs_entries: u64,
    identification_faults: u64,
    migration_faults: u64,
    key_recycles: u64,
    races_reported: u64,
    lock_acquisitions: u64,
    fault_shard_contended: u64,
    vkey_hits: u64,
    vkey_fills: u64,
    vkey_evictions: u64,
    allocations: u64,
    fast_path_hits: u64,
    slab_refills: u64,
    remote_free_pushes: u64,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Counts {
    pub fn add(&mut self, snap: &KardSnapshot) {
        self.cs_entries += snap.detector.cs_entries;
        self.identification_faults += snap.detector.identification_faults;
        self.migration_faults += snap.detector.migration_faults;
        self.key_recycles += snap.detector.key_recycles;
        self.races_reported += snap.detector.races_reported;
        self.lock_acquisitions += snap.lock_acquisitions;
        self.fault_shard_contended += snap.fault_shards.contended;
        self.vkey_hits += snap.vkeys.hits;
        self.vkey_fills += snap.vkeys.fills;
        self.vkey_evictions += snap.vkeys.evictions;
        self.allocations += snap.alloc.allocations;
        self.fast_path_hits += snap.alloc.fast_path_hits;
        self.slab_refills += snap.alloc.slab_refills;
        self.remote_free_pushes += snap.alloc.remote_free_pushes;
    }

    pub fn of(snap: &KardSnapshot) -> Counts {
        let mut counts = Counts::default();
        counts.add(snap);
        counts
    }

    pub fn put(&self, m: &mut Metrics) {
        m.put("core.cs_entries", self.cs_entries as f64);
        m.put(
            "core.identification_faults",
            self.identification_faults as f64,
        );
        m.put("core.migration_faults", self.migration_faults as f64);
        m.put("core.key_recycles", self.key_recycles as f64);
        m.put("core.races_reported", self.races_reported as f64);
        m.put(
            "core.locks_per_entry",
            ratio(self.lock_acquisitions, self.cs_entries),
        );
        m.put(
            "core.fault_shard_contended",
            self.fault_shard_contended as f64,
        );
        m.put(
            "core.vkey_hit_ratio",
            ratio(self.vkey_hits, self.vkey_hits + self.vkey_fills),
        );
        m.put("core.vkey_evictions", self.vkey_evictions as f64);
        m.put(
            "alloc.fast_path_hit_ratio",
            ratio(self.fast_path_hits, self.allocations),
        );
        m.put("alloc.slab_refills", self.slab_refills as f64);
        m.put("alloc.remote_free_pushes", self.remote_free_pushes as f64);
    }
}

/// The two counts no snapshot carries: they need the detector itself.
pub fn put_handle_counts(kard: &Kard, m: &mut Metrics) {
    let (hits, misses) = kard.section_cache_stats();
    m.put("core.plan_cache_hit_ratio", ratio(hits, hits + misses));
    m.put(
        "alloc.lock_acquisitions",
        kard.alloc().alloc_lock_acquisitions() as f64,
    );
}
