.PHONY: verify build test test-benchmark clippy doc bench-alloc bench-scalability bench-fault-latency bench-key-pressure bench-firehose bench-production bench-anomaly bench-smoke trace-demo serve

verify: build test test-benchmark clippy doc

build:
	cargo build --release

test:
	cargo test -q --workspace

# `benchmark/` is its own workspace (BENCHMARK.json drives it from a
# fresh checkout), so `cargo test --workspace` never compiles it: build
# and smoke-test it here so a public-API removal that breaks it fails
# verification.
test-benchmark:
	cargo test --release --offline --manifest-path benchmark/Cargo.toml

clippy:
	cargo clippy --all-targets -- -D warnings

# Workspace-wide so every crate's #![deny(missing_docs)] and intra-doc
# links are checked, not just the umbrella crate's.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

bench-scalability:
	cargo bench -p kard-bench --bench bench_scalability

bench-fault-latency:
	cargo bench -p kard-bench --bench bench_fault_latency

bench-key-pressure:
	cargo bench -p kard-bench --bench bench_key_pressure

bench-alloc:
	cargo bench -p kard-bench --bench bench_alloc

bench-firehose:
	cargo bench -p kard-bench --bench bench_firehose

# The overhead-budget Pareto sweep (EXPERIMENTS.md "Production mode").
# The envelope, bit-identity, and narrowing gates run inside the bench.
bench-production:
	cargo bench -p kard-bench --bench bench_production_mode

# Injected-regression detection gates for the drain-side anomaly
# analyzer (EXPERIMENTS.md "Anomaly detection"): every regression
# flagged on its expected metric, <= 1 false positive on the clean
# control. Gates run inside the bench.
bench-anomaly:
	cargo bench -p kard-bench --bench bench_anomaly

# Run the firehose daemon on the default TCP port (see
# `kard-server --help` for sockets, shard counts, and stats streaming).
serve:
	cargo run --release -p kard-server -- --telemetry

# Short smoke runs of every JSON-emitting bench (KARD_BENCH_SMOKE trims
# iteration counts; the JSON shape is identical to a full run), then a
# validity check on each emitted file. Full-size runs overwrite these.
bench-smoke:
	KARD_BENCH_SMOKE=1 cargo bench -p kard-bench --bench bench_alloc
	KARD_BENCH_SMOKE=1 cargo bench -p kard-bench --bench bench_scalability
	KARD_BENCH_SMOKE=1 cargo bench -p kard-bench --bench bench_fault_latency
	KARD_BENCH_SMOKE=1 cargo bench -p kard-bench --bench bench_key_pressure
	KARD_BENCH_SMOKE=1 cargo bench -p kard-bench --bench bench_firehose
	KARD_BENCH_SMOKE=1 cargo bench -p kard-bench --bench bench_production_mode
	KARD_BENCH_SMOKE=1 cargo bench -p kard-bench --bench bench_anomaly
	for f in BENCH_alloc.json BENCH_scalability.json BENCH_fault_latency.json BENCH_key_pressure.json BENCH_firehose.json BENCH_production_mode.json BENCH_anomaly.json; do \
		python3 -m json.tool $$f > /dev/null || exit 1; echo "$$f: valid JSON"; done
	python3 -c "import json; s = [r for r in json.load(open('BENCH_key_pressure.json'))['samples'] if r['policy'] == 'hotness' and r['groups'] == 64]; assert s and all(r['vkeys']['hits'] > 0 for r in s), 'hotness policy produced no vkey cache hits at 64 groups'; print('key-pressure gate: hotness hits at 64 groups =', s[0]['vkeys']['hits'])"

trace-demo:
	cargo run --release --example telemetry
