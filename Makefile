.PHONY: verify build test test-benchmark clippy doc tables trace-demo serve

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
	cargo clippy --workspace --all-targets -- -D warnings

# Workspace-wide so every crate's #![deny(missing_docs)] and intra-doc
# links are checked, not just the umbrella crate's.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate the two golden files `crates/kard-bench/tests/golden.rs`
# checks. Every number in them is virtual-clock, so a diff here is a
# change in modelled behaviour, never noise.
tables:
	cargo run --release -q -p kard-bench --bin kard-tables -- all > paper_tables_output.txt
	cargo run --release -q -p kard-bench --bin kard-tables -- extensions > extension_tables_output.txt

# Run the firehose daemon on the default TCP port (see
# `kard-server --help` for sockets, shard counts, and stats streaming).
serve:
	cargo run --release -p kard-server -- --telemetry

trace-demo:
	cargo run --release --example telemetry
