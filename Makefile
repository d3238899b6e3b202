.PHONY: verify build test test-races test-benchmark clippy doc tables trace-demo serve loc bench-pairs ledger flake

verify: build test test-races test-benchmark clippy doc trace-demo

build:
	cargo build --release

test:
	cargo test -q --workspace

# The real-thread races (kard-sim's: a dTLB entry against the shootdown
# of its page, lock-free PTE readers against the writer, owners' load-and-
# store counter bumps against a visitor's; kard-core's: a fast key holder
# against a key-table guard) only overlap in an optimised build; in debug
# the tests pass without racing. One release run each here; `make flake
# TEST=page_table_concurrency PACKAGE=kard-sim`, `make flake
# TEST=counter_words PACKAGE=kard-sim` and `make flake TEST=holder_words
# PACKAGE=kard-core` size them.
test-races:
	cargo test --release -q -p kard-sim --test page_table_concurrency
	cargo test --release -q -p kard-sim --test counter_words
	cargo test --release -q -p kard-core --test holder_words

# `benchmark/` is its own workspace (BENCHMARK.json drives it from a
# fresh checkout), so `cargo test --workspace` never compiles it: build
# and smoke-test it here so a public-API removal that breaks it fails
# verification. `benchmark/` is frozen byte for byte, and any change to
# a crate's `[dependencies]` rewrites its Cargo.lock: `--locked` makes
# that an error here instead of a dirty tree in CI.
test-benchmark:
	cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Workspace-wide so every crate's #![deny(missing_docs)] and intra-doc
# links are checked, not just the umbrella crate's.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate the two golden files `crates/kard-bench/tests/golden.rs`
# checks. Every number in them is virtual-clock except alloctiers'
# `locks/op`, a host lock count that one OS thread makes deterministic,
# so a diff here is a change in modelled behaviour or in allocator
# locking, never noise.
tables:
	cargo run --release -q -p kard-bench --bin kard-tables -- all > paper_tables_output.txt
	cargo run --release -q -p kard-bench --bin kard-tables -- extensions > extension_tables_output.txt

# The size figures ROADMAP status lines and CHANGES.md quote, for every
# crate under crates/ and the umbrella crate's src/: all `.rs` lines, and
# the lines above each file's test module (a `#[cfg(test)]` directly
# followed by `mod name {`, or a file-level `#![cfg(test)]`); a file under
# a `tests/` directory is test code throughout.
loc:
	@for d in crates/* src; do \
		find $$d -name '*.rs' | sort | xargs awk -v crate=$${d#crates/} ' \
			FNR == 1 { tests = FILENAME ~ /\/tests\//; pending = 0 } \
			/^#!\[cfg\(test\)\]/ { tests = 1 } \
			pending && /^[ \t]*mod [a-z_]+ *\{/ { tests = 1; code-- } \
			{ pending = /^[ \t]*#\[cfg\(test\)\]/; all++; code += !tests } \
			END { printf "%-15s %6d lines, %6d above the test modules\n", crate, all, code }'; \
	done

# Measure a change against its parent the way a claimed gain is judged:
# `make bench-pairs WORKLOAD=embed_faults [PAIRS=10] [BASE=HEAD~1]
# [CHANGE=<rev>]` checks BASE out as a worktree at .bench_build/base,
# builds both sides with BENCHMARK.json's command and runs PAIRS
# alternating pairs at its run_seconds (see bench_pairs.py). The change is
# the working tree, or with CHANGE that revision checked out as a worktree
# at .bench_build/chng, a path as long as the parent's: the checkout's path
# length alone moves `embed_threads` by up to 9%, so a claim there runs
# `CHANGE=HEAD BASE=HEAD~1` on a committed change. Minutes long, so not
# part of `verify`. `git worktree remove --force .bench_build/base` (or
# `chng`) drops a checkout.
PAIRS ?= 10
BASE ?= HEAD~1
CHANGE ?=
bench-pairs:
	@test -n "$(WORKLOAD)" || { echo "usage: make bench-pairs WORKLOAD=<name> [PAIRS=10] [BASE=HEAD~1] [CHANGE=<rev>]"; exit 2; }
	python3 bench_pairs.py $(WORKLOAD) $(PAIRS) $(BASE) $(CHANGE)

# Say which layer moved: `make ledger WORKLOAD=embed_faults [BASE=HEAD~1]
# [CHANGE=<rev>]` builds both sides the same way, makes one `--trace 1`
# run of each and prints BENCHMARK.json's per_layer rows side by side
# (parent, change, ratio). Attribution only — a gain is judged by
# bench-pairs.
ledger:
	@test -n "$(WORKLOAD)" || { echo "usage: make ledger WORKLOAD=<name> [BASE=HEAD~1] [CHANGE=<rev>]"; exit 2; }
	python3 bench_pairs.py --ledger $(WORKLOAD) $(BASE) $(CHANGE)

# Size a suspected flake, or show one is gone, the way it is judged:
# `make flake TEST=concurrency_stress [RUNS=200] [PACKAGE=kard-sim]`
# builds the integration test TEST (of PACKAGE, default the root package)
# once in release and runs the binary RUNS times while one busy-loop
# process per core loads the host (see flake.py); prints the failure
# count and the first failing output, nonzero exit on any failure.
# Minutes long, so not part of `verify`.
RUNS ?= 200
flake:
	@test -n "$(TEST)" || { echo "usage: make flake TEST=<integration test> [RUNS=200] [PACKAGE=<crate>]"; exit 2; }
	python3 flake.py $(TEST) $(RUNS) $(PACKAGE)

# Run the firehose daemon on the default TCP port (see
# `kard-server --help` for sockets, shard counts, and stats streaming).
serve:
	cargo run --release -p kard-server -- --telemetry

# The observability walkthrough, run rather than only compiled: a traced
# NGINX replay exported to target/trace-demo/{events.jsonl,trace.json}
# (under the ignored target/, so verify leaves the tree clean).
trace-demo:
	cargo run --release --example telemetry
