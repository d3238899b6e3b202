#!/usr/bin/env python3
"""`make bench-pairs` and `make ledger`: one benchmark workload, parent against change.

Both check BASE out as a git worktree under .bench_build/base (reused while
it still sits at BASE) and build both sides with BENCHMARK.json's command.

`bench_pairs.py WORKLOAD PAIRS BASE` runs PAIRS pairs at the benchmark's own
run_seconds -- a different seed per pair, the same seed within a pair,
alternating which side goes first -- appending every run to
.bench_build/{parent,change}.jsonl through the benchmark's --out, then
prints, for each end-to-end metric, the per-pair values and win count, each
side's median and quartiles, and the rule a claimed gain is judged by (the
change ahead in at least nine tenths of the pairs, ties counting for
neither, *and* the medians apart by more than the distance between the
parent's quartiles); then the benchmark's own `compare` of the two files
(that workload's rows; exit status 1 if any of them is not `ok`).

`bench_pairs.py --ledger WORKLOAD BASE` runs one `--trace 1` run per side
and prints BENCHMARK.json's `per_layer` rows side by side (parent, change,
change / parent): where the time went, not whether the change is faster --
one traced run says nothing about spread.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BASE_DIR = os.path.join(BUILD, "base")


def git(*args, cwd=ROOT):
    return subprocess.run(("git",) + args, cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def check_out(base):
    want = git("rev-parse", "--verify", base + "^{commit}")
    # Without its own .git, `git -C` would answer for the enclosing repo.
    if os.path.exists(os.path.join(BASE_DIR, ".git")):
        if git("rev-parse", "HEAD", cwd=BASE_DIR) == want:
            return want
        git("worktree", "remove", "--force", BASE_DIR)
    git("worktree", "prune")
    git("worktree", "add", "--detach", BASE_DIR, want)
    return want


def prepare(workload, base):
    """Check out and build both sides; returns (declaration, {side: directory})."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        decl = json.load(f)
    if workload not in {w["name"] for w in decl["workloads"]}:
        sys.exit(f"WORKLOAD must be one of BENCHMARK.json's workloads, not {workload!r}")
    os.makedirs(BUILD, exist_ok=True)
    sides = {"parent": BASE_DIR, "change": ROOT}
    print(f"# parent = {base} ({check_out(base)[:7]}) in {BASE_DIR}; change = the working tree")
    # The declared command is a `cargo run ... --`; the same flags build.
    build = ["build" if a == "run" else a for a in decl["command"] if a != "--"]
    for cwd in sides.values():
        subprocess.run(build, cwd=cwd, check=True)
    return decl, sides


def run_once(decl, cwd, workload, seed, extra):
    """One run of the declared command; returns its metrics or exits."""
    run = subprocess.run(
        decl["command"] + ["--workload", workload, "--seed", seed,
                           "--seconds", str(decl["run_seconds"])] + extra,
        cwd=cwd, text=True, stdout=subprocess.PIPE)
    result = json.loads(run.stdout.splitlines()[-1])
    if run.returncode != 0 or result["failed"]:
        sys.exit(f"run in {cwd} failed:\n{run.stdout}")
    return result["metrics"]


def ledger(workload, base):
    decl, sides = prepare(workload, base)
    got = {side: run_once(decl, cwd, workload, "1", ["--trace", "1"])
           for side, cwd in sides.items()}
    print(f"\n{workload}: one --trace 1 run per side at --seconds {decl['run_seconds']}")
    print(f"{'layer metric':<36} {'unit':<7} {'parent':>14} {'change':>14} {'ratio':>7}")
    for m in decl["per_layer"]:
        p, c = (got[side].get(m["name"], {}).get("value", 0) for side in ("parent", "change"))
        if not p and not c:
            continue  # Absent or zero on both sides: the workload does not run that layer.
        ratio = f"{c / p:7.2f}" if p else "      -"
        print(f"{m['name']:<36} {m['unit']:<7} {p:>14.4f} {c:>14.4f} {ratio}")


def quartiles(xs):
    """(first quartile, median, third quartile), inclusive method."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def print_verdict(pairs, higher, wins):
    """Each side's median and quartiles over (parent, change) pairs, and the gain rule."""
    parent, change = (quartiles([pair[side] for pair in pairs]) for side in (0, 1))
    for name, (q1, q2, q3) in (("parent", parent), ("change", change)):
        print(f"  {name} median {q2:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
    gap = change[1] - parent[1] if higher else parent[1] - change[1]
    iqr = parent[2] - parent[0]
    ratio = f", change / parent = {change[1] / parent[1]:.3f}" if parent[1] else ""
    print(f"  median gap {gap:+.4f} towards better{ratio}; parent's interquartile distance {iqr:.4f}")
    met = 10 * wins >= 9 * len(pairs) and gap > iqr
    print(f"  gain rule (change ahead in >= 9 of 10 pairs and gap > parent's interquartile "
          f"distance): {'met' if met else 'not met'}")


def main():
    if sys.argv[1] == "--ledger":
        return ledger(sys.argv[2], sys.argv[3])
    workload, pairs, base = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    decl, sides = prepare(workload, base)
    command = decl["command"]
    others = {w["name"] for w in decl["workloads"]} - {workload}
    out = {}
    for side in sides:
        out[side] = os.path.join(BUILD, side + ".jsonl")
        if os.path.exists(out[side]):
            os.remove(out[side])

    values = {m["name"]: [] for m in decl["end_to_end"]}
    for pair in range(pairs):
        seed = str(pair + 1)
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        got = {side: run_once(decl, sides[side], workload, seed,
                              ["--trace", "0", "--out", out[side]])
               for side in order}
        for name in values:
            values[name].append((got["parent"][name]["value"], got["change"][name]["value"]))
        print(f"# pair {pair + 1}/{pairs} (seed {seed}, {order[0]} first) done", flush=True)

    print(f"\n{workload}: {pairs} alternating pairs at --seconds {decl['run_seconds']}, in the order run")
    for m in decl["end_to_end"]:
        higher = m["better"] == "higher"
        wins = ties = 0
        print(f"\n{m['name']} ({m['unit']}, {m['better']} is better)")
        print(f"  {'pair':>4} {'parent':>16} {'change':>16}  winner")
        for i, (p, c) in enumerate(values[m["name"]]):
            winner = "tie" if p == c else "change" if (c > p) == higher else "parent"
            wins += winner == "change"
            ties += winner == "tie"
            print(f"  {i + 1:>4} {p:>16.4f} {c:>16.4f}  {winner}")
        print(f"  change wins {wins} of {pairs} pairs ({ties} ties)")
        print_verdict(values[m["name"]], higher, wins)

    # `compare` wants every workload in both files; show this one's rows.
    print(f"\ncompare {out['parent']} {out['change']} ({workload} rows)")
    compare = subprocess.run(command + ["compare", out["parent"], out["change"]],
                             cwd=ROOT, text=True, stdout=subprocess.PIPE)
    rows = [row for row in compare.stdout.splitlines()
            if row.strip() and row.split()[0] not in others]
    print("\n".join(rows))
    sys.exit(any(row.startswith(workload) and not row.endswith("  ok") for row in rows))


if __name__ == "__main__":
    main()
