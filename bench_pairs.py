#!/usr/bin/env python3
"""`make bench-pairs`: alternating parent/change runs of one benchmark workload.

Checks BASE out as a git worktree under .bench_build/base (reused while it
still sits at BASE), builds both sides with BENCHMARK.json's command, runs
PAIRS pairs at the benchmark's own run_seconds -- a different seed per
pair, the same seed within a pair, alternating which side goes first --
appending every run to .bench_build/{parent,change}.jsonl through the
benchmark's --out, then prints the per-pair values and win count of each
end-to-end metric and the benchmark's own `compare` of the two files
(that workload's rows; exit status 1 if any of them is not `ok`).
"""
import json
import os
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


def main():
    workload, pairs, base = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        decl = json.load(f)
    command, seconds = decl["command"], str(decl["run_seconds"])
    others = {w["name"] for w in decl["workloads"]} - {workload}
    if len(others) == len(decl["workloads"]):
        sys.exit(f"WORKLOAD must be one of BENCHMARK.json's workloads, not {workload!r}")

    os.makedirs(BUILD, exist_ok=True)
    sides = {"parent": BASE_DIR, "change": ROOT}
    print(f"# parent = {base} ({check_out(base)[:7]}) in {BASE_DIR}; change = the working tree")
    # The declared command is a `cargo run ... --`; the same flags build.
    build = ["build" if a == "run" else a for a in command if a != "--"]
    out = {}
    for side, cwd in sides.items():
        subprocess.run(build, cwd=cwd, check=True)
        out[side] = os.path.join(BUILD, side + ".jsonl")
        if os.path.exists(out[side]):
            os.remove(out[side])

    values = {m["name"]: [] for m in decl["end_to_end"]}
    for pair in range(pairs):
        seed = str(pair + 1)
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            run = subprocess.run(
                command + ["--workload", workload, "--seed", seed, "--seconds", seconds,
                           "--trace", "0", "--out", out[side]],
                cwd=sides[side], text=True, stdout=subprocess.PIPE)
            result = json.loads(run.stdout.splitlines()[-1])
            if run.returncode != 0 or result["failed"]:
                sys.exit(f"{side} run of pair {pair + 1} failed:\n{run.stdout}")
            got[side] = result["metrics"]
        for name in values:
            values[name].append((got["parent"][name]["value"], got["change"][name]["value"]))
        print(f"# pair {pair + 1}/{pairs} (seed {seed}, {order[0]} first) done", flush=True)

    print(f"\n{workload}: {pairs} alternating pairs at --seconds {seconds}, in the order run")
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
