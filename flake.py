#!/usr/bin/env python3
"""`make flake`: how often does one integration test binary fail under load?

`flake.py TEST RUNS [PACKAGE]` builds the integration test TEST of PACKAGE
(default: the root package) once in release, starts one busy-loop process
per core so the OS preempts and overlaps the test's threads the way a
loaded CI host does, runs the binary RUNS times, and prints the failure
count and the first failing run's output. Exit status 1 if any run failed.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.abspath(__file__))


def main():
    test, runs = sys.argv[1], int(sys.argv[2])
    package = ["--package", sys.argv[3]] if len(sys.argv) > 3 else []
    build = subprocess.run(
        ["cargo", "test", "--release", "--offline", *package, "--test", test, "--no-run",
         "--message-format=json"],
        cwd=ROOT, text=True, stdout=subprocess.PIPE)
    if build.returncode != 0:
        sys.exit(f"building the integration test {test!r} failed")
    # Run from the package's directory, as `cargo test` does.
    binary, cwd = next((m["executable"], os.path.dirname(m["manifest_path"]))
                       for m in map(json.loads, build.stdout.splitlines())
                       if m.get("executable") and m["target"]["name"] == test)

    load = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
            for _ in range(os.cpu_count() or 1)]
    failures, first = 0, None
    try:
        for _ in range(runs):
            run = subprocess.run([binary], cwd=cwd, text=True, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT)
            if run.returncode != 0:
                failures += 1
                if first is None:
                    first = run.stdout
    finally:
        for p in load:
            p.kill()
            p.wait()
    print(f"{test}: {failures} of {runs} runs failed under {len(load)} busy-loop processes")
    if first is not None:
        print(f"--- first failing run ---\n{first}")
    sys.exit(failures > 0)


if __name__ == "__main__":
    main()
