#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

builds perfbench/main.exe with dune into .bench_build/, runs it, and
passes its output through; the last line is the run's JSON result.

Checks and sweeps:

    python3 perfbench/run.py --selfcheck [--seconds S]
        determinism self-check: per workload, two untraced runs at seed 1
        must agree exactly on sim_*, pmem.* and fail_ratio, one traced
        run at seed 1 must agree with its plain twin, and the held-out
        seed 2 must run clean.
    python3 perfbench/run.py --sweep N --workload W [--seconds S] [--trace T]
        N runs at seeds 1..N; prints every metric's median, quartile
        spread (IQR / median) and per-seed values.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
OUT = os.path.join("perfbench", "out")
WORKLOADS = ["ingest", "lookup", "tpcc", "replicated"]
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def build():
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--cache=disabled", "--display=quiet",
                    "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace, echo=True):
    """Run main.exe; return (exit code, parsed last-line JSON or None)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1, None
    lines = r.stdout.decode(errors="replace").rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if echo:
        sys.stdout.write("\n".join(lines[:-1] if result else lines) + "\n")
    return r.returncode, result


def full_result(workload, seed, trace):
    """Every metric the run computed (the JSON file main.exe wrote)."""
    path = os.path.join(OUT, "%s-%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


def selfcheck(seconds):
    problems = []
    det = lambda k: k.startswith("sim_") or k.startswith("pmem.") or k == "fail_ratio"
    for w in WORKLOADS:
        vals = []
        for label, seed, trace in [("seed 1", 1, 0), ("seed 1 again", 1, 0),
                                   ("seed 1 traced", 1, 1), ("held-out seed 2", 2, 0)]:
            code, res = run_once(w, seed, seconds, trace, echo=False)
            ok = code == 0 and res is not None and res["correct"]
            print("%-10s %-16s %s" % (w, label, "ok" if ok else "FAILED"))
            if not ok:
                problems.append("%s %s did not run clean" % (w, label))
            elif seed == 1 and trace == 0:
                vals.append({k: v["value"] for k, v in
                             full_result(w, 1, 0)["metrics"].items() if det(k)})
        if len(vals) == 2:
            for k in sorted(vals[0]):
                if vals[0][k] != vals[1].get(k):
                    problems.append("%s: %s differs across identical runs (%r vs %r)"
                                    % (w, k, vals[0][k], vals[1].get(k)))
    for p in problems:
        print("PROBLEM: " + p)
    print("selfcheck: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def sweep(workload, n, seconds, trace):
    values = {}
    for seed in range(1, n + 1):
        code, res = run_once(workload, seed, seconds, trace, echo=False)
        if code != 0 or res is None or not res["correct"]:
            print("seed %d: FAILED" % seed)
            return 1
        for k, v in full_result(workload, seed, trace)["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print("seed %d: done" % seed)
    print("%-32s %14s %9s  values" % ("metric", "median", "iqr/med"))
    for k, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print("%-32s %14.6g %9.4f  %s" % (k, med, spread,
                                          " ".join("%.6g" % x for x in xs)))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--sweep", type=int, default=0)
    a = p.parse_args()
    build()
    if a.selfcheck:
        return selfcheck(a.seconds)
    if not a.workload:
        p.error("--workload is required")
    if a.sweep:
        return sweep(a.workload, a.sweep, a.seconds, a.trace)
    code, res = run_once(a.workload, a.seed, a.seconds, a.trace)
    if res is None:
        return code or 1
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
