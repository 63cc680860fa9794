#!/usr/bin/env python3
"""Exact gate on perfbench's simulated metrics.

    python3 perfbench/run.py --selfcheck
    python3 tools/perfbench_gate.py tools/perfbench_expected.json

The expected file is keyed by seed, then by workload:
{"1": {"ingest": {...}, ...}, "2": {...}}.  For every seed and workload
in it, the gate reads the untraced result the self-check just wrote
(perfbench/out/<workload>-<seed>-trace0.json: seed 1 and the held-out
seed 2) and runs no benchmark itself.  Each run must be correct, and
every sim_*, pmem.* and fail_ratio value must equal the expected file
exactly: these are a pure function of the seed, so any difference is a
code change.  A missing file or key fails.  On a failure the gate
prints each differing metric and then the fresh table, in the expected
file's format, for a change that moves the numbers on purpose.
"""

import json
import os
import sys

OUT = os.path.join("perfbench", "out")


def exact(key):
    return key.startswith(("sim_", "pmem.")) or key == "fail_ratio"


def main(expected_path):
    with open(expected_path) as f:
        expected = json.load(f)
    problems, table = [], {}
    for seed, workloads in expected.items():
        table[seed] = {}
        for w, want in workloads.items():
            name = "seed %s %s" % (seed, w)
            path = os.path.join(OUT, "%s-%s-trace0.json" % (w, seed))
            try:
                with open(path) as f:
                    res = json.load(f)
            except (OSError, ValueError) as e:
                problems.append("%s: cannot read %s (%s)" % (name, path, e))
                continue
            if res.get("correct") is not True:
                problems.append("%s: run not correct" % name)
            got = {k: v["value"] for k, v in res.get("metrics", {}).items() if exact(k)}
            table[seed][w] = got
            for k in sorted(set(want) | set(got)):
                if k not in got:
                    problems.append("%s: %s missing (expected %r)" % (name, k, want[k]))
                elif k not in want:
                    problems.append("%s: %s not in the expected file (got %r)" % (name, k, got[k]))
                elif got[k] != want[k]:
                    problems.append("%s: %s expected %r, got %r" % (name, k, want[k], got[k]))
    for p in problems:
        print("DIFF " + p)
    if problems:
        print("fresh table:")
        print(json.dumps(table, indent=2))
    print("perfbench gate: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: perfbench_gate.py EXPECTED.json")
    sys.exit(main(sys.argv[1]))
