#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py

For every workload it makes RUNS untraced runs, each with another seed,
and reports per end-to-end metric the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  A spread below a third of the metric's bound reads "ok", one
within the bound "wide", a wider one "UNSTEADY".  Beside each time metric
it prints the median and spread of the same runs' raw values, before
scaling by the host's slowdown.  It then makes TRACED traced runs and
asserts that every deterministic per-layer count repeats exactly (seed
FIRST_SEED throughout, except that the fixed-input workloads also change
the seed).  The exit code is 1 if a run failed, a metric is unsteady or a
count moved.
"""

import json
import statistics
import subprocess
import sys

sys.path.insert(0, "perfbench")
from run import DETERMINISTIC  # noqa: E402

RUNS = 10
TRACED = 2
FIRST_SEED = 101

# Workloads whose input does not depend on the seed: their counts must
# also repeat across seeds.
FIXED_INPUT = ("qsort-proof", "qsort-pba-cert")


def one_run(spec, workload, seed, trace):
    """The run's reported metrics and, untraced, its raw ones."""
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    result = json.loads(p.stdout.decode().strip().splitlines()[-1])
    if p.returncode != 0 or not result["correct"]:
        print("run failed: %s (exit %d)" % (" ".join(argv), p.returncode))
        return None, None
    raw = [json.loads(line[4:])["metrics"] for line in p.stderr.decode().splitlines()
           if line.startswith("raw ")]
    return {k: v["value"] for k, v in result["metrics"].items()}, (raw or [{}])[-1]


def spread(vals):
    q = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, (q[2] - q[0]) / med if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        runs, raws = [], []
        for i in range(RUNS):
            m, raw = one_run(spec, w, FIRST_SEED + i, 0)
            ok = ok and m is not None
            if m:
                runs.append(m)
                raws.append(raw)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if len(runs) < 4:
                ok = False
                continue
            med, sp = spread([r[name] for r in runs])
            if sp < bound / 3:
                verdict = "ok"
            elif sp <= bound:
                verdict = "wide"
            else:
                verdict = "UNSTEADY"
                ok = False
            raw = [r[name] for r in raws if name in r]
            unscaled = ("  raw median %12.6g  spread %6.3f" % spread(raw)
                        if len(raw) == len(runs) else "")
            print("%-16s %-16s median %12.6g  spread %6.3f  bound %.3f  %-8s%s"
                  % (w, name, med, sp, bound, verdict, unscaled), flush=True)
        traced = []
        for i in range(TRACED):
            seed = FIRST_SEED + (i if w in FIXED_INPUT else 0)
            m, _ = one_run(spec, w, seed, 1)
            ok = ok and m is not None
            if m:
                traced.append(m)
        for name in DETERMINISTIC:
            vals = {r[name] for r in traced}
            same = len(vals) <= 1
            ok = ok and same
            print("%-16s %-24s %s %s" % (w, name, sorted(vals), "ok" if same else "MOVED"),
                  flush=True)
        for r in traced:
            print("%-16s trace.overhead_s %.3f" % (w, r["trace.overhead_s"]), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
