#!/usr/bin/env python3
"""Run-to-run spread and regression gate for the benchmark.

    python3 perfbench/spread.py --workload kernel_live --seeds 1-10 [--out runs.jsonl]
    python3 perfbench/spread.py --compare base.jsonl head.jsonl

The first form runs the benchmark once per seed (untraced) and prints, per
end-to-end metric, the median, the quartiles and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json. With
--out the result lines are appended to a file, one JSON object per run
with the workload and seed added.

The second form compares two such files workload by workload: a metric
regresses when the head median is worse than the base median by more than
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, head, better):
    """How much worse `head` is than `base`, as a share of `base`."""
    if better == "lower":
        return (head - base) / base
    return (base - head) / base


def regressions(base_runs, head_runs, spec):
    """Metric/workload pairs whose head median is worse than the base
    median by more than the metric's bound: [(workload, metric, worse)]."""
    flagged = []
    for workload in sorted({r["workload"] for r in base_runs}):
        b = [r for r in base_runs if r["workload"] == workload]
        h = [r for r in head_runs if r["workload"] == workload]
        if not h:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bm = statistics.median(r["metrics"][name]["value"] for r in b)
            hm = statistics.median(r["metrics"][name]["value"] for r in h)
            w = worse_by(bm, hm, m["better"])
            if w > m["bound"]:
                flagged.append((workload, name, w))
    return flagged


def run_once(workload, seed, seconds, trace=0):
    """One benchmark run; checks that it reports exactly the metrics
    BENCHMARK.json lists for the mode."""
    spec = bench_spec()
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(lines[-1])
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if list(res["metrics"]) != listed:
        raise SystemExit(f"{workload}: metrics {list(res['metrics'])} differ from BENCHMARK.json")
    res["workload"] = workload
    res["seed"] = seed
    # The run's median round before scaling, from its log line.
    for line in out.stderr.splitlines():
        if "round p50" in line:
            words = line.split()
            res["round_wall_ms"] = float(words[words.index("wall,") - 2])
            res["round_cpu_ms"] = float(words[words.index("CPU,") - 2])
            res["reference_unit_ms"] = float(words[words.index("unit") + 1])
    return res


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    a = ap.parse_args()
    spec = bench_spec()
    if a.compare:
        flagged = regressions(load(a.compare[0]), load(a.compare[1]), spec)
        for workload, name, w in flagged:
            print(f"REGRESSION {workload} {name}: worse by {100 * w:.1f}%")
        return 1 if flagged else 0
    runs = []
    for seed in parse_seeds(a.seeds):
        r = run_once(a.workload, seed, spec["run_seconds"])
        runs.append(r)
        if a.out:
            with open(a.out, "a") as f:
                f.write(json.dumps(r) + "\n")
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']} {vals}", flush=True)
    if len(runs) < 2:
        return 0 if runs[0]["correct"] else 1
    ok = True
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        s = spread(values)
        # Steady means a spread under a third of the bound; set-up time is
        # only held to its median.
        steady = m["name"] == "setup_s" or s < m["bound"] / 3
        ok &= steady
        print(f"{m['name']:<14} median {statistics.median(values):.6g} "
              f"q1 {q1:.6g} q3 {q3:.6g} spread {100 * s:.2f}% "
              f"bound {100 * m['bound']:.0f}% {'ok' if steady else 'WIDE'}")
    for key in ("round_wall_ms", "round_cpu_ms"):
        values = [r[key] for r in runs if key in r]
        if len(values) == len(runs):
            print(f"{key:<14} median {statistics.median(values):.6g} "
                  f"spread {100 * spread(values):.2f}% (unscaled, for comparison)")
    return 0 if ok and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
