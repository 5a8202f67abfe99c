#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py exact  [--seed N] [--workloads a,b]
    python3 perfbench/selftest.py detect RUNS.jsonl

`exact` runs every workload's traced run twice with the same seed and
checks that the exact counts (simulated cycles, instructions, GC cycles,
snapshot bytes, monitor cycles per iteration, the RISC steady bound and
symex's undecided count) repeat bit for bit, and that every run passed
its output checks. An optimisation must leave these counts unchanged.

`detect` takes runs recorded by `spread.py --out` and checks that a
synthetic 10% shift in the bad direction of any end-to-end metric, on any
workload, is flagged by the same median-versus-bound rule the regression
gate applies (`spread.py --compare`). It also checks, with the benchmark's
own unit tests, that a tail percentile is only reported with at least ten
samples beyond it.
"""

import argparse
import copy
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spread  # noqa: E402

EXACT = [
    "hw.sim_cycles",
    "hw.instructions",
    "hw.gc_cycles",
    "hw.snapshot_bytes",
    "imperative.cpu_cycles_per_iter",
    "verify.risc_steady_cycles",
    "symex.undecided",
]
SHIFT = 0.10


def exact(args):
    spec = spread.bench_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        a = spread.run_once(w, args.seed, spec["run_seconds"], trace=1)
        b = spread.run_once(w, args.seed, spec["run_seconds"], trace=1)
        for r in (a, b):
            if not r["correct"] or r["failed"]:
                print(f"FAIL {w}: output check failed ({r['failed']} of {r['attempted']})")
                ok = False
        for name in EXACT:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = va == vb
            ok &= same
            print(f"{'ok  ' if same else 'FAIL'} {w:<13} {name:<32} {va} {vb}")
    return 0 if ok else 1


def flagged_after_shift(runs, workload, metric, shift, spec):
    """Whether the gate flags `workload` after moving every one of its
    runs' `metric` by `shift` in the bad direction."""
    shifted = copy.deepcopy([r for r in runs if r["workload"] == workload])
    for r in shifted:
        v = r["metrics"][metric["name"]]
        v["value"] *= (1 + shift) if metric["better"] == "lower" else (1 - shift)
    return any(f[0] == workload and f[1] == metric["name"]
               for f in spread.regressions(runs, shifted, spec))


def detect(args):
    spec = spread.bench_spec()
    runs = spread.load(args.runs)
    ok = True
    if spread.regressions(runs, runs, spec):
        print("FAIL identical runs were flagged")
        ok = False
    for workload in sorted({r["workload"] for r in runs}):
        for m in spec["end_to_end"]:
            # A shift just past the bound shows the gate works; the 10%
            # shift is the acceptance test.
            past_bound = flagged_after_shift(runs, workload, m, m["bound"] + 0.01, spec)
            at_ten = flagged_after_shift(runs, workload, m, SHIFT, spec)
            print(f"{'ok  ' if at_ten else 'FAIL'} {workload:<13} {m['name']:<14} "
                  f"bound {m['bound']}: {100 * (m['bound'] + 0.01):.0f}% shift "
                  f"{'flagged' if past_bound else 'MISSED'}, 10% shift "
                  f"{'flagged' if at_ten else 'missed'}")
            ok &= past_bound and at_ten
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(spread.ROOT, "perfbench", "Cargo.toml"), "tail_needs_ten"],
        cwd=spread.ROOT, env=dict(os.environ, CARGO_TARGET_DIR=os.environ.get(
            "CARGO_TARGET_DIR", ".bench_build")))
    ok &= unit.returncode == 0
    print(f"{'ok  ' if unit.returncode == 0 else 'FAIL'} tail percentile needs ten samples beyond it")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    e = sub.add_parser("exact")
    e.add_argument("--seed", type=int, default=1)
    e.add_argument("--workloads")
    d = sub.add_parser("detect")
    d.add_argument("runs")
    a = ap.parse_args()
    return exact(a) if a.cmd == "exact" else detect(a)


if __name__ == "__main__":
    sys.exit(main())
