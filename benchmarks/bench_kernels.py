#!/usr/bin/env python3
"""Benchmark the numba-compiled kernels against the pure-numpy fallback.

Runs the same closed-loop workload (rough-terrain runs with per-tick
replanning) in two subprocesses, one with LIPRINT_DISABLE_NUMBA=1, and
reports wall time per path. Compilation happens inside the timed child,
so a warm-up pass is timed separately from the measured pass. The children
import liprint from this checkout's src/, so no install is needed. numba is
the optional extra liprint[numba]; without it there is only one path and
the script says so and exits.

Usage: python benchmarks/bench_kernels.py [--runs 20] [--duration 6.0]
"""

import argparse
import importlib.util
import os
import subprocess
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_WORKLOAD = """
import time
import liprint as lp
from liprint import sim, terrain

runs = {runs}
duration = {duration}

def workload():
    total_ticks = 0
    for seed in range(runs):
        spec = terrain.TerrainSpec(kind="rough", amplitude=0.05,
                                   correlation=0.5, seed=seed)
        cfg = sim.SimConfig(cmd=lp.StepCommand(v_cmd=(1.0, 0.0)),
                            total_duration=duration, replan="every-tick",
                            terrain=spec)
        res = sim.run(cfg)
        total_ticks += res.sample_array.shape[0]
    return total_ticks

workload()  # warm-up: JIT compilation / cache load
t0 = time.perf_counter()
ticks = workload()
dt = time.perf_counter() - t0
print(f"{{'numba' if lp.NUMBA_ENABLED else 'numpy'}} {{dt:.4f}} {{ticks}}")
"""


def run_child(disable_numba, runs, duration):
    env = dict(os.environ)
    if disable_numba:
        env["LIPRINT_DISABLE_NUMBA"] = "1"
    else:
        env.pop("LIPRINT_DISABLE_NUMBA", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    code = _WORKLOAD.format(runs=runs, duration=duration)
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    mode, seconds, ticks = out.stdout.split()
    return mode, float(seconds), int(ticks), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--duration", type=float, default=6.0)
    args = ap.parse_args()

    if importlib.util.find_spec("numba") is None:
        print("numba is not installed (optional extra liprint[numba]): only "
              "the pure-Python path exists, so there is nothing to compare")
        return

    print(f"workload: {args.runs} rough-terrain runs x {args.duration} s, "
          f"per-tick replanning")
    results = {}
    for disable in (False, True):
        mode, seconds, ticks, wall = run_child(disable, args.runs, args.duration)
        results[mode] = seconds
        rate = ticks / seconds if seconds > 0 else float("inf")
        print(f"  {mode:<6} {seconds:8.4f} s   {rate:12.0f} ticks/s   "
              f"(child total {wall:.1f} s incl. startup)")
    if results.get("numba") and results.get("numpy"):
        print(f"speedup: {results['numpy'] / results['numba']:.1f}x")


if __name__ == "__main__":
    main()
