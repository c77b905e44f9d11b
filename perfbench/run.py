#!/usr/bin/env python3
"""liprint benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload gap-replan --seed 0 --seconds 30 --trace 0

Runs one workload in this single process: one client calls
`liprint.cli.main([...])` and starts the next command only when the
previous one has returned. liprint is imported from `src/` of the checkout
this file sits in; no install is needed.

--trace 0 times untraced commands and reports the end-to-end metrics.
Timings are host-normalized: a fixed pure-Python probe is timed before and
after every command and set-up, and each wall time is scaled by the
probe's speed around it (see host_normalized), so that a shared host's
drift cancels. The raw wall-clock figures are in the report's wall_clock
line.
--trace 1 alternates untraced and traced commands and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the spans
of the first traced command go to .perfbench/spans-<workload>-seed<n>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are a human-readable
report with the environment, sample counts and output hashes.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np  # imported here so set-up times liprint, not numpy

import tracer as tracer_mod
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
HASHED_COMMANDS = 4
PROBES = 4  # host probes timed between two commands or set-ups
REFERENCE_PROBE_S = 0.002  # host_probe time that normalized times are scaled to


def host_probe(n=2500):
    """A fixed slice of pure-Python work: float maths, calls and string
    formatting, the mix liprint's pure-Python paths spend their time on.

    It takes about 1.8 ms on an idle 2.1 GHz Xeon core. It uses nothing
    from liprint, so its time moves with the host's speed and never with
    the program's code.
    """
    acc = 0.0
    parts = []
    for i in range(n):
        x = 0.001 * i
        acc += math.cosh(x) * 0.25 - math.sinh(x) * 0.5 + (x if i & 1 else -x)
        parts.append(f"{x:.6g},{acc:.6g}")
    return len(",".join(parts)) + acc


def time_probes():
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        host_probe()
        times.append(time.perf_counter() - t0)
    return times


def host_normalized(times, probes):
    """Scale each wall time to the host speed at which host_probe takes
    REFERENCE_PROBE_S.

    probes[i] and probes[i + 1] are the probe times taken just before and
    just after times[i]; their mean measures how fast the host ran around
    that interval. A shared host drifts by tens of percent over minutes, and
    the program and the probe slow down together, so the ratio cancels the
    drift while a change in the program's own speed shows in full.
    """
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(probes)} probe groups for {len(times)} intervals")
    return [t * REFERENCE_PROBE_S / statistics.fmean(before + after)
            for t, before, after in zip(times, probes, probes[1:])]


def tail_percentile(samples):
    """(value, percentile, beyond): the highest percentile of `samples`
    that still has at least ten samples beyond it.

    With n sorted samples that is the (n - 10)-th smallest, the
    100 (n - 10) / n percentile. With ten samples or fewer no percentile
    qualifies, and the maximum is returned with beyond < 10.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def load_liprint():
    """Import liprint afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "liprint" or m.startswith("liprint.")]:
        del sys.modules[name]
    liprint = importlib.import_module("liprint")
    mods = SimpleNamespace(liprint=liprint, **{
        name: importlib.import_module(f"liprint.{name}")
        for name in ("cli", "sim", "_kernels", "terrain", "metrics")})
    where = Path(liprint.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"liprint imported from {where}, not from {SRC}")
    return mods


def run_command(mods, wl, cmd, tracer=None):
    """Run one command, traced if a tracer is given, then check its outputs.

    Returns (seconds, error or None); the check is neither timed nor traced.
    """
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = mods.cli.main(cmd.argv)
        else:
            with tracer.installed(mods):
                code = mods.cli.main(cmd.argv)
    except Exception as e:  # a raising command is a failed command
        return time.perf_counter() - t0, f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    try:
        wl.check(cmd, code)
    except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError) as e:
        return elapsed, f"check failed: {type(e).__name__}: {e}"
    return elapsed, None


def setup(workload_cls, seed, workdir):
    """Import liprint, generate the inputs, run one untimed warm-up command.

    Returns (seconds, modules, workload, warm-up error or None).
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    mods = load_liprint()
    wl = workload_cls(mods, seed, workdir)
    _, err = run_command(mods, wl, wl.warmup)
    return time.perf_counter() - t0, mods, wl, err


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(mods, args):
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "liprint").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "backend": "numba" if mods.liprint.NUMBA_ENABLED else "pure-python",
        "numba_enabled": bool(mods.liprint.NUMBA_ENABLED),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(ROOT),
        "source_sha256": src_hash.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "liprint" / "__init__.py").is_file():
        print(f"error: no liprint sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"work-{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    workload_cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    setup_probes = [time_probes()]
    warmup_errors = []
    for _ in range(SETUP_REPEATS):
        seconds, mods, wl, err = setup(workload_cls, args.seed, workdir)
        setup_times.append(seconds)
        setup_probes.append(time_probes())
        if err:
            warmup_errors.append(err)

    tracer = tracer_mod.Tracer()
    times, is_traced, ticks = [], [], []
    probes = [time_probes()]  # probes[i] before and probes[i + 1] after command i
    errors = []
    digest = hashlib.sha256()
    attempted = 0
    gc.collect()
    deadline = time.perf_counter() + args.seconds
    while True:
        cmd = wl.pool[attempted % len(wl.pool)]
        traced = args.trace == 1 and attempted % 2 == 1
        if traced:
            tracer.keep_spans = not any(is_traced)
            tracer.request = attempted
        seconds, err = run_command(mods, wl, cmd, tracer if traced else None)
        times.append(seconds)
        is_traced.append(traced)
        ticks.append(cmd.ticks)
        if err:
            errors.append(f"command {attempted} ({cmd.argv[0]}): {err}")
        if attempted < HASHED_COMMANDS:
            for path in wl.hashed_outputs:
                digest.update(path.read_bytes() if path.exists() else b"<missing>")
        probes.append(time_probes())
        attempted += 1
        if time.perf_counter() >= deadline and (args.trace == 0 or any(is_traced)):
            break

    failed = len(errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    normalized = host_normalized(times, probes)
    plain = [t for t, tr in zip(normalized, is_traced) if not tr]
    traced_norm = [t for t, tr in zip(normalized, is_traced) if tr]
    plain_wall = [t for t, tr in zip(times, is_traced) if not tr]
    plain_ticks = sum(n for n, tr in zip(ticks, is_traced) if not tr)
    ticks_per_s = plain_ticks / sum(plain)
    tail, tail_pct, beyond = tail_percentile(plain)
    e2e = {
        "setup_s": (statistics.median(host_normalized(setup_times, setup_probes)), "s"),
        "op_ms_p50": (1000.0 * statistics.median(plain), "ms"),
        "op_ms_tail": (1000.0 * tail, "ms"),
        "ticks_per_s": (ticks_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    all_probes = [t for group in setup_probes + probes for t in group]
    wall = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": 1000.0 * statistics.median(plain_wall),
        "op_ms_tail": 1000.0 * tail_percentile(plain_wall)[0],
        "ticks_per_s": plain_ticks / sum(plain_wall),
        "host_probe_ms": {"min": 1000.0 * min(all_probes),
                          "median": 1000.0 * statistics.median(all_probes),
                          "count": len(all_probes)},
    }
    report = {
        "environment": environment(mods, args),
        "commands": {"attempted": attempted, "failed": failed,
                     "untraced": len(plain), "traced": len(traced_norm),
                     "pool": len(wl.pool), "ticks_per_command": wl.pool[0].ticks},
        "op_ms_tail_percentile": round(tail_pct, 3),
        "op_ms_tail_beyond": beyond,
        "op_ms_samples": len(plain),
        "setup_s_samples": [round(t, 6) for t in setup_times],
        "outputs_sha256": digest.hexdigest(),
        "outputs_sha256_commands": min(attempted, HASHED_COMMANDS),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "wall_clock": wall,
        "errors": (warmup_errors + errors)[:5],
    }
    if args.trace == 1:
        layer = tracer.per_layer(len(traced_norm))
        traced_ticks = sum(n for n, tr in zip(ticks, is_traced) if tr)
        traced_tps = traced_ticks / sum(traced_norm)
        layer["trace.ticks_per_s"] = (traced_tps, "1/s")
        layer["trace.untraced_ticks_per_s"] = (ticks_per_s, "1/s")
        layer["trace.overhead_ratio"] = (ticks_per_s / traced_tps, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["request", "span", "parent", "name", "start_ns", "end_ns"],
            "spans": tracer.spans}) + "\n")
        report["per_layer"] = metrics
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()
                   if k != "fail_ratio"}  # 0 on a healthy run; `failed` carries it

    for key, value in report.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    print(json.dumps({"correct": failed == 0 and not warmup_errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
