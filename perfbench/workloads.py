"""The three benchmark workloads: their seeded inputs and output checks.

A workload turns a seed into a fixed pool of CLI commands (plus any input
files they read), which the runner cycles through. Each command writes to
the same output paths, so its outputs are checked before the next command
runs. Checks test invariants of the outputs, never pinned bytes, so a
change that reorders floating-point work still passes.

Every workload is built from the liprint modules handed to it, so the
runner can re-import liprint for each timed set-up.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DT = 0.01  # simulate/sweep default tick; score rows use the same spacing


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output check needs to know."""

    argv: list
    ticks: int  # 10 ms trajectory ticks simulated (or rows scored)
    info: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def shifted_halton(rng, n, bases):
    """n points of the Halton sequence in [0, 1)^d, one prime base per axis,
    shifted by one uniform draw per axis (mod 1).

    Every prefix of the sequence covers the cube evenly, so however many
    commands a run gets through, they sample the input space in the same
    proportions; the seed moves each point, not the coverage. With
    independent draws the share of costly inputs, and with it the tail
    latency, would swing from seed to seed.
    """
    points = np.empty((n, len(bases)))
    for axis, base in enumerate(bases):
        for i in range(n):
            k, f, x = i + 1, 1.0, 0.0
            while k:
                f /= base
                x += f * (k % base)
                k //= base
            points[i, axis] = x
    return (points + rng.random(len(bases))) % 1.0


# --------------------------------------------------------------- gap-replan

class GapReplan:
    """`liprint simulate` on gap terrain with every-tick replanning.

    Per tick the snap search dominates; the trajectory CSV writer is next.
    vx is kept below 0.9 m/s: from about 1.0 m/s some gap offsets make the
    run fail with a step beyond the reach limit.

    The cost of a run swings with (vx, offset), where the steps fall
    relative to the gaps, so the pool is a shifted Halton sequence over
    both. It is longer than a run gets through, so no command repeats.
    """

    name = "gap-replan"
    POOL = 1024
    DURATION = 10.0
    GAP_WIDTH = 0.15
    GAP_PERIOD = 0.8
    VX_RANGE = (0.5, 0.9)

    def __init__(self, mods, seed, workdir: Path):
        self.mods = mods
        self.out = workdir / "traj.csv"
        self.events = workdir / "traj.events.json"
        self.manifest = workdir / "traj.manifest.json"
        # The manifest records the output paths, which differ per checkout.
        self.hashed_outputs = [self.out, self.events]
        rng = np.random.default_rng([seed, 1])
        lo, hi = self.VX_RANGE
        self.pool = [self._command(round(float(lo + (hi - lo) * u), 4),
                                   round(float(self.GAP_PERIOD * v), 4))
                     for u, v in shifted_halton(rng, self.POOL, (2, 3))]
        self.warmup = self._command(0.7, 0.4)

    def _command(self, vx, offset):
        spec = f"gap:{self.GAP_WIDTH}:{self.GAP_PERIOD}:{offset}"
        argv = ["simulate", "--vx", repr(vx), "--terrain", spec,
                "--replan", "every-tick", "--duration", repr(self.DURATION),
                "--out", str(self.out)]
        return Command(argv, round(self.DURATION / DT), {"vx": vx, "spec": spec})

    def check(self, cmd: Command, code):
        terrain = self.mods.terrain
        _require(code == 0, f"exit code {code}, expected 0")
        with open(self.out) as f:
            header = f.readline().rstrip("\n")
            rows = sum(1 for _ in f)
        _require(header == ",".join(self.mods.sim.CSV_COLUMNS), "trajectory header changed")
        _require(rows == cmd.ticks, f"{rows} trajectory rows for {cmd.ticks} ticks")
        manifest = json.loads(self.manifest.read_text())
        _require(manifest["outcome"]["status"] == "completed",
                 f"run {manifest['outcome']['status']}: {manifest['outcome']['reason']}")
        events = json.loads(self.events.read_text())["step_events"]
        _require(len(events) > 0, "no touchdowns recorded")
        # Regenerate the map on the grid the simulator builds for a constant
        # forward command: origin (-2, -2), 5 cm nodes, x up to 1.5 vx T + 2.
        vx = cmd.info["vx"]
        hmap = terrain.generate(terrain.parse_spec(cmd.info["spec"]),
                                (-2.0, -2.0, 1.5 * vx * self.DURATION + 2.0, 2.0), 0.05)
        for ev in events:
            p = (ev["realized"]["x"], ev["realized"]["y"])
            _require(terrain.is_steppable(hmap, p),
                     f"touchdown at t={ev['time']} on unsteppable ground {p}")


# -------------------------------------------------------------- rough-sweep

class RoughSweep:
    """`liprint sweep` over vx x {flat, rough} with paired seeded trials.

    The plain pendulum loop, a fresh rough heightmap per trial and per-run
    config/result building dominate; the snap search runs once per step and
    no trajectory is written. Every run in the vx range completes, so the
    simulated tick count is configs x trials x duration / dt. The vx
    triples are a shifted Halton sequence, as in GapReplan.
    """

    name = "rough-sweep"
    POOL = 256
    N_VX = 3
    TRIALS = 10
    DURATION = 6.0
    VX_RANGE = (0.5, 1.5)
    TERRAINS = ("flat", "rough:0.05:0.5:0")

    def __init__(self, mods, seed, workdir: Path):
        self.mods = mods
        self.out = workdir / "rates.csv"
        self.hashed_outputs = [self.out]
        rng = np.random.default_rng([seed, 2])
        lo, hi = self.VX_RANGE
        self.pool = [self._command([round(float(lo + (hi - lo) * u), 3) for u in point],
                                   int(rng.integers(0, 2**31)))
                     for point in shifted_halton(rng, self.POOL, (2, 3, 5))]
        self.warmup = self._command([0.6, 1.0, 1.4], 0)

    def _command(self, vxs, sweep_seed):
        argv = ["sweep", "--vx-list", ",".join(repr(v) for v in vxs)]
        for t in self.TERRAINS:
            argv += ["--terrain", t]
        argv += ["--trials", str(self.TRIALS), "--duration", repr(self.DURATION),
                 "--replan", "at-step-start", "--seed", str(sweep_seed),
                 "--out", str(self.out)]
        ticks = len(self.TERRAINS) * self.N_VX * self.TRIALS * round(self.DURATION / DT)
        return Command(argv, ticks, {"vx": vxs})

    def check(self, cmd: Command, code):
        _require(code == 0, f"exit code {code}, expected 0")
        rows = _read_csv(self.out)
        _require(rows and rows[0] == ["vx", "terrain", "replan", "trials",
                                      "successes", "success_rate"], "rates header changed")
        grid = [(t, vx) for t in self.TERRAINS for vx in cmd.info["vx"]]
        _require(len(rows) - 1 == len(grid), f"{len(rows) - 1} rows for {len(grid)} configs")
        for row, (label, vx) in zip(rows[1:], grid):
            _require(float(row[0]) == vx and row[1] == label,
                     f"row {row[:2]} out of order, expected {vx}, {label}")
            trials, successes = int(row[3]), int(row[4])
            _require(trials == self.TRIALS, f"{trials} trials, expected {self.TRIALS}")
            _require(0 <= successes <= trials, f"{successes} successes of {trials} trials")
            _require(abs(float(row[5]) - successes / trials) <= 1e-12,
                     f"success rate {row[5]} != {successes}/{trials}")


# ---------------------------------------------------------------- score-log

JOINTS = 12
_JOINT_COLS = ([f"{p}{j}" for p in ("q", "dq", "tau", "a") for j in range(JOINTS)]
               + ["omega_x", "omega_y", "omega_z", "g_x", "g_y", "g_z",
                  "v_z", "base_height", "self_collision"])
TASK_PEAKS = {"base_height": 1.0, "base_orientation": 2.0,
              "velocity_tracking": 4.0, "contact_schedule": 9.0}


def synth_trajectory(rng, rows, vx, Ts=0.35):
    """A walking-like trajectory in the simulate CSV schema (all finite)."""
    t = DT * np.arange(rows)
    k = round(Ts / DT)
    step = np.arange(rows) // k
    parity = step.astype(np.float64)
    vel_x = vx + 0.15 * np.sin(2 * np.pi * t / Ts) + rng.normal(0.0, 0.02, rows)
    vel_y = 0.25 * np.sin(np.pi * t / Ts) + rng.normal(0.0, 0.02, rows)
    com_x = np.cumsum(vel_x) * DT
    com_y = np.cumsum(vel_y) * DT
    side = np.where(step % 2 == 0, -0.15, 0.15)
    stance_x = vx * Ts * step
    stance_y = side
    stance_z = np.zeros(rows)
    target_x = stance_x + vx * Ts + rng.normal(0.0, 0.02, rows)
    target_y = -side + rng.normal(0.0, 0.01, rows)
    target_z = np.zeros(rows)
    heading = rng.normal(0.0, 0.05, rows)
    phase = ((step % 2) * Ts + (np.arange(rows) % k) * DT) / (2 * Ts)
    ps = np.sin(2 * np.pi * phase)
    pc = np.cos(2 * np.pi * phase)
    sched = ps / np.sqrt(ps * ps + 0.04)
    omega = 3.96
    cols = [t, com_x, com_y, vel_x, vel_y, com_x + vel_x / omega, com_y + vel_y / omega,
            stance_x, stance_y, stance_z, target_x, target_y, target_z, heading,
            parity, sched, ps, pc, np.zeros(rows)]
    return np.column_stack(cols)


def synth_joints(rng, rows):
    """A 12-joint log with base signals, column names as `score` reads them."""
    q = rng.normal(0.0, 0.3, (rows, JOINTS))
    dq = rng.normal(0.0, 1.0, (rows, JOINTS))
    tau = rng.normal(0.0, 5.0, (rows, JOINTS))
    a = rng.normal(0.0, 0.2, (rows, JOINTS))
    omega = rng.normal(0.0, 0.2, (rows, 3))
    g = np.column_stack([rng.normal(0.0, 0.05, rows), rng.normal(0.0, 0.05, rows),
                         -np.ones(rows)])
    v_z = rng.normal(0.0, 0.05, (rows, 1))
    height = 0.62 + rng.normal(0.0, 0.01, (rows, 1))
    collision = (rng.random((rows, 1)) < 0.01).astype(np.float64)
    return np.hstack([q, dq, tau, a, omega, g, v_z, height, collision])


def _write_table(path, header, table):
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


class ScoreLog:
    """`liprint score` of a long trajectory CSV with a 12-joint log.

    No simulation runs: the time goes to CSV reading, one RobotSample per
    row, the reward terms and CSV writing. The logs are synthesized from the
    seed during set-up.
    """

    name = "score-log"
    POOL = 3
    ROWS = 1000

    def __init__(self, mods, seed, workdir: Path):
        self.mods = mods
        self.out = workdir / "rewards.csv"
        self.hashed_outputs = [self.out]
        rng = np.random.default_rng([seed, 3])
        self.pool = []
        for i in range(self.POOL):
            vx = round(float(rng.uniform(0.4, 1.4)), 3)
            traj = workdir / f"traj{i}.csv"
            joints = workdir / f"joints{i}.csv"
            _write_table(traj, mods.sim.CSV_COLUMNS, synth_trajectory(rng, self.ROWS, vx))
            _write_table(joints, _JOINT_COLS, synth_joints(rng, self.ROWS))
            argv = ["score", "--traj", str(traj), "--joints", str(joints),
                    "--vx", repr(vx), "--out", str(self.out)]
            self.pool.append(Command(argv, self.ROWS))
        self.warmup = self.pool[0]  # scoring cost barely depends on the log

    def check(self, cmd: Command, code):
        _require(code == 0, f"exit code {code}, expected 0")
        rows = _read_csv(self.out)
        _require(len(rows) >= 1, "empty rewards file")
        header, body = rows[0], rows[1:]
        _require(header[0] == "time" and header[-1] == "total"
                 and set(TASK_PEAKS) <= set(header), "rewards header changed")
        _require(len(body) == self.ROWS, f"{len(body)} reward rows for {self.ROWS} trajectory rows")
        col = {name: i for i, name in enumerate(header)}
        for n, row in enumerate(body):
            vals = [float(v) for v in row]
            _require(all(math.isfinite(v) for v in vals), f"row {n}: non-finite value")
            _require(abs(vals[0] - n * DT) <= 1e-9, f"row {n}: time {vals[0]}")
            terms = vals[1:-1]
            scale = max(1.0, sum(abs(v) for v in terms))
            _require(abs(math.fsum(terms) - vals[-1]) <= 1e-12 * scale,
                     f"row {n}: terms sum to {math.fsum(terms)}, total {vals[-1]}")
            for name, peak in TASK_PEAKS.items():
                v = vals[col[name]]
                lo = -peak if name == "contact_schedule" else 0.0
                _require(lo <= v <= peak, f"row {n}: {name} = {v} outside [{lo}, {peak}]")


WORKLOADS = {w.name: w for w in (GapReplan, RoughSweep, ScoreLog)}
