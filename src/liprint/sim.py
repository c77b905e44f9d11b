"""Closed-loop stepping simulator on the reduced pendulum model.

The plant is the pendulum itself: support transfers to the planned target
instantaneously at each step boundary, the stance height re-derives the
pendulum frequency (commanded base height minus stance height), and the
CoM propagates analytically between boundaries. Planning runs either once
per step or every tick, through the same kernel as planner.plan_step;
targets are snapped to steppable ground and their elevation refined from
the terrain. The kernels read the terrain through its grid view: a
Heightmap's rows become Python lists on first read, and a TerrainSpec
builds no map (terrain.generate_grid): its view equals terrain.generate's
map node for node, rough heights computed only where the run reads. The
contact-schedule and phase-clock columns come from gait.phase_signals at
gait.cycle_phase of each tick's GaitState, tabulated once per
(ticks_per_step, dt) and shared by every run with those values. Failure
is recorded, not raised: a touchdown farther than the reach limit from the
capture point or the CoM, no steppable ground within the snap radius, a
non-positive pendulum height at a step start, or a non-finite state.

Trajectory CSV schema (one row per tick):
    time, com_x, com_y, vel_x, vel_y, icp_x, icp_y, stance_x, stance_y,
    stance_z, target_x, target_y, target_z, target_heading, parity,
    contact_schedule, phase_sin, phase_cos, outcome_flag
outcome_flag is the run outcome code stamped on every row (0 completed,
2 failed). A step-event JSON log accompanies the CSV.
"""

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels, terrain as terrain_mod
from .gait import GaitParams, GaitState, cycle_phase, phase_signals
from .lip_core import FootPosition, LipParams, LipState
from .planner import PlannedStep, StepCommand
from .terrain import Heightmap, TerrainSpec

# Node spacing (m) of the heightmaps generated for TerrainSpec terrain.
TERRAIN_RESOLUTION = 0.05

REPLAN_AT_STEP_START = "at-step-start"
REPLAN_EVERY_TICK = "every-tick"

CSV_COLUMNS = (
    "time", "com_x", "com_y", "vel_x", "vel_y", "icp_x", "icp_y",
    "stance_x", "stance_y", "stance_z", "target_x", "target_y", "target_z",
    "target_heading", "parity", "contact_schedule", "phase_sin", "phase_cos",
    "outcome_flag",
)

_FAIL_REASONS = {
    _kernels.OUTCOME_REACH: "step beyond reach limit",
    _kernels.OUTCOME_NO_GROUND: "no steppable ground within search radius",
    _kernels.OUTCOME_NON_FINITE: "non-finite state",
    _kernels.OUTCOME_BAD_HEIGHT: "non-positive pendulum height",
}


@dataclass(frozen=True)
class SimConfig:
    cmd: StepCommand
    gait: GaitParams = field(default_factory=GaitParams)
    lip: LipParams = field(default_factory=LipParams)
    dt: float = 0.01
    total_duration: float = 10.0
    replan: str = REPLAN_AT_STEP_START
    terrain: "Heightmap | TerrainSpec | None" = None
    reach_limit: float = 0.6

    def __post_init__(self):
        if self.replan not in (REPLAN_AT_STEP_START, REPLAN_EVERY_TICK):
            raise ValueError(f"unknown replanning mode {self.replan!r}")
        for name in ("total_duration", "reach_limit", "dt"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name.replace('_', ' ')} must be positive and finite, "
                                 f"got {v}")
        Ts = self.gait.step_duration
        for name, span in (("step", Ts), ("total", self.total_duration)):
            if not math.isfinite(span / self.dt):
                raise ValueError(f"dt = {self.dt} makes the {name} duration {span} "
                                 "a non-finite tick count")
        k = round(Ts / self.dt)
        if k < 1 or abs(k * self.dt - Ts) > 1e-9:
            raise ValueError(f"dt = {self.dt} must divide the step duration {Ts}")

    @property
    def ticks_per_step(self) -> int:
        return round(self.gait.step_duration / self.dt)

    @property
    def n_ticks(self) -> int:
        n = round(self.total_duration / self.dt)
        return max(1, n)


@dataclass(frozen=True)
class StepEvent:
    time: float
    planned: PlannedStep
    realized: np.ndarray


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    outcome: str
    failure_reason: str | None
    failure_time: float | None
    sample_array: np.ndarray

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    @property
    def n_steps(self) -> int:
        """Number of touchdowns, len(step_events) without building them."""
        return len(_touchdown_rows(self.sample_array, self.config.ticks_per_step)[0])

    @property
    def step_events(self) -> tuple:
        """One StepEvent per touchdown row i = k, 2k, ... (k = ticks_per_step),
        built on each access: `time` and `realized` (stance) from row i,
        `planned` (target, heading, parity) from row i - 1, whose target the
        stance moved onto. A run that fails at a touchdown lists it last."""
        touch, planned = _touchdown_rows(self.sample_array, self.config.ticks_per_step)
        return tuple(
            StepEvent(time=float(t[_kernels.COL_TIME]),
                      planned=PlannedStep(
                          p_d=p[_kernels.COL_TARGET_X:_kernels.COL_TARGET_Y + 1].copy(),
                          z_d=float(p[_kernels.COL_TARGET_Z]),
                          heading=float(p[_kernels.COL_TARGET_HEADING]),
                          parity=int(p[_kernels.COL_PARITY])),
                      realized=t[_kernels.COL_STANCE_X:_kernels.COL_STANCE_Z + 1].copy())
            for t, p in zip(touch, planned))

    def boundary_samples(self) -> np.ndarray:
        """Rows recorded at step-boundary instants (touchdowns)."""
        k = self.config.ticks_per_step
        n = self.sample_array.shape[0]
        return self.sample_array[np.arange(0, n, k)]


def _touchdown_rows(arr: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(touchdown rows arr[k::k], planned rows arr[k-1:-1:k]) of a sample
    array with k ticks per step: row i = m * k (m >= 1) is a touchdown and
    row i - 1 holds the target its stance moved onto. Both have one row per
    touchdown."""
    return arr[k::k], arr[k - 1:-1:k]


def default_initial(config: SimConfig) -> tuple[LipState, FootPosition]:
    """CoM above the midpoint between feet, at rest, right foot in stance
    (half a step width to the right of the midline)."""
    half = config.cmd.w_cmd / 2.0
    state = LipState(com_pos=(0.0, 0.0), com_vel=(0.0, 0.0), params=config.lip)
    stance = FootPosition(p=(0.0, -half), z=0.0)
    return state, stance


def _auto_extent(config: SimConfig, schedule) -> tuple[float, float, float, float]:
    margin = 2.0
    x_lo = x_hi = y_lo = y_hi = 0.0
    t_prev = 0.0
    for i, (_t, vx, vy, _w) in enumerate(schedule):
        # segment ends clipped to [t_prev, total_duration]: a switch after
        # the run ends adds no travel
        t_next = schedule[i + 1][0] if i + 1 < len(schedule) else math.inf
        t_end = min(max(t_next, t_prev), config.total_duration)
        span = t_end - t_prev
        x_hi += max(vx, 0.0) * span * 1.5
        x_lo += min(vx, 0.0) * span * 1.5
        y_hi += max(vy, 0.0) * span * 1.5
        y_lo += min(vy, 0.0) * span * 1.5
        t_prev = t_end
    return (x_lo - margin, y_lo - margin, x_hi + margin, y_hi + margin)


def _terrain_grid(config: SimConfig, schedule) -> "_kernels.Grid | None":
    """The run's Grid view of config.terrain, None on flat ground. A
    TerrainSpec's view is terrain.generate_grid on _auto_extent at
    TERRAIN_RESOLUTION, which builds no map."""
    t = config.terrain
    if t is None:
        return None
    if isinstance(t, Heightmap):
        return t.grid
    if isinstance(t, TerrainSpec):
        if t.kind == "flat":
            return None
        return terrain_mod.generate_grid(t, _auto_extent(config, schedule), TERRAIN_RESOLUTION)
    raise TypeError(f"terrain must be a Heightmap, TerrainSpec, or None, got {type(t)}")


@functools.lru_cache(maxsize=16)
def _phase_table(k: int, dt: float) -> np.ndarray:
    """Read-only (2k, 3) gait-phase table of two steps of k ticks of dt:
    row r holds phase_signals at gait.cycle_phase of tick r % k of parity
    r // k, so tick i of a run reads row i % (2k)."""
    params = GaitParams(step_duration=k * dt)
    table = np.array([phase_signals(cycle_phase(GaitState(t=(r % k) * dt, parity=r // k,
                                                          params=params)))
                      for r in range(2 * k)])
    table.flags.writeable = False
    return table


def _loop_args(config: SimConfig, schedule, initial=None) -> tuple:
    """sim_loop's positional arguments for a run of config under a schedule
    of (time, vx, vy, width) command switches: the initial state (default
    default_initial), the terrain's grid view, which must hold the initial
    stance, and the switch table in ticks."""
    state, stance = default_initial(config) if initial is None else initial
    grid = _terrain_grid(config, schedule)
    if grid is not None and not _kernels.grid_contains(grid, *map(float, stance.p)):
        raise ValueError("initial stance foot lies outside the heightmap")
    n_ticks = config.n_ticks
    # a switch before the start or after the end acts at tick 0 or never;
    # clamping before round() keeps a huge t / dt from overflowing
    switches = [(round(min(max(t / config.dt, 0.0), n_ticks)), float(vx), float(vy), float(w))
                for t, vx, vy, w in schedule]
    return (n_ticks, config.dt, config.ticks_per_step, config.lip.g, config.lip.z0,
            switches, config.replan == REPLAN_EVERY_TICK, config.reach_limit, grid,
            *map(float, (*state.com_pos, *state.com_vel, *stance.p)),
            config.cmd.fallback_heading)


def _simulate(config: SimConfig, schedule, initial=None) -> SimResult:
    """Run sim_loop under a schedule of (time, vx, vy, width) command switches."""
    n_rec, outcome, fail_time, rows = _kernels.sim_loop(*_loop_args(config, schedule, initial))
    k = config.ticks_per_step
    samples = np.hstack((rows, _phase_table(k, config.dt)[np.arange(n_rec) % (2 * k)]))
    completed = outcome == _kernels.OUTCOME_COMPLETED
    return SimResult(
        config=config,
        outcome="completed" if completed else "failed",
        failure_reason=None if completed else _FAIL_REASONS[outcome],
        failure_time=None if completed else float(fail_time),
        sample_array=samples)


def _constant_schedule(config: SimConfig) -> list:
    """The one-switch schedule of config's constant command."""
    v = config.cmd.v_cmd
    return [(0.0, float(v[0]), float(v[1]), config.cmd.w_cmd)]


def run(config: SimConfig, initial: "tuple[LipState, FootPosition] | None" = None) -> SimResult:
    """Simulate under a constant command for the configured duration.

    `initial` (default: default_initial) supplies com_pos, com_vel and
    stance.p only: the stance height comes from the terrain and the
    pendulum from config.lip; LipState.params and FootPosition.z are not
    read.
    """
    return _simulate(config, _constant_schedule(config), initial)


def turn_maneuver(config: SimConfig, turn_angle: float,
                  switch_time: float = 3.0,
                  initial: "tuple[LipState, FootPosition] | None" = None) -> SimResult:
    """Run with the velocity command rotated by turn_angle at switch_time.

    turn_angle is in radians; 0, or a switch_time at or after the end of
    the run, reproduces run() exactly. As in run(), `initial` supplies
    com_pos, com_vel and stance.p only.
    """
    if not (math.isfinite(turn_angle) and math.isfinite(switch_time)):
        raise ValueError(f"turn angle and time must be finite, got {turn_angle}, {switch_time}")
    v = config.cmd.v_cmd
    c, s = math.cos(turn_angle), math.sin(turn_angle)
    v2 = (c * v[0] - s * v[1], s * v[0] + c * v[1])
    schedule = _constant_schedule(config) + [
        (switch_time, float(v2[0]), float(v2[1]), config.cmd.w_cmd)]
    return _simulate(config, schedule, initial)


def _tracks(times: np.ndarray, vel_x: np.ndarray, vx_cmd: float, window: float,
            tolerance: float) -> bool:
    """True when the mean of vel_x over the samples whose times lie in the
    trailing window is within the relative tolerance of vx_cmd (absolute
    tolerance when the command is zero). times and vel_x are 1-D, one
    entry per recorded tick, at least one."""
    t_end = times[-1]
    # min(): a window under 1e-12 s still holds the last sample
    sel = times >= min(t_end - window + 1e-12, t_end)
    mean_vx = float(vel_x[sel].mean())
    scale = abs(vx_cmd) if vx_cmd != 0.0 else 1.0
    return abs(mean_vx - vx_cmd) <= tolerance * scale


def _check_window_tolerance(window: float, tolerance: float, duration: float) -> None:
    if not window > 0.0:
        raise ValueError(f"window must be positive, got {window}")
    if window > duration:
        raise ValueError(f"window {window} exceeds run duration {duration}")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")


def success_metric(result: SimResult, vx_cmd: float, window: float,
                   tolerance: float = 0.1) -> bool:
    """True when the run completed and the mean forward velocity over the
    trailing window is within the relative tolerance of the command
    (absolute tolerance when the command is zero)."""
    _check_window_tolerance(window, tolerance, result.config.total_duration)
    if not result.completed:
        return False
    arr = result.sample_array
    return _tracks(arr[:, _kernels.COL_TIME], arr[:, _kernels.COL_VEL_X], vx_cmd, window,
                   tolerance)


@dataclass(frozen=True)
class SweepRow:
    vx_cmd: float
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else math.nan


def _trial_seed(base_seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([base_seed, trial]).generate_state(1)[0])


def sweep(configs, trials: int, base_seed: int = 0, window: float = 5.0,
          tolerance: float = 0.1) -> list[SweepRow]:
    """Success fraction per config over seeded trials.

    A trial succeeds as success_metric(run(cfg), vx, window, tolerance)
    says, with vx the config's forward command. sweep decides it from a run
    that records only vel_x: it builds no trajectory, SimResult or phase
    table.

    Rough-terrain specs are re-seeded per trial; trial seeds depend only on
    (base_seed, trial index), so the seeds, not the maps, are paired across
    configs: each map's extent is sized from its config's command, and the
    same seed draws other terrain on another extent. Every other config (no
    terrain, flat, gap, a loaded heightmap) makes the trials of one
    deterministic run, so it runs once and its success counts `trials`
    times. Results are deterministic in (configs, trials, base_seed).
    """
    if not configs:
        raise ValueError("sweep needs at least one config")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    for config in configs:
        _check_window_tolerance(window, tolerance, config.total_duration)
    rows = []
    for config in configs:
        vx = float(config.cmd.v_cmd[0])
        spec = config.terrain
        rough = isinstance(spec, TerrainSpec) and spec.kind == "rough"
        successes = 0
        for trial in range(trials if rough else min(trials, 1)):
            cfg = config
            if rough:
                cfg = replace(config, terrain=spec.with_seed(_trial_seed(base_seed, trial)))
            n, outcome, _, vel_x = _kernels.sim_loop(
                *_loop_args(cfg, _constant_schedule(cfg)), vel_x_only=True)
            if (outcome == _kernels.OUTCOME_COMPLETED
                    and _tracks(cfg.dt * np.arange(n), vel_x, vx, window, tolerance)):
                successes += 1 if rough else trials
        rows.append(SweepRow(vx_cmd=vx, trials=trials, successes=successes))
    return rows


# The one number format of liprint's CSV output: 17 significant digits, '.'
# decimal separator. "%.17g" % x equals format(x, ".17g") for every float.
_FLOAT_SPEC = ".17g"


def format_float(x: float) -> str:
    """17 significant digits, '.' decimal separator; -0.0 is written as 0.

    The scalar form of write_csv: its row template's fields are
    "%" + this spec, and "%.17g" % x equals format(x, ".17g").
    """
    return format(float(x) + 0.0, _FLOAT_SPEC)


# Rows write_csv formats per write: its memory stays bounded by one block
# of text and values, whatever the row count.
CSV_BLOCK_ROWS = 1024


def write_csv(path, header, table: np.ndarray, int_columns=()) -> None:
    """A header line and one line per row of the 2-D array `table`.

    One format pass per block of CSV_BLOCK_ROWS rows: a row template of
    "%" + format_float's spec fields ("%.17g" % x equals format(x, ".17g"))
    and "%d" fields at int_columns (truncating toward zero, as int() does)
    is applied to the block + 0.0, where + 0.0 writes -0.0 as 0. Each
    block's text goes out in one write.
    """
    n, m = table.shape
    row = ",".join("%d" if c in int_columns else "%" + _FLOAT_SPEC for c in range(m)) + "\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            f.write((row * block.shape[0]) % tuple((block + 0.0).ravel().tolist()))


def write_trajectory_csv(result: SimResult, path) -> None:
    """One row per tick in CSV_COLUMNS order, through write_csv: parity
    and outcome_flag as integers, every other value as format_float writes
    it (17 significant digits, -0.0 as 0). The row template is derived from
    format_float's spec, and "%.17g" % x equals format(x, ".17g")."""
    arr = result.sample_array
    flag = np.full(arr.shape[0], 0.0 if result.completed else 2.0)
    write_csv(path, CSV_COLUMNS, np.column_stack((arr, flag)),
              (_kernels.COL_PARITY, _kernels.N_SAMPLE_COLS))


def write_step_events(result: SimResult, path) -> None:
    """The step-event JSON log: per touchdown, its time and realized
    stance from the touchdown row and the planned target from the row
    before it (the rows SimResult.step_events reads)."""
    touch, planned = _touchdown_rows(result.sample_array, result.config.ticks_per_step)
    events = [
        {
            "time": t[_kernels.COL_TIME],
            "planned": {
                "x": p[_kernels.COL_TARGET_X],
                "y": p[_kernels.COL_TARGET_Y],
                "z": p[_kernels.COL_TARGET_Z],
                "heading": p[_kernels.COL_TARGET_HEADING],
                "parity": int(p[_kernels.COL_PARITY]),
            },
            "realized": {
                "x": t[_kernels.COL_STANCE_X],
                "y": t[_kernels.COL_STANCE_Y],
                "z": t[_kernels.COL_STANCE_Z],
            },
        }
        for t, p in zip(touch.tolist(), planned.tolist())
    ]
    text = json.dumps({"step_events": events}, indent=2, sort_keys=True)
    with open(path, "w") as f:
        f.write(text + "\n")
