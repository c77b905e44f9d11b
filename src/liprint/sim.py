"""Closed-loop stepping simulator on the reduced pendulum model.

The plant is the pendulum itself: support transfers to the planned target
instantaneously at each step boundary, the stance height re-derives the
pendulum frequency (commanded base height minus stance height), and the
CoM follows the pendulum's closed form between boundaries: each tick's
state is evaluated from the step's touchdown state over the time since
touchdown, not propagated tick by tick, so its rounding does not build up
over the step (_kernels.sim_loop). Planning runs either once per step or
every tick, making the same two kernel calls as planner.plan_step
(placement_offsets, then placement_at); targets are snapped to steppable
ground and their elevation refined from the terrain. The kernels read the
terrain through its grid view: a Heightmap's rows are Python lists, and a
TerrainSpec builds no map (terrain.generate_grid): its view equals
terrain.generate's map node for node, rough heights computed only where
the run reads, each from the layout's per-axis cell tables. sweep lays a
rough spec out once per config (terrain._layout, cell tables included) and draws only each
trial's lattice on that layout (terrain.layout_grid). The
contact-schedule and phase-clock columns come from gait.phase_signals at
gait.cycle_phase of each tick's GaitState, tabulated once per
(ticks_per_step, dt) and shared by every run with those values. Failure
is recorded, not raised: a touchdown farther than the reach limit from the
capture point or the CoM, no steppable ground within the snap radius of
the planned target (its own reason, "target outside the heightmap", when
the target lies off the map), a non-positive pendulum height at a step
start, or a non-finite state.

Trajectory CSV schema (one row per tick):
    time, com_x, com_y, vel_x, vel_y, icp_x, icp_y, stance_x, stance_y,
    stance_z, target_x, target_y, target_z, target_heading, parity,
    contact_schedule, phase_sin, phase_cos, outcome_flag
outcome_flag is the run outcome code stamped on every row (0 completed,
2 failed). A step-event JSON log accompanies the CSV: SimResult.step_events,
one record per touchdown of its planned target and realized stance.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, terrain as terrain_mod
from .gait import GaitParams, GaitState, cycle_phase, phase_signals
from .lip_core import FootPosition, LipParams, LipState
from .planner import StepCommand, _check_step_length
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
    _kernels.OUTCOME_OFF_MAP: "target outside the heightmap",
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
        if not isinstance(self.terrain, (Heightmap, TerrainSpec, type(None))):
            raise ValueError("terrain must be a Heightmap, TerrainSpec, or None, "
                             f"got {type(self.terrain)}")
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
        _check_step_length(self.cmd.v_cmd, Ts)

    @property
    def ticks_per_step(self) -> int:
        return round(self.gait.step_duration / self.dt)

    @property
    def n_ticks(self) -> int:
        n = round(self.total_duration / self.dt)
        return max(1, n)


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
        """Number of touchdowns: len(step_events) without building its records."""
        return len(_touchdown_rows(self.sample_array, self.config.ticks_per_step)[0])

    @property
    def step_events(self) -> tuple:
        """The step-event log's records, one per touchdown row i = k, 2k, ...
        (k = ticks_per_step), built on each access: {"time", "planned": {x, y,
        z, heading, parity}, "realized": {x, y, z}}, with time and the
        realized stance from row i and the planned target from row i - 1,
        whose target the stance moved onto. A run that fails at a touchdown
        lists it last."""
        touch, planned = _touchdown_rows(self.sample_array, self.config.ticks_per_step)
        return tuple(
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
            for t, p in zip(touch.tolist(), planned.tolist()))


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
    t_start = t_prev = 0.0
    for i, (_t, vx, vy, _w) in enumerate(schedule):
        # segment ends clipped to [t_prev, total_duration]: a switch after
        # the run ends adds no travel, and one that keeps (vx, vy) ends no
        # segment, so that the travel rounds as under one command
        t_next, *v_next = schedule[i + 1] if i + 1 < len(schedule) else (math.inf,)
        t_prev = min(max(t_next, t_prev), config.total_duration)
        if v_next[:2] == [vx, vy]:
            continue
        span = t_prev - t_start
        x_hi += max(vx, 0.0) * span * 1.5
        x_lo += min(vx, 0.0) * span * 1.5
        y_hi += max(vy, 0.0) * span * 1.5
        y_lo += min(vy, 0.0) * span * 1.5
        t_start = t_prev
    return (x_lo - margin, y_lo - margin, x_hi + margin, y_hi + margin)


def _terrain_grid(config: SimConfig, schedule) -> "_kernels.Grid | None":
    """The run's Grid view of config.terrain, None on flat ground. A
    TerrainSpec's view is terrain.generate_grid on _auto_extent at
    TERRAIN_RESOLUTION, which builds no map."""
    t = config.terrain
    if isinstance(t, Heightmap):
        return t.grid
    if t is None or t.kind == "flat":
        return None
    return terrain_mod.generate_grid(t, _auto_extent(config, schedule), TERRAIN_RESOLUTION)


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


def _loop_args(config: SimConfig, schedule, grid, initial=None) -> tuple:
    """sim_loop's positional arguments for a run of config on the grid view
    `grid` (None on flat ground), which must hold the initial stance, under
    a schedule of (time, vx, vy, width) command switches: the switch table
    in ticks and the initial state (default default_initial). The grid
    itself goes to sim_loop by keyword."""
    state, stance = default_initial(config) if initial is None else initial
    if grid is not None and not _kernels.grid_contains(grid, *map(float, stance.p)):
        raise ValueError("initial stance foot lies outside the heightmap")
    n_ticks = config.n_ticks
    # a switch before the start or after the end acts at tick 0 or never;
    # clamping before round() keeps a huge t / dt from overflowing
    switches = [(round(min(max(t / config.dt, 0.0), n_ticks)), float(vx), float(vy), float(w))
                for t, vx, vy, w in schedule]
    return (n_ticks, config.dt, config.ticks_per_step, config.lip.g, config.lip.z0,
            switches, config.replan == REPLAN_EVERY_TICK, config.reach_limit,
            *map(float, (*state.com_pos, *state.com_vel, *stance.p)),
            config.cmd.fallback_heading)


def _simulate(config: SimConfig, schedule, initial=None) -> SimResult:
    """Run sim_loop under a schedule of (time, vx, vy, width) command switches."""
    grid = _terrain_grid(config, schedule)
    n_rec, outcome, fail_time, rows = _kernels.sim_loop(
        *_loop_args(config, schedule, grid, initial), grid=grid)
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


def _window(times: np.ndarray, window: float) -> np.ndarray:
    """The mask of the samples whose times lie in the trailing window, of
    1-D times with one entry per recorded tick, at least one."""
    t_end = times[-1]
    # min(): a window under 1e-12 s still holds the last sample
    return times >= min(t_end - window + 1e-12, t_end)


def _tracks(vel_x: np.ndarray, vx_cmd: float, tolerance: float) -> bool:
    """True when the mean of vel_x, a window's samples (at least one), is
    within the relative tolerance of vx_cmd (absolute tolerance when the
    command is zero)."""
    mean_vx = float(vel_x.mean())
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
    return _tracks(arr[_window(arr[:, _kernels.COL_TIME], window), _kernels.COL_VEL_X],
                   vx_cmd, tolerance)


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
    times. trials and base_seed must be non-negative integers; results are
    deterministic in (configs, trials, base_seed).

    The trial seeds are made once per sweep, for its first rough config.
    A config is set up at its first trial, not at all without trials: its
    grid view (for a rough spec from its terrain._layout), sim_loop's
    positional arguments and its window mask. A rough trial then only
    draws its lattice into a fresh grid (terrain.layout_grid), runs
    sim_loop on that grid, passed by name, and tests one mean.
    """
    if not configs:
        raise ValueError("sweep needs at least one config")
    for name, value in (("trials", trials), ("base_seed", base_seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    for config in configs:
        _check_window_tolerance(window, tolerance, config.total_duration)
    seeds = []
    rows = []
    for config in configs:
        vx = float(config.cmd.v_cmd[0])
        spec = config.terrain
        rough = isinstance(spec, TerrainSpec) and spec.kind == "rough"
        successes = 0
        if trials:
            schedule = _constant_schedule(config)
            if rough:
                seeds = seeds or [_trial_seed(base_seed, trial) for trial in range(trials)]
                layout = terrain_mod._layout(spec, _auto_extent(config, schedule),
                                             TERRAIN_RESOLUTION)
                grid = terrain_mod.layout_grid(layout, seeds[0])
            else:
                grid = _terrain_grid(config, schedule)
            args = _loop_args(config, schedule, grid)
            sel = _window(config.dt * np.arange(config.n_ticks), window)
            for trial in range(trials if rough else 1):
                if trial:
                    grid = terrain_mod.layout_grid(layout, seeds[trial])
                _, outcome, _, vel_x = _kernels.sim_loop(*args, grid=grid, vel_x_only=True)
                # a completed run records all n_ticks ticks, as sel does
                if (outcome == _kernels.OUTCOME_COMPLETED
                        and _tracks(vel_x[sel], vx, tolerance)):
                    successes += 1 if rough else trials
        rows.append(SweepRow(vx_cmd=vx, trials=trials, successes=successes))
    return rows


# The one number format of liprint's CSV output: 17 significant digits, '.'
# decimal separator. "%.17g" % x equals format(x, ".17g") for every float.
_FLOAT_SPEC = ".17g"


def format_float(x: float) -> str:
    """17 significant digits, '.' decimal separator; -0.0 is written as 0.

    The scalar form of write_csv, which formats each float value with
    "%" + this spec ("%.17g" % x equals format(x, ".17g")), once per
    distinct value in a repetitive column.
    """
    return format(float(x) + 0.0, _FLOAT_SPEC)


# Rows write_csv formats per write: its memory stays bounded by one block
# of text and values, whatever the row count, and a column's distinct
# values, and so its per-value rule, are counted per block.
CSV_BLOCK_ROWS = 1024


def _block_parts(block: np.ndarray, int_columns) -> tuple[list, list]:
    """(per_value, parts) of one block of write_csv's rows: per_value[c]
    is True where column c is formatted once per distinct value, and parts
    holds, from left to right, one list of len(block) row strings per run
    of adjacent columns that the block's rows join with ",".

    A column's field is "%d" at int_columns, else "%" + format_float's
    spec, applied to the column + 0.0 (-0.0 is written as 0). A column
    with at most half as many distinct values as the block has rows (each
    NaN counted apart) is its own run: each distinct value is formatted
    once, in one template pass, and one object gather puts the strings
    back in row order. A run of the other columns is formatted in one
    template pass over its values in row order and split into rows.
    """
    n, m = block.shape
    block = block + 0.0
    # ordered[c] is column c sorted; first marks each distinct value's first
    # place in it
    ordered = np.sort(block.T)
    first = np.ones((m, n), dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    per_value = (2 * np.count_nonzero(first, axis=1) <= n).tolist()
    specs = ["%d" if c in int_columns else "%" + _FLOAT_SPEC for c in range(m)]
    parts = []
    c = 0
    while c < m:
        e = c + 1
        if per_value[c]:
            values = ordered[c, first[c]]
            text = "\n".join([specs[c]] * len(values)) % tuple(values.tolist())
            strings = np.array(text.split("\n"), dtype=object)
            parts.append(strings[np.searchsorted(values, block[:, c])].tolist())
        else:
            while e < m and not per_value[e]:
                e += 1
            row = ",".join(specs[c:e])
            parts.append(("\n".join([row] * n) % tuple(block[:, c:e].ravel().tolist()))
                         .split("\n"))
        c = e
    return per_value, parts


def _block_text(block: np.ndarray, int_columns) -> str:
    """One block of write_csv's rows as text, each row the ",".join of its
    _block_parts and ended by a newline. The parts are freed before the
    text is joined, and the rows before it is written."""
    rows = list(map(",".join, zip(*_block_parts(block, int_columns)[1])))
    rows.append("")
    return "\n".join(rows)


def write_csv(path, header, table: np.ndarray, int_columns=()) -> None:
    """A header line and one line per row of the 2-D array `table`.

    Each value is written as format_float writes it ("%.17g" % x equals
    format(x, ".17g"), -0.0 as 0), or as "%d" writes it at int_columns
    (truncating toward zero, as int() does; NaN and ±inf raise ValueError
    and OverflowError, as int() does; of several, one in the leftmost run
    of _block_parts that holds one raises). Each block of
    CSV_BLOCK_ROWS rows is one write of _block_text: a run of columns with
    many distinct values is formatted in one template pass, a repetitive
    column once per distinct value.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], CSV_BLOCK_ROWS):
            f.write(_block_text(table[start:start + CSV_BLOCK_ROWS], int_columns))


def write_trajectory_csv(result: SimResult, path) -> None:
    """One row per tick in CSV_COLUMNS order, through write_csv: parity
    and outcome_flag as integers, every other value as format_float writes
    it (17 significant digits, -0.0 as 0). Columns that repeat their
    values, such as stance, target, parity, phase and outcome_flag, have
    each distinct value formatted once per block, and the time, CoM,
    velocity and ICP columns, adjacent and all distinct, are one run
    formatted in one pass; the bytes are the same."""
    arr = result.sample_array
    flag = np.full(arr.shape[0], 0.0 if result.completed else 2.0)
    write_csv(path, CSV_COLUMNS, np.column_stack((arr, flag)),
              (_kernels.COL_PARITY, _kernels.N_SAMPLE_COLS))


# The leaf marker of write_step_events's template: json.dumps writes it as
# "\u0000". A key holding that text would add a field that no leaf fills,
# and the template's "%" raises TypeError.
_LEAF = "\x00"
_LEAF_JSON = json.dumps(_LEAF)


def _marked(node, leaves: list):
    """node's JSON layout: node with every leaf (a value other than a dict,
    list or tuple) replaced by _LEAF, and its leaves appended to `leaves`
    in the order json.dumps(..., sort_keys=True) writes them."""
    if isinstance(node, dict):
        return {k: _marked(node[k], leaves) for k in sorted(node)}
    if isinstance(node, (list, tuple)):
        return [_marked(v, leaves) for v in node]
    leaves.append(node)
    return _LEAF


def write_step_events(result: SimResult, path) -> None:
    """The step-event JSON log: {"step_events": [...]} holding
    result.step_events, as json.dumps(..., indent=2, sort_keys=True)
    writes it, and a newline.

    The text is rendered from one record template, the json.dumps layout
    of the first record with each leaf replaced by a marker: the layout is
    read from the record, not restated. Every record must share it. The
    leaves' text comes from one json.dumps of the flat list of every
    record's leaves, whose compact form holds no raw newline to split at.
    """
    leaves = []
    layouts = [_marked(event, leaves) for event in result.step_events]
    if not layouts:
        text = json.dumps({"step_events": []}, indent=2, sort_keys=True)
    else:
        layout = layouts[0]
        if layouts.count(layout) != len(layouts):
            raise ValueError("step events differ in layout")
        # the list's opening, item separator and closing
        head, sep, tail = json.dumps({"step_events": [_LEAF, _LEAF]}, indent=2).split(_LEAF_JSON)
        one = json.dumps({"step_events": [layout]}, indent=2, sort_keys=True)
        record = one[len(head):len(one) - len(tail)]
        pieces = (head + sep.join([record] * len(layouts)) + tail).split(_LEAF_JSON)
        values = json.dumps(leaves, separators=("\n", ":"))[1:-1].split("\n") if leaves else []
        text = "%s".join(p.replace("%", "%%") for p in pieces) % tuple(values)
    with open(path, "w", newline="") as f:
        f.write(text + "\n")
