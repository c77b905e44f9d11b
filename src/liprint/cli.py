"""Batch-experiment command line front end.

Subcommands: simulate, sweep, plan, score, terrain gen. All emit CSV/JSON
for external plotting; no interactive UI. Exit codes: 0 success, 1 usage
or input error, 2 simulated failure. The LIPRINT_LOG environment variable
sets the logging level (e.g. INFO, DEBUG).

Terrain spec grammar:
    flat | rough:<amp>:<corr>:<seed> | gap:<width>:<period>[:<offset>]
         | file:<path>
"""

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys
import warnings
from operator import itemgetter

import numpy as np

from . import __version__, _kernels, metrics, sim, terrain as terrain_mod
from .gait import GaitParams, GaitState
from .lip_core import FootPosition, LipParams, LipState, icp_of
from .planner import (StepCommand, desired_step_length, desired_step_width,
                      offsets, plan_step, predict_final_icp, turning_angle)
from .terrain import Heightmap

log = logging.getLogger("liprint")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="key=value file providing flag defaults")
    p.add_argument("--out", help="output file path")


def _add_command_flags(p):
    p.add_argument("--vx", type=float, help="forward velocity command (m/s)")
    p.add_argument("--vy", type=float, default=0.0, help="lateral velocity command (m/s)")
    p.add_argument("--base-height", type=float, default=0.62)


def _add_model_flags(p):
    _add_command_flags(p)
    p.add_argument("--width", type=float, default=0.3, help="step width command (m)")
    p.add_argument("--Ts", type=float, default=0.35, dest="step_duration",
                   help="step duration (s)")
    p.add_argument("--g", type=float, default=9.81)


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parse_args keeps no state
    between calls and returns a fresh namespace each time."""
    parser = _Parser(prog="liprint", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the closed-loop stepping simulator")
    _add_model_flags(p)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--replan", choices=[sim.REPLAN_AT_STEP_START, sim.REPLAN_EVERY_TICK])
    p.add_argument("--terrain", default="flat")
    p.add_argument("--reach-limit", type=float, default=0.6)
    p.add_argument("--turn", type=float, default=0.0,
                   help="rotate the command by this many degrees mid-run")
    p.add_argument("--turn-time", type=float, default=3.0)
    p.add_argument("--events", help="step-event JSON path (default: <out>.events.json)")
    p.add_argument("--manifest", help="manifest JSON path (default: <out>.manifest.json)")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="success rates over a vx x terrain grid")
    _add_model_flags(p)
    p.add_argument("--vx-list", default="1.0", help="comma-separated vx commands")
    p.add_argument("--terrain", action="append", default=None,
                   help="terrain spec; may repeat to form the severity axis")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--duration", type=float, default=6.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--replan", choices=[sim.REPLAN_AT_STEP_START, sim.REPLAN_EVERY_TICK])
    p.add_argument("--reach-limit", type=float, default=0.6)
    p.add_argument("--window", type=float, default=5.0)
    p.add_argument("--tolerance", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("plan", help="one-shot step plan for a given state")
    _add_model_flags(p)
    p.add_argument("--dT", type=float, dest="remaining", default=None,
                   help="remaining step time (default: the step duration)")
    p.add_argument("--state", help='state JSON, e.g. {"com":[0,0],"vel":[0,0],'
                                   '"stance":[0,-0.15],"parity":0}')
    _add_common(p)
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("score", help="reward terms per trajectory row")
    _add_command_flags(p)
    p.add_argument("--traj", required=True, help="trajectory CSV (simulate schema)")
    p.add_argument("--joints", help="optional joint-log CSV for regularization terms")
    p.add_argument("--sigma", type=float, default=0.25)
    _add_common(p)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("terrain", help="terrain utilities")
    tsub = p.add_subparsers(dest="terrain_command", required=True)
    pg = tsub.add_parser("gen", help="generate a heightmap JSON file")
    pg.add_argument("--spec", required=True)
    pg.add_argument("--extent", default="-2:-2:12:2", help="x0:y0:x1:y1")
    pg.add_argument("--resolution", type=float, default=0.05)
    _add_common(pg)
    pg.set_defaults(handler=_cmd_terrain_gen)

    return parser


def _apply_config_file(argv):
    """--config provides flag defaults; explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    extra = []
    with open(known.config) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            extra.append(f"--{key.strip()}")
            extra.append(value.strip())
    # defaults go right after the full subcommand path ("simulate",
    # "terrain gen") so that later flags override them
    depth = next((i for i, a in enumerate(argv) if a.startswith("-")), len(argv))
    return argv[:depth] + extra + argv[depth:]


def _make_config(args, terrain_spec) -> sim.SimConfig:
    cmd = StepCommand(v_cmd=(args.vx, args.vy), w_cmd=args.width)
    replan = args.replan
    if replan is None:
        replan = (sim.REPLAN_AT_STEP_START if terrain_spec is None
                  else sim.REPLAN_EVERY_TICK)
    return sim.SimConfig(
        cmd=cmd,
        gait=GaitParams(step_duration=args.step_duration),
        lip=LipParams(g=args.g, z0=args.base_height),
        dt=args.dt,
        total_duration=args.duration,
        replan=replan,
        terrain=terrain_spec,
        reach_limit=args.reach_limit)


def _load_terrain(text: str):
    """Terrain flag -> SimConfig.terrain; file specs load the map."""
    spec = terrain_mod.parse_spec(text)
    if isinstance(spec, str):
        return Heightmap.load(spec)
    if spec.kind == "flat":
        return None
    return spec


def _cmd_simulate(args) -> int:
    if args.vx is None:
        raise _UsageError("simulate requires --vx")
    if not args.out:
        raise _UsageError("simulate requires --out")
    config = _make_config(args, _load_terrain(args.terrain))
    if args.turn != 0.0:
        result = sim.turn_maneuver(config, math.radians(args.turn), args.turn_time)
    else:
        result = sim.run(config)
    sim.write_trajectory_csv(result, args.out)
    events_path = args.events or _sibling(args.out, ".events.json")
    manifest_path = args.manifest or _sibling(args.out, ".manifest.json")
    sim.write_step_events(result, events_path)
    manifest = {
        "command": "simulate",
        "version": __version__,
        "seed": args.seed,
        "config": {
            "vx": args.vx, "vy": args.vy, "width": args.width,
            "step_duration": args.step_duration, "base_height": args.base_height,
            "g": args.g, "dt": args.dt, "duration": args.duration,
            "replan": config.replan, "terrain": args.terrain,
            "reach_limit": args.reach_limit, "turn": args.turn,
            "turn_time": args.turn_time,
        },
        "outputs": {"trajectory": str(args.out), "events": str(events_path)},
        "outcome": {
            "status": result.outcome,
            "reason": result.failure_reason,
            "time": result.failure_time,
            "steps": result.n_steps,
            "samples": int(result.sample_array.shape[0]),
        },
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    log.info("simulate: %s (%s)", result.outcome, result.failure_reason or "ok")
    return 0 if result.completed else 2


def _sibling(out_path: str, suffix: str) -> str:
    root, _ = os.path.splitext(str(out_path))
    return root + suffix


def _cmd_sweep(args) -> int:
    if not args.out:
        raise _UsageError("sweep requires --out")
    vx_values = [float(v) for v in args.vx_list.split(",") if v.strip() != ""]
    terrain_texts = args.terrain if args.terrain else ["flat"]
    configs = []
    labels = []
    for text in terrain_texts:
        spec = _load_terrain(text)  # one load per flag: maps are immutable
        for vx in vx_values:
            args.vx = vx
            configs.append(_make_config(args, spec))
            labels.append(text)
    rows = sim.sweep(configs, args.trials, base_seed=args.seed,
                     window=min(args.window, args.duration),
                     tolerance=args.tolerance)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["vx", "terrain", "replan", "trials", "successes", "success_rate"])
        for row, label, config in zip(rows, labels, configs):
            rate = "" if row.trials == 0 else sim.format_float(row.success_rate)
            w.writerow([sim.format_float(row.vx_cmd), label, config.replan,
                        row.trials, row.successes, rate])
    return 0


def _cmd_plan(args) -> int:
    if args.vx is None:
        raise _UsageError("plan requires --vx")
    state_spec = {"com": [0.0, 0.0], "vel": [0.0, 0.0],
                  "stance": [0.0, -args.width / 2.0], "parity": 0}
    try:
        loaded = json.loads(args.state or "{}")
        if not isinstance(loaded, dict):
            raise ValueError("state JSON must be an object")
        state_spec.update(loaded)
        com = [float(v) for v in state_spec["com"]]
        vel = [float(v) for v in state_spec["vel"]]
        stance_raw = [float(v) for v in state_spec["stance"]]
        parity = int(state_spec["parity"])
        if len(com) != 2 or len(vel) != 2 or len(stance_raw) not in (2, 3):
            raise ValueError("com/vel need 2 components, stance 2 or 3")
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise _UsageError(f"malformed --state JSON: {e}") from None

    Ts = args.step_duration
    remaining = args.remaining if args.remaining is not None else Ts
    if not (0.0 < remaining <= Ts):
        raise _UsageError(f"--dT must lie in (0, {Ts}]")
    params = LipParams(g=args.g, z0=args.base_height)
    state = LipState(com_pos=com, com_vel=vel, params=params)
    stance = FootPosition(p=stance_raw[:2],
                          z=stance_raw[2] if len(stance_raw) == 3 else 0.0)
    cmd = StepCommand(v_cmd=(args.vx, args.vy), w_cmd=args.width)
    gait_state = GaitState(t=Ts - remaining, parity=parity,
                           params=GaitParams(step_duration=Ts))
    xi0 = icp_of(state)
    try:
        xi_f = predict_final_icp(xi0, stance, params.omega0, remaining)
        s_d = desired_step_length(cmd, remaining)
        w_d = desired_step_width(cmd.w_cmd, remaining, Ts)
        b = offsets(s_d, w_d, params.omega0, remaining)
        step = plan_step(state, stance, cmd, gait_state)
    except OverflowError:
        raise _UsageError(f"exp(omega * dT) overflows (omega = {params.omega0:g} 1/s, "
                          f"dT = {remaining:g} s): lower --g, raise --base-height "
                          "or shorten --dT") from None
    out = {
        "xi0": [float(xi0.xi[0]), float(xi0.xi[1])],
        "xi_final": [float(xi_f.xi[0]), float(xi_f.xi[1])],
        "offset": [b.b_x, b.b_y],
        "heading": turning_angle(cmd),
        "step": {"x": float(step.p_d[0]), "y": float(step.p_d[1]),
                 "z": step.z_d, "heading": step.heading, "parity": step.parity},
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


# Joint-log columns: per-joint vectors <prefix><index> and base signals. A
# field made of several base signals is read only when all of them are there.
_JOINT_VECTORS = {"q": "q", "dq": "dq", "tau": "tau", "a": "action"}
_JOINT_SIGNALS = {"base_height": ("base_height",), "base_vel_z": ("v_z",),
                  "base_ang_vel": ("omega_x", "omega_y", "omega_z"),
                  "gravity_proj": ("g_x", "g_y", "g_z"),
                  "self_collision": ("self_collision",)}


# The ASCII separators: numpy's reader strips them around a value as
# whitespace, float() does not.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _loadtxt(lines, header):
    """The header and the (n, k) float64 data rows of a CSV file's decoded
    `lines`, split at the line ends (\\r, \\n, \\r\\n) where csv.reader
    splits unquoted records, parsed by numpy's C reader; or None where
    csv.reader must decide. The result stands only where csv.reader and
    float() accept the lines with the same floats:
    - the header line is not blank, holds no quote and, if `header` is
      given, equals it;
    - there is a data line, no line is longer than csv's field limit and
      no separator character is in the file;
    - loadtxt raises and warns nothing and returns one row of len(header)
      values per data line.
    Apart from the separators, loadtxt accepts only strings that float()
    accepts, and gives the same double.
    """
    text = "".join(lines)
    first = lines[0].rstrip("\r\n") if lines else ""
    names = first.split(",")
    if (len(lines) < 2 or not first or '"' in first
            or (header is not None and tuple(names) != header)
            or max(map(len, lines)) > csv.field_size_limit()
            or any(c in text for c in _SEPARATORS)):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # comments=None: the default "#" would cut "1#x" to 1
            table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2,
                               dtype=np.float64)
        except (ValueError, Warning):
            return None
    # loadtxt skips blank lines, which csv.reader reads as empty rows
    return (names, table) if table.shape == (len(lines) - 1, len(names)) else None


def _read_table(path, what, header=None) -> tuple:
    """The header and data rows of CSV file `path` (the command's `what`),
    read from disk once: `_loadtxt`'s array where it stands, else
    csv.reader's records of the same lines. Without a fixed `header` (a
    joint log), each non-blank record must be as wide as the file's own
    header; numpy's array is by construction. The caller names blank rows.
    """
    try:
        with open(path, newline="") as f:
            lines = f.readlines()
        parsed = _loadtxt(lines, header)
        if parsed is not None:
            return parsed
        rows = list(csv.reader(lines))
    except (OSError, csv.Error) as e:
        raise _UsageError(f"cannot read {path}: {e}") from None
    if not rows:
        raise _UsageError(f"{what} {path} is empty")
    names, data = rows[0], rows[1:]
    if header is not None and tuple(names) != header:
        raise _UsageError(f"{what} columns {names} do not match the simulate "
                          f"schema {list(header)}")
    if header is None:
        for i, row in enumerate(data, 1):
            if row and len(row) != len(names):
                raise _UsageError(f"bad joint row {i}: {len(row)} fields, "
                                  f"the header has {len(names)}")
    return names, data


def _float_table(data, cols, what) -> np.ndarray:
    """Columns `cols` of all data rows as finite floats, one (n,) table row
    per column.

    `data` is `_read_table`'s data rows, numpy's array or csv.reader's
    records. A row too short for `cols` (a blank line is named as one), or
    holding a non-numeric or non-finite value in one of them, is an input
    error naming its 1-based data row.
    """
    if isinstance(data, np.ndarray):
        # C order, as below, so that reductions over the columns add in
        # the same order
        table = np.ascontiguousarray(data[:, cols].T)
    else:
        try:
            table = np.array([np.fromiter(map(float, map(itemgetter(c), data)),
                                          np.float64, len(data)) for c in cols])
        except (ValueError, IndexError):
            for i, row in enumerate(data, 1):
                try:
                    [float(row[c]) for c in cols]
                except (ValueError, IndexError):
                    raise _UsageError(f"bad {what} row {i}"
                                      + ("" if row else ": blank line")) from None
            raise
        table = table.reshape(len(cols), len(data))
        if [] in data:  # a blank row is too short even where no column is read
            raise _UsageError(f"bad {what} row {data.index([]) + 1}: blank line")
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise _UsageError(f"bad {what} row {int(np.argmin(finite)) + 1}")
    return table


def _joint_columns(path, n) -> dict:
    """metrics.reward_table columns from a joint-log CSV with n data rows."""
    header, data = _read_table(path, "joint log")
    if len(data) != n:
        blank = next((i for i, row in enumerate(data, 1) if not len(row)), None)
        raise _UsageError(f"joint log has {len(data)} rows but the trajectory has {n}"
                          + (f"; joint row {blank} is a blank line" if blank else ""))
    pos = {}  # (prefix, joint index) or (name, None) -> column
    for c, name in enumerate(header):
        prefix = next((p for p in _JOINT_VECTORS
                       if name.startswith(p) and name[len(p):].isdigit()), None)
        key = (prefix, int(name[len(prefix):])) if prefix else (name, None)
        if key in pos:
            raise _UsageError(f"joint log column {name!r} duplicates "
                              f"column {header[pos[key]]!r}")
        pos[key] = c
    fields = {f: [pos[k] for k in sorted(k for k in pos if k[0] == p and k[1] is not None)]
              for p, f in _JOINT_VECTORS.items()}
    fields.update((f, [pos[k, None] for k in names]) for f, names in _JOINT_SIGNALS.items()
                  if all((k, None) in pos for k in names))
    table = _float_table(data, [c for cs in fields.values() for c in cs], "joint")
    parts = np.split(table, np.cumsum([len(cs) for cs in fields.values()])[:-1])
    cols = {f: part.T for f, part in zip(fields, parts)}
    for f in ("base_height", "base_vel_z", "self_collision"):
        if f in cols:
            cols[f] = cols[f][:, 0]
    prev = np.maximum(np.arange(n) - 1, 0)  # row 0 is its own predecessor
    cols["action_prev"], cols["action_prev2"] = cols["action"][prev], cols["action"][prev[prev]]
    return cols


def _cmd_score(args) -> int:
    if not args.out:
        raise _UsageError("score requires --out")
    data = _read_table(args.traj, "trajectory", sim.CSV_COLUMNS)[1]
    n = len(data)
    # every column but outcome_flag
    table = _float_table(data, range(len(sim.CSV_COLUMNS) - 1), "trajectory")
    columns = _joint_columns(args.joints, n) if args.joints else {}
    t = dict(zip(sim.CSV_COLUMNS, table))

    vx = args.vx or 0.0
    params = metrics.RewardParams(
        sigma=args.sigma,
        base_height_target=args.base_height,
        heading_target=_kernels.command_heading(vx, args.vy, 0.0),  # the simulator's rule
        vel_cmd=(vx, args.vy))
    # each foot stands at its target: the stance foot at its touchdown point,
    # the swing foot at its planned one
    right = np.mod(np.trunc(t["parity"]), 2.0) == 0.0
    stance = np.stack([t["stance_x"], t["stance_y"]], axis=1)
    swing = np.stack([t["target_x"], t["target_y"]], axis=1)
    feet = np.where(right[:, None, None], np.stack([stance, swing], axis=1),
                    np.stack([swing, stance], axis=1))
    columns = {"base_height": np.full(n, args.base_height), "base_heading": t["target_heading"],
               "base_vel_world": np.stack([t["vel_x"], t["vel_y"]], axis=1),
               "foot_pos": feet, "foot_contact": np.stack([right, ~right], axis=1), **columns}
    total, breakdown = metrics.reward_table(columns, params, t["contact_schedule"], feet,
                                            np.where(right, metrics.RIGHT, metrics.LEFT))

    out = [t["time"], *(breakdown[k] for k in metrics.TASK_TERMS + metrics.REG_TERMS), total]
    sim.write_csv(args.out, ["time", *metrics.TASK_TERMS,
                             *(f"reg_{k}" for k in metrics.REG_TERMS), "total"],
                  np.column_stack(out))
    return 0


def _cmd_terrain_gen(args) -> int:
    if not args.out:
        raise _UsageError("terrain gen requires --out")
    spec = terrain_mod.parse_spec(args.spec)
    if isinstance(spec, str):
        raise _UsageError("terrain gen expects a generative spec, not file:")
    try:
        extent = tuple(float(v) for v in args.extent.split(":"))
        if len(extent) != 4:
            raise ValueError
    except ValueError:
        raise _UsageError(f"bad --extent {args.extent!r}, expected x0:y0:x1:y1") from None
    hmap = terrain_mod.generate(spec, extent, args.resolution)
    hmap.save(args.out)
    return 0


def main(argv=None) -> int:
    level = os.environ.get("LIPRINT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config_file(list(argv))
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as e:
        # argparse -h/--help exits 0; treat other argparse exits as usage errors
        return 0 if not e.code else 1
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
