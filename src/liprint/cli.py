"""Batch-experiment command line front end.

Subcommands: simulate, sweep, plan, score, terrain gen. All emit CSV/JSON
for external plotting; no interactive UI. Exit codes: 0 success, 1 usage
or input error, 2 simulated failure. The LIPRINT_LOG environment variable
sets the logging level (e.g. INFO, DEBUG).

The parser holds each flag's rules (required flags, non-empty output
paths, finite velocities and turns, a non-negative sweep --seed and
--trials): a broken one exits 1 with one line naming the flag, e.g.
"error: argument --vy: must be finite, got 'nan'". A value that starts
with '-' and is not a plain decimal, such as a negative number with an
exponent or an --extent, takes the '=' form: --vx=-1e-3 runs, while
--vx -1e-3 exits 1 with "error: argument --vx: expected one argument"
where argparse reads -1e-3 as a flag (Python 3.11's does). An output
path that names the same file as another output or an input exits 1
before any run or write, naming both flags (_check_paths).

Terrain spec grammar:
    flat | rough:<amp>:<corr>:<seed> | gap:<width>:<period>[:<offset>]
         | file:<path>
"""

import argparse
import contextlib
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
from .gait import GaitParams, GaitState, remaining_time
from .lip_core import (BASE_HEIGHT, GRAVITY, FootPosition, LipParams, LipState, icp_of,
                       icp_trajectory)
from .planner import StepCommand, plan_step
from .terrain import Heightmap

log = logging.getLogger("liprint")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _finite(text: str) -> float:
    """The argparse type of the velocity and turn flags: a finite float."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


def _finite_list(text: str) -> list:
    """The argparse type of --vx-list: comma-separated finite floats, blanks skipped."""
    return [_finite(v) for v in text.split(",") if v.strip()]


def _non_negative_int(text: str) -> int:
    """The argparse type of sweep's --seed and --trials: a non-negative integer."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return v


def _out_path(text: str) -> str:
    """The argparse type of the output-path flags: a non-empty path."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _add_common(p, out_required=True):
    p.add_argument("--config", help="key=value file providing flag defaults")
    p.add_argument("--out", type=_out_path, required=out_required, help="output file path")


def _add_command_flags(p):
    p.add_argument("--vy", type=_finite, default=0.0, help="lateral velocity command (m/s)")
    p.add_argument("--base-height", type=float, default=BASE_HEIGHT)


def _add_model_flags(p):
    _add_command_flags(p)
    p.add_argument("--width", type=float, default=StepCommand.w_cmd, help="step width command (m)")
    p.add_argument("--Ts", type=float, default=GaitParams.step_duration, dest="step_duration",
                   help="step duration (s)")
    p.add_argument("--g", type=float, default=GRAVITY)


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once (parse_args keeps no state); each command
    takes only the flags its handler reads, with the library's defaults."""
    parser = _Parser(prog="liprint", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the closed-loop stepping simulator")
    p.add_argument("--vx", type=_finite, required=True, help="forward velocity command (m/s)")
    _add_model_flags(p)
    p.add_argument("--duration", type=float, default=sim.SimConfig.total_duration)
    p.add_argument("--dt", type=float, default=sim.SimConfig.dt)
    p.add_argument("--replan", choices=[sim.REPLAN_AT_STEP_START, sim.REPLAN_EVERY_TICK])
    p.add_argument("--terrain", default="flat")
    p.add_argument("--reach-limit", type=float, default=sim.SimConfig.reach_limit)
    p.add_argument("--turn", type=_finite, default=0.0,
                   help="rotate the command by this many degrees mid-run")
    p.add_argument("--turn-time", type=_finite, default=3.0)
    p.add_argument("--events", type=_out_path,
                   help="step-event JSON path (default: <out>.events.json)")
    p.add_argument("--manifest", type=_out_path,
                   help="manifest JSON path (default: <out>.manifest.json)")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="success rates over a vx x terrain grid")
    _add_model_flags(p)
    p.add_argument("--vx-list", type=_finite_list, default="1.0",
                   help="comma-separated vx commands")
    p.add_argument("--terrain", action="append", default=None,
                   help="terrain spec; may repeat to form the severity axis")
    p.add_argument("--trials", type=_non_negative_int, default=10)
    p.add_argument("--duration", type=float, default=6.0)
    p.add_argument("--dt", type=float, default=sim.SimConfig.dt)
    p.add_argument("--replan", choices=[sim.REPLAN_AT_STEP_START, sim.REPLAN_EVERY_TICK])
    p.add_argument("--reach-limit", type=float, default=sim.SimConfig.reach_limit)
    p.add_argument("--window", type=float, default=5.0)
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="base of the per-trial rough-terrain seeds")
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("plan", help="one-shot step plan for a given state")
    p.add_argument("--vx", type=_finite, required=True, help="forward velocity command (m/s)")
    _add_model_flags(p)
    p.add_argument("--dT", type=float, dest="remaining", default=None,
                   help="remaining step time (default: the step duration)")
    p.add_argument("--state", help='state JSON, e.g. {"com":[0,0],"vel":[0,0],'
                                   '"stance":[0,-0.15],"parity":0}')
    _add_common(p, out_required=False)
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("score", help="reward terms per trajectory row")
    p.add_argument("--vx", type=_finite, default=0.0, help="forward velocity command (m/s)")
    _add_command_flags(p)
    p.add_argument("--traj", required=True, help="trajectory CSV (simulate schema)")
    p.add_argument("--joints", help="optional joint-log CSV for regularization terms")
    p.add_argument("--sigma", type=float, default=metrics.RewardParams.sigma)
    _add_common(p)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("terrain", help="terrain utilities")
    tsub = p.add_subparsers(dest="terrain_command", required=True)
    pg = tsub.add_parser("gen", help="generate a heightmap JSON file")
    pg.add_argument("--spec", required=True)
    pg.add_argument("--extent", default="-2:-2:12:2", help="x0:y0:x1:y1")
    pg.add_argument("--resolution", type=float, default=sim.TERRAIN_RESOLUTION)
    _add_common(pg)
    pg.set_defaults(handler=_cmd_terrain_gen)

    return parser


def _parse_args(argv):
    """The parsed flags of argv, with defaults from its --config file: one
    key=value line per flag (the flag name without --; blank and # lines
    skipped; no config key), passed as one --key=value token, so a value
    may start with '-'. Explicit flags still win: the file's tokens go
    before the command line's, and where the command line gives sweep's
    repeatable --terrain (the probe matches abbreviations as the parser
    does), its values replace the file's, the first entries of the list."""
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    probe.add_argument("--terrain", action="append")
    known, _ = probe.parse_known_args(argv)
    extra = []
    if known.config is not None:
        try:
            with open(known.config) as f:
                lines = f.readlines()
        except (OSError, UnicodeDecodeError) as e:
            raise ValueError(f"cannot read {known.config}: {e}") from None
        for n, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq or not key.strip():
                raise ValueError(f"--config {known.config} line {n}: "
                                 f"expected key=value, got {line!r}")
            token = f"--{key.strip()}={value.strip()}"
            if probe.parse_known_args([token])[0].config is not None:
                raise ValueError(f"--config {known.config} line {n}: "
                                 f"a config file cannot name another, got {line!r}")
            extra.append(token)
    # defaults go right after the full subcommand path ("simulate",
    # "terrain gen") so that later flags override them
    depth = next((i for i, a in enumerate(argv) if a.startswith("-")), len(argv))
    args = build_parser().parse_args(argv[:depth] + extra + argv[depth:])
    if known.terrain and isinstance(getattr(args, "terrain", None), list):
        args.terrain = args.terrain[-len(known.terrain):]
    return args


def _make_config(args, terrain_spec, vx) -> sim.SimConfig:
    """The run config of the parsed flags at forward speed vx: simulate's
    --vx, or one of sweep's --vx-list values (sweep has no --vx)."""
    replan = args.replan
    if replan is None:
        replan = (sim.REPLAN_AT_STEP_START if terrain_spec is None
                  else sim.REPLAN_EVERY_TICK)
    return sim.SimConfig(
        cmd=StepCommand(v_cmd=(vx, args.vy), w_cmd=args.width),
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
        try:
            return Heightmap.load(spec)
        except OSError as e:
            raise ValueError(f"cannot read {spec}: {e}") from None
    if spec.kind == "flat":
        return None
    return spec


# The parsed entries that simulate's manifest does not echo under "config".
_NOT_ECHOED = ("command", "handler", "config", "out", "events", "manifest")


def _cmd_simulate(args) -> int:
    config = _make_config(args, _load_terrain(args.terrain), args.vx)
    if args.turn != 0.0:
        result = sim.turn_maneuver(config, math.radians(args.turn), args.turn_time)
    else:
        result = sim.run(config)
    (_, out), (_, events_path), (_, manifest_path) = _outputs(args)
    manifest = {
        "command": "simulate",
        "version": __version__,
        # every parsed flag but the paths and the parser's own entries, with
        # the replanning mode the run resolved
        "config": {**{k: v for k, v in vars(args).items() if k not in _NOT_ECHOED},
                   "replan": config.replan},
        "outputs": {"trajectory": str(out), "events": str(events_path)},
        "outcome": {
            "status": result.outcome,
            "reason": result.failure_reason,
            "time": result.failure_time,
            "steps": result.n_steps,
            "samples": int(result.sample_array.shape[0]),
        },
    }
    _write_outputs((out, functools.partial(sim.write_trajectory_csv, result)),
                   (events_path, functools.partial(sim.write_step_events, result)),
                   (manifest_path, functools.partial(
                       _write_text, json.dumps(manifest, indent=2, sort_keys=True) + "\n")))
    log.info("simulate: %s (%s)", result.outcome, result.failure_reason or "ok")
    return 0 if result.completed else 2


def _sibling(out_path: str, suffix: str) -> str:
    root, _ = os.path.splitext(str(out_path))
    return root + suffix


def _outputs(args) -> list:
    """(flag, path) of each file the parsed command writes, in the order
    it writes them: --out, and for simulate the event log and the manifest,
    whose defaults are <out>.events.json and <out>.manifest.json (their
    flag then reads "--events's default")."""
    if args.command != "simulate":
        return [("--out", args.out)] if args.out else []
    return [("--out", args.out)] + [
        (flag, given) if given else (f"{flag}'s default", _sibling(args.out, suffix))
        for flag, given, suffix in (("--events", args.events, ".events.json"),
                                    ("--manifest", args.manifest, ".manifest.json"))]


def _check_paths(args) -> None:
    """Refuse, before any run or write, an output that names the same file
    as another output or an input (--config, each --terrain file:<path>,
    score's --traj and --joints), compared by os.path.realpath: an input
    error naming both flags."""
    terrains = getattr(args, "terrain", None)
    inputs = [("--config", args.config),
              ("--traj", getattr(args, "traj", None)), ("--joints", getattr(args, "joints", None))]
    inputs += [("--terrain", t[len("file:"):])
               for t in (terrains if isinstance(terrains, list) else [terrains])
               if t is not None and t.startswith("file:")]
    seen = [(flag, os.path.realpath(path)) for flag, path in inputs if path is not None]
    for flag, path in _outputs(args):
        real = os.path.realpath(path)
        other = next((f for f, p in seen if p == real), None)
        if other is not None:
            raise ValueError(f"{flag} and {other} name the same file: {path}")
        seen.append((flag, real))


def _write_text(text: str, path) -> None:
    with open(path, "w") as f:
        f.write(text)


def _write_outputs(*outputs) -> None:
    """Make each (path, write) output in turn by calling write(path). An
    output that cannot be opened or written is an input error, "cannot
    write <path>: <reason>", and the outputs this call already made are
    removed first, so that a command leaves its whole set or none of it.
    The failed path is left as it is: it may be a file the command did not
    make."""
    made = []
    for path, write in outputs:
        try:
            write(path)
        except OSError as e:
            for done in made:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(done)
            raise ValueError(f"cannot write {path}: {e}") from None
        made.append(path)


def _cmd_sweep(args) -> int:
    terrain_texts = args.terrain if args.terrain else ["flat"]
    configs = []
    labels = []
    for text in terrain_texts:
        spec = _load_terrain(text)  # one load per flag: maps are immutable
        for vx in args.vx_list:
            configs.append(_make_config(args, spec, vx))
            labels.append(text)
    rows = sim.sweep(configs, args.trials, base_seed=args.seed,
                     window=min(args.window, args.duration),
                     tolerance=args.tolerance)

    def write(path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["vx", "terrain", "replan", "trials", "successes", "success_rate"])
            for row, label, config in zip(rows, labels, configs):
                rate = "" if row.trials == 0 else sim.format_float(row.success_rate)
                w.writerow([sim.format_float(row.vx_cmd), label, config.replan,
                            row.trials, row.successes, rate])

    _write_outputs((args.out, write))
    return 0


def _state_numbers(state_spec: dict, key: str) -> list:
    """state_spec[key] as floats; it must be a JSON list of numbers."""
    v = state_spec[key]
    if not isinstance(v, list) or not all(map(terrain_mod._is_json_number, v)):
        raise ValueError(f"{key} must be a list of numbers, got {v!r}")
    return [float(x) for x in v]


def _cmd_plan(args) -> int:
    cmd = StepCommand(v_cmd=(args.vx, args.vy), w_cmd=args.width)
    state_spec = {"com": [0.0, 0.0], "vel": [0.0, 0.0],
                  "stance": [0.0, -cmd.w_cmd / 2.0], "parity": 0}
    try:
        loaded = json.loads(args.state or "{}")
        if not isinstance(loaded, dict):
            raise ValueError("state JSON must be an object")
        unknown = next((key for key in loaded if key not in state_spec), None)
        if unknown is not None:
            raise ValueError(f"unknown key {unknown!r}")
        state_spec.update(loaded)
        com, vel, stance_raw = (_state_numbers(state_spec, key)
                                for key in ("com", "vel", "stance"))
        parity = state_spec["parity"]
        if type(parity) is not int:
            raise ValueError(f"parity must be an integer, got {parity!r}")
        if len(com) != 2 or len(vel) != 2 or len(stance_raw) not in (2, 3):
            raise ValueError("com/vel need 2 components, stance 2 or 3")
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed --state JSON: {e}") from None

    gait = GaitParams(step_duration=args.step_duration)
    Ts = gait.step_duration
    remaining = args.remaining if args.remaining is not None else Ts
    if not (0.0 < remaining <= Ts):
        raise ValueError(f"--dT must lie in (0, {Ts}]")
    if not Ts - remaining < Ts:
        raise ValueError(f"--dT {remaining!r} is too small for --Ts {Ts!r}: Ts - dT rounds to Ts")
    params = LipParams(g=args.g, z0=args.base_height)
    state = LipState(com_pos=com, com_vel=vel, params=params)
    stance = FootPosition(p=stance_raw[:2],
                          z=stance_raw[2] if len(stance_raw) == 3 else 0.0)
    gait_state = GaitState(t=Ts - remaining, parity=parity, params=gait)
    # the capture point is predicted over the gait clock's remaining time,
    # which can differ from --dT by an ulp: xi_final and step use that one value
    remaining = remaining_time(gait_state)
    try:
        try:
            xi0 = icp_of(state)
            xi_f = icp_trajectory(xi0, stance, params.omega0, remaining)
        except ValueError as e:
            # a finite exp(omega * dT) (an overflow raises OverflowError):
            # the state itself is beyond the float range
            raise ValueError(f"--state overflows the capture point: {e}") from None
        step = plan_step(state, stance, cmd, gait_state)
        # the unsigned offsets over Ts that plan_step's placement_offsets rotates
        b = _kernels.offset_pair(math.hypot(*cmd.v_cmd) * Ts, cmd.w_cmd, params.omega0, Ts)
    except OverflowError:
        # dT <= Ts: exp(omega * Ts) is the first to overflow
        raise ValueError(f"exp(omega * Ts) overflows (omega = {params.omega0:g} 1/s, "
                         f"Ts = {Ts:g} s): lower --g, raise --base-height "
                         "or shorten --Ts") from None
    out = {
        "xi0": [float(xi0.xi[0]), float(xi0.xi[1])],
        "xi_final": [float(xi_f.xi[0]), float(xi_f.xi[1])],
        "offset": list(b),
        "heading": step.heading,
        "step": {"x": float(step.p_d[0]), "y": float(step.p_d[1]),
                 "z": stance.z, "heading": step.heading, "parity": step.parity},
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        _write_outputs((args.out, functools.partial(_write_text, text + "\n")))
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
    except (OSError, csv.Error, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    if not rows:
        raise ValueError(f"{what} {path} is empty")
    names, data = rows[0], rows[1:]
    if header is not None and tuple(names) != header:
        raise ValueError(f"{what} columns {names} do not match the simulate "
                         f"schema {list(header)}")
    if header is None:
        for i, row in enumerate(data, 1):
            if row and len(row) != len(names):
                raise ValueError(f"bad joint row {i}: {len(row)} fields, "
                                 f"the header has {len(names)}")
    return names, data


def _float_table(data, cols, what) -> np.ndarray:
    """Columns `cols` of all data rows as finite floats, one (n,) table row
    per column.

    `data` is `_read_table`'s data rows, numpy's array or csv.reader's
    records. A row too short for `cols` (a blank line is named as one), or
    holding a non-numeric or non-finite value in one of them, is an input
    error naming its 1-based data row. A row that does not parse is named
    before an earlier non-finite one.
    """
    if isinstance(data, np.ndarray):
        # C order, as below, so that reductions over the columns add in
        # the same order
        table = np.ascontiguousarray(data[:, cols].T)
    else:
        try:
            table = np.array([np.fromiter(map(float, map(itemgetter(c), data)),
                                          np.float64, len(data)) for c in cols])
            if [] in data:  # a blank row is too short even where no column is read
                raise IndexError
        except (ValueError, IndexError):
            for i, row in enumerate(data, 1):  # name the first bad or blank row
                if not row:
                    raise ValueError(f"bad {what} row {i}: blank line") from None
                try:
                    [float(row[c]) for c in cols]
                except (ValueError, IndexError):
                    raise ValueError(f"bad {what} row {i}") from None
            raise
        table = table.reshape(len(cols), len(data))
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise ValueError(f"bad {what} row {int(np.argmin(finite)) + 1}")
    return table


def _joint_columns(path, n) -> dict:
    """metrics.reward_table columns from a joint-log CSV with n data rows."""
    header, data = _read_table(path, "joint log")
    if len(data) != n:
        blank = next((i for i, row in enumerate(data, 1) if not len(row)), None)
        raise ValueError(f"joint log has {len(data)} rows but the trajectory has {n}"
                         + (f"; joint row {blank} is a blank line" if blank else ""))
    pos = {}  # (prefix, joint index) or (name, None) -> column
    for c, name in enumerate(header):
        prefix = next((p for p in _JOINT_VECTORS
                       if name.startswith(p) and name[len(p):].isdigit()), None)
        key = (prefix, int(name[len(prefix):])) if prefix else (name, None)
        if key in pos:
            raise ValueError(f"joint log column {name!r} duplicates "
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
    data = _read_table(args.traj, "trajectory", sim.CSV_COLUMNS)[1]
    n = len(data)
    # every column but outcome_flag
    table = _float_table(data, range(len(sim.CSV_COLUMNS) - 1), "trajectory")
    columns = _joint_columns(args.joints, n) if args.joints else {}
    t = dict(zip(sim.CSV_COLUMNS, table))

    params = metrics.RewardParams(
        sigma=args.sigma,
        base_height_target=args.base_height,
        heading_target=_kernels.command_heading(args.vx, args.vy, 0.0),  # the simulator's rule
        vel_cmd=(args.vx, args.vy))
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
    header = ["time", *metrics.TASK_TERMS, *(f"reg_{k}" for k in metrics.REG_TERMS), "total"]
    _write_outputs((args.out, lambda path: sim.write_csv(path, header, np.column_stack(out))))
    return 0


def _cmd_terrain_gen(args) -> int:
    spec = terrain_mod.parse_spec(args.spec)
    if isinstance(spec, str):
        raise ValueError("terrain gen expects a generative spec, not file:")
    try:
        extent = tuple(float(v) for v in args.extent.split(":"))
        if len(extent) != 4:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad --extent {args.extent!r}, expected x0:y0:x1:y1") from None
    hmap = terrain_mod.generate(spec, extent, args.resolution)
    _write_outputs((args.out, hmap.save))
    return 0


def main(argv=None) -> int:
    level = os.environ.get("LIPRINT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(list(argv))
        _check_paths(args)
        return args.handler(args)
    except SystemExit as e:
        # argparse -h/--help exits 0; treat other argparse exits as usage errors
        return 0 if not e.code else 1
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
