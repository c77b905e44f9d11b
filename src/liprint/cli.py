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
import json
import logging
import math
import os
import sys
from importlib.metadata import version as _pkg_version

from . import metrics, sim, terrain as terrain_mod
from .gait import GaitParams, GaitState
from .lip_core import FootPosition, LipParams, LipState, icp_of
from .planner import (StepCommand, desired_step_length, desired_step_width,
                      offsets, plan_step, predict_final_icp, turning_angle)
from .terrain import Heightmap

log = logging.getLogger("liprint")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="key=value file providing flag defaults")
    p.add_argument("--out", help="output file path")


def _add_model_flags(p):
    p.add_argument("--vx", type=float, help="forward velocity command (m/s)")
    p.add_argument("--vy", type=float, default=0.0, help="lateral velocity command (m/s)")
    p.add_argument("--width", type=float, default=0.3, help="step width command (m)")
    p.add_argument("--Ts", type=float, default=0.35, dest="step_duration",
                   help="step duration (s)")
    p.add_argument("--base-height", type=float, default=0.62)
    p.add_argument("--g", type=float, default=9.81)


def build_parser() -> _Parser:
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

    p = sub.add_parser("plan", help="one-shot step plan for a given state")
    _add_model_flags(p)
    p.add_argument("--dT", type=float, dest="remaining", default=None,
                   help="remaining step time (default: the step duration)")
    p.add_argument("--state", help='state JSON, e.g. {"com":[0,0],"vel":[0,0],'
                                   '"stance":[0,-0.15],"parity":0}')
    _add_common(p)

    p = sub.add_parser("score", help="reward terms per trajectory row")
    _add_model_flags(p)
    p.add_argument("--traj", required=True, help="trajectory CSV (simulate schema)")
    p.add_argument("--joints", help="optional joint-log CSV for regularization terms")
    p.add_argument("--sigma", type=float, default=0.25)
    _add_common(p)

    p = sub.add_parser("terrain", help="terrain utilities")
    tsub = p.add_subparsers(dest="terrain_command", required=True)
    pg = tsub.add_parser("gen", help="generate a heightmap JSON file")
    pg.add_argument("--spec", required=True)
    pg.add_argument("--extent", default="-2:-2:12:2", help="x0:y0:x1:y1")
    pg.add_argument("--resolution", type=float, default=0.05)
    _add_common(pg)

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
        "version": _version(),
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
            "steps": len(result.step_events),
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


def _version() -> str:
    try:
        return _pkg_version("liprint")
    except Exception:
        return "unknown"


def _cmd_sweep(args) -> int:
    if not args.out:
        raise _UsageError("sweep requires --out")
    vx_values = [float(v) for v in args.vx_list.split(",") if v.strip() != ""]
    terrain_texts = args.terrain if args.terrain else ["flat"]
    configs = []
    labels = []
    for text in terrain_texts:
        for vx in vx_values:
            args.vx = vx
            configs.append(_make_config(args, _load_terrain(text)))
            labels.append(text)
    rows = sim.sweep(configs, args.trials, base_seed=args.seed,
                     window=min(args.window, args.duration),
                     tolerance=args.tolerance)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["vx", "terrain", "replan", "trials", "successes", "success_rate"])
        for row, label, config in zip(rows, labels, configs):
            rate = "" if row.trials == 0 else _fmt(row.success_rate)
            w.writerow([_fmt(row.vx_cmd), label, config.replan,
                        row.trials, row.successes, rate])
    return 0


def _cmd_plan(args) -> int:
    if args.vx is None:
        raise _UsageError("plan requires --vx")
    state_spec = {"com": [0.0, 0.0], "vel": [0.0, 0.0],
                  "stance": [0.0, -args.width / 2.0], "parity": 0}
    if args.state:
        try:
            loaded = json.loads(args.state)
            if not isinstance(loaded, dict):
                raise ValueError("state JSON must be an object")
            state_spec.update(loaded)
            com = [float(v) for v in state_spec["com"]]
            vel = [float(v) for v in state_spec["vel"]]
            stance_raw = [float(v) for v in state_spec["stance"]]
            parity = int(state_spec["parity"])
            if len(com) != 2 or len(vel) != 2 or len(stance_raw) not in (2, 3):
                raise ValueError("com/vel need 2 components, stance 2 or 3")
        except (ValueError, KeyError, TypeError) as e:
            raise _UsageError(f"malformed --state JSON: {e}") from None
    else:
        com, vel = state_spec["com"], state_spec["vel"]
        stance_raw, parity = state_spec["stance"], state_spec["parity"]

    Ts = args.step_duration
    remaining = args.remaining if args.remaining is not None else Ts
    if not (0.0 < remaining <= Ts):
        raise _UsageError(f"--dT must lie in (0, {Ts}]")
    params = LipParams(g=args.g, z0=args.base_height)
    state = LipState(com_pos=com, com_vel=vel, params=params)
    stance = FootPosition(p=stance_raw[:2],
                          z=stance_raw[2] if len(stance_raw) == 3 else 0.0)
    cmd = StepCommand(v_cmd=(args.vx, args.vy), w_cmd=args.width)
    gait_state = GaitState(t=Ts - remaining, t_prime=(parity % 2) * Ts + Ts - remaining,
                           parity=parity, params=GaitParams(step_duration=Ts))
    xi0 = icp_of(state)
    xi_f = predict_final_icp(xi0, stance, params.omega0, remaining)
    s_d = desired_step_length(cmd, remaining)
    w_d = desired_step_width(cmd.w_cmd, remaining, Ts)
    b = offsets(s_d, w_d, params.omega0, remaining)
    step = plan_step(state, stance, cmd, gait_state)
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


_JOINT_PREFIXES = ("q", "dq", "tau", "a")
_JOINT_BASE_COLS = ("omega_x", "omega_y", "omega_z", "g_x", "g_y", "g_z",
                    "v_z", "base_height", "self_collision")


def _split_joint_row(header, row):
    vec = {p: [] for p in _JOINT_PREFIXES}
    base = {}
    for name, value in zip(header, row):
        if name in _JOINT_BASE_COLS:
            base[name] = float(value)
            continue
        for p in _JOINT_PREFIXES:
            if name.startswith(p) and name[len(p):].isdigit():
                vec[p].append((int(name[len(p):]), float(value)))
                break
    return {p: [v for _, v in sorted(vals)] for p, vals in vec.items()}, base


def _cmd_score(args) -> int:
    if not args.out:
        raise _UsageError("score requires --out")
    try:
        with open(args.traj, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise _UsageError(f"cannot read {args.traj}: {e}") from None

    reg_keys = ["joint_torques", "torque_limits", "joint_velocity", "joint_limits",
                "action_smoothness_1", "action_smoothness_2", "hip_regularization",
                "base_rollpitch_velocity", "base_z_velocity", "base_tilting",
                "termination"]
    out_header = (["time", "base_height", "base_orientation", "velocity_tracking",
                   "contact_schedule"] + [f"reg_{k}" for k in reg_keys] + ["total"])

    if not rows:
        with open(args.out, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerow(out_header)
        return 0
    header = rows[0]
    if tuple(header) != sim.CSV_COLUMNS:
        print(f"error: trajectory columns {header} do not match the simulate "
              f"schema {list(sim.CSV_COLUMNS)}", file=sys.stderr)
        return 1
    data = rows[1:]

    joint_rows = None
    joint_header = None
    if args.joints:
        with open(args.joints, newline="") as f:
            jrows = list(csv.reader(f))
        if jrows:
            joint_header = jrows[0]
            joint_rows = jrows[1:]
            if len(joint_rows) != len(data):
                print(f"error: joint log has {len(joint_rows)} rows but the "
                      f"trajectory has {len(data)}", file=sys.stderr)
                return 1

    col = {name: i for i, name in enumerate(sim.CSV_COLUMNS)}
    params = metrics.RewardParams(
        sigma=args.sigma,
        base_height_target=args.base_height,
        heading_target=math.atan2(args.vy, args.vx or 0.0) if (args.vx or args.vy) else 0.0,
        vel_cmd=(args.vx or 0.0, args.vy),
        step_duration=args.step_duration)

    with open(args.out, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(out_header)
        prev_action: list = []
        prev_action2: list = []
        for i, row in enumerate(data):
            try:
                vals = [float(row[col[c]]) for c in sim.CSV_COLUMNS[:-1]]
            except (ValueError, IndexError):
                print(f"error: bad trajectory row {i + 1}", file=sys.stderr)
                return 1
            parity = int(vals[col["parity"]])
            stance_side = metrics.RIGHT if parity % 2 == 0 else metrics.LEFT
            stance_xy = (vals[col["stance_x"]], vals[col["stance_y"]])
            target_xy = (vals[col["target_x"]], vals[col["target_y"]])
            foot_pos = [stance_xy, stance_xy]
            targets = [stance_xy, stance_xy]
            foot_pos[1 - stance_side] = target_xy
            targets[1 - stance_side] = target_xy
            contact = [False, False]
            contact[stance_side] = True

            kw = dict(
                base_height=args.base_height,
                base_heading=vals[col["target_heading"]],
                base_vel_world=(vals[col["vel_x"]], vals[col["vel_y"]]),
                foot_pos=foot_pos,
                foot_contact=tuple(contact))
            if joint_rows is not None:
                vecs, base = _split_joint_row(joint_header, joint_rows[i])
                action = vecs["a"]
                if i == 0:
                    prev_action = prev_action2 = action
                kw.update(q=vecs["q"], dq=vecs["dq"], tau=vecs["tau"],
                          action=action, action_prev=prev_action,
                          action_prev2=prev_action2)
                prev_action2 = prev_action
                prev_action = action
                if "base_height" in base:
                    kw["base_height"] = base["base_height"]
                if "v_z" in base:
                    kw["base_vel_z"] = base["v_z"]
                if all(k in base for k in ("omega_x", "omega_y", "omega_z")):
                    kw["base_ang_vel"] = (base["omega_x"], base["omega_y"], base["omega_z"])
                if all(k in base for k in ("g_x", "g_y", "g_z")):
                    kw["gravity_proj"] = (base["g_x"], base["g_y"], base["g_z"])
                if "self_collision" in base:
                    kw["self_collision"] = bool(base["self_collision"])
            sample = metrics.RobotSample(**kw)
            total, breakdown = metrics.total_reward(
                sample, params, vals[col["contact_schedule"]], targets,
                stance_side=stance_side)
            out_row = [_fmt(vals[col["time"]])]
            out_row += [_fmt(breakdown[k]) for k in
                        ("base_height", "base_orientation", "velocity_tracking",
                         "contact_schedule")]
            out_row += [_fmt(breakdown[k]) for k in reg_keys]
            out_row.append(_fmt(total))
            w.writerow(out_row)
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
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "score":
            return _cmd_score(args)
        if args.command == "terrain":
            return _cmd_terrain_gen(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        # argparse -h/--help exits 0; treat other argparse exits as usage errors
        return 0 if not e.code else 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
