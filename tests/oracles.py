"""Independent numerical oracles used by the tests.

These deliberately avoid the library's closed-form propagation: the CoM
oracle integrates the second-order pendulum ODE with fixed-step RK4, and
the offset oracle solves the step-geometry equations by bisection on the
exponential capture-point prediction.
"""

import math

import numpy as np


def rk4_lip(pos0, vel0, foot, omega, duration, dt):
    """Integrate xddot = omega^2 (x - p) per axis with classic RK4.

    pos0, vel0, foot: arrays of shape (n, 2); omega: (n,) or scalar.
    Returns (pos, vel) after `duration` (an integer number of dt steps).
    """
    x = np.array(pos0, dtype=np.float64)
    v = np.array(vel0, dtype=np.float64)
    p = np.asarray(foot, dtype=np.float64)
    w2 = (np.asarray(omega, dtype=np.float64) ** 2).reshape(-1, 1)
    n_steps = round(duration / dt)
    h = dt
    for _ in range(n_steps):
        k1x = v
        k1v = w2 * (x - p)
        k2x = v + 0.5 * h * k1v
        k2v = w2 * (x + 0.5 * h * k1x - p)
        k3x = v + 0.5 * h * k2v
        k3v = w2 * (x + 0.5 * h * k2x - p)
        k4x = v + h * k3v
        k4v = w2 * (x + h * k3x - p)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x, v


def lip_step_over(cx, cy, vx, vy, px, py, omega, t):
    """The closed-form CoM step with cosh/sinh of omega*t taken inline, as
    the kernel computed it before they became arguments."""
    ch = math.cosh(omega * t)
    sh = math.sinh(omega * t)
    rx = cx - px
    ry = cy - py
    nx = px + rx * ch + vx * sh / omega
    ny = py + ry * ch + vy * sh / omega
    nvx = rx * omega * sh + vx * ch
    nvy = ry * omega * sh + vy * ch
    return nx, ny, nvx, nvy


def _bisect(f, lo, hi, iters=80):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_offsets(s_d, w_d, omega, dT, bracket=10.0):
    """Solve the step geometry for (b_x, b_y) by bisection.

    b_x: offset of the initial capture point from the stance foot such that
    propagating it exponentially over dT advances the capture point by s_d.
    b_y: lateral offset such that the lateral advance plus twice the initial
    offset equals w_d.
    """
    def advance(b):
        xi0 = b  # stance foot at the origin
        xif = math.exp(omega * dT) * xi0
        return xif - xi0

    bx = _bisect(lambda b: advance(b) - s_d, -bracket, bracket)
    by = _bisect(lambda b: advance(b) + 2.0 * b - w_d, -bracket, bracket)
    return bx, by


def exhaustive_nearest_steppable(hmap, p, is_steppable_fn):
    """Scan every grid node for the closest steppable one (tie: x, then y).

    Returns None when no node is steppable. p itself wins when steppable.
    """
    if is_steppable_fn(hmap, p):
        return np.asarray(p, dtype=float)
    best = None
    best_key = None
    for i in range(hmap.rows):
        for j in range(hmap.cols):
            node = np.array([hmap.origin[0] + j * hmap.resolution,
                             hmap.origin[1] + i * hmap.resolution])
            if not is_steppable_fn(hmap, node):
                continue
            d = math.hypot(node[0] - p[0], node[1] - p[1])
            key = (round(d, 9), round(node[0], 9), round(node[1], 9))
            if best_key is None or key < best_key:
                best_key = key
                best = node
    return best


def node_grid_per_steppable(h, radius, max_dev):
    """liprint._kernels.steppable evaluated at every node (i, j) of the
    heightmap h, at (ox + j*res, oy + i*res): a (rows, cols) bool grid."""
    from liprint import _kernels

    grid = h.grid
    ox, oy, res = grid.ox, grid.oy, grid.res
    return np.array([[_kernels.steppable(grid, ox + j * res, oy + i * res, radius, max_dev)
                      for j in range(h.cols)] for i in range(h.rows)], dtype=bool)


def _two_window_nearest_node(node_grid, ox, oy, res, x, y, ci, cj, k, budget2):
    """Closest steppable node to (x, y) with d2 <= budget2 among the nodes
    at Chebyshev distance <= k from node (ci, cj): (found, nx, ny, d2).

    Nodes within 1e-12 of the minimum d2 (and within the budget) tie; a tie
    goes to the first tied node in column-major order, i.e. the smaller x,
    then the smaller y.
    """
    rows, cols = node_grid.shape
    i_lo = max(ci - k, 0)
    i_hi = min(ci + k, rows - 1)
    j_lo = max(cj - k, 0)
    j_hi = min(cj + k, cols - 1)
    if i_lo > i_hi or j_lo > j_hi:
        return False, 0.0, 0.0, 0.0
    dx = ox + np.arange(j_lo, j_hi + 1) * res - x
    dy = oy + np.arange(i_lo, i_hi + 1) * res - y
    d2 = (dy * dy)[:, None] + dx * dx
    d2[~node_grid[i_lo:i_hi + 1, j_lo:j_hi + 1]] = np.inf
    best = d2.min()
    if not best <= budget2:
        return False, 0.0, 0.0, 0.0
    first = np.argmax(d2.T <= min(best + 1e-12, budget2))
    i = i_lo + first % d2.shape[0]
    j = j_lo + first // d2.shape[0]
    return True, ox + j * res, oy + i * res, float(d2[i - i_lo, j - j_lo])


def two_window_snap(h, x, y, radius, max_dev, max_search, node_grid):
    """liprint._kernels.snap_to_steppable on the heightmap h as numpy
    windows over `node_grid`, the node_grid_per_steppable of the same map,
    radius and max_dev: the reference for the row search.

    The search looks first in the window of Chebyshev radius 4 around the
    query's nearest node (ci, cj). Any node outside it lies more than
    4.5*res from the query, so the window's best node is the overall best
    when 4*res exceeds its distance. Otherwise it searches the full window
    of int(max_search/res) + 2 rings, which holds every node within
    max_search.
    """
    from liprint import _kernels

    if _kernels.steppable(h.grid, x, y, radius, max_dev):
        return True, x, y
    ox, oy, res = h.grid.ox, h.grid.oy, h.grid.res
    ci = int(round((y - oy) / res))
    cj = int(round((x - ox) / res))
    budget2 = max_search * max_search + 1e-12
    max_ring = int(max_search / res) + 2
    k = min(4, max_ring)
    found, bx, by, best_d2 = _two_window_nearest_node(node_grid, ox, oy, res, x, y,
                                                      ci, cj, k, budget2)
    if k < max_ring and not (found and k * res > math.sqrt(best_d2)):
        found, bx, by, best_d2 = _two_window_nearest_node(node_grid, ox, oy, res, x, y,
                                                          ci, cj, max_ring, budget2)
    return found, bx, by


def rough_heights_per_formula(spec, extent, resolution):
    """liprint.terrain.generate's rough heights with the bilinear sum written
    out on 2-D index arrays, each corner gathered before its two weights
    are applied: the reference for generate reading the lattice through
    _kernels.grid_resample."""
    x0, y0, x1, y1 = (float(v) for v in extent)
    cols = max(2, int(math.ceil((x1 - x0) / resolution)) + 1)
    rows = max(2, int(math.ceil((y1 - y0) / resolution)) + 1)
    rng = np.random.default_rng(spec.seed)
    corr = spec.correlation
    lat_x0 = math.floor(x0 / corr) - 1
    lat_y0 = math.floor(y0 / corr) - 1
    lat_cols = int(math.ceil(x1 / corr)) - lat_x0 + 2
    lat_rows = int(math.ceil(y1 / corr)) - lat_y0 + 2
    lattice = rng.uniform(-spec.amplitude, spec.amplitude, (lat_rows, lat_cols))
    gx = (x0 + resolution * np.arange(cols)) / corr - lat_x0
    gy = (y0 + resolution * np.arange(rows)) / corr - lat_y0
    jx = np.clip(np.floor(gx).astype(np.int64), 0, lat_cols - 2)
    iy = np.clip(np.floor(gy).astype(np.int64), 0, lat_rows - 2)
    fx = (gx - jx)[None, :]
    fy = (gy - iy)[:, None]
    iy = iy[:, None]
    jx = jx[None, :]
    return (lattice[iy, jx] * (1 - fy) * (1 - fx)
            + lattice[iy, jx + 1] * (1 - fy) * fx
            + lattice[iy + 1, jx] * fy * (1 - fx)
            + lattice[iy + 1, jx + 1] * fy * fx)


def sweep_per_trial(configs, trials, base_seed=0, window=5.0, tolerance=0.1):
    """liprint.sim.sweep as one simulation per trial, whatever the terrain:
    the reference for sweep running a trial-invariant config once."""
    from dataclasses import replace

    from liprint import sim

    rows = []
    for config in configs:
        successes = 0
        for trial in range(trials):
            cfg = config
            if isinstance(config.terrain, sim.TerrainSpec) and config.terrain.kind == "rough":
                spec = config.terrain.with_seed(sim._trial_seed(base_seed, trial))
                cfg = replace(config, terrain=spec)
            result = sim.run(cfg)
            if sim.success_metric(result, float(cfg.cmd.v_cmd[0]), window, tolerance):
                successes += 1
        rows.append(sim.SweepRow(vx_cmd=float(config.cmd.v_cmd[0]),
                                 trials=trials, successes=successes))
    return rows


def reference_run(config, schedule):
    """The stepping loop of liprint.sim, one tick per iteration through the
    typed API: the reference for _kernels.sim_loop.

    schedule lists (time, vx, vy, width) command switches; the first holds
    from tick 0 and a switch at time t acts from tick round(t / dt), kept
    within [0, n_ticks], once every earlier switch has acted. Returns
    (rows, outcome, fail_time) with rows the (n, 15) array of the
    trajectory's columns time .. parity.

    Each tick i = m*k + s (k ticks per step):
    - at a step start (s == 0) the stance moves onto the target, whose
      height sets the pendulum height z0 = base height - stance height.
      z0 <= 0 fails the run ("bad height") and keeps the previous step's
      pendulum, so that row's capture point uses the old omega. An
      overflowing cosh(omega * dt) fails it as "non-finite". Either at
      tick 0 ends the run with no row;
    - the target is planned at every step start, or every tick under
      every-tick replanning: plan_step over the step's remaining time with
      horizon Ts. A touchdown (step start after tick 0) first checks
      reach: the capture point or the CoM farther than the reach limit
      from the stance fails it and keeps the target. An overflowing plan
      fails as "non-finite" and keeps the target;
    - on a map the planned point is snapped by nearest_steppable and
      takes the map height there; with no ground in range the run fails
      ("no ground") and the target is the raw plan at height 0;
    - the row is recorded at time i * dt; a failed tick ends the run with
      its own time as the failure time;
    - else the CoM moves over dt by com_trajectory; a non-finite state
      fails the run at time (i + 1) * dt.
    """
    from liprint import _kernels, sim, terrain
    from liprint.gait import GaitParams, GaitState
    from liprint.lip_core import FootPosition, LipParams, LipState, com_trajectory, icp_of
    from liprint.planner import StepCommand, plan_step

    dt = config.dt
    k = config.ticks_per_step
    n = config.n_ticks
    Ts = k * dt
    gait = GaitParams(step_duration=Ts)
    every_tick = config.replan == sim.REPLAN_EVERY_TICK
    hmap = config.terrain
    if isinstance(hmap, terrain.TerrainSpec):
        hmap = (None if hmap.kind == "flat" else
                terrain.generate(hmap, sim._auto_extent(config, schedule),
                                 sim.TERRAIN_RESOLUTION))
    switch_ticks = [min(max(round(t / dt), 0), n) for t, _, _, _ in schedule]

    state, stance = sim.default_initial(config)
    target = FootPosition(p=stance.p, z=terrain.height_at(hmap, stance.p) if hmap else 0.0)
    heading = config.cmd.fallback_heading
    rows = []
    outcome, fail_time = _kernels.OUTCOME_COMPLETED, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            m, s = divmod(i, k)
            c = 0
            while c + 1 < len(schedule) and switch_ticks[c + 1] <= i:
                c += 1
            _, vx, vy, w = schedule[c]

            if s == 0:
                stance = target
                z0 = config.lip.z0 - stance.z
                if z0 <= 0.0:
                    outcome = _kernels.OUTCOME_BAD_HEIGHT
                else:
                    state = LipState(com_pos=state.com_pos, com_vel=state.com_vel,
                                     params=LipParams(g=config.lip.g, z0=z0))
                    try:
                        math.cosh(state.params.omega0 * dt)
                    except OverflowError:
                        outcome = _kernels.OUTCOME_NON_FINITE
                if outcome != _kernels.OUTCOME_COMPLETED and i == 0:
                    break
            icp = icp_of(state).xi

            if outcome == _kernels.OUTCOME_COMPLETED and (s == 0 or every_tick):
                reach = max(math.hypot(*(icp - stance.p)),
                            math.hypot(*(stance.p - state.com_pos)))
                if i > 0 and s == 0 and reach > config.reach_limit:
                    outcome = _kernels.OUTCOME_REACH
                else:
                    cmd = StepCommand(v_cmd=(vx, vy), w_cmd=w, fallback_heading=heading)
                    try:
                        step = plan_step(state, stance, cmd,
                                         GaitState(t=s * dt, parity=m, params=gait),
                                         horizon=Ts)
                    except OverflowError:
                        outcome = _kernels.OUTCOME_NON_FINITE
                    else:
                        heading = step.heading
                        target = FootPosition(p=step.p_d, z=target.z)
                        if hmap is not None:
                            try:
                                p = terrain.nearest_steppable(hmap, step.p_d)
                            except ValueError:
                                outcome = _kernels.OUTCOME_NO_GROUND
                                target = FootPosition(p=step.p_d, z=0.0)
                            else:
                                target = FootPosition(p=p, z=terrain.height_at(hmap, p))

            rows.append((i * dt, *state.com_pos, *state.com_vel, *icp, *stance.p, stance.z,
                         *target.p, target.z, heading, float(m)))
            if outcome != _kernels.OUTCOME_COMPLETED:
                fail_time = i * dt
                break
            try:
                state = com_trajectory(state, stance, dt)
            except ValueError:
                outcome = _kernels.OUTCOME_NON_FINITE
                fail_time = (i + 1) * dt
                break
    return np.array(rows, dtype=np.float64).reshape(-1, 15), outcome, fail_time


# ---------------------------------------------------------------- rewards
#
# The per-row reward evaluation, one sample at a time, as the reference for
# the array core in liprint.metrics. Samples are liprint.metrics.RobotSample
# (a plain container); every formula below is evaluated here independently.

RIGHT, LEFT = 0, 1


def _r_base_height(s, params):
    err = params.base_height_target - s.base_height
    return math.exp(-err * err / params.sigma)


def _r_base_orientation(s, params):
    d = math.fmod(params.heading_target - s.base_heading, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    elif d < -math.pi:
        d += 2.0 * math.pi
    return 2.0 * math.exp(-abs(d) / params.sigma)


def _r_velocity_tracking(s, params):
    v_cmd = params.vel_cmd
    err = (v_cmd - s.base_vel_world) / (1.0 + float(np.linalg.norm(v_cmd)))
    return 4.0 * math.exp(-float(err @ err) / params.sigma)


def _r_contact_schedule(s, params, c, targets, stance_side):
    targets = np.asarray(targets, dtype=np.float64).reshape(2, 2)
    indicator = float(bool(s.foot_contact[RIGHT])) - float(bool(s.foot_contact[LEFT]))
    err = float(np.linalg.norm(targets[stance_side] - s.foot_pos[stance_side]))
    return 9.0 * indicator * c * math.exp(-err / params.sigma)


def _terminated(s):
    v = math.sqrt(float(s.base_vel_world @ s.base_vel_world) + s.base_vel_z ** 2)
    if s.self_collision:
        return True
    if v >= 10.0:
        return True
    if float(np.linalg.norm(s.base_ang_vel)) >= 5.0:
        return True
    if abs(s.gravity_proj[0]) >= 0.7 or abs(s.gravity_proj[1]) >= 0.7:
        return True
    if s.base_height < 0.3:
        return True
    return False


def regularization_row(s, params):
    """The eleven weighted regularization terms of one sample, keyed by name."""
    sig = params.sigma
    dt = params.action_dt
    tau_max = np.broadcast_to(np.asarray(params.tau_max, dtype=np.float64), s.tau.shape)
    q_max = np.broadcast_to(np.asarray(params.q_max, dtype=np.float64), s.q.shape)
    a, a1, a2 = s.action, s.action_prev, s.action_prev2
    return {
        "joint_torques": params.w_torque * -float(s.tau @ s.tau),
        "torque_limits": params.w_torque_limits
            * -float(np.maximum(np.abs(s.tau) - 0.9 * tau_max, 0.0).sum()),
        "joint_velocity": params.w_joint_vel * -float(s.dq @ s.dq),
        "joint_limits": params.w_joint_limits
            * -float(np.clip(np.abs(s.q) - 0.9 * q_max, 0.0, 1.0).sum()),
        "action_smoothness_1": params.w_smooth1
            * -float(np.sum(((a - a1) / dt) ** 2)) if a.size else 0.0,
        "action_smoothness_2": params.w_smooth2
            * -float(np.sum(((a - 2.0 * a1 + a2) / dt) ** 2)) if a.size else 0.0,
        "hip_regularization": params.w_hip
            * math.exp(-float(s.q_hip_xz @ s.q_hip_xz) / sig),
        "base_rollpitch_velocity": params.w_rollpitch
            * -(s.base_ang_vel[0] ** 2 + s.base_ang_vel[1] ** 2),
        "base_z_velocity": params.w_zvel * -(s.base_vel_z ** 2),
        "base_tilting": params.w_tilt
            * math.exp(-(s.gravity_proj[0] ** 2 + s.gravity_proj[1] ** 2) / sig),
        "termination": params.w_termination * (-1.0 if _terminated(s) else 0.0),
    }


def total_reward_row(s, params, c, targets, stance_side):
    """(total, breakdown) of one sample; the total sums the terms in order."""
    breakdown = {
        "base_height": _r_base_height(s, params),
        "base_orientation": _r_base_orientation(s, params),
        "velocity_tracking": _r_velocity_tracking(s, params),
        "contact_schedule": _r_contact_schedule(s, params, c, targets, stance_side),
    }
    breakdown.update(regularization_row(s, params))
    total = 0.0
    for v in breakdown.values():
        total += v
    return total, breakdown


_JOINT_PREFIXES = ("q", "dq", "tau", "a")
_JOINT_BASE_COLS = ("omega_x", "omega_y", "omega_z", "g_x", "g_y", "g_z",
                    "v_z", "base_height", "self_collision")


def score_lines(traj_rows, joint_rows, params, base_height, sample_cls):
    """`liprint score` output lines, scoring one trajectory row at a time.

    traj_rows: the trajectory CSV data rows in the simulate schema (no
    header); joint_rows: None or the joint-log rows with their header
    first; sample_cls: the RobotSample container to fill.
    """
    columns = ("time", "com_x", "com_y", "vel_x", "vel_y", "icp_x", "icp_y",
               "stance_x", "stance_y", "stance_z", "target_x", "target_y", "target_z",
               "target_heading", "parity", "contact_schedule")
    col = {name: i for i, name in enumerate(columns)}
    lines = []
    prev_action = prev_action2 = None
    for i, row in enumerate(traj_rows):
        vals = [float(row[col[c]]) for c in columns]
        stance_side = RIGHT if int(vals[col["parity"]]) % 2 == 0 else LEFT
        stance_xy = (vals[col["stance_x"]], vals[col["stance_y"]])
        target_xy = (vals[col["target_x"]], vals[col["target_y"]])
        foot_pos = [stance_xy, stance_xy]
        foot_pos[1 - stance_side] = target_xy
        contact = [False, False]
        contact[stance_side] = True
        kw = dict(base_height=base_height, base_heading=vals[col["target_heading"]],
                  base_vel_world=(vals[col["vel_x"]], vals[col["vel_y"]]),
                  foot_pos=foot_pos, foot_contact=tuple(contact))
        if joint_rows is not None:
            vec = {p: [] for p in _JOINT_PREFIXES}
            base = {}
            for name, value in zip(joint_rows[0], joint_rows[i + 1]):
                if name in _JOINT_BASE_COLS:
                    base[name] = float(value)
                    continue
                for p in _JOINT_PREFIXES:
                    if name.startswith(p) and name[len(p):].isdigit():
                        vec[p].append((int(name[len(p):]), float(value)))
                        break
            vec = {p: [v for _, v in sorted(vals)] for p, vals in vec.items()}
            action = vec["a"]
            if i == 0:
                prev_action = prev_action2 = action
            kw.update(q=vec["q"], dq=vec["dq"], tau=vec["tau"], action=action,
                      action_prev=prev_action, action_prev2=prev_action2)
            prev_action2, prev_action = prev_action, action
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
        total, breakdown = total_reward_row(sample_cls(**kw), params,
                                            vals[col["contact_schedule"]], foot_pos,
                                            stance_side)
        out = [vals[col["time"]], *breakdown.values(), total]
        lines.append(",".join(format(float(v) + 0.0, ".17g") for v in out))
    return lines


# ---------------------------------------------------------------- writers
#
# The per-value CSV and JSON writers that liprint.sim.write_csv's one format
# pass replaced: one format() call per value and one write per line, as the
# byte-for-byte reference for the trajectory, step-event and rewards files.

def _format_value(x):
    return format(float(x) + 0.0, ".17g")


def write_trajectory_csv_per_value(result, path):
    """liprint.sim.write_trajectory_csv, one formatted value at a time."""
    from liprint import _kernels, sim

    flag = 0 if result.completed else 2
    with open(path, "w", newline="") as f:
        f.write(",".join(sim.CSV_COLUMNS) + "\n")
        for row in result.sample_array:
            vals = [_format_value(row[c]) for c in range(_kernels.COL_PARITY)]
            vals.append(str(int(row[_kernels.COL_PARITY])))
            vals.extend(_format_value(row[c]) for c in
                        (_kernels.COL_CONTACT_SCHED, _kernels.COL_PHASE_SIN,
                         _kernels.COL_PHASE_COS))
            vals.append(str(flag))
            f.write(",".join(vals) + "\n")


def write_step_events_per_event(result, path):
    """liprint.sim.write_step_events, one dict per touchdown row index
    i = k, 2k, ... < len(sample_array), its planned step from row i - 1."""
    import json

    from liprint import _kernels as K

    arr = result.sample_array
    k = result.config.ticks_per_step
    events = [
        {
            "time": float(arr[i, K.COL_TIME]),
            "planned": {
                "x": float(arr[i - 1, K.COL_TARGET_X]),
                "y": float(arr[i - 1, K.COL_TARGET_Y]),
                "z": float(arr[i - 1, K.COL_TARGET_Z]),
                "heading": float(arr[i - 1, K.COL_TARGET_HEADING]),
                "parity": int(arr[i - 1, K.COL_PARITY]),
            },
            "realized": {
                "x": float(arr[i, K.COL_STANCE_X]),
                "y": float(arr[i, K.COL_STANCE_Y]),
                "z": float(arr[i, K.COL_STANCE_Z]),
            },
        }
        for i in range(k, arr.shape[0], k)
    ]
    with open(path, "w") as f:
        json.dump({"step_events": events}, f, indent=2, sort_keys=True)
        f.write("\n")


def write_rewards_csv_per_value(path, header, columns):
    """The `liprint score` rewards CSV from its (n,) columns, one line per
    row and one formatted value at a time."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for vals in zip(*(np.asarray(c).tolist() for c in columns)):
            f.write(",".join(map(_format_value, vals)) + "\n")
