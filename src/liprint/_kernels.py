"""Numerically hot kernels shared by the public modules.

Kernels are plain numpy/Python on floats, ndarrays and lists, and each
formula is written once here: ICP propagation (icp_step), the foot
placement with its offsets and heading rule (plan_placement), the
grid-cell lookup with its bilinear sum (_cell for one point, grid_resample
for a separable grid of them), and the steppability test (steppable). The
dataclass-based public API in lip_core / planner / terrain / sim validates
its arguments and calls these kernels.

The grid kernels read a map through one Grid view: its shape, origin and
spacing as Python numbers, and node heights and mask flags read as
h[i][j] and m[i][j] from Rows that fill each row (or node) on first read.
terrain builds the views: a Heightmap's rows as Python lists, and a
TerrainSpec's from its layout, rough heights node by node, with no map.

The snap search tests grid nodes with steppable() itself, each at most
once per run: a caller-owned memo of one byte per node keeps the answers.
So a node's steppability is the exact scalar test by construction, and
the search runs in plain Python.
"""

import math
from typing import NamedTuple

import numpy as np


# Foot radius, height tolerance and snap search radius (m) of sim_loop's
# snaps; terrain's query defaults.
FOOT_RADIUS = 0.07
MAX_HEIGHT_DEV = 0.03
SNAP_SEARCH_RADIUS = 1.0

# Run outcome codes shared with sim.
OUTCOME_COMPLETED = 0
OUTCOME_REACH = 1
OUTCOME_NO_GROUND = 2
OUTCOME_NON_FINITE = 3
OUTCOME_BAD_HEIGHT = 4

# Column layout of the per-tick sample array produced by sim_loop.
COL_TIME = 0
COL_COM_X = 1
COL_COM_Y = 2
COL_VEL_X = 3
COL_VEL_Y = 4
COL_ICP_X = 5
COL_ICP_Y = 6
COL_STANCE_X = 7
COL_STANCE_Y = 8
COL_STANCE_Z = 9
COL_TARGET_X = 10
COL_TARGET_Y = 11
COL_TARGET_Z = 12
COL_TARGET_HEADING = 13
COL_PARITY = 14
COL_CONTACT_SCHED = 15
COL_PHASE_SIN = 16
COL_PHASE_COS = 17
N_SAMPLE_COLS = 18


def lip_step(cx, cy, vx, vy, px, py, omega, ch, sh):
    """Exact CoM propagation about a fixed stance foot over a duration t.

    ch and sh are cosh(omega*t) and sinh(omega*t); the caller computes them,
    so a loop with a fixed t pays for them only when omega changes.
    """
    rx = cx - px
    ry = cy - py
    nx = px + rx * ch + vx * sh / omega
    ny = py + ry * ch + vy * sh / omega
    nvx = rx * omega * sh + vx * ch
    nvy = ry * omega * sh + vy * ch
    return nx, ny, nvx, nvy


def icp_step(xx, xy, px, py, omega, t):
    """Exact capture-point propagation about a fixed stance foot."""
    e = math.exp(omega * t)
    return e * xx + (1.0 - e) * px, e * xy + (1.0 - e) * py


def offset_pair(s_d, w_d, omega, duration):
    """Stance offsets that realise step length s_d and width w_d.

    Uses expm1 so the small-duration limit (b_x -> s_d/(omega*duration),
    b_y -> w_d/2) is evaluated at full precision. duration == 0 is only
    meaningful for s_d == 0; the caller guards the rest.
    """
    em = math.expm1(omega * duration)
    if em == 0.0:
        bx = 0.0
    else:
        bx = s_d / em
    by = w_d / (em + 2.0)
    return bx, by


def step_width(w, span, Ts):
    """Desired step width |w| * (span / Ts); exactly |w| when span == Ts."""
    return abs(w) * (span / Ts)


# Commanded speeds below this hold the fallback heading (stepping in place
# must not spin).
ZERO_SPEED = 1e-6


def command_heading(vx, vy, fallback_heading):
    """atan2(vy, vx), or fallback_heading below ZERO_SPEED; in (-pi, pi], as
    StepCommand wraps the fallback and vy + 0.0 makes a backward heading pi."""
    if math.hypot(vx, vy) < ZERO_SPEED:
        return fallback_heading
    return math.atan2(vy + 0.0, vx)


def plan_placement(icp_x, icp_y, st_x, st_y, omega, dt_pred, span, Ts,
                   vx, vy, w, parity, fallback_heading):
    """Desired foot placement p_d = xi_f + R(heading) (-b_x, +/-b_y).

    xi_f is the capture point predicted over the remaining step time
    dt_pred. Step length |v| * span and step_width(w, span, Ts) give the
    offsets over `span`; b_y is positive for even parity. The heading is
    command_heading(vx, vy, fallback_heading). Returns (x, y, heading).
    """
    fx, fy = icp_step(icp_x, icp_y, st_x, st_y, omega, dt_pred)
    heading = command_heading(vx, vy, fallback_heading)
    bx, by = offset_pair(math.hypot(vx, vy) * span, step_width(w, span, Ts), omega, span)
    if parity % 2 != 0:
        by = -by
    c = math.cos(heading)
    s = math.sin(heading)
    return fx - c * bx - s * by, fy - s * bx + c * by, heading


class Rows(dict):
    """Rows of a grid read as rows[i]: row i is fill(i), made on first read
    and kept. A row may itself be Rows of nodes, so that rows[i][j] makes
    only the nodes that are read."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, i):
        row = self[i] = self.fill(i)
        return row


class Grid(NamedTuple):
    """A map as the grid kernels read it: rows x cols nodes, node (i, j) at
    (ox + j*res, oy + i*res) with height h[i][j] and mask flag m[i][j]
    (nonzero in a gap). h and m are Rows or lists of rows."""

    rows: int
    cols: int
    ox: float
    oy: float
    res: float
    h: Rows
    m: "Rows | list"


def _cell(h, rows, cols, gx, gy):
    """Cell (i, j) enclosing grid coordinates (gx, gy) of a rows x cols
    grid of node values h[i][j], and the bilinear value there. The cell is
    the floor of the coordinates, clamped so points on the far edges fall
    in the last cell."""
    j = int(math.floor(gx))
    i = int(math.floor(gy))
    if j > cols - 2:
        j = cols - 2
    if j < 0:
        j = 0
    if i > rows - 2:
        i = rows - 2
    if i < 0:
        i = 0
    fx = gx - j
    fy = gy - i
    lo = h[i]
    hi = h[i + 1]
    return i, j, (lo[j] * (1.0 - fy) * (1.0 - fx)
                  + lo[j + 1] * (1.0 - fy) * fx
                  + hi[j] * fy * (1.0 - fx)
                  + hi[j + 1] * fy * fx)


def grid_resample(grid, gy, gx):
    """_cell on separable grid coordinates: gy holds one per output row, gx
    one per output column. Returns (i, j, values): the clamped floors
    (see _cell) and the (len(gy), len(gx)) bilinear values. Each
    value is _cell's four terms in _cell's order, the row weight applied
    to whole grid rows before the column gather, so it equals _cell bit
    for bit.
    """
    i = np.clip(np.floor(gy).astype(np.int64), 0, grid.shape[0] - 2)
    j = np.clip(np.floor(gx).astype(np.int64), 0, grid.shape[1] - 2)
    fy = (gy - i)[:, None]
    fx = gx - j
    lo = grid[i] * (1.0 - fy)
    hi = grid[i + 1] * fy
    return i, j, (lo[:, j] * (1.0 - fx) + lo[:, j + 1] * fx
                  + hi[:, j] * (1.0 - fx) + hi[:, j + 1] * fx)


def grid_bilinear(grid, x, y):
    """Bilinear height at (x, y). Caller guarantees the point is in bounds."""
    rows, cols, ox, oy, res, h, _ = grid
    return _cell(h, rows, cols, (x - ox) / res, (y - oy) / res)[2]


def grid_contains(grid, x, y):
    rows, cols, ox, oy, res, _, _ = grid
    return (x >= ox and x <= ox + (cols - 1) * res
            and y >= oy and y <= oy + (rows - 1) * res)


def steppable(grid, x, y, radius, max_dev):
    """True when (x, y) offers foot-sized flat support.

    The four enclosing nodes must be supporting (mask marks gap cells, the
    stand-in for non-supporting ground), and every node within `radius`
    must be supporting with height within `max_dev` of the surface height
    at the query point. Samples falling outside the grid are ignored.
    """
    if not grid_contains(grid, x, y):
        return False
    rows, cols, ox, oy, res, h, m = grid
    i0, j0, h0 = _cell(h, rows, cols, (x - ox) / res, (y - oy) / res)
    lo = m[i0]
    hi = m[i0 + 1]
    if lo[j0] != 0 or lo[j0 + 1] != 0 or hi[j0] != 0 or hi[j0 + 1] != 0:
        return False
    jlo = int(math.ceil((x - radius - ox) / res))
    jhi = int(math.floor((x + radius - ox) / res))
    ilo = int(math.ceil((y - radius - oy) / res))
    ihi = int(math.floor((y + radius - oy) / res))
    if jlo < 0:
        jlo = 0
    if ilo < 0:
        ilo = 0
    if jhi > cols - 1:
        jhi = cols - 1
    if ihi > rows - 1:
        ihi = rows - 1
    r2 = radius * radius
    for i in range(ilo, ihi + 1):
        ny = oy + i * res
        dy = ny - y
        h_row = h[i]
        m_row = m[i]
        for j in range(jlo, jhi + 1):
            nx = ox + j * res
            dx = nx - x
            if dx * dx + dy * dy > r2:
                continue
            if m_row[j] != 0:
                return False
            if abs(h_row[j] - h0) >= max_dev:
                return False
    return True


def _nearest_steppable_node(grid, x, y, radius, max_dev, budget2, memo):
    """Closest steppable node to (x, y) with d2 <= budget2: (found, nx, ny).

    Node (i, j) is steppable when steppable(grid, ox + j*res, oy + i*res,
    radius, max_dev) holds. memo, a bytearray of one byte per node in
    row-major order, keeps each answer (0 untested, 1 not steppable,
    2 steppable), so a node is tested at most once per memo.

    d2 = dy*dy + dx*dx with dx = ox + j*res - x and dy = oy + i*res - y.
    Rows are scanned outward from the query's nearest row, first upward,
    then downward; a side stops at the first row beyond y whose dy*dy
    exceeds the best d2 so far plus the tie margin, since rows further out
    lie further still. dx grows with j, so a row's d2 falls toward x and
    rises beyond it: the row is scanned outward from gx = (x - ox)/res on
    each side, left over the columns j < gx and right over j >= gx, up to
    the first steppable node or the first column past that bound. (Where
    gx and dx round to opposite sides of a column, that column lies within
    rounding of x and is itself the minimum, unless res is as small as
    that rounding.) Nodes within 1e-12 of the minimum d2 (and within the
    budget) tie; a tie goes to the smaller x, then the smaller y, i.e. the
    smaller column, then the smaller row.
    """
    rows, cols, ox, oy, res, _, _ = grid

    def first(i, j, step, dy2, limit):
        # (d2, j) of row i's first steppable node from column j on in
        # direction step, or None once d2 exceeds limit or the row ends
        while 0 <= j < cols:
            nx = ox + j * res
            dx = nx - x
            d2 = dy2 + dx * dx
            if not d2 <= limit:
                return None
            k = i * cols + j
            if not memo[k]:
                memo[k] = 1 + steppable(grid, nx, oy + i * res, radius, max_dev)
            if memo[k] == 2:
                return d2, j
            j += step
        return None

    # the first column j >= gx, clamped to [0, cols]; max(0.0, gx) maps a NaN to 0
    jr = math.ceil(min(max(0.0, (x - ox) / res), cols))
    c = int(round(min(max((y - oy) / res, 0.0), rows - 1.0)))
    best = math.inf
    limit = budget2
    seen = []  # (i, dy2, left, right) of each scanned row with a node found
    for i, step in ((c, 1), (c - 1, -1)):
        while 0 <= i < rows:
            dy = oy + i * res - y
            dy2 = dy * dy
            if dy2 <= limit:
                left = first(i, jr - 1, -1, dy2, limit)
                right = first(i, jr, 1, dy2, limit)
                if left or right:
                    for node in (left, right):
                        if node and node[0] < best:
                            best = node[0]
                    limit = best + 1e-12 if best + 1e-12 < budget2 else budget2
                    seen.append((i, dy2, left, right))
            elif (dy > 0.0) == (step > 0):
                break
            i += step
    if not best <= budget2:
        return False, 0.0, 0.0
    win = None
    for i, dy2, left, right in seen:
        # the row's leftmost node with d2 <= limit: walk left from its
        # nearest node left of x while d2 stays within it, else take its
        # nearest node right of x
        if left and left[0] <= limit:
            j = left[1]
            while node := first(i, j - 1, -1, dy2, limit):
                j = node[1]
        elif right and right[0] <= limit:
            j = right[1]
        else:
            continue
        if win is None or (j, i) < win:
            win = (j, i)
    j, i = win
    return True, ox + j * res, oy + i * res


def snap_to_steppable(grid, radius, max_dev, max_search, memo, x, y):
    """Closest steppable point to the query (x, y) within max_search.

    Returns (found, sx, sy). The query point itself wins when steppable.
    Otherwise the answer is the steppable grid node with the smallest
    Euclidean distance (d2 <= max_search**2 + 1e-12); distances within
    1e-12 of the minimum tie, and a tie goes to the smaller x, then the
    smaller y.

    memo is a caller-owned bytearray(rows * cols) for this grid, radius
    and max_dev, all zero when new. The search tests nodes with steppable()
    through it (see _nearest_steppable_node), so queries that share a memo
    test each node at most once. The per-search arguments come first and
    the query last, at positions 5 and 6, where perfbench's tracer reads it.
    """
    if steppable(grid, x, y, radius, max_dev):
        return True, x, y
    return _nearest_steppable_node(grid, x, y, radius, max_dev,
                                   max_search * max_search + 1e-12, memo)


def sim_loop(n_ticks, dt, ticks_per_step, g, base_height, schedule,
             replan_every_tick, reach_limit, grid,
             com_x, com_y, vel_x, vel_y, st_x, st_y, heading, *, vel_x_only=False):
    """Closed-loop stepping simulation over n_ticks >= 1 ticks (SimConfig
    guarantees it).

    Per tick: at a step start, tick i = m * ticks_per_step (m >= 0, tick 0
    included), the support transfers to the swing target, parity becomes m
    and the stance height re-derives the pendulum frequency; the swing
    target starts as the initial stance at its height. Then the loop plans
    or replans the target with plan_placement over the remaining step time
    Ts - s*dt (offsets always over Ts), snaps it to steppable ground
    (through one node memo per call, so each grid node is tested at most
    once), records a sample at the tick instant and propagates the CoM
    analytically over dt. When no steppable ground is found the sample
    keeps the raw, unsnapped target.
    grid is the run's Grid view of its terrain, or None on flat ground:
    nothing is snapped and every height is 0. schedule lists (tick, vx, vy, width) switches;
    the first holds from tick 0, each later one from its tick on. heading
    is the fallback heading until the first plan. Pass the state com_x ..
    heading as Python floats, not numpy scalars.

    Each recorded tick is one float tuple of columns COL_TIME .. COL_PARITY
    (parity i // ticks_per_step), stacked into the returned (n_recorded,
    COL_PARITY + 1) array; the gait-phase columns depend only on the tick
    and are left to the caller. The touchdown at row i = m * ticks_per_step,
    m >= 1, moves the stance onto row i - 1's target. A step start whose
    pendulum height is not positive, or whose cosh(omega*dt) overflows,
    fails the run (with no rows at tick 0), and so do a touchdown beyond
    reach_limit of the capture point or the CoM and a plan whose
    exp(omega * (Ts - s*dt)) overflows, which keeps the previous target.
    Each failure only sets the outcome: one exit after the failed tick's
    row stops the loop, with that row's time as the failure time. Only a
    non-finite CoM state after the pendulum step fails at the next tick's
    time, (i + 1) * dt. A touchdown row that fails for a non-positive
    pendulum height keeps the previous step's omega, so its icp_x, icp_y
    are com + vel / that omega.
    Returns (n_recorded, outcome, fail_time, rows). With vel_x_only, each
    recorded tick keeps only its vel_x and rows is the 1-D array of them,
    equal to the full rows' COL_VEL_X column; n_recorded stays first.
    """
    Ts = ticks_per_step * dt
    tg_x, tg_y, tg_z = st_x, st_y, 0.0
    if grid is not None:
        memo = bytearray(grid.rows * grid.cols)
        tg_z = grid_bilinear(grid, st_x, st_y)

    cmd_i = 0
    n_cmd = len(schedule)
    _, vx, vy, w = schedule[0]
    outcome = OUTCOME_COMPLETED
    fail_time = 0.0
    rows = []

    for i in range(n_ticks):
        t_now = i * dt
        s = i % ticks_per_step
        while cmd_i + 1 < n_cmd and i >= schedule[cmd_i + 1][0]:
            cmd_i += 1
            _, vx, vy, w = schedule[cmd_i]

        if s == 0:
            # Support transfers to the swing target.
            st_x = tg_x
            st_y = tg_y
            st_z = tg_z
            parity = i // ticks_per_step
            z0 = base_height - st_z
            if z0 <= 0.0:
                outcome = OUTCOME_BAD_HEIGHT
            else:
                omega = math.sqrt(g / z0)
                try:
                    ch = math.cosh(omega * dt)
                    sh = math.sinh(omega * dt)
                except OverflowError:
                    outcome = OUTCOME_NON_FINITE
            if outcome != OUTCOME_COMPLETED and i == 0:
                break
        icp_x = com_x + vel_x / omega
        icp_y = com_y + vel_y / omega

        if outcome == OUTCOME_COMPLETED and (s == 0 or replan_every_tick):
            if i > 0 and s == 0 and (math.hypot(icp_x - st_x, icp_y - st_y) > reach_limit
                                     or math.hypot(st_x - com_x, st_y - com_y) > reach_limit):
                outcome = OUTCOME_REACH
            else:
                try:
                    tg_x, tg_y, heading = plan_placement(
                        icp_x, icp_y, st_x, st_y, omega, Ts - s * dt, Ts, Ts,
                        vx, vy, w, parity, heading)
                except OverflowError:
                    outcome = OUTCOME_NON_FINITE
                else:
                    if grid is not None:
                        ok, sx, sy = snap_to_steppable(grid, FOOT_RADIUS, MAX_HEIGHT_DEV,
                                                       SNAP_SEARCH_RADIUS, memo, tg_x, tg_y)
                        if ok:
                            tg_x = sx
                            tg_y = sy
                            tg_z = grid_bilinear(grid, sx, sy)
                        else:
                            tg_z = 0.0
                            outcome = OUTCOME_NO_GROUND

        if vel_x_only:
            rows.append(vel_x)
        else:
            # columns COL_TIME .. COL_PARITY, in order
            rows.append((t_now, com_x, com_y, vel_x, vel_y, icp_x, icp_y,
                         st_x, st_y, st_z, tg_x, tg_y, tg_z, heading, float(parity)))
        if outcome != OUTCOME_COMPLETED:
            fail_time = t_now
            break

        com_x, com_y, vel_x, vel_y = lip_step(
            com_x, com_y, vel_x, vel_y, st_x, st_y, omega, ch, sh)
        if not (math.isfinite(com_x) and math.isfinite(com_y)
                and math.isfinite(vel_x) and math.isfinite(vel_y)):
            outcome = OUTCOME_NON_FINITE
            fail_time = (i + 1) * dt
            break

    rows = np.array(rows, dtype=np.float64)
    if not vel_x_only:
        rows = rows.reshape(-1, COL_PARITY + 1)
    return len(rows), outcome, fail_time, rows
