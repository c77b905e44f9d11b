"""Numerically hot kernels shared by the public modules.

Kernels are plain numpy/Python on floats, ndarrays and lists (sim_loop
also takes the run's Heightmap), and each formula is written once here:
ICP propagation (icp_step), the foot placement with its offsets and
heading rule (plan_placement), and the grid-cell lookup with its bilinear
sum (_cell for one point, grid_resample for a separable grid of them). The
dataclass-based public API in lip_core / planner / terrain / sim validates
its arguments and calls these kernels.

numpy builds per-run tables; per query, the snap search reads them in
plain Python. On its first miss a run builds snap_tables: a flag per grid
cell whose every point is steppable, and each node row's steppable
columns. A flagged cell answers a query at once, other queries run the
exact steppable() scan, and a miss searches the rows outward from the
query with bisect.
"""

import math
from array import array
from bisect import bisect_left

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
    """atan2(vy, vx), or fallback_heading below ZERO_SPEED."""
    if math.hypot(vx, vy) < ZERO_SPEED:
        return fallback_heading
    return math.atan2(vy, vx)


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


def _cell_index(rows, cols, gx, gy):
    """Cell (i, j) of the grid coordinates (gx, gy): their floors, clamped
    so points on the far edges fall in the last cell."""
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
    return i, j


def _cell(heights, ox, oy, res, x, y):
    """Grid cell (i, j) enclosing (x, y) (see _cell_index) and the bilinear
    height there."""
    rows, cols = heights.shape
    gx = (x - ox) / res
    gy = (y - oy) / res
    i, j = _cell_index(rows, cols, gx, gy)
    fx = gx - j
    fy = gy - i
    return i, j, (heights[i, j] * (1.0 - fy) * (1.0 - fx)
                  + heights[i, j + 1] * (1.0 - fy) * fx
                  + heights[i + 1, j] * fy * (1.0 - fx)
                  + heights[i + 1, j + 1] * fy * fx)


def grid_resample(grid, gy, gx):
    """_cell on separable grid coordinates: gy holds one per output row, gx
    one per output column. Returns (i, j, values): the clamped floors
    (see _cell_index) and the (len(gy), len(gx)) bilinear values. Each
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


def grid_bilinear(heights, ox, oy, res, x, y):
    """Bilinear height at (x, y). Caller guarantees the point is in bounds."""
    return _cell(heights, ox, oy, res, x, y)[2]


def grid_contains(rows, cols, ox, oy, res, x, y):
    return (x >= ox and x <= ox + (cols - 1) * res
            and y >= oy and y <= oy + (rows - 1) * res)


def steppable(heights, mask, ox, oy, res, x, y, radius, max_dev):
    """True when (x, y) offers foot-sized flat support.

    The four enclosing nodes must be supporting (mask marks gap cells, the
    stand-in for non-supporting ground), and every node within `radius`
    must be supporting with height within `max_dev` of the surface height
    at the query point. Samples falling outside the grid are ignored.
    """
    rows, cols = heights.shape
    if not grid_contains(rows, cols, ox, oy, res, x, y):
        return False
    i0, j0, h0 = _cell(heights, ox, oy, res, x, y)
    if (mask[i0, j0] != 0 or mask[i0, j0 + 1] != 0
            or mask[i0 + 1, j0] != 0 or mask[i0 + 1, j0 + 1] != 0):
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
        for j in range(jlo, jhi + 1):
            nx = ox + j * res
            dx = nx - x
            if dx * dx + dy * dy > r2:
                continue
            if mask[i, j] != 0:
                return False
            if abs(heights[i, j] - h0) >= max_dev:
                return False
    return True


def node_steppable_grid(heights, mask, ox, oy, res, radius, max_dev):
    """steppable() evaluated at every grid node, as a (rows, cols) bool grid.

    Cell (i, j) equals steppable(..., ox + j*res, oy + i*res, ...) bit for
    bit: the enclosing cell and the bilinear surface height h0
    (grid_resample), the 2x2 mask test, the per-node ceil/floor disc bounds
    and the dx*dx + dy*dy > r2 test repeat the scalar kernel's
    floating-point operations on node arrays. steppable()'s bounds test
    holds at every node: ox + j*res is monotone in j under rounding, so
    for 0 <= j <= cols-1 it lies between ox and ox + (cols-1)*res.
    The disc scan becomes one pass per stencil offset (di, dj) inside the
    bounding box of the disc bounds, each over shifted slices of the grid.
    """
    rows, cols = heights.shape
    xs = ox + np.arange(cols) * res
    ys = oy + np.arange(rows) * res
    i0, j0, h0 = grid_resample(heights, (ys - oy) / res, (xs - ox) / res)
    ok = _box_reduce(mask, 0, np.maximum)[i0][:, j0] == 0

    jlo = np.maximum(np.ceil((xs - radius - ox) / res).astype(np.int64), 0)
    jhi = np.minimum(np.floor((xs + radius - ox) / res).astype(np.int64), cols - 1)
    ilo = np.maximum(np.ceil((ys - radius - oy) / res).astype(np.int64), 0)
    ihi = np.minimum(np.floor((ys + radius - oy) / res).astype(np.int64), rows - 1)
    node_j = np.arange(cols)
    node_i = np.arange(rows)
    r2 = radius * radius
    for di in range((ilo - node_i).min(), (ihi - node_i).max() + 1):
        # query rows q whose row q + di exists and lies within q's bounds
        q0 = max(0, -di)
        q1 = rows - max(0, di)
        if q1 <= q0:
            continue
        t = node_i[q0:q1] + di
        row_in = (ilo[q0:q1] <= t) & (t <= ihi[q0:q1])
        dy = ys[q0 + di:q1 + di] - ys[q0:q1]
        dy2 = (dy * dy)[:, None]
        for dj in range((jlo - node_j).min(), (jhi - node_j).max() + 1):
            p0 = max(0, -dj)
            p1 = cols - max(0, dj)
            if p1 <= p0:
                continue
            u = node_j[p0:p1] + dj
            col_in = (jlo[p0:p1] <= u) & (u <= jhi[p0:p1])
            dx = xs[p0 + dj:p1 + dj] - xs[p0:p1]
            in_disc = ~((dx * dx)[None, :] + dy2 > r2)
            in_disc &= row_in[:, None] & col_in[None, :]
            if not in_disc.any():
                continue
            bad = ((mask[q0 + di:q1 + di, p0 + dj:p1 + dj] != 0)
                   | (np.abs(heights[q0 + di:q1 + di, p0 + dj:p1 + dj]
                             - h0[q0:q1, p0:p1]) >= max_dev))
            ok[q0:q1, p0:p1] &= ~(in_disc & bad)
    return ok


def _box_reduce(a, R, op):
    """op (np.maximum or np.minimum) of `a` over the node box
    [i-R, i+1+R] x [j-R, j+1+R] of each cell (i, j), clipped to the grid,
    as a (rows-1, cols-1) array. Edge padding repeats values that every
    clipped box already holds, so it does not change a result.
    """
    a = np.pad(a, R, mode="edge")
    w = 2 * R + 2
    for _ in range(2):  # along rows, then along columns of the transpose
        n = a.shape[0] - w + 1
        out = a[:n].copy()
        for s in range(1, w):
            op(out, a[s:s + n], out=out)
        a = out.T
    return a


def snap_tables(heights, mask, ox, oy, res, radius, max_dev):
    """The two tables snap_to_steppable answers from, for this map, radius
    and max_dev: (flags, row_cols).

    flags holds one byte per grid cell, row-major over (rows-1, cols-1);
    it is nonzero only when every point of the cell is steppable. That
    holds when no node of the box [i-R, i+1+R] x [j-R, j+1+R], R =
    int(radius/res) + 1, is masked and every box height lies within
    max_dev - margin of both the lowest and the highest corner of the cell.
    The box holds every node steppable() scans for a point of the cell,
    also where the disc bounds round up by one node; the bilinear height
    of such a point lies between the corner heights up to rounding, which
    the margin (1e-9 per metre of the largest |height|, at least 1e-9)
    covers.

    row_cols[i] is an array('q') of the ascending columns j whose node
    (i, j) is steppable, read from node_steppable_grid.
    """
    # the node grid first: its build holds the most memory, so it runs
    # before the box arrays exist
    row_cols = [array("q", np.flatnonzero(r).astype(np.int64).tobytes())
                for r in node_steppable_grid(heights, mask, ox, oy, res,
                                             radius, max_dev)]
    R = int(radius / res) + 1
    box_masked = _box_reduce(mask, R, np.maximum)
    box_hi = _box_reduce(heights, R, np.maximum)
    box_lo = _box_reduce(heights, R, np.minimum)
    # box_hi = max(box_hi - lowest corner, highest corner - box_lo), in place
    box_hi -= _box_reduce(heights, 0, np.minimum)
    np.subtract(_box_reduce(heights, 0, np.maximum), box_lo, out=box_lo)
    np.maximum(box_hi, box_lo, out=box_hi)
    margin = 1e-9 * max(1.0, float(np.abs(heights).max()))
    flags = ((box_hi < max_dev - margin) & (box_masked == 0)).tobytes()
    return flags, row_cols


def _nearest_steppable_node(row_cols, ox, oy, res, x, y, budget2):
    """Closest steppable node to (x, y) with d2 <= budget2, from snap_tables'
    row_cols: (found, nx, ny).

    d2 = dy*dy + dx*dx with dx = ox + j*res - x and dy = oy + i*res - y.
    Rows are scanned outward from the query's nearest row, first upward,
    then downward; a side stops at the first row beyond y whose dy*dy
    exceeds the best d2 so far plus the tie margin, since rows further out
    lie further still. dx grows with j, so a row's d2 falls to its minimum
    at one of the two columns around x, found by bisecting on
    gx = (x - ox)/res, then rises. (Where gx and dx round to opposite
    sides of a column, that column lies within rounding of x and is itself
    the minimum, unless res is as small as that rounding.) Nodes within
    1e-12 of the minimum d2 (and within the budget) tie; a tie goes to the
    smaller x, then the smaller y, i.e. the smaller column, then the
    smaller row.
    """
    rows = len(row_cols)
    gx = (x - ox) / res
    c = int(round(min(max((y - oy) / res, 0.0), rows - 1.0)))
    best = math.inf
    limit = budget2
    seen = []  # (i, dy2, k) of each scanned row with steppable nodes
    for i, step in ((c, 1), (c - 1, -1)):
        while 0 <= i < rows:
            dy = oy + i * res - y
            dy2 = dy * dy
            if dy2 <= limit:
                row = row_cols[i]
                n = len(row)
                k = bisect_left(row, gx)
                if k:
                    dx = ox + row[k - 1] * res - x
                    d2 = dy2 + dx * dx
                    if d2 < best:
                        best = d2
                if k < n:
                    dx = ox + row[k] * res - x
                    d2 = dy2 + dx * dx
                    if d2 < best:
                        best = d2
                if n:
                    seen.append((i, dy2, k))
                    limit = best + 1e-12 if best + 1e-12 < budget2 else budget2
            elif (dy > 0.0) == (step > 0):
                break
            i += step
    if not best <= budget2:
        return False, 0.0, 0.0
    win = None
    for i, dy2, k in seen:
        # the row's leftmost node with d2 <= limit: walk left from column
        # k - 1 while d2 stays within it, else try column k
        row = row_cols[i]
        m = k
        while m:
            dx = ox + row[m - 1] * res - x
            if dy2 + dx * dx > limit:
                break
            m -= 1
        if m < k:
            j = row[m]
        else:
            if k == len(row):
                continue
            dx = ox + row[k] * res - x
            if dy2 + dx * dx > limit:
                continue
            j = row[k]
        if win is None or (j, i) < win:
            win = (j, i)
    j, i = win
    return True, ox + j * res, oy + i * res


def snap_to_steppable(heights, mask, ox, oy, res, x, y, radius, max_dev,
                      max_search, tables):
    """Closest steppable point to (x, y) within max_search.

    Returns (found, sx, sy). The query point itself wins when steppable.
    Otherwise the answer is the steppable grid node with the smallest
    Euclidean distance (d2 <= max_search**2 + 1e-12); distances within
    1e-12 of the minimum tie, and a tie goes to the smaller x, then the
    smaller y.

    tables is a caller-owned list for this map, radius and max_dev. The
    first query that is not itself steppable fills it with snap_tables'
    (flags, row_cols), so a run whose targets never move never builds
    them. Once filled, an in-grid query whose cell (_cell's floor and
    clamp) is flagged answers itself; any other query runs the exact
    steppable() scan, and a miss searches row_cols. No numpy runs per query.
    """
    rows, cols = heights.shape
    if tables and grid_contains(rows, cols, ox, oy, res, x, y):
        i, j = _cell_index(rows, cols, (x - ox) / res, (y - oy) / res)
        if tables[0][i * (cols - 1) + j]:
            return True, x, y
    if steppable(heights, mask, ox, oy, res, x, y, radius, max_dev):
        return True, x, y
    if not tables:
        tables.extend(snap_tables(heights, mask, ox, oy, res, radius, max_dev))
    return _nearest_steppable_node(tables[1], ox, oy, res, x, y,
                                   max_search * max_search + 1e-12)


def sim_loop(n_ticks, dt, ticks_per_step, g, base_height, schedule,
             replan_every_tick, reach_limit, hmap,
             com_x, com_y, vel_x, vel_y, st_x, st_y):
    """Closed-loop stepping simulation.

    Per tick: handle the step boundary (instantaneous support transfer to
    the current swing target, stance-height dependent pendulum frequency),
    plan or replan the swing target with plan_placement over the remaining
    step time Ts - s*dt (offsets always over Ts), snap it to steppable
    ground (the snap tables are built at most once per call), record a sample
    at the tick instant, then propagate the CoM analytically over dt. When
    no steppable ground is found the sample keeps the raw, unsnapped target.
    hmap is the run's Heightmap, or None on flat ground: nothing is snapped
    and every height is 0. schedule lists (tick, vx, vy, width) switches;
    the first holds from tick 0, each later one from its tick on. Pass the
    state com_x .. st_y as Python floats, not numpy scalars.

    Each recorded tick is one float tuple of columns COL_TIME .. COL_PARITY,
    appended to a list that becomes the returned (n_recorded,
    COL_PARITY + 1) array after the loop; the gait-phase columns
    (COL_CONTACT_SCHED, COL_PHASE_SIN, COL_PHASE_COS) depend only on the
    tick and the parity and are left to the caller. cosh and sinh of
    omega*dt are computed once per stance, when omega changes; if they
    overflow, the run fails as non-finite with no rows at the start, or
    after the touchdown's row.
    The rows are the whole record of the run (the touchdown at row
    i = m * ticks_per_step, m >= 1, moves the stance onto row i - 1's
    target); the loop stops after recording a failed tick's row.
    Returns (n_recorded, outcome, fail_time, rows).
    """
    Ts = ticks_per_step * dt
    st_z = 0.0
    if hmap is not None:
        heights, mask, res = hmap.heights, hmap.mask, hmap.resolution
        ox, oy = float(hmap.origin[0]), float(hmap.origin[1])
        tables = []
        st_z = grid_bilinear(heights, ox, oy, res, st_x, st_y)
    z0 = base_height - st_z
    if z0 <= 0.0:
        return 0, OUTCOME_BAD_HEIGHT, 0.0, np.empty((0, COL_PARITY + 1))
    omega = math.sqrt(g / z0)
    try:
        ch = math.cosh(omega * dt)
        sh = math.sinh(omega * dt)
    except OverflowError:
        return 0, OUTCOME_NON_FINITE, 0.0, np.empty((0, COL_PARITY + 1))

    parity = 0
    heading = 0.0
    tg_x = tg_y = tg_z = 0.0
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
        touchdown = i > 0 and s == 0

        if touchdown:
            # Support transfers to the swing target.
            st_x = tg_x
            st_y = tg_y
            st_z = tg_z
            parity += 1
            z0 = base_height - st_z
            if z0 <= 0.0:
                outcome = OUTCOME_BAD_HEIGHT
                fail_time = t_now
            else:
                omega = math.sqrt(g / z0)
                try:
                    ch = math.cosh(omega * dt)
                    sh = math.sinh(omega * dt)
                except OverflowError:
                    outcome = OUTCOME_NON_FINITE
                    fail_time = t_now
        icp_x = com_x + vel_x / omega
        icp_y = com_y + vel_y / omega

        if outcome == OUTCOME_COMPLETED and (s == 0 or replan_every_tick):
            if touchdown and (math.hypot(icp_x - st_x, icp_y - st_y) > reach_limit
                              or math.hypot(st_x - com_x, st_y - com_y) > reach_limit):
                outcome = OUTCOME_REACH
                fail_time = t_now
            else:
                tg_x, tg_y, heading = plan_placement(
                    icp_x, icp_y, st_x, st_y, omega, Ts - s * dt, Ts, Ts,
                    vx, vy, w, parity, heading)
                if hmap is not None:
                    ok, sx, sy = snap_to_steppable(heights, mask, ox, oy, res,
                                                   tg_x, tg_y, FOOT_RADIUS,
                                                   MAX_HEIGHT_DEV, SNAP_SEARCH_RADIUS,
                                                   tables)
                    if ok:
                        tg_x = sx
                        tg_y = sy
                        tg_z = grid_bilinear(heights, ox, oy, res, sx, sy)
                    else:
                        tg_z = 0.0
                        outcome = OUTCOME_NO_GROUND
                        fail_time = t_now

        # columns COL_TIME .. COL_PARITY, in order
        rows.append((t_now, com_x, com_y, vel_x, vel_y, icp_x, icp_y,
                     st_x, st_y, st_z, tg_x, tg_y, tg_z, heading, float(parity)))
        if outcome != OUTCOME_COMPLETED:
            break

        com_x, com_y, vel_x, vel_y = lip_step(
            com_x, com_y, vel_x, vel_y, st_x, st_y, omega, ch, sh)
        if not (math.isfinite(com_x) and math.isfinite(com_y)
                and math.isfinite(vel_x) and math.isfinite(vel_y)):
            outcome = OUTCOME_NON_FINITE
            fail_time = (i + 1) * dt
            break

    rows = np.array(rows, dtype=np.float64).reshape(-1, COL_PARITY + 1)
    return rows.shape[0], outcome, fail_time, rows
