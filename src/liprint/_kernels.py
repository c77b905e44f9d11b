"""Numerically hot kernels shared by the public modules.

Kernels are plain numpy/Python on floats, ndarrays and lists, and each
formula is written once here: the CoM state about a fixed stance after
each duration of a block, in closed form per axis (lip_position and
lip_velocity; lip_step for both axes) from libm's cosh/sinh pairs
(hyperbolics), ICP propagation (icp_step), the foot placement as the two
calls that planner.plan_step and sim_loop both make (its per-step part,
the heading rule and the rotated offsets, in placement_offsets, then its
per-tick part, the predicted capture point less those offsets, in
placement_at), the grid-cell lookup with its bilinear sum (_bilinear, on
scalars for one point in _cell and a resampled grid's node in CellRow, on
arrays for terrain.generate's map; cell_table, _cell's cells and weights
of one axis as arrays), and the steppability test (steppable). The
dataclass-based public API in lip_core / planner / terrain / sim
validates its arguments and calls these kernels.

The grid kernels read a map through one Grid view: its shape, origin and
spacing as Python numbers, and node heights and mask flags read as
h[i][j] and m[i][j] from lists of rows, or from Rows that fill each row
on first read. terrain builds the views: a Heightmap's rows as Python
lists, and a TerrainSpec's from its layout, with no map: a rough height
row is a CellRow, which fills each node on its first read from the
layout's cell tables.

The snap search tests grid nodes with steppable() itself, each at most
once per run: a caller-owned memo of one byte per node keeps the answers.
So a node's steppability is the exact scalar test by construction, and
the search runs in plain Python, as one walk over the rows that meets the
answer's ties too (_nearest_steppable_node). Two certificates let a run
that replans every tick skip work whose answer cannot change, as its
target moves by about 1e-15 m within a step. A scan of the query records
a margin with its answer: the distance within which none of the scan's
decisions can flip. Each search returns the d2 of its answer and a lower
bound on the d2 of every other steppable node, the smallest of the d2
where a row side stops, the dy*dy of each row pruned or stopped at, and
the d2 of each steppable node met outside the tie band. A later query
reuses the answer, or a later miss the node, without a scan or a search
only when the certificate, widened by the query's move and a bound on
the rounding, proves that they would return it again (snap_to_steppable).
Such a run scans its query and searches about once per step instead of
once per tick.
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
OUTCOME_OFF_MAP = 5

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


def lip_position(c, v, p, omega, hyp):
    """CoM position along one axis about a fixed stance foot at p, after
    each duration t of a block, from position c and velocity v at t = 0:
    p + r*cosh(omega*t) + v*sinh(omega*t)/omega with r = c - p.

    hyp lists (cosh(omega*t), sinh(omega*t)) per duration, as hyperbolics
    gives them; the result has an entry per duration. An entry is the same
    float expression whatever the block's length, so a block of one
    duration (as lip_core.com_trajectory passes) gives it bit for bit.
    """
    r = c - p
    return [p + r * ch + v * sh / omega for ch, sh in hyp]


def lip_velocity(c, v, p, omega, hyp):
    """The CoM velocity of lip_position's block, entry for entry:
    r*omega*sinh(omega*t) + v*cosh(omega*t) with r = c - p."""
    rw = (c - p) * omega
    return [rw * sh + v * ch for ch, sh in hyp]


def lip_step(cx, cy, vx, vy, px, py, omega, hyp):
    """Exact CoM states about a fixed stance foot at (px, py) after each
    duration of a block, from the state (cx, cy, vx, vy) at t = 0: the
    columns (x, y, vx, vy), one list each, of lip_position and
    lip_velocity on each axis."""
    return (lip_position(cx, vx, px, omega, hyp), lip_position(cy, vy, py, omega, hyp),
            lip_velocity(cx, vx, px, omega, hyp), lip_velocity(cy, vy, py, omega, hyp))


def hyperbolics(omega, spans):
    """(cosh(omega*t), sinh(omega*t)) for each t of the non-negative,
    non-decreasing spans, from libm (math.cosh and math.sinh), up to the
    first that overflows: there math raises OverflowError where the value
    would be inf, as would every later one."""
    cosh, sinh = math.cosh, math.sinh
    hyp = []
    try:
        for t in spans:
            x = omega * t
            hyp.append((cosh(x), sinh(x)))
    except OverflowError:
        pass
    return hyp


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


# Commanded speeds below this hold the fallback heading (stepping in place
# must not spin).
ZERO_SPEED = 1e-6


def command_heading(vx, vy, fallback_heading):
    """atan2(vy, vx), or fallback_heading below ZERO_SPEED; in (-pi, pi], as
    StepCommand wraps the fallback and vy + 0.0 makes a backward heading pi."""
    if math.hypot(vx, vy) < ZERO_SPEED:
        return fallback_heading
    return math.atan2(vy + 0.0, vx)


def placement_offsets(omega, Ts, vx, vy, w, parity, fallback_heading):
    """The per-step part of the foot placement p_d = xi_f + R(heading)
    (-b_x, +/-b_y): the offsets (b_x, +/-b_y) rotated by the heading, as the
    four products (c*b_x, s*b_y, s*b_x, c*b_y), and the heading: (cbx, sby,
    sbx, cby, heading).

    The offsets are offset_pair of the step length |v| * Ts and the width
    |w| over the step duration Ts, so that the next step advances the
    capture point by |v| * Ts; b_y is positive for even parity. The heading
    is command_heading(vx, vy, fallback_heading). placement_at completes the
    placement; planner.plan_step and sim_loop make both calls, in this
    order, so they agree bit for bit.
    """
    heading = command_heading(vx, vy, fallback_heading)
    bx, by = offset_pair(math.hypot(vx, vy) * Ts, abs(w), omega, Ts)
    if parity % 2 != 0:
        by = -by
    c = math.cos(heading)
    s = math.sin(heading)
    return c * bx, s * by, s * bx, c * by, heading


def placement_at(icp_x, icp_y, st_x, st_y, omega, dt_pred, offsets):
    """The per-tick part of the foot placement: xi_f, the capture point
    predicted over the remaining step time dt_pred, less the rotated offsets
    of placement_offsets. Returns (x, y); the heading is offsets[4]."""
    cbx, sby, sbx, cby, _ = offsets
    fx, fy = icp_step(icp_x, icp_y, st_x, st_y, omega, dt_pred)
    return fx - cbx - sby, fy - sbx + cby


class Rows(dict):
    """Rows of a grid read as rows[i]: row i is fill(i), made on first read
    and kept. A row may itself fill its nodes on first read (CellRow), so
    that rows[i][j] makes only the nodes that are read."""

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
    h: "Rows | list"
    m: "Rows | list"


def _bilinear(lo, hi, j, ey, fy, ex, fx):
    """The bilinear sum over columns j, j + 1 of node rows lo (weight ey)
    and hi (weight fy), with column weights ex and fx: on scalars, or on
    broadcasting arrays with the same products and sums, bit for bit."""
    return lo[j] * ey * ex + lo[j + 1] * ey * fx + hi[j] * fy * ex + hi[j + 1] * fy * fx


def _cell(h, rows, cols, gx, gy):
    """Cell (i, j) enclosing grid coordinates (gx, gy) of a rows x cols
    grid of node values h[i][j], and the bilinear value there. The cell is
    the floor of the coordinates, clamped so points on the far edges fall
    in the last cell; the weights are 1 - f and f on each axis, with f the
    coordinate less the cell's."""
    j = math.floor(gx)
    i = math.floor(gy)
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
    return i, j, _bilinear(h[i], h[i + 1], j, 1.0 - fy, fy, 1.0 - fx, fx)


def cell_table(g, n):
    """The vector form of _cell's inline clamp: for each coordinate of the
    array g on an axis of n nodes, the clamped floor k and the weights
    1 - f and f, f = g - k, as three arrays."""
    k = np.clip(np.floor(g).astype(np.int64), 0, n - 2)
    f = g - k
    return k, 1.0 - f, f


class CellRow(dict):
    """Row i of a grid resampled from node rows h, read as row[j]: with
    (k, ey, fy) the row's cell_table entry and (kx, ex, fx) column j's,
    node j is _bilinear(h[k], h[k + 1], kx, ey, fy, ex, fx), made on first
    read and kept: _cell's value there, and terrain.generate's node."""

    __slots__ = ("lo", "hi", "ey", "fy", "cols")

    def __init__(self, h, cell, cols):
        k, self.ey, self.fy = cell
        self.lo = h[k]
        self.hi = h[k + 1]
        self.cols = cols

    def __missing__(self, j):
        kx, ex, fx = self.cols[j]
        v = self[j] = _bilinear(self.lo, self.hi, kx, self.ey, self.fy, ex, fx)
        return v


def grid_bilinear(grid, x, y):
    """Bilinear height at (x, y). Caller guarantees the point is in bounds."""
    rows, cols, ox, oy, res, h, _ = grid
    return _cell(h, rows, cols, (x - ox) / res, (y - oy) / res)[2]


def grid_contains(grid, x, y):
    rows, cols, ox, oy, res, _, _ = grid
    return (x >= ox and x <= ox + (cols - 1) * res
            and y >= oy and y <= oy + (rows - 1) * res)


def steppable(grid, x, y, radius, max_dev, cert=None, height=None):
    """True when (x, y) offers foot-sized flat support.

    The four enclosing nodes must be supporting (mask marks gap cells, the
    stand-in for non-supporting ground), and every node within `radius`
    must be supporting with height within `max_dev` of the surface height
    at the query point. Samples falling outside the grid are ignored.

    cert, when given, is a caller-owned list whose first six entries
    become (x, y, answer, margin, i0, j0): every query within exact
    distance margin of (x, y) gets the same answer and lies in the same
    cell (i0, j0) of the map (see snap_to_steppable for how a caller
    measures that distance). The margin is the smallest distance at which
    one of the scan's decisions could flip, taken from the decisions the
    scan makes anyway:

    - the containment slack, min(x - ox, ox + (cols-1)*res - x, ...);
    - the distances (gx - j0)*res, (j0 + 1 - gx)*res of gx = (x - ox)/res
      from its cell lines, and the same for gy;
    - the distance res*|v - round(v)| of each box bound v ((x -+ radius -
      ox)/res and its y twins) from its integer step, so the box of nodes
      scanned stays the same;
    - |sqrt(d2) - radius| of each boxed node, so nodes inside the foot
      circle stay inside and the others outside;
    - the height slack s = |max_dev - |h - h0|| of each node tested (the
      excess, for a failing node), over G = (max(|h01 - h00|, |h11 - h10|)
      + max(|h10 - h00|, |h11 - h01|)) / res, a bound on the gradient of
      the bilinear surface of the query's cell (h_ij its corner heights):
      within the cell, h0 moves by at most G per metre;

    less the rounding (below). The terms are gathered as far as the scan
    goes: a query off the map gets margin 0, one whose cell holds a gap
    node only the first two, and a failing node ends the gathering.

    Rounding, with u = 2**-53 and S = |x| + |y| + |ox| + |oy| + radius +
    res. Each value the scan compares with a fixed float (an integer, r2,
    max_dev) lies near its exact value by an error relative to the
    magnitudes it is made of: gx*res within 2.01u*|x - ox| (two
    roundings); a box bound, in metres, within u*(|x| + radius) +
    2.01u*|x -+ radius - ox| <= 3.01u*S; the distance that d2 > r2
    compares, sqrt(d2) = dist * (1 +- 2.01u) as d2 = dist**2 * (1 +-
    4.01u), within 2.9u*radius for a boxed node. Over the two evaluations,
    at the query and at a query up to margin away, a decision's compared
    value moves by the exact move plus at most 6.1u*S, and computing its
    margin term costs up to 2u*radius more (the sqrt of d2, and sqrt(r2)
    against radius): 8.1u*S. The computed h0 lies within 7.1u*Hc +
    2.01u*G*(|x - ox| + |y - oy|) of the exact bilinear value (Hc = max
    |h_ij|; the weights sum to 1), and |h - h0| rounds by at most
    u*(max_dev + s); over the two evaluations a height slack must cover
    14.2u*Hc + 2.01u*max_dev of height and 4.03u*S of the move. So
    margin = min(terms, (s - eh)/G) - ep with eh = 2e-15*(Hc + max_dev)
    and ep = 2e-15*S, 18u each; s <= eh gives margin <= 0, and a flat cell
    (G = 0) has no height term. Moves and roundings relative to the margin
    itself (the margin terms as computed, G and the division, and the 2u*s
    and 2.01u*move parts above) stay under 20u of the margin, which
    snap_to_steppable's check covers.

    height, when given, is a caller-owned list whose first entry becomes
    h0, the bilinear height at (x, y) (grid_bilinear's value), when (x, y)
    lies on the map.
    """
    if not grid_contains(grid, x, y):
        if cert is not None:
            cert[:6] = (x, y, False, 0.0, 0, 0)
        return False
    rows, cols, ox, oy, res, h, m = grid
    gx = (x - ox) / res
    gy = (y - oy) / res
    i0, j0, h0 = _cell(h, rows, cols, gx, gy)
    if height is not None:
        height[0] = h0
    track = cert is not None
    if track:
        near = min(x - ox, ox + (cols - 1) * res - x, y - oy, oy + (rows - 1) * res - y,
                   (gx - j0) * res, (j0 + 1 - gx) * res, (gy - i0) * res, (i0 + 1 - gy) * res)
        slack = math.inf
    lo = m[i0]
    hi = m[i0 + 1]
    ok = lo[j0] == 0 and lo[j0 + 1] == 0 and hi[j0] == 0 and hi[j0 + 1] == 0
    if ok:
        vjlo = (x - radius - ox) / res
        vjhi = (x + radius - ox) / res
        vilo = (y - radius - oy) / res
        vihi = (y + radius - oy) / res
        if track:
            near = min(near, res * min(abs(vjlo - round(vjlo)), abs(vjhi - round(vjhi)),
                                       abs(vilo - round(vilo)), abs(vihi - round(vihi))))
        jlo = math.ceil(vjlo)
        jhi = math.floor(vjhi)
        ilo = math.ceil(vilo)
        ihi = math.floor(vihi)
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
            dy = oy + i * res - y
            dy2 = dy * dy
            h_row = h[i]
            m_row = m[i]
            for j in range(jlo, jhi + 1):
                dx = ox + j * res - x
                d2 = dx * dx + dy2
                if track:
                    near = min(near, abs(math.sqrt(d2) - radius))
                if d2 > r2:
                    continue
                if m_row[j] != 0:
                    ok = False
                    break
                dev = abs(h_row[j] - h0)
                if track:
                    slack = min(slack, abs(max_dev - dev))
                if dev >= max_dev:
                    ok = False
                    break
            if not ok:
                break
    if track:
        if slack < math.inf:
            lo = h[i0]
            hi = h[i0 + 1]
            a, b, c, d = lo[j0], lo[j0 + 1], hi[j0], hi[j0 + 1]
            g = (max(abs(b - a), abs(d - c)) + max(abs(c - a), abs(d - b))) / res
            s = slack - 2e-15 * (max(abs(a), abs(b), abs(c), abs(d)) + max_dev)
            if s <= 0.0:
                near = 0.0
            elif g > 0.0:
                near = min(near, s / g)
        cert[:6] = (x, y, ok, near - 2e-15 * (abs(x) + abs(y) + abs(ox) + abs(oy) + radius + res),
                    i0, j0)
    return ok


def _nearest_steppable_node(grid, x, y, radius, max_dev, budget2, memo):
    """Closest steppable node to (x, y) with d2 <= budget2, and its
    certificate: (found, nx, ny, best, floor).

    Node (i, j) is steppable when steppable(grid, ox + j*res, oy + i*res,
    radius, max_dev) holds. memo, a bytearray of one byte per node in
    row-major order, keeps each answer (0 untested, 1 not steppable,
    2 steppable), so a node is tested at most once per memo.

    d2 = dy*dy + dx*dx with dx = ox + j*res - x and dy = oy + i*res - y.
    One walk over the rows meets the answer and its ties. With best the
    smallest d2 of a steppable node met so far, limit = min(best + 1e-12,
    budget2). Rows go outward from the query's nearest row, first upward,
    then downward; a side stops at the first row beyond y whose dy*dy
    exceeds limit, since rows further out lie further still. dx grows with
    j, so a row's d2 falls toward x and rises beyond it: each row is walked
    outward from gx = (x - ox)/res on each side, left over the columns
    j < gx and right over j >= gx, while d2 <= limit, so a side goes on
    past a steppable node to the nodes tied with it. (Where gx and dx round
    to opposite sides of a column, that column lies within rounding of x
    and is itself the minimum, unless res is as small as that rounding.)
    The steppable nodes met within the final limit tie; a tie goes to the
    smaller x, then the smaller y, i.e. the smaller column, then the
    smaller row.

    The certificate is best, the d2 of the answer, and floor, a lower
    bound on the d2 of every steppable node outside the tie set: the
    smallest of the d2 at which a row side stops (the computed d2 never
    falls further out along a side), the dy*dy of each row the walk prunes
    or stops at, and the d2 of each steppable node met that ends outside
    the final tie band. A tie set of more than one node gives floor = best.
    A not-found search's certificate means nothing.
    """
    rows, cols, ox, oy, res, _, _ = grid
    # the first column j >= gx, clamped to [0, cols]; max(0.0, gx) maps a NaN to 0
    jr = math.ceil(min(max(0.0, (x - ox) / res), cols))
    c = round(min(max((y - oy) / res, 0.0), rows - 1.0))
    best = floor = math.inf
    limit = budget2
    met = []  # (d2, j, i) of each steppable node met
    for i, step in ((c, 1), (c - 1, -1)):
        while 0 <= i < rows:
            dy = oy + i * res - y
            dy2 = dy * dy
            if dy2 <= limit:
                # the left side, then the right side, each outward from gx
                for start, end, dj in ((jr - 1, -1, -1), (jr, cols, 1)):
                    for j in range(start, end, dj):
                        nx = ox + j * res
                        dx = nx - x
                        d2 = dy2 + dx * dx
                        if not d2 <= limit:
                            floor = min(floor, d2)
                            break
                        k = i * cols + j
                        if not memo[k]:
                            memo[k] = 1 + steppable(grid, nx, oy + i * res, radius, max_dev)
                        if memo[k] == 2:
                            met.append((d2, j, i))
                            if d2 < best:
                                best = d2
                                limit = best + 1e-12 if best + 1e-12 < budget2 else budget2
            else:
                floor = min(floor, dy2)
                if (dy > 0.0) == (step > 0):
                    break
            i += step
    ties = [(j, i, d2) for d2, j, i in met if d2 <= limit]
    if not ties:
        return False, 0.0, 0.0, best, floor
    floor = min([floor] + [d2 for d2, _, _ in met if d2 > limit])
    j, i, best = min(ties)
    return True, ox + j * res, oy + i * res, best, floor if len(ties) == 1 else best


def snap_to_steppable(grid, radius, max_dev, max_search, memo, x, y, last=None,
                      height=None):
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

    last, when given, is a caller-owned list kept with memo, empty at
    first, that carries two certificates from call to call:
    last[0:6] = (px, py, answer, margin, i0, j0) of the last scan of a
    query (see steppable's cert), and last[6:13] = (qx, qy, nx, ny, best,
    floor, nz) of the last search, nz its node's height, which a not-found
    search removes.

    The query's own answer is reused without a scan when, with
    d = hypot(x - px, y - py),

        d + 4e-15 * margin < margin.

    A move of d changes no decision of the scan within margin (steppable
    derives the margin, net of every rounding that depends on the
    coordinates' magnitude). What is left is relative: the computed d lies
    within (1 +- 3u) of the exact move (two roundings of the differences,
    one of hypot), the check's own multiply and add cost 2u, and the
    computed margin lies within 20u of the one derived; 4e-15 is 36u. A
    steppable answer returns (True, x, y); a non-steppable one goes on to
    the search certificate.

    A miss at distance d = hypot(x - qx, y - qy) from the last search's
    query returns its node (nx, ny) without a search when, with
    a = sqrt(best) + d, b = sqrt(floor) - d and tol = 4e-15 * floor,

        b > 0,  a*a + 1e-12 + 2*tol < b*b  and  a*a + tol <= budget2.

    A move of d changes every distance by at most d, so the answer now lies
    within a and every other steppable node beyond b: the search would
    return the same node, alone in its tie band and within the budget.
    tol bounds the rounding. With u = 2**-53, a computed d2 lies within a
    factor (1 +- u)**4 of the exact squared distance of its (float) node,
    at any coordinate magnitude: two rounded differences, two rounded
    squares, one rounded sum. d lies within (1 +- 3u) of the exact move,
    and sqrt, + and - in a and b and the squares a*a, b*b add a factor
    (1 +- u) each. Chained, the search on the new query computes at most
    a*a * (1 + 14u) for the answer and at least b*b - 20u * floor for every
    other steppable node, and the rule's own three roundings cost at most
    3u * floor. As a*a < b*b <= floor, the answer stays within budget2,
    and every other node beyond its d2 + 1e-12 (the search's tie limit,
    rounded), when 2*tol >= 38u * floor and tol >= 16u * floor; tol is
    36u * floor. (Underflow errors, below 1e-300, are far under tol, as
    floor > 1e-12 whenever the rule holds.) So reuse returns the search's
    answer for any query sequence on one grid and memo. floor = inf (a map
    scanned to its edges) never passes.

    height, when given, is a caller-owned list whose first entry becomes
    grid_bilinear's height at each point found, read once per answer: the
    query's h0 from steppable's scan, or on a reused answer the sum in the
    scan's cell (i0, j0), which the margin covers, computed as grid_bilinear
    computes it there, bit for bit; a node's one grid_bilinear call per
    search that finds it, kept as last's nz for a reused answer.
    """
    if last and math.hypot(x - last[0], y - last[1]) + 4e-15 * last[3] < last[3]:
        ok = last[2]
        if ok and height is not None:
            _, _, ox, oy, res, h, _ = grid
            i, j = last[4], last[5]
            fx = (x - ox) / res - j
            fy = (y - oy) / res - i
            height[0] = _bilinear(h[i], h[i + 1], j, 1.0 - fy, fy, 1.0 - fx, fx)
    else:
        ok = steppable(grid, x, y, radius, max_dev, last, height)
    if ok:
        return True, x, y
    budget2 = max_search * max_search + 1e-12
    if last is not None and len(last) > 6:
        qx, qy, nx, ny, best, floor, nz = last[6:]
        d = math.hypot(x - qx, y - qy)
        a = math.sqrt(best) + d
        b = math.sqrt(floor) - d
        tol = 4e-15 * floor
        if b > 0.0 and a * a + 1e-12 + 2.0 * tol < b * b and a * a + tol <= budget2:
            if height is not None:
                height[0] = nz
            return True, nx, ny
    found, nx, ny, best, floor = _nearest_steppable_node(grid, x, y, radius, max_dev,
                                                         budget2, memo)
    nz = grid_bilinear(grid, nx, ny) if found else 0.0
    if found and height is not None:
        height[0] = nz
    if last is not None:
        last[6:] = (x, y, nx, ny, best, floor, nz) if found else ()
    return found, nx, ny


def sim_loop(n_ticks, dt, ticks_per_step, g, base_height, schedule,
             replan_every_tick, reach_limit,
             com_x, com_y, vel_x, vel_y, st_x, st_y, heading, *, grid, vel_x_only=False):
    """Closed-loop stepping simulation over n_ticks >= 1 ticks (SimConfig
    guarantees it): one iteration per step, whose CoM states come as one
    block.

    Per step, at tick i0 = m * ticks_per_step (m >= 0, tick 0 included): the
    support transfers to the swing target (at tick 0, the initial stance at
    its height), parity becomes m and the stance height re-derives omega. A
    non-positive pendulum height or an overflowing cosh(omega*dt) fails the
    run; at tick 0 with no rows, later with the touchdown row, which keeps
    the previous step's omega on a bad height. A touchdown (m >= 1) whose
    capture point or CoM lies beyond reach_limit of the new stance fails
    too.

    The step's CoM states are closed form from its touchdown state, with no
    per-tick propagation: tick i0 + j holds the touchdown state itself at
    j = 0 and lip_step over j*dt for j = 1 .. n, n = min(ticks_per_step,
    n_ticks - i0); the state at j = n is the next touchdown's. The cosh/sinh
    pairs come from hyperbolics (math.cosh and math.sinh, as
    lip_core.com_trajectory takes them), computed again only when omega
    changes. A bound on every value of the block proves it finite in one
    test; only where the bound fails are the states scanned. A non-finite
    state at j, or a cosh/sinh of j*dt that overflows (math raises
    OverflowError where the value would be inf), fails the run at time
    (i0 + j) * dt after the row of tick i0 + j - 1, as a propagation from
    tick to tick would. With vel_x_only and planning once a step, only the
    vel_x column and the state at n are evaluated; the bound covers the
    rest.

    The step plans at its first tick, or at every tick when
    replan_every_tick: the schedule's (tick, vx, vy, width) switches up to
    that tick take effect (the first holds from tick 0), the target is
    planned over the remaining time Ts - j*dt (offsets over Ts), and
    snap_to_steppable moves it onto steppable ground (one node memo per
    run, and with replan_every_tick one `last` list; see
    snap_to_steppable). The plan makes planner.plan_step's two calls:
    placement_offsets at the step's first plan and at the first plan after
    a switch, the only places where its inputs change, and placement_at
    every plan. A found target takes the height snap_to_steppable returns
    with it (its height list). A plan whose exp overflows, or whose
    target is not finite, fails the run as a non-finite state at its tick
    and keeps the previous target and heading; no steppable ground keeps
    the raw target and fails the run, as OUTCOME_OFF_MAP where the raw
    target lies outside the grid, else as OUTCOME_NO_GROUND. Planning once
    a step, the step's rows share its target. grid, a keyword, is the run's
    Grid view of its terrain, or None on flat ground (nothing snapped,
    every height 0).
    heading is the fallback heading until the first plan. Pass com_x ..
    heading as Python floats, not numpy scalars.

    Each failure only sets the outcome; one exit after the failed tick's row
    stops the run at that row's time, except a non-finite state, which fails
    at its own tick's time as above. A row is one float tuple of the
    columns COL_TIME .. COL_PARITY (the gait-phase columns are the caller's),
    and the rows stack into an (n_recorded, COL_PARITY + 1) array. Returns
    (n_recorded, outcome, fail_time, rows). With vel_x_only each row is its
    vel_x alone, added as one block per step, and rows is the 1-D array of
    them; n_recorded stays first. Planning once a step, such rows need no
    per-tick iteration.
    """
    Ts = ticks_per_step * dt
    spans = (np.arange(1, ticks_per_step + 1) * dt).tolist()  # j * dt, j = 1 .. k, exactly
    hyp_omega = None
    tg_x, tg_y, tg_z = st_x, st_y, 0.0
    if grid is not None:
        memo = bytearray(grid.rows * grid.cols)
        last = [] if replan_every_tick else None
        kept = [0.0]  # the height of the snap's answer
        tg_z = grid_bilinear(grid, st_x, st_y)

    cmd_i = 0
    n_cmd = len(schedule)
    _, vx, vy, w = schedule[0]
    outcome = OUTCOME_COMPLETED
    fail_time = 0.0
    rows = []
    # planning once a step, vel_x-only rows need no per-tick iteration
    block_vel_x = vel_x_only and not replan_every_tick

    for i0 in range(0, n_ticks, ticks_per_step):
        # Step start: the support transfers to the swing target.
        st_x, st_y, st_z = tg_x, tg_y, tg_z
        parity = float(i0 // ticks_per_step)
        fresh = True
        z0 = base_height - st_z
        if z0 <= 0.0:
            outcome = OUTCOME_BAD_HEIGHT
        else:
            omega = math.sqrt(g / z0)
            if omega != hyp_omega:
                hyp_omega, hyp = omega, hyperbolics(omega, spans)
            if not hyp:
                outcome = OUTCOME_NON_FINITE
        if outcome != OUTCOME_COMPLETED:
            if i0 == 0:
                break
        elif i0 > 0 and (math.hypot(com_x + vel_x / omega - st_x,
                                    com_y + vel_y / omega - st_y) > reach_limit
                         or math.hypot(st_x - com_x, st_y - com_y) > reach_limit):
            outcome = OUTCOME_REACH

        # The step's states, j = 0 .. n, of which the first n_ok + 1 are finite.
        n = min(ticks_per_step, n_ticks - i0)
        cxs, cys, vxs, vys = [com_x], [com_y], [vel_x], [vel_y]
        n_ok = 0
        if outcome == OUTCOME_COMPLETED:
            block = hyp if n == len(hyp) else hyp[:n]
            ch, sh = block[-1]
            # Every value lip_step computes over the block, intermediates
            # included, is at most this bound times a few roundings: cosh and
            # sinh grow with t, so the last pair bounds the others (libm's
            # ulp aside). Below 1e300 the block is finite with a margin of
            # 1e8 to the float range. Any bound a few roundings under the
            # range would give the same rows (1e308 is an equivalent
            # mutant): a block that passes cannot overflow, and a block
            # that fails is computed in full and scanned, so the bound only
            # decides whether the scan runs.
            finite = len(block) == n and (
                max(abs(st_x), abs(st_y))
                + max(abs(com_x - st_x), abs(com_y - st_y)) * (1.0 + omega)
                + max(abs(vel_x), abs(vel_y)) * (1.0 + 1.0 / omega)) * (1.0 + ch + sh) < 1e300
            if finite and block_vel_x:
                # the rows need vel_x alone, and the next touchdown the state at n
                vxs += lip_velocity(com_x, vel_x, st_x, omega, block)
                tail = block[-1:]
                (x,), (y,), (v,) = (lip_position(com_x, vel_x, st_x, omega, tail),
                                    lip_position(com_y, vel_y, st_y, omega, tail),
                                    lip_velocity(com_y, vel_y, st_y, omega, tail))
                touchdown = x, y, vxs[-1], v
                n_ok = n
            else:
                for col, new in zip((cxs, cys, vxs, vys),
                                    lip_step(com_x, com_y, vel_x, vel_y, st_x, st_y, omega, block)):
                    col += new
                touchdown = cxs[-1], cys[-1], vxs[-1], vys[-1]
                n_ok = n if finite else next(
                    (j - 1 for j, s in enumerate(zip(cxs, cys, vxs, vys))
                     if not all(map(math.isfinite, s))), len(block))
        n_rows = min(n, n_ok + 1)

        for j, com_x, com_y, vel_x, vel_y in zip(range(1 if block_vel_x else n_rows),
                                                 cxs, cys, vxs, vys):
            i = i0 + j
            while cmd_i + 1 < n_cmd and i >= schedule[cmd_i + 1][0]:
                cmd_i += 1
                _, vx, vy, w = schedule[cmd_i]
                fresh = True
            icp_x = com_x + vel_x / omega
            icp_y = com_y + vel_y / omega

            if (replan_every_tick or j == 0) and outcome == OUTCOME_COMPLETED:
                try:
                    if fresh:
                        offsets = placement_offsets(omega, Ts, vx, vy, w, parity, heading)
                        fresh = False
                    x, y = placement_at(icp_x, icp_y, st_x, st_y, omega, Ts - j * dt, offsets)
                except OverflowError:
                    x = math.nan
                if not (math.isfinite(x) and math.isfinite(y)):
                    outcome = OUTCOME_NON_FINITE
                else:
                    heading = offsets[4]
                    tg_x, tg_y = x, y
                    if grid is not None:
                        ok, sx, sy = snap_to_steppable(grid, FOOT_RADIUS, MAX_HEIGHT_DEV,
                                                       SNAP_SEARCH_RADIUS, memo, x, y, last,
                                                       kept)
                        if ok:
                            tg_x, tg_y, tg_z = sx, sy, kept[0]
                        else:
                            tg_z = 0.0
                            outcome = (OUTCOME_NO_GROUND if grid_contains(grid, x, y)
                                       else OUTCOME_OFF_MAP)

            if not vel_x_only:
                # columns COL_TIME .. COL_PARITY, in order
                rows.append((i * dt, com_x, com_y, vel_x, vel_y, icp_x, icp_y,
                             st_x, st_y, st_z, tg_x, tg_y, tg_z, heading, parity))
            if outcome != OUTCOME_COMPLETED:
                fail_time = i * dt
                n_rows = j + 1
                break

        if outcome == OUTCOME_COMPLETED and n_ok < n:
            # the rows stop before the first non-finite state, at its own time
            outcome = OUTCOME_NON_FINITE
            fail_time = (i0 + n_ok + 1) * dt
        if vel_x_only:
            rows += vxs[:n_rows]
        if outcome != OUTCOME_COMPLETED:
            break
        com_x, com_y, vel_x, vel_y = touchdown

    rows = np.array(rows, dtype=np.float64)
    if not vel_x_only:
        rows = rows.reshape(-1, COL_PARITY + 1)
    return len(rows), outcome, fail_time, rows
