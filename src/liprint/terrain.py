"""Heightmaps, procedural rough/gap terrain, and step-adjustment queries.

A heightmap is a regular grid of node heights (row-major, rows along y,
columns along x) with a per-node support mask: masked nodes stand in for
non-supporting ground (gaps) while keeping interpolation well defined at
gap edges. Steppability asks for foot-sized flat support; the snap query
moves an unsteppable target to the closest steppable point.

JSON interchange format:
    {"origin": [x, y], "resolution": r, "rows": m, "cols": n,
     "heights": [...], "mask": [...]}   # row-major, len == rows*cols
"""

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import FOOT_RADIUS, MAX_HEIGHT_DEV, SNAP_SEARCH_RADIUS

ROUGH_AMPLITUDE = 0.05
ROUGH_CORRELATION = 0.5


def _is_json_number(x) -> bool:
    """A parsed JSON number that converts to a float: not a string, boolean
    or null, and not an integer beyond the float range."""
    return type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max)


def _json_numbers(d: dict, key: str, expected: str, size=None) -> np.ndarray:
    """d[key] as a float array; it must be a flat JSON list of numbers, of
    `size` entries when size is given."""
    v = d[key]
    if not isinstance(v, list) or (size is not None and len(v) != size):
        raise ValueError(f"heightmap {key} must be {expected}, got {v!r}")
    bad = next((i for i, x in enumerate(v) if not _is_json_number(x)), None)
    if bad is not None:
        raise ValueError(f"heightmap {key} must be {expected}, got {v[bad]!r} at index {bad}")
    return np.array(v, dtype=np.float64)


@dataclass(frozen=True)
class Heightmap:
    origin: np.ndarray
    resolution: float
    heights: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        try:
            origin = np.array(self.origin, dtype=np.float64).reshape(2)
        except (TypeError, ValueError):
            raise ValueError(f"origin must be 2 numbers, got {self.origin!r}") from None
        if not np.all(np.isfinite(origin)):
            raise ValueError(f"origin must be finite, got {origin.tolist()}")
        heights = np.array(self.heights, dtype=np.float64, order="C")
        if heights.ndim != 2 or heights.shape[0] < 2 or heights.shape[1] < 2:
            raise ValueError(f"heights must be a 2D grid of at least 2x2 nodes, got {heights.shape}")
        if not np.all(np.isfinite(heights)):
            raise ValueError("heights must be finite")
        if not (self.resolution > 0.0 and math.isfinite(self.resolution)):
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        mask = np.array(self.mask, dtype=np.uint8, order="C")
        if mask.shape != heights.shape:
            raise ValueError(f"mask shape {mask.shape} must match heights {heights.shape}")
        for arr in (origin, heights, mask):
            arr.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "mask", mask)

    @property
    def rows(self) -> int:
        return self.heights.shape[0]

    @property
    def cols(self) -> int:
        return self.heights.shape[1]

    @functools.cached_property
    def grid(self) -> _kernels.Grid:
        """The map as the grid kernels read it: its height and mask rows as
        Python lists."""
        ox, oy = self.origin.tolist()
        return _kernels.Grid(self.rows, self.cols, ox, oy, self.resolution,
                             self.heights.tolist(), self.mask.tolist())

    def to_dict(self) -> dict:
        return {
            "origin": self.origin.tolist(),
            "resolution": float(self.resolution),
            "rows": self.rows,
            "cols": self.cols,
            "heights": self.heights.ravel().tolist(),
            "mask": self.mask.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Heightmap":
        if not isinstance(d, dict):
            raise ValueError(f"heightmap must be a JSON object, got {type(d).__name__}")
        missing = [k for k in ("origin", "resolution", "rows", "cols", "heights")
                   if k not in d]
        if missing:
            raise ValueError(f"heightmap lacks {', '.join(missing)}")
        for key in ("rows", "cols"):
            v = d[key]
            # `0 < v < inf` first: int(v) of a nan or inf would raise
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not (0 < v < math.inf and v == int(v))):
                raise ValueError(f"heightmap {key} must be a positive integer, got {v!r}")
        rows, cols = int(d["rows"]), int(d["cols"])
        resolution = d["resolution"]
        if not _is_json_number(resolution):
            raise ValueError(f"heightmap resolution must be a number, got {resolution!r}")
        heights = _json_numbers(d, "heights", "a list of numbers")
        if heights.size != rows * cols:
            raise ValueError(f"rows*cols = {rows * cols} but got {heights.size} heights")
        mask = (_json_numbers(d, "mask", "a list of 0 and 1 entries") if "mask" in d
                else np.zeros(rows * cols))
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("heightmap mask must be a list of 0 and 1 entries")
        if mask.size != rows * cols:
            raise ValueError(f"rows*cols = {rows * cols} but got {mask.size} mask entries")
        return cls(origin=_json_numbers(d, "origin", "2 numbers", size=2),
                   resolution=float(resolution),
                   heights=heights.reshape(rows, cols),
                   mask=mask.astype(np.uint8).reshape(rows, cols))

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Heightmap":
        try:
            with open(path) as f:
                return cls.from_dict(json.load(f))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValueError(f"cannot read {path}: {e}") from None


@dataclass(frozen=True)
class TerrainSpec:
    """Terrain kind plus parameters.

    kind 'flat': no parameters.
    kind 'rough': amplitude (height bound, m), correlation (m), seed (a
    non-negative integer).
    kind 'gap': width (m), period (m), offset of the first gap edge (m).
    A gap width >= period leaves no supporting ground; such degenerate
    specs are accepted and simply fail at the first snap.
    """

    kind: str = "flat"
    amplitude: float = ROUGH_AMPLITUDE
    correlation: float = ROUGH_CORRELATION
    seed: int = 0
    gap_width: float = 0.15
    gap_period: float = 0.8
    gap_offset: float | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "rough", "gap"):
            raise ValueError(f"unknown terrain kind {self.kind!r}")
        if self.gap_offset is None:
            object.__setattr__(self, "gap_offset", self.gap_period / 2.0)
        for name in ("amplitude", "correlation", "gap_width", "gap_period", "gap_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be non-negative, got {self.amplitude}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # heights are drawn from [-amplitude, amplitude], a range of 2 * amplitude
        if not math.isfinite(2.0 * self.amplitude):
            raise ValueError(f"amplitude must be at most {sys.float_info.max / 2.0}, "
                             f"got {self.amplitude}")
        if self.kind == "rough" and self.correlation <= 0.0:
            raise ValueError(f"correlation length must be positive, got {self.correlation}")
        if self.kind == "gap" and (self.gap_width <= 0.0 or self.gap_period <= 0.0):
            raise ValueError("gap width and period must be positive")


def parse_spec(text: str) -> "TerrainSpec | str":
    """Parse the CLI terrain grammar.

    flat | rough:<amp>:<corr>:<seed> | gap:<width>:<period>[:<offset>]
         | file:<path>
    Returns a TerrainSpec, or the path string for file specs.
    """
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "flat" and len(parts) == 1:
            return TerrainSpec(kind="flat")
        if kind == "rough" and len(parts) == 4:
            return TerrainSpec(kind="rough", amplitude=float(parts[1]),
                               correlation=float(parts[2]), seed=int(parts[3]))
        if kind == "gap" and len(parts) in (3, 4):
            offset = float(parts[3]) if len(parts) == 4 else None
            return TerrainSpec(kind="gap", gap_width=float(parts[1]),
                               gap_period=float(parts[2]), gap_offset=offset)
        if kind == "file" and len(parts) >= 2:
            return text.split(":", 1)[1]
    except ValueError as e:
        raise ValueError(f"bad terrain spec {text!r}: {e}") from None
    raise ValueError(f"bad terrain spec {text!r}")


def height_at(h: Heightmap, p) -> float:
    """Bilinear interpolation of the four surrounding node heights."""
    x, y = float(p[0]), float(p[1])
    if not _kernels.grid_contains(h.grid, x, y):
        raise ValueError(f"query point ({x}, {y}) outside heightmap bounds")
    return _kernels.grid_bilinear(h.grid, x, y)


def _check_foot(radius: float, max_dev: float) -> None:
    """A query's foot radius and height tolerance are positive and finite."""
    for name, v in (("radius", radius), ("max_dev", max_dev)):
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")


def is_steppable(h: Heightmap, p, radius: float = FOOT_RADIUS,
                 max_dev: float = MAX_HEIGHT_DEV) -> bool:
    """Foot-sized flat support test; False outside the map or in a gap."""
    _check_foot(radius, max_dev)
    return _kernels.steppable(h.grid, float(p[0]), float(p[1]), radius, max_dev)


def nearest_steppable(h: Heightmap, p, radius: float = FOOT_RADIUS,
                      max_dev: float = MAX_HEIGHT_DEV,
                      max_search: float = SNAP_SEARCH_RADIUS) -> np.ndarray:
    """Steppable point closest to p (ties to smaller x, then smaller y).

    p itself when steppable, otherwise the closest steppable grid node. The
    search tests only nodes within max_search of p, each at most once per
    call. Raises ValueError when p is not finite or no steppable ground
    lies within max_search.
    """
    _check_foot(radius, max_dev)
    if not max_search >= 0.0:
        raise ValueError(f"max_search must be non-negative, got {max_search}")
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"p must be finite, got ({x}, {y})")
    ok, sx, sy = _kernels.snap_to_steppable(h.grid, radius, max_dev, max_search,
                                            bytearray(h.heights.size), x, y)
    if not ok:
        raise ValueError(
            f"no steppable ground within {max_search} m of ({p[0]}, {p[1]})")
    return np.array([sx, sy])


# Most float64 values one numpy array can index: its byte count must fit
# the index type.
_MAX_NODES = np.iinfo(np.intp).max // 8


def _check_count(count: int, what: str, spec: TerrainSpec, extent, resolution: float) -> None:
    """Raise, naming the terrain, when count nodes are more than one array holds."""
    if count > _MAX_NODES:
        raise ValueError(f"{spec.kind} terrain on extent {extent} at resolution {resolution} "
                         f"has more {what} than an array holds ({_MAX_NODES})")


def _layout(spec: TerrainSpec, extent, resolution: float) -> tuple:
    """(x0, y0, rows, cols, resolution, gap, lattice): spec's map on
    extent = (x0, y0, x1, y1) short of its lattice draw, which generate,
    generate_grid and a sweep's trial grids share. Node (i, j) lies at
    (x0 + resolution*j, y0 + resolution*i), the grid reaching x1 and y1.
    gap is the mask row of every row, a list of 0/1 flags, 1 only at
    nodes strictly inside a gap strip. lattice is None unless the spec is
    rough of positive amplitude; then it is (amplitude, lat_rows,
    lat_cols, row_cells, col_cells): the height bound, the shape of a
    lattice spaced by the correlation length, one node beyond the extent
    on every side and holding every grid node's cell, and the cell tables
    that generate and layout_grid read: per grid row (and column), the
    entry (k, 1 - f, f) of _kernels.cell_table at its lattice coordinate,
    as a tuple in a list. _lattice_values draws the lattice from a seed;
    spec.seed is not read. The node count of each axis and the lattice's
    are checked as Python ints, before any array is made."""
    x0, y0, x1, y1 = (float(v) for v in extent)
    if not (x1 > x0 and y1 > y0 and all(map(math.isfinite, (x0, y0, x1, y1)))):
        raise ValueError(f"extent {extent} must be finite and non-empty")
    if not (resolution > 0.0 and math.isfinite(resolution)):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    # the spans in node spacings, then the last node
    far = ((x1 - x0) / resolution, (y1 - y0) / resolution)
    if all(map(math.isfinite, far)):
        cols = max(2, math.ceil(far[0]) + 1)
        rows = max(2, math.ceil(far[1]) + 1)
        far = (x0 + resolution * (cols - 1), y0 + resolution * (rows - 1))
    if not all(map(math.isfinite, far)):
        raise ValueError(f"extent {extent} at resolution {resolution} has non-finite nodes")
    _check_count(max(rows, cols), "nodes on an axis", spec, extent, resolution)
    lattice = None
    if spec.kind == "rough" and spec.amplitude > 0.0:
        corr = spec.correlation
        # lattice coordinates of the extent's corners, then of the last node
        lat = (x0 / corr, y0 / corr, x1 / corr, y1 / corr)
        if all(map(math.isfinite, lat)):
            lat_x0 = math.floor(lat[0]) - 1
            lat_y0 = math.floor(lat[1]) - 1
            lat = (*lat[2:], far[0] / corr - lat_x0, far[1] / corr - lat_y0)
        if not all(map(math.isfinite, lat)):
            raise ValueError(f"extent {extent} has non-finite lattice coordinates at "
                             f"correlation length {corr}")
        # the lattice must hold the last node's cell, or _cell extrapolates
        lat_cols = max(math.ceil(lat[0]) - lat_x0 + 2, math.ceil(lat[2]) + 1)
        lat_rows = max(math.ceil(lat[1]) - lat_y0 + 2, math.ceil(lat[3]) + 1)
        _check_count(lat_rows * lat_cols, f"lattice nodes at correlation length {corr}",
                     spec, extent, resolution)
        gy = (y0 + resolution * np.arange(rows)) / corr - lat_y0
        gx = (x0 + resolution * np.arange(cols)) / corr - lat_x0
        cells = [list(zip(*(a.tolist() for a in _kernels.cell_table(g, n))))
                 for g, n in ((gy, lat_rows), (gx, lat_cols))]
        lattice = (spec.amplitude, lat_rows, lat_cols, *cells)
    gap = np.zeros(cols, dtype=np.uint8)
    if spec.kind == "gap":
        # the nodes are monotone: both ends finite relative to the offset, all are
        if not all(math.isfinite(v - spec.gap_offset) for v in (x0, far[0])):
            raise ValueError(f"extent {extent} has non-finite node coordinates relative "
                             f"to gap offset {spec.gap_offset}")
        rel = np.mod(x0 + resolution * np.arange(cols) - spec.gap_offset, spec.gap_period)
        gap[(rel > 1e-12) & (rel < spec.gap_width - 1e-12)] = 1
    return x0, y0, rows, cols, resolution, gap.tolist(), lattice


def _lattice_values(lattice: tuple, seed: int) -> np.ndarray:
    """A _layout lattice's values drawn from seed: a (lat_rows, lat_cols)
    array of independent uniform heights in [-amplitude, amplitude] from
    np.random.default_rng(seed)."""
    amplitude, lat_rows, lat_cols = lattice[:3]
    return np.random.default_rng(seed).uniform(-amplitude, amplitude, (lat_rows, lat_cols))


def generate(spec: TerrainSpec, extent, resolution: float) -> Heightmap:
    """Build a heightmap on extent = (x0, y0, x1, y1) at the given resolution.

    Deterministic in (spec, extent, resolution). Rough terrain is bilinear
    value noise: an independent uniform height in [-amplitude, amplitude]
    per lattice node, spaced by the correlation length, interpolated to the
    grid nodes by _kernels._bilinear on arrays of the layout's cell tables,
    as a grid view's CellRow sums them per node, bit for bit. Gap terrain
    is flat with periodic non-supporting strips across x; nodes strictly
    inside a strip are masked. The geometry comes from _layout, which
    generate_grid shares, and the lattice from _lattice_values at
    spec.seed. A map of more nodes than one array holds raises before it
    is allocated.
    """
    x0, y0, rows, cols, _, gap, lattice = _layout(spec, extent, resolution)
    _check_count(rows * cols, "nodes", spec, extent, resolution)
    if lattice is None:
        heights = np.zeros((rows, cols))
    else:
        lat = _lattice_values(lattice, spec.seed)
        (k, ey, fy), (kx, ex, fx) = (map(np.array, zip(*cells)) for cells in lattice[3:])
        # columns along the first axis, where _bilinear's lo[j] gathers
        heights = _kernels._bilinear(lat[k].T, lat[k + 1].T, kx, ey, fy,
                                     ex[:, None], fx[:, None]).T
    return Heightmap(origin=np.array([x0, y0]), resolution=resolution, heights=heights,
                     mask=np.broadcast_to(np.array(gap, dtype=np.uint8), (rows, cols)))


def layout_grid(layout: tuple, seed: int) -> _kernels.Grid:
    """The grid view of layout with its lattice drawn from seed: node for
    node, generate(dataclasses.replace(spec, seed=seed), extent, resolution)
    for the spec, extent and resolution that _layout was given. Rows share
    layout's mask row, and without a lattice one row of zeros, and nothing
    is drawn. A rough height row i is a _kernels.CellRow over the lattice
    from the layout's cell tables, made on its first read into this grid's
    own Rows, and its node j, on its first read, _kernels._bilinear of row
    i's and column j's table entries: _kernels._cell's value there, and
    generate's node bit for bit."""
    x0, y0, rows, cols, resolution, gap, lattice = layout
    if lattice is None:
        h = [[0.0] * cols] * rows
    else:
        row_cells, col_cells = lattice[3:]
        lat = _lattice_values(lattice, seed).tolist()
        h = _kernels.Rows(lambda i: _kernels.CellRow(lat, row_cells[i], col_cells))
    return _kernels.Grid(rows, cols, x0, y0, resolution, h, [gap] * rows)


def generate_grid(spec: TerrainSpec, extent, resolution: float) -> _kernels.Grid:
    """generate(spec, extent, resolution) as the grid kernels read it:
    layout_grid of _layout at spec.seed, built without a map."""
    return layout_grid(_layout(spec, extent, resolution), spec.seed)
