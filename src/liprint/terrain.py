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
from dataclasses import dataclass, replace

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


def _row_list(array: np.ndarray, i: int) -> list:
    return array[i].tolist()


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
        """The map as the grid kernels read it: each height and mask row
        becomes a Python list on its first read."""
        ox, oy = self.origin.tolist()
        # the fills hold the arrays, not self: no cycle keeps the map alive
        return _kernels.Grid(self.rows, self.cols, ox, oy, self.resolution,
                             _kernels.Rows(functools.partial(_row_list, self.heights)),
                             _kernels.Rows(functools.partial(_row_list, self.mask)))

    def contains(self, p) -> bool:
        return _kernels.grid_contains(self.grid, float(p[0]), float(p[1]))

    def to_dict(self) -> dict:
        return {
            "origin": [float(self.origin[0]), float(self.origin[1])],
            "resolution": float(self.resolution),
            "rows": self.rows,
            "cols": self.cols,
            "heights": [float(h) for h in self.heights.ravel()],
            "mask": [int(m) for m in self.mask.ravel()],
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
            json.dump(self.to_dict(), f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "Heightmap":
        with open(path) as f:
            return cls.from_dict(json.load(f))


@dataclass(frozen=True)
class TerrainSpec:
    """Terrain kind plus parameters.

    kind 'flat': no parameters.
    kind 'rough': amplitude (height bound, m), correlation (m), seed.
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
        # heights are drawn from [-amplitude, amplitude], a range of 2 * amplitude
        if not math.isfinite(2.0 * self.amplitude):
            raise ValueError(f"amplitude must be at most {sys.float_info.max / 2.0}, "
                             f"got {self.amplitude}")
        if self.kind == "rough" and self.correlation <= 0.0:
            raise ValueError(f"correlation length must be positive, got {self.correlation}")
        if self.kind == "gap" and (self.gap_width <= 0.0 or self.gap_period <= 0.0):
            raise ValueError("gap width and period must be positive")

    def with_seed(self, seed: int) -> "TerrainSpec":
        return replace(self, seed=seed)


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
    if not h.contains((x, y)):
        raise ValueError(f"query point ({x}, {y}) outside heightmap bounds")
    return _kernels.grid_bilinear(h.grid, x, y)


def is_steppable(h: Heightmap, p, radius: float = FOOT_RADIUS,
                 max_dev: float = MAX_HEIGHT_DEV) -> bool:
    """Foot-sized flat support test; False outside the map or in a gap."""
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
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
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
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


def _layout(spec: TerrainSpec, extent, resolution: float):
    """(x0, y0, rows, cols, gap, lattice): the geometry of spec's map on
    extent = (x0, y0, x1, y1), which generate and generate_grid share.
    Node (i, j) lies at (x0 + resolution*j, y0 + resolution*i), the grid
    reaching x1 and y1. gap is every row's uint8 mask, nonzero only at
    nodes strictly inside a gap strip. lattice is None unless the spec is
    rough of positive amplitude; then it is (values, gy, gx): uniform
    heights in [-amplitude, amplitude] drawn from spec.seed, spaced by the
    correlation length, one node beyond the extent on every side and
    holding every grid node's cell, and the grid rows' and columns'
    coordinates on it."""
    x0, y0, x1, y1 = (float(v) for v in extent)
    if not (x1 > x0 and y1 > y0 and all(map(math.isfinite, (x0, y0, x1, y1)))):
        raise ValueError(f"extent {extent} must be finite and non-empty")
    if not (resolution > 0.0 and math.isfinite(resolution)):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    # the spans in node spacings, then the last node
    far = ((x1 - x0) / resolution, (y1 - y0) / resolution)
    if all(map(math.isfinite, far)):
        cols = max(2, int(math.ceil(far[0])) + 1)
        rows = max(2, int(math.ceil(far[1])) + 1)
        far = (x0 + resolution * (cols - 1), y0 + resolution * (rows - 1))
    if not all(map(math.isfinite, far)):
        raise ValueError(f"extent {extent} at resolution {resolution} has non-finite nodes")
    xs = x0 + resolution * np.arange(cols)
    ys = y0 + resolution * np.arange(rows)
    gap = np.zeros(cols, dtype=np.uint8)
    if spec.kind == "gap":
        rel = np.mod(xs - spec.gap_offset, spec.gap_period)
        gap[(rel > 1e-12) & (rel < spec.gap_width - 1e-12)] = 1
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
        gx = xs / corr - lat_x0
        gy = ys / corr - lat_y0
        # the lattice must hold the last node's cell, or _cell extrapolates
        lat_cols = max(int(math.ceil(lat[0])) - lat_x0 + 2, int(math.ceil(lat[2])) + 1)
        lat_rows = max(int(math.ceil(lat[1])) - lat_y0 + 2, int(math.ceil(lat[3])) + 1)
        values = np.random.default_rng(spec.seed).uniform(
            -spec.amplitude, spec.amplitude, (lat_rows, lat_cols))
        lattice = values, gy, gx
    return x0, y0, rows, cols, gap, lattice


def generate(spec: TerrainSpec, extent, resolution: float) -> Heightmap:
    """Build a heightmap on extent = (x0, y0, x1, y1) at the given resolution.

    Deterministic in (spec, extent, resolution). Rough terrain is bilinear
    value noise: an independent uniform height in [-amplitude, amplitude]
    per lattice node, spaced by the correlation length, interpolated to the
    grid nodes by _kernels.grid_resample. Gap terrain is flat with periodic
    non-supporting strips across x; nodes strictly inside a strip are
    masked. The geometry comes from _layout, which generate_grid shares.
    """
    x0, y0, rows, cols, gap, lattice = _layout(spec, extent, resolution)
    heights = (np.zeros((rows, cols)) if lattice is None
               else _kernels.grid_resample(*lattice)[2])
    return Heightmap(origin=np.array([x0, y0]), resolution=resolution,
                     heights=heights, mask=np.broadcast_to(gap, (rows, cols)))


def generate_grid(spec: TerrainSpec, extent, resolution: float) -> _kernels.Grid:
    """generate(spec, extent, resolution) as the grid kernels read it,
    built from _layout without a map. Rows share one mask row, and flat
    and gap rows one row of zeros. A rough height node is _kernels._cell
    over the lattice at _layout's (gx[j], gy[i]), made on its first read,
    so it equals generate's node bit for bit."""
    x0, y0, rows, cols, gap, lattice = _layout(spec, extent, resolution)
    if lattice is None:
        h = [[0.0] * cols] * rows
    else:
        values, gy, gx = lattice
        lat_rows, lat_cols = values.shape
        lat, gy, gx = values.tolist(), gy.tolist(), gx.tolist()
        h = _kernels.Rows(lambda i: _kernels.Rows(
            lambda j: _kernels._cell(lat, lat_rows, lat_cols, gx[j], gy[i])[2]))
    return _kernels.Grid(rows, cols, x0, y0, resolution, h, [gap.tolist()] * rows)
