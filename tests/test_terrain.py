import functools
import json
import math
from array import array

import numpy as np
import numpy.testing as npt
import pytest

from liprint import (Heightmap, TerrainSpec, generate, height_at, is_steppable,
                     nearest_steppable)
from liprint import _kernels
from liprint.terrain import parse_spec

from oracles import exhaustive_nearest_steppable, two_window_snap


def flat_map(size=4.0, resolution=0.05, height=0.0):
    spec = TerrainSpec(kind="flat")
    h = generate(spec, (-size / 2, -size / 2, size / 2, size / 2), resolution)
    if height:
        return Heightmap(origin=h.origin, resolution=h.resolution,
                         heights=h.heights + height, mask=h.mask)
    return h


def gap_map(width, period=None, offset=None, size=4.0, resolution=0.05):
    period = period if period is not None else max(2.0, 4 * width)
    spec = TerrainSpec(kind="gap", gap_width=width, gap_period=period,
                       gap_offset=offset)
    return generate(spec, (-size / 2, -size / 2, size / 2, size / 2), resolution)


class TestHeightAt:
    def test_flat(self):
        h = flat_map()
        for p in [(0.0, 0.0), (0.73, -1.21), (1.9, 1.9)]:
            assert height_at(h, p) == 0.0

    def test_node_exact(self):
        h = flat_map(resolution=0.1)
        heights = np.array(h.heights)
        heights[20, 25] = 0.42
        h2 = Heightmap(origin=h.origin, resolution=h.resolution,
                       heights=heights, mask=h.mask)
        x = h.origin[0] + 25 * 0.1
        y = h.origin[1] + 20 * 0.1
        assert height_at(h2, (x, y)) == pytest.approx(0.42, abs=1e-15)

    def test_midpoint_bilinear(self):
        heights = np.zeros((2, 2))
        heights[:, 1] = 0.1
        h = Heightmap(origin=(0.0, 0.0), resolution=1.0, heights=heights,
                      mask=np.zeros((2, 2)))
        assert height_at(h, (0.5, 0.5)) == pytest.approx(0.05, abs=1e-15)

    def test_out_of_bounds(self):
        h = flat_map(size=2.0)
        with pytest.raises(ValueError):
            height_at(h, (5.0, 0.0))

    def test_continuity_across_cells(self):
        spec = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.3, seed=5)
        h = generate(spec, (-2, -2, 2, 2), 0.05)
        grad_bound = np.abs(np.diff(h.heights)).max() / h.resolution \
            + np.abs(np.diff(h.heights, axis=0)).max() / h.resolution
        eps = 1e-7
        rng = np.random.default_rng(0)
        for _ in range(50):
            # straddle a node line in x
            j = rng.integers(1, h.cols - 1)
            x = h.origin[0] + j * h.resolution
            y = rng.uniform(-1.5, 1.5)
            d = abs(height_at(h, (x + eps, y)) - height_at(h, (x - eps, y)))
            assert d <= grad_bound * 2 * eps + 1e-12


class TestIsSteppable:
    def test_flat_everywhere(self):
        h = flat_map()
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(-1.8, 1.8, 2)
            assert is_steppable(h, p)

    def test_gap_center_not_steppable(self):
        h = gap_map(width=0.2, period=2.0, offset=-0.1)  # gap straddles x=0
        assert not is_steppable(h, (0.0, 0.0))

    def test_low_neighbor_rejected(self):
        h = flat_map(resolution=0.05)
        heights = np.array(h.heights)
        heights[40, 42] = -0.2  # one node 0.2 m lower
        h2 = Heightmap(origin=h.origin, resolution=h.resolution,
                       heights=heights, mask=h.mask)
        p = (h.origin[0] + 41 * 0.05, h.origin[1] + 40 * 0.05)  # 0.05 m away
        assert not is_steppable(h2, p, max_dev=0.05)
        assert is_steppable(h, p, max_dev=0.05)

    def test_out_of_bounds_false(self):
        h = flat_map(size=2.0)
        assert not is_steppable(h, (10.0, 0.0))


class TestNearestSteppable:
    def test_identity_when_steppable(self):
        h = flat_map()
        p = np.array([0.123, -0.456])
        npt.assert_array_equal(nearest_steppable(h, p), p)

    def test_gap_snap_with_margin_tie_to_minus_x(self):
        # 0.2 m gap running along y, query at its center: the snapped point
        # sits half a gap width plus a foot-clearance margin away; the +/-x
        # tie breaks toward -x
        h = gap_map(width=0.2, period=2.0, offset=-0.1, size=4.0)
        p = np.array([0.0, 0.0])
        got = nearest_steppable(h, p)
        ref = exhaustive_nearest_steppable(h, p, is_steppable)
        npt.assert_allclose(got, ref, atol=1e-12)
        assert got[0] < 0.0  # tie broken to -x
        assert abs(got[0]) > 0.1  # beyond the gap edge by a positive margin

    def test_matches_exhaustive_oracle_on_rough_maps(self):
        rng = np.random.default_rng(9)
        spec = TerrainSpec(kind="rough", amplitude=0.12, correlation=0.2, seed=3)
        h = generate(spec, (-1.5, -1.5, 1.5, 1.5), 0.05)
        for _ in range(20):
            p = rng.uniform(-1.2, 1.2, 2)
            ref = exhaustive_nearest_steppable(h, p, is_steppable)
            if ref is None:
                with pytest.raises(ValueError):
                    nearest_steppable(h, p)
                continue
            got = nearest_steppable(h, p, max_search=5.0)
            npt.assert_allclose(got, ref, atol=1e-9)

    @pytest.mark.parametrize("gap_width", [0.15, 0.6])
    def test_matches_exhaustive_oracle_on_gap_maps(self, gap_width):
        # The 0.6 m gaps put the nearest steppable node beyond the first
        # search window, so the full-window search runs too.
        h = gap_map(width=gap_width, period=1.0, offset=0.13, size=2.0)
        rng = np.random.default_rng(4)
        inner = rng.uniform(-0.9, 0.9, (12, 2))
        # near and just beyond the map edge (the map spans [-1, 1] on both axes)
        edge = np.column_stack([rng.choice([-1.0, 1.0], 8) * rng.uniform(0.9, 1.04, 8),
                                rng.uniform(-1.0, 1.0, 8)])
        n_moved = n_missed = 0
        for p in np.vstack([inner, edge, edge[:, ::-1]]):
            ref = exhaustive_nearest_steppable(h, p, is_steppable)
            dist = float(np.hypot(*(ref - p)))
            for max_search in (0.12, 0.3, 1.0):
                if abs(dist - max_search) < 1e-9:
                    continue
                if dist > max_search:
                    n_missed += 1
                    with pytest.raises(ValueError):
                        nearest_steppable(h, p, max_search=max_search)
                    continue
                got = nearest_steppable(h, p, max_search=max_search)
                npt.assert_allclose(got, ref, atol=1e-12)
                n_moved += dist > 0.0
        assert n_moved > 0 and n_missed > 0

    def test_diagonal_tie_to_smaller_x_then_y(self):
        # Only nodes (x=6, y=2) and (x=2, y=6) have an unmasked cell; the
        # query (4, 4) is exactly as far from both, and the tie goes to x=2.
        mask = np.ones((10, 10))
        mask[2:4, 6:8] = 0
        mask[6:8, 2:4] = 0
        h = Heightmap(origin=(0.0, 0.0), resolution=1.0,
                      heights=np.zeros((10, 10)), mask=mask)
        got = nearest_steppable(h, (4.0, 4.0), radius=0.3, max_search=5.0)
        npt.assert_array_equal(got, [2.0, 6.0])
        ref = exhaustive_nearest_steppable(
            h, (4.0, 4.0), lambda hm, q: is_steppable(hm, q, radius=0.3))
        npt.assert_array_equal(got, ref)

    def test_node_grid_built_only_on_a_miss(self):
        h = gap_map(width=0.2, period=2.0, offset=-0.1)
        args = (h.heights, h.mask, h.origin[0], h.origin[1], h.resolution)
        holder = []
        # a steppable query answers itself and leaves the holder empty
        assert _kernels.snap_to_steppable(*args, 0.5, 0.3, 0.07, 0.03, 1.0,
                                          holder) == (True, 0.5, 0.3)
        assert holder == []
        found, sx, sy = _kernels.snap_to_steppable(*args, 0.0, 0.0, 0.07, 0.03,
                                                   1.0, holder)
        assert found and sx < -0.1
        # the first miss fills the holder with the flags and the row tables
        flags, row_cols = holder
        assert type(flags) is bytes and len(flags) == (h.rows - 1) * (h.cols - 1)
        grid = _kernels.node_steppable_grid(*args, 0.07, 0.03)
        assert len(row_cols) == h.rows
        for row, ref in zip(row_cols, grid):
            assert type(row) is array and row.typecode == "q"
            assert list(row) == np.flatnonzero(ref).tolist()
        # a later miss reads the tables built by the first one
        assert _kernels.snap_to_steppable(*args, 0.0, 0.0, 0.07, 0.03, 1.0,
                                          holder) == (found, sx, sy)
        assert holder[0] is flags and holder[1] is row_cols

    @pytest.mark.parametrize("kw", [{"radius": 0.0}, {"max_search": -1.0},
                                    {"max_search": math.nan}])
    def test_bad_radius_or_search_raises(self, kw):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be"):
            nearest_steppable(gap_map(width=0.2), (0.0, 0.0), **kw)

    def test_fully_gapped_raises(self):
        h = gap_map(width=5.0, period=0.1, size=2.0)
        with pytest.raises(ValueError):
            nearest_steppable(h, (0.0, 0.0))

    def test_result_is_steppable(self):
        h = gap_map(width=0.15, period=0.8, offset=0.4, size=6.0)
        rng = np.random.default_rng(2)
        for _ in range(30):
            p = rng.uniform(-2.5, 2.5, 2)
            q = nearest_steppable(h, p)
            assert is_steppable(h, q)


def _node_grid_map(kind, resolution, seed, amplitude=0.06, gap_period=0.5):
    # non-round origin and extent, so node coordinates carry rounding error
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-1.37, -1.11), rng.uniform(-0.93, -0.71)
    extent = (x0, y0, x0 + rng.uniform(1.3, 1.7), y0 + rng.uniform(0.8, 1.1))
    if kind == "rough":
        spec = TerrainSpec(kind="rough", amplitude=amplitude, correlation=0.2, seed=seed)
    else:
        spec = TerrainSpec(kind="gap", gap_width=0.15, gap_period=gap_period,
                           gap_offset=float(rng.uniform(0.0, gap_period)))
    return generate(spec, extent, resolution)


class TestNodeSteppableGrid:
    @pytest.mark.parametrize("kind", ["rough", "gap"])
    @pytest.mark.parametrize("resolution", [0.03, 0.05, 0.07, 0.1])
    def test_equals_scalar_steppable_at_every_node(self, kind, resolution):
        h = _node_grid_map(kind, resolution, seed=int(resolution * 100))
        ox, oy = h.origin[0], h.origin[1]
        n_true = n_nodes = 0
        # foot radii below, at and above the node spacing
        for radius in (0.6 * resolution, resolution, 0.07, 2.3 * resolution):
            for max_dev in (0.01, 0.03):
                grid = _kernels.node_steppable_grid(h.heights, h.mask, ox, oy,
                                                    resolution, radius, max_dev)
                ref = np.array([[_kernels.steppable(h.heights, h.mask, ox, oy,
                                                    resolution, ox + j * resolution,
                                                    oy + i * resolution, radius,
                                                    max_dev)
                                 for j in range(h.cols)] for i in range(h.rows)])
                assert grid.dtype == np.bool_
                npt.assert_array_equal(grid, ref)
                n_true += int(ref.sum())
                n_nodes += ref.size
        assert 0 < n_true < n_nodes

    def test_exact_disc_and_deviation_boundaries(self):
        # Binary-exact values: the four neighbours of the raised node lie
        # exactly on the disc edge and deviate by exactly max_dev.
        heights = np.zeros((11, 11))
        heights[5, 5] = 0.25
        h = Heightmap(origin=(0.0, 0.0), resolution=0.5, heights=heights,
                      mask=np.zeros((11, 11)))
        grid = _kernels.node_steppable_grid(h.heights, h.mask, 0.0, 0.0, 0.5,
                                            0.5, 0.25)
        assert not grid[5, 4] and not grid[4, 5] and not grid[5, 5]
        assert grid[4, 4] and grid[5, 3]
        ref = [[is_steppable(h, (0.5 * j, 0.5 * i), radius=0.5, max_dev=0.25)
                for j in range(11)] for i in range(11)]
        npt.assert_array_equal(grid, ref)


def _plateau_map(resolution):
    # A flat plateau at 0.3 m with single nodes raised by the largest step
    # that stays below max_dev = 0.03: a cell whose box holds such a node
    # has a height spread just under max_dev, and the bilinear height at
    # some of its points rounds below 0.3, so their deviation reaches
    # max_dev. Only the flag margin keeps those cells unflagged.
    base = 0.3
    raised = base + 0.03
    while raised - base >= 0.03:
        raised = math.nextafter(raised, 0.0)
    heights = np.full((31, 31), base)
    heights[4::11, 4::11] = raised
    return Heightmap(origin=(-0.53, 0.27), resolution=resolution, heights=heights,
                     mask=np.zeros((31, 31)))


def _pit_map(resolution):
    # flat ground with single masked nodes nine nodes apart in x and y
    mask = np.zeros((37, 37))
    mask[4::9, 4::9] = 1
    return Heightmap(origin=(-0.53, 0.27), resolution=resolution,
                     heights=np.zeros((37, 37)), mask=mask)


def _snap_query_points(h, rng, n=40):
    """Random, node, mid-cell, node + 1e-15 and out-of-grid points."""
    ox, oy, res = float(h.origin[0]), float(h.origin[1]), h.resolution
    x1, y1 = ox + (h.cols - 1) * res, oy + (h.rows - 1) * res
    points = []
    for _ in range(n):
        nx = ox + int(rng.integers(0, h.cols)) * res
        ny = oy + int(rng.integers(0, h.rows)) * res
        points += [(nx, ny), (nx + 0.5 * res, ny + 0.5 * res),
                   (nx + 1e-15, ny + 1e-15),
                   tuple(rng.uniform((ox, oy), (x1, y1)).tolist()),
                   tuple(rng.uniform((ox - 0.3, oy - 0.3), (x1 + 0.3, y1 + 0.3)).tolist())]
    return points


class TestSnapTables:
    @pytest.mark.parametrize("kind", ["rough", "gap"])
    @pytest.mark.parametrize("resolution", [0.03, 0.05, 0.07, 0.1])
    def test_snap_equals_two_window_search(self, kind, resolution):
        h = _node_grid_map(kind, resolution, seed=int(resolution * 100))
        ox, oy = float(h.origin[0]), float(h.origin[1])
        rng = np.random.default_rng(7)
        n_flagged = n_moved = n_missed = 0
        # foot radii below, at and above the node spacing
        for radius in (0.6 * resolution, resolution, 2.3 * resolution):
            grid = _kernels.node_steppable_grid(h.heights, h.mask, ox, oy,
                                                resolution, radius, 0.03)
            holder = []  # warm: every query on this map and radius shares it
            for x, y in _snap_query_points(h, rng):
                for max_search in (0.12, 1.0):
                    got = _kernels.snap_to_steppable(h.heights, h.mask, ox, oy,
                                                     resolution, x, y, radius,
                                                     0.03, max_search, holder)
                    ref = two_window_snap(h.heights, h.mask, ox, oy, resolution,
                                          x, y, radius, 0.03, max_search, grid)
                    assert got == ref, (radius, max_search, x, y)
                    n_moved += got[0] and got[1:] != (x, y)
                    n_missed += not got[0]
            n_flagged += sum(holder[0])
        assert n_moved > 0 and n_missed > 0
        # at 0.1 m, two of every five node columns of the gap map are masked,
        # so no cell box is clear of them
        assert n_flagged > 0 or (kind, resolution) == ("gap", 0.1)

    @pytest.mark.parametrize("kind", ["rough", "gap"])
    @pytest.mark.parametrize("resolution", [0.05, 0.1])
    def test_snap_equals_exhaustive_scan(self, kind, resolution):
        h = _node_grid_map(kind, resolution, seed=int(resolution * 100) + 1)
        rng = np.random.default_rng(8)
        n_moved = 0
        for radius in (0.6 * resolution, resolution, 2.3 * resolution):
            node_ok = functools.cache(
                lambda x, y, r=radius: is_steppable(h, (x, y), radius=r))
            holder = []
            for x, y in _snap_query_points(h, rng, n=4):
                ref = exhaustive_nearest_steppable(
                    h, (x, y), lambda hm, q: node_ok(float(q[0]), float(q[1])))
                found, sx, sy = _kernels.snap_to_steppable(
                    h.heights, h.mask, float(h.origin[0]), float(h.origin[1]),
                    resolution, x, y, radius, 0.03, 5.0, holder)
                assert found == (ref is not None)
                if found:
                    npt.assert_allclose((sx, sy), ref, atol=1e-9)
                    n_moved += (sx, sy) != (x, y)
        assert n_moved > 0

    @pytest.mark.parametrize("kind", ["rough", "gap", "plateau", "pits"])
    @pytest.mark.parametrize("resolution,radius", [
        (0.03, 0.07), (0.05, 0.05), (0.07, 0.07), (0.1, 0.1), (0.1, 0.3)])
    def test_flagged_cells_are_steppable_everywhere(self, kind, resolution, radius):
        # (0.1, 0.3): 0.3 / 0.1 rounds to just below 3, so the disc bounds of
        # a point on a far cell edge can round out one node beyond the
        # int(radius / res) nodes a cell's points reach in exact arithmetic
        if kind == "plateau":
            h = _plateau_map(resolution)
        elif kind == "pits":
            h = _pit_map(resolution)
        else:
            h = _node_grid_map(kind, resolution, seed=int(resolution * 100) + 2,
                               amplitude=0.025, gap_period=1.2)
        ox, oy, res = float(h.origin[0]), float(h.origin[1]), h.resolution
        flags, _ = _kernels.snap_tables(h.heights, h.mask, ox, oy, res, radius, 0.03)
        flagged = np.flatnonzero(np.frombuffer(flags, dtype=np.uint8))
        assert flagged.size > 0
        rng = np.random.default_rng(11)
        for cell in flagged:
            i, j = divmod(int(cell), h.cols - 1)
            x0, x1 = ox + j * res, ox + (j + 1) * res
            y0, y1 = oy + i * res, oy + (i + 1) * res
            # the corners and far edges, the points just inside them, and
            # random points of the closed cell
            xs = [x0, x1, math.nextafter(x1, x0), *rng.uniform(x0, x1, 3).tolist()]
            ys = [y0, y1, math.nextafter(y1, y0), *rng.uniform(y0, y1, 3).tolist()]
            for x in xs:
                for y in ys:
                    assert _kernels.steppable(h.heights, h.mask, ox, oy, res, x, y,
                                              radius, 0.03), (i, j, x, y)


class TestGenerate:
    def test_flat_all_zero(self):
        h = flat_map()
        assert np.all(h.heights == 0.0)
        assert np.all(h.mask == 0)

    def test_zero_amplitude_rough(self):
        spec = TerrainSpec(kind="rough", amplitude=0.0, correlation=0.5, seed=4)
        h = generate(spec, (-1, -1, 1, 1), 0.05)
        assert np.all(h.heights == 0.0)

    def test_deterministic_in_seed(self):
        spec = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=17)
        h1 = generate(spec, (-1, -1, 1, 1), 0.05)
        h2 = generate(spec, (-1, -1, 1, 1), 0.05)
        npt.assert_array_equal(h1.heights, h2.heights)
        h3 = generate(spec.with_seed(18), (-1, -1, 1, 1), 0.05)
        assert not np.array_equal(h1.heights, h3.heights)

    def test_amplitude_bound(self):
        spec = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=6)
        h = generate(spec, (-2, -2, 2, 2), 0.05)
        assert np.abs(h.heights).max() <= 0.05

    def test_gap_strips(self):
        h = gap_map(width=0.15, period=0.8, offset=0.4, size=4.0)
        xs = h.origin[0] + h.resolution * np.arange(h.cols)
        rel = np.mod(xs - 0.4, 0.8)
        inside = (rel > 1e-9) & (rel < 0.15 - 1e-9)
        npt.assert_array_equal(h.mask[0], inside.astype(np.uint8))


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        spec = TerrainSpec(kind="rough", amplitude=0.05, correlation=0.4, seed=8)
        h = generate(spec, (-1, -0.5, 1, 0.5), 0.1)
        path = tmp_path / "map.json"
        h.save(path)
        d = json.loads(path.read_text())
        assert set(d) == {"origin", "resolution", "rows", "cols", "heights", "mask"}
        assert d["rows"] * d["cols"] == len(d["heights"]) == len(d["mask"])
        h2 = Heightmap.load(path)
        npt.assert_array_equal(h.heights, h2.heights)
        npt.assert_array_equal(h.mask, h2.mask)
        npt.assert_array_equal(h.origin, h2.origin)
        assert h.resolution == h2.resolution

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Heightmap.from_dict({"origin": [0, 0], "resolution": 0.1,
                                 "rows": 2, "cols": 3, "heights": [0] * 5,
                                 "mask": [0] * 6})


class TestParseSpec:
    def test_grammar(self):
        assert parse_spec("flat").kind == "flat"
        s = parse_spec("rough:0.05:0.5:42")
        assert (s.kind, s.amplitude, s.correlation, s.seed) == ("rough", 0.05, 0.5, 42)
        s = parse_spec("gap:0.15:0.8:0.4")
        assert (s.kind, s.gap_width, s.gap_period, s.gap_offset) == \
            ("gap", 0.15, 0.8, 0.4)
        s = parse_spec("gap:0.15:0.8")
        assert s.gap_offset == pytest.approx(0.4)  # defaults to period / 2
        assert parse_spec("file:/tmp/x.json") == "/tmp/x.json"

    def test_bad_specs(self):
        for text in ("bogus", "rough:0.05", "gap:xyz:0.8", "rough:a:b:c"):
            with pytest.raises(ValueError):
                parse_spec(text)


class TestValidation:
    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            Heightmap(origin=(0, 0), resolution=0.0, heights=np.zeros((2, 2)),
                      mask=np.zeros((2, 2)))

    def test_non_finite_heights(self):
        heights = np.zeros((2, 2))
        heights[0, 0] = np.nan
        with pytest.raises(ValueError):
            Heightmap(origin=(0, 0), resolution=0.1, heights=heights,
                      mask=np.zeros((2, 2)))

    @pytest.mark.parametrize("kind", ["flat", "rough", "gap"])
    @pytest.mark.parametrize("name", ["amplitude", "correlation", "gap_width",
                                      "gap_period", "gap_offset"])
    def test_non_finite_spec_parameters(self, kind, name):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TerrainSpec(kind=kind, **{name: bad})

    def test_immutable(self):
        h = flat_map(size=1.0)
        with pytest.raises((ValueError, RuntimeError)):
            h.heights[0, 0] = 1.0
