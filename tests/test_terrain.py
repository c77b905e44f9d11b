import functools
import json
import math
import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from liprint import (Heightmap, TerrainSpec, generate, height_at, is_steppable,
                     nearest_steppable)
from liprint import _kernels
from liprint import terrain as terrain_mod
from liprint.terrain import generate_grid, parse_spec

from oracles import (exhaustive_nearest_steppable, node_grid_per_steppable,
                     rough_heights_per_formula, two_window_snap)


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

    def test_exact_disc_and_deviation_boundaries(self):
        # Binary-exact values: the four neighbours of the raised node lie
        # exactly on the disc edge and deviate by exactly max_dev.
        heights = np.zeros((11, 11))
        heights[5, 5] = 0.25
        h = Heightmap(origin=(0.0, 0.0), resolution=0.5, heights=heights,
                      mask=np.zeros((11, 11)))
        grid = [[is_steppable(h, (0.5 * j, 0.5 * i), radius=0.5, max_dev=0.25)
                 for j in range(11)] for i in range(11)]
        assert not grid[5][4] and not grid[4][5] and not grid[5][5]
        assert grid[4][4] and grid[5][3]


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

    def test_node_exactly_at_the_search_budget(self):
        # Only node (2, 2) at (1, 1) has an unmasked cell. The query (1.5, 1)
        # lies 0.5 from it, so d2 = 0.25, which max_search**2 + 1e-12 equals
        # exactly for this max_search: the node is inside the budget, and
        # one ulp less of max_search puts it outside.
        mask = np.ones((6, 6))
        mask[2:4, 2:4] = 0
        h = Heightmap(origin=(0.0, 0.0), resolution=0.5, heights=np.zeros((6, 6)),
                      mask=mask)
        max_search = 0.499999999999
        assert max_search * max_search + 1e-12 == 0.25
        npt.assert_array_equal(
            nearest_steppable(h, (1.5, 1.0), radius=0.3, max_search=max_search), [1.0, 1.0])
        with pytest.raises(ValueError, match="no steppable ground"):
            nearest_steppable(h, (1.5, 1.0), radius=0.3,
                              max_search=math.nextafter(max_search, 0.0))

    def test_node_grid_built_only_on_a_miss(self, monkeypatch):
        # the node grid is a per-run memo, one byte a node: 0 untested,
        # 1 + steppable(node) once a miss has tested it
        h = gap_map(width=0.2, period=2.0, offset=-0.1)
        grid = h.grid
        real = _kernels.steppable
        memo = bytearray(h.heights.size)
        args = (grid, 0.07, 0.03, 1.0, memo)
        # a steppable query answers itself and leaves the memo untouched
        assert _kernels.snap_to_steppable(*args, 0.5, 0.3) == (True, 0.5, 0.3)
        assert not any(memo)
        found, sx, sy = _kernels.snap_to_steppable(*args, 0.0, 0.0)
        assert found and sx < -0.1
        tested = [k for k, v in enumerate(memo) if v]
        assert tested
        for k in tested:
            i, j = divmod(k, h.cols)
            assert memo[k] == 1 + real(grid, grid.ox + j * grid.res, grid.oy + i * grid.res,
                                       0.07, 0.03)
        # the same miss again reads the memo and tests only the query
        calls = []

        def spy(grid, x, y, radius, max_dev, cert=None, height=None):
            calls.append((x, y))
            return real(grid, x, y, radius, max_dev, cert, height)

        monkeypatch.setattr(_kernels, "steppable", spy)
        assert _kernels.snap_to_steppable(*args, 0.0, 0.0) == (found, sx, sy)
        assert calls == [(0.0, 0.0)]

    @pytest.mark.parametrize("kw", [{"radius": 0.0}, {"max_search": -1.0},
                                    {"max_search": math.nan}, {"radius": -0.1},
                                    {"radius": math.inf}, {"radius": math.nan},
                                    {"max_dev": 0.0}, {"max_dev": -0.01},
                                    {"max_dev": math.inf}, {"max_dev": math.nan}])
    def test_bad_radius_or_search_raises(self, kw):
        h = gap_map(width=0.2)
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"{name} must be"):
            nearest_steppable(h, (0.0, 0.0), **kw)
        if name != "max_search":
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                is_steppable(h, (0.0, 0.0), **kw)

    @pytest.mark.parametrize("p", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                   (0.0, -math.inf)])
    def test_non_finite_point_raises(self, p):
        h = gap_map(width=0.2)
        with pytest.raises(ValueError, match=re.escape(f"p must be finite, got {p}")):
            nearest_steppable(h, p)

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
    """snap_to_steppable's row search over its node memo, against the
    window and exhaustive oracles."""

    @pytest.mark.parametrize("kind", ["rough", "gap"])
    @pytest.mark.parametrize("resolution", [0.03, 0.05, 0.07, 0.1])
    def test_snap_equals_two_window_search(self, kind, resolution):
        h = _node_grid_map(kind, resolution, seed=int(resolution * 100))
        rng = np.random.default_rng(7)
        n_moved = n_missed = 0
        # foot radii below, at and above the node spacing
        for radius in (0.6 * resolution, resolution, 2.3 * resolution):
            grid = node_grid_per_steppable(h, radius, 0.03)
            memo = bytearray(h.heights.size)  # warm: shared by every query here
            for x, y in _snap_query_points(h, rng):
                for max_search in (0.12, 1.0):
                    got = _kernels.snap_to_steppable(h.grid, radius, 0.03, max_search,
                                                     memo, x, y)
                    ref = two_window_snap(h, x, y, radius, 0.03, max_search, grid)
                    assert got == ref, (radius, max_search, x, y)
                    n_moved += got[0] and got[1:] != (x, y)
                    n_missed += not got[0]
        assert n_moved > 0 and n_missed > 0

    @pytest.mark.parametrize("kind", ["rough", "gap"])
    @pytest.mark.parametrize("resolution", [0.05, 0.1])
    def test_snap_equals_exhaustive_scan(self, kind, resolution):
        h = _node_grid_map(kind, resolution, seed=int(resolution * 100) + 1)
        rng = np.random.default_rng(8)
        n_moved = 0
        for radius in (0.6 * resolution, resolution, 2.3 * resolution):
            node_ok = functools.cache(
                lambda x, y, r=radius: is_steppable(h, (x, y), radius=r))
            memo = bytearray(h.heights.size)
            for x, y in _snap_query_points(h, rng, n=4):
                ref = exhaustive_nearest_steppable(
                    h, (x, y), lambda hm, q: node_ok(float(q[0]), float(q[1])))
                found, sx, sy = _kernels.snap_to_steppable(h.grid, radius, 0.03, 5.0,
                                                           memo, x, y)
                assert found == (ref is not None)
                if found:
                    npt.assert_allclose((sx, sy), ref, atol=1e-9)
                    n_moved += (sx, sy) != (x, y)
        assert n_moved > 0

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("res", [2.0 ** -23, 2.0 ** -24])
    def test_tie_goes_to_leftmost_of_several_nodes_in_a_row(self, res, side):
        # Only nodes (6, 12..18) have an unmasked cell. The query lies 0.01 m
        # off the map, level with the midpoint of columns 15 and 16. At these
        # spacings (about 1e-7 m) the seven nodes' d2 lie within the 1e-12
        # tie band, so the search must walk left from column 15 to column
        # 12; at 1e-6 m the band holds at most one node on each side of x.
        # The exhaustive scan, rounding distances to 1e-9 m, ties them too.
        mask = np.ones((12, 30))
        mask[6:8, 12:20] = 0
        h = Heightmap(origin=(0.0, 0.0), resolution=res, heights=np.zeros((12, 30)),
                      mask=mask)
        radius = 0.6 * res
        assert np.flatnonzero(node_grid_per_steppable(h, radius, 0.03)).tolist() == [
            6 * 30 + j for j in range(12, 19)]
        p = (15.5 * res, 6 * res + side * 0.01)
        got = nearest_steppable(h, p, radius=radius, max_search=0.02)
        ref = exhaustive_nearest_steppable(
            h, p, lambda hm, q: is_steppable(hm, q, radius=radius))
        npt.assert_array_equal(got, ref)
        npt.assert_array_equal(got, [12 * res, 6 * res])


def _certificate_misses(grid, radius, rng, n):
    """n unsteppable query points on the map and up to 0.3 m beyond it."""
    x1, y1 = grid.ox + (grid.cols - 1) * grid.res, grid.oy + (grid.rows - 1) * grid.res
    points = []
    while len(points) < n:
        for x, y in rng.uniform((grid.ox - 0.3, grid.oy - 0.3), (x1 + 0.3, y1 + 0.3),
                                (n, 2)).tolist():
            if not _kernels.steppable(grid, x, y, radius, 0.03):
                points.append((x, y))
    return points[:n]


def _certificate_ties(grid, radius, steppable_nodes):
    """Unsteppable points on the bisector of two steppable nodes: for each
    run of unsteppable nodes in a row between two steppable ones, the
    midpoint of those two, and the point level with the midpoint of that
    row and the next one, one column in from the run's left end."""
    ox, oy, res = grid.ox, grid.oy, grid.res
    points = []
    for i in range(grid.rows - 1):
        ends = np.flatnonzero(steppable_nodes[i]).tolist()
        for left, right in zip(ends, ends[1:]):
            if right - left >= 2:
                points += [((ox + left * res + ox + right * res) / 2, oy + i * res),
                           (ox + (left + 1) * res, oy + (i + 0.5) * res)]
    return [(x, y) for x, y in points if not _kernels.steppable(grid, x, y, radius, 0.03)]


class TestSnapCertificate:
    """snap_to_steppable's reuse of the last search's node (its `last`
    list) against the uncached search."""

    @staticmethod
    def _check_certificate(grid, steppable_nodes, x, y, last):
        # floor bounds the d2 of every steppable node but the answer, as
        # the search computes d2, unless another node ties with the answer
        # (within the 1e-12 band and its rounding): then floor = best
        _, _, nx, ny, best, floor = last[6:12]
        dx = grid.ox + np.arange(grid.cols) * grid.res - x
        dy = grid.oy + np.arange(grid.rows) * grid.res - y
        d2 = (dy * dy)[:, None] + dx * dx
        j, i = round((nx - grid.ox) / grid.res), round((ny - grid.oy) / grid.res)
        assert steppable_nodes[i, j] and d2[i, j] == best
        others = steppable_nodes.copy()
        others[i, j] = False
        if floor == best:
            assert np.abs(d2[others] - best).min() <= 1.5e-12
            return True
        assert not others.any() or d2[others].min() >= floor > best
        return False

    def test_reuse_equals_uncached_search(self, monkeypatch):
        searches = []  # one entry per row search
        real_search = _kernels._nearest_steppable_node

        def counting_search(*args):
            searches.append(None)
            return real_search(*args)

        monkeypatch.setattr(_kernels, "_nearest_steppable_node", counting_search)
        rng = np.random.default_rng(21)
        n_seq = n_reused = n_ties = n_exhaustive = 0
        for kind in ("gap", "rough"):
            for resolution in (0.03, 0.05, 0.07, 0.1):
                # foot radii below, at and above the node spacing
                for radius in (0.6 * resolution, resolution, 2.3 * resolution):
                    # rough heights scaled by 1/radius, so that every radius
                    # from the spacing up fails some nodes (a smaller disc
                    # holds one node, which always passes)
                    h = _node_grid_map(kind, resolution, seed=int(resolution * 100) + 2,
                                       amplitude=0.006 / radius)
                    grid = h.grid
                    steppable_nodes = node_grid_per_steppable(h, radius, 0.03)
                    filled = bytearray((1 + steppable_nodes.ravel()).astype(np.uint8))
                    node_ok = functools.cache(
                        lambda x, y, r=radius: is_steppable(h, (x, y), radius=r))
                    memo = bytearray(grid.rows * grid.cols)  # shared, filled lazily
                    ties = _certificate_ties(grid, radius, steppable_nodes)
                    starts = ([(p, True) for p in ties[::max(1, len(ties) // 60)]]
                              + [(p, False) for p in _certificate_misses(grid, radius, rng, 850)])
                    for (x0, y0), tie in starts:
                        max_search = 1.0
                        last0 = []
                        _kernels.snap_to_steppable(grid, radius, 0.03, max_search, memo,
                                                   x0, y0, last0)
                        if last0[6:] and not tie and rng.random() < 0.25:
                            # a budget just above the answer's distance
                            margin = 10 ** float(rng.uniform(-15, -3))
                            max_search = math.sqrt(last0[10]) * (1 + margin)
                            last0 = []
                            _kernels.snap_to_steppable(grid, radius, 0.03, max_search, memo,
                                                       x0, y0, last0)
                        if last0[6:]:
                            n_ties += tie and self._check_certificate(
                                grid, steppable_nodes, x0, y0, last0)
                        # moves of 1e-14 to 1e-3 m in random directions
                        for d, angle in zip((10.0 ** rng.uniform(-14, -3, 5)).tolist(),
                                            rng.uniform(-math.pi, math.pi, 5).tolist()):
                            x1, y1 = x0 + d * math.cos(angle), y0 + d * math.sin(angle)
                            last = list(last0)
                            n_before = len(searches)
                            got = _kernels.snap_to_steppable(grid, radius, 0.03, max_search,
                                                             memo, x1, y1, last)
                            # no search, and not the query itself: the reuse path
                            n_reused += len(searches) == n_before and got[1:] != (x1, y1)
                            # the uncached call: no `last`, and a memo of its own,
                            # filled in advance with the answers a fresh one collects
                            ref = _kernels.snap_to_steppable(grid, radius, 0.03, max_search,
                                                             bytearray(filled), x1, y1)
                            assert got == ref, (kind, resolution, radius, max_search,
                                                (x0, y0), (x1, y1))
                            n_seq += 1
                            if tie or max_search != 1.0 or n_seq % 500:
                                continue
                            # a subsample against the exhaustive node scan,
                            # away from ties and from the budget's edge
                            ex = exhaustive_nearest_steppable(
                                h, (x1, y1), lambda hm, q: node_ok(float(q[0]), float(q[1])))
                            dist = math.inf if ex is None else math.hypot(*(ex - (x1, y1)))
                            if abs(dist - max_search) < 1e-9:
                                continue
                            if dist > max_search:
                                ex = None
                            assert got[0] == (ex is not None)
                            if got[0]:
                                assert got[1:] == tuple(ex.tolist())
                            n_exhaustive += 1
        assert n_seq >= 100_000 and n_exhaustive >= 100 and n_ties >= 300
        # not vacuous: most second queries reuse the first one's node
        assert n_reused > 0.6 * n_seq, (n_reused, n_seq)


def _loaded_map(resolution, seed, slope=0.4):
    """A heightmap as a file would give it: noisy heights on a slope about
    3.7 m up (so the corner-height rounding term counts), about 8 % of the
    nodes masked at random, and a non-round origin. It is 5.6 m long, so
    that most grid coordinates (x - ox) / res are large and carry rounding
    errors of about a float step of the node spacing."""
    rng = np.random.default_rng(seed)
    rows, cols = int(0.5 / resolution), int(5.6 / resolution)
    x0, y0 = rng.uniform(-1.37, -1.11), rng.uniform(-0.53, -0.31)
    ys, xs = np.mgrid[0:rows, 0:cols] * resolution
    heights = 3.7 + slope * xs - 0.2 * ys + rng.uniform(-0.02, 0.02, (rows, cols))
    mask = (rng.random((rows, cols)) < 0.08).astype(np.uint8)
    return Heightmap(origin=(x0, y0), resolution=resolution, heights=heights, mask=mask)


def _nudged(v, rng):
    """v moved by -3 .. 3 float steps."""
    for _ in range(abs(k := int(rng.integers(-3, 4)))):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


def _query_starts(grid, radius, max_dev, rng, n):
    """n (x, y, kind, ux, uy) query points, (ux, uy) a unit direction that
    crosses the point's decision boundary: three quarters of kind 0, random
    points on the map and up to 0.02 m beyond it, and a sixteenth each of
    points 1, within a few float steps of a cell line; 2, within a few
    float steps of the foot circle around a node, half of them a gap node
    (where the answer changes as the node enters the foot); 3, just outside
    the edge of the box of nodes scanned, near where the foot circle of a
    node (half of them gap nodes) touches it, slightly off the axis, so
    that a small move brings into the foot a node that the box left out;
    and 4, on the max_dev band of a node within the foot circle (see
    _band_point, drawn until it finds one; once 1000 draws in a row find
    none, as on a level map, kind 4 gives random points)."""
    ox, oy, res, rows, cols = grid.ox, grid.oy, grid.res, grid.rows, grid.cols
    x1, y1 = ox + (cols - 1) * res, oy + (rows - 1) * res
    gaps = [i * cols + j for i in range(rows) for j in range(cols) if grid.m[i][j]]
    points = []
    band_misses = 0
    while len(points) < n:
        x, y = rng.uniform((ox - 0.02, oy - 0.02), (x1 + 0.02, y1 + 0.02)).tolist()
        kind = max(0, int(rng.integers(-11, 5)))
        ux, uy = 1.0, 0.0
        if kind == 1:
            # a cell line in x, in y, or both (a node)
            line = int(rng.integers(0, 3))
            if line != 1:
                x = _nudged(ox + int(rng.integers(0, cols)) * res, rng)
            if line != 0:
                y = _nudged(oy + int(rng.integers(0, rows)) * res, rng)
                ux, uy = 0.0, 1.0
        elif kind in (2, 3):
            if gaps and rng.random() < 0.5:
                i, j = divmod(gaps[int(rng.integers(0, len(gaps)))], cols)
            else:
                j, i = int(rng.integers(0, cols)), int(rng.integers(0, rows))
            if kind == 2:
                a = float(rng.uniform(-math.pi, math.pi))
                ux, uy = math.cos(a), math.sin(a)
                u, v = radius * ux, radius * uy
            else:
                # (radius + e, t) from the node, turned by quarter turns
                u = radius + 10 ** float(rng.uniform(-16, -9))
                v = math.copysign(10 ** float(rng.uniform(-7, -3)), rng.random() - 0.5)
                for _ in range(int(rng.integers(0, 4))):
                    u, v, ux, uy = -v, u, -uy, ux
            x = _nudged(ox + j * res + u, rng)
            y = _nudged(oy + i * res + v, rng)
        elif kind == 4:
            band = None
            while band is None and band_misses < 1000:
                band = _band_point(grid, radius, max_dev, rng)
                band_misses += band is None
            if band is None:
                kind = 0
            else:
                band_misses = 0
                x, y, ux, uy = band
        else:
            kind = 0
        points.append((x, y, kind, ux, uy))
    return points


def _band_point(grid, radius, max_dev, rng):
    """(x, y, ux, uy): a point where |h - h0| of a node within the foot
    circle crosses max_dev, within a float step, and so flips the answer,
    and the direction of the crossing; or None when the random draw finds
    no such crossing. From a random point, the node whose deviation lies
    nearest max_dev sets the height h0 must reach; a segment down the slope
    of h0, half as long again as the linear estimate, brackets it for the
    bisection."""
    ox, oy, res = grid.ox, grid.oy, grid.res
    x = float(rng.uniform(ox, ox + (grid.cols - 1) * res))
    y = float(rng.uniform(oy, oy + (grid.rows - 1) * res))
    h0 = _kernels.grid_bilinear(grid, x, y)
    nodes = [(abs(abs(grid.h[i][j] - h0) - max_dev), grid.h[i][j])
             for i in range(max(0, math.ceil((y - radius - oy) / res)),
                            min(grid.rows, math.floor((y + radius - oy) / res) + 1))
             for j in range(max(0, math.ceil((x - radius - ox) / res)),
                            min(grid.cols, math.floor((x + radius - ox) / res) + 1))
             if math.hypot(ox + j * res - x, oy + i * res - y) < 0.8 * radius]
    if not nodes:
        return None
    _, hn = min(nodes)
    target = min(hn - max_dev, hn + max_dev, key=lambda c: abs(c - h0))
    e = 1e-7
    gx = (_kernels.grid_bilinear(grid, x + e, y) - _kernels.grid_bilinear(grid, x - e, y)) / (2 * e)
    gy = (_kernels.grid_bilinear(grid, x, y + e) - _kernels.grid_bilinear(grid, x, y - e)) / (2 * e)
    slope = math.hypot(gx, gy)
    if slope == 0.0:
        return None
    t = 1.5 * (target - h0) / slope ** 2
    ex, ey = x + t * gx, y + t * gy
    if math.hypot(ex - x, ey - y) > 0.15 * radius or not _kernels.grid_contains(grid, ex, ey):
        return None

    def over(px, py):
        return abs(hn - _kernels.grid_bilinear(grid, px, py)) >= max_dev

    inside = over(x, y)
    if over(ex, ey) == inside:
        return None
    ux, uy = (ex - x) / math.hypot(ex - x, ey - y), (ey - y) / math.hypot(ex - x, ey - y)
    for _ in range(60):
        mx, my = (x + ex) / 2, (y + ey) / 2
        if over(mx, my) == inside:
            x, y = mx, my
        else:
            ex, ey = mx, my
    # the crossing decides the answer: no other node fails on either side
    if _kernels.steppable(grid, x, y, radius, max_dev) == _kernels.steppable(
            grid, ex, ey, radius, max_dev):
        return None
    return x, y, ux, uy


class TestQueryCertificate:
    """snap_to_steppable's reuse of the last scanned query's answer (the
    first six entries of its `last` list) against the uncached call."""

    def test_reuse_equals_uncached_snap(self, monkeypatch):
        scans = []  # one entry per query scan, a steppable() call with a list
        real = _kernels.steppable

        def counting_steppable(grid, x, y, radius, max_dev, cert=None, height=None):
            if cert is not None:
                scans.append(None)
            return real(grid, x, y, radius, max_dev, cert, height)

        def first(grid, radius, memo, x0, y0):
            # the `last` list that the query (x0, y0) leaves
            last = []
            _kernels.snap_to_steppable(grid, radius, 0.03, 1.0, memo, x0, y0, last)
            return last

        def check(grid, radius, memo, filled, last0, x1, y1):
            # (reused, flipped) of the query (x1, y1) after the one of last0
            last = list(last0)
            n_before = len(scans)
            got = _kernels.snap_to_steppable(grid, radius, 0.03, 1.0, memo, x1, y1, last)
            reused = len(scans) == n_before
            # the uncached call: no `last`, and a memo of its own, filled in
            # advance with the answers a fresh one collects
            ref = _kernels.snap_to_steppable(grid, radius, 0.03, 1.0, bytearray(filled), x1, y1)
            assert got == ref, (grid.res, radius, tuple(last0[:2]), (x1, y1))
            return reused, real(grid, x1, y1, radius, 0.03) != last0[2]

        monkeypatch.setattr(_kernels, "steppable", counting_steppable)
        rng = np.random.default_rng(23)
        n_seq = n_reused = n_cross = 0
        flips = [0] * 5  # sequences per start kind whose second query flips the answer
        cross_flips = 0
        for kind in ("gap", "rough", "loaded"):
            for resolution in (0.03, 0.05, 0.1):
                for radius in (0.6 * resolution, resolution, 2.3 * resolution):
                    h = (_loaded_map(resolution, seed=int(resolution * 100))
                         if kind == "loaded" else
                         _node_grid_map(kind, resolution, seed=int(resolution * 100) + 2,
                                        amplitude=0.006 / radius))
                    grid = h.grid
                    filled = bytearray((1 + node_grid_per_steppable(h, radius, 0.03).ravel())
                                       .astype(np.uint8))
                    memo = bytearray(grid.rows * grid.cols)  # shared, filled lazily
                    starts = _query_starts(grid, radius, 0.03, rng, 470)
                    moves = zip((10.0 ** rng.uniform(-16, -3, 8 * len(starts))).tolist(),
                                rng.uniform(-math.pi, math.pi, 8 * len(starts)).tolist())
                    for x0, y0, start, ux, uy in starts:
                        last0 = first(grid, radius, memo, x0, y0)
                        for d, angle in (next(moves) for _ in range(8)):
                            reused, flip = check(grid, radius, memo, filled, last0,
                                                 x0 + d * math.cos(angle), y0 + d * math.sin(angle))
                            n_reused += reused
                            flips[start] += flip
                            n_seq += 1
                        if start == 0:
                            continue
                        # and two crossings: from b before the boundary to
                        # 0.2b .. 2b beyond it, with b from 1e-16 to 1e-4 m
                        for b, c in zip((10 ** rng.uniform(-16, -4, 2)).tolist(),
                                        rng.uniform(1.2, 3.0, 2).tolist()):
                            xs, ys = x0 - b * ux, y0 - b * uy
                            cross_flips += check(grid, radius, memo, filled,
                                                 first(grid, radius, memo, xs, ys),
                                                 xs + c * b * ux, ys + c * b * uy)[1]
                            n_cross += 1
        assert n_seq >= 100_000
        # not vacuous: the answer flips within a move from every kind of
        # start (fewest from random ones) and on many crossings, and most
        # second queries reuse the first one's answer
        assert min(flips) > 0 and min(flips[1:]) > 25, flips
        assert cross_flips > 200, (cross_flips, n_cross)
        assert n_reused > 0.6 * n_seq, (n_reused, n_seq)


class TestGridResample:
    """_bilinear on whole arrays, in the form generate calls it, is _cell at
    every point of a separable grid, bit for bit."""

    def test_equals_scalar_cell(self):
        rng = np.random.default_rng(13)
        heights = rng.uniform(-0.1, 0.1, (13, 17))
        ox, oy, res = -1.2345678, 0.7654321, 0.0731
        x1, y1 = ox + 16 * res, oy + 12 * res

        def coords(lo, hi, n):
            # nodes, the far edge and the points around it (which clamp to
            # the last cell), points before the origin, and random points
            return np.array([lo, hi, math.nextafter(hi, lo), math.nextafter(hi, math.inf),
                             hi + 0.4 * res, lo - 0.3 * res,
                             *(lo + res * np.arange(n)).tolist(),
                             *rng.uniform(lo, hi, 25).tolist()])

        xs, ys = coords(ox, x1, 17), coords(oy, y1, 13)
        i, ey, fy = _kernels.cell_table((ys - oy) / res, 13)
        j, ex, fx = _kernels.cell_table((xs - ox) / res, 17)
        values = _kernels._bilinear(heights[i].T, heights[i + 1].T, j, ey, fy,
                                    ex[:, None], fx[:, None]).T
        assert values.shape == (ys.size, xs.size)
        assert i.max() == 11 and j.max() == 15  # the last cell is reached
        rows = heights.tolist()
        for a, y in enumerate(ys.tolist()):
            for b, x in enumerate(xs.tolist()):
                ci, cj, h0 = _kernels._cell(rows, 13, 17, (x - ox) / res, (y - oy) / res)
                assert (int(i[a]), int(j[b])) == (ci, cj)
                assert values[a, b].tobytes() == np.float64(h0).tobytes(), (x, y)


def _bits(v):
    return np.float64(v).tobytes()


class TestCellTables:
    """cell_table's (k, 1 - f, f) entries and a CellRow's nodes are _cell's
    cells and values, bit for bit, at the clamp edges too."""

    @staticmethod
    def _coords(n, rng):
        # integers, the far edge n - 1 (clamped to the last cell) and the
        # points around it, points before 0, and random points
        return [*map(float, range(n)), math.nextafter(n - 1.0, 0.0),
                math.nextafter(n - 1.0, math.inf), n - 0.6, -0.3, -0.0,
                *rng.uniform(0.0, n - 1.0, 9).tolist()]

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 7), (6, 2), (5, 9)])
    def test_equal_scalar_cell(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        lattice = rng.uniform(-0.1, 0.1, (rows, cols)).tolist()
        gy, gx = self._coords(rows, rng), self._coords(cols, rng)
        row_cells, col_cells = (list(zip(*(a.tolist() for a in
                                           _kernels.cell_table(np.array(g), n))))
                                for g, n in ((gy, rows), (gx, cols)))
        assert len(row_cells) == len(gy) and len(col_cells) == len(gx)
        for cells, coords, n in ((row_cells, gy, rows), (col_cells, gx, cols)):
            # the far edge is the last cell at weights (0.0, 1.0); an integer
            # inside is its own cell at (1.0, 0.0)
            assert cells[n - 1] == (n - 2, 0.0, 1.0)
            assert cells[0] == (0, 1.0, 0.0)
            assert all(type(k) is int for k, _, _ in cells)
            for (k, e, f), g in zip(cells, coords):
                assert 0 <= k <= n - 2 and _bits(f) == _bits(g - k)
                assert _bits(e) == _bits(1.0 - f)
        for a, y in enumerate(gy):
            row = _kernels.CellRow(lattice, row_cells[a], col_cells)
            for b, x in enumerate(gx):
                i, j, v = _kernels._cell(lattice, rows, cols, x, y)
                assert (row_cells[a][0], col_cells[b][0]) == (i, j)
                assert _bits(row[b]) == _bits(v), (x, y)
            assert len(row) == len(gx)

    def test_layout_tables_equal_scalar_cell(self):
        # a layout's tables hold _cell's cell and weights at its lattice
        # coordinates, one entry per grid row and column
        layout = terrain_mod._layout(_rough(0.05, 0.5, 0), (-1.0, -1.0, 2.0, 1.0), 0.05)
        _, lat_rows, lat_cols, row_cells, col_cells = layout[6]
        assert (len(row_cells), len(col_cells)) == (layout[2], layout[3])
        # the grid nodes' lattice coordinates: the lattice starts one
        # correlation length before the cell of the extent's corner
        gy = (-1.0 + 0.05 * np.arange(layout[2])) / 0.5 - (math.floor(-1.0 / 0.5) - 1)
        gx = (-1.0 + 0.05 * np.arange(layout[3])) / 0.5 - (math.floor(-1.0 / 0.5) - 1)
        for cells, coords, n in ((row_cells, gy, lat_rows), (col_cells, gx, lat_cols)):
            for (k, e, f), g in zip(cells, coords.tolist()):
                # _cell's row cell on an n x 2 grid
                i, _, _ = _kernels._cell([[0.0, 0.0]] * n, n, 2, 0.0, g)
                assert k == i and _bits(f) == _bits(g - i) and _bits(e) == _bits(1.0 - f)

    def test_one_frame_per_node(self, monkeypatch):
        # a node fill reads the table and calls the scalar sum once: no
        # _cell call, and a node read again is not filled again
        layout = terrain_mod._layout(_rough(0.05, 0.5, 0), (-1.0, -1.0, 2.0, 1.0), 0.05)
        grid = terrain_mod.layout_grid(layout, 3)
        sums = []
        real = _kernels._bilinear

        def spy(*args):
            sums.append(args[2:])
            return real(*args)

        monkeypatch.setattr(_kernels, "_bilinear", spy)
        monkeypatch.setattr(_kernels, "_cell", None)
        first = grid.h[5][7]
        assert grid.h[5][7] == first and isinstance(grid.h[5], _kernels.CellRow)
        row_cells, col_cells = layout[6][3:]
        (_, ey, fy), (kx, ex, fx) = row_cells[5], col_cells[7]
        assert sums == [(kx, ey, fy, ex, fx)]


class TestGenerate:
    @pytest.mark.parametrize("spec,extent,resolution", [
        (TerrainSpec(kind="rough", amplitude=0.05, correlation=0.5, seed=0),
         (-2.0, -2.0, 12.0, 2.0), 0.05),
        (TerrainSpec(kind="rough", amplitude=0.03, correlation=0.37, seed=5),
         (-1.37, -0.93, 2.71, 1.13), 0.07),
        (TerrainSpec(kind="rough", amplitude=0.08, correlation=0.77, seed=9),
         (0.123, -2.2, 4.567, -0.3), 0.033),
        (TerrainSpec(kind="rough", amplitude=0.05, correlation=0.2, seed=3),
         (-0.61, 0.29, -0.1, 0.83), 0.1)])
    def test_rough_equals_per_formula_oracle(self, spec, extent, resolution):
        h = generate(spec, extent, resolution)
        ref = rough_heights_per_formula(spec, extent, resolution)
        assert h.heights.shape == ref.shape
        assert h.heights.tobytes() == ref.tobytes()

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
        h3 = generate(replace(spec, seed=18), (-1, -1, 1, 1), 0.05)
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


def _rough(amplitude, correlation, seed):
    return TerrainSpec(kind="rough", amplitude=amplitude, correlation=correlation, seed=seed)


def _view_nodes(grid):
    """Every node of a grid view, read one by one: (heights, mask) arrays."""
    h = [[grid.h[i][j] for j in range(grid.cols)] for i in range(grid.rows)]
    m = [[grid.m[i][j] for j in range(grid.cols)] for i in range(grid.rows)]
    assert {type(v) for row in h for v in row} == {float}
    return np.array(h), np.array(m, dtype=np.uint8)


class TestGenerateGrid:
    """generate_grid's view of a spec against generate's map, node by node."""

    @pytest.mark.parametrize("spec,extent,resolution", [
        # x1 a multiple of neither resolution nor correlation; negative origin
        (_rough(0.05, 0.5, 0), (-2.0, -2.0, 7.33, 2.0), 0.05),
        (_rough(0.03, 0.37, 5), (-1.37, -0.93, 2.71, 1.13), 0.07),
        (_rough(0.08, 0.77, 9), (0.123, -2.2, 4.567, -0.3), 0.033),
        # correlation below the node spacing
        (_rough(0.05, 0.03, 3), (-0.61, 0.29, 0.47, 0.83), 0.05),
        # correlation larger than the extent
        (_rough(0.05, 10.0, 11), (-1.21, -0.4, 1.3, 0.55), 0.05),
        # the last node lies past a lattice sized from x1, y1 (26 m heights once)
        (_rough(0.05, 0.02, 1), (0.0, 0.0, 2.1, 2.1), 0.5),
    ], ids=["non-round", "non-round-2", "fine-resolution", "corr-below-res",
            "corr-beyond-extent", "last-node-past-extent"])
    def test_lazy_nodes_equal_generate(self, spec, extent, resolution):
        eager = generate(spec, extent, resolution)
        grid = generate_grid(spec, extent, resolution)
        assert (grid.rows, grid.cols) == eager.heights.shape
        assert (grid.ox, grid.oy, grid.res) == (*eager.origin.tolist(), eager.resolution)
        assert not grid.h  # no height is filled before it is read
        # the far-edge row and column first, on the fresh view
        last_row = [grid.h[grid.rows - 1][j] for j in range(grid.cols)]
        last_col = [grid.h[i][grid.cols - 1] for i in range(grid.rows)]
        assert np.array(last_row).tobytes() == eager.heights[-1].tobytes()
        assert np.array(last_col).tobytes() == eager.heights[:, -1].copy().tobytes()
        heights, mask = _view_nodes(grid)
        assert heights.tobytes() == eager.heights.tobytes()
        assert 0.0 < np.abs(eager.heights).max() <= spec.amplitude
        assert mask.tobytes() == eager.mask.tobytes()
        assert not eager.mask.any()

    def test_rough_heights_stay_within_amplitude(self):
        rng = np.random.default_rng(18)
        past_extent = 0
        for _ in range(300):
            corr, resolution = rng.uniform(0.01, 1.0), rng.uniform(0.02, 1.0)
            x0, y0 = rng.uniform(-3.0, 3.0, 2)
            x1, y1 = (x0, y0) + rng.uniform(0.01, 3.0, 2)
            spec = _rough(0.05, corr, int(rng.integers(1000)))
            eager = generate(spec, (x0, y0, x1, y1), resolution)
            assert np.abs(eager.heights).max() <= spec.amplitude
            # a last node two correlation lengths past x1 lies past the
            # lattice nodes that x1 alone asks for
            past_extent += x0 + resolution * (eager.cols - 1) >= x1 + 2.0 * corr
            grid = generate_grid(spec, (x0, y0, x1, y1), resolution)
            last_col = [grid.h[i][grid.cols - 1] for i in range(grid.rows)]
            assert np.array(last_col).tobytes() == eager.heights[:, -1].copy().tobytes()
        assert past_extent >= 30, past_extent

    @pytest.mark.parametrize("spec,extent,resolution", [
        (TerrainSpec(kind="gap", gap_width=0.15, gap_period=0.8, gap_offset=0.4),
         (-2.0, -2.0, 4.3, 2.0), 0.05),
        # the default offset, half a period
        (TerrainSpec(kind="gap", gap_width=0.13, gap_period=0.57),
         (-1.37, -0.41, 3.29, 0.77), 0.03),
        (TerrainSpec(kind="gap", gap_width=0.21, gap_period=0.9, gap_offset=-0.33),
         (0.123, -1.1, 5.7, 0.9), 0.07),
        # no supporting ground at all
        (TerrainSpec(kind="gap", gap_width=1.0, gap_period=0.8, gap_offset=0.1),
         (-0.5, -0.5, 2.05, 0.5), 0.05),
        (TerrainSpec(kind="flat"), (-1.3, -1.1, 1.05, 1.0), 0.05),
    ], ids=["gap", "gap-default-offset", "gap-negative-offset", "gap-impassable", "flat"])
    def test_view_equals_generate(self, spec, extent, resolution):
        eager = generate(spec, extent, resolution)
        grid = generate_grid(spec, extent, resolution)
        assert (grid.rows, grid.cols) == eager.heights.shape
        assert (grid.ox, grid.oy, grid.res) == (*eager.origin.tolist(), eager.resolution)
        heights, mask = _view_nodes(grid)
        assert heights.tobytes() == eager.heights.tobytes()
        assert mask.tobytes() == eager.mask.tobytes()
        assert not eager.heights.any()
        assert eager.mask.any() == (spec.kind == "gap")

    @pytest.mark.parametrize("build", [generate, generate_grid])
    @pytest.mark.parametrize("spec,extent,resolution,message", [
        (TerrainSpec(kind="flat"), (-1e308, 0.0, 1e308, 1.0), 1.0,
         "at resolution 1.0 has non-finite nodes"),
        (_rough(0.05, 0.5, 1), (1e308, 0.0, 1.00001e308, 1.0), 1e301,
         "has non-finite lattice coordinates"),
        # the corners' lattice coordinates are finite, the last node's are not
        (_rough(0.05, 0.5, 1), (-8e307, 0.0, 8e307, 1.0), 1e306,
         "has non-finite lattice coordinates"),
        # the nodes are finite, their distance to the gap offset is not
        (TerrainSpec(kind="gap", gap_width=0.1, gap_period=0.5, gap_offset=-1e308),
         (1e308, 0.0, 1.5e308, 1.0), 1e307,
         "has non-finite node coordinates relative to gap offset " + re.escape("-1e+308")),
    ], ids=["span", "corner", "last-node", "gap-offset"])
    def test_overflowing_extent_raises(self, build, spec, extent, resolution, message):
        with pytest.raises(ValueError, match=re.escape(f"extent {extent} ") + ".*" + message):
            build(spec, extent, resolution)

    def test_zero_amplitude_is_all_zero_without_a_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a lattice was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        spec = _rough(0.0, 0.5, 4)
        extent = (-1.3, -1.1, 1.05, 1.0)
        eager = generate(spec, extent, 0.05)
        heights, mask = _view_nodes(generate_grid(spec, extent, 0.05))
        assert heights.tobytes() == eager.heights.tobytes()
        assert mask.tobytes() == eager.mask.tobytes()
        assert not eager.heights.any() and not eager.mask.any()


class TestLayoutGrid:
    """One layout per (spec, extent, resolution), one grid per seed on it."""

    def test_trial_grids_equal_generate_per_seed(self):
        rng = np.random.default_rng(29)
        kinds = []
        for _ in range(12):
            kind = ("rough", "rough", "gap", "flat")[int(rng.integers(4))]
            kinds.append(kind)
            if kind == "rough":
                spec = _rough(rng.uniform(0.01, 0.08), rng.uniform(0.03, 1.5),
                              int(rng.integers(1000)))
            elif kind == "gap":
                spec = TerrainSpec(kind="gap", gap_width=rng.uniform(0.05, 0.3),
                                   gap_period=rng.uniform(0.4, 1.0),
                                   gap_offset=rng.uniform(-0.5, 0.5))
            else:
                spec = TerrainSpec(kind="flat")
            resolution = rng.uniform(0.03, 0.2)
            x0, y0 = rng.uniform(-3.0, 3.0, 2)
            x1, y1 = (x0, y0) + rng.uniform(0.1, 2.5, 2)
            extent = (x0, y0, x1, y1)
            layout = terrain_mod._layout(spec, extent, resolution)
            for seed in rng.integers(0, 2**32, 3).tolist():
                grid = terrain_mod.layout_grid(layout, seed)
                eager = generate(replace(spec, seed=seed), extent, resolution)
                assert (grid.rows, grid.cols) == eager.heights.shape
                assert (grid.ox, grid.oy, grid.res) == (*eager.origin.tolist(),
                                                        eager.resolution)
                # the far-edge row and column first, on the fresh grid
                last_row = [grid.h[grid.rows - 1][j] for j in range(grid.cols)]
                last_col = [grid.h[i][grid.cols - 1] for i in range(grid.rows)]
                assert np.array(last_row).tobytes() == eager.heights[-1].tobytes()
                assert np.array(last_col).tobytes() == eager.heights[:, -1].copy().tobytes()
                heights, mask = _view_nodes(grid)
                assert heights.tobytes() == eager.heights.tobytes()
                assert mask.tobytes() == eager.mask.tobytes()
        assert set(kinds) == {"rough", "gap", "flat"}

    def test_seeds_draw_other_lattices(self):
        spec = _rough(0.05, 0.5, 0)
        layout = terrain_mod._layout(spec, (-1.0, -1.0, 2.0, 1.0), 0.05)
        a, b = (_view_nodes(terrain_mod.layout_grid(layout, seed))[0] for seed in (3, 4))
        assert np.abs(a - b).max() > 0.01

    def test_a_fill_stays_in_its_grid(self):
        layout = terrain_mod._layout(_rough(0.05, 0.5, 0), (-1.0, -1.0, 2.0, 1.0), 0.05)
        a, b, c = (terrain_mod.layout_grid(layout, seed) for seed in (3, 4, 3))
        first = a.h[5][7]
        assert dict(a.h) == {5: {7: first}}
        assert not b.h and not c.h
        assert b.h[5][7] != first
        assert dict(a.h) == {5: {7: first}} and not c.h
        assert c.h[5][7] == first  # the same seed draws the same lattice again

    def test_layout_draws_nothing(self, monkeypatch):
        draws = []
        real_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: draws.append(a) or real_rng(*a))
        layout = terrain_mod._layout(_rough(0.05, 0.5, 9), (-1.0, -1.0, 2.0, 1.0), 0.05)
        assert draws == []
        terrain_mod.layout_grid(layout, 12)
        generate(_rough(0.05, 0.5, 9), (-1.0, -1.0, 2.0, 1.0), 0.05)
        assert draws == [(12,), (9,)]

    # counts beyond what one array indexes fail in _layout, before any
    # array is made
    @pytest.mark.parametrize("build", [generate, generate_grid])
    @pytest.mark.parametrize("spec,extent,resolution,message", [
        (TerrainSpec(kind="flat"), (0.0, 0.0, 1e300, 1.0), 0.05,
         "flat terrain on extent (0.0, 0.0, 1e+300, 1.0) at resolution 0.05 has more nodes "
         "on an axis than an array holds"),
        (TerrainSpec(kind="gap"), (0.0, 0.0, 1.0, 1e300), 0.05,
         "gap terrain on extent (0.0, 0.0, 1.0, 1e+300) at resolution 0.05 has more nodes "
         "on an axis than an array holds"),
        (_rough(0.05, 1e-300, 0), (-2.0, -2.0, 17.0, 2.0), 0.05,
         "rough terrain on extent (-2.0, -2.0, 17.0, 2.0) at resolution 0.05 has more "
         "lattice nodes at correlation length 1e-300 than an array holds"),
        # each lattice axis fits, their product does not
        (_rough(0.05, 1e-9, 0), (0.0, 0.0, 4.0, 4.0), 1.0,
         "rough terrain on extent (0.0, 0.0, 4.0, 4.0) at resolution 1.0 has more "
         "lattice nodes at correlation length 1e-09 than an array holds"),
    ], ids=["flat-columns", "gap-rows", "rough-lattice", "rough-lattice-product"])
    def test_unindexable_counts_are_named(self, monkeypatch, build, spec, extent, resolution,
                                          message):
        def no_array(*args, **kwargs):
            raise AssertionError("an array was made")

        monkeypatch.setattr(np, "arange", no_array)
        monkeypatch.setattr(np.random, "default_rng", no_array)
        with pytest.raises(ValueError, match=re.escape(message)):
            build(spec, extent, resolution)

    def test_a_map_beyond_one_array_is_named(self):
        # each axis fits one array, the map's rows x cols nodes do not
        with pytest.raises(ValueError, match=re.escape(
                "gap terrain on extent (0.0, 0.0, 1.0, 5e+16) at resolution 0.05 has more "
                "nodes than an array holds")):
            generate(TerrainSpec(kind="gap"), (0.0, 0.0, 1.0, 5e16), 0.05)


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

    def test_to_dict_equals_per_value_form(self):
        heights = np.zeros((3, 4))
        heights[0, 1], heights[1, 2], heights[2, 3] = -0.0, 0.1, -1e-300
        mask = np.zeros((3, 4), dtype=np.uint8)
        mask[:, 1] = 1
        h = Heightmap(origin=(-0.5, 1.25), resolution=0.05, heights=heights, mask=mask)
        per_value = {"origin": [float(h.origin[0]), float(h.origin[1])],
                     "resolution": float(h.resolution), "rows": h.rows, "cols": h.cols,
                     "heights": [float(v) for v in h.heights.ravel()],
                     "mask": [int(m) for m in h.mask.ravel()]}
        text = json.dumps(h.to_dict(), sort_keys=True)
        assert text == json.dumps(per_value, sort_keys=True)
        # not vacuous: the map holds a negative zero and mask ones
        assert '"heights": [0.0, -0.0' in text and sum(per_value["mask"]) == 3

    def test_save_writes_one_sorted_json_line(self, tmp_path):
        h = generate(TerrainSpec(kind="gap", gap_width=0.2, gap_period=0.8), (0, 0, 2, 1), 0.1)
        path = tmp_path / "map.json"
        h.save(path)
        assert path.read_text() == json.dumps(h.to_dict(), sort_keys=True) + "\n"
        assert h.mask.any()

    def test_map_without_mask_has_all_zero_mask(self):
        d = {"origin": [0, 0], "resolution": 0.1, "rows": 2, "cols": 3, "heights": [0.5] * 6}
        h = Heightmap.from_dict(d)
        assert h.mask.shape == (2, 3) and h.mask.dtype == np.uint8 and not h.mask.any()
        assert h.to_dict() == {**d, "origin": [0.0, 0.0], "mask": [0] * 6}

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

    @pytest.mark.parametrize("kw,message", [
        ({"origin": (0.0, 0.0, 0.0)}, "origin must be 2 numbers"),
        ({"heights": np.zeros(4), "mask": np.zeros(4)}, "heights must be a 2D grid"),
        ({"heights": np.zeros((1, 4)), "mask": np.zeros((1, 4))},
         "heights must be a 2D grid"),
        ({"mask": np.zeros((2, 3))}, "mask shape (2, 3) must match heights (2, 2)")])
    def test_bad_heightmap(self, kw, message):
        args = {"origin": (0.0, 0.0), "resolution": 0.1, "heights": np.zeros((2, 2)),
                "mask": np.zeros((2, 2)), **kw}
        with pytest.raises(ValueError, match=re.escape(message)):
            Heightmap(**args)

    @pytest.mark.parametrize("kw,message", [
        ({"kind": "lava"}, "unknown terrain kind 'lava'"),
        ({"kind": "rough", "amplitude": -0.01}, "amplitude must be non-negative"),
        ({"kind": "rough", "correlation": 0.0}, "correlation length must be positive"),
        ({"kind": "rough", "correlation": -0.5}, "correlation length must be positive"),
        ({"kind": "gap", "gap_width": 0.0}, "gap width and period must be positive"),
        ({"kind": "gap", "gap_period": -0.8}, "gap width and period must be positive"),
        ({"kind": "rough", "seed": -3}, "seed must be a non-negative integer, got -3"),
        ({"kind": "rough", "seed": 1.0}, "seed must be a non-negative integer, got 1.0"),
        ({"kind": "rough", "seed": True}, "seed must be a non-negative integer, got True")])
    def test_bad_spec_parameters(self, kw, message):
        with pytest.raises(ValueError, match=message):
            TerrainSpec(**kw)

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
